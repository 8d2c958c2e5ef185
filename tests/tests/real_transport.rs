//! End-to-end tests of the real transport: the same protocol engine that
//! runs on the virtual-time simulator, driven over actual loopback
//! sockets, with the simulator as the correctness oracle.
//!
//! The oracle argument: `check` with a socket transport runs a live
//! application's reference on the simulator and then the application over
//! real sockets, independently re-executing the protocol, and for
//! lock-order-independent workloads the two executions — kernel delivery
//! vs. virtual time — must agree on every byte of final shared memory.
//! The simulator run's recorded streams, checked over the same sockets,
//! must reach that memory too. Every application under every protocol
//! choice over lossless and lossy TCP is in crates/replay/tests/product.rs.

use std::time::Duration;

use midway_apps::{AppKind, Scale};
use midway_core::{BackendKind, FaultPlan, MidwayConfig, RealConfig};
use midway_replay::{check, App, Axes, Comparison, Trace, Transport};

/// sor at small scale on 4 processors under `backend`, recording.
fn sor(backend: BackendKind) -> App {
    App {
        kind: AppKind::Sor,
        scale: Scale::Small,
        cfg: MidwayConfig::new(4, backend).record(true),
    }
}

/// A live TCP run reaches the simulator's final memory on every backend,
/// and the trace it records survives the file format; the simulator's
/// recording of the same cell checks over TCP to the same memory.
#[test]
fn simulator_traces_check_over_tcp_on_every_backend() {
    let tcp = Axes {
        transport: Transport::Tcp { loss: None },
        ..Axes::default()
    };
    for backend in BackendKind::DATA {
        let v = check(&sor(backend), &tcp).unwrap_or_else(|e| panic!("{}: {e}", backend.label()));
        assert_eq!(v.comparison, Comparison::Converged);
        let live = Trace::from_run("sor", "small", true, &v.checked);
        assert!(live.total_ops() > 0, "the trace must record the run");
        assert_eq!(Trace::decode(&live.encode()), Ok(live));

        let recorded = Trace::from_run("sor", "small", true, &v.baseline);
        let v = check(&recorded, &tcp).unwrap_or_else(|e| panic!("{}: {e}", backend.label()));
        assert_eq!(v.comparison, Comparison::Converged);
    }
}

/// Repeated real-transport runs always converge to the simulator's final
/// memory — wall-clock scheduling jitter changes timings, never bytes.
#[test]
fn repeated_real_runs_agree_on_final_memory() {
    let tcp = Axes {
        transport: Transport::Tcp { loss: None },
        ..Axes::default()
    };
    for round in 0..5 {
        let v = check(&sor(BackendKind::Rt), &tcp).unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(v.comparison, Comparison::Converged);
    }
}

/// Over lossy TCP the reliable channel masks injected drops and
/// duplicates: a live run still completes, verifies and reaches the
/// simulator's final memory, the injection demonstrably happened, and the
/// simulator's recording checked over the same lossy sockets reaches that
/// memory too.
#[test]
fn lossy_tcp_run_completes_and_still_satisfies_the_oracle() {
    // 5% drop + 5% duplication, deterministic schedule.
    let loss = FaultPlan::seeded(7).drop_ppm(50_000).dup_ppm(50_000);
    let lossy = Axes {
        transport: Transport::Tcp { loss: Some(loss) },
        ..Axes::default()
    };
    let v = check(&sor(BackendKind::Rt), &lossy).expect("lossy sor run");
    assert_eq!(v.comparison, Comparison::Converged);
    let injected: u64 = v
        .checked
        .reports
        .iter()
        .map(|r| r.fault_stats.total())
        .sum();
    assert!(injected > 0, "the loss plan must actually inject faults");
    let link = v.checked.link_totals();
    assert!(
        link.data_frames_sent > 0,
        "a lossy plan must frame messages reliably"
    );
    assert!(
        link.retransmits > 0 || link.dup_frames_dropped > 0,
        "masking 5% loss must leave reliable-channel evidence \
         (stats: {link:?})"
    );

    let recorded = Trace::from_run("sor", "small", true, &v.baseline);
    let v = check(&recorded, &lossy).expect("lossy trace check");
    assert_eq!(v.comparison, Comparison::Converged);
    let injected: u64 = v
        .checked
        .reports
        .iter()
        .map(|r| r.fault_stats.total())
        .sum();
    assert!(injected > 0, "the checked run must be lossy too");
}

/// A socket cell whose plan crashes a processor is refused up front, as an
/// error naming the cell: a wall-clock run has no deterministic clock to
/// schedule the crash against.
#[test]
fn a_crash_on_a_socket_cell_is_an_error_naming_it() {
    let crashing = Axes {
        transport: Transport::Tcp {
            loss: Some(FaultPlan::lossy(7, 10_000).with_crash(1, 1_000, 100)),
        },
        ..Axes::default()
    };
    let err = check(&sor(BackendKind::Rt), &crashing).expect_err("a crash cannot run on sockets");
    assert!(err.contains("cannot crash a processor"), "{err}");
    assert!(err.contains("1 crash(es) scheduled under Axes"), "{err}");
    assert!(err.contains("transport: Tcp"), "{err}");
}

/// The watchdog aborts a hung run with per-processor state dumps instead
/// of letting the suite hang: a two-processor barrier only one processor
/// ever reaches cannot finish.
#[test]
fn watchdog_aborts_a_stuck_run_with_dumps() {
    use midway_core::{Midway, RunError, SystemBuilder};

    let mut b = SystemBuilder::new();
    let cell = b.shared_array::<u64>("cell", 1, 1);
    let bar = b.barrier(vec![cell.full_range()]);
    let spec = b.build();

    let real = RealConfig::tcp().watchdog(Some(Duration::from_millis(300)));
    let cfg = MidwayConfig::new(2, BackendKind::Rt);
    let err = Midway::run_real(cfg, &real, &spec, |p| {
        if p.id() == 0 {
            p.barrier(bar); // processor 1 never arrives
        }
    })
    .expect_err("a one-sided barrier must trip the watchdog");
    match err {
        RunError::Watchdog { dumps, .. } => {
            assert_eq!(dumps.len(), 2, "one state dump per processor");
        }
        other => panic!("expected a watchdog abort, got: {other}"),
    }
}
