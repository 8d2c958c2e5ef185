//! End-to-end tests of the real transport: the same protocol engine that
//! runs on the virtual-time simulator, driven over actual loopback
//! sockets, with the simulator as the correctness oracle.
//!
//! The oracle argument: a run on the simulator records its per-processor
//! shared-memory operation streams; `check` with a socket transport drives
//! those streams over real sockets, independently re-executing the
//! protocol, and for lock-order-independent workloads the two executions —
//! kernel delivery vs. virtual time — must agree on every byte of final
//! shared memory. Live socket runs of the same cells reach that memory
//! too.

use std::time::Duration;

use midway_apps::{run_app_real, AppKind, Scale};
use midway_core::{BackendKind, FaultPlan, MidwayConfig, RealConfig};
use midway_replay::{check, record_app, Axes, Comparison, Trace, Transport, Verdict};

const PROCS: usize = 4;

/// A watchdog long enough for debug-build CI machines, short enough that
/// a genuine hang fails the suite rather than timing it out.
fn tcp() -> RealConfig {
    RealConfig::tcp().watchdog(Some(Duration::from_secs(60)))
}

/// Sor recorded on the simulator under `backend`, round-tripped through
/// the trace format as a replayer sees it.
fn sor_trace(backend: BackendKind) -> Trace {
    let trace = record_app(
        AppKind::Sor,
        MidwayConfig::new(PROCS, backend),
        Scale::Small,
    );
    Trace::decode(&trace.encode()).expect("trace round-trips")
}

/// Checks `trace` over `transport`: sor must converge to the simulator.
fn over(trace: &Trace, transport: Transport) -> Verdict {
    let axes = Axes {
        transport,
        ..Axes::default()
    };
    let v = check(trace, &axes)
        .unwrap_or_else(|d| panic!("the sockets disagree with the simulator: {d}"));
    assert_eq!(v.comparison, Comparison::Converged);
    v
}

/// Every application completes and self-verifies on the real transport,
/// under every data-moving backend (`run_app_real` panics on a failed
/// check).
#[test]
fn every_app_completes_on_tcp_under_every_backend() {
    for kind in AppKind::all() {
        for backend in BackendKind::DATA {
            let cfg = MidwayConfig::new(PROCS, backend);
            if let Err(e) = run_app_real(kind, cfg, &tcp(), Scale::Small) {
                panic!(
                    "{} under {} failed on the real transport: {e}",
                    kind.label(),
                    backend.label()
                );
            }
        }
    }
}

/// A trace recorded on the simulator checks over TCP with bit-identical
/// final memory, for every backend; a live TCP run reaches the same
/// memory, and the trace it records survives the file format.
#[test]
fn simulator_traces_check_over_tcp_on_every_backend() {
    for backend in BackendKind::DATA {
        let v = over(&sor_trace(backend), Transport::Tcp);

        let cfg = MidwayConfig::new(PROCS, backend).record(true);
        let out = run_app_real(AppKind::Sor, cfg, &tcp(), Scale::Small)
            .unwrap_or_else(|e| panic!("sor under {} failed: {e}", backend.label()));
        assert_eq!(
            out.store_digests,
            v.baseline.store_digests,
            "the live {} run reached different final memory than the simulator",
            backend.label()
        );
        let trace = Trace::from_run("sor", "small", true, &out);
        assert!(trace.total_ops() > 0, "the trace must record the run");
        assert_eq!(Trace::decode(&trace.encode()), Ok(trace));
    }
}

/// Repeated real-transport runs always converge to the same final memory
/// as each other and as the simulator — wall-clock scheduling jitter
/// changes timings, never bytes.
#[test]
fn repeated_real_runs_agree_on_final_memory() {
    let trace = sor_trace(BackendKind::Rt);
    for round in 0..5 {
        let cfg = MidwayConfig::new(PROCS, BackendKind::Rt);
        let out = run_app_real(AppKind::Sor, cfg, &tcp(), Scale::Small)
            .unwrap_or_else(|e| panic!("round {round} failed: {e}"));
        let v = over(&trace, Transport::Tcp);
        assert_eq!(
            out.store_digests, v.baseline.store_digests,
            "round {round} reached different final memory than the simulator"
        );
    }
}

/// Over lossy UDP the reliable channel masks injected drops and
/// duplicates: a live run still completes and verifies, the injection
/// demonstrably happened, and both it and the simulator trace checked over
/// the same lossy sockets reach the simulator's final memory.
#[test]
fn lossy_udp_run_completes_and_still_satisfies_the_oracle() {
    // 5% drop + 5% duplication, deterministic schedule.
    let plan = FaultPlan::seeded(7).drop_ppm(50_000).dup_ppm(50_000);
    let real = RealConfig::udp(plan).watchdog(Some(Duration::from_secs(60)));
    let cfg = MidwayConfig::new(PROCS, BackendKind::Rt);

    let run = run_app_real(AppKind::Sor, cfg, &real, Scale::Small).expect("lossy sor run failed");

    let injected: u64 = run.reports.iter().map(|r| r.fault_stats.total()).sum();
    assert!(injected > 0, "the loss plan must actually inject faults");
    let link = run.link_totals();
    assert!(
        link.data_frames_sent > 0,
        "UDP mode must frame messages reliably"
    );
    assert!(
        link.retransmits > 0 || link.dup_frames_dropped > 0,
        "masking 5% loss must leave reliable-channel evidence \
         (stats: {link:?})"
    );

    let v = over(&sor_trace(BackendKind::Rt), Transport::Udp { loss: plan });
    assert_eq!(
        run.store_digests, v.baseline.store_digests,
        "the live lossy run reached different final memory than the simulator"
    );
    let injected: u64 = v
        .checked
        .reports
        .iter()
        .map(|r| r.fault_stats.total())
        .sum();
    assert!(injected > 0, "the checked run must be lossy too");
}

/// The watchdog aborts a hung run with per-processor state dumps instead
/// of letting the suite hang: a two-processor barrier only one processor
/// ever reaches cannot finish.
#[test]
fn watchdog_aborts_a_stuck_run_with_dumps() {
    use midway_core::{Midway, RealError, SystemBuilder};

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
        RealError::Watchdog { dumps, .. } => {
            assert_eq!(dumps.len(), 2, "one state dump per processor");
        }
        other => panic!("expected a watchdog abort, got: {other}"),
    }
}
