//! End-to-end fault tolerance: the reliable delivery channel must mask a
//! deterministically faulty network.
//!
//! Three layers of assurance, in increasing strictness:
//!
//! * every application **completes deterministically** under a chaos
//!   plan (drops + duplicates + reordering + delays) on every
//!   data-moving backend — same seed, same run, bit for bit;
//! * live runs under faults still **pass the application's own
//!   verifier** (sorted output, converged grid, correct factors);
//! * the lock-order-independent applications (sor, matrix) **converge to
//!   the exact fault-free final memory and counters** — `check` requires
//!   it of them. For the others it only reports convergence, since entry
//!   consistency allows lock grants, and with them the last writer of
//!   contended words, to reorder under retransmission timing. Water's
//!   chaos seeds below happen to converge, and the test holds them to it
//!   by reading the verdict's two runs.

use midway_apps::{run_app, AppKind, Scale};
use midway_core::{BackendKind, FaultPlan, MidwayConfig};
use midway_replay::{check, record_app, Axes, Comparison, Trace, Transport, Verdict};

/// A plan that exercises every fault kind at once.
fn chaos(seed: u64) -> FaultPlan {
    FaultPlan::chaos(seed, 10_000)
}

/// Checks `trace` on the simulator under `plan`.
fn under(trace: &Trace, plan: FaultPlan) -> Result<Verdict, String> {
    let transport = Transport::Sim {
        faults: Some(plan),
        checkpoint_every: None,
    };
    check(
        trace,
        &Axes {
            transport,
            ..Axes::default()
        },
    )
}

/// Records `kind` at 4 processors under `backend` and returns the trace
/// (already round-tripped through the byte format, as a replayer sees it).
fn record(kind: AppKind, backend: BackendKind) -> Trace {
    let trace = record_app(kind, MidwayConfig::new(4, backend), Scale::Small);
    Trace::decode(&trace.encode()).expect("trace round-trip")
}

/// sor under every data backend: strict convergence (final memory and
/// counters identical to the fault-free run) at 1% loss.
#[test]
fn sor_converges_strictly_on_every_backend() {
    for backend in BackendKind::DATA {
        let trace = record(AppKind::Sor, backend);
        let v = under(&trace, FaultPlan::lossy(7, 10_000))
            .unwrap_or_else(|e| panic!("{}: {e}", backend.label()));
        assert_eq!(v.comparison, Comparison::Converged);
        assert!(
            v.checked.finish_time >= v.baseline.finish_time,
            "reliability cannot make the run faster"
        );
    }
}

/// sor, matrix and water survive a chaos plan with bit-for-bit
/// final-state and counter convergence under RT.
#[test]
fn order_independent_apps_converge_under_chaos() {
    for kind in [AppKind::Sor, AppKind::Matmul, AppKind::Water] {
        let trace = record(kind, BackendKind::Rt);
        for seed in [1, 7, 42] {
            let v = under(&trace, chaos(seed))
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", kind.label()));
            assert!(v.converged, "{} seed {seed}: final memory", kind.label());
            assert_eq!(
                v.checked.counters,
                v.baseline.counters,
                "{} seed {seed}: counters",
                kind.label()
            );
        }
    }
}

/// The task-queue applications complete deterministically under chaos;
/// final state legitimately depends on lock-grant order, so convergence
/// is only reported.
#[test]
fn task_queue_apps_complete_deterministically_under_chaos() {
    for kind in [AppKind::Quicksort, AppKind::Cholesky] {
        let trace = record(kind, BackendKind::Rt);
        for seed in [1, 7] {
            let v = under(&trace, chaos(seed))
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", kind.label()));
            assert_eq!(v.comparison, Comparison::Reported);
        }
    }
}

/// Live runs (the application recomputing, not replaying recorded bytes)
/// still verify their own output under faults: the sorted array is
/// sorted, the factorization checks out — whatever the lock order
/// (`run_app` panics on a failed check).
#[test]
fn live_runs_verify_their_output_under_faults() {
    for kind in AppKind::all() {
        let cfg = MidwayConfig::new(4, BackendKind::Rt).faults(chaos(11));
        run_app(kind, cfg, Scale::Small);
    }
}

/// A zero-rate but *enabled* plan turns on the reliable channel without
/// injecting anything: the run must converge to the raw fault-free state
/// on every backend, and no faults may be counted.
#[test]
fn enabled_channel_with_zero_rates_converges() {
    for backend in BackendKind::DATA {
        let trace = record(AppKind::Sor, backend);
        let v = under(&trace, FaultPlan::seeded(3))
            .unwrap_or_else(|e| panic!("{}: {e}", backend.label()));
        let injected: u64 = v
            .checked
            .reports
            .iter()
            .map(|r| r.fault_stats.total())
            .sum();
        assert_eq!(injected, 0, "zero rates must inject nothing");
    }
}

/// Heavy loss (10%) still completes — retransmission with backoff always
/// gets every frame through eventually, with no deadlock and no protocol
/// corruption.
#[test]
fn heavy_loss_completes_without_deadlock() {
    let trace = record(AppKind::Sor, BackendKind::Rt);
    let v = under(&trace, FaultPlan::lossy(5, 100_000)).expect("10% loss must still converge");
    assert!(
        v.checked.link_totals().retransmits > 0,
        "10% loss without a single retransmission is not credible"
    );
}
