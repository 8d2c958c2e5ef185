//! End-to-end fault tolerance: the reliable delivery channel must mask a
//! deterministically faulty network.
//!
//! Every test here is one `check` of a live application under a fault
//! plan, so each faulty run also passes the application's own check
//! (sorted output, converged grid, correct factors) and reruns bit for
//! bit. The lock-order-independent applications (sor, matrix) must reach
//! the exact fault-free final memory and counters. For the others
//! convergence is only reported, since entry consistency allows lock
//! grants, and with them the last writer of contended words, to reorder
//! under retransmission timing. The product of loss with every other axis
//! is in crates/replay/tests/product.rs.

use midway_apps::{AppKind, Scale};
use midway_core::{BackendKind, Counters, FaultPlan, MidwayConfig, MidwayRun};
use midway_replay::{check, App, Axes, Comparison, Transport};

/// The simulator under `plan`, every other axis as the reference.
fn sim(plan: FaultPlan) -> Axes {
    Axes {
        transport: Transport::Sim {
            faults: Some(plan),
            checkpoint_every: None,
        },
        ..Axes::default()
    }
}

/// A plan that exercises every fault kind at once.
fn chaos(seed: u64) -> FaultPlan {
    FaultPlan::chaos(seed, 10_000)
}

/// `kind` at small scale on 4 processors under `backend`.
fn app(kind: AppKind, backend: BackendKind) -> App {
    App {
        kind,
        scale: Scale::Small,
        cfg: MidwayConfig::new(4, backend),
    }
}

/// sor, matrix and water survive a chaos plan with bit-for-bit
/// final-state and counter convergence under RT. Water's chaos seeds
/// happen to converge, and the test holds them to it by reading the
/// verdict's two runs.
#[test]
fn order_independent_apps_converge_under_chaos() {
    for kind in [AppKind::Sor, AppKind::Matmul, AppKind::Water] {
        for seed in [1, 7, 42] {
            let v = check(&app(kind, BackendKind::Rt), &sim(chaos(seed)))
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", kind.label()));
            assert!(v.converged, "{} seed {seed}: final memory", kind.label());
            // Every row but the delivery ones, which only the checked
            // run's network moves.
            let work = |r: &MidwayRun<()>| -> Vec<Counters> {
                r.counters.iter().map(Counters::sans_delivery).collect()
            };
            assert_eq!(
                work(&v.checked),
                work(&v.baseline),
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
        for seed in [1, 7] {
            let v = check(&app(kind, BackendKind::Rt), &sim(chaos(seed)))
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", kind.label()));
            assert_eq!(v.comparison, Comparison::Reported);
        }
    }
}

/// Every paper application still passes its own check under chaos,
/// whatever the lock order, and reruns bit for bit.
#[test]
fn live_runs_verify_their_output_under_faults() {
    for kind in AppKind::all() {
        check(&app(kind, BackendKind::Rt), &sim(chaos(11)))
            .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
    }
}

/// A zero-rate but *enabled* plan turns on the reliable channel without
/// injecting anything: the run must converge to the raw fault-free state
/// on every backend, and no faults may be counted.
#[test]
fn enabled_channel_with_zero_rates_converges() {
    for backend in BackendKind::DATA {
        let v = check(&app(AppKind::Sor, backend), &sim(FaultPlan::seeded(3)))
            .unwrap_or_else(|e| panic!("{}: {e}", backend.label()));
        assert_eq!(v.comparison, Comparison::Converged);
        let avg = v.checked.avg_counters();
        let t = avg.totals();
        let injected = t.msgs_dropped + t.msgs_duplicated + t.msgs_reordered + t.msgs_delayed;
        assert_eq!(injected, 0, "zero rates must inject nothing");
    }
}

/// Heavy loss (10%) still completes — retransmission with backoff always
/// gets every frame through eventually, with no deadlock and no protocol
/// corruption.
#[test]
fn heavy_loss_completes_without_deadlock() {
    let v = check(
        &app(AppKind::Sor, BackendKind::Rt),
        &sim(FaultPlan::lossy(5, 100_000)),
    )
    .expect("10% loss must still converge");
    assert!(
        v.checked.avg_counters().totals().retransmits > 0,
        "10% loss without a single retransmission is not credible"
    );
}
