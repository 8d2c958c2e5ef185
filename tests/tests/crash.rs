//! End-to-end crash fault tolerance: a processor that fails mid-run and
//! restarts from its checkpoint + write-ahead log must rejoin the
//! computation and drive it to the exact fault-free final state.
//!
//! Every test here is one `check` of a live application, so each crashed
//! run also passes the application's own check and reruns bit for bit,
//! and sor and matrix must reach the crash-free final memory and Table 2
//! counters (for the task-queue applications convergence is only
//! reported: a processor being down legitimately reorders lock grants).
//! The product of crashes with every other axis is in
//! crates/replay/tests/product.rs.

use midway_apps::{AppKind, Scale};
use midway_core::{BackendKind, BarrierShape, Counters, FaultPlan, HomeMap, MidwayConfig};
use midway_replay::{check, record_app, App, Axes, Comparison, Program, Trace, Transport, Verdict};

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

/// Cluster-wide totals of the checked run's counters.
fn totals(v: &Verdict) -> Counters {
    *v.checked.avg_counters().totals()
}

/// One mid-run crash of processor 1, scheduled relative to the reference
/// run's length so it lands inside the computation for every application.
fn one_crash(app: &App) -> FaultPlan {
    let len = app.reference().expect("reference run").finish_time.cycles();
    FaultPlan::none().with_crash(1, (len / 3).max(1), (len / 20).max(1))
}

fn sor(cfg: MidwayConfig) -> App {
    App {
        kind: AppKind::Sor,
        scale: Scale::Small,
        cfg,
    }
}

/// sor and matrix under every data backend, checkpointing at every
/// boundary so even the small workloads write images: strict convergence
/// after one mid-run crash, recovered from an image and the log.
#[test]
fn sor_and_matrix_converge_after_a_crash_on_every_backend() {
    for kind in [AppKind::Sor, AppKind::Matmul] {
        for backend in BackendKind::DATA {
            let app = App {
                kind,
                scale: Scale::Small,
                cfg: MidwayConfig::new(4, backend).checkpoint_every(1),
            };
            let v = check(&app, &sim(one_crash(&app)))
                .unwrap_or_else(|e| panic!("{} on {}: {e}", kind.label(), backend.label()));
            assert_eq!(v.comparison, Comparison::Converged);
            let t = totals(&v);
            assert_eq!(t.crashes, 1, "the scheduled crash must be taken");
            assert!(t.checkpoints_written > 0 && t.recovery_replay_bytes > 0);
        }
    }
}

/// Every processor crashes once, at staggered times — the cluster still
/// converges to the crash-free state.
#[test]
fn every_processor_crashing_once_still_converges() {
    let app = sor(MidwayConfig::new(4, BackendKind::Rt));
    let len = app.reference().expect("reference run").finish_time.cycles();
    let mut plan = FaultPlan::none();
    for p in 0..4 {
        plan = plan.with_crash(p, len / 5 + (p as u64) * (len / 10), len / 30);
    }
    let t = totals(&check(&app, &sim(plan)).expect("4-crash sor"));
    assert_eq!(t.crashes, 4, "all four crashes must be taken");
    assert!(t.downtime_cycles > 0);
}

/// The same processor crashing twice exercises the checkpoint rotation:
/// the second recovery reconstructs from images and logs written after
/// the first.
#[test]
fn repeated_crashes_of_one_processor_converge() {
    let app = sor(MidwayConfig::new(4, BackendKind::Rt));
    let len = app.reference().expect("reference run").finish_time.cycles();
    let plan = FaultPlan::none()
        .with_crash(2, len / 4, len / 40)
        .with_crash(2, len / 2, len / 40);
    let t = totals(&check(&app, &sim(plan)).expect("double crash"));
    assert_eq!(t.crashes, 2);
}

/// Crash recovery composes with the scale-out machinery when the
/// reference itself runs sharded sync homes and combining-tree barriers.
#[test]
fn recovery_composes_with_sharded_homes_and_tree_barriers() {
    let app = sor(MidwayConfig::new(4, BackendKind::Rt)
        .home_map(HomeMap::Sharded { seed: 5 })
        .barrier_shape(BarrierShape::Tree { arity: 2 }));
    let v = check(&app, &sim(one_crash(&app))).expect("sharded + tree recovery");
    assert_eq!(v.comparison, Comparison::Converged);
}

/// Crash recovery composes with an unreliable network: frames lost to
/// both the lossy link *and* the crash window are all repaired.
#[test]
fn recovery_composes_with_a_lossy_network() {
    let app = sor(MidwayConfig::new(4, BackendKind::Rt));
    let crash = one_crash(&app).crashes()[0];
    let plan = FaultPlan::lossy(7, 10_000).with_crash(1, crash.at, crash.at / 5);
    let v = check(&app, &sim(plan)).expect("loss + crash");
    assert!(totals(&v).retransmits > 0, "1% loss must retransmit");
}

/// Task-queue applications recover deterministically; final state
/// legitimately depends on lock-grant order, so convergence is only
/// reported.
#[test]
fn task_queue_apps_recover_deterministically() {
    let app = App {
        kind: AppKind::Quicksort,
        scale: Scale::Small,
        cfg: MidwayConfig::new(4, BackendKind::Rt),
    };
    let v = check(&app, &sim(one_crash(&app))).expect("quicksort crash determinism");
    assert_eq!(v.comparison, Comparison::Reported);
    assert_eq!(totals(&v).crashes, 1);
}

/// A crashed run's counters and link statistics show the full recovery
/// story: the crash taken, checkpoints written, WAL bytes logged, and
/// peers observing the new incarnation's epoch.
#[test]
fn live_runs_verify_output_and_account_for_recovery() {
    let app = sor(MidwayConfig::new(4, BackendKind::Rt));
    let plan = FaultPlan::none().with_crash(1, 400_000, 80_000);
    let v = check(&app, &sim(plan)).expect("crashed sor");
    let total = totals(&v);
    assert_eq!(total.crashes, 1, "the scheduled crash must be taken");
    assert!(total.downtime_cycles >= 80_000);
    assert!(total.checkpoints_written > 0, "boundaries must checkpoint");
    assert!(total.wal_bytes_logged > 0, "writes must reach the WAL");
    assert!(total.recovery_replay_bytes > 0);
    assert!(total.recovery_cycles > 0, "recovery must cost cycles");
    assert!(
        total.peer_recoveries_observed > 0,
        "peers must observe the recovered processor's new epoch"
    );
}

/// Checkpointing without any crash is pure overhead, never a behaviour
/// change: the run converges to the same final memory and counters, and
/// nothing recovery-related is counted.
#[test]
fn checkpointing_without_crashes_is_pure_overhead() {
    let axes = Axes {
        transport: Transport::Sim {
            faults: None,
            checkpoint_every: Some(4),
        },
        ..Axes::default()
    };
    let v = check(&sor(MidwayConfig::new(4, BackendKind::Rt)), &axes).expect("checkpointed sor");
    assert_eq!(v.comparison, Comparison::Converged);
    let total = totals(&v);
    assert!(total.checkpoints_written > 0);
    assert_eq!(total.crashes, 0);
    assert_eq!(total.recovery_replay_bytes, 0);
}

/// A trace recorded *with* a crash plan carries it: the v5 header
/// round-trips crashes and the checkpoint interval, and the decoded
/// trace replays bit for bit (crashes included).
#[test]
fn crash_plans_round_trip_through_the_trace_format() {
    let cfg = MidwayConfig::new(4, BackendKind::Rt)
        .crash(1, 400_000, 80_000)
        .checkpoint_every(4);
    let trace = record_app(AppKind::Sor, cfg, Scale::Small);
    let decoded = Trace::decode(&trace.encode()).expect("v5 round-trip");
    assert_eq!(decoded.meta.cfg.faults.crashes(), cfg.faults.crashes());
    assert_eq!(decoded.meta.cfg.checkpoint_every, 4);
    midway_replay::verify_replay(&decoded).expect("a crashed recording must replay bit for bit");
}
