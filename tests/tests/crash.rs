//! End-to-end crash fault tolerance: a processor that fails mid-run and
//! restarts from its checkpoint + write-ahead log must rejoin the
//! computation and drive it to the exact fault-free final state.
//!
//! Three layers of assurance, mirroring `fault_tolerance.rs`:
//!
//! * every scheduled crash is **taken and recovered deterministically**
//!   — same plan, same run, bit for bit (the crash oracle replays
//!   twice and compares everything);
//! * live runs with crashes still **pass the application's own
//!   verifier**;
//! * the lock-order-independent applications (sor, matrix) **converge
//!   to the exact crash-free final memory and Table 2 counters** on
//!   every data-moving backend — `check` requires it of them; for
//!   task-queue applications it only reports convergence, since a
//!   processor being down legitimately reorders lock grants.

use midway_apps::{run_app, AppKind, Scale};
use midway_core::{BackendKind, BarrierShape, Counters, FaultPlan, HomeMap, MidwayConfig};
use midway_replay::{check, record_app, Axes, Comparison, Trace, Transport, Verdict};

/// Records `kind` at 4 processors under `backend` and returns the trace
/// (round-tripped through the byte format, as a replayer sees it).
fn record(kind: AppKind, backend: BackendKind) -> Trace {
    record_cfg(kind, MidwayConfig::new(4, backend))
}

fn record_cfg(kind: AppKind, cfg: MidwayConfig) -> Trace {
    let trace = record_app(kind, cfg, Scale::Small);
    Trace::decode(&trace.encode()).expect("trace round-trip")
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

/// Cluster-wide totals of the checked run's counters.
fn totals(v: &Verdict) -> Counters {
    *v.checked.avg_counters().totals()
}

/// One mid-run crash of processor 1, scheduled relative to the recorded
/// run's length so it lands inside the computation for every application.
fn one_crash(trace: &Trace) -> FaultPlan {
    let at = (trace.meta.finish_cycles / 3).max(1);
    let down = (trace.meta.finish_cycles / 20).max(1);
    FaultPlan::none().with_crash(1, at, down)
}

/// sor and matrix under every data backend: strict convergence — final
/// memory and counters identical to the crash-free run — after one
/// mid-run crash with checkpointed recovery. This is the headline
/// acceptance property.
#[test]
fn sor_and_matrix_converge_after_a_crash_on_every_backend() {
    for kind in [AppKind::Sor, AppKind::Matmul] {
        for backend in BackendKind::DATA {
            // Checkpoint at every boundary so even the small workloads
            // (few synchronization operations) write images; the interval
            // rides in the recorded configuration, so the oracle's crashed
            // replay uses it too.
            let trace = record_cfg(kind, MidwayConfig::new(4, backend).checkpoint_every(1));
            let v = under(&trace, one_crash(&trace))
                .unwrap_or_else(|e| panic!("{} on {}: {e}", kind.label(), backend.label()));
            assert_eq!(v.comparison, Comparison::Converged);
            let t = totals(&v);
            assert_eq!(t.crashes, 1, "the scheduled crash must be taken");
            assert!(
                t.checkpoints_written > 0,
                "release/barrier boundaries must have produced checkpoints"
            );
            assert!(
                t.recovery_replay_bytes > 0,
                "recovery must replay state from stable storage"
            );
            assert!(
                v.checked.finish_time >= v.baseline.finish_time,
                "a crash cannot make the run faster"
            );
        }
    }
}

/// Every processor crashes once, at staggered times — the cluster still
/// converges to the crash-free state.
#[test]
fn every_processor_crashing_once_still_converges() {
    let trace = record(AppKind::Sor, BackendKind::Rt);
    let len = trace.meta.finish_cycles;
    let mut plan = FaultPlan::none();
    for p in 0..4 {
        plan = plan.with_crash(p, len / 5 + (p as u64) * (len / 10), len / 30);
    }
    let t = totals(&under(&trace, plan).expect("4-crash sor"));
    assert_eq!(t.crashes, 4, "all four crashes must be taken");
    assert!(t.downtime_cycles > 0);
}

/// The same processor crashing twice exercises the checkpoint rotation:
/// the second recovery reconstructs from images and logs written after
/// the first.
#[test]
fn repeated_crashes_of_one_processor_converge() {
    let trace = record(AppKind::Sor, BackendKind::Rt);
    let len = trace.meta.finish_cycles;
    let plan = FaultPlan::none()
        .with_crash(2, len / 4, len / 40)
        .with_crash(2, len / 2, len / 40);
    let t = totals(&under(&trace, plan).expect("double crash"));
    assert_eq!(t.crashes, 2);
}

/// Crash recovery composes with the scale-out machinery: sharded sync
/// homes and combining-tree barriers.
#[test]
fn recovery_composes_with_sharded_homes_and_tree_barriers() {
    let cfg = MidwayConfig::new(4, BackendKind::Rt)
        .home_map(HomeMap::Sharded { seed: 5 })
        .barrier_shape(BarrierShape::Tree { arity: 2 });
    let trace = record_cfg(AppKind::Sor, cfg);
    under(&trace, one_crash(&trace)).expect("sharded + tree recovery");
}

/// Crash recovery composes with an unreliable network: frames lost to
/// both the lossy link *and* the crash window are all repaired.
#[test]
fn recovery_composes_with_a_lossy_network() {
    let trace = record(AppKind::Sor, BackendKind::Rt);
    let at = trace.meta.finish_cycles / 3;
    let plan = FaultPlan::lossy(7, 10_000).with_crash(1, at, at / 5);
    let v = under(&trace, plan).expect("loss + crash");
    assert!(
        v.checked.link_totals().retransmits > 0,
        "1% loss must retransmit"
    );
}

/// Task-queue applications recover deterministically; final state
/// legitimately depends on lock-grant order, so convergence is only
/// reported at the replay level.
#[test]
fn task_queue_apps_recover_deterministically() {
    let trace = record(AppKind::Quicksort, BackendKind::Rt);
    let v = under(&trace, one_crash(&trace)).expect("quicksort crash determinism");
    assert_eq!(v.comparison, Comparison::Reported);
    assert_eq!(totals(&v).crashes, 1);
}

/// Live runs (the application recomputing, not replaying recorded bytes)
/// still verify their own output after a crash, and the run's counters
/// and link statistics show the full recovery story: the crash taken,
/// checkpoints written, WAL bytes logged, and peers observing the new
/// incarnation's epoch.
#[test]
fn live_runs_verify_output_and_account_for_recovery() {
    let cfg = MidwayConfig::new(4, BackendKind::Rt).crash(1, 400_000, 80_000);
    let out = run_app(AppKind::Sor, cfg, Scale::Small);

    let total = out
        .counters
        .iter()
        .fold(midway_core::Counters::default(), |mut t, c| {
            t.add(c);
            t
        });
    assert_eq!(total.crashes, 1, "the scheduled crash must be taken");
    assert!(total.downtime_cycles >= 80_000);
    assert!(total.checkpoints_written > 0, "boundaries must checkpoint");
    assert!(total.wal_bytes_logged > 0, "writes must reach the WAL");
    assert!(total.recovery_replay_bytes > 0);
    assert!(total.recovery_cycles > 0, "recovery must cost cycles");

    let link = out.link_totals();
    assert!(
        link.peer_recoveries_observed > 0,
        "peers must observe the recovered processor's new epoch"
    );
}

/// Checkpointing without any crash is pure overhead, never a behaviour
/// change: the run converges to the same final memory and passes its
/// verifier, and nothing recovery-related is counted.
#[test]
fn checkpointing_without_crashes_is_pure_overhead() {
    let base = run_app(
        AppKind::Sor,
        MidwayConfig::new(4, BackendKind::Rt),
        Scale::Small,
    );
    let ckpt = run_app(
        AppKind::Sor,
        MidwayConfig::new(4, BackendKind::Rt).checkpoint_every(4),
        Scale::Small,
    );
    assert_eq!(
        base.store_digests, ckpt.store_digests,
        "checkpointing must not change the computation"
    );
    let total = ckpt
        .counters
        .iter()
        .fold(midway_core::Counters::default(), |mut t, c| {
            t.add(c);
            t
        });
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
