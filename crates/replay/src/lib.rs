//! Trace capture & replay for the Midway DSM reproduction.
//!
//! Under entry consistency, every number the paper reports — Table 2's
//! primitive-operation counters, the execution times, the data volumes —
//! is a pure function of each processor's *shared-memory operation
//! stream*: its shared stores (with values), synchronization operations
//! and compute-cycle charges. This crate captures that stream once, to a
//! versioned, checksummed, varint-encoded binary file, and replays it
//! through the full protocol machinery without re-running the
//! application:
//!
//! * same backend, same parameters → the replay is **bit-for-bit
//!   identical** to the original run ([`verify_replay`] asserts this;
//!   it operationalizes the determinism argument in DESIGN.md), and
//! * any other backend (Rt, Vm, Blast, TwinAll), cache-line size,
//!   page-fault cost or network model → a cheap trace-driven evaluation
//!   of that design point, skipping the application's host-side compute.
//!
//! Record once, sweep many: the `fig3`, `fig4`, `ablation_linesize` and
//! `ablation_protocols` harnesses drive all their sweep points from one
//! captured trace per application. The `trace` binary exposes the same
//! machinery on the command line (`record` / `replay` / `info` / `diff`).

use std::path::Path;
use std::sync::Arc;

use midway_apps::{run_app, AppKind, AppOutcome, Scale};
use midway_core::{
    Counters, FaultPlan, LinkStats, Midway, MidwayConfig, MidwayRun, Proc, SimError, SpecBlueprint,
    SystemSpec, TraceOp,
};

mod format;

pub use format::{decode, encode, TraceError, MAGIC, VERSION};

/// Everything known about the recorded run, stored in the trace header.
///
/// The configuration makes the file self-contained (a replay needs the
/// cost and network models), and the recorded counters and times are the
/// baseline the equivalence oracle checks same-configuration replays
/// against.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMeta {
    /// Application label (e.g. `sor`), free-form for non-app traces.
    pub app: String,
    /// Workload scale label (e.g. `small`).
    pub scale: String,
    /// Whether the recorded run verified its own output.
    pub verified: bool,
    /// The full configuration of the recorded run (`record` and `check`
    /// forced off: both are per-run choices, not properties of the file).
    pub cfg: MidwayConfig,
    /// The recorded run's finish time, in cycles.
    pub finish_cycles: u64,
    /// Messages delivered cluster-wide in the recorded run.
    pub messages: u64,
    /// Per-processor Table 2 counters of the recorded run.
    pub counters: Vec<Counters>,
}

/// A captured run: header, system blueprint and per-processor operation
/// streams.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Header: identity, configuration and recorded baseline.
    pub meta: TraceMeta,
    /// Everything needed to rebuild the run's [`SystemSpec`].
    pub blueprint: SpecBlueprint,
    /// Recorded operation streams, indexed by processor id.
    pub ops: Vec<Vec<TraceOp>>,
}

impl Trace {
    /// Packages a recorded run (one run with [`MidwayConfig::record`] on).
    ///
    /// # Panics
    ///
    /// Panics if the run was not recorded.
    pub fn from_run<R>(app: &str, scale: &str, verified: bool, run: &MidwayRun<R>) -> Trace {
        assert_eq!(
            run.traces.len(),
            run.cfg.procs,
            "run was not recorded: configure with MidwayConfig::record(true)"
        );
        Trace {
            meta: TraceMeta {
                app: app.to_string(),
                scale: scale.to_string(),
                verified,
                cfg: run.cfg.record(false).check(false),
                finish_cycles: run.finish_time.cycles(),
                messages: run.messages,
                counters: run.counters.clone(),
            },
            blueprint: run.blueprint.clone().expect("recorded run has a blueprint"),
            ops: run.traces.clone(),
        }
    }

    /// Packages a recorded application outcome.
    ///
    /// # Panics
    ///
    /// Panics if the outcome was not recorded.
    pub fn from_outcome(outcome: &AppOutcome, scale: Scale) -> Trace {
        assert_eq!(
            outcome.traces.len(),
            outcome.cfg.procs,
            "outcome was not recorded: configure with MidwayConfig::record(true)"
        );
        Trace {
            meta: TraceMeta {
                app: outcome.kind.label().to_string(),
                scale: scale.label().to_string(),
                verified: outcome.verified,
                cfg: outcome.cfg.record(false).check(false),
                finish_cycles: outcome.finish_time.cycles(),
                messages: outcome.messages,
                counters: outcome.counters.clone(),
            },
            blueprint: outcome
                .blueprint
                .clone()
                .expect("recorded outcome has a blueprint"),
            ops: outcome.traces.clone(),
        }
    }

    /// Serializes to the `MWTR` byte format.
    pub fn encode(&self) -> Vec<u8> {
        format::encode(self)
    }

    /// Parses the `MWTR` byte format, verifying magic, version and
    /// checksum.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] describing the first defect found.
    pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
        format::decode(bytes)
    }

    /// Writes the encoded trace to `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Reads and decodes a trace file.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the file cannot be read or parsed.
    pub fn load(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| TraceError::Io(e.to_string()))?;
        Trace::decode(&bytes)
    }

    /// Total recorded operations across all processors.
    pub fn total_ops(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    /// Per-op-kind totals `[work, idle, write, acquire, release, rebind,
    /// barrier]` across all processors.
    pub fn op_histogram(&self) -> [u64; 7] {
        let mut h = [0u64; 7];
        for op in self.ops.iter().flatten() {
            let slot = match op {
                TraceOp::Work { .. } => 0,
                TraceOp::Idle { .. } => 1,
                TraceOp::Write { .. } => 2,
                TraceOp::Acquire { .. } => 3,
                TraceOp::Release { .. } => 4,
                TraceOp::Rebind { .. } => 5,
                TraceOp::Barrier { .. } => 6,
            };
            h[slot] += 1;
        }
        h
    }

    /// Total bytes covered by recorded write traps.
    pub fn written_bytes(&self) -> u64 {
        self.ops
            .iter()
            .flatten()
            .map(|op| match op {
                TraceOp::Write { data, .. } => data.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// The recorded configuration, as a base for replay overrides.
    pub fn recorded_cfg(&self) -> MidwayConfig {
        self.meta.cfg
    }
}

/// Records one application run and packages it as a trace.
///
/// # Panics
///
/// Panics if the simulation itself fails; verification failures are
/// reported in the outcome/meta instead.
pub fn record_app(kind: AppKind, cfg: MidwayConfig, scale: Scale) -> (AppOutcome, Trace) {
    let outcome = run_app(kind, cfg.record(true), scale);
    let trace = Trace::from_outcome(&outcome, scale);
    (outcome, trace)
}

/// Replays `trace` under `cfg`, rebuilding the system from the stored
/// blueprint. The application never runs: each processor just applies its
/// recorded operation stream, so a replay costs only the simulation.
///
/// With the recorded configuration this reproduces the original run bit
/// for bit; with a different backend, cost, or network model it evaluates
/// that design point against the recorded stream.
///
/// # Errors
///
/// Returns [`SimError`] if the simulation deadlocks or panics.
///
/// # Panics
///
/// Panics if `cfg.procs` differs from the number of recorded streams.
pub fn replay(trace: &Trace, cfg: MidwayConfig) -> Result<MidwayRun<()>, SimError> {
    replay_on(trace, cfg, &trace.blueprint.build())
}

/// Like [`replay`], but against a caller-built system description (e.g.
/// a blueprint with an overridden cache-line size).
///
/// # Errors
///
/// Returns [`SimError`] if the simulation deadlocks or panics.
///
/// # Panics
///
/// Panics if `cfg.procs` differs from the number of recorded streams.
pub fn replay_on(
    trace: &Trace,
    cfg: MidwayConfig,
    spec: &Arc<SystemSpec>,
) -> Result<MidwayRun<()>, SimError> {
    assert_eq!(
        cfg.procs,
        trace.ops.len(),
        "trace was recorded on {} processors",
        trace.ops.len()
    );
    let ops = &trace.ops;
    Midway::run(cfg, spec, |p: &mut Proc| {
        for op in &ops[p.id()] {
            p.apply_op(op);
        }
    })
}

/// The equivalence oracle: replays `trace` under its recorded
/// configuration and asserts the replay is bit-for-bit identical to the
/// recorded run — every per-processor Table 2 counter, the finish time
/// and the message count.
///
/// # Errors
///
/// Returns a description of the first divergence (or the simulation
/// error), which indicates either a corrupted trace or nondeterminism in
/// the simulator itself.
/// What [`verify_fault_replay`] measured while proving the reliable
/// channel masks an unreliable network.
#[derive(Clone, Debug)]
pub struct FaultCheck {
    /// Finish time of the fault-free baseline replay, in cycles.
    pub base_finish_cycles: u64,
    /// Finish time of the faulty replay, in cycles.
    pub faulty_finish_cycles: u64,
    /// Messages delivered in the faulty replay (frames, after drops).
    pub faulty_messages: u64,
    /// Total faults the plan injected across the cluster.
    pub faults_injected: u64,
    /// Cluster-wide reliable-channel totals of the faulty replay.
    pub link: LinkStats,
}

impl FaultCheck {
    /// Finish-time slowdown of the faulty replay over the baseline.
    pub fn slowdown(&self) -> f64 {
        self.faulty_finish_cycles as f64 / self.base_finish_cycles.max(1) as f64
    }
}

/// The fault-tolerance oracle. Proves, for one trace and one fault plan,
/// that the reliable delivery channel fully masks the injected faults:
///
/// 1. **Baseline**: replays the trace fault-free and asserts bit-for-bit
///    equivalence with the recording (the [`verify_replay`] oracle).
/// 2. **Determinism**: replays under `plan` twice and asserts the two
///    faulty runs agree exactly — finish time, message count, every
///    per-processor counter, every final-memory digest. Same seed, same
///    schedule, same run.
/// 3. **Convergence**: asserts the faulty replay reaches the same
///    per-processor final memory content (FNV-1a digests) as the
///    fault-free baseline, and that every processor still performed the
///    same application-level work (Table 2 counters match the baseline).
///
/// Step 3 requires the recorded workload to be *lock-order independent*:
/// barrier-partitioned or symmetric access patterns (sor, matrix, water)
/// where shifted message timing cannot change which processor's write
/// lands last on any shared word. Task-queue workloads (quicksort,
/// cholesky) are not — retransmission delays legitimately reorder lock
/// grants, and entry consistency allows every such order — so check them
/// with [`verify_fault_determinism`] instead and leave final-state
/// validation to the application's own verifier on a live run.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn verify_fault_replay(trace: &Trace, plan: FaultPlan) -> Result<FaultCheck, String> {
    fault_check(trace, plan, true)
}

/// The lenient tier of the fault-tolerance oracle: baseline equivalence
/// and faulty-replay determinism (steps 1–2 of [`verify_fault_replay`]),
/// without comparing the faulty run's final state to the baseline — for
/// workloads where lock-grant order, and with it the last writer of
/// contended words, legitimately shifts under retransmission timing.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn verify_fault_determinism(trace: &Trace, plan: FaultPlan) -> Result<FaultCheck, String> {
    fault_check(trace, plan, false)
}

fn fault_check(trace: &Trace, plan: FaultPlan, strict: bool) -> Result<FaultCheck, String> {
    let base = verify_replay(trace).map_err(|d| format!("fault-free baseline: {d}"))?;

    let cfg = trace.recorded_cfg().faults(plan);
    let a = replay(trace, cfg).map_err(|e| format!("faulty replay failed: {e}"))?;
    let b = replay(trace, cfg).map_err(|e| format!("faulty replay (rerun) failed: {e}"))?;
    if a.finish_time != b.finish_time || a.messages != b.messages {
        return Err(format!(
            "faulty replay is nondeterministic: finish {} vs {} cycles, {} vs {} messages",
            a.finish_time.cycles(),
            b.finish_time.cycles(),
            a.messages,
            b.messages
        ));
    }
    if a.counters != b.counters {
        return Err("faulty replay is nondeterministic: counters differ between reruns".into());
    }
    if a.store_digests != b.store_digests {
        return Err(
            "faulty replay is nondeterministic: memory digests differ between reruns".into(),
        );
    }

    if strict {
        for (p, (base_d, got_d)) in base.store_digests.iter().zip(&a.store_digests).enumerate() {
            if base_d != got_d {
                return Err(format!(
                    "faulty replay diverged: processor {p} final memory digest \
                     {got_d:#018x} != fault-free {base_d:#018x}"
                ));
            }
        }
        for (p, (base_c, got_c)) in base.counters.iter().zip(&a.counters).enumerate() {
            if base_c != got_c {
                return Err(format!(
                    "faulty replay diverged: processor {p} counters changed under faults: \
                     fault-free {base_c:?}, faulty {got_c:?}"
                ));
            }
        }
    }

    let faults_injected = a.reports.iter().map(|r| r.fault_stats.total()).sum();
    Ok(FaultCheck {
        base_finish_cycles: base.finish_time.cycles(),
        faulty_finish_cycles: a.finish_time.cycles(),
        faulty_messages: a.messages,
        faults_injected,
        link: a.link_totals(),
    })
}

/// What [`verify_crash_replay`] measured while proving that crashed
/// processors recover to the fault-free final state.
#[derive(Clone, Debug)]
pub struct CrashCheck {
    /// Finish time of the crash-free baseline replay, in cycles.
    pub base_finish_cycles: u64,
    /// Finish time of the crashed replay, in cycles.
    pub crashed_finish_cycles: u64,
    /// Crashes taken across the cluster.
    pub crashes: u64,
    /// Cycles the cluster spent down, summed over crashes.
    pub downtime_cycles: u64,
    /// Checkpoint images written across the cluster.
    pub checkpoints_written: u64,
    /// Bytes of checkpoint images written across the cluster.
    pub checkpoint_bytes: u64,
    /// Bytes appended to write-ahead logs across the cluster.
    pub wal_bytes_logged: u64,
    /// Bytes replayed from stable storage during recoveries.
    pub recovery_replay_bytes: u64,
    /// Cycles charged for state reconstruction during recoveries.
    pub recovery_cycles: u64,
    /// Messages fenced as stale (addressed to a pre-crash incarnation).
    pub fenced_messages: u64,
    /// Cluster-wide reliable-channel totals of the crashed replay.
    pub link: LinkStats,
}

impl CrashCheck {
    /// Finish-time slowdown of the crashed replay over the baseline.
    pub fn slowdown(&self) -> f64 {
        self.crashed_finish_cycles as f64 / self.base_finish_cycles.max(1) as f64
    }
}

/// The crash-fault-tolerance oracle. Proves, for one trace and one crash
/// plan, that checkpointed recovery fully masks processor failures:
///
/// 1. **Baseline**: replays the trace crash-free and asserts bit-for-bit
///    equivalence with the recording (the [`verify_replay`] oracle).
/// 2. **Determinism**: replays under `plan` twice and asserts the two
///    crashed runs agree exactly — finish time, message count, every
///    per-processor counter (including the recovery accounting), every
///    final-memory digest. Same plan, same schedule, same run.
/// 3. **Convergence**: asserts the crashed replay reaches the same
///    per-processor final memory content (FNV-1a digests) as the
///    crash-free baseline, and that every processor still performed the
///    same application-level work — Table 2 counters match the baseline
///    after [`Counters::sans_recovery`] zeroes the crash accounting,
///    which legitimately differs (the baseline never crashed).
///
/// Step 3 carries the same lock-order-independence caveat as
/// [`verify_fault_replay`]: use it for barrier-partitioned or symmetric
/// workloads (sor, matrix, water), and [`verify_crash_determinism`] for
/// task-queue workloads where recovery latency legitimately reorders lock
/// grants.
///
/// # Errors
///
/// Returns a description of the first violated property.
///
/// # Panics
///
/// Panics if `plan` schedules no crash — that is [`verify_fault_replay`]'s
/// job.
pub fn verify_crash_replay(trace: &Trace, plan: FaultPlan) -> Result<CrashCheck, String> {
    crash_check(trace, plan, None, true)
}

/// [`verify_crash_replay`] with an explicit checkpoint interval for the
/// crashed replays (the baseline keeps the recorded configuration — the
/// interval is part of what is being priced, not of what was recorded).
///
/// # Errors
///
/// Returns a description of the first violated property.
///
/// # Panics
///
/// Panics if `plan` schedules no crash.
pub fn verify_crash_replay_at(
    trace: &Trace,
    plan: FaultPlan,
    checkpoint_every: u32,
) -> Result<CrashCheck, String> {
    crash_check(trace, plan, Some(checkpoint_every), true)
}

/// The lenient tier of the crash-fault-tolerance oracle: baseline
/// equivalence and crashed-replay determinism (steps 1–2 of
/// [`verify_crash_replay`]) without comparing the crashed run's final
/// state to the baseline — for workloads where lock-grant order, and with
/// it the last writer of contended words, legitimately shifts while a
/// processor is down.
///
/// # Errors
///
/// Returns a description of the first violated property.
///
/// # Panics
///
/// Panics if `plan` schedules no crash.
pub fn verify_crash_determinism(trace: &Trace, plan: FaultPlan) -> Result<CrashCheck, String> {
    crash_check(trace, plan, None, false)
}

/// [`verify_crash_determinism`] with an explicit checkpoint interval for
/// the crashed replays.
///
/// # Errors
///
/// Returns a description of the first violated property.
///
/// # Panics
///
/// Panics if `plan` schedules no crash.
pub fn verify_crash_determinism_at(
    trace: &Trace,
    plan: FaultPlan,
    checkpoint_every: u32,
) -> Result<CrashCheck, String> {
    crash_check(trace, plan, Some(checkpoint_every), false)
}

fn crash_check(
    trace: &Trace,
    plan: FaultPlan,
    checkpoint_every: Option<u32>,
    strict: bool,
) -> Result<CrashCheck, String> {
    assert!(
        plan.has_crashes(),
        "crash oracle needs a plan with at least one scheduled crash"
    );
    let base = verify_replay(trace).map_err(|d| format!("crash-free baseline: {d}"))?;

    let mut cfg = trace.recorded_cfg().faults(plan);
    if let Some(k) = checkpoint_every {
        cfg.checkpoint_every = k;
    }
    let a = replay(trace, cfg).map_err(|e| format!("crashed replay failed: {e}"))?;
    let b = replay(trace, cfg).map_err(|e| format!("crashed replay (rerun) failed: {e}"))?;
    if a.finish_time != b.finish_time || a.messages != b.messages {
        return Err(format!(
            "crashed replay is nondeterministic: finish {} vs {} cycles, {} vs {} messages",
            a.finish_time.cycles(),
            b.finish_time.cycles(),
            a.messages,
            b.messages
        ));
    }
    if a.counters != b.counters {
        return Err("crashed replay is nondeterministic: counters differ between reruns".into());
    }
    if a.store_digests != b.store_digests {
        return Err(
            "crashed replay is nondeterministic: memory digests differ between reruns".into(),
        );
    }

    let total: Counters = {
        let mut t = Counters::default();
        for c in &a.counters {
            t.add(c);
        }
        t
    };
    if total.crashes != plan.crashes().len() as u64 {
        return Err(format!(
            "crash schedule was not honoured: planned {} crashes, counted {}",
            plan.crashes().len(),
            total.crashes
        ));
    }

    if strict {
        for (p, (base_d, got_d)) in base.store_digests.iter().zip(&a.store_digests).enumerate() {
            if base_d != got_d {
                return Err(format!(
                    "crashed replay diverged: processor {p} final memory digest \
                     {got_d:#018x} != crash-free {base_d:#018x}"
                ));
            }
        }
        for (p, (base_c, got_c)) in base.counters.iter().zip(&a.counters).enumerate() {
            // Both sides normalized: the baseline may itself checkpoint
            // (the interval rides in the recorded configuration), and the
            // crashed run adds recovery accounting on top.
            let want = base_c.sans_recovery();
            let got = got_c.sans_recovery();
            if want != got {
                return Err(format!(
                    "crashed replay diverged: processor {p} counters changed under crashes \
                     (recovery accounting excluded): crash-free {want:?}, crashed {got:?}"
                ));
            }
        }
    }

    Ok(CrashCheck {
        base_finish_cycles: base.finish_time.cycles(),
        crashed_finish_cycles: a.finish_time.cycles(),
        crashes: total.crashes,
        downtime_cycles: total.downtime_cycles,
        checkpoints_written: total.checkpoints_written,
        checkpoint_bytes: total.checkpoint_bytes,
        wal_bytes_logged: total.wal_bytes_logged,
        recovery_replay_bytes: total.recovery_replay_bytes,
        recovery_cycles: total.recovery_cycles,
        fenced_messages: total.fenced_messages,
        link: a.link_totals(),
    })
}

pub fn verify_replay(trace: &Trace) -> Result<MidwayRun<()>, String> {
    let run = replay(trace, trace.recorded_cfg()).map_err(|e| format!("replay failed: {e}"))?;
    check_meta(&run, &trace.meta)?;
    Ok(run)
}

/// What [`verify_real_trace`] measured while cross-validating a
/// real-transport run against the simulator.
#[derive(Clone, Debug)]
pub struct RealCheck {
    /// Finish "cycles" of the real run (wall-clock derived; comparable to
    /// nothing but itself).
    pub real_finish_cycles: u64,
    /// Finish time of the simulator replay, in virtual cycles.
    pub sim_finish_cycles: u64,
    /// Messages delivered in the real run.
    pub real_messages: u64,
    /// Messages delivered in the simulator replay.
    pub sim_messages: u64,
    /// Operations replayed across all processors.
    pub total_ops: usize,
    /// Whether final-memory digests were compared (strict mode).
    pub digests_checked: bool,
}

/// The real-transport oracle: cross-validates a run recorded over real
/// sockets against the deterministic simulator.
///
/// The trace's operation streams were captured on the real transport
/// (threads, TCP/UDP, wall-clock time). This oracle replays those streams
/// through the full simulated protocol machinery and asserts:
///
/// 1. **Determinism**: two simulator replays agree exactly — finish time,
///    message count, every per-processor counter and memory digest. (A
///    divergence here indicates simulator nondeterminism, not a transport
///    bug.)
/// 2. **Convergence** (`strict` only): the simulator reaches the same
///    per-processor final memory content (FNV-1a digests) as the real run
///    — `real_digests`, from the real run's
///    [`MidwayRun::store_digests`](midway_core::MidwayRun::store_digests).
///    Two completely different executions of the protocol — virtual time
///    vs. wall clock, in-order simulated delivery vs. kernel sockets —
///    must agree on every byte of shared memory.
///
/// Unlike [`verify_replay`], recorded finish times, message counts and
/// counters are *not* compared against the replay: the trace header holds
/// the real run's wall-clock-derived values, and message timing (hence
/// grant batching, update coalescing, and the counters derived from them)
/// legitimately differs between a kernel scheduler and the virtual-time
/// model. Final memory is the invariant; use `strict` only for
/// lock-order-independent workloads
/// ([`AppKind::lock_order_independent`](midway_apps::AppKind)), where no
/// arbitration order can change which write lands last on a shared word.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn verify_real_trace(
    trace: &Trace,
    real_digests: &[u64],
    strict: bool,
) -> Result<RealCheck, String> {
    let cfg = trace.recorded_cfg();
    let a = replay(trace, cfg).map_err(|e| format!("simulator replay failed: {e}"))?;
    let b = replay(trace, cfg).map_err(|e| format!("simulator replay (rerun) failed: {e}"))?;
    if a.finish_time != b.finish_time || a.messages != b.messages {
        return Err(format!(
            "simulator replay is nondeterministic: finish {} vs {} cycles, {} vs {} messages",
            a.finish_time.cycles(),
            b.finish_time.cycles(),
            a.messages,
            b.messages
        ));
    }
    if a.counters != b.counters {
        return Err("simulator replay is nondeterministic: counters differ between reruns".into());
    }
    if a.store_digests != b.store_digests {
        return Err(
            "simulator replay is nondeterministic: memory digests differ between reruns".into(),
        );
    }

    if real_digests.len() != a.store_digests.len() {
        return Err(format!(
            "digest count mismatch: real run reported {} processors, replay has {}",
            real_digests.len(),
            a.store_digests.len()
        ));
    }
    if strict {
        for (p, (real_d, sim_d)) in real_digests.iter().zip(&a.store_digests).enumerate() {
            if real_d != sim_d {
                return Err(format!(
                    "real run diverged from the simulator: processor {p} final memory \
                     digest {real_d:#018x} (real) != {sim_d:#018x} (simulated)"
                ));
            }
        }
    }

    Ok(RealCheck {
        real_finish_cycles: trace.meta.finish_cycles,
        sim_finish_cycles: a.finish_time.cycles(),
        real_messages: trace.meta.messages,
        sim_messages: a.messages,
        total_ops: trace.total_ops(),
        digests_checked: strict,
    })
}

/// Replays `trace` under its recorded configuration with the dynamic
/// entry-consistency checker attached, and asserts the checked replay is
/// still bit-for-bit identical to the recording — the checker's off-clock
/// guarantee, exercised against a real recorded run. The returned run's
/// [`MidwayRun::check`](midway_core::MidwayRun::check) holds the report.
///
/// Traces record shared *writes* and synchronization but not reads (reads
/// are local and free under entry consistency), so a trace-driven check
/// covers the write and synchronization rules only; run live with
/// [`MidwayConfig::check`] for read coverage.
///
/// # Errors
///
/// Returns a description of the first divergence from the recorded
/// baseline, or the simulation error.
pub fn racecheck_replay(trace: &Trace) -> Result<MidwayRun<()>, String> {
    let run = replay(trace, trace.recorded_cfg().check(true))
        .map_err(|e| format!("checked replay failed: {e}"))?;
    check_meta(&run, &trace.meta)?;
    Ok(run)
}

/// Asserts a replay is bit-for-bit identical to the recorded baseline.
fn check_meta(run: &MidwayRun<()>, m: &TraceMeta) -> Result<(), String> {
    if run.finish_time.cycles() != m.finish_cycles {
        return Err(format!(
            "finish time diverged: recorded {} cycles, replayed {}",
            m.finish_cycles,
            run.finish_time.cycles()
        ));
    }
    if run.messages != m.messages {
        return Err(format!(
            "message count diverged: recorded {}, replayed {}",
            m.messages, run.messages
        ));
    }
    for (p, (rec, got)) in m.counters.iter().zip(&run.counters).enumerate() {
        if rec != got {
            return Err(format!(
                "counters diverged on processor {p}: recorded {rec:?}, replayed {got:?}"
            ));
        }
    }
    Ok(())
}
