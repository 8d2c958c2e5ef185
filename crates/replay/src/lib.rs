//! Trace capture, replay and the replay oracle for the Midway DSM
//! reproduction.
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
//! * [`replay`] / [`replay_on`] run a trace under any configuration. The
//!   recorded one reproduces the run bit for bit; another cache-line size,
//!   cost model, fault plan or crash plan evaluates that design point from
//!   the same stream (`paper ablation_linesize`, `sweep fault`,
//!   `sweep crash`).
//! * [`check`] is the oracle. It holds a trace to the recorded run, a
//!   fuzz schedule to its model, or a live [`App`] to its own check, and
//!   then to a baseline under any [`Axes`] — backend, barrier shape, home
//!   map, loss, crashes, checkpoint interval, the checker, sockets — and
//!   says in a [`Verdict`] which comparison applied; any finding of the
//!   attached checker fails it, whatever the program. Whether final memory
//!   must converge follows from the program, not from the caller. It
//!   operationalizes the determinism argument in DESIGN.md;
//!   [`differential`] runs it over every backend a schedule admits.
//!
//! The `trace` binary exposes the same machinery on the command line
//! (`record` / `replay` / `check` / `info` / `diff`).

use std::path::Path;
use std::sync::Arc;

use midway_apps::fuzz::{backends_for, execute, Schedule};
use midway_apps::{run_app, run_on, AppKind, Scale};
use midway_core::{
    BackendKind, BarrierShape, Counters, FaultPlan, HomeMap, Midway, MidwayConfig, MidwayRun,
    OpStream, Proc, RealConfig, RunError, SpecBlueprint, SystemSpec, TraceOp,
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
    pub ops: Vec<OpStream>,
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
        self.ops.iter().map(OpStream::len).sum()
    }

    /// Per-op-kind totals `[work, idle, write, acquire, release, rebind,
    /// barrier, read, grant]` across all processors (reads and grants only
    /// in a recording made with the checker on).
    pub fn op_histogram(&self) -> [u64; 9] {
        let mut h = [0u64; 9];
        for op in self.ops.iter().flatten() {
            let slot = match op {
                TraceOp::Work { .. } => 0,
                TraceOp::Idle { .. } => 1,
                TraceOp::Write { .. } => 2,
                TraceOp::Acquire { .. } => 3,
                TraceOp::Release { .. } => 4,
                TraceOp::Rebind { .. } => 5,
                TraceOp::Barrier { .. } => 6,
                TraceOp::Read { .. } => 7,
                TraceOp::Grant { .. } => 8,
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

/// Records one application run, which passed its own check, as a trace.
/// The live run's counters, finish time and message count are the
/// trace's [`TraceMeta`].
///
/// # Panics
///
/// Panics if the simulation fails or the application fails its check
/// (see [`run_app`]).
pub fn record_app(kind: AppKind, cfg: MidwayConfig, scale: Scale) -> Trace {
    let run = run_app(kind, cfg.record(true), scale);
    Trace::from_run(kind.label(), scale.label(), true, &run)
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
/// Returns [`RunError`] if the simulation deadlocks or panics.
///
/// # Panics
///
/// Panics if `cfg.procs` differs from the number of recorded streams.
pub fn replay(trace: &Trace, cfg: MidwayConfig) -> Result<MidwayRun<()>, RunError> {
    replay_on(trace, cfg, &trace.blueprint.build())
}

/// Like [`replay`], but against a caller-built system description (e.g.
/// a blueprint with an overridden cache-line size).
///
/// # Errors
///
/// Returns [`RunError`] if the simulation deadlocks or panics.
///
/// # Panics
///
/// Panics if `cfg.procs` differs from the number of recorded streams.
pub fn replay_on(
    trace: &Trace,
    cfg: MidwayConfig,
    spec: &Arc<SystemSpec>,
) -> Result<MidwayRun<()>, RunError> {
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

/// The reference step of [`check`] on its own: replays `trace` under its
/// recorded configuration and asserts the replay is bit-for-bit identical
/// to the recorded run — every per-processor Table 2 counter, the finish
/// time and the message count. One replay and nothing more, so the pinned
/// benchmark times exactly that.
///
/// # Errors
///
/// Returns a description of the first divergence (or the simulation
/// error), which indicates either a corrupted trace or nondeterminism in
/// the simulator itself.
pub fn verify_replay(trace: &Trace) -> Result<MidwayRun<()>, String> {
    trace.reference()
}

/// What a [`check`] varies, relative to the recorded run.
/// `Axes::default()` varies nothing: every axis is as recorded.
///
/// The *protocol axes* (`backend`, `barrier`, `homes`) choose the system
/// the baseline runs. The *delivery axes* (`transport`, `check`) choose
/// what the checked run adds to that baseline. A fault plan lives inside
/// its [`Transport`]: loss means the same on both, crash events exist
/// only on the simulator, and [`check`] refuses a socket cell with one.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Axes {
    /// Write-detection backend (`None`: as recorded).
    pub backend: Option<BackendKind>,
    /// Barrier coordination shape (`None`: as recorded).
    pub barrier: Option<BarrierShape>,
    /// Lock-home and barrier-manager map (`None`: as recorded).
    pub homes: Option<HomeMap>,
    /// Where the checked run's messages travel.
    pub transport: Transport,
    /// Run the dynamic entry-consistency checker in the checked run; its
    /// report is the checked run's [`MidwayRun::check`], and any finding
    /// fails the check.
    pub check: bool,
}

/// Where a checked run's messages travel, and what happens to them there.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Transport {
    /// The virtual-time simulator (the default: fault plan and checkpoint
    /// interval as recorded).
    Sim {
        /// Network loss and crash events (`None`: as recorded).
        faults: Option<FaultPlan>,
        /// Checkpoint interval, in synchronization boundaries (`None`: as
        /// recorded).
        checkpoint_every: Option<u32>,
    },
    /// Loopback TCP sockets.
    Tcp {
        /// The fault plan whose drops and duplicates the sockets inject at
        /// the send site, as the simulator does, with the reliable channel
        /// on top. `None`: lossless, and the reliable channel stays off.
        loss: Option<FaultPlan>,
    },
}

impl Default for Transport {
    fn default() -> Transport {
        Transport::Sim {
            faults: None,
            checkpoint_every: None,
        }
    }
}

impl Axes {
    /// The axis product every program is held to, protocol choices and
    /// deliveries, with backend and checker as recorded: {flat, tree of
    /// arity 2} barriers × {modulo, sharded} homes, each on the simulator
    /// under {no loss, 1% loss} × {no crash, processor 1 down a third of
    /// the way into a reference run of `reference_cycles`}, and over
    /// lossless and 1%-loss TCP. The simulator cell with neither is the
    /// recorded delivery (`faults: None`).
    pub fn product(reference_cycles: u64) -> Vec<Axes> {
        let loss = FaultPlan::lossy(7, 10_000);
        let crash =
            |plan: FaultPlan| plan.with_crash(1, reference_cycles / 3, reference_cycles / 20);
        let sim = |faults| Transport::Sim {
            faults,
            checkpoint_every: None,
        };
        let deliveries = [
            sim(None),
            sim(Some(crash(FaultPlan::none()))),
            sim(Some(loss)),
            sim(Some(crash(loss))),
            Transport::Tcp { loss: None },
            Transport::Tcp { loss: Some(loss) },
        ];
        let barriers = [BarrierShape::Flat, BarrierShape::Tree { arity: 2 }];
        let homes = [HomeMap::Modulo, HomeMap::Sharded { seed: 5 }];
        let protocols = barriers.into_iter().flat_map(|b| homes.map(|h| (b, h)));
        protocols
            .flat_map(|(barrier, homes)| {
                deliveries.map(|transport| Axes {
                    barrier: Some(barrier),
                    homes: Some(homes),
                    transport,
                    ..Axes::default()
                })
            })
            .collect()
    }
}

/// Which comparison a [`Verdict`] holds the checked run to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Comparison {
    /// Identical to the baseline, bit for bit: no delivery axis changed
    /// the run (at most the off-clock checker was attached).
    Exact,
    /// Same final memory as the baseline and, on the simulator, the same
    /// counters: the application is lock-order independent.
    Converged,
    /// Convergence reported, not required: lock grants may legitimately
    /// reorder under the delivery axes, and the last writer with them.
    Reported,
}

/// What [`check`] established: the two runs it compared and how. `R` is
/// the program's per-processor result: `()` for a trace.
#[derive(Debug)]
pub struct Verdict<R = ()> {
    /// The program under the axes' protocol choices on its recorded
    /// delivery (for an ordinary recording, the trusted simulated network).
    pub baseline: MidwayRun<R>,
    /// The baseline plus the delivery axes; the baseline itself when there
    /// are none.
    pub checked: MidwayRun<R>,
    /// Whether the checked run's final memory digests equal the
    /// baseline's.
    pub converged: bool,
    /// The comparison the checked run was held to.
    pub comparison: Comparison,
}

/// What [`check`] runs: a recorded [`Trace`], replayed; a fuzz
/// [`Schedule`], run live and held to its own model on every run; or an
/// [`App`], run live and held to its own check on every run.
pub trait Program {
    /// Each processor's result.
    type Out: Clone + PartialEq;

    /// The run every axis is relative to, held to what the program says
    /// of it: a trace's recorded header, a schedule's model, an
    /// application's own check.
    fn reference(&self) -> Result<MidwayRun<Self::Out>, String>;

    /// Runs the program under `cfg`, over sockets when `real` is given,
    /// held to what the program says of every run (a schedule's model, an
    /// application's own check).
    fn run(
        &self,
        cfg: MidwayConfig,
        real: Option<&RealConfig>,
    ) -> Result<MidwayRun<Self::Out>, String>;

    /// Whether final memory must converge whatever the delivery axes: the
    /// program's lock grants cannot reorder its last writes.
    fn must_converge(&self) -> bool;
}

impl Program for Trace {
    type Out = ();

    fn reference(&self) -> Result<MidwayRun<()>, String> {
        let run = replay(self, self.recorded_cfg()).map_err(|e| format!("replay failed: {e}"))?;
        check_meta(&run, &self.meta)?;
        Ok(run)
    }

    fn run(&self, cfg: MidwayConfig, real: Option<&RealConfig>) -> Result<MidwayRun<()>, String> {
        let Some(real) = real else {
            return replay(self, cfg).map_err(|e| e.to_string());
        };
        let ops = &self.ops;
        Midway::run_real(cfg, real, &self.blueprint.build(), |p| {
            for op in &ops[p.id()] {
                p.apply_op(op);
            }
        })
        .map_err(|e| e.to_string())
    }

    fn must_converge(&self) -> bool {
        AppKind::from_label(&self.meta.app).is_ok_and(AppKind::lock_order_independent)
    }
}

/// A clean schedule runs on [`BackendKind::Rt`] unless an axis says
/// otherwise. Its final memory need not converge: residual copies of
/// words no synchronization object pins are the backend's business, and
/// what is pinned, the model checks on every run.
impl Program for Schedule {
    type Out = (u64, u64);

    fn reference(&self) -> Result<MidwayRun<(u64, u64)>, String> {
        self.run(MidwayConfig::new(self.params.procs, BackendKind::Rt), None)
    }

    fn run(
        &self,
        cfg: MidwayConfig,
        real: Option<&RealConfig>,
    ) -> Result<MidwayRun<(u64, u64)>, String> {
        let run = execute(self, cfg, real)?;
        self.check_model(&run)?;
        Ok(run)
    }

    fn must_converge(&self) -> bool {
        false
    }
}

/// An application run live: unlike a replayed trace, which rewrites its
/// recorded bytes whatever it read, every run recomputes from what it
/// reads, so a stale read shows in its output and its final memory.
#[derive(Clone, Copy, Debug)]
pub struct App {
    /// The application.
    pub kind: AppKind,
    /// Its input size.
    pub scale: Scale,
    /// The reference run's configuration, recording included.
    pub cfg: MidwayConfig,
}

/// The checker is an axis here as for a trace: the reference runs
/// without it.
impl Program for App {
    type Out = ();

    fn reference(&self) -> Result<MidwayRun<()>, String> {
        self.run(self.cfg.check(false), None)
    }

    fn run(&self, cfg: MidwayConfig, real: Option<&RealConfig>) -> Result<MidwayRun<()>, String> {
        run_on(self.kind, cfg, real, self.scale)
    }

    fn must_converge(&self) -> bool {
        self.kind.lock_order_independent()
    }
}

/// The oracle: checks `program` — a trace, a fuzz schedule or a live
/// application — under `axes` by one rule.
///
/// 1. **Reference.** The program runs under its recorded configuration
///    and is held to what it says of that run: a trace replays bit for
///    bit (finish time, message count and every per-processor counter
///    equal the header's), a schedule matches its model, an application
///    passes its own check. This step always runs, and a schedule or an
///    application is held to the same on every later run too.
/// 2. **Baseline.** The program runs under the axes' protocol choices on
///    its recorded delivery. When those are the recorded ones, the
///    reference *is* the baseline and is not run again.
/// 3. **Checked run.** The baseline plus the delivery axes; with none, it
///    is the baseline. On the simulator it runs twice and the two runs must
///    agree exactly — finish time, messages, counters, digests, results —
///    and take every scheduled crash. When the checker is the only
///    delivery axis the baseline is the second run: checking is
///    off-clock, so the checked run must equal the baseline bit for bit.
///    On sockets it runs once, through [`Midway::run_real`].
/// 4. **Findings.** With [`Axes::check`] set, any finding in the checked
///    run's report is an error naming the first finding and the count of
///    each kind: a program is correct under entry consistency only if
///    every access is bound to the synchronization object that guards it.
/// 5. **Convergence.** [`Verdict::converged`] says whether the checked
///    run's final memory equals the baseline's. When the program
///    [`must_converge`](Program::must_converge)s (a trace or a live run
///    of a lock-order independent application,
///    [`AppKind::lock_order_independent`]: sor, matrix), a mismatch is an
///    error, and on the simulator so is any
///    counter difference — compared after [`Counters::sans_recovery`] on
///    both sides when a crash or a different checkpoint interval
///    legitimately changes the recovery accounting. Otherwise shifted
///    timing may reorder lock grants, and with them the last writer of a
///    contended word, so convergence is reported, not required.
///
/// # Errors
///
/// Returns a description of the first violated property, or, before
/// running anything, refuses a socket cell whose plan schedules a crash.
pub fn check<P: Program>(program: &P, axes: &Axes) -> Result<Verdict<P::Out>, String> {
    if let Transport::Tcp { loss: Some(plan) } = axes.transport {
        if plan.has_crashes() {
            return Err(format!(
                "a socket cell cannot crash a processor: {} crash(es) scheduled under {axes:?}",
                plan.crashes().len()
            ));
        }
    }
    let reference = program
        .reference()
        .map_err(|e| format!("reference run: {e}"))?;
    let recorded = reference.cfg;

    let base_cfg = MidwayConfig {
        backend: axes.backend.unwrap_or(recorded.backend),
        barrier: axes.barrier.unwrap_or(recorded.barrier),
        home_map: axes.homes.unwrap_or(recorded.home_map),
        ..recorded
    };
    let baseline = match base_cfg == recorded {
        true => reference,
        false => program
            .run(base_cfg, None)
            .map_err(|e| format!("baseline run: {e}"))?,
    };

    let mut cfg = base_cfg.check(axes.check);
    let real = match axes.transport {
        Transport::Sim {
            faults,
            checkpoint_every,
        } => {
            cfg.faults = faults.unwrap_or(cfg.faults);
            cfg.checkpoint_every = checkpoint_every.unwrap_or(cfg.checkpoint_every);
            None
        }
        Transport::Tcp { loss } => {
            cfg.faults = loss.unwrap_or_else(FaultPlan::none);
            Some(RealConfig::tcp())
        }
    };
    let checked = match &real {
        None => sim_run(program, cfg, &baseline)?,
        Some(real) => program
            .run(cfg, Some(real))
            .map_err(|e| format!("socket run: {e}"))?,
    };

    if let Some(report) = checked.check.as_ref().filter(|r| !r.is_clean()) {
        let first = report
            .findings
            .first()
            .map_or_else(String::new, |f| format!("; first: {f}"));
        return Err(format!("checker found {}{first}", report.summary()));
    }

    let on_sim = real.is_none();
    let converged = checked.store_digests == baseline.store_digests;
    let comparison = if on_sim && cfg.check(false) == base_cfg {
        Comparison::Exact
    } else if program.must_converge() {
        converges(&baseline, &checked, on_sim)?;
        Comparison::Converged
    } else {
        Comparison::Reported
    };
    Ok(Verdict {
        baseline,
        checked,
        converged,
        comparison,
    })
}

/// The differential fuzzer's oracle: [`check`]s clean schedule `s`, with
/// the checker attached, on every backend [`backends_for`] its processor
/// count admits.
///
/// # Errors
///
/// Names the first backend whose runs departed from the model, or from
/// each other, and how.
pub fn differential(s: &Schedule) -> Result<(), String> {
    for &backend in backends_for(s.params.procs) {
        let axes = Axes {
            backend: Some(backend),
            check: true,
            ..Axes::default()
        };
        check(s, &axes).map_err(|e| format!("{}: {e}", backend.label()))?;
    }
    Ok(())
}

/// The checked run on the simulator, held to a second run under the same
/// configuration: the baseline itself when only the off-clock checker was
/// added, otherwise a rerun.
fn sim_run<P: Program>(
    program: &P,
    cfg: MidwayConfig,
    baseline: &MidwayRun<P::Out>,
) -> Result<MidwayRun<P::Out>, String> {
    if cfg == baseline.cfg {
        return Ok(baseline.clone());
    }
    let run = program
        .run(cfg, None)
        .map_err(|e| format!("checked run: {e}"))?;
    if cfg.check(false) == baseline.cfg {
        same_run(&run, baseline).map_err(|d| format!("the checker moved the run: {d}"))?;
    } else {
        let rerun = program
            .run(cfg, None)
            .map_err(|e| format!("checked rerun: {e}"))?;
        same_run(&run, &rerun).map_err(|d| format!("checked run is nondeterministic: {d}"))?;
    }
    let planned = cfg.faults.crashes().len() as u64;
    let taken: u64 = run.counters.iter().map(|c| c.crashes).sum();
    if taken != planned {
        return Err(format!(
            "crash schedule was not honoured: planned {planned} crashes, counted {taken}"
        ));
    }
    Ok(run)
}

/// Asserts two runs are the same run: finish time, messages, every
/// counter, every final-memory digest, every processor's result.
fn same_run<R: PartialEq>(a: &MidwayRun<R>, b: &MidwayRun<R>) -> Result<(), String> {
    if a.finish_time != b.finish_time || a.messages != b.messages {
        return Err(format!(
            "finish {} vs {} cycles, {} vs {} messages",
            a.finish_time.cycles(),
            b.finish_time.cycles(),
            a.messages,
            b.messages
        ));
    }
    if a.counters != b.counters {
        return Err("counters differ".into());
    }
    if a.store_digests != b.store_digests {
        return Err("memory digests differ".into());
    }
    if a.results != b.results {
        return Err("results differ".into());
    }
    Ok(())
}

/// Asserts `got` reached `want`'s final memory and, when `counters`, did
/// the same application-level work.
fn converges<R>(want: &MidwayRun<R>, got: &MidwayRun<R>, counters: bool) -> Result<(), String> {
    for (p, (w, g)) in want
        .store_digests
        .iter()
        .zip(&got.store_digests)
        .enumerate()
    {
        if w != g {
            return Err(format!(
                "checked run diverged: processor {p} final memory digest {g:#018x} != \
                 baseline {w:#018x}"
            ));
        }
    }
    if !counters {
        return Ok(());
    }
    // A crash or another checkpoint interval changes the recovery
    // accounting, and only that.
    let recovery = got.cfg.faults.has_crashes()
        || got.cfg.effective_checkpoint_every() != want.cfg.effective_checkpoint_every();
    for (p, (w, g)) in want.counters.iter().zip(&got.counters).enumerate() {
        let (w, g) = match recovery {
            true => (w.sans_recovery(), g.sans_recovery()),
            false => (*w, *g),
        };
        if w != g {
            return Err(format!(
                "checked run diverged: processor {p} counters changed: baseline {w:?}, \
                 checked {g:?}"
            ));
        }
    }
    Ok(())
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
