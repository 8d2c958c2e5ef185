//! Running a Midway program: on the simulated cluster, or over real
//! sockets. Either way every processor is a coroutine on the calling
//! thread.

use std::sync::Arc;

use midway_mem::LocalStore;
use midway_net::{RealCluster, RealConfig, RealTransport, Transport};
use midway_proto::LinkStats;
use midway_sim::{Cluster, ClusterConfig, ProcReport, RunError, RunOutcome, VirtualTime};

use crate::api::Proc;
use crate::config::{BackendKind, MidwayConfig};
use crate::counters::{AvgCounters, Counters};
use crate::msg::NetMsg;
use crate::node::DsmNode;
use crate::setup::SystemSpec;
use crate::trace::{OpStream, SpecBlueprint};

/// The outcome of a Midway run.
#[derive(Clone, Debug)]
pub struct MidwayRun<R> {
    /// Per-processor application results.
    pub results: Vec<R>,
    /// Per-processor primitive-operation counters (Table 2's raw data).
    pub counters: Vec<Counters>,
    /// Per-processor simulator accounting (clock breakdowns, messages).
    pub reports: Vec<ProcReport>,
    /// The run's finish time: the maximum final clock.
    pub finish_time: VirtualTime,
    /// Messages delivered cluster-wide.
    pub messages: u64,
    /// Per-processor reliable-channel activity (all zeros when the run's
    /// fault plan is disabled and messages travel unframed).
    pub link: Vec<LinkStats>,
    /// Per-processor FNV-1a digests of the final local memory content —
    /// the final-state equivalence check for fault-tolerance oracles.
    pub store_digests: Vec<u64>,
    /// The configuration that produced this run.
    pub cfg: MidwayConfig,
    /// Per-processor recorded operation streams. Empty unless the run was
    /// configured with [`MidwayConfig::record`]; with
    /// [`MidwayConfig::check`] too, they hold the reads and grants the
    /// checker analyzed.
    pub traces: Vec<OpStream>,
    /// The system blueprint, captured when recording (everything the
    /// `midway-replay` crate needs to rebuild the run's `SystemSpec`).
    pub blueprint: Option<SpecBlueprint>,
    /// The dynamic entry-consistency checker's report, present when the
    /// run was configured with [`MidwayConfig::check`]. Checking is
    /// strictly off-clock, so every other field is bit-for-bit identical
    /// with it on or off.
    pub check: Option<midway_check::CheckReport>,
}

impl<R> MidwayRun<R> {
    /// Per-processor average counters, as the paper's Table 2 reports.
    pub fn avg_counters(&self) -> AvgCounters {
        Counters::average(&self.counters)
    }

    /// Execution time in modelled seconds.
    pub fn exec_secs(&self) -> f64 {
        self.cfg.cost.cycles_to_secs(self.finish_time.cycles())
    }

    /// Application data transferred, in KB per processor (Table 2's
    /// "data transferred" row counts application data only).
    pub fn data_kb_per_proc(&self) -> f64 {
        self.avg_counters().avg(|c| c.data_bytes_sent) / 1024.0
    }

    /// Cluster-wide reliable-channel totals (all zeros on a trusted
    /// network).
    pub fn link_totals(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for l in &self.link {
            total.add(l);
        }
        total
    }

    /// Application data transferred cluster-wide, in MB (Figure 2's right
    ///-hand axis).
    pub fn data_mb_total(&self) -> f64 {
        self.counters
            .iter()
            .map(|c| c.data_bytes_sent as f64)
            .sum::<f64>()
            / (1024.0 * 1024.0)
    }

    /// The same run without its per-processor application results: what
    /// every report reads once the application has checked them.
    pub fn without_results(self) -> MidwayRun<()> {
        MidwayRun {
            results: vec![(); self.results.len()],
            counters: self.counters,
            reports: self.reports,
            finish_time: self.finish_time,
            messages: self.messages,
            link: self.link,
            store_digests: self.store_digests,
            cfg: self.cfg,
            traces: self.traces,
            blueprint: self.blueprint,
            check: self.check,
        }
    }
}

/// What one processor's session produces, transport-independent: its
/// final local store is digested with everyone else's, in lockstep.
type SessionOut<R> = (R, Counters, LinkStats, LocalStore, Option<OpStream>);

/// One processor's whole life, on any transport: build the node, run the
/// application closure, serve the cluster until quiescence, report.
fn proc_session<R, T, F>(
    cfg: MidwayConfig,
    spec: &Arc<SystemSpec>,
    h: &mut T,
    f: &F,
) -> SessionOut<R>
where
    T: Transport<Msg = NetMsg>,
    F: Fn(&mut Proc<'_, T>) -> R,
{
    let node = DsmNode::new(h.id(), cfg, Arc::clone(spec));
    node.schedule_crashes(h);
    let mut proc = Proc::new(node, h);
    let r = f(&mut proc);
    let mut node = proc.finish();
    node.finalize(h);
    (r, node.counters, node.link.stats, node.store, node.rec)
}

/// Assembles a cluster run of per-processor sessions, on either transport,
/// into a [`MidwayRun`], analyzing the recording when checking is on.
///
/// # Errors
///
/// [`RunError::ProtocolViolation`] when the checker finds no
/// happens-before order of the recorded ops.
fn assemble<R>(
    cfg: MidwayConfig,
    spec: &Arc<SystemSpec>,
    blueprint: Option<SpecBlueprint>,
    out: RunOutcome<SessionOut<R>>,
) -> Result<MidwayRun<R>, RunError> {
    let procs = out.results.len();
    let mut results = Vec::with_capacity(procs);
    let mut counters = Vec::with_capacity(procs);
    let mut link = Vec::with_capacity(procs);
    let mut stores = Vec::with_capacity(procs);
    let mut traces = Vec::new();
    for (r, c, l, s, t) in out.results {
        results.push(r);
        counters.push(c);
        link.push(l);
        stores.push(s);
        traces.extend(t);
    }
    let store_digests = LocalStore::digests(&stores.iter().collect::<Vec<_>>());
    let check = match cfg.check {
        true => Some(
            midway_check::analyze(&spec.check_spec(), &traces)
                .map_err(|(proc, message)| RunError::ProtocolViolation { proc, message })?,
        ),
        false => None,
    };
    if !cfg.record {
        traces = Vec::new();
    }
    Ok(MidwayRun {
        results,
        counters,
        reports: out.reports,
        finish_time: out.finish_time,
        messages: out.messages_delivered,
        link,
        store_digests,
        cfg,
        traces,
        blueprint,
        check,
    })
}

/// The cluster `cfg` runs on, on either transport.
fn cluster(cfg: &MidwayConfig) -> ClusterConfig {
    ClusterConfig {
        procs: cfg.procs,
        net: cfg.net,
        faults: cfg.faults,
    }
}

fn assert_backend_supported(cfg: &MidwayConfig) {
    assert!(
        cfg.backend != BackendKind::None || cfg.procs == 1,
        "the standalone backend only supports one processor"
    );
}

/// Entry point for running Midway programs.
pub struct Midway;

impl Midway {
    /// Runs `f` once per processor against `spec` under `cfg`.
    ///
    /// The closure receives a [`Proc`] — the processor's DSM view. After it
    /// returns, the runtime keeps serving protocol requests until the whole
    /// cluster quiesces.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on deadlock (including application-level lock
    /// cycles) or if any processor's closure panics, and
    /// [`RunError::ProtocolViolation`] if the checker finds no
    /// happens-before order of the recorded ops.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.backend` is [`BackendKind::None`] with more than one
    /// processor: the standalone build has no consistency machinery.
    ///
    /// # Examples
    ///
    /// Everything runs on the calling thread, so the closure may capture
    /// (and return) values that are neither `Send` nor `Sync`:
    ///
    /// ```
    /// use std::cell::Cell;
    /// use std::rc::Rc;
    ///
    /// use midway_core::{BackendKind, Midway, MidwayConfig, SystemBuilder};
    ///
    /// let mut b = SystemBuilder::new();
    /// let cell = b.shared_array::<u64>("cell", 1, 1);
    /// let lock = b.lock(vec![cell.full_range()]);
    /// let spec = b.build();
    ///
    /// let holds = Rc::new(Cell::new(0));
    /// let run = Midway::run(MidwayConfig::new(2, BackendKind::Rt), &spec, |p| {
    ///     p.acquire(lock);
    ///     let seen = p.read(&cell, 0);
    ///     p.write(&cell, 0, seen + 1);
    ///     p.release(lock);
    ///     holds.set(holds.get() + 1);
    ///     Rc::clone(&holds)
    /// })
    /// .unwrap();
    /// assert_eq!(holds.get(), 2);
    /// assert_eq!(run.results.len(), 2);
    /// ```
    pub fn run<R, F>(
        cfg: MidwayConfig,
        spec: &Arc<SystemSpec>,
        f: F,
    ) -> Result<MidwayRun<R>, RunError>
    where
        F: Fn(&mut Proc<'_>) -> R,
    {
        assert_backend_supported(&cfg);
        let blueprint = cfg.record.then(|| SpecBlueprint::capture(spec));
        let run_spec = Arc::clone(spec);
        let out = Cluster::run(
            cluster(&cfg),
            move |h: &mut midway_sim::ProcHandle<NetMsg>| proc_session(cfg, &run_spec, h, &f),
        )?;
        assemble(cfg, spec, blueprint, out)
    }

    /// Runs `f` once per processor over loopback TCP sockets, wall-clock
    /// time standing in for the virtual clock, every processor a coroutine
    /// on the calling thread as in [`Midway::run`].
    ///
    /// The protocol engine is the same code [`Midway::run`] executes; only
    /// the [`Transport`] differs. So does the fault plan's reach:
    /// `cfg.faults` frames messages through the reliable link layer and
    /// injects its drops and duplicates at the send site, as on the
    /// simulator. `cfg.net` (the simulated network's latency model) is
    /// ignored — the kernel's loopback is the network now.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on protocol/application violations, socket
    /// failures, processor panics, or a watchdog abort of a hung run.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.faults` schedules a crash: a wall-clock run has no
    /// deterministic clock to schedule one against.
    pub fn run_real<R, F>(
        cfg: MidwayConfig,
        real: &RealConfig,
        spec: &Arc<SystemSpec>,
        f: F,
    ) -> Result<MidwayRun<R>, RunError>
    where
        F: Fn(&mut Proc<'_, RealTransport<NetMsg>>) -> R,
    {
        assert_backend_supported(&cfg);
        assert!(
            !cfg.faults.has_crashes(),
            "crash injection is simulator-only: real transports have no deterministic \
             clock to schedule failures against (checkpointing itself works everywhere)"
        );
        let blueprint = cfg.record.then(|| SpecBlueprint::capture(spec));
        let run_spec = Arc::clone(spec);
        let out = RealCluster::run(cluster(&cfg), real, move |h: &mut RealTransport<NetMsg>| {
            proc_session(cfg, &run_spec, h, &f)
        })?;
        assemble(cfg, spec, blueprint, out)
    }
}
