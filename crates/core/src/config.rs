//! System configuration.

use midway_proto::{HomeMap, ReliableParams};
use midway_sim::{FaultPlan, NetModel};
use midway_stats::CostModel;

/// How barrier episodes are coordinated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BarrierShape {
    /// The paper's flat scheme: every processor sends its updates to the
    /// manager, which merges P arrivals and broadcasts P releases. The
    /// historical default; fine at 8 processors, a hot-spot at 256.
    #[default]
    Flat,
    /// A combining tree rooted at the manager: arrivals merge up, the
    /// release fans down, and no node handles more than `arity` barrier
    /// messages per episode.
    Tree {
        /// Per-node fan-in bound (must be at least 2).
        arity: u32,
    },
}

/// Which write-detection strategy the system runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BackendKind {
    /// RT-DSM: compiler/runtime dirtybits (the paper's contribution).
    Rt,
    /// VM-DSM: page protection, twins and diffs.
    Vm,
    /// §3.5 strawman: no detection, all bound data shipped every transfer.
    Blast,
    /// §3.5 alternative: twin everything, diff at every transfer, no
    /// faults.
    TwinAll,
    /// Paper §5's hybrid sketch: RT dirtybit templates for small or
    /// regular regions, VM page twinning for large shared ones — chosen
    /// per region from the layout, speaking the RT update protocol.
    Hybrid,
    /// No detection and no consistency at all: the *standalone* build used
    /// for the uniprocessor baseline in Figure 2 (valid only with one
    /// processor).
    None,
}

impl BackendKind {
    /// Every backend, in the canonical registry order (also the order
    /// harnesses iterate and docs list them in).
    pub const ALL: [BackendKind; 6] = [
        BackendKind::Rt,
        BackendKind::Vm,
        BackendKind::Blast,
        BackendKind::TwinAll,
        BackendKind::Hybrid,
        BackendKind::None,
    ];

    /// The backends that move data (everything except the standalone
    /// baseline) — the set protocol comparisons iterate over.
    pub const DATA: [BackendKind; 5] = [
        BackendKind::Rt,
        BackendKind::Vm,
        BackendKind::Blast,
        BackendKind::TwinAll,
        BackendKind::Hybrid,
    ];

    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Rt => "RT-DSM",
            BackendKind::Vm => "VM-DSM",
            BackendKind::Blast => "Blast",
            BackendKind::TwinAll => "TwinAll",
            BackendKind::Hybrid => "Hybrid-DSM",
            BackendKind::None => "standalone",
        }
    }

    /// The name used on command lines and in trace-cache file names.
    pub fn cli_name(self) -> &'static str {
        match self {
            BackendKind::Rt => "rt",
            BackendKind::Vm => "vm",
            BackendKind::Blast => "blast",
            BackendKind::TwinAll => "twinall",
            BackendKind::Hybrid => "hybrid",
            BackendKind::None => "none",
        }
    }

    /// Parses a CLI backend name; the error lists every valid name.
    pub fn from_cli_name(s: &str) -> Result<BackendKind, String> {
        BackendKind::ALL
            .into_iter()
            .find(|b| b.cli_name() == s)
            .ok_or_else(|| format!("unknown backend {s:?} (use {})", BackendKind::cli_names()))
    }

    /// All CLI names, `|`-separated (for usage strings and errors).
    fn cli_names() -> String {
        BackendKind::ALL.map(BackendKind::cli_name).join("|")
    }

    /// The backend's byte tag in the `MWTR` trace-file format. Stable:
    /// tags are append-only so old trace files keep decoding.
    pub fn wire_tag(self) -> u8 {
        match self {
            BackendKind::Rt => 0,
            BackendKind::Vm => 1,
            BackendKind::Blast => 2,
            BackendKind::TwinAll => 3,
            BackendKind::None => 4,
            BackendKind::Hybrid => 5,
        }
    }

    /// The backend a trace-file byte tag names, if any.
    pub fn from_wire_tag(t: u8) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|b| b.wire_tag() == t)
    }
}

/// Full configuration of a Midway run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MidwayConfig {
    /// Number of processors (the paper's cluster has eight).
    pub procs: usize,
    /// Write-detection backend.
    pub backend: BackendKind,
    /// Primitive-operation costs (paper Table 1).
    pub cost: CostModel,
    /// Interconnect model.
    pub net: NetModel,
    /// VM-DSM: incarnations of update history retained per lock. Midway
    /// keeps "the complete set of prior updates" and falls back to a full
    /// send when their concatenation exceeds the bound data size; a large
    /// cap makes that size rule — not pruning — the operative fallback.
    pub history_cap: usize,
    /// Record each processor's shared-memory operation stream; the run's
    /// [`MidwayRun::traces`](crate::MidwayRun::traces) and
    /// [`MidwayRun::blueprint`](crate::MidwayRun::blueprint) are then
    /// populated for the `midway-replay` crate to serialize and replay.
    pub record: bool,
    /// Deterministic network fault schedule. Disabled by default: the
    /// network is perfect and messages travel unframed, byte-for-byte as
    /// they did before the reliable channel existed. Enabling the plan
    /// (even with all rates zero) turns on reliable delivery.
    pub faults: FaultPlan,
    /// Reliable-channel tuning (retransmit timeout, backoff cap, timer
    /// cost). Only consulted when `faults` is enabled.
    pub reliable: ReliableParams,
    /// Run the dynamic entry-consistency checker alongside the program.
    /// Strictly off-clock: every virtual clock, wire size, counter and
    /// trace is bit-for-bit identical with checking on or off; the run's
    /// [`MidwayRun::check`](crate::MidwayRun::check) report is the only
    /// observable difference.
    pub check: bool,
    /// Where each lock's home and each barrier's manager live. The
    /// default modulo map reproduces the historical `id % procs` layout
    /// bit-for-bit; the sharded map scatters dense id ranges for scale.
    pub home_map: HomeMap,
    /// Barrier coordination shape. The default flat shape reproduces the
    /// historical single-manager protocol bit-for-bit.
    pub barrier: BarrierShape,
    /// Crash-tolerance checkpoint interval, in synchronization boundaries
    /// (releases + barriers) per processor: every `checkpoint_every`-th
    /// boundary writes a stable-storage checkpoint image, and every store
    /// mutation between checkpoints is logged to a write-ahead log. Zero
    /// (the default) disables the machinery entirely — unless the fault
    /// plan schedules crashes, in which case the interval defaults to 8
    /// (see [`MidwayConfig::effective_checkpoint_every`]): a crashed
    /// processor must always have something to recover from.
    pub checkpoint_every: u32,
}

impl MidwayConfig {
    /// The paper's platform: `procs` processors, Table 1 costs, ATM net.
    pub fn new(procs: usize, backend: BackendKind) -> MidwayConfig {
        MidwayConfig {
            procs,
            backend,
            cost: CostModel::r3000_mach(),
            net: NetModel::atm_cluster(),
            history_cap: 512,
            record: false,
            faults: FaultPlan::none(),
            reliable: ReliableParams::atm_cluster(),
            check: false,
            home_map: HomeMap::Modulo,
            barrier: BarrierShape::Flat,
            checkpoint_every: 0,
        }
    }

    /// The standalone uniprocessor baseline.
    pub fn standalone() -> MidwayConfig {
        MidwayConfig::new(1, BackendKind::None)
    }

    /// Replaces the network model.
    pub fn net(mut self, net: NetModel) -> MidwayConfig {
        self.net = net;
        self
    }

    /// Turns trace recording on or off.
    pub fn record(mut self, on: bool) -> MidwayConfig {
        self.record = on;
        self
    }

    /// Replaces the network fault plan (an enabled plan also turns on the
    /// reliable delivery channel).
    pub fn faults(mut self, faults: FaultPlan) -> MidwayConfig {
        self.faults = faults;
        self
    }

    /// Turns the dynamic entry-consistency checker on or off.
    pub fn check(mut self, on: bool) -> MidwayConfig {
        self.check = on;
        self
    }

    /// Replaces the sync-home assignment.
    pub fn home_map(mut self, map: HomeMap) -> MidwayConfig {
        self.home_map = map;
        self
    }

    /// Replaces the barrier coordination shape.
    pub fn barrier_shape(mut self, shape: BarrierShape) -> MidwayConfig {
        self.barrier = shape;
        self
    }

    /// Switches barriers to a combining tree of the given arity.
    pub fn tree_barriers(self, arity: u32) -> MidwayConfig {
        self.barrier_shape(BarrierShape::Tree { arity })
    }

    /// The scale-out preset: sharded sync homes plus combining-tree
    /// barriers — the configuration the `scale_sweep` harness runs.
    pub fn scale_out(self, arity: u32, shard_seed: u64) -> MidwayConfig {
        self.home_map(HomeMap::Sharded { seed: shard_seed })
            .tree_barriers(arity)
    }

    /// Replaces the crash-tolerance checkpoint interval (0 disables the
    /// checkpoint/log machinery when no crashes are scheduled).
    pub fn checkpoint_every(mut self, boundaries: u32) -> MidwayConfig {
        self.checkpoint_every = boundaries;
        self
    }

    /// Schedules a crash of processor `proc` at cycle `at`, restarting
    /// `down` cycles later (a [`FaultPlan::with_crash`] convenience; also
    /// enables the reliable channel).
    pub fn crash(mut self, proc: usize, at: u64, down: u64) -> MidwayConfig {
        self.faults = self.faults.with_crash(proc, at, down);
        self
    }

    /// The operative checkpoint interval: `None` when the crash-tolerance
    /// machinery is off (no interval configured and no crash scheduled),
    /// otherwise the configured interval, defaulting to 8 boundaries when
    /// crashes are scheduled without an explicit interval.
    pub fn effective_checkpoint_every(&self) -> Option<u32> {
        if self.checkpoint_every > 0 {
            Some(self.checkpoint_every)
        } else if self.faults.has_crashes() {
            Some(8)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_platform() {
        let c = MidwayConfig::new(8, BackendKind::Rt);
        assert_eq!(c.procs, 8);
        assert_eq!(c.cost.mhz, 25);
        assert_eq!(c.cost.page_size, 4096);
    }

    #[test]
    fn registry_round_trips_every_backend() {
        for b in BackendKind::ALL {
            assert_eq!(BackendKind::from_cli_name(b.cli_name()), Ok(b));
            assert_eq!(BackendKind::from_wire_tag(b.wire_tag()), Some(b));
        }
        assert_eq!(BackendKind::from_wire_tag(250), None);
        let err = BackendKind::from_cli_name("mystery").unwrap_err();
        for b in BackendKind::ALL {
            assert!(err.contains(b.cli_name()), "{err} should list {b:?}");
        }
    }

    #[test]
    fn standalone_is_single_proc_no_detection() {
        let c = MidwayConfig::standalone();
        assert_eq!(c.procs, 1);
        assert_eq!(c.backend, BackendKind::None);
        assert_eq!(c.backend.label(), "standalone");
    }
}
