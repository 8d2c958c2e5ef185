//! The per-processor DSM runtime: a backend-agnostic entry-consistency
//! protocol engine.
//!
//! All backend-specific behavior — trapping, collection, application,
//! last-seen bookkeeping — lives behind the [`WriteDetector`] trait in
//! [`crate::detect`]; this module and its submodules own only the protocol
//! state (bindings, hold state, homes, barrier sites) and the message
//! plumbing:
//!
//! * [`locks`] — the acquire/release/rebind path;
//! * [`barriers`] — the barrier arrive/release path;
//! * [`transfer`] — grant construction, transfer routing, and grant
//!   application.

use std::sync::Arc;

use midway_mem::{Addr, Layout, LocalStore};
use midway_net::Transport;
use midway_proto::{
    BarrierId, BarrierSite, Binding, HomeLock, LamportClock, LockId, Mode, TreeSite, TreeTopology,
};
use midway_sim::{Category, Pages};

use crate::config::{BarrierShape, MidwayConfig};
use crate::counters::Counters;
use crate::detect::{Trap, WriteDetector};
use crate::msg::{DsmMsg, NetMsg};
use crate::setup::SystemSpec;
use crate::trace::{OpStream, TraceOp};

use self::link::LinkLayer;
use self::recover::{RecoveryLog, SyncSnapshot};

mod barriers;
mod link;
mod locks;
mod recover;
mod transfer;

/// A processor's store over `layout`: each region materializes as an
/// anonymous mapping, so only the pages the processor writes become
/// resident, whatever the allocator did with the heap before.
pub(crate) fn new_store(layout: &Arc<Layout>) -> LocalStore<Pages> {
    LocalStore::with_slabs(Arc::clone(layout), Pages::zeroed)
}

/// The region a processor's store views work in, lent out of the store
/// (and, from its first store on, the detector's trap body for it) until
/// [`DsmNode::restore`] puts them back.
pub(crate) struct Lent {
    pub region: usize,
    pub slab: Pages,
    /// `None` until something is stored in the region.
    pub trap: Option<Trap>,
}

impl Lent {
    /// The region id of a `Lent` that holds nothing.
    const NONE: usize = usize::MAX;

    /// Nothing lent.
    pub(crate) fn none() -> Lent {
        Lent {
            region: Lent::NONE,
            slab: Pages::default(),
            trap: None,
        }
    }
}

/// Per-lock protocol state (backend state lives in the detector).
struct LockNode {
    binding: Binding,
    held: Option<Mode>,
}

/// This processor's share of one barrier's coordination, shaped by
/// [`BarrierShape`].
enum BarrierCoord {
    /// Flat: only the manager holds a site; everyone else holds nothing.
    Flat(Option<BarrierSite>),
    /// Combining tree: every processor is a tree node.
    Tree(TreeSite),
}

/// Per-barrier protocol state.
struct BarrierNode {
    binding: Binding,
    partition: Option<Binding>,
    episode: u64,
    /// The logical time as of which this processor saw the barrier's data
    /// consistent (the last-seen time RT-style detectors scan from).
    last_consist: u64,
    released: bool,
}

/// One processor's DSM runtime.
pub(crate) struct DsmNode {
    me: usize,
    procs: usize,
    cfg: MidwayConfig,
    spec: Arc<SystemSpec>,
    pub(crate) store: LocalStore<Pages>,
    clock: LamportClock,
    detect: Box<dyn WriteDetector>,
    locks: Vec<LockNode>,
    homes: Vec<Option<HomeLock>>,
    barriers: Vec<BarrierNode>,
    sites: Vec<BarrierCoord>,
    tick_pending: bool,
    /// The lock this processor is waiting for in [`DsmNode::acquire`]: the
    /// only one a grant may name.
    acquiring: Option<LockId>,
    link: LinkLayer,
    pub(crate) counters: Counters,
    /// Crash fence: messages and timers *delivered* before this cycle were
    /// in flight while the processor was dark and are dropped (0 = never
    /// crashed). Reliable-channel retransmission repairs the losses.
    fence_before: u64,
    /// Stable-storage recovery log (checkpoints + write-ahead log);
    /// `None` when checkpointing is off, which keeps every hot path and
    /// charge bit-identical to the pre-crash-tolerance runtime.
    recovery: Option<Box<RecoveryLog>>,
    /// This processor's recording, present when [`MidwayConfig::record`]
    /// or [`MidwayConfig::check`] is on: its program's ops, and with
    /// checking its reads and, as a lock's home, the grants it made.
    /// Strictly off-clock: appended to outside the virtual-time
    /// accounting, never consulted by the protocol.
    pub(crate) rec: Option<OpStream>,
}

/// Builds a [`DetectCx`](crate::detect::DetectCx) from disjoint borrows
/// of a node plus a charging closure over the transport handle, and runs
/// `$body` with `$det` bound to the detector. A macro (not a method) so
/// the borrow checker sees the field-level split: the detector never
/// aliases the context it receives. Protocol events only: stores run the
/// trap body a view borrowed ([`DsmNode::lend`]).
macro_rules! with_detector {
    ($node:expr, $h:expr, |$det:ident, $cx:ident| $body:expr) => {{
        let node = &mut *$node;
        let h = &mut *$h;
        let mut charge = |cat: Category, cycles: u64| h.charge(cat, cycles);
        let mut $cx = DetectCx {
            store: &mut node.store,
            spec: node.spec.as_ref(),
            cost: node.cfg.cost,
            clock: &mut node.clock,
            counters: &mut node.counters,
            charge: &mut charge,
        };
        let $det = &mut *node.detect;
        $body
    }};
}
use with_detector;

impl DsmNode {
    pub(crate) fn new(me: usize, cfg: MidwayConfig, spec: Arc<SystemSpec>) -> DsmNode {
        let procs = cfg.procs;
        let detect = cfg.backend.new_detector(&spec);
        let bp = spec.blueprint();
        let locks: Vec<LockNode> = (bp.locks.iter())
            .map(|ranges| LockNode {
                binding: Binding::new(ranges.clone()),
                held: None,
            })
            .collect();
        let homes = (0..spec.locks())
            .map(|i| {
                let home = cfg.home_map.lock_home(LockId(i as u32), procs);
                (home == me).then(|| HomeLock::new(home))
            })
            .collect();
        let barriers: Vec<BarrierNode> = (bp.barriers.iter())
            .map(|b| BarrierNode {
                binding: Binding::new(b.ranges.clone()),
                partition: (b.partitions.as_ref()).map(|p| Binding::new(p[me].clone())),
                episode: 0,
                last_consist: midway_mem::EPOCH,
                released: false,
            })
            .collect();
        let sites = (0..spec.barriers())
            .map(|i| {
                let mgr = cfg.home_map.barrier_manager(BarrierId(i as u32), procs);
                match cfg.barrier {
                    BarrierShape::Flat => {
                        BarrierCoord::Flat((mgr == me).then(|| BarrierSite::new(procs)))
                    }
                    BarrierShape::Tree { arity } => BarrierCoord::Tree(TreeSite::new(
                        me,
                        TreeTopology::new(procs, arity as usize, mgr),
                    )),
                }
            })
            .collect();
        let recovery = cfg.effective_checkpoint_every().map(|k| {
            Box::new(RecoveryLog::new(
                k,
                SyncSnapshot::capture(&locks, &barriers),
            ))
        });
        DsmNode {
            me,
            procs,
            cfg,
            store: new_store(spec.layout()),
            clock: LamportClock::new(),
            detect,
            locks,
            homes,
            barriers,
            sites,
            tick_pending: false,
            acquiring: None,
            link: LinkLayer::new(procs, cfg.faults.enabled),
            counters: Counters::default(),
            fence_before: 0,
            recovery,
            rec: (cfg.record || cfg.check).then(OpStream::default),
            spec,
        }
    }

    /// Posts this processor's scheduled crash notices as self-delivered
    /// timer events. Called once, right after construction: a pending
    /// crash notice keeps the scheduler's queue non-empty, so the cluster
    /// cannot quiesce past a scheduled crash and every crash is delivered
    /// deterministically at its planned cycle.
    pub(crate) fn schedule_crashes<T: Transport<Msg = NetMsg>>(&self, h: &mut T) {
        for c in self.cfg.faults.crashes_for(self.me) {
            h.post_self(NetMsg::Crash { down: c.down }, c.at);
        }
    }

    /// Waits `cycles` of virtual time while serving protocol requests.
    ///
    /// Applications use this for backoff in polling loops (task queues,
    /// dependence counters). Unlike pure compute, an idle wait lets other
    /// processors' messages through — including requests this processor
    /// must answer for anyone to make progress.
    pub(crate) fn idle<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, cycles: u64) {
        debug_assert!(!self.tick_pending, "nested idle");
        self.tick_pending = true;
        h.post_self(NetMsg::Tick, cycles);
        self.pump_until(h, |n| !n.tick_pending);
    }

    /// Lends `lent` the region holding `addr` in place of the one it
    /// holds: its bytes now, the detector's trap body for it at its first
    /// store ([`trap`](Self::trap)).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside every region.
    #[inline(never)]
    pub(crate) fn lend(&mut self, lent: &mut Lent, addr: Addr) {
        self.restore(lent);
        let id = self.spec.layout().region_of(addr).id;
        lent.region = id;
        lent.slab = self.store.lend_region(id);
    }

    /// Takes back everything lent to `lent`, leaving it holding nothing.
    #[inline]
    pub(crate) fn restore(&mut self, lent: &mut Lent) {
        if lent.region == Lent::NONE {
            return;
        }
        self.store
            .restore_region(lent.region, std::mem::take(&mut lent.slab));
        if let Some(trap) = lent.trap.take() {
            self.detect.restore_trap(lent.region, trap);
        }
        lent.region = Lent::NONE;
    }

    /// Runs the trap body of `lent`'s region for a store of `len` bytes at
    /// `addr`, before the bytes land (paper §3.1 / §3.3; the mechanism is
    /// the detector's); returns the [`Category::WriteTrap`] cycles it
    /// costs.
    #[inline]
    pub(crate) fn trap(&mut self, lent: &mut Lent, addr: Addr, len: usize) -> u64 {
        let trap = match &mut lent.trap {
            Some(trap) => trap,
            None => lent.trap.insert(self.lend_trap(lent.region)),
        };
        trap.store(&lent.slab, addr, len, &self.cfg.cost, &mut self.counters)
    }

    #[inline(never)]
    fn lend_trap(&mut self, region: usize) -> Trap {
        let desc = self
            .spec
            .layout()
            .region(region)
            .expect("a lent region exists");
        self.detect.lend_trap(&self.spec, desc)
    }

    /// Appends `op` to this processor's recording, if it keeps one: a
    /// read or a grant only when the checker, the one reader of those, is
    /// on.
    #[inline]
    pub(crate) fn record(&mut self, op: TraceOp<'_>) {
        let checker_only = matches!(op, TraceOp::Read { .. } | TraceOp::Grant { .. });
        match &mut self.rec {
            Some(rec) if self.cfg.check || !checker_only => rec.record(op),
            _ => {}
        }
    }

    /// The binding this node currently knows for `lock`.
    pub(crate) fn binding(&self, lock: LockId) -> &Binding {
        &self.locks[lock.0 as usize].binding
    }

    /// Serves protocol messages until `done` holds.
    fn pump_until<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        done: impl Fn(&DsmNode) -> bool,
    ) {
        while !done(self) {
            let (t, src, msg) = h.recv();
            self.handle_net(h, t.cycles(), src, msg);
        }
    }

    /// Sends `msg` to `dst` through the link layer, which counts it.
    pub(crate) fn send<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, dst: usize, msg: DsmMsg) {
        self.link.send(h, &mut self.counters, dst, msg);
    }

    /// Serves protocol messages until the whole cluster quiesces.
    pub(crate) fn finalize<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T) {
        while let Some((t, src, msg)) = h.drain_recv() {
            self.handle_net(h, t.cycles(), src, msg);
        }
    }

    /// Dispatches one transport-level message delivered at cycle `t`: the
    /// crash fence drops pre-crash stragglers, then the link layer peels
    /// framing, timers, and acks; protocol messages that survive
    /// sequencing go to [`Self::handle_dsm`] in order.
    fn handle_net<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        t: u64,
        src: usize,
        msg: NetMsg,
    ) {
        if t < self.fence_before {
            // Delivered while this processor was dark: the NIC was off and
            // a restart does not replay the wire. Dropped data frames come
            // back via the sender's retransmit timer; dropped acks via the
            // duplicate-triggered re-ack path; dropped local timers are
            // re-armed by recovery.
            self.counters.fenced_messages += 1;
            return;
        }
        match msg {
            NetMsg::Tick => {
                self.tick_pending = false;
            }
            NetMsg::RetxCheck { peer } => self.link.on_timer(h, &mut self.counters, peer),
            NetMsg::Raw(m) => self.handle_dsm(h, src, m),
            NetMsg::Data {
                seq,
                ack,
                epoch,
                msg,
            } => {
                let mut deliver = Vec::new();
                let header = link::FrameHeader { seq, ack, epoch };
                let c = &mut self.counters;
                self.link.on_data(h, c, src, header, msg, &mut deliver);
                for m in deliver {
                    self.handle_dsm(h, src, m);
                }
                // Any response the handlers sent to `src` carried the ack;
                // otherwise acknowledge explicitly.
                self.link.flush_ack(h, &mut self.counters, src);
            }
            NetMsg::Ack { ack, epoch } => self.link.on_ack(h, &mut self.counters, src, ack, epoch),
            NetMsg::Crash { down } => self.on_crash(h, down),
        }
    }

    /// The processor fails now and restarts `down` cycles later (the
    /// fault plan delivered this as a self-posted notice). Fail-stop with
    /// stable storage: everything in flight to the dark NIC is fenced,
    /// while the durable state is re-proven by reconstructing the store
    /// and synchronization state from checkpoint + log and asserting them
    /// identical to the live node before resuming — detectable recovery,
    /// never a silent one.
    fn on_crash<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, down: u64) {
        let recovered_at = h.now().cycles() + down;
        self.counters.crashes += 1;
        self.counters.downtime_cycles += down;
        h.charge(Category::Wait, down);
        self.fence_before = recovered_at;
        // An in-flight idle Tick was fenced with everything else; cut the
        // wait short rather than blocking on a timer that never arrives.
        self.tick_pending = false;
        let epoch = self.link.epoch + 1;
        self.link.on_recover(h, epoch);
        self.recover(h);
        let seq = self.recovery.as_ref().map_or(0, |r| r.seq());
        h.note_recovery_status(epoch, seq);
    }

    /// Replays stable storage — the newest valid checkpoint image plus
    /// the write-ahead log — into a fresh store and sync state, asserts
    /// both match the live node, and swaps the rebuilt store in.
    fn recover<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T) {
        let Some(rec) = self.recovery.as_deref() else {
            h.protocol_violation(format!(
                "processor {} crashed with checkpointing disabled: nothing to recover from",
                self.me
            ));
        };
        let out = match rec.reconstruct(self.store.layout()) {
            Ok(out) => out,
            Err(e) => h.protocol_violation(format!("processor {} recovery failed: {e}", self.me)),
        };
        self.counters.recovery_replay_bytes += out.replay_bytes;
        let cycles = self.cfg.cost.copy_cycles(out.replay_bytes as usize, false);
        self.counters.recovery_cycles += cycles;
        h.charge(Category::Protocol, cycles);
        let digests = LocalStore::digests(&[&out.store, &self.store]);
        if digests[0] != digests[1] {
            h.protocol_violation(format!(
                "processor {} recovered a divergent store: checkpoint + log replay does not \
                 reproduce the pre-crash memory",
                self.me
            ));
        }
        let live = SyncSnapshot::capture(&self.locks, &self.barriers);
        if out.sync != live {
            h.protocol_violation(format!(
                "processor {} recovered divergent synchronization state: lock bindings or \
                 barrier episodes do not match the pre-crash protocol state",
                self.me
            ));
        }
        self.store = out.store;
    }

    /// Appends the post-image of a just-performed store write to the
    /// write-ahead log. Post-images — read back *after* the write lands —
    /// make log replay insensitive to updates the detector chose not to
    /// apply: replaying what memory actually held can never resurrect
    /// overwritten data.
    pub(crate) fn wal_write<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        addr: Addr,
        len: usize,
    ) {
        if self.recovery.is_none() || len == 0 {
            return;
        }
        let mut logged = 0;
        for piece in midway_mem::split_by_region(addr.raw()..addr.raw() + len as u64) {
            let plen = (piece.end - piece.start) as usize;
            let bytes = self.store.bytes(Addr(piece.start), plen);
            let rec = self.recovery.as_deref_mut().expect("checked above");
            logged += rec.log_write(piece.start, bytes);
        }
        self.charge_wal(h, logged);
    }

    /// Appends `bytes`, the post-image of a store a view just made at
    /// `addr`, to the write-ahead log; returns the [`Category::Protocol`]
    /// cycles that costs (none when checkpointing is off).
    #[inline]
    pub(crate) fn wal_store(&mut self, addr: u64, bytes: &[u8]) -> u64 {
        let Some(rec) = self.recovery.as_deref_mut().filter(|_| !bytes.is_empty()) else {
            return 0;
        };
        let logged = rec.log_write(addr, bytes);
        self.wal_cycles(logged)
    }

    /// Logs `lock`'s hold state and binding to the write-ahead log
    /// (called whenever either changes).
    pub(crate) fn wal_lock<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, idx: usize) {
        let Some(rec) = self.recovery.as_deref_mut() else {
            return;
        };
        let l = &self.locks[idx];
        let logged = rec.log_lock(idx, recover::held_code(l.held), l.binding.ranges());
        self.charge_wal(h, logged);
    }

    /// Logs `barrier`'s episode progress to the write-ahead log.
    pub(crate) fn wal_barrier<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, idx: usize) {
        let Some(rec) = self.recovery.as_deref_mut() else {
            return;
        };
        let b = &self.barriers[idx];
        let logged = rec.log_barrier(idx, b.episode, b.last_consist);
        self.charge_wal(h, logged);
    }

    fn charge_wal<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, logged: u64) {
        h.charge(Category::Protocol, self.wal_cycles(logged));
    }

    /// Counts `logged` bytes of write-ahead log; returns the cycles they
    /// cost.
    fn wal_cycles(&mut self, logged: u64) -> u64 {
        self.counters.wal_bytes_logged += logged;
        self.cfg.cost.copy_cycles(logged as usize, false)
    }

    /// Counts one synchronization boundary (a release or a completed
    /// barrier) against the checkpoint interval, writing a checksummed
    /// image of the store and synchronization state on every K-th.
    pub(crate) fn checkpoint_boundary<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T) {
        let Some(mut rec) = self.recovery.take() else {
            return;
        };
        if rec.note_boundary() {
            let sync = SyncSnapshot::capture(&self.locks, &self.barriers);
            let img =
                recover::encode_checkpoint(rec.seq() + 1, self.link.epoch, &self.store, &sync);
            let bytes = img.len() as u64;
            rec.install_image(img);
            self.counters.checkpoints_written += 1;
            self.counters.checkpoint_bytes += bytes;
            h.charge(
                Category::Protocol,
                self.cfg.cost.copy_cycles(bytes as usize, false),
            );
            h.note_recovery_status(self.link.epoch, rec.seq());
        }
        self.recovery = Some(rec);
    }

    fn handle_dsm<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, src: usize, msg: DsmMsg) {
        // A peer's message is input: every id it names is bounded by the
        // spec before anything is indexed with it.
        let unknown = match &msg {
            DsmMsg::AcquireReq { lock, .. }
            | DsmMsg::ReleaseNotify { lock, .. }
            | DsmMsg::TransferReq { lock, .. }
            | DsmMsg::Grant { lock, .. } => {
                (lock.0 as usize >= self.locks.len()).then(|| format!("{lock:?}"))
            }
            DsmMsg::BarrierArrive { barrier, .. } | DsmMsg::BarrierRelease { barrier, .. } => {
                (barrier.0 as usize >= self.barriers.len()).then(|| format!("{barrier:?}"))
            }
        };
        if let Some(id) = unknown {
            h.protocol_violation(format!(
                "processor {} received a message from processor {src} naming {id}, \
                 which the spec does not declare",
                self.me
            ));
        }
        match msg {
            DsmMsg::AcquireReq { lock, mode, seen } => {
                let Some(home) = self.homes[lock.0 as usize].as_mut() else {
                    h.protocol_violation(format!(
                        "acquire for {lock:?} from processor {src} routed to processor {}, \
                         which is not the lock's home",
                        self.me
                    ));
                };
                let transfers = home.acquire(src, mode, seen);
                self.do_transfers(h, lock, transfers);
            }
            DsmMsg::ReleaseNotify { lock, mode } => {
                let Some(home) = self.homes[lock.0 as usize].as_mut() else {
                    h.protocol_violation(format!(
                        "release of {lock:?} from processor {src} routed to processor {}, \
                         which is not the lock's home",
                        self.me
                    ));
                };
                let transfers = home.release(src, mode);
                self.do_transfers(h, lock, transfers);
            }
            DsmMsg::TransferReq {
                lock,
                requester,
                mode,
                seen,
            } => {
                // Only the lock's home routes a transfer, and never to its
                // own owner of record: a requester it could not have named
                // would be sent the lock's data.
                let home = self.cfg.home_map.lock_home(lock, self.procs);
                if requester >= self.procs || requester == self.me || src != home {
                    h.protocol_violation(format!(
                        "processor {} received a transfer of {lock:?} to processor {requester} \
                         from processor {src}; the lock's home is processor {home}",
                        self.me
                    ));
                }
                let payload = self.collect_for(h, lock, seen);
                self.send_grant(h, lock, mode, requester, payload);
            }
            DsmMsg::Grant {
                lock,
                mode,
                payload,
            } => {
                if self.acquiring != Some(lock) || self.locks[lock.0 as usize].held.is_some() {
                    h.protocol_violation(format!(
                        "processor {} received a grant for {lock:?} from processor {src}, \
                         which it is not waiting to acquire",
                        self.me
                    ));
                }
                self.apply_grant(h, lock, mode, payload);
            }
            DsmMsg::BarrierArrive { barrier, set, time } => {
                self.handle_barrier_arrive(h, barrier, src, set, time);
            }
            DsmMsg::BarrierRelease { barrier, set, time } => {
                self.handle_barrier_release(h, barrier, set, time);
            }
        }
    }
}
