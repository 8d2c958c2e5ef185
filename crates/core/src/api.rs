//! The application-facing per-processor API.

use midway_mem::{Addr, AddrRange, REGION_SIZE};
use midway_net::Transport;
use midway_proto::{BarrierId, LockId, Mode};
use midway_sim::{Category, ProcHandle, VirtualTime};

use crate::msg::NetMsg;
use crate::node::{DsmNode, Lent};
use crate::setup::{Scalar, SharedArray};
use crate::trace::TraceOp;

/// One processor's view of the DSM: typed shared-memory access plus entry
/// consistency synchronization.
///
/// Reads are local (Midway is update-based: "read latency is decreased to
/// local memory latency... since there are no read misses"); writes run
/// the configured write-trapping path. Synchronization calls are where
/// consistency — and write collection — happens.
///
/// When the run was configured with [`record`](crate::MidwayConfig::record)
/// or [`check`](crate::MidwayConfig::check), every shared store,
/// synchronization operation and compute charge is appended to this
/// processor's recording. Reads are local and free, and are recorded,
/// coalesced, only for the checker.
///
/// `Proc` is generic over the [`Transport`] carrying its messages; the
/// default is the virtual-time simulator's handle, so `Proc<'_>` in
/// existing code means what it always did. A `Proc<'_, RealTransport<_>>`
/// is the same runtime over loopback sockets, its processors still
/// coroutines on the calling thread
/// ([`Midway::run_real`](crate::Midway::run_real)).
pub struct Proc<'a, T: Transport<Msg = NetMsg> = ProcHandle<NetMsg>> {
    node: DsmNode,
    h: &'a mut T,
    /// The region the last view worked in, still lent out of the store
    /// for the next one: a run of element accesses resolves it once.
    /// [`engine`](Proc::engine) hands it back before anything else
    /// reaches the node.
    lent: Lent,
}

impl<'a, T: Transport<Msg = NetMsg>> Proc<'a, T> {
    pub(crate) fn new(node: DsmNode, h: &'a mut T) -> Proc<'a, T> {
        Proc {
            node,
            h,
            lent: Lent::none(),
        }
    }

    /// The node and the transport, with the lent region handed back: the
    /// one way into the protocol engine, so nothing there ever sees a
    /// store or a detector with a region out.
    pub(crate) fn engine(&mut self) -> (&mut DsmNode, &mut T) {
        self.node.restore(&mut self.lent);
        (&mut self.node, self.h)
    }

    /// Ends the session: the node, everything lent handed back.
    pub(crate) fn finish(mut self) -> DsmNode {
        self.node.restore(&mut self.lent);
        self.node
    }

    /// This processor's id.
    pub fn id(&self) -> usize {
        self.h.id()
    }

    /// Number of processors in the cluster.
    pub fn procs(&self) -> usize {
        self.h.procs()
    }

    /// This processor's current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.h.now()
    }

    /// Charges `cycles` of application compute time.
    pub fn work(&mut self, cycles: u64) {
        self.h.work(cycles);
        self.node.record(TraceOp::Work { cycles });
    }

    /// Waits `cycles` of virtual time while the runtime keeps serving
    /// protocol requests. Use this — never a compute-only spin — to back
    /// off in polling loops, so other processors can make progress.
    pub fn idle(&mut self, cycles: u64) {
        let (node, h) = self.engine();
        node.idle(h, cycles);
        self.node.record(TraceOp::Idle { cycles });
    }

    /// A view for reading and writing shared memory element by element:
    /// see [`View`].
    pub fn view(&mut self) -> View<'_, 'a, T> {
        View {
            p: self,
            trap_cycles: 0,
            wal_cycles: 0,
        }
    }

    /// Reads element `i` of `a` from the local cache.
    pub fn read<S: Scalar>(&mut self, a: &SharedArray<S>, i: usize) -> S {
        self.view().get(a, i)
    }

    /// Writes element `i` of `a`, running write detection first.
    pub fn write<S: Scalar>(&mut self, a: &SharedArray<S>, i: usize, v: S) {
        self.view().set(a, i, v);
    }

    /// Writes a run of elements starting at `start` (an "area" store: one
    /// template invocation covering all the lines, like a structure
    /// assignment or `bcopy` in the paper).
    pub fn write_slice<S: Scalar>(&mut self, a: &SharedArray<S>, start: usize, values: &[S]) {
        self.view().set_slice(a, start, values);
    }

    /// Performs one write trap covering `data.len()` bytes at `addr` and
    /// stores the bytes verbatim. This is the replay path for recorded
    /// [`TraceOp::Write`] operations; applications use the typed writes.
    fn write_raw(&mut self, addr: Addr, data: &[u8]) {
        self.view()
            .store(addr, data.len(), |bytes| bytes.copy_from_slice(data));
    }

    /// Reads elements `range` into a vector.
    pub fn read_vec<S: Scalar>(
        &mut self,
        a: &SharedArray<S>,
        range: std::ops::Range<usize>,
    ) -> Vec<S> {
        let mut v = self.view();
        range.map(|i| v.get(a, i)).collect()
    }

    /// Acquires `lock` exclusively (for writing).
    pub fn acquire(&mut self, lock: LockId) {
        let (node, h) = self.engine();
        node.acquire(h, lock, Mode::Exclusive);
        self.node.record(TraceOp::Acquire {
            lock: lock.0,
            exclusive: true,
        });
    }

    /// Acquires `lock` in non-exclusive mode (for reading).
    pub fn acquire_shared(&mut self, lock: LockId) {
        let (node, h) = self.engine();
        node.acquire(h, lock, Mode::Shared);
        self.node.record(TraceOp::Acquire {
            lock: lock.0,
            exclusive: false,
        });
    }

    /// Releases an exclusive hold of `lock`.
    pub fn release(&mut self, lock: LockId) {
        let (node, h) = self.engine();
        node.release(h, lock, Mode::Exclusive);
        self.node.record(TraceOp::Release {
            lock: lock.0,
            exclusive: true,
        });
    }

    /// Releases a non-exclusive hold of `lock`.
    pub fn release_shared(&mut self, lock: LockId) {
        let (node, h) = self.engine();
        node.release(h, lock, Mode::Shared);
        self.node.record(TraceOp::Release {
            lock: lock.0,
            exclusive: false,
        });
    }

    /// Rebinds `lock` to `ranges`; the caller must hold it exclusively.
    pub fn rebind(&mut self, lock: LockId, ranges: Vec<AddrRange>) {
        self.node.record(TraceOp::Rebind {
            lock: lock.0,
            ranges: &ranges,
        });
        let (node, h) = self.engine();
        node.rebind(h, lock, ranges);
    }

    /// Crosses `barrier`, making its bound data consistent everywhere.
    pub fn barrier(&mut self, barrier: BarrierId) {
        let (node, h) = self.engine();
        node.barrier(h, barrier);
        self.node.record(TraceOp::Barrier { barrier: barrier.0 });
    }

    /// Applies one recorded operation: the replay path. Replaying every
    /// operation of a recorded stream (in order, on the processor that
    /// recorded it) reproduces the original run without the application.
    /// A `Read` is a view read: it changes nothing, and only the checker
    /// records it. A `Grant` does nothing: the replay's own lock homes
    /// grant again.
    pub fn apply_op(&mut self, op: TraceOp<'_>) {
        match op {
            TraceOp::Work { cycles } => self.work(cycles),
            TraceOp::Idle { cycles } => self.idle(cycles),
            TraceOp::Write { addr, data } => self.write_raw(Addr(addr), data),
            TraceOp::Read { .. } => self.node.record(op),
            TraceOp::Grant { .. } => {}
            TraceOp::Acquire {
                lock,
                exclusive: true,
            } => self.acquire(LockId(lock)),
            TraceOp::Acquire {
                lock,
                exclusive: false,
            } => self.acquire_shared(LockId(lock)),
            TraceOp::Release {
                lock,
                exclusive: true,
            } => self.release(LockId(lock)),
            TraceOp::Release {
                lock,
                exclusive: false,
            } => self.release_shared(LockId(lock)),
            TraceOp::Rebind { lock, ranges } => self.rebind(LockId(lock), ranges.to_vec()),
            TraceOp::Barrier { barrier } => self.barrier(BarrierId(barrier)),
        }
    }

    /// The ranges this processor currently knows to be bound to `lock`
    /// (bindings travel with grants, so hold the lock for a fresh answer).
    pub fn bound_ranges(&self, lock: LockId) -> Vec<AddrRange> {
        self.node.binding(lock).ranges().to_vec()
    }
}

/// A window on this processor's local memory for an element loop.
///
/// An element access needs its region's bytes and, for a store, the
/// detector's trap body for the region. A view resolves both once per
/// region: the region is lent out of the store (and at its first store,
/// its trap body out of the detector) and stays lent to the processor's
/// views until one needs another region or a coherence action needs it
/// back. The paper's compiler bakes a region's constants into the code at
/// each store; this is the same specialization at run time.
/// [`Proc::read`], [`write`](Proc::write),
/// [`write_slice`](Proc::write_slice) and a replayed write are
/// one-element views.
///
/// A view behaves exactly like the per-element calls it replaces: every
/// write is trapped, logged to the write-ahead log and recorded as one
/// [`TraceOp::Write`], and with checking on every read is recorded too,
/// in program order. Only the accounting is deferred: the trap and
/// write-ahead-log cycles are charged, per category, when the view is
/// dropped.
///
/// A view borrows the [`Proc`] it came from, so while one is alive no
/// coherence action (acquire, release, rebind, barrier, idle) can run:
///
/// ```compile_fail
/// # use midway_core::{BackendKind, Midway, MidwayConfig, SystemBuilder};
/// # let mut b = SystemBuilder::new();
/// # let data = b.shared_array::<u64>("data", 8, 1);
/// # let lock = b.lock(vec![data.full_range()]);
/// # let spec = b.build();
/// Midway::run(MidwayConfig::new(2, BackendKind::Rt), &spec, |p| {
///     let mut v = p.view();
///     v.set(&data, 0, 1);
///     p.acquire(lock); // error: `p` is borrowed by the view
///     v.set(&data, 1, 2);
/// });
/// ```
pub struct View<'v, 'a, T: Transport<Msg = NetMsg> = ProcHandle<NetMsg>> {
    p: &'v mut Proc<'a, T>,
    /// [`Category::WriteTrap`] cycles not yet charged to the clock.
    trap_cycles: u64,
    /// [`Category::Protocol`] cycles of write-ahead logging not yet
    /// charged to the clock.
    wal_cycles: u64,
}

impl<T: Transport<Msg = NetMsg>> View<'_, '_, T> {
    /// Reads element `i` of `a` from the local cache.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get<S: Scalar>(&mut self, a: &SharedArray<S>, i: usize) -> S {
        let addr = a.addr(i);
        self.p.node.record(TraceOp::Read {
            addr: addr.raw(),
            len: S::SIZE as u32,
        });
        self.resolve(addr);
        let off = addr.region_offset();
        S::from_le(&self.p.lent.slab[off..off + S::SIZE])
    }

    /// Writes element `i` of `a`, running write detection first.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set<S: Scalar>(&mut self, a: &SharedArray<S>, i: usize, v: S) {
        self.store(a.addr(i), S::SIZE, |bytes| v.to_le(bytes));
    }

    /// Writes a run of elements starting at `start` as one "area" store
    /// per region it covers (one template invocation over all its lines,
    /// like a structure assignment or `bcopy` in the paper).
    fn set_slice<S: Scalar>(&mut self, a: &SharedArray<S>, start: usize, values: &[S]) {
        if values.is_empty() {
            return;
        }
        if start + values.len() > a.len() {
            self.p.h.app_violation(format!(
                "slice write out of bounds: elements {start}..{} of array of length {}",
                start + values.len(),
                a.len()
            ));
        }
        // Elements never straddle regions (both sizes are powers of two),
        // so the run splits cleanly where the array crosses into the next.
        let (mut at, mut rest) = (start, values);
        while !rest.is_empty() {
            let addr = a.addr(at);
            let room = (REGION_SIZE - addr.region_offset()) / S::SIZE;
            let (now, next) = rest.split_at(room.min(rest.len()));
            self.store(addr, now.len() * S::SIZE, |bytes| {
                for (out, v) in bytes.chunks_exact_mut(S::SIZE).zip(now) {
                    v.to_le(out);
                }
            });
            (at, rest) = (at + now.len(), next);
        }
    }

    /// Makes the region holding `addr` the lent one.
    #[inline]
    fn resolve(&mut self, addr: Addr) {
        if self.p.lent.region != addr.region_index() {
            self.p.node.lend(&mut self.p.lent, addr);
        }
    }

    /// One store of `len` bytes at `addr`, which `fill` writes: trapped,
    /// written, logged ahead and recorded, in that order.
    #[inline]
    fn store(&mut self, addr: Addr, len: usize, fill: impl FnOnce(&mut [u8])) {
        self.resolve(addr);
        let Proc { node, lent, .. } = &mut *self.p;
        self.trap_cycles += node.trap(lent, addr, len);
        let off = addr.region_offset();
        let bytes = &mut lent.slab[off..off + len];
        fill(bytes);
        self.wal_cycles += node.wal_store(addr.raw(), bytes);
        if let Some(rec) = &mut node.rec {
            rec.push(TraceOp::Write {
                addr: addr.raw(),
                data: bytes,
            });
        }
    }
}

impl<T: Transport<Msg = NetMsg>> Drop for View<'_, '_, T> {
    fn drop(&mut self) {
        if self.trap_cycles > 0 {
            self.p.h.charge(Category::WriteTrap, self.trap_cycles);
        }
        if self.wal_cycles > 0 {
            self.p.h.charge(Category::Protocol, self.wal_cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{BackendKind, MidwayConfig};
    use crate::run::Midway;
    use crate::setup::SystemBuilder;
    use crate::trace::TraceOp;

    /// A view defers its trap charges to the clock until it is dropped;
    /// with checking on, its stores and loads are recorded as it makes
    /// them, in program order.
    #[test]
    fn view_accesses_are_recorded_in_order_and_charged_on_drop() {
        let mut b = SystemBuilder::new();
        let a = b.shared_array::<u64>("a", 8, 1);
        let spec = b.build();
        let cfg = MidwayConfig::new(1, BackendKind::Rt).check(true);
        let run = Midway::run(cfg, &spec, |p| {
            let start = p.now().cycles();
            let mut v = p.view();
            for i in [0, 2, 4] {
                v.set(&a, i, 1);
            }
            v.get(&a, 6);
            v.get(&a, 7); // adjacent: folds into the read before
            drop(v);
            let ops: Vec<(u64, usize)> = p
                .node
                .rec
                .as_ref()
                .expect("checking records")
                .iter()
                .map(|op| match op {
                    TraceOp::Write { addr, data } => (addr, data.len()),
                    TraceOp::Read { addr, len } => (addr, len as usize),
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            (ops, p.now().cycles() - start)
        })
        .expect("one processor runs");
        let at = |i: usize| a.addr(i).raw();
        let (ops, charged) = &run.results[0];
        assert_eq!(ops, &[(at(0), 8), (at(2), 8), (at(4), 8), (at(6), 16)]);
        // Each doubleword store to a doubleword line costs 9 cycles.
        assert_eq!(*charged, 27);
    }
}
