//! The transport seam: the exact message-passing surface the DSM protocol
//! engine needs, abstracted from the virtual-time simulator.

use midway_sim::{Category, ProcHandle, VirtualTime};

/// The message-passing surface a processor's protocol engine runs against.
///
/// This trait is extracted verbatim from the concrete
/// [`ProcHandle`](midway_sim::ProcHandle) API the DSM runtime was written
/// on: per-processor identity, a cycle clock with charge categories,
/// point-to-point `send`, blocking `recv`, the quiescence-aware
/// `drain_recv`, the `post_self` timer primitive, and typed violation
/// reporting. Anything that implements it can host the protocol engine
/// unchanged; the repo ships two implementations:
///
/// * the virtual-time simulator's `ProcHandle` (deterministic, impl #1),
/// * [`RealTransport`](crate::RealTransport) over non-blocking loopback
///   TCP sockets (wall-clock, impl #2).
///
/// Both run every processor as a coroutine on the calling thread.
///
/// # Contract
///
/// Implementations must preserve the properties the protocol engine
/// assumes:
///
/// * **Per-pair FIFO.** Messages from processor `a` to processor `b` are
///   delivered in send order. No ordering is promised across pairs. Only
///   the simulator's reorder and delay rates break this; sockets deliver
///   those messages in order.
/// * **Loss only from the run's fault plan.** A message is dropped or
///   duplicated only where the run's `FaultPlan` decides so at the send
///   site, on either transport; with the plan disabled, every message
///   sent is delivered exactly once.
/// * **Self-posts are local.** [`post_self`](Transport::post_self) never
///   touches the network and is delivered back to the poster (src = own
///   id) no earlier than `delay` cycles later.
/// * **Quiescence.** [`drain_recv`](Transport::drain_recv) returns `None`
///   only when every processor is draining and no message or timer is
///   outstanding anywhere.
/// * **Violations poison everyone.** The violation methods abort the whole
///   run with a typed error and wake every blocked peer; they never
///   return.
/// * **Monotone clock.** [`now`](Transport::now) never goes backwards.
pub trait Transport {
    /// The message type carried by this transport.
    type Msg;

    /// This processor's id, in `0..procs()`.
    fn id(&self) -> usize;

    /// The number of processors in the cluster.
    fn procs(&self) -> usize;

    /// Current time on this processor's clock, in cycles.
    fn now(&self) -> VirtualTime;

    /// Advances (or, for wall-clock transports, merely accounts) `cycles`
    /// against `cat` in the per-category breakdown.
    fn charge(&mut self, cat: Category, cycles: u64);

    /// Charges application compute time.
    fn work(&mut self, cycles: u64) {
        self.charge(Category::Compute, cycles);
    }

    /// Sends `msg` (declared wire size `bytes`) to processor `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is this processor or out of range.
    fn send(&mut self, dst: usize, msg: Self::Msg, bytes: u64);

    /// Schedules `msg` for delivery back to this processor after `delay`
    /// cycles, with no network charges. The deterministic timer primitive.
    fn post_self(&mut self, msg: Self::Msg, delay: u64);

    /// Receives the next message addressed to this processor, advancing
    /// the clock to its delivery time. Returns `(delivery time, src, msg)`.
    fn recv(&mut self) -> (VirtualTime, usize, Self::Msg);

    /// Like [`recv`](Transport::recv), but returns `None` once the whole
    /// cluster has quiesced (all processors draining, nothing in flight).
    fn drain_recv(&mut self) -> Option<(VirtualTime, usize, Self::Msg)>;

    /// Aborts the run with a typed protocol-invariant error. Never returns.
    fn protocol_violation(&mut self, message: String) -> !;

    /// Aborts the run with a typed application-misuse error. Never returns.
    fn app_violation(&mut self, message: String) -> !;

    /// Publishes this processor's crash-tolerance status — its
    /// reliable-channel incarnation epoch and the sequence number of its
    /// last stable checkpoint — to whatever observability surface the
    /// transport has. Purely informational: implementations must not let
    /// it affect delivery or timing. The default does nothing (the
    /// simulator's reports carry the same facts through counters); the
    /// real transport surfaces it in watchdog state dumps.
    fn note_recovery_status(&mut self, epoch: u32, checkpoint_seq: u64) {
        let _ = (epoch, checkpoint_seq);
    }
}

/// Impl #1: the virtual-time simulator's processor handle.
///
/// Every method is the inherent `ProcHandle` method of the same name (`work`
/// by way of `charge`, as there), so code generic over [`Transport`] behaves
/// bit-for-bit like code written directly against the simulator.
impl<M: Clone> Transport for ProcHandle<M> {
    type Msg = M;

    fn id(&self) -> usize {
        ProcHandle::id(self)
    }

    fn procs(&self) -> usize {
        ProcHandle::procs(self)
    }

    fn now(&self) -> VirtualTime {
        ProcHandle::now(self)
    }

    fn charge(&mut self, cat: Category, cycles: u64) {
        ProcHandle::charge(self, cat, cycles);
    }

    fn send(&mut self, dst: usize, msg: M, bytes: u64) {
        ProcHandle::send(self, dst, msg, bytes);
    }

    fn post_self(&mut self, msg: M, delay: u64) {
        ProcHandle::post_self(self, msg, delay);
    }

    fn recv(&mut self) -> (VirtualTime, usize, M) {
        ProcHandle::recv(self)
    }

    fn drain_recv(&mut self) -> Option<(VirtualTime, usize, M)> {
        ProcHandle::drain_recv(self)
    }

    fn protocol_violation(&mut self, message: String) -> ! {
        ProcHandle::protocol_violation(self, message)
    }

    fn app_violation(&mut self, message: String) -> ! {
        ProcHandle::app_violation(self, message)
    }
}
