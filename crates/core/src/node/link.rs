//! The node's link layer: reliable delivery over the simulated network.
//!
//! Every protocol message leaves the node through [`LinkLayer::send`]. On
//! a trusted network (faults disabled) the layer is a pass-through that
//! emits bare [`NetMsg::Raw`] frames — no sequence numbers, no acks, no
//! timers, and exactly the wire sizes the protocol had before this layer
//! existed. With faults enabled it runs one reliable channel
//! ([`SendChannel`]/[`RecvChannel`]) per peer:
//!
//! * outgoing messages are staged, framed as [`NetMsg::Data`] with a
//!   piggybacked cumulative ack, and retransmitted on a timer with
//!   exponential backoff until acked;
//! * incoming frames are sequenced — duplicates dropped, early arrivals
//!   buffered — and handed to the protocol engine strictly in send order;
//! * receipt is acknowledged on the next reverse data frame, or by an
//!   explicit [`NetMsg::Ack`] when the protocol has nothing to say back.
//!
//! Per-peer channel state is allocated lazily, on the first frame
//! exchanged with that peer in either direction. DSM traffic is sparse in
//! the pair graph — a processor talks to lock homes, barrier managers,
//! and previous holders, not to everyone — so eager allocation would put
//! O(procs²) channel state in a large cluster where O(touched pairs)
//! suffices.
//!
//! Timer discipline (this is what lets a run still quiesce): a peer's
//! retransmit timer is armed iff frames to that peer are unacked; a timer
//! that fires with an empty inflight queue disarms without re-posting, so
//! once all acks are in, no self-posted events remain and the cluster's
//! drain protocol sees a quiet network. Timer fires and retransmissions
//! are charged to the virtual clock, so reliability overhead shows up in
//! finish times.
//!
//! The timer period is a *fixed* `rto_cycles`; whether a fire actually
//! retransmits is decided against a per-peer deadline (oldest frame's
//! send or last ack-progress time plus the backed-off timeout). Two
//! reasons: self-posted events cannot be cancelled, so a timer armed
//! with a long backed-off delay would sit in the queue after the ack
//! arrives and drag the processor's final clock (and the run's finish
//! time) far past quiescence — the fixed period bounds that drag to one
//! period; and a stale timer armed for an older, since-acked exchange
//! would otherwise cut a fresh frame's timeout short and retransmit it
//! spuriously — the deadline makes such fires re-arm and wait.
//!
//! The layer keeps no tallies of its own: every method takes the node's
//! [`Counters`] and counts its frames, acks, retransmits and timer fires
//! there, with the fate the transport gave each message it sent.

use midway_net::Transport;
use midway_proto::channel::{Accept, RecvChannel, ReliableParams, SendChannel};
use midway_sim::Category;

use crate::counters::Counters;
use crate::msg::{DsmMsg, NetMsg};

/// The reliable channel's timeout, backoff cap and timer cost: the ATM
/// cluster's, on every run.
const PARAMS: ReliableParams = ReliableParams::atm_cluster();

/// Reliable-channel state for one peer, allocated on first contact.
struct PeerLink {
    tx: SendChannel<DsmMsg>,
    rx: RecvChannel<DsmMsg>,
    /// The highest cumulative ack advertised to the peer so far (in any
    /// frame); an explicit ack is owed when the receive channel is ahead
    /// of this.
    last_acked: u64,
    /// Set when a duplicate arrives from the peer: the retransmission
    /// means our previous ack was lost, so re-ack even though the
    /// cumulative ack did not advance.
    force_ack: bool,
    /// Earliest cycle at which another duplicate-triggered ack may go to
    /// the peer. A burst of queued duplicates (a peer that timed out
    /// while we computed) is answered with ONE ack per timeout window,
    /// not one per duplicate, keeping ack storms off the critical path.
    force_ack_ok_at: u64,
    /// Whether a `RetxCheck` self-post is outstanding for the peer.
    timer_armed: bool,
    /// Earliest cycle at which a retransmission to the peer is
    /// justified: one (backed-off) timeout after the oldest unacked
    /// frame was sent or last made cumulative-ack progress. Timer fires
    /// ahead of the deadline — e.g. a timer armed for an older,
    /// since-acked frame — re-arm without retransmitting.
    retx_deadline: u64,
    /// Highest incarnation epoch seen in frames from this peer. A frame
    /// carrying an older epoch is a pre-crash straggler and is fenced.
    peer_epoch: u32,
}

impl PeerLink {
    fn new() -> PeerLink {
        PeerLink {
            tx: SendChannel::new(),
            rx: RecvChannel::new(),
            last_acked: 0,
            force_ack: false,
            force_ack_ok_at: 0,
            timer_armed: false,
            retx_deadline: 0,
            peer_epoch: 0,
        }
    }
}

pub(crate) struct LinkLayer {
    /// Whether reliable framing is on (= the run's fault plan is enabled).
    reliable: bool,
    /// Per-peer channels, indexed by processor id; `None` until the first
    /// frame to or from that peer. Stays all-`None` on a trusted network.
    peers: Vec<Option<Box<PeerLink>>>,
    /// This node's incarnation epoch: 0 until its first crash, bumped at
    /// every recovery. Stamped on every outgoing frame (and charged on the
    /// wire) only once nonzero, so never-crashed traffic is byte-identical
    /// to the epoch-less format.
    pub(crate) epoch: u32,
}

/// Sequencing header of an incoming data frame: the per-pair sequence
/// number, the piggybacked cumulative ack, and the sender's epoch.
pub(crate) struct FrameHeader {
    pub seq: u64,
    pub ack: u64,
    pub epoch: u32,
}

impl LinkLayer {
    pub(crate) fn new(procs: usize, reliable: bool) -> LinkLayer {
        LinkLayer {
            reliable,
            peers: (0..procs).map(|_| None).collect(),
            epoch: 0,
        }
    }

    /// The channel state for `peer`, allocated on first use.
    fn peer(&mut self, peer: usize) -> &mut PeerLink {
        self.peers[peer].get_or_insert_with(|| Box::new(PeerLink::new()))
    }

    /// Sends `msg` to `dst`, reliably when the network is untrusted.
    pub(crate) fn send<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        c: &mut Counters,
        dst: usize,
        msg: DsmMsg,
    ) {
        let bytes = msg.wire_size();
        if !self.reliable {
            c.count_fate(h.send(dst, NetMsg::Raw(msg), bytes));
            return;
        }
        let rto = PARAMS.rto_cycles;
        let now = h.now().cycles();
        let p = self.peer(dst);
        if !p.tx.has_inflight() {
            // This frame is the new oldest: its wait starts now.
            p.retx_deadline = now + rto;
        }
        let seq = p.tx.stage(msg.clone(), bytes);
        let ack = p.rx.cum_ack();
        p.last_acked = ack;
        p.force_ack = false;
        c.data_frames_sent += 1;
        let epoch = self.epoch;
        let frame = NetMsg::Data {
            seq,
            ack,
            epoch,
            msg,
        };
        let wire = frame.wire_size();
        c.count_fate(h.send(dst, frame, wire));
        self.arm_timer(h, dst, rto);
    }

    /// Epoch fence: whether a frame from `src` stamped `epoch` is a
    /// pre-crash straggler (older than the sender's current incarnation)
    /// and must be discarded. Also tracks peer recoveries: a *newer*
    /// epoch is how this node learns the peer crashed and came back.
    fn fence_stale_epoch(&mut self, c: &mut Counters, src: usize, epoch: u32) -> bool {
        let p = self.peer(src);
        if epoch < p.peer_epoch {
            c.stale_frames_fenced += 1;
            return true;
        }
        if epoch > p.peer_epoch {
            p.peer_epoch = epoch;
            c.peer_recoveries_observed += 1;
        }
        false
    }

    /// Processes an incoming data frame from `src`: applies the
    /// piggybacked ack, sequences the payload, and appends every message
    /// now deliverable in order to `deliver`.
    pub(crate) fn on_data<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        c: &mut Counters,
        src: usize,
        header: FrameHeader,
        msg: DsmMsg,
        deliver: &mut Vec<DsmMsg>,
    ) {
        let FrameHeader { seq, ack, epoch } = header;
        if self.fence_stale_epoch(c, src, epoch) {
            return;
        }
        self.apply_ack(h, src, ack);
        let p = self.peer(src);
        match p.rx.on_data(seq, msg, deliver) {
            Accept::InOrder => {}
            Accept::Buffered => c.frames_buffered_out_of_order += 1,
            Accept::Duplicate => {
                // The peer resent (or the network duplicated) a frame we
                // already have; our ack may have been lost, so owe a fresh
                // one even though the cumulative ack is unchanged.
                p.force_ack = true;
                c.dup_frames_dropped += 1;
            }
        }
    }

    /// Applies a cumulative ack from `src` to the send channel.
    pub(crate) fn on_ack<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        c: &mut Counters,
        src: usize,
        ack: u64,
        epoch: u32,
    ) {
        if self.fence_stale_epoch(c, src, epoch) {
            return;
        }
        self.apply_ack(h, src, ack);
    }

    fn apply_ack<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, src: usize, ack: u64) {
        let now = h.now().cycles();
        let rto = PARAMS.rto_cycles;
        let p = self.peer(src);
        if p.tx.on_ack(ack) && p.tx.has_inflight() {
            // Progress with frames still waiting: restart the timeout for
            // the new oldest frame (TCP-style timer restart; retries were
            // reset by the channel).
            p.retx_deadline = now + rto;
        }
    }

    /// Sends an explicit ack to `src` if one is owed — called after the
    /// protocol engine has handled a delivered frame, so any reverse data
    /// frame it produced has already carried the ack.
    pub(crate) fn flush_ack<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        c: &mut Counters,
        src: usize,
    ) {
        let now = h.now().cycles();
        let rto = PARAMS.rto_cycles;
        let p = self.peer(src);
        let cum = p.rx.cum_ack();
        let forced = p.force_ack && now >= p.force_ack_ok_at;
        p.force_ack = false;
        if cum > p.last_acked || forced {
            p.last_acked = cum;
            p.force_ack_ok_at = now + rto;
            c.acks_sent += 1;
            let frame = NetMsg::Ack {
                ack: cum,
                epoch: self.epoch,
            };
            let wire = frame.wire_size();
            c.count_fate(h.send(src, frame, wire));
        }
    }

    /// Handles a retransmit timer for the channel to `peer`: resends the
    /// oldest unacked frame (unless backoff says to sit this fire out),
    /// or disarms when everything has been acked.
    pub(crate) fn on_timer<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        c: &mut Counters,
        peer: usize,
    ) {
        c.retransmit_timer_fires += 1;
        let timer_cost = PARAMS.timer_cost_cycles;
        let now = h.now().cycles();
        let p = self.peer(peer);
        p.timer_armed = false;
        h.charge(Category::Protocol, timer_cost);
        if !p.tx.has_inflight() {
            // Inflight empty: leave the timer disarmed so the cluster can
            // quiesce. A new send re-arms it.
            return;
        }
        if now < p.retx_deadline {
            // Too early — the timer was armed for an older exchange.
        } else if let Some((seq, msg, _bytes)) = p.tx.oldest_unacked() {
            c.retransmits += 1;
            let p = self.peer(peer);
            let next_rto = p.tx.note_retransmit(&PARAMS);
            p.retx_deadline = now + next_rto;
            let ack = p.rx.cum_ack();
            p.last_acked = ack;
            p.force_ack = false;
            let frame = NetMsg::Data {
                seq,
                ack,
                epoch: self.epoch,
                msg,
            };
            let wire = frame.wire_size();
            c.count_fate(h.send(peer, frame, wire));
        }
        self.arm_timer(h, peer, PARAMS.rto_cycles);
    }

    /// Post-recovery repair: stamps the new incarnation epoch on all
    /// future frames and re-arms the retransmit machinery. Every timer
    /// that was pending when the node went dark has been fenced, so any
    /// peer with unacked inflight frames needs a fresh timer (and a fresh
    /// deadline — the downtime must not be counted as timeout backoff).
    pub(crate) fn on_recover<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, epoch: u32) {
        self.epoch = epoch;
        let now = h.now().cycles();
        let rto = PARAMS.rto_cycles;
        for peer in 0..self.peers.len() {
            let Some(p) = self.peers[peer].as_deref_mut() else {
                continue;
            };
            p.timer_armed = false;
            if p.tx.has_inflight() {
                p.retx_deadline = now + rto;
                self.arm_timer(h, peer, rto);
            }
        }
    }

    fn arm_timer<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, peer: usize, delay: u64) {
        let p = self.peer(peer);
        if !p.timer_armed {
            p.timer_armed = true;
            h.post_self(NetMsg::RetxCheck { peer }, delay);
        }
    }
}
