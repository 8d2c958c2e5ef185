//! Reliable delivery over a lossy network.
//!
//! The simulator's [`FaultPlan`](../midway_sim) can drop, duplicate,
//! reorder and delay messages; this module provides the sliding-window
//! machinery that restores exactly-once, in-order delivery on top of it —
//! the same split as a transport protocol's sequencing layer, kept free of
//! any simulator dependency so it is unit-testable in isolation.
//!
//! One directed `(sender, receiver)` pair gets one [`SendChannel`] on the
//! sender and one [`RecvChannel`] on the receiver:
//!
//! * the sender stamps every frame with a per-pair sequence number
//!   (starting at 1) and keeps it buffered until acknowledged;
//! * the receiver delivers frames strictly in sequence order, buffering
//!   early arrivals and discarding duplicates, and advertises a
//!   *cumulative* ack (the highest sequence received with no gaps);
//! * acks ride on every reverse-direction data frame and on explicit ack
//!   frames; a cumulative ack covers every frame up to it, so lost acks
//!   are repaired by any later ack;
//! * unacked frames are retransmitted go-back-N style from the oldest,
//!   on a timer with exponential backoff (see [`ReliableParams`]).
//!
//! The state machines here are pure: the host (the DSM node engine) owns
//! timers, wire costs, and the decision of when to send what.

use std::collections::BTreeMap;

/// Wire overhead of reliable framing: an 8-byte sequence number plus an
/// 8-byte cumulative ack on every data frame.
pub const RELIABLE_HEADER_BYTES: u64 = 16;

/// The reliable channel's timing: one value, [`ReliableParams::atm_cluster`],
/// which the DSM's link layer runs on; unit tests build others.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReliableParams {
    /// Base retransmit timeout, in cycles. Should comfortably exceed one
    /// network round trip (ATM model: ~2 × (7 500 + 500 + wire) cycles)
    /// *plus* the receiver's typical compute stretch: the simulated nodes
    /// acknowledge from the protocol loop, not from an interrupt handler,
    /// so a frame landing mid-computation is not acked until the receiver
    /// next drains its queue. A timeout tighter than that stretch
    /// retransmits into the void and taxes both ends' critical paths with
    /// duplicate processing.
    pub rto_cycles: u64,
    /// Maximum exponent of the backoff: the timeout doubles per
    /// consecutive retransmission of the same frame, up to
    /// `rto_cycles << backoff_cap`.
    pub backoff_cap: u32,
    /// CPU cycles charged when a retransmit timer fires (the cost of
    /// scanning the inflight queue).
    pub timer_cost_cycles: u64,
}

impl ReliableParams {
    /// Defaults tuned to the paper's ATM cluster model: the base timeout
    /// is ~15 round trips (10 ms at 25 MHz) so neither a healthy network
    /// nor an application compute stretch normally times out.
    pub const fn atm_cluster() -> ReliableParams {
        ReliableParams {
            rto_cycles: 250_000,
            backoff_cap: 6,
            timer_cost_cycles: 150,
        }
    }

    /// The retransmit timeout after `retries` consecutive retransmissions
    /// of the same oldest frame.
    fn rto_after(&self, retries: u32) -> u64 {
        self.rto_cycles << retries.min(self.backoff_cap)
    }
}

/// Sender side of one directed reliable channel.
///
/// Frames are staged here before transmission and held until a cumulative
/// ack covers them. The host retransmits [`Self::oldest_unacked`] when a
/// timer expires.
#[derive(Debug)]
pub struct SendChannel<T> {
    next_seq: u64,
    /// Unacked frames in sequence order: `(seq, payload, payload_bytes)`.
    inflight: std::collections::VecDeque<(u64, T, u64)>,
    /// Consecutive retransmissions of the current oldest frame; resets
    /// whenever an ack makes progress.
    retries: u32,
}

impl<T: Clone> SendChannel<T> {
    /// An empty channel; the first frame takes sequence number 1.
    pub fn new() -> SendChannel<T> {
        SendChannel {
            next_seq: 1,
            inflight: std::collections::VecDeque::new(),
            retries: 0,
        }
    }

    /// Assigns the next sequence number to `payload` and buffers it until
    /// acknowledged. Returns the assigned sequence number; the host
    /// transmits the frame (once now, again on timeout).
    pub fn stage(&mut self, payload: T, payload_bytes: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inflight.push_back((seq, payload, payload_bytes));
        seq
    }

    /// Applies a cumulative ack: every frame with `seq <= ack` is
    /// delivered and dropped from the buffer. Returns `true` if the ack
    /// made progress (the backoff resets in that case).
    pub fn on_ack(&mut self, ack: u64) -> bool {
        let mut progressed = false;
        while let Some((seq, _, _)) = self.inflight.front() {
            if *seq <= ack {
                self.inflight.pop_front();
                progressed = true;
            } else {
                break;
            }
        }
        if progressed {
            self.retries = 0;
        }
        progressed
    }

    /// The oldest unacked frame, if any: `(seq, payload clone, bytes)`.
    /// This is what a timeout retransmits (go-back-N resends from the
    /// front; later inflight frames are repaired by the cumulative ack).
    pub fn oldest_unacked(&self) -> Option<(u64, T, u64)> {
        self.inflight
            .front()
            .map(|(seq, payload, bytes)| (*seq, payload.clone(), *bytes))
    }

    /// Whether any frame is awaiting an ack (⇒ a retransmit timer should
    /// be armed).
    pub fn has_inflight(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// Records a retransmission of the oldest frame and returns the
    /// timeout to use for the *next* retry (exponential backoff).
    pub fn note_retransmit(&mut self, params: &ReliableParams) -> u64 {
        self.retries = self.retries.saturating_add(1);
        params.rto_after(self.retries)
    }
}

impl<T: Clone> Default for SendChannel<T> {
    fn default() -> SendChannel<T> {
        SendChannel::new()
    }
}

/// What [`RecvChannel::on_data`] did with an incoming frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accept {
    /// The frame was in sequence; it (and possibly buffered successors)
    /// are ready to deliver.
    InOrder,
    /// The frame arrived ahead of sequence and was buffered.
    Buffered,
    /// The frame was a duplicate of something already delivered (or
    /// already buffered) and was discarded.
    Duplicate,
}

/// Receiver side of one directed reliable channel.
#[derive(Debug)]
pub struct RecvChannel<T> {
    /// Highest sequence number delivered with no gaps — the cumulative
    /// ack this receiver advertises.
    cum_ack: u64,
    /// Early arrivals waiting for the gap to fill, keyed by sequence.
    pending: BTreeMap<u64, T>,
}

impl<T> RecvChannel<T> {
    /// An empty channel expecting sequence number 1 first.
    pub fn new() -> RecvChannel<T> {
        RecvChannel {
            cum_ack: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Processes an incoming data frame. In-sequence frames (plus any
    /// buffered successors they unblock) are appended to `deliver` in
    /// order; early frames are buffered; duplicates are dropped.
    pub fn on_data(&mut self, seq: u64, payload: T, deliver: &mut Vec<T>) -> Accept {
        if seq <= self.cum_ack {
            return Accept::Duplicate;
        }
        if seq == self.cum_ack + 1 {
            self.cum_ack = seq;
            deliver.push(payload);
            while let Some(p) = self.pending.remove(&(self.cum_ack + 1)) {
                self.cum_ack += 1;
                deliver.push(p);
            }
            Accept::InOrder
        } else {
            match self.pending.entry(seq) {
                std::collections::btree_map::Entry::Occupied(_) => Accept::Duplicate,
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(payload);
                    Accept::Buffered
                }
            }
        }
    }

    /// The cumulative ack to advertise: every frame up to and including
    /// this sequence number has been delivered.
    pub fn cum_ack(&self) -> u64 {
        self.cum_ack
    }
}

impl<T> Default for RecvChannel<T> {
    fn default() -> RecvChannel<T> {
        RecvChannel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream_delivers_immediately_and_acks_advance() {
        let mut tx: SendChannel<&str> = SendChannel::new();
        let mut rx: RecvChannel<&str> = RecvChannel::new();
        let mut out = Vec::new();
        for (i, word) in ["a", "b", "c"].iter().enumerate() {
            let seq = tx.stage(word, 8);
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(rx.on_data(seq, *word, &mut out), Accept::InOrder);
        }
        assert_eq!(out, vec!["a", "b", "c"]);
        assert_eq!(rx.cum_ack(), 3);
        assert!(tx.on_ack(rx.cum_ack()));
        assert!(!tx.has_inflight());
    }

    #[test]
    fn out_of_order_frames_are_buffered_then_released_in_order() {
        let mut rx: RecvChannel<u32> = RecvChannel::new();
        let mut out = Vec::new();
        assert_eq!(rx.on_data(3, 30, &mut out), Accept::Buffered);
        assert_eq!(rx.on_data(2, 20, &mut out), Accept::Buffered);
        assert!(out.is_empty());
        assert_eq!(rx.cum_ack(), 0);
        assert_eq!(rx.on_data(1, 10, &mut out), Accept::InOrder);
        assert_eq!(out, vec![10, 20, 30]);
        assert_eq!(rx.cum_ack(), 3);
        assert_eq!(rx.pending.len(), 0);
    }

    #[test]
    fn duplicates_are_dropped_everywhere() {
        let mut rx: RecvChannel<u32> = RecvChannel::new();
        let mut out = Vec::new();
        rx.on_data(1, 10, &mut out);
        // Duplicate of a delivered frame.
        assert_eq!(rx.on_data(1, 10, &mut out), Accept::Duplicate);
        // Duplicate of a buffered frame.
        assert_eq!(rx.on_data(3, 30, &mut out), Accept::Buffered);
        assert_eq!(rx.on_data(3, 30, &mut out), Accept::Duplicate);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn cumulative_ack_covers_everything_below() {
        let mut tx: SendChannel<u32> = SendChannel::new();
        for v in 0..5 {
            tx.stage(v, 4);
        }
        assert_eq!(tx.inflight.len(), 5);
        // A single ack of 3 releases frames 1..=3.
        assert!(tx.on_ack(3));
        assert_eq!(tx.inflight.len(), 2);
        assert_eq!(tx.oldest_unacked().map(|(s, _, _)| s), Some(4));
        // A stale ack makes no progress.
        assert!(!tx.on_ack(2));
        assert_eq!(tx.inflight.len(), 2);
    }

    #[test]
    fn backoff_doubles_until_cap_and_resets_on_progress() {
        let params = ReliableParams {
            rto_cycles: 100,
            backoff_cap: 3,
            timer_cost_cycles: 0,
        };
        let mut tx: SendChannel<u32> = SendChannel::new();
        tx.stage(1, 4);
        assert_eq!(tx.note_retransmit(&params), 200);
        assert_eq!(tx.note_retransmit(&params), 400);
        assert_eq!(tx.note_retransmit(&params), 800);
        // Capped.
        assert_eq!(tx.note_retransmit(&params), 800);
        // Progress resets the backoff.
        tx.stage(2, 4);
        assert!(tx.on_ack(1));
        assert_eq!(tx.note_retransmit(&params), 200);
    }

    #[test]
    fn retransmission_of_oldest_survives_any_single_loss() {
        // Simulated loss: frame 2 of 4 is lost; the receiver acks 1; the
        // sender retransmits from the oldest unacked (2), after which the
        // buffered 3 and 4 flush.
        let mut tx: SendChannel<u32> = SendChannel::new();
        let mut rx: RecvChannel<u32> = RecvChannel::new();
        let mut out = Vec::new();
        let frames: Vec<u64> = (10..14).map(|v| tx.stage(v, 4)).collect();
        rx.on_data(frames[0], 10, &mut out); // 1 arrives
                                             // 2 lost.
        rx.on_data(frames[2], 12, &mut out); // 3 buffered
        rx.on_data(frames[3], 13, &mut out); // 4 buffered
        assert_eq!(out, vec![10]);
        tx.on_ack(rx.cum_ack()); // ack 1
        let (seq, payload, _) = tx.oldest_unacked().expect("2 still inflight");
        assert_eq!(seq, 2);
        assert_eq!(rx.on_data(seq, payload, &mut out), Accept::InOrder);
        assert_eq!(out, vec![10, 11, 12, 13]);
        assert_eq!(rx.cum_ack(), 4);
        assert!(tx.on_ack(rx.cum_ack()));
        assert!(!tx.has_inflight());
    }
}
