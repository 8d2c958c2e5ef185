//! In-flight message events and their deterministic total order.

use crate::time::VirtualTime;

/// A message in flight, keyed for deterministic delivery.
///
/// Events are totally ordered by `(delivery time, source, per-source
/// sequence number)`. The per-source sequence number is assigned by the
/// sending processor's own counter, so the order is independent of how OS
/// threads happen to interleave.
#[derive(Debug)]
pub(crate) struct Event<M> {
    /// Virtual time at which the message arrives at `dst`.
    pub deliver_at: VirtualTime,
    /// Sending processor.
    pub src: usize,
    /// Sequence number within `src`'s send stream.
    pub seq: u64,
    /// Destination processor.
    pub dst: usize,
    /// Payload.
    pub msg: M,
}

impl<M> Event<M> {
    fn key(&self) -> (VirtualTime, usize, u64) {
        (self.deliver_at, self.src, self.seq)
    }
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn ev(t: u64, src: usize, seq: u64) -> Event<&'static str> {
        Event {
            deliver_at: VirtualTime(t),
            src,
            seq,
            dst: 0,
            msg: "x",
        }
    }

    #[test]
    fn orders_by_time_then_source_then_seq() {
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(ev(50, 1, 0)));
        heap.push(Reverse(ev(50, 0, 3)));
        heap.push(Reverse(ev(10, 2, 9)));
        heap.push(Reverse(ev(50, 0, 1)));
        let order: Vec<_> = std::iter::from_fn(|| heap.pop())
            .map(|Reverse(e)| (e.deliver_at.cycles(), e.src, e.seq))
            .collect();
        assert_eq!(order, vec![(10, 2, 9), (50, 0, 1), (50, 0, 3), (50, 1, 0)]);
    }
}
