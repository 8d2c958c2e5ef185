//! Home-node lock and manager-node barrier state machines.
//!
//! Paper §3: "When a processor acquires a lock that was last acquired on
//! another processor, the first processor (the requester) must send a
//! message to the second processor (the releaser)". We route requests
//! through a static *home* that serializes grants and knows the owner of
//! record; the data (and write collection) flows directly from the last
//! releaser to the requester.
//!
//! These state machines are pure: they receive events and return the
//! transfers to initiate, so they can be tested without a simulator.

use std::collections::VecDeque;

use crate::sync_id::Mode;
use crate::update::UpdateSet;

/// An opaque "what the requester has already seen" token, forwarded
/// verbatim from the acquire request to the releaser. RT-DSM stores a
/// Lamport time; VM-DSM stores (incarnation, binding version).
pub type SeenToken = (u64, u64);

/// A data transfer the home asks the owner of record to perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// The processor that must run write collection (the owner of record).
    pub old_owner: usize,
    /// The processor acquiring the lock.
    pub requester: usize,
    /// The acquisition mode.
    pub mode: Mode,
    /// The requester's last-seen token.
    pub seen: SeenToken,
}

/// Home-side state of one lock.
///
/// Fairness is FIFO: a request queues behind earlier waiters even if it
/// could be granted immediately, so writers never starve behind a stream
/// of readers. Consecutive readers at the head are granted together.
#[derive(Debug)]
pub struct HomeLock {
    owner: usize,
    held_exclusive: bool,
    readers: usize,
    queue: VecDeque<(usize, Mode, SeenToken)>,
}

impl HomeLock {
    /// Creates the lock with `initial_owner` as owner of record (whose
    /// zero-initialized cache is the initial data).
    pub fn new(initial_owner: usize) -> HomeLock {
        HomeLock {
            owner: initial_owner,
            held_exclusive: false,
            readers: 0,
            queue: VecDeque::new(),
        }
    }

    /// The owner of record: the last exclusive holder (or the initial
    /// owner), whose cache is current.
    pub fn owner(&self) -> usize {
        self.owner
    }

    /// Whether the lock is currently held exclusively.
    pub fn held_exclusive(&self) -> bool {
        self.held_exclusive
    }

    /// Number of active readers.
    pub fn readers(&self) -> usize {
        self.readers
    }

    /// Processor `from` requests the lock. Returns transfers to initiate.
    pub fn acquire(&mut self, from: usize, mode: Mode, seen: SeenToken) -> Vec<Transfer> {
        self.queue.push_back((from, mode, seen));
        self.drain()
    }

    /// Processor `from` releases the lock. Returns transfers to initiate.
    ///
    /// # Panics
    ///
    /// Panics on a release that does not match a grant (protocol bug).
    pub fn release(&mut self, from: usize, mode: Mode) -> Vec<Transfer> {
        match mode {
            Mode::Exclusive => {
                assert!(
                    self.held_exclusive && self.owner == from,
                    "exclusive release by non-owner {from}"
                );
                self.held_exclusive = false;
            }
            Mode::Shared => {
                assert!(self.readers > 0, "shared release with no readers");
                self.readers -= 1;
            }
        }
        self.drain()
    }

    fn grantable(&self, mode: Mode) -> bool {
        match mode {
            Mode::Exclusive => !self.held_exclusive && self.readers == 0,
            Mode::Shared => !self.held_exclusive,
        }
    }

    fn drain(&mut self) -> Vec<Transfer> {
        let mut out = Vec::new();
        while let Some(&(from, mode, seen)) = self.queue.front() {
            if !self.grantable(mode) {
                break;
            }
            self.queue.pop_front();
            match mode {
                Mode::Exclusive => {
                    self.held_exclusive = true;
                    let old = self.owner;
                    self.owner = from;
                    out.push(Transfer {
                        old_owner: old,
                        requester: from,
                        mode,
                        seen,
                    });
                }
                Mode::Shared => {
                    self.readers += 1;
                    out.push(Transfer {
                        old_owner: self.owner,
                        requester: from,
                        mode,
                        seen,
                    });
                }
            }
        }
        out
    }
}

/// A malformed barrier arrival: the sender broke the protocol, so the
/// site cannot make progress. Callers surface this through the
/// transport's `protocol_violation` path rather than panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BarrierError {
    /// A processor arrived twice in one episode.
    DoubleArrival {
        /// The offending processor.
        from: usize,
        /// The episode being gathered when it re-arrived.
        episode: u64,
    },
    /// An arrival from a processor that is not a child of this node in
    /// the combining tree.
    NotAChild {
        /// The offending processor.
        from: usize,
    },
}

impl std::fmt::Display for BarrierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BarrierError::DoubleArrival { from, episode } => {
                write!(f, "processor {from} arrived twice in episode {episode}")
            }
            BarrierError::NotAChild { from } => {
                write!(
                    f,
                    "arrival from processor {from}, which is not a child of this node"
                )
            }
        }
    }
}

/// What the barrier manager hands back when the last processor arrives:
/// one merged set for everyone, plus each processor's skip list.
#[derive(Debug, PartialEq)]
pub struct BarrierRelease {
    /// The episode that just completed.
    pub episode: u64,
    /// Every processor's contribution, merged in arrival order.
    pub merged: UpdateSet,
    /// Per processor: the sorted addresses of its own contribution, which
    /// its release skips ([`UpdateSet::excluding`]).
    pub own_addrs: Vec<Vec<u64>>,
}

impl BarrierRelease {
    /// Per-processor release payloads, materialized: the merged updates
    /// minus each processor's own contribution. The oracle the skip-based
    /// release is tested against.
    #[cfg(test)]
    pub(crate) fn per_proc(&self) -> Vec<UpdateSet> {
        self.own_addrs
            .iter()
            .map(|skip| UpdateSet {
                items: self.merged.excluding(skip).cloned().collect(),
            })
            .collect()
    }
}

/// Manager-side state of one barrier.
#[derive(Debug)]
pub struct BarrierSite {
    procs: usize,
    episode: u64,
    arrived: Vec<bool>,
    arrivals: usize,
    merged: UpdateSet,
    /// Per processor: the addresses it contributed this episode. The
    /// contributions themselves move into `merged`.
    own_addrs: Vec<Vec<u64>>,
}

impl BarrierSite {
    /// A barrier over `procs` processors, at episode 0.
    pub fn new(procs: usize) -> BarrierSite {
        BarrierSite {
            procs,
            episode: 0,
            arrived: vec![false; procs],
            arrivals: 0,
            merged: UpdateSet::new(),
            own_addrs: vec![Vec::new(); procs],
        }
    }

    /// The episode currently being gathered.
    pub fn episode(&self) -> u64 {
        self.episode
    }

    /// Processor `from` arrives with its collected updates. Returns the
    /// release when this completes the episode, or a [`BarrierError`] on
    /// a double arrival (a protocol violation the caller must surface).
    pub fn arrive(
        &mut self,
        from: usize,
        update: UpdateSet,
    ) -> Result<Option<BarrierRelease>, BarrierError> {
        if self.arrived[from] {
            return Err(BarrierError::DoubleArrival {
                from,
                episode: self.episode,
            });
        }
        self.arrived[from] = true;
        self.arrivals += 1;
        self.own_addrs[from] = update.sorted_addrs();
        self.merged.merge_newer(update);
        if self.arrivals < self.procs {
            return Ok(None);
        }
        // Episode complete: hand out the merged set and reset.
        let merged = std::mem::take(&mut self.merged);
        let own_addrs = std::mem::replace(&mut self.own_addrs, vec![Vec::new(); self.procs]);
        let episode = self.episode;
        self.episode += 1;
        self.arrived.fill(false);
        self.arrivals = 0;
        Ok(Some(BarrierRelease {
            episode,
            merged,
            own_addrs,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::UpdateItem;

    const SEEN: SeenToken = (0, 0);

    #[test]
    fn uncontended_exclusive_transfers_from_owner_of_record() {
        let mut l = HomeLock::new(0);
        let t = l.acquire(3, Mode::Exclusive, SEEN);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].old_owner, 0);
        assert_eq!(t[0].requester, 3);
        assert_eq!(l.owner(), 3);
        assert!(l.held_exclusive());
    }

    #[test]
    fn contended_exclusive_queues_fifo() {
        let mut l = HomeLock::new(0);
        assert_eq!(l.acquire(1, Mode::Exclusive, SEEN).len(), 1);
        assert!(l.acquire(2, Mode::Exclusive, SEEN).is_empty());
        assert!(l.acquire(3, Mode::Exclusive, SEEN).is_empty());
        let t = l.release(1, Mode::Exclusive);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].old_owner, 1);
        assert_eq!(t[0].requester, 2);
        let t = l.release(2, Mode::Exclusive);
        assert_eq!(t[0].requester, 3);
    }

    #[test]
    fn readers_share_and_do_not_take_ownership() {
        let mut l = HomeLock::new(0);
        let t1 = l.acquire(1, Mode::Shared, SEEN);
        let t2 = l.acquire(2, Mode::Shared, SEEN);
        assert_eq!(t1[0].old_owner, 0);
        assert_eq!(t2[0].old_owner, 0);
        assert_eq!(l.owner(), 0, "readers leave the owner of record alone");
        assert_eq!(l.readers(), 2);
    }

    #[test]
    fn writer_waits_for_readers_then_readers_batch_after() {
        let mut l = HomeLock::new(0);
        l.acquire(1, Mode::Shared, SEEN);
        assert!(l.acquire(2, Mode::Exclusive, SEEN).is_empty());
        // A reader behind a waiting writer queues (no starvation).
        assert!(l.acquire(3, Mode::Shared, SEEN).is_empty());
        let t = l.release(1, Mode::Shared);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].requester, 2);
        // Writer done: the queued reader is granted from the new owner.
        let t = l.release(2, Mode::Exclusive);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].requester, 3);
        assert_eq!(t[0].old_owner, 2);
    }

    #[test]
    fn reacquire_by_owner_transfers_from_self() {
        let mut l = HomeLock::new(5);
        let t = l.acquire(5, Mode::Exclusive, SEEN);
        assert_eq!(t[0].old_owner, 5);
        assert_eq!(t[0].requester, 5);
    }

    #[test]
    #[should_panic(expected = "exclusive release by non-owner")]
    fn mismatched_release_panics() {
        let mut l = HomeLock::new(0);
        l.acquire(1, Mode::Exclusive, SEEN);
        l.release(2, Mode::Exclusive);
    }

    #[test]
    fn reacquire_while_holding_queues_until_release() {
        // A re-entrant exclusive acquire is not granted while the first
        // hold is outstanding — it waits its turn like any other request.
        let mut l = HomeLock::new(0);
        assert_eq!(l.acquire(1, Mode::Exclusive, SEEN).len(), 1);
        assert!(l.acquire(1, Mode::Exclusive, SEEN).is_empty());
        let t = l.release(1, Mode::Exclusive);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].requester, 1);
        assert_eq!(t[0].old_owner, 1, "re-grant transfers from itself");
        assert!(l.held_exclusive());
    }

    #[test]
    fn exclusive_to_shared_grants_reader_batch_from_last_writer() {
        // Downgrade transition: when the writer releases, every queued
        // reader is granted in one drain, each transferring from the
        // writer (the owner of record), in FIFO order.
        let mut l = HomeLock::new(0);
        l.acquire(1, Mode::Exclusive, SEEN);
        assert!(l.acquire(2, Mode::Shared, SEEN).is_empty());
        assert!(l.acquire(3, Mode::Shared, SEEN).is_empty());
        assert!(l.acquire(4, Mode::Shared, SEEN).is_empty());
        let t = l.release(1, Mode::Exclusive);
        assert_eq!(
            t.iter().map(|t| t.requester).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "readers batch in arrival order"
        );
        assert!(t.iter().all(|t| t.old_owner == 1));
        assert_eq!(l.readers(), 3);
        assert_eq!(
            l.owner(),
            1,
            "shared grants leave ownership with the writer"
        );
    }

    #[test]
    fn shared_to_exclusive_waits_for_every_reader() {
        // Upgrade transition: the writer is granted only when the last
        // reader leaves, and then takes ownership of record.
        let mut l = HomeLock::new(0);
        l.acquire(1, Mode::Shared, SEEN);
        l.acquire(2, Mode::Shared, SEEN);
        assert!(l.acquire(3, Mode::Exclusive, SEEN).is_empty());
        assert!(l.release(1, Mode::Shared).is_empty(), "one reader remains");
        let t = l.release(2, Mode::Shared);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].requester, 3);
        assert_eq!(
            t[0].old_owner, 0,
            "data still comes from the owner of record"
        );
        assert_eq!(l.owner(), 3);
    }

    #[test]
    fn mixed_queue_preserves_fifo_transfer_order() {
        // Queue [S2, E3, S4, E5] behind writer 1: each drain stops at the
        // first ungrantable request, so the grants replay in exactly
        // arrival order with the right owner of record each time.
        let mut l = HomeLock::new(0);
        l.acquire(1, Mode::Exclusive, SEEN);
        l.acquire(2, Mode::Shared, SEEN);
        l.acquire(3, Mode::Exclusive, SEEN);
        l.acquire(4, Mode::Shared, SEEN);
        l.acquire(5, Mode::Exclusive, SEEN);
        let mut order = Vec::new();
        for t in l.release(1, Mode::Exclusive) {
            order.push((t.requester, t.mode, t.old_owner));
        }
        for t in l.release(2, Mode::Shared) {
            order.push((t.requester, t.mode, t.old_owner));
        }
        for t in l.release(3, Mode::Exclusive) {
            order.push((t.requester, t.mode, t.old_owner));
        }
        for t in l.release(4, Mode::Shared) {
            order.push((t.requester, t.mode, t.old_owner));
        }
        assert_eq!(
            order,
            vec![
                (2, Mode::Shared, 1),
                (3, Mode::Exclusive, 1),
                (4, Mode::Shared, 3),
                (5, Mode::Exclusive, 3),
            ]
        );
    }

    #[test]
    fn seen_token_is_forwarded_verbatim_per_requester() {
        let mut l = HomeLock::new(0);
        let t = l.acquire(7, Mode::Exclusive, (42, 9));
        assert_eq!(t[0].seen, (42, 9));
        l.acquire(8, Mode::Exclusive, (1000, 2));
        let t = l.release(7, Mode::Exclusive);
        assert_eq!(t[0].seen, (1000, 2), "queued token survives the wait");
    }

    fn item(addr: u64, ts: u64) -> UpdateItem {
        UpdateItem {
            addr,
            data: vec![ts as u8; 4],
            ts,
        }
    }

    #[test]
    fn barrier_releases_when_all_arrive() {
        let mut b = BarrierSite::new(3);
        assert!(b
            .arrive(
                0,
                UpdateSet {
                    items: vec![item(0, 1)]
                }
            )
            .expect("clean arrival")
            .is_none());
        assert!(b
            .arrive(
                2,
                UpdateSet {
                    items: vec![item(8, 2)]
                }
            )
            .expect("clean arrival")
            .is_none());
        let rel = b
            .arrive(1, UpdateSet::new())
            .expect("clean arrival")
            .expect("last arrival releases");
        assert_eq!(rel.episode, 0);
        // Each processor receives the others' updates, not its own.
        let per_proc = rel.per_proc();
        assert_eq!(per_proc[0].items.len(), 1);
        assert_eq!(per_proc[0].items[0].addr, 8);
        assert_eq!(per_proc[1].items.len(), 2);
        assert_eq!(per_proc[2].items[0].addr, 0);
        // Ready for the next episode.
        assert_eq!(b.episode(), 1);
        assert!(b
            .arrive(0, UpdateSet::new())
            .expect("clean arrival")
            .is_none());
    }

    #[test]
    fn barrier_conflicting_writes_resolve_newest_and_skip_writers() {
        // Two processors wrote the same address: the merge keeps the
        // newer item, and neither writer receives it back (each already
        // has its own — possibly older — value by design; entry
        // consistency only promises consistency at the next acquire).
        let mut b = BarrierSite::new(3);
        b.arrive(
            0,
            UpdateSet {
                items: vec![item(16, 5)],
            },
        )
        .expect("clean arrival");
        b.arrive(
            1,
            UpdateSet {
                items: vec![item(16, 9)],
            },
        )
        .expect("clean arrival");
        let rel = b
            .arrive(2, UpdateSet::new())
            .expect("clean arrival")
            .expect("last arrival releases");
        let per_proc = rel.per_proc();
        assert!(per_proc[0].items.is_empty());
        assert!(per_proc[1].items.is_empty());
        assert_eq!(per_proc[2].items.len(), 1);
        assert_eq!(per_proc[2].items[0].ts, 9, "newest write wins");
    }

    #[test]
    fn double_arrival_is_an_error_not_a_panic() {
        let mut b = BarrierSite::new(2);
        b.arrive(0, UpdateSet::new())
            .expect("first arrival is clean");
        assert_eq!(
            b.arrive(0, UpdateSet::new()),
            Err(BarrierError::DoubleArrival {
                from: 0,
                episode: 0
            })
        );
        // The offender did not corrupt the episode: the missing processor
        // still completes it.
        let rel = b
            .arrive(1, UpdateSet::new())
            .expect("clean arrival")
            .expect("all arrived");
        assert_eq!(rel.episode, 0);
    }
}
