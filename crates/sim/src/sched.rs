//! The conservative virtual-time scheduler.
//!
//! Invariant: a pending event is delivered only when no processor is
//! runnable, and the event chosen is the global minimum under
//! `(delivery time, src, seq)`. Because a resumed processor first advances
//! its clock to the delivery time, every event it subsequently posts is
//! later than anything already delivered, so deliveries are nondecreasing
//! in virtual time and the execution is deterministic.
//!
//! Every simulated processor is a [`Coroutine`] and [`Scheduler::run`] is
//! the one event loop that resumes them, on the thread that called
//! [`Cluster::run`](crate::Cluster::run). A processor runs until it
//! suspends in [`Scheduler::block_recv`] or returns; only then does the
//! loop look at the queue, so the invariant holds by construction — there
//! is no count of running processors to keep, and nothing here is shared
//! between threads: the state sits in a `RefCell` that is never borrowed
//! across a switch.
//!
//! Two scale-out refinements keep the dispatch path O(log queue) instead of
//! O(procs):
//!
//! * Waiter sets. Blocked and draining processors are tracked in indexed
//!   sets ([`ProcSet`]: swap-remove vector plus position map, O(1) each
//!   way), so deadlock detection is an `is_empty` check, the deadlock
//!   report is built lazily from the index only after a deadlock has been
//!   detected, and quiescence walks exactly the drainers instead of
//!   scanning every processor's state.
//! * Event batching. When consecutive queue minima are addressed to the
//!   same processor at the same instant, they are delivered as one batch
//!   and drained by the destination across successive `recv`s without
//!   going back to the loop in between. Batching only events with
//!   `src <= dst` keeps the schedule identical to one-at-a-time delivery:
//!   anything the resumed processor posts sorts at `(t', dst, fresh seq)`
//!   with `t' >= t`, which the queue orders after every batched
//!   `(t, src <= dst, older seq)` entry.
//!
//! Two host-allocation refinements ride along (see [`crate::queue`] for the
//! event store itself): pending events live in a calendar ring instead of a
//! binary heap, and the per-batch `VecDeque`s are recycled through a small
//! freelist instead of being allocated per dispatch and dropped per drain.
//! [`SchedStats`] counts what each path did, purely for host-side perf
//! attribution — none of it feeds virtual time.

use std::cell::RefCell;
use std::collections::VecDeque;

use crate::coro::{self, Coroutine};
use crate::event::Event;
use crate::queue::EventQueue;
use crate::time::VirtualTime;

/// Most batch deques kept for reuse; beyond this they drop normally.
const SPARE_CAP: usize = 64;

/// Host-side scheduler counters for performance attribution. Purely
/// observational: nothing here affects delivery order or virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events delivered to destination slots.
    pub delivered: u64,
    /// Dispatches that delivered something (one resume of the destination
    /// each).
    pub dispatches: u64,
    /// Events delivered as batch extras — beyond the first of each batch,
    /// so consumed without going back to the event loop.
    pub batched: u64,
    /// Queue pops served by the calendar ring.
    pub near_pops: u64,
    /// Queue pops served by the overflow heap.
    pub far_pops: u64,
    /// Batch deques drawn from the freelist instead of freshly allocated.
    pub deques_recycled: u64,
}

/// Lifecycle state of a simulated processor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ProcState {
    /// Runnable: executing now, or about to be resumed with a delivery.
    Running,
    /// Suspended in `recv`: it must receive a message to make progress.
    Blocked,
    /// Suspended in `drain_recv`: it accepts messages but may also be
    /// released when the whole cluster quiesces.
    Draining,
    /// The processor's closure has returned or unwound.
    Done,
}

/// An indexed set of processor ids: O(1) insert, O(1) remove, O(members)
/// iteration. `pos[p]` is `p`'s index in `members`, or `usize::MAX` when
/// absent; removal swap-removes, so iteration order is arbitrary.
struct ProcSet {
    members: Vec<usize>,
    pos: Vec<usize>,
}

impl ProcSet {
    const ABSENT: usize = usize::MAX;

    fn new(procs: usize) -> ProcSet {
        ProcSet {
            members: Vec::with_capacity(procs),
            pos: vec![Self::ABSENT; procs],
        }
    }

    fn insert(&mut self, p: usize) {
        debug_assert_eq!(self.pos[p], Self::ABSENT, "proc {p} already in set");
        self.pos[p] = self.members.len();
        self.members.push(p);
    }

    fn remove(&mut self, p: usize) {
        let at = self.pos[p];
        debug_assert_ne!(at, Self::ABSENT, "proc {p} not in set");
        self.pos[p] = Self::ABSENT;
        self.members.swap_remove(at);
        if let Some(&moved) = self.members.get(at) {
            self.pos[moved] = at;
        }
    }

    fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members in ascending order (sorted on demand: this is the
    /// report path, not the hot path).
    fn sorted(&self) -> Vec<usize> {
        let mut v = self.members.clone();
        v.sort_unstable();
        v
    }
}

/// What the event loop left in a processor's mailbox: a batch of
/// ready-to-consume deliveries, drained front-to-back.
enum Slot<M> {
    Empty,
    Msgs(VecDeque<(VirtualTime, usize, M)>),
    /// The cluster has quiesced; a draining processor may finish.
    Quiesce,
}

/// Why the simulation was aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Poison {
    /// No processor can make progress: `blocked` lists those stuck in `recv`.
    Deadlock { blocked: Vec<usize> },
    /// A message was addressed to a processor that had already finished.
    MessageToFinished { src: usize, dst: usize },
    /// An application closure panicked.
    Panic { proc: usize, message: String },
    /// A protocol layer detected an invariant violation (e.g. a message
    /// routed to a processor that does not own the addressed resource) and
    /// aborted deliberately instead of panicking.
    Protocol { proc: usize, message: String },
    /// The runtime detected an application-level misuse of the DSM API
    /// (e.g. an out-of-bounds shared write) and aborted deliberately.
    App { proc: usize, message: String },
}

struct SchedInner<M> {
    procs: Vec<ProcState>,
    queue: EventQueue<M>,
    slots: Vec<Slot<M>>,
    poison: Option<Poison>,
    delivered: u64,
    /// Dispatches that delivered a batch.
    dispatches: u64,
    /// Events delivered beyond the first of their batch.
    batched: u64,
    /// Batch deques drawn from `spare` instead of freshly allocated.
    recycled: u64,
    /// Freelist of emptied batch deques, reused by the next dispatch.
    spare: Vec<VecDeque<(VirtualTime, usize, M)>>,
    /// Processors currently in [`ProcState::Blocked`].
    blocked: ProcSet,
    /// Processors currently in [`ProcState::Draining`].
    draining: ProcSet,
}

/// The scheduler: the cluster's state plus the event loop that owns the
/// processors' coroutines. Processors reach it through a shared `Rc`;
/// every method borrows the state for the length of the call only and
/// never across [`coro::suspend`], so the loop and the one running
/// processor never hold it at once.
pub(crate) struct Scheduler<M> {
    inner: RefCell<SchedInner<M>>,
}

impl<M> Scheduler<M> {
    pub fn new(procs: usize) -> Scheduler<M> {
        Scheduler {
            inner: RefCell::new(SchedInner {
                procs: vec![ProcState::Running; procs],
                queue: EventQueue::new(),
                slots: (0..procs).map(|_| Slot::Empty).collect(),
                poison: None,
                delivered: 0,
                dispatches: 0,
                batched: 0,
                recycled: 0,
                spare: Vec::new(),
                blocked: ProcSet::new(procs),
                draining: ProcSet::new(procs),
            }),
        }
    }

    /// The event loop. `procs[i]` is processor `i`'s coroutine, not yet
    /// started; returns once every one of them has finished.
    ///
    /// Processors are started in id order and each runs to its first
    /// suspension before the next starts. No event is delivered until all
    /// have, so the start order cannot reach the results. From then on:
    /// pick the next delivery, resume its destination, repeat — until the
    /// cluster quiesces or is poisoned. Either way every processor that is
    /// still suspended is then resumed exactly once, in id order. After
    /// quiescence those are the drainers, each finding `Slot::Quiesce`.
    /// After poison its `block_recv` returns the poison, the caller
    /// unwinds its own stack and its locals drop. (A processor never
    /// suspends once the poison is set — `block_recv` checks first — and
    /// must not receive again after quiescence, so one resume each
    /// finishes everyone.)
    pub fn run(&self, procs: &mut [Coroutine<'_>]) {
        for p in procs.iter_mut() {
            p.resume();
        }
        loop {
            // A statement of its own: the borrow must end before a resume.
            let next = self.inner.borrow_mut().dispatch();
            let Some(dst) = next else { break };
            procs[dst].resume();
        }
        for p in procs.iter_mut().filter(|p| !p.is_done()) {
            p.resume();
        }
        debug_assert!(procs.iter().all(Coroutine::is_done));
    }

    /// Snapshot of the abort condition, if any.
    pub fn poison(&self) -> Option<Poison> {
        self.inner.borrow().poison.clone()
    }

    /// Queues an in-flight message. Called only by the running processor,
    /// so no dispatch can be due yet.
    pub fn post(&self, ev: Event<M>) {
        self.inner.borrow_mut().queue.push(ev);
    }

    /// Suspends processor `me` until a message arrives (or, when
    /// `draining`, until the cluster quiesces). Returns `Ok(None)` only on
    /// quiescence. Must be called from `me`'s own coroutine.
    ///
    /// When a prior dispatch left a batch in this processor's slot, the
    /// next delivery is consumed immediately — the processor stays
    /// `Running` and never goes back to the event loop.
    pub fn block_recv(
        &self,
        me: usize,
        draining: bool,
    ) -> Result<Option<(VirtualTime, usize, M)>, Poison> {
        {
            let mut inner = self.inner.borrow_mut();
            debug_assert_eq!(inner.procs[me], ProcState::Running);
            if let Some(p) = &inner.poison {
                return Err(p.clone());
            }
            if let Some(m) = inner.take_from_slot(me) {
                return Ok(Some(m));
            }
            if draining {
                inner.procs[me] = ProcState::Draining;
                inner.draining.insert(me);
            } else {
                inner.procs[me] = ProcState::Blocked;
                inner.blocked.insert(me);
            }
        }
        // The loop resumes this coroutine for exactly one of three
        // reasons, checked in this order below.
        coro::suspend();
        let mut inner = self.inner.borrow_mut();
        if let Some(p) = &inner.poison {
            return Err(p.clone());
        }
        if let Slot::Quiesce = inner.slots[me] {
            debug_assert!(draining);
            inner.slots[me] = Slot::Empty;
            return Ok(None);
        }
        debug_assert_eq!(inner.procs[me], ProcState::Running);
        let m = inner.take_from_slot(me);
        Ok(Some(m.expect(
            "resumed with neither delivery, quiesce nor poison",
        )))
    }

    /// Marks `me` finished. Valid from `Running` (closure returned without
    /// draining) or `Draining` (released by quiescence).
    pub fn finish(&self, me: usize) {
        let mut inner = self.inner.borrow_mut();
        match inner.procs[me] {
            ProcState::Running => {
                // A leftover batched delivery is a message to a finished
                // processor, exactly as if it were still in the queue.
                if let Slot::Msgs(q) = &inner.slots[me] {
                    if let Some(src) = q.front().map(|m| m.1) {
                        inner.set_poison(Poison::MessageToFinished { src, dst: me });
                    }
                }
            }
            // Released by quiescence: the decision is not re-evaluated,
            // all drainers are released together.
            ProcState::Draining => inner.draining.remove(me),
            s => panic!("finish() from invalid state {s:?}"),
        }
        inner.procs[me] = ProcState::Done;
    }

    /// Records a fatal condition; the first one wins. The event loop
    /// notices once the calling processor hands control back.
    pub fn set_poison(&self, p: Poison) {
        self.inner.borrow_mut().set_poison(p);
    }

    /// Marks `me` dead after a panic and poisons the cluster.
    pub fn abandon(&self, me: usize, message: String) {
        let mut inner = self.inner.borrow_mut();
        match inner.procs[me] {
            ProcState::Blocked => inner.blocked.remove(me),
            ProcState::Draining => inner.draining.remove(me),
            ProcState::Running | ProcState::Done => {}
        }
        inner.procs[me] = ProcState::Done;
        inner.set_poison(Poison::Panic { proc: me, message });
    }

    /// Snapshot of the host-side attribution counters.
    pub fn stats(&self) -> SchedStats {
        let inner = self.inner.borrow();
        SchedStats {
            delivered: inner.delivered,
            dispatches: inner.dispatches,
            batched: inner.batched,
            near_pops: inner.queue.near_pops,
            far_pops: inner.queue.far_pops,
            deques_recycled: inner.recycled,
        }
    }
}

impl<M> SchedInner<M> {
    fn set_poison(&mut self, p: Poison) {
        if self.poison.is_none() {
            self.poison = Some(p);
        }
    }

    /// Pops the next delivery from `me`'s slot batch, normalizing an
    /// emptied batch back to `Empty` and parking its deque on the
    /// freelist for the next dispatch.
    fn take_from_slot(&mut self, me: usize) -> Option<(VirtualTime, usize, M)> {
        let Slot::Msgs(q) = &mut self.slots[me] else {
            return None;
        };
        let m = q.pop_front();
        if q.is_empty() {
            let Slot::Msgs(q) = std::mem::replace(&mut self.slots[me], Slot::Empty) else {
                unreachable!("slot kind checked above")
            };
            if self.spare.len() < SPARE_CAP {
                self.spare.push(q);
            }
        }
        m
    }

    /// Delivers the minimal pending event — plus every consecutive queue
    /// minimum for the same destination at the same instant — and returns
    /// the destination to resume; or detects deadlock/quiescence and
    /// returns `None`: the run is over bar resuming whoever is still
    /// suspended. Called by the loop only, so no processor is runnable.
    ///
    /// The hot path — a batch delivered to a suspended destination —
    /// allocates at most the batch deque. The deadlock report (which
    /// allocates and sorts) is built from the blocked index only in the
    /// empty-queue arm, after the deadlock has actually been detected.
    fn dispatch(&mut self) -> Option<usize> {
        if self.poison.is_some() {
            return None;
        }
        let Some(ev) = self.queue.pop() else {
            if !self.blocked.is_empty() {
                // Stuck: build the report lazily, off the index.
                let blocked = self.blocked.sorted();
                self.set_poison(Poison::Deadlock { blocked });
            } else {
                // Everyone is Draining or Done and nothing is in flight:
                // release the drainers.
                for &p in &self.draining.members {
                    self.slots[p] = Slot::Quiesce;
                }
            }
            return None;
        };
        let dst = ev.dst;
        match self.procs[dst] {
            ProcState::Blocked => self.blocked.remove(dst),
            ProcState::Draining => self.draining.remove(dst),
            ProcState::Done => {
                self.set_poison(Poison::MessageToFinished { src: ev.src, dst });
                return None;
            }
            // The loop dispatches only once every processor has suspended.
            ProcState::Running => unreachable!("runnable proc while dispatching"),
        }
        let at = ev.deliver_at;
        let mut batch = if let Some(q) = self.spare.pop() {
            self.recycled += 1;
            q
        } else {
            VecDeque::with_capacity(1)
        };
        batch.push_back((ev.deliver_at, ev.src, ev.msg));
        // Batch every consecutive minimum bound for the same slot at the
        // same instant. `src <= dst` keeps the order identical to
        // one-at-a-time delivery: whatever the destination posts once
        // resumed carries a fresh (higher) sequence number from
        // `src == dst` at a time `>= at`, which sorts after everything
        // taken here.
        while let Some(next) = self.queue.peek() {
            if next.dst != dst || next.deliver_at != at || next.src > dst {
                break;
            }
            let Some(n) = self.queue.pop() else {
                unreachable!("peeked event vanished")
            };
            batch.push_back((n.deliver_at, n.src, n.msg));
        }
        self.delivered += batch.len() as u64;
        self.dispatches += 1;
        self.batched += batch.len() as u64 - 1;
        self.slots[dst] = Slot::Msgs(batch);
        self.procs[dst] = ProcState::Running;
        Some(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualTime;
    use std::cell::Cell;

    type Recv = Result<Option<(u64, usize, u32)>, Poison>;

    fn ev(src: usize, dst: usize, at: u64, seq: u64, msg: u32) -> Event<u32> {
        Event {
            deliver_at: VirtualTime::ZERO + at,
            src,
            seq,
            dst,
            msg,
        }
    }

    /// What one test processor does: a list of steps, then `finish`
    /// unless a `recv` returned poison (the cluster body does the same:
    /// an unwound processor never reports itself finished).
    #[derive(Clone, Copy)]
    enum Step {
        Recv,
        Drain,
        Abandon(&'static str),
    }

    /// Runs one coroutine per script on the scheduler's own event loop and
    /// returns what every `block_recv` returned, per processor.
    fn run(sched: &Scheduler<u32>, scripts: &[&[Step]]) -> Vec<Vec<Recv>> {
        let logs: Vec<RefCell<Vec<Recv>>> = scripts.iter().map(|_| RefCell::default()).collect();
        let mut procs: Vec<Coroutine<'_>> = scripts
            .iter()
            .enumerate()
            .map(|(me, script)| {
                let log = &logs[me];
                Coroutine::new(move || {
                    for step in script.iter() {
                        let got = match *step {
                            Step::Recv => sched.block_recv(me, false),
                            Step::Drain => sched.block_recv(me, true),
                            Step::Abandon(why) => return sched.abandon(me, why.to_string()),
                        };
                        let got = got.map(|m| m.map(|(at, src, msg)| (at.cycles(), src, msg)));
                        let poisoned = got.is_err();
                        log.borrow_mut().push(got);
                        if poisoned {
                            return;
                        }
                    }
                    sched.finish(me);
                })
            })
            .collect();
        sched.run(&mut procs);
        drop(procs);
        logs.into_iter().map(RefCell::into_inner).collect()
    }

    /// The report lists only the processors stuck in `recv`, not the
    /// drainers, and *every* suspended processor — blocked and draining
    /// alike — is resumed with the poison.
    #[test]
    fn deadlock_reaches_blocked_and_draining_and_lists_only_blocked() {
        let sched = Scheduler::new(3);
        // Proc 2 finishes at once: with it gone, nothing is in flight.
        let got = run(&sched, &[&[Step::Recv], &[Step::Drain], &[]]);
        let deadlock = Err(Poison::Deadlock { blocked: vec![0] });
        assert_eq!(got, vec![vec![deadlock.clone()], vec![deadlock], vec![]]);
    }

    /// The deadlock report is sorted ascending no matter the order the
    /// processors blocked in (the waiter index swap-removes, so its raw
    /// order is arbitrary).
    #[test]
    fn deadlock_report_is_sorted() {
        let sched = Scheduler::new(4);
        // All three block in id order; the one delivery takes 0 out of the
        // index (swap-remove: [2, 1]) and 0 blocks again behind the others.
        sched.post(ev(3, 0, 10, 0, 1));
        let got = run(
            &sched,
            &[&[Step::Recv, Step::Recv], &[Step::Recv], &[Step::Recv], &[]],
        );
        assert_eq!(
            sched.inner.borrow().blocked.members,
            vec![2, 1, 0],
            "the raw index is unsorted, so the report had to sort"
        );
        let deadlock = Err(Poison::Deadlock {
            blocked: vec![0, 1, 2],
        });
        assert_eq!(got[0], vec![Ok(Some((10, 3, 1))), deadlock.clone()]);
        assert_eq!(got[1], vec![deadlock.clone()]);
        assert_eq!(got[2], vec![deadlock]);
    }

    /// When every processor is draining or done and nothing is in flight,
    /// every drainer is released with `Ok(None)`.
    #[test]
    fn quiesce_releases_all_drainers() {
        let sched = Scheduler::new(3);
        let got = run(&sched, &[&[Step::Drain], &[Step::Drain], &[]]);
        assert_eq!(got, vec![vec![Ok(None)], vec![Ok(None)], vec![]]);
        assert_eq!(sched.poison(), None);
    }

    /// A delivery resumes only its destination: the other blocked
    /// processor stays suspended until its own message is due, and
    /// delivery order follows the `(time, src, seq)` queue order.
    #[test]
    fn delivery_targets_the_destination_slot() {
        let sched: Scheduler<u32> = Scheduler::new(3);
        sched.post(ev(2, 1, 200, 1, 8));
        sched.post(ev(2, 0, 100, 0, 7));
        // Each processor notes the order in which it got control back.
        let order = RefCell::new(Vec::new());
        let mut procs: Vec<Coroutine<'_>> = (0..3)
            .map(|me| {
                let (sched, order) = (&sched, &order);
                Coroutine::new(move || {
                    if me < 2 {
                        let (at, src, msg) = sched.block_recv(me, false).unwrap().unwrap();
                        order.borrow_mut().push((me, at.cycles(), src, msg));
                    }
                    sched.finish(me);
                })
            })
            .collect();
        sched.run(&mut procs);
        assert_eq!(*order.borrow(), vec![(0, 100, 2, 7), (1, 200, 2, 8)]);
        assert_eq!(sched.stats().dispatches, 2, "one resume per delivery");
        assert_eq!(sched.poison(), None);
    }

    /// Same destination, same instant, `src <= dst`: the events are
    /// delivered as one batch and drained across successive `recv`s in
    /// `(time, src, seq)` order, without the destination going back to
    /// the event loop in between.
    #[test]
    fn same_instant_events_drain_as_one_batch() {
        let sched = Scheduler::new(3);
        sched.post(ev(1, 2, 100, 0, 10));
        sched.post(ev(0, 2, 100, 1, 20));
        sched.post(ev(2, 2, 100, 2, 30)); // self-post: src == dst batches too
        let got = run(&sched, &[&[], &[], &[Step::Recv; 3]]);
        // Queue order: (100, src 0) before (100, src 1) before (100, src 2).
        assert_eq!(
            got[2],
            vec![
                Ok(Some((100, 0, 20))),
                Ok(Some((100, 1, 10))),
                Ok(Some((100, 2, 30)))
            ]
        );
        let stats = sched.stats();
        assert_eq!(stats.delivered, 3);
        assert_eq!(stats.dispatches, 1, "one resume for the batch");
        assert_eq!(stats.batched, 2, "two deliveries rode along");
    }

    /// An emptied batch deque is parked on the freelist and reused by the
    /// next dispatch instead of being reallocated.
    #[test]
    fn drained_batch_deques_are_recycled() {
        let sched = Scheduler::new(2);
        sched.post(ev(0, 1, 50, 0, 1));
        sched.post(ev(0, 1, 150, 1, 2));
        let got = run(&sched, &[&[], &[Step::Recv; 2]]);
        assert_eq!(got[1], vec![Ok(Some((50, 0, 1))), Ok(Some((150, 0, 2)))]);
        let stats = sched.stats();
        assert_eq!(stats.dispatches, 2, "distinct instants: two dispatches");
        assert_eq!(
            stats.deques_recycled, 1,
            "second dispatch reuses the first batch's deque"
        );
    }

    /// A processor that finishes with a batched delivery still pending is
    /// a message-to-finished fault, exactly as if the event were still in
    /// the queue.
    #[test]
    fn leftover_batch_at_finish_poisons() {
        let sched = Scheduler::new(2);
        sched.post(ev(0, 1, 50, 0, 1));
        sched.post(ev(0, 1, 50, 1, 2));
        // Consume one of the two batched deliveries, then finish.
        let got = run(&sched, &[&[], &[Step::Recv]]);
        assert_eq!(got[1], vec![Ok(Some((50, 0, 1)))]);
        assert_eq!(
            sched.poison(),
            Some(Poison::MessageToFinished { src: 0, dst: 1 })
        );
    }

    /// Poison set while processors sit suspended reaches every one of
    /// them, blocked or draining, exactly once — and the processors that
    /// had not started yet see it at their first `recv`.
    #[test]
    fn poison_reaches_every_suspended_processor_once() {
        let sched = Scheduler::new(5);
        let got = run(
            &sched,
            &[
                &[Step::Recv, Step::Recv],
                &[Step::Recv],
                &[Step::Drain, Step::Drain],
                &[Step::Abandon("unit-test poison")],
                &[Step::Recv], // starts after 3 has poisoned the run
            ],
        );
        let poison = Err(Poison::Panic {
            proc: 3,
            message: "unit-test poison".to_string(),
        });
        for me in [0, 1, 2, 4] {
            assert_eq!(got[me], vec![poison.clone()], "processor {me}");
        }
    }

    /// The loop keeps no coroutine suspended: whatever ended the run,
    /// every body has returned by the time `run` does, so every stack can
    /// be unmapped.
    #[test]
    fn every_coroutine_has_finished_when_run_returns() {
        let sched: Scheduler<u32> = Scheduler::new(3);
        let live = Cell::new(0);
        let mut procs: Vec<Coroutine<'_>> = (0..3)
            .map(|me| {
                let (sched, live) = (&sched, &live);
                Coroutine::new(move || {
                    live.set(live.get() + 1);
                    let _ = sched.block_recv(me, me == 1);
                    live.set(live.get() - 1);
                })
            })
            .collect();
        sched.run(&mut procs);
        assert!(procs.iter().all(Coroutine::is_done));
        assert_eq!(live.get(), 0);
        assert_eq!(
            sched.poison(),
            Some(Poison::Deadlock {
                blocked: vec![0, 2]
            })
        );
    }

    /// The indexed waiter set stays consistent through arbitrary
    /// insert/remove interleavings (swap-remove bookkeeping).
    #[test]
    fn proc_set_tracks_membership() {
        let mut s = ProcSet::new(8);
        for p in [3, 1, 7, 0, 5] {
            s.insert(p);
        }
        s.remove(1);
        s.remove(5);
        s.insert(2);
        s.remove(3);
        assert_eq!(s.sorted(), vec![0, 2, 7]);
        assert!(!s.is_empty());
        for p in [0, 2, 7] {
            s.remove(p);
        }
        assert!(s.is_empty());
    }
}
