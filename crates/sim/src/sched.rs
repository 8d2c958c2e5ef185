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
//! The pending events sit in one binary heap, and each turn of the loop
//! pops exactly one of them into its destination's one-message slot and
//! resumes that processor: the heap's `pop` is the only choice a run
//! makes. Nothing is indexed beside the heap. A delivery reads its
//! destination's state directly; only the terminal empty-heap arm, reached
//! once per run, scans every processor — in id order, so the deadlock
//! report comes out sorted.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::cluster::RunError;
use crate::coro::{self, Coroutine};
use crate::event::Event;
use crate::time::VirtualTime;

/// One delivered message: `(delivery time, src, msg)`.
type Delivery<M> = (VirtualTime, usize, M);

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

struct SchedInner<M> {
    procs: Vec<ProcState>,
    queue: BinaryHeap<Reverse<Event<M>>>,
    /// The delivery each processor was resumed to take, until it takes it.
    slots: Vec<Option<Delivery<M>>>,
    poison: Option<RunError>,
    delivered: u64,
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
    pub(crate) fn new(procs: usize) -> Scheduler<M> {
        Scheduler {
            inner: RefCell::new(SchedInner {
                procs: vec![ProcState::Running; procs],
                queue: BinaryHeap::new(),
                slots: (0..procs).map(|_| None).collect(),
                poison: None,
                delivered: 0,
            }),
        }
    }

    /// The event loop. `procs[i]` is processor `i`'s coroutine, not yet
    /// started; returns once every one of them has finished.
    ///
    /// Processors are started in id order and each runs to its first
    /// suspension before the next starts. No event is delivered until all
    /// have, so the start order cannot reach the results. From then on:
    /// deliver the next event, resume its destination, repeat — until the
    /// cluster quiesces or is poisoned. Either way every processor that is
    /// still suspended is then resumed exactly once, in id order. After
    /// quiescence those are the drainers, each finding its slot empty.
    /// After poison its `block_recv` returns the poison, the caller
    /// unwinds its own stack and its locals drop. (A processor never
    /// suspends once the poison is set — `block_recv` checks first — and
    /// must not receive again after quiescence, so one resume each
    /// finishes everyone.)
    pub(crate) fn run(&self, procs: &mut [Coroutine<'_>]) {
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
    pub(crate) fn poison(&self) -> Option<RunError> {
        self.inner.borrow().poison.clone()
    }

    /// Messages delivered so far.
    pub(crate) fn delivered(&self) -> u64 {
        self.inner.borrow().delivered
    }

    /// Queues an in-flight message. Called only by the running processor,
    /// so no dispatch can be due yet.
    pub(crate) fn post(&self, ev: Event<M>) {
        self.inner.borrow_mut().queue.push(Reverse(ev));
    }

    /// Suspends processor `me` until a message arrives (or, when
    /// `draining`, until the cluster quiesces). Returns `Ok(None)` only on
    /// quiescence. Must be called from `me`'s own coroutine.
    pub(crate) fn block_recv(
        &self,
        me: usize,
        draining: bool,
    ) -> Result<Option<Delivery<M>>, RunError> {
        {
            let mut inner = self.inner.borrow_mut();
            debug_assert_eq!(inner.procs[me], ProcState::Running);
            if let Some(p) = &inner.poison {
                return Err(p.clone());
            }
            inner.procs[me] = if draining {
                ProcState::Draining
            } else {
                ProcState::Blocked
            };
        }
        // The loop resumes this coroutine with the poison, with a
        // delivery, or — a drainer only — with neither, on quiescence.
        coro::suspend();
        let mut inner = self.inner.borrow_mut();
        if let Some(p) = &inner.poison {
            return Err(p.clone());
        }
        let m = inner.slots[me].take();
        debug_assert!(
            m.is_some() || draining,
            "resumed with neither delivery, quiesce nor poison"
        );
        Ok(m)
    }

    /// Marks `me` finished. Valid from `Running` (closure returned without
    /// draining) or `Draining` (released by quiescence).
    pub(crate) fn finish(&self, me: usize) {
        let mut inner = self.inner.borrow_mut();
        let state = &mut inner.procs[me];
        assert!(
            matches!(state, ProcState::Running | ProcState::Draining),
            "finish() from invalid state {state:?}"
        );
        *state = ProcState::Done;
    }

    /// Records a fatal condition; the first one wins. The event loop
    /// notices once the calling processor hands control back.
    pub(crate) fn set_poison(&self, p: RunError) {
        self.inner.borrow_mut().set_poison(p);
    }

    /// Marks `me` dead after a panic and poisons the cluster.
    pub(crate) fn abandon(&self, me: usize, message: String) {
        let mut inner = self.inner.borrow_mut();
        inner.procs[me] = ProcState::Done;
        inner.set_poison(RunError::ProcPanicked { proc: me, message });
    }
}

impl<M> SchedInner<M> {
    fn set_poison(&mut self, p: RunError) {
        if self.poison.is_none() {
            self.poison = Some(p);
        }
    }

    /// Delivers the minimal pending event into its destination's slot and
    /// returns the destination to resume; or ends the run — poison,
    /// deadlock or quiescence — with `None`, bar resuming whoever is still
    /// suspended. Called by the loop only, so no processor is runnable.
    fn dispatch(&mut self) -> Option<usize> {
        if self.poison.is_some() {
            return None;
        }
        let Some(Reverse(ev)) = self.queue.pop() else {
            // Nothing in flight. Stuck if anyone waits in `recv`;
            // otherwise everyone is draining or done, and the loop's
            // final resumes release the drainers.
            let blocked: Vec<usize> = (0..self.procs.len())
                .filter(|&p| self.procs[p] == ProcState::Blocked)
                .collect();
            if !blocked.is_empty() {
                self.set_poison(RunError::Deadlock { blocked });
            }
            return None;
        };
        let dst = ev.dst;
        match self.procs[dst] {
            ProcState::Blocked | ProcState::Draining => {}
            ProcState::Done => {
                self.set_poison(RunError::MessageToFinished { src: ev.src, dst });
                return None;
            }
            // The loop dispatches only once every processor has suspended.
            ProcState::Running => unreachable!("runnable proc while dispatching"),
        }
        self.delivered += 1;
        self.slots[dst] = Some((ev.deliver_at, ev.src, ev.msg));
        self.procs[dst] = ProcState::Running;
        Some(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VirtualTime;
    use std::cell::Cell;

    type Recv = Result<Option<(u64, usize, u32)>, RunError>;

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
        let deadlock = Err(RunError::Deadlock { blocked: vec![0] });
        assert_eq!(got, vec![vec![deadlock.clone()], vec![deadlock], vec![]]);
    }

    /// The deadlock report is sorted ascending no matter the order the
    /// processors blocked in.
    #[test]
    fn deadlock_report_is_sorted() {
        let sched = Scheduler::new(4);
        // All three block in id order; the one delivery resumes 0, which
        // blocks again behind the others.
        sched.post(ev(3, 0, 10, 0, 1));
        let got = run(
            &sched,
            &[&[Step::Recv, Step::Recv], &[Step::Recv], &[Step::Recv], &[]],
        );
        let deadlock = Err(RunError::Deadlock {
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
        assert_eq!(sched.delivered(), 2);
        assert_eq!(sched.poison(), None);
    }

    /// Same destination, same instant: the events reach it across
    /// successive `recv`s in `(time, src, seq)` order, a self-post
    /// included.
    #[test]
    fn same_instant_events_drain_as_one_batch() {
        let sched = Scheduler::new(3);
        sched.post(ev(1, 2, 100, 0, 10));
        sched.post(ev(0, 2, 100, 1, 20));
        sched.post(ev(2, 2, 100, 2, 30));
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
    }

    /// A processor that finishes while a second event for it is still
    /// pending: that event reaches a finished processor and poisons the
    /// run as a message-to-finished fault.
    #[test]
    fn pending_event_for_a_finished_processor_poisons() {
        let sched = Scheduler::new(2);
        sched.post(ev(0, 1, 50, 0, 1));
        sched.post(ev(0, 1, 50, 1, 2));
        // Consume the first of the two deliveries, then finish.
        let got = run(&sched, &[&[], &[Step::Recv]]);
        assert_eq!(got[1], vec![Ok(Some((50, 0, 1)))]);
        assert_eq!(
            sched.poison(),
            Some(RunError::MessageToFinished { src: 0, dst: 1 })
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
        let poison = Err(RunError::ProcPanicked {
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
            Some(RunError::Deadlock {
                blocked: vec![0, 2]
            })
        );
    }
}
