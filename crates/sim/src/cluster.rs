//! Public cluster API: configuration, processor handles, run outcomes.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use crate::clock::{Category, CpuClock, CATEGORY_COUNT};
use crate::coro::Coroutine;
use crate::event::Event;
use crate::fault::{FaultDecision, FaultPlan};
use crate::net::NetModel;
use crate::sched::Scheduler;
use crate::time::VirtualTime;

/// Configuration for a simulated cluster run.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of simulated processors.
    pub procs: usize,
    /// Interconnect cost model.
    pub net: NetModel,
    /// Deterministic network fault schedule (default: perfect network).
    pub faults: FaultPlan,
}

impl ClusterConfig {
    /// A cluster of `procs` processors with the default ATM network model.
    pub fn new(procs: usize) -> ClusterConfig {
        ClusterConfig {
            procs,
            net: NetModel::default(),
            faults: FaultPlan::none(),
        }
    }

    /// Replaces the network model.
    pub fn net(mut self, net: NetModel) -> ClusterConfig {
        self.net = net;
        self
    }

    /// Replaces the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> ClusterConfig {
        self.faults = faults;
        self
    }
}

/// Why a run failed, on the simulator or over sockets. Each variant says
/// which runs raise it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// Simulator only: every processor is blocked in `recv` and no
    /// message is in flight. (Sockets cannot see this; their watchdog
    /// fires instead.)
    Deadlock {
        /// Processors stuck in `recv`.
        blocked: Vec<usize>,
    },
    /// Simulator only: a message was sent to a processor that had already
    /// finished.
    MessageToFinished {
        /// Sender.
        src: usize,
        /// Finished destination.
        dst: usize,
    },
    /// Both: an application closure panicked on some processor.
    ProcPanicked {
        /// The processor whose closure panicked.
        proc: usize,
        /// The panic payload, rendered as a string where possible.
        message: String,
    },
    /// Both: a protocol layer detected an invariant violation and aborted
    /// the run deliberately (see [`ProcHandle::protocol_violation`]).
    ProtocolViolation {
        /// The processor that detected the violation.
        proc: usize,
        /// Description of the violated invariant.
        message: String,
    },
    /// Both: the runtime detected an application-level misuse of the DSM
    /// API — e.g. an out-of-bounds shared write — and aborted deliberately
    /// (see [`ProcHandle::app_violation`]).
    AppViolation {
        /// The processor whose application misused the API.
        proc: usize,
        /// Description of the misuse.
        message: String,
    },
    /// Sockets only: a socket operation failed or an inbound frame failed
    /// to decode.
    Io {
        /// The processor on whose behalf the operation ran.
        proc: usize,
        /// Description of the failure.
        message: String,
    },
    /// Sockets only: the wall-clock watchdog deadline passed before the
    /// run finished.
    Watchdog {
        /// The deadline that expired, in seconds.
        secs: u64,
        /// One state line per processor at the moment of the abort.
        dumps: Vec<String>,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { blocked } => {
                write!(
                    f,
                    "simulation deadlock; processors blocked in recv: {blocked:?}"
                )
            }
            RunError::MessageToFinished { src, dst } => {
                write!(
                    f,
                    "processor {src} sent a message to finished processor {dst}"
                )
            }
            RunError::ProcPanicked { proc, message } => {
                write!(f, "processor {proc} panicked: {message}")
            }
            RunError::ProtocolViolation { proc, message } => {
                write!(f, "protocol violation on processor {proc}: {message}")
            }
            RunError::AppViolation { proc, message } => {
                write!(f, "application violation on processor {proc}: {message}")
            }
            RunError::Io { proc, message } => {
                write!(f, "transport i/o failure on processor {proc}: {message}")
            }
            RunError::Watchdog { secs, dumps } => {
                writeln!(f, "real-transport run hung past the {secs}s watchdog:")?;
                for d in dumps {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Internal panic payload used to unwind out of a poisoned simulation.
struct SimAbort(RunError);

/// Per-processor accounting published at the end of a run.
#[derive(Clone, Debug, Default)]
pub struct ProcReport {
    /// The processor's final virtual time.
    pub final_time: VirtualTime,
    /// Cycle totals per [`Category`], indexed by `Category as usize`.
    pub breakdown: [u64; CATEGORY_COUNT],
}

/// The result of a successful cluster run: of [`Cluster::run`], and of
/// `midway-net`'s real-socket `RealCluster::run`.
#[derive(Debug)]
pub struct RunOutcome<R> {
    /// Per-processor closure return values, indexed by processor id.
    pub results: Vec<R>,
    /// Per-processor accounting, indexed by processor id.
    pub reports: Vec<ProcReport>,
    /// The cluster finish time: the maximum of the final clocks.
    pub finish_time: VirtualTime,
    /// Total messages delivered to processors, self-timers included.
    pub messages_delivered: u64,
}

/// A simulated processor, handed to the per-processor closure.
///
/// All methods take `&mut self`. The handle lives on its processor's own
/// coroutine stack for the whole run and shares the scheduler with its
/// peers through an `Rc`, so it is neither `Send` nor `Sync`: the closure
/// must use it where it was given it, not from a thread of its own.
pub struct ProcHandle<M> {
    id: usize,
    procs: usize,
    net: NetModel,
    faults: FaultPlan,
    sched: Rc<Scheduler<M>>,
    clock: CpuClock,
    seq: u64,
}

impl<M: Clone> ProcHandle<M> {
    /// This processor's id, in `0..procs()`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The number of processors in the cluster.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The interconnect model in effect.
    pub fn net(&self) -> NetModel {
        self.net
    }

    /// The network fault plan in effect.
    pub fn faults(&self) -> FaultPlan {
        self.faults
    }

    /// Current virtual time on this processor.
    pub fn now(&self) -> VirtualTime {
        self.clock.now()
    }

    /// Advances the clock by `cycles`, charged to `cat`.
    pub fn charge(&mut self, cat: Category, cycles: u64) {
        self.clock.charge(cat, cycles);
    }

    /// Charges application compute time.
    pub fn work(&mut self, cycles: u64) {
        self.clock.charge(Category::Compute, cycles);
    }

    /// Sends `msg` (declared wire size `bytes`) to processor `dst`.
    ///
    /// Charges this processor the sender-side software overhead; the message
    /// is delivered at `now + latency + bytes/bandwidth` — unless the
    /// configured [`FaultPlan`] decides otherwise, in which case the message
    /// may be silently dropped, duplicated, or delayed. The fault decision
    /// is a pure function of `(plan seed, src, dst, seq)`, so the same
    /// configuration always yields the same schedule. The sender is charged
    /// identically in every case and learns the message's fate only from
    /// the returned decision, which a caller may tally.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is this processor (protocols must short-circuit local
    /// operations) or out of range.
    pub fn send(&mut self, dst: usize, msg: M, bytes: u64) -> FaultDecision {
        assert!(dst < self.procs, "destination {dst} out of range");
        assert_ne!(
            dst, self.id,
            "self-send: local operations must not use the network"
        );
        self.clock
            .charge(Category::Protocol, self.net.send_overhead_cycles);
        let deliver_at = self.clock.now() + self.net.wire_cycles(bytes);
        let seq = self.seq;
        self.seq += 1;
        let fate = self.faults.decide(self.id, dst, seq);
        match fate {
            FaultDecision::Deliver => self.post_event(deliver_at, seq, dst, msg),
            // The network ate it: the sender already paid, nothing is
            // queued. `seq` stays consumed so later decisions on this link
            // are independent of earlier fates.
            FaultDecision::Drop => {}
            FaultDecision::Duplicate { extra_delay } => {
                self.post_event(deliver_at, seq, dst, msg.clone());
                // The extra copy takes its own seq so the scheduler's
                // `(deliver_at, src, seq)` total order stays strict.
                let dup_seq = self.seq;
                self.seq += 1;
                self.post_event(deliver_at + extra_delay, dup_seq, dst, msg);
            }
            FaultDecision::Reorder { extra_delay } | FaultDecision::Delay { extra_delay } => {
                self.post_event(deliver_at + extra_delay, seq, dst, msg);
            }
        }
        fate
    }

    fn post_event(&mut self, deliver_at: VirtualTime, seq: u64, dst: usize, msg: M) {
        self.sched.post(Event {
            deliver_at,
            src: self.id,
            seq,
            dst,
            msg,
        });
    }

    /// Schedules `msg` for delivery back to this processor after `delay`
    /// cycles of virtual time, with no network charges.
    ///
    /// This is the deterministic timer primitive: a processor that wants to
    /// back off (poll a condition later) posts a tick to itself and blocks
    /// in `recv`, which lets the scheduler deliver other processors'
    /// messages in the meantime. Spinning without blocking would starve
    /// the conservative scheduler, which only delivers once the running
    /// processor has suspended.
    pub fn post_self(&mut self, msg: M, delay: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.sched.post(Event {
            deliver_at: self.clock.now() + delay,
            src: self.id,
            seq,
            dst: self.id,
            msg,
        });
    }

    /// Receives the next message addressed to this processor, advancing the
    /// clock to its delivery time. Returns `(delivery time, src, msg)`.
    ///
    /// Suspends this processor until the message is due. If the run fails
    /// while it waits — every processor stuck in `recv` with nothing in
    /// flight (a protocol bug), a message to a finished processor, a panic
    /// or a violation on any processor — the call does not return: this
    /// processor unwinds, its locals are dropped, and [`Cluster::run`]
    /// returns the matching [`RunError`]. The caller of `Cluster::run`
    /// never sees a panic.
    pub fn recv(&mut self) -> (VirtualTime, usize, M) {
        self.recv_inner(false)
            .expect("recv cannot observe quiescence")
    }

    /// Like [`recv`](Self::recv), but also returns `None` when the whole
    /// cluster has quiesced (all processors draining, nothing in flight).
    ///
    /// Used by the DSM runtime's end-of-run service loop: a processor that
    /// has finished its application work keeps serving protocol messages
    /// until the cluster agrees nothing more can arrive. After `None` the
    /// processor must return without receiving again.
    ///
    /// ```
    /// use midway_sim::{Cluster, ClusterConfig, NetModel};
    ///
    /// // Processor 0 hands out work; everyone serves until nothing is left
    /// // in flight, then the whole cluster is released together.
    /// let cfg = ClusterConfig::new(3).net(NetModel::ideal());
    /// let outcome = Cluster::run(cfg, |p| {
    ///     if p.id() == 0 {
    ///         p.send(1, 10u32, 4);
    ///         p.send(2, 20u32, 4);
    ///     }
    ///     let mut served = 0;
    ///     while let Some((_t, _src, job)) = p.drain_recv() {
    ///         served += job;
    ///     }
    ///     served
    /// })
    /// .unwrap();
    /// assert_eq!(outcome.results, vec![0, 10, 20]);
    /// ```
    pub fn drain_recv(&mut self) -> Option<(VirtualTime, usize, M)> {
        self.recv_inner(true)
    }

    fn recv_inner(&mut self, draining: bool) -> Option<(VirtualTime, usize, M)> {
        match self.sched.block_recv(self.id, draining) {
            Ok(Some((at, src, msg))) => {
                self.clock.advance_to(at);
                if src != self.id {
                    // Self-posted timers carry no protocol cost.
                    self.clock
                        .charge(Category::Protocol, self.net.recv_overhead_cycles);
                }
                Some((at, src, msg))
            }
            Ok(None) => None,
            Err(poison) => std::panic::panic_any(SimAbort(poison)),
        }
    }

    /// Aborts the simulation with a typed protocol error.
    ///
    /// For protocol layers that detect an invariant violation (a misrouted
    /// message, a malformed exchange): instead of panicking — which would
    /// surface as an opaque [`RunError::ProcPanicked`] — this poisons the
    /// cluster with [`RunError::ProtocolViolation`] carrying this
    /// processor's id and `message` and unwinds this processor; every other
    /// processor then unwinds out of its `recv` in turn, and
    /// [`Cluster::run`] returns the error. It never returns.
    pub fn protocol_violation(&mut self, message: String) -> ! {
        std::panic::panic_any(SimAbort(RunError::ProtocolViolation {
            proc: self.id,
            message,
        }))
    }

    /// Aborts the simulation with a typed application-misuse error.
    ///
    /// Like [`ProcHandle::protocol_violation`], but for runtime layers
    /// that catch the *application* breaking the API contract (an
    /// out-of-bounds shared write, say): the cluster is poisoned with
    /// [`RunError::AppViolation`] carrying this processor's id and
    /// `message` instead of an opaque panic. It never returns.
    pub fn app_violation(&mut self, message: String) -> ! {
        std::panic::panic_any(SimAbort(RunError::AppViolation {
            proc: self.id,
            message,
        }))
    }

    fn report(&self) -> ProcReport {
        ProcReport {
            final_time: self.clock.now(),
            breakdown: self.clock.breakdown(),
        }
    }
}

/// Entry point: runs one closure per simulated processor to completion.
pub struct Cluster;

impl Cluster {
    /// Runs `f` on every processor of a simulated cluster and collects the
    /// results.
    ///
    /// `f` is invoked once per processor with that processor's handle. The
    /// call returns when every closure has returned (and, for processors
    /// that use [`ProcHandle::drain_recv`], the cluster has quiesced).
    ///
    /// Everything runs on the calling thread: each processor is a
    /// coroutine with a stack of its own (2 MiB, as a spawned thread would
    /// have), and this call is the event loop that resumes them one at a
    /// time, so neither the closure nor anything it captures or returns
    /// has to be `Send` or `Sync`. Independent runs may be in flight on
    /// different threads at once, and a closure may itself call
    /// `Cluster::run`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the simulation deadlocks, a message is sent
    /// to a finished processor, or any closure panics. In every case each
    /// processor has unwound and dropped its locals before this returns.
    pub fn run<M, R, F>(cfg: ClusterConfig, f: F) -> Result<RunOutcome<R>, RunError>
    where
        M: Clone,
        F: Fn(&mut ProcHandle<M>) -> R,
    {
        assert!(cfg.procs > 0, "cluster needs at least one processor");
        let sched: Rc<Scheduler<M>> = Rc::new(Scheduler::new(cfg.procs));
        let finished: Vec<Cell<Option<(R, ProcReport)>>> =
            (0..cfg.procs).map(|_| Cell::new(None)).collect();

        let mut procs: Vec<Coroutine<'_>> = (0..cfg.procs)
            .map(|id| {
                let (sched, f, finished) = (&sched, &f, &finished[id]);
                Coroutine::new(move || {
                    let mut handle = ProcHandle {
                        id,
                        procs: cfg.procs,
                        net: cfg.net,
                        faults: cfg.faults,
                        sched: Rc::clone(sched),
                        clock: CpuClock::new(),
                        seq: 0,
                    };
                    // Caught here, on the processor's own stack, so its
                    // frames unwind and its locals drop before the event
                    // loop gets control back.
                    match catch_unwind(AssertUnwindSafe(|| f(&mut handle))) {
                        Ok(val) => {
                            finished.set(Some((val, handle.report())));
                            sched.finish(id);
                        }
                        Err(payload) => match payload.downcast::<SimAbort>() {
                            // Usually the poison this processor was just
                            // handed; new only for a violation it raised.
                            Ok(abort) => sched.set_poison(abort.0),
                            Err(payload) => sched.abandon(id, panic_message(&*payload)),
                        },
                    }
                })
            })
            .collect();
        sched.run(&mut procs);
        drop(procs);

        if let Some(poison) = sched.poison() {
            return Err(poison);
        }
        let (results, reports): (Vec<R>, Vec<ProcReport>) = finished
            .into_iter()
            .map(|slot| slot.into_inner().expect("every processor finished"))
            .unzip();
        let finish_time = reports
            .iter()
            .map(|r| r.final_time)
            .max()
            .unwrap_or(VirtualTime::ZERO);
        Ok(RunOutcome {
            results,
            reports,
            finish_time,
            messages_delivered: sched.delivered(),
        })
    }
}

/// A caught panic's payload as text, where it is a string.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Msg = u64;

    #[test]
    fn single_proc_runs_locally() {
        let out = Cluster::run(ClusterConfig::new(1), |p: &mut ProcHandle<Msg>| {
            p.work(1000);
            p.now().cycles()
        })
        .unwrap();
        assert_eq!(out.results, vec![1000]);
        assert_eq!(out.messages_delivered, 0);
        assert_eq!(out.finish_time.cycles(), 1000);
    }

    #[test]
    fn message_delivery_advances_receiver_clock() {
        let cfg = ClusterConfig::new(2).net(NetModel {
            latency_cycles: 100,
            per_byte_millicycles: 1000,
            send_overhead_cycles: 10,
            recv_overhead_cycles: 20,
        });
        let out = Cluster::run(cfg, |p: &mut ProcHandle<Msg>| {
            if p.id() == 0 {
                p.work(50);
                p.send(1, 7, 8);
                0
            } else {
                let (at, src, msg) = p.recv();
                assert_eq!(src, 0);
                assert_eq!(msg, 7);
                // Sent at 50 + 10 overhead = 60; +100 latency +8 bytes = 168.
                assert_eq!(at.cycles(), 168);
                p.now().cycles()
            }
        })
        .unwrap();
        // Receiver: 168 delivery + 20 recv overhead.
        assert_eq!(out.results[1], 188);
    }

    #[test]
    fn deadlock_is_detected() {
        let err = Cluster::run(ClusterConfig::new(2), |p: &mut ProcHandle<Msg>| {
            // Both wait forever.
            p.recv();
        })
        .unwrap_err();
        match err {
            RunError::Deadlock { blocked } => assert_eq!(blocked, vec![0, 1]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn drain_recv_quiesces_when_everyone_drains() {
        let out = Cluster::run(ClusterConfig::new(3), |p: &mut ProcHandle<Msg>| {
            if p.id() == 0 {
                p.send(1, 1, 4);
                p.send(2, 2, 4);
            }
            let mut seen = 0;
            while let Some((_, _, m)) = p.drain_recv() {
                seen += m;
            }
            seen
        })
        .unwrap();
        assert_eq!(out.results, vec![0, 1, 2]);
    }

    #[test]
    fn app_panic_is_reported() {
        let err = Cluster::run(ClusterConfig::new(2), |p: &mut ProcHandle<Msg>| {
            if p.id() == 1 {
                panic!("boom");
            }
            p.recv();
        })
        .unwrap_err();
        match err {
            RunError::ProcPanicked { proc, message } => {
                assert_eq!(proc, 1);
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn delivery_order_is_deterministic_across_runs() {
        // Three senders fire at identical virtual times; the receiver's
        // observed order must be identical run after run.
        let run = || {
            let out = Cluster::run(
                ClusterConfig::new(4).net(NetModel::ideal()),
                |p: &mut ProcHandle<Msg>| {
                    if p.id() == 0 {
                        let mut order = Vec::new();
                        for _ in 0..3 {
                            let (_, src, _) = p.recv();
                            order.push(src);
                        }
                        order
                    } else {
                        p.send(0, p.id() as u64, 4);
                        Vec::new()
                    }
                },
            )
            .unwrap();
            out.results[0].clone()
        };
        let first = run();
        for _ in 0..10 {
            assert_eq!(run(), first);
        }
        // Ties broken by source id.
        assert_eq!(first, vec![1, 2, 3]);
    }

    #[test]
    fn finish_time_is_max_over_procs() {
        let out = Cluster::run(ClusterConfig::new(3), |p: &mut ProcHandle<Msg>| {
            p.work(100 * (p.id() as u64 + 1));
        })
        .unwrap();
        assert_eq!(out.finish_time.cycles(), 300);
    }

    #[test]
    fn self_send_is_rejected() {
        let err = Cluster::run(ClusterConfig::new(1), |p: &mut ProcHandle<Msg>| {
            p.send(0, 1, 4);
        })
        .unwrap_err();
        match err {
            RunError::ProcPanicked { proc: 0, message } => {
                assert!(message.contains("self-send"), "message: {message}");
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn protocol_violation_surfaces_typed_error() {
        let err = Cluster::run(ClusterConfig::new(3), |p: &mut ProcHandle<Msg>| {
            match p.id() {
                0 => p.protocol_violation("acquire for lock 9 routed to non-home".into()),
                1 => {
                    // Blocked in recv when the violation fires: must be
                    // woken, not deadlocked.
                    p.recv();
                }
                _ => {
                    // Draining when the violation fires.
                    while p.drain_recv().is_some() {}
                }
            }
        })
        .unwrap_err();
        match err {
            RunError::ProtocolViolation { proc, message } => {
                assert_eq!(proc, 0);
                assert!(message.contains("lock 9"), "message: {message}");
            }
            other => panic!("expected protocol violation, got {other:?}"),
        }
    }

    #[test]
    fn panic_with_others_blocked_and_draining_does_not_deadlock() {
        // Satellite coverage for the poison path: the panicking processor's
        // id and message must come through while peers sit in recv /
        // drain_recv, and the run must terminate (no hang).
        let err = Cluster::run(ClusterConfig::new(4), |p: &mut ProcHandle<Msg>| {
            match p.id() {
                2 => {
                    p.work(10);
                    panic!("detector state corrupt on proc {}", p.id());
                }
                0 => {
                    p.recv();
                }
                _ => while p.drain_recv().is_some() {},
            }
        })
        .unwrap_err();
        match err {
            RunError::ProcPanicked { proc, message } => {
                assert_eq!(proc, 2);
                assert!(
                    message.contains("detector state corrupt on proc 2"),
                    "message: {message}"
                );
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn first_poison_wins_when_multiple_procs_panic() {
        // Whichever panic poisons first is reported; the second panic must
        // not hang or overwrite it with nonsense. We only assert the shape.
        let err = Cluster::run(ClusterConfig::new(2), |p: &mut ProcHandle<Msg>| {
            panic!("boom {}", p.id());
        })
        .unwrap_err();
        match err {
            RunError::ProcPanicked { proc, message } => {
                assert!(proc < 2);
                assert!(
                    message.contains(&format!("boom {proc}")),
                    "id/message mismatch"
                );
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn faults_disabled_is_bit_for_bit_identical() {
        let run = |faults: crate::fault::FaultPlan| {
            let cfg = ClusterConfig::new(2).faults(faults);
            Cluster::run(cfg, |p: &mut ProcHandle<Msg>| {
                if p.id() == 0 {
                    for i in 0..10 {
                        p.send(1, i, 8);
                        let (_, _, echo) = p.recv();
                        assert_eq!(echo, i);
                    }
                    p.now().cycles()
                } else {
                    for _ in 0..10 {
                        let (_, src, m) = p.recv();
                        p.send(src, m, 8);
                    }
                    p.now().cycles()
                }
            })
            .unwrap()
        };
        let base = run(crate::fault::FaultPlan::none());
        // Enabled plan with zero rates must not perturb anything either.
        let zero = run(crate::fault::FaultPlan::seeded(123));
        assert_eq!(base.results, zero.results);
        assert_eq!(base.messages_delivered, zero.messages_delivered);
        assert_eq!(base.finish_time, zero.finish_time);
    }

    /// Processor 0 sends `n` messages to processor 1 under `faults`.
    /// Returns the fate `send` returned for each, and the messages
    /// processor 1 drained, in order.
    fn fates(faults: FaultPlan, n: u64) -> (Vec<FaultDecision>, Vec<Msg>) {
        let cfg = ClusterConfig::new(2).faults(faults);
        let mut out = Cluster::run(cfg, |p: &mut ProcHandle<Msg>| {
            let fates: Vec<FaultDecision> = match p.id() {
                0 => (0..n).map(|i| p.send(1, i, 8)).collect(),
                _ => Vec::new(),
            };
            let mut got = Vec::new();
            while let Some((_, _, m)) = p.drain_recv() {
                got.push(m);
            }
            (fates, got)
        })
        .unwrap();
        let got = std::mem::take(&mut out.results[1].1);
        (std::mem::take(&mut out.results[0].0), got)
    }

    /// How many of `fates` `kind` picks out.
    fn tally(fates: &[FaultDecision], kind: fn(&FaultDecision) -> bool) -> u64 {
        fates.iter().filter(|f| kind(f)).count() as u64
    }

    #[test]
    fn fault_schedule_is_deterministic_across_runs() {
        let run = || fates(FaultPlan::chaos(11, 150_000), 200);
        let first = run();
        let injected = tally(&first.0, |f| *f != FaultDecision::Deliver);
        assert!(injected > 0, "chaos plan should inject something");
        for _ in 0..5 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn drops_and_duplicates_change_delivery_counts() {
        let (fs, clean) = fates(FaultPlan::seeded(3), 500);
        assert_eq!(tally(&fs, |f| *f == FaultDecision::Deliver), 500);
        assert_eq!(clean.len(), 500);
        let (fs, lossy) = fates(FaultPlan::lossy(3, 200_000), 500);
        let dropped = tally(&fs, |f| *f == FaultDecision::Drop);
        assert_eq!(lossy.len() as u64, 500 - dropped);
        assert!(dropped > 0);
        let (fs, dupped) = fates(FaultPlan::seeded(3).dup_ppm(200_000), 500);
        let duplicated = tally(&fs, |f| matches!(f, FaultDecision::Duplicate { .. }));
        assert_eq!(dupped.len() as u64, 500 + duplicated);
        assert!(duplicated > 0);
    }

    #[test]
    fn delayed_messages_arrive_late_but_arrive() {
        let (fs, mut got) = fates(FaultPlan::seeded(17).delay_ppm(300_000), 100);
        got.sort_unstable();
        assert_eq!(
            got,
            (0..100).collect::<Vec<_>>(),
            "delay must never lose a message"
        );
        assert!(tally(&fs, |f| matches!(f, FaultDecision::Delay { .. })) > 0);
    }

    /// Folds one delivery into an FNV-1a-64 hash of a delivery order.
    fn fold(hash: &mut u64, (t, src, msg): (VirtualTime, usize, Msg)) {
        for b in [t.cycles(), src as u64, msg]
            .iter()
            .flat_map(|w| w.to_le_bytes())
        {
            *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A fixed 8-processor program touching every scheduler path: fan-in
    /// rounds to the highest id with same-instant arrivals, short self
    /// timers and ones millions of cycles out, and a drained tail. Each
    /// processor returns its final clock plus the messages it drained, and
    /// a hash of every `(t, src, msg)` it received, in order.
    fn fixed_eight_proc_run() -> RunOutcome<(u64, u64)> {
        Cluster::run(ClusterConfig::new(8), |p: &mut ProcHandle<Msg>| {
            let mut order = 0xcbf2_9ce4_8422_2325;
            for round in 0..40u64 {
                if p.id() == 7 {
                    for _ in 0..7 {
                        fold(&mut order, p.recv());
                    }
                    for dst in 0..7 {
                        p.send(dst, round, 8);
                    }
                } else {
                    // Odd and even processors pair up on arrival times.
                    p.work(100 * (p.id() as u64 / 2));
                    p.send(7, round, 8);
                    let delay = if round % 8 == 0 { 3_000_000 } else { 50 };
                    p.post_self(round, delay);
                    fold(&mut order, p.recv());
                    fold(&mut order, p.recv());
                }
            }
            if p.id() == 0 {
                for dst in 1..8 {
                    p.send(dst, 99, 64);
                }
            }
            let mut drained = 0;
            while let Some(m) = p.drain_recv() {
                fold(&mut order, m);
                drained += 1;
            }
            (p.now().cycles() + drained, order)
        })
        .unwrap()
    }

    /// The program's finish time, results and delivery count, and the
    /// order every processor received its messages in, are pinned to the
    /// values captured at the parent commit: a scheduler change that
    /// reorders any delivery fails here.
    #[test]
    fn delivery_order_matches_the_parent_commit() {
        let out = fixed_eight_proc_run();
        assert_eq!(out.messages_delivered, 847);
        assert_eq!(out.finish_time.cycles(), 18_630_612);
        let (results, orders): (Vec<u64>, Vec<u64>) = out.results.into_iter().unzip();
        assert_eq!(
            results,
            vec![
                18_622_520, 18_585_613, 18_593_113, 18_600_613, 18_608_113, 18_615_613, 18_623_113,
                18_630_613
            ]
        );
        assert_eq!(
            orders,
            vec![
                0x1aa9_85f3_1322_2061,
                0x902e_462d_bc94_8bac,
                0x5d7e_af20_1b93_7e1c,
                0xaa26_369a_d73f_fa63,
                0xf704_74ef_4f06_991d,
                0x8c1c_9e95_89ec_8383,
                0x9fa4_624d_2876_845d,
                0x4b71_cdbb_c4bc_0fc1
            ]
        );
    }

    #[test]
    fn panic_unwinds_every_processor_and_drops_its_locals() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Guard<'a>(&'a AtomicUsize);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (started, dropped) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let err = Cluster::run(ClusterConfig::new(5), |p: &mut ProcHandle<Msg>| {
            started.fetch_add(1, Ordering::Relaxed);
            let _local = Guard(&dropped);
            match p.id() {
                // Suspended in recv, and in drain_recv, when 2 panics...
                0 => drop(p.recv()),
                1 => while p.drain_recv().is_some() {},
                2 => panic!("boom on 2"),
                // ...not yet started: these still run up to their first recv.
                3 => drop(p.recv()),
                _ => while p.drain_recv().is_some() {},
            }
        })
        .unwrap_err();
        assert_eq!(
            err,
            RunError::ProcPanicked {
                proc: 2,
                message: "boom on 2".to_string()
            }
        );
        assert_eq!(started.load(Ordering::Relaxed), 5);
        assert_eq!(dropped.load(Ordering::Relaxed), 5, "every stack unwound");
    }

    #[test]
    fn five_hundred_twelve_processors_ping_the_root() {
        let out = Cluster::run(ClusterConfig::new(512), |p: &mut ProcHandle<Msg>| {
            if p.id() == 0 {
                (1..p.procs()).map(|_| p.recv().2).sum()
            } else {
                p.send(0, p.id() as u64, 8);
                0
            }
        })
        .unwrap();
        assert_eq!(out.results[0], 511 * 512 / 2);
        assert_eq!(out.messages_delivered, 511);
    }

    #[test]
    fn a_body_may_use_a_megabyte_and_a_half_of_stack() {
        // Recurses until the frames span 1.5 MiB, however large this
        // build makes each one, suspending at the bottom so the switch
        // happens with the stack that deep.
        fn dive(p: &mut ProcHandle<Msg>, top: usize, depth: u64) -> u64 {
            let pad = std::hint::black_box([depth as u8; 256]);
            if top - (pad.as_ptr() as usize) < 3 << 19 {
                dive(p, top, depth + 1) + u64::from(pad[17])
            } else {
                p.post_self(depth, 10);
                p.recv().2
            }
        }
        let out = Cluster::run(ClusterConfig::new(2), |p: &mut ProcHandle<Msg>| {
            let top = 0u8;
            dive(p, std::ptr::addr_of!(top) as usize, 0)
        })
        .unwrap();
        assert!(out.results[0] > 0);
        assert_eq!(out.results[0], out.results[1]);
    }

    /// A token ring with per-processor work: enough traffic that a run
    /// sharing state with another would show it.
    fn ring(procs: usize, laps: u64, mid_run: &(dyn Fn() + Sync)) -> (Vec<u64>, u64, u64) {
        let out = Cluster::run(ClusterConfig::new(procs), |p: &mut ProcHandle<Msg>| {
            let next = (p.id() + 1) % p.procs();
            let mut seen = 0;
            for lap in 0..laps {
                if p.id() == 0 {
                    p.send(next, lap, 8);
                    seen += p.recv().2;
                    if lap == laps / 2 {
                        mid_run();
                    }
                } else {
                    let (_, _, token) = p.recv();
                    p.work(17 * p.id() as u64);
                    seen += token;
                    p.send(next, token + 1, 8);
                }
            }
            seen ^ p.now().cycles()
        })
        .unwrap();
        (
            out.results,
            out.finish_time.cycles(),
            out.messages_delivered,
        )
    }

    #[test]
    fn runs_in_flight_on_two_threads_match_running_them_in_turn() {
        let alone = [ring(5, 200, &|| ()), ring(3, 300, &|| ())];
        // Each run stops halfway until the other has got there too, so
        // both are mid-flight, on different threads, at the same time.
        let halfway = std::sync::Barrier::new(2);
        let meet = || {
            halfway.wait();
        };
        let together = std::thread::scope(|s| {
            let a = s.spawn(|| ring(5, 200, &meet));
            let b = s.spawn(|| ring(3, 300, &meet));
            [a.join().unwrap(), b.join().unwrap()]
        });
        assert_eq!(alone, together);
    }

    #[test]
    fn a_processor_body_may_run_a_cluster_of_its_own() {
        let flat = ring(3, 20, &|| ());
        let out = Cluster::run(ClusterConfig::new(2), |p: &mut ProcHandle<Msg>| {
            if p.id() == 0 {
                p.send(1, 1, 8);
            } else {
                p.recv();
            }
            // The inner loop runs on this processor's stack, while the
            // peer sits suspended in the outer run.
            let inner = ring(3, 20, &|| ());
            p.send(1 - p.id(), 2, 8);
            p.recv();
            inner
        })
        .unwrap();
        assert_eq!(out.results, vec![flat.clone(), flat]);
        assert_eq!(out.messages_delivered, 3);
    }
}
