//! Impl #2: a real transport over loopback sockets, on the simulator's
//! coroutines.
//!
//! Where the simulator delivers messages from an event queue under a
//! virtual clock, this transport moves them as length-prefixed frames over
//! loopback TCP streams, one per direction of each pair. The wall clock
//! (25 cycles per microsecond) stands in for the virtual clock. It takes
//! the simulator's fault plan and applies its rates where the simulator
//! does, at the send site: a dropped message is never written, a
//! duplicated one is written twice, so the DSM's go-back-N reliable
//! channel has real loss to recover from. Nothing else differs.
//!
//! The execution model is the simulator's: every processor is a
//! [`Coroutine`] and [`RealCluster::run`] is one loop, on the calling
//! thread, that owns every socket — all of them non-blocking — and resumes
//! whichever processors can make progress. Nothing is shared between
//! threads, so nothing is locked. `recv` suspends when its inbox and the
//! kernel are both empty; `send` never suspends (see `Hub::write_all`);
//! when no processor can run the loop sleeps to the earliest self-timer
//! or the watchdog deadline.
//!
//! # Quiescence
//!
//! `drain_recv` must return `None` exactly when nothing can ever arrive
//! again. The loop decides that between rounds, when no processor is
//! running and none is runnable, so it is a comparison of values only its
//! own thread changes: every processor is draining or finished, no
//! self-timer is pending, every inbox is empty and a pump has just
//! brought `frames_received` up to `frames_sent`. Every message originates
//! from a running processor, a timer or a frame in flight, and there are
//! none, so the state is permanent. A dropped message is never written,
//! so it is never counted as sent, and the rule holds under loss too.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

use midway_sim::{
    panic_message, suspend, Category, ClusterConfig, Coroutine, FaultDecision, FaultPlan,
    ProcReport, RunError, RunOutcome, VirtualTime,
};

use crate::transport::Transport;
use crate::wire::{decode_exact, Wire};

/// Largest frame a TCP stream may announce (a corrupt length prefix must
/// not be believed).
const MAX_TCP_FRAME: usize = 1 << 28;

/// How long the loop sleeps between pumps while a frame is in flight:
/// written but not yet readable.
const IN_FLIGHT_POLL: Duration = Duration::from_micros(50);

/// Cap on any one idle sleep, so a run that is waiting on nothing but a
/// far-off deadline still looks at its sockets now and then.
const IDLE_NAP: Duration = Duration::from_millis(25);

/// Bytes asked of a socket per read.
const READ_CHUNK: usize = 65_536;

/// Wall-clock to cycle conversion: the R3000's 25 MHz, 25 cycles per
/// microsecond, so cycle-denominated protocol constants (timeouts,
/// backoffs) keep the real durations they had on the paper's machine.
const CYCLES_PER_MICRO: u64 = 25;

/// Configuration for a real-transport run: what a socket run adds to the
/// simulator's [`ClusterConfig`].
#[derive(Clone, Debug)]
pub struct RealConfig {
    /// Wall-clock deadline after which a hung run is aborted with
    /// per-processor state dumps. `None` disables the watchdog.
    pub watchdog: Option<Duration>,
}

impl RealConfig {
    /// Loopback TCP with a 120 s watchdog.
    pub fn tcp() -> RealConfig {
        RealConfig {
            watchdog: Some(Duration::from_secs(120)),
        }
    }

    /// Replaces (or disables) the watchdog deadline.
    pub fn watchdog(mut self, deadline: Option<Duration>) -> RealConfig {
        self.watchdog = deadline;
        self
    }
}

impl Default for RealConfig {
    fn default() -> RealConfig {
        RealConfig::tcp()
    }
}

/// Panic payload that unwinds a processor out of a poisoned run. The
/// poison itself is already recorded when this is thrown.
struct RealAbort;

/// What a processor is doing: decides whether the loop may resume it, and
/// labels it in watchdog dumps.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Not started yet.
    App,
    /// In `recv`.
    Recv,
    /// In `drain_recv`.
    Drain,
    /// Its closure has returned or unwound.
    Finished,
}

/// One processor's share of the run state.
struct Slot<M> {
    status: Status,
    /// Decoded network messages not yet handed to the closure.
    inbox: VecDeque<(usize, M)>,
    /// Self-posted timers by `(deadline in run nanoseconds, post order)`.
    timers: BTreeMap<(u64, u64), M>,
    /// Reliable-channel incarnation epoch (0 = never crashed) and sequence
    /// number of the last stable checkpoint (0 = none yet), as published
    /// through `Transport::note_recovery_status`; dumps only.
    epoch: u32,
    last_ckpt: u64,
}

impl<M> Slot<M> {
    fn new() -> Slot<M> {
        Slot {
            status: Status::App,
            inbox: VecDeque::new(),
            timers: BTreeMap::new(),
            epoch: 0,
            last_ckpt: 0,
        }
    }

    /// When the earliest self-timer is due.
    fn next_timer(&self) -> Option<u64> {
        self.timers.keys().next().map(|&(at, _)| at)
    }
}

/// One human-readable line per processor, for watchdog abort reports.
/// Includes the processor's last published crash-tolerance status —
/// incarnation epoch and last stable checkpoint ("none" before the first)
/// — so a hang after a recovery is attributable from the dump alone.
fn dump<M>(slots: &[Slot<M>]) -> Vec<String> {
    let line = |(p, s): (usize, &Slot<M>)| {
        let status = match s.status {
            Status::App => "app",
            Status::Recv => "recv",
            Status::Drain => "drain",
            Status::Finished => "finished",
        };
        let ckpt = match s.last_ckpt {
            0 => "none".to_string(),
            seq => format!("#{seq}"),
        };
        format!(
            "proc {p}: status={status} inbox={} pending_self={} epoch={} ckpt={ckpt}",
            s.inbox.len(),
            s.timers.len(),
            s.epoch,
        )
    };
    slots.iter().enumerate().map(line).collect()
}

/// The bytes of one inbound TCP stream, cut back into what the dialer
/// wrote: a 4-byte hello naming the dialing processor, then
/// `[u32 len][payload]` frames. Reads land here in whatever pieces the
/// kernel hands over; the buffer only ever grows by bytes that actually
/// arrived, never by what a length prefix claims.
#[derive(Default)]
struct Reassembly {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out.
    pos: usize,
    /// The dialing processor, once the hello is complete.
    src: Option<usize>,
}

impl Reassembly {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// The little-endian word at the read position, if four bytes are in.
    fn peek_u32(&self) -> Option<usize> {
        let word = self.buf.get(self.pos..self.pos + 4)?;
        Some(u32::from_le_bytes(word.try_into().expect("4 bytes")) as usize)
    }

    /// The next complete frame and the processor it came from, or `None`
    /// until more bytes arrive. Rejects a hello outside `0..procs` and a
    /// length prefix above [`MAX_TCP_FRAME`] as soon as it is readable.
    fn next_frame(&mut self, procs: usize) -> Result<Option<(usize, &[u8])>, String> {
        if self.src.is_none() {
            let Some(src) = self.peek_u32() else {
                return Ok(None);
            };
            if src >= procs {
                return Err(format!("hello from out-of-range processor {src}"));
            }
            self.pos += 4;
            self.src = Some(src);
        }
        let (Some(src), Some(len)) = (self.src, self.peek_u32()) else {
            return Ok(None);
        };
        if len > MAX_TCP_FRAME {
            return Err(format!(
                "frame of {len} bytes from proc {src} exceeds the frame cap"
            ));
        }
        let start = self.pos + 4;
        if self.buf.len() < start + len {
            return Ok(None);
        }
        self.pos = start + len;
        Ok(Some((src, &self.buf[start..self.pos])))
    }
}

/// Per-run state, shared by the loop and the processors' transports
/// through an `Rc<RefCell<_>>` that is never borrowed across a `suspend`.
struct Hub<M> {
    start: Instant,
    addrs: Vec<SocketAddr>,
    listeners: Vec<TcpListener>,
    /// `writers[src][dst]`, dialed on `src`'s first send to `dst` and kept
    /// open until the run ends. A stream per direction of each pair:
    /// per-pair FIFO follows from TCP's byte ordering.
    writers: Vec<Vec<Option<TcpStream>>>,
    /// Accepted streams: the processor each carries frames to, and its
    /// bytes so far.
    inbound: Vec<(usize, TcpStream, Reassembly)>,
    slots: Vec<Slot<M>>,
    /// Frames written and messages decoded into inboxes. The two meet
    /// exactly when nothing is in flight.
    frames_sent: u64,
    frames_received: u64,
    /// Messages handed to processor closures (network + self timers).
    delivered: u64,
    quiesced: bool,
    /// The first failure; set once, ends the run.
    poison: Option<RunError>,
    chunk: Vec<u8>,
}

fn io_error(proc: usize, message: String) -> RunError {
    RunError::Io { proc, message }
}

fn as_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Makes a call on a non-blocking socket: `None` where a blocking socket
/// would have blocked.
fn nonblocking<T>(mut call: impl FnMut() -> std::io::Result<T>) -> std::io::Result<Option<T>> {
    loop {
        match call() {
            Ok(v) => return Ok(Some(v)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

impl<M> Hub<M> {
    /// Binds every listener up front, so first sends can dial without a
    /// handshake barrier.
    fn bind(procs: usize) -> Result<Hub<M>, RunError> {
        let listen = || {
            let l = TcpListener::bind("127.0.0.1:0")?;
            l.set_nonblocking(true)?;
            Ok((l.local_addr()?, l))
        };
        let all: std::io::Result<Vec<_>> = (0..procs).map(|_| listen()).collect();
        let all = all.map_err(|e| io_error(0, format!("binding loopback socket: {e}")))?;
        let (addrs, listeners) = all.into_iter().unzip();
        let unconnected = || (0..procs).map(|_| None).collect();
        Ok(Hub {
            start: Instant::now(),
            addrs,
            listeners,
            writers: (0..procs).map(|_| unconnected()).collect(),
            inbound: Vec::new(),
            slots: (0..procs).map(|_| Slot::new()).collect(),
            frames_sent: 0,
            frames_received: 0,
            delivered: 0,
            quiesced: false,
            poison: None,
            chunk: vec![0; READ_CHUNK],
        })
    }

    /// Nanoseconds since the run started (shared epoch for all clocks).
    fn nanos(&self) -> u64 {
        as_nanos(self.start.elapsed())
    }

    /// Whether resuming `id`, which has not finished, would get it anywhere.
    fn runnable(&self, id: usize) -> bool {
        let s = &self.slots[id];
        s.status == Status::App
            || !s.inbox.is_empty()
            || (self.quiesced && s.status == Status::Drain)
            || s.next_timer().is_some_and(|at| at <= self.nanos())
    }

    /// The next delivery for `me` — a due self-timer first, then the
    /// inbox — as `(now, src, msg)`.
    fn take(&mut self, me: usize) -> Option<(u64, usize, M)> {
        let now = self.nanos();
        let slot = &mut self.slots[me];
        let (src, msg) = if slot.next_timer().is_some_and(|at| at <= now) {
            slot.timers.pop_first().map(|(_, msg)| (me, msg))
        } else {
            slot.inbox.pop_front()
        }?;
        self.delivered += 1;
        Some((now, src, msg))
    }
}

impl<M: Wire> Hub<M> {
    /// Moves everything the kernel holds for this run into the inboxes:
    /// accepts pending connections, reads every readable stream, cuts the
    /// bytes back into frames and decodes them. Never blocks. A failure
    /// poisons the run; callers look at `poison` afterwards.
    fn pump(&mut self) {
        if let Err(e) = self.try_pump() {
            self.poison.get_or_insert(e);
        }
    }

    fn try_pump(&mut self) -> Result<(), RunError> {
        let procs = self.slots.len();
        let io = |owner, what: &str, e: std::io::Error| io_error(owner, format!("{what}: {e}"));
        for (owner, listener) in self.listeners.iter().enumerate() {
            while let Some((stream, _)) =
                nonblocking(|| listener.accept()).map_err(|e| io(owner, "accept failed", e))?
            {
                let nb = stream.set_nonblocking(true);
                nb.map_err(|e| io(owner, "accept failed", e))?;
                self.inbound.push((owner, stream, Reassembly::default()));
            }
        }
        let chunk = &mut self.chunk[..];
        for (owner, stream, bytes) in self.inbound.iter_mut() {
            let owner = *owner;
            while let Some(n) =
                nonblocking(|| stream.read(chunk)).map_err(|e| io(owner, "tcp read", e))?
            {
                // Write halves stay open until the run is over, so an end
                // of stream is never the normal one.
                if n == 0 {
                    let peer = bytes.src.map_or("?".into(), |src| src.to_string());
                    let message = format!("stream from proc {peer} closed mid-run");
                    return Err(io_error(owner, message));
                }
                bytes.push(&chunk[..n]);
                while let Some((src, frame)) = bytes
                    .next_frame(procs)
                    .map_err(|message| io_error(owner, message))?
                {
                    let msg = decode_exact::<M>(frame)
                        .map_err(|e| io_error(owner, format!("bad frame from proc {src}: {e}")))?;
                    self.slots[owner].inbox.push_back((src, msg));
                    self.frames_received += 1;
                }
                // A short read emptied the kernel's buffer.
                if n < chunk.len() {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Writes one whole frame from `me` to `dst`, dialing the stream first
    /// if it is the pair's first.
    fn transmit(&mut self, me: usize, dst: usize, frame: &[u8]) -> Result<(), RunError> {
        if self.writers[me][dst].is_none() {
            let dialed = TcpStream::connect(self.addrs[dst]).and_then(|s| {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(s)
            });
            let dialed = dialed.map_err(|e| io_error(me, format!("dialing proc {dst}: {e}")))?;
            self.writers[me][dst] = Some(dialed);
            // The hello tells the acceptor which processor this stream
            // carries traffic from.
            let hello = u32::try_from(me).expect("proc id fits u32").to_le_bytes();
            self.write_all(me, dst, &hello)?;
        }
        self.frames_sent += 1;
        self.write_all(me, dst, frame)
    }

    /// Where a blocking socket would block on a full kernel buffer this
    /// pumps instead: the receiver's side drains into its reassembly
    /// buffer and the write goes on, so the one thread cannot wedge itself
    /// on a payload larger than the loopback buffer.
    fn write_all(&mut self, me: usize, dst: usize, mut bytes: &[u8]) -> Result<(), RunError> {
        let io = |e: std::io::Error| io_error(me, format!("writing to proc {dst}: {e}"));
        while !bytes.is_empty() {
            let stream = self.writers[me][dst].as_mut().expect("dialed by transmit");
            match nonblocking(|| stream.write(bytes)).map_err(io)? {
                Some(0) => return Err(io(ErrorKind::WriteZero.into())),
                Some(n) => bytes = &bytes[n..],
                None => {
                    self.pump();
                    if let Some(poison) = &self.poison {
                        return Err(poison.clone());
                    }
                }
            }
        }
        Ok(())
    }

    /// A round of the loop resumed nobody. Pumps; if that brought nothing
    /// either, the run is waiting on the kernel, on a self-timer or on
    /// nothing at all: polls shortly, sleeps to the timer (or the watchdog
    /// `deadline`), or commits quiescence (see the module docs).
    fn idle(&mut self, deadline: Option<Duration>) {
        let before = self.frames_received;
        self.pump();
        if self.poison.is_some() || self.frames_received != before {
            return;
        }
        let quiet = |s: &Slot<M>| {
            matches!(s.status, Status::Drain | Status::Finished)
                && s.timers.is_empty()
                && s.inbox.is_empty()
        };
        let nap = if self.frames_sent != self.frames_received {
            IN_FLIGHT_POLL
        } else if self.slots.iter().all(quiet) {
            self.quiesced = true;
            return;
        } else {
            let now = self.nanos();
            let timers = self.slots.iter().filter_map(Slot::next_timer);
            let wake = timers.chain(deadline.map(as_nanos)).min();
            wake.map_or(IDLE_NAP, |at| Duration::from_nanos(at.saturating_sub(now)))
        };
        std::thread::sleep(nap.min(IDLE_NAP));
    }
}

/// A real processor's transport handle: impl #2 of
/// [`Transport`](crate::Transport). Lives on its processor's coroutine stack
/// and shares the run's state through an `Rc`: neither `Send` nor `Sync`.
pub struct RealTransport<M> {
    me: usize,
    procs: usize,
    hub: Rc<RefCell<Hub<M>>>,
    /// The run's fault plan, and the per-destination sequence numbers
    /// feeding its decisions.
    faults: FaultPlan,
    seqs: Vec<u64>,
    timer_seq: u64,
    /// This processor's accounting so far (`final_time` is set at the end).
    report: ProcReport,
    scratch: Vec<u8>,
}

impl<M: Wire> RealTransport<M> {
    fn nanos_to_cycles(&self, nanos: u64) -> VirtualTime {
        VirtualTime(nanos.saturating_mul(CYCLES_PER_MICRO) / 1_000)
    }

    /// Poisons the run and unwinds this processor. The hub must not be
    /// borrowed by the caller.
    fn die(&self, e: RunError) -> ! {
        self.hub.borrow_mut().poison.get_or_insert(e);
        panic_any(RealAbort)
    }

    fn recv_inner(&mut self, waiting: Status) -> Option<(VirtualTime, usize, M)> {
        loop {
            {
                let mut hub = self.hub.borrow_mut();
                if hub.poison.is_some() {
                    panic_any(RealAbort);
                }
                hub.slots[self.me].status = waiting;
                if waiting == Status::Drain && hub.quiesced {
                    return None;
                }
                let got = hub.take(self.me).or_else(|| {
                    hub.pump();
                    hub.take(self.me)
                });
                if let Some((now, src, msg)) = got {
                    return Some((self.nanos_to_cycles(now), src, msg));
                }
            }
            // Resumed once a message or timer is due, the run has
            // quiesced, or it is poisoned: all checked from the top.
            suspend();
        }
    }
}

impl<M: Wire> Transport for RealTransport<M> {
    type Msg = M;

    fn id(&self) -> usize {
        self.me
    }

    fn procs(&self) -> usize {
        self.procs
    }

    /// Wall-clock time since the run started, converted to cycles. The
    /// clock runs whether or not anything is charged; the per-category
    /// breakdown is purely observational here.
    fn now(&self) -> VirtualTime {
        self.nanos_to_cycles(self.hub.borrow().nanos())
    }

    fn charge(&mut self, cat: Category, cycles: u64) {
        self.report.breakdown[cat as usize] += cycles;
    }

    fn send(&mut self, dst: usize, msg: M, _bytes: u64) -> FaultDecision {
        assert!(dst < self.procs, "destination {dst} out of range");
        assert_ne!(
            dst, self.me,
            "self-send: local operations must not use the network"
        );
        // The plan decides on a per-pair (src, dst, seq) identity, so a
        // given plan drops the same messages of a pair in every run.
        let seq = self.seqs[dst];
        self.seqs[dst] += 1;
        let (fate, copies) = match self.faults.decide(self.me, dst, seq) {
            FaultDecision::Drop => return FaultDecision::Drop,
            dup @ FaultDecision::Duplicate { .. } => (dup, 2),
            // Real sockets offer no delay hook; these deliver normally.
            FaultDecision::Deliver
            | FaultDecision::Reorder { .. }
            | FaultDecision::Delay { .. } => (FaultDecision::Deliver, 1),
        };
        // A frame is `[u32 len]` and the encoded message.
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0; 4]);
        msg.encode(&mut self.scratch);
        let len = u32::try_from(self.scratch.len() - 4).expect("frame length fits u32");
        self.scratch[..4].copy_from_slice(&len.to_le_bytes());
        for _ in 0..copies {
            let sent = self.hub.borrow_mut().transmit(self.me, dst, &self.scratch);
            if let Err(e) = sent {
                self.die(e);
            }
        }
        fate
    }

    fn post_self(&mut self, msg: M, delay: u64) {
        let mut hub = self.hub.borrow_mut();
        let at = hub
            .nanos()
            .saturating_add(delay.saturating_mul(1_000) / CYCLES_PER_MICRO);
        hub.slots[self.me].timers.insert((at, self.timer_seq), msg);
        self.timer_seq += 1;
    }

    fn recv(&mut self) -> (VirtualTime, usize, M) {
        self.recv_inner(Status::Recv)
            .expect("blocking recv cannot observe quiescence")
    }

    fn drain_recv(&mut self) -> Option<(VirtualTime, usize, M)> {
        self.recv_inner(Status::Drain)
    }

    fn protocol_violation(&mut self, message: String) -> ! {
        self.die(RunError::ProtocolViolation {
            proc: self.me,
            message,
        })
    }

    fn app_violation(&mut self, message: String) -> ! {
        self.die(RunError::AppViolation {
            proc: self.me,
            message,
        })
    }

    fn note_recovery_status(&mut self, epoch: u32, checkpoint_seq: u64) {
        let slot = &mut self.hub.borrow_mut().slots[self.me];
        slot.epoch = epoch;
        slot.last_ckpt = checkpoint_seq;
    }
}

/// Entry point: runs one closure per processor over real loopback
/// sockets, every processor a coroutine on the calling thread.
pub struct RealCluster;

impl RealCluster {
    /// Runs `f` on every processor of a real-transport cluster and
    /// collects the results. The counterpart of the simulator's
    /// `Cluster::run`, and like it a plain loop on the calling thread:
    /// nothing has to be `Send` or `Sync`. It takes the same
    /// [`ClusterConfig`]: `procs`, and `faults`, whose rates apply at the
    /// send site as on the simulator (the network model is the kernel's
    /// loopback, and a crash event is the DSM's business, not the
    /// transport's). It returns the simulator's [`RunOutcome`], whose
    /// times here are wall-clock-derived and so vary from run to run.
    ///
    /// The watchdog is checked between rounds of that loop: it cannot
    /// interrupt a closure that computes without touching the transport.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if any closure panics or reports a violation,
    /// a socket operation fails, or the watchdog deadline passes.
    pub fn run<M, R, F>(
        cluster: ClusterConfig,
        cfg: &RealConfig,
        f: F,
    ) -> Result<RunOutcome<R>, RunError>
    where
        M: Wire,
        F: Fn(&mut RealTransport<M>) -> R,
    {
        let procs = cluster.procs;
        assert!(procs > 0, "cluster needs at least one processor");
        let hub = Rc::new(RefCell::new(Hub::<M>::bind(procs)?));
        let finished: Vec<Cell<Option<(R, ProcReport)>>> =
            (0..procs).map(|_| Cell::new(None)).collect();

        let mut cos: Vec<Coroutine<'_>> = (0..procs)
            .map(|id| {
                let (hub, f, finished) = (&hub, &f, &finished[id]);
                Coroutine::new(move || {
                    let mut t = RealTransport {
                        me: id,
                        procs,
                        hub: Rc::clone(hub),
                        faults: cluster.faults,
                        seqs: vec![0; procs],
                        timer_seq: 0,
                        report: ProcReport::default(),
                        scratch: Vec::new(),
                    };
                    // Caught here, on the processor's own stack, so its
                    // frames unwind and its locals drop before the loop
                    // gets control back.
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut t)));
                    t.report.final_time = t.now();
                    let mut hub = hub.borrow_mut();
                    hub.slots[id].status = Status::Finished;
                    match outcome {
                        Ok(val) => finished.set(Some((val, t.report))),
                        Err(payload) if payload.is::<RealAbort>() => {}
                        Err(payload) => {
                            let message = panic_message(&*payload);
                            hub.poison
                                .get_or_insert(RunError::ProcPanicked { proc: id, message });
                        }
                    }
                })
            })
            .collect();

        loop {
            let mut progressed = false;
            for (id, co) in cos.iter_mut().enumerate() {
                // The borrow ends with the condition, before the resume.
                if !co.is_done() && hub.borrow().runnable(id) {
                    co.resume();
                    progressed = true;
                }
            }
            let mut hub = hub.borrow_mut();
            if hub.poison.is_some() || cos.iter().all(Coroutine::is_done) {
                break;
            }
            match cfg.watchdog {
                Some(limit) if hub.nanos() >= as_nanos(limit) => {
                    let dumps = dump(&hub.slots);
                    let secs = limit.as_secs();
                    hub.poison = Some(RunError::Watchdog { secs, dumps });
                    break;
                }
                _ if !progressed => hub.idle(cfg.watchdog),
                _ => {}
            }
        }
        // Poisoned: the first round started everyone and only a receive
        // suspends, so whoever is not done is resumed once, finds the poison
        // there and unwinds its own stack.
        for co in cos.iter_mut().filter(|co| !co.is_done()) {
            co.resume();
        }
        drop(cos);

        let mut hub = hub.borrow_mut();
        if let Some(poison) = hub.poison.take() {
            return Err(poison);
        }
        let (results, reports): (Vec<R>, Vec<ProcReport>) = finished
            .into_iter()
            .map(|slot| slot.into_inner().expect("every processor finished"))
            .unzip();
        let finish_time = reports.iter().map(|r| r.final_time).max();
        Ok(RunOutcome {
            results,
            reports,
            finish_time: finish_time.unwrap_or_default(),
            messages_delivered: hub.delivered,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_reports_recovery_status_per_proc() {
        let mut slots: Vec<Slot<()>> = vec![Slot::new(), Slot::new()];
        slots[1].epoch = 3;
        slots[1].last_ckpt = 7;
        let lines = dump(&slots);
        assert_eq!(lines.len(), 2);
        // A never-crashed, never-checkpointed processor reads epoch 0 and
        // "none" — the dump must not invent a checkpoint sequence.
        assert!(
            lines[0].starts_with("proc 0: status=app"),
            "unexpected line: {}",
            lines[0]
        );
        assert!(lines[0].contains("epoch=0 ckpt=none"), "{}", lines[0]);
        assert!(lines[1].contains("epoch=3 ckpt=#7"), "{}", lines[1]);
        // The whole line keeps the fixed key=value shape the watchdog
        // report parser-by-eyeball relies on.
        for key in ["status=", "inbox=", "pending_self=", "epoch=", "ckpt="] {
            assert!(lines[1].contains(key), "missing {key} in {}", lines[1]);
        }
    }

    /// Everything `bytes` yields, fed `step` bytes at a time.
    fn frames(bytes: &[u8], step: usize) -> Vec<(usize, Vec<u8>)> {
        let mut r = Reassembly::default();
        let mut out = Vec::new();
        for piece in bytes.chunks(step) {
            r.push(piece);
            while let Some((src, frame)) = r.next_frame(4).expect("well-formed stream") {
                out.push((src, frame.to_vec()));
            }
        }
        out
    }

    #[test]
    fn reassembly_is_indifferent_to_how_the_bytes_arrive() {
        let payloads: [&[u8]; 4] = [b"first", b"", &[0xab; 300], b"last"];
        let mut stream = 2u32.to_le_bytes().to_vec();
        for p in payloads {
            stream.extend_from_slice(&(p.len() as u32).to_le_bytes());
            stream.extend_from_slice(p);
        }
        let whole = frames(&stream, stream.len());
        let expect: Vec<(usize, Vec<u8>)> = payloads.iter().map(|p| (2, p.to_vec())).collect();
        assert_eq!(whole, expect);
        for step in [1, 3, 7] {
            assert_eq!(frames(&stream, step), whole, "{step} bytes at a time");
        }
    }

    #[test]
    fn reassembly_rejects_bad_headers_without_buffering_for_them() {
        let mut r = Reassembly::default();
        r.push(&1u32.to_le_bytes());
        r.push(&u32::try_from(MAX_TCP_FRAME + 1).unwrap().to_le_bytes());
        let err = r.next_frame(4).unwrap_err();
        assert!(err.contains("exceeds the frame cap"), "{err}");
        // Nothing was reserved on the strength of the claimed length.
        assert!(r.buf.capacity() < 1024, "capacity {}", r.buf.capacity());

        let mut r = Reassembly::default();
        r.push(&4u32.to_le_bytes());
        let err = r.next_frame(4).unwrap_err();
        assert!(err.contains("out-of-range processor 4"), "{err}");
    }
}
