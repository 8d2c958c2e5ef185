//! Impl #2: a real transport over loopback sockets, on the simulator's
//! coroutines.
//!
//! Where the simulator delivers messages from an event queue under a
//! virtual clock, this transport moves them as length-prefixed frames over
//! `std::net` sockets — TCP by default, or UDP with optional deterministic
//! loss injection so the DSM's go-back-N reliable channel has real packet
//! loss to recover from. The wall clock (scaled by a configurable
//! cycles-per-microsecond rate) stands in for the virtual clock.
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
//! self-timer is pending, every inbox is empty and — on TCP, where the
//! wire is lossless — a pump has just brought `frames_received` up to
//! `frames_sent`. Every message originates from a running processor, a
//! timer or a frame in flight, and there are none, so the state is
//! permanent.
//!
//! On UDP the frame counts are skipped (datagrams may be genuinely lost,
//! so `sent == received` may never hold); two substitutes apply. First, a
//! settle window: no quiescence until nothing has been sent, received or
//! delivered for [`UDP_SETTLE_NANOS`], which dwarfs loopback delivery
//! latency. Second, for the DSM the reliable channel above carries the
//! real guarantee: its retransmit timer is armed exactly while data is
//! unacknowledged, so "no timers pending anywhere" already implies every
//! data frame was delivered. Stray duplicate or ack datagrams may land
//! after quiescence and are simply never read — they carry no protocol
//! obligations.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::rc::Rc;
use std::time::{Duration, Instant};

use midway_sim::{
    panic_message, suspend, Category, Coroutine, FaultDecision, FaultPlan, ProcReport, RunOutcome,
    VirtualTime,
};

use crate::transport::Transport;
use crate::wire::{decode_exact, Wire};

/// Largest frame a TCP stream may announce (a corrupt length prefix must
/// not be believed).
const MAX_TCP_FRAME: usize = 1 << 28;

/// Largest payload sent in one UDP datagram. Loopback accepts datagrams
/// up to 64 KiB; anything bigger must use TCP.
pub(crate) const MAX_UDP_PAYLOAD: usize = 60_000;

/// Minimum global inactivity before a UDP-mode run may quiesce. Loopback
/// datagram delivery is microseconds; anything still "in flight" after
/// this long is genuinely lost and the reliable layer's timers (which
/// block quiescence on their own) are responsible for it.
const UDP_SETTLE_NANOS: u64 = 5_000_000;

/// How long the loop sleeps between pumps while something is in flight:
/// a TCP frame written but not yet readable, or a UDP settle window.
const IN_FLIGHT_POLL: Duration = Duration::from_micros(50);

/// Cap on any one idle sleep, so a run that is waiting on nothing but a
/// far-off deadline still looks at its sockets now and then.
const IDLE_NAP: Duration = Duration::from_millis(25);

/// Bytes asked of a socket per read; no datagram is larger.
const READ_CHUNK: usize = 65_536;

/// Wall-clock to cycle conversion: the R3000's 25 MHz, 25 cycles per
/// microsecond, so cycle-denominated protocol constants (timeouts,
/// backoffs) keep the real durations they had on the paper's machine.
const CYCLES_PER_MICRO: u64 = 25;

/// Which socket flavor a real-transport run uses.
#[derive(Clone, Debug)]
pub enum RealMode {
    /// Length-prefixed frames over per-direction loopback TCP streams.
    /// Lossless and per-pair FIFO; the DSM can run with its reliable
    /// channel disabled, exactly as on the simulator's perfect network.
    Tcp,
    /// One datagram per message over loopback UDP, with deterministic
    /// loss/duplication injected at the send site per the embedded
    /// [`FaultPlan`]. The DSM must run its reliable channel on top.
    Udp {
        /// Per-message fault schedule (`FaultPlan::seeded(0)` for a
        /// lossless-but-untrusted link). `Reorder`/`Delay` decisions
        /// deliver normally: real sockets offer no delay hook. Boxed:
        /// the plan's crash table would otherwise dwarf `Tcp`.
        loss: Box<FaultPlan>,
    },
}

/// Configuration for a real-transport run.
#[derive(Clone, Debug)]
pub struct RealConfig {
    /// Socket flavor.
    pub mode: RealMode,
    /// Wall-clock deadline after which a hung run is aborted with
    /// per-processor state dumps. `None` disables the watchdog.
    pub watchdog: Option<Duration>,
}

impl RealConfig {
    /// Loopback TCP with a 120 s watchdog.
    pub fn tcp() -> RealConfig {
        RealConfig {
            mode: RealMode::Tcp,
            watchdog: Some(Duration::from_secs(120)),
        }
    }

    /// Loopback UDP with the given loss plan and a 120 s watchdog.
    pub fn udp(loss: FaultPlan) -> RealConfig {
        RealConfig {
            mode: RealMode::Udp {
                loss: Box::new(loss),
            },
            ..RealConfig::tcp()
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

/// Why a real-transport run failed. The counterpart of the simulator's
/// `SimError`, plus socket and watchdog failures that cannot occur under
/// virtual time.
#[derive(Clone, Debug)]
pub enum RealError {
    /// A protocol layer detected an invariant violation.
    Protocol {
        /// The processor that detected the violation.
        proc: usize,
        /// Description of the violated invariant.
        message: String,
    },
    /// The runtime detected an application-level misuse of the DSM API.
    App {
        /// The processor whose application misused the API.
        proc: usize,
        /// Description of the misuse.
        message: String,
    },
    /// An application closure panicked on some processor.
    Panic {
        /// The processor whose closure panicked.
        proc: usize,
        /// The panic payload, rendered as a string where possible.
        message: String,
    },
    /// A socket operation failed or an inbound frame failed to decode.
    Io {
        /// The processor on whose behalf the operation ran.
        proc: usize,
        /// Description of the failure.
        message: String,
    },
    /// The wall-clock watchdog deadline passed before the run finished.
    Watchdog {
        /// The deadline that expired, in seconds.
        secs: u64,
        /// One state line per processor at the moment of the abort.
        dumps: Vec<String>,
    },
}

impl std::fmt::Display for RealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealError::Protocol { proc, message } => {
                write!(f, "protocol violation on processor {proc}: {message}")
            }
            RealError::App { proc, message } => {
                write!(f, "application violation on processor {proc}: {message}")
            }
            RealError::Panic { proc, message } => {
                write!(f, "processor {proc} panicked: {message}")
            }
            RealError::Io { proc, message } => {
                write!(f, "transport i/o failure on processor {proc}: {message}")
            }
            RealError::Watchdog { secs, dumps } => {
                writeln!(f, "real-transport run hung past the {secs}s watchdog:")?;
                for d in dumps {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RealError {}

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

/// Every socket of the run.
enum Net {
    Tcp {
        listeners: Vec<TcpListener>,
        /// `writers[src][dst]`, dialed on `src`'s first send to `dst` and
        /// kept open until the run ends. A stream per direction of each
        /// pair: per-pair FIFO follows from TCP's byte ordering.
        writers: Vec<Vec<Option<TcpStream>>>,
        /// Accepted streams: the processor each carries frames to, and its
        /// bytes so far.
        inbound: Vec<(usize, TcpStream, Reassembly)>,
    },
    /// One socket per processor, for both directions.
    Udp { socks: Vec<UdpSocket> },
}

/// Per-run state, shared by the loop and the processors' transports
/// through an `Rc<RefCell<_>>` that is never borrowed across a `suspend`.
struct Hub<M> {
    start: Instant,
    addrs: Vec<SocketAddr>,
    net: Net,
    slots: Vec<Slot<M>>,
    /// TCP frames written and messages decoded into inboxes. On TCP the
    /// two meet exactly when nothing is in flight.
    frames_sent: u64,
    frames_received: u64,
    /// Messages handed to processor closures (network + self timers).
    delivered: u64,
    /// When anything was last sent, received or delivered (UDP settling).
    last_activity: u64,
    quiesced: bool,
    /// The first failure; set once, ends the run.
    poison: Option<RealError>,
    chunk: Vec<u8>,
}

fn io_error(proc: usize, message: String) -> RealError {
    RealError::Io { proc, message }
}

fn as_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Opens one non-blocking loopback endpoint per processor.
fn endpoints<S>(
    procs: usize,
    open: impl Fn() -> std::io::Result<(SocketAddr, S)>,
) -> Result<(Vec<S>, Vec<SocketAddr>), RealError> {
    let all: std::io::Result<Vec<_>> = (0..procs).map(|_| open()).collect();
    let all = all.map_err(|e| io_error(0, format!("binding loopback socket: {e}")))?;
    Ok(all.into_iter().map(|(addr, s)| (s, addr)).unzip())
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
    /// Binds every endpoint up front, so first sends can dial without a
    /// handshake barrier.
    fn bind(mode: &RealMode, procs: usize) -> Result<Hub<M>, RealError> {
        let (net, addrs) = match mode {
            RealMode::Tcp => {
                let (listeners, addrs) = endpoints(procs, || {
                    let l = TcpListener::bind("127.0.0.1:0")?;
                    l.set_nonblocking(true)?;
                    Ok((l.local_addr()?, l))
                })?;
                let unconnected = || (0..procs).map(|_| None).collect();
                let writers = (0..procs).map(|_| unconnected()).collect();
                let inbound = Vec::new();
                let tcp = Net::Tcp {
                    listeners,
                    writers,
                    inbound,
                };
                (tcp, addrs)
            }
            RealMode::Udp { .. } => {
                let (socks, addrs) = endpoints(procs, || {
                    let s = UdpSocket::bind("127.0.0.1:0")?;
                    s.set_nonblocking(true)?;
                    Ok((s.local_addr()?, s))
                })?;
                (Net::Udp { socks }, addrs)
            }
        };
        Ok(Hub {
            start: Instant::now(),
            addrs,
            net,
            slots: (0..procs).map(|_| Slot::new()).collect(),
            frames_sent: 0,
            frames_received: 0,
            delivered: 0,
            last_activity: 0,
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
        self.last_activity = now;
        Some((now, src, msg))
    }
}

impl<M: Wire> Hub<M> {
    /// Moves everything the kernel holds for this run into the inboxes:
    /// accepts pending connections, reads every readable socket, cuts TCP
    /// bytes back into frames and decodes them. Never blocks. A failure
    /// poisons the run; callers look at `poison` afterwards.
    fn pump(&mut self) {
        if let Err(e) = self.try_pump() {
            self.poison.get_or_insert(e);
        }
    }

    fn try_pump(&mut self) -> Result<(), RealError> {
        let procs = self.slots.len();
        let now = self.nanos();
        let (net, slots, chunk) = (&mut self.net, &mut self.slots, &mut self.chunk[..]);
        let (received, last_activity) = (&mut self.frames_received, &mut self.last_activity);
        let mut deliver = |owner: usize, src: usize, msg: M| {
            slots[owner].inbox.push_back((src, msg));
            *received += 1;
            *last_activity = now;
        };
        let io = |owner, what: &str, e: std::io::Error| io_error(owner, format!("{what}: {e}"));
        match net {
            Net::Tcp {
                listeners, inbound, ..
            } => {
                for (owner, listener) in listeners.iter().enumerate() {
                    while let Some((stream, _)) = nonblocking(|| listener.accept())
                        .map_err(|e| io(owner, "accept failed", e))?
                    {
                        let nb = stream.set_nonblocking(true);
                        nb.map_err(|e| io(owner, "accept failed", e))?;
                        inbound.push((owner, stream, Reassembly::default()));
                    }
                }
                for (owner, stream, bytes) in inbound.iter_mut() {
                    let owner = *owner;
                    while let Some(n) =
                        nonblocking(|| stream.read(chunk)).map_err(|e| io(owner, "tcp read", e))?
                    {
                        // Write halves stay open until the run is over, so
                        // an end of stream is never the normal one.
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
                            let msg = decode_exact::<M>(frame).map_err(|e| {
                                io_error(owner, format!("bad frame from proc {src}: {e}"))
                            })?;
                            deliver(owner, src, msg);
                        }
                        // A short read emptied the kernel's buffer.
                        if n < chunk.len() {
                            break;
                        }
                    }
                }
            }
            Net::Udp { socks } => {
                for (owner, sock) in socks.iter().enumerate() {
                    while let Some((n, _)) = nonblocking(|| sock.recv_from(chunk))
                        .map_err(|e| io(owner, "udp recv", e))?
                    {
                        // `[u32 src][payload]`. Malformed datagrams are
                        // dropped silently — on a lossy link they are
                        // indistinguishable from loss, and the reliable
                        // channel above recovers either way.
                        let Some((src, payload)) = chunk[..n].split_first_chunk::<4>() else {
                            continue;
                        };
                        let src = u32::from_le_bytes(*src) as usize;
                        if let (true, Ok(msg)) = (src < procs, decode_exact::<M>(payload)) {
                            deliver(owner, src, msg);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Sends `frame` — a whole TCP frame or a whole datagram — from `me`
    /// to `dst`, dialing the stream first if it is the pair's first.
    fn transmit(&mut self, me: usize, dst: usize, frame: &[u8]) -> Result<(), RealError> {
        if let Net::Tcp { writers, .. } = &mut self.net {
            if writers[me][dst].is_none() {
                let dialed = TcpStream::connect(self.addrs[dst]).and_then(|s| {
                    s.set_nodelay(true)?;
                    s.set_nonblocking(true)?;
                    Ok(s)
                });
                let dialed =
                    dialed.map_err(|e| io_error(me, format!("dialing proc {dst}: {e}")))?;
                writers[me][dst] = Some(dialed);
                // The hello tells the acceptor which processor this
                // stream carries traffic from.
                let hello = u32::try_from(me).expect("proc id fits u32").to_le_bytes();
                self.write_all(me, dst, &hello)?;
            }
            self.frames_sent += 1;
        }
        self.write_all(me, dst, frame)?;
        self.last_activity = self.nanos();
        Ok(())
    }

    /// Where a blocking socket would block on a full kernel buffer this
    /// pumps instead: the receiver's side drains into its reassembly
    /// buffer and the write goes on, so the one thread cannot wedge itself
    /// on a payload larger than the loopback buffer.
    fn write_all(&mut self, me: usize, dst: usize, mut bytes: &[u8]) -> Result<(), RealError> {
        let io = |e: std::io::Error| io_error(me, format!("writing to proc {dst}: {e}"));
        while !bytes.is_empty() {
            let (net, to) = (&mut self.net, self.addrs[dst]);
            let written = nonblocking(|| match net {
                Net::Tcp { writers, .. } => {
                    let stream = writers[me][dst].as_mut().expect("dialed by transmit");
                    stream.write(bytes)
                }
                Net::Udp { socks } => socks[me].send_to(bytes, to),
            });
            match written.map_err(io)? {
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
        let now = self.nanos();
        let in_flight = match self.net {
            Net::Tcp { .. } => self.frames_sent != self.frames_received,
            Net::Udp { .. } => now.saturating_sub(self.last_activity) < UDP_SETTLE_NANOS,
        };
        let quiet = |s: &Slot<M>| {
            matches!(s.status, Status::Drain | Status::Finished)
                && s.timers.is_empty()
                && s.inbox.is_empty()
        };
        let nap = if in_flight {
            IN_FLIGHT_POLL
        } else if self.slots.iter().all(quiet) {
            self.quiesced = true;
            return;
        } else {
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
    /// UDP mode: the loss plan, and per-destination datagram sequence
    /// numbers feeding it.
    loss: Option<(Box<FaultPlan>, Vec<u64>)>,
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
    fn die(&self, e: RealError) -> ! {
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
                    self.report.msgs_received += u64::from(src != self.me);
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

    fn send(&mut self, dst: usize, msg: M, bytes: u64) {
        assert!(dst < self.procs, "destination {dst} out of range");
        assert_ne!(
            dst, self.me,
            "self-send: local operations must not use the network"
        );
        self.report.msgs_sent += 1;
        self.report.bytes_sent += bytes;
        // Both wire formats are a 4-byte header and the encoded message:
        // `[u32 len]` on a TCP stream, `[u32 src]` in a UDP datagram.
        self.scratch.clear();
        self.scratch.extend_from_slice(&[0; 4]);
        msg.encode(&mut self.scratch);
        let len = self.scratch.len() - 4;
        let (header, copies) = match &mut self.loss {
            None => (len, 1),
            Some(_) if len > MAX_UDP_PAYLOAD => self.die(io_error(
                self.me,
                format!(
                    "message of {len} bytes exceeds the {MAX_UDP_PAYLOAD}-byte UDP payload \
                     limit; use the TCP mode"
                ),
            )),
            Some((loss, seqs)) => {
                // The loss plan sees the same (src, dst, seq) identity the
                // simulator's fault layer would, so a given plan drops
                // "the same" messages.
                let seq = seqs[dst];
                seqs[dst] += 1;
                let copies = match loss.decide(self.me, dst, seq) {
                    FaultDecision::Drop => 0,
                    FaultDecision::Duplicate { .. } => 2,
                    // Real sockets offer no delay hook; these deliver
                    // normally and are not counted as injected.
                    FaultDecision::Deliver
                    | FaultDecision::Reorder { .. }
                    | FaultDecision::Delay { .. } => 1,
                };
                self.report.fault_stats.dropped += u64::from(copies == 0);
                self.report.fault_stats.duplicated += u64::from(copies == 2);
                (self.me, copies)
            }
        };
        let header = u32::try_from(header).expect("frame length and proc id fit u32");
        self.scratch[..4].copy_from_slice(&header.to_le_bytes());
        for _ in 0..copies {
            let sent = self.hub.borrow_mut().transmit(self.me, dst, &self.scratch);
            if let Err(e) = sent {
                self.die(e);
            }
        }
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
        self.die(RealError::Protocol {
            proc: self.me,
            message,
        })
    }

    fn app_violation(&mut self, message: String) -> ! {
        self.die(RealError::App {
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
    /// nothing has to be `Send` or `Sync`. It returns the simulator's
    /// [`RunOutcome`], whose times here are wall-clock-derived and so vary
    /// from run to run.
    ///
    /// The watchdog is checked between rounds of that loop: it cannot
    /// interrupt a closure that computes without touching the transport.
    ///
    /// # Errors
    ///
    /// Returns [`RealError`] if any closure panics or reports a
    /// violation, a socket operation fails, or the watchdog deadline
    /// passes.
    pub fn run<M, R, F>(cfg: &RealConfig, procs: usize, f: F) -> Result<RunOutcome<R>, RealError>
    where
        M: Wire,
        F: Fn(&mut RealTransport<M>) -> R,
    {
        assert!(procs > 0, "cluster needs at least one processor");
        let hub = Rc::new(RefCell::new(Hub::<M>::bind(&cfg.mode, procs)?));
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
                        loss: match &cfg.mode {
                            RealMode::Tcp => None,
                            RealMode::Udp { loss } => Some((loss.clone(), vec![0; procs])),
                        },
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
                                .get_or_insert(RealError::Panic { proc: id, message });
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
                    hub.poison = Some(RealError::Watchdog { secs, dumps });
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
