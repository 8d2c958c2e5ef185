//! Deterministic virtual-time cluster simulator.
//!
//! This crate provides the execution substrate for the Midway DSM
//! reproduction: a fixed set of simulated processors, each with its own
//! virtual cycle clock, communicating only through a simulated
//! message-passing network (modelled on the ATM cluster used in the paper).
//!
//! # Determinism
//!
//! The scheduler delivers a pending message only when *every* processor is
//! suspended (waiting to receive) or finished, and it always delivers the
//! globally minimal event under the total order `(delivery time, source,
//! per-source sequence number)`. A resumed processor advances its clock to
//! the delivery time before it can send again, so deliveries are
//! nondecreasing in virtual time and the entire execution — every clock
//! value, counter, and message — is a pure function of the program being
//! simulated. The pending events sit in one binary heap and are delivered
//! one per resume, so that heap's `pop` is the only choice a run makes.
//!
//! # Execution model
//!
//! Since only one processor ever runs at a time, the processors are not
//! threads. Each is a *stackful coroutine* — the closure given to
//! [`Cluster::run`] on a 2 MiB stack of its own — and `Cluster::run` is a
//! plain loop on the calling thread: pop the minimal event, put it in the
//! destination's slot, switch to that coroutine until it suspends in
//! [`ProcHandle::recv`]/[`ProcHandle::drain_recv`] or returns. A switch
//! saves six registers and swaps the stack pointer; there is no lock, no
//! condition variable and no system call on the event path. The closures
//! stay ordinary blocking code (`p.recv()` anywhere, at any call depth),
//! which is why the coroutines are stackful and not `async`. The same
//! closures also run, unchanged, on the real-socket transport in
//! `midway-net`, whose one loop drives the same [`Coroutine`]s over
//! non-blocking sockets instead of an event queue.
//!
//! The switch and the stacks are the crate's only `unsafe`, confined to
//! the `coro` module behind a safe interface: a panic is caught on
//! the stack that raised it and never crosses a switch; when a run fails,
//! every suspended processor is resumed once to unwind and drop its locals
//! before its stack is unmapped; every stack ends in a guard page, so an
//! overflow faults instead of corrupting memory. The switch is written for
//! x86-64 Linux, and the crate refuses to compile anywhere else.
//!
//! # Examples
//!
//! ```
//! use midway_sim::{Cluster, ClusterConfig, NetModel};
//!
//! // Two processors play ping-pong once.
//! let cfg = ClusterConfig::new(2).net(NetModel::ideal());
//! let outcome = Cluster::run(cfg, |p| {
//!     if p.id() == 0 {
//!         p.send(1, "ping", 4);
//!         let (_t, _src, msg) = p.recv();
//!         assert_eq!(msg, "pong");
//!     } else {
//!         let (_t, _src, msg) = p.recv();
//!         assert_eq!(msg, "ping");
//!         p.send(0, "pong", 4);
//!     }
//!     p.id()
//! })
//! .unwrap();
//! assert_eq!(outcome.results, vec![0, 1]);
//! ```

mod clock;
mod cluster;
mod coro;
mod event;
mod fault;
mod net;
mod rng;
mod sched;
mod time;

pub use clock::Category;
pub use cluster::{
    panic_message, Cluster, ClusterConfig, ProcHandle, ProcReport, RunError, RunOutcome,
};
pub use coro::{suspend, Coroutine};
pub use fault::{CrashEvent, FaultDecision, FaultPlan, FaultStats, MAX_CRASHES};
pub use net::NetModel;
pub use rng::SplitMix64;
pub use time::VirtualTime;
