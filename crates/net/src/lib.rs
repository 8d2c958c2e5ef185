//! Transport abstraction for the Midway DSM reproduction.
//!
//! The DSM protocol engine in `midway-core` was written against the
//! virtual-time simulator's `ProcHandle`. This crate extracts that
//! surface into the [`Transport`] trait and provides the second
//! implementation the paper's real 8-node cluster calls for:
//! [`RealTransport`], which moves the same messages over real loopback
//! sockets with a wall clock standing in for the virtual clock. Both run
//! every processor as a `midway-sim` coroutine under one loop on the
//! calling thread — over an event queue there, non-blocking sockets here.
//!
//! ```text
//!                    protocol engine (midway-core)
//!                               │ generic over
//!                               ▼
//!                        trait Transport
//!                        ┌──────┴────────┐
//!             ProcHandle<M>          RealTransport<M: Wire>
//!          (midway-sim, impl #1)      (this crate, impl #2)
//!          virtual time, exactly     wall clock, non-blocking
//!          reproducible              loopback TCP
//! ```
//!
//! Real frames are serialized with the dependency-free [`Wire`] codec
//! ([`wire`], which trace files and crash-recovery storage are built on
//! too); [`RealCluster::run`] is the socket-backed counterpart of the
//! simulator's `Cluster::run`: it takes the same `ClusterConfig`, applies
//! its fault plan's loss at the same send site, and returns the same
//! `RunOutcome` or `RunError`.

mod real;
mod transport;
pub mod wire;

pub use real::{RealCluster, RealConfig, RealTransport};
pub use transport::Transport;
pub use wire::{decode_exact, encode_to_vec, Reader, Wire, WireError, Writer};
