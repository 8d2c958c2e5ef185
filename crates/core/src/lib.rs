//! The Midway distributed shared memory reproduction.
//!
//! This crate implements the system of *"Software Write Detection for a
//! Distributed Shared Memory"* (Zekauskas, Sawdon & Bershad, OSDI '94):
//! an entry-consistency DSM with pluggable write-detection backends under
//! two update protocols — RT-DSM (compiler/runtime dirtybits, the paper's
//! contribution; its detector also runs the §5 hybrid, which pages large
//! regions) and VM-DSM (page protection, twins and diffs; twin-everything
//! shares its incarnation protocol), plus the §3.5 blast strawman —
//! running on a deterministic virtual-time cluster simulator.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use midway_core::{BackendKind, Midway, MidwayConfig, SystemBuilder};
//!
//! // Two processors increment a shared counter under a lock.
//! let mut b = SystemBuilder::new();
//! let counter = b.shared_array::<u64>("counter", 1, 1);
//! let lock = b.lock(vec![counter.full_range()]);
//! let spec = b.build();
//!
//! let run = Midway::run(MidwayConfig::new(2, BackendKind::Rt), &spec, |p| {
//!     for _ in 0..10 {
//!         p.acquire(lock);
//!         let v = p.read(&counter, 0);
//!         p.write(&counter, 0, v + 1);
//!         p.release(lock);
//!     }
//!     p.acquire(lock);
//!     let v = p.read(&counter, 0);
//!     p.release(lock);
//!     v
//! })
//! .unwrap();
//! // Whoever read last saw all 20 increments.
//! assert_eq!(*run.results.iter().max().unwrap(), 20);
//! ```

mod api;
mod config;
mod counters;
pub mod detect;
mod msg;
mod node;
pub mod report;
mod run;
mod setup;
pub mod trace;
mod wire;

/// The hostile-bytes sweep shared by every decoder built on the codec.
#[cfg(test)]
#[path = "../../net/tests/support/mutate.rs"]
mod mutate;

/// The run fingerprint the barrier and lock pins share.
#[cfg(test)]
#[path = "../../../tests/tests/support/fingerprint.rs"]
mod fingerprint;

pub use api::{Proc, View};
pub use config::{BackendKind, BarrierShape, MidwayConfig};
pub use counters::{AvgCounters, Counters};
pub use detect::{DetectCx, Trap, WriteDetector};
pub use msg::{DsmMsg, GrantPayload, NetMsg};
pub use run::{Midway, MidwayRun};
pub use setup::{Scalar, SharedArray, SystemBuilder, SystemSpec};
pub use trace::{AllocSpec, OpStream, SpecBlueprint, TraceOp};

// Re-export the identifiers applications need.
pub use midway_check::{
    analyze, analyze_highest_first, BarrierRanges, CheckReport, Finding, FindingKind, Staleness,
};
pub use midway_mem::AddrRange;
pub use midway_net::wire as codec;
pub use midway_net::{RealConfig, RealTransport, Transport};
pub use midway_proto::{BarrierId, HomeMap, LockId, Mode};
pub use midway_sim::{FaultPlan, NetModel, RunError, SplitMix64, VirtualTime};
pub use midway_stats::CostModel;
