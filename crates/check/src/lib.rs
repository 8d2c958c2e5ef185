//! Dynamic entry-consistency checker for the Midway reproduction.
//!
//! Midway's correctness contract is that every shared datum is bound to a
//! synchronization object and only touched while that object is held; the
//! write-detection machinery silently ships wrong data when an
//! application breaks the contract. This crate detects such breaks
//! dynamically: the core runtime's hooks append to a per-processor
//! [`CheckLog`] during the run, and [`analyze`] merges the logs afterward
//! into a vector-clock happens-before analysis that reports four kinds of
//! [`Finding`]:
//!
//! * [`FindingKind::UnguardedWrite`] — a store outside every held
//!   exclusive lock's binding and outside the writer's barrier partition;
//! * [`FindingKind::UnguardedRead`] — a load outside every held lock's
//!   binding and every barrier binding;
//! * [`FindingKind::StaleRead`] — a load of a line whose most recent
//!   write does not happen-before the reader's clock;
//! * [`FindingKind::BindingViolation`] — an access that misses a held
//!   lock's current binding but falls in ranges retired by `rebind`.
//!
//! The checker is strictly off-clock: logging happens outside the
//! simulator's virtual-time accounting, no messages change, and a run
//! with checking enabled is bit-for-bit identical to one without.

mod analyze;
mod clock;
mod event;
mod report;
mod spec;

pub use analyze::analyze;
pub use event::{CheckEvent, CheckLog};
pub use report::{ApplyStats, CheckReport, Finding, FindingKind, Staleness};
pub use spec::{BarrierRanges, CheckSpec};
