//! Dynamic entry-consistency checker for the Midway reproduction.
//!
//! Midway's correctness contract is that every shared datum is bound to a
//! synchronization object and only touched while that object is held; the
//! write-detection machinery silently ships wrong data when an
//! application breaks the contract. This crate detects such breaks
//! dynamically. Its input is the run's one recording, an [`OpStream`] per
//! processor — the same stream a trace stores and a replay applies — which
//! a checked run extends with coalesced reads and each lock home's
//! grants. [`analyze`] walks the streams in a happens-before order built
//! from program order, the grant order and barrier episodes (no clock
//! reading is involved) and runs a vector-clock analysis that reports
//! four kinds of [`Finding`]:
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
//! A finding names its access by processor and op index in that
//! processor's stream. The checker is strictly off-clock: recording
//! happens outside the simulator's virtual-time accounting, no messages
//! change, and a run with checking enabled is bit-for-bit identical to
//! one without.

mod analyze;
mod clock;
mod report;
mod spec;
mod stream;

pub use analyze::{analyze, analyze_highest_first};
pub use report::{CheckReport, Finding, FindingKind, Staleness};
pub use spec::{BarrierRanges, CheckSpec};
pub use stream::{OpStream, Ops, TraceOp};
