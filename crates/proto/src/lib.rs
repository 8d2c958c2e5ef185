//! Entry-consistency protocol pieces for the Midway DSM reproduction.
//!
//! Midway (paper §3) provides *entry consistency*: processes synchronize
//! through locks and barriers, the programmer binds data to each
//! synchronization object, and at a synchronization point exactly the bound
//! data is made consistent. This crate holds the protocol's building
//! blocks, kept free of any simulator dependency so each piece is
//! unit-testable in isolation:
//!
//! * [`LamportClock`] — the logical time that orders cache-line updates in
//!   RT-DSM (§3.2).
//! * [`Binding`] — the lock/barrier ↔ data association, including the
//!   dynamic rebinding `quicksort` exercises.
//! * [`UpdateSet`]/[`PackedSet`]/[`Update`] — the consistency updates
//!   shipped between processors, with wire-size accounting: barrier
//!   contributions own their items, lock grants pack theirs into one
//!   buffer.
//! * [`rt`] — RT-DSM write collection: timestamp dirtybit scans and update
//!   application (§3.2).
//! * [`vm`] — VM-DSM write collection: twins, diffs, and the per-lock
//!   incarnation history (§3.4); its `snapshot` of the full bound data is
//!   also the whole payload of the §3.5 "blast" strawman.
//! * [`HomeLock`] — the home-node lock state machine (exclusive and
//!   non-exclusive modes).
//! * [`BarrierSite`] — the manager-side barrier state machine.
//! * [`TreeSite`] — the combining-tree barrier, the scale-out alternative
//!   to the flat site (bounded per-node fan-in at hundreds of
//!   processors), with [`HomeMap`] assigning lock homes and barrier
//!   managers (modulo or hash-sharded).
//! * [`channel`] — the reliable-delivery channel (sequence numbers,
//!   cumulative acks, retransmission with backoff) that keeps all of the
//!   above correct on a lossy network.

mod binding;
pub mod channel;
mod clock;
mod home;
pub mod rt;
mod sync_id;
mod tree;
mod update;
pub mod vm;

pub use binding::Binding;
pub use channel::{Accept, RecvChannel, ReliableParams, SendChannel, RELIABLE_HEADER_BYTES};
pub use clock::LamportClock;
pub use home::{BarrierError, BarrierSite, HomeLock, SeenToken, Transfer};
pub use sync_id::{BarrierId, HomeMap, LockId, Mode};
pub use tree::{TreeSite, TreeStep, TreeTopology};
pub use update::{
    Fill, ItemRef, Items, MaskedSet, PackedSet, Update, UpdateItem, UpdateSet, Visible,
    MSG_HEADER_BYTES,
};
