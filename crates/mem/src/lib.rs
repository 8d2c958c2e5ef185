//! Memory substrate for the Midway DSM reproduction.
//!
//! The paper (§3.1) partitions the application's virtual address space into
//! large fixed-size *regions*; data within a region is either shared or
//! private, shared regions are divided into software *cache lines*, and
//! every cache line has a per-processor *dirtybit*. The first page of each
//! region holds a code template that sets the dirtybit for an address in
//! that region.
//!
//! This crate models all of that:
//!
//! * [`Layout`]/[`LayoutBuilder`] — the global region table and allocator
//!   (built once, identical on every processor).
//! * [`LocalStore`] — one processor's cached copy of the shared address
//!   space (each processor caches data locally; an update protocol keeps
//!   copies consistent).
//! * [`DirtyBits`]/[`Template`] — timestamp dirtybits and the per-region
//!   dirtybit-update template of Appendix A.
//! * [`PageTable`] — the simulated virtual-memory state used by VM-DSM:
//!   per-page protection, write faults, and *twins*.
//! * [`diff`] — the word-granularity page diffing used by VM-DSM's write
//!   collection.

mod addr;
pub mod diff;
mod dirty;
mod layout;
mod paging;
mod pool;
mod store;

pub use addr::{
    split_by_region, Addr, AddrRange, PAGE_SHIFT, PAGE_SIZE, REGION_SHIFT, REGION_SIZE,
};
pub use dirty::{DirtyBits, ScanOutcome, StoreKind, Template, DIRTY, EPOCH, MAX_TIMESTAMP};
pub use layout::{Alloc, Layout, LayoutBuilder, MemClass, RegionDesc, RegionId};
pub use paging::{PageTable, RegionPages, WriteAccess};
pub use pool::BufPool;
pub use store::{LocalStore, Slab};
