//! The declaration of a system: its allocations and the data each lock and
//! barrier is bound to. Written once by the program's setup, it is what
//! the engine builds its layout from, what a trace stores and what the
//! analysis checks accesses against.

use std::sync::Arc;

use midway_mem::{AddrRange, Layout, LayoutBuilder, MemClass, PAGE_SHIFT};

/// One allocation in a [`SpecBlueprint`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllocSpec {
    /// Allocation name, for reports.
    pub name: String,
    /// The base address the original run observed (rebuilds are verified
    /// against it: trace addresses are only meaningful if it reproduces).
    pub addr: u64,
    /// Length in bytes.
    pub len: usize,
    /// Private allocations pay only the misclassification penalty.
    pub private: bool,
    /// Cache-line size as a shift (line is `1 << line_shift` bytes).
    pub line_shift: u32,
}

/// One barrier's bindings: the declaration a trace's blueprint records,
/// and what the checker checks accesses against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BarrierRanges {
    /// The union binding: what RT/VM scan at the barrier, and what
    /// neighbours may *read* after it.
    pub ranges: Vec<AddrRange>,
    /// Per-processor write partitions, if the barrier is partitioned: a
    /// processor may only *write* its own partition, and detection-free
    /// backends ship exactly it.
    pub partitions: Option<Vec<Vec<AddrRange>>>,
}

/// A system's declaration: the allocation sequence plus the lock and
/// barrier bindings, as the program's setup made them.
///
/// The layout allocator is a deterministic bump allocator, so replaying
/// the same allocation sequence reproduces the original base addresses —
/// [`SpecBlueprint::layout`] verifies this, making trace addresses valid
/// against the rebuilt layout.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SpecBlueprint {
    /// Allocations, in the order the original program made them.
    pub allocs: Vec<AllocSpec>,
    /// Lock bindings, indexed by `LockId`.
    pub locks: Vec<Vec<AddrRange>>,
    /// Barrier declarations, indexed by `BarrierId`.
    pub barriers: Vec<BarrierRanges>,
}

impl SpecBlueprint {
    /// Replays the allocation sequence through the layout's bump
    /// allocator.
    ///
    /// # Errors
    ///
    /// The first allocation the allocator refuses (a zero length, a line
    /// outside 4 bytes ..= one page) or places elsewhere than the
    /// blueprint says — possible after [`with_shared_line_shift`] when
    /// several allocations shared a region: what is wrong, and the value.
    ///
    /// [`with_shared_line_shift`]: SpecBlueprint::with_shared_line_shift
    pub fn layout(&self) -> Result<Arc<Layout>, (&'static str, u64)> {
        let mut lb = LayoutBuilder::new();
        for a in &self.allocs {
            if a.len == 0 {
                return Err(("zero-length allocation", 0));
            }
            if !(2..=PAGE_SHIFT).contains(&a.line_shift) {
                return Err(("allocation line shift out of range", a.line_shift.into()));
            }
            let class = match a.private {
                true => MemClass::Private,
                false => MemClass::Shared,
            };
            if lb.alloc(&a.name, a.len, class, a.line_shift).addr.raw() != a.addr {
                return Err(("allocation the layout does not reproduce", a.addr));
            }
        }
        Ok(lb.build())
    }

    /// A copy with every *shared* allocation's cache-line size replaced
    /// (the line-size ablation: replay one trace under many line sizes).
    ///
    /// Only valid when the change keeps every base address in place —
    /// [`layout`](SpecBlueprint::layout) verifies; one shared allocation
    /// per region (the common case) is always safe.
    pub fn with_shared_line_shift(&self, line_shift: u32) -> SpecBlueprint {
        let mut out = self.clone();
        for a in &mut out.allocs {
            if !a.private {
                a.line_shift = line_shift;
            }
        }
        out
    }
}
