//! The static system description the analysis checks accesses against.

use std::sync::Arc;

use midway_mem::{AddrRange, Layout};

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

/// The synchronization-object layout of a system: everything static the
/// happens-before analysis needs. Built from the core crate's
/// `SystemSpec` (or a replayed blueprint) before the run starts.
#[derive(Clone, Debug)]
pub struct CheckSpec {
    /// The memory layout (region classes, line sizes, allocation names).
    pub layout: Arc<Layout>,
    /// Initial per-lock bound ranges, indexed by lock id.
    pub locks: Vec<Vec<AddrRange>>,
    /// Per-barrier bindings, indexed by barrier id.
    pub barriers: Vec<BarrierRanges>,
}

impl CheckSpec {
    /// The name of the allocation containing `addr`, for provenance.
    pub fn alloc_name(&self, addr: u64) -> Option<&str> {
        self.layout
            .allocs()
            .iter()
            .find(|a| a.range().contains(&addr))
            .map(|a| a.name.as_str())
    }
}
