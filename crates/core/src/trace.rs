//! Trace capture: the per-processor shared-memory operation stream and
//! the system blueprint needed to replay it.
//!
//! Under entry consistency the whole analysis of a run — every Table 2
//! counter, every virtual time — is a pure function of each processor's
//! sequence of *shared stores, synchronization operations and compute
//! charges*. Reads are local and free (Midway is update-based, so there
//! are no read misses) and therefore never recorded. The simulator is
//! conservative and deterministic, so replaying the recorded streams
//! through the same protocol machinery reproduces the original run bit
//! for bit; replaying them under a *different* backend, line size, fault
//! cost or network model is the standard trace-driven way to evaluate a
//! design point without re-running the application.
//!
//! [`TraceOp`] is the in-memory representation; the portable binary
//! encoding lives in the `midway-replay` crate.

use std::sync::Arc;

use midway_check::BarrierRanges;
use midway_mem::{AddrRange, LayoutBuilder, MemClass, Template};
use midway_proto::Binding;

use crate::setup::SystemSpec;

/// One recorded operation of a processor's shared-memory stream.
///
/// `Work`/`Idle` preserve the virtual-time shape of the computation;
/// everything else is a shared-memory or synchronization event. Adjacent
/// `Work` charges are coalesced at record time (charging 3 then 5 cycles
/// is indistinguishable from charging 8), which keeps traces small for
/// apps that charge per element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// Application compute: advance the clock by `cycles`.
    Work { cycles: u64 },
    /// Back off for `cycles` while serving protocol requests.
    Idle { cycles: u64 },
    /// One write trap covering `data.len()` bytes at `addr` (a word,
    /// doubleword or area store), and the bytes it left in memory.
    Write { addr: u64, data: Vec<u8> },
    /// Lock acquire, exclusive or shared.
    Acquire { lock: u32, exclusive: bool },
    /// Lock release, exclusive or shared.
    Release { lock: u32, exclusive: bool },
    /// Rebind the lock to new ranges (caller holds it exclusively).
    Rebind { lock: u32, ranges: Vec<AddrRange> },
    /// Cross a barrier.
    Barrier { barrier: u32 },
}

/// Appends `op` to a recording, coalescing adjacent `Work` charges.
pub(crate) fn push_op(rec: &mut Vec<TraceOp>, op: TraceOp) {
    if let (Some(TraceOp::Work { cycles: last }), TraceOp::Work { cycles }) = (rec.last_mut(), &op)
    {
        *last += cycles;
        return;
    }
    rec.push(op);
}

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

/// Everything needed to rebuild a run's [`SystemSpec`] from a trace file:
/// the allocation sequence plus the lock and barrier declarations.
///
/// The layout allocator is a deterministic bump allocator, so replaying
/// the same allocation sequence reproduces the original base addresses —
/// [`SpecBlueprint::build`] verifies this, making trace addresses valid
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
    /// Captures the blueprint of an existing system description.
    pub fn capture(spec: &SystemSpec) -> SpecBlueprint {
        let layout = spec.layout();
        let allocs = layout
            .allocs()
            .iter()
            .map(|a| {
                let desc = layout.region_of(a.addr);
                AllocSpec {
                    name: a.name.clone(),
                    addr: a.addr.raw(),
                    len: a.len,
                    private: desc.class == MemClass::Private,
                    line_shift: desc.line_shift,
                }
            })
            .collect();
        let locks = spec.locks.iter().map(|b| b.ranges().to_vec()).collect();
        let barriers = spec
            .barriers
            .iter()
            .map(|(b, parts)| BarrierRanges {
                ranges: b.ranges().to_vec(),
                partitions: parts
                    .as_ref()
                    .map(|ps| ps.iter().map(|p| p.ranges().to_vec()).collect()),
            })
            .collect();
        SpecBlueprint {
            allocs,
            locks,
            barriers,
        }
    }

    /// Rebuilds the system description by replaying the allocation
    /// sequence.
    ///
    /// # Panics
    ///
    /// Panics if any allocation lands at a different address than the
    /// original run observed (possible after [`with_shared_line_shift`]
    /// when several allocations shared a region): the trace's addresses
    /// would be meaningless against such a layout.
    ///
    /// [`with_shared_line_shift`]: SpecBlueprint::with_shared_line_shift
    pub fn build(&self) -> Arc<SystemSpec> {
        let mut lb = LayoutBuilder::new();
        for a in &self.allocs {
            let class = if a.private {
                MemClass::Private
            } else {
                MemClass::Shared
            };
            let alloc = lb.alloc(&a.name, a.len, class, a.line_shift);
            assert_eq!(
                alloc.addr.raw(),
                a.addr,
                "blueprint rebuild moved allocation `{}`: trace addresses would be invalid",
                a.name
            );
        }
        let layout = lb.build();
        let templates = (0..layout.region_slots())
            .map(|id| layout.region(id).map(Template::for_region))
            .collect();
        Arc::new(SystemSpec {
            layout,
            templates,
            locks: self.locks.iter().cloned().map(Binding::new).collect(),
            barriers: self
                .barriers
                .iter()
                .map(|b| {
                    (
                        Binding::new(b.ranges.clone()),
                        b.partitions
                            .as_ref()
                            .map(|ps| ps.iter().cloned().map(Binding::new).collect()),
                    )
                })
                .collect(),
        })
    }

    /// A copy with every *shared* allocation's cache-line size replaced
    /// (the line-size ablation: replay one trace under many line sizes).
    ///
    /// Only valid when the change keeps every base address in place —
    /// [`build`](SpecBlueprint::build) verifies; one shared allocation per
    /// region (the common case) is always safe.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SystemBuilder;

    fn sample_spec() -> Arc<SystemSpec> {
        let mut b = SystemBuilder::new();
        let x = b.shared_array::<f64>("x", 64, 4);
        let s = b.private_array::<u64>("scratch", 16);
        let _ = b.lock(vec![x.range(0..32)]);
        let _ = b.barrier_partitioned(
            vec![x.full_range()],
            vec![vec![x.range(0..32)], vec![x.range(32..64)]],
        );
        let _ = s;
        b.build()
    }

    #[test]
    fn capture_then_build_reproduces_layout_and_sync() {
        let spec = sample_spec();
        let bp = SpecBlueprint::capture(&spec);
        let rebuilt = bp.build();
        assert_eq!(SpecBlueprint::capture(&rebuilt), bp);
        assert_eq!(rebuilt.locks(), spec.locks());
        assert_eq!(rebuilt.barriers(), spec.barriers());
        let allocs = spec.layout().allocs();
        for (a, b) in allocs.iter().zip(rebuilt.layout().allocs()) {
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.len, b.len);
        }
    }

    #[test]
    fn line_shift_override_rebuilds_with_new_lines() {
        let spec = sample_spec();
        let bp = SpecBlueprint::capture(&spec).with_shared_line_shift(9);
        let rebuilt = bp.build();
        let a = &rebuilt.layout().allocs()[0];
        assert_eq!(rebuilt.layout().region_of(a.addr).line_size(), 512);
    }

    #[test]
    fn work_charges_coalesce() {
        let mut rec = Vec::new();
        push_op(&mut rec, TraceOp::Work { cycles: 3 });
        push_op(&mut rec, TraceOp::Work { cycles: 5 });
        push_op(&mut rec, TraceOp::Barrier { barrier: 0 });
        push_op(&mut rec, TraceOp::Work { cycles: 2 });
        assert_eq!(
            rec,
            vec![
                TraceOp::Work { cycles: 8 },
                TraceOp::Barrier { barrier: 0 },
                TraceOp::Work { cycles: 2 },
            ]
        );
    }
}
