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
//! A processor's recording is an [`OpStream`]: a 16-byte head per op,
//! with every `Write`'s bytes appended to one buffer and every `Rebind`'s
//! ranges to one table, so recording a store allocates nothing of its
//! own. Iterating a stream yields [`TraceOp`] views that borrow those
//! payloads; replay, the codec and every report read them. The portable
//! binary encoding lives in the `midway-replay` crate.

use std::sync::Arc;

use midway_check::BarrierRanges;
use midway_mem::{AddrRange, LayoutBuilder, MemClass, Template};
use midway_proto::Binding;

use crate::setup::SystemSpec;

/// One recorded operation of a processor's shared-memory stream, as an
/// [`OpStream`] hands it out: a `Write`'s bytes and a `Rebind`'s ranges
/// are borrowed from the stream that holds them.
///
/// `Work`/`Idle` preserve the virtual-time shape of the computation;
/// everything else is a shared-memory or synchronization event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp<'a> {
    /// Application compute: advance the clock by `cycles`.
    Work { cycles: u64 },
    /// Back off for `cycles` while serving protocol requests.
    Idle { cycles: u64 },
    /// One write trap covering `data.len()` bytes at `addr` (a word,
    /// doubleword or area store), and the bytes it left in memory.
    Write { addr: u64, data: &'a [u8] },
    /// Lock acquire, exclusive or shared.
    Acquire { lock: u32, exclusive: bool },
    /// Lock release, exclusive or shared.
    Release { lock: u32, exclusive: bool },
    /// Rebind the lock to new ranges (caller holds it exclusively).
    Rebind { lock: u32, ranges: &'a [AddrRange] },
    /// Cross a barrier.
    Barrier { barrier: u32 },
}

/// The fixed-size part of one op in an [`OpStream`]. A `Write`'s bytes
/// and a `Rebind`'s ranges follow the previous ones in the stream's side
/// buffers, so a head holds only their count.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Head {
    Work(u64),
    Idle(u64),
    Write { addr: u64, len: u32 },
    Acquire { lock: u32, exclusive: bool },
    Release { lock: u32, exclusive: bool },
    Rebind { lock: u32, ranges: u32 },
    Barrier(u32),
}

const _: () = assert!(std::mem::size_of::<Head>() == 16);

/// One processor's recorded operations, packed: a 16-byte head per op,
/// every `Write`'s bytes appended to one buffer and every `Rebind`'s
/// ranges to one table. Recording a store appends to the three vectors;
/// it allocates nothing of its own.
///
/// [`push`](OpStream::push) appends an op exactly as given; iterating
/// yields the ops pushed, in order, as borrowed [`TraceOp`] views.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct OpStream {
    heads: Vec<Head>,
    bytes: Vec<u8>,
    ranges: Vec<AddrRange>,
}

impl OpStream {
    /// Bytes of memory one op takes besides its payload.
    pub const HEAD_BYTES: usize = std::mem::size_of::<Head>();

    /// An empty stream with room for `ops` ops that write `bytes` bytes
    /// and rebind to `ranges` ranges in all.
    pub fn with_capacity(ops: usize, bytes: usize, ranges: usize) -> OpStream {
        OpStream {
            heads: Vec::with_capacity(ops),
            bytes: Vec::with_capacity(bytes),
            ranges: Vec::with_capacity(ranges),
        }
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the stream holds no op.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The ops in the order they were pushed.
    pub fn iter(&self) -> Ops<'_> {
        Ops {
            heads: self.heads.iter(),
            bytes: &self.bytes,
            ranges: &self.ranges,
        }
    }

    /// Appends `op`.
    ///
    /// # Panics
    ///
    /// Panics if a `Write` covers or a `Rebind` names 2^32 or more bytes
    /// or ranges (a store never leaves its 4 MiB region).
    #[inline]
    pub fn push(&mut self, op: TraceOp<'_>) {
        let count = |n: usize| u32::try_from(n).expect("payload count fits a u32");
        self.heads.push(match op {
            TraceOp::Work { cycles } => Head::Work(cycles),
            TraceOp::Idle { cycles } => Head::Idle(cycles),
            TraceOp::Write { addr, data } => {
                self.bytes.extend_from_slice(data);
                Head::Write {
                    addr,
                    len: count(data.len()),
                }
            }
            TraceOp::Acquire { lock, exclusive } => Head::Acquire { lock, exclusive },
            TraceOp::Release { lock, exclusive } => Head::Release { lock, exclusive },
            TraceOp::Rebind { lock, ranges } => {
                self.ranges.extend_from_slice(ranges);
                Head::Rebind {
                    lock,
                    ranges: count(ranges.len()),
                }
            }
            TraceOp::Barrier { barrier } => Head::Barrier(barrier),
        });
    }

    /// Appends `op` as a recording does: a `Work` charge right after
    /// another is added to it (charging 3 then 5 cycles is
    /// indistinguishable from charging 8), which keeps traces small for
    /// apps that charge per element.
    pub(crate) fn record(&mut self, op: TraceOp<'_>) {
        if let (Some(Head::Work(last)), TraceOp::Work { cycles }) = (self.heads.last_mut(), op) {
            *last += cycles;
            return;
        }
        self.push(op);
    }
}

impl std::fmt::Debug for OpStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a OpStream {
    type Item = TraceOp<'a>;
    type IntoIter = Ops<'a>;

    fn into_iter(self) -> Ops<'a> {
        self.iter()
    }
}

impl<'a> FromIterator<TraceOp<'a>> for OpStream {
    fn from_iter<I: IntoIterator<Item = TraceOp<'a>>>(ops: I) -> OpStream {
        let mut s = OpStream::default();
        for op in ops {
            s.push(op);
        }
        s
    }
}

/// The ops of an [`OpStream`], in order.
#[derive(Clone)]
pub struct Ops<'a> {
    heads: std::slice::Iter<'a, Head>,
    /// The payloads of the ops not yet yielded.
    bytes: &'a [u8],
    ranges: &'a [AddrRange],
}

impl<'a> Iterator for Ops<'a> {
    type Item = TraceOp<'a>;

    #[inline]
    fn next(&mut self) -> Option<TraceOp<'a>> {
        Some(match *self.heads.next()? {
            Head::Work(cycles) => TraceOp::Work { cycles },
            Head::Idle(cycles) => TraceOp::Idle { cycles },
            Head::Write { addr, len } => {
                let data;
                (data, self.bytes) = self.bytes.split_at(len as usize);
                TraceOp::Write { addr, data }
            }
            Head::Acquire { lock, exclusive } => TraceOp::Acquire { lock, exclusive },
            Head::Release { lock, exclusive } => TraceOp::Release { lock, exclusive },
            Head::Rebind { lock, ranges } => {
                let taken;
                (taken, self.ranges) = self.ranges.split_at(ranges as usize);
                TraceOp::Rebind {
                    lock,
                    ranges: taken,
                }
            }
            Head::Barrier(barrier) => TraceOp::Barrier { barrier },
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.heads.size_hint()
    }
}

impl ExactSizeIterator for Ops<'_> {}

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
        let ops = [
            TraceOp::Work { cycles: 3 },
            TraceOp::Work { cycles: 5 },
            TraceOp::Barrier { barrier: 0 },
            TraceOp::Work { cycles: 2 },
        ];
        let mut rec = OpStream::default();
        for op in ops {
            rec.record(op);
        }
        assert_eq!(
            rec.iter().collect::<Vec<_>>(),
            [
                TraceOp::Work { cycles: 8 },
                TraceOp::Barrier { barrier: 0 },
                TraceOp::Work { cycles: 2 },
            ]
        );
        let pushed: OpStream = ops.into_iter().collect();
        assert!(pushed.iter().eq(ops));
    }

    /// Random op sequences — runs of `Work`, word and area writes (empty
    /// ones too), rebinds to no range or several, every other kind —
    /// iterate back from a stream exactly as pushed; recorded, they come
    /// back with each `Work` run summed into one op and nothing else
    /// moved.
    #[test]
    fn pushed_ops_iterate_back_unchanged() {
        let mut rng = midway_sim::SplitMix64::new(0x0b57_ea3a);
        for _ in 0..64 {
            let n = rng.next_below(300) as usize;
            let data: Vec<Vec<u8>> = (0..n)
                .map(|_| {
                    let len = [0, 4, 8, rng.next_below(4096)][rng.next_below(4) as usize];
                    (0..len).map(|_| rng.next_u64() as u8).collect()
                })
                .collect();
            let ranges: Vec<Vec<AddrRange>> = (0..n)
                .map(|_| {
                    (0..rng.next_below(4))
                        .map(|_| {
                            let start = rng.next_u64() >> 20;
                            start..start + rng.next_below(1 << 12)
                        })
                        .collect()
                })
                .collect();
            let ops: Vec<TraceOp<'_>> = (0..n)
                .map(|i| {
                    let (lock, exclusive) = (rng.next_below(64) as u32, rng.next_below(2) == 1);
                    match rng.next_below(9) {
                        0..=2 => TraceOp::Work {
                            cycles: rng.next_below(1 << 40),
                        },
                        3 => TraceOp::Idle {
                            cycles: rng.next_below(1 << 20),
                        },
                        4 | 5 => TraceOp::Write {
                            addr: rng.next_u64() >> 8,
                            data: &data[i],
                        },
                        6 => TraceOp::Acquire { lock, exclusive },
                        7 => TraceOp::Release { lock, exclusive },
                        _ if i % 2 == 0 => TraceOp::Rebind {
                            lock,
                            ranges: &ranges[i],
                        },
                        _ => TraceOp::Barrier { barrier: lock },
                    }
                })
                .collect();

            let mut pushed = OpStream::default();
            let mut recorded = OpStream::default();
            for &op in &ops {
                pushed.push(op);
                recorded.record(op);
            }
            assert_eq!(pushed.len(), ops.len());
            assert_eq!(pushed.iter().len(), ops.len());
            assert!(pushed.iter().eq(ops.iter().copied()));
            assert_eq!(pushed, ops.iter().copied().collect());

            let mut coalesced: Vec<TraceOp<'_>> = Vec::new();
            for &op in &ops {
                match (coalesced.last_mut(), op) {
                    (Some(TraceOp::Work { cycles: last }), TraceOp::Work { cycles }) => {
                        *last += cycles;
                    }
                    _ => coalesced.push(op),
                }
            }
            assert!(recorded.iter().eq(coalesced));
        }
    }
}
