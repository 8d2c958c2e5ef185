//! Trace capture: the system declaration needed to replay a run, and the
//! per-processor operation stream it replays.
//!
//! Both are the checker's input too, so they live in `midway-check` and
//! are re-exported here. The declaration — [`SpecBlueprint`] — is the one
//! every [`SystemSpec`](crate::SystemSpec) is built from, and the stream —
//! [`OpStream`], whose ops are [`TraceOp`]s — is what each processor
//! records with [`record`](crate::MidwayConfig::record) or
//! [`check`](crate::MidwayConfig::check) on; reads and lock grants are in
//! it only when checking. The simulator is conservative and
//! deterministic, so replaying the recorded streams through the same
//! protocol machinery reproduces the original run bit for bit; replaying
//! them under a *different* backend, line size, fault cost or network
//! model is the standard trace-driven way to evaluate a design point
//! without re-running the application. The portable binary encoding lives
//! in the `midway-replay` crate.

pub use midway_check::{AllocSpec, OpStream, Ops, SpecBlueprint, TraceOp};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use midway_mem::AddrRange;

    use super::*;
    use crate::setup::{SystemBuilder, SystemSpec};
    use crate::BarrierRanges;

    fn sample_spec() -> Arc<SystemSpec> {
        let mut b = SystemBuilder::new();
        let x = b.shared_array::<f64>("x", 64, 4);
        let s = b.private_array::<u64>("scratch", 16);
        let _ = b.lock(vec![x.range(32..64), x.range(0..32), x.range(8..16)]);
        let _ = b.barrier_partitioned(
            vec![x.full_range()],
            vec![vec![x.range(0..32)], vec![x.range(32..64)]],
        );
        let _ = s;
        b.build()
    }

    /// The builder records the declaration as the program makes it, with
    /// each binding normalized as `Binding::new` normalizes it, and a
    /// spec built from that record again has the same layout and
    /// declaration.
    #[test]
    fn the_builder_records_the_declaration_a_spec_is_rebuilt_from() {
        let spec = sample_spec();
        let bp = spec.blueprint();
        let x = spec.layout().allocs()[0].range();
        let scratch = spec.layout().allocs()[1].range();
        let alloc = |name: &str, r: &AddrRange, private, line_shift| AllocSpec {
            name: name.to_string(),
            addr: r.start,
            len: (r.end - r.start) as usize,
            private,
            line_shift,
        };
        assert_eq!(
            bp.allocs,
            [
                alloc("x", &x, false, 5),
                alloc("scratch", &scratch, true, 3)
            ]
        );
        assert_eq!(bp.locks, [vec![x.clone()]]);
        let half = x.start + 256;
        assert_eq!(
            bp.barriers,
            [BarrierRanges {
                ranges: vec![x.clone()],
                partitions: Some(vec![vec![x.start..half], vec![half..x.end]]),
            }]
        );
        let rebuilt = SystemSpec::new(bp.clone());
        assert_eq!(rebuilt.blueprint(), bp);
        assert_eq!((rebuilt.locks(), rebuilt.barriers()), (1, 1));
        let allocs = spec.layout().allocs();
        for (a, b) in allocs.iter().zip(rebuilt.layout().allocs()) {
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.len, b.len);
        }
    }

    #[test]
    fn line_shift_override_rebuilds_with_new_lines() {
        let spec = sample_spec();
        let rebuilt = SystemSpec::new(spec.blueprint().with_shared_line_shift(9));
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
    /// ones too), runs of nearby reads, rebinds to no range or several,
    /// every other kind — iterate back from a stream exactly as pushed;
    /// recorded, they come back with each `Work` run summed into one op,
    /// each read that repeats or extends the one before folded into it,
    /// and nothing else moved.
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
                    match rng.next_below(11) {
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
                        8 => TraceOp::Read {
                            addr: rng.next_below(64),
                            len: rng.next_below(16) as u32 + 1,
                        },
                        9 => TraceOp::Grant {
                            lock,
                            to: rng.next_below(8) as u32,
                            exclusive,
                        },
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
                    (Some(TraceOp::Read { addr: a, len: l }), TraceOp::Read { addr, len }) => {
                        let (end, new_end) = (*a + u64::from(*l), addr + u64::from(len));
                        if addr == end || new_end == *a {
                            *a = (*a).min(addr);
                            *l += len;
                        } else if addr < *a || new_end > end {
                            coalesced.push(op);
                        }
                    }
                    _ => coalesced.push(op),
                }
            }
            assert!(recorded.iter().eq(coalesced));
        }
    }
}
