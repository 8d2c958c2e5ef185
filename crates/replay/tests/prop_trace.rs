//! Round-trip property tests for the binary trace format, driven by the
//! internal [`SplitMix64`] generator (std-only; the workspace builds
//! offline). Every case derives from a fixed seed and is exactly
//! reproducible.

#[path = "../../net/tests/support/mutate.rs"]
mod mutate;

use midway_core::codec::{seal, unseal};
use midway_core::{
    AllocSpec, BackendKind, BarrierRanges, Counters, FaultPlan, MidwayConfig, OpStream,
    ReliableParams, SpecBlueprint, TraceOp,
};
use midway_mem::{LayoutBuilder, MemClass};
use midway_replay::{Trace, TraceError, TraceMeta};
use midway_sim::SplitMix64;

/// Random allocations, laid out by the layout's own allocator (the
/// decoder replays the sequence and rejects any address it does not
/// reproduce).
fn random_allocs(rng: &mut SplitMix64) -> Vec<AllocSpec> {
    let mut layout = LayoutBuilder::new();
    (0..rng.next_below(5))
        .map(|i| {
            let (name, len) = (format!("a{i}"), 1 + rng.next_below(1 << 16) as usize);
            let (private, line_shift) = (rng.next_below(2) == 1, 2 + rng.next_below(11) as u32);
            let class = if private {
                MemClass::Private
            } else {
                MemClass::Shared
            };
            let addr = layout.alloc(&name, len, class, line_shift).addr.raw();
            AllocSpec {
                name,
                addr,
                len,
                private,
                line_shift,
            }
        })
        .collect()
}

/// A random non-empty range of at most `max` bytes inside one of
/// `allocs`, if there are any.
fn range_in(rng: &mut SplitMix64, allocs: &[AllocSpec], max: u64) -> Option<std::ops::Range<u64>> {
    if allocs.is_empty() {
        return None;
    }
    let a = &allocs[rng.next_below(allocs.len() as u64) as usize];
    let len = 1 + rng.next_below(max.min(a.len as u64));
    let start = a.addr + rng.next_below(a.len as u64 - len + 1);
    Some(start..start + len)
}

/// Up to three random ranges inside `allocs`: the decoder refuses a lock,
/// barrier or partition range outside them.
fn random_ranges(rng: &mut SplitMix64, allocs: &[AllocSpec]) -> Vec<std::ops::Range<u64>> {
    (0..rng.next_below(4))
        .filter_map(|_| range_in(rng, allocs, 4096))
        .collect()
}

/// Pushes a random op naming only the blueprint's `locks` and `barriers`
/// and the trace's `procs` processors (the decoder rejects any other id)
/// and storing, reading or rebinding only inside `allocs`.
fn push_random_op(
    rng: &mut SplitMix64,
    allocs: &[AllocSpec],
    (locks, barriers, procs): (u64, u64, u64),
    stream: &mut OpStream,
) {
    let lock = |rng: &mut SplitMix64| rng.next_below(locks) as u32;
    let (data, ranges): (Vec<u8>, Vec<std::ops::Range<u64>>);
    stream.push(match rng.next_below(9) {
        2 | 7 if allocs.is_empty() => TraceOp::Work { cycles: 1 },
        3..=5 | 8 if locks == 0 => TraceOp::Work { cycles: 1 },
        6 if barriers == 0 => TraceOp::Work { cycles: 1 },
        0 => TraceOp::Work {
            cycles: rng.next_u64() >> rng.next_below(64),
        },
        1 => TraceOp::Idle {
            cycles: rng.next_below(1 << 20),
        },
        2 => {
            let at = range_in(rng, allocs, 64).expect("an allocation");
            let addr = at.start;
            data = at.map(|_| rng.next_below(256) as u8).collect();
            TraceOp::Write { addr, data: &data }
        }
        3 => TraceOp::Acquire {
            lock: lock(rng),
            exclusive: rng.next_below(2) == 1,
        },
        4 => TraceOp::Release {
            lock: lock(rng),
            exclusive: rng.next_below(2) == 1,
        },
        5 => {
            let lock = lock(rng);
            ranges = random_ranges(rng, allocs);
            TraceOp::Rebind {
                lock,
                ranges: &ranges,
            }
        }
        7 => {
            let at = range_in(rng, allocs, 64).expect("an allocation");
            let len = (at.end - at.start) as u32;
            TraceOp::Read {
                addr: at.start,
                len,
            }
        }
        8 => TraceOp::Grant {
            lock: lock(rng),
            to: rng.next_below(procs) as u32,
            exclusive: rng.next_below(2) == 1,
        },
        _ => TraceOp::Barrier {
            barrier: rng.next_below(barriers) as u32,
        },
    });
}

fn random_counters(rng: &mut SplitMix64) -> Counters {
    Counters {
        dirtybits_set: rng.next_u64() >> 32,
        dirtybits_misclassified: rng.next_below(1000),
        clean_dirtybits_read: rng.next_below(1000),
        dirty_dirtybits_read: rng.next_below(1000),
        dirtybits_updated: rng.next_below(1000),
        write_faults: rng.next_below(1000),
        pages_diffed: rng.next_below(1000),
        pages_write_protected: rng.next_below(1000),
        twin_bytes_updated: rng.next_below(1 << 30),
        data_bytes_sent: rng.next_u64() >> 16,
        data_bytes_received: rng.next_u64() >> 16,
        redundant_bytes_received: rng.next_below(1 << 30),
        lock_acquires: rng.next_below(1000),
        lock_transfers_served: rng.next_below(1000),
        full_data_sends: rng.next_below(1000),
        barrier_waits: rng.next_below(1000),
        crashes: rng.next_below(8),
        downtime_cycles: rng.next_below(1 << 24),
        fenced_messages: rng.next_below(1000),
        checkpoints_written: rng.next_below(1000),
        checkpoint_bytes: rng.next_below(1 << 24),
        wal_bytes_logged: rng.next_below(1 << 24),
        recovery_replay_bytes: rng.next_below(1 << 24),
        recovery_cycles: rng.next_below(1 << 24),
    }
}

/// A structurally random trace (metadata, blueprint and op streams drawn
/// at random; beyond what the decoder checks — ids inside the blueprint,
/// allocations the layout reproduces, bindings, stores and rebinds inside
/// them, one partition per processor —
/// it need not describe a *runnable* system: the format must round-trip
/// it regardless).
fn random_trace(rng: &mut SplitMix64) -> Trace {
    let procs = 1 + rng.next_below(6) as usize;
    let backend = [
        BackendKind::Rt,
        BackendKind::Vm,
        BackendKind::Blast,
        BackendKind::TwinAll,
        BackendKind::None,
    ][rng.next_below(5) as usize];
    let mut cfg = MidwayConfig::new(procs, backend);
    cfg.history_cap = rng.next_below(4096) as usize;
    cfg.cost.page_write_fault = rng.next_below(1 << 20);
    cfg.cost.dirtybit_read_clean_us = rng.next_f64() * 100.0;
    cfg.net = cfg.net.scaled(1 + rng.next_below(8), 1 + rng.next_below(8));
    if rng.next_below(2) == 1 {
        // Version 3 header fields: a fault plan and channel tuning.
        cfg.faults = FaultPlan::seeded(rng.next_u64())
            .drop_ppm(rng.next_below(100_000) as u32)
            .dup_ppm(rng.next_below(100_000) as u32)
            .reorder_ppm(rng.next_below(100_000) as u32)
            .delay_ppm(rng.next_below(100_000) as u32);
        cfg.faults.enabled = rng.next_below(4) != 0;
        cfg.faults.max_delay_cycles = rng.next_below(1 << 20);
        cfg.faults.reorder_window_cycles = rng.next_below(1 << 16);
        cfg.reliable = ReliableParams {
            rto_cycles: 1 + rng.next_below(1 << 21),
            backoff_cap: rng.next_below(12) as u32,
            timer_cost_cycles: rng.next_below(1 << 12),
        };
    }
    if rng.next_below(2) == 1 {
        // Version 5 header fields: a crash plan and a checkpoint interval.
        for _ in 0..rng.next_below(4) {
            cfg.faults = cfg.faults.with_crash(
                rng.next_below(procs as u64) as usize,
                1 + rng.next_below(1 << 24),
                1 + rng.next_below(1 << 16),
            );
        }
        cfg.checkpoint_every = rng.next_below(32) as u32;
    }
    let allocs = random_allocs(rng);
    let locks: Vec<_> = (0..rng.next_below(4))
        .map(|_| random_ranges(rng, &allocs))
        .collect();
    let barriers: Vec<_> = (0..rng.next_below(3))
        .map(|_| BarrierRanges {
            ranges: random_ranges(rng, &allocs),
            partitions: if rng.next_below(2) == 1 {
                Some((0..procs).map(|_| random_ranges(rng, &allocs)).collect())
            } else {
                None
            },
        })
        .collect();
    let ops = (0..procs)
        .map(|_| {
            let n = rng.next_below(40) as usize;
            let ids = (locks.len() as u64, barriers.len() as u64, procs as u64);
            let mut stream = OpStream::default();
            for _ in 0..n {
                push_random_op(rng, &allocs, ids, &mut stream);
            }
            stream
        })
        .collect();
    Trace {
        meta: TraceMeta {
            app: format!("app{}", rng.next_below(100)),
            scale: "small".to_string(),
            verified: rng.next_below(2) == 1,
            cfg,
            finish_cycles: rng.next_u64() >> rng.next_below(32),
            messages: rng.next_below(1 << 24),
            counters: (0..procs).map(|_| random_counters(rng)).collect(),
        },
        blueprint: SpecBlueprint {
            allocs,
            locks,
            barriers,
        },
        ops,
    }
}

/// decode(encode(t)) == t for arbitrary traces.
#[test]
fn encode_decode_round_trips() {
    let mut rng = SplitMix64::new(0x7ace_0001);
    for case in 0..128 {
        let trace = random_trace(&mut rng);
        let bytes = trace.encode();
        let back = Trace::decode(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, trace, "case {case}");
        assert_eq!(back.encode(), bytes, "case {case}");
    }
}

/// The decoder keeps a stream's ops as the file has them: adjacent `Work`
/// charges, which a recording would have summed, stay apart, so the
/// decoded trace re-encodes to the bytes it came from.
#[test]
fn decode_keeps_adjacent_work_apart() {
    let mut trace = with_alloc(first_alloc(), TraceOp::Work { cycles: 3 });
    for op in [
        TraceOp::Work { cycles: 5 },
        TraceOp::Write {
            addr: first_alloc().addr,
            data: &[7; 16],
        },
        TraceOp::Work { cycles: 0 },
        TraceOp::Work { cycles: 2 },
    ] {
        trace.ops[0].push(op);
    }
    let bytes = trace.encode();
    let back = Trace::decode(&bytes).expect("decodes");
    assert_eq!(back.ops[0].len(), 5);
    assert_eq!(back, trace);
    assert_eq!(back.encode(), bytes);
}

/// Any truncation of a valid file is rejected, never misread.
#[test]
fn truncation_is_rejected() {
    let mut rng = SplitMix64::new(0x7ace_0002);
    for _ in 0..16 {
        let trace = random_trace(&mut rng);
        let bytes = trace.encode();
        // Every prefix length, for small files; sampled, for larger ones.
        let step = (bytes.len() / 64).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            assert!(
                Trace::decode(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes was accepted",
                bytes.len()
            );
        }
    }
}

/// Any single corrupted byte is rejected by the checksum (FNV-1a steps
/// are injective in the running hash, so one flipped byte always changes
/// the final sum), and a corrupted footer is rejected too.
#[test]
fn corruption_is_rejected() {
    let mut rng = SplitMix64::new(0x7ace_0003);
    for _ in 0..16 {
        let trace = random_trace(&mut rng);
        let bytes = trace.encode();
        for _ in 0..32 {
            let mut bad = bytes.clone();
            let i = rng.next_below(bad.len() as u64) as usize;
            let flip = 1u8 << rng.next_below(8);
            bad[i] ^= flip;
            let expect = if i < 4 {
                // Magic bytes are checked before the checksum.
                TraceError::BadMagic
            } else {
                TraceError::BadChecksum
            };
            match Trace::decode(&bad) {
                Err(e) => assert_eq!(e, expect, "flipped byte {i}"),
                Ok(t) => panic!("corrupt file decoded successfully: byte {i}, {t:?}"),
            }
        }
    }
}

/// `bytes` with its footer recomputed, so a tampered payload reaches the
/// decoder proper instead of stopping at the checksum.
fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
    bytes.truncate(bytes.len() - 8);
    seal(&mut bytes);
    bytes
}

/// Unknown versions are rejected (preserving the checksum so the version
/// check itself is what fires).
#[test]
fn future_versions_are_rejected() {
    let mut rng = SplitMix64::new(0x7ace_0004);
    let trace = random_trace(&mut rng);
    let mut bytes = trace.encode();
    assert_eq!(
        u64::from(bytes[4]),
        midway_replay::VERSION,
        "version varint directly follows the magic"
    );
    bytes[4] = 99;
    assert_eq!(
        Trace::decode(&resealed(bytes)),
        Err(TraceError::BadVersion(99))
    );
}

/// A one-processor trace whose only content is `lock_range` bound to its
/// one lock and `op` as its one operation.
fn tiny_trace(lock_range: std::ops::Range<u64>, op: TraceOp<'_>) -> Trace {
    let mut trace = random_trace(&mut SplitMix64::new(0x7ace_0005));
    trace.meta.cfg.procs = 1;
    trace.meta.counters.truncate(1);
    trace.blueprint = SpecBlueprint {
        allocs: vec![],
        locks: vec![vec![lock_range]],
        barriers: vec![],
    };
    trace.ops = vec![[op].into_iter().collect()];
    trace
}

/// A sealed file whose lock range is `start = u64::MAX - 1, len = 0x7f`
/// used to panic on the addition in debug builds and decode to the
/// inverted range `18446744073709551614..125` in release builds. (The
/// sound file binds the empty range there: it covers no byte, so no
/// allocation has to hold it.)
#[test]
fn sealed_range_overflow_is_malformed_in_every_profile() {
    let trace = tiny_trace(u64::MAX - 1..u64::MAX - 1, TraceOp::Work { cycles: 1 });
    let mut bytes = trace.encode();
    assert_eq!(Trace::decode(&bytes), Ok(trace));
    // start (ten varint bytes), then len = 0: make it 0x7f.
    let start = [
        0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00,
    ];
    let at = bytes
        .windows(start.len())
        .position(|w| w == start)
        .expect("the lock's range is in the file");
    bytes[at + start.len() - 1] = 0x7f;
    assert_eq!(
        Trace::decode(&resealed(bytes)),
        Err(TraceError::Malformed("range end overflows"))
    );
}

/// Lock id `2^32 + 3` is an error, not lock 3: ids are narrowed with a
/// check, never with `as`.
#[test]
fn ids_past_u32_are_malformed_not_truncated() {
    let acquire = TraceOp::Acquire {
        lock: 3,
        exclusive: true,
    };
    let mut bytes = with_alloc(first_alloc(), acquire).encode();
    // The payload ends `1 op · tag 3 · lock 3 · exclusive 1`.
    let at = bytes.len() - 8 - 2;
    assert_eq!(bytes[at - 2..at + 2], [1, 3, 3, 1]);
    bytes.splice(at..=at, [0x83, 0x80, 0x80, 0x80, 0x10]);
    assert_eq!(
        Trace::decode(&resealed(bytes)),
        Err(TraceError::Malformed("field exceeds u32"))
    );
}

/// A well-sealed file whose op names a lock or barrier its own blueprint
/// does not have is malformed: `trace info` and every replay index
/// per-object state with the id.
#[test]
fn op_ids_outside_the_blueprint_are_malformed() {
    let release = TraceOp::Release {
        lock: 0,
        exclusive: true,
    };
    let bytes = with_alloc(first_alloc(), release).encode();
    assert!(Trace::decode(&bytes).is_ok());
    // The payload ends `1 op · tag 4 · lock 0 · exclusive 1`: name lock 1
    // of the blueprint's one lock.
    let mut forged = bytes;
    let at = forged.len() - 8 - 2;
    assert_eq!(forged[at - 2..at + 2], [1, 4, 0, 1]);
    forged[at] = 1;
    assert_eq!(
        Trace::decode(&resealed(forged)),
        Err(TraceError::Malformed("lock id outside the blueprint"))
    );
    let barrier = with_alloc(first_alloc(), TraceOp::Barrier { barrier: 0 }).encode();
    assert_eq!(
        Trace::decode(&barrier),
        Err(TraceError::Malformed("barrier id outside the blueprint"))
    );
    let rebind = TraceOp::Rebind {
        lock: 1,
        ranges: &[],
    };
    assert_eq!(
        decoded(&with_alloc(first_alloc(), rebind)),
        Err(TraceError::Malformed("lock id outside the blueprint"))
    );
}

/// The allocation a fresh layout makes first: 64 shared bytes of 8-byte
/// lines at the base of region 1.
fn first_alloc() -> AllocSpec {
    AllocSpec {
        name: "x".to_string(),
        addr: 1 << 22,
        len: 64,
        private: false,
        line_shift: 3,
    }
}

/// A [`tiny_trace`] whose blueprint allocates `alloc` and binds its
/// first eight bytes to the lock.
fn with_alloc(alloc: AllocSpec, op: TraceOp<'_>) -> Trace {
    let mut trace = tiny_trace(alloc.addr..alloc.addr + 8, op);
    trace.blueprint.allocs = vec![alloc];
    trace
}

/// Decodes `trace`'s encoding, which is sealed: nothing but the decoder
/// proper stands between a forged blueprint and a replay.
fn decoded(trace: &Trace) -> Result<Trace, TraceError> {
    Trace::decode(&trace.encode())
}

/// An allocation the layout's allocator would put elsewhere used to
/// decode and then panic the replay's rebuild (`blueprint rebuild moved
/// allocation`), and a line shift past one page or a zero length panicked
/// the allocator itself: `trace check` and `trace replay` exited 101. A
/// layout larger than any replay could hold is refused before the decoder
/// rebuilds it.
#[test]
fn allocations_a_replay_cannot_rebuild_are_malformed() {
    let work = TraceOp::Work { cycles: 1 };
    assert!(decoded(&with_alloc(first_alloc(), work)).is_ok());
    let x = first_alloc;
    for (alloc, what) in [
        (
            AllocSpec {
                addr: x().addr + 8,
                ..x()
            },
            "allocation the layout does not reproduce",
        ),
        (
            AllocSpec {
                line_shift: 40,
                ..x()
            },
            "allocation line shift out of range",
        ),
        (AllocSpec { len: 0, ..x() }, "zero-length allocation"),
        (
            AllocSpec {
                len: 1 << 41,
                ..x()
            },
            "allocations exceed the layout bound",
        ),
    ] {
        assert_eq!(
            decoded(&with_alloc(alloc, work)),
            Err(TraceError::Malformed(what))
        );
    }
}

/// A write outside every allocation used to reach a processor and panic
/// there (`address … is outside every region`); one that runs off the end
/// of its allocation is refused the same way.
#[test]
fn a_write_outside_every_allocation_is_malformed() {
    let base = first_alloc().addr;
    let write = |addr| TraceOp::Write {
        addr,
        data: &[1; 8],
    };
    assert!(decoded(&with_alloc(first_alloc(), write(base + 56))).is_ok());
    for addr in [0xdead_beef_0000, base + 60, base - 8, u64::MAX - 3] {
        assert_eq!(
            decoded(&with_alloc(first_alloc(), write(addr))),
            Err(TraceError::Malformed("write outside every allocation")),
            "{addr:#x}"
        );
    }
}

/// A read, which a checked recording coalesces and which may run across
/// adjacent allocations, must lie inside their union; a grant must name
/// one of the trace's processors (this one has one).
#[test]
fn reads_outside_the_allocations_and_grants_to_no_processor_are_malformed() {
    let base = first_alloc().addr;
    let read = |addr, len| TraceOp::Read { addr, len };
    let grant = |to| TraceOp::Grant {
        lock: 0,
        to,
        exclusive: true,
    };
    for op in [read(base, 64), read(base + 64, 0), grant(0)] {
        assert!(decoded(&with_alloc(first_alloc(), op)).is_ok(), "{op:?}");
    }
    for op in [read(base + 60, 8), read(base - 8, 8), read(u64::MAX - 3, 8)] {
        assert_eq!(
            decoded(&with_alloc(first_alloc(), op)),
            Err(TraceError::Malformed("read outside the allocations")),
            "{op:?}"
        );
    }
    assert_eq!(
        decoded(&with_alloc(first_alloc(), grant(1))),
        Err(TraceError::Malformed(
            "grant to a processor outside the trace"
        ))
    );
}

/// A replay stores a write into the one 4 MiB region holding its
/// address, so a write that runs on into the next region is refused even
/// inside an allocation that spans both.
#[test]
fn a_write_across_a_region_boundary_is_malformed() {
    let region = 1u64 << 22;
    let big = AllocSpec {
        len: 2 << 22,
        ..first_alloc()
    };
    let write = |addr| TraceOp::Write {
        addr,
        data: &[1; 8],
    };
    for addr in [big.addr + region - 8, big.addr + region] {
        assert!(decoded(&with_alloc(big.clone(), write(addr))).is_ok());
    }
    assert_eq!(
        decoded(&with_alloc(big.clone(), write(big.addr + region - 4))),
        Err(TraceError::Malformed("write across a region boundary"))
    );
}

/// Likewise a rebind to ranges outside every allocation.
#[test]
fn a_rebind_outside_every_allocation_is_malformed() {
    let base = first_alloc().addr;
    let rebind = |ranges: &[std::ops::Range<u64>]| {
        decoded(&with_alloc(
            first_alloc(),
            TraceOp::Rebind { lock: 0, ranges },
        ))
    };
    assert!(rebind(&[base..base + 8, base + 32..base + 64]).is_ok());
    for ranges in [
        [0..8, base..base + 8],
        [base..base + 8, base + 60..base + 72],
    ] {
        assert_eq!(
            rebind(&ranges),
            Err(TraceError::Malformed("rebind outside every allocation"))
        );
    }
}

/// A lock, barrier or partition range outside the allocations used to
/// decode; a replay then failed inside a processor (`address 0x0 is
/// outside every region`), and a partition list shorter than the
/// processor count panicked the node's set-up. Both are malformed now. A
/// binding may span adjacent allocations (`Binding::new` merges adjacent
/// ranges), but not the gap between two that are not adjacent.
#[test]
#[allow(clippy::single_range_in_vec_init)] // one-range bindings are the point here
fn bindings_outside_the_allocations_are_malformed() {
    let mut layout = LayoutBuilder::new();
    let allocs: Vec<AllocSpec> = [("x", 64), ("y", 60), ("z", 8)]
        .map(|(name, len)| AllocSpec {
            addr: layout.alloc(name, len, MemClass::Shared, 3).addr.raw(),
            name: name.to_string(),
            len,
            ..first_alloc()
        })
        .into();
    let (x, y, z) = (allocs[0].addr, allocs[1].addr, allocs[2].addr);
    assert_eq!((y, z), (x + 64, x + 128), "x, y adjacent; a gap before z");
    let decode = |locks: Vec<std::ops::Range<u64>>, barrier: Option<BarrierRanges>| {
        let mut trace = tiny_trace(0..0, TraceOp::Work { cycles: 1 });
        trace.blueprint = SpecBlueprint {
            allocs: allocs.clone(),
            locks: vec![locks],
            barriers: barrier.into_iter().collect(),
        };
        decoded(&trace)
    };
    let barrier = |ranges, partitions| Some(BarrierRanges { ranges, partitions });
    let span = x..y + 60;
    let spanning = barrier(vec![span.clone()], Some(vec![vec![span.clone()]]));
    assert!(decode(vec![span.clone()], spanning).is_ok());

    let outside = "binding outside the allocations";
    let one_each = "partitions not one per processor";
    for (locks, barrier, what) in [
        (vec![0..8], None, outside),
        (vec![x..z + 8], None, outside),
        (vec![span.start..span.end + 1], None, outside),
        (vec![], barrier(vec![0..8], None), outside),
        (vec![], barrier(vec![], Some(vec![vec![0..8]])), outside),
        (vec![], barrier(vec![], Some(vec![])), one_each),
        (
            vec![],
            barrier(vec![], Some(vec![vec![], vec![]])),
            one_each,
        ),
    ] {
        assert_eq!(
            decode(locks.clone(), barrier.clone()),
            Err(TraceError::Malformed(what)),
            "{locks:?} {barrier:?}"
        );
    }
}

/// The trace slice of the hostile-bytes sweep: mutants of re-sealed
/// traces, so the decoder proper sees them. It answers; it never panics,
/// overflows or sizes an allocation from a spliced count.
#[test]
fn mutated_resealed_traces_decode_or_fail_but_never_panic() {
    let mut rng = SplitMix64::new(0x7ace_0006);
    let (mut accepted, mut total) = (0, 0);
    for seed in 0..8 {
        let sound = random_trace(&mut rng).encode();
        let body = unseal(&sound).expect("encoder seals");
        accepted += mutate::sweep(0x7ace_1000 + seed, body, 1_500, |b| {
            let mut file = b.to_vec();
            seal(&mut file);
            Trace::decode(&file).is_ok()
        });
        total += 1_500;
    }
    assert!(
        total >= 10_000 && accepted > 0 && accepted < total,
        "{accepted} of {total}"
    );
}
