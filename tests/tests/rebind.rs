//! Lock rebinding (paper §2: "the association between data and
//! synchronization objects can be changed at runtime"), across the stack:
//! the binding a holder sees, the data a post-rebind transfer ships, and
//! the recorded `Rebind` operation's round-trip through the trace format.

use midway_core::{BackendKind, Midway, MidwayConfig, Proc, SystemBuilder, TraceOp};
use midway_replay::{verify_replay, Trace};

#[test]
fn rebind_while_exclusive_updates_the_holder_binding() {
    let mut b = SystemBuilder::new();
    let data = b.shared_array::<u64>("data", 8, 1);
    let lock = b.lock(vec![data.full_range()]);
    let spec = b.build();
    let run = Midway::run(
        MidwayConfig::new(2, BackendKind::Rt),
        &spec,
        |p: &mut Proc| {
            if p.id() == 0 {
                p.acquire(lock);
                let before = p.bound_ranges(lock);
                p.rebind(lock, vec![data.range(4..8)]);
                let after = p.bound_ranges(lock);
                p.write(&data, 5, 9);
                p.release(lock);
                (before, after)
            } else {
                (Vec::new(), Vec::new())
            }
        },
    )
    .unwrap();
    let (before, after) = &run.results[0];
    assert_eq!(before, &[data.full_range()]);
    assert_eq!(after, &[data.range(4..8)]);
}

/// A write inside the rebound range must reach the next holder on every
/// data-moving backend: bindings travel with grants, and collection scans
/// the *new* ranges.
#[test]
fn transfer_after_rebind_ships_the_new_range() {
    for backend in BackendKind::DATA {
        let mut b = SystemBuilder::new();
        let data = b.shared_array::<u64>("data", 8, 1);
        let lock = b.lock(vec![data.full_range()]);
        let spec = b.build();
        let run = Midway::run(MidwayConfig::new(2, backend), &spec, |p: &mut Proc| {
            if p.id() == 0 {
                p.acquire(lock);
                p.rebind(lock, vec![data.range(4..8)]);
                p.write(&data, 5, 77);
                p.release(lock);
                0
            } else {
                // Home serialization orders this grant after the release.
                p.idle(50_000);
                p.acquire(lock);
                let v = p.read(&data, 5);
                p.release(lock);
                v
            }
        })
        .unwrap();
        assert_eq!(run.results[1], 77, "under {}", backend.label());
    }
}

#[test]
fn recorded_rebind_round_trips_and_replays_bit_for_bit() {
    let mut b = SystemBuilder::new();
    let data = b.shared_array::<u64>("data", 8, 1);
    let lock = b.lock(vec![data.full_range()]);
    let spec = b.build();
    let cfg = MidwayConfig::new(2, BackendKind::Rt).record(true);
    let run = Midway::run(cfg, &spec, |p: &mut Proc| {
        if p.id() == 0 {
            p.acquire(lock);
            p.rebind(lock, vec![data.range(0..4)]);
            p.write(&data, 1, 5);
            p.release(lock);
        } else {
            p.idle(50_000);
            p.acquire(lock);
            p.write(&data, 2, 6);
            p.release(lock);
        }
    })
    .unwrap();
    let trace = Trace::from_run("rebind", "tiny", true, &run);
    let decoded = Trace::decode(&trace.encode()).expect("round-trip");
    assert_eq!(decoded, trace, "encode/decode must be lossless");
    let rebinds: Vec<_> = decoded
        .ops
        .iter()
        .flatten()
        .filter(|op| matches!(op, TraceOp::Rebind { .. }))
        .collect();
    assert_eq!(rebinds.len(), 1, "the rebind survives the format");
    match rebinds[0] {
        TraceOp::Rebind { lock: l, ranges } => {
            assert_eq!(l, 0);
            assert_eq!(ranges, [data.range(0..4)]);
        }
        _ => unreachable!(),
    }
    verify_replay(&decoded).expect("replayed rebind run stays bit-for-bit");
}
