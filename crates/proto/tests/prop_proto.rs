//! Randomized tests for bindings and the home-lock state machine,
//! driven by the internal [`SplitMix64`] generator so the workspace
//! tests offline. Every case derives from a fixed seed and is exactly
//! reproducible.

use midway_proto::{Binding, HomeLock, Mode};
use midway_sim::SplitMix64;

fn random_ranges(rng: &mut SplitMix64) -> Vec<std::ops::Range<u64>> {
    let n = rng.next_below(12) as usize;
    (0..n)
        .map(|_| {
            let s = rng.next_below(500);
            let l = rng.next_below(60);
            s..s + l
        })
        .collect()
}

/// Normalization preserves the covered byte set and yields sorted,
/// disjoint, non-empty ranges.
#[test]
fn binding_normalization_is_canonical() {
    let mut rng = SplitMix64::new(0xb1d_0001);
    for case in 0..256 {
        let ranges = random_ranges(&mut rng);
        let binding = Binding::new(ranges.clone());
        let norm = binding.ranges();
        for w in norm.windows(2) {
            assert!(w[0].end < w[1].start, "sorted, disjoint, non-adjacent");
        }
        for r in norm {
            assert!(r.start < r.end, "non-empty (case {case})");
        }
        // Same byte set.
        let covered = |rs: &[std::ops::Range<u64>], b: u64| rs.iter().any(|r| r.contains(&b));
        for b in (0..560).step_by(7) {
            assert_eq!(
                covered(&ranges, b),
                covered(norm, b),
                "byte {b} case {case}"
            );
        }
        // data_bytes equals the measure of the set.
        let measure = (0..600).filter(|b| covered(norm, *b)).count() as u64;
        assert_eq!(binding.data_bytes(), measure, "case {case}");
    }
}

/// The home-lock state machine never grants conflicting modes and
/// never loses a request: after all acquirers release, every request
/// has been granted exactly once.
#[test]
fn home_lock_safety_and_liveness() {
    let mut rng = SplitMix64::new(0xb1d_0003);
    for case in 0..256 {
        let steps = 1 + rng.next_below(40) as usize;
        let script: Vec<(usize, bool)> = (0..steps)
            .map(|_| (rng.next_below(6) as usize, rng.next_below(2) == 1))
            .collect();

        let mut lock = HomeLock::new(0);
        // Track state per processor: None = idle, Some(mode) = granted.
        let mut granted: [Option<Mode>; 6] = [None; 6];
        let mut waiting: [Option<Mode>; 6] = [None; 6];
        let mut total_requests = 0usize;
        let mut total_grants = 0usize;

        let apply_transfers = |transfers: Vec<midway_proto::Transfer>,
                               granted: &mut [Option<Mode>; 6],
                               waiting: &mut [Option<Mode>; 6],
                               total_grants: &mut usize| {
            for t in transfers {
                assert_eq!(waiting[t.requester], Some(t.mode), "grant without request");
                waiting[t.requester] = None;
                granted[t.requester] = Some(t.mode);
                *total_grants += 1;
            }
        };

        for (p, exclusive) in script {
            let mode = if exclusive {
                Mode::Exclusive
            } else {
                Mode::Shared
            };
            if granted[p].is_some() {
                // Release whatever this processor holds.
                let held = granted[p].take().expect("checked");
                let transfers = lock.release(p, held);
                apply_transfers(transfers, &mut granted, &mut waiting, &mut total_grants);
            } else if waiting[p].is_none() {
                waiting[p] = Some(mode);
                total_requests += 1;
                let transfers = lock.acquire(p, mode, (0, 0));
                apply_transfers(transfers, &mut granted, &mut waiting, &mut total_grants);
            }
            // Safety: at most one exclusive holder, and never readers
            // alongside a writer.
            let writers = granted
                .iter()
                .filter(|g| **g == Some(Mode::Exclusive))
                .count();
            let readers = granted.iter().filter(|g| **g == Some(Mode::Shared)).count();
            assert!(writers <= 1, "case {case}");
            assert!(writers == 0 || readers == 0, "case {case}");
        }
        // Drain: release everything still granted until quiescent.
        while let Some(p) = (0..6).find(|p| granted[*p].is_some()) {
            let held = granted[p].take().expect("checked");
            let transfers = lock.release(p, held);
            apply_transfers(transfers, &mut granted, &mut waiting, &mut total_grants);
        }
        assert_eq!(
            total_grants, total_requests,
            "requests lost or duplicated (case {case})"
        );
        assert!(waiting.iter().all(|w| w.is_none()), "case {case}");
    }
}
