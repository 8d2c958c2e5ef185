//! The lock path pinned the way core's
//! `barrier_fingerprints_match_the_materializing_release` pins the barrier
//! path, with the same fingerprint: virtual time, messages, application
//! results, every Table 2 counter and final memory, per backend.

use midway_apps::{quicksort, water};
use midway_core::{codec, BackendKind, Counters, MidwayConfig, MidwayRun};

#[path = "support/fingerprint.rs"]
mod fingerprint;

use fingerprint::fingerprint;

fn quicksort_word(o: &quicksort::Outcome) -> u64 {
    o.leaves_sorted ^ o.tasks_split << 24 ^ u64::from(o.sorted_ok == Some(true)) << 48
}

fn water_word(o: &water::Outcome) -> u64 {
    o.position_checksum.to_bits() ^ o.max_coord.to_bits().rotate_left(1)
}

/// Quicksort (rebinding, full sends, incarnation chains) and water at
/// `Scale::Small` on 4 processors under every data backend, plus one
/// hybrid quicksort whose 32 KB key array is at or above the hybrid's
/// paging threshold, so its paged part traps, harvests and patches twins.
/// The values were recorded by this same test run against the parent
/// commit (26219ae), before RT and the hybrid shared one detector and
/// TwinAll shared VM-DSM's incarnation protocol.
#[test]
fn lock_fingerprints_match_the_parent_commit() {
    let cfg = |b| MidwayConfig::new(4, b);
    let qs = |b, p| fingerprint(&quicksort::run(cfg(b), p), quicksort_word);
    let wa = |b| fingerprint(&water::run(cfg(b), water::Params::small()), water_word);
    let small = quicksort::Params::small();
    let paged = quicksort::run(
        cfg(BackendKind::Hybrid),
        quicksort::Params { n: 8192, ..small },
    );
    assert!(
        paged.counters.iter().any(|c| c.write_faults > 0),
        "the hybrid pages the 8192-key array"
    );
    #[rustfmt::skip]
    let cells: [(&str, [u64; 5]); 11] = [
        ("quicksort rt",
         [0xe058c2, 0x6aa, 0xe56addff8795b25b, 0x1ddf9167ba747ce5, 0xb60952f80bd1af4]),
        ("quicksort vm",
         [0x129be7f, 0x673, 0x242fcad5c338d8c9, 0x48508e74bf4c2d90, 0x9f66e21634853467]),
        ("quicksort blast",
         [0xf3262e, 0x670, 0x45b0988b9f921fb5, 0xbbe569854c9e4bc, 0x668799e32a88b2ce]),
        ("quicksort twinall",
         [0x10a819a, 0x6e1, 0x83dc59b68680b401, 0x74c55a99d2b2eed, 0xe39e0f2e6c97056b]),
        ("quicksort hybrid",
         [0xe058c2, 0x6aa, 0xe56addff8795b25b, 0x1ddf9167ba747ce5, 0xb60952f80bd1af4]),
        ("water rt",
         [0x83f09f, 0x2e2, 0x46f8f40529eda9c6, 0xcc85d78248feafa2, 0xb06c4fd8ffae01cc]),
        ("water vm",
         [0x998c46, 0x2e2, 0x46f8f40529eda9c6, 0x7e1e64606d5d2387, 0xb06c4fd8ffae01cc]),
        ("water blast",
         [0x84486f, 0x2e2, 0x46f8f40529eda9c6, 0x5b543fb50b0ef333, 0xb06c4fd8ffae01cc]),
        ("water twinall",
         [0x98419d, 0x2e2, 0x46f8f40529eda9c6, 0x69b2a70e5669e6db, 0xb06c4fd8ffae01cc]),
        ("water hybrid",
         [0x83f09f, 0x2e2, 0x46f8f40529eda9c6, 0xcc85d78248feafa2, 0xb06c4fd8ffae01cc]),
        ("quicksort 8192 hybrid",
         [0x9fca469, 0x21e9, 0x79c93233be0d86b3, 0x6de5f3205522f056, 0x2dc53816c68ed586]),
    ];
    let got: Vec<[u64; 5]> = BackendKind::DATA
        .into_iter()
        .map(|b| qs(b, small))
        .chain(BackendKind::DATA.into_iter().map(wa))
        .chain([fingerprint(&paged, quicksort_word)])
        .collect();
    for ((label, want), got_row) in cells.iter().zip(&got) {
        assert_eq!(got_row, want, "{label}; all rows now: {got:#x?}");
    }
}
