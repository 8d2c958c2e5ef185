//! The lock path pinned the way core's
//! `barrier_fingerprints_match_the_materializing_release` pins the barrier
//! path, with the same fingerprint: virtual time, messages, application
//! results, every Table 2 counter and final memory, per backend. The
//! store path is pinned the same way, with the clock breakdown, the trace
//! bytes and the checker report added.

use midway_apps::{matmul, quicksort, sor, water, AppKind, Scale};
use midway_core::{codec, BackendKind, Counters, MidwayConfig, MidwayRun};
use midway_replay::{record_app, Trace};

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

fn matrix_word(o: &matmul::Outcome) -> u64 {
    o.checksum.to_bits() ^ o.max_sample_error.to_bits().rotate_left(1)
}

/// [`fingerprint`] plus what a run's stores leave beyond memory and the
/// counters: FNV-1a of every processor's per-category clock breakdown,
/// of the recorded trace's bytes, and of the checker's report.
fn store_path<R>(app: &str, run: &MidwayRun<R>, result: impl Fn(&R) -> u64) -> [u64; 8] {
    let breakdown: Vec<u8> = run
        .reports
        .iter()
        .flat_map(|r| r.breakdown)
        .flat_map(u64::to_le_bytes)
        .collect();
    let trace = Trace::from_run(app, "small", true, run).encode();
    let report = format!("{:?}", run.check.as_ref().expect("the checker is on"));
    let [finish, messages, results, counters, digests] = fingerprint(run, result);
    [
        finish,
        messages,
        results,
        counters,
        digests,
        codec::fnv1a64(&breakdown),
        codec::fnv1a64(&trace),
        codec::fnv1a64(report.as_bytes()),
    ]
}

/// Quicksort and matrix, whose element loops run through store views, at
/// `Scale::Small` on 4 processors under every data backend, with
/// recording, the checker and checkpointing (every second boundary) all
/// on: every side effect of a store — its trap and its cycles, its
/// write-ahead-log record, its op in the recording the trace stores and
/// the checker reads — is in the fingerprint. The values were recorded by
/// this same test run against the parent commit (50d520d), before views;
/// the last two of each row, the trace and the report, again when a
/// checked recording gained its reads and grants and a finding its op
/// index.
#[test]
fn store_path_fingerprints_match_the_parent_commit() {
    let cfg = |b| {
        MidwayConfig::new(4, b)
            .record(true)
            .check(true)
            .checkpoint_every(2)
    };
    #[rustfmt::skip]
    let cells: [(&str, [u64; 8]); 10] = [
        ("quicksort rt",
         [0x11320f2, 0x6e2, 0xb40db1cf21152671, 0x309bcb8d2f155e5,
          0x5b2fdf7e294348c, 0x9bd53f0ac511e404, 0x98719a55f8fab4e2, 0x8f4fa8db18c61e83]),
        ("quicksort vm",
         [0x152b27e, 0x6a0, 0xc6100681d0c5408b, 0x52d91bc89d2f03d0,
          0x33d0adadbfd7b623, 0xa606ee49860a1eed, 0x731351123c450a24, 0x6fc090c2111a2d6a]),
        ("quicksort blast",
         [0x144726b, 0x6bb, 0xc16247c28419a801, 0x8cf95a5e800cdb5,
          0x5830dc0ca75c4860, 0xde2bc237be764a92, 0xcb1a44dc923e34f7, 0x1383ee0c89fcbe24]),
        ("quicksort twinall",
         [0x12d750b, 0x65a, 0xf08ceb51e6fab009, 0xc6e53e15258899ba,
          0x2728dbd0adc6d81e, 0x61f5ea8905463a5d, 0x2916dc713702d134, 0xb4f8765064713eda]),
        ("quicksort hybrid",
         [0x11320f2, 0x6e2, 0xb40db1cf21152671, 0x309bcb8d2f155e5,
          0x5b2fdf7e294348c, 0x9bd53f0ac511e404, 0xc078e7f6c8e82a5d, 0x8f4fa8db18c61e83]),
        ("matrix rt",
         [0x3bd5e, 0xc, 0x2434b6e44ac2da35, 0xe69760e5108bd4a9,
          0x7b306d491ba6b417, 0x77e1dfcb5470f6dd, 0xee0f5b39e58d5df0, 0x8a21e9d94bb2605c]),
        ("matrix vm",
         [0x61a1e, 0xc, 0x2434b6e44ac2da35, 0x9d3521df407dc3af,
          0x7b306d491ba6b417, 0x5370d8f38b6cd74c, 0x469c5cf5b410f9df, 0x8a21e9d94bb2605c]),
        ("matrix blast",
         [0x3a2e8, 0xc, 0x2434b6e44ac2da35, 0xeb02d3cd99afa0eb,
          0x7b306d491ba6b417, 0x2fb7c293720900dd, 0x54872f4a862b8480, 0x8a21e9d94bb2605c]),
        ("matrix twinall",
         [0x41633, 0xc, 0x2434b6e44ac2da35, 0xfc9696699a67dc27,
          0x7b306d491ba6b417, 0xc062ca25f2a171e0, 0x64ab7fce10402b74, 0x8a21e9d94bb2605c]),
        ("matrix hybrid",
         [0x3bd5e, 0xc, 0x2434b6e44ac2da35, 0xe69760e5108bd4a9,
          0x7b306d491ba6b417, 0x77e1dfcb5470f6dd, 0x26de9e02aa40d709, 0x8a21e9d94bb2605c]),
    ];
    let got: Vec<[u64; 8]> = BackendKind::DATA
        .into_iter()
        .map(|b| {
            let run = quicksort::run(cfg(b), quicksort::Params::small());
            store_path("quicksort", &run, quicksort_word)
        })
        .chain(BackendKind::DATA.into_iter().map(|b| {
            let run = matmul::run(cfg(b), matmul::Params::small());
            store_path("matrix", &run, matrix_word)
        }))
        .collect();
    for ((label, want), got_row) in cells.iter().zip(&got) {
        assert_eq!(got_row, want, "{label}; all rows now: {got:#x?}");
    }
}

fn sor_word(o: &sor::Outcome) -> u64 {
    let words = [
        o.stripe_checksum.to_bits(),
        o.final_residual.to_bits(),
        o.initial_residual.to_bits(),
    ];
    codec::fnv1a64(&words.map(u64::to_le_bytes).concat())
}

/// The host kernels' summation orders, which no other pin reaches: sor at
/// `Scale::Small` under every data backend (its residuals and stripe
/// checksums as `to_bits` words, so a reassociated sum moves them), and
/// matrix at n = 37, which no multiple of a row kernel's output width
/// divides. Same configuration and fingerprint as
/// [`store_path_fingerprints_match_the_parent_commit`]. The values were
/// recorded by this same test run against the parent commit (5ecb0bc),
/// before sor relaxed one colour per row pass and matrix computed several
/// outputs per pass over a row of A; the last two of each row as there.
#[test]
fn kernel_fingerprints_match_the_parent_commit() {
    let cfg = |b| {
        MidwayConfig::new(4, b)
            .record(true)
            .check(true)
            .checkpoint_every(2)
    };
    #[rustfmt::skip]
    let cells: [(&str, [u64; 8]); 6] = [
        ("sor rt",
         [0xc0e28, 0x4e, 0x321f9e3609a3e22c, 0x4d05e5c4591bb64,
          0x303c58d8216649bb, 0x5bb5b66bb85530a9, 0x139167e6118bf963, 0x904b3f377b4e137f]),
        ("sor vm",
         [0x14c39e, 0x4e, 0x321f9e3609a3e22c, 0x64002e9983558ef0,
          0x303c58d8216649bb, 0x428db077c8904d12, 0x4d94b71794ee004d, 0x904b3f377b4e137f]),
        ("sor blast",
         [0xc81df, 0x4e, 0x321f9e3609a3e22c, 0xdeb49accc806149a,
          0x303c58d8216649bb, 0xb839e4fedec43386, 0xf98408c9be74112, 0x904b3f377b4e137f]),
        ("sor twinall",
         [0xe3f5b, 0x4e, 0x321f9e3609a3e22c, 0xca0a32b9b7cf8e70,
          0x303c58d8216649bb, 0xb7ae05e95b63b54a, 0x4287876987ccc9c9, 0x904b3f377b4e137f]),
        ("sor hybrid",
         [0xc0e28, 0x4e, 0x321f9e3609a3e22c, 0x4d05e5c4591bb64,
          0x303c58d8216649bb, 0x5bb5b66bb85530a9, 0x7dac7484a180b6f8, 0x904b3f377b4e137f]),
        ("matrix 37 rt",
         [0x75d6e, 0xc, 0x2cf9c7755da32445, 0xa0d238b4af845c24,
          0xdc435cffe00097cc, 0x1955ac14800901bc, 0xbce6625b96e30d86, 0xf4ca905a9de78606]),
    ];
    let got: Vec<[u64; 8]> = BackendKind::DATA
        .into_iter()
        .map(|b| {
            let run = sor::run(cfg(b), sor::Params::small());
            store_path("sor", &run, sor_word)
        })
        .chain([{
            let p = matmul::Params {
                n: 37,
                ..matmul::Params::small()
            };
            store_path("matrix", &matmul::run(cfg(BackendKind::Rt), p), matrix_word)
        }])
        .collect();
    for ((label, want), got_row) in cells.iter().zip(&got) {
        assert_eq!(got_row, want, "{label}; all rows now: {got:#x?}");
    }
}

/// The `MWTR` bytes of plain recordings: FNV-1a of `Trace::encode()` for
/// sor and quicksort at `Scale::Small` on 4 processors, RT and VM, with
/// the version byte set back to 5 and the file resealed. A pin that moves
/// means the encoding changed, not only a run. The values were recorded
/// by this same test run against the parent commit (7df2152), before op
/// streams were packed; version 6 added ops only checked runs record.
#[test]
fn trace_bytes_match_the_parent_commit() {
    let cells: [(&str, AppKind, BackendKind, u64); 4] = [
        ("sor rt", AppKind::Sor, BackendKind::Rt, 0xae92ef77b44f2611),
        ("sor vm", AppKind::Sor, BackendKind::Vm, 0xbd027154b0ba4cbe),
        (
            "quicksort rt",
            AppKind::Quicksort,
            BackendKind::Rt,
            0x31dad23e9ff1c715,
        ),
        (
            "quicksort vm",
            AppKind::Quicksort,
            BackendKind::Vm,
            0x81357b4c3ba2047f,
        ),
    ];
    let got: Vec<u64> = cells
        .iter()
        .map(|&(_, app, b, _)| {
            let mut bytes = record_app(app, MidwayConfig::new(4, b), Scale::Small).encode();
            // The version is the single-byte varint after the 4-byte magic.
            bytes[4] = 5;
            bytes.truncate(bytes.len() - 8);
            codec::seal(&mut bytes);
            codec::fnv1a64(&bytes)
        })
        .collect();
    for ((label, .., want), got) in cells.iter().zip(&got) {
        assert_eq!(got, want, "{label}; got {got:#x}");
    }
}
