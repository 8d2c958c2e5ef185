//! Randomized tests for the diff engine, driven by the internal
//! [`SplitMix64`] generator so the workspace tests offline. Every case
//! derives from a fixed seed and is exactly reproducible.

use midway_mem::diff::{PageDiff, WORD};
use midway_mem::{DirtyBits, ScanOutcome, DIRTY, EPOCH, MAX_TIMESTAMP};
use midway_sim::SplitMix64;

/// A random `(current, twin)` page pair of equal length in `1..=512`.
/// Bytes are drawn from a small alphabet so equal words are common and
/// the diffs contain a mix of runs and gaps.
fn page_pair(rng: &mut SplitMix64) -> (Vec<u8>, Vec<u8>) {
    let len = 1 + rng.next_below(512) as usize;
    let page = |rng: &mut SplitMix64| (0..len).map(|_| rng.next_below(4) as u8).collect();
    (page(rng), page(rng))
}

/// `apply(compute(cur, twin), twin) == cur` for arbitrary contents.
#[test]
fn compute_apply_round_trips() {
    let mut rng = SplitMix64::new(0xd1ff_0001);
    for case in 0..256 {
        let (cur, twin) = page_pair(&mut rng);
        let diff = PageDiff::compute(&cur, &twin);
        let mut rebuilt = twin.clone();
        diff.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur, "case {case}");
    }
}

/// Runs are maximal, ordered and word-aligned at the start.
#[test]
fn runs_are_canonical() {
    let mut rng = SplitMix64::new(0xd1ff_0002);
    for case in 0..256 {
        let (cur, twin) = page_pair(&mut rng);
        let diff = PageDiff::compute(&cur, &twin);
        let mut prev_end = None;
        for run in diff.runs() {
            assert_eq!(run.offset % WORD, 0, "runs start on word boundaries");
            assert!(run.len > 0, "case {case}");
            if let Some(end) = prev_end {
                assert!(run.offset > end, "runs are ordered and non-adjacent");
            }
            prev_end = Some(run.range().end);
        }
        // The flat buffer holds exactly the runs' bytes, in run order.
        assert!(diff
            .iter()
            .all(|(at, data)| data == &cur[at..at + data.len()]));
        assert_eq!(diff.iter().count(), diff.run_count(), "case {case}");
    }
}

/// A diff restricted to ranges covers exactly the intersection bytes,
/// and `covered_by` agrees with the restriction being lossless.
#[test]
fn restrict_is_an_intersection() {
    let mut rng = SplitMix64::new(0xd1ff_0003);
    for case in 0..256 {
        let (cur, twin) = page_pair(&mut rng);
        let cut = rng.next_below(512) as usize;
        let len = cur.len();
        let prefix = 0..cut.min(len);
        let ranges = vec![prefix];
        let diff = PageDiff::compute(&cur, &twin);
        let restricted = diff.restrict(&ranges);
        for run in restricted.runs() {
            assert!(run.range().end <= cut.min(len), "case {case}");
        }
        let lossless = restricted.changed_bytes() == diff.changed_bytes();
        assert_eq!(diff.covered_by(&ranges), lossless, "case {case}");
        // Applying the restricted diff to the twin makes the prefix match.
        let mut rebuilt = twin.clone();
        restricted.apply(&mut rebuilt);
        let boundary = cut.min(len);
        // Word granularity may pull in up to WORD-1 bytes past the cut.
        let safe = boundary.saturating_sub(boundary % WORD);
        assert_eq!(&rebuilt[..safe], &cur[..safe], "case {case}");
    }
}

/// The chunked `PageDiff::compute` is byte-for-byte equivalent to the
/// byte-at-a-time reference implementation: same runs, same offsets, same
/// data, over random page/twin pairs with varied lengths (exercising
/// partial tail chunks and tail words) and both dense and sparse change
/// patterns.
#[test]
fn chunked_compute_matches_reference() {
    let mut rng = SplitMix64::new(0xd1ff_0005);
    for case in 0..512 {
        // Lengths deliberately spread around chunk (16) and word (4)
        // boundaries, up to several KiB.
        let len = 1 + rng.next_below(4096) as usize;
        let twin: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        let mut cur = twin.clone();
        match case % 3 {
            // Sparse: a handful of scattered single-byte changes.
            0 => {
                for _ in 0..1 + rng.next_below(8) {
                    let i = rng.next_below(len as u64) as usize;
                    cur[i] ^= 1 + rng.next_below(255) as u8;
                }
            }
            // Dense: most bytes redrawn.
            1 => {
                for b in cur.iter_mut() {
                    if rng.next_below(4) != 0 {
                        *b = rng.next_below(256) as u8;
                    }
                }
            }
            // One contiguous dirty span (the common write pattern).
            _ => {
                let start = rng.next_below(len as u64) as usize;
                let span = 1 + rng.next_below((len - start) as u64) as usize;
                for b in &mut cur[start..start + span] {
                    *b = rng.next_below(256) as u8;
                }
            }
        }
        let chunked = PageDiff::compute(&cur, &twin);
        let reference = PageDiff::compute_reference(&cur, &twin);
        assert_eq!(chunked, reference, "case {case}, len {len}");
    }
}

/// Pins the widened compute at exact block seams: lengths placed around
/// the 64-byte lane width and 8-byte word width, with changes at the
/// first byte, the last byte, and straddling each seam — the places an
/// off-by-one in the lane/tail split would hide.
#[test]
fn block_seam_lengths_match_reference() {
    let mut rng = SplitMix64::new(0xd1ff_0007);
    let lens = [
        1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 71, 72, 73, 127, 128, 129, 191, 192,
        193, 255, 256, 257, 4095, 4096,
    ];
    for &len in &lens {
        let twin: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        let mut positions = vec![0, len - 1, len / 2];
        // Every lane/word seam inside the page, plus a span straddling it.
        for seam in (8..len).step_by(8) {
            positions.push(seam - 1);
            positions.push(seam);
        }
        for pos in positions {
            let mut cur = twin.clone();
            cur[pos] ^= 0x5A;
            assert_eq!(
                PageDiff::compute(&cur, &twin),
                PageDiff::compute_reference(&cur, &twin),
                "len {len}, single change at {pos}"
            );
        }
        // A dirty span straddling the 64-byte lane seam (when present).
        if len > 68 {
            let mut cur = twin.clone();
            for b in &mut cur[60..68] {
                *b ^= 0xFF;
            }
            assert_eq!(
                PageDiff::compute(&cur, &twin),
                PageDiff::compute_reference(&cur, &twin),
                "len {len}, span straddling the lane seam"
            );
        }
    }
}

/// The chunked `DirtyBits::scan` is equivalent to the line-at-a-time
/// reference: same lines sent, same read counts, same lazy stamping — over
/// random dirtybit arrays with mixed dirty / stamped / clean lines and
/// random scan windows.
#[test]
fn chunked_scan_matches_reference() {
    let mut rng = SplitMix64::new(0xd1ff_0006);
    for case in 0..512 {
        let lines = 1 + rng.next_below(600) as usize;
        let last_seen = EPOCH + rng.next_below(40);
        let now = last_seen + 1 + rng.next_below(40);
        let mut a = DirtyBits::new(lines);
        let mut b = DirtyBits::new(lines);
        for line in 0..lines {
            match rng.next_below(8) {
                0 => {
                    a.mark(line);
                    b.mark(line);
                }
                1 | 2 => {
                    let ts = EPOCH + rng.next_below(80);
                    a.stamp(line, ts);
                    b.stamp(line, ts);
                }
                _ => {} // stays at EPOCH
            }
        }
        let start = rng.next_below(lines as u64) as usize;
        let end = start + rng.next_below((lines - start + 1) as u64) as usize;
        let got = a.scan(start..end, last_seen, now);
        let want = b.scan_reference(start..end, last_seen, now);
        assert_eq!(got.lines, want.lines, "case {case}");
        assert_eq!(got.dirty_reads, want.dirty_reads, "case {case}");
        assert_eq!(got.clean_reads, want.clean_reads, "case {case}");
        for line in 0..lines {
            assert_eq!(a.get(line), b.get(line), "case {case}: lazy stamp diverged");
        }
    }
}

/// A timestamp from the whole encodable range, weighted toward its ends:
/// [`DIRTY`], [`EPOCH`], small times, [`MAX_TIMESTAMP`] and just below it.
fn any_timestamp(rng: &mut SplitMix64) -> u64 {
    match rng.next_below(6) {
        0 => DIRTY,
        1 => EPOCH,
        2 => EPOCH + rng.next_below(40),
        3 => MAX_TIMESTAMP - rng.next_below(4),
        4 => MAX_TIMESTAMP / 2 + rng.next_below(4),
        _ => rng.next_below(MAX_TIMESTAMP + 1),
    }
}

/// A dirtybit array and the `u64` model it must read as.
fn modelled_bits(rng: &mut SplitMix64, lines: usize) -> (DirtyBits, Vec<u64>) {
    let mut bits = DirtyBits::new(lines);
    let mut model = vec![EPOCH; lines];
    for (line, want) in model.iter_mut().enumerate() {
        match rng.next_below(3) {
            0 => {}
            1 => {
                bits.mark(line);
                *want = DIRTY;
            }
            _ => {
                *want = any_timestamp(rng);
                bits.stamp(line, *want);
            }
        }
    }
    (bits, model)
}

/// The `u32`, zero-based store reads back exactly the `u64` timestamps
/// written, at both ends of its range.
#[test]
fn dirtybit_encoding_round_trips_against_a_u64_model() {
    let mut rng = SplitMix64::new(0xd1ff_000a);
    for case in 0..256 {
        let lines = 1 + rng.next_below(300) as usize;
        let (bits, model) = modelled_bits(&mut rng, lines);
        for (line, &want) in model.iter().enumerate() {
            assert_eq!(bits.get(line), want, "case {case}, line {line}");
        }
    }
    let mut bits = DirtyBits::new(4);
    for ts in [DIRTY, EPOCH, 2, MAX_TIMESTAMP - 1, MAX_TIMESTAMP] {
        bits.stamp(3, ts);
        assert_eq!(bits.get(3), ts);
    }
}

/// The chunked scan against the line-at-a-time reference over the whole
/// width: stamps up to [`MAX_TIMESTAMP`], `last_seen` up to it and past
/// it, and `now` up to it.
#[test]
fn chunked_scan_matches_reference_across_the_width() {
    let mut rng = SplitMix64::new(0xd1ff_000b);
    let mut sent = 0;
    for case in 0..512 {
        let lines = 1 + rng.next_below(600) as usize;
        let (mut a, model) = modelled_bits(&mut rng, lines);
        let mut b = a.clone();
        let last_seen = match rng.next_below(4) {
            0 => u64::MAX,
            1 => MAX_TIMESTAMP + 1,
            _ => any_timestamp(&mut rng),
        };
        let now = any_timestamp(&mut rng);
        let start = rng.next_below(lines as u64) as usize;
        let end = start + rng.next_below((lines - start + 1) as u64) as usize;
        let mut got = ScanOutcome::default();
        a.scan_into(&mut got, start..end, last_seen, now);
        let want = b.scan_reference(start..end, last_seen, now);
        assert_eq!(got.lines, want.lines, "case {case}");
        assert_eq!(got.dirty_reads, want.dirty_reads, "case {case}");
        assert_eq!(got.clean_reads, want.clean_reads, "case {case}");
        // And the reference against the model's rule.
        let modelled: Vec<usize> = (start..end)
            .filter(|&l| model[l] == DIRTY || model[l] > last_seen)
            .collect();
        assert_eq!(want.lines, modelled, "case {case}");
        for (line, &stamp) in model.iter().enumerate() {
            let stamped = if stamp == DIRTY && (start..end).contains(&line) {
                now
            } else {
                stamp
            };
            assert_eq!(a.get(line), stamped, "case {case}: line {line}");
            assert_eq!(b.get(line), stamped, "case {case}: line {line}");
        }
        sent += want.lines.len();
    }
    assert!(sent > 10_000, "{sent}");
}

/// `take_newer` against the line-by-line rule `stamp != DIRTY && ts >
/// stamp`: the same lines stamped, reported as maximal alternating runs
/// that tile the range in order.
#[test]
fn take_newer_matches_the_line_by_line_rule() {
    let mut rng = SplitMix64::new(0xd1ff_000c);
    let (mut taken, mut kept) = (0, 0);
    for case in 0..512 {
        let lines = 1 + rng.next_below(300) as usize;
        let (mut bits, mut model) = modelled_bits(&mut rng, lines);
        let ts = any_timestamp(&mut rng);
        let start = rng.next_below(lines as u64) as usize;
        let end = start + 1 + rng.next_below((lines - start) as u64) as usize;
        let mut runs = Vec::new();
        bits.take_newer(start..end, ts, |run, take| runs.push((run, take)));
        let mut want: Vec<(std::ops::Range<usize>, bool)> = Vec::new();
        for (line, stamp) in model.iter_mut().enumerate().take(end).skip(start) {
            let take = *stamp != DIRTY && ts > *stamp;
            if take {
                *stamp = ts;
            }
            match want.last_mut() {
                Some((run, t)) if *t == take => *run = run.start..line + 1,
                _ => want.push((line..line + 1, take)),
            }
        }
        assert_eq!(runs, want, "case {case}, ts {ts}");
        for (line, &stamp) in model.iter().enumerate() {
            assert_eq!(bits.get(line), stamp, "case {case}: line {line}");
        }
        for (run, take) in &runs {
            *(if *take { &mut taken } else { &mut kept }) += run.len();
        }
    }
    assert!(taken > 5_000 && kept > 5_000, "{taken} / {kept}");
}

/// `take_newer_line` is `take_newer` over one line: the same stamp left
/// behind, and `true` exactly when that one-line run is taken.
#[test]
fn take_newer_line_is_take_newer_over_one_line() {
    let mut rng = SplitMix64::new(0xd1ff_001e);
    let (mut taken, mut kept) = (0, 0);
    for case in 0..2048 {
        let lines = 1 + rng.next_below(64) as usize;
        let (mut one, _) = modelled_bits(&mut rng, lines);
        let mut range = one.clone();
        let ts = any_timestamp(&mut rng);
        let line = rng.next_below(lines as u64) as usize;
        let mut runs = Vec::new();
        range.take_newer(line..line + 1, ts, |run, take| runs.push((run, take)));
        let take = one.take_newer_line(line, ts);
        assert_eq!(runs, vec![(line..line + 1, take)], "case {case}, ts {ts}");
        for l in 0..lines {
            assert_eq!(one.get(l), range.get(l), "case {case}: line {l}");
        }
        *(if take { &mut taken } else { &mut kept }) += 1;
    }
    assert!(taken > 300 && kept > 300, "{taken} / {kept}");
}

/// Nothing above [`MAX_TIMESTAMP`] is stored: the stamp, the update
/// application and the scan's lazy stamp refuse it, naming the time.
#[test]
fn timestamps_past_the_width_panic_naming_the_timestamp() {
    fn panics_naming(what: &str, f: fn(&mut DirtyBits, u64)) {
        let over = MAX_TIMESTAMP + 1;
        let run = std::panic::AssertUnwindSafe(|| f(&mut DirtyBits::new(4), over));
        let err = std::panic::catch_unwind(run).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains(&over.to_string()), "{what}: {msg}");
    }
    panics_naming("stamp", |b, ts| b.stamp(1, ts));
    panics_naming("take_newer", |b, ts| b.take_newer(0..4, ts, |_, _| {}));
    panics_naming("take_newer_line", |b, ts| {
        b.take_newer_line(2, ts);
    });
    panics_naming("scan", |b, ts| drop(b.scan(0..4, EPOCH, ts)));
}

/// The wire size is data plus one header per run.
#[test]
fn wire_size_accounting() {
    let mut rng = SplitMix64::new(0xd1ff_0004);
    for case in 0..256 {
        let (cur, twin) = page_pair(&mut rng);
        let diff = PageDiff::compute(&cur, &twin);
        assert_eq!(
            diff.wire_size(),
            diff.changed_bytes() + diff.run_count() * midway_mem::diff::RUN_HEADER_BYTES,
            "case {case}"
        );
    }
}

/// The bitmask run extraction against the reference, on the shapes it has
/// to get right — spans that cross 64-byte seams, a block changed in every
/// word (mask `0xFFFF`), lengths that are no multiple of 64 or of 4 — all
/// through one `PageDiff`, a large page alternating with a small one, so
/// a run or byte left over from the larger page would show. Applying the
/// diff, read back out of the flat buffer, reproduces the page.
#[test]
fn bitmask_extraction_matches_reference_through_a_reused_buffer() {
    let mut rng = SplitMix64::new(0xd1ff_0008);
    let mut diff = PageDiff::default();
    let (mut seam_runs, mut full_blocks, mut ragged) = (0, 0, 0);
    for case in 0..512 {
        let len = match case % 2 {
            0 => 2048 + rng.next_below(2049) as usize,
            _ => 1 + rng.next_below(200) as usize,
        };
        let twin: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        let mut cur = twin.clone();
        // Spans starting just before a seam; every byte of a span changes.
        for _ in 0..rng.next_below(6) {
            let seam = 64 * rng.next_below(len as u64 / 64 + 1) as usize;
            let start = seam
                .saturating_sub(rng.next_below(12) as usize)
                .min(len - 1);
            let end = (start + 1 + rng.next_below(200) as usize).min(len);
            for b in &mut cur[start..end] {
                *b ^= 0xFF;
            }
        }
        if case % 3 == 0 && len >= 64 {
            let block = 64 * rng.next_below(len as u64 / 64) as usize;
            for (i, b) in cur[block..block + 64].iter_mut().enumerate() {
                *b = twin[block + i] ^ 0xA5;
            }
            full_blocks += 1;
        }
        PageDiff::compute_into(&mut diff, &cur, &twin);
        assert_eq!(
            diff,
            PageDiff::compute_reference(&cur, &twin),
            "case {case}, len {len}"
        );
        let mut rebuilt = twin.clone();
        diff.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur, "case {case}, len {len}");
        seam_runs += diff
            .runs()
            .iter()
            .filter(|r| r.offset / 64 != (r.range().end - 1) / 64)
            .count();
        ragged += usize::from(len % 64 != 0 && len % WORD != 0);
    }
    assert!(seam_runs > 500 && full_blocks > 100 && ragged > 100);
    // The two fixed shapes: one block changed in every word is one run,
    // and so are two such blocks side by side (the run grows over the seam).
    let twin = vec![0u8; 256];
    let mut cur = twin.clone();
    cur[64..128].fill(1);
    PageDiff::compute_into(&mut diff, &cur, &twin);
    assert_eq!(diff.runs().len(), 1);
    assert_eq!(diff.runs()[0].range(), 64..128);
    cur[128..192].fill(1);
    PageDiff::compute_into(&mut diff, &cur, &twin);
    assert_eq!(diff.runs()[0].range(), 64..192);
    assert_eq!(diff.changed_bytes(), 128);
}

/// `restricted` yields exactly the bytes a per-byte intersection picks —
/// changed words cut to the ranges, in increasing order — over random
/// sorted ranges that may touch or be empty; `restrict` is the same thing
/// materialized and `covered_by` the same thing counted.
#[test]
fn restricted_is_the_per_byte_intersection() {
    let mut rng = SplitMix64::new(0xd1ff_0009);
    for case in 0..256 {
        let (cur, twin) = page_pair(&mut rng);
        let len = cur.len();
        let mut cuts: Vec<usize> = (0..2 * (1 + rng.next_below(5)))
            .map(|_| rng.next_below(len as u64 + 1) as usize)
            .collect();
        cuts.sort_unstable();
        let ranges: Vec<_> = cuts.chunks(2).map(|c| c[0]..c[1]).collect();
        let word_changed = |i: usize| {
            let w = i / WORD * WORD;
            cur[w..(w + WORD).min(len)] != twin[w..(w + WORD).min(len)]
        };
        let want: Vec<(usize, u8)> = (0..len)
            .filter(|&i| word_changed(i) && ranges.iter().any(|r| r.contains(&i)))
            .map(|i| (i, cur[i]))
            .collect();
        let diff = PageDiff::compute(&cur, &twin);
        let got: Vec<(usize, u8)> = diff
            .restricted(&ranges)
            .flat_map(|(at, data)| data.iter().enumerate().map(move |(k, &b)| (at + k, b)))
            .collect();
        assert_eq!(got, want, "case {case}");
        assert!(diff.restricted(&ranges).all(|(_, data)| !data.is_empty()));
        let restricted = diff.restrict(&ranges);
        assert!(
            restricted.iter().eq(diff.restricted(&ranges)),
            "case {case}"
        );
        assert_eq!(restricted.changed_bytes(), want.len(), "case {case}");
        let all = (0..len).filter(|&i| word_changed(i)).count();
        assert_eq!(diff.covered_by(&ranges), want.len() == all, "case {case}");
    }
}

/// Random `mark` / `stamp` / `take_newer` / `take_newer_line` /
/// `scan_into` sequences over arrays of two to four chunks, the last one
/// partial, against a flat `u64` model: every line reads as the model
/// says, every scan and every reported run is the model's (runs maximal
/// across chunk boundaries), and the count of per-line chunks follows
/// the rule chunks split and join by. A chunk of one value splits when
/// an operation leaves its lines unequal, or a single line takes an
/// update; a split chunk joins again when `take_newer` over the whole
/// chunk leaves every line at the update's stamp, or a scan of the whole
/// chunk sends a line and leaves all its lines equal. A split chunk is
/// packed or per-line, and `per_line_chunks` counts both: stamps come
/// from a pool of 24 values, so a packed chunk's palette fills, drops the
/// values no line holds, and overflows to per-line, and marks land on
/// packed chunks as well as on one-value and per-line ones.
#[test]
fn chunked_dirtybits_match_a_flat_model_across_chunk_boundaries() {
    const CHUNK: usize = DirtyBits::CHUNK_LINES;
    let mut rng = SplitMix64::new(0xd1ff_000e);
    let (mut splits, mut joins) = (0, 0);
    for case in 0..48 {
        let lines = CHUNK * (1 + rng.next_below(3) as usize)
            + 1
            + rng.next_below(CHUNK as u64 - 1) as usize;
        let chunks = lines.div_ceil(CHUNK);
        let chunk_of = |c: usize| c * CHUNK..((c + 1) * CHUNK).min(lines);
        let mut bits = DirtyBits::new(lines);
        let mut model = vec![EPOCH; lines];
        let mut split = vec![false; chunks];
        // 24 timestamps: more than a palette holds, few enough that lines
        // still agree and chunks join.
        let ts_of = |rng: &mut SplitMix64| match rng.next_below(26) {
            0 => DIRTY,
            1 => any_timestamp(rng),
            k => k,
        };
        for step in 0..300 {
            let at = format!("case {case}, step {step}");
            // Whole chunks, the whole array, or a run of up to two chunks.
            let range = match rng.next_below(4) {
                0 => chunk_of(rng.next_below(chunks as u64) as usize),
                1 => 0..lines,
                _ => {
                    let start = rng.next_below(lines as u64) as usize;
                    let most = (lines - start).min(2 * CHUNK) as u64;
                    start..start + rng.next_below(most + 1) as usize
                }
            };
            let whole = |c: usize| range.start <= c * CHUNK && chunk_of(c).end <= range.end;
            let piece = |c: usize| chunk_of(c).filter(|l| range.contains(l));
            let all_at =
                |model: &[u64], c: usize, ts: u64| model[chunk_of(c)].iter().all(|&t| t == ts);
            let was = split.clone();
            match rng.next_below(5) {
                0 | 1 => {
                    // Up to eight lines of one chunk, so palettes fill.
                    let c = rng.next_below(chunks as u64) as usize;
                    for _ in 0..1 + rng.next_below(8) {
                        let line =
                            chunk_of(c).start + rng.next_below(chunk_of(c).len() as u64) as usize;
                        let ts = ts_of(&mut rng);
                        if ts == DIRTY && rng.next_below(2) == 0 {
                            bits.mark(line);
                        } else {
                            bits.stamp(line, ts);
                        }
                        split[c] |= model[line] != ts;
                        model[line] = ts;
                    }
                }
                2 => {
                    let (ts, stamp) = {
                        let ts = ts_of(&mut rng);
                        (ts, ts.max(EPOCH))
                    };
                    let mut runs = Vec::new();
                    bits.take_newer(range.clone(), ts, |run, take| runs.push((run, take)));
                    let mut want: Vec<(std::ops::Range<usize>, bool)> = Vec::new();
                    let mut took = vec![false; chunks];
                    for line in range.clone() {
                        let take = model[line] != DIRTY && stamp > model[line];
                        if take {
                            model[line] = stamp;
                            took[line / CHUNK] = true;
                        }
                        match want.last_mut() {
                            Some((run, t)) if *t == take => run.end = line + 1,
                            _ => want.push((line..line + 1, take)),
                        }
                    }
                    assert_eq!(runs, want, "{at}: runs");
                    for c in range.start / CHUNK..range.end.div_ceil(CHUNK) {
                        if !split[c] {
                            split[c] = took[c] && !whole(c);
                        } else if whole(c) && all_at(&model, c, stamp) {
                            split[c] = false;
                        }
                    }
                }
                3 => {
                    let line = rng.next_below(lines as u64) as usize;
                    let ts = ts_of(&mut rng);
                    let take = model[line] != DIRTY && ts.max(EPOCH) > model[line];
                    assert_eq!(bits.take_newer_line(line, ts), take, "{at}: line {line}");
                    if take {
                        model[line] = ts.max(EPOCH);
                        split[line / CHUNK] = true;
                    }
                }
                _ => {
                    let (last_seen, now) = (ts_of(&mut rng), 1 + rng.next_below(9));
                    let mut out = ScanOutcome::default();
                    bits.scan_into(&mut out, range.clone(), last_seen, now);
                    let sent: Vec<usize> = range
                        .clone()
                        .filter(|&l| model[l] == DIRTY || model[l] > last_seen)
                        .collect();
                    assert_eq!(out.lines, sent, "{at}: scan");
                    assert_eq!(out.dirty_reads, sent.len() as u64, "{at}");
                    assert_eq!(out.clean_reads, (range.len() - sent.len()) as u64, "{at}");
                    for c in range.start / CHUNK..range.end.div_ceil(CHUNK) {
                        let stamped = piece(c).any(|l| model[l] == DIRTY);
                        let sent = piece(c).any(|l| model[l] == DIRTY || model[l] > last_seen);
                        for l in piece(c) {
                            if model[l] == DIRTY {
                                model[l] = now;
                            }
                        }
                        if !split[c] {
                            split[c] = stamped && !whole(c);
                        } else if whole(c) && sent && all_at(&model, c, model[c * CHUNK]) {
                            split[c] = false;
                        }
                    }
                }
            }
            for (line, &want) in model.iter().enumerate() {
                assert_eq!(bits.get(line), want, "{at}: line {line}");
            }
            let want = split.iter().filter(|&&s| s).count();
            assert_eq!(bits.per_line_chunks(), want, "{at}: per-line chunks");
            for (before, after) in was.iter().zip(&split) {
                splits += usize::from(!before && *after);
                joins += usize::from(*before && !after);
            }
        }
    }
    assert!(splits > 100 && joins > 50, "{splits} splits, {joins} joins");
}

/// Stamping every line of a chunk and scanning it, or applying one
/// update over a whole chunk, leaves the chunk one value, per-line or
/// packed before: a page of dirtybits under one stamp costs one word
/// again.
#[test]
fn whole_chunk_stamps_collapse() {
    const CHUNK: usize = DirtyBits::CHUNK_LINES;
    let lines = 2 * CHUNK + 100;
    let mut bits = DirtyBits::new(lines);
    assert_eq!(bits.per_line_chunks(), 0);
    // A store into every line of the first chunk and the partial last one.
    for line in (0..CHUNK).chain(2 * CHUNK..lines) {
        bits.mark(line);
    }
    bits.stamp(CHUNK + 5, 9);
    assert_eq!(bits.per_line_chunks(), 3);
    let out = bits.scan(0..lines, 20, 30);
    assert_eq!(out.dirty_reads as usize, CHUNK + 100);
    assert_eq!(bits.per_line_chunks(), 1, "the middle chunk still differs");
    // An update newer than every line of the middle chunk.
    let mut runs = Vec::new();
    bits.take_newer(CHUNK..2 * CHUNK, 40, |run, take| runs.push((run, take)));
    assert_eq!(runs, vec![(CHUNK..2 * CHUNK, true)]);
    assert_eq!(bits.per_line_chunks(), 0);
    for l in 0..lines {
        let stamp = if (CHUNK..2 * CHUNK).contains(&l) {
            40
        } else {
            30
        };
        assert_eq!(bits.get(l), stamp, "line {l}");
    }
    // Runs stay maximal across chunk boundaries.
    let mut runs = Vec::new();
    bits.take_newer(10..lines, 35, |run, take| runs.push((run, take)));
    assert_eq!(
        runs,
        vec![
            (10..CHUNK, true),
            (CHUNK..2 * CHUNK, false),
            (2 * CHUNK..lines, true)
        ]
    );
    // A packed chunk joins the same way: its lines stamped DIRTY one at a
    // time, then sent and stamped by a scan of the whole chunk.
    let mut bits = DirtyBits::new(lines);
    for line in 0..CHUNK {
        bits.stamp(line, DIRTY);
    }
    bits.stamp(CHUNK, 7);
    assert_eq!(bits.per_line_chunks(), 2);
    let out = bits.scan(0..CHUNK, 20, 30);
    assert_eq!(out.dirty_reads as usize, CHUNK);
    assert_eq!(bits.per_line_chunks(), 1, "the second chunk still differs");
    assert!((0..CHUNK).all(|l| bits.get(l) == 30));
}
