//! Word-granularity page diffing for VM-DSM write collection.
//!
//! A *diff* is "a succinct description of all modifications to the page"
//! (paper §3.4): the changed words, run-length encoded. Runs matter twice:
//! they determine the wire size of an update and they drive the diff cost
//! model (a fragmented page costs more to diff than a uniform one —
//! Table 1's 260 µs vs 1870 µs endpoints).

use std::ops::Range;

/// Comparison granularity: the paper diffs in words.
pub const WORD: usize = 4;

/// One maximal run of changed bytes within a page: an index entry over
/// its [`PageDiff`]'s byte buffer, not a buffer of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiffRun {
    /// Byte offset of the run within the page.
    pub offset: usize,
    /// Length of the run in bytes.
    pub len: usize,
}

impl DiffRun {
    /// The byte range this run covers.
    pub fn range(&self) -> Range<usize> {
        self.offset..self.offset + self.len
    }
}

/// All modifications to one page, relative to its twin.
///
/// Flat: the runs index one contiguous buffer holding every run's new
/// bytes back to back, so computing a diff allocates nothing once the two
/// vectors have grown to a page's worth, and readers borrow the bytes
/// ([`iter`](Self::iter), [`restricted`](Self::restricted)) instead of
/// owning a copy per run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PageDiff {
    /// Maximal changed runs, in increasing offset order, non-adjacent.
    runs: Vec<DiffRun>,
    /// The runs' new bytes, concatenated in run order.
    bytes: Vec<u8>,
}

/// Wire overhead per run: offset + length descriptors.
pub const RUN_HEADER_BYTES: usize = 8;

/// Block width of the chunked scan: sixteen words per step.
const BLOCK: usize = 64;

/// Whether two 64-byte blocks differ anywhere. XORed as eight `u64` lanes
/// — a shape the autovectorizer turns into vector compares — so an equal
/// block, the overwhelmingly common case on a mostly-clean page, costs one
/// combined test.
#[inline]
fn blocks_differ(current: &[u8; BLOCK], twin: &[u8; BLOCK]) -> bool {
    let lane = |block: &[u8; BLOCK], l: usize| {
        u64::from_le_bytes(block[l * 8..l * 8 + 8].try_into().expect("8 bytes"))
    };
    (0..BLOCK / 8).fold(0, |any, l| any | (lane(current, l) ^ lane(twin, l))) != 0
}

impl PageDiff {
    /// Compares `current` against `twin` word by word.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn compute(current: &[u8], twin: &[u8]) -> PageDiff {
        let mut diff = PageDiff::default();
        Self::compute_into(&mut diff, current, twin);
        diff
    }

    /// [`compute`](Self::compute) into a caller-owned buffer: clears
    /// `out` and fills it. Collection loops diff page after page; reusing
    /// one `PageDiff` allocates nothing in the steady state.
    ///
    /// The scan runs 64 bytes at a time. An equal block costs one test; a
    /// differing one yields a 16-bit changed-word mask, whose runs of ones
    /// are the block's changed runs (`trailing_zeros` / `trailing_ones`).
    /// A run reaching the end of a block stays open and grows into the
    /// next one, and each finished run is copied out once, whole. The
    /// result is identical to [`compute_reference`](Self::compute_reference)
    /// (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn compute_into(out: &mut PageDiff, current: &[u8], twin: &[u8]) {
        assert_eq!(current.len(), twin.len(), "page and twin must match");
        out.runs.clear();
        out.bytes.clear();
        // The run still growing. Empty until the first changed word; an
        // empty run at 0 is extended by a change at offset 0 like any
        // other adjacent one.
        let mut open = 0..0;
        let (blocks, twin_blocks) = (current.chunks_exact(BLOCK), twin.chunks_exact(BLOCK));
        let (tail, twin_tail) = (blocks.remainder(), twin_blocks.remainder());
        for (i, (a, b)) in blocks.zip(twin_blocks).enumerate() {
            let (a, b) = (a.try_into().expect("block"), b.try_into().expect("block"));
            // Equal blocks stay in this loop; everything else is out of line.
            if blocks_differ(a, b) {
                out.push_block(&mut open, current, i * BLOCK, a, b);
            }
        }
        // The tail, fewer than sixteen words and the last one possibly
        // partial, is a block once both sides are padded alike; a run in
        // it is clipped to the page.
        if !tail.is_empty() {
            let (mut a, mut b) = ([0; BLOCK], [0; BLOCK]);
            a[..tail.len()].copy_from_slice(tail);
            b[..tail.len()].copy_from_slice(twin_tail);
            out.push_block(&mut open, current, current.len() - tail.len(), &a, &b);
        }
        out.push_run(open.start, &current[open]);
    }

    /// Adds the changed words of block `a` at `base`, `b` its twin: builds
    /// the changed-word mask (bit `w` set when word `w` differs) and turns
    /// each run of ones into a run that either grows the `open` one or
    /// finishes it and opens the next.
    #[inline(never)]
    fn push_block(
        &mut self,
        open: &mut Range<usize>,
        current: &[u8],
        base: usize,
        a: &[u8; BLOCK],
        b: &[u8; BLOCK],
    ) {
        let word = |block: &[u8; BLOCK], w: usize| {
            u32::from_le_bytes(block[w * WORD..(w + 1) * WORD].try_into().expect("a word"))
        };
        let mut mask =
            (0..BLOCK / WORD).fold(0u32, |m, w| m | u32::from(word(a, w) != word(b, w)) << w);
        let mut at = base;
        while mask != 0 {
            let skip = mask.trailing_zeros() as usize;
            let ones = (mask >> skip).trailing_ones() as usize;
            let start = at + skip * WORD;
            at = start + ones * WORD;
            if start == open.end {
                open.end = at.min(current.len());
            } else {
                self.push_run(open.start, &current[open.clone()]);
                *open = start..at.min(current.len());
            }
            // `skip + ones` is at most 16: the mask's high half is zero.
            mask >>= skip + ones;
        }
    }

    /// Appends a run (after every run already there); empty runs are
    /// dropped.
    fn push_run(&mut self, offset: usize, data: &[u8]) {
        if !data.is_empty() {
            self.runs.push(DiffRun {
                offset,
                len: data.len(),
            });
            self.bytes.extend_from_slice(data);
        }
    }

    /// The word-at-a-time reference implementation of
    /// [`compute`](Self::compute): one word compared per step, exactly the
    /// paper's description. Kept as the equivalence oracle for the chunked
    /// hot path — property tests assert `compute == compute_reference` on
    /// random inputs, and the pinned benchmark times it as
    /// `calib.diff_reference_mbps`.
    pub fn compute_reference(current: &[u8], twin: &[u8]) -> PageDiff {
        assert_eq!(current.len(), twin.len(), "page and twin must match");
        let mut out = PageDiff::default();
        let mut i = 0;
        while i < current.len() {
            let w = WORD.min(current.len() - i);
            if current[i..i + w] != twin[i..i + w] {
                match out.runs.last_mut() {
                    Some(run) if run.offset + run.len == i => run.len += w,
                    _ => out.runs.push(DiffRun { offset: i, len: w }),
                }
                out.bytes.extend_from_slice(&current[i..i + w]);
            }
            i += w;
        }
        out
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The maximal changed runs, in increasing offset order.
    pub fn runs(&self) -> &[DiffRun] {
        &self.runs
    }

    /// Number of maximal changed runs (the diff cost model's fragmentation
    /// measure).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total changed bytes.
    pub fn changed_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Bytes this diff occupies on the wire.
    pub fn wire_size(&self) -> usize {
        self.changed_bytes() + self.runs.len() * RUN_HEADER_BYTES
    }

    /// Each run as `(page offset, new bytes)`, in increasing offset order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut rest = &self.bytes[..];
        self.runs.iter().map(move |run| {
            let (data, tail) = rest.split_at(run.len);
            rest = tail;
            (run.offset, data)
        })
    }

    /// Applies the diff to `page`.
    ///
    /// # Panics
    ///
    /// Panics if a run falls outside `page`.
    pub fn apply(&self, page: &mut [u8]) {
        for (offset, data) in self.iter() {
            page[offset..offset + data.len()].copy_from_slice(data);
        }
    }

    /// The diff cut to the byte `ranges` (sorted, non-overlapping,
    /// page-relative) — the part of the page's modifications that belongs
    /// to the synchronization object being transferred — as borrowed
    /// `(page offset, new bytes)` pieces in increasing offset order.
    ///
    /// Both the runs and the ranges are sorted and non-overlapping, so
    /// this is a two-pointer merge: O(runs + ranges + output).
    pub fn restricted<'a>(
        &'a self,
        ranges: &'a [Range<usize>],
    ) -> impl Iterator<Item = (usize, &'a [u8])> {
        let mut runs = self.iter();
        let mut run = runs.next();
        let mut ranges = ranges.iter();
        let mut range = ranges.next();
        std::iter::from_fn(move || loop {
            let ((offset, data), bound) = (run?, range?);
            let end = offset + data.len();
            let (lo, hi) = (offset.max(bound.start), end.min(bound.end));
            // Whichever ends first cannot meet anything later on the other
            // side; the other one may.
            if bound.end <= end {
                range = ranges.next();
            } else {
                run = runs.next();
            }
            if lo < hi {
                return Some((lo, &data[lo - offset..hi - offset]));
            }
        })
    }

    /// [`restricted`](Self::restricted), materialized as a diff of its
    /// own.
    pub fn restrict(&self, ranges: &[Range<usize>]) -> PageDiff {
        let mut out = PageDiff::default();
        for (offset, data) in self.restricted(ranges) {
            out.push_run(offset, data);
        }
        out
    }

    /// True when every changed byte lies inside `ranges` — i.e. shipping
    /// the restricted diff ships *all* modified data on the page, so the
    /// page may be cleaned afterwards.
    pub fn covered_by(&self, ranges: &[Range<usize>]) -> bool {
        let inside: usize = self.restricted(ranges).map(|(_, data)| data.len()).sum();
        inside == self.changed_bytes()
    }
}

/// What a collection pass keeps from one call to the next, so that in the
/// steady state it allocates only the items it ships: the diff of the page
/// in hand and the bound ranges that fall on that page.
#[derive(Debug, Default)]
pub struct DiffScratch {
    /// The page's diff against its twin.
    pub diff: PageDiff,
    /// The binding's ranges within the page, page-relative.
    pub bound: Vec<Range<usize>>,
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // one-range restrictions are the point here
mod tests {
    use super::*;

    fn page_pair() -> (Vec<u8>, Vec<u8>) {
        (vec![0u8; 256], vec![0u8; 256])
    }

    #[test]
    fn identical_pages_diff_empty() {
        let (cur, twin) = page_pair();
        let d = PageDiff::compute(&cur, &twin);
        assert!(d.is_empty());
        assert_eq!(d.wire_size(), 0);
    }

    #[test]
    fn adjacent_changed_words_coalesce_into_one_run() {
        let (mut cur, twin) = page_pair();
        cur[8..16].copy_from_slice(&[1; 8]);
        let d = PageDiff::compute(&cur, &twin);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.runs()[0].range(), 8..16);
        assert_eq!(d.changed_bytes(), 8);
    }

    #[test]
    fn every_other_word_makes_maximal_runs() {
        let (mut cur, twin) = page_pair();
        for w in (0..256 / WORD).step_by(2) {
            cur[w * WORD] = 0xFF;
        }
        let d = PageDiff::compute(&cur, &twin);
        assert_eq!(d.run_count(), 256 / WORD / 2);
        // Word granularity: a single changed byte ships the whole word.
        assert_eq!(d.changed_bytes(), 256 / 2);
    }

    #[test]
    fn apply_reproduces_the_current_page() {
        let (mut cur, twin) = page_pair();
        cur[0] = 1;
        cur[100] = 2;
        cur[255] = 3;
        let d = PageDiff::compute(&cur, &twin);
        let mut rebuilt = twin.clone();
        d.apply(&mut rebuilt);
        assert_eq!(rebuilt, cur);
    }

    #[test]
    fn partial_tail_word_is_compared() {
        let mut cur = vec![0u8; 10];
        let twin = vec![0u8; 10];
        cur[9] = 5;
        let d = PageDiff::compute(&cur, &twin);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.runs()[0].range(), 8..10);
    }

    #[test]
    fn restrict_cuts_runs_to_bound_ranges() {
        let (mut cur, twin) = page_pair();
        cur[0..32].copy_from_slice(&[9; 32]);
        let d = PageDiff::compute(&cur, &twin);
        let r = d.restrict(&[8..16, 24..28]);
        assert_eq!(r.run_count(), 2);
        assert_eq!(r.runs()[0].range(), 8..16);
        assert_eq!(r.runs()[1].range(), 24..28);
        assert_eq!(r.changed_bytes(), 12);
        assert!(!d.covered_by(&[8..16, 24..28]));
        assert!(d.covered_by(&[0..32]));
        assert!(d.covered_by(&[0..256]));
    }

    #[test]
    fn restrict_merges_runs_and_ranges_in_order() {
        // A diff with several runs against several ranges, exercising every
        // merge case: a range splitting a run, a range spanning two runs,
        // a range between runs (empty intersection), and trailing runs
        // past the last range.
        let (mut cur, twin) = page_pair();
        cur[0..16].copy_from_slice(&[1; 16]); // run A: 0..16
        cur[32..48].copy_from_slice(&[2; 16]); // run B: 32..48
        cur[64..72].copy_from_slice(&[3; 8]); // run C: 64..72
        cur[128..132].copy_from_slice(&[4; 4]); // run D: 128..132
        let d = PageDiff::compute(&cur, &twin);
        assert_eq!(d.run_count(), 4);
        // Range 1 splits run A; range 2 spans the tail of A, the gap, and
        // the head of B; range 3 covers C exactly; nothing covers D.
        let ranges = [4..8, 12..36, 64..72];
        let r = d.restrict(&ranges);
        let got: Vec<Range<usize>> = r.runs().iter().map(DiffRun::range).collect();
        assert_eq!(got, vec![4..8, 12..16, 32..36, 64..72]);
        // Offsets strictly ascend without any sort step.
        assert!(got.windows(2).all(|w| w[0].end <= w[1].start));
        // And the result matches the brute-force per-byte intersection.
        let mut expect_bytes = 0;
        for (i, (c, t)) in cur.iter().zip(&twin).enumerate() {
            let word = i / WORD * WORD;
            let word_changed = cur[word..(word + WORD).min(cur.len())]
                != twin[word..(word + WORD).min(twin.len())];
            let _ = (c, t);
            if word_changed && ranges.iter().any(|r| r.contains(&i)) {
                expect_bytes += 1;
            }
        }
        assert_eq!(r.changed_bytes(), expect_bytes);
        assert!(!d.covered_by(&ranges));
        assert!(d.covered_by(&[0..256]));
    }

    #[test]
    fn compute_into_reuses_the_buffer() {
        let (mut cur, twin) = page_pair();
        cur[8..16].copy_from_slice(&[5; 8]);
        let mut diff = PageDiff::default();
        PageDiff::compute_into(&mut diff, &cur, &twin);
        assert_eq!(diff.run_count(), 1);
        // A second, different computation into the same buffer fully
        // replaces the first.
        let (mut cur2, twin2) = page_pair();
        cur2[100] = 9;
        PageDiff::compute_into(&mut diff, &cur2, &twin2);
        assert_eq!(diff.run_count(), 1);
        assert_eq!(diff.runs()[0].range(), 100..104);
        assert_eq!(diff, PageDiff::compute(&cur2, &twin2));
    }

    #[test]
    fn chunked_compute_matches_reference_on_edges() {
        // Lengths around the 64-byte block boundary (and the old 16-byte
        // seams), with changes at the seams and in partial tail words.
        for len in [
            1usize, 3, 4, 15, 16, 17, 19, 31, 32, 33, 48, 50, 63, 64, 65, 96, 127, 128, 129, 130,
        ] {
            for changed in 0..len {
                let twin = vec![0u8; len];
                let mut cur = twin.clone();
                cur[changed] = 0xEE;
                assert_eq!(
                    PageDiff::compute(&cur, &twin),
                    PageDiff::compute_reference(&cur, &twin),
                    "len {len}, changed byte {changed}"
                );
            }
        }
    }

    #[test]
    fn wire_size_includes_run_headers() {
        let (mut cur, twin) = page_pair();
        cur[0] = 1;
        cur[100] = 1;
        let d = PageDiff::compute(&cur, &twin);
        assert_eq!(d.wire_size(), 2 * WORD + 2 * RUN_HEADER_BYTES);
    }
}
