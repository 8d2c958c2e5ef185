//! Timestamp dirtybits and the per-region dirtybit-update template.
//!
//! Paper §3.1–3.2: every cache line cached on a processor has a dirtybit in
//! that processor's memory. The dirtybit is *actually a timestamp* (a
//! Lamport-clock value) recording the most recent modification; in practice
//! the write path stores a zero ("dirty") and the timestamp is filled in
//! lazily when the guarding synchronization object is transferred.
//!
//! # Encoding
//!
//! The API speaks `u64` timestamps: [`DIRTY`] is 0, a fresh line reads
//! [`EPOCH`] (1), and real Lamport times follow. The array stores each
//! dirtybit as a `u32` holding `timestamp − 1`, wrapping, so [`EPOCH`] is
//! stored as 0, time `t` as `t − 1` and [`DIRTY`] as `u32::MAX`. Two
//! things follow:
//!
//! * a fresh array is all zero bytes, which the allocator hands out as
//!   untouched pages (`calloc`): a line costs memory only once it is
//!   marked or stamped, and then at half the width of a `u64`;
//! * timestamps are bounded by [`MAX_TIMESTAMP`]. The Lamport clock asserts
//!   it never passes that bound, and the wire decoder rejects a timestamp
//!   above it.
//!
//! Why: every processor holds one array per region it maps, a word per
//! line, so at scale these arrays are most of a processor's memory (a
//! 10 M-key quicksort at word lines is 10 M dirtybits per processor). Both
//! halves are needed: zero-based alone leaves the arrays that barrier
//! applies stamp end to end (sor's edges) at full width, and `u32` alone
//! still writes every page at creation. A Lamport clock advances a few
//! times per synchronization event; a run has millions of those, not
//! billions.
//!
//! The encoding stays in this file: callers read [`DirtyBits::get`], write
//! [`DirtyBits::stamp`] / [`DirtyBits::mark`], and apply an update through
//! [`DirtyBits::take_newer`] (or [`DirtyBits::take_newer_line`] for an
//! update inside one line). The simulated cost model still charges the
//! paper's flat array, so nothing virtual depends on the width.

use std::ops::Range;

use midway_stats::CostModel;

use crate::addr::Addr;
use crate::layout::{MemClass, RegionDesc};

/// The value the write-path template stores: "modified, not yet stamped".
pub const DIRTY: u64 = 0;

/// The initial timestamp of every line: older than any real Lamport time.
pub const EPOCH: u64 = 1;

/// The largest timestamp a dirtybit can hold: the array stores
/// `timestamp − 1` in a `u32`, and `u32::MAX` there is [`DIRTY`].
pub const MAX_TIMESTAMP: u64 = u32::MAX as u64;

/// The stored form of [`DIRTY`].
const DIRTY_RAW: u32 = u32::MAX;

/// The stored form of timestamp `ts` (0, [`DIRTY`], maps to [`DIRTY_RAW`]).
#[inline]
fn encode(ts: u64) -> u32 {
    assert!(
        ts <= MAX_TIMESTAMP,
        "timestamp {ts} exceeds the dirtybit width (MAX_TIMESTAMP = {MAX_TIMESTAMP})"
    );
    (ts as u32).wrapping_sub(1)
}

/// The timestamp a stored dirtybit holds.
#[inline]
fn decode(raw: u32) -> u64 {
    u64::from(raw.wrapping_add(1))
}

/// What kind of store hit the template (Appendix A entry points).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreKind {
    /// 1-byte store.
    Byte,
    /// 2-byte store.
    Halfword,
    /// 4-byte store.
    Word,
    /// 8-byte store.
    Doubleword,
    /// Unaligned or multi-word store (structure assignment, `bcopy`, ...).
    Area(usize),
}

impl StoreKind {
    /// Classifies a store of `len` bytes.
    pub fn of_len(len: usize) -> StoreKind {
        match len {
            1 => StoreKind::Byte,
            2 => StoreKind::Halfword,
            4 => StoreKind::Word,
            8 => StoreKind::Doubleword,
            n => StoreKind::Area(n),
        }
    }

    /// The store's length in bytes.
    #[allow(clippy::len_without_is_empty)] // a store is never empty
    pub fn len(&self) -> usize {
        match self {
            StoreKind::Byte => 1,
            StoreKind::Halfword => 2,
            StoreKind::Word => 4,
            StoreKind::Doubleword => 8,
            StoreKind::Area(n) => *n,
        }
    }
}

/// The per-processor dirtybit array of one region.
///
/// One `u32` per line, zero-based (see the module's *Encoding*): a new
/// array is zeroed memory, resident only where a line has been marked or
/// stamped.
#[derive(Clone, Debug)]
pub struct DirtyBits {
    bits: Vec<u32>,
}

impl DirtyBits {
    /// Creates an array of `lines` dirtybits, all at [`EPOCH`].
    pub fn new(lines: usize) -> DirtyBits {
        DirtyBits {
            bits: vec![0; lines],
        }
    }

    /// Number of lines tracked.
    pub fn lines(&self) -> usize {
        self.bits.len()
    }

    /// Marks `line` dirty (the template's store).
    pub fn mark(&mut self, line: usize) {
        self.bits[line] = DIRTY_RAW;
    }

    /// The timestamp of `line`: [`DIRTY`], [`EPOCH`] or a Lamport time.
    pub fn get(&self, line: usize) -> u64 {
        decode(self.bits[line])
    }

    /// Stamps `line` with timestamp `ts` (requester side after applying an
    /// update, or releaser side when lazily timestamping).
    ///
    /// # Panics
    ///
    /// If `ts` exceeds [`MAX_TIMESTAMP`].
    pub fn stamp(&mut self, line: usize, ts: u64) {
        self.bits[line] = encode(ts);
    }

    /// Applies the timestamp of an update covering `lines`: a line takes
    /// `ts` iff it is not [`DIRTY`] (a local modification is never
    /// overwritten) and `ts` is strictly newer than its stamp (the
    /// exactly-once property). Stamps the lines that take it and reports
    /// each maximal run of lines that do (`true`) or do not (`false`), in
    /// order, as `on_run(run, taken)`.
    ///
    /// # Panics
    ///
    /// If `ts` exceeds [`MAX_TIMESTAMP`].
    pub fn take_newer(
        &mut self,
        lines: Range<usize>,
        ts: u64,
        mut on_run: impl FnMut(Range<usize>, bool),
    ) {
        // `ts > t` for stored `t − 1` is `raw < ts − 1`, which no stored
        // DIRTY (`u32::MAX`) satisfies; the stamp is `ts − 1` itself. A
        // zero `ts` (VM items carry it) is newer than nothing.
        let stamp = encode(ts.max(EPOCH));
        let base = lines.start;
        let bits = &mut self.bits[lines];
        let mut line = 0;
        while line < bits.len() {
            let run = line;
            let take = bits[line] < stamp;
            while line < bits.len() && (bits[line] < stamp) == take {
                if take {
                    bits[line] = stamp;
                }
                line += 1;
            }
            on_run(base + run..base + line, take);
        }
    }

    /// [`take_newer`](Self::take_newer) over the one line `line`: stamps
    /// it with `ts` and returns true iff it takes the update.
    ///
    /// # Panics
    ///
    /// If `ts` exceeds [`MAX_TIMESTAMP`].
    #[inline]
    pub fn take_newer_line(&mut self, line: usize, ts: u64) -> bool {
        let stamp = encode(ts.max(EPOCH));
        let bit = &mut self.bits[line];
        let take = *bit < stamp;
        if take {
            *bit = stamp;
        }
        take
    }

    /// Scans lines `range` on behalf of a requester that last saw time
    /// `last_seen`, lazily stamping freshly dirty lines with `now`.
    ///
    /// A line must be sent if it was modified after `last_seen`: either its
    /// dirtybit is still [`DIRTY`] (modified since the last transfer — it is
    /// stamped with `now` as a side effect, the paper's lazy timestamping)
    /// or it carries a timestamp greater than `last_seen`.
    ///
    /// # Panics
    ///
    /// If `now` exceeds [`MAX_TIMESTAMP`].
    pub fn scan(&mut self, range: Range<usize>, last_seen: u64, now: u64) -> ScanOutcome {
        let mut out = ScanOutcome::default();
        self.scan_into(&mut out, range, last_seen, now);
        out
    }

    /// [`scan`](DirtyBits::scan) into a caller-owned outcome, so the `lines`
    /// vector's capacity survives across scans. Clears `out` first.
    ///
    /// Scans blocks of lines at a time: a line is *interesting* iff
    /// `t == DIRTY || t > last_seen`, which for the stored `raw = t − 1`
    /// (DIRTY stored as `u32::MAX`) is exactly `u64::from(raw) >= last_seen`.
    /// A `last_seen` above [`MAX_TIMESTAMP`] leaves only DIRTY interesting,
    /// as does `last_seen == MAX_TIMESTAMP`, so the comparison runs in `u32`
    /// against the saturated bound — one branch-free comparison per line
    /// lets the all-clean block fast path skip the per-line work that
    /// dominates steady-state scans.
    pub fn scan_into(
        &mut self,
        out: &mut ScanOutcome,
        range: Range<usize>,
        last_seen: u64,
        now: u64,
    ) {
        out.lines.clear();
        out.clean_reads = 0;
        out.dirty_reads = 0;
        let seen = last_seen.min(MAX_TIMESTAMP) as u32;
        let now = encode(now);
        // 16 lines = 64 bytes of timestamps per step; the fixed-size array
        // view drops the per-lane bounds checks so the interesting-test
        // reduction compiles to vector compares.
        const BLOCK: usize = 16;
        let mut line = range.start;
        let end = range.end;
        while line + BLOCK <= end {
            let block: &[u32; BLOCK] = self.bits[line..line + BLOCK]
                .try_into()
                .expect("BLOCK lines");
            let mut any = false;
            for &v in block {
                any |= v >= seen;
            }
            if !any {
                out.clean_reads += BLOCK as u64;
                line += BLOCK;
                continue;
            }
            for i in line..line + BLOCK {
                Self::scan_one(&mut self.bits, out, i, seen, now);
            }
            line += BLOCK;
        }
        for i in line..end {
            Self::scan_one(&mut self.bits, out, i, seen, now);
        }
    }

    #[inline]
    fn scan_one(bits: &mut [u32], out: &mut ScanOutcome, line: usize, seen: u32, now: u32) {
        let v = bits[line];
        if v == DIRTY_RAW {
            bits[line] = now;
            out.dirty_reads += 1;
            out.lines.push(line);
        } else if v >= seen {
            out.dirty_reads += 1;
            out.lines.push(line);
        } else {
            out.clean_reads += 1;
        }
    }

    /// The line-at-a-time reference implementation of [`DirtyBits::scan`],
    /// over decoded timestamps, kept as the equivalence oracle for the
    /// chunked hot path: property tests assert the two agree on random
    /// arrays, and the pinned benchmark times it as
    /// `calib.scan_reference_mlps`.
    pub fn scan_reference(&mut self, range: Range<usize>, last_seen: u64, now: u64) -> ScanOutcome {
        let mut out = ScanOutcome::default();
        for line in range {
            let v = self.get(line);
            if v == DIRTY {
                self.stamp(line, now);
                out.dirty_reads += 1;
                out.lines.push(line);
            } else if v > last_seen {
                out.dirty_reads += 1;
                out.lines.push(line);
            } else {
                out.clean_reads += 1;
            }
        }
        out
    }
}

/// Result of a dirtybit scan: which lines to send and the read counts
/// feeding the paper's Table 2.
#[derive(Clone, Debug, Default)]
pub struct ScanOutcome {
    /// Line indices (within the region) that must be sent.
    pub lines: Vec<usize>,
    /// Dirtybits read that were clean (5 cycles each in Table 1).
    pub clean_reads: u64,
    /// Dirtybits read that were dirty (4 cycles each; two memory references
    /// each in Table 5's accounting, for the timestamp store).
    pub dirty_reads: u64,
}

/// Result of a template invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemplateHit {
    /// Cycles charged for the inline code plus the template body.
    pub cycles: u64,
    /// Dirtybits stored (zero for a private-region hit).
    pub lines_marked: u64,
    /// True when a write to private memory went through the shared path
    /// (the paper's six-instruction misclassification penalty).
    pub misclassified: bool,
}

/// The dirtybit-update code template at the base of a region (Appendix A).
///
/// A real template is machine code specialized with the region's cache-line
/// size and dirtybit base; here it is a small struct holding the same
/// constants, with one `invoke` entry per store kind.
#[derive(Clone, Copy, Debug)]
pub struct Template {
    class: MemClass,
    line_shift: u32,
}

impl Template {
    /// Builds the template for a region (done when the region is first
    /// allocated, in the paper).
    pub fn for_region(desc: &RegionDesc) -> Template {
        Template {
            class: desc.class,
            line_shift: desc.line_shift,
        }
    }

    /// The region's class.
    pub fn class(&self) -> MemClass {
        self.class
    }

    /// Invokes the template for a store of `kind` at `addr`, marking the
    /// covered lines dirty in `bits`.
    ///
    /// The common cases — a store no larger than one cache line — cost the
    /// paper's 9 cycles. The rarely-taken area path pays a call-out base
    /// cost plus one store per covered line. A private-region template
    /// returns immediately at the misclassification penalty of 6 cycles.
    #[inline]
    pub fn invoke(
        &self,
        bits: &mut DirtyBits,
        addr: Addr,
        kind: StoreKind,
        cost: &CostModel,
    ) -> TemplateHit {
        if self.class == MemClass::Private {
            return TemplateHit {
                cycles: cost.dirtybit_set_private,
                lines_marked: 0,
                misclassified: true,
            };
        }
        let len = kind.len().max(1);
        let first = addr.line_in_region(self.line_shift);
        let last = Addr(addr.raw() + (len as u64 - 1)).line_in_region(self.line_shift);
        let nlines = (last - first + 1) as u64;
        let single_line = first == last;
        let cycles = match kind {
            StoreKind::Byte | StoreKind::Halfword | StoreKind::Word if single_line => {
                cost.dirtybit_set_word
            }
            StoreKind::Doubleword if single_line => cost.dirtybit_set_double,
            _ => cost.dirtybit_set_area_base + nlines * cost.dirtybit_update,
        };
        for line in first..=last {
            bits.mark(line);
        }
        TemplateHit {
            cycles,
            lines_marked: nlines,
            misclassified: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{LayoutBuilder, MemClass};

    fn shared_template(line_shift: u32) -> (Template, DirtyBits, Addr) {
        let mut b = LayoutBuilder::new();
        let a = b.alloc("t", 4096, MemClass::Shared, line_shift);
        let layout = b.build();
        let desc = layout.region_of(a.addr);
        (
            Template::for_region(desc),
            DirtyBits::new(desc.lines()),
            a.addr,
        )
    }

    #[test]
    fn doubleword_to_doubleword_line_costs_nine_cycles() {
        let cost = CostModel::r3000_mach();
        let (t, mut bits, base) = shared_template(3);
        let hit = t.invoke(&mut bits, base + 16, StoreKind::Doubleword, &cost);
        assert_eq!(hit.cycles, 9);
        assert_eq!(hit.lines_marked, 1);
        assert!(!hit.misclassified);
        assert_eq!(bits.get(2), DIRTY);
        assert_eq!(bits.get(1), EPOCH);
    }

    #[test]
    fn word_to_word_line_costs_nine_cycles() {
        let cost = CostModel::r3000_mach();
        let (t, mut bits, base) = shared_template(2);
        let hit = t.invoke(&mut bits, base + 4, StoreKind::Word, &cost);
        assert_eq!(hit.cycles, 9);
        assert_eq!(bits.get(1), DIRTY);
    }

    #[test]
    fn private_template_returns_at_misclassification_cost() {
        let cost = CostModel::r3000_mach();
        let mut b = LayoutBuilder::new();
        let a = b.alloc("p", 64, MemClass::Private, 3);
        let layout = b.build();
        let t = Template::for_region(layout.region_of(a.addr));
        let mut bits = DirtyBits::new(8);
        let hit = t.invoke(&mut bits, a.addr, StoreKind::Word, &cost);
        assert_eq!(hit.cycles, 6);
        assert_eq!(hit.lines_marked, 0);
        assert!(hit.misclassified);
        assert_eq!(
            bits.get(0),
            EPOCH,
            "private template must not touch dirtybits"
        );
    }

    #[test]
    fn area_store_marks_every_covered_line() {
        let cost = CostModel::r3000_mach();
        let (t, mut bits, base) = shared_template(3);
        // 40 bytes starting at offset 4 covers lines 0..=5.
        let hit = t.invoke(&mut bits, base + 4, StoreKind::Area(40), &cost);
        assert_eq!(hit.lines_marked, 6);
        assert_eq!(
            hit.cycles,
            cost.dirtybit_set_area_base + 6 * cost.dirtybit_update
        );
        for line in 0..6 {
            assert_eq!(bits.get(line), DIRTY);
        }
        assert_eq!(bits.get(6), EPOCH);
    }

    #[test]
    fn doubleword_spanning_two_word_lines_takes_area_path() {
        let cost = CostModel::r3000_mach();
        let (t, mut bits, base) = shared_template(2);
        let hit = t.invoke(&mut bits, base + 4, StoreKind::Doubleword, &cost);
        assert_eq!(hit.lines_marked, 2);
        assert!(hit.cycles > cost.dirtybit_set_double);
    }

    #[test]
    fn scan_sends_dirty_and_newer_lines_and_stamps_lazily() {
        let mut bits = DirtyBits::new(8);
        bits.mark(1);
        bits.stamp(2, 10); // modified at time 10 (already stamped)
        bits.stamp(3, 3); // older than last_seen
        let out = bits.scan(0..8, 5, 20);
        assert_eq!(out.lines, vec![1, 2]);
        assert_eq!(out.dirty_reads, 2);
        assert_eq!(out.clean_reads, 6);
        // Lazy stamping: the dirty line now carries the releaser's time.
        assert_eq!(bits.get(1), 20);
        assert_eq!(bits.get(2), 10);
    }

    #[test]
    fn scan_with_epoch_last_seen_sends_everything_modified() {
        let mut bits = DirtyBits::new(4);
        bits.mark(0);
        bits.stamp(2, 7);
        let out = bits.scan(0..4, EPOCH, 9);
        assert_eq!(out.lines, vec![0, 2]);
    }

    #[test]
    fn chunked_scan_matches_reference_on_block_edges() {
        // 20 lines: two full 8-line blocks plus a 4-line tail, with
        // interesting lines placed at block seams and in the tail.
        for interesting in [vec![], vec![0], vec![7, 8], vec![15, 16, 19], vec![17]] {
            let mut a = DirtyBits::new(20);
            let mut b = DirtyBits::new(20);
            for (i, &line) in interesting.iter().enumerate() {
                if i % 2 == 0 {
                    a.mark(line);
                    b.mark(line);
                } else {
                    a.stamp(line, 50);
                    b.stamp(line, 50);
                }
            }
            let got = a.scan(0..20, 10, 99);
            let want = b.scan_reference(0..20, 10, 99);
            assert_eq!(got.lines, want.lines, "interesting {interesting:?}");
            assert_eq!(got.dirty_reads, want.dirty_reads);
            assert_eq!(got.clean_reads, want.clean_reads);
            assert_eq!(a.bits, b.bits, "lazy stamping must match");
        }
    }

    #[test]
    fn scan_into_reuses_and_clears_the_outcome() {
        let mut bits = DirtyBits::new(16);
        bits.mark(3);
        let mut out = ScanOutcome::default();
        bits.scan_into(&mut out, 0..16, 5, 20);
        assert_eq!(out.lines, vec![3]);
        // Second scan over now-clean lines fully resets the outcome.
        bits.scan_into(&mut out, 0..16, 25, 30);
        assert!(out.lines.is_empty());
        assert_eq!(out.dirty_reads, 0);
        assert_eq!(out.clean_reads, 16);
    }

    #[test]
    fn store_kind_classification() {
        assert_eq!(StoreKind::of_len(1), StoreKind::Byte);
        assert_eq!(StoreKind::of_len(2), StoreKind::Halfword);
        assert_eq!(StoreKind::of_len(4), StoreKind::Word);
        assert_eq!(StoreKind::of_len(8), StoreKind::Doubleword);
        assert_eq!(StoreKind::of_len(24), StoreKind::Area(24));
        assert_eq!(StoreKind::Area(24).len(), 24);
    }
}
