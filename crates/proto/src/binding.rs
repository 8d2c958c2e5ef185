//! Lock/barrier ↔ data bindings.
//!
//! "The programmer provides the association between a lock or barrier and
//! the data that the lock or barrier protects" (paper §3). A binding is a
//! set of address ranges; `quicksort` rebinds its task locks to new ranges
//! for every task created, which is why bindings carry a version and travel
//! with lock grants.

use midway_mem::{split_by_region, AddrRange, Layout, PAGE_SHIFT, PAGE_SIZE};

/// The data bound to one synchronization object.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Binding {
    ranges: Vec<AddrRange>,
    version: u64,
}

impl Binding {
    /// Creates a binding over `ranges` (normalized: sorted, merged).
    pub fn new(ranges: Vec<AddrRange>) -> Binding {
        Binding {
            ranges: normalize(ranges),
            version: 0,
        }
    }

    /// Reconstructs a binding from its ranges and version, for wire
    /// decoders. Normalization is idempotent, so a decoded binding is
    /// identical to the encoded one.
    pub fn from_parts(ranges: Vec<AddrRange>, version: u64) -> Binding {
        Binding {
            ranges: normalize(ranges),
            version,
        }
    }

    /// Replaces the bound ranges, bumping the binding version.
    ///
    /// Under VM-DSM a rebinding forces the next transfer to ship all bound
    /// data without diffing (paper §4: quicksort); under RT-DSM the
    /// dirtybits are simply scanned under the new ranges.
    pub fn rebind(&mut self, ranges: Vec<AddrRange>) {
        self.ranges = normalize(ranges);
        self.version += 1;
    }

    /// Installs a binding received with a lock grant.
    pub fn install(&mut self, other: Binding) {
        *self = other;
    }

    /// The normalized bound ranges.
    pub fn ranges(&self) -> &[AddrRange] {
        &self.ranges
    }

    /// The binding version (bumped on every rebind).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total bound bytes.
    pub fn data_bytes(&self) -> u64 {
        self.ranges.iter().map(|r| r.end - r.start).sum()
    }

    /// Bytes a binding occupies on the wire when shipped with a grant.
    pub fn wire_size(&self) -> u64 {
        16 * self.ranges.len() as u64 + 8
    }

    /// Whether `[addr, addr+len)` lies entirely within the bound ranges.
    pub fn covers(&self, addr: u64, len: usize) -> bool {
        let end = addr + len as u64;
        self.ranges.iter().any(|r| r.start <= addr && end <= r.end)
    }

    /// The cache lines covered per region: `(region, line range)` pairs,
    /// deduplicated and sorted.
    ///
    /// A line partially covered by a bound range is included whole: the
    /// cache line is the coherency unit.
    pub(crate) fn line_spans(&self, layout: &Layout) -> Vec<(usize, std::ops::Range<usize>)> {
        let mut spans: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        for range in &self.ranges {
            for piece in split_by_region(range.clone()) {
                let start = midway_mem::Addr(piece.start);
                let region = layout.region_of(start);
                let shift = region.line_shift;
                let first = start.region_offset() >> shift;
                let last = (midway_mem::Addr(piece.end - 1).region_offset()) >> shift;
                spans.push((region.id, first..last + 1));
            }
        }
        merge_spans(spans)
    }

    /// The pages covered per region: `(region, page range)` pairs,
    /// deduplicated and sorted.
    pub fn page_spans(&self, layout: &Layout) -> Vec<(usize, std::ops::Range<usize>)> {
        let mut spans: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
        for range in &self.ranges {
            for piece in split_by_region(range.clone()) {
                let start = midway_mem::Addr(piece.start);
                let region = layout.region_of(start);
                let first = start.region_offset() >> PAGE_SHIFT;
                let last = midway_mem::Addr(piece.end - 1).region_offset() >> PAGE_SHIFT;
                spans.push((region.id, first..last + 1));
            }
        }
        merge_spans(spans)
    }

    /// The bound byte ranges that fall within one page, page-relative,
    /// written over `out` (a collection pass asks once per page and keeps
    /// one vector for all of them).
    pub fn ranges_in_page(
        &self,
        region: usize,
        page: usize,
        out: &mut Vec<std::ops::Range<usize>>,
    ) {
        let page_base = ((region as u64) << midway_mem::REGION_SHIFT) + (page << PAGE_SHIFT) as u64;
        let page_end = page_base + PAGE_SIZE as u64;
        out.clear();
        // The ranges are sorted and disjoint: search for the first one
        // reaching into the page, stop at the first one past it.
        let first = self.ranges.partition_point(|r| r.end <= page_base);
        for r in self.ranges[first..]
            .iter()
            .take_while(|r| r.start < page_end)
        {
            let lo = r.start.max(page_base) - page_base;
            let hi = r.end.min(page_end) - page_base;
            out.push(lo as usize..hi as usize);
        }
    }
}

/// Sorts and merges `ranges` in their own buffer: an already normal list
/// (a decoded binding) is kept as it came.
fn normalize(mut ranges: Vec<AddrRange>) -> Vec<AddrRange> {
    ranges.retain(|r| r.start < r.end);
    // Ranges that start together merge whichever comes first.
    ranges.sort_unstable_by_key(|r| r.start);
    // Each range meets the last one kept: one it reaches absorbs it.
    ranges.dedup_by(|r, kept| {
        let joins = r.start <= kept.end;
        if joins {
            kept.end = kept.end.max(r.end);
        }
        joins
    });
    ranges
}

fn merge_spans(
    mut spans: Vec<(usize, std::ops::Range<usize>)>,
) -> Vec<(usize, std::ops::Range<usize>)> {
    spans.sort_by_key(|(region, r)| (*region, r.start));
    let mut out: Vec<(usize, std::ops::Range<usize>)> = Vec::with_capacity(spans.len());
    for (region, r) in spans {
        match out.last_mut() {
            Some((prev_region, prev)) if *prev_region == region && r.start <= prev.end => {
                prev.end = prev.end.max(r.end);
            }
            _ => out.push((region, r)),
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // one-range bindings are the point here
mod tests {
    use super::*;
    use midway_mem::{LayoutBuilder, MemClass};

    #[test]
    fn normalization_sorts_and_merges() {
        let b = Binding::new(vec![30..40, 0..10, 8..20, 50..50]);
        assert_eq!(b.ranges(), &[0..20, 30..40]);
        assert_eq!(b.data_bytes(), 30);
    }

    /// A decoded binding is already normal: rebuilding it keeps the
    /// decoder's buffer instead of copying it into a second one.
    #[test]
    fn from_parts_keeps_the_buffer_of_normal_ranges() {
        let ranges = vec![0..10, 20..30, 40..50];
        let buffer = ranges.as_ptr();
        let b = Binding::from_parts(ranges, 3);
        assert_eq!(b.ranges().as_ptr(), buffer);
        assert_eq!(b.ranges(), &[0..10, 20..30, 40..50]);
    }

    /// The merge as it was written with a second vector: the reference the
    /// in-place merge is held to.
    fn two_vector_normalize(mut ranges: Vec<AddrRange>) -> Vec<AddrRange> {
        ranges.retain(|r| r.start < r.end);
        ranges.sort_by_key(|r| r.start);
        let mut out: Vec<AddrRange> = Vec::with_capacity(ranges.len());
        for r in ranges {
            match out.last_mut() {
                Some(prev) if r.start <= prev.end => prev.end = prev.end.max(r.end),
                _ => out.push(r),
            }
        }
        out
    }

    #[test]
    fn in_place_normalization_matches_the_two_vector_merge() {
        let mut rng = midway_sim::SplitMix64::new(0xb1d_0002);
        for case in 0..4096 {
            let n = rng.next_below(12);
            let ranges: Vec<AddrRange> = (0..n)
                .map(|_| {
                    let start = rng.next_below(64);
                    start..start + rng.next_below(16)
                })
                .collect();
            let want = two_vector_normalize(ranges.clone());
            assert_eq!(normalize(ranges.clone()), want, "case {case}: {ranges:?}");
        }
    }

    #[test]
    fn rebind_bumps_version() {
        let mut b = Binding::new(vec![0..8]);
        assert_eq!(b.version(), 0);
        b.rebind(vec![8..16]);
        assert_eq!(b.version(), 1);
        assert_eq!(b.ranges(), &[8..16]);
    }

    #[test]
    fn covers_checks_containment() {
        let b = Binding::new(vec![100..200]);
        assert!(b.covers(100, 100));
        assert!(b.covers(150, 8));
        assert!(!b.covers(196, 8));
        assert!(!b.covers(90, 8));
    }

    #[test]
    fn line_spans_cover_partial_lines_whole() {
        let mut lb = LayoutBuilder::new();
        let a = lb.alloc("x", 1024, MemClass::Shared, 3); // 8-byte lines
        let layout = lb.build();
        let base = a.addr.raw();
        // Bytes 4..20 touch lines 0, 1, 2.
        let b = Binding::new(vec![base + 4..base + 20]);
        let spans = b.line_spans(&layout);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].1, 0..3);
    }

    #[test]
    fn line_spans_dedup_shared_lines() {
        let mut lb = LayoutBuilder::new();
        let a = lb.alloc("x", 1024, MemClass::Shared, 3);
        let layout = lb.build();
        let base = a.addr.raw();
        // Two non-adjacent byte ranges meeting in line 1 (bytes 8..16).
        let b = Binding::new(vec![base..base + 10, base + 12..base + 24]);
        let spans = b.line_spans(&layout);
        assert_eq!(spans, vec![(a.addr.region_index(), 0..3)]);
    }

    #[test]
    fn page_spans_and_page_relative_ranges() {
        let mut lb = LayoutBuilder::new();
        let a = lb.alloc("x", 3 * PAGE_SIZE, MemClass::Shared, 12);
        let layout = lb.build();
        let base = a.addr.raw();
        let b = Binding::new(vec![base + 100..base + PAGE_SIZE as u64 + 200]);
        let spans = b.page_spans(&layout);
        assert_eq!(spans, vec![(a.addr.region_index(), 0..2)]);
        let region = a.addr.region_index();
        let mut in_page = vec![7..9]; // overwritten, not appended to
        b.ranges_in_page(region, 0, &mut in_page);
        assert_eq!(in_page, vec![100..PAGE_SIZE]);
        b.ranges_in_page(region, 1, &mut in_page);
        assert_eq!(in_page, vec![0..200]);
        b.ranges_in_page(region, 2, &mut in_page);
        assert!(in_page.is_empty());
    }

    #[test]
    fn ranges_in_page_finds_its_page_among_many_ranges() {
        // A 300-byte range every 1000 bytes over five pages — some inside
        // a page, some across a page boundary: each page sees exactly the
        // ranges that reach into it, cut to the page.
        let base = 7u64 << midway_mem::REGION_SHIFT;
        let ranges: Vec<AddrRange> = (0..20u64)
            .map(|i| base + i * 1000 + 50..base + i * 1000 + 350)
            .collect();
        let b = Binding::new(ranges.clone());
        let mut got = Vec::new();
        for page in 0..6 {
            let (lo, hi) = ((page * PAGE_SIZE) as u64, ((page + 1) * PAGE_SIZE) as u64);
            let want: Vec<std::ops::Range<usize>> = ranges
                .iter()
                .map(|r| r.start - base..r.end - base)
                .filter(|r| r.start < hi && r.end > lo)
                .map(|r| (r.start.max(lo) - lo) as usize..(r.end.min(hi) - lo) as usize)
                .collect();
            b.ranges_in_page(7, page, &mut got);
            assert_eq!(got, want, "page {page}");
        }
    }

    #[test]
    fn empty_binding_has_no_spans() {
        let layout = LayoutBuilder::new().build();
        let b = Binding::default();
        assert!(b.line_spans(&layout).is_empty());
        assert!(b.page_spans(&layout).is_empty());
        assert_eq!(b.data_bytes(), 0);
    }
}
