//! RT-DSM write collection (paper §3.2).
//!
//! The dirtybits are timestamps. Collection scans the dirtybits of the data
//! bound to the requested synchronization object: any value greater than
//! the requester's last-seen time (or still marked dirty — stamped lazily
//! during the scan) names a cache line that must be shipped. Application at
//! the requester writes the data and records the timestamp, so "updates are
//! never performed more than once at a processor".

use midway_mem::{Addr, DirtyBits, Layout, LocalStore};

use crate::binding::Binding;
use crate::update::{copy_payload, Fill, ItemRef, UpdateItem, UpdateSet};

/// Lazily materialized per-region dirtybit arrays for one processor.
pub struct DirtyMap {
    per_region: Vec<Option<DirtyBits>>,
}

impl DirtyMap {
    /// Creates an empty map over `layout`.
    pub fn new(layout: &Layout) -> DirtyMap {
        DirtyMap {
            per_region: (0..layout.region_slots()).map(|_| None).collect(),
        }
    }

    /// The dirtybit array of `region`, created on first touch.
    fn bits_mut(&mut self, layout: &Layout, region: usize) -> &mut DirtyBits {
        let lines = layout
            .region(region)
            .unwrap_or_else(|| panic!("no region {region}"))
            .lines();
        self.per_region[region].get_or_insert_with(|| DirtyBits::new(lines))
    }

    /// Takes `region`'s dirtybit array out of the map (created on first
    /// touch) for a caller that marks many of its lines (a store view);
    /// hand it back with [`restore`](Self::restore). Until then the map
    /// does not hold it: an array never handed back reads as all-clean
    /// again.
    pub fn lend(&mut self, layout: &Layout, region: usize) -> DirtyBits {
        self.bits_mut(layout, region);
        self.per_region[region].take().expect("just materialized")
    }

    /// Puts back an array taken with [`lend`](Self::lend).
    pub fn restore(&mut self, region: usize, bits: DirtyBits) {
        debug_assert!(
            self.per_region[region].is_none(),
            "region {region} restored twice"
        );
        self.per_region[region] = Some(bits);
    }
}

/// Result of an RT collection scan.
#[derive(Debug, Default)]
pub struct RtScan {
    /// The lines to ship, with their timestamps.
    pub set: UpdateSet,
    /// Clean dirtybits read (Table 2: "clean dirtybits read").
    pub clean_reads: u64,
    /// Dirty dirtybits read (Table 2: "dirty dirtybits read").
    pub dirty_reads: u64,
}

/// Result of applying an RT update set.
#[derive(Debug, Default)]
pub struct RtApply {
    /// Dirtybits stamped with new timestamps (Table 2: "dirtybits updated").
    pub dirtybits_updated: u64,
    /// Bytes written into the local cache.
    pub bytes_applied: u64,
    /// Bytes skipped because the local copy was already as new — the
    /// exactly-once property in action.
    pub bytes_redundant: u64,
}

/// Scans the dirtybits of `binding`'s data on behalf of a requester whose
/// cache was last consistent at `last_seen`, lazily stamping fresh
/// modifications with `now` (the releaser's logical time): [`collect_with`]
/// into an owned set.
///
/// Item buffers are drawn from `pool` instead of the allocator. The engine
/// collects into a [`PackedSet`](crate::PackedSet) instead, which needs no
/// pool.
#[allow(clippy::too_many_arguments)]
pub fn collect_pooled(
    store: &mut LocalStore,
    dirty: &mut DirtyMap,
    layout: &Layout,
    binding: &Binding,
    last_seen: u64,
    now: u64,
    pool: &mut midway_mem::BufPool,
) -> RtScan {
    let mut out = Pooled {
        set: UpdateSet::new(),
        pool,
    };
    let (clean_reads, dirty_reads) =
        collect_with(store, dirty, layout, binding, last_seen, now, &mut out);
    RtScan {
        set: out.set,
        clean_reads,
        dirty_reads,
    }
}

/// An owned set whose item buffers come from a pool.
struct Pooled<'a> {
    set: UpdateSet,
    pool: &'a mut midway_mem::BufPool,
}

impl Fill for Pooled<'_> {
    fn reserve(&mut self, items: usize, bytes: usize) {
        self.set.reserve(items, bytes);
    }

    fn push(&mut self, addr: u64, data: &[u8], ts: u64) {
        let mut buf = self.pool.get_with_capacity(data.len());
        buf.extend_from_slice(data);
        self.set.items.push(UpdateItem {
            addr,
            data: buf,
            ts,
        });
    }

    fn extend_last(&mut self, data: &[u8]) {
        self.set.extend_last(data);
    }
}

/// The collection pass itself: scans the dirtybits of `binding`'s data on
/// behalf of a requester whose cache was last consistent at `last_seen`,
/// lazily stamping fresh modifications with `now`, and fills `out` with
/// what must be shipped, in increasing address order. Returns (clean
/// dirtybits read, dirty dirtybits read).
///
/// Each maximal run of adjacent lines with equal timestamps is one item,
/// copied once (Midway's update format packs runs; per-line items would
/// waste five bytes of header per word line). A run that continues the
/// previous span's last item (a region used to its end, followed by the
/// next region) is appended to it. `out` is reserved once per span, for
/// exactly the span's runs and bytes.
pub fn collect_with(
    store: &mut LocalStore,
    dirty: &mut DirtyMap,
    layout: &Layout,
    binding: &Binding,
    last_seen: u64,
    now: u64,
    out: &mut impl Fill,
) -> (u64, u64) {
    let (mut clean_reads, mut dirty_reads) = (0, 0);
    // One scan buffer reused across spans, dropped at the end of the
    // pass; the dirtybit array and the region's bytes are resolved once
    // per span, not once per line.
    let mut scan = midway_mem::ScanOutcome::default();
    // Where the last item ends, and its timestamp.
    let mut last: Option<(u64, u64)> = None;
    for (region_id, lines) in binding.line_spans(layout) {
        let desc = layout.region(region_id).expect("bound region exists");
        let shift = desc.line_shift;
        let bits = dirty.bits_mut(layout, region_id);
        bits.scan_into(&mut scan, lines, last_seen, now);
        clean_reads += scan.clean_reads;
        dirty_reads += scan.dirty_reads;
        let bits = &*bits;
        let slab = store.region_mut(region_id);
        let item = |(first, n, ts): (usize, usize, u64)| {
            let (lo, hi) = (first << shift, ((first + n) << shift).min(desc.used));
            (desc.base().raw() + lo as u64, &slab[lo..hi], ts)
        };
        let (items, bytes) = runs(&scan.lines, bits)
            .map(item)
            .fold((0, 0), |(k, b), (_, data, _)| (k + 1, b + data.len()));
        out.reserve(items, bytes);
        for (addr, data, ts) in runs(&scan.lines, bits).map(item) {
            if last == Some((addr, ts)) {
                out.extend_last(data);
            } else {
                out.push(addr, data, ts);
            }
            last = Some((addr + data.len() as u64, ts));
        }
    }
    (clean_reads, dirty_reads)
}

/// Each maximal run of adjacent `lines` with equal timestamps in `bits`,
/// as (first line, line count, timestamp).
fn runs<'a>(
    lines: &'a [usize],
    bits: &'a DirtyBits,
) -> impl Iterator<Item = (usize, usize, u64)> + 'a {
    let mut rest = lines;
    std::iter::from_fn(move || {
        let &first = rest.first()?;
        let ts = bits.get(first);
        let n = (1..rest.len())
            .find(|&k| rest[k] != first + k || bits.get(rest[k]) != ts)
            .unwrap_or(rest.len());
        rest = &rest[n..];
        Some((first, n, ts))
    })
}

/// Applies an incoming update set: newer data is written line by line and
/// the lines' dirtybits stamped; lines no newer than the local copy are
/// skipped.
pub fn apply(
    store: &mut LocalStore,
    dirty: &mut DirtyMap,
    layout: &Layout,
    set: &UpdateSet,
) -> RtApply {
    let items = set.items.iter().map(ItemRef::from);
    apply_with(store, dirty, layout, items, |_, _| {})
}

/// What applying into one region needs, resolved once per run of items
/// that stay in it rather than once per line.
struct RegionCursor<'a> {
    id: usize,
    line_shift: u32,
    bits: &'a mut DirtyBits,
    slab: &'a mut [u8],
}

impl<'a> RegionCursor<'a> {
    fn new(
        store: &'a mut LocalStore,
        dirty: &'a mut DirtyMap,
        layout: &Layout,
        id: usize,
    ) -> RegionCursor<'a> {
        let desc = layout.region(id).expect("update region exists");
        RegionCursor {
            id,
            line_shift: desc.line_shift,
            bits: dirty.bits_mut(layout, id),
            slab: store.region_mut(id),
        }
    }
}

/// [`apply`] over any run of items (a whole set, or a barrier release's
/// shared set minus the receiver's own addresses), with a hook:
/// `on_applied(addr, data)` runs for every run of bytes actually written
/// (skipped lines never reach it; a run may cross lines and pages but
/// never leaves its region). Detectors that keep secondary
/// write-detection state — e.g. a hybrid backend patching page twins so
/// applied updates are not re-diffed as local modifications — observe
/// exactly the bytes that landed.
///
/// An item inside one line of its region — every item of a barrier over
/// word or doubleword lines — is one test-and-stamp of that line's
/// dirtybit and one copy; longer items take the run loop.
pub fn apply_with<'a>(
    store: &mut LocalStore,
    dirty: &mut DirtyMap,
    layout: &Layout,
    items: impl IntoIterator<Item = ItemRef<'a>>,
    mut on_applied: impl FnMut(Addr, &[u8]),
) -> RtApply {
    let mut out = RtApply::default();
    let mut cur: Option<RegionCursor<'_>> = None;
    for item in items {
        let len = item.data.len();
        if len == 0 {
            continue;
        }
        let addr = Addr(item.addr);
        let region_id = addr.region_index();
        if cur.as_ref().is_none_or(|c| c.id != region_id) {
            cur = Some(RegionCursor::new(store, dirty, layout, region_id));
        }
        let c = cur.as_mut().expect("resolved above");
        let offset = addr.region_offset();
        let line = offset >> c.line_shift;
        if (offset + len - 1) >> c.line_shift == line {
            if c.bits.take_newer_line(line, item.ts) {
                copy_payload(&mut c.slab[offset..offset + len], item.data);
                on_applied(addr, item.data);
                out.dirtybits_updated += 1;
                out.bytes_applied += len as u64;
            } else {
                out.bytes_redundant += len as u64;
            }
            continue;
        }
        let mut pos = 0usize;
        while pos < len {
            let addr = Addr(item.addr + pos as u64);
            let region_id = addr.region_index();
            if cur.as_ref().is_none_or(|c| c.id != region_id) {
                cur = Some(RegionCursor::new(store, dirty, layout, region_id));
            }
            let c = cur.as_mut().expect("resolved above");
            // The piece of the item inside this region and the lines it
            // touches. Items may span many lines (coalesced runs);
            // filtering stays per line, the coherency unit: a locally-dirty
            // line is never overwritten by a remote update (an
            // entry-consistency program never races here), otherwise a line
            // takes only strictly newer data — the exactly-once property.
            // Each maximal run of lines that take the update is one copy.
            let shift = c.line_shift;
            let offset = addr.region_offset();
            let end = offset + (len - pos).min(midway_mem::REGION_SIZE - offset);
            let lines = offset >> shift..((end - 1) >> shift) + 1;
            let slab = &mut *c.slab;
            c.bits.take_newer(lines, item.ts, |run, take| {
                let lo = (run.start << shift).max(offset);
                let hi = (run.end << shift).min(end);
                if take {
                    let data = &item.data[pos + lo - offset..pos + hi - offset];
                    slab[lo..hi].copy_from_slice(data);
                    on_applied(Addr(addr.region_base().raw() + lo as u64), data);
                    out.dirtybits_updated += run.len() as u64;
                    out.bytes_applied += (hi - lo) as u64;
                } else {
                    out.bytes_redundant += (hi - lo) as u64;
                }
            });
            pos += end - offset;
        }
    }
    out
}

/// Marks the lines under a write dirty (the template invocation lives in
/// `midway-mem`; this helper is the non-template path used by tests).
pub fn mark_write(dirty: &mut DirtyMap, layout: &Layout, addr: Addr, len: usize) {
    let desc = layout.region_of(addr);
    let shift = desc.line_shift;
    let first = addr.line_in_region(shift);
    let last = Addr(addr.raw() + len.max(1) as u64 - 1).line_in_region(shift);
    let bits = dirty.bits_mut(layout, desc.id);
    for line in first..=last {
        bits.mark(line);
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // one-range bindings are the point here
mod tests {
    use super::*;
    use crate::update::PackedSet;
    use midway_mem::{LayoutBuilder, MemClass};
    use std::sync::Arc;

    /// A collection drawing its buffers from a fresh pool.
    fn collect(
        store: &mut LocalStore,
        dirty: &mut DirtyMap,
        layout: &Layout,
        binding: &Binding,
        last_seen: u64,
        now: u64,
    ) -> RtScan {
        let mut pool = midway_mem::BufPool::new();
        collect_pooled(store, dirty, layout, binding, last_seen, now, &mut pool)
    }

    struct Fixture {
        layout: Arc<Layout>,
        store: LocalStore,
        dirty: DirtyMap,
        base: Addr,
    }

    fn fixture(bytes: usize, line_shift: u32) -> Fixture {
        let mut b = LayoutBuilder::new();
        let a = b.alloc("x", bytes, MemClass::Shared, line_shift);
        let layout = b.build();
        Fixture {
            store: LocalStore::new(Arc::clone(&layout)),
            dirty: DirtyMap::new(&layout),
            layout,
            base: a.addr,
        }
    }

    #[test]
    fn collect_ships_only_modified_lines() {
        let mut f = fixture(64, 3);
        f.store.write_u64(f.base + 16, 42);
        mark_write(&mut f.dirty, &f.layout, f.base + 16, 8);
        let binding = Binding::new(vec![f.base.raw()..f.base.raw() + 64]);
        let scan = collect(&mut f.store, &mut f.dirty, &f.layout, &binding, 1, 50);
        assert_eq!(scan.set.len(), 1);
        assert_eq!(scan.set.items[0].addr, f.base.raw() + 16);
        assert_eq!(scan.set.items[0].ts, 50, "lazily stamped with `now`");
        assert_eq!(scan.dirty_reads, 1);
        assert_eq!(scan.clean_reads, 7);
    }

    #[test]
    fn collect_respects_last_seen() {
        let mut f = fixture(64, 3);
        f.store.write_u64(f.base, 1);
        mark_write(&mut f.dirty, &f.layout, f.base, 8);
        let binding = Binding::new(vec![f.base.raw()..f.base.raw() + 64]);
        // First transfer at time 10.
        let first = collect(&mut f.store, &mut f.dirty, &f.layout, &binding, 1, 10);
        assert_eq!(first.set.len(), 1);
        // A requester that has seen time 10 gets nothing.
        let second = collect(&mut f.store, &mut f.dirty, &f.layout, &binding, 10, 20);
        assert!(second.set.is_empty());
        assert_eq!(second.clean_reads, 8);
        // A requester that last saw time 5 still gets the line (from its
        // recorded stamp, not a rescan of the data).
        let third = collect(&mut f.store, &mut f.dirty, &f.layout, &binding, 5, 30);
        assert_eq!(third.set.len(), 1);
        assert_eq!(third.set.items[0].ts, 10);
    }

    #[test]
    fn apply_is_exactly_once() {
        let mut f = fixture(64, 3);
        let set = UpdateSet {
            items: vec![UpdateItem {
                addr: f.base.raw() + 8,
                data: vec![7; 8],
                ts: 12,
            }],
        };
        let first = apply(&mut f.store, &mut f.dirty, &f.layout, &set);
        assert_eq!(first.dirtybits_updated, 1);
        assert_eq!(first.bytes_applied, 8);
        assert_eq!(f.store.read_u64(f.base + 8), u64::from_le_bytes([7; 8]));
        // Re-applying the same update is a no-op.
        let second = apply(&mut f.store, &mut f.dirty, &f.layout, &set);
        assert_eq!(second.dirtybits_updated, 0);
        assert_eq!(second.bytes_redundant, 8);
    }

    #[test]
    fn apply_never_clobbers_local_dirty_lines() {
        let mut f = fixture(64, 3);
        f.store.write_u64(f.base, 99);
        mark_write(&mut f.dirty, &f.layout, f.base, 8);
        let set = UpdateSet {
            items: vec![UpdateItem {
                addr: f.base.raw(),
                data: vec![1; 8],
                ts: 1000,
            }],
        };
        apply(&mut f.store, &mut f.dirty, &f.layout, &set);
        assert_eq!(f.store.read_u64(f.base), 99);
    }

    /// A seeded SplitMix64 stream for the randomized oracle tests.
    fn splitmix(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }

    /// The line-at-a-time application the run-copying [`apply_with`] must
    /// match: every line chunk resolved, tested and copied on its own.
    fn apply_line_by_line(
        store: &mut LocalStore,
        dirty: &mut DirtyMap,
        layout: &Layout,
        set: &UpdateSet,
        written: &mut Vec<(u64, u8)>,
    ) -> RtApply {
        let mut out = RtApply::default();
        for item in &set.items {
            let mut pos = 0usize;
            while pos < item.data.len() {
                let addr = Addr(item.addr + pos as u64);
                let desc = layout.region_of(addr);
                let line_size = desc.line_size();
                let line = addr.line_in_region(desc.line_shift);
                let in_line = line_size - (addr.region_offset() & (line_size - 1));
                let chunk = in_line.min(item.data.len() - pos);
                let current = dirty.bits_mut(layout, desc.id).get(line);
                if current != midway_mem::DIRTY && item.ts > current {
                    store.write_bytes(addr, &item.data[pos..pos + chunk]);
                    dirty.bits_mut(layout, desc.id).stamp(line, item.ts);
                    written.extend((0..chunk).map(|i| (addr.raw() + i as u64, item.data[pos + i])));
                    out.dirtybits_updated += 1;
                    out.bytes_applied += chunk as u64;
                } else {
                    out.bytes_redundant += chunk as u64;
                }
                pos += chunk;
            }
        }
        out
    }

    #[test]
    fn run_copying_apply_matches_line_by_line() {
        // Two contiguous regions of 64-byte lines, so items can straddle
        // lines, pages and the region boundary; a second allocation with
        // doubleword lines for the common case; a third whose last line
        // is clipped to 20 bytes.
        let mut b = LayoutBuilder::new();
        let big = b.alloc("big", midway_mem::REGION_SIZE + 8192, MemClass::Shared, 6);
        let fine = b.alloc("fine", 4096, MemClass::Shared, 3);
        let tail = b.alloc("tail", 4096 + 20, MemClass::Shared, 6);
        let layout = b.build();
        let mut next = splitmix(0x5eed);
        let seam = big.addr.raw() + midway_mem::REGION_SIZE as u64;
        let clipped = tail.addr.raw() + 4096;
        let one_line = |addr: u64, len: u64| {
            let (first, last) = (Addr(addr), Addr(addr + len - 1));
            let shift = layout.region_of(first).line_shift;
            first.region_index() == last.region_index()
                && first.line_in_region(shift) == last.line_in_region(shift)
        };
        let (mut straddlers, mut skipped, mut applied) = (0, 0, 0);
        let (mut short, mut at_seam, mut in_clipped) = (0, 0, 0);
        for round in 0..60 {
            let mut fast = (LocalStore::new(Arc::clone(&layout)), DirtyMap::new(&layout));
            let mut slow = (LocalStore::new(Arc::clone(&layout)), DirtyMap::new(&layout));
            // Local state: some lines dirty, some already stamped newer.
            for _ in 0..40 {
                let (addr, ts) = match next() % 4 {
                    0 => (seam - 2048 + next() % 4096, next() % 12),
                    1 => (fine.addr.raw() + next() % 4096, next() % 12),
                    2 => (clipped - 64 + next() % 84, next() % 12),
                    _ => (big.addr.raw() + next() % 4096, next() % 12),
                };
                for (_, d) in [&mut fast, &mut slow] {
                    let desc = layout.region_of(Addr(addr));
                    let line = Addr(addr).line_in_region(desc.line_shift);
                    d.bits_mut(&layout, desc.id).stamp(line, ts); // 0 is DIRTY
                }
            }
            // Unaligned, multi-line items around the seam and elsewhere,
            // between bytes, words and doublewords: aligned in the
            // doubleword lines, anywhere near the seam (one line or two,
            // either side of it) and inside the clipped last line.
            let items = (0..50)
                .map(|_| {
                    let (addr, len) = if next() % 5 < 2 {
                        let (base, span) = match next() % 3 {
                            0 => (seam - 1024, 2048),
                            1 => (fine.addr.raw(), 4096),
                            _ => (big.addr.raw(), 4096),
                        };
                        let len = 1 + next() % 700;
                        (base + next() % (span - len), len)
                    } else {
                        let len = [1, 4, 8][next() as usize % 3];
                        let addr = match next() % 4 {
                            0 => fine.addr.raw() + len * (next() % (4096 / len)),
                            1 => seam - 72 + next() % 144,
                            2 => clipped + next() % (21 - len),
                            _ => big.addr.raw() + next() % 4096,
                        };
                        (addr, len)
                    };
                    UpdateItem {
                        addr,
                        data: (0..len).map(|i| (i ^ addr ^ round) as u8 | 1).collect(),
                        ts: 2 + next() % 10,
                    }
                })
                .collect();
            let set = UpdateSet { items };
            straddlers += set
                .items
                .iter()
                .filter(|i| i.addr < seam && i.addr + i.data.len() as u64 > seam)
                .count();
            for i in &set.items {
                let (addr, len) = (i.addr, i.data.len() as u64);
                if len <= 8 && one_line(addr, len) {
                    short += 1;
                    at_seam += usize::from(addr.abs_diff(seam) <= 64);
                    in_clipped += usize::from(addr >= clipped);
                }
            }
            let (mut hooked, mut written) = (Vec::new(), Vec::new());
            let got = apply_with(
                &mut fast.0,
                &mut fast.1,
                &layout,
                &PackedSet::from(&set),
                |addr, data| {
                    assert_eq!(
                        addr.region_index(),
                        Addr(addr.raw() + data.len() as u64 - 1).region_index(),
                        "a run stays in its region"
                    );
                    hooked.extend(
                        data.iter()
                            .enumerate()
                            .map(|(i, &b)| (addr.raw() + i as u64, b)),
                    );
                },
            );
            let want = apply_line_by_line(&mut slow.0, &mut slow.1, &layout, &set, &mut written);
            assert_eq!(
                (
                    got.dirtybits_updated,
                    got.bytes_applied,
                    got.bytes_redundant
                ),
                (
                    want.dirtybits_updated,
                    want.bytes_applied,
                    want.bytes_redundant
                ),
                "round {round}"
            );
            skipped += got.bytes_redundant;
            applied += got.bytes_applied;
            assert_eq!(hooked, written, "round {round}: bytes seen by the hook");
            assert_eq!(fast.0.digest(), slow.0.digest(), "round {round}: memory");
            for desc in layout.regions() {
                for line in 0..desc.lines() {
                    assert_eq!(
                        fast.1.bits_mut(&layout, desc.id).get(line),
                        slow.1.bits_mut(&layout, desc.id).get(line),
                        "round {round}: stamp of line {line} in region {}",
                        desc.id
                    );
                }
            }
        }
        assert!(straddlers > 20 && skipped > 10_000 && applied > 100_000);
        assert!(
            short > 1000 && at_seam > 100 && in_clipped > 100,
            "{short} one-line items, {at_seam} at the seam, {in_clipped} clipped"
        );
    }

    /// The line-at-a-time collection the run-copying [`collect_pooled`]
    /// must match: every scan line located and copied on its own, joined
    /// to the previous item when adjacent with the same timestamp.
    fn collect_line_by_line(
        store: &mut LocalStore,
        dirty: &mut DirtyMap,
        layout: &Layout,
        binding: &Binding,
        last_seen: u64,
        now: u64,
    ) -> UpdateSet {
        let mut set = UpdateSet::new();
        for (region_id, lines) in binding.line_spans(layout) {
            let desc = layout.region(region_id).unwrap();
            let scan = dirty
                .bits_mut(layout, region_id)
                .scan(lines, last_seen, now);
            for line in scan.lines {
                let offset = line << desc.line_shift;
                let len = desc.line_size().min(desc.used - offset);
                let addr = desc.base().raw() + offset as u64;
                let ts = dirty.bits_mut(layout, region_id).get(line);
                let data = store.bytes(Addr(addr), len);
                match set.items.last_mut() {
                    Some(prev) if prev.ts == ts && prev.addr + prev.data.len() as u64 == addr => {
                        prev.data.extend_from_slice(data);
                    }
                    _ => set.items.push(UpdateItem {
                        addr,
                        data: data.to_vec(),
                        ts,
                    }),
                }
            }
        }
        set
    }

    #[test]
    fn run_copying_collect_matches_line_by_line() {
        // An allocation spilling over a region boundary (so a run can
        // continue across spans) with a clipped last line, and one of
        // doubleword lines; runs of marked lines, some restamped so
        // neighbours differ in timestamp.
        let mut b = LayoutBuilder::new();
        let big = b.alloc(
            "big",
            midway_mem::REGION_SIZE + 8192 + 20,
            MemClass::Shared,
            6,
        );
        let fine = b.alloc("fine", 4096, MemClass::Shared, 3);
        let layout = b.build();
        let seam = big.addr.raw() + midway_mem::REGION_SIZE as u64;
        let binding = Binding::new(vec![
            seam - 4096..seam + 8192 + 20,
            fine.addr.raw() + 64..fine.addr.raw() + 4000,
        ]);
        let mut next = splitmix(0xc011_ec70);
        let (mut items, mut joined, mut over_seam) = (0, 0, 0);
        for round in 0..40u64 {
            let mut fast = (LocalStore::new(Arc::clone(&layout)), DirtyMap::new(&layout));
            let mut slow = (LocalStore::new(Arc::clone(&layout)), DirtyMap::new(&layout));
            let mut engine = (LocalStore::new(Arc::clone(&layout)), DirtyMap::new(&layout));
            for _ in 0..30 {
                let (addr, len) = match next() % 3 {
                    0 => (seam - 512 + next() % 1024, 1 + next() % 700),
                    1 => (seam + 7000 + next() % 1100, 1 + next() % 100),
                    _ => (fine.addr.raw() + next() % 3900, 1 + next() % 90),
                };
                let stamp = next() % 4; // 0: leave DIRTY, else an old time
                for (st, d) in [&mut fast, &mut slow, &mut engine] {
                    for piece in midway_mem::split_by_region(addr..addr + len) {
                        let (at, n) = (Addr(piece.start), (piece.end - piece.start) as usize);
                        st.write_bytes(at, &vec![(addr ^ round) as u8 | 1; n]);
                        mark_write(d, &layout, at, n);
                        if stamp != 0 {
                            let desc = layout.region_of(at);
                            let line = at.line_in_region(desc.line_shift);
                            d.bits_mut(&layout, desc.id).stamp(line, 10 + stamp);
                        }
                    }
                }
            }
            let mut pool = midway_mem::BufPool::new();
            let got = collect_pooled(
                &mut fast.0,
                &mut fast.1,
                &layout,
                &binding,
                5,
                50,
                &mut pool,
            );
            let want = collect_line_by_line(&mut slow.0, &mut slow.1, &layout, &binding, 5, 50);
            assert_eq!(got.set, want, "round {round}");
            // The engine's path: the same pass into a grant's packed set.
            let mut packed = PackedSet::new();
            let reads = collect_with(
                &mut engine.0,
                &mut engine.1,
                &layout,
                &binding,
                5,
                50,
                &mut packed,
            );
            assert_eq!(UpdateSet::from(&packed), want, "round {round}: packed");
            assert_eq!(reads, (got.clean_reads, got.dirty_reads), "round {round}");
            items += want.len();
            joined += want.items.iter().filter(|i| i.data.len() > 64).count();
            over_seam += want
                .items
                .iter()
                .filter(|i| i.addr < seam && i.addr + i.data.len() as u64 > seam)
                .count();
        }
        assert!(items > 400 && joined > 100 && over_seam > 5);
    }

    #[test]
    fn round_trip_between_two_processors() {
        // P0 writes; collection ships to P1; P1's cache converges.
        let mut b = LayoutBuilder::new();
        let a = b.alloc("x", 128, MemClass::Shared, 3);
        let layout = b.build();
        let mut p0 = LocalStore::new(Arc::clone(&layout));
        let mut p1 = LocalStore::new(Arc::clone(&layout));
        let mut d0 = DirtyMap::new(&layout);
        let mut d1 = DirtyMap::new(&layout);
        let binding = Binding::new(vec![a.addr.raw()..a.addr.raw() + 128]);

        p0.write_u64(a.addr + 24, 2.5f64.to_bits());
        mark_write(&mut d0, &layout, a.addr + 24, 8);
        let scan = collect(&mut p0, &mut d0, &layout, &binding, 1, 10);
        let applied = apply(&mut p1, &mut d1, &layout, &scan.set);
        assert_eq!(applied.bytes_applied, 8);
        assert_eq!(f64::from_bits(p1.read_u64(a.addr + 24)), 2.5);
    }

    #[test]
    fn partial_tail_line_is_clipped_to_region() {
        let mut f = fixture(20, 3); // 2.5 lines; last line is 4 bytes
        f.store.write_bytes(f.base + 16, &5u32.to_le_bytes());
        mark_write(&mut f.dirty, &f.layout, f.base + 16, 4);
        let binding = Binding::new(vec![f.base.raw()..f.base.raw() + 20]);
        let scan = collect(&mut f.store, &mut f.dirty, &f.layout, &binding, 1, 9);
        assert_eq!(scan.set.items[0].data.len(), 4);
    }

    #[test]
    fn pooled_collect_matches_unpooled_with_recycled_buffers() {
        // The same writes collected twice: a fresh pool vs a pool
        // pre-seeded with previously used (formerly dirty) buffers. The
        // shipped sets must be identical — recycled buffers carry no
        // stale bytes into a collection.
        let mut a = fixture(256, 3);
        let mut b = fixture(256, 3);
        for f in [&mut a, &mut b] {
            for off in [0u64, 24, 128, 248] {
                f.store.write_u64(f.base + off, off | 1);
                mark_write(&mut f.dirty, &f.layout, f.base + off, 8);
            }
        }
        let binding = Binding::new(vec![a.base.raw()..a.base.raw() + 256]);
        let plain = collect(&mut a.store, &mut a.dirty, &a.layout, &binding, 1, 50);
        let mut pool = midway_mem::BufPool::new();
        for _ in 0..4 {
            pool.put(vec![0xEE; 64]);
        }
        let pooled = collect_pooled(
            &mut b.store,
            &mut b.dirty,
            &b.layout,
            &binding,
            1,
            50,
            &mut pool,
        );
        assert_eq!(plain.set, pooled.set);
        assert_eq!(plain.dirty_reads, pooled.dirty_reads);
        assert_eq!(plain.clean_reads, pooled.clean_reads);
        assert!(pool.hits > 0, "the recycled buffers were actually drawn");
    }
}
