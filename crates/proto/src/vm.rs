//! VM-DSM write collection (paper §3.4).
//!
//! A write-faulted page has a *twin*; collection diffs dirty pages bound to
//! the requested object against their twins, restricted to the bound
//! ranges. Updates are kept per *incarnation* of the lock; a requester
//! whose last-seen incarnation is too old — or whose binding is stale, or
//! for whom the concatenated updates would exceed the bound data size —
//! receives the full bound data instead.

use std::sync::Arc;

use midway_mem::diff::{DiffScratch, PageDiff};
use midway_mem::{Addr, Layout, LocalStore, PageTable, PAGE_SHIFT, PAGE_SIZE};

use crate::binding::Binding;
use crate::update::{copy_payload, Fill, ItemRef, Update, UpdateSet};

/// Result of a VM collection pass over one binding.
#[derive(Debug)]
pub struct VmCollect {
    /// The update for the current incarnation (restricted to the binding).
    pub update: UpdateSet,
    /// Pages diffed (Table 2: "pages diffed").
    pub pages_diffed: u64,
    /// Pages cleaned — twin freed and page write-protected (Table 2:
    /// "pages write protected").
    pub pages_cleaned: u64,
}

/// Result of applying a VM update set at the requester.
#[derive(Debug, Default)]
pub struct VmApply {
    /// Bytes written into the local cache.
    pub bytes_applied: u64,
    /// Bytes also patched into twins of locally dirty pages (Table 2:
    /// "data updated in twins").
    pub twin_bytes_updated: u64,
}

/// Diffs the dirty pages covered by `binding` and builds the update for
/// the current incarnation: [`collect_with`], its pieces copied into
/// items.
pub fn collect(
    store: &mut LocalStore,
    pages: &mut PageTable,
    layout: &Layout,
    binding: &Binding,
) -> VmCollect {
    let mut update = UpdateSet::new();
    let (pages_diffed, pages_cleaned) = collect_with(
        store,
        pages,
        layout,
        binding,
        |_, _| {},
        |addr, data| update.push(addr, data, 0),
    );
    VmCollect {
        update,
        pages_diffed,
        pages_cleaned,
    }
}

/// The collection pass itself. Every dirty page under `binding` is diffed
/// against its twin; `on_page(runs, words)` reports each diff's run count
/// and the page's size in words (the cost model charges by
/// fragmentation), and `on_item(addr, bytes)` sees each piece of a diff
/// that falls inside the binding, borrowed from the diff buffer, in
/// increasing address order. Returns (pages diffed, pages cleaned).
///
/// A page whose modifications all fall inside the binding is *cleaned*
/// afterwards (twin freed, write-protected): its data now lives in the
/// lock's update history, so the twin is no longer needed.
///
/// The diff buffer and the per-page bound ranges are `pages.scratch`, so
/// a pass allocates nothing of its own per run or per page.
pub fn collect_with(
    store: &mut LocalStore,
    pages: &mut PageTable,
    layout: &Layout,
    binding: &Binding,
    mut on_page: impl FnMut(usize, usize),
    mut on_item: impl FnMut(u64, &[u8]),
) -> (u64, u64) {
    let (mut pages_diffed, mut pages_cleaned) = (0, 0);
    let mut scratch = std::mem::take(&mut pages.scratch);
    let DiffScratch { diff, bound } = &mut scratch;
    for (region_id, page_range) in binding.page_spans(layout) {
        let desc = layout.region(region_id).expect("bound region exists");
        for page in page_range {
            let Some(twin) = pages.twin(region_id, page) else {
                continue;
            };
            let page_base = desc.base() + (page << PAGE_SHIFT) as u64;
            let current = store.bytes(page_base, twin.len());
            PageDiff::compute_into(diff, current, twin);
            pages_diffed += 1;
            on_page(diff.run_count(), current.len() / 4);
            binding.ranges_in_page(region_id, page, bound);
            let mut shipped = 0;
            for (lo, data) in diff.restricted(bound) {
                shipped += data.len();
                on_item(page_base.raw() + lo as u64, data);
            }
            if shipped == diff.changed_bytes() {
                pages.clean(region_id, page);
                pages_cleaned += 1;
            } else if shipped > 0 {
                // Some modified words belong to other synchronization
                // objects; fold the shipped part into the twin so it is not
                // shipped again, and leave the page dirty.
                let twin = pages.twin_mut(region_id, page).expect("still dirty");
                for (lo, data) in diff.restricted(bound) {
                    twin[lo..lo + data.len()].copy_from_slice(data);
                }
            }
        }
    }
    pages.scratch = scratch;
    (pages_diffed, pages_cleaned)
}

/// Reads the full bound data, one item per bound range per region: the
/// fallback when the incarnation history cannot serve a requester, and
/// the §3.5 "blast" strawman's whole payload.
pub fn snapshot<S: Fill + Default>(store: &mut LocalStore, binding: &Binding) -> S {
    let mut set = S::default();
    set.reserve(binding.ranges().len(), binding.data_bytes() as usize);
    for range in binding.ranges() {
        for piece in midway_mem::split_by_region(range.clone()) {
            let len = (piece.end - piece.start) as usize;
            set.push(piece.start, store.bytes(Addr(piece.start), len), 0);
        }
    }
    set
}

/// Applies an incoming update set; modifications landing on a locally
/// dirty page are also applied to its twin, "so the update will not be
/// treated as a new modification by the local processor".
pub fn apply(store: &mut LocalStore, pages: &mut PageTable, set: &UpdateSet) -> VmApply {
    apply_items(store, pages, set.items.iter().map(ItemRef::from))
}

/// One page's twin (if the page is dirty), looked up once per run of
/// chunks that land on the page.
struct TwinCursor<'a> {
    page: (usize, usize),
    twin: Option<&'a mut [u8]>,
}

/// [`apply`] over any run of items (a whole set, or a barrier release's
/// shared set minus the receiver's own addresses). The store slab is
/// resolved once per run of same-region items and the twin once per run
/// of same-page chunks, not once per item. An item inside one page — all
/// but the longest diff runs — is one copy into the store and at most one
/// into the twin; a word or doubleword is copied as one store.
pub fn apply_items<'a>(
    store: &mut LocalStore,
    pages: &mut PageTable,
    items: impl IntoIterator<Item = ItemRef<'a>>,
) -> VmApply {
    let mut out = VmApply::default();
    let mut slab: Option<(usize, &mut [u8])> = None;
    let mut cur: Option<TwinCursor<'_>> = None;
    for item in items {
        let start = Addr(item.addr);
        let region = start.region_index();
        if slab.as_ref().is_none_or(|s| s.0 != region) {
            slab = Some((region, store.region_mut(region)));
        }
        let (_, bytes) = slab.as_mut().expect("resolved above");
        let (offset, len) = (start.region_offset(), item.data.len());
        copy_payload(&mut bytes[offset..offset + len], item.data);
        out.bytes_applied += len as u64;
        // Patch the twin page by page (items may span page boundaries).
        let mut pos = 0usize;
        while pos < len {
            let addr = Addr(item.addr + pos as u64);
            let page = (region, addr.page_in_region());
            let at = addr.page_offset();
            let chunk = (PAGE_SIZE - at).min(len - pos);
            if cur.as_ref().is_none_or(|c| c.page != page) {
                let twin = pages.twin_mut(page.0, page.1);
                cur = Some(TwinCursor { page, twin });
            }
            if let Some(twin) = cur.as_mut().and_then(|c| c.twin.as_deref_mut()) {
                let end = (at + chunk).min(twin.len());
                if at < end {
                    copy_payload(&mut twin[at..end], &item.data[pos..pos + (end - at)]);
                    out.twin_bytes_updated += (end - at) as u64;
                }
            }
            pos += chunk;
        }
    }
    out
}

/// The per-lock incarnation history one processor knows (paper §3.4).
///
/// "The releasing processor has available the complete set of prior
/// updates, because it saves the updates it receives when acquiring each
/// lock" — but, like Midway, we do not save them all: the history is a
/// bounded contiguous suffix, and requesters who need more receive the
/// full bound data.
///
/// Entries are reference-counted: the same `Update` is simultaneously in
/// this history, in in-flight grant payloads, and (after a grant) in the
/// requester's history — `since`/`absorb` share the data instead of
/// deep-copying every item buffer at each hop.
#[derive(Clone, Debug)]
pub struct LockHistory {
    updates: std::collections::VecDeque<Arc<Update>>,
    cap: usize,
}

impl LockHistory {
    /// An empty history retaining at most `cap` incarnations.
    pub fn new(cap: usize) -> LockHistory {
        LockHistory {
            updates: std::collections::VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Records the update of a new incarnation (must be increasing).
    pub fn push(&mut self, update: Arc<Update>) {
        if let Some(last) = self.updates.back() {
            assert!(
                update.incarnation > last.incarnation,
                "incarnations must increase"
            );
        }
        self.updates.push_back(update);
        while self.updates.len() > self.cap {
            self.updates.pop_front();
        }
    }

    /// Absorbs updates received with a grant (they extend this processor's
    /// known history). Only the reference counts move; the update data
    /// itself is shared with the payload they arrived in.
    pub fn absorb(&mut self, received: &[Arc<Update>]) {
        for u in received {
            let newer = self
                .updates
                .back()
                .is_none_or(|last| u.incarnation > last.incarnation);
            if newer {
                self.push(Arc::clone(u));
            }
        }
    }

    /// The updates a requester at `last_seen` needs: the contiguous chain
    /// `last_seen+1 ..= current` if retained, or — when the oldest retained
    /// entry is a full snapshot — everything from that snapshot onward (a
    /// snapshot subsumes all earlier incarnations). Returned by reference
    /// count: building a grant payload copies no item data.
    pub fn since(&self, last_seen: u64) -> Option<Vec<Arc<Update>>> {
        let newest = self.updates.back()?.incarnation;
        if last_seen >= newest {
            return Some(Vec::new());
        }
        // Incarnations increase along the deque (`push` asserts it).
        let first = self.updates.partition_point(|u| u.incarnation <= last_seen);
        if self.updates.len() - first == (newest - last_seen) as usize {
            return Some(self.updates.range(first..).cloned().collect());
        }
        if self.updates.front().is_some_and(|u| u.full) {
            return Some(self.updates.iter().cloned().collect());
        }
        None
    }

    /// The newest incarnation recorded, if any.
    pub fn newest(&self) -> Option<u64> {
        self.updates.back().map(|u| u.incarnation)
    }

    /// Clears the history (used on rebinding: old updates describe ranges
    /// that may no longer be bound).
    pub fn clear(&mut self) {
        self.updates.clear();
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // one-range bindings are the point here
mod tests {
    use super::*;
    use crate::update::{PackedSet, UpdateItem};
    use midway_mem::{LayoutBuilder, MemClass, PAGE_SIZE};
    use std::sync::Arc;

    struct Fixture {
        layout: Arc<Layout>,
        store: LocalStore,
        pages: PageTable,
        base: Addr,
        region: usize,
    }

    fn fixture(bytes: usize) -> Fixture {
        let mut b = LayoutBuilder::new();
        let a = b.alloc("x", bytes, MemClass::Shared, 12);
        let layout = b.build();
        Fixture {
            store: LocalStore::new(Arc::clone(&layout)),
            pages: PageTable::new(Arc::clone(&layout)),
            layout,
            base: a.addr,
            region: a.addr.region_index(),
        }
    }

    /// Simulates the app write path: fault if needed, then store.
    fn write_u64(f: &mut Fixture, addr: Addr, v: u64) {
        let page = addr.page_in_region();
        if !f.pages.is_writable(f.region, page) {
            let offset = page << PAGE_SHIFT;
            let len = PAGE_SIZE.min(f.layout.region(f.region).unwrap().used - offset);
            let current = f.store.bytes(f.base.region_base() + offset as u64, len);
            f.pages.fault_in(f.region, page, current);
        }
        f.store.write_u64(addr, v);
    }

    #[test]
    fn collect_ships_diff_and_cleans_covered_pages() {
        let mut f = fixture(2 * PAGE_SIZE);
        let a = f.base + 8;
        write_u64(&mut f, a, u64::MAX - 42);
        let binding = Binding::new(vec![f.base.raw()..f.base.raw() + 2 * PAGE_SIZE as u64]);
        let c = collect(&mut f.store, &mut f.pages, &f.layout, &binding);
        assert_eq!(c.pages_diffed, 1);
        assert_eq!(c.pages_cleaned, 1);
        assert_eq!(c.update.len(), 1);
        assert_eq!(c.update.items[0].addr, f.base.raw() + 8);
        assert!(!f.pages.is_dirty(f.region, 0));
    }

    #[test]
    fn partially_bound_dirty_page_stays_dirty() {
        let mut f = fixture(PAGE_SIZE);
        let a = f.base + 8;
        write_u64(&mut f, a, u64::MAX - 1); // inside the binding
        let a = f.base + 512;
        write_u64(&mut f, a, u64::MAX - 2); // outside the binding
        let binding = Binding::new(vec![f.base.raw()..f.base.raw() + 256]);
        let c = collect(&mut f.store, &mut f.pages, &f.layout, &binding);
        assert_eq!(c.pages_cleaned, 0);
        assert!(f.pages.is_dirty(f.region, 0));
        assert_eq!(c.update.data_bytes(), 8);
        // The shipped part was folded into the twin: collecting again for
        // the same binding ships nothing new.
        let again = collect(&mut f.store, &mut f.pages, &f.layout, &binding);
        assert!(again.update.is_empty());
    }

    #[test]
    fn apply_patches_twins_of_dirty_pages() {
        let mut f = fixture(PAGE_SIZE);
        let a = f.base + 512;
        write_u64(&mut f, a, u64::MAX - 7); // page is now dirty with a twin
        let set = UpdateSet {
            items: vec![UpdateItem {
                addr: f.base.raw(),
                data: vec![9; 8],
                ts: 0,
            }],
        };
        let a = apply(&mut f.store, &mut f.pages, &set);
        assert_eq!(a.bytes_applied, 8);
        assert_eq!(a.twin_bytes_updated, 8);
        // The incoming update is not mistaken for a local modification.
        let binding = Binding::new(vec![f.base.raw()..f.base.raw() + PAGE_SIZE as u64]);
        let c = collect(&mut f.store, &mut f.pages, &f.layout, &binding);
        assert_eq!(c.update.data_bytes(), 8, "only the local write ships");
        assert_eq!(c.update.items[0].addr, f.base.raw() + 512);
    }

    /// The byte-at-a-time application [`apply_items`] must match: every
    /// byte written to the store, and to its page's twin when the page has
    /// one that reaches that far.
    fn apply_byte_by_byte(
        store: &mut LocalStore,
        pages: &mut PageTable,
        set: &UpdateSet,
    ) -> VmApply {
        let mut out = VmApply::default();
        for item in &set.items {
            for (i, &byte) in item.data.iter().enumerate() {
                let addr = Addr(item.addr + i as u64);
                store.write_bytes(addr, &[byte]);
                out.bytes_applied += 1;
                let (region, page) = (addr.region_index(), addr.page_in_region());
                if let Some(twin) = pages.twin_mut(region, page) {
                    if let Some(b) = twin.get_mut(addr.page_offset()) {
                        *b = byte;
                        out.twin_bytes_updated += 1;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn apply_items_matches_byte_by_byte() {
        // An allocation spilling into a second region whose last page is
        // clipped to 100 bytes; some pages dirty (with twins), some not.
        let mut b = LayoutBuilder::new();
        let a = b.alloc(
            "x",
            midway_mem::REGION_SIZE + 3 * PAGE_SIZE + 100,
            MemClass::Shared,
            3,
        );
        let layout = b.build();
        let seam = a.addr.raw() + midway_mem::REGION_SIZE as u64;
        let mut s = 0x0a11_7e5du64;
        let mut next = move || {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let (mut one_page, mut crossing, mut twinned) = (0, 0, 0);
        for round in 0..40u64 {
            let mut fast = (
                LocalStore::new(Arc::clone(&layout)),
                PageTable::new(Arc::clone(&layout)),
            );
            let mut slow = (
                LocalStore::new(Arc::clone(&layout)),
                PageTable::new(Arc::clone(&layout)),
            );
            for desc in layout.regions() {
                for page in 0..desc.pages() {
                    if next() % 2 == 0 {
                        let offset = page << PAGE_SHIFT;
                        let len = PAGE_SIZE.min(desc.used - offset);
                        let current = vec![round as u8; len];
                        fast.1.fault_in(desc.id, page, &current);
                        slow.1.fault_in(desc.id, page, &current);
                    }
                }
            }
            // Items inside one page (bytes, words, doublewords, short runs)
            // and runs across pages, in either region, none across the
            // region seam (a diff never crosses one).
            let items = (0..60)
                .map(|_| {
                    let (base, span) = match next() % 3 {
                        0 => (a.addr.raw(), 4 * PAGE_SIZE as u64),
                        1 => (seam - 2 * PAGE_SIZE as u64, 2 * PAGE_SIZE as u64),
                        _ => (seam, 3 * PAGE_SIZE as u64 + 100),
                    };
                    let len = match next() % 4 {
                        0 => 1,
                        1 => 4,
                        2 => 8,
                        _ => 1 + next() % 6000,
                    }
                    .min(span);
                    let addr = base + next() % (span - len + 1);
                    UpdateItem {
                        addr,
                        data: (0..len).map(|i| (i ^ addr ^ round) as u8 | 1).collect(),
                        ts: 0,
                    }
                })
                .collect();
            let set = UpdateSet { items };
            for i in &set.items {
                let (first, last) = (Addr(i.addr), Addr(i.addr + i.data.len() as u64 - 1));
                if first.page_in_region() == last.page_in_region() {
                    one_page += 1;
                } else {
                    crossing += 1;
                }
            }
            // The engine's path: a grant's packed set.
            let got = apply_items(&mut fast.0, &mut fast.1, &PackedSet::from(&set));
            let want = apply_byte_by_byte(&mut slow.0, &mut slow.1, &set);
            assert_eq!(got.bytes_applied, want.bytes_applied, "round {round}");
            assert_eq!(
                got.twin_bytes_updated, want.twin_bytes_updated,
                "round {round}"
            );
            twinned += want.twin_bytes_updated;
            assert_eq!(fast.0.digest(), slow.0.digest(), "round {round}: store");
            for desc in layout.regions() {
                for page in 0..desc.pages() {
                    assert_eq!(
                        fast.1.twin(desc.id, page).map(<[u8]>::to_vec),
                        slow.1.twin(desc.id, page).map(<[u8]>::to_vec),
                        "round {round}: twin of page {page} in region {}",
                        desc.id
                    );
                }
            }
        }
        assert!(
            one_page > 1500 && crossing > 200 && twinned > 100_000,
            "{one_page} / {crossing} / {twinned}"
        );
    }

    #[test]
    fn snapshot_reads_all_bound_data() {
        let mut f = fixture(PAGE_SIZE);
        f.store.write_u64(f.base + 16, 3);
        let binding = Binding::new(vec![f.base.raw()..f.base.raw() + 64]);
        let s: PackedSet = snapshot(&mut f.store, &binding);
        assert_eq!(s.data_bytes(), 64);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn blast_ships_everything_every_time() {
        // The §3.5 "blast" strawman's payload is the snapshot: a sparse
        // write still moves every bound byte.
        let mut b = LayoutBuilder::new();
        let a = b.alloc("x", 1024, MemClass::Shared, 3);
        let layout = b.build();
        let mut p0 = LocalStore::new(Arc::clone(&layout));
        let mut p1 = LocalStore::new(layout);
        let binding = Binding::new(vec![a.addr.raw()..a.addr.raw() + 1024]);

        p0.write_u64(a.addr + 8, 5);
        let set: PackedSet = snapshot(&mut p0, &binding);
        assert_eq!(set.data_bytes(), 1024, "sparse write, full transfer");
        for item in &set {
            p1.write_bytes(Addr(item.addr), item.data);
        }
        assert_eq!(p1.read_u64(a.addr + 8), 5);
    }

    #[test]
    fn history_serves_contiguous_suffixes_only() {
        let upd = |inc: u64| {
            Arc::new(Update {
                incarnation: inc,
                set: PackedSet::new(),
                full: false,
            })
        };
        let mut h = LockHistory::new(4);
        for inc in 1..=6 {
            h.push(upd(inc));
        }
        // Cap 4 keeps incarnations 3..=6.
        assert_eq!(h.newest(), Some(6));
        assert_eq!(h.since(4).unwrap().len(), 2);
        assert_eq!(h.since(6).unwrap().len(), 0);
        assert_eq!(h.since(9).unwrap().len(), 0);
        assert!(h.since(1).is_none(), "incarnation 2 was pruned");
    }

    #[test]
    fn history_absorbs_received_updates() {
        let upd = |inc: u64| {
            Arc::new(Update {
                incarnation: inc,
                set: PackedSet::new(),
                full: false,
            })
        };
        let mut h = LockHistory::new(8);
        h.push(upd(3));
        h.absorb(&[upd(2), upd(4), upd(5)]);
        assert_eq!(h.newest(), Some(5));
        assert_eq!(h.since(2).unwrap().len(), 3);
    }

    /// `since` finds the first needed incarnation by bisection; the scan it
    /// replaced kept every retained update newer than `last_seen`. Both
    /// agree on random histories: gapped and contiguous incarnations,
    /// pruned by the cap, led by a full snapshot or not, asked from before
    /// the oldest to past the newest.
    #[test]
    fn since_matches_a_filter_over_the_history() {
        fn by_filter(h: &LockHistory, last_seen: u64) -> Option<Vec<u64>> {
            let newest = h.newest()?;
            if last_seen >= newest {
                return Some(Vec::new());
            }
            let needed: Vec<u64> = h
                .updates
                .iter()
                .filter(|u| u.incarnation > last_seen)
                .map(|u| u.incarnation)
                .collect();
            if needed.len() == (newest - last_seen) as usize {
                return Some(needed);
            }
            h.updates
                .front()
                .is_some_and(|u| u.full)
                .then(|| h.updates.iter().map(|u| u.incarnation).collect())
        }
        let mut rng = midway_sim::SplitMix64::new(0x5141_ce11);
        for _ in 0..200 {
            let mut h = LockHistory::new(1 + rng.next_below(12) as usize);
            let mut inc = rng.next_below(4);
            for _ in 0..rng.next_below(24) {
                inc += 1 + rng.next_below(3) / 2;
                h.push(Arc::new(Update {
                    incarnation: inc,
                    set: PackedSet::new(),
                    full: rng.next_below(4) == 0,
                }));
            }
            for last_seen in 0..inc + 3 {
                let got = h
                    .since(last_seen)
                    .map(|us| us.iter().map(|u| u.incarnation).collect::<Vec<_>>());
                assert_eq!(got, by_filter(&h, last_seen), "last_seen {last_seen}");
            }
        }
    }
}
