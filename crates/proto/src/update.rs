//! Consistency updates and their wire-size accounting.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;
use std::sync::Arc;

/// Fixed per-message protocol header, in bytes.
pub const MSG_HEADER_BYTES: u64 = 32;

/// Per-item wire overhead: address (8) + length (4) + timestamp (8).
pub(crate) const ITEM_HEADER_BYTES: u64 = 20;

/// One updated piece of shared memory: a cache line (RT) or a diff run
/// (VM), addressed globally.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateItem {
    /// Global address of the first byte.
    pub addr: u64,
    /// The new bytes.
    pub data: Vec<u8>,
    /// RT-DSM: the Lamport timestamp of the modification. VM-DSM: unused
    /// (zero) — ordering comes from the enclosing incarnation.
    pub ts: u64,
}

/// One update item, borrowed: from a [`PackedSet`], or from an
/// [`UpdateItem`] through `From`. Every applier and encoder reads items
/// as these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItemRef<'a> {
    /// Global address of the first byte.
    pub addr: u64,
    /// The new bytes.
    pub data: &'a [u8],
    /// The item's timestamp (see [`UpdateItem::ts`]).
    pub ts: u64,
}

impl<'a> From<&'a UpdateItem> for ItemRef<'a> {
    #[inline]
    fn from(item: &'a UpdateItem) -> ItemRef<'a> {
        ItemRef {
            addr: item.addr,
            data: &item.data,
            ts: item.ts,
        }
    }
}

/// Where a collection pass puts the items it finds: a lock grant's
/// [`PackedSet`] or a barrier contribution's [`UpdateSet`].
pub trait Fill {
    /// Makes room for `items` more items holding `bytes` more bytes.
    fn reserve(&mut self, items: usize, bytes: usize);

    /// Appends an item holding a copy of `data`, exactly as given: an
    /// item is never joined to the one before it.
    fn push(&mut self, addr: u64, data: &[u8], ts: u64);

    /// Appends `data` to the last item's bytes.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    fn extend_last(&mut self, data: &[u8]);
}

/// The fixed-size part of one item in a [`PackedSet`]. The item's bytes
/// follow the previous item's in the set's buffer, so a head holds only
/// their count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Head {
    addr: u64,
    ts: u64,
    len: u32,
}

const _: () = assert!(std::mem::size_of::<Head>() == 24);

/// An update set packed: a 24-byte head per item and every item's bytes
/// in one buffer, so building a set of any size allocates two vectors,
/// not one per item. What lock grants carry.
///
/// [`push`](PackedSet::push) appends an item exactly as given; iterating
/// yields the items pushed, in order, as borrowed [`ItemRef`]s. Sizes are
/// those of the [`UpdateSet`] holding the same items.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PackedSet {
    heads: Vec<Head>,
    bytes: Vec<u8>,
}

impl PackedSet {
    /// Bytes of memory one item takes besides its data.
    pub const HEAD_BYTES: usize = std::mem::size_of::<Head>();

    /// An empty set.
    pub fn new() -> PackedSet {
        PackedSet::default()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True when nothing is carried.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Application data bytes (what the paper's "data transferred" counts).
    pub fn data_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Total bytes on the wire, including per-item headers.
    pub fn wire_size(&self) -> u64 {
        self.data_bytes() + ITEM_HEADER_BYTES * self.len() as u64
    }

    /// The items in the order they were pushed.
    pub fn iter(&self) -> Items<'_> {
        Items {
            heads: self.heads.iter(),
            bytes: &self.bytes,
        }
    }

    /// Appends an item holding a copy of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is 2^32 bytes or longer (the wire counts an
    /// item's bytes in a `u32`).
    #[inline]
    pub fn push(&mut self, addr: u64, data: &[u8], ts: u64) {
        let len = u32::try_from(data.len()).expect("item length fits a u32");
        self.heads.push(Head { addr, ts, len });
        self.bytes.extend_from_slice(data);
    }
}

impl Fill for PackedSet {
    fn reserve(&mut self, items: usize, bytes: usize) {
        self.heads.reserve(items);
        self.bytes.reserve(bytes);
    }

    #[inline]
    fn push(&mut self, addr: u64, data: &[u8], ts: u64) {
        PackedSet::push(self, addr, data, ts);
    }

    fn extend_last(&mut self, data: &[u8]) {
        let last = self.heads.last_mut().expect("a last item");
        last.len = u32::try_from(last.len as usize + data.len()).expect("item length fits a u32");
        self.bytes.extend_from_slice(data);
    }
}

impl Fill for UpdateSet {
    fn reserve(&mut self, items: usize, _bytes: usize) {
        self.items.reserve(items);
    }

    #[inline]
    fn push(&mut self, addr: u64, data: &[u8], ts: u64) {
        self.items.push(UpdateItem {
            addr,
            data: data.to_vec(),
            ts,
        });
    }

    fn extend_last(&mut self, data: &[u8]) {
        let last = self.items.last_mut().expect("a last item");
        last.data.extend_from_slice(data);
    }
}

impl std::fmt::Debug for PackedSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a PackedSet {
    type Item = ItemRef<'a>;
    type IntoIter = Items<'a>;

    fn into_iter(self) -> Items<'a> {
        self.iter()
    }
}

impl From<&UpdateSet> for PackedSet {
    fn from(set: &UpdateSet) -> PackedSet {
        let mut packed = PackedSet::new();
        packed.reserve(set.len(), set.data_bytes() as usize);
        for item in &set.items {
            packed.push(item.addr, &item.data, item.ts);
        }
        packed
    }
}

impl From<&PackedSet> for UpdateSet {
    fn from(set: &PackedSet) -> UpdateSet {
        let mut owned = UpdateSet::new();
        owned.reserve(set.len(), 0);
        for item in set {
            Fill::push(&mut owned, item.addr, item.data, item.ts);
        }
        owned
    }
}

/// The items of a [`PackedSet`], in order.
#[derive(Clone, Debug)]
pub struct Items<'a> {
    heads: std::slice::Iter<'a, Head>,
    /// The bytes of the items not yet yielded.
    bytes: &'a [u8],
}

impl<'a> Iterator for Items<'a> {
    type Item = ItemRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<ItemRef<'a>> {
        let head = self.heads.next()?;
        let (data, rest) = self.bytes.split_at(head.len as usize);
        self.bytes = rest;
        Some(ItemRef {
            addr: head.addr,
            data,
            ts: head.ts,
        })
    }
}

/// A set of updates shipped in one direction at one synchronization point.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateSet {
    /// The items, in increasing address order.
    pub items: Vec<UpdateItem>,
}

impl UpdateSet {
    /// An empty set.
    pub fn new() -> UpdateSet {
        UpdateSet::default()
    }

    /// True when nothing is carried.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Application data bytes (what the paper's "data transferred" counts).
    pub fn data_bytes(&self) -> u64 {
        self.items.iter().map(|i| i.data.len() as u64).sum()
    }

    /// Total bytes on the wire, including per-item headers.
    pub fn wire_size(&self) -> u64 {
        self.data_bytes() + ITEM_HEADER_BYTES * self.items.len() as u64
    }

    /// True when items are in strictly increasing address order (the
    /// invariant every detector-produced set satisfies).
    fn addr_sorted(&self) -> bool {
        self.items.windows(2).all(|w| w[0].addr < w[1].addr)
    }

    /// Merges `other` into `self`, keeping the newer item when both carry
    /// the same address (ties broken toward `other`).
    ///
    /// Used by the barrier manager to combine per-processor contributions.
    /// Sorted inputs take a linear two-pointer merge; anything else falls
    /// back to the quadratic find-and-replace with identical semantics.
    pub fn merge_newer(&mut self, other: UpdateSet) {
        if self.addr_sorted() && other.addr_sorted() {
            let mut merged = Vec::with_capacity(self.items.len() + other.items.len());
            let mut a = std::mem::take(&mut self.items).into_iter().peekable();
            let mut b = other.items.into_iter().peekable();
            loop {
                match (a.peek(), b.peek()) {
                    (Some(x), Some(y)) => match x.addr.cmp(&y.addr) {
                        std::cmp::Ordering::Less => merged.push(a.next().expect("peeked")),
                        std::cmp::Ordering::Greater => merged.push(b.next().expect("peeked")),
                        std::cmp::Ordering::Equal => {
                            let mine = a.next().expect("peeked");
                            let theirs = b.next().expect("peeked");
                            merged.push(if theirs.ts >= mine.ts { theirs } else { mine });
                        }
                    },
                    (Some(_), None) => merged.push(a.next().expect("peeked")),
                    (None, Some(_)) => merged.push(b.next().expect("peeked")),
                    (None, None) => break,
                }
            }
            self.items = merged;
            return;
        }
        for item in other.items {
            match self.items.iter_mut().find(|i| i.addr == item.addr) {
                Some(existing) => {
                    if item.ts >= existing.ts {
                        *existing = item;
                    }
                }
                None => self.items.push(item),
            }
        }
        self.items.sort_by_key(|i| i.addr);
    }

    /// Merges `sets`, in order, into one set: exactly the left fold of
    /// [`merge_newer`](Self::merge_newer) over them from an empty set, so
    /// where two items share an address the later set's wins when its
    /// `ts` is no older.
    ///
    /// A barrier merges an episode's contributions here once, when the
    /// last one is in. Strictly address-sorted inputs (every producer's,
    /// and all a decoder accepts) take a k-way merge that moves each item
    /// once; anything else falls back to the fold itself.
    pub fn merge_all(sets: Vec<UpdateSet>) -> UpdateSet {
        if !sets.iter().all(UpdateSet::addr_sorted) {
            let mut merged = UpdateSet::new();
            for set in sets {
                merged.merge_newer(set);
            }
            return merged;
        }
        let mut items: Vec<UpdateItem> = Vec::with_capacity(sets.iter().map(UpdateSet::len).sum());
        let mut heads: Vec<_> = sets.into_iter().map(|s| s.items.into_iter()).collect();
        // One heap entry per set with items left: (its next address, its
        // position). Equal addresses pop in set order, the fold's order.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = heads
            .iter()
            .enumerate()
            .filter_map(|(k, h)| Some(Reverse((h.as_slice().first()?.addr, k))))
            .collect();
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((addr, k)) = *top;
            let item = heads[k].next().expect("queued sets have an item");
            match heads[k].as_slice().first() {
                Some(next) => *top = Reverse((next.addr, k)),
                None => {
                    PeekMut::pop(top);
                }
            }
            match items.last_mut() {
                Some(last) if last.addr == addr => {
                    if item.ts >= last.ts {
                        *last = item;
                    }
                }
                _ => items.push(item),
            }
        }
        UpdateSet { items }
    }

    /// This set's item addresses as a skip list for a [`MaskedSet`]:
    /// sorted and deduplicated here, where the list is built, whatever
    /// order the items are in.
    pub fn sorted_addrs(&self) -> Vec<u64> {
        let mut addrs: Vec<u64> = self.items.iter().map(|i| i.addr).collect();
        if !addrs.windows(2).all(|w| w[0] < w[1]) {
            addrs.sort_unstable();
            addrs.dedup();
        }
        addrs
    }

    /// The items whose address is not in `skip` (sorted ascending),
    /// materialized in self order.
    pub(crate) fn without(&self, skip: &[u64]) -> UpdateSet {
        let mask = Mask::new(&self.items, self.addr_sorted(), skip);
        let mut items = Vec::with_capacity(self.items.len() - mask.hidden);
        for run in &mask.visible {
            items.extend_from_slice(&self.items[run.clone()]);
        }
        UpdateSet { items }
    }

    /// The subset of items whose address is not in `exclude`, materialized
    /// (self order preserved). The barrier path applies a [`MaskedSet`]
    /// in place instead; this copy remains for callers that need an owned
    /// set.
    pub fn excluding_addrs_of(&self, exclude: &UpdateSet) -> UpdateSet {
        self.without(&exclude.sorted_addrs())
    }
}

/// The part of a set a sorted skip list leaves visible, as index ranges.
#[derive(Debug, Default)]
struct Mask {
    /// Maximal runs of visible items, in order.
    visible: Vec<Range<usize>>,
    /// Items hidden by the skip list, and their data bytes.
    hidden: usize,
    hidden_bytes: u64,
}

impl Mask {
    /// Masks `items` with `skip` (sorted ascending). On a strictly
    /// address-sorted set that is one search per skip address, each
    /// galloping on from where the previous one stopped, so a skip list
    /// as long as the set costs a walk and a short one a few probes per
    /// address; on any other set it is one walk, every item looked up in
    /// `skip`.
    fn new(items: &[UpdateItem], sorted: bool, skip: &[u64]) -> Mask {
        debug_assert!(skip.windows(2).all(|w| w[0] <= w[1]), "unsorted skip list");
        let mut mask = Mask::default();
        let mut start = 0;
        let mut hide = |i: usize, mask: &mut Mask| {
            if start < i {
                mask.visible.push(start..i);
            }
            mask.hidden += 1;
            mask.hidden_bytes += items[i].data.len() as u64;
            start = i + 1;
        };
        if sorted {
            let mut from = 0;
            for &addr in skip {
                from = gallop(items, from, addr);
                if items.get(from).is_some_and(|i| i.addr == addr) {
                    hide(from, &mut mask);
                    from += 1;
                }
            }
        } else {
            for (i, item) in items.iter().enumerate() {
                if skip.binary_search(&item.addr).is_ok() {
                    hide(i, &mut mask);
                }
            }
        }
        if start < items.len() {
            mask.visible.push(start..items.len());
        }
        mask
    }
}

/// The first index at or after `from` of a strictly address-sorted
/// `items` whose address is not below `addr`: an exponential search from
/// `from`, then a binary search inside the last step.
fn gallop(items: &[UpdateItem], from: usize, addr: u64) -> usize {
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while items.get(hi).is_some_and(|i| i.addr < addr) {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(items.len());
    lo + items[lo..hi].partition_point(|i| i.addr < addr)
}

/// A shared [`UpdateSet`] seen through one receiver's skip list: what a
/// barrier release delivers. Every receiver borrows the same merged set
/// and differs only in the addresses it skips (its own contribution), so
/// "merged minus own" is never materialized per processor.
///
/// The visible part is found once, at construction, as index ranges of
/// the shared set; its sizes are the set's totals (computed once per
/// episode, by [`whole`](Self::whole)) minus the skipped items, and are
/// what every byte counter, copy charge and wire size on the release path
/// reads.
#[derive(Clone, Debug)]
pub struct MaskedSet {
    set: Arc<UpdateSet>,
    /// Whether `set` is strictly address-sorted, and its data bytes.
    sorted: bool,
    set_bytes: u64,
    visible: Vec<Range<usize>>,
    len: usize,
    data_bytes: u64,
}

impl MaskedSet {
    /// All of `set`.
    pub fn whole(set: Arc<UpdateSet>) -> MaskedSet {
        let (sorted, set_bytes) = (set.addr_sorted(), set.data_bytes());
        MaskedSet {
            visible: Mask::new(&set.items, sorted, &[]).visible,
            len: set.len(),
            data_bytes: set_bytes,
            sorted,
            set_bytes,
            set,
        }
    }

    /// The same shared set minus the items at the addresses in `skip`,
    /// which must be sorted ascending (see [`UpdateSet::sorted_addrs`]).
    /// Whatever `self` skips is not carried over.
    pub fn with_skip(&self, skip: &[u64]) -> MaskedSet {
        let mask = Mask::new(&self.set.items, self.sorted, skip);
        MaskedSet {
            set: Arc::clone(&self.set),
            sorted: self.sorted,
            set_bytes: self.set_bytes,
            visible: mask.visible,
            len: self.set.len() - mask.hidden,
            data_bytes: self.set_bytes - mask.hidden_bytes,
        }
    }

    /// The visible items, in set order.
    pub fn iter(&self) -> Visible<'_> {
        Visible {
            items: &self.set.items,
            runs: self.visible.iter(),
            run: [].iter(),
        }
    }

    /// Number of visible items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no item is visible.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Application data bytes of the visible items.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Bytes the visible items take on the wire, per-item headers included.
    pub fn wire_size(&self) -> u64 {
        self.data_bytes + ITEM_HEADER_BYTES * self.len as u64
    }
}

/// The visible items of a [`MaskedSet`], borrowed: its index ranges
/// walked in order.
#[derive(Clone, Debug)]
pub struct Visible<'a> {
    items: &'a [UpdateItem],
    runs: std::slice::Iter<'a, Range<usize>>,
    run: std::slice::Iter<'a, UpdateItem>,
}

impl<'a> Iterator for Visible<'a> {
    type Item = &'a UpdateItem;

    #[inline]
    fn next(&mut self) -> Option<&'a UpdateItem> {
        loop {
            if let Some(item) = self.run.next() {
                return Some(item);
            }
            self.run = self.items[self.runs.next()?.clone()].iter();
        }
    }
}

/// Copies an item's payload into a destination of the same length: a word
/// or a doubleword as one fixed-width store, anything else through
/// `copy_from_slice`.
#[inline]
pub(crate) fn copy_payload(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    match src.len() {
        8 => dst[..8].copy_from_slice(&src[..8]),
        4 => dst[..4].copy_from_slice(&src[..4]),
        _ => dst.copy_from_slice(src),
    }
}

/// A VM-DSM update: the modifications made during one incarnation of a
/// lock (paper §3.4).
#[derive(Clone, Debug, PartialEq)]
pub struct Update {
    /// The incarnation this update encapsulates.
    pub incarnation: u64,
    /// The modified data.
    pub set: PackedSet,
    /// True when `set` is a full snapshot of the bound data: it subsumes
    /// every earlier incarnation, so it can serve arbitrarily old
    /// requesters.
    pub full: bool,
}

impl Update {
    /// Wire size of this update.
    pub fn wire_size(&self) -> u64 {
        8 + self.set.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(addr: u64, bytes: usize, ts: u64) -> UpdateItem {
        UpdateItem {
            addr,
            data: vec![ts as u8; bytes],
            ts,
        }
    }

    #[test]
    fn sizes_count_data_and_headers() {
        let set = UpdateSet {
            items: vec![item(0, 8, 1), item(16, 4, 2)],
        };
        assert_eq!(set.data_bytes(), 12);
        assert_eq!(set.wire_size(), 12 + 2 * ITEM_HEADER_BYTES);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn merge_keeps_newer_timestamps() {
        let mut a = UpdateSet {
            items: vec![item(0, 8, 5), item(8, 8, 9)],
        };
        let b = UpdateSet {
            items: vec![item(0, 8, 7), item(8, 8, 3), item(16, 8, 1)],
        };
        a.merge_newer(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.items[0].ts, 7, "newer replaces older");
        assert_eq!(a.items[1].ts, 9, "older does not replace newer");
        assert_eq!(a.items[2].addr, 16);
    }

    #[test]
    fn excluding_addrs_filters_out_own_contribution() {
        let merged = UpdateSet {
            items: vec![item(0, 8, 1), item(8, 8, 2), item(16, 8, 3)],
        };
        let mine = UpdateSet {
            items: vec![item(8, 8, 2)],
        };
        let rest = merged.excluding_addrs_of(&mine);
        assert_eq!(
            rest.items.iter().map(|i| i.addr).collect::<Vec<_>>(),
            vec![0, 16]
        );
    }

    #[test]
    fn empty_set_is_cheap() {
        let set = UpdateSet::new();
        assert!(set.is_empty());
        assert_eq!(set.wire_size(), 0);
        let packed = PackedSet::new();
        assert!(packed.is_empty());
        assert_eq!((packed.len(), packed.wire_size()), (0, 0));
        assert_eq!(packed.iter().next(), None);
    }

    /// Items of any length (empty ones too) and any timestamp, at
    /// addresses that may repeat, run backwards or touch.
    fn random_items(seed: u64, max_items: u64) -> Vec<UpdateItem> {
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let n = next() % max_items;
        let mut addr = 0x40_0000u64;
        (0..n)
            .map(|i| {
                let len = [0, 1, 4, 8, 64, 1 + next() % 3000][next() as usize % 6];
                match next() % 4 {
                    0 => addr -= 8 * (next() % 4),
                    1 => addr += len,
                    _ => addr += len + next() % 100,
                }
                UpdateItem {
                    addr,
                    data: (0..len).map(|k| (k ^ i ^ seed) as u8).collect(),
                    ts: next() % 4,
                }
            })
            .collect()
    }

    #[test]
    fn a_packed_set_is_the_update_set_it_was_pushed() {
        let (mut items, mut touching) = (0, 0);
        for seed in 0..300u64 {
            let set = UpdateSet {
                items: random_items(seed, 40),
            };
            let mut packed = PackedSet::new();
            for i in &set.items {
                packed.push(i.addr, &i.data, i.ts);
            }
            // What is pushed is what iterates, in order.
            assert!(
                packed.iter().eq(set.items.iter().map(ItemRef::from)),
                "seed {seed}"
            );
            // Sizes are the owned set's.
            assert_eq!(packed.len(), set.len(), "seed {seed}");
            assert_eq!(packed.is_empty(), set.is_empty(), "seed {seed}");
            assert_eq!(packed.data_bytes(), set.data_bytes(), "seed {seed}");
            assert_eq!(packed.wire_size(), set.wire_size(), "seed {seed}");
            // Both conversions, and there and back.
            assert_eq!(PackedSet::from(&set), packed, "seed {seed}");
            assert_eq!(UpdateSet::from(&packed), set, "seed {seed}");
            assert_eq!(PackedSet::from(&UpdateSet::from(&packed)), packed);
            // Filled through the collection seam, reserved or not.
            let mut filled = PackedSet::new();
            Fill::reserve(&mut filled, set.len(), set.data_bytes() as usize);
            let mut owned = UpdateSet::new();
            for i in &set.items {
                Fill::push(&mut filled, i.addr, &i.data, i.ts);
                Fill::push(&mut owned, i.addr, &i.data, i.ts);
            }
            assert_eq!((filled, owned), (packed, set.clone()), "seed {seed}");
            items += set.len();
            touching += set
                .items
                .windows(2)
                .filter(|w| w[0].addr + w[0].data.len() as u64 == w[1].addr)
                .count();
        }
        assert!(
            items > 4000 && touching > 200,
            "{items} items, {touching} touching"
        );
    }

    #[test]
    fn push_never_joins_items_and_extend_last_always_does() {
        // Contiguous zero-timestamp runs either side of a page boundary,
        // as VM diffs of two neighbouring pages ship them: two items.
        let mut packed = PackedSet::new();
        packed.push(0x40_1000 - 8, &[1; 8], 0);
        packed.push(0x40_1000, &[2; 8], 0);
        packed.push(0x40_1008, &[], 0);
        assert_eq!(packed.len(), 3);
        assert_eq!(packed.data_bytes(), 16);
        // RT's continuation rule appends to the last item, on either set.
        let mut owned = UpdateSet::from(&packed);
        for set in [&mut packed as &mut dyn Fill, &mut owned] {
            set.extend_last(&[3; 5]);
            set.push(0x40_2000, &[4], 7);
            set.extend_last(&[5]);
        }
        assert_eq!(UpdateSet::from(&packed), owned);
        let last: Vec<ItemRef> = packed.iter().skip(2).collect();
        assert_eq!(
            last,
            [
                ItemRef {
                    addr: 0x40_1008,
                    data: &[3; 5],
                    ts: 0
                },
                ItemRef {
                    addr: 0x40_2000,
                    data: &[4, 5],
                    ts: 7
                }
            ]
        );
        assert_eq!(packed.wire_size(), 23 + 4 * ITEM_HEADER_BYTES);
    }

    /// The quadratic find-and-replace the two-pointer merge must match.
    fn reference_merge(a: &UpdateSet, b: &UpdateSet) -> UpdateSet {
        let mut out = a.clone();
        for item in b.items.clone() {
            match out.items.iter_mut().find(|i| i.addr == item.addr) {
                Some(existing) => {
                    if item.ts >= existing.ts {
                        *existing = item;
                    }
                }
                None => out.items.push(item),
            }
        }
        out.items.sort_by_key(|i| i.addr);
        out
    }

    fn random_sorted_set(seed: u64, max_items: u64) -> UpdateSet {
        // Simple splitmix-style generator; addresses strictly increasing.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let n = next() % max_items;
        let mut addr = 0u64;
        let items = (0..n)
            .map(|_| {
                addr += 8 * (1 + next() % 4);
                item(addr, 8, next() % 4)
            })
            .collect();
        UpdateSet { items }
    }

    #[test]
    fn two_pointer_merge_matches_reference() {
        for seed in 0..200u64 {
            let a = random_sorted_set(seed * 2 + 1, 24);
            let b = random_sorted_set(seed * 2 + 2, 24);
            let mut fast = a.clone();
            fast.merge_newer(b.clone());
            assert_eq!(fast, reference_merge(&a, &b), "seed {seed}");
        }
    }

    /// The hash-set filter every exclusion must agree with.
    fn reference_exclusion(a: &UpdateSet, skip: &UpdateSet) -> UpdateSet {
        let addrs: std::collections::HashSet<u64> = skip.items.iter().map(|i| i.addr).collect();
        UpdateSet {
            items: a
                .items
                .iter()
                .filter(|i| !addrs.contains(&i.addr))
                .cloned()
                .collect(),
        }
    }

    /// Checks every face of the exclusion primitive on one input pair: the
    /// materializing wrapper and a `MaskedSet` built the way the flat
    /// manager builds one (`whole`, then `with_skip`): its visible items
    /// and the sizes it derives from the set's totals.
    fn check_exclusion(a: &UpdateSet, skip: &UpdateSet, what: &str) {
        let want = reference_exclusion(a, skip);
        let addrs = skip.sorted_addrs();
        assert!(addrs.windows(2).all(|w| w[0] < w[1]), "{what}: skip list");
        assert_eq!(a.without(&addrs), want, "{what}: without");
        assert_eq!(a.excluding_addrs_of(skip), want, "{what}: wrapper");
        let whole = MaskedSet::whole(Arc::new(a.clone()));
        assert!(whole.iter().eq(a.items.iter()), "{what}: whole");
        assert_eq!(whole.data_bytes(), a.data_bytes(), "{what}: whole bytes");
        let view = whole.with_skip(&addrs);
        assert_eq!(view.len(), want.len(), "{what}: len");
        assert_eq!(view.is_empty(), want.is_empty(), "{what}: is_empty");
        assert_eq!(view.data_bytes(), want.data_bytes(), "{what}: data bytes");
        assert_eq!(view.wire_size(), want.wire_size(), "{what}: wire size");
        assert!(view.iter().eq(want.items.iter()), "{what}: view");
        // A second mask over the same shared set does not inherit the
        // first one's.
        let again = view.with_skip(&[]);
        assert!(again.iter().eq(a.items.iter()), "{what}: re-masked");
        assert_eq!(
            again.data_bytes(),
            a.data_bytes(),
            "{what}: re-masked bytes"
        );
    }

    #[test]
    fn exclusion_matches_hash_set_reference() {
        // A deterministic shuffle, to take the sorted generators' output
        // out of order.
        fn scramble(set: &mut UpdateSet, seed: u64) {
            let n = set.items.len();
            for i in 0..n {
                let j = (seed.wrapping_mul(0x9e3779b97f4a7c15) >> 17) as usize % n.max(1);
                set.items.swap(i, (i + j) % n);
            }
        }
        for seed in 0..200u64 {
            let a = random_sorted_set(seed * 3 + 1, 24);
            // Draws from the same address lattice as `a` without being a
            // subset of it: a skip list may name addresses the merge lost.
            let b = random_sorted_set(seed * 3 + 2, 24);
            check_exclusion(&a, &b, &format!("seed {seed}: sorted"));
            check_exclusion(&a, &UpdateSet::new(), &format!("seed {seed}: empty skip"));
            check_exclusion(&a, &a, &format!("seed {seed}: skip everything"));
            check_exclusion(&UpdateSet::new(), &b, &format!("seed {seed}: empty set"));
            // Skip addresses the set does not hold, between and around its
            // items.
            let mut absent = a.clone();
            for i in &mut absent.items {
                i.addr += 4;
            }
            absent.items.push(item(0, 1, 1));
            absent.items.push(item(u64::MAX, 1, 1));
            check_exclusion(&a, &absent, &format!("seed {seed}: absent skip"));

            let mut unsorted = a.clone();
            scramble(&mut unsorted, seed);
            let mut unsorted_skip = b.clone();
            scramble(&mut unsorted_skip, seed + 1);
            check_exclusion(&unsorted, &b, &format!("seed {seed}: unsorted set"));
            check_exclusion(&unsorted, &a, &format!("seed {seed}: unsorted, all"));
            check_exclusion(&a, &unsorted_skip, &format!("seed {seed}: unsorted skip"));

            // Duplicate addresses on both sides, adjacent and apart.
            let mut dup = a.clone();
            dup.items.extend(a.items.iter().step_by(3).cloned());
            let mut dup_skip = b.clone();
            dup_skip.items.extend(b.items.iter().step_by(2).cloned());
            check_exclusion(&dup, &dup_skip, &format!("seed {seed}: dups apart"));
            dup.items.sort_by_key(|i| i.addr);
            check_exclusion(&dup, &dup_skip, &format!("seed {seed}: dups adjacent"));
        }
    }

    #[test]
    fn unsorted_set_costs_a_binary_search_per_item_not_a_rescan() {
        // Alternating low/high addresses against a long skip list: a
        // cursor that rewound would walk the list once per item, 2e10
        // steps here — minutes, where this takes milliseconds.
        let n = 200_000u64;
        let skip: Vec<u64> = (0..n).map(|i| i * 8).collect();
        let items = (0..n)
            .map(|i| item(if i % 2 == 0 { i * 8 } else { (n - i) * 8 + 4 }, 1, 1))
            .collect();
        let set = MaskedSet::whole(Arc::new(UpdateSet { items }));
        assert_eq!(set.with_skip(&skip).len(), n as usize / 2);
        assert_eq!(set.with_skip(&skip).iter().count(), n as usize / 2);
    }

    /// The left fold of `merge_newer` that `merge_all` must equal.
    fn folded(sets: &[UpdateSet]) -> UpdateSet {
        let mut merged = UpdateSet::new();
        for set in sets {
            merged.merge_newer(set.clone());
        }
        merged
    }

    #[test]
    fn merge_all_equals_the_left_fold_of_merge_newer() {
        let mut ties = 0;
        for seed in 0..300u64 {
            // Up to six sets over one address lattice, so spans overlap
            // and addresses repeat across sets; timestamps drawn from 0..4,
            // so equal addresses often tie.
            let k = (seed % 7) as usize;
            // Each set's bytes name it, so a tie broken the wrong way shows.
            let sets: Vec<UpdateSet> = (0..k as u64)
                .map(|j| {
                    let mut set = random_sorted_set(seed * 11 + j, 40);
                    for i in &mut set.items {
                        i.data = vec![j as u8; 1 + j as usize];
                    }
                    set
                })
                .collect();
            let want = folded(&sets);
            let mut seen = std::collections::HashMap::new();
            for i in sets.iter().flat_map(|s| &s.items) {
                if seen.insert(i.addr, i.ts) == Some(i.ts) {
                    ties += 1;
                }
            }
            assert_eq!(UpdateSet::merge_all(sets), want, "seed {seed}");
        }
        assert!(ties > 500, "{ties} ties");
        // An unsorted input takes the fold itself.
        let sets = vec![
            UpdateSet {
                items: vec![item(16, 8, 1), item(0, 8, 2)],
            },
            random_sorted_set(5, 20),
        ];
        assert_eq!(UpdateSet::merge_all(sets.clone()), folded(&sets));
        assert_eq!(UpdateSet::merge_all(Vec::new()), UpdateSet::new());
    }

    #[test]
    fn merge_all_equals_the_fold_over_a_64_processor_tree() {
        // Each processor of a 64-processor, arity-4 tree writes its own
        // block plus words it shares with its neighbours, the way sor's
        // edges do; the subtree sets a tree node merges interleave, and
        // timestamps drawn from a few values tie across processors.
        const P: u64 = 64;
        let contribution = |p: u64| {
            let mine = |addr, ts| UpdateItem {
                addr,
                data: vec![p as u8; 8],
                ts,
            };
            UpdateSet {
                items: (0..P)
                    .filter(|&q| q == p || q == (p + 1) % P || (p + q).is_multiple_of(9))
                    .flat_map(|q| [mine(q * 64, p % 3), mine(q * 64 + 8 + 8 * (p % 4), p % 5)])
                    .map(|i| (i.addr, i))
                    .collect::<std::collections::BTreeMap<u64, UpdateItem>>()
                    .into_values()
                    .collect(),
            }
        };
        // Merge bottom-up the way the tree sites do: own set first, then
        // children by slot, once per node.
        fn subtree(p: u64, c: &dyn Fn(u64) -> UpdateSet, merge: bool) -> UpdateSet {
            let mut sets = vec![c(p)];
            sets.extend(
                (4 * p + 1..=4 * p + 4)
                    .filter(|&k| k < P)
                    .map(|k| subtree(k, c, merge)),
            );
            if merge {
                UpdateSet::merge_all(sets)
            } else {
                folded(&sets)
            }
        }
        let want = subtree(0, &contribution, false);
        assert_eq!(subtree(0, &contribution, true), want);
        assert!(want.len() > 100);
    }

    #[test]
    fn unsorted_inputs_fall_back_to_reference_semantics() {
        let a = UpdateSet {
            items: vec![item(16, 8, 1), item(0, 8, 2)], // unsorted
        };
        let b = UpdateSet {
            items: vec![item(0, 8, 2), item(8, 8, 1)],
        };
        let mut m = a.clone();
        m.merge_newer(b.clone());
        assert_eq!(m, reference_merge(&a, &b));
    }
}
