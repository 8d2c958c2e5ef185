//! Consistency updates and their wire-size accounting.

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

    /// Appends an item holding a copy of `data`, without a timestamp (the
    /// VM-style backends order updates by incarnation instead).
    pub fn push_copy(&mut self, addr: u64, data: &[u8]) {
        self.items.push(UpdateItem {
            addr,
            data: data.to_vec(),
            ts: 0,
        });
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

    /// This set's item addresses as a skip list for
    /// [`excluding`](Self::excluding): sorted and deduplicated here, where
    /// the list is built, whatever order the items are in.
    pub fn sorted_addrs(&self) -> Vec<u64> {
        let mut addrs: Vec<u64> = self.items.iter().map(|i| i.addr).collect();
        if !addrs.windows(2).all(|w| w[0] < w[1]) {
            addrs.sort_unstable();
            addrs.dedup();
        }
        addrs
    }

    /// The items whose address is not in `skip`, in self order, borrowed:
    /// the single exclusion primitive a barrier release uses to keep a
    /// processor's own contribution from echoing back to it.
    ///
    /// `skip` must be sorted ascending (see
    /// [`sorted_addrs`](Self::sorted_addrs)); the set itself need not be.
    pub fn excluding<'a>(&'a self, skip: &'a [u64]) -> Unskipped<'a> {
        debug_assert!(skip.windows(2).all(|w| w[0] <= w[1]), "unsorted skip list");
        Unskipped {
            items: self.items.iter(),
            skip,
            cursor: 0,
            floor: Some(0),
        }
    }

    /// The subset of items whose address is not in `exclude`, materialized
    /// (self order preserved). The barrier path applies
    /// [`excluding`](Self::excluding) in place instead; this copy remains
    /// for callers that need an owned set.
    pub fn excluding_addrs_of(&self, exclude: &UpdateSet) -> UpdateSet {
        let items = self.excluding(&exclude.sorted_addrs()).cloned().collect();
        UpdateSet { items }
    }
}

/// Iterator over the items of an [`UpdateSet`] whose address is not in a
/// sorted skip list; see [`UpdateSet::excluding`].
///
/// While the set's addresses come in non-decreasing order the skip list is
/// walked by a second pointer, O(items + skip) in all. A set is never
/// trusted to be sorted (one decoded from a socket need not be): the first
/// address that steps backwards switches the remaining items to a binary
/// search each, so the answers stay those of a hash-set lookup and no
/// input takes quadratic time.
#[derive(Clone, Debug)]
pub struct Unskipped<'a> {
    items: std::slice::Iter<'a, UpdateItem>,
    skip: &'a [u64],
    /// First skip entry not yet passed by the two-pointer walk.
    cursor: usize,
    /// Highest address seen so far; `None` once the set proved unsorted.
    floor: Option<u64>,
}

impl<'a> Iterator for Unskipped<'a> {
    type Item = &'a UpdateItem;

    fn next(&mut self) -> Option<&'a UpdateItem> {
        for item in self.items.by_ref() {
            let skipped = match self.floor {
                Some(floor) if item.addr >= floor => {
                    self.floor = Some(item.addr);
                    while self.skip.get(self.cursor).is_some_and(|&a| a < item.addr) {
                        self.cursor += 1;
                    }
                    self.skip.get(self.cursor) == Some(&item.addr)
                }
                _ => {
                    self.floor = None;
                    self.skip.binary_search(&item.addr).is_ok()
                }
            };
            if !skipped {
                return Some(item);
            }
        }
        None
    }
}

/// A shared [`UpdateSet`] seen through one receiver's skip list: what a
/// barrier release delivers. Every receiver borrows the same merged set
/// and differs only in the addresses it skips (its own contribution), so
/// "merged minus own" is never materialized per processor.
///
/// The sizes of the visible part are computed once, at construction, and
/// are what every byte counter, copy charge and wire size on the release
/// path reads.
#[derive(Clone, Debug)]
pub struct MaskedSet {
    set: Arc<UpdateSet>,
    skip: Vec<u64>,
    len: usize,
    data_bytes: u64,
}

impl MaskedSet {
    /// `set` minus the items at the addresses in `skip`, which must be
    /// sorted ascending (see [`UpdateSet::sorted_addrs`]).
    pub fn new(set: Arc<UpdateSet>, skip: Vec<u64>) -> MaskedSet {
        let (mut len, mut data_bytes) = (0usize, 0u64);
        for item in set.excluding(&skip) {
            len += 1;
            data_bytes += item.data.len() as u64;
        }
        MaskedSet {
            set,
            skip,
            len,
            data_bytes,
        }
    }

    /// All of `set`: an empty skip list.
    pub fn whole(set: Arc<UpdateSet>) -> MaskedSet {
        MaskedSet::new(set, Vec::new())
    }

    /// The same shared set behind a different skip list.
    pub fn with_skip(&self, skip: Vec<u64>) -> MaskedSet {
        MaskedSet::new(Arc::clone(&self.set), skip)
    }

    /// The visible items, in set order.
    pub fn iter(&self) -> Unskipped<'_> {
        self.set.excluding(&self.skip)
    }

    /// The skip list.
    pub fn skip(&self) -> &[u64] {
        &self.skip
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

/// A VM-DSM update: the modifications made during one incarnation of a
/// lock (paper §3.4).
#[derive(Clone, Debug, PartialEq)]
pub struct Update {
    /// The incarnation this update encapsulates.
    pub incarnation: u64,
    /// The modified data.
    pub set: UpdateSet,
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
    /// borrowing iterator, its materializing wrapper, and the sizes a
    /// `MaskedSet` caches.
    fn check_exclusion(a: &UpdateSet, skip: &UpdateSet, what: &str) {
        let want = reference_exclusion(a, skip);
        let addrs = skip.sorted_addrs();
        assert!(addrs.windows(2).all(|w| w[0] < w[1]), "{what}: skip list");
        let got: Vec<&UpdateItem> = a.excluding(&addrs).collect();
        assert_eq!(got, want.items.iter().collect::<Vec<_>>(), "{what}");
        assert_eq!(a.excluding_addrs_of(skip), want, "{what}: wrapper");
        let view = MaskedSet::new(Arc::new(a.clone()), addrs);
        assert_eq!(view.len(), want.len(), "{what}: len");
        assert_eq!(view.is_empty(), want.is_empty(), "{what}: is_empty");
        assert_eq!(view.data_bytes(), want.data_bytes(), "{what}: data bytes");
        assert_eq!(view.wire_size(), want.wire_size(), "{what}: wire size");
        assert!(view.iter().eq(want.items.iter()), "{what}: view");
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

            let mut unsorted = a.clone();
            scramble(&mut unsorted, seed);
            let mut unsorted_skip = b.clone();
            scramble(&mut unsorted_skip, seed + 1);
            check_exclusion(&unsorted, &b, &format!("seed {seed}: unsorted set"));
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
        let set = UpdateSet { items };
        assert_eq!(set.excluding(&skip).count(), n as usize / 2);
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
