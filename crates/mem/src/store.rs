//! A processor's local cached copy of the address space.

use std::ops::DerefMut;
use std::sync::Arc;

use crate::addr::Addr;
use crate::layout::Layout;

/// The bytes of one materialized region: zero when made, then read and
/// written in place. A `Box<[u8]>` is one; so is an anonymous mapping
/// (`midway_sim::Pages`), which the engine's stores hold.
pub trait Slab: DerefMut<Target = [u8]> {}

impl<T: DerefMut<Target = [u8]>> Slab for T {}

/// One processor's backing memory.
///
/// Every processor caches shared data locally (the DSM's update protocol
/// keeps caches consistent at synchronization points), so a `LocalStore`
/// holds a full copy of each region's used bytes, materialized lazily and
/// zero-filled — matching the zero-initialized heap the applications assume.
///
/// A region materializes as one [`Slab`] of its used bytes, made by the
/// function the store was built with. [`LocalStore::new`] makes heap
/// slabs; the engine builds its stores with
/// [`with_slabs`](LocalStore::with_slabs) over anonymous mappings, so a
/// region's pages become resident only as they are written, and a page
/// the processor never touches stays out of its memory however the
/// allocator had used the heap before (a zeroed heap slab is
/// `calloc`ed, which writes every page of reused memory). The mapping
/// lives in `midway-sim`, beside the workspace's other `unsafe`, and this
/// crate does not depend on that one, so a store takes its slab maker as
/// a function.
pub struct LocalStore<S = Box<[u8]>> {
    layout: Arc<Layout>,
    regions: Vec<Option<S>>,
    zeroed: fn(usize) -> S,
}

impl LocalStore {
    /// Creates an empty store over `layout` whose regions materialize on
    /// the heap.
    pub fn new(layout: Arc<Layout>) -> LocalStore {
        LocalStore::with_slabs(layout, |len| vec![0u8; len].into_boxed_slice())
    }
}

impl<S: Slab> LocalStore<S> {
    /// Creates an empty store over `layout` whose regions materialize as
    /// `zeroed(used bytes)`, which must read as zeros.
    pub fn with_slabs(layout: Arc<Layout>, zeroed: fn(usize) -> S) -> LocalStore<S> {
        let slots = layout.region_slots();
        LocalStore {
            layout,
            regions: (0..slots).map(|_| None).collect(),
            zeroed,
        }
    }

    /// The layout this store is built over.
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// The materialized bytes of region `id`, or `None` if the region has
    /// never been touched (and therefore still reads as zeros). Lets a
    /// checkpoint writer serialize exactly the regions that carry content
    /// without materializing the rest.
    pub fn region_data(&self, id: usize) -> Option<&[u8]> {
        self.regions.get(id).and_then(|r| r.as_deref())
    }

    /// The used bytes of region `id`, materialized (zero-filled) on first
    /// touch. A caller writing many pieces of one region resolves it once
    /// here instead of once per piece.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no region `id`.
    pub fn region_mut(&mut self, id: usize) -> &mut [u8] {
        let used = self
            .layout
            .region(id)
            .unwrap_or_else(|| panic!("no region {id}"))
            .used;
        let zeroed = self.zeroed;
        self.regions[id].get_or_insert_with(|| zeroed(used))
    }

    /// Immutable bytes at `[addr, addr + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the containing region's used bytes
    /// (ranges spanning regions must be split by the caller with
    /// [`crate::split_by_region`]).
    pub fn bytes(&mut self, addr: Addr, len: usize) -> &[u8] {
        let (region, off) = self.locate(addr, len);
        &region[off..off + len]
    }

    /// Mutable bytes at `[addr, addr + len)`.
    ///
    /// # Panics
    ///
    /// As for [`bytes`](Self::bytes).
    fn bytes_mut(&mut self, addr: Addr, len: usize) -> &mut [u8] {
        let (region, off) = self.locate(addr, len);
        &mut region[off..off + len]
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, addr: Addr) -> u64 {
        u64::from_le_bytes(self.bytes(addr, 8).try_into().expect("8 bytes"))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.bytes_mut(addr, 8).copy_from_slice(&v.to_le_bytes());
    }

    /// Copies `src` into memory at `addr`.
    pub fn write_bytes(&mut self, addr: Addr, src: &[u8]) {
        self.bytes_mut(addr, src.len()).copy_from_slice(src);
    }

    /// Takes region `id`'s bytes out of the store, materialized, for a
    /// caller that works on the region for a while (a store view); hand
    /// them back with [`restore_region`](Self::restore_region). Until
    /// then the store does not hold the region: one that is never handed
    /// back reads as zeros again.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no region `id`.
    pub fn lend_region(&mut self, id: usize) -> S {
        self.region_mut(id);
        self.regions[id].take().expect("just materialized")
    }

    /// Puts back a region taken with [`lend_region`](Self::lend_region).
    pub fn restore_region(&mut self, id: usize, slab: S) {
        debug_assert!(self.regions[id].is_none(), "region {id} restored twice");
        self.regions[id] = Some(slab);
    }

    /// FNV-1a 64 digest of the store's logical content: every region's
    /// used bytes in address order, with unmaterialized regions hashed as
    /// the zeros they would read as. Two stores with the same logical
    /// content digest identically regardless of which regions happen to
    /// be materialized — the final-memory-state equivalence check the
    /// fault-tolerance oracle relies on.
    pub fn digest(&self) -> u64 {
        lockstep([self])[0]
    }

    /// The [`digest`](Self::digest) of each of `stores`, in order.
    ///
    /// FNV-1a is one multiply per byte, each waiting on the last, so one
    /// store hashes at the multiplier's latency. Stores built over one
    /// layout have the same regions at the same sizes, so they are hashed
    /// four at a time in lockstep, region by region and block by block:
    /// four independent chains keep the multiplier busy.
    ///
    /// # Panics
    ///
    /// Panics if the stores are not all built over the same layout.
    pub fn digests(stores: &[&LocalStore<S>]) -> Vec<u64> {
        let mut out = Vec::with_capacity(stores.len());
        for group in stores.chunks(4) {
            match *group {
                [a] => out.extend(lockstep([a])),
                [a, b] => out.extend(lockstep([a, b])),
                [a, b, c] => out.extend(lockstep([a, b, c])),
                [a, b, c, d] => out.extend(lockstep([a, b, c, d])),
                _ => unreachable!("chunks of one to four stores"),
            }
        }
        out
    }

    /// The byte-at-a-time reference implementation of
    /// [`digest`](LocalStore::digest), kept as the equivalence oracle for
    /// the chunked hot path.
    pub fn digest_reference(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut eat = |b: u8| {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        };
        for (idx, slot) in self.regions.iter().enumerate() {
            let used = self.layout.region(idx).map_or(0, |d| d.used);
            for b in (idx as u64).to_le_bytes() {
                eat(b);
            }
            match slot {
                Some(region) => {
                    for &b in region.iter() {
                        eat(b);
                    }
                }
                None => {
                    for _ in 0..used {
                        eat(0);
                    }
                }
            }
        }
        hash
    }

    fn locate(&mut self, addr: Addr, len: usize) -> (&mut S, usize) {
        let idx = addr.region_index();
        let desc = self.layout.region(idx).unwrap_or_else(|| {
            panic!("address {addr} is outside every region");
        });
        let off = addr.region_offset();
        assert!(
            off + len <= desc.used,
            "access [{addr}, +{len}) overruns region {idx} (used {})",
            desc.used
        );
        let (used, zeroed) = (desc.used, self.zeroed);
        let region = self.regions[idx].get_or_insert_with(|| zeroed(used));
        // A region may have been materialized when fewer bytes were used if
        // the layout were mutable; layouts are immutable so sizes agree.
        debug_assert_eq!(region.len(), used);
        (region, off)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^n`: FNV-1a folds a zero byte as `hash ^= 0; hash *= PRIME`,
/// a bare multiply, so a run of `n` zero bytes is one multiply by this.
fn prime_pow(mut n: u64) -> u64 {
    let mut base = FNV_PRIME;
    let mut acc = 1u64;
    while n > 0 {
        if n & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    acc
}

/// [`LocalStore::digests`] of `N` stores over one layout, one FNV-1a chain
/// per store, advanced together. An unmaterialized region costs its lane
/// one multiply; a 64-byte block that is zero in every lane costs each
/// lane one multiply; any other block is folded byte by byte in every
/// lane, the lanes interleaved so their multiplies overlap.
fn lockstep<S: Slab, const N: usize>(stores: [&LocalStore<S>; N]) -> [u64; N] {
    const PRIME64: u64 = {
        let mut p = 1u64;
        let mut i = 0;
        while i < 64 {
            p = p.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        p
    };
    let layout = &stores[0].layout;
    assert!(
        stores.iter().all(|s| Arc::ptr_eq(&s.layout, layout)),
        "digests in lockstep need stores over one layout"
    );
    let mut hash = [FNV_OFFSET; N];
    for idx in 0..layout.region_slots() {
        let index = (idx as u64).to_le_bytes();
        fold(&mut hash, [&index[..]; N]);
        let slabs: [Option<&[u8]>; N] = std::array::from_fn(|l| stores[l].regions[idx].as_deref());
        let Some(first) = slabs.iter().flatten().next() else {
            let zeros = prime_pow(layout.region(idx).map_or(0, |d| d.used) as u64);
            for h in &mut hash {
                *h = h.wrapping_mul(zeros);
            }
            continue;
        };
        // Unmaterialized lanes ride along on a materialized lane's bytes,
        // in a copy of the hashes that is then discarded for them.
        let bytes: [&[u8]; N] = std::array::from_fn(|l| slabs[l].unwrap_or(first));
        let mut lanes = hash;
        let mut at = 0;
        while at + 64 <= first.len() {
            let block: [&[u8]; N] = std::array::from_fn(|l| &bytes[l][at..at + 64]);
            if block
                .iter()
                .all(|b| b.iter().fold(0, |acc, &x| acc | x) == 0)
            {
                for h in &mut lanes {
                    *h = h.wrapping_mul(PRIME64);
                }
            } else {
                fold(&mut lanes, block);
            }
            at += 64;
        }
        fold(&mut lanes, std::array::from_fn(|l| &bytes[l][at..]));
        let zeros = prime_pow(first.len() as u64);
        for l in 0..N {
            hash[l] = match slabs[l] {
                Some(_) => lanes[l],
                None => hash[l].wrapping_mul(zeros),
            };
        }
    }
    hash
}

/// Folds `bytes[l]` into `hash[l]` byte by byte for every lane, the lanes
/// interleaved. The slices have one length.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // byte `i` of every lane, then `i + 1`
fn fold<const N: usize>(hash: &mut [u64; N], bytes: [&[u8]; N]) {
    let len = bytes[0].len();
    let bytes: [&[u8]; N] = std::array::from_fn(|l| &bytes[l][..len]);
    for i in 0..len {
        for l in 0..N {
            hash[l] = (hash[l] ^ u64::from(bytes[l][i])).wrapping_mul(FNV_PRIME);
        }
    }
}

impl<S> std::fmt::Debug for LocalStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let materialized = self.regions.iter().filter(|r| r.is_some()).count();
        f.debug_struct("LocalStore")
            .field("regions_materialized", &materialized)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{LayoutBuilder, MemClass};

    fn store_with(len: usize) -> (LocalStore, Addr) {
        let mut b = LayoutBuilder::new();
        let a = b.alloc("t", len, MemClass::Shared, 3);
        (LocalStore::new(b.build()), a.addr)
    }

    #[test]
    fn memory_starts_zeroed() {
        let (mut s, a) = store_with(64);
        assert_eq!(s.read_u64(a), 0);
        assert_eq!(s.read_u64(a + 8), 0);
    }

    #[test]
    fn typed_round_trips() {
        let (mut s, a) = store_with(64);
        s.write_bytes(a, &0xDEAD_BEEFu32.to_le_bytes());
        s.write_u64(a + 8, (-2.5f64).to_bits());
        s.write_u64(a + 24, u64::MAX);
        assert_eq!(s.bytes(a, 4), 0xDEAD_BEEFu32.to_le_bytes());
        assert_eq!(f64::from_bits(s.read_u64(a + 8)), -2.5);
        assert_eq!(s.read_u64(a + 24), u64::MAX);
    }

    #[test]
    fn bulk_bytes_round_trip() {
        let (mut s, a) = store_with(128);
        let src: Vec<u8> = (0..100).collect();
        s.write_bytes(a + 10, &src);
        assert_eq!(s.bytes(a + 10, 100), &src[..]);
        // Neighbours untouched.
        assert_eq!(s.read_u64(a), 0);
    }

    #[test]
    #[should_panic(expected = "overruns region")]
    fn overrun_is_caught() {
        let (mut s, a) = store_with(16);
        s.write_u64(a + 12, 1);
    }

    #[test]
    fn digest_ignores_materialization_but_sees_content() {
        let mut b = LayoutBuilder::new();
        let a = b.alloc("t", 64, MemClass::Shared, 3);
        let layout = b.build();
        let zero = LocalStore::new(Arc::clone(&layout));
        let mut touched = LocalStore::new(Arc::clone(&layout));
        // Materialize by reading zeros: logically identical content.
        assert_eq!(touched.read_u64(a.addr), 0);
        assert_eq!(zero.digest(), touched.digest());
        let mut written = LocalStore::new(layout);
        written.write_u64(a.addr, 42);
        assert_ne!(zero.digest(), written.digest());
        written.write_u64(a.addr, 0);
        assert_eq!(zero.digest(), written.digest());
    }

    #[test]
    fn chunked_digest_matches_reference() {
        // Region sizes chosen to exercise the 8-byte chunk remainder, the
        // all-zero chunk fast path, and the unmaterialized power-of-PRIME
        // path all at once.
        let mut b = LayoutBuilder::new();
        let a = b.alloc("a", 100, MemClass::Shared, 3); // 12 chunks + 4 tail
        let c = b.alloc("b", 64, MemClass::Shared, 3);
        let _untouched = b.alloc("c", 37, MemClass::Private, 3);
        let layout = b.build();
        let mut s = LocalStore::new(layout);
        assert_eq!(s.digest(), s.digest_reference());
        s.write_u64(a.addr + 16, 0xDEAD_BEEF_0123_4567);
        s.write_bytes(a.addr + 95, &[1, 2, 3, 4, 5]); // dirties the tail
        s.write_bytes(c.addr + 60, &7u32.to_le_bytes());
        assert_eq!(s.digest(), s.digest_reference());
        // Zeroing back still agrees (all-zero chunks now materialized).
        s.write_u64(a.addr + 16, 0);
        assert_eq!(s.digest(), s.digest_reference());
    }

    #[test]
    fn lockstep_digests_match_the_reference_per_store() {
        // Regions sized around the 64-byte block (one short, a few blocks
        // plus a tail, exactly two) and one spanning many blocks.
        let mut b = LayoutBuilder::new();
        let allocs = [
            b.alloc("a", 63, MemClass::Shared, 3),
            b.alloc("b", 200, MemClass::Shared, 4),
            b.alloc("c", 128, MemClass::Private, 3),
            b.alloc("d", 5000, MemClass::Shared, 6),
        ];
        let layout = b.build();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for count in 1..=9 {
            let stores: Vec<LocalStore> = (0..count)
                .map(|_| {
                    let mut s = LocalStore::new(Arc::clone(&layout));
                    for a in &allocs {
                        match next() % 4 {
                            // Left unmaterialized.
                            0 => {}
                            // Materialized, all zero blocks.
                            1 => s.write_bytes(a.addr, &[0]),
                            // Random bytes between zero runs.
                            _ => {
                                for _ in 0..1 + next() % 8 {
                                    let off = (next() % a.len as u64) as usize;
                                    let len = (1 + next() % 90) as usize;
                                    let bytes: Vec<u8> =
                                        (0..len.min(a.len - off)).map(|_| next() as u8).collect();
                                    s.write_bytes(a.addr + off as u64, &bytes);
                                }
                            }
                        }
                    }
                    s
                })
                .collect();
            let refs: Vec<&LocalStore> = stores.iter().collect();
            let want: Vec<u64> = stores.iter().map(LocalStore::digest_reference).collect();
            assert_eq!(LocalStore::digests(&refs), want, "{count} stores");
            let single: Vec<u64> = stores.iter().map(LocalStore::digest).collect();
            assert_eq!(single, want, "{count} stores, one at a time");
        }
    }

    #[test]
    fn lending_a_region_keeps_its_bytes() {
        let (mut s, a) = store_with(64);
        s.write_u64(a + 8, 7);
        let id = a.region_index();
        let mut slab = s.lend_region(id);
        slab[16] = 9;
        s.restore_region(id, slab);
        assert_eq!(s.read_u64(a + 8), 7);
        assert_eq!(s.bytes(a + 16, 1), &[9]);
    }

    #[test]
    fn stores_are_independent_per_processor() {
        let mut b = LayoutBuilder::new();
        let a = b.alloc("t", 64, MemClass::Shared, 3);
        let layout = b.build();
        let mut p0 = LocalStore::new(Arc::clone(&layout));
        let mut p1 = LocalStore::new(layout);
        p0.write_u64(a.addr, 42);
        assert_eq!(
            p1.read_u64(a.addr),
            0,
            "no magic coherence without the protocol"
        );
    }
}
