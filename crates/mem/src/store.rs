//! A processor's local cached copy of the address space.

use std::sync::Arc;

use crate::addr::Addr;
use crate::layout::Layout;

/// One processor's backing memory.
///
/// Every processor caches shared data locally (the DSM's update protocol
/// keeps caches consistent at synchronization points), so a `LocalStore`
/// holds a full copy of each region's used bytes, materialized lazily and
/// zero-filled — matching the zero-initialized heap the applications assume.
pub struct LocalStore {
    layout: Arc<Layout>,
    regions: Vec<Option<Box<[u8]>>>,
}

impl LocalStore {
    /// Creates an empty store over `layout`.
    pub fn new(layout: Arc<Layout>) -> LocalStore {
        let slots = layout.region_slots();
        LocalStore {
            layout,
            regions: (0..slots).map(|_| None).collect(),
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
    /// here instead of once per piece through [`bytes_mut`](Self::bytes_mut).
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
        self.regions[id].get_or_insert_with(|| vec![0u8; used].into_boxed_slice())
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
    pub fn bytes_mut(&mut self, addr: Addr, len: usize) -> &mut [u8] {
        let (region, off) = self.locate(addr, len);
        &mut region[off..off + len]
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self, addr: Addr) -> u32 {
        u32::from_le_bytes(self.bytes(addr, 4).try_into().expect("4 bytes"))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: Addr, v: u32) {
        self.bytes_mut(addr, 4).copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, addr: Addr) -> u64 {
        u64::from_le_bytes(self.bytes(addr, 8).try_into().expect("8 bytes"))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.bytes_mut(addr, 8).copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `f64`.
    pub fn read_f64(&mut self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes a little-endian `f64`.
    pub fn write_f64(&mut self, addr: Addr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Reads a little-endian `i32`.
    pub fn read_i32(&mut self, addr: Addr) -> i32 {
        self.read_u32(addr) as i32
    }

    /// Writes a little-endian `i32`.
    pub fn write_i32(&mut self, addr: Addr, v: i32) {
        self.write_u32(addr, v as u32);
    }

    /// Copies `src` into memory at `addr`.
    pub fn write_bytes(&mut self, addr: Addr, src: &[u8]) {
        self.bytes_mut(addr, src.len()).copy_from_slice(src);
    }

    /// FNV-1a 64 digest of the store's logical content: every region's
    /// used bytes in address order, with unmaterialized regions hashed as
    /// the zeros they would read as. Two stores with the same logical
    /// content digest identically regardless of which regions happen to
    /// be materialized — the final-memory-state equivalence check the
    /// fault-tolerance oracle relies on.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        // FNV-1a folds a zero byte as `hash ^= 0; hash *= PRIME`, i.e. a
        // bare multiply — so a run of n zero bytes is one multiply by
        // PRIME^n, which lets all-zero blocks of materialized regions
        // and whole unmaterialized regions skip the byte loop while
        // producing the exact same digest. The block test runs 64 bytes
        // at a time as eight OR-reduced `u64` lanes (vectorizable), with
        // an 8-byte-chunk fallback inside a mixed block.
        const PRIME8: u64 = {
            let mut p = 1u64;
            let mut i = 0;
            while i < 8 {
                p = p.wrapping_mul(PRIME);
                i += 1;
            }
            p
        };
        const PRIME64: u64 = {
            let mut p = 1u64;
            let mut i = 0;
            while i < 64 {
                p = p.wrapping_mul(PRIME);
                i += 1;
            }
            p
        };
        fn prime_pow(mut n: u64) -> u64 {
            let mut base = PRIME;
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
        let mut hash = OFFSET;
        let eat = |hash: &mut u64, b: u8| {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(PRIME);
        };
        for (idx, slot) in self.regions.iter().enumerate() {
            let used = self.layout.region(idx).map_or(0, |d| d.used);
            for b in (idx as u64).to_le_bytes() {
                eat(&mut hash, b);
            }
            match slot {
                Some(region) => {
                    let mut blocks = region.chunks_exact(64);
                    for block in &mut blocks {
                        let block: &[u8; 64] = block.try_into().expect("64 bytes");
                        let mut any = 0u64;
                        for l in 0..8 {
                            any |= u64::from_ne_bytes(
                                block[l * 8..l * 8 + 8].try_into().expect("8 bytes"),
                            );
                        }
                        if any == 0 {
                            hash = hash.wrapping_mul(PRIME64);
                            continue;
                        }
                        for chunk in block.chunks_exact(8) {
                            if u64::from_ne_bytes(chunk.try_into().expect("8 bytes")) == 0 {
                                hash = hash.wrapping_mul(PRIME8);
                            } else {
                                for &b in chunk {
                                    eat(&mut hash, b);
                                }
                            }
                        }
                    }
                    let mut chunks = blocks.remainder().chunks_exact(8);
                    for chunk in &mut chunks {
                        if u64::from_ne_bytes(chunk.try_into().expect("8 bytes")) == 0 {
                            hash = hash.wrapping_mul(PRIME8);
                        } else {
                            for &b in chunk {
                                eat(&mut hash, b);
                            }
                        }
                    }
                    for &b in chunks.remainder() {
                        eat(&mut hash, b);
                    }
                }
                None => {
                    hash = hash.wrapping_mul(prime_pow(used as u64));
                }
            }
        }
        hash
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

    fn locate(&mut self, addr: Addr, len: usize) -> (&mut Box<[u8]>, usize) {
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
        let used = desc.used;
        let slot = &mut self.regions[idx];
        let region = slot.get_or_insert_with(|| vec![0u8; used].into_boxed_slice());
        // A region may have been materialized when fewer bytes were used if
        // the layout were mutable; layouts are immutable so sizes agree.
        debug_assert_eq!(region.len(), used);
        (region, off)
    }
}

impl std::fmt::Debug for LocalStore {
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
        assert_eq!(s.read_f64(a + 8), 0.0);
    }

    #[test]
    fn typed_round_trips() {
        let (mut s, a) = store_with(64);
        s.write_u32(a, 0xDEAD_BEEF);
        s.write_f64(a + 8, -2.5);
        s.write_i32(a + 16, -7);
        s.write_u64(a + 24, u64::MAX);
        assert_eq!(s.read_u32(a), 0xDEAD_BEEF);
        assert_eq!(s.read_f64(a + 8), -2.5);
        assert_eq!(s.read_i32(a + 16), -7);
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
        s.write_u32(c.addr + 60, 7);
        assert_eq!(s.digest(), s.digest_reference());
        // Zeroing back still agrees (all-zero chunks now materialized).
        s.write_u64(a.addr + 16, 0);
        assert_eq!(s.digest(), s.digest_reference());
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
