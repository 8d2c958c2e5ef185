//! A freelist of byte buffers, kept only for the frozen signatures that
//! name it: `rt::collect_pooled`, which builds an owned item per run and
//! draws its buffer from here, and the benchmark's probes. Lock grants
//! are packed sets, every item's bytes in one buffer, and draw nothing
//! from a pool.
//!
//! A recycled buffer is always handed out *empty* (`put` truncates to
//! zero length), so a producer that only ever `extend`s can never observe
//! another message's bytes — the stale-data safety property the pool
//! tests pin down.

/// A LIFO freelist of `Vec<u8>` buffers with hit/miss accounting.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<Vec<u8>>,
    /// Buffers served from the freelist (an allocation avoided).
    pub hits: u64,
    /// Buffers that had to be freshly allocated.
    pub misses: u64,
}

/// Buffers retained at most; beyond this, `put` lets the buffer drop, so
/// the pool's memory is bounded.
const CAP: usize = 256;

impl BufPool {
    /// An empty pool.
    pub fn new() -> BufPool {
        BufPool::default()
    }

    /// An empty buffer: recycled (warm capacity) when one is available,
    /// freshly allocated otherwise.
    pub fn get(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                debug_assert!(buf.is_empty(), "pooled buffers are stored empty");
                self.hits += 1;
                buf
            }
            None => {
                self.misses += 1;
                Vec::new()
            }
        }
    }

    /// Like [`get`](Self::get), but guarantees room for `len` bytes
    /// without further growth.
    pub fn get_with_capacity(&mut self, len: usize) -> Vec<u8> {
        let mut buf = self.get();
        buf.reserve(len);
        buf
    }

    /// Returns a spent buffer to the freelist. The buffer is truncated to
    /// zero length *here*, so everything in the freelist is empty and no
    /// later `get` can leak a previous message's bytes.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() >= CAP || buf.capacity() == 0 {
            return;
        }
        buf.clear();
        self.free.push(buf);
    }

    /// Buffers currently waiting in the freelist.
    pub fn available(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_recycles_capacity() {
        let mut p = BufPool::new();
        let mut a = p.get();
        assert_eq!(p.misses, 1);
        a.extend_from_slice(&[1, 2, 3, 4]);
        let cap = a.capacity();
        p.put(a);
        let b = p.get();
        assert_eq!(p.hits, 1);
        assert!(b.is_empty(), "recycled buffer must come back empty");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
    }

    #[test]
    fn recycled_buffers_never_leak_stale_bytes() {
        let mut p = BufPool::new();
        // Fill a buffer with a sentinel pattern and recycle it.
        let mut a = p.get_with_capacity(64);
        a.extend_from_slice(&[0xAB; 64]);
        p.put(a);
        // A shorter message through the same buffer must contain exactly
        // its own bytes — length 3, no trailing sentinel.
        let mut b = p.get();
        b.extend_from_slice(&[1, 2, 3]);
        assert_eq!(b, vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn pool_is_bounded() {
        let mut p = BufPool::new();
        for _ in 0..2 * CAP {
            p.put(vec![1u8]);
        }
        assert_eq!(p.available(), CAP);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let mut p = BufPool::new();
        p.put(Vec::new());
        assert_eq!(p.available(), 0);
    }
}
