//! Stable-storage crash recovery: checkpoint images, the write-ahead
//! log, and the reconstruction protocol.
//!
//! The crash model is fail-stop with stable storage (the classic
//! checkpoint/log recovery discipline): a processor that crashes loses
//! whatever was in flight to its NIC, but its durable state — the last
//! two checkpoint images plus the write-ahead log — survives. Recovery
//! rebuilds the processor's memory and synchronization state from that
//! storage and *proves* the rebuild by asserting it byte-identical to
//! the state the protocol would have had without the crash; any
//! divergence is a protocol violation, never a silent resume.
//!
//! Three kinds of record go to the log, each appended at the moment the
//! state it describes changes:
//!
//! * **write post-images** — `(addr, bytes)` read back from the store
//!   *after* a write (an application store, a grant application, or a
//!   barrier application) lands. Post-images make replay insensitive to
//!   updates a detector chose not to apply: replaying what memory
//!   actually held can never resurrect overwritten data, which a
//!   payload-image log could (RT's exactly-once filter drops stale
//!   lines whose payload would otherwise clobber newer content on
//!   replay).
//! * **lock records** — a lock's hold mode and binding, logged whenever
//!   either changes (acquire, release, rebind).
//! * **barrier records** — a barrier's episode counter and consistency
//!   time, logged when an episode completes.
//!
//! Checkpoint images — the full store plus the same synchronization
//! state, FNV-checksummed — are written every K-th synchronization
//! boundary (release or barrier). The log keeps two segments aligned
//! with the two retained images: `wal` since the latest image and
//! `wal_prev` between the previous image and the latest, so a corrupt
//! latest image degrades to `prev + wal_prev + wal` instead of data
//! loss. A checkpoint that fails its checksum is *never* applied.

use midway_mem::{Addr, AddrRange, Layout, LocalStore};
use midway_proto::Mode;
use std::sync::Arc;

use super::{BarrierNode, LockNode};

/// Checkpoint image magic.
const MAGIC: &[u8; 4] = b"MWCK";

/// WAL record tags.
const REC_WRITE: u8 = 0;
const REC_LOCK: u8 = 1;
const REC_BARRIER: u8 = 2;

/// Encodes a lock hold state in one byte.
pub(crate) fn held_code(m: Option<Mode>) -> u8 {
    match m {
        None => 0,
        Some(Mode::Shared) => 1,
        Some(Mode::Exclusive) => 2,
    }
}

/// The synchronization state a checkpoint captures and a recovery must
/// reproduce: per-lock hold mode and binding, per-barrier episode
/// progress.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub(crate) struct SyncSnapshot {
    /// Per lock: (held code, binding ranges).
    pub locks: Vec<(u8, Vec<AddrRange>)>,
    /// Per barrier: (episode, last_consist).
    pub barriers: Vec<(u64, u64)>,
}

impl SyncSnapshot {
    /// Captures the live synchronization state of a node's lock and
    /// barrier tables.
    pub fn capture(locks: &[LockNode], barriers: &[BarrierNode]) -> SyncSnapshot {
        SyncSnapshot {
            locks: locks
                .iter()
                .map(|l| (held_code(l.held), l.binding.ranges().to_vec()))
                .collect(),
            barriers: barriers
                .iter()
                .map(|b| (b.episode, b.last_consist))
                .collect(),
        }
    }
}

/// What a reconstruction produced.
pub(crate) struct Recovered {
    /// The rebuilt store.
    pub store: LocalStore,
    /// The rebuilt synchronization state.
    pub sync: SyncSnapshot,
    /// Stable-storage bytes read back (image + replayed log segments).
    pub replay_bytes: u64,
    /// Whether the latest image failed its checksum and recovery fell
    /// back to the previous one. Simulated crashes never corrupt storage,
    /// so the live protocol only asserts on it in tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub used_fallback: bool,
}

/// One processor's stable storage: two checkpoint images and the
/// write-ahead log segments between and after them.
pub(crate) struct RecoveryLog {
    /// Checkpoint interval, in synchronization boundaries.
    interval: u32,
    /// Boundaries (releases + completed barriers) seen so far.
    boundaries: u64,
    /// Sequence number of the latest image (0 = none written yet).
    seq: u64,
    /// The latest checkpoint image.
    latest: Option<Vec<u8>>,
    /// The image before it (fallback when `latest` is corrupt).
    prev: Option<Vec<u8>>,
    /// Log records appended since `latest` was written (or since the
    /// start of the run, before the first checkpoint).
    wal: Vec<u8>,
    /// Log records between `prev` and `latest`.
    wal_prev: Vec<u8>,
    /// The synchronization state at the start of the run, the replay
    /// base when no checkpoint image exists or survives.
    initial: SyncSnapshot,
}

impl RecoveryLog {
    pub fn new(interval: u32, initial: SyncSnapshot) -> RecoveryLog {
        RecoveryLog {
            interval: interval.max(1),
            boundaries: 0,
            seq: 0,
            latest: None,
            prev: None,
            wal: Vec::new(),
            wal_prev: Vec::new(),
            initial,
        }
    }

    /// Sequence number of the latest checkpoint (0 before the first).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Appends a write post-image; returns the bytes appended.
    pub fn log_write(&mut self, addr: u64, bytes: &[u8]) -> u64 {
        let before = self.wal.len();
        self.wal.push(REC_WRITE);
        put_varint(&mut self.wal, addr);
        put_varint(&mut self.wal, bytes.len() as u64);
        self.wal.extend_from_slice(bytes);
        (self.wal.len() - before) as u64
    }

    /// Appends a lock-state record; returns the bytes appended.
    pub fn log_lock(&mut self, idx: usize, held: u8, ranges: &[AddrRange]) -> u64 {
        let before = self.wal.len();
        self.wal.push(REC_LOCK);
        put_varint(&mut self.wal, idx as u64);
        self.wal.push(held);
        put_varint(&mut self.wal, ranges.len() as u64);
        for r in ranges {
            put_varint(&mut self.wal, r.start);
            put_varint(&mut self.wal, r.end);
        }
        (self.wal.len() - before) as u64
    }

    /// Appends a barrier-state record; returns the bytes appended.
    pub fn log_barrier(&mut self, idx: usize, episode: u64, last_consist: u64) -> u64 {
        let before = self.wal.len();
        self.wal.push(REC_BARRIER);
        put_varint(&mut self.wal, idx as u64);
        put_varint(&mut self.wal, episode);
        put_varint(&mut self.wal, last_consist);
        (self.wal.len() - before) as u64
    }

    /// Counts one synchronization boundary; returns true when this is a
    /// K-th boundary and a checkpoint image is due.
    pub fn note_boundary(&mut self) -> bool {
        self.boundaries += 1;
        self.boundaries.is_multiple_of(u64::from(self.interval))
    }

    /// Installs a freshly encoded checkpoint image, rotating the
    /// previous one and the log segments.
    pub fn install_image(&mut self, image: Vec<u8>) {
        self.seq += 1;
        self.prev = self.latest.take();
        self.wal_prev = std::mem::take(&mut self.wal);
        self.latest = Some(image);
    }

    /// Rebuilds the store and synchronization state from stable storage:
    /// the newest checkpoint image that passes its checksum, plus every
    /// log record after it, replayed in order.
    ///
    /// # Errors
    ///
    /// Fails when both retained images are corrupt — the records from
    /// before the previous image are gone, so an honest recovery is
    /// impossible and the caller must report, not guess.
    pub fn reconstruct(&self, layout: &Arc<Layout>) -> Result<Recovered, String> {
        let mut used_fallback = false;
        let mut replay_bytes = 0u64;
        let (mut store, mut sync, segments): (_, _, Vec<&[u8]>) = match &self.latest {
            Some(img) => match decode_checkpoint(img, layout) {
                Ok((store, sync)) => {
                    replay_bytes += img.len() as u64;
                    (store, sync, vec![&self.wal])
                }
                Err(latest_err) => {
                    used_fallback = true;
                    match &self.prev {
                        Some(prev) => match decode_checkpoint(prev, layout) {
                            Ok((store, sync)) => {
                                replay_bytes += prev.len() as u64;
                                (store, sync, vec![&self.wal_prev, &self.wal])
                            }
                            Err(prev_err) => {
                                return Err(format!(
                                    "both checkpoint images are corrupt \
                                     (latest: {latest_err}; previous: {prev_err})"
                                ));
                            }
                        },
                        // Only one checkpoint was ever written and it is
                        // corrupt: wal_prev still reaches back to the
                        // start of the run, so replay from zero.
                        None => (
                            LocalStore::new(Arc::clone(layout)),
                            self.initial.clone(),
                            vec![&self.wal_prev, &self.wal],
                        ),
                    }
                }
            },
            None => (
                LocalStore::new(Arc::clone(layout)),
                self.initial.clone(),
                vec![&self.wal_prev, &self.wal],
            ),
        };
        for seg in segments {
            replay_bytes += seg.len() as u64;
            replay_log(seg, &mut store, &mut sync)?;
        }
        Ok(Recovered {
            store,
            sync,
            replay_bytes,
            used_fallback,
        })
    }

    /// Test/corruption hook: mutable access to the latest image.
    #[cfg(test)]
    pub fn latest_image_mut(&mut self) -> Option<&mut Vec<u8>> {
        self.latest.as_mut()
    }
}

/// Serializes a checkpoint image: store content, synchronization state,
/// sequence number and link epoch, with an FNV-1a 64 checksum footer.
pub(crate) fn encode_checkpoint(
    seq: u64,
    epoch: u32,
    store: &LocalStore,
    sync: &SyncSnapshot,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_varint(&mut out, seq);
    put_varint(&mut out, u64::from(epoch));
    let layout = store.layout();
    let materialized: Vec<usize> = (0..layout.region_slots())
        .filter(|&id| store.region_data(id).is_some())
        .collect();
    put_varint(&mut out, materialized.len() as u64);
    for id in materialized {
        let data = store.region_data(id).expect("filtered to materialized");
        put_varint(&mut out, id as u64);
        put_varint(&mut out, data.len() as u64);
        out.extend_from_slice(data);
    }
    put_varint(&mut out, sync.locks.len() as u64);
    for (held, ranges) in &sync.locks {
        out.push(*held);
        put_varint(&mut out, ranges.len() as u64);
        for r in ranges {
            put_varint(&mut out, r.start);
            put_varint(&mut out, r.end);
        }
    }
    put_varint(&mut out, sync.barriers.len() as u64);
    for (episode, last_consist) in &sync.barriers {
        put_varint(&mut out, *episode);
        put_varint(&mut out, *last_consist);
    }
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes and checksum-verifies a checkpoint image.
pub(crate) fn decode_checkpoint(
    img: &[u8],
    layout: &Arc<Layout>,
) -> Result<(LocalStore, SyncSnapshot), String> {
    if img.len() < MAGIC.len() + 8 {
        return Err(format!("image truncated to {} bytes", img.len()));
    }
    let (body, footer) = img.split_at(img.len() - 8);
    let stored = u64::from_le_bytes(footer.try_into().expect("8 bytes"));
    let actual = fnv1a(body);
    if stored != actual {
        return Err(format!(
            "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        ));
    }
    let mut cur = Cursor::new(body);
    if cur.take(MAGIC.len())? != MAGIC {
        return Err("bad image magic".to_string());
    }
    let _seq = cur.varint()?;
    let _epoch = cur.varint()?;
    let mut store = LocalStore::new(Arc::clone(layout));
    let nregions = cur.varint()?;
    for _ in 0..nregions {
        let id = cur.varint()? as usize;
        let len = cur.varint()? as usize;
        let data = cur.take(len)?;
        let desc = layout
            .region(id)
            .ok_or_else(|| format!("image references unknown region {id}"))?;
        if desc.used != len {
            return Err(format!(
                "region {id} image is {len} bytes but the layout uses {}",
                desc.used
            ));
        }
        store.write_bytes(desc.base(), data);
    }
    let mut sync = SyncSnapshot::default();
    let nlocks = cur.varint()?;
    for _ in 0..nlocks {
        let held = cur.u8()?;
        let nranges = cur.varint()?;
        let mut ranges = Vec::with_capacity(nranges as usize);
        for _ in 0..nranges {
            let start = cur.varint()?;
            let end = cur.varint()?;
            ranges.push(start..end);
        }
        sync.locks.push((held, ranges));
    }
    let nbarriers = cur.varint()?;
    for _ in 0..nbarriers {
        let episode = cur.varint()?;
        let last_consist = cur.varint()?;
        sync.barriers.push((episode, last_consist));
    }
    if !cur.at_end() {
        return Err("trailing bytes after image".to_string());
    }
    Ok((store, sync))
}

/// Replays one log segment's records, in order, into the store and
/// synchronization state.
fn replay_log(seg: &[u8], store: &mut LocalStore, sync: &mut SyncSnapshot) -> Result<(), String> {
    let mut cur = Cursor::new(seg);
    while !cur.at_end() {
        match cur.u8()? {
            REC_WRITE => {
                let addr = cur.varint()?;
                let len = cur.varint()? as usize;
                let data = cur.take(len)?;
                store.write_bytes(Addr(addr), data);
            }
            REC_LOCK => {
                let idx = cur.varint()? as usize;
                let held = cur.u8()?;
                let nranges = cur.varint()?;
                let mut ranges = Vec::with_capacity(nranges as usize);
                for _ in 0..nranges {
                    let start = cur.varint()?;
                    let end = cur.varint()?;
                    ranges.push(start..end);
                }
                let slot = sync
                    .locks
                    .get_mut(idx)
                    .ok_or_else(|| format!("log references unknown lock {idx}"))?;
                *slot = (held, ranges);
            }
            REC_BARRIER => {
                let idx = cur.varint()? as usize;
                let episode = cur.varint()?;
                let last_consist = cur.varint()?;
                let slot = sync
                    .barriers
                    .get_mut(idx)
                    .ok_or_else(|| format!("log references unknown barrier {idx}"))?;
                *slot = (episode, last_consist);
            }
            tag => return Err(format!("unknown log record tag {tag}")),
        }
    }
    Ok(())
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(super) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bounds-checked decode cursor over a byte slice.
struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8]) -> Cursor<'a> {
        Cursor { b, i: 0 }
    }

    fn at_end(&self) -> bool {
        self.i >= self.b.len()
    }

    fn u8(&mut self) -> Result<u8, String> {
        let v = *self
            .b
            .get(self.i)
            .ok_or_else(|| "record truncated".to_string())?;
        self.i += 1;
        Ok(v)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.i + n > self.b.len() {
            return Err("record truncated".to_string());
        }
        let s = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return Err("varint overflows u64".to_string());
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

#[cfg(test)]
// Bindings genuinely are one-element range vectors in these fixtures.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use midway_mem::{LayoutBuilder, MemClass};

    fn layout_with(sizes: &[usize]) -> (Arc<Layout>, Vec<Addr>) {
        let mut b = LayoutBuilder::new();
        let addrs = sizes
            .iter()
            .enumerate()
            // Distinct line shifts force distinct regions.
            .map(|(i, &len)| b.alloc(&format!("a{i}"), len, MemClass::Shared, 3 + (i as u32 % 3)))
            .map(|a| a.addr)
            .collect();
        (b.build(), addrs)
    }

    fn sample_sync() -> SyncSnapshot {
        SyncSnapshot {
            locks: vec![(2, vec![0x40_0000..0x40_0040]), (0, vec![])],
            barriers: vec![(3, 17)],
        }
    }

    /// Deterministic LCG for the property-style round-trip tests (no
    /// external randomness allowed in this workspace).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    #[test]
    fn checkpoint_round_trips_store_and_sync() {
        let (layout, addrs) = layout_with(&[256, 1024]);
        let mut store = LocalStore::new(Arc::clone(&layout));
        store.write_u64(addrs[0], 0xDEAD_BEEF);
        store.write_bytes(addrs[1] + 100, &[1, 2, 3, 4, 5]);
        let sync = sample_sync();
        let img = encode_checkpoint(7, 2, &store, &sync);
        let (rebuilt, rsync) = decode_checkpoint(&img, &layout).expect("valid image");
        assert_eq!(rebuilt.digest(), store.digest());
        assert_eq!(rsync, sync);
    }

    #[test]
    fn checkpoint_round_trips_randomized_contents() {
        // Property-style: many seeded random stores and sync states all
        // survive encode → decode bit-for-bit.
        for seed in 0..20u64 {
            let (layout, addrs) = layout_with(&[512, 300, 64]);
            let mut store = LocalStore::new(Arc::clone(&layout));
            let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9) + 1);
            for _ in 0..(seed % 7) * 4 {
                let which = (rng.next() % addrs.len() as u64) as usize;
                let limit = [512, 300, 64][which] as u64 - 8;
                let off = rng.next() % limit;
                store.write_u64(addrs[which] + off, rng.next());
            }
            let sync = SyncSnapshot {
                locks: (0..rng.next() % 5)
                    .map(|_| {
                        let start = rng.next() % (1 << 30);
                        (
                            (rng.next() % 3) as u8,
                            vec![start..start + 1 + rng.next() % 4096],
                        )
                    })
                    .collect(),
                barriers: (0..rng.next() % 4)
                    .map(|_| (rng.next(), rng.next()))
                    .collect(),
            };
            let img = encode_checkpoint(seed, (seed % 4) as u32, &store, &sync);
            let (rebuilt, rsync) =
                decode_checkpoint(&img, &layout).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(rebuilt.digest(), store.digest(), "seed {seed}");
            assert_eq!(rsync, sync, "seed {seed}");
        }
    }

    #[test]
    fn corrupt_images_are_detected_never_applied() {
        let (layout, addrs) = layout_with(&[128]);
        let mut store = LocalStore::new(Arc::clone(&layout));
        store.write_u64(addrs[0], 42);
        let img = encode_checkpoint(1, 0, &store, &sample_sync());
        // Bit flip anywhere in the body fails the checksum.
        for pos in [0, 5, img.len() / 2, img.len() - 9] {
            let mut bad = img.clone();
            bad[pos] ^= 0x10;
            assert!(
                decode_checkpoint(&bad, &layout).is_err(),
                "flip at {pos} went undetected"
            );
        }
        // Truncation at any prefix fails too.
        for keep in [0, 3, img.len() / 2, img.len() - 1] {
            assert!(
                decode_checkpoint(&img[..keep], &layout).is_err(),
                "truncation to {keep} went undetected"
            );
        }
    }

    #[test]
    fn reconstruct_replays_log_over_checkpoint() {
        let (layout, addrs) = layout_with(&[256]);
        let mut live = LocalStore::new(Arc::clone(&layout));
        let initial = SyncSnapshot {
            locks: vec![(0, vec![])],
            barriers: vec![(0, 0)],
        };
        let mut log = RecoveryLog::new(2, initial);
        // Writes before the checkpoint...
        live.write_u64(addrs[0], 1);
        log.log_write(addrs[0].raw(), live.bytes(addrs[0], 8));
        assert!(!log.note_boundary());
        assert!(log.note_boundary(), "second boundary is the K-th");
        let sync_at_ckpt = SyncSnapshot {
            locks: vec![(2, vec![addrs[0].raw()..addrs[0].raw() + 64])],
            barriers: vec![(1, 9)],
        };
        log.install_image(encode_checkpoint(1, 0, &live, &sync_at_ckpt));
        // ...and after it.
        live.write_u64(addrs[0] + 8, 2);
        log.log_write((addrs[0] + 8).raw(), live.bytes(addrs[0] + 8, 8));
        log.log_lock(0, 0, &[]);
        log.log_barrier(0, 2, 30);
        let out = log.reconstruct(&layout).expect("reconstructs");
        assert!(!out.used_fallback);
        assert_eq!(out.store.digest(), live.digest());
        assert_eq!(out.sync.locks, vec![(0, vec![])]);
        assert_eq!(out.sync.barriers, vec![(2, 30)]);
        assert!(out.replay_bytes > 0);
    }

    #[test]
    fn corrupt_latest_image_falls_back_to_previous() {
        let (layout, addrs) = layout_with(&[64]);
        let mut live = LocalStore::new(Arc::clone(&layout));
        let initial = SyncSnapshot::default();
        let mut log = RecoveryLog::new(1, initial);
        live.write_u64(addrs[0], 7);
        log.log_write(addrs[0].raw(), live.bytes(addrs[0], 8));
        log.note_boundary();
        log.install_image(encode_checkpoint(1, 0, &live, &SyncSnapshot::default()));
        live.write_u64(addrs[0] + 8, 8);
        log.log_write((addrs[0] + 8).raw(), live.bytes(addrs[0] + 8, 8));
        log.note_boundary();
        log.install_image(encode_checkpoint(2, 0, &live, &SyncSnapshot::default()));
        live.write_u64(addrs[0] + 16, 9);
        log.log_write((addrs[0] + 16).raw(), live.bytes(addrs[0] + 16, 8));
        // Corrupt the latest image: recovery must fall back to the
        // previous image plus both log segments, not apply garbage.
        log.latest_image_mut().expect("has image")[10] ^= 0xff;
        let out = log.reconstruct(&layout).expect("falls back");
        assert!(out.used_fallback);
        assert_eq!(out.store.digest(), live.digest());
    }

    #[test]
    fn reconstruct_without_any_checkpoint_replays_from_zero() {
        let (layout, addrs) = layout_with(&[64]);
        let mut live = LocalStore::new(Arc::clone(&layout));
        let initial = SyncSnapshot {
            locks: vec![(0, vec![1..2])],
            barriers: vec![],
        };
        let mut log = RecoveryLog::new(8, initial.clone());
        live.write_u64(addrs[0], 3);
        log.log_write(addrs[0].raw(), live.bytes(addrs[0], 8));
        let out = log.reconstruct(&layout).expect("replays from zero");
        assert_eq!(out.store.digest(), live.digest());
        assert_eq!(out.sync, initial);
    }

    #[test]
    fn double_corruption_is_an_error_not_a_guess() {
        let (layout, addrs) = layout_with(&[64]);
        let mut live = LocalStore::new(Arc::clone(&layout));
        let mut log = RecoveryLog::new(1, SyncSnapshot::default());
        for k in 0..2u64 {
            live.write_u64(addrs[0] + 8 * k, k + 1);
            log.log_write((addrs[0] + 8 * k).raw(), live.bytes(addrs[0] + 8 * k, 8));
            log.note_boundary();
            log.install_image(encode_checkpoint(k + 1, 0, &live, &SyncSnapshot::default()));
        }
        log.latest_image_mut().expect("has image")[6] ^= 0x01;
        // Corrupt the previous image too, via a fresh install rotation.
        log.prev.as_mut().expect("has prev")[6] ^= 0x01;
        let err = match log.reconstruct(&layout) {
            Ok(_) => panic!("reconstruction must fail when both images are corrupt"),
            Err(e) => e,
        };
        assert!(err.contains("both checkpoint images are corrupt"), "{err}");
    }
}
