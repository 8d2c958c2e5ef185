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
//!
//! Layout, over the primitives of the workspace codec (`midway_net::wire`:
//! LEB128 varints, varint-prefixed byte strings, the sealed FNV footer):
//!
//! ```text
//! image   b"MWCK", seq, link epoch,
//!         regions: n × (id, used bytes),
//!         locks: n × (held (1 byte), ranges),  ranges: n × (start, end)
//!         barriers: n × (episode, last_consist),
//!         footer (8 bytes)
//! log     records, unsealed, each a tag byte + payload:
//!           0 write    addr, bytes
//!           1 lock     index, held (1 byte), ranges
//!           2 barrier  index, episode, last_consist
//! ```
//!
//! Only the image is sealed; a log segment is read back through the
//! codec's bounded reader and every index and address it names is
//! checked against the layout, so a damaged segment is an error from
//! [`RecoveryLog::reconstruct`], never a panic or a guess.

use midway_mem::{Addr, AddrRange, Layout, LocalStore};
use midway_net::wire::{seal, unseal, Reader, WireError, Writer};
use midway_proto::Mode;
use midway_sim::Pages;
use std::sync::Arc;

use super::{new_store, BarrierNode, LockNode};

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
    pub(crate) fn capture(locks: &[LockNode], barriers: &[BarrierNode]) -> SyncSnapshot {
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
    pub store: LocalStore<Pages>,
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
    pub(crate) fn new(interval: u32, initial: SyncSnapshot) -> RecoveryLog {
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
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Appends a write post-image; returns the bytes appended.
    pub(crate) fn log_write(&mut self, addr: u64, bytes: &[u8]) -> u64 {
        let before = self.wal.len();
        self.wal.push(REC_WRITE);
        self.wal.varint(addr);
        self.wal.bytes(bytes);
        (self.wal.len() - before) as u64
    }

    /// Appends a lock-state record; returns the bytes appended.
    pub(crate) fn log_lock(&mut self, idx: usize, held: u8, ranges: &[AddrRange]) -> u64 {
        let before = self.wal.len();
        self.wal.push(REC_LOCK);
        self.wal.varint(idx as u64);
        self.wal.push(held);
        put_ranges(&mut self.wal, ranges);
        (self.wal.len() - before) as u64
    }

    /// Appends a barrier-state record; returns the bytes appended.
    pub(crate) fn log_barrier(&mut self, idx: usize, episode: u64, last_consist: u64) -> u64 {
        let before = self.wal.len();
        self.wal.push(REC_BARRIER);
        self.wal.varint(idx as u64);
        self.wal.varint(episode);
        self.wal.varint(last_consist);
        (self.wal.len() - before) as u64
    }

    /// Counts one synchronization boundary; returns true when this is a
    /// K-th boundary and a checkpoint image is due.
    pub(crate) fn note_boundary(&mut self) -> bool {
        self.boundaries += 1;
        self.boundaries.is_multiple_of(u64::from(self.interval))
    }

    /// Installs a freshly encoded checkpoint image, rotating the
    /// previous one and the log segments.
    pub(crate) fn install_image(&mut self, image: Vec<u8>) {
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
    pub(crate) fn reconstruct(&self, layout: &Arc<Layout>) -> Result<Recovered, String> {
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
                            new_store(layout),
                            self.initial.clone(),
                            vec![&self.wal_prev, &self.wal],
                        ),
                    }
                }
            },
            None => (
                new_store(layout),
                self.initial.clone(),
                vec![&self.wal_prev, &self.wal],
            ),
        };
        for seg in segments {
            replay_bytes += seg.len() as u64;
            replay_log(seg, &mut store, &mut sync).map_err(|e| format!("write-ahead log: {e}"))?;
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
    fn latest_image_mut(&mut self) -> Option<&mut Vec<u8>> {
        self.latest.as_mut()
    }
}

fn put_ranges(out: &mut Vec<u8>, ranges: &[AddrRange]) {
    out.varint(ranges.len() as u64);
    for r in ranges {
        out.varint(r.start);
        out.varint(r.end);
    }
}

fn ranges(r: &mut Reader) -> Result<Vec<AddrRange>, WireError> {
    let n = r.count(2)?;
    let mut ranges = Vec::with_capacity(n);
    for _ in 0..n {
        ranges.push(r.varint()?..r.varint()?);
    }
    Ok(ranges)
}

/// Serializes a checkpoint image: store content, synchronization state,
/// sequence number and link epoch, with an FNV-1a 64 checksum footer.
pub(crate) fn encode_checkpoint(
    seq: u64,
    epoch: u32,
    store: &LocalStore<Pages>,
    sync: &SyncSnapshot,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.varint(seq);
    out.varint(u64::from(epoch));
    let layout = store.layout();
    let materialized: Vec<usize> = (0..layout.region_slots())
        .filter(|&id| store.region_data(id).is_some())
        .collect();
    out.varint(materialized.len() as u64);
    for id in materialized {
        out.varint(id as u64);
        out.bytes(store.region_data(id).expect("filtered to materialized"));
    }
    out.varint(sync.locks.len() as u64);
    for (held, ranges) in &sync.locks {
        out.push(*held);
        put_ranges(&mut out, ranges);
    }
    out.varint(sync.barriers.len() as u64);
    for (episode, last_consist) in &sync.barriers {
        out.varint(*episode);
        out.varint(*last_consist);
    }
    seal(&mut out);
    out
}

/// Decodes and checksum-verifies a checkpoint image.
pub(crate) fn decode_checkpoint(
    img: &[u8],
    layout: &Arc<Layout>,
) -> Result<(LocalStore<Pages>, SyncSnapshot), WireError> {
    let body = unseal(img).ok_or(WireError::malformed(
        "image checksum mismatch",
        img.len() as u64,
    ))?;
    let mut r = Reader::new(body);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(WireError::malformed("bad image magic", u64::from(body[0])));
    }
    let _seq = r.varint()?;
    let _epoch = r.varint_u32()?;
    let mut store = new_store(layout);
    for _ in 0..r.count(2)? {
        let id = r.varint()?;
        let data = r.bytes()?;
        let desc = usize::try_from(id).ok().and_then(|id| layout.region(id));
        let desc = desc.ok_or(WireError::malformed("image references unknown region", id))?;
        if desc.used != data.len() {
            let what = "region image length differs from the layout's";
            return Err(WireError::malformed(what, data.len() as u64));
        }
        store.write_bytes(desc.base(), data);
    }
    let mut sync = SyncSnapshot::default();
    for _ in 0..r.count(2)? {
        sync.locks.push((r.u8()?, ranges(&mut r)?));
    }
    for _ in 0..r.count(2)? {
        sync.barriers.push((r.varint()?, r.varint()?));
    }
    r.finish()?;
    Ok((store, sync))
}

/// Replays one log segment's records, in order, into the store and
/// synchronization state.
fn replay_log(
    seg: &[u8],
    store: &mut LocalStore<Pages>,
    sync: &mut SyncSnapshot,
) -> Result<(), WireError> {
    let mut r = Reader::new(seg);
    while r.remaining() > 0 {
        match r.u8()? {
            REC_WRITE => {
                let addr = r.varint()?;
                let data = r.bytes()?;
                // The segment carries no checksum, so the address is as
                // untrusted as the length: it must name used bytes.
                let a = Addr(addr);
                let region = store.layout().region(a.region_index());
                let fits = region.is_some_and(|d| a.region_offset() + data.len() <= d.used);
                if !fits {
                    return Err(WireError::malformed("log write outside its region", addr));
                }
                store.write_bytes(a, data);
            }
            REC_LOCK => {
                let idx = r.varint()?;
                let slot = usize::try_from(idx)
                    .ok()
                    .and_then(|i| sync.locks.get_mut(i));
                let slot = slot.ok_or(WireError::malformed("log references unknown lock", idx))?;
                *slot = (r.u8()?, ranges(&mut r)?);
            }
            REC_BARRIER => {
                let idx = r.varint()?;
                let slot = usize::try_from(idx)
                    .ok()
                    .and_then(|i| sync.barriers.get_mut(i));
                let slot =
                    slot.ok_or(WireError::malformed("log references unknown barrier", idx))?;
                *slot = (r.varint()?, r.varint()?);
            }
            tag => return Err(WireError::malformed("unknown log record tag", tag.into())),
        }
    }
    Ok(())
}

#[cfg(test)]
// Bindings genuinely are one-element range vectors in these fixtures.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use midway_mem::{LayoutBuilder, MemClass};
    use midway_net::wire::fnv1a64;

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
        let mut store = new_store(&layout);
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
            let mut store = new_store(&layout);
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
        let mut store = new_store(&layout);
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

    /// One write and a checkpoint image, then a write, a lock record and a
    /// barrier record in the log after it. Returns the live store too.
    fn image_plus_log() -> (Arc<Layout>, LocalStore<Pages>, RecoveryLog) {
        let (layout, addrs) = layout_with(&[256]);
        let mut live = new_store(&layout);
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
        (layout, live, log)
    }

    #[test]
    fn reconstruct_replays_log_over_checkpoint() {
        let (layout, live, log) = image_plus_log();
        let out = log.reconstruct(&layout).expect("reconstructs");
        assert!(!out.used_fallback);
        assert_eq!(out.store.digest(), live.digest());
        assert_eq!(out.sync.locks, vec![(0, vec![])]);
        assert_eq!(out.sync.barriers, vec![(2, 30)]);
        assert!(out.replay_bytes > 0);
    }

    /// What is on stable storage is what a node restarted from another
    /// commit reads back: lengths and FNVs of the fixture's image and log
    /// segments, captured from the encoders as they stood before the
    /// shared codec. (`BENCH_crash.json`'s byte counters are these sizes.)
    #[test]
    fn stored_bytes_are_the_parent_commits() {
        let (_, _, log) = image_plus_log();
        let image = log.latest.as_deref().expect("has image");
        for (bytes, len, sum) in [
            (image, 288, 0xfb2b_e35a_4932_7c34_u64),
            (&log.wal, 22, 0xe1a7_8b93_1850_8fae),
            (&log.wal_prev, 14, 0x87f9_0fb6_3753_d766),
        ] {
            assert_eq!((bytes.len(), fnv1a64(bytes)), (len, sum));
        }
    }

    /// The log has no checksum: a damaged length, range count, index or
    /// address must surface as `Err` from `reconstruct` (which then hands
    /// back no store at all), never as a panic or an allocation.
    #[test]
    fn corrupt_log_segment_is_an_error_never_a_panic() {
        let (layout, _, sound) = image_plus_log();
        // wal = write(tag, addr × 4, len, 8 bytes) lock(tag, idx, held, n)
        // barrier(tag, idx, episode, last_consist)
        let lock_at = sound
            .wal
            .iter()
            .rposition(|&b| b == REC_LOCK)
            .expect("lock record");
        let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let damage: [(&str, usize, &[u8]); 5] = [
            ("write length", 5, &huge),
            ("write address", 1, &huge),
            ("range count", lock_at + 3, &huge),
            ("lock index", lock_at + 1, &[9]),
            ("record tag", lock_at, &[7]),
        ];
        for (what, at, with) in damage {
            let (_, _, mut log) = image_plus_log();
            log.wal.splice(at..at + 1, with.iter().copied());
            let err = log
                .reconstruct(&layout)
                .err()
                .unwrap_or_else(|| panic!("{what} accepted"));
            assert!(err.contains("write-ahead log"), "{what}: {err}");
        }
        // Cut anywhere inside a record: truncation, reported.
        for keep in 1..sound.wal.len() {
            let (_, _, mut log) = image_plus_log();
            log.wal.truncate(keep);
            let complete = [lock_at, lock_at + 4].contains(&keep);
            assert_eq!(log.reconstruct(&layout).is_ok(), complete, "cut to {keep}");
        }
    }

    /// The recovery slice of the hostile-bytes sweep: mutants of a
    /// re-sealed image (so the decoder proper sees them, not just the
    /// checksum) and of a raw log segment.
    #[test]
    fn mutated_storage_decodes_or_fails_but_never_panics() {
        let (layout, _, log) = image_plus_log();
        let image = log.latest.as_deref().expect("has image");
        let body = unseal(image).expect("sound image");
        let accepted = crate::mutate::sweep(0xc4ec_0001, body, 10_000, |b| {
            let mut img = b.to_vec();
            seal(&mut img);
            decode_checkpoint(&img, &layout).is_ok()
        });
        assert!(accepted > 0 && accepted < 10_000, "image: {accepted}");
        let accepted = crate::mutate::sweep(0xc4ec_0002, &log.wal, 10_000, |b| {
            let mut store = new_store(&layout);
            let mut sync = log.initial.clone();
            replay_log(b, &mut store, &mut sync).is_ok()
        });
        assert!(accepted > 0 && accepted < 10_000, "log: {accepted}");
    }

    #[test]
    fn corrupt_latest_image_falls_back_to_previous() {
        let (layout, addrs) = layout_with(&[64]);
        let mut live = new_store(&layout);
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
        let mut live = new_store(&layout);
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
        let mut live = new_store(&layout);
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
