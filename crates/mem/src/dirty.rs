//! Timestamp dirtybits and the per-region dirtybit-update template.
//!
//! Paper §3.1–3.2: every cache line cached on a processor has a dirtybit in
//! that processor's memory. The dirtybit is *actually a timestamp* (a
//! Lamport-clock value) recording the most recent modification; in practice
//! the write path stores a zero ("dirty") and the timestamp is filled in
//! lazily when the guarding synchronization object is transferred.
//!
//! # Encoding
//!
//! The API speaks `u64` timestamps: [`DIRTY`] is 0, a fresh line reads
//! [`EPOCH`] (1), and real Lamport times follow. The array stores each
//! dirtybit as a `u32` holding `timestamp − 1`, wrapping, so [`EPOCH`] is
//! stored as 0, time `t` as `t − 1` and [`DIRTY`] as `u32::MAX`, and it
//! stores them by the page: lines come in chunks of 1 024, one 4 KiB page
//! of `u32`s, and each chunk is in one of three states:
//!
//! * *one value*: all its lines hold one stored value, and the chunk is
//!   that word;
//! * *packed*: its lines hold at most 16 distinct stored values, and the
//!   chunk is that palette plus a 4-bit index into it per line (580
//!   bytes);
//! * *per-line*: a `u32` per line.
//!
//! A one-value chunk that a stamp, an applied update
//! ([`DirtyBits::take_newer`], [`DirtyBits::take_newer_line`]) or a
//! scan's lazy stamping leaves unequal becomes packed. A packed chunk
//! that needs a seventeenth value first drops the values no line still
//! holds, and becomes per-line if all sixteen are held. A chunk this
//! processor [`mark`](DirtyBits::mark)s, the template's store, becomes
//! per-line from either state. A packed or per-line chunk joins back into
//! one value when an operation over the whole chunk leaves its lines
//! equal: [`DirtyBits::take_newer`] when every line ends at the update's
//! stamp, or a scan that sends lines of the chunk (and stamps its DIRTY
//! ones). Four things follow:
//!
//! * a fresh array is a vector of chunks at zero, all zero bytes, which
//!   the allocator hands out as untouched pages (`calloc`): a line costs
//!   memory only once it is marked or stamped;
//! * a page of lines under one stamp costs one word: the lines a lock or
//!   barrier transfer stamps in runs (matrix's `B` and `C` once their
//!   barriers have released) cost nothing per line;
//! * a page whose lines only take other processors' stamps costs half a
//!   byte a line: sor's edge rows, whose red and black lines take the
//!   stamps of the two processors whose rows share a page, hold a few
//!   stamps a page;
//! * timestamps are bounded by [`MAX_TIMESTAMP`]. The Lamport clock asserts
//!   it never passes that bound, and the wire decoder rejects a timestamp
//!   above it.
//!
//! Why: every processor holds one array per region it maps, a word per
//! line, so at scale these arrays are most of a processor's memory (a
//! 10 M-key quicksort at word lines is 10 M dirtybits per processor).
//! Zero-based keeps untouched arrays out of memory, `u32` halves the
//! lines that differ, the chunks drop the pages whose lines agree and
//! the palettes shrink the pages whose lines take few stamps. The
//! template marks a line on every store to shared memory, the hottest
//! path of all, so a chunk it marks is per-line and the store stays one
//! indexed word write, never a palette lookup. A Lamport clock advances a
//! few times per synchronization event; a run has millions of those, not
//! billions.
//!
//! The encoding stays in this file: callers read [`DirtyBits::get`], write
//! [`DirtyBits::stamp`] / [`DirtyBits::mark`], and apply an update through
//! [`DirtyBits::take_newer`] (or [`DirtyBits::take_newer_line`] for an
//! update inside one line). The simulated cost model still charges the
//! paper's flat array, so nothing virtual depends on the width.

use std::ops::Range;

use midway_stats::CostModel;

use crate::addr::Addr;
use crate::layout::{MemClass, RegionDesc};

/// The value the write-path template stores: "modified, not yet stamped".
pub const DIRTY: u64 = 0;

/// The initial timestamp of every line: older than any real Lamport time.
pub const EPOCH: u64 = 1;

/// The largest timestamp a dirtybit can hold: the array stores
/// `timestamp − 1` in a `u32`, and `u32::MAX` there is [`DIRTY`].
pub const MAX_TIMESTAMP: u64 = u32::MAX as u64;

/// The stored form of [`DIRTY`].
const DIRTY_RAW: u32 = u32::MAX;

/// The stored form of timestamp `ts` (0, [`DIRTY`], maps to [`DIRTY_RAW`]).
#[inline]
fn encode(ts: u64) -> u32 {
    assert!(
        ts <= MAX_TIMESTAMP,
        "timestamp {ts} exceeds the dirtybit width (MAX_TIMESTAMP = {MAX_TIMESTAMP})"
    );
    (ts as u32).wrapping_sub(1)
}

/// The timestamp a stored dirtybit holds.
#[inline]
fn decode(raw: u32) -> u64 {
    u64::from(raw.wrapping_add(1))
}

/// What kind of store hit the template (Appendix A entry points).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreKind {
    /// 1-byte store.
    Byte,
    /// 2-byte store.
    Halfword,
    /// 4-byte store.
    Word,
    /// 8-byte store.
    Doubleword,
    /// Unaligned or multi-word store (structure assignment, `bcopy`, ...).
    Area(usize),
}

impl StoreKind {
    /// Classifies a store of `len` bytes.
    pub fn of_len(len: usize) -> StoreKind {
        match len {
            1 => StoreKind::Byte,
            2 => StoreKind::Halfword,
            4 => StoreKind::Word,
            8 => StoreKind::Doubleword,
            n => StoreKind::Area(n),
        }
    }

    /// The store's length in bytes.
    #[allow(clippy::len_without_is_empty)] // a store is never empty
    pub fn len(&self) -> usize {
        match self {
            StoreKind::Byte => 1,
            StoreKind::Halfword => 2,
            StoreKind::Word => 4,
            StoreKind::Doubleword => 8,
            StoreKind::Area(n) => *n,
        }
    }
}

/// Lines per chunk of a [`DirtyBits`]: one 4 KiB page of stored `u32`s.
const CHUNK: usize = 1024;

/// Distinct stored values a packed chunk holds: a 4-bit index per line.
const PALETTE: usize = 16;

/// Lines per scan block: 16 lines are 64 bytes of stored values, and the
/// fixed-size array view drops the per-lane bounds checks so the
/// interesting-test reduction compiles to vector compares.
const BLOCK: usize = 16;

/// One chunk of a [`DirtyBits`], in one of the three states of the
/// module's *Encoding*: its per-line array (the last chunk's may run past
/// the array's lines; those slots mean nothing), else its palette, else
/// the one stored value all its lines hold. At most one of the boxes is
/// present. A triple, so that a vector of chunks at zero is zeroed memory.
type Chunk = (Option<Box<[u32; CHUNK]>>, Option<Box<Packed>>, u32);

/// A packed chunk: at most [`PALETTE`] distinct stored values and, per
/// line, the 4-bit index of the one it holds (580 bytes, not 4 KiB).
#[derive(Clone, Debug)]
struct Packed {
    /// The palette: the first `len` values are in use and distinct.
    values: [u32; PALETTE],
    len: u8,
    /// The index [`slot_of`](Self::slot_of) returned last: an update
    /// stamps line after line with one value.
    last: u8,
    /// Line `i`'s index, in the low nibble of byte `i / 2` for an even
    /// `i` and in the high one for an odd `i`.
    index: [u8; CHUNK / 2],
}

impl Packed {
    /// A chunk whose lines all hold `same`.
    fn new(same: u32) -> Box<Packed> {
        Box::new(Packed {
            values: [same; PALETTE],
            len: 1,
            last: 0,
            index: [0; CHUNK / 2],
        })
    }

    /// The palette index of line `i`.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        usize::from(self.index[i / 2] >> (i % 2 * 4) & 0xf)
    }

    /// The stored value of line `i`.
    #[inline]
    fn get(&self, i: usize) -> u32 {
        self.values[self.slot(i)]
    }

    /// Points line `i` at palette index `k`.
    #[inline]
    fn put(&mut self, i: usize, k: usize) {
        let shift = i % 2 * 4;
        let byte = &mut self.index[i / 2];
        *byte = *byte & !(0xf << shift) | (k as u8) << shift;
    }

    /// Points lines `lines` at palette index `k`.
    fn fill(&mut self, lines: Range<usize>, k: usize) {
        let (mut lo, mut hi) = (lines.start, lines.end);
        if lo % 2 == 1 && lo < hi {
            self.put(lo, k);
            lo += 1;
        }
        if hi % 2 == 1 && lo < hi {
            hi -= 1;
            self.put(hi, k);
        }
        self.index[lo / 2..hi / 2].fill(k as u8 * 0x11);
    }

    /// [`DirtyBits::take_newer_line`]'s common case: stamps line `i`
    /// with `raw` if it holds an older value and `raw` is the value
    /// [`slot_of`](Self::slot_of) returned last, as it is while an update
    /// stamps line after line. Whether the line took `raw`, or `None` if
    /// it takes a value other than the last one.
    #[inline]
    fn take_line(&mut self, i: usize, raw: u32) -> Option<bool> {
        let (at, shift) = (i / 2, i % 2 * 4);
        let byte = self.index[at];
        if self.values[usize::from(byte >> shift & 0xf)] >= raw {
            return Some(false);
        }
        let last = self.last & 0xf;
        if self.values[usize::from(last)] != raw {
            return None;
        }
        self.index[at] = byte & !(0xf << shift) | last << shift;
        Some(true)
    }

    /// The palette index of `raw`, if it is there.
    #[inline]
    fn find(&self, raw: u32) -> Option<usize> {
        self.values[..usize::from(self.len)]
            .iter()
            .position(|&v| v == raw)
    }

    /// The palette indices whose values pass `test`, as a bit mask.
    #[inline]
    fn slots(&self, test: impl Fn(u32) -> bool) -> u32 {
        let mut mask = 0;
        for (k, &v) in self.values[..usize::from(self.len)].iter().enumerate() {
            mask |= u32::from(test(v)) << k;
        }
        mask
    }

    /// The palette index of `raw`, added if absent. A full palette first
    /// drops the values none of the chunk's `lines` lines hold; if it is
    /// still full, `None`, and the chunk must go per-line.
    #[inline]
    fn slot_of(&mut self, raw: u32, lines: usize) -> Option<usize> {
        let last = usize::from(self.last);
        if self.values[last] == raw {
            return Some(last);
        }
        let k = match self.find(raw) {
            Some(k) => k,
            None => self.add(raw, lines)?,
        };
        self.last = k as u8;
        Some(k)
    }

    /// [`slot_of`](Self::slot_of) for a value not in the palette.
    fn add(&mut self, raw: u32, lines: usize) -> Option<usize> {
        if usize::from(self.len) == PALETTE {
            self.compact(lines);
            if usize::from(self.len) == PALETTE {
                return None;
            }
        }
        self.values[usize::from(self.len)] = raw;
        self.len += 1;
        Some(usize::from(self.len) - 1)
    }

    /// Drops the palette values none of the first `lines` lines hold and
    /// renumbers the rest, in order.
    fn compact(&mut self, lines: usize) {
        let mut live = 0u32;
        for &byte in &self.index[..lines / 2] {
            live |= 1 << (byte & 0xf) | 1 << (byte >> 4);
        }
        if lines % 2 == 1 {
            live |= 1 << self.slot(lines - 1);
        }
        let mut to = [0u8; PALETTE];
        let mut len = 0;
        for (k, new) in to.iter_mut().enumerate().take(usize::from(self.len)) {
            if live >> k & 1 == 1 {
                *new = len;
                self.values[usize::from(len)] = self.values[k];
                len += 1;
            }
        }
        if len < self.len {
            (self.len, self.last) = (len, 0);
            for byte in &mut self.index {
                *byte = to[usize::from(*byte & 0xf)] | to[usize::from(*byte >> 4)] << 4;
            }
        }
    }

    /// The same lines as a per-line array.
    fn unpack(&self) -> Box<[u32; CHUNK]> {
        let mut bits = Vec::with_capacity(CHUNK);
        for &b in &self.index {
            bits.extend([b & 0xf, b >> 4].map(|k| self.values[usize::from(k)]));
        }
        bits.into_boxed_slice().try_into().expect("CHUNK lines")
    }
}

/// The per-processor dirtybit array of one region.
///
/// Stored zero-based in `u32`s, by the page (see the module's
/// *Encoding*): a chunk of [`CHUNK_LINES`](Self::CHUNK_LINES) lines whose
/// stored values are all equal is that one value; a chunk whose lines
/// differ keeps a palette of at most 16 values and a 4-bit index per line,
/// or, once this processor marks it or its values outgrow the palette, a
/// per-line array. A new array is every chunk at zero, in zeroed memory.
#[derive(Clone, Debug)]
pub struct DirtyBits {
    lines: usize,
    chunks: Vec<Chunk>,
}

impl DirtyBits {
    /// Lines per chunk: a chunk whose lines all hold one timestamp costs
    /// one word instead of a page.
    pub const CHUNK_LINES: usize = CHUNK;

    /// Creates an array of `lines` dirtybits, all at [`EPOCH`].
    pub fn new(lines: usize) -> DirtyBits {
        let chunks = lines.div_ceil(CHUNK);
        DirtyBits {
            lines,
            chunks: vec![(None, None, 0); chunks],
        }
    }

    /// Number of lines tracked.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// How many chunks' lines differ, packed or per-line (the rest cost
    /// one word).
    pub fn per_line_chunks(&self) -> usize {
        self.chunks
            .iter()
            .filter(|(bits, packed, _)| bits.is_some() || packed.is_some())
            .count()
    }

    /// Marks `line` dirty (the template's store). A chunk this processor
    /// stores into goes per-line.
    #[inline]
    pub fn mark(&mut self, line: usize) {
        let (c, i) = self.locate(line);
        let chunk = &mut self.chunks[c];
        match chunk {
            (Some(bits), _, _) => bits[i] = DIRTY_RAW,
            (None, None, same) if *same == DIRTY_RAW => {}
            _ => split_out(chunk)[i] = DIRTY_RAW,
        }
    }

    /// The timestamp of `line`: [`DIRTY`], [`EPOCH`] or a Lamport time.
    #[inline]
    pub fn get(&self, line: usize) -> u64 {
        let (c, i) = self.locate(line);
        decode(value(&self.chunks[c], i))
    }

    /// Stamps `line` with timestamp `ts` (requester side after applying an
    /// update, or releaser side when lazily timestamping).
    ///
    /// # Panics
    ///
    /// If `ts` exceeds [`MAX_TIMESTAMP`].
    #[inline]
    pub fn stamp(&mut self, line: usize, ts: u64) {
        let raw = encode(ts);
        let (c, i) = self.locate(line);
        let lines = self.span(c);
        store(&mut self.chunks[c], i, raw, lines);
    }

    /// Applies the timestamp of an update covering `lines`: a line takes
    /// `ts` iff it is not [`DIRTY`] (a local modification is never
    /// overwritten) and `ts` is strictly newer than its stamp (the
    /// exactly-once property). Stamps the lines that take it and reports
    /// each maximal run of lines that do (`true`) or do not (`false`), in
    /// order, as `on_run(run, taken)`.
    ///
    /// # Panics
    ///
    /// If `ts` exceeds [`MAX_TIMESTAMP`].
    #[inline]
    pub fn take_newer(
        &mut self,
        lines: Range<usize>,
        ts: u64,
        mut on_run: impl FnMut(Range<usize>, bool),
    ) {
        // `ts > t` for stored `t − 1` is `raw < ts − 1`, which no stored
        // DIRTY (`u32::MAX`) satisfies; the stamp is `ts − 1` itself. A
        // zero `ts` (VM items carry it) is newer than nothing.
        let stamp = encode(ts.max(EPOCH));
        self.check(&lines);
        // The open run: its first line and whether its lines take `ts`.
        // A run that flips `take` closes it, if it holds any line.
        let (mut start, mut take) = (lines.start, false);
        let mut at = lines.start;
        while at < lines.end {
            let (c, lo, hi, whole) = self.piece(at, lines.end);
            let base = c * CHUNK;
            let len = self.span(c);
            let chunk = &mut self.chunks[c];
            // A packed chunk takes the stamp into its palette, or goes
            // per-line.
            let mut to = 0;
            if let (None, Some(packed), _) = chunk {
                match packed.slot_of(stamp, len) {
                    Some(k) => to = k,
                    None => _ = split_out(chunk),
                }
            }
            match chunk {
                (None, None, same) => {
                    let t = *same < stamp;
                    if t != take {
                        if at > start {
                            on_run(start..at, take);
                        }
                        (start, take) = (at, t);
                    }
                    if t && whole {
                        *same = stamp;
                    } else if t {
                        pack(chunk, lo..hi, stamp);
                    }
                }
                (None, Some(packed), _) => {
                    // A piece whose lines all take the update is one fill.
                    if (lo..hi).all(|i| packed.get(i) < stamp) {
                        if !take {
                            if at > start {
                                on_run(start..at, take);
                            }
                            (start, take) = (at, true);
                        }
                        packed.fill(lo..hi, to);
                        if whole {
                            *chunk = (None, None, stamp);
                        }
                    } else {
                        // Whether the chunk ends all at `stamp`.
                        let mut equal = whole;
                        for i in lo..hi {
                            let raw = packed.get(i);
                            let t = raw < stamp;
                            if t {
                                packed.put(i, to);
                            }
                            equal &= raw <= stamp;
                            if t != take {
                                let line = base + i;
                                if line > start {
                                    on_run(start..line, take);
                                }
                                (start, take) = (line, t);
                            }
                        }
                        if equal {
                            *chunk = (None, None, stamp);
                        }
                    }
                }
                (Some(bits), _, _) => {
                    // Whether the chunk ends all at `stamp`.
                    let mut equal = whole;
                    let bits = &mut bits[lo..hi];
                    let mut i = 0;
                    while i < bits.len() {
                        let from = i;
                        let t = bits[i] < stamp;
                        if t {
                            while i < bits.len() && bits[i] < stamp {
                                bits[i] = stamp;
                                i += 1;
                            }
                        } else {
                            while i < bits.len() && bits[i] >= stamp {
                                equal &= bits[i] == stamp;
                                i += 1;
                            }
                        }
                        if t != take {
                            let line = base + lo + from;
                            if line > start {
                                on_run(start..line, take);
                            }
                            (start, take) = (line, t);
                        }
                    }
                    if equal {
                        *chunk = (None, None, stamp);
                    }
                }
            }
            at = base + hi;
        }
        if lines.end > start {
            on_run(start..lines.end, take);
        }
    }

    /// [`take_newer`](Self::take_newer) over the one line `line`: stamps
    /// it with `ts` and returns true iff it takes the update.
    ///
    /// # Panics
    ///
    /// If `ts` exceeds [`MAX_TIMESTAMP`].
    #[inline]
    pub fn take_newer_line(&mut self, line: usize, ts: u64) -> bool {
        let stamp = encode(ts.max(EPOCH));
        let (c, i) = self.locate(line);
        let lines = self.span(c);
        let chunk = &mut self.chunks[c];
        if let (None, Some(packed), _) = chunk {
            if let Some(take) = packed.take_line(i, stamp) {
                return take;
            }
        }
        let take = value(chunk, i) < stamp;
        if take {
            store(chunk, i, stamp, lines);
        }
        take
    }

    /// Scans lines `range` on behalf of a requester that last saw time
    /// `last_seen`, lazily stamping freshly dirty lines with `now`.
    ///
    /// A line must be sent if it was modified after `last_seen`: either its
    /// dirtybit is still [`DIRTY`] (modified since the last transfer — it is
    /// stamped with `now` as a side effect, the paper's lazy timestamping)
    /// or it carries a timestamp greater than `last_seen`.
    ///
    /// # Panics
    ///
    /// If `now` exceeds [`MAX_TIMESTAMP`].
    pub fn scan(&mut self, range: Range<usize>, last_seen: u64, now: u64) -> ScanOutcome {
        let mut out = ScanOutcome::default();
        self.scan_into(&mut out, range, last_seen, now);
        out
    }

    /// [`scan`](DirtyBits::scan) into a caller-owned outcome, so the `lines`
    /// vector's capacity survives across scans. Clears `out` first.
    ///
    /// A line is *interesting* iff `t == DIRTY || t > last_seen`, which
    /// for the stored `raw = t − 1` (DIRTY stored as `u32::MAX`) is
    /// exactly `u64::from(raw) >= last_seen`. A `last_seen` above
    /// [`MAX_TIMESTAMP`] leaves only DIRTY interesting, as does
    /// `last_seen == MAX_TIMESTAMP`, so the comparison runs in `u32`
    /// against the saturated bound. A chunk of one value is decided once
    /// for all its lines, a packed chunk once per palette value; a
    /// per-line chunk is scanned a block of lines at a time, one
    /// branch-free comparison per line, so an all-clean block skips the
    /// per-line work that dominates steady-state scans.
    pub fn scan_into(
        &mut self,
        out: &mut ScanOutcome,
        range: Range<usize>,
        last_seen: u64,
        now: u64,
    ) {
        out.lines.clear();
        out.clean_reads = 0;
        out.dirty_reads = 0;
        let seen = last_seen.min(MAX_TIMESTAMP) as u32;
        let now = encode(now);
        self.check(&range);
        let mut at = range.start;
        while at < range.end {
            let (c, lo, hi, whole) = self.piece(at, range.end);
            let base = c * CHUNK;
            let len = self.span(c);
            let chunk = &mut self.chunks[c];
            // A packed chunk that may hold DIRTY lines needs a palette
            // index for `now`, or goes per-line.
            if let (None, Some(packed), _) = chunk {
                if packed.find(DIRTY_RAW).is_some() && packed.slot_of(now, len).is_none() {
                    split_out(chunk);
                }
            }
            // Only a chunk the scan sent lines of can have been stamped.
            let sent = out.lines.len();
            match chunk {
                (None, None, same) => {
                    let raw = *same;
                    let n = (hi - lo) as u64;
                    if raw < seen {
                        out.clean_reads += n;
                    } else {
                        out.dirty_reads += n;
                        out.lines.extend(at..base + hi);
                        if raw == DIRTY_RAW && whole {
                            *same = now;
                        } else if raw == DIRTY_RAW {
                            pack(chunk, lo..hi, now);
                        }
                    }
                }
                (None, Some(packed), _) => {
                    let hot = packed.slots(|v| v >= seen);
                    if hot != 0 {
                        let interesting = (lo..hi).filter(|&i| hot >> packed.slot(i) & 1 == 1);
                        out.lines.extend(interesting.map(|i| base + i));
                        if let Some(dirty) = packed.find(DIRTY_RAW) {
                            // Present whenever `dirty` is (see above).
                            let to = packed.find(now).unwrap_or_default();
                            for i in lo..hi {
                                if packed.slot(i) == dirty {
                                    packed.put(i, to);
                                }
                            }
                        }
                    }
                    let sent = (out.lines.len() - sent) as u64;
                    out.dirty_reads += sent;
                    out.clean_reads += (hi - lo) as u64 - sent;
                    if whole && sent > 0 {
                        let k = packed.slot(0);
                        if (0..len).all(|i| packed.slot(i) == k) {
                            *chunk = (None, None, packed.values[k]);
                        }
                    }
                }
                (Some(bits), _, _) => {
                    scan_lines(&mut bits[lo..hi], at, out, seen, now);
                    if whole && out.lines.len() > sent {
                        let first = bits[0];
                        if bits[..len].iter().all(|&raw| raw == first) {
                            *chunk = (None, None, first);
                        }
                    }
                }
            }
            at = base + hi;
        }
    }

    /// The line-at-a-time reference implementation of [`DirtyBits::scan`],
    /// over decoded timestamps, kept as the equivalence oracle for the
    /// chunked hot path: property tests assert the two agree on random
    /// arrays, and the pinned benchmark times it as
    /// `calib.scan_reference_mlps`.
    pub fn scan_reference(&mut self, range: Range<usize>, last_seen: u64, now: u64) -> ScanOutcome {
        let mut out = ScanOutcome::default();
        for line in range {
            let v = self.get(line);
            if v == DIRTY {
                self.stamp(line, now);
                out.dirty_reads += 1;
                out.lines.push(line);
            } else if v > last_seen {
                out.dirty_reads += 1;
                out.lines.push(line);
            } else {
                out.clean_reads += 1;
            }
        }
        out
    }

    /// The chunk holding `line` and the line's index in it.
    ///
    /// # Panics
    ///
    /// If `line` is past the array.
    #[inline]
    fn locate(&self, line: usize) -> (usize, usize) {
        if line >= self.lines {
            outside(line..line + 1, self.lines);
        }
        (line / CHUNK, line % CHUNK)
    }

    /// How many of the array's lines chunk `c` holds.
    #[inline]
    fn span(&self, c: usize) -> usize {
        CHUNK.min(self.lines - c * CHUNK)
    }

    /// Panics unless `range` is a range of this array's lines.
    #[inline]
    fn check(&self, range: &Range<usize>) {
        if range.start > range.end || range.end > self.lines {
            outside(range.clone(), self.lines);
        }
    }

    /// The piece of lines `at..end` inside `at`'s chunk: the chunk, the
    /// piece as indices into it, and whether the piece is the whole chunk.
    #[inline]
    fn piece(&self, at: usize, end: usize) -> (usize, usize, usize, bool) {
        let (c, lo) = (at / CHUNK, at % CHUNK);
        let hi = (end - c * CHUNK).min(CHUNK);
        let whole = lo == 0 && hi == self.span(c);
        (c, lo, hi, whole)
    }
}

#[cold]
#[inline(never)]
fn outside(range: Range<usize>, lines: usize) -> ! {
    panic!("lines {range:?} outside a {lines}-line dirtybit array")
}

/// `chunk`'s per-line array, made from its palette or its one value if it
/// has none. Out of line: a chunk changes state once per many stores.
#[cold]
fn split_out(chunk: &mut Chunk) -> &mut [u32; CHUNK] {
    let (bits, packed, same) = chunk;
    bits.get_or_insert_with(|| match packed.take() {
        Some(packed) => packed.unpack(),
        None => vec![*same; CHUNK]
            .into_boxed_slice()
            .try_into()
            .expect("CHUNK lines"),
    })
}

/// The stored value of line `i` of `chunk`.
#[inline]
fn value(chunk: &Chunk, i: usize) -> u32 {
    match chunk {
        (Some(bits), _, _) => bits[i],
        (None, Some(packed), _) => packed.get(i),
        (None, None, same) => *same,
    }
}

/// Packs the one-value `chunk`, storing `raw` in its lines `lines`.
#[cold]
fn pack(chunk: &mut Chunk, lines: Range<usize>, raw: u32) {
    let (_, packed, same) = chunk;
    let mut new = Packed::new(*same);
    let k = new.slot_of(raw, 0).expect("a new palette has room");
    new.fill(lines, k);
    *packed = Some(new);
}

/// Stores `raw` in line `i` of `chunk`, whose lines `lines` are the
/// array's, without unpacking it: a one-value chunk packs, and a packed
/// one goes per-line only when `raw` overflows its palette.
#[inline]
fn store(chunk: &mut Chunk, i: usize, raw: u32, lines: usize) {
    match chunk {
        (Some(bits), _, _) => bits[i] = raw,
        (None, None, same) if *same == raw => {}
        (None, packed, same) => {
            let packed = packed.get_or_insert_with(|| Packed::new(*same));
            match packed.slot_of(raw, lines) {
                Some(k) => packed.put(i, k),
                None => split_out(chunk)[i] = raw,
            }
        }
    }
}

/// [`DirtyBits::scan_into`] over per-line stored values `bits`, the first
/// of them line `first`: pushes the interesting lines onto `out` and
/// stamps the DIRTY ones with `now`, a block of [`BLOCK`] lines at a time.
fn scan_lines(bits: &mut [u32], first: usize, out: &mut ScanOutcome, seen: u32, now: u32) {
    let mut at = 0;
    while at + BLOCK <= bits.len() {
        let block: &[u32; BLOCK] = bits[at..at + BLOCK].try_into().expect("BLOCK lines");
        let mut any = false;
        for &raw in block {
            any |= raw >= seen;
        }
        if any {
            for i in at..at + BLOCK {
                scan_one(bits, i, first, out, seen, now);
            }
        } else {
            out.clean_reads += BLOCK as u64;
        }
        at += BLOCK;
    }
    for i in at..bits.len() {
        scan_one(bits, i, first, out, seen, now);
    }
}

#[inline]
fn scan_one(bits: &mut [u32], i: usize, first: usize, out: &mut ScanOutcome, seen: u32, now: u32) {
    let raw = bits[i];
    if raw == DIRTY_RAW {
        bits[i] = now;
        out.dirty_reads += 1;
        out.lines.push(first + i);
    } else if raw >= seen {
        out.dirty_reads += 1;
        out.lines.push(first + i);
    } else {
        out.clean_reads += 1;
    }
}

/// Result of a dirtybit scan: which lines to send and the read counts
/// feeding the paper's Table 2.
#[derive(Clone, Debug, Default)]
pub struct ScanOutcome {
    /// Line indices (within the region) that must be sent.
    pub lines: Vec<usize>,
    /// Dirtybits read that were clean (5 cycles each in Table 1).
    pub clean_reads: u64,
    /// Dirtybits read that were dirty (4 cycles each; two memory references
    /// each in Table 5's accounting, for the timestamp store).
    pub dirty_reads: u64,
}

/// Result of a template invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TemplateHit {
    /// Cycles charged for the inline code plus the template body.
    pub cycles: u64,
    /// Dirtybits stored (zero for a private-region hit).
    pub lines_marked: u64,
    /// True when a write to private memory went through the shared path
    /// (the paper's six-instruction misclassification penalty).
    pub misclassified: bool,
}

/// The dirtybit-update code template at the base of a region (Appendix A).
///
/// A real template is machine code specialized with the region's cache-line
/// size and dirtybit base; here it is a small struct holding the same
/// constants, with one `invoke` entry per store kind.
#[derive(Clone, Copy, Debug)]
pub struct Template {
    class: MemClass,
    line_shift: u32,
}

impl Template {
    /// Builds the template for a region (done when the region is first
    /// allocated, in the paper).
    pub fn for_region(desc: &RegionDesc) -> Template {
        Template {
            class: desc.class,
            line_shift: desc.line_shift,
        }
    }

    /// The region's class.
    pub fn class(&self) -> MemClass {
        self.class
    }

    /// Invokes the template for a store of `kind` at `addr`, marking the
    /// covered lines dirty in `bits`.
    ///
    /// The common cases — a store no larger than one cache line — cost the
    /// paper's 9 cycles. The rarely-taken area path pays a call-out base
    /// cost plus one store per covered line. A private-region template
    /// returns immediately at the misclassification penalty of 6 cycles.
    #[inline]
    pub fn invoke(
        &self,
        bits: &mut DirtyBits,
        addr: Addr,
        kind: StoreKind,
        cost: &CostModel,
    ) -> TemplateHit {
        if self.class == MemClass::Private {
            return TemplateHit {
                cycles: cost.dirtybit_set_private,
                lines_marked: 0,
                misclassified: true,
            };
        }
        let len = kind.len().max(1);
        let first = addr.line_in_region(self.line_shift);
        let last = Addr(addr.raw() + (len as u64 - 1)).line_in_region(self.line_shift);
        let nlines = (last - first + 1) as u64;
        let single_line = first == last;
        let cycles = match kind {
            StoreKind::Byte | StoreKind::Halfword | StoreKind::Word if single_line => {
                cost.dirtybit_set_word
            }
            StoreKind::Doubleword if single_line => cost.dirtybit_set_double,
            _ => cost.dirtybit_set_area_base + nlines * cost.dirtybit_update,
        };
        for line in first..=last {
            bits.mark(line);
        }
        TemplateHit {
            cycles,
            lines_marked: nlines,
            misclassified: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{LayoutBuilder, MemClass};

    fn shared_template(line_shift: u32) -> (Template, DirtyBits, Addr) {
        let mut b = LayoutBuilder::new();
        let a = b.alloc("t", 4096, MemClass::Shared, line_shift);
        let layout = b.build();
        let desc = layout.region_of(a.addr);
        (
            Template::for_region(desc),
            DirtyBits::new(desc.lines()),
            a.addr,
        )
    }

    #[test]
    fn doubleword_to_doubleword_line_costs_nine_cycles() {
        let cost = CostModel::r3000_mach();
        let (t, mut bits, base) = shared_template(3);
        let hit = t.invoke(&mut bits, base + 16, StoreKind::Doubleword, &cost);
        assert_eq!(hit.cycles, 9);
        assert_eq!(hit.lines_marked, 1);
        assert!(!hit.misclassified);
        assert_eq!(bits.get(2), DIRTY);
        assert_eq!(bits.get(1), EPOCH);
    }

    #[test]
    fn word_to_word_line_costs_nine_cycles() {
        let cost = CostModel::r3000_mach();
        let (t, mut bits, base) = shared_template(2);
        let hit = t.invoke(&mut bits, base + 4, StoreKind::Word, &cost);
        assert_eq!(hit.cycles, 9);
        assert_eq!(bits.get(1), DIRTY);
    }

    #[test]
    fn private_template_returns_at_misclassification_cost() {
        let cost = CostModel::r3000_mach();
        let mut b = LayoutBuilder::new();
        let a = b.alloc("p", 64, MemClass::Private, 3);
        let layout = b.build();
        let t = Template::for_region(layout.region_of(a.addr));
        let mut bits = DirtyBits::new(8);
        let hit = t.invoke(&mut bits, a.addr, StoreKind::Word, &cost);
        assert_eq!(hit.cycles, 6);
        assert_eq!(hit.lines_marked, 0);
        assert!(hit.misclassified);
        assert_eq!(
            bits.get(0),
            EPOCH,
            "private template must not touch dirtybits"
        );
    }

    #[test]
    fn area_store_marks_every_covered_line() {
        let cost = CostModel::r3000_mach();
        let (t, mut bits, base) = shared_template(3);
        // 40 bytes starting at offset 4 covers lines 0..=5.
        let hit = t.invoke(&mut bits, base + 4, StoreKind::Area(40), &cost);
        assert_eq!(hit.lines_marked, 6);
        assert_eq!(
            hit.cycles,
            cost.dirtybit_set_area_base + 6 * cost.dirtybit_update
        );
        for line in 0..6 {
            assert_eq!(bits.get(line), DIRTY);
        }
        assert_eq!(bits.get(6), EPOCH);
    }

    #[test]
    fn doubleword_spanning_two_word_lines_takes_area_path() {
        let cost = CostModel::r3000_mach();
        let (t, mut bits, base) = shared_template(2);
        let hit = t.invoke(&mut bits, base + 4, StoreKind::Doubleword, &cost);
        assert_eq!(hit.lines_marked, 2);
        assert!(hit.cycles > cost.dirtybit_set_double);
    }

    #[test]
    fn scan_sends_dirty_and_newer_lines_and_stamps_lazily() {
        let mut bits = DirtyBits::new(8);
        bits.mark(1);
        bits.stamp(2, 10); // modified at time 10 (already stamped)
        bits.stamp(3, 3); // older than last_seen
        let out = bits.scan(0..8, 5, 20);
        assert_eq!(out.lines, vec![1, 2]);
        assert_eq!(out.dirty_reads, 2);
        assert_eq!(out.clean_reads, 6);
        // Lazy stamping: the dirty line now carries the releaser's time.
        assert_eq!(bits.get(1), 20);
        assert_eq!(bits.get(2), 10);
    }

    #[test]
    fn scan_with_epoch_last_seen_sends_everything_modified() {
        let mut bits = DirtyBits::new(4);
        bits.mark(0);
        bits.stamp(2, 7);
        let out = bits.scan(0..4, EPOCH, 9);
        assert_eq!(out.lines, vec![0, 2]);
    }

    #[test]
    fn chunked_scan_matches_reference_on_block_edges() {
        // 20 lines: two full 8-line blocks plus a 4-line tail, with
        // interesting lines placed at block seams and in the tail.
        for interesting in [vec![], vec![0], vec![7, 8], vec![15, 16, 19], vec![17]] {
            let mut a = DirtyBits::new(20);
            let mut b = DirtyBits::new(20);
            for (i, &line) in interesting.iter().enumerate() {
                if i % 2 == 0 {
                    a.mark(line);
                    b.mark(line);
                } else {
                    a.stamp(line, 50);
                    b.stamp(line, 50);
                }
            }
            let got = a.scan(0..20, 10, 99);
            let want = b.scan_reference(0..20, 10, 99);
            assert_eq!(got.lines, want.lines, "interesting {interesting:?}");
            assert_eq!(got.dirty_reads, want.dirty_reads);
            assert_eq!(got.clean_reads, want.clean_reads);
            for line in 0..20 {
                assert_eq!(a.get(line), b.get(line), "lazy stamping must match");
            }
        }
    }

    #[test]
    fn scan_into_reuses_and_clears_the_outcome() {
        let mut bits = DirtyBits::new(16);
        bits.mark(3);
        let mut out = ScanOutcome::default();
        bits.scan_into(&mut out, 0..16, 5, 20);
        assert_eq!(out.lines, vec![3]);
        // Second scan over now-clean lines fully resets the outcome.
        bits.scan_into(&mut out, 0..16, 25, 30);
        assert!(out.lines.is_empty());
        assert_eq!(out.dirty_reads, 0);
        assert_eq!(out.clean_reads, 16);
    }

    #[test]
    fn a_packed_chunk_is_a_palette_and_a_nibble_a_line() {
        assert_eq!(std::mem::size_of::<Packed>(), 4 * PALETTE + CHUNK / 2 + 4);
        let mut packed = Packed::new(7);
        let k = packed.slot_of(9, CHUNK).expect("room");
        packed.fill(3..8, k);
        let lines: Vec<u32> = (0..10).map(|i| packed.get(i)).collect();
        assert_eq!(lines, [7, 7, 7, 9, 9, 9, 9, 9, 7, 7]);
        for v in 10..24 {
            packed.slot_of(v, CHUNK).expect("room");
        }
        // A full palette drops the fourteen values no line holds.
        assert_eq!(packed.slot_of(50, CHUNK), Some(2));
        assert_eq!((packed.get(2), packed.get(3), packed.get(8)), (7, 9, 7));
        packed.fill(1..CHUNK - 1, 2);
        assert_eq!(packed.get(0), 7);
        assert!((1..CHUNK - 1).all(|i| packed.get(i) == 50));
        assert_eq!(packed.get(CHUNK - 1), 7);
    }

    #[test]
    fn store_kind_classification() {
        assert_eq!(StoreKind::of_len(1), StoreKind::Byte);
        assert_eq!(StoreKind::of_len(2), StoreKind::Halfword);
        assert_eq!(StoreKind::of_len(4), StoreKind::Word);
        assert_eq!(StoreKind::of_len(8), StoreKind::Doubleword);
        assert_eq!(StoreKind::of_len(24), StoreKind::Area(24));
        assert_eq!(StoreKind::Area(24).len(), 24);
    }
}
