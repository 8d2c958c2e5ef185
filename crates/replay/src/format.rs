//! The binary trace-file format.
//!
//! Layout only: the primitives — LEB128 varints, varint-prefixed byte
//! strings, the bounded element count, the sealed FNV-1a 64 footer — are
//! the workspace codec's (`midway_net::wire`, reached as
//! `midway_core::codec`). All integers are varints unless noted:
//!
//! ```text
//! magic   b"MWTR"                      (4 raw bytes)
//! version 8                            (the only one the decoder accepts)
//! meta    app, scale (strings: length + UTF-8 bytes), verified (1 byte),
//!         backend (1 byte: `BackendKind::wire_tag`), procs,
//!         cost model (mhz, `CostModel::cycle_fields_mut`, then
//!         `us_fields_mut` as little-endian f64 bit patterns),
//!         net model (4 varints),
//!         fault plan (enabled (1 byte) + seed + 4 rates),
//!         home map (tag (1 byte), sharded adds a seed varint),
//!         barrier shape (tag (1 byte), tree adds an arity varint),
//!         crash plan (count + count × (proc, at, down) varints),
//!         checkpoint_every (1 varint),
//!         finish_cycles, messages,
//!         counters: procs × `Counters::ROWS` varints (`Counters::NAMES`
//!         order: Table 2, the crash/recovery rows, then the delivery
//!         rows, which a fault-free run leaves zero)
//! blueprint
//!         allocs: n × (name, addr, len, private (1 byte), line_shift)
//!         locks: n × ranges           (ranges: n × (start, len))
//!         barriers: n × (ranges, has_partitions (1 byte), partitions)
//! ops     procs × stream              (stream: n × op)
//!         op: tag (1 byte) + payload:
//!           0 Work    cycles
//!           1 Idle    cycles
//!           2 Write   addr, len, raw bytes
//!           3 Acquire lock, exclusive (1 byte)
//!           4 Release lock, exclusive (1 byte)
//!           5 Rebind  lock, ranges
//!           6 Barrier barrier
//!           7 Read    addr, len          (checked runs only)
//!           8 Grant   lock, to, exclusive (1 byte) (checked runs only)
//! footer  the codec's seal over every preceding byte (8 bytes)
//! ```
//!
//! The header holds only what a caller may vary: the VM history cap, the
//! page size, the fault plan's jitter windows and the reliable channel's
//! timing are constants of the code, so no file can disagree with them.
//!
//! Decoding verifies the magic, checksum and version before anything
//! else; every count is bounded by the bytes that remain, every cost,
//! network and crash time by what a replay can sum (see [`MAX_CHARGE`]),
//! and so is each processor's total of `Work` and `Idle` cycles
//! ([`MAX_STREAM_CYCLES`]),
//! every id is narrowed with a check (and an op's lock or barrier id must
//! name an object of the file's own blueprint, a crash one of its
//! processors) and every range end is computed with one, so truncated,
//! corrupted or re-sealed hostile files are rejected rather than
//! misread. The blueprint is checked against what a
//! replay will build from it: its allocations are replayed through the
//! layout's allocator and must land where the file says, every `Write`
//! and `Rebind` range must lie inside one of them (a `Write` inside one
//! 4 MiB region too), every `Read` (which may run across adjacent
//! allocations) and every lock, barrier and partition range inside their
//! union, a `Grant` must name one of the file's processors, and a
//! barrier's partition list must hold one partition per processor. Each
//! processor's ops decode into an `OpStream` sized exactly by a first
//! pass over them, with adjacent `Work` and `Read` ops kept apart, so a
//! decoded trace re-encodes to the bytes it came from.

use midway_core::codec::{seal, unseal, Reader, WireError, Writer};
use midway_core::{
    AllocSpec, BackendKind, BarrierRanges, BarrierShape, Counters, HomeMap, MidwayConfig, OpStream,
    SpecBlueprint, TraceOp,
};
use midway_mem::{AddrRange, REGION_SHIFT};
use midway_sim::{CrashEvent, FaultPlan, NetModel, MAX_CRASHES};
use midway_stats::CostModel;

use crate::{Trace, TraceMeta};

/// File magic: "MWTR" (MidWay TRace).
pub const MAGIC: [u8; 4] = *b"MWTR";
/// The format version, and the only one the decoder accepts. Trace files
/// are a re-recordable cache, not an archive: a file at any other version
/// is [`TraceError::BadVersion`], which callers treat as a cache miss.
pub const VERSION: u64 = 8;

/// The most bytes a blueprint may allocate in all: 1 TiB, far beyond any
/// recorded workload (sor at datacenter scale allocates 512 MiB), and
/// small enough that the decoder's rebuild of the layout stays cheap
/// whatever the file claims (2^18 regions of data).
const MAX_LAYOUT_BYTES: u64 = 1 << 40;

/// The most a header may charge for one primitive: each cost-model cycle
/// field and each network field, in cycles (the wire rate in millicycles
/// a byte). 2^20 cycles is 42 ms at 25 MHz, over 20 times Table 1's
/// largest cost; nothing in-repo comes near it (the Fig 3/4 sweep ends at
/// 30 000, the network ablation scales the ATM model by at most 8).
///
/// This is why no sum a replay makes of the header's values can
/// overflow: it charges each of these at most once per unit of work — a
/// message sent or received, a byte on the wire, a line, page or kilobyte
/// handled — so one charge, over data inside a layout of at most
/// [`MAX_LAYOUT_BYTES`], stays below 2^61, and a processor's clock would
/// have to do 2^44 units of work before the header's charges alone wrapped
/// it. A crash comes and lasts at most [`MAX_CRASH_CYCLES`].
const MAX_CHARGE: u64 = 1 << 20;

/// The latest cycle a crash may come at, and the longest it may last:
/// 12 hours at 25 MHz, far past any recorded run's finish.
const MAX_CRASH_CYCLES: u64 = 1 << 40;

/// The most cycles one processor's `Work` and `Idle` ops may sum to:
/// 130 days at 25 MHz. A replay adds them to the processor's clock, so
/// they alone can never wrap it, and they leave the header's charges
/// (see [`MAX_CHARGE`]) all but 2^48 of the clock's range.
const MAX_STREAM_CYCLES: u64 = 1 << 48;

/// Why a trace file was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with the `MWTR` magic.
    BadMagic,
    /// The file's format version is not supported.
    BadVersion(u64),
    /// The checksum footer does not match the contents.
    BadChecksum,
    /// The file ends in the middle of a field.
    Truncated,
    /// A field holds a value the format does not allow.
    Malformed(&'static str),
    /// Processor `proc`'s `Work` and `Idle` ops sum past 2^48 cycles,
    /// which could overflow a replay's clock.
    Overlong {
        /// The processor whose stream it is.
        proc: usize,
    },
    /// The file could not be read at all.
    Io(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a Midway trace (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::BadChecksum => write!(f, "trace checksum mismatch (corrupt file)"),
            TraceError::Truncated => write!(f, "trace file is truncated"),
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
            TraceError::Overlong { proc } => write!(
                f,
                "malformed trace: processor {proc}'s work and idle cycles pass 2^48"
            ),
            TraceError::Io(e) => write!(f, "cannot read trace: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<WireError> for TraceError {
    fn from(e: WireError) -> TraceError {
        match e {
            WireError::Truncated { .. } => TraceError::Truncated,
            WireError::Malformed { what, .. } => TraceError::Malformed(what),
        }
    }
}

// ---------------------------------------------------------------- encoding

fn put_ranges(w: &mut Vec<u8>, ranges: &[AddrRange]) {
    w.varint(ranges.len() as u64);
    for r in ranges {
        w.varint(r.start);
        w.varint(r.end - r.start);
    }
}

fn put_cost(w: &mut Vec<u8>, mut c: CostModel) {
    w.varint(u64::from(c.mhz));
    for (_, v) in c.cycle_fields_mut() {
        w.varint(*v);
    }
    for v in c.us_fields_mut() {
        w.u64(v.to_bits());
    }
}

fn put_net(w: &mut Vec<u8>, n: &NetModel) {
    w.varint(n.latency_cycles);
    w.varint(n.per_byte_millicycles);
    w.varint(n.send_overhead_cycles);
    w.varint(n.recv_overhead_cycles);
}

fn put_faults(w: &mut Vec<u8>, f: &FaultPlan) {
    w.push(u8::from(f.enabled));
    w.varint(f.seed);
    w.varint(u64::from(f.drop_ppm));
    w.varint(u64::from(f.dup_ppm));
    w.varint(u64::from(f.reorder_ppm));
    w.varint(u64::from(f.delay_ppm));
}

fn put_home_map(w: &mut Vec<u8>, h: HomeMap) {
    match h {
        HomeMap::Modulo => w.push(0),
        HomeMap::Sharded { seed } => {
            w.push(1);
            w.varint(seed);
        }
    }
}

fn put_barrier_shape(w: &mut Vec<u8>, b: BarrierShape) {
    match b {
        BarrierShape::Flat => w.push(0),
        BarrierShape::Tree { arity } => {
            w.push(1);
            w.varint(u64::from(arity));
        }
    }
}

fn put_crash_plan(w: &mut Vec<u8>, f: &FaultPlan) {
    let crashes = f.crashes();
    w.varint(crashes.len() as u64);
    for c in crashes {
        w.varint(u64::from(c.proc));
        w.varint(c.at);
        w.varint(c.down);
    }
}

fn put_op(w: &mut Vec<u8>, op: TraceOp<'_>) {
    match op {
        TraceOp::Work { cycles } => {
            w.push(0);
            w.varint(cycles);
        }
        TraceOp::Idle { cycles } => {
            w.push(1);
            w.varint(cycles);
        }
        TraceOp::Write { addr, data } => {
            w.push(2);
            w.varint(addr);
            w.bytes(data);
        }
        TraceOp::Acquire { lock, exclusive } => {
            w.push(3);
            w.varint(u64::from(lock));
            w.push(u8::from(exclusive));
        }
        TraceOp::Release { lock, exclusive } => {
            w.push(4);
            w.varint(u64::from(lock));
            w.push(u8::from(exclusive));
        }
        TraceOp::Rebind { lock, ranges } => {
            w.push(5);
            w.varint(u64::from(lock));
            put_ranges(w, ranges);
        }
        TraceOp::Barrier { barrier } => {
            w.push(6);
            w.varint(u64::from(barrier));
        }
        TraceOp::Read { addr, len } => {
            w.push(7);
            w.varint(addr);
            w.varint(u64::from(len));
        }
        TraceOp::Grant {
            lock,
            to,
            exclusive,
        } => {
            w.push(8);
            w.varint(u64::from(lock));
            w.varint(u64::from(to));
            w.push(u8::from(exclusive));
        }
    }
}

/// Encodes a trace into the `MWTR` byte format.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut w = MAGIC.to_vec();
    w.varint(VERSION);

    let m = &trace.meta;
    w.bytes(m.app.as_bytes());
    w.bytes(m.scale.as_bytes());
    w.push(u8::from(m.verified));
    w.push(m.cfg.backend.wire_tag());
    w.varint(m.cfg.procs as u64);
    put_cost(&mut w, m.cfg.cost);
    put_net(&mut w, &m.cfg.net);
    put_faults(&mut w, &m.cfg.faults);
    put_home_map(&mut w, m.cfg.home_map);
    put_barrier_shape(&mut w, m.cfg.barrier);
    put_crash_plan(&mut w, &m.cfg.faults);
    w.varint(u64::from(m.cfg.checkpoint_every));
    w.varint(m.finish_cycles);
    w.varint(m.messages);
    assert_eq!(
        m.counters.len(),
        m.cfg.procs,
        "one counter set per processor"
    );
    for c in &m.counters {
        for v in c.rows() {
            w.varint(v);
        }
    }

    let bp = &trace.blueprint;
    w.varint(bp.allocs.len() as u64);
    for a in &bp.allocs {
        w.bytes(a.name.as_bytes());
        w.varint(a.addr);
        w.varint(a.len as u64);
        w.push(u8::from(a.private));
        w.varint(u64::from(a.line_shift));
    }
    w.varint(bp.locks.len() as u64);
    for l in &bp.locks {
        put_ranges(&mut w, l);
    }
    w.varint(bp.barriers.len() as u64);
    for b in &bp.barriers {
        put_ranges(&mut w, &b.ranges);
        match &b.partitions {
            None => w.push(0),
            Some(ps) => {
                w.push(1);
                w.varint(ps.len() as u64);
                for p in ps {
                    put_ranges(&mut w, p);
                }
            }
        }
    }

    assert_eq!(trace.ops.len(), m.cfg.procs, "one op stream per processor");
    for stream in &trace.ops {
        w.varint(stream.len() as u64);
        for op in stream {
            put_op(&mut w, op);
        }
    }

    seal(&mut w);
    w
}

// ---------------------------------------------------------------- decoding

fn malformed<T>(what: &'static str, value: u64) -> Result<T, WireError> {
    Err(WireError::malformed(what, value))
}

fn string(r: &mut Reader) -> Result<String, WireError> {
    let bytes = r.bytes()?;
    String::from_utf8(bytes.to_vec()).or(malformed("non-UTF-8 string", bytes.len() as u64))
}

/// `n` elements of at least `min_bytes_each`, each read by `item`.
fn list<T>(
    r: &mut Reader,
    min_bytes_each: usize,
    mut item: impl FnMut(&mut Reader) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.count(min_bytes_each)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

fn ranges(r: &mut Reader) -> Result<Vec<AddrRange>, WireError> {
    list(r, 2, |r| {
        let (start, len) = (r.varint()?, r.varint()?);
        match start.checked_add(len) {
            Some(end) => Ok(start..end),
            None => malformed("range end overflows", start),
        }
    })
}

/// A header value of at most `max`; above it, malformed naming `field`.
fn at_most(r: &mut Reader, max: u64, field: &'static str) -> Result<u64, WireError> {
    match r.varint()? {
        v if v <= max => Ok(v),
        v => malformed(field, v),
    }
}

fn cost(r: &mut Reader) -> Result<CostModel, WireError> {
    let mut c = CostModel::r3000_mach();
    c.mhz = r.varint_u32()?;
    for (name, f) in c.cycle_fields_mut() {
        *f = at_most(r, MAX_CHARGE, name)?;
    }
    for f in c.us_fields_mut() {
        *f = f64::from_bits(r.u64()?);
    }
    Ok(c)
}

fn net(r: &mut Reader) -> Result<NetModel, WireError> {
    Ok(NetModel {
        latency_cycles: at_most(r, MAX_CHARGE, "latency_cycles")?,
        per_byte_millicycles: at_most(r, MAX_CHARGE, "per_byte_millicycles")?,
        send_overhead_cycles: at_most(r, MAX_CHARGE, "send_overhead_cycles")?,
        recv_overhead_cycles: at_most(r, MAX_CHARGE, "recv_overhead_cycles")?,
    })
}

fn faults(r: &mut Reader) -> Result<FaultPlan, WireError> {
    let enabled = r.u8()? != 0;
    let mut f = FaultPlan::seeded(r.varint()?);
    f.enabled = enabled;
    f.drop_ppm = r.varint_u32()?;
    f.dup_ppm = r.varint_u32()?;
    f.reorder_ppm = r.varint_u32()?;
    f.delay_ppm = r.varint_u32()?;
    Ok(f)
}

fn home_map(r: &mut Reader) -> Result<HomeMap, WireError> {
    match r.u8()? {
        0 => Ok(HomeMap::Modulo),
        1 => Ok(HomeMap::Sharded { seed: r.varint()? }),
        t => malformed("unknown home-map tag", t.into()),
    }
}

fn barrier_shape(r: &mut Reader) -> Result<BarrierShape, WireError> {
    match r.u8()? {
        0 => Ok(BarrierShape::Flat),
        1 => match r.varint_u32()? {
            arity if arity < 2 => malformed("tree barrier arity below 2", arity.into()),
            arity => Ok(BarrierShape::Tree { arity }),
        },
        t => malformed("unknown barrier-shape tag", t.into()),
    }
}

fn crash_plan(r: &mut Reader, procs: usize, f: &mut FaultPlan) -> Result<(), WireError> {
    let n = r.count(3)?;
    if n > MAX_CRASHES {
        return malformed("crash plan exceeds MAX_CRASHES", n as u64);
    }
    for i in 0..n {
        f.crashes[i] = CrashEvent {
            proc: id(r, procs, "crash of a processor outside the trace")?,
            at: at_most(r, MAX_CRASH_CYCLES, "crash at")?,
            down: at_most(r, MAX_CRASH_CYCLES, "crash down")?,
        };
    }
    f.crash_len = n as u8;
    Ok(())
}

fn counters(r: &mut Reader) -> Result<Counters, WireError> {
    let mut c = Counters::default();
    for f in c.fields_mut() {
        *f = r.varint()?;
    }
    Ok(c)
}

/// An id that must name one of `n` objects — a lock or barrier of the
/// blueprint, a processor of the trace: a replay or the checker indexes
/// per-object state with it.
fn id(r: &mut Reader, n: usize, what: &'static str) -> Result<u32, WireError> {
    match r.varint_u32()? {
        id if (id as usize) < n => Ok(id),
        id => malformed(what, id.into()),
    }
}

/// Replays the blueprint's allocation sequence through the layout's bump
/// allocator, as every replay will, and returns the allocations' address
/// ranges sorted by start. Each allocation must be one the allocator
/// accepts and must land where the file says it did, and all of them
/// must fit [`MAX_LAYOUT_BYTES`]; a replay would otherwise panic
/// rebuilding the layout.
fn extents(bp: &SpecBlueprint) -> Result<Vec<AddrRange>, WireError> {
    let total = (bp.allocs.iter()).fold(0u64, |t, a| t.saturating_add(a.len as u64));
    if total > MAX_LAYOUT_BYTES {
        return malformed("allocations exceed the layout bound", total);
    }
    let layout = bp
        .layout()
        .or_else(|(what, value)| malformed(what, value))?;
    let mut out: Vec<AddrRange> = layout.allocs().iter().map(|a| a.range()).collect();
    out.sort_unstable_by_key(|e| e.start);
    Ok(out)
}

/// Whether `r` lies inside one allocation of the start-sorted, disjoint
/// `extents`: a replay stores a `Write` and binds a `Rebind` there.
fn inside(extents: &[AddrRange], r: &AddrRange) -> bool {
    let i = extents.partition_point(|e| e.start <= r.start);
    i > 0 && r.end <= extents[i - 1].end
}

/// Whether every byte of `r` lies in some allocation of the start-sorted,
/// disjoint `extents`. A lock or barrier binding may span adjacent
/// allocations (`Binding::new` merges adjacent ranges), so it is held to
/// their union, not to one allocation as a `Write` is.
fn covered(extents: &[AddrRange], r: &AddrRange) -> bool {
    let mut at = r.start;
    let mut i = extents.partition_point(|e| e.end <= at);
    while at < r.end {
        match extents.get(i) {
            Some(e) if e.start <= at => at = e.end,
            _ => return false,
        }
        i += 1;
    }
    true
}

/// A lock or barrier binding, or a barrier partition: ranges the
/// processors bind, collect and apply, so they must lie in the allocations.
fn bound(r: &mut Reader, extents: &[AddrRange]) -> Result<Vec<AddrRange>, WireError> {
    let ranges = ranges(r)?;
    match ranges.iter().find(|x| !covered(extents, x)) {
        Some(out) => malformed("binding outside the allocations", out.start),
        None => Ok(ranges),
    }
}

/// Decodes one op of a `procs`-processor trace onto the end of `stream`,
/// as read: adjacent `Work` charges and `Read`s stay apart, so the stream
/// re-encodes to the same bytes. Returns the cycles a `Work` or `Idle`
/// op adds to the processor's clock, zero for any other.
fn op(
    r: &mut Reader,
    bp: &SpecBlueprint,
    extents: &[AddrRange],
    procs: usize,
    stream: &mut OpStream,
) -> Result<u64, WireError> {
    let lock = |r: &mut Reader| id(r, bp.locks.len(), "lock id outside the blueprint");
    let tag = r.u8()?;
    if tag <= 1 {
        let cycles = r.varint()?;
        stream.push(match tag {
            0 => TraceOp::Work { cycles },
            _ => TraceOp::Idle { cycles },
        });
        return Ok(cycles);
    }
    stream.push(match tag {
        2 => {
            let addr = r.varint()?;
            let data = r.bytes()?;
            let end = addr.checked_add(data.len() as u64);
            if !end.is_some_and(|end| inside(extents, &(addr..end))) {
                return malformed("write outside every allocation", addr);
            }
            // A replay stores a write into the region holding its address.
            if !data.is_empty() && (addr ^ (addr + data.len() as u64 - 1)) >> REGION_SHIFT != 0 {
                return malformed("write across a region boundary", addr);
            }
            TraceOp::Write { addr, data }
        }
        3 => TraceOp::Acquire {
            lock: lock(r)?,
            exclusive: r.u8()? != 0,
        },
        4 => TraceOp::Release {
            lock: lock(r)?,
            exclusive: r.u8()? != 0,
        },
        5 => {
            let lock = lock(r)?;
            let ranges = ranges(r)?;
            if let Some(out) = ranges.iter().find(|x| !inside(extents, x)) {
                return malformed("rebind outside every allocation", out.start);
            }
            if u32::try_from(ranges.len()).is_err() {
                return malformed("rebind of 2^32 or more ranges", ranges.len() as u64);
            }
            stream.push(TraceOp::Rebind {
                lock,
                ranges: &ranges,
            });
            return Ok(0);
        }
        6 => TraceOp::Barrier {
            barrier: id(r, bp.barriers.len(), "barrier id outside the blueprint")?,
        },
        7 => {
            let (addr, len) = (r.varint()?, r.varint_u32()?);
            match addr.checked_add(u64::from(len)) {
                Some(end) if covered(extents, &(addr..end)) => TraceOp::Read { addr, len },
                _ => return malformed("read outside the allocations", addr),
            }
        }
        8 => TraceOp::Grant {
            lock: lock(r)?,
            to: id(r, procs, "grant to a processor outside the trace")?,
            exclusive: r.u8()? != 0,
        },
        t => return malformed("unknown op tag", t.into()),
    });
    Ok(0)
}

/// Reads past one op without checking its values, returning how many
/// written bytes and rebind ranges it carries.
fn skip_op(r: &mut Reader) -> Result<(usize, usize), WireError> {
    let tag = r.u8()?;
    r.varint()?;
    Ok(match tag {
        2 => (r.bytes()?.len(), 0),
        5 => {
            let n = r.count(2)?;
            for _ in 0..2 * n {
                r.varint()?;
            }
            (0, n)
        }
        // One varint, then a second for a read or a grant and a mode byte
        // for an acquire, a release or a grant.
        0 | 1 | 3 | 4 | 6 | 7 | 8 => {
            if tag >= 7 {
                r.varint()?;
            }
            if matches!(tag, 3 | 4 | 8) {
                r.u8()?;
            }
            (0, 0)
        }
        t => return malformed("unknown op tag", t.into()),
    })
}

/// Processor `proc`'s stream of `n` ops, reserved once at its exact
/// size. A first pass counts the ops, written bytes and rebind ranges as
/// far as their encoding reads; decoding, which also checks every value,
/// stops no later, so the stream never grows and a count the file lies
/// about reserves nothing. Its `Work` and `Idle` cycles may sum to at
/// most [`MAX_STREAM_CYCLES`].
fn stream(
    r: &mut Reader,
    bp: &SpecBlueprint,
    extents: &[AddrRange],
    (proc, procs): (usize, usize),
) -> Result<OpStream, TraceError> {
    let n = r.count(2)?;
    let (mut ahead, mut ops, mut bytes, mut ranges) = (r.clone(), 0, 0, 0);
    while ops < n {
        let Ok((b, k)) = skip_op(&mut ahead) else {
            break;
        };
        (ops, bytes, ranges) = (ops + 1, bytes + b, ranges + k);
    }
    let mut stream = OpStream::with_capacity(ops, bytes, ranges);
    let mut cycles = 0u64;
    for _ in 0..n {
        cycles = cycles.saturating_add(op(r, bp, extents, procs, &mut stream)?);
        if cycles > MAX_STREAM_CYCLES {
            return Err(TraceError::Overlong { proc });
        }
    }
    Ok(stream)
}

/// Decodes an `MWTR` byte buffer back into a trace.
pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(TraceError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let payload = unseal(bytes).ok_or(TraceError::BadChecksum)?;
    let r = &mut Reader::new(&payload[MAGIC.len()..]);
    let version = r.varint()?;
    if version != VERSION {
        return Err(TraceError::BadVersion(version));
    }

    let app = string(r)?;
    let scale = string(r)?;
    let verified = r.u8()? != 0;
    let backend = r.u8()?;
    let backend = BackendKind::from_wire_tag(backend)
        .ok_or(WireError::malformed("unknown backend tag", backend.into()))?;
    let procs = r.count(1)?;
    if procs == 0 {
        return Err(TraceError::Malformed("zero processors"));
    }
    let cost = cost(r)?;
    let net = net(r)?;
    let mut faults = faults(r)?;
    let home_map = home_map(r)?;
    let barrier = barrier_shape(r)?;
    crash_plan(r, procs, &mut faults)?;
    let checkpoint_every = r.varint_u32()?;
    let finish_cycles = r.varint()?;
    let messages = r.varint()?;
    let counters = (0..procs)
        .map(|_| counters(r))
        .collect::<Result<Vec<_>, _>>()?;
    let cfg = MidwayConfig {
        procs,
        backend,
        cost,
        net,
        record: false,
        faults,
        home_map,
        barrier,
        checkpoint_every,
        // Checking is a per-replay choice, never a property of the file.
        check: false,
    };

    let mut blueprint = SpecBlueprint {
        allocs: list(r, 4, |r| {
            Ok(AllocSpec {
                name: string(r)?,
                addr: r.varint()?,
                len: r.varint()? as usize,
                private: r.u8()? != 0,
                line_shift: r.varint_u32()?,
            })
        })?,
        ..SpecBlueprint::default()
    };
    let extents = extents(&blueprint)?;
    blueprint.locks = list(r, 1, |r| bound(r, &extents))?;
    blueprint.barriers = list(r, 1, |r| {
        Ok(BarrierRanges {
            ranges: bound(r, &extents)?,
            partitions: match r.u8()? {
                0 => None,
                // Each processor takes the partition at its own index.
                _ => match list(r, 1, |r| bound(r, &extents))? {
                    parts if parts.len() == procs => Some(parts),
                    parts => {
                        return malformed("partitions not one per processor", parts.len() as u64)
                    }
                },
            },
        })
    })?;

    let ops = (0..procs)
        .map(|proc| stream(r, &blueprint, &extents, (proc, procs)))
        .collect::<Result<Vec<_>, _>>()?;
    r.finish()?;

    Ok(Trace {
        meta: TraceMeta {
            app,
            scale,
            verified,
            cfg,
            finish_cycles,
            messages,
            counters,
        },
        blueprint,
        ops,
    })
}
