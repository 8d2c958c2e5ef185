//! The binary trace-file format.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! magic   b"MWTR"                      (4 raw bytes)
//! version 5                            (the only one the decoder accepts)
//! meta    app, scale (strings: length + UTF-8 bytes), verified (1 byte),
//!         backend (1 byte: `BackendKind::wire_tag`), procs, history_cap,
//!         cost model (Table 1 fields; µs fields as f64 bit patterns),
//!         net model (4 varints),
//!         fault plan (enabled (1 byte) + 7 varints),
//!         reliable channel params (3 varints),
//!         home map (tag (1 byte), sharded adds a seed varint),
//!         barrier shape (tag (1 byte), tree adds an arity varint),
//!         crash plan (count + count × (proc, at, down) varints),
//!         checkpoint_every (1 varint),
//!         finish_cycles, messages,
//!         counters: procs × 24 varints (Table 2 field order, then the
//!         crash/recovery counters)
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
//! footer  FNV-1a 64 checksum of every preceding byte (8 bytes LE)
//! ```
//!
//! Decoding verifies the magic, version and checksum before anything
//! else, and every read is bounds-checked, so truncated or corrupted
//! files are rejected rather than misread.

use midway_core::{
    AllocSpec, BackendKind, BarrierShape, BarrierSpec, Counters, HomeMap, MidwayConfig,
    ReliableParams, SpecBlueprint, TraceOp,
};
use midway_mem::AddrRange;
use midway_sim::{CrashEvent, FaultPlan, NetModel, MAX_CRASHES};
use midway_stats::CostModel;

use crate::{Trace, TraceMeta};

/// File magic: "MWTR" (MidWay TRace).
pub const MAGIC: [u8; 4] = *b"MWTR";
/// The format version, and the only one the decoder accepts. Trace files
/// are a re-recordable cache, not an archive: a file at any other version
/// is [`TraceError::BadVersion`], which callers treat as a cache miss.
pub const VERSION: u64 = 5;

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
            TraceError::Io(e) => write!(f, "cannot read trace: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// FNV-1a 64-bit checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------- encoding

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn string(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.raw(s.as_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.raw(&v.to_bits().to_le_bytes());
    }

    fn ranges(&mut self, ranges: &[AddrRange]) {
        self.varint(ranges.len() as u64);
        for r in ranges {
            self.varint(r.start);
            self.varint(r.end - r.start);
        }
    }

    fn cost(&mut self, c: &CostModel) {
        self.varint(u64::from(c.mhz));
        self.varint(c.page_size as u64);
        for v in [
            c.dirtybit_set_word,
            c.dirtybit_set_double,
            c.dirtybit_set_private,
            c.dirtybit_set_area_base,
            c.dirtybit_read_clean,
            c.dirtybit_read_dirty,
            c.dirtybit_update,
            c.dirtybit_set_queue,
            c.dirtybit_set_two_level,
            c.page_write_fault,
            c.page_diff_uniform,
            c.page_diff_alternating,
            c.protect_rw,
            c.protect_ro,
            c.copy_per_kb_cold,
            c.copy_per_kb_warm,
        ] {
            self.varint(v);
        }
        for v in [
            c.dirtybit_read_clean_us,
            c.dirtybit_read_dirty_us,
            c.dirtybit_update_us,
            c.page_diff_uniform_us,
        ] {
            self.f64(v);
        }
    }

    fn net(&mut self, n: &NetModel) {
        self.varint(n.latency_cycles);
        self.varint(n.per_byte_millicycles);
        self.varint(n.send_overhead_cycles);
        self.varint(n.recv_overhead_cycles);
    }

    fn faults(&mut self, f: &FaultPlan) {
        self.byte(u8::from(f.enabled));
        self.varint(f.seed);
        self.varint(u64::from(f.drop_ppm));
        self.varint(u64::from(f.dup_ppm));
        self.varint(u64::from(f.reorder_ppm));
        self.varint(u64::from(f.delay_ppm));
        self.varint(f.max_delay_cycles);
        self.varint(f.reorder_window_cycles);
    }

    fn reliable(&mut self, p: &ReliableParams) {
        self.varint(p.rto_cycles);
        self.varint(u64::from(p.backoff_cap));
        self.varint(p.timer_cost_cycles);
    }

    fn home_map(&mut self, h: HomeMap) {
        match h {
            HomeMap::Modulo => self.byte(0),
            HomeMap::Sharded { seed } => {
                self.byte(1);
                self.varint(seed);
            }
        }
    }

    fn barrier_shape(&mut self, b: BarrierShape) {
        match b {
            BarrierShape::Flat => self.byte(0),
            BarrierShape::Tree { arity } => {
                self.byte(1);
                self.varint(u64::from(arity));
            }
        }
    }

    fn crash_plan(&mut self, f: &FaultPlan) {
        let crashes = f.crashes();
        self.varint(crashes.len() as u64);
        for c in crashes {
            self.varint(u64::from(c.proc));
            self.varint(c.at);
            self.varint(c.down);
        }
    }

    fn counters(&mut self, c: &Counters) {
        for v in [
            c.dirtybits_set,
            c.dirtybits_misclassified,
            c.clean_dirtybits_read,
            c.dirty_dirtybits_read,
            c.dirtybits_updated,
            c.write_faults,
            c.pages_diffed,
            c.pages_write_protected,
            c.twin_bytes_updated,
            c.data_bytes_sent,
            c.data_bytes_received,
            c.redundant_bytes_received,
            c.lock_acquires,
            c.lock_transfers_served,
            c.full_data_sends,
            c.barrier_waits,
            c.crashes,
            c.downtime_cycles,
            c.fenced_messages,
            c.checkpoints_written,
            c.checkpoint_bytes,
            c.wal_bytes_logged,
            c.recovery_replay_bytes,
            c.recovery_cycles,
        ] {
            self.varint(v);
        }
    }

    fn op(&mut self, op: &TraceOp) {
        match op {
            TraceOp::Work { cycles } => {
                self.byte(0);
                self.varint(*cycles);
            }
            TraceOp::Idle { cycles } => {
                self.byte(1);
                self.varint(*cycles);
            }
            TraceOp::Write { addr, data } => {
                self.byte(2);
                self.varint(*addr);
                self.varint(data.len() as u64);
                self.raw(data);
            }
            TraceOp::Acquire { lock, exclusive } => {
                self.byte(3);
                self.varint(u64::from(*lock));
                self.byte(u8::from(*exclusive));
            }
            TraceOp::Release { lock, exclusive } => {
                self.byte(4);
                self.varint(u64::from(*lock));
                self.byte(u8::from(*exclusive));
            }
            TraceOp::Rebind { lock, ranges } => {
                self.byte(5);
                self.varint(u64::from(*lock));
                self.ranges(ranges);
            }
            TraceOp::Barrier { barrier } => {
                self.byte(6);
                self.varint(u64::from(*barrier));
            }
        }
    }
}

/// Encodes a trace into the `MWTR` byte format.
pub fn encode(trace: &Trace) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.raw(&MAGIC);
    w.varint(VERSION);

    let m = &trace.meta;
    w.string(&m.app);
    w.string(&m.scale);
    w.byte(u8::from(m.verified));
    w.byte(m.cfg.backend.wire_tag());
    w.varint(m.cfg.procs as u64);
    w.varint(m.cfg.history_cap as u64);
    w.cost(&m.cfg.cost);
    w.net(&m.cfg.net);
    w.faults(&m.cfg.faults);
    w.reliable(&m.cfg.reliable);
    w.home_map(m.cfg.home_map);
    w.barrier_shape(m.cfg.barrier);
    w.crash_plan(&m.cfg.faults);
    w.varint(u64::from(m.cfg.checkpoint_every));
    w.varint(m.finish_cycles);
    w.varint(m.messages);
    assert_eq!(
        m.counters.len(),
        m.cfg.procs,
        "one counter set per processor"
    );
    for c in &m.counters {
        w.counters(c);
    }

    let bp = &trace.blueprint;
    w.varint(bp.allocs.len() as u64);
    for a in &bp.allocs {
        w.string(&a.name);
        w.varint(a.addr);
        w.varint(a.len as u64);
        w.byte(u8::from(a.private));
        w.varint(u64::from(a.line_shift));
    }
    w.varint(bp.locks.len() as u64);
    for l in &bp.locks {
        w.ranges(l);
    }
    w.varint(bp.barriers.len() as u64);
    for b in &bp.barriers {
        w.ranges(&b.ranges);
        match &b.partitions {
            None => w.byte(0),
            Some(ps) => {
                w.byte(1);
                w.varint(ps.len() as u64);
                for p in ps {
                    w.ranges(p);
                }
            }
        }
    }

    assert_eq!(trace.ops.len(), m.cfg.procs, "one op stream per processor");
    for stream in &trace.ops {
        w.varint(stream.len() as u64);
        for op in stream {
            w.op(op);
        }
    }

    let sum = fnv1a64(&w.buf);
    w.raw(&sum.to_le_bytes());
    w.buf
}

// ---------------------------------------------------------------- decoding

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Result<u8, TraceError> {
        let b = *self.buf.get(self.pos).ok_or(TraceError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(TraceError::Malformed("varint longer than 64 bits"))
    }

    fn len(&mut self, of_at_least: usize) -> Result<usize, TraceError> {
        // A length prefix can never exceed the bytes that remain; checking
        // here keeps a corrupted length from attempting a huge allocation.
        let n = self.varint()? as usize;
        if n.saturating_mul(of_at_least.max(1)) > self.buf.len() - self.pos {
            return Err(TraceError::Truncated);
        }
        Ok(n)
    }

    fn raw(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let end = self.pos.checked_add(n).ok_or(TraceError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(TraceError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn string(&mut self) -> Result<String, TraceError> {
        let n = self.len(1)?;
        let bytes = self.raw(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::Malformed("non-UTF-8 string"))
    }

    fn f64(&mut self) -> Result<f64, TraceError> {
        let bytes: [u8; 8] = self.raw(8)?.try_into().expect("8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn ranges(&mut self) -> Result<Vec<AddrRange>, TraceError> {
        let n = self.len(2)?;
        (0..n)
            .map(|_| {
                let start = self.varint()?;
                let len = self.varint()?;
                Ok(start..start + len)
            })
            .collect()
    }

    fn cost(&mut self) -> Result<CostModel, TraceError> {
        let mut c = CostModel::r3000_mach();
        c.mhz = self.varint()? as u32;
        c.page_size = self.varint()? as usize;
        for f in [
            &mut c.dirtybit_set_word,
            &mut c.dirtybit_set_double,
            &mut c.dirtybit_set_private,
            &mut c.dirtybit_set_area_base,
            &mut c.dirtybit_read_clean,
            &mut c.dirtybit_read_dirty,
            &mut c.dirtybit_update,
            &mut c.dirtybit_set_queue,
            &mut c.dirtybit_set_two_level,
            &mut c.page_write_fault,
            &mut c.page_diff_uniform,
            &mut c.page_diff_alternating,
            &mut c.protect_rw,
            &mut c.protect_ro,
            &mut c.copy_per_kb_cold,
            &mut c.copy_per_kb_warm,
        ] {
            *f = self.varint()?;
        }
        for f in [
            &mut c.dirtybit_read_clean_us,
            &mut c.dirtybit_read_dirty_us,
            &mut c.dirtybit_update_us,
            &mut c.page_diff_uniform_us,
        ] {
            *f = self.f64()?;
        }
        Ok(c)
    }

    fn net(&mut self) -> Result<NetModel, TraceError> {
        Ok(NetModel {
            latency_cycles: self.varint()?,
            per_byte_millicycles: self.varint()?,
            send_overhead_cycles: self.varint()?,
            recv_overhead_cycles: self.varint()?,
        })
    }

    fn faults(&mut self) -> Result<FaultPlan, TraceError> {
        let enabled = self.byte()? != 0;
        let mut f = FaultPlan::seeded(self.varint()?);
        f.enabled = enabled;
        f.drop_ppm = self.u32field()?;
        f.dup_ppm = self.u32field()?;
        f.reorder_ppm = self.u32field()?;
        f.delay_ppm = self.u32field()?;
        f.max_delay_cycles = self.varint()?;
        f.reorder_window_cycles = self.varint()?;
        Ok(f)
    }

    fn u32field(&mut self) -> Result<u32, TraceError> {
        u32::try_from(self.varint()?).map_err(|_| TraceError::Malformed("field exceeds u32"))
    }

    fn reliable(&mut self) -> Result<ReliableParams, TraceError> {
        Ok(ReliableParams {
            rto_cycles: self.varint()?,
            backoff_cap: self.u32field()?,
            timer_cost_cycles: self.varint()?,
        })
    }

    fn home_map(&mut self) -> Result<HomeMap, TraceError> {
        match self.byte()? {
            0 => Ok(HomeMap::Modulo),
            1 => Ok(HomeMap::Sharded {
                seed: self.varint()?,
            }),
            _ => Err(TraceError::Malformed("unknown home-map tag")),
        }
    }

    fn barrier_shape(&mut self) -> Result<BarrierShape, TraceError> {
        match self.byte()? {
            0 => Ok(BarrierShape::Flat),
            1 => {
                let arity = self.u32field()?;
                if arity < 2 {
                    return Err(TraceError::Malformed("tree barrier arity below 2"));
                }
                Ok(BarrierShape::Tree { arity })
            }
            _ => Err(TraceError::Malformed("unknown barrier-shape tag")),
        }
    }

    fn crash_plan(&mut self, f: &mut FaultPlan) -> Result<(), TraceError> {
        let n = self.len(3)?;
        if n > MAX_CRASHES {
            return Err(TraceError::Malformed("crash plan exceeds MAX_CRASHES"));
        }
        for i in 0..n {
            f.crashes[i] = CrashEvent {
                proc: self.u32field()?,
                at: self.varint()?,
                down: self.varint()?,
            };
        }
        f.crash_len = n as u8;
        Ok(())
    }

    fn counters(&mut self) -> Result<Counters, TraceError> {
        let mut c = Counters::default();
        for f in [
            &mut c.dirtybits_set,
            &mut c.dirtybits_misclassified,
            &mut c.clean_dirtybits_read,
            &mut c.dirty_dirtybits_read,
            &mut c.dirtybits_updated,
            &mut c.write_faults,
            &mut c.pages_diffed,
            &mut c.pages_write_protected,
            &mut c.twin_bytes_updated,
            &mut c.data_bytes_sent,
            &mut c.data_bytes_received,
            &mut c.redundant_bytes_received,
            &mut c.lock_acquires,
            &mut c.lock_transfers_served,
            &mut c.full_data_sends,
            &mut c.barrier_waits,
            &mut c.crashes,
            &mut c.downtime_cycles,
            &mut c.fenced_messages,
            &mut c.checkpoints_written,
            &mut c.checkpoint_bytes,
            &mut c.wal_bytes_logged,
            &mut c.recovery_replay_bytes,
            &mut c.recovery_cycles,
        ] {
            *f = self.varint()?;
        }
        Ok(c)
    }

    fn op(&mut self) -> Result<TraceOp, TraceError> {
        Ok(match self.byte()? {
            0 => TraceOp::Work {
                cycles: self.varint()?,
            },
            1 => TraceOp::Idle {
                cycles: self.varint()?,
            },
            2 => {
                let addr = self.varint()?;
                let n = self.len(1)?;
                TraceOp::Write {
                    addr,
                    data: self.raw(n)?.to_vec(),
                }
            }
            3 => TraceOp::Acquire {
                lock: self.varint()? as u32,
                exclusive: self.byte()? != 0,
            },
            4 => TraceOp::Release {
                lock: self.varint()? as u32,
                exclusive: self.byte()? != 0,
            },
            5 => TraceOp::Rebind {
                lock: self.varint()? as u32,
                ranges: self.ranges()?,
            },
            6 => TraceOp::Barrier {
                barrier: self.varint()? as u32,
            },
            _ => return Err(TraceError::Malformed("unknown op tag")),
        })
    }
}

/// Decodes an `MWTR` byte buffer back into a trace.
pub fn decode(bytes: &[u8]) -> Result<Trace, TraceError> {
    if bytes.len() < MAGIC.len() + 8 {
        return Err(TraceError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let (payload, footer) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(footer.try_into().expect("8 bytes"));
    if fnv1a64(payload) != sum {
        return Err(TraceError::BadChecksum);
    }

    let mut r = Reader {
        buf: payload,
        pos: MAGIC.len(),
    };
    let version = r.varint()?;
    if version != VERSION {
        return Err(TraceError::BadVersion(version));
    }

    let app = r.string()?;
    let scale = r.string()?;
    let verified = r.byte()? != 0;
    let backend = BackendKind::from_wire_tag(r.byte()?)
        .ok_or(TraceError::Malformed("unknown backend tag"))?;
    let procs = r.len(1)?;
    if procs == 0 {
        return Err(TraceError::Malformed("zero processors"));
    }
    let history_cap = r.varint()? as usize;
    let cost = r.cost()?;
    let net = r.net()?;
    let mut faults = r.faults()?;
    let reliable = r.reliable()?;
    let home_map = r.home_map()?;
    let barrier = r.barrier_shape()?;
    r.crash_plan(&mut faults)?;
    let checkpoint_every = r.u32field()?;
    let finish_cycles = r.varint()?;
    let messages = r.varint()?;
    let counters = (0..procs)
        .map(|_| r.counters())
        .collect::<Result<Vec<_>, _>>()?;
    let cfg = MidwayConfig {
        procs,
        backend,
        cost,
        net,
        history_cap,
        record: false,
        faults,
        reliable,
        home_map,
        barrier,
        checkpoint_every,
        // Checking is a per-replay choice, never a property of the file.
        check: false,
    };

    let nallocs = r.len(4)?;
    let allocs = (0..nallocs)
        .map(|_| {
            Ok(AllocSpec {
                name: r.string()?,
                addr: r.varint()?,
                len: r.varint()? as usize,
                private: r.byte()? != 0,
                line_shift: r.varint()? as u32,
            })
        })
        .collect::<Result<Vec<_>, TraceError>>()?;
    let nlocks = r.len(1)?;
    let locks = (0..nlocks)
        .map(|_| r.ranges())
        .collect::<Result<Vec<_>, _>>()?;
    let nbarriers = r.len(1)?;
    let barriers = (0..nbarriers)
        .map(|_| {
            let ranges = r.ranges()?;
            let partitions = match r.byte()? {
                0 => None,
                _ => {
                    let n = r.len(1)?;
                    Some((0..n).map(|_| r.ranges()).collect::<Result<Vec<_>, _>>()?)
                }
            };
            Ok(BarrierSpec { ranges, partitions })
        })
        .collect::<Result<Vec<_>, TraceError>>()?;

    let ops = (0..procs)
        .map(|_| {
            let n = r.len(1)?;
            (0..n).map(|_| r.op()).collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;

    if r.pos != payload.len() {
        return Err(TraceError::Malformed("trailing bytes after op streams"));
    }

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
        blueprint: SpecBlueprint {
            allocs,
            locks,
            barriers,
        },
        ops,
    })
}
