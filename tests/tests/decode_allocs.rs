//! What a decoder holds is bounded by what it was given. Every count a
//! decoder sizes a buffer by goes through `Reader::count`, which refuses a
//! count the remaining input cannot hold, so hostile bytes can never make
//! a decoder reserve more than a constant times their length. This test
//! measures that bound instead of trusting the structure: it feeds the
//! shared seeded mutator's outputs to `Trace::decode` and to
//! `decode_exact::<NetMsg>` and records the peak live heap bytes of each
//! decode.
//!
//! The whole file is one test, because the counter is the process's
//! global allocator and a second test running beside it would be counted
//! too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use midway_apps::fuzz::{execute, FuzzParams, Schedule};
use midway_core::{BackendKind, DsmMsg, GrantPayload, MidwayConfig, NetMsg, OpStream};
use midway_mem::{AddrRange, RegionDesc, REGION_SIZE};
use midway_net::wire::seal;
use midway_net::{decode_exact, encode_to_vec};
use midway_proto::{
    BarrierId, Binding, LockId, MaskedSet, Mode, PackedSet, Update, UpdateItem, UpdateSet,
};
use midway_replay::Trace;

#[path = "../../crates/net/tests/support/mutate.rs"]
mod mutate;

/// The system allocator, tracking live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are relaxed
// counter updates (statistics that publish no other data).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block arriving before the old one leaves,
        // which is the most a moving realloc can hold at once.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes of heap per input byte a decode may hold at its peak. Every
/// vector a decoder sizes by a count reserves at most `input bytes /
/// min_bytes_each` elements, so the bound is the largest element size
/// over its smallest encoding. A trace's op streams are reserved once, at
/// the size a first pass over the ops counted, and never grow: an op head
/// is `OpStream::HEAD_BYTES` for at least 2 bytes on disk, a written byte
/// is one byte, and a rebind's range is read into a vector of its own and
/// then copied into the stream's table, two `AddrRange`s for at least 2
/// bytes on disk.
const C: usize = {
    let head = OpStream::HEAD_BYTES / 2;
    let range = 2 * std::mem::size_of::<AddrRange>() / 2;
    if head > range {
        head
    } else {
        range
    }
};

/// Bytes of heap per input byte a frame decode may hold at its peak,
/// derived as [`C`] is. A frame's update sets are reserved once, at the
/// size a first pass over their items counted, and never grow. Its
/// elements:
/// - an item of a grant's packed set, a `PackedSet::HEAD_BYTES` head,
///   and one of a barrier set, an `UpdateItem`, each for at least a
///   20-byte item header (address, timestamp, length);
/// - an item's bytes, one for one;
/// - a `Binding` range, read into a vector of its own and normalized into
///   a second one, two `AddrRange`s for 16 bytes;
/// - a VM update: its `Arc` in the updates vector and the `Arc`'s block
///   (two counts and the `Update`), for at least 13 bytes (incarnation,
///   full flag, item count).
///
/// A frame's one-off blocks (a full snapshot's `Arc`, a release's shared
/// set and its one visible range) come with at least 18 bytes of fixed
/// fields, which hold them within the same factor.
const C_FRAME: usize = {
    let update = std::mem::size_of::<Arc<Update>>()
        + 2 * std::mem::size_of::<usize>()
        + std::mem::size_of::<Update>();
    let each = [
        PackedSet::HEAD_BYTES.div_ceil(20),
        std::mem::size_of::<UpdateItem>().div_ceil(20),
        1,
        (2 * std::mem::size_of::<AddrRange>()).div_ceil(16),
        update.div_ceil(13),
    ];
    let (mut c, mut i) = (0, 0);
    while i < each.len() {
        if each[i] > c {
            c = each[i];
        }
        i += 1;
    }
    c
};

// A frame decodes into less per input byte than a trace does.
const _: () = assert!(C_FRAME < C);

/// Bytes of heap a trace decode may hold whatever its input. An
/// allocation's length is a claim, not a count: the decoder rebuilds the
/// blueprint's layout, which keeps one `Option<RegionDesc>` per 4 MiB
/// region, and the format caps the layout at 1 TiB (`MAX_LAYOUT_BYTES`),
/// so a five-byte length can cost up to 2^18 descriptors, held twice
/// while their vector doubles. Everything else of fixed size (header
/// strings, configuration, the blueprint's tables) fits in a page.
const K_TRACE: usize =
    2 * ((1 << 40) / REGION_SIZE) * std::mem::size_of::<Option<RegionDesc>>() + 4096;

/// Bytes of heap a frame decode may hold whatever its input: none. A
/// frame holds nothing that its own bytes do not count.
const K_FRAME: usize = 0;

/// Peak live heap bytes `decode` held above what was live before it,
/// asserted within `c × input + k`.
fn held(
    what: &str,
    (c, k): (usize, usize),
    bytes: &[u8],
    decode: impl FnOnce(&[u8]) -> bool,
) -> bool {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let ok = decode(bytes);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(
        peak <= c * bytes.len() + k,
        "{what}: a {}-byte input held {peak} bytes at its peak (bound {c} × input + {k})",
        bytes.len()
    );
    ok
}

fn set(n: u64) -> UpdateSet {
    UpdateSet {
        items: (0..n)
            .map(|i| UpdateItem {
                addr: 0x40_0000 + 64 * i,
                data: vec![i as u8; 8],
                ts: 3 + i,
            })
            .collect(),
    }
}

fn frames() -> Vec<NetMsg> {
    let binding = Binding::from_parts(vec![0x40_0000..0x40_0100, 0x41_0000..0x41_0040], 3);
    let update = |incarnation, full| {
        Arc::new(Update {
            incarnation,
            set: PackedSet::from(&set(3)),
            full,
        })
    };
    let grant = |payload| {
        NetMsg::Raw(DsmMsg::Grant {
            lock: LockId(1),
            mode: Mode::Exclusive,
            payload,
        })
    };
    vec![
        NetMsg::Raw(DsmMsg::AcquireReq {
            lock: LockId(3),
            mode: Mode::Shared,
            seen: (11, 13),
        }),
        NetMsg::Raw(DsmMsg::BarrierArrive {
            barrier: BarrierId(2),
            set: set(6),
            time: 99,
        }),
        NetMsg::Data {
            seq: 17,
            ack: 16,
            epoch: 1,
            msg: DsmMsg::BarrierRelease {
                barrier: BarrierId(0),
                set: MaskedSet::whole(Arc::new(set(5))),
                time: 100,
            },
        },
        grant(GrantPayload::Rt {
            set: PackedSet::from(&set(4)),
            consist_time: 55,
            binding: binding.clone(),
        }),
        grant(GrantPayload::Vm {
            updates: vec![update(1, false), update(2, false)],
            full: Some(update(2, true)),
            incarnation: 2,
            binding: binding.clone(),
        }),
        grant(GrantPayload::Flat {
            set: PackedSet::from(&set(2)),
            binding,
        }),
    ]
}

/// A small real trace: a fuzz schedule run once with recording on.
fn trace_bytes() -> Vec<u8> {
    let s = Schedule::generate(4, FuzzParams::for_seed(4));
    let cfg = MidwayConfig::new(s.params.procs, BackendKind::Rt).record(true);
    let run = execute(&s, cfg, None).expect("the schedule runs");
    Trace::from_run("fuzz", "seed-4", true, &run).encode()
}

#[test]
fn decodes_hold_at_most_a_constant_times_their_input() {
    // Each mutant is resealed, so it reaches the trace decoder proper
    // instead of stopping at the checksum.
    let trace = trace_bytes();
    let accepted = mutate::sweep(0xa110c, &trace, 3_000, |b| {
        let mut sealed = b[..b.len().saturating_sub(8)].to_vec();
        seal(&mut sealed);
        held("Trace::decode", (C, K_TRACE), &sealed, |b| {
            Trace::decode(b).is_ok()
        })
    });
    assert!(
        accepted > 0 && accepted < 3_000,
        "{accepted} of 3000 accepted"
    );
    for (i, msg) in frames().iter().enumerate() {
        mutate::sweep(0xf4a3e + i as u64, &encode_to_vec(msg), 1_000, |b| {
            held("decode_exact::<NetMsg>", (C_FRAME, K_FRAME), b, |b| {
                decode_exact::<NetMsg>(b).is_ok()
            })
        });
    }
}
