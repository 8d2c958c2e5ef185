//! A dirtybit chunk whose lines only take stamps keeps a palette of the
//! stamps and a small index per line, not a word per line: sor's edge
//! rows, whose red and black lines take the stamps of two writers per
//! chunk, cost a fraction of the per-line array. A chunk whose lines hold
//! more stamps than the palette has room for goes per-line and reads the
//! same.
//!
//! In its own file, so that it runs in its own process: a counting
//! allocator sees the heap the array holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use midway_mem::{DirtyBits, EPOCH};

/// The system allocator, keeping the bytes a thread allocates and frees
/// while it is armed. Per thread, so the tests of this file, which the
/// harness runs side by side, count only their own.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    if ARMED.get() {
        LIVE.set(LIVE.get() + bytes);
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized thread-locals without destructors, so counting
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `build` returns and the heap it still holds once it returns:
/// every allocation made inside it, less every one freed there.
fn live_heap<T>(build: impl FnOnce() -> T) -> (T, usize) {
    LIVE.set(0);
    ARMED.set(true);
    let made = std::hint::black_box(build());
    ARMED.set(false);
    (made, LIVE.get() as usize)
}

const CHUNK: usize = DirtyBits::CHUNK_LINES;

/// sor's edge rows at 64 processors: 128 rows of 400 lines, two per
/// processor (its top and bottom row).
const ROW: usize = 400;
const ROWS: usize = 128;

/// Each phase, every writer applies its red lines, then its black ones,
/// one line at a time, under a stamp of its own; the two boundary
/// columns of every row are never written and stay at EPOCH.
fn sor_edges(phases: u64, model: &mut [u64]) -> DirtyBits {
    let mut bits = DirtyBits::new(ROW * ROWS);
    for phase in 0..phases {
        for colour in 0..2 {
            for row in 0..ROWS {
                let writer = (row / 2) as u64;
                let ts = 2 + phase * 256 + colour * 128 + writer;
                for col in 1..ROW - 1 {
                    if (row + col) % 2 == colour as usize {
                        let line = row * ROW + col;
                        assert!(bits.take_newer_line(line, ts), "line {line} is older");
                        model[line] = ts;
                    }
                }
            }
        }
    }
    bits
}

#[test]
fn sor_edge_rows_cost_a_quarter_of_their_per_line_arrays() {
    let lines = ROW * ROWS;
    let per_line = lines.div_ceil(CHUNK) * CHUNK * 4; // 200 KiB
    let mut model = vec![EPOCH; lines];
    let (bits, heap) = live_heap(|| sor_edges(5, &mut model));
    for (line, &ts) in model.iter().enumerate() {
        assert_eq!(bits.get(line), ts, "line {line}");
    }
    assert_eq!(bits.per_line_chunks(), lines.div_ceil(CHUNK));
    assert!(
        heap <= per_line / 4,
        "the edge rows' dirtybits hold {heap} bytes of heap; per-line chunks are {per_line}"
    );
}

#[test]
fn a_chunk_past_the_palette_goes_per_line_and_reads_the_same() {
    // Two chunks and a partial third; every line of the middle chunk
    // takes one of 24 stamps, applied in rounds so that the first rounds'
    // stamps are overwritten (and compacted away) before the palette
    // overflows.
    let lines = 2 * CHUNK + 100;
    let mut model = vec![EPOCH; lines];
    let (bits, heap) = live_heap(|| {
        let mut bits = DirtyBits::new(lines);
        let middle = &mut model[CHUNK..2 * CHUNK];
        for round in 0..3u64 {
            for (i, want) in middle.iter_mut().enumerate() {
                let ts = 2 + round * 8 + (i % 8) as u64;
                assert!(bits.take_newer_line(CHUNK + i, ts));
                *want = ts;
            }
        }
        assert_eq!(bits.per_line_chunks(), 1);
        for (i, want) in middle.iter_mut().enumerate() {
            let ts = 100 + (i % 24) as u64;
            bits.stamp(CHUNK + i, ts);
            *want = ts;
        }
        bits
    });
    for (line, &ts) in model.iter().enumerate() {
        assert_eq!(bits.get(line), ts, "line {line}");
    }
    assert_eq!(bits.per_line_chunks(), 1);
    assert!(
        heap >= CHUNK * 4,
        "24 stamps in one chunk hold only {heap} bytes: not a per-line array"
    );
}
