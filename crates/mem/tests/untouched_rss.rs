//! A dirtybit array nobody has touched costs no memory. The zero-based
//! encoding makes a fresh array zeroed memory, which the allocator takes
//! straight from the kernel and the kernel backs only on first write.
//!
//! One test in its own file, so that it runs in its own process: a
//! counting allocator sees what the array allocates, and the process's
//! page map shows which pages of that allocation are resident. The
//! residency of the array's own range, not of the whole process, so the
//! bound does not move with what else the process has touched.

#![cfg(target_os = "linux")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};

use midway_mem::{DirtyBits, DIRTY, EPOCH, PAGE_SIZE};

/// The system allocator, recording what the test's thread allocates
/// while it is armed (not the harness's other threads).
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations made while armed, their bytes, those made zeroed, and
    /// the last one's address and size.
    static COUNTS: Cell<[usize; 5]> = const { Cell::new([0; 5]) };
}

impl Counting {
    fn record(ptr: *mut u8, layout: Layout, zeroed: bool) {
        if ARMED.get() {
            let [calls, bytes, zeros, ..] = COUNTS.get();
            let zeros = zeros + usize::from(zeroed);
            COUNTS.set([
                calls + 1,
                bytes + layout.size(),
                zeros,
                ptr as usize,
                layout.size(),
            ]);
        }
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized thread-locals without destructors, so recording
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        Counting::record(ptr, layout, false);
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        Counting::record(ptr, layout, true);
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocates: (allocations, bytes, zeroed allocations, the last
/// allocation's address and size).
fn allocations<T>(f: impl FnOnce() -> T) -> (T, [usize; 5]) {
    COUNTS.set([0; 5]);
    ARMED.set(true);
    let made = std::hint::black_box(f());
    ARMED.set(false);
    (made, COUNTS.get())
}

/// How many pages under `len` bytes at `addr` are resident: bit 63 of
/// each page's `/proc/self/pagemap` entry, which an unprivileged process
/// may read for itself.
fn resident_pages(addr: usize, len: usize) -> usize {
    let mut map = File::open("/proc/self/pagemap").expect("procfs");
    let (first, last) = (addr / PAGE_SIZE, (addr + len).div_ceil(PAGE_SIZE));
    map.seek(SeekFrom::Start(first as u64 * 8)).expect("seek");
    let mut entries = vec![0u8; (last - first) * 8];
    map.read_exact(&mut entries)
        .expect("a pagemap entry per page");
    entries
        .chunks_exact(8)
        .filter(|e| u64::from_le_bytes((*e).try_into().expect("8 bytes")) >> 63 == 1)
        .count()
}

/// The pages one first write can make resident: a base page, or a whole
/// huge page where transparent huge pages back every anonymous mapping.
fn first_touch_pages() -> usize {
    let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
    if thp.is_ok_and(|s| s.contains("[always]")) {
        2 << 20 >> 12
    } else {
        1
    }
}

#[test]
fn an_untouched_dirtybit_array_is_not_resident() {
    const LINES: usize = 16 << 20; // 64 MB of dirtybits
    let (mut bits, [calls, bytes, zeroed, addr, len]) = allocations(|| DirtyBits::new(LINES));
    assert_eq!(
        (calls, zeroed),
        (1, 1),
        "a fresh array is one zeroed allocation"
    );
    assert_eq!(len, bytes);
    // The allocator writes its header into the first page; the kernel
    // backs none of the rest until the array writes there.
    let fresh = resident_pages(addr, len);
    assert!(
        fresh <= first_touch_pages(),
        "a fresh {LINES}-line array has {fresh} of its {} pages resident",
        len.div_ceil(PAGE_SIZE)
    );
    assert_eq!(bits.get(LINES / 2), EPOCH);

    let ((), [_, marked, ..]) = allocations(|| bits.mark(LINES / 2));
    assert!(
        marked <= PAGE_SIZE,
        "marking one line allocated {marked} bytes"
    );
    let touched = resident_pages(addr, len);
    assert!(
        touched <= fresh + first_touch_pages(),
        "marking one line made {touched} of the array's pages resident, {fresh} before"
    );
    assert_eq!(std::hint::black_box(&bits).get(LINES / 2), DIRTY);
}
