//! VM write collection allocates per shipped item, not per diff run: a
//! page that stays dirty because words outside the binding were modified
//! is re-diffed whole at every transfer, and what that costs the
//! allocator must not grow with how many such words there are.
//!
//! The whole file is one test, because the counter is the process's
//! global allocator and a second test running beside it would be counted
//! too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use midway_core::{BackendKind, Midway, MidwayConfig, Proc, SystemBuilder};

/// The system allocator, counting calls.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter bump (a statistic that publishes no other data).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Times the lock changes hands.
const TRANSFERS: u64 = 40;

/// Two processors pass a lock bound to the first half of one page back
/// and forth, each holder writing `inside` words of it — every other
/// word, so each is a diff run and an item of its own. Processor 0 also
/// holds, for the whole run, a second lock on the other half of the page
/// and has written `outside` scattered words there: they are never
/// requested, so the page stays dirty and every transfer from processor 0
/// diffs it into `inside + outside` runs. Returns the allocator calls the
/// run made.
fn allocations(inside: usize, outside: usize) -> u64 {
    let mut b = SystemBuilder::new();
    let data = b.shared_array::<u32>("data", 1024, 1);
    let passed = b.lock(vec![data.range(0..512)]);
    let kept = b.lock(vec![data.range(512..1024)]);
    let spec = b.build();
    let before = ALLOCS.load(Ordering::Relaxed);
    let run = Midway::run(
        MidwayConfig::new(2, BackendKind::Vm),
        &spec,
        |p: &mut Proc| {
            let me = p.id();
            if me == 0 {
                p.acquire(kept);
                for i in 0..outside {
                    p.write(&data, 512 + 2 * i, 1 + i as u32);
                }
            }
            for round in 0..TRANSFERS / 2 {
                p.acquire(passed);
                for i in 0..inside {
                    p.write(&data, 2 * i, (2 * round as usize + me + 1) as u32);
                }
                p.release(passed);
            }
        },
    )
    .expect("run completes");
    let after = ALLOCS.load(Ordering::Relaxed);
    let diffed: u64 = run.counters.iter().map(|c| c.pages_diffed).sum();
    let received: u64 = run.counters.iter().map(|c| c.data_bytes_received).sum();
    assert!(diffed >= TRANSFERS - 1, "every transfer diffed the page");
    assert!(
        received >= (TRANSFERS - 2) * 4 * inside as u64,
        "every transfer shipped the words written under the lock"
    );
    after - before
}

#[test]
fn collection_allocates_per_shipped_item_not_per_diff_run() {
    let inside = 24;
    // Words outside the binding: 200 more runs in each of processor 0's
    // diffs, none of them shipped. A buffer per run was 200 allocator
    // calls per transfer; the flat diff's two vectors grow a few times,
    // once (and the page, never clean, is never twinned again).
    let calm = allocations(inside, 0);
    let noisy = allocations(inside, 200);
    let per_transfer = noisy.saturating_sub(calm) as f64 / (TRANSFERS / 2) as f64;
    assert!(
        per_transfer < 1.0,
        "{per_transfer:.1} more allocations per transfer with 200 modified words outside the \
         binding ({calm} -> {noisy}): collection is allocating per diff run again"
    );
    // And O(M) in the words that do ship: one buffer per item, where it is
    // collected (the grant then travels by reference), plus vector growth.
    let more = 96;
    let extra = allocations(more, 0).saturating_sub(calm);
    let per_item = extra as f64 / (TRANSFERS * (more - inside) as u64) as f64;
    assert!(
        per_item < 2.0,
        "{per_item:.1} allocations per shipped item ({extra} for {} more items)",
        TRANSFERS * (more - inside) as u64
    );
}
