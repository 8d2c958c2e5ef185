//! A barrier release shares one merged set: what an episode allocates
//! grows with the items it carries, not with items × processors.
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

const PROCS: usize = 64;
const EPISODES: u64 = 3;

/// 64 processors behind an arity-4 tree, each writing `lines` doubleword
/// lines of its partition per episode — every other line, so each is an
/// item of its own. Returns the allocator calls the run made.
fn allocations(lines: usize) -> u64 {
    let chunk = 2 * lines.max(1);
    let mut b = SystemBuilder::new();
    let data = b.shared_array::<u64>("data", PROCS * chunk, 1);
    let parts = (0..PROCS)
        .map(|p| vec![data.range(p * chunk..(p + 1) * chunk)])
        .collect();
    let bar = b.barrier_partitioned(vec![data.full_range()], parts);
    let spec = b.build();
    let cfg = MidwayConfig::new(PROCS, BackendKind::Rt).tree_barriers(4);
    let before = ALLOCS.load(Ordering::Relaxed);
    let run = Midway::run(cfg, &spec, |p: &mut Proc| {
        let me = p.id();
        for it in 1..=EPISODES {
            for i in 0..lines {
                p.write(&data, me * chunk + 2 * i, it + i as u64);
            }
            p.barrier(bar);
        }
        p.read(&data, ((me + 1) % PROCS) * chunk)
    })
    .expect("run completes");
    let after = ALLOCS.load(Ordering::Relaxed);
    let received: u64 = run.counters.iter().map(|c| c.data_bytes_received).sum();
    assert_eq!(
        received,
        EPISODES * (PROCS as u64 - 1) * (PROCS * lines * 8) as u64,
        "every processor received everyone else's lines"
    );
    after - before
}

#[test]
fn release_allocations_grow_with_items_not_items_times_processors() {
    // Two sizes, so everything that does not scale with the payload
    // (stacks, nodes, sites, messages) cancels out.
    let (small, large) = (100usize, 300usize);
    let extra_items = EPISODES * (PROCS * (large - small)) as u64;
    let extra_allocs = allocations(large).saturating_sub(allocations(small));
    let per_item = extra_allocs as f64 / extra_items as f64;
    // One buffer per collected item, plus vector growth along the merge
    // and the skip lists: a handful. A deep copy per receiver was 63 more.
    assert!(
        per_item < 4.0,
        "{per_item:.1} allocations per barrier item ({extra_allocs} for {extra_items} items): \
         the release path is copying items per processor again"
    );
}
