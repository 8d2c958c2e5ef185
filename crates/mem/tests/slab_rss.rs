//! A store region on mapped slabs costs memory only where it is written,
//! whatever the allocator had done with the heap before. A zeroed heap
//! slab is `calloc`ed, and `calloc` writes every page of memory it
//! recycles: after a run freed its large blocks into the heap, the next
//! run's slabs were resident end to end before a byte was stored.
//!
//! One test in its own file, so that it runs in its own process, on a
//! heap only it has used, and reads that process's page map.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};

use midway_mem::{LayoutBuilder, LocalStore, MemClass, PAGE_SIZE};
use midway_sim::Pages;

/// How many of the pages under `bytes` are resident: bit 63 of each
/// page's `/proc/self/pagemap` entry, which an unprivileged process may
/// read for itself.
fn resident_pages(bytes: &[u8]) -> usize {
    let mut map = File::open("/proc/self/pagemap").expect("procfs");
    let first = bytes.as_ptr() as u64 / PAGE_SIZE as u64;
    let pages = bytes.len().div_ceil(PAGE_SIZE);
    map.seek(SeekFrom::Start(first * 8)).expect("seek");
    let mut entries = vec![0u8; pages * 8];
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
fn a_region_on_recycled_heap_keeps_its_untouched_pages_out() {
    const REGION: usize = 4 << 20;
    // Leave the heap holding a large free block, as a run that has just
    // dropped its stores does. Freeing a mapped block raises the
    // allocator's mapping threshold past it, so the next block of this
    // size comes from the heap; a later allocation pins it there once it
    // is freed.
    drop(std::hint::black_box(vec![1u8; 4 * REGION]));
    let recycled = std::hint::black_box(vec![1u8; 2 * REGION]);
    let pin = std::hint::black_box(vec![1u8; 64]);
    drop(recycled);

    let mut b = LayoutBuilder::new();
    let a = b.alloc("matrix", REGION, MemClass::Shared, 3);
    let mut store = LocalStore::with_slabs(b.build(), Pages::zeroed);
    store.write_bytes(a.addr + (REGION / 2) as u64, &[7; PAGE_SIZE]);
    let slab = store.lend_region(a.addr.region_index());
    assert_eq!(slab.len(), REGION);
    let resident = resident_pages(&slab);
    assert!(resident > 0, "the page map shows no written page");
    assert!(
        resident <= first_touch_pages(),
        "writing one page of a {REGION}-byte region made {resident} pages resident"
    );
    assert_eq!(slab[REGION / 2], 7);
    assert_eq!(slab[0], 0);
    drop(pin);
}
