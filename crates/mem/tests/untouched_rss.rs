//! A dirtybit array nobody has touched costs no memory. The zero-based
//! encoding makes a fresh array zeroed memory, which the allocator takes
//! straight from the kernel and the kernel backs only on first write.
//!
//! One test in its own file, so that it runs in its own process and reads
//! that process's resident set.

#![cfg(target_os = "linux")]

use midway_mem::{DirtyBits, DIRTY, EPOCH};

/// `VmRSS` of this process, in kB.
fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kb| kb.parse().ok())
        .expect("VmRSS in kB")
}

/// The memory one first write can make resident: a base page, or a whole
/// huge page where transparent huge pages back every anonymous mapping.
fn first_touch_kb() -> u64 {
    let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
    if thp.is_ok_and(|s| s.contains("[always]")) {
        2048
    } else {
        4
    }
}

#[test]
fn an_untouched_dirtybit_array_is_not_resident() {
    const LINES: usize = 16 << 20; // 64 MB of dirtybits
    let before = rss_kb();
    let mut bits = DirtyBits::new(LINES);
    let fresh = rss_kb();
    assert!(
        fresh.saturating_sub(before) < 1024,
        "a fresh {LINES}-line array made {} kB resident",
        fresh - before
    );
    assert_eq!(bits.get(LINES / 2), EPOCH);
    bits.mark(LINES / 2);
    let marked = rss_kb();
    let grew = marked.saturating_sub(fresh);
    assert!(
        grew <= 4 * first_touch_kb(),
        "marking one line made {grew} kB resident"
    );
    assert_eq!(std::hint::black_box(&bits).get(LINES / 2), DIRTY);
}
