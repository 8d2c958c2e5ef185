//! One number per facet of a finished run, for the bit-for-bit pins.
//!
//! Not a test target of its own — core's barrier pin (`node::barriers`,
//! through `crate::fingerprint`) and the lock pin (`tests/tests/
//! fingerprints.rs`) include it by path, so both hash a run the same way
//! without it becoming part of any crate's interface. The includer puts
//! `codec`, `Counters` and `MidwayRun` (`midway_core`'s) in scope.

use super::{codec, Counters, MidwayRun};

/// FNV-1a over the words' little-endian bytes.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    codec::fnv1a64(&bytes)
}

/// (finish cycles, messages, FNV of the application results — each
/// reduced to a word by `result` — of the cluster-summed counters, of the
/// per-processor store digests).
pub fn fingerprint<R>(run: &MidwayRun<R>, result: impl Fn(&R) -> u64) -> [u64; 5] {
    let mut t = Counters::default();
    for c in &run.counters {
        t.add(c);
    }
    [
        run.finish_time.cycles(),
        run.messages,
        fnv(run.results.iter().map(result)),
        fnv([
            t.dirtybits_set,
            t.dirtybits_misclassified,
            t.clean_dirtybits_read,
            t.dirty_dirtybits_read,
            t.dirtybits_updated,
            t.write_faults,
            t.pages_diffed,
            t.pages_write_protected,
            t.twin_bytes_updated,
            t.data_bytes_sent,
            t.data_bytes_received,
            t.redundant_bytes_received,
            t.full_data_sends,
            t.barrier_waits,
            t.checkpoints_written,
            t.checkpoint_bytes,
            t.wal_bytes_logged,
        ]),
        fnv(run.store_digests.iter().copied()),
    ]
}
