//! Parallel quicksort (TreadMarks workload, paper §4).
//!
//! "It sorts an array of 250,000 integers using a parallel quicksort
//! algorithm until the partition size is less than a threshold of 1000
//! elements and then sorts locally using a bubblesort... This program
//! exhibits medium to coarse-grain sharing, but does little computation
//! between writes to shared memory... The array is partitioned
//! dynamically, so the lock binding the data to the task queue element is
//! rebound to a new range of addresses for every task created."
//!
//! Structure: a shared task queue under one lock, plus one lock per task
//! slot. Pushing a task rebinds the slot's lock to the task's array range;
//! popping it acquires the slot lock, which ships exactly that range.
//! Large tasks are partitioned in shared memory (compare-and-swap of
//! elements, as the paper describes); small tasks are copied out, sorted
//! locally and written back.

use std::sync::Arc;

use midway_core::{
    LockId, Midway, MidwayConfig, MidwayRun, NetMsg, Proc, RealConfig, RealError, SharedArray,
    SystemBuilder, SystemSpec, Transport,
};
use midway_sim::SplitMix64;

/// Cycles charged per comparison in the local bubble sort.
pub const CYCLES_PER_COMPARE: u64 = 6;
/// Cycles charged per partition-step comparison.
pub const CYCLES_PER_PARTITION_STEP: u64 = 8;

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Elements to sort (paper: 250,000).
    pub n: usize,
    /// Local-sort threshold (paper: 1000).
    pub threshold: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Params {
        Params {
            n: 250_000,
            threshold: 1_000,
            seed: 1234,
        }
    }

    /// A small configuration for tests.
    pub fn small() -> Params {
        Params {
            n: 1_500,
            threshold: 64,
            seed: 1234,
        }
    }

    fn max_tasks(&self) -> usize {
        // Each split consumes one task and produces two; leaves are at
        // least threshold/2 long in the worst split we generate.
        4 * self.n / self.threshold + 64
    }
}

/// Per-processor outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Leaves this processor sorted.
    pub leaves_sorted: u64,
    /// Tasks this processor partitioned.
    pub tasks_split: u64,
    /// Global verification verdict (computed by processor 0).
    pub sorted_ok: Option<bool>,
}

struct Handles {
    data: SharedArray<i32>,
    /// Task descriptors: `[lo, hi]` per slot.
    qmeta: SharedArray<i32>,
    /// The task stack: slot indices, newest on top (depth-first order, so
    /// a pusher usually pops its own child — no data transfer at all).
    qstack: SharedArray<i32>,
    /// `[stack size, next slot, done]` counters.
    qctl: SharedArray<i32>,
    /// Per-leaf records for verification: `[lo, hi, min, max]`.
    qrec: SharedArray<i32>,
    /// Number of leaf records.
    qrec_count: SharedArray<i32>,
    scratch: SharedArray<i32>,
    qlock: LockId,
    /// Verification records live under their own lock so the hot queue
    /// lock's binding stays small.
    reclock: LockId,
    slot_locks: Vec<LockId>,
}

fn build(p: Params, _procs: usize) -> (Arc<SystemSpec>, Handles) {
    let t = p.max_tasks();
    let mut b = SystemBuilder::new();
    // Word-size elements with word-size cache lines: the paper's common
    // case for integer applications.
    let data = b.shared_array::<i32>("data", p.n, 1);
    let qmeta = b.shared_array::<i32>("qmeta", 2 * t, 1);
    let qstack = b.shared_array::<i32>("qstack", t, 1);
    let qctl = b.shared_array::<i32>("qctl", 3, 1);
    let qrec = b.shared_array::<i32>("qrec", 4 * t, 1);
    let qrec_count = b.shared_array::<i32>("qrec_count", 1, 1);
    // Per-processor progress counters: logically private, but left with
    // the default (shared) classification — each write pays the paper's
    // six-cycle misclassification penalty and nothing else.
    let scratch = b.private_array::<i32>("progress", 64);
    let qlock = b.lock(vec![
        qmeta.full_range(),
        qstack.full_range(),
        qctl.full_range(),
    ]);
    let reclock = b.lock(vec![qrec.full_range(), qrec_count.full_range()]);
    let slot_locks = (0..t).map(|_| b.lock(vec![])).collect();
    (
        b.build(),
        Handles {
            data,
            qmeta,
            qstack,
            qctl,
            qrec,
            qrec_count,
            scratch,
            qlock,
            reclock,
            slot_locks,
        },
    )
}

/// Runs parallel quicksort under `cfg` and verifies the result.
///
/// # Panics
///
/// Panics if the simulation fails.
pub fn run(cfg: MidwayConfig, p: Params) -> MidwayRun<Outcome> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run(cfg, &spec, |proc: &mut Proc| worker(proc, p, &h)).expect("quicksort failed")
}

/// Runs parallel quicksort over real sockets (`Midway::run_real`).
pub fn run_real(
    cfg: MidwayConfig,
    real: &RealConfig,
    p: Params,
) -> Result<MidwayRun<Outcome>, RealError> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run_real(cfg, real, &spec, |proc| worker(proc, p, &h))
}

fn worker<T: Transport<Msg = NetMsg>>(proc: &mut Proc<'_, T>, p: Params, h: &Handles) -> Outcome {
    let me = proc.id();
    let n = p.n as i32;

    // Processor 0 initializes the array under the root task's lock and
    // publishes the root task.
    if me == 0 {
        let root = 0usize;
        proc.acquire(h.slot_locks[root]);
        proc.rebind(h.slot_locks[root], vec![h.data.range(0..p.n)]);
        let mut rng = SplitMix64::new(p.seed);
        let mut v = proc.view();
        for i in 0..p.n {
            v.set(&h.data, i, (rng.next_below(1 << 30)) as i32 - (1 << 29));
        }
        drop(v);
        proc.release(h.slot_locks[root]);
        proc.acquire(h.qlock);
        proc.write(&h.qmeta, 0, 0);
        proc.write(&h.qmeta, 1, n);
        proc.write(&h.qstack, 0, 0);
        proc.write(&h.qctl, 0, 1); // stack size
        proc.write(&h.qctl, 1, 1); // next free slot
        proc.write(&h.qctl, 2, 0); // done
        proc.release(h.qlock);
    }

    let mut leaves_sorted = 0u64;
    let mut tasks_split = 0u64;
    let mut polls = 0i32;

    loop {
        // Misclassified private write: a progress counter on the shared
        // path (see Handles::scratch).
        polls += 1;
        proc.write(&h.scratch, (me * 8) % 64, polls);
        // Pop the newest task (or observe completion).
        proc.acquire(h.qlock);
        let size = proc.read(&h.qctl, 0);
        let done = proc.read(&h.qctl, 2);
        let task = if size > 0 {
            let slot = proc.read(&h.qstack, size as usize - 1) as usize;
            proc.write(&h.qctl, 0, size - 1);
            let lo = proc.read(&h.qmeta, slot * 2);
            let hi = proc.read(&h.qmeta, slot * 2 + 1);
            Some((slot, lo as usize, hi as usize))
        } else {
            None
        };
        proc.release(h.qlock);

        let Some((slot, lo, hi)) = task else {
            if done == n {
                break;
            }
            proc.idle(20_000); // backoff before re-polling
            continue;
        };

        // Acquire the task's data.
        proc.acquire(h.slot_locks[slot]);
        if hi - lo <= p.threshold {
            leaves_sorted += 1;
            local_sort_leaf(proc, p, h, slot, lo, hi);
        } else {
            tasks_split += 1;
            let mid = partition(proc, h, lo, hi);
            // Guard against degenerate pivots: keep both sides non-empty.
            let mid = mid.clamp(lo + 1, hi - 1);
            push_task(proc, h, slot, lo, mid);
            push_task(proc, h, slot, mid, hi);
        }
        proc.release(h.slot_locks[slot]);
    }

    // Verification by processor 0 once everything is done.
    let sorted_ok = (me == 0).then(|| verify(proc, p, h));
    Outcome {
        leaves_sorted,
        tasks_split,
        sorted_ok,
    }
}

/// Hoare-style partition through shared memory ("the inner loop does a
/// compare and swap of adjacent elements" — we follow the classic scheme;
/// every swap is two instrumented writes).
fn partition<T: Transport<Msg = NetMsg>>(
    proc: &mut Proc<'_, T>,
    h: &Handles,
    lo: usize,
    hi: usize,
) -> usize {
    let mut v = proc.view();
    let a = v.get(&h.data, lo);
    let b = v.get(&h.data, (lo + hi) / 2);
    let c = v.get(&h.data, hi - 1);
    let pivot = a.max(b).min(a.min(b).max(c)); // median of three
    let mut i = lo;
    let mut j = hi;
    let mut steps = 0u64;
    loop {
        loop {
            steps += 1;
            if v.get(&h.data, i) >= pivot {
                break;
            }
            i += 1;
        }
        loop {
            steps += 1;
            j -= 1;
            if v.get(&h.data, j) <= pivot {
                break;
            }
        }
        if i >= j {
            drop(v);
            proc.work(steps * CYCLES_PER_PARTITION_STEP);
            return j + 1;
        }
        let vi = v.get(&h.data, i);
        let vj = v.get(&h.data, j);
        v.set(&h.data, i, vj);
        v.set(&h.data, j, vi);
        i += 1;
    }
}

/// Copies the leaf out, bubble-sorts it locally (charging the compare
/// cost), writes it back, and records it for verification.
fn local_sort_leaf<T: Transport<Msg = NetMsg>>(
    proc: &mut Proc<'_, T>,
    _p: Params,
    h: &Handles,
    _slot: usize,
    lo: usize,
    hi: usize,
) {
    let mut buf = proc.read_vec(&h.data, lo..hi);
    let compares = bubble_sort(&mut buf);
    proc.work(compares * CYCLES_PER_COMPARE);
    proc.write_slice(&h.data, lo, &buf);

    let min = *buf.first().expect("leaf is non-empty");
    let max = *buf.last().expect("leaf is non-empty");
    proc.acquire(h.reclock);
    let rec = proc.read(&h.qrec_count, 0) as usize;
    proc.write(&h.qrec, rec * 4, lo as i32);
    proc.write(&h.qrec, rec * 4 + 1, hi as i32);
    proc.write(&h.qrec, rec * 4 + 2, min);
    proc.write(&h.qrec, rec * 4 + 3, max);
    proc.write(&h.qrec_count, 0, rec as i32 + 1);
    proc.release(h.reclock);
    proc.acquire(h.qlock);
    let done = proc.read(&h.qctl, 2);
    proc.write(&h.qctl, 2, done + (hi - lo) as i32);
    proc.release(h.qlock);
}

/// Bubble-sorts `buf` with early exit, the paper's local sort, and returns
/// the comparisons made: each pass runs up to the last swap of the pass
/// before.
///
/// A pass carries the running maximum in a register and writes the smaller
/// of it and each next element behind it, so the compare's outcome feeds
/// selects, not a branch. Keys are random, so a branch on it would be
/// mispredicted about every other compare.
fn bubble_sort(buf: &mut [i32]) -> u64 {
    let mut compares = 0u64;
    let mut end = buf.len();
    while end > 1 {
        let pass = &mut buf[..end];
        let mut max = pass[0];
        let mut last_swap = 0;
        for k in 1..pass.len() {
            let x = pass[k];
            let swap = max > x;
            pass[k - 1] = max.min(x);
            max = max.max(x);
            last_swap = if swap { k } else { last_swap };
        }
        pass[end - 1] = max;
        compares += (end - 1) as u64;
        end = last_swap;
    }
    compares
}

/// Publishes a child task: rebind its slot lock to the range, then make
/// the descriptor visible under the queue lock.
fn push_task<T: Transport<Msg = NetMsg>>(
    proc: &mut Proc<'_, T>,
    h: &Handles,
    _parent: usize,
    lo: usize,
    hi: usize,
) {
    // Atomically reserve a slot id (slots are never recycled, so every
    // task has its own lock, rebound exactly once).
    proc.acquire(h.qlock);
    let slot = proc.read(&h.qctl, 1) as usize;
    assert!(slot < h.slot_locks.len(), "task queue overflow");
    proc.write(&h.qctl, 1, slot as i32 + 1);
    proc.release(h.qlock);
    // Rebind the fresh slot lock to the child's range *before* publishing —
    // the descriptor is invisible, so this acquire is uncontended and
    // cannot deadlock against the held parent lock. The pusher's cache
    // holds the partitioned data, so it becomes the owner of record the
    // popper will fetch from.
    proc.acquire(h.slot_locks[slot]);
    proc.rebind(h.slot_locks[slot], vec![h.data.range(lo..hi)]);
    proc.release(h.slot_locks[slot]);
    // Publish: descriptor first, then the stack entry.
    proc.acquire(h.qlock);
    proc.write(&h.qmeta, slot * 2, lo as i32);
    proc.write(&h.qmeta, slot * 2 + 1, hi as i32);
    let size = proc.read(&h.qctl, 0);
    proc.write(&h.qstack, size as usize, slot as i32);
    proc.write(&h.qctl, 0, size + 1);
    proc.release(h.qlock);
}

/// Aggregate verification: processor 0's global check found the sorted
/// leaves tiling the array in order.
pub fn verified(outcomes: &[Outcome]) -> bool {
    outcomes[0].sorted_ok == Some(true)
}

/// Processor 0's global check: leaf records must tile `0..n`, with
/// leaf-local sortedness already guaranteed and boundaries monotone.
fn verify<T: Transport<Msg = NetMsg>>(proc: &mut Proc<'_, T>, p: Params, h: &Handles) -> bool {
    proc.acquire(h.reclock);
    let count = proc.read(&h.qrec_count, 0) as usize;
    let mut recs: Vec<(i32, i32, i32, i32)> = (0..count)
        .map(|r| {
            (
                proc.read(&h.qrec, r * 4),
                proc.read(&h.qrec, r * 4 + 1),
                proc.read(&h.qrec, r * 4 + 2),
                proc.read(&h.qrec, r * 4 + 3),
            )
        })
        .collect();
    proc.release(h.reclock);
    recs.sort_unstable();
    let mut cursor = 0i32;
    let mut prev_max = i32::MIN;
    for (lo, hi, min, max) in recs {
        if lo != cursor || min < prev_max || max < min {
            return false;
        }
        cursor = hi;
        prev_max = max;
    }
    cursor == p.n as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_core::BackendKind;

    fn check(run: &MidwayRun<Outcome>, p: Params) {
        assert!(verified(&run.results), "not sorted");
        let leaves: u64 = run.results.iter().map(|o| o.leaves_sorted).sum();
        assert!(leaves >= (p.n / p.threshold) as u64 / 2, "too few leaves");
    }

    #[test]
    fn sorts_on_every_backend() {
        for backend in [
            BackendKind::Rt,
            BackendKind::Vm,
            BackendKind::Blast,
            BackendKind::TwinAll,
        ] {
            let p = Params::small();
            let run = run(MidwayConfig::new(4, backend), p);
            check(&run, p);
        }
    }

    #[test]
    fn sorts_standalone() {
        let p = Params::small();
        let run = run(MidwayConfig::standalone(), p);
        check(&run, p);
        assert_eq!(run.messages, 0);
    }

    #[test]
    fn work_is_actually_distributed() {
        let p = Params::small();
        let run = run(MidwayConfig::new(4, BackendKind::Rt), p);
        let busy = run
            .results
            .iter()
            .filter(|o| o.leaves_sorted + o.tasks_split > 0)
            .count();
        assert!(busy >= 2, "only {busy} processors did any sorting");
    }

    /// The bubble sort as the paper states it, branching on each compare:
    /// the oracle for [`bubble_sort`].
    fn bubble_sort_branchy(buf: &mut [i32]) -> u64 {
        let mut compares = 0u64;
        let mut end = buf.len();
        while end > 1 {
            let mut last_swap = 0;
            for k in 1..end {
                compares += 1;
                if buf[k - 1] > buf[k] {
                    buf.swap(k - 1, k);
                    last_swap = k;
                }
            }
            end = last_swap;
        }
        compares
    }

    #[test]
    fn branch_free_sort_matches_the_branchy_one() {
        let mut rng = SplitMix64::new(7);
        let lengths = (0..=20).chain([31, 32, 33, 64, 100, 255, 256, 500, 999, 1000]);
        for n in lengths {
            let random: Vec<i32> = (0..n).map(|_| rng.next_u64() as i32).collect();
            let sorted = (0..n as i32).collect();
            let reversed = (0..n as i32).rev().collect();
            let equal = vec![42; n];
            let duplicates = (0..n).map(|_| rng.next_below(4) as i32 - 2).collect();
            for (kind, input) in [
                ("random", random),
                ("sorted", sorted),
                ("reversed", reversed),
                ("all-equal", equal),
                ("duplicate-heavy", duplicates),
            ] {
                let (mut got, mut want) = (input.clone(), input);
                let compares = bubble_sort(&mut got);
                assert_eq!(compares, bubble_sort_branchy(&mut want), "{kind}, n = {n}");
                assert_eq!(got, want, "{kind}, n = {n}");
            }
        }
    }

    #[test]
    fn rebinding_causes_vm_full_sends() {
        // The paper: "the incarnation number is incremented which causes
        // all data bound to the lock to be sent without performing a diff"
        // — under VM, rebound locks ship full data.
        let p = Params::small();
        let run = run(MidwayConfig::new(4, BackendKind::Vm), p);
        let fulls: u64 = run.counters.iter().map(|c| c.full_data_sends).sum();
        assert!(fulls > 0, "rebinding should force full-data sends");
    }
}
