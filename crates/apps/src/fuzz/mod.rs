//! Cross-backend differential fuzzer: random entry-consistency programs
//! as a standing oracle over all six write-detection backends.
//!
//! A [`Schedule`] is a randomly generated but *disciplined* program of
//! acquire/write/release/read/rebind/work operations, structured as
//! rounds separated by one partitioned flush barrier. The generator
//! enforces a set of invariants (the generator module documents them)
//! under which entry
//! consistency pins the logically visible final memory exactly — every
//! word has a single writer and is bound to exactly one synchronization
//! object — so the schedule itself predicts what a post-run read-back
//! under the proper locks must observe, on every backend. Any deviation
//! from that prediction, from the schedule-determined counters, or from
//! a clean checker verdict is a protocol bug, not workload noise.
//! [`differential`] runs one schedule on every applicable
//! backend and asserts:
//!
//! * the read-back checksum equals [`Schedule::expected_readback`] (the
//!   pure-model prediction) on every processor of every backend,
//! * `lock_acquires` / `barrier_waits` equal to the counts the schedule
//!   itself determines (Table 2's schedule-invariant counters),
//! * a clean `midway-check` report, and
//! * bit-identical reruns on the reference backend (including raw
//!   final-memory digests, which *are* comparable within one backend).
//!
//! Failures carry their seed; [`shrink`] minimizes the failing
//! schedule while it keeps failing, so every report is replayable. The
//! same machinery doubles as the mutant suite's generator:
//! [`apply_mutation`] can plant each [`crate::mutants::MutantKind`] bug
//! pattern into a schedule, and [`catch_mutant`] proves the checker
//! catches it.

mod gen;
mod oracle;
mod shrink;

pub use gen::{apply_mutation, FuzzOp, Schedule};
pub use oracle::{backends_for, catch_mutant, differential, mutant_caught, Divergence};
pub use shrink::shrink;

use std::sync::Arc;

use midway_core::{
    BackendKind, BarrierId, LockId, Midway, MidwayConfig, MidwayRun, NetMsg, Proc, SharedArray,
    SystemBuilder, SystemSpec, Transport,
};
use midway_sim::SplitMix64;

/// The shape of a fuzz program's shared state and schedule bounds.
///
/// Memory is one `u64` cell array with word-sized cache lines, laid out
/// as: one domain per data lock (a contiguous per-processor *chunk*
/// each), then a per-processor barrier domain, then a per-processor
/// scratch domain. Every word is bound to exactly one synchronization
/// object: each data lock binds its domain, the flush barrier binds the
/// barrier domain (partitioned into per-writer slices), and a scratch
/// lock binds the scratch domain — the landing zone for planted mutant
/// accesses, which must not be covered by anything else.
#[derive(Clone, Copy, Debug)]
pub struct FuzzParams {
    /// Processors.
    pub procs: usize,
    /// Data locks (each with its own word domain).
    pub data_locks: usize,
    /// Words of each lock domain owned by (writable by) one processor.
    pub chunk_words: usize,
    /// Barrier-domain words per processor.
    pub barrier_words: usize,
    /// Scratch words per processor.
    pub scratch_words: usize,
    /// Rounds (each ends at the flush barrier).
    pub rounds: usize,
    /// Max lock episodes per processor per round.
    pub max_episodes: usize,
    /// Max writes per exclusive episode.
    pub max_writes: usize,
    /// Max reads per episode.
    pub max_reads: usize,
}

impl FuzzParams {
    /// Derives a program shape from `seed`: 2–4 processors normally,
    /// with every tenth seed single-processor so the standalone backend
    /// (which only supports one processor) joins the matrix.
    pub fn for_seed(seed: u64) -> FuzzParams {
        let mut rng = SplitMix64::new(seed ^ 0xF0_2259_11AB_5EED);
        let procs = if seed % 10 == 9 {
            1
        } else {
            2 + (rng.next_below(3) as usize)
        };
        FuzzParams {
            procs,
            data_locks: 1 + rng.next_below(3) as usize,
            chunk_words: 1 + rng.next_below(3) as usize,
            barrier_words: 1 + rng.next_below(2) as usize,
            scratch_words: 1,
            rounds: 2 + rng.next_below(3) as usize,
            max_episodes: 2,
            max_writes: 3,
            max_reads: 3,
        }
    }

    /// A fixed multi-processor shape for the mutant-planting oracle.
    pub fn mutant() -> FuzzParams {
        FuzzParams {
            procs: 3,
            data_locks: 2,
            chunk_words: 2,
            barrier_words: 1,
            scratch_words: 1,
            rounds: 3,
            max_episodes: 2,
            max_writes: 2,
            max_reads: 2,
        }
    }

    /// Words in one lock domain.
    pub fn domain_words(&self) -> usize {
        self.procs * self.chunk_words
    }

    /// Absolute word range of data lock `l`'s domain.
    pub fn lock_domain(&self, l: usize) -> std::ops::Range<usize> {
        let w = self.domain_words();
        l * w..(l + 1) * w
    }

    /// Absolute word range processor `p` owns within lock `l`'s domain.
    pub fn chunk(&self, l: usize, p: usize) -> std::ops::Range<usize> {
        let base = self.lock_domain(l).start + p * self.chunk_words;
        base..base + self.chunk_words
    }

    /// First word of the barrier domain.
    pub fn barrier_base(&self) -> usize {
        self.data_locks * self.domain_words()
    }

    /// Absolute word range of processor `p`'s barrier slice.
    pub fn barrier_slice(&self, p: usize) -> std::ops::Range<usize> {
        let base = self.barrier_base() + p * self.barrier_words;
        base..base + self.barrier_words
    }

    /// First word of the scratch domain.
    pub fn scratch_base(&self) -> usize {
        self.barrier_base() + self.procs * self.barrier_words
    }

    /// Absolute word range of processor `p`'s scratch chunk.
    pub fn scratch_chunk(&self, p: usize) -> std::ops::Range<usize> {
        let base = self.scratch_base() + p * self.scratch_words;
        base..base + self.scratch_words
    }

    /// Total cell-array words.
    pub fn total_words(&self) -> usize {
        self.scratch_base() + self.procs * self.scratch_words
    }

    /// The scratch lock's index in the executor's lock table (data locks
    /// come first).
    pub fn scratch_lock(&self) -> usize {
        self.data_locks
    }
}

struct Handles {
    cells: SharedArray<u64>,
    /// Data locks, then the scratch lock.
    locks: Vec<LockId>,
    flush: BarrierId,
}

fn build(p: &FuzzParams) -> (Arc<SystemSpec>, Handles) {
    let mut b = SystemBuilder::new();
    let cells = b.shared_array::<u64>("cells", p.total_words(), 1);
    let mut locks: Vec<LockId> = (0..p.data_locks)
        .map(|l| b.lock(vec![cells.range(p.lock_domain(l))]))
        .collect();
    locks.push(b.lock(vec![cells.range(p.scratch_base()..p.total_words())]));
    // The flush barrier owns exactly the barrier domain, partitioned by
    // writer: processor q contributes its own slice, the only words it
    // may write there, so the merged set converges every copy each round
    // (blast *requires* partitions; the others scan them). Lock domains
    // are deliberately NOT bound here — each word belongs to exactly one
    // synchronization object, as entry consistency demands.
    let partitions = (0..p.procs)
        .map(|q| vec![cells.range(p.barrier_slice(q))])
        .collect();
    let flush = b.barrier_partitioned(
        vec![cells.range(p.barrier_base()..p.scratch_base())],
        partitions,
    );
    (
        b.build(),
        Handles {
            cells,
            locks,
            flush,
        },
    )
}

fn session<T: Transport<Msg = NetMsg>>(
    proc: &mut Proc<'_, T>,
    s: &Schedule,
    h: &Handles,
) -> (u64, u64) {
    let me = proc.id();
    let mut sum = 0u64;
    for round in &s.rounds {
        for op in &round[me] {
            match *op {
                FuzzOp::Acquire {
                    lock,
                    shared: false,
                } => proc.acquire(h.locks[lock]),
                FuzzOp::Acquire { lock, shared: true } => proc.acquire_shared(h.locks[lock]),
                FuzzOp::Release {
                    lock,
                    shared: false,
                } => proc.release(h.locks[lock]),
                FuzzOp::Release { lock, shared: true } => proc.release_shared(h.locks[lock]),
                FuzzOp::Write { word, val } => proc.write(&h.cells, word, val),
                FuzzOp::Read { word } => {
                    sum = sum.rotate_left(1) ^ proc.read(&h.cells, word);
                }
                FuzzOp::Rebind { lock, lo, hi } => {
                    proc.rebind(h.locks[lock], vec![h.cells.range(lo..hi)]);
                }
                FuzzOp::Work { cycles } => proc.work(cycles),
            }
        }
        proc.barrier(h.flush);
    }
    // Read-back: the logically visible final state. Each lock's reliable
    // final-binding words are read under a shared hold (the ownership
    // chain delivers them fresh on every backend); the barrier domain is
    // readable as-is — the final flush republished every slice. The
    // traversal order matches Schedule::expected_readback exactly.
    let mut readback = 0u64;
    for (l, words) in s.reliable_words().into_iter().enumerate() {
        proc.acquire_shared(h.locks[l]);
        for w in words {
            readback = readback.rotate_left(1) ^ proc.read(&h.cells, w);
        }
        proc.release_shared(h.locks[l]);
    }
    for w in s.params.barrier_base()..s.params.scratch_base() {
        readback = readback.rotate_left(1) ^ proc.read(&h.cells, w);
    }
    (sum, readback)
}

/// Executes `s` on `backend` with the dynamic checker attached. Each
/// processor's result is `(read sum, read-back)`: the checksum of its
/// mid-schedule reads (timing-dependent, so comparable only across
/// same-backend reruns) and of its post-run read-back, the logically
/// visible final state, which must equal [`Schedule::expected_readback`]
/// everywhere. Final-memory digests are comparable only within one
/// backend: residual unsynchronized copies are the backend's business.
///
/// # Panics
///
/// Panics if the simulation fails (deadlock or processor panic) — a
/// generated schedule that deadlocks is itself a generator bug.
pub fn execute(s: &Schedule, backend: BackendKind) -> MidwayRun<(u64, u64)> {
    let procs = s.params.procs;
    let cfg = if backend == BackendKind::None {
        assert_eq!(procs, 1, "standalone backend is single-processor");
        MidwayConfig::standalone()
    } else {
        MidwayConfig::new(procs, backend)
    }
    .check(true);
    let (spec, h) = build(&s.params);
    Midway::run(cfg, &spec, |proc: &mut Proc| session(proc, s, &h))
        .expect("fuzz schedule deadlocked or panicked")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_regions_are_disjoint_and_cover_the_array() {
        let p = FuzzParams::for_seed(3);
        let mut seen = vec![false; p.total_words()];
        let mut mark = |r: std::ops::Range<usize>| {
            for w in r {
                assert!(!seen[w], "word {w} in two regions");
                seen[w] = true;
            }
        };
        for l in 0..p.data_locks {
            for q in 0..p.procs {
                mark(p.chunk(l, q));
            }
        }
        for q in 0..p.procs {
            mark(p.barrier_slice(q));
            mark(p.scratch_chunk(q));
        }
        assert!(seen.iter().all(|&s| s), "layout leaves holes");
    }

    #[test]
    fn every_tenth_seed_is_single_processor() {
        assert_eq!(FuzzParams::for_seed(9).procs, 1);
        assert_eq!(FuzzParams::for_seed(19).procs, 1);
        assert!(FuzzParams::for_seed(8).procs >= 2);
    }
}
