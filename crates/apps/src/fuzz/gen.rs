//! Schedule generation: random programs whose final memory entry
//! consistency *pins*, plus planted-bug mutations of them.
//!
//! The oracle holds every run to the schedule's own model of the final
//! memory, so the generator must emit only schedules whose logically
//! visible final memory is independent of lock arbitration order and
//! protocol timing. Five invariants buy that:
//!
//! 1. **Single writer per word.** Each data lock's domain is split into
//!    per-processor chunks; a processor writes only its own chunks (and
//!    its own barrier slice). A word's final value is then its writer's
//!    last program-order store, whatever order the lock chain took —
//!    [`Schedule::expected_cells`] computes it without running anything.
//! 2. **Every word stays bound to exactly one synchronization object.**
//!    Lock-domain words propagate only through their lock's ownership
//!    chain (each exclusive holder receives the binding fresh and adds
//!    its own writes, so acquires always deliver current data on every
//!    backend); barrier-domain words propagate only through the
//!    per-round flush barrier, partitioned by writer. Double-binding the
//!    same word would let backends legitimately disagree on which path
//!    carries an update — VM-style diffs are consumed by whichever
//!    collection runs first.
//! 3. **One lock held at a time**, so no schedule can deadlock.
//! 4. **Accesses stay inside the current binding** (writes also inside
//!    the writer's chunk; reads under any hold mode, writes only under
//!    exclusive). Rebinding is restricted to rounds where the rebinding
//!    processor is the *only* one touching that lock, so the generator
//!    (and validator) can track each binding deterministically.
//! 5. **Scratch words are never touched** — they exist for planted
//!    mutants ([`apply_mutation`]), whose accesses deliberately break
//!    the rules in a way the checker must report. (One planted shape
//!    reads a neighbour's barrier slice early instead.)
//!
//! [`Schedule::validate`] re-derives all of this structurally; the
//! shrinker uses it to discard candidate simplifications that would turn
//! a protocol-bug reproducer into a mere discipline violation.

use midway_core::FindingKind;
use midway_sim::SplitMix64;

use super::FuzzParams;

/// A planted entry-consistency bug: the checker's true positives. Each is
/// a bug the paper's programming model makes possible and the
/// write-detection machinery silently mis-executes rather than reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutantKind {
    /// A store to lock-bound data without acquiring the lock.
    DropAcquire,
    /// A rebind narrows a held lock's binding, then a store lands in the
    /// range it just retired.
    RogueRebind,
    /// A lock-free read of lock-bound data another processor wrote, with
    /// no synchronization between the two.
    ReadAhead,
    /// A read of a neighbour's barrier slice before the flush barrier that
    /// publishes it: sor's edge read, one phase early.
    BarrierReadAhead,
}

impl MutantKind {
    /// All mutants, in presentation order.
    pub const ALL: [MutantKind; 4] = [
        MutantKind::DropAcquire,
        MutantKind::RogueRebind,
        MutantKind::ReadAhead,
        MutantKind::BarrierReadAhead,
    ];

    /// A short label for reports and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            MutantKind::DropAcquire => "drop-acquire",
            MutantKind::RogueRebind => "rogue-rebind",
            MutantKind::ReadAhead => "read-ahead",
            MutantKind::BarrierReadAhead => "barrier-read-ahead",
        }
    }

    /// The finding the planted bug must produce.
    pub fn finding(self) -> FindingKind {
        match self {
            MutantKind::DropAcquire => FindingKind::UnguardedWrite,
            MutantKind::RogueRebind => FindingKind::BindingViolation,
            MutantKind::ReadAhead | MutantKind::BarrierReadAhead => FindingKind::StaleRead,
        }
    }
}

/// One operation of a fuzz program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FuzzOp {
    /// Acquire `lock` (exclusive unless `shared`).
    Acquire { lock: usize, shared: bool },
    /// Release `lock` from the matching mode.
    Release { lock: usize, shared: bool },
    /// Store `val` to cell `word`.
    Write { word: usize, val: u64 },
    /// Load cell `word` into the session checksum.
    Read { word: usize },
    /// Rebind `lock` to cells `lo..hi`.
    Rebind { lock: usize, lo: usize, hi: usize },
    /// Charge `cycles` of compute.
    Work { cycles: u64 },
}

impl std::fmt::Display for FuzzOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FuzzOp::Acquire { lock, shared } => {
                write!(f, "acq{} L{lock}", if shared { "s" } else { "" })
            }
            FuzzOp::Release { lock, shared } => {
                write!(f, "rel{} L{lock}", if shared { "s" } else { "" })
            }
            FuzzOp::Write { word, val } => write!(f, "w c{word}={val:#x}"),
            FuzzOp::Read { word } => write!(f, "r c{word}"),
            FuzzOp::Rebind { lock, lo, hi } => write!(f, "rebind L{lock} c{lo}..c{hi}"),
            FuzzOp::Work { cycles } => write!(f, "work {cycles}"),
        }
    }
}

/// A complete fuzz program: shape, provenance and per-round per-processor
/// operation lists. The flush barrier between rounds is implicit.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The program shape.
    pub params: FuzzParams,
    /// The seed [`Schedule::generate`] derived everything from.
    pub seed: u64,
    /// The planted bug, if this is a mutant schedule.
    pub mutation: Option<MutantKind>,
    /// The processor committing the planted bug.
    pub mutant_proc: usize,
    /// `rounds[r][p]` = processor `p`'s operations in round `r`.
    pub rounds: Vec<Vec<Vec<FuzzOp>>>,
}

impl Schedule {
    /// Generates the schedule `seed` names under `params`.
    pub fn generate(seed: u64, params: FuzzParams) -> Schedule {
        let p = params;
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED);
        // Current binding of each data lock, as an absolute word range.
        let mut binding: Vec<std::ops::Range<usize>> =
            (0..p.data_locks).map(|l| p.lock_domain(l)).collect();
        let mut rounds = Vec::with_capacity(p.rounds);
        for _ in 0..p.rounds {
            // At most one lock is rebound per round, by one processor
            // that gets exclusive use of it for the round.
            let rebind = if rng.next_below(100) < 35 {
                let l = rng.next_below(p.data_locks as u64) as usize;
                let dom = p.lock_domain(l);
                let (lo, hi) = if rng.next_below(2) == 0 {
                    (dom.start, dom.end) // reset to the full domain
                } else {
                    let len = dom.len() as u64;
                    let a = rng.next_below(len) as usize;
                    let b = rng.next_below(len) as usize;
                    (dom.start + a.min(b), dom.start + a.max(b) + 1)
                };
                Some((l, rng.next_below(p.procs as u64) as usize, lo, hi))
            } else {
                None
            };
            let mut round: Vec<Vec<FuzzOp>> = Vec::with_capacity(p.procs);
            for q in 0..p.procs {
                let mut ops = Vec::new();
                if let Some((l, owner, lo, hi)) = rebind {
                    if owner == q {
                        // The rebind episode: narrow (or reset) the
                        // binding, then use it.
                        ops.push(FuzzOp::Acquire {
                            lock: l,
                            shared: false,
                        });
                        ops.push(FuzzOp::Rebind { lock: l, lo, hi });
                        binding[l] = lo..hi;
                        emit_accesses(&mut ops, &mut rng, &p, &binding[l], l, q, false);
                        ops.push(FuzzOp::Release {
                            lock: l,
                            shared: false,
                        });
                    }
                }
                let episodes = rng.next_below(p.max_episodes as u64 + 1) as usize;
                for _ in 0..episodes {
                    let l = rng.next_below(p.data_locks as u64) as usize;
                    if rebind.is_some_and(|(rl, _, _, _)| rl == l) {
                        continue; // the rebinder owns that lock this round
                    }
                    let shared = rng.next_below(100) < 30;
                    ops.push(FuzzOp::Acquire { lock: l, shared });
                    emit_accesses(&mut ops, &mut rng, &p, &binding[l], l, q, shared);
                    ops.push(FuzzOp::Release { lock: l, shared });
                    if rng.next_below(100) < 40 {
                        ops.push(FuzzOp::Work {
                            cycles: 1_000 + rng.next_below(50_000),
                        });
                    }
                }
                // Barrier-partition writes: no lock needed in the
                // writer's own slice.
                for _ in 0..rng.next_below(3) {
                    let slice = p.barrier_slice(q);
                    let word = slice.start + rng.next_below(slice.len() as u64) as usize;
                    ops.push(FuzzOp::Write {
                        word,
                        val: rng.next_u64(),
                    });
                }
                round.push(ops);
            }
            rounds.push(round);
        }
        Schedule {
            params,
            seed,
            mutation: None,
            mutant_proc: 0,
            rounds,
        }
    }

    /// Total operations across all rounds and processors.
    pub fn op_count(&self) -> usize {
        self.rounds.iter().flatten().map(Vec::len).sum()
    }

    /// `lock_acquires` the schedule itself determines for processor `p`:
    /// one per acquire op (either mode), plus the read-back phase's one
    /// shared acquire per data lock.
    pub(crate) fn expected_acquires(&self, p: usize) -> u64 {
        let scheduled = self
            .rounds
            .iter()
            .flat_map(|r| &r[p])
            .filter(|op| matches!(op, FuzzOp::Acquire { .. }))
            .count();
        (scheduled + self.params.data_locks) as u64
    }

    /// `barrier_waits` the schedule determines (one per round).
    pub(crate) fn expected_barrier_waits(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// Each data lock's binding after the last round, replaying rebinds
    /// in round order (the sole-toucher invariant makes within-round
    /// order irrelevant).
    fn final_bindings(&self) -> Vec<std::ops::Range<usize>> {
        let p = &self.params;
        let mut binding: Vec<std::ops::Range<usize>> =
            (0..p.data_locks).map(|l| p.lock_domain(l)).collect();
        for round in &self.rounds {
            for ops in round {
                for op in ops {
                    if let FuzzOp::Rebind { lock, lo, hi } = *op {
                        if lock < p.data_locks {
                            binding[lock] = lo..hi;
                        }
                    }
                }
            }
        }
        binding
    }

    /// The words per data lock whose final value entry consistency pins
    /// — final-binding words that have stayed bound since their last
    /// write. A write propagates through the lock's ownership chain only
    /// while its word is bound: retiring a written word by a narrowing
    /// rebind drops its update from the protocol's hands (RT keeps some
    /// copies fresh by timestamp, VM full-sends the owner's possibly
    /// stale copy), so re-introducing it later yields a legitimately
    /// backend-dependent value until it is written again. Never-written
    /// words are always reliable: every copy still holds zero.
    pub(crate) fn reliable_words(&self) -> Vec<Vec<usize>> {
        let p = &self.params;
        let mut binding: Vec<std::ops::Range<usize>> =
            (0..p.data_locks).map(|l| p.lock_domain(l)).collect();
        let mut reliable = vec![true; p.total_words()];
        let mut written = vec![false; p.total_words()];
        for round in &self.rounds {
            for ops in round {
                for op in ops {
                    match *op {
                        // A write under the current binding re-enters the
                        // ownership chain from here on.
                        FuzzOp::Write { word, .. } => {
                            written[word] = true;
                            reliable[word] = true;
                        }
                        FuzzOp::Rebind { lock, lo, hi } if lock < p.data_locks => {
                            for w in binding[lock].clone() {
                                if written[w] && !(lo..hi).contains(&w) {
                                    // Retired: the written value is no
                                    // longer the protocol's to carry.
                                    reliable[w] = false;
                                }
                            }
                            binding[lock] = lo..hi;
                        }
                        _ => {}
                    }
                }
            }
        }
        self.final_bindings()
            .into_iter()
            .map(|b| b.filter(|&w| reliable[w]).collect())
            .collect()
    }

    /// The final cell values entry consistency pins: each word's last
    /// program-order store by its single writer, applied in round order.
    /// Scratch words are modelled too (a mutation's planted stores land
    /// there), though the read-back oracle never reads them.
    fn expected_cells(&self) -> Vec<u64> {
        let mut cells = vec![0u64; self.params.total_words()];
        for round in &self.rounds {
            for ops in round {
                for op in ops {
                    if let FuzzOp::Write { word, val } = *op {
                        cells[word] = val;
                    }
                }
            }
        }
        cells
    }

    /// The checksum the executor's read-back phase must produce on every
    /// processor and every backend: each data lock's reliable
    /// final-binding words in lock order, then the whole barrier domain
    /// (always reliable — every round's flush republishes each writer's
    /// slice), folded in traversal order.
    pub(crate) fn expected_readback(&self) -> u64 {
        let p = &self.params;
        let cells = self.expected_cells();
        let mut sum = 0u64;
        for words in self.reliable_words() {
            for w in words {
                sum = sum.rotate_left(1) ^ cells[w];
            }
        }
        for &cell in &cells[p.barrier_base()..p.scratch_base()] {
            sum = sum.rotate_left(1) ^ cell;
        }
        sum
    }

    /// Structurally validates the schedule against the generator's
    /// invariants (see the module docs). Planted scratch-domain accesses,
    /// and reads of another processor's barrier slice, are exempt when a
    /// mutation is declared — they are the bug.
    pub fn validate(&self) -> bool {
        let p = &self.params;
        if self.rounds.iter().any(|r| r.len() != p.procs) {
            return false;
        }
        let mut binding: Vec<std::ops::Range<usize>> =
            (0..p.data_locks).map(|l| p.lock_domain(l)).collect();
        let scratch = p.scratch_base()..p.total_words();
        let barrier = p.barrier_base()..p.scratch_base();
        for round in &self.rounds {
            // Which processors touch each data lock this round, and
            // whether it is rebound (rebinding demands sole use).
            let mut touchers = vec![0usize; p.data_locks + 1];
            let mut rebinds = vec![0usize; p.data_locks + 1];
            for ops in round {
                let mut touched = vec![false; p.data_locks + 1];
                for op in ops {
                    match *op {
                        FuzzOp::Acquire { lock, .. } | FuzzOp::Rebind { lock, .. } => {
                            if lock > p.data_locks {
                                return false;
                            }
                            if !touched[lock] {
                                touched[lock] = true;
                                touchers[lock] += 1;
                            }
                            if matches!(op, FuzzOp::Rebind { .. }) {
                                rebinds[lock] += 1;
                            }
                        }
                        _ => {}
                    }
                }
            }
            for l in 0..p.data_locks {
                if rebinds[l] > 1 || (rebinds[l] == 1 && touchers[l] != 1) {
                    return false;
                }
            }
            // Per-processor op legality, tracking the single held lock.
            // Rebinds update the shared binding model as encountered —
            // sole use makes cross-processor order irrelevant.
            for (q, ops) in round.iter().enumerate() {
                let mut held: Option<(usize, bool)> = None;
                for op in ops {
                    match *op {
                        FuzzOp::Acquire { lock, shared } => {
                            if held.is_some() {
                                return false; // one lock at a time
                            }
                            held = Some((lock, shared));
                        }
                        FuzzOp::Release { lock, shared } => {
                            if held != Some((lock, shared)) {
                                return false;
                            }
                            held = None;
                        }
                        FuzzOp::Rebind { lock, lo, hi } => {
                            if held != Some((lock, false)) || lo >= hi {
                                return false;
                            }
                            if lock == p.scratch_lock() {
                                if self.mutation.is_none() {
                                    return false;
                                }
                                if lo < scratch.start || hi > scratch.end {
                                    return false;
                                }
                            } else {
                                let dom = p.lock_domain(lock);
                                if lo < dom.start || hi > dom.end {
                                    return false;
                                }
                                binding[lock] = lo..hi;
                            }
                        }
                        FuzzOp::Write { word, .. } => {
                            if scratch.contains(&word) {
                                if self.mutation.is_none() {
                                    return false;
                                }
                            } else if p.barrier_slice(q).contains(&word) {
                                // Always legal: the writer's own slice.
                            } else {
                                let Some((l, false)) = held else {
                                    return false;
                                };
                                if l == p.scratch_lock()
                                    || !binding[l].contains(&word)
                                    || !p.chunk(l, q).contains(&word)
                                {
                                    return false;
                                }
                            }
                        }
                        FuzzOp::Read { word } => {
                            if scratch.contains(&word) {
                                if self.mutation.is_none() {
                                    return false;
                                }
                            } else if p.barrier_slice(q).contains(&word) {
                                // Own slice: always readable.
                            } else if barrier.contains(&word) {
                                // Another's slice, before the flush
                                // barrier publishes it: a planted bug.
                                if self.mutation.is_none() {
                                    return false;
                                }
                            } else {
                                let Some((l, _)) = held else {
                                    return false;
                                };
                                if l == p.scratch_lock() || !binding[l].contains(&word) {
                                    return false;
                                }
                            }
                        }
                        FuzzOp::Work { .. } => {}
                    }
                }
                if held.is_some() {
                    return false; // no lock crosses the flush barrier
                }
            }
        }
        true
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = &self.params;
        writeln!(
            f,
            "seed={} procs={} locks={} chunk={} barrier={} rounds={}{}",
            self.seed,
            p.procs,
            p.data_locks,
            p.chunk_words,
            p.barrier_words,
            self.rounds.len(),
            match self.mutation {
                Some(m) => format!(" mutation={} proc={}", m.label(), self.mutant_proc),
                None => String::new(),
            }
        )?;
        for (r, round) in self.rounds.iter().enumerate() {
            writeln!(f, "round {r}:")?;
            for (q, ops) in round.iter().enumerate() {
                if ops.is_empty() {
                    continue;
                }
                let text: Vec<String> = ops.iter().map(|o| o.to_string()).collect();
                writeln!(f, "  p{q}: {}", text.join("; "))?;
            }
        }
        Ok(())
    }
}

/// Emits the accesses of one episode on `l` under the current `binding`:
/// writes into the binding ∩ the processor's chunk (exclusive episodes
/// only), reads anywhere in the binding.
fn emit_accesses(
    ops: &mut Vec<FuzzOp>,
    rng: &mut SplitMix64,
    p: &FuzzParams,
    binding: &std::ops::Range<usize>,
    l: usize,
    q: usize,
    shared: bool,
) {
    if !shared {
        let chunk = p.chunk(l, q);
        let lo = binding.start.max(chunk.start);
        let hi = binding.end.min(chunk.end);
        if lo < hi {
            for _ in 0..rng.next_below(p.max_writes as u64 + 1) {
                let word = lo + rng.next_below((hi - lo) as u64) as usize;
                ops.push(FuzzOp::Write {
                    word,
                    val: rng.next_u64(),
                });
            }
        }
    }
    for _ in 0..rng.next_below(p.max_reads as u64 + 1) {
        let word = binding.start + rng.next_below(binding.len() as u64) as usize;
        ops.push(FuzzOp::Read { word });
    }
}

/// Plants `kind`'s bug pattern into a copy of `base`, targeting the
/// scratch domain so the flush barrier's coverage cannot mask it, or, for
/// [`MutantKind::BarrierReadAhead`], the barrier domain itself. Returns
/// `None` when the base schedule cannot host the mutation (too few
/// processors or no rounds).
pub fn apply_mutation(base: &Schedule, kind: MutantKind, seed: u64) -> Option<Schedule> {
    let p = base.params;
    if p.procs < 2 || base.rounds.is_empty() {
        return None;
    }
    let mut rng = SplitMix64::new(seed ^ 0x00B5_0CC0);
    let r = rng.next_below(base.rounds.len() as u64) as usize;
    let q = rng.next_below(p.procs as u64) as usize;
    let mut s = base.clone();
    s.mutation = Some(kind);
    match kind {
        MutantKind::DropAcquire => {
            // An unguarded store to lock-bound (scratch) data: the
            // acquire that should cover it was "forgotten".
            let word = p.scratch_chunk(q).start;
            s.mutant_proc = q;
            s.rounds[r][q].push(FuzzOp::Write {
                word,
                val: rng.next_u64(),
            });
        }
        MutantKind::RogueRebind => {
            // Narrow the scratch binding to its last word, then write the
            // first — a store into the just-retired range.
            let lock = p.scratch_lock();
            let end = p.total_words();
            s.mutant_proc = q;
            s.rounds[r][q].extend([
                FuzzOp::Acquire {
                    lock,
                    shared: false,
                },
                FuzzOp::Rebind {
                    lock,
                    lo: end - 1,
                    hi: end,
                },
                FuzzOp::Write {
                    word: p.scratch_base(),
                    val: rng.next_u64(),
                },
                FuzzOp::Release {
                    lock,
                    shared: false,
                },
            ]);
        }
        MutantKind::ReadAhead => {
            // A writes scratch under its lock at the round's start; B
            // reads it lock-free after a long compute charge, so the
            // read deterministically lands after the write in virtual
            // time with no synchronization chain between them.
            let a = q;
            let b = (q + 1) % p.procs;
            let lock = p.scratch_lock();
            let word = p.scratch_chunk(a).start;
            s.mutant_proc = b;
            let writer = &mut s.rounds[r][a];
            writer.splice(
                0..0,
                [
                    FuzzOp::Acquire {
                        lock,
                        shared: false,
                    },
                    FuzzOp::Write {
                        word,
                        val: rng.next_u64(),
                    },
                    FuzzOp::Release {
                        lock,
                        shared: false,
                    },
                ],
            );
            let reader = &mut s.rounds[r][b];
            reader.splice(
                0..0,
                [FuzzOp::Work { cycles: 5_000_000 }, FuzzOp::Read { word }],
            );
        }
        MutantKind::BarrierReadAhead => {
            // A stores into its own barrier slice as the first round
            // starts; B reads that word after a long compute charge but
            // before the flush barrier publishes it. In the first round no
            // earlier write of the word can have reached B.
            let a = q;
            let b = (q + 1) % p.procs;
            let word = p.barrier_slice(a).start;
            s.mutant_proc = b;
            let val = rng.next_u64();
            s.rounds[0][a].insert(0, FuzzOp::Write { word, val });
            s.rounds[0][b].splice(
                0..0,
                [FuzzOp::Work { cycles: 5_000_000 }, FuzzOp::Read { word }],
            );
        }
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_schedules_are_valid_and_deterministic() {
        for seed in 0..80 {
            let params = FuzzParams::for_seed(seed);
            let s = Schedule::generate(seed, params);
            assert!(s.validate(), "seed {seed} generated an invalid schedule");
            let again = Schedule::generate(seed, params);
            assert_eq!(s.rounds, again.rounds, "seed {seed} not deterministic");
        }
    }

    #[test]
    fn mutated_schedules_stay_structurally_valid() {
        let base = Schedule::generate(1, FuzzParams::mutant());
        for kind in MutantKind::ALL {
            let m = apply_mutation(&base, kind, 7).expect("mutation applies");
            assert!(m.validate(), "{kind:?} broke structural validity");
            assert!(m.op_count() > base.op_count());
        }
    }

    #[test]
    fn corrupted_schedules_fail_validation() {
        let mut s = Schedule::generate(2, FuzzParams::mutant());
        // A write into another processor's chunk breaks single-writer.
        let foreign = s.params.chunk(0, 1).start;
        s.rounds[0][0].push(FuzzOp::Write {
            word: foreign,
            val: 1,
        });
        assert!(!s.validate(), "foreign-chunk write must be rejected");

        let mut s = Schedule::generate(2, FuzzParams::mutant());
        s.rounds[0][0].push(FuzzOp::Acquire {
            lock: 0,
            shared: false,
        });
        assert!(!s.validate(), "unreleased lock must be rejected");

        let mut s = Schedule::generate(2, FuzzParams::mutant());
        s.rounds[0][0].push(FuzzOp::Write {
            word: s.params.scratch_base(),
            val: 1,
        });
        assert!(!s.validate(), "scratch write without mutation rejected");

        let mut s = Schedule::generate(2, FuzzParams::mutant());
        s.rounds[0][0].push(FuzzOp::Read {
            word: s.params.barrier_slice(1).start,
        });
        assert!(
            !s.validate(),
            "early barrier read without mutation rejected"
        );
    }
}
