//! The differential and mutant-catching oracles.
//!
//! [`differential`] runs one clean schedule on every applicable backend
//! and compares what the model says must agree: the read-back checksum
//! against the schedule's own pure-model prediction, the
//! schedule-determined counters, checker cleanliness, and exact rerun
//! determinism on the reference backend. Anything that may legitimately
//! differ across backends — message counts, finish times, raw
//! final-memory digests (residual unsynchronized copies), read
//! checksums under contended locks (grant order is the backend's
//! business) — is deliberately *not* compared cross-backend, only
//! within same-backend reruns.
//!
//! [`catch_mutant`] is the planted-bug side: it proves that for each
//! [`MutantKind`], some generated schedule hosts a mutation the dynamic
//! checker flags with the right finding kind on the right processor,
//! then hands back a shrunk reproducer.

use midway_core::BackendKind;

use super::{execute, gen::apply_mutation, shrink::shrink, FuzzParams, Schedule};
use crate::mutants::MutantKind;

/// One way a schedule's executions disagreed with the model.
#[derive(Clone, Debug)]
pub enum Divergence {
    /// A processor's read-back checksum differs from the schedule's
    /// pure-model prediction of the final logical state.
    Readback {
        /// The backend the wrong value appeared on.
        backend: BackendKind,
        /// Processor whose read-back differs.
        proc: usize,
        /// The model-predicted checksum.
        want: u64,
        /// The observed checksum.
        got: u64,
    },
    /// A backend's `lock_acquires` differs from the schedule's count.
    Acquires {
        /// The backend that miscounted.
        backend: BackendKind,
        /// Processor whose counter is off.
        proc: usize,
        /// The schedule-determined count.
        want: u64,
        /// The observed count.
        got: u64,
    },
    /// A backend's `barrier_waits` differs from the round count.
    BarrierWaits {
        /// The backend that miscounted.
        backend: BackendKind,
        /// Processor whose counter is off.
        proc: usize,
        /// The schedule-determined count.
        want: u64,
        /// The observed count.
        got: u64,
    },
    /// The dynamic checker reported findings on a clean schedule.
    CheckFinding {
        /// The backend the findings appeared on.
        backend: BackendKind,
        /// The checker's one-line summary.
        summary: String,
    },
    /// A same-backend rerun was not bit-identical.
    Rerun {
        /// The nondeterministic backend.
        backend: BackendKind,
        /// Which compared quantity differed.
        what: &'static str,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Readback {
                backend,
                proc,
                want,
                got,
            } => write!(
                f,
                "readback: p{proc} read {got:#018x} on {}, model predicts {want:#018x}",
                backend.label()
            ),
            Divergence::Acquires {
                backend,
                proc,
                want,
                got,
            } => write!(
                f,
                "lock_acquires: p{proc} counted {got}, schedule determines {want} ({})",
                backend.label()
            ),
            Divergence::BarrierWaits {
                backend,
                proc,
                want,
                got,
            } => write!(
                f,
                "barrier_waits: p{proc} counted {got}, schedule determines {want} ({})",
                backend.label()
            ),
            Divergence::CheckFinding { backend, summary } => {
                write!(f, "checker on {}: {summary}", backend.label())
            }
            Divergence::Rerun { backend, what } => {
                write!(f, "rerun on {} diverged in {what}", backend.label())
            }
        }
    }
}

/// The backends a `procs`-processor schedule runs on: all six when the
/// standalone backend applies (one processor), the five data-moving
/// ones otherwise.
pub fn backends_for(procs: usize) -> &'static [BackendKind] {
    if procs == 1 {
        &BackendKind::ALL
    } else {
        &BackendKind::DATA
    }
}

/// Runs `s` on every applicable backend and returns all divergences
/// from the model (empty = the backends agree).
///
/// The first backend in the matrix is rerun once to assert bit-exact
/// determinism of digests, read checksums, read-back, finish time, and
/// message count.
pub fn differential(s: &Schedule) -> Vec<Divergence> {
    assert!(
        s.mutation.is_none(),
        "differential oracle takes clean schedules"
    );
    let backends = backends_for(s.params.procs);
    let want_readback = s.expected_readback();
    let mut out = Vec::new();
    let mut reference = None;
    for &backend in backends {
        let run = execute(s, backend);
        let report = run.check.as_ref().expect("checker was enabled");
        if !report.is_clean() {
            out.push(Divergence::CheckFinding {
                backend,
                summary: report.summary(),
            });
        }
        for (proc, &(_, got)) in run.results.iter().enumerate() {
            if got != want_readback {
                out.push(Divergence::Readback {
                    backend,
                    proc,
                    want: want_readback,
                    got,
                });
            }
        }
        for (proc, c) in run.counters.iter().enumerate() {
            let want = s.expected_acquires(proc);
            if c.lock_acquires != want {
                out.push(Divergence::Acquires {
                    backend,
                    proc,
                    want,
                    got: c.lock_acquires,
                });
            }
            let want = s.expected_barrier_waits();
            if c.barrier_waits != want {
                out.push(Divergence::BarrierWaits {
                    backend,
                    proc,
                    want,
                    got: c.barrier_waits,
                });
            }
        }
        if reference.is_none() {
            reference = Some((backend, run));
        }
    }
    if let Some((backend, first)) = reference {
        let again = execute(s, backend);
        let (a, b) = (&again.results, &first.results);
        for (what, same) in [
            ("digests", again.store_digests == first.store_digests),
            ("read_sums", a.iter().map(|r| r.0).eq(b.iter().map(|r| r.0))),
            ("readback", a.iter().map(|r| r.1).eq(b.iter().map(|r| r.1))),
            ("finish_time", again.finish_time == first.finish_time),
            ("messages", again.messages == first.messages),
        ] {
            if !same {
                out.push(Divergence::Rerun { backend, what });
            }
        }
    }
    out
}

/// Whether the dynamic checker catches `s`'s planted bug: the expected
/// finding kind, attributed to the mutant processor, on the reference
/// data backend.
pub fn mutant_caught(s: &Schedule) -> bool {
    let kind = s
        .expected_finding()
        .expect("mutant oracle takes mutant schedules");
    let run = execute(s, BackendKind::Rt);
    run.check
        .expect("checker was enabled")
        .first_of(kind)
        .is_some_and(|f| f.proc == s.mutant_proc)
}

/// Searches seeds `0..max_seeds` for a schedule whose `kind` mutation
/// the checker catches, then shrinks the reproducer while it stays
/// caught. Returns the seed and the minimized schedule.
pub fn catch_mutant(kind: MutantKind, max_seeds: u64) -> Option<(u64, Schedule)> {
    for seed in 0..max_seeds {
        let base = Schedule::generate(seed, FuzzParams::mutant());
        let Some(mutated) = apply_mutation(&base, kind, seed) else {
            continue;
        };
        if mutant_caught(&mutated) {
            let small = shrink(&mutated, &mutant_caught, 200);
            return Some((seed, small));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_matrix_depends_on_processor_count() {
        assert_eq!(backends_for(1).len(), BackendKind::ALL.len());
        assert_eq!(backends_for(3).len(), BackendKind::DATA.len());
        assert!(!backends_for(2).contains(&BackendKind::None));
    }
}
