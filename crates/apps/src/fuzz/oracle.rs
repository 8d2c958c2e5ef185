//! The backend matrix and the mutant-catching oracle.
//!
//! Clean schedules are held to their model by `midway_replay::check`,
//! which runs a schedule like a trace, under any delivery and protocol
//! axis; `midway_replay::differential` loops it over [`backends_for`].
//! [`catch_mutant`] is the planted-bug side: it proves that for each
//! [`MutantKind`], some generated schedule hosts a mutation the dynamic
//! checker flags with the right finding kind on the right processor,
//! then hands back a shrunk reproducer.

use midway_core::{BackendKind, MidwayConfig};

use super::{execute, gen::apply_mutation, shrink::shrink, FuzzParams, Schedule};
use crate::mutants::MutantKind;

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

/// Whether the dynamic checker catches `s`'s planted bug: the expected
/// finding kind, attributed to the mutant processor, on the reference
/// data backend.
pub fn mutant_caught(s: &Schedule) -> bool {
    let kind = s
        .expected_finding()
        .expect("mutant oracle takes mutant schedules");
    let cfg = MidwayConfig::new(s.params.procs, BackendKind::Rt).check(true);
    execute(s, cfg, None).is_ok_and(|run| {
        run.check
            .expect("checker was enabled")
            .first_of(kind)
            .is_some_and(|f| f.proc == s.mutant_proc)
    })
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
