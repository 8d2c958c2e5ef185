//! The backend matrix and the mutant-catching oracle.
//!
//! Clean schedules are held to their model by `midway_replay::check`,
//! which runs a schedule like a trace, under any delivery and protocol
//! axis; `midway_replay::differential` loops it over [`backends_for`].
//! [`catch_mutant`] is the planted-bug side: it proves that for each
//! [`MutantKind`], some generated schedule hosts a mutation the dynamic
//! checker flags on a given backend with the planted provenance, then
//! hands back a shrunk reproducer.

use midway_core::{BackendKind, CheckReport, FindingKind, MidwayConfig};

use super::{execute, gen::apply_mutation, shrink::shrink, FuzzParams, MutantKind, Schedule};

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

/// Whether the dynamic checker catches `s`'s planted bug on `backend`
/// with its planted provenance ([`caught_in`]).
///
/// # Panics
///
/// Panics if `s` is not a mutant schedule.
pub fn mutant_caught(s: &Schedule, backend: BackendKind) -> bool {
    let cfg = MidwayConfig::new(s.params.procs, backend).check(true);
    execute(s, cfg, None).is_ok_and(|run| caught_in(s, &run.check.expect("checker was enabled")))
}

/// Whether `report`, the checker's on a run of `s`, carries the planted
/// provenance: the first finding of the expected kind is the mutant
/// processor's, a binding violation names the rebound scratch lock, and
/// a stale read names a writer other than the reader.
///
/// # Panics
///
/// Panics if `s` is not a mutant schedule.
pub fn caught_in(s: &Schedule, report: &CheckReport) -> bool {
    let kind = s
        .mutation
        .expect("mutant oracle takes mutant schedules")
        .finding();
    report.first_of(kind).is_some_and(|f| {
        f.proc == s.mutant_proc
            && match kind {
                FindingKind::BindingViolation => f.lock == Some(s.params.scratch_lock() as u32),
                FindingKind::StaleRead => f.stale.is_some_and(|st| st.writer != f.proc),
                FindingKind::UnguardedWrite | FindingKind::UnguardedRead => true,
            }
    })
}

/// Searches seeds `0..max_seeds` for a schedule whose `kind` mutation
/// the checker catches on `backend`, then shrinks the reproducer while it
/// stays caught. Returns the seed and the minimized schedule.
pub fn catch_mutant(
    kind: MutantKind,
    backend: BackendKind,
    max_seeds: u64,
) -> Option<(u64, Schedule)> {
    let caught = |s: &Schedule| mutant_caught(s, backend);
    (0..max_seeds).find_map(|seed| {
        let base = Schedule::generate(seed, FuzzParams::mutant());
        let mutated = apply_mutation(&base, kind, seed).filter(|m| caught(m))?;
        Some((seed, shrink(&mutated, &caught, 200)))
    })
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
