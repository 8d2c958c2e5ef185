//! The cross-backend differential fuzzer.
//!
//! Generates seeded random entry-consistency schedules and runs each on
//! every applicable backend (all six when the seed's shape is
//! single-processor, the five data-moving ones otherwise), asserting
//! identical final-memory digests, schedule-determined counters, clean
//! dynamic-checker reports, and bit-exact reruns. Any divergence is
//! shrunk while it still reproduces and printed as a replayable
//! schedule, and the harness fails.
//!
//! `--mutants` proves the planted-bug side instead: for each
//! `MutantKind`, schedules are mutated until the dynamic checker flags
//! the expected finding on the expected processor, and the reproducer is
//! shrunk and printed. `--smoke` is a 30-seed sweep (seeds 9, 19 and 29
//! are single-processor, so the standalone backend is in the matrix)
//! plus one planted mutant of each kind.

use midway_apps::fuzz::{catch_mutant, differential, shrink, FuzzParams, Schedule};
use midway_apps::mutants::MutantKind;
use midway_bench::BenchArgs;

use crate::Report;

/// Sweeps seeds `0..count` and reports divergences; returns the number
/// of failing seeds.
fn sweep(count: u64) -> u64 {
    let mut failures = 0;
    for seed in 0..count {
        let s = Schedule::generate(seed, FuzzParams::for_seed(seed));
        assert!(
            s.validate(),
            "seed {seed}: generator emitted an invalid schedule"
        );
        let divergences = differential(&s);
        if divergences.is_empty() {
            if (seed + 1) % 50 == 0 {
                eprintln!(
                    "seed {seed}: ok ({} ops, {} procs)",
                    s.op_count(),
                    s.params.procs
                );
            }
            continue;
        }
        failures += 1;
        println!("== seed {seed} DIVERGED ==");
        for d in &divergences {
            println!("  {d}");
        }
        // Shrink while any divergence reproduces, then print the
        // replayable reproducer.
        let small = shrink(&s, &|c| !differential(c).is_empty(), 300);
        println!("minimized reproducer ({} ops):", small.op_count());
        println!("{small}");
    }
    failures
}

/// Proves each mutant kind is caught; returns whether all were.
fn prove_mutants(max_seeds: u64) -> bool {
    let mut all = true;
    for kind in MutantKind::ALL {
        match catch_mutant(kind, max_seeds) {
            Some((seed, small)) => {
                println!(
                    "{}: caught at seed {seed}, minimized to {} ops",
                    kind.label(),
                    small.op_count()
                );
                println!("{small}");
            }
            None => {
                println!(
                    "{}: NOT caught within {max_seeds} seeds — checker or planting regressed",
                    kind.label()
                );
                all = false;
            }
        }
    }
    all
}

pub(crate) fn run(args: BenchArgs) -> Result<Report, String> {
    let smoke = args.flag("--smoke");
    let verdict = |ok| Ok(Report { json: None, ok });

    if args.value("--seed").is_some() {
        let seed: u64 = args.num("--seed", 0)?;
        let s = Schedule::generate(seed, FuzzParams::for_seed(seed));
        println!("{s}");
        let divergences = differential(&s);
        for d in &divergences {
            println!("  {d}");
        }
        if divergences.is_empty() {
            println!("seed {seed}: backends agree");
        }
        return verdict(divergences.is_empty());
    }

    if args.flag("--mutants") {
        return verdict(prove_mutants(args.num("--seeds", 50)?));
    }

    let count: u64 = args.num("--seeds", if smoke { 30 } else { 500 })?;
    println!("== differential fuzz: seeds 0..{count} ==");
    let failures = sweep(count);
    let mut caught = true;
    if smoke {
        println!("== planted mutants ==");
        caught = prove_mutants(25);
    }
    if failures == 0 && caught {
        println!("all {count} seeds agree across backends");
    } else {
        println!("{failures} seeds diverged");
    }
    verdict(failures == 0 && caught)
}
