//! The cross-backend differential fuzzer.
//!
//! Generates seeded random entry-consistency schedules and `check`s each
//! on every applicable backend (all six when the seed's shape is
//! single-processor, the five data-moving ones otherwise) through
//! `midway_replay::differential`: every run's read-back and
//! schedule-determined counters must match the schedule's model, the
//! dynamic checker must find nothing, and the checked run must equal its
//! baseline bit for bit. A schedule whose run deadlocks, violates the
//! protocol or panics fails the same way. Any failure is shrunk while it
//! still reproduces and printed as a replayable schedule, and the harness
//! fails.
//!
//! `--smoke` is a 30-seed sweep (seeds 9, 19 and 29 are single-processor,
//! so the standalone backend is in the matrix). The planted bugs are
//! `sweep racecheck`'s.

use midway_apps::fuzz::{shrink, FuzzParams, Schedule};
use midway_bench::BenchArgs;
use midway_replay::differential;

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
        let Err(divergence) = differential(&s) else {
            if (seed + 1) % 50 == 0 {
                eprintln!(
                    "seed {seed}: ok ({} ops, {} procs)",
                    s.op_count(),
                    s.params.procs
                );
            }
            continue;
        };
        failures += 1;
        println!("== seed {seed} DIVERGED ==");
        println!("  {divergence}");
        // Shrink while any divergence reproduces, then print the
        // replayable reproducer.
        let small = shrink(&s, &|c| differential(c).is_err(), 300);
        println!("minimized reproducer ({} ops):", small.op_count());
        println!("{small}");
    }
    failures
}

pub(crate) fn run(args: BenchArgs) -> Result<Report, String> {
    let smoke = args.flag("--smoke");
    let verdict = |ok| Ok(Report { json: None, ok });

    if args.value("--seed").is_some() {
        let seed: u64 = args.num("--seed", 0)?;
        let s = Schedule::generate(seed, FuzzParams::for_seed(seed));
        println!("{s}");
        let agree = differential(&s);
        match &agree {
            Ok(()) => println!("seed {seed}: backends agree"),
            Err(d) => println!("  {d}"),
        }
        return verdict(agree.is_ok());
    }

    let count: u64 = args.num("--seeds", if smoke { 30 } else { 500 })?;
    println!("== differential fuzz: seeds 0..{count} ==");
    let failures = sweep(count);
    if failures == 0 {
        println!("all {count} seeds agree across backends");
    } else {
        println!("{failures} seeds diverged");
    }
    verdict(failures == 0)
}
