//! The dynamic entry-consistency checker, end to end. A finding fails
//! `midway_replay::check`, whatever the program:
//!
//! * **Zero false positives, off-clock** — every application passes
//!   `check` with the checker attached on every data-moving backend, and
//!   `check` holds that checked run to the unchecked one bit for bit:
//!   finish time, messages, counters, final memory digests.
//! * **True positives** — every planted bug kind is caught on every data
//!   backend with its planted provenance, and shrunk; a planted schedule
//!   and its recording fail `check` naming the finding.
//! * **Either walk order** — both verdicts hold whichever ready processor
//!   the analysis walks first, the lowest-numbered or the highest, on the
//!   applications and on the fuzzer's fixed band of random programs.

use midway_apps::fuzz::{
    apply_mutation, backends_for, catch_mutant, caught_in, execute, mutant_caught, FuzzParams,
    MutantKind, Schedule,
};
use midway_apps::{run_app, AppKind, Scale};
use midway_core::{
    analyze, analyze_highest_first, BackendKind, CheckReport, FindingKind, Midway, MidwayConfig,
    MidwayRun, OpStream, SystemBuilder, TraceOp,
};
use midway_replay::{check, record_app, App, Axes, Comparison, Trace};

/// The checker as the only axis.
fn checked() -> Axes {
    Axes {
        check: true,
        ..Axes::default()
    }
}

#[test]
fn clean_apps_are_clean_on_every_data_backend() {
    for kind in AppKind::every() {
        for backend in BackendKind::DATA {
            let app = App {
                kind,
                scale: Scale::Small,
                cfg: MidwayConfig::new(4, backend),
            };
            let cell = format!("{} under {}", kind.label(), backend.label());
            let v = check(&app, &checked()).unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert_eq!(v.comparison, Comparison::Exact, "{cell}");
            assert!(
                v.baseline.check.is_none(),
                "{cell}: baseline ran the checker"
            );
            let report = v.checked.check.expect("checker ran");
            assert!(report.events > 0, "{cell}: checker saw no events");
        }
    }
}

/// The same property as the matrix above, held directly on two runs
/// rather than through `check`'s comparison, and on the recordings: a
/// checked recording is the plain one plus the reads and grants only the
/// checker reads.
#[test]
fn checking_is_off_clock_bit_for_bit() {
    let plain_ops = |stream: &OpStream| {
        let mut out = OpStream::default();
        for op in stream {
            if !matches!(op, TraceOp::Read { .. } | TraceOp::Grant { .. }) {
                out.record(op);
            }
        }
        out
    };
    for backend in [BackendKind::Rt, BackendKind::Vm, BackendKind::Blast] {
        let cfg = MidwayConfig::new(4, backend).record(true);
        let plain = run_app(AppKind::Sor, cfg, Scale::Small);
        let checked = run_app(AppKind::Sor, cfg.check(true), Scale::Small);
        assert_eq!(plain.finish_time, checked.finish_time, "{backend:?}");
        assert_eq!(plain.messages, checked.messages, "{backend:?}");
        assert_eq!(plain.counters, checked.counters, "{backend:?}");
        assert!(plain.check.is_none());
        assert!(checked.check.is_some());
        let stripped: Vec<OpStream> = checked.traces.iter().map(plain_ops).collect();
        assert_eq!(plain.traces, stripped, "{backend:?}");
        assert_ne!(
            plain.traces, checked.traces,
            "{backend:?}: no read recorded"
        );
    }
}

#[test]
fn checked_run_has_identical_memory_and_clocks() {
    let mut b = SystemBuilder::new();
    let x = b.shared_array::<u64>("x", 8, 1);
    let lock = b.lock(vec![x.full_range()]);
    let spec = b.build();
    let prog = |p: &mut midway_core::Proc| {
        for i in 0..8 {
            p.acquire(lock);
            let v = p.read(&x, i);
            p.write(&x, i, v + p.id() as u64 + 1);
            p.release(lock);
        }
    };
    let cfg = MidwayConfig::new(3, BackendKind::Rt);
    let plain = Midway::run(cfg, &spec, prog).unwrap();
    let checked = Midway::run(cfg.check(true), &spec, prog).unwrap();
    assert_eq!(plain.finish_time, checked.finish_time);
    assert_eq!(plain.messages, checked.messages);
    assert_eq!(plain.counters, checked.counters);
    assert_eq!(plain.store_digests, checked.store_digests);
    assert!(checked.check.expect("checker ran").is_clean());
}

#[test]
fn every_planted_bug_is_caught_and_shrunk_on_every_data_backend() {
    for kind in MutantKind::ALL {
        for backend in BackendKind::DATA {
            let cell = format!("{} under {}", kind.label(), backend.label());
            let (_, small) =
                catch_mutant(kind, backend, 25).unwrap_or_else(|| panic!("{cell}: not caught"));
            assert!(small.validate(), "{cell}: shrunk reproducer invalid");
            assert!(mutant_caught(&small, backend), "{cell}: shrunk, not caught");
        }
    }
}

/// A recorded, checked run's recording analyzed in both walk orders:
/// lowest-numbered ready processor first, then highest.
fn both_walks<R>(run: &MidwayRun<R>) -> [CheckReport; 2] {
    let bp = run.blueprint.as_ref().expect("recorded");
    let layout = bp.layout().expect("a recorded layout rebuilds");
    [analyze, analyze_highest_first]
        .map(|walk| walk(bp, &layout, &run.traces).unwrap_or_else(|(_, e)| panic!("{e}")))
}

/// Which of two concurrent accesses the walk visits first decides whether
/// a race shows as a stale read, so the order is pinned here: every
/// clean cell is clean in both orders, and every planted bug kind is
/// caught in both, within the seeds `catch_mutant` searches.
#[test]
fn verdicts_hold_in_both_walk_orders() {
    for kind in AppKind::every() {
        for backend in BackendKind::DATA {
            let cfg = MidwayConfig::new(4, backend).record(true).check(true);
            let run = run_app(kind, cfg, Scale::Small);
            for (walk, report) in both_walks(&run).iter().enumerate() {
                let cell = format!("{} under {}, walk {walk}", kind.label(), backend.label());
                assert!(report.is_clean(), "{cell}: {}", report.summary());
            }
        }
    }
    for kind in MutantKind::ALL {
        for backend in BackendKind::DATA {
            let mut caught = [false; 2];
            for seed in 0..25 {
                let base = Schedule::generate(seed, FuzzParams::mutant());
                let Some(s) = apply_mutation(&base, kind, seed) else {
                    continue;
                };
                let cfg = MidwayConfig::new(s.params.procs, backend)
                    .record(true)
                    .check(true);
                let run = execute(&s, cfg, None).expect("the mutant runs");
                for (c, report) in caught.iter_mut().zip(both_walks(&run)) {
                    *c |= caught_in(&s, &report);
                }
                if caught == [true; 2] {
                    break;
                }
            }
            let cell = format!("{} under {}", kind.label(), backend.label());
            assert_eq!(
                caught, [true; 2],
                "{cell}: caught in [lowest, highest] first"
            );
        }
    }
}

/// The walk order is pinned on arbitrary programs too: every seed of the
/// fuzzer's fixed clean band (`tests/fuzz.rs`) is clean in both walks on
/// every backend its processor count admits.
#[test]
fn fixed_fuzz_seeds_are_clean_in_both_walk_orders() {
    for seed in 0..20 {
        let s = Schedule::generate(seed, FuzzParams::for_seed(seed));
        for &backend in backends_for(s.params.procs) {
            let cfg = MidwayConfig::new(s.params.procs, backend)
                .record(true)
                .check(true);
            let run = execute(&s, cfg, None).expect("the schedule runs");
            for (walk, report) in both_walks(&run).iter().enumerate() {
                let cell = format!("seed {seed} under {}, walk {walk}", backend.label());
                assert!(report.is_clean(), "{cell}: {}", report.summary());
            }
        }
    }
}

/// The planted schedule at seed 0, and the finding `check` must name:
/// its kind's label and the mutant processor.
fn planted(kind: MutantKind) -> (Schedule, [String; 2]) {
    let base = Schedule::generate(0, FuzzParams::mutant());
    let s = apply_mutation(&base, kind, 0).expect("the base hosts every mutation");
    let named = [
        kind.finding().label().to_string(),
        format!("proc {}", s.mutant_proc),
    ];
    (s, named)
}

#[test]
fn a_planted_schedule_fails_check_naming_the_finding() {
    for kind in MutantKind::ALL {
        let (s, named) = planted(kind);
        let err = check(&s, &checked()).expect_err(kind.label());
        assert!(err.starts_with("checker found"), "{}: {err}", kind.label());
        for text in named {
            assert!(err.contains(&text), "{}: {err}", kind.label());
        }
    }
}

/// A planted bug survives into a recording, and replaying it with the
/// checker attached fails `check` the same way. A recording holds reads
/// only when it was made with the checker on, so the two read-ahead
/// bugs are recorded that way and the store and rebind bugs without it.
#[test]
fn a_recorded_planted_bug_fails_check_naming_the_finding() {
    for kind in MutantKind::ALL {
        let (s, named) = planted(kind);
        let reads = kind.finding() == FindingKind::StaleRead;
        let cfg = MidwayConfig::new(s.params.procs, BackendKind::Rt)
            .record(true)
            .check(reads);
        let run = execute(&s, cfg, None).expect("the mutant runs");
        let trace = Trace::from_run(kind.label(), "fuzz", false, &run);
        let decoded = Trace::decode(&trace.encode()).expect("round-trip");
        let err = check(&decoded, &checked()).expect_err(kind.label());
        for text in named {
            assert!(err.contains(&text), "{}: {err}", kind.label());
        }
    }
}

/// A trace file is the checker's whole input: a checked recording,
/// encoded and decoded, analyzed over the file's own declaration and
/// streams, gives the report the run's own check gave.
#[test]
fn a_decoded_trace_alone_reproduces_the_runs_check_report() {
    for kind in [AppKind::Quicksort, AppKind::Water] {
        for backend in [BackendKind::Rt, BackendKind::Vm] {
            let cfg = MidwayConfig::new(4, backend).record(true).check(true);
            let run = run_app(kind, cfg, Scale::Small);
            let bytes = Trace::from_run(kind.label(), "small", true, &run).encode();
            let trace = Trace::decode(&bytes).expect("decodes");
            let layout = trace
                .blueprint
                .layout()
                .expect("the file's layout rebuilds");
            let report = analyze(&trace.blueprint, &layout, &trace.ops).expect("ordered");
            let cell = format!("{} under {}", kind.label(), backend.label());
            assert!(report.events > 0, "{cell}: nothing analyzed");
            assert_eq!(Some(report), run.check, "{cell}");
        }
    }
}

#[test]
fn clean_recorded_trace_racechecks_bit_for_bit() {
    let trace = record_app(
        AppKind::Quicksort,
        MidwayConfig::new(4, BackendKind::Rt),
        Scale::Small,
    );
    let decoded = Trace::decode(&trace.encode()).expect("round-trip");
    let v = check(&decoded, &checked()).expect("no finding on a replayed clean trace");
    assert_eq!(v.comparison, Comparison::Exact);
}

#[test]
fn out_of_bounds_slice_write_is_a_typed_error() {
    let mut b = SystemBuilder::new();
    let x = b.shared_array::<u64>("x", 4, 1);
    let lock = b.lock(vec![x.full_range()]);
    let spec = b.build();
    let err = Midway::run(
        MidwayConfig::new(2, BackendKind::Rt),
        &spec,
        |p: &mut midway_core::Proc| {
            p.acquire(lock);
            p.write_slice(&x, 2, &[1u64, 2, 3]); // elements 2..5 of 4
            p.release(lock);
        },
    )
    .unwrap_err();
    match err {
        midway_core::RunError::AppViolation { message, .. } => {
            assert!(message.contains("out of bounds"), "{message}");
            assert!(message.contains("2..5"), "{message}");
        }
        other => panic!("expected AppViolation, got {other:?}"),
    }
}
