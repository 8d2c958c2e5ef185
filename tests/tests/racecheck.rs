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

use midway_apps::fuzz::{
    apply_mutation, catch_mutant, execute, mutant_caught, FuzzParams, MutantKind, Schedule,
};
use midway_apps::{run_app, AppKind, Scale};
use midway_core::{BackendKind, Midway, MidwayConfig, SystemBuilder};
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
/// rather than through `check`'s comparison.
#[test]
fn checking_is_off_clock_bit_for_bit() {
    for backend in [BackendKind::Rt, BackendKind::Vm, BackendKind::Blast] {
        let cfg = MidwayConfig::new(4, backend);
        let plain = run_app(AppKind::Sor, cfg, Scale::Small);
        let checked = run_app(AppKind::Sor, cfg.check(true), Scale::Small);
        assert_eq!(plain.finish_time, checked.finish_time, "{backend:?}");
        assert_eq!(plain.messages, checked.messages, "{backend:?}");
        assert_eq!(plain.counters, checked.counters, "{backend:?}");
        assert!(plain.check.is_none());
        assert!(checked.check.is_some());
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

/// Writes and synchronization are recorded, reads are not: a planted
/// store or rebind survives into a trace, and replaying it with the
/// checker attached fails `check` the same way.
#[test]
fn a_recorded_planted_bug_fails_check_naming_the_finding() {
    for kind in [MutantKind::DropAcquire, MutantKind::RogueRebind] {
        let (s, named) = planted(kind);
        let cfg = MidwayConfig::new(s.params.procs, BackendKind::Rt).record(true);
        let run = execute(&s, cfg, None).expect("the mutant runs");
        let trace = Trace::from_run(kind.label(), "fuzz", false, &run);
        let decoded = Trace::decode(&trace.encode()).expect("round-trip");
        let err = check(&decoded, &checked()).expect_err(kind.label());
        for text in named {
            assert!(err.contains(&text), "{}: {err}", kind.label());
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
