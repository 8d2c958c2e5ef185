//! The dynamic entry-consistency checker, end to end.
//!
//! Three properties, each exercised across backends:
//!
//! * **Zero false positives** — the five correct applications are clean
//!   on every data-moving backend.
//! * **Off-clock** — a run with checking enabled is bit-for-bit identical
//!   to one without: same finish time, message count, counters, final
//!   memory digests.
//! * **True positives** — every seeded mutant produces a finding of the
//!   planted kind with the planted provenance, and a recorded mutant
//!   trace still reports it when checked with the checker attached.

use midway_apps::mutants::{run_mutant, MutantKind};
use midway_apps::{run_app, AppKind, Scale};
use midway_core::{BackendKind, FindingKind, Midway, MidwayConfig, SystemBuilder};
use midway_replay::{check, record_app, Axes, Comparison, Trace};

/// Checks `trace` with the checker as the only delivery axis, which must
/// leave the replay bit-for-bit identical to the recording.
fn racecheck(trace: &Trace) -> midway_core::CheckReport {
    let checked = Axes {
        check: true,
        ..Axes::default()
    };
    let v = check(trace, &checked).expect("checked replay must stay bit-for-bit");
    assert_eq!(v.comparison, Comparison::Exact);
    v.checked.check.expect("checker ran")
}

#[test]
fn clean_apps_are_clean_on_every_data_backend() {
    for kind in AppKind::all() {
        for backend in BackendKind::DATA {
            let cfg = MidwayConfig::new(4, backend).check(true);
            let report = run_app(kind, cfg, Scale::Small).check.expect("checker ran");
            assert!(
                report.is_clean(),
                "false positive: {} under {}: {}\nfirst: {}",
                kind.label(),
                backend.label(),
                report.summary(),
                report
                    .findings
                    .first()
                    .map_or_else(|| "<capped>".to_string(), std::string::ToString::to_string),
            );
            assert!(report.events > 0, "checker saw no events");
        }
    }
}

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
fn every_mutant_is_detected_on_every_data_backend() {
    for kind in MutantKind::ALL {
        for backend in BackendKind::DATA {
            let (run, expect) = run_mutant(kind, MidwayConfig::new(4, backend));
            let report = run.check.expect("checker ran");
            let f = report.first_of(expect.kind).unwrap_or_else(|| {
                panic!(
                    "{} under {}: no {:?} finding; report: {}",
                    kind.label(),
                    backend.label(),
                    expect.kind,
                    report.summary()
                )
            });
            assert_eq!(f.proc, expect.proc, "{} {}", kind.label(), backend.label());
            assert_eq!(
                f.alloc.as_deref(),
                Some(expect.alloc),
                "{} {}",
                kind.label(),
                backend.label()
            );
            if expect.kind == FindingKind::BindingViolation {
                assert!(f.lock.is_some(), "binding violations name the lock");
            }
            if expect.kind == FindingKind::StaleRead {
                let s = f.stale.expect("stale reads carry the missed write");
                assert_ne!(s.writer, f.proc);
            }
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
    assert!(
        racecheck(&decoded).is_clean(),
        "false positive on a replayed clean trace"
    );
}

#[test]
fn recorded_mutant_trace_still_reports_the_bug() {
    // Write and synchronization violations survive into traces (reads do
    // not — they are local and never recorded).
    let cfg = MidwayConfig::new(4, BackendKind::Rt).record(true);
    let (run, expect) = run_mutant(MutantKind::DropAcquire, cfg);
    let trace = Trace::from_run("mutant", "small", false, &run);
    let decoded = Trace::decode(&trace.encode()).expect("round-trip");
    let report = racecheck(&decoded);
    let f = report
        .first_of(expect.kind)
        .expect("bug survives the trace");
    assert_eq!(f.proc, expect.proc);
    assert_eq!(f.alloc.as_deref(), Some(expect.alloc));
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
        midway_core::SimError::AppViolation { message, .. } => {
            assert!(message.contains("out of bounds"), "{message}");
            assert!(message.contains("2..5"), "{message}");
        }
        other => panic!("expected AppViolation, got {other:?}"),
    }
}
