//! The differential fuzzer as a test suite: a fixed band of seeds must
//! pass `check` on every backend, and every planted mutant kind must be
//! caught with a minimized, still-failing reproducer.

use midway_apps::fuzz::{
    apply_mutation, backends_for, mutant_caught, shrink, FuzzOp, FuzzParams, MutantKind, Schedule,
};
use midway_core::BackendKind;
use midway_replay::{check, differential, Axes, Program};

/// A band of fixed seeds (covering single- and multi-processor shapes)
/// runs divergence-free on every applicable backend.
#[test]
fn fixed_seed_band_agrees_across_backends() {
    for seed in 0..20 {
        let s = Schedule::generate(seed, FuzzParams::for_seed(seed));
        assert!(s.validate(), "seed {seed}: invalid schedule generated");
        if let Err(d) = differential(&s) {
            panic!("seed {seed} diverged: {d}");
        }
    }
}

/// The single-processor shapes include the standalone backend in their
/// matrix; multi-processor shapes cover the five data-moving ones.
#[test]
fn backend_matrix_includes_standalone_for_single_proc_seeds() {
    let solo = FuzzParams::for_seed(9);
    assert_eq!(solo.procs, 1);
    assert_eq!(backends_for(solo.procs).len(), 6);
    let multi = FuzzParams::for_seed(0);
    assert!(multi.procs >= 2);
    assert_eq!(backends_for(multi.procs).len(), 5);
}

/// Every planted mutant kind is caught by the dynamic checker at seed 0
/// on the reference backend, the shrunk reproducer still fails, and the
/// catch is the planted processor's: credited to another, it is not one.
#[test]
fn every_mutant_kind_is_caught_and_shrinks() {
    let rt = BackendKind::Rt;
    let caught = |s: &Schedule| mutant_caught(s, rt);
    for kind in MutantKind::ALL {
        let base = Schedule::generate(0, FuzzParams::mutant());
        let mutated = apply_mutation(&base, kind, 0).expect("mutation applies to the base");
        assert!(
            mutated.validate(),
            "{}: mutant schedule invalid",
            kind.label()
        );
        assert!(
            caught(&mutated),
            "{}: planted bug not caught at seed 0",
            kind.label()
        );
        let small = shrink(&mutated, &caught, 150);
        assert!(
            caught(&small),
            "{}: shrunk reproducer no longer caught",
            kind.label()
        );
        assert!(
            small.op_count() <= mutated.op_count(),
            "{}: shrink grew the schedule",
            kind.label()
        );
        let mut framed = small.clone();
        framed.mutant_proc = (small.mutant_proc + 1) % small.params.procs;
        assert!(
            !caught(&framed),
            "{}: caught on the wrong processor",
            kind.label()
        );
    }
}

/// A schedule whose run fails is a divergence naming the backend, not a
/// panic that takes the sweep down with it: processor 0 takes lock 0 and
/// never gives it back, so its read-back re-acquires a lock it holds.
#[test]
fn a_failing_schedule_is_an_error_naming_the_backend() {
    let mut s = Schedule::generate(0, FuzzParams::mutant());
    s.rounds = vec![vec![Vec::new(); s.params.procs]];
    s.rounds[0][0].push(FuzzOp::Acquire {
        lock: 0,
        shared: false,
    });
    let err = differential(&s).expect_err("the schedule cannot run");
    assert!(err.starts_with(BackendKind::Rt.label()), "{err}");
}

/// Fuzz schedules through the axis product (`Axes::product`), each run
/// held to the schedule's model: {flat, tree of arity 2} barriers ×
/// {modulo, sharded} homes × {no loss, 1% loss} × {no crash, processor 1
/// down a third of the way in} on the simulator, plus lossless and
/// 1%-loss TCP under every protocol choice, on every data backend.
#[test]
fn fixed_seeds_hold_their_model_through_the_axis_product() {
    for seed in 0..9 {
        let s = Schedule::generate(seed, FuzzParams::for_seed(seed));
        assert!(s.params.procs >= 2, "seed {seed} has no processor 1");
        let len = s.reference().expect("reference run").finish_time.cycles();
        for backend in BackendKind::DATA {
            for cell in Axes::product(len) {
                let axes = Axes {
                    backend: Some(backend),
                    check: true,
                    ..cell
                };
                if let Err(e) = check(&s, &axes) {
                    panic!("seed {seed} under {axes:?}: {e}");
                }
            }
        }
    }
}
