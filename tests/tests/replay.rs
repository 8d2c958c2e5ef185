//! Cross-backend trace replay equivalence: record a live application run,
//! round-trip the trace through the binary format, replay it without the
//! application, and require bit-for-bit agreement on every Table 2
//! counter, the finish time and the message count.
//!
//! This is the end-to-end form of the determinism argument: because the
//! simulator delivers events in a canonical order, a processor's
//! recorded shared-memory operation stream fully determines the run.

use midway_apps::{run_app, AppKind, Scale};
use midway_core::{BackendKind, FaultPlan, MidwayConfig};
use midway_replay::{check, record_app, replay, verify_replay, Axes, Trace};

/// Records `kind` under `backend`, round-trips the trace through the byte
/// format, and checks the replay oracle.
fn record_and_verify(kind: AppKind, backend: BackendKind, procs: usize) {
    let cfg = MidwayConfig::new(procs, backend);
    let trace = record_app(kind, cfg, Scale::Small);
    // The live run's numbers, as the trace's header carries them.
    let live = &trace.meta;

    // The trace that reaches a replayer has been through the file format.
    let decoded = Trace::decode(&trace.encode()).expect("round-trip");
    assert_eq!(decoded, trace, "encode/decode must be lossless");

    let run = verify_replay(&decoded).unwrap_or_else(|divergence| {
        panic!(
            "{} replay diverged under {}: {divergence}",
            kind.label(),
            backend.label()
        )
    });

    // Spot-check the oracle compared something real.
    assert_eq!(run.finish_time.cycles(), live.finish_cycles);
    assert_eq!(run.counters, live.counters);
    assert_eq!(run.messages, live.messages);
    assert!(
        run.finish_time.cycles() > 0,
        "a replayed run still charges time"
    );
}

#[test]
fn sor_replays_bit_for_bit_on_rt() {
    record_and_verify(AppKind::Sor, BackendKind::Rt, 4);
}

#[test]
fn sor_replays_bit_for_bit_on_vm() {
    record_and_verify(AppKind::Sor, BackendKind::Vm, 4);
}

#[test]
fn matmul_replays_bit_for_bit_on_rt() {
    record_and_verify(AppKind::Matmul, BackendKind::Rt, 4);
}

#[test]
fn matmul_replays_bit_for_bit_on_vm() {
    record_and_verify(AppKind::Matmul, BackendKind::Vm, 4);
}

#[test]
fn quicksort_replays_bit_for_bit_on_both_backends() {
    record_and_verify(AppKind::Quicksort, BackendKind::Rt, 4);
    record_and_verify(AppKind::Quicksort, BackendKind::Vm, 4);
}

#[test]
fn sor_and_quicksort_replay_bit_for_bit_on_hybrid() {
    record_and_verify(AppKind::Sor, BackendKind::Hybrid, 4);
    record_and_verify(AppKind::Quicksort, BackendKind::Hybrid, 4);
}

/// A trace recorded under RT-DSM, replayed under another backend, equals
/// a live run of the application under that backend — for
/// [`AppKind::lock_order_independent`] applications only (sor, matrix).
/// Their streams are fixed by barriers, so the recorded stream *is* what
/// the application would do under any backend. The other applications
/// arbitrate locks by arrival time, which the backend changes: a live VM
/// run takes different grant orders (and so does different work) than the
/// RT stream replayed under VM, and harnesses that report another
/// backend's numbers therefore run it live.
#[test]
fn rt_trace_replayed_on_other_backends_matches_live_runs() {
    for app in [AppKind::Sor, AppKind::Matmul] {
        assert!(app.lock_order_independent());
        let trace = record_app(app, MidwayConfig::new(4, BackendKind::Rt), Scale::Small);
        for backend in [
            BackendKind::Vm,
            BackendKind::Blast,
            BackendKind::TwinAll,
            BackendKind::Hybrid,
        ] {
            let cfg = MidwayConfig::new(4, backend);
            let replayed = replay(&trace, cfg).expect("replay");
            let live = run_app(app, cfg, Scale::Small);
            let what = format!("{} under {}", app.label(), backend.label());
            assert_eq!(
                replayed.counters, live.counters,
                "replayed-from-RT-trace counters diverge from live run: {what}"
            );
            assert_eq!(
                replayed.finish_time.cycles(),
                live.finish_time.cycles(),
                "replayed-from-RT-trace finish time diverges: {what}"
            );
        }
    }
}

/// Replaying a trace with recording on reproduces the identical trace:
/// the recorder and replayer are exact inverses.
#[test]
fn replaying_with_recording_reproduces_the_trace() {
    let trace = record_app(
        AppKind::Sor,
        MidwayConfig::new(2, BackendKind::Rt),
        Scale::Small,
    );
    let cfg = trace.recorded_cfg().record(true);
    let rerun = replay(&trace, cfg).expect("replay");
    let retrace = Trace::from_run(
        &trace.meta.app,
        &trace.meta.scale,
        trace.meta.verified,
        &rerun,
    );
    assert_eq!(retrace.ops, trace.ops, "re-recorded op streams differ");
    assert_eq!(retrace.blueprint, trace.blueprint);
    assert_eq!(retrace.encode(), trace.encode(), "byte-identical files");
}

/// A recording made on a lossy network carries the network's and the
/// reliable channel's rows in its header too: it checks clean, and a
/// recorded retransmit count the replay does not reproduce fails the
/// check, naming the processor and the row.
#[test]
fn a_lossy_recording_holds_its_delivery_rows() {
    let cfg = MidwayConfig::new(4, BackendKind::Rt).faults(FaultPlan::lossy(7, 10_000));
    let recorded = record_app(AppKind::Sor, cfg, Scale::Small);
    let mut trace = Trace::decode(&recorded.encode()).expect("round-trip");
    let lossy = |p: usize| trace.meta.counters[p].msgs_dropped > 0;
    let p = (0..4).find(|&p| lossy(p)).expect("1% loss drops a message");
    check(&trace, &Axes::default()).expect("the lossy recording checks clean");

    trace.meta.counters[p].retransmits += 1;
    let err = check(&trace, &Axes::default()).expect_err("a forged retransmit count");
    assert!(
        err.contains(&format!("processor {p}: retransmits")),
        "{err}"
    );
}
