//! The axes compose. Each axis alone preserves what every run of a program
//! must share, so their whole product must too: `Axes::product` on every
//! data backend — {flat, tree} barriers × {modulo, sharded} homes ×
//! {no loss, 1% loss} × {no crash, processor 1 down a third of the way
//! in} on the simulator, and lossless and 1%-loss TCP under every
//! protocol choice. sor and matrix traces take the simulator cells and sor
//! traces the socket cells; every application takes them all live. sor
//! and matrix are held to the strict comparison either way, the rest to
//! their own check and bit-for-bit reruns. Every socket cell runs the
//! entry-consistency checker too, and a finding fails it: the checker
//! orders a socket run's ops by happens-before, not by its wall clock.

use midway_apps::{AppKind, Scale};
use midway_core::{BackendKind, MidwayConfig};
use midway_replay::{check, record_app, App, Axes, Comparison, Program, Transport};

/// The product's cells for a program whose reference run takes `len`
/// cycles, the checker attached to every socket cell.
fn product(len: u64) -> impl Iterator<Item = Axes> {
    Axes::product(len).into_iter().map(|axes| Axes {
        check: matches!(axes.transport, Transport::Tcp { .. }),
        ..axes
    })
}

/// The product's cells on sockets (`true`) or on the simulator.
fn cells(len: u64, on_sockets: bool) -> impl Iterator<Item = Axes> {
    product(len).filter(move |axes| axes.check == on_sockets)
}

/// Checks `program` under `axes` and holds the verdict to what the cell
/// demands: the comparison its delivery axes call for, and a crash
/// recovered from stable storage. Returns the checked run's
/// retransmissions: 1% of a small run's frames may be none, so a live
/// test holds the sum over its lossy cells.
fn held_to<P: Program>(program: &P, axes: Axes, cell: &str) -> u64 {
    let v = check(program, &axes).unwrap_or_else(|e| panic!("{cell} under {axes:?}: {e}"));
    let want = match axes.transport {
        Transport::Sim { faults: None, .. } => Comparison::Exact,
        _ if program.must_converge() => Comparison::Converged,
        _ => Comparison::Reported,
    };
    assert_eq!(v.comparison, want, "{cell} under {axes:?}");
    if let Transport::Sim {
        faults: Some(plan), ..
    } = axes.transport
    {
        let t = *v.checked.avg_counters().totals();
        if plan.has_crashes() {
            assert!(
                t.recovery_replay_bytes > 0 && t.wal_bytes_logged > 0,
                "{cell} under {axes:?}: recovery from stable storage: {t:?}"
            );
        }
        assert!(
            v.checked.finish_time >= v.baseline.finish_time,
            "{cell} under {axes:?}: a fault cannot make the run faster"
        );
    }
    v.checked.link_totals().retransmits
}

#[test]
fn every_axis_combination_converges_strictly() {
    for kind in [AppKind::Sor, AppKind::Matmul] {
        for backend in BackendKind::DATA {
            let trace = record_app(kind, MidwayConfig::new(4, backend), Scale::Small);
            let cell = format!("{} trace on {}", kind.label(), backend.label());
            for axes in cells(trace.meta.finish_cycles, false) {
                held_to(&trace, axes, &cell);
            }
        }
    }
}

#[test]
fn sor_over_sockets_converges_under_every_protocol_choice() {
    for backend in BackendKind::DATA {
        let trace = record_app(AppKind::Sor, MidwayConfig::new(4, backend), Scale::Small);
        let cell = format!("sor trace on {}", backend.label());
        for axes in cells(trace.meta.finish_cycles, true) {
            held_to(&trace, axes, &cell);
        }
    }
}

/// `kind` live through every cell, on the simulator and over sockets.
fn live(kind: AppKind) {
    let mut retransmits = 0;
    for backend in BackendKind::DATA {
        let app = App {
            kind,
            scale: Scale::Small,
            cfg: MidwayConfig::new(4, backend),
        };
        let cell = format!("{} live on {}", kind.label(), backend.label());
        let len = app.reference().unwrap_or_else(|e| panic!("{cell}: {e}"));
        for axes in product(len.finish_time.cycles()) {
            retransmits += held_to(&app, axes, &cell);
        }
    }
    assert!(retransmits > 0, "{kind:?}: 1% loss was never repaired");
}

/// One test per application, so the debug profile runs them in parallel.
macro_rules! live {
    ($($test:ident: $kind:ident),*) => {
        $(#[test] fn $test() { live(AppKind::$kind) })*
    };
}

live!(
    water_holds_live_through_the_product: Water,
    quicksort_holds_live_through_the_product: Quicksort,
    matrix_converges_live_through_the_product: Matmul,
    sor_converges_live_through_the_product: Sor,
    cholesky_holds_live_through_the_product: Cholesky,
    kvstore_holds_live_through_the_product: KvStore,
    taskqueue_holds_live_through_the_product: TaskQueue
);
