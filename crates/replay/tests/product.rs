//! The axes compose. Each axis alone preserves the final memory and the
//! Table 2 counters of a lock-order-independent application, so their
//! whole product must too: sor and matrix on every data backend under
//! {flat, tree} barriers × {modulo, sharded} homes × {no loss, 1% loss} ×
//! {no crash, processor 1 down a third of the way in}, every cell held to
//! the strict comparison — plus sor over TCP and over 1%-loss UDP under
//! every protocol choice.

use midway_apps::{AppKind, Scale};
use midway_core::{BackendKind, BarrierShape, FaultPlan, HomeMap, MidwayConfig};
use midway_replay::{check, record_app, Axes, Comparison, Trace, Transport};

const BARRIERS: [BarrierShape; 2] = [BarrierShape::Flat, BarrierShape::Tree { arity: 2 }];
const HOMES: [HomeMap; 2] = [HomeMap::Modulo, HomeMap::Sharded { seed: 5 }];

fn recorded(kind: AppKind, backend: BackendKind) -> Trace {
    record_app(kind, MidwayConfig::new(4, backend), Scale::Small)
}

/// Checks `trace` under `axes` and returns the comparison it was held to.
fn held_to(trace: &Trace, axes: Axes) -> Comparison {
    let v =
        check(trace, &axes).unwrap_or_else(|e| panic!("{} under {axes:?}: {e}", trace.meta.app));
    assert!(v.converged, "{} under {axes:?}", trace.meta.app);
    v.comparison
}

#[test]
fn every_axis_combination_converges_strictly() {
    for kind in [AppKind::Sor, AppKind::Matmul] {
        for backend in BackendKind::DATA {
            let trace = recorded(kind, backend);
            let len = trace.meta.finish_cycles;
            for (barrier, homes) in BARRIERS.into_iter().flat_map(|b| HOMES.map(|h| (b, h))) {
                for (loss, crash) in [(false, false), (false, true), (true, false), (true, true)] {
                    let mut faults = loss.then(|| FaultPlan::lossy(7, 10_000));
                    if crash {
                        let plan = faults.unwrap_or_else(FaultPlan::none);
                        faults = Some(plan.with_crash(1, len / 3, len / 20));
                    }
                    let axes = Axes {
                        barrier: Some(barrier),
                        homes: Some(homes),
                        transport: Transport::Sim {
                            faults,
                            checkpoint_every: None,
                        },
                        ..Axes::default()
                    };
                    let want = match faults {
                        None => Comparison::Exact,
                        Some(_) => Comparison::Converged,
                    };
                    assert_eq!(held_to(&trace, axes), want, "{backend:?} {axes:?}");
                }
            }
        }
    }
}

#[test]
fn sor_over_sockets_converges_under_every_protocol_choice() {
    let udp = Transport::Udp {
        loss: FaultPlan::seeded(7).drop_ppm(10_000),
    };
    for backend in BackendKind::DATA {
        let trace = recorded(AppKind::Sor, backend);
        for (barrier, homes) in BARRIERS.into_iter().flat_map(|b| HOMES.map(|h| (b, h))) {
            for transport in [Transport::Tcp, udp] {
                let axes = Axes {
                    barrier: Some(barrier),
                    homes: Some(homes),
                    transport,
                    ..Axes::default()
                };
                assert_eq!(held_to(&trace, axes), Comparison::Converged);
            }
        }
    }
}
