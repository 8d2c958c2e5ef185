//! End-to-end tests of the service workload family: the sharded KV
//! store and the high-churn task queue, across every backend, through
//! the recording/replay oracle, and over the real TCP transport. Each
//! live run is a `check` of the application, held to its own audit.

use midway_apps::{AppKind, Scale};
use midway_core::{BackendKind, MidwayConfig};
use midway_replay::{check, record_app, verify_replay, App, Axes, Comparison, Trace, Transport};

const PROCS: usize = 4;

/// `kind` at small scale under `cfg`.
fn app(kind: AppKind, cfg: MidwayConfig) -> App {
    App {
        kind,
        scale: Scale::Small,
        cfg,
    }
}

/// Every service application completes and self-verifies on every
/// data-moving backend.
#[test]
fn every_service_app_verifies_on_every_backend() {
    for kind in AppKind::service() {
        for backend in BackendKind::DATA {
            let app = app(kind, MidwayConfig::new(PROCS, backend));
            check(&app, &Axes::default()).unwrap_or_else(|e| panic!("{app:?}: {e}"));
        }
    }
}

/// The simulator is deterministic: a second run of a service app, with
/// the off-clock checker attached, reproduces the first bit for bit —
/// finish time, message count, counters and final memory.
#[test]
fn service_runs_are_deterministic() {
    let axes = Axes {
        check: true,
        ..Axes::default()
    };
    for kind in AppKind::service() {
        let v = check(&app(kind, MidwayConfig::new(PROCS, BackendKind::Rt)), &axes)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
        assert_eq!(v.comparison, Comparison::Exact, "{}", kind.label());
    }
}

/// Service apps run on the standalone uniprocessor build too.
#[test]
fn service_apps_run_standalone() {
    for kind in AppKind::service() {
        check(&app(kind, MidwayConfig::standalone()), &Axes::default())
            .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
    }
}

/// Recorded service runs replay bit-for-bit through the trace format.
#[test]
fn service_traces_replay_bit_for_bit() {
    for kind in AppKind::service() {
        let cfg = MidwayConfig::new(PROCS, BackendKind::Rt);
        let trace = record_app(kind, cfg, Scale::Small);
        // Round-trip the encoded form too: what ships is what replays.
        let decoded = Trace::decode(&trace.encode()).expect("trace round-trips");
        verify_replay(&decoded)
            .unwrap_or_else(|e| panic!("{} trace diverged on replay: {e}", kind.label()));
    }
}

/// The service family survives the real TCP transport (loopback sockets
/// instead of virtual time; processors are still coroutines on one
/// thread).
#[test]
fn service_apps_complete_on_tcp() {
    let tcp = Axes {
        transport: Transport::Tcp { loss: None },
        ..Axes::default()
    };
    for kind in AppKind::service() {
        let v = check(&app(kind, MidwayConfig::new(PROCS, BackendKind::Rt)), &tcp)
            .unwrap_or_else(|e| panic!("{} on TCP: {e}", kind.label()));
        assert_eq!(v.comparison, Comparison::Reported);
    }
}
