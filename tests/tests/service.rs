//! End-to-end tests of the service workload family: the sharded KV
//! store and the high-churn task queue, across every backend, through
//! the recording/replay oracle, and over the real TCP transport.

use std::time::Duration;

use midway_apps::{run_app, run_app_real, AppKind, Scale};
use midway_core::{BackendKind, MidwayConfig, RealConfig};
use midway_replay::{record_app, verify_replay, Trace};

const PROCS: usize = 4;

/// Every service application completes and self-verifies on every
/// data-moving backend (`run_app` panics on a failed check).
#[test]
fn every_service_app_verifies_on_every_backend() {
    for kind in AppKind::service() {
        for backend in BackendKind::DATA {
            run_app(kind, MidwayConfig::new(PROCS, backend), Scale::Small);
        }
    }
}

/// The simulator is deterministic: rerunning a service app bit-for-bit
/// reproduces finish time, message count, and final memory.
#[test]
fn service_runs_are_deterministic() {
    for kind in AppKind::service() {
        let cfg = MidwayConfig::new(PROCS, BackendKind::Rt);
        let a = run_app(kind, cfg, Scale::Small);
        let b = run_app(kind, cfg, Scale::Small);
        assert_eq!(a.finish_time, b.finish_time, "{}", kind.label());
        assert_eq!(a.messages, b.messages, "{}", kind.label());
        assert_eq!(a.store_digests, b.store_digests, "{}", kind.label());
    }
}

/// Service apps run on the standalone uniprocessor build too.
#[test]
fn service_apps_run_standalone() {
    for kind in AppKind::service() {
        run_app(kind, MidwayConfig::standalone(), Scale::Small);
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

/// The service family survives the real TCP transport (threads and
/// loopback sockets instead of virtual time).
#[test]
fn service_apps_complete_on_tcp() {
    let real = RealConfig::tcp().watchdog(Some(Duration::from_secs(60)));
    for kind in AppKind::service() {
        let cfg = MidwayConfig::new(PROCS, BackendKind::Rt);
        if let Err(e) = run_app_real(kind, cfg, &real, Scale::Small) {
            panic!("{} failed on TCP: {e}", kind.label());
        }
    }
}
