//! Transport-trait conformance suite.
//!
//! Every behavioral property the DSM protocol engine relies on is checked
//! as a generic function over [`Transport`], then run against both
//! concrete transports: the virtual-time simulator (`ProcHandle`) and real
//! loopback TCP. A failure is the same [`RunError`] on both, and loss
//! comes only from the run's fault plan. A transport that passes this
//! suite can host the protocol engine.

use std::time::Duration;

use midway_net::{
    Reader, RealCluster, RealConfig, RealTransport, Transport, Wire, WireError, Writer,
};
use midway_sim::{Cluster, ClusterConfig, FaultDecision, FaultPlan, ProcHandle, RunError};

/// The suite's message type: a bare payload word.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TMsg(u64);

impl Wire for TMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.u64(self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<TMsg, WireError> {
        Ok(TMsg(r.u64()?))
    }
}

/// Short watchdog so a conformance bug fails the suite instead of
/// hanging it.
fn tcp() -> RealConfig {
    RealConfig::tcp().watchdog(Some(Duration::from_secs(30)))
}

/// How a body fails on the simulator, to hold the sockets' failure to.
fn sim_error(procs: usize, body: impl Fn(&mut ProcHandle<TMsg>)) -> RunError {
    Cluster::run(ClusterConfig::new(procs), body).unwrap_err()
}

// ---------------------------------------------------------------- ordering

/// Per-pair FIFO: every processor > 0 sends a numbered burst to proc 0,
/// which must observe each source's numbers in send order (no cross-pair
/// ordering is asserted).
fn ordering_body<T: Transport<Msg = TMsg>>(t: &mut T, burst: u64) -> bool {
    if t.id() == 0 {
        let senders = t.procs() - 1;
        let mut next = vec![0u64; t.procs()];
        for _ in 0..senders as u64 * burst {
            let (_, src, TMsg(n)) = t.recv();
            if n != next[src] {
                return false;
            }
            next[src] += 1;
        }
        next.iter().skip(1).all(|&n| n == burst)
    } else {
        for n in 0..burst {
            t.send(0, TMsg(n), 8);
        }
        true
    }
}

#[test]
fn ordering_sim() {
    let out = Cluster::run(ClusterConfig::new(4), |h: &mut ProcHandle<TMsg>| {
        ordering_body(h, 200)
    })
    .unwrap();
    assert!(out.results.iter().all(|&ok| ok));
}

#[test]
fn ordering_tcp() {
    let out = RealCluster::run(ClusterConfig::new(4), &tcp(), |t| ordering_body(t, 200)).unwrap();
    assert!(out.results.iter().all(|&ok| ok));
}

// ---------------------------------------------------------- self delivery

/// Self-posts come back from the processor's own id, in deadline order,
/// never early.
fn self_post_body<T: Transport<Msg = TMsg>>(t: &mut T) -> Vec<u64> {
    let posted_at = t.now();
    t.post_self(TMsg(3), 30_000);
    t.post_self(TMsg(1), 10_000);
    t.post_self(TMsg(2), 20_000);
    let mut got = Vec::new();
    for _ in 0..3 {
        let (at, src, TMsg(n)) = t.recv();
        assert_eq!(src, t.id(), "self-posts must come from self");
        assert!(
            at.cycles() >= posted_at.cycles() + n * 10_000,
            "timer fired early: {at:?} for delay {}",
            n * 10_000
        );
        got.push(n);
    }
    got
}

#[test]
fn self_post_sim() {
    let out = Cluster::run(ClusterConfig::new(2), |h: &mut ProcHandle<TMsg>| {
        self_post_body(h)
    })
    .unwrap();
    assert_eq!(out.results, vec![vec![1, 2, 3], vec![1, 2, 3]]);
}

#[test]
fn self_post_tcp() {
    let out = RealCluster::run(ClusterConfig::new(2), &tcp(), self_post_body).unwrap();
    assert_eq!(out.results, vec![vec![1, 2, 3], vec![1, 2, 3]]);
}

// ------------------------------------------------------------- violations

/// Proc 0 reports a protocol violation while its peers sit blocked in
/// `recv` and `drain_recv`; the violation must come through typed, with
/// the reporter's id, and must wake everyone (the run terminates).
fn violation_body<T: Transport<Msg = TMsg>>(t: &mut T) {
    match t.id() {
        0 => t.protocol_violation("acquire for lock 9 routed to non-home".into()),
        1 => {
            t.recv();
        }
        _ => while t.drain_recv().is_some() {},
    }
}

#[test]
fn violation_sim() {
    let err = Cluster::run(ClusterConfig::new(3), |h: &mut ProcHandle<TMsg>| {
        violation_body(h)
    })
    .unwrap_err();
    match err {
        RunError::ProtocolViolation { proc, message } => {
            assert_eq!(proc, 0);
            assert!(message.contains("lock 9"));
        }
        other => panic!("expected protocol violation, got {other:?}"),
    }
}

#[test]
fn violation_tcp() {
    let err = RealCluster::run(ClusterConfig::new(3), &tcp(), violation_body).unwrap_err();
    assert_eq!(err, sim_error(3, violation_body));
}

/// App violations carry their own type.
fn app_violation_body<T: Transport<Msg = TMsg>>(t: &mut T) {
    match t.id() {
        0 => t.app_violation("shared write out of bounds".into()),
        _ => while t.drain_recv().is_some() {},
    }
}

#[test]
fn app_violation_sim() {
    let err = Cluster::run(ClusterConfig::new(2), |h: &mut ProcHandle<TMsg>| {
        app_violation_body(h)
    })
    .unwrap_err();
    assert!(matches!(err, RunError::AppViolation { proc: 0, .. }));
}

#[test]
fn app_violation_tcp() {
    let err = RealCluster::run(ClusterConfig::new(2), &tcp(), app_violation_body).unwrap_err();
    assert_eq!(err, sim_error(2, app_violation_body));
}

/// Plain panics in the closure are caught and attributed.
fn panic_body<T: Transport<Msg = TMsg>>(t: &mut T) {
    if t.id() == 1 {
        panic!("boom on proc 1");
    }
    while t.drain_recv().is_some() {}
}

#[test]
fn panic_tcp() {
    let err = RealCluster::run(ClusterConfig::new(3), &tcp(), panic_body).unwrap_err();
    let want = RunError::ProcPanicked {
        proc: 1,
        message: "boom on proc 1".to_string(),
    };
    assert_eq!(err, want);
    assert_eq!(sim_error(3, panic_body), want);
}

// ------------------------------------------------------------- quiescence

/// `drain_recv` returns every sent message, then `None` everywhere once
/// the cluster is quiet — including messages sent from inside drain
/// handlers (proc 1 forwards what it gets to proc 2).
fn drain_body<T: Transport<Msg = TMsg>>(t: &mut T) -> u64 {
    if t.id() == 0 {
        for n in 0..10 {
            t.send(1, TMsg(n), 8);
        }
    }
    let mut seen = 0;
    while let Some((_, src, TMsg(n))) = t.drain_recv() {
        if src != t.id() {
            seen += 1;
        }
        if t.id() == 1 && src == 0 {
            t.send(2, TMsg(n), 8);
        }
    }
    seen
}

#[test]
fn drain_quiesce_sim() {
    let out = Cluster::run(ClusterConfig::new(3), |h: &mut ProcHandle<TMsg>| {
        drain_body(h)
    })
    .unwrap();
    assert_eq!(out.results, vec![0, 10, 10]);
}

#[test]
fn drain_quiesce_tcp() {
    let out = RealCluster::run(ClusterConfig::new(3), &tcp(), drain_body).unwrap();
    assert_eq!(out.results, vec![0, 10, 10]);
}

/// Pending self-timers hold off quiescence: a drain must still deliver a
/// timer posted before draining started, even with an empty network.
fn drain_timer_body<T: Transport<Msg = TMsg>>(t: &mut T) -> u64 {
    t.post_self(TMsg(7), 50_000);
    let mut ticks = 0;
    while let Some((_, src, _)) = t.drain_recv() {
        assert_eq!(src, t.id());
        ticks += 1;
    }
    ticks
}

#[test]
fn drain_waits_for_timers_sim() {
    let out = Cluster::run(ClusterConfig::new(2), |h: &mut ProcHandle<TMsg>| {
        drain_timer_body(h)
    })
    .unwrap();
    assert_eq!(out.results, vec![1, 1]);
}

#[test]
fn drain_waits_for_timers_tcp() {
    let out = RealCluster::run(ClusterConfig::new(2), &tcp(), drain_timer_body).unwrap();
    assert_eq!(out.results, vec![1, 1]);
}

// ------------------------------------------------------------ real extras

#[test]
fn watchdog_aborts_hung_run_with_dumps() {
    // Both processors block in recv forever (the simulator would call it
    // a deadlock; wall-clock transports cannot see that, so the watchdog
    // steps in).
    let cfg = RealConfig::tcp().watchdog(Some(Duration::from_millis(300)));
    let err = RealCluster::run(
        ClusterConfig::new(2),
        &cfg,
        |t: &mut RealTransport<TMsg>| {
            t.recv();
        },
    )
    .unwrap_err();
    match err {
        RunError::Watchdog { dumps, .. } => {
            assert_eq!(dumps.len(), 2);
            assert!(dumps[0].contains("status=recv"), "dump: {}", dumps[0]);
        }
        other => panic!("expected watchdog abort, got {other:?}"),
    }
}

/// Loss comes only from the run's fault plan, applied at the send site:
/// over TCP each message arrives exactly as often as the plan's decision
/// for its `(src, dst, seq)` says (never when dropped, twice when
/// duplicated), in per-pair send order, so the same plan yields the same
/// deliveries every run.
#[test]
fn injected_faults_are_exact_fifo_and_repeat() {
    const BURST: u64 = 300;
    let plan = FaultPlan::lossy(3, 200_000).dup_ppm(100_000);
    let run = || {
        let cluster = ClusterConfig::new(3).faults(plan);
        let out = RealCluster::run(cluster, &tcp(), |t: &mut RealTransport<TMsg>| {
            let mut fates = Vec::new();
            if t.id() != 0 {
                fates = (0..BURST).map(|n| t.send(0, TMsg(n), 8)).collect();
            }
            let mut got = vec![Vec::new(); t.procs()];
            while let Some((_, src, TMsg(n))) = t.drain_recv() {
                got[src].push(n);
            }
            (got, fates)
        })
        .unwrap();
        let fates: Vec<Vec<FaultDecision>> = out.results.iter().map(|r| r.1.clone()).collect();
        (out.results[0].0.clone(), fates)
    };
    let (got, fates) = run();
    for src in 1..3 {
        let copies = |n: u64| match plan.decide(src, 0, n) {
            FaultDecision::Drop => 0,
            FaultDecision::Duplicate { .. } => 2,
            _ => 1,
        };
        let want: Vec<u64> = (0..BURST)
            .flat_map(|n| std::iter::repeat(n).take(copies(n)))
            .collect();
        assert_eq!(got[src], want, "deliveries from processor {src}");
        let fates = &fates[src];
        let count = |kind: fn(&FaultDecision) -> bool| fates.iter().filter(|f| kind(f)).count();
        let dropped = count(|f| *f == FaultDecision::Drop) as u64;
        let duplicated = count(|f| matches!(f, FaultDecision::Duplicate { .. })) as u64;
        assert!(dropped > 0 && duplicated > 0, "{fates:?}");
        assert_eq!(want.len() as u64, BURST - dropped + duplicated);
        // Sockets deliver every other decision normally, and say so.
        assert_eq!(
            count(|f| *f == FaultDecision::Deliver) as u64,
            BURST - dropped - duplicated
        );
    }
    assert_eq!(run(), (got, fates));
}

#[test]
fn tcp_report_counts_messages() {
    let out = RealCluster::run(
        ClusterConfig::new(2),
        &tcp(),
        |t: &mut RealTransport<TMsg>| {
            let mut delivered = 0u64;
            if t.id() == 0 {
                for n in 0..25 {
                    delivered += u64::from(t.send(1, TMsg(n), 16) == FaultDecision::Deliver);
                }
            }
            let mut got = 0u64;
            while t.drain_recv().is_some() {
                got += 1;
            }
            (delivered, got)
        },
    )
    .unwrap();
    assert_eq!(out.results, vec![(25, 0), (0, 25)]);
    assert!(out.messages_delivered >= 25);
}

// ------------------------------------------------- one thread, many peers

/// A frame far larger than any loopback socket buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Bulk(Vec<u8>);

impl Wire for Bulk {
    fn encode(&self, out: &mut Vec<u8>) {
        out.bytes_le32(&self.0);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Bulk, WireError> {
        Ok(Bulk(r.bytes_le32()?.to_vec()))
    }
}

/// Both processors send 8 MiB before either receives. With every
/// processor on one thread, a `send` that could block on a full kernel
/// buffer would never let the peer run to empty it.
fn bulk_exchange_body<T: Transport<Msg = Bulk>>(t: &mut T) -> bool {
    const LEN: usize = 8 << 20;
    let fill = t.id() as u8 + 1;
    let peer = 1 - t.id();
    t.send(peer, Bulk(vec![fill; LEN]), LEN as u64);
    let (_, src, Bulk(got)) = t.recv();
    src == peer && got.len() == LEN && got.iter().all(|&b| b == peer as u8 + 1)
}

#[test]
fn bulk_exchange_sim() {
    let out = Cluster::run(ClusterConfig::new(2), |h: &mut ProcHandle<Bulk>| {
        bulk_exchange_body(h)
    })
    .unwrap();
    assert_eq!(out.results, vec![true, true]);
}

#[test]
fn bulk_exchange_tcp() {
    let out = RealCluster::run(ClusterConfig::new(2), &tcp(), bulk_exchange_body).unwrap();
    assert_eq!(out.results, vec![true, true]);
}

/// Eight processors each send a burst to every peer, then drain. Returns
/// how many of its sends the transport delivered and how many network
/// messages this processor saw before quiescence.
fn all_to_all_body<T: Transport<Msg = TMsg>>(t: &mut T, burst: u64) -> (u64, u64) {
    let mut delivered = 0;
    for dst in 0..t.procs() {
        for n in 0..burst {
            if dst != t.id() {
                delivered += u64::from(t.send(dst, TMsg(n), 8) == FaultDecision::Deliver);
            }
        }
    }
    let mut seen = 0;
    while t.drain_recv().is_some() {
        seen += 1;
    }
    (delivered, seen)
}

#[test]
fn all_to_all_burst_quiesces_tcp() {
    let out = RealCluster::run(ClusterConfig::new(8), &tcp(), |t| all_to_all_body(t, 50)).unwrap();
    assert_eq!(out.results, vec![(7 * 50, 7 * 50); 8]);
    assert_eq!(out.messages_delivered, 8 * 7 * 50);
}
