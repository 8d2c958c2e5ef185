//! Loss-rate sweep: finish time and reliability overhead per backend on
//! an unreliable network.
//!
//! The paper assumes a reliable interconnect; this measures what masking
//! an *unreliable* one costs each write-detection backend. One recorded
//! sor stream drives every point: for each data-moving backend it is
//! checked under a seeded fault plan at increasing drop rates against the
//! same backend's baseline on the trusted network (no reliable framing at
//! all). The loss-0 row therefore isolates the pure channel overhead —
//! framing bytes, acks, timers — and the remaining rows add real recovery
//! work (retransmissions after drops). The check holds every point to the
//! trusted run's final memory and to its counters outside the delivery
//! rows; the retransmit, ack, duplicate-frame and data-frame columns are
//! those delivery rows, summed over the cluster.

use midway_apps::Scale;
use midway_bench::{banner, run_cells, BenchArgs, Json, Record};
use midway_core::{BackendKind, FaultPlan};
use midway_replay::{check, Axes, Transport};
use midway_stats::fmt_f64;

use crate::{record_sor, Report};

/// Drop rates swept, in parts per million (0%, 0.25%, 0.5%, 1%, 2%, 5%).
const LOSS_PPM: [u32; 6] = [0, 2_500, 5_000, 10_000, 20_000, 50_000];

pub(crate) fn run(mut args: BenchArgs) -> Result<Report, String> {
    if args.flag("--smoke") {
        (args.scale, args.procs) = (Scale::Small, 4);
    }
    let seed: u64 = args.num("--fault-seed", 1)?;
    banner("Loss sweep: reliable delivery cost per backend", &args);
    let trace = record_sor(&args);
    println!("app: sor, fault seed: {seed}, drop rates: {LOSS_PPM:?} ppm\n");

    // One cell per backend, all checking the one trace read-only.
    let sweeps = run_cells(args.jobs, BackendKind::DATA.to_vec(), |backend| {
        LOSS_PPM.map(|loss| {
            let axes = Axes {
                backend: Some(backend),
                transport: Transport::Sim {
                    faults: Some(FaultPlan::lossy(seed, loss)),
                    checkpoint_every: None,
                },
                ..Axes::default()
            };
            let verdict = check(&trace, &axes)
                .unwrap_or_else(|e| panic!("{} at {loss} ppm loss: {e}", backend.label()));
            let (base, run) = (&verdict.baseline, &verdict.checked);
            let cost = base.cfg.cost;
            let base_ms = cost.cycles_to_millis(base.finish_time.cycles());
            let avg = run.avg_counters();
            let t = avg.totals();
            let ms = cost.cycles_to_millis(run.finish_time.cycles());
            let slowdown = ms / base_ms.max(1e-12);
            let times = format!("{slowdown:.2}x");
            Record::default()
                .json("backend", Json::str(backend.cli_name()))
                .col("backend", backend.label())
                .json("loss_ppm", Json::U64(u64::from(loss)))
                .col("loss (%)", fmt_f64(f64::from(loss) / 10_000.0, 2))
                .f64("finish_ms", "finish (ms)", ms, 1)
                .json("baseline_ms", Json::F64(base_ms))
                .field("slowdown", "slowdown", Json::F64(slowdown), times)
                .u64("retransmits", "retransmits", t.retransmits)
                .u64("acks", "acks", t.acks_sent)
                .u64("dup_frames", "dup frames", t.dup_frames_dropped)
                .json("data_frames", Json::U64(t.data_frames_sent))
        })
    });
    let points: Vec<Record> = sweeps.into_iter().flatten().collect();
    println!("{}", Record::table(&points, 1));
    println!("\nSlowdown is against the same backend on the trusted network (no");
    println!("framing). The 0% row is the pure channel overhead; higher rates add");
    println!("retransmission and backoff on top.");

    let fields = [
        ("app", Json::str("sor")),
        ("fault_seed", Json::U64(seed)),
        ("points", Record::array(&points)),
    ];
    Report::passed(args.document("fault_sweep", fields))
}
