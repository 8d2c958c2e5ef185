//! Crash-recovery cost sweep: what surviving processor failures costs
//! each write-detection backend, as a function of the checkpoint
//! interval.
//!
//! Fault tolerance is paid for twice: continuously, in checkpoint images
//! and write-ahead logging at release/barrier boundaries, and at crash
//! time, in downtime plus state reconstruction from stable storage. One
//! recorded sor stream drives every point: for each data-moving backend
//! and each checkpoint interval it is replayed once with checkpointing
//! alone (the insurance premium) and once per swept crash count with
//! that many staggered mid-run crashes (the claim), each checked against
//! the same backend's unprotected baseline. Frequent checkpoints cost
//! more boundary work but less recovery replay; the sweep prices that
//! trade. The check holds every cell to the unprotected final memory and
//! counters, and every crashed cell to taking each scheduled crash.

use midway_apps::Scale;
use midway_bench::{banner, run_cells, BenchArgs, Json, Record};
use midway_core::{BackendKind, FaultPlan};
use midway_replay::{check, Axes, Trace, Transport};
use midway_stats::fmt_f64;

use crate::{record_sor, Report};

pub(crate) fn run(mut args: BenchArgs) -> Result<Report, String> {
    let smoke = args.flag("--smoke");
    if smoke {
        (args.scale, args.procs) = (Scale::Small, 4);
    }
    // The CI cell: RT only, one interval, one crash.
    let crash_counts: Vec<usize> = args.list(
        "--crashes",
        || if smoke { vec![1] } else { vec![1, 3] },
        |s| s.parse().ok(),
    )?;
    if crash_counts.contains(&0) {
        return Err("--crashes needs at least one crash per plan".to_string());
    }
    let intervals: Vec<u32> = args.list(
        "--intervals",
        || if smoke { vec![2] } else { vec![1, 4, 16] },
        |s| s.parse().ok(),
    )?;
    let backends = match smoke {
        true => vec![BackendKind::Rt],
        false => BackendKind::DATA.to_vec(),
    };
    banner("Crash sweep: checkpointed recovery cost per backend", &args);
    let trace = record_sor(&args);
    let plans: Vec<(usize, FaultPlan)> = crash_counts
        .iter()
        .map(|&n| (n, crash_plan(&trace, n)))
        .collect();
    println!(
        "app: sor, crash counts: {crash_counts:?}, checkpoint intervals: {intervals:?} boundaries\n"
    );

    let sweeps = run_cells(args.jobs, backends, |backend| {
        let mut cells = Vec::new();
        for &interval in &intervals {
            // One premium row (checkpointing alone), then one claim row
            // per swept crash count.
            for sel in std::iter::once(None).chain(plans.iter().map(Some)) {
                let scheduled = sel.map_or(0, |(n, _)| *n as u64);
                let axes = Axes {
                    backend: Some(backend),
                    transport: Transport::Sim {
                        faults: sel.map(|(_, plan)| *plan),
                        checkpoint_every: Some(interval),
                    },
                    ..Axes::default()
                };
                let verdict = check(&trace, &axes).unwrap_or_else(|e| {
                    let backend = backend.label();
                    panic!("{backend} interval {interval} ({scheduled} crashes): {e}")
                });
                let (base, run) = (&verdict.baseline, &verdict.checked);
                let cost = base.cfg.cost;
                let base_ms = cost.cycles_to_millis(base.finish_time.cycles());
                let total = *run.avg_counters().totals();
                let ms = cost.cycles_to_millis(run.finish_time.cycles());
                let slowdown = ms / base_ms.max(1e-12);
                let kb = |bytes: u64| (bytes / 1024).to_string();
                let crashes = sel.map_or("-".to_string(), |_| scheduled.to_string());
                let times = format!("{slowdown:.2}x");
                let recovery_ms = cost.cycles_to_millis(total.recovery_cycles);
                cells.push(
                    Record::default()
                        .json("backend", Json::str(backend.cli_name()))
                        .col("backend", backend.label())
                        .u64("interval", "interval", u64::from(interval))
                        .json("crashed", Json::Bool(sel.is_some()))
                        .field(
                            "crashes_scheduled",
                            "crashes",
                            Json::U64(scheduled),
                            crashes,
                        )
                        .col("mode", if sel.is_some() { "crash" } else { "ckpt" })
                        .f64("finish_ms", "finish (ms)", ms, 1)
                        .json("baseline_ms", Json::F64(base_ms))
                        .field("slowdown", "slowdown", Json::F64(slowdown), times)
                        .json("crashes", Json::U64(total.crashes))
                        .json("downtime_cycles", Json::U64(total.downtime_cycles))
                        .json("checkpoints_written", Json::U64(total.checkpoints_written))
                        .json("checkpoint_bytes", Json::U64(total.checkpoint_bytes))
                        .col("ckpt KB", kb(total.checkpoint_bytes))
                        .json("wal_bytes_logged", Json::U64(total.wal_bytes_logged))
                        .col("wal KB", kb(total.wal_bytes_logged))
                        .json(
                            "recovery_replay_bytes",
                            Json::U64(total.recovery_replay_bytes),
                        )
                        .col("replay KB", kb(total.recovery_replay_bytes))
                        .json("recovery_cycles", Json::U64(total.recovery_cycles))
                        .col("recovery ms", fmt_f64(recovery_ms, 2))
                        .json("fenced_messages", Json::U64(total.fenced_messages))
                        .json("converged", Json::Bool(verdict.converged)),
                );
            }
        }
        cells
    });
    let cells: Vec<Record> = sweeps.into_iter().flatten().collect();
    println!("{}", Record::table(&cells, 1));
    println!("\nSlowdown is against the same backend with no checkpointing and no");
    println!("crash. 'ckpt' rows price the insurance premium (boundary images +");
    println!("write-ahead logging); 'crash' rows add the claim (downtime plus");
    println!("reconstruction, the 'recovery ms' column).");

    let plan_json = |plan: &FaultPlan| {
        Json::arr(plan.crashes().iter().map(|c| {
            Json::obj([
                ("proc", Json::U64(u64::from(c.proc))),
                ("at", Json::U64(c.at)),
                ("down", Json::U64(c.down)),
            ])
        }))
    };
    let counts = crash_counts.iter().map(|&n| Json::U64(n as u64));
    let fields = [
        ("app", Json::str("sor")),
        ("crash_counts", Json::arr(counts)),
        (
            "crash_plans",
            Json::arr(plans.iter().map(|(_, plan)| plan_json(plan))),
        ),
        ("cells", Record::array(&cells)),
    ];
    Report::passed(args.document("crash_sweep", fields))
}

/// `n` staggered crashes sized relative to the recorded run, so they
/// land mid-computation at any scale: processor `p` fails at
/// `(1/3 + p/10) × finish` and stays down for 5% of the run.
fn crash_plan(trace: &Trace, n: usize) -> FaultPlan {
    let len = trace.meta.finish_cycles;
    let procs = trace.meta.cfg.procs;
    (0..n).fold(FaultPlan::none(), |plan, i| {
        plan.with_crash((i + 1) % procs, len / 3 + (i as u64) * (len / 10), len / 20)
    })
}
