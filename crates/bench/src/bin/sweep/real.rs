//! Real-transport harness: runs applications over actual loopback
//! sockets — every processor a coroutine on the calling thread, as on the
//! simulator, but wall-clock time — and validates the sockets against the
//! deterministic simulator.
//!
//! Every app × backend cell is two `midway_replay::check`s over the same
//! sockets. The first checks the application live, recording on: its
//! reference runs on the simulator, and the socket run must pass the
//! application's own check and, for lock-order-independent applications,
//! reach the simulator's final memory bit for bit. The socket run's trace
//! is saved (`real/<app>-<scale>-<procs>p-<backend>-loss<ppm>.mwt` under
//! `--trace DIR` — keeping the operation stream of a wall-clock run is the
//! point of the flag). The second checks the simulator run's trace over
//! the same sockets: the recorded streams re-execute on wall-clock
//! delivery and are held to the same final memory.
//!
//! `--loss PPM` injects drops and duplicates at the send site, as the
//! simulator's fault plan does, for the reliable channel to mask.
//! `--smoke` is sor × rt,vm, small scale, 4 processors.

use std::path::Path;
use std::time::Instant;

use midway_apps::{AppKind, Scale};
use midway_bench::{BenchArgs, Json, Record};
use midway_core::{BackendKind, FaultPlan, MidwayConfig};
use midway_replay::{check, App, Axes, Comparison, Trace, Transport};

use crate::Report;

pub(crate) fn run(mut args: BenchArgs) -> Result<Report, String> {
    let loss_ppm: u32 = args.num("--loss", 0)?;
    let loss = (loss_ppm > 0).then(|| FaultPlan::seeded(0xD5).drop_ppm(loss_ppm).dup_ppm(loss_ppm));
    let axes = Axes {
        transport: Transport::Tcp { loss },
        ..Axes::default()
    };
    let (apps, backends) = if args.flag("--smoke") {
        (args.scale, args.procs) = (Scale::Small, 4);
        (vec![AppKind::Sor], vec![BackendKind::Rt, BackendKind::Vm])
    } else {
        (
            args.apps(&AppKind::all())?,
            args.backends(&BackendKind::DATA)?,
        )
    };
    let (scale, procs) = (args.scale, args.procs);
    let trace_dir = Path::new(args.value("--trace").unwrap_or("results/traces")).join("real");

    std::fs::create_dir_all(&trace_dir)
        .map_err(|e| format!("creating {}: {e}", trace_dir.display()))?;

    println!("== real-transport runs (loss {loss_ppm} ppm) ==");
    println!("scale: {scale:?}, processors: {procs}");
    println!();

    let mut runs = Vec::new();
    for &kind in &apps {
        for &backend in &backends {
            let cell = format!("{} under {}", kind.label(), backend.label());
            eprintln!("running {cell} ...");
            let app = App {
                kind,
                scale,
                cfg: MidwayConfig::new(procs, backend).record(true),
            };
            // Host time of the live check: its simulator reference and
            // the socket run.
            let t0 = Instant::now();
            let live = check(&app, &axes).map_err(|e| format!("{cell}: {e}"))?;
            let host_secs = t0.elapsed().as_secs_f64();

            // Under `real/`: a real-transport trace records wall-clock-
            // derived times, so it must never sit where a bit-for-bit
            // `trace check` over simulator traces would pick it up.
            let trace = Trace::from_run(kind.label(), scale.label(), true, &live.checked);
            let path = trace_dir.join(format!(
                "{}-{}-{procs}p-{}-loss{loss_ppm}.mwt",
                kind.label(),
                scale.label(),
                backend.cli_name()
            ));
            trace
                .save(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;

            let sim_trace = Trace::from_run(kind.label(), scale.label(), true, &live.baseline);
            let verdict = check(&sim_trace, &axes)
                .unwrap_or_else(|d| panic!("{cell}: the sockets disagree with the simulator: {d}"));
            let strict = verdict.comparison == Comparison::Converged;
            runs.push(
                Record::default()
                    .text("app", "app", kind.label())
                    .json("backend", Json::str(backend.cli_name()))
                    .col("backend", backend.label())
                    .json("loss_ppm", Json::U64(loss_ppm.into()))
                    .f64("host_secs", "host s", host_secs, 2)
                    .json("verified", Json::Bool(true))
                    .u64("total_ops", "ops", sim_trace.total_ops() as u64)
                    .u64("real_messages", "real msgs", verdict.checked.messages)
                    .u64("sim_messages", "sim msgs", verdict.baseline.messages)
                    .json(
                        "sim_finish_cycles",
                        Json::U64(verdict.baseline.finish_time.cycles()),
                    )
                    .json("digests_checked", Json::Bool(strict))
                    .col("digests", if strict { "match" } else { "replay-only" })
                    .json("trace", Json::str(path.display().to_string())),
            );
        }
    }
    println!("{}", Record::table(&runs, 2));

    let fields = [
        ("loss_ppm", Json::U64(loss_ppm.into())),
        ("runs", Record::array(&runs)),
    ];
    Report::passed(args.document("realrun", fields))
}
