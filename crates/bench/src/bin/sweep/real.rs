//! Real-transport harness: runs applications over actual loopback
//! sockets — every processor a coroutine on the calling thread, as on the
//! simulator, but wall-clock time — and cross-validates each run against
//! the deterministic simulator.
//!
//! Every app × backend cell runs the application live on the real
//! transport with recording on, asserts it verified its own output, saves
//! the trace (`real/<app>-<scale>-<procs>p-<backend>-<mode>.mwt` under
//! `--trace DIR` — keeping the operation stream of a wall-clock run is the
//! point of the flag) and replays it through the simulator's oracle
//! ([`verify_real_trace`]): the recorded streams re-execute under virtual
//! time and, for lock-order-independent applications, must reach
//! bit-identical final memory.
//!
//! `--mode udp --loss PPM` injects drops and duplicates for the reliable
//! channel to mask. `--smoke` is sor × rt,vm, small scale, 4 processors.

use std::path::Path;
use std::time::Instant;

use midway_apps::{run_app_real, AppKind, Scale};
use midway_bench::{BenchArgs, Json, Record};
use midway_core::{BackendKind, FaultPlan, MidwayConfig, RealConfig};
use midway_replay::{verify_real_trace, Trace};

use crate::Report;

pub(crate) fn run(mut args: BenchArgs) -> Result<Report, String> {
    let loss_ppm: u32 = args.num("--loss", 0)?;
    let (real, mode) = match args.value("--mode") {
        None | Some("tcp") if loss_ppm == 0 => (RealConfig::tcp(), "tcp"),
        None | Some("tcp") => return Err("--loss requires --mode udp".to_string()),
        Some("udp") => {
            let plan = FaultPlan::seeded(0xD5).drop_ppm(loss_ppm).dup_ppm(loss_ppm);
            (RealConfig::udp(plan), "udp")
        }
        Some(other) => return Err(format!("unknown mode {other:?} (use tcp|udp)")),
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

    println!("== real-transport runs ({mode}) ==");
    println!("scale: {scale:?}, processors: {procs}");
    println!();

    let mut runs = Vec::new();
    for &kind in &apps {
        for &backend in &backends {
            let cell = format!("{} under {}", kind.label(), backend.label());
            eprintln!("running {cell} ...");
            let cfg = MidwayConfig::new(procs, backend).record(true);
            let t0 = Instant::now();
            let out = run_app_real(kind, cfg, &real, scale).map_err(|e| format!("{cell}: {e}"))?;
            let host_secs = t0.elapsed().as_secs_f64();
            assert!(
                out.verified,
                "{cell} failed verification on the real transport"
            );

            // Under `real/`: a real-transport trace records wall-clock-
            // derived times, so it must never sit where a bit-for-bit
            // `replay --check` over simulator traces would pick it up.
            let trace = Trace::from_outcome(&out, scale);
            let path = trace_dir.join(format!(
                "{}-{}-{procs}p-{}-{mode}.mwt",
                kind.label(),
                scale.label(),
                backend.cli_name()
            ));
            trace
                .save(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;

            let strict = kind.lock_order_independent();
            let check = verify_real_trace(&trace, &out.store_digests, strict)
                .unwrap_or_else(|d| panic!("{cell}: simulator oracle rejected the real run: {d}"));
            let digests = match check.digests_checked {
                true => "match",
                false => "replay-only",
            };
            runs.push(
                Record::default()
                    .text("app", "app", kind.label())
                    .json("backend", Json::str(backend.cli_name()))
                    .col("backend", backend.label())
                    .json("mode", Json::str(mode))
                    .f64("host_secs", "host s", host_secs, 2)
                    .json("verified", Json::Bool(out.verified))
                    .u64("total_ops", "ops", check.total_ops as u64)
                    .u64("real_messages", "real msgs", check.real_messages)
                    .u64("sim_messages", "sim msgs", check.sim_messages)
                    .json("sim_finish_cycles", Json::U64(check.sim_finish_cycles))
                    .json("digests_checked", Json::Bool(check.digests_checked))
                    .col("digests", digests)
                    .json("trace", Json::str(path.display().to_string())),
            );
        }
    }
    println!("{}", Record::table(&runs, 2));

    let fields = [("mode", Json::str(mode)), ("runs", Record::array(&runs))];
    Report::passed(args.document("realrun", fields))
}
