//! The service-workload sweep: the two service applications (sharded
//! KV store, task queue) driven from idle to saturation.
//!
//! The load knob is `clients` — concurrent clients multiplexed onto each
//! processor. Per-op think time is `think_cycles / clients`, so one
//! client per processor is an idle service (long gaps between requests)
//! and sixteen is saturation (requests back to back). Total work is held
//! fixed across the sweep (`ops_per_client × clients` constant), so
//! cells are comparable: the same requests, packed ever more densely.
//! Reported per cell: modelled seconds, throughput in ops per modelled
//! second, messages, data per processor, and mean lock acquires — the
//! curve from idle to saturation shows where synchronization begins to
//! dominate service time.
//!
//! `--find-knee` then binary-searches the client count to the saturation
//! knee per (app, backend): the smallest clients/proc whose
//! client-perceived latency (`clients × finish_cycles / total_ops`)
//! reaches [`KNEE_FACTOR`] times the one-client latency, probing up to
//! [`KNEE_MAX`] clients. `--smoke` (small inputs, RT only, two
//! processors, clients 1 and 4) always runs the search, capped at 8.

use std::time::Instant;

use midway_apps::{checked, kvstore, taskqueue, AppKind};
use midway_bench::{BenchArgs, Json, Record};
use midway_core::{BackendKind, MidwayConfig};

use crate::Report;

/// Clients per processor swept by the full grid.
const CLIENTS: [usize; 5] = [1, 2, 4, 8, 16];
/// The knee is where latency reaches this multiple of the idle latency.
const KNEE_FACTOR: f64 = 2.0;
/// The most clients per processor the knee search probes.
const KNEE_MAX: usize = 64;

/// One measured cell, with the two numbers the knee search needs.
struct Cell {
    record: Record,
    /// Client-perceived mean latency in cycles per op: `clients`
    /// concurrent streams share each processor, so a stream observes the
    /// whole-processor op rate divided by its share.
    latency_cycles: f64,
}

/// Runs one cell: `app` under `backend` with `clients` concurrent
/// clients per processor, total work fixed at the one-client budget.
fn run_cell(app: AppKind, backend: BackendKind, procs: usize, clients: usize, smoke: bool) -> Cell {
    let cfg = MidwayConfig::new(procs, backend);
    let start = Instant::now();
    // The two service modules share a shape, not a trait.
    macro_rules! cell {
        ($app:ident) => {{
            let mut p = match smoke {
                true => $app::Params::small(),
                false => $app::Params::paper(),
            };
            let total = p.svc.clients * p.svc.ops_per_client;
            p.svc.clients = clients;
            p.svc.ops_per_client = (total / clients).max(1);
            let workload = format!("{clients} clients per processor");
            (
                p.svc,
                checked(app, &workload, $app::run(cfg, p), $app::verified)
                    .unwrap_or_else(|e| panic!("{e}")),
            )
        }};
    }
    let (svc, run) = match app {
        AppKind::KvStore => cell!(kvstore),
        AppKind::TaskQueue => cell!(taskqueue),
        other => panic!("{other:?} is not a service application"),
    };
    let (sim_secs, finish) = (run.exec_secs(), run.finish_time);
    let total_ops = (procs * svc.clients * svc.ops_per_client) as u64;
    let ops_per_sec = total_ops as f64 / sim_secs.max(1e-9);
    let record = Record::default()
        .text("app", "app", app.label())
        .text("backend", "backend", backend.cli_name())
        .u64("clients", "clients", clients as u64)
        .u64("think_per_op", "think/op", svc.think_per_op())
        .u64("total_ops", "ops", total_ops)
        .json("verified", Json::Bool(true))
        .json("host_secs", Json::F64(start.elapsed().as_secs_f64()))
        .f64("sim_secs", "sim s", sim_secs, 3)
        .f64("ops_per_sim_sec", "ops/s", ops_per_sec, 0)
        .json("finish_cycles", Json::U64(finish.cycles()))
        .u64("messages", "msgs", run.messages)
        .f64("data_kb_per_proc", "KB/proc", run.data_kb_per_proc(), 1)
        .f64(
            "avg_lock_acquires",
            "acq/proc",
            run.avg_counters().avg(|c| c.lock_acquires),
            0,
        );
    let latency_cycles = clients as f64 * finish.cycles() as f64 / (total_ops as f64).max(1.0);
    Cell {
        record,
        latency_cycles,
    }
}

/// Binary-searches the smallest clients/proc whose client-perceived
/// latency reaches [`KNEE_FACTOR`] × the one-client latency. Latency
/// grows with multiplexing once synchronization saturates, so bisection
/// over the client count converges on the knee with O(log max) runs.
fn find_knee(app: AppKind, backend: BackendKind, procs: usize, smoke: bool, max: usize) -> Record {
    let mut probes = Vec::new();
    let mut probe = |clients: usize| -> f64 {
        eprintln!(
            "knee probe: {} under {} at {clients} clients/proc ...",
            app.label(),
            backend.cli_name()
        );
        let latency = run_cell(app, backend, procs, clients, smoke).latency_cycles;
        probes.push(Json::obj([
            ("clients", Json::U64(clients as u64)),
            ("latency_cycles", Json::F64(latency)),
        ]));
        latency
    };
    let base = probe(1);
    let target = KNEE_FACTOR * base;
    // Establish the bracket: if even `max` clients stay under the target,
    // the service never saturates within range.
    let knee = if probe(max) < target {
        None
    } else {
        // Invariant: latency(lo) < target <= latency(hi).
        let (mut lo, mut hi) = (1usize, max);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if probe(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(hi)
    };
    Record::default()
        .text("app", "app", app.label())
        .text("backend", "backend", backend.cli_name())
        .f64("base_latency_cycles", "lat@1 (cyc/op)", base, 0)
        .f64("target_latency_cycles", "target", target, 0)
        .json("knee_factor", Json::F64(KNEE_FACTOR))
        .json("max_clients_probed", Json::U64(max as u64))
        .json(
            "knee_clients",
            knee.map_or(Json::Null, |c| Json::U64(c as u64)),
        )
        .col(
            "knee clients",
            knee.map_or(format!(">{max}"), |c| c.to_string()),
        )
        .col("probes", probes.len().to_string())
        .json("probes", Json::Arr(probes))
}

pub(crate) fn run(args: BenchArgs) -> Result<Report, String> {
    let smoke = args.flag("--smoke");
    let (procs, clients_list, knee_max) = match smoke {
        true => (2, vec![1, 4], 8),
        false => (args.procs, CLIENTS.to_vec(), KNEE_MAX),
    };
    let apps = args.apps(&AppKind::service())?;
    if let Some(other) = apps.iter().find(|a| !AppKind::service().contains(a)) {
        return Err(format!(
            "--apps: {} is not a service application",
            other.label()
        ));
    }
    let backends = match smoke {
        true => vec![BackendKind::Rt],
        false => args.backends(&BackendKind::DATA)?,
    };
    let inputs = if smoke { "small" } else { "paper" };

    println!("== service sweep ==");
    println!("procs: {procs}, clients: {clients_list:?}, inputs: {inputs}");
    println!();

    let grid: Vec<(AppKind, BackendKind)> = apps
        .iter()
        .flat_map(|&app| backends.iter().map(move |&backend| (app, backend)))
        .collect();
    let mut cells = Vec::new();
    for &(app, backend) in &grid {
        for &clients in &clients_list {
            eprintln!(
                "running {} under {} at {clients} clients/proc ...",
                app.label(),
                backend.cli_name()
            );
            cells.push(run_cell(app, backend, procs, clients, smoke).record);
        }
    }
    println!("{}", Record::table(&cells, 2));

    // Saturation search: always exercised in smoke (cheap at small
    // inputs), otherwise opt-in.
    let mut knees = Vec::new();
    if args.flag("--find-knee") || smoke {
        for &(app, backend) in &grid {
            knees.push(find_knee(app, backend, procs, smoke, knee_max));
        }
        println!("{}", Record::table(&knees, 2));
    }

    Report::passed(Json::obj([
        ("harness", Json::str("svc_sweep")),
        ("procs", Json::U64(procs as u64)),
        ("inputs", Json::str(inputs)),
        ("cells", Record::array(&cells)),
        ("knees", Record::array(&knees)),
    ]))
}
