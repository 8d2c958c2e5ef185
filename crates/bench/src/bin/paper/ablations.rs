//! The §3.5 ablations and the false-sharing microbenchmark.

use midway_apps::AppKind;
use midway_bench::{banner, run_cells, BenchArgs, Json, Record};
use midway_core::{
    BackendKind, Counters, Midway, MidwayConfig, MidwayRun, NetModel, Proc, SystemBuilder,
    SystemSpec,
};
use midway_replay::{check, replay_on, Axes, Trace};
use midway_stats::{fmt_f64, fmt_u64, TextTable};

use crate::suite::live_run;
use crate::{fields, Fields};

/// Ablation A1/A2: the §3.5 alternative strategies.
///
/// Compares, per application: RT-DSM, VM-DSM, the "blast" strawman (no
/// write detection; all bound data shipped on every transfer),
/// "twin-everything" (no trapping; every bound page twinned and diffed at
/// every transfer) and the hybrid backend (§5: dirtybits for small
/// regions, page twinning for large ones, chosen per region). The paper
/// argues blast "would transfer data unnecessarily when synchronization
/// objects guard large data objects being sparsely written", and that
/// twin-everything trades trapping for more expensive collection —
/// "strategies that reduce the number of page faults by increasing the
/// amount of data diffed cannot minimize the total cost of write
/// detection". A second table reruns RT/VM under a 2× faster and 2×
/// slower network: the RT-vs-VM ordering is insensitive to the estimated
/// network constants.
pub(crate) fn protocols(args: &BenchArgs) -> Fields {
    const NAMES: [&str; 5] = ["RT", "VM", "Blast", "TwinAll", "Hybrid"];
    banner("Ablation: §3.5 alternative strategies", args);
    let apps = AppKind::all().to_vec();
    let run =
        |app, backend, net| live_run(args, app, MidwayConfig::new(args.procs, backend).net(net));

    let rows = run_cells(args.jobs, apps.clone(), |app| {
        let outs = BackendKind::DATA.map(|b| run(app, b, NetModel::atm_cluster()));
        let per_backend = |f: fn(&MidwayRun<()>) -> f64| {
            let values = outs.iter().map(|o| Json::F64(f(o)));
            Json::obj(
                BackendKind::DATA
                    .map(BackendKind::cli_name)
                    .into_iter()
                    .zip(values),
            )
        };
        let mut r = Record::default()
            .text("app", "App", app.label())
            .json("exec_secs", per_backend(MidwayRun::exec_secs))
            .json("data_mb", per_backend(MidwayRun::data_mb_total));
        for (name, o) in NAMES.iter().zip(&outs) {
            r = r.col(&format!("{name} (s)"), fmt_f64(o.exec_secs(), 1));
        }
        for (name, o) in NAMES.iter().zip(&outs) {
            r = r.col(&format!("{name} MB"), fmt_f64(o.data_mb_total(), 2));
        }
        r
    });
    println!("{}", Record::table(&rows, 1));

    println!("\n== Network sensitivity (RT vs VM execution time, s) ==");
    let sweep = run_cells(args.jobs, apps, |app| {
        let mut r = Record::default().text("app", "App", app.label());
        let mut points = Vec::new();
        for (num, den, speed) in [(1u64, 2u64, "0.5x"), (1, 1, "1x"), (2, 1, "2x")] {
            for (b, name) in [(BackendKind::Rt, "RT"), (BackendKind::Vm, "VM")] {
                let out = run(app, b, NetModel::atm_cluster().scaled(num, den));
                r = r.col(&format!("{name} {speed}"), fmt_f64(out.exec_secs(), 1));
                points.push(Json::obj([
                    ("backend", Json::str(b.cli_name())),
                    ("net_scale", Json::F64(num as f64 / den as f64)),
                    ("exec_secs", Json::F64(out.exec_secs())),
                ]));
            }
        }
        r.json("points", Json::Arr(points))
    });
    println!("{}", Record::table(&sweep, 1));
    fields([
        ("apps", Record::array(&rows)),
        ("net_sweep", Record::array(&sweep)),
    ])
}

/// Ablation A4: the cache-line size trade-off under RT-DSM.
///
/// "All cache lines in a region are the same size, although different
/// regions may have different cache line sizes" — the unit of coherency
/// "can be set to meet the needs of the application" (§2). A rotating
/// writer updates a lock-protected array densely or sparsely while the
/// line size sweeps: small lines mean more dirtybits to set and scan but
/// transfers ship only what changed; large lines mean cheaper area traps
/// and scans, but a sparse writer drags whole lines of unmodified data
/// across the network.
///
/// Here replay *is* the method: the workload is recorded once per writer
/// density at the finest line size, then every other line size replays
/// that stream against a rebuilt system — the recorded byte stream is
/// independent of the coherency unit, and the workload takes its lock in
/// barrier-fixed order.
pub(crate) fn linesize(args: &BenchArgs) -> Fields {
    const N: usize = 8 * 1024; // 64 KB of f64
    const PROCS: usize = 4;
    const ROUNDS: usize = 8;

    // Records the rotating-writer workload at one-element (8 B) lines.
    let record = |stride: usize, label: &str| {
        let mut b = SystemBuilder::new();
        let data = b.shared_array::<f64>("data", N, 1);
        let lock = b.lock(vec![data.full_range()]);
        let done = b.barrier(vec![]);
        let spec = b.build();
        let cfg = MidwayConfig::new(PROCS, BackendKind::Rt).record(true);
        let run: MidwayRun<()> = Midway::run(cfg, &spec, |p: &mut Proc| {
            // Each round one processor writes every `stride`-th element of
            // its quarter; the next round's writer pulls the lock across.
            for round in 0..ROUNDS {
                if round % PROCS == p.id() {
                    p.acquire(lock);
                    let chunk = N / PROCS;
                    let lo = p.id() * chunk;
                    for i in (lo..lo + chunk).step_by(stride) {
                        p.write(&data, i, (round * i) as f64);
                    }
                    p.release(lock);
                }
                p.barrier(done);
            }
        })
        .expect("the rotating-writer workload runs");
        Trace::from_run(label, "fixed", true, &run)
    };

    println!("== Ablation: cache-line size sweep (RT-DSM) ==\n");
    let mut fields = Vec::new();
    for (key, label, stride) in [
        ("dense", "dense writer (every element)", 1usize),
        ("sparse", "sparse writer (every 8th)", 8),
    ] {
        println!("-- {label} --");
        let trace = record(stride, key);
        let mut t = TextTable::new(&[
            "line size (B)",
            "exec (ms)",
            "data/proc (KB)",
            "dirtybits set",
            "bits scanned",
        ]);
        // Every line size replays the same in-memory trace read-only: one
        // cell per line size, rows joined in sweep order.
        let rows = run_cells(args.jobs, vec![1usize, 4, 16, 64, 512], |elems_per_line| {
            let run = if elems_per_line == 1 {
                // The recorded line size: take the equivalence-oracle path.
                check(&trace, &Axes::default())
                    .unwrap_or_else(|d| panic!("linesize replay diverged: {d}"))
                    .baseline
            } else {
                let line_shift = 3 + elems_per_line.trailing_zeros(); // 8 B elements
                let spec = SystemSpec::new(trace.blueprint.with_shared_line_shift(line_shift));
                replay_on(&trace, trace.recorded_cfg(), &spec)
                    .unwrap_or_else(|e| panic!("linesize replay failed: {e}"))
            };
            let avg = Counters::average(&run.counters);
            let totals = avg.totals();
            [
                fmt_u64(8 * elems_per_line as u64),
                fmt_f64(run.cfg.cost.cycles_to_millis(run.finish_time.cycles()), 1),
                fmt_f64(avg.avg(|c| c.data_bytes_sent) / 1024.0, 1),
                fmt_u64(totals.dirtybits_set),
                fmt_u64(totals.clean_dirtybits_read + totals.dirty_dirtybits_read),
            ]
        });
        for row in &rows {
            t.row(row);
        }
        println!("{t}");
        fields.push((key.to_string(), Json::table(&t)));
    }
    println!("Reading: a dense writer favours large lines (fewer bits, same data);");
    println!("a sparse writer pays for them in excess data — the unit of coherency");
    println!("should match the application's write granularity, which is exactly");
    println!("the knob VM-DSM lacks (its unit is pinned to the 4 KB page).");
    fields
}

/// Ablation A5: the false-sharing microbenchmark.
///
/// Two processors each own one word, and the two words are adjacent —
/// deliberately placed in the same virtual-memory page. Each round, a
/// processor updates its own word (under its own lock) and reads its
/// neighbour's (under the neighbour's lock). Under RT-DSM the coherency
/// unit is a word-sized cache line, so each transfer ships four bytes.
/// Under VM-DSM the page-granularity machinery pays a write fault, a
/// whole-page diff and a protection call per round — the paper's point
/// that "mechanisms to handle false sharing can increase runtime overhead".
pub(crate) fn false_sharing(_: &BenchArgs) -> Fields {
    let rounds = 200u32;
    println!("== False-sharing microbenchmark: adjacent words, {rounds} rounds ==\n");
    let mut t = TextTable::new(&[
        "system",
        "exec (ms)",
        "data (KB)",
        "faults",
        "pages diffed",
        "dirtybits set",
        "lines scanned",
    ]);
    for backend in [BackendKind::Rt, BackendKind::Vm] {
        let mut b = SystemBuilder::new();
        // Two adjacent words, word-size cache lines, same page.
        let words = b.shared_array::<u32>("words", 2, 1);
        let locks = [
            b.lock(vec![words.range(0..1)]),
            b.lock(vec![words.range(1..2)]),
        ];
        let done = b.barrier(vec![]);
        let spec = b.build();
        let run = Midway::run(MidwayConfig::new(2, backend), &spec, |p: &mut Proc| {
            let me = p.id();
            let other = 1 - me;
            let mut sum = 0u64;
            for round in 0..rounds {
                p.acquire(locks[me]);
                p.write(&words, me, round + 1);
                p.release(locks[me]);
                p.acquire_shared(locks[other]);
                sum += p.read(&words, other) as u64;
                p.release_shared(locks[other]);
            }
            p.barrier(done);
            sum
        })
        .expect("the false-sharing workload runs");
        let avg = Counters::average(&run.counters);
        let totals = avg.totals();
        t.row(&[
            format!("{backend:?}"),
            fmt_f64(run.cfg.cost.cycles_to_millis(run.finish_time.cycles()), 1),
            fmt_f64(avg.avg(|c| c.data_bytes_sent) / 1024.0, 1),
            fmt_u64(totals.write_faults),
            fmt_u64(totals.pages_diffed),
            fmt_u64(totals.dirtybits_set),
            fmt_u64(totals.clean_dirtybits_read + totals.dirty_dirtybits_read),
        ]);
    }
    println!("{t}");
    println!("Reading: RT's per-word lines make the exchange four bytes per round;");
    println!("VM's 4 KB coherency machinery re-faults, re-twins and re-diffs the");
    println!("shared page every round even though a single word changed.");
    fields([("table", Json::table(&t))])
}
