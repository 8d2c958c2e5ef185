//! The 64–512 processor scale sweep: how the simulator and the scale-out
//! protocol configuration (combining-tree barriers, sharded sync homes)
//! behave as the cluster grows far beyond the paper's eight processors.
//!
//! Every cell is a live run of one application on one backend at one
//! processor count, under `MidwayConfig::scale_out(arity, seed)`,
//! reporting host seconds, delivered events and events per second,
//! virtual finish time, and the peak resident set sampled while it ran.
//! Cells run strictly one at a time: peak-RSS attribution and events/sec
//! are both meaningless under co-scheduling. A cell that breaches
//! `--budget-gb` is not killed; it is marked, and larger processor counts
//! of the same app/backend family are skipped.
//!
//! Inputs default to the datacenter (`dc`) scale — sized so sor's stripes
//! still hold at least two rows each at 512+ processors. `--smoke` is 64
//! processors, sor, RT + VM, medium inputs (medium sor has 400 rows).
//!
//! `--render` runs nothing: it re-derives the speedup-vs-processors table
//! EXPERIMENTS.md carries from the results file (`--out`, default
//! `BENCH_scale.json`), so the document cannot drift from the data, and
//! with `--write FILE` splices it between the file's `scale_report`
//! markers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use midway_apps::{run_app, AppKind, Scale};
use midway_bench::{BenchArgs, Json, Record};
use midway_core::{BackendKind, MidwayConfig};
use midway_stats::fmt_f64;

use crate::Report;

const SHARD_SEED: u64 = 0x5ca1ab1e;

/// This process's current resident set in bytes (`VmRSS` from
/// `/proc/self/status`), or zero off Linux.
fn current_rss_bytes() -> u64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        });
    kb.unwrap_or(0) * 1024
}

/// Runs `cell` while a sampler thread polls the process's resident set
/// every ~25 ms; returns the result with the peak observed (one sample at
/// start and finish included). A peak above `budget_bytes` is reported on
/// stderr the moment it is seen, so a long sweep shows the problem while
/// it is happening.
fn with_peak_rss<R>(budget_bytes: u64, cell: impl FnOnce() -> R) -> (R, u64) {
    // Raises the stop flag on drop, so the sampler terminates (and the
    // scope join returns) even when the cell panics — the panic then
    // propagates instead of deadlocking against the sampler.
    struct StopGuard<'a>(&'a AtomicBool);
    impl Drop for StopGuard<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(current_rss_bytes());
    let result = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                let rss = current_rss_bytes();
                let prev = peak.fetch_max(rss, Ordering::Relaxed);
                if rss > budget_bytes && prev <= budget_bytes {
                    eprintln!(
                        "memory budget exceeded: rss {} MB > budget {} MB",
                        rss >> 20,
                        budget_bytes >> 20
                    );
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        });
        let _stop_on_exit = StopGuard(&stop);
        cell()
    });
    (
        result,
        peak.load(Ordering::Relaxed).max(current_rss_bytes()),
    )
}

pub(crate) fn run(args: BenchArgs) -> Result<Report, String> {
    if args.flag("--render") {
        return render(&args);
    }
    let smoke = args.flag("--smoke");
    let scale = match (args.value("--scale"), smoke) {
        (Some(_), _) => args.scale,
        (None, true) => Scale::Medium,
        (None, false) => Scale::Datacenter,
    };
    let (proc_counts, apps) = if smoke {
        (vec![64], vec![AppKind::Sor])
    } else {
        let procs = args.list("--procs-list", || vec![64, 128, 256], |s| s.parse().ok())?;
        (procs, args.apps(&[AppKind::Sor, AppKind::Quicksort])?)
    };
    let backends = args.backends(&[BackendKind::Rt, BackendKind::Vm])?;
    let arity: u32 = args.num("--arity", 4)?;
    let budget_gb: u64 = args.num("--budget-gb", 100)?;

    println!("== scale sweep ==");
    println!("scale: {scale:?}, procs: {proc_counts:?}, arity: {arity}, budget: {budget_gb} GB");
    println!();

    // Outer order: app × backend × ascending procs, so the budget gate
    // can cut a family short after its first breach.
    let mut cells = Vec::new();
    for &app in &apps {
        for &backend in &backends {
            let mut breached = false;
            for &procs in &proc_counts {
                let cell = Record::default()
                    .text("app", "app", app.label())
                    .text("backend", "backend", backend.cli_name())
                    .u64("procs", "procs", procs as u64)
                    .json("skipped", Json::Bool(breached));
                if breached {
                    eprintln!(
                        "skipping {}/{} at {procs}p: smaller run already breached the budget",
                        app.label(),
                        backend.cli_name()
                    );
                    cells.push(
                        cell.json("verified", Json::Bool(false))
                            .field("host_secs", "host s", Json::F64(0.0), "-")
                            .field("events", "events", Json::U64(0), "-")
                            .field("events_per_sec", "events/s", Json::F64(0.0), "-")
                            .json("finish_cycles", Json::U64(0))
                            .field("sim_secs", "sim s", Json::F64(0.0), "-")
                            .field("peak_rss_mb", "peak MB", Json::U64(0), "skipped")
                            .json("budget_exceeded", Json::Bool(false)),
                    );
                    continue;
                }
                eprintln!(
                    "running {} under {} at {procs}p ...",
                    app.label(),
                    backend.cli_name()
                );
                let cfg = MidwayConfig::new(procs, backend).scale_out(arity, SHARD_SEED);
                let ((out, host_secs), peak) = with_peak_rss(budget_gb << 30, || {
                    let start = Instant::now();
                    let out = run_app(app, cfg, scale);
                    (out, start.elapsed().as_secs_f64())
                });
                let events_per_sec = out.messages as f64 / host_secs.max(1e-9);
                eprintln!(
                    "  {host_secs:.1}s host, {} events ({}/s), peak rss {} MB",
                    out.messages,
                    fmt_f64(events_per_sec.round(), 0),
                    peak >> 20,
                );
                breached = peak > budget_gb << 30;
                cells.push(
                    cell.json("verified", Json::Bool(true))
                        .f64("host_secs", "host s", host_secs, 1)
                        .u64("events", "events", out.messages)
                        .json("events_per_sec", Json::F64(events_per_sec))
                        .col("events/s", fmt_f64(events_per_sec.round(), 0))
                        .json("finish_cycles", Json::U64(out.finish_time.cycles()))
                        .f64("sim_secs", "sim s", out.exec_secs(), 2)
                        .u64("peak_rss_mb", "peak MB", peak >> 20)
                        .json("budget_exceeded", Json::Bool(breached)),
                );
            }
        }
    }
    println!("{}", Record::table(&cells, 2));

    Report::passed(Json::obj([
        ("harness", Json::str("scale_sweep")),
        ("scale", Json::str(scale.label())),
        ("arity", Json::U64(u64::from(arity))),
        ("shard_seed", Json::U64(SHARD_SEED)),
        ("budget_gb", Json::U64(budget_gb)),
        ("cells", Record::array(&cells)),
    ]))
}

const BEGIN: &str = "<!-- scale_report:begin -->";
const END: &str = "<!-- scale_report:end -->";

/// `--render`: the results file as a markdown table — simulated seconds
/// by processor count and the speedup against each app × backend pair's
/// smallest swept count (virtual time is the paper-comparable metric;
/// host seconds depend on the machine the sweep ran on).
fn render(args: &BenchArgs) -> Result<Report, String> {
    let input = args.value("--out").unwrap_or("BENCH_scale.json");
    let text = std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("cannot parse {input}: {e}"))?;
    let table = markdown(&json).map_err(|e| format!("cannot report on {input}: {e}"))?;
    match args.value("--write") {
        None => print!("{table}"),
        Some(path) => {
            let doc =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let marker = |m| {
                doc.find(m)
                    .ok_or_else(|| format!("{path} lacks the {m} marker"))
            };
            let (start, end) = (marker(BEGIN)?, marker(END)?);
            if end < start {
                return Err(format!("{path}: end marker precedes begin marker"));
            }
            let next = format!("{}\n{table}{}", &doc[..start + BEGIN.len()], &doc[end..]);
            std::fs::write(path, next).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("scale table refreshed in {path}");
        }
    }
    Ok(Report {
        json: None,
        ok: true,
    })
}

/// Builds the markdown table from the sweep JSON.
fn markdown(json: &Json) -> Result<String, String> {
    let harness = json.get("harness").and_then(Json::as_str).unwrap_or("?");
    if harness != "scale_sweep" {
        return Err(format!("expected a scale_sweep result, got {harness:?}"));
    }
    // (app, backend, procs, sim s, host s, events/s, peak MB, verified)
    let mut cells = Vec::new();
    for c in json.get("cells").map(Json::items).unwrap_or_default() {
        if c.get("skipped").and_then(Json::as_bool).unwrap_or(false) {
            continue;
        }
        let field = |k: &str| c.get(k).ok_or_else(|| format!("cell lacks {k:?}"));
        cells.push((
            field("app")?.as_str().unwrap_or("?"),
            field("backend")?.as_str().unwrap_or("?"),
            field("procs")?.as_u64().unwrap_or(0),
            field("sim_secs")?.as_f64().unwrap_or(f64::NAN),
            field("host_secs")?.as_f64().unwrap_or(f64::NAN),
            field("events_per_sec")?.as_f64().unwrap_or(f64::NAN),
            field("peak_rss_mb")?.as_u64().unwrap_or(0),
            field("verified")?.as_bool().unwrap_or(false),
        ));
    }
    if cells.is_empty() {
        return Err("no completed cells in the sweep".to_string());
    }
    cells.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));

    let mut out = String::from(
        "| app | backend | procs | sim s | vs fewest | host s | events/s | peak MB | verified |\n\
         |---|---|---|---|---|---|---|---|---|\n",
    );
    let mut base = ("", "", 0.0);
    for &(app, backend, procs, sim_secs, host_secs, events_per_sec, peak_mb, verified) in &cells {
        if (base.0, base.1) != (app, backend) {
            base = (app, backend, sim_secs);
        }
        out.push_str(&format!(
            "| {app} | {backend} | {procs} | {sim_secs:.1} | {:.2}× | {host_secs:.1} | \
             {events_per_sec:.0} | {peak_mb} | {} |\n",
            base.2 / sim_secs.max(1e-12),
            if verified { "yes" } else { "**NO**" },
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--render` over the committed sweep reproduces the table
    /// EXPERIMENTS.md carries between its markers, byte for byte.
    #[test]
    fn render_of_the_committed_sweep_is_the_table_in_experiments_md() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let read = |f: &str| std::fs::read_to_string(format!("{root}/{f}")).expect("committed");
        let json = Json::parse(&read("BENCH_scale.json")).expect("BENCH_scale.json parses");
        let doc = read("EXPERIMENTS.md");
        let (start, end) = (
            doc.find(BEGIN).expect("marker"),
            doc.find(END).expect("marker"),
        );
        assert_eq!(markdown(&json).unwrap(), doc[start + BEGIN.len() + 1..end]);
    }
}
