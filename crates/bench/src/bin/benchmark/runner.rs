//! Running one workload in this process: set-up, a warm-up pass, a fixed
//! number of timed passes, and the checks every cell run goes through.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use midway_bench::Json;

use crate::golden::{self, Golden};
use crate::host::{self, Pinned};
use crate::metrics::lookup;
use crate::probes;
use crate::spans::Spans;
use crate::stats::{median, quartiles};
use crate::workloads::{
    passes_for, prepare, run_cell, CellRun, Fingerprint, Prepared, WorkloadDef, DEFAULT_SEED,
};

/// Set-up is sampled this many times per run, each in a fresh process
/// (this one and `SETUP_ROUNDS - 1` children), so work a later change
/// moves into process start, lazy initialisation, trace decoding or the
/// first pass shows in every sample instead of only the first.
pub const SETUP_ROUNDS: usize = 3;

/// Traced and untraced passes alternate this many times in a traced
/// run; their ratio is `trace.overhead_ratio`.
const TRACED_PASS_PAIRS: usize = 2;

pub struct RunArgs {
    pub workload: &'static WorkloadDef,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
}

impl RunArgs {
    /// The command line that reproduces these inputs in a child process.
    fn child_args(&self, mode: &str) -> Vec<String> {
        let mut args = vec![
            mode.to_string(),
            "--workload".to_string(),
            self.workload.name.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
        ];
        if self.smoke {
            args.push("--smoke".to_string());
        }
        args
    }
}

/// Counts operations and decides which failed. One cell run is one
/// operation; it fails if the program panics or errors, if the
/// application's own verification fails, if two runs of the same cell
/// disagree, or (default seed) if it disagrees with `golden.json`.
pub struct Checker<'a> {
    golden: Option<&'a Golden>,
    scope: (bool, &'static str),
    first: BTreeMap<String, Fingerprint>,
    pub ops: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl<'a> Checker<'a> {
    pub fn new(args: &RunArgs, golden: &'a Golden) -> Checker<'a> {
        Checker {
            golden: (args.seed == DEFAULT_SEED).then_some(golden),
            scope: (args.smoke, args.workload.name),
            first: BTreeMap::new(),
            ops: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn fail(&mut self, what: String) {
        self.ops += 1;
        self.failed += 1;
        eprintln!("FAILED: {what}");
        self.failures.push(what);
    }

    fn check(&mut self, cell: &str, out: &Result<CellRun, String>) {
        let why = match out {
            Err(e) => Some(e.clone()),
            Ok(run) if !run.verified => Some("application verification failed".to_string()),
            Ok(run) => {
                let first = *self.first.entry(cell.to_string()).or_insert(run.fp);
                let golden = self.golden.map(|g| {
                    g.get(&golden::key(self.scope.0, self.scope.1, cell))
                        .copied()
                });
                if first != run.fp {
                    Some(format!("passes disagree: {first:?} then {:?}", run.fp))
                } else {
                    match golden {
                        Some(None) => Some("no golden.json entry".to_string()),
                        Some(Some(g)) if g != run.fp => {
                            Some(format!("golden.json has {g:?}, got {:?}", run.fp))
                        }
                        _ => None,
                    }
                }
            }
        };
        match why {
            Some(why) => self.fail(format!("{cell}: {why}")),
            None => self.ops += 1,
        }
    }
}

/// Per-cell timings and the last outcome, for the row-level view.
#[derive(Default)]
struct CellLog {
    host_s: Vec<f64>,
    last: Option<CellRun>,
}

/// One pass over the basket; returns the seconds spent inside its cells.
///
/// After each cell the allocator's free memory goes back to the kernel:
/// every cell then starts from the heap a fresh process would have,
/// instead of from whichever per-thread arenas the previous cell's
/// threads happened to leave behind (a single cell in a fresh process
/// repeats its `VmHWM` to 0.1%; five cells in a row did not to 10%).
fn pass(
    prepared: &Prepared,
    name: &str,
    spans: &mut Spans,
    checker: &mut Checker,
    log: Option<&mut Vec<CellLog>>,
) -> f64 {
    let mut times = Vec::with_capacity(prepared.cells.len());
    spans.scope(name, "benchmark", |spans| {
        for cell in &prepared.cells {
            let t = Instant::now();
            let out = spans.scope(&cell.name, cell.layer(), |_| run_cell(prepared, cell));
            times.push((t.elapsed().as_secs_f64(), out.as_ref().ok().copied()));
            checker.check(&cell.name, &out);
            host::trim_heap();
        }
    });
    let secs = times.iter().map(|(t, _)| t).sum();
    if let Some(log) = log {
        for (slot, (t, run)) in log.iter_mut().zip(times) {
            slot.host_s.push(t);
            slot.last = run.or(slot.last);
        }
    }
    secs
}

/// One process's set-up, measured: how long it took and the process's
/// peak resident set once it was done.
struct SetupSample {
    secs: f64,
    peak_kb: u64,
}

/// Everything before the first timed pass: inputs from the seed, the
/// basket (for `replay_sweep`: recording and the codec round trip) and
/// one untimed warm-up pass.
fn set_up(args: &RunArgs, checker: &mut Checker) -> Result<(Prepared, SetupSample), String> {
    let t0 = Instant::now();
    let prepared = prepare(args.workload.name, args.seed, args.smoke)?;
    pass(&prepared, "warm-up", &mut Spans::new(), checker, None);
    let secs = t0.elapsed().as_secs_f64();
    let peak_kb = host::status_kb("VmHWM:").ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok((prepared, SetupSample { secs, peak_kb }))
}

/// Kernel-mode CPU seconds over wall seconds since `(cpu0, t0)`.
fn sys_share_since(cpu0: Option<(f64, f64)>, t0: Instant) -> f64 {
    match (cpu0, host::cpu_seconds()) {
        (Some((_, s0)), Some((_, s1))) => (s1 - s0) / t0.elapsed().as_secs_f64(),
        _ => 0.0,
    }
}

fn pin() -> Result<Pinned, String> {
    host::pin_to_one_cpu().map_err(|e| format!("refusing to measure unpinned: {e}"))
}

/// `--setup-child`: one set-up sample in a fresh process. Prints the
/// seconds; exits non-zero if any warm-up cell failed.
pub fn setup_child(args: &RunArgs) -> Result<(), String> {
    pin()?;
    let golden = Golden::embedded()?;
    let mut checker = Checker::new(args, &golden);
    let (_, sample) = set_up(args, &mut checker)?;
    println!("setup_s {} peak_kb {}", sample.secs, sample.peak_kb);
    if checker.failed > 0 {
        return Err(format!("{} warm-up cells failed", checker.failed));
    }
    Ok(())
}

/// Runs this executable again with `args`, its stderr passed through,
/// and returns its stdout. A non-zero exit is an error.
pub fn run_self(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning `benchmark {}`: {e}", args.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "`benchmark {}` exited with {}",
            args.join(" "),
            out.status
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

fn spawn_setup_child(args: &RunArgs) -> Result<SetupSample, String> {
    run_self(&args.child_args("--setup-child"))?
        .lines()
        .find_map(|l| {
            let (secs, peak_kb) = l.strip_prefix("setup_s ")?.split_once(" peak_kb ")?;
            Some(SetupSample {
                secs: secs.parse().ok()?,
                peak_kb: peak_kb.trim().parse().ok()?,
            })
        })
        .ok_or_else(|| "set-up child printed no sample".to_string())
}

/// What one run of one workload produced.
pub struct Report {
    pub json: Json,
    pub ops: u64,
    pub failed: u64,
    /// `(name, value)` in table order: the final line's `metrics`.
    pub metrics: Vec<(String, f64)>,
}

fn metrics_json(metrics: &[(String, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                let (unit, _) = lookup(name).expect("every reported metric is declared");
                (
                    name.clone(),
                    Json::obj([("value", Json::F64(*value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    )
}

fn cells_json(prepared: &Prepared, log: &[CellLog]) -> Json {
    Json::Obj(
        prepared
            .cells
            .iter()
            .zip(log)
            .map(|(cell, l)| {
                let mut pairs = vec![("host_s".to_string(), Json::F64(median(&l.host_s)))];
                if let Some(run) = l.last {
                    pairs.extend([
                        ("sim_s".to_string(), Json::F64(run.sim_s)),
                        ("finish_cycles".to_string(), Json::U64(run.fp.finish_cycles)),
                        ("messages".to_string(), Json::U64(run.fp.messages)),
                    ]);
                }
                (cell.name.clone(), Json::Obj(pairs))
            })
            .collect(),
    )
}

fn report(
    args: &RunArgs,
    pinned: &Pinned,
    traced: bool,
    checker: &Checker,
    metrics: Vec<(String, f64)>,
    extra: Vec<(&str, Json)>,
) -> Report {
    let mut pairs = vec![
        ("workload", Json::str(args.workload.name)),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("traced", Json::Bool(traced)),
        ("pinned_cpu", Json::U64(pinned.cpu as u64)),
        ("nproc", Json::U64(pinned.original.len() as u64)),
        ("ops", Json::U64(checker.ops)),
        ("ops_failed", Json::U64(checker.failed)),
        (
            "failures",
            Json::arr(checker.failures.iter().map(Json::str)),
        ),
        ("metrics", metrics_json(&metrics)),
    ];
    pairs.extend(extra);
    Report {
        json: Json::obj(pairs),
        ops: checker.ops,
        failed: checker.failed,
        metrics,
    }
}

/// The untraced run: where every end-to-end number comes from.
pub fn run_untraced(args: &RunArgs) -> Result<Report, String> {
    let pinned = pin()?;
    let golden = Golden::embedded()?;
    let mut checker = Checker::new(args, &golden);

    let mut samples = Vec::with_capacity(SETUP_ROUNDS);
    for _ in 1..SETUP_ROUNDS {
        match spawn_setup_child(args) {
            Ok(sample) => {
                checker.ops += 1;
                samples.push(sample);
            }
            Err(e) => checker.fail(format!("set-up: {e}")),
        }
    }
    let (prepared, sample) = set_up(args, &mut checker)?;
    samples.push(sample);
    let setup_s: Vec<f64> = samples.iter().map(|s| s.secs).collect();
    let setup_peak_mb: Vec<f64> = samples.iter().map(|s| s.peak_kb as f64 / 1024.0).collect();

    let passes = passes_for(args.workload, args.seconds, args.smoke);
    let mut log: Vec<CellLog> = prepared.cells.iter().map(|_| CellLog::default()).collect();
    let mut spans = Spans::new();
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    let pass_s: Vec<f64> = (0..passes)
        .map(|_| pass(&prepared, "pass", &mut spans, &mut checker, Some(&mut log)))
        .collect();
    let sys_share = sys_share_since(cpu0, t0);
    let peak_kb = host::status_kb("VmHWM:").ok_or("cannot read VmHWM from /proc/self/status")?;

    let (q1, med, q3) = quartiles(&pass_s);
    let metrics = vec![
        ("host_s".to_string(), med),
        ("peak_rss_mb".to_string(), median(&setup_peak_mb)),
        ("setup_s".to_string(), median(&setup_s)),
    ];
    let sim_s: f64 = log.iter().filter_map(|l| l.last).map(|r| r.sim_s).sum();
    // After the peak is read, so the references cannot raise it.
    let calib = probes::calibration(args.smoke);
    let f64s = |v: &[f64]| Json::arr(v.iter().copied().map(Json::F64));
    let extra = vec![
        ("passes", Json::U64(passes as u64)),
        (
            "host_s_passes",
            Json::obj([
                ("n", Json::U64(pass_s.len() as u64)),
                ("q1", Json::F64(q1)),
                ("median", Json::F64(med)),
                ("q3", Json::F64(q3)),
                ("values", f64s(&pass_s)),
            ]),
        ),
        ("setup_s_rounds", f64s(&setup_s)),
        ("peak_rss_mb_rounds", f64s(&setup_peak_mb)),
        ("peak_rss_mb_all_passes", Json::F64(peak_kb as f64 / 1024.0)),
        ("sim_s", Json::F64(sim_s)),
        ("sys_share", Json::F64(sys_share)),
        ("calib", metrics_json(&calib)),
        ("cells", cells_json(&prepared, &log)),
    ];
    Ok(report(args, &pinned, false, &checker, metrics, extra))
}

/// The traced run: spans around every pass, cell and probe, and every
/// per-layer metric. Never the source of an end-to-end number.
pub fn run_traced(args: &RunArgs, with_probes: bool) -> Result<Report, String> {
    let pinned = pin()?;
    let golden = Golden::embedded()?;
    let mut checker = Checker::new(args, &golden);
    let (prepared, _) = set_up(args, &mut checker)?;

    let pairs = if args.smoke { 1 } else { TRACED_PASS_PAIRS };
    let mut log: Vec<CellLog> = prepared.cells.iter().map(|_| CellLog::default()).collect();
    let mut spans = Spans::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    spans.set_enabled(true);
    for _ in 0..pairs {
        plain.push(pass(
            &prepared,
            "pass",
            &mut Spans::new(),
            &mut checker,
            None,
        ));
        traced.push(spans.scope(args.workload.name, "benchmark", |spans| {
            pass(&prepared, "pass", spans, &mut checker, Some(&mut log))
        }));
    }
    let sys_share = sys_share_since(cpu0, t0);
    let harness_share = spans.harness_share("benchmark");
    let runs: Vec<CellRun> = log.iter().filter_map(|l| l.last).collect();
    let events: u64 = runs.iter().map(|r| r.fp.messages).sum();

    let mut metrics = Vec::new();
    if with_probes {
        metrics = probes::run_all(args.smoke, &pinned, &mut spans);
    }
    metrics.extend([
        (
            "trace.overhead_ratio".to_string(),
            median(&traced) / median(&plain),
        ),
        (
            "workload.sim_s".to_string(),
            runs.iter().map(|r| r.sim_s).sum(),
        ),
        ("workload.sys_share".to_string(), sys_share),
        (
            "workload.host_us_per_event".to_string(),
            median(&traced) * 1e6 / events.max(1) as f64,
        ),
        ("workload.harness_share".to_string(), harness_share),
    ]);
    let extra = vec![
        ("passes", Json::U64(pairs as u64)),
        ("cells", cells_json(&prepared, &log)),
        ("spans", spans.to_json(args.workload.name)),
    ];
    Ok(report(args, &pinned, true, &checker, metrics, extra))
}
