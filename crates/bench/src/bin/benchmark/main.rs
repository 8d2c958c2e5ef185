//! The repository's benchmark: one pinned, layered measurement of the
//! simulator's own clock — host seconds and host memory — over seven
//! workloads, with every output checked. It claims no gain; it is the
//! ruler later claims are measured with. See README.md beside this file.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
//!           [--smoke] [--report FILE]
//!     One workload in this process (the BENCHMARK.json contract). The
//!     last line of stdout is one JSON object: correct, attempted,
//!     failed, metrics — end-to-end metrics untraced, per-layer traced.
//! benchmark [--seed N] [--seconds S] [--runs R] [--trace] [--out FILE]
//!     Every workload, each run in its own child process, R runs each at
//!     seeds N, N+1, ...; writes a result set for --compare.
//! benchmark --smoke
//!     Small inputs, one pass, every workload and every probe once.
//!     Marked as smoke in its output and never comparable.
//! benchmark --compare A.json B.json
//!     Per workload and end-to-end metric: both medians, B/A, the bound,
//!     ok / regressed / unresolved. Exits non-zero on any regression or
//!     on a higher failed share.
//! benchmark --write-golden [FILE]
//!     Regenerates golden.json at the default seed (rebuild afterwards:
//!     the file is compiled in).
//! ```

mod compare;
mod golden;
mod host;
mod metrics;
mod probes;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use midway_bench::Json;

use golden::Golden;
use metrics::{END_TO_END, PER_LAYER};
use runner::{Report, RunArgs};
use workloads::{prepare, run_cell, workload, DEFAULT_SEED, PINNED_SECONDS, WORKLOADS};

const GOLDEN_PATH: &str = "crates/bench/src/bin/benchmark/golden.json";
const SMOKE_BANNER: &str = "SMOKE RUN: small inputs, one pass; these numbers are never comparable";

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    runs: Option<u64>,
    trace: bool,
    smoke: bool,
    setup_child: bool,
    skip_probes: bool,
    write_golden: Option<Option<String>>,
    compare: Option<(String, String)>,
    report: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    fn value<'a>(
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<u64, String> {
        let v = value(flag, it)?;
        v.parse()
            .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(arg, &mut it)?.clone()),
            "--seed" => cli.seed = Some(number(arg, &mut it)?),
            "--seconds" => cli.seconds = Some(number(arg, &mut it)?),
            "--runs" => cli.runs = Some(number(arg, &mut it)?),
            // `--trace` alone switches tracing on; the driver spells it
            // `--trace 0` / `--trace 1`.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => cli.smoke = true,
            "--setup-child" => cli.setup_child = true,
            "--skip-probes" => cli.skip_probes = true,
            "--report" => cli.report = Some(PathBuf::from(value(arg, &mut it)?)),
            "--out" => cli.out = Some(PathBuf::from(value(arg, &mut it)?)),
            "--write-golden" => {
                cli.write_golden = Some(it.next_if(|s| !s.starts_with("--")).cloned());
            }
            "--compare" => {
                let a = value(arg, &mut it)?.clone();
                cli.compare = Some((a, value(arg, &mut it)?.clone()));
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?} (see the top of main.rs)"
                ))
            }
        }
    }
    if cli.seconds.is_some_and(|s| !(1..=60).contains(&s)) {
        return Err("--seconds takes 1 to 60".to_string());
    }
    Ok(cli)
}

/// One line, so it can be the last line of stdout.
fn compact(json: &Json) -> String {
    // `render` puts every structural newline before indentation and
    // escapes newlines inside strings, so joining trimmed lines is exact.
    json.render().lines().map(str::trim_start).collect()
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Where artefacts go unless told otherwise: beside the executable, so
/// always inside the build directory of whichever checkout built it.
fn beside_exe(file: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.with_file_name(file))
}

fn print_metrics(report: &Report) {
    for (name, value) in &report.metrics {
        let (unit, better) = metrics::lookup(name).unwrap_or_default();
        println!("{name:<40} {value:>16.6} {unit:<9} ({better} is better)");
    }
    if let Some(p) = report.json.get("host_s_passes") {
        let f = |k: &str| p.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "host_s over n={} passes: median {:.4} s, quartiles {:.4} / {:.4} s \
             (n <= 10: no percentile above the median has ten samples beyond it)",
            f("n"),
            f("median"),
            f("q1"),
            f("q3")
        );
    }
    if let Some(Json::Obj(cells)) = report.json.get("cells") {
        for (cell, c) in cells {
            let f = |k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "  cell {cell:<32} host_s {:>9.4}  sim_s {:>8.2}  messages {:>8}",
                f("host_s"),
                f("sim_s"),
                f("messages")
            );
        }
    }
}

/// `--workload NAME`: the BENCHMARK.json contract.
fn one_workload(cli: &Cli, name: &str) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: workload(name).ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?} (one of {})", names.join(", "))
        })?,
        seed: cli.seed.unwrap_or(DEFAULT_SEED),
        seconds: cli.seconds.unwrap_or(PINNED_SECONDS),
        smoke: cli.smoke,
    };
    if cli.setup_child {
        runner::setup_child(&args)?;
        return Ok(ExitCode::SUCCESS);
    }
    let report = if cli.trace {
        runner::run_traced(&args, !cli.skip_probes)?
    } else {
        runner::run_untraced(&args)?
    };
    if let Some((name, value)) = report.metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{name} measured {value}: not a number to report"));
    }
    if cli.smoke {
        println!("{SMOKE_BANNER}");
    }
    println!("{}: {}", args.workload.name, args.workload.why);
    println!(
        "{} seed {} pinned to cpu {}: {} operations, {} failed",
        args.workload.name,
        args.seed,
        report
            .json
            .get("pinned_cpu")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        report.ops,
        report.failed
    );
    print_metrics(&report);
    // The report carries the spans; without one they get a file of
    // their own.
    match &cli.report {
        Some(path) => write_file(path, &report.json.render())?,
        None if cli.trace => {
            let path = beside_exe("spans.json")?;
            let spans = report.json.get("spans").cloned().unwrap_or(Json::arr([]));
            write_file(&path, &spans.render())?;
            println!("spans written to {}", path.display());
        }
        None => {}
    }
    let expected = if cli.trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    if !cli.skip_probes && report.metrics.len() != expected {
        return Err(format!(
            "reported {} metrics, the contract lists {expected}",
            report.metrics.len()
        ));
    }
    let last = Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::U64(report.ops)),
        ("failed", Json::U64(report.failed)),
        (
            "metrics",
            report.json.get("metrics").cloned().unwrap_or(Json::Null),
        ),
    ]);
    println!("{}", compact(&last));
    Ok(ExitCode::SUCCESS)
}

/// Runs one workload in a child process and reads its report back.
fn child_report(args: &[String], report_path: &Path) -> Result<Json, String> {
    let mut args = args.to_vec();
    args.extend(["--report".to_string(), report_path.display().to_string()]);
    runner::run_self(&args)?;
    let text = std::fs::read_to_string(report_path)
        .map_err(|e| format!("reading {}: {e}", report_path.display()))?;
    let _ = std::fs::remove_file(report_path);
    Json::parse(&text).map_err(|e| format!("{}: {e}", report_path.display()))
}

/// No `--workload`: every workload, each run in its own child process
/// (so `VmHWM` is that run's peak and nothing is shared between runs).
fn suite(cli: &Cli) -> Result<ExitCode, String> {
    let seed = cli.seed.unwrap_or(DEFAULT_SEED);
    let seconds = cli.seconds.unwrap_or(PINNED_SECONDS);
    let runs = if cli.smoke {
        1
    } else {
        cli.runs.unwrap_or(1).max(1)
    };
    let traced = cli.trace || cli.smoke;
    let out = match &cli.out {
        Some(p) => p.clone(),
        None if cli.smoke => beside_exe("benchmark-smoke.json")?,
        None => PathBuf::from("results/benchmark.json"),
    };
    let part = out.with_extension("part.json");
    let base = |w: &str, seed: u64, trace: &str| {
        let mut a: Vec<String> = ["--workload", w, "--trace", trace]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        a.extend(["--seed".to_string(), seed.to_string()]);
        a.extend(["--seconds".to_string(), seconds.to_string()]);
        if cli.smoke {
            a.push("--smoke".to_string());
        }
        a
    };
    if cli.smoke {
        println!("{SMOKE_BANNER}");
    }
    let (mut ops, mut failed) = (0, 0);
    let mut count = |r: &Json| {
        ops += r.get("ops").and_then(Json::as_u64).unwrap_or(0);
        failed += r.get("ops_failed").and_then(Json::as_u64).unwrap_or(0);
    };
    let mut workloads_json = Vec::new();
    for w in &WORKLOADS {
        let mut reports = Vec::new();
        for r in 0..runs {
            let report = child_report(&base(w.name, seed + r, "0"), &part)?;
            let m = |k: &str| {
                let v = report
                    .get("metrics")
                    .and_then(|m| m.get(k)?.get("value")?.as_f64());
                v.unwrap_or(f64::NAN)
            };
            println!(
                "{:<14} run {}/{runs} seed {:>5}: host_s {:>8.4}  peak_rss_mb {:>8.2}  setup_s {:>8.4}  \
                 sim_s {:>8.2}  failed {}/{}",
                w.name,
                r + 1,
                seed + r,
                m("host_s"),
                m("peak_rss_mb"),
                m("setup_s"),
                report.get("sim_s").and_then(Json::as_f64).unwrap_or(f64::NAN),
                report.get("ops_failed").and_then(Json::as_u64).unwrap_or(0),
                report.get("ops").and_then(Json::as_u64).unwrap_or(0),
            );
            count(&report);
            reports.push(report);
        }
        workloads_json.push((
            w.name.to_string(),
            Json::obj([("runs", Json::Arr(reports))]),
        ));
    }
    let mut pairs = vec![
        ("benchmark", Json::str("midway host-time benchmark")),
        ("smoke", Json::Bool(cli.smoke)),
        ("seed", Json::U64(seed)),
        ("seconds", Json::U64(seconds)),
        ("runs", Json::U64(runs)),
        ("workloads", Json::Obj(workloads_json)),
    ];
    if traced {
        let mut spans = Vec::new();
        let mut per_layer = Vec::new();
        for (i, w) in WORKLOADS.iter().enumerate() {
            let mut args = base(w.name, seed, "1");
            if i > 0 {
                args.push("--skip-probes".to_string());
            }
            let report = child_report(&args, &part)?;
            count(&report);
            spans.extend(
                report
                    .get("spans")
                    .map(Json::items)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            );
            if let Some(Json::Obj(metrics)) = report.get("metrics") {
                for (name, m) in metrics {
                    // Probe metrics come once (first child); the rest
                    // describe the workload the child ran.
                    let per_workload = name.starts_with("workload.") || name.starts_with("trace.");
                    let name = if per_workload {
                        format!("{name}.{}", w.name)
                    } else {
                        name.clone()
                    };
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    println!("{name:<48} {value:>16.6} {unit}");
                    per_layer.push((name, m.clone()));
                }
            }
        }
        let spans_path = out.with_file_name("spans.json");
        write_file(&spans_path, &Json::Arr(spans).render())?;
        println!("spans written to {}", spans_path.display());
        pairs.push(("per_layer", Json::Obj(per_layer)));
    }
    write_file(&out, &Json::obj(pairs).render())?;
    println!("results written to {}", out.display());
    println!("{ops} operations, {failed} failed");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--write-golden`: every cell of every workload once at the default
/// seed, full and smoke inputs both.
fn write_golden(path: &Path) -> Result<ExitCode, String> {
    let mut golden = Golden::new();
    for smoke in [false, true] {
        for w in &WORKLOADS {
            let prepared = prepare(w.name, DEFAULT_SEED, smoke)?;
            for cell in &prepared.cells {
                let run = run_cell(&prepared, cell).map_err(|e| format!("{}: {e}", cell.name))?;
                if !run.verified {
                    return Err(format!("{} failed its own verification", cell.name));
                }
                eprintln!(
                    "{:<48} sim_s {:.2}",
                    golden::key(smoke, w.name, &cell.name),
                    run.sim_s
                );
                golden.insert(golden::key(smoke, w.name, &cell.name), run.fp);
            }
        }
    }
    write_file(path, &golden.render())?;
    println!(
        "{} cells written to {}; rebuild to compile them in",
        golden.len(),
        path.display()
    );
    Ok(ExitCode::SUCCESS)
}

fn run(cli: &Cli) -> Result<ExitCode, String> {
    if let Some((a, b)) = &cli.compare {
        return Ok(if compare::compare(a, b)? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if let Some(path) = &cli.write_golden {
        return write_golden(Path::new(path.as_deref().unwrap_or(GOLDEN_PATH)));
    }
    match &cli.workload {
        Some(name) => one_workload(cli, name),
        None => suite(cli),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| run(&cli)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let c = cli(&[
            "--workload",
            "scale64",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "0",
        ])
        .expect("parses");
        assert_eq!(c.workload.as_deref(), Some("scale64"));
        assert_eq!((c.seed, c.seconds, c.trace), (Some(7), Some(8), false));
        assert!(cli(&["--trace", "1"]).expect("parses").trace);
        assert!(cli(&["--trace"]).expect("parses").trace);
        assert!(cli(&["--trace", "--smoke"]).expect("parses").smoke);
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seed", "x"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    #[test]
    fn the_last_line_is_one_line() {
        let json = Json::obj([
            ("correct", Json::Bool(true)),
            (
                "metrics",
                Json::obj([(
                    "host_s",
                    Json::obj([("value", Json::F64(1.25)), ("unit", Json::str("s\n"))]),
                )]),
            ),
        ]);
        let line = compact(&json);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line), Ok(json));
    }

    /// The benchmark builds as a package of its own; its release profile
    /// must be the workspace's, or it would measure a different program.
    #[test]
    fn own_manifest_mirrors_the_workspace_release_profile() {
        fn profiles(manifest: &str) -> Vec<&str> {
            let mut keep = false;
            manifest
                .lines()
                .map(str::trim)
                .filter(|l| {
                    if l.starts_with('[') {
                        keep = l.starts_with("[profile.release");
                    }
                    keep && !l.is_empty() && !l.starts_with('#')
                })
                .collect()
        }
        let own = profiles(include_str!("Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, profiles(include_str!("../../../../../Cargo.toml")));
    }
}
