//! `sweep <harness>`: the grids beyond the paper's evaluation (run it
//! with no arguments for the list; each harness is a module here).
//!
//! Every harness has a CI-sized cell that `ci.sh` runs (`--smoke`) and
//! asserts its own oracle — convergence, verification, detection — so a
//! nonzero exit is a finding, not a formatting problem. A bad flag prints
//! the harness's accepted flags and exits 2.

use std::path::Path;
use std::process::ExitCode;

use midway_apps::AppKind;
use midway_bench::{BenchArgs, Json};
use midway_core::{BackendKind, MidwayConfig};
use midway_replay::{record_app, Trace};

mod crash;
mod fault;
mod fuzz;
mod racecheck;
mod real;
mod scale;
mod svc;

/// What a harness hands back: its JSON document, if it produces one, and
/// whether every check it makes held.
struct Report {
    json: Option<Json>,
    ok: bool,
}

impl Report {
    fn passed(json: Json) -> Result<Report, String> {
        let json = Some(json);
        Ok(Report { json, ok: true })
    }
}

/// One harness: its name, what it measures, the flags it accepts, where
/// its JSON goes by default, and its entry point.
struct Harness(
    &'static str,
    &'static str,
    &'static [&'static str],
    &'static str,
    fn(BenchArgs) -> Result<Report, String>,
);

const HARNESSES: [Harness; 7] = [
    Harness(
        "fault",
        "reliable-delivery cost per backend × loss rate",
        &[
            "--scale",
            "--procs",
            "--jobs",
            "--out",
            "--smoke",
            "--fault-seed",
        ],
        "results/fault_sweep.json",
        fault::run,
    ),
    Harness(
        "crash",
        "checkpointed-recovery cost per backend × interval",
        &[
            "--scale",
            "--procs",
            "--jobs",
            "--out",
            "--smoke",
            "--crashes",
            "--intervals",
        ],
        "results/crash_sweep.json",
        crash::run,
    ),
    Harness(
        "scale",
        "64–512 processors, tree barriers, sharded homes",
        &[
            "--scale",
            "--out",
            "--smoke",
            "--procs-list",
            "--apps",
            "--backends",
            "--arity",
            "--budget-gb",
            "--render",
            "--write",
        ],
        "BENCH_scale.json",
        scale::run,
    ),
    Harness(
        "svc",
        "service applications, idle to saturation",
        &[
            "--procs",
            "--out",
            "--smoke",
            "--apps",
            "--backends",
            "--find-knee",
        ],
        "BENCH_svc.json",
        svc::run,
    ),
    Harness(
        "real",
        "loopback sockets, cross-validated by the simulator",
        &[
            "--scale",
            "--procs",
            "--out",
            "--smoke",
            "--apps",
            "--backends",
            "--loss",
            "--trace",
        ],
        "results/realrun.json",
        real::run,
    ),
    Harness(
        "racecheck",
        "clean-application matrix, planted bugs, checker overhead",
        &[
            "--scale",
            "--procs",
            "--jobs",
            "--out",
            "--apps",
            "--backends",
            "--overhead",
        ],
        "results/racecheck.json",
        racecheck::run,
    ),
    Harness(
        "fuzz",
        "differential fuzz across all six backends",
        &["--smoke", "--seeds", "--seed"],
        "",
        fuzz::run,
    ),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let first = argv.first().map(String::as_str);
    let Some(Harness(name, _, flags, out, run)) = HARNESSES.iter().find(|h| Some(h.0) == first)
    else {
        eprintln!("usage: sweep <harness> [flags]\nharnesses:");
        for Harness(name, about, ..) in &HARNESSES {
            eprintln!("  {name:11}{about}");
        }
        return ExitCode::from(2);
    };
    let report = BenchArgs::parse(&argv[1..], flags).and_then(|args| {
        let report = run(args.clone())?;
        if let Some(json) = &report.json {
            args.write(Path::new(out), json)?;
        }
        Ok(report)
    });
    match report {
        Ok(Report { ok: true, .. }) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("sweep {name}: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Records sor once, in memory: the one fixed operation stream that
/// `fault` and `crash` check under every backend and fault plan. Sor is
/// lock-order independent, so `midway_replay::check` holds every such run
/// to the baseline's final memory and counters.
fn record_sor(args: &BenchArgs) -> Trace {
    eprintln!("sor: recording under RT-DSM ...");
    let cfg = MidwayConfig::new(args.procs, BackendKind::Rt);
    record_app(AppKind::Sor, cfg, args.scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every key path of a JSON document, arrays flattened to `[]`.
    fn key_paths(json: &Json, prefix: &str, out: &mut BTreeSet<String>) {
        match json {
            Json::Obj(pairs) => {
                for (k, v) in pairs {
                    let path = format!("{prefix}{k}");
                    key_paths(v, &format!("{path}."), out);
                    out.insert(path);
                }
            }
            Json::Arr(items) => {
                let prefix = format!("{}[].", prefix.trim_end_matches('.'));
                items.iter().for_each(|v| key_paths(v, &prefix, out));
            }
            _ => {}
        }
    }

    /// `BENCH_*.json` consumers and `scale --render` read these documents
    /// by key: the key sets of every `--smoke` run are pinned to what the
    /// twenty separate binaries wrote (fixtures captured from them).
    #[test]
    fn smoke_json_key_sets_match_the_fixtures() {
        let traces = std::env::temp_dir().join(format!("midway-sweep-{}", std::process::id()));
        let fixtures = include_str!("smoke_keys.txt");
        for Harness(name, _, flags, _, run) in &HARNESSES {
            let Some(want) = fixtures
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{name}: ")))
            else {
                continue;
            };
            let mut argv = vec!["--smoke".to_string()];
            if flags.contains(&"--trace") {
                argv.extend(["--trace".to_string(), traces.display().to_string()]);
            }
            let report = run(BenchArgs::parse(&argv, flags).expect("smoke flags parse"))
                .unwrap_or_else(|e| panic!("sweep {name} --smoke: {e}"));
            assert!(report.ok, "sweep {name} --smoke failed its own checks");
            let mut got = BTreeSet::new();
            key_paths(&report.json.expect("a JSON document"), "", &mut got);
            let got: Vec<String> = got.into_iter().collect();
            assert_eq!(got.join(" "), want, "sweep {name} --smoke key set");
        }
        let _ = std::fs::remove_dir_all(&traces);
    }
}
