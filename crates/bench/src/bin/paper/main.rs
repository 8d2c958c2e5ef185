//! `paper <artefact>`: regenerates one table or figure of the paper (or
//! one of the §3.5 ablations) from live application runs.
//!
//! ```text
//! paper --list
//! paper table2 [--scale paper|medium|small] [--procs N] [--jobs N] [--out FILE]
//! ```
//!
//! Stdout is exactly the artefact — `results/<artefact>.txt` is a
//! capture of it at the defaults, and `ci.sh` compares the two byte for
//! byte for every name `--list` prints. Progress and the path of the JSON
//! copy (`--out`, default `results/<artefact>.json`) go to stderr.

use std::path::PathBuf;
use std::process::ExitCode;

use midway_bench::{BenchArgs, Json};

mod ablations;
mod suite;
mod tables;

/// Flags of the artefacts that run the application suite.
const SUITE: &[&str] = &["--scale", "--procs", "--jobs", "--out"];
/// Flags of the artefacts with a fixed workload.
const FIXED: &[&str] = &["--out"];

/// What an artefact returns besides printing itself: the fields of its
/// JSON copy, which follow the standard preamble.
type Fields = Vec<(String, Json)>;

fn fields<const N: usize>(pairs: [(&str, Json); N]) -> Fields {
    pairs.map(|(k, v)| (k.to_string(), v)).into()
}

/// One regenerable artefact: its name (also the stem of its committed
/// `results/*.txt`), what it shows, the flags it accepts, and the
/// function that prints it.
struct Artefact(
    &'static str,
    &'static str,
    &'static [&'static str],
    fn(&BenchArgs) -> Fields,
);

const ARTEFACTS: [Artefact; 11] = [
    Artefact("table1", "primitive operation costs", FIXED, tables::table1),
    Artefact(
        "table2",
        "per-processor invocation counts",
        SUITE,
        tables::table2,
    ),
    Artefact("table3", "write trapping time", SUITE, tables::table3),
    Artefact("table4", "write collection time", SUITE, tables::table4),
    Artefact("table5", "memory references", SUITE, tables::table5),
    Artefact(
        "fig2",
        "execution time and data transferred",
        SUITE,
        tables::fig2,
    ),
    Artefact(
        "fig3",
        "trapping cost vs page-fault cost",
        SUITE,
        tables::fig3,
    ),
    Artefact(
        "fig4",
        "total detection cost vs page-fault cost",
        SUITE,
        tables::fig4,
    ),
    Artefact(
        "ablation_protocols",
        "§3.5 alternative strategies",
        SUITE,
        ablations::protocols,
    ),
    Artefact(
        "ablation_linesize",
        "cache-line size sweep",
        &["--jobs", "--out"],
        ablations::linesize,
    ),
    Artefact(
        "false_sharing",
        "false-sharing microbenchmark",
        FIXED,
        ablations::false_sharing,
    ),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let first = argv.first().map(String::as_str);
    let Some(Artefact(name, _, flags, run)) = ARTEFACTS.iter().find(|a| Some(a.0) == first) else {
        if first == Some("--list") {
            for Artefact(name, ..) in &ARTEFACTS {
                println!("{name}");
            }
            return ExitCode::SUCCESS;
        }
        eprintln!("usage: paper --list | paper <artefact> [flags]\nartefacts:");
        for Artefact(name, about, ..) in &ARTEFACTS {
            eprintln!("  {name:22}{about}");
        }
        return ExitCode::from(2);
    };
    let written = BenchArgs::parse(&argv[1..], flags).and_then(|args| {
        let json = args.document(name, run(&args));
        args.write(&PathBuf::from(format!("results/{name}.json")), &json)
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("paper {name}: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results_dir() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
    }

    /// A new artefact cannot skip the CI gate, and a stale capture cannot
    /// linger: `paper --list` and `results/*.txt` name the same set.
    #[test]
    fn artefacts_and_committed_results_are_in_bijection() {
        let mut listed: Vec<String> = ARTEFACTS.iter().map(|a| a.0.to_string()).collect();
        listed.sort();
        let mut committed: Vec<String> = std::fs::read_dir(results_dir())
            .expect("results/ is committed")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| {
                p.file_stem()
                    .expect("a stem")
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        committed.sort();
        assert_eq!(listed, committed);
    }

    /// The numeric cells of each application's row in a committed capture
    /// (its first table only).
    fn app_rows(file: &str) -> Vec<(String, Vec<String>)> {
        let text = std::fs::read_to_string(results_dir().join(file)).expect("committed capture");
        let mut rows: Vec<(String, Vec<String>)> = Vec::new();
        for line in text.lines() {
            let mut words = line.split_whitespace().map(str::to_string);
            let Some(app) = words.next() else { continue };
            let known = midway_apps::AppKind::all().iter().any(|k| k.label() == app);
            if known && !rows.iter().any(|(a, _)| *a == app) {
                rows.push((app, words.collect()));
            }
        }
        assert_eq!(rows.len(), 5, "{file}: one row per application");
        rows
    }

    /// Two artefacts that report the same cell must print the same number:
    /// the ablation's RT / VM columns are Figure 2's 8-processor columns.
    #[test]
    fn ablation_protocols_agrees_with_fig2_on_rt_and_vm() {
        let fig2 = app_rows("fig2.txt");
        let ablation = app_rows("ablation_protocols.txt");
        for ((app, f), (app2, a)) in fig2.iter().zip(&ablation) {
            assert_eq!(app, app2);
            // fig2: standalone, RT 1p, VM 1p, RT 8p, VM 8p, RT MB, VM MB.
            // ablation: five backends' seconds, then five backends' MB.
            assert_eq!(
                [&f[3], &f[4], &f[5], &f[6]],
                [&a[0], &a[1], &a[5], &a[6]],
                "{app}: RT s / VM s / RT MB / VM MB"
            );
        }
    }

    /// Every artefact's flag list names declared flags only, and a typo
    /// is refused rather than ignored.
    #[test]
    fn every_artefact_refuses_flags_it_does_not_declare() {
        for Artefact(name, _, flags, _) in &ARTEFACTS {
            BenchArgs::parse(&[], flags).expect("no flags is fine");
            for stale in ["--live", "--retrace", "--trace", "--net-sweep", "--prcs"] {
                let err = BenchArgs::parse(&[stale.to_string()], flags).unwrap_err();
                assert!(err.contains("unknown flag"), "{name}: {err}");
            }
        }
    }
}
