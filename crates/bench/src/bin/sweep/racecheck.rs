//! Race-detection harness: the dynamic checker's clean matrix, its
//! planted-bug table, and a live-checking overhead probe.
//!
//! Every application must pass `midway_replay::check` with the checker
//! attached on every data-moving backend: no finding, and the checked run
//! bit for bit the unchecked one. Every planted bug kind must be caught on
//! every backend with its planted provenance, and its reproducer shrunk;
//! the harness fails otherwise. A clean cell's number (the report's
//! `events`) is the ops the checker analyzed: every op of every
//! processor's recording, the reads and lock grants a checked run records
//! included. `--backends` restricts both tables;
//! `--overhead` also times one live application (`--apps`, default sor)
//! with and without the checker attached on the first backend (the
//! EXPERIMENTS.md number).

use std::time::Instant;

use midway_apps::fuzz::{catch_mutant, execute, MutantKind};
use midway_apps::{run_app, AppKind};
use midway_bench::{banner, run_cells, BenchArgs, Json, Record};
use midway_core::{BackendKind, CheckReport, MidwayConfig};
use midway_replay::{check, App, Axes};

use crate::Report;

/// Seeds searched for a schedule that hosts a caught mutation.
const MUTANT_SEEDS: u64 = 25;

pub(crate) fn run(args: BenchArgs) -> Result<Report, String> {
    let backends = args.backends(&BackendKind::DATA)?;
    let overhead_app = args.apps(&[AppKind::Sor])?[0];
    banner("Race check: clean matrix and planted bugs", &args);

    // The zero-false-positive matrix: each cell is one `check` with the
    // checker attached, showing the events it analyzed — every op of every
    // processor's recording, its reads and grants included — so "clean"
    // is visibly not "idle". One cell per app, rows joined in app order.
    let axes = Axes {
        check: true,
        ..Axes::default()
    };
    let clean_rows = run_cells(args.jobs, AppKind::every().to_vec(), |kind| {
        let mut row = Record::default().col("app", kind.label());
        let mut row_ok = true;
        for &backend in &backends {
            let cfg = MidwayConfig::new(args.procs, backend);
            let app = App {
                kind,
                scale: args.scale,
                cfg,
            };
            let cell = match check(&app, &axes) {
                Ok(v) => v.checked.check.expect("checker ran").events.to_string(),
                Err(e) => {
                    eprintln!("{} under {}: {e}", kind.label(), backend.label());
                    row_ok = false;
                    "FAIL".to_string()
                }
            };
            row = row.col(backend.cli_name(), cell);
        }
        (row, row_ok)
    });
    let (clean_rows, clean_ok): (Vec<Record>, Vec<bool>) = clean_rows.into_iter().unzip();
    let clean = Record::table(&clean_rows, 1);
    println!("recorded ops checked, no finding:\n{clean}");

    // The true-positive table: the first seed whose planted bug the
    // checker caught with its provenance, the shrunk reproducer's size,
    // and what the checker reports on it.
    let cells: Vec<(MutantKind, BackendKind)> = MutantKind::ALL
        .iter()
        .flat_map(|&kind| backends.iter().map(move |&backend| (kind, backend)))
        .collect();
    let mutant_rows = run_cells(args.jobs, cells, |(kind, backend)| {
        let found = catch_mutant(kind, backend, MUTANT_SEEDS);
        let (seed, ops, report) = match &found {
            Some((seed, small)) => {
                let cfg = MidwayConfig::new(small.params.procs, backend).check(true);
                let run = execute(small, cfg, None).expect("a caught reproducer runs");
                let report = run.check.expect("checker ran");
                (seed.to_string(), small.op_count().to_string(), report)
            }
            None => {
                eprintln!(
                    "MISSED MUTANT: {} under {}: not caught within {MUTANT_SEEDS} seeds",
                    kind.label(),
                    backend.label()
                );
                ("-".to_string(), "-".to_string(), CheckReport::default())
            }
        };
        let mut row = Record::default()
            .col("mutant", kind.label())
            .col("backend", backend.cli_name())
            .col("seed", seed)
            .col("ops", ops);
        for (label, n) in report.counts_row() {
            row = row.col(label, n.to_string());
        }
        (row, found.is_some())
    });
    let (mutant_rows, caught): (Vec<Record>, Vec<bool>) = mutant_rows.into_iter().unzip();
    let mutants = Record::table(&mutant_rows, 2);
    println!("{mutants}");
    let ok = clean_ok.iter().chain(&caught).all(|&ok| ok);

    if args.flag("--overhead") {
        let backend = backends[0];
        let time = |check: bool| {
            let cfg = MidwayConfig::new(args.procs, backend).check(check);
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    run_app(overhead_app, cfg, args.scale);
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let plain = time(false);
        let checked = time(true);
        println!(
            "live-checking overhead: {} on {}: {plain:.2} s plain, {checked:.2} s checked \
             ({:+.1}% host time; virtual time identical by construction)",
            overhead_app.label(),
            backend.label(),
            (checked / plain - 1.0) * 100.0
        );
    }

    let fields = [
        ("clean", Json::table(&clean)),
        ("mutants", Json::table(&mutants)),
    ];
    let json = Some(args.document("racecheck", fields));
    Ok(Report { json, ok })
}
