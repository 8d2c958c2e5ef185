//! Race-detection harness: the dynamic checker's clean-application
//! matrix, mutant detection table, and live-checking overhead probe.
//!
//! Every clean application must be finding-free on every data-moving
//! backend, and every seeded mutant must be detected with its planted
//! kind and provenance; the harness fails otherwise. `--backends`
//! restricts the matrix; `--overhead` also times one live application
//! (`--apps`, default sor) with and without the checker attached on the
//! first backend (the EXPERIMENTS.md number).

use std::time::Instant;

use midway_apps::mutants::{run_mutant, MutantKind};
use midway_apps::{run_app, AppKind};
use midway_bench::{banner, run_cells, BenchArgs, Json, Record};
use midway_core::{report, BackendKind, FindingKind, MidwayConfig};

use crate::Report;

pub(crate) fn run(args: BenchArgs) -> Result<Report, String> {
    let backends = args.backends(&BackendKind::DATA)?;
    let overhead_app = args.apps(&[AppKind::Sor])?[0];
    banner("Race check: clean matrix and mutant detection", &args);

    // The zero-false-positive matrix: finding totals, all of which must
    // be zero (the checker's event count is shown so "clean" is visibly
    // not "idle"). Every (app × backends) row is a live, isolated run:
    // one cell per app, rows joined in app order.
    let clean_rows = run_cells(args.jobs, AppKind::all().to_vec(), |app| {
        let mut row = Record::default().col("app", app.label());
        let (mut events, mut row_ok) = (0, true);
        for backend in &backends {
            let cfg = MidwayConfig::new(args.procs, *backend).check(true);
            let r = run_app(app, cfg, args.scale).check.expect("checker ran");
            if !r.is_clean() {
                eprintln!(
                    "FALSE POSITIVE: {} under {}: {}",
                    app.label(),
                    backend.label(),
                    r.summary()
                );
                row_ok = false;
            }
            events = events.max(r.events);
            row = row.col(backend.cli_name(), r.total().to_string());
        }
        (row.col("events", events.to_string()), row_ok)
    });
    let (clean_rows, clean_ok): (Vec<Record>, Vec<bool>) = clean_rows.into_iter().unzip();
    let clean = Record::table(&clean_rows, 1);
    println!("{clean}");

    // The true-positive table: per-kind finding counts, and whether the
    // planted bug was reported with its planted provenance.
    let mutant_rows = run_cells(args.jobs, MutantKind::ALL.to_vec(), |kind| {
        backends
            .iter()
            .map(move |backend| {
                let (run, expect) = run_mutant(kind, MidwayConfig::new(args.procs, *backend));
                let r = run.check.expect("checker ran");
                let detected = r.first_of(expect.kind).is_some_and(|f| {
                    f.proc == expect.proc && f.alloc.as_deref() == Some(expect.alloc)
                });
                if !detected {
                    eprintln!(
                        "MISSED MUTANT: {} under {}: wanted {:?} by proc {} in {:?}, got {}",
                        kind.label(),
                        backend.label(),
                        expect.kind,
                        expect.proc,
                        expect.alloc,
                        r.summary()
                    );
                }
                let mut row = Record::default()
                    .col("mutant", kind.label())
                    .col("backend", backend.cli_name());
                for (label, n) in report::check_counts(&r).iter().take(FindingKind::ALL.len()) {
                    row = row.col(label, n.to_string());
                }
                let verdict = if detected { "detected" } else { "MISSED" };
                (row.col("verdict", verdict), detected)
            })
            .collect::<Vec<_>>()
    });
    let (mutant_rows, detected): (Vec<Record>, Vec<bool>) =
        mutant_rows.into_iter().flatten().unzip();
    let mutants = Record::table(&mutant_rows, 2);
    println!("{mutants}");
    let ok = clean_ok.iter().chain(&detected).all(|&ok| ok);

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
