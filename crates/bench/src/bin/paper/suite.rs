//! The five-application suite, run live, and the tables derived from it.
//!
//! The paper derives every table one way — measured primitive cost ×
//! per-processor invocation counts of *that system's own run* (§4) — so
//! every artefact runs the applications live under each system it
//! reports. (Replaying one system's trace under another reproduces the
//! other's live run only for lock-order-independent applications; see
//! `tests/tests/replay.rs`.)

use midway_apps::{run_app, AppKind};
use midway_core::{AvgCounters, BackendKind, MidwayConfig, MidwayRun};
use midway_stats::TextTable;

use midway_bench::{run_cells, BenchArgs};

/// One application measured live under RT-DSM and under VM-DSM.
pub(crate) struct SuiteRun {
    pub(crate) app: AppKind,
    pub(crate) rt: MidwayRun<()>,
    pub(crate) vm: MidwayRun<()>,
}

impl SuiteRun {
    /// The per-processor averaged counters of the run under `backend`
    /// (RT-DSM or VM-DSM) — what Tables 2–5 and Figures 3–4 multiply by
    /// primitive costs.
    pub(crate) fn avg(&self, backend: BackendKind) -> AvgCounters {
        match backend {
            BackendKind::Rt => self.rt.avg_counters(),
            _ => self.vm.avg_counters(),
        }
    }
}

/// Runs `app` live under `cfg` at the harness's scale.
///
/// # Panics
///
/// Panics if the application fails its own check ([`run_app`]) — tables
/// derived from an incorrect execution would be meaningless.
pub(crate) fn live_run(args: &BenchArgs, app: AppKind, cfg: MidwayConfig) -> MidwayRun<()> {
    let (backend, procs) = (cfg.backend.label(), cfg.procs);
    eprintln!("running {} ({backend}, {procs}p) ...", app.label());
    run_app(app, cfg, args.scale)
}

/// Runs every paper application under RT-DSM and VM-DSM at `--procs`,
/// one cell per application.
pub(crate) fn run_suite(args: &BenchArgs) -> Vec<SuiteRun> {
    run_cells(args.jobs, AppKind::all().to_vec(), |app| SuiteRun {
        app,
        rt: live_run(args, app, MidwayConfig::new(args.procs, BackendKind::Rt)),
        vm: live_run(args, app, MidwayConfig::new(args.procs, BackendKind::Vm)),
    })
}

/// A row of a suite table: `(system, operation, value per application)`;
/// `None` is a separator.
pub(crate) type SuiteRow<'a> = Option<(&'a str, &'a str, &'a dyn Fn(&SuiteRun) -> String)>;

/// The paper's table layout: `System | Operation | <one column per
/// application>`, one line per row.
pub(crate) fn suite_table(suite: &[SuiteRun], rows: &[SuiteRow]) -> TextTable {
    let mut headers = vec!["System", "Operation"];
    headers.extend(suite.iter().map(|s| s.app.label()));
    let mut t = TextTable::new(&headers).left_cols(2);
    for row in rows {
        match row {
            None => t.separator(),
            Some((system, operation, value)) => {
                let mut cells = vec![system.to_string(), operation.to_string()];
                cells.extend(suite.iter().map(value));
                t.row(&cells);
            }
        }
    }
    t
}
