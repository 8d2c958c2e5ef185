//! A uniform driver over the applications, used by the benchmark
//! harnesses to regenerate the paper's tables and figures. Every run it
//! returns has passed the application's own check.

use midway_core::{MidwayConfig, MidwayRun, RealConfig};

use crate::{cholesky, kvstore, matmul, quicksort, sor, taskqueue, water};

/// Which benchmark application to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppKind {
    /// SPLASH water: medium-grained.
    Water,
    /// TreadMarks quicksort: medium/coarse, rebinding-heavy.
    Quicksort,
    /// Matrix multiply: coarse-grained, VM's best case.
    Matmul,
    /// Red-black SOR: medium-grained edge sharing.
    Sor,
    /// Sparse Cholesky: fine-grained.
    Cholesky,
    /// Service family: sharded KV store, Zipfian keys, read-mostly.
    KvStore,
    /// Service family: high-churn task queue.
    TaskQueue,
}

impl AppKind {
    /// The paper's five applications in its presentation order (the
    /// Table 2 set — service apps are listed by [`AppKind::service`]).
    pub fn all() -> [AppKind; 5] {
        [
            AppKind::Water,
            AppKind::Quicksort,
            AppKind::Matmul,
            AppKind::Sor,
            AppKind::Cholesky,
        ]
    }

    /// The service-scale workload family.
    pub fn service() -> [AppKind; 2] {
        [AppKind::KvStore, AppKind::TaskQueue]
    }

    /// Every application: the paper set followed by the service family.
    pub fn every() -> [AppKind; 7] {
        [
            AppKind::Water,
            AppKind::Quicksort,
            AppKind::Matmul,
            AppKind::Sor,
            AppKind::Cholesky,
            AppKind::KvStore,
            AppKind::TaskQueue,
        ]
    }

    /// Parses an application label; the error lists every valid label.
    pub fn from_label(s: &str) -> Result<AppKind, String> {
        AppKind::every()
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| {
                let labels = AppKind::every().map(AppKind::label).join("|");
                format!("unknown app {s:?} (use {labels})")
            })
    }

    /// The application's name (the paper's, for the Table 2 set).
    pub fn label(self) -> &'static str {
        match self {
            AppKind::Water => "water",
            AppKind::Quicksort => "quicksort",
            AppKind::Matmul => "matrix",
            AppKind::Sor => "sor",
            AppKind::Cholesky => "cholesky",
            AppKind::KvStore => "kvstore",
            AppKind::TaskQueue => "taskqueue",
        }
    }

    /// Whether the application's final memory is independent of lock
    /// arbitration order, making per-processor store digests directly
    /// comparable across transports.
    ///
    /// Only the strictly barrier-phased applications qualify: every
    /// processor writes a fixed partition, so any execution reaching the
    /// final barrier leaves the same bytes. That is `sor` and `matrix`.
    /// The rest depend on arbitration order: `water`'s flush phase sums
    /// per-molecule force contributions under a lock, and floating-point
    /// addition does not associate, so the order processors win that lock
    /// changes the final bits; `quicksort` places tasks dynamically, so
    /// which processor sorts which span (and thus whose memory holds it)
    /// follows grant order; `cholesky`'s `cmod` interleavings round
    /// differently for the same reason as water. The service apps are
    /// lock-arbitrated by design (their *logical* content is audited
    /// instead), so none qualify.
    pub fn lock_order_independent(self) -> bool {
        matches!(self, AppKind::Sor | AppKind::Matmul)
    }
}

/// Workload scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// The paper's input sizes (run these under `--release`).
    Paper,
    /// Roughly quarter-size inputs for quicker sweeps.
    Medium,
    /// Tiny inputs for tests.
    Small,
    /// Scaled-up inputs for the 64–512 processor sweep. Sized so every
    /// application still partitions at those counts: sor's stripes need at
    /// least two rows each (8192 rows ⇒ up to 4096 processors), matmul
    /// needs a row per processor, quicksort needs enough tasks to keep
    /// hundreds of workers busy.
    Datacenter,
}

impl Scale {
    /// A short label for file names and trace metadata.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Medium => "medium",
            Scale::Small => "small",
            Scale::Datacenter => "dc",
        }
    }
}

/// The scale-adjusted parameters for each app (shared by the simulated and
/// real drivers so the two run identical workloads).
fn water_params(scale: Scale) -> water::Params {
    match scale {
        Scale::Paper => water::Params::paper(),
        Scale::Medium => water::Params {
            molecules: 125,
            steps: 3,
        },
        Scale::Small => water::Params::small(),
        Scale::Datacenter => water::Params {
            molecules: 1728,
            steps: 2,
        },
    }
}

fn quicksort_params(scale: Scale) -> quicksort::Params {
    match scale {
        Scale::Paper => quicksort::Params::paper(),
        Scale::Medium => quicksort::Params {
            n: 60_000,
            threshold: 500,
            seed: 1234,
        },
        Scale::Small => quicksort::Params::small(),
        Scale::Datacenter => quicksort::Params {
            n: 10_000_000,
            threshold: 1000,
            seed: 1234,
        },
    }
}

fn matmul_params(scale: Scale) -> matmul::Params {
    match scale {
        Scale::Paper => matmul::Params::paper(),
        Scale::Medium => matmul::Params { n: 192, seed: 42 },
        Scale::Small => matmul::Params::small(),
        Scale::Datacenter => matmul::Params { n: 1024, seed: 42 },
    }
}

fn sor_params(scale: Scale) -> sor::Params {
    match scale {
        Scale::Paper => sor::Params::paper(),
        Scale::Medium => sor::Params {
            rows: 400,
            cols: 400,
            iters: 10,
            seed: 7,
        },
        Scale::Small => sor::Params::small(),
        Scale::Datacenter => sor::Params {
            rows: 8192,
            cols: 8192,
            iters: 2,
            seed: 7,
        },
    }
}

fn cholesky_params(scale: Scale) -> cholesky::Params {
    match scale {
        Scale::Paper => cholesky::Params::paper(),
        Scale::Medium => cholesky::Params { side: 16 },
        Scale::Small => cholesky::Params::small(),
        Scale::Datacenter => cholesky::Params { side: 40 },
    }
}

fn kvstore_params(scale: Scale) -> kvstore::Params {
    use crate::service::ServiceParams;
    match scale {
        Scale::Paper => kvstore::Params::paper(),
        Scale::Medium => kvstore::Params {
            svc: ServiceParams {
                clients: 4,
                ops_per_client: 100,
                ..ServiceParams::paper()
            },
            keys: 1024,
            shards: 16,
            vwords: 4,
        },
        Scale::Small => kvstore::Params::small(),
        Scale::Datacenter => kvstore::Params {
            svc: ServiceParams {
                clients: 16,
                ops_per_client: 150,
                ..ServiceParams::paper()
            },
            keys: 16_384,
            shards: 128,
            vwords: 4,
        },
    }
}

fn taskqueue_params(scale: Scale) -> taskqueue::Params {
    use crate::service::ServiceParams;
    match scale {
        Scale::Paper => taskqueue::Params::paper(),
        Scale::Medium => taskqueue::Params {
            svc: ServiceParams {
                clients: 4,
                ops_per_client: 25,
                ..ServiceParams::paper()
            },
            branch: 3,
            result_words: 2,
        },
        Scale::Small => taskqueue::Params::small(),
        Scale::Datacenter => taskqueue::Params {
            svc: ServiceParams {
                clients: 8,
                ops_per_client: 30,
                ..ServiceParams::paper()
            },
            branch: 4,
            result_words: 2,
        },
    }
}

/// Runs `kind` at `scale` under `cfg`, and the application's own check
/// of its output.
///
/// # Panics
///
/// Panics if the simulation fails (deadlock / processor panic) or the
/// application fails its check, with [`run_on`]'s error.
pub fn run_app(kind: AppKind, cfg: MidwayConfig, scale: Scale) -> MidwayRun<()> {
    run_on(kind, cfg, None, scale).unwrap_or_else(|e| panic!("{e}"))
}

/// The one dispatch over the applications: runs `kind` at `scale` under
/// `cfg` on the simulator (`real` is `None`) or over `real`'s sockets —
/// the same workload either way — and [`checked`]s it.
///
/// # Errors
///
/// Returns the socket run's failure (socket error, violation, panic,
/// watchdog), or the failed check naming the application, backend,
/// processor count and scale.
///
/// # Panics
///
/// Panics if the simulation fails.
pub fn run_on(
    kind: AppKind,
    cfg: MidwayConfig,
    real: Option<&RealConfig>,
    scale: Scale,
) -> Result<MidwayRun<()>, String> {
    macro_rules! app {
        ($app:ident, $params:expr) => {{
            let run = match real {
                None => $app::run(cfg, $params),
                Some(real) => $app::run_real(cfg, real, $params).map_err(|e| e.to_string())?,
            };
            checked(kind, scale.label(), run, $app::verified)
        }};
    }
    match kind {
        AppKind::Water => app!(water, water_params(scale)),
        AppKind::Quicksort => app!(quicksort, quicksort_params(scale)),
        AppKind::Matmul => app!(matmul, matmul_params(scale)),
        AppKind::Sor => app!(sor, sor_params(scale)),
        AppKind::Cholesky => app!(cholesky, cholesky_params(scale)),
        AppKind::KvStore => app!(kvstore, kvstore_params(scale)),
        AppKind::TaskQueue => app!(taskqueue, taskqueue_params(scale)),
    }
}

/// `run` without its per-processor results, once the application's own
/// check `ok` accepts them: the one place a run of `kind` is verified.
/// `workload` names the input (a scale label, or a sweep's point).
///
/// # Errors
///
/// Returns an error naming the application, backend, processor count and
/// workload if `ok` rejects the results.
pub fn checked<R>(
    kind: AppKind,
    workload: &str,
    run: MidwayRun<R>,
    ok: fn(&[R]) -> bool,
) -> Result<MidwayRun<()>, String> {
    if !ok(&run.results) {
        return Err(format!(
            "{} failed its own check ({}, {} processors, {workload})",
            kind.label(),
            run.cfg.backend.label(),
            run.cfg.procs
        ));
    }
    Ok(run.without_results())
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_core::BackendKind;

    #[test]
    fn driver_runs_and_verifies_every_app() {
        for kind in AppKind::all() {
            let run = run_app(kind, MidwayConfig::new(2, BackendKind::Rt), Scale::Small);
            assert!(run.exec_secs() > 0.0);
        }
    }

    #[test]
    fn driver_runs_and_verifies_every_service_app() {
        for kind in AppKind::service() {
            let run = run_app(kind, MidwayConfig::new(2, BackendKind::Rt), Scale::Small);
            assert!(run.exec_secs() > 0.0);
        }
    }

    #[test]
    fn a_failed_check_is_an_err_naming_the_cell() {
        let run = sor::run(
            MidwayConfig::new(2, BackendKind::Vm),
            sor_params(Scale::Small),
        );
        let err = checked(AppKind::Sor, Scale::Small.label(), run, |_| false).unwrap_err();
        assert_eq!(
            err,
            "sor failed its own check (VM-DSM, 2 processors, small)"
        );
    }

    #[test]
    fn every_label_round_trips_and_an_unknown_one_lists_all_seven() {
        for kind in AppKind::every() {
            assert_eq!(AppKind::from_label(kind.label()), Ok(kind));
        }
        assert_eq!(
            AppKind::from_label("socialgraph"),
            Err("unknown app \"socialgraph\" \
                 (use water|quicksort|matrix|sor|cholesky|kvstore|taskqueue)"
                .to_string())
        );
    }

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(AppKind::Water.label(), "water");
        assert_eq!(AppKind::all().len(), 5);
        assert_eq!(AppKind::every().len(), 7);
        assert!(AppKind::service()
            .iter()
            .all(|k| !k.lock_order_independent()));
    }
}
