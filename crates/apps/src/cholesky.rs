//! Sparse Cholesky factorization (paper §4): fine-grained sharing.
//!
//! "Given a positive definite matrix A, the program finds a lower
//! triangular matrix L, such that A = LLᵀ. This program exhibits
//! fine-grain sharing."
//!
//! The SPLASH input matrices are unavailable, so the factored matrix is a
//! synthetic 2-D grid Laplacian (shifted to be strongly SPD) — a standard
//! sparse test family with substantial fill-in. The symbolic factorization
//! (elimination tree and fill pattern) is computed sequentially during
//! setup, as SPLASH does; the numeric factorization runs in parallel,
//! right-looking, with one lock per column: completing a column applies
//! `cmod` updates to every later column in its pattern under that column's
//! lock — many small updates to scattered addresses, which is exactly the
//! fine-grained behaviour the paper measures.

use std::sync::Arc;

use midway_core::{
    LockId, Midway, MidwayConfig, MidwayRun, NetMsg, Proc, RealConfig, RunError, SharedArray,
    SystemBuilder, SystemSpec, Transport,
};

/// Cycles charged per multiply-subtract of a `cmod` update.
const CYCLES_PER_CMOD_ELEM: u64 = 12;
/// Cycles charged per element of a `cdiv` (scaling by the pivot).
const CYCLES_PER_CDIV_ELEM: u64 = 30;

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Grid side: the matrix is the Laplacian of a `side × side` grid,
    /// giving `side²` columns.
    pub side: usize,
}

impl Params {
    /// Default configuration: a 28×28 grid (784 columns) with heavy
    /// fill-in — fine-grained like the paper's SPLASH inputs.
    pub fn paper() -> Params {
        Params { side: 28 }
    }

    /// A small configuration for tests.
    pub fn small() -> Params {
        Params { side: 8 }
    }
}

/// The sequentially computed symbolic factorization.
struct Symbolic {
    /// Matrix dimension.
    pub n: usize,
    /// Column start offsets into `rows` / the value array; length `n + 1`.
    pub colptr: Vec<usize>,
    /// Row indices of each column's nonzeros (diagonal first, ascending).
    pub rows: Vec<usize>,
    /// For each column, how many `cmod` updates it receives.
    pub deps: Vec<u32>,
    /// Original matrix entries: `(row, col, value)` with `row >= col`.
    pub a_entries: Vec<(usize, usize, f64)>,
}

/// Builds the grid Laplacian and computes the fill pattern.
///
/// Column pattern recurrence (standard symbolic factorization): the
/// pattern of L's column `j` is A's column pattern plus the patterns of
/// its elimination-tree children, restricted to rows ≥ `j`.
fn symbolic(p: Params) -> Symbolic {
    let side = p.side;
    let n = side * side;
    // Lower-triangular pattern and values of A.
    let mut a_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (v, col) in a_cols.iter_mut().enumerate() {
        col.push((v, 8.0)); // strong diagonal: SPD for sure
        let (x, y) = (v % side, v / side);
        if x + 1 < side {
            col.push((v + 1, -1.0));
        }
        if y + 1 < side {
            col.push((v + side, -1.0));
        }
    }
    // Fill pattern via elimination-tree children.
    let mut patterns: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        let mut pat: Vec<usize> = a_cols[j].iter().map(|(r, _)| *r).collect();
        for &k in &children[j] {
            pat.extend(patterns[k].iter().copied().filter(|r| *r > j));
        }
        pat.sort_unstable();
        pat.dedup();
        debug_assert_eq!(pat[0], j, "diagonal present");
        if let Some(&parent) = pat.get(1) {
            children[parent].push(j);
        }
        patterns.push(pat);
    }
    let mut colptr = Vec::with_capacity(n + 1);
    let mut rows = Vec::new();
    colptr.push(0);
    for pat in &patterns {
        rows.extend_from_slice(pat);
        colptr.push(rows.len());
    }
    // deps[k] = number of columns j < k with k in pattern(j).
    let mut deps = vec![0u32; n];
    for (j, pat) in patterns.iter().enumerate() {
        for &r in &pat[1..] {
            let _ = j;
            deps[r] += 1;
        }
    }
    let a_entries = (0..n)
        .flat_map(|j| a_cols[j].iter().map(move |(r, v)| (*r, j, *v)))
        .collect();
    Symbolic {
        n,
        colptr,
        rows,
        deps,
        a_entries,
    }
}

/// Per-processor outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    /// Columns this processor factored.
    pub columns_factored: u64,
    /// Max `|(L·Lᵀ − A)|` over sampled entries, computed by processor 0.
    pub max_residual: Option<f64>,
}

struct Handles {
    val: SharedArray<f64>,
    ndone: SharedArray<i32>,
    /// Misclassified per-processor marker (see quicksort).
    scratch: SharedArray<i32>,
    col_locks: Vec<LockId>,
    init_done: midway_core::BarrierId,
}

fn owner_of(_n: usize, procs: usize, j: usize) -> usize {
    j % procs
}

fn build(sym: &Symbolic, _procs: usize) -> (Arc<SystemSpec>, Handles) {
    let mut b = SystemBuilder::new();
    let val = b.shared_array::<f64>("L", sym.colptr[sym.n], 1);
    let ndone = b.shared_array::<i32>("ndone", sym.n, 1);
    let col_locks = (0..sym.n)
        .map(|j| {
            b.lock(vec![
                val.range(sym.colptr[j]..sym.colptr[j + 1]),
                ndone.range(j..j + 1),
            ])
        })
        .collect();
    let init_done = b.barrier(vec![]);
    let scratch = b.private_array::<i32>("progress", 16);
    (
        b.build(),
        Handles {
            val,
            ndone,
            scratch,
            col_locks,
            init_done,
        },
    )
}

/// Runs the parallel factorization under `cfg`.
///
/// # Panics
///
/// Panics if the simulation fails.
pub fn run(cfg: MidwayConfig, p: Params) -> MidwayRun<Outcome> {
    let sym = Arc::new(symbolic(p));
    let (spec, h) = build(&sym, cfg.procs);
    Midway::run(cfg, &spec, |proc: &mut Proc| worker(proc, &sym, &h))
        .expect("cholesky simulation failed")
}

/// Runs the parallel factorization over real sockets (`Midway::run_real`).
pub fn run_real(
    cfg: MidwayConfig,
    real: &RealConfig,
    p: Params,
) -> Result<MidwayRun<Outcome>, RunError> {
    let sym = Arc::new(symbolic(p));
    let (spec, h) = build(&sym, cfg.procs);
    Midway::run_real(cfg, real, &spec, |proc| worker(proc, &sym, &h))
}

fn worker<T: Transport<Msg = NetMsg>>(
    proc: &mut Proc<'_, T>,
    sym: &Symbolic,
    h: &Handles,
) -> Outcome {
    let me = proc.id();
    let procs = proc.procs();
    let n = sym.n;

    // Parallel initialization: owners seed their columns with A.
    for j in 0..n {
        if owner_of(n, procs, j) != me {
            continue;
        }
        proc.acquire(h.col_locks[j]);
        for (r, c, v) in sym.a_entries.iter().filter(|(_, c, _)| *c == j) {
            let slot = nz_index(sym, *c, *r);
            proc.write(&h.val, slot, *v);
        }
        proc.write(&h.ndone, j, 0);
        proc.release(h.col_locks[j]);
    }
    // No cmod may race ahead of another owner's initialization.
    proc.barrier(h.init_done);

    let mut columns_factored = 0u64;
    for j in 0..n {
        if owner_of(n, procs, j) != me {
            continue;
        }
        // Wait until every earlier column's update has been applied.
        loop {
            proc.acquire(h.col_locks[j]);
            let done = proc.read(&h.ndone, j);
            if done as u32 == sym.deps[j] {
                break; // keep holding the lock for cdiv
            }
            proc.release(h.col_locks[j]);
            proc.idle(5_000);
        }
        if columns_factored.is_multiple_of(4) {
            // Misclassified private progress write (6-cycle penalty).
            proc.write(&h.scratch, me % 16, j as i32);
        }
        // cdiv(j): scale by the pivot.
        let (lo, hi) = (sym.colptr[j], sym.colptr[j + 1]);
        let diag = proc.read(&h.val, lo);
        assert!(diag > 0.0, "matrix is SPD; pivot must be positive");
        let pivot = diag.sqrt();
        proc.write(&h.val, lo, pivot);
        for s in lo + 1..hi {
            let v = proc.read(&h.val, s);
            proc.write(&h.val, s, v / pivot);
        }
        proc.work((hi - lo) as u64 * CYCLES_PER_CDIV_ELEM);
        // Mark the column complete (deps + 1 = "cdiv done") and snapshot
        // it before releasing.
        proc.write(&h.ndone, j, sym.deps[j] as i32 + 1);
        let col: Vec<f64> = proc.read_vec(&h.val, lo..hi);
        proc.release(h.col_locks[j]);
        columns_factored += 1;

        // cmod(k, j) for every later column in j's pattern: fine-grained
        // scattered updates under other columns' locks.
        for (off_k, &k) in sym.rows[lo..hi].iter().enumerate().skip(1) {
            let ljk = col[off_k];
            proc.acquire(h.col_locks[k]);
            let mut updates = 0u64;
            for (off_i, &i) in sym.rows[lo..hi].iter().enumerate().skip(off_k) {
                let slot = nz_index(sym, k, i);
                let cur = proc.read(&h.val, slot);
                proc.write(&h.val, slot, cur - col[off_i] * ljk);
                updates += 1;
            }
            let done = proc.read(&h.ndone, k);
            proc.write(&h.ndone, k, done + 1);
            proc.release(h.col_locks[k]);
            proc.work(updates * CYCLES_PER_CMOD_ELEM);
        }
    }

    // Processor 0 verifies L·Lᵀ ≈ A on sampled entries after quiescence.
    let max_residual = (me == 0).then(|| verify(proc, sym, h));
    Outcome {
        columns_factored,
        max_residual,
    }
}

/// Index of `(row, col)` in the packed value array.
fn nz_index(sym: &Symbolic, col: usize, row: usize) -> usize {
    let span = &sym.rows[sym.colptr[col]..sym.colptr[col + 1]];
    sym.colptr[col]
        + span
            .binary_search(&row)
            .unwrap_or_else(|_| panic!("({row},{col}) not in fill pattern"))
}

fn verify<T: Transport<Msg = NetMsg>>(proc: &mut Proc<'_, T>, sym: &Symbolic, h: &Handles) -> f64 {
    let n = sym.n;
    // Gather all columns (waiting until each is fully updated).
    let mut l: Vec<Vec<f64>> = Vec::with_capacity(n);
    for j in 0..n {
        loop {
            proc.acquire(h.col_locks[j]);
            let done = proc.read(&h.ndone, j);
            // deps + 1 marks a fully factored (cdiv'd) column.
            if done as u32 == sym.deps[j] + 1 {
                break;
            }
            proc.release(h.col_locks[j]);
            proc.idle(5_000);
        }
        l.push(proc.read_vec(&h.val, sym.colptr[j]..sym.colptr[j + 1]));
        proc.release(h.col_locks[j]);
    }
    // Dense reconstruction of sampled entries.
    let entry = |i: usize, j: usize| -> f64 {
        let mut sum = 0.0;
        for (k, lk) in l.iter().enumerate().take(j.min(i) + 1) {
            let span = &sym.rows[sym.colptr[k]..sym.colptr[k + 1]];
            let (Ok(pi), Ok(pj)) = (span.binary_search(&i), span.binary_search(&j)) else {
                continue;
            };
            sum += lk[pi] * lk[pj];
        }
        sum
    };
    let a = |i: usize, j: usize| -> f64 {
        sym.a_entries
            .iter()
            .find(|(r, c, _)| (*r == i.max(j)) && (*c == i.min(j)))
            .map_or(0.0, |(_, _, v)| *v)
    };
    let mut max_res = 0.0f64;
    let step = (n / 23).max(1);
    for i in (0..n).step_by(step) {
        for j in (0..=i).step_by(step) {
            max_res = max_res.max((entry(i, j) - a(i, j)).abs());
        }
    }
    max_res
}

/// Aggregate verification.
pub fn verified(outcomes: &[Outcome]) -> bool {
    outcomes[0]
        .max_residual
        .is_some_and(|r| r.is_finite() && r < 1e-8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_core::BackendKind;

    #[test]
    fn symbolic_pattern_is_consistent() {
        let sym = symbolic(Params::small());
        assert_eq!(sym.n, 64);
        for j in 0..sym.n {
            let span = &sym.rows[sym.colptr[j]..sym.colptr[j + 1]];
            assert_eq!(span[0], j, "diagonal first");
            assert!(span.windows(2).all(|w| w[0] < w[1]), "sorted");
        }
        // The grid Laplacian fills in: strictly more nonzeros than A.
        let a_nnz = sym.a_entries.len();
        assert!(sym.colptr[sym.n] > a_nnz);
    }

    #[test]
    fn factors_correctly_on_every_backend() {
        for backend in [
            BackendKind::Rt,
            BackendKind::Vm,
            BackendKind::Blast,
            BackendKind::TwinAll,
        ] {
            let run = run(MidwayConfig::new(3, backend), Params::small());
            assert!(
                verified(&run.results),
                "{backend:?}: residual {:?}",
                run.results[0].max_residual
            );
        }
    }

    #[test]
    fn factors_standalone() {
        let run = run(MidwayConfig::standalone(), Params::small());
        assert!(verified(&run.results));
    }

    #[test]
    fn work_is_distributed_and_fine_grained() {
        let run = run(MidwayConfig::new(4, BackendKind::Rt), Params::small());
        for (pid, o) in run.results.iter().enumerate() {
            assert!(o.columns_factored > 0, "proc {pid} factored nothing");
        }
        // Fine-grained: many lock acquisitions relative to data size.
        let acquires: u64 = run.counters.iter().map(|c| c.lock_acquires).sum();
        assert!(acquires as usize > symbolic(Params::small()).n * 2);
    }
}
