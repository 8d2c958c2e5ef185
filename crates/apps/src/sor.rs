//! Red-black successive over-relaxation (paper §4).
//!
//! "The program iteratively computes new values for each element in a
//! 1000×1000 matrix of floating point values... Only data at the edges of
//! each partition are shared between processors. The interior elements are
//! initialized to random values to maximize the changed elements per
//! iteration. The program runs for 25 iterations and exhibits medium-grain
//! sharing."
//!
//! The grid is partitioned into row stripes. Interior rows are private
//! (annotated so, as the paper's programmer would): they live in ordinary
//! local memory and their writes are not instrumented. Each stripe's first
//! and last rows are shared: after updating them, the owner publishes the
//! changed elements to per-processor edge arrays bound to the phase
//! barrier, and neighbours read them from there.

use std::sync::Arc;

use midway_core::{
    BarrierId, Midway, MidwayConfig, MidwayRun, NetMsg, Proc, RealConfig, RunError, SharedArray,
    SystemBuilder, SystemSpec, Transport,
};
use midway_sim::SplitMix64;

/// Cycles charged per element update (4 loads, multiply, adds, store).
const CYCLES_PER_UPDATE: u64 = 20;

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Grid rows (paper: 1000).
    pub rows: usize,
    /// Grid columns (paper: 1000).
    pub cols: usize,
    /// Iterations (paper: 25); each has a red and a black phase.
    pub iters: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Params {
    /// The paper's configuration.
    pub fn paper() -> Params {
        Params {
            rows: 1000,
            cols: 1000,
            iters: 25,
            seed: 7,
        }
    }

    /// A small configuration for tests.
    pub fn small() -> Params {
        Params {
            rows: 40,
            cols: 32,
            iters: 6,
            seed: 7,
        }
    }
}

/// Per-processor outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    /// Checksum of this processor's stripe: the parallel decomposition
    /// performs identical per-element arithmetic, so totals agree across
    /// processor counts up to summation order.
    pub stripe_checksum: f64,
    /// Sum of |update| in the final iteration (a convergence proxy).
    pub final_residual: f64,
    /// Sum of |update| in the first iteration.
    pub initial_residual: f64,
}

struct Handles {
    /// `edges[p*2]` = proc p's first stripe row; `edges[p*2+1]` = its last.
    edges: SharedArray<f64>,
    /// Misclassified per-processor marker (see quicksort).
    scratch: SharedArray<f64>,
    phase_done: BarrierId,
}

fn stripe_of(rows: usize, procs: usize, p: usize) -> std::ops::Range<usize> {
    // Balanced partition: the first `rows % procs` stripes get one extra
    // row. Unlike ceiling division this never strands trailing processors
    // with empty stripes (e.g. 400 rows over 64 processors), and it is
    // identical whenever `procs` divides `rows` — which covers every
    // recorded-trace configuration.
    let base = rows / procs;
    let extra = rows % procs;
    let start = base * p + p.min(extra);
    start..start + base + usize::from(p < extra)
}

fn build(p: Params, procs: usize) -> (Arc<SystemSpec>, Handles) {
    let mut b = SystemBuilder::new();
    // One published row per stripe edge: 2 per processor.
    let edges = b.shared_array::<f64>("edges", procs * 2 * p.cols, 1);
    let partitions: Vec<_> = (0..procs)
        .map(|q| vec![edges.range(q * 2 * p.cols..(q * 2 + 2) * p.cols)])
        .collect();
    let phase_done = b.barrier_partitioned(vec![edges.full_range()], partitions);
    let scratch = b.private_array::<f64>("progress", 16);
    (
        b.build(),
        Handles {
            edges,
            scratch,
            phase_done,
        },
    )
}

fn initial(seed: u64, i: usize, j: usize, rows: usize, cols: usize) -> f64 {
    if i == 0 || j == 0 || i == rows - 1 || j == cols - 1 {
        // Fixed edge temperature.
        100.0
    } else {
        let mut r = SplitMix64::new(seed ^ ((i * cols + j) as u64).wrapping_mul(0x5851));
        r.next_range_f64(0.0, 50.0)
    }
}

/// Runs red-black SOR under `cfg` and verifies convergence.
///
/// # Panics
///
/// Panics if the simulation fails, or if the grid is too small for the
/// processor count (each stripe needs at least two rows).
pub fn run(cfg: MidwayConfig, p: Params) -> MidwayRun<Outcome> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run(cfg, &spec, |proc: &mut Proc| session(proc, p, &h)).expect("sor simulation failed")
}

/// Runs red-black SOR over real sockets (`Midway::run_real`); same
/// decomposition and verification as [`run`].
pub fn run_real(
    cfg: MidwayConfig,
    real: &RealConfig,
    p: Params,
) -> Result<MidwayRun<Outcome>, RunError> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run_real(cfg, real, &spec, |proc| session(proc, p, &h))
}

fn session<T: Transport<Msg = NetMsg>>(proc: &mut Proc<'_, T>, p: Params, h: &Handles) -> Outcome {
    let cols = p.cols;
    {
        let me = proc.id();
        let procs = proc.procs();
        let stripe = stripe_of(p.rows, procs, me);
        assert!(
            stripe.len() >= 2,
            "stripe too small: grid {} rows / {procs} procs",
            p.rows
        );
        let local_rows = stripe.len();

        // Private stripe storage (annotated private: not instrumented).
        let mut grid = vec![0.0f64; local_rows * cols];
        for (li, gi) in stripe.clone().enumerate() {
            for j in 0..cols {
                grid[li * cols + j] = initial(p.seed, gi, j, p.rows, cols);
            }
        }
        // Publish initial edge rows.
        let publish = |proc: &mut Proc<'_, T>, grid: &Vec<f64>, li: usize, slot: usize| {
            for j in 0..cols {
                proc.write(&h.edges, slot * cols + j, grid[li * cols + j]);
            }
        };
        publish(proc, &grid, 0, me * 2);
        publish(proc, &grid, local_rows - 1, me * 2 + 1);
        // One misclassified private write per run (6-cycle penalty).
        proc.write(&h.scratch, me % 16, 1.0);
        proc.barrier(h.phase_done);

        let mut initial_residual = 0.0f64;
        let mut final_residual;
        let mut residual = 0.0f64;
        for iter in 0..p.iters {
            residual = 0.0;
            for color in 0..2usize {
                // Fetch ghost rows from the neighbours' published edges.
                let above: Option<Vec<f64>> = (me > 0).then(|| {
                    proc.read_vec(
                        &h.edges,
                        ((me - 1) * 2 + 1) * cols..((me - 1) * 2 + 2) * cols,
                    )
                });
                let below: Option<Vec<f64>> = (me + 1 < procs).then(|| {
                    proc.read_vec(&h.edges, (me + 1) * 2 * cols..((me + 1) * 2 + 1) * cols)
                });

                residual = relax_stripe(
                    &mut grid,
                    cols,
                    stripe.start,
                    p.rows,
                    [above.as_deref(), below.as_deref()],
                    color,
                    residual,
                    || proc.work(cols as u64 / 2 * CYCLES_PER_UPDATE),
                );

                // Publish the edge rows' updated elements (only the colour
                // just computed changed).
                for (li, slot) in [(0usize, me * 2), (local_rows - 1, me * 2 + 1)] {
                    let gi = stripe.start + li;
                    if gi == 0 || gi == p.rows - 1 {
                        continue;
                    }
                    for j in (first_of(gi, color)..cols - 1).step_by(2) {
                        proc.write(&h.edges, slot * cols + j, grid[li * cols + j]);
                    }
                }
                proc.barrier(h.phase_done);
            }
            if iter == 0 {
                initial_residual = residual;
            }
        }
        final_residual = residual;
        if p.iters == 0 {
            final_residual = 0.0;
        }

        // Weight by global coordinates so the checksum is independent of
        // the stripe decomposition.
        let stripe_checksum = grid
            .iter()
            .enumerate()
            .map(|(k, v)| {
                let global = stripe.start * cols + k;
                v * ((global % 13) as f64 + 1.0)
            })
            .sum::<f64>();
        Outcome {
            stripe_checksum,
            final_residual,
            initial_residual,
        }
    }
}

/// The relaxation factor.
const OMEGA: f64 = 0.9;

/// The first interior column `j` of global row `gi` whose cell has colour
/// `color`, that is, whose `(gi + j) % 2 == color`.
fn first_of(gi: usize, color: usize) -> usize {
    1 + (gi + 1 + color) % 2
}

/// Relaxes one colour of a stripe held row-major in `grid` (`cols` wide,
/// global rows from `first_row` on, `rows` in the whole grid), calling
/// `row_done` after each interior row, and returns `residual` plus every
/// update's magnitude, added row by row and, within a row, by ascending
/// column. `edges` are the neighbours' published rows above and below the
/// stripe, where they exist.
///
/// Each interior row resolves its up and down neighbours once, the grid's
/// rows or `edges`, and [`relax_row`] visits only the row's cells of
/// `color`.
#[allow(clippy::too_many_arguments)]
fn relax_stripe(
    grid: &mut [f64],
    cols: usize,
    first_row: usize,
    rows: usize,
    edges: [Option<&[f64]>; 2],
    color: usize,
    mut residual: f64,
    mut row_done: impl FnMut(),
) -> f64 {
    let local_rows = grid.len() / cols;
    for li in 0..local_rows {
        let gi = first_row + li;
        if gi == 0 || gi == rows - 1 {
            continue; // fixed boundary row
        }
        let (before, rest) = grid.split_at_mut(li * cols);
        let (row, after) = rest.split_at_mut(cols);
        let neighbour = "interior row has a neighbour";
        let up = if li == 0 {
            edges[0].expect(neighbour)
        } else {
            &before[(li - 1) * cols..]
        };
        let down = if li + 1 == local_rows {
            edges[1].expect(neighbour)
        } else {
            &after[..cols]
        };
        residual = relax_row(up, row, down, first_of(gi, color), residual);
        row_done();
    }
    residual
}

/// Relaxes `row[first]`, `row[first + 2]`, … up to its last interior
/// column and returns `residual` plus each update's magnitude, in column
/// order. The cells read beside each one are the other colour's, so no
/// update feeds another.
///
/// Kept out of line for the reason `matmul`'s row kernel is: inlined, the
/// running `residual` may be spilled to the stack on every step.
#[inline(never)]
fn relax_row(up: &[f64], row: &mut [f64], down: &[f64], first: usize, mut residual: f64) -> f64 {
    let cols = row.len();
    let (up, down) = (&up[..cols], &down[..cols]);
    for j in (first..cols - 1).step_by(2) {
        let old = row[j];
        let avg = 0.25 * (up[j] + down[j] + row[j - 1] + row[j + 1]);
        let new = old + OMEGA * (avg - old);
        row[j] = new;
        residual += (new - old).abs();
    }
    residual
}

/// Aggregate verification: SOR must make progress toward the steady state.
pub fn verified(outcomes: &[Outcome]) -> bool {
    let initial: f64 = outcomes.iter().map(|o| o.initial_residual).sum();
    let fin: f64 = outcomes.iter().map(|o| o.final_residual).sum();
    fin < initial
}

/// Total grid checksum (bitwise-stable across backends and processor
/// counts).
pub fn checksum(outcomes: &[Outcome]) -> f64 {
    outcomes.iter().map(|o| o.stripe_checksum).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_core::BackendKind;

    #[test]
    fn converges_on_every_backend() {
        for backend in [
            BackendKind::Rt,
            BackendKind::Vm,
            BackendKind::Blast,
            BackendKind::TwinAll,
        ] {
            let run = run(MidwayConfig::new(4, backend), Params::small());
            assert!(verified(&run.results), "{backend:?}");
        }
    }

    #[test]
    fn parallel_decomposition_is_exact() {
        // Identical per-element arithmetic; only the checksum's summation
        // association differs across stripe decompositions.
        let solo = run(MidwayConfig::standalone(), Params::small());
        let rt = run(MidwayConfig::new(4, BackendKind::Rt), Params::small());
        let vm = run(MidwayConfig::new(5, BackendKind::Vm), Params::small());
        let c0 = checksum(&solo.results);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(1.0);
        assert!(close(c0, checksum(&rt.results)), "{c0} vs RT");
        assert!(close(c0, checksum(&vm.results)), "{c0} vs VM");
    }

    /// The relaxation as [`relax_stripe`] replaced it, one branch per
    /// interior cell and the neighbour rows resolved per cell: the oracle
    /// for `relax_stripe`. Returns the residual and the interior rows
    /// relaxed.
    fn relax_stripe_branchy(
        grid: &mut [f64],
        cols: usize,
        first_row: usize,
        rows: usize,
        [above, below]: [Option<&[f64]>; 2],
        color: usize,
        mut residual: f64,
    ) -> (f64, usize) {
        let local_rows = grid.len() / cols;
        let mut relaxed = 0;
        for li in 0..local_rows {
            let gi = first_row + li;
            if gi == 0 || gi == rows - 1 {
                continue;
            }
            for j in 1..cols - 1 {
                if (gi + j) % 2 != color {
                    continue;
                }
                let up = if li == 0 {
                    above.expect("interior row has a neighbour")[j]
                } else {
                    grid[(li - 1) * cols + j]
                };
                let down = if li == local_rows - 1 {
                    below.expect("interior row has a neighbour")[j]
                } else {
                    grid[(li + 1) * cols + j]
                };
                let idx = li * cols + j;
                let old = grid[idx];
                let avg = 0.25 * (up + down + grid[idx - 1] + grid[idx + 1]);
                let new = old + OMEGA * (avg - old);
                grid[idx] = new;
                residual += (new - old).abs();
            }
            relaxed += 1;
        }
        (residual, relaxed)
    }

    #[test]
    fn the_row_kernel_matches_the_branchy_relaxation_bit_for_bit() {
        let mut rng = SplitMix64::new(11);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for cols in [3, 4, 5, 8, 9, 32, 33] {
            for local_rows in [2, 3, 5] {
                let rows = 3 * local_rows + 2;
                // The top, a middle and the bottom stripe, and one stripe
                // holding the whole grid: rows of both parities, with and
                // without the edge vectors above and below.
                let stripes = [
                    (0, local_rows),
                    (local_rows + 1, local_rows),
                    (rows - local_rows, local_rows),
                    (0, rows),
                ];
                for (first_row, len) in stripes {
                    let mut random = |n: usize| -> Vec<f64> {
                        (0..n).map(|_| rng.next_range_f64(-50.0, 50.0)).collect()
                    };
                    let above = (first_row > 0).then(|| random(cols));
                    let below = (first_row + len < rows).then(|| random(cols));
                    let edges = [above.as_deref(), below.as_deref()];
                    let mut got = random(len * cols);
                    let mut want = got.clone();
                    let mut residual = rng.next_range_f64(0.0, 1.0);
                    for color in [0, 1, 0, 1, 1] {
                        let mut rows_done = 0;
                        let r = relax_stripe(
                            &mut got,
                            cols,
                            first_row,
                            rows,
                            edges,
                            color,
                            residual,
                            || rows_done += 1,
                        );
                        let (w, relaxed) = relax_stripe_branchy(
                            &mut want, cols, first_row, rows, edges, color, residual,
                        );
                        let cell = format!("cols {cols}, rows {first_row}+{len}, colour {color}");
                        assert_eq!(r.to_bits(), w.to_bits(), "{cell}");
                        assert_eq!(bits(&got), bits(&want), "{cell}");
                        assert_eq!(rows_done, relaxed, "{cell}");
                        residual = r;
                    }
                }
            }
        }
    }

    #[test]
    fn only_edge_rows_generate_detection_work() {
        let p = Params::small();
        let run = run(MidwayConfig::new(4, BackendKind::Rt), p);
        // Interior updates are private: per phase a processor publishes at
        // most one row's colour per edge (≤ cols writes per iteration),
        // plus the initial publication.
        let per_proc_bound = (2 * p.cols + p.iters * 2 * p.cols) as u64 + 16;
        for c in &run.counters {
            assert!(
                c.dirtybits_set <= per_proc_bound,
                "interior writes leaked into the shared path: {} > {per_proc_bound}",
                c.dirtybits_set
            );
        }
    }
}
