//! Matrix multiply: coarse-grained sharing, high computation-to-
//! communication ratio (paper §4).
//!
//! "The matrix-multiply program is of interest because its data is
//! partitioned to minimize the amount of sharing and because it writes
//! every word on every page of the result matrix. The large number of
//! writes to each page helps the VM-DSM system best amortize the cost of
//! the initial page fault... This represents the expected best case for
//! VM-DSM, and the worst case for RT-DSM."
//!
//! Structure: each processor initializes its row stripes of `A` and `B`
//! (so initialization writes are spread evenly, as on the real system); an
//! init barrier broadcasts `B` (every processor needs all of it); each
//! processor computes its row stripe of `C`, writing every element; a
//! final barrier publishes `C`.

use std::sync::Arc;

use midway_core::{
    BarrierId, Midway, MidwayConfig, MidwayRun, NetMsg, Proc, RealConfig, RunError, SharedArray,
    SystemBuilder, SystemSpec, Transport,
};
use midway_sim::SplitMix64;

/// Cycles charged per fused multiply-add of the inner loop (estimated for
/// a 25 MHz R3000: FP multiply + add + two loads).
const CYCLES_PER_MAC: u64 = 12;

/// Problem parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Matrix dimension (paper: 512).
    pub n: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Params {
    /// The paper's configuration: 512×512 doubles.
    pub fn paper() -> Params {
        Params { n: 512, seed: 42 }
    }

    /// A small configuration for tests.
    pub fn small() -> Params {
        Params { n: 24, seed: 42 }
    }
}

/// Handles to the shared data.
struct Handles {
    a: SharedArray<f64>,
    b: SharedArray<f64>,
    c: SharedArray<f64>,
    /// Misclassified per-processor progress marker (see quicksort).
    scratch: SharedArray<f64>,
    init_done: BarrierId,
    all_done: BarrierId,
    n: usize,
}

/// The per-processor result: a checksum of the full result matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    /// Deterministic checksum of `C` (identical on every processor).
    pub checksum: f64,
    /// Max `|C[i][j] - reference|` over sampled entries.
    pub max_sample_error: f64,
}

fn build(p: Params, procs: usize) -> (Arc<SystemSpec>, Handles) {
    let n = p.n;
    let mut b = SystemBuilder::new();
    let a = b.shared_array::<f64>("A", n * n, 1);
    let bm = b.shared_array::<f64>("B", n * n, 1);
    let c = b.shared_array::<f64>("C", n * n, 1);
    let scratch = b.private_array::<f64>("progress", 16);
    let stripe = |arr: &SharedArray<f64>, p: usize| {
        let rows = rows_of(n, procs, p);
        vec![arr.range(rows.start * n..rows.end * n)]
    };
    // The init barrier publishes B (everyone needs all of B); A's rows stay
    // where they were initialized.
    let init_done = b.barrier_partitioned(
        vec![bm.full_range()],
        (0..procs).map(|q| stripe(&bm, q)).collect(),
    );
    let all_done = b.barrier_partitioned(
        vec![c.full_range()],
        (0..procs).map(|q| stripe(&c, q)).collect(),
    );
    (
        b.build(),
        Handles {
            a,
            b: bm,
            c,
            scratch,
            init_done,
            all_done,
            n,
        },
    )
}

fn rows_of(n: usize, procs: usize, p: usize) -> std::ops::Range<usize> {
    let per = n.div_ceil(procs);
    (per * p).min(n)..(per * (p + 1)).min(n)
}

fn elem(seed: u64, which: u64, i: usize, j: usize, n: usize) -> f64 {
    let mut r = SplitMix64::new(seed ^ which.wrapping_mul(0x9E37) ^ (i * n + j) as u64);
    r.next_range_f64(-1.0, 1.0)
}

/// Runs matrix multiply under `cfg` and verifies the result.
///
/// # Panics
///
/// Panics if the simulation fails (deadlock or processor panic).
pub fn run(cfg: MidwayConfig, p: Params) -> MidwayRun<Outcome> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run(cfg, &spec, |proc: &mut Proc| session(proc, p, &h))
        .expect("matmul simulation failed")
}

/// Runs matrix multiply over real sockets (`Midway::run_real`).
pub fn run_real(
    cfg: MidwayConfig,
    real: &RealConfig,
    p: Params,
) -> Result<MidwayRun<Outcome>, RunError> {
    let (spec, h) = build(p, cfg.procs);
    Midway::run_real(cfg, real, &spec, |proc| session(proc, p, &h))
}

/// Outputs of a C row computed per pass over a row of A.
const W: usize = 8;

/// `W` dot products of `a` in one pass over it: output `w` sums
/// `a[k] * panel[k * W + w]` over ascending `k`, from 0.0, in its own
/// accumulator, so each is the bit pattern of the one-accumulator loop
/// whatever surrounds the call.
///
/// Kept out of line on purpose. Inlined into [`session`], whether the
/// accumulators stay in registers or are spilled to the stack on every
/// iteration (a load-add-store chain, ~2x slower) depended on the shape of
/// unrelated code up the inlining chain — the same fragility the
/// `midway-apps` profile override in the workspace `Cargo.toml` documents.
#[inline(never)]
fn dot_panel(a: &[f64], panel: &[f64]) -> [f64; W] {
    let mut acc = [0.0; W];
    for (x, b) in a.iter().zip(panel.chunks_exact(W)) {
        for (acc, y) in acc.iter_mut().zip(b) {
            *acc += x * y;
        }
    }
    acc
}

fn session<T: Transport<Msg = NetMsg>>(proc: &mut Proc<'_, T>, p: Params, h: &Handles) -> Outcome {
    let n = h.n;
    {
        let me = proc.id();
        let rows = rows_of(n, proc.procs(), me);

        // Parallel initialization of A and B row stripes.
        let mut v = proc.view();
        for i in rows.clone() {
            for j in 0..n {
                v.set(&h.a, i * n + j, elem(p.seed, 1, i, j, n));
                v.set(&h.b, i * n + j, elem(p.seed, 2, i, j, n));
            }
        }
        drop(v);
        proc.barrier(h.init_done);

        // Copy B into private memory as panels of `W` columns, each
        // interleaved by row (`panels[(j / W * n + k) * W + j % W]` is
        // B[k][j]), the last zero-padded to `W`; reads are local under the
        // update protocol.
        let panel_len = n * W;
        let mut panels = vec![0.0f64; n.div_ceil(W) * panel_len];
        let mut v = proc.view();
        for k in 0..n {
            for j in 0..n {
                panels[(j / W * n + k) * W + j % W] = v.get(&h.b, k * n + j);
            }
        }
        drop(v);

        // Compute this stripe of C, writing every element.
        for i in rows.clone() {
            let mut v = proc.view();
            if i % 8 == 0 {
                // Misclassified private progress write (6-cycle penalty).
                v.set(&h.scratch, me % 16, i as f64);
            }
            let row_a: Vec<f64> = (i * n..(i + 1) * n).map(|k| v.get(&h.a, k)).collect();
            for (jb, panel) in panels.chunks_exact(panel_len).enumerate() {
                let acc = dot_panel(&row_a, panel);
                for (j, c) in (jb * W..n).zip(acc) {
                    v.set(&h.c, i * n + j, c);
                }
            }
            drop(v);
            proc.work((n * n) as u64 * CYCLES_PER_MAC);
        }
        proc.barrier(h.all_done);

        // Verification: checksum the full matrix (identical everywhere)
        // and check sampled entries against a direct computation.
        let mut checksum = 0.0;
        let mut v = proc.view();
        for i in 0..n {
            for j in 0..n {
                checksum += v.get(&h.c, i * n + j) * ((i * 31 + j) % 17) as f64;
            }
        }
        drop(v);
        let mut max_err = 0.0f64;
        let mut rng = SplitMix64::new(p.seed ^ 0xC0FFEE);
        for _ in 0..8 {
            let i = rng.next_below(n as u64) as usize;
            let j = rng.next_below(n as u64) as usize;
            let mut reference = 0.0;
            for k in 0..n {
                reference += elem(p.seed, 1, i, k, n) * elem(p.seed, 2, k, j, n);
            }
            let got = proc.read(&h.c, i * n + j);
            max_err = max_err.max((got - reference).abs());
        }
        Outcome {
            checksum,
            max_sample_error: max_err,
        }
    }
}

/// Whether an outcome passes verification.
pub fn verified(outcomes: &[Outcome]) -> bool {
    let first = outcomes[0].checksum;
    outcomes.iter().all(|o| {
        o.max_sample_error < 1e-9 && (o.checksum - first).abs() <= 1e-6 * first.abs().max(1.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_core::BackendKind;

    #[test]
    fn small_matmul_is_correct_on_every_backend() {
        for backend in [
            BackendKind::Rt,
            BackendKind::Vm,
            BackendKind::Blast,
            BackendKind::TwinAll,
        ] {
            let run = run(MidwayConfig::new(3, backend), Params::small());
            assert!(verified(&run.results), "{backend:?}: {:?}", run.results);
        }
    }

    #[test]
    fn standalone_matches_parallel_checksum() {
        let solo = run(MidwayConfig::standalone(), Params::small());
        let par = run(MidwayConfig::new(4, BackendKind::Rt), Params::small());
        let a = solo.results[0].checksum;
        let b = par.results[0].checksum;
        assert!((a - b).abs() <= 1e-6 * a.abs(), "{a} vs {b}");
    }

    #[test]
    fn every_result_element_is_written_once() {
        // RT-DSM's worst case: one dirtybit set per element of A, B and C
        // on this processor's stripes.
        let p = Params::small();
        let run = run(MidwayConfig::new(2, BackendKind::Rt), p);
        let n = p.n as u64;
        let per_proc = n / 2 * n;
        for c in &run.counters {
            assert_eq!(c.dirtybits_set, 3 * per_proc, "A + B init + C compute");
        }
    }

    #[test]
    fn vm_faults_amortize_across_many_writes() {
        let p = Params::small();
        let run = run(MidwayConfig::new(2, BackendKind::Vm), p);
        let writes = 3 * (p.n as u64 / 2) * p.n as u64;
        for c in &run.counters {
            assert!(
                c.write_faults * 64 < writes,
                "faults ({}) should be far rarer than writes ({writes})",
                c.write_faults
            );
        }
    }

    /// The one-accumulator MAC loop [`dot_panel`] replaced: the oracle for
    /// each of its outputs.
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (x, y) in a.iter().zip(b) {
            acc += x * y;
        }
        acc
    }

    #[test]
    fn the_panel_kernel_matches_the_scalar_dot_bit_for_bit() {
        let mut rng = SplitMix64::new(5);
        for n in [1usize, 7, 8, 13, 24, 37] {
            let row: Vec<f64> = (0..n).map(|_| rng.next_range_f64(-1.0, 1.0)).collect();
            // B's columns, each as one slice, and the same columns as
            // zero-padded panels, laid out as `session` lays them out.
            let cols: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.next_range_f64(-1.0, 1.0)).collect())
                .collect();
            let mut panels = vec![0.0; n.div_ceil(W) * n * W];
            for (j, col) in cols.iter().enumerate() {
                for (k, &b) in col.iter().enumerate() {
                    panels[(j / W * n + k) * W + j % W] = b;
                }
            }
            let got: Vec<u64> = panels
                .chunks_exact(n * W)
                .flat_map(|panel| dot_panel(&row, panel))
                .take(n)
                .map(f64::to_bits)
                .collect();
            let want: Vec<u64> = cols.iter().map(|c| dot(&row, c).to_bits()).collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn row_partition_covers_everything_without_overlap() {
        for n in [7, 24, 512] {
            for procs in [1, 3, 8] {
                let mut seen = vec![false; n];
                for p in 0..procs {
                    for r in rows_of(n, procs, p) {
                        assert!(!seen[r]);
                        seen[r] = true;
                    }
                }
                assert!(seen.iter().all(|s| *s), "n={n} procs={procs}");
            }
        }
    }
}
