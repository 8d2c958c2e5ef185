//! Shared scaffolding for the service-scale workload family.
//!
//! The paper's five applications are batch kernels: fixed input, compute,
//! verify. The service family instead models the traffic shape of a
//! shared-data *service* — many client sessions issuing small operations
//! against hot shared state — the workload class DSM systems are judged
//! on today (DRust's KV/object-store and social-graph evaluation set).
//! Two applications build on this module:
//!
//! * [`crate::kvstore`] — a sharded KV/object store with Zipfian key skew
//!   and a read-mostly operation mix.
//! * [`crate::taskqueue`] — a high-churn task queue where synchronization
//!   dominates computation.
//!
//! Everything here is deterministic: a [`ServiceParams`] seed fixes every
//! client's operation stream, so a run is reproducible across backends,
//! transports and replays.

use midway_sim::SplitMix64;

/// The common service-workload knobs, shared by both applications.
///
/// `clients` scales offered load (each processor multiplexes that many
/// client sessions), `skew` shapes key popularity, and `write_pct` sets
/// the operation mix — together the three axes harnesses sweep from idle
/// to saturation.
#[derive(Clone, Copy, Debug)]
pub struct ServiceParams {
    /// Client sessions multiplexed on each processor.
    pub clients: usize,
    /// Operations each client session issues.
    pub ops_per_client: usize,
    /// Zipf exponent for key popularity (0 = uniform, ~1 = web-like).
    pub skew: f64,
    /// Percentage of operations that mutate state (the rest read).
    pub write_pct: u32,
    /// Per-operation client think time in cycles, charged as idle time
    /// divided across the processor's sessions: more clients per
    /// processor means less idle time between operations, which is what
    /// sweeps the system from idle toward saturation.
    pub think_cycles: u64,
    /// Workload seed; every operation stream derives from it.
    pub seed: u64,
}

impl ServiceParams {
    /// A production-shaped default: read-mostly, web-like skew.
    pub fn paper() -> ServiceParams {
        ServiceParams {
            clients: 8,
            ops_per_client: 200,
            skew: 0.99,
            write_pct: 10,
            think_cycles: 200_000,
            seed: 20_260_808,
        }
    }

    /// A tiny configuration for tests.
    pub fn small() -> ServiceParams {
        ServiceParams {
            clients: 2,
            ops_per_client: 30,
            skew: 0.9,
            write_pct: 30,
            think_cycles: 20_000,
            seed: 20_260_808,
        }
    }

    /// Operations issued per processor.
    pub(crate) fn ops_per_proc(&self) -> usize {
        self.clients * self.ops_per_client
    }

    /// The per-processor RNG seeding every client stream on `proc`.
    pub(crate) fn proc_rng(&self, proc: usize) -> SplitMix64 {
        SplitMix64::new(self.seed ^ (proc as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Idle cycles charged after each operation (think time divided
    /// across the processor's sessions).
    pub fn think_per_op(&self) -> u64 {
        self.think_cycles / self.clients.max(1) as u64
    }
}

/// A deterministic Zipfian sampler over ranks `0..n`.
///
/// Rank `k` (0-based) is drawn with probability proportional to
/// `(k+1)^-s`. Sampling inverts the precomputed cumulative distribution
/// with a binary search, so a draw costs `O(log n)` and depends only on
/// the caller's [`SplitMix64`] stream — the same seed yields the same key
/// sequence on every backend and transport.
#[derive(Clone, Debug)]
pub(crate) struct Zipf {
    /// Cumulative probabilities; `cum[k]` = P(rank ≤ k). The last entry
    /// is exactly 1.0.
    cum: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative / non-finite.
    pub(crate) fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "zipf exponent must be finite");
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 0..n {
            total += ((k + 1) as f64).powf(-s);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        *cum.last_mut().expect("n > 0") = 1.0;
        Zipf { cum }
    }

    /// Draws one rank in `0..n` from `rng`.
    pub(crate) fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        // First index with cum[i] > u (u < 1.0, and cum ends at 1.0).
        self.cum
            .partition_point(|&c| c <= u)
            .min(self.cum.len() - 1)
    }
}

/// A cheap 64-bit mixer (SplitMix64 finalizer) for synthesizing payload
/// words from logical coordinates. Service apps write
/// `payload = mix64(key, version)`-shaped values so any later reader —
/// including the verifier — can check content against the metadata that
/// names it, regardless of which processor performed the write.
pub(crate) fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `key` in `0..keys` to a shard in `0..shards` (contiguous key
/// ranges, so each shard lock binds one contiguous slice per array).
pub(crate) fn shard_of(key: usize, keys: usize, shards: usize) -> usize {
    key * shards / keys
}

/// The key range shard `s` owns.
pub(crate) fn shard_range(s: usize, keys: usize, shards: usize) -> std::ops::Range<usize> {
    let lo = (s * keys).div_ceil(shards);
    let hi = ((s + 1) * keys).div_ceil(shards);
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_across_seeded_streams() {
        let z = Zipf::new(100, 0.99);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = SplitMix64::new(seed);
            (0..200).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(draw(7), draw(7), "same seed, same stream");
        assert_ne!(draw(7), draw(8), "different seeds diverge");
        // A fresh sampler over the same parameters draws identically —
        // there is no hidden state, so every backend sees the same keys.
        let z2 = Zipf::new(100, 0.99);
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..200 {
            assert_eq!(z.sample(&mut a), z2.sample(&mut b));
        }
    }

    #[test]
    fn zipf_rank_frequency_slope_matches_the_exponent() {
        // Property: on a log-log plot, empirical frequency vs rank has
        // slope ≈ -s. Check with a least-squares fit over the head of the
        // distribution (the tail is noisy at finite sample sizes).
        for &s in &[0.6, 0.9, 1.2] {
            let n = 200;
            let z = Zipf::new(n, s);
            let mut rng = SplitMix64::new(0xFEED ^ (s * 1000.0) as u64);
            let mut counts = vec![0u64; n];
            let draws = 400_000;
            for _ in 0..draws {
                counts[z.sample(&mut rng)] += 1;
            }
            // Ranks must come out in popularity order already.
            assert!(counts[0] > counts[50], "head outdraws the tail");
            let head = 30; // fit log f(k) = a + slope * log(k+1) over the head
            let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
            for (k, &c) in counts.iter().take(head).enumerate() {
                assert!(c > 0, "head rank {k} never drawn");
                let x = ((k + 1) as f64).ln();
                let y = (c as f64 / draws as f64).ln();
                sx += x;
                sy += y;
                sxx += x * x;
                sxy += x * y;
            }
            let m = head as f64;
            let slope = (m * sxy - sx * sy) / (m * sxx - sx * sx);
            assert!(
                (slope + s).abs() < 0.08,
                "exponent {s}: fitted slope {slope:.3}, expected {:.3}",
                -s
            );
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = SplitMix64::new(1);
        let mut counts = vec![0u64; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 1_000, "uniform-ish: {counts:?}");
        }
    }

    #[test]
    fn shards_tile_the_key_space() {
        for (keys, shards) in [(64, 4), (100, 7), (16, 16)] {
            let mut seen = vec![false; keys];
            for s in 0..shards {
                for k in shard_range(s, keys, shards) {
                    assert!(!seen[k], "key {k} in two shards");
                    assert_eq!(shard_of(k, keys, shards), s, "key {k}");
                    seen[k] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "keys={keys} shards={shards}");
        }
    }

    #[test]
    fn mix64_distinguishes_coordinates() {
        assert_ne!(mix64(1, 2), mix64(2, 1));
        assert_ne!(mix64(0, 0), 0);
    }
}
