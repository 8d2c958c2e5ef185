//! Parameter sweep helpers for the Figure 3/4 experiments.

use crate::cost::CostModel;

/// `n` evenly spaced integers from `lo` to `hi` inclusive.
///
/// # Panics
///
/// Panics if `n < 2` or `hi < lo`.
pub(crate) fn linspace_u64(lo: u64, hi: u64, n: usize) -> Vec<u64> {
    assert!(n >= 2, "need at least two sweep points");
    assert!(hi >= lo, "sweep range must be nondecreasing");
    (0..n)
        .map(|i| lo + (hi - lo) * i as u64 / (n as u64 - 1))
        .collect()
}

/// The page-fault service-time sweep used by Figures 3 and 4.
///
/// The paper varies the fault time between 122 µs (Thekkath & Levy's fast
/// exception handler plus the unavoidable 4 KB twin copy) and 1200 µs
/// (Mach's external pager).
#[derive(Clone, Copy, Debug)]
pub struct FaultSweep {
    /// Low end of the sweep, in microseconds (paper: 122).
    pub lo_micros: u64,
    /// High end of the sweep, in microseconds (paper: 1200).
    pub hi_micros: u64,
    /// Number of sweep points, including both endpoints.
    pub points: usize,
}

impl FaultSweep {
    /// The paper's sweep range with the given number of points.
    pub fn paper(points: usize) -> FaultSweep {
        FaultSweep {
            lo_micros: 122,
            hi_micros: 1200,
            points,
        }
    }

    /// Yields one [`CostModel`] per sweep point, derived from `base`.
    pub fn models(&self, base: CostModel) -> Vec<CostModel> {
        linspace_u64(self.lo_micros, self.hi_micros, self.points)
            .into_iter()
            .map(|us| base.with_fault_micros(us as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_includes_endpoints() {
        let v = linspace_u64(122, 1200, 5);
        assert_eq!(v.first(), Some(&122));
        assert_eq!(v.last(), Some(&1200));
        assert_eq!(v.len(), 5);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn paper_sweep_spans_fast_to_mach() {
        let models = FaultSweep::paper(3).models(CostModel::r3000_mach());
        assert_eq!(models[0].page_write_fault, 122 * 25);
        assert_eq!(models[2].page_write_fault, 30_000);
    }
}
