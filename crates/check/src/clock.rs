//! Vector clocks for the happens-before analysis.

/// A fixed-width vector clock: one logical-time component per processor.
///
/// Component `p` counts processor `p`'s *release epochs*: it starts at 1
/// and is incremented each time `p` performs a synchronization release
/// (lock release or barrier entry). A write stamped with epoch `c` by
/// processor `p` happens-before an access by processor `q` exactly when
/// `q`'s clock has `vc[p] >= c`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u64>);

impl VClock {
    /// A fresh clock for a cluster of `procs` processors, with `own`'s
    /// component started at 1 so even never-synchronized writes carry a
    /// positive epoch.
    pub(crate) fn new(procs: usize, own: usize) -> VClock {
        let mut v = vec![0; procs];
        v[own] = 1;
        VClock(v)
    }

    /// A zero clock (used for synchronization-object clocks, which only
    /// ever accumulate joins).
    pub(crate) fn zero(procs: usize) -> VClock {
        VClock(vec![0; procs])
    }

    /// Component `p`.
    pub(crate) fn get(&self, p: usize) -> u64 {
        self.0[p]
    }

    /// Pointwise maximum with `other`.
    pub(crate) fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Advances component `p` (a new release epoch for processor `p`).
    pub(crate) fn tick(&mut self, p: usize) {
        self.0[p] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VClock::new(3, 0);
        let mut b = VClock::new(3, 2);
        b.tick(2);
        a.join(&b);
        assert_eq!(a.get(0), 1);
        assert_eq!(a.get(1), 0);
        assert_eq!(a.get(2), 2);
    }

    #[test]
    fn own_component_starts_positive() {
        let a = VClock::new(2, 1);
        assert_eq!(a.get(0), 0);
        assert_eq!(a.get(1), 1);
    }
}
