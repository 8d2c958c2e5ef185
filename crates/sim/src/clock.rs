//! Per-processor cycle clocks with charge-category breakdowns.

use crate::time::VirtualTime;

/// The accounting category a span of cycles is charged to.
///
/// The paper decomposes write-detection overhead into *trapping* and
/// *collection* (Tables 3 and 4); the remaining categories let the run
/// reports separate application compute, protocol handling, and time spent
/// waiting on the network or on other processors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Category {
    /// Application computation charged via `work()`.
    Compute = 0,
    /// Write trapping: dirtybit sets (RT) or fault/twin/protect work (VM).
    WriteTrap = 1,
    /// Write collection: dirtybit scans and stamps (RT) or diff/twin-update
    /// work (VM), plus update application.
    WriteCollect = 2,
    /// Protocol software overhead: building, sending and handling messages.
    Protocol = 3,
    /// Idle time: the clock jumped forward to a message's delivery time.
    Wait = 4,
}

/// Number of distinct [`Category`] values.
pub(crate) const CATEGORY_COUNT: usize = 5;

const CATEGORIES: [Category; CATEGORY_COUNT] = [
    Category::Compute,
    Category::WriteTrap,
    Category::WriteCollect,
    Category::Protocol,
    Category::Wait,
];

impl Category {
    /// All categories, in charge-index order.
    pub fn all() -> [Category; CATEGORY_COUNT] {
        CATEGORIES
    }

    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::WriteTrap => "trap",
            Category::WriteCollect => "collect",
            Category::Protocol => "protocol",
            Category::Wait => "wait",
        }
    }
}

/// A processor's virtual clock, with per-category charge totals.
#[derive(Clone, Debug, Default)]
pub(crate) struct CpuClock {
    now: VirtualTime,
    charged: [u64; CATEGORY_COUNT],
}

impl CpuClock {
    /// Creates a clock at time zero with nothing charged.
    pub(crate) fn new() -> CpuClock {
        CpuClock::default()
    }

    /// The current virtual time.
    pub(crate) fn now(&self) -> VirtualTime {
        self.now
    }

    /// Advances the clock by `cycles`, attributing them to `cat`.
    pub(crate) fn charge(&mut self, cat: Category, cycles: u64) {
        self.now += cycles;
        self.charged[cat as usize] += cycles;
    }

    /// Jumps the clock forward to `t` (no-op if `t` is in the past),
    /// attributing the skipped span to [`Category::Wait`].
    pub(crate) fn advance_to(&mut self, t: VirtualTime) {
        if t > self.now {
            self.charged[Category::Wait as usize] += (t - self.now).cycles();
            self.now = t;
        }
    }

    /// The full per-category breakdown, indexed by `Category as usize`.
    pub(crate) fn breakdown(&self) -> [u64; CATEGORY_COUNT] {
        self.charged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_advance_time_and_accumulate() {
        let mut c = CpuClock::new();
        c.charge(Category::Compute, 100);
        c.charge(Category::WriteTrap, 9);
        c.charge(Category::WriteTrap, 9);
        assert_eq!(c.now().cycles(), 118);
        assert_eq!(c.breakdown()[Category::Compute as usize], 100);
        assert_eq!(c.breakdown()[Category::WriteTrap as usize], 18);
        assert_eq!(c.breakdown()[Category::Wait as usize], 0);
    }

    #[test]
    fn advance_to_charges_wait_and_never_rewinds() {
        let mut c = CpuClock::new();
        c.charge(Category::Compute, 50);
        c.advance_to(VirtualTime(200));
        assert_eq!(c.now().cycles(), 200);
        assert_eq!(c.breakdown()[Category::Wait as usize], 150);
        // Messages from the past must not rewind the clock.
        c.advance_to(VirtualTime(10));
        assert_eq!(c.now().cycles(), 200);
        assert_eq!(c.breakdown()[Category::Wait as usize], 150);
    }

    #[test]
    fn breakdown_sums_to_now() {
        let mut c = CpuClock::new();
        c.charge(Category::Compute, 7);
        c.charge(Category::Protocol, 11);
        c.advance_to(VirtualTime(100));
        let total: u64 = c.breakdown().iter().sum();
        assert_eq!(total, c.now().cycles());
    }
}
