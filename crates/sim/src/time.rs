//! Virtual time measured in processor cycles.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) virtual time, measured in CPU cycles.
///
/// The paper's platform is a 25 MHz MIPS R3000, so one cycle is 40 ns; the
/// conversion helpers below use a configurable clock rate so the cost model
/// can be re-expressed on other platforms.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

impl VirtualTime {
    /// The origin of virtual time.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Returns the raw cycle count.
    pub fn cycles(self) -> u64 {
        self.0
    }

    /// Converts a duration in microseconds to cycles at the given clock rate.
    pub fn from_micros(us: f64, mhz: u32) -> VirtualTime {
        VirtualTime((us * mhz as f64).round() as u64)
    }

    /// Expresses this time in microseconds at the given clock rate.
    fn as_micros(self, mhz: u32) -> f64 {
        self.0 as f64 / mhz as f64
    }

    /// Expresses this time in milliseconds at the given clock rate.
    pub fn as_millis(self, mhz: u32) -> f64 {
        self.as_micros(mhz) / 1_000.0
    }

    /// Expresses this time in seconds at the given clock rate.
    pub fn as_secs(self, mhz: u32) -> f64 {
        self.as_micros(mhz) / 1_000_000.0
    }

    /// Returns the later of two times.
    pub fn max(self, other: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.max(other.0))
    }

    /// Returns `self - other`, saturating at zero.
    pub fn saturating_sub(self, other: VirtualTime) -> VirtualTime {
        VirtualTime(self.0.saturating_sub(other.0))
    }
}

impl Add for VirtualTime {
    type Output = VirtualTime;

    fn add(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl Add<u64> for VirtualTime {
    type Output = VirtualTime;

    fn add(self, rhs: u64) -> VirtualTime {
        VirtualTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for VirtualTime {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for VirtualTime {
    type Output = VirtualTime;

    fn sub(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0 - rhs.0)
    }
}

impl fmt::Debug for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip_at_25mhz() {
        // 1200 us at 25 MHz is the paper's Mach page-fault cost: 30,000 cycles.
        let t = VirtualTime::from_micros(1200.0, 25);
        assert_eq!(t.cycles(), 30_000);
        assert!((t.as_micros(25) - 1200.0).abs() < 1e-9);
        assert!((t.as_millis(25) - 1.2).abs() < 1e-9);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = VirtualTime(100);
        let b = VirtualTime(250);
        assert!(a < b);
        assert_eq!((a + 150).cycles(), 250);
        assert_eq!(b.saturating_sub(a).cycles(), 150);
        assert_eq!(a.saturating_sub(b).cycles(), 0);
        assert_eq!(a.max(b), b);
        assert_eq!((b - a).cycles(), 150);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut t = VirtualTime::ZERO;
        t += 9;
        t += 9;
        assert_eq!(t.cycles(), 18);
    }
}
