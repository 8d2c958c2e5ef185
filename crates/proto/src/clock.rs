//! Lamport logical clocks (paper §3.2).

use midway_mem::{EPOCH, MAX_TIMESTAMP};

/// A processor's Lamport clock.
///
/// RT-DSM dirtybits are timestamps drawn from this clock; it provides "an
/// ordering on the updates to an individual cache line". Clock values start
/// above [`EPOCH`] so a fresh cache line (timestamp `EPOCH`) is older than
/// any real update, and the value `0` remains free as the dirty marker. They
/// end at [`MAX_TIMESTAMP`], the widest time a dirtybit holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LamportClock {
    now: u64,
}

impl LamportClock {
    /// A fresh clock, strictly after [`EPOCH`].
    pub fn new() -> LamportClock {
        LamportClock { now: EPOCH + 1 }
    }

    /// The current logical time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances for a local event and returns the new time.
    ///
    /// # Panics
    ///
    /// If the clock would pass [`MAX_TIMESTAMP`].
    pub fn tick(&mut self) -> u64 {
        self.advance(self.now + 1)
    }

    /// Merges a remote observation: the clock moves past `remote`.
    ///
    /// # Panics
    ///
    /// If the clock would pass [`MAX_TIMESTAMP`].
    pub fn observe(&mut self, remote: u64) -> u64 {
        self.advance(self.now.max(remote).saturating_add(1))
    }

    fn advance(&mut self, to: u64) -> u64 {
        assert!(
            to <= MAX_TIMESTAMP,
            "Lamport time {to} exceeds the dirtybit width (MAX_TIMESTAMP = {MAX_TIMESTAMP})"
        );
        self.now = to;
        to
    }
}

impl Default for LamportClock {
    fn default() -> Self {
        LamportClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_after_epoch() {
        assert!(LamportClock::new().now() > EPOCH);
        assert!(LamportClock::new().now() > 0);
    }

    #[test]
    fn tick_is_monotonic() {
        let mut c = LamportClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
    }

    #[test]
    fn observe_jumps_past_remote() {
        let mut c = LamportClock::new();
        assert_eq!(c.observe(100), 101);
        // Older observations still advance locally.
        let before = c.now();
        assert!(c.observe(5) > before);
    }

    #[test]
    fn reaches_max_timestamp_and_no_further() {
        let mut c = LamportClock::new();
        assert_eq!(c.observe(MAX_TIMESTAMP - 1), MAX_TIMESTAMP);
        let past = std::panic::catch_unwind(move || c.tick()).unwrap_err();
        let msg = past.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains(&(MAX_TIMESTAMP + 1).to_string()), "{msg}");
        let huge = std::panic::catch_unwind(|| LamportClock::new().observe(u64::MAX)).unwrap_err();
        let msg = huge.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains(&u64::MAX.to_string()), "{msg}");
    }
}
