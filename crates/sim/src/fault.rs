//! Deterministic network fault injection.
//!
//! A [`FaultPlan`] describes, per message, whether the simulated network
//! drops, duplicates, reorders or delays it. The decision for a message is
//! a pure function of `(plan seed, src, dst, per-source sequence number)`
//! — a private [`SplitMix64`] stream per message — so it does not depend
//! on OS-thread interleaving, heap layout, or anything else outside the
//! simulation: the same seed always produces the same fault schedule, and
//! a faulty run is exactly as replayable and sweepable as a fault-free
//! one.
//!
//! Rates are expressed in parts per million of messages (`10_000` ppm =
//! 1%). At most one fault applies per physical message; the rate fields
//! partition the probability space in declaration order (drop first, then
//! duplicate, reorder, delay).

use crate::rng::SplitMix64;

/// What the network does to one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Silently discard the message.
    Drop,
    /// Deliver the message *and* a second copy `extra_delay` cycles later.
    Duplicate {
        /// Extra latency of the second copy, in cycles (≥ 1).
        extra_delay: u64,
    },
    /// Add a short jitter intended to flip the order of adjacent
    /// deliveries.
    Reorder {
        /// Extra latency, in cycles (≥ 1).
        extra_delay: u64,
    },
    /// Stall the message well beyond normal wire time.
    Delay {
        /// Extra latency, in cycles (≥ 1).
        extra_delay: u64,
    },
}

/// One scheduled processor crash: processor `proc` fails at virtual cycle
/// `at` and restarts `down` cycles later. Between `at` and `at + down`
/// the processor is dark — everything addressed to it in that window is
/// lost (its NIC is down) and must be repaired by higher layers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrashEvent {
    /// The processor that fails.
    pub proc: u32,
    /// Virtual cycle of the failure (clamped to ≥ 1 when scheduled).
    pub at: u64,
    /// Downtime before the restart, in cycles (clamped to ≥ 1).
    pub down: u64,
}

/// Upper bound on a [`FaultDecision::Delay`] stall, in cycles.
const MAX_DELAY_CYCLES: u64 = 100_000;

/// Upper bound on [`FaultDecision::Reorder`] / [`FaultDecision::Duplicate`]
/// jitter, in cycles. Sized around the wire latency so a jittered message
/// lands after its successors.
const REORDER_WINDOW_CYCLES: u64 = 5_000;

/// Upper bound on scheduled crashes per plan. A fixed-size array keeps
/// [`FaultPlan`] (and with it `MidwayConfig`) `Copy`; eight crashes per
/// run is far beyond anything the sweeps schedule.
pub const MAX_CRASHES: usize = 8;

/// A seeded, deterministic schedule of network faults.
///
/// The plan distinguishes *disabled* ([`FaultPlan::none`], the default:
/// the network is perfect and the fault machinery is completely inert)
/// from *enabled with zero rates* ([`FaultPlan::seeded`]): the latter
/// injects nothing but signals to higher layers (the DSM's reliable
/// delivery channel) that the network is untrusted, which is exactly the
/// configuration used to measure the reliability overhead at 0% loss.
///
/// A plan sets rates, not magnitudes: a reorder or duplicate jitter is up
/// to 5 000 cycles and a delay up to 100 000 on every plan.
///
/// A plan can also schedule processor crashes ([`FaultPlan::with_crash`]):
/// deterministic kill-and-restart events delivered through the scheduler,
/// so a crashed run is exactly as replayable as a lossy one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Whether the network is treated as faulty at all.
    pub enabled: bool,
    /// Seed of the deterministic fault schedule.
    pub seed: u64,
    /// Probability of dropping a message, in parts per million.
    pub drop_ppm: u32,
    /// Probability of duplicating a message, in parts per million.
    pub dup_ppm: u32,
    /// Probability of reordering jitter, in parts per million.
    pub reorder_ppm: u32,
    /// Probability of a long stall, in parts per million.
    pub delay_ppm: u32,
    /// Scheduled processor crashes; only the first `crash_len` entries
    /// are meaningful.
    pub crashes: [CrashEvent; MAX_CRASHES],
    /// Number of valid entries in `crashes`.
    pub crash_len: u8,
}

impl FaultPlan {
    /// A perfectly reliable network (the default).
    pub fn none() -> FaultPlan {
        FaultPlan {
            enabled: false,
            seed: 0,
            drop_ppm: 0,
            dup_ppm: 0,
            reorder_ppm: 0,
            delay_ppm: 0,
            crashes: [CrashEvent::default(); MAX_CRASHES],
            crash_len: 0,
        }
    }

    /// An enabled plan with zero fault rates: injects nothing, but marks
    /// the network untrusted (higher layers run their reliability
    /// machinery). This is the 0%-loss overhead-measurement point.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            enabled: true,
            seed,
            drop_ppm: 0,
            dup_ppm: 0,
            reorder_ppm: 0,
            delay_ppm: 0,
            crashes: [CrashEvent::default(); MAX_CRASHES],
            crash_len: 0,
        }
    }

    /// A plan that only drops messages, at `drop_ppm` parts per million.
    pub fn lossy(seed: u64, drop_ppm: u32) -> FaultPlan {
        FaultPlan {
            drop_ppm,
            ..FaultPlan::seeded(seed)
        }
    }

    /// A plan exercising every fault kind at the same rate.
    pub fn chaos(seed: u64, ppm: u32) -> FaultPlan {
        FaultPlan {
            drop_ppm: ppm,
            dup_ppm: ppm,
            reorder_ppm: ppm,
            delay_ppm: ppm,
            ..FaultPlan::seeded(seed)
        }
    }

    /// Replaces the drop rate.
    pub fn drop_ppm(mut self, ppm: u32) -> FaultPlan {
        self.drop_ppm = ppm;
        self
    }

    /// Replaces the duplication rate.
    pub fn dup_ppm(mut self, ppm: u32) -> FaultPlan {
        self.dup_ppm = ppm;
        self
    }

    /// Replaces the reorder rate.
    pub fn reorder_ppm(mut self, ppm: u32) -> FaultPlan {
        self.reorder_ppm = ppm;
        self
    }

    /// Replaces the delay rate.
    pub fn delay_ppm(mut self, ppm: u32) -> FaultPlan {
        self.delay_ppm = ppm;
        self
    }

    /// Whether any fault can actually occur.
    pub fn any_rates(&self) -> bool {
        self.enabled && (self.drop_ppm | self.dup_ppm | self.reorder_ppm | self.delay_ppm) != 0
    }

    /// Schedules a crash of processor `proc` at cycle `at`, restarting
    /// `down` cycles later. Enables the plan: a crash severs in-flight
    /// traffic, so the run needs the reliable channel to repair it.
    ///
    /// `at` and `down` are clamped to ≥ 1 (a crash at cycle 0 would race
    /// node construction, and a zero downtime is not a crash).
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_CRASHES`] crashes are scheduled.
    pub fn with_crash(mut self, proc: usize, at: u64, down: u64) -> FaultPlan {
        let i = usize::from(self.crash_len);
        assert!(i < MAX_CRASHES, "at most {MAX_CRASHES} crashes per plan");
        self.crashes[i] = CrashEvent {
            proc: proc as u32,
            at: at.max(1),
            down: down.max(1),
        };
        self.crash_len += 1;
        self.enabled = true;
        self
    }

    /// The scheduled crashes, in scheduling order.
    pub fn crashes(&self) -> &[CrashEvent] {
        &self.crashes[..usize::from(self.crash_len)]
    }

    /// Whether the plan schedules any crash at all.
    pub fn has_crashes(&self) -> bool {
        self.crash_len > 0
    }

    /// The crashes of one processor, sorted by time and normalized so the
    /// windows never overlap: each crash fires no earlier than the cycle
    /// after the previous recovery completes. This is the schedule a node
    /// actually arms at construction.
    pub fn crashes_for(&self, proc: usize) -> Vec<CrashEvent> {
        let mut own: Vec<CrashEvent> = self
            .crashes()
            .iter()
            .copied()
            .filter(|c| c.proc as usize == proc)
            .collect();
        own.sort_by_key(|c| c.at);
        let mut next_free = 0u64;
        for c in &mut own {
            c.at = c.at.max(next_free);
            next_free = c.at + c.down + 1;
        }
        own
    }

    /// The fate of the message `src` sends to `dst` with per-source
    /// sequence number `seq`.
    ///
    /// Pure: the same `(plan, src, dst, seq)` always returns the same
    /// decision.
    pub fn decide(&self, src: usize, dst: usize, seq: u64) -> FaultDecision {
        if !self.enabled {
            return FaultDecision::Deliver;
        }
        let budget = u64::from(self.drop_ppm)
            + u64::from(self.dup_ppm)
            + u64::from(self.reorder_ppm)
            + u64::from(self.delay_ppm);
        if budget == 0 {
            return FaultDecision::Deliver;
        }
        let mut rng = self.message_rng(src, dst, seq);
        let roll = rng.next_below(1_000_000);
        let mut threshold = u64::from(self.drop_ppm);
        if roll < threshold {
            return FaultDecision::Drop;
        }
        threshold += u64::from(self.dup_ppm);
        if roll < threshold {
            return FaultDecision::Duplicate {
                extra_delay: 1 + rng.next_below(REORDER_WINDOW_CYCLES),
            };
        }
        threshold += u64::from(self.reorder_ppm);
        if roll < threshold {
            return FaultDecision::Reorder {
                extra_delay: 1 + rng.next_below(REORDER_WINDOW_CYCLES),
            };
        }
        threshold += u64::from(self.delay_ppm);
        if roll < threshold {
            return FaultDecision::Delay {
                extra_delay: 1 + rng.next_below(MAX_DELAY_CYCLES),
            };
        }
        FaultDecision::Deliver
    }

    /// The per-message random stream: the seed and the message identity
    /// mixed through SplitMix64.
    fn message_rng(&self, src: usize, dst: usize, seq: u64) -> SplitMix64 {
        let mut state = self.seed ^ 0x6D79_6D73_6700_0000; // "mymsg"-ish salt
        for v in [src as u64, dst as u64, seq] {
            // One SplitMix64 scramble round per component: enough mixing
            // that adjacent (src, dst, seq) triples decorrelate fully.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(v);
            state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            state ^= state >> 31;
        }
        SplitMix64::new(state)
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_always_delivers() {
        let p = FaultPlan::none();
        for seq in 0..1000 {
            assert_eq!(p.decide(0, 1, seq), FaultDecision::Deliver);
        }
        assert!(!p.any_rates());
    }

    #[test]
    fn seeded_zero_rate_plan_delivers_but_is_enabled() {
        let p = FaultPlan::seeded(42);
        assert!(p.enabled);
        assert!(!p.any_rates());
        for seq in 0..1000 {
            assert_eq!(p.decide(2, 3, seq), FaultDecision::Deliver);
        }
    }

    #[test]
    fn decisions_are_deterministic_per_message() {
        let p = FaultPlan::chaos(7, 100_000);
        for seq in 0..500 {
            assert_eq!(p.decide(1, 2, seq), p.decide(1, 2, seq));
        }
    }

    #[test]
    fn decisions_differ_across_seeds_and_messages() {
        let a = FaultPlan::lossy(1, 500_000);
        let b = FaultPlan::lossy(2, 500_000);
        let a_fates: Vec<_> = (0..256).map(|s| a.decide(0, 1, s)).collect();
        let b_fates: Vec<_> = (0..256).map(|s| b.decide(0, 1, s)).collect();
        assert_ne!(a_fates, b_fates, "seeds should change the schedule");
        let other_link: Vec<_> = (0..256).map(|s| a.decide(1, 0, s)).collect();
        assert_ne!(a_fates, other_link, "links should have independent fates");
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let p = FaultPlan::lossy(99, 10_000); // 1%
        let n = 200_000;
        let drops = (0..n)
            .filter(|&s| p.decide(0, 1, s) == FaultDecision::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!(
            (0.008..0.012).contains(&rate),
            "1% nominal, measured {rate}"
        );
    }

    #[test]
    fn at_most_one_fault_kind_per_message_and_delays_bounded() {
        let p = FaultPlan::chaos(5, 200_000);
        for seq in 0..20_000 {
            match p.decide(3, 4, seq) {
                FaultDecision::Deliver | FaultDecision::Drop => {}
                FaultDecision::Duplicate { extra_delay }
                | FaultDecision::Reorder { extra_delay } => {
                    assert!((1..=REORDER_WINDOW_CYCLES).contains(&extra_delay));
                }
                FaultDecision::Delay { extra_delay } => {
                    assert!((1..=MAX_DELAY_CYCLES).contains(&extra_delay));
                }
            }
        }
    }

    #[test]
    fn crash_plan_enables_and_filters_per_proc() {
        let p = FaultPlan::none()
            .with_crash(2, 5_000, 1_000)
            .with_crash(0, 9_000, 500)
            .with_crash(2, 20_000, 2_000);
        assert!(p.enabled, "a crash plan needs the reliable channel");
        assert!(p.has_crashes());
        assert_eq!(p.crashes().len(), 3);
        assert_eq!(
            p.crashes_for(2),
            vec![
                CrashEvent {
                    proc: 2,
                    at: 5_000,
                    down: 1_000
                },
                CrashEvent {
                    proc: 2,
                    at: 20_000,
                    down: 2_000
                },
            ]
        );
        assert_eq!(p.crashes_for(1), vec![]);
        assert!(!p.any_rates(), "crashes are not message faults");
    }

    #[test]
    fn overlapping_crash_windows_are_normalized() {
        // Second crash scheduled inside the first's downtime: it must be
        // pushed past the recovery point, never overlap it.
        let p = FaultPlan::none()
            .with_crash(1, 1_000, 5_000)
            .with_crash(1, 2_000, 100);
        let own = p.crashes_for(1);
        assert_eq!(own[0].at, 1_000);
        assert_eq!(own[1].at, 1_000 + 5_000 + 1);
    }

    #[test]
    fn crash_times_are_clamped_positive() {
        let p = FaultPlan::none().with_crash(0, 0, 0);
        let c = p.crashes_for(0)[0];
        assert_eq!((c.at, c.down), (1, 1));
    }
}
