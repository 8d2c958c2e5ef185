//! The primitive-operation cost model (paper Table 1).

/// Measured costs of the primitive operations, in cycles.
///
/// These are the paper's Table 1 values for a 25 MHz MIPS R3000 running
/// Mach 3.0 with a 4 KB page size (the page size is the memory layer's
/// `PAGE_SIZE`, not a cost). All simulation charging goes through
/// this structure so that the Figure 3/4 sweeps (varying the page-fault
/// service time between a fast exception handler at 122 µs and Mach's
/// external pager at 1200 µs) are a one-field change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Processor clock rate in MHz (paper: 25).
    pub mhz: u32,

    // --- RT-DSM primitives ---
    /// Dirtybit set for a word write (paper: 9 cycles / 0.360 µs).
    pub dirtybit_set_word: u64,
    /// Dirtybit set for a doubleword write (paper: 9 cycles).
    pub dirtybit_set_double: u64,
    /// Penalty for a misclassified write to private memory: the private
    /// template returns without side effects (paper: 6 cycles).
    pub dirtybit_set_private: u64,
    /// Inline+template base cost for an area (multi-line) write; the
    /// per-line dirtybit stores are charged on top. Estimated from the
    /// Appendix A description (stack frame + register saves + call).
    pub dirtybit_set_area_base: u64,
    /// Reading a clean dirtybit during collection (paper: 5 cycles).
    pub dirtybit_read_clean: u64,
    /// Reading a dirty dirtybit during collection (paper: 4 cycles).
    pub dirtybit_read_dirty: u64,
    /// Updating a dirtybit with a new timestamp (paper: 2 cycles).
    pub dirtybit_update: u64,

    // --- exact measured microseconds for the rounded cycle entries ---
    // Table 1 reports both cycles and µs; the cycle column is rounded
    // (0.217 µs is 5.425 cycles at 25 MHz). The integer cycle fields above
    // drive deterministic simulation charging; these µs values drive the
    // Table 3/4 derivations, exactly as the paper computes them.
    /// Clean dirtybit read, measured (paper: 0.217 µs).
    pub dirtybit_read_clean_us: f64,
    /// Dirty dirtybit read, measured (paper: 0.187 µs).
    pub dirtybit_read_dirty_us: f64,
    /// Dirtybit timestamp update, measured (paper: 0.067 µs).
    pub dirtybit_update_us: f64,
    /// Uniform-page diff, measured (paper: 260 µs; the cycle column's
    /// 7,000 is likewise rounded).
    pub page_diff_uniform_us: f64,

    // --- §3.5 RT variants ---
    // Nothing charges these; the trace format stores them, so every
    // recorded trace decodes to the model it was recorded under.
    /// Per-write cost of the update-queue variant (paper: "roughly triples
    /// the cost of write trapping" → 27 cycles).
    pub dirtybit_set_queue: u64,
    /// Per-write cost of the two-level dirtybit variant (paper: one extra
    /// store, "increasing its length by about 10%" → 10 cycles).
    pub dirtybit_set_two_level: u64,

    // --- VM-DSM primitives ---
    /// Servicing a page write fault, including the page copy (twin) and the
    /// protection call (paper: 30,000 cycles / 1200 µs with Mach's external
    /// pager; 122 µs with a fast exception handler). Sweepable.
    pub page_write_fault: u64,
    /// Diffing a page when none or all of the data changed
    /// (paper: 7,000 cycles / 260 µs).
    pub page_diff_uniform: u64,
    /// Diffing a page when every other word changed
    /// (paper: 46,750 cycles / 1870 µs).
    pub page_diff_alternating: u64,
    /// Protection call to allow read-write access (paper: 3,125 cycles).
    pub protect_rw: u64,
    /// Protection call to allow read-only access (paper: 3,175 cycles).
    pub protect_ro: u64,
    /// Block copy per KB, cold cache (paper: 2,100 cycles).
    pub copy_per_kb_cold: u64,
    /// Block copy per KB, warm cache (paper: 650 cycles).
    pub copy_per_kb_warm: u64,
}

impl CostModel {
    /// The paper's measured values (Table 1): 25 MHz R3000, Mach 3.0.
    pub fn r3000_mach() -> CostModel {
        CostModel {
            mhz: 25,
            dirtybit_set_word: 9,
            dirtybit_set_double: 9,
            dirtybit_set_private: 6,
            dirtybit_set_area_base: 30,
            dirtybit_read_clean: 5,
            dirtybit_read_dirty: 4,
            dirtybit_update: 2,
            dirtybit_read_clean_us: 0.217,
            dirtybit_read_dirty_us: 0.187,
            dirtybit_update_us: 0.067,
            page_diff_uniform_us: 260.0,
            dirtybit_set_queue: 27,
            dirtybit_set_two_level: 10,
            page_write_fault: 30_000,
            page_diff_uniform: 7_000,
            page_diff_alternating: 46_750,
            protect_rw: 3_125,
            protect_ro: 3_175,
            copy_per_kb_cold: 2_100,
            copy_per_kb_warm: 650,
        }
    }

    /// The sixteen cycle costs a recorded trace carries, each beside its
    /// name, in the order the trace format stores them. Both directions of
    /// the trace codec walk this, so the order is spelled once.
    pub fn cycle_fields_mut(&mut self) -> [(&'static str, &mut u64); 16] {
        [
            ("dirtybit_set_word", &mut self.dirtybit_set_word),
            ("dirtybit_set_double", &mut self.dirtybit_set_double),
            ("dirtybit_set_private", &mut self.dirtybit_set_private),
            ("dirtybit_set_area_base", &mut self.dirtybit_set_area_base),
            ("dirtybit_read_clean", &mut self.dirtybit_read_clean),
            ("dirtybit_read_dirty", &mut self.dirtybit_read_dirty),
            ("dirtybit_update", &mut self.dirtybit_update),
            ("dirtybit_set_queue", &mut self.dirtybit_set_queue),
            ("dirtybit_set_two_level", &mut self.dirtybit_set_two_level),
            ("page_write_fault", &mut self.page_write_fault),
            ("page_diff_uniform", &mut self.page_diff_uniform),
            ("page_diff_alternating", &mut self.page_diff_alternating),
            ("protect_rw", &mut self.protect_rw),
            ("protect_ro", &mut self.protect_ro),
            ("copy_per_kb_cold", &mut self.copy_per_kb_cold),
            ("copy_per_kb_warm", &mut self.copy_per_kb_warm),
        ]
    }

    /// The four measured-microsecond costs, likewise in trace-format order.
    pub fn us_fields_mut(&mut self) -> [&mut f64; 4] {
        [
            &mut self.dirtybit_read_clean_us,
            &mut self.dirtybit_read_dirty_us,
            &mut self.dirtybit_update_us,
            &mut self.page_diff_uniform_us,
        ]
    }

    /// Returns this model with the page-fault service time replaced by
    /// `micros` microseconds (the Figure 3/4 sweep axis).
    pub(crate) fn with_fault_micros(mut self, micros: f64) -> CostModel {
        self.page_write_fault = (micros * self.mhz as f64).round() as u64;
        self
    }

    /// The page-fault service time of this model, in microseconds.
    pub fn fault_micros(&self) -> f64 {
        self.page_write_fault as f64 / self.mhz as f64
    }

    /// Converts cycles to microseconds under this model's clock.
    fn cycles_to_micros(&self, cycles: u64) -> f64 {
        cycles as f64 / self.mhz as f64
    }

    /// Converts cycles to milliseconds under this model's clock.
    pub fn cycles_to_millis(&self, cycles: u64) -> f64 {
        self.cycles_to_micros(cycles) / 1_000.0
    }

    /// Converts cycles to seconds under this model's clock.
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        self.cycles_to_micros(cycles) / 1_000_000.0
    }

    /// Cost of diffing one page whose changed words form `changed_runs`
    /// maximal runs, out of `words` comparable words.
    ///
    /// The paper gives two endpoints: a uniform page (none or all changed,
    /// 7,000 cycles — a pure scan) and the worst case of every other word
    /// changed (46,750 cycles — `words/2` runs, each paying run-start
    /// bookkeeping). We interpolate linearly in the number of runs, which
    /// matches both endpoints and charges intermediate pages by how
    /// fragmented their modifications are.
    pub fn page_diff_cycles(&self, changed_runs: usize, words: usize) -> u64 {
        if words == 0 {
            return self.page_diff_uniform;
        }
        let max_runs = (words / 2).max(1);
        let runs = changed_runs.min(max_runs) as u64;
        let span = self
            .page_diff_alternating
            .saturating_sub(self.page_diff_uniform);
        self.page_diff_uniform + span * runs / max_runs as u64
    }

    /// Cost of copying `bytes` with the given cache temperature.
    pub fn copy_cycles(&self, bytes: usize, warm: bool) -> u64 {
        let per_kb = if warm {
            self.copy_per_kb_warm
        } else {
            self.copy_per_kb_cold
        };
        (bytes as u64 * per_kb).div_ceil(1024)
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::r3000_mach()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_round_trip_to_microseconds() {
        let c = CostModel::r3000_mach();
        // Table 1: 9 cycles = 0.360 µs, 30,000 cycles = 1200 µs.
        assert!((c.cycles_to_micros(c.dirtybit_set_word) - 0.360).abs() < 1e-9);
        assert!((c.fault_micros() - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn fault_sweep_endpoint_matches_fast_exception_handler() {
        let c = CostModel::r3000_mach().with_fault_micros(122.0);
        assert_eq!(c.page_write_fault, 3_050);
    }

    #[test]
    fn diff_interpolation_hits_both_paper_endpoints() {
        let c = CostModel::r3000_mach();
        let words = 1024; // 4 KB page of 4-byte words
        assert_eq!(c.page_diff_cycles(0, words), 7_000);
        assert_eq!(c.page_diff_cycles(1, words), 7_000 + (46_750 - 7_000) / 512);
        assert_eq!(c.page_diff_cycles(512, words), 46_750);
        // More runs than possible is clamped.
        assert_eq!(c.page_diff_cycles(10_000, words), 46_750);
    }

    #[test]
    fn field_walks_cover_every_cost_but_the_three_stored_apart() {
        let mut c = CostModel::r3000_mach();
        for (i, (_, f)) in c.cycle_fields_mut().into_iter().enumerate() {
            *f = 1_000_000 + i as u64;
        }
        for (i, f) in c.us_fields_mut().into_iter().enumerate() {
            *f = 1e9 + i as f64;
        }
        // No field is listed twice (a later store would have overwritten
        // an earlier one), and the order is the trace format's.
        let cycles = c.cycle_fields_mut().map(|(_, f)| *f);
        assert!(cycles.iter().copied().eq(1_000_000..1_000_016));
        // Each name is its field's.
        let debug = format!("{c:?}");
        for (i, (name, _)) in c.cycle_fields_mut().into_iter().enumerate() {
            assert!(
                debug.contains(&format!(" {name}: {}", 1_000_000 + i)),
                "{name}"
            );
        }
        assert_eq!(
            c.us_fields_mut().map(|f| *f),
            [1e9, 1e9 + 1.0, 1e9 + 2.0, 1e9 + 3.0]
        );
        assert_eq!(
            (c.dirtybit_set_word, c.copy_per_kb_warm),
            (1_000_000, 1_000_015)
        );
        assert_eq!(
            (c.dirtybit_read_clean_us, c.page_diff_uniform_us),
            (1e9, 1e9 + 3.0)
        );
        // A new field has to be put in a walk or beside mhz, which the
        // trace stores on its own.
        assert_eq!(format!("{c:?}").matches(": ").count(), 16 + 4 + 1);
    }

    #[test]
    fn copy_cost_scales_per_kb() {
        let c = CostModel::r3000_mach();
        assert_eq!(c.copy_cycles(4096, false), 4 * 2_100);
        assert_eq!(c.copy_cycles(1024, true), 650);
        // Partial KBs round up.
        assert_eq!(c.copy_cycles(1, true), 1);
        assert_eq!(c.copy_cycles(0, true), 0);
    }
}
