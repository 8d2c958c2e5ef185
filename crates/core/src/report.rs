//! Derived write-detection cost reports (Tables 3, 4 and 5).
//!
//! The paper computes these "by measuring the costs of the primitive
//! operations and multiplying by the average per-processor number of
//! invocations for each application". These helpers apply exactly those
//! formulas to a run's counters, so the simulation's execution times and
//! the analytic tables can be cross-checked against each other.

use midway_stats::CostModel;

use crate::config::BackendKind;
use crate::counters::AvgCounters;

/// Write-trapping time in milliseconds (Table 3).
///
/// RT-DSM: dirtybits set × set cost, plus misclassified writes at the
/// private-template penalty. VM-DSM: write faults × the fault service
/// cost (including twin and protection — the sweepable Figure 3 axis).
pub fn trapping_millis(kind: BackendKind, avg: &AvgCounters, cost: &CostModel) -> f64 {
    let cycles = match kind {
        BackendKind::Rt => {
            avg.avg(|c| c.dirtybits_set) * cost.dirtybit_set_word as f64
                + avg.avg(|c| c.dirtybits_misclassified) * cost.dirtybit_set_private as f64
        }
        BackendKind::Vm => avg.avg(|c| c.write_faults) * cost.page_write_fault as f64,
        // Hybrid traps through both mechanisms, each region through one.
        BackendKind::Hybrid => {
            avg.avg(|c| c.dirtybits_set) * cost.dirtybit_set_word as f64
                + avg.avg(|c| c.dirtybits_misclassified) * cost.dirtybit_set_private as f64
                + avg.avg(|c| c.write_faults) * cost.page_write_fault as f64
        }
        _ => 0.0,
    };
    cycles / cost.mhz as f64 / 1_000.0
}

/// Write-collection time in milliseconds (Table 4), split into the
/// paper's rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct CollectionBreakdown {
    /// RT: clean dirtybits read.
    pub rt_clean_reads_ms: f64,
    /// RT: dirty dirtybits read.
    pub rt_dirty_reads_ms: f64,
    /// RT: dirtybits updated at the requester.
    pub rt_updates_ms: f64,
    /// VM: pages diffed (at the paper's uniform 260 µs estimate).
    pub vm_diff_ms: f64,
    /// VM: pages write-protected.
    pub vm_protect_ms: f64,
    /// VM: data updated in twins (warm-cache copy).
    pub vm_twin_ms: f64,
}

impl CollectionBreakdown {
    /// Total collection time in milliseconds.
    pub fn total(&self) -> f64 {
        self.rt_clean_reads_ms
            + self.rt_dirty_reads_ms
            + self.rt_updates_ms
            + self.vm_diff_ms
            + self.vm_protect_ms
            + self.vm_twin_ms
    }
}

/// Write-collection time (Table 4).
///
/// Note: like the paper's table, the VM diff row charges every diff at the
/// uniform-page cost (260 µs); the simulation itself charges the
/// fragmentation-sensitive cost.
pub fn collection_millis(
    kind: BackendKind,
    avg: &AvgCounters,
    cost: &CostModel,
) -> CollectionBreakdown {
    let to_ms = |cycles: f64| cycles / cost.mhz as f64 / 1_000.0;
    let mut b = CollectionBreakdown::default();
    // Hybrid collection harvests page diffs into the dirtybit scan, so its
    // cost is the sum of both backends' rows.
    if matches!(kind, BackendKind::Rt | BackendKind::Hybrid) {
        b.rt_clean_reads_ms =
            avg.avg(|c| c.clean_dirtybits_read) * cost.dirtybit_read_clean_us / 1_000.0;
        b.rt_dirty_reads_ms =
            avg.avg(|c| c.dirty_dirtybits_read) * cost.dirtybit_read_dirty_us / 1_000.0;
        b.rt_updates_ms = avg.avg(|c| c.dirtybits_updated) * cost.dirtybit_update_us / 1_000.0;
    }
    if matches!(kind, BackendKind::Vm | BackendKind::Hybrid) {
        b.vm_diff_ms = avg.avg(|c| c.pages_diffed) * cost.page_diff_uniform_us / 1_000.0;
        b.vm_protect_ms = to_ms(avg.avg(|c| c.pages_write_protected) * cost.protect_ro as f64);
        b.vm_twin_ms =
            to_ms(avg.avg(|c| c.twin_bytes_updated) / 1024.0 * cost.copy_per_kb_warm as f64);
    }
    b
}

/// Memory references incurred by write detection, in thousands (Table 5).
///
/// RT trapping: one store per dirtybit set. RT collection: one reference
/// per dirtybit read or updated (the table's accounting). VM trapping: a
/// read and a write per word of each twinned page. VM collection: a read
/// of page and twin per word of each diffed page, plus the words applied
/// to twins.
pub fn memory_refs_thousands(kind: BackendKind, avg: &AvgCounters, cost: &CostModel) -> (f64, f64) {
    let words_per_page = cost.page_size as f64 / 4.0;
    match kind {
        BackendKind::Rt => {
            let trap = avg.avg(|c| c.dirtybits_set) + avg.avg(|c| c.dirtybits_misclassified);
            let collect = avg.avg(|c| c.clean_dirtybits_read)
                + avg.avg(|c| c.dirty_dirtybits_read)
                + avg.avg(|c| c.dirtybits_updated);
            (trap / 1_000.0, collect / 1_000.0)
        }
        BackendKind::Vm => {
            let trap = avg.avg(|c| c.write_faults) * 2.0 * words_per_page;
            let collect = avg.avg(|c| c.pages_diffed) * 2.0 * words_per_page
                + avg.avg(|c| c.twin_bytes_updated) / 4.0;
            (trap / 1_000.0, collect / 1_000.0)
        }
        _ => (0.0, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;

    /// The paper's own water numbers as a cross-check: Table 2 counts must
    /// reproduce Table 3/4/5 entries under these formulas.
    fn water_rt() -> AvgCounters {
        Counters::average(&[Counters {
            dirtybits_set: 43_180,
            clean_dirtybits_read: 48_552,
            dirty_dirtybits_read: 11_280,
            dirtybits_updated: 35_676,
            ..Counters::default()
        }])
    }

    fn water_vm() -> AvgCounters {
        Counters::average(&[Counters {
            write_faults: 258,
            pages_diffed: 253,
            pages_write_protected: 253,
            twin_bytes_updated: 976 * 1024,
            ..Counters::default()
        }])
    }

    #[test]
    fn table3_water_row_reproduces() {
        let cost = CostModel::r3000_mach();
        let rt = trapping_millis(BackendKind::Rt, &water_rt(), &cost);
        assert!((rt - 15.5).abs() < 0.2, "paper: 15.6 ms, got {rt}");
        let vm = trapping_millis(BackendKind::Vm, &water_vm(), &cost);
        assert!((vm - 309.6).abs() < 0.5, "paper: 309.6 ms, got {vm}");
    }

    #[test]
    fn table4_water_row_reproduces() {
        let cost = CostModel::r3000_mach();
        let rt = collection_millis(BackendKind::Rt, &water_rt(), &cost);
        assert!((rt.rt_clean_reads_ms - 10.5).abs() < 0.5, "paper: 10.5");
        assert!((rt.rt_dirty_reads_ms - 2.0).abs() < 0.5, "paper: 2.0");
        assert!((rt.rt_updates_ms - 2.4).abs() < 0.6, "paper: 2.4");
        assert!((rt.total() - 14.9).abs() < 1.0, "paper: 14.9");
        let vm = collection_millis(BackendKind::Vm, &water_vm(), &cost);
        assert!(
            (vm.vm_diff_ms - 65.8).abs() < 1.0,
            "paper: 65.8, got {}",
            vm.vm_diff_ms
        );
        assert!((vm.vm_protect_ms - 32.1).abs() < 0.5, "paper: 32.1");
        assert!((vm.vm_twin_ms - 25.4).abs() < 0.5, "paper: 25.4");
        assert!((vm.total() - 123.3).abs() < 1.5, "paper: 123.3");
    }

    #[test]
    fn table5_water_row_reproduces() {
        let cost = CostModel::r3000_mach();
        let (trap, collect) = memory_refs_thousands(BackendKind::Rt, &water_rt(), &cost);
        assert!((trap - 43.2).abs() < 0.5, "paper: 43");
        assert!((collect - 95.5).abs() < 1.0, "paper: 96, got {collect}");
        let (vtrap, vcollect) = memory_refs_thousands(BackendKind::Vm, &water_vm(), &cost);
        assert!((vtrap - 528.4).abs() < 1.0, "paper: 510 (approx)");
        assert!((vcollect - 768.1).abs() < 2.0, "paper: 768, got {vcollect}");
    }

    #[test]
    fn other_backends_report_zero() {
        let avg = water_rt();
        let cost = CostModel::r3000_mach();
        assert_eq!(trapping_millis(BackendKind::Blast, &avg, &cost), 0.0);
        assert_eq!(
            collection_millis(BackendKind::Blast, &avg, &cost).total(),
            0.0
        );
    }
}
