//! Every metric the benchmark reports, declared once: name, unit,
//! direction and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` lists exactly these (a unit test holds it to that).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the base median by which the metric may worsen before
    /// `--compare` (and the driver) call it a regression.
    pub bound: f64,
}

/// What a user of the simulator sees, per workload, with tracing off.
///
/// The time bounds are set by the host this was written on, not by
/// wish: on a shared 2-core VM the interquartile spread of `host_s` over
/// ten runs ranged from 2% to 14% of the median depending on the minute
/// (`setup_s`: up to 13%) although passes inside one run agree to ~1%,
/// and a bound is only usable when the spread stays well inside it.
/// `peak_rss_mb` spreads under 3%. `--compare` prints the spread it
/// actually saw, so a quieter host can be read more tightly.
///
/// Virtual seconds (`sim_s`) are not here: they repeat exactly at a
/// given seed, so they cannot carry a spread or a bound. They are
/// checked instead — any drift in a cell's `finish_cycles` is a failed
/// operation — and reported per layer as `workload.sim_s`.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "host_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

const HI: &str = "higher";
const LO: &str = "lower";

/// Per-layer metrics, from the traced run. The prefix before the first
/// dot is the layer (a crate of this repo, or `calib` / `trace` /
/// `workload` for the benchmark's own references). README.md maps each
/// to the end-to-end metric and workload it is predicted to move.
pub const PER_LAYER: [PerLayer; 68] = [
    // Untouched byte-at-a-time references: they move with the host,
    // never with the code, so every results file carries them.
    m("calib.diff_reference_mbps", "MB/s", HI),
    m("calib.scan_reference_mlps", "Mlines/s", HI),
    m("calib.digest_reference_mbps", "MB/s", HI),
    m("calib.spin_mops", "Mops/s", HI),
    m("apps.standalone_s.water", "s", LO),
    m("apps.standalone_s.quicksort", "s", LO),
    m("apps.standalone_s.matrix", "s", LO),
    m("apps.standalone_s.sor", "s", LO),
    m("apps.standalone_s.cholesky", "s", LO),
    m("mem.diff_identical_mbps", "MB/s", HI),
    m("mem.diff_sparse_mbps", "MB/s", HI),
    m("mem.diff_dense_mbps", "MB/s", HI),
    m("mem.diff_apply_mbps", "MB/s", HI),
    m("mem.diff_restrict_ns", "ns", LO),
    m("mem.scan_clean_mlps", "Mlines/s", HI),
    m("mem.scan_mixed_mlps", "Mlines/s", HI),
    m("mem.template_store_ns", "ns", LO),
    m("mem.store_write_ns", "ns", LO),
    m("mem.store_read_ns", "ns", LO),
    m("mem.store_digest_mbps", "MB/s", HI),
    m("mem.page_fault_twin_ns", "ns", LO),
    m("mem.pool_cycle_ns", "ns", LO),
    m("proto.rt_collect_mlps", "Mlines/s", HI),
    m("proto.rt_apply_mbps", "MB/s", HI),
    m("proto.vm_collect_pages_per_s", "1/s", HI),
    m("proto.vm_apply_mbps", "MB/s", HI),
    m("proto.updateset_merge_ns_per_item", "ns", LO),
    m("proto.updateset_exclude_ns_per_item", "ns", LO),
    m("proto.tree_arrival_ns", "ns", LO),
    m("proto.homelock_transition_ns", "ns", LO),
    m("proto.channel_frame_ns", "ns", LO),
    m("sim.pingpong_ns_per_event", "ns", LO),
    m("sim.fanin_ns_per_event.8p", "ns", LO),
    m("sim.fanin_ns_per_event.64p", "ns", LO),
    m("sim.self_timer_ns", "ns", LO),
    m("sim.spawn_us_per_proc.64p", "us", LO),
    m("sim.rss_kb_per_proc.64p", "kB", LO),
    m("core.write_trap_ns.none", "ns", LO),
    m("core.write_trap_ns.rt", "ns", LO),
    m("core.write_trap_ns.vm", "ns", LO),
    m("core.read_ns", "ns", LO),
    m("core.write_slice_mbps.rt", "MB/s", HI),
    m("core.lock_pingpong_us.rt", "us", LO),
    m("core.lock_pingpong_us.vm", "us", LO),
    m("core.lock_shared_us.rt", "us", LO),
    m("core.lock_payload_us_per_kb.rt", "us", LO),
    m("core.lock_payload_us_per_kb.vm", "us", LO),
    m("core.rebind_us", "us", LO),
    m("core.barrier_round_us.8p", "us", LO),
    m("core.barrier_round_us.64p_tree", "us", LO),
    m("core.barrier_payload_us.64p_tree", "us", LO),
    m("core.check_overhead_ratio", "ratio", LO),
    m("core.record_overhead_ratio", "ratio", LO),
    m("core.reliable_overhead_ratio", "ratio", LO),
    m("replay.encode_mbps", "MB/s", HI),
    m("replay.decode_mbps", "MB/s", HI),
    m("replay.ops_per_s.quicksort-rt", "1/s", HI),
    m("replay.ops_per_s.cholesky-vm", "1/s", HI),
    m("replay.live_over_replay.matrix", "ratio", LO),
    m("replay.live_over_replay.sor", "ratio", LO),
    m("replay.live_over_replay.water", "ratio", LO),
    // Unpinned, real loopback sockets: too noisy to be end-to-end.
    m("net.tcp_lock_rtt_us", "us", LO),
    m("net.tcp_sor_s", "s", LO),
    // The traced workload itself, seen from outside.
    m("trace.overhead_ratio", "ratio", LO),
    m("workload.sim_s", "s", LO),
    m("workload.sys_share", "ratio", LO),
    m("workload.host_us_per_event", "us", LO),
    m("workload.harness_share", "ratio", LO),
];

/// `(unit, better)` of a declared metric.
pub fn lookup(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .find(|e| e.name == name)
        .map(|e| (e.unit, e.better))
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|p| p.name == name)
                .map(|p| (p.unit, p.better))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use midway_bench::Json;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn metric_names_are_well_formed_unique_and_within_limits() {
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|e| e.name)
            .chain(PER_LAYER.iter().map(|p| p.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all, "a name is used twice");
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.better == LO));
        for unit in PER_LAYER
            .iter()
            .map(|p| p.unit)
            .chain(END_TO_END.iter().map(|e| e.unit))
        {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
    }

    /// `BENCHMARK.json` is data for the driver; these tables are what the
    /// binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let json = Json::parse(include_str!("../../../../../BENCHMARK.json")).expect("parses");
        let s = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);
        let listed: Vec<_> = json.get("end_to_end").expect("end_to_end").items().to_vec();
        assert_eq!(listed.len(), END_TO_END.len());
        for (j, e) in listed.iter().zip(&END_TO_END) {
            assert_eq!(s(j, "name").as_deref(), Some(e.name));
            assert_eq!(s(j, "unit").as_deref(), Some(e.unit));
            assert_eq!(s(j, "better").as_deref(), Some(e.better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(e.bound));
        }
        let listed: Vec<_> = json.get("per_layer").expect("per_layer").items().to_vec();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (j, p) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(s(j, "name").as_deref(), Some(p.name));
            assert_eq!(s(j, "unit").as_deref(), Some(p.unit));
            assert_eq!(s(j, "better").as_deref(), Some(p.better));
        }
        let listed: Vec<_> = json.get("workloads").expect("workloads").items().to_vec();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (j, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(s(j, "name").as_deref(), Some(w.name));
            assert_eq!(s(j, "why").as_deref(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_u64),
            Some(crate::workloads::PINNED_SECONDS)
        );
    }
}
