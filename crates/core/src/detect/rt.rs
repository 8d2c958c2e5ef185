//! RT-DSM detector: compiler/runtime dirtybit templates (paper §3.1–§3.2).

use midway_mem::{Addr, EPOCH};
use midway_proto::{rt, Binding, SeenToken, Unskipped, UpdateSet};
use midway_sim::Category;

use crate::msg::GrantPayload;
use crate::setup::SystemSpec;

use super::{DetectCx, WriteDetector};

/// The RT-DSM backend: every shared store runs a dirtybit-setting template,
/// collection scans timestamped dirtybits, application is exactly-once.
pub struct RtDetector {
    dirty: rt::DirtyMap,
    /// Per lock: the logical time as of which this processor's cache of the
    /// lock's data is consistent.
    last_seen: Vec<u64>,
    /// Item-buffer freelist: buffers of applied grants feed the next
    /// collection, so steady-state transfers allocate nothing.
    pool: midway_mem::BufPool,
}

impl RtDetector {
    /// A fresh detector for one processor of `spec`'s system.
    pub fn new(spec: &SystemSpec) -> RtDetector {
        RtDetector {
            dirty: rt::DirtyMap::new(&spec.layout),
            last_seen: vec![EPOCH; spec.locks.len()],
            pool: midway_mem::BufPool::new(),
        }
    }
}

impl WriteDetector for RtDetector {
    fn trap_write(&mut self, cx: &mut DetectCx<'_>, addr: Addr, len: usize) {
        let desc = cx.spec.layout.region_of(addr);
        let template = cx.spec.templates[desc.id].expect("allocated region has template");
        let bits = self.dirty.bits_mut(&cx.spec.layout, desc.id);
        let hit = template.invoke(bits, addr, midway_mem::StoreKind::of_len(len), &cx.cost);
        (cx.charge)(Category::WriteTrap, hit.cycles);
        if hit.misclassified {
            cx.counters.dirtybits_misclassified += 1;
        } else {
            cx.counters.dirtybits_set += hit.lines_marked;
        }
    }

    fn seen_token(&self, lock: usize, binding: &Binding) -> SeenToken {
        (self.last_seen[lock], binding.version())
    }

    fn collect_for(
        &mut self,
        cx: &mut DetectCx<'_>,
        _lock: usize,
        binding: &Binding,
        seen: SeenToken,
    ) -> GrantPayload {
        let now = cx.clock.tick();
        // A requester with a stale binding has never seen the rebound
        // ranges: scan from the epoch — its per-line timestamps still
        // filter duplicates on application.
        let last_seen = if seen.1 == binding.version() {
            seen.0
        } else {
            EPOCH
        };
        let scan = rt::collect_pooled(
            cx.store,
            &mut self.dirty,
            &cx.spec.layout,
            binding,
            last_seen,
            now,
            &mut self.pool,
        );
        (cx.charge)(
            Category::WriteCollect,
            scan.clean_reads * cx.cost.dirtybit_read_clean
                + scan.dirty_reads * cx.cost.dirtybit_read_dirty,
        );
        cx.counters.clean_dirtybits_read += scan.clean_reads;
        cx.counters.dirty_dirtybits_read += scan.dirty_reads;
        GrantPayload::Rt {
            set: scan.set,
            consist_time: now,
            binding: binding.clone(),
        }
    }

    fn apply_update(
        &mut self,
        cx: &mut DetectCx<'_>,
        lock: usize,
        binding: &mut Binding,
        payload: GrantPayload,
    ) {
        let GrantPayload::Rt {
            set,
            consist_time,
            binding: sent,
        } = payload
        else {
            panic!("non-RT grant on RT node");
        };
        let res = rt::apply(cx.store, &mut self.dirty, &cx.spec.layout, &set);
        (cx.charge)(
            Category::WriteCollect,
            res.dirtybits_updated * cx.cost.dirtybit_update
                + cx.cost.copy_cycles(res.bytes_applied as usize, true),
        );
        cx.counters.dirtybits_updated += res.dirtybits_updated;
        cx.counters.redundant_bytes_received += res.bytes_redundant;
        self.last_seen[lock] = consist_time;
        binding.install(sent);
        cx.clock.observe(consist_time);
        // The grant has been applied; its item buffers feed the next
        // collection instead of going back to the allocator.
        for item in set.items {
            self.pool.put(item.data);
        }
    }

    fn collect_barrier(
        &mut self,
        cx: &mut DetectCx<'_>,
        scan: &Binding,
        last_consist: u64,
        _partitioned: bool,
    ) -> UpdateSet {
        let now = cx.clock.tick();
        let res = rt::collect_pooled(
            cx.store,
            &mut self.dirty,
            &cx.spec.layout,
            scan,
            last_consist,
            now,
            &mut self.pool,
        );
        (cx.charge)(
            Category::WriteCollect,
            res.clean_reads * cx.cost.dirtybit_read_clean
                + res.dirty_reads * cx.cost.dirtybit_read_dirty,
        );
        cx.counters.clean_dirtybits_read += res.clean_reads;
        cx.counters.dirty_dirtybits_read += res.dirty_reads;
        res.set
    }

    fn apply_barrier(&mut self, cx: &mut DetectCx<'_>, items: Unskipped<'_>) {
        let res = rt::apply_with(cx.store, &mut self.dirty, &cx.spec.layout, items, |_, _| {});
        (cx.charge)(
            Category::WriteCollect,
            res.dirtybits_updated * cx.cost.dirtybit_update
                + cx.cost.copy_cycles(res.bytes_applied as usize, true),
        );
        cx.counters.dirtybits_updated += res.dirtybits_updated;
        cx.counters.redundant_bytes_received += res.bytes_redundant;
    }
}
