//! VM-DSM detector: page protection, twins, diffs and per-lock
//! incarnation histories (paper §3.3–§3.4).

use std::sync::Arc;

use midway_mem::{Addr, MemClass, PageTable, RegionDesc, WriteAccess, PAGE_SHIFT, PAGE_SIZE};
use midway_proto::{vm, Binding, SeenToken, Unskipped, Update, UpdateSet};
use midway_sim::Category;

use crate::config::MidwayConfig;
use crate::msg::GrantPayload;
use crate::setup::SystemSpec;

use super::{DetectCx, WriteDetector};

/// Per-lock state the VM-style backends (VM-DSM and TwinAll) keep: the
/// last-seen token, the current incarnation, and the update history.
pub(super) struct LockState {
    /// (incarnation, binding version) last seen by this processor.
    pub last_seen: (u64, u64),
    /// Current incarnation (meaningful at the owner of record).
    pub incarnation: u64,
    /// The update history this processor knows.
    pub history: vm::LockHistory,
}

impl LockState {
    pub fn fresh(cfg: &MidwayConfig, spec: &SystemSpec) -> Vec<LockState> {
        (0..spec.locks.len())
            .map(|_| LockState {
                last_seen: (0, 0),
                incarnation: 0,
                history: vm::LockHistory::new(cfg.history_cap),
            })
            .collect()
    }
}

/// Services the write faults of a store of `len` bytes at `addr`: each
/// still-protected page under it is twinned straight from the store and
/// made writable.
pub(super) fn fault_in_pages(
    cx: &mut DetectCx<'_>,
    pages: &mut PageTable,
    desc: &RegionDesc,
    addr: Addr,
    len: usize,
) {
    let first = addr.page_in_region();
    let last = Addr(addr.raw() + len.max(1) as u64 - 1).page_in_region();
    for page in first..=last {
        if pages.store_probe(desc.id, page) == WriteAccess::Fault {
            let offset = page << PAGE_SHIFT;
            let plen = PAGE_SIZE.min(desc.used - offset);
            pages.fault_in(
                desc.id,
                page,
                cx.store.bytes(desc.base() + offset as u64, plen),
            );
            (cx.charge)(Category::WriteTrap, cx.cost.page_write_fault);
            cx.counters.write_faults += 1;
        }
    }
}

/// Runs the VM collection pass over `binding`, charging every page diff
/// and re-protection and counting them for Table 2; `on_item` sees each
/// piece to ship, borrowed from the diff.
pub(super) fn collect_charged(
    cx: &mut DetectCx<'_>,
    pages: &mut PageTable,
    binding: &Binding,
    on_item: impl FnMut(u64, &[u8]),
) {
    let (charge, cost) = (&mut *cx.charge, cx.cost);
    let (diffed, cleaned) = vm::collect_with(
        cx.store,
        pages,
        &cx.spec.layout,
        binding,
        |runs, words| charge(Category::WriteCollect, cost.page_diff_cycles(runs, words)),
        on_item,
    );
    charge(Category::WriteCollect, cleaned * cost.protect_ro);
    cx.counters.pages_diffed += diffed;
    cx.counters.pages_write_protected += cleaned;
}

/// The VM-DSM backend: write-protected pages fault in twins, collection
/// diffs dirty pages, updates travel as incarnation chains.
pub struct VmDetector {
    pages: PageTable,
    locks: Vec<LockState>,
}

impl VmDetector {
    /// A fresh detector for one processor of `spec`'s system.
    pub fn new(cfg: &MidwayConfig, spec: &SystemSpec) -> VmDetector {
        VmDetector {
            pages: PageTable::new(std::sync::Arc::clone(&spec.layout)),
            locks: LockState::fresh(cfg, spec),
        }
    }

    /// Collects the modifications under `binding` into an update set.
    fn collect(&mut self, cx: &mut DetectCx<'_>, binding: &Binding) -> UpdateSet {
        let mut set = UpdateSet::new();
        collect_charged(cx, &mut self.pages, binding, |addr, data| {
            set.push_copy(addr, data);
        });
        set
    }

    /// Reads the full bound data, bumps the counters and history: the
    /// fallback when the incarnation history cannot serve a requester.
    fn full_send(&mut self, cx: &mut DetectCx<'_>, lock: usize, binding: &Binding) -> GrantPayload {
        let incarnation = self.locks[lock].incarnation;
        // One Arc'd snapshot is shared between this owner's history and the
        // outgoing payload — the old deep copy of the full bound data is
        // now a reference-count bump.
        let full = Arc::new(Update {
            incarnation,
            set: vm::snapshot(cx.store, binding),
            full: true,
        });
        cx.counters.full_data_sends += 1;
        (cx.charge)(
            Category::Protocol,
            cx.cost.copy_cycles(full.set.data_bytes() as usize, false),
        );
        let st = &mut self.locks[lock];
        st.history.clear();
        st.history.push(Arc::clone(&full));
        GrantPayload::Vm {
            updates: Vec::new(),
            full: Some(full),
            incarnation,
            binding: binding.clone(),
        }
    }
}

impl WriteDetector for VmDetector {
    fn trap_write(&mut self, cx: &mut DetectCx<'_>, addr: Addr, len: usize) {
        let desc = cx.spec.layout.region_of(addr);
        if desc.class == MemClass::Private {
            return;
        }
        fault_in_pages(cx, &mut self.pages, desc, addr, len);
    }

    fn seen_token(&self, lock: usize, _binding: &Binding) -> SeenToken {
        self.locks[lock].last_seen
    }

    fn collect_for(
        &mut self,
        cx: &mut DetectCx<'_>,
        lock: usize,
        binding: &Binding,
        seen: SeenToken,
    ) -> GrantPayload {
        let st = &mut self.locks[lock];
        st.incarnation = st.history.newest().unwrap_or(st.incarnation) + 1;
        if seen.1 != binding.version() {
            // The requester's binding is stale (the lock was rebound):
            // "the incarnation number is incremented which causes all data
            // bound to the lock to be sent without performing a diff"
            // (paper §4, quicksort).
            return self.full_send(cx, lock, binding);
        }
        let set = self.collect(cx, binding);
        let st = &mut self.locks[lock];
        st.history.push(Arc::new(Update {
            incarnation: st.incarnation,
            set,
            full: false,
        }));

        let bound_bytes = binding.data_bytes();
        let chain = if seen.1 == binding.version() {
            st.history.since(seen.0)
        } else {
            None
        };
        let updates_ok = chain
            .as_ref()
            .is_some_and(|us| us.iter().map(|u| u.set.data_bytes()).sum::<u64>() <= bound_bytes);
        if updates_ok {
            GrantPayload::Vm {
                updates: chain.expect("checked above"),
                full: None,
                incarnation: st.incarnation,
                binding: binding.clone(),
            }
        } else {
            // History cannot serve this requester (or the concatenated
            // updates exceed the data): full send. The snapshot subsumes
            // all earlier incarnations, so it also becomes the base of
            // this owner's history — otherwise one full send would beget
            // full sends forever.
            self.full_send(cx, lock, binding)
        }
    }

    fn apply_update(
        &mut self,
        cx: &mut DetectCx<'_>,
        lock: usize,
        binding: &mut Binding,
        payload: GrantPayload,
    ) {
        let GrantPayload::Vm {
            updates,
            full,
            incarnation,
            binding: sent,
        } = payload
        else {
            panic!("non-VM grant on VM node");
        };
        let mut applied = vm::VmApply::default();
        for set in full
            .iter()
            .map(|u| &u.set)
            .chain(updates.iter().map(|u| &u.set))
        {
            let a = vm::apply(cx.store, &mut self.pages, set);
            applied.bytes_applied += a.bytes_applied;
            applied.twin_bytes_updated += a.twin_bytes_updated;
        }
        (cx.charge)(
            Category::WriteCollect,
            cx.cost.copy_cycles(applied.bytes_applied as usize, true)
                + cx.cost
                    .copy_cycles(applied.twin_bytes_updated as usize, true),
        );
        cx.counters.twin_bytes_updated += applied.twin_bytes_updated;
        binding.install(sent);
        let st = &mut self.locks[lock];
        st.last_seen = (incarnation, binding.version());
        st.incarnation = incarnation;
        if let Some(full) = full {
            // The full snapshot stands in for the whole history; the Arc
            // it arrived in is shared, not copied.
            st.history.clear();
            st.history.push(full);
        } else {
            st.history.absorb(&updates);
        }
    }

    fn on_rebind(&mut self, lock: usize) {
        // Old updates describe ranges that may no longer be bound; the
        // version bump forces the next transfer to ship full data.
        self.locks[lock].history.clear();
    }

    fn collect_barrier(
        &mut self,
        cx: &mut DetectCx<'_>,
        scan: &Binding,
        _last_consist: u64,
        _partitioned: bool,
    ) -> UpdateSet {
        self.collect(cx, scan)
    }

    fn apply_barrier(&mut self, cx: &mut DetectCx<'_>, items: Unskipped<'_>) {
        let a = vm::apply_items(cx.store, &mut self.pages, items);
        (cx.charge)(
            Category::WriteCollect,
            cx.cost.copy_cycles(a.bytes_applied as usize, true)
                + cx.cost.copy_cycles(a.twin_bytes_updated as usize, true),
        );
        cx.counters.twin_bytes_updated += a.twin_bytes_updated;
    }
}
