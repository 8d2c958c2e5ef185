//! VM-DSM detector: page protection, twins, diffs and per-lock
//! incarnation histories (paper §3.3–§3.4).

use std::sync::Arc;

use midway_mem::{MemClass, PageTable, RegionDesc};
use midway_proto::{vm, Binding, Fill, ItemRef, PackedSet, SeenToken, Update, UpdateSet, Visible};
use midway_sim::Category;

use crate::config::MidwayConfig;
use crate::msg::GrantPayload;
use crate::setup::SystemSpec;

use super::{DetectCx, Trap, WriteDetector};

/// Per-lock state of the VM protocol (VM-DSM and TwinAll): the last-seen
/// token, the current incarnation, and the update history — and the
/// pieces of the protocol built on them, which each detector calls in its
/// own order.
pub(super) struct LockState {
    /// (incarnation, binding version) last seen by this processor.
    pub last_seen: (u64, u64),
    /// Current incarnation (meaningful at the owner of record).
    incarnation: u64,
    /// The update history this processor knows.
    history: vm::LockHistory,
}

impl LockState {
    pub(super) fn fresh(cfg: &MidwayConfig, spec: &SystemSpec) -> Vec<LockState> {
        (0..spec.locks.len())
            .map(|_| LockState {
                last_seen: (0, 0),
                incarnation: 0,
                history: vm::LockHistory::new(cfg.history_cap),
            })
            .collect()
    }

    /// Starts a transfer at the owner of record: a new incarnation.
    pub(super) fn next_incarnation(&mut self) {
        self.incarnation = self.history.newest().unwrap_or(self.incarnation) + 1;
    }

    /// Records `set` as this incarnation's update and grants the requester
    /// the chain it is missing — or the full bound data when the history
    /// cannot serve it (stale binding, pruned chain) or the chain would
    /// outweigh the data.
    pub(super) fn grant(
        &mut self,
        cx: &mut DetectCx<'_>,
        set: PackedSet,
        binding: &Binding,
        seen: SeenToken,
    ) -> GrantPayload {
        self.history.push(Arc::new(Update {
            incarnation: self.incarnation,
            set,
            full: false,
        }));
        let chain = (seen.1 == binding.version())
            .then(|| self.history.since(seen.0))
            .flatten()
            .filter(|us| {
                us.iter().map(|u| u.set.data_bytes()).sum::<u64>() <= binding.data_bytes()
            });
        match chain {
            Some(updates) => GrantPayload::Vm {
                updates,
                full: None,
                incarnation: self.incarnation,
                binding: binding.clone(),
            },
            None => self.full_send(cx, binding),
        }
    }

    /// Grants the full bound data. The snapshot subsumes all earlier
    /// incarnations, so it also becomes the base of this owner's history —
    /// otherwise one full send would beget full sends forever. One `Arc`'d
    /// snapshot is shared between the history and the payload.
    pub(super) fn full_send(&mut self, cx: &mut DetectCx<'_>, binding: &Binding) -> GrantPayload {
        let full = Arc::new(Update {
            incarnation: self.incarnation,
            set: cx.full_send(binding),
            full: true,
        });
        self.history.clear();
        self.history.push(Arc::clone(&full));
        GrantPayload::Vm {
            updates: Vec::new(),
            full: Some(full),
            incarnation: self.incarnation,
            binding: binding.clone(),
        }
    }

    /// Installs an applied grant at the requester: its binding, its
    /// incarnation, and its updates as this processor's known history (a
    /// full snapshot stands in for the whole history; the `Arc`s it
    /// arrived in are shared, not copied).
    pub(super) fn install(
        &mut self,
        binding: &mut Binding,
        sent: Binding,
        incarnation: u64,
        full: Option<Arc<Update>>,
        updates: &[Arc<Update>],
    ) {
        binding.install(sent);
        self.last_seen = (incarnation, binding.version());
        self.incarnation = incarnation;
        if let Some(full) = full {
            self.history.clear();
            self.history.push(full);
        } else {
            self.history.absorb(updates);
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
pub(crate) struct VmDetector {
    pages: PageTable,
    locks: Vec<LockState>,
}

impl VmDetector {
    /// A fresh detector for one processor of `spec`'s system.
    pub(crate) fn new(cfg: &MidwayConfig, spec: &SystemSpec) -> VmDetector {
        VmDetector {
            pages: PageTable::new(Arc::clone(&spec.layout)),
            locks: LockState::fresh(cfg, spec),
        }
    }
}

/// Collects the modifications under `binding` into an update set: a
/// grant's packed set or a barrier's owned one.
fn collect<S: Fill + Default>(
    cx: &mut DetectCx<'_>,
    pages: &mut PageTable,
    binding: &Binding,
) -> S {
    let mut set = S::default();
    collect_charged(cx, pages, binding, |addr, data| set.push(addr, data, 0));
    set
}

impl WriteDetector for VmDetector {
    fn lend_trap(&mut self, _spec: &SystemSpec, desc: &RegionDesc) -> Trap {
        match desc.class {
            MemClass::Private => Trap::Nothing,
            MemClass::Shared => Trap::Paging(self.pages.lend(desc.id)),
        }
    }

    fn restore_trap(&mut self, region: usize, trap: Trap) {
        if let Trap::Paging(pages) = trap {
            self.pages.restore(region, pages);
        }
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
        st.next_incarnation();
        if seen.1 != binding.version() {
            // The requester's binding is stale (the lock was rebound):
            // "the incarnation number is incremented which causes all data
            // bound to the lock to be sent without performing a diff"
            // (paper §4, quicksort).
            return st.full_send(cx, binding);
        }
        let set = collect(cx, &mut self.pages, binding);
        st.grant(cx, set, binding, seen)
    }

    fn apply_update(
        &mut self,
        cx: &mut DetectCx<'_>,
        lock: usize,
        binding: &mut Binding,
        payload: GrantPayload,
    ) -> Result<(), GrantPayload> {
        let GrantPayload::Vm {
            updates,
            full,
            incarnation,
            binding: sent,
        } = payload
        else {
            return Err(payload);
        };
        let items = full.iter().chain(&updates).flat_map(|u| &u.set);
        let applied = vm::apply_items(cx.store, &mut self.pages, items);
        cx.charge_vm_apply(applied.bytes_applied, applied.twin_bytes_updated);
        self.locks[lock].install(binding, sent, incarnation, full, &updates);
        Ok(())
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
        collect(cx, &mut self.pages, scan)
    }

    fn apply_barrier(&mut self, cx: &mut DetectCx<'_>, items: Visible<'_>) {
        let applied = vm::apply_items(cx.store, &mut self.pages, items.map(ItemRef::from));
        cx.charge_vm_apply(applied.bytes_applied, applied.twin_bytes_updated);
    }
}
