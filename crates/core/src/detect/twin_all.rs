//! TwinAll detector: the §3.5 second alternative — twin everything, diff
//! at every transfer, never fault.

use std::collections::HashMap;

use midway_mem::diff::{DiffScratch, PageDiff};
use midway_mem::{Addr, LocalStore, PAGE_SHIFT, PAGE_SIZE};
use midway_proto::{Binding, Fill, ItemRef, SeenToken, UpdateSet, Visible};
use midway_sim::Category;
use midway_sim::Pages;

use crate::msg::GrantPayload;
use crate::setup::SystemSpec;

use super::vm::LockState;
use super::{DetectCx, WriteDetector};

/// The twin-everything backend: no write trapping ever runs; collection
/// diffs the bound pages against always-present twins. §3.5: "this
/// approach would still require management of the update incarnations to
/// ensure that a chain of processor updates are correctly propagated" — so
/// TwinAll keeps the same per-lock incarnation history as VM-DSM.
pub(crate) struct TwinAllDetector {
    /// Twin of each (region, page) ever collected or updated.
    twins: HashMap<(usize, usize), Box<[u8]>>,
    locks: Vec<LockState>,
    /// The collection pass's buffers, kept from one transfer to the next.
    scratch: DiffScratch,
}

impl TwinAllDetector {
    /// A fresh detector for one processor of `spec`'s system.
    pub(crate) fn new(spec: &SystemSpec) -> TwinAllDetector {
        TwinAllDetector {
            twins: HashMap::new(),
            locks: LockState::fresh(spec),
            scratch: DiffScratch::default(),
        }
    }
}

impl WriteDetector for TwinAllDetector {
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
        // Collect, then decide: a stale requester's full send comes out of
        // `grant`, after the diff has refreshed the twins and entered the
        // history (VM-DSM decides first and skips the diff).
        let st = &mut self.locks[lock];
        st.next_incarnation();
        let set = twin_all_collect(&mut self.twins, &mut self.scratch, cx, binding);
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
        // Incoming bytes are both applied and patched into the
        // always-present twins.
        let items = full.iter().chain(&updates).flat_map(|u| &u.set);
        let bytes = twin_all_apply(&mut self.twins, cx.store, cx.spec, items);
        cx.charge_vm_apply(bytes, bytes);
        self.locks[lock].install(binding, sent, incarnation, full, &updates);
        Ok(())
    }

    fn collect_barrier(
        &mut self,
        cx: &mut DetectCx<'_>,
        scan: &Binding,
        _last_consist: u64,
        _partitioned: bool,
    ) -> UpdateSet {
        twin_all_collect(&mut self.twins, &mut self.scratch, cx, scan)
    }

    fn apply_barrier(&mut self, cx: &mut DetectCx<'_>, items: Visible<'_>) {
        // Charged as the bytes written only, with no twin bytes counted —
        // unlike a grant (results/ablation_protocols.txt pins this).
        let items = items.map(ItemRef::from);
        let bytes = twin_all_apply(&mut self.twins, cx.store, cx.spec, items);
        cx.charge_vm_apply(bytes, 0);
    }
}

fn twin_all_collect<S: Fill + Default>(
    twins: &mut HashMap<(usize, usize), Box<[u8]>>,
    DiffScratch { diff, bound }: &mut DiffScratch,
    cx: &mut DetectCx<'_>,
    binding: &Binding,
) -> S {
    let mut set = S::default();
    for (region_id, page_range) in binding.page_spans(cx.spec.layout()) {
        let desc = cx
            .spec
            .layout()
            .region(region_id)
            .expect("bound region exists");
        for page in page_range {
            let offset = page << PAGE_SHIFT;
            let len = PAGE_SIZE.min(desc.used - offset);
            let page_base = desc.base() + offset as u64;
            let current = cx.store.bytes(page_base, len);
            let charge = &mut *cx.charge;
            let cost = cx.cost;
            let twin = twins.entry((region_id, page)).or_insert_with(|| {
                // §3.5: the twin logically exists from the moment the data
                // does; materialize it as the page's initial (zero) state
                // so local writes made before the first transfer are seen.
                charge(Category::WriteCollect, cost.copy_cycles(len, false));
                vec![0u8; len].into_boxed_slice()
            });
            PageDiff::compute_into(diff, current, twin);
            (cx.charge)(
                Category::WriteCollect,
                cx.cost.page_diff_cycles(diff.run_count(), len / 4),
            );
            cx.counters.pages_diffed += 1;
            binding.ranges_in_page(region_id, page, bound);
            for (lo, data) in diff.restricted(bound) {
                set.push(page_base.raw() + lo as u64, data, 0);
                // Refresh the twin so the next diff is incremental.
                twin[lo..lo + data.len()].copy_from_slice(data);
            }
        }
    }
    set
}

fn twin_all_apply<'a>(
    twins: &mut HashMap<(usize, usize), Box<[u8]>>,
    store: &mut LocalStore<Pages>,
    spec: &SystemSpec,
    items: impl IntoIterator<Item = ItemRef<'a>>,
) -> u64 {
    let mut bytes = 0;
    for item in items {
        store.write_bytes(Addr(item.addr), item.data);
        bytes += item.data.len() as u64;
        // Patch twins so incoming data is not re-shipped as a local change
        // (creating the zero-state twin if the page has none yet).
        let mut pos = 0usize;
        while pos < item.data.len() {
            let addr = Addr(item.addr + pos as u64);
            let region = addr.region_index();
            let page = addr.page_in_region();
            let in_page = PAGE_SIZE - addr.page_offset();
            let chunk = in_page.min(item.data.len() - pos);
            let plen = PAGE_SIZE.min(
                spec.layout()
                    .region(region)
                    .expect("update region exists")
                    .used
                    - (page << PAGE_SHIFT),
            );
            let twin = twins
                .entry((region, page))
                .or_insert_with(|| vec![0u8; plen].into_boxed_slice());
            let start = addr.page_offset();
            let end = (start + chunk).min(twin.len());
            if start < end {
                twin[start..end].copy_from_slice(&item.data[pos..pos + (end - start)]);
            }
            pos += chunk;
        }
    }
    bytes
}
