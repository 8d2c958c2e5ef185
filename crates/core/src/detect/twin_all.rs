//! TwinAll detector: the §3.5 second alternative — twin everything, diff
//! at every transfer, never fault.

use std::collections::HashMap;
use std::sync::Arc;

use midway_mem::diff::{DiffScratch, PageDiff};
use midway_mem::{Addr, LocalStore, PAGE_SHIFT, PAGE_SIZE};
use midway_proto::{vm, Binding, SeenToken, Unskipped, Update, UpdateItem, UpdateSet};
use midway_sim::Category;

use crate::config::MidwayConfig;
use crate::msg::GrantPayload;
use crate::setup::SystemSpec;

use super::vm::LockState;
use super::{DetectCx, WriteDetector};

/// The twin-everything backend: no write trapping ever runs; collection
/// diffs the bound pages against always-present twins. §3.5: "this
/// approach would still require management of the update incarnations to
/// ensure that a chain of processor updates are correctly propagated" — so
/// TwinAll keeps the same per-lock incarnation history as VM-DSM.
pub struct TwinAllDetector {
    /// Twin of each (region, page) ever collected or updated.
    twins: HashMap<(usize, usize), Box<[u8]>>,
    locks: Vec<LockState>,
    /// The collection pass's buffers, kept from one transfer to the next.
    scratch: DiffScratch,
}

impl TwinAllDetector {
    /// A fresh detector for one processor of `spec`'s system.
    pub fn new(cfg: &MidwayConfig, spec: &SystemSpec) -> TwinAllDetector {
        TwinAllDetector {
            twins: HashMap::new(),
            locks: LockState::fresh(cfg, spec),
            scratch: DiffScratch::default(),
        }
    }

    fn collect(&mut self, cx: &mut DetectCx<'_>, binding: &Binding) -> UpdateSet {
        twin_all_collect(&mut self.twins, &mut self.scratch, cx, binding)
    }
}

impl WriteDetector for TwinAllDetector {
    fn trap_write(&mut self, _cx: &mut DetectCx<'_>, _addr: Addr, _len: usize) {}

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
            let incarnation = self.locks[lock].incarnation;
            // Shared between history and payload — see `VmDetector::full_send`.
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

    fn apply_update(
        &mut self,
        cx: &mut DetectCx<'_>,
        lock: usize,
        binding: &mut Binding,
        payload: GrantPayload,
    ) {
        match payload {
            GrantPayload::Vm {
                updates,
                full,
                incarnation,
                binding: sent,
            } => {
                // TwinAll manages incarnations the same way as VM-DSM
                // (§3.5); incoming bytes are both applied and patched into
                // the always-present twins.
                let mut bytes = 0;
                for set in full
                    .iter()
                    .map(|u| &u.set)
                    .chain(updates.iter().map(|u| &u.set))
                {
                    bytes += twin_all_apply(&mut self.twins, cx.store, cx.spec, &set.items);
                }
                (cx.charge)(
                    Category::WriteCollect,
                    cx.cost.copy_cycles(bytes as usize, true)
                        + cx.cost.copy_cycles(bytes as usize, true),
                );
                cx.counters.twin_bytes_updated += bytes;
                binding.install(sent);
                let st = &mut self.locks[lock];
                st.last_seen = (incarnation, binding.version());
                st.incarnation = incarnation;
                if let Some(full) = full {
                    st.history.clear();
                    st.history.push(full);
                } else {
                    st.history.absorb(&updates);
                }
            }
            GrantPayload::Flat { set, binding: sent } => {
                let bytes = twin_all_apply(&mut self.twins, cx.store, cx.spec, &set.items);
                (cx.charge)(
                    Category::WriteCollect,
                    cx.cost.copy_cycles(bytes as usize, true),
                );
                binding.install(sent);
            }
            _ => panic!("incompatible grant on twin-all node"),
        }
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
        let bytes = twin_all_apply(&mut self.twins, cx.store, cx.spec, items);
        (cx.charge)(
            Category::WriteCollect,
            cx.cost.copy_cycles(bytes as usize, true),
        );
    }
}

fn twin_all_collect(
    twins: &mut HashMap<(usize, usize), Box<[u8]>>,
    DiffScratch { diff, bound }: &mut DiffScratch,
    cx: &mut DetectCx<'_>,
    binding: &Binding,
) -> UpdateSet {
    let mut set = UpdateSet::new();
    for (region_id, page_range) in binding.page_spans(&cx.spec.layout) {
        let desc = cx
            .spec
            .layout
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
                set.push_copy(page_base.raw() + lo as u64, data);
                // Refresh the twin so the next diff is incremental.
                twin[lo..lo + data.len()].copy_from_slice(data);
            }
        }
    }
    set
}

fn twin_all_apply<'a>(
    twins: &mut HashMap<(usize, usize), Box<[u8]>>,
    store: &mut LocalStore,
    spec: &SystemSpec,
    items: impl IntoIterator<Item = &'a UpdateItem>,
) -> u64 {
    let mut bytes = 0;
    for item in items {
        store.write_bytes(Addr(item.addr), &item.data);
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
                spec.layout
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
