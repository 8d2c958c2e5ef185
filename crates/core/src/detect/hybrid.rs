//! Hybrid detector: the paper §5 sketch — "a hybrid implementation that
//! uses virtual memory support to detect writes to large objects, and
//! software dirty bits for small objects".
//!
//! Each region picks its trapping mechanism at startup from the layout:
//! small or private regions run the RT dirtybit templates (cheap per-store,
//! line-granular), large shared regions use VM page twinning (free stores
//! after the first fault per page). Collection *harvests* the VM diffs into
//! the dirtybit map and then runs the ordinary RT timestamp scan, so the
//! wire protocol is exactly RT-DSM's — peers only ever see timestamped
//! update sets, whatever mechanism detected the writes.

use midway_mem::{Addr, MemClass, PageTable, EPOCH, PAGE_SIZE};
use midway_proto::{rt, Binding, SeenToken, Unskipped, UpdateItem, UpdateSet};
use midway_sim::Category;

use crate::msg::GrantPayload;
use crate::setup::SystemSpec;

use super::vm::{collect_charged, fault_in_pages};
use super::{DetectCx, WriteDetector};

/// Shared regions at least this big (four pages) trap through the VM
/// mechanism; everything smaller — and all private data — runs templates.
const PAGING_THRESHOLD: usize = 4 * PAGE_SIZE;

/// The per-region mechanism choice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mechanism {
    /// RT dirtybit template on every store.
    Template,
    /// VM write fault + twin on the first store per page.
    Paging,
}

/// The hybrid RT+VM backend.
pub struct HybridDetector {
    /// Mechanism per region slot (indexed by region id).
    policy: Vec<Mechanism>,
    dirty: rt::DirtyMap,
    pages: PageTable,
    /// Per lock: the logical time as of which this processor's cache of
    /// the lock's data is consistent (RT-style).
    last_seen: Vec<u64>,
}

impl HybridDetector {
    /// A fresh detector; the mechanism choice is made here, per region.
    pub fn new(spec: &SystemSpec) -> HybridDetector {
        let policy = (0..spec.layout.region_slots())
            .map(|id| match spec.layout.region(id) {
                Some(desc) if desc.class == MemClass::Shared && desc.used >= PAGING_THRESHOLD => {
                    Mechanism::Paging
                }
                _ => Mechanism::Template,
            })
            .collect();
        HybridDetector {
            policy,
            dirty: rt::DirtyMap::new(&spec.layout),
            pages: PageTable::new(std::sync::Arc::clone(&spec.layout)),
            last_seen: vec![EPOCH; spec.locks.len()],
        }
    }

    /// Folds the VM-side modifications under `binding` into the dirtybit
    /// map, so the RT timestamp scan that follows sees them. Pages fully
    /// covered by the binding are cleaned (re-protected); the update data
    /// itself is never copied — the RT scan re-reads it from the store.
    fn harvest_paged_writes(&mut self, cx: &mut DetectCx<'_>, binding: &Binding) {
        let (dirty, layout) = (&mut self.dirty, &cx.spec.layout);
        collect_charged(cx, &mut self.pages, binding, |addr, data| {
            rt::mark_write(dirty, layout, Addr(addr), data.len());
        });
    }

    /// Applies RT update items, additionally patching the twins of
    /// locally-dirty VM-mechanism pages so incoming data is not re-diffed
    /// as a local modification. Returns (RT apply result, twin bytes).
    fn apply_set<'a>(
        &mut self,
        cx: &mut DetectCx<'_>,
        items: impl IntoIterator<Item = &'a UpdateItem>,
    ) -> (rt::RtApply, u64) {
        let pages = &mut self.pages;
        let policy = &self.policy;
        let mut twin_bytes = 0u64;
        let res = rt::apply_with(
            cx.store,
            &mut self.dirty,
            &cx.spec.layout,
            items,
            |addr, data| {
                let region = addr.region_index();
                if policy[region] != Mechanism::Paging {
                    return;
                }
                // A run never leaves its region but may cross pages: patch
                // twin by twin.
                let mut pos = 0usize;
                while pos < data.len() {
                    let at = Addr(addr.raw() + pos as u64);
                    let start = at.page_offset();
                    let chunk = (PAGE_SIZE - start).min(data.len() - pos);
                    if let Some(twin) = pages.twin_mut(region, at.page_in_region()) {
                        let end = (start + chunk).min(twin.len());
                        if start < end {
                            twin[start..end].copy_from_slice(&data[pos..pos + (end - start)]);
                            twin_bytes += (end - start) as u64;
                        }
                    }
                    pos += chunk;
                }
            },
        );
        (res, twin_bytes)
    }
}

impl WriteDetector for HybridDetector {
    fn trap_write(&mut self, cx: &mut DetectCx<'_>, addr: Addr, len: usize) {
        let desc = cx.spec.layout.region_of(addr);
        match self.policy[desc.id] {
            Mechanism::Template => {
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
            Mechanism::Paging => {
                fault_in_pages(cx, &mut self.pages, desc, addr, len);
            }
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
        let last_seen = if seen.1 == binding.version() {
            seen.0
        } else {
            EPOCH
        };
        self.harvest_paged_writes(cx, binding);
        let scan = rt::collect(
            cx.store,
            &mut self.dirty,
            &cx.spec.layout,
            binding,
            last_seen,
            now,
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
            panic!("non-RT grant on hybrid node");
        };
        let (res, twin_bytes) = self.apply_set(cx, &set.items);
        (cx.charge)(
            Category::WriteCollect,
            res.dirtybits_updated * cx.cost.dirtybit_update
                + cx.cost.copy_cycles(res.bytes_applied as usize, true)
                + cx.cost.copy_cycles(twin_bytes as usize, true),
        );
        cx.counters.dirtybits_updated += res.dirtybits_updated;
        cx.counters.redundant_bytes_received += res.bytes_redundant;
        cx.counters.twin_bytes_updated += twin_bytes;
        self.last_seen[lock] = consist_time;
        binding.install(sent);
        cx.clock.observe(consist_time);
    }

    fn collect_barrier(
        &mut self,
        cx: &mut DetectCx<'_>,
        scan: &Binding,
        last_consist: u64,
        _partitioned: bool,
    ) -> UpdateSet {
        let now = cx.clock.tick();
        self.harvest_paged_writes(cx, scan);
        let res = rt::collect(
            cx.store,
            &mut self.dirty,
            &cx.spec.layout,
            scan,
            last_consist,
            now,
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
        let (res, twin_bytes) = self.apply_set(cx, items);
        (cx.charge)(
            Category::WriteCollect,
            res.dirtybits_updated * cx.cost.dirtybit_update
                + cx.cost.copy_cycles(res.bytes_applied as usize, true)
                + cx.cost.copy_cycles(twin_bytes as usize, true),
        );
        cx.counters.dirtybits_updated += res.dirtybits_updated;
        cx.counters.redundant_bytes_received += res.bytes_redundant;
        cx.counters.twin_bytes_updated += twin_bytes;
    }
}
