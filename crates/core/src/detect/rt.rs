//! The RT protocol's detector: compiler/runtime dirtybit templates (paper
//! §3.1–§3.2) and, for the §5 hybrid, page faults on large regions.
//!
//! The hybrid is "virtual memory support to detect writes to large
//! objects, and software dirty bits for small objects" speaking the RT
//! protocol. Each region picks its trapping [`Mechanism`] at startup from
//! the layout: small or private regions run the templates (cheap per
//! store, line-granular), large shared regions fault and twin pages (free
//! stores after the first fault per page). Collection *harvests* the page
//! diffs into the dirtybit map and then runs the ordinary timestamp scan,
//! so peers only ever see timestamped update sets, whatever mechanism
//! detected the writes. Plain RT has no paged part and no page table.

use midway_mem::{Addr, MemClass, PageTable, RegionDesc, EPOCH, PAGE_SIZE};
use midway_proto::{rt, Binding, Fill, ItemRef, SeenToken, UpdateSet, Visible};

use crate::msg::GrantPayload;
use crate::setup::SystemSpec;

use super::vm::collect_charged;
use super::{DetectCx, Trap, WriteDetector};

/// Shared regions at least this big (four pages) trap through page faults
/// under the hybrid; everything smaller — and all private data — runs
/// templates.
const PAGING_THRESHOLD: usize = 4 * PAGE_SIZE;

/// How a region's stores are trapped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mechanism {
    /// The RT dirtybit template on every store.
    Template,
    /// A write fault + twin on the first store per page.
    Paging,
}

/// The hybrid's paged-region part: the per-region mechanism table and the
/// page table its paged regions fault into.
struct Paged {
    /// Mechanism per region slot (indexed by region id).
    policy: Vec<Mechanism>,
    pages: PageTable,
}

impl Paged {
    fn new(spec: &SystemSpec) -> Paged {
        let policy = (0..spec.layout.region_slots())
            .map(|id| match spec.layout.region(id) {
                Some(desc) if desc.class == MemClass::Shared && desc.used >= PAGING_THRESHOLD => {
                    Mechanism::Paging
                }
                _ => Mechanism::Template,
            })
            .collect();
        Paged {
            policy,
            pages: PageTable::new(std::sync::Arc::clone(&spec.layout)),
        }
    }

    /// Patches applied bytes into the twins of locally-dirty paged pages,
    /// so incoming data is not re-diffed as a local modification. Returns
    /// the bytes patched.
    fn patch_twins(&mut self, addr: Addr, data: &[u8]) -> u64 {
        let region = addr.region_index();
        if self.policy[region] != Mechanism::Paging {
            return 0;
        }
        // A run never leaves its region but may cross pages: patch twin by
        // twin.
        let (mut pos, mut patched) = (0usize, 0u64);
        while pos < data.len() {
            let at = Addr(addr.raw() + pos as u64);
            let start = at.page_offset();
            let chunk = (PAGE_SIZE - start).min(data.len() - pos);
            if let Some(twin) = self.pages.twin_mut(region, at.page_in_region()) {
                let end = (start + chunk).min(twin.len());
                if start < end {
                    twin[start..end].copy_from_slice(&data[pos..pos + (end - start)]);
                    patched += (end - start) as u64;
                }
            }
            pos += chunk;
        }
        patched
    }
}

/// The RT-protocol backend: stores run dirtybit-setting templates (or, in
/// paged regions of the hybrid, fault in twins), collection scans
/// timestamped dirtybits, application is exactly-once.
pub(crate) struct RtDetector {
    dirty: rt::DirtyMap,
    /// Per lock: the logical time as of which this processor's cache of the
    /// lock's data is consistent.
    last_seen: Vec<u64>,
    /// The hybrid's paged regions; `None` for plain RT.
    paged: Option<Paged>,
}

impl RtDetector {
    /// A fresh RT-DSM detector for one processor of `spec`'s system.
    pub(crate) fn new(spec: &SystemSpec) -> RtDetector {
        RtDetector {
            dirty: rt::DirtyMap::new(&spec.layout),
            last_seen: vec![EPOCH; spec.locks.len()],
            paged: None,
        }
    }

    /// A fresh hybrid detector: the mechanism choice is made here, per
    /// region.
    pub(crate) fn hybrid(spec: &SystemSpec) -> RtDetector {
        RtDetector {
            paged: Some(Paged::new(spec)),
            ..RtDetector::new(spec)
        }
    }

    /// Scans `binding` for a requester last consistent at `last_seen`,
    /// stamping fresh modifications with `now`. Paged modifications are
    /// first folded into the dirtybit map (the pages fully covered by the
    /// binding are cleaned); their data is never copied — the scan re-reads
    /// it from the store.
    fn collect<S: Fill + Default>(
        &mut self,
        cx: &mut DetectCx<'_>,
        binding: &Binding,
        last_seen: u64,
        now: u64,
    ) -> S {
        if let Some(paged) = &mut self.paged {
            let (dirty, layout) = (&mut self.dirty, &cx.spec.layout);
            collect_charged(cx, &mut paged.pages, binding, |addr, data| {
                rt::mark_write(dirty, layout, Addr(addr), data.len());
            });
        }
        let mut set = S::default();
        let reads = rt::collect_with(
            cx.store,
            &mut self.dirty,
            &cx.spec.layout,
            binding,
            last_seen,
            now,
            &mut set,
        );
        cx.charge_scan(reads);
        set
    }

    /// Applies update items, patching paged twins when there are any.
    fn apply<'a>(&mut self, cx: &mut DetectCx<'_>, items: impl IntoIterator<Item = ItemRef<'a>>) {
        let (paged, mut twin_bytes) = (&mut self.paged, 0);
        let res = rt::apply_with(
            cx.store,
            &mut self.dirty,
            &cx.spec.layout,
            items,
            |addr, data| {
                if let Some(paged) = paged {
                    twin_bytes += paged.patch_twins(addr, data);
                }
            },
        );
        cx.charge_rt_apply(&res, twin_bytes);
    }
}

impl WriteDetector for RtDetector {
    fn lend_trap(&mut self, spec: &SystemSpec, desc: &RegionDesc) -> Trap {
        if let Some(paged) = &mut self.paged {
            if paged.policy[desc.id] == Mechanism::Paging {
                return Trap::Paging(paged.pages.lend(desc.id));
            }
        }
        let template = spec.templates[desc.id].expect("allocated region has template");
        Trap::Template(template, self.dirty.lend(&spec.layout, desc.id))
    }

    fn restore_trap(&mut self, region: usize, trap: Trap) {
        match trap {
            Trap::Nothing => {}
            Trap::Template(_, bits) => self.dirty.restore(region, bits),
            Trap::Paging(pages) => {
                let paged = self.paged.as_mut().expect("only the hybrid lends pages");
                paged.pages.restore(region, pages);
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
        // A requester with a stale binding has never seen the rebound
        // ranges: scan from the epoch — its per-line timestamps still
        // filter duplicates on application.
        let last_seen = if seen.1 == binding.version() {
            seen.0
        } else {
            EPOCH
        };
        GrantPayload::Rt {
            set: self.collect(cx, binding, last_seen, now),
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
    ) -> Result<(), GrantPayload> {
        let GrantPayload::Rt {
            set,
            consist_time,
            binding: sent,
        } = payload
        else {
            return Err(payload);
        };
        self.apply(cx, &set);
        self.last_seen[lock] = consist_time;
        binding.install(sent);
        cx.clock.observe(consist_time);
        Ok(())
    }

    fn collect_barrier(
        &mut self,
        cx: &mut DetectCx<'_>,
        scan: &Binding,
        last_consist: u64,
        _partitioned: bool,
    ) -> UpdateSet {
        let now = cx.clock.tick();
        self.collect(cx, scan, last_consist, now)
    }

    fn apply_barrier(&mut self, cx: &mut DetectCx<'_>, items: Visible<'_>) {
        self.apply(cx, items.map(ItemRef::from));
    }
}
