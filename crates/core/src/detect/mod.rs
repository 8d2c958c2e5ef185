//! The pluggable write-detection layer.
//!
//! The paper's central claim is that write *detection* is a policy
//! separable from the entry-consistency *protocol* (§3; §5 even sketches
//! a hybrid compiler+VM scheme). This module is that seam: the protocol
//! engine in `node` speaks only [`WriteDetector`], and every detector
//! owns all of its backend-specific state.
//!
//! There are two update protocols, and each detector speaks one of them
//! over one or more trapping mechanisms:
//!
//! ```text
//!   protocol                     mechanism(s)                  detector
//!   RT: timestamped lines        dirtybit templates            RtDetector (rt)
//!       (§3.1–3.2)               + page faults on big regions  RtDetector (hybrid, §5)
//!   VM: per-incarnation diffs    page faults + twins           VmDetector (vm)
//!       (§3.3–3.4)               twin everything, no trap      TwinAllDetector (§3.5)
//!   none (whole bound data)      no trap                       BlastDetector (§3.5)
//! ```
//!
//! The RT protocol's pieces are `rt.rs`'s; the VM protocol's per-lock
//! incarnation bookkeeping is `vm.rs`'s `LockState`, which TwinAll
//! shares.
//!
//! A detector is driven through five moments of the protocol:
//!
//! * [`lend_trap`](WriteDetector::lend_trap) — the trap body for one
//!   region (the paper's §3.1/§3.3 trapping mechanisms), which a store
//!   view runs before every shared store it makes there;
//! * [`seen_token`](WriteDetector::seen_token) — what this processor has
//!   already seen of a lock's data, carried opaquely with acquire
//!   requests;
//! * [`collect_for`](WriteDetector::collect_for) /
//!   [`apply_update`](WriteDetector::apply_update) — write collection at
//!   the owner of record and application at the requester (§3.2/§3.4);
//! * [`collect_barrier`](WriteDetector::collect_barrier) /
//!   [`apply_barrier`](WriteDetector::apply_barrier) — the barrier-bound
//!   variants of the same.
//!
//! Per-line and per-page costs are charged through [`DetectCx`], whose
//! helpers write each Table 2 charge once, so the engine — and the tests
//! — never need to know which primitives a backend consumes.
//!
//! # How to add a backend
//!
//! A new trapping mechanism under an existing protocol is not a new
//! detector: it is a `Mechanism` arm of the RT detector's per-region
//! table (as the §5 hybrid's paging is), or a collection pass feeding
//! `LockState` under the VM protocol (as TwinAll's diff-everything is).
//! A backend that needs a detector of its own:
//!
//! 1. Add a variant to [`BackendKind`] and extend its registry methods
//!    (`label`, `cli_name`, `wire_tag` — the compiler walks you through
//!    every exhaustive match, none of which live in the engine).
//! 2. Implement [`WriteDetector`] in a new submodule here, owning any
//!    per-lock or per-region state the backend needs.
//! 3. Construct it in [`BackendKind::new_detector`].
//! 4. If the backend has Table 3–5 cost formulas, add arms in
//!    [`report`](crate::report).
//!
//! Everything else — harness CLIs, the trace format, the replay sweep —
//! routes through the registry and picks the new backend up for free.

use midway_mem::{
    Addr, DirtyBits, LocalStore, RegionDesc, RegionPages, StoreKind, Template, WriteAccess,
    PAGE_SHIFT, PAGE_SIZE,
};
use midway_proto::rt::RtApply;
use midway_proto::{Binding, LamportClock, PackedSet, SeenToken, UpdateSet, Visible};
use midway_sim::{Category, Pages};
use midway_stats::CostModel;

use crate::config::BackendKind;
use crate::counters::Counters;
use crate::msg::GrantPayload;
use crate::setup::SystemSpec;

mod blast;
mod none;
mod rt;
mod twin_all;
mod vm;

pub(crate) use blast::BlastDetector;
pub(crate) use none::NoneDetector;
pub(crate) use rt::RtDetector;
pub(crate) use twin_all::TwinAllDetector;
pub(crate) use vm::VmDetector;

/// What a detector may touch while servicing a protocol event: the local
/// cache, the immutable system description, the cost model, the Lamport
/// clock, the Table 2 counters, and a cycle-charging sink.
///
/// The engine builds one per event from disjoint borrows of the node, so
/// detectors never see the protocol state (locks, homes, barriers) or the
/// simulator handle.
pub struct DetectCx<'a> {
    /// This processor's local cache of the global address space.
    pub store: &'a mut LocalStore<Pages>,
    /// The shared system description (layout, templates, bindings).
    pub spec: &'a SystemSpec,
    /// Primitive-operation costs (paper Table 1).
    pub cost: CostModel,
    /// This processor's Lamport clock.
    pub clock: &'a mut LamportClock,
    /// The Table 2 counters of this processor.
    pub counters: &'a mut Counters,
    /// Charges virtual cycles to this processor, by category. Invoke as
    /// `(cx.charge)(Category::WriteTrap, cycles)`.
    pub charge: &'a mut dyn FnMut(Category, u64),
}

/// The Table 2 charges, each written once: every helper charges the
/// cycles and bumps the counters of one primitive.
impl DetectCx<'_> {
    /// A dirtybit scan: clean and dirty dirtybits read.
    fn charge_scan(&mut self, (clean_reads, dirty_reads): (u64, u64)) {
        (self.charge)(
            Category::WriteCollect,
            clean_reads * self.cost.dirtybit_read_clean
                + dirty_reads * self.cost.dirtybit_read_dirty,
        );
        self.counters.clean_dirtybits_read += clean_reads;
        self.counters.dirty_dirtybits_read += dirty_reads;
    }

    /// An RT application: dirtybits stamped, bytes written, and the bytes
    /// patched into the twins of paged regions (hybrid only, else 0).
    fn charge_rt_apply(&mut self, res: &RtApply, twin_bytes: u64) {
        (self.charge)(
            Category::WriteCollect,
            res.dirtybits_updated * self.cost.dirtybit_update
                + self.cost.copy_cycles(res.bytes_applied as usize, true)
                + self.cost.copy_cycles(twin_bytes as usize, true),
        );
        self.counters.dirtybits_updated += res.dirtybits_updated;
        self.counters.redundant_bytes_received += res.bytes_redundant;
        self.counters.twin_bytes_updated += twin_bytes;
    }

    /// A VM-protocol (or blast) application: bytes written and bytes
    /// patched into twins.
    fn charge_vm_apply(&mut self, bytes: u64, twin_bytes: u64) {
        (self.charge)(
            Category::WriteCollect,
            self.cost.copy_cycles(bytes as usize, true)
                + self.cost.copy_cycles(twin_bytes as usize, true),
        );
        self.counters.twin_bytes_updated += twin_bytes;
    }

    /// Reads the full bound data for a grant (a full data send), charged
    /// as a cold copy.
    fn full_send(&mut self, binding: &Binding) -> PackedSet {
        let set: PackedSet = midway_proto::vm::snapshot(self.store, binding);
        self.counters.full_data_sends += 1;
        (self.charge)(
            Category::Protocol,
            self.cost.copy_cycles(set.data_bytes() as usize, false),
        );
        set
    }
}

/// A detector's write-trapping body for one region, lent to the store
/// views for as long as they work in that region
/// ([`WriteDetector::lend_trap`]): the region's constants and the slice of
/// detector state its stores touch, resolved once.
pub enum Trap {
    /// Stores are not trapped (blast, twin-all, the standalone build, and
    /// private data under VM-DSM).
    Nothing,
    /// The region's dirtybit template and its dirtybits (§3.1).
    Template(Template, DirtyBits),
    /// A write fault and a twin on the first store to each page (§3.3),
    /// with the region's page-table entries.
    Paging(RegionPages),
}

impl Trap {
    /// Traps a store of `len` bytes at `addr`, *before* the bytes land in
    /// `slab`, the bytes of the region holding `addr`. Counts the store in
    /// `counters` and returns the [`Category::WriteTrap`] cycles it costs.
    #[inline]
    pub fn store(
        &mut self,
        slab: &[u8],
        addr: Addr,
        len: usize,
        cost: &CostModel,
        counters: &mut Counters,
    ) -> u64 {
        match self {
            Trap::Nothing => 0,
            Trap::Template(template, bits) => {
                let hit = template.invoke(bits, addr, StoreKind::of_len(len), cost);
                if hit.misclassified {
                    counters.dirtybits_misclassified += 1;
                } else {
                    counters.dirtybits_set += hit.lines_marked;
                }
                hit.cycles
            }
            Trap::Paging(pages) => {
                // Each still-protected page under the store is twinned
                // straight from the store and made writable.
                let first = addr.page_in_region();
                let last = Addr(addr.raw() + len.max(1) as u64 - 1).page_in_region();
                let mut cycles = 0;
                for page in first..=last {
                    if pages.store_probe(page) == WriteAccess::Fault {
                        let offset = page << PAGE_SHIFT;
                        pages.fault_in(page, &slab[offset..slab.len().min(offset + PAGE_SIZE)]);
                        cycles += cost.page_write_fault;
                        counters.write_faults += 1;
                    }
                }
                cycles
            }
        }
    }
}

/// One write-detection backend: the trapping mechanism, the collection
/// scan, and the bookkeeping that makes updates exactly-once.
///
/// Implementations own every piece of backend-specific state (dirtybit
/// maps, page tables, twins, incarnation histories, per-lock last-seen
/// tokens); the protocol engine holds only bindings and hold state.
pub trait WriteDetector {
    /// Lends out the trap body for stores to `desc`'s region, which runs
    /// *before* each store's bytes land in the local cache. The borrower
    /// hands it back with [`restore_trap`](WriteDetector::restore_trap)
    /// before anything else reaches the detector. The default traps
    /// nothing.
    fn lend_trap(&mut self, spec: &SystemSpec, desc: &RegionDesc) -> Trap {
        let _ = (spec, desc);
        Trap::Nothing
    }

    /// Takes back the trap body [`lend_trap`](WriteDetector::lend_trap)
    /// lent out for `region`.
    fn restore_trap(&mut self, region: usize, trap: Trap) {
        let _ = (region, trap);
    }

    /// The opaque "what I have already seen of this lock's data" token
    /// sent with acquire requests and handed back to
    /// [`collect_for`](WriteDetector::collect_for) at the owner of
    /// record. RT-style backends store (Lamport time, binding version);
    /// VM-style backends store (incarnation, binding version).
    fn seen_token(&self, lock: usize, binding: &Binding) -> SeenToken {
        let _ = (lock, binding);
        (0, 0)
    }

    /// Runs write collection for `lock` as the owner of record, on behalf
    /// of a requester whose last-seen token is `seen`. `binding` is the
    /// owner's current binding of the lock.
    fn collect_for(
        &mut self,
        cx: &mut DetectCx<'_>,
        lock: usize,
        binding: &Binding,
        seen: SeenToken,
    ) -> GrantPayload;

    /// Applies a grant's payload at the requester. The detector installs
    /// the payload's binding into `binding` (the engine's record for the
    /// lock) and advances its own last-seen state.
    ///
    /// # Errors
    ///
    /// A payload of a kind this backend does not speak (possible only
    /// from a forged or foreign grant) is handed back untouched, with
    /// nothing applied, for the engine to report.
    fn apply_update(
        &mut self,
        cx: &mut DetectCx<'_>,
        lock: usize,
        binding: &mut Binding,
        payload: GrantPayload,
    ) -> Result<(), GrantPayload>;

    /// Notifies the detector that `lock` was rebound (its binding version
    /// bumped). Only VM-DSM reacts: old incarnation updates describe
    /// ranges that may no longer be bound.
    fn on_rebind(&mut self, lock: usize) {
        let _ = lock;
    }

    /// Collects this processor's modifications of barrier-bound data.
    /// `scan` is the binding to scan (the processor's partition, if the
    /// barrier is partitioned — `partitioned` says so), and
    /// `last_consist` the engine's consistency time after the previous
    /// episode (used by RT-style backends as the scan's last-seen time).
    fn collect_barrier(
        &mut self,
        cx: &mut DetectCx<'_>,
        scan: &Binding,
        last_consist: u64,
        partitioned: bool,
    ) -> UpdateSet;

    /// Applies the updates received at a barrier release: the items of
    /// the episode's shared merged set that this processor did not
    /// contribute itself, borrowed in place.
    fn apply_barrier(&mut self, cx: &mut DetectCx<'_>, items: Visible<'_>);
}

impl BackendKind {
    /// Constructs the write detector this backend uses — the single
    /// registry point mapping `BackendKind` to behavior.
    pub fn new_detector(self, spec: &SystemSpec) -> Box<dyn WriteDetector> {
        match self {
            BackendKind::None => Box::new(NoneDetector),
            BackendKind::Rt => Box::new(RtDetector::new(spec)),
            BackendKind::Hybrid => Box::new(RtDetector::hybrid(spec)),
            BackendKind::Vm => Box::new(VmDetector::new(spec)),
            BackendKind::Blast => Box::new(BlastDetector),
            BackendKind::TwinAll => Box::new(TwinAllDetector::new(spec)),
        }
    }
}
