//! Property test for the [`WriteDetector`] seam: for every data backend,
//! a random store sequence trapped on one detector, collected with
//! `collect_for`, and applied on a peer with `apply_update` must
//! reproduce the source's bound bytes exactly — driven entirely through
//! `Box<dyn WriteDetector>`, exactly as the protocol engine drives it.
//!
//! Ownership ping-pongs between the two nodes for several rounds, so the
//! exactly-once machinery (RT last-seen times, VM incarnation chains,
//! twin refreshes) is exercised, not just the first full transfer. Every
//! third round the owner rebinds the lock first, so the requester arrives
//! with a stale binding: RT and the hybrid scan from the epoch, VM-DSM
//! full-sends without diffing, TwinAll diffs and then full-sends.

use std::sync::Arc;

use midway_core::{
    BackendKind, Counters, DetectCx, GrantPayload, MidwayConfig, SystemBuilder, SystemSpec,
    WriteDetector,
};
use midway_mem::{Addr, LocalStore};
use midway_proto::{Binding, LamportClock};
use midway_sim::{Category, Pages, SplitMix64};

/// One processor's detector-facing state, as the engine would hold it.
struct Node {
    store: LocalStore<Pages>,
    clock: LamportClock,
    counters: Counters,
    binding: Binding,
    det: Box<dyn WriteDetector>,
}

impl Node {
    fn new(backend: BackendKind, spec: &Arc<SystemSpec>, ranges: &Binding) -> Node {
        Node {
            store: LocalStore::with_slabs(spec.layout().clone(), Pages::zeroed),
            clock: LamportClock::new(),
            counters: Counters::default(),
            binding: ranges.clone(),
            det: backend.new_detector(spec),
        }
    }

    /// Runs `f` under a [`DetectCx`] built the way the engine builds one
    /// (cycle charges discarded — costs are the simulator's concern).
    fn with_cx<R>(
        &mut self,
        cfg: &MidwayConfig,
        spec: &SystemSpec,
        f: impl FnOnce(&mut dyn WriteDetector, &mut DetectCx<'_>, &mut Binding) -> R,
    ) -> R {
        let mut charge = |_: Category, _: u64| {};
        let mut cx = DetectCx {
            store: &mut self.store,
            spec,
            cost: cfg.cost,
            clock: &mut self.clock,
            counters: &mut self.counters,
            charge: &mut charge,
        };
        f(&mut *self.det, &mut cx, &mut self.binding)
    }

    /// The bytes of every bound range, concatenated.
    fn bound_bytes(&mut self) -> Vec<u8> {
        let ranges: Vec<_> = self.binding.ranges().to_vec();
        let mut out = Vec::new();
        for r in ranges {
            out.extend_from_slice(self.store.bytes(Addr(r.start), (r.end - r.start) as usize));
        }
        out
    }
}

/// A layout that exercises every mechanism at once: a doubleword-line
/// array below the hybrid paging threshold and a multi-page array above
/// it (so the hybrid detector runs templates on one and twins on the
/// other in the same transfer). Returns the two bindings the lock
/// alternates between when rebound (the first is its initial one).
fn build_spec() -> (Arc<SystemSpec>, [Binding; 2]) {
    let mut b = SystemBuilder::new();
    let small = b.shared_array::<f64>("small", 64, 1);
    let big = b.shared_array::<u64>("big", 4096, 4); // 32 KB: paged under hybrid
    b.lock(vec![small.full_range(), big.range(0..1024)]);
    let spec = b.build();
    let shapes = [
        Binding::new(vec![small.full_range(), big.range(0..1024)]),
        Binding::new(vec![small.range(8..40), big.range(600..3000)]),
    ];
    (spec, shapes)
}

/// Every `(addr, len)` a random store under `binding` may pick: whole
/// elements of the bound slices, so stores stay aligned and inside cache
/// lines.
fn slots(binding: &Binding) -> Vec<(Addr, usize)> {
    let words = |r: &std::ops::Range<u64>| (r.start..r.end).step_by(8).map(|a| (Addr(a), 8));
    binding.ranges().iter().flat_map(words).collect()
}

fn roundtrip(backend: BackendKind, seed: u64) {
    let cfg = MidwayConfig::new(2, backend);
    let (spec, shapes) = build_spec();
    let mut rng = SplitMix64::new(seed);
    let mut a = Node::new(backend, &spec, &shapes[0]);
    let mut b = Node::new(backend, &spec, &shapes[0]);

    for round in 0..9 {
        let (owner, requester) = if round % 2 == 0 {
            (&mut a, &mut b)
        } else {
            (&mut b, &mut a)
        };
        let rebind = round % 3 == 2;
        if rebind {
            // The owner holds the lock exclusively: it rebinds exactly as
            // the engine does, binding first, then the detector.
            let next = &shapes[(round / 3 + 1) % 2];
            owner.binding.rebind(next.ranges().to_vec());
            owner.det.on_rebind(0);
        }
        let before = owner.counters;
        // The owner stores a random batch through the trap body its
        // detector lends, exactly as a store view does: trap first, then
        // the bytes land.
        let slots = slots(&owner.binding);
        let stores = 1 + rng.next_below(40) as usize;
        for _ in 0..stores {
            let (addr, len) = slots[rng.next_below(slots.len() as u64) as usize];
            let val = rng.next_u64();
            let desc = spec.layout().region_of(addr);
            let mut trap = owner.det.lend_trap(&spec, desc);
            let slab = owner.store.region_mut(desc.id);
            trap.store(slab, addr, len, &cfg.cost, &mut owner.counters);
            owner.det.restore_trap(desc.id, trap);
            owner.store.write_bytes(addr, &val.to_le_bytes());
        }
        // Requester acquires: its token travels to the owner, which
        // collects on its behalf; the grant comes back and is applied.
        let seen = requester.det.seen_token(0, &requester.binding);
        let payload = owner.with_cx(&cfg, &spec, |det, cx, binding| {
            det.collect_for(cx, 0, binding, seen)
        });
        assert!(
            !matches!(payload, GrantPayload::Current),
            "data backends always ship a payload"
        );
        requester
            .with_cx(&cfg, &spec, |det, cx, binding| {
                det.apply_update(cx, 0, binding, payload)
            })
            .expect("a grant from the same backend applies");
        assert_eq!(
            a.bound_bytes(),
            b.bound_bytes(),
            "{backend:?} seed {seed:#x} round {round}: bound bytes diverge after transfer"
        );
        let owner = if round % 2 == 0 { &a } else { &b };
        let full = owner.counters.full_data_sends - before.full_data_sends;
        let diffed = owner.counters.pages_diffed - before.pages_diffed;
        match backend {
            // A stale requester gets the full data, VM-DSM without a diff,
            // TwinAll after one.
            BackendKind::Vm if rebind => assert_eq!((full, diffed), (1, 0), "round {round}"),
            BackendKind::TwinAll if rebind => {
                assert!(full == 1 && diffed > 0, "round {round}")
            }
            _ => {}
        }
    }
}
#[test]
fn every_data_backend_roundtrips_random_stores() {
    for backend in BackendKind::DATA {
        for case in 0..8u64 {
            roundtrip(backend, 0xde7ec7 ^ (case << 8));
        }
    }
}
