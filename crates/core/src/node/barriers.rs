//! The barrier path: collection on arrival, merging (flat manager or
//! combining tree), and application on release.
//!
//! Two coordination shapes share this module (see
//! [`BarrierShape`](crate::BarrierShape)):
//!
//! * **Flat** — every processor ships its updates to the manager, which
//!   merges P arrivals and sends each processor a release. The historical
//!   protocol.
//! * **Tree** — processors form a combining tree rooted at the manager:
//!   subtree contributions merge upward and the fully merged set fans
//!   downward. No node handles more than `arity` barrier messages per
//!   episode.
//!
//! Either way an episode's releases all share one merged set
//! ([`MaskedSet`]): contributions move into the merge, only their
//! *addresses* are kept, and each receiver applies the shared set in place
//! while skipping the addresses it contributed itself. The flat manager
//! attaches the receiver's skip list to the message (so the release is
//! sized, charged and — on a real wire — encoded as the personalized set
//! it stands for); a tree node takes the skip list from its own site.
//! "Merged minus own" is never copied per processor.

use std::sync::Arc;

use midway_net::Transport;
use midway_proto::{BarrierId, MaskedSet, TreeStep, UpdateSet};
use midway_sim::Category;

use crate::detect::DetectCx;
use crate::msg::{DsmMsg, NetMsg};

use super::{with_detector, BarrierCoord, DsmNode};

impl DsmNode {
    /// Crosses `barrier`: ships local modifications of the bound data,
    /// waits for everyone, applies everyone else's.
    pub(crate) fn barrier<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, barrier: BarrierId) {
        let idx = barrier.0 as usize;
        self.clock.tick();
        let set = self.collect_barrier(h, idx);
        let time = self.clock.now();
        match self.sites[idx] {
            BarrierCoord::Flat(_) => {
                let bytes = set.data_bytes();
                self.counters.data_bytes_sent += bytes;
                let mgr = self.cfg.home_map.barrier_manager(barrier, self.procs);
                if mgr == self.me {
                    self.handle_barrier_arrive(h, barrier, self.me, set, time);
                } else {
                    // Packet construction for the shipped data.
                    h.charge(
                        Category::Protocol,
                        self.cfg.cost.copy_cycles(bytes as usize, true),
                    );
                    self.link
                        .send(h, mgr, DsmMsg::BarrierArrive { barrier, set, time });
                }
            }
            BarrierCoord::Tree(ref mut site) => {
                let step = match site.arrive_own(set) {
                    Ok(step) => step,
                    Err(e) => {
                        h.protocol_violation(format!("{barrier:?} at tree node {}: {e}", self.me))
                    }
                };
                self.tree_step(h, barrier, step);
            }
        }
        self.pump_until(h, |n| n.barriers[idx].released);
        self.barriers[idx].released = false;
        self.counters.barrier_waits += 1;
        // A completed barrier is a synchronization boundary and therefore
        // a checkpointing point.
        self.checkpoint_boundary(h);
    }

    fn collect_barrier<T: Transport<Msg = NetMsg>>(&mut self, h: &mut T, idx: usize) -> UpdateSet {
        // With a partitioned binding each processor scans only the ranges
        // it may have written — the discipline the paper's applications
        // follow ("only data at the edges of each partition are shared").
        let b = &self.barriers[idx];
        let partitioned = b.partition.is_some();
        let scan = b.partition.clone().unwrap_or_else(|| b.binding.clone());
        if scan.ranges().is_empty() {
            return UpdateSet::new();
        }
        let last_consist = b.last_consist;
        let set = with_detector!(self, h, |det, cx| det.collect_barrier(
            &mut cx,
            &scan,
            last_consist,
            partitioned
        ));
        // Not needed for correctness here (merge and masking both cope with
        // any order) but what keeps them on their linear paths; a peer's
        // decoder refuses a set out of address order.
        debug_assert!(
            set.items.windows(2).all(|w| w[0].addr < w[1].addr),
            "{:?} collected a barrier set that is not strictly address-sorted",
            self.cfg.backend
        );
        set
    }

    pub(super) fn handle_barrier_arrive<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        barrier: BarrierId,
        from: usize,
        set: UpdateSet,
        time: u64,
    ) {
        self.clock.observe(time);
        match self.sites[barrier.0 as usize] {
            BarrierCoord::Flat(None) => h.protocol_violation(format!(
                "arrival at {barrier:?} from processor {from} routed to processor {}, \
                 which is not the barrier's manager",
                self.me
            )),
            BarrierCoord::Flat(Some(ref mut site)) => {
                let release = match site.arrive(from, set) {
                    Ok(release) => release,
                    Err(e) => {
                        h.protocol_violation(format!("{barrier:?} at manager {}: {e}", self.me))
                    }
                };
                if let Some(release) = release {
                    let now = self.clock.tick();
                    let merged = MaskedSet::whole(Arc::new(release.merged));
                    let mut own = None;
                    for (q, skip) in release.own_addrs.iter().enumerate() {
                        let set = merged.with_skip(skip);
                        if q == self.me {
                            own = Some(set);
                        } else {
                            let bytes = set.data_bytes();
                            self.counters.data_bytes_sent += bytes;
                            h.charge(
                                Category::Protocol,
                                self.cfg.cost.copy_cycles(bytes as usize, true),
                            );
                            let msg = DsmMsg::BarrierRelease {
                                barrier,
                                set,
                                time: now,
                            };
                            self.link.send(h, q, msg);
                        }
                    }
                    let own = own.expect("the manager is one of the barrier's processors");
                    self.finish_barrier(h, barrier, &own, now);
                }
            }
            BarrierCoord::Tree(ref mut site) => {
                let step = match site.arrive_child(from, set) {
                    Ok(step) => step,
                    Err(e) => {
                        h.protocol_violation(format!("{barrier:?} at tree node {}: {e}", self.me))
                    }
                };
                self.tree_step(h, barrier, step);
            }
        }
    }

    /// Acts on a combining-tree site's instruction after an arrival.
    fn tree_step<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        barrier: BarrierId,
        step: TreeStep,
    ) {
        match step {
            TreeStep::Wait => {}
            TreeStep::SendUp { parent, set } => {
                let bytes = set.data_bytes();
                self.counters.data_bytes_sent += bytes;
                h.charge(
                    Category::Protocol,
                    self.cfg.cost.copy_cycles(bytes as usize, true),
                );
                let time = self.clock.now();
                self.link
                    .send(h, parent, DsmMsg::BarrierArrive { barrier, set, time });
            }
            TreeStep::Release { merged } => {
                // The root: the whole cluster has arrived; start the
                // fan-down with the fully merged set.
                let now = self.clock.tick();
                self.tree_fan_down(h, barrier, MaskedSet::whole(Arc::new(merged)), now);
            }
        }
    }

    /// One hop of the release fan-down: advance this node's site, forward
    /// the merged set to its children, and apply it minus this node's own
    /// addresses.
    fn tree_fan_down<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        barrier: BarrierId,
        set: MaskedSet,
        time: u64,
    ) {
        let BarrierCoord::Tree(ref mut site) = self.sites[barrier.0 as usize] else {
            h.protocol_violation(format!(
                "tree release for {barrier:?} reached processor {}, whose barrier is flat",
                self.me
            ));
        };
        let (children, own_addrs) = site.release();
        // Every child gets the same set: one size, one charge, reused.
        let bytes = set.data_bytes();
        let cycles = self.cfg.cost.copy_cycles(bytes as usize, true);
        for child in children {
            self.counters.data_bytes_sent += bytes;
            h.charge(Category::Protocol, cycles);
            let msg = DsmMsg::BarrierRelease {
                barrier,
                set: set.clone(),
                time,
            };
            self.link.send(h, child, msg);
        }
        self.finish_barrier(h, barrier, &set.with_skip(&own_addrs), time);
    }

    pub(super) fn handle_barrier_release<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        barrier: BarrierId,
        set: MaskedSet,
        time: u64,
    ) {
        match self.sites[barrier.0 as usize] {
            BarrierCoord::Flat(_) => self.finish_barrier(h, barrier, &set, time),
            BarrierCoord::Tree(_) => {
                // Keep release times monotone down the tree: observe the
                // parent's stamp, restamp with this node's clock, forward.
                self.clock.observe(time);
                let now = self.clock.tick();
                self.tree_fan_down(h, barrier, set, now);
            }
        }
    }

    /// Applies a release's visible items — in place, out of the set every
    /// receiver of the episode shares — and completes the episode.
    pub(super) fn finish_barrier<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        barrier: BarrierId,
        set: &MaskedSet,
        time: u64,
    ) {
        let idx = barrier.0 as usize;
        self.counters.data_bytes_received += set.data_bytes();
        with_detector!(self, h, |det, cx| det.apply_barrier(&mut cx, set.iter()));
        if self.recovery.is_some() {
            // Post-images of everything the detector just applied, read
            // back from the store so replay reproduces exactly what memory
            // holds.
            for item in set.iter() {
                self.wal_write(h, midway_mem::Addr(item.addr), item.data.len());
            }
        }
        let node = &mut self.barriers[idx];
        node.episode += 1;
        node.released = true;
        self.clock.observe(time);
        node.last_consist = self.clock.now();
        self.wal_barrier(h, idx);
    }
}

#[cfg(test)]
mod tests {
    use midway_proto::UpdateSet;
    use midway_sim::RunError;

    use crate::api::Proc;
    use crate::config::{BackendKind, MidwayConfig};
    use crate::fingerprint::fingerprint;
    use crate::msg::DsmMsg;
    use crate::run::{Midway, MidwayRun};
    use crate::setup::SystemBuilder;

    /// A barrier-phased program over a partitioned barrier: each
    /// processor owns a chunk of a doubleword-line array (every other
    /// element written, so lines never coalesce into one item) and of a
    /// 64-byte-line array (a contiguous run, so they do), and reads its
    /// neighbours' chunks between barriers.
    fn run_partitioned(cfg: MidwayConfig) -> MidwayRun<u64> {
        const CHUNK: usize = 128;
        let procs = cfg.procs;
        let mut b = SystemBuilder::new();
        let fine = b.shared_array::<u64>("fine", procs * CHUNK, 1);
        let wide = b.shared_array::<u64>("wide", procs * CHUNK, 8);
        let parts = (0..procs)
            .map(|p| {
                let chunk = p * CHUNK..(p + 1) * CHUNK;
                vec![fine.range(chunk.clone()), wide.range(chunk)]
            })
            .collect();
        let bar = b.barrier_partitioned(vec![fine.full_range(), wide.full_range()], parts);
        let spec = b.build();
        Midway::run(cfg, &spec, |p: &mut Proc| {
            let me = p.id();
            let (left, right) = ((me + procs - 1) % procs, (me + 1) % procs);
            let mut acc = 0u64;
            for it in 1..=3u64 {
                for i in (it as usize % 2..CHUNK).step_by(2) {
                    p.write(&fine, me * CHUNK + i, (me as u64 + 1) * it + i as u64);
                }
                for i in 0..24 {
                    p.write(&wide, me * CHUNK + 8 * it as usize + i, it ^ i as u64);
                }
                p.barrier(bar);
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(p.read(&fine, left * CHUNK + it as usize))
                    .wrapping_add(p.read(&fine, right * CHUNK + CHUNK - 1 - it as usize % 2))
                    .wrapping_add(p.read(&wide, left * CHUNK + 8 * it as usize + 3));
                p.barrier(bar);
            }
            acc
        })
        .expect("partitioned-barrier run completes")
    }

    /// The release path shares one merged set and skips own addresses in
    /// place; virtual time, every counter and final memory must be what
    /// the per-processor materialized sets gave. The values were recorded
    /// by this same test at the commit before the change (8e7ced2).
    #[test]
    fn barrier_fingerprints_match_the_materializing_release() {
        use BackendKind::*;
        let flat = |b| MidwayConfig::new(8, b);
        let tree = |b| MidwayConfig::new(64, b).tree_barriers(4);
        // The two "logged" cells turn the write-ahead log on: it walks the
        // applied items a second time.
        #[rustfmt::skip]
        let cells: [(&str, MidwayConfig, [u64; 5]); 14] = [
            ("none flat 1p", MidwayConfig::standalone(),
             [0x0, 0x0, 0x90e9ae28f3d01c05, 0xce45a120aa45c2c3, 0xd633aa5b278df3a6]),
            ("none tree 1p", MidwayConfig::standalone().tree_barriers(4),
             [0x0, 0x0, 0x90e9ae28f3d01c05, 0xce45a120aa45c2c3, 0xd633aa5b278df3a6]),
            ("rt flat 8p", flat(Rt),
             [0xb32a0, 0x54, 0x885ca74625827d14, 0x96e79468a252a49e, 0xcac1df87ef224145]),
            ("vm flat 8p", flat(Vm),
             [0xe7802, 0x54, 0x885ca74625827d14, 0xcc2f52309c80050d, 0xcac1df87ef224145]),
            ("blast flat 8p", flat(Blast),
             [0x10e89d, 0x54, 0x885ca74625827d14, 0xfbcecf724e488d35, 0xcac1df87ef224145]),
            ("twinall flat 8p", flat(TwinAll),
             [0xc5428, 0x54, 0x885ca74625827d14, 0x8d2760d94fc0f47d, 0xcac1df87ef224145]),
            ("hybrid flat 8p", flat(Hybrid),
             [0xb32a0, 0x54, 0x885ca74625827d14, 0x96e79468a252a49e, 0xcac1df87ef224145]),
            ("rt tree 64p", tree(Rt),
             [0x3a6691, 0x2f4, 0x4eee5f256a9f284, 0x4a154415beee678b, 0x3399aba4b06cbe25]),
            ("vm tree 64p", tree(Vm),
             [0x37d87b, 0x2f4, 0x4eee5f256a9f284, 0x7fbd4ab5d45cd12c, 0x3399aba4b06cbe25]),
            ("blast tree 64p", tree(Blast),
             [0xa0e8e8, 0x2f4, 0x4eee5f256a9f284, 0x275f25d7d92ebd48, 0x3399aba4b06cbe25]),
            ("twinall tree 64p", tree(TwinAll),
             [0x35b4a1, 0x2f4, 0x4eee5f256a9f284, 0x15e80caeed0926e, 0x3399aba4b06cbe25]),
            ("hybrid tree 64p", tree(Hybrid),
             [0x3e5aa2, 0x2f4, 0x4eee5f256a9f284, 0x4b1bf92ba40c8852, 0x3399aba4b06cbe25]),
            ("rt flat 8p logged", flat(Rt).checkpoint_every(2),
             [0xd94e7, 0x54, 0x885ca74625827d14, 0xf3b0abee1343b05b, 0xcac1df87ef224145]),
            ("vm tree 64p logged", tree(Vm).checkpoint_every(2),
             [0x49946e, 0x2f4, 0x4eee5f256a9f284, 0xc97893e4abd32a4e, 0x3399aba4b06cbe25]),
        ];
        let got: Vec<[u64; 5]> = cells
            .iter()
            .map(|(_, cfg, _)| fingerprint(&run_partitioned(*cfg), |&r| r))
            .collect();
        for ((label, _, want), got_row) in cells.iter().zip(&got) {
            assert_eq!(got_row, want, "{label}; all rows now: {got:#x?}");
        }
    }

    // These tests forge raw protocol messages through the node's link
    // layer — something no correct application can do through the public
    // API — to check that a duplicate barrier arrival surfaces as a
    // reported protocol violation, not a panic inside the site.

    #[test]
    fn duplicate_flat_arrival_is_a_protocol_violation() {
        let mut b = SystemBuilder::new();
        let data = b.shared_array::<u64>("data", 4, 1);
        let bar = b.barrier(vec![data.full_range()]);
        let spec = b.build();
        let err = Midway::run(
            MidwayConfig::new(2, BackendKind::Rt),
            &spec,
            |p: &mut Proc| {
                if p.id() == 1 {
                    // Two forged arrivals ahead of the real one: the
                    // manager must eventually see processor 1 arrive twice
                    // in one episode.
                    for time in [1, 2] {
                        let msg = DsmMsg::BarrierArrive {
                            barrier: bar,
                            set: UpdateSet::new(),
                            time,
                        };
                        let (node, h) = p.engine();
                        node.link.send(h, 0, msg);
                    }
                }
                p.barrier(bar);
            },
        )
        .unwrap_err();
        match err {
            RunError::ProtocolViolation { proc, message } => {
                assert_eq!(proc, 0, "the manager reports the violation");
                assert!(message.contains("arrived twice"), "{message}");
            }
            other => panic!("expected protocol violation, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_tree_arrival_is_a_protocol_violation() {
        // 3 processors, arity 2, manager 0: processors 1 and 2 are both
        // children of the root, so the root sees the duplicate directly.
        let mut b = SystemBuilder::new();
        let data = b.shared_array::<u64>("data", 4, 1);
        let bar = b.barrier(vec![data.full_range()]);
        let spec = b.build();
        let err = Midway::run(
            MidwayConfig::new(3, BackendKind::Rt).tree_barriers(2),
            &spec,
            |p: &mut Proc| {
                if p.id() == 1 {
                    for time in [1, 2] {
                        let msg = DsmMsg::BarrierArrive {
                            barrier: bar,
                            set: UpdateSet::new(),
                            time,
                        };
                        let (node, h) = p.engine();
                        node.link.send(h, 0, msg);
                    }
                }
                p.barrier(bar);
            },
        )
        .unwrap_err();
        match err {
            RunError::ProtocolViolation { proc, message } => {
                assert_eq!(proc, 0, "the tree root reports the violation");
                assert!(message.contains("arrived twice"), "{message}");
            }
            other => panic!("expected protocol violation, got {other:?}"),
        }
    }
}
