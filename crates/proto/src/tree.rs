//! Combining-tree barriers: the scale-out replacement for the flat
//! manager-side [`BarrierSite`](crate::BarrierSite).
//!
//! The flat site funnels every processor's `UpdateSet` into one manager,
//! which merges P arrivals and broadcasts P releases — O(P) messages and
//! O(P · set) merge work at a single node. A combining tree bounds both:
//! processors form a k-ary tree rooted at the barrier's manager, arrivals
//! merge subtree contributions *up* the tree, and the release fans the
//! fully merged set back *down*, so no node sends or receives more than
//! `arity` barrier messages per episode.
//!
//! Determinism: [`UpdateSet::merge_newer`] breaks timestamp ties toward
//! its argument, so merge results depend on merge *order*. Every node
//! therefore stashes its children's sets and merges in a canonical order
//! — its own contribution first, then children by ascending slot — which
//! makes the global merge the pre-order fold of the tree, independent of
//! message interleaving. When timestamps are unique (or contributions
//! disjoint, as with partitioned barriers), the result is identical to
//! the flat site's merge under any arrival order.
//!
//! Like [`HomeLock`](crate::HomeLock) and the flat site, the state
//! machine is pure: events in, instructions out, no transport in sight.

use crate::home::BarrierError;
use crate::update::UpdateSet;

/// The k-ary tree a barrier's processors form, rooted at its manager.
///
/// Processor `p` sits at position `(p - root) mod procs`, and positions
/// form a standard heap layout: the parent of position `i` is
/// `(i - 1) / arity`, its children are `arity·i + 1 ..= arity·i + arity`.
/// Rotating by `root` keeps managers of different barriers (and of
/// different [`HomeMap`](crate::HomeMap) placements) from all rooting at
/// processor 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeTopology {
    procs: usize,
    arity: usize,
    root: usize,
}

impl TreeTopology {
    /// A tree over `procs` processors with the given fan-in, rooted at
    /// `root`.
    ///
    /// # Panics
    ///
    /// Panics if `arity < 2`, `procs == 0`, or `root >= procs`.
    pub fn new(procs: usize, arity: usize, root: usize) -> TreeTopology {
        assert!(arity >= 2, "a combining tree needs arity >= 2");
        assert!(procs > 0, "empty cluster");
        assert!(root < procs, "root {root} out of range for {procs} procs");
        TreeTopology { procs, arity, root }
    }

    /// The configured fan-in bound.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The root processor (the barrier's manager).
    pub fn root(&self) -> usize {
        self.root
    }

    fn pos(&self, p: usize) -> usize {
        (p + self.procs - self.root) % self.procs
    }

    fn proc_at(&self, pos: usize) -> usize {
        (pos + self.root) % self.procs
    }

    /// The processor `p` reports to, or `None` for the root.
    pub fn parent(&self, p: usize) -> Option<usize> {
        let pos = self.pos(p);
        (pos > 0).then(|| self.proc_at((pos - 1) / self.arity))
    }

    /// The processors reporting to `p`, in canonical (slot) order. At
    /// most `arity` of them.
    pub fn children(&self, p: usize) -> Vec<usize> {
        let pos = self.pos(p);
        (self.arity * pos + 1..=self.arity * pos + self.arity)
            .take_while(|&c| c < self.procs)
            .map(|c| self.proc_at(c))
            .collect()
    }
}

/// What a [`TreeSite`] asks its node to do after absorbing an arrival.
#[derive(Debug, PartialEq)]
pub enum TreeStep {
    /// The subtree is not complete yet; keep waiting.
    Wait,
    /// The subtree is complete: forward its merged contribution to
    /// `parent` as a barrier arrival.
    SendUp {
        /// This node's parent in the tree.
        parent: usize,
        /// The canonical merge of this subtree's contributions.
        set: UpdateSet,
    },
    /// The root's subtree — the whole cluster — is complete: start the
    /// release fan-down with the fully merged set.
    Release {
        /// The canonical merge of every processor's contribution.
        merged: UpdateSet,
    },
}

/// Per-node, per-barrier combining-tree state.
#[cfg_attr(test, derive(Clone))]
pub struct TreeSite {
    me: usize,
    topo: TreeTopology,
    episode: u64,
    /// This node's own contribution, pending subtree completion.
    own: Option<UpdateSet>,
    /// Whether the own contribution arrived this episode (`own` itself is
    /// consumed on subtree completion, so it cannot double as the flag).
    own_arrived: bool,
    /// The sorted addresses of `own`, kept as the release-time skip list
    /// (`own` itself moves into the merge).
    own_addrs: Vec<u64>,
    /// Stashed child subtree sets, indexed by child slot. Stash-then-merge
    /// (rather than merge-on-arrival) is what pins the canonical order.
    child_sets: Vec<Option<UpdateSet>>,
    /// Barrier messages absorbed this episode — the quantity the tree
    /// exists to bound.
    fanin: usize,
    /// High-water fan-in across episodes (observable by tests and
    /// harness assertions).
    max_fanin: usize,
    releases: u64,
}

impl TreeSite {
    /// The site processor `me` runs for a barrier whose tree is `topo`.
    pub fn new(me: usize, topo: TreeTopology) -> TreeSite {
        let children = topo.children(me).len();
        TreeSite {
            me,
            topo,
            episode: 0,
            own: None,
            own_arrived: false,
            own_addrs: Vec::new(),
            child_sets: (0..children).map(|_| None).collect(),
            fanin: 0,
            max_fanin: 0,
            releases: 0,
        }
    }

    /// The episode currently being gathered.
    pub fn episode(&self) -> u64 {
        self.episode
    }

    /// This node's children, in canonical order.
    pub fn children(&self) -> Vec<usize> {
        self.topo.children(self.me)
    }

    /// Highest number of barrier messages this node absorbed in any one
    /// episode. Bounded by the tree's arity by construction; asserted so
    /// a topology bug cannot silently recreate the flat hot-spot.
    pub fn max_fanin(&self) -> usize {
        self.max_fanin
    }

    /// Releases this node has fanned down (one per completed episode).
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// This node's own processor arrives with its collected updates.
    pub fn arrive_own(&mut self, set: UpdateSet) -> Result<TreeStep, BarrierError> {
        if self.own_arrived {
            return Err(BarrierError::DoubleArrival {
                from: self.me,
                episode: self.episode,
            });
        }
        self.own_arrived = true;
        self.own_addrs = set.sorted_addrs();
        self.own = Some(set);
        Ok(self.try_complete())
    }

    /// A child's merged subtree contribution arrives.
    pub fn arrive_child(&mut self, from: usize, set: UpdateSet) -> Result<TreeStep, BarrierError> {
        let Some(slot) = self.topo.children(self.me).iter().position(|&c| c == from) else {
            return Err(BarrierError::NotAChild { from });
        };
        if self.child_sets[slot].is_some() {
            return Err(BarrierError::DoubleArrival {
                from,
                episode: self.episode,
            });
        }
        self.child_sets[slot] = Some(set);
        self.fanin += 1;
        assert!(
            self.fanin <= self.topo.arity(),
            "tree node {} fan-in {} exceeds arity {}",
            self.me,
            self.fanin,
            self.topo.arity()
        );
        self.max_fanin = self.max_fanin.max(self.fanin);
        Ok(self.try_complete())
    }

    fn try_complete(&mut self) -> TreeStep {
        if self.own.is_none() || self.child_sets.iter().any(Option::is_none) {
            return TreeStep::Wait;
        }
        // Canonical merge: own contribution first, then children by slot.
        let mut merged = self.own.take().expect("own checked above");
        for slot in &mut self.child_sets {
            merged.merge_newer(slot.take().expect("children checked above"));
        }
        self.fanin = 0;
        match self.topo.parent(self.me) {
            Some(parent) => TreeStep::SendUp {
                parent,
                set: merged,
            },
            None => TreeStep::Release { merged },
        }
    }

    /// The release reaches this node: advance the episode and return the
    /// children to forward the merged set to plus this node's skip list —
    /// the sorted addresses of its own contribution, which it passes over
    /// when applying the merged set ([`UpdateSet::excluding`]).
    pub fn release(&mut self) -> (Vec<usize>, Vec<u64>) {
        self.episode += 1;
        self.releases += 1;
        self.own_arrived = false;
        let skip = std::mem::take(&mut self.own_addrs);
        (self.topo.children(self.me), skip)
    }

    /// [`release`](Self::release) with the locally applicable subset (the
    /// merged set minus this processor's own contribution) materialized.
    pub fn on_release(&mut self, merged: &UpdateSet) -> (Vec<usize>, UpdateSet) {
        let (children, skip) = self.release();
        let items = merged.excluding(&skip).cloned().collect();
        (children, UpdateSet { items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::BarrierSite;
    use crate::update::{MaskedSet, UpdateItem};
    use std::sync::Arc;

    const PROCS: [usize; 4] = [3, 7, 65, 513];
    const ARITIES: [usize; 3] = [2, 4, 16];

    #[test]
    fn topology_is_a_well_formed_tree() {
        for procs in PROCS {
            for arity in ARITIES {
                for root in [0, procs - 1, procs / 2] {
                    let t = TreeTopology::new(procs, arity, root);
                    assert_eq!(t.parent(root), None);
                    let mut seen_as_child = vec![0usize; procs];
                    for p in 0..procs {
                        let kids = t.children(p);
                        assert!(kids.len() <= arity, "fan-in over arity at {p}");
                        for c in kids {
                            assert_eq!(t.parent(c), Some(p), "parent/child disagree");
                            seen_as_child[c] += 1;
                        }
                    }
                    // Every non-root is someone's child exactly once.
                    for (p, seen) in seen_as_child.iter().enumerate() {
                        assert_eq!(
                            *seen,
                            usize::from(p != root),
                            "procs {procs} arity {arity} root {root} proc {p}"
                        );
                    }
                }
            }
        }
    }

    fn item(addr: u64, ts: u64) -> UpdateItem {
        UpdateItem {
            addr,
            data: vec![(ts % 251) as u8; 4],
            ts,
        }
    }

    /// One processor's contribution for an episode: a couple of items at
    /// addresses that overlap across processors (stressing the merge)
    /// with unique timestamps (so merge order cannot matter and the flat
    /// oracle must agree exactly).
    fn contribution(p: usize, procs: usize, episode: u64) -> UpdateSet {
        let base = episode * (2 * procs as u64 + 7);
        UpdateSet {
            items: vec![
                item(8 * (p as u64 % 5), base + p as u64 + 1),
                item(1024 + 8 * p as u64, base + procs as u64 + p as u64 + 1),
            ],
        }
    }

    /// Drives a full cluster of tree sites through `episodes` episodes,
    /// delivering queued messages in a rotating (adversarial-ish but
    /// deterministic) order, and checks per-episode invariants against
    /// the flat-site oracle.
    fn run_episodes(procs: usize, arity: usize, root: usize, episodes: u64) {
        let topo = TreeTopology::new(procs, arity, root);
        let mut sites: Vec<TreeSite> = (0..procs).map(|p| TreeSite::new(p, topo)).collect();

        for episode in 0..episodes {
            // Pending messages: (dst, src, set) arrivals and releases (dst).
            let mut ups: Vec<(usize, usize, UpdateSet)> = Vec::new();
            let mut downs: Vec<usize> = Vec::new();
            let mut released = vec![0usize; procs];
            let mut locals: Vec<Option<UpdateSet>> = (0..procs).map(|_| None).collect();
            let mut root_merged: Option<UpdateSet> = None;

            let step = |site: &mut TreeSite,
                        s: TreeStep,
                        ups: &mut Vec<(usize, usize, UpdateSet)>,
                        root_merged: &mut Option<UpdateSet>| match s {
                TreeStep::Wait => {}
                TreeStep::SendUp { parent, set } => ups.push((parent, site.me, set)),
                TreeStep::Release { merged } => {
                    assert!(root_merged.is_none(), "root released twice");
                    *root_merged = Some(merged);
                }
            };

            // Everyone arrives; own arrivals in a rotated order.
            for i in 0..procs {
                let p = (i + episode as usize) % procs;
                let s = sites[p]
                    .arrive_own(contribution(p, procs, episode))
                    .expect("clean own arrival");
                step(&mut sites[p], s, &mut ups, &mut root_merged);
            }
            // Drain the up-phase, delivering from alternating ends so
            // deep and shallow subtrees interleave.
            let mut flip = false;
            while !ups.is_empty() {
                let (dst, src, set) = if flip {
                    ups.remove(0)
                } else {
                    ups.pop().expect("nonempty")
                };
                flip = !flip;
                let s = sites[dst]
                    .arrive_child(src, set)
                    .expect("clean child arrival");
                step(&mut sites[dst], s, &mut ups, &mut root_merged);
            }
            let merged = root_merged.expect("tree completed");

            // Flat oracle fed in the tree's canonical (pre-order) merge
            // order: timestamps are unique, so any order must match, and
            // this order must match *exactly*.
            let mut flat = BarrierSite::new(procs);
            let mut order = vec![root];
            let mut k = 0;
            while k < order.len() {
                order.extend(topo.children(order[k]));
                k += 1;
            }
            let mut oracle = None;
            for &p in &order {
                if let Some(rel) = flat
                    .arrive(p, contribution(p, procs, episode))
                    .expect("clean flat arrival")
                {
                    oracle = Some(rel);
                }
            }
            let oracle = oracle.expect("flat released").per_proc();

            // Fan the release down the way the engine does: one shared
            // merged set, each node viewing it through its own skip list.
            // The view must show exactly what `on_release` materializes,
            // and what a hash-set filter over the node's contribution
            // says it should.
            let shared = MaskedSet::whole(Arc::new(merged.clone()));
            downs.push(root);
            while let Some(dst) = downs.pop() {
                let (_, want) = sites[dst].clone().on_release(&merged);
                let (kids, skip) = sites[dst].release();
                let view = shared.with_skip(skip);
                let local = UpdateSet {
                    items: view.iter().cloned().collect(),
                };
                assert_eq!(local, want, "episode {episode}: view at {dst}");
                assert_eq!(view.len(), want.len());
                assert_eq!(view.data_bytes(), want.data_bytes());
                assert_eq!(view.wire_size(), want.wire_size());
                let own: std::collections::HashSet<u64> = contribution(dst, procs, episode)
                    .items
                    .iter()
                    .map(|i| i.addr)
                    .collect();
                let by_hash: Vec<&UpdateItem> = merged
                    .items
                    .iter()
                    .filter(|i| !own.contains(&i.addr))
                    .collect();
                assert_eq!(local.items.iter().collect::<Vec<_>>(), by_hash);
                released[dst] += 1;
                locals[dst] = Some(local);
                downs.extend(kids);
            }

            for p in 0..procs {
                assert_eq!(released[p], 1, "episode {episode}: releases at {p}");
                assert_eq!(
                    locals[p].as_ref().expect("released"),
                    &oracle[p],
                    "episode {episode}: local set at {p} diverges from flat oracle"
                );
                assert!(
                    sites[p].max_fanin() <= arity,
                    "episode {episode}: fan-in {} > arity {arity} at {p}",
                    sites[p].max_fanin()
                );
                assert_eq!(sites[p].episode(), episode + 1);
            }
            // The root's merged set is the oracle's merge exactly.
            let mut flat_merged = UpdateSet::new();
            for &p in &order {
                flat_merged.merge_newer(contribution(p, procs, episode));
            }
            assert_eq!(merged, flat_merged, "episode {episode}: merged diverges");
        }
    }

    #[test]
    fn episodes_match_flat_oracle_at_odd_proc_counts_and_arities() {
        for procs in PROCS {
            for arity in ARITIES {
                let root = procs / 3;
                // 513 procs is slow under the quadratic oracle check;
                // two episodes still cross the reset path.
                let episodes = if procs > 100 { 2 } else { 3 };
                run_episodes(procs, arity, root, episodes);
            }
        }
    }

    #[test]
    fn double_own_arrival_is_an_error() {
        let topo = TreeTopology::new(3, 2, 0);
        let mut s = TreeSite::new(1, topo);
        s.arrive_own(UpdateSet::new()).expect("first is clean");
        assert_eq!(
            s.arrive_own(UpdateSet::new()),
            Err(BarrierError::DoubleArrival {
                from: 1,
                episode: 0
            })
        );
    }

    #[test]
    fn double_child_arrival_is_an_error() {
        let topo = TreeTopology::new(7, 2, 0);
        let mut s = TreeSite::new(0, topo);
        let child = topo.children(0)[0];
        s.arrive_child(child, UpdateSet::new())
            .expect("first is clean");
        assert_eq!(
            s.arrive_child(child, UpdateSet::new()),
            Err(BarrierError::DoubleArrival {
                from: child,
                episode: 0
            })
        );
    }

    #[test]
    fn arrival_from_non_child_is_an_error() {
        let topo = TreeTopology::new(7, 2, 0);
        // Proc 6's children are empty; proc 5 is nobody's child of 6.
        let mut s = TreeSite::new(6, topo);
        assert_eq!(
            s.arrive_child(5, UpdateSet::new()),
            Err(BarrierError::NotAChild { from: 5 })
        );
    }

    #[test]
    fn single_processor_tree_releases_immediately() {
        let topo = TreeTopology::new(1, 2, 0);
        let mut s = TreeSite::new(0, topo);
        let set = UpdateSet {
            items: vec![item(0, 1)],
        };
        match s.arrive_own(set.clone()).expect("clean") {
            TreeStep::Release { merged } => {
                let (kids, local) = s.on_release(&merged);
                assert!(kids.is_empty());
                assert!(local.is_empty(), "own contribution excluded");
            }
            other => panic!("expected release, got {other:?}"),
        }
    }
}
