//! The post-run happens-before analysis.
//!
//! The input is the run's recording, one [`OpStream`] per processor, and
//! nothing in it is a timestamp. [`analyze`] walks the streams in an
//! order happens-before allows — program order within each stream plus
//! the two cross-processor edges the protocol creates — and feeds every
//! op to a vector-clock machine. An op is *ready* once every op it must
//! follow has been walked:
//!
//! * an **exclusive acquire** waits for the release of every earlier
//!   grant of its lock, and a **shared acquire** for the release of the
//!   last exclusive grant before it. A lock's grants are the `Grant` ops
//!   its home recorded, in the order it made them, and a processor's k-th
//!   `Acquire` of a lock takes its k-th grant of that lock: a processor
//!   requests a lock again only after releasing it;
//! * a **barrier exit** of episode k waits for every processor's k-th
//!   enter of that barrier. A `Barrier` op is an enter, then an exit.
//!
//! Every other op is always ready. The walk runs the lowest-numbered
//! ready processor until it blocks, then picks again. Any such order
//! gives every access the same clock, so a verdict on an ordered pair of
//! accesses does not depend on it; a read concurrent with a write to its
//! line — a race — is stale only if the walk happens to visit the write
//! first. Streams that admit no order (an acquire its lock's home never
//! granted, a barrier some processor never reaches) are an error naming
//! each stuck processor and the op it waits at.
//!
//! Clock rules (Djit⁺-style, adapted to entry consistency):
//!
//! * **Acquire** `l` by `p`: `VC_p ⊔= L_l` — the acquirer inherits the
//!   history of every previous releaser (the lock's home serializes the
//!   grant chain, including shared-mode holders).
//! * **Release** `l` by `p`: `L_l ⊔= VC_p`, then `VC_p[p] += 1` — the
//!   release publishes `p`'s history and opens a new write epoch.
//! * **Barrier enter** by `p` (episode `e`): `ACC_{b,e} ⊔= VC_p`, then
//!   `VC_p[p] += 1`. No exit of an episode is walked before all its
//!   entries, so the accumulator is complete before anyone reads it.
//! * **Barrier exit** by `p` (episode `e`): `VC_p ⊔= ACC_{b,e}`.
//! * **Write** of a line by `p`: the line's last-writer stamp becomes
//!   `(p, op index)`, and `p`'s *first* write epoch `VC_p[p]` for the
//!   line is remembered.
//! * **Read** of a line by `q`: stale iff the line has been written but
//!   *no* write to it happens-before `q` — no writer `p` (including `q`
//!   itself) has `VC_q[p] ≥` its first epoch for the line. Midway is
//!   update-based: a read returns the local copy, which holds whatever
//!   value synchronization last delivered. Reading concurrently with a
//!   *newer* remote write is therefore well-defined under entry
//!   consistency (sor's ghost-row reads do exactly that, against the
//!   previous phase's published value); what is broken is reading a line
//!   whose content no synchronization ever delivered to this processor.
//!
//! Coverage rules: a *write* must fall inside an exclusively held lock's
//! current binding, inside the writer's own partition of a partitioned
//! barrier, or inside a non-partitioned barrier's binding. A *read* may
//! be covered by any held lock (either mode) or by any barrier's union
//! binding (neighbours legitimately read other partitions once the
//! barrier publishes them). Accesses to private regions, and to shared
//! data that no synchronization object has ever bound (deliberately
//! unshared scratch), are exempt from coverage checks; the latter still
//! feed the last-writer clocks so cross-processor staleness is caught.

use std::collections::HashMap;

use midway_mem::{Addr, AddrRange, Layout, MemClass};

use crate::clock::VClock;
use crate::report::{CheckReport, Finding, FindingKind, Staleness, MAX_FINDINGS};
use crate::spec::SpecBlueprint;
use crate::stream::{OpStream, Ops, TraceOp};

/// Everything the stale-read rule tracks about one cache line.
struct LineState {
    /// The most recent write in walk order, as (processor, op index): the
    /// finding's provenance.
    last: (usize, usize),
    /// Each writer's *first* write epoch for this line. A read has
    /// synchronized with the line iff some entry happens-before it.
    first: Vec<(u32, u64)>,
}

/// One grant of a lock, as its home recorded it.
struct Grant {
    to: u32,
    exclusive: bool,
    /// One past the index of the last exclusive grant before this one
    /// (0: none), which a shared grant's acquire waits for.
    after: usize,
    released: bool,
}

/// Per-lock analysis state.
struct LockState {
    /// Current bound ranges (tracks rebinds in walk order; rebinding
    /// requires an exclusive hold, so the order is total).
    cur: Vec<AddrRange>,
    /// Ranges retired by rebinds, for [`FindingKind::BindingViolation`].
    prev: Vec<AddrRange>,
    clock: VClock,
    /// The lock's grants, in the order its home made them.
    grants: Vec<Grant>,
    /// Grants `..low` are all released.
    low: usize,
    /// Per processor: its next acquire takes its first grant at or after
    /// this index.
    next: Vec<usize>,
}

/// Deduplication key: finding kind + accessor + line + implicated lock.
type DedupKey = (FindingKind, usize, u64, Option<u32>);

struct Analysis<'a> {
    layout: &'a Layout,
    bp: &'a SpecBlueprint,
    procs: usize,
    vc: Vec<VClock>,
    locks: Vec<LockState>,
    /// Held locks per processor: `(lock, exclusive, grant index)`.
    held: Vec<Vec<(u32, bool, usize)>>,
    /// Barrier episodes: `episodes[barrier][e]` is the episode's
    /// accumulator and how many processors have entered it.
    episodes: Vec<Vec<(VClock, usize)>>,
    /// Per-processor crossings completed: `[proc][barrier]`.
    crossed: Vec<Vec<usize>>,
    /// Whether each processor has entered the barrier its walk is at.
    entered: Vec<bool>,
    /// Per-line write history, keyed by line base address.
    lines: HashMap<u64, LineState>,
    /// Every range any synchronization object has bound so far.
    bound: Vec<AddrRange>,
    dedup: HashMap<DedupKey, usize>,
    report: CheckReport,
}

/// Whether one of `ranges` contains all of `[addr, end)`.
fn covers(ranges: &[AddrRange], addr: u64, end: u64) -> bool {
    ranges.iter().any(|r| r.start <= addr && end <= r.end)
}

/// Whether any of `ranges` overlaps `[addr, end)`.
fn overlaps(ranges: &[AddrRange], addr: u64, end: u64) -> bool {
    ranges.iter().any(|r| r.start < end && addr < r.end)
}

impl<'a> Analysis<'a> {
    fn new(layout: &'a Layout, bp: &'a SpecBlueprint, streams: &[OpStream]) -> Analysis<'a> {
        let procs = streams.len();
        let barriers = bp.barriers.iter();
        let bound = (bp.locks.iter().flatten())
            .chain(barriers.flat_map(|b| {
                b.ranges
                    .iter()
                    .chain(b.partitions.iter().flatten().flatten())
            }))
            .cloned()
            .collect();
        let mut locks: Vec<LockState> = bp
            .locks
            .iter()
            .map(|ranges| LockState {
                cur: ranges.clone(),
                prev: Vec::new(),
                clock: VClock::zero(procs),
                grants: Vec::new(),
                low: 0,
                next: vec![0; procs],
            })
            .collect();
        for op in streams.iter().flatten() {
            let TraceOp::Grant {
                lock,
                to,
                exclusive,
            } = op
            else {
                continue;
            };
            let grants = &mut locks[lock as usize].grants;
            let after = match grants.last() {
                Some(g) if g.exclusive => grants.len(),
                Some(g) => g.after,
                None => 0,
            };
            grants.push(Grant {
                to,
                exclusive,
                after,
                released: false,
            });
        }
        Analysis {
            layout,
            bp,
            procs,
            vc: (0..procs).map(|p| VClock::new(procs, p)).collect(),
            locks,
            held: vec![Vec::new(); procs],
            episodes: (0..bp.barriers.len()).map(|_| Vec::new()).collect(),
            crossed: vec![vec![0; bp.barriers.len()]; procs],
            entered: vec![false; procs],
            lines: HashMap::new(),
            bound,
            dedup: HashMap::new(),
            report: CheckReport {
                events: streams.iter().map(|s| s.len() as u64).sum(),
                ..CheckReport::default()
            },
        }
    }

    fn emit(&mut self, mut finding: Finding, line: u64) {
        let key = (finding.kind, finding.proc, line, finding.lock);
        let hit = self.dedup.get(&key).copied();
        // Past the cap a new finding is only counted, so it gets no index.
        if hit.is_none() && self.report.findings.len() < MAX_FINDINGS {
            finding.alloc = (self.layout.allocs().iter())
                .find(|a| a.range().contains(&finding.addr))
                .map(|a| a.name.clone());
            self.dedup.insert(key, self.report.findings.len());
        }
        self.report.record(finding, hit);
    }

    /// The first binding-coverage failure kind for an uncovered access:
    /// a held rebound lock whose retired ranges contain the access makes
    /// it a binding violation; otherwise it is plain unguarded.
    fn uncovered_kind(
        &self,
        p: usize,
        addr: u64,
        end: u64,
        write: bool,
    ) -> (FindingKind, Option<u32>) {
        for (l, _, _) in &self.held[p] {
            let ls = &self.locks[*l as usize];
            if overlaps(&ls.prev, addr, end) && !covers(&ls.cur, addr, end) {
                return (FindingKind::BindingViolation, Some(*l));
            }
        }
        let kind = if write {
            FindingKind::UnguardedWrite
        } else {
            FindingKind::UnguardedRead
        };
        (kind, None)
    }

    fn on_write(&mut self, p: usize, op: usize, addr: u64, len: u32) {
        let Some(region) = self.layout.region(Addr(addr).region_index()) else {
            return;
        };
        if region.class == MemClass::Private {
            return;
        }
        let end = addr + u64::from(len);
        let line_size = region.line_size() as u64;
        let line0 = addr & !(line_size - 1);
        let covered = self.held[p]
            .iter()
            .any(|(l, exclusive, _)| *exclusive && covers(&self.locks[*l as usize].cur, addr, end))
            || self.bp.barriers.iter().any(|b| match &b.partitions {
                Some(parts) => covers(&parts[p], addr, end),
                None => covers(&b.ranges, addr, end),
            });
        if !covered && overlaps(&self.bound, addr, end) {
            let (kind, lock) = self.uncovered_kind(p, addr, end, true);
            self.emit(
                Finding {
                    kind,
                    proc: p,
                    op,
                    addr,
                    len,
                    alloc: None,
                    lock,
                    stale: None,
                    occurrences: 1,
                },
                line0,
            );
        }
        let epoch = self.vc[p].get(p);
        let mut line = line0;
        while line < end {
            let ls = self.lines.entry(line).or_insert_with(|| LineState {
                last: (p, op),
                first: Vec::new(),
            });
            ls.last = (p, op);
            if !ls.first.iter().any(|(wp, _)| *wp == p as u32) {
                ls.first.push((p as u32, epoch));
            }
            line += line_size;
        }
    }

    fn on_read(&mut self, p: usize, op: usize, addr: u64, len: u32) {
        let Some(region) = self.layout.region(Addr(addr).region_index()) else {
            return;
        };
        if region.class == MemClass::Private {
            return;
        }
        let end = addr + u64::from(len);
        let line_size = region.line_size() as u64;
        let mut line = addr & !(line_size - 1);
        while line < end {
            if let Some(ls) = self.lines.get(&line) {
                let delivered = ls
                    .first
                    .iter()
                    .any(|(wp, e)| self.vc[p].get(*wp as usize) >= *e);
                if !delivered {
                    let stale = Staleness {
                        writer: ls.last.0,
                        write_op: ls.last.1,
                    };
                    self.emit(
                        Finding {
                            kind: FindingKind::StaleRead,
                            proc: p,
                            op,
                            addr: line,
                            len: line_size as u32,
                            alloc: None,
                            lock: None,
                            stale: Some(stale),
                            occurrences: 1,
                        },
                        line,
                    );
                }
            }
            line += line_size;
        }
        let covered = self.held[p]
            .iter()
            .any(|(l, _, _)| covers(&self.locks[*l as usize].cur, addr, end))
            || self
                .bp
                .barriers
                .iter()
                .any(|b| covers(&b.ranges, addr, end));
        if !covered && overlaps(&self.bound, addr, end) {
            let (kind, lock) = self.uncovered_kind(p, addr, end, false);
            let line0 = addr & !(line_size - 1);
            self.emit(
                Finding {
                    kind,
                    proc: p,
                    op,
                    addr,
                    len,
                    alloc: None,
                    lock,
                    stale: None,
                    occurrences: 1,
                },
                line0,
            );
        }
    }

    /// Walks `op`, processor `p`'s op number `i`, as far as it is ready;
    /// returns whether it is done (a barrier may be entered but not yet
    /// left).
    fn step(&mut self, p: usize, i: usize, op: TraceOp<'_>) -> bool {
        match op {
            TraceOp::Read { addr, len } => self.on_read(p, i, addr, len),
            TraceOp::Write { addr, data } => self.on_write(p, i, addr, data.len() as u32),
            TraceOp::Acquire { lock, exclusive } => {
                // The acquire takes p's next grant of the lock, if its home
                // made one; grants to others before it are skipped for good.
                let ls = &mut self.locks[lock as usize];
                let from = ls.next[p];
                let mine = ls.grants[from..].iter().position(|g| g.to as usize == p);
                let j = mine.map_or(ls.grants.len(), |k| from + k);
                ls.next[p] = j;
                let Some(g) = ls.grants.get(j) else {
                    return false;
                };
                let ready = match exclusive {
                    true => ls.low >= j,
                    false => g.after == 0 || ls.grants[g.after - 1].released,
                };
                if g.exclusive != exclusive || !ready {
                    return false;
                }
                ls.next[p] = j + 1;
                self.vc[p].join(&ls.clock);
                self.held[p].push((lock, exclusive, j));
            }
            TraceOp::Release { lock, .. } => {
                let ls = &mut self.locks[lock as usize];
                ls.clock.join(&self.vc[p]);
                self.vc[p].tick(p);
                if let Some(k) = self.held[p].iter().position(|h| h.0 == lock) {
                    let (_, _, j) = self.held[p].remove(k);
                    ls.grants[j].released = true;
                    while ls.grants.get(ls.low).is_some_and(|g| g.released) {
                        ls.low += 1;
                    }
                }
            }
            TraceOp::Rebind { lock, ranges } => {
                let ls = &mut self.locks[lock as usize];
                let old = std::mem::replace(&mut ls.cur, ranges.to_vec());
                ls.prev.extend(old);
                self.bound.extend(ranges.iter().cloned());
            }
            TraceOp::Barrier { barrier } => {
                let b = barrier as usize;
                let e = self.crossed[p][b];
                if !self.entered[p] {
                    self.entered[p] = true;
                    // No one enters episode e + 1 before everyone entered e.
                    if self.episodes[b].len() == e {
                        self.episodes[b].push((VClock::zero(self.procs), 0));
                    }
                    let (acc, entries) = &mut self.episodes[b][e];
                    acc.join(&self.vc[p]);
                    *entries += 1;
                    self.vc[p].tick(p);
                }
                if self.episodes[b][e].1 < self.procs {
                    return false;
                }
                self.entered[p] = false;
                self.crossed[p][b] += 1;
                self.vc[p].join(&self.episodes[b][e].0);
            }
            TraceOp::Work { .. } | TraceOp::Idle { .. } | TraceOp::Grant { .. } => {}
        }
        true
    }
}

/// Analyzes one run's recording against its declaration `bp`, whose
/// allocations `layout` holds: `streams[p]` is processor `p`'s ops in
/// program order, with the `Read`s and `Grant`s a checked run records.
///
/// # Errors
///
/// When the streams admit no happens-before order: the first stuck
/// processor, and a message naming each stuck processor and the op it
/// waits at.
pub fn analyze(
    bp: &SpecBlueprint,
    layout: &Layout,
    streams: &[OpStream],
) -> Result<CheckReport, (usize, String)> {
    walk(bp, layout, streams, false)
}

/// [`analyze`], walking the highest-numbered ready processor first
/// instead of the lowest: the other extreme among the orders the walk
/// may take, so tests can pin which verdicts do not depend on it.
#[doc(hidden)]
pub fn analyze_highest_first(
    bp: &SpecBlueprint,
    layout: &Layout,
    streams: &[OpStream],
) -> Result<CheckReport, (usize, String)> {
    walk(bp, layout, streams, true)
}

fn walk(
    bp: &SpecBlueprint,
    layout: &Layout,
    streams: &[OpStream],
    highest_first: bool,
) -> Result<CheckReport, (usize, String)> {
    let procs = streams.len();
    let mut a = Analysis::new(layout, bp, streams);
    let mut ops: Vec<Ops<'_>> = streams.iter().map(OpStream::iter).collect();
    // Each processor's next op and its index in the stream.
    let mut at: Vec<(usize, Option<TraceOp<'_>>)> = ops.iter_mut().map(|o| (0, o.next())).collect();
    let order: Vec<usize> = match highest_first {
        false => (0..procs).collect(),
        true => (0..procs).rev().collect(),
    };
    // Run the first processor in `order` that can move until it blocks,
    // then look again from the start, until none can.
    let mut moved = true;
    while moved {
        moved = false;
        for &p in &order {
            while let (i, Some(op)) = at[p] {
                if !a.step(p, i, op) {
                    break;
                }
                at[p] = (i + 1, ops[p].next());
                moved = true;
            }
            if moved {
                break;
            }
        }
    }
    let stuck: Vec<String> = (at.iter().enumerate())
        .filter_map(|(p, (i, op))| op.map(|op| format!("processor {p} waits at op {i}, {op:?}")))
        .collect();
    match at.iter().position(|(_, op)| op.is_some()) {
        None => Ok(a.report),
        Some(first) => Err((
            first,
            format!(
                "the checker found no happens-before order of the recorded ops: {}",
                stuck.join("; ")
            ),
        )),
    }
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // one-range bindings are the intended type here
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::spec::BarrierRanges;
    use midway_mem::LayoutBuilder;

    /// A declaration's bindings and the layout its allocations make (the
    /// analysis reads no allocation off the declaration itself).
    type Spec = (SpecBlueprint, Arc<Layout>);

    fn analyze(spec: &Spec, streams: &[OpStream]) -> Result<CheckReport, (usize, String)> {
        super::analyze(&spec.0, &spec.1, streams)
    }

    fn analyze_highest_first(
        spec: &Spec,
        streams: &[OpStream],
    ) -> Result<CheckReport, (usize, String)> {
        super::analyze_highest_first(&spec.0, &spec.1, streams)
    }

    /// Two shared 64-byte arrays with 8-byte lines at known addresses,
    /// one private array; one lock over the first array's first half, one
    /// partitioned barrier over the second array.
    fn spec(procs: usize) -> (Spec, u64, u64, u64) {
        let mut lb = LayoutBuilder::new();
        let a = lb.alloc("a", 64, MemClass::Shared, 3);
        let b = lb.alloc("b", 64, MemClass::Shared, 3);
        let p = lb.alloc("scratch", 64, MemClass::Private, 3);
        let (a0, b0, p0) = (a.addr.raw(), b.addr.raw(), p.addr.raw());
        let per = 64 / procs as u64;
        let bp = SpecBlueprint {
            allocs: Vec::new(),
            locks: vec![vec![a0..a0 + 32]],
            barriers: vec![BarrierRanges {
                ranges: vec![b0..b0 + 64],
                partitions: Some(
                    (0..procs as u64)
                        .map(|q| vec![b0 + q * per..b0 + (q + 1) * per])
                        .collect(),
                ),
            }],
        };
        ((bp, lb.build()), a0, b0, p0)
    }

    const BYTES: [u8; 8] = [0; 8];

    fn write(addr: u64) -> TraceOp<'static> {
        TraceOp::Write { addr, data: &BYTES }
    }

    fn read(addr: u64) -> TraceOp<'static> {
        TraceOp::Read { addr, len: 8 }
    }

    fn acquire(exclusive: bool) -> TraceOp<'static> {
        TraceOp::Acquire { lock: 0, exclusive }
    }

    fn release(exclusive: bool) -> TraceOp<'static> {
        TraceOp::Release { lock: 0, exclusive }
    }

    /// Lock 0's home granted it to `to`.
    fn grant(to: u32, exclusive: bool) -> TraceOp<'static> {
        TraceOp::Grant {
            lock: 0,
            to,
            exclusive,
        }
    }

    const BARRIER: TraceOp<'static> = TraceOp::Barrier { barrier: 0 };

    fn streams(ops: &[&[TraceOp<'_>]]) -> Vec<OpStream> {
        ops.iter().map(|s| s.iter().copied().collect()).collect()
    }

    /// Both walk orders, which must agree on `streams`.
    fn both(spec: &Spec, streams: &[OpStream]) -> CheckReport {
        let low = analyze(spec, streams).expect("the streams are ordered");
        let high = analyze_highest_first(spec, streams).expect("the streams are ordered");
        assert_eq!(low.counts, high.counts);
        low
    }

    #[test]
    fn lock_discipline_is_clean_and_transfers_happen_before() {
        let (spec, a0, _, _) = spec(2);
        let p0 = [
            grant(0, true),
            grant(1, true),
            acquire(true),
            write(a0),
            release(true),
        ];
        let p1 = [acquire(true), read(a0), release(true)];
        let r = both(&spec, &streams(&[&p0, &p1]));
        assert!(r.is_clean(), "{}", r.summary());
        assert_eq!(r.events, 8);
    }

    /// p1 is granted the lock before p0, so p0's read follows p1's write
    /// whichever processor the walk would rather run first; without p1's
    /// grant nothing orders p1's acquire, and the analysis says so.
    #[test]
    fn grants_order_the_walk_not_processor_ids() {
        let (spec, a0, _, _) = spec(2);
        let p0 = [
            grant(1, true),
            grant(0, true),
            acquire(true),
            read(a0),
            release(true),
        ];
        let p1 = [acquire(true), write(a0), release(true)];
        let r = both(&spec, &streams(&[&p0, &p1]));
        assert!(r.is_clean(), "{}", r.summary());

        let dropped = streams(&[&p0[1..], &p1]);
        let (proc, message) = analyze(&spec, &dropped).expect_err("p1 has no grant");
        assert_eq!(proc, 1);
        assert_eq!(
            message,
            "the checker found no happens-before order of the recorded ops: processor 1 \
             waits at op 0, Acquire { lock: 0, exclusive: true }"
        );
        assert!(analyze_highest_first(&spec, &dropped).is_err());
    }

    #[test]
    fn shared_grants_wait_only_for_the_last_exclusive_release() {
        let (spec, a0, _, _) = spec(3);
        // The home (p0) grants p0 exclusive, then p1 and p2 shared.
        let p0 = [
            grant(0, true),
            grant(1, false),
            grant(2, false),
            acquire(true),
            write(a0),
            release(true),
        ];
        let reader = [acquire(false), read(a0), release(false)];
        let r = both(&spec, &streams(&[&p0, &reader, &reader]));
        assert!(r.is_clean(), "{}", r.summary());
    }

    #[test]
    fn a_barrier_some_processor_never_reaches_is_an_error() {
        let (spec, _, _, _) = spec(2);
        let (proc, message) =
            analyze(&spec, &streams(&[&[BARRIER], &[]])).expect_err("p1 never arrives");
        assert_eq!(proc, 0);
        assert!(
            message.ends_with("processor 0 waits at op 0, Barrier { barrier: 0 }"),
            "{message}"
        );
    }

    /// The walk runs p0 first, so p1's unsynchronized read follows p0's
    /// write.
    #[test]
    fn read_without_the_lock_chain_is_stale_and_unguarded() {
        let (spec, a0, _, _) = spec(2);
        let p0 = [grant(0, true), acquire(true), write(a0), release(true)];
        let r = analyze(&spec, &streams(&[&p0, &[read(a0)]])).unwrap();
        assert_eq!(r.count(FindingKind::StaleRead), 1);
        assert_eq!(r.count(FindingKind::UnguardedRead), 1);
        let s = r.first_of(FindingKind::StaleRead).unwrap();
        assert_eq!((s.proc, s.op), (1, 0));
        assert_eq!(
            s.stale,
            Some(Staleness {
                writer: 0,
                write_op: 2
            })
        );
        assert_eq!(s.addr, a0);
        assert_eq!(s.alloc.as_deref(), Some("a"));
    }

    #[test]
    fn unguarded_write_to_bound_data_is_reported_once_per_line() {
        let (spec, a0, _, _) = spec(2);
        let p1 = [write(a0 + 8), acquire(true), release(true), write(a0 + 8)];
        let r = both(&spec, &streams(&[&[grant(1, true)], &p1]));
        // p1 holds the lock only between its acquire and release.
        assert_eq!(r.count(FindingKind::UnguardedWrite), 2);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].occurrences, 2);
        assert_eq!((r.findings[0].proc, r.findings[0].op), (1, 0));
    }

    #[test]
    fn a_repeat_past_the_findings_cap_is_only_counted() {
        // 300 processors each write a bound line unguarded, then again:
        // 300 distinct findings, 44 of them past the 256 kept.
        let procs = 300;
        let (spec, a0, b0, _) = spec(procs);
        let each = [write(a0), read(b0), write(a0)];
        let r = analyze(&spec, &streams(&vec![&each[..]; procs])).unwrap();
        assert_eq!(r.findings.len(), MAX_FINDINGS);
        assert_eq!(r.count(FindingKind::UnguardedWrite), 2 * procs as u64);
        assert!(r.findings.iter().all(|f| f.occurrences == 2));
    }

    #[test]
    fn barrier_partitions_guard_writes_and_publish_reads() {
        let (spec, _, b0, _) = spec(2);
        // p0 writes its own partition, then proc 1's; p1 reads what the
        // barrier published.
        let p0 = [write(b0), BARRIER, write(b0 + 32)];
        let p1 = [BARRIER, read(b0)];
        let r = both(&spec, &streams(&[&p0, &p1]));
        assert_eq!(r.count(FindingKind::UnguardedWrite), 1);
        assert_eq!(r.count(FindingKind::StaleRead), 0);
        assert_eq!(r.count(FindingKind::UnguardedRead), 0);
        let f = r.first_of(FindingKind::UnguardedWrite).unwrap();
        assert_eq!((f.proc, f.op, f.addr), (0, 2, b0 + 32));
    }

    /// p0 writes, then blocks in the barrier; the walk runs p1's read
    /// before p1 enters it.
    #[test]
    fn reading_ahead_of_the_barrier_is_stale() {
        let (spec, _, b0, _) = spec(2);
        let p0 = [write(b0), BARRIER];
        let p1 = [read(b0), BARRIER, read(b0)];
        let r = analyze(&spec, &streams(&[&p0, &p1])).unwrap();
        assert_eq!(r.count(FindingKind::StaleRead), 1);
        let f = r.first_of(FindingKind::StaleRead).unwrap();
        assert_eq!((f.proc, f.op), (1, 0));
    }

    /// p1 writes between the two crossings; the walk runs it as soon as
    /// the first episode is full, before p0 leaves that episode and reads.
    #[test]
    fn second_episode_requires_its_own_barrier_crossing() {
        let (spec, _, b0, _) = spec(2);
        let p0 = [BARRIER, read(b0 + 32), BARRIER, read(b0 + 32)];
        let p1 = [BARRIER, write(b0 + 32), BARRIER];
        let r = analyze(&spec, &streams(&[&p0, &p1])).unwrap();
        assert_eq!(r.count(FindingKind::StaleRead), 1);
        let f = r.first_of(FindingKind::StaleRead).unwrap();
        assert_eq!((f.proc, f.op), (0, 1));
        assert_eq!(f.stale.map(|s| (s.writer, s.write_op)), Some((1, 1)));
    }

    #[test]
    fn access_outside_a_rebound_locks_new_ranges_is_a_binding_violation() {
        let (spec, a0, _, _) = spec(2);
        let p0 = [
            grant(0, true),
            acquire(true),
            TraceOp::Rebind {
                lock: 0,
                ranges: &[a0..a0 + 16],
            },
            write(a0 + 24), // in the retired half of the old binding
            release(true),
        ];
        let r = both(&spec, &streams(&[&p0, &[]]));
        assert_eq!(r.count(FindingKind::BindingViolation), 1);
        assert_eq!(r.count(FindingKind::UnguardedWrite), 0);
        let f = r.first_of(FindingKind::BindingViolation).unwrap();
        assert_eq!(f.lock, Some(0));
        assert_eq!((f.op, f.addr), (3, a0 + 24));
    }

    #[test]
    fn never_bound_shared_data_is_exempt_from_coverage_but_not_staleness() {
        let (spec, a0, _, _) = spec(2);
        // Address range a0+32..a0+64 is shared but bound to nothing; the
        // walk runs p0's write first, and nothing orders p1's read after it.
        let free = a0 + 32;
        let r = analyze(&spec, &streams(&[&[write(free)], &[read(free)]])).unwrap();
        assert_eq!(r.count(FindingKind::UnguardedWrite), 0);
        assert_eq!(r.count(FindingKind::UnguardedRead), 0);
        assert_eq!(r.count(FindingKind::StaleRead), 1);
    }

    #[test]
    fn private_regions_are_ignored_entirely() {
        let (spec, _, _, p0a) = spec(2);
        let r = both(&spec, &streams(&[&[write(p0a)], &[read(p0a)]]));
        assert!(r.is_clean(), "{}", r.summary());
    }

    #[test]
    fn writes_under_a_shared_hold_are_unguarded() {
        let (spec, a0, _, _) = spec(2);
        let p0 = [
            grant(0, false),
            acquire(false),
            write(a0),
            read(a0), // reads are fine under a shared hold
            release(false),
        ];
        let r = both(&spec, &streams(&[&p0, &[]]));
        assert_eq!(r.count(FindingKind::UnguardedWrite), 1);
        assert_eq!(r.count(FindingKind::UnguardedRead), 0);
        // The stale check ignores the processor's own write.
        assert_eq!(r.count(FindingKind::StaleRead), 0);
    }
}
