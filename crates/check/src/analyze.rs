//! The post-run happens-before analysis.
//!
//! Per-processor event logs are merged into one stream ordered by
//! `(virtual time, processor id)`. Under the simulator's conservative
//! scheduler this linearization respects the protocol's happens-before
//! edges: every cross-processor edge (release → grant application,
//! barrier arrival → barrier release) includes at least one network hop
//! with positive modelled latency, so the effect's virtual time is
//! strictly greater than its cause's. Ties can therefore only involve
//! causally unrelated events, and any tie-break is sound.
//!
//! Clock rules (Djit⁺-style, adapted to entry consistency):
//!
//! * **Acquire** `l` by `p`: `VC_p ⊔= L_l` — the acquirer inherits the
//!   history of every previous releaser (the lock's home serializes the
//!   grant chain, including shared-mode holders).
//! * **Release** `l` by `p`: `L_l ⊔= VC_p`, then `VC_p[p] += 1` — the
//!   release publishes `p`'s history and opens a new write epoch.
//! * **Barrier enter** by `p` (episode `e`): `ACC_{b,e} ⊔= VC_p`, then
//!   `VC_p[p] += 1`. All of an episode's entries precede its exits in
//!   virtual time, so the accumulator is complete before anyone reads it.
//! * **Barrier exit** by `p` (episode `e`): `VC_p ⊔= ACC_{b,e}`.
//! * **Write** of a line by `p`: the line's last-writer stamp becomes
//!   `(p, VC_p[p])`, and `p`'s *first* write epoch for the line is
//!   remembered.
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

use midway_mem::{Addr, AddrRange, MemClass};

use crate::clock::VClock;
use crate::event::CheckEvent;
use crate::report::{ApplyStats, CheckReport, Finding, FindingKind, Staleness, MAX_FINDINGS};
use crate::spec::CheckSpec;

/// Last-writer stamp of one cache line (the finding's provenance).
struct LastWrite {
    proc: u32,
    at: u64,
}

/// Everything the stale-read rule tracks about one cache line.
struct LineState {
    /// The most recent write in merged order (the finding's provenance).
    last: LastWrite,
    /// Each writer's *first* write epoch for this line. A read has
    /// synchronized with the line iff some entry happens-before it.
    first: Vec<(u32, u64)>,
}

/// Per-lock analysis state.
struct LockState {
    /// Current bound ranges (tracks rebinds in merged order; rebinding
    /// requires an exclusive hold, so the order is total).
    cur: Vec<AddrRange>,
    /// Ranges retired by rebinds, for [`FindingKind::BindingViolation`].
    prev: Vec<AddrRange>,
    rebound: bool,
    clock: VClock,
}

/// Deduplication key: finding kind + accessor + line + implicated lock.
type DedupKey = (FindingKind, usize, u64, Option<u32>);

struct Analysis<'a> {
    spec: &'a CheckSpec,
    procs: usize,
    vc: Vec<VClock>,
    locks: Vec<LockState>,
    /// Held locks per processor: `(lock, exclusive)`.
    held: Vec<Vec<(u32, bool)>>,
    /// Barrier episode accumulators: `accs[barrier][episode]`.
    accs: Vec<Vec<VClock>>,
    /// Per-processor episode cursors: `[proc][barrier]`.
    enter_idx: Vec<Vec<usize>>,
    exit_idx: Vec<Vec<usize>>,
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

impl Analysis<'_> {
    fn emit(&mut self, mut finding: Finding, line: u64) {
        let key = (finding.kind, finding.proc, line, finding.lock);
        let hit = self.dedup.get(&key).copied();
        // Past the cap a new finding is only counted, so it gets no index.
        if hit.is_none() && self.report.findings.len() < MAX_FINDINGS {
            finding.alloc = self.spec.alloc_name(finding.addr).map(str::to_string);
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
        for (l, _) in &self.held[p] {
            let ls = &self.locks[*l as usize];
            if ls.rebound && overlaps(&ls.prev, addr, end) && !covers(&ls.cur, addr, end) {
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

    fn on_write(&mut self, p: usize, at: u64, addr: u64, len: u32) {
        let Some(region) = self.spec.layout.region(Addr(addr).region_index()) else {
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
            .any(|(l, exclusive)| *exclusive && covers(&self.locks[*l as usize].cur, addr, end))
            || self.spec.barriers.iter().any(|b| match &b.partitions {
                Some(parts) => covers(&parts[p], addr, end),
                None => covers(&b.ranges, addr, end),
            });
        if !covered && overlaps(&self.bound, addr, end) {
            let (kind, lock) = self.uncovered_kind(p, addr, end, true);
            self.emit(
                Finding {
                    kind,
                    proc: p,
                    at,
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
                last: LastWrite { proc: p as u32, at },
                first: Vec::new(),
            });
            ls.last = LastWrite { proc: p as u32, at };
            if !ls.first.iter().any(|(wp, _)| *wp == p as u32) {
                ls.first.push((p as u32, epoch));
            }
            line += line_size;
        }
    }

    fn on_read(&mut self, p: usize, at: u64, addr: u64, len: u32) {
        let Some(region) = self.spec.layout.region(Addr(addr).region_index()) else {
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
                        writer: ls.last.proc as usize,
                        write_at: ls.last.at,
                    };
                    self.emit(
                        Finding {
                            kind: FindingKind::StaleRead,
                            proc: p,
                            at,
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
            .any(|(l, _)| covers(&self.locks[*l as usize].cur, addr, end))
            || self
                .spec
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
                    at,
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

    fn step(&mut self, p: usize, ev: &CheckEvent) {
        match ev {
            CheckEvent::Read { at, addr, len } => self.on_read(p, *at, *addr, *len),
            CheckEvent::Write { at, addr, len } => self.on_write(p, *at, *addr, *len),
            CheckEvent::Acquire {
                lock, exclusive, ..
            } => {
                let clock = self.locks[*lock as usize].clock.clone();
                self.vc[p].join(&clock);
                self.held[p].push((*lock, *exclusive));
            }
            CheckEvent::Release { lock, .. } => {
                self.locks[*lock as usize].clock.join(&self.vc[p]);
                self.vc[p].tick(p);
                self.held[p].retain(|(l, _)| l != lock);
            }
            CheckEvent::Rebind { lock, ranges, .. } => {
                let ls = &mut self.locks[*lock as usize];
                let old = std::mem::replace(&mut ls.cur, ranges.clone());
                ls.prev.extend(old);
                ls.rebound = true;
                self.bound.extend(ranges.iter().cloned());
            }
            CheckEvent::BarrierEnter { barrier, .. } => {
                let b = *barrier as usize;
                let e = self.enter_idx[p][b];
                self.enter_idx[p][b] += 1;
                while self.accs[b].len() <= e {
                    self.accs[b].push(VClock::zero(self.procs));
                }
                self.accs[b][e].join(&self.vc[p]);
                self.vc[p].tick(p);
            }
            CheckEvent::BarrierExit { barrier, .. } => {
                let b = *barrier as usize;
                let e = self.exit_idx[p][b];
                self.exit_idx[p][b] += 1;
                let acc = self.accs[b][e].clone();
                self.vc[p].join(&acc);
            }
            CheckEvent::Apply { bytes, .. } => {
                self.report.applies[p].count += 1;
                self.report.applies[p].bytes += bytes;
            }
        }
    }
}

/// Analyzes one run's per-processor event logs against `spec`.
///
/// `logs[p]` must be processor `p`'s events in program order with
/// monotone times (which [`crate::CheckLog`] guarantees).
pub fn analyze(spec: &CheckSpec, logs: &[Vec<CheckEvent>]) -> CheckReport {
    let procs = logs.len();
    let mut bound: Vec<AddrRange> = Vec::new();
    for l in &spec.locks {
        bound.extend(l.iter().cloned());
    }
    for b in &spec.barriers {
        bound.extend(b.ranges.iter().cloned());
        if let Some(parts) = &b.partitions {
            for part in parts {
                bound.extend(part.iter().cloned());
            }
        }
    }
    let mut a = Analysis {
        spec,
        procs,
        vc: (0..procs).map(|p| VClock::new(procs, p)).collect(),
        locks: spec
            .locks
            .iter()
            .map(|ranges| LockState {
                cur: ranges.clone(),
                prev: Vec::new(),
                rebound: false,
                clock: VClock::zero(procs),
            })
            .collect(),
        held: vec![Vec::new(); procs],
        accs: vec![Vec::new(); spec.barriers.len()],
        enter_idx: vec![vec![0; spec.barriers.len()]; procs],
        exit_idx: vec![vec![0; spec.barriers.len()]; procs],
        lines: HashMap::new(),
        bound,
        dedup: HashMap::new(),
        report: CheckReport {
            applies: vec![ApplyStats::default(); procs],
            events: logs.iter().map(|l| l.len() as u64).sum(),
            ..CheckReport::default()
        },
    };
    // K-way merge by (virtual time, processor id).
    let mut idx = vec![0usize; procs];
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (p, i) in idx.iter().enumerate() {
            if let Some(ev) = logs[p].get(*i) {
                if best.is_none_or(|(t, _)| ev.at() < t) {
                    best = Some((ev.at(), p));
                }
            }
        }
        let Some((_, p)) = best else { break };
        let ev = logs[p][idx[p]].clone();
        idx[p] += 1;
        a.step(p, &ev);
    }
    a.report
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // one-range bindings are the intended type here
mod tests {
    use super::*;
    use crate::spec::BarrierRanges;
    use crate::CheckLog;
    use midway_mem::LayoutBuilder;

    /// Two shared 64-byte arrays with 8-byte lines at known addresses,
    /// one private array; one lock over the first array's first half, one
    /// partitioned barrier over the second array.
    fn spec(procs: usize) -> (CheckSpec, u64, u64, u64) {
        let mut lb = LayoutBuilder::new();
        let a = lb.alloc("a", 64, MemClass::Shared, 3);
        let b = lb.alloc("b", 64, MemClass::Shared, 3);
        let p = lb.alloc("scratch", 64, MemClass::Private, 3);
        let (a0, b0, p0) = (a.addr.raw(), b.addr.raw(), p.addr.raw());
        let per = 64 / procs as u64;
        let spec = CheckSpec {
            layout: lb.build(),
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
        (spec, a0, b0, p0)
    }

    #[test]
    fn lock_discipline_is_clean_and_transfers_happen_before() {
        let (spec, a0, _, _) = spec(2);
        let mut p0 = CheckLog::new();
        p0.acquire(10, 0, true);
        p0.write(11, a0, 8);
        p0.release(12, 0, true);
        let mut p1 = CheckLog::new();
        p1.acquire(50, 0, true);
        p1.read(51, a0, 8);
        p1.release(52, 0, true);
        let r = analyze(&spec, &[p0.into_events(), p1.into_events()]);
        assert!(r.is_clean(), "{}", r.summary());
        assert_eq!(r.events, 6);
    }

    #[test]
    fn read_without_the_lock_chain_is_stale_and_unguarded() {
        let (spec, a0, _, _) = spec(2);
        let mut p0 = CheckLog::new();
        p0.acquire(10, 0, true);
        p0.write(11, a0, 8);
        p0.release(12, 0, true);
        let mut p1 = CheckLog::new();
        p1.read(51, a0, 8); // no acquire: unguarded AND stale
        let r = analyze(&spec, &[p0.into_events(), p1.into_events()]);
        assert_eq!(r.count(FindingKind::StaleRead), 1);
        assert_eq!(r.count(FindingKind::UnguardedRead), 1);
        let s = r.first_of(FindingKind::StaleRead).unwrap();
        assert_eq!(s.proc, 1);
        assert_eq!(s.stale.unwrap().writer, 0);
        assert_eq!(s.addr, a0);
        assert_eq!(s.alloc.as_deref(), Some("a"));
    }

    #[test]
    fn unguarded_write_to_bound_data_is_reported_once_per_line() {
        let (spec, a0, _, _) = spec(2);
        let mut p1 = CheckLog::new();
        p1.write(5, a0 + 8, 4);
        p1.release(6, 0, true); // break coalescing
        p1.acquire(7, 0, true);
        p1.release(8, 0, true);
        p1.write(9, a0 + 8, 4); // same line again: dedups, still counted
        let r = analyze(&spec, &[Vec::new(), p1.into_events()]);
        // The 5..9 sequence holds the lock only between acquire/release.
        assert_eq!(r.count(FindingKind::UnguardedWrite), 2);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].occurrences, 2);
        assert_eq!(r.findings[0].proc, 1);
    }

    #[test]
    fn a_repeat_past_the_findings_cap_is_only_counted() {
        // 300 processors each write a bound line unguarded, then again:
        // 300 distinct findings, 44 of them past the 256 kept.
        let procs = 300;
        let (spec, a0, b0, _) = spec(procs);
        let logs: Vec<_> = (0..procs)
            .map(|_| {
                let mut log = CheckLog::new();
                log.write(1, a0, 8);
                log.read(2, b0, 8); // break coalescing
                log.write(3, a0, 8);
                log.into_events()
            })
            .collect();
        let r = analyze(&spec, &logs);
        assert_eq!(r.findings.len(), MAX_FINDINGS);
        assert_eq!(r.count(FindingKind::UnguardedWrite), 2 * procs as u64);
        assert!(r.findings.iter().all(|f| f.occurrences == 2));
    }

    #[test]
    fn barrier_partitions_guard_writes_and_publish_reads() {
        let (spec, _, b0, _) = spec(2);
        let mut p0 = CheckLog::new();
        p0.write(1, b0, 8); // own partition
        p0.barrier_enter(2, 0);
        p0.barrier_exit(40, 0);
        p0.write(41, b0 + 32, 8); // proc 1's partition!
        let mut p1 = CheckLog::new();
        p1.barrier_enter(3, 0);
        p1.barrier_exit(42, 0);
        p1.read(43, b0, 8); // fine: published by the barrier
        let r = analyze(&spec, &[p0.into_events(), p1.into_events()]);
        assert_eq!(r.count(FindingKind::UnguardedWrite), 1);
        assert_eq!(r.count(FindingKind::StaleRead), 0);
        assert_eq!(r.count(FindingKind::UnguardedRead), 0);
        let f = r.first_of(FindingKind::UnguardedWrite).unwrap();
        assert_eq!((f.proc, f.addr), (0, b0 + 32));
    }

    #[test]
    fn reading_ahead_of_the_barrier_is_stale() {
        let (spec, _, b0, _) = spec(2);
        let mut p0 = CheckLog::new();
        p0.write(1, b0, 8);
        p0.barrier_enter(2, 0);
        p0.barrier_exit(40, 0);
        let mut p1 = CheckLog::new();
        p1.read(30, b0, 8); // before entering the barrier: stale
        p1.barrier_enter(31, 0);
        p1.barrier_exit(41, 0);
        p1.read(42, b0, 8); // after: clean
        let r = analyze(&spec, &[p0.into_events(), p1.into_events()]);
        assert_eq!(r.count(FindingKind::StaleRead), 1);
        assert_eq!(r.first_of(FindingKind::StaleRead).unwrap().at, 30);
    }

    #[test]
    fn second_episode_requires_its_own_barrier_crossing() {
        let (spec, _, b0, _) = spec(2);
        let mut p0 = CheckLog::new();
        p0.barrier_enter(1, 0);
        p0.barrier_exit(20, 0);
        p0.write(21, b0, 8);
        p0.barrier_enter(22, 0);
        p0.barrier_exit(60, 0);
        let mut p1 = CheckLog::new();
        p1.barrier_enter(2, 0);
        p1.barrier_exit(25, 0);
        p1.read(30, b0, 8); // episode-1 write not yet published: stale
        p1.barrier_enter(31, 0);
        p1.barrier_exit(61, 0);
        p1.read(62, b0, 8); // clean now
        let r = analyze(&spec, &[p0.into_events(), p1.into_events()]);
        assert_eq!(r.count(FindingKind::StaleRead), 1);
    }

    #[test]
    fn access_outside_a_rebound_locks_new_ranges_is_a_binding_violation() {
        let (spec, a0, _, _) = spec(2);
        let mut p0 = CheckLog::new();
        p0.acquire(1, 0, true);
        p0.rebind(2, 0, vec![a0..a0 + 16]);
        p0.write(3, a0 + 24, 8); // in the retired half of the old binding
        p0.release(4, 0, true);
        let r = analyze(&spec, &[p0.into_events(), Vec::new()]);
        assert_eq!(r.count(FindingKind::BindingViolation), 1);
        assert_eq!(r.count(FindingKind::UnguardedWrite), 0);
        let f = r.first_of(FindingKind::BindingViolation).unwrap();
        assert_eq!(f.lock, Some(0));
        assert_eq!(f.addr, a0 + 24);
    }

    #[test]
    fn never_bound_shared_data_is_exempt_from_coverage_but_not_staleness() {
        let (spec, a0, _, _) = spec(2);
        // Address range a0+32..a0+64 is shared but bound to nothing.
        let free = a0 + 32;
        let mut p0 = CheckLog::new();
        p0.write(1, free, 8);
        let mut p1 = CheckLog::new();
        p1.read(10, free, 8); // cross-processor without sync: stale
        let r = analyze(&spec, &[p0.into_events(), p1.into_events()]);
        assert_eq!(r.count(FindingKind::UnguardedWrite), 0);
        assert_eq!(r.count(FindingKind::UnguardedRead), 0);
        assert_eq!(r.count(FindingKind::StaleRead), 1);
    }

    #[test]
    fn private_regions_are_ignored_entirely() {
        let (spec, _, _, p0a) = spec(2);
        let mut p0 = CheckLog::new();
        p0.write(1, p0a, 8);
        let mut p1 = CheckLog::new();
        p1.read(2, p0a, 8);
        let r = analyze(&spec, &[p0.into_events(), p1.into_events()]);
        assert!(r.is_clean(), "{}", r.summary());
    }

    #[test]
    fn writes_under_a_shared_hold_are_unguarded() {
        let (spec, a0, _, _) = spec(2);
        let mut p0 = CheckLog::new();
        p0.acquire(1, 0, false); // shared mode
        p0.write(2, a0, 8);
        p0.read(3, a0, 8); // reads are fine under a shared hold
        p0.release(4, 0, false);
        let r = analyze(&spec, &[p0.into_events(), Vec::new()]);
        assert_eq!(r.count(FindingKind::UnguardedWrite), 1);
        assert_eq!(r.count(FindingKind::UnguardedRead), 0);
        // The stale check ignores the processor's own write.
        assert_eq!(r.count(FindingKind::StaleRead), 0);
    }

    #[test]
    fn apply_events_are_tallied_per_processor() {
        let (spec, _, _, _) = spec(2);
        let mut p1 = CheckLog::new();
        p1.apply(5, 128);
        p1.apply(9, 64);
        let r = analyze(&spec, &[Vec::new(), p1.into_events()]);
        assert_eq!(
            r.applies[1],
            ApplyStats {
                count: 2,
                bytes: 192
            }
        );
        assert_eq!(r.applies[0], ApplyStats::default());
    }
}
