//! Findings and the per-run checker report.

use std::fmt;

/// The four entry-consistency violations the checker detects.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A store to shared, bound data not covered by any exclusively held
    /// lock's binding or by the writer's own barrier partition.
    UnguardedWrite,
    /// A load of shared, bound data not covered by any held lock's
    /// binding or any barrier binding.
    UnguardedRead,
    /// A load of a line whose most recent write does not happen-before
    /// the reader's current vector clock.
    StaleRead,
    /// An access that misses every current binding but falls inside
    /// ranges a currently-held lock was bound to before a `rebind`.
    BindingViolation,
}

impl FindingKind {
    /// Every kind, in severity/report order.
    pub const ALL: [FindingKind; 4] = [
        FindingKind::UnguardedWrite,
        FindingKind::UnguardedRead,
        FindingKind::StaleRead,
        FindingKind::BindingViolation,
    ];

    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::UnguardedWrite => "unguarded-write",
            FindingKind::UnguardedRead => "unguarded-read",
            FindingKind::StaleRead => "stale-read",
            FindingKind::BindingViolation => "binding-violation",
        }
    }
}

/// Stale-read provenance: who wrote the line the reader missed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Staleness {
    /// The processor whose write the reader has not synchronized with.
    pub writer: usize,
    /// The write's index in the writer's op stream.
    pub write_op: usize,
}

/// One deduplicated finding with full provenance.
#[derive(Clone, Debug)]
pub struct Finding {
    /// What went wrong.
    pub kind: FindingKind,
    /// The processor that performed the offending access.
    pub proc: usize,
    /// The access's index in the processor's op stream.
    pub op: usize,
    /// First byte of the offending access.
    pub addr: u64,
    /// Access length in bytes.
    pub len: u32,
    /// The allocation the address falls in, for readable reports.
    pub alloc: Option<String>,
    /// For [`FindingKind::BindingViolation`]: the held, rebound lock
    /// whose former ranges the access fell in.
    pub lock: Option<u32>,
    /// For [`FindingKind::StaleRead`]: the missed write.
    pub stale: Option<Staleness>,
    /// How many occurrences collapsed into this finding.
    pub occurrences: u64,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} proc {} op {}: {:#x}+{}",
            self.kind.label(),
            self.proc,
            self.op,
            self.addr,
            self.len
        )?;
        if let Some(a) = &self.alloc {
            write!(f, " in \"{a}\"")?;
        }
        if let Some(l) = self.lock {
            write!(f, " (outside rebound lock {l}'s current binding)")?;
        }
        if let Some(s) = self.stale {
            write!(f, " (missed write by proc {} op {})", s.writer, s.write_op)?;
        }
        if self.occurrences > 1 {
            write!(f, " [x{}]", self.occurrences)?;
        }
        Ok(())
    }
}

/// Findings kept in the report; further occurrences only bump counts.
pub(crate) const MAX_FINDINGS: usize = 256;

/// The result of analyzing one run's recording.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Deduplicated findings (at most 256), in the order the analysis
    /// first detected them.
    pub findings: Vec<Finding>,
    /// Total occurrences per kind, indexed like [`FindingKind::ALL`], in
    /// declaration order (exact even when the findings list is capped).
    pub counts: [u64; 4],
    /// Ops analyzed across all processors.
    pub events: u64,
}

impl CheckReport {
    /// Total occurrences of `kind`.
    pub fn count(&self, kind: FindingKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Total occurrences across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether the run was free of findings.
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Per-kind counts in [`FindingKind::ALL`] order, then the total: the
    /// row a findings table prints.
    pub fn counts_row(&self) -> Vec<(&'static str, u64)> {
        FindingKind::ALL
            .iter()
            .map(|k| (k.label(), self.count(*k)))
            .chain([("total", self.total())])
            .collect()
    }

    /// The first finding of `kind`, if any survived the cap.
    pub fn first_of(&self, kind: FindingKind) -> Option<&Finding> {
        self.findings.iter().find(|f| f.kind == kind)
    }

    /// One-line summary for CLI output.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!("clean ({} ops analyzed)", self.events)
        } else {
            let per: Vec<String> = FindingKind::ALL
                .iter()
                .filter(|k| self.count(**k) > 0)
                .map(|k| format!("{} {}", self.count(*k), k.label()))
                .collect();
            format!("{} findings: {}", self.total(), per.join(", "))
        }
    }

    pub(crate) fn record(&mut self, finding: Finding, dedup_hit: Option<usize>) {
        self.counts[finding.kind as usize] += 1;
        match dedup_hit {
            Some(i) => self.findings[i].occurrences += 1,
            None if self.findings.len() < MAX_FINDINGS => self.findings.push(finding),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_survive_the_findings_cap() {
        let mut r = CheckReport::default();
        for i in 0..(MAX_FINDINGS + 10) {
            r.record(
                Finding {
                    kind: FindingKind::UnguardedWrite,
                    proc: 0,
                    op: i,
                    addr: i as u64 * 64,
                    len: 4,
                    alloc: None,
                    lock: None,
                    stale: None,
                    occurrences: 1,
                },
                None,
            );
        }
        assert_eq!(r.findings.len(), MAX_FINDINGS);
        assert_eq!(
            r.count(FindingKind::UnguardedWrite),
            (MAX_FINDINGS + 10) as u64
        );
        assert!(!r.is_clean());
    }

    #[test]
    fn check_counts_row_covers_every_kind_plus_total() {
        let r = CheckReport {
            counts: [3, 0, 2, 1],
            events: 10,
            ..CheckReport::default()
        };
        let row = r.counts_row();
        assert_eq!(row.len(), FindingKind::ALL.len() + 1);
        for (k, (label, n)) in FindingKind::ALL.iter().zip(&row) {
            assert_eq!(*label, k.label());
            assert_eq!(*n, r.count(*k));
        }
        assert_eq!(row.last(), Some(&("total", 6)));
    }

    #[test]
    fn summary_lists_only_present_kinds() {
        let mut r = CheckReport::default();
        assert!(r.summary().starts_with("clean"));
        r.record(
            Finding {
                kind: FindingKind::StaleRead,
                proc: 1,
                op: 5,
                addr: 0x100,
                len: 8,
                alloc: Some("edges".into()),
                lock: None,
                stale: Some(Staleness {
                    writer: 0,
                    write_op: 3,
                }),
                occurrences: 1,
            },
            None,
        );
        assert_eq!(r.summary(), "1 findings: 1 stale-read");
        let shown = format!("{}", r.findings[0]);
        assert_eq!(
            shown,
            "stale-read proc 1 op 5: 0x100+8 in \"edges\" (missed write by proc 0 op 3)"
        );
    }
}
