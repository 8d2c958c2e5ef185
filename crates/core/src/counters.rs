//! Per-processor invocation counters (the rows of the paper's Table 2).

/// Declares [`Counters`] from one field list, so the struct, its
/// element-wise operations and the order a trace file stores the fields
/// in cannot drift apart. Fields after `@recovery` are the
/// crash-tolerance counters [`Counters::sans_recovery`] zeroes.
macro_rules! counters {
    (
        $( $(#[$doc:meta])* $field:ident, )*
        @recovery
        $( $(#[$rdoc:meta])* $rfield:ident, )*
    ) => {
        /// Counts of every primitive operation a processor performed, plus
        /// general protocol activity. Tables 2–5 and Figures 3–4 are
        /// derived from these.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $( $(#[$doc])* pub $field: u64, )*
            $( $(#[$rdoc])* pub $rfield: u64, )*
        }

        impl Counters {
            /// Every counter in declaration order: Table 2's rows, the
            /// shared protocol counters, then the crash-tolerance ones.
            /// Both directions of the trace codec walk this.
            pub fn fields_mut(&mut self) -> [&mut u64; 24] {
                [ $( &mut self.$field, )* $( &mut self.$rfield, )* ]
            }

            /// Element-wise sum (for cluster-wide aggregation).
            pub fn add(&mut self, other: &Counters) {
                $( self.$field += other.$field; )*
                $( self.$rfield += other.$rfield; )*
            }

            /// A copy with every crash-tolerance counter zeroed: what the
            /// processor did at the *application and protocol* level,
            /// comparable across runs that differ only in crash schedule
            /// or checkpoint interval.
            pub fn sans_recovery(&self) -> Counters {
                Counters { $( $rfield: 0, )* ..*self }
            }
        }
    };
}

counters! {
    // --- RT-DSM (Table 2, upper half) ---
    /// Dirtybits set by the write-trapping templates.
    dirtybits_set,
    /// Writes to private memory that went through a shared-path template.
    dirtybits_misclassified,
    /// Clean dirtybits read during collection scans.
    clean_dirtybits_read,
    /// Dirty dirtybits read during collection scans.
    dirty_dirtybits_read,
    /// Dirtybits stamped with a new timestamp at the requesting processor.
    dirtybits_updated,

    // --- VM-DSM (Table 2, lower half) ---
    /// Page write faults serviced (includes twin + protection).
    write_faults,
    /// Pages diffed against their twins.
    pages_diffed,
    /// Pages write-protected after cleaning.
    pages_write_protected,
    /// Bytes of incoming updates applied to twins of dirty pages.
    twin_bytes_updated,

    // --- shared ---
    /// Application data bytes this processor sent in consistency traffic.
    data_bytes_sent,
    /// Application data bytes received.
    data_bytes_received,
    /// Received bytes that were already current locally (RT's exactly-once
    /// filter dropped them).
    redundant_bytes_received,
    /// Lock acquisitions completed.
    lock_acquires,
    /// Lock data transfers performed as the releasing side.
    lock_transfers_served,
    /// Transfers that shipped the full bound data instead of a diff/history
    /// (VM incarnation fallback, rebinding, or blast).
    full_data_sends,
    /// Barrier episodes completed.
    barrier_waits,

    @recovery
    /// Crashes this processor suffered (and recovered from).
    crashes,
    /// Cycles spent dark across all crashes (restart downtime).
    downtime_cycles,
    /// Messages and timers discarded because they were in flight to this
    /// processor while it was down (its NIC was dark).
    fenced_messages,
    /// Checkpoint images written to stable storage.
    checkpoints_written,
    /// Total bytes of checkpoint images written.
    checkpoint_bytes,
    /// Bytes appended to the stable-storage write-ahead log.
    wal_bytes_logged,
    /// Bytes read back (checkpoint image + log) during recoveries.
    recovery_replay_bytes,
    /// Cycles charged for recovery work itself (decode + log replay),
    /// excluding the downtime.
    recovery_cycles,
}

impl Counters {
    /// The per-processor average of a set of counters, as the paper's
    /// Table 2 reports ("averages for all processors in an 8-way run").
    pub fn average(all: &[Counters]) -> AvgCounters {
        let n = all.len().max(1) as f64;
        let mut sum = Counters::default();
        for c in all {
            sum.add(c);
        }
        AvgCounters { sum, n }
    }

    /// Fraction of scanned dirtybits that were dirty (Table 2's "percent
    /// dirty data" analogue for RT).
    pub fn percent_dirty(&self) -> f64 {
        let scanned = self.clean_dirtybits_read + self.dirty_dirtybits_read;
        if scanned == 0 {
            return 0.0;
        }
        100.0 * self.dirty_dirtybits_read as f64 / scanned as f64
    }
}

/// Per-processor averages, exposed field-by-field as `f64`.
#[derive(Clone, Copy, Debug)]
pub struct AvgCounters {
    sum: Counters,
    n: f64,
}

impl AvgCounters {
    /// The underlying cluster-wide totals.
    pub fn totals(&self) -> &Counters {
        &self.sum
    }

    /// Number of processors averaged over.
    pub fn procs(&self) -> f64 {
        self.n
    }

    /// Average of an arbitrary counter field, selected by closure.
    pub fn avg(&self, f: impl Fn(&Counters) -> u64) -> f64 {
        f(&self.sum) as f64 / self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_element_wise() {
        let mut a = Counters {
            dirtybits_set: 10,
            write_faults: 2,
            ..Counters::default()
        };
        let b = Counters {
            dirtybits_set: 5,
            data_bytes_sent: 100,
            ..Counters::default()
        };
        a.add(&b);
        assert_eq!(a.dirtybits_set, 15);
        assert_eq!(a.write_faults, 2);
        assert_eq!(a.data_bytes_sent, 100);
    }

    #[test]
    fn average_divides_by_processor_count() {
        let a = Counters {
            dirtybits_set: 10,
            ..Counters::default()
        };
        let b = Counters {
            dirtybits_set: 30,
            ..Counters::default()
        };
        let avg = Counters::average(&[a, b]);
        assert_eq!(avg.avg(|c| c.dirtybits_set), 20.0);
        assert_eq!(avg.totals().dirtybits_set, 40);
    }

    #[test]
    fn sans_recovery_zeroes_only_crash_fields() {
        let c = Counters {
            lock_acquires: 9,
            crashes: 2,
            downtime_cycles: 1000,
            fenced_messages: 3,
            checkpoints_written: 4,
            checkpoint_bytes: 5000,
            wal_bytes_logged: 600,
            recovery_replay_bytes: 700,
            recovery_cycles: 800,
            ..Counters::default()
        };
        let s = c.sans_recovery();
        assert_eq!(s.lock_acquires, 9);
        assert_eq!(
            s,
            Counters {
                lock_acquires: 9,
                ..Counters::default()
            }
        );
    }

    #[test]
    fn field_walk_visits_every_counter_once_in_declaration_order() {
        let mut c = Counters::default();
        for (i, f) in c.fields_mut().into_iter().enumerate() {
            *f = i as u64 + 1;
        }
        assert_eq!((c.dirtybits_set, c.barrier_waits), (1, 16));
        assert_eq!((c.crashes, c.recovery_cycles), (17, 24));
        let mut doubled = c;
        doubled.add(&c);
        let sum: u64 = doubled.fields_mut().into_iter().map(|f| *f).sum();
        assert_eq!(sum, 2 * (1..=24).sum::<u64>());
        let sum: u64 = c.sans_recovery().fields_mut().into_iter().map(|f| *f).sum();
        assert_eq!(sum, (1..=16).sum::<u64>());
    }

    #[test]
    fn percent_dirty_handles_zero_scans() {
        assert_eq!(Counters::default().percent_dirty(), 0.0);
        let c = Counters {
            clean_dirtybits_read: 75,
            dirty_dirtybits_read: 25,
            ..Counters::default()
        };
        assert!((c.percent_dirty() - 25.0).abs() < 1e-9);
    }
}
