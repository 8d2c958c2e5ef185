//! Per-processor counters: the rows of the paper's Table 2, the crash
//! recovery's and the reliable channel's, declared once.

use midway_sim::FaultDecision;

/// Declares [`Counters`] from one field list, so the struct, its
/// element-wise operations, its row names and the order a trace file
/// stores the rows in cannot drift apart. Rows after `@recovery` are the
/// crash-tolerance counters [`Counters::sans_recovery`] zeroes; rows after
/// `@delivery` are the network's and the reliable channel's, which
/// [`Counters::sans_delivery`] zeroes.
macro_rules! counters {
    (
        $( $(#[$doc:meta])* $field:ident, )*
        @recovery
        $( $(#[$rdoc:meta])* $rfield:ident, )*
        @delivery
        $( $(#[$ddoc:meta])* $dfield:ident, )*
    ) => {
        /// Counts of every primitive operation a processor performed, plus
        /// general protocol activity, its crash recovery's work and what
        /// the network and the reliable channel did to its messages.
        /// Tables 2–5 and Figures 3–4 are derived from these.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Counters {
            $( $(#[$doc])* pub $field: u64, )*
            $( $(#[$rdoc])* pub $rfield: u64, )*
            $( $(#[$ddoc])* pub $dfield: u64, )*
        }

        impl Counters {
            /// Every row's name, in declaration order: Table 2's rows, the
            /// shared protocol counters, the crash-tolerance ones, then the
            /// delivery ones.
            pub const NAMES: &'static [&'static str] = &[
                $( stringify!($field), )*
                $( stringify!($rfield), )*
                $( stringify!($dfield), )*
            ];

            /// How many rows a processor's record has.
            pub const ROWS: usize = Self::NAMES.len();

            /// Every row's value, in declaration order: what the trace
            /// encoder writes.
            pub fn rows(&self) -> [u64; Self::ROWS] {
                [ $( self.$field, )* $( self.$rfield, )* $( self.$dfield, )* ]
            }

            /// Every row, in declaration order: what the trace decoder
            /// fills.
            pub fn fields_mut(&mut self) -> [&mut u64; Self::ROWS] {
                [
                    $( &mut self.$field, )*
                    $( &mut self.$rfield, )*
                    $( &mut self.$dfield, )*
                ]
            }

            /// Element-wise sum (for cluster-wide aggregation).
            pub fn add(&mut self, other: &Counters) {
                $( self.$field += other.$field; )*
                $( self.$rfield += other.$rfield; )*
                $( self.$dfield += other.$dfield; )*
            }

            /// A copy with every crash-tolerance counter zeroed: what the
            /// processor did at the *application and protocol* level,
            /// comparable across runs that differ only in crash schedule
            /// or checkpoint interval.
            pub fn sans_recovery(&self) -> Counters {
                Counters { $( $rfield: 0, )* ..*self }
            }

            /// A copy with every delivery counter zeroed: comparable across
            /// runs that differ only in what the network did to messages.
            pub fn sans_delivery(&self) -> Counters {
                Counters { $( $dfield: 0, )* ..*self }
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

    @delivery
    /// Messages this processor sent that the network's fault plan
    /// discarded.
    msgs_dropped,
    /// Messages the network delivered twice.
    msgs_duplicated,
    /// Messages the network gave reordering jitter.
    msgs_reordered,
    /// Messages the network stalled well beyond wire time.
    msgs_delayed,
    /// Reliable-channel data frames sent (first transmissions).
    data_frames_sent,
    /// Explicit ack-only frames sent.
    acks_sent,
    /// Data frames retransmitted after a timeout.
    retransmits,
    /// Retransmit timers that fired, whether or not anything was resent.
    retransmit_timer_fires,
    /// Incoming duplicate frames discarded by the sequence check.
    dup_frames_dropped,
    /// Incoming frames that arrived ahead of sequence and were buffered.
    frames_buffered_out_of_order,
    /// Incoming frames discarded for carrying an incarnation epoch older
    /// than their sender's current one (pre-crash stragglers).
    stale_frames_fenced,
    /// Times a peer's frames revealed it had crashed and recovered since
    /// this processor last heard from it.
    peer_recoveries_observed,
}

impl Counters {
    /// Tallies the fate the run's fault plan gave one sent message.
    pub(crate) fn count_fate(&mut self, fate: FaultDecision) {
        match fate {
            FaultDecision::Deliver => {}
            FaultDecision::Drop => self.msgs_dropped += 1,
            FaultDecision::Duplicate { .. } => self.msgs_duplicated += 1,
            FaultDecision::Reorder { .. } => self.msgs_reordered += 1,
            FaultDecision::Delay { .. } => self.msgs_delayed += 1,
        }
    }

    /// Names every row on which two runs' per-processor records differ,
    /// one line per differing processor ("processor 2: retransmits 4 ≠
    /// 5"); empty when they agree.
    pub fn diff(a: &[Counters], b: &[Counters]) -> Vec<String> {
        if a.len() != b.len() {
            return vec![format!("{} ≠ {} processors", a.len(), b.len())];
        }
        let mut lines = Vec::new();
        for (p, (x, y)) in a.iter().zip(b).enumerate() {
            let rows: Vec<String> = (x.rows().into_iter().zip(y.rows()))
                .zip(Counters::NAMES)
                .filter(|((u, v), _)| u != v)
                .map(|((u, v), name)| format!("{name} {u} ≠ {v}"))
                .collect();
            if !rows.is_empty() {
                lines.push(format!("processor {p}: {}", rows.join(", ")));
            }
        }
        lines
    }

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
            retransmits: 4,
            msgs_dropped: 3,
            ..Counters::default()
        };
        a.add(&b);
        a.add(&Counters {
            retransmits: 1,
            crashes: 2,
            ..Counters::default()
        });
        assert_eq!(a.dirtybits_set, 15);
        assert_eq!(a.write_faults, 2);
        assert_eq!(a.data_bytes_sent, 100);
        assert_eq!((a.retransmits, a.msgs_dropped, a.crashes), (5, 3, 2));
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
    fn sans_delivery_zeroes_only_delivery_fields() {
        let c = Counters {
            lock_acquires: 9,
            crashes: 2,
            msgs_dropped: 1,
            msgs_duplicated: 2,
            msgs_reordered: 3,
            msgs_delayed: 4,
            data_frames_sent: 5,
            acks_sent: 6,
            retransmits: 7,
            retransmit_timer_fires: 8,
            dup_frames_dropped: 9,
            frames_buffered_out_of_order: 10,
            stale_frames_fenced: 11,
            peer_recoveries_observed: 12,
            ..Counters::default()
        };
        assert_eq!(
            c.sans_delivery(),
            Counters {
                lock_acquires: 9,
                crashes: 2,
                ..Counters::default()
            }
        );
    }

    #[test]
    fn diff_names_every_differing_row_on_every_processor() {
        let a = [Counters::default(); 3];
        let mut b = a;
        b[0].retransmits = 5;
        b[2].dirtybits_set = 1;
        b[2].msgs_delayed = 2;
        assert_eq!(Counters::diff(&a, &a), Vec::<String>::new());
        assert_eq!(
            Counters::diff(&a, &b),
            vec![
                "processor 0: retransmits 0 ≠ 5",
                "processor 2: dirtybits_set 0 ≠ 1, msgs_delayed 0 ≠ 2",
            ]
        );
        assert_eq!(Counters::diff(&a, &b[..2]), vec!["3 ≠ 2 processors"]);
    }

    #[test]
    fn field_walk_visits_every_counter_once_in_declaration_order() {
        let mut c = Counters::default();
        for (i, f) in c.fields_mut().into_iter().enumerate() {
            *f = i as u64 + 1;
        }
        assert_eq!(c.rows(), std::array::from_fn(|i| i as u64 + 1));
        assert_eq!(Counters::ROWS, 36);
        // The three sections, contiguous and in declaration order.
        let zeroed = |d: Counters| -> Vec<u64> {
            let rows = c.rows().into_iter().zip(d.rows());
            rows.filter(|(a, b)| a != b).map(|(a, _)| a).collect()
        };
        assert_eq!((c.dirtybits_set, c.barrier_waits, c.crashes), (1, 16, 17));
        let recovery: Vec<u64> = (c.crashes..=c.recovery_cycles).collect();
        assert_eq!(zeroed(c.sans_recovery()), recovery);
        assert_eq!(c.msgs_dropped, c.recovery_cycles + 1);
        let delivery: Vec<u64> = (c.msgs_dropped..=c.peer_recoveries_observed).collect();
        assert_eq!(zeroed(c.sans_delivery()), delivery);
        assert_eq!(c.peer_recoveries_observed, Counters::ROWS as u64);
        for (i, name) in [
            (0, "dirtybits_set"),
            (16, "crashes"),
            (35, "peer_recoveries_observed"),
        ] {
            assert_eq!(Counters::NAMES[i], name);
        }
        let mut doubled = c;
        doubled.add(&c);
        assert_eq!(doubled.rows(), c.rows().map(|v| 2 * v));
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
