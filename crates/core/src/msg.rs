//! The DSM protocol messages and their wire sizes.

use std::sync::Arc;

use midway_proto::{
    BarrierId, Binding, LockId, MaskedSet, Mode, Update, UpdateSet, MSG_HEADER_BYTES,
    RELIABLE_HEADER_BYTES,
};

/// The data a grant carries, per backend.
#[derive(Clone, Debug)]
pub enum GrantPayload {
    /// No data: the requester was already the owner of record.
    Current,
    /// RT-DSM: timestamped line updates plus the releaser's logical time.
    Rt {
        /// The lines newer than the requester's last-seen time.
        set: UpdateSet,
        /// The releaser's logical time; the requester's cache is consistent
        /// as of this time.
        consist_time: u64,
        /// The lock's current binding (it may have been rebound).
        binding: Binding,
    },
    /// VM-DSM: the incarnation-ordered updates the requester is missing, or
    /// the full bound data when the history cannot serve it.
    ///
    /// Updates are `Arc`-shared with the sender's lock history (and, after
    /// the grant lands, with the receiver's): building and absorbing a
    /// grant moves reference counts, not item buffers. Wire-size accounting
    /// is unchanged — each hop still charges the full serialized size.
    Vm {
        /// Missing incarnations, oldest first (empty when `full` is used).
        updates: Vec<Arc<Update>>,
        /// Full bound data fallback (always has `full == true`; its
        /// incarnation matches the payload's `incarnation` field).
        full: Option<Arc<Update>>,
        /// The incarnation the requester is current as of after applying.
        incarnation: u64,
        /// The lock's current binding.
        binding: Binding,
    },
    /// Blast: the full bound data, with no write detection behind it.
    Flat {
        /// The data.
        set: UpdateSet,
        /// The lock's current binding.
        binding: Binding,
    },
}

impl GrantPayload {
    /// Application data bytes carried (the paper's "data transferred").
    pub fn data_bytes(&self) -> u64 {
        match self {
            GrantPayload::Current => 0,
            GrantPayload::Rt { set, .. } => set.data_bytes(),
            GrantPayload::Vm { updates, full, .. } => {
                updates.iter().map(|u| u.set.data_bytes()).sum::<u64>()
                    + full.as_ref().map_or(0, |u| u.set.data_bytes())
            }
            GrantPayload::Flat { set, .. } => set.data_bytes(),
        }
    }

    /// Total wire bytes (data + per-item and per-update headers).
    pub fn wire_size(&self) -> u64 {
        match self {
            GrantPayload::Current => 0,
            GrantPayload::Rt { set, binding, .. } => set.wire_size() + binding.wire_size() + 8,
            GrantPayload::Vm {
                updates,
                full,
                binding,
                ..
            } => {
                updates.iter().map(|u| u.wire_size()).sum::<u64>()
                    + full.as_ref().map_or(0, |u| u.set.wire_size())
                    + binding.wire_size()
                    + 8
            }
            GrantPayload::Flat { set, binding } => set.wire_size() + binding.wire_size(),
        }
    }
}

/// A message between DSM runtime instances.
#[derive(Clone, Debug)]
pub enum DsmMsg {
    /// Requester → home: acquire a lock.
    AcquireReq {
        /// The lock.
        lock: LockId,
        /// Exclusive or shared.
        mode: Mode,
        /// What the requester has already seen (opaque to the home).
        seen: (u64, u64),
    },
    /// Home → owner of record: run write collection for `requester`.
    TransferReq {
        /// The lock.
        lock: LockId,
        /// The acquiring processor.
        requester: usize,
        /// Exclusive or shared.
        mode: Mode,
        /// The requester's last-seen token.
        seen: (u64, u64),
    },
    /// Owner of record → requester: the lock is yours; here is the data.
    Grant {
        /// The lock.
        lock: LockId,
        /// The granted mode.
        mode: Mode,
        /// The consistency payload.
        payload: GrantPayload,
    },
    /// Holder → home: the lock is released.
    ReleaseNotify {
        /// The lock.
        lock: LockId,
        /// The mode being released.
        mode: Mode,
    },
    /// Processor → manager: arrived at a barrier with collected updates.
    BarrierArrive {
        /// The barrier.
        barrier: BarrierId,
        /// This processor's modifications to the bound data.
        set: UpdateSet,
        /// The arriving processor's logical time.
        time: u64,
    },
    /// Manager → processor: everyone arrived; here is everyone else's data.
    ///
    /// Every release of an episode — flat or tree, to any receiver — shares
    /// one merged set behind an `Arc`; "everyone else's" is a view, not a
    /// copy. A flat manager sends each receiver the shared set masked by
    /// that receiver's own addresses. A tree node forwards the whole set
    /// (its children need all of it to forward in turn) and masks its own
    /// addresses locally. Sizes, byte counters and copy charges are those
    /// of the visible items only, so a flat release costs exactly what the
    /// personalized set it stands for would; the socket codec writes only
    /// the visible items, so that personalized set is also what travels on
    /// a real wire, and a decoded release has nothing left to skip.
    BarrierRelease {
        /// The barrier.
        barrier: BarrierId,
        /// The shared merged set and the receiver's skip list.
        set: MaskedSet,
        /// The sender's logical time.
        time: u64,
    },
}

impl DsmMsg {
    /// The message's bytes on the wire.
    pub fn wire_size(&self) -> u64 {
        MSG_HEADER_BYTES
            + match self {
                DsmMsg::AcquireReq { .. } => 24,
                DsmMsg::TransferReq { .. } => 32,
                DsmMsg::Grant { payload, .. } => 8 + payload.wire_size(),
                DsmMsg::ReleaseNotify { .. } => 8,
                DsmMsg::BarrierArrive { set, .. } => 16 + set.wire_size(),
                DsmMsg::BarrierRelease { set, .. } => 16 + set.wire_size(),
            }
    }

    /// Application data bytes carried (protocol overhead excluded).
    pub fn data_bytes(&self) -> u64 {
        match self {
            DsmMsg::Grant { payload, .. } => payload.data_bytes(),
            DsmMsg::BarrierArrive { set, .. } => set.data_bytes(),
            DsmMsg::BarrierRelease { set, .. } => set.data_bytes(),
            _ => 0,
        }
    }
}

/// What actually travels through the simulated network: a DSM protocol
/// message in one of two framings, or a self-posted timer.
///
/// On a trusted network (faults disabled) every protocol message goes as
/// [`NetMsg::Raw`] — byte-for-byte the same wire size and event stream as
/// before the reliable channel existed, which is what keeps pre-change
/// traces replaying bit-for-bit. With faults enabled the link layer wraps
/// every message in [`NetMsg::Data`] framing and answers with
/// [`NetMsg::Ack`]s.
#[derive(Clone, Debug)]
pub enum NetMsg {
    /// Trusted-network fast path: the bare protocol message, no framing.
    Raw(DsmMsg),
    /// Reliable framing: per-pair sequence number plus a piggybacked
    /// cumulative ack for the reverse direction.
    Data {
        /// This frame's sequence number on the (sender → receiver) pair.
        seq: u64,
        /// Cumulative ack: the sender has delivered everything up to this
        /// sequence number of the reverse direction.
        ack: u64,
        /// The sender's incarnation epoch (0 until its first crash; bumped
        /// at every recovery). Carried on the wire only when nonzero, so a
        /// never-crashed run's frames are byte-identical to the epoch-less
        /// format.
        epoch: u32,
        /// The protocol message.
        msg: DsmMsg,
    },
    /// Explicit cumulative acknowledgement (when no reverse data frame is
    /// available to piggyback on).
    Ack {
        /// Everything up to this sequence number has been delivered.
        ack: u64,
        /// The sender's incarnation epoch (see [`NetMsg::Data::epoch`]).
        epoch: u32,
    },
    /// Self-posted timer used by `Proc::idle` backoff waits.
    Tick,
    /// Self-posted retransmit timer for the reliable channel to `peer`.
    RetxCheck {
        /// The peer whose send channel should be checked.
        peer: usize,
    },
    /// Self-posted crash notice from the fault plan's schedule: the
    /// processor fails on delivery and restarts `down` cycles later.
    /// Never travels between processors.
    Crash {
        /// Downtime before the restart, in cycles.
        down: u64,
    },
}

/// Wire size of an explicit ack frame.
pub(crate) const ACK_FRAME_BYTES: u64 = MSG_HEADER_BYTES + 8;

impl NetMsg {
    /// The message's bytes on the wire. Timers never reach the network.
    /// An epoch field is charged (4 bytes) only once nonzero: frames sent
    /// before any crash are byte-identical to the epoch-less format.
    pub fn wire_size(&self) -> u64 {
        let epoch_bytes = |e: u32| if e > 0 { 4 } else { 0 };
        match self {
            NetMsg::Raw(m) => m.wire_size(),
            NetMsg::Data { msg, epoch, .. } => {
                msg.wire_size() + RELIABLE_HEADER_BYTES + epoch_bytes(*epoch)
            }
            NetMsg::Ack { epoch, .. } => ACK_FRAME_BYTES + epoch_bytes(*epoch),
            NetMsg::Tick | NetMsg::RetxCheck { .. } | NetMsg::Crash { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_proto::UpdateItem;

    fn set(bytes: usize) -> UpdateSet {
        UpdateSet {
            items: vec![UpdateItem {
                addr: 0x40_0000,
                data: vec![0; bytes],
                ts: 5,
            }],
        }
    }

    fn one_line_binding() -> Binding {
        let range = 0x40_0000..0x40_0040;
        Binding::new(vec![range])
    }

    #[test]
    fn grant_sizes_count_data_and_headers() {
        let p = GrantPayload::Rt {
            set: set(64),
            consist_time: 9,
            binding: one_line_binding(),
        };
        assert_eq!(p.data_bytes(), 64);
        assert!(p.wire_size() > 64);
        let m = DsmMsg::Grant {
            lock: LockId(0),
            mode: Mode::Exclusive,
            payload: p,
        };
        assert_eq!(m.data_bytes(), 64);
        assert!(m.wire_size() > m.data_bytes());
    }

    #[test]
    fn vm_payload_sums_updates_and_full() {
        let p = GrantPayload::Vm {
            updates: vec![
                Arc::new(Update {
                    incarnation: 1,
                    set: set(16),
                    full: false,
                }),
                Arc::new(Update {
                    incarnation: 2,
                    set: set(8),
                    full: false,
                }),
            ],
            full: None,
            incarnation: 2,
            binding: one_line_binding(),
        };
        assert_eq!(p.data_bytes(), 24);
    }

    #[test]
    fn control_messages_carry_no_app_data() {
        let m = DsmMsg::AcquireReq {
            lock: LockId(3),
            mode: Mode::Shared,
            seen: (1, 0),
        };
        assert_eq!(m.data_bytes(), 0);
        assert!(m.wire_size() >= MSG_HEADER_BYTES);
    }
}
