//! The grant/transfer path: routing home decisions, running write
//! collection at the owner of record, and applying grants at the
//! requester (paper §3.2 / §3.4 — through the detector).

use midway_net::Transport;
use midway_proto::{LockId, Mode, PackedSet, SeenToken};
use midway_sim::Category;

use crate::detect::DetectCx;
use crate::msg::{DsmMsg, GrantPayload, NetMsg};
use crate::trace::TraceOp;

use super::{with_detector, DsmNode};

impl DsmNode {
    /// Executes the transfers a home decision produced. Each is one grant
    /// of the lock, in the order the home serializes them: the order the
    /// checker's recording keeps.
    pub(super) fn do_transfers<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        lock: LockId,
        transfers: Vec<midway_proto::Transfer>,
    ) {
        for t in transfers {
            self.record(TraceOp::Grant {
                lock: lock.0,
                to: t.requester as u32,
                exclusive: t.mode == Mode::Exclusive,
            });
            if t.old_owner == t.requester {
                // The requester's cache is already current: no data moves.
                if t.requester == self.me {
                    self.locks[lock.0 as usize].held = Some(t.mode);
                } else {
                    let msg = DsmMsg::Grant {
                        lock,
                        mode: t.mode,
                        payload: GrantPayload::Current,
                    };
                    self.send(h, t.requester, msg);
                }
            } else if t.old_owner == self.me {
                let payload = self.collect_for(h, lock, t.seen);
                self.send_grant(h, lock, t.mode, t.requester, payload);
            } else {
                let msg = DsmMsg::TransferReq {
                    lock,
                    requester: t.requester,
                    mode: t.mode,
                    seen: t.seen,
                };
                self.send(h, t.old_owner, msg);
            }
        }
    }

    /// Runs write collection as the owner of record on behalf of a
    /// requester whose last-seen token is `seen`.
    pub(super) fn collect_for<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        lock: LockId,
        seen: SeenToken,
    ) -> GrantPayload {
        let idx = lock.0 as usize;
        self.counters.lock_transfers_served += 1;
        let binding = self.locks[idx].binding.clone();
        with_detector!(self, h, |det, cx| det
            .collect_for(&mut cx, idx, &binding, seen))
    }

    pub(super) fn send_grant<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        lock: LockId,
        mode: Mode,
        requester: usize,
        payload: GrantPayload,
    ) {
        debug_assert_ne!(requester, self.me);
        let bytes = payload.data_bytes();
        self.counters.data_bytes_sent += bytes;
        // Packet construction for the shipped data.
        h.charge(
            Category::Protocol,
            self.cfg.cost.copy_cycles(bytes as usize, true),
        );
        let msg = DsmMsg::Grant {
            lock,
            mode,
            payload,
        };
        self.send(h, requester, msg);
    }

    /// Applies a grant's payload and marks the lock held.
    pub(super) fn apply_grant<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        lock: LockId,
        mode: Mode,
        payload: GrantPayload,
    ) {
        let idx = lock.0 as usize;
        let bytes = payload.data_bytes();
        self.counters.data_bytes_received += bytes;
        // The detector consumes the payload, so capture the ranges it
        // covers first; their post-images are logged after application.
        let logged = self.recovery.is_some().then(|| payload_ranges(&payload));
        if !matches!(payload, GrantPayload::Current) {
            // Temporarily detach the binding so the detector can install
            // the payload's binding without aliasing the node.
            let mut binding = std::mem::take(&mut self.locks[idx].binding);
            let applied = with_detector!(self, h, |det, cx| det.apply_update(
                &mut cx,
                idx,
                &mut binding,
                payload
            ));
            if let Err(payload) = applied {
                // Well-formed on the wire, so a peer can send it; only this
                // backend cannot read it.
                h.protocol_violation(format!(
                    "processor {} cannot apply a grant for {lock:?}: payload kind {}, backend {}",
                    self.me,
                    payload_kind(&payload),
                    self.cfg.backend.label()
                ));
            }
            self.locks[idx].binding = binding;
        }
        if let Some(ranges) = logged {
            for (addr, len) in ranges {
                self.wal_write(h, midway_mem::Addr(addr), len);
            }
        }
        self.locks[idx].held = Some(mode);
    }
}

/// A grant payload's kind, for violation reports.
fn payload_kind(payload: &GrantPayload) -> &'static str {
    match payload {
        GrantPayload::Current => "data-less",
        GrantPayload::Rt { .. } => "RT",
        GrantPayload::Vm { .. } => "VM",
        GrantPayload::Flat { .. } => "flat",
    }
}

/// Every `(addr, len)` range a grant payload may write; post-images over
/// these after application capture exactly what the grant changed (and
/// harmlessly re-log current content for updates the detector skipped).
fn payload_ranges(payload: &GrantPayload) -> Vec<(u64, usize)> {
    let sets: Vec<&PackedSet> = match payload {
        GrantPayload::Current => Vec::new(),
        GrantPayload::Rt { set, .. } | GrantPayload::Flat { set, .. } => vec![set],
        GrantPayload::Vm { updates, full, .. } => {
            updates.iter().chain(full).map(|u| &u.set).collect()
        }
    };
    let items = sets.into_iter().flatten();
    items.map(|i| (i.addr, i.data.len())).collect()
}

#[cfg(test)]
mod tests {
    use midway_proto::{BarrierId, Binding, HomeMap, LockId, Mode, PackedSet, UpdateSet};
    use midway_sim::RunError;

    use crate::api::Proc;
    use crate::config::{BackendKind, MidwayConfig};
    use crate::msg::{DsmMsg, GrantPayload};
    use crate::run::Midway;
    use crate::setup::SystemBuilder;

    /// Has processor 1 send `forge(lock 0, its binding)` to processor 0
    /// through the node's link layer — something no correct application
    /// can do through the public API — while processor 0 waits in
    /// `acquire(lock 0)` when `acquiring` and in a barrier otherwise, and
    /// returns the violation processor 0 reports. Processor 1 is lock 0's
    /// home; lock 1's home is processor 0.
    fn forged(
        backend: BackendKind,
        acquiring: bool,
        forge: impl Fn(LockId, Binding) -> DsmMsg,
    ) -> String {
        let mut b = SystemBuilder::new();
        let data = b.shared_array::<u64>("data", 4, 1);
        let lock = b.lock(vec![data.full_range()]);
        let other = b.lock(vec![data.full_range()]);
        let bar = b.barrier(vec![data.full_range()]);
        let spec = b.build();
        // Processor 1 is the lock's home, so processor 0's acquire waits
        // for a grant from the network.
        let homes = (0..)
            .map(|seed| HomeMap::Sharded { seed })
            .find(|m| m.lock_home(lock, 2) == 1 && m.lock_home(other, 2) == 0)
            .unwrap();
        let cfg = MidwayConfig::new(2, backend).home_map(homes);
        let err = Midway::run(cfg, &spec, |p: &mut Proc| {
            if p.id() == 1 {
                let msg = forge(lock, Binding::new(vec![data.full_range()]));
                let (node, h) = p.engine();
                node.send(h, 0, msg);
            } else if acquiring {
                p.acquire(lock);
                p.release(lock);
            }
            p.barrier(bar);
        })
        .unwrap_err();
        match err {
            RunError::ProtocolViolation { proc, message } => {
                assert_eq!(proc, 0, "the receiver reports the violation");
                message
            }
            other => panic!("expected protocol violation, got {other:?}"),
        }
    }

    /// [`forged`] with a grant of `payload` for lock 0.
    fn forged_grant(
        backend: BackendKind,
        acquiring: bool,
        payload: fn(Binding) -> GrantPayload,
    ) -> String {
        forged(backend, acquiring, |lock, binding| DsmMsg::Grant {
            lock,
            mode: Mode::Exclusive,
            payload: payload(binding),
        })
    }

    #[test]
    fn wrong_kind_grant_is_a_protocol_violation() {
        let flat = forged_grant(BackendKind::Rt, true, |binding| GrantPayload::Flat {
            set: PackedSet::new(),
            binding,
        });
        assert_eq!(
            flat,
            "processor 0 cannot apply a grant for LockId(0): payload kind flat, backend RT-DSM"
        );
        let rt = forged_grant(BackendKind::Vm, true, |binding| GrantPayload::Rt {
            set: PackedSet::new(),
            consist_time: 1,
            binding,
        });
        assert_eq!(
            rt,
            "processor 0 cannot apply a grant for LockId(0): payload kind RT, backend VM-DSM"
        );
    }

    /// A grant of the backend's own kind for a lock the receiver is not
    /// acquiring is refused, not installed as a hold.
    #[test]
    fn unsolicited_grant_is_a_protocol_violation() {
        let message = forged_grant(BackendKind::Rt, false, |binding| GrantPayload::Rt {
            set: PackedSet::new(),
            consist_time: 1,
            binding,
        });
        assert_eq!(
            message,
            "processor 0 received a grant for LockId(0) from processor 1, \
             which it is not waiting to acquire"
        );
    }

    /// A lock or barrier id outside the spec is refused before anything
    /// is indexed with it.
    #[test]
    fn ids_outside_the_spec_are_protocol_violations() {
        let outside = |forge: fn(LockId, Binding) -> DsmMsg| forged(BackendKind::Rt, false, forge);
        let naming = |id: &str| {
            format!(
                "processor 0 received a message from processor 1 naming {id}, \
                 which the spec does not declare"
            )
        };
        let acquire = outside(|_, _| DsmMsg::AcquireReq {
            lock: LockId(99),
            mode: Mode::Exclusive,
            seen: (0, 0),
        });
        assert_eq!(acquire, naming("LockId(99)"));
        let transfer = outside(|_, _| DsmMsg::TransferReq {
            lock: LockId(99),
            requester: 1,
            mode: Mode::Exclusive,
            seen: (0, 0),
        });
        assert_eq!(transfer, naming("LockId(99)"));
        let arrive = outside(|_, _| DsmMsg::BarrierArrive {
            barrier: BarrierId(99),
            set: UpdateSet::new(),
            time: 0,
        });
        assert_eq!(arrive, naming("BarrierId(99)"));
        // Only a lock's home routes a transfer, and only to another
        // processor of the cluster: a requester outside it, the receiver
        // itself, or a sender that is not the home (lock 1 lives on 0) is
        // refused before the owner collects anything or sends a grant.
        let routed = |lock: LockId, requester: usize| {
            forged(BackendKind::Rt, false, move |_, _| DsmMsg::TransferReq {
                lock,
                requester,
                mode: Mode::Exclusive,
                seen: (0, 0),
            })
        };
        let refused = |lock: u32, requester: usize, home: usize| {
            format!(
                "processor 0 received a transfer of LockId({lock}) to processor {requester} \
                 from processor 1; the lock's home is processor {home}"
            )
        };
        assert_eq!(routed(LockId(0), 99), refused(0, 99, 1));
        assert_eq!(routed(LockId(0), 0), refused(0, 0, 1));
        assert_eq!(routed(LockId(1), 1), refused(1, 1, 0));
    }
}
