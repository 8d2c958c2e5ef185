//! Byte-level encoding of [`NetMsg`] for the real transport.
//!
//! The simulator moves messages as in-memory values; sockets move bytes.
//! This module gives [`NetMsg`] (and everything it carries) a
//! [`Wire`] encoding out of the workspace codec's primitives
//! (`midway_net::wire`): little-endian scalars, `u32`-counted vectors,
//! one tag byte per enum variant. The encoding is exact — decoding an
//! encoded message reproduces it field for field, which the roundtrip
//! tests below pin down — so a protocol engine behind a socket sees the
//! same values one behind the simulator does. Decoding is total: every
//! count goes through the codec's bounded `count_le32`, so a hostile
//! frame is an error in the poison report, never an allocation.
//!
//! Note the encoded length is *not* [`DsmMsg::wire_size`]: that models the
//! paper machine's packet sizes and stays authoritative for accounting.
//! This encoding is merely how the bytes travel on the host.

use std::sync::Arc;

use midway_mem::MAX_TIMESTAMP;
use midway_net::{Reader, Wire, WireError, Writer};
use midway_proto::{
    BarrierId, Binding, Fill, ItemRef, LockId, MaskedSet, Mode, PackedSet, Update, UpdateSet,
};

use crate::msg::{DsmMsg, GrantPayload, NetMsg};

fn encode_mode(mode: Mode, out: &mut Vec<u8>) {
    out.push(match mode {
        Mode::Exclusive => 0,
        Mode::Shared => 1,
    });
}

fn decode_mode(r: &mut Reader) -> Result<Mode, WireError> {
    match r.u8()? {
        0 => Ok(Mode::Exclusive),
        1 => Ok(Mode::Shared),
        t => Err(WireError::malformed("unknown mode tag", t.into())),
    }
}

fn encode_binding(b: &Binding, out: &mut Vec<u8>) {
    out.u64(b.version());
    out.u32(b.ranges().len() as u32);
    for r in b.ranges() {
        out.u64(r.start);
        out.u64(r.end);
    }
}

fn decode_binding(r: &mut Reader) -> Result<Binding, WireError> {
    let version = r.u64()?;
    let n = r.count_le32(16)?;
    let mut ranges = Vec::with_capacity(n);
    for _ in 0..n {
        ranges.push(r.u64()?..r.u64()?);
    }
    Ok(Binding::from_parts(ranges, version))
}

/// A Lamport time: an update item's timestamp, a grant's consistency time
/// or a barrier's time. It reaches the dirtybits and the clock, which hold
/// nothing above [`MAX_TIMESTAMP`]. VM items carry 0, which stays legal.
fn decode_time(r: &mut Reader) -> Result<u64, WireError> {
    match r.u64()? {
        t if t > MAX_TIMESTAMP => Err(WireError::malformed("timestamp above MAX_TIMESTAMP", t)),
        t => Ok(t),
    }
}

// The update sets and `Update` live in `midway-proto`, which does not
// know about the `Wire` trait; the orphan rule keeps the impls out, so
// they encode through free functions here. A barrier's owned set and a
// grant's packed set holding the same items encode to the same bytes.

/// Encodes `count` items as a set. A barrier release passes its visible
/// items here, so what travels is the personalized set, skip list spent.
fn encode_items<'a>(count: usize, items: impl IntoIterator<Item = ItemRef<'a>>, out: &mut Vec<u8>) {
    out.u32(count as u32);
    for item in items {
        out.u64(item.addr);
        out.u64(item.ts);
        out.bytes_le32(item.data);
    }
}

fn encode_set(set: &UpdateSet, out: &mut Vec<u8>) {
    encode_items(set.len(), set.items.iter().map(ItemRef::from), out);
}

fn encode_packed(set: &PackedSet, out: &mut Vec<u8>) {
    encode_items(set.len(), set, out);
}

/// Decodes a set whose addresses strictly increase, as every producer's
/// do: anything else is `Malformed`. An unsorted set would send a merge
/// into its quadratic fallback, so one forged frame could stall the
/// barrier manager.
///
/// The set is reserved once: a first pass adds up the item bytes as far
/// as their encoding reads, and decoding, which also checks every value,
/// stops no later, so a packed set's buffer never grows and a count the
/// frame lies about reserves nothing.
fn decode_set<S: Fill + Default>(r: &mut Reader) -> Result<S, WireError> {
    let n = r.count_le32(20)?;
    let (mut ahead, mut bytes) = (r.clone(), 0);
    for _ in 0..n {
        let Ok(data) = ahead.take(16).and_then(|_| ahead.bytes_le32()) else {
            break;
        };
        bytes += data.len();
    }
    let mut set = S::default();
    set.reserve(n, bytes);
    let mut last = None;
    for _ in 0..n {
        let addr = r.u64()?;
        if last.is_some_and(|last| last >= addr) {
            return Err(WireError::malformed(
                "update items out of address order",
                addr,
            ));
        }
        last = Some(addr);
        let ts = decode_time(r)?;
        set.push(addr, r.bytes_le32()?, ts);
    }
    Ok(set)
}

fn encode_update(u: &Update, out: &mut Vec<u8>) {
    out.u64(u.incarnation);
    out.push(u.full as u8);
    encode_packed(&u.set, out);
}

fn decode_update(r: &mut Reader) -> Result<Update, WireError> {
    Ok(Update {
        incarnation: r.u64()?,
        full: r.u8()? != 0,
        set: decode_set(r)?,
    })
}

impl Wire for GrantPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            GrantPayload::Current => out.push(0),
            GrantPayload::Rt {
                set,
                consist_time,
                binding,
            } => {
                out.push(1);
                encode_packed(set, out);
                out.u64(*consist_time);
                encode_binding(binding, out);
            }
            GrantPayload::Vm {
                updates,
                full,
                incarnation,
                binding,
            } => {
                out.push(2);
                out.u32(updates.len() as u32);
                for u in updates {
                    encode_update(u.as_ref(), out);
                }
                // Only the full snapshot's set travels: its incarnation is
                // the payload's `incarnation` field and its full flag is
                // implied, so the encoding matches the pre-`Arc` format.
                match full {
                    None => out.push(0),
                    Some(u) => {
                        out.push(1);
                        encode_packed(&u.set, out);
                    }
                }
                out.u64(*incarnation);
                encode_binding(binding, out);
            }
            GrantPayload::Flat { set, binding } => {
                out.push(3);
                encode_packed(set, out);
                encode_binding(binding, out);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<GrantPayload, WireError> {
        match r.u8()? {
            0 => Ok(GrantPayload::Current),
            1 => Ok(GrantPayload::Rt {
                set: decode_set(r)?,
                consist_time: decode_time(r)?,
                binding: decode_binding(r)?,
            }),
            2 => {
                let n = r.count_le32(13)?;
                let mut updates = Vec::with_capacity(n);
                for _ in 0..n {
                    updates.push(Arc::new(decode_update(r)?));
                }
                let full_set = match r.u8()? {
                    0 => None,
                    1 => Some(decode_set(r)?),
                    t => return Err(WireError::malformed("bad vm full flag", t.into())),
                };
                let incarnation = r.u64()?;
                let binding = decode_binding(r)?;
                let full = full_set.map(|set| {
                    Arc::new(Update {
                        incarnation,
                        set,
                        full: true,
                    })
                });
                Ok(GrantPayload::Vm {
                    updates,
                    full,
                    incarnation,
                    binding,
                })
            }
            3 => Ok(GrantPayload::Flat {
                set: decode_set(r)?,
                binding: decode_binding(r)?,
            }),
            t => Err(WireError::malformed("unknown grant payload tag", t.into())),
        }
    }
}

impl Wire for DsmMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DsmMsg::AcquireReq { lock, mode, seen } => {
                out.push(0);
                out.u32(lock.0);
                encode_mode(*mode, out);
                out.u64(seen.0);
                out.u64(seen.1);
            }
            DsmMsg::TransferReq {
                lock,
                requester,
                mode,
                seen,
            } => {
                out.push(1);
                out.u32(lock.0);
                out.u32(*requester as u32);
                encode_mode(*mode, out);
                out.u64(seen.0);
                out.u64(seen.1);
            }
            DsmMsg::Grant {
                lock,
                mode,
                payload,
            } => {
                out.push(2);
                out.u32(lock.0);
                encode_mode(*mode, out);
                payload.encode(out);
            }
            DsmMsg::ReleaseNotify { lock, mode } => {
                out.push(3);
                out.u32(lock.0);
                encode_mode(*mode, out);
            }
            DsmMsg::BarrierArrive { barrier, set, time } => {
                out.push(4);
                out.u32(barrier.0);
                out.u64(*time);
                encode_set(set, out);
            }
            DsmMsg::BarrierRelease { barrier, set, time } => {
                out.push(5);
                out.u32(barrier.0);
                out.u64(*time);
                encode_items(set.len(), set.iter().map(ItemRef::from), out);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<DsmMsg, WireError> {
        match r.u8()? {
            0 => Ok(DsmMsg::AcquireReq {
                lock: LockId(r.u32()?),
                mode: decode_mode(r)?,
                seen: (r.u64()?, r.u64()?),
            }),
            1 => Ok(DsmMsg::TransferReq {
                lock: LockId(r.u32()?),
                requester: r.u32()? as usize,
                mode: decode_mode(r)?,
                seen: (r.u64()?, r.u64()?),
            }),
            2 => Ok(DsmMsg::Grant {
                lock: LockId(r.u32()?),
                mode: decode_mode(r)?,
                payload: GrantPayload::decode(r)?,
            }),
            3 => Ok(DsmMsg::ReleaseNotify {
                lock: LockId(r.u32()?),
                mode: decode_mode(r)?,
            }),
            4 => Ok(DsmMsg::BarrierArrive {
                barrier: BarrierId(r.u32()?),
                time: decode_time(r)?,
                set: decode_set(r)?,
            }),
            5 => Ok(DsmMsg::BarrierRelease {
                barrier: BarrierId(r.u32()?),
                time: decode_time(r)?,
                set: MaskedSet::whole(Arc::new(decode_set(r)?)),
            }),
            t => Err(WireError::malformed("unknown dsm tag", t.into())),
        }
    }
}

impl Wire for NetMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            NetMsg::Raw(m) => {
                out.push(0);
                m.encode(out);
            }
            NetMsg::Data {
                seq,
                ack,
                epoch,
                msg,
            } => {
                out.push(1);
                out.u64(*seq);
                out.u64(*ack);
                out.u32(*epoch);
                msg.encode(out);
            }
            NetMsg::Ack { ack, epoch } => {
                out.push(2);
                out.u64(*ack);
                out.u32(*epoch);
            }
            NetMsg::Tick => out.push(3),
            NetMsg::RetxCheck { peer } => {
                out.push(4);
                out.u32(*peer as u32);
            }
            NetMsg::Crash { down } => {
                out.push(5);
                out.u64(*down);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<NetMsg, WireError> {
        match r.u8()? {
            0 => Ok(NetMsg::Raw(DsmMsg::decode(r)?)),
            1 => Ok(NetMsg::Data {
                seq: r.u64()?,
                ack: r.u64()?,
                epoch: r.u32()?,
                msg: DsmMsg::decode(r)?,
            }),
            2 => Ok(NetMsg::Ack {
                ack: r.u64()?,
                epoch: r.u32()?,
            }),
            3 => Ok(NetMsg::Tick),
            4 => Ok(NetMsg::RetxCheck {
                peer: r.u32()? as usize,
            }),
            5 => Ok(NetMsg::Crash { down: r.u64()? }),
            t => Err(WireError::malformed("unknown net tag", t.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_net::wire::fnv1a64;
    use midway_net::{decode_exact, encode_to_vec};
    use midway_proto::UpdateItem;

    fn roundtrip(msg: &NetMsg) -> NetMsg {
        let bytes = encode_to_vec(msg);
        decode_exact::<NetMsg>(&bytes).expect("roundtrip decodes")
    }

    fn sample_set() -> UpdateSet {
        UpdateSet {
            items: vec![
                UpdateItem {
                    addr: 0x40_0000,
                    data: vec![1, 2, 3, 4],
                    ts: 7,
                },
                UpdateItem {
                    addr: 0x40_0040,
                    data: vec![],
                    ts: 9,
                },
            ],
        }
    }

    fn sample_binding() -> Binding {
        Binding::from_parts(vec![0x40_0000..0x40_0100, 0x41_0000..0x41_0040], 3)
    }

    fn variant_fixtures() -> Vec<NetMsg> {
        vec![
            NetMsg::Tick,
            NetMsg::RetxCheck { peer: 5 },
            NetMsg::Crash { down: 12_345 },
            NetMsg::Ack { ack: 42, epoch: 0 },
            NetMsg::Ack { ack: 43, epoch: 2 },
            NetMsg::Raw(DsmMsg::AcquireReq {
                lock: LockId(3),
                mode: Mode::Shared,
                seen: (11, 13),
            }),
            NetMsg::Raw(DsmMsg::TransferReq {
                lock: LockId(1),
                requester: 6,
                mode: Mode::Exclusive,
                seen: (0, u64::MAX),
            }),
            NetMsg::Raw(DsmMsg::ReleaseNotify {
                lock: LockId(9),
                mode: Mode::Exclusive,
            }),
            NetMsg::Raw(DsmMsg::BarrierArrive {
                barrier: BarrierId(2),
                set: sample_set(),
                time: 99,
            }),
            NetMsg::Data {
                seq: 17,
                ack: 16,
                epoch: 1,
                msg: DsmMsg::BarrierRelease {
                    barrier: BarrierId(0),
                    set: MaskedSet::whole(std::sync::Arc::new(UpdateSet::new())),
                    time: 100,
                },
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in &variant_fixtures() {
            let back = roundtrip(msg);
            // NetMsg has no PartialEq; compare debug forms, which show
            // every field.
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn masked_release_travels_as_the_personalized_set() {
        let shared = std::sync::Arc::new(UpdateSet {
            items: (0..6u64)
                .map(|i| UpdateItem {
                    addr: 0x40_0000 + 8 * i,
                    data: vec![i as u8; 1 + i as usize],
                    ts: 10 + i,
                })
                .collect(),
        });
        let own = UpdateSet {
            items: vec![shared.items[1].clone(), shared.items[4].clone()],
        };
        let release = |set: MaskedSet| {
            NetMsg::Raw(DsmMsg::BarrierRelease {
                barrier: BarrierId(3),
                set,
                time: 77,
            })
        };
        let masked = release(
            MaskedSet::whole(std::sync::Arc::clone(&shared)).with_skip(&own.sorted_addrs()),
        );
        let personalized = release(MaskedSet::whole(std::sync::Arc::new(
            shared.excluding_addrs_of(&own),
        )));
        // Same bytes on the wire, same modelled sizes.
        let bytes = encode_to_vec(&masked);
        assert_eq!(bytes, encode_to_vec(&personalized));
        assert_eq!(masked.wire_size(), personalized.wire_size());
        // The receiver gets exactly the visible items and nothing to skip.
        let NetMsg::Raw(DsmMsg::BarrierRelease { set, .. }) =
            decode_exact::<NetMsg>(&bytes).expect("decodes")
        else {
            panic!("decoded to another variant");
        };
        assert_eq!(set.len(), 4);
        assert_eq!(set.with_skip(&[]).len(), 4, "nothing left to skip");
        assert!(set.iter().eq(shared.excluding_addrs_of(&own).items.iter()));
    }

    fn grant_fixtures() -> Vec<NetMsg> {
        let payloads = vec![
            GrantPayload::Current,
            GrantPayload::Rt {
                set: PackedSet::from(&sample_set()),
                consist_time: 55,
                binding: sample_binding(),
            },
            GrantPayload::Vm {
                updates: vec![
                    std::sync::Arc::new(Update {
                        incarnation: 1,
                        set: PackedSet::from(&sample_set()),
                        full: false,
                    }),
                    std::sync::Arc::new(Update {
                        incarnation: 2,
                        set: PackedSet::new(),
                        full: true,
                    }),
                ],
                full: Some(std::sync::Arc::new(Update {
                    incarnation: 2,
                    set: PackedSet::from(&sample_set()),
                    full: true,
                })),
                incarnation: 2,
                binding: sample_binding(),
            },
            GrantPayload::Vm {
                updates: vec![],
                full: None,
                incarnation: 0,
                binding: Binding::default(),
            },
            GrantPayload::Flat {
                set: PackedSet::from(&sample_set()),
                binding: sample_binding(),
            },
        ];
        let grant = |payload| {
            NetMsg::Raw(DsmMsg::Grant {
                lock: LockId(4),
                mode: Mode::Exclusive,
                payload,
            })
        };
        payloads.into_iter().map(grant).collect()
    }

    #[test]
    fn grant_payloads_roundtrip() {
        for msg in &grant_fixtures() {
            let back = roundtrip(msg);
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }

    /// The frame layout is what a peer built from another commit speaks:
    /// the FNV of both fixtures' concatenated encodings, captured by
    /// running the encoder as it stood before the shared codec.
    #[test]
    fn encoded_bytes_are_the_parent_commits() {
        for (fixtures, len, sum) in [
            (variant_fixtures(), 198, 0x6ed2_2aff_ebaf_04cb_u64),
            (grant_fixtures(), 432, 0x5e16_1d89_8c11_9c69),
        ] {
            let bytes: Vec<u8> = fixtures.iter().flat_map(encode_to_vec).collect();
            assert_eq!((bytes.len(), fnv1a64(&bytes)), (len, sum));
        }
    }

    /// `n` packed items at strictly increasing addresses from `base`, of
    /// lengths cycling through 0, 1, 4, 8, 64 and 700 bytes, stamped
    /// `ts(i)`.
    fn packed(base: u64, n: u64, ts: impl Fn(u64) -> u64) -> PackedSet {
        let (mut set, mut addr) = (PackedSet::new(), base);
        for i in 0..n {
            let len = [0, 1, 4, 8, 64, 700][i as usize % 6];
            let data: Vec<u8> = (0..len).map(|k| (i * 31 + k as u64) as u8).collect();
            set.push(addr, &data, ts(i));
            addr += len as u64 + 8 * (1 + i % 3);
        }
        set
    }

    /// One grant frame of each kind a detector sends, each pinned on its
    /// own: the length and FNV of its encoding, captured by running the
    /// encoder of the commit before grants were packed (when every item
    /// owned its bytes) on the same items. A packed set travels as the
    /// item-owning set did, and decodes back to itself.
    #[test]
    fn grant_frame_bytes_match_the_parent_commit() {
        let binding = Binding::from_parts(vec![0x40_0000..0x40_4000, 0x80_0000..0x80_0040], 6);
        let grant = |lock, mode, payload| {
            NetMsg::Raw(DsmMsg::Grant {
                lock: LockId(lock),
                mode,
                payload,
            })
        };
        let update = |incarnation, set, full| {
            Arc::new(Update {
                incarnation,
                set,
                full,
            })
        };
        let frames = [
            (
                "rt",
                grant(
                    7,
                    Mode::Exclusive,
                    GrantPayload::Rt {
                        set: packed(0x40_0000, 13, |i| 1 + 977 * i),
                        consist_time: 0x1234,
                        binding: binding.clone(),
                    },
                ),
                (1878, 0x54f5_be46_08e3_970a_u64),
            ),
            (
                "vm history",
                grant(
                    2,
                    Mode::Shared,
                    GrantPayload::Vm {
                        updates: vec![
                            update(3, packed(0x40_0000, 7, |_| 0), false),
                            update(4, PackedSet::new(), false),
                            update(5, packed(0x40_1000, 9, |_| 0), false),
                        ],
                        full: None,
                        incarnation: 5,
                        binding: binding.clone(),
                    },
                ),
                (1983, 0xcd67_91a4_70dc_4ac3),
            ),
            (
                "vm full snapshot",
                grant(
                    2,
                    Mode::Exclusive,
                    GrantPayload::Vm {
                        updates: vec![],
                        full: Some(update(9, packed(0x40_0000, 11, |_| 0), true)),
                        incarnation: 9,
                        binding: binding.clone(),
                    },
                ),
                (1143, 0x863e_25aa_402a_5ebb),
            ),
            (
                "flat",
                grant(
                    1,
                    Mode::Exclusive,
                    GrantPayload::Flat {
                        set: packed(0x80_0000, 5, |_| 0),
                        binding,
                    },
                ),
                (233, 0xf0f5_aeb0_490b_35a1),
            ),
        ];
        for (what, msg, pin) in &frames {
            let bytes = encode_to_vec(msg);
            assert_eq!((bytes.len(), fnv1a64(&bytes)), *pin, "{what}");
            let back = decode_exact::<NetMsg>(&bytes).expect(what);
            assert_eq!(format!("{msg:?}"), format!("{back:?}"), "{what}");
        }
    }

    #[test]
    fn truncated_messages_fail_with_context() {
        let bytes = encode_to_vec(&NetMsg::Raw(DsmMsg::BarrierArrive {
            barrier: BarrierId(2),
            set: sample_set(),
            time: 99,
        }));
        for cut in 0..bytes.len() {
            let err = decode_exact::<NetMsg>(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Truncated { .. }), "{err}");
        }
    }

    /// `Raw · Grant · lock 1 · Exclusive · Flat · 0 items · version 0 ·
    /// 0xFFFF_FFFF ranges`: 24 bytes that used to reserve 64 GiB for the
    /// ranges they announce and abort the process from a socket.
    #[test]
    fn hostile_range_count_is_an_error_not_an_allocation() {
        let mut frame = vec![0, 2, 1, 0, 0, 0, 0, 3];
        frame.extend_from_slice(&[0; 4 + 8]);
        frame.extend_from_slice(&[0xff; 4]);
        assert_eq!(frame.len(), 24);
        let err = decode_exact::<NetMsg>(&frame).unwrap_err();
        assert!(matches!(err, WireError::Truncated { left: 0, .. }), "{err}");
        // The same claim for update items and VM update lists.
        for frame in [
            vec![
                0, 4, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff,
            ],
            vec![0, 2, 1, 0, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff],
        ] {
            assert!(decode_exact::<NetMsg>(&frame).is_err());
        }
    }

    /// Every Lamport time a message carries: item timestamps, a grant's
    /// consistency time, a barrier's time.
    fn times(msg: &NetMsg) -> Vec<u64> {
        let (NetMsg::Raw(m) | NetMsg::Data { msg: m, .. }) = msg else {
            return vec![];
        };
        let stamps = |set: Vec<ItemRef>| set.iter().map(|i| i.ts).collect::<Vec<_>>();
        match m {
            DsmMsg::Grant {
                payload: GrantPayload::Rt { consist_time, .. },
                ..
            } => [stamps(sets(msg).concat()), vec![*consist_time]].concat(),
            DsmMsg::Grant { .. } => stamps(sets(msg).concat()),
            DsmMsg::BarrierArrive { time, .. } => {
                [stamps(sets(msg).concat()), vec![*time]].concat()
            }
            DsmMsg::BarrierRelease { set, time, .. } => {
                set.iter().map(|i| i.ts).chain([*time]).collect()
            }
            _ => vec![],
        }
    }

    /// The items of every update set a message carries, set by set.
    fn sets(msg: &NetMsg) -> Vec<Vec<ItemRef<'_>>> {
        let (NetMsg::Raw(m) | NetMsg::Data { msg: m, .. }) = msg else {
            return vec![];
        };
        match m {
            DsmMsg::Grant { payload, .. } => match payload {
                GrantPayload::Current => vec![],
                GrantPayload::Rt { set, .. } | GrantPayload::Flat { set, .. } => {
                    vec![set.iter().collect()]
                }
                GrantPayload::Vm { updates, full, .. } => updates
                    .iter()
                    .chain(full)
                    .map(|u| u.set.iter().collect())
                    .collect(),
            },
            DsmMsg::BarrierArrive { set, .. } => {
                vec![set.items.iter().map(ItemRef::from).collect()]
            }
            DsmMsg::BarrierRelease { set, .. } => vec![set.iter().map(ItemRef::from).collect()],
            _ => vec![],
        }
    }

    /// Every message kind that carries an update set, carrying `set`.
    fn carrying(set: &UpdateSet) -> Vec<(&'static str, NetMsg)> {
        let update = |full| {
            Arc::new(Update {
                incarnation: 2,
                set: PackedSet::from(set),
                full,
            })
        };
        let grant = |payload| {
            NetMsg::Raw(DsmMsg::Grant {
                lock: LockId(4),
                mode: Mode::Exclusive,
                payload,
            })
        };
        vec![
            (
                "rt grant",
                grant(GrantPayload::Rt {
                    set: PackedSet::from(set),
                    consist_time: 55,
                    binding: sample_binding(),
                }),
            ),
            (
                "vm update",
                grant(GrantPayload::Vm {
                    updates: vec![update(false)],
                    full: None,
                    incarnation: 2,
                    binding: sample_binding(),
                }),
            ),
            (
                "vm full snapshot",
                grant(GrantPayload::Vm {
                    updates: vec![],
                    full: Some(update(true)),
                    incarnation: 2,
                    binding: sample_binding(),
                }),
            ),
            (
                "flat grant",
                grant(GrantPayload::Flat {
                    set: PackedSet::from(set),
                    binding: sample_binding(),
                }),
            ),
            (
                "barrier arrival",
                NetMsg::Raw(DsmMsg::BarrierArrive {
                    barrier: BarrierId(2),
                    set: set.clone(),
                    time: 99,
                }),
            ),
            (
                "barrier release",
                NetMsg::Data {
                    seq: 17,
                    ack: 16,
                    epoch: 1,
                    msg: DsmMsg::BarrierRelease {
                        barrier: BarrierId(2),
                        set: MaskedSet::whole(Arc::new(set.clone())),
                        time: 100,
                    },
                },
            ),
        ]
    }

    /// Every producer ships strictly increasing addresses; a forged set
    /// that does not (reversed, or an address twice) would send the
    /// barrier manager's merge into its quadratic fallback. Each message
    /// that carries a set refuses one.
    #[test]
    fn update_items_out_of_address_order_are_malformed() {
        let item = |addr| UpdateItem {
            addr,
            data: vec![1; 8],
            ts: 3,
        };
        let set = |addrs: &[u64]| UpdateSet {
            items: addrs.iter().map(|&a| item(a)).collect(),
        };
        let reversed: Vec<u64> = (0..1000).rev().map(|i| 0x40_0000 + 8 * i).collect();
        for (what, addrs, at) in [
            ("reversed", &reversed[..], 0x40_0000 + 8 * 998),
            ("reversed pair", &[0x40_0010, 0x40_0000][..], 0x40_0000),
            (
                "duplicate",
                &[0x40_0000, 0x40_0008, 0x40_0008][..],
                0x40_0008,
            ),
            ("duplicate first", &[0, 0][..], 0),
        ] {
            for (kind, msg) in carrying(&set(addrs)) {
                let err = decode_exact::<NetMsg>(&encode_to_vec(&msg)).unwrap_err();
                assert!(
                    matches!(
                        err,
                        WireError::Malformed {
                            what: "update items out of address order",
                            value,
                        } if value == at
                    ),
                    "{what} in a {kind}: {err}"
                );
            }
        }
        // Strictly increasing sets, the empty one included, still decode.
        for addrs in [&[][..], &[0][..], &[0, 1, u64::MAX][..]] {
            for (kind, msg) in carrying(&set(addrs)) {
                let back = decode_exact::<NetMsg>(&encode_to_vec(&msg)).expect(kind);
                assert_eq!(sets(&back).concat().len(), addrs.len(), "{kind}");
            }
        }
    }

    /// `make(t)` decodes for the legal ends of the range and is
    /// `Malformed` just above [`MAX_TIMESTAMP`] and at `u64::MAX`.
    fn rejects_times_above_max(make: impl Fn(u64) -> NetMsg) {
        for t in [0, MAX_TIMESTAMP] {
            let back = decode_exact::<NetMsg>(&encode_to_vec(&make(t))).expect("in range");
            assert!(times(&back).contains(&t));
        }
        for t in [MAX_TIMESTAMP + 1, u64::MAX] {
            let err = decode_exact::<NetMsg>(&encode_to_vec(&make(t))).unwrap_err();
            assert!(
                matches!(err, WireError::Malformed { value, .. } if value == t),
                "{t}: {err}"
            );
        }
    }

    fn rt_grant(ts: u64, consist_time: u64) -> NetMsg {
        let item = UpdateItem {
            addr: 0x40_0000,
            data: vec![1; 8],
            ts,
        };
        NetMsg::Raw(DsmMsg::Grant {
            lock: LockId(4),
            mode: Mode::Exclusive,
            payload: GrantPayload::Rt {
                set: PackedSet::from(&UpdateSet { items: vec![item] }),
                consist_time,
                binding: sample_binding(),
            },
        })
    }

    /// An item timestamp above the dirtybit width would fail the stamp's
    /// assert on application; it is refused at the decoder instead.
    #[test]
    fn update_item_ts_above_max_timestamp_is_malformed() {
        rejects_times_above_max(|ts| rt_grant(ts, 55));
    }

    /// A forged `consist_time = u64::MAX` would reach
    /// `LamportClock::observe`, whose `max(remote) + 1` overflows.
    #[test]
    fn grant_consist_time_above_max_timestamp_is_malformed() {
        rejects_times_above_max(|consist_time| rt_grant(7, consist_time));
    }

    /// A barrier's time is observed by the clock as a grant's is.
    #[test]
    fn barrier_time_above_max_timestamp_is_malformed() {
        rejects_times_above_max(|time| {
            NetMsg::Raw(DsmMsg::BarrierArrive {
                barrier: BarrierId(2),
                set: sample_set(),
                time,
            })
        });
        rejects_times_above_max(|time| {
            NetMsg::Raw(DsmMsg::BarrierRelease {
                barrier: BarrierId(2),
                set: MaskedSet::whole(Arc::new(sample_set())),
                time,
            })
        });
    }

    /// First slice of the hostile-bytes sweep: every variant and grant
    /// payload, mutated; the decoder answers and never panics, and a frame
    /// it accepts carries no timestamp the dirtybits cannot hold and no
    /// update set out of address order.
    #[test]
    fn mutated_frames_decode_or_fail_but_never_panic() {
        let fixtures: Vec<NetMsg> = variant_fixtures()
            .into_iter()
            .chain(grant_fixtures())
            .collect();
        let each = 10_000usize.div_ceil(fixtures.len());
        let (mut accepted, mut total) = (0, 0);
        for (i, msg) in fixtures.iter().enumerate() {
            let decode = |b: &[u8]| match decode_exact::<NetMsg>(b) {
                Ok(back) => {
                    let times = times(&back);
                    assert!(times.iter().all(|&t| t <= MAX_TIMESTAMP), "{times:?}");
                    for set in sets(&back) {
                        assert!(
                            set.windows(2).all(|w| w[0].addr < w[1].addr),
                            "accepted a set out of address order: {set:?}"
                        );
                    }
                    true
                }
                Err(_) => false,
            };
            accepted +=
                crate::mutate::sweep(0x51ce_0000 + i as u64, &encode_to_vec(msg), each, decode);
            total += each;
        }
        assert!(
            total >= 10_000 && accepted > 0 && accepted < total,
            "{accepted} of {total}"
        );
    }
}
