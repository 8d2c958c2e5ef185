//! Byte-level encoding of [`NetMsg`] for the real transport.
//!
//! The simulator moves messages as in-memory values; sockets move bytes.
//! This module gives [`NetMsg`] (and everything it carries) a
//! [`Wire`] encoding: little-endian scalars, length-prefixed vectors, one
//! tag byte per enum variant. The encoding is exact — decoding an encoded
//! message reproduces it field for field, which the roundtrip tests below
//! pin down — so a protocol engine behind a socket sees the same values
//! one behind the simulator does.
//!
//! Note the encoded length is *not* [`DsmMsg::wire_size`]: that models the
//! paper machine's packet sizes and stays authoritative for accounting.
//! This encoding is merely how the bytes travel on the host.

use midway_net::{put_bytes, put_u32, put_u64, Wire, WireError, WireReader};
use midway_proto::{BarrierId, Binding, LockId, MaskedSet, Mode, Update, UpdateItem, UpdateSet};

use crate::msg::{DsmMsg, GrantPayload, NetMsg};

fn encode_mode(mode: Mode, out: &mut Vec<u8>) {
    out.push(match mode {
        Mode::Exclusive => 0,
        Mode::Shared => 1,
    });
}

fn decode_mode(r: &mut WireReader) -> Result<Mode, WireError> {
    match r.u8("mode")? {
        0 => Ok(Mode::Exclusive),
        1 => Ok(Mode::Shared),
        t => Err(WireError(format!("unknown mode tag {t}"))),
    }
}

fn encode_binding(b: &Binding, out: &mut Vec<u8>) {
    put_u64(out, b.version());
    put_u32(out, b.ranges().len() as u32);
    for r in b.ranges() {
        put_u64(out, r.start);
        put_u64(out, r.end);
    }
}

fn decode_binding(r: &mut WireReader) -> Result<Binding, WireError> {
    let version = r.u64("binding version")?;
    let n = r.u32("binding range count")? as usize;
    let mut ranges = Vec::with_capacity(n);
    for _ in 0..n {
        let start = r.u64("range start")?;
        let end = r.u64("range end")?;
        ranges.push(start..end);
    }
    Ok(Binding::from_parts(ranges, version))
}

// `UpdateSet` and `Update` live in `midway-proto`, which does not know
// about the `Wire` trait; the orphan rule keeps the impls out, so they
// encode through free functions here.
fn encode_set(set: &UpdateSet, out: &mut Vec<u8>) {
    encode_items(set.items.len(), &set.items, out);
}

/// Encodes `count` items as a set. A barrier release passes its visible
/// items here, so what travels is the personalized set, skip list spent.
fn encode_items<'a>(
    count: usize,
    items: impl IntoIterator<Item = &'a UpdateItem>,
    out: &mut Vec<u8>,
) {
    put_u32(out, count as u32);
    for item in items {
        put_u64(out, item.addr);
        put_u64(out, item.ts);
        put_bytes(out, &item.data);
    }
}

fn decode_set(r: &mut WireReader) -> Result<UpdateSet, WireError> {
    let n = r.u32("update count")? as usize;
    let mut items = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let addr = r.u64("update addr")?;
        let ts = r.u64("update ts")?;
        let data = r.bytes("update data")?;
        items.push(UpdateItem { addr, data, ts });
    }
    Ok(UpdateSet { items })
}

fn encode_update(u: &Update, out: &mut Vec<u8>) {
    put_u64(out, u.incarnation);
    out.push(u.full as u8);
    encode_set(&u.set, out);
}

fn decode_update(r: &mut WireReader) -> Result<Update, WireError> {
    let incarnation = r.u64("update incarnation")?;
    let full = r.u8("update full flag")? != 0;
    let set = decode_set(r)?;
    Ok(Update {
        incarnation,
        set,
        full,
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
                encode_set(set, out);
                put_u64(out, *consist_time);
                encode_binding(binding, out);
            }
            GrantPayload::Vm {
                updates,
                full,
                incarnation,
                binding,
            } => {
                out.push(2);
                put_u32(out, updates.len() as u32);
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
                        encode_set(&u.set, out);
                    }
                }
                put_u64(out, *incarnation);
                encode_binding(binding, out);
            }
            GrantPayload::Flat { set, binding } => {
                out.push(3);
                encode_set(set, out);
                encode_binding(binding, out);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<GrantPayload, WireError> {
        match r.u8("grant payload tag")? {
            0 => Ok(GrantPayload::Current),
            1 => {
                let set = decode_set(r)?;
                let consist_time = r.u64("consist time")?;
                let binding = decode_binding(r)?;
                Ok(GrantPayload::Rt {
                    set,
                    consist_time,
                    binding,
                })
            }
            2 => {
                let n = r.u32("vm update count")? as usize;
                let mut updates = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    updates.push(std::sync::Arc::new(decode_update(r)?));
                }
                let full_set = match r.u8("vm full flag")? {
                    0 => None,
                    1 => Some(decode_set(r)?),
                    t => return Err(WireError(format!("bad vm full flag {t}"))),
                };
                let incarnation = r.u64("vm incarnation")?;
                let binding = decode_binding(r)?;
                let full = full_set.map(|set| {
                    std::sync::Arc::new(Update {
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
            3 => {
                let set = decode_set(r)?;
                let binding = decode_binding(r)?;
                Ok(GrantPayload::Flat { set, binding })
            }
            t => Err(WireError(format!("unknown grant payload tag {t}"))),
        }
    }
}

impl Wire for DsmMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DsmMsg::AcquireReq { lock, mode, seen } => {
                out.push(0);
                put_u32(out, lock.0);
                encode_mode(*mode, out);
                put_u64(out, seen.0);
                put_u64(out, seen.1);
            }
            DsmMsg::TransferReq {
                lock,
                requester,
                mode,
                seen,
            } => {
                out.push(1);
                put_u32(out, lock.0);
                put_u32(out, *requester as u32);
                encode_mode(*mode, out);
                put_u64(out, seen.0);
                put_u64(out, seen.1);
            }
            DsmMsg::Grant {
                lock,
                mode,
                payload,
            } => {
                out.push(2);
                put_u32(out, lock.0);
                encode_mode(*mode, out);
                payload.encode(out);
            }
            DsmMsg::ReleaseNotify { lock, mode } => {
                out.push(3);
                put_u32(out, lock.0);
                encode_mode(*mode, out);
            }
            DsmMsg::BarrierArrive { barrier, set, time } => {
                out.push(4);
                put_u32(out, barrier.0);
                put_u64(out, *time);
                encode_set(set, out);
            }
            DsmMsg::BarrierRelease { barrier, set, time } => {
                out.push(5);
                put_u32(out, barrier.0);
                put_u64(out, *time);
                encode_items(set.len(), set.iter(), out);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<DsmMsg, WireError> {
        match r.u8("dsm tag")? {
            0 => Ok(DsmMsg::AcquireReq {
                lock: LockId(r.u32("lock")?),
                mode: decode_mode(r)?,
                seen: (r.u64("seen.0")?, r.u64("seen.1")?),
            }),
            1 => Ok(DsmMsg::TransferReq {
                lock: LockId(r.u32("lock")?),
                requester: r.u32("requester")? as usize,
                mode: decode_mode(r)?,
                seen: (r.u64("seen.0")?, r.u64("seen.1")?),
            }),
            2 => Ok(DsmMsg::Grant {
                lock: LockId(r.u32("lock")?),
                mode: decode_mode(r)?,
                payload: GrantPayload::decode(r)?,
            }),
            3 => Ok(DsmMsg::ReleaseNotify {
                lock: LockId(r.u32("lock")?),
                mode: decode_mode(r)?,
            }),
            4 => Ok(DsmMsg::BarrierArrive {
                barrier: BarrierId(r.u32("barrier")?),
                time: r.u64("time")?,
                set: decode_set(r)?,
            }),
            5 => Ok(DsmMsg::BarrierRelease {
                barrier: BarrierId(r.u32("barrier")?),
                time: r.u64("time")?,
                set: MaskedSet::whole(std::sync::Arc::new(decode_set(r)?)),
            }),
            t => Err(WireError(format!("unknown dsm tag {t}"))),
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
                put_u64(out, *seq);
                put_u64(out, *ack);
                put_u32(out, *epoch);
                msg.encode(out);
            }
            NetMsg::Ack { ack, epoch } => {
                out.push(2);
                put_u64(out, *ack);
                put_u32(out, *epoch);
            }
            NetMsg::Tick => out.push(3),
            NetMsg::RetxCheck { peer } => {
                out.push(4);
                put_u32(out, *peer as u32);
            }
            NetMsg::Crash { down } => {
                out.push(5);
                put_u64(out, *down);
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<NetMsg, WireError> {
        match r.u8("net tag")? {
            0 => Ok(NetMsg::Raw(DsmMsg::decode(r)?)),
            1 => Ok(NetMsg::Data {
                seq: r.u64("seq")?,
                ack: r.u64("ack")?,
                epoch: r.u32("epoch")?,
                msg: DsmMsg::decode(r)?,
            }),
            2 => Ok(NetMsg::Ack {
                ack: r.u64("ack")?,
                epoch: r.u32("epoch")?,
            }),
            3 => Ok(NetMsg::Tick),
            4 => Ok(NetMsg::RetxCheck {
                peer: r.u32("peer")? as usize,
            }),
            5 => Ok(NetMsg::Crash {
                down: r.u64("down")?,
            }),
            t => Err(WireError(format!("unknown net tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midway_net::{decode_exact, encode_to_vec};

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

    #[test]
    fn every_variant_roundtrips() {
        let msgs = vec![
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
        ];
        for msg in &msgs {
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
        let masked = release(MaskedSet::new(
            std::sync::Arc::clone(&shared),
            own.sorted_addrs(),
        ));
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
        assert!(set.skip().is_empty());
        assert_eq!(set.len(), 4);
        assert!(set.iter().eq(shared.excluding(&own.sorted_addrs())));
    }

    #[test]
    fn grant_payloads_roundtrip() {
        let payloads = vec![
            GrantPayload::Current,
            GrantPayload::Rt {
                set: sample_set(),
                consist_time: 55,
                binding: sample_binding(),
            },
            GrantPayload::Vm {
                updates: vec![
                    std::sync::Arc::new(Update {
                        incarnation: 1,
                        set: sample_set(),
                        full: false,
                    }),
                    std::sync::Arc::new(Update {
                        incarnation: 2,
                        set: UpdateSet::new(),
                        full: true,
                    }),
                ],
                full: Some(std::sync::Arc::new(Update {
                    incarnation: 2,
                    set: sample_set(),
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
                set: sample_set(),
                binding: sample_binding(),
            },
        ];
        for payload in payloads {
            let msg = NetMsg::Raw(DsmMsg::Grant {
                lock: LockId(4),
                mode: Mode::Exclusive,
                payload,
            });
            let back = roundtrip(&msg);
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
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
            assert!(!err.0.is_empty());
        }
    }
}
