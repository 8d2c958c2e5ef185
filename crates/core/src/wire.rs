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
use midway_proto::{BarrierId, Binding, LockId, MaskedSet, Mode, Update, UpdateItem, UpdateSet};

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
    out.u32(count as u32);
    for item in items {
        out.u64(item.addr);
        out.u64(item.ts);
        out.bytes_le32(&item.data);
    }
}

fn decode_set(r: &mut Reader) -> Result<UpdateSet, WireError> {
    let n = r.count_le32(20)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let addr = r.u64()?;
        let ts = decode_time(r)?;
        let data = r.bytes_le32()?.to_vec();
        items.push(UpdateItem { addr, data, ts });
    }
    Ok(UpdateSet { items })
}

fn encode_update(u: &Update, out: &mut Vec<u8>) {
    out.u64(u.incarnation);
    out.push(u.full as u8);
    encode_set(&u.set, out);
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
                encode_set(set, out);
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
                        encode_set(&u.set, out);
                    }
                }
                out.u64(*incarnation);
                encode_binding(binding, out);
            }
            GrantPayload::Flat { set, binding } => {
                out.push(3);
                encode_set(set, out);
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
                encode_items(set.len(), set.iter(), out);
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

    fn grant_fixtures() -> Vec<NetMsg> {
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
        let stamps = |set: &UpdateSet| set.items.iter().map(|i| i.ts).collect::<Vec<_>>();
        match m {
            DsmMsg::Grant { payload, .. } => match payload {
                GrantPayload::Current => vec![],
                GrantPayload::Rt {
                    set, consist_time, ..
                } => [stamps(set), vec![*consist_time]].concat(),
                GrantPayload::Vm { updates, full, .. } => updates
                    .iter()
                    .chain(full)
                    .flat_map(|u| stamps(&u.set))
                    .collect(),
                GrantPayload::Flat { set, .. } => stamps(set),
            },
            DsmMsg::BarrierArrive { set, time, .. } => [stamps(set), vec![*time]].concat(),
            DsmMsg::BarrierRelease { set, time, .. } => {
                set.iter().map(|i| i.ts).chain([*time]).collect()
            }
            _ => vec![],
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
                set: UpdateSet { items: vec![item] },
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
    /// it accepts carries no timestamp the dirtybits cannot hold.
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
