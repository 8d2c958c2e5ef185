//! One processor's recording: the op stream a trace stores, a replay
//! applies and the checker analyzes.
//!
//! Under entry consistency the whole analysis of a run — every Table 2
//! counter, every virtual time — is a pure function of each processor's
//! sequence of *shared stores, synchronization operations and compute
//! charges*. Reads are local and free (Midway is update-based, so there
//! are no read misses), so a recording holds them only for the checker,
//! which also needs to know in which order each lock's home granted it:
//! with checking on, a stream also carries coalesced [`TraceOp::Read`]s
//! and, at a lock's home, a [`TraceOp::Grant`] per grant it decided.
//!
//! A processor's recording is an [`OpStream`]: a 16-byte head per op,
//! with every `Write`'s bytes appended to one buffer and every `Rebind`'s
//! ranges to one table, so recording a store allocates nothing of its
//! own. Iterating a stream yields [`TraceOp`] views that borrow those
//! payloads; replay, the codec, the checker and every report read them.

use midway_mem::AddrRange;

/// One recorded operation of a processor's shared-memory stream, as an
/// [`OpStream`] hands it out: a `Write`'s bytes and a `Rebind`'s ranges
/// are borrowed from the stream that holds them.
///
/// `Work`/`Idle` preserve the virtual-time shape of the computation;
/// `Read` and `Grant` are recorded only for the checker; everything else
/// is a shared-memory or synchronization event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp<'a> {
    /// Application compute: advance the clock by `cycles`.
    Work { cycles: u64 },
    /// Back off for `cycles` while serving protocol requests.
    Idle { cycles: u64 },
    /// One write trap covering `data.len()` bytes at `addr` (a word,
    /// doubleword or area store), and the bytes it left in memory.
    Write { addr: u64, data: &'a [u8] },
    /// Loads of the `len` bytes at `addr`: adjacent element reads,
    /// coalesced as they are recorded.
    Read { addr: u64, len: u32 },
    /// Lock acquire, exclusive or shared.
    Acquire { lock: u32, exclusive: bool },
    /// Lock release, exclusive or shared.
    Release { lock: u32, exclusive: bool },
    /// Rebind the lock to new ranges (caller holds it exclusively).
    Rebind { lock: u32, ranges: &'a [AddrRange] },
    /// Cross a barrier.
    Barrier { barrier: u32 },
    /// The lock's home granted it to processor `to`: recorded by the
    /// home, in the order it serializes the lock's grants.
    Grant { lock: u32, to: u32, exclusive: bool },
}

/// The fixed-size part of one op in an [`OpStream`]. A `Write`'s bytes
/// and a `Rebind`'s ranges follow the previous ones in the stream's side
/// buffers, so a head holds only their count.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Head {
    Work(u64),
    Idle(u64),
    Write { addr: u64, len: u32 },
    Read { addr: u64, len: u32 },
    Acquire { lock: u32, exclusive: bool },
    Release { lock: u32, exclusive: bool },
    Rebind { lock: u32, ranges: u32 },
    Barrier(u32),
    Grant { lock: u32, to: u32, exclusive: bool },
}

const _: () = assert!(std::mem::size_of::<Head>() == 16);

/// One processor's recorded operations, packed: a 16-byte head per op,
/// every `Write`'s bytes appended to one buffer and every `Rebind`'s
/// ranges to one table. Recording a store appends to the three vectors;
/// it allocates nothing of its own.
///
/// [`push`](OpStream::push) appends an op exactly as given; iterating
/// yields the ops pushed, in order, as borrowed [`TraceOp`] views.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct OpStream {
    heads: Vec<Head>,
    bytes: Vec<u8>,
    ranges: Vec<AddrRange>,
}

impl OpStream {
    /// Bytes of memory one op takes besides its payload.
    pub const HEAD_BYTES: usize = std::mem::size_of::<Head>();

    /// An empty stream with room for `ops` ops that write `bytes` bytes
    /// and rebind to `ranges` ranges in all.
    pub fn with_capacity(ops: usize, bytes: usize, ranges: usize) -> OpStream {
        OpStream {
            heads: Vec::with_capacity(ops),
            bytes: Vec::with_capacity(bytes),
            ranges: Vec::with_capacity(ranges),
        }
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the stream holds no op.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The ops in the order they were pushed.
    pub fn iter(&self) -> Ops<'_> {
        Ops {
            heads: self.heads.iter(),
            bytes: &self.bytes,
            ranges: &self.ranges,
        }
    }

    /// Appends `op`.
    ///
    /// # Panics
    ///
    /// Panics if a `Write` covers or a `Rebind` names 2^32 or more bytes
    /// or ranges (a store never leaves its 4 MiB region).
    #[inline]
    pub fn push(&mut self, op: TraceOp<'_>) {
        let count = |n: usize| u32::try_from(n).expect("payload count fits a u32");
        self.heads.push(match op {
            TraceOp::Work { cycles } => Head::Work(cycles),
            TraceOp::Idle { cycles } => Head::Idle(cycles),
            TraceOp::Write { addr, data } => {
                self.bytes.extend_from_slice(data);
                Head::Write {
                    addr,
                    len: count(data.len()),
                }
            }
            TraceOp::Read { addr, len } => Head::Read { addr, len },
            TraceOp::Acquire { lock, exclusive } => Head::Acquire { lock, exclusive },
            TraceOp::Release { lock, exclusive } => Head::Release { lock, exclusive },
            TraceOp::Rebind { lock, ranges } => {
                self.ranges.extend_from_slice(ranges);
                Head::Rebind {
                    lock,
                    ranges: count(ranges.len()),
                }
            }
            TraceOp::Barrier { barrier } => Head::Barrier(barrier),
            TraceOp::Grant {
                lock,
                to,
                exclusive,
            } => Head::Grant {
                lock,
                to,
                exclusive,
            },
        });
    }

    /// Appends `op` as a recording does, folding it into the op before
    /// when that changes nothing anyone reads: a `Work` charge right after
    /// another is added to it (charging 3 then 5 cycles is
    /// indistinguishable from charging 8), and a `Read` right after
    /// another that it lies inside, or adjoins at either end, grows that
    /// one. This keeps recordings small for apps that charge or read per
    /// element; nothing folds across any other op, so no synchronization
    /// moves.
    #[inline]
    pub fn record(&mut self, op: TraceOp<'_>) {
        match (self.heads.last_mut(), op) {
            (Some(Head::Work(last)), TraceOp::Work { cycles }) => *last += cycles,
            (Some(Head::Read { addr: a, len: l }), TraceOp::Read { addr, len }) => {
                if !fold_read(a, l, addr, len) {
                    self.push(op);
                }
            }
            _ => self.push(op),
        }
    }
}

/// Grows the read `(*a, *l)` to absorb the read of `len` bytes at
/// `addr` if it lies inside it or adjoins it at either end; returns
/// whether it did.
#[inline]
fn fold_read(a: &mut u64, l: &mut u32, addr: u64, len: u32) -> bool {
    let (end, new_end) = (*a + u64::from(*l), addr + u64::from(len));
    match l.checked_add(len) {
        _ if addr >= *a && new_end <= end => true,
        Some(sum) if addr == end || new_end == *a => {
            (*a, *l) = ((*a).min(addr), sum);
            true
        }
        _ => false,
    }
}

impl std::fmt::Debug for OpStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a OpStream {
    type Item = TraceOp<'a>;
    type IntoIter = Ops<'a>;

    fn into_iter(self) -> Ops<'a> {
        self.iter()
    }
}

impl<'a> FromIterator<TraceOp<'a>> for OpStream {
    fn from_iter<I: IntoIterator<Item = TraceOp<'a>>>(ops: I) -> OpStream {
        let mut s = OpStream::default();
        for op in ops {
            s.push(op);
        }
        s
    }
}

/// The ops of an [`OpStream`], in order.
#[derive(Clone)]
pub struct Ops<'a> {
    heads: std::slice::Iter<'a, Head>,
    /// The payloads of the ops not yet yielded.
    bytes: &'a [u8],
    ranges: &'a [AddrRange],
}

impl<'a> Iterator for Ops<'a> {
    type Item = TraceOp<'a>;

    #[inline]
    fn next(&mut self) -> Option<TraceOp<'a>> {
        Some(match *self.heads.next()? {
            Head::Work(cycles) => TraceOp::Work { cycles },
            Head::Idle(cycles) => TraceOp::Idle { cycles },
            Head::Write { addr, len } => {
                let data;
                (data, self.bytes) = self.bytes.split_at(len as usize);
                TraceOp::Write { addr, data }
            }
            Head::Read { addr, len } => TraceOp::Read { addr, len },
            Head::Acquire { lock, exclusive } => TraceOp::Acquire { lock, exclusive },
            Head::Release { lock, exclusive } => TraceOp::Release { lock, exclusive },
            Head::Rebind { lock, ranges } => {
                let taken;
                (taken, self.ranges) = self.ranges.split_at(ranges as usize);
                TraceOp::Rebind {
                    lock,
                    ranges: taken,
                }
            }
            Head::Barrier(barrier) => TraceOp::Barrier { barrier },
            Head::Grant {
                lock,
                to,
                exclusive,
            } => TraceOp::Grant {
                lock,
                to,
                exclusive,
            },
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.heads.size_hint()
    }
}

impl ExactSizeIterator for Ops<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorded(ops: &[TraceOp<'_>]) -> Vec<TraceOp<'static>> {
        let mut s = OpStream::default();
        for &op in ops {
            s.record(op);
        }
        s.iter()
            .map(|op| match op {
                TraceOp::Read { addr, len } => TraceOp::Read { addr, len },
                TraceOp::Release { lock, exclusive } => TraceOp::Release { lock, exclusive },
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    const fn read(addr: u64, len: u32) -> TraceOp<'static> {
        TraceOp::Read { addr, len }
    }

    #[test]
    fn contiguous_reads_coalesce_both_directions() {
        // Forward, backward, then contained.
        let ops = [read(100, 4), read(104, 4), read(96, 4), read(100, 4)];
        assert_eq!(recorded(&ops), [read(96, 12)]);
    }

    #[test]
    fn sync_events_stop_coalescing() {
        let release = TraceOp::Release {
            lock: 0,
            exclusive: true,
        };
        assert_eq!(
            recorded(&[read(0, 8), release, read(8, 8)]),
            [read(0, 8), release, read(8, 8)]
        );
        let mut s = OpStream::default();
        for op in [
            read(0, 4),
            TraceOp::Write {
                addr: 4,
                data: &[1],
            },
            read(4, 4),
        ] {
            s.record(op);
        }
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn disjoint_accesses_stay_separate() {
        assert_eq!(recorded(&[read(0, 4), read(100, 4)]).len(), 2);
        assert_eq!(
            recorded(&[read(0, u32::MAX), read(u64::from(u32::MAX), 1)]).len(),
            2
        );
    }
}
