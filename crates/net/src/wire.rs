//! The workspace's byte codec.
//!
//! The workspace is deliberately free of external crates, so everything
//! that becomes bytes — socket frames (`NetMsg`, in `midway-core`), trace
//! files (`midway-replay`) and the crash-recovery checkpoint image and
//! write-ahead log (`midway-core`) — is serialized by hand. Those three
//! formats describe their layouts; the primitives they are built from
//! live here, once:
//!
//! * [`Reader`], the only cursor over untrusted bytes. Every read is
//!   bounds-checked without arithmetic that can wrap, and an element
//!   count can only be read through [`Reader::count`] /
//!   [`Reader::count_le32`], which reject a count the remaining bytes
//!   cannot hold — so no decoder sizes an allocation from a number the
//!   input merely claims.
//! * [`Writer`], the matching appenders on `Vec<u8>`: little-endian
//!   fixed-width scalars, LEB128 varints, and byte strings under either
//!   length prefix.
//! * [`fnv1a64`] with [`seal`] / [`unseal`] for the 8-byte checksum footer
//!   of the two formats that rest on stable storage.
//! * [`WireError`], which the formats' own error types convert from.
//!
//! [`Wire`] is what a message type implements to ride
//! [`RealTransport`](crate::RealTransport).

use std::fmt;

/// Why bytes were rejected.
///
/// Decoding failures are protocol-fatal on a real transport (there is no
/// way to resynchronize a corrupt stream) and mean a damaged file on
/// stable storage, so errors carry enough to debug from a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ends before a field (or the elements a count announces).
    Truncated {
        /// Bytes the field needed.
        wanted: usize,
        /// Bytes that were left.
        left: usize,
    },
    /// A field holds a value the format does not allow.
    Malformed {
        /// What is wrong.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl WireError {
    /// A [`WireError::Malformed`].
    pub fn malformed(what: &'static str, value: u64) -> WireError {
        WireError::Malformed { what, value }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { wanted, left } => {
                write!(f, "truncated: wanted {wanted} bytes, {left} left")
            }
            WireError::Malformed { what, value } => write!(f, "malformed: {what} ({value})"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over bytes that are not trusted.
#[derive(Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a complete frame, file body or log segment.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consumes the next `n` bytes, borrowed from the input.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.buf.len() {
            return Err(WireError::Truncated {
                wanted: n,
                left: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("took 4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("took 8 bytes")))
    }

    /// Reads a LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                // The tenth byte has room for one bit of a u64.
                if shift == 63 && b > 1 {
                    break;
                }
                return Ok(v);
            }
        }
        Err(WireError::malformed("varint longer than 64 bits", v))
    }

    /// Reads a varint that must fit a `u32`.
    pub fn varint_u32(&mut self) -> Result<u32, WireError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| WireError::malformed("field exceeds u32", v))
    }

    /// Reads a varint element count. Each element will occupy at least
    /// `min_bytes_each` (≥ 1) bytes, so a count the remaining input
    /// cannot hold is rejected here, before anything is sized by it.
    pub fn count(&mut self, min_bytes_each: usize) -> Result<usize, WireError> {
        let n = self.varint()?;
        self.bounded(n, min_bytes_each)
    }

    /// [`Reader::count`] for a little-endian `u32` count.
    pub fn count_le32(&mut self, min_bytes_each: usize) -> Result<usize, WireError> {
        let n = self.u32()?;
        self.bounded(u64::from(n), min_bytes_each)
    }

    fn bounded(&self, n: u64, min_bytes_each: usize) -> Result<usize, WireError> {
        let n = usize::try_from(n).unwrap_or(usize::MAX);
        let left = self.buf.len();
        if n > left / min_bytes_each.max(1) {
            return Err(WireError::Truncated {
                wanted: n.saturating_mul(min_bytes_each),
                left,
            });
        }
        Ok(n)
    }

    /// Reads a varint-length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes_le32(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.count_le32(1)?;
        self.take(n)
    }

    /// Asserts the input is fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::malformed("trailing bytes", n as u64)),
        }
    }
}

/// The appenders matching [`Reader`], on the buffer being built.
pub trait Writer {
    /// Appends a little-endian `u32`.
    fn u32(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn u64(&mut self, v: u64);
    /// Appends a LEB128 varint.
    fn varint(&mut self, v: u64);
    /// Appends a varint-length-prefixed byte string.
    fn bytes(&mut self, b: &[u8]);
    /// Appends a `u32`-length-prefixed byte string.
    fn bytes_le32(&mut self, b: &[u8]);
}

impl Writer for Vec<u8> {
    fn u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.push(byte);
                return;
            }
            self.push(byte | 0x80);
        }
    }

    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        self.varint(b.len() as u64);
        self.extend_from_slice(b);
    }

    fn bytes_le32(&mut self, b: &[u8]) {
        self.u32(u32::try_from(b.len()).expect("byte string fits in u32"));
        self.extend_from_slice(b);
    }
}

/// FNV-1a 64-bit checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the checksum footer: [`fnv1a64`] of everything before it, as
/// 8 little-endian bytes.
pub fn seal(out: &mut Vec<u8>) {
    let sum = fnv1a64(out);
    out.u64(sum);
}

/// Splits a sealed buffer into its body, or `None` when it is shorter
/// than a footer or the footer does not match the body.
pub fn unseal(sealed: &[u8]) -> Option<&[u8]> {
    let (body, footer) = sealed.split_at(sealed.len().checked_sub(8)?);
    (fnv1a64(body).to_le_bytes() == footer).then_some(body)
}

/// A message that can cross a real socket.
///
/// `encode` appends the full message to `out`; `decode` consumes exactly
/// one message from the reader. Round-tripping must be lossless:
/// `decode(encode(m)) == m`.
pub trait Wire: Sized {
    /// Serializes `self` onto the end of `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Deserializes one message, consuming its bytes from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes a message into a fresh buffer (helper for one-shot callers).
pub fn encode_to_vec<M: Wire>(msg: &M) -> Vec<u8> {
    let mut out = Vec::new();
    msg.encode(&mut out);
    out
}

/// Decodes a complete frame payload, requiring full consumption.
pub fn decode_exact<M: Wire>(buf: &[u8]) -> Result<M, WireError> {
    let mut r = Reader::new(buf);
    let msg = M::decode(&mut r)?;
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Probe {
        a: u64,
        b: u32,
        tag: u8,
        blob: Vec<u8>,
    }

    impl Wire for Probe {
        fn encode(&self, out: &mut Vec<u8>) {
            out.u64(self.a);
            out.u32(self.b);
            out.push(self.tag);
            out.bytes_le32(&self.blob);
        }

        fn decode(r: &mut Reader<'_>) -> Result<Probe, WireError> {
            Ok(Probe {
                a: r.u64()?,
                b: r.u32()?,
                tag: r.u8()?,
                blob: r.bytes_le32()?.to_vec(),
            })
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let p = Probe {
            a: u64::MAX - 3,
            b: 0xDEAD_BEEF,
            tag: 7,
            blob: vec![1, 2, 3, 0, 255],
        };
        assert_eq!(decode_exact::<Probe>(&encode_to_vec(&p)).unwrap(), p);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let p = Probe {
            a: 1,
            b: 2,
            tag: 3,
            blob: vec![9; 10],
        };
        let full = encode_to_vec(&p);
        for cut in 0..full.len() {
            assert!(
                decode_exact::<Probe>(&full[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let p = Probe {
            a: 1,
            b: 2,
            tag: 3,
            blob: vec![],
        };
        let mut full = encode_to_vec(&p);
        full.push(0);
        assert!(decode_exact::<Probe>(&full).is_err());
    }

    #[test]
    fn varints_round_trip_and_reject_what_a_u64_cannot_hold() {
        for v in [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            out.varint(v);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint(), Ok(v));
            assert_eq!(r.finish(), Ok(()));
            let narrowed = Reader::new(&out).varint_u32();
            assert_eq!(
                narrowed.ok().map(u64::from),
                u32::try_from(v).ok().map(u64::from)
            );
        }
        // Eleven continuation bytes, and a tenth byte with bits past 2^63.
        assert!(matches!(
            Reader::new(&[0xff; 11]).varint(),
            Err(WireError::Malformed { .. })
        ));
        let mut over = vec![0xff; 9];
        over.push(0x02);
        assert!(matches!(
            Reader::new(&over).varint(),
            Err(WireError::Malformed { .. })
        ));
        // A varint cut short is truncation, not a small number.
        assert!(matches!(
            Reader::new(&[0x80]).varint(),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn a_count_never_exceeds_what_the_remaining_bytes_can_hold() {
        // 10 bytes follow the count: 5 two-byte elements fit, 6 do not.
        for (n, min, ok) in [
            (5u64, 2usize, true),
            (6, 2, false),
            (10, 1, true),
            (11, 1, false),
            (10, 0, true),
        ] {
            let mut buf = Vec::new();
            buf.varint(n);
            buf.extend_from_slice(&[0; 10]);
            assert_eq!(
                Reader::new(&buf).count(min).is_ok(),
                ok,
                "varint {n} x {min}"
            );
            let mut buf = Vec::new();
            buf.u32(n as u32);
            buf.extend_from_slice(&[0; 10]);
            assert_eq!(
                Reader::new(&buf).count_le32(min).is_ok(),
                ok,
                "u32 {n} x {min}"
            );
        }
        // Hostile counts: no wrap, no allocation, an error.
        for min in [1, 2, 16, usize::MAX] {
            let mut buf = Vec::new();
            buf.varint(u64::MAX);
            buf.u32(u32::MAX);
            let mut r = Reader::new(&buf);
            assert!(matches!(r.count(min), Err(WireError::Truncated { .. })));
            assert!(matches!(
                r.count_le32(min),
                Err(WireError::Truncated { .. })
            ));
        }
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(
            r.take(usize::MAX),
            Err(WireError::Truncated {
                wanted: usize::MAX,
                left: 3
            })
        );
        assert_eq!(r.take(3), Ok(&[1u8, 2, 3][..]));
    }

    #[test]
    fn seal_and_unseal_agree_and_any_damage_is_seen() {
        let mut buf = b"MWTR body".to_vec();
        seal(&mut buf);
        assert_eq!(unseal(&buf), Some(&b"MWTR body"[..]));
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 1;
            assert_eq!(unseal(&bad), None, "flip at {i}");
            assert_eq!(unseal(&buf[..i]), None, "cut to {i}");
        }
    }
}
