//! The one byte codec layer: little-endian `put_*` writers, a bounded
//! [`Reader`], one [`DecodeError`], and the splitmix64 [`finalize`] step
//! shared by every seeded hash keying.
//!
//! Every wire, checkpoint and snapshot format in the workspace is written
//! with these writers and read back through this reader, so the two
//! decisions a hand-rolled decoder gets wrong live in exactly one place:
//! no read runs past the buffer ([`Reader::take`]), and no decoded count
//! sizes an allocation or a loop unless that many items can still fit in
//! the bytes that remain ([`Reader::count`]). DESIGN.md §16
//! lists the formats, their owning functions and their golden fixtures.

use std::fmt;

/// Why bytes did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before a field, or before the items a count
    /// promised.
    Truncated,
    /// A field decoded to an impossible value (the message names it).
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated"),
            DecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its little-endian IEEE-754 bits (bit-exact round
/// trip, NaN payloads included).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a sequence length as a `u32` — the writer side of
/// [`Reader::count`].
///
/// # Panics
///
/// Panics if `n` does not fit in a `u32`: no format can carry it, and
/// truncating it would write bytes that decode to a different value.
#[inline]
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("sequence length fits the u32 count field"));
}

/// Append a `u32`-length-prefixed byte run — the writer side of
/// [`Reader::bytes`].
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_count(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Bounds-checked sequential reader over a byte buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

#[allow(clippy::disallowed_methods)] // the one home of `from_le_bytes`
impl<'a> Reader<'a> {
    /// Reader over `buf`, positioned at its start.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes, borrowed from the buffer.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self.buf.split_first_chunk::<N>().ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// Read a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read an `f64` from its little-endian bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Read a `u32` sequence length whose items each occupy at least
    /// `min_item_bytes` (≥ 1) encoded bytes, refusing any count whose
    /// items cannot fit in the bytes that remain. This is the only way a
    /// decoded number may size an allocation or bound a loop: a hostile
    /// count costs at most what the buffer that carried it already cost.
    #[inline]
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.buf.len() / min_item_bytes {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    /// A `u32`-length-prefixed byte run, borrowed from the buffer.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// Require that every byte was consumed; call at the end of a full
    /// decode to reject trailing garbage.
    #[inline]
    pub fn done(&self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Invalid("trailing bytes"))
        }
    }
}

/// The splitmix64 output finalizer (Steele, Lea & Flood): three
/// xor-shift-multiply rounds that avalanche a 64-bit state. The seeded
/// hash keyings — `gretel_sim::splitmix64`, `gretel_netcap::mix64`,
/// `gretel_netcap::shard_of`, `gretel_netcap::degrade` — differ only in
/// how they combine their inputs into the state they hand to this.
#[inline]
pub const fn finalize(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        put_u8(&mut out, 0xAB);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        put_bytes(&mut out, b"abc");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.bytes(), Ok(&b"abc"[..]));
        assert_eq!(r.done(), Ok(()));
        assert_eq!(r.u8(), Err(DecodeError::Truncated));
    }

    #[test]
    fn reads_never_run_past_the_buffer() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32(), Err(DecodeError::Truncated));
        assert_eq!(r.remaining(), 3, "a failed read consumes nothing");
        assert_eq!(r.take(4), Err(DecodeError::Truncated));
        assert_eq!(r.take(3), Ok(&buf[..]));
        assert_eq!(r.done(), Ok(()));
        assert_eq!(Reader::new(&buf).done(), Err(DecodeError::Invalid("trailing bytes")));
    }

    #[test]
    fn count_is_bounded_by_the_bytes_that_remain() {
        // Count 3, then exactly 3 items of 2 bytes.
        let mut buf = Vec::new();
        put_count(&mut buf, 3);
        buf.extend_from_slice(&[0; 6]);
        assert_eq!(Reader::new(&buf).count(2), Ok(3));
        assert_eq!(Reader::new(&buf).count(3), Err(DecodeError::Truncated));
        // A hostile count is refused before anything is allocated for it.
        let mut hostile = Vec::new();
        put_u32(&mut hostile, u32::MAX);
        hostile.extend_from_slice(&[0; 64]);
        assert_eq!(Reader::new(&hostile).count(1), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&hostile).bytes(), Err(DecodeError::Truncated));
    }
}
