//! The one byte codec layer: the [`Wire`] trait, a bounded [`Reader`], one
//! [`DecodeError`], and the splitmix64 [`finalize`] step shared by every
//! seeded hash keying.
//!
//! A checkpoint or state format is a type that implements [`Wire`]: `put`
//! writes a value, `read` reads it back, and `MIN_BYTES` is the length of
//! the smallest value's encoding. Integers are little-endian, `f64` its raw
//! IEEE bits, `bool` one byte, `usize` a `u64`, an `Option<T>` a tag byte and
//! then `T` (zero when `None`, so the width is fixed), a tuple its fields in
//! order, and a sequence (`Vec`, `VecDeque`, `String`) a `u32` count and its
//! items; a byte run is one copy each way.
//! [`wire_struct!`](crate::wire_struct!) writes the impl of a struct (its
//! fields in order) or of a tagged enum (a `u8` tag, then the variant's
//! fields), so such a format is written down once.
//!
//! The two decisions a hand-rolled decoder gets wrong live here: no read
//! runs past the buffer ([`Reader::take`]), and the sequence impls are the
//! only code that reads a count, which sizes nothing unless that many items
//! of `T::MIN_BYTES` still fit in the bytes that remain. DESIGN.md §16 lists
//! the formats, their owning types and their golden fixtures.

use crate::{
    ApiId, ConnKey, Dependency, Direction, MessageHead, MessageId, NodeId, OpSpecId, Service,
};
use std::collections::VecDeque;
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

/// A value with one byte encoding.
pub trait Wire {
    /// The length of the smallest value's encoding. A sequence refuses any
    /// count whose items, at this size each, could not fit in the bytes
    /// that remain: a bound above some value's encoding would refuse a
    /// sequence of such values, and one below the smallest admits larger
    /// hostile counts.
    const MIN_BYTES: usize;

    /// Append the value's encoding.
    fn put(&self, out: &mut Vec<u8>);

    /// Read one value written by [`Wire::put`].
    fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError>
    where
        Self: Sized;

    /// Append a run of values; a byte run overrides this with one copy.
    #[doc(hidden)]
    #[inline]
    fn put_run(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.put(out);
        }
    }

    /// Read `n` values, `n` already checked against the bytes that remain;
    /// a byte run overrides this with one copy.
    #[doc(hidden)]
    #[inline]
    fn read_run(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, DecodeError>
    where
        Self: Sized,
    {
        // Read through a local copy of the reader: its position then stays
        // in registers across the loop. Through `r` it is stored back after
        // every field, which made restoring a full window ~40 % slower.
        let mut local = Reader { buf: r.buf };
        let mut items = Vec::with_capacity(n);
        let mut read_all = || {
            for _ in 0..n {
                items.push(Self::read(&mut local)?);
            }
            Ok(())
        };
        let read = read_all();
        r.buf = local.buf;
        read.map(|()| items)
    }
}

/// `value`'s encoding.
pub fn encode<T: Wire + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(T::MIN_BYTES);
    value.put(&mut out);
    out
}

/// The value `bytes` encode, which must be all of them.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let value = T::read(&mut r)?;
    r.done()?;
    Ok(value)
}

/// Append a sequence length as a `u32`, the count a sequence's `read`
/// checks.
///
/// # Panics
///
/// Panics if `n` does not fit in a `u32`: no format can carry it, and
/// truncating it would write bytes that decode to a different value.
#[inline]
pub fn put_count(out: &mut Vec<u8>, n: usize) {
    u32::try_from(n)
        .expect("sequence length fits the u32 count field")
        .put(out);
}

macro_rules! wire_le {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();

            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn read(r: &mut Reader<'_>) -> Result<$t, DecodeError> {
                r.$t()
            }
        }
    )*};
}

wire_le!(u16, u32, u64, f64);

impl Wire for u8 {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<u8, DecodeError> {
        r.u8()
    }

    #[inline]
    fn put_run(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }

    #[inline]
    fn read_run(r: &mut Reader<'_>, n: usize) -> Result<Vec<u8>, DecodeError> {
        r.take(n).map(<[u8]>::to_vec)
    }
}

/// A `u64`.
impl Wire for usize {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
        usize::try_from(r.u64()?).map_err(|_| DecodeError::Invalid("usize"))
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u8).put(out);
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid("bool")),
        }
    }
}

/// A tag byte (0 `None`, 1 `Some`), then the value, or `T::default()` for
/// `None`: every value has the same width.
impl<T: Wire + Default> Wire for Option<T> {
    const MIN_BYTES: usize = 1 + T::MIN_BYTES;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                1u8.put(out);
                v.put(out);
            }
            None => {
                0u8.put(out);
                T::default().put(out);
            }
        }
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<Option<T>, DecodeError> {
        let tag = r.u8()?;
        let value = T::read(r)?;
        match tag {
            0 => Ok(None),
            1 => Ok(Some(value)),
            _ => Err(DecodeError::Invalid("option tag")),
        }
    }
}

/// Written only: a slice reads back as a `Vec`.
impl<T: Wire> Wire for [T] {
    const MIN_BYTES: usize = 4;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        T::put_run(self, out);
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.as_slice().put(out);
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<Vec<T>, DecodeError> {
        let n = r.count(T::MIN_BYTES)?;
        T::read_run(r, n)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        let (front, back) = self.as_slices();
        T::put_run(front, out);
        T::put_run(back, out);
    }

    fn read(r: &mut Reader<'_>) -> Result<VecDeque<T>, DecodeError> {
        Vec::read(r).map(VecDeque::from)
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        self.as_bytes().put(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<String, DecodeError> {
        String::from_utf8(Vec::read(r)?).map_err(|_| DecodeError::Invalid("string utf8"))
    }
}

macro_rules! wire_tuple {
    ($($i:tt $t:ident),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;

            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)+
            }

            #[inline]
            fn read(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(($($t::read(r)?,)+))
            }
        }
    };
}

wire_tuple!(0 A, 1 B);
wire_tuple!(0 A, 1 B, 2 C);
wire_tuple!(0 A, 1 B, 2 C, 3 D);

/// Implement [`Wire`] for a type by listing its fields in encoding order.
///
/// * `Name { field: Type, .. }` — a struct, its fields in the order listed;
///   a trailing `skip { field: expr, .. }` names fields the bytes leave out
///   and the value a read gives them.
/// * `Name(Type)` — a newtype, as its one field.
/// * `enum Name { tag => Variant, tag => Variant(x: Type, ..),
///   tag => Variant { field: Type, .. } }` — a `u8` tag, then the
///   variant's fields in order; an unknown tag is `Invalid("Name tag")`.
///
/// `MIN_BYTES` is the sum of the fields' (for an enum, one plus the
/// smallest variant's), so a count bound follows from the types.
#[macro_export]
macro_rules! wire_struct {
    (enum $name:ident {
        $($tag:literal => $variant:ident
            $(($($bind:ident: $bty:ty),* $(,)?))?
            $({$($field:ident: $fty:ty),* $(,)?})?),* $(,)?
    }) => {
        impl $crate::codec::Wire for $name {
            const MIN_BYTES: usize = 1 + {
                let sizes = [$(0
                    $($(+ <$bty as $crate::codec::Wire>::MIN_BYTES)*)?
                    $($(+ <$fty as $crate::codec::Wire>::MIN_BYTES)*)?),*];
                let (mut min, mut i) = (usize::MAX, 0);
                while i < sizes.len() {
                    if sizes[i] < min {
                        min = sizes[i];
                    }
                    i += 1;
                }
                min
            };

            #[inline]
            fn put(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $($name::$variant $(($($bind),*))? $({$($field),*})? => {
                        out.push($tag);
                        $($($crate::codec::Wire::put($bind, out);)*)?
                        $($($crate::codec::Wire::put($field, out);)*)?
                    })*
                }
            }

            #[inline]
            fn read(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                ::std::result::Result::Ok(match r.u8()? {
                    $($tag => $name::$variant
                        $(($(<$bty as $crate::codec::Wire>::read(r)?),*))?
                        $({$($field: <$fty as $crate::codec::Wire>::read(r)?),*})?,)*
                    _ => {
                        return ::std::result::Result::Err($crate::codec::DecodeError::Invalid(
                            concat!(stringify!($name), " tag"),
                        ))
                    }
                })
            }
        }
    };
    ($name:ident($ty:ty)) => {
        impl $crate::codec::Wire for $name {
            const MIN_BYTES: usize = <$ty as $crate::codec::Wire>::MIN_BYTES;

            #[inline]
            fn put(&self, out: &mut ::std::vec::Vec<u8>) {
                $crate::codec::Wire::put(&self.0, out);
            }

            #[inline]
            fn read(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                <$ty as $crate::codec::Wire>::read(r).map($name)
            }
        }
    };
    ($name:ident {
        $($field:ident: $ty:ty),* $(,)?
    } $(skip { $($skip:ident: $value:expr),* $(,)? })?) => {
        impl $crate::codec::Wire for $name {
            const MIN_BYTES: usize = 0 $(+ <$ty as $crate::codec::Wire>::MIN_BYTES)*;

            #[inline]
            fn put(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::codec::Wire::put(&self.$field, out);)*
            }

            #[inline]
            fn read(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::DecodeError> {
                ::std::result::Result::Ok($name {
                    $($field: <$ty as $crate::codec::Wire>::read(r)?,)*
                    $($($skip: $value,)*)?
                })
            }
        }
    };
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
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated)?;
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
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, DecodeError> {
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

crate::wire_struct!(MessageId(u64));
crate::wire_struct!(ApiId(u16));
crate::wire_struct!(NodeId(u8));
crate::wire_struct!(OpSpecId(u16));
crate::wire_struct!(ConnKey {
    src: NodeId,
    src_port: u16,
    dst: NodeId,
    dst_port: u16,
});
crate::wire_struct!(enum Direction {
    0 => Request,
    1 => Response,
});
crate::wire_struct!(enum Dependency {
    0 => ServiceProcess(s: Service),
    1 => MySqlReachable,
    2 => RabbitMqReachable,
    3 => NtpAgent,
    4 => Libvirt,
});

/// Its [`Service::index`].
impl Wire for Service {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.index().put(out);
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<Service, DecodeError> {
        Service::from_index(r.u8()?).ok_or(DecodeError::Invalid("service index"))
    }
}

const HEAD_RESPONSE: u8 = 1;
const HEAD_RPC: u8 = 2;
const HEAD_CORR: u8 = 4;

/// 49 bytes fixed: id, timestamp, nodes, services, API, a flag byte
/// (response, RPC id present, correlation id present), the RPC id and the
/// correlation id (0 when absent), the connection and the payload length.
impl Wire for MessageHead {
    const MIN_BYTES: usize = 49;

    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        let flags = ((self.direction == Direction::Response) as u8 * HEAD_RESPONSE)
            | (self.rpc_msg_id.is_some() as u8 * HEAD_RPC)
            | (self.correlation_id.is_some() as u8 * HEAD_CORR);
        (self.id, self.ts_us, self.src_node, self.dst_node).put(out);
        (self.src_service, self.dst_service, self.api, flags).put(out);
        self.rpc_msg_id.unwrap_or(0).put(out);
        self.correlation_id.unwrap_or(0).put(out);
        (self.conn, self.payload_len).put(out);
    }

    #[inline]
    fn read(r: &mut Reader<'_>) -> Result<MessageHead, DecodeError> {
        let (id, ts_us, src_node, dst_node) = Wire::read(r)?;
        let (src_service, dst_service, api, flags): (_, _, _, u8) = Wire::read(r)?;
        if flags > HEAD_RESPONSE | HEAD_RPC | HEAD_CORR {
            return Err(DecodeError::Invalid("head flags"));
        }
        let (rpc_msg_id, correlation_id): (u64, u64) = Wire::read(r)?;
        let (conn, payload_len) = Wire::read(r)?;
        Ok(MessageHead {
            id,
            ts_us,
            src_node,
            dst_node,
            src_service,
            dst_service,
            api,
            direction: match flags & HEAD_RESPONSE {
                0 => Direction::Request,
                _ => Direction::Response,
            },
            rpc_msg_id: (flags & HEAD_RPC != 0).then_some(rpc_msg_id),
            conn,
            correlation_id: (flags & HEAD_CORR != 0).then_some(correlation_id),
            payload_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        (0xABu8, 0xBEEFu16, 0xDEAD_BEEFu32, u64::MAX - 1).put(&mut out);
        (-0.0f64).put(&mut out);
        b"abc"[..].put(&mut out);
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
        assert_eq!(
            Reader::new(&buf).done(),
            Err(DecodeError::Invalid("trailing bytes"))
        );
    }

    #[test]
    fn count_is_bounded_by_the_bytes_that_remain() {
        // Count 3, then exactly 3 items of 2 bytes.
        let mut buf = Vec::new();
        put_count(&mut buf, 3);
        buf.extend_from_slice(&[0; 6]);
        assert_eq!(Reader::new(&buf).count(2), Ok(3));
        assert_eq!(Reader::new(&buf).count(3), Err(DecodeError::Truncated));
        assert_eq!(decode::<Vec<u16>>(&buf), Ok(vec![0; 3]));
        assert_eq!(decode::<Vec<(u16, u8)>>(&buf), Err(DecodeError::Truncated));
        // A hostile count is refused before anything is allocated for it.
        let mut hostile = encode(&u32::MAX);
        hostile.extend_from_slice(&[0; 64]);
        assert_eq!(Reader::new(&hostile).count(1), Err(DecodeError::Truncated));
        assert_eq!(Reader::new(&hostile).bytes(), Err(DecodeError::Truncated));
        assert_eq!(decode::<Vec<u8>>(&hostile), Err(DecodeError::Truncated));
    }

    /// Encode `smallest`, the type's smallest value, and require that its
    /// length is the type's `MIN_BYTES` and that it reads back.
    fn smallest<T: Wire + PartialEq + std::fmt::Debug>(smallest: T) {
        let bytes = encode(&smallest);
        assert_eq!(bytes.len(), T::MIN_BYTES, "{smallest:?}");
        assert_eq!(decode::<T>(&bytes), Ok(smallest));
    }

    #[test]
    fn each_type_s_smallest_value_encodes_to_its_min_bytes() {
        smallest(0u8);
        smallest(0u16);
        smallest(0u32);
        smallest(0u64);
        smallest(0.0f64);
        smallest(0usize);
        smallest(false);
        smallest(None::<u16>);
        smallest(Vec::<u64>::new());
        smallest(VecDeque::<f64>::new());
        smallest(String::new());
        smallest((0u8, 0u16));
        smallest((0u8, Vec::<u8>::new(), false));
        smallest((0u8, 0u16, 0u32, 0u64));
        smallest(MessageId(0));
        smallest(ApiId(0));
        smallest(NodeId(0));
        smallest(OpSpecId(0));
        smallest(ConnKey::default());
        smallest(Direction::Request);
        smallest(Dependency::MySqlReachable);
        smallest(Service::ALL[0]);
        let head = MessageHead {
            id: MessageId(1),
            ts_us: 2,
            src_node: NodeId(1),
            dst_node: NodeId(2),
            src_service: Service::ALL[3],
            dst_service: Service::ALL[5],
            api: ApiId(77),
            direction: Direction::Request,
            rpc_msg_id: None,
            conn: ConnKey::default(),
            correlation_id: None,
            payload_len: 0,
        };
        // A head is fixed-size whichever options it carries.
        smallest(head);
        smallest(MessageHead {
            direction: Direction::Response,
            rpc_msg_id: Some(41),
            correlation_id: Some(7),
            ..head
        });
    }

    #[test]
    fn a_byte_run_is_its_count_and_its_bytes() {
        let mut want = encode(&3u32);
        want.extend_from_slice(b"abc");
        assert_eq!(encode(&b"abc".to_vec()), want);
        assert_eq!(encode(&"abc".to_string()), want);
        assert_eq!(decode::<String>(&want).as_deref(), Ok("abc"));
        want[4] = 0xFF;
        assert_eq!(
            decode::<String>(&want),
            Err(DecodeError::Invalid("string utf8"))
        );
    }

    #[test]
    fn tags_and_flags_out_of_range_are_invalid() {
        assert_eq!(decode::<bool>(&[2]), Err(DecodeError::Invalid("bool")));
        assert_eq!(
            decode::<Option<u8>>(&[2, 0]),
            Err(DecodeError::Invalid("option tag"))
        );
        assert_eq!(
            decode::<Dependency>(&[5]),
            Err(DecodeError::Invalid("Dependency tag"))
        );
        assert_eq!(
            decode::<Dependency>(&[0, 3]),
            Ok(Dependency::ServiceProcess(Service::ALL[3]))
        );
        let mut head = vec![0u8; MessageHead::MIN_BYTES];
        head[16..18].copy_from_slice(&[1, 2]);
        head[20] = 1;
        assert!(decode::<MessageHead>(&head).is_ok());
        head[22] = 8;
        assert_eq!(
            decode::<MessageHead>(&head),
            Err(DecodeError::Invalid("head flags"))
        );
    }
}
