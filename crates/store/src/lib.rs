//! # gretel-store — durable state for the GRETEL analyzer
//!
//! The fault-tolerant analyzer service checkpoints its ingest state and
//! releases diagnoses through an append-only record log. This crate owns
//! that log: a common record format (length-prefixed, xxHash64-checksummed),
//! a [`Store`] trait over it, and two backends —
//!
//! * [`MemStore`]: the whole log in one `Vec<u8>`; tests and the
//!   in-memory arms of the recovery experiment use it.
//! * [`FileStore`]: the same bytes in one append-only file, `log.v2`, with
//!   torn-tail truncation on open and `fdatasync` on [`Store::sync`], or
//!   on another thread through the handle [`Store::flusher`] detaches. This
//!   is what lets the *whole process* die and restart without losing
//!   committed state.
//!
//! ## Record format
//!
//! Every record is `u32 len | u64 checksum(payload) | u8 kind | payload`,
//! little-endian ([`RECORD_HEADER`] = 13 bytes of header; [`checksum`] is
//! xxHash64 with seed 0, read a word at a time). The length
//! prefix keeps a scan aligned past a corrupted payload, so one bad
//! record never hides the records after it; the checksum makes corruption
//! detectable, so readers use the newest record that still verifies. A
//! record whose bytes end early (a torn write) is structurally incomplete
//! and is not yielded at all.
//!
//! Readers never interpret payloads — kinds and payload codecs belong to
//! the caller (`gretel-core` defines base, delta and diagnosis-release
//! records on top of this).
//!
//! ```
//! use gretel_store::{MemStore, Store};
//!
//! let mut s = MemStore::new();
//! s.append(1, b"first").unwrap();
//! s.append(1, b"second").unwrap();
//! assert_eq!(s.latest_valid(1), Some(&b"second"[..]));
//! assert_eq!(s.record_counts(), (2, 0));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod file;

pub use file::{FileStore, FileStoreConfig};

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An appended payload does not fit the record format's u32 length
    /// prefix (or the backend's configured bound). Appending it would have
    /// silently truncated the length prefix and desynchronized every scan
    /// after it, so it is rejected up front and the store is unchanged.
    Oversized {
        /// The rejected payload length.
        len: usize,
        /// The largest accepted payload length.
        max: usize,
    },
    /// A filesystem operation failed.
    Io {
        /// Which operation (`"open"`, `"append"`, `"sync"`, ...).
        op: &'static str,
        /// The underlying error, rendered.
        detail: String,
    },
    /// The directory holds a file an earlier layout wrote: segment files
    /// (`seg-NNNNNN.seg`, `current.seg`) of the rotating layout, or `log`,
    /// the one-file log whose records carry the FNV-1a checksum the
    /// current format replaced. Their records are committed state; opening
    /// the directory would silently start over without them.
    OldLayout {
        /// The first such file found.
        file: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Oversized { len, max } => {
                write!(
                    f,
                    "record payload of {len} bytes exceeds the store bound of {max}"
                )
            }
            StoreError::Io { op, detail } => write!(f, "store {op} failed: {detail}"),
            StoreError::OldLayout { file } => {
                write!(f, "store directory holds a file of an old layout ({file})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    pub(crate) fn io(op: &'static str, e: std::io::Error) -> StoreError {
        StoreError::Io {
            op,
            detail: e.to_string(),
        }
    }
}

/// Per-record header: u32 payload length, u64 [`checksum`], u8 kind.
pub const RECORD_HEADER: usize = 4 + 8 + 1;

/// FNV-1a 64-bit over a byte slice. Not the record checksum (that is
/// [`checksum`]): the benchmark's `diag_digest` hashes the released
/// diagnoses with it, and the digests pinned in `scripts/check_digests.txt`
/// hold only while this function stays exactly as it is.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// xxHash64's five primes.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One lane step: fold a word into an accumulator.
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Fold one finished lane into the combined hash.
fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// The record checksum: xxHash64 with seed 0 over a byte slice. Not
/// cryptographic; it detects the corruption chaos injectors (and real
/// disks) produce: flipped or torn bytes inside a record.
///
/// The payload is read as little-endian `u64` words over four independent
/// lanes, so the multiplies of one 32-byte stripe overlap instead of each
/// waiting on the one before, as a byte-serial hash's do.
// The crate is dependency-free, so it loads the words itself rather than
// through gretel_model::codec (see clippy.toml); it hashes them, it does
// not decode a format.
#[allow(clippy::disallowed_methods)]
pub fn checksum(bytes: &[u8]) -> u64 {
    let word = |w: &[u8]| u64::from_le_bytes(w[..8].try_into().expect("an 8-byte word"));
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(w));
            }
        }
        let [a, b, c, d] = lanes;
        let h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.into_iter().fold(h, merge)
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h ^= round(0, word(w));
        h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let half = u32::from_le_bytes(tail[..4].try_into().expect("a 4-byte half word"));
        h ^= (half as u64).wrapping_mul(P1);
        h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h ^= (b as u64).wrapping_mul(P5);
        h = h.rotate_left(11).wrapping_mul(P1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// One structurally complete record yielded by [`records`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// Byte offset of the record header in the scanned buffer.
    pub offset: usize,
    /// The caller-defined record kind byte.
    pub kind: u8,
    /// The payload bytes (possibly corrupt — see [`Record::valid`]).
    pub payload: &'a [u8],
    /// The checksum the header claims for `payload`.
    sum: u64,
}

impl Record<'_> {
    /// Whether the payload checksum verifies. This hashes the payload, so
    /// walks that only need structure (offsets, kinds, counts) never pay
    /// for it.
    pub fn valid(&self) -> bool {
        checksum(self.payload) == self.sum
    }

    /// Byte offset just past this record in the scanned buffer.
    pub fn end(&self) -> usize {
        self.offset + RECORD_HEADER + self.payload.len()
    }
}

/// Walk all structurally complete records in a log buffer, oldest first,
/// reading headers only. A torn tail (bytes that end before the record they
/// start is complete) is not yielded.
pub fn records(buf: &[u8]) -> Records<'_> {
    Records { buf, pos: 0 }
}

/// Iterator returned by [`records`].
#[derive(Debug, Clone)]
pub struct Records<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for Records<'a> {
    type Item = Record<'a>;

    // The crate is dependency-free, so the 13-byte record header is read
    // here rather than through gretel_model::codec (see clippy.toml).
    #[allow(clippy::disallowed_methods)]
    fn next(&mut self) -> Option<Record<'a>> {
        if self.buf.len() - self.pos < RECORD_HEADER {
            return None;
        }
        let len = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4]
                .try_into()
                .expect("len prefix"),
        ) as usize;
        let sum = u64::from_le_bytes(
            self.buf[self.pos + 4..self.pos + 12]
                .try_into()
                .expect("checksum"),
        );
        let kind = self.buf[self.pos + 12];
        let start = self.pos + RECORD_HEADER;
        let end = start.checked_add(len).filter(|&e| e <= self.buf.len())?;
        let payload = &self.buf[start..end];
        let offset = self.pos;
        self.pos = end;
        Some(Record {
            offset,
            kind,
            payload,
            sum,
        })
    }
}

/// Length of the structurally complete prefix of a log buffer: everything
/// up to (but excluding) a torn tail record. This is what
/// [`FileStore::open`] truncates the log file to.
pub(crate) fn complete_len(buf: &[u8]) -> usize {
    records(buf).last().map_or(0, |r| r.end())
}

/// Encode one record onto `out`, rejecting payloads over `max`.
pub(crate) fn encode_record(
    out: &mut Vec<u8>,
    kind: u8,
    payload: &[u8],
    max: usize,
) -> Result<(), StoreError> {
    let max = max.min(u32::MAX as usize);
    if payload.len() > max {
        return Err(StoreError::Oversized {
            len: payload.len(),
            max,
        });
    }
    out.reserve(RECORD_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    Ok(())
}

/// Absolute buffer offset of the byte to flip for a chaos corruption of
/// record `index` (0-based, oldest first): payload byte `byte % len`.
/// `None` when the record does not exist or has an empty payload.
pub(crate) fn corrupt_offset(buf: &[u8], index: usize, byte: usize) -> Option<usize> {
    let r = records(buf).nth(index)?;
    if r.payload.is_empty() {
        return None;
    }
    Some(r.offset + RECORD_HEADER + byte % r.payload.len())
}

/// An append-only log of length-prefixed, checksummed records.
///
/// Writers take `&mut self`; reads borrow from the store's logical byte
/// mirror, so both backends serve them without I/O. The trait is
/// object-safe — the analyzer service takes `&mut dyn Store`, so callers
/// pick durability per run (in-memory for tests, a log file for
/// whole-process crash recovery).
pub trait Store {
    /// Append one record. The store is unchanged on error.
    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StoreError>;

    /// The log bytes, oldest record first.
    fn bytes(&self) -> &[u8];

    /// Flush buffered writes to durable storage (no-op for [`MemStore`]).
    fn sync(&mut self) -> Result<(), StoreError>;

    /// This store's [`Store::sync`], detached so another thread can run it
    /// while the owner goes on appending. Each detached sync covers every
    /// record appended before it starts; a record appended while one runs
    /// needs a later one. Unsynced records carry no order on disk: a
    /// power loss may keep a later one and not an earlier one.
    fn flusher(&self) -> Result<Box<dyn Flush + Send>, StoreError>;

    /// The payload of the newest record of `kind` whose checksum verifies.
    fn latest_valid(&self, kind: u8) -> Option<&[u8]> {
        let mut best = None;
        for r in records(self.bytes()) {
            if r.kind == kind && r.valid() {
                best = Some(r.payload);
            }
        }
        best
    }

    /// Payloads of every checksum-valid record of `kind`, oldest first.
    fn records_of(&self, kind: u8) -> Vec<&[u8]> {
        records(self.bytes())
            .filter(|r| r.kind == kind && r.valid())
            .map(|r| r.payload)
            .collect()
    }

    /// `(valid, corrupt)` record counts across the whole log.
    fn record_counts(&self) -> (usize, usize) {
        let mut valid = 0;
        let mut corrupt = 0;
        for r in records(self.bytes()) {
            if r.valid() {
                valid += 1;
            } else {
                corrupt += 1;
            }
        }
        (valid, corrupt)
    }

    /// Number of structurally complete records (valid or not).
    fn len(&self) -> usize {
        records(self.bytes()).count()
    }

    /// Whether the store holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A store's sync, detached from the store by [`Store::flusher`].
pub trait Flush {
    /// Make every record appended to the store so far durable.
    fn sync(&self) -> Result<(), StoreError>;
}

/// The whole log in one in-memory buffer.
///
/// Its tests tighten the accepted payload size below the format's u32
/// bound, so the oversized-append path is testable without multi-gigabyte
/// allocations.
#[derive(Debug, Clone)]
pub struct MemStore {
    buf: Vec<u8>,
    max_record: usize,
}

impl MemStore {
    /// An empty store accepting any payload the record format can hold.
    pub fn new() -> MemStore {
        MemStore {
            buf: Vec::new(),
            max_record: u32::MAX as usize,
        }
    }

    /// An empty store rejecting payloads longer than `max` bytes.
    #[cfg(test)]
    fn with_max_record(max: usize) -> MemStore {
        MemStore {
            buf: Vec::new(),
            max_record: max.min(u32::MAX as usize),
        }
    }

    /// Reopen raw log bytes, as [`FileStore::open`] reopens a file: a torn
    /// tail is cut off so later appends extend a clean log; corrupt records
    /// stay and surface during [`Store::latest_valid`].
    pub fn from_bytes(mut buf: Vec<u8>) -> MemStore {
        buf.truncate(complete_len(&buf));
        MemStore {
            buf,
            max_record: u32::MAX as usize,
        }
    }

    /// Chaos hook: flip one payload byte of record `index` (0-based,
    /// oldest first), leaving the length prefix intact so the scan stays
    /// aligned. Returns `false` when the record does not exist or has an
    /// empty payload.
    pub fn corrupt_record(&mut self, index: usize, byte: usize) -> bool {
        let Some(off) = corrupt_offset(&self.buf, index, byte) else {
            return false;
        };
        self.buf[off] ^= 0x40;
        true
    }
}

impl Default for MemStore {
    fn default() -> MemStore {
        MemStore::new()
    }
}

impl Store for MemStore {
    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        encode_record(&mut self.buf, kind, payload, self.max_record)
    }

    fn bytes(&self) -> &[u8] {
        &self.buf
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn flusher(&self) -> Result<Box<dyn Flush + Send>, StoreError> {
        Ok(Box::new(NoFlush))
    }
}

/// [`MemStore`]'s detached sync: nothing to flush.
struct NoFlush;

impl Flush for NoFlush {
    fn sync(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_round_trips_records_in_order() {
        let mut s = MemStore::new();
        s.append(1, b"alpha").unwrap();
        s.append(2, b"beta").unwrap();
        s.append(1, b"gamma").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.record_counts(), (3, 0));
        assert_eq!(s.latest_valid(1), Some(&b"gamma"[..]));
        assert_eq!(s.latest_valid(2), Some(&b"beta"[..]));
        assert_eq!(s.latest_valid(9), None);
        assert_eq!(s.records_of(1), vec![&b"alpha"[..], &b"gamma"[..]]);

        let s2 = MemStore::from_bytes(s.bytes().to_vec());
        assert_eq!(s2.latest_valid(1), Some(&b"gamma"[..]));
    }

    #[test]
    fn corrupt_record_is_skipped_not_fatal() {
        let mut s = MemStore::new();
        s.append(1, b"good-old").unwrap();
        s.append(1, b"good-new").unwrap();
        assert!(s.corrupt_record(1, 3));
        assert_eq!(s.record_counts(), (1, 1));
        assert_eq!(s.latest_valid(1), Some(&b"good-old"[..]));
        // Records *after* a corrupt one stay reachable (length prefix).
        s.append(1, b"newest").unwrap();
        assert_eq!(s.latest_valid(1), Some(&b"newest"[..]));
        // Out-of-range / empty-payload corruption targets report failure.
        assert!(!s.corrupt_record(17, 0));
        s.append(3, b"").unwrap();
        assert!(!s.corrupt_record(3, 0));
    }

    #[test]
    fn torn_tail_is_not_yielded() {
        let mut s = MemStore::new();
        s.append(1, b"payload").unwrap();
        let full = s.bytes().to_vec();
        let cut = MemStore::from_bytes(full[..full.len() - 3].to_vec());
        assert_eq!(cut.latest_valid(1), None);
        assert!(cut.is_empty());
        assert_eq!(complete_len(cut.bytes()), 0);
        assert_eq!(complete_len(&full), full.len());
    }

    #[test]
    fn header_walk_and_checksummed_walk_agree_on_offsets() {
        let payloads: [&[u8]; 3] = [b"first", b"middle-record", b"last"];
        let mut s = MemStore::new();
        for p in payloads {
            s.append(1, p).unwrap();
        }
        assert!(s.corrupt_record(1, 0));
        let mut image = s.bytes().to_vec();
        let complete = image.len();
        // A torn fourth record: a whole header, half its payload.
        encode_record(&mut image, 1, b"torn-away", usize::MAX).unwrap();
        image.truncate(image.len() - 4);

        let mut expected = Vec::new();
        let mut off = 0;
        for p in payloads {
            expected.push(off);
            off += RECORD_HEADER + p.len();
        }
        // The structural walk reads no payload byte, the checksummed one
        // hashes all of them; both see the same three records.
        let header_walk: Vec<usize> = records(&image).map(|r| r.offset).collect();
        let checksummed: Vec<(usize, bool)> =
            records(&image).map(|r| (r.offset, r.valid())).collect();
        assert_eq!(header_walk, expected);
        assert_eq!(
            checksummed,
            vec![
                (expected[0], true),
                (expected[1], false),
                (expected[2], true)
            ]
        );
        assert_eq!(records(&image).last().unwrap().end(), complete);
        assert_eq!(complete_len(&image), complete);

        // Reopening cuts the torn tail, so appends extend an aligned log.
        let mut reopened = MemStore::from_bytes(image);
        assert_eq!(reopened.bytes().len(), complete);
        reopened.append(2, b"after-the-tear").unwrap();
        assert_eq!(reopened.len(), 4);
        assert_eq!(reopened.record_counts(), (3, 1));
        assert_eq!(reopened.latest_valid(2), Some(&b"after-the-tear"[..]));
    }

    #[test]
    fn oversized_payloads_are_rejected_store_unchanged() {
        let mut s = MemStore::with_max_record(8);
        s.append(1, b"12345678").unwrap();
        let err = s.append(1, b"123456789").unwrap_err();
        assert_eq!(err, StoreError::Oversized { len: 9, max: 8 });
        assert_eq!(s.len(), 1, "failed append must not disturb the log");
        assert_eq!(s.latest_valid(1), Some(&b"12345678"[..]));
        assert!(!err.to_string().is_empty());
    }
}
