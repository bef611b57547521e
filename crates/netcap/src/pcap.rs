//! Minimal pcap-style capture dumps.
//!
//! All examples and experiment binaries can persist captured traffic in a
//! libpcap-flavoured container: a global header followed by per-record
//! headers (`ts_sec`, `ts_usec`, `incl_len`, `orig_len`) and the encoded
//! frame bytes. The link type is a private value since records hold GRETEL
//! frames, not Ethernet.

use crate::frame::{self, CodecError};
use gretel_model::codec::{put_u16, put_u32, Reader};
use gretel_model::Message;
use std::io::{self, Read, Write};

/// pcap global-header magic (standard little-endian value).
pub const PCAP_MAGIC: u32 = 0xA1B2_C3D4;
/// Private link type for GRETEL frames (matches LINKTYPE_USER0).
pub const LINKTYPE_GRETEL: u32 = 147;

const GLOBAL_HEADER: usize = 24;
const RECORD_HEADER: usize = 16;

/// Write a pcap global header.
pub fn write_header<W: Write>(w: &mut W) -> io::Result<()> {
    let mut h = Vec::with_capacity(GLOBAL_HEADER);
    put_u32(&mut h, PCAP_MAGIC);
    put_u16(&mut h, 2); // version major
    put_u16(&mut h, 4); // version minor
    put_u32(&mut h, 0); // thiszone
    put_u32(&mut h, 0); // sigfigs
    put_u32(&mut h, 65_535); // snaplen
    put_u32(&mut h, LINKTYPE_GRETEL);
    w.write_all(&h)
}

/// Append one message as a pcap record.
pub fn write_record<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    let data = frame::encode(msg);
    let mut h = Vec::with_capacity(RECORD_HEADER);
    put_u32(&mut h, (msg.ts_us / 1_000_000) as u32);
    put_u32(&mut h, (msg.ts_us % 1_000_000) as u32);
    put_u32(&mut h, data.len() as u32); // incl_len
    put_u32(&mut h, data.len() as u32); // orig_len
    w.write_all(&h)?;
    w.write_all(&data)
}

/// Write a whole capture (header + records).
pub fn write_capture<W: Write>(w: &mut W, msgs: &[Message]) -> io::Result<()> {
    write_header(w)?;
    for m in msgs {
        write_record(w, m)?;
    }
    Ok(())
}

/// Error reading a capture back.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a pcap file / wrong magic.
    BadMagic(u32),
    /// A record's frame failed to decode.
    Frame(CodecError),
    /// File ended mid-record.
    Truncated,
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "io error: {e}"),
            PcapError::BadMagic(m) => write!(f, "bad pcap magic 0x{m:08x}"),
            PcapError::Frame(e) => write!(f, "bad frame: {e}"),
            PcapError::Truncated => write!(f, "truncated pcap record"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, PcapError> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Ok(false)
            } else {
                Err(PcapError::Truncated)
            };
        }
        filled += n;
    }
    Ok(true)
}

/// Streaming capture reader: yields one message at a time without
/// buffering the whole file (captures from long runs can be large).
pub struct PcapReader<R: Read> {
    inner: R,
    header_done: bool,
}

impl<R: Read> PcapReader<R> {
    /// Wrap a reader positioned at the start of a capture file.
    pub fn new(inner: R) -> PcapReader<R> {
        PcapReader {
            inner,
            header_done: false,
        }
    }

    fn read_header(&mut self) -> Result<(), PcapError> {
        let mut header = [0u8; GLOBAL_HEADER];
        if !read_exact_or_eof(&mut self.inner, &mut header)? {
            return Err(PcapError::Truncated);
        }
        let magic = Reader::new(&header).u32().expect("header holds the magic");
        if magic != PCAP_MAGIC {
            return Err(PcapError::BadMagic(magic));
        }
        self.header_done = true;
        Ok(())
    }

    fn read_record(&mut self) -> Result<Option<Message>, PcapError> {
        if !self.header_done {
            self.read_header()?;
        }
        let mut rec = [0u8; RECORD_HEADER];
        if !read_exact_or_eof(&mut self.inner, &mut rec)? {
            return Ok(None);
        }
        // ts_sec, ts_usec, incl_len, orig_len
        let incl_len = Reader::new(&rec[8..])
            .u32()
            .expect("record header holds incl_len") as u64;
        // `incl_len` comes from the file: read at most that many bytes
        // rather than allocating for a length the file may not back.
        let mut data = Vec::new();
        self.inner.by_ref().take(incl_len).read_to_end(&mut data)?;
        if (data.len() as u64) < incl_len {
            return Err(PcapError::Truncated);
        }
        frame::decode_one(&data).map(Some).map_err(PcapError::Frame)
    }
}

impl<R: Read> Iterator for PcapReader<R> {
    type Item = Result<Message, PcapError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

/// Read a whole capture back into messages.
pub fn read_capture<R: Read>(r: &mut R) -> Result<Vec<Message>, PcapError> {
    PcapReader::new(r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gretel_model::{
        ApiId, ConnKey, Direction, HttpMethod, MessageId, NodeId, Service, WireKind,
    };

    fn msgs() -> Vec<Message> {
        (0..5u64)
            .map(|i| Message {
                id: MessageId(i),
                ts_us: i * 1_500_000, // crosses second boundaries
                src_node: NodeId(1),
                dst_node: NodeId(2),
                src_service: Service::Horizon,
                dst_service: Service::Nova,
                api: ApiId(i as u16),
                direction: Direction::Request,
                wire: WireKind::Rest {
                    method: HttpMethod::Get,
                    uri: format!("/v2.1/servers/{i}"),
                    status: None,
                },
                conn: ConnKey::default(),
                payload: vec![i as u8; 10],
                correlation_id: None,
                project: None,
                truth_op: None,
                truth_noise: false,
            })
            .collect()
    }

    #[test]
    fn capture_round_trips() {
        let original = msgs();
        let mut file = Vec::new();
        write_capture(&mut file, &original).unwrap();
        let read = read_capture(&mut file.as_slice()).unwrap();
        assert_eq!(read, original);
    }

    #[test]
    fn header_is_standard_pcap() {
        let mut file = Vec::new();
        write_capture(&mut file, &[]).unwrap();
        assert_eq!(file.len(), 24);
        assert_eq!(file[..4], PCAP_MAGIC.to_le_bytes());
    }

    #[test]
    fn bad_magic_rejected() {
        let file = vec![0u8; 24];
        assert!(matches!(
            read_capture(&mut file.as_slice()),
            Err(PcapError::BadMagic(0))
        ));
    }

    #[test]
    fn truncated_record_rejected() {
        let mut file = Vec::new();
        write_capture(&mut file, &msgs()).unwrap();
        file.truncate(file.len() - 4);
        assert!(matches!(
            read_capture(&mut file.as_slice()),
            Err(PcapError::Truncated)
        ));
    }

    #[test]
    fn inflated_record_length_is_an_error_not_an_allocation() {
        // A 16-byte record header claiming a 4 GiB frame, backed by
        // nothing: the reader must not size a buffer from it.
        let mut file = Vec::new();
        write_capture(&mut file, &msgs()[..1]).unwrap();
        file[24 + 8..24 + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_capture(&mut file.as_slice()),
            Err(PcapError::Truncated)
        ));
    }

    #[test]
    fn streaming_reader_matches_bulk_reader() {
        let original = msgs();
        let mut file = Vec::new();
        write_capture(&mut file, &original).unwrap();
        let streamed: Vec<Message> = PcapReader::new(file.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, original);
    }

    #[test]
    fn streaming_reader_surfaces_bad_magic() {
        let file = vec![0u8; 24];
        let mut r = PcapReader::new(file.as_slice());
        assert!(matches!(r.next(), Some(Err(PcapError::BadMagic(0)))));
    }

    #[test]
    fn empty_capture_is_ok() {
        let mut file = Vec::new();
        write_capture(&mut file, &[]).unwrap();
        assert_eq!(read_capture(&mut file.as_slice()).unwrap(), vec![]);
    }
}
