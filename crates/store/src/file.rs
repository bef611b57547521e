//! File backend: the record log as one append-only file, `log.v2`, in the
//! store directory.
//!
//! A file offset is a log offset: the file holds exactly the bytes
//! [`Store::bytes`] returns. Appends write whole records at the end;
//! [`Store::sync`] is `fdatasync`. Nothing rotates, seals or compacts the
//! file: a restore reads one base record and the delta records after it,
//! wherever they lie, so a byte-count cut would only produce files that
//! nothing reads separately (DESIGN.md §13).
//!
//! **Torn-tail truncation**: a crash mid-append can leave the file ending in
//! a structurally incomplete record. [`FileStore::open`] physically truncates
//! the file back to its last complete record ([`crate::complete_len`]). A
//! torn *payload* that is structurally complete but checksum-invalid is kept
//! on disk and skipped by readers, exactly as in a [`crate::MemStore`].

use crate::{complete_len, corrupt_offset, encode_record, Store, StoreError};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Tunables for [`FileStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStoreConfig {
    /// Largest accepted payload, clamped to the format's u32 bound.
    pub max_record: usize,
}

impl Default for FileStoreConfig {
    fn default() -> FileStoreConfig {
        FileStoreConfig {
            max_record: u32::MAX as usize,
        }
    }
}

const LOG: &str = "log.v2";

/// The log file of the previous record format (FNV-1a checksums).
const OLD_LOG: &str = "log";

/// The record log as one append-only file in a directory. See the module
/// docs for the on-disk protocol.
///
/// ```no_run
/// use gretel_store::{FileStore, FileStoreConfig, Store};
///
/// let mut s = FileStore::open("/tmp/gretel-ckpt", FileStoreConfig::default()).unwrap();
/// s.append(1, b"checkpoint bytes").unwrap();
/// s.sync().unwrap();
/// // ... process dies; a later process reopens the same directory:
/// let s2 = FileStore::open("/tmp/gretel-ckpt", FileStoreConfig::default()).unwrap();
/// assert_eq!(s2.latest_valid(1), Some(&b"checkpoint bytes"[..]));
/// ```
#[derive(Debug)]
pub struct FileStore {
    cfg: FileStoreConfig,
    /// Mirror of the file's bytes. All reads are served from here.
    buf: Vec<u8>,
    log: File,
    path: PathBuf,
    truncated_on_open: usize,
}

impl FileStore {
    /// Open (creating if needed) a store directory: read the log file into
    /// the mirror and truncate a torn tail off it. A directory that still
    /// holds segment files of the old rotating layout, or the `log` file of
    /// the old checksum, is refused ([`StoreError::OldLayout`]) rather than
    /// opened without their records.
    pub fn open(dir: impl AsRef<Path>, cfg: FileStoreConfig) -> Result<FileStore, StoreError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| StoreError::io("create dir", e))?;
        for entry in fs::read_dir(dir).map_err(|e| StoreError::io("read dir", e))? {
            let name = entry
                .map_err(|e| StoreError::io("read dir", e))?
                .file_name();
            let name = name.to_string_lossy();
            if name.starts_with("seg-") || name.ends_with(".seg") || name == OLD_LOG {
                return Err(StoreError::OldLayout {
                    file: name.into_owned(),
                });
            }
        }

        let path = FileStore::log_path(dir);
        let created = !path.exists();
        let mut log = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| StoreError::io("open log", e))?;
        if created {
            // Make the new directory entry durable: without it a crash
            // could lose the file, and every synced record in it.
            File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| StoreError::io("sync dir", e))?;
        }
        let mut buf = Vec::new();
        log.read_to_end(&mut buf)
            .map_err(|e| StoreError::io("read log", e))?;
        let keep = complete_len(&buf);
        let truncated_on_open = buf.len() - keep;
        if truncated_on_open > 0 {
            // Torn tail: physically cut the incomplete record so future
            // appends extend a clean log.
            log.set_len(keep as u64)
                .and_then(|()| log.sync_data())
                .map_err(|e| StoreError::io("truncate torn tail", e))?;
            buf.truncate(keep);
        }
        Ok(FileStore {
            cfg,
            buf,
            log,
            path,
            truncated_on_open,
        })
    }

    /// Path of the log file of the store in `dir` — exposed so chaos
    /// harnesses can tear its tail between process lifetimes.
    pub fn log_path(dir: impl AsRef<Path>) -> PathBuf {
        dir.as_ref().join(LOG)
    }

    /// Bytes of torn tail [`FileStore::open`] cut off the log file.
    pub fn truncated_on_open(&self) -> usize {
        self.truncated_on_open
    }

    /// Chaos hook: flip one payload byte of record `index` (0-based,
    /// oldest first) on disk and in the mirror, leaving the length prefix
    /// intact so the scan stays aligned — a reopen sees the corruption.
    /// Returns `false` when the record does not exist, has an empty
    /// payload, or the write fails.
    pub fn corrupt_record(&mut self, index: usize, byte: usize) -> bool {
        let Some(off) = corrupt_offset(&self.buf, index, byte) else {
            return false;
        };
        let flipped = self.buf[off] ^ 0x40;
        // The append-mode handle only writes at the end; patch the byte
        // through a second handle, then mirror the flip in memory.
        let patched = OpenOptions::new()
            .write(true)
            .open(&self.path)
            .and_then(|mut f| {
                f.seek(SeekFrom::Start(off as u64))?;
                f.write_all(&[flipped])?;
                f.sync_data()
            });
        if patched.is_err() {
            return false;
        }
        self.buf[off] = flipped;
        true
    }
}

impl Store for FileStore {
    fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StoreError> {
        let start = self.buf.len();
        encode_record(&mut self.buf, kind, payload, self.cfg.max_record)?;
        if let Err(e) = self.log.write_all(&self.buf[start..]) {
            // Keep the mirror honest: the failed record is not on disk.
            self.buf.truncate(start);
            return Err(StoreError::io("append", e));
        }
        Ok(())
    }

    fn bytes(&self) -> &[u8] {
        &self.buf
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.log.sync_data().map_err(|e| StoreError::io("sync", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gretel-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn reopen_reads_back_the_one_log_file() {
        let dir = tmpdir("reopen");
        let cfg = FileStoreConfig::default();
        let mut mem = MemStore::new();
        {
            let mut s = FileStore::open(&dir, cfg).unwrap();
            for i in 0..20u8 {
                let payload = vec![i; 1 + (i as usize * 7) % 40];
                s.append(1 + i % 3, &payload).unwrap();
                mem.append(1 + i % 3, &payload).unwrap();
            }
            assert_eq!(s.bytes(), mem.bytes());
        }
        // A file offset is a log offset, and nothing else is in the directory.
        assert_eq!(fs::read(FileStore::log_path(&dir)).unwrap(), mem.bytes());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let s = FileStore::open(&dir, cfg).unwrap();
        assert_eq!(s.bytes(), mem.bytes(), "reopen reconstructs the log");
        assert_eq!(s.truncated_on_open(), 0);
        for k in 1..=3 {
            assert_eq!(s.latest_valid(k), mem.latest_valid(k));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        let cfg = FileStoreConfig::default();
        {
            let mut s = FileStore::open(&dir, cfg).unwrap();
            s.append(1, b"kept-record").unwrap();
            s.append(1, b"doomed-record").unwrap();
            s.sync().unwrap();
        }
        // Tear the last record mid-payload, as a crash mid-write would.
        let log = FileStore::log_path(&dir);
        let len = fs::metadata(&log).unwrap().len();
        let f = OpenOptions::new().write(true).open(&log).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let s = FileStore::open(&dir, cfg).unwrap();
        assert!(s.truncated_on_open() > 0);
        assert_eq!(s.latest_valid(1), Some(&b"kept-record"[..]));
        assert_eq!(s.len(), 1);
        // The truncation is physical: a second open sees a clean log.
        let s2 = FileStore::open(&dir, cfg).unwrap();
        assert_eq!(s2.truncated_on_open(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_layout_directory_is_a_typed_error() {
        for old in ["seg-000000.seg", "current.seg", "seg-000003.tmp", "log"] {
            let dir = tmpdir("old-layout");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(old), b"committed records of an old layout").unwrap();
            let err = FileStore::open(&dir, FileStoreConfig::default()).unwrap_err();
            assert_eq!(
                err,
                StoreError::OldLayout {
                    file: old.to_string()
                }
            );
            assert!(err.to_string().contains(old));
            assert!(
                !FileStore::log_path(&dir).exists(),
                "refused before creating a log"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn corruption_reaches_disk() {
        let dir = tmpdir("corrupt");
        let cfg = FileStoreConfig::default();
        let mut s = FileStore::open(&dir, cfg).unwrap();
        s.append(1, b"record-zero-payload-is-long").unwrap();
        s.append(1, b"record-one").unwrap();
        assert!(s.corrupt_record(0, 4));
        assert!(s.corrupt_record(1, 2));
        assert!(!s.corrupt_record(2, 0), "no such record");
        assert_eq!(s.record_counts(), (0, 2));
        // The patch went through a second handle; appends still land at the end.
        s.append(1, b"record-two").unwrap();
        drop(s);
        let s = FileStore::open(&dir, cfg).unwrap();
        assert_eq!(s.record_counts(), (1, 2), "corruption persisted to disk");
        assert_eq!(s.latest_valid(1), Some(&b"record-two"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_append_leaves_store_and_disk_unchanged() {
        let dir = tmpdir("oversize");
        let cfg = FileStoreConfig { max_record: 16 };
        let mut s = FileStore::open(&dir, cfg).unwrap();
        s.append(1, b"fits").unwrap();
        let err = s.append(1, &[0u8; 17]).unwrap_err();
        assert_eq!(err, StoreError::Oversized { len: 17, max: 16 });
        assert_eq!(s.len(), 1);
        drop(s);
        let s = FileStore::open(&dir, cfg).unwrap();
        assert_eq!(s.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
