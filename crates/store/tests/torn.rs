//! Satellite coverage for torn writes, mirroring the in-memory
//! corrupt-journal tests from PR 3 at the file layer: whatever a crash
//! leaves on disk — the tail truncated at ANY byte offset, or any single
//! byte flipped — opening the store never panics and always recovers the
//! newest fully-valid record.

use gretel_store::{records, FileStore, FileStoreConfig, Store};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique scratch directory per test case (no tempfile crate offline).
fn scratch() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "gretel-store-torn-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Splitmix64 — deterministic payload material from a case seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seed-derived record set: 1..=5 records, kinds 1..=3, payloads up to
/// 23 bytes (empty allowed) — small enough that the exhaustive inner
/// loops below stay cheap.
fn record_set(seed: u64) -> Vec<(u8, Vec<u8>)> {
    let n = 1 + (mix(seed) % 5) as usize;
    (0..n)
        .map(|i| {
            let r = mix(seed ^ (i as u64) << 17);
            let kind = 1 + (r % 3) as u8;
            let len = ((r >> 8) % 24) as usize;
            let payload = (0..len).map(|b| mix(r ^ b as u64) as u8).collect();
            (kind, payload)
        })
        .collect()
}

/// The oracle: newest checksum-valid record of `kind` in a raw log image,
/// computed independently of the store's own read path.
fn oracle_latest(image: &[u8], kind: u8) -> Option<Vec<u8>> {
    records(image)
        .filter(|r| r.kind == kind && r.valid())
        .last()
        .map(|r| r.payload.to_vec())
}

/// Write `image` as the log file of a fresh store directory and
/// open it. The open itself must not panic or error for any image.
fn open_image(dir: &PathBuf, image: &[u8]) -> FileStore {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).unwrap();
    fs::write(FileStore::log_path(dir), image).unwrap();
    FileStore::open(dir, FileStoreConfig::default()).unwrap()
}

/// Build the full on-disk image for a seed's record set.
fn full_image(dir: &PathBuf, seed: u64) -> Vec<u8> {
    let _ = fs::remove_dir_all(dir);
    let mut s = FileStore::open(dir, FileStoreConfig::default()).unwrap();
    for (kind, payload) in record_set(seed) {
        s.append(kind, &payload).unwrap();
    }
    s.bytes().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Truncating the log at EVERY byte offset recovers exactly the
    /// records that are still complete — never a panic, never a
    /// half-applied record, and the newest fully-valid record of every
    /// kind matches an independent scan of the truncated image.
    #[test]
    fn every_truncation_offset_recovers_newest_valid_record(seed in any::<u64>()) {
        let dir = scratch();
        let full = full_image(&dir, seed);
        for cut in 0..=full.len() {
            let image = &full[..cut];
            let s = open_image(&dir, image);
            for kind in 1..=3u8 {
                prop_assert_eq!(
                    s.latest_valid(kind).map(<[u8]>::to_vec),
                    oracle_latest(image, kind),
                    "cut at {} of {}", cut, full.len()
                );
            }
            // Open physically removed the torn tail: what remains on disk
            // is exactly the structurally complete prefix.
            prop_assert_eq!(
                fs::metadata(FileStore::log_path(&dir)).unwrap().len() as usize,
                s.bytes().len()
            );
            prop_assert_eq!(s.truncated_on_open() > 0, cut != s.bytes().len());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping ANY single byte of the log never panics and degrades at
    /// most the records the flip touches: reads return the newest record
    /// that still checksums, exactly as an independent scan predicts.
    #[test]
    fn every_single_byte_corruption_recovers_newest_valid_record(
        seed in any::<u64>(),
        flip in any::<u8>(),
    ) {
        let flip = flip | 1; // XOR with 0 would be a no-op "corruption".
        let dir = scratch();
        let full = full_image(&dir, seed);
        for off in 0..full.len() {
            let mut image = full.clone();
            image[off] ^= flip;
            let s = open_image(&dir, &image);
            // A flipped length prefix can make the tail structurally
            // incomplete; open then truncates it. Either way, reads agree
            // with the oracle over what open kept on disk.
            let kept = s.bytes().to_vec();
            prop_assert_eq!(&image[..kept.len()], &kept[..], "offset {}", off);
            for kind in 1..=3u8 {
                prop_assert_eq!(
                    s.latest_valid(kind).map(<[u8]>::to_vec),
                    oracle_latest(&kept, kind),
                    "flip at {}", off
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
