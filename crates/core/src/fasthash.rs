//! A tiny multiply-rotate hasher for the per-message hash maps.
//!
//! The pairer keys two maps per message with small fixed-size keys
//! (connection tuples, message ids). SipHash's per-call setup dominates at
//! that key size; this hasher folds each word in with a golden-ratio
//! multiply and a rotate instead. Not DoS-resistant — only for maps keyed
//! by simulator-controlled values, never by raw attacker-controlled bytes.

// Loads words to hash them, not to decode a format (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::hash::{BuildHasherDefault, Hasher};

/// `2^64 / φ`, the usual Fibonacci-hashing multiplier.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-rotate hasher; see the module docs.
#[derive(Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(K).rotate_left(5);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

/// `HashMap` with the [`FastHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_small_keys_hash_apart() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for n in 0u64..10_000 {
            let mut h = FastHasher::default();
            h.write_u64(n);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000, "no collisions on a dense small range");
    }

    #[test]
    fn write_is_chunked_consistently() {
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut b = FastHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(a.finish(), b.finish());
    }
}
