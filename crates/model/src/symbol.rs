//! Unicode symbol encoding of APIs.
//!
//! The paper (§6) assigns each of the 643 unique OpenStack APIs a Unicode
//! symbol so that operation fingerprints and message snapshots become plain
//! strings, and fingerprint matching becomes (relaxed) regular-expression
//! matching over those strings. We map [`ApiId`] `n` onto the code point
//! `BASE + n`, chosen inside the CJK Unified Ideographs block: a contiguous
//! run of thousands of assigned, non-combining code points, so every id in
//! a realistic catalog gets a distinct, printable `char`.

use crate::api::ApiId;

/// First code point used for API symbols (CJK Unified Ideographs).
pub(crate) const SYMBOL_BASE: u32 = 0x4E00;

/// Largest encodable id. The CJK block is contiguous well beyond this.
pub(crate) const MAX_ENCODABLE: u16 = 20_000;

/// Encode an API id as its Unicode symbol.
///
/// # Panics
/// Panics if `id` exceeds 20 000; catalogs are far smaller.
#[inline]
pub fn encode(id: ApiId) -> char {
    assert!(id.0 <= MAX_ENCODABLE, "ApiId {} out of symbol range", id.0);
    // SAFETY of unwrap: BASE..=BASE+MAX_ENCODABLE lies inside the CJK
    // Unified Ideographs range (U+4E00..=U+9FFF) plus the following blocks,
    // all valid scalar values (no surrogates below U+D800).
    char::from_u32(SYMBOL_BASE + id.0 as u32).expect("valid scalar value")
}

/// Decode a symbol back to its API id, or `None` if the char is not an API
/// symbol.
#[inline]
pub fn decode(c: char) -> Option<ApiId> {
    let v = c as u32;
    if (SYMBOL_BASE..=SYMBOL_BASE + MAX_ENCODABLE as u32).contains(&v) {
        Some(ApiId((v - SYMBOL_BASE) as u16))
    } else {
        None
    }
}

/// Encode a sequence of API ids as a symbol string.
pub fn encode_seq(ids: &[ApiId]) -> String {
    ids.iter().map(|&id| encode(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_small_ids() {
        for n in 0..2048u16 {
            let id = ApiId(n);
            assert_eq!(decode(encode(id)), Some(id));
        }
    }

    #[test]
    fn distinct_ids_get_distinct_symbols() {
        let a = encode(ApiId(0));
        let b = encode(ApiId(1));
        let z = encode(ApiId(642));
        assert_ne!(a, b);
        assert_ne!(a, z);
        assert_ne!(b, z);
    }

    #[test]
    fn non_symbols_decode_to_none() {
        assert_eq!(decode('a'), None);
        assert_eq!(decode(' '), None);
        assert_eq!(decode('\u{4DFF}'), None); // one below BASE
    }

    #[test]
    fn sequence_round_trip() {
        let ids = vec![ApiId(5), ApiId(0), ApiId(642), ApiId(5)];
        let s = encode_seq(&ids);
        assert_eq!(s.chars().count(), 4);
        let back: Vec<ApiId> = s.chars().filter_map(decode).collect();
        assert_eq!(back, ids);
    }

    #[test]
    #[should_panic(expected = "out of symbol range")]
    fn encode_out_of_range_panics() {
        encode(ApiId(MAX_ENCODABLE + 1));
    }
}
