//! Content hashing for cache keys.
//!
//! Programs are registered under the FNV-1a 64-bit hash of their source
//! text: cheap, dependency-free, and stable across processes, so a client
//! can compute the key itself and skip the `load` round-trip for programs
//! it knows the daemon has seen. Keys print as fixed-width hex
//! (`"a1b2…"`), the form every request's `program` field uses.

/// FNV-1a 64-bit over the raw source bytes: the snapshot store's
/// [`jumpslice_store::fnv1a`], so a record's key is its program's.
pub fn content_hash(source: &str) -> u64 {
    jumpslice_store::fnv1a(source.as_bytes())
}

/// The wire form of a cache key: 16 lowercase hex digits.
pub fn key_string(hash: u64) -> String {
    format!("{hash:016x}")
}

/// Parses the wire form back; `None` for anything that is not exactly 16
/// hex digits.
pub fn parse_key(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a 64 test vectors: empty input is the offset basis.
        assert_eq!(content_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(content_hash("a"), content_hash("b"));
    }

    #[test]
    fn key_round_trips() {
        for src in ["", "x = 1;", "read(x); write(x);"] {
            let h = content_hash(src);
            assert_eq!(parse_key(&key_string(h)), Some(h));
        }
        assert_eq!(parse_key("nope"), None);
        assert_eq!(parse_key("00000000000000000"), None, "17 digits");
        assert_eq!(parse_key("zzzzzzzzzzzzzzzz"), None);
    }
}
