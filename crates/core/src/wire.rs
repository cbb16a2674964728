//! Little-endian wire primitives for the snapshot codec
//! ([`crate::snapshot`]).
//!
//! Encoding appends to a plain `Vec<u8>`; decoding goes through [`Reader`],
//! a cursor that answers `None` on any out-of-bounds read so decoders can
//! propagate truncation with `?` instead of panicking. Integers are
//! little-endian; counts and indices travel as `u32` (`u32::MAX` doubles as
//! the `None` sentinel for optional ids).

/// Appends a single tag byte.
pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends `v` little-endian.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` count or index, panicking (encode-side only — encoders
/// serialize trusted in-memory data) if it does not fit the `u32` wire size.
pub(crate) fn put_len(out: &mut Vec<u8>, v: usize) {
    put_u32(out, u32::try_from(v).expect("wire count fits u32"));
}

/// Appends a length-prefixed byte string.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// A bounds-checked decode cursor. Every accessor consumes from the front
/// and returns `None` once the buffer runs dry; decoders never index the
/// underlying slice directly.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.buf.split_at_checked(n)?;
        self.buf = tail;
        Some(head)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let b = self.bytes(1)?;
        Some(b[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let b: [u8; 4] = self.bytes(4)?.try_into().ok()?;
        Some(u32::from_le_bytes(b))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let b: [u8; 8] = self.bytes(8)?.try_into().ok()?;
        Some(u64::from_le_bytes(b))
    }

    /// A `u32` count, rejected when it exceeds `max` — the caller's bound on
    /// how many elements can legitimately follow. Keeps a corrupt length
    /// field from turning into a giant pre-allocation or a long bogus loop.
    pub(crate) fn len(&mut self, max: usize) -> Option<usize> {
        let v = self.u32()? as usize;
        (v <= max).then_some(v)
    }

    /// A length-prefixed byte string (the count is implicitly bounded by the
    /// bytes actually present).
    pub(crate) fn byte_str(&mut self) -> Option<&'a [u8]> {
        let n = self.len(self.remaining())?;
        self.bytes(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 7);
        put_len(&mut out, 3);
        put_bytes(&mut out, b"abc");

        let mut r = Reader::new(&out);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 7));
        assert_eq!(r.len(10), Some(3));
        assert_eq!(r.byte_str(), Some(&b"abc"[..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u32(), None, "exhausted reader answers None");
    }

    #[test]
    fn reader_rejects_oversized_counts_and_truncation() {
        let mut out = Vec::new();
        put_u32(&mut out, 1000);
        let mut r = Reader::new(&out);
        assert_eq!(r.len(999), None, "count above the caller's bound");

        let mut out = Vec::new();
        put_bytes(&mut out, b"hello");
        for cut in 0..out.len() {
            let mut r = Reader::new(&out[..cut]);
            assert_eq!(r.byte_str(), None, "truncated at {cut}");
        }
    }
}
