//! Minimal binary codec for the payloads of [`crate::frame`] files.
//!
//! Hand-rolled because the workspace builds offline with no serialization
//! dependency, and because those files need a *stable, versioned* layout
//! that survives compiler and dependency upgrades: every multi-byte integer
//! is little-endian, every `f64` travels as its raw IEEE bit pattern (so
//! NaN payloads round-trip bit-identically), and every sequence is
//! length-prefixed. Small counts may instead travel as canonical unsigned
//! LEB128 varints. Decoding is total: any byte sequence either decodes or
//! yields a typed [`CodecError`], never a panic.

use std::fmt;

/// A decoding failure. Carries the byte offset where decoding stopped so
/// corruption reports can point at the damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before a fixed-width field or counted sequence.
    UnexpectedEof {
        /// Byte offset at which the read was attempted.
        at: usize,
        /// Bytes the field needed.
        needed: usize,
    },
    /// A tag byte (bool / option / enum discriminant) held an invalid value.
    BadTag {
        /// Byte offset of the tag.
        at: usize,
        /// The offending value.
        tag: u8,
        /// What the tag was supposed to select.
        what: &'static str,
    },
    /// A length prefix exceeds the remaining buffer (corrupt or hostile).
    LengthOverflow {
        /// Byte offset of the length prefix.
        at: usize,
        /// The claimed element count.
        len: u64,
    },
    /// A string field held invalid UTF-8.
    BadUtf8 {
        /// Byte offset of the string body.
        at: usize,
    },
    /// A varint ran past the 10 bytes a `u64` needs, or its 10th byte held
    /// bits above bit 63.
    VarintOverflow {
        /// Byte offset of the varint.
        at: usize,
    },
    /// A field was not in its one canonical encoding (a zero-padded
    /// varint, or raw bits a shorter form covers), so re-encoding would
    /// not reproduce the bytes read.
    NonCanonical {
        /// Byte offset of the field.
        at: usize,
        /// What the field is.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { at, needed } => {
                write!(
                    f,
                    "unexpected end of payload at byte {at} (needed {needed} more)"
                )
            }
            CodecError::BadTag { at, tag, what } => {
                write!(f, "invalid {what} tag {tag:#04x} at byte {at}")
            }
            CodecError::LengthOverflow { at, len } => {
                write!(f, "length prefix {len} at byte {at} exceeds the payload")
            }
            CodecError::BadUtf8 { at } => write!(f, "invalid UTF-8 in string at byte {at}"),
            CodecError::VarintOverflow { at } => {
                write!(f, "varint at byte {at} does not fit in 64 bits")
            }
            CodecError::NonCanonical { at, what } => {
                write!(f, "non-canonical {what} at byte {at}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only byte buffer with typed little-endian writers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bit pattern (NaN-preserving).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends `v` as a canonical unsigned LEB128 varint: seven bits per
    /// byte, least significant group first, the high bit set on every byte
    /// but the last. Values below 128 take one byte, and `u64::MAX` ten.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            let [low, ..] = v.to_le_bytes();
            self.buf.push(low | 0x80);
            v >>= 7;
        }
        let [low, ..] = v.to_le_bytes();
        self.buf.push(low);
    }

    /// Appends a bool as a `0`/`1` tag byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends raw bytes, without a length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.put_bytes(s.as_bytes());
    }
}

/// A cursor over immutable bytes with typed little-endian readers.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                at: self.pos,
                needed: n - self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        // take(4) returned exactly four bytes, so the conversion is infallible.
        let mut arr = [0u8; 4];
        arr.copy_from_slice(b);
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a varint written by [`Writer::put_varint`]. Only the canonical
    /// encoding is accepted: a zero-padded varint is
    /// [`CodecError::NonCanonical`], and one that does not fit in a `u64` is
    /// [`CodecError::VarintOverflow`].
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let at = self.pos;
        if let Some(&byte) = self.buf.get(at) {
            if byte < 0x80 {
                self.pos = at + 1;
                return Ok(u64::from(byte));
            }
        }
        let mut v = 0u64;
        for (i, &byte) in self.buf[at..].iter().take(MAX_VARINT_LEN).enumerate() {
            if i == MAX_VARINT_LEN - 1 && byte > 1 {
                return Err(CodecError::VarintOverflow { at });
            }
            v |= u64::from(byte & 0x7F) << (7 * i);
            if byte < 0x80 {
                // A zero last byte after others is padding (the fast path
                // took every one-byte varint).
                if byte == 0 {
                    return Err(CodecError::NonCanonical { at, what: "varint" });
                }
                self.pos = at + i + 1;
                return Ok(v);
            }
        }
        // Every byte left had its continuation bit set.
        Err(CodecError::UnexpectedEof { at, needed: 1 })
    }

    /// Reads a `0`/`1` tag byte as a bool; other values are a [`CodecError::BadTag`].
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        let at = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag {
                at,
                tag,
                what: "bool",
            }),
        }
    }

    /// Reads a length prefix for a sequence whose elements occupy at least
    /// `min_elem_bytes` each, rejecting prefixes the remaining buffer cannot
    /// possibly satisfy (so corrupt lengths fail fast instead of looping).
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let at = self.pos;
        let len = self.u64()?;
        usize::try_from(len)
            .ok()
            .filter(|l| {
                l.checked_mul(min_elem_bytes.max(1))
                    .is_some_and(|bytes| bytes <= self.remaining())
            })
            .ok_or(CodecError::LengthOverflow { at, len })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.seq_len(1)?;
        let at = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8 { at })
    }
}

/// The longest canonical varint: ten groups of seven bits cover 64.
const MAX_VARINT_LEN: usize = 10;

/// FNV-1a 64-bit hash: the checkpoint checksum and config fingerprint.
///
/// Not cryptographic — it guards against storage corruption and accidental
/// config mixups, not adversaries with write access to the checkpoint file.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// [`fnv1a64`] of every prefix of `bytes`, shortest (empty) first, in one
/// pass.
pub(crate) fn fnv1a64_prefixes(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let hashes = bytes.iter().scan(FNV_OFFSET, |hash, &b| {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        Some(*hash)
    });
    std::iter::once(FNV_OFFSET).chain(hashes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_bool(false);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn eof_and_tag_errors_are_typed() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u64(), Err(CodecError::UnexpectedEof { .. })));
        let mut r = Reader::new(&[9]);
        assert!(matches!(r.bool(), Err(CodecError::BadTag { tag: 9, .. })));
        // A length prefix larger than the buffer is rejected up front.
        let mut w = Writer::new();
        w.put_u64(1 << 60);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.seq_len(1),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn varints_round_trip_canonically_at_every_length() {
        for (v, len) in [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            ((1 << 63) - 1, 9),
            (1 << 63, 10),
            (u64::MAX, 10),
        ] {
            let mut w = Writer::new();
            w.put_varint(v);
            w.put_u8(0xAA);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), len + 1, "{v}");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.position(), len);
        }
    }

    #[test]
    fn varint_cut_short_is_eof() {
        let mut w = Writer::new();
        w.put_varint(u64::MAX);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert_eq!(
                r.varint(),
                Err(CodecError::UnexpectedEof { at: 0, needed: 1 })
            );
            assert_eq!(r.position(), 0);
        }
    }

    #[test]
    fn varint_past_64_bits_overflows() {
        let nine = [0xFF; 9];
        for tenth in [[0x02].as_slice(), &[0x7F], &[0x80, 0x00], &[0x81, 0x01]] {
            let bytes = [&[7][..], &nine, tenth].concat();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.u8().unwrap(), 7);
            assert_eq!(r.varint(), Err(CodecError::VarintOverflow { at: 1 }));
        }
    }

    #[test]
    fn zero_padded_varint_is_non_canonical() {
        for bytes in [
            [0x80, 0x00].as_slice(),
            &[0xFF, 0x80, 0x00],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
        ] {
            let mut r = Reader::new(bytes);
            assert_eq!(
                r.varint(),
                Err(CodecError::NonCanonical {
                    at: 0,
                    what: "varint"
                })
            );
        }
    }

    #[test]
    fn bad_utf8_is_typed() {
        let mut w = Writer::new();
        w.put_u64(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.str(), Err(CodecError::BadUtf8 { .. })));
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
        let bytes = b"prefix hashes";
        let every: Vec<u64> = (0..=bytes.len()).map(|j| fnv1a64(&bytes[..j])).collect();
        assert_eq!(fnv1a64_prefixes(bytes).collect::<Vec<_>>(), every);
    }

    #[test]
    fn errors_render() {
        for e in [
            CodecError::UnexpectedEof { at: 3, needed: 5 },
            CodecError::BadTag {
                at: 0,
                tag: 2,
                what: "option",
            },
            CodecError::LengthOverflow {
                at: 9,
                len: 1 << 50,
            },
            CodecError::BadUtf8 { at: 1 },
            CodecError::VarintOverflow { at: 4 },
            CodecError::NonCanonical {
                at: 2,
                what: "varint",
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
