//! Hand-rolled binary codec primitives for result-cache records.
//!
//! `mom-lab`'s persistent cell cache stores each simulated grid cell — its
//! `SimResult`, stall breakdown, interval timeline and memory statistics —
//! as one binary record built from these primitives. Like the JSON layer in
//! `mom-lab`, the codec is written by hand — the offline build has no serde
//! — and is deliberately boring: little-endian fixed-width integers, `u64`
//! length prefixes for variable-length data, and explicit version tags at
//! every container boundary.
//!
//! Encoding is infallible and deterministic: the same state always produces
//! the same bytes, so `encode → decode → encode` reproduces the input
//! exactly. Decoding validates everything it reads and fails with a
//! [`CodecError`] rather than panicking, so a truncated or corrupted record
//! surfaces as a clean error.

use std::fmt;

/// Error produced when decoding an encoded byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the expected value could be read.
    Eof {
        /// What the decoder was trying to read.
        what: &'static str,
    },
    /// A value was read but failed validation against the live structure.
    Invalid {
        /// What failed to validate.
        what: &'static str,
    },
    /// A container version tag is not supported by this build.
    Version {
        /// Which container carried the unsupported version.
        what: &'static str,
        /// The version found in the stream.
        found: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof { what } => write!(f, "record truncated reading {what}"),
            CodecError::Invalid { what } => write!(f, "record field failed validation: {what}"),
            CodecError::Version { what, found } => write!(f, "unsupported {what} version {found}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only little-endian byte encoder.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a `u64` length prefix followed by the bytes.
    pub fn blob(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }
}

/// A cursor decoding the byte stream produced by [`Encoder`].
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Eof { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a bool. Only the two bytes [`Encoder::bool`] writes decode, so
    /// every accepted stream re-encodes to itself.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid { what }),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Read a `u64` and convert to `usize`.
    pub fn usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| CodecError::Invalid { what })
    }

    /// Read a `u64`-length-prefixed byte blob.
    pub fn blob(&mut self, what: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.usize(what)?;
        self.take(len, what)
    }

    /// Read a `u64` and require it to equal `expected` (structural fields
    /// like table sizes that must match the live configuration).
    pub fn expect_u64(&mut self, expected: u64, what: &'static str) -> Result<(), CodecError> {
        if self.u64(what)? != expected {
            return Err(CodecError::Invalid { what });
        }
        Ok(())
    }

    /// Require the stream to be fully consumed.
    pub fn finish(&self, what: &'static str) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::Invalid { what });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.bool(true);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 3);
        e.f64(3.25);
        e.usize(99);
        e.blob(b"warm");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8("a").unwrap(), 7);
        assert!(d.bool("b").unwrap());
        assert_eq!(d.u32("c").unwrap(), 0xdead_beef);
        assert_eq!(d.u64("d").unwrap(), u64::MAX - 3);
        assert_eq!(d.f64("f").unwrap(), 3.25);
        assert_eq!(d.usize("g").unwrap(), 99);
        assert_eq!(d.blob("h").unwrap(), b"warm");
        d.finish("tail").unwrap();
    }

    #[test]
    fn truncation_is_an_eof_error() {
        let mut e = Encoder::new();
        e.u64(1);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..4]);
        assert_eq!(d.u64("field"), Err(CodecError::Eof { what: "field" }));
    }

    #[test]
    fn expect_and_finish_validate() {
        let mut e = Encoder::new();
        e.u64(8);
        e.u8(1);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        d.expect_u64(8, "size").unwrap();
        assert!(d.finish("tail").is_err(), "one unread byte remains");
        assert_eq!(d.u8("last").unwrap(), 1);
        d.finish("tail").unwrap();

        let mut d2 = Decoder::new(&bytes);
        assert_eq!(d2.expect_u64(9, "size"), Err(CodecError::Invalid { what: "size" }));
    }

    #[test]
    fn bool_accepts_only_the_bytes_it_writes() {
        assert_eq!(Decoder::new(&[0]).bool("b"), Ok(false));
        assert_eq!(Decoder::new(&[1]).bool("b"), Ok(true));
        assert_eq!(Decoder::new(&[2]).bool("b"), Err(CodecError::Invalid { what: "b" }));
    }

    #[test]
    fn f64_roundtrip_is_bit_exact() {
        for v in [0.0, -0.0, f64::INFINITY, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let mut e = Encoder::new();
            e.f64(v);
            let b = e.into_bytes();
            let got = Decoder::new(&b).f64("v").unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn errors_display() {
        assert!(CodecError::Eof { what: "x" }.to_string().contains("truncated"));
        assert!(CodecError::Version { what: "cpu", found: 9 }.to_string().contains('9'));
    }
}
