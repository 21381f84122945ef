//! The tagged binary wire format.
//!
//! Every value starts with a one-byte tag, so a decoder pointed at the
//! wrong type fails loudly instead of misreading bytes. Integers are
//! fixed-width little-endian (no varints: simpler, and size is not the
//! bottleneck — determinism is). Struct fields carry a 32-bit FNV-1a
//! hash of the field name, giving cheap schema-drift detection without
//! storing full names.

use crate::DecodeError;

pub(crate) const T_UNIT: u8 = 0x00;
pub(crate) const T_FALSE: u8 = 0x01;
pub(crate) const T_TRUE: u8 = 0x02;
pub(crate) const T_U8: u8 = 0x03;
pub(crate) const T_U64: u8 = 0x04;
pub(crate) const T_I64: u8 = 0x05;
pub(crate) const T_F64: u8 = 0x06;
pub(crate) const T_STR: u8 = 0x07;
pub(crate) const T_SEQ: u8 = 0x08;
pub(crate) const T_MAP: u8 = 0x09;
pub(crate) const T_NONE: u8 = 0x0A;
pub(crate) const T_SOME: u8 = 0x0B;
pub(crate) const T_STRUCT: u8 = 0x0C;
pub(crate) const T_ENUM: u8 = 0x0D;
pub(crate) const T_TUPLE: u8 = 0x0E;

/// 32-bit FNV-1a of a field name. A `const fn`, so a field check
/// inlined into derive-generated code compares against a constant.
#[inline]
pub(crate) const fn fnv32(s: &str) -> u32 {
    let bytes = s.as_bytes();
    let mut h: u32 = 0x811c_9dc5;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u32;
        h = h.wrapping_mul(0x0100_0193);
        i += 1;
    }
    h
}

// Error construction stays out of line, so the inlined success paths of
// the primitives below carry no formatting or enum-building code.

#[cold]
#[inline(never)]
fn eof(at: usize) -> DecodeError {
    DecodeError::UnexpectedEof { at }
}

#[cold]
#[inline(never)]
fn wrong_tag(expected: &'static str, found: u8, at: usize) -> DecodeError {
    DecodeError::WrongTag {
        expected,
        found,
        at,
    }
}

#[cold]
#[inline(never)]
fn count_mismatch(expected: u16, found: u16, at: usize) -> DecodeError {
    DecodeError::CountMismatch {
        expected: u64::from(expected),
        found: u64::from(found),
        at,
    }
}

#[cold]
#[inline(never)]
fn field_mismatch(expected: &'static str, at: usize) -> DecodeError {
    DecodeError::FieldMismatch { expected, at }
}

/// Serializer for the gt-store format. Append-only byte buffer.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    #[inline]
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append pre-encoded bytes verbatim (used by the sorted-map
    /// encoding, which encodes keys out of line to order them).
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    #[inline]
    pub fn unit(&mut self) {
        self.buf.push(T_UNIT);
    }

    #[inline]
    pub fn boolean(&mut self, v: bool) {
        self.buf.push(if v { T_TRUE } else { T_FALSE });
    }

    #[inline]
    pub fn byte(&mut self, v: u8) {
        self.buf.push(T_U8);
        self.buf.push(v);
    }

    #[inline]
    pub fn uint(&mut self, v: u64) {
        self.buf.push(T_U64);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn int(&mut self, v: i64) {
        self.buf.push(T_I64);
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Bit-exact: encodes `f64::to_bits`, so NaN payloads and signed
    /// zeros round-trip.
    #[inline]
    pub fn float(&mut self, v: f64) {
        self.buf.push(T_F64);
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    #[inline]
    pub fn string(&mut self, v: &str) {
        self.buf.push(T_STR);
        self.buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(v.as_bytes());
    }

    #[inline]
    pub fn begin_seq(&mut self, len: usize) {
        self.buf.push(T_SEQ);
        self.buf.extend_from_slice(&(len as u64).to_le_bytes());
    }

    #[inline]
    pub fn begin_map(&mut self, len: usize) {
        self.buf.push(T_MAP);
        self.buf.extend_from_slice(&(len as u64).to_le_bytes());
    }

    #[inline]
    pub fn none(&mut self) {
        self.buf.push(T_NONE);
    }

    #[inline]
    pub fn some(&mut self) {
        self.buf.push(T_SOME);
    }

    #[inline]
    pub fn begin_struct(&mut self, fields: u16) {
        self.buf.push(T_STRUCT);
        self.buf.extend_from_slice(&fields.to_le_bytes());
    }

    #[inline]
    pub fn field(&mut self, name: &str) {
        self.buf.extend_from_slice(&fnv32(name).to_le_bytes());
    }

    #[inline]
    pub fn begin_enum(&mut self, variant: u32) {
        self.buf.push(T_ENUM);
        self.buf.extend_from_slice(&variant.to_le_bytes());
    }

    #[inline]
    pub fn begin_tuple(&mut self, len: u16) {
        self.buf.push(T_TUPLE);
        self.buf.extend_from_slice(&len.to_le_bytes());
    }
}

/// Deserializer over a byte slice. A clone reads on from the same
/// position without moving the original.
#[derive(Clone)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Decoder { bytes, pos: 0 }
    }

    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed: an upper bound on how many more values
    /// the input can hold, since every value takes at least one byte.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless the input was fully consumed.
    #[inline]
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(DecodeError::TrailingBytes { remaining }),
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        match self.pos.checked_add(n) {
            Some(end) if end <= self.bytes.len() => {
                let out = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            _ => Err(eof(self.pos)),
        }
    }

    #[inline]
    fn tag(&mut self, expected: u8, what: &'static str) -> Result<(), DecodeError> {
        let at = self.pos;
        let found = self.take(1)?[0];
        if found == expected {
            Ok(())
        } else {
            Err(wrong_tag(what, found, at))
        }
    }

    #[inline]
    fn raw_u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    #[inline]
    fn raw_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    #[inline]
    fn raw_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    #[inline]
    pub fn unit(&mut self) -> Result<(), DecodeError> {
        self.tag(T_UNIT, "unit")
    }

    #[inline]
    pub fn boolean(&mut self) -> Result<bool, DecodeError> {
        let at = self.pos;
        match self.take(1)?[0] {
            T_TRUE => Ok(true),
            T_FALSE => Ok(false),
            found => Err(wrong_tag("bool", found, at)),
        }
    }

    #[inline]
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        self.tag(T_U8, "u8")?;
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn uint(&mut self) -> Result<u64, DecodeError> {
        self.tag(T_U64, "unsigned integer")?;
        self.raw_u64()
    }

    #[inline]
    pub fn int(&mut self) -> Result<i64, DecodeError> {
        self.tag(T_I64, "signed integer")?;
        Ok(self.raw_u64()? as i64)
    }

    #[inline]
    pub fn float(&mut self) -> Result<f64, DecodeError> {
        self.tag(T_F64, "float")?;
        Ok(f64::from_bits(self.raw_u64()?))
    }

    /// A string borrowed from the input: the bytes `string` would
    /// decode, without the allocation.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        self.tag(T_STR, "string")?;
        let len = self.raw_u64()? as usize;
        let at = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8 { at })
    }

    #[inline]
    pub fn string(&mut self) -> Result<String, DecodeError> {
        self.str().map(str::to_owned)
    }

    /// Returns the element count.
    #[inline]
    pub fn begin_seq(&mut self) -> Result<u64, DecodeError> {
        self.tag(T_SEQ, "sequence")?;
        self.raw_u64()
    }

    /// Returns the entry count.
    #[inline]
    pub fn begin_map(&mut self) -> Result<u64, DecodeError> {
        self.tag(T_MAP, "map")?;
        self.raw_u64()
    }

    /// Returns whether a value follows (`Some`).
    #[inline]
    pub fn option(&mut self) -> Result<bool, DecodeError> {
        let at = self.pos;
        match self.take(1)?[0] {
            T_SOME => Ok(true),
            T_NONE => Ok(false),
            found => Err(wrong_tag("option", found, at)),
        }
    }

    #[inline]
    pub fn begin_struct(&mut self, expected_fields: u16) -> Result<(), DecodeError> {
        let at = self.pos;
        self.tag(T_STRUCT, "struct")?;
        let found = self.raw_u16()?;
        if found == expected_fields {
            Ok(())
        } else {
            Err(count_mismatch(expected_fields, found, at))
        }
    }

    #[inline]
    pub fn field(&mut self, name: &'static str) -> Result<(), DecodeError> {
        let at = self.pos;
        let found = self.raw_u32()?;
        if found == fnv32(name) {
            Ok(())
        } else {
            Err(field_mismatch(name, at))
        }
    }

    /// Returns the variant index.
    #[inline]
    pub fn begin_enum(&mut self) -> Result<u32, DecodeError> {
        self.tag(T_ENUM, "enum")?;
        self.raw_u32()
    }

    #[inline]
    pub fn begin_tuple(&mut self, expected_len: u16) -> Result<(), DecodeError> {
        let at = self.pos;
        self.tag(T_TUPLE, "tuple")?;
        let found = self.raw_u16()?;
        if found == expected_len {
            Ok(())
        } else {
            Err(count_mismatch(expected_len, found, at))
        }
    }
}
