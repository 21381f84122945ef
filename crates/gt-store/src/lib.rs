//! Deterministic persistence for the measurement pipeline.
//!
//! The paper's campaign ran for ~6 months against flaky services; a
//! production-scale reproduction has to survive more than in-process
//! faults (PR 2) — it has to survive the *process* dying, and it should
//! not recompute five minutes of upstream analysis because one
//! downstream parameter changed. This crate provides the two pieces
//! that make `experiments --store DIR` crash-resumable and warm-rerun
//! cheap:
//!
//! 1. **A self-describing deterministic binary codec** — the
//!    [`StoreEncode`]/[`StoreDecode`] traits (plus `#[derive]`s from
//!    `gt-store-derive`). The encoding is a pure function of the value:
//!    no pointers, no hash-map iteration order (unordered collections
//!    are sorted by their encoded key bytes), no timestamps. Two
//!    processes encoding the same logical value produce the same bytes,
//!    which is what lets cache entries be *content-addressed* and shared
//!    between runs with different thread counts.
//!
//! 2. **An on-disk [`RunStore`]** holding world snapshots and per-stage
//!    outputs, each sealed in a record with a magic, a schema version,
//!    and a SHA-256 integrity footer (via `gt-hash`). A corrupted or
//!    truncated entry is indistinguishable from a missing one: it decays
//!    to a cache miss and the stage recomputes.
//!
//! Key derivation lives in [`KeyBuilder`]; the executor composes stage
//! keys as `H(base ‖ stage name ‖ dependency digests)`,
//! where `base` fingerprints everything global to the run (schema
//! version, world config, fault plan, retry policy).
//! See DESIGN.md "Persistence & caching" for the invalidation rules.

mod codec;
mod impls;
mod key;
mod record;
mod store;

pub use codec::{Decoder, Encoder};
pub use key::{digest, digest_hex, Digest, KeyBuilder};
pub use record::{open, seal, MAGIC, SCHEMA_VERSION};
pub use store::{EvictStats, RunStore, StoreError};

// Re-export the derive macros under the trait names (the serde idiom):
// `use gt_store::{StoreEncode, StoreDecode};` brings in both the trait
// and its derive.
pub use gt_store_derive::{StoreDecode, StoreEncode};

use std::fmt;

/// Deterministic binary encoding: a pure function of the value.
pub trait StoreEncode {
    fn store_encode(&self, e: &mut Encoder);
}

/// Decoding for [`StoreEncode`]d bytes: the workspace's only decoder.
/// Cache hits reconstruct full stage payloads from disk.
pub trait StoreDecode: Sized {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

/// Encode a value to its canonical byte string.
pub fn encode_to_vec<T: StoreEncode + ?Sized>(value: &T) -> Vec<u8> {
    let mut e = Encoder::new();
    value.store_encode(&mut e);
    e.into_bytes()
}

/// Decode a value, requiring the input to be fully consumed.
pub fn decode_from_slice<T: StoreDecode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut d = Decoder::new(bytes);
    let value = T::store_decode(&mut d)?;
    d.finish()?;
    Ok(value)
}

/// Why a byte string failed to decode. Every variant is terminal: the
/// store treats any decode failure as a cache miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran off the end of the input.
    UnexpectedEof { at: usize },
    /// A value of a different shape was encoded here.
    WrongTag {
        expected: &'static str,
        found: u8,
        at: usize,
    },
    /// A struct field name hash did not match (schema drift).
    FieldMismatch { expected: &'static str, at: usize },
    /// A struct/tuple arity did not match (schema drift).
    CountMismatch {
        expected: u64,
        found: u64,
        at: usize,
    },
    /// An enum variant index out of range for the decoded type.
    UnknownVariant { ty: &'static str, variant: u32 },
    /// An integer did not fit the target type.
    IntOutOfRange { at: usize },
    /// A string was not valid UTF-8.
    BadUtf8 { at: usize },
    /// A well-formed value broke its type's invariant (`what` says
    /// which).
    Invalid { what: &'static str, at: usize },
    /// Input bytes remained after a full decode.
    TrailingBytes { remaining: usize },
    /// Record framing: wrong magic.
    BadMagic,
    /// Record framing: schema version mismatch.
    BadVersion { found: u32 },
    /// Record framing: shorter than its declared payload.
    Truncated,
    /// Record framing: SHA-256 footer mismatch (corruption).
    HashMismatch,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { at } => write!(f, "unexpected end of input at {at}"),
            DecodeError::WrongTag {
                expected,
                found,
                at,
            } => write!(f, "expected {expected} at {at}, found tag {found:#04x}"),
            DecodeError::FieldMismatch { expected, at } => {
                write!(f, "field name mismatch at {at} (expected `{expected}`)")
            }
            DecodeError::CountMismatch {
                expected,
                found,
                at,
            } => write!(
                f,
                "arity mismatch at {at}: expected {expected}, found {found}"
            ),
            DecodeError::UnknownVariant { ty, variant } => {
                write!(f, "unknown variant {variant} for `{ty}`")
            }
            DecodeError::IntOutOfRange { at } => write!(f, "integer out of range at {at}"),
            DecodeError::BadUtf8 { at } => write!(f, "invalid UTF-8 at {at}"),
            DecodeError::Invalid { what, at } => write!(f, "invalid value at {at}: {what}"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
            DecodeError::BadMagic => write!(f, "bad record magic"),
            DecodeError::BadVersion { found } => {
                write!(f, "schema version {found} (expected {})", SCHEMA_VERSION)
            }
            DecodeError::Truncated => write!(f, "record truncated"),
            DecodeError::HashMismatch => write!(f, "record integrity footer mismatch"),
        }
    }
}

impl std::error::Error for DecodeError {}
