//! [`StoreEncode`]/[`StoreDecode`] implementations for std types.
//!
//! Unordered collections (`HashMap`, `HashSet`) are encoded *sorted by
//! their encoded key bytes*, so the byte string is independent of hash
//! seeds and insertion order — a requirement for content-addressed
//! cache entries to match across processes.

use crate::codec::{Decoder, Encoder};
use crate::{DecodeError, StoreDecode, StoreEncode};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;

// ---- scalars ----

impl StoreEncode for bool {
    fn store_encode(&self, e: &mut Encoder) {
        e.boolean(*self);
    }
}

impl StoreDecode for bool {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.boolean()
    }
}

impl StoreEncode for u8 {
    fn store_encode(&self, e: &mut Encoder) {
        e.byte(*self);
    }
}

impl StoreDecode for u8 {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.byte()
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl StoreEncode for $t {
            fn store_encode(&self, e: &mut Encoder) {
                e.uint(*self as u64);
            }
        }
        impl StoreDecode for $t {
            fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                let at = d.position();
                <$t>::try_from(d.uint()?).map_err(|_| DecodeError::IntOutOfRange { at })
            }
        }
    )*};
}
impl_uint!(u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl StoreEncode for $t {
            fn store_encode(&self, e: &mut Encoder) {
                e.int(*self as i64);
            }
        }
        impl StoreDecode for $t {
            fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                let at = d.position();
                <$t>::try_from(d.int()?).map_err(|_| DecodeError::IntOutOfRange { at })
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64, isize);

impl StoreEncode for f64 {
    fn store_encode(&self, e: &mut Encoder) {
        e.float(*self);
    }
}

impl StoreDecode for f64 {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.float()
    }
}

impl StoreEncode for f32 {
    fn store_encode(&self, e: &mut Encoder) {
        e.float(f64::from(*self));
    }
}

impl StoreDecode for f32 {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        // f32 → f64 is exact, so the round trip back is too.
        Ok(d.float()? as f32)
    }
}

impl StoreEncode for char {
    fn store_encode(&self, e: &mut Encoder) {
        e.uint(u64::from(u32::from(*self)));
    }
}

impl StoreDecode for char {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let at = d.position();
        let raw = u32::try_from(d.uint()?).map_err(|_| DecodeError::IntOutOfRange { at })?;
        char::from_u32(raw).ok_or(DecodeError::IntOutOfRange { at })
    }
}

impl StoreEncode for () {
    fn store_encode(&self, e: &mut Encoder) {
        e.unit();
    }
}

impl StoreDecode for () {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.unit()
    }
}

// ---- strings ----

impl StoreEncode for str {
    fn store_encode(&self, e: &mut Encoder) {
        e.string(self);
    }
}

impl StoreEncode for String {
    fn store_encode(&self, e: &mut Encoder) {
        e.string(self);
    }
}

impl StoreDecode for String {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.string()
    }
}

// ---- wrappers ----

impl<T: StoreEncode + ?Sized> StoreEncode for &T {
    fn store_encode(&self, e: &mut Encoder) {
        (**self).store_encode(e);
    }
}

impl<T: StoreEncode + ?Sized> StoreEncode for Box<T> {
    fn store_encode(&self, e: &mut Encoder) {
        (**self).store_encode(e);
    }
}

impl<T: StoreDecode> StoreDecode for Box<T> {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Box::new(T::store_decode(d)?))
    }
}

impl<T: StoreEncode> StoreEncode for Option<T> {
    fn store_encode(&self, e: &mut Encoder) {
        match self {
            Some(v) => {
                e.some();
                v.store_encode(e);
            }
            None => e.none(),
        }
    }
}

impl<T: StoreDecode> StoreDecode for Option<T> {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        if d.option()? {
            Ok(Some(T::store_decode(d)?))
        } else {
            Ok(None)
        }
    }
}

impl<T> StoreEncode for PhantomData<T> {
    fn store_encode(&self, e: &mut Encoder) {
        e.unit();
    }
}

impl<T> StoreDecode for PhantomData<T> {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.unit()?;
        Ok(PhantomData)
    }
}

// ---- sequences ----

impl<T: StoreEncode> StoreEncode for [T] {
    fn store_encode(&self, e: &mut Encoder) {
        e.begin_seq(self.len());
        for item in self {
            item.store_encode(e);
        }
    }
}

impl<T: StoreEncode> StoreEncode for Vec<T> {
    fn store_encode(&self, e: &mut Encoder) {
        self.as_slice().store_encode(e);
    }
}

impl<T: StoreDecode> StoreDecode for Vec<T> {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = d.begin_seq()?;
        // Guard the pre-allocation against corrupt counts: never reserve
        // more than the remaining input could possibly hold (one byte
        // per element is the format's minimum).
        let cap = usize::try_from(len)
            .unwrap_or(usize::MAX)
            .min(d.remaining());
        let mut out = Vec::with_capacity(cap);
        for _ in 0..len {
            out.push(T::store_decode(d)?);
        }
        Ok(out)
    }
}

impl<T: StoreEncode, const N: usize> StoreEncode for [T; N] {
    fn store_encode(&self, e: &mut Encoder) {
        self.as_slice().store_encode(e);
    }
}

impl<T: StoreDecode, const N: usize> StoreDecode for [T; N] {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let at = d.position();
        let len = d.begin_seq()?;
        if len != N as u64 {
            return Err(DecodeError::CountMismatch {
                expected: N as u64,
                found: len,
                at,
            });
        }
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::store_decode(d)?);
        }
        out.try_into().map_err(|_| DecodeError::CountMismatch {
            expected: N as u64,
            found: len,
            at,
        })
    }
}

// ---- tuples ----

macro_rules! impl_tuple {
    ($len:expr => $($idx:tt $name:ident),+) => {
        impl<$($name: StoreEncode),+> StoreEncode for ($($name,)+) {
            fn store_encode(&self, e: &mut Encoder) {
                e.begin_tuple($len);
                $(self.$idx.store_encode(e);)+
            }
        }
        impl<$($name: StoreDecode),+> StoreDecode for ($($name,)+) {
            fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                d.begin_tuple($len)?;
                Ok(($($name::store_decode(d)?,)+))
            }
        }
    };
}
impl_tuple!(1u16 => 0 A);
impl_tuple!(2u16 => 0 A, 1 B);
impl_tuple!(3u16 => 0 A, 1 B, 2 C);
impl_tuple!(4u16 => 0 A, 1 B, 2 C, 3 D);

// ---- maps and sets ----

impl<K: StoreEncode, V: StoreEncode> StoreEncode for BTreeMap<K, V> {
    fn store_encode(&self, e: &mut Encoder) {
        e.begin_map(self.len());
        for (k, v) in self {
            k.store_encode(e);
            v.store_encode(e);
        }
    }
}

impl<K: StoreDecode + Ord, V: StoreDecode> StoreDecode for BTreeMap<K, V> {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = d.begin_map()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::store_decode(d)?;
            let v = V::store_decode(d)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: StoreEncode> StoreEncode for BTreeSet<T> {
    fn store_encode(&self, e: &mut Encoder) {
        e.begin_seq(self.len());
        for item in self {
            item.store_encode(e);
        }
    }
}

impl<T: StoreDecode + Ord> StoreDecode for BTreeSet<T> {
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = d.begin_seq()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::store_decode(d)?);
        }
        Ok(out)
    }
}

impl<K: StoreEncode, V: StoreEncode, S> StoreEncode for HashMap<K, V, S> {
    fn store_encode(&self, e: &mut Encoder) {
        let mut entries: Vec<(Vec<u8>, &V)> = self
            .iter()
            .map(|(k, v)| (crate::encode_to_vec(k), v))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        e.begin_map(entries.len());
        for (key_bytes, v) in entries {
            e.raw(&key_bytes);
            v.store_encode(e);
        }
    }
}

impl<K, V, S> StoreDecode for HashMap<K, V, S>
where
    K: StoreDecode + Eq + Hash,
    V: StoreDecode,
    S: BuildHasher + Default,
{
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = d.begin_map()?;
        let mut out = HashMap::with_hasher(S::default());
        for _ in 0..len {
            let k = K::store_decode(d)?;
            let v = V::store_decode(d)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: StoreEncode, S> StoreEncode for HashSet<T, S> {
    fn store_encode(&self, e: &mut Encoder) {
        let mut items: Vec<Vec<u8>> = self.iter().map(|v| crate::encode_to_vec(v)).collect();
        items.sort_unstable();
        e.begin_seq(items.len());
        for bytes in items {
            e.raw(&bytes);
        }
    }
}

impl<T, S> StoreDecode for HashSet<T, S>
where
    T: StoreDecode + Eq + Hash,
    S: BuildHasher + Default,
{
    fn store_decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = d.begin_seq()?;
        let mut out = HashSet::with_hasher(S::default());
        for _ in 0..len {
            out.insert(T::store_decode(d)?);
        }
        Ok(out)
    }
}
