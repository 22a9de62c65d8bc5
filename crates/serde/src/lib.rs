//! Minimal, offline, API-compatible subset of `serde` for this workspace.
//!
//! The build environment has no reachable crates.io registry, so the
//! workspace vendors just enough of the serde surface that the G-MAP crates
//! use: `#[derive(Serialize, Deserialize)]` plus the blanket impls needed by
//! the derived code and by `serde_json`. The data model is a single `Value`
//! tree; derived types serialize *to* a `Value` and deserialize *from* one.
//!
//! This is not a general serde replacement — it covers exactly the shapes
//! present in this repository (structs with named fields, tuple structs,
//! enums with unit/tuple/struct variants, std collections, primitives).
//!
//! The derive implements no `#[serde(...)]` attribute, and one does not
//! compile rather than being silently ignored; a type that needs renamed
//! or defaulted fields writes its impls by hand:
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! struct Report {
//!     #[serde(default)]
//!     sites: Vec<u32>,
//! }
//! ```
//!
//! The same type without the attribute derives fine:
//!
//! ```
//! #[derive(serde::Deserialize)]
//! struct Report {
//!     sites: Vec<u32>,
//! }
//! ```

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// The self-describing data model every serializable type lowers to.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON null / `Option::None`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// String.
    Str(String),
    /// Sequence (arrays, tuples, `Vec`).
    Seq(Vec<Value>),
    /// Key-ordered map (structs, `BTreeMap`, enum struct variants).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in a `Map` value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Deserialization error: a message describing the shape mismatch.
#[derive(Debug, Clone)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// Build an error from any displayable message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        DeError {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.msg)
    }
}

impl std::error::Error for DeError {}

/// A type that can lower itself into the [`Value`] data model.
pub trait Serialize {
    /// Convert `self` to a [`Value`] tree.
    fn to_value(&self) -> Value;
}

/// A type that can be rebuilt from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a [`Value`] tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::custom(format!("{} out of range for {}", n, stringify!($t)))),
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::custom(format!("{} out of range for {}", n, stringify!($t)))),
                    Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => Ok(*f as $t),
                    other => Err(DeError::custom(format!(
                        "expected {} got {:?}", stringify!($t), other
                    ))),
                }
            }
        }
    )*};
}

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::custom(format!("{} out of range for {}", n, stringify!($t)))),
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::custom(format!("{} out of range for {}", n, stringify!($t)))),
                    Value::Float(f) if f.fract() == 0.0 => Ok(*f as $t),
                    other => Err(DeError::custom(format!(
                        "expected {} got {:?}", stringify!($t), other
                    ))),
                }
            }
        }
    )*};
}

ser_uint!(u8, u16, u32, u64, usize);
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(n) => Ok(*n as f64),
            Value::UInt(n) => Ok(*n as f64),
            Value::Null => Ok(f64::NAN),
            other => Err(DeError::custom(format!("expected f64 got {:?}", other))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}
impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::custom(format!("expected bool got {:?}", other))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::custom(format!("expected string got {:?}", other))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::custom(format!(
                "expected sequence got {:?}",
                other
            ))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

// Maps serialize as a sequence of [key, value] pairs so non-string keys
// (e.g. `Histogram<i64>`) round-trip losslessly through JSON.
impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Seq(
            self.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) => items
                .iter()
                .map(|item| match item {
                    Value::Seq(pair) if pair.len() == 2 => {
                        Ok((K::from_value(&pair[0])?, V::from_value(&pair[1])?))
                    }
                    other => Err(DeError::custom(format!(
                        "expected [key, value] pair got {:?}",
                        other
                    ))),
                })
                .collect(),
            other => Err(DeError::custom(format!("expected map got {:?}", other))),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Seq(items) if items.len() == N => {
                let parsed: Result<Vec<T>, DeError> = items.iter().map(T::from_value).collect();
                parsed?
                    .try_into()
                    .map_err(|_| DeError::custom("array length mismatch"))
            }
            other => Err(DeError::custom(format!(
                "expected array of {} got {:?}",
                N, other
            ))),
        }
    }
}

macro_rules! ser_tuple {
    ($(($($name:ident : $idx:tt),+));+ $(;)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                match v {
                    Value::Seq(items) if items.len() == LEN => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(DeError::custom(format!(
                        "expected {}-tuple got {:?}", LEN, other
                    ))),
                }
            }
        }
    )+};
}

ser_tuple! {
    (A: 0);
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
    (A: 0, B: 1, C: 2, D: 3, E: 4);
}
