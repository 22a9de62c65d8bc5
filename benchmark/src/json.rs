//! Free-form JSON over the workspace's vendored serde `Value` tree.
//!
//! The vendored `serde_json` only (de)serialises typed values, and renders
//! a `BTreeMap` as a list of pairs; the benchmark's reports are objects
//! keyed by metric name, so this wraps `Value` directly.

use serde::{DeError, Deserialize, Serialize, Value};

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Json(v.clone()))
    }
}

impl Json {
    /// Parses a document.
    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str::<Json>(text).map_err(|e| e.to_string())
    }

    /// Compact one-line rendering.
    pub fn compact(&self) -> String {
        serde_json::to_string(self).expect("rendering a Value cannot fail")
    }

    /// Indented rendering for checked-in files.
    pub fn pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("rendering a Value cannot fail")
    }

    /// Member of an object.
    pub fn get(&self, key: &str) -> Option<Json> {
        self.0.get(key).cloned().map(Json)
    }

    /// Numeric value of any number variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            Value::Int(n) => Some(n as f64),
            Value::UInt(n) => Some(n as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match &self.0 {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object members in document order.
    pub fn members(&self) -> Vec<(String, Json)> {
        match &self.0 {
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| (k.clone(), Json(v.clone())))
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Array items.
    pub fn items(&self) -> Vec<Json> {
        match &self.0 {
            Value::Seq(s) => s.iter().cloned().map(Json).collect(),
            _ => Vec::new(),
        }
    }
}

/// An object from `(key, value)` pairs, in the given order.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json(Value::Map(
        members.into_iter().map(|(k, v)| (k.into(), v.0)).collect(),
    ))
}

/// An array.
pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
    Json(Value::Seq(items.into_iter().map(|j| j.0).collect()))
}

/// A float.
pub fn num(v: f64) -> Json {
    Json(Value::Float(v))
}

/// An unsigned integer.
pub fn uint(v: u64) -> Json {
    Json(Value::UInt(v))
}

/// A string.
pub fn text(v: impl Into<String>) -> Json {
    Json(Value::Str(v.into()))
}

/// A boolean.
pub fn boolean(v: bool) -> Json {
    Json(Value::Bool(v))
}
