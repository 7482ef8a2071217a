//! Dynamically typed state values.

use std::fmt;
use std::sync::Arc;

use crate::error::{StateError, StateResult};
use crate::idset::IdSet;

/// A single state cell.
///
/// The four benchmark applications of the paper only need a handful of value
/// shapes:
///
/// * GS — fixed-size string-ish records interpreted as numbers (we store a
///   64-bit integer plus padding bytes so record size matches the paper);
/// * SL — 64-bit account / asset balances;
/// * OB — price (long) and quantity (long) pairs;
/// * TP — average road speed (double) and an [`IdSet`] of vehicle ids.
///
/// Every variant clones in constant time: the engine copies values into
/// temporary versions, undo entries and event blotters on every access, so
/// a payload that can grow — a string, a set — is shared, never duplicated.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    /// Absent / uninitialised.
    #[default]
    Null,
    /// 64-bit signed integer (balances, quantities, prices, counters).
    Long(i64),
    /// 64-bit float (average road speed).
    Double(f64),
    /// Short string (GS payloads).  Reference-counted so that cloning a
    /// value — into an event blotter, a temporary version, or an undo
    /// record — is a refcount bump instead of a heap allocation; record
    /// payloads are immutable once constructed, so sharing is safe.
    Str(Arc<str>),
    /// Set of 64-bit ids (unique vehicles per segment in TP).  Persistent:
    /// a clone shares the whole set, and inserting into a clone copies only
    /// the path to the new id, so each version of a growing set costs the
    /// same however large it has become.
    Set(IdSet),
    /// A pair of longs, used by OB items (price, quantity) so a single record
    /// keeps both fields like the paper's 50-byte bidding item.
    Pair(i64, i64),
}

impl Value {
    /// Static name of the variant, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Long(_) => "long",
            Value::Double(_) => "double",
            Value::Str(_) => "str",
            Value::Set(_) => "set",
            Value::Pair(..) => "pair",
        }
    }

    /// Interpret as a long.
    pub fn as_long(&self) -> StateResult<i64> {
        match self {
            Value::Long(v) => Ok(*v),
            other => Err(StateError::TypeMismatch {
                expected: "long",
                found: other.type_name(),
            }),
        }
    }

    /// Interpret as a double (longs are widened).
    pub fn as_double(&self) -> StateResult<f64> {
        match self {
            Value::Double(v) => Ok(*v),
            Value::Long(v) => Ok(*v as f64),
            other => Err(StateError::TypeMismatch {
                expected: "double",
                found: other.type_name(),
            }),
        }
    }

    /// Interpret as a string slice.
    pub fn as_str(&self) -> StateResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(StateError::TypeMismatch {
                expected: "str",
                found: other.type_name(),
            }),
        }
    }

    /// Interpret as a set of ids.
    pub fn as_set(&self) -> StateResult<&IdSet> {
        match self {
            Value::Set(s) => Ok(s),
            other => Err(StateError::TypeMismatch {
                expected: "set",
                found: other.type_name(),
            }),
        }
    }

    /// Interpret as a (price, quantity)-style pair.
    pub fn as_pair(&self) -> StateResult<(i64, i64)> {
        match self {
            Value::Pair(a, b) => Ok((*a, *b)),
            other => Err(StateError::TypeMismatch {
                expected: "pair",
                found: other.type_name(),
            }),
        }
    }

    /// Approximate in-memory footprint in bytes, used to size workloads so the
    /// record sizes quoted in Section VI-A are honoured.  A set keeps the
    /// paper's `32 × (2 + n)` formula: the figure sizes workloads to the
    /// paper's records, it does not measure this process's heap (where the
    /// versions of an [`IdSet`] share most of their nodes).
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null => 0,
            Value::Long(_) => 8,
            Value::Double(_) => 8,
            Value::Str(s) => s.len(),
            Value::Set(s) => 32 * (2 + s.len()),
            Value::Pair(..) => 16,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Long(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Set(s) => write!(f, "{{{} ids}}", s.len()),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Long(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Value::from(7i64).as_long().unwrap(), 7);
        assert_eq!(Value::from(2.5f64).as_double().unwrap(), 2.5);
        assert_eq!(Value::from("abc").as_str().unwrap(), "abc");
        assert_eq!(Value::Pair(3, 4).as_pair().unwrap(), (3, 4));
    }

    #[test]
    fn long_widens_to_double() {
        assert_eq!(Value::Long(3).as_double().unwrap(), 3.0);
    }

    #[test]
    fn type_mismatch_is_reported() {
        let err = Value::Long(1).as_set().unwrap_err();
        match err {
            StateError::TypeMismatch { expected, found } => {
                assert_eq!(expected, "set");
                assert_eq!(found, "long");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn approx_sizes_match_paper_formulas() {
        // TP vehicle-count records: ~32 * (2 + |items|) bytes.
        let ids: IdSet = [1, 2, 3].into_iter().collect();
        assert_eq!(Value::Set(ids).approx_size(), 32 * 5);
        assert_eq!(Value::Str("x".repeat(32).into()).approx_size(), 32);
    }

    #[test]
    fn a_value_is_three_words() {
        // Values move by value through operations, undo entries, blotter
        // slots and version chains; the widest payloads (a shared string, a
        // shared set, a pair) are two words.
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Value::Long(5).to_string(), "5");
        assert_eq!(Value::Pair(1, 2).to_string(), "(1, 2)");
        assert_eq!(Value::Null.to_string(), "null");
    }
}
