//! Dynamically typed cell values and their totally ordered comparison.
//!
//! The engine is row-oriented: a [`Row`] is a boxed slice of [`Value`]s.
//! Values carry their type; [`DataType`] describes a column's declared type
//! in the catalog. SQL `NULL` is modelled explicitly and, as in DB2's sort
//! order, sorts *after* every non-null value in ascending order ("nulls
//! high").

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The declared type of a column.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Double,
    /// Variable-length UTF-8 string.
    Str,
    /// Date, stored as days since 1970-01-01.
    Date,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Str => "VARCHAR",
            DataType::Date => "DATE",
            DataType::Bool => "BOOLEAN",
        };
        f.write_str(s)
    }
}

/// A single dynamically typed cell value.
///
/// Strings are reference counted so that rows can be cloned cheaply while
/// flowing through blocking operators such as sorts and hash tables.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL (typed by context).
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float. NaNs sort after every other numeric value (and all
    /// NaNs compare equal to each other) under [`Value::total_cmp`].
    Double(f64),
    /// UTF-8 string.
    Str(Arc<str>),
    /// Days since the Unix epoch.
    Date(i32),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Returns true when the value is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The runtime type of the value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Extracts an integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a float, widening integers.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extracts a string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts a date (days since epoch), if this is one.
    pub fn as_date(&self) -> Option<i32> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Extracts a boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL equality: NULL never equals anything (returns `None`, i.e.
    /// "unknown"); otherwise three-valued logic collapses to a boolean.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// Total comparison used for sorting and index ordering.
    ///
    /// NULL sorts after every non-null value (DB2's "nulls high" default).
    /// Numeric values of different width compare exactly (an `Int` beyond
    /// 2^53 is *not* rounded to the nearest double before comparing, so
    /// the relation stays transitive). NaN sorts after every other numeric
    /// value — including +∞ and every integer — and all NaNs compare
    /// equal, so the ordering is total and a strict weak order even on
    /// pathological float inputs. `-0.0` equals `0.0`. Comparing a number
    /// with a string or similar type mismatch falls back to a stable (but
    /// arbitrary) ordering by type tag so sorts never panic.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Greater,
            (_, Null) => Ordering::Less,
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => cmp_f64_nan_high(*a, *b),
            (Int(a), Double(b)) => cmp_int_double(*a, *b),
            (Double(a), Int(b)) => cmp_int_double(*b, *a).reverse(),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Date(a), Date(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (a, b) => type_rank(a.data_type()).cmp(&type_rank(b.data_type())),
        }
    }
}

/// NaN-high total order on doubles: all NaNs are equal to each other and
/// greater than every non-NaN (including +∞); `-0.0 == 0.0`.
///
/// Exposed so vectorized comparison kernels over `f64` column vectors
/// decide exactly as [`Value::total_cmp`] does on the boxed values.
#[inline]
pub fn cmp_f64_nan_high(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("non-NaN doubles compare"),
    }
}

/// Exact comparison of an `i64` against an `f64`.
///
/// Rounding `a` to the nearest double first (the obvious approach) makes
/// e.g. `2^60 + 1` compare Equal to `2^60 as f64` while `Int(2^60 + 1) >
/// Int(2^60)` — an intransitive "order" that corrupts sorts. Instead we
/// compare the rounded double, then break exact ties with the integer
/// residual `a - round(a)`, which `i64 as f64` round-to-nearest bounds to
/// at most half an ulp (≤ 512 for the largest magnitudes).
///
/// Exposed for the same reason as [`cmp_f64_nan_high`]: mixed
/// `Int64`/`Float64` column kernels must rank exactly as
/// [`Value::total_cmp`].
#[inline]
pub fn cmp_int_double(a: i64, b: f64) -> Ordering {
    if b.is_nan() {
        return Ordering::Less;
    }
    let g = a as f64;
    if g != b {
        return g.partial_cmp(&b).expect("non-NaN doubles compare");
    }
    // g == b, so b is finite and integral with |b| <= 2^63; the residual
    // of the round decides. `g as i128` is exact for such magnitudes.
    ((a as i128) - (g as i128)).cmp(&0)
}

/// Where a type mismatch ranks in [`Value::total_cmp`]'s fallback order;
/// `None` is NULL's type.
pub(crate) fn type_rank(ty: Option<DataType>) -> u8 {
    match ty {
        None => 5,
        Some(DataType::Int | DataType::Double) => 0,
        Some(DataType::Str) => 1,
        Some(DataType::Date) => 2,
        Some(DataType::Bool) => 3,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash integers and integral doubles identically so mixed-width
            // join keys hash-join correctly.
            Value::Int(v) => {
                1u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Double(v) => {
                1u8.hash(state);
                // Canonicalize: all NaN payloads are Equal under
                // `total_cmp`, and -0.0 == 0.0, so they must hash alike.
                let bits = if v.is_nan() {
                    0x7ff8_0000_0000_0000u64
                } else if *v == 0.0 {
                    0u64
                } else {
                    v.to_bits()
                };
                bits.hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            Value::Bool(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Date(d) => write!(f, "date({d})"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A row of values; the unit of data flow in the execution engine.
pub type Row = Box<[Value]>;

/// Convenience constructor for a [`Row`].
pub fn row(values: impl IntoIterator<Item = Value>) -> Row {
    values.into_iter().collect()
}

/// In-memory size of a value in bytes: the inline enum footprint
/// (`size_of::<Value>()`, identical for every variant — the discriminant
/// plus the widest payload) plus any heap the variant owns. Strings add
/// their `Arc<str>` allocation: two 8-byte reference counts of `Arc`
/// header plus the UTF-8 payload. Used by the cost model and the
/// executor's memory-budget accounting, so undercounting here would let a
/// "bounded" sort admit more than the budget allows.
pub fn value_width(v: &Value) -> usize {
    const ARC_HEADER: usize = 16; // strong + weak counts
    std::mem::size_of::<Value>()
        + match v {
            Value::Str(s) => ARC_HEADER + s.len(),
            _ => 0,
        }
}

/// In-memory size of a row in bytes: the `Box<[Value]>` fat pointer (16
/// bytes) plus [`value_width`] of every value. This is the row-shaped
/// counterpart of the columnar [`crate::Batch::byte_size`] accounting; the
/// two agree within a small constant factor (rows pay the per-value enum
/// overhead, columns amortize it away).
pub fn row_bytes(row: &[Value]) -> usize {
    16 + row.iter().map(value_width).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nulls_sort_high() {
        assert_eq!(
            Value::Null.total_cmp(&Value::Int(i64::MAX)),
            Ordering::Greater
        );
        assert_eq!(Value::Int(0).total_cmp(&Value::Null), Ordering::Less);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).total_cmp(&Value::Double(2.0)),
            Ordering::Equal
        );
        assert_eq!(Value::Int(2).total_cmp(&Value::Double(2.5)), Ordering::Less);
        assert_eq!(
            Value::Double(3.5).total_cmp(&Value::Int(3)),
            Ordering::Greater
        );
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        assert!(Value::str("apple") < Value::str("banana"));
        assert_eq!(Value::str("x"), Value::str("x"));
    }

    #[test]
    fn sql_eq_with_null_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn mixed_numeric_hash_matches_equality() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(7)), h(&Value::Double(7.0)));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_int(), Some(4));
        assert_eq!(Value::Int(4).as_double(), Some(4.0));
        assert_eq!(Value::Double(1.5).as_double(), Some(1.5));
        assert_eq!(Value::str("a").as_str(), Some("a"));
        assert_eq!(Value::Date(10).as_date(), Some(10));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_int(), None);
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Date(0).data_type(), Some(DataType::Date));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(DataType::Str.to_string(), "VARCHAR");
    }

    #[test]
    fn value_width_estimates() {
        let inline = std::mem::size_of::<Value>();
        // The enum is a discriminant plus an Arc<str> fat pointer — no
        // variant is free, and Null costs the same inline space as Int.
        assert!(inline >= 16, "Value inline size {inline}");
        assert_eq!(value_width(&Value::Int(1)), inline);
        assert_eq!(value_width(&Value::Null), inline);
        assert_eq!(value_width(&Value::Bool(true)), inline);
        // Strings add the Arc header (16) plus the payload.
        assert_eq!(value_width(&Value::str("abcd")), inline + 16 + 4);
        assert_eq!(value_width(&Value::str("")), inline + 16);
        // Rows add the Box<[Value]> fat pointer on top.
        let r = row([Value::Int(1), Value::str("ab")]);
        assert_eq!(row_bytes(&r), 16 + 2 * inline + 16 + 2);
        assert_eq!(row_bytes(&[]), 16);
    }

    #[test]
    fn row_constructor() {
        let r = row([Value::Int(1), Value::str("a")]);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], Value::Int(1));
    }

    #[test]
    fn nan_sorts_last_among_numerics() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(
            nan.total_cmp(&Value::Double(f64::INFINITY)),
            Ordering::Greater
        );
        assert_eq!(nan.total_cmp(&Value::Int(i64::MAX)), Ordering::Greater);
        assert_eq!(Value::Int(0).total_cmp(&nan), Ordering::Less);
        assert_eq!(Value::Double(1e300).total_cmp(&nan), Ordering::Less);
        assert_eq!(nan.total_cmp(&Value::Double(-f64::NAN)), Ordering::Equal);
        // ...but still below NULL.
        assert_eq!(nan.total_cmp(&Value::Null), Ordering::Less);
    }

    #[test]
    fn negative_zero_equals_zero() {
        assert_eq!(
            Value::Double(-0.0).total_cmp(&Value::Double(0.0)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Double(-0.0).total_cmp(&Value::Int(0)),
            Ordering::Equal
        );
    }

    #[test]
    fn large_int_double_comparison_is_exact() {
        // 2^60 + 1 rounds to 2^60 as f64; the comparison must not.
        let big = (1i64 << 60) + 1;
        let rounded = Value::Double((1i64 << 60) as f64);
        assert_eq!(Value::Int(big).total_cmp(&rounded), Ordering::Greater);
        assert_eq!(rounded.total_cmp(&Value::Int(big)), Ordering::Less);
        assert_eq!(Value::Int(1 << 60).total_cmp(&rounded), Ordering::Equal);
        // i64::MAX rounds *up* to 2^63; the residual keeps it below.
        let two63 = Value::Double(9.223372036854776e18);
        assert_eq!(Value::Int(i64::MAX).total_cmp(&two63), Ordering::Less);
    }

    #[test]
    fn nan_and_negative_zero_hash_consistently() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Double(f64::NAN)), h(&Value::Double(-f64::NAN)));
        assert_eq!(h(&Value::Double(-0.0)), h(&Value::Double(0.0)));
        assert_eq!(h(&Value::Double(-0.0)), h(&Value::Int(0)));
    }

    #[test]
    fn cross_type_ordering_is_stable() {
        // Arbitrary but total: never panics, antisymmetric.
        let a = Value::Int(1);
        let b = Value::str("1");
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        assert_eq!(ab, ba.reverse());
    }
}
