//! Order-preserving binary sort keys: a codec from rows to byte strings
//! whose plain `memcmp` (lexicographic `&[u8]`) comparison reproduces
//! [`Value::total_cmp`] per key column with per-column
//! [`Direction`]s applied — bit-identical in outcome to the engine's
//! `Value`-walking comparator, but branch-free and type-dispatch-free in
//! the sort inner loop.
//!
//! # Encoding
//!
//! Each key column encodes as a one-byte type-class tag followed by a
//! payload; tags mirror `total_cmp`'s cross-type rank with NULL highest
//! (DB2 "nulls high"):
//!
//! | class           | tag    | payload                                         |
//! |-----------------|--------|-------------------------------------------------|
//! | numeric (Int ∪ Double) | `0x01` | 8-byte flipped IEEE-754 double + 2-byte residual |
//! | string          | `0x02` | `0x00`-escaped bytes + `0x00 0x00` terminator   |
//! | date            | `0x03` | 4-byte big-endian `i32` with sign bit flipped   |
//! | bool            | `0x04` | `0x00` / `0x01`                                 |
//! | NULL            | `0xFF` | (none)                                          |
//!
//! * **Numerics.** Int and Double share one class and must interleave in
//!   exact numeric order. The payload is `(g, r)`: `g` is the value
//!   rounded to the nearest `f64`, byte-flipped so its bits order as an
//!   unsigned integer (sign bit set → flip all bits, else set the sign
//!   bit — the classic IEEE-754 trick), and `r` is the sign-flipped
//!   `i16` residual `value − g` (zero for doubles; round-to-nearest
//!   bounds it to ±512 for the largest `i64` magnitudes). Lexicographic
//!   `(g, r)` equals exact numeric order because rounding is monotone
//!   and values sharing a `g` differ only in their residual. NaN
//!   canonicalizes to the positive quiet NaN (flips above +∞, matching
//!   `total_cmp`'s NaN-high order) and `-0.0` to `0.0`.
//! * **Strings.** A `0x00` byte escapes to `0x00 0xFF` and the column
//!   terminates with `0x00 0x00`. Since an escaped body can never
//!   contain two adjacent zero bytes, the terminator is the *only*
//!   `0x00 0x00` in the column — the encoding is prefix-free, and
//!   memcmp order equals byte-wise string order with no prefix anomaly
//!   ("ab" < "abc", and "a\0" > "a").
//! * **Descending columns** invert every payload byte (tag included).
//!   This is order-reversing exactly because each column's encoding is
//!   prefix-free: two distinct column encodings first differ at a byte
//!   position present in both, and `!a < !b ⇔ a > b` at that byte.
//!
//! Prefix-freeness per column also makes plain concatenation correct for
//! multi-column keys, and makes a fixed-width suffix (the sort kernel
//! appends a big-endian sequence number for stability) safe to compare
//! as part of the same memcmp.

use crate::sort::Direction;
use crate::value::Value;

/// Tag for the numeric class (Int and Double interleave).
pub const TAG_NUMERIC: u8 = 0x01;
/// Tag for strings.
pub const TAG_STR: u8 = 0x02;
/// Tag for dates.
pub const TAG_DATE: u8 = 0x03;
/// Tag for booleans.
pub const TAG_BOOL: u8 = 0x04;
/// Tag for SQL NULL — highest, so NULLs sort after every value ascending.
pub const TAG_NULL: u8 = 0xFF;

/// Encoded width of a numeric column (tag + flipped double + residual).
pub const NUMERIC_WIDTH: usize = 11;

/// Appends the ascending-order encoding of one value to `buf`.
pub fn encode_value_asc(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Int(a) => {
            buf.push(TAG_NUMERIC);
            let (g, r) = int_numeric(*a);
            encode_numeric(g, r, buf);
        }
        Value::Double(d) => {
            buf.push(TAG_NUMERIC);
            encode_numeric(*d, 0, buf);
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            for &b in s.as_bytes() {
                if b == 0 {
                    buf.extend_from_slice(&[0x00, 0xFF]);
                } else {
                    buf.push(b);
                }
            }
            buf.extend_from_slice(&[0x00, 0x00]);
        }
        Value::Date(d) => {
            buf.push(TAG_DATE);
            buf.extend_from_slice(&((*d as u32) ^ 0x8000_0000).to_be_bytes());
        }
        Value::Bool(b) => {
            buf.push(TAG_BOOL);
            buf.push(u8::from(*b));
        }
    }
}

/// An integer's numeric key parts `(g, r)`: `g` the nearest double, `r`
/// the residual `v − g`. Every integer below 2^53 in magnitude is a
/// double, so its residual is 0; only larger ones take the exact `i128`
/// difference (|g| <= 2^63 and g is integral, so the cast back is
/// lossless; round-to-nearest bounds the residual to ±512). The test
/// keeps the common case off the float-to-`i128` conversion, a library
/// call per value.
#[inline]
pub(crate) fn int_numeric(v: i64) -> (f64, i16) {
    let g = v as f64;
    let r = match v.unsigned_abs() < 1 << 53 {
        true => 0,
        false => (v as i128 - g as i128) as i16,
    };
    (g, r)
}

/// Flipped-double + sign-flipped-residual numeric payload. Shared with
/// the columnar encoders in [`crate::column`] so every path stays
/// byte-identical by construction.
pub(crate) fn numeric_payload(g: f64, r: i16) -> [u8; NUMERIC_WIDTH - 1] {
    let bits = if g.is_nan() {
        // Canonical positive quiet NaN: flips above +inf, so NaN sorts
        // last among numerics — the same order as `Value::total_cmp`.
        0x7ff8_0000_0000_0000u64
    } else if g == 0.0 {
        0u64 // fold -0.0 into +0.0
    } else {
        g.to_bits()
    };
    let flipped = if bits & 0x8000_0000_0000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000_0000_0000
    };
    let mut out = [0u8; NUMERIC_WIDTH - 1];
    out[..8].copy_from_slice(&flipped.to_be_bytes());
    out[8..].copy_from_slice(&((r as u16) ^ 0x8000).to_be_bytes());
    out
}

/// Appends [`numeric_payload`] to `buf`.
pub(crate) fn encode_numeric(g: f64, r: i16, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&numeric_payload(g, r));
}

/// Appends the encoding of one value under `dir` to `buf`
/// (descending inverts every byte of the column, tag included).
pub fn encode_value(v: &Value, dir: Direction, buf: &mut Vec<u8>) {
    let start = buf.len();
    encode_value_asc(v, buf);
    if dir == Direction::Desc {
        for b in &mut buf[start..] {
            *b = !*b;
        }
    }
}

/// Appends the full normalized key of `row` under `keys`
/// (`(column position, direction)` pairs) to `buf`.
///
/// Lexicographic comparison of two encodings equals chaining
/// `dir.apply(row_a[pos].total_cmp(&row_b[pos]))` across the key columns.
pub fn encode_key_into(row: &[Value], keys: &[(usize, Direction)], buf: &mut Vec<u8>) {
    for &(pos, dir) in keys {
        encode_value(&row[pos], dir, buf);
    }
}

/// Returns the normalized key of `row` under `keys` as a fresh buffer.
pub fn encode_key(row: &[Value], keys: &[(usize, Direction)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(keys.len() * NUMERIC_WIDTH);
    encode_key_into(row, keys, &mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::cmp::Ordering;

    fn cmp_by_keys(a: &[Value], b: &[Value], keys: &[(usize, Direction)]) -> Ordering {
        for &(pos, dir) in keys {
            let ord = dir.apply(a[pos].total_cmp(&b[pos]));
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    fn assert_agrees(a: &[Value], b: &[Value], keys: &[(usize, Direction)]) {
        let (ea, eb) = (encode_key(a, keys), encode_key(b, keys));
        assert_eq!(
            ea.cmp(&eb),
            cmp_by_keys(a, b, keys),
            "codec disagrees with Value order for {a:?} vs {b:?} under {keys:?}\n  {ea:02x?}\n  {eb:02x?}"
        );
    }

    fn both_dirs(vals: &[Value]) {
        for dir in [Direction::Asc, Direction::Desc] {
            let keys = [(0usize, dir)];
            for a in vals {
                for b in vals {
                    assert_agrees(std::slice::from_ref(a), std::slice::from_ref(b), &keys);
                }
            }
        }
    }

    #[test]
    fn numeric_edge_cases_agree_with_total_cmp() {
        both_dirs(&[
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(i64::MIN + 1),
            Value::Int(-1024),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(1),
            Value::Int(1 << 53),
            Value::Int((1 << 53) + 1),
            Value::Int((1 << 60) + 1),
            Value::Int(i64::MAX - 1),
            Value::Int(i64::MAX),
            Value::Double(f64::NEG_INFINITY),
            Value::Double(-1e300),
            Value::Double(-9.223372036854776e18),
            Value::Double(-2.5),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(f64::MIN_POSITIVE),
            Value::Double(2.5),
            Value::Double((1u64 << 60) as f64),
            Value::Double(9.223372036854776e18),
            Value::Double(1e300),
            Value::Double(f64::INFINITY),
            Value::Double(f64::NAN),
            Value::Double(-f64::NAN),
        ]);
    }

    #[test]
    fn string_edges_have_no_prefix_anomaly() {
        both_dirs(&[
            Value::Null,
            Value::str(""),
            Value::str("\0"),
            Value::str("\0\0"),
            Value::str("a"),
            Value::str("a\0"),
            Value::str("a\0b"),
            Value::str("ab"),
            Value::str("abc"),
            Value::str("ab\u{0001}"),
            Value::str("b"),
            Value::str("\u{00ff}"),
        ]);
    }

    #[test]
    fn dates_bools_and_cross_type_tags_agree() {
        both_dirs(&[
            Value::Null,
            Value::Int(3),
            Value::Double(3.5),
            Value::str("3"),
            Value::Date(i32::MIN),
            Value::Date(-1),
            Value::Date(0),
            Value::Date(i32::MAX),
            Value::Bool(false),
            Value::Bool(true),
        ]);
    }

    #[test]
    fn multi_column_concatenation_has_no_bleed() {
        // A short string in column 0 must not "borrow" order from
        // column 1's bytes — prefix-freeness makes concatenation safe.
        let keys = [(0usize, Direction::Asc), (1usize, Direction::Desc)];
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::str("ab"), Value::Int(9)],
            vec![Value::str("abc"), Value::Int(0)],
            vec![Value::str("ab"), Value::Int(0)],
            vec![Value::str("a"), Value::Null],
            vec![Value::Null, Value::str("z")],
        ];
        for a in &rows {
            for b in &rows {
                assert_agrees(a, b, &keys);
            }
        }
    }

    fn random_value(rng: &mut Rng) -> Value {
        match rng.range_usize(0, 8) {
            0 => Value::Null,
            1 => Value::Int(rng.range_i64(-5, 5)),
            2 => Value::Int(rng.next_u64() as i64),
            3 => Value::Double(rng.range_f64(-10.0, 10.0)),
            4 => Value::Double(match rng.range_usize(0, 5) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                _ => f64::from_bits(rng.next_u64()),
            }),
            5 => {
                let len = rng.range_usize(0, 6);
                let s: String = (0..len)
                    .map(|_| char::from(*rng.pick(b"ab\0\x01\xffxyz")))
                    .collect();
                Value::str(s)
            }
            6 => Value::Date(rng.range_i32(-1000, 1000)),
            _ => Value::Bool(rng.bool()),
        }
    }

    /// The satellite property test: random typed tuples and directions,
    /// every pair's encoded comparison must equal the `Value` comparison.
    #[test]
    fn property_encoded_order_matches_value_order() {
        let mut rng = Rng::new(0x5eed_c0dec);
        for _ in 0..200 {
            let cols = rng.range_usize(1, 4);
            let keys: Vec<(usize, Direction)> = (0..cols)
                .map(|c| {
                    (
                        c,
                        if rng.bool() {
                            Direction::Asc
                        } else {
                            Direction::Desc
                        },
                    )
                })
                .collect();
            let rows: Vec<Vec<Value>> = (0..12)
                .map(|_| (0..cols).map(|_| random_value(&mut rng)).collect())
                .collect();
            for a in &rows {
                for b in &rows {
                    assert_agrees(a, b, &keys);
                }
            }
        }
    }

    #[test]
    fn empty_key_encodes_empty() {
        assert!(encode_key(&[Value::Int(1)], &[]).is_empty());
    }
}
