//! The answer check. Expected answers come from a different plan *and* a
//! different engine than the one being timed (see `run::oracle`); this
//! module only compares rows.

use crate::json::Json;
use crate::workloads::OrderKey;
use fto_common::{Row, Value};
use std::cmp::Ordering;

/// Doubles may differ in their last bits between two plans that add the
/// same numbers in a different order; anything beyond this relative
/// distance is a wrong answer.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// An order-independent digest of an answer, cheap enough to check after
/// every timed statement and small enough that keeping one per statement
/// does not show in `peak_rss_mb`.
///
/// Every non-double value goes into a 64-bit hash per row, summed over
/// rows (so row order does not matter but row multiplicity does). Doubles
/// are summed per column, each weighted by its row's hash, which ties a
/// double to the row it belongs to; the sums are compared with
/// [`FLOAT_TOLERANCE`].
#[derive(Clone, Debug, PartialEq)]
pub struct Signature {
    pub rows: u64,
    pub exact: u64,
    pub float_sums: Vec<f64>,
    pub float_mags: Vec<f64>,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fold(h: u64, x: u64) -> u64 {
    mix(h ^ x).wrapping_add(0x9e37_79b9_7f4a_7c15)
}

fn row_hash(row: &[Value]) -> u64 {
    let mut h = row.len() as u64;
    for (i, v) in row.iter().enumerate() {
        h = fold(h, i as u64);
        h = match v {
            Value::Null => fold(h, 0),
            Value::Int(n) => fold(fold(h, 1), *n as u64),
            Value::Double(_) => fold(h, 2),
            Value::Str(s) => s.bytes().fold(fold(h, 3), |h, b| fold(h, u64::from(b))),
            Value::Date(d) => fold(fold(h, 4), *d as u64),
            Value::Bool(b) => fold(fold(h, 5), u64::from(*b)),
        };
    }
    h
}

impl Signature {
    pub fn of(rows: &[Row]) -> Signature {
        let width = rows.first().map_or(0, |r| r.len());
        let mut sig = Signature {
            rows: rows.len() as u64,
            exact: 0,
            float_sums: vec![0.0; width],
            float_mags: vec![0.0; width],
        };
        for row in rows {
            let h = row_hash(row);
            sig.exact = sig.exact.wrapping_add(mix(h));
            let weight = 1.0 + (h >> 11) as f64 / (1u64 << 53) as f64;
            for (j, v) in row.iter().enumerate().take(width) {
                if let Value::Double(d) = v {
                    sig.float_sums[j] += d * weight;
                    sig.float_mags[j] += d.abs() * weight;
                }
            }
        }
        sig
    }

    /// `Err` names the first part of the digest that disagrees.
    pub fn matches(&self, expected: &Signature) -> Result<(), String> {
        if self.rows != expected.rows {
            return Err(format!("{} rows, expected {}", self.rows, expected.rows));
        }
        if self.exact != expected.exact {
            return Err(format!(
                "row hash {:016x}, expected {:016x}",
                self.exact, expected.exact
            ));
        }
        if self.float_sums.len() != expected.float_sums.len() {
            return Err("column count differs".into());
        }
        for j in 0..self.float_sums.len() {
            let scale = self.float_mags[j].max(expected.float_mags[j]);
            let off = (self.float_sums[j] - expected.float_sums[j]).abs();
            // A NaN sum compares false and so fails the check.
            let within = off <= FLOAT_TOLERANCE * scale;
            if !within {
                return Err(format!(
                    "column {j}: doubles sum to {}, expected {}",
                    self.float_sums[j], expected.float_sums[j]
                ));
            }
        }
        Ok(())
    }

    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::num(*x)).collect());
        Json::obj([
            ("rows", Json::num(self.rows as f64)),
            ("exact", Json::str(format!("{:016x}", self.exact))),
            ("float_sums", nums(&self.float_sums)),
            ("float_mags", nums(&self.float_mags)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Signature> {
        let nums = |key: &str| -> Option<Vec<f64>> {
            j.get(key)?.as_arr()?.iter().map(Json::as_f64).collect()
        };
        Some(Signature {
            rows: j.get("rows")?.as_f64()? as u64,
            exact: u64::from_str_radix(j.get("exact")?.as_str()?, 16).ok()?,
            float_sums: nums("float_sums")?,
            float_mags: nums("float_mags")?,
        })
    }
}

/// Consecutive rows must respect the statement's ORDER BY.
pub fn check_order(rows: &[Row], order_by: &[OrderKey]) -> Result<(), String> {
    for (i, pair) in rows.windows(2).enumerate() {
        for key in order_by {
            let ord = pair[0][key.column].cmp(&pair[1][key.column]);
            let ord = if key.descending { ord.reverse() } else { ord };
            match ord {
                Ordering::Less => break,
                Ordering::Equal => {}
                Ordering::Greater => {
                    return Err(format!(
                        "rows {i} and {} break the order on output column {}",
                        i + 1,
                        key.column
                    ))
                }
            }
        }
    }
    Ok(())
}

/// What runs after every timed statement, once the timer has stopped.
pub fn check_answer(
    rows: &[Row],
    order_by: &[OrderKey],
    expected: &Signature,
) -> Result<(), String> {
    Signature::of(rows).matches(expected)?;
    check_order(rows, order_by)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::OrderKey;

    fn rows(data: &[(i64, &str, f64)]) -> Vec<Row> {
        data.iter()
            .map(|(k, s, d)| {
                vec![Value::Int(*k), Value::str(*s), Value::Double(*d)].into_boxed_slice()
            })
            .collect()
    }

    const ASC0: OrderKey = OrderKey {
        column: 0,
        descending: false,
    };
    const DESC2: OrderKey = OrderKey {
        column: 2,
        descending: true,
    };

    #[test]
    fn signature_ignores_row_order_and_last_bit_noise() {
        let a = rows(&[(1, "a", 0.1 + 0.2), (2, "b", 7.5), (3, "c", -1.25)]);
        let b = rows(&[(3, "c", -1.25), (1, "a", 0.3), (2, "b", 7.5)]);
        assert_ne!(0.1 + 0.2, 0.3);
        assert!(Signature::of(&a).matches(&Signature::of(&b)).is_ok());
    }

    #[test]
    fn signature_catches_wrong_values_counts_and_swapped_doubles() {
        let base = rows(&[(1, "a", 1.0), (2, "b", 2.0), (3, "c", 3.0)]);
        let expected = Signature::of(&base);
        let cases = [
            rows(&[(1, "a", 1.0), (2, "b", 2.0)]), // a row short
            rows(&[(1, "a", 1.0), (2, "b", 2.0), (2, "b", 2.0)]), // duplicate for a missing row
            rows(&[(1, "a", 1.0), (2, "x", 2.0), (3, "c", 3.0)]), // wrong string
            rows(&[(1, "a", 1.0), (2, "b", 2.001), (3, "c", 3.0)]), // wrong double
            rows(&[(1, "a", 2.0), (2, "b", 1.0), (3, "c", 3.0)]), // doubles on the wrong rows
        ];
        for (i, case) in cases.iter().enumerate() {
            assert!(Signature::of(case).matches(&expected).is_err(), "case {i}");
        }
    }

    #[test]
    fn corrupted_expected_hash_fails_the_answer_check() {
        let answer = rows(&[(1, "a", 1.0), (2, "b", 2.0)]);
        let mut expected = Signature::of(&answer);
        assert!(check_answer(&answer, &[ASC0], &expected).is_ok());
        expected.exact ^= 1;
        let err = check_answer(&answer, &[ASC0], &expected).unwrap_err();
        assert!(err.contains("row hash"), "{err}");
    }

    #[test]
    fn mis_ordered_result_fails_the_answer_check() {
        let answer = rows(&[(1, "a", 9.0), (2, "b", 5.0), (3, "c", 5.0)]);
        let expected = Signature::of(&answer);
        assert!(check_answer(&answer, &[ASC0], &expected).is_ok());
        assert!(check_answer(&answer, &[DESC2, ASC0], &expected).is_ok());
        let mut swapped = answer.clone();
        swapped.swap(0, 1);
        // Same multiset, so only the order check can catch it.
        assert!(Signature::of(&swapped).matches(&expected).is_ok());
        let err = check_answer(&swapped, &[ASC0], &expected).unwrap_err();
        assert!(err.contains("break the order"), "{err}");
        // A tie on the first key is decided by the second.
        let mut tie_broken = answer.clone();
        tie_broken.swap(1, 2);
        assert!(check_answer(&tie_broken, &[DESC2, ASC0], &expected).is_err());
        assert!(check_answer(&tie_broken, &[DESC2], &expected).is_ok());
    }

    #[test]
    fn signature_round_trips_through_json() {
        let sig = Signature::of(&rows(&[(1, "a", 0.1), (2, "b", 1e300), (3, "c", -2.5e-7)]));
        let text = sig.to_json().render();
        assert_eq!(
            Signature::from_json(&Json::parse(&text).unwrap()),
            Some(sig)
        );
    }
}
