//! Table and column statistics used by the planner's cardinality and cost
//! estimation.

use fto_common::value::cmp_f64_nan_high;
use fto_common::{Batch, Column, ColumnData, DataType, FtoError, Result, Value};
use std::collections::HashSet;

/// Per-column statistics.
#[derive(Clone, Debug, Default)]
pub struct ColStats {
    /// Number of distinct values (0 when unknown).
    pub ndv: u64,
    /// Minimum value seen.
    pub min: Option<Value>,
    /// Maximum value seen.
    pub max: Option<Value>,
}

impl ColStats {
    /// Estimated selectivity of `col = constant` under uniformity.
    pub fn eq_selectivity(&self) -> f64 {
        if self.ndv == 0 {
            0.1 // textbook default when distinct count is unknown
        } else {
            1.0 / self.ndv as f64
        }
    }

    /// Estimated selectivity of a range predicate (`<`, `>`, ...) against a
    /// constant, interpolating between min and max when both are numeric.
    pub fn range_selectivity(&self, bound: &Value, less_than: bool) -> f64 {
        let (min, max, b) = match (
            self.min.as_ref().and_then(numeric),
            self.max.as_ref().and_then(numeric),
            numeric(bound),
        ) {
            (Some(lo), Some(hi), Some(b)) if hi > lo => (lo, hi, b),
            _ => return 0.33, // textbook default
        };
        let frac = ((b - min) / (max - min)).clamp(0.0, 1.0);
        if less_than {
            frac
        } else {
            1.0 - frac
        }
    }
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Double(d) => Some(*d),
        Value::Date(d) => Some(*d as f64),
        _ => None,
    }
}

/// Per-table statistics.
#[derive(Clone, Debug, Default)]
pub struct TableStats {
    /// Number of rows.
    pub row_count: u64,
    /// Number of data pages occupied.
    pub pages: u64,
    /// Column statistics (indexed by column ordinal).
    pub columns: Vec<ColStats>,
}

impl TableStats {
    /// Builds statistics from a table's column chunks (the engine's
    /// `RUNSTATS`): per column the number of distinct non-null values
    /// and the first-seen smallest and largest of them under
    /// [`Value::total_cmp`]. `types` are the table's declared column
    /// types; a chunk column of another type is an
    /// [`FtoError::Internal`].
    pub fn from_chunks<'a>(
        chunks: impl IntoIterator<Item = &'a Batch>,
        types: &[DataType],
        rows_per_page: u64,
    ) -> Result<Self> {
        let mut columns: Vec<ColumnScan<'a>> =
            types.iter().map(|&ty| ColumnScan::new(ty)).collect();
        let mut row_count = 0u64;
        for chunk in chunks {
            row_count += chunk.len() as u64;
            for (scan, col) in columns.iter_mut().zip(chunk.columns()) {
                scan.absorb(col)?;
            }
        }
        let rows_per_page = rows_per_page.max(1);
        Ok(TableStats {
            row_count,
            pages: row_count.div_ceil(rows_per_page).max(1),
            columns: columns.into_iter().map(ColumnScan::finish).collect(),
        })
    }
}

/// The distinct values of one column seen so far: a set of the declared
/// type's primitives, no `Value` built or cloned per row.
enum Distinct<'a> {
    Ints(HashSet<i64>),
    Dates(HashSet<i32>),
    /// Canonical bit patterns: one NaN, one zero.
    Doubles(HashSet<u64>),
    Strs(HashSet<&'a [u8]>),
    Bools(HashSet<bool>),
}

struct ColumnScan<'a> {
    distinct: Distinct<'a>,
    min: Option<Value>,
    max: Option<Value>,
}

fn canonical_bits(d: f64) -> u64 {
    if d.is_nan() {
        f64::NAN.to_bits()
    } else if d == 0.0 {
        0
    } else {
        d.to_bits()
    }
}

impl<'a> ColumnScan<'a> {
    fn new(ty: DataType) -> Self {
        ColumnScan {
            distinct: match ty {
                DataType::Int => Distinct::Ints(HashSet::new()),
                DataType::Date => Distinct::Dates(HashSet::new()),
                DataType::Double => Distinct::Doubles(HashSet::new()),
                DataType::Str => Distinct::Strs(HashSet::new()),
                DataType::Bool => Distinct::Bools(HashSet::new()),
            },
            min: None,
            max: None,
        }
    }

    fn absorb(&mut self, col: &'a Column) -> Result<()> {
        let extremes = match (&mut self.distinct, &col.data) {
            (Distinct::Ints(set), ColumnData::Int64(v)) => {
                scan(col, |i| v[i], |a, b| a < b, |x| set.insert(x))
            }
            (Distinct::Dates(set), ColumnData::Date32(v)) => {
                scan(col, |i| v[i], |a, b| a < b, |x| set.insert(x))
            }
            (Distinct::Doubles(set), ColumnData::Float64(v)) => scan(
                col,
                |i| v[i],
                |a, b| cmp_f64_nan_high(*a, *b).is_lt(),
                |x| set.insert(canonical_bits(x)),
            ),
            (Distinct::Strs(set), ColumnData::Utf8 { offsets, bytes }) => scan(
                col,
                |i| &bytes[offsets[i] as usize..offsets[i + 1] as usize],
                |a, b| a < b,
                |x| set.insert(x),
            ),
            (Distinct::Bools(set), ColumnData::Bool(v)) => {
                scan(col, |i| v[i], |a, b| a < b, |x| set.insert(x))
            }
            _ => {
                return Err(FtoError::internal(format!(
                    "statistics met a {} chunk of a column declared otherwise",
                    col.data_type()
                )))
            }
        };
        if let Some((lo, hi)) = extremes {
            let (lo, hi) = (col.value(lo), col.value(hi));
            if self.min.as_ref().is_none_or(|m| &lo < m) {
                self.min = Some(lo);
            }
            if self.max.as_ref().is_none_or(|m| &hi > m) {
                self.max = Some(hi);
            }
        }
        Ok(())
    }

    fn finish(self) -> ColStats {
        ColStats {
            ndv: match self.distinct {
                Distinct::Ints(s) => s.len(),
                Distinct::Dates(s) => s.len(),
                Distinct::Doubles(s) => s.len(),
                Distinct::Strs(s) => s.len(),
                Distinct::Bools(s) => s.len(),
            } as u64,
            min: self.min,
            max: self.max,
        }
    }
}

/// Feeds every valid slot of `col` to `insert` (whose verdict is not
/// needed) and returns the slots of the first-seen smallest and largest
/// (`None` when all are NULL).
fn scan<T: Clone>(
    col: &Column,
    get: impl Fn(usize) -> T,
    less: impl Fn(&T, &T) -> bool,
    mut insert: impl FnMut(T) -> bool,
) -> Option<(usize, usize)> {
    let mut extremes: Option<((T, usize), (T, usize))> = None;
    for i in (0..col.len()).filter(|&i| col.is_valid(i)) {
        let v = get(i);
        insert(v.clone());
        extremes = Some(match extremes {
            None => ((v.clone(), i), (v, i)),
            Some((lo, hi)) => (
                if less(&v, &lo.0) { (v.clone(), i) } else { lo },
                if less(&hi.0, &v) { (v, i) } else { hi },
            ),
        });
    }
    extremes.map(|(lo, hi)| (lo.1, hi.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_common::value::row;
    use fto_common::Row;

    /// The row-at-a-time RUNSTATS this module used to run: every value
    /// cloned into a `HashSet<Value>`. Kept as the oracle for
    /// [`TableStats::from_chunks`].
    fn reference(rows: &[Row], arity: usize) -> Vec<ColStats> {
        let mut columns = vec![ColStats::default(); arity];
        let mut distinct: Vec<HashSet<Value>> = vec![HashSet::new(); arity];
        for row in rows {
            for (i, v) in row.iter().enumerate().filter(|(_, v)| !v.is_null()) {
                distinct[i].insert(v.clone());
                let cs = &mut columns[i];
                if cs.min.as_ref().is_none_or(|m| v < m) {
                    cs.min = Some(v.clone());
                }
                if cs.max.as_ref().is_none_or(|m| v > m) {
                    cs.max = Some(v.clone());
                }
            }
        }
        for (cs, set) in columns.iter_mut().zip(distinct) {
            cs.ndv = set.len() as u64;
        }
        columns
    }

    /// Bit-exact rendering: `Value`'s own equality calls `-0.0` and
    /// `0.0`, every NaN, and `Int(1)` and `Double(1.0)` equal.
    fn exact(v: &Option<Value>) -> String {
        match v {
            Some(Value::Double(d)) => format!("Double({:#x})", d.to_bits()),
            other => format!("{other:?}"),
        }
    }

    fn assert_matches_reference(rows: &[Row], types: &[DataType], chunk_rows: usize) {
        let chunks: Vec<Batch> = rows
            .chunks(chunk_rows)
            .map(|c| Batch::from_typed_rows(types, c).unwrap())
            .collect();
        let stats = TableStats::from_chunks(&chunks, types, 10).unwrap();
        assert_eq!(stats.row_count, rows.len() as u64);
        let want = reference(rows, types.len());
        for (i, (got, want)) in stats.columns.iter().zip(want).enumerate() {
            let at = format!("column {i}, chunks of {chunk_rows}");
            assert_eq!(got.ndv, want.ndv, "ndv of {at}");
            assert_eq!(exact(&got.min), exact(&want.min), "min of {at}");
            assert_eq!(exact(&got.max), exact(&want.max), "max of {at}");
        }
    }

    #[test]
    fn from_chunks_computes_ndv_min_max() {
        let rows: Vec<Row> = vec![
            row([Value::Int(3), Value::str("b")]),
            row([Value::Int(1), Value::str("a")]),
            row([Value::Int(3), Value::Null]),
        ];
        let types = [DataType::Int, DataType::Str];
        let chunk = Batch::from_typed_rows(&types, &rows).unwrap();
        let stats = TableStats::from_chunks(&[chunk], &types, 2).unwrap();
        assert_eq!(stats.row_count, 3);
        assert_eq!(stats.pages, 2);
        assert_eq!(stats.columns[0].ndv, 2);
        assert_eq!(stats.columns[0].min, Some(Value::Int(1)));
        assert_eq!(stats.columns[0].max, Some(Value::Int(3)));
        assert_eq!(stats.columns[1].ndv, 2); // NULL not counted
    }

    #[test]
    fn empty_table_occupies_one_page() {
        let stats = TableStats::from_chunks(&[], &[DataType::Int], 10).unwrap();
        assert_eq!(stats.row_count, 0);
        assert_eq!(stats.pages, 1);
        assert_eq!(stats.columns[0].ndv, 0);
    }

    #[test]
    fn typed_sets_agree_with_the_value_set_on_awkward_values() {
        let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
        // One column per hazard; chunk sizes 1..=7 put the all-NULL
        // chunks (typed like any other) on, before and after chunk
        // boundaries.
        let big = (1u64 << 60) as f64;
        let table: Vec<Row> = vec![
            //  ints w/ NULLs    signed zeros, NaNs     repeated doubles      strings            dates            bools
            row([
                Value::Int(7),
                Value::Double(0.0),
                Value::Double(1.0),
                Value::str(""),
                Value::Date(9),
                Value::Bool(true),
            ]),
            row([
                Value::Null,
                Value::Double(-0.0),
                Value::Double(1.0),
                Value::str("a"),
                Value::Null,
                Value::Bool(false),
            ]),
            row([
                Value::Int(-2),
                Value::Double(nan2),
                Value::Double(2.0),
                Value::str("ab"),
                Value::Date(-4),
                Value::Null,
            ]),
            row([
                Value::Null,
                Value::Double(f64::NAN),
                Value::Double(2.5),
                Value::Null,
                Value::Date(9),
                Value::Bool(true),
            ]),
            row([
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ]),
            row([
                Value::Int(7),
                Value::Double(-1.5),
                Value::Double(big),
                Value::str("a"),
                Value::Date(3),
                Value::Bool(false),
            ]),
            row([
                Value::Int(i64::MIN),
                Value::Double(f64::INFINITY),
                Value::Double(big),
                Value::str("A"),
                Value::Date(3),
                Value::Null,
            ]),
        ];
        use DataType::{Bool, Date, Double, Int, Str};
        let types = [Int, Double, Double, Str, Date, Bool];
        for chunk_rows in 1..=table.len() {
            assert_matches_reference(&table, &types, chunk_rows);
        }
        // Reversed, the other member of every equal pair is first-seen.
        let reversed: Vec<Row> = table.iter().rev().cloned().collect();
        for chunk_rows in 1..=reversed.len() {
            assert_matches_reference(&reversed, &types, chunk_rows);
        }
        // A chunk of another type than the column's is refused.
        let ints = Batch::from_typed_rows(&[Int], &[row([Value::Int(7)])]).unwrap();
        assert!(TableStats::from_chunks(&[ints], &[Str], 10).is_err());
    }

    #[test]
    fn eq_selectivity() {
        let cs = ColStats {
            ndv: 4,
            ..Default::default()
        };
        assert!((cs.eq_selectivity() - 0.25).abs() < 1e-9);
        assert!((ColStats::default().eq_selectivity() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn range_selectivity_interpolates() {
        let cs = ColStats {
            ndv: 100,
            min: Some(Value::Int(0)),
            max: Some(Value::Int(100)),
        };
        let s = cs.range_selectivity(&Value::Int(25), true);
        assert!((s - 0.25).abs() < 1e-9);
        let s = cs.range_selectivity(&Value::Int(25), false);
        assert!((s - 0.75).abs() < 1e-9);
        // Out-of-range bound clamps.
        assert_eq!(cs.range_selectivity(&Value::Int(1000), true), 1.0);
        // Non-numeric falls back to default.
        let s = cs.range_selectivity(&Value::str("x"), true);
        assert!((s - 0.33).abs() < 1e-9);
    }

    #[test]
    fn date_ranges_are_numeric() {
        let cs = ColStats {
            ndv: 10,
            min: Some(Value::Date(0)),
            max: Some(Value::Date(10)),
        };
        let s = cs.range_selectivity(&Value::Date(5), true);
        assert!((s - 0.5).abs() < 1e-9);
    }
}
