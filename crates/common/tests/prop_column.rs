//! Property tests for the columnar batch layer: `from_typed_rows →
//! to_rows` must be an exact identity over adversarial values of every
//! declared type (and keep that type, whatever the values), and the
//! column-at-a-time sort-key encoder must be byte-identical to the
//! per-row [`fto_common::sortkey`] encoder on the same fuzz corpus, and
//! the typed cell comparator must decide as `Value::total_cmp` does.

use fto_common::column::encode_batch_keys_arena;
use fto_common::{sortkey, Batch, Column, DataType, Direction, Rng, Row, Value};

const CASES: u64 = 120;

/// One fuzzed value, hitting every corner the codec and the column
/// round-trip must preserve exactly: NULLs, NaN, signed zeros, huge
/// integers (f64-inexact), empty strings, strings with embedded 0x00,
/// and multi-byte UTF-8.
fn fuzz_value(rng: &mut Rng, type_hint: usize) -> Value {
    if rng.chance(0.18) {
        return Value::Null;
    }
    match type_hint {
        0 => Value::Int(match rng.range_usize(0, 5) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => rng.range_i64(-10, 10),
            _ => rng.next_u64() as i64,
        }),
        1 => Value::Double(match rng.range_usize(0, 8) {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::from_bits(rng.next_u64()),
            _ => rng.range_f64(-1e6, 1e6),
        }),
        2 => {
            let n = rng.range_usize(0, 9);
            let s: String = (0..n)
                .map(|_| *rng.pick(&['a', 'Z', '0', '\0', 'é', '中', ' ']))
                .collect();
            Value::str(s.as_str())
        }
        3 => Value::Date(rng.range_i32(-100_000, 100_000)),
        _ => Value::Bool(rng.bool()),
    }
}

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Double,
    DataType::Str,
    DataType::Date,
    DataType::Bool,
];

/// A fuzzed row set with its declared column types: each column draws
/// one type per case and holds values of that type and NULLs — or, one
/// time in six, nothing but NULLs.
fn fuzz_rows(rng: &mut Rng, arity: usize) -> (Vec<DataType>, Vec<Row>) {
    let plans: Vec<(usize, bool)> = (0..arity)
        .map(|_| (rng.range_usize(0, 5), rng.range_usize(0, 6) == 0))
        .collect();
    let nrows = rng.range_usize(0, 40);
    let rows = (0..nrows)
        .map(|_| {
            plans
                .iter()
                .map(|&(hint, all_null)| match all_null {
                    true => Value::Null,
                    false => fuzz_value(rng, hint),
                })
                .collect::<Vec<_>>()
                .into_boxed_slice()
        })
        .collect();
    (plans.iter().map(|&(hint, _)| TYPES[hint]).collect(), rows)
}

/// The batch of a fuzzed row set, which must hold the declared types.
fn typed_batch(types: &[DataType], rows: &[Row], case: u64) -> Batch {
    let batch = Batch::from_typed_rows(types, rows).unwrap();
    let held: Vec<DataType> = batch.columns().iter().map(|c| c.data_type()).collect();
    assert_eq!(held, types, "case {case}");
    batch
}

/// `Value` equality that is exact on bit patterns: `to_rows` must give
/// back the NaN payload and zero sign it was handed, which `PartialEq`
/// (NaN != NaN) can't check.
fn bit_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

#[test]
fn row_round_trip_is_identity() {
    let mut rng = Rng::new(0xC01_BA7C);
    for case in 0..CASES {
        let arity = rng.range_usize(0, 6);
        let (types, rows) = fuzz_rows(&mut rng, arity);
        let batch = typed_batch(&types, &rows, case);
        assert_eq!(batch.len(), rows.len(), "case {case}");
        assert_eq!(batch.arity(), arity, "case {case}");
        let back = batch.to_rows();
        assert_eq!(back.len(), rows.len(), "case {case}");
        for (i, (orig, round)) in rows.iter().zip(&back).enumerate() {
            for (j, (a, b)) in orig.iter().zip(round.iter()).enumerate() {
                assert!(
                    bit_identical(a, b),
                    "case {case} row {i} col {j}: {a:?} != {b:?}"
                );
            }
        }
    }
}

#[test]
fn empty_batch_round_trips() {
    for arity in [0usize, 1, 4] {
        let batch = typed_batch(&TYPES[..arity], &[], 0);
        assert_eq!(batch.len(), 0);
        assert_eq!(batch.arity(), arity);
        assert!(batch.to_rows().is_empty());
        assert_eq!(batch.columns(), Batch::empty(&TYPES[..arity]).columns());
    }
}

#[test]
fn columnar_key_encoder_matches_row_encoder() {
    let mut rng = Rng::new(0xC01_E2C0);
    for case in 0..CASES {
        let arity = rng.range_usize(1, 6);
        let (types, rows) = fuzz_rows(&mut rng, arity);
        let batch = typed_batch(&types, &rows, case);
        // Random key set over the columns, random directions, possibly
        // repeating a column under both directions.
        let nkeys = rng.range_usize(1, arity + 2);
        let keys: Vec<(usize, Direction)> = (0..nkeys)
            .map(|_| {
                let pos = rng.range_usize(0, arity);
                let dir = if rng.bool() {
                    Direction::Asc
                } else {
                    Direction::Desc
                };
                (pos, dir)
            })
            .collect();
        let (mut arena, mut offsets) = (Vec::new(), Vec::new());
        encode_batch_keys_arena(&batch, &keys, &mut arena, &mut offsets);
        assert_eq!(offsets.len(), rows.len() + 1, "case {case}");
        for (i, row) in rows.iter().enumerate() {
            let expected = sortkey::encode_key(row, &keys);
            assert_eq!(
                &arena[offsets[i]..offsets[i + 1]],
                &expected[..],
                "case {case} row {i}: arena encoding diverged\nrow: {row:?}\nkeys: {keys:?}"
            );
        }
    }
}

#[test]
fn gather_matches_row_selection() {
    let mut rng = Rng::new(0xC01_6A7E);
    for case in 0..CASES {
        let arity = rng.range_usize(1, 5);
        let (types, rows) = fuzz_rows(&mut rng, arity);
        let batch = typed_batch(&types, &rows, case);
        let sel: Vec<u32> = (0..rows.len() as u32).filter(|_| rng.bool()).collect();
        let gathered = batch.gather(&sel);
        assert_eq!(gathered.len(), sel.len(), "case {case}");
        for (k, &i) in sel.iter().enumerate() {
            let got = gathered.row(k);
            let want = &rows[i as usize];
            for (j, (a, b)) in want.iter().zip(got.iter()).enumerate() {
                assert!(
                    bit_identical(a, b),
                    "case {case} slot {k} col {j}: {a:?} != {b:?}"
                );
            }
        }
    }
}

/// Values every comparison corner lives at, per [`TYPES`] entry: NULL,
/// `Int`s and `Double`s that tie exactly (2, 2^53, 2^60, 2^63) beside the
/// integers one past them that a rounding comparison would call equal,
/// signed zeros, NaN and the infinities, strings that are prefixes of
/// others and multi-byte UTF-8, and the extreme dates.
fn edge_values(type_hint: usize) -> Vec<Value> {
    let mut values = vec![Value::Null];
    match type_hint {
        0 => values.extend(
            [
                2,
                0,
                1 << 53,
                (1 << 53) + 1,
                (1 << 60) + 1,
                i64::MAX,
                i64::MIN,
            ]
            .map(Value::Int),
        ),
        1 => values.extend(
            [
                2.0,
                -0.0,
                0.0,
                (1u64 << 53) as f64,
                (1u64 << 60) as f64,
                i64::MAX as f64,
                i64::MIN as f64,
                f64::NAN,
                f64::NEG_INFINITY,
                f64::INFINITY,
            ]
            .map(Value::Double),
        ),
        2 => values.extend(["", "a", "ab", "\0", "é"].map(Value::str)),
        3 => values.extend([0, -1, i32::MIN, i32::MAX].map(Value::Date)),
        _ => values.extend([false, true].map(Value::Bool)),
    }
    values
}

/// `Column::cmp_at` decides exactly as `Value::total_cmp` does on the two
/// slots' values, for every pair of declared types — a mismatched pair
/// included, which ranks by type as the `Value` order does.
#[test]
fn cmp_at_equals_value_total_cmp() {
    let mut rng = Rng::new(0xC01_C3B7);
    for case in 0..CASES / 4 {
        let columns: Vec<Column> = (0..TYPES.len())
            .map(|hint| {
                let mut values = edge_values(hint);
                values.extend((0..8).map(|_| fuzz_value(&mut rng, hint)));
                Column::from_typed_values(TYPES[hint], values.iter()).unwrap()
            })
            .collect();
        for a in &columns {
            for b in &columns {
                for i in 0..a.len() {
                    for j in 0..b.len() {
                        let (va, vb) = (a.value(i), b.value(j));
                        assert_eq!(
                            a.cmp_at(i, b, j),
                            va.total_cmp(&vb),
                            "case {case}: {va:?} against {vb:?}"
                        );
                    }
                }
            }
        }
    }
}
