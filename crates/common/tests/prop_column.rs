//! Property tests for the columnar batch layer: `from_typed_rows →
//! to_rows` must be an exact identity over adversarial values of every
//! declared type (and keep that type, whatever the values), and the
//! column-at-a-time sort-key encoder must be byte-identical to the
//! per-row [`fto_common::sortkey`] encoder on the same fuzz corpus, the
//! typed cell comparator must decide as `Value::total_cmp` does, and every
//! copy of column slots must be the row-wise copy under one validity rule.

use fto_common::column::{encode_batch_keys_arena, Bitmap};
use fto_common::{sortkey, Batch, Column, DataType, Direction, Rng, Row, Value};
use std::sync::Arc;

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

/// What `stream::dense` in the executor does: a selected batch's rows
/// gathered into dense columns, a dense batch untouched.
fn dense(batch: Batch) -> Batch {
    match batch.selection() {
        Some(sel) => batch.gather(sel),
        None => batch,
    }
}

/// Fuzzed batches of one stream — one declared type per column — cut from
/// one fuzzed row set: each column holds NULLs, or carries a bitmap with
/// every slot valid, or none; a batch is dense or selects a random subset
/// of its slots.
fn law_sources(rng: &mut Rng, types: &[DataType], rows: &[Row], case: u64) -> Vec<Batch> {
    let mut sources = Vec::new();
    let mut at = 0;
    while sources.is_empty() || at < rows.len() {
        let n = rng.range_usize(0, rows.len() - at + 1);
        let dense = typed_batch(types, &rows[at..at + n], case);
        at += n;
        let columns = dense.columns().iter().map(|c| match rng.range_usize(0, 3) {
            0 if c.validity.is_none() => Arc::new(Column {
                data: c.data.clone(),
                validity: Some(Bitmap::new(c.len(), true)),
            }),
            _ => Arc::clone(c),
        });
        let batch = Batch::from_columns_with_len(columns.collect(), n).unwrap();
        sources.push(match rng.bool() {
            true => batch,
            false => batch.with_selection((0..n as u32).filter(|_| rng.bool()).collect()),
        });
    }
    sources
}

/// A random range of `n` rows, as `(offset, len)`: empty ones included.
fn random_range(rng: &mut Rng, n: usize) -> (usize, usize) {
    let offset = rng.range_usize(0, n + 1);
    (offset, rng.range_usize(0, n - offset + 1))
}

/// Asserts `got` and `want` are the same rows, bit for bit.
fn assert_rows(got: &[Row], want: &[Row], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.iter().zip(w.iter()).all(|(a, b)| bit_identical(a, b));
        assert!(same, "{what} row {i}: {g:?} != {w:?}");
    }
}

/// Asserts `got` is a dense copy of `want`'s rows in the declared `types`
/// that carries a validity bitmap in exactly the columns where a copied
/// slot is NULL.
fn assert_copy(got: &Batch, want: &[Row], types: &[DataType], what: &str) {
    assert_eq!(got.selection(), None, "{what}: a copy is dense");
    let held: Vec<DataType> = got.columns().iter().map(|c| c.data_type()).collect();
    assert_eq!(held, types, "{what}");
    assert_rows(&got.to_rows(), want, what);
    for (c, col) in got.columns().iter().enumerate() {
        let null = want.iter().any(|r| r[c].is_null());
        assert_eq!(col.validity.is_some(), null, "{what} column {c}");
    }
}

/// Asserts every column of `view` is the same `Arc` as `of`'s.
fn assert_shares(view: &Batch, of: &Batch, what: &str) {
    for (v, o) in view.columns().iter().zip(of.columns()) {
        assert!(Arc::ptr_eq(v, o), "{what}: copied");
    }
}

/// One copy law over every way slots are copied: `Batch::concat` of any
/// parts — dense and selected batches, slices of either, empty parts, a
/// single part — `Batch::slice` then densified, `Batch::gather` of slots
/// in any order with repeats, and `Batch::gather_multi` across sources all
/// give the row-wise reference's rows in the declared types, and a copy
/// carries a bitmap exactly when a copied slot is NULL, whatever bitmaps
/// its sources carried. A slice shares its batch's columns, and so does a
/// concatenation of one part.
#[test]
fn every_copy_is_the_row_wise_copy() {
    let mut rng = Rng::new(0xC01_C0B7);
    for case in 0..CASES {
        let arity = rng.range_usize(1, 5);
        let (types, rows) = fuzz_rows(&mut rng, arity);
        let sources = law_sources(&mut rng, &types, &rows, case);
        let what = |op: &str| format!("case {case} {op}");

        for b in &sources {
            let (offset, len) = random_range(&mut rng, b.len());
            let s = b.slice(offset, len);
            let want = &b.to_rows()[offset..offset + len];
            assert_shares(&s, b, &what("slice"));
            assert_rows(&s.to_rows(), want, &what("slice"));
            if s.selection().is_some() {
                assert_copy(&dense(s), want, &types, &what("dense slice"));
            }
        }

        let parts: Vec<Batch> = (0..rng.range_usize(1, 5))
            .map(|_| {
                let b = rng.pick(&sources).clone();
                match rng.bool() {
                    true => b,
                    false => {
                        let (offset, len) = random_range(&mut rng, b.len());
                        b.slice(offset, len)
                    }
                }
            })
            .collect();
        let want: Vec<Row> = parts.iter().flat_map(Batch::to_rows).collect();
        let got = Batch::concat(&parts).unwrap();
        match &parts[..] {
            [one] => {
                assert_eq!(got.selection(), one.selection(), "{}", what("concat"));
                assert_shares(&got, one, &what("concat of one part"));
                assert_rows(&got.to_rows(), &want, &what("concat"));
            }
            _ => assert_copy(&got, &want, &types, &what("concat")),
        }

        let b = rng.pick(&sources);
        let sel: Vec<u32> = match b.slots() {
            0 => Vec::new(),
            n => (0..rng.range_usize(0, 2 * n + 1))
                .map(|_| rng.range_usize(0, n) as u32)
                .collect(),
        };
        let slot = |i: &u32| -> Row { b.columns().iter().map(|c| c.value(*i as usize)).collect() };
        let want: Vec<Row> = sel.iter().map(slot).collect();
        assert_copy(&b.gather(&sel), &want, &types, &what("gather"));

        let dense_sources: Vec<Batch> = sources.iter().cloned().map(dense).collect();
        let refs: Vec<&Batch> = dense_sources.iter().collect();
        let full: Vec<u32> = (0..refs.len() as u32)
            .filter(|&s| !refs[s as usize].is_empty())
            .collect();
        let pairs: Vec<(u32, u32)> = match full.is_empty() {
            true => Vec::new(),
            false => (0..rng.range_usize(0, 40))
                .map(|_| {
                    let s = *rng.pick(&full);
                    (s, rng.range_usize(0, refs[s as usize].len()) as u32)
                })
                .collect(),
        };
        let want: Vec<Row> = pairs
            .iter()
            .map(|&(s, i)| refs[s as usize].row(i as usize))
            .collect();
        let got = Batch::gather_multi(&refs, &pairs).unwrap();
        assert_copy(&got, &want, &types, &what("gather_multi"));
    }
}
