//! Randomized tests for the storage layer: ordered indexes must agree
//! with a naive model on scans, probes, and ranges, and the columnar heap
//! with the rows it was loaded from — through every cursor, at every
//! batch size and partitioning — across many deterministic random cases.
//! And the spill page decoders must turn any damaged record into an error.

use fto_common::DataType::{self, Bool, Date, Double, Int, Str};
use fto_common::{Batch, Column, Direction, Rng, Row, TableId, Value};
use fto_storage::{
    spill, HeapLoader, HeapScanState, HeapTable, IndexScanState, IoStats, OrderedIndex, PageCursor,
    SpillCursor, SpillFile,
};
use std::sync::Arc;

const CASES: u64 = 200;

fn load(types: &[DataType], width: usize, rows: impl IntoIterator<Item = Row>) -> HeapTable {
    let mut loader = HeapLoader::new(TableId(0), types, width);
    for row in rows {
        loader.push(row).unwrap();
    }
    loader.finish().unwrap()
}

/// Every column ordinal of `heap`, in order.
fn every(heap: &HeapTable) -> Vec<usize> {
    (0..heap.arity()).collect()
}

/// Columns `ordinals` of the rows `rids` names, as one batch.
fn gathered(heap: &HeapTable, rids: &[usize], ordinals: &[usize]) -> Batch {
    let cols = heap.gather_columns(rids, ordinals).unwrap();
    Batch::from_columns_with_len(cols.into_iter().map(Arc::new).collect(), rids.len()).unwrap()
}

fn int_rows(values: impl IntoIterator<Item = (i64, i64)>) -> impl Iterator<Item = Row> {
    values
        .into_iter()
        .map(|(a, b)| vec![Value::Int(a), Value::Int(b)].into_boxed_slice())
}

fn heap_from(values: &[(i64, i64)]) -> HeapTable {
    load(&[Int; 2], 16, int_rows(values.iter().copied()))
}

/// Key part `part` of every entry of `ix`, in index order.
fn key_part(ix: &OrderedIndex, part: usize) -> Vec<Value> {
    let col = &ix.keys()[part];
    (0..ix.len()).map(|pos| col.value(pos)).collect()
}

/// The row ids of the entries whose leading key part is within `[lo, hi]`.
fn range_rids(ix: &OrderedIndex, lo: Option<&Value>, hi: Option<&Value>) -> Vec<usize> {
    let (start, end) = ix.range_positions(lo, hi).unwrap();
    ix.rids()[start..end].to_vec()
}

/// The row ids an index nested-loop join fetches for a probe stream of
/// `Int` keys, each probe searching from the previous one's lower bound.
fn probe_stream(ix: &OrderedIndex, keys: impl IntoIterator<Item = i64>) -> Vec<Vec<usize>> {
    let keys: Vec<Value> = keys.into_iter().map(Value::Int).collect();
    let col = Column::from_typed_values(Int, keys.iter()).unwrap();
    let mut hint = 0;
    (0..keys.len())
        .map(|row| {
            let hits = ix.probe(&[&col], row, hint);
            hint = hits.start;
            ix.rids()[hits].to_vec()
        })
        .collect()
}

fn random_pairs(rng: &mut Rng, max_len: usize, lo: i64, hi: i64) -> Vec<(i64, i64)> {
    let n = rng.range_usize(0, max_len);
    (0..n)
        .map(|_| (rng.range_i64(lo, hi), rng.range_i64(-5, 5)))
        .collect()
}

/// A full index scan visits every row exactly once, in key order.
#[test]
fn scan_is_a_sorted_permutation() {
    let mut rng = Rng::new(0x5704_0001);
    for case in 0..CASES {
        let values = random_pairs(&mut rng, 60, -20, 20);
        let desc = rng.bool();
        let heap = heap_from(&values);
        let dir = if desc {
            Direction::Desc
        } else {
            Direction::Asc
        };
        let ix = OrderedIndex::build(&heap, &[0], &[dir]).unwrap();
        let scanned: Vec<i64> = key_part(&ix, 0)
            .iter()
            .map(|k| k.as_int().unwrap())
            .collect();
        let mut expected: Vec<i64> = values.iter().map(|&(a, _)| a).collect();
        expected.sort_unstable();
        if desc {
            expected.reverse();
        }
        assert_eq!(scanned, expected, "case {case}");
        // Row ids cover the heap exactly once.
        let mut rids = ix.rids().to_vec();
        rids.sort_unstable();
        assert_eq!(rids, (0..values.len()).collect::<Vec<_>>(), "case {case}");
    }
}

/// Probes return exactly the rows whose key equals the probe value.
#[test]
fn probe_matches_model() {
    let mut rng = Rng::new(0x5704_0002);
    for case in 0..CASES {
        let values = random_pairs(&mut rng, 60, -8, 8);
        let probe = rng.range_i64(-10, 10);
        let heap = heap_from(&values);
        let ix = OrderedIndex::build(&heap, &[0], &[Direction::Asc]).unwrap();
        let got = probe_stream(&ix, [probe]).remove(0);
        let want: Vec<usize> = values
            .iter()
            .enumerate()
            .filter(|(_, &(a, _))| a == probe)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, want, "case {case}: probe {probe} in {values:?}");
    }
}

/// Range scans return exactly the rows within [lo, hi], in order.
#[test]
fn range_matches_model() {
    let mut rng = Rng::new(0x5704_0003);
    for case in 0..CASES {
        let values = random_pairs(&mut rng, 60, -15, 15);
        let lo = rng.chance(0.7).then(|| rng.range_i64(-20, 20));
        let hi = rng.chance(0.7).then(|| rng.range_i64(-20, 20));
        let heap = heap_from(&values);
        let ix = OrderedIndex::build(&heap, &[0], &[Direction::Asc]).unwrap();
        let lo_v = lo.map(Value::Int);
        let hi_v = hi.map(Value::Int);
        let got: Vec<i64> = range_rids(&ix, lo_v.as_ref(), hi_v.as_ref())
            .iter()
            .map(|&rid| values[rid].0)
            .collect();
        let mut want: Vec<i64> = values
            .iter()
            .map(|&(a, _)| a)
            .filter(|&a| lo.is_none_or(|l| a >= l) && hi.is_none_or(|h| a <= h))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}: range [{lo:?}, {hi:?}]");
    }
}

/// Composite keys sort lexicographically with mixed directions.
#[test]
fn composite_mixed_directions() {
    let mut rng = Rng::new(0x5704_0004);
    for case in 0..CASES {
        let values = random_pairs(&mut rng, 40, -5, 5);
        let heap = heap_from(&values);
        let ix = OrderedIndex::build(&heap, &[0, 1], &[Direction::Asc, Direction::Desc]).unwrap();
        let keys: Vec<(i64, i64)> = ix.rids().iter().map(|&rid| values[rid]).collect();
        for w in keys.windows(2) {
            let ((a1, b1), (a2, b2)) = (w[0], w[1]);
            assert!(a1 < a2 || (a1 == a2 && b1 >= b2), "case {case}: {w:?}");
        }
    }
}

/// NULL keys sort last (nulls-high) and round-trip through probes.
#[test]
fn null_keys_sort_high() {
    let mut rng = Rng::new(0x5704_0005);
    for case in 0..CASES {
        let n_null = rng.range_usize(0, 5);
        let n_vals = rng.range_usize(0, 20);
        let values: Vec<i64> = (0..n_vals).map(|_| rng.range_i64(-5, 5)).collect();
        let keys = values.iter().map(|&v| Value::Int(v));
        let nulls = (0..n_null).map(|_| Value::Null);
        let h = load(
            &[Int; 2],
            16,
            keys.chain(nulls)
                .map(|k| vec![k, Value::Int(0)].into_boxed_slice()),
        );
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        let scanned = key_part(&ix, 0);
        // All NULLs at the end.
        let first_null = scanned.iter().position(Value::is_null);
        if let Some(p) = first_null {
            assert!(scanned[p..].iter().all(Value::is_null), "case {case}");
            assert_eq!(scanned.len() - p, n_null, "case {case}");
        } else {
            assert_eq!(n_null, 0, "case {case}");
        }
    }
}

/// The declared types of the tables [`typed_probe_equals_the_linear_filter`]
/// indexes.
const PROBE_TYPES: [DataType; 4] = [Double, Str, Date, Int];

/// A key of type `ty`, from a domain small enough that keys repeat: NULLs,
/// NaN and both zeros, strings that prefix each other, and doubles equal
/// to the `Int`s probed against them.
fn key_value(rng: &mut Rng, ty: DataType) -> Value {
    if rng.chance(0.15) {
        return Value::Null;
    }
    match ty {
        Double => Value::Double(*rng.pick(&[f64::NAN, -0.0, 0.0, 2.0, -1.5, 3.0, f64::INFINITY])),
        Str => Value::str(*rng.pick(&["", "a", "ab", "b"])),
        Date => Value::Date(rng.range_i32(-1, 3)),
        Int => Value::Int(rng.range_i64(-2, 4)),
        Bool => Value::Bool(rng.bool()),
    }
}

/// A typed probe returns exactly the entries a linear filter under
/// `Value::total_cmp` keeps — NULL equal to NULL, `Int(2)` to
/// `Double(2.0)`, `-0.0` to `0.0`, NaN to NaN — on ascending, descending
/// and mixed composite indexes, for every prefix of the key, probes
/// arriving in index order, in reverse and shuffled, an `Int` probe
/// column against a `Double` key part, and whatever position the search
/// starts from.
#[test]
fn typed_probe_equals_the_linear_filter() {
    let mut rng = Rng::new(0x5704_0020);
    let indexes: [&[usize]; 5] = [&[0], &[1, 0], &[2, 3, 1], &[3, 0], &[0, 1, 2, 3]];
    for case in 0..CASES {
        let n = rng.range_usize(0, 80);
        let rows: Vec<Row> = (0..n)
            .map(|_| PROBE_TYPES.map(|ty| key_value(&mut rng, ty)).into())
            .collect();
        let heap = load(&PROBE_TYPES, 40, rows.iter().cloned());
        let ordinals = indexes[case as usize % indexes.len()];
        let dirs: Vec<Direction> = ordinals
            .iter()
            .map(|_| *rng.pick(&[Direction::Asc, Direction::Desc]))
            .collect();
        let ix = OrderedIndex::build(&heap, ordinals, &dirs).unwrap();
        let at = format!("case {case}: index on {ordinals:?} {dirs:?}");

        // `key` against `probe` over the probe's parts, each in its
        // part's direction.
        let cmp = |key: &[Value], probe: &[Value]| {
            let mut parts = key.iter().zip(probe).zip(&dirs);
            parts
                .find_map(|((k, p), d)| Some(d.apply(k.total_cmp(p))).filter(|o| o.is_ne()))
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        let key_of =
            |rid: usize| -> Vec<Value> { ordinals.iter().map(|&o| rows[rid][o].clone()).collect() };
        // Entries sort by key, ties by row id, and the key columns hold
        // each entry's key exactly.
        for w in ix.rids().windows(2) {
            let ord = cmp(&key_of(w[0]), &key_of(w[1])).then(w[0].cmp(&w[1]));
            assert!(ord.is_lt(), "{at}: entries {w:?} out of order");
        }
        let stored: Vec<Row> = (0..ix.len())
            .map(|pos| ix.keys().iter().map(|c| c.value(pos)).collect())
            .collect();
        let entries: Vec<Row> = ix.rids().iter().map(|&rid| key_of(rid).into()).collect();
        assert_eq!(exact(&stored), exact(&entries), "{at}");

        for parts in 0..=ordinals.len() {
            // One probe column per leading part, of the part's type — or,
            // for a `Double` part, sometimes of `Int`.
            let types: Vec<DataType> = ordinals[..parts]
                .iter()
                .map(|&o| match PROBE_TYPES[o] {
                    Double if rng.bool() => Int,
                    ty => ty,
                })
                .collect();
            let mut probes: Vec<Vec<Value>> = (0..12)
                .map(|_| types.iter().map(|&ty| key_value(&mut rng, ty)).collect())
                .collect();
            probes.sort_by(|a, b| cmp(a, b));
            let mut shuffled = probes.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.range_usize(0, i + 1));
            }
            let descending = probes.iter().rev().cloned().collect();
            for (order, probes) in [
                ("ascending", probes),
                ("descending", descending),
                ("shuffled", shuffled),
            ] {
                let cols: Vec<Column> = types
                    .iter()
                    .enumerate()
                    .map(|(p, &ty)| Column::from_typed_values(ty, probes.iter().map(|k| &k[p])))
                    .collect::<fto_common::Result<_>>()
                    .unwrap();
                let cols: Vec<&Column> = cols.iter().collect();
                let mut previous = 0;
                for (row, probe) in probes.iter().enumerate() {
                    let want: Vec<usize> = ix
                        .rids()
                        .iter()
                        .copied()
                        .filter(|&rid| cmp(&key_of(rid), probe).is_eq())
                        .collect();
                    let hits = ix.probe(&cols, row, previous);
                    assert_eq!(
                        ix.rids()[hits.clone()],
                        want,
                        "{at}: {order} probe {probe:?}"
                    );
                    for hint in [0, ix.len() / 2, ix.len()] {
                        let other = ix.probe(&cols, row, hint);
                        assert_eq!(other, hits, "{at}: {order} probe {probe:?} from {hint}");
                    }
                    previous = hits.start;
                }
            }
        }
    }
}

/// Page geometry stays consistent for arbitrary row widths.
#[test]
fn page_geometry_invariants() {
    for width in [1usize, 7, 100, 4096, 9000] {
        let h = load(&[Int; 2], width, int_rows((0..50).map(|i| (i, 0))));
        assert!(h.rows_per_page() >= 1);
        assert_eq!(h.page_of(0), 0);
        assert!(h.page_of(49) < h.page_count());
        assert_eq!(
            h.page_count(),
            50u64.div_ceil(h.rows_per_page()),
            "width {width}"
        );
    }
}

/// The model that justifies the ordered nested-loop join: probing in
/// sorted order touches each heap page once; probing in scattered order
/// touches many more.
#[test]
fn ordered_probe_page_locality() {
    let n = 1000i64;
    let h = load(&[Int; 2], 400, int_rows((0..n).map(|i| (i, 0)))); // ~10 rows per page
    let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();

    let probe_sequences: [Box<dyn Fn(i64) -> i64>; 2] =
        [Box::new(|i| i), Box::new(|i| (i * 617) % 1000)];
    let mut costs = Vec::new();
    for seq in &probe_sequences {
        let mut io = IoStats::new();
        let mut cursor = PageCursor::new();
        for rids in probe_stream(&ix, (0..n).map(seq)) {
            for rid in rids {
                cursor.touch(h.page_of(rid), &mut io);
            }
        }
        costs.push(io.weighted_page_cost());
    }
    assert!(
        costs[0] * 5.0 < costs[1],
        "ordered {} vs scattered {}",
        costs[0],
        costs[1]
    );
}

// ---------------------------------------------------------------------
// The columnar heap against the rows it was loaded from
// ---------------------------------------------------------------------

/// `HeapTable`'s private chunk size. Nothing here depends on it for
/// correctness — only for *coverage*: the row counts below straddle it,
/// and `whole_chunk_pulls_share_the_heaps_columns` fails if it moves.
const CHUNK: usize = 1024;

const ROW_COUNTS: [usize; 6] = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7];

/// The declared types of [`random_table`]'s columns.
const TABLE_TYPES: [DataType; 5] = [Int, Str, Double, Date, Str];

/// Five columns of hazards: ints with NULLs; strings, some empty, some
/// prefixes of others, some NULL; doubles with NaN payloads and signed
/// zeros; dates; and a string column that is NULL throughout the second
/// chunk (so that chunk stores an all-NULL column — of strings).
fn random_table(rng: &mut Rng, n: usize) -> Vec<Row> {
    (0..n)
        .map(|rid| {
            let int = if rng.chance(0.2) {
                Value::Null
            } else {
                Value::Int(rng.range_i64(-50, 50))
            };
            let text = match rng.range_usize(0, 5) {
                0 => Value::Null,
                1 => Value::str(""),
                k => Value::str(&"abcd"[..k - 1]),
            };
            let double = match rng.range_usize(0, 6) {
                0 => Value::Double(f64::NAN),
                1 => Value::Double(f64::from_bits(f64::NAN.to_bits() | 7)),
                2 => Value::Double(0.0),
                3 => Value::Double(-0.0),
                4 => Value::Null,
                _ => Value::Double(rng.range_f64(-9.0, 9.0)),
            };
            let date = Value::Date(rng.range_i32(8000, 8100));
            let gap = if (CHUNK..2 * CHUNK).contains(&rid) {
                Value::Null
            } else {
                Value::str(rid.to_string())
            };
            vec![int, text, double, date, gap].into_boxed_slice()
        })
        .collect()
}

/// Bit-exact rendering (`Value`'s equality calls `-0.0` and `0.0`, and
/// every NaN, equal).
fn exact(rows: &[Row]) -> Vec<String> {
    let cell = |v: &Value| match v {
        Value::Double(d) => format!("Double({:#018x})", d.to_bits()),
        other => format!("{other:?}"),
    };
    rows.iter()
        .map(|r| r.iter().map(cell).collect::<Vec<_>>().join(","))
        .collect()
}

/// Runs `pull` to exhaustion, returning the rows it produced.
fn drain(batch_rows: usize, mut pull: impl FnMut() -> Batch) -> Vec<Row> {
    let mut out = Vec::new();
    loop {
        let batch = pull();
        let held: Vec<DataType> = batch.columns().iter().map(|c| c.data_type()).collect();
        assert_eq!(held, TABLE_TYPES, "every pull has the declared types");
        assert!(batch.len() <= batch_rows);
        if batch.is_empty() {
            return out;
        }
        batch.append_rows_to(&mut out);
    }
}

/// Heap scans return the loaded rows, in order, whatever the batch size
/// and however the heap is partitioned.
#[test]
fn heap_scans_return_the_loaded_rows() {
    let mut rng = Rng::new(0x5704_0010);
    for n in ROW_COUNTS {
        let rows = random_table(&mut rng, n);
        let heap = load(&TABLE_TYPES, 100, rows.iter().cloned());
        let want = exact(&rows);
        assert_eq!(exact(&heap.to_rows()), want, "n={n}");
        assert_eq!(heap.row_count(), n as u64);
        for batch_rows in [1, 7, CHUNK, 4 * CHUNK] {
            for parts in 1..=4 {
                let mut io = IoStats::new();
                let mut got = Vec::new();
                for part in 0..parts {
                    let mut scan = HeapScanState::partition(&heap, part, parts);
                    got.extend(drain(batch_rows, || {
                        scan.next_columns(&heap, &every(&heap), batch_rows, &mut io)
                            .unwrap()
                    }));
                    assert!(scan.exhausted(&heap));
                }
                let at = format!("n={n} batch={batch_rows} parts={parts}");
                assert_eq!(exact(&got), want, "{at}");
                assert_eq!(io.rows_read, n as u64, "{at}");
                assert_eq!(io.sequential_pages, (n as u64).div_ceil(40), "{at}");
                assert_eq!(io.random_pages, 0, "{at}");
            }
        }
    }
}

/// `gather_columns` is row selection: random, repeated, reversed and empty id
/// lists, within one chunk and across several.
#[test]
fn gather_is_row_selection() {
    let mut rng = Rng::new(0x5704_0011);
    for n in ROW_COUNTS {
        let rows = random_table(&mut rng, n);
        let heap = load(&TABLE_TYPES, 100, rows.iter().cloned());
        let mut lists: Vec<Vec<usize>> = vec![Vec::new(), (0..n).rev().collect()];
        if n > 0 {
            for len in [1, 5, 300] {
                let ids: Vec<usize> = (0..len).map(|_| rng.range_usize(0, n)).collect();
                let doubled = ids.iter().flat_map(|&r| [r, r]).collect();
                // All within the chunk of the first id.
                let lo = ids[0] / CHUNK * CHUNK;
                let local = ids
                    .iter()
                    .map(|_| rng.range_usize(lo, n.min(lo + CHUNK)))
                    .collect();
                lists.extend([ids, doubled, local]);
            }
        }
        for rids in lists {
            let want: Vec<Row> = rids.iter().map(|&r| rows[r].clone()).collect();
            let got = gathered(&heap, &rids, &every(&heap));
            assert_eq!(got.arity(), heap.arity());
            assert_eq!(exact(&got.to_rows()), exact(&want), "n={n} rids={rids:?}");
            // Any columns, in any order: the same rows restricted to them.
            let ordinals = [4, 0, 2];
            let narrow: Vec<Row> = want
                .iter()
                .map(|r| ordinals.iter().map(|&o| r[o].clone()).collect())
                .collect();
            let got = gathered(&heap, &rids, &ordinals);
            assert_eq!(exact(&got.to_rows()), exact(&narrow), "n={n} rids={rids:?}");
            for &rid in rids.iter().take(3) {
                assert_eq!(exact(&[heap.row(rid)]), exact(&[rows[rid].clone()]));
            }
        }
    }
}

/// A pull that covers exactly one stored chunk hands out the heap's own
/// columns; one that does not still returns the right rows (checked
/// above) but must copy.
#[test]
fn whole_chunk_pulls_share_the_heaps_columns() {
    let mut rng = Rng::new(0x5704_0012);
    let rows = random_table(&mut rng, 3 * CHUNK + 7);
    let heap = load(&TABLE_TYPES, 100, rows.iter().cloned());
    assert_eq!(heap.chunks().len(), 4);
    assert!(heap.chunks()[..3].iter().all(|c| c.len() == CHUNK));
    let mut io = IoStats::new();
    let mut scan = HeapScanState::new();
    for chunk in heap.chunks() {
        let pulled = scan
            .next_columns(&heap, &every(&heap), CHUNK, &mut io)
            .unwrap();
        for (got, stored) in pulled.columns().iter().zip(chunk.columns()) {
            assert!(Arc::ptr_eq(got, stored));
        }
    }
    assert!(scan.exhausted(&heap));

    let mut scan = HeapScanState::new();
    scan.next_columns(&heap, &every(&heap), 1, &mut io).unwrap();
    let shifted = scan
        .next_columns(&heap, &every(&heap), CHUNK, &mut io)
        .unwrap();
    assert_eq!(shifted.len(), CHUNK);
    assert!(!Arc::ptr_eq(shifted.column(0), heap.chunks()[0].column(0)));
}

/// Index scans fetch the rows their entries name, forward, reversed and
/// ranged, at every batch size.
#[test]
fn index_scans_return_the_indexed_rows() {
    let mut rng = Rng::new(0x5704_0013);
    for n in ROW_COUNTS {
        let rows = random_table(&mut rng, n);
        let heap = load(&TABLE_TYPES, 100, rows.iter().cloned());
        let ix = OrderedIndex::build(&heap, &[0, 4], &[Direction::Asc, Direction::Desc]).unwrap();
        let (lo, hi) = (Value::Int(-10), Value::Int(20));
        for (range, reverse) in [(false, false), (false, true), (true, false), (true, true)] {
            let (lo, hi) = if range {
                (Some(&lo), Some(&hi))
            } else {
                (None, None)
            };
            let mut rids = range_rids(&ix, lo, hi);
            if reverse {
                rids.reverse();
            }
            let want: Vec<Row> = rids.iter().map(|&r| rows[r].clone()).collect();
            for batch_rows in [1, 7, CHUNK, 4 * CHUNK] {
                let mut io = IoStats::new();
                let mut scan = IndexScanState::open(&ix, lo, hi, reverse).unwrap();
                let got = drain(batch_rows, || {
                    scan.next_columns(&ix, &heap, &every(&heap), batch_rows, &mut io)
                        .unwrap()
                });
                let at = format!("n={n} range={range} reverse={reverse} batch={batch_rows}");
                assert_eq!(exact(&got), exact(&want), "{at}");
                assert_eq!(io.rows_read, want.len() as u64, "{at}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Page accounting, pinned to the row-heap engine's numbers
// ---------------------------------------------------------------------

/// 3 079 two-column rows at 40 a page (77 pages, 13 index leaves). With
/// `scatter` the key order jumps around the heap (an unclustered index);
/// without, key order is heap order (a clustered one).
fn accounting_heap(scatter: bool) -> HeapTable {
    let n = (3 * CHUNK + 7) as i64;
    load(
        &[Int; 2],
        100,
        int_rows((0..n).map(|i| (if scatter { i * 617 % n } else { i }, i % 5))),
    )
}

fn io(counts: [u64; 4]) -> IoStats {
    let [sequential_pages, random_pages, index_pages, rows_read] = counts;
    IoStats {
        sequential_pages,
        random_pages,
        index_pages,
        rows_read,
        ..IoStats::new()
    }
}

/// Every cursor charges exactly what it charged when the heap was a
/// vector of rows: the literals were captured from that engine (the
/// parent commit) running this same function.
#[test]
fn io_stats_equal_the_row_heap_engines() {
    let mut got: Vec<(String, IoStats)> = Vec::new();
    for scatter in [false, true] {
        let heap = accounting_heap(scatter);
        let ix = OrderedIndex::build(&heap, &[0], &[Direction::Asc]).unwrap();
        let mut record = |what: &str, io: IoStats| {
            got.push((format!("{what} scatter={scatter}"), io));
        };

        let mut io = IoStats::new();
        let mut scan = HeapScanState::new();
        while !scan
            .next_columns(&heap, &every(&heap), 7, &mut io)
            .unwrap()
            .is_empty()
        {}
        record("full scan", io);

        // A LIMIT that stops pulling after three batches.
        let mut io = IoStats::new();
        let mut scan = HeapScanState::new();
        for _ in 0..3 {
            scan.next_columns(&heap, &every(&heap), 100, &mut io)
                .unwrap();
        }
        record("abandoned scan", io);

        let (lo, hi) = (Value::Int(500), Value::Int(1500));
        for (what, lo, hi, reverse, batch_rows) in [
            ("index scan", None, None, false, 57),
            ("reverse index scan", None, None, true, 64),
            ("ranged index scan", Some(&lo), Some(&hi), false, 128),
        ] {
            let mut io = IoStats::new();
            let mut scan = IndexScanState::open(&ix, lo, hi, reverse).unwrap();
            while !scan
                .next_columns(&ix, &heap, &every(&heap), batch_rows, &mut io)
                .unwrap()
                .is_empty()
            {}
            record(what, io);
        }

        // An index nested-loop join's probe stream: an outer of 600
        // keys (some absent, some repeated), one descent per key.
        let mut io = IoStats::new();
        let mut cursor = PageCursor::probing();
        let mut rids = Vec::new();
        for hits in probe_stream(&ix, (0..600).map(|i| i * 7 % 3200)) {
            io.index_pages += 1;
            for rid in hits {
                cursor.touch(heap.page_of(rid), &mut io);
                io.rows_read += 1;
                rids.push(rid);
            }
        }
        record("probe stream", io);
        let fetched = gathered(&heap, &rids, &every(&heap));
        assert_eq!(fetched.len(), rids.len());
        for (at, &rid) in rids.iter().enumerate().step_by(41) {
            assert_eq!(fetched.row(at), heap.row(rid));
        }
    }
    //                                   seq  rand  leaf  rows
    let want = [
        ("full scan scatter=false", [77, 0, 0, 3079]),
        ("abandoned scan scatter=false", [8, 0, 0, 300]),
        ("index scan scatter=false", [77, 0, 13, 3079]),
        ("reverse index scan scatter=false", [1, 76, 13, 3079]),
        ("ranged index scan scatter=false", [26, 0, 5, 1001]),
        ("probe stream scatter=false", [100, 2, 600, 582]),
        ("full scan scatter=true", [77, 0, 0, 3079]),
        ("abandoned scan scatter=true", [8, 0, 0, 300]),
        ("index scan scatter=true", [1, 3078, 13, 3079]),
        ("reverse index scan scatter=true", [1, 3078, 13, 3079]),
        ("ranged index scan scatter=true", [1, 1000, 5, 1001]),
        ("probe stream scatter=true", [0, 582, 600, 582]),
    ];
    assert_eq!(got.len(), want.len());
    for ((what, got), (want_what, want)) in got.iter().zip(want) {
        assert_eq!(what, want_what);
        assert_eq!(*got, io(want), "{what}");
    }
}

/// Spill records never leave the process, but the decoders are `pub` and
/// the join, group-by and sort read paths all trust them: every
/// truncation of a written record is an error, and flipping any one bit,
/// or inverting any one byte, yields an error or a well-formed batch —
/// never a panic, and never more rows than the record has bytes to back.
#[test]
fn damaged_spill_records_decode_to_errors_or_well_formed_batches() {
    let row = |vals: [Value; 6]| -> Row { vals.into_iter().collect() };
    // Columns: Int64, Float64, Utf8 (multi-byte characters, so offsets can
    // land inside one), Date32, Bool, and a second Utf8 that holds nothing
    // but NULLs wherever it holds anything.
    let plain = vec![
        row([
            Value::Int(7),
            Value::Double(-0.0),
            Value::str("añ\u{1F980}"),
            Value::Date(-3),
            Value::Bool(true),
            Value::str("x"),
        ]),
        row([
            Value::Int(i64::MIN),
            Value::Double(f64::NAN),
            Value::str(""),
            Value::Date(9000),
            Value::Bool(false),
            Value::str("é"),
        ]),
        row([
            Value::Int(3),
            Value::Double(2.5),
            Value::str("b"),
            Value::Date(1),
            Value::Bool(true),
            Value::str(""),
        ]),
    ];
    // The same columns with a NULL each — validity bitmaps — and the last
    // one NULL throughout: a string column with an empty payload.
    let mut nullable = plain.clone();
    nullable.push(row(std::array::from_fn(|_| Value::Null)));
    nullable.iter_mut().for_each(|r| r[5] = Value::Null);
    // 70 rows: a second validity word.
    let long: Vec<Row> = (0..70)
        .map(|i| match i % 9 {
            0 => row(std::array::from_fn(|_| Value::Null)),
            _ => plain[i % 3].clone(),
        })
        .collect();
    let types = [Int, Double, Str, Date, Bool, Str];
    let batches = [
        Batch::from_typed_rows(&types, &plain).unwrap(),
        Batch::from_typed_rows(&types, &nullable).unwrap(),
        Batch::from_typed_rows(&types, &long).unwrap(),
        Batch::empty(&types[..3]),
        Batch::empty(&[]),
    ];
    for (b, batch) in batches.iter().enumerate() {
        let mut rec = Vec::new();
        spill::write_batch(batch, &mut rec);
        let mut pos = 0;
        let back = spill::read_batch(&rec, &mut pos).unwrap();
        assert_eq!((pos, back.to_rows().len()), (rec.len(), batch.len()));
        for cut in 0..rec.len() {
            let got = spill::read_batch(&rec[..cut], &mut 0);
            assert!(got.is_err(), "batch {b} cut at {cut}: {got:?}");
        }
        for at in 0..rec.len() {
            for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                let mut bad = rec.clone();
                bad[at] ^= mask;
                let Ok(got) = spill::read_batch(&bad, &mut 0) else {
                    continue;
                };
                let case = format!("batch {b} byte {at} xor {mask:#04x}");
                // Bytes 0..4 are the row count; a flip anywhere else
                // cannot change it.
                assert!(at < 4 || got.len() == batch.len(), "{case}");
                assert!(got.columns().iter().all(|c| c.len() == got.len()), "{case}");
                // A batch without columns is its row count and nothing
                // else; with columns, every row is backed by record bytes,
                // every slot materializes, and the batch re-encodes.
                if got.arity() > 0 {
                    assert!(got.len() <= bad.len(), "{case}");
                    assert_eq!(got.to_rows().len(), got.len(), "{case}");
                    spill::write_batch(&got, &mut Vec::new());
                }
            }
        }
        // The same record behind its length frame, read back through a
        // cursor: an extent that ends inside the frame is an error (one
        // that ends before it is simply exhausted), and a flipped length
        // bit or inverted length byte either overruns the extent — an
        // error — or frames a strict prefix of the record, which decodes
        // like any other cut.
        let mut io = IoStats::new();
        let mut file = SpillFile::new();
        file.append_record(&rec, &mut io);
        let read = |file: &SpillFile, end: u64| {
            SpillCursor::new(0, end).read_record(file, &mut IoStats::new())
        };
        assert_eq!(read(&file, file.len()).unwrap(), Some(rec.clone()));
        assert_eq!(read(&file, 0).unwrap(), None);
        for cut in 1..file.len() {
            assert!(read(&file, cut).is_err(), "batch {b} frame cut at {cut}");
        }
        let bits = (0..32).map(|bit| 1u32 << bit);
        for mask in bits.chain((0..4).map(|byte| 0xFFu32 << (8 * byte))) {
            let mut bad = SpillFile::new();
            bad.append(&(rec.len() as u32 ^ mask).to_le_bytes(), &mut io);
            bad.append(&rec, &mut io);
            if let Ok(framed) = read(&bad, bad.len()) {
                let framed = framed.expect("the extent is not empty");
                let case = format!("batch {b} frame length xor {mask:#010x}");
                assert!(framed.len() < rec.len(), "{case}");
                assert_eq!(framed, rec[..framed.len()], "{case}");
                assert!(spill::read_batch(&framed, &mut 0).is_err(), "{case}");
            }
        }
    }
}
