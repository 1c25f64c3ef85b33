//! The query-level oracle: a naive, row-at-a-time evaluator of the query
//! graph the binder returns — before predicate pushdown, view merging and
//! the order scan, and with no physical plan at all. The engine's answers
//! are checked against this one, so a rewrite that changes a query's
//! meaning, an order claim an input does not keep, or an operator that
//! computes the wrong rows disagrees with it: the oracle shares no code
//! with the optimizer or the streaming executor.
//!
//! A box is evaluated where it stands in the graph, one arm per box kind:
//! its quantifiers' rows (a base table's through
//! [`HeapTable::to_rows`](fto_storage::HeapTable::to_rows), another box's
//! evaluated first), joined with the box's predicates applied, grouped by
//! `Value` equality with the [`Accumulator`](fto_expr::agg::Accumulator)s,
//! projected, then DISTINCT, ORDER BY (a stable sort on
//! [`Value::total_cmp`]) and LIMIT. The one shortcut: a quantifier that an
//! equality joins to the columns already bound is looked up through a
//! hash table on its side of the equality (NULL never matches) instead of
//! looped over.

use fto_common::{ColId, Direction, FtoError, Result, Row, Value};
use fto_expr::{AggCall, CompareOp, Expr, PredId, Predicate, RowLayout};
use fto_qgm::graph::{BoxId, BoxKind, OutputExpr, QgmBox, QuantifierInput};
use fto_qgm::QueryGraph;
use fto_storage::Database;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// The answer to the bound `graph` over `db`: the root box's rows, its
/// output columns in order.
pub(crate) fn answer(db: &Database, graph: &QueryGraph) -> Result<Vec<Row>> {
    eval_box(db, graph, graph.root)
}

fn eval_box(db: &Database, graph: &QueryGraph, id: BoxId) -> Result<Vec<Row>> {
    let b = graph.boxed(id);
    if b.kind != BoxKind::Select && !b.predicates.is_empty() {
        return Err(FtoError::internal(
            "the binder writes predicates on SELECT boxes only",
        ));
    }
    let inputs = b
        .quantifiers
        .iter()
        .map(|q| match q.input {
            QuantifierInput::Table(t) => Ok(db.heap(t)?.to_rows()),
            QuantifierInput::Box(child) => eval_box(db, graph, child),
        })
        .collect::<Result<Vec<_>>>()?;
    let visible: Vec<ColId> = b.quantifiers.iter().flat_map(|q| q.cols.clone()).collect();
    let visible = RowLayout::new(visible);
    let (rows, layout) = match &b.kind {
        BoxKind::Select => (
            join(graph, b, inputs, &visible, &b.predicates, false)?,
            visible,
        ),
        BoxKind::OuterJoin { on } => (join(graph, b, inputs, &visible, on, true)?, visible),
        BoxKind::Union => {
            let rows = inputs.into_iter().flatten().collect();
            (rows, RowLayout::new(b.output_cols()))
        }
        BoxKind::GroupBy { grouping } => {
            let rows: Vec<Row> = inputs.into_iter().flatten().collect();
            let aggs: Vec<(ColId, AggCall)> = b
                .output
                .iter()
                .filter_map(|o| match &o.expr {
                    OutputExpr::Agg(call) => Some((o.col, call.clone())),
                    OutputExpr::Scalar(_) => None,
                })
                .collect();
            let cols = grouping.iter().copied().chain(aggs.iter().map(|a| a.0));
            let layout = RowLayout::new(cols.collect::<Vec<_>>());
            (group_by(&rows, &visible, grouping, &aggs)?, layout)
        }
    };
    let project = |row: &Row| -> Result<Row> {
        let value = |expr: &OutputExpr, col| match expr {
            OutputExpr::Scalar(e) => e.eval(row, &layout),
            OutputExpr::Agg(_) => Expr::col(col).eval(row, &layout),
        };
        b.output.iter().map(|o| value(&o.expr, o.col)).collect()
    };
    finish(b, rows.iter().map(project).collect::<Result<_>>()?)
}

/// The quantifiers' rows joined as rows of `layout` (quantifier after
/// quantifier), `preds` applied. Each step binds the first quantifier that
/// an equality of `preds` joins to those bound — through a hash table on
/// its side — or else the first unbound one, and applies every predicate
/// whose columns are then all bound. With `outer` the box is a LEFT JOIN:
/// the first quantifier is bound first and `preds` is its ON clause, all
/// applied at the second, and a row of the first that no row of the second
/// passes with is kept, padded with NULLs.
fn join(
    graph: &QueryGraph,
    b: &QgmBox,
    inputs: Vec<Vec<Row>>,
    layout: &RowLayout,
    preds: &[PredId],
    outer: bool,
) -> Result<Vec<Row>> {
    let mut slots: Vec<Range<usize>> = Vec::new();
    for q in &b.quantifiers {
        let start = slots.last().map_or(0, |s| s.end);
        slots.push(start..start + q.cols.len());
    }
    let owner = |c: ColId| {
        let p = layout.position(c)?;
        slots.iter().position(|s| s.contains(&p))
    };
    // Each predicate with the quantifiers whose columns it reads.
    let mut pending: Vec<(PredId, Vec<usize>)> = preds
        .iter()
        .map(|&p| {
            let mut reads: Vec<usize> =
                graph.predicate(p).cols().iter().filter_map(owner).collect();
            reads.extend(outer.then_some(1));
            (p, reads)
        })
        .collect();
    let mut bound = vec![false; slots.len()];
    let mut rows: Vec<Vec<Value>> = vec![vec![Value::Null; layout.arity()]];
    for _ in 0..slots.len() {
        let keyed = (0..slots.len()).filter(|&q| !bound[q]).find_map(|q| {
            let key =
                |(p, _): &(PredId, _)| equi_key(graph.predicate(*p), layout, &slots, &bound, q);
            pending.iter().find_map(key).map(|key| (q, Some(key)))
        });
        let first = (0..slots.len()).find(|&q| !bound[q]).map(|q| (q, None));
        let Some((q, key)) = keyed.or(first) else {
            break;
        };
        bound[q] = true;
        let (ready, rest): (Vec<_>, Vec<_>) = pending
            .into_iter()
            .partition(|(_, reads)| reads.iter().all(|&r| bound[r]));
        pending = rest;
        let ready: Vec<PredId> = ready.into_iter().map(|(p, _)| p).collect();
        let every: Vec<&Row> = inputs[q].iter().collect();
        let mut table: HashMap<&Value, Vec<&Row>> = HashMap::new();
        if let Some((_, at)) = key {
            for row in inputs[q].iter().filter(|r| !r[at].is_null()) {
                table.entry(&row[at]).or_default().push(row);
            }
        }
        let mut joined = Vec::new();
        for partial in rows {
            let candidates = match key {
                Some((probe, _)) => table.get(&partial[probe]).map_or(&[][..], Vec::as_slice),
                None => every.as_slice(),
            };
            let mut matched = false;
            for candidate in candidates {
                let mut row = partial.clone();
                row[slots[q].clone()].clone_from_slice(&candidate[..]);
                if passes(graph, &ready, &row, layout)? {
                    joined.push(row);
                    matched = true;
                }
            }
            if outer && q == 1 && !matched {
                joined.push(partial);
            }
        }
        rows = joined;
    }
    Ok(rows.into_iter().map(Vec::into_boxed_slice).collect())
}

/// `(position of the bound column, position in quantifier q's rows)` when
/// `pred` equates a column of a bound quantifier with one of `q`.
fn equi_key(
    pred: &Predicate,
    layout: &RowLayout,
    slots: &[Range<usize>],
    bound: &[bool],
    q: usize,
) -> Option<(usize, usize)> {
    let (Expr::Col(a), Expr::Col(b), CompareOp::Eq) = (&pred.left, &pred.right, pred.op) else {
        return None;
    };
    let (a, b) = (layout.position(*a)?, layout.position(*b)?);
    let side = |p: usize| slots.iter().position(|s| s.contains(&p));
    match (side(a)?, side(b)?) {
        (sa, sb) if bound[sa] && sb == q => Some((a, b - slots[q].start)),
        (sa, sb) if bound[sb] && sa == q => Some((b, a - slots[q].start)),
        _ => None,
    }
}

fn passes(graph: &QueryGraph, preds: &[PredId], row: &[Value], layout: &RowLayout) -> Result<bool> {
    for &p in preds {
        if !graph.predicate(p).eval(row, layout)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// A box's output rows after its DISTINCT (the first of equal rows
/// stays), ORDER BY and LIMIT.
fn finish(b: &QgmBox, mut rows: Vec<Row>) -> Result<Vec<Row>> {
    if b.distinct {
        let mut seen = HashSet::new();
        rows.retain(|row| seen.insert(row.clone()));
    }
    if let Some(order) = &b.output_order {
        let position = |col| b.output.iter().position(|o| o.col == col);
        let keys = order
            .keys()
            .iter()
            .map(|k| {
                let missing =
                    || FtoError::internal(format!("ORDER BY column {} not output", k.col));
                Ok((position(k.col).ok_or_else(missing)?, k.dir))
            })
            .collect::<Result<Vec<_>>>()?;
        sort_rows(&mut rows, &keys);
    }
    if let Some(n) = b.limit {
        rows.truncate(n as usize);
    }
    Ok(rows)
}

/// Stably sorts `rows` by `keys` — (position, direction) per key column,
/// compared by [`Value::total_cmp`], NULLs high — so rows whose keys tie
/// keep their input order: the oracle's ORDER BY, and the reference the
/// executor's sort kernel is tested against.
pub(crate) fn sort_rows(rows: &mut [Row], keys: &[(usize, Direction)]) {
    rows.sort_by(|a, b| {
        keys.iter().fold(Ordering::Equal, |ord, &(p, dir)| {
            ord.then_with(|| dir.apply(a[p].total_cmp(&b[p])))
        })
    });
}

/// Groups `rows` (of `layout`) by `Value` equality of their `grouping`
/// columns, in first-seen order: one row per group, its grouping values
/// (the group's first row's) and then each aggregate's result.
pub(crate) fn group_by(
    rows: &[Row],
    layout: &RowLayout,
    grouping: &[ColId],
    aggs: &[(ColId, AggCall)],
) -> Result<Vec<Row>> {
    let gpos = grouping
        .iter()
        .map(|&c| {
            let missing = || FtoError::internal(format!("grouping column {c} missing from layout"));
            layout.position(c).ok_or_else(missing)
        })
        .collect::<Result<Vec<_>>>()?;
    // A global aggregate (no grouping columns) over an empty input still
    // produces one row (COUNT(*) = 0, SUM = NULL), per SQL.
    if rows.is_empty() && grouping.is_empty() {
        let accs: Vec<_> = aggs.iter().map(|(_, c)| c.accumulator()).collect();
        return Ok(vec![accs.iter().map(|a| a.finish()).collect()]);
    }
    let mut groups: Vec<(Vec<Value>, Vec<fto_expr::agg::Accumulator>)> = Vec::new();
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    for row in rows {
        let key: Vec<Value> = gpos.iter().map(|&p| row[p].clone()).collect();
        let slot = *index.entry(key.clone()).or_insert_with(|| {
            groups.push((key, aggs.iter().map(|(_, c)| c.accumulator()).collect()));
            groups.len() - 1
        });
        for (acc, (_, call)) in groups[slot].1.iter_mut().zip(aggs) {
            acc.update(call, row, layout)?;
        }
    }
    Ok(groups
        .into_iter()
        .map(|(mut row, accs)| {
            row.extend(accs.iter().map(|a| a.finish()));
            row.into_boxed_slice()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use fto_catalog::{Catalog, ColumnDef, KeyDef};
    use fto_common::{DataType, TableId};
    use fto_expr::AggFunc;
    use fto_planner::OptimizerConfig;

    /// `a(x, y)`: x = 0..50 (the key), y = x % 7. `b(x, z)`: two rows per
    /// x = 0..50, z = 0..100, indexed on x. `n(k, v)`: a join and
    /// grouping key with NULLs, v = 0..6.
    fn db() -> Database {
        let mut cat = Catalog::new();
        let int = |name| ColumnDef::new(name, DataType::Int);
        let a = cat
            .create_table("a", vec![int("x"), int("y")], vec![KeyDef::primary([0])])
            .unwrap();
        let b = cat
            .create_table("b", vec![int("x"), int("z")], vec![])
            .unwrap();
        cat.create_index("b_x", b, vec![(0, Direction::Asc)], false, true)
            .unwrap();
        let n = cat
            .create_table("n", vec![int("k"), int("v")], vec![])
            .unwrap();
        let mut db = Database::new(cat);
        let rows = |n: i64, row: &dyn Fn(i64) -> [Value; 2]| -> Vec<Row> {
            (0..n).map(|i| row(i).to_vec().into_boxed_slice()).collect()
        };
        db.load_table(a, rows(50, &|i| [Value::Int(i), Value::Int(i % 7)]))
            .unwrap();
        db.load_table(b, rows(100, &|i| [Value::Int(i / 2), Value::Int(i)]))
            .unwrap();
        let keys = [None, Some(1), Some(1), Some(2), None, Some(3)];
        let key = |i: i64| keys[i as usize].map_or(Value::Null, Value::Int);
        db.load_table(n, rows(6, &|i| [key(i), Value::Int(i)]))
            .unwrap();
        db
    }

    /// The oracle's answer to `sql` over `db`.
    fn oracle(db: &Database, sql: &str) -> Vec<Row> {
        let graph = fto_sql::bind(&fto_sql::parse_query(sql).unwrap(), db.catalog()).unwrap();
        answer(db, &graph).unwrap()
    }

    fn ints(rows: &[Row]) -> Vec<Vec<Option<i64>>> {
        let int = |v: &Value| v.as_int();
        rows.iter().map(|r| r.iter().map(int).collect()).collect()
    }

    /// select a.x, a.y, b.z from a, b where a.x = b.x and a.y = 3
    /// order by a.x, computed by hand: a-major, b in heap order.
    fn reference() -> Vec<Row> {
        let mut out: Vec<Row> = Vec::new();
        for x in (0..50).filter(|x| x % 7 == 3) {
            for z in [2 * x, 2 * x + 1] {
                out.push([x, 3, z].map(Value::Int).to_vec().into_boxed_slice());
            }
        }
        out
    }

    const JOIN: &str = "select a.x, a.y, b.z from a, b where a.x = b.x and a.y = 3 order by a.x";

    #[test]
    fn join_query_matches_reference_all_configs() {
        // The oracle and the engine under every configuration against the
        // hand-computed answer.
        let db = db();
        let expected = reference();
        assert!(!expected.is_empty());
        assert_eq!(oracle(&db, JOIN), expected);
        for config in [
            OptimizerConfig::default(),
            OptimizerConfig::disabled(),
            OptimizerConfig::default().with_hash_join(false),
            OptimizerConfig::default()
                .with_merge_join(false)
                .with_hash_join(false),
            OptimizerConfig::default().with_nested_loop(false),
            OptimizerConfig::default().with_sort_ahead(false),
        ] {
            let q = Session::new(&db).config(config.clone()).plan(JOIN).unwrap();
            assert_eq!(q.execute().unwrap().rows(), expected, "config {config:?}");
            assert_eq!(q.execute_materialized().unwrap().rows(), expected);
        }
    }

    #[test]
    fn merge_join_handles_duplicate_keys() {
        // b has two rows per x; a ⋈ b on x produces 2 rows per matching a
        // row. Force the merge join.
        let db = db();
        let config = OptimizerConfig::default()
            .with_hash_join(false)
            .with_nested_loop(false);
        let q = Session::new(&db).config(config).plan(JOIN).unwrap();
        assert!(q.explain().contains("merge-join"), "{}", q.explain());
        assert_eq!(q.execute().unwrap().rows(), reference());
    }

    #[test]
    fn group_by_executes() {
        let db = db();
        let sql = "select y, count(1) as cnt, sum(x) as sm from a group by y order by y";
        let rows = ints(&oracle(&db, sql));
        // y in 0..7, 50 rows: groups of 8 or 7, in y order.
        let want: Vec<Vec<Option<i64>>> = (0..7)
            .map(|y| {
                let xs: Vec<i64> = (0..50).filter(|x| x % 7 == y).collect();
                vec![Some(y), Some(xs.len() as i64), Some(xs.iter().sum())]
            })
            .collect();
        assert_eq!(rows, want);
    }

    #[test]
    fn table_scan_returns_every_row() {
        let db = db();
        let heap = db.heap(TableId(0)).unwrap().to_rows();
        assert_eq!(heap.len(), 50);
        assert_eq!(oracle(&db, "select * from a"), heap);
    }

    #[test]
    fn null_join_keys_never_match() {
        // n's keys are NULL, 1, 1, 2, NULL, 3: the self-join pairs the two
        // 1s with each other and themselves, 2 and 3 with themselves.
        let db = db();
        let sql = "select p.v, q.v from n p, n q where p.k = q.k";
        let got = ints(&oracle(&db, sql));
        let want = [[1, 1], [1, 2], [2, 1], [2, 2], [3, 3], [5, 5]];
        let want: Vec<Vec<Option<i64>>> = want.iter().map(|r| r.map(Some).to_vec()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_null_grouping_key_forms_one_group() {
        let db = db();
        let sql = "select k, count(*) as c, sum(v) as s from n group by k";
        let got = ints(&oracle(&db, sql));
        let want = [[None, Some(2), Some(4)], [Some(1), Some(2), Some(3)]];
        assert_eq!(got[..2], want.map(|r| r.to_vec()));
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn int_and_double_of_one_value_are_one_group_and_one_distinct_row() {
        let layout = RowLayout::new(vec![ColId(0), ColId(1)]);
        let row = |k: Value, v: i64| vec![k, Value::Int(v)].into_boxed_slice();
        let rows = vec![
            row(Value::Int(5), 1),
            row(Value::Double(5.0), 2),
            row(Value::Double(-0.0), 4),
            row(Value::Int(0), 8),
        ];
        let count = AggCall::new(AggFunc::Sum, Expr::col(ColId(1)));
        let groups = group_by(&rows, &layout, &[ColId(0)], &[(ColId(2), count)]).unwrap();
        let want: Vec<Row> = vec![row(Value::Int(5), 3), row(Value::Double(-0.0), 12)];
        assert_eq!(groups, want);
        assert_eq!(
            groups[1][0].data_type(),
            Some(DataType::Double),
            "first seen"
        );
        // DISTINCT keeps the first of equal rows.
        let mut graph = QueryGraph::new();
        let distinct = graph.add_box(BoxKind::Select);
        graph.boxed_mut(distinct).distinct = true;
        let keys = rows
            .iter()
            .map(|r| vec![r[0].clone()].into_boxed_slice())
            .collect();
        let got = finish(graph.boxed(distinct), keys).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0][0].data_type(), Some(DataType::Int));
    }

    #[test]
    fn a_global_aggregate_over_empty_input_is_one_row() {
        let db = db();
        let sql = "select count(*) as c, sum(x) as s, min(y) as m from a where x < 0";
        let want: Vec<Row> = vec![vec![Value::Int(0), Value::Null, Value::Null].into()];
        assert_eq!(oracle(&db, sql), want);
    }

    #[test]
    fn a_left_join_pads_unmatched_rows() {
        // ON b.z < 10 matches x = 0..4 twice each; x = 5..49 are padded.
        let db = db();
        let sql = "select a.x, b.z from a left join b on a.x = b.x and b.z < 10 order by a.x";
        let got = ints(&oracle(&db, sql));
        assert_eq!(got.len(), 5 * 2 + 45);
        assert_eq!(
            got[..3],
            [[Some(0), Some(0)], [Some(0), Some(1)], [Some(1), Some(2)]]
        );
        assert!(got[10..].iter().all(|r| r[1].is_none()));
        // An ON conjunct on the preserved side only leaves rows unmatched.
        let sql = "select a.x, b.z from a left join b on a.x = b.x and a.x < 0";
        let got = ints(&oracle(&db, sql));
        assert_eq!(got.len(), 50);
        assert!(got.iter().all(|r| r[1].is_none()));
    }

    #[test]
    fn a_where_conjunct_after_an_outer_join_removes_padded_rows() {
        // The same conjunct in WHERE rather than ON: the padded rows'
        // NULL z fails it, so only the 10 matched rows remain.
        let db = db();
        let sql = "select a.x, b.z from a left join b on a.x = b.x where b.z < 10 order by a.x";
        let got = ints(&oracle(&db, sql));
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|r| r[1].is_some_and(|z| z < 10)));
    }
}
