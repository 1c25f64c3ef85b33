//! The recursive, fully materializing plan interpreter.
//!
//! This is the original engine: every operator computes its complete
//! output before the parent sees a row. It is kept as the *reference*
//! implementation — the differential tests execute every query through
//! both this interpreter and the streaming executor in [`crate::stream`]
//! and require identical rows. It checks rows, not pages: it keeps no
//! I/O accounting of its own. New code should go through
//! [`crate::Session`], which uses the streaming engine.

use crate::sortkernel;
use fto_common::{FtoError, Result, Row, Value};
use fto_expr::{AggCall, RowLayout};
use fto_planner::{JoinKind, Plan, PlanNode, ScanRange};
use fto_qgm::QueryGraph;
use fto_storage::Database;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The result of executing a plan.
#[derive(Debug)]
pub struct QueryResult {
    /// Output rows, in the plan's output layout and order.
    pub rows: Vec<Row>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

/// Executes a plan to completion with the materializing interpreter.
///
/// Prefer [`crate::PreparedQuery::execute`] (streaming); this entry point
/// exists as the reference engine for differential testing and for
/// measuring the cost of full materialization.
pub fn run_plan_materialized(
    db: &Database,
    graph: &QueryGraph,
    plan: &Plan,
) -> Result<QueryResult> {
    let start = Instant::now();
    let rows = exec(db, graph, plan)?;
    Ok(QueryResult {
        rows,
        elapsed: start.elapsed(),
    })
}

fn exec(db: &Database, graph: &QueryGraph, plan: &Plan) -> Result<Vec<Row>> {
    match &plan.node {
        PlanNode::TableScan { table, .. } => Ok(db.heap(*table)?.to_rows()),
        PlanNode::IndexScan {
            index,
            table,
            range,
            reverse,
            ..
        } => {
            let heap = db.heap(*table)?;
            let ix = db.index(*index)?;
            let mut rids: Vec<usize> = match range {
                Some(ScanRange { lo, hi }) => {
                    ix.range(lo.as_ref(), hi.as_ref()).map(|(_, r)| r).collect()
                }
                None => ix.scan().map(|(_, r)| r).collect(),
            };
            if *reverse {
                rids.reverse();
            }
            Ok(rids.into_iter().map(|rid| heap.row(rid)).collect())
        }
        PlanNode::Filter { input, predicates } => {
            let rows = exec(db, graph, input)?;
            let layout = &input.layout;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                if eval_preds(graph, predicates, &row, layout)? {
                    out.push(row);
                }
            }
            Ok(out)
        }
        PlanNode::Project { input, exprs } => {
            let rows = exec(db, graph, input)?;
            let layout = &input.layout;
            rows.iter()
                .map(|row| {
                    exprs
                        .iter()
                        .map(|(_, e)| e.eval(row, layout))
                        .collect::<Result<Row>>()
                })
                .collect()
        }
        PlanNode::Sort {
            input, spec, limit, ..
        } => {
            // The reference engine ignores the prefix split: a stable full
            // sort is definitionally what a segmented sort must reproduce,
            // and its first n rows what a top-n must, so the interpreter
            // *is* the oracle for both.
            let mut rows = exec(db, graph, input)?;
            let keys = sortkernel::resolve_keys(spec, &input.layout)?;
            match limit {
                None => sortkernel::sort_rows(&mut rows, &keys),
                Some(n) => rows = sortkernel::top_n(rows, &keys, *n as usize),
            }
            Ok(rows)
        }
        PlanNode::IndexNestedLoopJoin {
            outer,
            table,
            index,
            probe_cols,
            predicates,
            ..
        } => {
            let outer_rows = exec(db, graph, outer)?;
            let heap = db.heap(*table)?;
            let ix = db.index(*index)?;
            let layout = &plan.layout;
            let olayout = &outer.layout;
            let mut out = Vec::new();
            let probe_positions: Vec<usize> = probe_cols
                .iter()
                .map(|&c| {
                    olayout.position(c).ok_or_else(|| {
                        FtoError::internal(format!("probe column {c} missing from outer"))
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            for orow in &outer_rows {
                let key: Vec<Value> = probe_positions.iter().map(|&p| orow[p].clone()).collect();
                for (_, rid) in ix.probe(&key) {
                    let joined = concat(orow, &heap.row(*rid));
                    if eval_preds(graph, predicates, &joined, layout)? {
                        out.push(joined);
                    }
                }
            }
            Ok(out)
        }
        PlanNode::Join {
            kind,
            outer,
            inner,
            outer_keys,
            inner_keys,
            predicates,
            ..
        } => {
            // The reference engine ignores the satisfied prefix: the join
            // by definition is what a merge join must reproduce, whatever
            // order its inputs claim.
            let outer_rows = exec(db, graph, outer)?;
            let inner_rows = exec(db, graph, inner)?;
            let ipos = positions(&inner.layout, inner_keys)?;
            let opos = positions(&outer.layout, outer_keys)?;
            // A row's join key, or none when a key column is NULL: NULL
            // never joins. A keyless join gives every row the empty key,
            // so each outer row's candidates are the whole inner side.
            let key = |row: &Row, pos: &[usize]| {
                let key: Vec<Value> = pos.iter().map(|&p| row[p].clone()).collect();
                (!key.iter().any(Value::is_null)).then_some(key)
            };
            let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
            for irow in &inner_rows {
                if let Some(key) = key(irow, &ipos) {
                    table.entry(key).or_default().push(irow);
                }
            }
            let null_pad: Row = vec![Value::Null; inner.layout.arity()].into();
            let mut out = Vec::new();
            for orow in &outer_rows {
                let candidates = key(orow, &opos).and_then(|key| table.get(&key));
                let mut matched = false;
                for irow in candidates.into_iter().flatten() {
                    let joined = concat(orow, irow);
                    if eval_preds(graph, predicates, &joined, &plan.layout)? {
                        out.push(joined);
                        matched = true;
                    }
                }
                if !matched && *kind == JoinKind::LeftOuter {
                    out.push(concat(orow, &null_pad));
                }
            }
            Ok(out)
        }
        PlanNode::GroupBy {
            input,
            grouping,
            aggs,
            ..
        } => {
            // Whatever prefix the input claims to satisfy: on input whose
            // groups are contiguous, first-seen order is the stream order.
            let rows = exec(db, graph, input)?;
            group_by(&rows, &input.layout, grouping, aggs)
        }
        PlanNode::UnionAll { inputs } => {
            let mut out = Vec::new();
            for input in inputs {
                out.extend(exec(db, graph, input)?);
            }
            Ok(out)
        }
        PlanNode::Limit { input, n } => {
            let mut rows = exec(db, graph, input)?;
            rows.truncate(*n as usize);
            Ok(rows)
        }
    }
}

pub(crate) fn positions(layout: &RowLayout, cols: &[fto_common::ColId]) -> Result<Vec<usize>> {
    cols.iter()
        .map(|&c| {
            layout
                .position(c)
                .ok_or_else(|| FtoError::internal(format!("column {c} missing from layout")))
        })
        .collect()
}

fn eval_preds(
    graph: &QueryGraph,
    preds: &[fto_expr::PredId],
    row: &Row,
    layout: &RowLayout,
) -> Result<bool> {
    for &pid in preds {
        if !graph.predicate(pid).eval(row, layout)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn concat(a: &Row, b: &Row) -> Row {
    a.iter().chain(b.iter()).cloned().collect()
}

pub(crate) fn group_by(
    rows: &[Row],
    layout: &RowLayout,
    grouping: &[fto_common::ColId],
    aggs: &[(fto_common::ColId, AggCall)],
) -> Result<Vec<Row>> {
    let gpos = positions(layout, grouping)?;
    // A global aggregate (no grouping columns) over an empty input still
    // produces one row (COUNT(*) = 0, SUM = NULL), per SQL.
    if rows.is_empty() && grouping.is_empty() {
        let accs: Vec<_> = aggs.iter().map(|(_, c)| c.accumulator()).collect();
        let row: Vec<Value> = accs.iter().map(|a| a.finish()).collect();
        return Ok(vec![row.into_boxed_slice()]);
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
        .map(|(key, accs)| {
            let mut row: Vec<Value> = key;
            row.extend(accs.iter().map(|a| a.finish()));
            row.into_boxed_slice()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_catalog::{Catalog, ColumnDef, KeyDef};
    use fto_common::{DataType, Direction};
    use fto_expr::{CompareOp, Expr, Predicate};
    use fto_order::OrderSpec;
    use fto_planner::{OptimizerConfig, Planner};
    use fto_qgm::graph::{BoxKind, OutputCol, OutputExpr};
    use fto_qgm::OrderScan;

    fn db_two_tables() -> Database {
        let mut cat = Catalog::new();
        let a = cat
            .create_table(
                "a",
                vec![
                    ColumnDef::new("x", DataType::Int),
                    ColumnDef::new("y", DataType::Int),
                ],
                vec![KeyDef::primary([0])],
            )
            .unwrap();
        let b = cat
            .create_table(
                "b",
                vec![
                    ColumnDef::new("x", DataType::Int),
                    ColumnDef::new("z", DataType::Int),
                ],
                vec![],
            )
            .unwrap();
        cat.create_index("b_x", b, vec![(0, Direction::Asc)], false, true)
            .unwrap();
        let mut db = Database::new(cat);
        db.load_table(
            a,
            (0..50)
                .map(|i| vec![Value::Int(i), Value::Int(i % 7)].into_boxed_slice())
                .collect(),
        )
        .unwrap();
        db.load_table(
            b,
            (0..100)
                .map(|i| vec![Value::Int(i / 2), Value::Int(i)].into_boxed_slice())
                .collect(),
        )
        .unwrap();
        db
    }

    /// select a.x, a.y, b.z from a, b where a.x = b.x and a.y = 3
    /// order by a.x — planned and executed; results must match a naive
    /// nested-loop reference for EVERY optimizer configuration.
    fn plan_and_run(db: &Database, config: OptimizerConfig) -> Vec<Row> {
        let cat = db.catalog();
        let mut g = fto_qgm::QueryGraph::new();
        let sel = g.add_box(BoxKind::Select);
        g.add_table_quantifier(sel, cat.table_by_name("a").unwrap());
        g.add_table_quantifier(sel, cat.table_by_name("b").unwrap());
        let ac = g.boxed(sel).quantifiers[0].cols.clone();
        let bc = g.boxed(sel).quantifiers[1].cols.clone();
        for pred in [
            Predicate::col_eq_col(ac[0], bc[0]),
            Predicate::new(CompareOp::Eq, Expr::col(ac[1]), Expr::int(3)),
        ] {
            let pid = g.add_predicate(pred);
            g.boxed_mut(sel).predicates.push(pid);
        }
        g.boxed_mut(sel).output = vec![
            OutputCol::passthrough(ac[0]),
            OutputCol::passthrough(ac[1]),
            OutputCol::passthrough(bc[1]),
        ];
        g.boxed_mut(sel).output_order = Some(OrderSpec::ascending([ac[0]]));
        g.root = sel;
        OrderScan::run(&mut g, cat);
        let mut planner = Planner::new(&g, cat, config);
        let plan = planner.plan_query().unwrap();
        let result = run_plan_materialized(db, &g, &plan).unwrap();
        result.rows
    }

    fn reference(db: &Database) -> Vec<Row> {
        let a = db.heap(fto_common::TableId(0)).unwrap().to_rows();
        let b = db.heap(fto_common::TableId(1)).unwrap().to_rows();
        let mut out: Vec<Row> = Vec::new();
        for ar in &a {
            if ar[1] != Value::Int(3) {
                continue;
            }
            for br in &b {
                if ar[0] == br[0] {
                    out.push(vec![ar[0].clone(), ar[1].clone(), br[1].clone()].into_boxed_slice());
                }
            }
        }
        out.sort_by(|x, y| x[0].total_cmp(&y[0]));
        out
    }

    #[test]
    fn join_query_matches_reference_all_configs() {
        let db = db_two_tables();
        let expected = reference(&db);
        assert!(!expected.is_empty());
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
            let got = plan_and_run(&db, config.clone());
            assert_eq!(got, expected, "config {config:?}");
        }
    }

    #[test]
    fn group_by_executes() {
        let db = db_two_tables();
        let cat = db.catalog();
        // select y, count(1), sum(x) from a group by y
        let mut g = fto_qgm::QueryGraph::new();
        let sel = g.add_box(BoxKind::Select);
        g.add_table_quantifier(sel, cat.table_by_name("a").unwrap());
        let ac = g.boxed(sel).quantifiers[0].cols.clone();
        g.boxed_mut(sel).output = ac.iter().map(|&c| OutputCol::passthrough(c)).collect();
        let gb = g.add_box(BoxKind::GroupBy {
            grouping: vec![ac[1]],
        });
        g.add_box_quantifier(gb, sel);
        let cnt = g.fresh_derived(gb, "cnt", DataType::Int);
        let sm = g.fresh_derived(gb, "sm", DataType::Int);
        g.boxed_mut(gb).output = vec![
            OutputCol::passthrough(ac[1]),
            OutputCol {
                col: cnt,
                expr: OutputExpr::Agg(AggCall::new(fto_expr::AggFunc::Count, Expr::int(1))),
            },
            OutputCol {
                col: sm,
                expr: OutputExpr::Agg(AggCall::new(fto_expr::AggFunc::Sum, Expr::col(ac[0]))),
            },
        ];
        g.boxed_mut(gb).output_order = Some(OrderSpec::ascending([ac[1]]));
        g.root = gb;
        OrderScan::run(&mut g, cat);
        let mut planner = Planner::new(&g, cat, OptimizerConfig::default());
        let plan = planner.plan_query().unwrap();
        let result = run_plan_materialized(&db, &g, &plan).unwrap();
        // y in 0..7, 50 rows: groups of 8 or 7.
        assert_eq!(result.rows.len(), 7);
        let total: i64 = result.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
        assert_eq!(total, 50);
        let sum_total: i64 = result.rows.iter().map(|r| r[2].as_int().unwrap()).sum();
        assert_eq!(sum_total, (0..50).sum::<i64>());
        // Ordered by y.
        let ys: Vec<i64> = result.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut sorted = ys.clone();
        sorted.sort_unstable();
        assert_eq!(ys, sorted);
    }

    #[test]
    fn merge_join_handles_duplicate_keys() {
        // b has two rows per x; join a ⋈ b on x must produce 2 rows per
        // matching a row. Force merge join.
        let db = db_two_tables();
        let expected = reference(&db);
        let got = plan_and_run(
            &db,
            OptimizerConfig::default()
                .with_hash_join(false)
                .with_nested_loop(false),
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn table_scan_returns_every_row() {
        let db = db_two_tables();
        let cat = db.catalog();
        let mut g = fto_qgm::QueryGraph::new();
        let sel = g.add_box(BoxKind::Select);
        g.add_table_quantifier(sel, cat.table_by_name("a").unwrap());
        let ac = g.boxed(sel).quantifiers[0].cols.clone();
        g.boxed_mut(sel).output = ac.iter().map(|&c| OutputCol::passthrough(c)).collect();
        g.root = sel;
        OrderScan::run(&mut g, cat);
        let mut planner = Planner::new(&g, cat, OptimizerConfig::default());
        let plan = planner.plan_query().unwrap();
        let result = run_plan_materialized(&db, &g, &plan).unwrap();
        assert_eq!(result.rows.len(), 50);
    }

    use fto_expr::AggCall;
}
