//! Left-deep join enumeration with interesting orders and sort-ahead
//! (paper §5.2).
//!
//! Dynamic programming over quantifier subsets. Each subset keeps a
//! *Pareto set* of plans: two join subtrees over the same tables but with
//! different order properties are **not** compared against each other
//! (paper §5.2 — the very source of the O(n²) enumeration growth measured
//! by the complexity bench). For every subset the planner additionally
//! offers one sorted variant per interesting order hung off the box by the
//! order scan: the sort over whichever of the subset's new plans makes
//! input plus sort cheapest, priced over all of them before one is built.
//! This is *sort-ahead*, letting the sort for an ORDER BY or GROUP BY sink
//! an arbitrary number of join levels.
//!
//! Connected subsets first, as System R and DB2 did: a subset grows only
//! by the quantifiers a box predicate joins to it, and by every missing
//! quantifier (a Cartesian product) only when no predicate joins any. A
//! chain of five tables thus takes 20 join steps instead of 75, and a
//! disconnected FROM list or a predicate over three quantifiers still
//! plans.
//!
//! Join methods per step: nested-loop, index nested-loop (the paper's
//! *ordered* nested-loop join when the outer's order property covers the
//! probe columns and the inner index is clustered), sort-merge, and hash.

use crate::access;
use crate::cost::{self, Cost};
use crate::plan::{JoinKind, Plan, PlanNode};
use crate::planner::Planner;
use fto_common::{ColId, ColSet, FtoError, QuantifierId, Result, TableId};
use fto_expr::{PredClass, PredId};
use fto_order::{FactsMemo, OrderSpec, StreamProps};
use fto_qgm::graph::QgmBox;
use fto_qgm::QueryGraph;
use std::collections::HashMap;
use std::sync::Arc;

/// What one [`enumerate`] call derives once and shares between the join
/// plans it generates: the facts of each (outer facts, inner facts,
/// predicates) combination, whatever the join method and input orders,
/// and the unfiltered base-table properties an index probe joins against.
#[derive(Default)]
struct JoinMemo {
    facts: FactsMemo,
    probed_tables: HashMap<QuantifierId, StreamProps>,
}

/// Enumerates join orders for a multi-quantifier select box.
///
/// `inputs[i]` holds the access-path alternatives for quantifier `i`
/// (already filtered by their single-table predicates). Subsets grow by
/// the steps [`join_steps`] lists: by joined quantifiers first, by a
/// Cartesian product only where no join is left. That drops the
/// candidates built over a Cartesian product a join could have avoided;
/// pruning is pairwise dominance, and they lose to the joined ones on
/// every statement `tests/plan_stability.rs` pins. A candidate is
/// shared, never copied: a join holds its inputs' `Arc`s, so the many
/// joins built over one subplan point at it, and pruning a candidate
/// frees its own node alone.
pub fn enumerate(
    planner: &mut Planner<'_>,
    qbox: &QgmBox,
    inputs: Vec<Vec<Arc<Plan>>>,
) -> Result<Vec<Arc<Plan>>> {
    let n = inputs.len();
    if n > 20 {
        return Err(FtoError::Plan(format!("{n}-way joins not supported")));
    }

    let mut memo = JoinMemo::default();
    let mut best: HashMap<u32, Vec<Arc<Plan>>> = HashMap::new();
    for (i, plans) in inputs.iter().enumerate() {
        let mut set = plans.clone();
        set.extend(planner.sort_ahead(qbox, plans));
        best.insert(1 << i, planner.prune(set));
    }
    let quantifier_cols: Vec<ColSet> = qbox.quantifiers.iter().map(|q| q.col_set()).collect();
    let predicate_cols: Vec<ColSet> = qbox
        .predicates
        .iter()
        .map(|&pid| planner.graph.predicate(pid).cols())
        .collect();

    // Grow subsets by one quantifier at a time (left-deep).
    for (mask, i) in join_steps(&quantifier_cols, &predicate_cols) {
        let outers = best.get(&mask).map_or(&[][..], Vec::as_slice);
        let mut new_plans = Vec::new();
        for outer in outers {
            for inner in &inputs[i] {
                new_plans.extend(join_pair(planner, &mut memo, qbox, outer, inner));
            }
        }
        if new_plans.is_empty() {
            continue;
        }
        let sorted = planner.sort_ahead(qbox, &new_plans);
        new_plans.extend(sorted);
        let entry = best.entry(mask | 1 << i).or_default();
        entry.extend(new_plans);
        let merged = std::mem::take(entry);
        *entry = planner.prune(merged);
    }

    let full = (1u32 << n) - 1;
    best.remove(&full)
        .filter(|p| !p.is_empty())
        .ok_or_else(|| FtoError::Plan("join enumeration produced no plan".into()))
}

/// The (subset, quantifier) join steps [`enumerate`] takes, each subset a
/// bit mask over the box's quantifiers: every subset one step reaches is
/// extended by [`extensions`], smaller subsets first and, within a size,
/// in mask order — a fixed order keeps the trace and the winner among
/// equal-cost plans the same from run to run. `quantifiers` and
/// `predicates` hold the box's quantifiers' and predicates' columns.
fn join_steps(quantifiers: &[ColSet], predicates: &[ColSet]) -> Vec<(u32, usize)> {
    let mut steps = Vec::new();
    let mut level: Vec<u32> = (0..quantifiers.len()).map(|i| 1 << i).collect();
    for _ in 1..quantifiers.len() {
        let mut next = Vec::new();
        for &mask in &level {
            for i in extensions(mask, quantifiers, predicates) {
                steps.push((mask, i));
                next.push(mask | 1 << i);
            }
        }
        next.sort_unstable();
        next.dedup();
        level = next;
    }
    steps
}

/// The quantifiers [`enumerate`] extends the subset `mask` by, in index
/// order: those joined to it — some predicate becomes applicable at that
/// join, the non-empty `applicable` set of [`join_pair`], told from
/// column sets alone — or, when none is, every missing one.
fn extensions(mask: u32, quantifiers: &[ColSet], predicates: &[ColSet]) -> Vec<usize> {
    let mut subset = ColSet::new();
    for (i, cols) in quantifiers.iter().enumerate() {
        if mask & (1 << i) != 0 {
            subset.union_with(cols);
        }
    }
    let missing: Vec<usize> = (0..quantifiers.len())
        .filter(|&i| mask & (1 << i) == 0)
        .collect();
    let joined: Vec<usize> = missing
        .iter()
        .copied()
        .filter(|&i| {
            let combined = subset.union(&quantifiers[i]);
            predicates.iter().any(|p| {
                p.is_subset(&combined) && !p.is_subset(&subset) && !p.is_subset(&quantifiers[i])
            })
        })
        .collect();
    if joined.is_empty() {
        missing
    } else {
        joined
    }
}

/// The equi-join column pairs among `preds`, each as (outer column,
/// inner column) whichever side of the `=` it was written on.
pub(crate) fn equated_pairs(
    graph: &QueryGraph,
    preds: &[PredId],
    outer: &ColSet,
    inner: &ColSet,
) -> Vec<(ColId, ColId)> {
    preds
        .iter()
        .filter_map(|&pid| match graph.predicate(pid).classify() {
            PredClass::ColEqCol(a, b) if outer.contains(a) && inner.contains(b) => Some((a, b)),
            PredClass::ColEqCol(a, b) if outer.contains(b) && inner.contains(a) => Some((b, a)),
            _ => None,
        })
        .collect()
}

/// All join methods for one (outer plan, inner access path) pair, each
/// counted as a generated plan.
fn join_pair(
    planner: &mut Planner<'_>,
    memo: &mut JoinMemo,
    qbox: &QgmBox,
    outer: &Arc<Plan>,
    inner: &Arc<Plan>,
) -> Vec<Arc<Plan>> {
    planner.stats.joins_considered += 1;

    // Predicates that become applicable at this join.
    let combined: ColSet = outer.props.cols.union(&inner.props.cols);
    let applicable: Vec<PredId> = qbox
        .predicates
        .iter()
        .copied()
        .filter(|&pid| {
            outer.props.preds.binary_search(&pid).is_err()
                && inner.props.preds.binary_search(&pid).is_err()
                && planner.graph.predicate(pid).cols().is_subset(&combined)
                && !planner
                    .graph
                    .predicate(pid)
                    .cols()
                    .is_subset(&outer.props.cols)
                && !planner
                    .graph
                    .predicate(pid)
                    .cols()
                    .is_subset(&inner.props.cols)
        })
        .collect();

    let equates = equated_pairs(
        planner.graph,
        &applicable,
        &outer.props.cols,
        &inner.props.cols,
    );
    let sel = planner
        .estimator()
        .conjunction_selectivity(applicable.iter().map(|&p| planner.graph.predicate(p)));
    // Every method yields the same rows: one estimate per subset.
    let out_rows = (outer.cost.rows * inner.cost.rows * sel).max(0.0);

    let mut plans = Vec::new();

    // --- Nested-loop join (inner rescanned per outer row) ---------------
    if planner.config.enable_nested_loop {
        let props = join_props(planner, memo, outer, inner, &applicable);
        let total = outer.cost.total
            + outer.cost.rows.max(1.0) * inner.cost.total
            + cost::filter(outer.cost.rows * inner.cost.rows, applicable.len().max(1));
        plans.push(join_plan(
            JoinKind::Inner,
            [Arc::clone(outer), Arc::clone(inner)],
            &[],
            0,
            &applicable,
            props,
            Cost::rows(out_rows).plus(total),
        ));
    }

    // --- Index nested-loop join ------------------------------------------
    if planner.config.enable_nested_loop {
        plans.extend(index_nlj(
            planner,
            memo,
            qbox,
            outer,
            inner,
            &equates,
            &applicable,
            out_rows,
        ));
    }

    // --- Merge join -------------------------------------------------------
    if planner.config.enable_merge_join && !equates.is_empty() {
        let (ocols, icols): (Vec<ColId>, Vec<ColId>) = equates.iter().copied().unzip();
        let o_order = OrderSpec::ascending(ocols);
        let i_order = OrderSpec::ascending(icols.iter().copied());
        let outer_sorted = planner.ensure_order(Arc::clone(outer), &o_order);
        let inner_sorted = planner.ensure_order(Arc::clone(inner), &i_order);
        let props = join_props(planner, memo, &outer_sorted, &inner_sorted, &applicable);
        // Expected inner rows per distinct join-key value: the tie groups
        // the streaming merge join buffers and rescans per outer row.
        let inner_rows = inner_sorted.cost.rows;
        let inner_groups = planner.estimator().group_count(&icols, inner_rows);
        let avg_inner_ties = if inner_groups > 0.0 {
            (inner_rows / inner_groups).max(1.0)
        } else {
            1.0
        };
        let total = outer_sorted.cost.total
            + inner_sorted.cost.total
            + cost::merge_join(outer_sorted.cost.rows, inner_rows, avg_inner_ties)
            + cost::filter(out_rows, applicable.len());
        // Both inputs are ordered on every equated pair: each matching
        // pair of key groups is a keyless build–probe.
        plans.push(join_plan(
            JoinKind::Inner,
            [outer_sorted, inner_sorted],
            &equates,
            equates.len() as u32,
            &applicable,
            props,
            Cost::rows(out_rows).plus(total),
        ));
    }

    // --- Hash join ---------------------------------------------------------
    if planner.config.enable_hash_join && !equates.is_empty() {
        // Streaming probe preserves the outer's order.
        let props = join_props(planner, memo, outer, inner, &applicable);
        let total = outer.cost.total
            + inner.cost.total
            + cost::hash_join(inner.cost.rows, outer.cost.rows)
            + cost::filter(out_rows, applicable.len());
        plans.push(join_plan(
            JoinKind::Inner,
            [Arc::clone(outer), Arc::clone(inner)],
            &equates,
            0,
            &applicable,
            props,
            Cost::rows(out_rows).plus(total),
        ));
    }

    for p in &plans {
        planner.generated("join", p);
    }
    plans
}

/// Index nested-loop joins: one per inner-table index whose leading key
/// columns are all equated to outer columns, each yielding the `out_rows`
/// every other method of [`join_pair`] yields. [`join_pair`] counts them.
#[allow(clippy::too_many_arguments)]
fn index_nlj(
    planner: &Planner<'_>,
    memo: &mut JoinMemo,
    qbox: &QgmBox,
    outer: &Arc<Plan>,
    inner: &Plan,
    equates: &[(ColId, ColId)],
    applicable: &[PredId],
    out_rows: f64,
) -> Vec<Arc<Plan>> {
    // The inner must be a bare access path over a base table (the probe
    // replaces the scan); reuse its quantifier/table identity, and its
    // filters become probe residuals.
    let mut plans = Vec::new();
    let Some((table, quantifier, inner_local_preds)) = filtered_base_scan(inner) else {
        return plans;
    };
    let catalog = planner.catalog;
    let (Ok(table_def), Some(inner_q)) = (
        catalog.table(table),
        qbox.quantifiers.iter().find(|q| q.id == quantifier),
    ) else {
        return plans;
    };

    let stats = catalog.stats(table);
    let inner_rows = stats.row_count as f64;
    let inner_pages = stats.pages;
    let layout = outer.layout.concat(&inner.layout);

    for ix in catalog.indexes_for(table) {
        // Map each leading key part to an equated outer column.
        let mut probe_cols = Vec::new();
        for ord in ix.key_ordinals() {
            let inner_col = inner_q.cols[ord];
            match equates.iter().find(|&&(_, ic)| ic == inner_col) {
                Some(&(oc, _)) => probe_cols.push(oc),
                None => break,
            }
        }
        if probe_cols.is_empty() {
            continue;
        }

        // Is this the paper's *ordered* nested-loop join? The outer's
        // order property must cover the probe columns (reduction makes a
        // one-column prefix sufficient when FDs imply the rest).
        let probe_order = OrderSpec::ascending(probe_cols.iter().copied());
        let ordered = planner.order_satisfied(outer, &probe_order)
            || planner.order_satisfied(outer, &OrderSpec::ascending([probe_cols[0]]));

        let matches_per_probe =
            (inner_rows / planner.estimator().ndv(inner_q.cols[ix.key[0].0], 10.0)).max(0.05);
        let probe_cost = cost::index_probe(
            outer.cost.rows,
            matches_per_probe,
            inner_pages,
            ordered && ix.clustered,
        );

        // Properties: outer order survives; inner contributes its base
        // props (key FDs, columns); the join predicates apply; the inner's
        // local predicates are evaluated as residuals too.
        let mut all_preds: Vec<PredId> = applicable.to_vec();
        all_preds.extend(inner_local_preds.iter().copied());
        let inner_base = memo
            .probed_tables
            .entry(quantifier)
            .or_insert_with(|| access::base_props(catalog, table_def, inner_q));
        let mut props = memo
            .facts
            .join(&outer.props, inner_base, &outer.props.order);
        for &pid in &all_preds {
            memo.facts
                .apply_predicate(&mut props, pid, planner.graph.predicate(pid));
        }

        let total = outer.cost.total
            + probe_cost
            + cost::filter(outer.cost.rows * matches_per_probe, all_preds.len().max(1));
        plans.push(Arc::new(Plan {
            node: PlanNode::IndexNestedLoopJoin {
                outer: Arc::clone(outer),
                table,
                quantifier,
                index: ix.id,
                probe_cols,
                predicates: all_preds,
            },
            layout: layout.clone(),
            props,
            cost: Cost::rows(out_rows).plus(total),
        }));
    }
    plans
}

/// The one builder of a [`PlanNode::Join`]: `outer` joined to `inner` on
/// the (outer, inner) column pairs `keys`, the first `prefix_len` of which
/// both inputs are ordered on (a merge join), applying `predicates`, with
/// the two inputs' columns side by side.
pub(crate) fn join_plan(
    kind: JoinKind,
    [outer, inner]: [Arc<Plan>; 2],
    keys: &[(ColId, ColId)],
    prefix_len: u32,
    predicates: &[PredId],
    props: StreamProps,
    cost: Cost,
) -> Arc<Plan> {
    let (outer_keys, inner_keys) = keys.iter().copied().unzip();
    Arc::new(Plan {
        layout: outer.layout.concat(&inner.layout),
        node: PlanNode::Join {
            kind,
            outer,
            inner,
            outer_keys,
            inner_keys,
            predicates: predicates.to_vec(),
            prefix_len,
        },
        props,
        cost,
    })
}

/// Combined stream properties for a join output that preserves the
/// outer's order.
fn join_props(
    planner: &Planner<'_>,
    memo: &mut JoinMemo,
    outer: &Plan,
    inner: &Plan,
    applicable: &[PredId],
) -> StreamProps {
    let mut props = memo
        .facts
        .join(&outer.props, &inner.props, &outer.props.order);
    for &pid in applicable {
        memo.facts
            .apply_predicate(&mut props, pid, planner.graph.predicate(pid));
    }
    props
}

/// If `plan` is a bare scan of a base table under zero or more filters,
/// its (table, quantifier) identity and the filters' predicates,
/// innermost first.
fn filtered_base_scan(plan: &Plan) -> Option<(TableId, QuantifierId, Vec<PredId>)> {
    match &plan.node {
        PlanNode::TableScan { table, quantifier }
        | PlanNode::IndexScan {
            table, quantifier, ..
        } => Some((*table, *quantifier, Vec::new())),
        PlanNode::Filter { input, predicates } => {
            let mut scan = filtered_base_scan(input)?;
            scan.2.extend(predicates.iter().copied());
            Some(scan)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use crate::planner::tests_support::q3_like_db;
    use fto_common::Value;
    use fto_expr::{CompareOp, Expr, Predicate};
    use fto_qgm::graph::{BoxKind, OutputCol};
    use fto_qgm::{OrderScan, QueryGraph};

    /// customer ⋈ orders ⋈ lineitem with the Q3 predicates.
    fn q3_join_graph(db: &fto_storage::Database) -> (QueryGraph, Vec<ColId>) {
        let cat = db.catalog();
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        g.add_table_quantifier(b, cat.table_by_name("customer").unwrap());
        g.add_table_quantifier(b, cat.table_by_name("orders").unwrap());
        g.add_table_quantifier(b, cat.table_by_name("lineitem").unwrap());
        let c = g.boxed(b).quantifiers[0].cols.clone();
        let o = g.boxed(b).quantifiers[1].cols.clone();
        let l = g.boxed(b).quantifiers[2].cols.clone();
        for pred in [
            Predicate::col_eq_col(c[0], o[1]), // c_custkey = o_custkey
            Predicate::col_eq_col(o[0], l[0]), // o_orderkey = l_orderkey
            Predicate::col_eq_const(c[1], Value::str("building")),
            Predicate::new(CompareOp::Lt, Expr::col(o[2]), Expr::Lit(Value::Date(45))),
            Predicate::new(CompareOp::Gt, Expr::col(l[3]), Expr::Lit(Value::Date(45))),
        ] {
            let pid = g.add_predicate(pred);
            g.boxed_mut(b).predicates.push(pid);
        }
        let mut all = Vec::new();
        all.extend(c.iter().copied());
        all.extend(o.iter().copied());
        all.extend(l.iter().copied());
        g.boxed_mut(b).output = all.iter().map(|&cc| OutputCol::passthrough(cc)).collect();
        g.root = b;
        (g, all)
    }

    #[test]
    fn three_way_join_plans() {
        let db = q3_like_db(500);
        let (mut g, _) = q3_join_graph(&db);
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let plan = p.plan_query().unwrap();
        // All three tables appear.
        let scans = plan.count_ops(&|n| {
            matches!(
                n,
                PlanNode::TableScan { .. }
                    | PlanNode::IndexScan { .. }
                    | PlanNode::IndexNestedLoopJoin { .. }
            )
        });
        assert!(scans >= 3, "{}", plan.explain(&|c| c.to_string()));
        // Every predicate is applied somewhere.
        assert_eq!(plan.props.preds.len(), 5);
        assert!(p.stats.joins_considered > 0);
    }

    #[test]
    fn sort_ahead_produces_ordered_join_output() {
        let db = q3_like_db(500);
        let (mut g, all) = q3_join_graph(&db);
        // Ask for the join result ordered by o_orderkey (col index 2+0=2).
        let o_orderkey = all[2];
        let root = g.root;
        g.boxed_mut(root).output_order = Some(OrderSpec::ascending([o_orderkey]));
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let plan = p.plan_query().unwrap();
        // The output is ordered on o_orderkey...
        assert!(p.order_satisfied(&plan, &OrderSpec::ascending([o_orderkey])));
        // ...and any sort, if present, is NOT the top operator: it was
        // pushed below at least one join (or an ordered index made it
        // unnecessary).
        assert_ne!(
            plan.op_name(),
            "sort",
            "sort should have been pushed down:\n{}",
            plan.explain(&|c| c.to_string())
        );
    }

    #[test]
    fn disabled_mode_still_plans() {
        let db = q3_like_db(300);
        let (mut g, _) = q3_join_graph(&db);
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::disabled());
        let plan = p.plan_query().unwrap();
        assert_eq!(plan.props.preds.len(), 5);
    }

    #[test]
    fn more_sort_ahead_orders_grow_enumeration() {
        // The §5.2 complexity claim, in miniature: sort-ahead over the
        // box's interesting orders → more subplans generated than none.
        let db = q3_like_db(300);
        let counts: Vec<u64> = [false, true]
            .iter()
            .map(|&on| {
                let (mut g, all) = q3_join_graph(&db);
                let root = g.root;
                g.boxed_mut(root).output_order = Some(OrderSpec::ascending([all[2]]));
                OrderScan::run(&mut g, db.catalog());
                let cfg = OptimizerConfig::default().with_sort_ahead(on);
                let mut p = Planner::new(&g, db.catalog(), cfg);
                p.plan_query().unwrap();
                assert_eq!(p.stats.sort_ahead_variants > 0, on);
                p.stats.plans_generated
            })
            .collect();
        assert!(counts[1] > counts[0], "{counts:?}");
    }

    #[test]
    fn sort_ahead_serves_every_interesting_order() {
        // Five interests, none provided by an access path: the fifth gets
        // its sorted variant as the first does (the paper's n < 3 is no
        // cap here).
        let db = q3_like_db(300);
        let (mut g, all) = q3_join_graph(&db);
        OrderScan::run(&mut g, db.catalog());
        let interests: Vec<OrderSpec> = [4, 5, 7, 8, 9]
            .iter()
            .map(|&i| OrderSpec::ascending([all[i]]))
            .collect();
        let root = g.root;
        g.boxed_mut(root).interesting = interests.clone();
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default()).traced();
        p.plan_query().unwrap();
        let trace = p.take_trace().unwrap();
        assert_eq!(trace.dropped(), 0);
        for spec in &interests {
            let wanted = spec.to_string();
            assert!(
                trace.events().iter().any(|e| matches!(
                    e,
                    fto_obs::TraceEvent::SortAhead { interest, .. } if *interest == wanted
                )),
                "no sort-ahead variant for {wanted}"
            );
        }
    }

    #[test]
    fn every_plan_of_a_subset_has_one_cardinality() {
        // One row estimate per subset, whatever the plan: every access
        // path of a quantifier keeps the table scan's rows (forward and
        // reversed index reads, one with a range on its leading key), and
        // every method joining orders to lineitem yields the same rows.
        let db = q3_like_db(500);
        let (mut g, all) = q3_join_graph(&db);
        let root = g.root;
        let o_orderkey = all[2];
        let ranged = g.add_predicate(Predicate::new(
            CompareOp::Lt,
            Expr::col(o_orderkey),
            Expr::int(200),
        ));
        g.boxed_mut(root).predicates.push(ranged);
        OrderScan::run(&mut g, db.catalog());
        let qbox = g.boxed(root);
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let mut paths = Vec::new();
        for q in &qbox.quantifiers {
            let fto_qgm::graph::QuantifierInput::Table(tid) = q.input else {
                panic!("not a base-table quantifier");
            };
            let local = p.local_preds(qbox, &q.col_set());
            let qpaths = access::access_paths(&mut p, tid, q, &local).unwrap();
            let scan = qpaths[0].cost.rows;
            assert_eq!(
                qpaths[0].count_ops(&|n| matches!(n, PlanNode::TableScan { .. })),
                1
            );
            for path in &qpaths {
                assert_eq!(path.cost.rows, scan, "{}", path.explain(&|c| c.to_string()));
            }
            paths.push(qpaths);
        }
        let is_ranged = |n: &PlanNode| matches!(n, PlanNode::IndexScan { range: Some(_), .. });
        let reversed = |n: &PlanNode| matches!(n, PlanNode::IndexScan { reverse: true, .. });
        assert_eq!(
            paths[1]
                .iter()
                .map(|p| p.count_ops(&is_ranged))
                .sum::<usize>(),
            2
        );
        assert_eq!(
            paths[1]
                .iter()
                .map(|p| p.count_ops(&reversed))
                .sum::<usize>(),
            1
        );

        let mut memo = JoinMemo::default();
        let mut methods = std::collections::BTreeSet::new();
        let mut rows = Vec::new();
        for outer in &paths[1] {
            for inner in &paths[2] {
                for plan in join_pair(&mut p, &mut memo, qbox, outer, inner) {
                    methods.insert(plan.op_name());
                    rows.push(plan.cost.rows);
                }
            }
        }
        let want = [
            "hash-join",
            "index-nested-loop-join",
            "merge-join",
            "nested-loop-join",
        ];
        assert!(methods.iter().eq(want.iter()), "{methods:?}");
        assert!(rows.iter().all(|&r| r == rows[0]), "{rows:?}");
    }

    #[test]
    fn each_index_nested_loop_is_generated_once() {
        // orders ⋈ lineitem with only the nested loops on: either inner
        // has one usable index (orders_pk, l_orderkey_ix), so each join
        // pair makes one nested loop and one index nested loop, and
        // counts each once (the parent counted the index nested loop in
        // index_nlj and again in join_pair: twice per pair).
        let db = q3_like_db(200);
        let cat = db.catalog();
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        g.add_table_quantifier(b, cat.table_by_name("orders").unwrap());
        g.add_table_quantifier(b, cat.table_by_name("lineitem").unwrap());
        let o = g.boxed(b).quantifiers[0].cols.clone();
        let l = g.boxed(b).quantifiers[1].cols.clone();
        let pid = g.add_predicate(Predicate::col_eq_col(o[0], l[0]));
        g.boxed_mut(b).predicates.push(pid);
        g.boxed_mut(b).output = vec![OutputCol::passthrough(o[0])];
        g.root = b;
        OrderScan::run(&mut g, cat);
        let cfg = OptimizerConfig::default()
            .with_merge_join(false)
            .with_hash_join(false);
        let mut p = Planner::new(&g, cat, cfg).traced();
        p.plan_query().unwrap();
        let trace = p.take_trace().unwrap();
        assert_eq!(trace.dropped(), 0);
        let generated = |op: &str| {
            trace
                .events()
                .iter()
                .filter(|e| {
                    matches!(e, fto_obs::TraceEvent::PlanGenerated { stage: "join", plan }
                        if plan.starts_with(op))
                })
                .count() as u64
        };
        let pairs = p.stats.joins_considered;
        assert!(pairs > 0);
        assert_eq!(generated("nested-loop-join "), pairs);
        assert_eq!(generated("index-nested-loop-join "), pairs);
        let events = trace
            .events()
            .iter()
            .filter(|e| matches!(e, fto_obs::TraceEvent::PlanGenerated { .. }))
            .count() as u64;
        assert_eq!(events, p.stats.plans_generated);
    }

    /// Quantifier `i` sees columns 3i..3i+3; each predicate is given by
    /// the quantifiers whose first column it reads.
    fn shape(n: u32, preds: &[&[u32]]) -> (Vec<ColSet>, Vec<ColSet>) {
        let quantifiers = (0..n)
            .map(|i| ColSet::from_cols((3 * i..3 * i + 3).map(ColId)))
            .collect();
        let predicates = preds
            .iter()
            .map(|qs| ColSet::from_cols(qs.iter().map(|&q| ColId(3 * q))))
            .collect();
        (quantifiers, predicates)
    }

    /// Whether a predicate becomes applicable when `mask` is joined to
    /// quantifier `i`: `join_pair`'s `applicable` set is non-empty.
    fn joined(q: &[ColSet], p: &[ColSet], mask: u32, i: usize) -> bool {
        let subset = (0..q.len())
            .filter(|&j| mask & (1 << j) != 0)
            .fold(ColSet::new(), |acc, j| acc.union(&q[j]));
        let combined = subset.union(&q[i]);
        p.iter()
            .any(|p| p.is_subset(&combined) && !p.is_subset(&subset) && !p.is_subset(&q[i]))
    }

    #[test]
    fn connected_subsets_are_joined_before_cartesian_products() {
        // j5's chain (nation–customer–orders–lineitem–supplier), and
        // corpus[10]'s star (e joined to d and to b) with its 5-table
        // counterpart: every step applies a predicate, and the steps are
        // the connected ones — 20, 6 and 36 of the 75, 9 and 75 that
        // extending every subset by every missing quantifier takes.
        let chain = shape(5, &[&[0, 1], &[1, 2], &[2, 3], &[3, 4]]);
        let star3 = shape(3, &[&[0, 1], &[2, 0]]);
        let star5 = shape(5, &[&[0, 1], &[0, 2], &[0, 3], &[0, 4]]);
        for ((q, p), want) in [(chain, 20), (star3, 6), (star5, 36)] {
            let steps = join_steps(&q, &p);
            assert_eq!(steps.len(), want, "{steps:?}");
            for &(mask, i) in &steps {
                assert!(joined(&q, &p, mask, i), "{mask:#b} + {i} joins nothing");
            }
            let full = (1u32 << q.len()) - 1;
            assert!(steps.iter().any(|&(m, i)| m | 1 << i == full));
        }
    }

    #[test]
    fn cartesian_products_wait_until_no_join_is_left() {
        // {0, 1} joined, 2 isolated: 2 is crossed only onto a subset with
        // no join left ({0, 1}, or a lone 2 onto either). A predicate over
        // three quantifiers joins none pairwise, so the first level crosses
        // every pair and the second applies it.
        let (q, p) = shape(3, &[&[0, 1]]);
        let steps = join_steps(&q, &p);
        for &(mask, i) in &steps {
            let any_joined = (0..3).any(|j| mask & (1 << j) == 0 && joined(&q, &p, mask, j));
            assert!(joined(&q, &p, mask, i) || !any_joined, "{steps:?}");
        }
        assert_eq!(
            steps,
            [
                (0b001, 1),
                (0b010, 0),
                (0b100, 0),
                (0b100, 1),
                (0b011, 2),
                (0b101, 1),
                (0b110, 0)
            ]
        );

        let (q, p) = shape(3, &[&[0, 1, 2]]);
        let steps = join_steps(&q, &p);
        assert_eq!(steps.len(), 9, "{steps:?}");
        assert!(steps[6..].iter().all(|&(mask, i)| joined(&q, &p, mask, i)));
    }

    #[test]
    fn equates_direction_is_normalized() {
        // Join predicate written "l_orderkey = o_orderkey" (reversed
        // sides) still joins.
        let db = q3_like_db(200);
        let cat = db.catalog();
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        g.add_table_quantifier(b, cat.table_by_name("orders").unwrap());
        g.add_table_quantifier(b, cat.table_by_name("lineitem").unwrap());
        let o = g.boxed(b).quantifiers[0].cols.clone();
        let l = g.boxed(b).quantifiers[1].cols.clone();
        let pid = g.add_predicate(Predicate::col_eq_col(l[0], o[0]));
        g.boxed_mut(b).predicates.push(pid);
        g.boxed_mut(b).output = o
            .iter()
            .chain(&l)
            .map(|&c| OutputCol::passthrough(c))
            .collect();
        g.root = b;
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let plan = p.plan_query().unwrap();
        assert!(plan.props.preds.contains(&pid));
    }
}
