//! Access-path generation for base-table quantifiers.
//!
//! Every table reference yields one sequential-scan plan plus one plan per
//! ordered index. Index scans install the index order as the stream's
//! order property (paper §3: order originates from an ordered index scan
//! or a sort) and may carry a key-range restriction derived from the
//! applied predicates. All single-table predicates are applied on top, so
//! every access path for a quantifier has the same predicate property and
//! plans differ only in cost, order, and fetch pattern.

use crate::cost::{self, Cost};
use crate::plan::{Plan, PlanNode, ScanRange};
use crate::planner::Planner;
use fto_catalog::{Catalog, IndexDef, TableDef};
use fto_common::{ColSet, Result, TableId, Value};
use fto_expr::{CompareOp, Expr, PredId, RowLayout};
use fto_order::{OrderSpec, SortKey, StreamProps};
use fto_qgm::graph::Quantifier;
use fto_storage::ENTRIES_PER_LEAF;
use std::sync::Arc;

/// Generates the access paths for quantifier `q` over base table `tid`,
/// with `local_preds` (the box predicates referencing only this
/// quantifier) applied on top of each.
pub fn access_paths(
    planner: &mut Planner<'_>,
    tid: TableId,
    q: &Quantifier,
    local_preds: &[PredId],
) -> Result<Vec<Arc<Plan>>> {
    // Borrowed from the catalog, not from `planner`, whose counters
    // `apply_filter` writes.
    let catalog = planner.catalog;
    let base_props = base_props(catalog, catalog.table(tid)?, q);
    let stats = catalog.stats(tid);
    let rows = stats.row_count as f64;
    let pages = stats.pages;
    let layout = RowLayout::new(q.cols.clone());

    let mut paths = Vec::new();

    // Sequential scan.
    let scan = Plan {
        node: PlanNode::TableScan {
            table: tid,
            quantifier: q.id,
        },
        layout: layout.clone(),
        props: base_props.clone(),
        cost: Cost::rows(rows).plus(cost::table_scan(pages, rows)),
    };
    paths.push(planner.apply_filter(Arc::new(scan), local_preds));

    // One path per index.
    for ix in catalog.indexes_for(tid) {
        let order = OrderSpec::new(
            ix.key
                .iter()
                .map(|&(ord, dir)| SortKey {
                    col: q.cols[ord],
                    dir,
                })
                .collect::<Vec<_>>(),
        );
        let (range, fraction) = derive_range(planner, q, ix, local_preds);
        let fetch_rows = rows * fraction;
        // Storage's leaf geometry, over the table's rows.
        let leaf_pages = stats.row_count.div_ceil(ENTRIES_PER_LEAF).max(1);
        let scan_cost = cost::index_scan(leaf_pages, pages, fetch_rows, fraction, ix.clustered);
        let plan = Plan {
            node: PlanNode::IndexScan {
                index: ix.id,
                table: tid,
                quantifier: q.id,
                range: range.clone(),
                reverse: false,
            },
            layout: layout.clone(),
            props: base_props.clone().with_order(order.clone()),
            cost: Cost::rows(fetch_rows).plus(scan_cost),
        };
        paths.push(planner.apply_filter(Arc::new(plan), local_preds));

        // The same index read backwards provides the reversed order at
        // the same cost (backward page walks prefetch as well as forward
        // ones on the simulated model).
        let reverse_plan = Plan {
            node: PlanNode::IndexScan {
                index: ix.id,
                table: tid,
                quantifier: q.id,
                range,
                reverse: true,
            },
            layout: layout.clone(),
            props: base_props.clone().with_order(order.reversed()),
            cost: Cost::rows(fetch_rows).plus(scan_cost),
        };
        paths.push(planner.apply_filter(Arc::new(reverse_plan), local_preds));
    }

    for p in &paths {
        planner.generated("access", p);
    }
    Ok(paths)
}

/// The properties of a bare scan of `table` as quantifier `q`: its
/// columns, and a `key → all columns` dependency for each of the table's
/// declared keys and unique indexes.
pub(crate) fn base_props(catalog: &Catalog, table: &TableDef, q: &Quantifier) -> StreamProps {
    let mut keys: Vec<ColSet> = table
        .keys
        .iter()
        .map(|k| k.columns.iter().map(|&o| q.cols[o]).collect())
        .collect();
    for ix in catalog.indexes_for(table.id).filter(|ix| ix.unique) {
        keys.push(ix.key_ordinals().map(|o| q.cols[o]).collect());
    }
    StreamProps::base_table(q.col_set(), keys)
}

/// Derives a leading-column key range from the local predicates, returning
/// the range and the estimated fraction of the table it covers.
fn derive_range(
    planner: &Planner<'_>,
    q: &Quantifier,
    ix: &IndexDef,
    local_preds: &[PredId],
) -> (Option<ScanRange>, f64) {
    let Some(&(lead_ord, lead_dir)) = ix.key.first() else {
        return (None, 1.0);
    };
    // Ranges on a descending leading column would need reversed bounds;
    // the residual filter keeps correctness, so we simply skip them.
    if lead_dir != fto_common::Direction::Asc {
        return (None, 1.0);
    }
    let lead_col = q.cols[lead_ord];
    let mut lo: Option<Value> = None;
    let mut hi: Option<Value> = None;
    let mut fraction = 1.0f64;

    for &pid in local_preds {
        let pred = planner.graph.predicate(pid);
        let (col, val, op) = match (&pred.left, &pred.right) {
            (Expr::Col(c), Expr::Lit(v)) => (*c, v.clone(), pred.op),
            (Expr::Lit(v), Expr::Col(c)) => (*c, v.clone(), pred.op.flipped()),
            _ => continue,
        };
        if col != lead_col {
            continue;
        }
        let sel = planner.estimator().selectivity(pred);
        match op {
            CompareOp::Eq => {
                lo = Some(val.clone());
                hi = Some(val);
                fraction = fraction.min(sel);
            }
            CompareOp::Lt | CompareOp::Le => {
                if hi.as_ref().is_none_or(|h| val < *h) {
                    hi = Some(val);
                }
                fraction = fraction.min(sel);
            }
            CompareOp::Gt | CompareOp::Ge => {
                if lo.as_ref().is_none_or(|l| val > *l) {
                    lo = Some(val);
                }
                fraction = fraction.min(sel);
            }
            CompareOp::Ne | CompareOp::IsNull | CompareOp::IsNotNull => {}
        }
    }

    if lo.is_none() && hi.is_none() {
        (None, 1.0)
    } else {
        (Some(ScanRange { lo, hi }), fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use crate::planner::tests_support::{q3_like_db, simple_db};
    use fto_expr::Predicate;
    use fto_qgm::graph::{BoxId, BoxKind, QuantifierInput};
    use fto_qgm::QueryGraph;

    /// The access paths of box `b`'s first quantifier, a base table.
    fn first_paths(planner: &mut Planner<'_>, b: BoxId, preds: &[PredId]) -> Vec<Arc<Plan>> {
        let q = planner.graph.boxed(b).quantifiers[0].clone();
        let QuantifierInput::Table(tid) = q.input else {
            panic!("not a base-table quantifier");
        };
        access_paths(planner, tid, &q, preds).unwrap()
    }

    #[test]
    fn generates_scan_plus_index_paths() {
        let db = simple_db();
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        g.add_table_quantifier(b, db.catalog().table_by_name("t").unwrap());
        g.root = b;
        let mut planner = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let paths = first_paths(&mut planner, b, &[]);
        // table scan + (forward, reverse) × (pk index, secondary index).
        assert_eq!(paths.len(), 5);
        assert!(paths.iter().any(|p| p.props.order.is_empty()));
        assert!(paths.iter().any(|p| !p.props.order.is_empty()));
        // Forward and reverse variants provide opposite orders.
        let fwd = paths
            .iter()
            .find(|p| {
                matches!(&p.node, PlanNode::IndexScan { reverse: false, index, .. } if index.0 == 0)
            })
            .unwrap();
        let rev = paths
            .iter()
            .find(|p| {
                matches!(&p.node, PlanNode::IndexScan { reverse: true, index, .. } if index.0 == 0)
            })
            .unwrap();
        assert_eq!(fwd.props.order.reversed(), rev.props.order);
    }

    #[test]
    fn index_scan_order_reduces_via_key() {
        let db = simple_db();
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        g.add_table_quantifier(b, db.catalog().table_by_name("t").unwrap());
        g.root = b;
        let mut planner = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let paths = first_paths(&mut planner, b, &[]);
        // The pk index path's order is (k): a single column, since k is
        // the key and determines everything after it.
        let pk_path = paths
            .iter()
            .find(|p| matches!(&p.node, PlanNode::IndexScan { index, .. } if index.0 == 0))
            .unwrap();
        assert_eq!(pk_path.props.order.len(), 1);
    }

    #[test]
    fn range_predicate_narrows_index_scan() {
        let db = simple_db();
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        g.add_table_quantifier(b, db.catalog().table_by_name("t").unwrap());
        let cols = g.boxed(b).quantifiers[0].cols.clone();
        let p = g.add_predicate(Predicate::new(
            CompareOp::Lt,
            Expr::col(cols[0]),
            Expr::int(10),
        ));
        g.boxed_mut(b).predicates.push(p);
        g.root = b;
        let mut planner = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let paths = first_paths(&mut planner, b, &[p]);
        // Find the pk-index path: it must carry a range and cost less
        // than the unrestricted table scan.
        let ranged = paths
            .iter()
            .find(|p| p.count_ops(&|n| matches!(n, PlanNode::IndexScan { range: Some(_), .. })) > 0)
            .expect("range path exists");
        let full = paths
            .iter()
            .find(|p| p.count_ops(&|n| matches!(n, PlanNode::TableScan { .. })) > 0)
            .unwrap();
        assert!(ranged.cost.total < full.cost.total);
        assert!(ranged.cost.rows < full.cost.rows + 1.0);
    }

    #[test]
    fn local_predicates_set_predicate_property() {
        let db = q3_like_db(100);
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        g.add_table_quantifier(b, db.catalog().table_by_name("customer").unwrap());
        let cols = g.boxed(b).quantifiers[0].cols.clone();
        let p = g.add_predicate(Predicate::col_eq_const(cols[1], Value::str("building")));
        g.boxed_mut(b).predicates.push(p);
        g.root = b;
        let mut planner = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let paths = first_paths(&mut planner, b, &[p]);
        for path in &paths {
            assert_eq!(path.props.preds, vec![p]);
            assert!(path.props.equivalences().is_constant(cols[1]));
        }
    }
}
