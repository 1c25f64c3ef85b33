//! Plan-shape assertions for the paper's figures: the optimizer must
//! *choose* the published plan structures, not merely execute correctly.

use fto_bench::harness::{paper_example_db, tpcd_db, FIG1_SQL, FIG6_SQL};
use fto_bench::{PreparedQuery, Session};
use fto_planner::{OptimizerConfig, Plan, PlanNode};
use fto_storage::Database;

/// How many nodes of `plan` the executor runs as `op` — counted by
/// [`Plan::op_name`], which tells a full `sort` from a `segmented-sort` or
/// a `top-n` and `group-by(stream)` from `group-by(hash)`.
fn count(plan: &Plan, op: &str) -> usize {
    plan.children().iter().map(|c| count(c, op)).sum::<usize>() + usize::from(plan.op_name() == op)
}

/// Compiles Q3 under one configuration against a borrowed TPC-D db.
fn q3<'a>(db: &'a Database, config: OptimizerConfig) -> PreparedQuery<'a> {
    Session::new(db)
        .config(config)
        .plan(&fto_tpcd::queries::q3_default())
        .unwrap()
}

/// True when some streaming group-by is fed directly by a full sort.
fn sort_feeds_group_by(plan: &Plan) -> bool {
    let children = plan.children();
    (plan.op_name() == "group-by(stream)" && children[0].op_name() == "sort")
        || children.iter().any(|c| sort_feeds_group_by(c))
}

/// Depth of the deepest full sort (root = 0); deeper = pushed further down.
fn max_sort_depth(plan: &Plan, depth: usize) -> Option<usize> {
    let own = (plan.op_name() == "sort").then_some(depth);
    plan.children()
        .iter()
        .filter_map(|c| max_sort_depth(c, depth + 1))
        .chain(own)
        .max()
}

#[test]
fn figure7_shape_order_opt_enabled() {
    let db = tpcd_db(0.005).unwrap();
    let enabled = q3(&db, OptimizerConfig::db2_1996());
    let plan = enabled.plan();
    // An ordered index nested-loop join drives lineitem.
    assert!(
        count(plan, "index-nested-loop-join") >= 1,
        "{}",
        enabled.explain()
    );
    // The streaming group-by consumes the join order directly — no sort
    // of its own.
    assert!(
        count(plan, "group-by(stream)") == 1,
        "{}",
        enabled.explain()
    );
    assert!(!sort_feeds_group_by(plan), "{}", enabled.explain());
    // The ORDER BY on the computed `rev` column still requires the final
    // sort (rev only exists after aggregation), exactly as in Figure 7.
    assert_eq!(plan.op_name(), "sort", "{}", enabled.explain());
}

#[test]
fn figure8_shape_order_opt_disabled() {
    let db = tpcd_db(0.005).unwrap();
    let disabled = q3(&db, OptimizerConfig::db2_1996_disabled());
    let plan = disabled.plan();
    // Without reduction/equivalence reasoning the group-by cannot reuse
    // any join order: it must sort on all three grouping columns.
    assert!(sort_feeds_group_by(plan), "{}", disabled.explain());
    let widest = widest_sort(plan);
    assert!(widest >= 3, "widest sort {widest}\n{}", disabled.explain());
}

fn widest_sort(plan: &Plan) -> usize {
    let own = match &plan.node {
        PlanNode::Sort {
            spec,
            prefix_len: 0,
            limit: None,
            ..
        } => spec.len(),
        _ => 0,
    };
    plan.children()
        .iter()
        .map(|c| widest_sort(c))
        .max()
        .unwrap_or(0)
        .max(own)
}

#[test]
fn enabled_plan_sorts_deeper_than_disabled() {
    // Sort-ahead pushes sorts down the join tree; the disabled build
    // sorts late (high in the plan).
    let db = tpcd_db(0.005).unwrap();
    let enabled = q3(&db, OptimizerConfig::db2_1996());
    let disabled = q3(&db, OptimizerConfig::db2_1996_disabled());
    let e = max_sort_depth(enabled.plan(), 0).unwrap_or(0);
    let d = max_sort_depth(disabled.plan(), 0).unwrap_or(0);
    assert!(
        e >= d,
        "enabled depth {e} vs disabled {d}\n{}\n{}",
        enabled.explain(),
        disabled.explain()
    );
}

#[test]
fn figure1_shape() {
    let db = paper_example_db(1000).unwrap();
    let compiled = Session::new(&db)
        .config(OptimizerConfig::db2_1996())
        .plan(FIG1_SQL)
        .unwrap();
    // Order-based group-by over a sort on a.y, as the figure draws.
    assert_eq!(
        count(compiled.plan(), "group-by(stream)"),
        1,
        "{}",
        compiled.explain()
    );
    assert!(
        count(compiled.plan(), "sort") >= 1,
        "{}",
        compiled.explain()
    );
}

#[test]
fn figure6_single_sort_ahead_serves_everything() {
    let db = paper_example_db(1000).unwrap();
    let compiled = Session::new(&db)
        .config(OptimizerConfig::db2_1996())
        .plan(FIG6_SQL)
        .unwrap();
    let plan = compiled.plan();
    // No top-level sort: the ORDER BY a.x is satisfied below.
    assert_ne!(plan.op_name(), "sort", "{}", compiled.explain());
    // Group-by streams without its own sort.
    assert_eq!(count(plan, "group-by(stream)"), 1, "{}", compiled.explain());
    assert!(!sort_feeds_group_by(plan), "{}", compiled.explain());
    // The one descending sort below the joins (or an index order) covers
    // merge-join + GROUP BY + ORDER BY; executing confirms the order.
    let result = compiled.execute().unwrap();
    let mut last = i64::MIN;
    for row in result.rows() {
        let x = row[0].as_int().unwrap();
        assert!(x >= last);
        last = x;
    }
}

#[test]
fn modern_inventory_still_beats_disabled_on_cost() {
    // Even with hash operators available everywhere, the optimizer with
    // order reasoning never produces a costlier plan than without it.
    let db = tpcd_db(0.005).unwrap();
    let on = q3(&db, OptimizerConfig::default());
    let off = q3(&db, OptimizerConfig::disabled());
    assert!(
        on.plan().cost.total <= off.plan().cost.total * 1.0001,
        "on {} vs off {}",
        on.plan().cost.total,
        off.plan().cost.total
    );
}
