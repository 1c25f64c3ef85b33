//! Reusable experiment runners behind the table/figure binaries. Each
//! function regenerates one artifact of the
//! paper's evaluation; DESIGN.md maps artifacts to these entry points.

use crate::corpus;
use fto_common::{FtoError, Result};
use fto_exec::Session;
use fto_planner::{OptimizerConfig, Plan, PlanNode, Planner, PlannerStats};
use fto_qgm::{rewrite, OrderScan};
use fto_storage::Database;
use fto_tpcd::{build_database, queries, TpcdConfig};
use std::time::{Duration, Instant};

/// Builds the TPC-D database the Q3 experiments run over.
pub fn tpcd_db(scale: f64) -> Result<Database> {
    build_database(TpcdConfig {
        scale,
        ..TpcdConfig::default()
    })
}

/// Outcome of one Table 1 cell: a timed Q3 execution.
#[derive(Debug, Clone)]
pub struct Table1Cell {
    /// Elapsed wall-clock time (best of `runs`).
    pub elapsed: Duration,
    /// Simulated weighted page cost.
    pub page_cost: f64,
    /// Number of sorts in the plan.
    pub sorts: usize,
    /// Number of result rows (sanity check across modes).
    pub rows: usize,
}

/// Table 1: Q3 elapsed time with order optimization enabled vs disabled.
pub fn table1(scale: f64, runs: usize) -> Result<(Table1Cell, Table1Cell)> {
    let db = tpcd_db(scale)?;
    let sql = queries::q3_default();
    // The paper's comparison isolates order *reasoning* over the 1996
    // operator inventory (no hash join / hash grouping existed in DB2/CS
    // when the paper was written; Figures 7-8 are pure sort/merge/NLJ).
    let enabled = run_cell(&db, &sql, OptimizerConfig::db2_1996(), runs)?;
    let disabled = run_cell(&db, &sql, OptimizerConfig::db2_1996_disabled(), runs)?;
    Ok((enabled, disabled))
}

/// Compiles once, executes `runs` times through the streaming engine,
/// and reports the best run.
pub fn run_cell(
    db: &Database,
    sql: &str,
    config: OptimizerConfig,
    runs: usize,
) -> Result<Table1Cell> {
    let prepared = Session::new(db).config(config).plan(sql)?;
    let mut best = Duration::MAX;
    let mut rows = 0;
    let mut page_cost = 0.0;
    for _ in 0..runs.max(1) {
        let out = prepared.execute()?;
        best = best.min(out.elapsed);
        rows = out.num_rows();
        page_cost = out.io.weighted_page_cost();
    }
    Ok(Table1Cell {
        elapsed: best,
        page_cost,
        sorts: prepared.plan().count_ops(&is_full_sort),
        rows,
    })
}

/// A full sort: no satisfied prefix (that is a segmented sort), no fused
/// limit (a top-n).
fn is_full_sort(node: &PlanNode) -> bool {
    matches!(
        node,
        PlanNode::Sort {
            prefix_len: 0,
            limit: None,
            ..
        }
    )
}

/// One row of a cost-model calibration report: an operator's estimated
/// self cost against the weighted page cost it actually incurred.
#[derive(Debug, Clone)]
pub struct OpCalibration {
    /// Pre-order plan-node id (matches `PlanMetrics` slots and
    /// `explain_annotated` numbering).
    pub id: usize,
    /// Operator name (`Plan::op_name`).
    pub name: String,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Rows actually produced.
    pub actual_rows: u64,
    /// Estimated self cost, net of children (page-calibrated units).
    pub est_self_cost: f64,
    /// Weighted page cost the operator itself actually charged.
    pub actual_wpc: f64,
    /// True when estimate and actual diverge by more than the report's
    /// factor (and the operator's I/O footprint is at least a page).
    pub flagged: bool,
}

/// Executes `sql` instrumented and compares, per operator, the
/// optimizer's estimated self cost against the
/// [`fto_storage::IoStats::weighted_page_cost`] the operator actually
/// charged. An operator is flagged when the two diverge by more than
/// `factor` in either direction; operators whose footprint stays under
/// one page on both sides are never flagged (pure-CPU operators measure
/// nothing the page model can confirm).
pub fn calibration_report(
    db: &Database,
    sql: &str,
    config: OptimizerConfig,
    factor: f64,
) -> Result<Vec<OpCalibration>> {
    fn walk(p: &Plan, ests: &mut Vec<(String, f64, f64)>) {
        ests.push((p.op_name().to_string(), p.cost.rows, p.self_cost()));
        for c in p.children() {
            walk(c, ests);
        }
    }
    let prepared = Session::new(db).config(config).plan(sql)?;
    let (_, metrics) = prepared.execute_instrumented()?;
    metrics.validate().map_err(FtoError::internal)?;
    let mut ests = Vec::new();
    walk(prepared.plan(), &mut ests);
    let factor = factor.max(1.0);
    let mut out = Vec::with_capacity(ests.len());
    for (id, (name, est_rows, est_self_cost)) in ests.into_iter().enumerate() {
        let own = metrics
            .self_stats(id)
            .ok_or_else(|| FtoError::internal("inconsistent metric attribution"))?;
        let actual_wpc = own.io.weighted_page_cost();
        let material = actual_wpc.max(est_self_cost) >= 1.0;
        let flagged = material
            && (actual_wpc > est_self_cost * factor || est_self_cost > actual_wpc * factor);
        out.push(OpCalibration {
            id,
            name,
            est_rows,
            actual_rows: metrics.ops[id].rows,
            est_self_cost,
            actual_wpc,
            flagged,
        });
    }
    Ok(out)
}

/// The §5.2 enumeration-complexity experiment: planner work vs the number
/// of sort-ahead orders admitted. Returns `(n, plans_generated)` pairs.
pub fn enumeration_complexity(scale: f64, max_orders: usize) -> Result<Vec<(usize, u64)>> {
    let db = tpcd_db(scale)?;
    let sql = queries::q3_default();
    let mut out = Vec::new();
    for n in 0..=max_orders {
        let cfg = OptimizerConfig::default()
            .with_sort_ahead(n > 0)
            .with_max_sort_ahead(n);
        let prepared = Session::new(&db).config(cfg).plan(&sql)?;
        out.push((n, prepared.planner_stats().plans_generated));
    }
    Ok(out)
}

/// Planner work for one statement of [`corpus::join_ladder`].
#[derive(Debug, Clone)]
pub struct PlannerWork {
    /// Statement name.
    pub name: &'static str,
    /// Tables joined.
    pub tables: usize,
    /// Time inside `Planner::plan_query` alone (best of `runs`); parse,
    /// bind, rewrites and the order scan run off the clock.
    pub planner: Duration,
    /// The same under [`OptimizerConfig::disabled`]: `disabled / planner`
    /// is what order optimization costs at plan time (the benchmark's
    /// `planner.order_opt.plan_us_ratio`, per statement).
    pub disabled: Duration,
    /// The default planner's counters (identical on every run).
    pub stats: PlannerStats,
}

/// Planner time and work per join count: every [`corpus::join_ladder`]
/// statement planned `runs` times under the default configuration, and
/// `runs` times with order optimization disabled, alternately.
pub fn planner_work_by_join_count(scale: f64, runs: usize) -> Result<Vec<PlannerWork>> {
    let db = tpcd_db(scale)?;
    let catalog = db.catalog();
    let mut out = Vec::new();
    for (name, tables, sql) in corpus::join_ladder() {
        let mut graph = fto_sql::bind(&fto_sql::parse_query(&sql)?, catalog)?;
        rewrite::push_down_predicates(&mut graph);
        rewrite::merge_views(&mut graph);
        OrderScan::run(&mut graph, catalog);
        let mut work = PlannerWork {
            name,
            tables,
            planner: Duration::MAX,
            disabled: Duration::MAX,
            stats: PlannerStats::default(),
        };
        for _ in 0..runs.max(1) {
            let start = Instant::now();
            let mut planner = Planner::new(&graph, catalog, OptimizerConfig::default());
            std::hint::black_box(planner.plan_query()?);
            work.planner = work.planner.min(start.elapsed());
            work.stats = planner.stats;

            let start = Instant::now();
            let mut planner = Planner::new(&graph, catalog, OptimizerConfig::disabled());
            std::hint::black_box(planner.plan_query()?);
            work.disabled = work.disabled.min(start.elapsed());
        }
        out.push(work);
    }
    out.sort_by_key(|w| w.tables);
    Ok(out)
}

/// One ablation run: Q3 with a single technique disabled.
pub fn ablation(scale: f64) -> Result<Vec<(String, Table1Cell)>> {
    let db = tpcd_db(scale)?;
    let sql = queries::q3_default();
    let configs: Vec<(&str, OptimizerConfig)> = vec![
        ("full (modern: hash ops on)", OptimizerConfig::default()),
        ("1996 inventory, order opt on", OptimizerConfig::db2_1996()),
        (
            "1996, no sort-ahead",
            OptimizerConfig::db2_1996().with_sort_ahead(false),
        ),
        (
            "1996, order opt disabled",
            OptimizerConfig::db2_1996_disabled(),
        ),
        ("modern, order opt disabled", OptimizerConfig::disabled()),
    ];
    let mut out = Vec::new();
    for (name, cfg) in configs {
        out.push((name.to_string(), run_cell(&db, &sql, cfg, 3)?));
    }
    Ok(out)
}

/// The paper's running-example schema (§1 Figure 1 and §6 Figure 6):
/// tables a(x, y), b(x, y), c(x, z) with a key on a.x and indexes on b.x
/// and c.x, loaded with correlated data.
pub fn paper_example_db(rows: i64) -> Result<fto_storage::Database> {
    use fto_catalog::{Catalog, ColumnDef, KeyDef};
    use fto_common::{DataType, Direction, Value};

    let mut cat = Catalog::new();
    let a = cat.create_table(
        "a",
        vec![
            ColumnDef::new("x", DataType::Int),
            ColumnDef::new("y", DataType::Int),
        ],
        vec![KeyDef::primary([0])],
    )?;
    let b = cat.create_table(
        "b",
        vec![
            ColumnDef::new("x", DataType::Int),
            ColumnDef::new("y", DataType::Int),
        ],
        vec![],
    )?;
    cat.create_index("b_x_ix", b, vec![(0, Direction::Asc)], false, true)?;
    let c = cat.create_table(
        "c",
        vec![
            ColumnDef::new("x", DataType::Int),
            ColumnDef::new("z", DataType::Int),
        ],
        vec![],
    )?;
    cat.create_index("c_x_ix", c, vec![(0, Direction::Asc)], false, true)?;

    let mut db = fto_storage::Database::new(cat);
    let int_row = |v: &[i64]| -> fto_common::Row { v.iter().map(|&i| Value::Int(i)).collect() };
    db.load_table(a, (0..rows).map(|i| int_row(&[i, (i * 7) % 100])).collect())?;
    db.load_table(
        b,
        (0..rows * 3)
            .map(|i| int_row(&[i % rows, (i * 13) % 50]))
            .collect(),
    )?;
    db.load_table(
        c,
        (0..rows * 2)
            .map(|i| int_row(&[i % rows, (i * 3) % 25]))
            .collect(),
    )?;
    Ok(db)
}

/// Figure 1's example query over the paper's demo schema.
pub const FIG1_SQL: &str = "select a.y, sum(b.y) from a, b where a.x = b.x group by a.y";

/// Figure 6's example query (§6): one sort-ahead below two joins serves
/// the merge-join, the GROUP BY, and the ORDER BY.
pub const FIG6_SQL: &str = "select a.x, a.y, b.y, sum(c.z) \
     from a, b, c \
     where a.x = b.x and b.x = c.x \
     group by a.x, a.y, b.y \
     order by a.x";

#[cfg(test)]
mod tests {
    use super::*;
    use fto_exec::PreparedQuery;

    #[test]
    fn table1_shape_holds_at_small_scale() {
        let (enabled, disabled) = table1(0.002, 1).unwrap();
        assert_eq!(enabled.rows, disabled.rows);
        // The enabled plan sorts no more than the disabled one.
        assert!(enabled.sorts <= disabled.sorts);
    }

    #[test]
    fn enumeration_grows_with_orders() {
        let points = enumeration_complexity(0.001, 2).unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[2].1 >= points[0].1);
    }

    #[test]
    fn q3_runs_in_both_modes_with_same_rows() {
        let db = tpcd_db(0.002).unwrap();
        let sql = queries::q3_default();
        let enabled = Session::new(&db)
            .config(OptimizerConfig::db2_1996())
            .plan(&sql)
            .unwrap();
        let disabled = Session::new(&db)
            .config(OptimizerConfig::db2_1996_disabled())
            .plan(&sql)
            .unwrap();
        let r1 = enabled.execute().unwrap();
        let r2 = disabled.execute().unwrap();
        // Same answer regardless of optimization.
        assert_eq!(r1.rows(), r2.rows());
        assert!(!r1.rows().is_empty());
        // Output ordered by rev desc, o_orderdate.
        for w in r1.rows().windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let ra = a[1].as_double().unwrap();
            let rb = b[1].as_double().unwrap();
            assert!(
                ra > rb || (ra == rb && a[2].total_cmp(&b[2]).is_le()),
                "order violated"
            );
        }
        // The enabled plan does strictly less sorting work.
        let sorts = |q: &PreparedQuery| q.plan().count_ops(&is_full_sort);
        assert!(sorts(&enabled) <= sorts(&disabled), "{}", enabled.explain());
    }

    #[test]
    fn calibration_report_covers_every_operator() {
        let db = tpcd_db(0.002).unwrap();
        let sql = queries::q3_default();
        let report = calibration_report(&db, &sql, OptimizerConfig::default(), 3.0).unwrap();
        let prepared = Session::new(&db).plan(&sql).unwrap();
        assert_eq!(report.len(), prepared.plan().count_ops(&|_| true));
        assert_eq!(report[0].id, 0);
        // Something in the plan actually touched pages.
        assert!(report.iter().any(|o| o.actual_wpc > 0.0), "{report:?}");
        // CPU-only operators (filters, projects) are never flagged.
        for op in &report {
            if op.actual_wpc < 1.0 && op.est_self_cost < 1.0 {
                assert!(!op.flagged, "{op:?}");
            }
        }
    }

    #[test]
    fn explain_uses_column_names() {
        let db = tpcd_db(0.002).unwrap();
        let q = Session::new(&db).plan(&queries::q3_default()).unwrap();
        let text = q.explain();
        assert!(text.contains("group-by"), "{text}");
        assert!(
            text.contains("rev") || text.contains("o_orderdate"),
            "{text}"
        );
    }

    #[test]
    fn section6_example_runs() {
        let db = tpcd_db(0.002).unwrap();
        let out = Session::new(&db)
            .execute(&queries::section6_example())
            .unwrap();
        assert!(!out.rows().is_empty());
        // Ordered by o_orderkey.
        let mut last = i64::MIN;
        for row in out.rows() {
            let k = row[0].as_int().unwrap();
            assert!(k >= last);
            last = k;
        }
    }
}
