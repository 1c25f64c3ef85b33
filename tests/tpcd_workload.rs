//! The full TPC-D-style workload through the stack, checked for
//! cross-configuration agreement, for the query-level oracle's answer,
//! and for the semantic invariants each query's definition implies.

use fto_bench::answer::{assert_answer, Answer};
use fto_bench::Session;
use fto_planner::OptimizerConfig;
use fto_sql::dates::parse_date;
use fto_storage::Database;
use fto_tpcd::{build_database, queries, TpcdConfig};

fn tpcd() -> Database {
    build_database(TpcdConfig {
        scale: 0.003,
        seed: 77,
    })
    .unwrap()
}

fn configs() -> [OptimizerConfig; 4] {
    [
        OptimizerConfig::default(),
        OptimizerConfig::disabled(),
        OptimizerConfig::db2_1996(),
        OptimizerConfig::db2_1996_disabled(),
    ]
}

/// Runs `sql` under every configuration, checks each run against the
/// oracle's answer and all runs against each other; returns the first
/// run's rows.
fn agree(db: &Database, sql: &str) -> Vec<fto_common::Row> {
    let answer = Answer::of(db, sql);
    let mut reference: Option<Vec<fto_common::Row>> = None;
    for config in configs() {
        let streamed = assert_answer(db, sql, &config, &answer);
        match &reference {
            None => reference = Some(streamed.rows().to_vec()),
            Some(expected) => assert_eq!(
                &streamed.rows(),
                expected,
                "mismatch under {config:?}\n{}",
                Session::new(db)
                    .config(config.clone())
                    .explain(sql)
                    .unwrap()
            ),
        }
    }
    reference.unwrap()
}

#[test]
fn q3_semantics() {
    let db = tpcd();
    let rows = agree(&db, &queries::q3_default());
    assert!(!rows.is_empty());
    let cutoff = parse_date("1995-03-15").unwrap();
    // Every result order predates the cutoff and revenues are positive,
    // sorted descending.
    let mut last_rev = f64::INFINITY;
    for r in &rows {
        let rev = r[1].as_double().unwrap();
        let date = r[2].as_date().unwrap();
        assert!(date < cutoff);
        assert!(rev > 0.0);
        assert!(rev <= last_rev);
        last_rev = rev;
    }
    // l_orderkey values are unique (grouping key).
    let mut keys: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), rows.len());
}

#[test]
fn q1_pricing_summary() {
    let db = tpcd();
    let rows = agree(&db, &queries::q1("1998-09-02"));
    // 3 return flags × 2 statuses = at most 6 groups.
    assert!(!rows.is_empty() && rows.len() <= 6);
    for r in &rows {
        let sum_qty = r[2].as_double().unwrap();
        let count = r[7].as_int().unwrap();
        let avg_qty = r[5].as_double().unwrap();
        assert!(count > 0);
        assert!((sum_qty / count as f64 - avg_qty).abs() < 1e-6);
        let disc_price = r[4].as_double().unwrap();
        let base_price = r[3].as_double().unwrap();
        assert!(disc_price <= base_price);
    }
    // Ordered by (flag, status).
    for w in rows.windows(2) {
        let a = (w[0][0].as_str().unwrap(), w[0][1].as_str().unwrap());
        let b = (w[1][0].as_str().unwrap(), w[1][1].as_str().unwrap());
        assert!(a <= b);
    }
}

#[test]
fn order_report_groups_on_key_without_wide_sort() {
    let db = tpcd();
    let sql = queries::order_report();
    let rows = agree(&db, &sql);
    // One output row per order (o_orderkey is the key).
    let orders = db
        .catalog()
        .stats(db.catalog().table_by_name("orders").unwrap().id)
        .row_count;
    assert_eq!(rows.len() as u64, orders);

    // With order optimization the grouping-on-key redundancy disappears:
    // the widest sort in the plan is at most one column.
    let compiled = Session::new(&db).plan(&sql).unwrap();
    fn widest_sort(plan: &fto_planner::Plan) -> usize {
        let own = match &plan.node {
            fto_planner::PlanNode::Sort {
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
    assert!(widest_sort(compiled.plan()) <= 1, "{}", compiled.explain());
    // Without it, the optimizer must sort on all four grouping columns
    // (or hash); under the 1996 inventory the wide sort is forced.
    let disabled = Session::new(&db)
        .config(OptimizerConfig::db2_1996_disabled())
        .plan(&sql)
        .unwrap();
    assert!(widest_sort(disabled.plan()) >= 4, "{}", disabled.explain());
}

#[test]
fn section6_example_streams() {
    let db = tpcd();
    let rows = agree(&db, &queries::section6_example());
    assert!(!rows.is_empty());
    let mut last = i64::MIN;
    for r in &rows {
        let k = r[0].as_int().unwrap();
        assert!(k >= last);
        last = k;
    }
}

#[test]
fn q3_parameter_variations() {
    let db = tpcd();
    for (date, segment) in [
        ("1994-06-30", "automobile"),
        ("1996-01-01", "machinery"),
        ("1993-12-31", "household"),
    ] {
        let rows = agree(&db, &queries::q3(date, segment));
        let cutoff = parse_date(date).unwrap();
        for r in &rows {
            assert!(r[2].as_date().unwrap() < cutoff);
        }
    }
}

/// RUNSTATS reads the heap's typed columns. On every table the suites
/// plan against — TPC-D and the emp/dept corpus — it must report exactly
/// what the row-at-a-time scan it replaced reported: the size of a
/// `HashSet<Value>` per column and the first-seen smallest and largest
/// value.
#[test]
fn runstats_equal_the_row_at_a_time_scan_on_every_table() {
    use fto_common::Value;
    use std::collections::HashSet;

    for db in [tpcd(), fto_bench::corpus::emp_db()] {
        for table in db.catalog().tables() {
            let rows = db.heap(table.id).unwrap().to_rows();
            let stats = db.catalog().stats(table.id);
            assert_eq!(stats.row_count, rows.len() as u64, "{}", table.name);
            for (c, got) in stats.columns.iter().enumerate() {
                let values = || rows.iter().map(|r| &r[c]).filter(|v| !v.is_null());
                let distinct: HashSet<&Value> = values().collect();
                let min = values().fold(None, |m: Option<&Value>, v| match m {
                    Some(m) if v >= m => Some(m),
                    _ => Some(v),
                });
                let max = values().fold(None, |m: Option<&Value>, v| match m {
                    Some(m) if v <= m => Some(m),
                    _ => Some(v),
                });
                let at = format!("{}.{}", table.name, table.columns[c].name);
                assert_eq!(got.ndv, distinct.len() as u64, "ndv of {at}");
                assert_eq!(
                    format!("{:?}", got.min.as_ref()),
                    format!("{min:?}"),
                    "{at}"
                );
                assert_eq!(
                    format!("{:?}", got.max.as_ref()),
                    format!("{max:?}"),
                    "{at}"
                );
            }
        }
    }
}

#[test]
fn type_errors_surface_when_the_statement_is_planned() {
    // Each of these used to plan. The first two answered `0` (a `sum` or
    // `avg` over a non-numeric argument added 0.0 per row), the third
    // failed at run time on the first row it met — or succeeded, when the
    // filter let no row through — and the fourth's output silently took
    // its first branch's type. Now each is a semantic error from
    // `Session::plan`, naming the expression and the operand types, before
    // a page is read; its well-typed twin still plans and runs.
    let db = build_database(TpcdConfig {
        scale: 0.002,
        seed: 42,
    })
    .unwrap();
    let cases = [
        (
            "select sum(c_name) from customer",
            "sum(c_name): the argument is VARCHAR",
            "select sum(c_acctbal) from customer",
        ),
        (
            "select avg(o_orderdate) from orders",
            "avg(o_orderdate): the argument is DATE",
            "select avg(o_totalprice) from orders",
        ),
        (
            "select c_name + 1 from customer where c_custkey < 0",
            "(c_name + 1): cannot apply + to VARCHAR and INT",
            "select c_custkey + 1 from customer where c_custkey < 0",
        ),
        (
            "select c_name + 1 from customer where c_custkey < 3",
            "(c_name + 1): cannot apply + to VARCHAR and INT",
            "select c_custkey + 1 from customer where c_custkey < 3",
        ),
        (
            "select o_orderkey from orders union select c_name from customer",
            "UNION branch 2 column 1 is VARCHAR where the first branch has INT",
            "select o_orderkey from orders union select c_custkey from customer",
        ),
    ];
    for (ill, says, well) in cases {
        match Session::new(&db).plan(ill) {
            Err(fto_common::FtoError::Semantic(msg)) => {
                assert!(msg.contains(says), "{ill}: {msg}")
            }
            Err(other) => panic!("{ill}: {other:?}"),
            Ok(_) => panic!("{ill}: planned"),
        }
        agree(&db, well);
    }
}
