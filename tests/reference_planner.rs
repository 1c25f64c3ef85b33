//! The reference planner check: pruning never loses the cheapest plan.
//!
//! [`Planner::exhaustive`] searches the planner's own space — the same
//! join steps, access paths and every interesting order — but builds
//! sort-ahead over every candidate and prunes a plan only for one that
//! is no dearer with exactly the same order, predicates and columns.
//! Its root cost is thus the least the space holds. The
//! planner prunes far harder: `<=` dominance (paper §5.2.1), with an
//! order counting only up to its useful prefix, and one sort-ahead
//! variant per interesting order. For every statement below, under each
//! configuration, the planner's root cost must equal the reference's bit
//! for bit. Tied costs may pick different plans, so costs are compared,
//! not plans.

use fto_bench::corpus::{emp_db, join_ladder, wide_joins, EMP_QUERIES, UNREWRITTEN_QUERIES};
use fto_bench::fuzz::{fuzz_db, generated_queries};
use fto_bench::harness::tpcd_db;
use fto_planner::{OptimizerConfig, Plan, Planner, PlannerStats};
use fto_qgm::{rewrite, OrderScan};
use fto_sql::{bind, parse_query};
use fto_storage::Database;

/// The planner golden test's three configurations, and the one that
/// plans merge joins and stream group-bys.
fn configs() -> [(&'static str, OptimizerConfig); 4] {
    [
        ("default", OptimizerConfig::default()),
        ("disabled", OptimizerConfig::disabled()),
        (
            "budget-64k",
            OptimizerConfig::default().with_memory_budget(64 << 10),
        ),
        ("db2_1996", OptimizerConfig::db2_1996()),
    ]
}

/// `sql` planned over one graph (bound, rewritten and order-scanned as a
/// session does) by the planner and by the reference planner.
fn plan_both(db: &Database, sql: &str, cfg: &OptimizerConfig) -> [(Plan, PlannerStats); 2] {
    let catalog = db.catalog();
    let ast = parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut graph = bind(&ast, catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
    rewrite::push_down_predicates(&mut graph);
    rewrite::merge_views(&mut graph);
    OrderScan::run(&mut graph, catalog);
    [false, true].map(|exhaustive| {
        let mut planner = Planner::new(&graph, catalog, cfg.clone());
        if exhaustive {
            planner = planner.exhaustive();
        }
        let plan = planner
            .plan_query()
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        (plan, planner.stats)
    })
}

/// Checks every statement of `statements` under every configuration.
fn check<'s>(db: &Database, statements: impl IntoIterator<Item = (String, &'s str)>) {
    for (label, sql) in statements {
        for (cfg_name, cfg) in configs() {
            let [(plan, _), (reference, _)] = plan_both(db, sql, &cfg);
            assert_eq!(
                plan.cost.total.to_bits(),
                reference.cost.total.to_bits(),
                "{label} | {cfg_name}: the planner's root costs {}, the reference's {}\n{sql}\n\
                 planner:\n{}\nreference:\n{}",
                plan.cost.total,
                reference.cost.total,
                plan.explain(&|c| c.to_string()),
                reference.explain(&|c| c.to_string()),
            );
        }
    }
}

#[test]
fn join_ladder_matches_the_reference() {
    let db = tpcd_db(0.002).unwrap();
    let ladder = join_ladder();
    check(
        &db,
        ladder
            .iter()
            .map(|(n, _, sql)| (n.to_string(), sql.as_str())),
    );
}

#[test]
fn wide_joins_match_the_reference() {
    let db = tpcd_db(0.002).unwrap();
    let wide = wide_joins();
    check(
        &db,
        wide.iter().map(|(n, _, sql)| (n.to_string(), sql.as_str())),
    );
}

#[test]
fn emp_corpus_matches_the_reference() {
    let db = emp_db();
    let corpus = EMP_QUERIES.iter().enumerate();
    check(&db, corpus.map(|(i, sql)| (format!("corpus[{i}]"), *sql)));
    let unrewritten = UNREWRITTEN_QUERIES.iter().enumerate();
    check(
        &db,
        unrewritten.map(|(i, sql)| (format!("unrewritten[{i}]"), *sql)),
    );
}

#[test]
fn fuzzer_statements_match_the_reference() {
    let db = fuzz_db();
    let statements: Vec<String> = generated_queries().iter().map(|q| q.sql()).collect();
    check(
        &db,
        statements
            .iter()
            .enumerate()
            .map(|(i, sql)| (format!("fuzz[{i}]"), sql.as_str())),
    );
}

/// The reference searches the space the planner prunes: on `j5` it
/// builds a sorted copy of every candidate and keeps every plan whose
/// properties differ, so it generates and keeps more.
#[test]
fn the_reference_searches_more_than_the_planner() {
    let db = tpcd_db(0.002).unwrap();
    let (_, _, j5) = join_ladder().pop().unwrap();
    let [(_, planner), (_, reference)] = plan_both(&db, &j5, &OptimizerConfig::default());
    assert!(
        reference.plans_generated > 2 * planner.plans_generated,
        "planner {planner}\nreference {reference}"
    );
    assert!(reference.sort_ahead_variants > planner.sort_ahead_variants);
    assert!(reference.joins_considered > planner.joins_considered);
}
