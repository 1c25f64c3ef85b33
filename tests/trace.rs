//! Optimizer-trace and metrics-registry contracts:
//!
//! * **determinism** — `EXPLAIN OPTIMIZER` output is byte-identical
//!   across repeated runs and across executor thread counts, for every
//!   query in the differential corpus, and for sessions planning at the
//!   same time on other threads;
//! * **tracing only observes** — a planner that keeps a log and one that
//!   does not make the same decisions and count the same work, the log
//!   holds each decision exactly once, and sessions without
//!   observability keep no log and return identical rows;
//! * **reconciliation** — the registry's counters equal the summed
//!   per-query `IoStats` / `PlannerStats` totals exactly, every planner
//!   counter included;
//! * **acceptance** — `EXPLAIN OPTIMIZER` on TPC-D Q3 shows sort-ahead
//!   variants and the pruning decision for each discarded plan; the
//!   four- to six-table joins keep decisions only, and the ring says
//!   exactly how many it dropped;
//! * **slow log** — queries past the threshold are captured with their
//!   SQL, plan, and optimizer trace; *misestimated* queries (worst
//!   per-operator Q-error past `ObsOptions::qerror_threshold`) are
//!   admitted even when fast, carrying the worst-offender operator.

use fto_bench::corpus::{emp_db, join_ladder, EMP_QUERIES};
use fto_bench::harness::tpcd_db;
use fto_bench::{ObsOptions, Observability, Session};
use fto_catalog::{Catalog, ColumnDef, KeyDef};
use fto_common::{DataType, Value};
use fto_obs::{Trace, TraceEvent};
use fto_planner::{OptimizerConfig, Planner, PlannerStats};
use fto_qgm::{rewrite, OrderScan};
use fto_sql::{bind, parse_query};
use fto_storage::Database;
use fto_tpcd::{build_database, queries, TpcdConfig};
use std::time::Duration;

/// Every [`PlannerStats`] field under the name `\\metrics` gives it.
/// Exhaustive: a field added to the struct fails to compile here.
fn planner_fields(s: &PlannerStats) -> [(&'static str, u64); 10] {
    let PlannerStats {
        joins_considered,
        plans_generated,
        plans_pruned,
        sorts_added,
        sorts_avoided,
        partial_sorts,
        sort_ahead_variants,
        boxes_planned,
        contexts_built,
        reduce_memo_hits,
    } = *s;
    [
        ("joins_considered", joins_considered),
        ("plans_generated", plans_generated),
        ("plans_pruned", plans_pruned),
        ("sorts_added", sorts_added),
        ("sorts_avoided", sorts_avoided),
        ("partial_sorts", partial_sorts),
        ("sort_ahead_variants", sort_ahead_variants),
        ("boxes_planned", boxes_planned),
        ("contexts_built", contexts_built),
        ("reduce_memo_hits", reduce_memo_hits),
    ]
}

/// Events a traced planning run records: every counted decision once,
/// plus a span end and a "plans kept" note per box.
fn decisions(s: &PlannerStats) -> u64 {
    3 * s.boxes_planned
        + s.plans_generated
        + s.plans_pruned
        + s.sorts_added
        + s.sorts_avoided
        + s.partial_sorts
        + s.sort_ahead_variants
}

#[test]
fn explain_optimizer_is_deterministic_across_threads_and_runs() {
    let db = emp_db();
    for sql in EMP_QUERIES {
        let mut reference: Option<String> = None;
        for threads in [1usize, 2, 4] {
            for _run in 0..2 {
                let text = Session::new(&db)
                    .config(OptimizerConfig::default().with_threads(threads))
                    .plan_traced(sql)
                    .unwrap_or_else(|e| panic!("{sql}: {e}"))
                    .explain_optimizer();
                match &reference {
                    None => reference = Some(text),
                    Some(expect) => assert_eq!(
                        expect, &text,
                        "EXPLAIN OPTIMIZER diverged at threads={threads}\nsql: {sql}"
                    ),
                }
            }
        }
    }
}

#[test]
fn explain_optimizer_is_deterministic_on_tpcd() {
    let db = build_database(TpcdConfig {
        scale: 0.003,
        seed: 77,
    })
    .unwrap();
    let sql = queries::q3_default();
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 4] {
        let text = Session::new(&db)
            .config(OptimizerConfig::default().with_threads(threads))
            .plan_traced(&sql)
            .unwrap()
            .explain_optimizer();
        match &reference {
            None => reference = Some(text),
            Some(expect) => assert_eq!(expect, &text, "diverged at threads={threads}"),
        }
    }
}

#[test]
fn disabled_path_records_no_events_and_identical_rows() {
    let db = emp_db();
    let obs = Observability::default();
    for sql in EMP_QUERIES {
        // Observed session first: rows to compare against, trace on.
        let observed = Session::new(&db)
            .observe(obs.clone())
            .execute(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));

        // Plain session: nobody asked the planner for a log, so the
        // compiled query carries none.
        let plain = Session::new(&db)
            .plan(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert!(
            plain.trace().is_none(),
            "tracing-disabled planning recorded events\nsql: {sql}"
        );
        assert_eq!(
            observed.rows(),
            plain.execute().unwrap().rows(),
            "observability changed query results\nsql: {sql}"
        );
    }
}

#[test]
fn tracing_only_observes_planning() {
    // The join ladder and the corpus, planned by a planner that keeps a
    // log and by one that does not: same counters, same plan with the
    // same properties, and the log holds every decision exactly once.
    let tpcd = tpcd_db(0.002).unwrap();
    let emp = emp_db();
    let ladder = join_ladder();
    let cases = ladder
        .iter()
        .map(|(_, _, sql)| (&tpcd, sql.as_str()))
        .chain(EMP_QUERIES.iter().map(|sql| (&emp, *sql)));
    for (db, sql) in cases {
        let catalog = db.catalog();
        let mut graph = bind(&parse_query(sql).unwrap(), catalog).unwrap();
        rewrite::push_down_predicates(&mut graph);
        rewrite::merge_views(&mut graph);
        OrderScan::run(&mut graph, catalog);

        let mut plain = Planner::new(&graph, catalog, OptimizerConfig::default());
        let plain_plan = plain.plan_query().unwrap();
        assert!(plain.take_trace().is_none(), "{sql}");
        assert!(plain.stats.plans_generated > 0 && plain.stats.boxes_planned > 0);

        let mut traced = Planner::new(&graph, catalog, OptimizerConfig::default()).traced();
        let traced_plan = traced.plan_query().unwrap();
        assert_eq!(traced.stats, plain.stats, "{sql}");
        let name = |c: fto_common::ColId| c.to_string();
        assert_eq!(
            traced_plan.explain_properties(&name),
            plain_plan.explain_properties(&name),
            "{sql}"
        );
        let trace = traced.take_trace().expect("asked to trace");
        assert_eq!(
            trace.events().len() as u64 + trace.dropped(),
            decisions(&traced.stats),
            "{sql}"
        );
    }
}

#[test]
fn registry_reconciles_exactly_with_session_totals() {
    let db = emp_db();
    let obs = Observability::default();
    let session = Session::new(&db).observe(obs.clone());

    let mut queries_run = 0u64;
    let mut rows_out = 0u64;
    let mut io = fto_storage::IoStats::default();
    let mut planned = Vec::new();
    for sql in EMP_QUERIES {
        let out = session
            .execute(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        queries_run += 1;
        rows_out += out.num_rows() as u64;
        io.merge(&out.io);
        planned.push(out.planner);
    }

    let r = obs.registry();
    assert_eq!(r.counter("session.queries"), queries_run);
    assert_eq!(r.counter("session.rows"), rows_out);
    assert_eq!(
        r.counter("session.io.sequential_pages"),
        io.sequential_pages
    );
    assert_eq!(r.counter("session.io.random_pages"), io.random_pages);
    assert_eq!(r.counter("session.io.index_pages"), io.index_pages);
    assert_eq!(r.counter("session.io.sort_rows"), io.sort_rows);
    assert_eq!(r.counter("session.io.rows_read"), io.rows_read);
    // Every planner counter, not a hand-picked few.
    let mut totals = planner_fields(&PlannerStats::default());
    for stats in &planned {
        for (total, (_, value)) in totals.iter_mut().zip(planner_fields(stats)) {
            total.1 += value;
        }
    }
    for (field, total) in totals {
        assert!(total > 0, "{field} never moved");
        assert_eq!(r.counter(&format!("planner.{field}")), total, "{field}");
    }
    assert_eq!(
        obs.metrics_snapshot()
            .lines()
            .filter(|l| l.starts_with("counter planner."))
            .count(),
        totals.len()
    );

    let latency = r
        .histogram("query.latency_us")
        .expect("latency histogram exists");
    assert_eq!(latency.count, queries_run);
    let rows_hist = r.histogram("query.rows").expect("rows histogram exists");
    assert_eq!(rows_hist.sum, rows_out);
}

#[test]
fn q3_trace_shows_sort_ahead_and_pruning() {
    let db = build_database(TpcdConfig {
        scale: 0.003,
        seed: 77,
    })
    .unwrap();
    let prepared = Session::new(&db)
        .plan_traced(&queries::q3_default())
        .unwrap();
    let stats = prepared.planner_stats();
    let trace = prepared.trace().expect("forced trace").clone();
    assert_eq!(trace.dropped(), 0, "Q3's trace must fit the default ring");
    assert!(
        stats.sort_ahead_variants >= 1,
        "Q3 must consider at least one sort-ahead variant\n{}",
        trace.render()
    );
    let pruned = trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::PlanPruned { .. }))
        .count();
    assert_eq!(
        pruned as u64, stats.plans_pruned,
        "every discarded plan must have its pruning decision traced"
    );
    let text = prepared.explain_optimizer();
    assert!(text.contains("sort-ahead"), "{text}");
    assert!(text.contains("pruned:"), "{text}");
    assert!(text.contains("dominated by"), "{text}");
    assert!(text.contains("summary:"), "{text}");
}

#[test]
fn join_ladder_traces_hold_decisions_only() {
    // The order algebra runs hundreds of thousands of times under j5;
    // those calls are counted, not logged, so the ring holds decisions
    // only: all of j4's, j5's and a six-table chain's. A ring too small
    // for a log keeps its newest events and counts the rest as dropped.
    // The closing lines come from counters and stay exact.
    let db = tpcd_db(0.002).unwrap();
    let ladder = join_ladder();
    let traced = |sql: &str| Session::new(&db).plan_traced(sql).unwrap();
    let rung = |name: &str| {
        let (_, _, sql) = ladder.iter().find(|(n, _, _)| *n == name).unwrap();
        traced(sql)
    };

    // While every subset grew by every missing quantifier, j4 logged
    // 54 799 decisions and j5 overflowed: 157 901, 92 365 dropped. While
    // sort-ahead built a sorted copy of every candidate, j4 logged 25 613
    // and j5 47 620; while dominance compared whole orders, not their
    // useful prefixes, 4 995 and 9 172; while sort-ahead served only the
    // first four interesting orders, j5 logged 4 424; while one join
    // subset could carry two row estimates, 2 744 and 4 612.
    for (name, logged) in [("j4", 2_341), ("j5", 3_836)] {
        let q = rung(name);
        let trace = q.trace().expect("forced trace");
        assert_eq!(
            (trace.events().len(), trace.dropped()),
            (logged, 0),
            "{name}"
        );
        assert_eq!(decisions(&q.planner_stats()), logged as u64, "{name}");
        assert!(!q.explain_optimizer().contains("events dropped"), "{name}");
    }

    // The six-table chain overflowed the ring (71 219 decisions, 5 683
    // dropped) while sort-ahead built a sorted copy of every candidate.
    // While dominance compared whole orders it logged 13 239 decisions:
    // 5 309 plans generated, 5 107 pruned, 2 324 sorts added, 401 avoided,
    // 1 316 joins considered; reduce=134614 test=44670 homogenize=14508.
    // While sort-ahead served only the first four interesting orders it
    // logged 6 868: 2 741 plans generated, 2 604 pruned, 1 150 sorts
    // added, 275 avoided, none segmented, 89 sort-ahead variants, 666
    // joins considered; reduce=59649 test=17137 homogenize=8686, and the
    // 4 096-event ring dropped 2 772. While a grouping asked
    // `FlexOrder::satisfied_by`'s own walk and then concretized, not one
    // walk and Test Order: reduce=76366 test=20687. While one join subset
    // could carry two row estimates it logged 7 604: 3 017 plans
    // generated, 2 863 pruned, 1 281 sorts added, 305 avoided, 729 joins
    // considered; reduce=76372 test=20691 homogenize=14091, and the
    // 4 096-event ring dropped 3 508.
    let j6 = traced(
        "select r_name, n_name, s_name, c_name, sum(l_extendedprice) as total \
         from customer, orders, lineitem, nation, supplier, region \
         where c_custkey = o_custkey and o_orderkey = l_orderkey \
         and c_nationkey = n_nationkey and l_suppkey = s_suppkey \
         and n_regionkey = r_regionkey and o_orderdate < date('1995-05-01') \
         group by r_name, n_name, s_name, c_name \
         order by r_name, n_name, s_name",
    );
    let trace = j6.trace().expect("forced trace");
    assert_eq!(decisions(&j6.planner_stats()), 6_415);
    assert_eq!((trace.events().len(), trace.dropped()), (6_415, 0));
    let text = j6.explain_optimizer();
    assert!(!text.contains("events dropped"));
    let closing: Vec<&str> = text.lines().rev().take(3).collect();
    assert_eq!(
        closing[2],
        "summary: boxes=3 | plans generated=2533 kept<=133 pruned=2400 | \
         sorts added=1075 avoided=269 segmented=10 | sort-ahead variants=119"
    );
    assert_eq!(
        closing[1],
        "order ops: reduce=61212 test=15844 cover=15 homogenize=11947"
    );
    assert!(closing[0].starts_with("planner work: joins considered=608 |"));

    // The same log through a ring of 4 096: the newest 4 096 events stay,
    // in order, and the rendering says how many it dropped.
    let mut ring = Trace::new(4_096);
    for event in trace.events() {
        ring.push(event.clone());
    }
    assert_eq!((ring.events().len(), ring.dropped()), (4_096, 2_319));
    assert!(ring.events().iter().eq(trace.events().iter().skip(2_319)));
    assert!(
        ring.render()
            .ends_with("... 2319 earlier events dropped (ring full)\n"),
        "the ring must say how many it dropped"
    );
}

#[test]
fn concurrent_sessions_trace_their_own_planning() {
    // The log is a field of the planner that fills it and the order-op
    // counts are per thread, so what a session reports is what its own
    // planning did — whatever other sessions are planning. Q3 and fig6
    // planned alone, then on 2 and 4 threads at once (a barrier lines the
    // rounds up so the compilations overlap): every EXPLAIN OPTIMIZER is
    // byte-equal to the solo run's.
    let db = tpcd_db(0.002).unwrap();
    let ladder = join_ladder();
    let cases: Vec<&str> = ladder
        .iter()
        .filter(|(name, _, _)| ["q3", "fig6"].contains(name))
        .map(|(_, _, sql)| sql.as_str())
        .collect();
    assert_eq!(cases.len(), 2);
    let run = |sql: &str| {
        Session::new(&db)
            .plan_traced(sql)
            .unwrap()
            .explain_optimizer()
    };
    let solo: Vec<String> = cases.iter().map(|sql| run(sql)).collect();
    assert!(solo.iter().all(|text| text.contains("order ops: reduce=")));

    const ROUNDS: usize = 4;
    for threads in [2usize, 4] {
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        for (sql, want) in cases.iter().zip(&solo) {
                            assert!(run(sql) == *want, "x{threads}: {sql}");
                        }
                    }
                });
            }
        });
    }
}

#[test]
fn slow_log_captures_sql_plan_and_trace() {
    let db = emp_db();
    let obs = Observability::new(ObsOptions {
        slow_query_threshold: Duration::ZERO,
        ..ObsOptions::default()
    });
    let session = Session::new(&db).observe(obs.clone());
    let sql = EMP_QUERIES[2];
    session.execute(sql).unwrap();
    assert_eq!(obs.slow_log().total_recorded(), 1);
    let rendered = obs.slow_log().render();
    assert!(rendered.contains(sql), "{rendered}");
    assert!(rendered.contains("optimizer trace:"), "{rendered}");
    assert!(rendered.contains("summary:"), "{rendered}");
    assert_eq!(obs.registry().counter("session.slow_queries"), 1);
}

/// Two perfectly correlated columns (`v = k`): a conjunction over both
/// defeats the independence assumption, so the planner's estimate is the
/// single-conjunct selectivity squared while the true selectivity is
/// that of one conjunct.
fn correlated_db() -> Database {
    let mut cat = Catalog::new();
    let t = cat
        .create_table(
            "t",
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    let mut db = Database::new(cat);
    db.load_table(
        t,
        (0..100)
            .map(|i| vec![Value::Int(i), Value::Int(i)].into_boxed_slice())
            .collect(),
    )
    .unwrap();
    db
}

#[test]
fn misestimated_fast_query_lands_in_the_slow_log() {
    let db = correlated_db();
    // Latency can never trip the gate (an hour); only misestimation can.
    let obs = Observability::new(ObsOptions {
        slow_query_threshold: Duration::from_secs(3600),
        qerror_threshold: 2.0,
    });
    let session = Session::new(&db).observe(obs.clone());

    // Well-estimated query first: a full scan's cardinality is exact, so
    // nothing is admitted.
    session.execute("select k from t order by k").unwrap();
    assert_eq!(obs.slow_log().total_recorded(), 0);
    assert_eq!(obs.registry().counter("session.misestimated"), 0);

    // The correlated conjunction underestimates by ~4x — admitted despite
    // finishing far under the latency threshold.
    let sql = "select k from t where k < 25 and v < 25 order by k";
    session.execute(sql).unwrap();
    assert_eq!(obs.slow_log().total_recorded(), 1);
    assert_eq!(obs.registry().counter("session.misestimated"), 1);
    let rendered = obs.slow_log().render();
    assert!(rendered.contains(sql), "{rendered}");
    assert!(
        rendered.contains("worst estimate: "),
        "the worst-offender operator must be identified:\n{rendered}"
    );
    assert!(rendered.contains("act=25"), "{rendered}");
    // The registry saw the misestimate too: the Q-error histogram has
    // both queries, and per-operator-kind counters flag the offenders
    // (both the filter and the projection above it carry the squared
    // selectivity).
    let qerr = obs
        .registry()
        .histogram("query.qerror")
        .expect("qerror histogram exists");
    assert_eq!(qerr.count, 2);
    let flagged =
        obs.registry().counter("qerror.filter") + obs.registry().counter("qerror.project");
    assert!(flagged >= 1, "no per-operator misestimate counter bumped");
}
