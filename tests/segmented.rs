//! Differential testing of the segmented (partial) sort enforcer: when
//! the stream below already delivers a prefix of the requested order
//! (clustered index, ordered join output), the planner sorts only within
//! prefix groups — and the output must stay bit-identical to its serial,
//! unbudgeted run across threads and budgets, and be the query-level
//! oracle's answer.

use fto_bench::answer::Answer;
use fto_bench::corpus::emp_db;
use fto_bench::Session;
use fto_planner::OptimizerConfig;
use fto_storage::Database;
use fto_tpcd::{build_database, TpcdConfig};

/// Corpus queries whose cheapest plan orders the stream by a prefix of
/// the requirement, leaving a residual suffix to sort within groups.
/// The ordered prefix comes from a hash join probing the sorted dept
/// side (order property (dept_id) flows through the join).
const EMP_SEGMENTED: &[&str] = &[
    "select emp_dept, dept_id, salary from dept, emp \
     where dept_id = emp_dept order by emp_dept, salary",
    "select emp_dept, dept_id, salary, grade from dept, emp \
     where dept_id = emp_dept order by emp_dept, salary desc, grade",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept \
     order by dept_id, emp_id desc",
];

/// TPC-D: the clustered lineitem index (l_orderkey, l_linenumber)
/// supplies the prefix; only the residual columns are sorted per order.
const TPCD_SEGMENTED: &[&str] = &[
    "select l_orderkey, l_shipdate, l_extendedprice from lineitem \
     order by l_orderkey, l_shipdate",
    "select l_orderkey, l_quantity, l_linenumber from lineitem \
     order by l_orderkey, l_quantity desc, l_linenumber",
];

fn tpcd_db() -> Database {
    build_database(TpcdConfig {
        scale: 0.002,
        seed: 19,
    })
    .unwrap()
}

/// The default plan for each query must actually contain the segmented
/// sort enforcer — otherwise the matrix below silently tests nothing.
fn assert_plan_is_segmented(db: &Database, sql: &str) {
    let prepared = Session::new(db)
        .config(OptimizerConfig::default())
        .plan(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let text = prepared.explain();
    assert!(
        text.contains("segmented-sort"),
        "expected a segmented sort in the default plan\nsql: {sql}\nplan:\n{text}"
    );
}

fn run_matrix(db: &Database, sql: &str) {
    // Baseline: the default plan run serial and unbounded. Every cell must
    // match it byte for byte, and be the oracle's answer.
    let answer = Answer::of(db, sql);
    let baseline = Session::new(db)
        .config(OptimizerConfig::default())
        .execute(sql)
        .unwrap_or_else(|e| panic!("{sql}\nserial baseline: {e}"))
        .rows()
        .to_vec();
    for threads in [1usize, 2, 4] {
        for budget in [None, Some(4usize << 10)] {
            let mut config = OptimizerConfig::default().with_threads(threads);
            if let Some(b) = budget {
                config = config.with_memory_budget(b);
            }
            let prepared = Session::new(db)
                .config(config)
                .plan(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let streamed = prepared
                .execute()
                .unwrap_or_else(|e| panic!("{sql}\nthreads={threads} budget={budget:?}: {e}"));
            assert_eq!(
                streamed.rows(),
                baseline,
                "segmented sort diverged from its serial run\nsql: {sql}\n\
                 threads={threads} budget={budget:?}\nplan:\n{}",
                prepared.explain()
            );
            if let Err(e) = answer.check(streamed.rows()) {
                panic!("wrong answer: {e}\nsql: {sql}\nthreads={threads} budget={budget:?}");
            }
        }
    }
}

#[test]
fn emp_segmented_queries_are_bit_identical_everywhere() {
    let db = emp_db();
    for sql in EMP_SEGMENTED {
        assert_plan_is_segmented(&db, sql);
        run_matrix(&db, sql);
    }
}

#[test]
fn tpcd_clustered_prefix_queries_are_bit_identical_everywhere() {
    let db = tpcd_db();
    for sql in TPCD_SEGMENTED {
        assert_plan_is_segmented(&db, sql);
        run_matrix(&db, sql);
    }
}

#[test]
fn segmented_sort_reports_groups_formed() {
    // Segmented execution counts every finished prefix group; the count
    // reaches EXPLAIN ANALYZE so a user can see the partial sort actually
    // segmented. A segmented sort streams, so it lowers to the same
    // serial operator at every parallel degree: same groups, same I/O.
    let db = emp_db();
    let run = |threads: usize| {
        let q = Session::new(&db)
            .config(OptimizerConfig::default().with_threads(threads))
            .plan(EMP_SEGMENTED[0])
            .unwrap();
        let text = q.explain_analyze().unwrap();
        assert!(text.contains("segmented: groups="), "{text}");
        assert!(text.contains("groups est=12 act=12"), "{text}");
        let out = q.execute().unwrap();
        (out.io, out.segment.groups_formed)
    };
    let serial = run(1);
    assert_eq!(serial.1, 12, "one group per department");
    for threads in [2usize, 4] {
        assert_eq!(run(threads), serial, "threads={threads}");
    }
}

#[test]
fn segmented_sort_under_limit_stops_early() {
    // The streaming property the segmented enforcer buys: it pulls one
    // input batch at a time and emits the groups that batch closes, so a
    // LIMIT above it stops pulling the clustered index scan after the
    // first batch — the rows read are pinned.
    let db = tpcd_db();
    let base = TPCD_SEGMENTED[0];
    let limited_sql = format!("{base} limit 5");
    let full = Session::new(&db)
        .config(OptimizerConfig::default())
        .execute(base)
        .unwrap();
    let prepared = Session::new(&db)
        .config(OptimizerConfig::default())
        .plan(&limited_sql)
        .unwrap();
    assert!(
        prepared.explain().contains("segmented-sort"),
        "plan:\n{}",
        prepared.explain()
    );
    let limited = prepared.execute().unwrap();
    assert_eq!(limited.rows(), &full.rows()[..5]);
    // One 1 024-row batch of the scan closes the five rows' groups.
    assert_eq!(
        (limited.io.rows_read, full.io.rows_read),
        (1024, 12080),
        "limit over a segmented sort must stop pulling the scan after \
         its first batch"
    );
    // The early exit survives parallel degrees: only an enforcer without
    // a satisfied prefix (which drains its input anyway) becomes an
    // exchange, so the same pages are read as serially.
    for threads in [2usize, 4] {
        let parallel = Session::new(&db)
            .config(OptimizerConfig::default().with_threads(threads))
            .execute(&limited_sql)
            .unwrap();
        assert_eq!(parallel.rows(), limited.rows(), "threads={threads}");
        assert_eq!(parallel.io, limited.io, "threads={threads}");
    }
}

#[test]
fn segmented_sort_emits_at_most_one_gather_per_input_batch() {
    // The groups an input batch closes leave together, gathered once in
    // batch-size chunks — not one output batch per prefix group. With
    // ~4 lineitems an order, per-group emission makes ~a quarter as many
    // batches as rows; batch by batch, the closed groups of one input
    // batch plus the group carried into it fill at most two.
    let db = tpcd_db();
    let q = Session::new(&db)
        .config(OptimizerConfig::default().with_batch_size(1024))
        .plan(TPCD_SEGMENTED[0])
        .unwrap();
    let (out, metrics) = q.execute_instrumented().unwrap();
    let seg = metrics
        .ops
        .iter()
        .position(|m| m.name == "segmented-sort")
        .unwrap_or_else(|| panic!("plan:\n{}", q.explain()));
    let input = &metrics.ops[metrics.children[seg][0]];
    let sorted = &metrics.ops[seg];
    assert_eq!(sorted.rows, out.num_rows() as u64);
    assert!(
        sorted.batches <= 2 * input.batches,
        "{} output batches for {} input batches ({} rows, {} groups)",
        sorted.batches,
        input.batches,
        sorted.rows,
        out.segment.groups_formed
    );
}

#[test]
fn oversized_group_falls_back_to_external_sort() {
    // ~33 emp rows per dept group cannot fit a 1 KiB budget, so groups
    // route through the external run former, spill, and still come back
    // bit-identical.
    let db = emp_db();
    let sql = EMP_SEGMENTED[0];
    let baseline = Session::new(&db)
        .config(OptimizerConfig::default())
        .execute(sql)
        .unwrap()
        .rows()
        .to_vec();
    let prepared = Session::new(&db)
        .config(OptimizerConfig::default().with_memory_budget(1 << 10))
        .plan(sql)
        .unwrap();
    assert!(
        prepared.explain().contains("segmented-sort"),
        "plan:\n{}",
        prepared.explain()
    );
    let out = prepared.execute().unwrap();
    assert_eq!(out.rows(), baseline);
    assert!(
        out.io.spill_pages_written > 0,
        "groups exceeding the budget must spill through the run former"
    );
    assert!(out.spill.runs_formed > 0);
    assert!(out.segment.groups_formed > 0);
}
