//! Tests of the accounting stream and the per-operator metrics layer: the
//! rollup invariant (every operator's self delta sums exactly to the
//! session totals, for every counter: pages, sort work, spill work,
//! segment groups) across the differential corpus, a query's counters
//! being its own under concurrent sessions, the lazy index scan's bounded
//! accounting under LIMIT, and the EXPLAIN ANALYZE rendering end to end.

use fto_bench::{Observability, QueryOutput, Session, StatementOutput};
use fto_catalog::{Catalog, ColumnDef, KeyDef};
use fto_common::{DataType, Direction, Value};
use fto_exec::ExecStats;
use fto_planner::OptimizerConfig;
use fto_storage::{Database, IndexScanState, IoStats};
use fto_tpcd::{build_database, queries, TpcdConfig};

/// The emp/dept schema from tests/differential.rs, verbatim.
fn emp_db() -> Database {
    let mut cat = Catalog::new();
    let dept = cat
        .create_table(
            "dept",
            vec![
                ColumnDef::new("dept_id", DataType::Int),
                ColumnDef::new("dept_name", DataType::Str),
                ColumnDef::new("budget", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    let emp = cat
        .create_table(
            "emp",
            vec![
                ColumnDef::new("emp_id", DataType::Int),
                ColumnDef::new("emp_dept", DataType::Int),
                ColumnDef::new("salary", DataType::Int),
                ColumnDef::new("grade", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    cat.create_index("emp_dept_ix", emp, vec![(1, Direction::Asc)], false, false)
        .unwrap();
    cat.create_index(
        "emp_grade_ix",
        emp,
        vec![(3, Direction::Asc), (0, Direction::Asc)],
        false,
        false,
    )
    .unwrap();
    let mut db = Database::new(cat);
    db.load_table(
        dept,
        (0..12)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(format!("dept{i}")),
                    Value::Int(1000 * (i % 5)),
                ]
                .into_boxed_slice()
            })
            .collect(),
    )
    .unwrap();
    db.load_table(
        emp,
        (0..400)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 12),
                    Value::Int(30_000 + (i * 97) % 50_000),
                    Value::Int(i % 5),
                ]
                .into_boxed_slice()
            })
            .collect(),
    )
    .unwrap();
    db
}

/// The differential corpus from tests/differential.rs, verbatim.
const EMP_QUERIES: &[&str] = &[
    "select emp_id, salary from emp where grade = 3 order by emp_id",
    "select emp_id, grade from emp where emp_dept = 2 order by grade desc, emp_id",
    "select dept_name, count(*) as n, sum(salary) as total \
     from dept, emp where dept_id = emp_dept group by dept_name order by dept_name",
    "select dept_id, dept_name, budget, count(*) as n from dept, emp \
     where dept_id = emp_dept group by dept_id, dept_name, budget order by dept_id",
    "select distinct grade from emp order by grade",
    "select distinct emp_dept, grade from emp order by emp_dept, grade",
    "select v.emp_id, v.salary from \
     (select emp_id, salary from emp where grade = 1) as v order by v.emp_id",
    "select emp_dept, sum(salary * 2) as double_pay, avg(salary) as pay, \
     min(salary) as lo, max(salary) as hi from emp group by emp_dept order by emp_dept",
    "select emp_dept, count(distinct grade) as g from emp group by emp_dept order by emp_dept",
    "select emp_id from emp where salary >= 40000 and salary < 60000 and grade <> 0 \
     order by emp_id",
    "select e.emp_id, d.dept_name, b.emp_id from emp e, dept d, emp b \
     where e.emp_dept = d.dept_id and b.emp_id = e.emp_id order by e.emp_id",
    "select emp_id, salary from emp order by salary desc, emp_id limit 7",
    "select emp_id from emp limit 5",
    "select grade from emp where grade < 2 union all select grade from emp where grade < 2 \
     order by 1",
    "select grade from emp where grade < 2 union select grade from emp where grade < 2 \
     order by 1",
    "select emp_id from emp where grade = 0 union all select emp_id from emp where grade = 1 \
     order by emp_id desc limit 4",
    "select emp_dept, count(*) as n from emp group by emp_dept having count(*) > 33 \
     order by emp_dept",
    "select emp_dept, count(*) as n from emp group by emp_dept having min(salary) < 31000 \
     order by emp_dept",
    "select emp_dept, count(*) as n from emp group by emp_dept having emp_dept * 2 >= 20 \
     order by emp_dept",
    "select dept_name, emp_id from dept join emp on dept_id = emp_dept order by emp_id",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept and grade = 9 \
     order by dept_id",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept and emp_id < 3 \
     order by dept_id, emp_id",
    "select dept_id, count(emp_id) as n from dept \
     left join emp on dept_id = emp_dept and grade = 0 group by dept_id order by dept_id",
    "select count(*) as n, sum(salary) as s from emp where grade = 99",
    "select dept_id, emp_id from dept \
     left join emp on dept_id = emp_dept and grade = 0 and emp_id < 50 \
     where emp_id is null order by dept_id",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept and grade = 9 \
     where emp_id is not null order by dept_id",
    "select emp_id, emp_dept from emp \
     where emp_dept in (select dept_id from dept where budget = 0) order by emp_id",
    "select dept_id from dept where dept_id in (select emp_dept from emp where grade = 1) \
     order by dept_id",
    "select emp_id from emp where grade = 99 order by emp_id",
    "select grade, emp_id from emp where grade = 2 order by grade, emp_id",
];

/// Queries whose default plan sorts within the groups of a prefix the
/// join already delivers (from tests/segmented.rs): the corpus above has
/// no segmented sort, and `segment.groups_formed` is under the invariant
/// too.
const SEGMENTED_QUERIES: &[&str] = &[
    "select emp_dept, dept_id, salary from dept, emp \
     where dept_id = emp_dept order by emp_dept, salary",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept \
     order by dept_id, emp_id desc",
];

fn all_configs() -> Vec<OptimizerConfig> {
    vec![
        OptimizerConfig::default(),
        OptimizerConfig::disabled(),
        OptimizerConfig::db2_1996(),
        OptimizerConfig::db2_1996_disabled(),
        OptimizerConfig::default().with_sort_ahead(false),
        OptimizerConfig::default()
            .with_hash_join(false)
            .with_nested_loop(false),
        OptimizerConfig::default().with_batch_size(1),
        OptimizerConfig::default().with_batch_size(17),
        // Spill counters and exchange-worker merges under the invariant.
        OptimizerConfig::default().with_memory_budget(4 << 10),
        OptimizerConfig::default().with_threads(2),
    ]
}

/// The session totals of one execution, as the stream they were copied
/// out of.
fn totals(out: &QueryOutput) -> ExecStats {
    ExecStats {
        io: out.io,
        sort: out.sort,
        spill: out.spill,
        segment: out.segment,
    }
}

/// Checks one (query, configuration) cell; returns how many segmented
/// sorts its plan ran.
fn assert_metrics_account_for_everything(
    db: &Database,
    sql: &str,
    config: OptimizerConfig,
) -> usize {
    let prepared = Session::new(db)
        .config(config.clone())
        .plan(sql)
        .unwrap_or_else(|e| panic!("{sql}\nunder {config:?}: {e}"));
    let (out, metrics) = prepared
        .execute_instrumented()
        .unwrap_or_else(|e| panic!("{sql}\nunder {config:?}: {e}"));
    // Instrumentation must not change the answer, or what it cost.
    let plain = prepared.execute().unwrap();
    assert_eq!(out.rows(), plain.rows(), "{sql}\nunder {config:?}");
    assert_eq!(totals(&out), totals(&plain), "{sql}\nunder {config:?}");
    // The rollup invariant: per-operator self deltas are well-defined and
    // sum exactly to the session totals, counter by counter.
    metrics.validate().unwrap_or_else(|e| {
        panic!(
            "{sql}\nunder {config:?}: {e}\nplan:\n{}",
            prepared.explain()
        )
    });
    assert_eq!(metrics.total(), totals(&out), "{sql}\nunder {config:?}");
    // Only a segmented sort forms groups, and the count EXPLAIN ANALYZE
    // prints next to the estimate is that node's own.
    let mut segmented = 0;
    for (id, op) in metrics.ops.iter().enumerate() {
        let groups = metrics.self_stats(id).unwrap().segment.groups_formed;
        match op.est_groups {
            Some(est) => {
                segmented += 1;
                let text = prepared.explain_analyze().unwrap();
                let want = format!("groups est={est} act={groups}");
                assert!(text.contains(&want), "{sql}\nno `{want}` in\n{text}");
            }
            None => assert_eq!(groups, 0, "{sql}\n{} formed groups", op.name),
        }
    }
    // The root operator's row count is the result row count.
    assert_eq!(metrics.ops[0].rows as usize, out.num_rows(), "{sql}");
    // One metric slot per plan operator.
    assert_eq!(metrics.len(), prepared.plan().count_ops(&|_| true), "{sql}");
    segmented
}

#[test]
fn per_operator_deltas_sum_to_session_totals_across_corpus() {
    let db = emp_db();
    let mut segmented = 0;
    for sql in EMP_QUERIES.iter().chain(SEGMENTED_QUERIES) {
        for config in all_configs() {
            segmented += assert_metrics_account_for_everything(&db, sql, config);
        }
    }
    assert!(
        segmented >= SEGMENTED_QUERIES.len(),
        "no segmented sort ran"
    );
}

#[test]
fn per_operator_deltas_sum_to_session_totals_on_tpcd() {
    let db = build_database(TpcdConfig {
        scale: 0.003,
        seed: 77,
    })
    .unwrap();
    let workload = [
        queries::q3_default(),
        queries::q1("1998-09-02"),
        queries::order_report(),
        queries::section6_example(),
    ];
    for sql in &workload {
        for config in [
            OptimizerConfig::default(),
            OptimizerConfig::db2_1996(),
            OptimizerConfig::default().with_batch_size(13),
        ] {
            assert_metrics_account_for_everything(&db, sql, config);
        }
    }
}

#[test]
fn concurrent_sessions_report_their_own_work() {
    // The counters ride the stream each execution threads through its own
    // operators, so what a query reports is what it did — whatever other
    // sessions are doing. A spilling sort, a segmented sort and a spilling
    // hash group-by run alone, then on 2 and 4 threads at once (a barrier
    // lines the rounds up so the executions overlap): every output's
    // counters equal the solo run's, and a handle shared by the threads
    // ends up with exactly the sum.
    let db = emp_db();
    let tight = OptimizerConfig::default().with_memory_budget(1 << 10);
    let cases = [
        (
            "select emp_id, salary from emp order by salary desc, emp_id",
            tight.clone(),
        ),
        (
            "select emp_dept, dept_id, salary from dept, emp \
             where dept_id = emp_dept order by emp_dept, salary",
            OptimizerConfig::default(),
        ),
        (
            "select emp_id, sum(salary) as s, count(*) as n from emp group by emp_id",
            tight,
        ),
    ];
    let run = |obs: &Observability, (sql, config): &(&str, OptimizerConfig)| {
        let session = Session::new(&db).config(config.clone());
        totals(&session.observe(obs.clone()).execute(sql).unwrap())
    };
    let alone = Observability::default();
    let solo: Vec<ExecStats> = cases.iter().map(|case| run(&alone, case)).collect();
    assert!(solo[0].spill.runs_formed > 8 && solo[0].spill.merge_passes > 1);
    assert_eq!(solo[1].segment.groups_formed, 12);
    assert!(solo[2].spill.runs_formed > 0 && solo[2].sort == Default::default());
    let mut each = ExecStats::default();
    solo.iter().for_each(|s| each.merge(s));

    const ROUNDS: u64 = 6;
    for threads in [2u64, 4] {
        let shared = Observability::default();
        let barrier = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..ROUNDS {
                        barrier.wait();
                        for (case, want) in cases.iter().zip(&solo) {
                            assert_eq!(run(&shared, case), *want, "{}", case.0);
                        }
                    }
                });
            }
        });
        let n = threads * ROUNDS;
        let registry = shared.registry();
        for (counter, one) in [
            ("session.queries", cases.len() as u64),
            ("session.io.rows_read", each.io.rows_read),
            ("sort.key_bytes", each.sort.key_bytes),
            ("sort.comparisons", each.sort.comparisons),
            ("spill.pages_written", each.io.spill_pages_written),
            ("spill.runs_formed", each.spill.runs_formed),
            ("spill.merge_passes", each.spill.merge_passes),
            ("segment.groups_formed", each.segment.groups_formed),
        ] {
            assert_eq!(registry.counter(counter), n * one, "{counter} x{threads}");
        }
    }
}

#[test]
fn index_scan_under_limit_stays_lazy_and_bounded() {
    use fto_common::TableId;
    use fto_storage::{HeapLoader, OrderedIndex};

    // A large indexed table: 100k rows, 40 rows/page, 256 entries/leaf.
    let mut loader = HeapLoader::new(TableId(0), &[DataType::Int; 2], 100);
    for i in 0..100_000i64 {
        loader
            .push(vec![Value::Int(i), Value::Int(i % 7)].into_boxed_slice())
            .unwrap();
    }
    let heap = loader.finish().unwrap();
    let ix = OrderedIndex::build(&heap, &[0], &[Direction::Asc]).unwrap();

    let mut io = IoStats::new();
    let mut scan = IndexScanState::open(&ix, None, None, false).unwrap();
    // The scan state must not have materialized the 100k matching rids at
    // open: it is a pair of positions, and its Debug rendering stays tiny
    // (an eager rid vector would render all hundred thousand entries).
    assert!(
        format!("{scan:?}").len() < 500,
        "IndexScanState appears to materialize rids: {:.200?}",
        scan
    );
    assert_eq!(io, IoStats::new(), "open() must charge nothing");

    // Pull 10 rows, as a LIMIT 10 would, then stop.
    let batch = scan.next_columns(&ix, &heap, &[0, 1], 10, &mut io).unwrap();
    assert_eq!(batch.len(), 10);
    assert_eq!(io.rows_read, 10);
    // One index leaf entered; heap pages only behind the 10 rows read
    // (all on the first page here). Nothing past the stopping point.
    assert_eq!(io.index_pages, 1);
    assert_eq!(io.sequential_pages + io.random_pages, 1);

    // Same bounds through reverse scans: last leaf, last page, 10 rows.
    let mut rio = IoStats::new();
    let mut rev = IndexScanState::open(&ix, None, None, true).unwrap();
    let batch = rev.next_columns(&ix, &heap, &[0, 1], 10, &mut rio).unwrap();
    assert_eq!(batch.len(), 10);
    assert_eq!(batch.row(0)[0], Value::Int(99_999));
    assert_eq!(rio.rows_read, 10);
    assert_eq!(rio.index_pages, 1);
    assert_eq!(rio.sequential_pages + rio.random_pages, 1);
}

#[test]
fn index_scan_limit_charges_no_pages_past_stop_through_session() {
    // A table big enough that a selective index range beats scanning:
    // 20k rows, 20 rows per distinct `v`, index on (v, k).
    let mut cat = Catalog::new();
    let big = cat
        .create_table(
            "big",
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    cat.create_index(
        "big_v_ix",
        big,
        vec![(1, Direction::Asc), (0, Direction::Asc)],
        false,
        false,
    )
    .unwrap();
    let mut db = Database::new(cat);
    db.load_table(
        big,
        (0..20_000i64)
            .map(|i| vec![Value::Int(i), Value::Int(i % 1000)].into_boxed_slice())
            .collect(),
    )
    .unwrap();

    let sql = "select k, v from big where v = 7 order by v, k limit 5";
    let prepared = Session::new(&db)
        .config(OptimizerConfig::default().with_batch_size(4))
        .plan(sql)
        .unwrap();
    assert!(
        prepared.explain().contains("index-scan"),
        "expected an index scan plan:\n{}",
        prepared.explain()
    );
    let out = prepared.execute().unwrap();
    assert_eq!(out.num_rows(), 5);
    // 20 rows match v = 7; the limit must stop the scan after at most
    // two 4-row batches, never fetching the remaining matches — let
    // alone the other 19,980 rows.
    assert!(
        out.io.rows_read <= 8,
        "read {} rows for a LIMIT 5\nplan:\n{}",
        out.io.rows_read,
        prepared.explain()
    );
    // And the page charges stay behind those rows: one index leaf plus
    // at most one heap page per fetched row.
    assert!(out.io.index_pages <= 2, "{}", out.io);
    assert!(
        out.io.sequential_pages + out.io.random_pages <= 8,
        "{}",
        out.io
    );
}

#[test]
fn explain_analyze_on_tpcd_join_shows_estimates_and_actuals() {
    let db = build_database(TpcdConfig {
        scale: 0.003,
        seed: 77,
    })
    .unwrap();
    let session = Session::new(&db);
    let sql = format!("explain analyze {}", queries::q3_default());
    let text = match session.run(&sql).unwrap() {
        StatementOutput::Explain(text) => text,
        other => panic!("expected explain output, got {other:?}"),
    };
    // A join query: the tree contains a join operator and scans.
    assert!(text.contains("join"), "{text}");
    assert!(text.contains("scan"), "{text}");
    // Every operator line carries the estimate pair...
    let op_lines = text
        .lines()
        .filter(|l| l.contains("[rows=") && l.contains("cost="))
        .count();
    // ...and an actuals annotation with rows and self pages vs estimate.
    let actual_lines = text
        .lines()
        .filter(|l| l.contains("actual: rows=") && l.contains("vs est"))
        .count();
    assert!(op_lines >= 3, "{text}");
    assert_eq!(op_lines, actual_lines, "{text}");
    assert!(text.contains("totals:"), "{text}");
}
