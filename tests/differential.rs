//! Differential testing of the engine against the query-level oracle:
//! every query in the workload corpus, under every optimizer
//! configuration and across batch sizes, budgets and thread counts, must
//! give the oracle's answer for the unrewritten query (the same multiset
//! of rows, in the ORDER BY's order) — and each plan the same rows, bit
//! for bit, at every batch size, budget and thread count as at its
//! serial, unbudgeted run at batch 1024. Plus the I/O property the
//! streaming engine exists for: LIMIT stops paying for pages it never
//! reads.

use fto_bench::answer::{assert_answer, exact, reference_knobs, Answer};
use fto_bench::corpus::{emp_db, EMP_QUERIES, UNREWRITTEN_QUERIES};
use fto_bench::{envknob, Session};
use fto_catalog::{Catalog, ColumnDef, KeyDef};
use fto_common::{DataType, Direction, Value};
use fto_planner::OptimizerConfig;
use fto_storage::{Database, IoStats};
use fto_tpcd::{build_database, queries, TpcdConfig};

/// Parallel degree to additionally run the whole suite at, from the
/// `FTO_TEST_THREADS` environment variable (CI sets 4). Unset or 1
/// means serial-only; an unparseable value fails the suite rather than
/// silently running serial.
fn env_threads() -> Option<usize> {
    envknob::env_parse::<usize>("FTO_TEST_THREADS")
        .unwrap_or_else(|e| panic!("{e}"))
        .filter(|&p| p > 1)
}

fn all_configs() -> Vec<OptimizerConfig> {
    let mut configs = vec![
        OptimizerConfig::default(),
        OptimizerConfig::disabled(),
        OptimizerConfig::db2_1996(),
        OptimizerConfig::db2_1996_disabled(),
        OptimizerConfig::default().with_sort_ahead(false),
        OptimizerConfig::default()
            .with_hash_join(false)
            .with_nested_loop(false),
    ];
    if let Some(p) = env_threads() {
        for base in configs.clone() {
            configs.push(base.with_threads(p));
        }
    }
    configs
}

/// Runs `sql` under `config`: the oracle's answer, and the reference
/// cell's rows bit for bit (see `fto_bench::answer::assert_answer`).
fn assert_engines_agree(db: &Database, sql: &str, config: OptimizerConfig) {
    assert_answer(db, sql, &config, &Answer::of(db, sql));
}

#[test]
fn end_to_end_corpus_agrees_across_engines() {
    let db = emp_db();
    for sql in EMP_QUERIES {
        let answer = Answer::of(&db, sql);
        for config in all_configs() {
            assert_answer(&db, sql, &config, &answer);
        }
    }
}

#[test]
fn end_to_end_corpus_agrees_at_odd_batch_sizes() {
    // Batch boundaries are where streaming operators break: batch size 1
    // maximizes boundaries, 17 exercises misalignment with row counts.
    let db = emp_db();
    for sql in EMP_QUERIES {
        for batch in [1usize, 17] {
            assert_engines_agree(&db, sql, OptimizerConfig::default().with_batch_size(batch));
        }
    }
}

#[test]
fn unrewritten_queries_agree_with_the_oracle() {
    let db = emp_db();
    for sql in UNREWRITTEN_QUERIES {
        let answer = Answer::of(&db, sql);
        assert!(!answer.rows().is_empty(), "{sql}");
        let mut configs = all_configs();
        configs.extend([1usize, 17].map(|b| OptimizerConfig::default().with_batch_size(b)));
        for config in configs {
            assert_answer(&db, sql, &config, &answer);
        }
    }
}

#[test]
fn deferred_cartesian_products_still_plan() {
    // Join enumeration grows a subset by a quantifier a predicate joins
    // to it while there is one, and by a Cartesian product only when there
    // is none: a quantifier with local predicates alone is still joined,
    // last, and the rows are the oracle's answer.
    let db = emp_db();
    let queries = [
        "select dept_id, emp_id from dept, emp where grade = 3 order by dept_id, emp_id",
        "select e.emp_id, d.dept_name, b.emp_id from emp e, dept d, emp b \
         where e.emp_dept = d.dept_id and b.grade = 1 and b.emp_id < 20 \
         order by e.emp_id, b.emp_id",
    ];
    for sql in queries {
        for config in [
            OptimizerConfig::default(),
            OptimizerConfig::disabled(),
            OptimizerConfig::default().with_memory_budget(1024),
        ] {
            let plan = Session::new(&db)
                .config(config.clone())
                .plan(sql)
                .unwrap()
                .explain();
            assert!(
                plan.lines()
                    .any(|l| l.trim_start().starts_with("nested-loop-join")),
                "no keyless join for the Cartesian product\nsql: {sql}\n{plan}"
            );
            assert_engines_agree(&db, sql, config);
        }
    }
}

#[test]
fn union_inputs_keep_their_positions_under_a_narrow_consumer() {
    // A union matches its inputs by position, and its consumer reads only
    // some of them: each input carries just the columns at those
    // positions, which it holds in another order than the first input
    // (`emp_dept` before `emp_id`), under a filter, a join and a grouping.
    let db = emp_db();
    let queries = [
        "select grade, salary from (select emp_id, grade, salary from emp where grade < 2 \
         union all select salary, emp_dept, emp_id from emp where emp_id < 30) u \
         where salary > 10 order by grade, salary",
        "select d.dept_name, u.salary from dept d, (select emp_dept, grade, salary from emp \
         where grade = 0 union all select budget, dept_id, dept_id + 1000 from dept) u \
         where u.emp_dept = d.dept_id order by d.dept_name, u.salary",
        "select grade, count(*) as n from (select emp_id, grade from emp \
         union all select emp_dept, salary from emp where emp_id < 5) u \
         group by grade order by grade",
    ];
    for sql in queries {
        let answer = Answer::of(&db, sql);
        assert!(!answer.rows().is_empty(), "{sql}");
        for config in every_cell() {
            assert_answer(&db, sql, &config, &answer);
        }
    }
}

/// Every configuration of `all_configs`, plus the cells that move batch
/// boundaries, threads and the memory budget.
fn every_cell() -> Vec<OptimizerConfig> {
    let mut configs = all_configs();
    configs.extend([
        OptimizerConfig::default().with_batch_size(1),
        OptimizerConfig::default().with_threads(2),
        OptimizerConfig::default().with_memory_budget(1024),
    ]);
    configs
}

#[test]
fn a_repeated_select_list_column_is_output_twice() {
    // A plain column named twice in a select list binds to the column and
    // a fresh copy of it, so no layout holds a column twice.
    let db = emp_db();
    let queries = [
        "select emp_id, emp_id from emp",
        "select emp_id as x, emp_id as y from emp",
        "select *, emp_id from emp",
        "select emp_dept, emp_dept, count(*) from emp group by emp_dept",
        "select emp_dept, count(*) from emp group by emp_dept, emp_dept",
        "select y, z from (select emp_id as x, emp_id as y, salary as z from emp \
         union all select emp_id, salary, salary from emp) u",
        "select emp_id as x, emp_id as y from emp where grade = 2 order by y desc limit 5",
        "select distinct emp_dept, grade, emp_dept from emp order by grade, emp_dept",
    ];
    for sql in queries {
        let answer = Answer::of(&db, sql);
        assert!(!answer.rows().is_empty(), "{sql}");
        for config in every_cell() {
            assert_answer(&db, sql, &config, &answer);
        }
    }
    // The oracle shares the binder, so check the values themselves too.
    let out = Session::new(&db)
        .execute("select emp_id as x, emp_id as y, grade from emp")
        .unwrap();
    assert_eq!(out.rows().len(), 400);
    assert!(out.rows().iter().all(|r| r[0] == r[1]));
    let out = Session::new(&db)
        .execute("select emp_dept, emp_dept, count(*) from emp group by emp_dept")
        .unwrap();
    assert_eq!(out.rows().len(), 12);
    assert!(out.rows().iter().all(|r| r[0] == r[1]));
}

#[test]
fn a_union_derived_table_takes_its_first_branchs_aliases() {
    // `u.y` is the union's second column, named by the first branch's
    // alias. The oracle shares the binder, so the answer is the same rows
    // spelled without the derived table.
    let db = emp_db();
    let sql = "select y from (select emp_id as x, grade as y from emp \
               union all select emp_dept, salary from emp) u";
    let answer = Answer::of(
        &db,
        "select grade from emp union all select salary from emp",
    );
    assert_eq!(answer.rows().len(), 800);
    for config in every_cell() {
        assert_answer(&db, sql, &config, &answer);
    }
    // A plain derived table is named by its aliases as well.
    let answer = Answer::of(&db, "select grade from emp where emp_id < 7");
    let sql = "select g from (select emp_id as k, grade as g from emp) d where d.k < 7";
    for config in every_cell() {
        assert_answer(&db, sql, &config, &answer);
    }
}

#[test]
fn tpcd_workload_agrees_across_engines() {
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
        queries::q3("1994-06-30", "automobile"),
        queries::q3("1996-01-01", "machinery"),
        queries::q3("1993-12-31", "household"),
    ];
    let mut configs = vec![
        OptimizerConfig::default(),
        OptimizerConfig::disabled(),
        OptimizerConfig::db2_1996(),
        OptimizerConfig::db2_1996_disabled(),
        OptimizerConfig::default().with_batch_size(13),
    ];
    if let Some(p) = env_threads() {
        configs.push(OptimizerConfig::default().with_threads(p));
        configs.push(OptimizerConfig::db2_1996().with_threads(p));
    }
    for sql in &workload {
        for config in configs.clone() {
            assert_engines_agree(&db, sql, config);
        }
    }
}

#[test]
fn distinct_on_encoded_keys_matches_value_comparison() {
    // DISTINCT is the group-by with no aggregates, which dedups on
    // arena-encoded key bytes (byte equality standing in for Value
    // equality, with the codec's canonicalization of Int/Double, NaN, and
    // signed zero). Both methods — stream (ordered input) and hash
    // (first-seen) — must agree with the oracle's Value comparison,
    // serial and parallel.
    let db = emp_db();
    let queries = [
        "select distinct grade from emp order by grade",
        "select distinct emp_dept, grade from emp order by emp_dept, grade",
        "select distinct salary, grade from emp",
        "select distinct emp_dept from emp",
    ];
    for sql in queries {
        for threads in [1usize, 2, 4] {
            assert_engines_agree(&db, sql, OptimizerConfig::default().with_threads(threads));
        }
    }
}

#[test]
fn vectorized_operators_agree_with_interpreter_under_forced_plan_shapes() {
    // The columnar group-by (DISTINCT included), merge-join, hash-join
    // and left-outer-join operators against the oracle, across
    // threads and under plan shapes that force each join flavor. (Their
    // spill-path I/O accounting is pinned as literals in tests/spill.rs.)
    let db = emp_db();
    let queries = [
        // Joins feeding grouped aggregation.
        "select dept_name, count(*) as n, sum(salary) as total \
         from dept, emp where dept_id = emp_dept group by dept_name order by dept_name",
        // Three-way join.
        "select e.emp_id, d.dept_name, b.emp_id from emp e, dept d, emp b \
         where e.emp_dept = d.dept_id and b.emp_id = e.emp_id order by e.emp_id",
        // Left outer join with ON residuals (matched and unmatched rows).
        "select dept_id, emp_id from dept left join emp on dept_id = emp_dept and emp_id < 3 \
         order by dept_id, emp_id",
        "select dept_id, count(emp_id) as n from dept \
         left join emp on dept_id = emp_dept and grade = 0 group by dept_id order by dept_id",
        // DISTINCT through the stream and the hash group-by.
        "select distinct emp_dept, grade from emp order by emp_dept, grade",
        "select distinct salary, grade from emp",
        // Stream group-by with the full accumulator inventory.
        "select emp_dept, sum(salary * 2) as double_pay, avg(salary) as pay, \
         min(salary) as lo, max(salary) as hi from emp group by emp_dept order by emp_dept",
        "select emp_dept, count(distinct grade) as g from emp group by emp_dept order by emp_dept",
    ];
    let shapes = [
        OptimizerConfig::default(),
        // Order-based operators only: merge joins, stream group-by.
        OptimizerConfig::db2_1996(),
        // Hash join is the only join left on the menu.
        OptimizerConfig::default()
            .with_merge_join(false)
            .with_nested_loop(false),
    ];
    for sql in queries {
        for shape in &shapes {
            for threads in [1usize, 2, 4] {
                assert_engines_agree(&db, sql, shape.clone().with_threads(threads));
            }
        }
    }
}

#[test]
fn limit_reads_strictly_fewer_pages_than_materialized() {
    // The point of streaming scans: a LIMIT over a big table stops
    // pulling batches — and stops paying simulated page I/O — once
    // satisfied, where the materializing engine reads the whole heap.
    let db = emp_db();
    let sql = "select emp_id from emp limit 3";
    let prepared = Session::new(&db)
        // Force a plain table scan path and small batches so the limit
        // bites before the scan finishes.
        .config(OptimizerConfig::default().with_batch_size(16))
        .plan(sql)
        .unwrap();
    let streamed = prepared.execute().unwrap();
    Answer::of(&db, sql).check(streamed.rows()).unwrap();
    let streamed_pages = streamed.io.sequential_pages + streamed.io.random_pages;
    let emp = db.catalog().table_by_name("emp").unwrap().id;
    let heap_pages = db.heap(emp).unwrap().page_count();
    assert!(
        streamed_pages < heap_pages,
        "streaming read {streamed_pages} pages of the heap's {heap_pages}\nplan:\n{}",
        prepared.explain()
    );
    // And it never reads more rows than the limit needs (plus at most
    // one batch of slack per scan).
    assert!(streamed.io.rows_read <= 16, "{}", streamed.io.rows_read);
}

#[test]
fn columnar_matrix_batch_threads_codec() {
    // The columnar executor over the matrix the batch representation can
    // perturb: batch size (column boundaries) and parallel degree
    // (exchange merges of columnar partitions). Every cell gives the
    // oracle's answer and the reference cell's rows bit for bit, and
    // within one (query, batch size) cell every thread count must charge
    // exactly the same I/O.
    let db = emp_db();
    for sql in EMP_QUERIES {
        let answer = Answer::of(&db, sql);
        for batch in [1usize, 7, 1024] {
            let mut baseline: Option<fto_storage::IoStats> = None;
            for threads in [1usize, 2, 4] {
                let config = OptimizerConfig::default()
                    .with_batch_size(batch)
                    .with_threads(threads);
                let streamed = assert_answer(&db, sql, &config, &answer);
                match &baseline {
                    None => baseline = Some(streamed.io),
                    Some(expected) => assert_eq!(
                        &streamed.io, expected,
                        "I/O diverged within batch={batch} cell\nsql: {sql}\n\
                         threads={threads}"
                    ),
                }
            }
        }
    }
}

#[test]
fn columnar_matrix_tpcd() {
    // The same matrix over the TPC-D workload (multi-way joins, grouped
    // aggregates, date filters), at a scale small enough to keep the
    // sweep per query affordable.
    let db = build_database(TpcdConfig {
        scale: 0.002,
        seed: 19,
    })
    .unwrap();
    let workload = [
        queries::q3_default(),
        queries::q1("1998-09-02"),
        queries::order_report(),
        queries::section6_example(),
    ];
    for sql in &workload {
        for batch in [3usize, 256] {
            for threads in [1usize, 2, 4] {
                let config = OptimizerConfig::default()
                    .with_batch_size(batch)
                    .with_threads(threads);
                assert_engines_agree(&db, sql, config);
            }
        }
    }
}

/// A 120-row table built to stress grouping: `k` is a `Double` column of
/// NULLs, NaNs, both zeros (one group) and integral values that tie with
/// the `Int` column `grp` (`3.0` joins `3`), `v` a `Double` column of
/// NULLs, `-0.0`, integral values and fractions, `s`/`d` are strings (one
/// a prefix of another, one with an embedded NUL) and dates with NULLs,
/// and `(p1, p2)` are string pairs whose concatenations collide. Every
/// column holds the type it declares: the loader admits nothing else.
fn grouping_db() -> Database {
    let mut cat = Catalog::new();
    let g = cat
        .create_table(
            "g",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("grp", DataType::Int),
                ColumnDef::new("k", DataType::Double),
                ColumnDef::new("v", DataType::Double),
                ColumnDef::new("s", DataType::Str),
                ColumnDef::new("d", DataType::Date),
                ColumnDef::new("p1", DataType::Str),
                ColumnDef::new("p2", DataType::Str),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    let strings = ["a", "ab", "a\0b", "", "zz", "b"];
    let pairs = [
        ("ab", "c"),
        ("a", "bc"),
        ("abc", ""),
        ("", "abc"),
        ("a\0", "b"),
        ("a", "\0b"),
    ];
    let mut db = Database::new(cat);
    db.load_table(
        g,
        (0..120i64)
            .map(|i| {
                let k = match (i % 11, i % 3) {
                    (0, _) => Value::Null,
                    (1, _) => Value::Double(f64::NAN),
                    (2, _) => Value::Double(-0.0),
                    (3, _) => Value::Double(0.0),
                    (_, 0) => Value::Double((i % 5) as f64),
                    (_, 1) => Value::Double((i % 5) as f64 + 0.5),
                    _ => Value::Double((100 + i % 4) as f64),
                };
                let v = match i {
                    _ if i % 13 == 0 => Value::Null,
                    _ if i % 17 == 0 => Value::Double(-0.0),
                    _ if i < 50 => Value::Double((i * 3 - 20) as f64),
                    _ => Value::Double(i as f64 * 0.25 - 3.0),
                };
                let s = if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::str(strings[(i % 6) as usize])
                };
                let d = if i % 10 == 0 {
                    Value::Null
                } else {
                    Value::Date(9000 + ((i * 37) % 50) as i32 - 25)
                };
                let (p1, p2) = pairs[(i % 6) as usize];
                vec![
                    Value::Int(i),
                    Value::Int(i % 7),
                    k,
                    v,
                    s,
                    d,
                    Value::str(p1),
                    Value::str(p2),
                ]
                .into_boxed_slice()
            })
            .collect(),
    )
    .unwrap();
    db
}

/// One statement per thing the aggregation kernel must get exactly right.
const GROUPING_QUERIES: &[&str] = &[
    // NULL group keys (NULLs are one group).
    "select s, count(*) as n, count(s) as ns, sum(v) as sv from g group by s order by s",
    // Keys equal under `total_cmp` are one group: `-0.0` and `0.0`, every NaN.
    "select k, count(*) as n, sum(id) as ids from g group by k order by k",
    // `sum`/`avg` over doubles, `-0.0` among them.
    "select grp, sum(v) as sv, avg(v) as av, count(v) as nv from g group by grp order by grp",
    // `min`/`max` over strings and dates.
    "select grp, min(s) as s0, max(s) as s1, min(d) as d0, max(d) as d1 \
     from g group by grp order by grp",
    // DISTINCT aggregates (over the NaN- and zero-bearing column too).
    "select grp, count(distinct k) as dk, sum(distinct v) as dv, count(distinct s) as ds \
     from g group by grp order by grp",
    // HAVING over an aggregate that is not in the select list.
    "select grp, count(*) as n from g group by grp having sum(id) > 1000 order by grp",
    // Global aggregate over an empty filter result: one row.
    "select count(*) as n, sum(v) as sv, min(s) as s0 from g where id < 0",
    // Hash distinct on string pairs whose concatenations collide.
    "select distinct p1, p2 from g",
    "select distinct k from g",
    // Int ≡ Double-equal join keys: the `Int` column `grp` meets the
    // `Double` column `k`, and `3` joins `3.0`.
    "select a.id, a.grp, b.id, b.k from g a, g b where a.grp = b.k and a.id < 20 \
     order by a.id, b.id",
    // An aggregate column that is NULL in every group is still a double.
    "select grp, sum(v) as sv, max(s) as s1 from g where v is null group by grp order by grp",
    // So are a LEFT JOIN's padded columns still strings and dates, matched
    // by no row at all or by some.
    "select a.id, b.s, b.d from g a left join g b on a.id = b.grp and b.id < 0 order by a.id",
    "select a.id, b.s, b.d from g a left join g b on a.id = b.id and b.grp = 2 \
     where a.id < 30 order by a.id",
];

/// DISTINCT statements over [`emp_db`] beyond the corpus's own: both
/// shapes of the zero-aggregate grouping (400 distinct rows; 12).
const DISTINCT_QUERIES: &[&str] = &[
    "select distinct salary, grade from emp",
    "select distinct emp_dept from emp",
];

/// DISTINCT under a LIMIT over the 1 500-row `orders` (two heap chunks):
/// the hash grouping drains its input at `open`, so the limit cuts its
/// output, not its input; the order-based one sits on a sort.
const DISTINCT_LIMIT_QUERIES: &[&str] = &[
    "select distinct o_custkey from orders limit 5",
    "select distinct o_orderdate, o_shippriority from orders limit 40",
];

#[test]
fn grouping_corpus_is_bit_identical_across_batch_budget_threads() {
    let grouping = grouping_db();
    let emp = emp_db();
    let tpcd = build_database(TpcdConfig {
        scale: 0.001,
        seed: 19,
    })
    .unwrap();
    // Every statement the engine runs as a grouping: the kernel's corpus,
    // the corpus statements with a DISTINCT box (DISTINCT, UNION, IN
    // subqueries) and DISTINCT under a LIMIT.
    let has_distinct = |sql: &&str| {
        let q = Session::new(&emp).plan(sql).unwrap();
        q.graph().boxes.iter().any(|b| b.distinct)
    };
    let corpora: [(&Database, Vec<&str>); 3] = [
        (&grouping, GROUPING_QUERIES.to_vec()),
        (
            &emp,
            EMP_QUERIES
                .iter()
                .copied()
                .filter(has_distinct)
                .chain(DISTINCT_QUERIES.iter().copied())
                .collect(),
        ),
        (&tpcd, DISTINCT_LIMIT_QUERIES.to_vec()),
    ];
    assert_eq!(corpora[1].1.len(), 5 + DISTINCT_QUERIES.len());
    let mut thread_counts = vec![1usize, 2];
    thread_counts.extend(env_threads());
    // Default plans (hash group-by where cheaper) and the order-based
    // inventory (stream group-by over sorts): `with_hash_grouping` on, off.
    let shapes = [OptimizerConfig::default(), OptimizerConfig::db2_1996()];
    for (db, sql) in corpora
        .iter()
        .flat_map(|(db, sqls)| sqls.iter().map(move |sql| (*db, *sql)))
    {
        let answer = Answer::of(db, sql);
        for shape in &shapes {
            // The plan's reference cell gives the oracle's answer, and every
            // other cell its rows bit for bit.
            let reference = Session::new(db)
                .config(reference_knobs(shape))
                .execute(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            if let Err(e) = answer.check(reference.rows()) {
                panic!("wrong answer: {e}\n{sql}\nunder {shape:?}");
            }
            let want = exact(reference.rows());
            for batch in [1usize, 3, 7, 1024] {
                for budget in [None, Some(1usize), Some(1 << 10), Some(64 << 10)] {
                    // The counters of this budget's `threads = 1` cell.
                    let mut serial = None;
                    for &threads in &thread_counts {
                        let mut config = shape.clone().with_batch_size(batch).with_threads(threads);
                        if let Some(b) = budget {
                            config = config.with_memory_budget(b);
                        }
                        let cell =
                            format!("{sql}\nbatch={batch} budget={budget:?} threads={threads}");
                        let prepared = Session::new(db)
                            .config(config)
                            .plan(sql)
                            .unwrap_or_else(|e| panic!("{cell}: {e}"));
                        let streamed = prepared.execute().unwrap_or_else(|e| panic!("{cell}: {e}"));
                        // A budget runs serial: every counter is the serial cell's.
                        let counters =
                            (streamed.io, streamed.sort, streamed.spill, streamed.segment);
                        if budget.is_some() {
                            assert_eq!(*serial.get_or_insert(counters), counters, "{cell}");
                        }
                        assert_eq!(
                            exact(streamed.rows()),
                            want,
                            "{cell}\nplan:\n{}",
                            prepared.explain()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn output_column_types_are_the_plans_declared_types() {
    // Representation is a function of the plan: whatever the values —
    // an aggregate that is NULL in every group, a LEFT JOIN's padding,
    // one row at a time or a thousand, spilled or not — every output
    // batch's columns have the types the query's registry declares for
    // the plan's output layout. The oracle's rows are held to the types
    // the bound query declares (`execute_materialized` builds its batch
    // as them), so this also checks the binder's typing rules against
    // what the dynamically typed oracle actually computes.
    let mut thread_counts = vec![1usize];
    thread_counts.extend(env_threads());
    let shapes = [OptimizerConfig::default(), OptimizerConfig::db2_1996()];
    let corpora = [(emp_db(), EMP_QUERIES), (grouping_db(), GROUPING_QUERIES)];
    for (db, corpus) in &corpora {
        for sql in corpus.iter() {
            for shape in &shapes {
                for batch in [1usize, 3, 1024] {
                    for budget in [None, Some(1usize), Some(64 << 10)] {
                        for &threads in &thread_counts {
                            let mut config =
                                shape.clone().with_batch_size(batch).with_threads(threads);
                            if let Some(b) = budget {
                                config = config.with_memory_budget(b);
                            }
                            let cell =
                                format!("{sql}\nbatch={batch} budget={budget:?} threads={threads}");
                            let prepared = Session::new(db)
                                .config(config)
                                .plan(sql)
                                .unwrap_or_else(|e| panic!("{cell}: {e}"));
                            let registry = &prepared.graph().registry;
                            let declared: Vec<DataType> = prepared
                                .plan()
                                .layout
                                .cols()
                                .iter()
                                .map(|&c| registry.info(c).data_type)
                                .collect();
                            let streamed =
                                prepared.execute().unwrap_or_else(|e| panic!("{cell}: {e}"));
                            let materialized = prepared
                                .execute_materialized()
                                .unwrap_or_else(|e| panic!("{cell}: {e}"));
                            for out in [&streamed, &materialized] {
                                for b in out.batches() {
                                    let held: Vec<DataType> =
                                        b.columns().iter().map(|c| c.data_type()).collect();
                                    assert_eq!(
                                        held,
                                        declared,
                                        "{cell}\nplan:\n{}",
                                        prepared.explain()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn spilled_all_null_string_column_stays_a_string_column() {
    // A LEFT JOIN that matches nothing pads `b.s` with NULLs — a string
    // column that holds no string — and the ORDER BY above it sorts under
    // a 1 KiB budget, so the padded column goes through the spill page
    // codec as what it is declared to be. Rows are the oracle's answer,
    // and the unbudgeted run's bit for bit, at every batch size.
    let db = grouping_db();
    let sql = "select a.grp, a.id, b.s from g a left join g b on a.id = b.grp and b.id < 0 \
               order by a.grp, a.id";
    let answer = Answer::of(&db, sql);
    for batch in [1usize, 7, 1024] {
        let config = OptimizerConfig::default()
            .with_batch_size(batch)
            .with_memory_budget(1 << 10);
        let streamed = assert_answer(&db, sql, &config, &answer);
        assert!(
            streamed.io.spill_pages_written > 0 && streamed.spill.runs_formed > 0,
            "batch={batch}: the sort must spill"
        );
        assert_eq!(streamed.rows().len(), 120);
        assert!(streamed.rows().iter().all(|r| r[2].is_null()));
        for b in streamed.batches() {
            assert_eq!(b.column(2).data_type(), DataType::Str, "batch={batch}");
        }
    }
}

/// `p` probes `t` through the index `t_k` on `t.k`. `p.k` is an `Int`
/// column in no order (a NULL every tenth row, keys absent from `t`
/// among the rest); `t.k` is a `Double` column of NULLs, NaNs, fractions
/// and integral values that the `Int` probes equal.
fn probe_db() -> Database {
    let mut cat = Catalog::new();
    let p = cat
        .create_table(
            "p",
            vec![
                ColumnDef::new("p_id", DataType::Int),
                ColumnDef::new("p_k", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    let t = cat
        .create_table(
            "t",
            vec![
                ColumnDef::new("t_id", DataType::Int),
                ColumnDef::new("t_k", DataType::Double),
                ColumnDef::new("t_v", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    cat.create_index("t_k_ix", t, vec![(1, Direction::Asc)], false, false)
        .unwrap();
    let mut db = Database::new(cat);
    let p_rows = (0..40i64).map(|i| {
        let k = match i % 10 {
            0 => Value::Null,
            _ => Value::Int((i * 37) % 101 - 3),
        };
        vec![Value::Int(i), k].into_boxed_slice()
    });
    db.load_table(p, p_rows.collect()).unwrap();
    let t_rows = (0..3000i64).map(|i| {
        let k = match i % 9 {
            0 => Value::Null,
            1 => Value::Double(f64::NAN),
            2 => Value::Double((i % 20) as f64 + 0.5),
            _ => Value::Double(((i * 13) % 1500 - 3) as f64),
        };
        vec![Value::Int(i), k, Value::Int(i % 4)].into_boxed_slice()
    });
    db.load_table(t, t_rows.collect()).unwrap();
    db
}

#[test]
fn index_nested_loop_join_output_does_not_depend_on_probe_order() {
    // The probes reach the index nested-loop join in heap order, or sorted
    // descending over the ascending index: each searches the index from
    // the previous probe's position, and the result may not depend on
    // that. Rows are the oracle's answer and the hash join's — NULL keys
    // on both sides meet in the index, and the residual equality drops
    // every NULL = NULL pair — and the full IoStats are the literals the
    // Value-keyed index (binary search from the root per probe) charged.
    let db = probe_db();
    let inlj = OptimizerConfig::default()
        .with_hash_join(false)
        .with_merge_join(false);
    let hash = OptimizerConfig::default()
        .with_nested_loop(false)
        .with_merge_join(false);
    let queries = [
        "select p_id, t_id, t_k from p, t where p_k = t_k order by p_id, t_id",
        "select p_id, p_k, t_id from p, t where p_k = t_k and t_v < 3 \
         order by p_k desc, p_id, t_id",
    ];
    let pinned = |sequential_pages, random_pages, index_pages, sort_rows, rows_read| IoStats {
        sequential_pages,
        random_pages,
        index_pages,
        sort_rows,
        rows_read,
        ..IoStats::new()
    };
    // Four NULL probes fetch the index's 333 NULL entries each.
    let want = [pinned(69, 48, 40, 84, 1420), pinned(69, 48, 40, 74, 1420)];
    for (sql, want) in queries.iter().zip(want) {
        let answer = Answer::of(&db, sql);
        let by_hash = Session::new(&db).config(hash.clone()).plan(sql).unwrap();
        let by_hash = by_hash.execute().unwrap();
        for batch in [1usize, 7, 1024] {
            let prepared = Session::new(&db)
                .config(inlj.clone().with_batch_size(batch))
                .plan(sql)
                .unwrap();
            let plan = prepared.explain();
            assert!(plan.contains("index-nested-loop-join"), "{sql}\n{plan}");
            let streamed = prepared.execute().unwrap();
            if let Err(e) = answer.check(streamed.rows()) {
                panic!("wrong answer: {e}\n{sql} batch={batch}\n{plan}");
            }
            assert_eq!(
                streamed.rows(),
                by_hash.rows(),
                "{sql} batch={batch}\n{plan}"
            );
            assert!(streamed.rows().iter().flatten().all(|v| !v.is_null()));
            assert_eq!(streamed.io, want, "{sql} batch={batch}\n{plan}");
        }
    }
}

/// The operator a filter's output reaches through projections alone, as
/// `"name/child"` — `child` being which input of it the filter feeds — or
/// `"root"`, for each filter of an EXPLAIN tree. A filter hands its
/// selection up, a projection passes it through, and this is the
/// operator that then reads it.
fn filter_consumers(explain: &str) -> Vec<String> {
    // (depth, operator name) per node, in pre-order.
    let nodes: Vec<(usize, &str)> = explain
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let text = l.trim_start();
            let name = text.split([' ', '[']).next().unwrap_or(text);
            ((l.len() - text.len()) / 2, name)
        })
        .collect();
    let parent = |i: usize| (0..i).rev().find(|&j| nodes[j].0 < nodes[i].0);
    let mut consumers = Vec::new();
    for (i, &(_, name)) in nodes.iter().enumerate() {
        if name != "filter" {
            continue;
        }
        let mut at = i;
        let reader = loop {
            match parent(at) {
                Some(p) if nodes[p].1 == "project" => at = p,
                Some(p) => {
                    let depth = nodes[at].0;
                    let child = (p + 1..at).filter(|&j| nodes[j].0 == depth).count();
                    break format!("{}/{child}", nodes[p].1);
                }
                None => break "root".to_string(),
            }
        };
        consumers.push(reader);
    }
    consumers
}

#[test]
fn selected_batches_agree_with_the_oracle_and_the_dense_serial_cell() {
    // A filter emits its input's columns with a selection attached. The
    // grouping (hash, stream, global, DISTINCT) reads it as it comes; a
    // projection computing expressions passes it through; the enforcer
    // (sort, top-n), both join inputs, the index nested-loop join's outer,
    // limit, union and the root densify it. Each shape, at batch 1, 7
    // and 1024, threads 1 and 2, and budgets none, 1 KiB and 64 KiB, gives
    // the oracle's answer and the serial, unbudgeted batch-1024 cell's
    // rows bit for bit — and each statement's plan has its filter under
    // the operator it is here for.
    let db = build_database(TpcdConfig {
        scale: 0.001,
        seed: 19,
    })
    .unwrap();
    let default = OptimizerConfig::default;
    let hash_join = || default().with_merge_join(false).with_nested_loop(false);
    let inlj = || {
        let joins = default().with_merge_join(false).with_hash_join(false);
        joins.with_sort_ahead(false)
    };
    let cases: [(&str, OptimizerConfig, &str); 13] = [
        (
            "group-by(hash)/0",
            default(),
            "select l_suppkey, sum(l_quantity) as q, count(*) as n from lineitem \
             where l_shipdate <= date('1996-01-01') group by l_suppkey",
        ),
        (
            "group-by(hash)/0",
            default(),
            "select l_returnflag, l_linestatus, sum(l_extendedprice * (1 - l_discount)) as p, \
             avg(l_quantity) as q, count(*) as n from lineitem \
             where l_shipdate <= date('1998-06-01') group by l_returnflag, l_linestatus",
        ),
        (
            "group-by(stream)/0",
            OptimizerConfig::db2_1996(),
            "select l_orderkey, sum(l_quantity) as q, max(l_discount) as d from lineitem \
             where l_discount > 0.05 group by l_orderkey",
        ),
        (
            "group-by(stream)/0",
            default(),
            "select sum(l_extendedprice * l_discount) as revenue, count(*) as n from lineitem \
             where l_shipdate >= date('1994-01-01') and l_shipdate < date('1995-01-01') \
             and l_discount >= 0.05 and l_discount <= 0.07 and l_quantity < 24",
        ),
        (
            "group-by(hash)/0",
            default(),
            "select distinct l_suppkey, l_returnflag from lineitem where l_quantity < 10",
        ),
        (
            "sort/0",
            default(),
            "select l_orderkey, l_returnflag, l_extendedprice from lineitem \
             where l_quantity < 5 order by l_extendedprice, l_orderkey",
        ),
        (
            "top-n/0",
            default(),
            "select l_orderkey, l_returnflag, l_extendedprice from lineitem \
             where l_quantity < 5 order by l_extendedprice desc, l_orderkey limit 7",
        ),
        (
            "hash-join/1",
            hash_join(),
            "select o_orderkey, o_orderdate, l_linenumber, l_returnflag from orders, lineitem \
             where o_orderkey = l_orderkey and l_quantity < 5",
        ),
        (
            "hash-join/0",
            hash_join(),
            "select c_name, o_orderkey, o_totalprice from customer, orders \
             where c_custkey = o_custkey and o_orderdate < date('1993-01-01') \
             and c_acctbal > 0",
        ),
        (
            "index-nested-loop-join/0",
            inlj(),
            "select o_orderkey, l_linenumber from orders, lineitem \
             where o_orderkey = l_orderkey and o_orderdate < date('1993-01-01')",
        ),
        (
            "limit/0",
            default(),
            "select l_orderkey, l_returnflag, l_quantity from lineitem \
             where l_quantity < 5 limit 13",
        ),
        (
            "union-all/1",
            default(),
            "select o_orderkey, o_custkey from orders where o_totalprice < 50000 \
             union all select c_custkey, c_nationkey from customer where c_acctbal > 0",
        ),
        (
            "root",
            default(),
            "select l_orderkey, l_linenumber, l_extendedprice * (1 - l_discount) as net, \
             l_quantity * 2 as q2, l_quantity / (l_discount - 0.05) as r from lineitem \
             where l_shipdate > date('1996-06-01')",
        ),
    ];
    for (reader, shape, sql) in cases {
        let plan = Session::new(&db)
            .config(shape.clone())
            .plan(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
            .explain();
        assert!(
            filter_consumers(&plan).iter().any(|r| r == reader),
            "no filter feeds {reader}: {:?}\n{sql}\n{plan}",
            filter_consumers(&plan)
        );
        let answer = Answer::of(&db, sql);
        for batch in [1usize, 7, 1024] {
            for threads in [1usize, 2] {
                for budget in [None, Some(1usize << 10), Some(64 << 10)] {
                    let mut config = shape.clone().with_batch_size(batch).with_threads(threads);
                    if let Some(b) = budget {
                        config = config.with_memory_budget(b);
                    }
                    assert_answer(&db, sql, &config, &answer);
                }
            }
        }
    }
}

#[test]
fn a_filtered_hash_grouping_spills_what_it_spilled_over_gathered_rows() {
    // `bounded_memory`'s `agg_by_cust` shape: a hash grouping over a
    // filter, under a budget. The grouping reads the filter's selection
    // in place of gathered rows; what it admits, charges and spills, and
    // so every spill page, is what it was when the filter gathered. The
    // literals are that engine's counts: (budget, batch, pages written,
    // pages read, partitions spilled).
    let db = build_database(TpcdConfig {
        scale: 0.005,
        seed: 19,
    })
    .unwrap();
    let sql = "select o_custkey, sum(o_totalprice) as total, count(*) as n from orders \
               where o_orderdate < date('1997-01-01') group by o_custkey";
    let pinned: [(usize, usize, u64, u64, u64); 9] = [
        (1 << 10, 1, 351, 351, 49),
        (1 << 10, 7, 319, 319, 49),
        (1 << 10, 1024, 212, 212, 49),
        (16 << 10, 1, 70, 70, 15),
        (16 << 10, 7, 64, 64, 15),
        (16 << 10, 1024, 46, 46, 15),
        (64 << 10, 1, 40, 40, 8),
        (64 << 10, 7, 38, 38, 8),
        (64 << 10, 1024, 25, 25, 8),
    ];
    let answer = Answer::of(&db, sql);
    for (budget, batch, written, read, runs) in pinned {
        let config = OptimizerConfig::default()
            .with_batch_size(batch)
            .with_memory_budget(budget);
        let plan = Session::new(&db).config(config.clone()).plan(sql).unwrap();
        assert_eq!(filter_consumers(&plan.explain()), ["group-by(hash)/0"]);
        let out = assert_answer(&db, sql, &config, &answer);
        let got = (out.io.spill_pages_written, out.io.spill_pages_read);
        let cell = format!("budget={budget} batch={batch}");
        assert_eq!(got, (written, read), "{cell}");
        assert_eq!(
            (out.spill.runs_formed, out.spill.merge_passes),
            (runs, 0),
            "{cell}"
        );
    }
}

/// Join keys the codec must get exactly right, in two tables: integers
/// either side of 2^53 on one side and the doubles they round to on the
/// other, both zeros, NaN, NULL, and strings short enough for the group
/// table's lanes, long ones sharing their first 16 encoded bytes, and
/// ones holding `0x00`.
fn lane_join_db() -> Database {
    let mut cat = Catalog::new();
    let li = cat
        .create_table(
            "li",
            vec![
                ColumnDef::new("li_id", DataType::Int),
                ColumnDef::new("li_k", DataType::Int),
                ColumnDef::new("li_s", DataType::Str),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    let ld = cat
        .create_table(
            "ld",
            vec![
                ColumnDef::new("ld_id", DataType::Int),
                ColumnDef::new("ld_k", DataType::Double),
                ColumnDef::new("ld_s", DataType::Str),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    let big = 1i64 << 53;
    let ints = [
        Value::Int(big - 1),
        Value::Int(big),
        Value::Int(big + 1),
        Value::Int(-big - 1),
        Value::Int(0),
        Value::Int(1),
        Value::Int(7),
        Value::Null,
    ];
    let doubles = [
        Value::Double((big - 1) as f64),
        Value::Double(big as f64),
        Value::Double((big + 2) as f64),
        Value::Double(-big as f64),
        Value::Double(-0.0),
        Value::Double(0.0),
        Value::Double(f64::NAN),
        Value::Double(1.0),
        Value::Double(7.5),
        Value::Null,
    ];
    let strings = |i: i64| match i % 7 {
        0 => Value::Null,
        1 => Value::str("a"),
        2 => Value::str("abcdefghijklm"),
        3 => Value::str("a\0"),
        _ => Value::str(format!("Customer#{:09}", i % 5)),
    };
    let mut db = Database::new(cat);
    let li_rows = (0..60i64).map(|i| {
        let k = ints[(i % ints.len() as i64) as usize].clone();
        vec![Value::Int(i), k, strings(i)].into_boxed_slice()
    });
    db.load_table(li, li_rows.collect()).unwrap();
    let ld_rows = (0..80i64).map(|i| {
        let k = doubles[(i % doubles.len() as i64) as usize].clone();
        vec![Value::Int(i), k, strings(i * 3)].into_boxed_slice()
    });
    db.load_table(ld, ld_rows.collect()).unwrap();
    db
}

#[test]
fn join_keys_agree_with_the_oracle_through_the_lanes() {
    // The build–probe join keys its build side in the group table, whose
    // short keys live in two `u64` lanes and long ones in the arena as
    // well; a build row and a probe row match when their codec bytes do.
    // So an `Int` meets the `Double` it equals — 2^53 ± 1 included, where
    // the residual tells them apart — −0.0 meets 0.0, NaN meets NaN, a
    // key with a NULL in it meets nothing, and a batch of short strings
    // (the lanes) finds keys a batch with long ones (the arena) admitted.
    let db = lane_join_db();
    let queries = [
        "select li_id, ld_id, li_k, ld_k from li join ld on li_k = ld_k",
        "select ld_id, li_id, li_k, ld_k from ld join li on ld_k = li_k",
        "select a.ld_id, b.ld_id, a.ld_k from ld a, ld b where a.ld_k = b.ld_k",
        "select li_id, ld_id, li_s from li join ld on li_s = ld_s",
        "select li_id, ld_id from li join ld on li_k = ld_k and li_s = ld_s",
    ];
    for sql in queries {
        let answer = Answer::of(&db, sql);
        assert!(!answer.rows().is_empty(), "{sql}");
        let mut hashed = false;
        for config in every_cell() {
            let plan = Session::new(&db).config(config.clone()).plan(sql).unwrap();
            hashed |= plan.explain().contains("hash-join");
            let out = assert_answer(&db, sql, &config, &answer);
            assert!(
                out.rows().iter().all(|r| r.iter().all(|v| !v.is_null())),
                "a NULL key matched\n{sql}"
            );
        }
        assert!(hashed, "no configuration hashes the join\n{sql}");
    }
    // The keys either side of 2^53: an integer matches the double it
    // equals and no other.
    let big = 1i64 << 53;
    let out = Session::new(&db).execute(queries[0]).unwrap();
    let matched = |k: i64| out.rows().iter().filter(|r| r[2] == Value::Int(k)).count();
    assert!(matched(big - 1) > 0 && matched(big) > 0);
    assert_eq!(matched(big + 1), 0);
    assert_eq!(matched(-big - 1), 0);
    // −0.0 meets 0.0 and NaN meets NaN.
    let out = Session::new(&db).execute(queries[2]).unwrap();
    let zeros = out
        .rows()
        .iter()
        .filter(|r| r[2].as_double() == Some(0.0))
        .count();
    assert_eq!(zeros, 16 * 16);
    let nans = out
        .rows()
        .iter()
        .filter(|r| r[2].as_double().is_some_and(f64::is_nan));
    assert_eq!(nans.count(), 8 * 8);
}
