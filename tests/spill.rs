//! Differential testing of bounded-memory execution: every query in the
//! workload corpus must produce bit-identical rows under any memory
//! budget — external sort runs and spilled hash partitions may change
//! *how* the work happens, never *what* comes out. Budgets sweep from
//! "everything spills" to "nothing spills", crossed with thread counts
//! and batch sizes. A budget changes only spill traffic: every other page
//! count equals the unbudgeted run's, and the per-query I/O accounting
//! stays exact (per-operator deltas summing to the session totals) on the
//! spilling paths too.

use fto_bench::answer::{assert_answer, exact, reference_knobs, Answer};
use fto_bench::corpus::{emp_db, EMP_QUERIES};
use fto_bench::Session;
use fto_common::Row;
use fto_planner::OptimizerConfig;
use fto_storage::{Database, IoStats};
use fto_tpcd::{build_database, queries, TpcdConfig};

/// Budgets the matrix sweeps: 4 KiB forces nearly every sort/group-by
/// over the corpus to spill, 64 KiB spills only the bigger plans.
const BUDGETS: &[usize] = &[4 << 10, 64 << 10];

fn unbounded_rows(db: &Database, sql: &str) -> Vec<Row> {
    Session::new(db)
        .config(OptimizerConfig::default())
        .execute(sql)
        .unwrap_or_else(|e| panic!("{sql}\nunbounded: {e}"))
        .rows()
        .to_vec()
}

#[test]
fn corpus_is_bit_identical_under_memory_budgets() {
    let db = emp_db();
    for sql in EMP_QUERIES {
        let baseline = unbounded_rows(&db, sql);
        for &budget in BUDGETS {
            for threads in [1usize, 2, 4] {
                let config = OptimizerConfig::default()
                    .with_memory_budget(budget)
                    .with_threads(threads);
                let out = Session::new(&db)
                    .config(config)
                    .execute(sql)
                    .unwrap_or_else(|e| panic!("{sql}\nbudget={budget} threads={threads}: {e}"));
                assert_eq!(
                    out.rows(),
                    baseline,
                    "bounded execution diverged\nsql: {sql}\n\
                     budget={budget} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn unbounded_execution_never_spills() {
    // Without a budget the new machinery must be completely inert: the
    // exact I/O totals existing tests pin down can't drift.
    let db = emp_db();
    for sql in EMP_QUERIES {
        let out = Session::new(&db)
            .config(OptimizerConfig::default())
            .execute(sql)
            .unwrap();
        assert_eq!(out.io.spill_pages_written, 0, "{sql}");
        assert_eq!(out.io.spill_pages_read, 0, "{sql}");
    }
}

#[test]
fn tiny_budget_spills_and_counts_it() {
    // A sort over all 400 emp rows cannot fit a 1 KiB budget: runs must
    // spill, the merge must read them back, and both sides of the spill
    // traffic must land in the per-query I/O counters.
    let db = emp_db();
    let sql = "select emp_id, salary from emp order by salary desc, emp_id";
    let baseline = unbounded_rows(&db, sql);
    let out = Session::new(&db)
        .config(OptimizerConfig::default().with_memory_budget(1 << 10))
        .execute(sql)
        .unwrap();
    assert_eq!(out.rows(), baseline);
    assert!(
        out.io.spill_pages_written > 0,
        "sort under 1 KiB must write spill pages"
    );
    assert!(
        out.io.spill_pages_read > 0,
        "merge must read the spilled runs back"
    );
    assert!(out.spill.runs_formed > 0);
    assert!(out.spill.merge_passes > 0);
}

#[test]
fn group_by_spills_partitions_under_tiny_budget() {
    // Group on emp_id: 400 distinct groups can't all be resident under
    // 1 KiB, so overflow keys must take the partition-spill path — and
    // still come back in first-seen order with exact aggregates.
    let db = emp_db();
    let sql = "select emp_id, sum(salary) as s, count(*) as n from emp group by emp_id";
    let baseline = unbounded_rows(&db, sql);
    let out = Session::new(&db)
        .config(OptimizerConfig::default().with_memory_budget(1 << 10))
        .execute(sql)
        .unwrap();
    assert_eq!(out.rows(), baseline);
    assert!(
        out.io.spill_pages_written > 0,
        "400 groups under 1 KiB must spill partitions"
    );
    assert!(out.io.spill_pages_read > 0);
}

#[test]
fn hash_distinct_honours_the_budget() {
    // DISTINCT is the hash group-by with no aggregates, so 400 distinct
    // (salary, grade) rows spill partitions under a budget that cannot
    // hold them — and come back in first-seen order, as the unbudgeted
    // run emits them, the oracle's answer. (The separate hash DISTINCT
    // operator this replaced held every key whatever the budget: 0 runs
    // at every budget.)
    let db = emp_db();
    let sql = "select distinct salary, grade from emp";
    let answer = Answer::of(&db, sql);
    for (budget, spills) in [(None, false), (Some(1usize << 10), true), (Some(1), true)] {
        let mut config = OptimizerConfig::default();
        if let Some(bytes) = budget {
            config = config.with_memory_budget(bytes);
        }
        let q = Session::new(&db).config(config.clone()).plan(sql).unwrap();
        assert!(
            q.explain().starts_with("group-by(hash) (salary, grade)"),
            "{}",
            q.explain()
        );
        let out = assert_answer(&db, sql, &config, &answer);
        assert_eq!(out.rows().len(), 400);
        assert_eq!(out.spill.runs_formed > 0, spills, "budget={budget:?}");
        assert_eq!(out.io.spill_pages_written > 0, spills, "budget={budget:?}");
    }
}

#[test]
fn left_join_build_side_spills_under_budget() {
    // The left-outer join admits build rows until the budget is hit,
    // then spills the remainder to a run file; probe output must stay
    // bit-identical, with matches in build arrival order even when
    // resident and spilled rows interleave within one key.
    let db = emp_db();
    let queries = [
        "select dept_id, emp_id from dept left join emp on dept_id = emp_dept \
         order by dept_id, emp_id",
        "select dept_id, emp_id, salary from dept left join emp \
         on dept_id = emp_dept and grade = 9 order by dept_id, emp_id",
    ];
    for sql in queries {
        let baseline = unbounded_rows(&db, sql);
        for &budget in BUDGETS {
            let out = Session::new(&db)
                .config(OptimizerConfig::default().with_memory_budget(budget))
                .execute(sql)
                .unwrap_or_else(|e| panic!("{sql}\nbudget={budget}: {e}"));
            assert_eq!(
                out.rows(),
                baseline,
                "left join diverged under budget\nsql: {sql}\nbudget={budget}"
            );
        }
    }
    // At 1 KiB the 400-row build side cannot stay resident: the join (or
    // the sort above it) must write spill pages and read them back.
    let sql = queries[0];
    let out = Session::new(&db)
        .config(OptimizerConfig::default().with_memory_budget(1 << 10))
        .execute(sql)
        .unwrap();
    assert_eq!(out.rows(), unbounded_rows(&db, sql));
    assert!(
        out.io.spill_pages_written > 0,
        "400 build rows under 1 KiB must spill"
    );
    assert!(out.io.spill_pages_read > 0);
}

#[test]
fn spilled_join_builds_charge_pinned_io_under_budgets() {
    // The vectorized joins' I/O accounting when the build side spills —
    // admission order, batch-serialized spill groups, one decode per
    // spilled group a candidate chunk touches — pinned as literals. Every
    // counter but `spill_pages_read` is what the row-at-a-time baseline
    // operators charged for the same queries when both implementations
    // existed (captured at the last commit that had them, where the two
    // agreed bit for bit); `spill_pages_read` was re-pinned when the probe
    // stopped decoding a group per hop (the number it read until then is
    // the comment beside each literal, and no cell reads more than that);
    // rows are held to the unbounded baseline. Both spill counters were
    // re-pinned again when every operator began carrying only the columns
    // its consumer reads: each cell's pair is the (written, read) it
    // charged while whole rows were carried, and no cell spills more.
    let db = emp_db();
    let pinned = |index_pages, sort_rows, written, read| IoStats {
        sequential_pages: 5,
        random_pages: 0,
        index_pages,
        sort_rows,
        rows_read: 412,
        spill_pages_written: written,
        spill_pages_read: read,
        pool_hits: 0,
        pool_misses: 0,
    };
    // (query, serial I/O at 1 KiB, serial I/O at 4 KiB), each with the
    // spill pages the cell charged carrying whole rows.
    let cases = [
        (
            "select dept_name, count(*) as n, sum(salary) as total \
             from dept, emp where dept_id = emp_dept group by dept_name order by dept_name",
            (pinned(0, 12, 3, 5), (5, 7)), // was 5 / 7 (read 62)
            (pinned(0, 12, 2, 3), (3, 4)), // was 3 / 4 (read 48)
        ),
        (
            "select dept_id, emp_id from dept left join emp on dept_id = emp_dept \
             order by dept_id, emp_id",
            (pinned(1, 400, 14, 39), (16, 41)), // was 16 / 41 (read 96)
            (pinned(1, 400, 2, 3), (3, 4)),     // was 3 / 4 (read 48)
        ),
        (
            "select dept_id, emp_id, salary from dept left join emp \
             on dept_id = emp_dept and grade = 9 order by dept_id, emp_id",
            (pinned(0, 12, 5, 7), (5, 7)), // was 5 / 7 (read 62)
            (pinned(0, 12, 3, 4), (3, 4)), // was 3 / 4 (read 48)
        ),
    ];
    for (sql, (at_1k, was_1k), (at_4k, was_4k)) in cases {
        for (io, was) in [(at_1k, was_1k), (at_4k, was_4k)] {
            assert!(
                spills_no_more(&io, was),
                "{sql}\n{io:?} spills more than {was:?}"
            );
        }
        let baseline = unbounded_rows(&db, sql);
        let run = |budget: usize, threads: usize| {
            let config = OptimizerConfig::default()
                .with_memory_budget(budget)
                .with_threads(threads);
            let out = Session::new(&db)
                .config(config)
                .execute(sql)
                .unwrap_or_else(|e| panic!("{sql}\nbudget={budget} threads={threads}: {e}"));
            assert_eq!(
                out.rows(),
                baseline,
                "{sql}\nbudget={budget} threads={threads}"
            );
            out.io
        };
        // A budget runs serial, so every thread count charges the same.
        for threads in [1usize, 2, 4] {
            assert_eq!(
                run(1 << 10, threads),
                at_1k,
                "{sql}\nbudget=1024 threads={threads}"
            );
            assert_eq!(
                run(4 << 10, threads),
                at_4k,
                "{sql}\nbudget=4096 threads={threads}"
            );
        }
    }
}

/// True when `io` writes and reads no more spill pages than the
/// `(written, read)` pair `was`.
fn spills_no_more(io: &IoStats, (written, read): (u64, u64)) -> bool {
    io.spill_pages_written <= written && io.spill_pages_read <= read
}

/// Joins without equi keys, which all run as the keyless case of the one
/// build–probe operator: `(sql, forced onto the nested loop, plan node)`.
/// Equi joins reach the nested loop only with the hash and merge joins
/// off and no index on either join column (`budget`, `grade`, `salary`).
const KEYLESS_JOINS: &[(&str, bool, &str)] = &[
    (
        "select dept_id, emp_id from dept, emp where budget = grade order by dept_id, emp_id",
        true,
        "nested-loop-join",
    ),
    (
        "select a.emp_id, b.emp_id from emp a, emp b \
         where a.salary = b.salary and a.grade = 0 order by a.emp_id, b.emp_id",
        true,
        "nested-loop-join",
    ),
    (
        "select dept_id, emp_id from dept join emp on emp_id < dept_id order by dept_id, emp_id",
        false,
        "nested-loop-join",
    ),
    // Left joins: department 0 has no employee below it, the others do;
    // only employees 0–10 have a department above them; nobody matches.
    (
        "select dept_id, emp_id from dept left join emp on emp_id < dept_id \
         order by dept_id, emp_id",
        false,
        "left-outer-join",
    ),
    (
        "select e.emp_id, dept_id from emp e left join dept on e.emp_id < dept_id \
         order by e.emp_id, dept_id",
        false,
        "left-outer-join",
    ),
    (
        "select dept_id, emp_id from dept left join emp on emp_id + 1000 < dept_id \
         order by dept_id, emp_id",
        false,
        "left-outer-join",
    ),
];

fn keyless_config(forced: bool) -> OptimizerConfig {
    match forced {
        true => OptimizerConfig::default()
            .with_hash_join(false)
            .with_merge_join(false),
        false => OptimizerConfig::default(),
    }
}

#[test]
fn keyless_joins_match_the_interpreter_across_budgets_threads_and_batches() {
    let db = emp_db();
    for &(sql, forced, node) in KEYLESS_JOINS {
        let answer = Answer::of(&db, sql);
        for budget in [None, Some(1usize << 10), Some(4 << 10), Some(64 << 10)] {
            for threads in [1usize, 2, 4] {
                for batch in [1usize, 7, 1024] {
                    let mut config = keyless_config(forced)
                        .with_threads(threads)
                        .with_batch_size(batch);
                    if let Some(b) = budget {
                        config = config.with_memory_budget(b);
                    }
                    let cell = format!("{sql}\nbudget={budget:?} threads={threads} batch={batch}");
                    let q = Session::new(&db)
                        .config(config.clone())
                        .plan(sql)
                        .unwrap_or_else(|e| panic!("{cell}: {e}"));
                    let plan = q.explain();
                    assert!(
                        plan.lines().any(|l| l.trim_start().starts_with(node)),
                        "{cell}\n{plan}"
                    );
                    assert_answer(&db, sql, &config, &answer);
                }
            }
        }
    }
}

#[test]
fn keyless_probe_never_holds_more_than_a_batch_of_candidates() {
    // 400 outer × 400 build rows through the nested loop at batch 7: the
    // probe assembles its 160 000 candidate pairs seven at a time (a
    // `debug_assert!` in the operator holds it to that), and the two
    // spilled build groups are re-read for every outer row.
    let db = emp_db();
    let sql = "select a.emp_id, b.emp_id from emp a, emp b where a.salary = b.salary \
               order by a.emp_id, b.emp_id";
    let config = keyless_config(true)
        .with_batch_size(7)
        .with_memory_budget(1 << 10);
    let q = Session::new(&db).config(config.clone()).plan(sql).unwrap();
    assert!(
        q.explain().contains("\n    nested-loop-join"),
        "{}",
        q.explain()
    );
    let out = assert_answer(&db, sql, &config, &Answer::of(&db, sql));
    assert_eq!(out.rows().len(), 400);
}

#[test]
fn spilled_nested_loop_builds_charge_pinned_io_under_budgets() {
    // The nested loop's build side honours the memory budget like the
    // hash join's — same admission order, same charged bytes, same
    // 256-row spill groups, same one decoded group alive (a chunk starts
    // at the group the last one left decoded, so an outer row re-reads
    // only the other groups) — where the row-at-a-time operator it
    // replaced held every inner row outside the budget and never spilled.
    // Serial I/O at 1 KiB, pinned next to the keyed builds' above with the
    // pages read before the probe bucketed its refs beside each; every
    // join's own share includes the spill in at least one cell. Re-pinned
    // when operators began carrying only the columns their consumer reads,
    // which also pinned the join's own spill pages exactly: each cell's
    // last pair is the (written, read) it charged carrying whole rows, and
    // no cell spills more. The fifth join's build, now one 12-row column,
    // fits 1 KiB, so it spills at 256 B.
    let db = emp_db();
    let pinned = |(pages, index_pages), sort_rows, rows_read, (written, read)| IoStats {
        sequential_pages: pages,
        random_pages: 0,
        index_pages,
        sort_rows,
        rows_read,
        spill_pages_written: written,
        spill_pages_read: read,
        pool_hits: 0,
        pool_misses: 0,
    };
    // (index into `KEYLESS_JOINS`, budget, the query's I/O, the join's own
    // spill pages, the query's spill pages carrying whole rows).
    let kib = 1usize << 10;
    let cells = [
        (0, kib, pinned((5, 0), 252, 412, (5, 30)), (2, 9), (8, 38)), // was 8 / 38 (read 83)
        (1, kib, pinned((8, 0), 80, 800, (4, 59)), (2, 50), (6, 92)), // was 6 / 92 (read 409)
        (2, kib, pinned((5, 0), 78, 412, (1, 6)), (1, 6), (5, 17)),   // was 5 / 17 (read 62)
        (3, kib, pinned((5, 1), 67, 412, (1, 6)), (1, 6), (4, 15)),   // was 4 / 15 (read 60)
        (4, kib, pinned((5, 2), 455, 412, (0, 0)), (0, 0), (1, 1)),   // was 1 / 1
        (4, 256, pinned((5, 2), 455, 412, (9, 24)), (1, 1), (9, 24)), // was 9 / 24
        (5, kib, pinned((5, 1), 12, 412, (1, 6)), (1, 6), (4, 15)),   // was 4 / 15 (read 60)
    ];
    for (join, &(sql, ..)) in KEYLESS_JOINS.iter().enumerate() {
        let spills = |&(j, _, _, (own_written, _), _): &(usize, _, _, (u64, u64), _)| {
            j == join && own_written > 0
        };
        assert!(cells.iter().any(spills), "{sql}: no cell spills its build");
    }
    for (join, budget, pin, join_own, was) in cells {
        let (sql, forced, node) = KEYLESS_JOINS[join];
        assert!(
            spills_no_more(&pin, was),
            "{sql}\n{pin:?} spills more than {was:?}"
        );
        let config = keyless_config(forced).with_memory_budget(budget);
        let q = Session::new(&db).config(config.clone()).plan(sql).unwrap();
        let (out, metrics) = q.execute_instrumented().unwrap();
        Answer::of(&db, sql).check(out.rows()).unwrap();
        let unbudgeted = Session::new(&db).config(reference_knobs(&config));
        let want = unbudgeted.execute(sql).unwrap();
        assert_eq!(exact(out.rows()), exact(want.rows()), "{sql}");
        assert_eq!(out.io, pin, "{sql}\nbudget={budget}");
        let join = metrics.ops.iter().position(|op| op.name == node).unwrap();
        let own = metrics.self_stats(join).unwrap().io;
        assert_eq!(
            (own.spill_pages_written, own.spill_pages_read),
            join_own,
            "{sql}\nbudget={budget}: the join's own I/O: {own:?}"
        );
    }
}

#[test]
fn spilled_group_by_charges_pinned_io_under_budgets() {
    // The hash group-by's partition spill — admission order, the cost
    // charged per admitted group, one record per (batch, partition),
    // replay under a salted hash — pinned as literals next to the join
    // builds'. Captured at the last commit whose group-by kept a
    // `HashMap<Vec<u8>, usize>` and per-group `Accumulator`s: the columnar
    // aggregation kernel must admit and spill exactly what that did.
    let db = emp_db();
    let sql = "select emp_id, sum(salary) as s, count(*) as n from emp group by emp_id";
    let baseline = unbounded_rows(&db, sql);
    // (budget, spill pages written = read, partition runs formed).
    for (budget, pages, runs) in [(1usize << 10, 48u64, 48u64), (4 << 10, 25, 25)] {
        for threads in [1usize, 2, 4] {
            let config = OptimizerConfig::default()
                .with_memory_budget(budget)
                .with_threads(threads);
            let out = Session::new(&db).config(config).execute(sql).unwrap();
            assert_eq!(out.rows(), baseline, "budget={budget} threads={threads}");
            let expected = IoStats {
                sequential_pages: 4,
                random_pages: 0,
                index_pages: 0,
                sort_rows: 0,
                rows_read: 400,
                spill_pages_written: pages,
                spill_pages_read: pages,
                pool_hits: 0,
                pool_misses: 0,
            };
            assert_eq!(out.io, expected, "budget={budget} threads={threads}");
            assert_eq!(
                out.spill.runs_formed, runs,
                "budget={budget} threads={threads}"
            );
        }
    }
}

#[test]
fn spilled_sorts_charge_pinned_io_under_budgets() {
    // The order enforcer's external sort — what a buffered row is charged,
    // where runs seal, the run-group records, the merge passes — pinned as
    // literals next to the join builds' and the group-by's. Captured at
    // the last commit whose sorts buffered `Row`s and one `Vec<u8>` key per
    // row (`SortOp` / `SegmentedSortOp` over `RunFormer`): the columnar
    // enforcer must seal, spill and merge exactly what those did. One full
    // sort, and one segmented sort whose ~33-row groups each external-sort
    // above a hash join whose spilled build is part of the pages read (194
    // and 72 while the probe decoded a group per hop). The segmented
    // sort's cells were re-pinned when operators began carrying only the
    // columns their consumer reads: its rows and the join's build lost
    // their key columns, and at 4 KiB its groups now sort in memory, so a
    // 2 KiB cell keeps it merging. Each cell's last pair is the spill pages
    // (written, read) it charged carrying whole rows, and no cell spills
    // more.
    let db = emp_db();
    // (query, [(budget, pages written, pages read, runs formed, merge
    // passes, pages written and read carrying whole rows)]).
    let cases = [
        (
            "select emp_id, salary from emp order by salary desc, emp_id",
            &[
                (1usize << 10, 12u64, 56u64, 40u64, 2u64, (12, 56)),
                (4 << 10, 12, 23, 10, 2, (12, 23)),
            ][..],
        ),
        (
            "select emp_dept, dept_id, salary from dept, emp \
             where dept_id = emp_dept order by emp_dept, salary",
            &[
                (1 << 10, 14, 51, 49, 12, (29, 139)), // was 29 / 139, 111 runs, 25 passes
                (2 << 10, 14, 27, 25, 12, (15, 52)),  // was 15 / 52, 49 runs, 12 passes
                (4 << 10, 2, 3, 1, 0, (15, 28)),      // was 15 / 28, 25 runs, 12 passes
            ],
        ),
    ];
    for (sql, pins) in cases {
        // Each query keeps a cell whose sort forms several runs and merges.
        assert!(pins.iter().any(|p| p.3 > 1 && p.4 > 0), "{sql}");
        let baseline = unbounded_rows(&db, sql);
        for &(budget, written, read, runs, passes, was) in pins {
            assert!(written <= was.0 && read <= was.1, "{sql}\nbudget={budget}");
            let out = Session::new(&db)
                .config(OptimizerConfig::default().with_memory_budget(budget))
                .execute(sql)
                .unwrap();
            assert_eq!(out.rows(), baseline, "{sql}\nbudget={budget}");
            assert_eq!(
                (out.io.spill_pages_written, out.io.spill_pages_read),
                (written, read),
                "{sql}\nbudget={budget}"
            );
            assert_eq!(
                (out.spill.runs_formed, out.spill.merge_passes),
                (runs, passes),
                "{sql}\nbudget={budget}"
            );
        }
    }
}

#[test]
fn a_budget_runs_serial_at_every_thread_count() {
    // A memory budget pins execution serial: a gather holds its subtree's
    // whole output, which no budget bounds, so a budgeted configuration
    // lowers no exchange and every counter a query reports equals the
    // `threads = 1` run of the same budget — the sort spills the same
    // runs, the join build the same partitions — with the rows of the
    // unbounded serial baseline.
    let db = emp_db();
    let queries = [
        "select emp_id, salary from emp order by salary desc, emp_id",
        "select dept_name, count(*) as n, sum(salary) as total \
         from dept, emp where dept_id = emp_dept group by dept_name order by dept_name",
    ];
    for sql in queries {
        let baseline = unbounded_rows(&db, sql);
        for budget in [1usize << 10, 4 << 10, 64 << 10] {
            let run = |threads: usize| {
                Session::new(&db)
                    .config(
                        OptimizerConfig::default()
                            .with_memory_budget(budget)
                            .with_threads(threads),
                    )
                    .execute(sql)
                    .unwrap_or_else(|e| panic!("{sql}\nbudget={budget} threads={threads}: {e}"))
            };
            let serial = run(1);
            assert_eq!(serial.rows(), baseline, "{sql}\nbudget={budget}");
            if budget == 1 << 10 {
                assert!(
                    serial.io.spill_pages_written > 0 && serial.spill.runs_formed > 0,
                    "{sql}: 1 KiB must spill"
                );
            }
            for threads in [2usize, 4] {
                let out = run(threads);
                let case = format!("{sql}\nbudget={budget} threads={threads}");
                assert_eq!(out.rows(), baseline, "{case}");
                assert_eq!(
                    (out.io, out.sort, out.spill, out.segment),
                    (serial.io, serial.sort, serial.spill, serial.segment),
                    "{case}"
                );
            }
        }
    }
}

#[test]
fn instrumented_accounting_stays_exact_while_spilling() {
    // The metrics invariant the instrumented engine guarantees — per-
    // operator I/O deltas sum exactly to the session totals — must
    // survive the spilling operators charging brand-new counters.
    let db = emp_db();
    for sql in [
        "select emp_id, salary from emp order by salary desc, emp_id",
        "select dept_name, count(*) as n, sum(salary) as total \
         from dept, emp where dept_id = emp_dept group by dept_name order by dept_name",
        "select emp_id, salary from emp order by salary desc, emp_id limit 7",
        "select distinct emp_dept, grade from emp order by emp_dept, grade",
    ] {
        let q = Session::new(&db)
            .config(OptimizerConfig::default().with_memory_budget(2 << 10))
            .plan(sql)
            .unwrap();
        let (out, metrics) = q.execute_instrumented().unwrap();
        assert!(
            metrics.validate().is_ok(),
            "{sql}: {:?}",
            metrics.validate()
        );
        assert_eq!(metrics.total().io, out.io, "{sql}");
        assert_eq!(metrics.total().spill, out.spill, "{sql}");
    }
}

#[test]
fn explain_analyze_reports_spill_traffic() {
    let db = emp_db();
    let q = Session::new(&db)
        .config(OptimizerConfig::default().with_memory_budget(1 << 10))
        .plan("select emp_id, salary from emp order by salary desc, emp_id")
        .unwrap();
    let text = q.explain_analyze().unwrap();
    assert!(text.contains("spill: w="), "{text}");
    assert!(text.contains("spill: runs="), "{text}");
}

fn tpcd_db() -> Database {
    build_database(TpcdConfig {
        scale: 0.002,
        seed: 19,
    })
    .unwrap()
}

fn tpcd_workload() -> [String; 4] {
    [
        queries::q3_default(),
        queries::q1("1998-09-02"),
        queries::order_report(),
        queries::section6_example(),
    ]
}

#[test]
fn tpcd_workload_is_bit_identical_under_memory_budgets() {
    let db = tpcd_db();
    for sql in &tpcd_workload() {
        let baseline = unbounded_rows(&db, sql);
        for &budget in BUDGETS {
            for threads in [1usize, 2, 4] {
                let config = OptimizerConfig::default()
                    .with_memory_budget(budget)
                    .with_threads(threads);
                let out = Session::new(&db)
                    .config(config)
                    .execute(sql)
                    .unwrap_or_else(|e| panic!("{sql}\nbudget={budget} threads={threads}: {e}"));
                assert_eq!(
                    out.rows(),
                    baseline,
                    "bounded TPC-D execution diverged\nsql: {sql}\n\
                     budget={budget} threads={threads}"
                );
            }
        }
    }
}

/// A memory budget bounds what pipeline breakers hold, so it may change
/// how much spills and nothing else: at every budget and batch size, each
/// `IoStats` field but the two spill counters equals the unbudgeted run's
/// at the same batch size — scans, probes and sorts touch the same pages
/// and rows whatever the budget. Pages are charged by one model, the page
/// cursor's same/next/other rule; a page cache that made budgeted runs
/// cheaper than unbudgeted ones broke this in 21 of these 480 cells.
#[test]
fn a_budget_changes_only_spill_traffic() {
    let emp = emp_db();
    let tpcd = tpcd_db();
    let tpcd_sql = tpcd_workload();
    let mut statements: Vec<(&Database, &str, OptimizerConfig)> = Vec::new();
    statements.extend(
        EMP_QUERIES
            .iter()
            .map(|&sql| (&emp, sql, OptimizerConfig::default())),
    );
    statements.extend(
        KEYLESS_JOINS
            .iter()
            .map(|&(sql, forced, _)| (&emp, sql, keyless_config(forced))),
    );
    statements.extend(
        tpcd_sql
            .iter()
            .map(|sql| (&tpcd, sql.as_str(), OptimizerConfig::default())),
    );
    let without_spill = |io: IoStats| IoStats {
        spill_pages_written: 0,
        spill_pages_read: 0,
        ..io
    };
    let mut cells = 0;
    for (db, sql, config) in statements {
        for batch in [1usize, 7, 1024] {
            let run = |config: OptimizerConfig| {
                let out = Session::new(db)
                    .config(config.with_batch_size(batch))
                    .execute(sql)
                    .unwrap_or_else(|e| panic!("{sql}\nbatch={batch}: {e}"));
                (out.rows().to_vec(), out.io)
            };
            let (rows, io) = run(config.clone());
            assert_eq!(
                without_spill(io),
                io,
                "{sql}\nbatch={batch}: unbudgeted spill"
            );
            for budget in [1usize, 1 << 10, 4 << 10, 64 << 10] {
                let (got_rows, got) = run(config.clone().with_memory_budget(budget));
                let cell = format!("{sql}\nbudget={budget} batch={batch}");
                assert_eq!(got_rows, rows, "{cell}");
                assert_eq!(without_spill(got), io, "{cell}");
                cells += 1;
            }
        }
    }
    assert_eq!(cells, 480);
}
