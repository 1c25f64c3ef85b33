//! Planner golden test: the "nothing changed" proof for planner-internal
//! work (caching, sharing, memoization) that must not alter a single
//! decision.
//!
//! For the five `compile_heavy` benchmark templates at TPC-D scale 0.002
//! ([`join_ladder`]) plus the differential corpus, under three configurations, the six
//! decision counters of [`PlannerStats`] and the chosen plan — rendered
//! with every node's cost, rows, order and predicate properties —
//! must match `tests/golden/plan_stability.txt` byte for byte. The file
//! was captured at commit a27182d, before stream facts became shared; the
//! 15 blocks of statements with a DISTINCT were re-pinned when DISTINCT
//! became the zero-aggregate group-by (`fold_is_spelling_only`), and 71
//! `generated=` counts when each candidate came to be counted once, where
//! it is made, 60 count lines when sort-ahead came to build one
//! enforcer per interesting order, over the cheapest candidate, and 69
//! when dominance came to count a plan's order only up to the prefix some
//! operator of the query could use: a plan ordered on a column nothing
//! asks for no longer survives beside a cheaper unordered one (none of
//! the three moved a plan line). `j5`'s `default` and `budget-64k`
//! blocks moved when sort-ahead came to serve every interesting order,
//! not the first four: its fifth, `(n_name)`, sorts the 25 `nation` rows
//! early and the final sort becomes a segmented `(n_name | s_name,
//! c_name)` one (estimated cost 596.5 → 563.4; no other block moved, and
//! no `disabled` block). Every property line lost its key segment
//! (`no keys`, `one-record`, `keys: …`) when the key property was
//! dropped; nothing else in the file moved. When every join subset came
//! to carry one row estimate (an index path's key range and an index
//! nested loop's inner filter each counted once) and dominance lost its
//! rows guard, 64 lines changed in their `cost=`/`rows=` numbers and
//! counts alone: no plan line moved. Every block also checks the
//! counting itself: no more plans pruned than generated, and — planned
//! again with a trace — one `PlanGenerated` event per counted plan.
//!
//! After an *intended* plan change, regenerate it and review the diff:
//!
//! ```text
//! cargo test -p fto-bench --test plan_stability -- --ignored regenerate
//! ```

use fto_bench::corpus::{emp_db, join_ladder, EMP_QUERIES};
use fto_bench::harness::{planner_work_by_join_count, tpcd_db};
use fto_bench::Session;
use fto_obs::TraceEvent;
use fto_planner::{OptimizerConfig, PlannerStats};
use fto_storage::Database;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/plan_stability.txt");

fn tiny_tpcd() -> Database {
    tpcd_db(0.002).unwrap()
}

fn configs() -> [(&'static str, OptimizerConfig); 3] {
    [
        ("default", OptimizerConfig::default()),
        ("disabled", OptimizerConfig::disabled()),
        (
            "budget-64k",
            OptimizerConfig::default().with_memory_budget(64 << 10),
        ),
    ]
}

/// One case: header, decision counters, plan with properties.
fn render_case(out: &mut String, db: &Database, name: &str, sql: &str) {
    for (cfg_name, cfg) in configs() {
        let prepared = Session::new(db)
            .config(cfg.clone())
            .plan(sql)
            .unwrap_or_else(|e| panic!("{name} under {cfg_name}: {e}"));
        let s = prepared.planner_stats();
        // Only a counted plan can be pruned (24 of the 105 blocks pruned
        // more than they generated before PR 25).
        assert!(
            s.plans_pruned <= s.plans_generated,
            "{name} | {cfg_name}: {s}"
        );
        assert_each_plan_logged_once(db, &format!("{name} | {cfg_name}"), cfg, sql, &s);
        let _ = writeln!(out, "== {name} | {cfg_name}");
        let _ = writeln!(
            out,
            "joins={} generated={} pruned={} sorts_added={} sorts_avoided={} partial_sorts={}",
            s.joins_considered,
            s.plans_generated,
            s.plans_pruned,
            s.sorts_added,
            s.sorts_avoided,
            s.partial_sorts
        );
        out.push_str(&prepared.explain_properties());
        if !out.ends_with('\n') {
            out.push('\n');
        }
    }
}

/// Plans `sql` again, traced: the same counters, one `PlanGenerated`
/// event per counted plan, and the `sort-ahead` ones are the sort-ahead
/// variants — exactly when the ring kept every event, at most when it
/// overflowed (`j5`).
fn assert_each_plan_logged_once(
    db: &Database,
    label: &str,
    cfg: OptimizerConfig,
    sql: &str,
    stats: &PlannerStats,
) {
    let traced = Session::new(db).config(cfg).plan_traced(sql).unwrap();
    assert_eq!(traced.planner_stats(), *stats, "{label}");
    let trace = traced.trace().expect("asked to trace");
    let logged = |sort_ahead_only: bool| {
        trace
            .events()
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::PlanGenerated { stage, .. }
                    if !sort_ahead_only || *stage == "sort-ahead")
            })
            .count() as u64
    };
    let logged = (logged(false), logged(true));
    let counted = (stats.plans_generated, stats.sort_ahead_variants);
    if trace.dropped() == 0 {
        assert_eq!(logged, counted, "{label}");
    } else {
        assert!(logged.0 <= counted.0 && logged.1 <= counted.1, "{label}");
    }
}

fn render_all() -> String {
    let mut out = String::new();
    let tpcd = tiny_tpcd();
    for (name, _tables, sql) in join_ladder() {
        render_case(&mut out, &tpcd, name, &sql);
    }
    let emp = emp_db();
    for (i, sql) in EMP_QUERIES.iter().enumerate() {
        render_case(&mut out, &emp, &format!("corpus[{i}]"), sql);
    }
    out
}

#[test]
fn counters_and_plans_match_the_golden_capture() {
    let actual = render_all();
    if actual == GOLDEN {
        return;
    }
    // Name the first diverging line with its case header, not a
    // 4000-line assert_eq dump.
    let mut case = "";
    for (n, (a, g)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        if a.starts_with("== ") {
            case = a;
        }
        assert_eq!(
            a,
            g,
            "plan_stability.txt line {} differs (left = now, right = golden) in case {case}",
            n + 1
        );
    }
    panic!(
        "plan_stability.txt has {} lines, the planner now renders {}",
        GOLDEN.lines().count(),
        actual.lines().count()
    );
}

/// FNV-1a over the golden's blocks whose case is not in `skip`, with the
/// number of blocks hashed.
fn digest_without(golden: &str, skip: &[String]) -> (usize, u64) {
    let (mut blocks, mut hash, mut skipping) = (0, 0xcbf2_9ce4_8422_2325u64, false);
    for line in golden.lines() {
        if let Some(header) = line.strip_prefix("== ") {
            let case = header.split(" | ").next().unwrap_or(header);
            skipping = skip.iter().any(|s| s == case);
            blocks += usize::from(!skipping);
        }
        if !skipping {
            for b in line.bytes().chain([b'\n']) {
                hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (blocks, hash)
}

/// Folding ten `PlanNode` variants into `Sort`/`Join`/`GroupBy` changed
/// how a plan is spelled in memory, not what is planned: every golden
/// block of a statement *without* a DISTINCT box is byte-for-byte the one
/// commit d1baf09 (18 variants) rendered. Only the 15 blocks of the five
/// statements with one (DISTINCT, UNION, IN subqueries) were re-pinned —
/// there a DISTINCT became the zero-aggregate group-by, with the
/// estimator's row count and no order promised out of the hash method.
///
/// The pinned pair was `digest_without` of that commit's golden file
/// until PR 25 re-counted `generated=` on 71 count lines (plan lines
/// untouched; `counters_and_plans_match_the_golden_capture` holds the
/// rest), and again when join enumeration deferred Cartesian products
/// (15 count lines of the join-ladder statements and corpus[10], no plan
/// line), and again when sort-ahead came to build one enforcer per
/// interesting order (60 count lines, no plan line), and again when an
/// order came to count in dominance only up to its useful prefix (69
/// count lines, no plan line), and again when sort-ahead came to serve
/// every interesting order (`j5`'s `default` and `budget-64k` blocks),
/// and again when every join subset came to carry one row estimate (64
/// `cost=`/`rows=` and count lines, no plan line).
/// After an *intended* change to the other 90 blocks, re-pin it with the
/// pair this test prints.
#[test]
fn fold_is_spelling_only() {
    let emp = emp_db();
    let with_distinct: Vec<String> = EMP_QUERIES
        .iter()
        .enumerate()
        .filter(|(_, sql)| {
            let q = Session::new(&emp).plan(sql).unwrap();
            q.graph().boxes.iter().any(|b| b.distinct)
        })
        .map(|(i, _)| format!("corpus[{i}]"))
        .collect();
    assert_eq!(with_distinct.len(), 5, "{with_distinct:?}");
    assert_eq!(
        digest_without(GOLDEN, &with_distinct),
        // (90, 0x8e64_2891_0f00_29e6) before each plan was counted once,
        // (90, 0x7074_407d_b428_c731) before connected subsets first,
        // (90, 0x7155_86df_3b56_a6bd) before sort-ahead built only the
        // cheapest enforcer per interesting order, (90,
        // 0x7a62_b511_4c4f_f437) before an order counted only up to its
        // useful prefix, (90, 0x8776_b472_c642_f03f) before sort-ahead
        // served every interesting order, (90, 0x7e9f_f693_e2d8_0237)
        // before the property lines lost their key segment, (90,
        // 0x6e2d_9565_7fc4_508a) while one join subset could carry two
        // row estimates.
        (90, 0x4e9d_824d_1814_cafb),
        "a block of a statement without a DISTINCT moved"
    );
}

/// The deterministic planner-work gate: `j5` generates 1 518 plans and
/// must build at least an order of magnitude fewer contexts than that.
/// Building one per dominance comparison or per sort-ahead variant (the
/// state before facts were shared: hundreds of thousands) fails here by
/// count, on any machine, where a timer would only drift.
#[test]
fn j5_builds_far_fewer_contexts_than_plans() {
    let db = tiny_tpcd();
    let (_, _, j5) = join_ladder().pop().unwrap();
    let s = Session::new(&db).plan(&j5).unwrap().planner_stats();
    assert_eq!(
        (
            s.joins_considered,
            s.plans_generated,
            s.plans_pruned,
            s.sorts_added,
            s.sorts_avoided,
            s.partial_sorts
        ),
        // 47 107 generated before PR 25, which counted each index
        // nested loop twice; (3594, 44202, 43867, 37082, 597, 173)
        // before subsets grew by joined quantifiers first; (907, 13290,
        // 13153, 11210, 283, 0) while sort-ahead built a sorted copy of
        // every candidate, not of the cheapest one per interesting order;
        // (907, 3678, 3541, 1598, 283, 0) while dominance compared whole
        // orders, not their useful prefixes; (423, 1764, 1675, 722, 191,
        // 0) while sort-ahead served only the first four interesting
        // orders; (438, 1834, 1739, 760, 195, 3) while a ranged index
        // path and an index nested loop counted a selectivity twice and
        // dominance guarded against the larger estimate.
        (359, 1518, 1437, 626, 171, 3)
    );
    assert!(s.contexts_built > 0 && s.reduce_memo_hits > 0, "{s}");
    assert!(
        s.contexts_built <= 1_300,
        "contexts are being rebuilt instead of shared: {s}"
    );
}

/// The order reasoning each join-ladder statement does, by count: the
/// contexts its planning builds and the reductions its contexts answer
/// from their memos. The golden pins what is planned, not how much
/// reasoning it took; a change that skips or repeats order work — a
/// memo that forgets, a `test_order` that reduces twice — moves these.
#[test]
fn join_ladder_order_work_is_pinned() {
    let work: Vec<(&str, u64, u64)> = planner_work_by_join_count(0.002, 1)
        .unwrap()
        .iter()
        .map(|w| (w.name, w.stats.contexts_built, w.stats.reduce_memo_hits))
        .collect();
    // Before subsets grew by joined quantifiers first: q3 106 / 32 991,
    // fig6 64 / 46 432, j4 213 / 331 204, j5 676 / 1 004 815. Before
    // sort-ahead priced every candidate and built one sort per interest,
    // the memo hits were 10 780 / 21 720 / 31 239 / 141 076 / 266 221.
    // While dominance compared whole orders: 12 / 3 970, 83 / 10 028,
    // 50 / 15 406, 104 / 42 035 and 216 / 85 020 (fewer plans survive
    // now, but their joins meet a few more combinations of facts). While
    // sort-ahead served only the first four interests, j5 read 224 /
    // 33 930. While a grouping asked `FlexOrder::satisfied_by`'s own walk
    // and then concretized, not one walk and Test Order, the hits were
    // 2 146 / 7 910 / 7 317 / 19 433 / 38 516. While one join subset
    // could carry two row estimates (and dominance kept the plan with
    // fewer rows), q3 92 / 7 918, fig6 54 / 7 325, j4 112 / 19 444 and
    // j5 228 / 38 521.
    assert_eq!(
        work,
        [
            ("order_report", 12, 2_155),
            ("q3", 74, 5_919),
            ("fig6", 46, 6_559),
            ("j4", 96, 15_932),
            ("j5", 172, 29_970),
        ]
    );
}

/// Turning order optimization off is the whole of the disabled baseline:
/// sort-ahead needs the order algebra, so with the master switch off the
/// sort-ahead flag changes nothing, and every join-ladder statement plans
/// as under [`OptimizerConfig::disabled`], decision for decision.
#[test]
fn order_optimization_off_plans_as_disabled() {
    let db = tiny_tpcd();
    let planned = |cfg: OptimizerConfig, sql: &str| {
        let q = Session::new(&db).config(cfg).plan(sql).unwrap();
        (q.planner_stats(), q.explain_properties())
    };
    for (name, _tables, sql) in join_ladder() {
        let disabled = planned(OptimizerConfig::disabled(), &sql);
        assert_eq!(disabled.0.sort_ahead_variants, 0, "{name}");
        for cfg in [
            OptimizerConfig::default().with_order_optimization(false),
            OptimizerConfig::disabled().with_sort_ahead(false),
        ] {
            assert_eq!(planned(cfg.clone(), &sql), disabled, "{name}: {cfg:?}");
        }
    }
}

/// Rewrites the golden file from the current planner.
#[test]
#[ignore = "overwrites tests/golden/plan_stability.txt"]
fn regenerate() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/plan_stability.txt"
    );
    std::fs::write(path, render_all()).unwrap();
}
