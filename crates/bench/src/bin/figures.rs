//! Regenerates the paper's plan figures as ASCII plan trees, with
//! structural checks that our optimizer chose the published shapes.
//!
//! ```text
//! cargo run -p fto-bench --bin figures            # all figures
//! cargo run -p fto-bench --bin figures -- fig7    # one figure
//! ```
//!
//! * **Figure 1** — QEP for `select a.y, sum(b.y) from a, b where
//!   a.x = b.x group by a.y`.
//! * **Figure 6** — the §6 example: one sort-ahead below two joins
//!   satisfies the merge join, the GROUP BY, and the ORDER BY.
//! * **Figure 7** — TPC-D Q3 with order optimization: early sort on the
//!   order key, ordered nested-loop join into lineitem, streaming
//!   group-by with no extra sort.
//! * **Figure 8** — Q3 with order optimization disabled: the group-by
//!   needs its own three-column sort.

use fto_bench::harness::{paper_example_db, tpcd_db, FIG1_SQL, FIG6_SQL};
use fto_bench::Session;
use fto_planner::{OptimizerConfig, PlanNode};
use fto_tpcd::queries;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let run = |name: &str| which == "all" || which == name;
    if run("fig1") {
        fig1();
    }
    if run("fig6") {
        fig6();
    }
    if run("fig7") || run("fig8") {
        fig7_fig8(&which);
    }
}

fn fig1() {
    let db = paper_example_db(2000).unwrap();
    let prepared = Session::new(&db)
        .config(OptimizerConfig::db2_1996())
        .plan(FIG1_SQL)
        .unwrap();
    println!("── Figure 1: simple QGM and QEP example ──");
    println!("{FIG1_SQL}\n");
    println!("{}", prepared.explain());
    let out = prepared.execute().unwrap();
    println!("({} groups)\n", out.num_rows());
}

fn fig6() {
    let db = paper_example_db(2000).unwrap();
    let prepared = Session::new(&db)
        .config(OptimizerConfig::db2_1996())
        .plan(FIG6_SQL)
        .unwrap();
    println!("── Figure 6: one sort-ahead satisfies merge-join, GROUP BY, and ORDER BY ──");
    println!("{FIG6_SQL}\n");
    println!("{}", prepared.explain());

    // Structural check: the group-by streams (no sort directly beneath
    // it) and the plan output needs no final sort for the ORDER BY.
    let streaming = prepared.plan().count_ops(&|n| {
        matches!(
            n,
            PlanNode::GroupBy { grouping, prefix_len, .. }
                if *prefix_len as usize == grouping.len()
        )
    });
    let top_is_sort = prepared.plan().op_name() == "sort";
    println!(
        "[check] streaming group-by: {}  |  top-level sort avoided: {}\n",
        yes(streaming > 0),
        yes(!top_is_sort)
    );
}

fn fig7_fig8(which: &str) {
    let db = tpcd_db(0.02).unwrap();
    let sql = queries::q3_default();
    let enabled = Session::new(&db)
        .config(OptimizerConfig::db2_1996())
        .plan(&sql)
        .unwrap();
    let disabled = Session::new(&db)
        .config(OptimizerConfig::db2_1996_disabled())
        .plan(&sql)
        .unwrap();
    if which == "all" || which == "fig7" {
        println!("── Figure 7: Query 3 in the production version (order optimization on) ──\n");
        println!("{}", enabled.explain());
        let ordered_nlj = enabled
            .plan()
            .count_ops(&|n| matches!(n, PlanNode::IndexNestedLoopJoin { .. }));
        let group_sort = sort_feeding_group_by(enabled.plan());
        println!(
            "[check] ordered nested-loop join into lineitem: {}  |  group-by needs no own sort: {}\n",
            yes(ordered_nlj > 0),
            yes(!group_sort)
        );
    }
    if which == "all" || which == "fig8" {
        println!("── Figure 8: Query 3 with order optimization disabled ──\n");
        println!("{}", disabled.explain());
        let group_sort = sort_feeding_group_by(disabled.plan());
        println!(
            "[check] group-by forced to sort on all three grouping columns: {}\n",
            yes(group_sort)
        );
    }
}

/// True when a streaming group-by in the tree is fed directly by a full
/// sort.
fn sort_feeding_group_by(plan: &fto_planner::Plan) -> bool {
    let children = plan.children();
    (plan.op_name() == "group-by(stream)" && children[0].op_name() == "sort")
        || children.iter().any(|c| sort_feeding_group_by(c))
}

fn yes(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "NO"
    }
}
