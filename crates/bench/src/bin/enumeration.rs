//! Regenerates the §5.2 join-enumeration complexity observation: pushing
//! down sort-ahead orders grows enumeration work roughly quadratically in
//! the number of interesting orders n (the paper notes n < 3 in
//! practice, keeping the overhead acceptable) — and reports what that
//! work costs here: planner time, time per plan, order contexts built and
//! the disabled planner's time over the enabled one's for statements of
//! two to five tables (TPC-D scale 0.002, where planning is nearly all of
//! a statement's latency). Closes with the cost
//! of one `FlexOrder::satisfied_by`, the order operation the benchmark's
//! traced pass (`core.{reduce,test_order,cover,homogenize}_ns`) does not
//! time.
//!
//! ```text
//! cargo run -p fto-bench --release --bin enumeration [-- <max_n>]
//! ```

use fto_bench::harness::{enumeration_complexity, planner_work_by_join_count};
use fto_common::{ColId, ColSet, Value};
use fto_order::{EquivalenceClasses, FdSet, FlexOrder, OrderContext, OrderSpec};
use std::time::{Duration, Instant};

/// Best-of-20 time of one `FlexOrder::satisfied_by`: a six-column
/// group-by plus a trailing column, tested against a seven-column order
/// property under a busy multi-join query's worth of facts (32 columns,
/// 8 equivalence pairs, 4 constants, 4 key FDs).
fn flex_satisfied_by() -> Duration {
    const ITERS: u32 = 10_000;
    let mut eq = EquivalenceClasses::new();
    for i in 0..8u32 {
        eq.merge(ColId(i), ColId(i + 16));
    }
    for i in 8..12u32 {
        eq.bind_constant(ColId(i), Value::Int(i as i64));
    }
    let mut fds = FdSet::new();
    let all: ColSet = (0..32u32).map(ColId).collect();
    for lead in [0u32, 4, 16, 20] {
        fds.add_key(ColSet::singleton(ColId(lead)), all.clone());
    }
    let ctx = OrderContext::new(eq, &fds);
    let flex = FlexOrder::group_by((0..6u32).map(ColId), [ColId(7)]);
    let prop = OrderSpec::ascending([2u32, 0, 1, 5, 3, 4, 7].map(ColId));
    let batch = || {
        let start = Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(flex.satisfied_by(std::hint::black_box(&prop), &ctx));
        }
        start.elapsed() / ITERS
    };
    (0..20).map(|_| batch()).min().expect("twenty batches")
}

fn main() {
    let max_n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    println!("Join-enumeration work vs number of sort-ahead orders (TPC-D Q3)");
    println!();
    println!("| n (sort-ahead orders) | subplans generated | vs n=0 |");
    println!("|-----------------------|--------------------|--------|");
    let points = enumeration_complexity(0.005, max_n).unwrap();
    let base = points[0].1.max(1);
    for (n, plans) in &points {
        println!(
            "| {:>21} | {:>18} | {:>5.2}x |",
            n,
            plans,
            *plans as f64 / base as f64
        );
    }
    println!();
    println!(
        "The paper's claim: complexity grows by O(n^2) for n sort-ahead \
         orders, tolerable because n < 3 in practice."
    );
    println!();
    println!("Planner time by join count (TPC-D scale 0.002, best of 5)");
    println!();
    println!(
        "| statement    | tables | plans generated | planner us | us per plan | contexts built | reduce memo hits | disabled ÷ enabled |"
    );
    println!(
        "|--------------|--------|-----------------|------------|-------------|----------------|------------------|--------------------|"
    );
    for w in planner_work_by_join_count(0.002, 5).unwrap() {
        let us = w.planner.as_secs_f64() * 1e6;
        println!(
            "| {:<12} | {:>6} | {:>15} | {:>10.0} | {:>11.2} | {:>14} | {:>16} | {:>18.2} |",
            w.name,
            w.tables,
            w.stats.plans_generated,
            us,
            us / w.stats.plans_generated.max(1) as f64,
            w.stats.contexts_built,
            w.stats.reduce_memo_hits,
            w.disabled.as_secs_f64() / w.planner.as_secs_f64()
        );
    }
    println!();
    println!(
        "FlexOrder::satisfied_by (7-column property, 32-column context): {:.2?}",
        flex_satisfied_by()
    );
}
