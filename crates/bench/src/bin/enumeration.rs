//! Regenerates the §5.2 join-enumeration complexity observation: the
//! paper prices sort-ahead at O(n²) in the number of interesting orders
//! n, tolerable because n < 3 in practice. Here sort-ahead serves every
//! interest, so the table gives each statement's n (the most interests
//! any one box holds) and its plans generated with sort-ahead off and on,
//! for the join ladder and `j6`–`j8` (TPC-D scale 0.002). It then reports
//! what the work costs: planner time, time per plan, order contexts built
//! and the disabled planner's time over the enabled one's for statements
//! of two to five tables (the same scale, where planning is nearly all of
//! a statement's latency). Closes with the cost of one
//! `FlexOrder::satisfied_by`, the order operation the benchmark's traced
//! pass (`core.{reduce,test_order,cover,homogenize}_ns`) does not time.
//!
//! ```text
//! cargo run -p fto-bench --release --bin enumeration
//! ```

use fto_bench::harness::{planner_work_by_join_count, sort_ahead_work};
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
    println!("Join-enumeration work with sort-ahead off and on (TPC-D scale 0.002)");
    println!();
    println!(
        "| statement    | tables | n (interests) | plans, sort-ahead off | plans, on | on ÷ off |"
    );
    println!(
        "|--------------|--------|---------------|-----------------------|-----------|----------|"
    );
    for (name, tables, n, [off, on]) in sort_ahead_work(0.002).unwrap() {
        println!(
            "| {name:<12} | {tables:>6} | {n:>13} | {off:>21} | {on:>9} | {:>7.2}x |",
            on as f64 / off.max(1) as f64
        );
    }
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
