//! Regenerates the §5.2 join-enumeration complexity observation: pushing
//! down sort-ahead orders grows enumeration work roughly quadratically in
//! the number of interesting orders n (the paper notes n < 3 in
//! practice, keeping the overhead acceptable) — and reports what that
//! work costs here: planner time, time per plan and order contexts built
//! for statements of two to five tables (TPC-D scale 0.002, where
//! planning is nearly all of a statement's latency).
//!
//! ```text
//! cargo run -p fto-bench --release --bin enumeration [-- <max_n>]
//! ```

use fto_bench::harness::{enumeration_complexity, planner_work_by_join_count};

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
        "| statement    | tables | plans generated | planner us | us per plan | contexts built | reduce memo hits |"
    );
    println!(
        "|--------------|--------|-----------------|------------|-------------|----------------|------------------|"
    );
    for w in planner_work_by_join_count(0.002, 5).unwrap() {
        let us = w.planner.as_secs_f64() * 1e6;
        println!(
            "| {:<12} | {:>6} | {:>15} | {:>10.0} | {:>11.2} | {:>14} | {:>16} |",
            w.name,
            w.tables,
            w.stats.plans_generated,
            us,
            us / w.stats.plans_generated.max(1) as f64,
            w.stats.contexts_built,
            w.stats.reduce_memo_hits
        );
    }
}
