//! Randomized end-to-end differential testing: generated SQL queries run
//! under every optimizer configuration must produce identical results —
//! whatever join order, join method, access path, sort placement, or
//! group-by strategy each configuration picks — and the query-level
//! oracle's answer for the unrewritten query.
//!
//! Output determinism is guaranteed by always ordering by every output
//! column (a total order on the output multiset). Generation is a
//! seeded deterministic sweep (the container is offline, so no external
//! property-testing framework).

use fto_bench::answer::{assert_answer, Answer};
use fto_bench::fuzz::{fuzz_db, generated_queries};
use fto_bench::Session;
use fto_planner::OptimizerConfig;

fn configs() -> Vec<OptimizerConfig> {
    vec![
        OptimizerConfig::default(),
        OptimizerConfig::disabled(),
        OptimizerConfig::db2_1996(),
        OptimizerConfig::db2_1996_disabled(),
        OptimizerConfig::default()
            .with_sort_ahead(false)
            .with_merge_join(false),
        OptimizerConfig::default().with_batch_size(7),
        // Equi joins through the nested loop (or the index nested loop).
        OptimizerConfig::default()
            .with_hash_join(false)
            .with_merge_join(false),
        // Every join build spills, and probes in seven-pair chunks.
        OptimizerConfig::default()
            .with_memory_budget(1 << 10)
            .with_batch_size(7),
    ]
}

#[test]
fn all_configs_agree() {
    let db = fuzz_db();
    for (case, q) in generated_queries().iter().enumerate() {
        let sql = q.sql();
        let answer = Answer::of(&db, &sql);
        let mut reference: Option<Vec<fto_common::Row>> = None;
        for config in configs() {
            let streamed = assert_answer(&db, &sql, &config, &answer);
            match &reference {
                None => reference = Some(streamed.rows().to_vec()),
                Some(expected) => assert_eq!(
                    &streamed.rows(),
                    expected,
                    "row mismatch\ncase {case}\nsql: {sql}\nconfig: {config:?}\nplan:\n{}",
                    Session::new(&db)
                        .config(config.clone())
                        .explain(&sql)
                        .unwrap()
                ),
            }
        }
        // LIMIT respected.
        if let Some(n) = q.limit {
            assert!(reference.unwrap().len() <= n as usize);
        }
    }
}
