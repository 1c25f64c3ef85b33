//! Sort avoidance in practice: the redundancy patterns the paper says
//! dominate real decision-support queries — grouping on key columns,
//! sorting on columns bound to constants — and how reduction erases them.
//!
//! ```text
//! cargo run -p fto-bench --example sort_avoidance
//! ```

use fto_catalog::{Catalog, ColumnDef, KeyDef};
use fto_common::{DataType, Direction, Value};
use fto_exec::prelude::*;
use fto_planner::PlanNode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut catalog = Catalog::new();
    let t = catalog.create_table(
        "shipments",
        vec![
            ColumnDef::new("ship_id", DataType::Int),
            ColumnDef::new("region", DataType::Str),
            ColumnDef::new("status", DataType::Str),
            ColumnDef::new("weight", DataType::Int),
        ],
        vec![KeyDef::primary([0])],
    )?;
    catalog.create_index("ship_region", t, vec![(1, Direction::Asc)], false, false)?;
    let mut db = Database::new(catalog);
    let regions = ["east", "west", "north", "south"];
    let statuses = ["open", "closed"];
    db.load_table(
        t,
        (0..5000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(regions[(i % 4) as usize]),
                    Value::str(statuses[(i % 2) as usize]),
                    Value::Int((i * 13) % 900),
                ]
                .into_boxed_slice()
            })
            .collect(),
    )?;

    let cases = [
        (
            "ORDER BY a constant-bound column costs nothing",
            "select ship_id, status from shipments \
             where status = 'open' order by status, ship_id",
        ),
        (
            "GROUP BY key + dependents needs no 3-column sort",
            "select ship_id, region, status, sum(weight) as w \
             from shipments group by ship_id, region, status \
             order by ship_id",
        ),
        (
            "DISTINCT on a key is a no-op ordering-wise",
            "select distinct ship_id, region from shipments order by ship_id",
        ),
    ];

    for (title, sql) in cases {
        println!("── {title} ──");
        println!("{sql}\n");
        for (mode, cfg) in [
            ("with order optimization", OptimizerConfig::default()),
            ("without", OptimizerConfig::disabled()),
        ] {
            let compiled = Session::new(&db).config(cfg).plan(sql)?;
            let sorts = compiled.plan().count_ops(&|n| full_sort_width(n).is_some());
            let sort_cols = max_sort_width(compiled.plan());
            println!("  {mode:<24} sorts: {sorts}, widest sort: {sort_cols} column(s)");
        }
        println!();
    }
    Ok(())
}

/// The key count of a full sort (`PlanNode::Sort` with no satisfied
/// prefix and no limit); `None` for every other node.
fn full_sort_width(node: &PlanNode) -> Option<usize> {
    match node {
        PlanNode::Sort {
            spec,
            prefix_len: 0,
            limit: None,
            ..
        } => Some(spec.len()),
        _ => None,
    }
}

fn max_sort_width(plan: &fto_planner::Plan) -> usize {
    let own = full_sort_width(&plan.node).unwrap_or(0);
    plan.children()
        .iter()
        .map(|c| max_sort_width(c))
        .max()
        .unwrap_or(0)
        .max(own)
}
