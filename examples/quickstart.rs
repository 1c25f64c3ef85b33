//! Quickstart: create a schema, load rows, run SQL, and look at the plan.
//!
//! ```text
//! cargo run -p fto-bench --example quickstart
//! ```

use fto_catalog::{Catalog, ColumnDef, KeyDef};
use fto_common::{DataType, Direction, Value};
use fto_exec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Define a schema: employees with a primary key and a secondary
    //    index on department.
    let mut catalog = Catalog::new();
    let emp = catalog.create_table(
        "emp",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("dept", DataType::Str),
            ColumnDef::new("salary", DataType::Int),
        ],
        vec![KeyDef::primary([0])],
    )?;
    catalog.create_index("emp_dept", emp, vec![(1, Direction::Asc)], false, false)?;

    // 2. Load data (statistics are gathered automatically).
    let mut db = Database::new(catalog);
    let depts = ["sales", "eng", "hr"];
    db.load_table(
        emp,
        (0..1000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(depts[(i % 3) as usize]),
                    Value::Int(40_000 + (i * 37) % 60_000),
                ]
                .into_boxed_slice()
            })
            .collect(),
    )?;

    // 3. Compile and execute SQL through the streaming executor. Note the
    //    ORDER BY includes `id`, the primary key: order optimization
    //    knows `{id} -> everything`, so the sort needs just one column,
    //    and grouping on `id, dept` is really grouping on `id`.
    let sql = "select id, dept, sum(salary) as total \
               from emp \
               where dept = 'eng' \
               group by id, dept \
               order by id, dept";

    let compiled = Session::new(&db).plan(sql)?;
    let result = compiled.execute()?;
    println!("plan:\n{}", compiled.explain());
    println!("first rows:");
    for row in result.rows().iter().take(5) {
        println!("  {row:?}");
    }
    println!("(total {} rows, {})", result.num_rows(), result.io);

    // 4. The same query with order optimization disabled sorts more.
    let naive = Session::new(&db)
        .config(OptimizerConfig::disabled())
        .plan(sql)?;
    // A full sort: `PlanNode::Sort` with no satisfied prefix and no limit.
    let sorts = |q: &PreparedQuery| {
        q.plan().count_ops(&|n| {
            matches!(
                n,
                fto_planner::PlanNode::Sort {
                    prefix_len: 0,
                    limit: None,
                    ..
                }
            )
        })
    };
    println!(
        "sorts in plan: {} with order optimization, {} without",
        sorts(&compiled),
        sorts(&naive)
    );
    Ok(())
}
