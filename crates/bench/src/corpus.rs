//! The shared emp/dept differential-test corpus: one small two-table
//! database with enough indexes to exercise every access path, plus the
//! 30-query workload the end-to-end, differential, and trace-determinism
//! suites all run. Lives here (rather than in a test file) so every
//! suite exercises literally the same queries against literally the same
//! data.

use fto_catalog::{Catalog, ColumnDef, KeyDef};
use fto_common::{DataType, Direction, Value};
use fto_storage::Database;

/// The emp/dept schema the end-to-end suites exercise: 12 departments,
/// 400 employees, a primary key on each table, and two secondary indexes
/// on `emp` (by department; by grade then id).
pub fn emp_db() -> Database {
    let mut cat = Catalog::new();
    let dept = cat
        .create_table(
            "dept",
            vec![
                ColumnDef::new("dept_id", DataType::Int),
                ColumnDef::new("dept_name", DataType::Str),
                ColumnDef::new("budget", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    let emp = cat
        .create_table(
            "emp",
            vec![
                ColumnDef::new("emp_id", DataType::Int),
                ColumnDef::new("emp_dept", DataType::Int),
                ColumnDef::new("salary", DataType::Int),
                ColumnDef::new("grade", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    cat.create_index("emp_dept_ix", emp, vec![(1, Direction::Asc)], false, false)
        .unwrap();
    cat.create_index(
        "emp_grade_ix",
        emp,
        vec![(3, Direction::Asc), (0, Direction::Asc)],
        false,
        false,
    )
    .unwrap();
    let mut db = Database::new(cat);
    db.load_table(
        dept,
        (0..12)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(format!("dept{i}")),
                    Value::Int(1000 * (i % 5)),
                ]
                .into_boxed_slice()
            })
            .collect(),
    )
    .unwrap();
    db.load_table(
        emp,
        (0..400)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 12),
                    Value::Int(30_000 + (i * 97) % 50_000),
                    Value::Int(i % 5),
                ]
                .into_boxed_slice()
            })
            .collect(),
    )
    .unwrap();
    db
}

/// The workload corpus over [`emp_db`]: sorts, group-bys, distinct,
/// views, unions, HAVING, outer joins, IN-subqueries, LIMIT — every
/// statement shape the engine supports.
pub const EMP_QUERIES: &[&str] = &[
    "select emp_id, salary from emp where grade = 3 order by emp_id",
    "select emp_id, grade from emp where emp_dept = 2 order by grade desc, emp_id",
    "select dept_name, count(*) as n, sum(salary) as total \
     from dept, emp where dept_id = emp_dept group by dept_name order by dept_name",
    "select dept_id, dept_name, budget, count(*) as n from dept, emp \
     where dept_id = emp_dept group by dept_id, dept_name, budget order by dept_id",
    "select distinct grade from emp order by grade",
    "select distinct emp_dept, grade from emp order by emp_dept, grade",
    "select v.emp_id, v.salary from \
     (select emp_id, salary from emp where grade = 1) as v order by v.emp_id",
    "select emp_dept, sum(salary * 2) as double_pay, avg(salary) as pay, \
     min(salary) as lo, max(salary) as hi from emp group by emp_dept order by emp_dept",
    "select emp_dept, count(distinct grade) as g from emp group by emp_dept order by emp_dept",
    "select emp_id from emp where salary >= 40000 and salary < 60000 and grade <> 0 \
     order by emp_id",
    "select e.emp_id, d.dept_name, b.emp_id from emp e, dept d, emp b \
     where e.emp_dept = d.dept_id and b.emp_id = e.emp_id order by e.emp_id",
    "select emp_id, salary from emp order by salary desc, emp_id limit 7",
    "select emp_id from emp limit 5",
    "select grade from emp where grade < 2 union all select grade from emp where grade < 2 \
     order by 1",
    "select grade from emp where grade < 2 union select grade from emp where grade < 2 \
     order by 1",
    "select emp_id from emp where grade = 0 union all select emp_id from emp where grade = 1 \
     order by emp_id desc limit 4",
    "select emp_dept, count(*) as n from emp group by emp_dept having count(*) > 33 \
     order by emp_dept",
    "select emp_dept, count(*) as n from emp group by emp_dept having min(salary) < 31000 \
     order by emp_dept",
    "select emp_dept, count(*) as n from emp group by emp_dept having emp_dept * 2 >= 20 \
     order by emp_dept",
    "select dept_name, emp_id from dept join emp on dept_id = emp_dept order by emp_id",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept and grade = 9 \
     order by dept_id",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept and emp_id < 3 \
     order by dept_id, emp_id",
    "select dept_id, count(emp_id) as n from dept \
     left join emp on dept_id = emp_dept and grade = 0 group by dept_id order by dept_id",
    "select count(*) as n, sum(salary) as s from emp where grade = 99",
    "select dept_id, emp_id from dept \
     left join emp on dept_id = emp_dept and grade = 0 and emp_id < 50 \
     where emp_id is null order by dept_id",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept and grade = 9 \
     where emp_id is not null order by dept_id",
    "select emp_id, emp_dept from emp \
     where emp_dept in (select dept_id from dept where budget = 0) order by emp_id",
    "select dept_id from dept where dept_id in (select emp_dept from emp where grade = 1) \
     order by dept_id",
    "select emp_id from emp where grade = 99 order by emp_id",
    "select grade, emp_id from emp where grade = 2 order by grade, emp_id",
];

/// Statements only an oracle that evaluates the unrewritten query can
/// judge: each holds a shape a predicate pushdown or a view merge could
/// get wrong — and the same wrong rows would come from any engine that
/// runs the rewritten plan — over data that shows it: unmatched outer
/// rows, duplicates under a DISTINCT, ties at a LIMIT. Not in
/// `EMP_QUERIES`, whose plans `tests/golden/plan_stability.txt` pins.
pub const UNREWRITTEN_QUERIES: &[&str] = &[
    // A WHERE conjunct on the null-supplying side of a LEFT JOIN removes
    // the padded rows (departments 6–11 match no employee below 6) and
    // the matched rows it fails; in the ON clause it would pad them.
    "select dept_id, emp_id, grade from dept left join emp \
     on dept_id = emp_dept and emp_id < 6 where grade < 3 order by dept_id, emp_id",
    "select dept_id, count(emp_id) as n from dept left join emp \
     on dept_id = emp_dept and emp_id < 30 where emp_id > 5 group by dept_id order by dept_id",
    // A join over a DISTINCT derived table whose input repeats each value.
    "select d.emp_dept, dept_name from (select distinct emp_dept from emp) d, dept \
     where d.emp_dept = dept_id order by dept_name",
    "select dept_name, g.grade from dept, (select distinct emp_dept, grade from emp) g \
     where g.emp_dept = dept_id and dept_id < 3 order by dept_name, g.grade",
    // IN over a subquery whose values repeat: a semi-join, one row per
    // department.
    "select dept_id, dept_name from dept where dept_id in \
     (select emp_dept from emp where grade = 1) order by dept_id",
    // HAVING on an aggregate, in and out of the select list.
    "select emp_dept, count(*) as n from emp group by emp_dept \
     having avg(salary) > 49400 order by emp_dept",
    "select grade, count(*) as n from emp group by grade having max(salary) > 68500",
    // UNION removes the duplicates UNION ALL keeps.
    "select grade from emp where emp_id < 20 union select emp_dept from emp where emp_id < 10",
    "select grade from emp where emp_id < 20 union all select emp_dept from emp where emp_id < 10",
    // Ties at the LIMIT cut: 80 employees share each grade.
    "select grade, emp_id from emp order by grade limit 10",
    "select emp_dept, salary from emp order by emp_dept desc limit 50",
];

/// TPC-D statements of two to five tables, each with the number of tables
/// it joins: the `compile_heavy` templates of `benchmark/`, constants
/// fixed. Planning dominates them on a small database, so they are what
/// the planner golden test pins and the `enumeration` binary times.
pub fn join_ladder() -> Vec<(&'static str, usize, String)> {
    vec![
        ("q3", 3, fto_tpcd::queries::q3("1995-03-15", "building")),
        (
            "order_report",
            2,
            "select o_orderkey, o_orderdate, o_totalprice, c_name \
             from customer, orders \
             where c_custkey = o_custkey and o_orderdate >= date('1992-05-01') \
             group by o_orderkey, o_orderdate, o_totalprice, c_name \
             order by o_orderkey"
                .to_string(),
        ),
        (
            "fig6",
            3,
            "select c_name, o_orderkey, o_orderdate, sum(l_extendedprice) as total \
             from customer, orders, lineitem \
             where c_custkey = o_custkey and o_orderkey = l_orderkey \
             and o_orderdate < date('1995-05-01') \
             group by c_name, o_orderkey, o_orderdate \
             order by o_orderkey"
                .to_string(),
        ),
        (
            "j4",
            4,
            "select n_name, c_name, o_orderkey, sum(l_extendedprice) as total \
             from customer, orders, lineitem, nation \
             where c_custkey = o_custkey and o_orderkey = l_orderkey \
             and c_nationkey = n_nationkey and o_orderdate < date('1995-05-01') \
             group by n_name, c_name, o_orderkey \
             order by n_name, c_name"
                .to_string(),
        ),
        (
            "j5",
            5,
            "select n_name, s_name, c_name, sum(l_extendedprice) as total \
             from customer, orders, lineitem, nation, supplier \
             where c_custkey = o_custkey and o_orderkey = l_orderkey \
             and c_nationkey = n_nationkey and l_suppkey = s_suppkey \
             and o_orderdate < date('1995-05-01') \
             group by n_name, s_name, c_name \
             order by n_name, s_name"
                .to_string(),
        ),
    ]
}

/// TPC-D statements of six to eight tables, each with the number of
/// tables it joins: `j5` of [`join_ladder`] plus `part` (`j6`), then
/// `region` (`j7`), then a second `nation`, the supplier's (`j8`). Not in
/// the join ladder, so neither the planner golden test nor `benchmark/`'s
/// `compile_heavy` runs them; the reference-planner check does.
pub fn wide_joins() -> Vec<(&'static str, usize, String)> {
    vec![
        (
            "j6",
            6,
            "select n_name, s_name, c_name, p_brand, sum(l_extendedprice) as total \
             from customer, orders, lineitem, nation, supplier, part \
             where c_custkey = o_custkey and o_orderkey = l_orderkey \
             and c_nationkey = n_nationkey and l_suppkey = s_suppkey \
             and l_partkey = p_partkey and o_orderdate < date('1995-05-01') \
             group by n_name, s_name, c_name, p_brand \
             order by n_name, s_name"
                .to_string(),
        ),
        (
            "j7",
            7,
            "select r_name, n_name, s_name, c_name, p_brand, sum(l_extendedprice) as total \
             from customer, orders, lineitem, nation, supplier, part, region \
             where c_custkey = o_custkey and o_orderkey = l_orderkey \
             and c_nationkey = n_nationkey and l_suppkey = s_suppkey \
             and l_partkey = p_partkey and n_regionkey = r_regionkey \
             and o_orderdate < date('1995-05-01') \
             group by r_name, n_name, s_name, c_name, p_brand \
             order by r_name, n_name, s_name"
                .to_string(),
        ),
        (
            "j8",
            8,
            "select r_name, cn.n_name as c_nation, sn.n_name as s_nation, c_name, p_brand, \
             sum(l_extendedprice) as total \
             from customer, orders, lineitem, nation cn, supplier, part, region, nation sn \
             where c_custkey = o_custkey and o_orderkey = l_orderkey \
             and c_nationkey = cn.n_nationkey and l_suppkey = s_suppkey \
             and l_partkey = p_partkey and cn.n_regionkey = r_regionkey \
             and s_nationkey = sn.n_nationkey and o_orderdate < date('1995-05-01') \
             group by r_name, cn.n_name, sn.n_name, c_name, p_brand \
             order by r_name, cn.n_name, sn.n_name"
                .to_string(),
        ),
    ]
}
