//! The fuzzer's generator: a seeded, deterministic sweep of SQL
//! statements over two small integer tables — equi and non-equi joins,
//! inner and left, local predicates, GROUP BY with aggregates, a total
//! ORDER BY over every output column in random directions, and LIMIT.
//! `tests/fuzz_queries.rs` runs them under every configuration against
//! the oracle; `tests/reference_planner.rs` checks their planning against
//! the reference planner.

use fto_catalog::{Catalog, ColumnDef, KeyDef};
use fto_common::{DataType, Direction, Rng, Value};
use fto_storage::Database;

/// The fuzzer's statements: 96, from a fixed seed, so every run and
/// every suite sees the same ones.
pub fn generated_queries() -> Vec<GenQuery> {
    let mut rng = Rng::new(0xF02D_5EED);
    (0..96).map(|_| gen_query(&mut rng)).collect()
}

/// The fuzzer's database: `t1(a key, b, c)` with an index on `b`, 90
/// rows; `t2(d key, e, f)` with an index on `e`, 60 rows.
pub fn fuzz_db() -> Database {
    let mut cat = Catalog::new();
    let t1 = cat
        .create_table(
            "t1",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Int),
                ColumnDef::new("c", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    cat.create_index("t1_b", t1, vec![(1, Direction::Asc)], false, false)
        .unwrap();
    let t2 = cat
        .create_table(
            "t2",
            vec![
                ColumnDef::new("d", DataType::Int),
                ColumnDef::new("e", DataType::Int),
                ColumnDef::new("f", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    cat.create_index("t2_e", t2, vec![(1, Direction::Asc)], false, false)
        .unwrap();

    let mut db = Database::new(cat);
    db.load_table(
        t1,
        (0..90)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int((i * 7) % 10),
                    Value::Int((i * 3) % 5),
                ]
                .into_boxed_slice()
            })
            .collect(),
    )
    .unwrap();
    db.load_table(
        t2,
        (0..60)
            .map(|i| {
                vec![Value::Int(i), Value::Int(i % 10), Value::Int((i * 11) % 7)].into_boxed_slice()
            })
            .collect(),
    )
    .unwrap();
    db
}

/// One generated statement, before rendering ([`GenQuery::sql`]).
#[derive(Clone, Debug)]
pub struct GenQuery {
    join: Option<&'static str>, // join predicate
    left_outer: bool,
    preds: Vec<String>,
    select: Vec<&'static str>,
    group: bool,
    desc_mask: u8,
    /// The statement's LIMIT, if it has one.
    pub limit: Option<u8>,
}

const T1_COLS: [&str; 3] = ["a", "b", "c"];
const T2_COLS: [&str; 3] = ["d", "e", "f"];

fn gen_query(rng: &mut Rng) -> GenQuery {
    // Equi joins on a non-key and on a key column, and two non-equi ON
    // predicates, which run as keyless inner and left joins.
    let join = match rng.range_usize(0, 7) {
        0 | 1 => None,
        2 | 3 => Some("b = e"),
        4 => Some("a = d"),
        5 => Some("a < d"),
        _ => Some("b <> e"),
    };
    let n_preds = rng.range_usize(0, 3);
    let preds = (0..n_preds)
        .map(|_| {
            let c = rng.range_usize(0, 6);
            let col = if c < 3 { T1_COLS[c] } else { T2_COLS[c - 3] };
            let op = ["=", "<", ">", "<>"][rng.range_usize(0, 4)];
            let v = rng.range_incl_i64(-2, 11);
            format!("{col} {op} {v}")
        })
        .collect();
    // A non-empty subsequence of 1..4 columns out of the six.
    let all = [T1_COLS, T2_COLS].concat();
    let n_select = rng.range_usize(1, 4);
    let mut idx: Vec<usize> = (0..6).collect();
    for i in 0..n_select {
        let j = rng.range_usize(i, 6);
        idx.swap(i, j);
    }
    let mut select_idx: Vec<usize> = idx[..n_select].to_vec();
    select_idx.sort_unstable();
    GenQuery {
        join,
        left_outer: rng.bool(),
        preds,
        select: select_idx.into_iter().map(|i| all[i]).collect(),
        group: rng.bool(),
        desc_mask: rng.range_i64(0, 256) as u8,
        limit: rng.bool().then(|| rng.range_incl_i64(1, 19) as u8),
    }
}

impl GenQuery {
    /// The statement's SQL text.
    pub fn sql(&self) -> String {
        render(self)
    }
}

fn render(q: &GenQuery) -> String {
    let two_tables = q.join.is_some();
    // Without a join, restrict references to t1 columns.
    let select: Vec<&str> = if two_tables {
        q.select.clone()
    } else {
        let filtered: Vec<&str> = q
            .select
            .iter()
            .copied()
            .filter(|c| T1_COLS.contains(c))
            .collect();
        if filtered.is_empty() {
            vec!["a"]
        } else {
            filtered
        }
    };
    let preds: Vec<&String> = q
        .preds
        .iter()
        .filter(|p| two_tables || T1_COLS.iter().any(|c| p.starts_with(c)))
        .collect();

    let from = match (&q.join, q.left_outer) {
        (None, _) => "t1".to_string(),
        (Some(on), false) => format!("t1 join t2 on {on}"),
        (Some(on), true) => format!("t1 left join t2 on {on}"),
    };
    let mut sql = String::from("select ");
    let items: Vec<String> = if q.group {
        let mut v: Vec<String> = select.iter().map(|c| c.to_string()).collect();
        v.push("count(*) as cnt".into());
        v.push(format!("sum({}) as sm", select[0]));
        v
    } else {
        select.iter().map(|c| c.to_string()).collect()
    };
    sql.push_str(&items.join(", "));
    sql.push_str(&format!(" from {from}"));
    if !preds.is_empty() {
        sql.push_str(" where ");
        sql.push_str(
            &preds
                .iter()
                .map(|p| p.as_str())
                .collect::<Vec<_>>()
                .join(" and "),
        );
    }
    if q.group {
        sql.push_str(" group by ");
        sql.push_str(&select.join(", "));
    }
    // Total order over every output for cross-config determinism.
    let n_out = if q.group {
        select.len() + 2
    } else {
        select.len()
    };
    let order: Vec<String> = (0..n_out)
        .map(|i| {
            let dir = if q.desc_mask >> (i % 8) & 1 == 1 {
                " desc"
            } else {
                ""
            };
            format!("{}{}", i + 1, dir)
        })
        .collect();
    sql.push_str(" order by ");
    sql.push_str(&order.join(", "));
    if let Some(n) = q.limit {
        sql.push_str(&format!(" limit {n}"));
    }
    sql
}
