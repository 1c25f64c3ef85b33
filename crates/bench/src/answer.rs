//! The answer check every suite runs the engine through: a statement's
//! rows against the query-level oracle's (`PreparedQuery::
//! execute_materialized`, which evaluates the bound query, unrewritten
//! and unplanned), and a run against the same plan at the reference cell.
//!
//! Two engines that compute an answer differently may differ in what a
//! query leaves open — the order of rows an ORDER BY ties, which rows a
//! LIMIT keeps among those tied at the cut, the last bits of a double sum
//! — so [`Answer::check`] compares what the query fixes. One plan run at
//! any batch size, budget or thread count may not differ at all, so
//! [`assert_answer`] also holds each run bit for bit to the plan's serial,
//! unbudgeted run at batch 1024.

use crate::Session;
use fto_common::{Direction, Row, Value};
use fto_exec::QueryOutput;
use fto_planner::OptimizerConfig;
use fto_storage::Database;
use std::cmp::Ordering;

/// Doubles may differ in their last bits between two engines that add the
/// same numbers in a different order; beyond this relative distance they
/// are different answers.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// The oracle's answer to one statement, with what the statement fixes
/// about any answer: its ORDER BY and LIMIT.
#[derive(Debug)]
pub struct Answer {
    rows: Vec<Row>,
    /// (output position, direction) per ORDER BY key.
    order_by: Vec<(usize, Direction)>,
    limit: Option<usize>,
}

impl Answer {
    /// The oracle's answer to `sql` over `db`. Panics when the statement
    /// does not compile or the oracle fails.
    pub fn of(db: &Database, sql: &str) -> Answer {
        let oracle = || -> fto_common::Result<_> {
            let out = Session::new(db).plan(sql)?.execute_materialized()?;
            let graph = fto_sql::bind(&fto_sql::parse_query(sql)?, db.catalog())?;
            Ok((out, graph))
        };
        let (out, graph) = oracle().unwrap_or_else(|e| panic!("oracle: {sql}: {e}"));
        let root = graph.boxed(graph.root);
        let position = |col| root.output.iter().position(|o| o.col == col);
        let order_by = root.output_order.iter().flat_map(|o| o.keys());
        Answer {
            rows: out.rows().to_vec(),
            order_by: order_by
                .map(|k| (position(k.col).expect("ORDER BY columns are output"), k.dir))
                .collect(),
            limit: root.limit.map(|n| n as usize),
        }
    }

    /// The oracle's rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// `Ok` when `got` answers the statement as the oracle does: the same
    /// number of rows, in the ORDER BY's order (ties in any order), and
    /// the same multiset of rows — doubles within `FLOAT_TOLERANCE` (1e-9)
    /// relative, any NaN equal to any NaN. Where the LIMIT cut the
    /// oracle's answer, the rows kept among those tied at the cut are
    /// free, so only the ORDER BY keys' values are compared.
    pub fn check(&self, got: &[Row]) -> Result<(), String> {
        if got.len() != self.rows.len() {
            let want = self.rows.len();
            return Err(format!("{} rows, the oracle has {want}", got.len()));
        }
        if let Some(i) = (1..got.len()).find(|&i| self.ordered(&got[i - 1], &got[i]).is_gt()) {
            return Err(format!("rows {} and {i} break the ORDER BY", i - 1));
        }
        let (got, want) = match self.limit == Some(got.len()) {
            true => (self.keys(got), self.keys(&self.rows)),
            false => (canonical(got), canonical(&self.rows)),
        };
        match got.iter().zip(&want).find(|(g, w)| !same_row(g, w)) {
            Some((g, w)) => Err(format!("row {g:?} where the oracle has {w:?}")),
            None => Ok(()),
        }
    }

    fn ordered(&self, a: &Row, b: &Row) -> Ordering {
        let key = |&(p, dir): &(usize, Direction)| dir.apply(a[p].total_cmp(&b[p]));
        self.order_by
            .iter()
            .map(key)
            .fold(Ordering::Equal, Ordering::then)
    }

    fn keys(&self, rows: &[Row]) -> Vec<Row> {
        let key = |row: &Row| self.order_by.iter().map(|&(p, _)| row[p].clone()).collect();
        rows.iter().map(key).collect()
    }
}

/// `rows` in one order that depends on their values alone: by every
/// column that holds no double, then by the double columns — so rows
/// whose doubles differ in their last bits still pair up.
fn canonical(rows: &[Row]) -> Vec<Row> {
    let width = rows.first().map_or(0, |r| r.len());
    let double = |c: usize| rows.iter().any(|r| matches!(r[c], Value::Double(_)));
    let (doubles, exact): (Vec<usize>, Vec<usize>) = (0..width).partition(|&c| double(c));
    let cols = [exact, doubles].concat();
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| {
        let ord = cols.iter().map(|&c| a[c].total_cmp(&b[c]));
        ord.fold(Ordering::Equal, Ordering::then)
    });
    sorted
}

fn same_row(a: &Row, b: &Row) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| same_value(x, y))
}

fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            x == y
                || (x.is_nan() && y.is_nan())
                || (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs())
        }
        _ => a == b && a.data_type() == b.data_type(),
    }
}

/// Rows as text with doubles by bit pattern: `Value`'s `Eq` follows
/// `total_cmp` (−0.0 = 0.0, Int 5 = Double 5.0), too coarse for "bit for
/// bit".
pub fn exact(rows: &[Row]) -> Vec<String> {
    let show = |v: &Value| match v {
        Value::Double(d) => format!("D{:016x}", d.to_bits()),
        other => format!("{other:?}"),
    };
    let row = |r: &Row| r.iter().map(show).collect::<Vec<_>>().join("|");
    rows.iter().map(row).collect()
}

/// `config` at the reference cell's execution knobs: serial, unbudgeted,
/// batch 1024. Planning reads none of them, so it plans what `config`
/// plans.
pub fn reference_knobs(config: &OptimizerConfig) -> OptimizerConfig {
    let mut reference = config.clone().with_threads(1).with_batch_size(1024);
    reference.memory_budget = None;
    reference
}

/// Plans and runs `sql` under `config`, checks the output against
/// `answer` and — when `config`'s batch size, budget or thread count
/// differ from the reference cell's — bit for bit against the same plan
/// run at the reference cell. Panics naming the statement, `config` and
/// the plan; returns the output.
pub fn assert_answer(
    db: &Database,
    sql: &str,
    config: &OptimizerConfig,
    answer: &Answer,
) -> QueryOutput {
    let cell = format!("{sql}\nunder {config:?}");
    let prepared = Session::new(db)
        .config(config.clone())
        .plan(sql)
        .unwrap_or_else(|e| panic!("{cell}: {e}"));
    let out = prepared.execute().unwrap_or_else(|e| panic!("{cell}: {e}"));
    if let Err(e) = answer.check(out.rows()) {
        panic!("wrong answer: {e}\n{cell}\nplan:\n{}", prepared.explain());
    }
    let reference = reference_knobs(config);
    let knobs = |c: &OptimizerConfig| (c.batch_size, c.memory_budget, c.threads);
    if knobs(config) != knobs(&reference) {
        let session = Session::new(db).config(reference);
        let want = session
            .execute(sql)
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert_eq!(
            exact(out.rows()),
            exact(want.rows()),
            "rows differ from the reference cell's\n{cell}\nplan:\n{}",
            prepared.explain()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::emp_db;

    fn rows(data: &[(i64, f64)]) -> Vec<Row> {
        let row = |&(k, d): &(i64, f64)| vec![Value::Int(k), Value::Double(d)].into();
        data.iter().map(row).collect()
    }

    fn answer(
        data: &[(i64, f64)],
        order_by: &[(usize, Direction)],
        limit: Option<usize>,
    ) -> Answer {
        Answer {
            rows: rows(data),
            order_by: order_by.to_vec(),
            limit,
        }
    }

    #[test]
    fn ties_at_a_limit_cut_may_keep_any_of_the_tied_rows() {
        // ORDER BY k LIMIT 3 over k = 1, 2, 2, 2: the oracle kept the
        // first two rows tied at 2, the engine may keep any two.
        let asc = [(0, Direction::Asc)];
        let want = answer(&[(1, 0.5), (2, 1.0), (2, 2.0)], &asc, Some(3));
        assert!(want.check(&rows(&[(1, 0.5), (2, 3.0), (2, 1.0)])).is_ok());
        assert!(want.check(&rows(&[(1, 0.5), (2, 3.0), (3, 1.0)])).is_err());
        assert!(want.check(&rows(&[(2, 3.0), (1, 0.5), (2, 1.0)])).is_err());
        assert!(want.check(&rows(&[(1, 0.5), (2, 3.0)])).is_err());
        // Without a cut the tied rows are fixed, in any order.
        let whole = answer(&[(1, 0.5), (2, 1.0), (2, 2.0)], &asc, Some(4));
        assert!(whole.check(&rows(&[(1, 0.5), (2, 2.0), (2, 1.0)])).is_ok());
        assert!(whole.check(&rows(&[(1, 0.5), (2, 3.0), (2, 1.0)])).is_err());
    }

    #[test]
    fn a_limit_without_order_by_fixes_only_the_row_count() {
        let db = emp_db();
        let sql = "select emp_id from emp limit 5";
        let want = Answer::of(&db, sql);
        assert_eq!(want.rows().len(), 5);
        let other: Vec<Row> = (100..105).map(|i| vec![Value::Int(i)].into()).collect();
        assert!(want.check(&other).is_ok());
        assert!(want.check(&other[..4]).is_err());
        assert_answer(
            &db,
            sql,
            &OptimizerConfig::default().with_batch_size(2),
            &want,
        );
    }

    #[test]
    fn signed_zeros_and_nans_are_the_same_answer() {
        let want = answer(&[(1, -0.0), (2, f64::NAN)], &[], None);
        let nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert!(want.check(&rows(&[(2, -nan), (1, 0.0)])).is_ok());
        assert!(want.check(&rows(&[(1, 0.0), (2, 0.0)])).is_err());
    }

    #[test]
    fn doubles_match_within_the_tolerance_and_no_further() {
        let want = answer(&[(1, 0.1 + 0.2), (2, 1e300)], &[], None);
        assert!(want
            .check(&rows(&[(2, 1e300 * (1.0 + 1e-12)), (1, 0.3)]))
            .is_ok());
        assert!(want.check(&rows(&[(1, 0.3 + 1e-6), (2, 1e300)])).is_err());
        // The same multiset in another row order is the same answer; a
        // value moved to another row is not.
        let two = answer(&[(1, 1.0), (2, 2.0)], &[], None);
        assert!(two.check(&rows(&[(2, 2.0), (1, 1.0)])).is_ok());
        assert!(two.check(&rows(&[(1, 2.0), (2, 1.0)])).is_err());
    }
}
