//! Aggregate function calls and their incremental accumulators.

use crate::expr::Expr;
use crate::layout::RowLayout;
use fto_common::{ColSet, Result, Value};
use std::collections::HashSet;
use std::fmt;

/// Aggregate functions supported by the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AggFunc {
    /// `COUNT(expr)` / `COUNT(*)` when the argument is a literal.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

impl AggFunc {
    /// The SQL name of the function.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// An aggregate call appearing in a GROUP BY output list.
#[derive(Clone, PartialEq, Debug)]
pub struct AggCall {
    /// The function.
    pub func: AggFunc,
    /// Argument expression.
    pub arg: Expr,
    /// SQL `DISTINCT` inside the call (`sum(distinct x)`).
    pub distinct: bool,
}

impl AggCall {
    /// Constructs an aggregate call.
    pub fn new(func: AggFunc, arg: Expr) -> Self {
        AggCall {
            func,
            arg,
            distinct: false,
        }
    }

    /// Marks the call as `DISTINCT`.
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// Columns referenced by the argument.
    pub fn cols(&self) -> ColSet {
        self.arg.cols()
    }

    /// Creates a fresh accumulator for this call.
    pub fn accumulator(&self) -> Accumulator {
        Accumulator {
            func: self.func,
            distinct: self.distinct,
            seen: if self.distinct {
                Some(HashSet::new())
            } else {
                None
            },
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            saw_float: false,
            min: None,
            max: None,
        }
    }
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}{})",
            self.func.name(),
            if self.distinct { "distinct " } else { "" },
            self.arg
        )
    }
}

/// Incremental state for one aggregate over one group.
#[derive(Clone, Debug)]
pub struct Accumulator {
    func: AggFunc,
    distinct: bool,
    seen: Option<HashSet<Value>>,
    count: u64,
    sum_i: i64,
    sum_f: f64,
    saw_float: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    /// Feeds one input row; NULL arguments are skipped per SQL semantics.
    pub fn update(&mut self, call: &AggCall, row: &[Value], layout: &RowLayout) -> Result<()> {
        self.update_value(call.arg.eval(row, layout)?);
        Ok(())
    }

    /// Feeds one already-evaluated argument value. Semantics identical to
    /// [`Accumulator::update`]; the streaming executor's columnar
    /// aggregation kernel reproduces them bit for bit without going
    /// through this type, which serves the query-level oracle.
    pub fn update_value(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        if self.distinct {
            let seen = self.seen.as_mut().expect("distinct accumulator has set");
            if !seen.insert(v.clone()) {
                return;
            }
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match &v {
                Value::Int(i) => self.sum_i = self.sum_i.wrapping_add(*i),
                other => {
                    self.saw_float = true;
                    self.sum_f += other.as_double().unwrap_or(0.0);
                }
            },
            AggFunc::Min => {
                if self.min.as_ref().is_none_or(|m| v < *m) {
                    self.min = Some(v);
                }
            }
            AggFunc::Max => {
                if self.max.as_ref().is_none_or(|m| v > *m) {
                    self.max = Some(v);
                }
            }
        }
    }

    /// Produces the final aggregate value.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.saw_float {
                    Value::Double(self.sum_f + self.sum_i as f64)
                } else {
                    Value::Int(self.sum_i)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Double((self.sum_f + self.sum_i as f64) / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_common::ColId;

    fn layout() -> RowLayout {
        RowLayout::new(vec![ColId(0)])
    }

    fn feed(call: &AggCall, vals: &[Value]) -> Value {
        let l = layout();
        let mut acc = call.accumulator();
        for v in vals {
            acc.update(call, std::slice::from_ref(v), &l).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn sum_int() {
        let call = AggCall::new(AggFunc::Sum, Expr::col(ColId(0)));
        let out = feed(&call, &[Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(out, Value::Int(6));
    }

    #[test]
    fn sum_mixed_widens() {
        let call = AggCall::new(AggFunc::Sum, Expr::col(ColId(0)));
        let out = feed(&call, &[Value::Int(1), Value::Double(0.5)]);
        assert_eq!(out, Value::Double(1.5));
    }

    #[test]
    fn sum_of_empty_is_null() {
        let call = AggCall::new(AggFunc::Sum, Expr::col(ColId(0)));
        assert_eq!(feed(&call, &[]), Value::Null);
        assert_eq!(feed(&call, &[Value::Null]), Value::Null);
    }

    #[test]
    fn count_skips_nulls() {
        let call = AggCall::new(AggFunc::Count, Expr::col(ColId(0)));
        let out = feed(&call, &[Value::Int(1), Value::Null, Value::Int(2)]);
        assert_eq!(out, Value::Int(2));
    }

    #[test]
    fn count_star_counts_everything_nonnull() {
        // COUNT(*) is modelled as COUNT(1).
        let call = AggCall::new(AggFunc::Count, Expr::int(1));
        let out = feed(&call, &[Value::Null, Value::Null]);
        assert_eq!(out, Value::Int(2));
    }

    #[test]
    fn min_max() {
        let call = AggCall::new(AggFunc::Min, Expr::col(ColId(0)));
        assert_eq!(feed(&call, &[Value::Int(5), Value::Int(2)]), Value::Int(2));
        let call = AggCall::new(AggFunc::Max, Expr::col(ColId(0)));
        assert_eq!(
            feed(&call, &[Value::str("a"), Value::str("c"), Value::str("b")]),
            Value::str("c")
        );
        let call = AggCall::new(AggFunc::Max, Expr::col(ColId(0)));
        assert_eq!(feed(&call, &[]), Value::Null);
    }

    #[test]
    fn avg() {
        let call = AggCall::new(AggFunc::Avg, Expr::col(ColId(0)));
        let out = feed(&call, &[Value::Int(1), Value::Int(2)]);
        assert_eq!(out, Value::Double(1.5));
        assert_eq!(feed(&call, &[]), Value::Null);
    }

    #[test]
    fn distinct_sum() {
        let call = AggCall::new(AggFunc::Sum, Expr::col(ColId(0))).distinct();
        let out = feed(
            &call,
            &[Value::Int(2), Value::Int(2), Value::Int(3), Value::Int(3)],
        );
        assert_eq!(out, Value::Int(5));
    }

    #[test]
    fn distinct_count() {
        let call = AggCall::new(AggFunc::Count, Expr::col(ColId(0))).distinct();
        let out = feed(&call, &[Value::Int(1), Value::Int(1), Value::Int(2)]);
        assert_eq!(out, Value::Int(2));
    }

    #[test]
    fn display() {
        let call = AggCall::new(AggFunc::Sum, Expr::col(ColId(0))).distinct();
        assert_eq!(call.to_string(), "sum(distinct c0)");
    }
}
