//! Scalar expressions and their evaluation.

use crate::layout::RowLayout;
use fto_common::{ColId, ColSet, FtoError, Result, Value};
use std::fmt;

/// Binary arithmetic operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

impl ArithOp {
    /// The operator as SQL writes it.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// A scalar expression over query columns.
///
/// Expressions are deliberately small: column references, literals, and
/// arithmetic are all the paper's workloads (including TPC-D Q3's
/// `l_extendedprice * (1 - l_discount)`) require. Aggregate calls are a
/// separate type ([`crate::AggCall`]) because they only appear in GROUP BY
/// output lists.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// Reference to a query column.
    Col(ColId),
    /// A literal constant.
    Lit(Value),
    /// Binary arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
}

impl Expr {
    /// Column reference constructor.
    pub fn col(c: ColId) -> Expr {
        Expr::Col(c)
    }

    /// Integer literal constructor.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Value::Int(v))
    }

    /// Arithmetic constructor.
    pub fn arith(op: ArithOp, left: Expr, right: Expr) -> Expr {
        Expr::Arith {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// If the expression is a bare column reference, returns it.
    pub fn as_col(&self) -> Option<ColId> {
        match self {
            Expr::Col(c) => Some(*c),
            _ => None,
        }
    }

    /// If the expression is a literal, returns it.
    pub fn as_lit(&self) -> Option<&Value> {
        match self {
            Expr::Lit(v) => Some(v),
            _ => None,
        }
    }

    /// Collects every column referenced by the expression into `out`.
    pub fn collect_cols(&self, out: &mut ColSet) {
        match self {
            Expr::Col(c) => {
                out.insert(*c);
            }
            Expr::Lit(_) => {}
            Expr::Arith { left, right, .. } => {
                left.collect_cols(out);
                right.collect_cols(out);
            }
        }
    }

    /// The set of columns referenced by the expression.
    pub fn cols(&self) -> ColSet {
        let mut s = ColSet::new();
        self.collect_cols(&mut s);
        s
    }

    /// Rewrites every column reference through `f` (used when the planner
    /// remaps columns, e.g. during homogenization or view merging).
    pub fn map_cols(&self, f: &mut impl FnMut(ColId) -> ColId) -> Expr {
        match self {
            Expr::Col(c) => Expr::Col(f(*c)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Arith { op, left, right } => Expr::Arith {
                op: *op,
                left: Box::new(left.map_cols(f)),
                right: Box::new(right.map_cols(f)),
            },
        }
    }

    /// Evaluates the expression against a row.
    ///
    /// Arithmetic on NULL yields NULL; integer arithmetic stays integral,
    /// any float operand widens the result. Division by zero yields NULL
    /// (the engine's deliberate, non-erroring choice for workload data).
    pub fn eval(&self, row: &[Value], layout: &RowLayout) -> Result<Value> {
        match self {
            Expr::Col(c) => {
                let pos = layout.position(*c).ok_or_else(|| {
                    FtoError::internal(format!("column {c} missing from row layout"))
                })?;
                Ok(row[pos].clone())
            }
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Arith { op, left, right } => {
                let l = left.eval(row, layout)?;
                let r = right.eval(row, layout)?;
                eval_arith(*op, &l, &r)
            }
        }
    }
}

fn eval_arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            ArithOp::Add => Value::Int(a.wrapping_add(*b)),
            ArithOp::Sub => Value::Int(a.wrapping_sub(*b)),
            ArithOp::Mul => Value::Int(a.wrapping_mul(*b)),
            ArithOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.wrapping_div(*b))
                }
            }
        }),
        _ => {
            let (a, b) = match (l.as_double(), r.as_double()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(FtoError::Exec(format!(
                        "cannot apply {} to {l} and {r}",
                        op.symbol()
                    )))
                }
            };
            Ok(match op {
                ArithOp::Add => Value::Double(a + b),
                ArithOp::Sub => Value::Double(a - b),
                ArithOp::Mul => Value::Double(a * b),
                ArithOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Double(a / b)
                    }
                }
            })
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => write!(f, "{c}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Arith { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> ColId {
        ColId(i)
    }

    fn layout() -> RowLayout {
        RowLayout::new(vec![c(0), c(1), c(2)])
    }

    #[test]
    fn eval_column_and_literal() {
        let row = [Value::Int(10), Value::str("x"), Value::Null];
        let l = layout();
        assert_eq!(Expr::col(c(0)).eval(&row, &l).unwrap(), Value::Int(10));
        assert_eq!(Expr::int(7).eval(&row, &l).unwrap(), Value::Int(7));
    }

    #[test]
    fn eval_missing_column_is_internal_error() {
        let row = [Value::Int(10)];
        let l = RowLayout::new(vec![c(0)]);
        let err = Expr::col(c(5)).eval(&row, &l).unwrap_err();
        assert!(matches!(err, FtoError::Internal(_)));
    }

    #[test]
    fn integer_arithmetic() {
        let l = layout();
        let row = [Value::Int(10), Value::Int(3), Value::Null];
        let e = Expr::arith(ArithOp::Add, Expr::col(c(0)), Expr::col(c(1)));
        assert_eq!(e.eval(&row, &l).unwrap(), Value::Int(13));
        let e = Expr::arith(ArithOp::Div, Expr::col(c(0)), Expr::col(c(1)));
        assert_eq!(e.eval(&row, &l).unwrap(), Value::Int(3));
        let e = Expr::arith(ArithOp::Div, Expr::col(c(0)), Expr::int(0));
        assert_eq!(e.eval(&row, &l).unwrap(), Value::Null);
    }

    #[test]
    fn mixed_arithmetic_widens() {
        let l = layout();
        let row = [Value::Int(4), Value::Double(0.5), Value::Null];
        let e = Expr::arith(ArithOp::Mul, Expr::col(c(0)), Expr::col(c(1)));
        assert_eq!(e.eval(&row, &l).unwrap(), Value::Double(2.0));
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        let l = layout();
        let row = [Value::Int(4), Value::Int(1), Value::Null];
        let e = Expr::arith(ArithOp::Add, Expr::col(c(2)), Expr::col(c(0)));
        assert_eq!(e.eval(&row, &l).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic_on_strings_errors() {
        let l = layout();
        let row = [Value::str("a"), Value::Int(1), Value::Null];
        let e = Expr::arith(ArithOp::Add, Expr::col(c(0)), Expr::col(c(1)));
        assert!(e.eval(&row, &l).is_err());
    }

    #[test]
    fn q3_revenue_expression() {
        // l_extendedprice * (1 - l_discount)
        let l = RowLayout::new(vec![c(0), c(1)]);
        let row = [Value::Double(100.0), Value::Double(0.05)];
        let e = Expr::arith(
            ArithOp::Mul,
            Expr::col(c(0)),
            Expr::arith(ArithOp::Sub, Expr::int(1), Expr::col(c(1))),
        );
        assert_eq!(e.eval(&row, &l).unwrap(), Value::Double(95.0));
        assert_eq!(e.to_string(), "(c0 * (1 - c1))");
    }

    #[test]
    fn collects_columns() {
        let e = Expr::arith(ArithOp::Add, Expr::col(c(1)), Expr::col(c(2)));
        assert_eq!(e.cols(), ColSet::from_cols([c(1), c(2)]));
        assert!(Expr::int(1).cols().is_empty());
    }

    #[test]
    fn map_cols_rewrites() {
        let e = Expr::arith(ArithOp::Add, Expr::col(c(1)), Expr::int(2));
        let e2 = e.map_cols(&mut |col| ColId(col.0 + 10));
        assert_eq!(e2.cols(), ColSet::from_cols([c(11)]));
    }

    #[test]
    fn as_col_and_as_lit() {
        assert_eq!(Expr::col(c(3)).as_col(), Some(c(3)));
        assert_eq!(Expr::int(1).as_col(), None);
        assert_eq!(Expr::int(1).as_lit(), Some(&Value::Int(1)));
        assert_eq!(Expr::col(c(3)).as_lit(), None);
    }
}
