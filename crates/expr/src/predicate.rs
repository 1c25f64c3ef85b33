//! Predicates and the structural analysis order optimization feeds on.
//!
//! The paper (§4.1) derives three kinds of information from applied
//! predicates:
//!
//! * `col = constant` ⇒ the empty-headed functional dependency `{} → {col}`
//!   (and a constant binding for the column's equivalence class);
//! * `col1 = col2` ⇒ the two FDs `{col1} → {col2}` and `{col2} → {col1}`,
//!   and membership of both columns in one equivalence class;
//! * everything else is opaque to order optimization but still filters rows.
//!
//! [`Predicate::classify`] performs exactly this analysis.

use crate::expr::Expr;
use crate::layout::RowLayout;
use fto_common::{ColId, ColSet, Result, Value};
use std::fmt;

/// Identifies a predicate within one query; used by the predicate property
/// (the set of predicates already applied to a stream).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PredId(pub u32);

impl PredId {
    /// Returns the id as a usize for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `IS NULL` (unary; the right operand is ignored).
    IsNull,
    /// `IS NOT NULL` (unary; the right operand is ignored).
    IsNotNull,
}

impl CompareOp {
    /// The SQL token for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
            CompareOp::IsNull => "is null",
            CompareOp::IsNotNull => "is not null",
        }
    }

    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Eq,
            CompareOp::Ne => CompareOp::Ne,
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::Le => CompareOp::Ge,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::Ge => CompareOp::Le,
            CompareOp::IsNull => CompareOp::IsNull,
            CompareOp::IsNotNull => CompareOp::IsNotNull,
        }
    }

    /// Whether an ordering between two non-null operands satisfies the
    /// operator; shared with the vectorized comparison kernels.
    pub(crate) fn evaluate(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CompareOp::Eq => ord == Equal,
            CompareOp::Ne => ord != Equal,
            CompareOp::Lt => ord == Less,
            CompareOp::Le => ord != Greater,
            CompareOp::Gt => ord == Greater,
            CompareOp::Ge => ord != Less,
            // Unary null tests never reach the ordering path.
            CompareOp::IsNull | CompareOp::IsNotNull => false,
        }
    }
}

/// A single comparison predicate. Conjunctions are represented as slices of
/// predicates (the engine is conjunctive-normal-form only, like the paper's
/// examples).
#[derive(Clone, PartialEq, Debug)]
pub struct Predicate {
    /// Comparison operator.
    pub op: CompareOp,
    /// Left operand.
    pub left: Expr,
    /// Right operand.
    pub right: Expr,
}

/// The structural classification of a predicate for order optimization.
#[derive(Clone, PartialEq, Debug)]
pub enum PredClass {
    /// `col = constant` (either operand order). Generates `{} → {col}`.
    ColEqConst(ColId, Value),
    /// `col1 = col2`. Generates both FDs and one equivalence class.
    ColEqCol(ColId, ColId),
    /// Any other predicate: still filters, but contributes no order facts.
    Opaque,
}

impl Predicate {
    /// Constructs a predicate.
    pub fn new(op: CompareOp, left: Expr, right: Expr) -> Self {
        Predicate { op, left, right }
    }

    /// `left = right` convenience constructor.
    pub fn eq(left: Expr, right: Expr) -> Self {
        Predicate::new(CompareOp::Eq, left, right)
    }

    /// `col1 = col2` convenience constructor.
    pub fn col_eq_col(a: ColId, b: ColId) -> Self {
        Predicate::eq(Expr::col(a), Expr::col(b))
    }

    /// `col = constant` convenience constructor.
    pub fn col_eq_const(c: ColId, v: Value) -> Self {
        Predicate::eq(Expr::col(c), Expr::Lit(v))
    }

    /// Classifies the predicate per the paper's §4.1 taxonomy.
    ///
    /// A literal expression qualifies as a constant; the paper notes host
    /// variables and correlated columns also qualify, which in this engine
    /// surface as literals by the time planning happens.
    pub fn classify(&self) -> PredClass {
        if self.op != CompareOp::Eq {
            return PredClass::Opaque;
        }
        match (&self.left, &self.right) {
            (Expr::Col(a), Expr::Col(b)) => {
                if a == b {
                    PredClass::Opaque // x = x filters nulls but orders nothing new
                } else {
                    PredClass::ColEqCol(*a, *b)
                }
            }
            (Expr::Col(c), Expr::Lit(v)) | (Expr::Lit(v), Expr::Col(c)) => {
                PredClass::ColEqConst(*c, v.clone())
            }
            _ => PredClass::Opaque,
        }
    }

    /// The columns referenced by both operands.
    pub fn cols(&self) -> ColSet {
        let mut s = self.left.cols();
        self.right.collect_cols(&mut s);
        s
    }

    /// Rewrites column references through `f`.
    pub fn map_cols(&self, f: &mut impl FnMut(ColId) -> ColId) -> Predicate {
        Predicate {
            op: self.op,
            left: self.left.map_cols(f),
            right: self.right.map_cols(f),
        }
    }

    /// `expr IS NULL` constructor.
    pub fn is_null(e: Expr) -> Self {
        Predicate::new(CompareOp::IsNull, e, Expr::Lit(Value::Null))
    }

    /// `expr IS NOT NULL` constructor.
    pub fn is_not_null(e: Expr) -> Self {
        Predicate::new(CompareOp::IsNotNull, e, Expr::Lit(Value::Null))
    }

    /// Evaluates the predicate against a row with SQL three-valued logic:
    /// a comparison involving NULL is *unknown* and therefore filters the
    /// row (returns `false`). `IS [NOT] NULL` are the exceptions — they
    /// are defined on NULL.
    pub fn eval(&self, row: &[Value], layout: &RowLayout) -> Result<bool> {
        let l = self.left.eval(row, layout)?;
        match self.op {
            CompareOp::IsNull => return Ok(l.is_null()),
            CompareOp::IsNotNull => return Ok(!l.is_null()),
            _ => {}
        }
        let r = self.right.eval(row, layout)?;
        if l.is_null() || r.is_null() {
            return Ok(false);
        }
        Ok(self.op.evaluate(l.total_cmp(&r)))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            CompareOp::IsNull | CompareOp::IsNotNull => {
                write!(f, "{} {}", self.left, self.op.symbol())
            }
            _ => write!(f, "{} {} {}", self.left, self.op.symbol(), self.right),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ArithOp;

    fn c(i: u32) -> ColId {
        ColId(i)
    }

    #[test]
    fn classify_col_eq_const() {
        let p = Predicate::col_eq_const(c(1), Value::Int(10));
        assert_eq!(p.classify(), PredClass::ColEqConst(c(1), Value::Int(10)));
        // Literal on the left too.
        let p = Predicate::eq(Expr::int(10), Expr::col(c(1)));
        assert_eq!(p.classify(), PredClass::ColEqConst(c(1), Value::Int(10)));
    }

    #[test]
    fn classify_col_eq_col() {
        let p = Predicate::col_eq_col(c(1), c(2));
        assert_eq!(p.classify(), PredClass::ColEqCol(c(1), c(2)));
    }

    #[test]
    fn classify_self_equality_is_opaque() {
        let p = Predicate::col_eq_col(c(1), c(1));
        assert_eq!(p.classify(), PredClass::Opaque);
    }

    #[test]
    fn classify_non_equality_is_opaque() {
        let p = Predicate::new(CompareOp::Lt, Expr::col(c(1)), Expr::int(5));
        assert_eq!(p.classify(), PredClass::Opaque);
        let p = Predicate::eq(
            Expr::arith(ArithOp::Add, Expr::col(c(1)), Expr::int(1)),
            Expr::int(5),
        );
        assert_eq!(p.classify(), PredClass::Opaque);
    }

    #[test]
    fn eval_comparisons() {
        let l = RowLayout::new(vec![c(0), c(1)]);
        let row = [Value::Int(3), Value::Int(5)];
        let lt = Predicate::new(CompareOp::Lt, Expr::col(c(0)), Expr::col(c(1)));
        assert!(lt.eval(&row, &l).unwrap());
        let ge = Predicate::new(CompareOp::Ge, Expr::col(c(0)), Expr::col(c(1)));
        assert!(!ge.eval(&row, &l).unwrap());
        let ne = Predicate::new(CompareOp::Ne, Expr::col(c(0)), Expr::col(c(1)));
        assert!(ne.eval(&row, &l).unwrap());
        let le = Predicate::new(CompareOp::Le, Expr::col(c(0)), Expr::int(3));
        assert!(le.eval(&row, &l).unwrap());
        let gt = Predicate::new(CompareOp::Gt, Expr::col(c(1)), Expr::int(3));
        assert!(gt.eval(&row, &l).unwrap());
    }

    #[test]
    fn eval_null_is_false() {
        let l = RowLayout::new(vec![c(0)]);
        let row = [Value::Null];
        for op in [CompareOp::Eq, CompareOp::Ne, CompareOp::Lt] {
            let p = Predicate::new(op, Expr::col(c(0)), Expr::int(1));
            assert!(!p.eval(&row, &l).unwrap(), "{op:?}");
        }
    }

    #[test]
    fn is_null_predicates() {
        let l = RowLayout::new(vec![ColId(0)]);
        let p = Predicate::is_null(Expr::col(ColId(0)));
        assert!(p.eval(&[Value::Null], &l).unwrap());
        assert!(!p.eval(&[Value::Int(1)], &l).unwrap());
        let p = Predicate::is_not_null(Expr::col(ColId(0)));
        assert!(!p.eval(&[Value::Null], &l).unwrap());
        assert!(p.eval(&[Value::Int(1)], &l).unwrap());
        assert_eq!(p.classify(), PredClass::Opaque);
        assert_eq!(p.to_string(), "c0 is not null");
    }

    #[test]
    fn flipped_ops() {
        assert_eq!(CompareOp::Lt.flipped(), CompareOp::Gt);
        assert_eq!(CompareOp::Le.flipped(), CompareOp::Ge);
        assert_eq!(CompareOp::Eq.flipped(), CompareOp::Eq);
        assert_eq!(CompareOp::Ne.flipped(), CompareOp::Ne);
    }

    #[test]
    fn cols_union_of_sides() {
        let p = Predicate::new(
            CompareOp::Lt,
            Expr::arith(ArithOp::Add, Expr::col(c(1)), Expr::col(c(2))),
            Expr::col(c(3)),
        );
        assert_eq!(p.cols(), ColSet::from_cols([c(1), c(2), c(3)]));
    }

    #[test]
    fn display() {
        let p = Predicate::col_eq_col(c(1), c(2));
        assert_eq!(p.to_string(), "c1 = c2");
        assert_eq!(PredId(3).to_string(), "p3");
    }

    #[test]
    fn map_cols() {
        let p = Predicate::col_eq_col(c(1), c(2));
        let q = p.map_cols(&mut |col| ColId(col.0 + 1));
        assert_eq!(q.classify(), PredClass::ColEqCol(c(2), c(3)));
    }
}
