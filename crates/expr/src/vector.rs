//! Vectorized predicate and expression evaluation over columnar batches.
//!
//! The executor's hot paths call these instead of the per-row
//! [`Predicate::eval`] / [`Expr::eval`]: predicates refine a selection
//! vector with one type dispatch per *column* (tight monomorphic loops
//! over the typed vectors), and projections evaluate whole columns —
//! a bare column reference is an `Arc` clone, numeric arithmetic runs a
//! per-type loop.
//!
//! Every kernel decides exactly as the row evaluator does: comparisons go
//! through the same total order ([`cmp_f64_nan_high`], [`cmp_int_double`],
//! byte-wise string compare), NULL comparisons are false, and arithmetic
//! is only vectorized over numeric operands — where it cannot error. That
//! is every arithmetic the binder admits (it types each expression and
//! refuses the rest), so a projection has no row path; a predicate whose
//! shape has no kernel still runs the row evaluator over the selected
//! rows. The differential suites hold the two engines bit-identical.

use crate::expr::{ArithOp, Expr};
use crate::layout::RowLayout;
use crate::predicate::{CompareOp, Predicate};
use fto_common::column::{Batch, Bitmap, Column, ColumnData};
use fto_common::value::{cmp_f64_nan_high, cmp_int_double};
use fto_common::{FtoError, Result, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Refines `sel` (candidate row indices into `batch`, ascending) to the
/// rows satisfying `pred`, with SQL three-valued logic exactly as
/// [`Predicate::eval`]: comparisons involving NULL filter the row.
///
/// Simple shapes (column/arith vs. literal, column vs. column over typed
/// vectors) run columnar kernels; anything else evaluates row-at-a-time,
/// but only over the still-selected rows so error behavior matches the
/// short-circuiting row path.
pub fn filter_selection(
    pred: &Predicate,
    batch: &Batch,
    layout: &RowLayout,
    sel: &mut Vec<u32>,
) -> Result<()> {
    match pred.op {
        CompareOp::IsNull | CompareOp::IsNotNull => {
            if let Some(col) = try_eval_column(&pred.left, batch, layout)? {
                let want_null = pred.op == CompareOp::IsNull;
                sel.retain(|&i| col.is_valid(i as usize) != want_null);
                return Ok(());
            }
        }
        _ => {
            // Column-vs-literal first: the common case, no constant
            // column materialization.
            if let Some(lit) = pred.right.as_lit() {
                if let Some(col) = try_eval_column(&pred.left, batch, layout)? {
                    compare_col_lit(pred.op, &col, lit, sel);
                    return Ok(());
                }
            } else if let Some(lit) = pred.left.as_lit() {
                if let Some(col) = try_eval_column(&pred.right, batch, layout)? {
                    compare_col_lit(pred.op.flipped(), &col, lit, sel);
                    return Ok(());
                }
            } else if let (Some(l), Some(r)) = (
                try_eval_column(&pred.left, batch, layout)?,
                try_eval_column(&pred.right, batch, layout)?,
            ) {
                compare_col_col(pred.op, &l, &r, sel);
                return Ok(());
            }
        }
    }
    // Row fallback over the surviving candidates only.
    let mut out = Vec::with_capacity(sel.len());
    for &i in sel.iter() {
        if pred.eval(&batch.row(i as usize), layout)? {
            out.push(i);
        }
    }
    *sel = out;
    Ok(())
}

/// Evaluates each projection expression over the whole batch, returning
/// the projected batch. Every well-typed expression — column references,
/// literals, numeric arithmetic — evaluates as a column of its declared
/// type; one that does not (arithmetic over a non-numeric operand, an
/// untyped NULL literal: nothing the binder lets through) is an
/// [`FtoError::Internal`].
pub fn project_batch(exprs: &[Expr], batch: &Batch, layout: &RowLayout) -> Result<Batch> {
    let cols = exprs
        .iter()
        .map(|e| {
            try_eval_column(e, batch, layout)?.ok_or_else(|| {
                FtoError::internal(format!("projected expression {e} is not well typed"))
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Batch::from_columns_with_len(cols, batch.len())
}

/// Evaluates `expr` as a whole column when it is vectorizable:
///
/// * a column reference — `Arc` clone of the batch column (errors like
///   the row path when the column is missing from the layout);
/// * a non-NULL literal — materialized constant column of the literal's
///   type (only when the literal *is* the expression; as an arithmetic
///   operand it stays a scalar);
/// * arithmetic whose operands are numeric (`Int64`/`Float64`) columns or
///   numeric literals — typed loops reproducing [`Expr::eval`]'s semantics
///   (wrapping integer ops, division by zero → NULL, any float operand
///   widens, NULL propagates); numeric arithmetic cannot error, so
///   evaluating unselected rows is unobservable.
///
/// Returns `Ok(None)` for an expression with no column form: a NULL
/// literal (it has no type) and arithmetic over strings, dates, booleans
/// or NULL literals — where the row evaluator may error or short-circuit.
pub fn try_eval_column(
    expr: &Expr,
    batch: &Batch,
    layout: &RowLayout,
) -> Result<Option<Arc<Column>>> {
    match expr {
        Expr::Col(c) => {
            let pos = layout
                .position(*c)
                .ok_or_else(|| FtoError::internal(format!("column {c} missing from row layout")))?;
            Ok(Some(Arc::clone(batch.column(pos))))
        }
        Expr::Lit(v) => Ok(constant_column(v, batch.len()).map(Arc::new)),
        Expr::Arith { op, left, right } => {
            let (Some(l), Some(r)) = (
                Operand::eval(left, batch, layout)?,
                Operand::eval(right, batch, layout)?,
            ) else {
                return Ok(None);
            };
            Ok(arith_operands(*op, &l, &r, batch.len()).map(Arc::new))
        }
    }
}

/// A column of `n` copies of `v`; none for NULL, which has no type.
fn constant_column(v: &Value, n: usize) -> Option<Column> {
    let data = match v {
        Value::Null => return None,
        Value::Int(x) => ColumnData::Int64(vec![*x; n]),
        Value::Double(x) => ColumnData::Float64(vec![*x; n]),
        Value::Str(s) => {
            let mut offsets = Vec::with_capacity(n + 1);
            let mut bytes = Vec::with_capacity(n * s.len());
            offsets.push(0u32);
            for _ in 0..n {
                bytes.extend_from_slice(s.as_bytes());
                offsets.push(bytes.len() as u32);
            }
            ColumnData::Utf8 { offsets, bytes }
        }
        Value::Date(d) => ColumnData::Date32(vec![*d; n]),
        Value::Bool(b) => ColumnData::Bool(vec![*b; n]),
    };
    Some(Column {
        data,
        validity: None,
    })
}

/// One side of a vectorized arithmetic node: an evaluated column, or a
/// literal kept as the scalar it is (never broadcast into a column).
enum Operand<'a> {
    Col(Arc<Column>),
    Lit(&'a Value),
}

/// A typed numeric view of an [`Operand`] for the arithmetic loops.
#[derive(Clone, Copy)]
enum Side<'a, T> {
    Col(&'a [T]),
    Lit(T),
}

impl<'a> Operand<'a> {
    fn eval(expr: &'a Expr, batch: &Batch, layout: &RowLayout) -> Result<Option<Operand<'a>>> {
        Ok(match expr {
            Expr::Lit(v) => Some(Operand::Lit(v)),
            e => try_eval_column(e, batch, layout)?.map(Operand::Col),
        })
    }

    fn validity(&self) -> Option<&Bitmap> {
        match self {
            Operand::Col(c) => c.validity.as_ref(),
            Operand::Lit(_) => None,
        }
    }

    /// The operand as integers, when it is an `Int64` column or literal.
    fn ints(&self) -> Option<Side<'_, i64>> {
        match self {
            Operand::Col(c) => match &c.data {
                ColumnData::Int64(v) => Some(Side::Col(v)),
                _ => None,
            },
            Operand::Lit(Value::Int(x)) => Some(Side::Lit(*x)),
            Operand::Lit(_) => None,
        }
    }

    /// The operand as doubles — the vectorized [`Value::as_double`]. A
    /// `Float64` column is borrowed; integers widen (a column into
    /// `widened`, which must outlive the view).
    fn floats<'s>(&'s self, widened: &'s mut Vec<f64>) -> Option<Side<'s, f64>> {
        match self {
            Operand::Col(c) => match &c.data {
                ColumnData::Float64(v) => Some(Side::Col(v)),
                ColumnData::Int64(v) => {
                    widened.extend(v.iter().map(|&x| x as f64));
                    Some(Side::Col(widened))
                }
                _ => None,
            },
            Operand::Lit(Value::Double(x)) => Some(Side::Lit(*x)),
            Operand::Lit(Value::Int(x)) => Some(Side::Lit(*x as f64)),
            Operand::Lit(_) => None,
        }
    }
}

/// `out[i] = apply(a[i], b[i])` over `n` rows, a literal side read as the
/// same scalar every row. A row is NULL when `valid` says an input slot
/// is, or when `apply` returns `None` (division by zero); the validity
/// bitmap is allocated at the first such row, so all-valid results carry
/// none. `valid` is `None` when neither input has a bitmap.
fn zip_arith<T: Copy + Default>(
    n: usize,
    a: Side<'_, T>,
    b: Side<'_, T>,
    valid: Option<&dyn Fn(usize) -> bool>,
    apply: impl Fn(T, T) -> Option<T>,
) -> (Vec<T>, Option<Bitmap>) {
    fn run<T: Copy + Default>(
        n: usize,
        a: impl Fn(usize) -> T,
        b: impl Fn(usize) -> T,
        valid: Option<&dyn Fn(usize) -> bool>,
        apply: impl Fn(T, T) -> Option<T>,
    ) -> (Vec<T>, Option<Bitmap>) {
        let mut nulls: Option<Bitmap> = None;
        let mut out = Vec::with_capacity(n);
        let mut or_null = |i: usize, cell: Option<T>| {
            cell.unwrap_or_else(|| {
                nulls
                    .get_or_insert_with(|| Bitmap::new(n, true))
                    .set(i, false);
                T::default()
            })
        };
        match valid {
            None => out.extend((0..n).map(|i| or_null(i, apply(a(i), b(i))))),
            Some(valid) => out
                .extend((0..n).map(|i| or_null(i, valid(i).then(|| apply(a(i), b(i))).flatten()))),
        }
        (out, nulls)
    }
    match (a, b) {
        (Side::Col(x), Side::Col(y)) => run(n, |i| x[i], |i| y[i], valid, apply),
        (Side::Col(x), Side::Lit(y)) => run(n, |i| x[i], |_| y, valid, apply),
        (Side::Lit(x), Side::Col(y)) => run(n, |_| x, |i| y[i], valid, apply),
        (Side::Lit(x), Side::Lit(y)) => run(n, |_| x, |_| y, valid, apply),
    }
}

/// Typed arithmetic over two operands of `n` rows; `None` when either is
/// non-numeric (row fallback required).
fn arith_operands(op: ArithOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Option<Column> {
    let (lv, rv) = (l.validity(), r.validity());
    let both_valid = |i: usize| lv.is_none_or(|bm| bm.get(i)) && rv.is_none_or(|bm| bm.get(i));
    let valid: Option<&dyn Fn(usize) -> bool> = if lv.is_some() || rv.is_some() {
        Some(&both_valid)
    } else {
        None
    };
    if let (Some(a), Some(b)) = (l.ints(), r.ints()) {
        let (data, validity) = match op {
            ArithOp::Add => zip_arith(n, a, b, valid, |x, y| Some(x.wrapping_add(y))),
            ArithOp::Sub => zip_arith(n, a, b, valid, |x, y| Some(x.wrapping_sub(y))),
            ArithOp::Mul => zip_arith(n, a, b, valid, |x, y| Some(x.wrapping_mul(y))),
            ArithOp::Div => zip_arith(n, a, b, valid, |x, y| (y != 0).then(|| x.wrapping_div(y))),
        };
        return Some(Column {
            data: ColumnData::Int64(data),
            validity,
        });
    }
    let (mut wl, mut wr) = (Vec::new(), Vec::new());
    let (a, b) = (l.floats(&mut wl)?, r.floats(&mut wr)?);
    let (data, validity) = match op {
        ArithOp::Add => zip_arith(n, a, b, valid, |x, y| Some(x + y)),
        ArithOp::Sub => zip_arith(n, a, b, valid, |x, y| Some(x - y)),
        ArithOp::Mul => zip_arith(n, a, b, valid, |x, y| Some(x * y)),
        ArithOp::Div => zip_arith(n, a, b, valid, |x, y| (y != 0.0).then(|| x / y)),
    };
    Some(Column {
        data: ColumnData::Float64(data),
        validity,
    })
}

/// Retains in `sel` the rows where `col[i] op lit` holds (false on NULL
/// either side). One type dispatch, then a tight per-type loop.
fn compare_col_lit(op: CompareOp, col: &Column, lit: &Value, sel: &mut Vec<u32>) {
    if lit.is_null() {
        sel.clear();
        return;
    }
    macro_rules! kernel {
        ($i:ident, $ord:expr) => {
            sel.retain(|&ix| {
                let $i = ix as usize;
                col.is_valid($i) && op.evaluate($ord)
            })
        };
    }
    match (&col.data, lit) {
        (ColumnData::Int64(vals), Value::Int(b)) => kernel!(i, vals[i].cmp(b)),
        (ColumnData::Int64(vals), Value::Double(b)) => {
            kernel!(i, cmp_int_double(vals[i], *b))
        }
        (ColumnData::Float64(vals), Value::Double(b)) => {
            kernel!(i, cmp_f64_nan_high(vals[i], *b))
        }
        (ColumnData::Float64(vals), Value::Int(b)) => {
            kernel!(i, cmp_int_double(*b, vals[i]).reverse())
        }
        (ColumnData::Utf8 { offsets, bytes }, Value::Str(s)) => {
            let needle = s.as_bytes();
            sel.retain(|&ix| {
                let i = ix as usize;
                col.is_valid(i)
                    && op.evaluate(bytes[offsets[i] as usize..offsets[i + 1] as usize].cmp(needle))
            });
        }
        (ColumnData::Date32(vals), Value::Date(b)) => kernel!(i, vals[i].cmp(b)),
        (ColumnData::Bool(vals), Value::Bool(b)) => kernel!(i, vals[i].cmp(b)),
        // Cross-type comparison (e.g. an Int64 column against a string
        // literal): rank by type tag exactly as `Value::total_cmp`.
        _ => {
            sel.retain(|&ix| {
                let i = ix as usize;
                col.is_valid(i) && op.evaluate(col.value(i).total_cmp(lit))
            });
        }
    }
}

/// Retains in `sel` the rows where `l[i] op r[i]` holds (false when
/// either side is NULL).
fn compare_col_col(op: CompareOp, l: &Column, r: &Column, sel: &mut Vec<u32>) {
    let ord_fn: Option<Box<dyn Fn(usize) -> Ordering>> = match (&l.data, &r.data) {
        (ColumnData::Int64(a), ColumnData::Int64(b)) => Some(Box::new(move |i| a[i].cmp(&b[i]))),
        (ColumnData::Float64(a), ColumnData::Float64(b)) => {
            Some(Box::new(move |i| cmp_f64_nan_high(a[i], b[i])))
        }
        (ColumnData::Int64(a), ColumnData::Float64(b)) => {
            Some(Box::new(move |i| cmp_int_double(a[i], b[i])))
        }
        (ColumnData::Float64(a), ColumnData::Int64(b)) => {
            Some(Box::new(move |i| cmp_int_double(b[i], a[i]).reverse()))
        }
        (
            ColumnData::Utf8 { offsets, bytes },
            ColumnData::Utf8 {
                offsets: ro,
                bytes: rb,
            },
        ) => Some(Box::new(move |i| {
            bytes[offsets[i] as usize..offsets[i + 1] as usize]
                .cmp(&rb[ro[i] as usize..ro[i + 1] as usize])
        })),
        (ColumnData::Date32(a), ColumnData::Date32(b)) => Some(Box::new(move |i| a[i].cmp(&b[i]))),
        (ColumnData::Bool(a), ColumnData::Bool(b)) => Some(Box::new(move |i| a[i].cmp(&b[i]))),
        _ => None,
    };
    match ord_fn {
        Some(ord) => sel.retain(|&ix| {
            let i = ix as usize;
            l.is_valid(i) && r.is_valid(i) && op.evaluate(ord(i))
        }),
        // Cross-type columns: per-slot Value comparison, which carries
        // the exact total_cmp semantics (type-rank fallback).
        None => sel.retain(|&ix| {
            let i = ix as usize;
            l.is_valid(i) && r.is_valid(i) && op.evaluate(l.value(i).total_cmp(&r.value(i)))
        }),
    }
}

/// Evaluates each aggregate argument expression over the whole batch —
/// the vectorized front half of group-by accumulation, typed exactly
/// like [`project_batch`].
pub fn eval_agg_args(args: &[Expr], batch: &Batch, layout: &RowLayout) -> Result<Vec<Arc<Column>>> {
    Ok(project_batch(args, batch, layout)?.columns().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_common::DataType::{Bool, Date, Double, Int, Str};
    use fto_common::{ColId, Row};

    fn c(i: u32) -> ColId {
        ColId(i)
    }

    fn rows(vals: Vec<Vec<Value>>) -> Vec<Row> {
        vals.into_iter().map(|r| r.into_boxed_slice()).collect()
    }

    fn sel_for(b: &Batch) -> Vec<u32> {
        (0..b.len() as u32).collect()
    }

    /// Runs the vectorized filter and the row evaluator and asserts they
    /// select the same rows.
    fn assert_matches_rows(pred: &Predicate, batch: &Batch, layout: &RowLayout) {
        let mut sel = sel_for(batch);
        filter_selection(pred, batch, layout, &mut sel).unwrap();
        let expect: Vec<u32> = (0..batch.len())
            .filter(|&i| pred.eval(&batch.row(i), layout).unwrap())
            .map(|i| i as u32)
            .collect();
        assert_eq!(sel, expect, "{pred}");
    }

    #[test]
    fn typed_compare_kernels_match_row_eval() {
        let rs = rows(vec![
            vec![
                Value::Int(3),
                Value::Double(1.5),
                Value::str("b"),
                Value::Date(10),
                Value::Bool(true),
            ],
            vec![
                Value::Null,
                Value::Double(f64::NAN),
                Value::Null,
                Value::Date(-4),
                Value::Bool(false),
            ],
            vec![
                Value::Int(-7),
                Value::Double(-0.0),
                Value::str("a\0x"),
                Value::Null,
                Value::Null,
            ],
        ]);
        let batch = Batch::from_typed_rows(&[Int, Double, Str, Date, Bool], &rs).unwrap();
        let layout = RowLayout::new((0..5).map(c).collect::<Vec<_>>());
        let lits = [
            Value::Int(0),
            Value::Double(0.0),
            Value::str("a\0x"),
            Value::Date(-4),
            Value::Bool(true),
            Value::Null,
            Value::Double(f64::NAN),
        ];
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            for col in 0..5u32 {
                for lit in &lits {
                    let p = Predicate::new(op, Expr::col(c(col)), Expr::Lit(lit.clone()));
                    assert_matches_rows(&p, &batch, &layout);
                    // Literal on the left.
                    let p = Predicate::new(op, Expr::Lit(lit.clone()), Expr::col(c(col)));
                    assert_matches_rows(&p, &batch, &layout);
                }
                for col2 in 0..5u32 {
                    let p = Predicate::new(op, Expr::col(c(col)), Expr::col(c(col2)));
                    assert_matches_rows(&p, &batch, &layout);
                }
            }
        }
        for col in 0..5u32 {
            assert_matches_rows(&Predicate::is_null(Expr::col(c(col))), &batch, &layout);
            assert_matches_rows(&Predicate::is_not_null(Expr::col(c(col))), &batch, &layout);
        }
    }

    #[test]
    fn arith_filter_matches_row_eval() {
        let rs = rows(vec![
            vec![Value::Int(4), Value::Int(0)],
            vec![Value::Int(-3), Value::Int(2)],
            vec![Value::Null, Value::Int(5)],
            vec![Value::Int(i64::MAX), Value::Int(1)],
        ]);
        let batch = Batch::from_typed_rows(&[Int, Int], &rs).unwrap();
        let layout = RowLayout::new(vec![c(0), c(1)]);
        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div] {
            let e = Expr::arith(op, Expr::col(c(0)), Expr::col(c(1)));
            let p = Predicate::new(CompareOp::Gt, e, Expr::int(0));
            assert_matches_rows(&p, &batch, &layout);
        }
    }

    #[test]
    fn project_matches_row_eval() {
        let rs = rows(vec![
            vec![Value::Int(4), Value::Double(0.5), Value::str("s")],
            vec![Value::Null, Value::Double(2.0), Value::str("t")],
            vec![Value::Int(10), Value::Null, Value::Null],
        ]);
        let batch = Batch::from_typed_rows(&[Int, Double, Str], &rs).unwrap();
        let layout = RowLayout::new(vec![c(0), c(1), c(2)]);
        let exprs = vec![
            Expr::col(c(2)),
            Expr::arith(ArithOp::Mul, Expr::col(c(0)), Expr::col(c(1))),
            Expr::arith(ArithOp::Div, Expr::col(c(0)), Expr::int(0)),
            Expr::int(7),
        ];
        let out = project_batch(&exprs, &batch, &layout).unwrap();
        for (i, row) in batch.to_rows().iter().enumerate() {
            for (j, e) in exprs.iter().enumerate() {
                let expect = e.eval(row, &layout).unwrap();
                let got = out.column(j).value(i);
                match (&got, &expect) {
                    (Value::Double(p), Value::Double(q)) => {
                        assert_eq!(p.to_bits(), q.to_bits())
                    }
                    _ => assert_eq!(got, expect),
                }
            }
        }
        // Bare column projection is an Arc clone, not a copy.
        assert!(Arc::ptr_eq(out.column(0), batch.column(2)));
    }

    #[test]
    fn literal_operands_stay_scalars_in_operand_order() {
        // `lit ∘ col` must not be computed as `col ∘ lit`: Sub and Div do
        // not commute. Every shape against the row evaluator, doubles by
        // bit pattern.
        let rs = rows(vec![
            vec![Value::Int(4), Value::Double(0.5), Value::Int(3)],
            vec![Value::Null, Value::Double(-0.0), Value::Int(-8)],
            vec![Value::Int(0), Value::Null, Value::Int(i64::MIN)],
            vec![Value::Int(i64::MAX), Value::Double(f64::NAN), Value::Int(1)],
        ]);
        let batch = Batch::from_typed_rows(&[Int, Double, Int], &rs).unwrap();
        let layout = RowLayout::new(vec![c(0), c(1), c(2)]);
        let lits = [
            Value::Int(7),
            Value::Int(0),
            Value::Int(-1),
            Value::Double(2.5),
            Value::Double(0.0),
        ];
        let mut exprs = Vec::new();
        for op in [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div] {
            for lit in &lits {
                for col in 0..3u32 {
                    exprs.push(Expr::arith(op, Expr::Lit(lit.clone()), Expr::col(c(col))));
                    exprs.push(Expr::arith(op, Expr::col(c(col)), Expr::Lit(lit.clone())));
                }
                exprs.push(Expr::arith(op, Expr::Lit(lit.clone()), Expr::int(2)));
            }
            // Nested: TPC-D's `price * (1 - discount)` shape.
            exprs.push(Expr::arith(
                ArithOp::Mul,
                Expr::col(c(1)),
                Expr::arith(op, Expr::int(1), Expr::col(c(1))),
            ));
        }
        let out = project_batch(&exprs, &batch, &layout).unwrap();
        for (i, row) in batch.to_rows().iter().enumerate() {
            for (j, e) in exprs.iter().enumerate() {
                let expect = e.eval(row, &layout).unwrap();
                let got = out.column(j).value(i);
                match (&got, &expect) {
                    (Value::Double(p), Value::Double(q)) => {
                        assert_eq!(p.to_bits(), q.to_bits(), "{e} row {i}")
                    }
                    _ => assert_eq!(got, expect, "{e} row {i}"),
                }
            }
        }
        // No input bitmap and no division: no validity is allocated.
        let col2_minus = Expr::arith(ArithOp::Sub, Expr::int(1), Expr::col(c(2)));
        let col = try_eval_column(&col2_minus, &batch, &layout)
            .unwrap()
            .unwrap();
        assert!(col.validity.is_none());
        // A NULL literal has no type, so neither it nor arithmetic over it
        // has a column form — and a projection of one is refused.
        let null_plus = Expr::arith(ArithOp::Add, Expr::Lit(Value::Null), Expr::col(c(2)));
        for untyped in [Expr::Lit(Value::Null), null_plus] {
            assert!(try_eval_column(&untyped, &batch, &layout)
                .unwrap()
                .is_none());
            let refused = project_batch(&[untyped], &batch, &layout);
            assert!(matches!(refused, Err(FtoError::Internal(_))), "{refused:?}");
        }
    }

    #[test]
    fn row_fallback_only_touches_selected_rows() {
        // String arithmetic errors row-at-a-time — except over a NULL,
        // which yields NULL before the operands are looked at. A prior
        // predicate has already deselected the poisoned row, so the
        // fallback must not evaluate it.
        let rs = rows(vec![
            vec![Value::str("x"), Value::Int(1)],
            vec![Value::Null, Value::Int(2)],
        ]);
        let batch = Batch::from_typed_rows(&[Str, Int], &rs).unwrap();
        let layout = RowLayout::new(vec![c(0), c(1)]);
        let p = Predicate::new(
            CompareOp::IsNull,
            Expr::arith(ArithOp::Add, Expr::col(c(0)), Expr::col(c(1))),
            Expr::Lit(Value::Null),
        );
        let mut sel = vec![1u32];
        filter_selection(&p, &batch, &layout, &mut sel).unwrap();
        assert_eq!(sel, vec![1]);
        assert!(filter_selection(&p, &batch, &layout, &mut vec![0, 1]).is_err());
    }
}
