//! Vectorized predicate and expression evaluation over columnar batches.
//!
//! The executor's hot paths call these instead of the per-row
//! [`Predicate::eval`] / [`Expr::eval`]: predicates refine a selection
//! vector with one kernel per (column type, operator) — the type and the
//! operator are picked once per batch, and each row costs one store and
//! one add, never a branch on its outcome — and projections evaluate
//! whole columns: a bare column reference is an `Arc` clone, numeric
//! arithmetic runs one per-type loop over every slot.
//!
//! Every kernel decides exactly as the row evaluator does: comparisons go
//! through the same total order ([`cmp_f64_nan_high`], [`cmp_int_double`],
//! byte-wise string compare), NULL comparisons are false, and arithmetic
//! is only vectorized over numeric operands — where it cannot error. That
//! is every arithmetic the binder admits (it types each expression and
//! refuses the rest), so neither a projection nor a predicate has a row
//! path: an operand without a column form is an [`FtoError::Internal`].
//! The differential suites hold the two engines bit-identical.

use crate::expr::{ArithOp, Expr};
use crate::layout::RowLayout;
use crate::predicate::{CompareOp, Predicate};
use fto_common::column::{Batch, Bitmap, Column, ColumnData};
use fto_common::value::{cmp_f64_nan_high, cmp_int_double};
use fto_common::{FtoError, Result, Value};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Refines `sel` (candidate slots of `batch`, ascending) to the slots
/// satisfying `pred`, with SQL three-valued logic exactly as
/// [`Predicate::eval`]: comparisons involving NULL filter the row.
///
/// Every operand the binder types has a column form
/// ([`try_eval_column`]), and the one it leaves untyped — the NULL of
/// `IS [NOT] NULL` — is never evaluated, so each predicate SQL can reach
/// runs a columnar kernel; one that cannot is an [`FtoError::Internal`].
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
                match &col.validity {
                    Some(bm) => refine(sel, |i| bm.get(i) != want_null),
                    None if want_null => sel.clear(),
                    None => {}
                }
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
    Err(FtoError::internal(format!(
        "predicate {pred} is not well typed"
    )))
}

/// Evaluates each projection expression over the whole batch, returning
/// the projected batch — with the input's rows selected. Every
/// well-typed expression — column references, literals, numeric
/// arithmetic — evaluates as a column of its declared type; one that does
/// not (arithmetic over a non-numeric operand, an untyped NULL literal:
/// nothing the binder lets through) is an [`FtoError::Internal`].
pub fn project_batch(exprs: &[Expr], batch: &Batch, layout: &RowLayout) -> Result<Batch> {
    let cols = exprs
        .iter()
        .map(|e| {
            try_eval_column(e, batch, layout)?.ok_or_else(|| {
                FtoError::internal(format!("projected expression {e} is not well typed"))
            })
        })
        .collect::<Result<Vec<_>>>()?;
    batch.with_columns(cols)
}

/// Evaluates `expr` as a whole column — one value per slot of `batch` —
/// when it is vectorizable:
///
/// * a column reference — `Arc` clone of the batch column (errors like
///   the row path when the column is missing from the layout);
/// * a non-NULL literal — materialized constant column of the literal's
///   type (only when the literal *is* the expression; as an arithmetic
///   operand it stays a scalar);
/// * arithmetic whose operands are numeric (`Int64`/`Float64`) columns or
///   numeric literals — typed loops reproducing [`Expr::eval`]'s semantics
///   (wrapping integer ops, division by zero → NULL, any float operand
///   widens, NULL propagates). Values are computed for every slot from
///   the batch's first row to its last — numeric arithmetic cannot error
///   — but on a selected batch only the selected slots decide NULLs and
///   whether the column carries a validity bitmap, so the column gathers
///   to exactly what computing over the gathered rows gives.
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
        Expr::Lit(v) => Ok(constant_column(v, batch.slots()).map(Arc::new)),
        Expr::Arith { op, left, right } => {
            let (Some(l), Some(r)) = (
                Operand::eval(left, batch, layout)?,
                Operand::eval(right, batch, layout)?,
            ) else {
                return Ok(None);
            };
            Ok(arith_operands(*op, &l, &r, batch).map(Arc::new))
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

/// `out[i] = value(a[i], b[i])` over the slots of `batch` from its first
/// row to its last — every slot of a dense batch, only the range of a
/// view (`Batch::slice`) of a longer one — a literal side read as the
/// same scalar every slot, in one pass without a branch (`value` is
/// total). Of the batch's rows, one is NULL — the default, unset in a
/// validity bitmap that is allocated at the first such slot, so all-valid
/// results carry none — when `valid` says an input slot is, or when
/// `defined` refuses its operands (division by zero); that second pass is
/// made only when `valid` (some input has a bitmap) or `defined` is
/// given. Slots a selection leaves out hold the default or whatever
/// `value` gave them: nothing reads them.
fn zip_arith<T: Copy + Default>(
    batch: &Batch,
    a: Side<'_, T>,
    b: Side<'_, T>,
    valid: Option<&dyn Fn(usize) -> bool>,
    value: impl Fn(T, T) -> T,
    defined: Option<fn(T, T) -> bool>,
) -> (Vec<T>, Option<Bitmap>) {
    let n = batch.slots();
    let Range { start: lo, end: hi } = batch.span();
    let mut out: Vec<T> = Vec::with_capacity(n);
    out.resize(lo, T::default());
    // Slice iterators, not indices: the loops vectorize.
    match (a, b) {
        (Side::Col(x), Side::Col(y)) => {
            out.extend((x[lo..hi].iter().zip(&y[lo..hi])).map(|(&p, &q)| value(p, q)))
        }
        (Side::Col(x), Side::Lit(q)) => out.extend(x[lo..hi].iter().map(|&p| value(p, q))),
        (Side::Lit(p), Side::Col(y)) => out.extend(y[lo..hi].iter().map(|&q| value(p, q))),
        (Side::Lit(p), Side::Lit(q)) => out.resize(hi, value(p, q)),
    }
    out.resize(n, T::default());
    if valid.is_none() && defined.is_none() {
        return (out, None);
    }
    let at = |side: Side<'_, T>, i: usize| match side {
        Side::Col(v) => v[i],
        Side::Lit(c) => c,
    };
    let mut nulls: Option<Bitmap> = None;
    let mut check = |i: usize| {
        let undefined = || defined.is_some_and(|d| !d(at(a, i), at(b, i)));
        if valid.is_some_and(|v| !v(i)) || undefined() {
            nulls
                .get_or_insert_with(|| Bitmap::new(n, true))
                .set(i, false);
            out[i] = T::default();
        }
    };
    match batch.selection() {
        None => (0..n).for_each(&mut check),
        Some(sel) => sel.iter().for_each(|&i| check(i as usize)),
    }
    (out, nulls)
}

/// Typed arithmetic over two operands of `batch`'s slots; `None` when
/// either is non-numeric (no column form).
fn arith_operands(op: ArithOp, l: &Operand<'_>, r: &Operand<'_>, batch: &Batch) -> Option<Column> {
    let (lv, rv) = (l.validity(), r.validity());
    let both_valid = |i: usize| lv.is_none_or(|bm| bm.get(i)) && rv.is_none_or(|bm| bm.get(i));
    let valid: Option<&dyn Fn(usize) -> bool> = if lv.is_some() || rv.is_some() {
        Some(&both_valid)
    } else {
        None
    };
    if let (Some(a), Some(b)) = (l.ints(), r.ints()) {
        let div = |x: i64, y: i64| if y == 0 { 0 } else { x.wrapping_div(y) };
        let (data, validity) = match op {
            ArithOp::Add => zip_arith(batch, a, b, valid, i64::wrapping_add, None),
            ArithOp::Sub => zip_arith(batch, a, b, valid, i64::wrapping_sub, None),
            ArithOp::Mul => zip_arith(batch, a, b, valid, i64::wrapping_mul, None),
            ArithOp::Div => zip_arith(batch, a, b, valid, div, Some(|_, y| y != 0)),
        };
        return Some(Column {
            data: ColumnData::Int64(data),
            validity,
        });
    }
    let (mut wl, mut wr) = (Vec::new(), Vec::new());
    let (a, b) = (l.floats(&mut wl)?, r.floats(&mut wr)?);
    let (data, validity) = match op {
        ArithOp::Add => zip_arith(batch, a, b, valid, |x, y| x + y, None),
        ArithOp::Sub => zip_arith(batch, a, b, valid, |x, y| x - y, None),
        ArithOp::Mul => zip_arith(batch, a, b, valid, |x, y| x * y, None),
        ArithOp::Div => zip_arith(batch, a, b, valid, |x, y| x / y, Some(|_, y| y != 0.0)),
    };
    Some(Column {
        data: ColumnData::Float64(data),
        validity,
    })
}

/// Keeps the candidates in `sel` that `pass`: each candidate is written
/// at the cursor, which then advances by the predicate's result — one
/// store and one add per candidate, and no branch on whether it passed.
#[inline(always)]
fn refine(sel: &mut Vec<u32>, pass: impl Fn(usize) -> bool) {
    let mut n = 0;
    for k in 0..sel.len() {
        let i = sel[k];
        sel[n] = i;
        n += usize::from(pass(i as usize));
    }
    sel.truncate(n);
}

/// [`refine`] by `pass` on the slots both validity bitmaps (`None`: all
/// valid) mark valid, ANDed without a branch.
#[inline(always)]
fn refine_valid(sel: &mut Vec<u32>, validity: [Option<&Bitmap>; 2], pass: impl Fn(usize) -> bool) {
    match validity {
        [None, None] => refine(sel, pass),
        [Some(v), None] | [None, Some(v)] => refine(sel, |i| v.get(i) & pass(i)),
        [Some(v), Some(w)] => refine(sel, |i| v.get(i) & w.get(i) & pass(i)),
    }
}

/// Refines `$sel` to the valid slots whose ordering `$ord` (an expression
/// of slot `$i`) satisfies `$op`: the operator is matched once, and each
/// arm is its own monomorphic kernel.
macro_rules! by_op {
    ($op:expr, $sel:expr, $valid:expr, |$i:ident| $ord:expr) => {{
        use Ordering::{Equal, Greater, Less};
        match $op {
            CompareOp::Eq => refine_valid($sel, $valid, |$i| $ord == Equal),
            CompareOp::Ne => refine_valid($sel, $valid, |$i| $ord != Equal),
            CompareOp::Lt => refine_valid($sel, $valid, |$i| $ord == Less),
            CompareOp::Le => refine_valid($sel, $valid, |$i| $ord != Greater),
            CompareOp::Gt => refine_valid($sel, $valid, |$i| $ord == Greater),
            CompareOp::Ge => refine_valid($sel, $valid, |$i| $ord != Less),
            // The null tests take no ordering: `filter_selection` answers
            // them before any kernel is picked.
            CompareOp::IsNull | CompareOp::IsNotNull => $sel.clear(),
        }
    }};
}

/// Refines `sel` to the slots where `col[i] op lit` holds (false on NULL
/// either side): one kernel per (column type, operator).
fn compare_col_lit(op: CompareOp, col: &Column, lit: &Value, sel: &mut Vec<u32>) {
    if lit.is_null() {
        sel.clear();
        return;
    }
    let valid = [col.validity.as_ref(), None];
    match (&col.data, lit) {
        (ColumnData::Int64(vals), Value::Int(b)) => by_op!(op, sel, valid, |i| vals[i].cmp(b)),
        (ColumnData::Int64(vals), Value::Double(b)) => {
            by_op!(op, sel, valid, |i| cmp_int_double(vals[i], *b))
        }
        (ColumnData::Float64(vals), Value::Double(b)) => {
            by_op!(op, sel, valid, |i| cmp_f64_nan_high(vals[i], *b))
        }
        // An integer below 2^53 in magnitude is a double: against a
        // double it ranks as that double does, NaN high.
        (ColumnData::Float64(vals), Value::Int(b)) if b.unsigned_abs() < 1 << 53 => {
            let b = *b as f64;
            by_op!(op, sel, valid, |i| cmp_f64_nan_high(vals[i], b))
        }
        (ColumnData::Float64(vals), Value::Int(b)) => {
            by_op!(op, sel, valid, |i| cmp_int_double(*b, vals[i]).reverse())
        }
        (ColumnData::Utf8 { offsets, bytes }, Value::Str(s)) => {
            let needle = s.as_bytes();
            let slot = |i: usize| &bytes[offsets[i] as usize..offsets[i + 1] as usize];
            by_op!(op, sel, valid, |i| slot(i).cmp(needle))
        }
        (ColumnData::Date32(vals), Value::Date(b)) => by_op!(op, sel, valid, |i| vals[i].cmp(b)),
        (ColumnData::Bool(vals), Value::Bool(b)) => by_op!(op, sel, valid, |i| vals[i].cmp(b)),
        // Cross-type comparison (e.g. an Int64 column against a string
        // literal): rank by type tag exactly as `Value::total_cmp`.
        _ => by_op!(op, sel, valid, |i| col.value(i).total_cmp(lit)),
    }
}

/// Refines `sel` to the slots where `l[i] op r[i]` holds (false when
/// either side is NULL): one kernel per (column types, operator).
fn compare_col_col(op: CompareOp, l: &Column, r: &Column, sel: &mut Vec<u32>) {
    use ColumnData::{Bool, Date32, Float64, Int64, Utf8};
    let valid = [l.validity.as_ref(), r.validity.as_ref()];
    match (&l.data, &r.data) {
        (Int64(a), Int64(b)) => by_op!(op, sel, valid, |i| a[i].cmp(&b[i])),
        (Float64(a), Float64(b)) => by_op!(op, sel, valid, |i| cmp_f64_nan_high(a[i], b[i])),
        (Int64(a), Float64(b)) => by_op!(op, sel, valid, |i| cmp_int_double(a[i], b[i])),
        (Float64(a), Int64(b)) => {
            by_op!(op, sel, valid, |i| cmp_int_double(b[i], a[i]).reverse())
        }
        (
            Utf8 { offsets, bytes },
            Utf8 {
                offsets: ro,
                bytes: rb,
            },
        ) => by_op!(op, sel, valid, |i| bytes
            [offsets[i] as usize..offsets[i + 1] as usize]
            .cmp(&rb[ro[i] as usize..ro[i + 1] as usize])),
        (Date32(a), Date32(b)) => by_op!(op, sel, valid, |i| a[i].cmp(&b[i])),
        (Bool(a), Bool(b)) => by_op!(op, sel, valid, |i| a[i].cmp(&b[i])),
        // Cross-type columns: per-slot Value comparison, which carries
        // the exact total_cmp semantics (type-rank fallback).
        _ => by_op!(op, sel, valid, |i| l.value(i).total_cmp(&r.value(i))),
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
        let expect: Vec<u32> = (0u32..)
            .zip(batch.to_rows())
            .filter(|(_, row)| pred.eval(row, layout).unwrap())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(sel, expect, "{pred}");
    }

    #[test]
    fn typed_compare_kernels_match_row_eval() {
        // Each (column type, operator) kernel against `Predicate::eval`:
        // `Int`, `Double`, `Date`, `Str` and `Bool` columns (two of each,
        // NULLs among them) against literals of every type — an `Int`
        // column against `Double` literals, a `Double` column against
        // `Int` literals on both sides of 2^53 — and against every other
        // column, plus an arithmetic operand. Candidates are every slot,
        // every third, a sparse random tenth or none, refined on the
        // dense batch and, as a filter above a filter sees them, on the
        // batch carrying them as its selection.
        use fto_common::Rng;
        const BIG: i64 = 1 << 53;
        let types = [Int, Int, Double, Double, Date, Date, Str, Str, Bool, Bool];
        let layout = RowLayout::new((0..10).map(c).collect::<Vec<_>>());
        let lits = [
            Value::Int(0),
            Value::Int(2),
            Value::Int(-1),
            Value::Int(BIG - 1),
            Value::Int(BIG + 1),
            Value::Int(-BIG - 1),
            Value::Double(0.0),
            Value::Double(1.5),
            Value::Double(2.0),
            Value::Double(-0.0),
            Value::Double(f64::NAN),
            Value::Double(BIG as f64),
            Value::Date(3),
            Value::Date(-4),
            Value::str("b"),
            Value::str("a\0x"),
            Value::str(""),
            Value::Bool(true),
            Value::Null,
        ];
        let mut rng = Rng::new(0x5e1ec7);
        let value = |rng: &mut Rng, ty: fto_common::DataType| match (rng.chance(0.15), ty) {
            (true, _) => Value::Null,
            (_, Int) => Value::Int(*rng.pick(&[-1, 0, 2, 3, BIG - 1, BIG, BIG + 1, -BIG - 1])),
            (_, Double) => Value::Double(*rng.pick(&[
                -0.0,
                0.0,
                1.5,
                2.0,
                f64::NAN,
                BIG as f64,
                (BIG + 2) as f64,
                -(BIG as f64) - 2.0,
            ])),
            (_, Date) => Value::Date(rng.range_i32(-5, 6)),
            (_, Str) => Value::str(*rng.pick(&["", "a", "b", "a\0x", "ba"])),
            (_, _) => Value::Bool(rng.bool()),
        };
        let ops = [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ];
        for case in 0..6 {
            let n = [0, 1, 70][case % 3];
            let rs: Vec<Row> = (0..n)
                .map(|_| types.iter().map(|&ty| value(&mut rng, ty)).collect())
                .collect();
            let batch = Batch::from_typed_rows(&types, &rs).unwrap();
            let sels: Vec<Vec<u32>> = vec![
                (0..n as u32).collect(),
                (0..n as u32).step_by(3).collect(),
                (0..n as u32).filter(|_| rng.chance(0.1)).collect(),
                Vec::new(),
            ];
            let mut preds = Vec::new();
            for op in ops {
                for col in 0..10u32 {
                    for lit in &lits {
                        preds.push(Predicate::new(
                            op,
                            Expr::col(c(col)),
                            Expr::Lit(lit.clone()),
                        ));
                        preds.push(Predicate::new(
                            op,
                            Expr::Lit(lit.clone()),
                            Expr::col(c(col)),
                        ));
                    }
                    for col2 in 0..10u32 {
                        preds.push(Predicate::new(op, Expr::col(c(col)), Expr::col(c(col2))));
                    }
                }
                let sum = Expr::arith(ArithOp::Add, Expr::col(c(0)), Expr::col(c(2)));
                preds.push(Predicate::new(op, sum, Expr::int(3)));
            }
            for col in 0..10u32 {
                preds.push(Predicate::is_null(Expr::col(c(col))));
                preds.push(Predicate::is_not_null(Expr::col(c(col))));
            }
            for sel in &sels {
                let selected = batch.clone().with_selection(sel.clone());
                for p in &preds {
                    let want: Vec<u32> = (sel.iter().copied())
                        .filter(|&i| p.eval(&rs[i as usize], &layout).unwrap())
                        .collect();
                    for b in [&batch, &selected] {
                        let mut got = sel.clone();
                        filter_selection(p, b, &layout, &mut got).unwrap();
                        assert_eq!(got, want, "{p} over {sel:?}");
                    }
                }
            }
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
        // bit pattern, over a dense batch, views and a selection.
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
        // Over the batch, views of it (which compute only their range)
        // and a selection of it: the rows are the row evaluator's.
        let views = [
            batch.clone(),
            batch.slice(1, 2),
            batch.slice(3, 1),
            batch.slice(2, 0),
            batch.clone().with_selection(vec![0, 3]),
        ];
        for view in &views {
            let out = project_batch(&exprs, view, &layout).unwrap();
            for (i, row) in view.to_rows().iter().enumerate() {
                let at = view.selection();
                for (j, e) in exprs.iter().enumerate() {
                    let expect = e.eval(row, &layout).unwrap();
                    let got = out.column(j).value(out.slot(i));
                    match (&got, &expect) {
                        (Value::Double(p), Value::Double(q)) => {
                            assert_eq!(p.to_bits(), q.to_bits(), "{e} row {i} of {at:?}")
                        }
                        _ => assert_eq!(got, expect, "{e} row {i} of {at:?}"),
                    }
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
    fn predicate_without_a_column_form_is_an_internal_error() {
        // String arithmetic, which the binder refuses: no kernel and no
        // row path, whichever rows are still selected.
        let rs = rows(vec![
            vec![Value::str("x"), Value::Int(1)],
            vec![Value::Null, Value::Int(2)],
        ]);
        let batch = Batch::from_typed_rows(&[Str, Int], &rs).unwrap();
        let layout = RowLayout::new(vec![c(0), c(1)]);
        let sum = Expr::arith(ArithOp::Add, Expr::col(c(0)), Expr::col(c(1)));
        for p in [
            Predicate::is_null(sum.clone()),
            Predicate::new(CompareOp::Gt, sum.clone(), Expr::int(0)),
            Predicate::new(CompareOp::Eq, sum, Expr::col(c(1))),
        ] {
            for mut sel in [vec![0u32, 1], vec![1], vec![]] {
                let refused = filter_selection(&p, &batch, &layout, &mut sel);
                assert!(
                    matches!(refused, Err(FtoError::Internal(_))),
                    "{p}: {refused:?}"
                );
            }
        }
    }
}
