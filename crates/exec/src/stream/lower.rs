//! Lowering: a plan becomes a tree of operators, wrapped when
//! instrumenting, with a gather where a breaker drains a partitionable
//! input at parallel degree > 1.
//!
//! Lowering also decides which columns every operator carries. It walks
//! the plan top down with the set of columns the consumer reads — the
//! root's whole layout — and each node asks its children for that set
//! plus the columns it reads itself. An operator emits `plan.layout ∩
//! needed`, in `plan.layout` order, and hands that layout back: its parent
//! resolves positions against the returned layout, never against a plan's.

use super::enforce::EnforceOp;
use super::group::GroupByOp;
use super::instrument::InstrumentedOp;
use super::join::{IndexNestedLoopJoinOp, JoinOp};
use super::pipeline::{FilterOp, IndexScanOp, LimitOp, ProjectOp, ScanOp, UnionAllOp};
use super::{positions, BatchQueue, ExecContext, Operator, Trim};
use crate::aggkernel::AggSpec;
use crate::parallel::{GatherOp, PartitionSpec};
use crate::sortkernel::resolve_keys;
use fto_common::{ColId, ColSet, DataType, Direction, FtoError, QuantifierId, Result};
use fto_expr::{PredId, RowLayout};
use fto_planner::{JoinKind, Plan, PlanNode};
use fto_qgm::graph::ColumnOrigin;
use fto_qgm::QueryGraph;
use fto_storage::{HeapScanState, PageCursor};
use std::sync::Arc;

/// Lowering context: whether to instrument, pre-order id assignment, and
/// the parallelism state.
///
/// Every plan node gets its pre-order id as lowering reaches it. When
/// lowering inserts an exchange, the coordinator builds no operators for
/// the exchanged subtree — it only advances `next_id` past it, so sibling
/// nodes keep their ids — and each worker re-lowers that subtree via
/// [`lower_worker`] with `next_id` starting at the subtree root's id, so
/// a worker's wrappers fill the same slots of its private record that the
/// coordinator's record has for those nodes. Workers always lower with
/// `threads = 1`, so exchanges never nest.
pub(crate) struct LowerCx<'a> {
    /// The query graph: its registry declares every column's type, which
    /// the operators that *build* columns (aggregate results, a left-outer
    /// join's NULL padding, an empty build side) read here, once. Its
    /// predicates name the columns a filter or a join reads.
    graph: &'a QueryGraph,
    /// Wrap every operator in an [`InstrumentedOp`].
    instrument: bool,
    next_id: usize,
    threads: usize,
    /// `Some((part, parts))` while lowering one worker's partition of an
    /// exchanged subtree: scans restrict themselves to that partition.
    partition: Option<(usize, usize)>,
}

impl<'a> LowerCx<'a> {
    pub(crate) fn new(cx: &ExecContext<'a>, instrument: bool) -> LowerCx<'a> {
        LowerCx {
            graph: cx.graph,
            instrument,
            next_id: 0,
            threads: cx.threads,
            partition: None,
        }
    }

    /// The columns `predicates` read.
    fn predicate_cols(&self, predicates: &[PredId]) -> ColSet {
        let mut cols = ColSet::new();
        for &pid in predicates {
            cols.union_with(&self.graph.predicate(pid).cols());
        }
        cols
    }

    /// The table ordinal of `col` when it is a column of the table
    /// `quantifier` ranges over.
    fn ordinal_in(&self, quantifier: QuantifierId, col: ColId) -> Option<usize> {
        let registry = &self.graph.registry;
        if col.index() >= registry.len() {
            return None;
        }
        match registry.info(col).origin {
            ColumnOrigin::Base(q, _, ordinal) if q == quantifier => Some(ordinal),
            _ => None,
        }
    }
}

/// An operator and the layout of the batches it emits.
pub(super) type Lowered = (Box<dyn Operator>, RowLayout);

/// The declared types of a layout's columns, from the query's registry —
/// which is what every batch of a stream with that layout holds.
pub(crate) fn layout_types(graph: &QueryGraph, layout: &RowLayout) -> Result<Vec<DataType>> {
    let registry = &graph.registry;
    let declared = |&c: &ColId| match c.index() < registry.len() {
        true => Ok(registry.info(c).data_type),
        false => Err(FtoError::internal(format!(
            "column {c} of a plan layout is not in the query's registry"
        ))),
    };
    layout.cols().iter().map(declared).collect()
}

/// The columns of `layout` that `cols` holds, in `layout` order. What an
/// operator lowered from `plan` emits for a consumer reading `needed` is
/// `restrict(&plan.layout, needed)`.
fn restrict(layout: &RowLayout, cols: &ColSet) -> RowLayout {
    let kept: Vec<ColId> = layout
        .cols()
        .iter()
        .copied()
        .filter(|&c| cols.contains(c))
        .collect();
    RowLayout::new(kept)
}

/// The columns a union input holds at the union's `kept` positions. A
/// union matches its inputs by position, so this is the one place lowering
/// reads a child plan's layout — for column ids, not positions: the input
/// is then checked against the layout its own lowering returns.
fn branch_cols(branch: &Plan, kept: &[usize]) -> Result<RowLayout> {
    let cols = branch.layout.cols();
    let at = |&k: &usize| {
        let missing = || FtoError::internal("a union input is narrower than the union");
        cols.get(k).copied().ok_or_else(missing)
    };
    kept.iter()
        .map(at)
        .collect::<Result<Vec<_>>>()
        .map(RowLayout::new)
}

/// `needed` and `more`.
fn with(needed: &ColSet, more: impl IntoIterator<Item = ColId>) -> ColSet {
    let mut cols = needed.clone();
    cols.extend(more);
    cols
}

/// Lowers one worker's copy of an exchanged subtree for a consumer reading
/// `needed`: scans restricted to partition `part` of `parts`, wrappers
/// (when instrumenting) numbered from the subtree root's pre-order id
/// `base_id`. Called from inside the worker thread, so the built operators
/// never cross threads.
pub(crate) fn lower_worker(
    cx: &ExecContext<'_>,
    plan: &Plan,
    needed: &ColSet,
    (part, parts): (usize, usize),
    instrument: bool,
    base_id: usize,
) -> Result<Box<dyn Operator>> {
    let mut lw = LowerCx {
        next_id: base_id,
        threads: 1,
        partition: Some((part, parts)),
        ..LowerCx::new(cx, instrument)
    };
    lower_impl(plan, needed, &mut lw).map(|(op, _)| op)
}

/// True when a subtree can run partitioned: a chain of filters and
/// projections over one table or index scan. Such a pipeline has no
/// cross-row state, so P workers each running it over a scan partition
/// together produce exactly the serial row stream, segment by segment.
fn partitionable(plan: &Plan) -> bool {
    match &plan.node {
        PlanNode::TableScan { .. } | PlanNode::IndexScan { .. } => true,
        PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => partitionable(input),
        _ => false,
    }
}

/// Lowers the input of an order-consuming operator, which its parent
/// streams over a satisfied prefix or, without one, fully `drained` at
/// `open` (an enforcer's or a grouping's input, a join build side). At
/// parallel degree > 1 a drained partitionable subtree becomes a
/// [`GatherOp`] that drains the P partition pipelines on worker threads
/// and concatenates their outputs in partition order — which *is* the
/// serial order, so parents observe the exact serial row stream. The
/// coordinator lowers nothing below a gather; it only steps `next_id`
/// past the subtree (see [`LowerCx`]). The workers lower for the same
/// `needed`, so the gather emits the layout a serial lowering would.
pub(super) fn lower_input(
    plan: &Arc<Plan>,
    needed: &ColSet,
    drained: bool,
    lw: &mut LowerCx<'_>,
) -> Result<Lowered> {
    if !drained || lw.partition.is_some() || lw.threads == 1 || !partitionable(plan) {
        return lower_impl(plan, needed, lw);
    }
    let base_id = lw.next_id;
    lw.next_id += plan.count_ops(&|_| true);
    let gather = GatherOp::new(PartitionSpec {
        plan: Arc::clone(plan),
        needed: needed.clone(),
        parts: lw.threads,
        base_id,
    });
    Ok((Box::new(gather), restrict(&plan.layout, needed)))
}

/// Lowers a [`PlanNode::Sort`], whose input satisfies the first
/// `prefix_len` keys of `spec`, emitting `out`. Without a satisfied prefix
/// the enforcer drains its input at `open`; with one it streams batch by
/// batch (closed groups leave together), so a `LIMIT` above it keeps its
/// early exit at every degree. A limit fuses into the full sort alone
/// (top-n): the planner puts a `Limit` above a segmented sort, and no
/// other shape is lowered. Its input carries the sort keys too; a key
/// `out` lacks leaves the rows once encoded.
fn lower_enforcer(
    (input, spec): (&Arc<Plan>, &fto_order::OrderSpec),
    prefix_len: usize,
    limit: Option<u64>,
    (out, needed): (&RowLayout, &ColSet),
    lw: &mut LowerCx<'_>,
) -> Result<Box<dyn Operator>> {
    if prefix_len > 0 && limit.is_some() {
        return Err(FtoError::internal("a segmented sort takes no fused limit"));
    }
    let (child, have) = lower_input(input, &with(needed, spec.cols()), prefix_len == 0, lw)?;
    let keys = resolve_keys(spec, &have)?;
    let limit = limit.map(|n| n as usize);
    let keep = Trim::new(&have, out)?;
    Ok(Box::new(EnforceOp::new(
        child, keys, prefix_len, limit, keep,
    )))
}

/// Lowers a [`PlanNode::Join`] over its `(child, equi-key columns)` sides,
/// both ordered on the first `prefix_len` pairs, emitting `out`. Without a
/// prefix the inner side is drained at `open`, so it may become a gather;
/// with one, the two sides' prefixes cut runs and the rest keys each run's
/// build. Both sides carry their keys, which leave each row once encoded:
/// candidates pair only the columns `out` or a residual predicate reads.
fn lower_join(
    kind: JoinKind,
    (outer, outer_keys): (&Arc<Plan>, &[ColId]),
    (inner, inner_keys): (&Arc<Plan>, &[ColId]),
    (predicates, prefix_len): (&[PredId], usize),
    (out, needed): (&RowLayout, &ColSet),
    lw: &mut LowerCx<'_>,
) -> Result<Box<dyn Operator>> {
    if kind == JoinKind::LeftOuter && prefix_len > 0 {
        return Err(FtoError::internal(
            "a left-outer join takes no satisfied prefix",
        ));
    }
    let payload = with(needed, lw.predicate_cols(predicates).iter());
    let keyed = with(&payload, outer_keys.iter().chain(inner_keys).copied());
    let (outer_op, have_o) = lower_impl(outer, &keyed, lw)?;
    let (inner_op, have_i) = lower_input(inner, &keyed, prefix_len == 0, lw)?;
    let asc = |pos: Vec<usize>| pos.into_iter().map(|p| (p, Direction::Asc)).collect();
    let okeys = asc(positions(&have_o, outer_keys)?);
    let ikeys = asc(positions(&have_i, inner_keys)?);
    let (pay_o, pay_i) = (restrict(&have_o, &payload), restrict(&have_i, &payload));
    let types = layout_types(lw.graph, &pay_i)?;
    let pairs = pay_o.concat(&pay_i);
    Ok(Box::new(JoinOp::new(
        kind,
        (outer_op, okeys, Trim::new(&have_o, &pay_o)?),
        (inner_op, ikeys, Trim::new(&have_i, &pay_i)?),
        prefix_len,
        predicates.to_vec(),
        (Trim::new(&pairs, out)?, pairs),
        types,
    )))
}

/// Lowers `plan` for a consumer that reads the columns `needed`, wrapping
/// every operator in an [`InstrumentedOp`] when instrumenting, and returns
/// it with the layout it emits: `plan.layout ∩ needed`, in `plan.layout`
/// order. Ids go parent-before-children and children in
/// [`Plan::children`] order, which is exactly pre-order — the numbering
/// [`PlanMetrics`] documents. At parallel degree > 1 the coordinator
/// lowers the partitionable inputs its breakers drain at `open` to a
/// gather ([`lower_input`]); worker threads then re-lower the gathered
/// subtrees via [`lower_worker`].
///
/// [`PlanMetrics`]: crate::metrics::PlanMetrics
pub(super) fn lower_impl(plan: &Plan, needed: &ColSet, lw: &mut LowerCx<'_>) -> Result<Lowered> {
    let id = lw.next_id;
    lw.next_id += 1;
    let out = restrict(&plan.layout, needed);
    let op: Box<dyn Operator> = match &plan.node {
        PlanNode::TableScan { table, .. } => {
            let (part, parts) = lw.partition.unwrap_or((0, 1));
            Box::new(ScanOp {
                table: *table,
                ordinals: positions(&plan.layout, out.cols())?,
                part,
                parts,
                state: HeapScanState::new(),
            })
        }
        PlanNode::IndexScan {
            index,
            table,
            range,
            reverse,
            ..
        } => {
            let (part, parts) = lw.partition.unwrap_or((0, 1));
            Box::new(IndexScanOp {
                index: *index,
                table: *table,
                ordinals: positions(&plan.layout, out.cols())?,
                range: range.clone(),
                reverse: *reverse,
                part,
                parts,
                state: None,
            })
        }
        PlanNode::Filter { input, predicates } => {
            let read = lw.predicate_cols(predicates);
            let (child, have) = lower_impl(input, &with(needed, read.iter()), lw)?;
            Box::new(FilterOp {
                child,
                predicates: predicates.clone(),
                keep: Trim::new(&have, &out)?,
                layout: have,
            })
        }
        PlanNode::Project { input, exprs } => {
            let expr = |&c: &ColId| {
                let found = exprs.iter().find(|(col, _)| *col == c);
                found
                    .map(|(_, e)| e.clone())
                    .ok_or_else(|| FtoError::internal(format!("no expression projects {c}")))
            };
            let exprs = out.cols().iter().map(expr).collect::<Result<Vec<_>>>()?;
            let mut read = ColSet::new();
            for e in &exprs {
                read.union_with(&e.cols());
            }
            let (child, layout) = lower_impl(input, &read, lw)?;
            Box::new(ProjectOp {
                child,
                exprs,
                layout,
            })
        }
        PlanNode::Sort {
            input,
            spec,
            prefix_len,
            limit,
            ..
        } => lower_enforcer((input, spec), *prefix_len, *limit, (&out, needed), lw)?,
        PlanNode::IndexNestedLoopJoin {
            outer,
            table,
            quantifier,
            index,
            probe_cols,
            predicates,
        } => {
            let payload = with(needed, lw.predicate_cols(predicates).iter());
            let probed = with(&payload, probe_cols.iter().copied());
            let (outer_op, have) = lower_impl(outer, &probed, lw)?;
            // The probed table's columns a candidate carries, in the
            // join's layout order, and their ordinals in the table.
            let mut inner = Vec::new();
            let mut ordinals = Vec::new();
            for &c in plan.layout.cols().iter().filter(|&&c| payload.contains(c)) {
                if let Some(ordinal) = lw.ordinal_in(*quantifier, c) {
                    inner.push(c);
                    ordinals.push(ordinal);
                }
            }
            let pay_o = restrict(&have, &payload);
            let pairs = pay_o.concat(&RowLayout::new(inner));
            Box::new(IndexNestedLoopJoinOp {
                outer: outer_op,
                table: *table,
                index: *index,
                probe_pos: positions(&have, probe_cols)?,
                otrim: Trim::new(&have, &pay_o)?,
                ordinals,
                predicates: predicates.clone(),
                keep: Trim::new(&pairs, &out)?,
                layout: pairs,
                cursor: PageCursor::new(),
                hint: 0,
                out: BatchQueue::default(),
            })
        }
        PlanNode::Join {
            kind,
            outer,
            inner,
            outer_keys,
            inner_keys,
            predicates,
            prefix_len,
        } => lower_join(
            *kind,
            (outer, outer_keys),
            (inner, inner_keys),
            (predicates, *prefix_len as usize),
            (&out, needed),
            lw,
        )?,
        PlanNode::GroupBy {
            input,
            grouping,
            aggs,
            prefix_len,
        } => {
            let mut read: ColSet = grouping.iter().copied().collect();
            for (_, call) in aggs {
                read.union_with(&call.cols());
            }
            // Without a satisfied prefix no group leaves before the input
            // ends — unless there is nothing to group on.
            let drained = *prefix_len == 0 && !grouping.is_empty();
            let (child, have) = lower_input(input, &read, drained, lw)?;
            let gpos = positions(&have, grouping)?;
            let types = layout_types(lw.graph, &plan.layout)?;
            let spec = Arc::new(AggSpec::new(&gpos, aggs, have, types));
            let keep = Trim::new(&plan.layout, &out)?;
            Box::new(GroupByOp::new(child, spec, *prefix_len as usize, keep))
        }
        PlanNode::UnionAll { inputs } => {
            // Inputs match the union by position: each lowers for its
            // columns at the kept positions, which it emits in that order
            // since a layout never repeats a column.
            let kept = positions(&plan.layout, out.cols())?;
            let mut children = Vec::with_capacity(inputs.len());
            for input in inputs {
                let want = branch_cols(input, &kept)?;
                let (child, have) = lower_impl(input, &want.cols().iter().copied().collect(), lw)?;
                if have != want {
                    return Err(FtoError::internal(
                        "a union input emits other columns than the union keeps",
                    ));
                }
                children.push(child);
            }
            Box::new(UnionAllOp {
                children,
                current: 0,
                opened: false,
            })
        }
        PlanNode::Limit { input, n } => Box::new(LimitOp {
            child: lower_impl(input, needed, lw)?.0,
            remaining: *n,
        }),
    };
    let op: Box<dyn Operator> = match lw.instrument {
        true => Box::new(InstrumentedOp {
            inner: op,
            id,
            label: format!("{}#{id}", plan.op_name()),
        }),
        false => op,
    };
    Ok((op, out))
}
