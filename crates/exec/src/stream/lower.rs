//! Lowering: a plan becomes a tree of operators, wrapped when
//! instrumenting, with a gather where a breaker drains a partitionable
//! input at parallel degree > 1.

use super::enforce::EnforceOp;
use super::group::GroupByOp;
use super::instrument::InstrumentedOp;
use super::join::{IndexNestedLoopJoinOp, JoinOp};
use super::pipeline::{FilterOp, IndexScanOp, LimitOp, ProjectOp, ScanOp, UnionAllOp};
use super::{BatchQueue, ExecContext, Operator};
use crate::aggkernel::AggSpec;
use crate::parallel::{GatherOp, PartitionSpec};
use crate::sortkernel::resolve_keys;
use fto_common::{ColId, DataType, Direction, FtoError, Result};
use fto_expr::{PredId, RowLayout};
use fto_planner::{JoinKind, Plan, PlanNode};
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
    /// join's NULL padding, an empty build side) read here, once.
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
}

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

/// The positions of `cols` in `layout`.
fn positions(layout: &RowLayout, cols: &[ColId]) -> Result<Vec<usize>> {
    cols.iter()
        .map(|&c| {
            layout
                .position(c)
                .ok_or_else(|| FtoError::internal(format!("column {c} missing from layout")))
        })
        .collect()
}

/// Lowers one worker's copy of an exchanged subtree: scans restricted to
/// partition `part` of `parts`, wrappers (when instrumenting) numbered
/// from the subtree root's pre-order id `base_id`. Called from inside the
/// worker thread, so the built operators never cross threads.
pub(crate) fn lower_worker(
    cx: &ExecContext<'_>,
    plan: &Plan,
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
    lower_impl(plan, &mut lw)
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
/// past the subtree (see [`LowerCx`]).
fn lower_input(plan: &Arc<Plan>, drained: bool, lw: &mut LowerCx<'_>) -> Result<Box<dyn Operator>> {
    if !drained || lw.partition.is_some() || lw.threads == 1 || !partitionable(plan) {
        return lower_impl(plan, lw);
    }
    let base_id = lw.next_id;
    lw.next_id += plan.count_ops(&|_| true);
    Ok(Box::new(GatherOp::new(PartitionSpec {
        plan: Arc::clone(plan),
        parts: lw.threads,
        base_id,
    })))
}

/// Lowers a [`PlanNode::Sort`], whose input satisfies the first
/// `prefix_len` keys of `spec`. Without a satisfied prefix the enforcer
/// drains its input at `open`; with one it streams batch by batch (closed
/// groups leave together), so a `LIMIT` above it keeps its early exit at
/// every degree. A limit fuses into the full sort alone (top-n): the
/// planner puts a `Limit` above a segmented sort, and no other shape is
/// lowered.
fn lower_enforcer(
    input: &Arc<Plan>,
    spec: &fto_order::OrderSpec,
    prefix_len: usize,
    limit: Option<u64>,
    lw: &mut LowerCx<'_>,
) -> Result<Box<dyn Operator>> {
    if prefix_len > 0 && limit.is_some() {
        return Err(FtoError::internal("a segmented sort takes no fused limit"));
    }
    let keys = resolve_keys(spec, &input.layout)?;
    let child = lower_input(input, prefix_len == 0, lw)?;
    let limit = limit.map(|n| n as usize);
    Ok(Box::new(EnforceOp::new(child, keys, prefix_len, limit)))
}

/// Lowers a [`PlanNode::Join`] over its `(child, equi-key columns)` sides,
/// both ordered on the first `prefix_len` pairs. Without a prefix the
/// inner side is drained at `open`, so it may become a gather; with one,
/// the two sides' prefixes cut runs and the rest keys each run's build.
fn lower_join(
    kind: JoinKind,
    plan: &Plan,
    (outer, outer_keys): (&Arc<Plan>, &[ColId]),
    (inner, inner_keys): (&Arc<Plan>, &[ColId]),
    predicates: &[PredId],
    prefix_len: usize,
    lw: &mut LowerCx<'_>,
) -> Result<Box<dyn Operator>> {
    if kind == JoinKind::LeftOuter && prefix_len > 0 {
        return Err(FtoError::internal(
            "a left-outer join takes no satisfied prefix",
        ));
    }
    let asc = |pos: Vec<usize>| pos.into_iter().map(|p| (p, Direction::Asc)).collect();
    let okeys = asc(positions(&outer.layout, outer_keys)?);
    let ikeys = asc(positions(&inner.layout, inner_keys)?);
    let types = layout_types(lw.graph, &inner.layout)?;
    let outer_op = lower_impl(outer, lw)?;
    let inner_op = lower_input(inner, prefix_len == 0, lw)?;
    Ok(Box::new(JoinOp::new(
        kind,
        (outer_op, okeys),
        (inner_op, ikeys),
        prefix_len,
        predicates.to_vec(),
        plan.layout.clone(),
        types,
    )))
}

/// Lowers `plan`, wrapping every operator in an [`InstrumentedOp`] when
/// instrumenting. Ids go parent-before-children and children in
/// [`Plan::children`] order, which is exactly pre-order — the numbering
/// [`PlanMetrics`] documents. At parallel degree > 1 the coordinator
/// lowers the partitionable inputs its breakers drain at `open` to a
/// gather ([`lower_input`]); worker threads then re-lower the gathered
/// subtrees via [`lower_worker`].
pub(super) fn lower_impl(plan: &Plan, lw: &mut LowerCx<'_>) -> Result<Box<dyn Operator>> {
    let id = lw.next_id;
    lw.next_id += 1;
    let op: Box<dyn Operator> = match &plan.node {
        PlanNode::TableScan { table, .. } => {
            let (part, parts) = lw.partition.unwrap_or((0, 1));
            Box::new(ScanOp {
                table: *table,
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
                range: range.clone(),
                reverse: *reverse,
                part,
                parts,
                state: None,
            })
        }
        PlanNode::Filter { input, predicates } => Box::new(FilterOp {
            child: lower_impl(input, lw)?,
            predicates: predicates.clone(),
            layout: input.layout.clone(),
        }),
        PlanNode::Project { input, exprs } => Box::new(ProjectOp {
            child: lower_impl(input, lw)?,
            exprs: exprs.iter().map(|(_, e)| e.clone()).collect(),
            layout: input.layout.clone(),
        }),
        PlanNode::Sort {
            input,
            spec,
            prefix_len,
            limit,
            ..
        } => lower_enforcer(input, spec, *prefix_len, *limit, lw)?,
        PlanNode::IndexNestedLoopJoin {
            outer,
            table,
            index,
            probe_cols,
            predicates,
            ..
        } => Box::new(IndexNestedLoopJoinOp {
            outer: lower_impl(outer, lw)?,
            table: *table,
            index: *index,
            probe_pos: probe_cols
                .iter()
                .map(|&c| {
                    outer.layout.position(c).ok_or_else(|| {
                        FtoError::internal(format!("probe column {c} missing from outer"))
                    })
                })
                .collect::<Result<Vec<_>>>()?,
            predicates: predicates.clone(),
            layout: plan.layout.clone(),
            cursor: PageCursor::new(),
            hint: 0,
            out: BatchQueue::default(),
        }),
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
            plan,
            (outer, outer_keys),
            (inner, inner_keys),
            predicates,
            *prefix_len as usize,
            lw,
        )?,
        PlanNode::GroupBy {
            input,
            grouping,
            aggs,
            prefix_len,
        } => {
            let gpos = positions(&input.layout, grouping)?;
            let types = layout_types(lw.graph, &plan.layout)?;
            let spec = Arc::new(AggSpec::new(&gpos, aggs, input.layout.clone(), types));
            // Without a satisfied prefix no group leaves before the input
            // ends — unless there is nothing to group on.
            let child = lower_input(input, *prefix_len == 0 && !grouping.is_empty(), lw)?;
            Box::new(GroupByOp::new(child, spec, *prefix_len as usize))
        }
        PlanNode::UnionAll { inputs } => Box::new(UnionAllOp {
            children: inputs
                .iter()
                .map(|p| lower_impl(p, lw))
                .collect::<Result<Vec<_>>>()?,
            current: 0,
            opened: false,
        }),
        PlanNode::Limit { input, n } => Box::new(LimitOp {
            child: lower_impl(input, lw)?,
            remaining: *n,
        }),
    };
    Ok(match lw.instrument {
        true => Box::new(InstrumentedOp {
            inner: op,
            id,
            label: format!("{}#{id}", plan.op_name()),
        }),
        false => op,
    })
}
