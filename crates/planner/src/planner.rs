//! The bottom-up box planner (paper §5.2).
//!
//! Every box is planned by one pipeline ([`Planner::plan_box`]): plan
//! each quantifier's input, combine the inputs — join enumeration,
//! grouping, union or outer join — then project to the box's outputs and
//! apply its DISTINCT, ORDER BY and LIMIT. The function that makes a
//! candidate plan counts it, once.

use crate::access;
use crate::cardinality::CardEstimator;
use crate::config::{OptimizerConfig, PlannerStats};
use crate::cost::{self, Cost};
use crate::join;
use crate::plan::{JoinKind, Plan, PlanNode};
use fto_catalog::Catalog;
use fto_common::{ColId, ColSet, FtoError, Result};
use fto_expr::{AggCall, Expr, PredClass, PredId, RowLayout};
use fto_obs::trace::DEFAULT_CAPACITY;
use fto_obs::{Trace, TraceEvent};
use fto_order::{ContextWork, FlexOrder, OrderContext, OrderSpec, StreamProps};
use fto_qgm::graph::{BoxId, BoxKind, OutputExpr, QgmBox, Quantifier, QuantifierInput};
use fto_qgm::QueryGraph;
use std::sync::Arc;

/// A sort prices a row at 8 bytes a column plus 16, and at no less than
/// half of this. Nothing refines it from declared column widths (ROADMAP
/// item 10(d)).
const DEFAULT_ROW_WIDTH: usize = 48;

/// The cost-based planner for one query.
pub struct Planner<'a> {
    /// The query being planned (after rewrites and the order scan).
    pub graph: &'a QueryGraph,
    /// The schema.
    pub catalog: &'a Catalog,
    /// Configuration knobs.
    pub config: OptimizerConfig,
    /// Work counters.
    pub stats: PlannerStats,
    /// The decision log, when the planner was asked to keep one
    /// ([`Planner::traced`]).
    trace: Option<Trace>,
    /// The context of [`Planner::effective_ctx`] when order optimization
    /// is disabled; one for the planner's life, not one per comparison.
    trivial: OrderContext,
    /// Which leading part of an order can serve an operator anywhere in
    /// the query: all that counts of it when plans are compared.
    useful: UsefulOrders,
    /// Whether this is the reference planner ([`Planner::exhaustive`]).
    exhaustive: bool,
}

impl<'a> Planner<'a> {
    /// Creates a planner. The graph should already have been through the
    /// QGM rewrites and the order scan (`OrderScan::run`).
    pub fn new(graph: &'a QueryGraph, catalog: &'a Catalog, config: OptimizerConfig) -> Self {
        Planner {
            graph,
            catalog,
            config,
            stats: PlannerStats::default(),
            trace: None,
            trivial: OrderContext::trivial(),
            useful: UsefulOrders::new(graph, catalog),
            exhaustive: false,
        }
    }

    /// Makes this the reference planner (builder style), which tests hold
    /// the planner's pruning against: it searches the same space — the
    /// same join steps, access paths and every interesting order — but
    /// builds sort-ahead over every candidate, not the cheapest, and
    /// prunes a plan only for another that is no dearer and has exactly
    /// the same order, predicates, keys and columns. Its root cost is the
    /// least the search space holds.
    pub fn exhaustive(mut self) -> Self {
        self.exhaustive = true;
        self
    }

    /// Keeps a log of every decision planning makes (builder style), for
    /// [`Planner::take_trace`] to hand over afterwards. Logging only
    /// observes: the plan and the counters are those of an untraced run.
    pub fn traced(mut self) -> Self {
        self.trace = Some(Trace::new(DEFAULT_CAPACITY));
        self
    }

    /// The decision log kept so far, if the planner is [`Planner::traced`].
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Records one decision: bumps the counter `pick` names and, when a
    /// log is kept, appends the event `payload` builds. The payload — all
    /// its formatting — runs only then.
    pub(crate) fn decide(
        &mut self,
        pick: fn(&mut PlannerStats) -> &mut u64,
        payload: impl FnOnce() -> TraceEvent,
    ) {
        *pick(&mut self.stats) += 1;
        self.log(payload);
    }

    /// Appends an event that has no counter (a span's end, a note) to the
    /// log, when one is kept.
    fn log(&mut self, payload: impl FnOnce() -> TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(payload());
        }
    }

    /// Records `plan` as a candidate the enumeration stage `stage` made.
    pub(crate) fn generated(&mut self, stage: &'static str, plan: &Plan) {
        self.decide(
            |s| &mut s.plans_generated,
            || TraceEvent::PlanGenerated {
                stage,
                plan: plan.trace_desc(),
            },
        );
    }

    /// Records that `plan`'s order property satisfied `requirement`, so
    /// no sort was placed.
    pub(crate) fn sort_avoided(&mut self, requirement: &dyn std::fmt::Display, plan: &Plan) {
        self.decide(
            |s| &mut s.sorts_avoided,
            || TraceEvent::SortAvoided {
                requirement: requirement.to_string(),
                order: plan.props.order.to_string(),
            },
        );
    }

    /// Plans the whole query, returning the cheapest valid plan.
    pub fn plan_query(&mut self) -> Result<Plan> {
        let before = ContextWork::snapshot();
        let candidates = self.plan_box(self.graph.root);
        let work = ContextWork::snapshot().since(before);
        self.stats.contexts_built += work.contexts_built;
        self.stats.reduce_memo_hits += work.reduce_memo_hits;
        cheapest(candidates?)
            .map(Arc::unwrap_or_clone)
            .ok_or_else(|| FtoError::Plan("no plan produced".into()))
    }

    /// Plans one box, returning a Pareto set of alternatives (pruned by
    /// cost + property dominance): each quantifier's input, the inputs
    /// combined as the box's kind says, then projection, DISTINCT,
    /// ORDER BY and LIMIT. Candidates are shared: a plan holds its
    /// children's `Arc`s, never a copy of them.
    pub fn plan_box(&mut self, id: BoxId) -> Result<Vec<Arc<Plan>>> {
        // Borrowed from the graph, not from `self`: planning mutates
        // only the counters and the log.
        let graph: &'a QueryGraph = self.graph;
        let qbox = graph.boxed(id);
        let span = || format!("box {id} ({})", kind_name(&qbox.kind));
        self.decide(
            |s| &mut s.boxes_planned,
            || TraceEvent::SpanStart { name: span() },
        );
        // Join enumeration starts from each input's Pareto set; grouping,
        // union and outer join take every candidate.
        let mut inputs = Vec::with_capacity(qbox.quantifiers.len());
        for q in &qbox.quantifiers {
            let candidates = self.plan_input(qbox, q)?;
            inputs.push(match qbox.kind {
                BoxKind::Select => self.prune(candidates),
                _ => candidates,
            });
        }
        let combined = match &qbox.kind {
            BoxKind::Select => self.plan_select(qbox, inputs),
            BoxKind::GroupBy { grouping } => self.plan_group_by(qbox, grouping, inputs),
            BoxKind::Union => self.plan_union(qbox, inputs),
            BoxKind::OuterJoin { on } => self.plan_outer_join(qbox, on, inputs),
        }?;
        let mut plans: Vec<Arc<Plan>> = combined
            .into_iter()
            .map(|p| self.project_outputs(p, qbox))
            .collect();

        // DISTINCT on the box's output: a grouping on every output column
        // with no aggregates.
        if qbox.distinct {
            let cols = qbox.output_cols();
            let flex = qbox
                .group_order
                .clone()
                .unwrap_or_else(|| FlexOrder::group_by(cols.iter().copied(), []));
            plans = self.group_plans("distinct", plans, &cols, &[], &flex);
        }

        // Output order requirement (ORDER BY).
        if let Some(req) = &qbox.output_order {
            plans = plans
                .into_iter()
                .map(|p| self.ensure_order(p, req))
                .collect();
        }

        // Row budget (LIMIT). A top-level sort fuses with the limit into
        // Top-N selection — the classic payoff of ORDER BY + LIMIT.
        if let Some(n) = qbox.limit {
            plans = plans.into_iter().map(|p| self.apply_limit(p, n)).collect();
        }

        let kept = self.prune(plans);
        self.log(|| TraceEvent::Note {
            text: format!("box {id}: {} plan(s) kept", kept.len()),
        });
        self.log(|| TraceEvent::SpanEnd { name: span() });
        Ok(kept)
    }

    /// `plan` under a LIMIT of `n`. A limit directly above a sort is the
    /// enforcer's own (a top-n, or an early exit from a segmented sort).
    fn apply_limit(&mut self, plan: Arc<Plan>, n: u64) -> Arc<Plan> {
        match &plan.node {
            PlanNode::Sort {
                input,
                spec,
                prefix_len,
                limit: None,
                ..
            } => self.enforcer(
                Arc::clone(input),
                spec.clone(),
                plan.props.clone(),
                *prefix_len,
                Some(n),
            ),
            _ => {
                let cost = plan.cost.with_rows(plan.cost.rows.min(n as f64));
                limit_node(plan, n, cost)
            }
        }
    }

    /// One quantifier's candidate plans, with the box's predicates over
    /// its columns alone applied: a base table's access paths, or the
    /// child box's plans under a filter.
    fn plan_input(&mut self, qbox: &QgmBox, q: &Quantifier) -> Result<Vec<Arc<Plan>>> {
        let local = self.local_preds(qbox, &q.col_set());
        match q.input {
            QuantifierInput::Table(tid) => access::access_paths(self, tid, q, &local),
            QuantifierInput::Box(child) => {
                let plans = self.plan_box(child)?;
                Ok(plans
                    .into_iter()
                    .map(|p| self.apply_filter(p, &local))
                    .collect())
            }
        }
    }

    // ----- Select boxes -------------------------------------------------

    /// Joins a SELECT box's inputs — join enumeration, or one input and
    /// its sort-ahead variants — then applies any box predicate not yet
    /// applied (a correctness backstop; in practice local and join
    /// predicates cover everything).
    fn plan_select(
        &mut self,
        qbox: &QgmBox,
        mut inputs: Vec<Vec<Arc<Plan>>>,
    ) -> Result<Vec<Arc<Plan>>> {
        let plans = if inputs.len() > 1 {
            join::enumerate(self, qbox, inputs)?
        } else {
            let mut plans = inputs
                .pop()
                .ok_or_else(|| FtoError::Plan("select box with no quantifiers".into()))?;
            let sorted = self.sort_ahead(qbox, &plans);
            plans.extend(sorted);
            plans
        };
        Ok(plans
            .into_iter()
            .map(|p| {
                let missing: Vec<PredId> = qbox
                    .predicates
                    .iter()
                    .copied()
                    .filter(|pid| p.props.preds.binary_search(pid).is_err())
                    .collect();
                self.apply_filter(p, &missing)
            })
            .collect())
    }

    /// Sort-ahead (paper §5.2): for each of the box's interesting orders —
    /// every one: the paper caps n only because enumeration grows as
    /// O(n²), which one enforcer per interest and useful-prefix dominance
    /// keep flat here — one sorted copy of the cheapest of `plans` that
    /// does not already provide it, so the sort a parent needs can sink
    /// below this box or join step. Each candidate's enforcer is priced
    /// ([`Planner::sort_shape`], [`enforcer_cost`]), unless its input
    /// alone already costs the least total found, and only the one with
    /// the least total is built and counted as a generated plan; ties keep
    /// the first, as [`Planner::prune`] does. The others would be pruned
    /// by it: within one call every sorted copy for an interest carries
    /// the same facts and the same order. The reference planner
    /// ([`Planner::exhaustive`]) builds a sorted copy of every candidate.
    /// None when sort-ahead or order optimization is off.
    pub(crate) fn sort_ahead(&mut self, qbox: &QgmBox, plans: &[Arc<Plan>]) -> Vec<Arc<Plan>> {
        let mut variants = Vec::new();
        if !(self.config.sort_ahead && self.config.order_optimization) {
            return variants;
        }
        for interest in &qbox.interesting {
            let (mut chosen, mut least) = (Vec::new(), f64::INFINITY);
            for plan in plans {
                // A sort never costs less than nothing: a candidate whose
                // input already costs the least total found cannot win.
                if plan.cost.total >= least {
                    continue;
                }
                let ctx = self.effective_ctx(&plan.props);
                let (homog, _) = ctx.homogenize_prefix(interest, &plan.props.cols);
                if homog.is_empty() || ctx.test_order(&homog, &plan.props.order) {
                    continue;
                }
                let Some(shape) = self.sort_shape(plan, &homog) else {
                    continue;
                };
                if !self.exhaustive {
                    let total = shape.price(plan).total;
                    if total >= least {
                        continue;
                    }
                    least = total;
                    chosen.clear();
                }
                chosen.push((plan, shape));
            }
            for (plan, shape) in chosen {
                let sorted = self.place_sort(Arc::clone(plan), shape);
                self.decide(
                    |s| &mut s.sort_ahead_variants,
                    || TraceEvent::SortAhead {
                        interest: interest.to_string(),
                        plan: sorted.trace_desc(),
                    },
                );
                self.generated("sort-ahead", &sorted);
                variants.push(sorted);
            }
        }
        variants
    }

    // ----- Group-by boxes -----------------------------------------------

    fn plan_group_by(
        &mut self,
        qbox: &QgmBox,
        grouping: &[ColId],
        inputs: Vec<Vec<Arc<Plan>>>,
    ) -> Result<Vec<Arc<Plan>>> {
        let Ok([input]) = <[Vec<Arc<Plan>>; 1]>::try_from(inputs) else {
            return Err(FtoError::Plan(
                "group-by box needs exactly one quantifier".into(),
            ));
        };
        let aggs: Vec<(ColId, AggCall)> = qbox
            .output
            .iter()
            .filter_map(|o| match &o.expr {
                OutputExpr::Agg(call) => Some((o.col, call.clone())),
                OutputExpr::Scalar(_) => None,
            })
            .collect();
        let flex = qbox.group_order.clone().unwrap_or_else(|| {
            FlexOrder::group_by(
                grouping.iter().copied(),
                aggs.iter()
                    .filter(|(_, c)| c.distinct)
                    .filter_map(|(_, c)| c.arg.as_col()),
            )
        });

        Ok(self.group_plans("group-by", input, grouping, &aggs, &flex))
    }

    /// The groupings of each of `inputs` on `grouping` computing `aggs`:
    /// order-based over an input ordered as `flex` asks (sorted first when
    /// it is not), and hash-based when the configuration allows. A GROUP
    /// BY box and a box's DISTINCT (every output column, no aggregates)
    /// are both planned here; `stage` names which in the decision log.
    fn group_plans(
        &mut self,
        stage: &'static str,
        inputs: Vec<Arc<Plan>>,
        grouping: &[ColId],
        aggs: &[(ColId, AggCall)],
        flex: &FlexOrder,
    ) -> Vec<Arc<Plan>> {
        let grouping_set: ColSet = grouping.iter().copied().collect();
        let agg_cols: ColSet = aggs.iter().map(|(c, _)| *c).collect();
        let out_layout = RowLayout::new(
            grouping
                .iter()
                .copied()
                .chain(aggs.iter().map(|(c, _)| *c))
                .collect::<Vec<_>>(),
        );

        let mut plans = Vec::new();
        for child in inputs {
            let groups = self
                .estimator()
                .group_count(grouping, child.cost.rows)
                .max(1.0);
            // The order-based grouping satisfies every grouping column
            // and keeps its input's order; the hash-based one satisfies
            // none and promises no order. (Without grouping columns both
            // are the order-based one, still priced as they were planned.)
            let group_by = |input: Arc<Plan>, ordered: bool| {
                let (prefix_len, order, work) = match ordered {
                    true => (
                        grouping.len(),
                        input.props.order.clone(),
                        cost::stream_group_by(input.cost.rows),
                    ),
                    false => (
                        0,
                        OrderSpec::empty(),
                        cost::hash_group_by(input.cost.rows, groups),
                    ),
                };
                Arc::new(Plan {
                    props: input.props.group_by(&grouping_set, &agg_cols, order),
                    cost: input.cost.plus(work).with_rows(groups),
                    node: PlanNode::GroupBy {
                        input,
                        grouping: grouping.to_vec(),
                        aggs: aggs.to_vec(),
                        prefix_len: prefix_len as u32,
                    },
                    layout: out_layout.clone(),
                })
            };

            // Order-based: stream directly when the child's order already
            // groups rows; otherwise sort first.
            let ctx = self.effective_ctx(&child.props);
            let streaming_child = if flex.satisfied_by(&child.props.order, ctx) {
                self.sort_avoided(&stage, &child);
                Arc::clone(&child)
            } else {
                let spec = flex.concretize(&child.props.order, ctx);
                self.add_sort(Arc::clone(&child), &spec)
            };
            plans.push(group_by(streaming_child, true));

            // Hash-based alternative (paper §5.1: recording an input order
            // requirement "does not preclude hash-based GROUP BY").
            if self.config.enable_hash_grouping {
                plans.push(group_by(child, false));
            }
        }
        for p in &plans {
            self.generated(stage, p);
        }
        plans
    }

    // ----- Union boxes ----------------------------------------------------

    /// Concatenates the cheapest plan of each branch (a UNION's duplicate
    /// elimination is the box's DISTINCT).
    fn plan_union(&mut self, qbox: &QgmBox, inputs: Vec<Vec<Arc<Plan>>>) -> Result<Vec<Arc<Plan>>> {
        let mut branch_plans = Vec::with_capacity(inputs.len());
        let mut total_cost = 0.0;
        let mut total_rows = 0.0;
        for branch in inputs {
            let best =
                cheapest(branch).ok_or_else(|| FtoError::Plan("empty union branch".into()))?;
            total_cost += best.cost.total;
            total_rows += best.cost.rows;
            branch_plans.push(best);
        }
        let out_cols: Vec<fto_common::ColId> = qbox.output_cols();
        let props = StreamProps::base_table(out_cols.iter().copied().collect(), vec![]);
        let plan = Arc::new(Plan {
            node: PlanNode::UnionAll {
                inputs: branch_plans,
            },
            layout: RowLayout::new(out_cols),
            props,
            cost: Cost {
                total: total_cost + total_rows * cost::CPU_ROW,
                rows: total_rows,
            },
        });
        self.generated("union", &plan);
        Ok(vec![plan])
    }

    // ----- Outer joins ------------------------------------------------------

    /// Plans a left outer join box: every (outer, inner) candidate pair
    /// yields one `Join { kind: LeftOuter }` plan. The outer's order survives; ON
    /// equalities feed only one-directional FDs (paper §4.1).
    fn plan_outer_join(
        &mut self,
        qbox: &QgmBox,
        on: &[PredId],
        inputs: Vec<Vec<Arc<Plan>>>,
    ) -> Result<Vec<Arc<Plan>>> {
        let (Ok([lefts, rights]), [lq, rq]) = (
            <[Vec<Arc<Plan>>; 2]>::try_from(inputs),
            qbox.quantifiers.as_slice(),
        ) else {
            return Err(FtoError::Plan(
                "outer-join box needs exactly two quantifiers".into(),
            ));
        };
        let preserved = lq.col_set();
        let equates = join::equated_pairs(self.graph, on, &preserved, &rq.col_set());
        let (okeys, ikeys): (Vec<_>, Vec<_>) = equates.iter().copied().unzip();

        let sel = self
            .estimator()
            .conjunction_selectivity(on.iter().map(|&p| self.graph.predicate(p)));

        let mut plans = Vec::new();
        for left in &lefts {
            for right in &rights {
                self.stats.joins_considered += 1;
                // The preserved side's facts and order, then the
                // one-directional ON FDs.
                let mut props = StreamProps::left_outer_join(&left.props, &right.props);
                for &pid in on {
                    props.apply_outer_join_predicate(pid, self.graph.predicate(pid), &preserved);
                }
                // Matched rows plus padded rows: never fewer than the
                // preserved side.
                let rows = (left.cost.rows * right.cost.rows * sel).max(left.cost.rows);
                let total = left.cost.total
                    + right.cost.total
                    + if equates.is_empty() {
                        left.cost.rows.max(1.0) * right.cost.rows * cost::CPU_ROW
                    } else {
                        cost::hash_join(right.cost.rows, left.cost.rows)
                    }
                    + cost::filter(rows, on.len());
                plans.push(Arc::new(Plan {
                    node: PlanNode::Join {
                        kind: JoinKind::LeftOuter,
                        outer: Arc::clone(left),
                        inner: Arc::clone(right),
                        outer_keys: okeys.clone(),
                        inner_keys: ikeys.clone(),
                        predicates: on.to_vec(),
                        prefix_len: 0,
                    },
                    layout: left.layout.concat(&right.layout),
                    props,
                    cost: Cost { total, rows },
                }));
            }
        }
        for p in &plans {
            self.generated("outer-join", p);
        }
        Ok(plans)
    }

    // ----- Shared helpers -------------------------------------------------

    /// The reasoning context the configuration allows: the stream's full
    /// context when order optimization is on, the trivial context when it
    /// is disabled (orders compare verbatim). Borrowed either way:
    /// asking a question never builds a context.
    pub fn effective_ctx<'s>(&'s self, props: &'s StreamProps) -> &'s OrderContext {
        if self.config.order_optimization {
            props.ctx()
        } else {
            &self.trivial
        }
    }

    /// Does `plan` already provide `interest`?
    pub fn order_satisfied(&self, plan: &Plan, interest: &OrderSpec) -> bool {
        self.effective_ctx(&plan.props)
            .test_order(interest, &plan.props.order)
    }

    /// Wraps `plan` in a sort producing `spec` (reduced to its minimal
    /// column list under the effective context): the sort `sort_shape`
    /// describes, placed by `place_sort`. `plan` itself when it needs
    /// none.
    pub fn add_sort(&mut self, plan: Arc<Plan>, spec: &OrderSpec) -> Arc<Plan> {
        match self.sort_shape(&plan, spec) {
            Some(shape) => self.place_sort(plan, shape),
            None => plan,
        }
    }

    /// The sort [`Planner::add_sort`] would place over `plan` for `spec`,
    /// without placing it: `None` when `spec` reduces to nothing.
    ///
    /// Reduction rewrites columns to equivalence-class heads, which may
    /// not be physically present in the plan (projected away in favour of
    /// an equivalent column), so the reduced specification is homogenized
    /// back onto the plan's actual layout.
    ///
    /// Segmented (partial) sort: when the input's order property
    /// already satisfies a strict non-empty prefix of the minimal
    /// specification, rows arrive grouped contiguously by the prefix
    /// columns, so only the residual suffix needs sorting — within
    /// each group. The split is positional only when reduce(minimal)
    /// partitions exactly (the homogenize fallback can leave
    /// `minimal` unreduced). Like every other use of the order algebra,
    /// it is off when order optimization is.
    fn sort_shape(&self, plan: &Plan, spec: &OrderSpec) -> Option<SortShape> {
        let ctx = self.effective_ctx(&plan.props);
        let reduced = ctx.reduce(spec);
        if reduced.is_empty() {
            return None;
        }
        // Fall back to the caller's columns verbatim (they must be in the
        // layout for the request to make sense at all).
        let spec = ctx
            .homogenize(&reduced, &plan.layout.col_set())
            .unwrap_or_else(|| spec.clone());
        if spec.is_empty() {
            return None;
        }
        let mut segment = None;
        if self.config.order_optimization {
            let (prefix, suffix) = ctx.split_requirement(&spec, &plan.props.order);
            if !prefix.is_empty() && !suffix.is_empty() && prefix.len() + suffix.len() == spec.len()
            {
                let groups = self.prefix_groups(&spec, prefix.len(), plan.cost.rows);
                if groups > 1.0 {
                    segment = Some(Segment {
                        prefix,
                        suffix,
                        groups,
                    });
                }
            }
        }
        Some(SortShape { spec, segment })
    }

    /// Places the sort `shape` describes over `plan` (shaped by
    /// [`Planner::sort_shape`] for it) and records the decisions: a sort
    /// added, and a partial sort chosen when it is segmented.
    fn place_sort(&mut self, plan: Arc<Plan>, shape: SortShape) -> Arc<Plan> {
        self.decide(
            |s| &mut s.sorts_added,
            || TraceEvent::SortAdded {
                spec: shape.spec.to_string(),
                input: plan.trace_desc(),
            },
        );
        if let Some(seg) = &shape.segment {
            self.decide(
                |s| &mut s.partial_sorts,
                || TraceEvent::PartialSortChosen {
                    prefix: seg.prefix.to_string(),
                    suffix: seg.suffix.to_string(),
                    groups: seg.groups.round() as u64,
                },
            );
        }
        let props = plan.props.sorted(&shape.spec);
        let prefix_len = shape.prefix_len();
        self.enforcer(plan, shape.spec, props, prefix_len, None)
    }

    /// The one builder of the order enforcer: `input` sorted on `spec`,
    /// whose first `prefix_len` keys the input already satisfies, with at
    /// most `limit` rows out and the properties `props`, priced by
    /// [`enforcer_cost`]. A limit above a segmented sort is a `Limit`
    /// over the segmented sort.
    fn enforcer(
        &self,
        input: Arc<Plan>,
        spec: OrderSpec,
        props: StreamProps,
        prefix_len: usize,
        limit: Option<u64>,
    ) -> Arc<Plan> {
        let groups = match prefix_len {
            0 => 1.0,
            k => self.prefix_groups(&spec, k, input.cost.rows),
        };
        let cost = enforcer_cost(&input, prefix_len, groups, limit);
        let sort = |limit, cost| {
            Arc::new(Plan {
                layout: input.layout.clone(),
                node: PlanNode::Sort {
                    input: Arc::clone(&input),
                    spec,
                    prefix_len,
                    est_groups: groups.round() as u64,
                    limit,
                },
                props,
                cost,
            })
        };
        match (prefix_len, limit) {
            (1.., Some(n)) => {
                let sorted = enforcer_cost(&input, prefix_len, groups, None);
                limit_node(sort(None, sorted), n, cost)
            }
            _ => sort(limit, cost),
        }
    }

    /// The estimated number of groups `rows` rows form on the first
    /// `prefix_len` keys of `spec`, in [1, rows].
    fn prefix_groups(&self, spec: &OrderSpec, prefix_len: usize, rows: f64) -> f64 {
        let cols: Vec<ColId> = spec.keys()[..prefix_len].iter().map(|k| k.col).collect();
        self.estimator()
            .group_count(&cols, rows)
            .clamp(1.0, rows.max(1.0))
    }

    /// Ensures `plan` satisfies the order requirement `req`, adding a sort
    /// when the property test fails (paper Fig. 3 drives this decision).
    pub fn ensure_order(&mut self, plan: Arc<Plan>, req: &OrderSpec) -> Arc<Plan> {
        if self.order_satisfied(&plan, req) {
            self.sort_avoided(req, &plan);
            plan
        } else {
            self.add_sort(plan, req)
        }
    }

    /// Applies predicates via a Filter node (no-op on an empty list).
    pub fn apply_filter(&mut self, plan: Arc<Plan>, preds: &[PredId]) -> Arc<Plan> {
        if preds.is_empty() {
            return plan;
        }
        let mut props = plan.props.clone();
        let mut sel = 1.0;
        for &pid in preds {
            let pred = self.graph.predicate(pid);
            props.apply_predicate(pid, pred);
            sel *= self.estimator().selectivity(pred);
        }
        let rows = (plan.cost.rows * sel).max(0.0);
        let cost = plan
            .cost
            .plus(cost::filter(plan.cost.rows, preds.len()))
            .with_rows(rows);
        Arc::new(Plan {
            layout: plan.layout.clone(),
            node: PlanNode::Filter {
                input: plan,
                predicates: preds.to_vec(),
            },
            props,
            cost,
        })
    }

    /// Projects a plan to the box's output list, minting computed columns.
    pub fn project_outputs(&mut self, plan: Arc<Plan>, qbox: &QgmBox) -> Arc<Plan> {
        let out_cols: Vec<fto_common::ColId> = qbox.output_cols();
        let passthrough_only = qbox.output.iter().all(|o| o.is_passthrough());
        if passthrough_only && plan.layout.cols() == out_cols.as_slice() {
            return plan;
        }
        let exprs: Vec<(fto_common::ColId, Expr)> = qbox
            .output
            .iter()
            .map(|o| match &o.expr {
                OutputExpr::Scalar(e) => (o.col, e.clone()),
                // Aggregates were computed by the group-by below; forward.
                OutputExpr::Agg(_) => (o.col, Expr::col(o.col)),
            })
            .collect();

        // Properties: keep what survives for pass-through columns, then
        // add computed columns and their defining FDs.
        let keep: ColSet = exprs
            .iter()
            .filter_map(|(c, e)| (e.as_col() == Some(*c)).then_some(*c))
            .collect();
        let mut props = plan.props.project(&keep);
        props.add_computed_columns(
            exprs
                .iter()
                .filter(|(c, e)| e.as_col() != Some(*c))
                .map(|(c, e)| (*c, e.cols())),
        );
        let rows = plan.cost.rows;
        let cost = plan.cost.plus(rows * cost::CPU_ROW * 0.5);
        Arc::new(Plan {
            node: PlanNode::Project { input: plan, exprs },
            layout: RowLayout::new(out_cols),
            props,
            cost,
        })
    }

    /// Predicates of `qbox` whose columns all come from `cols`.
    pub fn local_preds(&self, qbox: &QgmBox, cols: &ColSet) -> Vec<PredId> {
        qbox.predicates
            .iter()
            .copied()
            .filter(|&pid| self.graph.predicate(pid).cols().is_subset(cols))
            .collect()
    }

    /// Cost/property pruning: a plan survives unless another plan is both
    /// at least as cheap and at least as good on every property dimension
    /// that matters (paper §5.2.1's `<=` comparison, [`Planner::plan_dominates`]).
    /// Each candidate's useful prefix is cut once, on arrival.
    /// A pruned candidate's drop frees its own node alone: its children are
    /// shared with the candidates built over them.
    pub fn prune(&mut self, plans: Vec<Arc<Plan>>) -> Vec<Arc<Plan>> {
        let mut kept: Vec<(Arc<Plan>, OrderSpec)> = Vec::with_capacity(plans.len());
        for plan in plans {
            let useful = self.useful.prefix(&plan.props.order);
            if let Some((winner, _)) = kept
                .iter()
                .find(|(k, _)| self.plan_dominates(k, &plan, &useful))
            {
                self.decide(
                    |s| &mut s.plans_pruned,
                    || TraceEvent::PlanPruned {
                        loser: plan.trace_desc(),
                        winner: winner.trace_desc(),
                    },
                );
                continue;
            }
            kept.retain(|(k, k_useful)| {
                let gone = self.plan_dominates(&plan, k, k_useful);
                if gone {
                    self.decide(
                        |s| &mut s.plans_pruned,
                        || TraceEvent::PlanPruned {
                            loser: k.trace_desc(),
                            winner: plan.trace_desc(),
                        },
                    );
                }
                !gone
            });
            kept.push((plan, useful));
        }
        kept.into_iter().map(|(plan, _)| plan).collect()
    }

    /// Whether `a` makes `b` redundant: `a` is no dearer, and at least as
    /// good on `b`'s predicates, keys and order — where `b`'s order counts
    /// only up to `b_useful`, its useful prefix ([`UsefulOrders::prefix`]),
    /// when `a` yields no more rows than `b`. Against a larger `a` the
    /// whole order counts: the estimator can size one subset differently
    /// by join order (an index nested loop applies its inner's filter
    /// selectivity a second time), and everything above a plan pays per
    /// row — cut regardless, `j5` and `j6` lose their cheapest plan under
    /// `db2_1996`. The reference planner asks for equal properties instead.
    fn plan_dominates(&self, a: &Plan, b: &Plan, b_useful: &OrderSpec) -> bool {
        if a.cost.total > b.cost.total {
            return false;
        }
        if self.exhaustive {
            return same_props(&a.props, &b.props);
        }
        let counted = match a.cost.rows > b.cost.rows {
            true => &b.props.order,
            false => b_useful,
        };
        a.props
            .dominates_under(&b.props, counted, self.effective_ctx(&a.props))
    }

    /// The cardinality estimator for this query.
    pub fn estimator(&self) -> CardEstimator<'_> {
        CardEstimator::new(self.graph, self.catalog)
    }
}

/// Short name of a box kind for trace spans.
fn kind_name(kind: &BoxKind) -> &'static str {
    match kind {
        BoxKind::Select => "select",
        BoxKind::GroupBy { .. } => "group-by",
        BoxKind::Union => "union",
        BoxKind::OuterJoin { .. } => "outer-join",
    }
}

/// Whether two streams have exactly the same order, predicates and
/// columns: the reference planner's only ground for pruning.
fn same_props(a: &StreamProps, b: &StreamProps) -> bool {
    a.order == b.order && a.preds == b.preds && a.cols == b.cols
}

/// The leading part of an order that an operator anywhere in the query
/// could use (paper §5.1: the order scan says which orders matter).
///
/// A column is *useful* when some box names it in an interesting order,
/// its ORDER BY or its grouping requirement, or some `col = col`
/// predicate — a merge join's or an ordered index nested loop's input
/// order — reads it, outer-join ON predicates included; and so is every
/// column equivalent to one of those. Orders are judged against the
/// query-global context ([`fto_qgm::global_context`]): every equivalence,
/// constant and dependency any subplan can come to hold, so an order that
/// is useless where it is made cannot turn useful higher up.
struct UsefulOrders {
    /// The query-global optimistic context.
    global: OrderContext,
    /// The useful columns, as heads of `global`'s equivalence classes.
    heads: ColSet,
}

impl UsefulOrders {
    fn new(graph: &QueryGraph, catalog: &Catalog) -> UsefulOrders {
        let global = fto_qgm::global_context(graph, catalog);
        let mut cols = ColSet::new();
        for qbox in &graph.boxes {
            for order in qbox.interesting.iter().chain(&qbox.output_order) {
                cols.union_with(&order.col_set());
            }
            if let Some(flex) = &qbox.group_order {
                cols.union_with(&flex.col_set());
            }
        }
        for pred in &graph.predicates {
            if let PredClass::ColEqCol(a, b) = pred.classify() {
                cols.insert(a);
                cols.insert(b);
            }
        }
        let eq = global.equivalences();
        let heads = cols.iter().map(|c| eq.head(c)).collect();
        UsefulOrders { global, heads }
    }

    /// The leading keys of `order` that count: each key on a useful
    /// column, or one the query's dependencies determine from the keys
    /// before it (a constant-bound column included), up to the first
    /// other key. No operator can use a key past that one: `global` holds
    /// every fact the query states, so that key stays in any order
    /// planning derives from this one, on a column nothing asks for,
    /// ahead of the rest.
    fn prefix(&self, order: &OrderSpec) -> OrderSpec {
        let eq = self.global.equivalences();
        let mut before = ColSet::new();
        let keys = order.keys();
        for (i, key) in keys.iter().enumerate() {
            let head = eq.head(key.col);
            if !self.heads.contains(head) && !self.global.fds().determines(&before, head) {
                return OrderSpec::new(&keys[..i]);
            }
            before.insert(head);
        }
        order.clone()
    }
}

/// The cheapest of `plans`.
fn cheapest(plans: Vec<Arc<Plan>>) -> Option<Arc<Plan>> {
    plans
        .into_iter()
        .min_by(|a, b| a.cost.total.total_cmp(&b.cost.total))
}

/// The sort [`Planner::add_sort`] places: the minimal specification, and
/// the satisfied prefix when the sort is segmented.
struct SortShape {
    spec: OrderSpec,
    segment: Option<Segment>,
}

/// A segmented sort's split: the prefix its input satisfies, the suffix
/// it sorts within each prefix group, and the estimated group count.
struct Segment {
    prefix: OrderSpec,
    suffix: OrderSpec,
    groups: f64,
}

impl SortShape {
    /// The number of leading keys the input already satisfies.
    fn prefix_len(&self) -> usize {
        self.segment.as_ref().map_or(0, |seg| seg.prefix.len())
    }

    /// What this sort over `input` costs, input included: the cost of
    /// the plan [`Planner::place_sort`] would build, without building it.
    fn price(&self, input: &Plan) -> Cost {
        let groups = self.segment.as_ref().map_or(1.0, |seg| seg.groups);
        enforcer_cost(input, self.prefix_len(), groups, None)
    }
}

/// The one price of the order enforcer, as `EnforceOp` runs it: `input`
/// sorted with its first `prefix_len` keys satisfied, in `groups` prefix
/// groups, with at most `limit` rows out. A full sort pays `sort(n)`; a
/// segmented one `Σ sort(n / G)` over its G prefix groups; a top-n (a
/// limit fused with a full sort) selects in O(N + k log k). A limit above
/// a segmented sort stops it, and its input, after the ⌈k / group size⌉
/// groups it needs: the input's cost prorated by the fraction consumed.
fn enforcer_cost(input: &Plan, prefix_len: usize, groups: f64, limit: Option<u64>) -> Cost {
    let rows = input.cost.rows;
    let width = (input.layout.arity() * 8 + 16).max(DEFAULT_ROW_WIDTH / 2);
    match (prefix_len, limit) {
        (0, None) => input.cost.plus(cost::sort(rows, width, cost::SORT_MEMORY)),
        (0, Some(n)) => {
            let k = rows.min(n as f64);
            input
                .cost
                .plus(rows * cost::CPU_ROW)
                .plus(k * k.max(2.0).log2() * cost::CPU_SORT_CMP)
                .with_rows(k)
        }
        (_, None) => input
            .cost
            .plus(cost::segmented_sort(rows, groups, width, cost::SORT_MEMORY)),
        (_, Some(n)) => {
            let sorted = enforcer_cost(input, prefix_len, groups, None);
            let per_group = (rows / groups).max(1.0);
            let groups_needed = (n as f64 / per_group).ceil().min(groups);
            let consumed = (groups_needed * per_group).min(rows);
            let partial = cost::segmented_sort(consumed, groups_needed, width, cost::SORT_MEMORY);
            let full = sorted.total - input.cost.total;
            let fraction = (consumed / rows.max(1.0)).min(1.0);
            Cost {
                total: input.cost.total * fraction + partial.min(full),
                rows: 0.0,
            }
            .with_rows(rows.min(n as f64))
        }
    }
}

/// `plan` under a `Limit` of `n` rows, at `cost`.
fn limit_node(plan: Arc<Plan>, n: u64, cost: Cost) -> Arc<Plan> {
    Arc::new(Plan {
        layout: plan.layout.clone(),
        props: plan.props.clone(),
        node: PlanNode::Limit { input: plan, n },
        cost,
    })
}

/// Shared fixtures for the planner test suites.
#[cfg(test)]
pub(crate) mod tests_support {
    use fto_catalog::{Catalog, ColumnDef, KeyDef};
    use fto_common::{DataType, Direction, Row, Value};
    use fto_storage::Database;

    /// A one-table database: t(k int primary key, v int, s varchar) with a
    /// secondary index on v, loaded with `k ∈ 0..200`, `v = k % 20`.
    pub fn simple_db() -> Database {
        let mut cat = Catalog::new();
        let t = cat
            .create_table(
                "t",
                vec![
                    ColumnDef::new("k", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                    ColumnDef::new("s", DataType::Str),
                ],
                vec![KeyDef::primary([0])],
            )
            .unwrap();
        cat.create_index("t_v", t, vec![(1, Direction::Asc)], false, false)
            .unwrap();
        let mut db = Database::new(cat);
        let rows: Vec<Row> = (0..200)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 20),
                    Value::str(format!("s{i}")),
                ]
                .into_boxed_slice()
            })
            .collect();
        db.load_table(t, rows).unwrap();
        db
    }

    /// A three-table schema shaped like the paper's Q3: customer, orders
    /// (clustered pk o_orderkey), lineitem (clustered index on
    /// l_orderkey). `n` scales the order count.
    pub fn q3_like_db(n: i64) -> Database {
        let mut cat = Catalog::new();
        let customer = cat
            .create_table(
                "customer",
                vec![
                    ColumnDef::new("c_custkey", DataType::Int),
                    ColumnDef::new("c_mktsegment", DataType::Str),
                ],
                vec![KeyDef::primary([0])],
            )
            .unwrap();
        let orders = cat
            .create_table(
                "orders",
                vec![
                    ColumnDef::new("o_orderkey", DataType::Int),
                    ColumnDef::new("o_custkey", DataType::Int),
                    ColumnDef::new("o_orderdate", DataType::Date),
                    ColumnDef::new("o_shippriority", DataType::Int),
                ],
                vec![KeyDef::primary([0])],
            )
            .unwrap();
        let lineitem = cat
            .create_table(
                "lineitem",
                vec![
                    ColumnDef::new("l_orderkey", DataType::Int),
                    ColumnDef::new("l_extendedprice", DataType::Double),
                    ColumnDef::new("l_discount", DataType::Double),
                    ColumnDef::new("l_shipdate", DataType::Date),
                ],
                vec![],
            )
            .unwrap();
        cat.create_index(
            "l_orderkey_ix",
            lineitem,
            vec![(0, Direction::Asc)],
            false,
            true,
        )
        .unwrap();
        let mut db = Database::new(cat);

        let customers = n / 10 + 1;
        db.load_table(
            customer,
            (0..customers)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::str(if i % 5 == 0 { "building" } else { "auto" }),
                    ]
                    .into_boxed_slice()
                })
                .collect(),
        )
        .unwrap();
        db.load_table(
            orders,
            (0..n)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Int(i % customers),
                        Value::Date((i % 90) as i32),
                        Value::Int(i % 3),
                    ]
                    .into_boxed_slice()
                })
                .collect(),
        )
        .unwrap();
        db.load_table(
            lineitem,
            (0..n * 4)
                .map(|i| {
                    vec![
                        Value::Int(i / 4),
                        Value::Double(100.0 + (i % 900) as f64),
                        Value::Double(0.01 * (i % 10) as f64),
                        Value::Date((i % 120) as i32),
                    ]
                    .into_boxed_slice()
                })
                .collect(),
        )
        .unwrap();
        db
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::simple_db;
    use super::*;
    use fto_common::Value;
    use fto_expr::Predicate;
    use fto_qgm::graph::OutputCol;
    use fto_qgm::{OrderScan, QueryGraph};

    /// A full sort: no satisfied prefix, no fused limit.
    fn is_full_sort(n: &PlanNode) -> bool {
        matches!(
            n,
            PlanNode::Sort {
                prefix_len: 0,
                limit: None,
                ..
            }
        )
    }

    /// A segmented sort: the input satisfies a prefix of the spec.
    fn is_segmented(n: &PlanNode) -> bool {
        matches!(
            n,
            PlanNode::Sort {
                prefix_len: 1..,
                ..
            }
        )
    }

    fn single_table_query(
        db: &fto_storage::Database,
        order_by: Option<usize>,
    ) -> (QueryGraph, Vec<fto_common::ColId>) {
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        g.add_table_quantifier(b, db.catalog().table_by_name("t").unwrap());
        let cols = g.boxed(b).quantifiers[0].cols.clone();
        g.boxed_mut(b).output = cols.iter().map(|&c| OutputCol::passthrough(c)).collect();
        if let Some(ord) = order_by {
            g.boxed_mut(b).output_order = Some(OrderSpec::ascending([cols[ord]]));
        }
        g.root = b;
        (g, cols)
    }

    #[test]
    fn plans_simple_scan() {
        let db = simple_db();
        let (mut g, _) = single_table_query(&db, None);
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let plan = p.plan_query().unwrap();
        assert!(plan.cost.rows > 0.0);
        // Cheapest access with no requirement: plain table scan.
        assert_eq!(
            plan.count_ops(&|n| matches!(n, PlanNode::TableScan { .. })),
            1
        );
    }

    #[test]
    fn untraced_decisions_count_but_build_no_payload() {
        let db = simple_db();
        let (mut g, _) = single_table_query(&db, Some(0));
        OrderScan::run(&mut g, db.catalog());
        let payload = |ran: &mut u32| {
            *ran += 1;
            TraceEvent::Note { text: "x".into() }
        };

        // Nobody asked for a log: the counter moves, the payload closure
        // never runs, and planning does not start a log by itself.
        let mut plain = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let mut ran = 0;
        plain.decide(|s| &mut s.joins_considered, || payload(&mut ran));
        plain.log(|| payload(&mut ran));
        plain.plan_query().unwrap();
        assert_eq!(ran, 0);
        assert!(plain.stats.joins_considered == 1 && plain.stats.plans_generated > 0);
        assert!(plain.take_trace().is_none());

        // Asked to trace: same counters, and each call logs its event.
        let mut traced = Planner::new(&g, db.catalog(), OptimizerConfig::default()).traced();
        traced.decide(|s| &mut s.joins_considered, || payload(&mut ran));
        traced.log(|| payload(&mut ran));
        traced.plan_query().unwrap();
        assert_eq!(ran, 2);
        assert_eq!(traced.stats, plain.stats);
        let trace = traced.take_trace().unwrap();
        assert_eq!(trace.events()[0], TraceEvent::Note { text: "x".into() });
        assert!(trace.events().len() > 2 && trace.dropped() == 0);
    }

    #[test]
    fn order_by_key_uses_index_not_sort() {
        let db = simple_db();
        let (mut g, _) = single_table_query(&db, Some(0));
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let plan = p.plan_query().unwrap();
        assert_eq!(plan.count_ops(&is_full_sort), 0);
        assert_eq!(
            plan.count_ops(&|n| matches!(n, PlanNode::IndexScan { .. })),
            1
        );
        assert!(p.stats.sorts_avoided > 0);
    }

    #[test]
    fn order_by_desc_uses_reverse_index_scan() {
        let db = simple_db();
        let (mut g, cols) = single_table_query(&db, None);
        let root = g.root;
        g.boxed_mut(root).output_order =
            Some(OrderSpec::new(vec![fto_order::SortKey::desc(cols[0])]));
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let plan = p.plan_query().unwrap();
        assert_eq!(plan.count_ops(&is_full_sort), 0);
        assert_eq!(
            plan.count_ops(&|n| matches!(n, PlanNode::IndexScan { reverse: true, .. })),
            1,
            "{}",
            plan.explain(&|c| c.to_string())
        );
    }

    #[test]
    fn order_by_unindexed_column_sorts_minimally() {
        let db = simple_db();
        let (mut g, cols) = single_table_query(&db, None);
        // ORDER BY s, k with s = 'x' applied: the requirement reduces to
        // (k), so whichever plan wins, any sort it contains uses the
        // minimal single column (paper §4.2) — never both.
        let root = g.root;
        g.boxed_mut(root).output_order = Some(OrderSpec::ascending([cols[2], cols[0]]));
        let p0 = g.add_predicate(Predicate::col_eq_const(cols[2], Value::str("x")));
        g.boxed_mut(root).predicates.push(p0);
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let plan = p.plan_query().unwrap();
        assert!(plan.count_ops(&is_full_sort) <= 1);
        if let Some(len) = find_sort_len(&plan) {
            assert_eq!(len, 1, "{}", plan.explain(&|c| c.to_string()));
        }
    }

    #[test]
    fn disabled_mode_sorts_verbatim() {
        let db = simple_db();
        let (mut g, cols) = single_table_query(&db, None);
        let root = g.root;
        g.boxed_mut(root).output_order = Some(OrderSpec::ascending([cols[2], cols[0]]));
        let p0 = g.add_predicate(Predicate::col_eq_const(cols[2], Value::str("x")));
        g.boxed_mut(root).predicates.push(p0);
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::disabled());
        let plan = p.plan_query().unwrap();
        // Without reduction the optimizer cannot see that (s, k) collapses
        // to (k): it must sort on both columns.
        assert_eq!(plan.count_ops(&is_full_sort), 1);
        let sort_len = find_sort_len(&plan);
        assert_eq!(sort_len, Some(2));
    }

    fn find_sort_len(plan: &Plan) -> Option<usize> {
        if let PlanNode::Sort {
            spec,
            prefix_len: 0,
            limit: None,
            ..
        } = &plan.node
        {
            return Some(spec.len());
        }
        plan.children().iter().find_map(|c| find_sort_len(c))
    }

    #[test]
    fn filter_applies_predicates_to_props() {
        let db = simple_db();
        let (mut g, cols) = single_table_query(&db, None);
        let root = g.root;
        let p0 = g.add_predicate(Predicate::col_eq_const(cols[1], Value::Int(3)));
        g.boxed_mut(root).predicates.push(p0);
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let plan = p.plan_query().unwrap();
        assert!(plan.props.preds.contains(&p0));
        assert!(plan.cost.rows < 200.0);
    }

    #[test]
    fn prune_keeps_pareto_set() {
        let db = simple_db();
        let (mut g, _) = single_table_query(&db, None);
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let plans = p.plan_box(g.root).unwrap();
        // The cheap unordered scan and the ordered index scans coexist.
        assert!(!plans.is_empty());
        for a in &plans {
            for b in &plans {
                if !std::ptr::eq(a, b) {
                    assert!(
                        !(a.cost.total <= b.cost.total && a.props.dominates(&b.props)),
                        "pruning left a dominated plan"
                    );
                }
            }
        }
    }

    /// Single-table query over q3_like_db's lineitem (clustered index on
    /// l_orderkey) ordered by the given column indexes.
    fn lineitem_query(
        db: &fto_storage::Database,
        order_by: &[usize],
    ) -> (QueryGraph, Vec<fto_common::ColId>) {
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        g.add_table_quantifier(b, db.catalog().table_by_name("lineitem").unwrap());
        let cols = g.boxed(b).quantifiers[0].cols.clone();
        g.boxed_mut(b).output = cols.iter().map(|&c| OutputCol::passthrough(c)).collect();
        g.boxed_mut(b).output_order = Some(OrderSpec::ascending(order_by.iter().map(|&i| cols[i])));
        g.root = b;
        (g, cols)
    }

    /// The first segmented sort in `plan`, if any.
    fn find_segmented(plan: &Plan) -> Option<&Plan> {
        if is_segmented(&plan.node) {
            return Some(plan);
        }
        plan.children().into_iter().find_map(|c| find_segmented(c))
    }

    #[test]
    fn prefix_satisfied_order_uses_segmented_sort() {
        let db = super::tests_support::q3_like_db(200);
        // ORDER BY l_orderkey, l_shipdate: the clustered index supplies
        // (l_orderkey), so only l_shipdate needs sorting, within each
        // orderkey group.
        let (mut g, _) = lineitem_query(&db, &[0, 3]);
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let plan = p.plan_query().unwrap();
        assert_eq!(
            plan.count_ops(&is_segmented),
            1,
            "{}",
            plan.explain(&|c| c.to_string())
        );
        assert_eq!(plan.count_ops(&is_full_sort), 0);
        let seg = find_segmented(&plan).unwrap();
        assert!(matches!(&seg.node, PlanNode::Sort { spec, prefix_len: 1, .. } if spec.len() == 2));
        assert!(p.stats.partial_sorts > 0);
        // A segmented sort still counts as an added sort enforcer.
        assert!(p.stats.sorts_added >= p.stats.partial_sorts);
    }

    #[test]
    fn segmented_sort_beats_full_sort_on_cost() {
        let db = super::tests_support::q3_like_db(200);
        let (mut g, _) = lineitem_query(&db, &[0, 3]);
        OrderScan::run(&mut g, db.catalog());
        let plan = Planner::new(&g, db.catalog(), OptimizerConfig::default())
            .plan_query()
            .unwrap();
        let seg = find_segmented(&plan).expect("a segmented sort");
        // The full sort the same input would need instead.
        let full = enforcer_cost(seg.children()[0], 0, 1.0, None);
        assert!(
            seg.cost.total < full.total,
            "segmented {} !< full {}",
            seg.cost.total,
            full.total
        );
    }

    #[test]
    fn segmented_sort_not_used_when_order_fully_satisfied() {
        let db = super::tests_support::q3_like_db(50);
        let (mut g, _) = lineitem_query(&db, &[0]);
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let plan = p.plan_query().unwrap();
        assert_eq!(plan.count_ops(&|n| matches!(n, PlanNode::Sort { .. })), 0);
        assert!(p.stats.sorts_avoided > 0);
        assert_eq!(p.stats.partial_sorts, 0);
    }

    #[test]
    fn segmented_sort_respects_disabled_modes() {
        let db = super::tests_support::q3_like_db(50);
        let (mut g, _) = lineitem_query(&db, &[0, 3]);
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::disabled());
        let plan = p.plan_query().unwrap();
        assert_eq!(plan.count_ops(&is_segmented), 0);
        assert_eq!(plan.count_ops(&is_full_sort), 1);
        assert_eq!(p.stats.partial_sorts, 0);
    }

    #[test]
    fn limit_over_segmented_sort_prices_early_exit() {
        let db = super::tests_support::q3_like_db(200);
        let (mut g, _) = lineitem_query(&db, &[0, 3]);
        let root = g.root;
        g.boxed_mut(root).limit = Some(10);
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let limited = p.plan_query().unwrap();

        let (mut g2, _) = lineitem_query(&db, &[0, 3]);
        OrderScan::run(&mut g2, db.catalog());
        let mut p2 = Planner::new(&g2, db.catalog(), OptimizerConfig::default());
        let unlimited = p2.plan_query().unwrap();

        // The limited plan keeps the segmented sort (under a Limit) and is
        // priced cheaper than running the segmentation to completion.
        assert_eq!(
            limited.count_ops(&is_segmented),
            1,
            "{}",
            limited.explain(&|c| c.to_string())
        );
        assert!(limited.cost.total < unlimited.cost.total);
    }

    #[test]
    fn sort_ahead_builds_the_cheapest_of_the_sorts_it_prices() {
        let db = super::tests_support::q3_like_db(200);
        let (mut g, cols) = lineitem_query(&db, &[0, 3]);
        let late = g.add_predicate(Predicate::new(
            fto_expr::CompareOp::Gt,
            Expr::col(cols[3]),
            Expr::Lit(Value::Date(30)),
        ));
        OrderScan::run(&mut g, db.catalog());
        // (l_orderkey, l_shipdate) is a segmented sort over the clustered
        // index; the other two are full sorts of every candidate.
        let root = g.root;
        g.boxed_mut(root).interesting = vec![
            OrderSpec::ascending([cols[0], cols[3]]),
            OrderSpec::ascending([cols[3]]),
            OrderSpec::ascending([cols[2], cols[1]]),
        ];
        let qbox = g.boxed(root);
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let mut plans = p.plan_input(qbox, &qbox.quantifiers[0]).unwrap();
        let filtered: Vec<_> = plans
            .iter()
            .map(|plan| p.apply_filter(Arc::clone(plan), &[late]))
            .collect();
        plans.extend(filtered);
        assert!(plans.len() >= 3, "{} candidates", plans.len());

        // Each (interest, candidate) sort, priced and then built: the two
        // totals agree bit for bit, and the first cheapest is the one
        // sort-ahead should build.
        let mut cheapest = Vec::new();
        let mut segmented = 0;
        for interest in &qbox.interesting {
            let mut built: Vec<Arc<Plan>> = Vec::new();
            for plan in &plans {
                let ctx = p.effective_ctx(&plan.props);
                let (homog, _) = ctx.homogenize_prefix(interest, &plan.props.cols);
                if homog.is_empty() || ctx.test_order(&homog, &plan.props.order) {
                    continue;
                }
                let priced = p.sort_shape(plan, &homog).unwrap().price(plan);
                let sorted = p.add_sort(Arc::clone(plan), &homog);
                assert_eq!(priced.total.to_bits(), sorted.cost.total.to_bits());
                segmented += usize::from(is_segmented(&sorted.node));
                built.push(sorted);
            }
            assert!(built.len() >= 2, "{interest}: {} sorts", built.len());
            cheapest.extend(built.into_iter().reduce(|a, b| {
                if b.cost.total < a.cost.total {
                    b
                } else {
                    a
                }
            }));
        }
        assert!(segmented > 0);

        let before = p.stats;
        let variants = p.sort_ahead(qbox, &plans);
        assert_eq!(variants.len(), qbox.interesting.len());
        for (variant, want) in variants.iter().zip(&cheapest) {
            assert_eq!(variant.cost.total.to_bits(), want.cost.total.to_bits());
            assert!(Arc::ptr_eq(variant.children()[0], want.children()[0]));
            assert_eq!(variant.props.order, want.props.order);
        }
        assert_eq!(p.stats.sort_ahead_variants - before.sort_ahead_variants, 3);
        assert_eq!(p.stats.sorts_added - before.sorts_added, 3);
    }

    /// A candidate for pruning tests: a scan of `cols` ordered on
    /// `order`, costing `cost` for 100 rows, whose own facts hold only
    /// `key` (when given) — none of the query's predicates.
    fn candidate(cols: &[ColId], key: Option<ColId>, order: &[ColId], cost: f64) -> Arc<Plan> {
        let keys = key.map(ColSet::singleton).into_iter().collect();
        let props = StreamProps::base_table(cols.iter().copied().collect(), keys)
            .with_order(OrderSpec::ascending(order.iter().copied()));
        Arc::new(Plan {
            node: PlanNode::TableScan {
                table: fto_common::TableId(0),
                quantifier: fto_common::QuantifierId(0),
            },
            layout: RowLayout::new(cols.to_vec()),
            props,
            cost: Cost {
                total: cost,
                rows: 100.0,
            },
        })
    }

    /// The costs of the candidates `prune` keeps, planning `g`.
    fn kept(g: &QueryGraph, db: &fto_storage::Database, plans: Vec<Arc<Plan>>) -> Vec<f64> {
        let mut p = Planner::new(g, db.catalog(), OptimizerConfig::default());
        let kept = p.prune(plans);
        kept.iter().map(|k| k.cost.total).collect()
    }

    /// customer and orders joined on `c_custkey = o_custkey`, outputting
    /// `c_mktsegment`, order-scanned: the box and the two tables' columns.
    fn customer_orders(
        db: &fto_storage::Database,
        distinct: bool,
    ) -> (QueryGraph, Vec<ColId>, Vec<ColId>) {
        let cat = db.catalog();
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        g.add_table_quantifier(b, cat.table_by_name("customer").unwrap());
        g.add_table_quantifier(b, cat.table_by_name("orders").unwrap());
        let c = g.boxed(b).quantifiers[0].cols.clone();
        let o = g.boxed(b).quantifiers[1].cols.clone();
        let pid = g.add_predicate(Predicate::col_eq_col(c[0], o[1]));
        g.boxed_mut(b).predicates.push(pid);
        g.boxed_mut(b).output = vec![OutputCol::passthrough(c[1])];
        g.boxed_mut(b).distinct = distinct;
        g.root = b;
        OrderScan::run(&mut g, db.catalog());
        (g, c, o)
    }

    #[test]
    fn an_order_counts_up_to_its_last_useful_key() {
        // ORDER BY v: (v, s) compares as (v), so the (v)-ordered plan
        // prunes it; the cheaper unordered plan stays beside both.
        let db = simple_db();
        let (mut g, cols) = single_table_query(&db, Some(1));
        OrderScan::run(&mut g, db.catalog());
        let (k, v, s) = (cols[0], cols[1], cols[2]);
        let plans = vec![
            candidate(&cols, Some(k), &[], 5.0),
            candidate(&cols, Some(k), &[v], 10.0),
            candidate(&cols, Some(k), &[v, s], 12.0),
        ];
        assert_eq!(kept(&g, &db, plans), [5.0, 10.0]);
    }

    #[test]
    fn an_order_a_later_join_equates_to_an_interest_survives() {
        // The only interest is on c_custkey. An orders plan ordered on
        // o_custkey serves it once the join applies c_custkey =
        // o_custkey — a fact its own context does not hold yet.
        let db = super::tests_support::q3_like_db(50);
        let (mut g, c, o) = customer_orders(&db, false);
        let root = g.root;
        g.boxed_mut(root).interesting = vec![OrderSpec::ascending([c[0]])];
        let plans = vec![
            candidate(&o, Some(o[0]), &[], 5.0),
            candidate(&o, Some(o[0]), &[o[1]], 8.0),
        ];
        assert_eq!(kept(&g, &db, plans), [5.0, 8.0]);
    }

    #[test]
    fn a_key_the_query_determines_from_the_keys_before_it_is_kept() {
        // ORDER BY k, v, and k → s holds in the query (k is t's key) but
        // not yet in these plans' facts: (k, s, v) still serves (k, v)
        // once it does, so the (k)-ordered plan does not prune it.
        let db = simple_db();
        let (mut g, cols) = single_table_query(&db, None);
        let (k, v, s) = (cols[0], cols[1], cols[2]);
        let root = g.root;
        g.boxed_mut(root).output_order = Some(OrderSpec::ascending([k, v]));
        OrderScan::run(&mut g, db.catalog());
        let plans = vec![
            candidate(&cols, None, &[k], 10.0),
            candidate(&cols, None, &[k, s, v], 12.0),
        ];
        assert_eq!(kept(&g, &db, plans), [10.0, 12.0]);
    }

    #[test]
    fn a_constant_bound_leading_key_is_skipped_not_cut() {
        // ORDER BY v where s = 'x': (s, v) serves (v) once the predicate
        // is applied, so it is not cut to nothing before then.
        let db = simple_db();
        let (mut g, cols) = single_table_query(&db, Some(1));
        let (k, v, s) = (cols[0], cols[1], cols[2]);
        let root = g.root;
        let pid = g.add_predicate(Predicate::col_eq_const(s, Value::str("x")));
        g.boxed_mut(root).predicates.push(pid);
        OrderScan::run(&mut g, db.catalog());
        let plans = vec![
            candidate(&cols, Some(k), &[], 5.0),
            candidate(&cols, Some(k), &[s, v], 12.0),
        ];
        assert_eq!(kept(&g, &db, plans), [5.0, 12.0]);
    }

    #[test]
    fn a_distinct_box_keeps_an_order_on_its_join_columns() {
        // The DISTINCT's grouping order replaced the box's merge-join
        // interests, but a merge join or an ordered index nested loop can
        // still use an orders plan ordered on o_custkey.
        let db = super::tests_support::q3_like_db(50);
        let (g, c, o) = customer_orders(&db, true);
        let interesting = &g.boxed(g.root).interesting;
        assert_eq!(interesting, &[OrderSpec::ascending([c[1]])]);
        let plans = vec![
            candidate(&o, Some(o[0]), &[], 5.0),
            candidate(&o, Some(o[0]), &[o[1]], 8.0),
        ];
        assert_eq!(kept(&g, &db, plans), [5.0, 8.0]);
    }

    #[test]
    fn a_key_alone_keeps_no_dearer_plan() {
        // Dominance compares orders and predicates: a key counts only
        // through the dependency it states, which decides nothing between
        // two unordered plans.
        let db = simple_db();
        let (mut g, cols) = single_table_query(&db, None);
        OrderScan::run(&mut g, db.catalog());
        let plans = vec![
            candidate(&cols, None, &[], 5.0),
            candidate(&cols, Some(cols[0]), &[], 8.0),
        ];
        assert_eq!(kept(&g, &db, plans), [5.0]);
    }

    #[test]
    fn a_cut_order_never_lets_a_larger_plan_prune_a_smaller_one() {
        // (v, s) counts as (v) only against a plan that yields no more
        // rows: estimates for one subset can differ by join order, and
        // everything above a plan pays per row.
        let db = simple_db();
        let (mut g, cols) = single_table_query(&db, Some(1));
        OrderScan::run(&mut g, db.catalog());
        let (k, v, s) = (cols[0], cols[1], cols[2]);
        let mut larger = Arc::unwrap_or_clone(candidate(&cols, Some(k), &[v], 10.0));
        larger.cost.rows = 150.0;
        let plans = vec![Arc::new(larger), candidate(&cols, Some(k), &[v, s], 12.0)];
        assert_eq!(kept(&g, &db, plans), [10.0, 12.0]);
    }

    #[test]
    fn distinct_prefers_order_when_available() {
        let db = simple_db();
        // select distinct k from t order by nothing: k is the key, so the
        // stream is already duplicate-free; both grouping methods exist
        // but the order-based one over the index needs no sort.
        let mut g = QueryGraph::new();
        let b = g.add_box(BoxKind::Select);
        g.add_table_quantifier(b, db.catalog().table_by_name("t").unwrap());
        let cols = g.boxed(b).quantifiers[0].cols.clone();
        g.boxed_mut(b).output = vec![OutputCol::passthrough(cols[1])];
        g.boxed_mut(b).distinct = true;
        g.root = b;
        OrderScan::run(&mut g, db.catalog());
        let mut p = Planner::new(&g, db.catalog(), OptimizerConfig::default());
        let plan = p.plan_query().unwrap();
        // Either a hash grouping on the cheap scan or an order-based one on
        // the v-index; both avoid an explicit sort.
        assert_eq!(plan.count_ops(&is_full_sort), 0);
    }
}
