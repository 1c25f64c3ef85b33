//! The physical plan (QEP) representation and its renderer.
//!
//! A QEP is a dataflow tree of operators (paper §3). Each [`Plan`] wraps a
//! [`PlanNode`] with the stream's layout, its data properties, and its
//! estimated cost; the execution engine interprets the node tree.

use fto_common::{ColId, IndexId, QuantifierId, TableId, Value};
use fto_expr::{AggCall, Expr, PredId, RowLayout};
use fto_order::{OrderSpec, StreamProps};
use std::fmt::Write as _;
use std::sync::Arc;

use crate::cost::Cost;

/// Simulated page size as f64 (bytes) for spill arithmetic.
pub const SIM_PAGE_BYTES: f64 = 4096.0;

/// A key range restriction on the leading column of an index scan.
/// Bounds are inclusive; the residual predicate re-checks exact
/// open/closed semantics, so the range only needs to be *sound*.
#[derive(Clone, Debug, PartialEq)]
pub struct ScanRange {
    /// Inclusive lower bound on the leading index column.
    pub lo: Option<Value>,
    /// Inclusive upper bound on the leading index column.
    pub hi: Option<Value>,
}

/// A physical plan operator.
#[derive(Clone, Debug)]
pub enum PlanNode {
    /// Sequential scan of a base table.
    TableScan {
        /// The table.
        table: TableId,
        /// The quantifier whose columns the scan produces.
        quantifier: QuantifierId,
    },
    /// Ordered scan through an index, fetching full rows.
    IndexScan {
        /// The index providing the order.
        index: IndexId,
        /// The indexed table.
        table: TableId,
        /// The quantifier whose columns the scan produces.
        quantifier: QuantifierId,
        /// Optional range restriction on the leading key column.
        range: Option<ScanRange>,
        /// Scan the index backwards, providing the reversed order (an
        /// ascending index satisfies a descending requirement for free).
        reverse: bool,
    },
    /// Filter rows by conjunctive predicates.
    Filter {
        /// Input plan.
        input: Arc<Plan>,
        /// Predicate ids (resolved against the query's predicate list).
        predicates: Vec<PredId>,
    },
    /// Compute an output row layout from expressions.
    Project {
        /// Input plan.
        input: Arc<Plan>,
        /// (output column, defining expression) pairs, in output order.
        exprs: Vec<(ColId, Expr)>,
    },
    /// Sort the input.
    Sort {
        /// Input plan.
        input: Arc<Plan>,
        /// Sort specification (already reduced to minimal columns).
        spec: OrderSpec,
    },
    /// Segmented (partial) sort: the input already satisfies the first
    /// `prefix_len` keys of `spec`, so rows arrive grouped contiguously
    /// by those prefix columns and only the residual suffix is sorted,
    /// one prefix group at a time — streaming, with a bounded working
    /// set of one group. Output is identical to a full stable sort on
    /// `spec`.
    SegmentedSort {
        /// Input plan, ordered on the spec's first `prefix_len` keys.
        input: Arc<Plan>,
        /// Full sort specification (already reduced to minimal columns).
        spec: OrderSpec,
        /// How many leading keys of `spec` the input's order property
        /// satisfies (`1 ≤ prefix_len < spec.len()`).
        prefix_len: usize,
        /// The planner's estimate of how many prefix groups the input
        /// forms — the quantity that justified choosing a segmented sort
        /// over a full sort. Carried so the executor can report it next
        /// to the actual group count (Q-error feedback).
        est_groups: u64,
    },
    /// Tuple-at-a-time nested-loop join (inner rescanned per outer row).
    NestedLoopJoin {
        /// Outer (driving) input.
        outer: Arc<Plan>,
        /// Inner input, re-evaluated per outer row.
        inner: Arc<Plan>,
        /// Join predicates evaluated on the concatenated row.
        predicates: Vec<PredId>,
    },
    /// Nested-loop join driving index probes into a base table; the
    /// paper's *ordered nested-loop join* when the outer is sorted on the
    /// probe columns and the index is clustered.
    IndexNestedLoopJoin {
        /// Outer (driving) input.
        outer: Arc<Plan>,
        /// Inner table.
        table: TableId,
        /// Quantifier for the inner table's columns.
        quantifier: QuantifierId,
        /// Index probed per outer row.
        index: IndexId,
        /// Outer columns supplying the probe key, aligned with the
        /// index's leading key parts.
        probe_cols: Vec<ColId>,
        /// Residual predicates on the concatenated row.
        predicates: Vec<PredId>,
    },
    /// Merge join of two streams sorted on the join keys.
    MergeJoin {
        /// Left input, sorted on `outer_keys`.
        outer: Arc<Plan>,
        /// Right input, sorted on `inner_keys`.
        inner: Arc<Plan>,
        /// Left join key columns.
        outer_keys: Vec<ColId>,
        /// Right join key columns.
        inner_keys: Vec<ColId>,
        /// Residual predicates on the concatenated row.
        predicates: Vec<PredId>,
    },
    /// Left outer join: every outer row appears, null-padded when no
    /// inner row passes all ON predicates. Executed as a hash join on the
    /// equi keys when present, otherwise as a nested loop; either way the
    /// outer's order is preserved.
    LeftOuterJoin {
        /// Preserved-side input.
        outer: Arc<Plan>,
        /// Null-supplying-side input.
        inner: Arc<Plan>,
        /// Equi-key columns (outer side), possibly empty.
        outer_keys: Vec<ColId>,
        /// Equi-key columns (inner side), aligned with `outer_keys`.
        inner_keys: Vec<ColId>,
        /// The full ON-clause conjunction.
        predicates: Vec<PredId>,
    },
    /// Hash join: build on the inner, probe with the outer. Preserves the
    /// outer's order (single-batch build, streaming probe).
    HashJoin {
        /// Probe-side input.
        outer: Arc<Plan>,
        /// Build-side input.
        inner: Arc<Plan>,
        /// Probe key columns (outer side).
        outer_keys: Vec<ColId>,
        /// Build key columns (inner side).
        inner_keys: Vec<ColId>,
        /// Residual predicates on the concatenated row.
        predicates: Vec<PredId>,
    },
    /// Order-based (streaming) group-by: input must arrive grouped.
    StreamGroupBy {
        /// Input plan (ordered so groups are contiguous).
        input: Arc<Plan>,
        /// Grouping columns.
        grouping: Vec<ColId>,
        /// Aggregate outputs: (result column, call).
        aggs: Vec<(ColId, AggCall)>,
    },
    /// Hash-based group-by.
    HashGroupBy {
        /// Input plan.
        input: Arc<Plan>,
        /// Grouping columns.
        grouping: Vec<ColId>,
        /// Aggregate outputs: (result column, call).
        aggs: Vec<(ColId, AggCall)>,
    },
    /// Duplicate elimination over contiguous duplicates (input ordered).
    StreamDistinct {
        /// Input plan.
        input: Arc<Plan>,
    },
    /// Hash-based duplicate elimination.
    HashDistinct {
        /// Input plan.
        input: Arc<Plan>,
    },
    /// Bag union of inputs with identical layouts.
    UnionAll {
        /// Input plans.
        inputs: Vec<Arc<Plan>>,
    },
    /// Pass through the first `n` rows.
    Limit {
        /// Input plan.
        input: Arc<Plan>,
        /// Row budget.
        n: u64,
    },
    /// Top-N: the first `n` rows under `spec`, computed by selection
    /// rather than a full sort (the classic payoff of fusing ORDER BY
    /// with a row limit).
    TopN {
        /// Input plan.
        input: Arc<Plan>,
        /// The ordering.
        spec: OrderSpec,
        /// Row budget.
        n: u64,
    },
}

/// A plan node together with its stream metadata.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The operator.
    pub node: PlanNode,
    /// Column layout of produced rows.
    pub layout: RowLayout,
    /// Data properties of the stream (order, predicates, keys, FDs).
    pub props: StreamProps,
    /// Estimated cost and cardinality.
    pub cost: Cost,
}

// The parallel executor shares one plan between its worker threads, so
// whatever the shared stream facts hold (the reduce memo included) must
// be `Send + Sync`: a `RefCell` or `Rc` memo fails to compile here.
const _: fn() = || {
    fn ok<T: Send + Sync>() {}
    ok::<Plan>();
};

impl Plan {
    /// The operator name used in EXPLAIN output.
    pub fn op_name(&self) -> &'static str {
        match &self.node {
            PlanNode::TableScan { .. } => "table-scan",
            PlanNode::IndexScan { .. } => "index-scan",
            PlanNode::Filter { .. } => "filter",
            PlanNode::Project { .. } => "project",
            PlanNode::Sort { .. } => "sort",
            PlanNode::SegmentedSort { .. } => "segmented-sort",
            PlanNode::NestedLoopJoin { .. } => "nested-loop-join",
            PlanNode::IndexNestedLoopJoin { .. } => "index-nested-loop-join",
            PlanNode::MergeJoin { .. } => "merge-join",
            PlanNode::LeftOuterJoin { .. } => "left-outer-join",
            PlanNode::HashJoin { .. } => "hash-join",
            PlanNode::StreamGroupBy { .. } => "group-by(stream)",
            PlanNode::HashGroupBy { .. } => "group-by(hash)",
            PlanNode::StreamDistinct { .. } => "distinct(stream)",
            PlanNode::HashDistinct { .. } => "distinct(hash)",
            PlanNode::UnionAll { .. } => "union-all",
            PlanNode::Limit { .. } => "limit",
            PlanNode::TopN { .. } => "top-n",
        }
    }

    /// One-line description used by optimizer trace events: operator,
    /// estimated cost and rows, and the order property — enough to
    /// identify a candidate and see why pruning kept or killed it.
    /// Raw column ids (`c4`) keep the rendering registry-free and
    /// deterministic.
    pub fn trace_desc(&self) -> String {
        format!(
            "{} cost={:.1} rows={:.0} order={}",
            self.op_name(),
            self.cost.total,
            self.cost.rows,
            self.props.order
        )
    }

    /// Child plans, outer/left first.
    pub fn children(&self) -> Vec<&Arc<Plan>> {
        match &self.node {
            PlanNode::TableScan { .. } | PlanNode::IndexScan { .. } => vec![],
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::SegmentedSort { input, .. }
            | PlanNode::StreamGroupBy { input, .. }
            | PlanNode::HashGroupBy { input, .. }
            | PlanNode::StreamDistinct { input }
            | PlanNode::HashDistinct { input }
            | PlanNode::Limit { input, .. }
            | PlanNode::TopN { input, .. } => vec![input],
            PlanNode::NestedLoopJoin { outer, inner, .. }
            | PlanNode::MergeJoin { outer, inner, .. }
            | PlanNode::LeftOuterJoin { outer, inner, .. }
            | PlanNode::HashJoin { outer, inner, .. } => vec![outer, inner],
            PlanNode::IndexNestedLoopJoin { outer, .. } => vec![outer],
            PlanNode::UnionAll { inputs } => inputs.iter().collect(),
        }
    }

    /// Renders the plan as an indented tree, resolving column names with
    /// `name` (pass `|c| c.to_string()` when no registry is at hand).
    pub fn explain(&self, name: &dyn Fn(ColId) -> String) -> String {
        self.explain_annotated(name, &|_, _| String::new())
    }

    /// [`Plan::explain`] with the paper's data properties annotated under
    /// every operator: the order property, the key property (or the
    /// one-record condition), and the count of applied predicates — the
    /// state the optimizer reasoned over when it picked this plan.
    pub fn explain_properties(&self, name: &dyn Fn(ColId) -> String) -> String {
        self.explain_annotated(name, &|_, node| node.properties_note(name))
    }

    /// [`Plan::explain`] with a caller-supplied annotation appended under
    /// every operator line. `annotate` receives each node's *pre-order*
    /// id (root = 0, children visited in [`Plan::children`] order — i.e.
    /// outer/left first) and the node itself; a non-empty return is
    /// rendered as an indented `· ...` sub-line. The id numbering matches
    /// the executor's instrumentation slots, so per-operator metrics can
    /// be printed next to estimates without any tree matching.
    pub fn explain_annotated(
        &self,
        name: &dyn Fn(ColId) -> String,
        annotate: &dyn Fn(usize, &Plan) -> String,
    ) -> String {
        let mut out = String::new();
        let mut next_id = 0usize;
        self.explain_into(&mut out, 0, name, annotate, &mut next_id);
        out
    }

    fn explain_into(
        &self,
        out: &mut String,
        depth: usize,
        name: &dyn Fn(ColId) -> String,
        annotate: &dyn Fn(usize, &Plan) -> String,
        next_id: &mut usize,
    ) {
        let id = *next_id;
        *next_id += 1;
        let indent = "  ".repeat(depth);
        let detail = self.detail(name);
        let _ = writeln!(
            out,
            "{indent}{}{}{} [rows={:.0} cost={:.1}]",
            self.op_name(),
            if detail.is_empty() { "" } else { " " },
            detail,
            self.cost.rows,
            self.cost.total,
        );
        let note = annotate(id, self);
        if !note.is_empty() {
            let _ = writeln!(out, "{indent}    · {note}");
        }
        for child in self.children() {
            child.explain_into(out, depth + 1, name, annotate, next_id);
        }
    }

    /// The annotation of [`Plan::explain_properties`]: this stream's
    /// order, keys and applied-predicate count.
    fn properties_note(&self, name: &dyn Fn(ColId) -> String) -> String {
        let order = if self.props.order.is_empty() {
            "unordered".to_string()
        } else {
            format!("order: ({})", spec_names(&self.props.order, name))
        };
        let keys = if self.props.keys.is_one_record() {
            "one-record".to_string()
        } else if self.props.keys.is_empty() {
            "no keys".to_string()
        } else {
            let rendered: Vec<String> = self
                .props
                .keys
                .keys()
                .iter()
                .map(|k| {
                    let cols: Vec<String> = k.iter().map(name).collect();
                    format!("{{{}}}", cols.join(", "))
                })
                .collect();
            format!("keys: {}", rendered.join(" "))
        };
        format!(
            "{order} | {keys} | {} preds applied",
            self.props.preds.len()
        )
    }

    fn detail(&self, name: &dyn Fn(ColId) -> String) -> String {
        let cols = |cs: &[ColId]| cs.iter().map(|&c| name(c)).collect::<Vec<_>>().join(", ");
        let spec = |s: &OrderSpec| spec_names(s, name);
        match &self.node {
            PlanNode::TableScan { table, .. } => format!("{table}"),
            PlanNode::IndexScan {
                index,
                table,
                range,
                reverse,
                ..
            } => {
                let mut s = format!("{table} via {index}");
                if *reverse {
                    s.push_str(" reverse");
                }
                if range.is_some() {
                    s.push_str(" (range)");
                }
                s
            }
            PlanNode::Filter { predicates, .. } => format!("{} preds", predicates.len()),
            PlanNode::Project { exprs, .. } => {
                let names: Vec<String> = exprs.iter().map(|(c, _)| name(*c)).collect();
                names.join(", ")
            }
            PlanNode::Sort { spec: s, .. } => format!("({})", spec(s)),
            PlanNode::SegmentedSort {
                spec: s,
                prefix_len,
                ..
            } => {
                // Render the satisfied prefix and the sorted suffix on
                // either side of a bar: `(a | b, c)`.
                let mut pfx = s.clone();
                pfx.truncate(*prefix_len);
                let sfx = OrderSpec::new(s.keys()[*prefix_len..].to_vec());
                format!("({} | {})", spec(&pfx), spec(&sfx))
            }
            PlanNode::NestedLoopJoin { .. } => String::new(),
            PlanNode::IndexNestedLoopJoin {
                table,
                index,
                probe_cols,
                ..
            } => {
                let ordered = !self.props.order.is_empty();
                format!(
                    "{table} via {index} on ({}){}",
                    cols(probe_cols),
                    if ordered { " [ordered]" } else { "" }
                )
            }
            PlanNode::MergeJoin {
                outer_keys,
                inner_keys,
                ..
            } => format!("({}) = ({})", cols(outer_keys), cols(inner_keys)),
            PlanNode::HashJoin {
                outer_keys,
                inner_keys,
                ..
            } => format!("({}) = ({})", cols(outer_keys), cols(inner_keys)),
            PlanNode::LeftOuterJoin {
                outer_keys,
                inner_keys,
                predicates,
                ..
            } => {
                if outer_keys.is_empty() {
                    format!("{} on-preds", predicates.len())
                } else {
                    format!("({}) = ({})", cols(outer_keys), cols(inner_keys))
                }
            }
            PlanNode::StreamGroupBy { grouping, .. } | PlanNode::HashGroupBy { grouping, .. } => {
                format!("({})", cols(grouping))
            }
            PlanNode::StreamDistinct { .. } | PlanNode::HashDistinct { .. } => String::new(),
            PlanNode::UnionAll { inputs } => format!("{} inputs", inputs.len()),
            PlanNode::Limit { n, .. } => format!("{n}"),
            PlanNode::TopN { spec: s2, n, .. } => format!("{n} by ({})", spec(s2)),
        }
    }

    /// This node's estimated cost net of its inputs: `cost.total` minus
    /// the children's `cost.total`, floored at zero. Costs accumulate
    /// bottom-up, so this is the estimate-side analogue of the executor's
    /// per-operator "self" I/O delta and what calibration reports compare
    /// against actual `weighted_page_cost`.
    pub fn self_cost(&self) -> f64 {
        let children: f64 = self.children().iter().map(|c| c.cost.total).sum();
        (self.cost.total - children).max(0.0)
    }

    /// Counts operators of a kind in the tree (used by plan-shape tests,
    /// e.g. "the Figure 7 plan contains exactly one sort below the join").
    pub fn count_ops(&self, pred: &dyn Fn(&PlanNode) -> bool) -> usize {
        let mut n = usize::from(pred(&self.node));
        for c in self.children() {
            n += c.count_ops(pred);
        }
        n
    }
}

/// `a, b desc, c`: the keys of `spec` by resolved column name.
fn spec_names(spec: &OrderSpec, name: &dyn Fn(ColId) -> String) -> String {
    spec.keys()
        .iter()
        .map(|k| {
            let mut n = name(k.col);
            if k.dir == fto_common::Direction::Desc {
                n.push_str(" desc");
            }
            n
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_common::ColSet;
    use fto_order::StreamProps;

    fn leaf() -> Plan {
        Plan {
            node: PlanNode::TableScan {
                table: TableId(0),
                quantifier: QuantifierId(0),
            },
            layout: RowLayout::new(vec![ColId(0), ColId(1)]),
            props: StreamProps::base_table(ColSet::from_cols([ColId(0), ColId(1)]), vec![]),
            cost: Cost {
                total: 10.0,
                rows: 100.0,
            },
        }
    }

    #[test]
    fn explain_renders_tree() {
        let scan = Arc::new(leaf());
        let sort = Plan {
            node: PlanNode::Sort {
                input: scan.clone(),
                spec: OrderSpec::ascending([ColId(1)]),
            },
            layout: scan.layout.clone(),
            props: scan.props.clone(),
            cost: Cost {
                total: 20.0,
                rows: 100.0,
            },
        };
        let text = sort.explain(&|c| format!("col{}", c.0));
        assert!(text.contains("sort (col1)"), "{text}");
        assert!(text.contains("table-scan t0"), "{text}");
        // Child is indented under parent.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("sort"));
        assert!(lines[1].starts_with("  table-scan"));
    }

    #[test]
    fn segmented_sort_renders_prefix_bar_suffix() {
        let scan = Arc::new(leaf());
        let seg = Plan {
            node: PlanNode::SegmentedSort {
                input: scan.clone(),
                spec: OrderSpec::ascending([ColId(0), ColId(1)]),
                prefix_len: 1,
                est_groups: 4,
            },
            layout: scan.layout.clone(),
            props: scan.props.clone(),
            cost: scan.cost,
        };
        let text = seg.explain(&|c| format!("col{}", c.0));
        assert!(text.contains("segmented-sort (col0 | col1)"), "{text}");
        assert_eq!(seg.children().len(), 1);
    }

    #[test]
    fn count_ops() {
        let scan = Arc::new(leaf());
        let sort = Plan {
            node: PlanNode::Sort {
                input: scan.clone(),
                spec: OrderSpec::ascending([ColId(0)]),
            },
            layout: scan.layout.clone(),
            props: scan.props.clone(),
            cost: scan.cost,
        };
        assert_eq!(sort.count_ops(&|n| matches!(n, PlanNode::Sort { .. })), 1);
        assert_eq!(
            sort.count_ops(&|n| matches!(n, PlanNode::TableScan { .. })),
            1
        );
        assert_eq!(
            sort.count_ops(&|n| matches!(n, PlanNode::HashJoin { .. })),
            0
        );
    }

    #[test]
    fn children_shapes() {
        let scan = Arc::new(leaf());
        assert!(scan.children().is_empty());
        let join = Plan {
            node: PlanNode::NestedLoopJoin {
                outer: scan.clone(),
                inner: scan.clone(),
                predicates: vec![],
            },
            layout: RowLayout::new(vec![ColId(0), ColId(1)]),
            props: scan.props.clone(),
            cost: scan.cost,
        };
        assert_eq!(join.children().len(), 2);
        assert_eq!(join.op_name(), "nested-loop-join");
    }
}
