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

/// Simulated page size as f64 (bytes) for spill arithmetic: storage's.
pub const SIM_PAGE_BYTES: f64 = fto_storage::PAGE_SIZE as f64;

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
    /// The order enforcer: sorts the input on `spec`, by the one partial
    /// sort its fields parameterise.
    ///
    /// | `prefix_len` | `limit` | [`Plan::op_name`] | |
    /// |---|---|---|---|
    /// | 0 | `None` | `sort` | full sort |
    /// | k > 0 | `None` | `segmented-sort` | the input already satisfies the first k keys, so rows arrive grouped by them and only the suffix is sorted, group by group — streaming batch by batch (the groups an input batch closes leave together), same output as the full stable sort |
    /// | 0 | `Some(n)` | `top-n` | the first n rows under `spec`, by selection rather than a full sort |
    Sort {
        /// Input plan, ordered on the spec's first `prefix_len` keys.
        input: Arc<Plan>,
        /// Sort specification (already reduced to minimal columns).
        spec: OrderSpec,
        /// How many leading keys of `spec` the input's order property
        /// satisfies (`prefix_len < spec.len()`).
        prefix_len: usize,
        /// The planner's estimate of how many prefix groups the input
        /// forms — the quantity that justified a segmented sort over a
        /// full one (1 without a prefix). Carried so the executor can
        /// report it next to the actual group count (Q-error feedback).
        est_groups: u64,
        /// Row budget fused in from a `LIMIT` directly above.
        limit: Option<u64>,
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
    /// The build–probe join: build on the inner, probe with the outer.
    /// Preserves the outer's order (materialized build, streaming probe).
    /// With a satisfied prefix, both inputs are ordered on the first
    /// `prefix_len` equated pairs, so rows that can join arrive as
    /// matching prefix groups, and each group pair is a build–probe on the
    /// remaining pairs: the paper's merge join (§5.2.1) when the prefix is
    /// every pair.
    ///
    /// | `kind` | keys | `prefix_len` | [`Plan::op_name`] | `predicates` |
    /// |---|---|---|---|---|
    /// | `Inner` | none | 0 | `nested-loop-join` | all of the join's: every outer row pairs with the whole inner |
    /// | `Inner` | the equi-join columns | 0 | `hash-join` | the residuals |
    /// | `Inner` | the equi-join columns | every pair | `merge-join` | the residuals; both inputs are sorted on the keys |
    /// | `LeftOuter` | the ON clause's equi columns, possibly none | 0 | `left-outer-join` | the full ON conjunction; an outer row none of its candidates pass for appears once, null-padded |
    Join {
        /// What happens to an outer row without a match.
        kind: JoinKind,
        /// Probe-side (for `LeftOuter`: preserved-side) input.
        outer: Arc<Plan>,
        /// Build-side (for `LeftOuter`: null-supplying-side) input.
        inner: Arc<Plan>,
        /// Equi-key columns (outer side), possibly empty.
        outer_keys: Vec<ColId>,
        /// Equi-key columns (inner side), aligned with `outer_keys`.
        inner_keys: Vec<ColId>,
        /// Predicates on the concatenated row.
        predicates: Vec<PredId>,
        /// How many leading pairs of `outer_keys`/`inner_keys` both
        /// inputs are ordered on (ascending).
        prefix_len: u32,
    },
    /// Grouping over a satisfied prefix: rows sharing the values of the
    /// first `prefix_len` grouping columns arrive contiguously, and each
    /// such segment groups on the rest — `group-by(stream)` at every
    /// column (a global aggregate included), `group-by(hash)` at none.
    /// DISTINCT is a grouping on every column with no aggregates.
    GroupBy {
        /// Input plan.
        input: Arc<Plan>,
        /// Grouping columns.
        grouping: Vec<ColId>,
        /// Aggregate outputs: (result column, call).
        aggs: Vec<(ColId, AggCall)>,
        /// How many leading `grouping` columns the input's order satisfies.
        prefix_len: u32,
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
}

/// What a [`PlanNode::Join`] does with an outer row no inner row joins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinKind {
    /// Drops it.
    Inner,
    /// Emits it once, with NULLs for the inner's columns.
    LeftOuter,
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

// Join enumeration allocates one node per candidate plan (`j5` makes
// 13 290, shared by `Arc`, never copied), so a fatter node costs planning
// time and memory: 96 bytes before the variants were folded, 96 after.
const _: () = assert!(std::mem::size_of::<PlanNode>() <= 96);

impl Plan {
    /// The operator name used in EXPLAIN output, per-operator metrics and
    /// trace labels. The three folded nodes are named by what their
    /// fields make the executor do.
    pub fn op_name(&self) -> &'static str {
        match &self.node {
            PlanNode::TableScan { .. } => "table-scan",
            PlanNode::IndexScan { .. } => "index-scan",
            PlanNode::Filter { .. } => "filter",
            PlanNode::Project { .. } => "project",
            PlanNode::Sort { limit: Some(_), .. } => "top-n",
            PlanNode::Sort { prefix_len: 0, .. } => "sort",
            PlanNode::Sort { .. } => "segmented-sort",
            PlanNode::IndexNestedLoopJoin { .. } => "index-nested-loop-join",
            PlanNode::Join {
                prefix_len: 1.., ..
            } => "merge-join",
            PlanNode::Join {
                kind, outer_keys, ..
            } => match kind {
                JoinKind::LeftOuter => "left-outer-join",
                JoinKind::Inner if outer_keys.is_empty() => "nested-loop-join",
                JoinKind::Inner => "hash-join",
            },
            PlanNode::GroupBy {
                grouping,
                prefix_len,
                ..
            } if *prefix_len as usize == grouping.len() => "group-by(stream)",
            PlanNode::GroupBy { .. } => "group-by(hash)",
            PlanNode::UnionAll { .. } => "union-all",
            PlanNode::Limit { .. } => "limit",
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
            | PlanNode::GroupBy { input, .. }
            | PlanNode::Limit { input, .. } => vec![input],
            PlanNode::Join { outer, inner, .. } => vec![outer, inner],
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
    /// every operator: the order property and the count of applied
    /// predicates — the state the optimizer reasoned over when it picked
    /// this plan.
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
    /// order and applied-predicate count.
    fn properties_note(&self, name: &dyn Fn(ColId) -> String) -> String {
        let order = if self.props.order.is_empty() {
            "unordered".to_string()
        } else {
            format!("order: ({})", spec_names(&self.props.order, name))
        };
        format!("{order} | {} preds applied", self.props.preds.len())
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
            PlanNode::Sort {
                spec: s,
                limit: Some(n),
                ..
            } => format!("{n} by ({})", spec(s)),
            PlanNode::Sort {
                spec: s,
                prefix_len: 0,
                ..
            } => format!("({})", spec(s)),
            PlanNode::Sort {
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
            PlanNode::Join {
                kind,
                outer_keys,
                inner_keys,
                predicates,
                ..
            } => {
                if !outer_keys.is_empty() {
                    format!("({}) = ({})", cols(outer_keys), cols(inner_keys))
                } else if *kind == JoinKind::LeftOuter {
                    format!("{} on-preds", predicates.len())
                } else {
                    String::new()
                }
            }
            PlanNode::GroupBy { grouping, .. } => format!("({})", cols(grouping)),
            PlanNode::UnionAll { inputs } => format!("{} inputs", inputs.len()),
            PlanNode::Limit { n, .. } => format!("{n}"),
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

    fn sort(input: &Arc<Plan>, cols: &[u32], prefix_len: usize, limit: Option<u64>) -> Plan {
        Plan {
            node: PlanNode::Sort {
                input: input.clone(),
                spec: OrderSpec::ascending(cols.iter().map(|&c| ColId(c))),
                prefix_len,
                est_groups: 4,
                limit,
            },
            layout: input.layout.clone(),
            props: input.props.clone(),
            cost: Cost {
                total: 20.0,
                rows: 100.0,
            },
        }
    }

    fn join(kind: JoinKind, keyed: bool, prefix_len: u32) -> Plan {
        let scan = Arc::new(leaf());
        let keys = if keyed { vec![ColId(0)] } else { vec![] };
        Plan {
            node: PlanNode::Join {
                kind,
                outer: scan.clone(),
                inner: scan.clone(),
                outer_keys: keys.clone(),
                inner_keys: keys,
                predicates: vec![],
                prefix_len,
            },
            layout: RowLayout::new(vec![ColId(0), ColId(1)]),
            props: scan.props.clone(),
            cost: scan.cost,
        }
    }

    #[test]
    fn explain_renders_tree() {
        let text = sort(&Arc::new(leaf()), &[1], 0, None).explain(&|c| format!("col{}", c.0));
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
        let name = |c: ColId| format!("col{}", c.0);
        let seg = sort(&scan, &[0, 1], 1, None);
        assert_eq!(seg.op_name(), "segmented-sort");
        let text = seg.explain(&name);
        assert!(text.contains("segmented-sort (col0 | col1)"), "{text}");
        assert_eq!(seg.children().len(), 1);
        let top = sort(&scan, &[1], 0, Some(5));
        assert_eq!(top.op_name(), "top-n");
        assert!(top.explain(&name).contains("top-n 5 by (col1)"));
    }

    #[test]
    fn children_shapes() {
        let name = |c: ColId| format!("col{}", c.0);
        for (kind, keyed, prefix_len, op, detail) in [
            (
                JoinKind::Inner,
                false,
                0,
                "nested-loop-join",
                "nested-loop-join [",
            ),
            (
                JoinKind::Inner,
                true,
                0,
                "hash-join",
                "hash-join (col0) = (col0) [",
            ),
            (
                JoinKind::Inner,
                true,
                1,
                "merge-join",
                "merge-join (col0) = (col0) [",
            ),
            (
                JoinKind::LeftOuter,
                true,
                0,
                "left-outer-join",
                "left-outer-join (col0) = (col0) [",
            ),
            (
                JoinKind::LeftOuter,
                false,
                0,
                "left-outer-join",
                "left-outer-join 0 on-preds [",
            ),
        ] {
            let plan = join(kind, keyed, prefix_len);
            assert_eq!(plan.op_name(), op);
            assert!(
                plan.explain(&name).starts_with(detail),
                "{}",
                plan.explain(&name)
            );
            assert_eq!(plan.children().len(), 2);
        }
    }

    #[test]
    fn group_by_is_named_by_its_satisfied_prefix() {
        // Streaming when the input satisfies every grouping column — the
        // empty grouping of a global aggregate included — hashing
        // otherwise.
        let scan = Arc::new(leaf());
        for (grouping, prefix_len, op) in [
            (vec![0, 1], 2, "group-by(stream)"),
            (vec![0, 1], 1, "group-by(hash)"),
            (vec![0, 1], 0, "group-by(hash)"),
            (vec![], 0, "group-by(stream)"),
        ] {
            let node = PlanNode::GroupBy {
                input: scan.clone(),
                grouping: grouping.into_iter().map(ColId).collect(),
                aggs: vec![],
                prefix_len,
            };
            let plan = Plan { node, ..leaf() };
            assert_eq!(plan.op_name(), op, "prefix_len={prefix_len}");
        }
    }

    #[test]
    fn count_ops() {
        let sort = sort(&Arc::new(leaf()), &[0], 0, None);
        assert_eq!(sort.count_ops(&|n| matches!(n, PlanNode::Sort { .. })), 1);
        assert_eq!(
            sort.count_ops(&|n| matches!(n, PlanNode::TableScan { .. })),
            1
        );
        assert_eq!(sort.count_ops(&|n| matches!(n, PlanNode::Join { .. })), 0);
        assert!(Arc::new(leaf()).children().is_empty());
    }
}
