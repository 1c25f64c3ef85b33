//! Optimizer configuration and planning statistics.

/// Tunable knobs of the optimizer and the execution engine.
///
/// The defaults model the paper's "production DB2". Setting
/// [`order_optimization`](OptimizerConfig::order_optimization) to `false`
/// reproduces the disabled build used for Table 1: reduction, covering,
/// homogenization, sort-ahead and segmented sorts all stop; order
/// properties only satisfy requirements by verbatim column-prefix match.
///
/// The struct is `#[non_exhaustive]`: construct it through
/// [`Default`], the named presets ([`disabled`](OptimizerConfig::disabled),
/// [`db2_1996`](OptimizerConfig::db2_1996), ...), and the fluent
/// `with_*` builder methods, so future knobs are not breaking changes:
///
/// ```
/// use fto_planner::OptimizerConfig;
/// let cfg = OptimizerConfig::default()
///     .with_hash_join(false)
///     .with_batch_size(512);
/// assert!(!cfg.enable_hash_join);
/// assert_eq!(cfg.batch_size, 512);
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct OptimizerConfig {
    /// Master switch for the paper's techniques, segmented (partial)
    /// sorts included: a `Sort` whose input already satisfies a prefix
    /// of the requirement sorts only the residual suffix within each
    /// prefix group, priced as Σ over groups of sort(group).
    pub order_optimization: bool,
    /// Allow sort-ahead (pushing sorts below joins), for every one of a
    /// box's interesting orders. Meaningful only when `order_optimization`
    /// is on; exposed separately for the ablation benches.
    pub sort_ahead: bool,
    /// Consider merge joins.
    pub enable_merge_join: bool,
    /// Consider hash joins.
    pub enable_hash_join: bool,
    /// Consider hash-based GROUP BY / DISTINCT.
    pub enable_hash_grouping: bool,
    /// Consider (index) nested-loop joins.
    pub enable_nested_loop: bool,
    /// Rows per batch in the streaming executor. Operators pull and
    /// produce batches of (at most) this many rows.
    pub batch_size: usize,
    /// Degree of intra-query parallelism in the streaming executor.
    /// `1` (the default) runs every operator on the calling thread;
    /// `p > 1` lets lowering insert gathers that fan pipeline segments out
    /// over `p` workers — unless a `memory_budget` is set, which runs
    /// serial.
    pub threads: usize,
    /// Per-query memory budget in bytes for the streaming executor, or
    /// `None` (the default) for unbounded in-memory execution. When set,
    /// pipeline breakers (sort, Top-N, hash group-by — DISTINCT included —
    /// and the join build) bound their working set to this many bytes and
    /// spill overflow to page-charged spill files. Results are
    /// bit-identical to unbounded execution at any budget, and so is every
    /// page charge but the spill traffic.
    pub memory_budget: Option<usize>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            order_optimization: true,
            sort_ahead: true,
            enable_merge_join: true,
            enable_hash_join: true,
            enable_hash_grouping: true,
            enable_nested_loop: true,
            batch_size: 1024,
            threads: 1,
            memory_budget: None,
        }
    }
}

impl OptimizerConfig {
    /// The default configuration (alias of [`Default::default`], handy as
    /// the head of a builder chain).
    pub fn new() -> Self {
        OptimizerConfig::default()
    }

    /// The paper's "order optimization disabled" baseline.
    pub fn disabled() -> Self {
        OptimizerConfig::default().with_order_optimization(false)
    }

    /// The 1996 DB2/CS operator inventory: order-based joins and grouping
    /// only (DB2 Common Server shipped neither hash join nor hash
    /// group-by at the time — the paper's Figures 7 and 8 use sorts,
    /// merge joins, and nested loops exclusively). Used by the Table 1
    /// reproduction so the enabled/disabled comparison isolates order
    /// *reasoning*, as the paper's experiment did.
    pub fn db2_1996() -> Self {
        OptimizerConfig::default()
            .with_hash_join(false)
            .with_hash_grouping(false)
    }

    /// [`OptimizerConfig::db2_1996`] with order optimization disabled —
    /// the exact build the paper benchmarked against in Table 1.
    pub fn db2_1996_disabled() -> Self {
        OptimizerConfig::db2_1996().with_order_optimization(false)
    }

    /// Sets the master order-optimization switch.
    pub fn with_order_optimization(mut self, on: bool) -> Self {
        self.order_optimization = on;
        self
    }

    /// Enables or disables sort-ahead.
    pub fn with_sort_ahead(mut self, on: bool) -> Self {
        self.sort_ahead = on;
        self
    }

    /// Enables or disables merge joins.
    pub fn with_merge_join(mut self, on: bool) -> Self {
        self.enable_merge_join = on;
        self
    }

    /// Enables or disables hash joins.
    pub fn with_hash_join(mut self, on: bool) -> Self {
        self.enable_hash_join = on;
        self
    }

    /// Enables or disables hash-based GROUP BY / DISTINCT.
    pub fn with_hash_grouping(mut self, on: bool) -> Self {
        self.enable_hash_grouping = on;
        self
    }

    /// Enables or disables (index) nested-loop joins.
    pub fn with_nested_loop(mut self, on: bool) -> Self {
        self.enable_nested_loop = on;
        self
    }

    /// Sets the streaming executor's batch size (rows per batch, ≥ 1).
    pub fn with_batch_size(mut self, rows: usize) -> Self {
        self.batch_size = rows.max(1);
        self
    }

    /// Sets the streaming executor's degree of parallelism (≥ 1).
    /// `1` disables exchange insertion entirely.
    pub fn with_threads(mut self, p: usize) -> Self {
        self.threads = p.max(1);
        self
    }

    /// Sets the per-query executor memory budget in bytes (clamped to at
    /// least 1 — a zero budget means "spill everything", not
    /// "unbounded"). See [`OptimizerConfig::memory_budget`].
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes.max(1));
        self
    }
}

/// Counters describing how much work the planner did; used by the
/// §5.2 join-enumeration complexity experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Join pairs considered: one per (outer plan, inner access path)
    /// pair joined, whatever number of join methods that pair makes.
    pub joins_considered: u64,
    /// Subplans generated (before pruning).
    pub plans_generated: u64,
    /// Subplans discarded by dominance + cost pruning.
    pub plans_pruned: u64,
    /// Sorts added to plans.
    pub sorts_added: u64,
    /// Sorts avoided because an order property satisfied the requirement.
    pub sorts_avoided: u64,
    /// Sorts downgraded to segmented (partial) sorts because an order
    /// property satisfied a strict prefix of the requirement. Counted in
    /// addition to `sorts_added` (a segmented sort is still a sort
    /// enforcer).
    pub partial_sorts: u64,
    /// Sort-ahead variants generated: plans sorted early for one of a
    /// box's interesting orders.
    pub sort_ahead_variants: u64,
    /// Query-graph boxes planned.
    pub boxes_planned: u64,
    /// Order contexts built from stream facts by
    /// [`Planner::plan_query`](crate::Planner::plan_query): one per
    /// distinct set of facts, so orders of magnitude below
    /// `plans_generated`. Decisions do not depend on it; it is how a test
    /// tells that contexts are shared rather than rebuilt per comparison.
    pub contexts_built: u64,
    /// Reductions those contexts answered from their memo.
    pub reduce_memo_hits: u64,
}

impl std::fmt::Display for PlannerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "joins considered={} | plans generated={} pruned={} | \
             sorts added={} avoided={} segmented={} | \
             contexts built={} reduce memo hits={}",
            self.joins_considered,
            self.plans_generated,
            self.plans_pruned,
            self.sorts_added,
            self.sorts_avoided,
            self.partial_sorts,
            self.contexts_built,
            self.reduce_memo_hits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_everything() {
        let c = OptimizerConfig::default();
        assert!(c.order_optimization);
        assert!(c.sort_ahead);
        assert!(c.enable_merge_join && c.enable_hash_join && c.enable_nested_loop);
        assert_eq!(c.batch_size, 1024);
        assert_eq!(c.threads, 1);
        assert_eq!(c.memory_budget, None);
    }

    #[test]
    fn memory_budget_builder_clamps_to_one() {
        let c = OptimizerConfig::new().with_memory_budget(0);
        assert_eq!(c.memory_budget, Some(1));
        let c = OptimizerConfig::new().with_memory_budget(64 << 10);
        assert_eq!(c.memory_budget, Some(64 << 10));
    }

    #[test]
    fn disabled_turns_off_order_machinery_only() {
        let c = OptimizerConfig::disabled();
        assert!(!c.order_optimization);
        // The master switch alone stops sort-ahead and segmented sorts.
        assert!(c.sort_ahead);
        assert!(c.enable_merge_join);
    }

    #[test]
    fn builder_chains() {
        let c = OptimizerConfig::new()
            .with_merge_join(false)
            .with_nested_loop(false)
            .with_batch_size(0)
            .with_threads(0);
        assert!(!c.enable_merge_join);
        assert!(!c.enable_nested_loop);
        // Batch size and parallel degree are clamped to at least one.
        assert_eq!(c.batch_size, 1);
        assert_eq!(c.threads, 1);
    }
}
