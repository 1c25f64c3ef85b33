//! [`Session`]: the public entry point for compiling and executing SQL.
//!
//! A session borrows a loaded [`Database`] and carries an
//! [`OptimizerConfig`]; queries flow parse → bind → rewrite → order scan →
//! cost-based planning → streaming execution:
//!
//! ```no_run
//! use fto_exec::prelude::*;
//! # fn demo(db: &fto_storage::Database) -> fto_common::Result<()> {
//! let out = Session::new(db)
//!     .config(OptimizerConfig::default().with_batch_size(512))
//!     .plan("select k, v from t order by k")?
//!     .execute()?;
//! println!("{} rows, {}", out.num_rows(), out.io);
//! # Ok(()) }
//! ```

use crate::interp::run_plan_materialized;
use crate::metrics::{ExecRecord, PlanMetrics};
use crate::obs::Observability;
use crate::sortkernel::{SegmentStats, SortStats, SpillStats};
use crate::stream::{drive, layout_types, plan_metrics, Batch, ExecContext};
use fto_common::{Result, Row};
use fto_obs::{ExecutionProfile, Timeline, Trace};
use fto_order::ContextWork;
use fto_planner::{OptimizerConfig, Plan, Planner, PlannerStats};
use fto_qgm::{rewrite, OrderScan, QueryGraph};
use fto_sql::{bind, parse_query, parse_statement, ExplainMode, Statement};
use fto_storage::{Database, IoStats};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Everything a query execution produced: the output (columnar batches,
/// with rows materialized on demand) plus the three observables the
/// paper's evaluation reports (simulated I/O, planner work, wall-clock
/// time).
#[derive(Debug)]
pub struct QueryOutput {
    /// Output batches, in the plan's output layout and order.
    batches: Vec<Batch>,
    /// Row materialization of `batches`, built lazily on first
    /// [`QueryOutput::rows`] call (pre-filled by the reference engine,
    /// which produces rows natively).
    rows_cache: OnceLock<Vec<Row>>,
    /// Simulated page I/O accumulated across the whole plan.
    pub io: IoStats,
    /// How much work the planner did choosing the plan.
    pub planner: PlannerStats,
    /// Wall-clock execution time (excluding planning).
    pub elapsed: Duration,
    /// Sort-kernel work this execution performed: normalized key bytes
    /// encoded and comparator calls, across every sort/merge in the plan
    /// (all worker threads included).
    pub sort: SortStats,
    /// Spill work this execution performed under a memory budget: runs
    /// (or hash partitions) written to spill files and external merge
    /// passes. All zero when the plan ran fully in memory.
    pub spill: SpillStats,
    /// Segmented (partial) sort work: prefix groups formed across every
    /// `segmented-sort` operator in the plan. Zero when no segmented sort
    /// ran.
    pub segment: SegmentStats,
}

impl QueryOutput {
    /// The output as columnar batches, in emission order.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// The output as rows, materialized lazily from the batches on first
    /// call and cached. Order matches [`QueryOutput::batches`].
    pub fn rows(&self) -> &[Row] {
        self.rows_cache.get_or_init(|| {
            let mut out = Vec::with_capacity(self.num_rows());
            for b in &self.batches {
                b.append_rows_to(&mut out);
            }
            out
        })
    }

    /// Total output row count (no materialization).
    pub fn num_rows(&self) -> usize {
        self.batches.iter().map(Batch::len).sum()
    }
}

/// A query pipeline over one database under one optimizer configuration.
pub struct Session<'db> {
    db: &'db Database,
    config: OptimizerConfig,
    obs: Option<Observability>,
}

impl<'db> Session<'db> {
    /// Opens a session over a loaded database with the default
    /// configuration.
    pub fn new(db: &'db Database) -> Session<'db> {
        Session {
            db,
            config: OptimizerConfig::default(),
            obs: None,
        }
    }

    /// Replaces the optimizer/executor configuration (builder style).
    pub fn config(mut self, config: OptimizerConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches an observability handle (builder style): every query this
    /// session plans and executes is recorded into its registry and
    /// slow-query log. The handle is `Arc`-shared — attach clones of one
    /// handle to many sessions to aggregate across them.
    pub fn observe(mut self, obs: Observability) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Text exposition of the attached registry's metrics; `None` when no
    /// observability handle is attached.
    pub fn metrics_snapshot(&self) -> Option<String> {
        self.obs.as_ref().map(Observability::metrics_snapshot)
    }

    /// Compiles SQL to an executable query: parse → bind → predicate
    /// pushdown → view merging → order scan → cost-based planning.
    pub fn plan(&self, sql: &str) -> Result<PreparedQuery<'db>> {
        self.plan_inner(&parse_query(sql)?, sql, false)
    }

    /// [`Session::plan`] with optimizer tracing forced on for this one
    /// compilation, whether or not an observability handle is attached.
    /// The collected trace is available via [`PreparedQuery::trace`] and
    /// rendered by [`PreparedQuery::explain_optimizer`].
    pub fn plan_traced(&self, sql: &str) -> Result<PreparedQuery<'db>> {
        self.plan_inner(&parse_query(sql)?, sql, true)
    }

    /// Compiles, keeping the planner's decision log when asked to or when
    /// an observability handle is attached (an observed session traces
    /// its planning, so slow-log entries carry their trace). Planning
    /// runs on the calling thread whatever the executor thread count, and
    /// so do the order-algebra calls counted from bind to plan.
    fn plan_inner(
        &self,
        ast: &fto_sql::ast::Query,
        sql: &str,
        force_trace: bool,
    ) -> Result<PreparedQuery<'db>> {
        let before = ContextWork::snapshot();
        let mut graph = bind(ast, self.db.catalog())?;
        rewrite::push_down_predicates(&mut graph);
        rewrite::merge_views(&mut graph);
        OrderScan::run(&mut graph, self.db.catalog());
        let mut planner = Planner::new(&graph, self.db.catalog(), self.config.clone());
        if force_trace || self.obs.is_some() {
            planner = planner.traced();
        }
        let plan = planner.plan_query()?;
        let (planner_stats, trace) = (planner.stats, planner.take_trace());
        let order_work = ContextWork::snapshot().since(before);

        if let Some(obs) = &self.obs {
            obs.record_planning(&planner_stats);
        }
        Ok(PreparedQuery {
            db: self.db,
            graph,
            plan,
            planner: planner_stats,
            order_work,
            config: self.config.clone(),
            obs: self.obs.clone(),
            sql: sql.to_string(),
            trace,
        })
    }

    /// Compile + execute in one call.
    pub fn execute(&self, sql: &str) -> Result<QueryOutput> {
        self.plan(sql)?.execute()
    }

    /// Renders the chosen plan for `sql` (estimates only) without
    /// executing it.
    pub fn explain(&self, sql: &str) -> Result<String> {
        Ok(self.plan(sql)?.explain())
    }

    /// Parses and runs a top-level statement, dispatching the
    /// `EXPLAIN [ANALYZE | OPTIMIZER]` forms to the plan renderers: plain
    /// queries return rows, `EXPLAIN` returns the estimated plan tree,
    /// `EXPLAIN ANALYZE` executes the query and returns the tree
    /// annotated with per-operator actuals, and `EXPLAIN OPTIMIZER`
    /// returns the optimizer's decision trace with an enumeration
    /// summary (the query is planned but not executed).
    pub fn run(&self, sql: &str) -> Result<StatementOutput> {
        match parse_statement(sql)? {
            Statement::Query(q) => Ok(StatementOutput::Rows(Box::new(
                self.plan_inner(&q, sql, false)?.execute()?,
            ))),
            Statement::Explain { mode, query } => {
                let force_trace = mode == ExplainMode::Optimizer;
                let prepared = self.plan_inner(&query, sql, force_trace)?;
                let text = match mode {
                    ExplainMode::Plan => prepared.explain(),
                    ExplainMode::Analyze => prepared.explain_analyze()?,
                    ExplainMode::Optimizer => prepared.explain_optimizer(),
                };
                Ok(StatementOutput::Explain(text))
            }
        }
    }
}

/// What one top-level statement produced (see [`Session::run`]).
#[derive(Debug)]
pub enum StatementOutput {
    /// A plain query: its rows and observables (boxed: [`QueryOutput`]
    /// is large next to the explain text).
    Rows(Box<QueryOutput>),
    /// An `EXPLAIN [ANALYZE]` form: the rendered plan tree.
    Explain(String),
}

/// A compiled query bound to its database, ready to execute (repeatedly).
pub struct PreparedQuery<'db> {
    db: &'db Database,
    graph: QueryGraph,
    plan: Plan,
    planner: PlannerStats,
    /// Order-algebra calls from bind to plan, on the compiling thread.
    order_work: ContextWork,
    /// The configuration it was planned under, whose execution knobs
    /// (batch size, threads, memory budget) every execution runs with.
    config: OptimizerConfig,
    obs: Option<Observability>,
    sql: String,
    trace: Option<Trace>,
}

impl PreparedQuery<'_> {
    /// Executes through the streaming batched executor (the default
    /// engine), at the parallel degree the session's
    /// [`OptimizerConfig::threads`] selected.
    ///
    /// With an observability handle attached, execution goes through the
    /// instrumented engine (identical rows and totals) so per-worker
    /// attribution lands in the registry, and the run is recorded:
    /// session counters, latency/rows/pages histograms, and — past the
    /// slow threshold — a slow-query log entry.
    pub fn execute(&self) -> Result<QueryOutput> {
        if self.obs.is_some() {
            return self.execute_instrumented().map(|(out, _)| out);
        }
        Ok(self.run(false, false)?.0)
    }

    /// [`PreparedQuery::execute`] with per-operator instrumentation:
    /// alongside the normal output, returns a [`PlanMetrics`] recording
    /// rows/batches, [`crate::ExecStats`] deltas, and elapsed time per plan
    /// node (pre-order ids, root = 0). The rows and session totals are
    /// identical to the uninstrumented path. Recorded into the attached
    /// observability handle, if any.
    pub fn execute_instrumented(&self) -> Result<(QueryOutput, PlanMetrics)> {
        let (out, rec) = self.run(true, false)?;
        let metrics = self.observed(rec.ops, &out);
        Ok((out, metrics))
    }

    /// [`PreparedQuery::execute_instrumented`] with the timeline
    /// profiler attached: additionally returns the
    /// [`ExecutionProfile`] — per-lane operator spans, spill/segment
    /// instants, and per-worker exchange lanes in partition order,
    /// deterministic by (lane, seq). Profiling only observes: rows,
    /// [`IoStats`], and the [`PlanMetrics`] rollup are bit-identical to
    /// [`PreparedQuery::execute_instrumented`], and the run is recorded
    /// into the attached observability handle the same way.
    pub fn execute_profiled(&self) -> Result<(QueryOutput, PlanMetrics, ExecutionProfile)> {
        let (out, rec) = self.run(true, true)?;
        let profile = rec.timeline.map(Timeline::finish).unwrap_or_default();
        let metrics = self.observed(rec.ops, &out);
        Ok((out, metrics, profile))
    }

    /// One execution through the one driver. The three public entry
    /// points differ only in the record they hand it: per-node slots when
    /// instrumenting and a coordinator lane when profiling.
    fn run(&self, instrument: bool, profile: bool) -> Result<(QueryOutput, ExecRecord)> {
        let cx = ExecContext::new(self.db, &self.graph, &self.config);
        let nodes = match instrument {
            true => self.plan.count_ops(&|_| true),
            false => 0,
        };
        let timeline = profile.then(|| Timeline::new(Instant::now(), "coordinator"));
        let mut rec = ExecRecord::new(nodes, timeline);
        let (batches, elapsed) = drive(&cx, &self.plan, &mut rec)?;
        // The output's counters are copied out of the finished stream.
        let out = QueryOutput {
            batches,
            rows_cache: OnceLock::new(),
            io: rec.stats.io,
            planner: self.planner,
            elapsed,
            sort: rec.stats.sort,
            spill: rec.stats.spill,
            segment: rec.stats.segment,
        };
        Ok((out, rec))
    }

    /// The metrics of an instrumented execution, assembled from its
    /// per-node actuals and recorded — with the output — into the attached
    /// observability handle, if any. The plan and the decision log render
    /// only for a query that enters the slow log.
    fn observed(&self, actuals: Vec<crate::OpMetrics>, out: &QueryOutput) -> PlanMetrics {
        let metrics = plan_metrics(&self.plan, actuals);
        if let Some(obs) = &self.obs {
            obs.record_execution(
                Some(&self.sql),
                out,
                || self.explain(),
                || self.trace_text().unwrap_or_default(),
                Some(&metrics),
            );
        }
        metrics
    }

    /// Executes through the materializing reference interpreter. Exists
    /// for differential testing and engine comparisons; the rows are
    /// identical to [`PreparedQuery::execute`], and every counter is zero:
    /// the interpreter checks rows, not pages. Deliberately *not* recorded
    /// into the observability registry, whose `session.*` totals count
    /// streaming executions.
    pub fn execute_materialized(&self) -> Result<QueryOutput> {
        let result = run_plan_materialized(self.db, &self.graph, &self.plan)?;
        // The oracle's rows, held to the types the plan declares for them.
        let batches = if result.rows.is_empty() {
            Vec::new()
        } else {
            let types = layout_types(&self.graph, &self.plan.layout)?;
            vec![Batch::from_typed_rows(&types, &result.rows)?]
        };
        let rows_cache = OnceLock::new();
        let _ = rows_cache.set(result.rows);
        Ok(QueryOutput {
            batches,
            rows_cache,
            planner: self.planner,
            elapsed: result.elapsed,
            // The reference interpreter exists to check rows: it charges
            // no pages, its sorts compare `Value`s and count nothing, it
            // ignores the budget, so it never spills — and it full-sorts
            // segmented enforcers, so it never forms groups.
            io: IoStats::default(),
            sort: SortStats::default(),
            spill: SpillStats::default(),
            segment: SegmentStats::default(),
        })
    }

    /// The planner's decision log for this compilation, when it kept one
    /// ([`Session::plan_traced`], `EXPLAIN OPTIMIZER`, or an attached
    /// observability handle).
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// The decision log as `EXPLAIN OPTIMIZER` and the slow log print it:
    /// the retained events, then the enumeration summary and the
    /// order-algebra call counts. Both closing lines come from counters,
    /// so they are exact however much the ring dropped.
    fn trace_text(&self) -> Option<String> {
        let mut text = self.trace.as_ref()?.render();
        let (s, w) = (&self.planner, &self.order_work);
        let _ = writeln!(
            text,
            "summary: boxes={} | plans generated={} kept<={} pruned={} | \
             sorts added={} avoided={} segmented={} | sort-ahead variants={}\n\
             order ops: reduce={} test={} cover={} homogenize={}",
            s.boxes_planned,
            s.plans_generated,
            s.plans_generated.saturating_sub(s.plans_pruned),
            s.plans_pruned,
            s.sorts_added,
            s.sorts_avoided,
            s.partial_sorts,
            s.sort_ahead_variants,
            w.reduce,
            w.test_order,
            w.cover,
            w.homogenize,
        );
        Some(text)
    }

    /// The chosen physical plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The rewritten query graph the plan was built from.
    pub fn graph(&self) -> &QueryGraph {
        &self.graph
    }

    /// Planner work counters for this compilation.
    pub fn planner_stats(&self) -> PlannerStats {
        self.planner
    }

    /// Renders the plan with resolved column names.
    pub fn explain(&self) -> String {
        let registry = &self.graph.registry;
        self.plan.explain(&|c| registry.name(c).to_string())
    }

    /// Renders the plan with the order/key/predicate properties the
    /// optimizer tracked for every stream (paper §5.2.1).
    pub fn explain_properties(&self) -> String {
        let registry = &self.graph.registry;
        self.plan
            .explain_properties(&|c| registry.name(c).to_string())
    }

    /// Executes the query and renders the plan tree with each operator's
    /// estimates (`rows`, `cost` — the optimizer's view) annotated with
    /// what actually happened: the estimated rows next to rows and
    /// batches produced with their cardinality Q-error
    /// (`max(est, act) / min(est, act)`, 1.00 = exact), the pages the
    /// operator itself charged (children excluded), the resulting
    /// [`IoStats::weighted_page_cost`] against the estimated self cost,
    /// and time spent. A totals line closes the report; the per-operator
    /// page deltas sum exactly to it.
    pub fn explain_analyze(&self) -> Result<String> {
        let (out, metrics) = self.execute_instrumented()?;
        let registry = &self.graph.registry;
        let mut text =
            self.plan
                .explain_annotated(&|c| registry.name(c).to_string(), &|id, node| {
                    let m = &metrics.ops[id];
                    match metrics.self_stats(id) {
                        Some(own) => {
                            let s = own.io;
                            let mut note = format!(
                                "est: rows={:.0} | actual: rows={} batches={} | q-err={:.2} | \
                         self pages: seq={} rand={} index={} \
                         (wpc {:.1} vs est {:.1}) | {:.1?}",
                                m.est_rows,
                                m.rows,
                                m.batches,
                                m.rows_q_error(),
                                s.sequential_pages,
                                s.random_pages,
                                s.index_pages,
                                s.weighted_page_cost(),
                                node.self_cost(),
                                metrics.self_elapsed(id),
                            );
                            if let Some(est_groups) = m.est_groups {
                                let _ = write!(
                                    note,
                                    " | groups est={est_groups} act={}",
                                    own.segment.groups_formed
                                );
                            }
                            if s.spill_pages_written + s.spill_pages_read > 0 {
                                let _ = write!(
                                    note,
                                    " | spill: w={} r={}",
                                    s.spill_pages_written, s.spill_pages_read
                                );
                            }
                            if !m.workers.is_empty() {
                                let _ = write!(note, " | workers:");
                                for (k, w) in m.workers.iter().enumerate() {
                                    let _ = write!(
                                        note,
                                        " p{k} rows={} batches={} ({:.1?})",
                                        w.rows, w.batches, w.elapsed
                                    );
                                }
                            }
                            note
                        }
                        None => "actual: <inconsistent I/O attribution>".to_string(),
                    }
                });
        let _ = write!(
            text,
            "totals: {} | {} rows in {:.1?} | sort: key_bytes={} comparisons={}",
            out.io,
            out.num_rows(),
            out.elapsed,
            out.sort.key_bytes,
            out.sort.comparisons
        );
        if out.spill != SpillStats::default() {
            let _ = write!(
                text,
                " | spill: runs={} merge_passes={}",
                out.spill.runs_formed, out.spill.merge_passes
            );
        }
        if out.segment != SegmentStats::default() {
            let _ = write!(text, " | segmented: groups={}", out.segment.groups_formed);
        }
        text.push('\n');
        Ok(text)
    }

    /// Renders the optimizer's decision trace for this compilation: the
    /// chosen plan, then every span/plan/sort decision the planner made
    /// (pruning losers named with their winners, sort-ahead variants with
    /// the interesting order that motivated them), closed by the
    /// enumeration summary and the planner's work counters (contexts
    /// built, reduce memo hits). The trace carries no timestamps and planning
    /// always runs on the calling thread, so the output is byte-identical
    /// across runs and executor thread counts.
    pub fn explain_optimizer(&self) -> String {
        let mut text = String::from("chosen plan:\n");
        text.push_str(&self.explain());
        if !text.ends_with('\n') {
            text.push('\n');
        }
        match self.trace_text() {
            Some(trace) => {
                text.push_str("optimizer trace:\n");
                text.push_str(&trace);
                let _ = writeln!(text, "planner work: {}", self.planner);
            }
            None => text.push_str("optimizer trace: <not collected; tracing was off>\n"),
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl QueryOutput {
        /// The output of a query that took `elapsed` to return `rows`
        /// one-column rows and counted nothing — for tests that record
        /// outputs without running anything.
        pub(crate) fn stub(elapsed: Duration, rows: usize) -> QueryOutput {
            let row: Row = vec![fto_common::Value::Int(0)].into();
            QueryOutput {
                batches: vec![Batch::from_typed_rows(
                    &[fto_common::DataType::Int],
                    &vec![row; rows],
                )
                .unwrap()],
                rows_cache: OnceLock::new(),
                io: IoStats::default(),
                planner: PlannerStats::default(),
                elapsed,
                sort: SortStats::default(),
                spill: SpillStats::default(),
                segment: SegmentStats::default(),
            }
        }
    }

    fn db() -> Database {
        let mut cat = fto_catalog::Catalog::new();
        let t = cat
            .create_table(
                "t",
                vec![
                    fto_catalog::ColumnDef::new("k", fto_common::DataType::Int),
                    fto_catalog::ColumnDef::new("v", fto_common::DataType::Int),
                ],
                vec![fto_catalog::KeyDef::primary([0])],
            )
            .unwrap();
        let mut db = Database::new(cat);
        db.load_table(
            t,
            (0..40)
                .map(|i| {
                    vec![fto_common::Value::Int(i), fto_common::Value::Int(i % 4)]
                        .into_boxed_slice()
                })
                .collect(),
        )
        .unwrap();
        db
    }

    #[test]
    fn builder_chain_plans_and_executes() {
        let db = db();
        let out = Session::new(&db)
            .config(OptimizerConfig::default().with_batch_size(8))
            .plan("select k, v from t order by k desc")
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(out.num_rows(), 40);
        assert_eq!(out.rows()[0][0], fto_common::Value::Int(39));
        assert!(out.io.rows_read >= 40);
    }

    #[test]
    fn both_engines_agree_through_prepared_query() {
        let db = db();
        let session = Session::new(&db);
        let q = session
            .plan("select v, count(*) as n from t group by v order by v")
            .unwrap();
        let streaming = q.execute().unwrap();
        let materialized = q.execute_materialized().unwrap();
        assert_eq!(streaming.rows(), materialized.rows());
        assert_eq!(streaming.num_rows(), 4);
    }

    #[test]
    fn explain_analyze_annotates_actuals() {
        let db = db();
        let q = Session::new(&db)
            .plan("select k, v from t order by v limit 5")
            .unwrap();
        let text = q.explain_analyze().unwrap();
        assert!(text.contains("actual: rows="), "{text}");
        assert!(text.contains("totals:"), "{text}");
        let (out, metrics) = q.execute_instrumented().unwrap();
        assert!(metrics.validate().is_ok(), "{:?}", metrics.validate());
        assert_eq!(metrics.total().io, out.io);
        assert_eq!(metrics.total().sort, out.sort);
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn run_dispatches_statements() {
        let db = db();
        let s = Session::new(&db);
        match s.run("select k from t limit 3").unwrap() {
            StatementOutput::Rows(out) => assert_eq!(out.num_rows(), 3),
            other => panic!("expected rows, got {other:?}"),
        }
        match s.run("explain select k from t order by k").unwrap() {
            StatementOutput::Explain(text) => {
                assert!(text.contains("rows="), "{text}");
                assert!(!text.contains("actual:"), "{text}");
            }
            other => panic!("expected explain text, got {other:?}"),
        }
        match s.run("explain analyze select k from t order by k").unwrap() {
            StatementOutput::Explain(text) => assert!(text.contains("actual:"), "{text}"),
            other => panic!("expected explain text, got {other:?}"),
        }
        match s
            .run("explain optimizer select k from t order by k")
            .unwrap()
        {
            StatementOutput::Explain(text) => {
                assert!(text.contains("chosen plan:"), "{text}");
                assert!(text.contains("optimizer trace:"), "{text}");
                assert!(text.contains("summary:"), "{text}");
            }
            other => panic!("expected explain text, got {other:?}"),
        }
    }

    #[test]
    fn observed_session_records_and_reconciles() {
        let db = db();
        let obs = Observability::default();
        let s = Session::new(&db).observe(obs.clone());
        let out = s.execute("select k, v from t order by v limit 7").unwrap();
        let snapshot = obs.metrics_snapshot();
        assert!(snapshot.contains("counter session.queries 1"), "{snapshot}");
        assert!(
            snapshot.contains(&format!("counter session.rows {}", out.num_rows())),
            "{snapshot}"
        );
        assert!(
            snapshot.contains(&format!(
                "counter session.io.rows_read {}",
                out.io.rows_read
            )),
            "{snapshot}"
        );
        assert!(
            snapshot.contains("histogram query.latency_us"),
            "{snapshot}"
        );
        let q = s.plan("select k from t order by k").unwrap();
        assert!(
            q.trace().is_some(),
            "an observed session traces its planning"
        );
    }

    #[test]
    fn explain_names_columns() {
        let db = db();
        let q = Session::new(&db)
            .plan("select k from t order by k")
            .unwrap();
        let text = q.explain();
        assert!(text.contains('k'), "{text}");
        let props = q.explain_properties();
        assert!(props.contains("order") || props.contains("keys"), "{props}");
    }
}
