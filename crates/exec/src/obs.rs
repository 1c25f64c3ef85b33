//! Session-level observability: a shared metrics [`Registry`] and a
//! [`SlowQueryLog`], bundled behind one cheaply-cloneable handle.
//!
//! Attach an [`Observability`] to a [`Session`](crate::Session) with
//! [`Session::observe`](crate::Session::observe); every query the session
//! plans and executes is then recorded:
//!
//! * **planning** — the `planner.*` work counters; the planner also
//!   keeps its decision log, which the slow-query log prints;
//! * **execution** — `session.*` counters (queries, rows, exact
//!   [`IoStats`] field totals), the `query.latency_us` / `query.rows` /
//!   `query.pages` histograms, `exec.worker_*` attribution from
//!   instrumented runs, and a slow-query log entry whenever a query's
//!   wall-clock time crosses [`ObsOptions::slow_query_threshold`].
//!
//! Every execution counter in the registry — `session.io.*`, `sort.*`,
//! `spill.*`, `pool.*`, `segment.*` — is fed from the same
//! [`QueryOutput`] the caller gets, itself a copy of the finished
//! [`ExecStats`](crate::ExecStats) stream, as exact `u64`s: they
//! reconcile to the summed per-query totals with no drift, however many
//! sessions record into the handle at once. The handle is
//! `Arc`-shared: clones observe into the same registry, so one
//! [`Observability`] can aggregate across many sessions (the REPL holds
//! one for its whole lifetime).

use fto_obs::{Registry, SlowQuery, SlowQueryLog};
use fto_planner::PlannerStats;
use std::sync::Arc;
use std::time::Duration;

use crate::metrics::PlanMetrics;
use crate::session::QueryOutput;

/// How many slow queries the log retains (oldest evicted first).
const SLOW_LOG_CAPACITY: usize = 32;

/// Tuning knobs for an [`Observability`] handle.
#[derive(Clone, Debug)]
pub struct ObsOptions {
    /// Queries at least this slow are captured in the slow-query log.
    pub slow_query_threshold: Duration,
    /// Queries whose worst per-operator cardinality Q-error
    /// ([`crate::metrics::q_error`]) reaches this factor are *misestimated*:
    /// they enter the slow-query log even when fast (a bad estimate is a
    /// latent slow query — it only takes more data), and bump the
    /// `session.misestimated` / `qerror.<op>` counters. The default is
    /// deliberately generous: small inputs and LIMIT-style early
    /// termination inflate Q-errors without indicting the estimator.
    /// Overridable in the REPL via `FTO_QERR_LIMIT`.
    pub qerror_threshold: f64,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            slow_query_threshold: Duration::from_millis(100),
            qerror_threshold: 16.0,
        }
    }
}

struct Inner {
    registry: Registry,
    slow_log: SlowQueryLog,
    opts: ObsOptions,
}

/// Shared observability state for one or more sessions. Cloning is cheap
/// and clones record into the same registry and slow-query log.
#[derive(Clone)]
pub struct Observability {
    inner: Arc<Inner>,
}

impl Default for Observability {
    fn default() -> Self {
        Observability::new(ObsOptions::default())
    }
}

impl Observability {
    /// Creates a fresh registry/slow-log bundle.
    pub fn new(opts: ObsOptions) -> Observability {
        Observability {
            inner: Arc::new(Inner {
                registry: Registry::new(),
                slow_log: SlowQueryLog::new(SLOW_LOG_CAPACITY),
                opts,
            }),
        }
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The shared slow-query log.
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.inner.slow_log
    }

    /// Text exposition of every registered metric (see
    /// [`Registry::expose`]).
    pub fn metrics_snapshot(&self) -> String {
        self.inner.registry.expose()
    }

    /// Records one compilation: every planner work counter, as
    /// `planner.<field>`.
    pub fn record_planning(&self, stats: &PlannerStats) {
        // Exhaustive on purpose: a field added to `PlannerStats` fails to
        // compile here until it is registered.
        let PlannerStats {
            joins_considered,
            plans_generated,
            plans_pruned,
            sorts_added,
            sorts_avoided,
            partial_sorts,
            sort_ahead_variants,
            boxes_planned,
            contexts_built,
            reduce_memo_hits,
        } = *stats;
        for (name, value) in [
            ("planner.joins_considered", joins_considered),
            ("planner.plans_generated", plans_generated),
            ("planner.plans_pruned", plans_pruned),
            ("planner.sorts_added", sorts_added),
            ("planner.sorts_avoided", sorts_avoided),
            ("planner.partial_sorts", partial_sorts),
            ("planner.sort_ahead_variants", sort_ahead_variants),
            ("planner.boxes_planned", boxes_planned),
            ("planner.contexts_built", contexts_built),
            ("planner.reduce_memo_hits", reduce_memo_hits),
        ] {
            self.inner.registry.add(name, value);
        }
    }

    /// Records one query execution from its output: session counters,
    /// exact I/O field totals, sort-kernel work (`sort.key_bytes` /
    /// `sort.comparisons`, the normalized-key codec's observables), spill
    /// and buffer-pool work under a memory budget (`spill.*` / `pool.*`),
    /// segmented-sort group formation (`segment.groups_formed`), the
    /// latency/rows/pages histograms, and — when per-operator metrics are
    /// available — the rows and batches each exchange worker produced
    /// (`exec.worker_*`) and plan-quality feedback: the `query.qerror`
    /// histogram (worst per-operator Q-error, in hundredths — `150` =
    /// 1.5×), `qerror.<op>` counters for operators past
    /// [`ObsOptions::qerror_threshold`], and `session.misestimated`.
    ///
    /// A slow-query log entry is recorded when the query crosses the
    /// latency threshold **or** is misestimated — carrying the annotated
    /// plan, the worst-estimated operator, and the planner's decision
    /// log — `plan_text` and `trace` run only for a query that enters it.
    pub fn record_execution(
        &self,
        sql: Option<&str>,
        out: &QueryOutput,
        plan_text: impl FnOnce() -> String,
        trace: impl FnOnce() -> String,
        metrics: Option<&PlanMetrics>,
    ) {
        let (io, sort, spill, segment) = (&out.io, &out.sort, &out.spill, &out.segment);
        let (elapsed, rows) = (out.elapsed, out.num_rows() as u64);
        let r = &self.inner.registry;
        r.inc("session.queries");
        r.add("session.rows", rows);
        r.add("session.io.sequential_pages", io.sequential_pages);
        r.add("session.io.random_pages", io.random_pages);
        r.add("session.io.index_pages", io.index_pages);
        r.add("session.io.sort_rows", io.sort_rows);
        r.add("session.io.rows_read", io.rows_read);
        r.add("session.io.spill_pages_written", io.spill_pages_written);
        r.add("session.io.spill_pages_read", io.spill_pages_read);
        r.add("session.io.pool_hits", io.pool_hits);
        r.add("session.io.pool_misses", io.pool_misses);
        r.add("sort.key_bytes", sort.key_bytes);
        r.add("sort.comparisons", sort.comparisons);
        r.add("spill.pages_written", io.spill_pages_written);
        r.add("spill.pages_read", io.spill_pages_read);
        r.add("spill.runs_formed", spill.runs_formed);
        r.add("spill.merge_passes", spill.merge_passes);
        r.add("pool.hits", io.pool_hits);
        r.add("pool.misses", io.pool_misses);
        r.add("segment.groups_formed", segment.groups_formed);
        r.observe(
            "query.latency_us",
            elapsed.as_micros().min(u64::MAX as u128) as u64,
        );
        r.observe("query.rows", rows);
        r.observe(
            "query.pages",
            io.sequential_pages + io.random_pages + io.index_pages,
        );
        // Plan-quality feedback: compare the planner's per-operator row
        // estimates against what actually flowed. The histogram stores
        // the worst Q-error in hundredths because buckets are integer
        // (`100` = exact, `250` = 2.5× off).
        let mut worst: Option<(f64, String)> = None;
        if let Some(pm) = metrics {
            if let Some((id, q)) = pm.worst_q_error() {
                let op = &pm.ops[id];
                worst = Some((
                    q,
                    format!("{}#{id} est={:.1} act={}", op.name, op.est_rows, op.rows),
                ));
                r.observe("query.qerror", (q * 100.0).round() as u64);
            }
            for op in &pm.ops {
                if op.rows_q_error() >= self.inner.opts.qerror_threshold {
                    r.inc(&format!("qerror.{}", op.name));
                }
                for w in &op.workers {
                    r.add("exec.worker_rows", w.rows);
                    r.add("exec.worker_batches", w.batches);
                }
            }
        }
        let misestimated = worst
            .as_ref()
            .map(|(q, _)| *q >= self.inner.opts.qerror_threshold)
            .unwrap_or(false);
        if misestimated {
            r.inc("session.misestimated");
        }
        if elapsed >= self.inner.opts.slow_query_threshold || misestimated {
            r.inc("session.slow_queries");
            let (max_qerror, worst_operator) = match worst {
                Some((q, label)) => (q, Some(label)),
                None => (1.0, None),
            };
            self.inner.slow_log.record(SlowQuery {
                sql: sql.map(str::to_string),
                elapsed,
                rows,
                plan: plan_text(),
                trace: trace(),
                max_qerror,
                worst_operator,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_registry() {
        let obs = Observability::default();
        let other = obs.clone();
        obs.registry().inc("session.queries");
        other.registry().inc("session.queries");
        assert!(obs.metrics_snapshot().contains("counter session.queries 2"));
    }

    #[test]
    fn slow_threshold_gates_the_log() {
        let obs = Observability::new(ObsOptions {
            slow_query_threshold: Duration::from_millis(5),
            ..ObsOptions::default()
        });
        let (fast, slow) = (Duration::from_millis(1), Duration::from_millis(9));
        // Only a query that enters the log renders its plan and its trace.
        let rendered = std::cell::Cell::new(0);
        let render = |text: &'static str| {
            let rendered = &rendered;
            move || {
                rendered.set(rendered.get() + 1);
                text.to_string()
            }
        };
        let out = QueryOutput::stub(fast, 1);
        obs.record_execution(Some("select 1"), &out, render("p1"), render("t1"), None);
        assert_eq!(rendered.get(), 0, "a fast query rendered its plan or trace");
        let out = QueryOutput::stub(slow, 1);
        obs.record_execution(Some("select 2"), &out, render("p2"), render("t2"), None);
        assert_eq!(rendered.get(), 2);
        assert_eq!(obs.slow_log().total_recorded(), 1);
        let text = obs.slow_log().render();
        assert!(text.contains("select 2") && text.contains("p2"), "{text}");
        assert!(obs
            .metrics_snapshot()
            .contains("counter session.slow_queries 1"));
    }

    #[test]
    fn worker_attribution_is_recorded_with_the_execution() {
        use crate::metrics::{OpMetrics, WorkerOpMetrics};
        let worker = |rows, batches| WorkerOpMetrics {
            rows,
            batches,
            ..WorkerOpMetrics::default()
        };
        let pm = PlanMetrics {
            ops: vec![OpMetrics {
                name: "sort".to_string(),
                workers: vec![worker(30, 2), worker(12, 1)],
                ..OpMetrics::default()
            }],
            children: vec![vec![]],
        };
        let obs = Observability::default();
        let out = QueryOutput::stub(Duration::from_micros(10), 42);
        obs.record_execution(None, &out, String::new, String::new, Some(&pm));
        obs.record_execution(None, &out, String::new, String::new, None);
        assert_eq!(obs.registry().counter("exec.worker_rows"), 42);
        assert_eq!(obs.registry().counter("exec.worker_batches"), 3);
        assert_eq!(obs.registry().counter("session.queries"), 2);
    }

    #[test]
    fn misestimated_fast_query_enters_the_slow_log() {
        use crate::metrics::OpMetrics;
        let obs = Observability::new(ObsOptions {
            slow_query_threshold: Duration::from_secs(3600),
            qerror_threshold: 4.0,
        });
        let pm = PlanMetrics {
            ops: vec![OpMetrics {
                name: "filter".to_string(),
                rows: 50,
                est_rows: 5.0,
                ..OpMetrics::default()
            }],
            children: vec![vec![]],
        };
        let out = QueryOutput::stub(Duration::from_micros(10), 50);
        obs.record_execution(
            Some("select misjudged"),
            &out,
            String::new,
            String::new,
            Some(&pm),
        );
        assert!(obs.metrics_snapshot().contains("counter session.rows 50"));
        assert_eq!(obs.slow_log().total_recorded(), 1);
        let text = obs.slow_log().render();
        assert!(
            text.contains("worst estimate: filter#0 est=5.0 act=50"),
            "{text}"
        );
        let snap = obs.metrics_snapshot();
        assert!(snap.contains("counter session.misestimated 1"), "{snap}");
        assert!(snap.contains("counter qerror.filter 1"), "{snap}");
        // 10× error in hundredths: the histogram saw a single value 1000.
        assert!(
            snap.contains("histogram query.qerror count=1 sum=1000"),
            "{snap}"
        );
    }
}
