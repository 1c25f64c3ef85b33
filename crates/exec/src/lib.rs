//! The execution engine: a streaming, batched (Volcano-style) executor
//! for [`fto_planner::PlanNode`] trees against an
//! [`fto_storage::Database`], plus the [`Session`] API that wraps the
//! whole compile-and-execute pipeline.
//!
//! # Architecture
//!
//! * [`stream`] — the default engine. Plans lower to a tree of
//!   [`Operator`]s (`open` / `next_batch` / `close`); data flows upward
//!   in columnar [`Batch`]es (typed column vectors with validity
//!   bitmaps, [`fto_common::column`]) of at most `batch_size` rows.
//!   Filters refine selection vectors with typed kernels, projections
//!   share untouched columns by `Arc` clone, and sorts/group-bys encode
//!   their keys column-at-a-time. Scans charge simulated page I/O
//!   incrementally as batches are pulled, so early-terminating queries
//!   (LIMIT, Top-N) pay only for the pages behind the rows they actually
//!   produce. Sort, segmented sort and Top-N are one order-enforcing
//!   operator; a full sort, a Top-N and hash group-by are inherently
//!   blocking, and joins materialize only their build side.
//! * [`sortkernel`] — the permutation kernel the order enforcer runs on:
//!   column batches held as they arrived, normalized binary sort keys
//!   (`fto_common::sortkey`) in one arena, a permutation ordered by
//!   `(key, input position)` — `memcmp`, or an MSB radix pass on
//!   fixed-width keys — one gather per output batch, and the K-way
//!   `(key, seq)` merge step over spilled runs. Its stability/tie-order
//!   contract is what makes the external merge deterministic, and every
//!   batch size, budget and thread count return the serial run's rows.
//! * [`parallel`] — the exchange layer, one operator. At parallel degree
//!   `p > 1` (and no memory budget: a budget runs serial), lowering fans
//!   the partitionable pipeline segments a breaker drains at `open` out
//!   over `p` `std::thread` workers and `Gather` concatenates the
//!   partitions' batches in partition order — the serial stream, so the
//!   enforcer, join or group-by above it is the serial one and results
//!   are bit-identical to serial execution at every degree.
//! * `oracle` — the query-level oracle behind
//!   [`PreparedQuery::execute_materialized`]: a naive, row-at-a-time
//!   evaluator of the query graph the binder returns — no rewrite, no
//!   order scan, no plan — against which the test suites check every
//!   answer the engine gives (the same multiset of rows, in the ORDER
//!   BY's order). It is the only other way rows are computed.
//! * [`session`] — [`Session`] / [`PreparedQuery`] / [`QueryOutput`]:
//!   `Session::new(&db).config(cfg).plan(sql)?.execute()?`.
//! * [`metrics`] — the execution record and per-operator observability.
//!   Every operator call threads one [`ExecRecord`]: the [`ExecStats`]
//!   accounting stream (page I/O plus the sort, spill and segmented-sort
//!   counters — the finished stream is the query's totals, exact under
//!   any number of concurrent sessions) and, riding the same `&mut`, the
//!   per-node slots of an instrumented execution and the timeline of a
//!   profiled one.
//!   `PreparedQuery::execute_instrumented` / `explain_analyze` record
//!   rows, batches, the stream's delta, and time per plan node into a
//!   [`PlanMetrics`], with per-operator self deltas that sum exactly to
//!   the session totals, counter by counter.
//! * [`obs`] — session-level observability. An [`Observability`] handle
//!   attached via [`Session::observe`](session::Session::observe)
//!   aggregates every query into an [`fto_obs::Registry`] (counters,
//!   latency/rows/pages histograms) and keeps a slow-query log; the
//!   planner's decision log (`EXPLAIN OPTIMIZER`) belongs to each
//!   [`PreparedQuery`].
//!
//! Entry point: [`Session`]. A [`PreparedQuery`]'s `execute`,
//! `execute_instrumented` and `execute_profiled` are one driver handed a
//! plain, an instrumented or a profiled record.

#![deny(missing_docs)]

pub(crate) mod aggkernel;
pub(crate) mod extsort;
pub mod metrics;
pub mod obs;
pub(crate) mod oracle;
pub mod parallel;
pub mod session;
pub mod sortkernel;
pub mod stream;

pub use fto_obs::ExecutionProfile;
pub use metrics::{q_error, ExecRecord, ExecStats, OpMetrics, PlanMetrics, WorkerOpMetrics};
pub use obs::{ObsOptions, Observability};
pub use session::{PreparedQuery, QueryOutput, Session, StatementOutput};
pub use sortkernel::{SegmentStats, SortStats, SpillStats};
pub use stream::{Batch, ExecContext, Operator};

/// Convenience re-exports for the common execution workflow: plan and
/// execute through [`Session`]; [`PreparedQuery::execute_materialized`]
/// is the query-level oracle's answer to check a run against.
pub mod prelude {
    pub use crate::{
        ObsOptions, Observability, PlanMetrics, PreparedQuery, QueryOutput, Session,
        StatementOutput,
    };
    pub use fto_planner::{OptimizerConfig, PlannerStats};
    pub use fto_storage::{Database, IoStats};
}
