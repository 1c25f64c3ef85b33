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
//! * [`sortkernel`] — the interpreter's `Value`-comparator sort and
//!   top-N (the oracle) and the permutation kernel the order enforcer
//!   runs on: column batches held as they arrived, normalized binary
//!   sort keys (`fto_common::sortkey`) in one arena, a permutation
//!   ordered by `(key, input position)` — `memcmp`, or an MSB radix pass
//!   on fixed-width keys — one gather per output batch, and the K-way
//!   `(key, seq)` merge step over spilled runs. Its stability/tie-order
//!   contract is what makes the external merge deterministic; the
//!   differential suite holds both engines bit-identical.
//! * [`parallel`] — the exchange layer, one operator. At parallel degree
//!   `p > 1` (and no memory budget: a budget runs serial), lowering fans
//!   the partitionable pipeline segments a breaker drains at `open` out
//!   over `p` `std::thread` workers and `Gather` concatenates the
//!   partitions' batches in partition order — the serial stream, so the
//!   enforcer, join or group-by above it is the serial one and results
//!   are bit-identical to serial execution at every degree.
//! * [`interp`] — the original fully materializing interpreter, kept as
//!   the reference engine. The differential test suite runs every query
//!   through both engines and requires identical rows in identical order.
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
pub mod interp;
pub mod metrics;
pub mod obs;
pub mod parallel;
pub mod session;
pub mod sortkernel;
pub mod stream;

pub use fto_obs::ExecutionProfile;
pub use interp::{run_plan_materialized, QueryResult};
pub use metrics::{q_error, ExecRecord, ExecStats, OpMetrics, PlanMetrics, WorkerOpMetrics};
pub use obs::{ObsOptions, Observability};
pub use session::{PreparedQuery, QueryOutput, Session, StatementOutput};
pub use sortkernel::{SegmentStats, SortStats, SpillStats};
pub use stream::{Batch, ExecContext, Operator};

/// Convenience re-exports for the common execution workflow.
pub mod prelude {
    pub use crate::{
        ObsOptions, Observability, PlanMetrics, PreparedQuery, QueryOutput, QueryResult, Session,
        StatementOutput,
    };
    pub use fto_planner::{OptimizerConfig, PlannerStats};
    pub use fto_storage::{Database, IoStats};
}
