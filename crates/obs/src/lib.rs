//! Engine-wide observability primitives, dependency-free by design so
//! every layer of the stack that reports (planner, executor, session)
//! can use them without dependency cycles.
//!
//! Four building blocks:
//!
//! * [`trace`] — the optimizer's decision log: typed events in a bounded
//!   ring that drops oldest first and says how many. A plain value with
//!   no collector behind it: the planner holds one as a field when it
//!   was asked to trace and pushes into it from the call that bumps the
//!   decision's counter, building the payload only then
//!   (`EXPLAIN OPTIMIZER`).
//! * [`metrics`] — a metrics registry: named counters and
//!   log-linear-bucket histograms with a deterministic text exposition
//!   ([`metrics::Registry::expose`]). The session layer feeds each
//!   query's output into it — latency, rows, and every counter of the
//!   accounting stream the execution threaded — so totals reconcile
//!   exactly with the executor's own accounting, whichever sessions share
//!   the registry.
//! * [`slowlog`] — a bounded log of the slowest queries, each entry
//!   carrying the SQL, the annotated plan, and the optimizer trace that
//!   produced it.
//! * [`profile`] — an opt-in execution timeline: span/instant events in
//!   per-thread lanes, identified by (lane, seq), exported as Chrome
//!   trace-event JSON and folded stacks. A plain value like [`trace`] —
//!   each exchange worker fills its own and the coordinator absorbs them
//!   in partition order — but its events carry timestamps, which is why
//!   they never enter the optimizer trace.

#![deny(missing_docs)]

pub mod metrics;
pub mod profile;
pub mod slowlog;
pub mod trace;

pub use metrics::{HistogramSnapshot, Registry};
pub use profile::{ExecutionProfile, LaneProfile, ProfileEvent, SpanKind, Timeline};
pub use slowlog::{SlowQuery, SlowQueryLog};
pub use trace::{Trace, TraceEvent};
