//! Engine-wide observability primitives, dependency-free by design so
//! every layer of the stack (order reasoning, planner, executor,
//! session) can emit into them without dependency cycles.
//!
//! Three building blocks:
//!
//! * [`trace`] — a structured trace collector: typed events and spans
//!   recorded into a bounded ring buffer. Collection is **thread-local**
//!   and strictly opt-in: until a [`trace::TraceGuard`] is installed on
//!   the current thread every emission is a single branch on a
//!   thread-local flag, and event payloads are built inside closures
//!   that never run. The planner uses this to narrate its decisions
//!   (`EXPLAIN OPTIMIZER`).
//! * [`metrics`] — a metrics registry: named counters, gauges and
//!   log-linear-bucket histograms with a deterministic text exposition
//!   ([`metrics::Registry::expose`]). The session layer feeds each
//!   query's output into it — latency, rows, and every counter of the
//!   accounting stream the execution threaded — so totals reconcile
//!   exactly with the executor's own accounting, whichever sessions share
//!   the registry.
//! * [`slowlog`] — a bounded log of the slowest queries, each entry
//!   carrying the SQL, the annotated plan, and the optimizer trace that
//!   produced it.
//! * [`profile`] — an opt-in execution timeline profiler: span/instant
//!   events buffered per worker lane, merged deterministically by
//!   (lane, seq), exported as Chrome trace-event JSON and folded stacks.
//!   Unlike [`trace`], profile events carry timestamps — which is why
//!   they live in their own buffers and never enter the optimizer trace.

#![deny(missing_docs)]

pub mod metrics;
pub mod profile;
pub mod slowlog;
pub mod trace;

pub use metrics::{HistogramSnapshot, Registry};
pub use profile::{ExecutionProfile, LaneGuard, LaneProfile, ProfileEvent, Profiler, SpanKind};
pub use slowlog::{SlowQuery, SlowQueryLog};
pub use trace::{Trace, TraceCounts, TraceEvent, TraceGuard};
