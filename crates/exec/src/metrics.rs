//! The execution record ([`ExecRecord`]) — the accounting stream
//! ([`ExecStats`]) and whatever else one execution records — and the
//! machine-readable per-operator metrics derived from it.
//!
//! Every [`Operator`](crate::stream::Operator) call threads one
//! `&mut ExecRecord`. Its `stats` are the accounting stream — simulated
//! page I/O plus the sort, spill and segmented-sort counters; beside them
//! ride the per-node slots of an instrumented execution, the timeline of
//! a profiled one and the buffer pool of a budgeted one. Whatever does
//! work writes into the record it was handed, and exchange workers fill a
//! private record the coordinator absorbs in
//! partition order. That is the only way an observation travels — nothing
//! is shared, locked or installed on a thread — so the session totals are
//! the finished stream, exact per query under any number of concurrent
//! sessions.
//!
//! An instrumented execution wraps every operator in the lowered tree and
//! records, per plan node, the rows and batches it produced, the stream's
//! delta while its subtree was running, and the wall-clock time spent
//! inside it. Nodes are identified by their *pre-order* position in the
//! plan tree (root = 0, children visited outer/left first) — the same
//! numbering [`fto_planner::Plan::explain_annotated`] passes to its
//! annotation callback, so metrics line up with rendered plans without
//! any joins.
//!
//! Recorded counters are **inclusive** of children: an operator's slot
//! accumulates everything charged between entering and leaving its
//! subtree. Exclusive ("self") figures are derived by subtracting the
//! children's inclusive counters, which makes the rollup loss-free by
//! construction: summing every node's self delta telescopes back to the
//! root's inclusive total, which is exactly the session-level stream —
//! for every counter in it, pages and comparisons alike. The subtraction
//! is checked — a child charging more than its parent observed is an
//! attribution bug and surfaces as `None` rather than a silently wrong
//! report.

use crate::sortkernel::{SegmentStats, SortStats, SpillStats};
use fto_obs::{SpanKind, Timeline};
use fto_storage::{BufferPool, IoStats};
use std::time::Duration;

/// Everything one execution counts — the stream threaded through every
/// [`Operator`](crate::stream::Operator) call. Storage calls receive
/// `&mut stats.io`; the order enforcer and the spilling operators add to
/// the rest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Simulated page I/O.
    pub io: IoStats,
    /// Sort-kernel work: key bytes ordered, comparisons made.
    pub sort: SortStats,
    /// Runs (or hash partitions) spilled and external merge passes.
    pub spill: SpillStats,
    /// Prefix groups formed by segmented sorts.
    pub segment: SegmentStats,
}

impl ExecStats {
    /// Adds another stream's counters into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.io.merge(&other.io);
        self.sort.key_bytes += other.sort.key_bytes;
        self.sort.comparisons += other.sort.comparisons;
        self.spill.runs_formed += other.spill.runs_formed;
        self.spill.merge_passes += other.spill.merge_passes;
        self.segment.groups_formed += other.segment.groups_formed;
    }

    /// `self - other` when no counter of `other` exceeds its counterpart
    /// in `self`; `None` otherwise (see [`IoStats::checked_sub`]).
    pub fn checked_sub(&self, other: &ExecStats) -> Option<ExecStats> {
        let (a, b) = (self, other);
        Some(ExecStats {
            io: a.io.checked_sub(&b.io)?,
            sort: SortStats {
                key_bytes: a.sort.key_bytes.checked_sub(b.sort.key_bytes)?,
                comparisons: a.sort.comparisons.checked_sub(b.sort.comparisons)?,
            },
            spill: SpillStats {
                runs_formed: a.spill.runs_formed.checked_sub(b.spill.runs_formed)?,
                merge_passes: a.spill.merge_passes.checked_sub(b.spill.merge_passes)?,
            },
            segment: SegmentStats {
                groups_formed: a
                    .segment
                    .groups_formed
                    .checked_sub(b.segment.groups_formed)?,
            },
        })
    }

    /// The counters accumulated since `earlier`, which must be a snapshot
    /// of this same stream taken before `self`: counters only grow (see
    /// [`IoStats::delta_since`]). The per-call path of the instrumentation
    /// wrappers, so plain subtraction, not [`ExecStats::checked_sub`].
    pub fn delta_since(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            io: self.io.delta_since(&earlier.io),
            sort: SortStats {
                key_bytes: self.sort.key_bytes - earlier.sort.key_bytes,
                comparisons: self.sort.comparisons - earlier.sort.comparisons,
            },
            spill: SpillStats {
                runs_formed: self.spill.runs_formed - earlier.spill.runs_formed,
                merge_passes: self.spill.merge_passes - earlier.spill.merge_passes,
            },
            segment: SegmentStats {
                groups_formed: self.segment.groups_formed - earlier.segment.groups_formed,
            },
        }
    }
}

/// Everything one execution records — the one `&mut` threaded through
/// every [`Operator`](crate::stream::Operator) call. A plain execution
/// fills only `stats`; an instrumented one also has a slot per plan node,
/// a profiled one a timeline, a budgeted one a buffer pool.
#[derive(Debug, Default)]
pub struct ExecRecord {
    /// The accounting stream: every counter the execution reports.
    pub stats: ExecStats,
    /// Per-node actuals (rows, batches, inclusive counters, time, worker
    /// shares) by pre-order id; empty when not instrumented.
    pub(crate) ops: Vec<OpMetrics>,
    /// This thread's lane, then the lanes absorbed from exchange workers;
    /// `None` when not profiling.
    pub(crate) timeline: Option<Timeline>,
    /// The bounded buffer pool heap-page touches route through under a
    /// memory budget (`None` leaves page charging as it is unbounded).
    pub(crate) pool: Option<BufferPool>,
}

impl ExecRecord {
    /// A record with a buffer pool of `budget` bytes (if any), `nodes`
    /// per-node slots (zero: not instrumented) and, when profiling, a
    /// timeline. An exchange worker builds its own from plain copies — the
    /// coordinator's node count and epoch — and never a pool: a budgeted
    /// execution lowers no exchange.
    pub(crate) fn new(budget: Option<usize>, nodes: usize, timeline: Option<Timeline>) -> Self {
        ExecRecord {
            stats: ExecStats::default(),
            ops: vec![OpMetrics::default(); nodes],
            timeline,
            pool: budget.map(BufferPool::new),
        }
    }

    /// Folds a finished worker's private record into this one — counters
    /// summed, per-node actuals summed slot by slot, lanes appended — and
    /// returns the worker's counters, its share of the exchange. Workers
    /// are absorbed in partition order, so lane ids are partition order.
    pub(crate) fn absorb(&mut self, worker: ExecRecord) -> ExecStats {
        self.stats.merge(&worker.stats);
        for (mine, theirs) in self.ops.iter_mut().zip(worker.ops) {
            mine.rows += theirs.rows;
            mine.batches += theirs.batches;
            mine.stats.merge(&theirs.stats);
            mine.elapsed += theirs.elapsed;
        }
        if let (Some(mine), Some(theirs)) = (&mut self.timeline, worker.timeline) {
            mine.absorb(theirs);
        }
        worker.stats
    }

    /// Puts one event on this thread's lane. Without a timeline — every
    /// execution but a profiled one — neither payload closure runs.
    pub(crate) fn emit(
        &mut self,
        kind: SpanKind,
        cat: &'static str,
        name: impl FnOnce() -> String,
        args: impl FnOnce() -> Vec<(&'static str, u64)>,
    ) {
        if let Some(timeline) = &mut self.timeline {
            timeline.push(kind, cat, name(), args());
        }
    }

    /// Counts one occurrence of a timeline-worthy event — a spilled run,
    /// a merge pass, a sealed segment group: the counter and, when
    /// profiling, the instant, in one call so the two cannot disagree.
    pub(crate) fn mark(
        &mut self,
        counter: impl FnOnce(&mut ExecStats) -> &mut u64,
        cat: &'static str,
        name: &'static str,
    ) {
        *counter(&mut self.stats) += 1;
        self.emit(SpanKind::Instant, cat, || name.to_string(), Vec::new);
    }
}

/// The cardinality Q-error between an estimate and an actual: the
/// multiplicative factor `max(est, act) / min(est, act)` by which the
/// estimate missed, always ≥ 1.0 (1.0 = exact). Both sides are clamped
/// to ≥ 1.0 first, so "estimated 0.2 rows, saw 0" is not an infinite
/// error — sub-row disagreements cannot be acted on and are treated as
/// exact.
pub fn q_error(est: f64, actual: f64) -> f64 {
    let est = est.max(1.0);
    let actual = actual.max(1.0);
    est.max(actual) / est.min(actual)
}

/// Execution metrics recorded for one plan operator.
///
/// `stats` and `elapsed` are inclusive of the operator's children; see the
/// module docs. Use [`PlanMetrics::self_stats`] /
/// [`PlanMetrics::self_elapsed`] for exclusive figures.
#[derive(Clone, Debug, Default)]
pub struct OpMetrics {
    /// Operator name, as [`fto_planner::Plan::op_name`] renders it.
    pub name: String,
    /// Rows this operator returned to its parent.
    pub rows: u64,
    /// Non-empty batches this operator returned to its parent.
    pub batches: u64,
    /// Everything charged while this operator's subtree was running
    /// (inclusive of children).
    pub stats: ExecStats,
    /// Wall-clock time spent inside this operator's subtree (inclusive).
    pub elapsed: Duration,
    /// Per-worker contributions when this node is the root of a gathered
    /// subtree at parallel degree > 1. Empty otherwise. The workers' rows
    /// sum to this node's `rows`; their `stats` sum into this node's
    /// inclusive `stats`, so the rollup invariant is unaffected.
    pub workers: Vec<WorkerOpMetrics>,
    /// The planner's row estimate for this operator
    /// ([`fto_planner::Cost::rows`]), recorded at lowering time so
    /// estimates sit next to actuals in one place.
    pub est_rows: f64,
    /// The planner's page-cost estimate for this operator's own work
    /// ([`fto_planner::Plan::self_cost`]).
    pub est_cost: f64,
    /// For segmented sorts, the planner's prefix-group-count estimate;
    /// `None` for every other operator. The actual count is the node's
    /// self `segment.groups_formed`.
    pub est_groups: Option<u64>,
}

impl OpMetrics {
    /// The cardinality Q-error of this operator's row estimate
    /// (see [`q_error`]).
    pub fn rows_q_error(&self) -> f64 {
        q_error(self.est_rows, self.rows as f64)
    }
}

/// One worker's share of a gathered subtree's work.
#[derive(Clone, Debug, Default)]
pub struct WorkerOpMetrics {
    /// Rows this worker produced into the gather.
    pub rows: u64,
    /// Non-empty batches this worker pulled from its partition pipeline.
    pub batches: u64,
    /// Everything this worker's private stream charged: its partition
    /// pipeline's I/O.
    pub stats: ExecStats,
    /// Wall-clock time this worker spent draining its partition.
    pub elapsed: Duration,
}

/// Per-operator metrics for one execution of a plan.
///
/// `ops[id]` holds the metrics of the plan node with pre-order id `id`;
/// `children[id]` lists that node's direct children's ids.
#[derive(Clone, Debug)]
pub struct PlanMetrics {
    /// One entry per plan node, indexed by pre-order id.
    pub ops: Vec<OpMetrics>,
    /// Direct-children ids per node, parallel to `ops`.
    pub children: Vec<Vec<usize>>,
}

impl PlanMetrics {
    /// Number of instrumented operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when no operators were instrumented.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// What operator `id` itself charged, excluding its children: the
    /// node's inclusive counters minus each child's inclusive counters.
    /// Returns `None` when a child recorded more than the parent observed
    /// — an attribution bug, never a legitimate state.
    pub fn self_stats(&self, id: usize) -> Option<ExecStats> {
        let mut acc = self.ops[id].stats;
        for &c in &self.children[id] {
            acc = acc.checked_sub(&self.ops[c].stats)?;
        }
        Some(acc)
    }

    /// Wall-clock time spent in operator `id` itself, excluding children
    /// (saturating: timer jitter can make the difference marginally
    /// negative).
    pub fn self_elapsed(&self, id: usize) -> Duration {
        let mut acc = self.ops[id].elapsed;
        for &c in &self.children[id] {
            acc = acc.saturating_sub(self.ops[c].elapsed);
        }
        acc
    }

    /// The root's inclusive counters — equal to the session-level totals
    /// for the execution that produced these metrics.
    pub fn total(&self) -> ExecStats {
        self.ops.first().map(|m| m.stats).unwrap_or_default()
    }

    /// Sum of every operator's *self* counters. Equals
    /// [`PlanMetrics::total`] whenever attribution is consistent (the sum
    /// telescopes); `None` if any node fails [`PlanMetrics::self_stats`].
    pub fn summed_self(&self) -> Option<ExecStats> {
        let mut total = ExecStats::default();
        for id in 0..self.ops.len() {
            total.merge(&self.self_stats(id)?);
        }
        Some(total)
    }

    /// The operator with the worst row-estimate Q-error, as
    /// `(pre-order id, q_error)`. Ties resolve to the smallest id, so
    /// the answer is deterministic. `None` only when there are no ops.
    pub fn worst_q_error(&self) -> Option<(usize, f64)> {
        let mut worst: Option<(usize, f64)> = None;
        for (id, op) in self.ops.iter().enumerate() {
            let q = op.rows_q_error();
            if worst.map(|(_, w)| q > w).unwrap_or(true) {
                worst = Some((id, q));
            }
        }
        worst
    }

    /// Checks the rollup invariant, for every counter of the stream:
    /// every node's self delta is well-defined and their sum equals the
    /// root's inclusive total. Returns a description of the first
    /// violation, if any.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let mut summed = ExecStats::default();
        for id in 0..self.ops.len() {
            let own = self.self_stats(id).ok_or_else(|| {
                format!(
                    "operator {id} ({}): children charged more than the node observed",
                    self.ops[id].name
                )
            })?;
            summed.merge(&own);
        }
        let total = self.total();
        if summed != total {
            return Err(format!(
                "summed self counters ({summed:?}) != root inclusive counters ({total:?})"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream that charged `seq` sequential pages and `cmps` comparisons.
    fn charged(seq: u64, cmps: u64) -> ExecStats {
        let mut stats = ExecStats::default();
        stats.io.sequential_pages = seq;
        stats.sort.comparisons = cmps;
        stats
    }

    fn m(name: &str, rows: u64, stats: ExecStats) -> OpMetrics {
        OpMetrics {
            name: name.to_string(),
            rows,
            batches: 1,
            stats,
            elapsed: Duration::from_micros(10),
            est_rows: rows as f64,
            ..OpMetrics::default()
        }
    }

    #[test]
    fn self_stats_subtract_children_and_sum_to_total() {
        // sort(0) -> filter(1) -> scan(2); scan charges 5 seq pages,
        // filter adds nothing, sort adds 2 comparisons.
        let pm = PlanMetrics {
            ops: vec![
                m("sort", 10, charged(5, 2)),
                m("filter", 10, charged(5, 0)),
                m("table-scan", 40, charged(5, 0)),
            ],
            children: vec![vec![1], vec![2], vec![]],
        };
        assert_eq!(pm.self_stats(0), Some(charged(0, 2)));
        assert_eq!(pm.self_stats(1), Some(charged(0, 0)));
        assert_eq!(pm.self_stats(2), Some(charged(5, 0)));
        assert_eq!(pm.summed_self(), Some(charged(5, 2)));
        assert_eq!(pm.total(), charged(5, 2));
        assert!(pm.validate().is_ok());
    }

    #[test]
    fn record_without_a_lane_runs_no_payload_closure() {
        // The two ways an event reaches the timeline, first without one:
        // the counter moves, nothing is built.
        let mut built = 0;
        let mut name = || {
            built += 1;
            "sort#0.open".to_string()
        };
        let mut rec = ExecRecord::default();
        rec.emit(SpanKind::Begin, "operator", &mut name, Vec::new);
        rec.mark(
            |s| &mut s.spill.runs_formed,
            "spill",
            "spill.runs_formed x1",
        );
        assert!(rec.timeline.is_none());
        // With one, the same calls land on its lane — and the counter
        // moves exactly as before.
        let lane = Timeline::new(std::time::Instant::now(), "coordinator");
        let mut profiled = ExecRecord::new(None, 0, Some(lane));
        profiled.emit(SpanKind::Begin, "operator", &mut name, Vec::new);
        profiled.mark(
            |s| &mut s.spill.runs_formed,
            "spill",
            "spill.runs_formed x1",
        );
        assert_eq!(built, 1, "only the profiled record builds the name");
        assert_eq!(rec.stats, profiled.stats);
        assert_eq!(rec.stats.spill.runs_formed, 1);
        let profile = profiled.timeline.map(Timeline::finish).unwrap_or_default();
        let events: Vec<_> = profile.lanes[0]
            .events
            .iter()
            .map(|e| (e.kind, e.cat, e.name.as_str()))
            .collect();
        assert_eq!(
            events,
            [
                (SpanKind::Begin, "operator", "sort#0.open"),
                (SpanKind::Instant, "spill", "spill.runs_formed x1")
            ]
        );
    }

    #[test]
    fn stream_arithmetic_covers_every_counter() {
        // One stream per counter, holding 1 there and 0 elsewhere: merge,
        // checked_sub and delta_since must each see all fourteen.
        let counters: [fn(&mut ExecStats) -> &mut u64; 14] = [
            |s| &mut s.io.sequential_pages,
            |s| &mut s.io.random_pages,
            |s| &mut s.io.index_pages,
            |s| &mut s.io.sort_rows,
            |s| &mut s.io.rows_read,
            |s| &mut s.io.spill_pages_written,
            |s| &mut s.io.spill_pages_read,
            |s| &mut s.io.pool_hits,
            |s| &mut s.io.pool_misses,
            |s| &mut s.sort.key_bytes,
            |s| &mut s.sort.comparisons,
            |s| &mut s.spill.runs_formed,
            |s| &mut s.spill.merge_passes,
            |s| &mut s.segment.groups_formed,
        ];
        let zero = ExecStats::default();
        let mut all = zero;
        for counter in counters {
            let mut one = zero;
            *counter(&mut one) = 1;
            assert_ne!(one, zero);
            let mut two = one;
            two.merge(&one);
            assert_eq!(*counter(&mut two), 2);
            assert_eq!(two.delta_since(&one), one);
            assert_eq!(zero.checked_sub(&one), None);
            all.merge(&one);
        }
        for counter in counters {
            assert_eq!(*counter(&mut all), 1);
        }
    }

    #[test]
    fn inconsistent_attribution_is_detected() {
        // Child claims more than the parent observed — pages, or any
        // other counter of the stream.
        for (parent, child) in [
            (charged(1, 0), charged(3, 0)),
            (charged(3, 1), charged(3, 2)),
        ] {
            let pm = PlanMetrics {
                ops: vec![m("limit", 1, parent), m("table-scan", 1, child)],
                children: vec![vec![1], vec![]],
            };
            assert_eq!(pm.self_stats(0), None);
            assert!(pm.validate().is_err());
        }
    }

    #[test]
    fn q_error_is_symmetric_and_clamps_below_one_row() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(10.0, 100.0), 10.0);
        // Sub-row estimates and zero actuals are treated as exact-ish:
        // both sides clamp to 1 before dividing.
        assert_eq!(q_error(0.2, 0.0), 1.0);
        assert_eq!(q_error(0.0, 5.0), 5.0);
        assert!(q_error(f64::NAN.max(1.0), 1.0) >= 1.0);
    }

    #[test]
    fn worst_q_error_picks_largest_with_smallest_id_on_ties() {
        let mut a = m("scan", 100, charged(1, 0));
        a.est_rows = 100.0; // q = 1
        let mut b = m("filter", 10, charged(1, 0));
        b.est_rows = 40.0; // q = 4
        let mut c = m("sort", 10, charged(1, 0));
        c.est_rows = 40.0; // q = 4, ties with b -> b (smaller id) wins
        let pm = PlanMetrics {
            ops: vec![a, b, c],
            children: vec![vec![1], vec![2], vec![]],
        };
        assert_eq!(pm.worst_q_error(), Some((1, 4.0)));
    }
}
