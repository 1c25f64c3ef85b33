//! The exchange layer: morsel-style intra-query parallelism on plain
//! `std::thread` — one operator, [`GatherOp`].
//!
//! At parallel degree P > 1, lowering (in [`crate::stream`]) puts a gather
//! wherever the serial plan drains a *partitionable* subtree — a
//! Filter/Project chain over one table or index scan — at `open` anyway:
//! under an order enforcer without a satisfied prefix (sort, top-n), a join
//! build side, a hash group-by input. The gather fans the subtree out over
//! P scoped worker threads. Every worker lowers its own copy of the
//! subtree **inside** its thread (operator trees never cross threads, so
//! [`crate::stream::Operator`] needs no `Send` bound), drives it over a
//! deterministic scan partition
//! ([`fto_storage::HeapScanState::partition`] /
//! [`fto_storage::IndexScanState::open_partition`]), and fills a private
//! [`ExecRecord`] — counters, per-node slots, its timeline lane — that the
//! coordinator absorbs into the query's record in partition order: nothing
//! is shared between the threads but the read-only context. Page/leaf-aligned
//! partitions charge exactly the pages a serial scan charges, so session
//! totals — and the [`crate::metrics::PlanMetrics`] exact-rollup invariant
//! — are preserved at every degree. Workers hand back the column batches
//! they pulled, a filter's selection still attached; the gather's re-cut
//! is a view within one batch and copies each row once, straight into its
//! output batch, where it spans batches (`Batch::concat`). Nothing here
//! materializes a row, and nothing here sorts: the enforcer above a gather
//! is the serial one.
//!
//! Determinism contract (what makes parallel output bit-identical to
//! serial): the gather concatenates worker outputs in partition order, and
//! partition k of a scan *is* segment k of the serial emission order
//! (reverse index scans map partitions accordingly) — so a gather
//! reproduces the serial row stream exactly, and every operator above it
//! sees what it would see serially.
//!
//! A gather holds its subtree's whole output, so it is lowered only where
//! nothing bounds memory: an execution with a budget lowers serially (see
//! [`crate::stream::ExecContext::new`]), which leaves the three serial
//! breakers — enforcer, join build, hash group-by — as the only code the
//! budget has to reach. A segmented sort streams group by group and
//! therefore never sits on a gather.

use crate::metrics::{ExecRecord, WorkerOpMetrics};
use crate::stream::{lower_worker, Batch, BatchQueue, ExecContext, Operator};
use fto_common::{ColSet, Result};
use fto_obs::{SpanKind, Timeline};
use fto_planner::Plan;
use std::sync::Arc;
use std::time::Instant;

/// Everything a worker needs to lower and drive its partition of a
/// gathered subtree.
pub(crate) struct PartitionSpec {
    /// The subtree each worker lowers privately.
    pub plan: Arc<Plan>,
    /// The columns the gather's consumer reads: every worker lowers the
    /// subtree for them, so the gather emits what a serial lowering would.
    pub needed: ColSet,
    /// Number of partitions (the gather's degree of parallelism).
    pub parts: usize,
    /// Pre-order id of the subtree's root (workers number their wrappers
    /// from here, so they fill the slots the coordinator has for them).
    pub base_id: usize,
}

/// Runs the spec's subtree over all partitions: worker `k` lowers it over
/// partition `k` on its own scoped thread and drains it as column batches.
/// Each worker fills a private [`ExecRecord`] built inside its thread from
/// plain copies — the coordinator's slot count and timeline epoch — on a
/// lane `"worker p{k}"` inside an exchange span `"partition p{k}"`. The
/// coordinator absorbs the records in partition order, so its totals,
/// per-node sums and lane numbering never depend on thread scheduling.
/// Results come back in partition order, each with its worker's share.
fn run_partitions(
    cx: &ExecContext<'_>,
    rec: &mut ExecRecord,
    spec: &PartitionSpec,
) -> Result<Vec<(Vec<Batch>, WorkerOpMetrics)>> {
    let parts = spec.parts;
    // Worker contexts pin threads to 1: partition pipelines never nest
    // exchanges.
    let wcx = ExecContext { threads: 1, ..*cx };
    let nodes = rec.ops.len();
    let epoch = rec.timeline.as_ref().map(|t| t.epoch());
    let drain = |part: usize, wrec: &mut ExecRecord| -> Result<Vec<Batch>> {
        // Like the coordinator, a worker instruments when its record has
        // slots to fill.
        let (instrument, base) = (nodes > 0, spec.base_id);
        let mut op = lower_worker(
            &wcx,
            &spec.plan,
            &spec.needed,
            (part, parts),
            instrument,
            base,
        )?;
        op.open(&wcx, wrec)?;
        let mut pulled = Vec::new();
        while let Some(batch) = op.next_batch(&wcx, wrec)? {
            pulled.push(batch);
        }
        op.close(wrec);
        Ok(pulled)
    };
    let finished: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..parts)
            .map(|part| {
                let drain = &drain;
                s.spawn(move || {
                    let started = Instant::now();
                    let timeline = epoch.map(|e| Timeline::new(e, format!("worker p{part}")));
                    let mut wrec = ExecRecord::new(nodes, timeline);
                    let name = || format!("partition p{part}");
                    wrec.emit(SpanKind::Begin, "exchange", name, Vec::new);
                    let pulled = drain(part, &mut wrec);
                    wrec.emit(SpanKind::End, "exchange", name, Vec::new);
                    (pulled, started.elapsed(), wrec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    finished
        .into_iter()
        .map(|(pulled, elapsed, wrec)| {
            let stats = rec.absorb(wrec);
            let pulled = pulled?;
            let share = WorkerOpMetrics {
                rows: pulled.iter().map(|b| b.len() as u64).sum(),
                batches: pulled.len() as u64,
                stats,
                elapsed,
            };
            Ok((pulled, share))
        })
        .collect()
}

/// Order-preserving gather: drains the P partition pipelines on worker
/// threads and concatenates the batches they pulled in partition order —
/// exactly the serial emission order — re-cut to `batch_size`. A re-cut
/// within one pulled batch is a view of it; one that spans batches copies
/// each row once, a selected batch's included. Inserted
/// where the parent fully drains the child at `open` (an enforcer without
/// a satisfied prefix, join build sides, hash group-by inputs).
///
/// The gather deliberately has no metric slot of its own: the workers'
/// wrappers record rows/batches/counters into the gathered subtree's slots,
/// and their per-worker breakdown lands on the subtree root's
/// [`OpMetrics::workers`](crate::metrics::OpMetrics::workers).
pub(crate) struct GatherOp {
    spec: PartitionSpec,
    out: BatchQueue,
}

impl GatherOp {
    pub(crate) fn new(spec: PartitionSpec) -> GatherOp {
        GatherOp {
            spec,
            out: BatchQueue::default(),
        }
    }
}

impl Operator for GatherOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        let runs = run_partitions(cx, rec, &self.spec)?;
        let mut workers = Vec::with_capacity(runs.len());
        self.out.clear();
        for (pulled, share) in runs {
            workers.push(share);
            pulled.into_iter().for_each(|b| self.out.push(b));
        }
        if let Some(slot) = rec.ops.get_mut(self.spec.base_id) {
            slot.workers = workers;
        }
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, _: &mut ExecRecord) -> Result<Option<Batch>> {
        if self.out.is_empty() {
            return Ok(None);
        }
        self.out.take(cx.batch_size).map(Some)
    }

    fn close(&mut self, _: &mut ExecRecord) {
        self.out.clear();
    }
}
