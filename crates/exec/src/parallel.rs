//! The exchange layer: morsel-style intra-query parallelism on plain
//! `std::thread`.
//!
//! At parallel degree P > 1, lowering (in [`crate::stream`]) replaces
//! eligible plan positions with the operators here. Each exchange fans a
//! *partitionable* subtree — a Filter/Project chain over one table or
//! index scan — out over P scoped worker threads. Every worker lowers its
//! own copy of the subtree **inside** its thread (operator trees never
//! cross threads, so [`crate::stream::Operator`] needs no `Send` bound),
//! drives it over a deterministic scan partition
//! ([`fto_storage::HeapScanState::partition`] /
//! [`fto_storage::IndexScanState::open_partition`]), and fills a private
//! [`ExecRecord`] — counters, per-node slots, its timeline lane, its own
//! buffer pool — that the coordinator absorbs into the query's record in
//! partition order: nothing is shared between the threads but the
//! read-only context. Page/leaf-aligned partitions charge exactly the
//! pages a serial scan charges, so session totals — and the
//! [`crate::metrics::PlanMetrics`] exact-rollup invariant — are preserved
//! at every degree. Workers hand back the column batches they pulled;
//! nothing here materializes a row.
//!
//! Determinism contract (what makes parallel output bit-identical to
//! serial):
//!
//! * [`GatherOp`] concatenates worker outputs in partition order, and
//!   partition k of a scan *is* segment k of the serial emission order
//!   (reverse index scans map partitions accordingly) — so a gather
//!   reproduces the serial stream exactly.
//! * [`SortExchangeOp`] has each worker order its rows with the
//!   permutation kernel ([`crate::sortkernel`]) into a run tagged with
//!   serial input positions, then K-way merges by `(key, seq)` —
//!   reproducing the serial stable sort. Over a partitionable input the
//!   workers drain the partitions and tag locally; the coordinator
//!   rebases run k onto the interval of serial positions partition k
//!   covered. Over any other input the coordinator drains the child
//!   serially and deals rows round-robin, so worker k's rows already
//!   carry their global positions. With a `limit` each worker keeps its
//!   local top-N and the merge stops after N rows — any row of the
//!   global top-N is necessarily in its partition's top-N.
//!
//! All exchanges are pipeline breakers that materialize at `open`; they
//! are only inserted where the serial plan drains its input at `open`
//! anyway (sort, top-n, join build sides, hash group-by inputs), so
//! early-termination behavior above them is unchanged. A segmented sort
//! streams group by group and therefore never lowers to an exchange.

use crate::metrics::{ExecRecord, ExecStats, WorkerOpMetrics};
use crate::sortkernel::{gather_rows, merge_runs, Run, SortBuf, SortKeys, SortStats};
use crate::stream::{lower_worker, Batch, BatchQueue, ExecContext, Operator};
use fto_common::Result;
use fto_obs::{SpanKind, Timeline};
use fto_planner::Plan;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a worker needs to lower and drive its partition of an
/// exchanged subtree.
pub(crate) struct PartitionSpec {
    /// The subtree each worker lowers privately.
    pub plan: Arc<Plan>,
    /// Number of partitions (the exchange's degree of parallelism).
    pub parts: usize,
    /// Pre-order id of the subtree's root (workers number their wrappers
    /// from here, so they fill the slots the coordinator has for them).
    pub base_id: usize,
}

/// One worker's result: the finished payload plus its drive statistics
/// (its accounting stream comes back with its record).
struct WorkerRun<T> {
    out: T,
    batches: u64,
    elapsed: Duration,
}

/// Runs `work(part, record)` for every partition on its own scoped
/// thread. Each worker fills a private [`ExecRecord`] built inside its
/// thread from plain copies — the coordinator's slot count and timeline
/// epoch, a buffer pool of `budget` bytes — on a lane `"{lane} p{part}"`
/// inside an exchange span `"{span} p{part}"`. The coordinator absorbs the
/// records in partition order, so its totals, per-node sums and lane
/// numbering never depend on thread scheduling. Results come back in
/// partition order, each with its worker's counters.
fn on_workers<T: Send>(
    rec: &mut ExecRecord,
    parts: usize,
    budget: Option<usize>,
    (lane, span): (&str, &str),
    work: impl Fn(usize, &mut ExecRecord) -> T + Sync,
) -> Vec<(T, ExecStats)> {
    let nodes = rec.ops.len();
    let epoch = rec.timeline.as_ref().map(|t| t.epoch());
    let finished: Vec<(T, ExecRecord)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..parts)
            .map(|part| {
                let work = &work;
                s.spawn(move || {
                    let timeline = epoch.map(|e| Timeline::new(e, format!("{lane} p{part}")));
                    let mut wrec = ExecRecord::new(budget, nodes, timeline);
                    let name = || format!("{span} p{part}");
                    wrec.emit(SpanKind::Begin, "exchange", name, Vec::new);
                    let out = work(part, &mut wrec);
                    wrec.emit(SpanKind::End, "exchange", name, Vec::new);
                    (out, wrec)
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
        .map(|(out, wrec)| (out, rec.absorb(wrec)))
        .collect()
}

/// Runs the spec's subtree over all partitions: worker `k` drains
/// partition `k` as column batches and then applies `finish` (e.g.
/// sorting them into a run) before returning. A worker's private record
/// captures everything it charged — including whatever `finish` adds —
/// and is absorbed into `rec` in partition order.
fn run_partitions<T, F>(
    cx: &ExecContext<'_>,
    rec: &mut ExecRecord,
    spec: &PartitionSpec,
    finish: F,
) -> Result<Vec<(WorkerRun<T>, ExecStats)>>
where
    T: Send,
    F: Fn(Vec<Batch>, &mut ExecStats) -> Result<T> + Sync,
{
    let parts = spec.parts;
    // Worker contexts pin threads to 1: partition pipelines never nest
    // exchanges. A memory budget splits into per-worker sub-budgets of
    // `budget / P` (at least one byte), so P bounded partition pipelines
    // together stay within the query's budget; each worker's record gets
    // a private pool of its share.
    let sub_budget = cx.memory_budget.map(|b| (b / parts).max(1));
    let wcx = ExecContext {
        threads: 1,
        memory_budget: sub_budget,
        ..*cx
    };
    let work = |part, wrec: &mut ExecRecord| -> Result<WorkerRun<T>> {
        let started = Instant::now();
        // Like the coordinator, a worker instruments when its record has
        // slots to fill.
        let instrument = !wrec.ops.is_empty();
        let mut op = lower_worker(&wcx, &spec.plan, (part, parts), instrument, spec.base_id)?;
        op.open(&wcx, wrec)?;
        let mut pulled = Vec::new();
        while let Some(batch) = op.next_batch(&wcx, wrec)? {
            pulled.push(batch);
        }
        op.close(wrec);
        let batches = pulled.len() as u64;
        let out = finish(pulled, &mut wrec.stats)?;
        Ok(WorkerRun {
            out,
            batches,
            elapsed: started.elapsed(),
        })
    };
    on_workers(rec, parts, sub_budget, ("worker", "partition"), work)
        .into_iter()
        .map(|(run, stats)| Ok((run?, stats)))
        .collect()
}

/// Order-preserving gather: drains the P partition pipelines on worker
/// threads and concatenates the batches they pulled in partition order —
/// exactly the serial emission order — re-cut to `batch_size`. Inserted
/// where the parent fully drains the child at `open` (join build sides,
/// hash group-by inputs).
///
/// The gather deliberately has no metric slot of its own: the workers'
/// wrappers record rows/batches/counters into the exchanged subtree's slots,
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
        let runs = run_partitions(cx, rec, &self.spec, |batches, _| Ok(batches))?;
        let mut workers = Vec::with_capacity(runs.len());
        self.out.clear();
        for (run, stats) in runs {
            workers.push(WorkerOpMetrics {
                rows: run.out.iter().map(|b| b.len() as u64).sum(),
                batches: run.batches,
                stats,
                elapsed: run.elapsed,
            });
            run.out.into_iter().for_each(|b| self.out.push(b));
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

/// Where a [`SortExchangeOp`]'s workers get their rows.
pub(crate) enum SortSource {
    /// Workers drain the partitions of a partitionable subtree.
    Partitioned(PartitionSpec),
    /// The coordinator drains a serial child and deals its rows
    /// round-robin over `parts` workers.
    RoundRobin {
        child: Box<dyn Operator>,
        parts: usize,
    },
}

/// Orders every `parts`-th row of `batches` starting at row `part` —
/// `(0, 1)` is all of them — under `keys` into a run tagged with the
/// rows' positions in `batches`, cut to the first `limit` rows. Adds the
/// sort's work to `stats`.
pub(crate) fn sort_run(
    batches: &[Batch],
    keys: &SortKeys,
    limit: Option<usize>,
    (part, parts): (u64, u64),
    stats: &mut SortStats,
) -> Result<Run> {
    let mut buf = SortBuf::default();
    let mut base = 0u64;
    for batch in batches {
        let tags = (base..base + batch.len() as u64).filter(|g| g % parts == part);
        if parts == 1 {
            buf.push_batch(batch, keys, tags);
        } else {
            let dealt: Vec<u32> = tags.clone().map(|g| (g - base) as u32).collect();
            buf.push_batch(&batch.gather(&dealt), keys, tags);
        }
        base += batch.len() as u64;
    }
    buf.run(&buf.ordered(limit, stats))
}

/// The parallel order enforcer for a full (no satisfied prefix) sort or
/// top-N: workers order disjoint pieces of the serial input into runs
/// tagged with serial positions, the coordinator K-way merges them by
/// `(key, seq)` — bit-identical to the serial enforcer's output,
/// including the choice among rows tied at a `limit` (earliest serial
/// positions win).
pub(crate) struct SortExchangeOp {
    source: SortSource,
    keys: SortKeys,
    limit: Option<usize>,
    /// Pre-order id of the enforcer this exchange stands in for: where
    /// the per-worker breakdown goes.
    id: usize,
    runs: Vec<Batch>,
    merged: Vec<(u32, u32)>,
    pos: usize,
}

impl SortExchangeOp {
    pub(crate) fn new(
        source: SortSource,
        keys: SortKeys,
        limit: Option<usize>,
        id: usize,
    ) -> SortExchangeOp {
        SortExchangeOp {
            source,
            keys,
            limit,
            id,
            runs: Vec::new(),
            merged: Vec::new(),
            pos: 0,
        }
    }
}

impl Operator for SortExchangeOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        let (keys, limit) = (&self.keys, self.limit);
        let mut workers = Vec::new();
        let mut runs = Vec::new();
        match &mut self.source {
            SortSource::Partitioned(spec) => {
                // Each worker sorts its run inside the thread — the
                // parallel half of the work — tagging by local position;
                // a full sort charges the run to `sort_rows` there.
                let sorted = run_partitions(cx, rec, spec, |batches, wstats| {
                    let drained: u64 = batches.iter().map(|b| b.len() as u64).sum();
                    if limit.is_none() {
                        wstats.io.sort_rows += drained;
                    }
                    let run = sort_run(&batches, keys, limit, (0, 1), &mut wstats.sort)?;
                    Ok((run, drained))
                })?;
                let mut base = 0u64;
                for (worker, stats) in sorted {
                    let (mut run, drained) = worker.out;
                    workers.push(WorkerOpMetrics {
                        rows: run.seqs.len() as u64,
                        batches: worker.batches,
                        stats,
                        elapsed: worker.elapsed,
                    });
                    // Rebase local tags onto the partition's serial interval.
                    run.seqs.iter_mut().for_each(|s| *s += base);
                    base += drained;
                    runs.push(run);
                }
            }
            SortSource::RoundRobin { child, parts } => {
                let parts = *parts as u64;
                child.open(cx, rec)?;
                let mut batches = Vec::new();
                while let Some(batch) = child.next_batch(cx, rec)? {
                    if limit.is_none() {
                        rec.stats.io.sort_rows += batch.len() as u64;
                    }
                    batches.push(batch);
                }
                child.close(rec);
                // Bucket sorts touch no pages (so need no pool) and pull
                // no batches; only rows, sort work and sort time are
                // meaningful per worker here.
                let lanes = ("bucket-sort", "bucket");
                let sorted = on_workers(rec, parts as usize, None, lanes, |part, wrec| {
                    let started = Instant::now();
                    let bucket = (part as u64, parts);
                    let run = sort_run(&batches, keys, limit, bucket, &mut wrec.stats.sort);
                    (run, started.elapsed())
                });
                for ((run, elapsed), stats) in sorted {
                    let run = run?;
                    workers.push(WorkerOpMetrics {
                        rows: run.seqs.len() as u64,
                        batches: 0,
                        stats,
                        elapsed,
                    });
                    runs.push(run);
                }
            }
        }
        if let Some(slot) = rec.ops.get_mut(self.id) {
            slot.workers = workers;
        }
        // A worker that drew no rows has no columns to gather from.
        runs.retain(|r| !r.seqs.is_empty());
        self.merged = merge_runs(&runs, limit, &mut rec.stats.sort);
        if limit.is_some() {
            // A top-N charges what the serial operator charges: the
            // surviving prefix.
            rec.stats.io.sort_rows += self.merged.len() as u64;
        }
        self.runs = runs.into_iter().map(|r| r.batch).collect();
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, _: &mut ExecRecord) -> Result<Option<Batch>> {
        if self.pos >= self.merged.len() {
            return Ok(None);
        }
        let end = (self.pos + cx.batch_size).min(self.merged.len());
        let sources: Vec<&Batch> = self.runs.iter().collect();
        let batch = gather_rows(&sources, &self.merged[self.pos..end])?;
        self.pos = end;
        Ok(Some(batch))
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.runs = Vec::new();
        self.merged = Vec::new();
        if let SortSource::RoundRobin { child, .. } = &mut self.source {
            child.close(rec);
        }
    }
}
