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
//! [`fto_storage::IndexScanState::open_partition`]), and charges a
//! private [`ExecStats`] that the coordinator merges into the session
//! stream in partition order. Page/leaf-aligned partitions charge exactly
//! the pages a serial scan charges, so session totals — and the
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
//! anyway (Sort, TopN, join build sides, hash group-by inputs), so
//! early-termination behavior above them is unchanged. A segmented sort
//! streams group by group and therefore never lowers to an exchange.

use crate::metrics::{ExecStats, OpMetrics, WorkerOpMetrics};
use crate::sortkernel::{gather_rows, merge_runs, Run, SortBuf, SortKeys, SortStats};
use crate::stream::{lower_worker, Batch, BatchQueue, ExecContext, ExecOptions, Operator};
use fto_common::Result;
use fto_obs::profile;
use fto_planner::Plan;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything a worker needs to lower and drive its partition of an
/// exchanged subtree.
pub(crate) struct PartitionSpec {
    /// The subtree each worker lowers privately.
    pub plan: Arc<Plan>,
    /// Number of partitions (the exchange's degree of parallelism).
    pub parts: usize,
    /// Instrumentation slots shared with the coordinator, if any.
    pub slots: Option<Arc<Mutex<Vec<OpMetrics>>>>,
    /// Pre-order id of the subtree's root slot (workers record into the
    /// ids the coordinator reserved starting here).
    pub base_id: usize,
}

/// One worker's result: the finished payload plus its private accounting
/// stream and drive statistics.
struct WorkerRun<T> {
    out: T,
    stats: ExecStats,
    batches: u64,
    elapsed: Duration,
}

/// Runs `work(part)` for every partition on its own scoped thread, each
/// on a profiler lane `"{lane} p{part}"` inside an exchange span
/// `"{span} p{part}"`. Lanes are allocated here on the coordinator,
/// before any worker spawns, so lane numbering reflects partition order —
/// never thread scheduling. Results come back in partition order.
fn on_workers<T: Send>(
    cx: &ExecContext<'_>,
    parts: usize,
    (lane, span): (&str, &str),
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let lane_base = cx.profiler.as_ref().map(|p| p.alloc_lanes(parts as u32));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..parts)
            .map(|part| {
                let work = &work;
                let profiler = cx.profiler.clone();
                s.spawn(move || {
                    let _lane = profiler.as_ref().map(|p| {
                        p.install_lane_at(
                            lane_base.expect("lanes pre-allocated") + part as u32,
                            format!("{lane} p{part}"),
                        )
                    });
                    profile::span_begin("exchange", || format!("{span} p{part}"));
                    let out = work(part);
                    profile::span_end("exchange", || format!("{span} p{part}"));
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Runs the spec's subtree over all partitions: worker `k` drains
/// partition `k` as column batches and then applies `finish` (e.g.
/// sorting them into a run) before returning. A worker's private
/// `ExecStats` captures everything it charged — including whatever
/// `finish` adds — so the coordinator can merge the streams in a
/// deterministic order.
fn run_partitions<T, F>(
    cx: &ExecContext<'_>,
    spec: &PartitionSpec,
    finish: F,
) -> Result<Vec<WorkerRun<T>>>
where
    T: Send,
    F: Fn(Vec<Batch>, &mut ExecStats) -> T + Sync,
{
    let parts = spec.parts;
    // Workers rebuild their own contexts from plain copies of the
    // coordinator's knobs: `ExecContext` itself is not `Sync` (its buffer
    // pool is a `RefCell`). A memory budget splits into per-worker
    // sub-budgets of `budget / P` (at least one byte), so P bounded
    // partition pipelines together stay within the query's budget; each
    // worker context builds its own private pool from its share.
    let (db, graph, batch_size) = (cx.db, cx.graph, cx.batch_size);
    let sub_budget = cx.memory_budget.map(|b| (b / parts).max(1));
    on_workers(
        cx,
        parts,
        ("worker", "partition"),
        |part| -> Result<WorkerRun<T>> {
            let started = Instant::now();
            // Worker contexts pin threads to 1: partition pipelines never
            // nest exchanges.
            let wcx = ExecContext::new(
                db,
                graph,
                &ExecOptions {
                    batch_size,
                    threads: 1,
                    memory_budget: sub_budget,
                    profiler: None,
                },
            );
            let mut stats = ExecStats::default();
            let mut op = lower_worker(&spec.plan, part, parts, spec.slots.clone(), spec.base_id)?;
            op.open(&wcx, &mut stats)?;
            let mut pulled = Vec::new();
            while let Some(batch) = op.next_batch(&wcx, &mut stats)? {
                pulled.push(batch);
            }
            op.close();
            let batches = pulled.len() as u64;
            let out = finish(pulled, &mut stats);
            Ok(WorkerRun {
                out,
                stats,
                batches,
                elapsed: started.elapsed(),
            })
        },
    )
    .into_iter()
    .collect()
}

/// The (id, slots) handle an exchange uses to attach per-worker metrics
/// to a plan node's slot.
pub(crate) type SlotRef = Option<(usize, Arc<Mutex<Vec<OpMetrics>>>)>;

fn record_workers(slot: &SlotRef, workers: Vec<WorkerOpMetrics>) {
    if let Some((id, slots)) = slot {
        slots.lock().expect("metrics mutex poisoned")[*id].workers = workers;
    }
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
/// [`OpMetrics::workers`].
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
    fn open(&mut self, cx: &ExecContext<'_>, stats: &mut ExecStats) -> Result<()> {
        let runs = run_partitions(cx, &self.spec, |batches, _| batches)?;
        let mut workers = Vec::with_capacity(runs.len());
        self.out.clear();
        for run in runs {
            stats.merge(&run.stats);
            workers.push(WorkerOpMetrics {
                rows: run.out.iter().map(|b| b.len() as u64).sum(),
                batches: run.batches,
                stats: run.stats,
                elapsed: run.elapsed,
            });
            run.out.into_iter().for_each(|b| self.out.push(b));
        }
        let slot = self
            .spec
            .slots
            .as_ref()
            .map(|s| (self.spec.base_id, Arc::clone(s)));
        record_workers(&slot, workers);
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, _: &mut ExecStats) -> Result<Option<Batch>> {
        if self.out.is_empty() {
            return Ok(None);
        }
        let arity = self.spec.plan.layout.arity();
        Ok(Some(self.out.take(cx.batch_size, arity)))
    }

    fn close(&mut self) {
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
) -> Run {
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
    own_slot: SlotRef,
    runs: Vec<Batch>,
    merged: Vec<(u32, u32)>,
    pos: usize,
}

impl SortExchangeOp {
    pub(crate) fn new(
        source: SortSource,
        keys: SortKeys,
        limit: Option<usize>,
        own_slot: SlotRef,
    ) -> SortExchangeOp {
        SortExchangeOp {
            source,
            keys,
            limit,
            own_slot,
            runs: Vec::new(),
            merged: Vec::new(),
            pos: 0,
        }
    }
}

impl Operator for SortExchangeOp {
    fn open(&mut self, cx: &ExecContext<'_>, stats: &mut ExecStats) -> Result<()> {
        let (keys, limit) = (&self.keys, self.limit);
        let mut workers = Vec::new();
        let mut runs = Vec::new();
        match &mut self.source {
            SortSource::Partitioned(spec) => {
                // Each worker sorts its run inside the thread — the
                // parallel half of the work — tagging by local position;
                // a full sort charges the run to `sort_rows` there.
                let sorted = run_partitions(cx, spec, |batches, wstats| {
                    let drained: u64 = batches.iter().map(|b| b.len() as u64).sum();
                    if limit.is_none() {
                        wstats.io.sort_rows += drained;
                    }
                    let run = sort_run(&batches, keys, limit, (0, 1), &mut wstats.sort);
                    (run, drained)
                })?;
                let mut base = 0u64;
                for worker in sorted {
                    stats.merge(&worker.stats);
                    let (mut run, drained) = worker.out;
                    workers.push(WorkerOpMetrics {
                        rows: run.seqs.len() as u64,
                        batches: worker.batches,
                        stats: worker.stats,
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
                child.open(cx, stats)?;
                let mut batches = Vec::new();
                while let Some(batch) = child.next_batch(cx, stats)? {
                    if limit.is_none() {
                        stats.io.sort_rows += batch.len() as u64;
                    }
                    batches.push(batch);
                }
                child.close();
                let sorted = on_workers(cx, parts as usize, ("bucket-sort", "bucket"), |part| {
                    let started = Instant::now();
                    let mut wstats = ExecStats::default();
                    let bucket = (part as u64, parts);
                    let run = sort_run(&batches, keys, limit, bucket, &mut wstats.sort);
                    (run, wstats, started.elapsed())
                });
                // Bucket sorts touch no pages and pull no batches; only
                // rows, sort work and sort time are meaningful per worker
                // here.
                for (run, wstats, elapsed) in sorted {
                    stats.merge(&wstats);
                    workers.push(WorkerOpMetrics {
                        rows: run.seqs.len() as u64,
                        batches: 0,
                        stats: wstats,
                        elapsed,
                    });
                    runs.push(run);
                }
            }
        }
        record_workers(&self.own_slot, workers);
        // A worker that drew no rows has no columns to gather from.
        runs.retain(|r| !r.seqs.is_empty());
        self.merged = merge_runs(&runs, limit, &mut stats.sort);
        if limit.is_some() {
            // A top-N charges what the serial operator charges: the
            // surviving prefix.
            stats.io.sort_rows += self.merged.len() as u64;
        }
        self.runs = runs.into_iter().map(|r| r.batch).collect();
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, _: &mut ExecStats) -> Result<Option<Batch>> {
        if self.pos >= self.merged.len() {
            return Ok(None);
        }
        let end = (self.pos + cx.batch_size).min(self.merged.len());
        let sources: Vec<&Batch> = self.runs.iter().collect();
        let batch = gather_rows(&sources, &self.merged[self.pos..end]);
        self.pos = end;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.runs = Vec::new();
        self.merged = Vec::new();
        if let SortSource::RoundRobin { child, .. } = &mut self.source {
            child.close();
        }
    }
}
