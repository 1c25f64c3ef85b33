//! The streaming, batched (Volcano-style) executor — columnar batches.
//!
//! Plans are lowered to a tree of [`Operator`]s. Each operator exposes
//! `open` / `next_batch` / `close` and data flows upward in columnar
//! [`Batch`]es ([`fto_common::column`]) of at most
//! [`ExecContext::batch_size`] rows (default 1024). Scans pull through
//! the batched cursors in `fto_storage::scan`, so simulated page I/O is
//! charged as pages are actually touched — a `LIMIT 10` over a
//! million-row table pays for the handful of pages behind the ten rows it
//! returns, not the whole heap.
//!
//! Hot operators run columnar: filters refine a selection vector with
//! typed kernels and gather survivors (never materializing rows),
//! projections of bare column references are `Arc` clones, hash group-by
//! computes its keys by byte-encoding the grouping columns
//! column-at-a-time, and the order enforcer holds its input batches as
//! they arrived, sorts a permutation over their encoded keys and gathers
//! the payload once per output batch. The scans never build a batch: the
//! heap stores column chunks and hands them out whole, sliced or
//! gathered. The nested-loop, hash and left-outer joins are one build–probe
//! operator: the build side keys a group table plus a CSR match list, the
//! probe assembles (outer, build) candidate pairs by gather, at most a
//! batch of them at a time. No operator materializes a row.
//!
//! Pipeline breakers: a [`PlanNode::Sort`] whose input satisfies no prefix
//! of its order (full sort, top-n) and a hash [`PlanNode::GroupBy`] —
//! DISTINCT included, it is the grouping with no aggregates — must consume
//! their whole input before producing anything and drain it at `open`. A
//! [`PlanNode::Join`] materializes only its *inner* (build) side — under
//! the memory budget, spilling what does not fit; the outer side streams.
//! Everything else — filter, project, segmented sort (group by group),
//! order-based group-by, merge join, limit, union — is fully streaming.
//!
//! The executor is row-for-row equivalent to the materializing reference
//! interpreter in [`crate::interp`] (enforced by the differential test
//! suite), including output order: streaming operators reproduce the
//! reference engine's exact emission order, not merely the same bag of
//! rows.

use crate::aggkernel::{AggSpec, GroupAgg, GroupTable, NO_GROUP};
use crate::extsort::{RunFormer, Sorted};
use crate::interp::positions;
use crate::metrics::{ExecRecord, ExecStats, OpMetrics, PlanMetrics};
use crate::parallel::{GatherOp, PartitionSpec};
use crate::sortkernel::{resolve_keys, SortKeys};
use fto_common::column::{batch_row_bytes, encode_batch_keys_arena, Column};
use fto_common::{ColId, DataType, Direction, FtoError, IndexId, Result, TableId, Value};
use fto_expr::{vector, Expr, PredId, RowLayout};
use fto_obs::SpanKind;
use fto_planner::{GroupMethod, JoinKind, OptimizerConfig, Plan, PlanNode, ScanRange};
use fto_qgm::QueryGraph;
use fto_storage::{
    spill, Database, HeapScanState, IndexScanState, IoStats, PageCursor, SpillCursor, SpillFile,
};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The columnar batch flowing between operators. Operators never return
/// an empty batch: exhaustion is signalled by `None` from
/// [`Operator::next_batch`].
pub use fto_common::column::Batch;

/// Execution-wide knobs passed to every operator call: immutable plain
/// data, so exchange workers copy it (with `threads` pinned to 1).
/// Everything an execution *records* — counters,
/// per-node actuals, the timeline, the buffer pool's residency — lives in
/// the [`ExecRecord`] threaded beside it.
#[derive(Clone, Copy)]
pub struct ExecContext<'a> {
    /// The database supplying heaps and indexes.
    pub db: &'a Database,
    /// The query graph (predicate definitions live here).
    pub graph: &'a QueryGraph,
    /// Maximum rows per batch (always ≥ 1).
    pub batch_size: usize,
    /// Degree of parallelism this execution was lowered with (always ≥ 1,
    /// and 1 under a memory budget; worker-side contexts are always 1 so
    /// pipelines never nest exchanges).
    pub threads: usize,
    /// Per-query memory budget in bytes for pipeline breakers, or `None`
    /// for unbounded in-memory execution. When set, sort and Top-N bound
    /// their buffered working sets (spilling sorted runs), hash group-by
    /// spills overflow partitions, the hash-join build side spills rows
    /// past the budget — all bit-identical to unbounded execution — and
    /// heap-page touches route through the record's bounded buffer pool
    /// (`budget / PAGE_SIZE` frames, clock eviction). A budgeted execution
    /// runs serially ([`ExecContext::new`]): those three breakers and the
    /// pool are all the code the budget has to reach.
    pub memory_budget: Option<usize>,
}

impl<'a> ExecContext<'a> {
    /// The execution knobs of `config`, with `batch_size` and `threads`
    /// clamped to at least 1, and `threads` pinned to 1 under a memory
    /// budget — a gather holds its subtree's whole output, which no budget
    /// bounds — the one place those rules live.
    pub fn new(db: &'a Database, graph: &'a QueryGraph, config: &OptimizerConfig) -> Self {
        ExecContext {
            db,
            graph,
            batch_size: config.batch_size.max(1),
            threads: match config.memory_budget {
                Some(_) => 1,
                None => config.threads.max(1),
            },
            memory_budget: config.memory_budget,
        }
    }
}

/// A streaming operator in the lowered plan tree.
///
/// Lifecycle: `open` once, `next_batch` until it returns `Ok(None)`,
/// then `close`. Operators own their children and drive them through the
/// same protocol, handing down the one [`ExecRecord`] they were handed:
/// whatever an operator counts — pages, sorted rows, comparisons, spilled
/// runs — it adds to `rec.stats` and nowhere else.
pub trait Operator {
    /// Acquires resources and opens children. Pipeline breakers drain
    /// their input here, charging any buffering I/O (e.g. `sort_rows`).
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()>;

    /// Produces the next non-empty batch, or `None` when exhausted.
    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>>;

    /// Releases buffered state. Called once; also safe to call early to
    /// abandon a partially consumed stream. Takes the record because a
    /// profiled execution spans it like every other call.
    fn close(&mut self, _rec: &mut ExecRecord) {}
}

/// The one execution driver: lowers `plan` — wrapping every operator when
/// `rec` has per-node slots to fill — opens the root, drains it and closes
/// it, threading `rec` through every call. A plain, an instrumented and a
/// profiled execution differ only in the record they hand in; the finished
/// `rec.stats` are the execution's totals. Returns the output batches in
/// emission order (none of them empty) and the wall-clock time taken.
pub(crate) fn drive(
    cx: &ExecContext<'_>,
    plan: &Plan,
    rec: &mut ExecRecord,
) -> Result<(Vec<Batch>, Duration)> {
    let start = Instant::now();
    let mut root = lower_impl(plan, &mut LowerCx::new(cx, !rec.ops.is_empty()))?;
    root.open(cx, rec)?;
    let mut batches = Vec::new();
    while let Some(batch) = root.next_batch(cx, rec)? {
        batches.push(batch);
    }
    root.close(rec);
    Ok((batches, start.elapsed()))
}

/// The [`PlanMetrics`] of an instrumented execution: one pre-order walk
/// of the plan — the numbering lowering assigned the wrappers — supplies
/// each node's name, the planner's estimates and its children; `actuals`
/// (the record's per-node slots) supply what happened.
pub(crate) fn plan_metrics(plan: &Plan, actuals: Vec<OpMetrics>) -> PlanMetrics {
    fn walk(p: &Plan, pm: &mut PlanMetrics) -> usize {
        let id = pm.children.len();
        pm.children.push(Vec::new());
        let m = &mut pm.ops[id];
        m.name = p.op_name().to_string();
        m.est_rows = p.cost.rows;
        m.est_cost = p.self_cost();
        if let PlanNode::Sort {
            prefix_len: 1..,
            est_groups,
            ..
        } = &p.node
        {
            m.est_groups = Some(*est_groups);
        }
        for c in p.children() {
            let cid = walk(c, pm);
            pm.children[id].push(cid);
        }
        id
    }
    let mut pm = PlanMetrics {
        ops: actuals,
        children: Vec::new(),
    };
    walk(plan, &mut pm);
    pm
}

// ---------------------------------------------------------------------
// Shared bits
// ---------------------------------------------------------------------

/// Output batches produced faster than they are consumed, drained in
/// batch-size chunks.
///
/// `take(n)` emits exactly `min(n, pending)` rows, so an operator's
/// emission boundaries (and with them its instrumented row/batch counts)
/// depend only on how many rows it queued, not on how they were batched.
/// Queued batches are stored whole (Arc-shared columns); a take that
/// consumes an entire queued batch at offset zero re-emits it without
/// copying.
#[derive(Default)]
pub(crate) struct BatchQueue {
    parts: VecDeque<Batch>,
    /// Rows of the front batch already taken.
    front: usize,
    len: usize,
}

impl BatchQueue {
    pub(crate) fn push(&mut self, batch: Batch) {
        if !batch.is_empty() {
            self.len += batch.len();
            self.parts.push_back(batch);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows queued.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Removes and returns the next `min(n, pending)` rows — at least
    /// one: callers ask a non-empty queue — as one batch.
    pub(crate) fn take(&mut self, n: usize) -> Result<Batch> {
        let n = n.min(self.len);
        let mut picked: Vec<Batch> = Vec::new();
        let mut need = n;
        while need > 0 {
            let avail = self.parts.front().expect("take past queue length").len() - self.front;
            if avail <= need {
                let part = self.parts.pop_front().expect("front checked above");
                picked.push(if self.front == 0 {
                    part
                } else {
                    part.slice(self.front, avail)
                });
                self.front = 0;
                need -= avail;
            } else {
                picked.push(
                    self.parts
                        .front()
                        .expect("front checked above")
                        .slice(self.front, need),
                );
                self.front += need;
                need = 0;
            }
        }
        self.len -= n;
        Batch::concat(&picked)
    }

    pub(crate) fn clear(&mut self) {
        self.parts.clear();
        self.front = 0;
        self.len = 0;
    }
}

/// The rows of `batch` that pass every predicate, ascending: a selection
/// vector refined predicate by predicate, each by a typed column kernel
/// (every predicate the binder admits has one). Refinement stops once no
/// row is left, as the interpreter's AND does.
fn passing(
    cx: &ExecContext<'_>,
    predicates: &[PredId],
    batch: &Batch,
    layout: &RowLayout,
) -> Result<Vec<u32>> {
    let mut sel: Vec<u32> = (0..batch.len() as u32).collect();
    for pid in predicates {
        if sel.is_empty() {
            break;
        }
        vector::filter_selection(cx.graph.predicate(*pid), batch, layout, &mut sel)?;
    }
    Ok(sel)
}

// ---------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------

struct ScanOp {
    table: TableId,
    /// Which page-aligned partition of the heap this cursor walks;
    /// `(0, 1)` outside worker pipelines, i.e. the whole heap.
    part: usize,
    parts: usize,
    state: HeapScanState,
}

impl Operator for ScanOp {
    fn open(&mut self, cx: &ExecContext<'_>, _: &mut ExecRecord) -> Result<()> {
        let heap = cx.db.heap(self.table)?;
        self.state = HeapScanState::partition(heap, self.part, self.parts);
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        let heap = cx.db.heap(self.table)?;
        let batch =
            self.state
                .next_columns(heap, cx.batch_size, &mut rec.stats.io, rec.pool.as_mut())?;
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }
}

struct IndexScanOp {
    index: IndexId,
    table: TableId,
    range: Option<ScanRange>,
    reverse: bool,
    /// Which leaf-aligned partition of the matching entries this cursor
    /// walks, in *emission* order; `(0, 1)` outside worker pipelines.
    part: usize,
    parts: usize,
    state: Option<IndexScanState>,
}

impl Operator for IndexScanOp {
    fn open(&mut self, cx: &ExecContext<'_>, _: &mut ExecRecord) -> Result<()> {
        let ix = cx.db.index(self.index)?;
        let (lo, hi) = match &self.range {
            Some(ScanRange { lo, hi }) => (lo.as_ref(), hi.as_ref()),
            None => (None, None),
        };
        // `open_partition` counts partitions in key order; a reverse scan
        // emits high keys first, so emission-order partition `part` is
        // key-order partition `parts - 1 - part`.
        let kpart = if self.reverse {
            self.parts - 1 - self.part
        } else {
            self.part
        };
        self.state = Some(IndexScanState::open_partition(
            ix,
            lo,
            hi,
            self.reverse,
            kpart,
            self.parts,
        ));
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        let ix = cx.db.index(self.index)?;
        let heap = cx.db.heap(self.table)?;
        let state = self
            .state
            .as_mut()
            .ok_or_else(|| FtoError::internal("index scan used before open"))?;
        let batch = state.next_columns(
            ix,
            heap,
            cx.batch_size,
            &mut rec.stats.io,
            rec.pool.as_mut(),
            fto_storage::index_leaf_tag(self.index),
        )?;
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }

    fn close(&mut self, _: &mut ExecRecord) {
        self.state = None;
    }
}

// ---------------------------------------------------------------------
// Row-at-a-time streamers
// ---------------------------------------------------------------------

struct FilterOp {
    child: Box<dyn Operator>,
    predicates: Vec<PredId>,
    layout: RowLayout,
}

impl Operator for FilterOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.child.open(cx, rec)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        loop {
            let Some(batch) = self.child.next_batch(cx, rec)? else {
                return Ok(None);
            };
            let sel = passing(cx, &self.predicates, &batch, &self.layout)?;
            if sel.len() == batch.len() {
                return Ok(Some(batch));
            }
            if !sel.is_empty() {
                return Ok(Some(batch.gather(&sel)));
            }
        }
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.child.close(rec);
    }
}

struct ProjectOp {
    child: Box<dyn Operator>,
    exprs: Vec<Expr>,
    layout: RowLayout,
}

impl Operator for ProjectOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.child.open(cx, rec)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        let Some(batch) = self.child.next_batch(cx, rec)? else {
            return Ok(None);
        };
        Ok(Some(vector::project_batch(
            &self.exprs,
            &batch,
            &self.layout,
        )?))
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.child.close(rec);
    }
}

struct LimitOp {
    child: Box<dyn Operator>,
    remaining: u64,
}

impl Operator for LimitOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.child.open(cx, rec)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        if self.remaining == 0 {
            // Early termination: the child is never pulled again, so the
            // pages behind unproduced rows are never charged.
            self.child.close(rec);
            return Ok(None);
        }
        let Some(mut batch) = self.child.next_batch(cx, rec)? else {
            return Ok(None);
        };
        if batch.len() as u64 > self.remaining {
            let keep: Vec<u32> = (0..self.remaining as u32).collect();
            batch = batch.gather(&keep);
        }
        self.remaining -= batch.len() as u64;
        Ok(Some(batch))
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.child.close(rec);
    }
}

struct UnionAllOp {
    children: Vec<Box<dyn Operator>>,
    current: usize,
    opened: bool,
}

impl Operator for UnionAllOp {
    fn open(&mut self, _cx: &ExecContext<'_>, _: &mut ExecRecord) -> Result<()> {
        // Children open lazily, one at a time, as the union advances.
        self.current = 0;
        self.opened = false;
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        while self.current < self.children.len() {
            let child = &mut self.children[self.current];
            if !self.opened {
                child.open(cx, rec)?;
                self.opened = true;
            }
            match child.next_batch(cx, rec)? {
                Some(batch) => return Ok(Some(batch)),
                None => {
                    child.close(rec);
                    self.current += 1;
                    self.opened = false;
                }
            }
        }
        Ok(None)
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        for c in &mut self.children {
            c.close(rec);
        }
    }
}

// ---------------------------------------------------------------------
// Pipeline breakers
// ---------------------------------------------------------------------

/// The order enforcer — the operator behind [`PlanNode::Sort`]. Its input
/// already satisfies the first `pkeys` of the required order (possibly
/// none), so rows sharing a
/// prefix value are contiguous: groups are cut on encoded-prefix byte
/// equality (the codec is injective up to `total_cmp`, so it cuts exactly
/// the groups `Value` equality would), each group is ordered on `skeys`
/// alone by the permutation kernel through a [`RunFormer`] — under the
/// memory budget an oversized group seals and spills runs and streams
/// back as their merge — and groups leave in arrival order, which
/// reproduces the global stable sort bit for bit.
///
/// | `Plan::op_name` | `pkeys` | `limit` | behaviour |
/// |---|---|---|---|
/// | `sort` | none | none | one group that closes at end of input: drains at `open` |
/// | `segmented-sort` | `prefix_len` | none | streams group by group; `LIMIT` above stops the input |
/// | `top-n` | none | n | drains at `open`, keeping only the best n candidates |
struct EnforceOp {
    child: Box<dyn Operator>,
    pkeys: SortKeys,
    skeys: SortKeys,
    limit: Option<usize>,
    /// The open group's buffered rows and spilled runs.
    former: RunFormer,
    /// Encoded prefix of the open group (meaningful while `group_open`).
    lead: Vec<u8>,
    group_open: bool,
    /// Finished groups not yet emitted, in arrival order.
    out: VecDeque<Sorted>,
    input_done: bool,
}

impl EnforceOp {
    fn new(
        child: Box<dyn Operator>,
        keys: SortKeys,
        prefix_len: usize,
        limit: Option<usize>,
    ) -> EnforceOp {
        let (pkeys, skeys) = keys.split_at(prefix_len.min(keys.len()));
        EnforceOp {
            child,
            pkeys: pkeys.to_vec(),
            skeys: skeys.to_vec(),
            limit,
            former: RunFormer::new(usize::MAX, limit),
            lead: Vec::new(),
            group_open: false,
            out: VecDeque::new(),
            input_done: false,
        }
    }

    /// Ends the open group (no-op without one): its sorted rows queue for
    /// emission. A segmented sort counts the group formed — what EXPLAIN
    /// ANALYZE shows next to the planner's estimate.
    fn finish_group(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        if !std::mem::take(&mut self.group_open) {
            return Ok(());
        }
        if !self.pkeys.is_empty() {
            rec.mark(
                |s| &mut s.segment.groups_formed,
                "segment",
                "segment.group_sealed",
            );
        }
        self.former.finish(cx.batch_size, &mut self.out, rec)
    }

    /// Pulls one input batch into the open group, finishing a group at
    /// every prefix boundary — or, at end of input, finishes the last.
    fn pull(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        let Some(batch) = self.child.next_batch(cx, rec)? else {
            self.input_done = true;
            self.child.close(rec);
            return self.finish_group(cx, rec);
        };
        let (mut sb, mut so) = (Vec::new(), Vec::new());
        encode_batch_keys_arena(&batch, &self.skeys, &mut sb, &mut so);
        let mut lo = 0;
        if !self.pkeys.is_empty() {
            let (mut pb, mut po) = (Vec::new(), Vec::new());
            encode_batch_keys_arena(&batch, &self.pkeys, &mut pb, &mut po);
            let lead = std::mem::take(&mut self.lead);
            let mut prev: &[u8] = &lead;
            for i in 0..batch.len() {
                let prefix = &pb[po[i]..po[i + 1]];
                if self.group_open && prefix != prev {
                    self.former.push_rows(&batch, lo..i, &sb, &so, rec)?;
                    self.finish_group(cx, rec)?;
                    lo = i;
                }
                self.group_open = true;
                prev = prefix;
            }
            self.lead = prev.to_vec();
        }
        self.group_open |= !batch.is_empty();
        self.former
            .push_rows(&batch, lo..batch.len(), &sb, &so, rec)
    }
}

impl Operator for EnforceOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.former = RunFormer::new(cx.memory_budget.unwrap_or(usize::MAX), self.limit);
        self.group_open = false;
        self.out = VecDeque::new();
        self.input_done = false;
        self.child.open(cx, rec)?;
        // Without a satisfied prefix nothing can leave before the input
        // ends: a pipeline breaker, drained here.
        while self.pkeys.is_empty() && !self.input_done {
            self.pull(cx, rec)?;
        }
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        loop {
            // Drain finished groups first, in arrival order.
            match self.out.pop_front() {
                Some(Sorted::Batch(batch)) => return Ok(Some(batch)),
                Some(Sorted::Spilled(mut merge)) => {
                    // The final merge streams: the sorted group is never
                    // materialized whole, only one batch at a time.
                    if let Some(batch) = merge.next_batch(cx.batch_size, &mut rec.stats)? {
                        self.out.push_front(Sorted::Spilled(merge));
                        return Ok(Some(batch));
                    }
                }
                None if self.input_done => return Ok(None),
                None => self.pull(cx, rec)?,
            }
        }
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.former = RunFormer::new(usize::MAX, self.limit);
        self.out = VecDeque::new();
        self.child.close(rec);
    }
}

/// Number of key-hash partitions a budgeted hash group-by (or its
/// recursive sub-aggregations) spills overflow rows into.
const GROUP_SPILL_PARTITIONS: usize = 8;

/// Recursion depth past which a partition aggregates fully in memory — a
/// correctness backstop; the per-level salted hash makes reaching it
/// essentially impossible (each level also retires at least one key).
const MAX_GROUP_SPILL_DEPTH: usize = 6;

/// FNV-1a over an encoded grouping key, salted per recursion level so a
/// partition's keys re-split differently when it recurses. It hashes the
/// *encoded* key the group table is keyed on, and is deliberately not the
/// table's own hash: which partition a key spills to is part of the
/// pinned spill I/O.
fn partition_hash(key: &[u8], salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// In-flight state of one (sub)aggregation of the hash group-by: the
/// resident groups (key → id in `table`, key rows and aggregate state in
/// `agg`, each group's first row's global position in `first_seqs`, which
/// fixes its output rank), the budget charged for them, and — once the
/// budget is crossed — the key-hash partitions overflow rows spill into.
struct GroupState {
    spec: Arc<AggSpec>,
    table: GroupTable,
    agg: GroupAgg,
    first_seqs: Vec<u64>,
    bytes: usize,
    parts: Vec<SpillFile>,
}

/// Per-batch scratch of the group-by operators, reused across batches.
#[derive(Default)]
struct GroupScratch {
    key_bytes: Vec<u8>,
    key_offsets: Vec<usize>,
    gids: Vec<u32>,
    first: Vec<u32>,
}

/// Splits an overflow record `[u32 nrows][nrows × u64 seq][column pages]`
/// into its sequence numbers and the position its column pages start at.
fn group_spill_header(rec: &[u8], seqs: &mut Vec<u64>) -> Result<usize> {
    let truncated = || FtoError::Exec("group-by spill record truncated".into());
    let n = rec.get(..4).ok_or_else(truncated)?;
    let n = u32::from_le_bytes(n.try_into().expect("four bytes")) as usize;
    let body = rec.get(4..4 + 8 * n).ok_or_else(truncated)?;
    seqs.clear();
    seqs.extend(
        body.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("eight bytes"))),
    );
    Ok(4 + 8 * n)
}

impl GroupState {
    fn new(spec: &Arc<AggSpec>) -> GroupState {
        GroupState {
            spec: Arc::clone(spec),
            table: GroupTable::new(),
            agg: GroupAgg::new(Arc::clone(spec)),
            first_seqs: Vec::new(),
            bytes: 0,
            parts: Vec::new(),
        }
    }

    /// Absorbs one batch. Rows of already-admitted keys aggregate in
    /// place (no new memory); a first-seen key is admitted while the
    /// working set fits the budget, and once it no longer does, new keys'
    /// rows spill `[u64 seq][row]` records to the partition their key
    /// hashes to. A key therefore lives entirely in memory or entirely in
    /// one partition — the hash is deterministic — which is what lets each
    /// partition re-aggregate independently.
    fn absorb_batch(
        &mut self,
        batch: &Batch,
        seqs: &[u64],
        budget: usize,
        salt: u64,
        scratch: &mut GroupScratch,
        io: &mut IoStats,
    ) -> Result<()> {
        let GroupScratch {
            key_bytes,
            key_offsets,
            gids,
            first,
        } = scratch;
        let spec = &self.spec;
        spec.encode_keys(batch, key_bytes, key_offsets);
        let key_cols = spec.key_columns(batch)?;
        // Overflow rows collect into per-partition selection vectors and
        // spill once per (batch, partition) as one column-page record:
        // `[u32 nrows][nrows × u64 seq][column pages]`. Per-partition
        // row order is arrival order either way, so replay — and with it
        // the rebuilt aggregation — is unchanged.
        let mut psel: Vec<(Vec<u32>, Vec<u64>)> = Vec::new();
        let (bytes, mut resident) = (&mut self.bytes, self.table.len());
        self.table
            .assign(key_bytes, key_offsets, gids, first, |i, key| {
                // Estimated resident cost of admitting this group: its
                // index key, key values, and rough per-accumulator (64)
                // and hash-entry (48) overheads — what the budget charges,
                // not what the columnar state occupies.
                let cost = key.len() + batch_row_bytes(&key_cols, i) + 64 * spec.num_aggs() + 48;
                if *bytes + cost > budget && resident > 0 {
                    if psel.is_empty() {
                        psel = (0..GROUP_SPILL_PARTITIONS)
                            .map(|_| (Vec::new(), Vec::new()))
                            .collect();
                    }
                    let p = (partition_hash(key, salt) as usize) % GROUP_SPILL_PARTITIONS;
                    psel[p].0.push(i as u32);
                    psel[p].1.push(seqs[i]);
                    return false;
                }
                *bytes += cost;
                resident += 1;
                true
            });
        self.first_seqs
            .extend(first.iter().map(|&i| seqs[i as usize]));
        self.agg.absorb(batch, gids, first)?;
        if !psel.is_empty() {
            if self.parts.is_empty() {
                self.parts = (0..GROUP_SPILL_PARTITIONS)
                    .map(|_| SpillFile::new())
                    .collect();
            }
            let mut payload = Vec::new();
            for (p, (sel, pseqs)) in psel.iter().enumerate() {
                if sel.is_empty() {
                    continue;
                }
                payload.clear();
                payload.extend_from_slice(&(sel.len() as u32).to_le_bytes());
                for &s in pseqs {
                    payload.extend_from_slice(&s.to_le_bytes());
                }
                spill::write_batch(&batch.gather(sel), &mut payload);
                self.parts[p].append_record(&payload, io);
            }
        }
        Ok(())
    }

    /// Finishes the state: the resident groups become one
    /// `(output batch, first_seq per row)` pair, then each non-empty
    /// partition streams back through a fresh sub-aggregation under a
    /// salted hash (records re-batch and re-spill under the same budget,
    /// so the read-back stays bounded too).
    fn drain(
        mut self,
        budget: usize,
        depth: usize,
        rec: &mut ExecRecord,
        out: &mut Vec<(Batch, Vec<u64>)>,
    ) -> Result<()> {
        let groups = self.agg.finish()?;
        // The one row of an empty-input global aggregate has no first row.
        self.first_seqs.resize(groups.len(), 0);
        out.push((groups, self.first_seqs));
        let mut scratch = GroupScratch::default();
        let mut seqs: Vec<u64> = Vec::new();
        for file in self.parts {
            if file.is_empty() {
                continue;
            }
            rec.mark(
                |s| &mut s.spill.runs_formed,
                "spill",
                "spill.runs_formed x1",
            );
            let sub_budget = if depth + 1 >= MAX_GROUP_SPILL_DEPTH {
                usize::MAX
            } else {
                budget
            };
            let mut sub = GroupState::new(&self.spec);
            let mut cursor = SpillCursor::new(0, file.len());
            while let Some(frame) = cursor.read_record(&file, &mut rec.stats.io)? {
                let mut pos = group_spill_header(&frame, &mut seqs)?;
                let batch = spill::read_batch(&frame, &mut pos)?;
                sub.absorb_batch(
                    &batch,
                    &seqs,
                    sub_budget,
                    depth as u64 + 1,
                    &mut scratch,
                    &mut rec.stats.io,
                )?;
            }
            sub.drain(budget, depth + 1, rec, out)?;
        }
        Ok(())
    }
}

/// Hash group-by on the aggregation kernel ([`crate::aggkernel`]): per
/// input batch the grouping keys become memcmp-comparable byte strings
/// via the sort-key codec (encoded column-at-a-time), a [`GroupTable`]
/// turns them into dense first-seen group ids, and the aggregates update
/// columnar state by group id. The codec is an order-preserving injection
/// up to `Value::total_cmp` equality, which canonicalizes exactly like
/// `Value`'s `Eq`/`Hash` (Int 5 ≡ Double 5.0, one NaN, one zero) — so byte
/// equality groups precisely the rows the row engine groups, and first-
/// seen order matches its output order.
///
/// One path for every budget (unbounded is `usize::MAX`): output rows
/// order by their group's first row's global position, which *is*
/// first-seen order — and every row of a key aggregates in arrival order
/// whether the key stayed in memory or spilled, so results (float sums
/// included) are bit-identical at every budget.
struct HashGroupByOp {
    child: Box<dyn Operator>,
    spec: Arc<AggSpec>,
    out: BatchQueue,
}

impl Operator for HashGroupByOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.child.open(cx, rec)?;
        let budget = cx.memory_budget.unwrap_or(usize::MAX);
        let mut state = GroupState::new(&self.spec);
        let mut scratch = GroupScratch::default();
        let mut seq = 0u64;
        let mut seqs: Vec<u64> = Vec::new();
        while let Some(batch) = self.child.next_batch(cx, rec)? {
            seqs.clear();
            seqs.extend(seq..seq + batch.len() as u64);
            seq += batch.len() as u64;
            state.absorb_batch(&batch, &seqs, budget, 0, &mut scratch, &mut rec.stats.io)?;
        }
        self.child.close(rec);
        let mut parts: Vec<(Batch, Vec<u64>)> = Vec::new();
        state.drain(budget, 0, rec, &mut parts)?;
        let mut order: Vec<(u64, u32, u32)> = Vec::new();
        for (p, (_, first_seqs)) in parts.iter().enumerate() {
            order.extend(
                first_seqs
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| (s, p as u32, i as u32)),
            );
        }
        order.sort_unstable();
        let sel: Vec<(u32, u32)> = order.iter().map(|&(_, p, i)| (p, i)).collect();
        let sources: Vec<&Batch> = parts.iter().map(|(b, _)| b).collect();
        self.out.clear();
        self.out.push(Batch::gather_multi(&sources, &sel)?);
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

// ---------------------------------------------------------------------
// Order-based group-by (fully streaming)
// ---------------------------------------------------------------------

/// Order-based group-by on the aggregation kernel: group keys encode into
/// a memcmp-able arena once per batch (byte equality ≡ `Value` equality,
/// same canonicalization argument as [`HashGroupByOp`]), group ids come
/// from run boundaries — a byte-slice comparison against the previous
/// row's key — and the aggregates update columnar state by group id. The
/// last group of a batch stays open (it is group 0 of the next batch);
/// every group before it leaves as columns.
struct StreamGroupByOp {
    child: Box<dyn Operator>,
    spec: Arc<AggSpec>,
    agg: GroupAgg,
    /// Encoded key of the open group (meaningful while `agg` holds one).
    open_key: Vec<u8>,
    scratch: GroupScratch,
    input_done: bool,
    out: BatchQueue,
}

impl StreamGroupByOp {
    fn absorb(&mut self, batch: &Batch) -> Result<()> {
        let GroupScratch {
            key_bytes: kb,
            key_offsets: ko,
            gids,
            first,
        } = &mut self.scratch;
        self.spec.encode_keys(batch, kb, ko);
        gids.clear();
        first.clear();
        let mut open = self.agg.groups();
        let mut prev: &[u8] = &self.open_key;
        for (i, w) in ko.windows(2).enumerate() {
            let key = &kb[w[0]..w[1]];
            if open == 0 || key != prev {
                open += 1;
                first.push(i as u32);
            }
            gids.push(open as u32 - 1);
            prev = key;
        }
        self.agg.absorb(batch, gids, first)?;
        if self.agg.groups() > 1 {
            self.out.push(self.agg.take(self.agg.groups() - 1)?);
        }
        if let Some(w) = ko.windows(2).last() {
            self.open_key.clear();
            self.open_key.extend_from_slice(&kb[w[0]..w[1]]);
        }
        Ok(())
    }
}

impl Operator for StreamGroupByOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.agg = GroupAgg::new(Arc::clone(&self.spec));
        self.input_done = false;
        self.child.open(cx, rec)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        loop {
            if !self.out.is_empty() {
                return self.out.take(cx.batch_size).map(Some);
            }
            if self.input_done {
                return Ok(None);
            }
            match self.child.next_batch(cx, rec)? {
                Some(batch) => self.absorb(&batch)?,
                None => {
                    self.input_done = true;
                    self.out.push(self.agg.finish()?);
                }
            }
        }
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.agg = GroupAgg::new(Arc::clone(&self.spec));
        self.out.clear();
        self.child.close(rec);
    }
}

// ---------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------

/// Index nested-loop join, vectorized: streams the outer, probing the
/// inner table's index per row and collecting the matching row ids —
/// leaf, page, pool and `rows_read` charges fall per probe and per
/// fetched row, in probe order — then assembles the candidates with one
/// columnar gather per side per outer batch. One [`PageCursor`] persists
/// for the operator's lifetime, so probes arriving in inner-page order
/// (the paper's ordered nested-loop join) hit the just-read page for
/// free.
struct IndexNestedLoopJoinOp {
    outer: Box<dyn Operator>,
    table: TableId,
    index: IndexId,
    probe_pos: Vec<usize>,
    predicates: Vec<PredId>,
    layout: RowLayout,
    cursor: PageCursor,
    out: BatchQueue,
}

impl Operator for IndexNestedLoopJoinOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        // Probe streams pay a full seek on their first fetch.
        self.cursor = PageCursor::probing();
        self.outer.open(cx, rec)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        let heap = cx.db.heap(self.table)?;
        let ix = cx.db.index(self.index)?;
        let mut key: Vec<Value> = Vec::with_capacity(self.probe_pos.len());
        loop {
            if !self.out.is_empty() {
                return self.out.take(cx.batch_size).map(Some);
            }
            let Some(batch) = self.outer.next_batch(cx, rec)? else {
                return Ok(None);
            };
            let mut osel: Vec<u32> = Vec::new();
            let mut rids: Vec<usize> = Vec::new();
            for oi in 0..batch.len() {
                key.clear();
                key.extend(self.probe_pos.iter().map(|&p| batch.column(p).value(oi)));
                rec.stats.io.index_pages += 1; // descent touches one leaf
                for (_, rid) in ix.probe(&key) {
                    // Probe fetches share the budgeted buffer pool with
                    // the scans (keyed by table id); unbounded executions
                    // charge exactly as before.
                    self.cursor.touch(
                        heap.table().0 as u64,
                        heap.page_of(*rid),
                        &mut rec.stats.io,
                        rec.pool.as_mut(),
                    );
                    rec.stats.io.rows_read += 1;
                    osel.push(oi as u32);
                    rids.push(*rid);
                }
            }
            if osel.is_empty() {
                continue;
            }
            let mut cols = batch.gather(&osel).columns().to_vec();
            cols.extend(heap.gather(&rids)?.columns().iter().cloned());
            let cand = Batch::from_columns_with_len(cols, osel.len())?;
            push_matches(&mut self.out, cx, &self.predicates, &self.layout, cand)?;
        }
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.out.clear();
        self.outer.close(rec);
    }
}

/// Queues the rows of a join's candidate batch that pass every residual
/// predicate (survivors gather once).
fn push_matches(
    out: &mut BatchQueue,
    cx: &ExecContext<'_>,
    predicates: &[PredId],
    layout: &RowLayout,
    cand: Batch,
) -> Result<()> {
    let sel = passing(cx, predicates, &cand, layout)?;
    if sel.len() == cand.len() {
        out.push(cand);
    } else if !sel.is_empty() {
        out.push(cand.gather(&sel));
    }
    Ok(())
}

/// How many build rows each spilled record groups together: overflow
/// rows seal into fixed-size column pages so probe-side re-reads
/// amortize one decode over a whole group instead of one row.
const JOIN_SPILL_GROUP_ROWS: usize = 256;

/// Where a join's build row lives: resident at slot `i` of the build's
/// `mem` batch, or at `row` inside spilled column-page group `group`.
#[derive(Clone, Copy)]
enum BuildRef {
    Mem(u32),
    Spilled { group: u32, row: u32 },
}

/// The materialized build side of the build–probe join, consumed
/// batch-at-a-time. Keys arena-encode per input batch (byte equality ≡
/// `Value` equality by codec canonicalization) and a [`GroupTable`] turns
/// them into dense key ids; a join without equi keys encodes every row to
/// the empty key, so its whole build side is key 0. Resident rows gather
/// into columnar segments, and overflow rows past the memory budget spill
/// as [`JOIN_SPILL_GROUP_ROWS`]-row column pages ([`spill::write_batch`]).
/// [`Self::finish`] lays the rows out as a CSR match list — key `g`'s rows
/// are `refs[offsets[g]..offsets[g + 1]]` in build (arrival) order,
/// resident and spilled alike — so match order, and with it output order,
/// is the interpreter's at every budget. The probe buckets each candidate
/// chunk's spilled refs by group and decodes every touched group once
/// ([`Self::candidates`]), holding one decoded group at a time.
struct JoinBuild {
    ikeys: SortKeys,
    /// The declared types of the inner side's columns: what `mem` is
    /// built as when no row stays resident, and what a left-outer join
    /// pads an unmatched outer row with.
    types: Vec<DataType>,
    /// Resident segments, concatenated into `mem` at [`Self::finish`].
    segs: Vec<Batch>,
    mem: Batch,
    mem_rows: u32,
    bytes: usize,
    table: GroupTable,
    /// Until [`Self::finish`]: every admitted row's key id and location,
    /// in arrival order.
    arrivals: Vec<(u32, BuildRef)>,
    offsets: Vec<u32>,
    refs: Vec<BuildRef>,
    /// Overflow rows not yet sealed into a spilled group.
    pending: BatchQueue,
    spilled_rows: u32,
    group_offsets: Vec<u64>,
    file: SpillFile,
    /// The one decoded spilled group alive: the last group a candidate
    /// chunk touched, kept so the next chunk re-reads nothing when it
    /// starts where this one ended (a keyless probe walks the groups in
    /// order, a chunk at a time).
    cache: Option<(u32, Batch)>,
    /// Scratch reused across batches: the resident and the overflow rows
    /// of an absorbed batch, a sealed group's bytes, and a candidate
    /// chunk's spilled refs as `(group, pair, row)`.
    mem_sel: Vec<u32>,
    spill_sel: Vec<u32>,
    payload: Vec<u8>,
    spilled: Vec<(u32, u32, u32)>,
}

impl JoinBuild {
    fn new(ikeys: SortKeys, types: Vec<DataType>) -> JoinBuild {
        JoinBuild {
            ikeys,
            segs: Vec::new(),
            mem: Batch::empty(&types),
            types,
            mem_rows: 0,
            bytes: 0,
            table: GroupTable::new(),
            arrivals: Vec::new(),
            offsets: Vec::new(),
            refs: Vec::new(),
            pending: BatchQueue::default(),
            spilled_rows: 0,
            group_offsets: Vec::new(),
            file: SpillFile::new(),
            cache: None,
            mem_sel: Vec::new(),
            spill_sel: Vec::new(),
            payload: Vec::new(),
            spilled: Vec::new(),
        }
    }

    fn reset(&mut self) {
        *self = JoinBuild::new(
            std::mem::take(&mut self.ikeys),
            std::mem::take(&mut self.types),
        );
    }

    /// Absorbs one build batch: rows that fit the budget stay resident
    /// (gathered into a columnar segment), overflow rows queue toward
    /// the next spilled group. Rows are admitted in arrival order at
    /// [`batch_row_bytes`] each, whatever their key.
    fn absorb(
        &mut self,
        batch: &Batch,
        budget: Option<usize>,
        scratch: &mut GroupScratch,
        io: &mut IoStats,
    ) -> Result<()> {
        let GroupScratch {
            key_bytes,
            key_offsets,
            gids,
            first,
        } = scratch;
        encode_batch_keys_arena(batch, &self.ikeys, key_bytes, key_offsets);
        // NULL never joins: a key with a NULL in it is never admitted, so
        // its rows get no key id and drop below — and, the codec being
        // injective, a probe key with a NULL in it finds nothing.
        let ikeys = &self.ikeys;
        self.table
            .assign(key_bytes, key_offsets, gids, first, |i, _| {
                ikeys.iter().all(|&(p, _)| batch.column(p).is_valid(i))
            });
        self.mem_sel.clear();
        self.spill_sel.clear();
        for (i, &gid) in gids.iter().enumerate() {
            if gid == NO_GROUP {
                continue;
            }
            let overflow = match budget {
                Some(budget) => {
                    let cost = batch_row_bytes(batch, i);
                    if self.bytes + cost > budget && self.mem_rows > 0 {
                        true
                    } else {
                        self.bytes += cost;
                        false
                    }
                }
                None => false,
            };
            let r = if overflow {
                self.spill_sel.push(i as u32);
                let r = BuildRef::Spilled {
                    group: self.spilled_rows / JOIN_SPILL_GROUP_ROWS as u32,
                    row: self.spilled_rows % JOIN_SPILL_GROUP_ROWS as u32,
                };
                self.spilled_rows += 1;
                r
            } else {
                self.mem_sel.push(i as u32);
                let r = BuildRef::Mem(self.mem_rows);
                self.mem_rows += 1;
                r
            };
            self.arrivals.push((gid, r));
        }
        if self.mem_sel.len() == batch.len() {
            self.segs.push(batch.clone());
        } else if !self.mem_sel.is_empty() {
            self.segs.push(batch.gather(&self.mem_sel));
        }
        if !self.spill_sel.is_empty() {
            self.pending.push(batch.gather(&self.spill_sel));
            self.flush_groups(false, io)?;
        }
        Ok(())
    }

    /// Seals pending overflow rows into spilled column-page records of
    /// exactly [`JOIN_SPILL_GROUP_ROWS`] rows (the final group may be
    /// shorter when `fin`).
    fn flush_groups(&mut self, fin: bool, io: &mut IoStats) -> Result<()> {
        while self.pending.len() >= JOIN_SPILL_GROUP_ROWS || (fin && !self.pending.is_empty()) {
            let group = self.pending.take(JOIN_SPILL_GROUP_ROWS)?;
            self.payload.clear();
            spill::write_batch(&group, &mut self.payload);
            self.group_offsets
                .push(self.file.append_record(&self.payload, io));
        }
        Ok(())
    }

    fn finish(&mut self, rec: &mut ExecRecord) -> Result<()> {
        self.flush_groups(true, &mut rec.stats.io)?;
        if !self.segs.is_empty() {
            self.mem = Batch::concat(&std::mem::take(&mut self.segs))?;
        }
        if !self.file.is_empty() {
            rec.mark(
                |s| &mut s.spill.runs_formed,
                "spill",
                "spill.runs_formed x1",
            );
        }
        // A stable counting pass: count each key's rows, prefix-sum the
        // counts into `offsets`, then drop the rows into place in arrival
        // order.
        let arrivals = std::mem::take(&mut self.arrivals);
        self.offsets = vec![0; self.table.len() + 1];
        for &(g, _) in &arrivals {
            self.offsets[g as usize + 1] += 1;
        }
        for g in 0..self.table.len() {
            self.offsets[g + 1] += self.offsets[g];
        }
        let mut at = self.offsets.clone();
        self.refs = vec![BuildRef::Mem(0); arrivals.len()];
        for (g, r) in arrivals {
            self.refs[at[g as usize] as usize] = r;
            at[g as usize] += 1;
        }
        Ok(())
    }

    /// Where key `g`'s rows sit in `refs` (nowhere, for [`NO_GROUP`]).
    fn matches(&self, g: u32) -> std::ops::Range<usize> {
        match g {
            NO_GROUP => 0..0,
            _ => self.offsets[g as usize] as usize..self.offsets[g as usize + 1] as usize,
        }
    }

    /// Rows `rows` of spilled group `g`, gathered out of the one decoded
    /// group alive: the group the last call left, or `g` re-read and
    /// decoded in its place.
    fn gather_group(&mut self, g: u32, rows: &[u32], io: &mut IoStats) -> Result<Batch> {
        if let Some((_, b)) = self.cache.as_ref().filter(|(cg, _)| *cg == g) {
            return Ok(b.gather(rows));
        }
        if let Some((_, old)) = self.cache.take() {
            let sole = |c: &Arc<Column>| Arc::strong_count(c) == 1;
            debug_assert!(
                old.columns().iter().all(sole),
                "a decoded group is still held"
            );
        }
        let rec = SpillCursor::new(self.group_offsets[g as usize], self.file.len())
            .read_record(&self.file, io)?
            .ok_or_else(|| FtoError::Exec(format!("spilled join build group {g} missing")))?;
        let (_, b) = self.cache.insert((g, spill::read_batch(&rec, &mut 0)?));
        Ok(b.gather(rows))
    }

    /// Assembles one chunk of candidates: outer columns gathered by
    /// `osel` (the probe row of the j-th pair), build columns gathered by
    /// `brefs` from `mem` and one piece per spilled group the chunk
    /// touches. The spilled refs bucket by group — `(group, pair)` sorts
    /// stably, the pair index being unique — and the groups are walked,
    /// the one still decoded first and the rest in ascending order, each
    /// decoded once, its rows gathered into a piece and the decoded group
    /// let go before the next: a chunk reads a group once however its
    /// matches hop, and the pieces sum to at most the chunk.
    fn candidates(
        &mut self,
        outer: &Batch,
        osel: &[u32],
        brefs: &[BuildRef],
        io: &mut IoStats,
    ) -> Result<Batch> {
        let mut pairs = vec![(0u32, 0u32); brefs.len()];
        let mut spilled = std::mem::take(&mut self.spilled);
        spilled.clear();
        for (j, &r) in brefs.iter().enumerate() {
            match r {
                BuildRef::Mem(i) => pairs[j] = (0, i),
                BuildRef::Spilled { group, row } => spilled.push((group, j as u32, row)),
            }
        }
        let live = self.cache.as_ref().map(|(g, _)| *g);
        spilled.sort_unstable_by_key(|&(g, j, _)| (Some(g) != live, g, j));
        let mut sources: Vec<Batch> = vec![self.mem.clone()];
        let mut rows: Vec<u32> = Vec::new();
        for run in spilled.chunk_by(|a, b| a.0 == b.0) {
            rows.clear();
            for (k, &(_, j, row)) in run.iter().enumerate() {
                pairs[j as usize] = (sources.len() as u32, k as u32);
                rows.push(row);
            }
            sources.push(self.gather_group(run[0].0, &rows, io)?);
        }
        self.spilled = spilled;
        let srcs: Vec<&Batch> = sources.iter().collect();
        let mut cols = outer.gather(osel).columns().to_vec();
        cols.extend(
            Batch::gather_multi(&srcs, &pairs)?
                .columns()
                .iter()
                .cloned(),
        );
        Batch::from_columns_with_len(cols, osel.len())
    }
}

/// One outer batch's probe in progress.
struct Probe<'a> {
    batch: &'a Batch,
    /// The candidate chunk being filled: each pair's outer row and build
    /// row.
    osel: Vec<u32>,
    brefs: Vec<BuildRef>,
    /// Left outer only: `batch` with NULLs for the inner's columns.
    padded: Option<Batch>,
    /// Left outer only: the first outer row whose output is not complete,
    /// and whether one of its candidates passed in an earlier chunk.
    next: usize,
    matched: bool,
}

/// The build–probe join — the operator behind [`PlanNode::Join`]. The
/// inner side materializes into a [`JoinBuild`] at open; the outer side
/// streams, so the output
/// inherits the outer's order (paper §5.2.1). Per outer batch the probe
/// keys arena-encode and look up their build key id, every outer row's
/// match list is `refs[offsets[g]..offsets[g + 1]]`, the (outer, build)
/// pairs assemble by columnar gather at most [`ExecContext::batch_size`]
/// at a time, and the residual predicates refine each chunk's selection
/// vector. A left-outer join splices a null-padded copy of every outer
/// row that no candidate passed for back into outer order.
///
/// | `Plan::op_name` | `kind` | keys | `predicates` |
/// |---|---|---|---|
/// | `nested-loop-join` | inner | none: every outer row pairs with the whole build side | all of the join's |
/// | `hash-join` | inner | the equi-join columns | the rest |
/// | `left-outer-join` | left outer | the ON clause's equi columns, possibly none | the rest of ON |
struct JoinOp {
    kind: JoinKind,
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    okeys: SortKeys,
    predicates: Vec<PredId>,
    layout: RowLayout,
    build: JoinBuild,
    /// Key-encoding scratch of the build's and the probe's batches.
    scratch: GroupScratch,
    out: BatchQueue,
}

impl JoinOp {
    /// Joins one outer batch — `scratch.gids[i]` is row `i`'s build key
    /// id — and queues the result.
    fn probe(&mut self, cx: &ExecContext<'_>, batch: &Batch, io: &mut IoStats) -> Result<()> {
        let padded = match self.kind {
            JoinKind::Inner => None,
            JoinKind::LeftOuter => {
                let mut cols = batch.columns().to_vec();
                let inner = self.build.types.iter();
                cols.extend(inner.map(|&ty| Arc::new(Column::nulls(ty, batch.len()))));
                Some(Batch::from_columns_with_len(cols, batch.len())?)
            }
        };
        let mut p = Probe {
            batch,
            osel: Vec::new(),
            brefs: Vec::new(),
            padded,
            next: 0,
            matched: false,
        };
        for i in 0..batch.len() {
            let mut matches = self.build.matches(self.scratch.gids[i]);
            while !matches.is_empty() {
                if p.osel.len() == cx.batch_size {
                    // Rows before `i` have all their pairs behind them;
                    // row `i` may have some on either side of this cut.
                    self.emit(cx, &mut p, i, io)?;
                    p.osel.clear();
                    p.brefs.clear();
                }
                let n = matches.len().min(cx.batch_size - p.osel.len());
                p.osel.extend(std::iter::repeat_n(i as u32, n));
                p.brefs
                    .extend_from_slice(&self.build.refs[matches.start..matches.start + n]);
                matches.start += n;
            }
        }
        self.emit(cx, &mut p, batch.len(), io)
    }

    /// Evaluates the probe's current chunk and queues what it settles:
    /// the pairs that pass the residual predicates and — left outer — a
    /// null-padded copy of every outer row below `done` that no pair
    /// passed for, in outer order. `done` counts the outer rows whose
    /// pairs are all in this chunk or an earlier one.
    fn emit(
        &mut self,
        cx: &ExecContext<'_>,
        p: &mut Probe<'_>,
        done: usize,
        io: &mut IoStats,
    ) -> Result<()> {
        debug_assert!(p.osel.len() <= cx.batch_size, "candidate chunk overflow");
        if p.osel.is_empty() && p.padded.is_none() {
            return Ok(());
        }
        let cand = self.build.candidates(p.batch, &p.osel, &p.brefs, io)?;
        let Some(padded) = &p.padded else {
            return push_matches(&mut self.out, cx, &self.predicates, &self.layout, cand);
        };
        // `sel` is ascending and `osel` non-decreasing, so one forward
        // merge splices survivors and padded rows into outer order.
        let sel = passing(cx, &self.predicates, &cand, &self.layout)?;
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(sel.len());
        let mut si = 0;
        for oi in p.next..=done {
            while si < sel.len() && p.osel[sel[si] as usize] as usize == oi {
                pairs.push((0, sel[si]));
                p.matched = true;
                si += 1;
            }
            if oi < done {
                if !p.matched {
                    pairs.push((1, oi as u32));
                }
                p.matched = false;
            }
        }
        p.next = done;
        self.out
            .push(Batch::gather_multi(&[&cand, padded], &pairs)?);
        Ok(())
    }
}

impl Operator for JoinOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.build.reset();
        self.inner.open(cx, rec)?;
        while let Some(batch) = self.inner.next_batch(cx, rec)? {
            let scratch = &mut self.scratch;
            self.build
                .absorb(&batch, cx.memory_budget, scratch, &mut rec.stats.io)?;
        }
        self.inner.close(rec);
        self.build.finish(rec)?;
        self.outer.open(cx, rec)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        loop {
            if !self.out.is_empty() {
                return self.out.take(cx.batch_size).map(Some);
            }
            let Some(batch) = self.outer.next_batch(cx, rec)? else {
                return Ok(None);
            };
            let s = &mut self.scratch;
            encode_batch_keys_arena(&batch, &self.okeys, &mut s.key_bytes, &mut s.key_offsets);
            self.build
                .table
                .lookup(&s.key_bytes, &s.key_offsets, &mut s.gids);
            self.probe(cx, &batch, &mut rec.stats.io)?;
        }
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.build.reset();
        self.out.clear();
        self.outer.close(rec);
    }
}

// ---------------------------------------------------------------------
// Merge join (fully streaming)
// ---------------------------------------------------------------------

/// One side of an in-progress merge join: a window of buffered batches
/// (Arc-shared columns) plus the cursor into it, with every buffered
/// row's equality key encoded into a memcmp-able arena as it arrives.
/// The window resets once fully consumed, so memory stays bounded by
/// the current tie group plus the batches that arrived alongside it.
struct MergeSide {
    win: Batch,
    /// Encoded-key arena over `win` (`ko` holds n+1 offsets).
    kb: Vec<u8>,
    ko: Vec<usize>,
    /// Per-batch encode scratch, appended onto `kb`/`ko`.
    sb: Vec<u8>,
    so: Vec<usize>,
    pos: usize,
    done: bool,
    kpos: Vec<usize>,
    /// The key positions as ascending sort keys — equality detection
    /// encodes under these (direction is irrelevant for equality;
    /// ascending keeps the encoding canonical).
    keys_asc: SortKeys,
}

impl MergeSide {
    fn new(kpos: Vec<usize>) -> MergeSide {
        MergeSide {
            win: Batch::empty(&[]),
            kb: Vec::new(),
            ko: vec![0],
            sb: Vec::new(),
            so: Vec::new(),
            pos: 0,
            done: false,
            keys_asc: kpos.iter().map(|&p| (p, Direction::Asc)).collect(),
            kpos,
        }
    }

    fn key(&self, i: usize) -> &[u8] {
        &self.kb[self.ko[i]..self.ko[i + 1]]
    }

    fn key_is_null(&self) -> bool {
        self.kpos
            .iter()
            .any(|&p| !self.win.column(p).is_valid(self.pos))
    }

    fn absorb(&mut self, batch: Batch) -> Result<()> {
        encode_batch_keys_arena(&batch, &self.keys_asc, &mut self.sb, &mut self.so);
        let base = self.kb.len();
        self.kb.extend_from_slice(&self.sb);
        self.ko.extend(self.so[1..].iter().map(|&o| base + o));
        self.win = if self.win.is_empty() {
            batch
        } else {
            Batch::concat(&[self.win.clone(), batch])?
        };
        Ok(())
    }

    /// Drops the consumed prefix `[0, start)` before the window grows:
    /// without this, a run touching the window's end would concat the
    /// next batch onto every already-emitted row, and the window (plus
    /// the per-absorb copy) would grow with the whole input instead of
    /// staying bounded by one tie group plus one batch. Emitted group
    /// slices stay valid — `slice` hands out its own columns.
    fn trim(&mut self, start: usize) {
        self.win = self.win.slice(start, self.win.len() - start);
        let base = self.ko[start];
        self.kb.drain(..base);
        self.ko.drain(..start);
        for o in &mut self.ko {
            *o -= base;
        }
        self.pos -= start;
    }
}

/// Ensures `side.win` has a row at `side.pos`; returns false when the
/// input is exhausted.
fn merge_fill(
    side: &mut MergeSide,
    child: &mut Box<dyn Operator>,
    cx: &ExecContext<'_>,
    rec: &mut ExecRecord,
) -> Result<bool> {
    while side.pos >= side.win.len() && !side.done {
        if side.pos > 0 {
            // Whole window consumed: drop it (slices handed out earlier
            // keep their columns alive via Arc).
            side.win = Batch::empty(&[]);
            side.kb.clear();
            side.ko.clear();
            side.ko.push(0);
            side.pos = 0;
        }
        match child.next_batch(cx, rec)? {
            Some(batch) => side.absorb(batch)?,
            None => side.done = true,
        }
    }
    Ok(side.pos < side.win.len())
}

/// Consumes and returns the full run of rows sharing the current row's
/// key, pulling more input as needed to find the run's end. Ties cut on
/// encoded-prefix equality — memcmp of the arena slices, same outcome
/// as the per-column `Value` walk.
fn merge_take_group(
    side: &mut MergeSide,
    child: &mut Box<dyn Operator>,
    cx: &ExecContext<'_>,
    rec: &mut ExecRecord,
) -> Result<Batch> {
    let mut start = side.pos;
    let mut end = start + 1;
    loop {
        while end < side.win.len() && side.key(end) == side.key(start) {
            end += 1;
        }
        if end < side.win.len() || side.done {
            break;
        }
        // The run may continue into the next batch. Compact the consumed
        // prefix away before growing the window.
        if start > 0 {
            side.trim(start);
            end -= start;
            start = 0;
        }
        match child.next_batch(cx, rec)? {
            Some(batch) => side.absorb(batch)?,
            None => side.done = true,
        }
    }
    side.pos = end;
    Ok(side.win.slice(start, end - start))
}

/// Merge join, vectorized: both sides advance on encoded key columns
/// with memcmp (the per-column encodings are prefix-free, so comparing
/// the concatenated keys ≡ the zipped `total_cmp` walk), tie groups cut
/// on arena-slice equality, and each group pair's cross product builds
/// by columnar gather.
struct MergeJoinOp {
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    o: MergeSide,
    i: MergeSide,
    predicates: Vec<PredId>,
    layout: RowLayout,
    done: bool,
    out: BatchQueue,
}

impl Operator for MergeJoinOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.done = false;
        self.outer.open(cx, rec)?;
        self.inner.open(cx, rec)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        loop {
            if !self.out.is_empty() {
                return self.out.take(cx.batch_size).map(Some);
            }
            if self.done {
                return Ok(None);
            }
            if !merge_fill(&mut self.o, &mut self.outer, cx, rec)?
                || !merge_fill(&mut self.i, &mut self.inner, cx, rec)?
            {
                self.done = true;
                continue;
            }
            // NULL keys never join; skip them on either side.
            if self.o.key_is_null() {
                self.o.pos += 1;
                continue;
            }
            if self.i.key_is_null() {
                self.i.pos += 1;
                continue;
            }
            match self.o.key(self.o.pos).cmp(self.i.key(self.i.pos)) {
                Ordering::Less => self.o.pos += 1,
                Ordering::Greater => self.i.pos += 1,
                Ordering::Equal => {
                    let og = merge_take_group(&mut self.o, &mut self.outer, cx, rec)?;
                    let ig = merge_take_group(&mut self.i, &mut self.inner, cx, rec)?;
                    // Outer-major cross product by gather: outer rows
                    // repeat, inner rows tile.
                    let mut rep = Vec::with_capacity(og.len() * ig.len());
                    let mut tile = Vec::with_capacity(og.len() * ig.len());
                    for oi in 0..og.len() as u32 {
                        for ii in 0..ig.len() as u32 {
                            rep.push(oi);
                            tile.push(ii);
                        }
                    }
                    let mut cols = og.gather(&rep).columns().to_vec();
                    cols.extend(ig.gather(&tile).columns().iter().cloned());
                    let cand = Batch::from_columns_with_len(cols, rep.len())?;
                    push_matches(&mut self.out, cx, &self.predicates, &self.layout, cand)?;
                }
            }
        }
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.o = MergeSide::new(std::mem::take(&mut self.o.kpos));
        self.i = MergeSide::new(std::mem::take(&mut self.i.kpos));
        self.out.clear();
        self.outer.close(rec);
        self.inner.close(rec);
    }
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// Lowering context: whether to instrument, pre-order id assignment, and
/// the parallelism state.
///
/// Every plan node gets its pre-order id as lowering reaches it. When
/// lowering inserts an exchange, the coordinator builds no operators for
/// the exchanged subtree — it only advances `next_id` past it, so sibling
/// nodes keep their ids — and each worker re-lowers that subtree via
/// [`lower_worker`] with `next_id` starting at the subtree root's id, so
/// a worker's wrappers fill the same slots of its private record that the
/// coordinator's record has for those nodes. Workers always lower with
/// `threads = 1`, so exchanges never nest.
pub(crate) struct LowerCx<'a> {
    /// The query graph: its registry declares every column's type, which
    /// the operators that *build* columns (aggregate results, a left-outer
    /// join's NULL padding, an empty build side) read here, once.
    graph: &'a QueryGraph,
    /// Wrap every operator in an [`InstrumentedOp`].
    instrument: bool,
    next_id: usize,
    threads: usize,
    /// `Some((part, parts))` while lowering one worker's partition of an
    /// exchanged subtree: scans restrict themselves to that partition.
    partition: Option<(usize, usize)>,
}

impl<'a> LowerCx<'a> {
    pub(crate) fn new(cx: &ExecContext<'a>, instrument: bool) -> LowerCx<'a> {
        LowerCx {
            graph: cx.graph,
            instrument,
            next_id: 0,
            threads: cx.threads,
            partition: None,
        }
    }
}

/// The declared types of a layout's columns, from the query's registry —
/// which is what every batch of a stream with that layout holds.
pub(crate) fn layout_types(graph: &QueryGraph, layout: &RowLayout) -> Result<Vec<DataType>> {
    let registry = &graph.registry;
    let declared = |&c: &ColId| match c.index() < registry.len() {
        true => Ok(registry.info(c).data_type),
        false => Err(FtoError::internal(format!(
            "column {c} of a plan layout is not in the query's registry"
        ))),
    };
    layout.cols().iter().map(declared).collect()
}

/// Lowers one worker's copy of an exchanged subtree: scans restricted to
/// partition `part` of `parts`, wrappers (when instrumenting) numbered
/// from the subtree root's pre-order id `base_id`. Called from inside the
/// worker thread, so the built operators never cross threads.
pub(crate) fn lower_worker(
    cx: &ExecContext<'_>,
    plan: &Plan,
    (part, parts): (usize, usize),
    instrument: bool,
    base_id: usize,
) -> Result<Box<dyn Operator>> {
    let mut lw = LowerCx {
        next_id: base_id,
        threads: 1,
        partition: Some((part, parts)),
        ..LowerCx::new(cx, instrument)
    };
    lower_impl(plan, &mut lw)
}

/// Records subtree-inclusive metrics for one operator into its slot of
/// the record, `rec.ops[id]`.
///
/// The wrapper snapshots the [`ExecStats`] stream before delegating and
/// merges the delta afterwards, so a slot accumulates everything charged
/// while control was inside its subtree — children included, every
/// counter alike. Exclusive figures are derived later by
/// [`PlanMetrics::self_stats`]; recording inclusively here is what makes
/// that subtraction telescope exactly to the session totals. Under an
/// exchange every worker's wrappers fill the slots of that worker's
/// private record, and the coordinator sums them slot by slot as it
/// absorbs the records — the same sum it merges into the session stream,
/// keeping the telescoping intact at every parallel degree.
struct InstrumentedOp {
    inner: Box<dyn Operator>,
    id: usize,
    /// `name#id` — the label of the spans this wrapper puts on the
    /// timeline of a profiled execution.
    label: String,
}

impl InstrumentedOp {
    /// Runs one `open`/`next_batch` call of the wrapped operator inside a
    /// `label.phase` span, adding the stream's delta and the time spent
    /// to the slot; `args` annotate the span's end from the call's result
    /// and the delta.
    fn observed<T>(
        &mut self,
        phase: &str,
        rec: &mut ExecRecord,
        call: impl FnOnce(&mut dyn Operator, &mut ExecRecord) -> T,
        args: impl FnOnce(&T, &ExecStats) -> Vec<(&'static str, u64)>,
    ) -> T {
        let name = || format!("{}.{phase}", self.label);
        rec.emit(SpanKind::Begin, "operator", name, Vec::new);
        let before = rec.stats;
        let started = Instant::now();
        let out = call(self.inner.as_mut(), rec);
        // Counters only grow: the subtraction cannot come up short.
        let delta = rec.stats.checked_sub(&before).unwrap_or_default();
        let m = &mut rec.ops[self.id];
        m.elapsed += started.elapsed();
        m.stats.merge(&delta);
        rec.emit(SpanKind::End, "operator", name, || args(&out, &delta));
        out
    }
}

impl Operator for InstrumentedOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.observed(
            "open",
            rec,
            |op, rec| op.open(cx, rec),
            |_, d| {
                vec![
                    ("seq_pages", d.io.sequential_pages),
                    ("sort_rows", d.io.sort_rows),
                ]
            },
        )
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        let result = self.observed(
            "next",
            rec,
            |op, rec| op.next_batch(cx, rec),
            |result, _| {
                let batch = result.as_ref().ok().and_then(Option::as_ref);
                vec![("rows", batch.map_or(0, Batch::len) as u64)]
            },
        );
        if let Ok(Some(batch)) = &result {
            let m = &mut rec.ops[self.id];
            m.rows += batch.len() as u64;
            m.batches += 1;
        }
        result
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        let name = || format!("{}.close", self.label);
        rec.emit(SpanKind::Begin, "operator", name, Vec::new);
        self.inner.close(rec);
        rec.emit(SpanKind::End, "operator", name, Vec::new);
    }
}

/// True when a subtree can run partitioned: a chain of filters and
/// projections over one table or index scan. Such a pipeline has no
/// cross-row state, so P workers each running it over a scan partition
/// together produce exactly the serial row stream, segment by segment.
fn partitionable(plan: &Plan) -> bool {
    match &plan.node {
        PlanNode::TableScan { .. } | PlanNode::IndexScan { .. } => true,
        PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => partitionable(input),
        _ => false,
    }
}

/// Lowers a child subtree that its parent fully drains at `open` (the
/// input of an enforcer without a satisfied prefix, a join build side, a
/// hash group-by input). At parallel degree > 1 a partitionable subtree
/// becomes a [`GatherOp`] that drains the P partition pipelines on worker
/// threads and concatenates their outputs in partition order — which *is*
/// the serial order, so parents observe the exact serial row stream. The
/// coordinator lowers nothing below a gather; it only steps `next_id`
/// past the subtree (see [`LowerCx`]).
fn lower_drained(plan: &Arc<Plan>, lw: &mut LowerCx<'_>) -> Result<Box<dyn Operator>> {
    if lw.partition.is_some() || lw.threads == 1 || !partitionable(plan) {
        return lower_impl(plan, lw);
    }
    let base_id = lw.next_id;
    lw.next_id += plan.count_ops(&|_| true);
    Ok(Box::new(GatherOp::new(PartitionSpec {
        plan: Arc::clone(plan),
        parts: lw.threads,
        base_id,
    })))
}

/// Lowers a [`PlanNode::Sort`], whose input satisfies the first
/// `prefix_len` keys of `spec`. Without a satisfied prefix the enforcer
/// drains its input at `open`; with one it streams group by group, so a
/// `LIMIT` above it keeps its early exit at every degree.
fn lower_enforcer(
    input: &Arc<Plan>,
    spec: &fto_order::OrderSpec,
    prefix_len: usize,
    limit: Option<u64>,
    lw: &mut LowerCx<'_>,
) -> Result<Box<dyn Operator>> {
    let keys = resolve_keys(spec, &input.layout)?;
    let child = match prefix_len {
        0 => lower_drained(input, lw)?,
        _ => lower_impl(input, lw)?,
    };
    let limit = limit.map(|n| n as usize);
    Ok(Box::new(EnforceOp::new(child, keys, prefix_len, limit)))
}

/// Lowers a [`PlanNode::Join`] over its `(child, equi-key columns)` sides.
/// The inner side is drained at `open`, so it may become a gather.
fn lower_join(
    kind: JoinKind,
    plan: &Plan,
    (outer, outer_keys): (&Arc<Plan>, &[ColId]),
    (inner, inner_keys): (&Arc<Plan>, &[ColId]),
    predicates: &[PredId],
    lw: &mut LowerCx<'_>,
) -> Result<Box<dyn Operator>> {
    let asc = |pos: Vec<usize>| pos.into_iter().map(|p| (p, Direction::Asc)).collect();
    let okeys = asc(positions(&outer.layout, outer_keys)?);
    let ikeys = asc(positions(&inner.layout, inner_keys)?);
    Ok(Box::new(JoinOp {
        kind,
        okeys,
        build: JoinBuild::new(ikeys, layout_types(lw.graph, &inner.layout)?),
        scratch: GroupScratch::default(),
        outer: lower_impl(outer, lw)?,
        inner: lower_drained(inner, lw)?,
        predicates: predicates.to_vec(),
        layout: plan.layout.clone(),
        out: BatchQueue::default(),
    }))
}

/// Lowers `plan`, wrapping every operator in an [`InstrumentedOp`] when
/// instrumenting. Ids go parent-before-children and children in
/// [`Plan::children`] order, which is exactly pre-order — the numbering
/// [`PlanMetrics`] documents. At parallel degree > 1 the coordinator
/// lowers the partitionable inputs its breakers drain at `open` to a
/// gather ([`lower_drained`]); worker threads then re-lower the gathered
/// subtrees via [`lower_worker`].
fn lower_impl(plan: &Plan, lw: &mut LowerCx<'_>) -> Result<Box<dyn Operator>> {
    let id = lw.next_id;
    lw.next_id += 1;
    let op: Box<dyn Operator> = match &plan.node {
        PlanNode::TableScan { table, .. } => {
            let (part, parts) = lw.partition.unwrap_or((0, 1));
            Box::new(ScanOp {
                table: *table,
                part,
                parts,
                state: HeapScanState::new(),
            })
        }
        PlanNode::IndexScan {
            index,
            table,
            range,
            reverse,
            ..
        } => {
            let (part, parts) = lw.partition.unwrap_or((0, 1));
            Box::new(IndexScanOp {
                index: *index,
                table: *table,
                range: range.clone(),
                reverse: *reverse,
                part,
                parts,
                state: None,
            })
        }
        PlanNode::Filter { input, predicates } => Box::new(FilterOp {
            child: lower_impl(input, lw)?,
            predicates: predicates.clone(),
            layout: input.layout.clone(),
        }),
        PlanNode::Project { input, exprs } => Box::new(ProjectOp {
            child: lower_impl(input, lw)?,
            exprs: exprs.iter().map(|(_, e)| e.clone()).collect(),
            layout: input.layout.clone(),
        }),
        PlanNode::Sort {
            input,
            spec,
            prefix_len,
            limit,
            ..
        } => lower_enforcer(input, spec, *prefix_len, *limit, lw)?,
        PlanNode::IndexNestedLoopJoin {
            outer,
            table,
            index,
            probe_cols,
            predicates,
            ..
        } => Box::new(IndexNestedLoopJoinOp {
            outer: lower_impl(outer, lw)?,
            table: *table,
            index: *index,
            probe_pos: probe_cols
                .iter()
                .map(|&c| {
                    outer.layout.position(c).ok_or_else(|| {
                        FtoError::internal(format!("probe column {c} missing from outer"))
                    })
                })
                .collect::<Result<Vec<_>>>()?,
            predicates: predicates.clone(),
            layout: plan.layout.clone(),
            cursor: PageCursor::new(),
            out: BatchQueue::default(),
        }),
        PlanNode::MergeJoin {
            outer,
            inner,
            outer_keys,
            inner_keys,
            predicates,
        } => {
            let okpos = positions(&outer.layout, outer_keys)?;
            let ikpos = positions(&inner.layout, inner_keys)?;
            let o = lower_impl(outer, lw)?;
            let i = lower_impl(inner, lw)?;
            Box::new(MergeJoinOp {
                o: MergeSide::new(okpos),
                i: MergeSide::new(ikpos),
                outer: o,
                inner: i,
                predicates: predicates.clone(),
                layout: plan.layout.clone(),
                done: false,
                out: BatchQueue::default(),
            })
        }
        PlanNode::Join {
            kind,
            outer,
            inner,
            outer_keys,
            inner_keys,
            predicates,
        } => lower_join(
            *kind,
            plan,
            (outer, outer_keys),
            (inner, inner_keys),
            predicates,
            lw,
        )?,
        PlanNode::GroupBy {
            input,
            grouping,
            aggs,
            method,
        } => {
            let gpos = positions(&input.layout, grouping)?;
            let types = layout_types(lw.graph, &plan.layout)?;
            let spec = Arc::new(AggSpec::new(&gpos, aggs, input.layout.clone(), types));
            match method {
                GroupMethod::Stream => Box::new(StreamGroupByOp {
                    child: lower_impl(input, lw)?,
                    agg: GroupAgg::new(Arc::clone(&spec)),
                    spec,
                    open_key: Vec::new(),
                    scratch: GroupScratch::default(),
                    input_done: false,
                    out: BatchQueue::default(),
                }),
                GroupMethod::Hash => Box::new(HashGroupByOp {
                    child: lower_drained(input, lw)?,
                    spec,
                    out: BatchQueue::default(),
                }),
            }
        }
        PlanNode::UnionAll { inputs } => Box::new(UnionAllOp {
            children: inputs
                .iter()
                .map(|p| lower_impl(p, lw))
                .collect::<Result<Vec<_>>>()?,
            current: 0,
            opened: false,
        }),
        PlanNode::Limit { input, n } => Box::new(LimitOp {
            child: lower_impl(input, lw)?,
            remaining: *n,
        }),
    };
    Ok(match lw.instrument {
        true => Box::new(InstrumentedOp {
            inner: op,
            id,
            label: format!("{}#{id}", plan.op_name()),
        }),
        false => op,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_plan_materialized;
    use fto_common::{ColId, ColSet, Direction, QuantifierId, Row};
    use fto_order::StreamProps;
    use fto_planner::cost::Cost;
    use fto_storage::{Database, PAGE_SIZE};
    use std::sync::Arc;

    fn test_db(rows: i64) -> Database {
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
            (0..rows)
                .map(|i| vec![Value::Int(i), Value::Int(i % 5)].into_boxed_slice())
                .collect(),
        )
        .unwrap();
        db
    }

    fn scan_plan() -> Arc<Plan> {
        Arc::new(Plan {
            node: PlanNode::TableScan {
                table: TableId(0),
                quantifier: QuantifierId(0),
            },
            layout: RowLayout::new(vec![ColId(0), ColId(1)]),
            props: StreamProps::base_table(ColSet::from_cols([ColId(0), ColId(1)]), vec![]),
            cost: Cost {
                total: 0.0,
                rows: 0.0,
            },
        })
    }

    /// What one plain execution through the driver produced.
    struct Run {
        batches: Vec<Batch>,
        stats: ExecStats,
    }

    impl Run {
        fn num_rows(&self) -> usize {
            self.batches.iter().map(Batch::len).sum()
        }

        fn rows(&self) -> Vec<Row> {
            let mut out = Vec::new();
            for b in &self.batches {
                b.append_rows_to(&mut out);
            }
            out
        }
    }

    /// Drives a hand-built plan under `config`'s execution knobs with a
    /// plain record.
    fn run(db: &Database, graph: &QueryGraph, plan: &Plan, config: &OptimizerConfig) -> Run {
        let cx = ExecContext::new(db, graph, config);
        let mut rec = ExecRecord::new(cx.memory_budget, 0, None);
        let (batches, _) = drive(&cx, plan, &mut rec).unwrap();
        Run {
            batches,
            stats: rec.stats,
        }
    }

    fn knobs(batch_size: usize, threads: usize, budget: Option<usize>) -> OptimizerConfig {
        let config = OptimizerConfig::default()
            .with_batch_size(batch_size)
            .with_threads(threads);
        match budget {
            Some(b) => config.with_memory_budget(b),
            None => config,
        }
    }

    #[test]
    fn streaming_scan_matches_materialized() {
        let db = test_db(500);
        let graph = QueryGraph::new();
        let plan = scan_plan();
        let old = run_plan_materialized(&db, &graph, &plan).unwrap();
        let new = run(&db, &graph, &plan, &knobs(64, 1, None));
        assert_eq!(old.rows, new.rows());
        assert_eq!(old.io.sequential_pages, new.stats.io.sequential_pages);
        assert_eq!(old.io.rows_read, new.stats.io.rows_read);
    }

    #[test]
    fn limit_reads_strictly_fewer_pages() {
        let db = test_db(5000);
        let graph = QueryGraph::new();
        let scan = scan_plan();
        let limit = Plan {
            node: PlanNode::Limit {
                input: scan.clone(),
                n: 10,
            },
            layout: scan.layout.clone(),
            props: scan.props.clone(),
            cost: scan.cost,
        };
        let old = run_plan_materialized(&db, &graph, &limit).unwrap();
        let new = run(&db, &graph, &limit, &OptimizerConfig::default());
        assert_eq!(old.rows, new.rows());
        assert_eq!(new.num_rows(), 10);
        // Streaming output arrives as non-empty batches that sum to the
        // row count — operators never emit empties.
        assert!(new.batches.iter().all(|b| !b.is_empty()));
        assert_eq!(new.batches.iter().map(Batch::len).sum::<usize>(), 10);
        let full_pages = db.heap(TableId(0)).unwrap().page_count();
        assert_eq!(old.io.sequential_pages, full_pages);
        assert!(
            new.stats.io.sequential_pages < full_pages,
            "streaming LIMIT read {} of {} pages",
            new.stats.io.sequential_pages,
            full_pages
        );
    }

    #[test]
    fn tiny_batches_still_agree() {
        let db = test_db(97);
        let graph = QueryGraph::new();
        let scan = scan_plan();
        let sort = Plan {
            node: PlanNode::Sort {
                input: scan.clone(),
                spec: [fto_order::SortKey {
                    col: ColId(1),
                    dir: Direction::Desc,
                }]
                .into_iter()
                .collect(),
                prefix_len: 0,
                est_groups: 1,
                limit: None,
            },
            layout: scan.layout.clone(),
            props: scan.props.clone(),
            cost: scan.cost,
        };
        let old = run_plan_materialized(&db, &graph, &sort).unwrap();
        let new = run(&db, &graph, &sort, &knobs(1, 1, None));
        assert_eq!(old.rows, new.rows());
        assert_eq!(old.io.sort_rows, new.stats.io.sort_rows);
    }

    #[test]
    fn parallel_sort_matches_serial_bit_for_bit() {
        let db = test_db(1777);
        let graph = QueryGraph::new();
        let scan = scan_plan();
        let sort = Plan {
            node: PlanNode::Sort {
                input: scan.clone(),
                spec: [
                    fto_order::SortKey {
                        col: ColId(1),
                        dir: Direction::Desc,
                    },
                    fto_order::SortKey {
                        col: ColId(0),
                        dir: Direction::Asc,
                    },
                ]
                .into_iter()
                .collect(),
                prefix_len: 0,
                est_groups: 1,
                limit: None,
            },
            layout: scan.layout.clone(),
            props: scan.props.clone(),
            cost: scan.cost,
        };
        let serial = run(&db, &graph, &sort, &OptimizerConfig::default());
        for threads in [2usize, 3, 4] {
            let par = run(&db, &graph, &sort, &knobs(97, threads, None));
            assert_eq!(serial.rows(), par.rows(), "threads={threads}");
            // Page-aligned partitions charge exactly the serial totals.
            assert_eq!(
                serial.stats.io.sequential_pages,
                par.stats.io.sequential_pages
            );
            assert_eq!(serial.stats.io.rows_read, par.stats.io.rows_read);
            assert_eq!(serial.stats.io.sort_rows, par.stats.io.sort_rows);
            // The enforcer above the gather is the serial one.
            assert_eq!(serial.stats.sort, par.stats.sort);
        }
    }

    #[test]
    fn parallel_instrumented_rollup_stays_exact() {
        let db = test_db(2048);
        let graph = QueryGraph::new();
        let scan = scan_plan();
        let sort = Plan {
            node: PlanNode::Sort {
                input: scan.clone(),
                spec: [fto_order::SortKey {
                    col: ColId(1),
                    dir: Direction::Asc,
                }]
                .into_iter()
                .collect(),
                prefix_len: 0,
                est_groups: 1,
                limit: None,
            },
            layout: scan.layout.clone(),
            props: scan.props.clone(),
            cost: scan.cost,
        };
        for threads in [1usize, 2, 4] {
            let cx = ExecContext::new(&db, &graph, &knobs(128, threads, None));
            let mut rec = ExecRecord::new(None, sort.count_ops(&|_| true), None);
            let (batches, _) = drive(&cx, &sort, &mut rec).unwrap();
            assert_eq!(batches.iter().map(Batch::len).sum::<usize>(), 2048);
            let (totals, metrics) = (rec.stats, plan_metrics(&sort, rec.ops));
            assert!(
                metrics.validate().is_ok(),
                "threads={threads}: {:?}",
                metrics.validate()
            );
            assert_eq!(metrics.total(), totals, "threads={threads}");
            if threads > 1 {
                // The gathered scan carries one entry per worker.
                assert_eq!(metrics.ops[1].workers.len(), threads);
                let worker_rows: u64 = metrics.ops[1].workers.iter().map(|w| w.rows).sum();
                assert_eq!(worker_rows, 2048);
            }
        }
    }

    /// A child that replays canned batches — including, unlike the
    /// engine's own operators, a zero-row one.
    struct Feed(VecDeque<Batch>);

    impl Operator for Feed {
        fn open(&mut self, _: &ExecContext<'_>, _: &mut ExecRecord) -> Result<()> {
            Ok(())
        }

        fn next_batch(&mut self, _: &ExecContext<'_>, _: &mut ExecRecord) -> Result<Option<Batch>> {
            Ok(self.0.pop_front())
        }
    }

    #[test]
    fn empty_batches_are_not_input_to_a_global_aggregate() {
        // `select count(*), sum(c0)` over a child that yields one
        // zero-row batch: one output row (0, NULL) from both group-bys,
        // as from the interpreter; with a grouping column, none.
        use fto_expr::{AggCall, AggFunc};
        let db = test_db(1);
        let graph = QueryGraph::new();
        let cx = ExecContext::new(&db, &graph, &OptimizerConfig::default());
        let layout = RowLayout::new(vec![ColId(0)]);
        let aggs = vec![
            (ColId(1), AggCall::new(AggFunc::Count, Expr::int(1))),
            (ColId(2), AggCall::new(AggFunc::Sum, Expr::col(ColId(0)))),
        ];
        let int = DataType::Int;
        let feed = || Box::new(Feed(VecDeque::from([Batch::empty(&[int])]))) as Box<dyn Operator>;
        for gpos in [vec![], vec![0usize]] {
            let types = vec![int; gpos.len() + aggs.len()];
            let spec = Arc::new(AggSpec::new(&gpos, &aggs, layout.clone(), types));
            let ops: [Box<dyn Operator>; 2] = [
                Box::new(HashGroupByOp {
                    child: feed(),
                    spec: Arc::clone(&spec),
                    out: BatchQueue::default(),
                }),
                Box::new(StreamGroupByOp {
                    child: feed(),
                    agg: GroupAgg::new(Arc::clone(&spec)),
                    spec: Arc::clone(&spec),
                    open_key: Vec::new(),
                    scratch: GroupScratch::default(),
                    input_done: false,
                    out: BatchQueue::default(),
                }),
            ];
            for mut op in ops {
                let mut rec = ExecRecord::default();
                op.open(&cx, &mut rec).unwrap();
                let mut rows = Vec::new();
                while let Some(batch) = op.next_batch(&cx, &mut rec).unwrap() {
                    batch.append_rows_to(&mut rows);
                }
                op.close(&mut rec);
                if gpos.is_empty() {
                    assert_eq!(rows, vec![vec![Value::Int(0), Value::Null].into()]);
                } else {
                    assert!(rows.is_empty(), "{rows:?}");
                }
            }
        }
    }

    /// Rows as text with doubles by bit pattern: `Value`'s `Eq` follows
    /// `total_cmp` (−0.0 = 0.0, Int 5 = Double 5.0), too coarse for
    /// "bit-identical".
    fn exact(rows: &[Row]) -> Vec<String> {
        let show = |v: &Value| match v {
            Value::Double(d) => format!("D{:016x}", d.to_bits()),
            other => format!("{other:?}"),
        };
        rows.iter()
            .map(|r| r.iter().map(show).collect::<Vec<_>>().join("|"))
            .collect()
    }

    /// Opens, drains and closes `op`, checking its emission contract.
    fn drain(mut op: Box<dyn Operator>, cx: &ExecContext<'_>) -> Vec<Row> {
        let mut rec = ExecRecord::default();
        op.open(cx, &mut rec).unwrap();
        let mut rows = Vec::new();
        while let Some(batch) = op.next_batch(cx, &mut rec).unwrap() {
            assert!(!batch.is_empty() && batch.len() <= cx.batch_size);
            batch.append_rows_to(&mut rows);
        }
        op.close(&mut rec);
        rows
    }

    #[test]
    fn enforcer_matches_the_interpreter_sort_on_random_batches() {
        // The one property every enforcer configuration must satisfy:
        // (prefix k, limit, budget) all equal the interpreter's stable
        // `sort_rows` / `top_n` of the same rows, bit for bit.
        use crate::sortkernel::{sort_rows, top_n};
        let db = test_db(1);
        let graph = QueryGraph::new();
        let feed = |batches: &[Batch]| Box::new(Feed(batches.iter().cloned().collect()));
        for seed in 0..24u64 {
            let mut rng = fto_common::Rng::new(0x5eed ^ seed);
            let n = match seed % 8 {
                0 => 2600,
                1 => 700,
                _ => rng.range_usize(0, 300),
            };
            // Every fourth seed draws NULL-free fixed-width keys (ints and
            // dates only): the radix path, ties included.
            let fixed = seed % 4 == 1;
            // One type per column per case: `b` is ints or strings, `c`
            // ints or doubles (NaN and both zeros among them), `d` dates,
            // bools or doubles.
            let (wide_numeric, last_kind) = (!fixed && rng.bool(), rng.range_usize(0, 3));
            let last_kind = if fixed { 0 } else { last_kind };
            let types = [
                DataType::Int,
                if fixed { DataType::Int } else { DataType::Str },
                if wide_numeric {
                    DataType::Double
                } else {
                    DataType::Int
                },
                [DataType::Date, DataType::Bool, DataType::Double][last_kind],
                DataType::Int,
            ];
            let rows: Vec<Row> = (0..n)
                .map(|id| {
                    let null = |rng: &mut fto_common::Rng| !fixed && rng.chance(0.1);
                    let a = match null(&mut rng) {
                        true => Value::Null,
                        false => Value::Int(rng.range_i64(0, 6)),
                    };
                    let b = match (null(&mut rng), fixed) {
                        (true, _) => Value::Null,
                        (_, true) => Value::Int(rng.range_i64(0, 4)),
                        _ => Value::str(format!("s{}", rng.range_usize(0, 4))),
                    };
                    let kinds = match (fixed, wide_numeric) {
                        (true, _) => 1..2,
                        (_, true) => 0..8,
                        _ => 0..2,
                    };
                    let c = match (rng.range_usize(kinds.start, kinds.end), wide_numeric) {
                        (0, _) => Value::Null,
                        (_, false) => Value::Int(rng.range_i64(-3, 4)),
                        (1 | 2, _) => Value::Double(rng.range_i64(-3, 4) as f64),
                        (3, _) => Value::Double(f64::NAN),
                        (4, _) => Value::Double(-0.0),
                        (5, _) => Value::Double(0.0),
                        _ => Value::Double(rng.range_f64(-3.0, 3.0)),
                    };
                    let d = match (null(&mut rng), last_kind) {
                        (true, _) => Value::Null,
                        (_, 0) => Value::Date(rng.range_i32(0, 5)),
                        (_, 1) => Value::Bool(rng.bool()),
                        _ => Value::Double([f64::NAN, -0.0, 0.0, 1.5][rng.range_usize(0, 4)]),
                    };
                    [a, b, c, d, Value::Int(id as i64)].into_iter().collect()
                })
                .collect();
            let dir = |rng: &mut fto_common::Rng| match rng.bool() {
                true => Direction::Asc,
                false => Direction::Desc,
            };
            let keys: SortKeys = (0..4).map(|c| (c, dir(&mut rng))).collect();
            for k in 0..3usize {
                // The input satisfies the first k keys, and only those.
                let mut input = rows.clone();
                sort_rows(&mut input, &keys[..k].to_vec());
                let mut want = input.clone();
                sort_rows(&mut want, &keys);
                // Random cuts: single rows, small batches, and batches
                // that cross a 1 024-row chunk.
                let mut batches = Vec::new();
                let mut at = 0;
                while at < n {
                    let len = [1, 1, rng.range_usize(2, 40), 1024, 1500][rng.range_usize(0, 5)];
                    let end = (at + len).min(n);
                    batches.push(Batch::from_typed_rows(&types, &input[at..end]).unwrap());
                    at = end;
                }
                let tie = (1..n).find(|&i| {
                    keys.iter()
                        .all(|&(c, _)| want[i - 1][c].total_cmp(&want[i][c]).is_eq())
                });
                let limits = match k {
                    0 => vec![None, Some(0), Some(1), Some(tie.unwrap_or(n / 2))],
                    _ => vec![None],
                };
                for limit in limits {
                    let want = match limit {
                        Some(n) => exact(&top_n(input.clone(), &keys, n)),
                        None => exact(&want),
                    };
                    let case = format!("seed={seed} n={n} k={k} limit={limit:?} keys={keys:?}");
                    for memory_budget in [Some(1usize), Some(1 << 10), None] {
                        let opts = knobs([1, 7, 1024][rng.range_usize(0, 3)], 1, memory_budget);
                        let cx = ExecContext::new(&db, &graph, &opts);
                        let op = EnforceOp::new(feed(&batches), keys.clone(), k, limit);
                        let got = drain(Box::new(op), &cx);
                        assert_eq!(exact(&got), want, "{case} {opts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn truncated_group_spill_record_is_an_error() {
        let mut rec = Vec::new();
        rec.extend_from_slice(&2u32.to_le_bytes());
        rec.extend_from_slice(&7u64.to_le_bytes());
        rec.extend_from_slice(&9u64.to_le_bytes());
        rec.extend_from_slice(b"pages");
        let mut seqs = vec![1, 2, 3];
        assert_eq!(group_spill_header(&rec, &mut seqs).unwrap(), 20);
        assert_eq!(seqs, [7, 9]);
        // Cut inside the count, and inside the sequence numbers.
        for cut in [0usize, 3, 4, 19] {
            let err = group_spill_header(&rec[..cut], &mut seqs).unwrap_err();
            assert!(matches!(err, FtoError::Exec(_)), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn keyless_sort_and_top_n_return_input_order_at_every_budget() {
        // An ORDER BY reduced to nothing sorts by input position alone:
        // in memory, through the multi-pass external merge (1 KiB holds
        // 14 of these rows, so 500 rows form 36 runs: one level reduces
        // them to the fan-in of 8, the final merge is the second pass) —
        // at every degree, a budget runs serial — and above a gather.
        let db = test_db(500);
        let graph = QueryGraph::new();
        let scan = scan_plan();
        let unsorted = run(&db, &graph, &scan, &OptimizerConfig::default()).rows();
        let node = |node| Plan {
            node,
            layout: scan.layout.clone(),
            props: scan.props.clone(),
            cost: scan.cost,
        };
        let enforce = |limit| {
            node(PlanNode::Sort {
                input: scan.clone(),
                spec: fto_order::OrderSpec::empty(),
                prefix_len: 0,
                est_groups: 1,
                limit,
            })
        };
        let (sort, top) = (enforce(None), enforce(Some(7)));
        for memory_budget in [None, Some(1usize << 10)] {
            for threads in [1usize, 4] {
                let opts = knobs(64, threads, memory_budget);
                let sorted = run(&db, &graph, &sort, &opts);
                assert_eq!(
                    sorted.rows(),
                    unsorted,
                    "{memory_budget:?} threads={threads}"
                );
                if memory_budget.is_some() {
                    let spill = sorted.stats.spill;
                    assert_eq!((spill.runs_formed, spill.merge_passes), (36, 2));
                    assert!(sorted.stats.io.spill_pages_read > 0);
                }
                let first = run(&db, &graph, &top, &opts);
                assert_eq!(
                    first.rows(),
                    unsorted[..7],
                    "{memory_budget:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn a_spilled_build_is_decoded_once_per_chunk_however_the_matches_hop() {
        // 4 096 build rows, key = row % 256: a key's 16 matches sit 256
        // rows apart, so consecutive refs of a probe row never share a
        // spilled group, and 48 probe rows (a fifth of them matchless) hop
        // through every group. However a candidate chunk's refs hop, it
        // reads a group at most once — a decode per hop reads the file
        // ~50× over at batch 1024 — and `gather_group`'s debug assertion
        // holds the probe to one decoded group alive. Rows and emission
        // boundaries are the unbounded run's, rows the interpreter's.
        const BUILD_ROWS: usize = 4096;
        let mut cat = fto_catalog::Catalog::new();
        let int = |name| fto_catalog::ColumnDef::new(name, DataType::Int);
        let probe = cat
            .create_table("probe", vec![int("k"), int("j")], vec![])
            .unwrap();
        let build = cat
            .create_table("build", vec![int("j"), int("v")], vec![])
            .unwrap();
        let mut db = Database::new(cat);
        let table = |n: usize, row: fn(i64) -> [i64; 2]| {
            (0..n as i64)
                .map(|i| row(i).map(Value::Int).to_vec().into_boxed_slice())
                .collect()
        };
        db.load_table(probe, table(48, |k| [k, k * 37 % 320]))
            .unwrap();
        db.load_table(build, table(BUILD_ROWS, |i| [i % 256, i]))
            .unwrap();
        let mut graph = QueryGraph::new();
        for (q, t) in [(0u32, probe), (1, build)] {
            for ordinal in 0..2 {
                let origin = fto_qgm::graph::ColumnOrigin::Base(QuantifierId(q), t, ordinal);
                graph.registry.fresh("c", DataType::Int, origin);
            }
        }
        let node = |node, cols: &[u32]| {
            Arc::new(Plan {
                node,
                layout: RowLayout::new(cols.iter().map(|&c| ColId(c)).collect::<Vec<_>>()),
                props: scan_plan().props.clone(),
                cost: scan_plan().cost,
            })
        };
        let scan = |t: TableId, q: u32, cols: &[u32]| {
            let quantifier = QuantifierId(q);
            node(
                PlanNode::TableScan {
                    table: t,
                    quantifier,
                },
                cols,
            )
        };
        let few = PlanNode::Limit {
            input: scan(probe, 0, &[0, 1]),
            n: 6,
        };
        // (kind, outer, keyed, matches of a probe row that has any).
        let kinds = [
            (JoinKind::Inner, scan(probe, 0, &[0, 1]), true, 16),
            (JoinKind::Inner, node(few, &[0, 1]), false, BUILD_ROWS),
            (JoinKind::LeftOuter, scan(probe, 0, &[0, 1]), true, 16),
        ];
        for (kind, outer, keyed, matches) in kinds {
            let keys = |c: u32| if keyed { vec![ColId(c)] } else { vec![] };
            let join = node(
                PlanNode::Join {
                    kind,
                    outer: outer.clone(),
                    inner: scan(build, 1, &[2, 3]),
                    outer_keys: keys(1),
                    inner_keys: keys(2),
                    predicates: vec![],
                },
                &[0, 1, 2, 3],
            );
            let want = run_plan_materialized(&db, &graph, &join).unwrap().rows;
            let outer_rows = run_plan_materialized(&db, &graph, &outer).unwrap().rows;
            let mut record = vec![0u8; 4];
            let inner_rows = run(&db, &graph, &scan(build, 1, &[2, 3]), &knobs(1024, 1, None));
            spill::write_batch(
                &inner_rows.batches[0].slice(0, JOIN_SPILL_GROUP_ROWS),
                &mut record,
            );
            let page_max = (record.len() as u64 - 1).div_ceil(PAGE_SIZE as u64) + 1;
            let pairs = |r: &Row| match r[1] {
                Value::Int(j) if keyed && j >= 256 => 0,
                _ => matches,
            };
            for batch in [1usize, 7, 1024] {
                let free = run(&db, &graph, &join, &knobs(batch, 1, None));
                assert_eq!(exact(&free.rows()), exact(&want), "{kind:?} batch={batch}");
                assert_eq!(free.stats.io.spill_pages_read, 0);
                let cuts = |r: &Run| r.batches.iter().map(Batch::len).collect::<Vec<_>>();
                for budget in [1usize, 1 << 10, 64 << 10] {
                    let cell = format!("{kind:?} keyed={keyed} batch={batch} budget={budget}");
                    let got = run(&db, &graph, &join, &knobs(batch, 1, Some(budget)));
                    assert_eq!(exact(&got.rows()), exact(&want), "{cell}");
                    assert_eq!(cuts(&got), cuts(&free), "{cell}");
                    // What the build spilled: every row past the budget, in
                    // groups whose record overlaps at most `page_max` pages.
                    let resident = (budget / batch_row_bytes(&free.batches[0], 0)).max(1);
                    let groups = (BUILD_ROWS - resident).div_ceil(JOIN_SPILL_GROUP_ROWS);
                    assert!(groups >= 8, "{cell}: {groups} spilled groups");
                    let io = got.stats.io;
                    // A chunk of n pairs touches at most min(n, groups)
                    // groups; an outer batch's pairs cut into chunks of
                    // `batch` and a last, shorter one.
                    let touched: usize = outer_rows
                        .chunks(batch)
                        .map(|rows| rows.iter().map(pairs).sum::<usize>())
                        .map(|n| n / batch * batch.min(groups) + (n % batch).min(groups))
                        .sum();
                    assert!(
                        io.spill_pages_read <= touched as u64 * page_max,
                        "{cell}: read {} pages of {} written, {touched} group touches",
                        io.spill_pages_read,
                        io.spill_pages_written
                    );
                }
            }
        }
    }
}
