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
//! Hot operators run columnar: a filter refines a selection vector with
//! branch-free typed kernels and passes it up attached to its input's
//! columns, copying no row; a projection passes the selection through
//! (bare column references are `Arc` clones, arithmetic takes its NULLs
//! from the selected slots); the grouping encodes keys, assigns groups and folds
//! aggregates over the selected rows alone. Every other consumer reads
//! rows by position, so it densifies its input through [`dense`] — the
//! one place a selection is applied, once, where a dense batch is needed.
//! Hash group-by computes its keys by byte-encoding the grouping columns
//! column-at-a-time, and the order enforcer holds its input batches as
//! they arrived, sorts a permutation over their encoded keys and gathers
//! the payload once per output batch. The scans never build a batch: the
//! heap stores column chunks and hands them out whole, sliced or
//! gathered. The nested-loop, hash, merge and left-outer joins are one
//! build–probe operator: the build side keys a group table plus a CSR
//! match list, the probe assembles (outer, build) candidate pairs by
//! gather, at most a batch of them at a time. A merge join is that
//! operator over inputs ordered on every equated pair: it builds and
//! probes one matching pair of key groups at a time. No operator
//! materializes a row.
//!
//! Pipeline breakers: a [`PlanNode::Sort`] whose input satisfies no prefix
//! of its order (full sort, top-n) and a hash [`PlanNode::GroupBy`] —
//! DISTINCT included, it is the grouping with no aggregates — must consume
//! their whole input before producing anything and drain it at `open`. A
//! [`PlanNode::Join`] materializes only its *inner* (build) side — under
//! the memory budget, spilling what does not fit; the outer side streams.
//! With a satisfied prefix it holds one prefix group of the inner at a
//! time. Everything else — filter, project, segmented sort (batch by
//! batch: the groups an input batch closes leave together), order-based
//! group-by, limit, union — is fully streaming.
//!
//! The executor's answers are checked against the query-level oracle
//! behind `PreparedQuery::execute_materialized`, which evaluates the
//! bound query without a plan, and its emission order is a function of
//! the plan alone: every batch size, memory budget and thread count
//! returns the serial, unbudgeted run's rows bit for bit.

mod enforce;
mod group;
mod instrument;
mod join;
mod lower;
mod pipeline;
mod prefix;

pub(crate) use lower::lower_worker;

use crate::metrics::{ExecRecord, OpMetrics, PlanMetrics};
use fto_common::{ColId, FtoError, Result};
use fto_expr::{vector, PredId, RowLayout};
use fto_planner::{OptimizerConfig, Plan, PlanNode};
use fto_qgm::QueryGraph;
use fto_storage::Database;
use lower::{lower_impl, LowerCx};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The columnar batch flowing between operators. Operators never return
/// an empty batch: exhaustion is signalled by `None` from
/// [`Operator::next_batch`].
pub use fto_common::column::Batch;

/// Execution-wide knobs passed to every operator call: immutable plain
/// data, so exchange workers copy it (with `threads` pinned to 1).
/// Everything an execution *records* — counters,
/// per-node actuals, the timeline — lives in the [`ExecRecord`] threaded
/// beside it.
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
    /// past the budget — all bit-identical to unbounded execution. Pages
    /// are charged as in an unbounded run: a budget changes only the spill
    /// counters. A budgeted execution runs serially
    /// ([`ExecContext::new`]): those three breakers are all the code the
    /// budget has to reach.
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
    let lw = &mut LowerCx::new(cx, !rec.ops.is_empty());
    let (mut root, _) = lower_impl(plan, &plan.layout.col_set(), lw)?;
    root.open(cx, rec)?;
    let mut batches = Vec::new();
    while let Some(batch) = root.next_batch(cx, rec)? {
        batches.push(dense(batch));
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
    /// one: callers ask a non-empty queue — as one batch. An internal
    /// error if the queued batches hold fewer rows than the queue counts.
    pub(crate) fn take(&mut self, n: usize) -> Result<Batch> {
        let n = n.min(self.len);
        let mut picked: Vec<Batch> = Vec::new();
        let mut need = n;
        while need > 0 {
            let Some(part) = self.parts.pop_front() else {
                return Err(FtoError::internal("take past the batch queue's length"));
            };
            let avail = part.len() - self.front;
            if avail <= need {
                picked.push(if self.front == 0 {
                    part
                } else {
                    part.slice(self.front, avail)
                });
                self.front = 0;
                need -= avail;
            } else {
                picked.push(part.slice(self.front, need));
                self.parts.push_front(part);
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

/// The positions of `cols` in `layout`.
fn positions(layout: &RowLayout, cols: &[ColId]) -> Result<Vec<usize>> {
    cols.iter()
        .map(|&c| {
            layout
                .position(c)
                .ok_or_else(|| FtoError::internal(format!("column {c} missing from layout")))
        })
        .collect()
}

/// The columns an operator hands on, as positions in the row it works on:
/// every one, or only those its consumer reads. A column the operator
/// reads itself and its consumer does not — a sort key, a join key, a
/// residual predicate's column — leaves the row here, by `Arc` clone.
#[derive(Default)]
struct Trim(Option<Vec<usize>>);

impl Trim {
    /// The trim from rows laid out as `working` to rows laid out as `out`,
    /// whose columns `working` holds in the same order.
    fn new(working: &RowLayout, out: &RowLayout) -> Result<Trim> {
        if working.cols() == out.cols() {
            return Ok(Trim(None));
        }
        positions(working, out.cols()).map(|p| Trim(Some(p)))
    }

    fn apply(&self, batch: Batch) -> Batch {
        match &self.0 {
            None => batch,
            Some(keep) => batch.select(keep),
        }
    }
}

/// `batch` with its selected rows gathered into dense columns: the one
/// place a selection is applied. A filter hands its selection up instead
/// of copying the rows it keeps, and a projection and the grouping work
/// over it; every other consumer reads rows by position and densifies its
/// input here — the enforcer, both sides of the build–probe join, the
/// index nested-loop join's outer input, limit, union, the gather
/// exchange's workers and the root. A dense batch passes untouched.
pub(crate) fn dense(batch: Batch) -> Batch {
    match batch.selection() {
        None => batch,
        Some(sel) => batch.gather(sel),
    }
}

/// The slots of `batch` that hold a row passing every predicate,
/// ascending: its selection (every slot, when dense) refined predicate by
/// predicate, each by a typed column kernel (every predicate the binder
/// admits has one). Refinement stops once no row is left, as an AND does.
fn passing(
    cx: &ExecContext<'_>,
    predicates: &[PredId],
    batch: &Batch,
    layout: &RowLayout,
) -> Result<Vec<u32>> {
    let mut sel: Vec<u32> = match batch.selection() {
        Some(sel) => sel.to_vec(),
        None => (0..batch.slots() as u32).collect(),
    };
    for pid in predicates {
        if sel.is_empty() {
            break;
        }
        vector::filter_selection(cx.graph.predicate(*pid), batch, layout, &mut sel)?;
    }
    Ok(sel)
}

#[cfg(test)]
mod tests {
    use super::enforce::EnforceOp;
    use super::group::GroupByOp;
    use super::join::{JoinOp, JOIN_SPILL_GROUP_ROWS};
    use super::*;
    use crate::aggkernel::AggSpec;
    use crate::extsort::seq_header;
    use crate::metrics::ExecStats;
    use crate::oracle::{group_by, sort_rows};
    use crate::sortkernel::SortKeys;
    use fto_common::column::batch_row_bytes;
    use fto_common::{ColId, ColSet, DataType, Direction, FtoError, QuantifierId, Row};
    use fto_common::{TableId, Value};
    use fto_expr::Expr;
    use fto_order::StreamProps;
    use fto_planner::cost::Cost;
    use fto_planner::JoinKind;
    use fto_storage::{spill, Database, PAGE_SIZE};
    use std::sync::Arc;

    /// The rows of [`test_db`]'s table `t`: `(k, v) = (i, i % 5)`.
    fn test_rows(rows: i64) -> Vec<Row> {
        (0..rows)
            .map(|i| vec![Value::Int(i), Value::Int(i % 5)].into_boxed_slice())
            .collect()
    }

    /// `rows` stably sorted by `keys` with the oracle's comparator.
    fn sorted(rows: &[Row], keys: &[(usize, Direction)]) -> Vec<Row> {
        let mut rows = rows.to_vec();
        sort_rows(&mut rows, keys);
        rows
    }

    /// The join by definition, outer row after outer row, each one's
    /// matches in inner order: every pair whose `keys` (outer position,
    /// inner position) are equal and not NULL and that `keep` passes — and
    /// with `pad` (a LEFT JOIN's inner width), an outer row no pair is
    /// kept for, padded with NULLs.
    fn joined(
        outer: &[Row],
        inner: &[Row],
        keys: &[(usize, usize)],
        pad: Option<usize>,
        keep: impl Fn(&Row) -> bool,
    ) -> Vec<Row> {
        let mut out = Vec::new();
        for o in outer {
            let before = out.len();
            for i in inner {
                if keys.iter().all(|&(a, b)| !o[a].is_null() && o[a] == i[b]) {
                    let row: Row = o.iter().chain(i.iter()).cloned().collect();
                    if keep(&row) {
                        out.push(row);
                    }
                }
            }
            if let Some(width) = pad.filter(|_| out.len() == before) {
                let nulls = std::iter::repeat_n(Value::Null, width);
                out.push(o.iter().cloned().chain(nulls).collect());
            }
        }
        out
    }

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
        db.load_table(t, test_rows(rows)).unwrap();
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
        let mut rec = ExecRecord::new(0, None);
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
        let new = run(&db, &graph, &plan, &knobs(64, 1, None));
        assert_eq!(new.rows(), test_rows(500));
        let heap = db.heap(TableId(0)).unwrap();
        assert_eq!(new.stats.io.sequential_pages, heap.page_count());
        assert_eq!(new.stats.io.rows_read, heap.row_count());
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
        let new = run(&db, &graph, &limit, &OptimizerConfig::default());
        assert_eq!(new.rows(), test_rows(5000)[..10]);
        assert_eq!(new.num_rows(), 10);
        // Streaming output arrives as non-empty batches that sum to the
        // row count — operators never emit empties.
        assert!(new.batches.iter().all(|b| !b.is_empty()));
        assert_eq!(new.batches.iter().map(Batch::len).sum::<usize>(), 10);
        let full_pages = db.heap(TableId(0)).unwrap().page_count();
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
        let new = run(&db, &graph, &sort, &knobs(1, 1, None));
        assert_eq!(new.rows(), sorted(&test_rows(97), &[(1, Direction::Desc)]));
        assert_eq!(new.stats.io.sort_rows, 97);
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
            let mut rec = ExecRecord::new(sort.count_ops(&|_| true), None);
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
        // zero-row batch: one output row (0, NULL) at every satisfied
        // prefix, as SQL has it; with a grouping column, none.
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
            for k in 0..=gpos.len() {
                let mut op = GroupByOp::new(feed(), Arc::clone(&spec), k, Trim::default());
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
    fn drain(op: Box<dyn Operator>, cx: &ExecContext<'_>) -> Vec<Row> {
        drain_into(op, cx, &mut ExecRecord::default())
    }

    /// [`drain`], charging what `op` does to `rec`.
    fn drain_into(
        mut op: Box<dyn Operator>,
        cx: &ExecContext<'_>,
        rec: &mut ExecRecord,
    ) -> Vec<Row> {
        op.open(cx, rec).unwrap();
        let mut rows = Vec::new();
        while let Some(batch) = op.next_batch(cx, rec).unwrap() {
            assert!(!batch.is_empty() && batch.len() <= cx.batch_size);
            batch.append_rows_to(&mut rows);
        }
        op.close(rec);
        rows
    }

    #[test]
    fn enforcer_matches_the_interpreter_sort_on_random_batches() {
        // The one property every enforcer configuration must satisfy:
        // (prefix k, limit, budget) all equal the oracle's stable sort of
        // the same rows (its first `limit` for a top-n), bit for bit.
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
                let input = sorted(&rows, &keys[..k]);
                let want = sorted(&input, &keys);
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
                    let want = exact(&want[..limit.unwrap_or(n).min(n)]);
                    let case = format!("seed={seed} n={n} k={k} limit={limit:?} keys={keys:?}");
                    for memory_budget in [Some(1usize), Some(1 << 10), None] {
                        let opts = knobs([1, 7, 1024][rng.range_usize(0, 3)], 1, memory_budget);
                        let cx = ExecContext::new(&db, &graph, &opts);
                        let op =
                            EnforceOp::new(feed(&batches), keys.clone(), k, limit, Trim::default());
                        let got = drain(Box::new(op), &cx);
                        assert_eq!(exact(&got), want, "{case} {opts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn segmented_sort_matches_the_interpreter_on_random_batch_cuts() {
        // The enforcer over a satisfied prefix of k ∈ {1, 2} of its three
        // keys, against the oracle's stable sort bit for bit. Groups
        // of `a` hold 1 row, 2–5 rows, 6–20 rows (spanning two or three
        // batches at the small cuts) and 40 rows (a charge past 1 KiB);
        // `b` holds NULL, NaN of either sign, −0.0 beside 0.0 and ties
        // (a prefix at k = 2, so equal keys of different bits share a
        // group), and `c` is an Int column in half the seeds and a Double
        // one over the same numbers in the rest (2 and 2.0 encode alike).
        // At batch 1, 7 and 1024 under a budget of 1 B (every group of two
        // rows or more spills), 1 KiB and none, the sort, spill and
        // segment counters must equal a per-group reference: each group
        // fed whole to its own run former, as one `SortBuf::ordered` when
        // nothing spills — whichever groups were ordered in place.
        use crate::extsort::{RunFormer, SortedOut};
        use crate::sortkernel::KeyArena;
        let db = test_db(1);
        let graph = QueryGraph::new();
        let (int, dbl) = (DataType::Int, DataType::Double);
        let doubles = [f64::NAN, -f64::NAN, -0.0, 0.0, 2.0, 1.5];
        // Groups of `a` seen spanning exactly two and three input batches.
        let mut spans = [0usize; 2];
        for seed in 0..8u64 {
            let mut rng = fto_common::Rng::new(0x5e65 ^ seed);
            let types = [int, dbl, [int, dbl][seed as usize % 2], int];
            let mut rows: Vec<Row> = Vec::new();
            for g in 0..rng.range_usize(8, 40) {
                let size = match rng.range_usize(0, 4) {
                    0 => 1,
                    1 => rng.range_usize(2, 6),
                    2 => rng.range_usize(6, 21),
                    _ => 40,
                };
                let a = match g {
                    0 => Value::Null,
                    _ => Value::Int(g as i64),
                };
                for _ in 0..size {
                    let b = match rng.chance(0.15) {
                        true => Value::Null,
                        false => Value::Double(doubles[rng.range_usize(0, doubles.len())]),
                    };
                    let c = match (rng.range_usize(0, 8), types[2]) {
                        (0, _) => Value::Null,
                        (_, DataType::Int) => Value::Int(rng.range_i64(0, 4)),
                        (1, _) => Value::Double(f64::NAN),
                        (2, _) => Value::Double(-0.0),
                        _ => Value::Double(rng.range_i64(0, 4) as f64),
                    };
                    let id = Value::Int(rows.len() as i64);
                    rows.push([a.clone(), b, c, id].into_iter().collect());
                }
            }
            let n = rows.len();
            let dir = |rng: &mut fto_common::Rng| match rng.bool() {
                true => Direction::Asc,
                false => Direction::Desc,
            };
            let keys: SortKeys = (0..3).map(|c| (c, dir(&mut rng))).collect();
            for k in 1..=2usize {
                // The input satisfies the first k keys, and only those.
                let input = sorted(&rows, &keys[..k]);
                let want = sorted(&input, &keys);
                let same_prefix = |x: &Row, y: &Row| {
                    keys[..k]
                        .iter()
                        .all(|&(c, _)| x[c].total_cmp(&y[c]).is_eq())
                };
                let groups: Vec<&[Row]> = input.chunk_by(|x, y| same_prefix(x, y)).collect();
                let mut cuts = vec![0];
                while cuts[cuts.len() - 1] < n {
                    let len = [1, rng.range_usize(2, 8), rng.range_usize(8, 30), 1024];
                    cuts.push((cuts[cuts.len() - 1] + len[rng.range_usize(0, 4)]).min(n));
                }
                if k == 1 {
                    let mut lo = 0;
                    for g in &groups {
                        let (first, last) = (lo, lo + g.len() - 1);
                        let batch_of = |i| cuts.partition_point(|&c| c <= i);
                        match batch_of(last) - batch_of(first) {
                            1 => spans[0] += 1,
                            2 => spans[1] += 1,
                            _ => {}
                        }
                        lo += g.len();
                    }
                }
                let batches: Vec<Batch> = cuts
                    .windows(2)
                    .map(|w| Batch::from_typed_rows(&types, &input[w[0]..w[1]]).unwrap())
                    .collect();
                let skeys = keys[k..].to_vec();
                for batch_size in [1usize, 7, 1024] {
                    for memory_budget in [Some(1usize), Some(1 << 10), None] {
                        let case = format!(
                            "seed={seed} n={n} k={k} batch={batch_size} budget={memory_budget:?}"
                        );
                        let opts = knobs(batch_size, 1, memory_budget);
                        let cx = ExecContext::new(&db, &graph, &opts);
                        let feed = Box::new(Feed(batches.iter().cloned().collect()));
                        let op = EnforceOp::new(feed, keys.clone(), k, None, Trim::default());
                        let mut rec = ExecRecord::default();
                        let got = drain_into(Box::new(op), &cx, &mut rec);
                        assert_eq!(exact(&got), exact(&want), "{case}");
                        // The reference: one former per group, fed it whole.
                        let mut refs = ExecRecord::default();
                        let mut arena = KeyArena::default();
                        for g in &groups {
                            let batch = Batch::from_typed_rows(&types, g).unwrap();
                            arena.encode(&batch, &skeys);
                            let mut former =
                                RunFormer::new(memory_budget.unwrap_or(usize::MAX), None);
                            former
                                .push_rows(&batch, 0..g.len(), &arena, &mut refs)
                                .unwrap();
                            refs.stats.segment.groups_formed += 1;
                            let mut out = SortedOut::default();
                            former.finish(batch_size, &mut out, &mut refs).unwrap();
                            out.flush(batch_size).unwrap();
                            while out
                                .next_batch(batch_size, &mut refs.stats)
                                .unwrap()
                                .is_some()
                            {}
                        }
                        let counts = |s: &ExecStats| (s.sort, s.io.sort_rows, s.segment, s.spill);
                        assert_eq!(counts(&rec.stats), counts(&refs.stats), "{case}");
                    }
                }
            }
        }
        assert!(
            spans.iter().all(|&s| s > 0),
            "groups spanning 2 and 3 batches: {spans:?}"
        );
    }

    #[test]
    fn prefix_reader_matches_a_row_at_a_time_reference_on_random_batch_cuts() {
        // The one reader the enforcer, the grouping and the merge join cut
        // runs with, against the definition row by row: a row starts a run
        // when it is the input's first or its prefix differs, by
        // `total_cmp`, from the row before it — across batch boundaries
        // and empty batches — and `key(i)` is the row's `encode_key`.
        // Prefixes of k ∈ {0, 1, 2} columns, ASC or DESC, hold NULL, NaN
        // of either sign and −0.0 beside 0.0 (each pair one run). A second
        // pass after clearing `open` reads the input afresh.
        use super::prefix::PrefixReader;
        use fto_common::sortkey::encode_key;
        let types = [DataType::Int, DataType::Double, DataType::Int];
        let doubles = [f64::NAN, -f64::NAN, -0.0, 0.0, 1.5];
        // Runs spanning 3+ batches, batches that are one whole run, and
        // empty batches a run continues across.
        let mut seen = [0usize; 3];
        for seed in 0..16u64 {
            let mut rng = fto_common::Rng::new(0x9ef1 ^ seed);
            let mut rows: Vec<Row> = Vec::new();
            for _ in 0..rng.range_usize(4, 24) {
                let size =
                    [1, rng.range_usize(2, 6), rng.range_usize(6, 40)][rng.range_usize(0, 3)];
                let a = match rng.chance(0.2) {
                    true => Value::Null,
                    false => Value::Int(rng.range_i64(0, 3)),
                };
                for _ in 0..size {
                    let b = match rng.chance(0.2) {
                        true => Value::Null,
                        false => Value::Double(doubles[rng.range_usize(0, doubles.len())]),
                    };
                    let id = Value::Int(rows.len() as i64);
                    rows.push([a.clone(), b, id].into_iter().collect());
                }
            }
            let n = rows.len();
            let mut cuts = vec![0];
            while cuts[cuts.len() - 1] < n {
                let len = [0, 1, rng.range_usize(2, 8), rng.range_usize(8, 30), n];
                cuts.push((cuts[cuts.len() - 1] + len[rng.range_usize(0, 5)]).min(n));
            }
            for k in 0..=2usize {
                let keys: SortKeys = (0..k)
                    .map(|c| (c, [Direction::Asc, Direction::Desc][rng.range_usize(0, 2)]))
                    .collect();
                let same =
                    |x: &Row, y: &Row| keys.iter().all(|&(c, _)| x[c].total_cmp(&y[c]).is_eq());
                let starts: Vec<bool> = (0..n)
                    .map(|i| i == 0 || !same(&rows[i - 1], &rows[i]))
                    .collect();
                let mut reader = PrefixReader::new(keys.clone());
                for pass in 0..2 {
                    reader.open = false;
                    for w in cuts.windows(2) {
                        let (lo, hi) = (w[0], w[1]);
                        let case = format!("seed={seed} k={k} pass={pass} rows {lo}..{hi}");
                        let batch = Batch::from_typed_rows(&types, &rows[lo..hi]).unwrap();
                        assert_eq!(reader.cut(&batch), lo > 0, "{case}");
                        assert_eq!(reader.open, hi > 0, "{case}");
                        let got: Vec<usize> =
                            reader.starts.iter().map(|&s| lo + s as usize).collect();
                        let want: Vec<usize> = (lo..hi).filter(|&i| starts[i]).collect();
                        assert_eq!(got, want, "{case}");
                        for i in (lo..hi).filter(|_| k > 0) {
                            assert_eq!(reader.key(i - lo), encode_key(&rows[i], &keys), "{case}");
                        }
                        if k > 0 && pass == 0 {
                            let run_ends_at = |i: usize| i == n || starts[i];
                            seen[1] += usize::from(
                                hi > lo && starts[lo] && want.len() == 1 && run_ends_at(hi),
                            );
                            seen[2] += usize::from(lo == hi && 0 < lo && lo < n && !starts[lo]);
                        }
                    }
                }
                if k > 0 {
                    // Each run's span: how many non-empty batches it touches.
                    let run_starts: Vec<usize> = (0..n).filter(|&i| starts[i]).chain([n]).collect();
                    for r in run_starts.windows(2) {
                        let touched = cuts
                            .windows(2)
                            .filter(|w| w[0] < w[1] && w[0] < r[1] && r[0] < w[1]);
                        seen[0] += usize::from(touched.count() >= 3);
                    }
                }
            }
        }
        assert!(
            seen.iter().all(|&s| s > 0),
            "long runs, whole-run batches, empty batches inside a run: {seen:?}"
        );
    }

    #[test]
    fn a_segmented_sort_with_a_fused_limit_is_refused_at_lowering() {
        // The planner puts a `Limit` above a segmented sort and fuses a
        // limit into the full sort alone (top-n), so the enforcer never
        // has to honour a limit within prefix groups: lowering refuses the
        // unplanned shape with a typed error.
        let db = test_db(10);
        let graph = QueryGraph::new();
        let cx = ExecContext::new(&db, &graph, &OptimizerConfig::default());
        let spec: fto_order::OrderSpec = [ColId(0), ColId(1)]
            .map(|col| fto_order::SortKey {
                col,
                dir: Direction::Asc,
            })
            .into_iter()
            .collect();
        for (prefix_len, limit) in [(0, None), (0, Some(3)), (1, None), (1, Some(3))] {
            let sort = PlanNode::Sort {
                input: scan_plan(),
                spec: spec.clone(),
                prefix_len,
                est_groups: 1,
                limit,
            };
            let plan = plan_node(sort, &[0, 1]);
            let mut rec = ExecRecord::default();
            match (
                drive(&cx, &plan, &mut rec),
                prefix_len > 0 && limit.is_some(),
            ) {
                (Ok((batches, _)), false) => {
                    let rows: usize = batches.iter().map(Batch::len).sum();
                    assert_eq!(rows, limit.unwrap_or(10) as usize);
                }
                (Err(FtoError::Internal(_)), true) => {}
                (got, _) => panic!("prefix_len={prefix_len} limit={limit:?}: {:?}", got.err()),
            }
        }
    }

    /// A plan node producing the layout `cols`; neither engine reads its
    /// properties or cost.
    fn plan_node(node: PlanNode, cols: &[u32]) -> Arc<Plan> {
        Arc::new(Plan {
            node,
            layout: RowLayout::new(cols.iter().map(|&c| ColId(c)).collect::<Vec<_>>()),
            props: scan_plan().props.clone(),
            cost: scan_plan().cost,
        })
    }

    /// A query graph whose registry declares, per `(table, types)` in
    /// order, one quantifier's base columns: quantifier q's columns follow
    /// those of quantifier q - 1.
    fn base_graph(tables: &[(TableId, &[DataType])]) -> QueryGraph {
        let mut graph = QueryGraph::new();
        for (q, &(table, types)) in tables.iter().enumerate() {
            for (ordinal, &ty) in types.iter().enumerate() {
                let quantifier = QuantifierId(q as u32);
                let origin = fto_qgm::graph::ColumnOrigin::Base(quantifier, table, ordinal);
                graph.registry.fresh("c", ty, origin);
            }
        }
        graph
    }

    fn scan_node(table: TableId, q: u32, cols: &[u32]) -> Arc<Plan> {
        let quantifier = QuantifierId(q);
        plan_node(PlanNode::TableScan { table, quantifier }, cols)
    }

    #[test]
    fn prefix_join_matches_the_interpreter_on_random_batch_cuts() {
        // The join over a satisfied prefix of k of its equated pairs, at
        // k = 0 (hash join) and k = all (merge join), against the join by
        // definition: duplicate-heavy keys whose ties
        // span batch boundaries, NULL keys on both sides, Int keys meeting
        // Double keys (`2` joins `2.0`, `0` joins `-0.0`), one- and
        // two-column keys, with and without a residual `x < y`. Lowered
        // and driven at batch 1, 3 and 1024, and over random cuts of the
        // same inputs.
        use fto_expr::{CompareOp, Predicate};
        let (int, dbl, str) = (DataType::Int, DataType::Double, DataType::Str);
        let types: [&[DataType]; 2] = [&[int, str, int], &[dbl, str, int]];
        for seed in 0..12u64 {
            let mut rng = fto_common::Rng::new(0x701d ^ seed);
            let mut cat = fto_catalog::Catalog::new();
            let mut tables = Vec::new();
            for (name, types) in [("o", types[0]), ("i", types[1])] {
                let cols = ["a", "b", "x"].iter().zip(types);
                let cols = cols
                    .map(|(c, &ty)| fto_catalog::ColumnDef::new(*c, ty))
                    .collect();
                tables.push(cat.create_table(name, cols, vec![]).unwrap());
            }
            let mut db = Database::new(cat);
            // Every fourth seed the outer crosses a 1 024-row heap chunk.
            let sizes = match seed % 4 {
                0 => [1100, 40],
                _ => [rng.range_usize(0, 120), rng.range_usize(0, 120)],
            };
            let mut sides: Vec<Vec<Row>> = Vec::new();
            for (side, &n) in sizes.iter().enumerate() {
                let mut rows: Vec<Row> = (0..n)
                    .map(|_| {
                        let a = match (rng.chance(0.1), side) {
                            (true, _) => Value::Null,
                            (_, 0) => Value::Int(rng.range_i64(0, 5)),
                            _ => Value::Double([-0.0, 1.0, 2.0, 2.5, 3.0][rng.range_usize(0, 5)]),
                        };
                        let b = match rng.chance(0.1) {
                            true => Value::Null,
                            false => Value::str(["", "a", "ab"][rng.range_usize(0, 3)]),
                        };
                        [a, b, Value::Int(rng.range_i64(0, 4))]
                            .into_iter()
                            .collect()
                    })
                    .collect();
                sort_rows(&mut rows, &[(0, Direction::Asc), (1, Direction::Asc)]);
                db.load_table(tables[side], rows.clone()).unwrap();
                sides.push(rows);
            }
            let mut graph = base_graph(&[(tables[0], types[0]), (tables[1], types[1])]);
            let x_lt_y = Predicate::new(CompareOp::Lt, Expr::col(ColId(2)), Expr::col(ColId(5)));
            let x_lt_y = graph.add_predicate(x_lt_y);
            for pairs in [1usize, 2] {
                for predicates in [vec![], vec![x_lt_y]] {
                    for k in [0, pairs] {
                        let join = PlanNode::Join {
                            kind: JoinKind::Inner,
                            outer: scan_node(tables[0], 0, &[0, 1, 2]),
                            inner: scan_node(tables[1], 1, &[3, 4, 5]),
                            outer_keys: (0..pairs as u32).map(ColId).collect(),
                            inner_keys: (3..3 + pairs as u32).map(ColId).collect(),
                            predicates: predicates.clone(),
                            prefix_len: k as u32,
                        };
                        let join = plan_node(join, &[0, 1, 2, 3, 4, 5]);
                        let keys: Vec<(usize, usize)> = (0..pairs).map(|p| (p, p)).collect();
                        let x_lt_y = |r: &Row| predicates.is_empty() || r[2] < r[5];
                        let want = exact(&joined(&sides[0], &sides[1], &keys, None, x_lt_y));
                        let case = format!("seed={seed} pairs={pairs} k={k} preds={predicates:?}");
                        for batch in [1usize, 3, 1024] {
                            let got = run(&db, &graph, &join, &knobs(batch, 1, None));
                            assert_eq!(exact(&got.rows()), want, "{case} batch={batch}");
                        }
                        let mut feed = |side: usize| {
                            let rows = &sides[side];
                            let mut batches = VecDeque::new();
                            let mut at = 0;
                            while at < rows.len() {
                                let len =
                                    [1, 1, rng.range_usize(2, 40), 1024][rng.range_usize(0, 4)];
                                let end = (at + len).min(rows.len());
                                let batch = Batch::from_typed_rows(types[side], &rows[at..end]);
                                batches.push_back(batch.unwrap());
                                at = end;
                            }
                            let keys: SortKeys = (0..pairs).map(|p| (p, Direction::Asc)).collect();
                            let feed = Box::new(Feed(batches)) as Box<dyn Operator>;
                            (feed, keys, Trim::default())
                        };
                        let (outer, inner) = (feed(0), feed(1));
                        let layout = join.layout.clone();
                        let inner_types = types[1].to_vec();
                        let op = JoinOp::new(
                            JoinKind::Inner,
                            outer,
                            inner,
                            k,
                            predicates.clone(),
                            (Trim::default(), layout),
                            inner_types,
                        );
                        let opts = knobs([1, 7, 1024][rng.range_usize(0, 3)], 1, None);
                        let cx = ExecContext::new(&db, &graph, &opts);
                        assert_eq!(exact(&drain(Box::new(op), &cx)), want, "{case} {opts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_group_by_matches_the_interpreter_on_random_batch_cuts() {
        // The grouping over a satisfied prefix of k of its two columns, at
        // k = 0 (hash), 1 and 2 (stream), against the oracle's
        // first-seen grouping by definition, bit for bit — float sums
        // included. (k = 1 is not planned yet; it runs the same code.) Keys
        // hold NULLs, NaN of either sign and −0.0 beside 0.0, and `a` is
        // an Int column in half the seeds and a Double one over the same
        // numbers in the rest (2 and 2.0 encode alike); ties span random
        // batch cuts. With and without aggregates (the latter a DISTINCT),
        // at batch 1, 7 and 1024 under a budget of 1 B (every segment
        // spills all its keys but the first), 1 KiB and none. The empty
        // grouping — a global aggregate — runs over empty and non-empty
        // input.
        use fto_expr::{AggCall, AggFunc};
        let db = test_db(1);
        let graph = QueryGraph::new();
        let layout = RowLayout::new(vec![ColId(0), ColId(1), ColId(2)]);
        let x = || Expr::col(ColId(2));
        let aggs = vec![
            (ColId(3), AggCall::new(AggFunc::Count, Expr::int(1))),
            (ColId(4), AggCall::new(AggFunc::Sum, x())),
            (ColId(5), AggCall::new(AggFunc::Max, x())),
            (ColId(6), AggCall::new(AggFunc::Count, x()).distinct()),
        ];
        let (int, dbl) = (DataType::Int, DataType::Double);
        let agg_types = [int, dbl, dbl, int];
        let doubles = [f64::NAN, -f64::NAN, -0.0, 0.0, 2.0, 1.5];
        for seed in 0..12u64 {
            let mut rng = fto_common::Rng::new(0x6b0f ^ seed);
            let n = match seed % 4 {
                0 => 1100,
                1 => 0,
                _ => rng.range_usize(1, 300),
            };
            let types = [[int, dbl][seed as usize % 2], dbl, dbl];
            let rows: Vec<Row> = (0..n)
                .map(|_| {
                    let a = match (rng.chance(0.1), types[0]) {
                        (true, _) => Value::Null,
                        (_, DataType::Int) => Value::Int(rng.range_i64(0, 4)),
                        _ => Value::Double(rng.range_i64(0, 4) as f64),
                    };
                    let b = match rng.chance(0.1) {
                        true => Value::Null,
                        false => Value::Double(doubles[rng.range_usize(0, doubles.len())]),
                    };
                    let x = match rng.chance(0.1) {
                        true => Value::Null,
                        false => Value::Double(rng.range_f64(-3.0, 3.0)),
                    };
                    [a, b, x].into_iter().collect()
                })
                .collect();
            let keys: SortKeys = vec![(0, Direction::Asc), (1, Direction::Asc)];
            // (grouping positions, aggregates, satisfied prefix).
            let mut cases = vec![(vec![], aggs.clone(), 0)];
            for aggs in [aggs.clone(), vec![]] {
                for k in 0..=2 {
                    cases.push((vec![0usize, 1], aggs.clone(), k));
                }
            }
            for (gpos, aggs, k) in cases {
                // The input satisfies the first k grouping columns.
                let input = sorted(&rows, &keys[..k]);
                let grouping: Vec<ColId> = gpos.iter().map(|&p| ColId(p as u32)).collect();
                let want = exact(&group_by(&input, &layout, &grouping, &aggs).unwrap());
                let out_types: Vec<DataType> = gpos.iter().map(|&p| types[p]).collect();
                let out_types = [out_types, agg_types[..aggs.len()].to_vec()].concat();
                let spec = Arc::new(AggSpec::new(&gpos, &aggs, layout.clone(), out_types));
                let case = format!(
                    "seed={seed} n={n} grouping={gpos:?} aggs={} k={k}",
                    aggs.len()
                );
                for batch_size in [1usize, 7, 1024] {
                    for memory_budget in [Some(1usize), Some(1 << 10), None] {
                        let mut batches = VecDeque::new();
                        let mut at = 0;
                        while at < n {
                            let len = [1, 1, rng.range_usize(2, 40), 1024][rng.range_usize(0, 4)];
                            let end = (at + len).min(n);
                            batches.push_back(
                                Batch::from_typed_rows(&types, &input[at..end]).unwrap(),
                            );
                            at = end;
                        }
                        let opts = knobs(batch_size, 1, memory_budget);
                        let cx = ExecContext::new(&db, &graph, &opts);
                        let op = GroupByOp::new(
                            Box::new(Feed(batches)),
                            Arc::clone(&spec),
                            k,
                            Trim::default(),
                        );
                        assert_eq!(exact(&drain(Box::new(op), &cx)), want, "{case} {opts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn limit_over_a_merge_join_stops_both_inputs_early() {
        // A merge join returns as soon as a prefix group has queued
        // output, so a LIMIT above it stops both inputs early. Over
        // `d = row / 7` (ties cross batch boundaries at batch 16) the join
        // emits 49 rows a group: a LIMIT of 100 takes two groups and part
        // of a third that crosses into each scan's second batch, and the
        // rows the scans read and every operator's rows and batches are
        // the pinned ones.
        let mut cat = fto_catalog::Catalog::new();
        let int = |name| fto_catalog::ColumnDef::new(name, DataType::Int);
        let u = cat
            .create_table("u", vec![int("d"), int("w")], vec![])
            .unwrap();
        let mut db = Database::new(cat);
        let rows: Vec<Row> = (0..2000i64)
            .map(|i| vec![Value::Int(i / 7), Value::Int(i)].into_boxed_slice())
            .collect();
        db.load_table(u, rows.clone()).unwrap();
        let ints: &[DataType] = &[DataType::Int, DataType::Int];
        let graph = base_graph(&[(u, ints), (u, ints)]);
        let join = PlanNode::Join {
            kind: JoinKind::Inner,
            outer: scan_node(u, 0, &[0, 1]),
            inner: scan_node(u, 1, &[2, 3]),
            outer_keys: vec![ColId(0)],
            inner_keys: vec![ColId(2)],
            predicates: vec![],
            prefix_len: 1,
        };
        let input = plan_node(join, &[0, 1, 2, 3]);
        let limit = plan_node(PlanNode::Limit { input, n: 100 }, &[0, 1, 2, 3]);
        // Each outer row matches 7: the first 15 make the first 100 rows.
        let want = joined(&rows[..15], &rows, &[(0, 0)], None, |_| true)[..100].to_vec();
        let cx = ExecContext::new(&db, &graph, &knobs(16, 1, None));
        let mut rec = ExecRecord::new(limit.count_ops(&|_| true), None);
        let (batches, _) = drive(&cx, &limit, &mut rec).unwrap();
        let mut got = Vec::new();
        batches.iter().for_each(|b| b.append_rows_to(&mut got));
        assert_eq!(got, want);
        let rows_read = rec.stats.io.rows_read;
        let metrics = plan_metrics(&limit, rec.ops);
        let ops: Vec<(&str, u64, u64)> = metrics
            .ops
            .iter()
            .map(|m| (m.name.as_str(), m.rows, m.batches))
            .collect();
        assert_eq!(rows_read, 64);
        let scan = ("table-scan", 32, 2);
        assert_eq!(ops, [("limit", 100, 9), ("merge-join", 114, 9), scan, scan]);
    }

    #[test]
    fn limit_over_a_stream_group_by_stops_its_input_early() {
        // A grouping whose input satisfies every grouping column streams:
        // the groups an input batch closes leave with it, and the input
        // is never gathered, so a LIMIT above stops the scan early at
        // every degree. Over `d = row / 7` (groups cross batch boundaries
        // at batch 16) each scan batch closes two groups: a LIMIT of 5
        // takes the first three batches, and the rows the scan read and
        // every operator's rows and batches are the pinned ones.
        use fto_expr::{AggCall, AggFunc};
        let mut cat = fto_catalog::Catalog::new();
        let int = |name| fto_catalog::ColumnDef::new(name, DataType::Int);
        let u = cat
            .create_table("u", vec![int("d"), int("w")], vec![])
            .unwrap();
        let mut db = Database::new(cat);
        let rows: Vec<Row> = (0..2000i64)
            .map(|i| vec![Value::Int(i / 7), Value::Int(i)].into_boxed_slice())
            .collect();
        db.load_table(u, rows.clone()).unwrap();
        // The second quantifier only declares `c2`, the sum's column.
        let ints: &[DataType] = &[DataType::Int, DataType::Int];
        let graph = base_graph(&[(u, ints), (u, ints)]);
        let aggs = vec![(ColId(2), AggCall::new(AggFunc::Sum, Expr::col(ColId(1))))];
        let group = PlanNode::GroupBy {
            input: scan_node(u, 0, &[0, 1]),
            grouping: vec![ColId(0)],
            aggs: aggs.clone(),
            prefix_len: 1,
        };
        let input = plan_node(group, &[0, 2]);
        let limit = plan_node(PlanNode::Limit { input, n: 5 }, &[0, 2]);
        let layout = RowLayout::new(vec![ColId(0), ColId(1)]);
        let want = group_by(&rows, &layout, &[ColId(0)], &aggs).unwrap()[..5].to_vec();
        for threads in [1usize, 2] {
            let cx = ExecContext::new(&db, &graph, &knobs(16, threads, None));
            let mut rec = ExecRecord::new(limit.count_ops(&|_| true), None);
            let (batches, _) = drive(&cx, &limit, &mut rec).unwrap();
            let mut got = Vec::new();
            batches.iter().for_each(|b| b.append_rows_to(&mut got));
            assert_eq!(got, want, "threads={threads}");
            let rows_read = rec.stats.io.rows_read;
            let metrics = plan_metrics(&limit, rec.ops);
            let ops: Vec<(&str, u64, u64)> = metrics
                .ops
                .iter()
                .map(|m| (m.name.as_str(), m.rows, m.batches))
                .collect();
            assert_eq!(rows_read, 48, "threads={threads}");
            let expect = [
                ("limit", 5, 3),
                ("group-by(stream)", 6, 3),
                ("table-scan", 48, 3),
            ];
            assert_eq!(ops, expect, "threads={threads}");
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
        assert_eq!(seq_header(&rec, &mut seqs).unwrap(), 20);
        assert_eq!(seqs, [7, 9]);
        // Cut inside the count, and inside the sequence numbers.
        for cut in [0usize, 3, 4, 19] {
            let err = seq_header(&rec[..cut], &mut seqs).unwrap_err();
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
        // boundaries are the unbounded run's, rows the join's by definition.
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
        let probe_rows: Vec<Row> = table(48, |k| [k, k * 37 % 320]);
        let build_rows: Vec<Row> = table(BUILD_ROWS, |i| [i % 256, i]);
        db.load_table(probe, probe_rows.clone()).unwrap();
        db.load_table(build, build_rows.clone()).unwrap();
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
        // (kind, outer, its rows, keyed, matches of a probe row that has
        // any).
        let kinds = [
            (
                JoinKind::Inner,
                scan(probe, 0, &[0, 1]),
                &probe_rows[..],
                true,
                16,
            ),
            (
                JoinKind::Inner,
                node(few, &[0, 1]),
                &probe_rows[..6],
                false,
                BUILD_ROWS,
            ),
            (
                JoinKind::LeftOuter,
                scan(probe, 0, &[0, 1]),
                &probe_rows[..],
                true,
                16,
            ),
        ];
        for (kind, outer, outer_rows, keyed, matches) in kinds {
            let keys = |c: u32| if keyed { vec![ColId(c)] } else { vec![] };
            let join = node(
                PlanNode::Join {
                    kind,
                    outer: outer.clone(),
                    inner: scan(build, 1, &[2, 3]),
                    outer_keys: keys(1),
                    inner_keys: keys(2),
                    predicates: vec![],
                    prefix_len: 0,
                },
                &[0, 1, 2, 3],
            );
            let keys = if keyed { vec![(1, 0)] } else { vec![] };
            let pad = (kind == JoinKind::LeftOuter).then_some(2);
            let want = joined(outer_rows, &build_rows, &keys, pad, |_| true);
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

    #[test]
    fn operators_carry_only_the_columns_their_consumer_reads() {
        // A filter over a six-column table whose consumer reads two of its
        // columns emits two-column batches holding exactly the rows the
        // full gather holds, restricted to those two: serially and through
        // a gather's workers, under a union of two such inputs, and under
        // an enforcer ordered on a third column its consumer does not read
        // (in memory and spilling under a budget).
        use fto_expr::{CompareOp, Predicate};
        let (int, dbl, str) = (DataType::Int, DataType::Double, DataType::Str);
        let types: &[DataType] = &[int, str, dbl, int, str, int];
        let mut cat = fto_catalog::Catalog::new();
        let cols = (0..types.len())
            .map(|c| fto_catalog::ColumnDef::new(format!("c{c}"), types[c]))
            .collect();
        let table = cat.create_table("w", cols, vec![]).unwrap();
        let rows: Vec<Row> = (0..2600i64)
            .map(|i| {
                let row = [
                    Value::Int(i),
                    Value::str(format!("s{}", i % 7)),
                    Value::Double((i % 13) as f64 * 0.5),
                    Value::Int(i % 11),
                    Value::str(format!("pad{i}")),
                    Value::Int((i * 7919) % 1000),
                ];
                row.into_iter().collect()
            })
            .collect();
        let mut db = Database::new(cat);
        db.load_table(table, rows.clone()).unwrap();
        // Quantifier 0's columns are 0–5, quantifier 1's 6–11.
        let mut graph = base_graph(&[(table, types), (table, types)]);
        let (lt, ge) = (CompareOp::Lt, CompareOp::Ge);
        let low = graph.add_predicate(Predicate::new(lt, Expr::col(ColId(3)), Expr::int(6)));
        let high = graph.add_predicate(Predicate::new(ge, Expr::col(ColId(9)), Expr::int(6)));
        let filter = |q: u32, pred: PredId| {
            let cols: Vec<u32> = (6 * q..6 * q + 6).collect();
            let input = scan_node(table, q, &cols);
            let node = PlanNode::Filter {
                input,
                predicates: vec![pred],
            };
            plan_node(node, &cols)
        };
        let (low_rows, high_rows): (Vec<Row>, Vec<Row>) =
            rows.iter().cloned().partition(|r| r[3] < Value::Int(6));
        let narrow = |rows: &[Row]| -> Vec<Row> {
            let pick = |r: &Row| [1, 5].iter().map(|&c| r[c].clone()).collect();
            rows.iter().map(pick).collect()
        };
        // Drains `op`, every batch of it two columns wide.
        let two_wide = |mut op: Box<dyn Operator>, cx: &ExecContext<'_>| {
            let mut rec = ExecRecord::default();
            op.open(cx, &mut rec).unwrap();
            let mut rows = Vec::new();
            while let Some(batch) = op.next_batch(cx, &mut rec).unwrap() {
                assert_eq!(batch.arity(), 2, "a batch carries a column nobody reads");
                batch.append_rows_to(&mut rows);
            }
            op.close(&mut rec);
            exact(&rows)
        };
        let read = ColSet::from_cols([ColId(5), ColId(1)]);
        for (threads, budget) in [(1usize, None), (2, None), (1, Some(2048))] {
            let cx = ExecContext::new(&db, &graph, &knobs(300, threads, budget));
            let case = format!("threads={threads} budget={budget:?}");
            // The filter as a drained input: at two threads, a gather over
            // two workers' filters.
            let mut lw = LowerCx::new(&cx, false);
            let (op, layout) = lower::lower_input(&filter(0, low), &read, true, &mut lw).unwrap();
            assert_eq!(layout.cols(), [ColId(1), ColId(5)], "{case}");
            assert_eq!(two_wide(op, &cx), exact(&narrow(&low_rows)), "{case}");

            let union = PlanNode::UnionAll {
                inputs: vec![filter(0, low), filter(1, high)],
            };
            let union = plan_node(union, &[12, 13, 14, 15, 16, 17]);
            let needed = ColSet::from_cols([ColId(13), ColId(17)]);
            let (op, layout) = lower_impl(&union, &needed, &mut LowerCx::new(&cx, false)).unwrap();
            assert_eq!(layout.cols(), [ColId(13), ColId(17)], "{case}");
            let both = [narrow(&low_rows), narrow(&high_rows)].concat();
            assert_eq!(two_wide(op, &cx), exact(&both), "{case}");

            let spec = [fto_order::SortKey {
                col: ColId(2),
                dir: Direction::Desc,
            }];
            let sort = PlanNode::Sort {
                input: filter(0, low),
                spec: spec.into_iter().collect(),
                prefix_len: 0,
                est_groups: 1,
                limit: None,
            };
            let sort = plan_node(sort, &[0, 1, 2, 3, 4, 5]);
            let (op, layout) = lower_impl(&sort, &read, &mut LowerCx::new(&cx, false)).unwrap();
            assert_eq!(layout.cols(), [ColId(1), ColId(5)], "{case}");
            let want = narrow(&sorted(&low_rows, &[(2, Direction::Desc)]));
            assert_eq!(two_wide(op, &cx), exact(&want), "{case}");
        }
    }
}
