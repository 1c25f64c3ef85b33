//! The pipelined operators: table and index scans, filter, project,
//! limit and union all. None holds state across batches beyond a cursor
//! or a count. The filter emits a selection over its input's columns and
//! the projection passes it through; limit and union densify.

use super::{dense, passing, Batch, ExecContext, Operator, Trim};
use crate::metrics::ExecRecord;
use fto_common::{FtoError, IndexId, Result, TableId};
use fto_expr::{vector, Expr, PredId, RowLayout};
use fto_planner::ScanRange;
use fto_storage::{HeapScanState, IndexScanState};

// ---------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------

pub(super) struct ScanOp {
    pub(super) table: TableId,
    /// The heap columns the consumer reads, in the order it reads them.
    pub(super) ordinals: Vec<usize>,
    /// Which page-aligned partition of the heap this cursor walks;
    /// `(0, 1)` outside worker pipelines, i.e. the whole heap.
    pub(super) part: usize,
    pub(super) parts: usize,
    pub(super) state: HeapScanState,
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
                .next_columns(heap, &self.ordinals, cx.batch_size, &mut rec.stats.io)?;
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }
}

pub(super) struct IndexScanOp {
    pub(super) index: IndexId,
    pub(super) table: TableId,
    /// The heap columns the consumer reads, in the order it reads them.
    pub(super) ordinals: Vec<usize>,
    pub(super) range: Option<ScanRange>,
    pub(super) reverse: bool,
    /// Which leaf-aligned partition of the matching entries this cursor
    /// walks, in *emission* order; `(0, 1)` outside worker pipelines.
    pub(super) part: usize,
    pub(super) parts: usize,
    pub(super) state: Option<IndexScanState>,
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
        )?);
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        let ix = cx.db.index(self.index)?;
        let heap = cx.db.heap(self.table)?;
        let state = self
            .state
            .as_mut()
            .ok_or_else(|| FtoError::internal("index scan used before open"))?;
        let batch =
            state.next_columns(ix, heap, &self.ordinals, cx.batch_size, &mut rec.stats.io)?;
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }

    fn close(&mut self, _: &mut ExecRecord) {
        self.state = None;
    }
}

// ---------------------------------------------------------------------
// Row-at-a-time streamers
// ---------------------------------------------------------------------

/// Refines each input batch's selection by the predicates and emits the
/// input's columns — those the consumer reads, `Arc` clones — with the
/// survivors selected: no row is copied here.
pub(super) struct FilterOp {
    pub(super) child: Box<dyn Operator>,
    pub(super) predicates: Vec<PredId>,
    /// The child's layout, which the predicates read.
    pub(super) layout: RowLayout,
    /// The columns the consumer reads: the only ones handed on.
    pub(super) keep: Trim,
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
            if sel.is_empty() {
                continue;
            }
            return Ok(Some(self.keep.apply(batch).with_selection(sel)));
        }
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.child.close(rec);
    }
}

pub(super) struct ProjectOp {
    pub(super) child: Box<dyn Operator>,
    pub(super) exprs: Vec<Expr>,
    pub(super) layout: RowLayout,
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

pub(super) struct LimitOp {
    pub(super) child: Box<dyn Operator>,
    pub(super) remaining: u64,
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
        let Some(mut batch) = self.child.next_batch(cx, rec)?.map(dense) else {
            return Ok(None);
        };
        if batch.len() as u64 > self.remaining {
            batch = batch.slice(0, self.remaining as usize);
        }
        self.remaining -= batch.len() as u64;
        Ok(Some(batch))
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.child.close(rec);
    }
}

pub(super) struct UnionAllOp {
    pub(super) children: Vec<Box<dyn Operator>>,
    pub(super) current: usize,
    pub(super) opened: bool,
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
                Some(batch) => return Ok(Some(dense(batch))),
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
