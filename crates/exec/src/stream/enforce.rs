//! The order enforcer behind `PlanNode::Sort`: full sort, segmented sort
//! and top-n as one operator over a satisfied prefix.

use super::prefix::PrefixReader;
use super::{dense, Batch, ExecContext, Operator, Trim};
use crate::extsort::{RunFormer, SortedOut};
use crate::metrics::ExecRecord;
use crate::sortkernel::{order, KeyArena, SortKeys};
use fto_common::Result;
use std::ops::Range;

/// The order enforcer — the operator behind [`PlanNode::Sort`]. Its input
/// already satisfies a prefix of the required order (possibly none): its
/// groups are the runs the [`PrefixReader`] cuts, each group is ordered on
/// `skeys` alone by the permutation kernel, and groups leave in arrival order,
/// which reproduces the global stable sort bit for bit. A group that
/// opens and closes inside one input batch, within the memory budget, is
/// ordered in place over the batch's own key arena; any other group goes
/// through a [`RunFormer`] — under the budget an oversized group seals
/// and spills runs and streams back as their merge. Both order with the
/// one [`order`] routine, and the groups an input batch closes leave
/// together, gathered once.
///
/// | `Plan::op_name` | prefix | `limit` | behaviour |
/// |---|---|---|---|
/// | `sort` | none | none | one group that closes at end of input: drains at `open` |
/// | `segmented-sort` | `prefix_len` | none | streams batch by batch (closed groups leave together); `LIMIT` above stops the input |
/// | `top-n` | none | n | drains at `open`, keeping only the best n candidates |
pub(super) struct EnforceOp {
    pub(super) child: Box<dyn Operator>,
    /// Cuts the groups: its run is the open group.
    pub(super) prefix: PrefixReader,
    pub(super) skeys: SortKeys,
    pub(super) limit: Option<usize>,
    /// The columns the consumer reads: a key column it does not read
    /// leaves each input batch once its keys are encoded, so groups buffer,
    /// spill and gather only the rest.
    pub(super) keep: Trim,
    /// The buffered rows and spilled runs of a group that spans batches
    /// or outgrows the budget.
    pub(super) former: RunFormer,
    /// The current input batch's suffix keys.
    pub(super) keys: KeyArena,
    /// One in-place group's permutation (scratch).
    pub(super) perm: Vec<u32>,
    /// Finished groups not yet emitted, in arrival order.
    pub(super) out: SortedOut,
    pub(super) input_done: bool,
}

impl EnforceOp {
    pub(super) fn new(
        child: Box<dyn Operator>,
        keys: SortKeys,
        prefix_len: usize,
        limit: Option<usize>,
        keep: Trim,
    ) -> EnforceOp {
        let (pkeys, skeys) = keys.split_at(prefix_len.min(keys.len()));
        EnforceOp {
            child,
            prefix: PrefixReader::new(pkeys.to_vec()),
            skeys: skeys.to_vec(),
            limit,
            keep,
            former: RunFormer::new(usize::MAX, limit),
            keys: KeyArena::default(),
            perm: Vec::new(),
            out: SortedOut::default(),
            input_done: false,
        }
    }

    /// Counts a closed prefix group formed — what EXPLAIN ANALYZE shows
    /// next to the planner's estimate. A full sort forms none.
    fn count_group(&mut self, rec: &mut ExecRecord) {
        if !self.prefix.keys.is_empty() {
            rec.mark(
                |s| &mut s.segment.groups_formed,
                "segment",
                "segment.group_sealed",
            );
        }
    }

    /// Ends the open group, whose last rows are `rows` of `batch` — the
    /// first source of `out`'s selection: ordered in place when the former
    /// holds none of the group and would take it whole, through the former
    /// otherwise.
    fn close_group(
        &mut self,
        batch: &Batch,
        rows: Range<usize>,
        cx: &ExecContext<'_>,
        rec: &mut ExecRecord,
    ) -> Result<()> {
        if !self.former.takes_whole(batch, rows.clone(), &self.keys) {
            self.former.push_rows(batch, rows, &self.keys, rec)?;
            self.count_group(rec);
            return self.former.finish(cx.batch_size, &mut self.out, rec);
        }
        self.count_group(rec);
        rec.stats.io.sort_rows += rows.len() as u64;
        self.perm.clear();
        self.perm.extend(rows.start as u32..rows.end as u32);
        order(&self.keys, &mut self.perm, None, &mut rec.stats.sort);
        self.out.picked.pick(0, &self.perm);
        Ok(())
    }

    /// Pulls one input batch, closing a group at every prefix boundary and
    /// buffering the group still open at its end — or, at end of input,
    /// finishes the last group — then gathers the closed groups' rows.
    fn pull(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        let Some(batch) = self.child.next_batch(cx, rec)?.map(dense) else {
            self.input_done = true;
            self.child.close(rec);
            if self.prefix.open {
                self.count_group(rec);
                self.former.finish(cx.batch_size, &mut self.out, rec)?;
            }
            return self.out.flush(cx.batch_size);
        };
        self.keys.encode(&batch, &self.skeys);
        let open = self.prefix.cut(&batch);
        let batch = self.keep.apply(batch);
        self.out.picked.clear();
        self.out.picked.add_source(&batch);
        let mut lo = 0;
        for j in 0..self.prefix.starts.len() {
            let start = self.prefix.starts[j] as usize;
            if open || start > 0 {
                self.close_group(&batch, lo..start, cx, rec)?;
            }
            lo = start;
        }
        self.former
            .push_rows(&batch, lo..batch.len(), &self.keys, rec)?;
        self.out.flush(cx.batch_size)
    }
}

impl Operator for EnforceOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.former = RunFormer::new(cx.memory_budget.unwrap_or(usize::MAX), self.limit);
        self.prefix.open = false;
        self.out = SortedOut::default();
        self.input_done = false;
        self.child.open(cx, rec)?;
        // Without a satisfied prefix nothing can leave before the input
        // ends: a pipeline breaker, drained here.
        while self.prefix.keys.is_empty() && !self.input_done {
            self.pull(cx, rec)?;
        }
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        // Drain finished groups first, in arrival order.
        loop {
            if let Some(batch) = self.out.next_batch(cx.batch_size, &mut rec.stats)? {
                return Ok(Some(batch));
            }
            if self.input_done {
                return Ok(None);
            }
            self.pull(cx, rec)?;
        }
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.former = RunFormer::new(usize::MAX, self.limit);
        self.out = SortedOut::default();
        self.child.close(rec);
    }
}
