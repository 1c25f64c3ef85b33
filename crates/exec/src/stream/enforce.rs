//! The order enforcer behind `PlanNode::Sort`: full sort, segmented sort
//! and top-n as one operator over a satisfied prefix.

use super::{Batch, ExecContext, Operator};
use crate::extsort::{RunFormer, Sorted};
use crate::metrics::ExecRecord;
use crate::sortkernel::SortKeys;
use fto_common::column::encode_batch_keys_arena;
use fto_common::Result;
use std::collections::VecDeque;

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
pub(super) struct EnforceOp {
    pub(super) child: Box<dyn Operator>,
    pub(super) pkeys: SortKeys,
    pub(super) skeys: SortKeys,
    pub(super) limit: Option<usize>,
    /// The open group's buffered rows and spilled runs.
    pub(super) former: RunFormer,
    /// Encoded prefix of the open group (meaningful while `group_open`).
    pub(super) lead: Vec<u8>,
    pub(super) group_open: bool,
    /// Finished groups not yet emitted, in arrival order.
    pub(super) out: VecDeque<Sorted>,
    pub(super) input_done: bool,
}

impl EnforceOp {
    pub(super) fn new(
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
