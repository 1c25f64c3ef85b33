//! Grouping behind `PlanNode::GroupBy` (DISTINCT is the grouping with no
//! aggregates): one operator over a satisfied prefix of the grouping
//! columns — the order-based group-by at every column, the hash group-by
//! at none — spilling under a budget.

use super::prefix::PrefixReader;
use super::{Batch, BatchQueue, ExecContext, Operator, Trim};
use crate::aggkernel::{AggSpec, GroupAgg, GroupTable};
use crate::extsort::seq_header;
use crate::metrics::ExecRecord;
use crate::sortkernel::GroupKeys;
use fto_common::column::batch_row_bytes;
use fto_common::Result;
use fto_storage::{spill, IoStats, SpillCursor, SpillFile};
use std::sync::Arc;

/// Number of key-hash partitions a budgeted segment (or its recursive
/// sub-aggregations) spills overflow rows into.
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

/// In-flight state of one (sub)aggregation of a segment: the resident
/// groups (key → id in `table`, key rows and aggregate state in `agg`,
/// each group's first row's global position in `first_seqs`, which fixes
/// its output rank), the budget charged for them, and — once the budget
/// is crossed — the key-hash partitions overflow rows spill into.
struct GroupState {
    spec: Arc<AggSpec>,
    /// `table` keys on the grouping columns past the first `prefix_len`,
    /// the satisfied prefix, which is constant within a segment.
    prefix_len: usize,
    table: GroupTable,
    agg: GroupAgg,
    first_seqs: Vec<u64>,
    bytes: usize,
    parts: Vec<SpillFile>,
}

/// Per-batch scratch of the grouping and the join, reused across batches.
#[derive(Default)]
pub(super) struct GroupScratch {
    pub(super) keys: GroupKeys,
    pub(super) gids: Vec<u32>,
    pub(super) first: Vec<u32>,
}

impl GroupState {
    fn new(spec: &Arc<AggSpec>, prefix_len: usize) -> GroupState {
        GroupState {
            spec: Arc::clone(spec),
            prefix_len,
            table: GroupTable::new(),
            agg: GroupAgg::new(Arc::clone(spec)),
            first_seqs: Vec::new(),
            bytes: 0,
            parts: Vec::new(),
        }
    }

    /// Absorbs one batch — its selected rows alone, `seqs` holding each
    /// row's global position. Rows of already-admitted keys aggregate in
    /// place (no new memory); a first-seen key is admitted while the
    /// working set fits the budget, and once it no longer does, new keys'
    /// rows spill to the partition their key hashes to, one
    /// `[u32 nrows][nrows × u64 seq][column pages]` record per (batch,
    /// partition). A key therefore lives entirely in memory or entirely in
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
        let GroupScratch { keys, gids, first } = scratch;
        let spec = &self.spec;
        keys.encode(batch, &spec.keys()[self.prefix_len..]);
        let key_cols = spec.key_columns(batch);
        // Overflow rows collect into per-partition lists of their slots
        // and spill once per (batch, partition). Per-partition row order
        // is arrival order either way, so replay — and with it the rebuilt
        // aggregation — is unchanged.
        let mut psel: Vec<(Vec<u32>, Vec<u64>)> = Vec::new();
        let (bytes, mut resident) = (&mut self.bytes, self.table.len());
        self.table.assign(keys, gids, first, |i, key| {
            let slot = batch.slot(i);
            // Estimated resident cost of admitting this group: its
            // index key, key values, and rough per-accumulator (64)
            // and hash-entry (48) overheads — what the budget charges,
            // not what the columnar state occupies.
            let cost = key.len() + batch_row_bytes(&key_cols, slot) + 64 * spec.num_aggs() + 48;
            if *bytes + cost > budget && resident > 0 {
                if psel.is_empty() {
                    psel = (0..GROUP_SPILL_PARTITIONS)
                        .map(|_| (Vec::new(), Vec::new()))
                        .collect();
                }
                let p = (partition_hash(key, salt) as usize) % GROUP_SPILL_PARTITIONS;
                psel[p].0.push(slot as u32);
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
            let mut sub = GroupState::new(&self.spec, self.prefix_len);
            let mut cursor = SpillCursor::new(0, file.len());
            while let Some(frame) = cursor.read_record(&file, &mut rec.stats.io)? {
                let mut pos = seq_header(&frame, &mut seqs)?;
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

/// The grouping operator behind [`PlanNode::GroupBy`]. Its input arrives
/// with the first k of its n grouping columns satisfied (possibly none):
/// its segments are the runs the [`PrefixReader`] cuts, and group on the
/// other columns through a [`GroupState`]. It reads a filtered input's
/// selection as it comes: keys are encoded, groups assigned, the budget
/// charged, overflow rows spilled and aggregates folded for the selected
/// rows alone, and only a new group's key row and a spilled row are
/// copied. The sort-key codec's byte
/// equality is `Value` equality, and every row of a key aggregates in
/// arrival order, spilled or not, so results (float sums included) are
/// bit-identical at every budget.
///
/// | `Plan::op_name` | k | behaviour |
/// |---|---|---|
/// | `group-by(stream)` | n | a segment is a group: no table, ids come from run boundaries, and the groups a batch closes leave with it — a `LIMIT` above stops the input |
/// | `group-by(hash)` | 0 < n | one segment, ending with the input: drains at `open` |
///
/// [`PlanNode::GroupBy`]: fto_planner::PlanNode::GroupBy
pub(super) struct GroupByOp {
    child: Box<dyn Operator>,
    /// The open segment's groups; its `prefix_len` is k.
    state: GroupState,
    /// Cuts the segments: its run is the open segment.
    prefix: PrefixReader,
    /// Global position of the next input row.
    seq: u64,
    scratch: GroupScratch,
    input_done: bool,
    out: BatchQueue,
    /// The output columns the consumer reads.
    keep: Trim,
}

impl GroupByOp {
    /// Groups `child`'s rows by `spec`, its first `prefix_len` columns
    /// satisfied, and hands on the output columns `keep` names.
    pub(super) fn new(
        child: Box<dyn Operator>,
        spec: Arc<AggSpec>,
        prefix_len: usize,
        keep: Trim,
    ) -> Self {
        let prefix_len = prefix_len.min(spec.keys().len());
        GroupByOp {
            child,
            prefix: PrefixReader::new(spec.keys()[..prefix_len].to_vec()),
            state: GroupState::new(&spec, prefix_len),
            seq: 0,
            scratch: GroupScratch::default(),
            input_done: false,
            out: BatchQueue::default(),
            keep,
        }
    }

    /// True when no group can leave before the input ends: no prefix to
    /// cut on, but columns to group by.
    fn drains(&self) -> bool {
        self.state.prefix_len == 0 && !self.state.spec.keys().is_empty()
    }

    /// Ends the open segment: its groups queue in first-seen order —
    /// resident and spilled alike, ranked by their first row's global
    /// position.
    fn finish_segment(&mut self, budget: usize, rec: &mut ExecRecord) -> Result<()> {
        let next = GroupState::new(&self.state.spec, self.state.prefix_len);
        let mut parts: Vec<(Batch, Vec<u64>)> = Vec::new();
        std::mem::replace(&mut self.state, next).drain(budget, 0, rec, &mut parts)?;
        // No two groups share a first row, so the ranks are distinct.
        let mut sel: Vec<(u32, u32)> = Vec::new();
        for (p, (groups, _)) in parts.iter().enumerate() {
            sel.extend((0..groups.len() as u32).map(|i| (p as u32, i)));
        }
        sel.sort_by_cached_key(|&(p, i)| parts[p as usize].1[i as usize]);
        let sources: Vec<&Batch> = parts.iter().map(|(b, _)| b).collect();
        self.out.push(Batch::gather_multi(&sources, &sel)?);
        Ok(())
    }

    /// Pulls one input batch into the open segment, ending a segment at
    /// every run the prefix reader starts but the input's first — or, at
    /// end of input, ends the last. A drained input is one segment: its
    /// prefix is empty.
    fn pull(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        let budget = cx.memory_budget.unwrap_or(usize::MAX);
        let Some(batch) = self.child.next_batch(cx, rec)? else {
            self.input_done = true;
            if self.drains() {
                self.child.close(rec);
            }
            return self.finish_segment(budget, rec);
        };
        let at = self.seq;
        self.seq += batch.len() as u64;
        let open = self.prefix.cut(&batch);
        let starts = &self.prefix.starts;
        if self.state.prefix_len == self.state.spec.keys().len() {
            // Every segment is one group. A row's id counts the runs begun
            // up to it, the one open before the batch being 0: the groups
            // this batch closed leave now, and the last stays open.
            let (gids, base) = (&mut self.scratch.gids, usize::from(open));
            gids.clear();
            let ends = starts.iter().copied().chain([batch.len() as u32]);
            for (j, end) in ends.enumerate() {
                gids.resize(end as usize, (base + j).saturating_sub(1) as u32);
            }
            let agg = &mut self.state.agg;
            agg.absorb(&batch, gids, starts)?;
            if agg.groups() > 1 {
                self.out.push(agg.take(agg.groups() - 1)?);
            }
            return Ok(());
        }
        let seqs: Vec<u64> = (at..self.seq).collect();
        let (mut lo, n) = (0, batch.len());
        for j in 0..=self.prefix.starts.len() {
            let hi = self.prefix.starts.get(j).map_or(n, |&s| s as usize);
            if hi > lo {
                let (piece, io) = (batch.slice(lo, hi - lo), &mut rec.stats.io);
                let scratch = &mut self.scratch;
                self.state
                    .absorb_batch(&piece, &seqs[lo..hi], budget, 0, scratch, io)?;
            }
            if j < self.prefix.starts.len() && at + hi as u64 > 0 {
                self.finish_segment(budget, rec)?;
            }
            lo = hi;
        }
        Ok(())
    }
}

impl Operator for GroupByOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.seq = 0;
        self.prefix.open = false;
        self.input_done = false;
        self.child.open(cx, rec)?;
        // A pipeline breaker drains its input here.
        while self.drains() && !self.input_done {
            self.pull(cx, rec)?;
        }
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        loop {
            if !self.out.is_empty() {
                let batch = self.out.take(cx.batch_size)?;
                return Ok(Some(self.keep.apply(batch)));
            }
            if self.input_done {
                return Ok(None);
            }
            self.pull(cx, rec)?;
        }
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.state = GroupState::new(&self.state.spec, self.state.prefix_len);
        self.out.clear();
        // A drained input closed once it was drained.
        if !self.drains() {
            self.child.close(rec);
        }
    }
}
