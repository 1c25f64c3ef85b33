//! Grouping behind `PlanNode::GroupBy` (DISTINCT is the grouping with no
//! aggregates): the hash group-by, spilling under a budget, and the
//! order-based group-by over contiguous groups.

use super::{Batch, BatchQueue, ExecContext, Operator};
use crate::aggkernel::{AggSpec, GroupAgg, GroupTable};
use crate::metrics::ExecRecord;
use fto_common::column::batch_row_bytes;
use fto_common::{FtoError, Result};
use fto_storage::{spill, IoStats, SpillCursor, SpillFile};
use std::sync::Arc;

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
pub(super) struct GroupScratch {
    pub(super) key_bytes: Vec<u8>,
    pub(super) key_offsets: Vec<usize>,
    pub(super) gids: Vec<u32>,
    pub(super) first: Vec<u32>,
}

/// Splits an overflow record `[u32 nrows][nrows × u64 seq][column pages]`
/// into its sequence numbers and the position its column pages start at.
pub(super) fn group_spill_header(rec: &[u8], seqs: &mut Vec<u64>) -> Result<usize> {
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
pub(super) struct HashGroupByOp {
    pub(super) child: Box<dyn Operator>,
    pub(super) spec: Arc<AggSpec>,
    pub(super) out: BatchQueue,
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
pub(super) struct StreamGroupByOp {
    pub(super) child: Box<dyn Operator>,
    pub(super) spec: Arc<AggSpec>,
    pub(super) agg: GroupAgg,
    /// Encoded key of the open group (meaningful while `agg` holds one).
    pub(super) open_key: Vec<u8>,
    pub(super) scratch: GroupScratch,
    pub(super) input_done: bool,
    pub(super) out: BatchQueue,
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
