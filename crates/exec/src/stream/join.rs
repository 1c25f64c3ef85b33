//! The joins: the index nested-loop join and the build–probe join behind
//! `PlanNode::Join`, which runs over a satisfied prefix of its equated
//! pairs. The nested-loop, hash and left-outer joins have none; the merge
//! join is a keyless build–probe per prefix group.

use super::group::GroupScratch;
use super::prefix::PrefixReader;
use super::{dense, passing, Batch, BatchQueue, ExecContext, Operator, Trim};
use crate::aggkernel::{GroupTable, NO_GROUP};
use crate::metrics::ExecRecord;
use crate::sortkernel::SortKeys;
use fto_common::column::{batch_row_bytes, Column};
use fto_common::{DataType, FtoError, IndexId, Result, TableId};
use fto_expr::{PredId, RowLayout};
use fto_planner::JoinKind;
use fto_storage::{spill, IoStats, PageCursor, SpillCursor, SpillFile};
use std::cmp::Ordering;
use std::sync::Arc;

/// Index nested-loop join, vectorized: streams the outer, probing the
/// inner table's index per row with the outer batch's typed key columns
/// and collecting the matching row ids — leaf, page and `rows_read`
/// charges fall per probe and per fetched row, in probe order — then
/// assembles the candidates with one columnar gather per side per outer
/// batch. One [`PageCursor`] persists for the operator's lifetime, so
/// probes arriving in inner-page order (the paper's ordered nested-loop
/// join) hit the just-read page for free; and each probe searches the
/// index forward from the previous probe's lower bound, so probes arriving
/// in key order walk the index instead of descending it. Neither depends
/// on the plan's order claim: a probe out of order pays one binary search.
pub(super) struct IndexNestedLoopJoinOp {
    pub(super) outer: Box<dyn Operator>,
    pub(super) table: TableId,
    pub(super) index: IndexId,
    pub(super) probe_pos: Vec<usize>,
    /// The outer columns a candidate carries: a probe column no predicate
    /// and no consumer reads leaves once the probes are made.
    pub(super) otrim: Trim,
    /// The inner table's columns a candidate carries.
    pub(super) ordinals: Vec<usize>,
    pub(super) predicates: Vec<PredId>,
    /// The candidates' layout, which the predicates read.
    pub(super) layout: RowLayout,
    /// The candidate columns the consumer reads.
    pub(super) keep: Trim,
    pub(super) cursor: PageCursor,
    /// The previous probe's lower bound: where the next probe's search
    /// starts ([`fto_storage::OrderedIndex::probe`]).
    pub(super) hint: usize,
    pub(super) out: BatchQueue,
}

impl Operator for IndexNestedLoopJoinOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        // Probe streams pay a full seek on their first fetch.
        self.cursor = PageCursor::probing();
        self.hint = 0;
        self.outer.open(cx, rec)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<Option<Batch>> {
        let heap = cx.db.heap(self.table)?;
        let ix = cx.db.index(self.index)?;
        loop {
            if !self.out.is_empty() {
                return self.out.take(cx.batch_size).map(Some);
            }
            let Some(batch) = self.outer.next_batch(cx, rec)?.map(dense) else {
                return Ok(None);
            };
            let probe: Vec<&Column> = self
                .probe_pos
                .iter()
                .map(|&p| batch.column(p).as_ref())
                .collect();
            let mut osel: Vec<u32> = Vec::new();
            let mut rids: Vec<usize> = Vec::new();
            for oi in 0..batch.len() {
                rec.stats.io.index_pages += 1; // descent touches one leaf
                let hits = ix.probe(&probe, oi, self.hint);
                self.hint = hits.start;
                for &rid in &ix.rids()[hits] {
                    self.cursor.touch(heap.page_of(rid), &mut rec.stats.io);
                    rec.stats.io.rows_read += 1;
                    osel.push(oi as u32);
                    rids.push(rid);
                }
            }
            if osel.is_empty() {
                continue;
            }
            let mut cols = self.otrim.apply(batch).gather(&osel).columns().to_vec();
            let inner = heap.gather_columns(&rids, &self.ordinals)?;
            cols.extend(inner.into_iter().map(Arc::new));
            let cand = Batch::from_columns_with_len(cols, osel.len())?;
            let (predicates, layout) = (&self.predicates, &self.layout);
            push_matches(&mut self.out, cx, predicates, layout, &self.keep, cand)?;
        }
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.out.clear();
        self.outer.close(rec);
    }
}

/// Queues the columns `keep` names of the rows of a join's candidate
/// batch, laid out as `layout`, that pass every residual predicate
/// (survivors gather once).
fn push_matches(
    out: &mut BatchQueue,
    cx: &ExecContext<'_>,
    predicates: &[PredId],
    layout: &RowLayout,
    keep: &Trim,
    cand: Batch,
) -> Result<()> {
    let sel = passing(cx, predicates, &cand, layout)?;
    if sel.len() == cand.len() {
        out.push(keep.apply(cand));
    } else if !sel.is_empty() {
        out.push(keep.apply(cand).gather(&sel));
    }
    Ok(())
}

/// How many build rows each spilled record groups together: overflow
/// rows seal into fixed-size column pages so probe-side re-reads
/// amortize one decode over a whole group instead of one row.
pub(super) const JOIN_SPILL_GROUP_ROWS: usize = 256;

/// The rows `sel` of `batch`: `batch` itself, its columns shared, when
/// `sel` takes every row once and in order — as when each outer row of a
/// chunk has exactly one match.
fn gather(batch: &Batch, sel: &[u32]) -> Batch {
    let every = sel.len() == batch.len() && sel.iter().enumerate().all(|(j, &i)| i as usize == j);
    match every {
        true => batch.clone(),
        false => batch.gather(sel),
    }
}

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
/// is the unbudgeted run's at every budget. The probe buckets each candidate
/// chunk's spilled refs by group and decodes every touched group once
/// ([`Self::candidates`]), holding one decoded group at a time.
struct JoinBuild {
    ikeys: SortKeys,
    /// The inner columns a candidate carries: a key column no predicate
    /// and no consumer reads leaves each build batch once its keys are
    /// encoded, so resident and spilled rows hold only the rest.
    trim: Trim,
    /// The declared types of the carried inner columns: what `mem` is
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
    fn new(ikeys: SortKeys, trim: Trim, types: Vec<DataType>) -> JoinBuild {
        JoinBuild {
            ikeys,
            trim,
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

    /// Empties the build for the next group, keeping its buffers.
    fn reset(&mut self) {
        self.segs.clear();
        self.mem_rows = 0;
        self.bytes = 0;
        self.table.clear();
        self.arrivals.clear();
        self.pending.clear();
        self.spilled_rows = 0;
        self.group_offsets.clear();
        self.file = SpillFile::new();
        self.cache = None;
    }

    /// Drops everything the build holds.
    fn release(&mut self) {
        *self = JoinBuild::new(
            std::mem::take(&mut self.ikeys),
            std::mem::take(&mut self.trim),
            std::mem::take(&mut self.types),
        );
    }

    /// Absorbs one build batch: rows that fit the budget stay resident
    /// (gathered into a columnar segment), overflow rows queue toward
    /// the next spilled group. Rows are admitted in arrival order at
    /// [`batch_row_bytes`] each, whatever their key.
    fn absorb(
        &mut self,
        batch: Batch,
        budget: Option<usize>,
        scratch: &mut GroupScratch,
        io: &mut IoStats,
    ) -> Result<()> {
        let GroupScratch { keys, gids, first } = scratch;
        keys.encode(&batch, &self.ikeys);
        // NULL never joins: a key with a NULL in it is never admitted, so
        // its rows get no key id and drop below — and, the codec being
        // injective, a probe key with a NULL in it finds nothing.
        let ikeys = &self.ikeys;
        self.table.assign(keys, gids, first, |i, _| {
            ikeys.iter().all(|&(p, _)| batch.column(p).is_valid(i))
        });
        let batch = self.trim.apply(batch);
        self.mem_sel.clear();
        self.spill_sel.clear();
        for (i, &gid) in gids.iter().enumerate() {
            if gid == NO_GROUP {
                continue;
            }
            let overflow = match budget {
                Some(budget) => {
                    let cost = batch_row_bytes(&batch, i);
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
        if !self.spill_sel.is_empty() {
            self.pending.push(batch.gather(&self.spill_sel));
            self.flush_groups(false, io)?;
        }
        if self.mem_sel.len() == batch.len() {
            self.segs.push(batch);
        } else if !self.mem_sel.is_empty() {
            self.segs.push(batch.gather(&self.mem_sel));
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
        self.mem = match self.segs.len() {
            0 => Batch::empty(&self.types),
            1 => self.segs.swap_remove(0),
            _ => Batch::concat(&std::mem::take(&mut self.segs))?,
        };
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
        self.offsets.clear();
        self.offsets.resize(self.table.len() + 1, 0);
        for &(g, _) in &arrivals {
            self.offsets[g as usize + 1] += 1;
        }
        for g in 0..self.table.len() {
            self.offsets[g + 1] += self.offsets[g];
        }
        let mut at = self.offsets.clone();
        self.refs.clear();
        self.refs.resize(arrivals.len(), BuildRef::Mem(0));
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
        let build = match spilled.is_empty() {
            // Every ref is resident: one gather out of `mem`.
            true => gather(
                &self.mem,
                &pairs.iter().map(|&(_, i)| i).collect::<Vec<_>>(),
            ),
            false => {
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
                let srcs: Vec<&Batch> = sources.iter().collect();
                Batch::gather_multi(&srcs, &pairs)?
            }
        };
        self.spilled = spilled;
        let mut cols = gather(outer, osel).columns().to_vec();
        cols.extend(build.columns().iter().cloned());
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
/// inner side materializes into a [`JoinBuild`]; the outer side streams,
/// so the output inherits the outer's order (paper §5.2.1). Per outer
/// batch the probe keys arena-encode and look up their build key id,
/// every outer row's match list is `refs[offsets[g]..offsets[g + 1]]`,
/// the (outer, build) pairs assemble by columnar gather at most
/// [`ExecContext::batch_size`] at a time, and the residual predicates
/// refine each chunk's selection vector. A left-outer join splices a
/// null-padded copy of every outer row that no candidate passed for back
/// into outer order.
///
/// With a satisfied prefix — both inputs ordered on the first k equated
/// pairs — the join runs group by group: the two sides' [`RunCursor`]s
/// merge on the encoded prefix, each matching pair of prefix runs builds
/// the inner run and probes the outer run's pieces on the remaining
/// pairs. Without one, the whole inner is the one group's build, drained
/// at open. The merge join is a keyless build–probe per prefix group.
///
/// | `Plan::op_name` | `kind` | keys | prefix | `predicates` |
/// |---|---|---|---|---|
/// | `nested-loop-join` | inner | none: every outer row pairs with the whole build side | none | all of the join's |
/// | `hash-join` | inner | the equi-join columns | none | the rest |
/// | `merge-join` | inner | the equi-join columns | every pair: a group's outer rows pair with its whole inner run | the rest |
/// | `left-outer-join` | left outer | the ON clause's equi columns, possibly none | none | the rest of ON |
pub(super) struct JoinOp {
    kind: JoinKind,
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    /// The outer's equated columns past the satisfied prefix: the probe
    /// keys.
    okeys: SortKeys,
    /// The outer columns a candidate carries.
    otrim: Trim,
    predicates: Vec<PredId>,
    /// The candidates' layout, which the predicates read.
    layout: RowLayout,
    /// The candidate columns the consumer reads.
    keep: Trim,
    /// Keyed on the inner's equated columns past the prefix.
    build: JoinBuild,
    /// With a satisfied prefix: the outer's and the inner's run cursors.
    runs: Option<(RunCursor, RunCursor)>,
    /// The current group's outer rows, as pieces of the batches they
    /// arrived in, to probe once the group's build is complete.
    pieces: Vec<Batch>,
    /// Key-encoding scratch of the build's and the probe's batches.
    scratch: GroupScratch,
    out: BatchQueue,
}

impl JoinOp {
    /// Joins `outer` and `inner` on the equated key positions
    /// `okeys`/`ikeys`, both inputs ordered on the first `prefix_len`
    /// pairs. A candidate pairs the outer columns `otrim` names with the
    /// inner columns `itrim` names, whose types `types` declares, and is
    /// laid out as `layout`; the columns `keep` names leave.
    pub(super) fn new(
        kind: JoinKind,
        (outer, mut okeys, otrim): (Box<dyn Operator>, SortKeys, Trim),
        (inner, mut ikeys, itrim): (Box<dyn Operator>, SortKeys, Trim),
        prefix_len: usize,
        predicates: Vec<PredId>,
        (keep, layout): (Trim, RowLayout),
        types: Vec<DataType>,
    ) -> JoinOp {
        let k = prefix_len.min(okeys.len());
        let runs = (k > 0).then(|| {
            let prefix = |keys: &mut SortKeys| RunCursor::new(keys.drain(..k).collect());
            (prefix(&mut okeys), prefix(&mut ikeys))
        });
        JoinOp {
            kind,
            outer,
            inner,
            okeys,
            otrim,
            predicates,
            layout,
            keep,
            build: JoinBuild::new(ikeys, itrim, types),
            runs,
            pieces: Vec::new(),
            scratch: GroupScratch::default(),
            out: BatchQueue::default(),
        }
    }

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
        let (predicates, layout) = (&self.predicates, &self.layout);
        let Some(padded) = &p.padded else {
            return push_matches(&mut self.out, cx, predicates, layout, &self.keep, cand);
        };
        // `sel` is ascending and `osel` non-decreasing, so one forward
        // merge splices survivors and padded rows into outer order.
        let sel = passing(cx, predicates, &cand, layout)?;
        let (cand, padded) = (self.keep.apply(cand), self.keep.apply(padded.clone()));
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
            .push(Batch::gather_multi(&[&cand, &padded], &pairs)?);
        Ok(())
    }

    /// Readies the next group: its outer pieces and, with a satisfied
    /// prefix, its build. False at end of input. Without a prefix the one
    /// group was built at open and its outer streams a batch at a time;
    /// with one, the merge skips to the next pair of runs with equal
    /// prefixes and takes the outer run before the inner.
    fn next_group(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<bool> {
        let Some((o, i)) = &mut self.runs else {
            self.pieces
                .extend(self.outer.next_batch(cx, rec)?.map(dense));
            return Ok(!self.pieces.is_empty());
        };
        loop {
            if !o.fill(self.outer.as_mut(), cx, rec)? || !i.fill(self.inner.as_mut(), cx, rec)? {
                return Ok(false);
            }
            // A NULL in the prefix joins nothing.
            if o.null() {
                o.pos += 1;
                continue;
            }
            if i.null() {
                i.pos += 1;
                continue;
            }
            match o.key().cmp(i.key()) {
                Ordering::Less => o.pos += 1,
                Ordering::Greater => i.pos += 1,
                Ordering::Equal => {
                    let pieces = &mut self.pieces;
                    o.take_run(self.outer.as_mut(), cx, rec, |piece, _| {
                        pieces.push(piece);
                        Ok(())
                    })?;
                    // A group's build is not charged to the budget.
                    self.build.reset();
                    let (build, scratch) = (&mut self.build, &mut self.scratch);
                    i.take_run(self.inner.as_mut(), cx, rec, |piece, rec| {
                        build.absorb(piece, None, scratch, &mut rec.stats.io)
                    })?;
                    self.build.finish(rec)?;
                    return Ok(true);
                }
            }
        }
    }
}

impl Operator for JoinOp {
    fn open(&mut self, cx: &ExecContext<'_>, rec: &mut ExecRecord) -> Result<()> {
        self.build.reset();
        if self.runs.is_some() {
            self.outer.open(cx, rec)?;
            return self.inner.open(cx, rec);
        }
        self.inner.open(cx, rec)?;
        while let Some(batch) = self.inner.next_batch(cx, rec)?.map(dense) {
            let scratch = &mut self.scratch;
            self.build
                .absorb(batch, cx.memory_budget, scratch, &mut rec.stats.io)?;
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
            if !self.next_group(cx, rec)? {
                return Ok(None);
            }
            let mut pieces = std::mem::take(&mut self.pieces);
            for batch in pieces.drain(..) {
                let s = &mut self.scratch;
                s.keys.encode(&batch, &self.okeys);
                self.build.table.lookup(&s.keys, &mut s.gids);
                let batch = self.otrim.apply(batch);
                self.probe(cx, &batch, &mut rec.stats.io)?;
            }
            self.pieces = pieces;
        }
    }

    fn close(&mut self, rec: &mut ExecRecord) {
        self.build.release();
        self.pieces.clear();
        self.out.clear();
        self.outer.close(rec);
        // Without a prefix the inner closed once its build was drained.
        if self.runs.is_some() {
            self.inner.close(rec);
        }
    }
}

/// One input of a join with a satisfied prefix: the batch the merge
/// stands in, its prefix reader — every row's encoded prefix, the rows
/// that start a run — and the row it stands on. A run leaves as pieces of
/// the batches it arrived in: a run spanning batches is never
/// concatenated.
struct RunCursor {
    /// Over the prefix's key positions, ascending: the codec's canonical
    /// form, so both sides' encodings compare byte for byte.
    prefix: PrefixReader,
    batch: Batch,
    pos: usize,
    done: bool,
}

impl RunCursor {
    fn new(keys: SortKeys) -> RunCursor {
        RunCursor {
            prefix: PrefixReader::new(keys),
            batch: Batch::empty(&[]),
            pos: 0,
            done: false,
        }
    }

    /// The current row's encoded prefix.
    fn key(&self) -> &[u8] {
        self.prefix.key(self.pos)
    }

    /// True when the current row's prefix holds a NULL.
    fn null(&self) -> bool {
        let pos = self.pos;
        self.prefix
            .keys
            .iter()
            .any(|&(p, _)| !self.batch.column(p).is_valid(pos))
    }

    /// Stands on a row, pulling past the end of the batch: false at end
    /// of input.
    fn fill(
        &mut self,
        child: &mut dyn Operator,
        cx: &ExecContext<'_>,
        rec: &mut ExecRecord,
    ) -> Result<bool> {
        while self.pos >= self.batch.len() && !self.done {
            match child.next_batch(cx, rec)?.map(dense) {
                Some(batch) => {
                    self.prefix.cut(&batch);
                    self.batch = batch;
                    self.pos = 0;
                }
                None => self.done = true,
            }
        }
        Ok(self.pos < self.batch.len())
    }

    /// Takes the run the cursor stands in, handing `each` its pieces —
    /// from here to the run's end or the batch's — and pulling the next
    /// batch when the run reaches the end of this one, until a row starts
    /// another run or the input ends.
    fn take_run(
        &mut self,
        child: &mut dyn Operator,
        cx: &ExecContext<'_>,
        rec: &mut ExecRecord,
        mut each: impl FnMut(Batch, &mut ExecRecord) -> Result<()>,
    ) -> Result<()> {
        loop {
            let starts = &self.prefix.starts;
            let next = starts.partition_point(|&s| s as usize <= self.pos);
            let end = starts.get(next).map_or(self.batch.len(), |&s| s as usize);
            each(self.batch.slice(self.pos, end - self.pos), rec)?;
            self.pos = end;
            if end < self.batch.len()
                || !self.fill(child, cx, rec)?
                || self.prefix.starts.first() == Some(&0)
            {
                return Ok(());
            }
        }
    }
}
