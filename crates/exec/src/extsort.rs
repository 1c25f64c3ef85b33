//! External-sort machinery behind the order enforcer: run formation
//! under a memory budget, spilled runs of column pages, and streaming
//! multi-pass K-way merges over them — columnar end to end.
//!
//! A [`RunFormer`] buffers one prefix group's rows in a
//! [`SortBuf`](crate::sortkernel::SortBuf) — references into the input
//! batches plus encoded keys, never rows. Each row is charged
//! `row_bytes + key + 8` (its row-shaped footprint plus the decorated key
//! a spilled run stores); when the next row would push the working set
//! past the budget the buffer is sorted as a permutation and spilled as
//! one run, tagged with the rows' input positions, so merging the runs by
//! `(key, seq)` reproduces the unbounded stable sort bit for bit. One
//! body serves every budget (unbounded is `usize::MAX`: nothing ever
//! seals). With a `limit` the former is a top-N: it never spills, and
//! prunes its candidates back to the best `limit` whenever they outgrow
//! `max(budget, 2 · limit rows)` — a row outside the running top can never
//! re-enter it. When the group ends, runs beyond the merge fan-in
//! ([`fto_planner::cost::MERGE_FAN_IN`]) are reduced level by level (each
//! level is one *merge pass*, the unit the cost model prices in
//! [`fto_planner::cost::sort_spill_passes`]); the final ≤F runs stream
//! through a [`RunMerge`] pulled batch by batch, so the sorted output is
//! never materialized whole. A group of less than a batch that ends
//! without spilling hands its rows to a [`SortedOut`] as picked
//! references, gathered together with whatever else the enforcer picked
//! since its last flush; a larger one is gathered by itself.
//!
//! On-spill record format (one length-prefixed record per
//! [`RUN_GROUP_ROWS`]-row group, via [`SpillFile::append_record`]):
//!
//! ```text
//! [u32 nrows LE][nrows × u64 seq LE][u32 key_total LE]
//! [nrows × u32 key end-offset LE][key bytes][column pages (spill::write_batch)]
//! ```
//!
//! Each stored key is the decorated normalized key (`key ‖ big-endian
//! seq`; a keyless sort stores the 8 seq bytes alone). A group is written
//! from a gathered batch and decodes back into a
//! [`Run`](crate::sortkernel::Run); a merge keeps one decoded group and a
//! row cursor per run.

use crate::metrics::{ExecRecord, ExecStats};
use crate::sortkernel::{least_head, KeyArena, Run, Selection, SortBuf};
use fto_common::column::{batch_row_bytes, Batch};
use fto_common::{FtoError, Result};
use fto_planner::cost::MERGE_FAN_IN;
use fto_storage::{spill, IoStats, SpillCursor, SpillFile};
use std::collections::VecDeque;
use std::ops::Range;

/// How many rows each spilled run record groups together.
const RUN_GROUP_ROWS: usize = 256;

/// Extent (byte range) of one sorted run inside a spill file.
#[derive(Clone, Copy, Debug)]
struct RunExtent {
    start: u64,
    end: u64,
}

/// Appends `run` as one run group record to `file` (see the module docs
/// for the format), reusing `payload` as scratch.
fn append_run_group(file: &mut SpillFile, payload: &mut Vec<u8>, run: &Run, io: &mut IoStats) {
    let n = run.seqs.len();
    payload.clear();
    payload.extend_from_slice(&(n as u32).to_le_bytes());
    for &seq in &run.seqs {
        payload.extend_from_slice(&seq.to_le_bytes());
    }
    let stored = |i: usize| run.keys.get(i).len() as u32 + 8;
    payload.extend_from_slice(&(0..n).map(stored).sum::<u32>().to_le_bytes());
    let mut end = 0u32;
    for i in 0..n {
        end += stored(i);
        payload.extend_from_slice(&end.to_le_bytes());
    }
    for (i, &seq) in run.seqs.iter().enumerate() {
        payload.extend_from_slice(run.keys.get(i));
        payload.extend_from_slice(&seq.to_be_bytes());
    }
    spill::write_batch(&run.batch, payload);
    file.append_record(payload, io);
}

/// Reads the header a sort run group and a spilled group-by record both
/// open with, `[u32 n][n × u64 LE seq]`: fills `seqs` with the n sequence
/// numbers and returns where the record goes on. A record shorter than its
/// count says is an error.
pub(crate) fn seq_header(rec: &[u8], seqs: &mut Vec<u64>) -> Result<usize> {
    let truncated = || FtoError::Exec("spill record header truncated".into());
    let (n, rest) = rec.split_first_chunk::<4>().ok_or_else(truncated)?;
    let len = (u32::from_le_bytes(*n) as usize).saturating_mul(8);
    let (words, _) = rest.get(..len).ok_or_else(truncated)?.as_chunks::<8>();
    seqs.clear();
    seqs.extend(words.iter().map(|w| u64::from_le_bytes(*w)));
    Ok(4 + len)
}

/// Decodes one run group record, bounds-checking every header field: a
/// truncated or inconsistent record is an error, not a panic. (The column
/// pages behind the header are [`spill::read_batch`]'s.)
fn parse_run_group(rec: &[u8]) -> Result<Run> {
    let bad = || FtoError::Exec("sort run group record truncated or inconsistent".into());
    let mut seqs = Vec::new();
    let mut pos = seq_header(rec, &mut seqs)?;
    let n = Some(seqs.len()).filter(|&n| n > 0).ok_or_else(bad)?;
    let mut take = |len: usize| {
        let field = rec.get(pos..pos.checked_add(len)?)?;
        pos += len;
        Some(field)
    };
    let le32 = |b: &[u8; 4]| u32::from_le_bytes(*b) as usize;
    let total = take(4)
        .and_then(|b| b.first_chunk())
        .map(le32)
        .ok_or_else(bad)?;
    let (ends, _) = take(n * 4).ok_or_else(bad)?.as_chunks::<4>();
    let stored = take(total).ok_or_else(bad)?;
    let mut keys = KeyArena::default();
    let mut start = 0;
    for end in ends.iter().map(le32) {
        // Each stored key ends in its 8-byte tag, which `seqs` repeats.
        let key = stored.get(start..end).filter(|k| k.len() >= 8);
        keys.push(key.map(|k| &k[..k.len() - 8]).ok_or_else(bad)?);
        start = end;
    }
    let batch = spill::read_batch(rec, &mut pos)?;
    if batch.len() != n || start != total {
        return Err(bad());
    }
    Ok(Run { batch, keys, seqs })
}

/// Streams one spilled run: the current decoded group and a row cursor.
struct RunReader {
    cursor: SpillCursor,
    group: Option<Run>,
    at: usize,
}

impl RunReader {
    /// Decodes the run's next group (one [`spill::read_batch`] per
    /// [`RUN_GROUP_ROWS`] rows), or parks at end of run.
    fn load(&mut self, file: &SpillFile, io: &mut IoStats) -> Result<()> {
        self.at = 0;
        self.group = match self.cursor.read_record(file, io)? {
            Some(rec) => Some(parse_run_group(&rec)?),
            None => None,
        };
        Ok(())
    }

    fn head(&self) -> Option<(&[u8], u64)> {
        let g = self.group.as_ref()?;
        Some((g.keys.get(self.at), g.seqs[self.at]))
    }
}

/// A streaming K-way merge over spilled run extents: holds one decoded
/// group per run plus a cursor, so memory stays O(fan-in · group)
/// regardless of run sizes. Reads charge `spill_pages_read` through the
/// cursors; the merge's comparisons go to the same stream.
struct RunMerge {
    readers: Vec<RunReader>,
}

impl RunMerge {
    fn new(file: &SpillFile, extents: &[RunExtent], io: &mut IoStats) -> Result<RunMerge> {
        let mut readers = Vec::with_capacity(extents.len());
        for e in extents {
            let mut reader = RunReader {
                cursor: SpillCursor::new(e.start, e.end),
                group: None,
                at: 0,
            };
            reader.load(file, io)?;
            readers.push(reader);
        }
        Ok(RunMerge { readers })
    }

    /// Pops the next `max` rows (fewer at the end) in `(key, seq)` order
    /// as one run, gathered straight from the decoded groups; `None` once
    /// every run is drained. A run whose group empties loads its next one
    /// at once, so page reads fall where a row-at-a-time merge's would.
    fn next_run(
        &mut self,
        max: usize,
        file: &SpillFile,
        stats: &mut ExecStats,
    ) -> Result<Option<Run>> {
        let mut sources: Vec<Batch> = Vec::new();
        let mut source_of: Vec<Option<u32>> = vec![None; self.readers.len()];
        let mut sel: Vec<(u32, u32)> = Vec::new();
        let (mut keys, mut seqs) = (KeyArena::default(), Vec::new());
        while sel.len() < max {
            let heads = self.readers.iter().map(RunReader::head);
            let Some(k) = least_head(heads, &mut stats.sort.comparisons) else {
                break;
            };
            let RunReader {
                group: Some(group),
                at,
                ..
            } = &mut self.readers[k]
            else {
                return Err(FtoError::internal("a head has a group"));
            };
            let source = *source_of[k].get_or_insert_with(|| {
                sources.push(group.batch.clone());
                sources.len() as u32 - 1
            });
            sel.push((source, *at as u32));
            keys.push(group.keys.get(*at));
            seqs.push(group.seqs[*at]);
            *at += 1;
            if *at == group.seqs.len() {
                self.readers[k].load(file, &mut stats.io)?;
                source_of[k] = None;
            }
        }
        if sel.is_empty() {
            return Ok(None);
        }
        let sources: Vec<&Batch> = sources.iter().collect();
        Ok(Some(Run {
            batch: Batch::gather_multi(&sources, &sel)?,
            keys,
            seqs,
        }))
    }
}

/// Reduces spilled runs to at most `MERGE_FAN_IN` by merging groups of up
/// to F runs into new runs appended to the same file, level by level.
/// Each level is one merge pass ([`crate::SpillStats::merge_passes`]);
/// reads and writes charge the spill page counters as the data actually
/// moves.
fn reduce_to_fan_in(
    file: &mut SpillFile,
    mut extents: Vec<RunExtent>,
    rec: &mut ExecRecord,
) -> Result<Vec<RunExtent>> {
    let mut payload = Vec::new();
    while extents.len() > MERGE_FAN_IN {
        rec.mark(|s| &mut s.spill.merge_passes, "spill", "spill.merge_pass");
        let mut next = Vec::with_capacity(extents.len().div_ceil(MERGE_FAN_IN));
        for chunk in extents.chunks(MERGE_FAN_IN) {
            if chunk.len() == 1 {
                next.push(chunk[0]);
                continue;
            }
            let start = file.len();
            let mut merge = RunMerge::new(file, chunk, &mut rec.stats.io)?;
            while let Some(run) = merge.next_run(RUN_GROUP_ROWS, file, &mut rec.stats)? {
                append_run_group(file, &mut payload, &run, &mut rec.stats.io);
            }
            next.push(RunExtent {
                start,
                end: file.len(),
            });
        }
        extents = next;
    }
    Ok(extents)
}

/// The spilled half of a finished external sort: the final ≤F runs and
/// the streaming merge over them.
struct SpilledSort {
    file: SpillFile,
    merge: RunMerge,
}

/// What finished prefix groups leave for emission, in arrival order:
/// batches gathered from memory, or the streaming merge of a group that
/// spilled.
enum Sorted {
    Batch(Batch),
    Spilled(SpilledSort),
}

/// The sorted output of finished groups, in arrival order: the rows
/// ordered in memory since the last [`Self::flush`], picked but not yet
/// gathered, follow everything queued.
#[derive(Default)]
pub(crate) struct SortedOut {
    /// Rows ordered in memory, awaiting one gather.
    pub(crate) picked: Selection,
    queue: VecDeque<Sorted>,
}

impl SortedOut {
    /// Gathers the picked rows, in batches of at most `batch_size` rows,
    /// onto the queue.
    pub(crate) fn flush(&mut self, batch_size: usize) -> Result<()> {
        let queue = &mut self.queue;
        self.picked
            .take_batches(batch_size, |b| queue.push_back(Sorted::Batch(b)))
    }

    /// The next queued batch, or `None` when the queue is empty. A spilled
    /// group's final merge streams: the sorted group is never materialized
    /// whole, only `batch_size` rows at a time.
    pub(crate) fn next_batch(
        &mut self,
        batch_size: usize,
        stats: &mut ExecStats,
    ) -> Result<Option<Batch>> {
        loop {
            match self.queue.pop_front() {
                Some(Sorted::Batch(batch)) => return Ok(Some(batch)),
                Some(Sorted::Spilled(mut s)) => {
                    if let Some(run) = s.merge.next_run(batch_size, &s.file, stats)? {
                        self.queue.push_front(Sorted::Spilled(s));
                        return Ok(Some(run.batch));
                    }
                }
                None => return Ok(None),
            }
        }
    }
}

/// What buffering row `i` of `batch` under its encoded `key` costs: the
/// row-shaped footprint plus the decorated key a spilled run stores.
fn charge(batch: &Batch, i: usize, key: &[u8]) -> usize {
    batch_row_bytes(batch, i) + key.len() + 8
}

/// Run formation for one prefix group at a time (see the module docs).
/// The working set never exceeds `max(budget, one row)`.
pub(crate) struct RunFormer {
    budget: usize,
    limit: Option<usize>,
    buf: SortBuf,
    bytes: usize,
    /// Input position, within the group, of the next row.
    next_seq: u64,
    file: SpillFile,
    extents: Vec<RunExtent>,
}

impl RunFormer {
    pub(crate) fn new(budget: usize, limit: Option<usize>) -> RunFormer {
        RunFormer {
            budget,
            limit,
            buf: SortBuf::default(),
            bytes: 0,
            next_seq: 0,
            file: SpillFile::new(),
            extents: Vec::new(),
        }
    }

    /// Whether the former holds no group and would take `rows` of `batch`
    /// as one whole in memory: their charge within the budget, so no run
    /// would seal. Such a group is ordered exactly as [`Self::finish`]
    /// would order it, without being buffered. Only a segmented sort asks,
    /// and it has no limit (lowering refuses one).
    pub(crate) fn takes_whole(&self, batch: &Batch, rows: Range<usize>, keys: &KeyArena) -> bool {
        let fits = || {
            let mut charges = rows.map(|i| charge(batch, i, keys.get(i)));
            charges.try_fold(0usize, |sum, c| {
                sum.checked_add(c).filter(|&s| s <= self.budget)
            })
        };
        self.buf.is_empty()
            && self.extents.is_empty()
            && (self.budget == usize::MAX || fits().is_some())
    }

    /// Buffers `rows` of `batch` with their keys from the batch's key
    /// arena, sealing the current run first whenever the next row would
    /// push the working set past the budget.
    pub(crate) fn push_rows(
        &mut self,
        batch: &Batch,
        rows: Range<usize>,
        keys: &KeyArena,
        rec: &mut ExecRecord,
    ) -> Result<()> {
        self.buf.add_batch(batch);
        for i in rows {
            let key = keys.get(i);
            let cost = charge(batch, i, key);
            let full = self.bytes.saturating_add(cost) > self.budget;
            if full && self.limit.is_none() && !self.buf.is_empty() {
                self.seal(rec)?;
                self.buf.add_batch(batch);
            }
            self.bytes += cost;
            self.buf.push(i, key, self.next_seq);
            self.next_seq += 1;
        }
        if let Some(n) = self.limit {
            let len = self.buf.len();
            if len > n && (self.bytes > self.budget || len >= 2 * n.max(1)) {
                let top = self
                    .buf
                    .run(&self.buf.ordered(self.limit, &mut rec.stats.sort))?;
                self.buf.clear();
                self.buf.push_run(&top);
                self.bytes = (0..top.seqs.len())
                    .map(|i| charge(&top.batch, i, top.keys.get(i)))
                    .sum();
            }
        }
        Ok(())
    }

    /// Sorts the buffered rows into a run and spills it. Charges
    /// `sort_rows` per run, so the external sort's total equals the
    /// in-memory one's.
    fn seal(&mut self, rec: &mut ExecRecord) -> Result<()> {
        rec.stats.io.sort_rows += self.buf.len() as u64;
        let start = self.file.len();
        let mut payload = Vec::new();
        let perm = self.buf.ordered(None, &mut rec.stats.sort);
        for group in perm.chunks(RUN_GROUP_ROWS) {
            let run = self.buf.run(group)?;
            append_run_group(&mut self.file, &mut payload, &run, &mut rec.stats.io);
        }
        self.extents.push(RunExtent {
            start,
            end: self.file.len(),
        });
        rec.mark(
            |s| &mut s.spill.runs_formed,
            "spill",
            "spill.runs_formed x1",
        );
        self.buf.clear();
        self.bytes = 0;
        Ok(())
    }

    /// Ends the group: hands its sorted rows to `out` and resets the
    /// former for the next group. When nothing spilled the buffer is
    /// sorted (or top-`limit` selected) in memory. Rows short of one
    /// batch are picked, to be gathered with the rest of `out`'s
    /// selection; a group of a batch or more — a full sort's one group —
    /// is gathered straight from the buffer in `batch_size` chunks, queued
    /// behind what `out` has picked. Otherwise the tail seals as the last
    /// run, runs reduce to the merge fan-in, and the final streaming merge
    /// — itself one pass — is queued behind what `out` has picked.
    pub(crate) fn finish(
        &mut self,
        batch_size: usize,
        out: &mut SortedOut,
        rec: &mut ExecRecord,
    ) -> Result<()> {
        if self.extents.is_empty() {
            let perm = self.buf.ordered(self.limit, &mut rec.stats.sort);
            rec.stats.io.sort_rows += perm.len() as u64;
            if perm.len() < batch_size {
                self.buf.pick_into(&perm, &mut out.picked);
            } else {
                out.flush(batch_size)?;
                for chunk in perm.chunks(batch_size) {
                    out.queue.push_back(Sorted::Batch(self.buf.gather(chunk)?));
                }
            }
        } else {
            if !self.buf.is_empty() {
                self.seal(rec)?;
            }
            let mut file = std::mem::take(&mut self.file);
            let extents = reduce_to_fan_in(&mut file, std::mem::take(&mut self.extents), rec)?;
            rec.mark(|s| &mut s.spill.merge_passes, "spill", "spill.merge_pass");
            let merge = RunMerge::new(&file, &extents, &mut rec.stats.io)?;
            out.flush(batch_size)?;
            out.queue
                .push_back(Sorted::Spilled(SpilledSort { file, merge }));
        }
        self.buf.clear();
        self.bytes = 0;
        self.next_seq = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sortkernel::SortKeys;
    use fto_common::{DataType, Direction, Row, Value};

    const TYPES: [DataType; 2] = [DataType::Int, DataType::Str];

    fn row(k: i64, v: &str) -> Row {
        vec![Value::Int(k), Value::Str(v.into())].into_boxed_slice()
    }

    fn input(n: i64) -> Vec<Row> {
        (0..n).map(|i| row(i % 7, &format!("row-{i}"))).collect()
    }

    /// Sorts `input(n)`, fed in 64-row batches, through a former.
    fn drive(budget: usize, keys: &SortKeys, n: i64) -> (Vec<Row>, ExecStats) {
        let mut rec = ExecRecord::default();
        let mut former = RunFormer::new(budget, None);
        let mut arena = KeyArena::default();
        for piece in input(n).chunks(64) {
            let batch = Batch::from_typed_rows(&TYPES, piece).unwrap();
            arena.encode(&batch, keys);
            former
                .push_rows(&batch, 0..batch.len(), &arena, &mut rec)
                .unwrap();
        }
        let mut sorted = SortedOut::default();
        former.finish(50, &mut sorted, &mut rec).unwrap();
        sorted.flush(50).unwrap();
        let mut out = Vec::new();
        while let Some(b) = sorted.next_batch(50, &mut rec.stats).unwrap() {
            b.append_rows_to(&mut out);
        }
        (out, rec.stats)
    }

    #[test]
    fn spilled_sort_matches_in_memory_both_paths() {
        // "Both paths": keyed, and keyless (ordered by seq alone, so the
        // output is the input order at every budget).
        let keyed: SortKeys = vec![(0, Direction::Desc), (1, Direction::Asc)];
        for keys in [keyed, SortKeys::new()] {
            let (unbounded, stats0) = drive(usize::MAX, &keys, 500);
            assert_eq!(stats0.io.spill_pages_written, 0);
            assert_eq!(stats0.spill, crate::SpillStats::default());
            if keys.is_empty() {
                assert_eq!(unbounded, input(500), "keyless sort must keep input order");
            }
            for budget in [1usize, 512, 4096, 1 << 20] {
                let (got, ExecStats { io, .. }) = drive(budget, &keys, 500);
                assert_eq!(got, unbounded, "keys={keys:?} budget={budget}");
                assert_eq!(io.sort_rows, 500, "sort_rows must match unbounded");
                if budget < 4096 {
                    assert!(io.spill_pages_written > 0, "budget={budget} must spill");
                    assert!(io.spill_pages_read > 0, "budget={budget} must read back");
                }
            }
        }
    }

    #[test]
    fn tiny_budget_forms_many_runs_and_multi_passes() {
        let keys: SortKeys = vec![(0, Direction::Desc), (1, Direction::Asc)];
        let (out, stats) = drive(1, &keys, 200);
        assert_eq!(out.len(), 200);
        // One row per run: 200 runs need ceil(log_8 200) = 3 passes.
        assert_eq!(
            (stats.spill.runs_formed, stats.spill.merge_passes),
            (200, 3)
        );
        assert!(stats.io.spill_pages_written > 0 && stats.io.spill_pages_read > 0);
        // Every key is ordered once, in the run it seals into — an Int, a
        // `row-{i}` string (tag, text, terminator) and the 8-byte tag — and
        // the merges encode nothing.
        let strings = 10 * (3 + 5) + 90 * (3 + 6) + 100 * (3 + 7);
        assert_eq!(stats.sort.key_bytes, 200 * (11 + 8) + strings);
    }

    #[test]
    fn corrupt_run_group_headers_are_errors_not_panics() {
        // One well-formed two-row group, as `append_run_group` frames it.
        let keys: SortKeys = vec![(0, Direction::Asc)];
        let mut buf = SortBuf::default();
        let two = Batch::from_typed_rows(&TYPES, &input(2)).unwrap();
        let mut arena = KeyArena::default();
        arena.encode(&two, &keys);
        buf.add_batch(&two);
        for i in 0..2 {
            buf.push(i, arena.get(i), 5 + i as u64);
        }
        let run = buf
            .run(&buf.ordered(None, &mut Default::default()))
            .unwrap();
        let (mut file, mut payload) = (SpillFile::new(), Vec::new());
        append_run_group(&mut file, &mut payload, &run, &mut IoStats::new());
        let rec = payload;
        let back = parse_run_group(&rec).unwrap();
        assert_eq!(back.seqs, [5, 6]);
        assert_eq!(back.keys.get(1), run.keys.get(1));
        assert_eq!(back.batch.columns(), run.batch.columns());
        // Header layout: [n:4][seqs:16][key_total:4][ends:8][keys:38].
        let header = 4 + 16 + 4 + 8 + 2 * (11 + 8);
        // Truncated inside the count, the tags, the key total, the key
        // end offsets, and the key bytes.
        for cut in [0, 3, 4, 19, 22, 27, 31, 32, header - 1] {
            let err = parse_run_group(&rec[..cut]).unwrap_err();
            assert!(matches!(err, FtoError::Exec(_)), "cut {cut}: {err:?}");
        }
        let patch = |at: usize, v: u32| {
            let mut bad = rec.clone();
            bad[at..at + 4].copy_from_slice(&v.to_le_bytes());
            parse_run_group(&bad)
        };
        // A key end past key_total, ends running backwards, a key too
        // short to hold its tag, a zero row count.
        assert!(patch(28, 39).is_err());
        assert!(patch(24, 40).is_err());
        assert!(patch(24, 7).is_err());
        assert!(patch(0, 0).is_err());
    }
}
