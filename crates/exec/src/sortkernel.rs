//! The sort kernel: the one permutation kernel the order enforcer of the
//! streaming executor — the only code that sorts — runs on.
//!
//! # Stability and tie-order contract
//!
//! Every entry point implements the same total order: rows compare by
//! the resolved sort keys (each column through [`Direction::apply`],
//! NULLs per `Value::total_cmp`), and rows whose keys compare equal
//! stay in **input order** — the output is what a stable sort produces,
//! the query-level oracle's `Value`-comparator sort included, which the
//! kernel's tests hold it to bit for bit. That is the determinism anchor
//! of the engine: every batch size, budget and thread count returns the
//! rows of the serial, unbudgeted run, and an external sort reproduces
//! the in-memory one *only because* every run is ordered by
//! `(key, sequence tag)` and merges break key ties by the tags.
//!
//! # The permutation kernel
//!
//! The executor never sorts rows. A [`SortBuf`] holds the column batches
//! it was handed (their `Arc`s, as they arrived), one `(batch, row)`
//! reference per buffered row, and the rows' [`fto_common::sortkey`]
//! encodings in one [`KeyArena`] — order-preserving byte strings whose
//! `memcmp` decides exactly as the `Value` comparator does. Sorting —
//! one routine, [`order`], over any arena of keys: a `SortBuf`'s, or an
//! input batch's own when a segmented sort orders a group in place —
//! orders a **permutation** of row indices by `(key bytes, index)`:
//! rows are always in tag order among equal keys, so the index is the
//! input-position tiebreak and the comparison sort may be unstable. When every key has one width (numerics, dates, bools, no
//! NULLs) a byte-wise MSB radix sort distributes instead of comparing.
//! Payload moves once, in [`Batch::gather_multi`], per output batch. A [`Run`] —
//! rows in order with their keys and tags — is what a spilled run group
//! decodes to; [`least_head`] is the K-way merge step over them.
//!
//! # Counters
//!
//! The kernel owns no counter. [`SortStats`] (key bytes encoded,
//! comparisons made), [`SpillStats`] and [`SegmentStats`] are plain
//! fields of the [`ExecStats`](crate::metrics::ExecStats) stream that
//! every [`Operator`](crate::stream::Operator) call threads, next to the
//! [`IoStats`](fto_storage::IoStats) it has always carried: the enforcer
//! adds into the stream it was handed, and the entry point that runs below
//! any operator — [`SortBuf::ordered`] — takes the `&mut SortStats` to add
//! into, the way [`least_head`] takes `&mut cmps`. So a query's counts are
//! its own whatever else the process is running. Until PR 18 they were five process-wide atomics that
//! sessions snapshotted around each execution, and a 20 000-row spilling
//! sort (`order by dept, salary desc` under 64 KiB) that alone reported
//! 506 668 key bytes / 414 687 comparisons / 41 runs / 2 merge passes
//! reported exactly double, 1 013 336 / 829 374 / 82 / 4, from *each* of
//! two sessions running it at once —
//! `tests/observability.rs::concurrent_sessions_report_their_own_work`
//! holds the rule.

use fto_common::column::{encode_batch_keys_arena, encode_batch_keys_lanes, Batch, LANE_BYTES};
use fto_common::{Direction, FtoError, Result};
use fto_expr::RowLayout;
use fto_order::OrderSpec;

/// Sort-kernel work of one execution (or of one operator's share of it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Normalized-key bytes ordered (decorations, including seq tags).
    pub key_bytes: u64,
    /// Key comparisons performed by sorts, selections, and run merges
    /// (byte-string comparisons; radix-distributed rows add none).
    pub comparisons: u64,
}

/// External-operator work of one execution — the "actual" side of the
/// cost model's spill estimate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Sorted runs (or hash partitions) spilled to a spill file.
    pub runs_formed: u64,
    /// External merge passes performed (`0` for an in-memory sort, `1`
    /// when the spilled runs fit one merge fan-in, more as the input
    /// grows — the executor's counterpart of `cost::sort_spill_passes`).
    pub merge_passes: u64,
}

/// Segmented (partial) sort work of one execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Prefix groups formed (each one is sorted independently on the
    /// residual suffix keys).
    pub groups_formed: u64,
}

/// Resolved sort keys: (position in the row, direction) per key column.
pub type SortKeys = Vec<(usize, Direction)>;

/// Resolves an [`OrderSpec`]'s columns to row positions under `layout`.
pub fn resolve_keys(spec: &OrderSpec, layout: &RowLayout) -> Result<SortKeys> {
    spec.keys()
        .iter()
        .map(|k| {
            layout.position(k.col).map(|p| (p, k.dir)).ok_or_else(|| {
                FtoError::internal(format!("sort column {} missing from layout", k.col))
            })
        })
        .collect()
}

/// Encoded sort keys of a row sequence in one arena: row `i`'s key is
/// `bytes[offsets[i]..offsets[i + 1]]`.
#[derive(Debug)]
pub(crate) struct KeyArena {
    bytes: Vec<u8>,
    offsets: Vec<usize>,
}

impl Default for KeyArena {
    fn default() -> KeyArena {
        KeyArena {
            bytes: Vec::new(),
            offsets: vec![0],
        }
    }
}

impl KeyArena {
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }

    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub(crate) fn push(&mut self, key: &[u8]) {
        self.bytes.extend_from_slice(key);
        self.offsets.push(self.bytes.len());
    }

    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.offsets.truncate(1);
    }

    /// Replaces the arena's keys with `batch`'s rows' keys under `keys`.
    pub(crate) fn encode(&mut self, batch: &Batch, keys: &[(usize, Direction)]) {
        encode_batch_keys_arena(batch, keys, &mut self.bytes, &mut self.offsets);
    }
}

/// The grouping keys of one batch, one per row, as the group table reads
/// them: each key's codec bytes zero-padded to [`LANE_BYTES`] — two `u64`
/// lanes holding the whole key when it is that short, its first 16 bytes
/// otherwise. A batch whose keys all fit is written straight into the
/// lanes from its key columns, with each key's length; any other encodes
/// to the arena, and its lanes are read off it.
#[derive(Default)]
pub(crate) struct GroupKeys {
    lanes: Vec<[u8; LANE_BYTES]>,
    /// Each key's length when the lanes hold every key; else empty.
    lens: Vec<u8>,
    /// Every key when some may be longer than the lanes; else empty.
    arena: KeyArena,
}

impl GroupKeys {
    /// Replaces the keys with `batch`'s rows' keys under `keys`.
    pub(crate) fn encode(&mut self, batch: &Batch, keys: &[(usize, Direction)]) {
        self.arena.clear();
        if encode_batch_keys_lanes(batch, keys, &mut self.lanes, &mut self.lens) {
            return;
        }
        self.arena.encode(batch, keys);
        self.read_arena();
    }

    /// The keys an arena holds.
    #[cfg(test)]
    pub(crate) fn from_arena(arena: KeyArena) -> GroupKeys {
        let mut keys = GroupKeys {
            arena,
            ..GroupKeys::default()
        };
        keys.read_arena();
        keys
    }

    /// Reads every key's lanes off the arena.
    fn read_arena(&mut self) {
        for i in 0..self.arena.len() {
            let key = self.arena.get(i);
            let mut lanes = [0; LANE_BYTES];
            let n = key.len().min(LANE_BYTES);
            lanes[..n].copy_from_slice(&key[..n]);
            self.lanes.push(lanes);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Row `i`'s lanes: its key's first 16 bytes, zero-padded, as two
    /// little-endian words.
    #[inline(always)]
    pub(crate) fn lanes(&self, i: usize) -> [u64; 2] {
        let v = u128::from_le_bytes(self.lanes[i]);
        [v as u64, (v >> 64) as u64]
    }

    /// Row `i`'s key: its codec bytes.
    #[inline(always)]
    pub(crate) fn get(&self, i: usize) -> &[u8] {
        match self.lens.get(i) {
            Some(&n) => &self.lanes[i][..usize::from(n)],
            None => self.arena.get(i),
        }
    }
}

/// Rows in `(key, seq)` order with the keys and sequence tags that order
/// them. Tags are unique across all runs of one merge and consistent with
/// the serial input order the merge reproduces.
#[derive(Debug)]
pub(crate) struct Run {
    pub(crate) batch: Batch,
    pub(crate) keys: KeyArena,
    pub(crate) seqs: Vec<u64>,
}

/// Rows of one stream picked out of the batches they arrived in, in
/// order: the batches (their `Arc`s) and one `(batch, row)` reference per
/// picked row. Payload moves only when the selection is gathered.
#[derive(Default)]
pub(crate) struct Selection {
    sources: Vec<Batch>,
    rows: Vec<(u32, u32)>,
}

impl Selection {
    /// Empties the selection, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.sources.clear();
        self.rows.clear();
    }

    /// Makes `batch` the next source of rows to pick.
    pub(crate) fn add_source(&mut self, batch: &Batch) {
        self.sources.push(batch.clone());
    }

    /// Picks rows `rows` of source `source`, in that order.
    pub(crate) fn pick(&mut self, source: u32, rows: &[u32]) {
        self.rows.extend(rows.iter().map(|&i| (source, i)));
    }

    /// Picks the rows at `perm` of `other`, in that order.
    pub(crate) fn pick_from(&mut self, other: &Selection, perm: &[u32]) {
        let base = self.sources.len() as u32;
        self.sources.extend(other.sources.iter().cloned());
        let moved = perm.iter().map(|&p| other.rows[p as usize]);
        self.rows.extend(moved.map(|(b, i)| (base + b, i)));
    }

    /// Gathers the picked rows at `perm`, in that order, as one batch.
    pub(crate) fn gather(&self, perm: &[u32]) -> Result<Batch> {
        let sources: Vec<&Batch> = self.sources.iter().collect();
        let sel: Vec<(u32, u32)> = perm.iter().map(|&p| self.rows[p as usize]).collect();
        Batch::gather_multi(&sources, &sel)
    }

    /// Gathers the picked rows in batches of at most `batch_size` rows,
    /// handing each to `emit`, and forgets them. The sources stay, so
    /// rows of them can still be picked.
    pub(crate) fn take_batches(
        &mut self,
        batch_size: usize,
        mut emit: impl FnMut(Batch),
    ) -> Result<()> {
        let sources: Vec<&Batch> = self.sources.iter().collect();
        for chunk in self.rows.chunks(batch_size) {
            emit(Batch::gather_multi(&sources, chunk)?);
        }
        self.rows.clear();
        Ok(())
    }
}

/// Rows awaiting an order: a [`Selection`] of the buffered rows, and per
/// row its encoded key and sequence tag. Rows must be pushed so that
/// equal keys arrive in tag order (input order does; so does a [`Run`]
/// followed by later input) — the sorts break ties by buffer index.
#[derive(Default)]
pub(crate) struct SortBuf {
    rows: Selection,
    keys: KeyArena,
    seqs: Vec<u64>,
}

impl SortBuf {
    pub(crate) fn len(&self) -> usize {
        self.seqs.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Empties the buffer, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.keys.clear();
        self.seqs.clear();
    }

    /// Makes `batch` the source of the rows pushed next.
    pub(crate) fn add_batch(&mut self, batch: &Batch) {
        self.rows.add_source(batch);
    }

    /// Buffers row `i` of the batch added last.
    pub(crate) fn push(&mut self, i: usize, key: &[u8], seq: u64) {
        let source = self.rows.sources.len() as u32 - 1;
        self.rows.rows.push((source, i as u32));
        self.keys.push(key);
        self.seqs.push(seq);
    }

    /// Buffers a run's rows (already in `(key, seq)` order).
    pub(crate) fn push_run(&mut self, run: &Run) {
        self.add_batch(&run.batch);
        for (i, &seq) in run.seqs.iter().enumerate() {
            self.push(i, run.keys.get(i), seq);
        }
    }

    /// The buffer's indices in `(key, tag)` order — the stable sort — cut
    /// to the first `limit`, which are selected before they are sorted.
    /// Adds what it ordered and compared to `stats`.
    pub(crate) fn ordered(&self, limit: Option<usize>, stats: &mut SortStats) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..self.len() as u32).collect();
        order(&self.keys, &mut perm, limit, stats);
        perm
    }

    /// Gathers the rows at `perm`, in that order, as one batch.
    pub(crate) fn gather(&self, perm: &[u32]) -> Result<Batch> {
        self.rows.gather(perm)
    }

    /// Picks the buffered rows at `perm`, in that order, into `out`.
    pub(crate) fn pick_into(&self, perm: &[u32], out: &mut Selection) {
        out.pick_from(&self.rows, perm);
    }

    /// The rows at `perm` with their keys and tags — a [`Run`] when `perm`
    /// is (a slice of) [`Self::ordered`].
    pub(crate) fn run(&self, perm: &[u32]) -> Result<Run> {
        let mut keys = KeyArena::default();
        for &p in perm {
            keys.push(self.keys.get(p as usize));
        }
        Ok(Run {
            batch: self.rows.gather(perm)?,
            keys,
            seqs: perm.iter().map(|&p| self.seqs[p as usize]).collect(),
        })
    }
}

/// Orders `perm` — indices of rows whose keys `keys` holds, ascending —
/// by `(key, index)`, the stable sort, cut to the first `limit`, which
/// are selected before they are sorted: the one ordering routine of the
/// executor. Adds what it ordered and compared to `stats`.
pub(crate) fn order(
    keys: &KeyArena,
    perm: &mut Vec<u32>,
    limit: Option<usize>,
    stats: &mut SortStats,
) {
    // What is ordered: every key plus its 8-byte tag.
    let ordered: usize = perm.iter().map(|&i| keys.get(i as usize).len() + 8).sum();
    let mut cmps = 0u64;
    let mut by_key = |a: &u32, b: &u32| {
        cmps += 1;
        let (ka, kb) = (keys.get(*a as usize), keys.get(*b as usize));
        ka.cmp(kb).then(a.cmp(b))
    };
    if let Some(n) = limit.filter(|&n| n < perm.len()) {
        if n > 0 {
            perm.select_nth_unstable_by(n - 1, &mut by_key);
        }
        perm.truncate(n);
    }
    let width = perm.first().map(|&i| keys.get(i as usize).len());
    let fixed = perm.len() >= RADIX_CUTOFF
        && perm
            .iter()
            .all(|&i| Some(keys.get(i as usize).len()) == width);
    match width {
        Some(w) if fixed => radix_sort(keys, perm, &mut Vec::new(), 0, w, &mut cmps),
        _ => perm.sort_unstable_by(by_key),
    }
    stats.key_bytes += ordered as u64;
    stats.comparisons += cmps;
}

/// Below this many elements a comparison sort beats radix distribution.
const RADIX_CUTOFF: usize = 64;

/// MSB radix sort of `perm` on byte `d..w` of fixed-width keys: distribute
/// on byte `d`, recurse per bucket. Small buckets fall back to a
/// comparison sort of the remaining suffix; a byte every key shares
/// (common — the leading type tag rarely varies) is skipped without
/// distributing. Keys equal through byte `w` order by index.
fn radix_sort(
    keys: &KeyArena,
    perm: &mut [u32],
    scratch: &mut Vec<u32>,
    mut d: usize,
    w: usize,
    cmps: &mut u64,
) {
    let mut counts = [0usize; 256];
    loop {
        if perm.len() < RADIX_CUTOFF || d >= w {
            perm.sort_unstable_by(|&a, &b| {
                *cmps += 1;
                keys.get(a as usize)[d..]
                    .cmp(&keys.get(b as usize)[d..])
                    .then(a.cmp(&b))
            });
            return;
        }
        counts.fill(0);
        for &i in perm.iter() {
            counts[keys.get(i as usize)[d] as usize] += 1;
        }
        if !counts.contains(&perm.len()) {
            break;
        }
        d += 1;
    }
    scratch.clear();
    scratch.extend_from_slice(perm);
    let mut next = [0usize; 256];
    let mut at = 0;
    for (b, &c) in counts.iter().enumerate() {
        next[b] = at;
        at += c;
    }
    for &i in scratch.iter() {
        let b = keys.get(i as usize)[d] as usize;
        perm[next[b]] = i;
        next[b] += 1;
    }
    let mut lo = 0;
    for &c in &counts {
        if c > 1 {
            radix_sort(keys, &mut perm[lo..lo + c], scratch, d + 1, w, cmps);
        }
        lo += c;
    }
}

/// The K-way merge step: which of `heads` is least by `(key, seq)`, or
/// `None` when every run is drained. Adds its comparisons to `cmps`.
pub(crate) fn least_head<'a>(
    heads: impl Iterator<Item = Option<(&'a [u8], u64)>>,
    cmps: &mut u64,
) -> Option<usize> {
    let mut best: Option<(usize, (&[u8], u64))> = None;
    for (k, head) in heads.enumerate() {
        let Some(head) = head else { continue };
        best = match best {
            Some(b) => {
                *cmps += 1;
                Some(if head < b.1 { (k, head) } else { b })
            }
            None => Some((k, head)),
        };
    }
    best.map(|(k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::sort_rows;
    use fto_common::{ColId, DataType, Row, Value};
    use fto_order::SortKey;

    /// The oracle's stable sort of `rows`, cut to the first `limit`: what
    /// the kernel must return.
    fn reference(rows: &[Row], keys: &SortKeys, limit: Option<usize>) -> Vec<Row> {
        let mut sorted = rows.to_vec();
        sort_rows(&mut sorted, keys);
        sorted.truncate(limit.unwrap_or(sorted.len()));
        sorted
    }

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    fn keys_from(cols: &[(usize, Direction)]) -> SortKeys {
        cols.to_vec()
    }

    /// The batch of two-column `rows`: a key column of the one type its
    /// values have (`Int` when it holds none) and an `Int` payload.
    fn batch_of(rows: &[Row]) -> Batch {
        let key = rows.iter().find_map(|r| r[0].data_type());
        let types = [key.unwrap_or(DataType::Int), DataType::Int];
        Batch::from_typed_rows(&types, rows).unwrap()
    }

    /// Buffers every row of `batch` under `keys`, tagged from `seqs`.
    fn push_batch(
        buf: &mut SortBuf,
        batch: &Batch,
        keys: &SortKeys,
        seqs: impl Iterator<Item = u64>,
    ) {
        let mut arena = KeyArena::default();
        arena.encode(batch, keys);
        buf.add_batch(batch);
        for (i, seq) in seqs.take(batch.len()).enumerate() {
            buf.push(i, arena.get(i), seq);
        }
    }

    /// `rows` tagged `seqs`, ordered by the permutation kernel into a run
    /// (cut to `limit`) — what a sealed spill run is.
    fn run_of(
        rows: &[Row],
        seqs: impl Iterator<Item = u64>,
        keys: &SortKeys,
        limit: Option<usize>,
    ) -> Run {
        let mut buf = SortBuf::default();
        push_batch(&mut buf, &batch_of(rows), keys, seqs);
        buf.run(&buf.ordered(limit, &mut SortStats::default()))
            .unwrap()
    }

    fn rows_of(batch: &Batch) -> Vec<Row> {
        let mut rows = Vec::new();
        batch.append_rows_to(&mut rows);
        rows
    }

    /// The kernel's stable sort of `rows`, as rows.
    fn kernel_sort(rows: &[Row], keys: &SortKeys) -> Vec<Row> {
        rows_of(&run_of(rows, 0.., keys, None).batch)
    }

    /// Steps [`least_head`] over `runs` until every one is drained: the
    /// merged rows and the comparisons the steps made.
    fn merged(runs: &[Run]) -> (Vec<Row>, u64) {
        let (mut at, mut cmps) = (vec![0usize; runs.len()], 0u64);
        let mut sel = Vec::new();
        loop {
            let heads = runs
                .iter()
                .zip(&at)
                .map(|(r, &i)| (i < r.seqs.len()).then(|| (r.keys.get(i), r.seqs[i])));
            let Some(k) = least_head(heads, &mut cmps) else {
                break;
            };
            sel.push((k as u32, at[k] as u32));
            at[k] += 1;
        }
        let sources: Vec<&Batch> = runs.iter().map(|r| &r.batch).collect();
        (rows_of(&Batch::gather_multi(&sources, &sel).unwrap()), cmps)
    }

    /// Runs over `parts` contiguous pieces of `input`, each tagged with its
    /// rows' input positions — the runs an external sort seals.
    fn contiguous_runs(input: &[Row], parts: usize, keys: &SortKeys) -> Vec<Run> {
        let mut base = 0u64;
        input
            .chunks(input.len().div_ceil(parts))
            .map(|piece| {
                let run = run_of(piece, base.., keys, None);
                base += piece.len() as u64;
                run
            })
            .collect()
    }

    fn spec_desc_asc() -> (OrderSpec, RowLayout) {
        let spec: OrderSpec = [
            SortKey {
                col: ColId(1),
                dir: Direction::Desc,
            },
            SortKey {
                col: ColId(0),
                dir: Direction::Asc,
            },
        ]
        .into_iter()
        .collect();
        (spec, RowLayout::new(vec![ColId(0), ColId(1)]))
    }

    #[test]
    fn resolve_and_sort_matches_naive_stable_sort() {
        let (spec, layout) = spec_desc_asc();
        let keys = resolve_keys(&spec, &layout).unwrap();
        let mut rows: Vec<Row> = (0..200).map(|i| row(&[i % 7, i % 3])).collect();
        let mut expected = rows.clone();
        expected.sort_by(|a, b| b[1].total_cmp(&a[1]).then_with(|| a[0].total_cmp(&b[0])));
        assert_eq!(kernel_sort(&rows, &keys), expected);
        sort_rows(&mut rows, &keys);
        assert_eq!(rows, expected);
    }

    #[test]
    fn sort_is_stable_on_full_ties() {
        // Key column is constant; payload column must keep input order.
        let keys = keys_from(&[(0, Direction::Asc)]);
        let mut rows: Vec<Row> = (0..50).map(|i| row(&[7, i])).collect();
        let expected = rows.clone();
        assert_eq!(kernel_sort(&rows, &keys), expected);
        sort_rows(&mut rows, &keys);
        assert_eq!(rows, expected, "stable sort must preserve tie order");
    }

    #[test]
    fn empty_keys_leave_input_untouched() {
        let mut rows: Vec<Row> = vec![row(&[3, 0]), row(&[1, 0]), row(&[2, 0])];
        let expected = rows.clone();
        assert_eq!(kernel_sort(&rows, &Vec::new()), expected);
        sort_rows(&mut rows, &Vec::new());
        assert_eq!(rows, expected);
    }

    #[test]
    fn top_n_equals_stable_sort_prefix_including_boundary_ties() {
        let keys = keys_from(&[(0, Direction::Asc)]);
        // Many ties across the n boundary; payload distinguishes rows.
        let rows: Vec<Row> = (0..40).map(|i| row(&[i % 4, i])).collect();
        for n in [0usize, 1, 5, 10, 11, 39, 40, 100] {
            let want = reference(&rows, &keys, Some(n));
            let got = rows_of(&run_of(&rows, 0.., &keys, Some(n)).batch);
            assert_eq!(got, want, "kernel n={n}");
        }
    }

    #[test]
    fn merge_of_contiguous_runs_reproduces_serial_stable_sort() {
        let keys = keys_from(&[(0, Direction::Desc)]);
        let input: Vec<Row> = (0..120).map(|i| row(&[(i * 13) % 5, i])).collect();
        let serial = reference(&input, &keys, None);
        for parts in [1usize, 2, 3, 4, 5] {
            let runs = contiguous_runs(&input, parts, &keys);
            assert_eq!(merged(&runs).0, serial, "parts={parts}");
        }
    }

    /// One row set per key type, together exercising every codec branch:
    /// ints, doubles (NaN and both zeros among them), strings of varying
    /// length, dates, bools — each with NULLs and heavy ties.
    fn mixed_rows(n: usize) -> Vec<Vec<Row>> {
        let mut rng = fto_common::Rng::new(0xfeed);
        (0..5)
            .map(|kind| {
                (0..n)
                    .map(|i| {
                        let key: Value = match (rng.range_usize(0, 6), kind) {
                            (0, _) => Value::Null,
                            (_, 0) => Value::Int(rng.range_i64(-50, 50)),
                            (1, 1) => Value::Double([f64::NAN, -0.0, 0.0][i % 3]),
                            (_, 1) => Value::Double(rng.range_f64(-50.0, 50.0)),
                            (_, 2) => Value::str(format!("s{}", rng.range_usize(0, 40))),
                            (_, 3) => Value::Date(rng.range_i32(0, 100)),
                            _ => Value::Bool(rng.bool()),
                        };
                        [key, Value::Int(i as i64)].into_iter().collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn codec_sort_matches_legacy_sort_on_mixed_shapes() {
        for dir in [Direction::Asc, Direction::Desc] {
            let keys = keys_from(&[(0, dir)]);
            for rows in mixed_rows(500) {
                let want = reference(&rows, &keys, None);
                assert_eq!(kernel_sort(&rows, &keys), want, "dir={dir:?}");
            }
        }
    }

    #[test]
    fn codec_sort_takes_radix_path_on_fixed_width_keys() {
        // All-Int composite keys are fixed width (11 bytes per column),
        // so this drives the MSB radix path; the result must still equal
        // the oracle's stable sort — also on a selected (no longer
        // index-ordered) top-N prefix.
        let keys = keys_from(&[(0, Direction::Desc), (1, Direction::Asc)]);
        let mut rng = fto_common::Rng::new(3);
        let rows: Vec<Row> = (0..4096)
            .map(|_| row(&[rng.range_i64(-8, 8), rng.range_i64(0, 4)]))
            .collect();
        let want = reference(&rows, &keys, None);
        assert_eq!(kernel_sort(&rows, &keys), want);
        let top = rows_of(&run_of(&rows, 0.., &keys, Some(1500)).batch);
        assert_eq!(top, want[..1500]);
    }

    #[test]
    fn codec_top_n_matches_legacy_top_n() {
        let keys = keys_from(&[(0, Direction::Asc)]);
        for rows in mixed_rows(300) {
            for n in [0usize, 1, 7, 299, 300, 400] {
                assert_eq!(
                    rows_of(&run_of(&rows, 0.., &keys, Some(n)).batch),
                    reference(&rows, &keys, Some(n)),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn codec_runs_merge_bit_identically_to_legacy() {
        let keys = keys_from(&[(0, Direction::Asc)]);
        for input in mixed_rows(240) {
            let serial = reference(&input, &keys, None);
            for parts in [1usize, 2, 3, 5] {
                let runs = contiguous_runs(&input, parts, &keys);
                assert_eq!(merged(&runs).0, serial, "parts={parts}");
            }
        }
    }

    #[test]
    fn stats_counters_accumulate() {
        // 100 rows under a one-Int key: 11 key bytes + the 8-byte tag per
        // row, exactly, and only into the stats handed in. Below 64 rows
        // the fixed-width keys are compared, above they are distributed
        // first (fewer comparisons than rows·log rows, never none here:
        // eleven values share each radix bucket).
        let keys = keys_from(&[(0, Direction::Asc)]);
        let rows: Vec<Row> = (0..100).map(|i| row(&[(i * 37) % 11, i])).collect();
        let mut buf = SortBuf::default();
        push_batch(&mut buf, &batch_of(&rows), &keys, 0..);
        let (mut stats, mut again) = (SortStats::default(), SortStats::default());
        let perm = buf.ordered(None, &mut stats);
        assert_eq!(stats.key_bytes, 100 * (11 + 8));
        assert!(stats.comparisons > 0, "ties within a bucket are compared");
        assert_eq!(buf.ordered(None, &mut again), perm);
        assert_eq!(again, stats, "the same sort counts the same work");
        // A merge step compares one head pair per row but the last run's
        // leftovers.
        let (rows, cmps) = merged(&contiguous_runs(&rows, 2, &keys));
        assert_eq!(rows.len(), 100);
        assert!((50..100).contains(&cmps), "{cmps}");
    }

    #[test]
    fn merge_handles_empty_and_unbalanced_runs() {
        let keys = keys_from(&[(0, Direction::Asc)]);
        let runs = vec![
            run_of(&[], 0.., &keys, None),
            run_of(&[row(&[1, 0]), row(&[3, 1])], 0.., &keys, None),
            run_of(&[row(&[2, 2])], 2.., &keys, None),
        ];
        let got: Vec<i64> = merged(&runs)
            .0
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn keyless_sorts_and_merges_keep_input_order_by_seq_alone() {
        // No key columns: every key is empty, so sort, top-n and merge
        // all reduce to "tag order" — the input order.
        let keys = SortKeys::new();
        let input: Vec<Row> = (0..200).map(|i| row(&[(i * 7) % 13, i])).collect();
        assert_eq!(kernel_sort(&input, &keys), input);
        assert_eq!(
            rows_of(&run_of(&input, 0.., &keys, Some(9)).batch),
            input[..9]
        );
        assert_eq!(merged(&contiguous_runs(&input, 7, &keys)).0, input);
    }

    #[test]
    fn gathered_batches_keep_the_declared_type() {
        // A gather keeps each column's declared type — with every slot
        // NULL, with none, with no slot at all — and carries a validity
        // bitmap exactly when a gathered slot is NULL, whatever its source
        // batches carried: the spill codec writes the representation.
        use DataType::{Double, Str};
        let rows: Vec<Row> = vec![
            [Value::Double(1.0), Value::Null].into_iter().collect(),
            [Value::Null, Value::Null].into_iter().collect(),
            [Value::Double(2.0), Value::Null].into_iter().collect(),
            [Value::Double(3.0), Value::str("x")].into_iter().collect(),
        ];
        let src = Batch::from_typed_rows(&[Double, Str], &rows).unwrap();
        for sel in [
            vec![0u32, 3],
            vec![0, 1, 2],
            vec![1],
            vec![3],
            vec![0, 1, 2, 3],
            vec![],
        ] {
            let pairs: Vec<(u32, u32)> = sel.iter().map(|&i| (0, i)).collect();
            let got = Batch::gather_multi(&[&src], &pairs).unwrap();
            let picked: Vec<Row> = sel.iter().map(|&i| rows[i as usize].clone()).collect();
            let want = Batch::from_typed_rows(&[Double, Str], &picked).unwrap();
            assert_eq!(got.columns(), want.columns(), "sel={sel:?}");
        }
        // Sources of one stream agree on their types; two that do not are
        // a typed error, not a value-by-value rebuild.
        let other = Batch::from_typed_rows(&[Str, Str], &[]).unwrap();
        let ints = batch_of(&[row(&[1, 2])]);
        assert_eq!(
            Batch::gather_multi(&[&other, &src], &[(1, 3)])
                .unwrap()
                .len(),
            1
        );
        let refused = Batch::gather_multi(&[&ints, &src], &[(0, 0), (1, 0)]);
        assert!(matches!(refused, Err(FtoError::Internal(_))), "{refused:?}");
    }
}
