//! Heap tables: typed column chunks with simulated fixed-size page
//! geometry.
//!
//! A heap stores its rows the way the executor reads them: as a list of
//! columnar [`Batch`]es of [`CHUNK_ROWS`] rows each (the last one may be
//! shorter), built once at load by a [`HeapLoader`]. Scans hand those
//! chunks out — whole, sliced or gathered — instead of transposing rows
//! per query. Page geometry is logical: row `rid` lives on page
//! `rid / rows_per_page` whatever its chunk.

use crate::io::PAGE_SIZE;
use fto_common::column::encode_batch_keys_arena;
use fto_common::{Batch, Column, DataType, Direction, FtoError, Result, Row, TableId};
use std::sync::Arc;

/// Rows per stored chunk: the executor's default batch size, so a
/// default-sized pull at a chunk boundary is one whole chunk.
const CHUNK_ROWS: usize = 1024;

/// An in-memory heap table with logical page geometry.
#[derive(Debug)]
pub struct HeapTable {
    table: TableId,
    /// The declared type of every column: what each chunk's columns are
    /// built as, whatever values (or NULLs) they hold.
    types: Vec<DataType>,
    /// Every chunk but the last holds exactly [`CHUNK_ROWS`] rows.
    chunks: Vec<Batch>,
    rows: usize,
    rows_per_page: u64,
}

impl HeapTable {
    /// The table this heap stores.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.types.len()
    }

    /// The declared column types.
    pub fn types(&self) -> &[DataType] {
        &self.types
    }

    /// Number of rows.
    pub fn row_count(&self) -> u64 {
        self.rows as u64
    }

    /// Number of logical pages occupied (at least one).
    pub fn page_count(&self) -> u64 {
        self.row_count().div_ceil(self.rows_per_page).max(1)
    }

    /// Rows stored per logical page.
    pub fn rows_per_page(&self) -> u64 {
        self.rows_per_page
    }

    /// The logical page holding row `rid`.
    pub fn page_of(&self, rid: usize) -> u64 {
        rid as u64 / self.rows_per_page
    }

    /// The stored chunks, in heap order.
    pub fn chunks(&self) -> &[Batch] {
        &self.chunks
    }

    /// Columns `ordinals` (each below [`HeapTable::arity`]) of rows
    /// `lo..hi`, in heap order. A range inside one chunk shares that
    /// chunk's columns (`Arc` clones, no copy): the whole chunk, or a view
    /// of it with the range selected. A range across chunks copies each
    /// row once, into one dense batch.
    pub fn columns(&self, lo: usize, hi: usize, ordinals: &[usize]) -> Result<Batch> {
        debug_assert!(lo <= hi && hi <= self.rows);
        if lo == hi {
            let types: Vec<DataType> = ordinals.iter().map(|&o| self.types[o]).collect();
            return Ok(Batch::empty(&types));
        }
        let mut parts = Vec::new();
        let mut at = lo;
        while at < hi {
            let chunk = &self.chunks[at / CHUNK_ROWS];
            let offset = at % CHUNK_ROWS;
            let len = (chunk.len() - offset).min(hi - at);
            parts.push(chunk.select(ordinals).slice(offset, len));
            at += len;
        }
        Batch::concat(&parts)
    }

    /// Columns `ordinals` (each below [`HeapTable::arity`]) of the rows
    /// named by `rids`, in that order (ids may repeat).
    pub fn gather_columns(&self, rids: &[usize], ordinals: &[usize]) -> Result<Vec<Column>> {
        let (sources, pairs) = self.gather_sources(rids);
        let column = |&o: &usize| match sources.is_empty() {
            true => Ok(Column::nulls(self.types[o], 0)),
            false => {
                let cols: Vec<&Column> = sources.iter().map(|b| b.column(o).as_ref()).collect();
                Column::gather_multi(&cols, &pairs)
            }
        };
        ordinals.iter().map(column).collect()
    }

    /// The chunks `rids` name, each once, and every rid as a
    /// `(source, slot)` pair into them.
    fn gather_sources(&self, rids: &[usize]) -> (Vec<&Batch>, Vec<(u32, u32)>) {
        // Only the chunks actually named become gather sources.
        let mut slot_of = vec![u32::MAX; self.chunks.len()];
        let mut sources: Vec<&Batch> = Vec::new();
        let pairs = rids
            .iter()
            .map(|&rid| {
                let slot = &mut slot_of[rid / CHUNK_ROWS];
                if *slot == u32::MAX {
                    *slot = sources.len() as u32;
                    sources.push(&self.chunks[rid / CHUNK_ROWS]);
                }
                (*slot, (rid % CHUNK_ROWS) as u32)
            })
            .collect();
        (sources, pairs)
    }

    /// Materializes row `rid` — for tests; the executor reads
    /// [`HeapTable::columns`] and [`HeapTable::gather_columns`].
    pub fn row(&self, rid: usize) -> Row {
        self.chunks[rid / CHUNK_ROWS].row(rid % CHUNK_ROWS)
    }

    /// Materializes every row in heap order (see [`HeapTable::row`]).
    pub fn to_rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.rows);
        for chunk in &self.chunks {
            chunk.append_rows_to(&mut out);
        }
        out
    }

    /// The normalized sort key of every row, in one arena: row `rid`'s
    /// key is `arena[offsets[rid]..offsets[rid + 1]]`. One buffer per
    /// row would, once dropped, leave a small hole beside every
    /// long-lived allocation made meanwhile for later query allocations
    /// to scatter into — measured at ~2x on the sorts' self time.
    pub(crate) fn encode_keys(&self, keys: &[(usize, Direction)]) -> (Vec<u8>, Vec<usize>) {
        let mut arena = Vec::new();
        let mut offsets = Vec::with_capacity(self.rows + 1);
        offsets.push(0);
        let (mut bytes, mut ends) = (Vec::new(), Vec::new());
        for chunk in &self.chunks {
            encode_batch_keys_arena(chunk, keys, &mut bytes, &mut ends);
            let base = arena.len();
            arena.extend_from_slice(&bytes);
            offsets.extend(ends[1..].iter().map(|&e| base + e));
        }
        (arena, offsets)
    }

    /// Reorders the heap by `keys` (stable: equal keys keep their load
    /// order). Rows already in key order — every generated table — are
    /// left exactly as loaded.
    pub(crate) fn cluster_by(&mut self, keys: &[(usize, Direction)]) -> Result<()> {
        let (arena, offsets) = self.encode_keys(keys);
        let enc = |rid: usize| &arena[offsets[rid]..offsets[rid + 1]];
        if (1..self.rows).all(|rid| enc(rid - 1) <= enc(rid)) {
            return Ok(());
        }
        let mut order: Vec<usize> = (0..self.rows).collect();
        order.sort_by(|&a, &b| enc(a).cmp(enc(b)));
        let every: Vec<usize> = (0..self.arity()).collect();
        let chunk = |rids: &[usize]| {
            let cols = self.gather_columns(rids, &every)?;
            Batch::from_columns_with_len(cols.into_iter().map(Arc::new).collect(), rids.len())
        };
        self.chunks = order.chunks(CHUNK_ROWS).map(chunk).collect::<Result<_>>()?;
        Ok(())
    }
}

/// Builds a [`HeapTable`] from pushed rows, sealing a chunk of columns —
/// each of its declared type, built in one pass — every [`CHUNK_ROWS`]
/// rows. At most one chunk of rows is alive at a time, so a load never
/// leaves a table's worth of freed row boxes behind for later allocations
/// to scatter into.
#[derive(Debug)]
pub struct HeapLoader {
    heap: HeapTable,
    pending: Vec<Row>,
}

impl HeapLoader {
    /// A loader for `table`, whose columns have the declared `types` and
    /// whose rows have a declared width of `row_width` bytes; page
    /// geometry is derived from [`PAGE_SIZE`].
    pub fn new(table: TableId, types: &[DataType], row_width: usize) -> HeapLoader {
        HeapLoader {
            heap: HeapTable {
                table,
                types: types.to_vec(),
                chunks: Vec::new(),
                rows: 0,
                rows_per_page: (PAGE_SIZE / row_width.max(1)).max(1) as u64,
            },
            pending: Vec::with_capacity(CHUNK_ROWS),
        }
    }

    /// The table being loaded.
    pub fn table(&self) -> TableId {
        self.heap.table
    }

    /// Appends a row; its row id is the number of rows pushed before it.
    /// A row of another arity, or one holding a non-NULL value of another
    /// type than its column declares (an `Int` in a `Double` column
    /// included: nothing is coerced), is refused with an
    /// [`FtoError::Catalog`].
    pub fn push(&mut self, row: Row) -> Result<()> {
        let table = self.heap.table;
        if row.len() != self.heap.arity() {
            return Err(FtoError::Catalog(format!(
                "row arity {} does not match table {table} arity {}",
                row.len(),
                self.heap.arity()
            )));
        }
        for (ordinal, (&ty, v)) in self.heap.types.iter().zip(row.iter()).enumerate() {
            if v.data_type().is_some_and(|found| found != ty) {
                return Err(FtoError::Catalog(format!(
                    "table {table} column {ordinal} row {}: declared {ty}, found {v:?}",
                    self.heap.rows + self.pending.len()
                )));
            }
        }
        self.pending.push(row);
        if self.pending.len() == CHUNK_ROWS {
            self.seal()?;
        }
        Ok(())
    }

    fn seal(&mut self) -> Result<()> {
        self.heap.rows += self.pending.len();
        let chunk = Batch::from_typed_rows(&self.heap.types, &self.pending)?;
        self.heap.chunks.push(chunk);
        self.pending.clear();
        Ok(())
    }

    /// The loaded heap.
    pub fn finish(mut self) -> Result<HeapTable> {
        if !self.pending.is_empty() {
            self.seal()?;
        }
        Ok(self.heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_common::Value;

    fn int_heap(width: usize, n: i64) -> HeapTable {
        let mut l = HeapLoader::new(TableId(0), &[DataType::Int], width);
        for i in 0..n {
            l.push(vec![Value::Int(i)].into_boxed_slice()).unwrap();
        }
        l.finish().unwrap()
    }

    #[test]
    fn geometry() {
        // 100-byte rows: 40 rows per 4096-byte page.
        let h = int_heap(100, 100);
        assert_eq!(h.rows_per_page(), 40);
        assert_eq!(h.row_count(), 100);
        assert_eq!(h.page_count(), 3);
        assert_eq!(h.page_of(0), 0);
        assert_eq!(h.page_of(39), 0);
        assert_eq!(h.page_of(40), 1);
        assert_eq!(h.page_of(99), 2);
    }

    #[test]
    fn empty_heap_has_one_page() {
        let h = int_heap(8, 0);
        assert_eq!(h.page_count(), 1);
        assert_eq!(h.row_count(), 0);
        assert_eq!(h.gather_columns(&[], &[0]).unwrap().len(), 1);
        assert_eq!(h.columns(0, 0, &[0]).unwrap().arity(), 1);
        assert_eq!(h.columns(0, 0, &[]).unwrap().arity(), 0);
    }

    #[test]
    fn wide_rows_one_per_page() {
        assert_eq!(int_heap(10_000, 0).rows_per_page(), 1);
    }

    #[test]
    fn append_and_fetch() {
        let n = 2 * CHUNK_ROWS as i64 + 5;
        let h = int_heap(8, n);
        assert_eq!(h.table(), TableId(0));
        assert_eq!(h.chunks().len(), 3);
        assert_eq!(h.row(CHUNK_ROWS + 1)[0], Value::Int(CHUNK_ROWS as i64 + 1));
        assert_eq!(h.to_rows().len(), n as usize);
        let got = h
            .gather_columns(&[2 * CHUNK_ROWS + 4, 0, CHUNK_ROWS, 0], &[0])
            .unwrap();
        let keys: Vec<i64> = (0..4).map(|i| got[0].value(i).as_int().unwrap()).collect();
        assert_eq!(keys, vec![n - 1, 0, CHUNK_ROWS as i64, 0]);
        let span = h.columns(CHUNK_ROWS - 1, CHUNK_ROWS + 2, &[0]).unwrap();
        let keys: Vec<i64> = span
            .to_rows()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![1023, 1024, 1025]);
    }

    #[test]
    fn whole_chunk_pull_shares_the_stored_columns() {
        let h = int_heap(8, 2 * CHUNK_ROWS as i64);
        let pulled = h.columns(CHUNK_ROWS, 2 * CHUNK_ROWS, &[0]).unwrap();
        assert!(std::sync::Arc::ptr_eq(
            pulled.column(0),
            h.chunks()[1].column(0)
        ));
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let mut l = HeapLoader::new(TableId(3), &[DataType::Int; 2], 16);
        assert!(l.push(vec![Value::Int(1)].into_boxed_slice()).is_err());
    }

    #[test]
    fn a_value_of_another_type_than_declared_is_refused() {
        // Every declared type against every other kind of value, on the
        // first row and past a sealed chunk: a catalog error naming table,
        // column, row, both types — and the row is not half-loaded.
        use DataType::{Bool, Date, Double, Int, Str};
        let samples = [
            Value::Int(5),
            Value::Double(5.0),
            Value::str("5"),
            Value::Date(5),
            Value::Bool(true),
        ];
        for (ty, good) in [Int, Double, Str, Date, Bool].into_iter().zip(&samples) {
            for loaded in [0, CHUNK_ROWS + 3] {
                let mut l = HeapLoader::new(TableId(7), &[Int, ty], 16);
                let row = |v: &Value| vec![Value::Int(0), v.clone()].into_boxed_slice();
                for _ in 0..loaded {
                    l.push(row(good)).unwrap();
                }
                for bad in samples.iter().filter(|v| v.data_type() != Some(ty)) {
                    let err = l.push(row(bad)).unwrap_err();
                    let FtoError::Catalog(msg) = &err else {
                        panic!("{ty} column, {bad:?}: {err:?}");
                    };
                    let found = format!("found {bad:?}");
                    let at = format!("table {} column 1 row {loaded}:", TableId(7));
                    for part in [at, format!("declared {ty}"), found] {
                        assert!(msg.contains(&part), "{msg} lacks {part}");
                    }
                }
                l.push(row(&Value::Null)).unwrap();
                let h = l.finish().unwrap();
                assert_eq!(h.row_count() as usize, loaded + 1);
                let rows = h.to_rows();
                assert!(rows[..loaded].iter().all(|r| &r[1] == good));
                assert!(rows[loaded][1].is_null());
                let held: Vec<DataType> =
                    h.chunks().iter().map(|c| c.column(1).data_type()).collect();
                assert!(held.iter().all(|&t| t == ty), "{held:?}");
            }
        }
    }

    #[test]
    fn cluster_by_is_stable_and_skips_sorted_heaps() {
        let mut l = HeapLoader::new(TableId(0), &[DataType::Int; 2], 16);
        for (k, v) in [(2, 0), (1, 1), (2, 2), (1, 3)] {
            l.push(vec![Value::Int(k), Value::Int(v)].into_boxed_slice())
                .unwrap();
        }
        let mut h = l.finish().unwrap();
        h.cluster_by(&[(0, Direction::Asc)]).unwrap();
        let vs: Vec<i64> = h.to_rows().iter().map(|r| r[1].as_int().unwrap()).collect();
        assert_eq!(vs, vec![1, 3, 0, 2]);

        let mut sorted = int_heap(8, 10);
        let before = sorted.chunks()[0].column(0).clone();
        sorted.cluster_by(&[(0, Direction::Asc)]).unwrap();
        assert!(std::sync::Arc::ptr_eq(
            &before,
            sorted.chunks()[0].column(0)
        ));
    }
}
