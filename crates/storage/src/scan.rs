//! Batched scan cursors with incremental page accounting.
//!
//! The streaming executor pulls rows in batches; these cursors hold the
//! scan position between pulls and charge [`IoStats`] as pages are
//! actually touched, rather than charging a whole table or index up
//! front. That is what makes early termination (LIMIT, Top-N with a
//! selective prefix) cheaper in the simulated I/O model: pages after the
//! stopping point are never paid for.
//!
//! An index scan is a pair of positions into the index's rid vector
//! ([`OrderedIndex::rids`]), found once by
//! [`OrderedIndex::range_positions`] with the same typed comparator the
//! index nested-loop join probes with; no key is read per row.
//!
//! The cursors deliberately hold no reference to the table — callers pass
//! the [`HeapTable`] on every pull — so executor operators stay free of
//! borrow lifetimes.

use crate::heap::HeapTable;
use crate::index::{OrderedIndex, ENTRIES_PER_LEAF};
use crate::io::{IoStats, PageCursor};
use fto_common::{Batch, Result, Value};
use std::sync::Arc;

/// Splits `[lo, hi)` into `parts` deterministic contiguous chunks and
/// returns the bounds of chunk `part`, with every *interior* cut rounded
/// up to an absolute multiple of `align`. Chunks are balanced to within
/// one alignment unit, cover the range exactly, and never overlap — the
/// contract partitioned scans rely on so that P workers together touch
/// each page (or index leaf) exactly as often as one worker would.
pub fn partition_bounds(
    (lo, hi): (usize, usize),
    part: usize,
    parts: usize,
    align: usize,
) -> (usize, usize) {
    assert!(parts > 0 && part < parts, "partition {part} of {parts}");
    assert!(lo <= hi, "inverted range {lo}..{hi}");
    let align = align.max(1);
    let len = hi - lo;
    let cut = |k: usize| -> usize {
        if k == 0 {
            return lo;
        }
        if k == parts {
            return hi;
        }
        // Proportional cut, rounded up to the alignment boundary.
        let raw = lo + (len * k) / parts;
        (raw.div_ceil(align) * align).clamp(lo, hi)
    };
    (cut(part), cut(part + 1))
}

/// Position of an in-progress sequential heap scan, possibly restricted
/// to one page-aligned partition of the heap.
#[derive(Debug)]
pub struct HeapScanState {
    next_rid: usize,
    /// Exclusive upper bound; `usize::MAX` means "to the end of the heap".
    end_rid: usize,
    cursor: PageCursor,
}

impl Default for HeapScanState {
    fn default() -> Self {
        HeapScanState::new()
    }
}

impl HeapScanState {
    /// A scan positioned before the first row, covering the whole heap.
    pub fn new() -> HeapScanState {
        HeapScanState {
            next_rid: 0,
            end_rid: usize::MAX,
            cursor: PageCursor::new(),
        }
    }

    /// A scan over partition `part` of `parts`: the heap's page range is
    /// split into `parts` contiguous page-aligned chunks, and this cursor
    /// walks chunk `part`. Partitions are deterministic, disjoint, and
    /// cover every row; because cuts fall on page boundaries, the
    /// partitions together charge exactly the pages a full serial scan
    /// charges.
    pub fn partition(heap: &HeapTable, part: usize, parts: usize) -> HeapScanState {
        let pages = heap.page_count() as usize;
        let (lo_page, hi_page) = partition_bounds((0, pages), part, parts, 1);
        let rpp = heap.rows_per_page() as usize;
        let total = heap.row_count() as usize;
        HeapScanState {
            next_rid: (lo_page * rpp).min(total),
            end_rid: (hi_page * rpp).min(total),
            cursor: PageCursor::new(),
        }
    }

    /// True once every row has been returned.
    pub fn exhausted(&self, heap: &HeapTable) -> bool {
        self.next_rid >= (heap.row_count() as usize).min(self.end_rid)
    }

    /// Returns the next batch of at most `max_rows` rows (empty when the
    /// scan is exhausted), charging one sequential page per page boundary
    /// actually crossed. A scan run to completion therefore charges
    /// exactly [`HeapTable::page_count`] pages; a scan abandoned early
    /// charges only the pages behind the rows it produced.
    ///
    /// Pages and rows are charged row by row — the unit the page cursor
    /// sees must not depend on how the heap happens to chunk its
    /// columns, nor on which of them the caller reads — and columns
    /// `ordinals` of the rows then come out of the heap: a pull covering
    /// exactly one stored chunk shares its `Arc`s.
    pub fn next_columns(
        &mut self,
        heap: &HeapTable,
        ordinals: &[usize],
        max_rows: usize,
        io: &mut IoStats,
    ) -> Result<Batch> {
        let total = (heap.row_count() as usize).min(self.end_rid);
        let end = (self.next_rid + max_rows.max(1)).min(total);
        if self.next_rid >= end {
            return heap.columns(0, 0, ordinals);
        }
        for rid in self.next_rid..end {
            self.cursor.touch(heap.page_of(rid), io);
            io.rows_read += 1;
        }
        let batch = heap.columns(self.next_rid, end, ordinals)?;
        self.next_rid = end;
        Ok(batch)
    }
}

/// Position of an in-progress (possibly reversed, possibly range-limited)
/// index scan that fetches full heap rows.
///
/// The state is a pair of entry positions into the index, not a
/// materialized row-id list: opening costs two binary searches regardless
/// of how many entries match, and a scan abandoned after `k` rows (LIMIT,
/// Top-N) has done O(k) work total. Reverse scans walk the same interval
/// from the high end.
#[derive(Debug)]
pub struct IndexScanState {
    /// Remaining unconsumed entry positions, `[start, end)` in index order.
    start: usize,
    end: usize,
    reverse: bool,
    /// Leaf page of the most recently consumed entry, for incremental
    /// leaf-page charging.
    last_leaf: Option<u64>,
    cursor: PageCursor,
}

impl IndexScanState {
    /// Opens a scan over `index` restricted to leading-key values in
    /// `[lo, hi]` (either bound optional), delivering rows in index order
    /// or, with `reverse`, in exactly the reversed order. No row ids are
    /// resolved here; entries are consumed lazily per batch.
    pub fn open(
        index: &OrderedIndex,
        lo: Option<&Value>,
        hi: Option<&Value>,
        reverse: bool,
    ) -> Result<IndexScanState> {
        let (start, end) = index.range_positions(lo, hi)?;
        Ok(IndexScanState {
            start,
            end,
            reverse,
            last_leaf: None,
            cursor: PageCursor::new(),
        })
    }

    /// [`IndexScanState::open`] restricted to partition `part` of `parts`:
    /// the matching entry interval is split into `parts` contiguous chunks
    /// with every interior cut aligned to an index-leaf boundary
    /// ([`ENTRIES_PER_LEAF`]), so no leaf is shared between partitions and
    /// the partitions together charge exactly the leaf pages a serial scan
    /// charges. `part` counts in *key* order regardless of `reverse`; a
    /// reverse scan's caller should consume partitions from high `part` to
    /// low to reproduce the serial reverse emission order.
    pub fn open_partition(
        index: &OrderedIndex,
        lo: Option<&Value>,
        hi: Option<&Value>,
        reverse: bool,
        part: usize,
        parts: usize,
    ) -> Result<IndexScanState> {
        let (start, end) = index.range_positions(lo, hi)?;
        let (p_lo, p_hi) = partition_bounds((start, end), part, parts, ENTRIES_PER_LEAF as usize);
        Ok(IndexScanState {
            start: p_lo,
            end: p_hi,
            reverse,
            last_leaf: None,
            cursor: PageCursor::new(),
        })
    }

    /// True once every matching row has been returned.
    pub fn exhausted(&self) -> bool {
        self.start >= self.end
    }

    /// Returns the next batch of at most `max_rows` rows, resolving row
    /// ids from `index` as it goes. Each index leaf of
    /// [`ENTRIES_PER_LEAF`] entries is charged once when first entered,
    /// and each fetched heap row goes through a [`PageCursor`], so probes
    /// landing on the page just read are free — the clustering effect the
    /// paper's ordered access paths exploit. Pages past the point where
    /// the caller stops pulling are never charged.
    ///
    /// Charging walks the entries one by one, collecting row ids;
    /// columns `ordinals` of the rows are then gathered from the heap
    /// once per batch.
    pub fn next_columns(
        &mut self,
        index: &OrderedIndex,
        heap: &HeapTable,
        ordinals: &[usize],
        max_rows: usize,
        io: &mut IoStats,
    ) -> Result<Batch> {
        let take = max_rows.max(1).min(self.end - self.start.min(self.end));
        let mut rids = Vec::with_capacity(take);
        for _ in 0..take {
            let pos = if self.reverse {
                self.end - 1
            } else {
                self.start
            };
            let leaf = pos as u64 / ENTRIES_PER_LEAF;
            if self.last_leaf != Some(leaf) {
                io.index_pages += 1;
                self.last_leaf = Some(leaf);
            }
            let rid = index.rids()[pos];
            self.cursor.touch(heap.page_of(rid), io);
            io.rows_read += 1;
            rids.push(rid);
            if self.reverse {
                self.end -= 1;
            } else {
                self.start += 1;
            }
        }
        let cols = heap.gather_columns(&rids, ordinals)?;
        Batch::from_columns_with_len(cols.into_iter().map(Arc::new).collect(), rids.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapLoader;
    use fto_common::{Direction, TableId};

    // 100-byte rows: 40 rows per page.
    fn heap_of(rows: impl IntoIterator<Item = (i64, i64)>) -> HeapTable {
        let mut l = HeapLoader::new(TableId(0), &[fto_common::DataType::Int; 2], 100);
        for (a, b) in rows {
            l.push(vec![Value::Int(a), Value::Int(b)].into_boxed_slice())
                .unwrap();
        }
        l.finish().unwrap()
    }

    fn heap(n: i64) -> HeapTable {
        heap_of((0..n).map(|i| (i, i % 3)))
    }

    #[test]
    fn full_heap_scan_charges_every_page_once() {
        let h = heap(100);
        let mut s = HeapScanState::new();
        let mut io = IoStats::new();
        let mut rows = Vec::new();
        loop {
            let b = s.next_columns(&h, &[0, 1], 7, &mut io).unwrap();
            if b.is_empty() {
                break;
            }
            rows.extend(b.to_rows());
        }
        assert!(s.exhausted(&h));
        assert_eq!(rows.len(), 100);
        assert_eq!(io.sequential_pages, h.page_count());
        assert_eq!(io.random_pages, 0);
        assert_eq!(io.rows_read, 100);
    }

    #[test]
    fn abandoned_heap_scan_pays_only_pages_read() {
        let h = heap(100); // 3 pages
        let mut s = HeapScanState::new();
        let mut io = IoStats::new();
        let b = s.next_columns(&h, &[0, 1], 10, &mut io).unwrap();
        assert_eq!(b.len(), 10);
        assert_eq!(io.sequential_pages, 1);
        assert!(io.sequential_pages < h.page_count());
    }

    #[test]
    fn empty_heap_scan_is_free() {
        let h = heap(0);
        let mut s = HeapScanState::new();
        let mut io = IoStats::new();
        assert!(s.next_columns(&h, &[0, 1], 8, &mut io).unwrap().is_empty());
        assert_eq!(io.sequential_pages, 0);
        assert_eq!(io.rows_read, 0);
    }

    #[test]
    fn index_scan_delivers_key_order_and_reverse() {
        let h = heap_of(([5i64, 1, 3, 2, 4]).map(|i| (i, 0)));
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        let mut io = IoStats::new();
        let mut s = IndexScanState::open(&ix, None, None, false).unwrap();
        let mut keys = Vec::new();
        loop {
            let b = s.next_columns(&ix, &h, &[0, 1], 2, &mut io).unwrap();
            if b.is_empty() {
                break;
            }
            keys.extend(b.to_rows().iter().map(|r| r[0].as_int().unwrap()));
        }
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        assert!(s.exhausted());

        let mut rio = IoStats::new();
        let mut s = IndexScanState::open(&ix, None, None, true).unwrap();
        let b = s.next_columns(&ix, &h, &[0, 1], 10, &mut rio).unwrap();
        let keys: Vec<i64> = b.to_rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn index_scan_range_bounds() {
        let h = heap_of((0..10i64).map(|i| (i, 0)));
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        let mut io = IoStats::new();
        let mut s =
            IndexScanState::open(&ix, Some(&Value::Int(3)), Some(&Value::Int(6)), false).unwrap();
        let b = s.next_columns(&ix, &h, &[0, 1], 100, &mut io).unwrap();
        let keys: Vec<i64> = b.to_rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![3, 4, 5, 6]);
    }

    #[test]
    fn index_scan_charges_leaves_incrementally() {
        let h = heap_of((0..1000i64).map(|i| (i, 0)));
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        assert_eq!(ix.leaf_pages(), 4);

        // Consuming only the first batch touches one leaf.
        let mut io = IoStats::new();
        let mut s = IndexScanState::open(&ix, None, None, false).unwrap();
        s.next_columns(&ix, &h, &[0, 1], 100, &mut io).unwrap();
        assert_eq!(io.index_pages, 1);

        // Run to completion: exactly leaf_pages() leaves.
        let mut io = IoStats::new();
        let mut s = IndexScanState::open(&ix, None, None, false).unwrap();
        while !s
            .next_columns(&ix, &h, &[0, 1], 100, &mut io)
            .unwrap()
            .is_empty()
        {}
        assert_eq!(io.index_pages, ix.leaf_pages());
    }

    #[test]
    fn partition_bounds_cover_disjointly_and_align() {
        for len in [0usize, 1, 7, 100, 1000, 1024] {
            for parts in [1usize, 2, 3, 4, 7] {
                for align in [1usize, 8, 256] {
                    let mut next = 0usize;
                    for part in 0..parts {
                        let (lo, hi) = partition_bounds((0, len), part, parts, align);
                        assert_eq!(lo, next, "gap/overlap at {len}/{parts}/{align}/{part}");
                        assert!(lo <= hi);
                        if part + 1 < parts && hi < len {
                            assert_eq!(hi % align, 0, "unaligned cut {hi}");
                        }
                        next = hi;
                    }
                    assert_eq!(next, len, "range not covered");
                }
            }
        }
        // Non-zero base: interior cuts align on absolute positions.
        let (lo, hi) = partition_bounds((10, 522), 0, 2, 256);
        assert_eq!(lo, 10);
        assert_eq!(hi, 512);
        assert_eq!(partition_bounds((10, 522), 1, 2, 256), (512, 522));
    }

    #[test]
    fn partitioned_heap_scan_equals_serial_rows_and_pages() {
        let h = heap(1000); // 40 rows/page => 25 pages
        for parts in [1usize, 2, 3, 4] {
            let mut io = IoStats::new();
            let mut rows = Vec::new();
            for part in 0..parts {
                let mut s = HeapScanState::partition(&h, part, parts);
                loop {
                    let b = s.next_columns(&h, &[0, 1], 33, &mut io).unwrap();
                    if b.is_empty() {
                        break;
                    }
                    rows.extend(b.to_rows());
                }
                assert!(s.exhausted(&h));
            }
            let keys: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
            assert_eq!(keys, (0..1000).collect::<Vec<i64>>(), "parts={parts}");
            // Page-aligned partitions charge exactly the serial total.
            assert_eq!(io.sequential_pages, h.page_count(), "parts={parts}");
            assert_eq!(io.random_pages, 0);
            assert_eq!(io.rows_read, 1000);
        }
    }

    #[test]
    fn partitioned_index_scan_covers_rows_and_charges_leaves_once() {
        let h = heap_of((0..1000i64).map(|i| ((i * 37) % 1000, 0)));
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        for parts in [1usize, 2, 4] {
            let mut io = IoStats::new();
            let mut keys = Vec::new();
            for part in 0..parts {
                let mut s =
                    IndexScanState::open_partition(&ix, None, None, false, part, parts).unwrap();
                loop {
                    let b = s.next_columns(&ix, &h, &[0, 1], 57, &mut io).unwrap();
                    if b.is_empty() {
                        break;
                    }
                    keys.extend(b.to_rows().iter().map(|r| r[0].as_int().unwrap()));
                }
            }
            assert_eq!(keys, (0..1000).collect::<Vec<i64>>(), "parts={parts}");
            // Leaf-aligned cuts: every leaf is charged by exactly one
            // partition, so the total matches the serial scan.
            assert_eq!(io.index_pages, ix.leaf_pages(), "parts={parts}");
            assert_eq!(io.rows_read, 1000);
        }
    }

    #[test]
    fn partitioned_reverse_index_scan_in_reverse_partition_order() {
        let h = heap_of((0..500i64).map(|i| (i, 0)));
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        let parts = 3;
        let mut io = IoStats::new();
        let mut keys = Vec::new();
        // Reverse emission: high key-order partition first, each reversed.
        for part in (0..parts).rev() {
            let mut s = IndexScanState::open_partition(&ix, None, None, true, part, parts).unwrap();
            loop {
                let b = s.next_columns(&ix, &h, &[0, 1], 64, &mut io).unwrap();
                if b.is_empty() {
                    break;
                }
                keys.extend(b.to_rows().iter().map(|r| r[0].as_int().unwrap()));
            }
        }
        assert_eq!(keys, (0..500).rev().collect::<Vec<i64>>());
    }

    #[test]
    fn partitioned_range_scan_respects_bounds() {
        let h = heap_of((0..1000i64).map(|i| (i, 0)));
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        let mut io = IoStats::new();
        let mut keys = Vec::new();
        for part in 0..4 {
            let mut s = IndexScanState::open_partition(
                &ix,
                Some(&Value::Int(100)),
                Some(&Value::Int(899)),
                false,
                part,
                4,
            )
            .unwrap();
            loop {
                let b = s.next_columns(&ix, &h, &[0, 1], 128, &mut io).unwrap();
                if b.is_empty() {
                    break;
                }
                keys.extend(b.to_rows().iter().map(|r| r[0].as_int().unwrap()));
            }
        }
        assert_eq!(keys, (100..900).collect::<Vec<i64>>());
    }

    #[test]
    fn reverse_index_scan_stays_lazy_and_bounded() {
        let h = heap_of((0..1000i64).map(|i| (i, 0)));
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();

        // Pulling 10 rows in reverse touches one leaf (the last) and only
        // the heap pages behind those 10 rows.
        let mut io = IoStats::new();
        let mut s = IndexScanState::open(&ix, None, None, true).unwrap();
        let b = s.next_columns(&ix, &h, &[0, 1], 10, &mut io).unwrap();
        let keys: Vec<i64> = b.to_rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(keys, (990..1000).rev().collect::<Vec<i64>>());
        assert_eq!(io.index_pages, 1);
        assert_eq!(io.rows_read, 10);
        assert!(!s.exhausted());
    }
}
