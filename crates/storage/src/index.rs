//! Ordered indexes: sorted key → row-id structures supporting full ordered
//! scans, range scans, and equality probes.
//!
//! The structure is a sorted array rather than a node-linked B-tree — the
//! access characteristics the paper's techniques care about (order
//! provision, probe clustering, leaf-page accounting) are identical, and
//! DESIGN.md records the substitution.

use crate::heap::HeapTable;
use fto_common::{Direction, Value};
use std::cmp::Ordering;

/// Entries per simulated index leaf page (keys are small).
pub(crate) const ENTRIES_PER_LEAF: u64 = 256;

/// An ordered index over a heap table.
#[derive(Debug)]
pub struct OrderedIndex {
    /// (key values, row id), sorted by key (with per-part directions),
    /// ties broken by row id for determinism.
    entries: Vec<(Vec<Value>, usize)>,
    directions: Vec<Direction>,
}

impl OrderedIndex {
    /// Builds the index over `heap`, extracting key parts with
    /// `key_ordinals` and ordering each part by the matching direction.
    /// Entries sort by their normalized binary keys (row-id tiebreak) —
    /// the same order the `Value` comparator defines, partitioned
    /// byte-wise.
    pub fn build(
        heap: &HeapTable,
        key_ordinals: &[usize],
        directions: &[Direction],
    ) -> OrderedIndex {
        assert_eq!(key_ordinals.len(), directions.len());
        let keys: Vec<(usize, Direction)> = key_ordinals
            .iter()
            .copied()
            .zip(directions.iter().copied())
            .collect();
        // The normalized keys live only for this sort, in one arena;
        // entries are then allocated in index order.
        let (arena, offsets) = heap.encode_keys(&keys);
        let enc = |rid: usize| &arena[offsets[rid]..offsets[rid + 1]];
        let mut order: Vec<usize> = (0..heap.row_count() as usize).collect();
        order.sort_unstable_by(|&a, &b| enc(a).cmp(enc(b)).then_with(|| a.cmp(&b)));
        let key_of = |rid: usize| key_ordinals.iter().map(|&o| heap.value(rid, o)).collect();
        OrderedIndex {
            entries: order.into_iter().map(|rid| (key_of(rid), rid)).collect(),
            directions: directions.to_vec(),
        }
    }

    /// Number of entries (one per heap row).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of simulated leaf pages.
    pub fn leaf_pages(&self) -> u64 {
        (self.entries.len() as u64)
            .div_ceil(ENTRIES_PER_LEAF)
            .max(1)
    }

    /// Full scan in index order: yields `(key, row id)`.
    pub fn scan(&self) -> impl Iterator<Item = (&[Value], usize)> + '_ {
        self.entries.iter().map(|(k, r)| (k.as_slice(), *r))
    }

    /// Equality probe on a prefix of the key: all row ids whose leading
    /// key parts equal `prefix`, in index order.
    pub fn probe(&self, prefix: &[Value]) -> &[(Vec<Value>, usize)] {
        debug_assert!(prefix.len() <= self.directions.len());
        let lo = self.entries.partition_point(|(k, _)| {
            compare_prefix(k, prefix, &self.directions) == Ordering::Less
        });
        let hi = self.entries.partition_point(|(k, _)| {
            compare_prefix(k, prefix, &self.directions) != Ordering::Greater
        });
        &self.entries[lo..hi]
    }

    /// Range scan on the leading key part: entries whose first key part is
    /// within `[lo, hi]` (either bound optional), in index order. Only
    /// meaningful when the leading part is ascending.
    pub fn range(
        &self,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> impl Iterator<Item = (&[Value], usize)> + '_ {
        let (start, end) = self.range_positions(lo, hi);
        self.entries[start..end]
            .iter()
            .map(|(k, r)| (k.as_slice(), *r))
    }

    /// The half-open entry-position interval `[start, end)` matched by a
    /// leading-key range — the positions [`range`](OrderedIndex::range)
    /// iterates. Lets scan cursors hold a position pair instead of
    /// materializing row ids, so resolving entries stays O(1) per row.
    pub fn range_positions(&self, lo: Option<&Value>, hi: Option<&Value>) -> (usize, usize) {
        let start = match lo {
            Some(v) => self
                .entries
                .partition_point(|(k, _)| k[0].total_cmp(v) == Ordering::Less),
            None => 0,
        };
        let end = match hi {
            Some(v) => self
                .entries
                .partition_point(|(k, _)| k[0].total_cmp(v) != Ordering::Greater),
            None => self.entries.len(),
        };
        (start, end.max(start))
    }

    /// Row id stored at entry position `pos` (index order).
    pub(crate) fn rid_at(&self, pos: usize) -> usize {
        self.entries[pos].1
    }
}

fn compare_prefix(key: &[Value], prefix: &[Value], dirs: &[Direction]) -> Ordering {
    for (i, p) in prefix.iter().enumerate() {
        let ord = dirs[i].apply(key[i].total_cmp(p));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapLoader;
    use fto_common::TableId;

    fn heap_of(rows: impl IntoIterator<Item = [Value; 2]>) -> HeapTable {
        let mut l = HeapLoader::new(TableId(0), &[fto_common::DataType::Int; 2], 16);
        for row in rows {
            l.push(Box::new(row)).unwrap();
        }
        l.finish().unwrap()
    }

    fn heap(rows: &[(i64, i64)]) -> HeapTable {
        heap_of(rows.iter().map(|&(a, b)| [Value::Int(a), Value::Int(b)]))
    }

    #[test]
    fn scan_in_key_order() {
        let h = heap(&[(3, 0), (1, 1), (2, 2)]);
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]);
        let keys: Vec<i64> = ix.scan().map(|(k, _)| k[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(ix.len(), 3);
        assert!(!ix.is_empty());
    }

    #[test]
    fn descending_index() {
        let h = heap(&[(3, 0), (1, 1), (2, 2)]);
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Desc]);
        let keys: Vec<i64> = ix.scan().map(|(k, _)| k[0].as_int().unwrap()).collect();
        assert_eq!(keys, vec![3, 2, 1]);
    }

    #[test]
    fn composite_key_order() {
        let h = heap(&[(1, 2), (1, 1), (0, 9)]);
        let ix = OrderedIndex::build(&h, &[0, 1], &[Direction::Asc, Direction::Asc]);
        let keys: Vec<(i64, i64)> = ix
            .scan()
            .map(|(k, _)| (k[0].as_int().unwrap(), k[1].as_int().unwrap()))
            .collect();
        assert_eq!(keys, vec![(0, 9), (1, 1), (1, 2)]);
    }

    #[test]
    fn probe_full_key() {
        let h = heap(&[(1, 0), (2, 1), (2, 2), (3, 3)]);
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]);
        let hits = ix.probe(&[Value::Int(2)]);
        let rids: Vec<usize> = hits.iter().map(|(_, r)| *r).collect();
        assert_eq!(rids, vec![1, 2]);
        assert!(ix.probe(&[Value::Int(9)]).is_empty());
    }

    #[test]
    fn probe_prefix_of_composite_key() {
        let h = heap(&[(1, 5), (1, 3), (2, 1)]);
        let ix = OrderedIndex::build(&h, &[0, 1], &[Direction::Asc, Direction::Asc]);
        let hits = ix.probe(&[Value::Int(1)]);
        assert_eq!(hits.len(), 2);
        // Hits come back in full index order: (1,3) before (1,5).
        assert_eq!(hits[0].0[1], Value::Int(3));
    }

    #[test]
    fn probe_on_descending_index() {
        let h = heap(&[(1, 0), (2, 1), (2, 2)]);
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Desc]);
        let hits = ix.probe(&[Value::Int(2)]);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn range_scan() {
        let h = heap(&[(5, 0), (1, 1), (3, 2), (8, 3)]);
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]);
        let keys: Vec<i64> = ix
            .range(Some(&Value::Int(2)), Some(&Value::Int(6)))
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![3, 5]);
        let all: Vec<i64> = ix
            .range(None, None)
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(all, vec![1, 3, 5, 8]);
        let upper: Vec<i64> = ix
            .range(Some(&Value::Int(5)), None)
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(upper, vec![5, 8]);
    }

    #[test]
    fn leaf_pages() {
        let h = heap_of((0..1000).map(|i| [Value::Int(i), Value::Int(0)]));
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]);
        assert_eq!(ix.leaf_pages(), 4); // 1000 / 256 rounded up
        let empty = OrderedIndex::build(&heap(&[]), &[0], &[Direction::Asc]);
        assert_eq!(empty.leaf_pages(), 1);
    }

    #[test]
    fn probe_returns_exactly_the_entries_a_linear_filter_keeps() {
        let ints = [(1, 5), (1, 3), (2, 1), (2, 2), (3, 0), (2, 2)];
        let h = heap_of(
            ints.iter()
                .map(|&(a, b)| [Value::Int(a), Value::Int(b)])
                .chain([[Value::Null, Value::Int(3)], [Value::Int(2), Value::Null]]),
        );
        let mut probes = vec![Value::Null];
        probes.extend((0..6).map(Value::Int));
        for dirs in [
            [Direction::Asc, Direction::Asc],
            [Direction::Desc, Direction::Asc],
            [Direction::Desc, Direction::Desc],
        ] {
            let ix = OrderedIndex::build(&h, &[0, 1], &dirs);
            let mut prefixes: Vec<Vec<Value>> = vec![vec![]];
            for a in &probes {
                prefixes.push(vec![a.clone()]);
                for b in &probes {
                    prefixes.push(vec![a.clone(), b.clone()]);
                }
            }
            for prefix in prefixes {
                let want: Vec<(Vec<Value>, usize)> = ix
                    .scan()
                    .filter(|(k, _)| {
                        k.iter()
                            .zip(&prefix)
                            .all(|(a, b)| a.total_cmp(b) == Ordering::Equal)
                    })
                    .map(|(k, rid)| (k.to_vec(), rid))
                    .collect();
                assert_eq!(ix.probe(&prefix), want.as_slice(), "{dirs:?} {prefix:?}");
            }
        }
    }

    #[test]
    fn ties_break_by_row_id() {
        let h = heap(&[(1, 9), (1, 8), (1, 7)]);
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]);
        let rids: Vec<usize> = ix.scan().map(|(_, r)| r).collect();
        assert_eq!(rids, vec![0, 1, 2]);
    }
}
