//! Ordered indexes: sorted key → row-id structures supporting full ordered
//! scans, range scans, and equality probes.
//!
//! An index is stored the way a [`HeapTable`] stores a table: one typed
//! [`Column`] per key part, in index order, beside the row id of every
//! entry. A probe compares the probing batch's typed columns against those
//! key columns slot by slot ([`Column::cmp_at`], which decides as
//! [`Value::total_cmp`] does), so no `Value` is built per probe, and it
//! searches forward from a position hint — the previous probe's lower
//! bound — so probes arriving in key order cost O(log gap) comparisons
//! while probes in any other order cost one binary search.
//!
//! The structure is a sorted array rather than a node-linked B-tree — the
//! access characteristics the paper's techniques care about (order
//! provision, probe clustering, leaf-page accounting) are identical, and
//! DESIGN.md records the substitution. The simulated I/O charges one leaf
//! descent per probe whatever the search did.

use crate::heap::HeapTable;
use fto_common::{Column, Direction, FtoError, Result, Value};
use std::cmp::Ordering;
use std::ops::Range;

/// Entries per simulated index leaf page (keys are small).
pub const ENTRIES_PER_LEAF: u64 = 256;

/// An ordered index over a heap table.
#[derive(Debug)]
pub struct OrderedIndex {
    /// One typed column per key part, in index order. Entries sort by key
    /// (with per-part directions), ties broken by row id for determinism.
    keys: Vec<Column>,
    /// The row id of every entry, in index order.
    rids: Vec<usize>,
    directions: Vec<Direction>,
}

impl OrderedIndex {
    /// Builds the index over `heap`, extracting key parts with
    /// `key_ordinals` and ordering each part by the matching direction.
    /// Entries sort by their normalized binary keys (row-id tiebreak) —
    /// the same order the `Value` comparator defines, partitioned
    /// byte-wise — and then only the key columns are gathered, in that
    /// order.
    pub fn build(
        heap: &HeapTable,
        key_ordinals: &[usize],
        directions: &[Direction],
    ) -> Result<OrderedIndex> {
        if key_ordinals.len() != directions.len() || key_ordinals.iter().any(|&o| o >= heap.arity())
        {
            return Err(FtoError::internal(format!(
                "index on columns {key_ordinals:?} {directions:?} of a {}-column table",
                heap.arity()
            )));
        }
        let keys: Vec<(usize, Direction)> = key_ordinals
            .iter()
            .copied()
            .zip(directions.iter().copied())
            .collect();
        // The normalized keys live only for this sort, in one arena.
        let (arena, offsets) = heap.encode_keys(&keys);
        let enc = |rid: usize| &arena[offsets[rid]..offsets[rid + 1]];
        let mut rids: Vec<usize> = (0..heap.row_count() as usize).collect();
        rids.sort_unstable_by(|&a, &b| enc(a).cmp(enc(b)).then_with(|| a.cmp(&b)));
        Ok(OrderedIndex {
            keys: heap.gather_columns(&rids, key_ordinals)?,
            rids,
            directions: directions.to_vec(),
        })
    }

    /// Number of entries (one per heap row).
    pub fn len(&self) -> usize {
        self.rids.len()
    }

    /// True when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.rids.is_empty()
    }

    /// Number of simulated leaf pages.
    pub fn leaf_pages(&self) -> u64 {
        (self.len() as u64).div_ceil(ENTRIES_PER_LEAF).max(1)
    }

    /// The key columns, one per key part, each in index order: entry
    /// `pos`'s key is slot `pos` of every column.
    pub fn keys(&self) -> &[Column] {
        &self.keys
    }

    /// The row id of every entry, in index order.
    pub fn rids(&self) -> &[usize] {
        &self.rids
    }

    /// Equality probe on a prefix of the key: the positions of the entries
    /// whose leading key parts equal slot `row` of the `probe` columns (one
    /// per leading part) under [`Value::total_cmp`] — NULL equals NULL
    /// here, as an `Int` equals the `Double` of its value — in index
    /// order. Their row ids are `self.rids()[range]`.
    ///
    /// The search starts from `hint`, any position: when the entry just
    /// before it sorts before the probe, the lower bound is galloped to
    /// forward from there, otherwise it is binary-searched in `[0, hint)`.
    /// Passing the previous probe's lower bound makes probes that arrive
    /// in key order cost O(log gap) comparisons and every other probe one
    /// binary search; the result never depends on the hint.
    pub fn probe(&self, probe: &[&Column], row: usize, hint: usize) -> Range<usize> {
        let cmp = |pos: usize| self.cmp_prefix(pos, probe, row);
        let before = |pos: usize| cmp(pos) == Ordering::Less;
        let hint = hint.min(self.len());
        let lo = match hint > 0 && !before(hint - 1) {
            true => partition(0, hint - 1, &before),
            false => gallop(hint, self.len(), &before),
        };
        lo..gallop(lo, self.len(), &|pos| cmp(pos) != Ordering::Greater)
    }

    /// The half-open entry-position interval `[start, end)` whose first
    /// key part is within `[lo, hi]` (either bound optional), in index
    /// order; the row ids are `self.rids()[start..end]`. Only meaningful
    /// when the leading part is ascending. Lets scan cursors hold a
    /// position pair instead of materializing row ids.
    pub fn range_positions(
        &self,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<(usize, usize)> {
        let Some(lead) = self.keys.first() else {
            return Ok((0, self.len()));
        };
        // The first position whose leading key does not compare below
        // `past` against the bound, which becomes a one-slot column of its
        // own type for the comparator the probes use.
        let search = |bound: Option<&Value>, past: Ordering, none: usize| {
            let Some(v) = bound else { return Ok(none) };
            let ty = v.data_type().unwrap_or(lead.data_type());
            let b = Column::from_typed_values(ty, [v].into_iter())?;
            Ok::<_, FtoError>(partition(0, self.len(), &|pos| {
                lead.cmp_at(pos, &b, 0) < past
            }))
        };
        let start = search(lo, Ordering::Equal, 0)?;
        let end = search(hi, Ordering::Greater, self.len())?;
        Ok((start, end.max(start)))
    }

    /// Entry `pos`'s key against slot `row` of the `probe` columns, over
    /// the probe's parts, each in its part's direction.
    fn cmp_prefix(&self, pos: usize, probe: &[&Column], row: usize) -> Ordering {
        debug_assert!(probe.len() <= self.keys.len());
        for ((key, col), dir) in self.keys.iter().zip(probe).zip(&self.directions) {
            let ord = dir.apply(key.cmp_at(pos, col, row));
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// The first position in `[lo, hi)` where `before` is false (`hi` when
/// there is none), by binary search; `before` must hold on a prefix.
fn partition(mut lo: usize, mut hi: usize, before: &impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// [`partition`] for an answer expected near `lo`: tests `lo`, `lo + 2`,
/// `lo + 6`, `lo + 14`, … until `before` fails, then binary-searches the
/// last step — O(log d) comparisons for an answer `d` positions on.
fn gallop(mut lo: usize, hi: usize, before: &impl Fn(usize) -> bool) -> usize {
    let mut step = 1;
    while lo < hi {
        let at = (lo + step - 1).min(hi - 1);
        if !before(at) {
            return partition(lo, at, before);
        }
        lo = at + 1;
        step *= 2;
    }
    hi
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

    /// Key part `part` of every entry, in index order.
    fn part(ix: &OrderedIndex, part: usize) -> Vec<i64> {
        let col = &ix.keys()[part];
        (0..ix.len())
            .map(|p| col.value(p).as_int().unwrap())
            .collect()
    }

    /// The row ids a probe for the one-row key `key` returns.
    fn probe(ix: &OrderedIndex, key: &[Value]) -> Vec<usize> {
        let cols: Vec<Column> = key
            .iter()
            .map(|v| Column::from_typed_values(fto_common::DataType::Int, [v].into_iter()))
            .collect::<Result<_>>()
            .unwrap();
        let cols: Vec<&Column> = cols.iter().collect();
        ix.rids()[ix.probe(&cols, 0, 0)].to_vec()
    }

    #[test]
    fn scan_in_key_order() {
        let h = heap(&[(3, 0), (1, 1), (2, 2)]);
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        assert_eq!(part(&ix, 0), vec![1, 2, 3]);
        assert_eq!(ix.rids(), &[1, 2, 0]);
        assert_eq!(ix.len(), 3);
        assert!(!ix.is_empty());
    }

    #[test]
    fn descending_index() {
        let h = heap(&[(3, 0), (1, 1), (2, 2)]);
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Desc]).unwrap();
        assert_eq!(part(&ix, 0), vec![3, 2, 1]);
    }

    #[test]
    fn composite_key_order() {
        let h = heap(&[(1, 2), (1, 1), (0, 9)]);
        let ix = OrderedIndex::build(&h, &[0, 1], &[Direction::Asc, Direction::Asc]).unwrap();
        assert_eq!(part(&ix, 0), vec![0, 1, 1]);
        assert_eq!(part(&ix, 1), vec![9, 1, 2]);
    }

    #[test]
    fn build_refuses_mismatched_directions() {
        let h = heap(&[(1, 2)]);
        assert!(OrderedIndex::build(&h, &[0, 1], &[Direction::Asc]).is_err());
        assert!(OrderedIndex::build(&h, &[2], &[Direction::Asc]).is_err());
    }

    #[test]
    fn probe_full_key() {
        let h = heap(&[(1, 0), (2, 1), (2, 2), (3, 3)]);
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        assert_eq!(probe(&ix, &[Value::Int(2)]), vec![1, 2]);
        assert!(probe(&ix, &[Value::Int(9)]).is_empty());
    }

    #[test]
    fn probe_prefix_of_composite_key() {
        let h = heap(&[(1, 5), (1, 3), (2, 1)]);
        let ix = OrderedIndex::build(&h, &[0, 1], &[Direction::Asc, Direction::Asc]).unwrap();
        // Hits come back in full index order: (1,3) before (1,5).
        assert_eq!(probe(&ix, &[Value::Int(1)]), vec![1, 0]);
    }

    #[test]
    fn probe_on_descending_index() {
        let h = heap(&[(1, 0), (2, 1), (2, 2)]);
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Desc]).unwrap();
        assert_eq!(probe(&ix, &[Value::Int(2)]), vec![1, 2]);
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
            let ix = OrderedIndex::build(&h, &[0, 1], &dirs).unwrap();
            let mut prefixes: Vec<Vec<Value>> = vec![vec![]];
            for a in &probes {
                prefixes.push(vec![a.clone()]);
                for b in &probes {
                    prefixes.push(vec![a.clone(), b.clone()]);
                }
            }
            for prefix in prefixes {
                let want: Vec<usize> = (0..ix.len())
                    .filter(|&pos| {
                        ix.keys()
                            .iter()
                            .zip(&prefix)
                            .all(|(col, v)| col.value(pos).total_cmp(v).is_eq())
                    })
                    .map(|pos| ix.rids()[pos])
                    .collect();
                assert_eq!(probe(&ix, &prefix), want, "{dirs:?} {prefix:?}");
            }
        }
    }

    #[test]
    fn probe_finds_the_same_entries_from_every_hint() {
        let h = heap_of((0..100).map(|i| [Value::Int(i / 3), Value::Int(i)]));
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        let col = Column::from_typed_values(
            fto_common::DataType::Int,
            [
                Value::Int(-1),
                Value::Int(7),
                Value::Int(33),
                Value::Int(40),
            ]
            .iter(),
        )
        .unwrap();
        let want = [0..0, 21..24, 99..100, 100..100];
        for (row, want) in want.into_iter().enumerate() {
            for hint in [0, 1, 21, 22, 24, 50, 99, 100, 1000] {
                assert_eq!(ix.probe(&[&col], row, hint), want, "row {row} hint {hint}");
            }
        }
    }

    #[test]
    fn range_scan() {
        let h = heap(&[(5, 0), (1, 1), (3, 2), (8, 3)]);
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        let keys = |lo: Option<Value>, hi: Option<Value>| {
            let (s, e) = ix.range_positions(lo.as_ref(), hi.as_ref()).unwrap();
            part(&ix, 0)[s..e].to_vec()
        };
        assert_eq!(keys(Some(Value::Int(2)), Some(Value::Int(6))), vec![3, 5]);
        assert_eq!(keys(None, None), vec![1, 3, 5, 8]);
        assert_eq!(keys(Some(Value::Int(5)), None), vec![5, 8]);
        assert_eq!(
            keys(Some(Value::Double(2.5)), Some(Value::Null)),
            vec![3, 5, 8]
        );
        assert_eq!(
            keys(Some(Value::Int(6)), Some(Value::Int(2))),
            Vec::<i64>::new()
        );
    }

    #[test]
    fn leaf_pages() {
        let h = heap_of((0..1000).map(|i| [Value::Int(i), Value::Int(0)]));
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        assert_eq!(ix.leaf_pages(), 4); // 1000 / 256 rounded up
        let empty = OrderedIndex::build(&heap(&[]), &[0], &[Direction::Asc]).unwrap();
        assert_eq!(empty.leaf_pages(), 1);
    }

    #[test]
    fn ties_break_by_row_id() {
        let h = heap(&[(1, 9), (1, 8), (1, 7)]);
        let ix = OrderedIndex::build(&h, &[0], &[Direction::Asc]).unwrap();
        assert_eq!(ix.rids(), &[0, 1, 2]);
    }
}
