//! Generalized interesting orders with *degrees of freedom* (paper §7).
//!
//! Order-based GROUP BY and DISTINCT do not dictate one exact order: the
//! grouping columns may appear in any permutation, and each may be
//! ascending or descending. The paper's example — `GROUP BY x, y` with
//! `sum(distinct z)` — is satisfied by `(x, y, z)` or `(y, x, z)` with any
//! of the 2³ direction choices: sixteen concrete orders in total.
//!
//! Rather than enumerating them, the production implementation keeps one
//! *general* interesting order recording which columns are permutable and
//! which directions are free. [`FlexOrder`] is that representation: an
//! ordered list of *segments*, each a set of mutually permutable
//! [`FlexColumn`]s. One greedy walk, [`FlexOrder::concretize`], reads the
//! concrete order a stream's order property offers it, segment by segment;
//! satisfaction is the paper's Test Order of the property against that
//! order.

use crate::context::OrderContext;
use crate::spec::{OrderSpec, SortKey};
use fto_common::{ColId, ColSet, Direction};
use std::fmt;

/// One column of a generalized order, with its direction freedom.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct FlexColumn {
    /// The column.
    pub col: ColId,
    /// `None` when either direction is acceptable; `Some(d)` when pinned.
    pub dir: Option<Direction>,
}

impl FlexColumn {
    /// A column with free direction.
    pub fn free(col: ColId) -> FlexColumn {
        FlexColumn { col, dir: None }
    }

    /// A column pinned to a direction.
    pub fn pinned(col: ColId, dir: Direction) -> FlexColumn {
        FlexColumn {
            col,
            dir: Some(dir),
        }
    }

    fn admits(&self, key: &SortKey, ctx: &OrderContext) -> bool {
        ctx.equivalences().same_class(self.col, key.col) && self.dir.is_none_or(|d| d == key.dir)
    }
}

/// A generalized interesting order: a sequence of segments whose columns
/// are permutable within the segment but not across segments.
///
/// * GROUP BY x, y ⇒ one segment `{x, y}`, directions free.
/// * GROUP BY x, y with `sum(distinct z)` ⇒ segments `[{x, y}, {z}]`
///   (z must come after all grouping columns, but may be asc or desc).
/// * ORDER BY x, y ⇒ two single-column segments with pinned directions —
///   i.e. a plain [`OrderSpec`] embeds exactly.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FlexOrder {
    segments: Vec<Vec<FlexColumn>>,
}

impl FlexOrder {
    /// The empty generalized order (satisfied by anything).
    pub fn empty() -> FlexOrder {
        FlexOrder::default()
    }

    /// Builds a generalized order from segments.
    pub fn new(segments: Vec<Vec<FlexColumn>>) -> FlexOrder {
        FlexOrder {
            segments: segments.into_iter().filter(|s| !s.is_empty()).collect(),
        }
    }

    /// The GROUP BY shape: one permutable, direction-free segment over the
    /// grouping columns, followed by one segment per DISTINCT aggregate
    /// argument.
    pub fn group_by(
        grouping: impl IntoIterator<Item = ColId>,
        distinct_args: impl IntoIterator<Item = ColId>,
    ) -> FlexOrder {
        let mut segments = Vec::new();
        let g: Vec<FlexColumn> = grouping.into_iter().map(FlexColumn::free).collect();
        if !g.is_empty() {
            segments.push(g);
        }
        for arg in distinct_args {
            segments.push(vec![FlexColumn::free(arg)]);
        }
        FlexOrder { segments }
    }

    /// Embeds an exact order specification (every column pinned, one per
    /// segment).
    pub fn exact(spec: &OrderSpec) -> FlexOrder {
        FlexOrder {
            segments: spec
                .keys()
                .iter()
                .map(|k| vec![FlexColumn::pinned(k.col, k.dir)])
                .collect(),
        }
    }

    /// The segments.
    pub fn segments(&self) -> &[Vec<FlexColumn>] {
        &self.segments
    }

    /// All columns mentioned.
    pub fn col_set(&self) -> ColSet {
        self.segments.iter().flatten().map(|fc| fc.col).collect()
    }

    /// True when no columns remain.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The number of concrete orders this generalized order admits
    /// (permutations × direction choices per segment). The paper's §7
    /// example yields sixteen.
    pub fn concrete_order_count(&self) -> u128 {
        self.segments
            .iter()
            .map(|seg| {
                let perms: u128 = (1..=seg.len() as u128).product();
                let dirs: u128 = seg
                    .iter()
                    .map(|fc| if fc.dir.is_none() { 2u128 } else { 1 })
                    .product();
                perms * dirs
            })
            .product()
    }

    /// Reduces the generalized order under a context: each column is
    /// rewritten to its class head; columns functionally determined by
    /// *all* columns of earlier segments plus the other columns of their
    /// own segment are removed (any satisfying concrete order necessarily
    /// places those before it).
    pub fn reduce(&self, ctx: &OrderContext) -> FlexOrder {
        let mut out: Vec<Vec<FlexColumn>> = Vec::new();
        let mut earlier = ColSet::new();
        for seg in &self.segments {
            let mut new_seg: Vec<FlexColumn> = Vec::new();
            // Head-rewrite and dedupe within the segment.
            for fc in seg {
                let head = ctx.equivalences().head(fc.col);
                if new_seg.iter().any(|e| e.col == head) {
                    continue;
                }
                new_seg.push(FlexColumn {
                    col: head,
                    dir: fc.dir,
                });
            }
            // Remove columns determined by earlier segments + the rest of
            // this segment.
            let mut i = 0;
            while i < new_seg.len() {
                let mut rest = earlier.clone();
                for (j, other) in new_seg.iter().enumerate() {
                    if j != i {
                        rest.insert(other.col);
                    }
                }
                if ctx.fds().determines(&rest, new_seg[i].col) {
                    new_seg.remove(i);
                } else {
                    i += 1;
                }
            }
            for fc in &new_seg {
                earlier.insert(fc.col);
            }
            if !new_seg.is_empty() {
                out.push(new_seg);
            }
        }
        FlexOrder { segments: out }
    }

    /// **Generalized Test Order**: does the concrete order property `prop`
    /// satisfy this generalized order under `ctx`? It does exactly when
    /// `prop` satisfies the one concrete order [`FlexOrder::concretize`]
    /// reads off it: the paper's Test Order (Fig. 3) over the walk, so
    /// that an [`FlexOrder::exact`] order answers as `test_order` does.
    /// With the FD `{x} → {y}`, the property `(y, x)` satisfies GROUP BY x.
    pub fn satisfied_by(&self, prop: &OrderSpec, ctx: &OrderContext) -> bool {
        ctx.test_order(&self.concretize(prop, ctx), prop)
    }

    /// A concrete order satisfying this generalized order that extends the
    /// stream's existing (reduced) order property as far as possible — the
    /// order the planner asks a sort to produce, and the one
    /// [`FlexOrder::satisfied_by`] tests the property against.
    ///
    /// The walk follows the property one key at a time, segment by
    /// segment:
    /// * a key that a remaining column of the segment admits is taken;
    /// * a remaining column that the keys taken so far determine is
    ///   discharged, whatever its direction: it is constant within each
    ///   run of those keys (Reduce Order);
    /// * a key that the segments so far determine cannot split a group, so
    ///   it may come first — which is how ORDER BY y combines with GROUP BY
    ///   x under `{x} → {y}` — but only while no remaining column of the
    ///   segment is pinned, since a pinned direction asks for order, not
    ///   adjacency;
    /// * any other key, or the end of the property, diverges: the rest of
    ///   the segment and every later segment are pinned, ascending where
    ///   the direction is free.
    pub fn concretize(&self, prop: &OrderSpec, ctx: &OrderContext) -> OrderSpec {
        let prop = ctx.reduce(prop);
        let mut keys = prop.keys();
        let mut out = OrderSpec::empty();
        let mut placed = ColSet::new();
        let mut determinants = ColSet::new();
        for seg in &self.reduce(ctx).segments {
            determinants.extend(seg.iter().map(|fc| fc.col));
            let mut remaining: Vec<&FlexColumn> = seg.iter().collect();
            loop {
                let known = ctx.fds().closure(&placed);
                remaining.retain(|fc| !known.contains(fc.col));
                if remaining.is_empty() {
                    break;
                }
                let Some((key, rest)) = keys.split_first() else {
                    break;
                };
                if let Some(idx) = remaining.iter().position(|fc| fc.admits(key, ctx)) {
                    remaining.swap_remove(idx);
                } else if !(remaining.iter().all(|fc| fc.dir.is_none())
                    && ctx.fds().determines(&determinants, key.col))
                {
                    // Diverged: no later segment follows the property.
                    keys = &[];
                    break;
                }
                out.push(*key);
                placed.insert(key.col);
                keys = rest;
            }
            for fc in remaining {
                out.push(SortKey {
                    col: fc.col,
                    dir: fc.dir.unwrap_or(Direction::Asc),
                });
                placed.insert(fc.col);
            }
        }
        ctx.reduce(&out)
    }
}

impl fmt::Display for FlexOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str("{")?;
            for (j, fc) in seg.iter().enumerate() {
                if j > 0 {
                    f.write_str(" ")?;
                }
                write!(f, "{}", fc.col)?;
                match fc.dir {
                    None => f.write_str("*")?,
                    Some(Direction::Desc) => f.write_str(" desc")?,
                    Some(Direction::Asc) => {}
                }
            }
            f.write_str("}")?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqclass::EquivalenceClasses;
    use crate::fd::FdSet;
    use fto_common::Value;

    fn c(i: u32) -> ColId {
        ColId(i)
    }

    fn asc(ids: &[u32]) -> OrderSpec {
        OrderSpec::ascending(ids.iter().map(|&i| ColId(i)))
    }

    /// Paper §7: GROUP BY x, y with sum(distinct z) admits sixteen orders.
    #[test]
    fn sixteen_orders_for_paper_example() {
        let flex = FlexOrder::group_by([c(0), c(1)], [c(2)]);
        assert_eq!(flex.concrete_order_count(), 16);
    }

    #[test]
    fn satisfaction_accepts_any_permutation_and_direction() {
        let ctx = OrderContext::trivial();
        let flex = FlexOrder::group_by([c(0), c(1)], [c(2)]);
        // (x, y, z)
        assert!(flex.satisfied_by(&asc(&[0, 1, 2]), &ctx));
        // (y, x, z)
        assert!(flex.satisfied_by(&asc(&[1, 0, 2]), &ctx));
        // (y desc, x, z desc)
        let prop = OrderSpec::new(vec![
            SortKey::desc(c(1)),
            SortKey::asc(c(0)),
            SortKey::desc(c(2)),
        ]);
        assert!(flex.satisfied_by(&prop, &ctx));
        // z may not come before the grouping columns.
        assert!(!flex.satisfied_by(&asc(&[2, 0, 1]), &ctx));
        // Missing a column fails.
        assert!(!flex.satisfied_by(&asc(&[0, 1]), &ctx));
        // A longer property is fine.
        assert!(flex.satisfied_by(&asc(&[0, 1, 2, 9]), &ctx));
    }

    #[test]
    fn pinned_directions_are_enforced() {
        let ctx = OrderContext::trivial();
        let flex = FlexOrder::new(vec![vec![
            FlexColumn::pinned(c(0), Direction::Desc),
            FlexColumn::free(c(1)),
        ]]);
        let good = OrderSpec::new(vec![SortKey::asc(c(1)), SortKey::desc(c(0))]);
        assert!(flex.satisfied_by(&good, &ctx));
        let bad = OrderSpec::new(vec![SortKey::asc(c(1)), SortKey::asc(c(0))]);
        assert!(!flex.satisfied_by(&bad, &ctx));
    }

    #[test]
    fn exact_embedding_matches_test_order() {
        let ctx = OrderContext::trivial();
        let spec = OrderSpec::new(vec![SortKey::asc(c(0)), SortKey::desc(c(1))]);
        let flex = FlexOrder::exact(&spec);
        assert_eq!(flex.concrete_order_count(), 1);
        assert!(flex.satisfied_by(&spec, &ctx));
        assert!(!flex.satisfied_by(&asc(&[0, 1]), &ctx));
    }

    #[test]
    fn reduction_removes_constants_and_duplicates() {
        let mut eq = EquivalenceClasses::new();
        eq.bind_constant(c(0), Value::Int(1));
        eq.merge(c(1), c(3));
        let ctx = OrderContext::new(eq, &FdSet::new());
        let flex = FlexOrder::group_by([c(0), c(1), c(3)], []);
        let reduced = flex.reduce(&ctx);
        // c0 constant → dropped; c1 and c3 same class → one column.
        assert_eq!(reduced.segments().len(), 1);
        assert_eq!(reduced.segments()[0].len(), 1);
        assert_eq!(reduced.segments()[0][0].col, c(1));
        // Satisfied by ordering on c3 alone (equivalent to c1).
        assert!(flex.satisfied_by(&asc(&[3]), &ctx));
    }

    #[test]
    fn empty_after_reduction_is_always_satisfied() {
        let mut eq = EquivalenceClasses::new();
        eq.bind_constant(c(0), Value::Int(1));
        let ctx = OrderContext::new(eq, &FdSet::new());
        let flex = FlexOrder::group_by([c(0)], []);
        assert!(flex.satisfied_by(&OrderSpec::empty(), &ctx));
    }

    #[test]
    fn grouping_on_key_reduces_to_key() {
        // GROUP BY pk, a, b where pk is a key: satisfied by order on pk.
        let mut fds = FdSet::new();
        fds.add_key(
            ColSet::singleton(c(0)),
            ColSet::from_cols([c(0), c(1), c(2)]),
        );
        let ctx = OrderContext::new(EquivalenceClasses::new(), &fds);
        let flex = FlexOrder::group_by([c(0), c(1), c(2)], []);
        assert!(flex.satisfied_by(&asc(&[0]), &ctx));
        let reduced = flex.reduce(&ctx);
        assert_eq!(reduced.col_set(), ColSet::singleton(c(0)));
    }

    #[test]
    fn concretize_follows_existing_property() {
        let ctx = OrderContext::trivial();
        let flex = FlexOrder::group_by([c(0), c(1)], []);
        // Stream already ordered by (1 desc): keep that, append 0.
        let prop = OrderSpec::new(vec![SortKey::desc(c(1))]);
        let sort = flex.concretize(&prop, &ctx);
        assert_eq!(
            sort,
            OrderSpec::new(vec![SortKey::desc(c(1)), SortKey::asc(c(0))])
        );
        assert!(flex.satisfied_by(&sort, &ctx));
    }

    #[test]
    fn concretize_with_no_property_pins_ascending() {
        let ctx = OrderContext::trivial();
        let flex = FlexOrder::group_by([c(1), c(0)], [c(2)]);
        let sort = flex.concretize(&OrderSpec::empty(), &ctx);
        assert!(flex.satisfied_by(&sort, &ctx));
        assert_eq!(sort.len(), 3);
    }

    #[test]
    fn concretize_diverging_property_still_satisfies() {
        let ctx = OrderContext::trivial();
        let flex = FlexOrder::new(vec![
            vec![FlexColumn::free(c(0))],
            vec![FlexColumn::free(c(1))],
        ]);
        // Property starts with an unrelated column: ignore it.
        let prop = asc(&[9, 0, 1]);
        let sort = flex.concretize(&prop, &ctx);
        assert!(flex.satisfied_by(&sort, &ctx));
    }

    /// Under `{b} → {c}`, rows sorted by `(c, b)` have every `b` group
    /// contiguous but are not ordered by `b`: the key `c` may come before
    /// a direction-free `b`, never before a pinned one.
    #[test]
    fn a_determined_key_comes_first_only_before_free_columns() {
        let (a, b, c) = (c(0), c(1), c(2));
        let mut fds = FdSet::new();
        fds.add(crate::fd::Fd::implies(b, c));
        let ctx = OrderContext::new(EquivalenceClasses::new(), &fds);
        let prop = OrderSpec::ascending([c, b]);
        let exact = FlexOrder::exact(&OrderSpec::ascending([b]));
        assert!(!ctx.test_order(&OrderSpec::ascending([b]), &prop));
        assert!(!exact.satisfied_by(&prop, &ctx));
        assert_eq!(exact.concretize(&prop, &ctx), OrderSpec::ascending([b]));
        let pinned = FlexOrder::new(vec![vec![
            FlexColumn::pinned(b, Direction::Asc),
            FlexColumn::free(a),
        ]]);
        assert!(!pinned.satisfied_by(&OrderSpec::ascending([c, b, a]), &ctx));
        let grouping = FlexOrder::group_by([b], []);
        assert!(grouping.satisfied_by(&prop, &ctx));
        assert_eq!(grouping.concretize(&prop, &ctx), prop);
    }

    #[test]
    fn display() {
        let flex = FlexOrder::group_by([c(0), c(1)], [c(2)]);
        assert_eq!(flex.to_string(), "({c0* c1*}, {c2*})");
        let pinned = FlexOrder::exact(&OrderSpec::new(vec![SortKey::desc(c(3))]));
        assert_eq!(pinned.to_string(), "({c3 desc})");
    }

    #[test]
    fn count_with_multi_column_segment() {
        // 3 free columns in one segment: 3! * 2^3 = 48.
        let flex = FlexOrder::group_by([c(0), c(1), c(2)], []);
        assert_eq!(flex.concrete_order_count(), 48);
        assert_eq!(FlexOrder::empty().concrete_order_count(), 1);
    }
}
