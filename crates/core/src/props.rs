//! [`StreamProps`]: the per-stream data properties the paper tracks
//! (§5.2.1) — order, applied predicates and columns, over the facts
//! (equivalences and functional dependencies) — together with their
//! propagation through relational operators.
//!
//! The paper also tracks keys, for two ends: deriving dependencies (a key
//! determines every column) and the one-record condition. Both come from
//! the facts here: a key enters as the dependency `key → all columns`, and
//! a key bound to constants determines every column, so `reduce` empties
//! any order on such a stream.
//!
//! Each operator in a plan determines the properties of its output stream
//! from the properties of its inputs and the operation applied (paper §3).
//! The planner calls the methods here operator by operator as it builds
//! plans bottom-up.
//!
//! # Ownership of the facts
//!
//! The equivalence classes, the functional dependencies and the
//! [`OrderContext`] derived from them are one immutable [`StreamFacts`]
//! value behind an `Arc`. A `StreamProps` points at it; it cannot edit it.
//! Facts change only where a predicate or a derived dependency is applied
//! ([`StreamProps::apply_predicate`],
//! [`StreamProps::apply_outer_join_predicate`], [`StreamProps::join`],
//! [`StreamProps::group_by`], [`StreamProps::add_computed_columns`]): those
//! build one new value, context included, and point the output at it.
//! Everything else — sorting, projecting, grouping without aggregates
//! (DISTINCT), installing an order, cloning a plan — shares the input's
//! value, so the context is never rebuilt to ask a question. [`FactsMemo`]
//! extends the sharing to callers that derive the same facts along many
//! paths.

use crate::context::OrderContext;
use crate::eqclass::EquivalenceClasses;
use crate::fd::{Fd, FdSet};
use crate::spec::OrderSpec;
use fto_common::{ColId, ColSet, FxHashMap};
use fto_expr::{PredClass, PredId, Predicate};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// What is known to hold on a stream: the column equivalences and
/// functional dependencies induced by the predicates applied so far, and
/// the reasoning context derived from them. Immutable; a new fact makes a
/// new value.
#[derive(Debug)]
pub struct StreamFacts {
    /// The dependencies as stated (not yet in head space).
    fds: FdSet,
    /// Holds the equivalence classes and the head-space dependencies.
    ctx: OrderContext,
}

impl StreamFacts {
    fn new(eq: EquivalenceClasses, fds: FdSet) -> Arc<StreamFacts> {
        let ctx = OrderContext::new(eq, &fds);
        Arc::new(StreamFacts { fds, ctx })
    }

    fn equivalences(&self) -> &EquivalenceClasses {
        self.ctx.equivalences()
    }

    /// The facts of two join inputs taken together.
    fn union(left: &StreamFacts, right: &StreamFacts) -> Arc<StreamFacts> {
        let mut fds = left.fds.clone();
        fds.absorb(&right.fds);
        let mut eq = left.equivalences().clone();
        eq.absorb(right.equivalences());
        StreamFacts::new(eq, fds)
    }

    /// The facts once `pred` filters the stream, per the paper's §4.1
    /// mapping. A predicate that is neither `col = const` nor `col = col`
    /// states none: the result is this same value.
    fn with_predicate(self: &Arc<Self>, pred: &Predicate) -> Arc<StreamFacts> {
        let mut eq = self.equivalences().clone();
        let mut fds = self.fds.clone();
        match pred.classify() {
            PredClass::ColEqConst(col, v) => {
                eq.bind_constant(col, v);
                fds.add_constant(col);
            }
            PredClass::ColEqCol(a, b) => {
                eq.merge(a, b);
                fds.add_equivalence(a, b);
            }
            PredClass::Opaque => return Arc::clone(self),
        }
        StreamFacts::new(eq, fds)
    }

    /// The facts with further dependencies; this same value when every
    /// one of them is trivial or already stated.
    fn with_fds(self: &Arc<Self>, new: impl IntoIterator<Item = Fd>) -> Arc<StreamFacts> {
        let mut fds = self.fds.clone();
        for fd in new {
            fds.add(fd);
        }
        if fds.len() == self.fds.len() {
            return Arc::clone(self);
        }
        StreamFacts::new(self.equivalences().clone(), fds)
    }
}

/// The data properties of one plan stream.
#[derive(Clone, Debug)]
pub struct StreamProps {
    /// Columns available in the stream.
    pub cols: ColSet,
    /// The order property: what the stream is physically ordered by
    /// (always originating from an index scan or a sort, paper §3).
    pub order: OrderSpec,
    /// The predicate property: ids of predicates already applied, sorted.
    pub preds: Vec<PredId>,
    /// The functional-dependency property, the column equivalences and
    /// their context; shared with every stream they hold on equally.
    facts: Arc<StreamFacts>,
}

impl StreamProps {
    /// Properties of a base-table access: the table's columns, the FD
    /// `key → all columns` of each of its keys, no applied predicates, and
    /// no order (scans add an order separately via
    /// [`StreamProps::with_order`]).
    pub fn base_table(cols: ColSet, keys: Vec<ColSet>) -> StreamProps {
        let mut fds = FdSet::new();
        for k in keys {
            fds.add_key(k, cols.clone());
        }
        StreamProps {
            cols,
            order: OrderSpec::empty(),
            preds: Vec::new(),
            facts: StreamFacts::new(EquivalenceClasses::new(), fds),
        }
    }

    /// The reasoning context for this stream's order operations.
    pub fn ctx(&self) -> &OrderContext {
        &self.facts.ctx
    }

    /// The functional-dependency property.
    pub fn fds(&self) -> &FdSet {
        &self.facts.fds
    }

    /// Column equivalences induced by the applied predicates.
    pub fn equivalences(&self) -> &EquivalenceClasses {
        self.facts.equivalences()
    }

    /// The shared facts value (two streams hold the same facts when
    /// `Arc::ptr_eq` says so).
    pub fn facts(&self) -> &Arc<StreamFacts> {
        &self.facts
    }

    /// Returns the stream with an order property installed (index scans
    /// and sorts). The order is stored *reduced*, which both canonicalizes
    /// comparisons between plans and — for sorts — yields the minimal list
    /// of sort columns (paper §4.2).
    pub fn with_order(mut self, order: OrderSpec) -> StreamProps {
        self.order = self.ctx().reduce(&order);
        self
    }

    /// Applies a predicate to the stream: records it in the predicate
    /// property and feeds equivalence classes and FDs per the paper's §4.1
    /// mapping.
    pub fn apply_predicate(&mut self, id: PredId, pred: &Predicate) {
        if self.record_pred(id) {
            self.set_facts(self.facts.with_predicate(pred));
        }
    }

    /// Adds `id` to the predicate property; false when already applied.
    fn record_pred(&mut self, id: PredId) -> bool {
        match self.preds.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.preds.insert(pos, id);
                true
            }
        }
    }

    /// Points the stream at `facts`. The physical order of rows is
    /// unchanged by filtering; keep the order property but re-reduce it,
    /// since new constants may have shortened it.
    fn set_facts(&mut self, facts: Arc<StreamFacts>) {
        self.facts = facts;
        self.order = self.ctx().reduce(&self.order);
    }

    /// Properties after projecting the stream down to `keep`.
    ///
    /// * The order property survives up to the first sort column with no
    ///   retained equivalent (the context may substitute an equivalent
    ///   retained column, so `SELECT b.x ... WHERE a.x = b.x` keeps an
    ///   order on `a.x`).
    /// * FDs and equivalences are retained in full: they remain true
    ///   statements about the visible columns and may mention invisible
    ///   ones harmlessly.
    pub fn project(&self, keep: &ColSet) -> StreamProps {
        let cols = self.cols.intersection(keep);
        let (order, _complete) = self.ctx().homogenize_prefix(&self.order, &cols);
        StreamProps {
            cols,
            order,
            preds: self.preds.clone(),
            facts: Arc::clone(&self.facts),
        }
    }

    /// Adds columns computed from the stream's own, each given with the
    /// columns its expression reads: `{inputs} → {col}` holds by
    /// construction.
    pub fn add_computed_columns(&mut self, defs: impl IntoIterator<Item = (ColId, ColSet)>) {
        let mut defining_fds = Vec::new();
        for (col, inputs) in defs {
            self.cols.insert(col);
            defining_fds.push(Fd::new(inputs, ColSet::singleton(col)));
        }
        self.facts = self.facts.with_fds(defining_fds);
    }

    /// Properties after sorting the stream by `spec` (which the sort
    /// reduces to its minimal column list). Everything else passes through
    /// unchanged (paper §3: "a sort operator passes on all the properties
    /// of its input stream unchanged except for the order property").
    pub fn sorted(&self, spec: &OrderSpec) -> StreamProps {
        let mut out = self.clone();
        out.order = self.ctx().reduce(spec);
        out
    }

    /// Combines the properties of two join inputs, *before* the join's own
    /// predicates are applied:
    ///
    /// * available columns are the union;
    /// * applied predicates are the union (the inputs applied disjoint
    ///   sets);
    /// * FDs and equivalences are unioned (a key of either input stays a
    ///   key FD; once the join predicates equate an input's key to columns
    ///   of the other, those columns determine that input's columns);
    /// * the order property is `outer_order` — the caller passes the order
    ///   the join method actually preserves (the outer stream's order for
    ///   nested-loop and merge joins, or empty).
    ///
    /// The caller then applies the join predicates through
    /// [`StreamProps::apply_predicate`], which merges the equivalence
    /// classes.
    pub fn join(left: &StreamProps, right: &StreamProps, outer_order: OrderSpec) -> StreamProps {
        let facts = StreamFacts::union(&left.facts, &right.facts);
        StreamProps::joined(left, right, &outer_order, facts)
    }

    /// The join output over `facts`, which hold on it: the two inputs'
    /// facts for an inner join, the preserved side's for an outer join.
    fn joined(
        left: &StreamProps,
        right: &StreamProps,
        outer_order: &OrderSpec,
        facts: Arc<StreamFacts>,
    ) -> StreamProps {
        let mut preds = left.preds.clone();
        for p in &right.preds {
            if let Err(pos) = preds.binary_search(p) {
                preds.insert(pos, *p);
            }
        }
        StreamProps {
            cols: left.cols.union(&right.cols),
            order: facts.ctx.reduce(outer_order),
            preds,
            facts,
        }
    }

    /// Combines the properties of the two inputs of a left outer join
    /// that preserves `left`, *before* the ON predicates are recorded
    /// through [`StreamProps::apply_outer_join_predicate`].
    ///
    /// Null padding invalidates every fact local to the inner side (its
    /// constants, equivalences, and FDs no longer hold once unmatched
    /// rows carry NULLs), so the output keeps only the preserved side's
    /// facts; the preserved side's order survives.
    pub fn left_outer_join(left: &StreamProps, right: &StreamProps) -> StreamProps {
        let facts = Arc::clone(&left.facts);
        StreamProps::joined(left, right, &left.order, facts)
    }

    /// Records an outer-join ON predicate (paper §4.1): the predicate id
    /// joins the predicate property, and an equality `x = y` contributes
    /// only the one-directional FD `{x} → {y}` for `x` on the preserved
    /// side — never an equivalence class or a constant binding, because
    /// null-padded rows violate both.
    pub fn apply_outer_join_predicate(&mut self, id: PredId, pred: &Predicate, preserved: &ColSet) {
        if !self.record_pred(id) {
            return;
        }
        let fd = match pred.classify() {
            PredClass::ColEqCol(a, b) if preserved.contains(a) => Some(Fd::implies(a, b)),
            PredClass::ColEqCol(a, b) if preserved.contains(b) => Some(Fd::implies(b, a)),
            _ => None,
        };
        self.set_facts(self.facts.with_fds(fd));
    }

    /// Properties after a GROUP BY on `grouping` producing aggregate
    /// output columns `agg_cols` — DISTINCT when `grouping` is every
    /// column and `agg_cols` is empty.
    ///
    /// * The grouping columns are a key of the output: the FD
    ///   `{grouping} → {aggregates}` holds (paper §4.1).
    /// * For order-based (streaming) group-by the input order survives on
    ///   the grouping columns; the caller passes `input_order` for a
    ///   streaming group-by or `OrderSpec::empty()` for a hash group-by.
    pub fn group_by(
        &self,
        grouping: &ColSet,
        agg_cols: &ColSet,
        input_order: OrderSpec,
    ) -> StreamProps {
        let cols = grouping.union(agg_cols);
        let group_fd = (!agg_cols.is_empty()).then(|| Fd::key(grouping.clone(), cols.clone()));
        let facts = self.facts.with_fds(group_fd);
        let (order, _) = facts.ctx.homogenize_prefix(&input_order, &cols);
        StreamProps {
            cols,
            order,
            preds: self.preds.clone(),
            facts,
        }
    }

    /// Plan-comparison dominance for pruning (paper §5.2.1): `self` is at
    /// least as good as `other` on the property dimensions when
    ///
    /// * `self`'s order property satisfies `other`'s (reduced prefix), and
    /// * `self` has applied every predicate `other` has.
    ///
    /// Two plans with mutually incomparable properties must both be kept.
    pub fn dominates(&self, other: &StreamProps) -> bool {
        self.dominates_under(other, &other.order, self.ctx())
    }

    /// [`StreamProps::dominates`] with `other` taken as ordered by
    /// `other_order` — the part of its order that counts, which a planner
    /// may cut short of `other.order` when no operator can use the rest —
    /// and with an explicit reasoning context: pass
    /// [`OrderContext::trivial`] to compare orders verbatim (the paper's
    /// "order optimization disabled" baseline).
    pub fn dominates_under(
        &self,
        other: &StreamProps,
        other_order: &OrderSpec,
        ctx: &OrderContext,
    ) -> bool {
        ctx.test_order(other_order, &self.order)
            && other
                .preds
                .iter()
                .all(|p| self.preds.binary_search(p).is_ok())
    }
}

/// A facts value as a map key: two keys are equal when they are the same
/// allocation. Holding the `Arc` keeps that address from being reused
/// while the key lives.
struct ById(Arc<StreamFacts>);

impl PartialEq for ById {
    fn eq(&self, other: &ById) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for ById {}

impl Hash for ById {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Arc::as_ptr(&self.0).hash(state);
    }
}

/// Derived facts, remembered for as long as the memo lives.
///
/// The facts of a join result are a function of the facts of its inputs
/// and of the predicates applied on top, whatever the join method and
/// whatever orders the inputs arrive in. Join enumeration derives them
/// for thousands of plan pairs over a few hundred distinct combinations;
/// going through a memo builds each combination once and points all those
/// plans at the one value. [`FactsMemo::join`] and
/// [`FactsMemo::apply_predicate`] are [`StreamProps::join`] and
/// [`StreamProps::apply_predicate`] in every other respect.
///
/// A predicate is identified by its id, so a memo serves one query. The
/// keys are addresses and ids, so the maps hash without SipHash.
#[derive(Default)]
pub struct FactsMemo {
    unions: FxHashMap<(ById, ById), Arc<StreamFacts>>,
    filtered: FxHashMap<(ById, PredId), Arc<StreamFacts>>,
}

impl FactsMemo {
    /// [`StreamProps::join`], building the combined facts only the first
    /// time this pair of input facts is joined.
    pub fn join(
        &mut self,
        left: &StreamProps,
        right: &StreamProps,
        outer_order: &OrderSpec,
    ) -> StreamProps {
        let key = (
            ById(Arc::clone(&left.facts)),
            ById(Arc::clone(&right.facts)),
        );
        let facts = self
            .unions
            .entry(key)
            .or_insert_with(|| StreamFacts::union(&left.facts, &right.facts));
        StreamProps::joined(left, right, outer_order, Arc::clone(facts))
    }

    /// [`StreamProps::apply_predicate`], deriving the filtered facts only
    /// the first time `id` is applied to these facts.
    pub fn apply_predicate(&mut self, props: &mut StreamProps, id: PredId, pred: &Predicate) {
        if !props.record_pred(id) {
            return;
        }
        let facts = self
            .filtered
            .entry((ById(Arc::clone(&props.facts)), id))
            .or_insert_with(|| props.facts.with_predicate(pred));
        props.set_facts(Arc::clone(facts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextWork;
    use fto_common::Value;
    use fto_expr::Expr;

    fn c(i: u32) -> ColId {
        ColId(i)
    }

    fn cs(ids: &[u32]) -> ColSet {
        ids.iter().map(|&i| ColId(i)).collect()
    }

    fn asc(ids: &[u32]) -> OrderSpec {
        OrderSpec::ascending(ids.iter().map(|&i| ColId(i)))
    }

    fn base() -> StreamProps {
        // Table with columns 0..4, key {0}.
        StreamProps::base_table(cs(&[0, 1, 2, 3]), vec![cs(&[0])])
    }

    #[test]
    fn base_table_key_fd() {
        let p = base();
        assert!(p.fds().determines(&cs(&[0]), c(3)));
        assert!(!p.fds().determines(&cs(&[1, 2, 3]), c(0)));
        assert_eq!(p.ctx().reduce(&asc(&[0, 3, 1])), asc(&[0]));
        assert!(p.order.is_empty());
        assert!(p.preds.is_empty());
    }

    #[test]
    fn with_order_reduces() {
        // Key {0}: an index order (0, 1) stores as (0).
        let p = base().with_order(asc(&[0, 1]));
        assert_eq!(p.order, asc(&[0]));
    }

    #[test]
    fn apply_constant_predicate_shortens_order() {
        let mut p = base().with_order(asc(&[1, 2]));
        p.apply_predicate(PredId(0), &Predicate::col_eq_const(c(1), Value::Int(5)));
        assert_eq!(p.order, asc(&[2]));
        assert_eq!(p.preds, vec![PredId(0)]);
        assert!(p.equivalences().is_constant(c(1)));
    }

    #[test]
    fn apply_predicate_is_idempotent() {
        let mut p = base();
        let pred = Predicate::col_eq_col(c(1), c(2));
        p.apply_predicate(PredId(3), &pred);
        p.apply_predicate(PredId(3), &pred);
        assert_eq!(p.preds, vec![PredId(3)]);
        assert!(p.equivalences().same_class(c(1), c(2)));
    }

    #[test]
    fn constant_on_key_gives_one_record() {
        // At most one row: every column is determined, so no order
        // remains to be had.
        let mut p = base().with_order(asc(&[2, 1]));
        p.apply_predicate(PredId(0), &Predicate::col_eq_const(c(0), Value::Int(9)));
        assert!(p.order.is_empty());
        assert!(p.ctx().reduce(&asc(&[3, 1, 2])).is_empty());
        assert!(p.fds().determines(&ColSet::new(), c(3)));
    }

    #[test]
    fn composite_key_bound_to_constants_gives_one_record() {
        // Key {0, 1}: binding one column leaves the other determining
        // every column; binding both leaves at most one row.
        let mut p = StreamProps::base_table(cs(&[0, 1, 2, 3]), vec![cs(&[0, 1])]);
        p.apply_predicate(PredId(0), &Predicate::col_eq_const(c(0), Value::Int(5)));
        assert_eq!(p.ctx().reduce(&asc(&[2])), asc(&[2]));
        assert_eq!(p.ctx().reduce(&asc(&[1, 2, 3])), asc(&[1]));
        p.apply_predicate(PredId(1), &Predicate::col_eq_const(c(1), Value::Int(6)));
        assert!(p.ctx().reduce(&asc(&[2, 3])).is_empty());
        assert!(p.ctx().fds().determines_all(&ColSet::new(), &cs(&[2, 3])));
    }

    #[test]
    fn key_fd_determines_from_supersets_only() {
        let cols = cs(&[1, 2, 3]);
        let keyed = StreamProps::base_table(cols.clone(), vec![cs(&[1, 2])]);
        assert!(keyed.fds().determines_all(&cs(&[1, 2]), &cols));
        assert!(keyed.fds().determines_all(&cs(&[1, 2, 3]), &cols));
        assert!(!keyed.fds().determines(&cs(&[1]), c(3)));
        let unkeyed = StreamProps::base_table(cols, vec![]);
        assert!(!unkeyed.fds().determines(&cs(&[1]), c(2)));
    }

    #[test]
    fn empty_key_gives_one_record() {
        // The empty key determines every column from nothing, and so
        // subsumes any other key.
        for keys in [vec![ColSet::new()], vec![cs(&[1]), ColSet::new()]] {
            let p = StreamProps::base_table(cs(&[1, 2]), keys);
            assert!(p.fds().determines_all(&ColSet::new(), &cs(&[1, 2])));
            assert!(p.ctx().reduce(&asc(&[2, 1])).is_empty());
            assert!(p.with_order(asc(&[1])).order.is_empty());
        }
    }

    /// Left: columns {0, 1, 2} with `left_keys`; right: columns {10, 11}
    /// with key {10}; joined on `l = r`.
    fn keyed_join(left_keys: &[&[u32]], l: u32, r: u32) -> StreamProps {
        let keys = left_keys.iter().map(|k| cs(k)).collect();
        let left = StreamProps::base_table(cs(&[0, 1, 2]), keys);
        let right = StreamProps::base_table(cs(&[10, 11]), vec![cs(&[10])]);
        let mut joined = StreamProps::join(&left, &right, OrderSpec::empty());
        joined.apply_predicate(PredId(0), &Predicate::col_eq_col(c(l), c(r)));
        joined
    }

    #[test]
    fn n_to_1_join_left_key_determines_every_column() {
        // 2 = 10 qualifies the right key: the left key {0} determines
        // every column, the right key does not determine the left's.
        let j = keyed_join(&[&[0]], 2, 10);
        assert_eq!(j.ctx().reduce(&asc(&[0, 11, 10, 2, 1])), asc(&[0]));
        assert_eq!(j.ctx().reduce(&asc(&[10, 0])).len(), 2);
    }

    #[test]
    fn one_to_n_join_right_key_determines_every_column() {
        // 0 = 11 qualifies the left key: the right key {10} determines
        // every column, the left key does not determine the right's.
        let j = keyed_join(&[&[0]], 0, 11);
        assert_eq!(j.ctx().reduce(&asc(&[10, 0, 1, 2, 11])), asc(&[10]));
        assert_eq!(j.ctx().reduce(&asc(&[0, 10])).len(), 2);
    }

    #[test]
    fn one_to_one_join_either_key_determines_every_column() {
        let j = keyed_join(&[&[0]], 0, 10);
        let head = j.equivalences().head(c(0));
        assert_eq!(j.ctx().reduce(&asc(&[0, 1, 2, 11])), asc(&[head.0]));
        assert_eq!(j.ctx().reduce(&asc(&[10, 11, 1, 2])), asc(&[head.0]));
        assert!(j.fds().determines(&cs(&[0]), c(2)));
        assert!(j.fds().determines(&cs(&[10]), c(11)));
    }

    #[test]
    fn m_to_n_join_key_pair_determines_every_column() {
        // 2 = 11 qualifies neither key: a left key and the right key
        // together determine every column, neither alone does.
        let j = keyed_join(&[&[0], &[1]], 2, 11);
        assert_eq!(j.ctx().reduce(&asc(&[0, 10, 1, 2, 11])), asc(&[0, 10]));
        assert_eq!(j.ctx().reduce(&asc(&[1, 10, 0, 2, 11])), asc(&[1, 10]));
        assert_eq!(j.ctx().reduce(&asc(&[0, 10])), asc(&[0, 10]));
        assert_eq!(j.ctx().reduce(&asc(&[10, 0])), asc(&[10, 0]));
    }

    #[test]
    fn project_keeps_order_through_equivalents() {
        // Order on column 1; 1 = 2 applied; project away 1 but keep 2.
        let mut p = StreamProps::base_table(cs(&[1, 2, 3]), vec![]);
        p = p.with_order(asc(&[1]));
        p.apply_predicate(PredId(0), &Predicate::col_eq_col(c(1), c(2)));
        let projected = p.project(&cs(&[2, 3]));
        assert_eq!(projected.order, asc(&[2]));
        assert_eq!(projected.cols, cs(&[2, 3]));
    }

    #[test]
    fn project_truncates_order_at_lost_column() {
        let p = StreamProps::base_table(cs(&[1, 2, 3]), vec![]).with_order(asc(&[1, 2, 3]));
        let projected = p.project(&cs(&[1, 3]));
        assert_eq!(projected.order, asc(&[1]));
    }

    #[test]
    fn sorted_replaces_order_only() {
        let mut p = base();
        p.apply_predicate(PredId(0), &Predicate::col_eq_col(c(1), c(2)));
        let s = p.sorted(&asc(&[2, 1, 3]));
        // 1 = 2 merges: (2,1,3) reduces to (1,3) in head space.
        assert_eq!(s.order, asc(&[1, 3]));
        assert_eq!(s.preds, p.preds);
    }

    #[test]
    fn join_combines_properties() {
        // Left: cols 0..2, key {0}; right: cols 10..12, key {10}.
        let left = StreamProps::base_table(cs(&[0, 1, 2]), vec![cs(&[0])]).with_order(asc(&[1]));
        let right = StreamProps::base_table(cs(&[10, 11]), vec![cs(&[10])]);
        // join predicate: 1 = 10 (n-to-1: right key fully qualified).
        let mut joined = StreamProps::join(&left, &right, left.order.clone());
        joined.apply_predicate(PredId(5), &Predicate::col_eq_col(c(1), c(10)));
        assert_eq!(joined.cols, cs(&[0, 1, 2, 10, 11]));
        // n-to-1: the left key {0} still determines every column.
        assert_eq!(joined.ctx().reduce(&asc(&[0, 11, 2, 10])), asc(&[0]));
        // Order on the outer is preserved.
        assert_eq!(joined.order, asc(&[1]));
        // Equivalence 1 = 10 holds downstream.
        assert!(joined.equivalences().same_class(c(1), c(10)));
        // Key FD from the right side flows through: {10} -> {11}.
        assert!(joined.fds().determines(&cs(&[10]), c(11)));
        // And via equivalence, {1} -> {11}.
        assert!(joined.ctx().fds().determines(&cs(&[1]), c(11)));
    }

    #[test]
    fn group_by_props() {
        let p = base().with_order(asc(&[1, 2]));
        let out = p.group_by(&cs(&[1, 2]), &cs(&[7]), asc(&[1, 2]));
        assert_eq!(out.cols, cs(&[1, 2, 7]));
        assert!(out.fds().determines(&cs(&[1, 2]), c(7)));
        assert_eq!(out.ctx().reduce(&asc(&[1, 2, 7])), asc(&[1, 2]));
        assert_eq!(out.order, asc(&[1, 2]));
    }

    #[test]
    fn hash_group_by_has_no_order() {
        let p = base().with_order(asc(&[1]));
        let out = p.group_by(&cs(&[1]), &cs(&[7]), OrderSpec::empty());
        assert!(out.order.is_empty());
    }

    #[test]
    fn distinct_makes_all_columns_a_key() {
        let p = StreamProps::base_table(cs(&[1, 2]), vec![]);
        // DISTINCT: a grouping on every column with no aggregates.
        // Every column together is trivially a key; no smaller set is.
        let d = p.group_by(&p.cols, &ColSet::new(), OrderSpec::empty());
        assert_eq!(d.cols, cs(&[1, 2]));
        assert!(!d.fds().determines(&cs(&[1]), c(2)));
        assert_eq!(d.ctx().reduce(&asc(&[1, 2])), asc(&[1, 2]));
    }

    #[test]
    fn operations_that_state_no_fact_share_the_facts() {
        let mut p = base().with_order(asc(&[1, 2]));
        p.apply_predicate(PredId(0), &Predicate::col_eq_col(c(1), c(2)));
        let before = ContextWork::snapshot();
        let mut opaque = p.clone();
        opaque.apply_predicate(PredId(1), &Predicate::eq(Expr::col(c(3)), Expr::col(c(3))));
        let group_no_aggs = p.group_by(&cs(&[1]), &ColSet::new(), asc(&[1]));
        let mut no_columns = p.clone();
        no_columns.add_computed_columns([]);
        for same in [
            p.clone().with_order(asc(&[3])),
            p.sorted(&asc(&[3, 0])),
            p.project(&cs(&[0, 1])),
            p.group_by(&p.cols, &ColSet::new(), p.order.clone()),
            opaque,
            group_no_aggs,
            no_columns,
        ] {
            assert!(Arc::ptr_eq(same.facts(), p.facts()));
        }
        assert_eq!(ContextWork::snapshot().since(before).contexts_built, 0);
    }

    #[test]
    fn operations_that_state_a_fact_build_one_context() {
        let built = |f: &dyn Fn()| {
            let before = ContextWork::snapshot();
            f();
            ContextWork::snapshot().since(before).contexts_built
        };
        let p = base();
        let other = StreamProps::base_table(cs(&[10, 11]), vec![cs(&[10])]);
        assert_eq!(built(&|| drop(base())), 1);
        assert_eq!(
            built(&|| p
                .clone()
                .apply_predicate(PredId(0), &Predicate::col_eq_const(c(1), Value::Int(5)))),
            1
        );
        assert_eq!(
            built(&|| drop(StreamProps::join(&p, &other, OrderSpec::empty()))),
            1
        );
        assert_eq!(
            built(&|| drop(p.group_by(&cs(&[1]), &cs(&[7]), OrderSpec::empty()))),
            1
        );
        assert_eq!(
            built(&|| p
                .clone()
                .add_computed_columns([(c(8), cs(&[1])), (c(9), cs(&[2, 3]))])),
            1
        );
        // The preserved side's facts carry over; only an ON equality
        // from that side states something new.
        assert_eq!(
            built(&|| {
                let mut oj = StreamProps::left_outer_join(&p, &other);
                assert!(Arc::ptr_eq(oj.facts(), p.facts()));
                oj.apply_outer_join_predicate(
                    PredId(0),
                    &Predicate::col_eq_const(c(11), Value::Int(1)),
                    &p.cols,
                );
                assert!(Arc::ptr_eq(oj.facts(), p.facts()));
                oj.apply_outer_join_predicate(
                    PredId(1),
                    &Predicate::col_eq_col(c(1), c(10)),
                    &p.cols,
                );
                assert!(oj.fds().determines(&cs(&[1]), c(10)));
                assert!(!oj.equivalences().same_class(c(1), c(10)));
            }),
            1
        );
    }

    #[test]
    fn memo_builds_each_derivation_once_and_changes_no_answer() {
        let left = base().with_order(asc(&[1]));
        let right = StreamProps::base_table(cs(&[10, 11]), vec![cs(&[10])]);
        let pred = Predicate::col_eq_col(c(1), c(10));
        let direct = {
            let mut j = StreamProps::join(&left, &right, left.order.clone());
            j.apply_predicate(PredId(5), &pred);
            j
        };
        let mut memo = FactsMemo::default();
        let before = ContextWork::snapshot();
        let via_memo: Vec<StreamProps> = [left.clone(), left.sorted(&asc(&[2]))]
            .iter()
            .map(|outer| {
                let mut j = memo.join(outer, &right, &outer.order);
                memo.apply_predicate(&mut j, PredId(5), &pred);
                memo.apply_predicate(&mut j, PredId(5), &pred);
                j
            })
            .collect();
        // One union and one filtered value for both outers.
        assert_eq!(ContextWork::snapshot().since(before).contexts_built, 2);
        assert!(Arc::ptr_eq(via_memo[0].facts(), via_memo[1].facts()));
        assert_eq!(via_memo[0].order, direct.order);
        assert_eq!(via_memo[0].preds, direct.preds);
        assert_eq!(via_memo[0].fds(), direct.fds());
        // A different pair of inputs is a different entry.
        let other = memo.join(&right, &left, &right.order);
        assert!(!Arc::ptr_eq(other.facts(), via_memo[0].facts()));
    }

    #[test]
    fn dominance() {
        let unordered = base();
        let ordered = base().with_order(asc(&[1]));
        // An ordered stream dominates an unordered one (other things equal)
        assert!(ordered.dominates(&unordered));
        assert!(!unordered.dominates(&ordered));
        // More predicates applied dominates fewer.
        let mut filtered = base();
        filtered.apply_predicate(PredId(0), &Predicate::eq(Expr::col(c(2)), Expr::int(5)));
        assert!(filtered.dominates(&base()));
        assert!(!base().dominates(&filtered));
        // Incomparable: one has an order (on c1), the other a predicate
        // (on the unrelated c2).
        assert!(!ordered.dominates(&filtered));
        assert!(!filtered.dominates(&ordered));
        // But a predicate binding the *order* column to a constant makes
        // that order trivial: the filtered plan then dominates.
        let mut binds_order_col = base();
        binds_order_col.apply_predicate(PredId(1), &Predicate::eq(Expr::col(c(1)), Expr::int(5)));
        assert!(binds_order_col.dominates(&ordered));
        // Taken as ordered by a prefix of its order, a stream is at most
        // as good as one ordered by that prefix.
        let longer = base().with_order(asc(&[1, 2]));
        assert!(!ordered.dominates(&longer));
        assert!(ordered.dominates_under(&longer, &asc(&[1]), ordered.ctx()));
        assert!(!unordered.dominates_under(&longer, &asc(&[1]), unordered.ctx()));
    }

    #[test]
    fn dominance_on_keys() {
        // A key counts in dominance through its dependency alone: on a
        // stream keyed by {0}, (0) satisfies (0, 1); on an unkeyed one it
        // does not.
        let keyed = StreamProps::base_table(cs(&[0, 1]), vec![cs(&[0])]);
        assert!(keyed
            .clone()
            .with_order(asc(&[0]))
            .dominates(&keyed.clone().with_order(asc(&[0, 1]))));
        let unkeyed = StreamProps::base_table(cs(&[0, 1]), vec![]);
        assert!(!unkeyed
            .clone()
            .with_order(asc(&[0]))
            .dominates(&unkeyed.clone().with_order(asc(&[0, 1]))));
        // A key with nothing else to tell them apart decides nothing.
        assert!(unkeyed.dominates(&keyed) && keyed.dominates(&unkeyed));
    }
}
