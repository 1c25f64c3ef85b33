//! [`OrderContext`]: the four fundamental operations of the paper —
//! *Reduce Order* (Fig. 2), *Test Order* (Fig. 3), *Cover Order* (Fig. 4)
//! and *Homogenize Order* (Fig. 5) — evaluated against a set of applied
//! predicates (as equivalence classes) and functional dependencies.
//!
//! A context is immutable once built, and building one is the expensive
//! step (a head-space rewrite of every dependency), so it is built once
//! per distinct set of facts and shared: a stream's context lives in the
//! [`StreamFacts`](crate::props::StreamFacts) that its
//! [`StreamProps`](crate::props::StreamProps) points at, and every plan
//! with the same facts borrows the same context. Because it is shared and
//! outlives single calls, the context also remembers the reductions it
//! has computed; that memo is owned by the context and dropped with it.

use crate::eqclass::EquivalenceClasses;
use crate::fd::FdSet;
use crate::spec::{OrderSpec, SortKey};
use fto_common::{ColId, ColSet, FxHashMap};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Order-reasoning work done on the current thread: how many contexts
/// were built from facts, how many reductions a context answered from
/// its memo, and how often each of the paper's four operations was
/// called. The operations run hundreds of thousands of times under one
/// join enumeration, so they are counted here and never logged. Counters
/// only grow; a caller that wants the work of one planning run subtracts
/// two [`ContextWork::snapshot`]s taken on the thread that planned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContextWork {
    /// Calls of [`OrderContext::new`].
    pub contexts_built: u64,
    /// Calls of [`OrderContext::reduce`] answered from the memo.
    pub reduce_memo_hits: u64,
    /// Calls of [`OrderContext::reduce`] (paper Fig. 2), the ones the
    /// other three operations make included.
    pub reduce: u64,
    /// Calls of [`OrderContext::test_order`] (paper Fig. 3).
    pub test_order: u64,
    /// Calls of [`OrderContext::cover`] (paper Fig. 4).
    pub cover: u64,
    /// Calls of [`OrderContext::homogenize`] and
    /// [`OrderContext::homogenize_prefix`] (paper Fig. 5).
    pub homogenize: u64,
}

/// The thread's running totals, one cell per counter so that counting a
/// call is one load and one store.
struct Tally {
    contexts_built: Cell<u64>,
    reduce_memo_hits: Cell<u64>,
    reduce: Cell<u64>,
    test_order: Cell<u64>,
    cover: Cell<u64>,
    homogenize: Cell<u64>,
}

thread_local! {
    static WORK: Tally = const {
        Tally {
            contexts_built: Cell::new(0),
            reduce_memo_hits: Cell::new(0),
            reduce: Cell::new(0),
            test_order: Cell::new(0),
            cover: Cell::new(0),
            homogenize: Cell::new(0),
        }
    };
}

/// Adds one to the counter `pick` names.
fn count(pick: fn(&Tally) -> &Cell<u64>) {
    WORK.with(|w| {
        let counter = pick(w);
        counter.set(counter.get() + 1);
    });
}

impl ContextWork {
    /// The current thread's totals.
    pub fn snapshot() -> ContextWork {
        WORK.with(|w| ContextWork {
            contexts_built: w.contexts_built.get(),
            reduce_memo_hits: w.reduce_memo_hits.get(),
            reduce: w.reduce.get(),
            test_order: w.test_order.get(),
            cover: w.cover.get(),
            homogenize: w.homogenize.get(),
        })
    }

    /// The work done between `earlier` and this snapshot.
    pub fn since(self, earlier: ContextWork) -> ContextWork {
        ContextWork {
            contexts_built: self.contexts_built - earlier.contexts_built,
            reduce_memo_hits: self.reduce_memo_hits - earlier.reduce_memo_hits,
            reduce: self.reduce - earlier.reduce,
            test_order: self.test_order - earlier.test_order,
            cover: self.cover - earlier.cover,
            homogenize: self.homogenize - earlier.homogenize,
        }
    }
}

/// The reasoning context for order operations: the equivalence classes and
/// functional dependencies that hold on a stream.
///
/// Internally all FD reasoning happens in *head space*: every column of
/// every dependency is rewritten to its equivalence-class head, and every
/// constant-bound class contributes the empty-headed FD `{} → {head}`.
/// This makes the subset/closure tests of reduction insensitive to which
/// member of a class a specification happens to mention.
#[derive(Debug)]
pub struct OrderContext {
    eq: EquivalenceClasses,
    norm_fds: FdSet,
    /// Reductions already computed, by input specification. Every other
    /// operation starts by reducing its arguments, and a planner asks
    /// about the same few interesting orders over and over. A mutex, not
    /// a `RefCell`: plans holding the context are shared across executor
    /// threads. Keyed by column ids, so hashed without SipHash.
    reduced: Mutex<FxHashMap<OrderSpec, OrderSpec>>,
}

impl OrderContext {
    /// Builds a context from equivalence classes and raw FDs.
    pub fn new(eq: EquivalenceClasses, fds: &FdSet) -> OrderContext {
        let mut norm_fds = fds.map_cols(|c| eq.head(c));
        for head in eq_constant_heads(&eq) {
            norm_fds.add_constant(head);
        }
        count(|w| &w.contexts_built);
        OrderContext {
            eq,
            norm_fds,
            reduced: Mutex::default(),
        }
    }

    /// A context with no knowledge: reduction only removes duplicate
    /// columns (via reflexivity).
    pub fn trivial() -> OrderContext {
        OrderContext {
            eq: EquivalenceClasses::new(),
            norm_fds: FdSet::new(),
            reduced: Mutex::default(),
        }
    }

    /// The context's equivalence classes.
    pub fn equivalences(&self) -> &EquivalenceClasses {
        &self.eq
    }

    /// The context's normalized (head-space) functional dependencies.
    pub fn fds(&self) -> &FdSet {
        &self.norm_fds
    }

    /// **Reduce Order** (paper Fig. 2).
    ///
    /// Rewrites the specification into canonical form:
    /// 1. substitute every column with its equivalence-class head;
    /// 2. scanning backwards, remove column `cᵢ` whenever the columns
    ///    preceding it functionally determine it — which covers columns
    ///    bound to constants (`{} → {c}`), duplicate columns
    ///    (reflexivity), and key-implied suffixes (`{key} → {all}`).
    ///
    /// The result may be empty, in which case any stream satisfies it.
    /// When a sort is unavoidable, the reduced specification is also the
    /// *minimal* list of sort columns (paper §4.2).
    pub fn reduce(&self, spec: &OrderSpec) -> OrderSpec {
        count(|w| &w.reduce);
        if spec.is_empty() {
            OrderSpec::empty()
        } else {
            self.reduce_memoized(spec)
        }
    }

    /// The reduction memo, locked. Entries are complete pairs, so the map
    /// is as good after a holder's panic as before it.
    fn memo(&self) -> MutexGuard<'_, FxHashMap<OrderSpec, OrderSpec>> {
        self.reduced.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn reduce_memoized(&self, spec: &OrderSpec) -> OrderSpec {
        let mut memo = self.memo();
        if let Some(hit) = memo.get(spec) {
            count(|w| &w.reduce_memo_hits);
            return hit.clone();
        }
        let reduced = self.reduce_uncached(spec);
        memo.insert(spec.clone(), reduced.clone());
        reduced
    }

    fn reduce_uncached(&self, spec: &OrderSpec) -> OrderSpec {
        let mut reduced = spec.map_cols(|c| self.eq.head(c));
        let mut i = reduced.len();
        while i > 0 {
            i -= 1;
            let col = reduced.keys()[i].col;
            let prefix: ColSet = reduced.keys()[..i].iter().map(|k| k.col).collect();
            if self.norm_fds.determines(&prefix, col) {
                reduced.remove(i);
            }
        }
        reduced
    }

    /// **Test Order** (paper Fig. 3): does order property `prop` satisfy
    /// interesting order `interest`?
    ///
    /// Both are reduced; the test succeeds when the reduced interesting
    /// order is empty or a direction-respecting prefix of the reduced
    /// property.
    ///
    /// It is the planner's hottest question (every dominance comparison in
    /// pruning asks it), so it holds the memo's lock once for both
    /// reductions and compares them where they lie. It does, and counts,
    /// the same work as `reduce(interest)` followed — unless that is
    /// empty — by `reduce(prop)`.
    pub fn test_order(&self, interest: &OrderSpec, prop: &OrderSpec) -> bool {
        count(|w| &w.test_order);
        count(|w| &w.reduce);
        if interest.is_empty() {
            return true;
        }
        let mut memo = self.memo();
        let (satisfied, prop_reduced) = match memo.get(interest) {
            Some(ri) => {
                count(|w| &w.reduce_memo_hits);
                if ri.is_empty() {
                    return true;
                }
                self.prefix_of_reduced(&memo, ri, prop)
            }
            None => {
                // Remembered before `prop` is looked up, as `reduce` would.
                let ri = self.reduce_uncached(interest);
                memo.insert(interest.clone(), ri.clone());
                if ri.is_empty() {
                    return true;
                }
                self.prefix_of_reduced(&memo, &ri, prop)
            }
        };
        if let Some(rp) = prop_reduced {
            memo.insert(prop.clone(), rp);
        }
        satisfied
    }

    /// Whether the non-empty reduced interest `ri` is a prefix of `prop`'s
    /// reduction, read from `memo`; on a miss, also the reduction for the
    /// caller to remember once it lets go of `ri`.
    fn prefix_of_reduced(
        &self,
        memo: &FxHashMap<OrderSpec, OrderSpec>,
        ri: &OrderSpec,
        prop: &OrderSpec,
    ) -> (bool, Option<OrderSpec>) {
        count(|w| &w.reduce);
        if prop.is_empty() {
            return (false, None);
        }
        match memo.get(prop) {
            Some(rp) => {
                count(|w| &w.reduce_memo_hits);
                (ri.is_prefix_of(rp), None)
            }
            None => {
                let rp = self.reduce_uncached(prop);
                (ri.is_prefix_of(&rp), Some(rp))
            }
        }
    }

    /// Splits interesting order `interest` against order property `prop`
    /// into a *(satisfied-prefix, residual-suffix)* pair — the partial
    /// form of **Test Order**.
    ///
    /// Both specifications are reduced (so the split sees through
    /// constants, equivalences, and FD-implied columns exactly like
    /// [`OrderContext::test_order`]); the prefix is the longest common
    /// prefix of the two reduced specifications and the suffix is the
    /// rest of the reduced interest. Invariants:
    ///
    /// * `prefix.concat(&suffix) == self.reduce(interest)`;
    /// * `suffix.is_empty()` exactly when
    ///   `self.test_order(interest, prop)` holds;
    /// * every prefix of the returned prefix is itself satisfied by
    ///   `prop` (reduction is prefix-monotone), so a stream ordered by
    ///   `prop` delivers rows grouped contiguously by the prefix columns
    ///   — a sort only needs to run *within* each prefix group to
    ///   enforce the full requirement (segmented sort).
    pub fn split_requirement(
        &self,
        interest: &OrderSpec,
        prop: &OrderSpec,
    ) -> (OrderSpec, OrderSpec) {
        let ri = self.reduce(interest);
        let rp = self.reduce(prop);
        let k = ri
            .keys()
            .iter()
            .zip(rp.keys())
            .take_while(|(a, b)| a == b)
            .count();
        let prefix = OrderSpec::new(ri.keys()[..k].to_vec());
        let suffix = OrderSpec::new(ri.keys()[k..].to_vec());
        (prefix, suffix)
    }

    /// **Cover Order** (paper Fig. 4): combine two interesting orders into
    /// one specification `C` such that any order property satisfying `C`
    /// satisfies both inputs. Returns `None` when no cover exists.
    pub fn cover(&self, i1: &OrderSpec, i2: &OrderSpec) -> Option<OrderSpec> {
        count(|w| &w.cover);
        let r1 = self.reduce(i1);
        let r2 = self.reduce(i2);
        if r1.is_prefix_of(&r2) {
            Some(r2)
        } else if r2.is_prefix_of(&r1) {
            Some(r1)
        } else {
            None
        }
    }

    /// **Homogenize Order** (paper Fig. 5): rewrite interesting order
    /// `interest` in terms of the target columns `targets`, substituting
    /// each column with an equivalent column from the target set.
    ///
    /// Unlike reduction, *any* member of the equivalence class may be
    /// chosen (the smallest available one, for determinism), and the
    /// equivalence classes here are typically the query-global ones —
    /// columns that will only become equivalent through join predicates
    /// applied later still qualify, because homogenization produces an
    /// order that must eventually satisfy `interest` (paper §4.4).
    ///
    /// The complete case of [`OrderContext::homogenize_prefix`]: `None`
    /// when some column has no equivalent in the target.
    pub fn homogenize(&self, interest: &OrderSpec, targets: &ColSet) -> Option<OrderSpec> {
        match self.homogenize_prefix(interest, targets) {
            (out, true) => Some(out),
            (_, false) => None,
        }
    }

    /// The optimistic variant used by the order scan (paper §5.1): when
    /// full homogenization fails, the largest homogenizable *prefix* is
    /// returned, in the hope that a functional dependency discovered during
    /// planning makes the lost suffix redundant. The boolean reports
    /// whether the whole specification was homogenized.
    pub fn homogenize_prefix(&self, interest: &OrderSpec, targets: &ColSet) -> (OrderSpec, bool) {
        count(|w| &w.homogenize);
        let reduced = self.reduce(interest);
        let mut out = OrderSpec::empty();
        for key in reduced.keys() {
            let Some(col) = self.class_member_in(key.col, targets) else {
                return (out, false);
            };
            out.push(SortKey { col, dir: key.dir });
        }
        (out, true)
    }

    /// The smallest member of `col`'s equivalence class contained in
    /// `targets`, if any.
    fn class_member_in(&self, col: ColId, targets: &ColSet) -> Option<ColId> {
        if targets.contains(col) {
            return Some(col);
        }
        self.eq
            .members(col)
            .into_iter()
            .find(|m| targets.contains(*m))
    }
}

/// Enumerates the heads of constant-bound equivalence classes.
fn eq_constant_heads(eq: &EquivalenceClasses) -> Vec<ColId> {
    // `members` only enumerates columns mentioned in merges/bindings, which
    // is exactly the set we need: untouched columns have no constants.
    let mut heads = Vec::new();
    let mut seen = ColSet::new();
    let upper = eq_universe(eq);
    for i in 0..upper {
        let c = ColId(i);
        let h = eq.head(c);
        if !seen.insert(h) {
            continue;
        }
        if eq.is_constant(h) {
            heads.push(h);
        }
    }
    heads
}

fn eq_universe(eq: &EquivalenceClasses) -> u32 {
    // The union-find only stores columns that were mentioned; probing heads
    // beyond that range returns the column itself with no constant, so a
    // generous upper bound would also be correct but wasteful. We recover
    // the exact bound through members() of column 0 being cheap; instead
    // EquivalenceClasses exposes its size via known_columns().
    eq.known_columns()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_common::Value;

    fn c(i: u32) -> ColId {
        ColId(i)
    }

    fn cs(ids: &[u32]) -> ColSet {
        ids.iter().map(|&i| ColId(i)).collect()
    }

    fn asc(ids: &[u32]) -> OrderSpec {
        OrderSpec::ascending(ids.iter().map(|&i| ColId(i)))
    }

    /// Paper §4.1 motivating example: I = (x, y), OP = (y), predicate
    /// x = 10 applied. x is bound to a constant, so I reduces to (y) and
    /// OP satisfies it — no sort needed.
    #[test]
    fn reduce_removes_constant_bound_column() {
        let mut eq = EquivalenceClasses::new();
        eq.bind_constant(c(0), Value::Int(10)); // x = 10
        let ctx = OrderContext::new(eq, &FdSet::new());
        let interest = asc(&[0, 1]); // (x, y)
        let prop = asc(&[1]); // (y)
        assert_eq!(ctx.reduce(&interest), asc(&[1]));
        assert!(ctx.test_order(&interest, &prop));
    }

    /// Paper §4.1: I = (x, z), OP = (y, z), predicate x = y applied.
    /// The equivalence class lets OP rewrite to (x, z), satisfying I.
    #[test]
    fn reduce_uses_equivalence_classes() {
        let mut eq = EquivalenceClasses::new();
        eq.merge(c(0), c(1)); // x = y
        let ctx = OrderContext::new(eq, &FdSet::new());
        let interest = asc(&[0, 2]); // (x, z)
        let prop = asc(&[1, 2]); // (y, z)
        assert!(ctx.test_order(&interest, &prop));
        // Both reduce to head space: x is the head of {x, y}.
        assert_eq!(ctx.reduce(&prop), asc(&[0, 2]));
    }

    /// Paper §4.1: I = (x, y), OP = (x, z), x a key. Both reduce to (x).
    #[test]
    fn reduce_uses_keys_via_fds() {
        let mut fds = FdSet::new();
        fds.add_key(cs(&[0]), cs(&[0, 1, 2]));
        let ctx = OrderContext::new(EquivalenceClasses::new(), &fds);
        assert_eq!(ctx.reduce(&asc(&[0, 1])), asc(&[0]));
        assert_eq!(ctx.reduce(&asc(&[0, 2])), asc(&[0]));
        assert!(ctx.test_order(&asc(&[0, 1]), &asc(&[0, 2])));
    }

    /// Paper §4.1: an order on a constant-bound column reduces to empty,
    /// which any stream satisfies.
    #[test]
    fn reduce_to_empty() {
        let mut eq = EquivalenceClasses::new();
        eq.bind_constant(c(3), Value::Int(7));
        let ctx = OrderContext::new(eq, &FdSet::new());
        assert!(ctx.reduce(&asc(&[3])).is_empty());
        assert!(ctx.test_order(&asc(&[3]), &OrderSpec::empty()));
    }

    #[test]
    fn reduce_removes_duplicates_via_reflexivity() {
        let ctx = OrderContext::trivial();
        let spec = asc(&[1, 2, 1]);
        assert_eq!(ctx.reduce(&spec), asc(&[1, 2]));
    }

    #[test]
    fn reduce_is_idempotent() {
        let mut eq = EquivalenceClasses::new();
        eq.merge(c(0), c(4));
        eq.bind_constant(c(2), Value::Int(1));
        let mut fds = FdSet::new();
        fds.add_key(cs(&[4]), cs(&[0, 1, 2, 3, 4, 5]));
        let ctx = OrderContext::new(eq, &fds);
        let spec = asc(&[2, 4, 1, 5]);
        let once = ctx.reduce(&spec);
        assert_eq!(ctx.reduce(&once), once);
    }

    #[test]
    fn directions_survive_reduction() {
        let mut eq = EquivalenceClasses::new();
        eq.merge(c(0), c(5));
        let ctx = OrderContext::new(eq, &FdSet::new());
        let spec = OrderSpec::new(vec![SortKey::desc(c(5)), SortKey::asc(c(1))]);
        let reduced = ctx.reduce(&spec);
        assert_eq!(
            reduced,
            OrderSpec::new(vec![SortKey::desc(c(0)), SortKey::asc(c(1))])
        );
    }

    #[test]
    fn test_order_respects_direction() {
        let ctx = OrderContext::trivial();
        let i = OrderSpec::new(vec![SortKey::desc(c(1))]);
        let p = OrderSpec::new(vec![SortKey::asc(c(1))]);
        assert!(!ctx.test_order(&i, &p));
        assert!(ctx.test_order(&i, &i));
    }

    /// Paper §4.3: cover of (x) and (x, y) is (x, y); (y, x) and (x, y, z)
    /// have no cover — unless x = 10 is applied, after which they reduce
    /// to (y) and (y, z) with cover (y, z).
    #[test]
    fn cover_examples_from_paper() {
        let ctx = OrderContext::trivial();
        assert_eq!(ctx.cover(&asc(&[0]), &asc(&[0, 1])), Some(asc(&[0, 1])));
        assert_eq!(ctx.cover(&asc(&[0, 1]), &asc(&[0])), Some(asc(&[0, 1])));
        assert_eq!(ctx.cover(&asc(&[1, 0]), &asc(&[0, 1, 2])), None);

        let mut eq = EquivalenceClasses::new();
        eq.bind_constant(c(0), Value::Int(10));
        let ctx = OrderContext::new(eq, &FdSet::new());
        assert_eq!(
            ctx.cover(&asc(&[1, 0]), &asc(&[0, 1, 2])),
            Some(asc(&[1, 2]))
        );
    }

    #[test]
    fn cover_of_identical_orders() {
        let ctx = OrderContext::trivial();
        assert_eq!(ctx.cover(&asc(&[1, 2]), &asc(&[1, 2])), Some(asc(&[1, 2])));
        assert_eq!(ctx.cover(&OrderSpec::empty(), &asc(&[1])), Some(asc(&[1])));
    }

    /// Paper §4.4: ORDER BY a.x, b.y over a join a.x = b.x. Homogenizing
    /// to b's columns yields (b.x, b.y); homogenizing to a's columns fails
    /// (b.y unavailable) — unless a.x is a key of the join result, in
    /// which case the order first reduces to (a.x).
    #[test]
    fn homogenize_example_from_paper() {
        // Columns: 0 = a.x, 1 = a.y, 2 = b.x, 3 = b.y.
        let mut eq = EquivalenceClasses::new();
        eq.merge(c(0), c(2)); // a.x = b.x
        let ctx = OrderContext::new(eq.clone(), &FdSet::new());
        let interest = asc(&[0, 3]); // (a.x, b.y)

        let to_b = ctx.homogenize(&interest, &cs(&[2, 3])).unwrap();
        assert_eq!(to_b, asc(&[2, 3])); // (b.x, b.y)

        assert_eq!(ctx.homogenize(&interest, &cs(&[0, 1])), None);

        // With a.x a key that survives the join: {a.x} -> {b.y}.
        let mut fds = FdSet::new();
        fds.add_key(cs(&[0]), cs(&[0, 1, 2, 3]));
        let ctx = OrderContext::new(eq, &fds);
        let to_a = ctx.homogenize(&interest, &cs(&[0, 1])).unwrap();
        assert_eq!(to_a, asc(&[0]));
    }

    #[test]
    fn homogenize_prefix_returns_largest_prefix() {
        let mut eq = EquivalenceClasses::new();
        eq.merge(c(0), c(2));
        let ctx = OrderContext::new(eq, &FdSet::new());
        let interest = asc(&[0, 3, 1]);
        let (prefix, complete) = ctx.homogenize_prefix(&interest, &cs(&[2]));
        assert!(!complete);
        assert_eq!(prefix, asc(&[2]));
        let (full, complete) = ctx.homogenize_prefix(&asc(&[0]), &cs(&[2]));
        assert!(complete);
        assert_eq!(full, asc(&[2]));
    }

    #[test]
    fn homogenize_prefers_identity_when_available() {
        let mut eq = EquivalenceClasses::new();
        eq.merge(c(1), c(4));
        let ctx = OrderContext::new(eq, &FdSet::new());
        let out = ctx.homogenize(&asc(&[4]), &cs(&[1, 4])).unwrap();
        // Reduction maps to head c1 first; both are in the target, so the
        // head itself (already in targets) is chosen.
        assert_eq!(out, asc(&[1]));
    }

    #[test]
    fn homogenize_preserves_directions() {
        let mut eq = EquivalenceClasses::new();
        eq.merge(c(0), c(2));
        let ctx = OrderContext::new(eq, &FdSet::new());
        let interest = OrderSpec::new(vec![SortKey::desc(c(0))]);
        let out = ctx.homogenize(&interest, &cs(&[2])).unwrap();
        assert_eq!(out, OrderSpec::new(vec![SortKey::desc(c(2))]));
    }

    #[test]
    fn split_requirement_examples() {
        // Clustered index on (a) feeding ORDER BY a, b: prefix (a),
        // residual (b).
        let ctx = OrderContext::trivial();
        let (pfx, sfx) = ctx.split_requirement(&asc(&[0, 1]), &asc(&[0]));
        assert_eq!(pfx, asc(&[0]));
        assert_eq!(sfx, asc(&[1]));
        // Full satisfaction: empty suffix.
        let (pfx, sfx) = ctx.split_requirement(&asc(&[0, 1]), &asc(&[0, 1, 2]));
        assert_eq!(pfx, asc(&[0, 1]));
        assert!(sfx.is_empty());
        // No common prefix: everything is residual.
        let (pfx, sfx) = ctx.split_requirement(&asc(&[1, 0]), &asc(&[0]));
        assert!(pfx.is_empty());
        assert_eq!(sfx, asc(&[1, 0]));
        // Directions must match for the prefix to count.
        let i = OrderSpec::new(vec![SortKey::desc(c(0)), SortKey::asc(c(1))]);
        let (pfx, sfx) = ctx.split_requirement(&i, &asc(&[0]));
        assert!(pfx.is_empty());
        assert_eq!(sfx, i);
    }

    #[test]
    fn split_requirement_sees_through_the_algebra() {
        // x = 10 applied: ORDER BY x, y, z against a stream ordered by
        // (y) splits into prefix (y), suffix (z).
        let mut eq = EquivalenceClasses::new();
        eq.bind_constant(c(0), Value::Int(10));
        let ctx = OrderContext::new(eq, &FdSet::new());
        let (pfx, sfx) = ctx.split_requirement(&asc(&[0, 1, 2]), &asc(&[1]));
        assert_eq!(pfx, asc(&[1]));
        assert_eq!(sfx, asc(&[2]));

        // a = b applied: property (b, c) satisfies interest prefix (a).
        let mut eq = EquivalenceClasses::new();
        eq.merge(c(0), c(1));
        let ctx = OrderContext::new(eq, &FdSet::new());
        let (pfx, sfx) = ctx.split_requirement(&asc(&[0, 3]), &asc(&[1, 2]));
        assert_eq!(pfx, asc(&[0]));
        assert_eq!(sfx, asc(&[3]));
    }

    /// Property sweep: for pseudo-random contexts and specifications,
    /// `split_requirement` must round-trip (`prefix ⊕ suffix ==
    /// reduce(interest)`), agree with `test_order` on full coverage
    /// (empty suffix ⟺ satisfied), and return a prefix that is itself a
    /// satisfied requirement.
    #[test]
    fn split_requirement_round_trips() {
        fn rng(state: &mut u64) -> u32 {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) as u32
        }
        fn spec_of(state: &mut u64, len: u32) -> OrderSpec {
            OrderSpec::new(
                (0..len)
                    .map(|_| {
                        let col = c(rng(state) % 6);
                        if rng(state).is_multiple_of(2) {
                            SortKey::asc(col)
                        } else {
                            SortKey::desc(col)
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }
        let mut state = 0x9e3779b97f4a7c15u64;
        let s = &mut state;
        for _ in 0..500 {
            let mut eq = EquivalenceClasses::new();
            let mut fds = FdSet::new();
            for _ in 0..(rng(s) % 3) {
                eq.merge(c(rng(s) % 6), c(rng(s) % 6));
            }
            if rng(s).is_multiple_of(3) {
                eq.bind_constant(c(rng(s) % 6), Value::Int(7));
            }
            if rng(s).is_multiple_of(3) {
                fds.add(crate::fd::Fd::implies(c(rng(s) % 6), c(rng(s) % 6)));
            }
            let ctx = OrderContext::new(eq, &fds);
            let li = rng(s) % 5;
            let interest = spec_of(s, li);
            let lp = rng(s) % 5;
            let prop = spec_of(s, lp);
            let (pfx, sfx) = ctx.split_requirement(&interest, &prop);
            assert_eq!(
                pfx.concat(&sfx),
                ctx.reduce(&interest),
                "split must partition the reduced interest\n\
                 interest={interest} prop={prop}"
            );
            assert_eq!(
                sfx.is_empty(),
                ctx.test_order(&interest, &prop),
                "empty suffix must coincide with full satisfaction\n\
                 interest={interest} prop={prop}"
            );
            assert!(
                pfx.is_empty() || ctx.test_order(&pfx, &prop),
                "the returned prefix must itself be satisfied\n\
                 interest={interest} prop={prop} prefix={pfx}"
            );
        }
    }

    /// Transitive FD chains (beyond the paper's single-step test).
    #[test]
    fn reduce_uses_transitive_fds() {
        let mut fds = FdSet::new();
        fds.add(crate::fd::Fd::implies(c(0), c(1)));
        fds.add(crate::fd::Fd::implies(c(1), c(2)));
        let ctx = OrderContext::new(EquivalenceClasses::new(), &fds);
        assert_eq!(ctx.reduce(&asc(&[0, 2])), asc(&[0]));
    }

    /// FDs stated over non-head members must still apply after predicates
    /// merge the classes (normalization into head space).
    #[test]
    fn fds_normalize_into_head_space() {
        let mut eq = EquivalenceClasses::new();
        eq.merge(c(1), c(5)); // head is c1
        let mut fds = FdSet::new();
        fds.add(crate::fd::Fd::implies(c(5), c(3))); // stated over member c5
        let ctx = OrderContext::new(eq, &fds);
        assert_eq!(ctx.reduce(&asc(&[1, 3])), asc(&[1]));
    }
}
