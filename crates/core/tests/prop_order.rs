//! Randomized soundness tests for the fundamental operations.
//!
//! Strategy: generate a random *world* — a table whose columns are built
//! so that a known set of facts (constants, column equivalences,
//! functional dependencies, keys) holds **by construction** — then check
//! that every conclusion the order machinery draws from those facts is
//! true of the actual data:
//!
//! * sorting by `reduce(I)` really orders the data by `I`;
//! * `test_order(I, OP)` ⟹ data sorted by `OP` is ordered by `I`;
//! * `cover(I1, I2) = C` ⟹ data sorted by `C` is ordered by both;
//! * `homogenize(I, T) = H` ⟹ data sorted by `H` is ordered by `I`;
//! * `FlexOrder::satisfied_by(P)` ⟹ groups are contiguous under `P`.
//!
//! Plus a cache-coherence check on [`StreamProps`]: through random
//! operator sequences, the context a stream shares answers exactly like
//! one built from scratch out of independently tracked facts; and one on
//! `test_order`'s memo: it answers, and counts, like its two reductions.
//!
//! Cases are generated from a fixed seed with the in-repo PRNG, so every
//! failure is reproducible from the printed case number.

use fto_common::{ColId, ColSet, Direction, Rng, Value};
use fto_expr::{CompareOp, Expr, PredClass, PredId, Predicate};
use fto_order::{
    ContextWork, EquivalenceClasses, FactsMemo, Fd, FdSet, FlexOrder, OrderContext, OrderSpec,
    SortKey, StreamProps,
};
use std::cmp::Ordering;
use std::collections::HashSet;

const NCOLS: usize = 6;
const CASES: u64 = 400;

/// How each column's values are produced (indices may only look left, so
/// generation is single-pass).
#[derive(Clone, Debug)]
enum ColSpec {
    /// Independent small random values.
    Free,
    /// Identical to an earlier column: yields an equivalence class.
    EqCol(usize),
    /// A constant: yields `{} → {col}`.
    Const(i64),
    /// A deterministic function of an earlier column: yields `{j} → {i}`.
    FnOf(usize),
    /// A row counter (unique): yields the key `{i}`.
    RowId,
}

fn col_spec(rng: &mut Rng, i: usize) -> ColSpec {
    let roll = rng.range_usize(0, if i == 0 { 5 } else { 7 });
    match roll {
        0..=2 => ColSpec::Free,
        3 => ColSpec::Const(rng.range_i64(0, 3)),
        4 => ColSpec::RowId,
        5 => ColSpec::EqCol(rng.range_usize(0, i)),
        _ => ColSpec::FnOf(rng.range_usize(0, i)),
    }
}

#[derive(Debug)]
struct World {
    rows: Vec<Vec<i64>>,
    ctx: OrderContext,
    eq: EquivalenceClasses,
    fds: FdSet,
}

impl World {
    /// A new context over the world's facts, its memo empty.
    fn fresh(&self) -> OrderContext {
        OrderContext::new(self.eq.clone(), &self.fds)
    }
}

fn world(rng: &mut Rng) -> World {
    let specs: Vec<ColSpec> = (0..NCOLS).map(|i| col_spec(rng, i)).collect();
    let n_rows = rng.range_usize(0, 40);
    let mut rows: Vec<Vec<i64>> = Vec::with_capacity(n_rows);
    for rid in 0..n_rows {
        let mut row = vec![0i64; NCOLS];
        for (i, spec) in specs.iter().enumerate() {
            row[i] = match spec {
                ColSpec::Free => rng.range_i64(0, 4),
                ColSpec::EqCol(j) => row[*j],
                ColSpec::Const(v) => *v,
                ColSpec::FnOf(j) => row[*j] * 7 + 1,
                ColSpec::RowId => rid as i64,
            };
        }
        rows.push(row);
    }
    // Facts that hold by construction.
    let mut eq = EquivalenceClasses::new();
    let mut fds = FdSet::new();
    let all: ColSet = (0..NCOLS as u32).map(ColId).collect();
    for (i, spec) in specs.iter().enumerate() {
        match spec {
            ColSpec::Free => {}
            ColSpec::EqCol(j) => {
                eq.merge(ColId(i as u32), ColId(*j as u32));
                fds.add_equivalence(ColId(i as u32), ColId(*j as u32));
            }
            ColSpec::Const(v) => {
                eq.bind_constant(ColId(i as u32), Value::Int(*v));
                fds.add_constant(ColId(i as u32));
            }
            ColSpec::FnOf(j) => fds.add(fto_order::Fd::new(
                ColSet::singleton(ColId(*j as u32)),
                ColSet::singleton(ColId(i as u32)),
            )),
            ColSpec::RowId => fds.add_key(ColSet::singleton(ColId(i as u32)), all.clone()),
        }
    }
    World {
        rows,
        ctx: OrderContext::new(eq.clone(), &fds),
        eq,
        fds,
    }
}

fn spec_strategy(rng: &mut Rng) -> OrderSpec {
    let n = rng.range_usize(0, 5);
    (0..n)
        .map(|_| SortKey {
            col: ColId(rng.range_i64(0, NCOLS as i64) as u32),
            dir: if rng.bool() {
                Direction::Desc
            } else {
                Direction::Asc
            },
        })
        .collect()
}

fn random_colset(rng: &mut Rng, min: usize, max: usize) -> ColSet {
    let n = rng.range_usize(min, max);
    let mut s = ColSet::new();
    while s.len() < n {
        s.insert(ColId(rng.range_i64(0, NCOLS as i64) as u32));
    }
    s
}

fn cmp_by_spec(a: &[i64], b: &[i64], spec: &OrderSpec) -> Ordering {
    for k in spec.keys() {
        let ord = k.dir.apply(a[k.col.index()].cmp(&b[k.col.index()]));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn sorted_by(rows: &[Vec<i64>], spec: &OrderSpec) -> Vec<Vec<i64>> {
    let mut rows = rows.to_vec();
    rows.sort_by(|a, b| cmp_by_spec(a, b, spec));
    rows
}

fn is_ordered_by(rows: &[Vec<i64>], spec: &OrderSpec) -> bool {
    rows.windows(2)
        .all(|w| cmp_by_spec(&w[0], &w[1], spec) != Ordering::Greater)
}

/// Sorting by the reduced specification orders the data by the full
/// specification (the correctness claim of Fig. 2).
#[test]
fn reduce_is_sound() {
    let mut rng = Rng::new(0x01);
    for case in 0..CASES {
        let w = world(&mut rng);
        let spec = spec_strategy(&mut rng);
        let reduced = w.ctx.reduce(&spec);
        let rows = sorted_by(&w.rows, &reduced);
        assert!(
            is_ordered_by(&rows, &spec),
            "case {case}: reduce({spec}) = {reduced} lost ordering"
        );
    }
}

/// Reduction is idempotent and never grows the specification.
#[test]
fn reduce_is_idempotent_and_shrinking() {
    let mut rng = Rng::new(0x02);
    for case in 0..CASES {
        let w = world(&mut rng);
        let spec = spec_strategy(&mut rng);
        let once = w.ctx.reduce(&spec);
        assert!(once.len() <= spec.len(), "case {case}");
        assert_eq!(w.ctx.reduce(&once), once, "case {case}");
    }
}

/// Test Order is sound: a stream sorted by the order property really is
/// ordered by the interesting order (Fig. 3).
#[test]
fn test_order_is_sound() {
    let mut rng = Rng::new(0x03);
    for case in 0..CASES {
        let w = world(&mut rng);
        let interest = spec_strategy(&mut rng);
        let prop = spec_strategy(&mut rng);
        if w.ctx.test_order(&interest, &prop) {
            let rows = sorted_by(&w.rows, &prop);
            assert!(
                is_ordered_by(&rows, &interest),
                "case {case}: test_order said {prop} satisfies {interest}"
            );
        }
    }
}

/// Test Order is reflexive and closed under reduction.
#[test]
fn test_order_reflexive() {
    let mut rng = Rng::new(0x04);
    for case in 0..CASES {
        let w = world(&mut rng);
        let spec = spec_strategy(&mut rng);
        assert!(w.ctx.test_order(&spec, &spec), "case {case}");
        assert!(w.ctx.test_order(&spec, &w.ctx.reduce(&spec)), "case {case}");
    }
}

/// Test Order answers both reductions under one hold of the memo's lock.
/// Cold, warm and hit in either argument order, it must answer as the
/// uncached reductions do, and its `ContextWork` must count what
/// `reduce(interest)`, then `reduce(prop)` unless the first is empty,
/// counts on a twin context asked the same questions — the counts
/// `PlannerStats::reduce_memo_hits` is built from.
#[test]
fn test_order_answers_and_counts_like_its_two_reductions() {
    const EMPTY_INTEREST: usize = 0;
    const INTEREST_REDUCES_TO_EMPTY: usize = 1;
    const EMPTY_PROP: usize = 2;
    const INTEREST_HIT_PROP_MISS: usize = 3;
    const BOTH_HIT: usize = 4;
    let mut seen = [0u32; 5];
    let mut rng = Rng::new(0x0d);
    for case in 0..CASES {
        let w = world(&mut rng);
        let (ctx, twin) = (w.fresh(), w.fresh());
        // What `ctx`'s memo holds: every non-empty spec it has reduced.
        let mut memo: HashSet<OrderSpec> = HashSet::new();
        let specs: Vec<OrderSpec> = (0..4).map(|_| spec_strategy(&mut rng)).collect();
        for call in 0..10 {
            let (interest, prop) = (rng.pick(&specs), rng.pick(&specs));
            let uncached = |s: &OrderSpec| w.fresh().reduce(s);
            let ri = uncached(interest);
            let want = ri.is_empty() || ri.is_prefix_of(&uncached(prop));
            let at = format!("case {case} call {call}: test_order({interest}, {prop})");

            let kind = if interest.is_empty() {
                EMPTY_INTEREST
            } else if ri.is_empty() {
                INTEREST_REDUCES_TO_EMPTY
            } else if prop.is_empty() {
                EMPTY_PROP
            } else {
                match (memo.contains(interest), memo.contains(prop)) {
                    (true, false) => INTEREST_HIT_PROP_MISS,
                    (true, true) => BOTH_HIT,
                    _ => seen.len(),
                }
            };
            if let Some(n) = seen.get_mut(kind) {
                *n += 1;
            }
            if !interest.is_empty() {
                memo.insert(interest.clone());
            }
            if !ri.is_empty() && !prop.is_empty() {
                memo.insert(prop.clone());
            }

            let before = ContextWork::snapshot();
            let twin_ri = twin.reduce(interest);
            let twin_answer = twin_ri.is_empty() || twin_ri.is_prefix_of(&twin.reduce(prop));
            let two_reductions = ContextWork::snapshot().since(before);

            let before = ContextWork::snapshot();
            let answer = ctx.test_order(interest, prop);
            let work = ContextWork::snapshot().since(before);

            assert_eq!(answer, want, "{at}: not the uncached answer");
            assert_eq!(twin_answer, want, "{at}: reduce disagrees");
            assert_eq!(
                work,
                ContextWork {
                    test_order: 1,
                    ..two_reductions
                },
                "{at}: counted other work than its two reductions"
            );
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "a case went unexercised: {seen:?}"
    );
}

/// Cover Order is sound: one sort satisfies both inputs (Fig. 4).
#[test]
fn cover_is_sound() {
    let mut rng = Rng::new(0x05);
    for case in 0..CASES {
        let w = world(&mut rng);
        let i1 = spec_strategy(&mut rng);
        let i2 = spec_strategy(&mut rng);
        if let Some(cover) = w.ctx.cover(&i1, &i2) {
            assert!(w.ctx.test_order(&i1, &cover), "case {case}");
            assert!(w.ctx.test_order(&i2, &cover), "case {case}");
            let rows = sorted_by(&w.rows, &cover);
            assert!(is_ordered_by(&rows, &i1), "case {case}");
            assert!(is_ordered_by(&rows, &i2), "case {case}");
        }
    }
}

/// Cover is symmetric in satisfiability.
#[test]
fn cover_is_symmetric() {
    let mut rng = Rng::new(0x06);
    for case in 0..CASES {
        let w = world(&mut rng);
        let i1 = spec_strategy(&mut rng);
        let i2 = spec_strategy(&mut rng);
        let a = w.ctx.cover(&i1, &i2);
        let b = w.ctx.cover(&i2, &i1);
        assert_eq!(a.is_some(), b.is_some(), "case {case}: {i1} vs {i2}");
    }
}

/// Homogenize Order is sound: the homogenized order still delivers the
/// original interesting order once the (already applied here)
/// equivalences hold (Fig. 5).
#[test]
fn homogenize_is_sound() {
    let mut rng = Rng::new(0x07);
    for case in 0..CASES {
        let w = world(&mut rng);
        let interest = spec_strategy(&mut rng);
        let target_set = random_colset(&mut rng, 1, NCOLS);
        if let Some(h) = w.ctx.homogenize(&interest, &target_set) {
            assert!(h.col_set().is_subset(&target_set), "case {case}");
            let rows = sorted_by(&w.rows, &h);
            assert!(
                is_ordered_by(&rows, &interest),
                "case {case}: homogenize({interest}) = {h} lost ordering"
            );
        }
    }
}

/// The generalized GROUP BY order test is sound: when satisfied, sorting
/// by the property makes every group (rows equal on all flex columns)
/// contiguous (§7).
#[test]
fn flex_satisfaction_is_sound() {
    let mut rng = Rng::new(0x08);
    for case in 0..CASES {
        let w = world(&mut rng);
        let cols: Vec<ColId> = random_colset(&mut rng, 1, 4).iter().collect();
        let prop = spec_strategy(&mut rng);
        let flex = FlexOrder::group_by(cols.iter().copied(), []);
        if flex.satisfied_by(&prop, &w.ctx) {
            let rows = sorted_by(&w.rows, &prop);
            // Groups must be contiguous: once a group key is left, it
            // never reappears.
            let key = |r: &Vec<i64>| -> Vec<i64> { cols.iter().map(|c| r[c.index()]).collect() };
            let mut seen: Vec<Vec<i64>> = Vec::new();
            for r in &rows {
                let k = key(r);
                match seen.last() {
                    Some(last) if *last == k => {}
                    _ => {
                        assert!(
                            !seen.contains(&k),
                            "case {case}: group {k:?} split under {prop}"
                        );
                        seen.push(k);
                    }
                }
            }
        }
    }
}

/// The flex concretization always satisfies its own requirement and
/// extends the supplied property when it claimed to.
#[test]
fn flex_concretize_satisfies() {
    let mut rng = Rng::new(0x09);
    for case in 0..CASES {
        let w = world(&mut rng);
        let cols: Vec<ColId> = random_colset(&mut rng, 1, 4).iter().collect();
        let prop = spec_strategy(&mut rng);
        let flex = FlexOrder::group_by(cols.iter().copied(), []);
        let sort = flex.concretize(&prop, &w.ctx);
        assert!(
            flex.satisfied_by(&sort, &w.ctx),
            "case {case}: concretize({prop}) = {sort} does not satisfy {flex}"
        );
    }
}

/// Reduced specifications mention only equivalence-class heads and
/// contain no duplicate columns.
#[test]
fn reduce_yields_canonical_form() {
    let mut rng = Rng::new(0x0A);
    for case in 0..CASES {
        let w = world(&mut rng);
        let spec = spec_strategy(&mut rng);
        let reduced = w.ctx.reduce(&spec);
        let mut seen = ColSet::new();
        for k in reduced.keys() {
            assert_eq!(
                w.ctx.equivalences().head(k.col),
                k.col,
                "case {case}: non-head in {reduced}"
            );
            assert!(
                seen.insert(k.col),
                "case {case}: duplicate {} in {}",
                k.col,
                reduced
            );
        }
    }
}

/// A stream's properties next to the facts that must hold on it, tracked
/// by value with the §4.1 rules: no sharing, no memo, no derived context.
struct Tracked {
    props: StreamProps,
    eq: EquivalenceClasses,
    fds: FdSet,
}

impl Tracked {
    fn base(rng: &mut Rng) -> Tracked {
        let cols = random_colset(rng, 1, NCOLS);
        let keys: Vec<ColSet> = (0..rng.range_usize(0, 3))
            .map(|_| random_colset(rng, 1, 3).intersection(&cols))
            .filter(|k| !k.is_empty())
            .collect();
        let mut fds = FdSet::new();
        for k in &keys {
            fds.add_key(k.clone(), cols.clone());
        }
        Tracked {
            props: StreamProps::base_table(cols, keys),
            eq: EquivalenceClasses::new(),
            fds,
        }
    }

    /// An operation that states no fact: the tracked facts carry over.
    fn same_facts(&self, props: StreamProps) -> Tracked {
        Tracked {
            props,
            eq: self.eq.clone(),
            fds: self.fds.clone(),
        }
    }

    fn filter(&self, id: PredId, pred: &Predicate, memo: Option<&mut FactsMemo>) -> Tracked {
        let mut out = self.same_facts(self.props.clone());
        let fresh = !self.props.preds.contains(&id);
        match memo {
            Some(memo) => memo.apply_predicate(&mut out.props, id, pred),
            None => out.props.apply_predicate(id, pred),
        }
        if fresh {
            match pred.classify() {
                PredClass::ColEqConst(col, v) => {
                    out.eq.bind_constant(col, v);
                    out.fds.add_constant(col);
                }
                PredClass::ColEqCol(a, b) => {
                    out.eq.merge(a, b);
                    out.fds.add_equivalence(a, b);
                }
                PredClass::Opaque => {}
            }
        }
        out
    }

    fn outer_filter(&self, id: PredId, pred: &Predicate, preserved: &ColSet) -> Tracked {
        let mut out = self.same_facts(self.props.clone());
        let fresh = !self.props.preds.contains(&id);
        out.props.apply_outer_join_predicate(id, pred, preserved);
        if let (true, PredClass::ColEqCol(a, b)) = (fresh, pred.classify()) {
            if preserved.contains(a) {
                out.fds.add(Fd::implies(a, b));
            } else if preserved.contains(b) {
                out.fds.add(Fd::implies(b, a));
            }
        }
        out
    }

    fn join(&self, right: &Tracked, memo: Option<&mut FactsMemo>) -> Tracked {
        let order = self.props.order.clone();
        let props = match memo {
            Some(memo) => memo.join(&self.props, &right.props, &order),
            None => StreamProps::join(&self.props, &right.props, order),
        };
        let mut out = self.same_facts(props);
        out.fds.absorb(&right.fds);
        out.eq.absorb(&right.eq);
        out
    }

    fn group_by(&self, grouping: &ColSet, aggs: &ColSet) -> Tracked {
        let order = self.props.order.clone();
        let mut out = self.same_facts(self.props.group_by(grouping, aggs, order));
        if !aggs.is_empty() {
            out.fds.add_key(grouping.clone(), grouping.union(aggs));
        }
        out
    }

    fn compute(&self, col: ColId, inputs: ColSet) -> Tracked {
        let mut out = self.same_facts(self.props.clone());
        out.props.add_computed_columns([(col, inputs.clone())]);
        out.fds.add(Fd::new(inputs, ColSet::singleton(col)));
        out
    }

    /// The shared context must answer every operation like a context
    /// built now from the tracked facts — asked twice, so that the second
    /// answer comes out of the reduce memo.
    fn assert_coherent(&self, rng: &mut Rng, at: &str) {
        assert_eq!(self.props.fds(), &self.fds, "{at}: FDs diverged");
        let fresh = OrderContext::new(self.eq.clone(), &self.fds);
        let shared = self.props.ctx();
        for _ in 0..3 {
            let (a, b) = (spec_strategy(rng), spec_strategy(rng));
            let targets = random_colset(rng, 0, NCOLS);
            for _ in 0..2 {
                assert_eq!(shared.reduce(&a), fresh.reduce(&a), "{at}: reduce({a})");
                assert_eq!(
                    shared.test_order(&a, &b),
                    fresh.test_order(&a, &b),
                    "{at}: test_order({a}, {b})"
                );
                assert_eq!(
                    shared.split_requirement(&a, &b),
                    fresh.split_requirement(&a, &b),
                    "{at}: split_requirement({a}, {b})"
                );
                assert_eq!(shared.cover(&a, &b), fresh.cover(&a, &b), "{at}: cover");
                assert_eq!(
                    shared.homogenize(&a, &targets),
                    fresh.homogenize(&a, &targets),
                    "{at}: homogenize({a}, {targets:?})"
                );
                assert_eq!(
                    shared.homogenize_prefix(&a, &targets),
                    fresh.homogenize_prefix(&a, &targets),
                    "{at}: homogenize_prefix({a}, {targets:?})"
                );
            }
        }
    }
}

/// A stale context silently elides a sort, so: drive random sequences of
/// every `StreamProps` operation (half of the joins and filters through a
/// `FactsMemo`), and after every step compare the context the stream
/// shares with one built from the facts tracked alongside.
#[test]
fn shared_context_stays_coherent_with_the_facts() {
    let mut rng = Rng::new(0x0c);
    let col = |rng: &mut Rng| ColId(rng.range_i64(0, NCOLS as i64) as u32);
    for case in 0..CASES {
        let mut memo = FactsMemo::default();
        // One predicate per id, as in a query graph; a step may re-apply.
        let mut preds: Vec<Predicate> = Vec::new();
        let mut pool = vec![Tracked::base(&mut rng)];
        for step in 0..14 {
            let from = rng.range_usize(0, pool.len());
            let other = rng.range_usize(0, pool.len());
            let via_memo = rng.bool();
            let t = &pool[from];
            let next = match rng.range_usize(0, 12) {
                0 => Tracked::base(&mut rng),
                1 => t.same_facts(t.props.clone().with_order(spec_strategy(&mut rng))),
                2 => t.same_facts(t.props.sorted(&spec_strategy(&mut rng))),
                3 => t.same_facts(t.props.project(&random_colset(&mut rng, 0, NCOLS))),
                4 => t.same_facts(t.props.group_by(
                    &t.props.cols,
                    &ColSet::new(),
                    t.props.order.clone(),
                )),
                5..=7 => {
                    let id = rng.range_usize(0, preds.len() + 1);
                    if id == preds.len() {
                        preds.push(match rng.range_usize(0, 3) {
                            0 => Predicate::col_eq_col(col(&mut rng), col(&mut rng)),
                            1 => Predicate::col_eq_const(col(&mut rng), Value::Int(7)),
                            _ => Predicate::new(
                                CompareOp::Lt,
                                Expr::col(col(&mut rng)),
                                Expr::int(3),
                            ),
                        });
                    }
                    let id_pred = (PredId(id as u32), &preds[id]);
                    if rng.range_usize(0, 4) == 0 {
                        let preserved = random_colset(&mut rng, 1, NCOLS);
                        t.outer_filter(id_pred.0, id_pred.1, &preserved)
                    } else {
                        t.filter(id_pred.0, id_pred.1, via_memo.then_some(&mut memo))
                    }
                }
                8 => t.join(&pool[other], via_memo.then_some(&mut memo)),
                9 => t.same_facts(StreamProps::left_outer_join(&t.props, &pool[other].props)),
                10 => {
                    let grouping = random_colset(&mut rng, 1, 3);
                    let aggs = if rng.bool() {
                        ColSet::singleton(ColId(NCOLS as u32 + step))
                    } else {
                        ColSet::new()
                    };
                    t.group_by(&grouping, &aggs)
                }
                _ => t.compute(ColId(NCOLS as u32 + step), random_colset(&mut rng, 0, 3)),
            };
            next.assert_coherent(&mut rng, &format!("case {case} step {step}"));
            pool.push(next);
        }
    }
}
