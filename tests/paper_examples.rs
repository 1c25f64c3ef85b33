//! Every worked example in the paper's text, as executable assertions —
//! the reproduction's "golden" test suite. Section references are to
//! Simmen, Shekita, Malkemus, SIGMOD 1996.

use fto_common::{ColId, ColSet, Value};
use fto_expr::{PredId, Predicate};
use fto_order::{
    EquivalenceClasses, FdSet, FlexColumn, FlexOrder, OrderContext, OrderSpec, StreamProps,
};

fn asc(cols: &[u32]) -> OrderSpec {
    OrderSpec::ascending(cols.iter().map(|&c| ColId(c)))
}

fn cs(cols: &[u32]) -> ColSet {
    cols.iter().map(|&c| ColId(c)).collect()
}

/// §4.1: "consider an arbitrary interesting order I = (x, y), and suppose
/// an input stream has the order property OP = (y) ... suppose a
/// predicate x = 10 has been applied ... I can be rewritten as I = (y).
/// After being rewritten, it is easy to determine that OP satisfies I, so
/// no sort is necessary."
#[test]
fn section_4_1_constant_example() {
    let (x, y) = (0, 1);
    let mut eq = EquivalenceClasses::new();
    eq.bind_constant(ColId(x), Value::Int(10));
    let ctx = OrderContext::new(eq, &FdSet::new());
    assert_eq!(ctx.reduce(&asc(&[x, y])), asc(&[y]));
    assert!(ctx.test_order(&asc(&[x, y]), &asc(&[y])));
}

/// §4.1: "suppose I = (x, z) and OP = (y, z) ... the equivalence class
/// generated by x = y allows OP to be rewritten as OP = (x, z)."
#[test]
fn section_4_1_equivalence_example() {
    let (x, y, z) = (0, 1, 2);
    let mut eq = EquivalenceClasses::new();
    eq.merge(ColId(x), ColId(y));
    let ctx = OrderContext::new(eq, &FdSet::new());
    assert!(ctx.test_order(&asc(&[x, z]), &asc(&[y, z])));
}

/// §4.1: "suppose I = (x, y) and OP = (x, z). If x is a key, then these
/// can be rewritten as I = (x) and OP = (x)."
#[test]
fn section_4_1_key_example() {
    let (x, y, z) = (0, 1, 2);
    let mut fds = FdSet::new();
    fds.add_key(cs(&[x]), cs(&[x, y, z]));
    let ctx = OrderContext::new(EquivalenceClasses::new(), &fds);
    assert_eq!(ctx.reduce(&asc(&[x, y])), asc(&[x]));
    assert_eq!(ctx.reduce(&asc(&[x, z])), asc(&[x]));
    assert!(ctx.test_order(&asc(&[x, y]), &asc(&[x, z])));
}

/// §4.1: "suppose the predicate x = 10 has been applied and the
/// interesting order I = (x) is reduced ... I will reduce to the empty
/// interesting order I = (), which is trivially satisfied by any input
/// stream."
#[test]
fn section_4_1_empty_reduction() {
    let mut eq = EquivalenceClasses::new();
    eq.bind_constant(ColId(0), Value::Int(10));
    let ctx = OrderContext::new(eq, &FdSet::new());
    assert!(ctx.reduce(&asc(&[0])).is_empty());
    assert!(ctx.test_order(&asc(&[0]), &OrderSpec::empty()));
}

/// §4.3: "the cover of I1 = (x) and I2 = (x, y) is C = (x, y)" and
/// "there is no cover for I1 = (y, x) and I2 = (x, y, z) ... suppose the
/// predicate x = 10 has been applied ... giving the cover C = (y, z)."
#[test]
fn section_4_3_cover_examples() {
    let (x, y, z) = (0, 1, 2);
    let ctx = OrderContext::trivial();
    assert_eq!(ctx.cover(&asc(&[x]), &asc(&[x, y])), Some(asc(&[x, y])));
    assert_eq!(ctx.cover(&asc(&[y, x]), &asc(&[x, y, z])), None);

    let mut eq = EquivalenceClasses::new();
    eq.bind_constant(ColId(x), Value::Int(10));
    let ctx = OrderContext::new(eq, &FdSet::new());
    assert_eq!(
        ctx.cover(&asc(&[y, x]), &asc(&[x, y, z])),
        Some(asc(&[y, z]))
    );
}

/// §4.4: the ORDER BY a.x, b.y example over the join a.x = b.x —
/// homogenization to b's columns succeeds as (b.x, b.y); to a's columns
/// it fails unless a.x remains a key of the join.
#[test]
fn section_4_4_homogenize_example() {
    let (ax, ay, bx, by) = (0, 1, 2, 3);
    let mut eq = EquivalenceClasses::new();
    eq.merge(ColId(ax), ColId(bx));
    let ctx = OrderContext::new(eq.clone(), &FdSet::new());
    let interest = asc(&[ax, by]);
    assert_eq!(
        ctx.homogenize(&interest, &cs(&[bx, by])),
        Some(asc(&[bx, by]))
    );
    assert_eq!(ctx.homogenize(&interest, &cs(&[ax, ay])), None);

    let mut fds = FdSet::new();
    fds.add_key(cs(&[ax]), cs(&[ax, ay, bx, by]));
    let ctx = OrderContext::new(eq, &fds);
    assert_eq!(ctx.homogenize(&interest, &cs(&[ax, ay])), Some(asc(&[ax])));
}

/// §4.1: "If x = y is a join predicate for an outer join, then {x} → {y}
/// holds if x is a column from a non-null-supplying side" — and only
/// that: no reverse FD, no equivalence class, because null-padded rows
/// violate both.
#[test]
fn section_4_1_outer_join_fd() {
    let (x, y) = (ColId(0), ColId(10));
    let preserved: ColSet = [ColId(0), ColId(1)].into_iter().collect();
    let mut props = StreamProps::base_table(
        [ColId(0), ColId(1), ColId(10), ColId(11)]
            .into_iter()
            .collect(),
        vec![],
    );
    props.apply_outer_join_predicate(
        fto_expr::PredId(0),
        &fto_expr::Predicate::col_eq_col(x, y),
        &preserved,
    );
    assert!(props.fds().determines(&ColSet::singleton(x), y));
    assert!(!props.fds().determines(&ColSet::singleton(y), x));
    assert!(!props.equivalences().same_class(x, y));
    // An ORDER BY (x, y) over the join output therefore reduces to (x)...
    let ctx = props.ctx();
    assert_eq!(ctx.reduce(&asc(&[0, 10])), asc(&[0]));
    // ...but (y, x) does not lose x.
    assert_eq!(ctx.reduce(&OrderSpec::ascending([y, x])).len(), 2);
}

/// The output of joining `left` (columns 0 and 5, key {0}) to `right`
/// (columns 10 and 11, key {10}) on `left_col = right_col`.
fn keyed_join(left_col: u32, right_col: u32) -> StreamProps {
    let left = StreamProps::base_table(cs(&[0, 5]), vec![cs(&[0])]);
    let right = StreamProps::base_table(cs(&[10, 11]), vec![cs(&[10])]);
    let mut joined = StreamProps::join(&left, &right, OrderSpec::empty());
    joined.apply_predicate(
        PredId(0),
        &Predicate::col_eq_col(ColId(left_col), ColId(right_col)),
    );
    joined
}

/// §5.2.1 key propagation, read through the dependencies: an n-to-1 join
/// keeps the outer's key, and an m-to-n join is keyed by the pair.
#[test]
fn section_5_2_1_key_propagation() {
    // The inner's key is fully qualified by the join predicate (5 = 10):
    // n-to-1, so the outer key determines the inner's columns too.
    let n_to_1 = keyed_join(5, 10);
    assert_eq!(n_to_1.ctx().reduce(&asc(&[0, 11])), asc(&[0]));
    assert_eq!(n_to_1.ctx().reduce(&asc(&[0, 10, 5, 11])), asc(&[0]));
    // Neither key qualified (5 = 11): only the pair of keys determines
    // a row.
    let m_to_n = keyed_join(5, 11);
    assert_eq!(m_to_n.ctx().reduce(&asc(&[0, 11])), asc(&[0]));
    assert_eq!(m_to_n.ctx().reduce(&asc(&[0, 10])), asc(&[0, 10]));
    assert_eq!(m_to_n.ctx().reduce(&asc(&[0, 10, 5, 11])), asc(&[0, 10]));
}

/// §5.2.1: "if the DB2 optimizer detects that some key has become fully
/// qualified by equality predicates ... a one-record condition is
/// flagged." Here the key's dependency says the same: a key bound to a
/// constant determines every column, so any order reduces to the empty
/// one.
#[test]
fn section_5_2_1_one_record_condition() {
    let (k, v, w) = (0, 1, 2);
    let mut eq = EquivalenceClasses::new();
    eq.bind_constant(ColId(k), Value::Int(5));
    let mut fds = FdSet::new();
    fds.add_key(cs(&[k]), cs(&[k, v, w]));
    let ctx = OrderContext::new(eq, &fds);
    assert!(ctx.reduce(&asc(&[v, w])).is_empty());
    assert!(ctx.test_order(&asc(&[w, v]), &OrderSpec::empty()));

    // The same through a stream's properties.
    let mut props = StreamProps::base_table(cs(&[k, v, w]), vec![cs(&[k])]);
    props.apply_predicate(PredId(0), &Predicate::col_eq_const(ColId(k), Value::Int(5)));
    assert!(props.ctx().reduce(&asc(&[v, w])).is_empty());
}

/// §5.2.1's one-record condition in a plan: `emp_id` is `emp`'s key, so
/// `emp_id = 5` leaves at most one row and the ORDER BY needs no sort.
#[test]
fn section_5_2_1_one_record_needs_no_sort() {
    fn sorts(plan: &fto_planner::Plan) -> usize {
        let own = usize::from(plan.op_name().contains("sort") || plan.op_name() == "top-n");
        own + plan.children().iter().map(|c| sorts(c)).sum::<usize>()
    }
    let db = fto_bench::corpus::emp_db();
    let session = fto_bench::Session::new(&db);
    let q = session
        .plan("select emp_id, salary, grade from emp where emp_id = 5 order by salary, grade")
        .unwrap();
    assert_eq!(sorts(q.plan()), 0, "{}", q.explain());
    // Without the key's constant the ORDER BY takes a sort.
    let q = session
        .plan("select emp_id, salary, grade from emp where emp_dept = 5 order by salary, grade")
        .unwrap();
    assert_eq!(sorts(q.plan()), 1, "{}", q.explain());
}

/// §7: "consider a GROUP BY for x, y, sum(distinct z). This can be
/// satisfied by (x, y, z) or (y, x, z). Moreover x, y, and z can be in
/// ascending or descending order. In fact, a total of sixteen different
/// orders can satisfy the order-based GROUP BY."
#[test]
fn section_7_sixteen_orders() {
    let flex = FlexOrder::group_by([ColId(0), ColId(1)], [ColId(2)]);
    assert_eq!(flex.concrete_order_count(), 16);

    // Enumerate all sixteen concrete orders and verify each satisfies.
    let ctx = OrderContext::trivial();
    let mut satisfied = 0;
    for perm in [[0u32, 1], [1, 0]] {
        for d0 in [false, true] {
            for d1 in [false, true] {
                for d2 in [false, true] {
                    let mk = |c: u32, desc: bool| {
                        if desc {
                            fto_order::SortKey::desc(ColId(c))
                        } else {
                            fto_order::SortKey::asc(ColId(c))
                        }
                    };
                    let prop = OrderSpec::new(vec![mk(perm[0], d0), mk(perm[1], d1), mk(2, d2)]);
                    assert!(flex.satisfied_by(&prop, &ctx), "{prop}");
                    satisfied += 1;
                }
            }
        }
    }
    assert_eq!(satisfied, 16);

    // And orders outside the sixteen do not satisfy.
    assert!(!flex.satisfied_by(&asc(&[2, 0, 1]), &ctx));
    assert!(!flex.satisfied_by(&asc(&[0, 2, 1]), &ctx));
}

/// §7 continued: the general representation records pinned directions.
#[test]
fn section_7_pinned_directions() {
    let flex = FlexOrder::new(vec![vec![
        FlexColumn::pinned(ColId(0), fto_common::Direction::Asc),
        FlexColumn::free(ColId(1)),
    ]]);
    // 2 permutations × 1 × 2 directions = 4 concrete orders.
    assert_eq!(flex.concrete_order_count(), 4);
}

/// §8.1, Figure 7's caption: "the sort on o_orderkey satisfied the GROUP
/// BY because of the equivalence class generated by o_orderkey =
/// l_orderkey and because of the FD {o_orderkey} → {o_orderdate,
/// o_shippriority}."
#[test]
fn section_8_1_q3_group_by_reasoning() {
    // Columns: o_orderkey=0, o_orderdate=1, o_shippriority=2, l_orderkey=3.
    let (ok, od, sp, lk) = (0, 1, 2, 3);
    let mut eq = EquivalenceClasses::new();
    eq.merge(ColId(ok), ColId(lk)); // o_orderkey = l_orderkey
    let mut fds = FdSet::new();
    fds.add_key(cs(&[ok]), cs(&[ok, od, sp])); // orders' primary key
    let ctx = OrderContext::new(eq, &fds);

    // GROUP BY l_orderkey, o_orderdate, o_shippriority ...
    let flex = FlexOrder::group_by([ColId(lk), ColId(od), ColId(sp)], []);
    // ... is satisfied by a stream sorted on o_orderkey alone.
    assert!(flex.satisfied_by(&asc(&[ok]), &ctx));
    // And the equivalent single-column reduction:
    assert_eq!(ctx.reduce(&asc(&[lk, od, sp])), asc(&[ok]));
}
