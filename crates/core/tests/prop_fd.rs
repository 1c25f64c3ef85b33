//! Randomized laws of the functional-dependency algebra, generated
//! deterministically with the in-repo PRNG.

use fto_common::{ColId, ColSet, Rng, Value};
use fto_order::{EquivalenceClasses, Fd, FdSet, OrderContext, OrderSpec};

const NCOLS: u32 = 8;
const CASES: u64 = 400;

fn colset(rng: &mut Rng) -> ColSet {
    let n = rng.range_usize(0, 4);
    let mut s = ColSet::new();
    for _ in 0..n {
        s.insert(ColId(rng.range_i64(0, NCOLS as i64) as u32));
    }
    s
}

fn fdset(rng: &mut Rng) -> FdSet {
    let n = rng.range_usize(0, 8);
    let mut set = FdSet::new();
    for _ in 0..n {
        let head = colset(rng);
        let tail = colset(rng);
        set.add(Fd::new(head, tail));
    }
    set
}

fn keys(rng: &mut Rng, max: usize) -> Vec<ColSet> {
    let n = rng.range_usize(0, max);
    (0..n).map(|_| colset(rng)).collect()
}

/// Closure is extensive, monotone, and idempotent (a closure operator in
/// the lattice-theoretic sense).
#[test]
fn closure_is_a_closure_operator() {
    let mut rng = Rng::new(0xFD_01);
    for case in 0..CASES {
        let fds = fdset(&mut rng);
        let a = colset(&mut rng);
        let b = colset(&mut rng);
        let ca = fds.closure(&a);
        // extensive
        assert!(a.is_subset(&ca), "case {case}");
        // idempotent
        assert_eq!(fds.closure(&ca).clone(), ca.clone(), "case {case}");
        // monotone
        if a.is_subset(&b) {
            assert!(ca.is_subset(&fds.closure(&b)), "case {case}");
        }
    }
}

/// Every stored FD is honoured by the closure.
#[test]
fn closure_honours_stored_fds() {
    let mut rng = Rng::new(0xFD_02);
    for case in 0..CASES {
        let fds = fdset(&mut rng);
        for fd in fds.iter() {
            assert!(fds.determines_all(&fd.head, &fd.tail), "case {case}");
        }
    }
}

/// `determines` agrees with closure membership, and adding FDs never
/// removes derivations.
#[test]
fn adding_fds_is_monotone() {
    let mut rng = Rng::new(0xFD_03);
    for case in 0..CASES {
        let fds = fdset(&mut rng);
        let extra_head = colset(&mut rng);
        let extra_tail = colset(&mut rng);
        let probe = colset(&mut rng);
        let col = ColId(rng.range_i64(0, NCOLS as i64) as u32);
        let before = fds.determines(&probe, col);
        let mut bigger = fds.clone();
        bigger.add(Fd::new(extra_head, extra_tail));
        if before {
            assert!(bigger.determines(&probe, col), "case {case}");
        }
    }
}

/// Canonicalizing the facts into head space never weakens a key: once
/// equivalences and constants are folded in, each key's image still
/// determines every column, so reducing the key followed by the whole
/// table keeps only key columns.
#[test]
fn canonicalize_never_weakens() {
    let mut rng = Rng::new(0xFD_06);
    let all: ColSet = (0..NCOLS).map(ColId).collect();
    for case in 0..CASES {
        let ks = keys(&mut rng, 5);
        let mut fds = fdset(&mut rng);
        for k in &ks {
            fds.add_key(k.clone(), all.clone());
        }
        let mut eq = EquivalenceClasses::new();
        for _ in 0..rng.range_usize(0, 3) {
            let a = ColId(rng.range_i64(0, NCOLS as i64) as u32);
            let b = ColId(rng.range_i64(0, NCOLS as i64) as u32);
            eq.merge(a, b);
        }
        if rng.range_usize(0, 2) == 1 {
            let a = ColId(rng.range_i64(0, NCOLS as i64) as u32);
            eq.bind_constant(a, Value::Int(7));
        }
        let head = |c: ColId| eq.head(c);
        let head_all: ColSet = all.iter().map(head).collect();
        let ctx = OrderContext::new(eq.clone(), &fds);
        for k in ks {
            let hk: ColSet = k.iter().map(head).collect();
            assert!(
                ctx.fds().determines_all(&hk, &head_all),
                "case {case}: lost key {k:?}"
            );
            let spec = OrderSpec::ascending(k.iter().chain(all.iter()));
            let reduced = ctx.reduce(&spec);
            assert!(
                reduced.col_set().is_subset(&hk),
                "case {case}: key {k:?} reduced {spec:?} to {reduced:?}"
            );
        }
    }
}

/// map_cols through an injective rename preserves derivations.
#[test]
fn rename_preserves_derivations() {
    let mut rng = Rng::new(0xFD_04);
    for case in 0..CASES {
        let fds = fdset(&mut rng);
        let probe = colset(&mut rng);
        let col = ColId(rng.range_i64(0, NCOLS as i64) as u32);
        let shift = |c: ColId| ColId(c.0 + 100);
        let renamed = fds.map_cols(shift);
        let probe_renamed: ColSet = probe.iter().map(shift).collect();
        assert_eq!(
            fds.determines(&probe, col),
            renamed.determines(&probe_renamed, shift(col)),
            "case {case}"
        );
    }
}
