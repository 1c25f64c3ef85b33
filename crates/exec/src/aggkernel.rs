//! The shared aggregation kernel: group ids over encoded keys plus
//! columnar aggregate state, used by the streaming executor's one
//! grouping operator (DISTINCT is the grouping with no aggregates) and
//! keyed by its build–probe join. The query-level oracle keeps the
//! row-at-a-time [`fto_expr::agg::Accumulator`]; the two are the only
//! accumulate implementations in the engine.
//!
//! # Group ids
//!
//! [`GroupTable`] maps an encoded grouping key (a [`KeyArena`] slice,
//! byte equality ≡ `Value` equality) to a dense group id in first-seen
//! order. It is an open-addressing table of `u64` slots over one
//! append-only key arena: no per-group allocation and no SipHash. A batch
//! becomes `gids: Vec<u32>` plus `first`, the rows that opened a group —
//! which *is* a group-by's key-column gather list. A grouping whose input arrives ordered on every
//! grouping column derives the same two vectors from run boundaries
//! instead of a table. The build–probe join keys its build side through
//! the same table (`assign` while building, the read-only `lookup` while
//! probing) and keeps its match lists beside it.
//!
//! # Aggregate state
//!
//! [`GroupAgg`] holds, per aggregate call, one vector per accumulator
//! field the function needs, indexed by group id. A batch updates it with
//! one type dispatch per (batch, aggregate) and a tight loop over
//! `(gids, typed slice)` **in row order**. Row order is what makes the
//! result bit-identical to feeding an `Accumulator` per group row by row:
//! a group's values are folded in the order its rows arrive, so wrapping
//! integer sums, float sums, NULL skipping and `sum` of nothing = NULL come
//! out the same. Whether a `sum` is an integer or a double is not
//! something the values decide: it is the declared type of the call's
//! result (the binder's `agg_type`, read from the query's registry at
//! lowering), and every aggregate column is built as that type — an
//! all-NULL one included. Arguments that have no typed loop
//! (`Utf8`/`Bool`/`Date32` columns, string and date `min`/`max`, every
//! `DISTINCT` call) go value by value into the same state through
//! [`AggState::push_value`], the columnar twin of
//! `Accumulator::update_value`.

use crate::sortkernel::{KeyArena, SortKeys};
use fto_common::column::{Batch, Bitmap, Column, ColumnData};
use fto_common::{ColId, DataType, Direction, Result, Value};
use fto_expr::{vector, AggCall, AggFunc, Expr, RowLayout};
use std::collections::HashSet;
use std::sync::Arc;

/// The group id of a row that belongs to no resident group (a bounded
/// grouping's overflow rows, which aggregate updates skip; a join's
/// NULL-keyed build rows and unmatched probe rows).
pub(crate) const NO_GROUP: u32 = u32::MAX;

/// Hashes an encoded key: eight bytes at a time, the tail as one
/// overlapping word read at `len − 8` (a variable-length copy into a
/// zeroed word is a `memcpy` call plus a store-forwarding stall — 28 vs
/// 7 ns a row on the 11-byte numeric key); keys under eight bytes pack
/// into one word. Each word goes through a *folded* multiply — the high
/// half of the 128-bit product xored into the low half — because a plain
/// multiply only carries entropy upward while the table masks the low
/// bits: the codec's small integers vary in the top bytes of their first
/// word, and TPC-D Q1's key `(returnflag, linestatus)` in bytes 1 and 5
/// of its only word, which a multiply and one `h ^ h >> 32` fold leave
/// out of the low byte altogether (every `(x, 'f')` then shares a slot
/// with `(x, 'o')` and the probe mispredicts on half the rows).
fn hash_key(key: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, w: u64| {
        let p = u128::from(h ^ w) * u128::from(K);
        p as u64 ^ (p >> 64) as u64
    };
    let word =
        |at: usize| u64::from_le_bytes(key[at..at + 8].try_into().expect("an eight-byte slice"));
    // The length seeds the hash, so a key and its zero-extended prefix
    // differ before the first word.
    let mut h = (key.len() as u64).wrapping_mul(K);
    if key.len() < 8 {
        return mix(h, key.iter().fold(0, |w, &b| w << 8 | u64::from(b)));
    }
    let mut at = 0;
    while at + 8 <= key.len() {
        h = mix(h, word(at));
        at += 8;
    }
    if at < key.len() {
        h = mix(h, word(key.len() - 8));
    }
    h
}

/// Byte equality of two keys, read the way [`hash_key`] reads them: a
/// slice `==` of unknown length is a `memcmp` call per probe.
fn keys_equal(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    if a.len() < 8 {
        return a.iter().zip(b).all(|(x, y)| x == y);
    }
    let word = |s: &[u8], at: usize| {
        u64::from_le_bytes(s[at..at + 8].try_into().expect("an eight-byte slice"))
    };
    let mut at = 0;
    while at + 8 <= a.len() {
        if word(a, at) != word(b, at) {
            return false;
        }
        at += 8;
    }
    word(a, a.len() - 8) == word(b, a.len() - 8)
}

/// Encoded key → dense first-seen group id.
///
/// A slot is `0` (empty) or `tag << 32 | gid + 1`, `tag` being the hash's
/// high half: a probe compares tags before it touches the key arena.
/// Linear probing at load ≤ ½; growth re-hashes the arena's keys.
pub(crate) struct GroupTable {
    /// Admitted keys in group-id order: group `g`'s key is `keys.get(g)`.
    keys: KeyArena,
    slots: Vec<u64>,
}

impl GroupTable {
    pub(crate) fn new() -> GroupTable {
        GroupTable {
            keys: KeyArena::default(),
            slots: vec![0; 16],
        }
    }

    /// Forgets every group, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.slots.fill(0);
    }

    /// Number of groups admitted so far (the next group id).
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The group id of `key`, or the empty slot its probe ended at.
    fn find(&self, key: &[u8], hash: u64) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return Err(at);
            }
            if slot >> 32 == hash >> 32 {
                let gid = slot as u32 - 1;
                if keys_equal(self.keys.get(gid as usize), key) {
                    return Ok(gid);
                }
            }
            at = (at + 1) & mask;
        }
    }

    fn insert(&mut self, key: &[u8], hash: u64, at: usize) -> u32 {
        let gid = u32::try_from(self.len())
            .ok()
            .filter(|&g| g < NO_GROUP - 1)
            .expect("group ids fit 32 bits");
        self.keys.push(key);
        self.slots[at] = (hash >> 32) << 32 | u64::from(gid + 1);
        if self.len() * 2 > self.slots.len() {
            self.grow();
        }
        gid
    }

    fn grow(&mut self) {
        let mut slots = vec![0u64; self.slots.len() * 2];
        let mask = slots.len() - 1;
        for gid in 0..self.len() {
            let hash = hash_key(self.keys.get(gid));
            let mut at = hash as usize & mask;
            while slots[at] != 0 {
                at = (at + 1) & mask;
            }
            slots[at] = (hash >> 32) << 32 | (gid as u64 + 1);
        }
        self.slots = slots;
    }

    /// Maps every key of a batch's arena to its group id, in row order. A
    /// key not seen before is offered to `admit(row, key)`: admitted, it
    /// gets the next id and its row is appended to `first`; refused, the
    /// row gets [`NO_GROUP`] (and the key is offered again at its next
    /// row). Both output vectors are overwritten.
    pub(crate) fn assign(
        &mut self,
        keys: &KeyArena,
        gids: &mut Vec<u32>,
        first: &mut Vec<u32>,
        mut admit: impl FnMut(usize, &[u8]) -> bool,
    ) {
        gids.clear();
        first.clear();
        for i in 0..keys.len() {
            let key = keys.get(i);
            let hash = hash_key(key);
            gids.push(match self.find(key, hash) {
                Ok(gid) => gid,
                Err(at) if admit(i, key) => {
                    first.push(i as u32);
                    self.insert(key, hash, at)
                }
                Err(_) => NO_GROUP,
            });
        }
    }

    /// The read-only half of [`Self::assign`]: every key's group id, or
    /// [`NO_GROUP`] for a key never admitted. `gids` is overwritten.
    pub(crate) fn lookup(&self, keys: &KeyArena, gids: &mut Vec<u32>) {
        gids.clear();
        gids.extend((0..keys.len()).map(|i| {
            let key = keys.get(i);
            self.find(key, hash_key(key)).unwrap_or(NO_GROUP)
        }));
    }
}

/// Where an aggregate's argument comes from, resolved once per operator.
enum AggArg {
    /// A literal (`count(*)` is `count(1)`): never becomes a column.
    Lit(Value),
    /// Position in [`AggSpec::arg_exprs`].
    Col(usize),
}

/// A grouping operator's aggregation resolved against its input layout:
/// grouping positions as ascending sort keys (for the key encoder),
/// the aggregate calls, and their argument expressions.
pub(crate) struct AggSpec {
    gkeys: SortKeys,
    calls: Vec<(AggFunc, bool, AggArg)>,
    /// The non-literal argument expressions, evaluated once per batch.
    arg_exprs: Vec<Expr>,
    layout: RowLayout,
    /// Declared types of an output batch's columns: grouping columns,
    /// then aggregates.
    out_types: Vec<DataType>,
}

impl AggSpec {
    /// `out_types` are the declared types of the output layout (grouping
    /// columns, then one per aggregate call).
    pub(crate) fn new(
        gpos: &[usize],
        aggs: &[(ColId, AggCall)],
        layout: RowLayout,
        out_types: Vec<DataType>,
    ) -> AggSpec {
        let mut arg_exprs = Vec::new();
        let calls = aggs
            .iter()
            .map(|(_, call)| {
                let arg = match &call.arg {
                    Expr::Lit(v) => AggArg::Lit(v.clone()),
                    e => {
                        arg_exprs.push(e.clone());
                        AggArg::Col(arg_exprs.len() - 1)
                    }
                };
                (call.func, call.distinct, arg)
            })
            .collect();
        AggSpec {
            gkeys: gpos.iter().map(|&p| (p, Direction::Asc)).collect(),
            calls,
            arg_exprs,
            layout,
            out_types,
        }
    }

    /// Number of aggregate calls.
    pub(crate) fn num_aggs(&self) -> usize {
        self.calls.len()
    }

    /// The grouping positions as ascending sort keys: what a grouping's
    /// key encoder reads.
    pub(crate) fn keys(&self) -> &SortKeys {
        &self.gkeys
    }

    /// The grouping columns of `batch` as a batch of their own (`Arc`
    /// clones, the selection kept): what a group's key values are gathered
    /// from, and what the bounded group-by sizes an admitted group's key
    /// row by.
    pub(crate) fn key_columns(&self, batch: &Batch) -> Batch {
        let positions: Vec<usize> = self.gkeys.iter().map(|&(p, _)| p).collect();
        batch.select(&positions)
    }
}

/// Visits `(slot, group)` for every row that has a group and a valid
/// (non-NULL) slot, in row order: row `j` is slot `j`, or slot `sel[j]`
/// of a selected batch.
macro_rules! for_rows {
    ($gids:expr, $sel:expr, $validity:expr, |$i:ident, $g:ident| $body:block) => {{
        let validity: Option<&Bitmap> = $validity;
        let mut visit = |$i: usize, gid: u32| {
            if gid != NO_GROUP && validity.is_none_or(|bm| bm.get($i)) {
                let $g = gid as usize;
                $body
            }
        };
        match $sel {
            None => $gids.iter().enumerate().for_each(|(i, &gid)| visit(i, gid)),
            Some(sel) => $gids.iter().zip(sel).for_each(|(&gid, &i)| visit(i as usize, gid)),
        }
    }};
}

/// Columnar state of one aggregate call: one vector per accumulator field
/// the function reads, indexed by group id (the others stay empty).
struct AggState {
    func: AggFunc,
    /// The declared type of the result column; for a `sum`, whether it
    /// is the integer or the double sum.
    out: DataType,
    /// Non-NULL (distinct) values seen — `count`, `sum`, `avg`.
    count: Vec<u64>,
    /// Wrapping sum of the integer inputs — `sum`, `avg`.
    sum_i: Vec<i64>,
    /// Sum of the double inputs, in arrival order — `sum`, `avg`.
    sum_f: Vec<f64>,
    /// Running extreme, `Null` until the first value — `min`, `max`.
    best: Vec<Value>,
    /// Values already counted — `DISTINCT` calls only.
    seen: Option<Vec<HashSet<Value>>>,
}

impl AggState {
    fn new(func: AggFunc, distinct: bool, out: DataType) -> AggState {
        AggState {
            func,
            out,
            count: Vec::new(),
            sum_i: Vec::new(),
            sum_f: Vec::new(),
            best: Vec::new(),
            seen: distinct.then(Vec::new),
        }
    }

    /// Extends the state to `groups` groups, new ones empty.
    fn grow(&mut self, groups: usize) {
        match self.func {
            AggFunc::Count => self.count.resize(groups, 0),
            AggFunc::Sum | AggFunc::Avg => {
                self.count.resize(groups, 0);
                self.sum_i.resize(groups, 0);
                self.sum_f.resize(groups, 0.0);
            }
            AggFunc::Min | AggFunc::Max => self.best.resize(groups, Value::Null),
        }
        if let Some(seen) = &mut self.seen {
            seen.resize_with(groups, HashSet::new);
        }
    }

    /// Keeps `v` if it beats group `g`'s running extreme (strictly, so the
    /// first of equal values stays — `5` before `5.0`).
    fn offer(&mut self, g: usize, v: Value) {
        let best = &mut self.best[g];
        let better = best.is_null()
            || match self.func {
                AggFunc::Min => v < *best,
                _ => v > *best,
            };
        if better {
            *best = v;
        }
    }

    /// Feeds one non-NULL value to group `g` — the per-value path, with
    /// `Accumulator::update_value`'s exact semantics.
    fn push_value(&mut self, g: usize, v: Value) {
        if let Some(seen) = &mut self.seen {
            if !seen[g].insert(v.clone()) {
                return;
            }
        }
        match self.func {
            AggFunc::Count => self.count[g] += 1,
            AggFunc::Sum | AggFunc::Avg => {
                self.count[g] += 1;
                match v {
                    Value::Int(x) => self.sum_i[g] = self.sum_i[g].wrapping_add(x),
                    other => self.sum_f[g] += other.as_double().unwrap_or(0.0),
                }
            }
            AggFunc::Min | AggFunc::Max => self.offer(g, v),
        }
    }

    /// Folds one argument column into the state: row `j` — slot `j`, or
    /// slot `sel[j]` — into group `gids[j]`.
    fn update(&mut self, gids: &[u32], sel: Option<&[u32]>, col: &Column) {
        debug_assert_eq!(gids.len(), sel.map_or(col.len(), <[u32]>::len));
        let validity = col.validity.as_ref();
        if self.seen.is_none() {
            match (self.func, &col.data) {
                (AggFunc::Count, _) => {
                    for_rows!(gids, sel, validity, |_i, g| { self.count[g] += 1 });
                    return;
                }
                (AggFunc::Sum | AggFunc::Avg, ColumnData::Int64(vals)) => {
                    for_rows!(gids, sel, validity, |i, g| {
                        self.count[g] += 1;
                        self.sum_i[g] = self.sum_i[g].wrapping_add(vals[i]);
                    });
                    return;
                }
                (AggFunc::Sum | AggFunc::Avg, ColumnData::Float64(vals)) => {
                    for_rows!(gids, sel, validity, |i, g| {
                        self.count[g] += 1;
                        self.sum_f[g] += vals[i];
                    });
                    return;
                }
                (AggFunc::Min | AggFunc::Max, ColumnData::Int64(vals)) => {
                    for_rows!(gids, sel, validity, |i, g| {
                        self.offer(g, Value::Int(vals[i]))
                    });
                    return;
                }
                (AggFunc::Min | AggFunc::Max, ColumnData::Float64(vals)) => {
                    for_rows!(gids, sel, validity, |i, g| {
                        self.offer(g, Value::Double(vals[i]))
                    });
                    return;
                }
                _ => {}
            }
        }
        for (j, &gid) in gids.iter().enumerate() {
            if gid != NO_GROUP {
                let v = col.value(sel.map_or(j, |s| s[j] as usize));
                if !v.is_null() {
                    self.push_value(gid as usize, v);
                }
            }
        }
    }

    /// Folds a literal argument: every row with a group sees `v`. A
    /// non-NULL literal under a plain `count` just counts the gids.
    fn update_lit(&mut self, gids: &[u32], v: &Value) {
        if v.is_null() {
            return;
        }
        let groups = gids.iter().filter(|&&gid| gid != NO_GROUP);
        if self.func == AggFunc::Count && self.seen.is_none() {
            groups.for_each(|&gid| self.count[gid as usize] += 1);
        } else {
            groups.for_each(|&gid| self.push_value(gid as usize, v.clone()));
        }
    }

    /// The aggregate's value for group `g` — `Accumulator::finish`.
    fn finish(&self, g: usize) -> Value {
        let total = |g: usize| self.sum_f[g] + self.sum_i[g] as f64;
        match self.func {
            AggFunc::Count => Value::Int(self.count[g] as i64),
            AggFunc::Sum if self.count[g] == 0 => Value::Null,
            AggFunc::Sum if self.out == DataType::Double => Value::Double(total(g)),
            AggFunc::Sum => Value::Int(self.sum_i[g]),
            AggFunc::Avg if self.count[g] == 0 => Value::Null,
            AggFunc::Avg => Value::Double(total(g) / self.count[g] as f64),
            AggFunc::Min | AggFunc::Max => self.best[g].clone(),
        }
    }

    /// Finishes groups `0..n` into a column of the declared type and drops
    /// their state; the groups after them move down to id 0.
    fn take(&mut self, n: usize) -> Result<Column> {
        let vals: Vec<Value> = (0..n).map(|g| self.finish(g)).collect();
        fn drop_front<T>(v: &mut Vec<T>, n: usize) {
            v.drain(..n.min(v.len()));
        }
        drop_front(&mut self.count, n);
        drop_front(&mut self.sum_i, n);
        drop_front(&mut self.sum_f, n);
        drop_front(&mut self.best, n);
        if let Some(seen) = &mut self.seen {
            drop_front(seen, n);
        }
        Column::from_typed_values(self.out, vals.iter())
    }
}

/// The resident groups of one aggregation: their key rows (gathered from
/// the rows that opened them) and the columnar state of every aggregate
/// call. Group ids are dense, in first-seen order, and assigned by the
/// caller — a [`GroupTable`] or the run boundaries of an input ordered
/// on every grouping column.
pub(crate) struct GroupAgg {
    spec: Arc<AggSpec>,
    states: Vec<AggState>,
    /// Key rows of groups `0..groups`, in id order, as gathered per batch.
    keys: Vec<Batch>,
    groups: usize,
}

impl GroupAgg {
    pub(crate) fn new(spec: Arc<AggSpec>) -> GroupAgg {
        let out_types = &spec.out_types[spec.gkeys.len()..];
        let states = spec
            .calls
            .iter()
            .zip(out_types)
            .map(|(&(func, distinct, _), &out)| AggState::new(func, distinct, out))
            .collect();
        GroupAgg {
            spec,
            states,
            keys: Vec::new(),
            groups: 0,
        }
    }

    /// Number of resident groups.
    pub(crate) fn groups(&self) -> usize {
        self.groups
    }

    /// Absorbs one batch — its selected rows, when it carries a selection:
    /// row `i` belongs to group `gids[i]` ([`NO_GROUP`]: to none), and
    /// `first` lists, in id order, the rows that open the groups after the
    /// resident ones. Only those rows' keys are copied.
    pub(crate) fn absorb(&mut self, batch: &Batch, gids: &[u32], first: &[u32]) -> Result<()> {
        let sel = batch.selection();
        if !first.is_empty() {
            let slots: Vec<u32> = first
                .iter()
                .map(|&i| batch.slot(i as usize) as u32)
                .collect();
            self.keys.push(self.spec.key_columns(batch).gather(&slots));
            self.groups += first.len();
            for state in &mut self.states {
                state.grow(self.groups);
            }
        }
        let args = vector::eval_agg_args(&self.spec.arg_exprs, batch, &self.spec.layout)?;
        for (state, (_, _, arg)) in self.states.iter_mut().zip(&self.spec.calls) {
            match arg {
                AggArg::Lit(v) => state.update_lit(gids, v),
                AggArg::Col(c) => state.update(gids, sel, &args[*c]),
            }
        }
        Ok(())
    }

    /// Finishes groups `0..n` into an output batch (key columns, then one
    /// column per aggregate) and forgets them; the remaining groups are
    /// renumbered from 0.
    pub(crate) fn take(&mut self, n: usize) -> Result<Batch> {
        let keys = match self.keys.is_empty() {
            true => Batch::empty(&self.spec.out_types[..self.spec.gkeys.len()]),
            false => Batch::concat(&self.keys)?,
        };
        let mut cols = keys.slice(0, n).columns().to_vec();
        for state in &mut self.states {
            cols.push(Arc::new(state.take(n)?));
        }
        self.groups -= n;
        self.keys.clear();
        if self.groups > 0 {
            self.keys.push(keys.slice(n, self.groups));
        }
        Batch::from_columns_with_len(cols, n)
    }

    /// Finishes every resident group. This is where the empty-input
    /// global aggregate is decided, once, on rows absorbed: without
    /// grouping columns every row falls into the one group of the empty
    /// key, so no group means no row was absorbed — and SQL still wants
    /// one output row (`count(*)` = 0, `sum` = NULL).
    pub(crate) fn finish(&mut self) -> Result<Batch> {
        if self.spec.gkeys.is_empty() && self.groups == 0 {
            self.keys.push(Batch::from_columns_with_len(Vec::new(), 1)?);
            self.groups = 1;
            for state in &mut self.states {
                state.grow(1);
            }
        }
        self.take(self.groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::group_by;
    use fto_common::{Rng, Row};
    use std::collections::HashMap;

    fn rows_of(batch: Batch) -> Vec<Row> {
        let mut rows = Vec::new();
        batch.append_rows_to(&mut rows);
        rows
    }

    /// Same variant, doubles by bit pattern — except that any NaN equals
    /// any NaN: which operand's payload an `a + b` of two NaNs keeps is up
    /// to the code generator (it may commute the add), so it differs
    /// between two correct builds of the same loop.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Double(x), Value::Double(y)) if x.is_nan() => y.is_nan(),
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            _ => a == b && a.data_type() == b.data_type(),
        }
    }

    /// The argument column's declared type per `kind`.
    const KINDS: [DataType; 5] = [
        DataType::Int,
        DataType::Double,
        DataType::Date,
        DataType::Str,
        DataType::Bool,
    ];

    /// A random argument value of the case's one type (`kind`), or NULL.
    fn arg_value(rng: &mut Rng, kind: usize, nulls: bool) -> Value {
        if nulls && rng.range_usize(0, 4) == 0 {
            return Value::Null;
        }
        let doubles = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            1.5,
            -2.25,
            1e300,
            -1e300,
            f64::INFINITY,
            0.1,
        ];
        match kind {
            0 => Value::Int(match rng.range_usize(0, 6) {
                0 => i64::MAX,
                1 => i64::MIN,
                _ => rng.range_i64(-5, 6),
            }),
            1 => Value::Double(doubles[rng.range_usize(0, doubles.len())]),
            2 => Value::Date(rng.range_i64(-3, 4) as i32),
            3 => Value::str(["", "a", "a\0", "b", "ab"][rng.range_usize(0, 5)]),
            _ => Value::Bool(rng.bool()),
        }
    }

    /// Every well-typed aggregate over a `kind` argument column, a
    /// literal of either numeric type and an (untyped, never-counted)
    /// NULL — plain and `DISTINCT` — with its declared result type.
    fn typed_aggs(kind: usize) -> (Vec<(ColId, AggCall)>, Vec<DataType>) {
        use DataType::{Double, Int};
        let args = [
            (Expr::col(ColId(1)), KINDS[kind]),
            (Expr::int(1), Int),
            (Expr::Lit(Value::Double(2.5)), Double),
            (Expr::Lit(Value::Null), Int),
        ];
        let (mut aggs, mut types) = (Vec::new(), Vec::new());
        for (arg, arg_type) in args {
            let numeric = matches!(arg_type, Int | Double);
            for (func, out) in [
                (AggFunc::Count, Some(Int)),
                (AggFunc::Sum, numeric.then_some(arg_type)),
                (AggFunc::Min, Some(arg_type)),
                (AggFunc::Max, Some(arg_type)),
                (AggFunc::Avg, numeric.then_some(Double)),
            ] {
                let Some(out) = out else { continue };
                let call = AggCall::new(func, arg.clone());
                for call in [call.clone().distinct(), call] {
                    aggs.push((ColId(100 + aggs.len() as u32), call));
                    types.push(out);
                }
            }
        }
        (aggs, types)
    }

    #[test]
    fn columnar_state_matches_accumulators_fed_row_by_row() {
        let layout = RowLayout::new(vec![ColId(0), ColId(1)]);
        let specs: Vec<_> = (0..KINDS.len())
            .map(|kind| {
                let (aggs, agg_types) = typed_aggs(kind);
                let out_types = [vec![DataType::Int], agg_types].concat();
                let spec = AggSpec::new(&[0], &aggs, layout.clone(), out_types.clone());
                (aggs, out_types, Arc::new(spec))
            })
            .collect();
        let mut rng = Rng::new(0xA66_5EED);
        for case in 0..300 {
            // One argument type per case; within it, stretches of values
            // alternate with stretches of NULLs, so some batches carry the
            // column all-NULL — still of the declared type.
            let kind = case % KINDS.len();
            let (aggs, out_types, spec) = &specs[kind];
            let in_types = [DataType::Int, KINDS[kind]];
            let n = rng.range_usize(0, 120);
            let labels = rng.range_i64(1, 9);
            let nulls = rng.bool();
            let mut rows: Vec<Row> = Vec::new();
            while rows.len() < n {
                let all_null = nulls && rng.range_usize(0, 4) == 0;
                for _ in 0..rng.range_usize(1, 30) {
                    let arg = match all_null {
                        true => Value::Null,
                        false => arg_value(&mut rng, kind, nulls),
                    };
                    rows.push(vec![Value::Int(rng.range_i64(0, labels)), arg].into_boxed_slice());
                }
            }
            // Some rows belong to no group (the bounded path's overflow).
            let skipped: Vec<bool> = rows
                .iter()
                .map(|_| case % 3 == 0 && rng.range_usize(0, 5) == 0)
                .collect();
            let kept: Vec<Row> = rows
                .iter()
                .zip(&skipped)
                .filter(|(_, &s)| !s)
                .map(|(r, _)| r.clone())
                .collect();
            let expect = group_by(&kept, &layout, &[ColId(0)], aggs).unwrap();

            let mut agg = GroupAgg::new(Arc::clone(spec));
            let mut ids: HashMap<i64, u32> = HashMap::new();
            let mut at = 0;
            while at < rows.len() {
                let len = match rng.range_usize(0, 3) {
                    0 => 1,
                    _ => rng.range_usize(1, 40),
                }
                .min(rows.len() - at);
                let batch = Batch::from_typed_rows(&in_types, &rows[at..at + len]).unwrap();
                let (mut gids, mut first) = (Vec::new(), Vec::new());
                for (i, row) in rows[at..at + len].iter().enumerate() {
                    if skipped[at + i] {
                        gids.push(NO_GROUP);
                        continue;
                    }
                    let next = ids.len() as u32;
                    let label = row[0].as_int().unwrap();
                    gids.push(*ids.entry(label).or_insert_with(|| {
                        first.push(i as u32);
                        next
                    }));
                }
                agg.absorb(&batch, &gids, &first).unwrap();
                at += len;
            }
            assert_eq!(agg.groups(), expect.len(), "case {case}");
            // The result has the declared types whatever it holds — no
            // group at all, or a `sum` that is NULL in every group.
            let out = agg.finish().unwrap();
            let held: Vec<DataType> = out.columns().iter().map(|c| c.data_type()).collect();
            assert_eq!(&held, out_types, "case {case}");
            let got = rows_of(out);
            assert_eq!(got.len(), expect.len(), "case {case}");
            for (g, e) in got.iter().zip(&expect) {
                for (j, (x, y)) in g.iter().zip(e.iter()).enumerate() {
                    assert!(same(x, y), "case {case} column {j}: {x:?} vs {y:?}");
                }
            }
        }
    }

    #[test]
    fn take_renumbers_the_groups_left_behind() {
        // The ordered grouping's use: finished groups leave, the open one
        // stays as group 0 and keeps absorbing.
        let layout = RowLayout::new(vec![ColId(0), ColId(1)]);
        let aggs = vec![
            (
                ColId(9),
                AggCall::new(AggFunc::Sum, Expr::col(ColId(1))).distinct(),
            ),
            (ColId(10), AggCall::new(AggFunc::Max, Expr::col(ColId(1)))),
        ];
        let ints = |n| vec![DataType::Int; n];
        let spec = Arc::new(AggSpec::new(&[0], &aggs, layout, ints(3)));
        let mut agg = GroupAgg::new(spec);
        let row = |k: i64, v: i64| vec![Value::Int(k), Value::Int(v)].into_boxed_slice();
        let batch = |rows: &[Row]| Batch::from_typed_rows(&ints(2), rows).unwrap();
        let b1 = batch(&[row(1, 10), row(1, 10), row(2, 5)]);
        agg.absorb(&b1, &[0, 0, 1], &[0, 2]).unwrap();
        let out = rows_of(agg.take(1).unwrap());
        assert_eq!(
            out,
            vec![vec![Value::Int(1), Value::Int(10), Value::Int(10)].into()]
        );
        let b2 = batch(&[row(2, 5), row(2, 7), row(3, 1)]);
        agg.absorb(&b2, &[0, 0, 1], &[2]).unwrap();
        let out = rows_of(agg.finish().unwrap());
        assert_eq!(
            out,
            vec![
                vec![Value::Int(2), Value::Int(12), Value::Int(7)].into(),
                vec![Value::Int(3), Value::Int(1), Value::Int(1)].into(),
            ]
        );
        assert_eq!(agg.groups(), 0);
    }

    #[test]
    fn group_table_ids_are_first_seen_order() {
        // Against a HashMap reference: keys that are prefixes of each
        // other, the empty key, repeats, refusals, and growth past 2^16.
        let mut keys: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![0, 0],
            vec![1],
            vec![1, 2, 3, 4, 5, 6, 7],
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 0],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17],
        ];
        let mut rng = Rng::new(0x6A1D);
        for i in 0..90_000u64 {
            // Numeric-key shaped: a tag, a big-endian payload whose low
            // bytes are mostly zero, a fixed suffix.
            let mut k = vec![1u8];
            k.extend_from_slice(&(i << 40).to_be_bytes());
            k.extend_from_slice(&[0x80, 0x00]);
            keys.push(k);
            // Repeat an earlier key now and then.
            let j = rng.range_usize(0, keys.len());
            keys.push(keys[j].clone());
        }
        let mut table = GroupTable::new();
        let mut reference: HashMap<Vec<u8>, u32> = HashMap::new();
        let (mut gids, mut first) = (Vec::new(), Vec::new());
        for chunk in keys.chunks(1000) {
            let mut arena = KeyArena::default();
            for k in chunk {
                arena.push(k);
            }
            // Refuse every seventh new key: it must stay unknown.
            let mut offered = 0usize;
            table.assign(&arena, &mut gids, &mut first, |_, _| {
                offered += 1;
                !offered.is_multiple_of(7)
            });
            let mut offered = 0usize;
            let mut want_first = Vec::new();
            for (i, k) in chunk.iter().enumerate() {
                let want = match reference.get(k) {
                    Some(&g) => g,
                    None => {
                        offered += 1;
                        if !offered.is_multiple_of(7) {
                            let g = reference.len() as u32;
                            reference.insert(k.clone(), g);
                            want_first.push(i as u32);
                            g
                        } else {
                            NO_GROUP
                        }
                    }
                };
                assert_eq!(gids[i], want, "key {k:?}");
            }
            assert_eq!(first, want_first);
        }
        assert_eq!(table.len(), reference.len());
        assert!(table.len() > 1 << 16);
    }
}
