//! Columnar batches: typed column vectors, validity bitmaps, and
//! selection-vector gathers.
//!
//! The streaming executor moves data between operators as [`Batch`]es —
//! fixed collections of equal-length, reference-counted [`Column`]s —
//! instead of rows of enum-tagged [`Value`]s. Hot operators (filter,
//! projection, sort-key encoding) then run tight per-type loops over the
//! typed vectors; everything else falls back to per-row [`Value`]
//! materialization through [`Batch::row`] / [`Batch::to_rows`], which are
//! exact inverses of [`Batch::from_typed_rows`] so the row-based
//! query-level oracle's rows and the executor's batches convert without
//! loss.
//!
//! Layout rule: a column has the type its schema or its bound query
//! declares ([`ColumnData::Int64`], [`ColumnData::Float64`],
//! [`ColumnData::Utf8`], [`ColumnData::Date32`], [`ColumnData::Bool`]) —
//! never one inferred from the values it happens to hold — and stores one
//! primitive per slot plus an optional validity [`Bitmap`] (`None` means
//! every slot is valid). Invalid slots hold the type's default in the data
//! vector and read back as [`Value::Null`]; an all-NULL or empty column
//! still has its declared type. [`Column::from_typed_values`] is the one
//! way values become a column, and it refuses a value of another type.
//!
//! A batch may carry a selection: the ascending slots of its columns that
//! are its rows, which a filter attaches instead of copying the rows it
//! keeps and a slice instead of copying its range. Slots are copied by two
//! per-type loops: `Column::copy` takes ranges and selections of columns
//! part after part ([`Batch::gather`], [`Batch::concat`]), and
//! [`Column::gather_multi`] picks `(source, slot)` pairs interleaved. Both
//! keep one validity rule: a copy carries a bitmap only when a copied slot
//! is NULL, so what is copied — and spilled — does not depend on whether
//! its sources carried one.

use crate::sortkey;
use crate::value::{cmp_f64_nan_high, cmp_int_double, type_rank, DataType, Row, Value};
use crate::{Direction, FtoError, Result};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// A word-packed validity bitmap: bit `i` set means slot `i` is valid
/// (non-null). Same u64-word representation as [`crate::ColSet`], but
/// fixed-length and indexed by row position rather than by `ColId`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// A bitmap of `len` slots, all initialized to `valid`.
    pub fn new(len: usize, valid: bool) -> Bitmap {
        let nwords = len.div_ceil(64);
        let fill = if valid { u64::MAX } else { 0 };
        let mut words = vec![fill; nwords];
        if valid && !len.is_multiple_of(64) {
            // Keep trailing bits zero so count_valid stays exact.
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether slot `i` is valid.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Marks slot `i` valid (`true`) or null (`false`).
    #[inline]
    pub fn set(&mut self, i: usize, valid: bool) {
        debug_assert!(i < self.len);
        if valid {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Number of valid slots.
    pub fn count_valid(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when every slot is valid.
    pub fn all_valid(&self) -> bool {
        self.count_valid() == self.len
    }

    /// Bytes of backing storage (the packed words).
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    /// The packed validity words (bit `i` of the stream = slot `i`).
    /// Trailing bits past `len` are always zero — the serialization
    /// contract [`Bitmap::from_words`] relies on.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from its packed words (the inverse of
    /// [`Bitmap::words`]). Trailing bits past `len` are masked off so the
    /// invariant `count_valid <= len` holds regardless of the source.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Bitmap {
        words.resize(len.div_ceil(64), 0);
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        Bitmap { words, len }
    }
}

/// The typed storage behind one [`Column`].
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    /// 64-bit signed integers ([`Value::Int`]).
    Int64(Vec<i64>),
    /// 64-bit IEEE-754 floats ([`Value::Double`]); bit patterns (NaN
    /// payloads, `-0.0`) are preserved exactly.
    Float64(Vec<f64>),
    /// UTF-8 strings in one contiguous byte buffer with `len + 1`
    /// monotone offsets: string `i` is `bytes[offsets[i]..offsets[i+1]]`.
    Utf8 {
        /// Slot boundaries into `bytes`; `offsets.len() == len + 1`.
        offsets: Vec<u32>,
        /// Concatenated string payloads.
        bytes: Vec<u8>,
    },
    /// Dates as days since the epoch ([`Value::Date`]).
    Date32(Vec<i32>),
    /// Booleans ([`Value::Bool`]).
    Bool(Vec<bool>),
}

impl ColumnData {
    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Utf8 { offsets, .. } => offsets.len() - 1,
            ColumnData::Date32(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// True when the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int64(_) => DataType::Int,
            ColumnData::Float64(_) => DataType::Double,
            ColumnData::Utf8 { .. } => DataType::Str,
            ColumnData::Date32(_) => DataType::Date,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }
}

/// One equal-length column of a [`Batch`]: typed data plus an optional
/// validity bitmap (`None` = every slot valid).
#[derive(Clone, Debug, PartialEq)]
pub struct Column {
    /// The typed vector.
    pub data: ColumnData,
    /// Validity: `None` means all valid; otherwise bit `i` set means slot
    /// `i` is non-null.
    pub validity: Option<Bitmap>,
}

impl Column {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no slots.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The declared element type.
    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    /// Builds a column of the declared type `ty` from values, in one pass —
    /// the one way [`Value`]s become a column. NULLs take invalid slots; a
    /// value of another type (an `Int` for a `Double` column included:
    /// nothing is coerced) is an [`FtoError::Internal`].
    pub fn from_typed_values<'a>(
        ty: DataType,
        values: impl Iterator<Item = &'a Value>,
    ) -> Result<Column> {
        let (mut nulls, mut refused) = (Vec::new(), None);
        // What a slot holds when its value is not of the column's type:
        // the type's default, as a NULL — or as the value to refuse.
        let mut other = |i: usize, v: &'a Value| match v {
            Value::Null => nulls.push(i),
            _ => refused = refused.or(Some(v)),
        };
        // The slots of a fixed-width column; `get` tells a value of the
        // column's type from the rest.
        macro_rules! slots {
            ($get:expr) => {{
                let slot = |(i, v)| {
                    $get(v).unwrap_or_else(|| {
                        other(i, v);
                        Default::default()
                    })
                };
                values.enumerate().map(slot).collect()
            }};
        }
        let data = match ty {
            DataType::Int => ColumnData::Int64(slots!(Value::as_int)),
            DataType::Double => ColumnData::Float64(slots!(|v: &Value| match v {
                Value::Double(d) => Some(*d),
                _ => None,
            })),
            DataType::Date => ColumnData::Date32(slots!(Value::as_date)),
            DataType::Bool => ColumnData::Bool(slots!(Value::as_bool)),
            DataType::Str => {
                let mut bytes = Vec::new();
                let end = |(i, v): (usize, &'a Value)| {
                    match v.as_str() {
                        Some(s) => bytes.extend_from_slice(s.as_bytes()),
                        None => other(i, v),
                    }
                    bytes.len() as u32
                };
                let offsets = std::iter::once(0).chain(values.enumerate().map(end));
                ColumnData::Utf8 {
                    offsets: offsets.collect(),
                    bytes,
                }
            }
        };
        if let Some(v) = refused {
            return Err(FtoError::internal(format!("{v:?} in a {ty} column")));
        }
        let validity = (!nulls.is_empty()).then(|| {
            let mut bm = Bitmap::new(data.len(), true);
            nulls.iter().for_each(|&i| bm.set(i, false));
            bm
        });
        Ok(Column { data, validity })
    }

    /// `n` NULL slots of type `ty`.
    pub fn nulls(ty: DataType, n: usize) -> Column {
        Column::from_typed_values(ty, std::iter::repeat_n(&Value::Null, n))
            .expect("NULL is a value of every type")
    }

    /// Whether slot `i` is valid (non-null).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|bm| bm.get(i))
    }

    /// Materializes slot `i` as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        if let Some(bm) = &self.validity {
            if !bm.get(i) {
                return Value::Null;
            }
        }
        match &self.data {
            ColumnData::Int64(v) => Value::Int(v[i]),
            ColumnData::Float64(v) => Value::Double(v[i]),
            ColumnData::Utf8 { offsets, bytes } => {
                let s = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                Value::Str(Arc::from(
                    std::str::from_utf8(s).expect("Utf8 column holds valid UTF-8"),
                ))
            }
            ColumnData::Date32(v) => Value::Date(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// Compares slot `i` of this column with slot `j` of `other`, deciding
    /// exactly as [`Value::total_cmp`] does on `self.value(i)` and
    /// `other.value(j)` — NULL greatest, NaN-high doubles, `Int` against
    /// `Double` exactly, strings byte-wise, a type mismatch by type rank —
    /// without materializing either value.
    #[inline]
    pub fn cmp_at(&self, i: usize, other: &Column, j: usize) -> Ordering {
        match (self.is_valid(i), other.is_valid(j)) {
            (true, true) => {}
            (a, b) => return b.cmp(&a),
        }
        use ColumnData::*;
        match (&self.data, &other.data) {
            (Int64(a), Int64(b)) => a[i].cmp(&b[j]),
            (Float64(a), Float64(b)) => cmp_f64_nan_high(a[i], b[j]),
            (Int64(a), Float64(b)) => cmp_int_double(a[i], b[j]),
            (Float64(a), Int64(b)) => cmp_int_double(b[j], a[i]).reverse(),
            (
                Utf8 { offsets, bytes },
                Utf8 {
                    offsets: o,
                    bytes: b,
                },
            ) => {
                let a = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                a.cmp(&b[o[j] as usize..o[j + 1] as usize])
            }
            (Date32(a), Date32(b)) => a[i].cmp(&b[j]),
            (Bool(a), Bool(b)) => a[i].cmp(&b[j]),
            (a, b) => type_rank(Some(a.data_type())).cmp(&type_rank(Some(b.data_type()))),
        }
    }

    /// Bytes of backing storage held by this column: the typed data
    /// vector (element size × length; `Utf8` counts offsets plus payload)
    /// plus the validity bitmap. This is the columnar counterpart of the
    /// row-shaped [`crate::row_bytes`] accounting the memory budget
    /// charges; rows pay per-value enum overhead, so the row measure
    /// bounds this one from above for the same data.
    pub fn byte_size(&self) -> usize {
        let data = match &self.data {
            ColumnData::Int64(v) => v.len() * 8,
            ColumnData::Float64(v) => v.len() * 8,
            ColumnData::Utf8 { offsets, bytes } => offsets.len() * 4 + bytes.len(),
            ColumnData::Date32(v) => v.len() * 4,
            ColumnData::Bool(v) => v.len(),
        };
        data + self.validity.as_ref().map_or(0, Bitmap::byte_size)
    }

    /// Copies the slots `parts` name, part after part, into one new
    /// column: the one loop every contiguous copy of slots runs — a gather
    /// of named slots, a concatenation, a splice of ranges and selections
    /// of several columns. The parts are one stream's, so they share one
    /// type: a part with no slots to give has no say in it, and a non-empty
    /// part of another — or no part at all — is an [`FtoError::Internal`].
    /// The copy carries a validity bitmap only when a copied slot is NULL.
    fn copy(parts: &[Part<'_>]) -> Result<Column> {
        let lead = parts
            .iter()
            .find(|(_, slots)| !slots.is_empty())
            .or(parts.first())
            .map(|&(c, _)| c)
            .ok_or_else(|| FtoError::internal("copy of no columns"))?;
        match copy_as(lead, parts) {
            (col, None) => Ok(col),
            (_, Some(stray)) => Err(type_mismatch("copy", lead, stray)),
        }
    }

    /// Gathers slots from several source columns of one type at once:
    /// output slot `j` is slot `sel[j].1` of `cols[sel[j].0]` — the one loop
    /// for interleaved picks, which assembles join payloads from a resident
    /// build batch plus decoded spill groups, and merged sort runs. The
    /// sources are one stream's, so they share one type; a slot gathered
    /// from a source of another is an [`FtoError::Internal`]. Validity as
    /// `Column::copy`'s: a bitmap only when a gathered slot is NULL.
    pub fn gather_multi(cols: &[&Column], sel: &[(u32, u32)]) -> Result<Column> {
        let lead = *cols
            .iter()
            .find(|c| !c.is_empty())
            .or(cols.first())
            .ok_or_else(|| FtoError::internal("gather from no columns"))?;
        let mut validity = None;
        if cols.iter().any(|c| c.validity.is_some()) {
            for (j, &(s, i)) in sel.iter().enumerate() {
                if !cols[s as usize].is_valid(i as usize) {
                    mark_null(&mut validity, sel.len(), j);
                }
            }
        }
        // A slot asked of a source of another type takes the default and
        // is reported once the (exactly sized) gather is done.
        let mut stray = None;
        macro_rules! pick {
            ($variant:ident) => {{
                let slot = |&(s, i): &(u32, u32)| match &cols[s as usize].data {
                    ColumnData::$variant(v) => v[i as usize],
                    _ => {
                        stray = Some(s);
                        Default::default()
                    }
                };
                ColumnData::$variant(sel.iter().map(slot).collect())
            }};
        }
        let data = match &lead.data {
            ColumnData::Int64(_) => pick!(Int64),
            ColumnData::Float64(_) => pick!(Float64),
            ColumnData::Date32(_) => pick!(Date32),
            ColumnData::Bool(_) => pick!(Bool),
            ColumnData::Utf8 { .. } => {
                let mut out_off = Vec::with_capacity(sel.len() + 1);
                let mut out_bytes = Vec::new();
                out_off.push(0u32);
                for &(s, i) in sel {
                    match &cols[s as usize].data {
                        ColumnData::Utf8 { offsets, bytes } => {
                            let (lo, hi) = (
                                offsets[i as usize] as usize,
                                offsets[i as usize + 1] as usize,
                            );
                            out_bytes.extend_from_slice(&bytes[lo..hi]);
                        }
                        _ => stray = Some(s),
                    }
                    out_off.push(out_bytes.len() as u32);
                }
                ColumnData::Utf8 {
                    offsets: out_off,
                    bytes: out_bytes,
                }
            }
        };
        if let Some(s) = stray {
            return Err(type_mismatch("gather", lead, cols[s as usize]));
        }
        Ok(Column { data, validity })
    }
}

/// Marks slot `j` of a copy of `len` slots NULL: the one validity rule of
/// every copy, which allocates the bitmap at the first NULL it copies.
fn mark_null(validity: &mut Option<Bitmap>, len: usize, j: usize) {
    validity
        .get_or_insert_with(|| Bitmap::new(len, true))
        .set(j, false);
}

/// [`Column::copy`] of `parts` into a column of `lead`'s type, and the
/// first non-empty part of another type, if one was asked for: its slots
/// take the type's default.
fn copy_as<'a>(lead: &Column, parts: &[Part<'a>]) -> (Column, Option<&'a Column>) {
    let total = parts.iter().map(|(_, slots)| slots.len()).sum();
    let (mut validity, mut base) = (None, 0);
    for &(c, slots) in parts {
        if let Some(bm) = &c.validity {
            slots.for_each(|j, i| {
                if !bm.get(i) {
                    mark_null(&mut validity, total, base + j);
                }
            });
        }
        base += slots.len();
    }
    let mut stray = None;
    macro_rules! copy {
        ($variant:ident) => {{
            let mut out = Vec::with_capacity(total);
            for &(c, slots) in parts {
                match (&c.data, slots) {
                    (ColumnData::$variant(v), Slots::Range(lo, hi)) => {
                        out.extend_from_slice(&v[lo..hi])
                    }
                    (ColumnData::$variant(v), Slots::Pick(s)) => {
                        out.extend(s.iter().map(|&i| v[i as usize]))
                    }
                    _ => {
                        stray = stray.or((!slots.is_empty()).then_some(c));
                        out.resize(out.len() + slots.len(), Default::default());
                    }
                }
            }
            ColumnData::$variant(out)
        }};
    }
    let data = match &lead.data {
        ColumnData::Int64(_) => copy!(Int64),
        ColumnData::Float64(_) => copy!(Float64),
        ColumnData::Date32(_) => copy!(Date32),
        ColumnData::Bool(_) => copy!(Bool),
        ColumnData::Utf8 { .. } => {
            let mut out_off = Vec::with_capacity(total + 1);
            let mut out_bytes = Vec::new();
            out_off.push(0u32);
            for &(c, slots) in parts {
                let ColumnData::Utf8 { offsets, bytes } = &c.data else {
                    stray = stray.or((!slots.is_empty()).then_some(c));
                    out_off.resize(out_off.len() + slots.len(), out_bytes.len() as u32);
                    continue;
                };
                let span = |i: usize| offsets[i] as usize..offsets[i + 1] as usize;
                match slots {
                    Slots::Range(lo, hi) => {
                        let (from, at) = (offsets[lo], out_bytes.len() as u32);
                        out_bytes.extend_from_slice(&bytes[from as usize..offsets[hi] as usize]);
                        out_off.extend(offsets[lo + 1..=hi].iter().map(|&o| o - from + at));
                    }
                    Slots::Pick(s) => {
                        out_bytes.reserve(s.iter().map(|&i| span(i as usize).len()).sum());
                        for &i in s {
                            out_bytes.extend_from_slice(&bytes[span(i as usize)]);
                            out_off.push(out_bytes.len() as u32);
                        }
                    }
                }
            }
            ColumnData::Utf8 {
                offsets: out_off,
                bytes: out_bytes,
            }
        }
    };
    (Column { data, validity }, stray)
}

fn type_mismatch(what: &str, lead: &Column, other: &Column) -> FtoError {
    FtoError::internal(format!(
        "{what} of a {} column with a {} column",
        lead.data_type(),
        other.data_type()
    ))
}

/// Which slots of a column a [`Column::copy`] part takes, in order.
#[derive(Clone, Copy, Debug)]
enum Slots<'a> {
    /// Slots `lo..hi`.
    Range(usize, usize),
    /// The named slots, which may repeat or reorder freely.
    Pick(&'a [u32]),
}

impl Slots<'_> {
    /// Number of slots taken.
    fn len(&self) -> usize {
        match *self {
            Slots::Range(lo, hi) => hi - lo,
            Slots::Pick(s) => s.len(),
        }
    }

    /// True when no slot is taken.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f(j, slot)` for the `j`-th slot taken, in order.
    fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        match *self {
            Slots::Range(lo, hi) => (lo..hi).enumerate().for_each(|(j, i)| f(j, i)),
            Slots::Pick(s) => s.iter().enumerate().for_each(|(j, &i)| f(j, i as usize)),
        }
    }
}

/// One part of a [`Column::copy`]: a column and the slots of it to take.
type Part<'a> = (&'a Column, Slots<'a>);

/// A columnar batch: equal-length reference-counted columns, and which of
/// their slots are the batch's rows.
///
/// Columns are `Arc`-shared so projection of a bare column reference and
/// pass-through operators are pointer copies, not data copies. The slot
/// count is carried explicitly so a zero-column batch (no projected
/// columns) still knows its cardinality.
///
/// Neither a filter nor a slice copies the rows it keeps: each attaches a
/// *selection*, the ascending slots that are rows, and hands the columns
/// on unchanged — a slice is a view. [`Batch::len`] counts the selected
/// rows, and row `i` — for [`Batch::row`], [`Batch::slice`] and the key
/// encoder — is the `i`-th selected slot. Everything that indexes columns
/// directly reads slots: [`Batch::columns`], [`Batch::gather`],
/// [`batch_row_bytes`]. A batch without a selection is *dense*: its rows
/// are its slots. Rows are copied only into a batch that must be dense, by
/// `Column::copy` or [`Column::gather_multi`].
#[derive(Clone, Debug)]
pub struct Batch {
    columns: Vec<Arc<Column>>,
    /// Slots per column.
    slots: usize,
    /// The slots that are rows, ascending; `None`: every slot.
    sel: Option<Arc<[u32]>>,
}

impl Batch {
    /// A zero-row batch with one column of each of `types`.
    pub fn empty(types: &[DataType]) -> Batch {
        Batch {
            columns: types
                .iter()
                .map(|&ty| Arc::new(Column::nulls(ty, 0)))
                .collect(),
            slots: 0,
            sel: None,
        }
    }

    /// Builds a dense batch from equal-length columns.
    ///
    /// Returns [`FtoError::Internal`] when column lengths disagree.
    pub fn from_columns(columns: Vec<Arc<Column>>) -> Result<Batch> {
        let slots = columns.first().map(|c| c.len()).unwrap_or(0);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != slots {
                return Err(FtoError::internal(format!(
                    "batch column {i} has length {} but column 0 has {slots}",
                    c.len()
                )));
            }
        }
        Ok(Batch {
            columns,
            slots,
            sel: None,
        })
    }

    /// As [`Batch::from_columns`], but with an explicit row count for the
    /// zero-column case (e.g. `SELECT` lists that project nothing).
    pub fn from_columns_with_len(columns: Vec<Arc<Column>>, len: usize) -> Result<Batch> {
        if columns.is_empty() {
            return Ok(Batch {
                columns,
                slots: len,
                sel: None,
            });
        }
        let b = Batch::from_columns(columns)?;
        if b.slots != len {
            return Err(FtoError::internal(format!(
                "batch declared {len} rows but columns hold {}",
                b.slots
            )));
        }
        Ok(b)
    }

    /// Transposes rows into a batch whose columns have the declared
    /// `types`, each built by [`Column::from_typed_values`]. A row of
    /// another arity is an [`FtoError::Internal`] too.
    pub fn from_typed_rows(types: &[DataType], rows: &[Row]) -> Result<Batch> {
        if let Some(row) = rows.iter().find(|r| r.len() != types.len()) {
            return Err(FtoError::internal(format!(
                "row of {} values for a batch of {} columns",
                row.len(),
                types.len()
            )));
        }
        let column = |(c, &ty): (usize, &DataType)| {
            Column::from_typed_values(ty, rows.iter().map(move |r| &r[c])).map(Arc::new)
        };
        Ok(Batch {
            columns: types
                .iter()
                .enumerate()
                .map(column)
                .collect::<Result<_>>()?,
            slots: rows.len(),
            sel: None,
        })
    }

    /// Number of rows: the selected slots, or every slot of a dense batch.
    pub fn len(&self) -> usize {
        self.sel.as_ref().map_or(self.slots, |s| s.len())
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots in each column, selected or not.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The slots that are the batch's rows, ascending; `None` for a dense
    /// batch.
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// The same columns with the rows `sel` selected: ascending slots of
    /// these columns, which may come from this batch's own selection
    /// refined. Selecting every slot leaves the batch dense.
    pub fn with_selection(self, sel: Vec<u32>) -> Batch {
        debug_assert!(
            sel.windows(2).all(|w| w[0] < w[1]),
            "selection not ascending"
        );
        debug_assert!(sel.last().is_none_or(|&i| (i as usize) < self.slots));
        let sel = (sel.len() != self.slots).then(|| Arc::from(sel));
        Batch { sel, ..self }
    }

    /// A batch of `columns` — each of this batch's slot count — with this
    /// batch's rows selected.
    pub fn with_columns(&self, columns: Vec<Arc<Column>>) -> Result<Batch> {
        let dense = Batch::from_columns_with_len(columns, self.slots)?;
        Ok(Batch {
            sel: self.sel.clone(),
            ..dense
        })
    }

    /// The slot holding row `i`.
    #[inline]
    pub fn slot(&self, i: usize) -> usize {
        self.sel.as_ref().map_or(i, |s| s[i] as usize)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns, in position order: every slot, selected or not.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Column at position `i`.
    pub fn column(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    /// Materializes row `i`.
    pub fn row(&self, i: usize) -> Row {
        let slot = self.slot(i);
        self.columns
            .iter()
            .map(|c| c.value(slot))
            .collect::<Vec<_>>()
            .into_boxed_slice()
    }

    /// Materializes every row. Exact inverse of [`Batch::from_typed_rows`].
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len()).map(|i| self.row(i)).collect()
    }

    /// Appends every row to `out` without an intermediate vector.
    pub fn append_rows_to(&self, out: &mut Vec<Row>) {
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(self.row(i));
        }
    }

    /// Bytes of backing storage across all columns (shared `Arc` columns
    /// are counted once per reference — the conservative choice for
    /// budget accounting).
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Copies the slots named by `sel`, in order, into a new dense batch
    /// (see `Column::copy`). The indices name slots, not rows: a
    /// selection the batch carries is not consulted.
    pub fn gather(&self, sel: &[u32]) -> Batch {
        let column = |c: &Arc<Column>| Arc::new(copy_as(c, &[(c, Slots::Pick(sel))]).0);
        Batch {
            columns: self.columns.iter().map(column).collect(),
            slots: sel.len(),
            sel: None,
        }
    }

    /// The columns at `positions`, in that order, every row kept: `Arc`
    /// clones, never a data copy; the selection carries over.
    pub fn select(&self, positions: &[usize]) -> Batch {
        Batch {
            columns: positions
                .iter()
                .map(|&p| Arc::clone(&self.columns[p]))
                .collect(),
            slots: self.slots,
            sel: self.sel.clone(),
        }
    }

    /// Rows `offset..offset + len`, as a view: the same `Arc` columns with
    /// those rows selected — a range of a dense batch's slots, a piece of
    /// a selected one's selection. No slot is copied; a full-range slice
    /// is the batch itself.
    pub fn slice(&self, offset: usize, len: usize) -> Batch {
        debug_assert!(offset + len <= self.len());
        if len == self.len() {
            return self.clone();
        }
        let sel = match &self.sel {
            Some(sel) => Arc::from(&sel[offset..offset + len]),
            None => (offset as u32..(offset + len) as u32).collect(),
        };
        Batch {
            columns: self.columns.clone(),
            slots: self.slots,
            sel: Some(sel),
        }
    }

    /// The slots from the batch's first row to its last: every slot of a
    /// dense batch, the range of a slice of one.
    pub fn span(&self) -> Range<usize> {
        let Some(sel) = self.sel.as_deref() else {
            return 0..self.slots;
        };
        match (sel.first(), sel.last()) {
            (Some(&first), Some(&last)) => first as usize..last as usize + 1,
            _ => 0..0,
        }
    }

    /// The slots that are this batch's rows, as a copy takes them: a
    /// range when they are contiguous — a dense batch, or a slice of one —
    /// and its selection otherwise.
    fn rows(&self) -> Slots<'_> {
        let span = self.span();
        match self.sel.as_deref() {
            Some(sel) if sel.len() != span.len() => Slots::Pick(sel),
            _ => Slots::Range(span.start, span.end),
        }
    }

    /// Concatenates one or more equal-arity batches end to end. A single
    /// part is the part itself, views and selections kept; several make
    /// one dense batch, each part's rows copied once by
    /// `Column::copy`.
    pub fn concat(parts: &[Batch]) -> Result<Batch> {
        let [first, rest @ ..] = parts else {
            return Err(FtoError::internal("concat of no batches"));
        };
        if rest.is_empty() {
            return Ok(first.clone());
        }
        let columns = (0..first.arity())
            .map(|c| {
                let cols: Vec<Part<'_>> =
                    parts.iter().map(|b| (&*b.columns[c], b.rows())).collect();
                Column::copy(&cols).map(Arc::new)
            })
            .collect::<Result<_>>()?;
        Ok(Batch {
            columns,
            slots: parts.iter().map(Batch::len).sum(),
            sel: None,
        })
    }

    /// Gathers rows from one or more equal-arity dense source batches:
    /// output row `j` is row `sel[j].1` of `sources[sel[j].0]` (see
    /// [`Column::gather_multi`]).
    pub fn gather_multi(sources: &[&Batch], sel: &[(u32, u32)]) -> Result<Batch> {
        let first = sources
            .first()
            .ok_or_else(|| FtoError::internal("gather from no batches"))?;
        if sources.iter().any(|b| b.sel.is_some()) {
            return Err(FtoError::internal("gather of a selected batch"));
        }
        let columns = (0..first.arity())
            .map(|c| {
                let cols: Vec<&Column> = sources.iter().map(|b| b.column(c).as_ref()).collect();
                Column::gather_multi(&cols, sel).map(Arc::new)
            })
            .collect::<Result<_>>()?;
        Ok(Batch {
            columns,
            slots: sel.len(),
            sel: None,
        })
    }
}

/// [`crate::row_bytes`] of the row in slot `slot` of `batch`, computed
/// straight from the column vectors — exactly what
/// `row_bytes(&batch.gather(&[slot]).row(0))` would return, without
/// materializing the row. Budgeted operators charge admission costs
/// through this so the columnar paths account byte-for-byte like the
/// row-shimmed ones.
pub fn batch_row_bytes(batch: &Batch, slot: usize) -> usize {
    const ARC_HEADER: usize = 16;
    let per_value = std::mem::size_of::<Value>();
    16 + batch
        .columns
        .iter()
        .map(|c| {
            per_value
                + match (&c.data, c.is_valid(slot)) {
                    (ColumnData::Utf8 { offsets, .. }, true) => {
                        ARC_HEADER + (offsets[slot + 1] - offsets[slot]) as usize
                    }
                    _ => 0,
                }
        })
        .sum::<usize>()
}

/// Encodes the sort key of every row of `batch` into one contiguous
/// arena: `bytes` holds the concatenated per-row keys, `offsets` (length
/// `batch.len() + 1`) delimits them — row `i`'s key is
/// `bytes[offsets[i]..offsets[i + 1]]`. A selected batch encodes its
/// selected rows only. Byte-identical to [`sortkey::encode_key`] per row
/// — the row encoder is the reference — with one type dispatch per column
/// instead of one per value and no per-row or per-column buffer: a single
/// key column appends straight to the arena; with several, every row's
/// key is sized first and each column then writes its slots into place.
/// The executor's sort and group-by hot paths build keys through this.
/// Both output vectors are overwritten.
pub fn encode_batch_keys_arena(
    batch: &Batch,
    keys: &[(usize, Direction)],
    bytes: &mut Vec<u8>,
    offsets: &mut Vec<usize>,
) {
    match batch.selection() {
        None => encode_rows(batch, 0..batch.slots(), keys, bytes, offsets),
        Some(sel) => encode_rows(batch, sel.iter().map(|&i| i as usize), keys, bytes, offsets),
    }
}

/// [`encode_batch_keys_arena`] over the slots `rows` yields.
fn encode_rows<I: ExactSizeIterator<Item = usize> + Clone>(
    batch: &Batch,
    rows: I,
    keys: &[(usize, Direction)],
    bytes: &mut Vec<u8>,
    offsets: &mut Vec<usize>,
) {
    let n = rows.len();
    bytes.clear();
    offsets.clear();
    if let [(pos, dir)] = keys {
        // One key: a row's slot ends where the next begins, so appending
        // is already "in place" (and measures 10–40 % faster than sizing
        // first on fixed-width and short-string columns).
        encode_column_flat(batch.column(*pos), rows, bytes, offsets);
        if *dir == Direction::Desc {
            for b in bytes.iter_mut() {
                *b = !*b;
            }
        }
        return;
    }
    offsets.resize(n + 1, 0);
    // Size: sum each row's per-column lengths into `offsets[i + 1]`, then
    // turn the lengths into row start positions.
    for &(pos, _) in keys {
        add_key_lens(batch.column(pos), rows.clone(), &mut offsets[1..]);
    }
    let mut total = 0usize;
    for o in &mut offsets[1..] {
        let len = *o;
        *o = total;
        total += len;
    }
    bytes.resize(total, 0);
    // Fill: `offsets[i + 1]` is row `i`'s write cursor; every column
    // advances it past the slot it wrote, so after the last column it is
    // the row's end — the offset the caller reads.
    for &(pos, dir) in keys {
        write_key_slots(
            batch.column(pos),
            rows.clone(),
            dir == Direction::Desc,
            bytes,
            &mut offsets[1..],
        );
    }
}

/// The longest key [`encode_batch_keys_lanes`] writes: two `u64` lanes.
pub const LANE_BYTES: usize = 16;

/// Writes the sort key of every row of `batch` — its selected rows, when
/// it carries a selection — into two `u64` lanes: row `j`'s key,
/// byte-identical to [`encode_batch_keys_arena`]'s, zero-padded in
/// `lanes[j]` (read as two little-endian words), its length in `lens[j]`.
/// It writes straight from the key columns, one column at a time, each
/// row's slot at the row's cursor. Whether every key fits is known before
/// a byte is written, from the key columns' types: a numeric slot takes
/// 11 bytes, a date 5, a bool 2, a NULL 1, and a string 3 plus its
/// length — unless its column holds a `0x00`, which the codec escapes and
/// which rules the batch out. A batch whose keys may not fit writes
/// nothing and returns `false`. Both output vectors are overwritten.
pub fn encode_batch_keys_lanes(
    batch: &Batch,
    keys: &[(usize, Direction)],
    lanes: &mut Vec<[u8; LANE_BYTES]>,
    lens: &mut Vec<u8>,
) -> bool {
    lanes.clear();
    lens.clear();
    match batch.selection() {
        None => encode_lanes(batch, 0..batch.slots(), keys, lanes, lens),
        Some(sel) => encode_lanes(batch, sel.iter().map(|&i| i as usize), keys, lanes, lens),
    }
}

/// [`encode_batch_keys_lanes`] over the slots `rows` yields.
fn encode_lanes<I: ExactSizeIterator<Item = usize> + Clone>(
    batch: &Batch,
    rows: I,
    keys: &[(usize, Direction)],
    lanes: &mut Vec<[u8; LANE_BYTES]>,
    lens: &mut Vec<u8>,
) -> bool {
    let mut width = 0;
    for &(pos, _) in keys {
        width += match &batch.column(pos).data {
            ColumnData::Int64(_) | ColumnData::Float64(_) => sortkey::NUMERIC_WIDTH,
            ColumnData::Date32(_) => DATE_WIDTH,
            ColumnData::Bool(_) => BOOL_WIDTH,
            ColumnData::Utf8 { offsets, .. } => {
                let longest = rows.clone().map(|i| offsets[i + 1] - offsets[i]).max();
                3 + longest.unwrap_or(0) as usize
            }
        };
        if width > LANE_BYTES {
            return false;
        }
    }
    let escapes = |&(pos, _): &(usize, Direction)| match &batch.column(pos).data {
        ColumnData::Utf8 { bytes, .. } => bytes.contains(&0),
        _ => false,
    };
    if keys.iter().any(escapes) {
        return false;
    }
    lanes.resize(rows.len(), [0; LANE_BYTES]);
    lens.resize(rows.len(), 0);
    for (c, &(pos, dir)) in keys.iter().enumerate() {
        let invert = |enc: u128, width: usize| match dir {
            Direction::Asc => enc,
            Direction::Desc => !enc & u128::MAX >> (128 - 8 * width),
        };
        let col = batch.column(pos);
        let slots = lanes.iter_mut().zip(lens.iter_mut()).zip(rows.clone());
        if c == 0 {
            // The first column starts every key: stored, not merged.
            for_each_lane_slot(col, slots, |lane, len, enc, width| {
                *lane = invert(enc, width).to_le_bytes();
                *len = width as u8;
            });
        } else {
            // The next ones go in at each row's cursor, ORed into the
            // lanes' zero padding.
            for_each_lane_slot(col, slots, |lane, len, enc, width| {
                let at = usize::from(*len);
                let merged = u128::from_le_bytes(*lane) | invert(enc, width) << (8 * at);
                *lane = merged.to_le_bytes();
                *len = (at + width) as u8;
            });
        }
    }
    true
}

/// Calls `put(lane, len, enc, width)` for every `((lane, len), slot)`
/// that `slots` yields: the encoding of `slot` of `col` in ascending
/// order as a little-endian `u128`, first byte lowest, and its width. A
/// string's encoding leaves its `0x00 0x00` terminator to the zero bytes
/// above it. Every slot must fit 16 bytes, and no string may hold a
/// `0x00`: the caller has checked both.
fn for_each_lane_slot<'a>(
    col: &Column,
    slots: impl Iterator<Item = ((&'a mut [u8; LANE_BYTES], &'a mut u8), usize)>,
    mut put: impl FnMut(&mut [u8; LANE_BYTES], &mut u8, u128, usize),
) {
    let validity = col.validity.as_ref();
    macro_rules! fixed {
        ($vals:ident, $width:expr, |$v:ident| $enc:expr) => {
            for ((lane, len), i) in slots {
                match validity.is_some_and(|bm| !bm.get(i)) {
                    true => put(lane, len, u128::from(sortkey::TAG_NULL), 1),
                    false => {
                        let $v = $vals[i];
                        put(lane, len, $enc, $width)
                    }
                }
            }
        };
    }
    // The numeric payload's two big-endian words, after the tag.
    let numeric = |(g, r): (f64, i16)| {
        u128::from(sortkey::TAG_NUMERIC)
            | u128::from(sortkey::numeric_bits(g).swap_bytes()) << 8
            | u128::from(sortkey::residual_bits(r).swap_bytes()) << 72
    };
    match &col.data {
        ColumnData::Int64(vals) => fixed!(vals, sortkey::NUMERIC_WIDTH, |v| numeric(
            sortkey::int_numeric(v)
        )),
        ColumnData::Float64(vals) => fixed!(vals, sortkey::NUMERIC_WIDTH, |v| numeric((v, 0))),
        ColumnData::Date32(vals) => fixed!(vals, DATE_WIDTH, |v| {
            let flipped = (v as u32) ^ 0x8000_0000;
            u128::from(sortkey::TAG_DATE) | u128::from(flipped.swap_bytes()) << 8
        }),
        ColumnData::Bool(vals) => fixed!(vals, BOOL_WIDTH, |v| {
            u128::from(sortkey::TAG_BOOL) | u128::from(v) << 8
        }),
        ColumnData::Utf8 { offsets, bytes } => {
            for ((lane, len), i) in slots {
                if validity.is_some_and(|bm| !bm.get(i)) {
                    put(lane, len, u128::from(sortkey::TAG_NULL), 1);
                    continue;
                }
                let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                // The string is at most 13 bytes: read a whole word past
                // it where the buffer has one, and keep its bytes.
                let body = match bytes[lo..].first_chunk::<LANE_BYTES>() {
                    Some(word) => u128::from_le_bytes(*word) & ((1 << (8 * (hi - lo))) - 1),
                    None => {
                        let mut word = [0; LANE_BYTES];
                        word[..hi - lo].copy_from_slice(&bytes[lo..hi]);
                        u128::from_le_bytes(word)
                    }
                };
                put(
                    lane,
                    len,
                    u128::from(sortkey::TAG_STR) | body << 8,
                    hi - lo + 3,
                );
            }
        }
    }
}

/// Encoded width of a non-null date slot (tag + flipped big-endian `i32`).
const DATE_WIDTH: usize = 5;
/// Encoded width of a non-null bool slot (tag + one byte).
const BOOL_WIDTH: usize = 2;

/// Adds the encoded length of slot `rows[j]` of `col` to `lens[j]`.
fn add_key_lens(col: &Column, rows: impl Iterator<Item = usize>, lens: &mut [usize]) {
    let validity = col.validity.as_ref();
    let width = match &col.data {
        ColumnData::Int64(_) | ColumnData::Float64(_) => sortkey::NUMERIC_WIDTH,
        ColumnData::Date32(_) => DATE_WIDTH,
        ColumnData::Bool(_) => BOOL_WIDTH,
        ColumnData::Utf8 { offsets, bytes } => {
            // Tag, body with every 0x00 escaped to two bytes, two-byte
            // terminator. One scan of the whole buffer says whether any
            // slot needs its zero bytes counted at all.
            let escapes = bytes.contains(&0);
            for (l, i) in lens.iter_mut().zip(rows) {
                *l += if validity.is_some_and(|bm| !bm.get(i)) {
                    1
                } else {
                    let (lo, hi) = (offsets[i] as usize, offsets[i + 1] as usize);
                    let zeros = if escapes {
                        bytes[lo..hi].iter().filter(|&&b| b == 0).count()
                    } else {
                        0
                    };
                    3 + (hi - lo) + zeros
                };
            }
            return;
        }
    };
    match validity {
        None => lens.iter_mut().for_each(|l| *l += width),
        Some(bm) => {
            for (l, i) in lens.iter_mut().zip(rows) {
                *l += if bm.get(i) { width } else { 1 };
            }
        }
    }
}

/// Writes the encoding of slot `rows[j]` of `col` into `bytes` at row
/// `j`'s cursor and advances the cursor; descending keys invert every byte
/// written, exactly as [`sortkey::encode_value`] does.
fn write_key_slots(
    col: &Column,
    rows: impl Iterator<Item = usize>,
    desc: bool,
    bytes: &mut [u8],
    cursors: &mut [usize],
) {
    let validity = col.validity.as_ref();
    #[inline(always)]
    fn put(bytes: &mut [u8], cursors: &mut [usize], desc: bool, j: usize, enc: &[u8]) {
        let at = cursors[j];
        let dst = &mut bytes[at..at + enc.len()];
        dst.copy_from_slice(enc);
        if desc {
            dst.iter_mut().for_each(|b| *b = !*b);
        }
        cursors[j] = at + enc.len();
    }
    // Fixed-width slots go through stack arrays so the copies have a
    // compile-time length.
    macro_rules! fixed {
        ($vals:ident, $v:ident, $enc:expr) => {
            for (j, i) in rows.enumerate() {
                if validity.is_some_and(|bm| !bm.get(i)) {
                    put(bytes, cursors, desc, j, &[sortkey::TAG_NULL]);
                } else {
                    let $v = &$vals[i];
                    put(bytes, cursors, desc, j, &$enc);
                }
            }
        };
    }
    let numeric = |(g, r): (f64, i16)| {
        let mut enc = [sortkey::TAG_NUMERIC; sortkey::NUMERIC_WIDTH];
        enc[1..].copy_from_slice(&sortkey::numeric_payload(g, r));
        enc
    };
    match &col.data {
        ColumnData::Int64(vals) => fixed!(vals, v, numeric(sortkey::int_numeric(*v))),
        ColumnData::Float64(vals) => fixed!(vals, v, numeric((*v, 0))),
        ColumnData::Date32(vals) => fixed!(vals, v, {
            let mut enc = [sortkey::TAG_DATE; DATE_WIDTH];
            enc[1..].copy_from_slice(&((*v as u32) ^ 0x8000_0000).to_be_bytes());
            enc
        }),
        ColumnData::Bool(vals) => fixed!(vals, v, [sortkey::TAG_BOOL, u8::from(*v)]),
        ColumnData::Utf8 {
            offsets: so,
            bytes: sb,
        } => {
            for (j, i) in rows.enumerate() {
                if validity.is_some_and(|bm| !bm.get(i)) {
                    put(bytes, cursors, desc, j, &[sortkey::TAG_NULL]);
                    continue;
                }
                // Escape straight into place: no per-slot scratch copy.
                let start = cursors[j];
                let mut at = start;
                bytes[at] = sortkey::TAG_STR;
                at += 1;
                for &b in &sb[so[i] as usize..so[i + 1] as usize] {
                    bytes[at] = b;
                    at += 1;
                    if b == 0x00 {
                        bytes[at] = 0xFF;
                        at += 1;
                    }
                }
                bytes[at..at + 2].copy_from_slice(&[0x00, 0x00]);
                at += 2;
                if desc {
                    bytes[start..at].iter_mut().for_each(|b| *b = !*b);
                }
                cursors[j] = at;
            }
        }
    }
}

/// Appends the ascending-order encoding of every slot `rows` yields of
/// `col` to `bytes`, recording slot boundaries in `offsets` (starts by
/// pushing 0, then one offset per slot).
fn encode_column_flat(
    col: &Column,
    rows: impl ExactSizeIterator<Item = usize>,
    bytes: &mut Vec<u8>,
    offsets: &mut Vec<usize>,
) {
    let (validity, n) = (col.validity.as_ref(), rows.len());
    // Size the arena up front so the encoding loops never reallocate
    // (an overestimate for null slots and zero-free strings is fine).
    let estimate = match &col.data {
        ColumnData::Int64(_) | ColumnData::Float64(_) => n * sortkey::NUMERIC_WIDTH,
        ColumnData::Utf8 { bytes: sb, .. } => sb.len() + 3 * n,
        ColumnData::Date32(_) => n * DATE_WIDTH,
        ColumnData::Bool(_) => n * BOOL_WIDTH,
    };
    bytes.reserve(estimate);
    offsets.reserve(n + 1);
    offsets.push(0);
    macro_rules! loop_valid {
        ($vals:ident, $v:ident, $body:block) => {
            for i in rows {
                if validity.is_some_and(|bm| !bm.get(i)) {
                    bytes.push(sortkey::TAG_NULL);
                } else {
                    let $v = &$vals[i];
                    $body
                }
                offsets.push(bytes.len());
            }
        };
    }
    match &col.data {
        ColumnData::Int64(vals) => {
            loop_valid!(vals, v, {
                bytes.push(sortkey::TAG_NUMERIC);
                let (g, r) = sortkey::int_numeric(*v);
                sortkey::encode_numeric(g, r, bytes);
            });
        }
        ColumnData::Float64(vals) => {
            loop_valid!(vals, v, {
                bytes.push(sortkey::TAG_NUMERIC);
                sortkey::encode_numeric(*v, 0, bytes);
            });
        }
        ColumnData::Utf8 {
            offsets: so,
            bytes: sb,
        } => {
            for i in rows {
                if validity.is_some_and(|bm| !bm.get(i)) {
                    bytes.push(sortkey::TAG_NULL);
                } else {
                    bytes.push(sortkey::TAG_STR);
                    for &b in &sb[so[i] as usize..so[i + 1] as usize] {
                        bytes.push(b);
                        if b == 0x00 {
                            bytes.push(0xFF);
                        }
                    }
                    bytes.extend_from_slice(&[0x00, 0x00]);
                }
                offsets.push(bytes.len());
            }
        }
        ColumnData::Date32(vals) => {
            loop_valid!(vals, v, {
                bytes.push(sortkey::TAG_DATE);
                bytes.extend_from_slice(&((*v as u32) ^ 0x8000_0000).to_be_bytes());
            });
        }
        ColumnData::Bool(vals) => {
            loop_valid!(vals, v, {
                bytes.push(sortkey::TAG_BOOL);
                bytes.push(u8::from(*v));
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;
    use DataType::{Bool, Date, Double, Int, Str};

    fn rows(vals: Vec<Vec<Value>>) -> Vec<Row> {
        vals.into_iter().map(|r| r.into_boxed_slice()).collect()
    }

    fn batch(types: &[DataType], vals: Vec<Vec<Value>>) -> Batch {
        Batch::from_typed_rows(types, &rows(vals)).unwrap()
    }

    fn types_of(b: &Batch) -> Vec<DataType> {
        b.columns().iter().map(|c| c.data_type()).collect()
    }

    #[test]
    fn bitmap_set_get_count() {
        let mut bm = Bitmap::new(70, true);
        assert!(bm.all_valid());
        assert_eq!(bm.count_valid(), 70);
        bm.set(0, false);
        bm.set(69, false);
        assert!(!bm.get(0));
        assert!(bm.get(1));
        assert!(!bm.get(69));
        assert_eq!(bm.count_valid(), 68);
        let empty = Bitmap::new(0, true);
        assert!(empty.is_empty());
        assert_eq!(empty.count_valid(), 0);
    }

    #[test]
    fn typed_round_trip_is_identity() {
        let rs = rows(vec![
            vec![Value::Int(1), Value::Double(-0.0), Value::str("a\0b")],
            vec![Value::Null, Value::Double(f64::NAN), Value::str("")],
            vec![Value::Int(i64::MIN), Value::Null, Value::Null],
        ]);
        let b = Batch::from_typed_rows(&[Int, Double, Str], &rs).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b.arity(), 3);
        let back = b.to_rows();
        for (a, e) in back.iter().zip(&rs) {
            assert_eq!(a.len(), e.len());
            for (x, y) in a.iter().zip(e.iter()) {
                // Bit-exact, not just total_cmp-equal.
                match (x, y) {
                    (Value::Double(p), Value::Double(q)) => {
                        assert_eq!(p.to_bits(), q.to_bits());
                    }
                    _ => assert_eq!(x, y),
                }
            }
        }
    }

    #[test]
    fn a_value_of_another_type_than_declared_is_refused() {
        // Every declared type against every other kind of value: a typed
        // error; its own kind and NULL, welcome.
        let samples = [
            Value::Int(1),
            Value::Double(1.0),
            Value::str("x"),
            Value::Date(1),
            Value::Bool(true),
        ];
        for ty in [Int, Double, Str, Date, Bool] {
            for v in &samples {
                let built = Column::from_typed_values(ty, [v, &Value::Null].into_iter());
                if v.data_type() != Some(ty) {
                    assert!(matches!(built, Err(FtoError::Internal(_))), "{ty}: {v:?}");
                    continue;
                }
                let col = built.unwrap();
                assert_eq!((col.data_type(), col.len()), (ty, 2));
                assert!(col.is_valid(0) && !col.is_valid(1));
            }
        }
        // No `Int` → `Double` coercion through the row constructor either.
        let mixed = rows(vec![vec![Value::Double(1.0)], vec![Value::Int(1)]]);
        let refused = Batch::from_typed_rows(&[Double], &mixed);
        assert!(matches!(refused, Err(FtoError::Internal(_))));
        let ragged = rows(vec![vec![Value::Int(1), Value::Int(2)]]);
        assert!(Batch::from_typed_rows(&[Int], &ragged).is_err());
    }

    #[test]
    fn all_null_column_is_typed_and_round_trips() {
        for ty in [Int, Double, Str, Date, Bool] {
            let rs = rows(vec![vec![Value::Null], vec![Value::Null]]);
            let b = Batch::from_typed_rows(&[ty], &rs).unwrap();
            assert_eq!(b.column(0).data_type(), ty);
            assert_eq!(b.column(0).validity.as_ref().unwrap().count_valid(), 0);
            assert_eq!(b.to_rows(), rs);
            assert_eq!(b.column(0).as_ref(), &Column::nulls(ty, 2));
        }
    }

    #[test]
    fn empty_batch_round_trips() {
        let types = [Int, Str, Date, Double];
        let b = Batch::empty(&types);
        assert!(b.is_empty());
        assert_eq!(types_of(&b), types);
        assert!(b.to_rows().is_empty());
        assert_eq!(
            Batch::from_typed_rows(&types, &[]).unwrap().columns(),
            b.columns()
        );
    }

    #[test]
    fn a_selected_batch_reads_as_its_gathered_rows() {
        // Rows, slices, column picks, row sizes and encoded keys of a
        // batch with a selection are those of the dense batch its
        // selected slots gather to; selecting every slot is no selection,
        // and the multi-batch splices refuse a selected part.
        let rs = rows(vec![
            vec![Value::Int(0), Value::str("a\0"), Value::Double(-0.0)],
            vec![Value::Null, Value::str(""), Value::Double(f64::NAN)],
            vec![Value::Int(2), Value::Null, Value::Null],
            vec![Value::Int(1 << 60), Value::str("ddd"), Value::Double(3.5)],
            vec![Value::Int(4), Value::str("e"), Value::Double(-4.0)],
            vec![Value::Int(-5), Value::str("ab"), Value::Double(1e300)],
        ]);
        let b = Batch::from_typed_rows(&[Int, Str, Double], &rs).unwrap();
        let sel = vec![1u32, 2, 3, 5];
        let s = b.clone().with_selection(sel.clone());
        let g = b.gather(&sel);
        assert_eq!((s.len(), s.slots(), s.selection()), (4, 6, Some(&sel[..])));
        assert_eq!(s.to_rows(), g.to_rows());
        for (lo, len) in [(0, 4), (1, 2), (3, 1), (2, 0)] {
            assert_eq!(s.slice(lo, len).to_rows(), g.slice(lo, len).to_rows());
        }
        assert_eq!(s.select(&[2, 0]).to_rows(), g.select(&[2, 0]).to_rows());
        for (j, &slot) in sel.iter().enumerate() {
            assert_eq!(batch_row_bytes(&s, slot as usize), batch_row_bytes(&g, j));
        }
        let (mut arena, mut offsets) = (Vec::new(), Vec::new());
        let (mut want, mut want_offsets) = (Vec::new(), Vec::new());
        for keys in [
            vec![(1, Direction::Desc)],
            vec![
                (0, Direction::Asc),
                (2, Direction::Desc),
                (1, Direction::Asc),
            ],
        ] {
            encode_batch_keys_arena(&s, &keys, &mut arena, &mut offsets);
            encode_batch_keys_arena(&g, &keys, &mut want, &mut want_offsets);
            assert_eq!((&arena, &offsets), (&want, &want_offsets), "{keys:?}");
        }
        let all = b.clone().with_selection((0..6).collect());
        assert_eq!(all.selection(), None);
        // Concatenated, a selected part gives its selected rows.
        let both = Batch::concat(&[s.clone(), g.clone(), s.slice(1, 2)]).unwrap();
        assert_eq!(both.selection(), None);
        assert_eq!(
            both.to_rows(),
            [g.to_rows(), g.to_rows(), g.slice(1, 2).to_rows()].concat()
        );
        assert!(Batch::gather_multi(&[&g, &s], &[(0, 0)]).is_err());
    }

    #[test]
    fn integer_keys_match_the_i128_residual_formula() {
        // The three integer encoders — the flat one-key arena, the
        // multi-key slot writer and the row encoder — against the
        // definition `(g, v − g)`, `g` the nearest double and the
        // residual taken in `i128`: on random `i64`s and at the edges of
        // the 2^53 shortcut.
        let mut rng = Rng::new(0x1128);
        let big = 1i64 << 53;
        let mut ints = vec![
            big,
            -big,
            big + 1,
            -big - 1,
            big - 1,
            1 - big,
            i64::MIN,
            i64::MAX,
        ];
        ints.extend((0..500).map(|k| match k % 3 {
            0 => rng.next_u64() as i64,
            1 => (rng.next_u64() >> (rng.next_u64() % 64)) as i64,
            _ => rng.range_i64(-1000, 1000),
        }));
        let expect = |v: i64| {
            let g = v as f64;
            let mut key = vec![sortkey::TAG_NUMERIC];
            key.extend(sortkey::numeric_payload(g, (v as i128 - g as i128) as i16));
            key
        };
        let rs: Vec<Row> = ints
            .iter()
            .map(|&v| vec![Value::Int(v), Value::Int(v)].into_boxed_slice())
            .collect();
        let batch = Batch::from_typed_rows(&[Int, Int], &rs).unwrap();
        let (mut flat, mut flat_offsets) = (Vec::new(), Vec::new());
        encode_batch_keys_arena(&batch, &[(0, Direction::Asc)], &mut flat, &mut flat_offsets);
        let both = [(0, Direction::Asc), (1, Direction::Asc)];
        let (mut slots, mut slot_offsets) = (Vec::new(), Vec::new());
        encode_batch_keys_arena(&batch, &both, &mut slots, &mut slot_offsets);
        for (i, &v) in ints.iter().enumerate() {
            let want = expect(v);
            let mut row = Vec::new();
            sortkey::encode_value_asc(&Value::Int(v), &mut row);
            assert_eq!(row, want, "row encoder, {v}");
            assert_eq!(
                &flat[flat_offsets[i]..flat_offsets[i + 1]],
                &want[..],
                "flat, {v}"
            );
            let key = &slots[slot_offsets[i]..slot_offsets[i + 1]];
            assert_eq!(key, &[&want[..], &want[..]].concat()[..], "slots, {v}");
        }
    }

    #[test]
    fn concat_mismatched_types_is_an_internal_error() {
        // The parts of a copy are one stream's: a part of another type is
        // a typed error, not a value-by-value rebuild.
        let a = batch(&[Int], vec![vec![Value::Int(1)]]);
        let s = batch(&[Str], vec![vec![Value::str("x")]]);
        let refused = Batch::concat(&[a.clone(), s.clone()]);
        assert!(matches!(refused, Err(FtoError::Internal(_))), "{refused:?}");
        // A zero-length part adds no slots, so its type is not consulted —
        // wherever it stands.
        let none = Batch::empty(&[Str]);
        for parts in [[none.clone(), a.clone()], [a.clone(), none.clone()]] {
            let both = Batch::concat(&parts).unwrap();
            assert_eq!(both.columns(), a.columns());
        }
        // All parts empty: the first one's type.
        let empties = Batch::concat(&[none.clone(), Batch::empty(&[Int])]).unwrap();
        assert_eq!(empties.columns(), none.columns());
        // Nothing to take a width or a type from.
        assert!(Batch::concat(&[]).is_err());
        assert!(Batch::gather_multi(&[], &[]).is_err());
        // The interleaved gather likewise: a slot from a source of another
        // type is refused; a source that has none to give — zero-length —
        // is never asked.
        let pair = batch(&[Int, Str], vec![vec![Value::Int(10), Value::str("aa")]]);
        let mixed = batch(&[Str, Int], vec![vec![Value::str("mix"), Value::Int(9)]]);
        let refused = Batch::gather_multi(&[&pair, &mixed], &[(0, 0), (1, 0)]);
        assert!(matches!(refused, Err(FtoError::Internal(_))), "{refused:?}");
        let nothing = Batch::empty(&[Str, Int]);
        let got = Batch::gather_multi(&[&nothing, &pair], &[(1, 0), (1, 0)]).unwrap();
        assert_eq!(got.to_rows(), vec![pair.row(0), pair.row(0)]);
    }

    #[test]
    fn batch_row_bytes_matches_materialized_row_bytes() {
        use crate::value::row_bytes;
        let b = batch(
            &[Int, Str, Double],
            vec![
                vec![Value::Int(1), Value::str("hello"), Value::Double(0.5)],
                vec![Value::Null, Value::Null, Value::Double(f64::NAN)],
                vec![Value::Int(3), Value::str(""), Value::Null],
                vec![Value::Int(4), Value::str("x\0y"), Value::Double(4.0)],
            ],
        );
        for i in 0..b.len() {
            assert_eq!(batch_row_bytes(&b, i), row_bytes(&b.row(i)), "row {i}");
        }
    }

    #[test]
    fn bitmap_words_round_trip() {
        let mut bm = Bitmap::new(70, true);
        bm.set(3, false);
        bm.set(69, false);
        let back = Bitmap::from_words(bm.words().to_vec(), 70);
        assert_eq!(back, bm);
        // Dirty trailing bits are masked off.
        let noisy = Bitmap::from_words(vec![u64::MAX, u64::MAX], 70);
        assert_eq!(noisy.count_valid(), 70);
    }

    #[test]
    fn from_columns_rejects_ragged_lengths() {
        let a = Arc::new(Column::nulls(Int, 1));
        let b = Arc::new(Column::nulls(Int, 2));
        assert!(Batch::from_columns(vec![a, b]).is_err());
    }

    #[test]
    fn byte_size_agrees_with_row_bytes_within_bound() {
        use crate::value::row_bytes;
        let mut rng = Rng::new(0xB17E);
        let mut rs = Vec::new();
        for _ in 0..200 {
            let v = vec![
                Value::Int(rng.next_u64() as i64),
                Value::Double(rng.next_u64() as f64),
                Value::str(format!("name-{}", rng.next_u64() % 1000)),
                if rng.next_u64().is_multiple_of(3) {
                    Value::Null
                } else {
                    Value::Date(rng.next_u64() as i32)
                },
                Value::Bool(rng.next_u64().is_multiple_of(2)),
            ];
            rs.push(v.into_boxed_slice());
        }
        let batch = Batch::from_typed_rows(&[Int, Double, Str, Date, Bool], &rs).unwrap();
        let colb = batch.byte_size();
        let rowb: usize = rs.iter().map(|r| row_bytes(r)).sum();
        // Columns amortize the per-value enum overhead away, so the
        // columnar measure is the tighter one; rows pay at most the
        // inline Value footprint extra per slot plus the Box pointer.
        assert!(colb > 0);
        assert!(colb <= rowb, "columnar {colb} > row {rowb}");
        let slack = rs.len() * (batch.arity() * (std::mem::size_of::<Value>() + 16) + 16);
        assert!(rowb <= colb + slack, "row {rowb} > col {colb} + {slack}");
        // Empty batches are free but for each string column's one offset.
        assert_eq!(Batch::empty(&[Int, Date, Bool]).byte_size(), 0);
    }

    #[test]
    fn columnar_key_encoding_matches_row_encoder() {
        let mut rng = Rng::new(0x5EED);
        let mut rs = Vec::new();
        for _ in 0..300 {
            let mut row = Vec::new();
            // One type per column (with nulls); column 5 is a string
            // column that happens to hold nothing but NULLs.
            for c in 0..6usize {
                let v = if c == 5 || rng.next_u64().is_multiple_of(5) {
                    Value::Null
                } else {
                    match c {
                        0 => Value::Int(rng.next_u64() as i64),
                        1 => Value::Double(f64::from_bits(rng.next_u64())),
                        2 => Value::str(format!("s\0{}", rng.next_u64() % 100)),
                        3 => Value::Date(rng.next_u64() as i32),
                        _ => Value::Bool(rng.next_u64().is_multiple_of(2)),
                    }
                };
                row.push(v);
            }
            rs.push(row.into_boxed_slice());
        }
        let batch = Batch::from_typed_rows(&[Int, Double, Str, Date, Bool, Str], &rs).unwrap();
        let keys = vec![
            (0, Direction::Asc),
            (2, Direction::Desc),
            (4, Direction::Asc),
            (1, Direction::Desc),
            (3, Direction::Asc),
            (5, Direction::Desc),
        ];
        let (mut arena, mut offsets) = (Vec::new(), Vec::new());
        encode_batch_keys_arena(&batch, &keys, &mut arena, &mut offsets);
        for (row, w) in rs.iter().zip(offsets.windows(2)) {
            let expect = sortkey::encode_key(row, &keys);
            assert_eq!(&arena[w[0]..w[1]], &expect[..], "row {row:?}");
        }
        // A lone key column takes the flat encoder: every type, and the
        // all-NULL string column, through it as well.
        for c in 0..6 {
            let keys = vec![(c, Direction::Desc)];
            encode_batch_keys_arena(&batch, &keys, &mut arena, &mut offsets);
            for (row, w) in rs.iter().zip(offsets.windows(2)) {
                assert_eq!(&arena[w[0]..w[1]], &sortkey::encode_key(row, &keys)[..]);
            }
        }
    }

    #[test]
    fn lane_keys_are_the_codec_bytes_zero_padded() {
        // Every row's lanes hold `sortkey::encode_key`'s bytes and then
        // zeros, over a selection too; a batch whose keys may be longer
        // than 16 bytes, or whose string column holds a `0x00`, writes
        // nothing and says so.
        let mut rng = Rng::new(0x1A4E);
        let strs = ["", "a", "abcdefghijkl", "abcdefghijklm", "abcdefghijklmn"];
        let rs: Vec<Row> = (0..200)
            .map(|i| {
                let v = [
                    Value::Int(rng.next_u64() as i64 >> (rng.next_u64() % 64)),
                    Value::Double(f64::from_bits(rng.next_u64())),
                    Value::Date(rng.next_u64() as i32),
                    Value::Bool(rng.next_u64().is_multiple_of(2)),
                    Value::str(strs[i % strs.len()]),
                    Value::str(["x", "x\0"][i % 2]),
                ];
                let null = |v: Value| match rng.next_u64().is_multiple_of(5) {
                    true => Value::Null,
                    false => v,
                };
                v.into_iter().map(null).collect()
            })
            .collect();
        let batch = Batch::from_typed_rows(&[Int, Double, Date, Bool, Str, Str], &rs).unwrap();
        let short = |len: usize| move |i: &u32| strs[*i as usize % strs.len()].len() <= len;
        let (mut lanes, mut lens) = (Vec::new(), Vec::new());
        // The keys, the rows to select, and whether they fit.
        type Case = (Vec<(usize, Direction)>, Vec<u32>, bool);
        let cases: Vec<Case> = vec![
            (vec![], (0..200).collect(), true),
            (vec![(0, Direction::Asc)], (0..200).collect(), true),
            (
                vec![(1, Direction::Desc)],
                (0..200).step_by(3).collect(),
                true,
            ),
            (
                vec![(2, Direction::Asc), (0, Direction::Desc)],
                (0..200).collect(),
                true,
            ),
            (
                vec![(3, Direction::Desc), (2, Direction::Asc)],
                vec![],
                true,
            ),
            // A string alone: 15 and 16 bytes fit, 17 does not.
            (
                vec![(4, Direction::Asc)],
                (0..200).filter(short(13)).collect(),
                true,
            ),
            (vec![(4, Direction::Desc)], (0..200).collect(), false),
            // 11 + 3 + 2 = 16 bytes fit; 11 + 3 + 12 do not.
            (
                vec![(0, Direction::Asc), (4, Direction::Asc)],
                (0..200).filter(short(2)).collect(),
                true,
            ),
            (
                vec![(0, Direction::Asc), (4, Direction::Asc)],
                (0..200).filter(short(12)).collect(),
                false,
            ),
            // A `0x00` anywhere in the string column rules it out.
            (
                vec![(5, Direction::Asc)],
                (0..200).step_by(2).collect(),
                false,
            ),
        ];
        for (keys, sel, fits) in cases {
            let selected = batch.clone().with_selection(sel.clone());
            let wrote = encode_batch_keys_lanes(&selected, &keys, &mut lanes, &mut lens);
            assert_eq!(wrote, fits, "{keys:?}");
            if !fits {
                assert!(lanes.is_empty() && lens.is_empty(), "{keys:?}");
                continue;
            }
            assert_eq!((lanes.len(), lens.len()), (sel.len(), sel.len()));
            for (j, &slot) in sel.iter().enumerate() {
                let mut want = sortkey::encode_key(&rs[slot as usize], &keys);
                assert_eq!(usize::from(lens[j]), want.len(), "{keys:?} row {slot}");
                want.resize(LANE_BYTES, 0);
                assert_eq!(lanes[j][..], want[..], "{keys:?} row {slot}");
            }
        }
    }
}
