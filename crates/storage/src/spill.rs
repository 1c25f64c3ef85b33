//! Spill files behind the executor's memory budget.
//!
//! When a query runs with a memory budget, pipeline breakers (sort,
//! hash group-by, hash-join build) write overflow data through a
//! [`SpillFile`] — an append-only byte stream charged against
//! [`IoStats`] at page granularity exactly like every other access path
//! in the simulated I/O model. Batches cross the boundary through an exact
//! column-page codec ([`write_batch`] / [`read_batch`]) that round-trips
//! every value bit for bit, NaN payloads and `-0.0` included, so a
//! spilled sort stays bit-identical to its in-memory twin.
//!
//! The budget reaches nothing else in storage: heap and index pages are
//! charged by [`crate::PageCursor`] alone, so a budget changes only the
//! spill counters of [`IoStats`].

use crate::io::{IoStats, PAGE_SIZE};
use fto_common::column::{Batch, Bitmap, Column, ColumnData};
use fto_common::{FtoError, Result};
use std::sync::Arc;

/// An append-only spill stream, charged per 4 KiB page.
///
/// The file is a simulated disk file: an in-memory byte vector whose
/// *accounting* follows the same page discipline as heap and index
/// access. Appends charge [`IoStats::spill_pages_written`] once per page
/// the stream grows into; reads through a [`SpillCursor`] charge
/// [`IoStats::spill_pages_read`] once per page entered. Both directions
/// are strictly sequential, which is why spill pages are priced at the
/// sequential rate in [`IoStats::weighted_page_cost`].
#[derive(Debug, Default)]
pub struct SpillFile {
    bytes: Vec<u8>,
    charged_pages: u64,
}

impl SpillFile {
    /// An empty spill file.
    pub fn new() -> SpillFile {
        SpillFile::default()
    }

    /// Total bytes written so far (the next append offset).
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Appends raw bytes, returning the offset they start at and charging
    /// one `spill_pages_written` per page the file newly occupies.
    pub fn append(&mut self, data: &[u8], io: &mut IoStats) -> u64 {
        let offset = self.bytes.len() as u64;
        self.bytes.extend_from_slice(data);
        let pages = (self.bytes.len() as u64).div_ceil(PAGE_SIZE as u64);
        io.spill_pages_written += pages - self.charged_pages;
        self.charged_pages = pages;
        offset
    }

    /// Appends one length-framed record (`u32` LE length, then the
    /// payload), returning its start offset. Read back with
    /// [`SpillCursor::read_record`].
    pub fn append_record(&mut self, payload: &[u8], io: &mut IoStats) -> u64 {
        let offset = self.append(&(payload.len() as u32).to_le_bytes(), io);
        self.append(payload, io);
        offset
    }

    /// The raw bytes at `[offset, offset + len)`. Callers that want page
    /// charging go through a [`SpillCursor`] instead; this is the
    /// zero-charge accessor for data the caller has already paid for
    /// (e.g. a re-read within the same logical pass).
    pub fn slice(&self, offset: u64, len: usize) -> &[u8] {
        &self.bytes[offset as usize..offset as usize + len]
    }
}

/// A forward read cursor over one `[start, end)` extent of a
/// [`SpillFile`], charging `spill_pages_read` once per page entered.
///
/// The cursor holds positions, not borrows, so several cursors can
/// interleave reads of the same file (the K-way merge does exactly
/// that) and the file can keep growing behind them.
#[derive(Clone, Copy, Debug)]
pub struct SpillCursor {
    pos: u64,
    end: u64,
    last_page: Option<u64>,
}

impl SpillCursor {
    /// A cursor over `[start, end)`.
    pub fn new(start: u64, end: u64) -> SpillCursor {
        SpillCursor {
            pos: start,
            end,
            last_page: None,
        }
    }

    /// True once the extent is fully consumed.
    pub fn finished(&self) -> bool {
        self.pos >= self.end
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> u64 {
        self.end.saturating_sub(self.pos)
    }

    /// Current absolute offset.
    pub fn position(&self) -> u64 {
        self.pos
    }

    fn charge_span(&mut self, len: usize, io: &mut IoStats) {
        if len == 0 {
            return;
        }
        let first = self.pos / PAGE_SIZE as u64;
        let last = (self.pos + len as u64 - 1) / PAGE_SIZE as u64;
        let from = match self.last_page {
            Some(p) if p >= first => p + 1,
            _ => first,
        };
        if last >= from {
            io.spill_pages_read += last - from + 1;
        }
        self.last_page = Some(self.last_page.map_or(last, |p| p.max(last)));
    }

    /// Reads exactly `len` bytes into an owned buffer, or fails when the
    /// extent holds fewer: a frame length that overruns its extent is a
    /// corrupt (or misframed) spill file, reported like every other damaged
    /// record — as an error, never a panic.
    fn read_exact(&mut self, file: &SpillFile, len: usize, io: &mut IoStats) -> Result<Vec<u8>> {
        let end = self.end.min(file.len());
        if len as u64 > end.saturating_sub(self.pos) {
            return Err(FtoError::Exec(format!(
                "spill frame of {len} bytes at offset {} overruns its extent (ends at {end})",
                self.pos
            )));
        }
        self.charge_span(len, io);
        let out = file.slice(self.pos, len).to_vec();
        self.pos += len as u64;
        Ok(out)
    }

    /// Reads a little-endian `u32`.
    fn read_u32(&mut self, file: &SpillFile, io: &mut IoStats) -> Result<u32> {
        let b = self.read_exact(file, 4, io)?;
        let b = b
            .first_chunk()
            .ok_or_else(|| corrupt("record length truncated"))?;
        Ok(u32::from_le_bytes(*b))
    }

    /// Reads one record written by [`SpillFile::append_record`], or
    /// `None` when the extent is exhausted.
    pub fn read_record(&mut self, file: &SpillFile, io: &mut IoStats) -> Result<Option<Vec<u8>>> {
        if self.finished() {
            return Ok(None);
        }
        let len = self.read_u32(file, io)? as usize;
        self.read_exact(file, len, io).map(Some)
    }
}

fn corrupt(what: impl std::fmt::Display) -> FtoError {
    FtoError::Exec(format!("corrupt spill data: {what}"))
}

/// The next `len` bytes of `buf`, advancing `*pos` — an error, not a
/// panic, when the buffer ends first. Every decoder below slices its
/// payload off the buffer through this *before* it allocates for it, so a
/// corrupt count can never ask for more memory than the record holds.
fn take<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8]> {
    let end = pos.checked_add(len).filter(|&end| end <= buf.len());
    let end = end.ok_or_else(|| corrupt("record truncated"))?;
    let out = &buf[*pos..end];
    *pos = end;
    Ok(out)
}

fn take_array<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let head = take(buf, pos, N)?.first_chunk();
    head.copied().ok_or_else(|| corrupt("record truncated"))
}

/// The next `n` fixed-width little-endian fields of `buf`.
fn take_fields<'a, const W: usize>(
    buf: &'a [u8],
    pos: &mut usize,
    n: usize,
) -> Result<impl Iterator<Item = [u8; W]> + 'a> {
    let len = n
        .checked_mul(W)
        .ok_or_else(|| corrupt("record truncated"))?;
    let (fields, _) = take(buf, pos, len)?.as_chunks();
    Ok(fields.iter().copied())
}

/// Appends every element's little-endian bytes: the inverse of
/// [`take_fields`].
fn put_fields<T: Copy, const W: usize>(out: &mut Vec<u8>, vals: &[T], le: impl Fn(T) -> [u8; W]) {
    for &x in vals {
        out.extend_from_slice(&le(x));
    }
}

// Column-page tags for the batch codec. The format is internal to spill
// files (never persisted across processes), so it favors exactness and
// simplicity over compactness.
const COL_INT64: u8 = 0;
const COL_FLOAT64: u8 = 1;
const COL_UTF8: u8 = 2;
const COL_DATE32: u8 = 3;
const COL_BOOL: u8 = 4;

/// Appends the column-page encoding of a whole batch:
///
/// ```text
/// [u32 nrows][u16 ncols] then per column:
///   [u8 tag][u8 has_validity]
///   [validity words, u64 LE × ceil(nrows/64)]     (when has_validity)
///   typed payload:
///     Int64/Date32:  raw LE values
///     Float64:       IEEE-754 bits, u64 LE        (NaN/-0.0 bit-exact)
///     Utf8:          [u32 byte_len][offsets u32 LE × (nrows+1)][bytes]
///     Bool:          one byte per slot
/// ```
///
/// One buffer copy per column: the one serde of everything that spills,
/// exact for every [`fto_common::Value`]. Round-trips through
/// [`read_batch`] bit for bit (typed layout included, so re-spilling
/// decoded pages is byte-stable). A page holds every slot of its columns,
/// so the batch must be dense: what spills is gathered first.
pub fn write_batch(batch: &Batch, out: &mut Vec<u8>) {
    debug_assert!(batch.selection().is_none(), "a spilled batch is dense");
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    out.extend_from_slice(&(batch.arity() as u16).to_le_bytes());
    for col in batch.columns() {
        let tag = match &col.data {
            ColumnData::Int64(_) => COL_INT64,
            ColumnData::Float64(_) => COL_FLOAT64,
            ColumnData::Utf8 { .. } => COL_UTF8,
            ColumnData::Date32(_) => COL_DATE32,
            ColumnData::Bool(_) => COL_BOOL,
        };
        out.push(tag);
        out.push(u8::from(col.validity.is_some()));
        if let Some(bm) = &col.validity {
            put_fields(out, bm.words(), u64::to_le_bytes);
        }
        match &col.data {
            ColumnData::Int64(v) => put_fields(out, v, i64::to_le_bytes),
            ColumnData::Float64(v) => put_fields(out, v, |x| x.to_bits().to_le_bytes()),
            ColumnData::Utf8 { offsets, bytes } => {
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                put_fields(out, offsets, u32::to_le_bytes);
                out.extend_from_slice(bytes);
            }
            ColumnData::Date32(v) => put_fields(out, v, i32::to_le_bytes),
            ColumnData::Bool(v) => put_fields(out, v, |x| [u8::from(x)]),
        }
    }
}

/// Decodes one batch written by [`write_batch`], advancing `*pos`. A
/// truncated or malformed buffer is an [`FtoError::Exec`]: counts are
/// checked against the bytes that remain before anything is sized by
/// them, and a string column's offsets and UTF-8 are validated, so what
/// comes back is always a well-formed batch.
pub fn read_batch(buf: &[u8], pos: &mut usize) -> Result<Batch> {
    let nrows = u32::from_le_bytes(take_array(buf, pos)?) as usize;
    let ncols = u16::from_le_bytes(take_array(buf, pos)?) as usize;
    // Every column is at least its two header bytes.
    if ncols * 2 > buf.len() - *pos {
        return Err(corrupt("record truncated"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let [tag, has_validity] = take_array(buf, pos)?;
        let validity = if has_validity != 0 {
            let words = take_fields(buf, pos, nrows.div_ceil(64))?;
            Some(Bitmap::from_words(
                words.map(u64::from_le_bytes).collect(),
                nrows,
            ))
        } else {
            None
        };
        let data = match tag {
            COL_INT64 => ColumnData::Int64(
                take_fields(buf, pos, nrows)?
                    .map(i64::from_le_bytes)
                    .collect(),
            ),
            COL_FLOAT64 => {
                let bits = take_fields(buf, pos, nrows)?.map(u64::from_le_bytes);
                ColumnData::Float64(bits.map(f64::from_bits).collect())
            }
            COL_UTF8 => {
                let byte_len = u32::from_le_bytes(take_array(buf, pos)?) as usize;
                let offsets = take_fields(buf, pos, nrows + 1)?.map(u32::from_le_bytes);
                let offsets: Vec<u32> = offsets.collect();
                let text = std::str::from_utf8(take(buf, pos, byte_len)?)
                    .map_err(|_| corrupt("string column is not UTF-8"))?;
                // Slot `i` is `text[offsets[i]..offsets[i + 1]]`: the
                // offsets must tile the payload on character boundaries.
                let tiles = offsets[0] == 0
                    && offsets[nrows] as usize == byte_len
                    && offsets.windows(2).all(|w| w[0] <= w[1])
                    && offsets.iter().all(|&o| text.is_char_boundary(o as usize));
                if !tiles {
                    return Err(corrupt("string column offsets"));
                }
                ColumnData::Utf8 {
                    offsets,
                    bytes: text.as_bytes().to_vec(),
                }
            }
            COL_DATE32 => ColumnData::Date32(
                take_fields(buf, pos, nrows)?
                    .map(i32::from_le_bytes)
                    .collect(),
            ),
            COL_BOOL => ColumnData::Bool(take(buf, pos, nrows)?.iter().map(|&b| b != 0).collect()),
            other => return Err(corrupt(format_args!("column tag {other}"))),
        };
        columns.push(Arc::new(Column { data, validity }));
    }
    Batch::from_columns_with_len(columns, nrows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_common::DataType::{Bool, Date, Double, Int, Str};
    use fto_common::{Row, Value};

    #[test]
    fn append_charges_pages_incrementally() {
        let mut f = SpillFile::new();
        let mut io = IoStats::new();
        f.append(&[0u8; 100], &mut io);
        assert_eq!(io.spill_pages_written, 1);
        // Staying inside the first page is free.
        f.append(&[0u8; 100], &mut io);
        assert_eq!(io.spill_pages_written, 1);
        // Crossing into pages 2 and 3 charges two more.
        f.append(&[0u8; 2 * PAGE_SIZE], &mut io);
        assert_eq!(io.spill_pages_written, 3);
        assert_eq!(f.len(), 200 + 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn cursor_charges_each_page_once() {
        let mut f = SpillFile::new();
        let mut io = IoStats::new();
        let data: Vec<u8> = (0..PAGE_SIZE * 2 + 10).map(|i| i as u8).collect();
        f.append(&data, &mut io);
        let mut c = SpillCursor::new(0, f.len());
        let mut rio = IoStats::new();
        let mut got = Vec::new();
        while !c.finished() {
            let n = c.remaining().min(777) as usize;
            got.extend(c.read_exact(&f, n, &mut rio).unwrap());
        }
        assert_eq!(got, data);
        assert_eq!(rio.spill_pages_read, 3);
    }

    #[test]
    fn records_round_trip() {
        let mut f = SpillFile::new();
        let mut io = IoStats::new();
        f.append_record(b"alpha", &mut io);
        f.append_record(b"", &mut io);
        f.append_record(b"gamma", &mut io);
        let mut c = SpillCursor::new(0, f.len());
        for want in [Some(&b"alpha"[..]), Some(b""), Some(b"gamma"), None] {
            assert_eq!(c.read_record(&f, &mut io).unwrap().as_deref(), want);
        }
    }

    #[test]
    fn frame_overrunning_its_extent_is_an_error_not_a_panic() {
        let mut f = SpillFile::new();
        let mut io = IoStats::new();
        f.append_record(b"alpha", &mut io);
        // The extent ends inside the length, or inside the payload.
        for end in [2, 4, 8] {
            let got = SpillCursor::new(0, end).read_record(&f, &mut io);
            assert!(matches!(got, Err(FtoError::Exec(_))), "end {end}: {got:?}");
        }
        // The extent runs past the end of the file: the frame that is
        // there reads back, the one that is not is an error.
        let mut past = SpillCursor::new(0, f.len() + 1);
        assert_eq!(
            past.read_record(&f, &mut io).unwrap().as_deref(),
            Some(&b"alpha"[..])
        );
        assert!(past.read_record(&f, &mut io).is_err());
    }

    #[test]
    fn batch_codec_round_trips_typed_layout_and_bits() {
        let rows: Vec<Row> = vec![
            vec![
                Value::Int(i64::MIN),
                Value::Double(-0.0),
                Value::str("a\0b"),
                Value::Date(i32::MAX),
                Value::Bool(true),
                Value::Null,
            ],
            vec![
                Value::Null,
                Value::Double(f64::from_bits(0x7FF8_0000_DEAD_BEEF)),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
            vec![
                Value::Int(3),
                Value::Null,
                Value::str(""),
                Value::Date(-1),
                Value::Bool(false),
                Value::Null,
            ],
            vec![
                Value::Int(i64::MAX),
                Value::Double(f64::NEG_INFINITY),
                Value::str("sp\0ill\u{1F980}"),
                Value::Date(i32::MIN),
                Value::Bool(false),
                Value::Null,
            ],
        ]
        .into_iter()
        .map(Vec::into_boxed_slice)
        .collect();
        // The last column declares strings and holds only NULLs.
        let types = [Int, Double, Str, Date, Bool, Str];
        let batch = Batch::from_typed_rows(&types, &rows).unwrap();
        let mut buf = Vec::new();
        write_batch(&batch, &mut buf);
        let mut pos = 0;
        let back = read_batch(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back.len(), batch.len());
        let held: Vec<_> = back.columns().iter().map(|c| c.data_type()).collect();
        assert_eq!(held, types);
        // Values survive bit for bit (NaN payloads included)…
        for i in 0..batch.len() {
            for (a, b) in back.row(i).iter().zip(batch.row(i).iter()) {
                match (a, b) {
                    (Value::Double(x), Value::Double(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    _ => assert_eq!(a, b),
                }
            }
        }
        // …and so does the typed layout: re-encoding the decoded batch is
        // byte-identical.
        let mut again = Vec::new();
        write_batch(&back, &mut again);
        assert_eq!(again, buf);
    }

    #[test]
    fn batch_codec_handles_empty_and_zero_column_batches() {
        for batch in [Batch::empty(&[Int, Str, Date, Double]), Batch::empty(&[])] {
            let mut buf = Vec::new();
            write_batch(&batch, &mut buf);
            let mut pos = 0;
            let back = read_batch(&buf, &mut pos).unwrap();
            assert_eq!(pos, buf.len());
            assert_eq!(back.len(), batch.len());
            assert_eq!(back.columns(), batch.columns());
        }
    }
}
