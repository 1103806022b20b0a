//! Append-only write-ahead log with length-prefixed, CRC-framed records.
//!
//! Every durable mutation of a [`crate::db::Database`] is logged *before*
//! it is applied, as one frame:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [body: len bytes]
//!   body = [lsn: u64 LE] [tag: u8] [payload]
//! ```
//!
//! The CRC (IEEE polynomial, the zlib/PNG one) covers the whole body.
//! Records are self-contained logical operations — DDL, row appends,
//! statistics updates, physical-design builds, and checkpoint markers — so
//! replay is a deterministic fold over the frame sequence. LSNs are
//! assigned by the database from a counter that survives checkpoints,
//! which is what lets recovery skip frames a snapshot already absorbed
//! (those below its checkpoint LSN). A snapshot is itself a file of these
//! frames ([`crate::snapshot`]).
//!
//! The reader applies standard first-bad-frame-ends-log semantics: the log
//! is valid up to the first incomplete, oversized, or CRC-failing frame;
//! everything from that point on is a torn tail from an interrupted write
//! and is discarded (and reported) rather than treated as an error.
//!
//! The writer doubles as the crash-injection surface: arming a
//! [`CrashPoint`] makes the Nth append deterministically die mid-write
//! (dropping, tearing, or bit-flipping the in-flight frame), after which
//! the writer is dead and every durable mutation fails with
//! [`RelError::Crashed`] until the database is reopened through recovery.

use crate::catalog::{ColumnDef, TableDef, TableId};
use crate::error::{RelError, RelResult};
use crate::fault::{splitmix64, CrashKind, CrashPoint};
use crate::index::IndexDef;
use crate::optimizer::PhysicalConfig;
use crate::stats::{Bucket, ColumnStats, TableStats};
use crate::types::{DataType, Row, Value};
use crate::view::{ViewDef, ViewSide};
use std::fs;
use std::io::{Read, Write};
use std::path::Path;

/// Upper bound on one frame's body, as a torn-length sanity check: a
/// corrupted length prefix must not make the reader attempt a huge
/// allocation before the CRC can reject the frame. The codec reuses it as
/// the bound on any decoded size/offset field, which keeps
/// [`Dec::usize`] portable to 32-bit targets.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

// ------------------------------------------------------------------ crc32 --

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE polynomial) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ------------------------------------------------------------------ codec --
//
// A hand-rolled binary codec (fixed-width little-endian integers, floats
// via `to_bits`, length-prefixed strings) for log records — the frames of
// both the WAL and the snapshot — and the wire protocol. Decoding returns
// a typed [`DecodeError`] on any truncation or bad tag, which the frame
// reader treats as a torn frame.

/// A typed decode failure from the binary codec. The WAL reader treats
/// any of these as the start of a torn tail; a snapshot with one is
/// [`RelError::InvalidSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before a fixed-width field: `need` more bytes at
    /// byte `offset` of the payload.
    Truncated {
        /// Bytes the field still needed.
        need: usize,
        /// Payload offset where the read started.
        offset: usize,
    },
    /// A decoded size/offset exceeds what this platform can address or the
    /// frame-size sanity bound ([`MAX_FRAME_BYTES`] covers every legitimate
    /// width/index the codec ever writes). On 32-bit targets an unchecked
    /// `as usize` here used to silently truncate the value instead.
    LengthOverflow(u64),
    /// A collection count exceeds the remaining input.
    LengthExceedsInput(usize),
    /// An enum tag byte outside the known range for `what`.
    BadTag {
        /// Which tagged field was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field holds invalid UTF-8.
    InvalidUtf8,
    /// Bytes remain after the last field of `context`.
    TrailingBytes {
        /// What was being decoded.
        context: &'static str,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { need, offset } => {
                write!(f, "truncated: need {need} bytes at offset {offset}")
            }
            DecodeError::LengthOverflow(v) => {
                write!(f, "length {v} exceeds the addressable/frame-size bound")
            }
            DecodeError::LengthExceedsInput(n) => {
                write!(f, "length {n} exceeds remaining input")
            }
            DecodeError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            DecodeError::InvalidUtf8 => write!(f, "invalid utf-8 in string"),
            DecodeError::TrailingBytes { context } => {
                write!(f, "trailing bytes after {context}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encoding buffer.
#[derive(Debug, Default)]
pub(crate) struct Enc(pub Vec<u8>);

impl Enc {
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

/// Decoding cursor over a byte slice.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecResult<T> = Result<T, DecodeError>;

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(DecodeError::Truncated {
                need: n,
                offset: self.pos,
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }
    pub fn u32(&mut self) -> DecResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    pub fn u64(&mut self) -> DecResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    pub fn i64(&mut self) -> DecResult<i64> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    pub fn f64(&mut self) -> DecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    pub fn str(&mut self) -> DecResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }
    /// A size/offset field. Every value the codec writes here (column
    /// widths, column indexes) is far below [`MAX_FRAME_BYTES`], so the
    /// conversion is bounds-checked against both that cap and the
    /// platform's address width — a corrupt 64-bit length can neither
    /// truncate on 32-bit targets nor smuggle a huge value through.
    pub fn usize(&mut self) -> DecResult<usize> {
        let v = self.u64()?;
        if v > u64::from(MAX_FRAME_BYTES) {
            return Err(DecodeError::LengthOverflow(v));
        }
        usize::try_from(v).map_err(|_| DecodeError::LengthOverflow(v))
    }
    /// A collection length, sanity-capped so a corrupt count cannot drive
    /// a huge preallocation (each element needs at least one byte).
    fn len(&mut self) -> DecResult<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(DecodeError::LengthExceedsInput(n));
        }
        Ok(n)
    }
}

pub(crate) fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Int(i) => {
            e.u8(1);
            e.i64(*i);
        }
        Value::Float(f) => {
            e.u8(2);
            e.f64(*f);
        }
        Value::Str(s) => {
            e.u8(3);
            e.str(s);
        }
    }
}

pub(crate) fn dec_value(d: &mut Dec<'_>) -> DecResult<Value> {
    match d.u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(d.i64()?)),
        2 => Ok(Value::Float(d.f64()?)),
        3 => Ok(Value::str(d.str()?)),
        tag => Err(DecodeError::BadTag { what: "value", tag }),
    }
}

pub(crate) fn enc_row(e: &mut Enc, row: &[Value]) {
    e.u32(row.len() as u32);
    for v in row {
        enc_value(e, v);
    }
}

pub(crate) fn dec_row(d: &mut Dec<'_>) -> DecResult<Row> {
    let n = d.len()?;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(dec_value(d)?);
    }
    Ok(row)
}

pub(crate) fn enc_data_type(e: &mut Enc, ty: DataType) {
    e.u8(match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
    });
}

pub(crate) fn dec_data_type(d: &mut Dec<'_>) -> DecResult<DataType> {
    match d.u8()? {
        0 => Ok(DataType::Int),
        1 => Ok(DataType::Float),
        2 => Ok(DataType::Str),
        tag => Err(DecodeError::BadTag {
            what: "data type",
            tag,
        }),
    }
}

pub(crate) fn enc_table_def(e: &mut Enc, def: &TableDef) {
    e.str(&def.name);
    e.u32(def.columns.len() as u32);
    for col in &def.columns {
        e.str(&col.name);
        enc_data_type(e, col.ty);
        e.u8(u8::from(col.nullable));
        e.usize(col.avg_width);
    }
}

pub(crate) fn dec_table_def(d: &mut Dec<'_>) -> DecResult<TableDef> {
    let name = d.str()?;
    let n = d.len()?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let col_name = d.str()?;
        let ty = dec_data_type(d)?;
        let nullable = d.u8()? != 0;
        let avg_width = d.usize()?;
        let mut col = ColumnDef::new(col_name, ty).with_width(avg_width);
        col.nullable = nullable;
        columns.push(col);
    }
    Ok(TableDef::new(name, columns))
}

fn enc_index_def(e: &mut Enc, def: &IndexDef) {
    e.str(&def.name);
    e.u32(def.table.0);
    e.u32(def.key_columns.len() as u32);
    for &c in &def.key_columns {
        e.usize(c);
    }
    e.u32(def.include_columns.len() as u32);
    for &c in &def.include_columns {
        e.usize(c);
    }
    e.u8(u8::from(def.clustered));
}

fn dec_index_def(d: &mut Dec<'_>) -> DecResult<IndexDef> {
    let name = d.str()?;
    let table = TableId(d.u32()?);
    let nk = d.len()?;
    let mut key_columns = Vec::with_capacity(nk);
    for _ in 0..nk {
        key_columns.push(d.usize()?);
    }
    let ni = d.len()?;
    let mut include_columns = Vec::with_capacity(ni);
    for _ in 0..ni {
        include_columns.push(d.usize()?);
    }
    let clustered = d.u8()? != 0;
    let mut def = IndexDef::new(name, table, key_columns, include_columns);
    def.clustered = clustered;
    Ok(def)
}

fn enc_view_def(e: &mut Enc, def: &ViewDef) {
    e.str(&def.name);
    e.u32(def.left.0);
    e.u32(def.right.0);
    e.usize(def.left_col);
    e.usize(def.right_col);
    e.u32(def.outputs.len() as u32);
    for &(side, col) in &def.outputs {
        e.u8(match side {
            ViewSide::Left => 0,
            ViewSide::Right => 1,
        });
        e.usize(col);
    }
}

fn dec_view_def(d: &mut Dec<'_>) -> DecResult<ViewDef> {
    let name = d.str()?;
    let left = TableId(d.u32()?);
    let right = TableId(d.u32()?);
    let left_col = d.usize()?;
    let right_col = d.usize()?;
    let n = d.len()?;
    let mut outputs = Vec::with_capacity(n);
    for _ in 0..n {
        let side = match d.u8()? {
            0 => ViewSide::Left,
            1 => ViewSide::Right,
            tag => {
                return Err(DecodeError::BadTag {
                    what: "view side",
                    tag,
                })
            }
        };
        outputs.push((side, d.usize()?));
    }
    Ok(ViewDef {
        name,
        left,
        right,
        left_col,
        right_col,
        outputs,
    })
}

fn enc_config(e: &mut Enc, config: &PhysicalConfig) {
    e.u32(config.indexes.len() as u32);
    for def in &config.indexes {
        enc_index_def(e, def);
    }
    e.u32(config.views.len() as u32);
    for def in &config.views {
        enc_view_def(e, def);
    }
}

fn dec_config(d: &mut Dec<'_>) -> DecResult<PhysicalConfig> {
    let ni = d.len()?;
    let mut indexes = Vec::with_capacity(ni);
    for _ in 0..ni {
        indexes.push(dec_index_def(d)?);
    }
    let nv = d.len()?;
    let mut views = Vec::with_capacity(nv);
    for _ in 0..nv {
        views.push(dec_view_def(d)?);
    }
    Ok(PhysicalConfig { indexes, views })
}

fn enc_opt_value(e: &mut Enc, v: &Option<Value>) {
    match v {
        None => e.u8(0),
        Some(v) => {
            e.u8(1);
            enc_value(e, v);
        }
    }
}

fn dec_opt_value(d: &mut Dec<'_>) -> DecResult<Option<Value>> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(dec_value(d)?)),
        tag => Err(DecodeError::BadTag {
            what: "option",
            tag,
        }),
    }
}

fn enc_column_stats(e: &mut Enc, s: &ColumnStats) {
    e.u64(s.rows);
    e.u64(s.nulls);
    e.u64(s.n_distinct);
    enc_opt_value(e, &s.min);
    enc_opt_value(e, &s.max);
    e.u32(s.histogram.len() as u32);
    for b in &s.histogram {
        enc_value(e, &b.upper);
        e.u64(b.count);
        e.u64(b.distinct);
    }
    e.f64(s.avg_width);
}

fn dec_column_stats(d: &mut Dec<'_>) -> DecResult<ColumnStats> {
    let rows = d.u64()?;
    let nulls = d.u64()?;
    let n_distinct = d.u64()?;
    let min = dec_opt_value(d)?;
    let max = dec_opt_value(d)?;
    let nb = d.len()?;
    let mut histogram = Vec::with_capacity(nb);
    for _ in 0..nb {
        let upper = dec_value(d)?;
        let count = d.u64()?;
        let distinct = d.u64()?;
        histogram.push(Bucket {
            upper,
            count,
            distinct,
        });
    }
    let avg_width = d.f64()?;
    Ok(ColumnStats {
        rows,
        nulls,
        n_distinct,
        min,
        max,
        histogram,
        avg_width,
    })
}

fn enc_table_stats(e: &mut Enc, s: &TableStats) {
    e.u64(s.rows);
    e.u32(s.columns.len() as u32);
    for c in &s.columns {
        enc_column_stats(e, c);
    }
}

fn dec_table_stats(d: &mut Dec<'_>) -> DecResult<TableStats> {
    let rows = d.u64()?;
    let n = d.len()?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        columns.push(dec_column_stats(d)?);
    }
    Ok(TableStats { rows, columns })
}

// ---------------------------------------------------------------- records --

/// One logical operation in the log. Replaying the sequence of records (in
/// LSN order) against an empty database reproduces the database state
/// bit-for-bit — physical structures included: `ApplyConfig` builds from
/// the heap contents at its position in the sequence and every later
/// `InsertRows` maintains them, exactly as the original calls did, so they
/// equal a full build over the replayed heaps.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// DDL: a table was created.
    CreateTable(TableDef),
    /// One batch of validated rows appended to a table's heap.
    InsertRows {
        /// Target table.
        table: TableId,
        /// The appended rows, in order.
        rows: Vec<Row>,
    },
    /// Statistics were recomputed for every table.
    Analyze,
    /// Statistics were recomputed for one table.
    AnalyzeTable(TableId),
    /// Externally derived statistics were installed for one table.
    SetTableStats {
        /// Target table.
        table: TableId,
        /// The installed statistics.
        stats: TableStats,
    },
    /// A physical configuration was materialized (indexes + views built
    /// from the heap state at this point in the log).
    ApplyConfig(PhysicalConfig),
    /// All physical structures were dropped.
    ClearConfig,
    /// Checkpoint marker: the first frame of a freshly truncated log and
    /// the last frame of a snapshot, recording that the snapshot holds
    /// everything below its LSN. Carries no mutation and is never
    /// replayed.
    Checkpoint,
    /// Transaction start marker: every mutation frame between this and the
    /// matching [`WalRecord::TxnCommit`] belongs to transaction `txn` and
    /// becomes durable only when the commit marker is on disk. Commits are
    /// serialized by the session layer, so a transaction's frames are
    /// contiguous and only the log's trailing transaction can ever be
    /// missing its commit marker.
    TxnBegin {
        /// Session-assigned transaction id (diagnostic; recovery keys off
        /// frame adjacency, not this id).
        txn: u64,
    },
    /// Transaction commit marker: the frames since the matching
    /// [`WalRecord::TxnBegin`] are now durable. Its LSN is the
    /// transaction's commit LSN — the version tag MVCC snapshots compare
    /// against.
    TxnCommit {
        /// Session-assigned transaction id.
        txn: u64,
    },
}

const TAG_CREATE_TABLE: u8 = 1;
const TAG_INSERT_ROWS: u8 = 2;
const TAG_ANALYZE: u8 = 3;
const TAG_ANALYZE_TABLE: u8 = 4;
const TAG_SET_TABLE_STATS: u8 = 5;
const TAG_APPLY_CONFIG: u8 = 6;
const TAG_CLEAR_CONFIG: u8 = 7;
const TAG_CHECKPOINT: u8 = 8;
const TAG_TXN_BEGIN: u8 = 9;
const TAG_TXN_COMMIT: u8 = 10;
// Tag 11 once toggled a retired incremental statistics mode. It stays
// reserved and is never reused: a frame carrying it decodes as a bad tag.

impl WalRecord {
    fn encode_into(&self, e: &mut Enc) {
        match self {
            WalRecord::CreateTable(def) => {
                e.u8(TAG_CREATE_TABLE);
                enc_table_def(e, def);
            }
            WalRecord::InsertRows { table, rows } => {
                e.u8(TAG_INSERT_ROWS);
                e.u32(table.0);
                e.u32(rows.len() as u32);
                for row in rows {
                    enc_row(e, row);
                }
            }
            WalRecord::Analyze => e.u8(TAG_ANALYZE),
            WalRecord::AnalyzeTable(table) => {
                e.u8(TAG_ANALYZE_TABLE);
                e.u32(table.0);
            }
            WalRecord::SetTableStats { table, stats } => {
                e.u8(TAG_SET_TABLE_STATS);
                e.u32(table.0);
                enc_table_stats(e, stats);
            }
            WalRecord::ApplyConfig(config) => {
                e.u8(TAG_APPLY_CONFIG);
                enc_config(e, config);
            }
            WalRecord::ClearConfig => e.u8(TAG_CLEAR_CONFIG),
            WalRecord::Checkpoint => e.u8(TAG_CHECKPOINT),
            WalRecord::TxnBegin { txn } => {
                e.u8(TAG_TXN_BEGIN);
                e.u64(*txn);
            }
            WalRecord::TxnCommit { txn } => {
                e.u8(TAG_TXN_COMMIT);
                e.u64(*txn);
            }
        }
    }

    fn decode(d: &mut Dec<'_>) -> DecResult<WalRecord> {
        let record = match d.u8()? {
            TAG_CREATE_TABLE => WalRecord::CreateTable(dec_table_def(d)?),
            TAG_INSERT_ROWS => {
                let table = TableId(d.u32()?);
                let n = d.len()?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(dec_row(d)?);
                }
                WalRecord::InsertRows { table, rows }
            }
            TAG_ANALYZE => WalRecord::Analyze,
            TAG_ANALYZE_TABLE => WalRecord::AnalyzeTable(TableId(d.u32()?)),
            TAG_SET_TABLE_STATS => {
                let table = TableId(d.u32()?);
                let stats = dec_table_stats(d)?;
                WalRecord::SetTableStats { table, stats }
            }
            TAG_APPLY_CONFIG => WalRecord::ApplyConfig(dec_config(d)?),
            TAG_CLEAR_CONFIG => WalRecord::ClearConfig,
            TAG_CHECKPOINT => WalRecord::Checkpoint,
            TAG_TXN_BEGIN => WalRecord::TxnBegin { txn: d.u64()? },
            TAG_TXN_COMMIT => WalRecord::TxnCommit { txn: d.u64()? },
            tag => {
                return Err(DecodeError::BadTag {
                    what: "record",
                    tag,
                })
            }
        };
        if !d.is_done() {
            return Err(DecodeError::TrailingBytes {
                context: "record payload",
            });
        }
        Ok(record)
    }
}

/// Encode one frame: `[len][crc][lsn | tag | payload]`.
pub(crate) fn encode_frame(lsn: u64, record: &WalRecord) -> Vec<u8> {
    let mut body = Enc::default();
    body.u64(lsn);
    record.encode_into(&mut body);
    let body = body.0;
    let mut frame = Vec::with_capacity(8 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

// ----------------------------------------------------------------- writer --

/// Cumulative counters for a database's WAL writer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Frames appended successfully over the writer's lifetime (carried
    /// across checkpoints, which swap the underlying file).
    pub frames_written: u64,
    /// Bytes appended successfully over the writer's lifetime.
    pub bytes_written: u64,
}

/// The append side of the log: owns the open file, the cumulative
/// counters, and the (optional) armed crash point.
#[derive(Debug)]
pub struct WalWriter {
    file: fs::File,
    stats: WalStats,
    /// Appends performed since the crash point was armed.
    writes_since_arm: u64,
    crash: Option<CrashPoint>,
    dead: bool,
}

impl WalWriter {
    /// Create (truncate) a log file.
    pub fn create(path: &Path) -> RelResult<WalWriter> {
        let file = fs::File::create(path).map_err(RelError::io)?;
        Ok(WalWriter {
            file,
            stats: WalStats::default(),
            writes_since_arm: 0,
            crash: None,
            dead: false,
        })
    }

    /// Open an existing log for appending.
    pub fn open_append(path: &Path) -> RelResult<WalWriter> {
        let file = fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(RelError::io)?;
        Ok(WalWriter {
            file,
            stats: WalStats::default(),
            writes_since_arm: 0,
            crash: None,
            dead: false,
        })
    }

    /// Cumulative append counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Arm (or clear) a crash point. Arming restarts the append countdown
    /// and revives a dead writer, so a test can schedule several crashes in
    /// one process lifetime.
    pub fn set_crash_point(&mut self, point: Option<CrashPoint>) {
        self.crash = point;
        self.writes_since_arm = 0;
        self.dead = false;
    }

    /// Whether a crash point has fired and the writer refuses all appends.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Carry crash-injection progress from another writer (used when a
    /// checkpoint swaps in a fresh file: the countdown and the armed point
    /// belong to the *process*, not the file).
    pub(crate) fn adopt_crash_state(&mut self, other: &WalWriter) {
        self.crash = other.crash;
        self.writes_since_arm = other.writes_since_arm;
        self.dead = other.dead;
        self.stats = other.stats;
    }

    /// Append one record as a CRC-framed entry. With an armed crash point,
    /// the `after_writes`-th append (counted from arming) dies mid-write:
    /// the frame is dropped, torn, or bit-flipped per the crash kind, the
    /// writer is marked dead, and the call fails with
    /// [`RelError::Crashed`].
    pub fn append(&mut self, lsn: u64, record: &WalRecord) -> RelResult<()> {
        if self.dead {
            return Err(RelError::Crashed(
                "wal writer is dead after a simulated crash; reopen through recovery".to_string(),
            ));
        }
        let frame = encode_frame(lsn, record);
        if let Some(point) = self.crash {
            if self.writes_since_arm >= point.after_writes {
                self.write_damaged(&frame, point)?;
                self.dead = true;
                return Err(RelError::Crashed(format!(
                    "simulated {} crash at frame write {} (lsn {lsn})",
                    point.kind, self.writes_since_arm
                )));
            }
        }
        self.file.write_all(&frame).map_err(RelError::io)?;
        self.writes_since_arm += 1;
        self.stats.frames_written += 1;
        self.stats.bytes_written += frame.len() as u64;
        Ok(())
    }

    /// Write the crash-damaged image of `frame` per the crash kind. The
    /// damage geometry is a pure function of `(seed, writes_since_arm)`.
    fn write_damaged(&mut self, frame: &[u8], point: CrashPoint) -> RelResult<()> {
        let roll = splitmix64(point.seed ^ self.writes_since_arm.wrapping_mul(0x9e37_79b9));
        match point.kind {
            CrashKind::Clean => Ok(()),
            CrashKind::TornTail => {
                // A strict non-empty prefix: at least 1 byte, at most len-1.
                let cut = 1 + (roll % (frame.len() as u64 - 1)) as usize;
                self.file.write_all(&frame[..cut]).map_err(RelError::io)
            }
            CrashKind::BitFlip => {
                let mut damaged = frame.to_vec();
                let bit = (roll % (frame.len() as u64 * 8)) as usize;
                damaged[bit / 8] ^= 1 << (bit % 8);
                self.file.write_all(&damaged).map_err(RelError::io)
            }
        }
    }

    /// Flush file contents to stable storage.
    pub fn sync(&self) -> RelResult<()> {
        self.file.sync_all().map_err(RelError::io)
    }
}

// ----------------------------------------------------------------- reader --

/// The result of scanning a log file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalReadOutcome {
    /// Valid frames in file order: `(lsn, record)`.
    pub frames: Vec<(u64, WalRecord)>,
    /// File offset just past each valid frame, in frame order
    /// (`frame_ends[i]` is where frame `i+1` starts). Recovery uses these
    /// to truncate the log at a transaction boundary, not just at the last
    /// valid frame.
    pub frame_ends: Vec<u64>,
    /// Whether a *corrupt* frame ended the scan: a fragment that was at
    /// least one 8-byte header long but failed the length/CRC/decode
    /// checks (0 or 1: parsing cannot resynchronize past it). A trailing
    /// fragment shorter than one header is *not* counted here — no
    /// complete frame was damaged — and sets [`tail_incomplete`] instead.
    ///
    /// [`tail_incomplete`]: WalReadOutcome::tail_incomplete
    pub frames_discarded: u64,
    /// The scan ended on a fragment shorter than one 8-byte frame header:
    /// an interrupted append that never got far enough to damage a frame.
    /// Mutually exclusive with a nonzero [`frames_discarded`].
    ///
    /// [`frames_discarded`]: WalReadOutcome::frames_discarded
    pub tail_incomplete: bool,
    /// Bytes of torn tail discarded (incomplete or corrupt).
    pub bytes_discarded: u64,
    /// Length of the valid prefix; the file must be truncated to this
    /// before further appends, or the torn bytes would sit *between*
    /// frames and invalidate everything written after them.
    pub valid_bytes: u64,
}

/// Read every valid frame from a log file. A missing file is an empty log.
/// The scan stops at the first incomplete, oversized, or CRC-failing frame
/// and reports the remainder as a discarded torn tail — interrupted final
/// writes are expected after a crash and are not errors.
pub fn read_wal(path: &Path) -> RelResult<WalReadOutcome> {
    let mut bytes = Vec::new();
    match fs::File::open(path) {
        Ok(mut file) => {
            file.read_to_end(&mut bytes).map_err(RelError::io)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReadOutcome::default()),
        Err(e) => return Err(RelError::io(e)),
    }
    let mut outcome = WalReadOutcome::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let valid = parse_frame(&bytes[pos..]);
        match valid {
            Some((consumed, lsn, record)) => {
                outcome.frames.push((lsn, record));
                pos += consumed;
                outcome.frame_ends.push(pos as u64);
            }
            None => {
                // A fragment shorter than one frame header is an append
                // that barely started — an incomplete tail, not a damaged
                // frame. Anything longer carried a header that failed the
                // length/CRC/decode checks: a corrupt frame.
                if bytes.len() - pos < 8 {
                    outcome.tail_incomplete = true;
                } else {
                    outcome.frames_discarded = 1;
                }
                outcome.bytes_discarded = (bytes.len() - pos) as u64;
                break;
            }
        }
    }
    outcome.valid_bytes = pos as u64;
    Ok(outcome)
}

/// Parse one frame from the head of `bytes`; `None` on any damage.
fn parse_frame(bytes: &[u8]) -> Option<(usize, u64, WalRecord)> {
    if bytes.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if len > MAX_FRAME_BYTES || (len as usize) > bytes.len() - 8 || len < 9 {
        return None;
    }
    let body = &bytes[8..8 + len as usize];
    if crc32(body) != crc {
        return None;
    }
    let mut d = Dec::new(body);
    let lsn = d.u64().ok()?;
    let record = WalRecord::decode(&mut d).ok()?;
    Some((8 + len as usize, lsn, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_wal(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("xmlshred-wal-{tag}-{}-{n}.log", std::process::id()))
    }

    fn sample_records() -> Vec<WalRecord> {
        let def = TableDef::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Str).nullable(),
                ColumnDef::new("score", DataType::Float),
            ],
        );
        vec![
            WalRecord::CreateTable(def),
            WalRecord::InsertRows {
                table: TableId(0),
                rows: vec![
                    vec![Value::Int(1), Value::str("a"), Value::Float(0.5)],
                    vec![Value::Int(2), Value::Null, Value::Float(-1.25)],
                ],
            },
            WalRecord::Analyze,
            WalRecord::AnalyzeTable(TableId(0)),
            WalRecord::ApplyConfig(PhysicalConfig {
                indexes: vec![IndexDef::new("ix", TableId(0), vec![0], vec![1]).clustered()],
                views: vec![ViewDef {
                    name: "v".into(),
                    left: TableId(0),
                    right: TableId(1),
                    left_col: 0,
                    right_col: 1,
                    outputs: vec![(ViewSide::Left, 0), (ViewSide::Right, 2)],
                }],
            }),
            WalRecord::ClearConfig,
            WalRecord::Checkpoint,
            WalRecord::TxnBegin { txn: 3 },
            WalRecord::TxnCommit { txn: 3 },
        ]
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip() {
        let path = temp_wal("roundtrip");
        let mut w = WalWriter::create(&path).unwrap();
        let records = sample_records();
        for (i, r) in records.iter().enumerate() {
            w.append(i as u64, r).unwrap();
        }
        assert_eq!(w.stats().frames_written, records.len() as u64);
        let out = read_wal(&path).unwrap();
        assert_eq!(out.frames_discarded, 0);
        assert!(!out.tail_incomplete);
        assert_eq!(out.bytes_discarded, 0);
        assert_eq!(out.frames.len(), records.len());
        for (i, (lsn, record)) in out.frames.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(record, &records[i]);
        }
        assert_eq!(out.valid_bytes, w.stats().bytes_written);
        // Frame-end offsets are strictly increasing and end at the valid
        // prefix length.
        assert_eq!(out.frame_ends.len(), records.len());
        assert!(out.frame_ends.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(out.frame_ends.last().copied(), Some(out.valid_bytes));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty_log() {
        let out = read_wal(Path::new("/nonexistent/xmlshred-wal-nope.log")).unwrap();
        assert_eq!(out, WalReadOutcome::default());
    }

    #[test]
    fn torn_tail_discarded_valid_prefix_kept() {
        let path = temp_wal("torn");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(0, &WalRecord::Analyze).unwrap();
        let keep = w.stats().bytes_written;
        w.set_crash_point(Some(CrashPoint {
            after_writes: 0,
            kind: CrashKind::TornTail,
            seed: 5,
        }));
        let err = w.append(1, &WalRecord::Analyze).unwrap_err();
        assert!(matches!(err, RelError::Crashed(_)));
        assert!(w.is_dead());
        // Dead writer refuses everything.
        assert!(matches!(
            w.append(2, &WalRecord::Analyze),
            Err(RelError::Crashed(_))
        ));
        let out = read_wal(&path).unwrap();
        assert_eq!(out.frames.len(), 1);
        // The torn fragment's length is seed-dependent: shorter than one
        // frame header it is an incomplete tail, otherwise a corrupt
        // frame. Exactly one of the two classifications fires.
        assert_eq!(
            out.frames_discarded + u64::from(out.tail_incomplete),
            1,
            "torn tail must be classified exactly once: {out:?}"
        );
        assert!(out.bytes_discarded > 0);
        assert_eq!(out.valid_bytes, keep);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_rejected_by_crc() {
        let path = temp_wal("bitflip");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(0, &WalRecord::Analyze).unwrap();
        w.set_crash_point(Some(CrashPoint {
            after_writes: 0,
            kind: CrashKind::BitFlip,
            seed: 17,
        }));
        assert!(w.append(1, &WalRecord::Analyze).is_err());
        let out = read_wal(&path).unwrap();
        // The flipped frame may damage its length prefix or its body; either
        // way the valid log ends at frame 0, and the full-length fragment is
        // a corrupt frame, never an incomplete tail.
        assert_eq!(out.frames.len(), 1);
        assert_eq!(out.frames_discarded, 1);
        assert!(!out.tail_incomplete);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_crash_leaves_no_tail() {
        let path = temp_wal("clean");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(0, &WalRecord::Analyze).unwrap();
        w.set_crash_point(Some(CrashPoint {
            after_writes: 0,
            kind: CrashKind::Clean,
            seed: 1,
        }));
        assert!(w.append(1, &WalRecord::Analyze).is_err());
        let out = read_wal(&path).unwrap();
        assert_eq!(out.frames.len(), 1);
        assert_eq!(out.frames_discarded, 0);
        assert_eq!(out.bytes_discarded, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_damage_is_deterministic_per_seed() {
        let write = |seed: u64| {
            let path = temp_wal("det");
            let mut w = WalWriter::create(&path).unwrap();
            w.append(0, &sample_records()[1]).unwrap();
            w.set_crash_point(Some(CrashPoint {
                after_writes: 0,
                kind: CrashKind::TornTail,
                seed,
            }));
            w.append(1, &sample_records()[1]).unwrap_err();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            bytes
        };
        assert_eq!(write(9), write(9));
        assert_ne!(write(9), write(10));
    }

    #[test]
    fn countdown_counts_appends_since_arming() {
        let path = temp_wal("countdown");
        let mut w = WalWriter::create(&path).unwrap();
        w.set_crash_point(Some(CrashPoint {
            after_writes: 3,
            kind: CrashKind::Clean,
            seed: 0,
        }));
        for lsn in 0..3 {
            w.append(lsn, &WalRecord::Analyze).unwrap();
        }
        assert!(w.append(3, &WalRecord::Analyze).is_err());
        // Re-arming revives the writer.
        w.set_crash_point(None);
        w.append(3, &WalRecord::Analyze).unwrap();
        let out = read_wal(&path).unwrap();
        assert_eq!(out.frames.len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_file_discarded_entirely() {
        let path = temp_wal("garbage");
        std::fs::write(&path, b"this is not a wal").unwrap();
        let out = read_wal(&path).unwrap();
        assert!(out.frames.is_empty());
        assert_eq!(out.frames_discarded, 1);
        assert!(!out.tail_incomplete, "17 garbage bytes carry a full header");
        assert_eq!(out.bytes_discarded, 17);
        assert_eq!(out.valid_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sub_header_fragment_is_incomplete_tail_not_corrupt_frame() {
        // Regression: a trailing fragment shorter than one 8-byte frame
        // header used to be reported as `frames_discarded = 1` even though
        // no complete frame was damaged.
        let path = temp_wal("shorttail");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(0, &WalRecord::Analyze).unwrap();
        let keep = w.stats().bytes_written;
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xAA, 0xBB, 0xCC, 0xDD, 0xEE]);
        std::fs::write(&path, &bytes).unwrap();
        let out = read_wal(&path).unwrap();
        assert_eq!(out.frames.len(), 1);
        assert_eq!(out.frames_discarded, 0, "no complete frame was damaged");
        assert!(out.tail_incomplete);
        assert_eq!(out.bytes_discarded, 5);
        assert_eq!(out.valid_bytes, keep);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decoded_usize_overflow_is_typed_error() {
        // Regression: `Dec::usize` was `self.u64()? as usize`, which on a
        // 32-bit target silently truncates a corrupt 64-bit length. The
        // checked conversion caps at MAX_FRAME_BYTES so the test bites on
        // 64-bit targets too.
        let mut e = Enc::default();
        e.u64(u64::MAX);
        let mut d = Dec::new(&e.0);
        assert_eq!(d.usize(), Err(DecodeError::LengthOverflow(u64::MAX)));

        let mut e = Enc::default();
        e.u64(u64::from(MAX_FRAME_BYTES) + 1);
        let mut d = Dec::new(&e.0);
        assert!(matches!(d.usize(), Err(DecodeError::LengthOverflow(_))));

        // In-range values still decode, and the error renders usefully.
        let mut e = Enc::default();
        e.usize(12_345);
        let mut d = Dec::new(&e.0);
        assert_eq!(d.usize().unwrap(), 12_345);
        let msg = DecodeError::LengthOverflow(u64::MAX).to_string();
        assert!(msg.contains("exceeds"), "{msg}");
    }

    #[test]
    fn txn_markers_round_trip_and_tags_are_stable() {
        let begin = WalRecord::TxnBegin { txn: 42 };
        let commit = WalRecord::TxnCommit { txn: 42 };
        for record in [&begin, &commit] {
            let frame = encode_frame(7, record);
            let (consumed, lsn, back) = parse_frame(&frame).expect("valid frame");
            assert_eq!(consumed, frame.len());
            assert_eq!(lsn, 7);
            assert_eq!(&back, record);
        }
        // On-disk tags are load-bearing (old logs must keep decoding).
        assert_eq!(encode_frame(0, &begin)[16], TAG_TXN_BEGIN);
        assert_eq!(encode_frame(0, &commit)[16], TAG_TXN_COMMIT);
    }

    /// A config once carried an optional third section listing columnar
    /// partitions. The record now ends after the views, so a payload with
    /// that section reads like any damaged frame.
    #[test]
    fn apply_config_with_old_columnar_section_is_trailing_bytes() {
        let mut e = Enc::default();
        e.u8(TAG_APPLY_CONFIG);
        enc_config(&mut e, &PhysicalConfig::none());
        e.u32(1);
        e.u32(0);
        assert_eq!(
            WalRecord::decode(&mut Dec::new(&e.0)),
            Err(DecodeError::TrailingBytes {
                context: "record payload"
            })
        );
    }

    /// Tag 11 belonged to a record that toggled a retired incremental
    /// statistics mode. A log or snapshot still holding one reads like any
    /// damaged frame.
    #[test]
    fn retired_stats_mode_tag_is_a_bad_tag() {
        assert_eq!(
            WalRecord::decode(&mut Dec::new(&[11, 1])),
            Err(DecodeError::BadTag {
                what: "record",
                tag: 11
            })
        );
    }

    #[test]
    fn stats_round_trip_through_codec() {
        let stats = TableStats {
            rows: 7,
            columns: vec![ColumnStats {
                rows: 7,
                nulls: 2,
                n_distinct: 4,
                min: Some(Value::Int(-3)),
                max: Some(Value::str("zz")),
                histogram: vec![Bucket {
                    upper: Value::Float(1.5),
                    count: 5,
                    distinct: 3,
                }],
                avg_width: 6.25,
            }],
        };
        let mut e = Enc::default();
        enc_table_stats(&mut e, &stats);
        let mut d = Dec::new(&e.0);
        let back = dec_table_stats(&mut d).unwrap();
        assert!(d.is_done());
        assert_eq!(back, stats);
    }
}
