//! Row storage with page accounting and per-page checksums.

use crate::catalog::TableDef;
use crate::cost::PAGE_SIZE;
use crate::error::{RelError, RelResult, StructureKind};
use crate::types::{DataType, Row, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The heap of one table: a vector of rows plus maintained size accounting.
///
/// Each page (a row belongs to the page where its first byte lands) carries
/// an xor-accumulated checksum of its rows, maintained incrementally on
/// insert. [`TableHeap::verify_checksums`] recomputes the sums from the rows
/// and reports the first mismatching page — the detection half of the fault
/// plane's corruption story.
#[derive(Debug, Clone, Default)]
pub struct TableHeap {
    rows: Vec<Row>,
    /// Total byte size of stored values (maintained incrementally).
    byte_size: usize,
    /// Per-page xor of row hashes (maintained incrementally).
    page_sums: Vec<u64>,
}

/// Order-insensitive hash of one row, xor-folded into its page's checksum.
fn row_hash(row: &[Value]) -> u64 {
    let mut hasher = DefaultHasher::new();
    row.len().hash(&mut hasher);
    for value in row {
        value.hash(&mut hasher);
    }
    hasher.finish()
}

impl TableHeap {
    /// Create an empty heap.
    pub fn new() -> Self {
        TableHeap::default()
    }

    /// Append a row after checking arity and types against `def`.
    pub fn insert(&mut self, def: &TableDef, row: Row) -> RelResult<()> {
        validate_row(def, &row)?;
        self.push_row(row);
        Ok(())
    }

    /// Append without full validation (used by bulk loads that already
    /// validated). Debug builds still assert arity and value types.
    pub fn insert_unchecked(&mut self, def: &TableDef, row: Row) {
        debug_assert_eq!(
            row.len(),
            def.columns.len(),
            "arity mismatch in unchecked insert into '{}'",
            def.name
        );
        debug_assert!(
            row.iter().zip(&def.columns).all(|(value, col)| {
                match value.data_type() {
                    None => col.nullable,
                    Some(ty) => ty == col.ty,
                }
            }),
            "type or null-constraint violation in unchecked insert into '{}'",
            def.name
        );
        self.push_row(row);
    }

    fn push_row(&mut self, row: Row) {
        let page = self.byte_size / PAGE_SIZE;
        if self.page_sums.len() <= page {
            self.page_sums.resize(page + 1, 0);
        }
        self.page_sums[page] ^= row_hash(&row);
        self.byte_size += row_width(&row);
        self.rows.push(row);
    }

    /// All rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Row by position, or `None` when `idx` is out of bounds.
    pub fn row(&self, idx: usize) -> Option<&Row> {
        self.rows.get(idx)
    }

    /// Recompute every page checksum from the rows and compare against the
    /// maintained sums. `table` names the heap in the error. O(rows); the
    /// executor only calls this when a fault plane is active.
    pub fn verify_checksums(&self, table: &str) -> RelResult<()> {
        let mut sums = vec![0u64; self.page_sums.len()];
        let mut offset = 0usize;
        for row in &self.rows {
            let page = offset / PAGE_SIZE;
            if page >= sums.len() {
                return Err(RelError::corrupted_heap(table, page));
            }
            sums[page] ^= row_hash(row);
            offset += row_width(row);
        }
        for (page, (fresh, stored)) in sums.iter().zip(&self.page_sums).enumerate() {
            if fresh != stored {
                return Err(RelError::corrupted_heap(table, page));
            }
        }
        Ok(())
    }

    /// Damage a stored row in place *without* updating its page checksum, so
    /// the next [`TableHeap::verify_checksums`] fails. Chaos-test helper;
    /// returns `false` when `idx` is out of bounds.
    pub fn corrupt_row(&mut self, idx: usize) -> bool {
        let Some(row) = self.rows.get_mut(idx) else {
            return false;
        };
        for value in row.iter_mut() {
            match value {
                Value::Int(v) => {
                    *v = v.wrapping_add(1);
                    return true;
                }
                Value::Float(v) => {
                    *v = f64::from_bits(v.to_bits() ^ 1);
                    return true;
                }
                Value::Str(s) => {
                    let flipped: String = s
                        .chars()
                        .map(|c| if c == '~' { '!' } else { '~' })
                        .collect();
                    *value = Value::str(flipped);
                    return true;
                }
                Value::Null => continue,
            }
        }
        // All-NULL row: swap in a non-null value (width drift is fine — the
        // verifier recomputes offsets and still flags the page).
        if let Some(first) = row.first_mut() {
            *first = Value::Int(0);
            return true;
        }
        false
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the heap empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total stored bytes (values plus an 8-byte row header each).
    pub fn byte_size(&self) -> usize {
        self.byte_size
    }

    /// Number of pages the heap occupies.
    pub fn pages(&self) -> usize {
        pages_for_bytes(self.byte_size)
    }

    /// Drop all rows.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.byte_size = 0;
        self.page_sums.clear();
    }
}

// ------------------------------------------------------------ columnar --

/// Typed storage for one column of a [`ColumnarHeap`].
///
/// Fixed-width types store a dense array (NULL slots hold a default and are
/// marked in the null bitmap); strings store an offset-sliced arena so a
/// cell decodes to `&arena[offsets[r]..offsets[r+1]]` without per-row
/// allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Strings: `offsets` has `rows + 1` entries; row `r`'s payload is
    /// `arena[offsets[r] as usize..offsets[r + 1] as usize]`.
    Str {
        /// Byte offsets into the arena (always on `str` boundaries).
        offsets: Vec<u32>,
        /// Concatenated string payloads.
        arena: String,
    },
}

impl ColumnData {
    fn with_capacity(ty: DataType, rows: usize) -> ColumnData {
        match ty {
            DataType::Int => ColumnData::Int(Vec::with_capacity(rows)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(rows)),
            DataType::Str => {
                let mut offsets = Vec::with_capacity(rows + 1);
                offsets.push(0);
                ColumnData::Str {
                    offsets,
                    arena: String::new(),
                }
            }
        }
    }

    /// String payload of row `r` (only meaningful for `Str` columns on
    /// non-null rows; returns `""` otherwise).
    pub fn str_at(&self, r: usize) -> &str {
        match self {
            ColumnData::Str { offsets, arena } => match (offsets.get(r), offsets.get(r + 1)) {
                (Some(&a), Some(&b)) => arena.get(a as usize..b as usize).unwrap_or(""),
                _ => "",
            },
            _ => "",
        }
    }
}

/// One column of a [`ColumnarHeap`]: typed data, a null bitmap, and
/// per-column-page checksums (a cell belongs to the page where its first
/// encoded byte lands, counting only this column's bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    /// Null bitmap: bit `r & 63` of word `r >> 6` is set when row `r` is
    /// NULL.
    nulls: Vec<u64>,
    /// Per-page xor of cell hashes (maintained at build time).
    page_sums: Vec<u64>,
    /// Total encoded bytes of this column's cells.
    byte_size: usize,
}

/// Hash of one logical cell value (what a decode would return), xor-folded
/// into its column page's checksum.
fn cell_hash(value: &Value) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

impl Column {
    fn new(ty: DataType, rows: usize) -> Column {
        Column {
            data: ColumnData::with_capacity(ty, rows),
            nulls: vec![0u64; rows.div_ceil(64)],
            page_sums: Vec::new(),
            byte_size: 0,
        }
    }

    fn push(&mut self, table: &str, column: &str, value: &Value) -> RelResult<()> {
        let row = match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { offsets, .. } => offsets.len() - 1,
        };
        let width = match (&mut self.data, value) {
            (ColumnData::Int(v), Value::Int(x)) => {
                v.push(*x);
                8
            }
            (ColumnData::Float(v), Value::Float(x)) => {
                v.push(*x);
                8
            }
            (ColumnData::Str { offsets, arena }, Value::Str(s)) => {
                arena.push_str(s);
                offsets.push(arena.len() as u32);
                4 + s.len()
            }
            (data, Value::Null) => {
                self.nulls[row >> 6] |= 1u64 << (row & 63);
                match data {
                    ColumnData::Int(v) => {
                        v.push(0);
                        8
                    }
                    ColumnData::Float(v) => {
                        v.push(0.0);
                        8
                    }
                    ColumnData::Str { offsets, arena } => {
                        offsets.push(arena.len() as u32);
                        4
                    }
                }
            }
            _ => {
                return Err(RelError::SchemaMismatch(format!(
                    "columnar build: stray value type in '{table}.{column}'"
                )))
            }
        };
        let page = self.byte_size / PAGE_SIZE;
        if self.page_sums.len() <= page {
            self.page_sums.resize(page + 1, 0);
        }
        self.page_sums[page] ^= cell_hash(value);
        self.byte_size += width;
        Ok(())
    }

    /// The typed cell array.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Is row `r` NULL?
    pub fn is_null(&self, r: usize) -> bool {
        self.nulls
            .get(r >> 6)
            .is_some_and(|word| word & (1u64 << (r & 63)) != 0)
    }

    /// Decode row `r` back into a [`Value`] (late materialization).
    pub fn value(&self, r: usize) -> Value {
        if self.is_null(r) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => v.get(r).map(|&x| Value::Int(x)).unwrap_or(Value::Null),
            ColumnData::Float(v) => v.get(r).map(|&x| Value::Float(x)).unwrap_or(Value::Null),
            ColumnData::Str { .. } => Value::str(self.data.str_at(r)),
        }
    }

    /// Encoded bytes of this column.
    pub fn byte_size(&self) -> usize {
        self.byte_size
    }

    /// Pages this column occupies.
    pub fn pages(&self) -> usize {
        pages_for_bytes(self.byte_size)
    }
}

/// A column-oriented copy of one table's heap: per-column typed arrays with
/// null bitmaps and per-column-page checksums.
///
/// Built as a *derived* structure — by [`crate::built::BuiltSet`], through
/// the same validate → build → log → install lifecycle as indexes and
/// views — so WAL replay and crash recovery rebuild it
/// deterministically from the row heap, which remains the durable source of
/// truth. The checksums ride the same fault plane as [`TableHeap`]'s: the
/// executor verifies them (instead of the row heap's) before scanning a
/// columnar partition when a fault plane is armed.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarHeap {
    columns: Vec<Column>,
    rows: usize,
}

impl ColumnarHeap {
    /// Build from a table's rows (the full heap or a snapshot prefix of
    /// it). Rejects cells whose type doesn't match the schema (the row
    /// heap validates on insert, so this only fires on corrupted input).
    pub fn build(def: &TableDef, rows: &[Row]) -> RelResult<ColumnarHeap> {
        let mut columns = Vec::with_capacity(def.columns.len());
        for (c, col_def) in def.columns.iter().enumerate() {
            let mut col = Column::new(col_def.ty, rows.len());
            for row in rows {
                col.push(&def.name, &col_def.name, row.get(c).unwrap_or(&Value::Null))?;
            }
            columns.push(col);
        }
        Ok(ColumnarHeap {
            columns,
            rows: rows.len(),
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Is the partition empty?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// A column by position.
    pub fn column(&self, c: usize) -> Option<&Column> {
        self.columns.get(c)
    }

    /// Pages one column occupies, or 0 for a foreign position.
    pub fn column_pages(&self, c: usize) -> usize {
        self.columns.get(c).map_or(0, Column::pages)
    }

    /// Total pages across all columns.
    pub fn pages(&self) -> usize {
        self.columns.iter().map(Column::pages).sum()
    }

    /// Total encoded bytes across all columns.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// Decode one logical cell.
    pub fn value(&self, c: usize, r: usize) -> Value {
        self.columns.get(c).map_or(Value::Null, |col| col.value(r))
    }

    /// Recompute every column page checksum from the stored cells and
    /// compare against the sums maintained at build time. The error names
    /// the column (`table[c2]`) so corruption reports are column-granular.
    pub fn verify_checksums(&self, table: &str) -> RelResult<()> {
        for (c, col) in self.columns.iter().enumerate() {
            let mut sums = vec![0u64; col.page_sums.len()];
            let mut offset = 0usize;
            for r in 0..self.rows {
                let value = col.value(r);
                let width = match (&col.data, &value) {
                    (ColumnData::Str { .. }, Value::Null) => 4,
                    (ColumnData::Str { .. }, Value::Str(s)) => 4 + s.len(),
                    _ => 8,
                };
                let page = offset / PAGE_SIZE;
                if page >= sums.len() {
                    return Err(RelError::corrupted(
                        StructureKind::Columnar,
                        table,
                        format!("{table}[c{c}]"),
                        page,
                    ));
                }
                sums[page] ^= cell_hash(&value);
                offset += width;
            }
            for (page, (fresh, stored)) in sums.iter().zip(&col.page_sums).enumerate() {
                if fresh != stored {
                    return Err(RelError::corrupted(
                        StructureKind::Columnar,
                        table,
                        format!("{table}[c{c}]"),
                        page,
                    ));
                }
            }
        }
        Ok(())
    }

    /// Damage one stored cell *without* updating its page checksum, so the
    /// next [`ColumnarHeap::verify_checksums`] fails. For a NULL cell the
    /// null bit is cleared instead (the stored default becomes visible).
    /// Chaos-test helper; returns `false` when out of bounds.
    pub fn corrupt_value(&mut self, c: usize, r: usize) -> bool {
        let Some(col) = self.columns.get_mut(c) else {
            return false;
        };
        if r >= self.rows {
            return false;
        }
        if col.is_null(r) {
            col.nulls[r >> 6] &= !(1u64 << (r & 63));
            return true;
        }
        match &mut col.data {
            ColumnData::Int(v) => v[r] = v[r].wrapping_add(1),
            ColumnData::Float(v) => v[r] = f64::from_bits(v[r].to_bits() ^ 1),
            // Strings: flag the cell NULL instead of editing the arena (the
            // decode changes, the checksum doesn't).
            ColumnData::Str { .. } => col.nulls[r >> 6] |= 1u64 << (r & 63),
        }
        true
    }
}

/// Check a row's arity, value types, and null constraints against `def`.
/// Extracted from [`TableHeap::insert`] so write-ahead-logging paths can
/// validate *before* the row is logged — the WAL must never record an
/// operation that would fail to apply.
pub fn validate_row(def: &TableDef, row: &[Value]) -> RelResult<()> {
    if row.len() != def.columns.len() {
        return Err(RelError::SchemaMismatch(format!(
            "table '{}' expects {} columns, got {}",
            def.name,
            def.columns.len(),
            row.len()
        )));
    }
    for (value, col) in row.iter().zip(&def.columns) {
        match value.data_type() {
            None => {
                if !col.nullable {
                    return Err(RelError::SchemaMismatch(format!(
                        "NULL in non-nullable column '{}.{}'",
                        def.name, col.name
                    )));
                }
            }
            Some(ty) if ty != col.ty => {
                return Err(RelError::SchemaMismatch(format!(
                    "type mismatch in '{}.{}': expected {:?}, got {:?}",
                    def.name, col.name, col.ty, ty
                )));
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// On-page width of one row: 8-byte header plus each value's width.
pub fn row_width(row: &[Value]) -> usize {
    8 + row.iter().map(Value::width).sum::<usize>()
}

/// Convert a byte size to a page count (at least one page when non-empty).
pub fn pages_for_bytes(bytes: usize) -> usize {
    if bytes == 0 {
        0
    } else {
        bytes.div_ceil(PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnDef;
    use crate::types::DataType;

    fn def() -> TableDef {
        TableDef::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Str).nullable(),
            ],
        )
    }

    #[test]
    fn insert_and_read() {
        let def = def();
        let mut heap = TableHeap::new();
        heap.insert(&def, vec![Value::Int(1), Value::str("a")])
            .unwrap();
        heap.insert(&def, vec![Value::Int(2), Value::Null]).unwrap();
        assert_eq!(heap.len(), 2);
        assert_eq!(heap.row(0).unwrap()[0], Value::Int(1));
        assert!(heap.row(2).is_none());
    }

    #[test]
    fn unchecked_insert_and_checksums() {
        let def = def();
        let mut heap = TableHeap::new();
        for i in 0..500 {
            heap.insert_unchecked(&def, vec![Value::Int(i), Value::str("y".repeat(60))]);
        }
        assert!(heap.verify_checksums("t").is_ok());
        assert!(heap.corrupt_row(123));
        let err = heap.verify_checksums("t").unwrap_err();
        assert!(matches!(err, RelError::Corrupted { .. }));
        assert!(!heap.corrupt_row(10_000));
    }

    #[test]
    fn checksums_survive_clear() {
        let def = def();
        let mut heap = TableHeap::new();
        heap.insert(&def, vec![Value::Int(1), Value::Null]).unwrap();
        heap.clear();
        assert!(heap.verify_checksums("t").is_ok());
        heap.insert(&def, vec![Value::Int(2), Value::Null]).unwrap();
        assert!(heap.verify_checksums("t").is_ok());
    }

    #[test]
    fn corruption_names_first_bad_page() {
        let def = def();
        let mut heap = TableHeap::new();
        for i in 0..1000 {
            heap.insert(&def, vec![Value::Int(i), Value::str("x".repeat(100))])
                .unwrap();
        }
        // 120 bytes/row; page size 8192 -> row 500 starts on page 7.
        heap.corrupt_row(500);
        match heap.verify_checksums("t").unwrap_err() {
            RelError::Corrupted {
                kind,
                table,
                structure,
                page,
            } => {
                assert_eq!(kind, StructureKind::Heap);
                assert_eq!(table, "t");
                assert_eq!(structure, "t");
                assert_eq!(page, 500 * 120 / crate::cost::PAGE_SIZE);
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn arity_checked() {
        let def = def();
        let mut heap = TableHeap::new();
        assert!(heap.insert(&def, vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn type_checked() {
        let def = def();
        let mut heap = TableHeap::new();
        assert!(heap
            .insert(&def, vec![Value::str("x"), Value::Null])
            .is_err());
    }

    #[test]
    fn null_constraint_checked() {
        let def = def();
        let mut heap = TableHeap::new();
        assert!(heap.insert(&def, vec![Value::Null, Value::Null]).is_err());
    }

    #[test]
    fn page_accounting() {
        let def = def();
        let mut heap = TableHeap::new();
        assert_eq!(heap.pages(), 0);
        for i in 0..1000 {
            heap.insert(&def, vec![Value::Int(i), Value::str("x".repeat(100))])
                .unwrap();
        }
        // 1000 rows * (8 header + 8 int + 104 str) = 120_000 bytes -> 15 pages.
        assert_eq!(heap.byte_size(), 120_000);
        assert_eq!(heap.pages(), 15);
        heap.clear();
        assert_eq!(heap.pages(), 0);
    }

    #[test]
    fn pages_rounds_up() {
        assert_eq!(pages_for_bytes(0), 0);
        assert_eq!(pages_for_bytes(1), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE), 1);
        assert_eq!(pages_for_bytes(PAGE_SIZE + 1), 2);
    }

    // -------------------------------------------------------- columnar --

    fn wide_def() -> TableDef {
        TableDef::new(
            "w",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("score", DataType::Float).nullable(),
                ColumnDef::new("name", DataType::Str).nullable(),
            ],
        )
    }

    fn wide_heap(n: i64) -> (TableDef, TableHeap) {
        let def = wide_def();
        let mut heap = TableHeap::new();
        for i in 0..n {
            let score = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Float(i as f64 / 2.0)
            };
            let name = if i % 7 == 0 {
                Value::Null
            } else {
                Value::str(format!("name-{i}"))
            };
            heap.insert(&def, vec![Value::Int(i), score, name]).unwrap();
        }
        (def, heap)
    }

    #[test]
    fn columnar_roundtrips_every_cell() {
        let (def, heap) = wide_heap(300);
        let col = ColumnarHeap::build(&def, heap.rows()).unwrap();
        assert_eq!(col.rows(), 300);
        assert_eq!(col.width(), 3);
        for (r, row) in heap.rows().iter().enumerate() {
            for (c, expect) in row.iter().enumerate() {
                let got = col.value(c, r);
                assert_eq!(
                    got.total_cmp(expect),
                    std::cmp::Ordering::Equal,
                    "cell ({c},{r}): {got:?} vs {expect:?}"
                );
                assert_eq!(got.is_null(), expect.is_null(), "null bit at ({c},{r})");
            }
        }
    }

    #[test]
    fn columnar_page_accounting_tracks_encoded_bytes() {
        let (def, heap) = wide_heap(2000);
        let col = ColumnarHeap::build(&def, heap.rows()).unwrap();
        // Int column: 2000 * 8 = 16_000 bytes -> 2 pages.
        assert_eq!(col.column_pages(0), 2);
        // Float column identical.
        assert_eq!(col.column_pages(1), 2);
        // String column is the wide one; total is the per-column sum.
        assert!(col.column_pages(2) >= col.column_pages(0));
        assert_eq!(
            col.pages(),
            col.column_pages(0) + col.column_pages(1) + col.column_pages(2)
        );
        // Columnar drops the 8-byte row headers, so it's strictly smaller.
        assert!(col.byte_size() < heap.byte_size());
    }

    #[test]
    fn columnar_checksums_catch_cell_damage() {
        let (def, heap) = wide_heap(500);
        let mut col = ColumnarHeap::build(&def, heap.rows()).unwrap();
        assert!(col.verify_checksums("w").is_ok());
        assert!(col.corrupt_value(0, 123));
        match col.verify_checksums("w").unwrap_err() {
            RelError::Corrupted {
                kind,
                table,
                structure,
                page,
            } => {
                assert_eq!(kind, StructureKind::Columnar);
                assert_eq!(table, "w");
                assert_eq!(structure, "w[c0]");
                assert_eq!(page, 123 * 8 / PAGE_SIZE);
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        assert!(!col.corrupt_value(9, 0));
        assert!(!col.corrupt_value(0, 10_000));
    }

    #[test]
    fn columnar_checksums_catch_null_bit_flips() {
        let (def, heap) = wide_heap(100);
        // Row 0 has a NULL score: corrupting it clears the null bit.
        let mut col = ColumnarHeap::build(&def, heap.rows()).unwrap();
        assert!(col.column(1).unwrap().is_null(0));
        assert!(col.corrupt_value(1, 0));
        assert!(!col.column(1).unwrap().is_null(0));
        assert!(matches!(
            col.verify_checksums("w").unwrap_err(),
            RelError::Corrupted { .. }
        ));
        // A string cell is corrupted by nulling it out.
        let mut col = ColumnarHeap::build(&def, heap.rows()).unwrap();
        assert!(col.corrupt_value(2, 1));
        assert!(matches!(
            col.verify_checksums("w").unwrap_err(),
            RelError::Corrupted { .. }
        ));
    }

    #[test]
    fn columnar_empty_table() {
        let def = wide_def();
        let heap = TableHeap::new();
        let col = ColumnarHeap::build(&def, heap.rows()).unwrap();
        assert!(col.is_empty());
        assert_eq!(col.pages(), 0);
        assert!(col.verify_checksums("w").is_ok());
    }
}
