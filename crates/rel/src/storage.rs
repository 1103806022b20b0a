//! Row storage with page accounting and per-page checksums.

use crate::catalog::TableDef;
use crate::cost::PAGE_SIZE;
use crate::error::{RelError, RelResult, StructureKind};
use crate::types::{Row, Value};
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

/// Checksum slots of one derived structure (an index or a view).
pub(crate) const CHECKSUM_SLOTS: usize = 32;

/// The checksums of a derived structure. Each entry folds into the slot its
/// identity picks (an index key, a view row's heap positions), never one
/// its place in the structure would pick, so a slot does not depend on
/// insertion history and an insert updates its slots in O(1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SlotSums([u64; CHECKSUM_SLOTS]);

impl SlotSums {
    /// Xor `hash` into the slot of `identity` (folding it again removes it).
    pub(crate) fn fold(&mut self, identity: u64, hash: u64) {
        self.0[(mix(identity) % CHECKSUM_SLOTS as u64) as usize] ^= hash;
    }

    /// `Corrupted`, naming the first slot where the `fresh` sums of
    /// structure `name` differ from these, as its page.
    pub(crate) fn verify(
        &self,
        fresh: &SlotSums,
        kind: StructureKind,
        table: &str,
        name: &str,
    ) -> RelResult<()> {
        match self.0.iter().zip(&fresh.0).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(slot) => Err(RelError::corrupted(kind, table, name, slot)),
        }
    }
}

/// The splitmix64 finalizer: a cheap, well-spread 64-bit mix.
pub(crate) fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
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
    use crate::error::StructureKind;
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
}
