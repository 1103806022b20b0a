//! B-tree indexes with included (covering) columns.
//!
//! An index is described by an [`IndexDef`] (which is all the what-if
//! optimizer needs) and optionally *built* into a [`BuiltIndex`] backed by an
//! ordered map for actual execution.

use crate::catalog::{TableDef, TableId};
use crate::cost::PAGE_SIZE;
use crate::error::{RelResult, StructureKind};
use crate::stats::TableStats;
use crate::storage::{mix, SlotSums};
use crate::types::{Row, Value};
use rustc_hash::FxHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Bound;

/// Bytes of per-key node overhead in the built structure.
const NODE_OVERHEAD: usize = 16;
/// Bytes per row pointer in a posting list.
const ROW_POINTER: usize = 4;

/// Byte width of one `(key, postings)` entry, matching
/// [`BuiltIndex::byte_size`]'s accounting.
fn entry_width(key: &[Value], rows: &[u32]) -> usize {
    key.iter().map(Value::width).sum::<usize>() + NODE_OVERHEAD + rows.len() * ROW_POINTER
}

/// Hash of one key: the identity that picks its checksum slot.
fn key_hash(key: &[Value]) -> u64 {
    let mut hasher = FxHasher::default();
    key.len().hash(&mut hasher);
    for value in key {
        value.hash(&mut hasher);
    }
    hasher.finish()
}

/// One posting's term in its key's slot checksum.
fn posting_hash(key_hash: u64, row: u32) -> u64 {
    mix(key_hash ^ mix(u64::from(row)))
}

/// Logical description of an index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexDef {
    /// Index name (unique within the database).
    pub name: String,
    /// Indexed table.
    pub table: TableId,
    /// Key columns, in order.
    pub key_columns: Vec<usize>,
    /// Included (non-key) columns, making the index covering for queries
    /// that reference only key + included columns.
    pub include_columns: Vec<usize>,
    /// Clustered: the table's rows are stored in key order, so the index
    /// leaf *is* the row — every column is covered and matching rows are
    /// read sequentially. At most one clustered index per table.
    pub clustered: bool,
}

impl IndexDef {
    /// Create a (nonclustered) index definition.
    pub fn new(
        name: impl Into<String>,
        table: TableId,
        key_columns: Vec<usize>,
        include_columns: Vec<usize>,
    ) -> Self {
        IndexDef {
            name: name.into(),
            table,
            key_columns,
            include_columns,
            clustered: false,
        }
    }

    /// Make this index clustered, builder-style.
    pub fn clustered(mut self) -> Self {
        self.clustered = true;
        self
    }

    /// Does the index cover all of `needed` columns? A clustered index
    /// covers everything (its leaves are the rows).
    pub fn covers(&self, needed: &[usize]) -> bool {
        self.clustered
            || needed
                .iter()
                .all(|c| self.key_columns.contains(c) || self.include_columns.contains(c))
    }

    /// Width in bytes of one index entry, from table statistics. A
    /// clustered index's entry is the full row.
    pub fn entry_width(&self, def: &TableDef, stats: &TableStats) -> f64 {
        if self.clustered {
            return stats
                .effective_row_width()
                .max(def.nominal_row_width() as f64 * 0.25);
        }
        let col_width = |&c: &usize| -> f64 {
            stats
                .columns
                .get(c)
                .map(|s| s.avg_width.max(1.0))
                .unwrap_or_else(|| def.columns[c].avg_width as f64)
        };
        8.0 // row pointer
            + self.key_columns.iter().map(col_width).sum::<f64>()
            + self.include_columns.iter().map(col_width).sum::<f64>()
    }

    /// Estimated size in bytes. Nonclustered: rows x entry width plus ~2%
    /// internal nodes. Clustered: only the internal nodes count against the
    /// budget — the leaves replace the heap rather than copying it.
    pub fn estimated_bytes(&self, def: &TableDef, stats: &TableStats) -> f64 {
        let leaf_bytes = stats.rows as f64 * self.entry_width(def, stats);
        if self.clustered {
            leaf_bytes * 0.02
        } else {
            leaf_bytes * 1.02
        }
    }

    /// Estimated leaf pages touched when fetching `rows` matching entries.
    /// Zero matches read no leaf entries (descent only), mirroring the
    /// executor's measured charge.
    pub fn leaf_pages_for(&self, rows: f64, def: &TableDef, stats: &TableStats) -> f64 {
        if rows <= 0.0 {
            return 0.0;
        }
        (rows * self.entry_width(def, stats) / PAGE_SIZE as f64).max(1.0)
    }
}

/// A seek argument: an equality prefix over the leading key columns plus an
/// optional range on the next key column.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRange {
    /// Values for the leading key columns, compared by equality.
    pub eq_prefix: Vec<Value>,
    /// Optional `(lower, upper)` bounds on key column `eq_prefix.len()`.
    pub range: Option<(Bound<Value>, Bound<Value>)>,
}

impl KeyRange {
    /// Pure equality seek.
    pub fn eq(values: Vec<Value>) -> Self {
        KeyRange {
            eq_prefix: values,
            range: None,
        }
    }

    /// Range-only seek on the first key column.
    pub fn range(lower: Bound<Value>, upper: Bound<Value>) -> Self {
        KeyRange {
            eq_prefix: Vec::new(),
            range: Some((lower, upper)),
        }
    }
}

/// A materialized B-tree index.
///
/// Like the row heap, the built structure carries xor checksums over its
/// postings, so seeded corruption is detectable before a seek or probe can
/// return damaged row pointers. A posting folds into the slot of its key
/// (see [`SlotSums`]), so an insert updates the checksums in O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltIndex {
    /// Definition.
    pub def: IndexDef,
    map: BTreeMap<Vec<Value>, Vec<u32>>,
    /// Xor of posting hashes per slot, maintained on insert.
    sums: SlotSums,
    /// [`BuiltIndex::byte_size`], maintained on insert.
    bytes: usize,
}

impl BuiltIndex {
    /// Build the index over a table's rows (the full heap or a snapshot
    /// prefix of it).
    pub fn build(def: IndexDef, rows: &[Row]) -> Self {
        let mut built = BuiltIndex {
            def,
            map: BTreeMap::new(),
            sums: SlotSums::default(),
            bytes: 0,
        };
        built.extend_from(rows, 0);
        built
    }

    /// Append entries for rows `[from, rows.len())`, the rows the heap
    /// gained since the index last saw it, in O(delta). Row indices are
    /// appended in heap order, exactly as [`BuiltIndex::build`] over the
    /// full heap would have pushed them, so a prefix build plus
    /// `extend_from` is bit-identical to a full build.
    pub fn extend_from(&mut self, rows: &[Row], from: usize) {
        for (row_idx, row) in rows.iter().enumerate().skip(from) {
            let key: Vec<Value> = self
                .def
                .key_columns
                .iter()
                .map(|&c| row[c].clone())
                .collect();
            let (hash, row_idx) = (key_hash(&key), row_idx as u32);
            self.sums.fold(hash, posting_hash(hash, row_idx));
            let key_bytes = entry_width(&key, &[]);
            let postings = self.map.entry(key).or_default();
            self.bytes += ROW_POINTER + if postings.is_empty() { key_bytes } else { 0 };
            postings.push(row_idx);
        }
    }

    /// Recompute every slot checksum from the postings and compare against
    /// the maintained sums; a mismatch names its slot as the page.
    /// `table` names the owning base table in the error. O(postings); the
    /// executor only calls this when a fault plane is active.
    pub fn verify_checksums(&self, table: &str) -> RelResult<()> {
        let mut fresh = SlotSums::default();
        for (key, rows) in &self.map {
            let hash = key_hash(key);
            for &row in rows {
                fresh.fold(hash, posting_hash(hash, row));
            }
        }
        self.sums
            .verify(&fresh, StructureKind::Index, table, &self.def.name)
    }

    /// Damage the `n`-th entry (key order) for corruption testing: its first
    /// row pointer is redirected. Returns false when no such entry exists.
    pub fn corrupt_entry(&mut self, n: usize) -> bool {
        match self.map.values_mut().nth(n) {
            Some(rows) if !rows.is_empty() => {
                rows[0] = rows[0].wrapping_add(1);
                true
            }
            _ => false,
        }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Actual bytes of the built structure: each distinct key's values plus
    /// per-key node overhead, plus one 4-byte row pointer per matching row.
    ///
    /// This measures what was really materialized, unlike
    /// [`IndexDef::estimated_bytes`] — the optimizer's *model* — which
    /// charges included-column widths for every row even though included
    /// columns are projected from the heap at read time, never copied into
    /// the structure. Space-budget enforcement against built designs must
    /// use this, not the estimate.
    pub fn byte_size(&self) -> usize {
        self.bytes
    }

    /// Pages occupied by the built structure laid out in key order at
    /// [`BuiltIndex::byte_size`] widths: the page the last entry starts on,
    /// plus one.
    pub fn pages(&self) -> usize {
        self.map.last_key_value().map_or(0, |(key, rows)| {
            (self.bytes - entry_width(key, rows)) / PAGE_SIZE + 1
        })
    }

    /// Row indices matching a seek argument, in key order.
    pub fn seek(&self, arg: &KeyRange) -> Vec<u32> {
        let prefix_len = arg.eq_prefix.len();
        let mut out = Vec::new();

        // Lower starting point of the scan.
        let start: Bound<Vec<Value>> = match &arg.range {
            Some((Bound::Included(low), _)) => {
                let mut k = arg.eq_prefix.clone();
                k.push(low.clone());
                Bound::Included(k)
            }
            Some((Bound::Excluded(low), _)) => {
                let mut k = arg.eq_prefix.clone();
                k.push(low.clone());
                // Excluded on the composite prefix would skip longer keys
                // sharing the bound; filter below instead.
                Bound::Included(k)
            }
            _ => Bound::Included(arg.eq_prefix.clone()),
        };

        for (key, rows) in self.map.range((start, Bound::Unbounded)) {
            // Stop once the equality prefix no longer matches.
            if key.len() < prefix_len || key[..prefix_len] != arg.eq_prefix[..] {
                break;
            }
            if let Some((low, high)) = &arg.range {
                let Some(v) = key.get(prefix_len) else {
                    continue;
                };
                match low {
                    Bound::Included(l) if v < l => continue,
                    Bound::Excluded(l) if v <= l => continue,
                    _ => {}
                }
                match high {
                    Bound::Included(h) if v > h => break,
                    Bound::Excluded(h) if v >= h => break,
                    _ => {}
                }
            }
            out.extend_from_slice(rows);
        }
        out
    }

    /// Equality probe used by index nested loop joins (single key column).
    pub fn probe(&self, key: &Value) -> &[u32] {
        // A one-element lookup key; allocation is unavoidable with BTreeMap's
        // borrow rules for Vec keys, but the key is tiny.
        match self.map.get(std::slice::from_ref(key)) {
            Some(rows) => rows,
            None => &[],
        }
    }

    /// Scan the whole index in key order, returning `(key, row_indices)`.
    pub fn scan(&self) -> impl Iterator<Item = (&Vec<Value>, &Vec<u32>)> {
        self.map.iter()
    }

    /// Project a heap row through the index's key+include columns.
    pub fn covered_row(&self, row: &Row) -> Row {
        self.def
            .key_columns
            .iter()
            .chain(&self.def.include_columns)
            .map(|&c| row[c].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, TableDef};
    use crate::types::DataType;
    use crate::{error::RelError, storage::CHECKSUM_SLOTS};

    fn setup() -> (TableDef, Vec<Row>) {
        let def = TableDef::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("grp", DataType::Int),
                ColumnDef::new("name", DataType::Str),
            ],
        );
        let heap = (0..100i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::str(format!("n{i}")),
                ]
            })
            .collect();
        (def, heap)
    }

    #[test]
    fn eq_seek() {
        let (_, heap) = setup();
        let idx = BuiltIndex::build(IndexDef::new("i_grp", TableId(0), vec![1], vec![]), &heap);
        let rows = idx.seek(&KeyRange::eq(vec![Value::Int(3)]));
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|&r| heap[r as usize][1] == Value::Int(3)));
    }

    #[test]
    fn range_seek() {
        let (_, heap) = setup();
        let idx = BuiltIndex::build(IndexDef::new("i_id", TableId(0), vec![0], vec![]), &heap);
        let rows = idx.seek(&KeyRange::range(
            Bound::Included(Value::Int(10)),
            Bound::Excluded(Value::Int(20)),
        ));
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn composite_eq_plus_range() {
        let (_, heap) = setup();
        let idx = BuiltIndex::build(
            IndexDef::new("i_grp_id", TableId(0), vec![1, 0], vec![]),
            &heap,
        );
        let arg = KeyRange {
            eq_prefix: vec![Value::Int(3)],
            range: Some((
                Bound::Included(Value::Int(0)),
                Bound::Included(Value::Int(50)),
            )),
        };
        let rows = idx.seek(&arg);
        // grp=3: ids 3,13,23,33,43 are <= 50.
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn exclusive_lower_bound() {
        let (_, heap) = setup();
        let idx = BuiltIndex::build(IndexDef::new("i_id", TableId(0), vec![0], vec![]), &heap);
        let rows = idx.seek(&KeyRange::range(
            Bound::Excluded(Value::Int(97)),
            Bound::Unbounded,
        ));
        assert_eq!(rows.len(), 2); // 98, 99
    }

    #[test]
    fn probe_single_key() {
        let (_, heap) = setup();
        let idx = BuiltIndex::build(IndexDef::new("i_grp", TableId(0), vec![1], vec![]), &heap);
        assert_eq!(idx.probe(&Value::Int(7)).len(), 10);
        assert!(idx.probe(&Value::Int(77)).is_empty());
    }

    #[test]
    fn covering_check() {
        let def = IndexDef::new("i", TableId(0), vec![1], vec![2]);
        assert!(def.covers(&[1, 2]));
        assert!(def.covers(&[2]));
        assert!(!def.covers(&[0, 1]));
    }

    #[test]
    fn covered_row_projection() {
        let (_, heap) = setup();
        let idx = BuiltIndex::build(IndexDef::new("i", TableId(0), vec![1], vec![2]), &heap);
        let projected = idx.covered_row(&heap[5]);
        assert_eq!(projected, vec![Value::Int(5), Value::str("n5")]);
    }

    #[test]
    fn empty_prefix_scans_everything() {
        let (_, heap) = setup();
        let idx = BuiltIndex::build(IndexDef::new("i", TableId(0), vec![0], vec![]), &heap);
        let rows = idx.seek(&KeyRange::eq(vec![]));
        assert_eq!(rows.len(), 100);
    }

    #[test]
    fn byte_size_counts_keys_and_pointers() {
        let (_, heap) = setup();
        let idx = BuiltIndex::build(IndexDef::new("i_grp", TableId(0), vec![1], vec![]), &heap);
        // 10 distinct grp keys (8 bytes each + 16 overhead) + 100 pointers.
        assert_eq!(idx.byte_size(), 10 * (8 + 16) + 100 * 4);
    }

    #[test]
    fn include_columns_do_not_change_actual_size() {
        // Included columns are projected from the heap at read time; the
        // built structure is identical with or without them. The *estimate*
        // charges their width per row — the divergence behind the
        // `built_bytes` accounting bug.
        let (_, heap) = setup();
        let plain = BuiltIndex::build(IndexDef::new("a", TableId(0), vec![1], vec![]), &heap);
        let covering =
            BuiltIndex::build(IndexDef::new("b", TableId(0), vec![1], vec![0, 2]), &heap);
        assert_eq!(plain.byte_size(), covering.byte_size());
    }

    #[test]
    fn checksums_catch_posting_damage() {
        let (_, heap) = setup();
        let mut idx = BuiltIndex::build(IndexDef::new("i_grp", TableId(0), vec![1], vec![]), &heap);
        assert!(idx.verify_checksums("t").is_ok());
        assert!(idx.corrupt_entry(3));
        match idx.verify_checksums("t").unwrap_err() {
            RelError::Corrupted {
                kind,
                table,
                structure,
                page,
            } => {
                assert_eq!(kind, StructureKind::Index);
                assert_eq!(table, "t");
                assert_eq!(structure, "i_grp");
                // The slot of the damaged entry's key (grp = 3).
                let slot = mix(key_hash(&[Value::Int(3)])) % CHECKSUM_SLOTS as u64;
                assert_eq!(page, slot as usize);
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        assert!(!idx.corrupt_entry(10_000));
    }

    #[test]
    fn empty_index_verifies_clean() {
        let idx = BuiltIndex::build(IndexDef::new("i", TableId(0), vec![0], vec![]), &[]);
        assert_eq!(idx.pages(), 0);
        assert!(idx.verify_checksums("t").is_ok());
        let mut idx = idx;
        assert!(!idx.corrupt_entry(0));
    }

    #[test]
    fn size_estimate_positive() {
        let (def, heap) = setup();
        let stats = crate::stats::TableStats {
            rows: heap.len() as u64,
            columns: (0..3)
                .map(|c| crate::stats::ColumnStats::build(heap.iter().map(|r| r[c].clone())))
                .collect(),
        };
        let idx = IndexDef::new("i", TableId(0), vec![0], vec![2]);
        let bytes = idx.estimated_bytes(&def, &stats);
        assert!(bytes > 100.0 * 16.0);
    }
}

#[cfg(test)]
mod clustered_tests {
    use super::*;
    use crate::catalog::{ColumnDef, TableDef};
    use crate::stats::{ColumnStats, TableStats};
    use crate::types::DataType;

    fn setup() -> (TableDef, TableStats) {
        let def = TableDef::new(
            "t",
            vec![
                ColumnDef::new("ID", DataType::Int),
                ColumnDef::new("grp", DataType::Int),
                ColumnDef::new("payload", DataType::Str).with_width(80),
            ],
        );
        let stats = TableStats {
            rows: 10_000,
            columns: vec![
                ColumnStats::synthetic_uniform_int(10_000, 0, 9_999),
                ColumnStats::synthetic_uniform_int(10_000, 0, 99),
                ColumnStats::build((0..10_000).map(|_| Value::str("x".repeat(80)))),
            ],
        };
        (def, stats)
    }

    #[test]
    fn clustered_covers_everything() {
        let def = IndexDef::new("cx", TableId(0), vec![1], vec![]).clustered();
        assert!(def.covers(&[0, 1, 2]));
        let plain = IndexDef::new("ix", TableId(0), vec![1], vec![]);
        assert!(!plain.covers(&[0, 1, 2]));
    }

    #[test]
    fn clustered_entry_is_full_row() {
        let (table, stats) = setup();
        let clustered = IndexDef::new("cx", TableId(0), vec![1], vec![]).clustered();
        let plain = IndexDef::new("ix", TableId(0), vec![1], vec![]);
        assert!(clustered.entry_width(&table, &stats) > plain.entry_width(&table, &stats));
    }

    #[test]
    fn clustered_budget_charge_is_small() {
        let (table, stats) = setup();
        let clustered = IndexDef::new("cx", TableId(0), vec![1], vec![]).clustered();
        let covering = IndexDef::new("ix", TableId(0), vec![1], vec![0, 2]);
        // The clustered index reorganizes the heap instead of copying it.
        assert!(
            clustered.estimated_bytes(&table, &stats)
                < covering.estimated_bytes(&table, &stats) / 10.0
        );
    }

    #[test]
    fn two_clustered_on_one_table_rejected() {
        use crate::db::Database;
        use crate::optimizer::PhysicalConfig;
        let mut db = Database::new();
        let t = db
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("ID", DataType::Int),
                    ColumnDef::new("grp", DataType::Int),
                ],
            ))
            .unwrap();
        let config = PhysicalConfig {
            indexes: vec![
                IndexDef::new("c1", t, vec![0], vec![]).clustered(),
                IndexDef::new("c2", t, vec![1], vec![]).clustered(),
            ],
            views: vec![],
        };
        assert!(db.apply_config(&config).is_err());
    }
}
