//! Materialized join views.
//!
//! The physical design tool may recommend a materialized view that
//! pre-computes the parent ⋈ child join produced by the sorted outer union.
//! A view is applicable to a query branch when the branch joins exactly the
//! view's two tables on the view's join columns and references only columns
//! the view exposes. (The paper's Section 3.2 contrasts such join views with
//! the repetition-split transformation, which avoids the parent-side
//! redundancy a join view carries.)

use crate::catalog::{TableDef, TableId};
use crate::cost::PAGE_SIZE;
use crate::error::{RelError, RelResult, StructureKind};
use crate::stats::TableStats;
use crate::types::{Row, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Order-insensitive hash of one materialized row, xor-folded into its
/// page's checksum (same scheme as the row heap's).
fn view_row_hash(row: &[Value]) -> u64 {
    let mut hasher = DefaultHasher::new();
    row.len().hash(&mut hasher);
    for value in row {
        value.hash(&mut hasher);
    }
    hasher.finish()
}

/// Which side of the join a view output column comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewSide {
    /// The left (parent) table.
    Left,
    /// The right (child) table.
    Right,
}

/// Definition of a two-table equi-join materialized view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViewDef {
    /// View name (unique within the database).
    pub name: String,
    /// Left (parent) table.
    pub left: TableId,
    /// Right (child) table.
    pub right: TableId,
    /// Join column on the left table.
    pub left_col: usize,
    /// Join column on the right table.
    pub right_col: usize,
    /// Output columns, in order.
    pub outputs: Vec<(ViewSide, usize)>,
}

impl ViewDef {
    /// Position of `(side, col)` in the view output, if exposed.
    pub fn output_position(&self, side: ViewSide, col: usize) -> Option<usize> {
        self.outputs
            .iter()
            .position(|&(s, c)| s == side && c == col)
    }

    /// True when the view exposes every `(side, col)` in `needed`.
    pub fn exposes(&self, needed: &[(ViewSide, usize)]) -> bool {
        needed
            .iter()
            .all(|&(s, c)| self.output_position(s, c).is_some())
    }

    /// Estimated size in bytes: join output rows x output width. For the
    /// PID-joins the translator emits, output rows equal the child row count.
    pub fn estimated_bytes(
        &self,
        left_def: &TableDef,
        left_stats: &TableStats,
        right_def: &TableDef,
        right_stats: &TableStats,
    ) -> f64 {
        let col_width = |side: ViewSide, c: usize| -> f64 {
            let (def, stats) = match side {
                ViewSide::Left => (left_def, left_stats),
                ViewSide::Right => (right_def, right_stats),
            };
            stats
                .columns
                .get(c)
                .map(|s| s.avg_width.max(1.0))
                .unwrap_or(def.columns[c].avg_width as f64)
        };
        let width: f64 = 8.0
            + self
                .outputs
                .iter()
                .map(|&(s, c)| col_width(s, c))
                .sum::<f64>();
        right_stats.rows as f64 * width
    }
}

/// A materialized view: its definition plus the joined rows.
///
/// The materialization carries per-page xor checksums over its rows (the
/// same layout accounting as [`BuiltView::byte_size`]), captured once at
/// build, so seeded corruption is detectable before a view scan can return
/// damaged rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltView {
    /// Definition.
    pub def: ViewDef,
    /// Materialized rows in left-table order.
    pub rows: Vec<Row>,
    /// Byte size of the materialization.
    pub byte_size: usize,
    /// Per-page xor of row hashes, derived once at build.
    page_sums: Vec<u64>,
}

impl BuiltView {
    /// Materialize the view from the two table heaps.
    pub fn build(def: ViewDef, left_rows: &[Row], right_rows: &[Row]) -> Self {
        use rustc_hash::FxHashMap;
        // Hash the right side on its join column.
        let mut right_by_key: FxHashMap<crate::types::Value, Vec<&Row>> = FxHashMap::default();
        for row in right_rows {
            let key = row[def.right_col].clone();
            if !key.is_null() {
                right_by_key.entry(key).or_default().push(row);
            }
        }
        let mut rows = Vec::new();
        let mut byte_size = 0usize;
        for left in left_rows {
            let key = &left[def.left_col];
            if key.is_null() {
                continue;
            }
            if let Some(matches) = right_by_key.get(key) {
                for right in matches {
                    let row: Row = def
                        .outputs
                        .iter()
                        .map(|&(side, c)| match side {
                            ViewSide::Left => left[c].clone(),
                            ViewSide::Right => right[c].clone(),
                        })
                        .collect();
                    byte_size += crate::storage::row_width(&row);
                    rows.push(row);
                }
            }
        }
        let page_sums = Self::compute_page_sums(&rows);
        BuiltView {
            def,
            rows,
            byte_size,
            page_sums,
        }
    }

    /// Per-page xor of row hashes in materialization order.
    fn compute_page_sums(rows: &[Row]) -> Vec<u64> {
        let mut sums = Vec::new();
        let mut offset = 0usize;
        for row in rows {
            let page = offset / PAGE_SIZE;
            if page >= sums.len() {
                sums.resize(page + 1, 0);
            }
            sums[page] ^= view_row_hash(row);
            offset += crate::storage::row_width(row);
        }
        sums
    }

    /// Recompute every page checksum and compare against the sums captured
    /// at build. `table` names the view's left (parent) table in the error.
    /// O(rows); the executor only calls this when a fault plane is active.
    pub fn verify_checksums(&self, table: &str) -> RelResult<()> {
        let fresh = Self::compute_page_sums(&self.rows);
        if fresh.len() != self.page_sums.len() {
            return Err(RelError::corrupted(
                StructureKind::View,
                table,
                self.def.name.clone(),
                fresh.len().min(self.page_sums.len()),
            ));
        }
        for (page, (a, b)) in fresh.iter().zip(&self.page_sums).enumerate() {
            if a != b {
                return Err(RelError::corrupted(
                    StructureKind::View,
                    table,
                    self.def.name.clone(),
                    page,
                ));
            }
        }
        Ok(())
    }

    /// Damage materialized row `idx` for corruption testing, without
    /// touching the stored checksums. Returns false when out of range.
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
                    let flipped = if s.starts_with('~') { "!" } else { "~" };
                    *value = Value::str(format!("{flipped}{s}"));
                    return true;
                }
                Value::Null => {}
            }
        }
        match row.first_mut() {
            Some(first) => {
                *first = Value::Int(0);
                true
            }
            None => false,
        }
    }

    /// Pages occupied by the materialization.
    pub fn pages(&self) -> usize {
        crate::storage::pages_for_bytes(self.byte_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn sample_def() -> ViewDef {
        ViewDef {
            name: "v".into(),
            left: TableId(0),
            right: TableId(1),
            left_col: 0,
            right_col: 1,
            outputs: vec![
                (ViewSide::Left, 0),
                (ViewSide::Left, 1),
                (ViewSide::Right, 2),
            ],
        }
    }

    #[test]
    fn exposes_and_positions() {
        let def = sample_def();
        assert_eq!(def.output_position(ViewSide::Right, 2), Some(2));
        assert_eq!(def.output_position(ViewSide::Right, 0), None);
        assert!(def.exposes(&[(ViewSide::Left, 1), (ViewSide::Right, 2)]));
        assert!(!def.exposes(&[(ViewSide::Right, 5)]));
    }

    #[test]
    fn materialization_joins() {
        let def = sample_def();
        let left = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
        ];
        let right = vec![
            vec![Value::Int(10), Value::Int(1), Value::str("x")],
            vec![Value::Int(11), Value::Int(1), Value::str("y")],
            vec![Value::Int(12), Value::Int(9), Value::str("z")],
        ];
        let view = BuiltView::build(def, &left, &right);
        assert_eq!(view.rows.len(), 2);
        assert_eq!(
            view.rows[0],
            vec![Value::Int(1), Value::str("a"), Value::str("x")]
        );
        assert!(view.byte_size > 0);
    }

    #[test]
    fn checksums_catch_row_damage() {
        let def = sample_def();
        let left: Vec<Row> = (0..200)
            .map(|i| vec![Value::Int(i), Value::str(format!("a{i}"))])
            .collect();
        let right: Vec<Row> = (0..200)
            .map(|i| {
                vec![
                    Value::Int(i + 1000),
                    Value::Int(i),
                    Value::str("x".repeat(50)),
                ]
            })
            .collect();
        let mut view = BuiltView::build(def, &left, &right);
        assert!(view.verify_checksums("parent").is_ok());
        assert!(view.corrupt_row(7));
        match view.verify_checksums("parent").unwrap_err() {
            RelError::Corrupted {
                kind,
                table,
                structure,
                page,
            } => {
                assert_eq!(kind, StructureKind::View);
                assert_eq!(table, "parent");
                assert_eq!(structure, "v");
                assert_eq!(page, 0);
            }
            other => panic!("expected corruption, got {other:?}"),
        }
        assert!(!view.corrupt_row(10_000));
    }

    #[test]
    fn empty_view_verifies_clean() {
        let view = BuiltView::build(sample_def(), &[], &[]);
        assert!(view.verify_checksums("parent").is_ok());
    }

    #[test]
    fn null_join_keys_skipped() {
        let def = sample_def();
        let left = vec![vec![Value::Null, Value::str("a")]];
        let right = vec![vec![Value::Int(1), Value::Null, Value::str("x")]];
        let view = BuiltView::build(def, &left, &right);
        assert!(view.rows.is_empty());
    }
}
