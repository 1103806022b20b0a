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
use crate::error::{RelResult, StructureKind};
use crate::stats::TableStats;
use crate::storage::{row_width, SlotSums};
use crate::types::{Row, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A map on join keys. Not `FxHashMap`: its hash of an integer-valued
/// `Value` has constant low bits, the bits that pick a bucket, so parent
/// ids would all probe one bucket run.
type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// Bytes a view row spends on its two recorded heap positions.
const POSITIONS_WIDTH: usize = 8;

/// A view row's heap positions, `(left, right)`: its checksum identity.
fn position_identity((left, right): (u32, u32)) -> u64 {
    u64::from(left) << 32 | u64::from(right)
}

/// Hash of one materialized row and its positions, xor-folded into its
/// slot's checksum.
fn view_row_hash(positions: (u32, u32), row: &[Value]) -> u64 {
    let mut hasher = DefaultHasher::new();
    positions.hash(&mut hasher);
    row.len().hash(&mut hasher);
    for value in row {
        value.hash(&mut hasher);
    }
    hasher.finish()
}

/// One side of a delta join: `rows[..old]` were joined before and are
/// reached through the view's key chains; `new` follow them, at positions
/// `old..`.
pub(crate) struct JoinSide<'a> {
    rows: &'a [Row],
    pub(crate) old: usize,
    new: Vec<&'a Row>,
}

impl<'a> JoinSide<'a> {
    /// A side whose first `old` rows of `rows` were joined and `new` rows
    /// follow (a heap's own tail, or a transaction's pending rows).
    pub(crate) fn new(rows: &'a [Row], old: usize, new: Vec<&'a Row>) -> Self {
        JoinSide { rows, old, new }
    }

    /// A heap that grew past `from` rows.
    fn grown(rows: &'a [Row], from: usize) -> Self {
        JoinSide::new(rows, from, rows[from.min(rows.len())..].iter().collect())
    }
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

/// A materialized view: its definition plus the joined rows, each keyed
/// by the heap positions it was joined from.
///
/// The view always equals a full build over the heaps it was maintained
/// from: `BuiltView::extend` inserts a delta join of the rows the heaps
/// gained, probing the other side through per-side join-key chains. Rows
/// carry xor checksums in slots picked by their positions (see
/// [`SlotSums`]), so seeded corruption is detectable before a view scan can
/// return damaged rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltView {
    /// Definition.
    pub def: ViewDef,
    /// Materialized rows keyed by their `(left, right)` heap positions, so
    /// they iterate in the order of a full build. A row is visible under a
    /// snapshot iff both positions are below its watermarks.
    pub rows: BTreeMap<(u32, u32), Row>,
    /// Bytes of the materialized rows: what a scan reads.
    row_bytes: usize,
    /// Xor of row hashes per slot, maintained on insert.
    sums: SlotSums,
    /// Each side's join keys: the delta join's probe tables.
    left_keys: KeyChains,
    right_keys: KeyChains,
}

impl BuiltView {
    /// Materialize the view from the two table heaps.
    pub fn build(def: ViewDef, left_rows: &[Row], right_rows: &[Row]) -> Self {
        let mut view = BuiltView {
            def,
            rows: BTreeMap::new(),
            row_bytes: 0,
            sums: SlotSums::default(),
            left_keys: KeyChains::default(),
            right_keys: KeyChains::default(),
        };
        view.extend(left_rows, 0, right_rows, 0);
        view
    }

    /// Bring the view from heaps of `left_from` / `right_from` rows up to
    /// `left_rows` / `right_rows`: O(d log n) for a delta join of `d` rows,
    /// wherever in the view they land. Bit-identical to a full build over
    /// the grown heaps.
    pub(crate) fn extend(
        &mut self,
        left_rows: &[Row],
        left_from: usize,
        right_rows: &[Row],
        right_from: usize,
    ) {
        let delta = self.delta_join(
            &JoinSide::grown(left_rows, left_from),
            &JoinSide::grown(right_rows, right_from),
        );
        self.left_keys.note(left_rows, left_from, self.def.left_col);
        self.right_keys
            .note(right_rows, right_from, self.def.right_col);
        for (positions, row) in &delta {
            self.row_bytes += row_width(row);
            let identity = position_identity(*positions);
            self.sums.fold(identity, view_row_hash(*positions, row));
        }
        if self.rows.is_empty() {
            // A fresh build: a sorted run bulk-loads in linear time.
            self.rows = delta.into_iter().collect();
        } else {
            self.rows.extend(delta);
        }
    }

    /// The rows `(old ++ new left) ⋈ (old ++ new right)` adds to
    /// `old left ⋈ old right`, each with its positions, in (left, right)
    /// order. Old rows are found through the key chains, clamped below `old`.
    pub(crate) fn delta_join(&self, left: &JoinSide, right: &JoinSide) -> Vec<((u32, u32), Row)> {
        let mut new_right: KeyMap<&Value, Vec<usize>> = KeyMap::default();
        for (j, row) in right.new.iter().enumerate() {
            let key = &row[self.def.right_col];
            if !key.is_null() {
                new_right.entry(key).or_default().push(j);
            }
        }
        let mut out = Vec::new();
        for (i, &l_row) in left.new.iter().enumerate() {
            let key = &l_row[self.def.left_col];
            if key.is_null() {
                continue;
            }
            let l = (left.old + i) as u32;
            for r in self.right_keys.below(key, right.old) {
                out.push(((l, r), self.project(l_row, &right.rows[r as usize])));
            }
            for &j in new_right.get(key).map_or(&[][..], Vec::as_slice) {
                let r = (right.old + j) as u32;
                out.push(((l, r), self.project(l_row, right.new[j])));
            }
        }
        for (j, &r_row) in right.new.iter().enumerate() {
            let key = &r_row[self.def.right_col];
            if key.is_null() {
                continue;
            }
            let r = (right.old + j) as u32;
            for l in self.left_keys.below(key, left.old) {
                out.push(((l, r), self.project(&left.rows[l as usize], r_row)));
            }
        }
        out.sort_by_key(|(positions, _)| *positions);
        out
    }

    /// The view row joining `left` and `right`.
    fn project(&self, left: &Row, right: &Row) -> Row {
        (self.def.outputs.iter())
            .map(|&(side, c)| match side {
                ViewSide::Left => left[c].clone(),
                ViewSide::Right => right[c].clone(),
            })
            .collect()
    }

    /// Recompute every slot checksum from the rows and compare against the
    /// maintained sums; a mismatch names its slot as the page. `table`
    /// names the view's left (parent) table in the error. O(rows); the
    /// executor only calls this when a fault plane is active.
    pub fn verify_checksums(&self, table: &str) -> RelResult<()> {
        let mut fresh = SlotSums::default();
        for (&positions, row) in &self.rows {
            fresh.fold(position_identity(positions), view_row_hash(positions, row));
        }
        self.sums
            .verify(&fresh, StructureKind::View, table, &self.def.name)
    }

    /// Damage materialized row `idx` for corruption testing, without
    /// touching the stored checksums. Returns false when out of range.
    pub fn corrupt_row(&mut self, idx: usize) -> bool {
        let Some(row) = self.rows.values_mut().nth(idx) else {
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

    /// Pages a scan reads: the rows' bytes.
    pub fn pages(&self) -> usize {
        crate::storage::pages_for_bytes(self.row_bytes)
    }

    /// Bytes the view stores (what a space budget is enforced against):
    /// its rows and their recorded positions. The key chains are left out:
    /// they are maintenance state derived from the heaps, outside the
    /// design the advisor prices (`ViewDef::estimated_bytes`).
    pub fn byte_size(&self) -> usize {
        self.row_bytes + POSITIONS_WIDTH * self.rows.len()
    }
}

/// One side's join keys as chains: `heads[key]` is the newest position
/// with that key and `prev[p]` the one before `p` (`NONE` ends a chain),
/// so noting a row costs no allocation of its own.
#[derive(Debug, Clone, Default, PartialEq)]
struct KeyChains {
    heads: KeyMap<Value, u32>,
    prev: Vec<u32>,
}

/// The end of a key chain.
const NONE: u32 = u32::MAX;

impl KeyChains {
    /// Chain the join keys (column `col`) of `rows[from..]`; `from` is the
    /// number of rows noted so far.
    fn note(&mut self, rows: &[Row], from: usize, col: usize) {
        for (position, row) in rows.iter().enumerate().skip(from) {
            let key = &row[col];
            let prev = (!key.is_null()).then(|| self.heads.insert(key.clone(), position as u32));
            self.prev.push(prev.flatten().unwrap_or(NONE));
        }
    }

    /// The positions with join key `key` below `below`, newest first.
    fn below(&self, key: &Value, below: usize) -> impl Iterator<Item = u32> + '_ {
        let head = self.heads.get(key).copied();
        let chain = std::iter::successors(head, |&p| {
            Some(self.prev[p as usize]).filter(|&q| q != NONE)
        });
        chain.skip_while(move |&p| p as usize >= below)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RelError;
    use crate::storage::{mix, CHECKSUM_SLOTS};

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
            view.rows[&(0, 0)],
            vec![Value::Int(1), Value::str("a"), Value::str("x")]
        );
        assert!(view.byte_size() > 0);
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
                // The slot of the damaged row's positions: left 7, right 7.
                let slot = mix(position_identity((7, 7))) % CHECKSUM_SLOTS as u64;
                assert_eq!(page, slot as usize);
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
