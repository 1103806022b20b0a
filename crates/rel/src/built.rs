//! The built physical design: every derived structure the engine has
//! materialized, together with the configuration it was built from.
//!
//! A derived structure is a pure function of a heap prefix, so a
//! [`BuiltSet`] has one lifecycle whoever drives it: [`BuiltSet::build`]
//! from row slices — full heaps (`Database::apply_config`) or cloned
//! snapshot prefixes (`SessionDb::apply_config_online`) — touching nothing
//! but its own result; [`BuiltSet::catch_up`] from those prefixes to the
//! live heaps; then `Database::apply_built` logs the `ApplyConfig` record
//! and swaps the set in. From then on `Database::insert_rows` catches the
//! installed set up with every batch, so each structure always equals a
//! full build over the live heaps. Structures are stored in configuration
//! order, so every walk, error and report is deterministic.

use crate::catalog::{Catalog, TableId};
use crate::error::{RelError, RelResult, StructureKind};
use crate::index::{BuiltIndex, IndexDef};
use crate::optimizer::PhysicalConfig;
use crate::types::Row;
use crate::view::{BuiltView, ViewDef};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// The structures built for one [`PhysicalConfig`], each list parallel to
/// the configuration's. Equality is bit-identity: same entries, same rows,
/// same page checksums.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuiltSet {
    config: PhysicalConfig,
    indexes: Vec<BuiltIndex>,
    views: Vec<BuiltView>,
}

/// Where a structure reads a table's rows from: the live heap or a
/// snapshot prefix of it. Every table a structure names is known, since
/// configurations are validated against the catalog before any build.
pub type RowsOf<'a, 'r> = &'a dyn Fn(TableId) -> &'r [Row];

fn index_from(def: &IndexDef, rows_of: RowsOf) -> BuiltIndex {
    BuiltIndex::build(def.clone(), rows_of(def.table))
}

fn view_from(def: &ViewDef, rows_of: RowsOf) -> BuiltView {
    BuiltView::build(def.clone(), rows_of(def.left), rows_of(def.right))
}

impl BuiltSet {
    /// Materialize `config` from the rows `rows_of` hands out for each
    /// backing table. The configuration must already be validated against
    /// the catalog (see `Database::validate_config`).
    pub fn build(config: &PhysicalConfig, rows_of: RowsOf) -> BuiltSet {
        let index = |def: &IndexDef| index_from(def, rows_of);
        let view = |def: &ViewDef| view_from(def, rows_of);
        BuiltSet {
            config: config.clone(),
            indexes: config.indexes.iter().map(index).collect(),
            views: config.views.iter().map(view).collect(),
        }
    }

    /// Bring a set built from heap prefixes up to the rows `rows_of` hands
    /// out now, where `built_from(table)` is the prefix length the set was
    /// built over. Heaps are insert-only, so the delta is exactly the rows
    /// past each watermark: indexes append them in heap order and views add
    /// their delta join, both in O(delta) and bit-identical to a full
    /// build. Returns the rows appended to indexes.
    pub fn catch_up(&mut self, rows_of: RowsOf, built_from: &dyn Fn(TableId) -> usize) -> usize {
        let mut delta_rows = 0;
        for built in &mut self.indexes {
            let (rows, from) = (rows_of(built.def.table), built_from(built.def.table));
            if rows.len() > from {
                delta_rows += rows.len() - from;
                built.extend_from(rows, from);
            }
        }
        for built in &mut self.views {
            let (left, right) = (rows_of(built.def.left), rows_of(built.def.right));
            let (left_from, right_from) = (built_from(built.def.left), built_from(built.def.right));
            if left.len() > left_from || right.len() > right_from {
                built.extend(left, left_from, right, right_from);
            }
        }
        delta_rows
    }

    /// Re-derive one structure in place (the repair half of quarantine),
    /// once `verify` passes each backing table. Heaps are repaired from the
    /// log, never rebuilt.
    pub fn rebuild_one(
        &mut self,
        kind: StructureKind,
        name: &str,
        rows_of: RowsOf,
        verify: &dyn Fn(TableId) -> RelResult<()>,
    ) -> RelResult<()> {
        let unknown = || RelError::UnknownIndex(name.to_string());
        match kind {
            StructureKind::Index => {
                let built = self.index_mut(name).ok_or_else(unknown)?;
                verify(built.def.table)?;
                *built = index_from(&built.def, rows_of);
            }
            StructureKind::View => {
                let built = self.view_mut(name).ok_or_else(unknown)?;
                verify(built.def.left)?;
                verify(built.def.right)?;
                *built = view_from(&built.def, rows_of);
            }
            StructureKind::Heap => return Err(RelError::UnknownTable(name.to_string())),
        }
        Ok(())
    }

    /// Verify every structure's stored checksums, handing each result to
    /// `note`. Errors name the owning base table (a view's left table).
    pub fn verify_each(
        &self,
        catalog: &Catalog,
        mut note: impl FnMut(StructureKind, RelResult<()>),
    ) {
        let name = |table: TableId| catalog.try_table(table).map_or("", |def| def.name.as_str());
        for built in &self.indexes {
            let result = built.verify_checksums(name(built.def.table));
            note(StructureKind::Index, result);
        }
        for built in &self.views {
            let result = built.verify_checksums(name(built.def.left));
            note(StructureKind::View, result);
        }
    }

    /// The configuration the planner may use: the built one minus
    /// `quarantined` structures. Every statement plans against it, whatever
    /// its snapshot or pending rows, since every structure answers for
    /// both. Borrowed when nothing is quarantined.
    pub fn planning_config(
        &self,
        quarantined: &BTreeSet<(StructureKind, String)>,
    ) -> Cow<'_, PhysicalConfig> {
        if quarantined.is_empty() {
            return Cow::Borrowed(&self.config);
        }
        let usable = |kind: StructureKind, name: &str| {
            !quarantined.iter().any(|(k, n)| *k == kind && n == name)
        };
        let mut config = self.config.clone();
        config
            .indexes
            .retain(|def| usable(StructureKind::Index, &def.name));
        config
            .views
            .retain(|def| usable(StructureKind::View, &def.name));
        Cow::Owned(config)
    }

    /// Measured bytes of the built indexes and views (what a space budget
    /// is enforced against).
    pub fn bytes(&self) -> usize {
        let index_bytes: usize = self.indexes.iter().map(BuiltIndex::byte_size).sum();
        let view_bytes: usize = self.views.iter().map(BuiltView::byte_size).sum();
        index_bytes + view_bytes
    }

    /// The configuration this set was built from.
    pub fn config(&self) -> &PhysicalConfig {
        &self.config
    }

    /// A built index by name.
    pub fn index(&self, name: &str) -> Option<&BuiltIndex> {
        self.indexes.iter().find(|built| built.def.name == name)
    }

    /// A built view by name.
    pub fn view(&self, name: &str) -> Option<&BuiltView> {
        self.views.iter().find(|built| built.def.name == name)
    }

    /// Mutable index access, for corruption tests.
    pub fn index_mut(&mut self, name: &str) -> Option<&mut BuiltIndex> {
        self.indexes.iter_mut().find(|built| built.def.name == name)
    }

    /// Mutable view access, for corruption tests.
    pub fn view_mut(&mut self, name: &str) -> Option<&mut BuiltView> {
        self.views.iter_mut().find(|built| built.def.name == name)
    }
}
