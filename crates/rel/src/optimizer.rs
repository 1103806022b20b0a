//! Cost-based plan selection.
//!
//! For each `UNION ALL` branch the optimizer chooses:
//!
//! * an access path per table occurrence — sequential scan, index seek on an
//!   equality prefix + optional range, or a covering-index scan,
//! * a join order (exhaustive for the ≤4-way joins the translation emits)
//!   and per-step algorithm — hash join vs index nested loop,
//! * or a materialized-view scan replacing the whole branch.
//!
//! Plans are costed against a [`PhysicalConfig`] of *available* indexes and
//! views, which may be hypothetical — this is the what-if interface the
//! tuning-wizard analog in `xmlshred-core` drives.

use crate::catalog::{Catalog, TableId};
use crate::cost::{
    hash_join_cost, index_seek_cost, seq_scan_cost, sort_cost, BTREE_DESCENT_COST, CPU_PRED_COST,
    CPU_TUPLE_COST, PAGE_SIZE, RANDOM_PAGE_COST, SEQ_PAGE_COST,
};
use crate::error::{RelError, RelResult};
use crate::expr::{Filter, FilterOp};
use crate::index::{IndexDef, KeyRange};
use crate::plan::{Access, BranchPlan, JoinAlgo, JoinNode, QueryPlan, ScanNode, ViewOutput};
use crate::sql::{Output, SelectQuery, SqlQuery};
use crate::stats::TableStats;
use crate::view::{ViewDef, ViewSide};
use std::ops::Bound;

/// A set of physical design structures available to the optimizer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhysicalConfig {
    /// Available indexes (hypothetical or built).
    pub indexes: Vec<IndexDef>,
    /// Available materialized views.
    pub views: Vec<ViewDef>,
}

impl PhysicalConfig {
    /// An empty configuration (base tables only).
    pub fn none() -> Self {
        PhysicalConfig::default()
    }

    /// Indexes defined on `table`.
    pub fn indexes_on(&self, table: TableId) -> impl Iterator<Item = &IndexDef> {
        self.indexes.iter().filter(move |i| i.table == table)
    }

    /// Every table a structure of this configuration is built from, each
    /// once, in first-reference order (indexes, then views).
    pub fn backing_tables(&self) -> Vec<TableId> {
        let indexed = self.indexes.iter().map(|def| def.table);
        let joined = self.views.iter().flat_map(|def| [def.left, def.right]);
        let mut tables: Vec<TableId> = Vec::new();
        for table in indexed.chain(joined) {
            if !tables.contains(&table) {
                tables.push(table);
            }
        }
        tables
    }

    /// Merge another configuration in (deduplicating by name).
    pub fn merge(&mut self, other: &PhysicalConfig) {
        for idx in &other.indexes {
            if !self.indexes.iter().any(|i| i.name == idx.name) {
                self.indexes.push(idx.clone());
            }
        }
        for view in &other.views {
            if !self.views.iter().any(|v| v.name == view.name) {
                self.views.push(view.clone());
            }
        }
    }
}

/// Per-table view of a configuration, built once per `plan_query` call so
/// hot loops don't rescan the full index list.
struct ConfigIndex<'a> {
    by_table: rustc_hash::FxHashMap<TableId, Vec<&'a IndexDef>>,
    views: &'a [ViewDef],
}

impl<'a> ConfigIndex<'a> {
    fn new(config: &'a PhysicalConfig) -> Self {
        let mut by_table: rustc_hash::FxHashMap<TableId, Vec<&'a IndexDef>> =
            rustc_hash::FxHashMap::default();
        for idx in &config.indexes {
            by_table.entry(idx.table).or_default().push(idx);
        }
        ConfigIndex {
            by_table,
            views: &config.views,
        }
    }

    fn on(&self, table: TableId) -> &[&'a IndexDef] {
        self.by_table.get(&table).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Plan a whole query.
pub fn plan_query(
    catalog: &Catalog,
    stats: &[TableStats],
    config: &PhysicalConfig,
    query: &SqlQuery,
) -> RelResult<QueryPlan> {
    query.validate(catalog)?;
    let index = ConfigIndex::new(config);
    let mut branches = Vec::new();
    let mut total_cost = 0.0;
    let mut total_rows = 0.0;
    for select in query.branches() {
        let branch = plan_select_indexed(catalog, stats, &index, select)?;
        total_cost += branch.est_cost();
        total_rows += branch.est_rows();
        branches.push(branch);
    }
    let order_by = match query {
        SqlQuery::Union(u) => u.order_by.clone(),
        SqlQuery::Select(_) => Vec::new(),
    };
    if !order_by.is_empty() {
        total_cost += sort_cost(total_rows);
    }
    Ok(QueryPlan {
        branches,
        order_by,
        est_cost: total_cost,
        epoch: 0,
    })
}

/// Deterministic accounting of the search space one [`plan_query`] call
/// enumerates. The counts mirror the planner's enumeration loops —
/// `best_access` costs a sequential scan plus one path per index on the
/// table, the pipeline planner tries every join order for up to four
/// occurrences (one fixed order beyond), and view substitution checks
/// every materialized view on two-table joins — so the profile is a pure
/// function of `(query, config)`, identical for any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanProfile {
    /// Select branches planned.
    pub branches: u64,
    /// Access paths costed across all (branch, table occurrence) pairs.
    pub access_paths_considered: u64,
    /// Join orders enumerated across all branches.
    pub join_orders_considered: u64,
    /// Materialized views checked for substitution.
    pub views_considered: u64,
}

/// Plan a whole query and report the size of the enumerated search space.
pub fn plan_query_profiled(
    catalog: &Catalog,
    stats: &[TableStats],
    config: &PhysicalConfig,
    query: &SqlQuery,
) -> RelResult<(QueryPlan, PlanProfile)> {
    let plan = plan_query(catalog, stats, config, query)?;
    let mut profile = PlanProfile::default();
    for select in query.branches() {
        profile.branches += 1;
        let n = select.tables.len();
        profile.join_orders_considered += if n <= 4 { (1..=n as u64).product() } else { 1 };
        for &table in &select.tables {
            let indexes = config.indexes.iter().filter(|i| i.table == table).count() as u64;
            profile.access_paths_considered += 1 + indexes;
        }
        if n == 2 && select.joins.len() == 1 {
            profile.views_considered += config.views.len() as u64;
        }
    }
    Ok((plan, profile))
}

/// Plan one select block.
pub fn plan_select(
    catalog: &Catalog,
    stats: &[TableStats],
    config: &PhysicalConfig,
    query: &SelectQuery,
) -> RelResult<BranchPlan> {
    query.validate(catalog)?;
    let index = ConfigIndex::new(config);
    plan_select_indexed(catalog, stats, &index, query)
}

fn plan_select_indexed(
    catalog: &Catalog,
    stats: &[TableStats],
    index: &ConfigIndex<'_>,
    query: &SelectQuery,
) -> RelResult<BranchPlan> {
    let pipeline = plan_pipeline(catalog, stats, index, query)?;
    match plan_view_scan(catalog, stats, index, query) {
        Some(view_plan) if view_plan.est_cost() < pipeline.est_cost() => Ok(view_plan),
        _ => Ok(pipeline),
    }
}

/// Estimated total size in bytes of a configuration's structures.
/// Structures referencing tables outside the catalog contribute nothing.
pub fn config_bytes(catalog: &Catalog, stats: &[TableStats], config: &PhysicalConfig) -> f64 {
    let mut total = 0.0;
    for idx in &config.indexes {
        if let Ok(def) = catalog.try_table(idx.table) {
            total += idx.estimated_bytes(def, stats_for(stats, idx.table));
        }
    }
    for view in &config.views {
        if let (Ok(left), Ok(right)) = (catalog.try_table(view.left), catalog.try_table(view.right))
        {
            total += view.estimated_bytes(
                left,
                stats_for(stats, view.left),
                right,
                stats_for(stats, view.right),
            );
        }
    }
    total
}

/// Statistics for one table, falling back to empty stats when the slice is
/// shorter than the catalog (e.g. an unanalyzed database). Empty stats give
/// zero rows and neutral selectivities rather than a panic.
fn stats_for(stats: &[TableStats], table: TableId) -> &TableStats {
    static EMPTY: TableStats = TableStats {
        rows: 0,
        columns: Vec::new(),
    };
    stats.get(table.index()).unwrap_or(&EMPTY)
}

// ---------------------------------------------------------------------------
// Fingerprinting (what-if plan-cache keys)
// ---------------------------------------------------------------------------
//
// The advisor memoizes what-if costs under the key
// `(context fingerprint, configuration fingerprint, query fingerprint)`.
// All three are 64-bit Fx hashes: the planner is a pure function of
// (catalog, stats, config, query), so equal fingerprints — modulo the
// negligible 64-bit collision probability, which a debug-mode differential
// check in the cache guards — imply equal plans.

/// Stable Fx hash of any hashable value.
fn fx_hash<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    use std::hash::Hasher;
    let mut hasher = rustc_hash::FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Fingerprint of the empty configuration — the seed every incremental
/// chain starts from.
pub const EMPTY_CONFIG_FINGERPRINT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Order-dependent combination: the fingerprint of a configuration after
/// appending one more structure. Appending candidates in the same order
/// always yields the same chain, which is what the tuning tool's accept
/// loop does.
pub fn extend_fingerprint(config_fp: u64, addition_fp: u64) -> u64 {
    (config_fp.rotate_left(5) ^ addition_fp).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Fingerprint of one index definition.
pub fn index_fingerprint(def: &IndexDef) -> u64 {
    fx_hash(&(1u8, def))
}

/// Fingerprint of one view definition.
pub fn view_fingerprint(def: &ViewDef) -> u64 {
    fx_hash(&(2u8, def))
}

/// Fingerprint of a whole configuration: the chain of its indexes, then its
/// views. Two configs holding the same structures in the same order agree.
pub fn config_fingerprint(config: &PhysicalConfig) -> u64 {
    let mut fp = EMPTY_CONFIG_FINGERPRINT;
    for idx in &config.indexes {
        fp = extend_fingerprint(fp, index_fingerprint(idx));
    }
    for view in &config.views {
        fp = extend_fingerprint(fp, view_fingerprint(view));
    }
    fp
}

/// Fingerprint of one select block.
pub fn select_fingerprint(query: &SelectQuery) -> u64 {
    fx_hash(query)
}

/// Fingerprint of a whole query.
pub fn query_fingerprint(query: &SqlQuery) -> u64 {
    fx_hash(query)
}

/// Fingerprint of the planning context: the catalog plus the statistics the
/// planner reads. Two prepared mappings with identical schemas and
/// statistics — e.g. the same logical mapping prepared twice — agree, while
/// mappings that shred differently (different tables, row counts, or value
/// distributions) do not.
pub fn context_fingerprint(catalog: &Catalog, stats: &[TableStats]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = rustc_hash::FxHasher::default();
    for (id, table) in catalog.iter() {
        id.hash(&mut hasher);
        table.name.hash(&mut hasher);
        for column in &table.columns {
            column.name.hash(&mut hasher);
            column.ty.hash(&mut hasher);
            column.nullable.hash(&mut hasher);
            column.avg_width.hash(&mut hasher);
        }
    }
    for table_stats in stats {
        table_stats.rows.hash(&mut hasher);
        for column in &table_stats.columns {
            column.rows.hash(&mut hasher);
            column.nulls.hash(&mut hasher);
            column.n_distinct.hash(&mut hasher);
            column.avg_width.to_bits().hash(&mut hasher);
            for bucket in &column.histogram {
                bucket.upper.hash(&mut hasher);
                bucket.count.hash(&mut hasher);
                bucket.distinct.hash(&mut hasher);
            }
        }
    }
    hasher.finish()
}

// ---------------------------------------------------------------------------
// Access path selection
// ---------------------------------------------------------------------------

struct AccessChoice {
    access: Access,
    est_rows: f64,
    est_cost: f64,
}

/// Selectivity of a filter set on one table. Columns without statistics
/// (unanalyzed or malformed references) contribute a neutral 1.0.
fn filters_selectivity(stats: &TableStats, filters: &[&Filter]) -> f64 {
    filters
        .iter()
        .map(|f| {
            stats
                .columns
                .get(f.column)
                .map(|c| c.selectivity(f.op, &f.value))
                .unwrap_or(1.0)
        })
        .product()
}

/// Selectivity of one filter against one column, with the same neutral
/// fallback as [`filters_selectivity`].
fn column_selectivity(
    stats: &TableStats,
    column: usize,
    op: FilterOp,
    value: &crate::types::Value,
) -> f64 {
    stats
        .columns
        .get(column)
        .map(|c| c.selectivity(op, value))
        .unwrap_or(1.0)
}

fn best_access(
    catalog: &Catalog,
    stats: &[TableStats],
    config: &ConfigIndex<'_>,
    table: TableId,
    filters: &[&Filter],
    needed: &[usize],
) -> AccessChoice {
    let table_stats = stats_for(stats, table);
    let def = catalog.table(table);
    let rows = table_stats.rows as f64;
    let pages = table_stats.pages();
    let sel_all = filters_selectivity(table_stats, filters);
    let est_rows = rows * sel_all;

    let mut best = AccessChoice {
        access: Access::SeqScan,
        est_rows,
        est_cost: seq_scan_cost(pages, rows, filters.len()),
    };

    for idx in config.on(table) {
        // Match an equality prefix of the key columns.
        let mut eq_prefix = Vec::new();
        let mut consumed_sel = 1.0;
        let mut consumed = vec![false; filters.len()];
        for &key_col in &idx.key_columns {
            let found = filters
                .iter()
                .enumerate()
                .find(|(i, f)| !consumed[*i] && f.column == key_col && f.op == FilterOp::Eq);
            match found {
                Some((i, f)) => {
                    consumed[i] = true;
                    consumed_sel *= column_selectivity(table_stats, key_col, f.op, &f.value);
                    eq_prefix.push(f.value.clone());
                }
                None => break,
            }
        }
        // Optional range on the next key column.
        let mut range: Option<(Bound<crate::types::Value>, Bound<crate::types::Value>)> = None;
        if eq_prefix.len() < idx.key_columns.len() {
            let next_col = idx.key_columns[eq_prefix.len()];
            let mut lower = Bound::Unbounded;
            let mut upper = Bound::Unbounded;
            let mut any = false;
            for (i, f) in filters.iter().enumerate() {
                if consumed[i] || f.column != next_col {
                    continue;
                }
                match f.op {
                    FilterOp::Gt => {
                        lower = Bound::Excluded(f.value.clone());
                        any = true;
                        consumed[i] = true;
                    }
                    FilterOp::Ge => {
                        lower = Bound::Included(f.value.clone());
                        any = true;
                        consumed[i] = true;
                    }
                    FilterOp::Lt => {
                        upper = Bound::Excluded(f.value.clone());
                        any = true;
                        consumed[i] = true;
                    }
                    FilterOp::Le => {
                        upper = Bound::Included(f.value.clone());
                        any = true;
                        consumed[i] = true;
                    }
                    _ => {}
                }
                if any {
                    consumed_sel *= column_selectivity(table_stats, next_col, f.op, &f.value);
                }
            }
            if any {
                range = Some((lower, upper));
            }
        }

        let covering = idx.covers(needed);
        let matched_rows = rows * consumed_sel;
        let residual_count = consumed.iter().filter(|&&c| !c).count();

        let cost = if eq_prefix.is_empty() && range.is_none() {
            // Full index scan; only worthwhile when covering and narrower
            // than the heap.
            if !covering {
                continue;
            }
            // Leaf bytes, not the budget charge (a clustered index's budget
            // charge is tiny, but scanning it reads every row).
            let index_pages =
                (rows * idx.entry_width(def, table_stats) / PAGE_SIZE as f64).max(1.0);
            index_pages * SEQ_PAGE_COST
                + rows * (CPU_TUPLE_COST + filters.len() as f64 * CPU_PRED_COST)
        } else {
            let leaf_pages = idx.leaf_pages_for(matched_rows, def, table_stats);
            let fetch_pages = if covering {
                0.0
            } else {
                crate::cost::pages_fetched(matched_rows, pages)
            };
            index_seek_cost(leaf_pages, matched_rows, fetch_pages)
                + matched_rows * residual_count as f64 * CPU_PRED_COST
        };

        if cost < best.est_cost {
            best = AccessChoice {
                access: Access::IndexSeek {
                    index: idx.name.clone(),
                    key: KeyRange { eq_prefix, range },
                    covering,
                },
                est_rows,
                est_cost: cost,
            };
        }
    }

    best
}

// ---------------------------------------------------------------------------
// Join pipelines
// ---------------------------------------------------------------------------

/// Plan the best left-deep pipeline.
fn plan_pipeline(
    catalog: &Catalog,
    stats: &[TableStats],
    config: &ConfigIndex<'_>,
    query: &SelectQuery,
) -> RelResult<BranchPlan> {
    let n = query.tables.len();
    let per_table_filters: Vec<Vec<&Filter>> = (0..n)
        .map(|t| query.filters.iter().filter(|f| f.table_ref == t).collect())
        .collect();
    let needed: Vec<Vec<usize>> = (0..n).map(|t| query.referenced_columns(t)).collect();

    let orders: Vec<Vec<usize>> = if n <= 4 {
        permutations(n)
    } else {
        vec![(0..n).collect()]
    };

    // Candidate plan plus (estimated cost, rows).
    let mut best: Option<(f64, ScanNode, Vec<JoinNode>, f64)> = None;
    'order: for order in &orders {
        let driver_ref = order[0];
        let driver_choice = best_access(
            catalog,
            stats,
            config,
            query.tables[driver_ref],
            &per_table_filters[driver_ref],
            &needed[driver_ref],
        );
        let driver = ScanNode {
            table_ref: driver_ref,
            access: driver_choice.access,
            filters: per_table_filters[driver_ref]
                .iter()
                .map(|f| (*f).clone())
                .collect(),
            est_rows: driver_choice.est_rows,
            est_cost: driver_choice.est_cost,
        };
        let mut cost = driver.est_cost;
        let mut rows = driver.est_rows;
        let mut joined = vec![driver_ref];
        let mut joins = Vec::new();

        for &occ in &order[1..] {
            // Find a join condition linking occ to the joined set.
            let cond = query.joins.iter().find_map(|j| {
                if j.right_ref == occ && joined.contains(&j.left_ref) {
                    Some((j.left_ref, j.left_col, j.right_col))
                } else if j.left_ref == occ && joined.contains(&j.right_ref) {
                    Some((j.right_ref, j.right_col, j.left_col))
                } else {
                    None
                }
            });
            let Some((outer_ref, outer_col, inner_col)) = cond else {
                continue 'order; // disconnected order: skip
            };

            let inner_table = query.tables[occ];
            let inner_stats = stats_for(stats, inner_table);
            let inner_rows_total = inner_stats.rows as f64;
            let sel_inner = filters_selectivity(inner_stats, &per_table_filters[occ]);
            let distinct = inner_stats
                .columns
                .get(inner_col)
                .map(|c| c.n_distinct)
                .unwrap_or(0)
                .max(1) as f64;
            let per_key = inner_rows_total / distinct;
            let out_rows = (rows * per_key * sel_inner).max(0.0);

            // Hash join option.
            let inner_access = best_access(
                catalog,
                stats,
                config,
                inner_table,
                &per_table_filters[occ],
                &needed[occ],
            );
            let hash_cost =
                inner_access.est_cost + hash_join_cost(inner_access.est_rows, rows, out_rows);

            // INLJ option: an index whose first key column is the join column.
            let mut inlj: Option<(f64, String, bool)> = None;
            for idx in config.on(inner_table) {
                if idx.key_columns.first() != Some(&inner_col) {
                    continue;
                }
                let mut inner_needed = needed[occ].clone();
                if !inner_needed.contains(&inner_col) {
                    inner_needed.push(inner_col);
                }
                let covering = idx.covers(&inner_needed);
                let fetch = if covering { 0.0 } else { per_key };
                let probe = BTREE_DESCENT_COST * RANDOM_PAGE_COST
                    + per_key * CPU_TUPLE_COST
                    + fetch * RANDOM_PAGE_COST
                    + per_key * per_table_filters[occ].len() as f64 * CPU_PRED_COST;
                let total = rows * probe + out_rows * CPU_TUPLE_COST;
                if inlj.as_ref().map(|(c, _, _)| total < *c).unwrap_or(true) {
                    inlj = Some((total, idx.name.clone(), covering));
                }
            }

            let inner_scan = ScanNode {
                table_ref: occ,
                access: inner_access.access,
                filters: per_table_filters[occ]
                    .iter()
                    .map(|f| (*f).clone())
                    .collect(),
                est_rows: inner_access.est_rows,
                est_cost: inner_access.est_cost,
            };
            let (algo, step_cost) = match inlj {
                Some((inlj_cost, index, covering)) if inlj_cost < hash_cost => {
                    (JoinAlgo::IndexNestedLoop { index, covering }, inlj_cost)
                }
                _ => (JoinAlgo::Hash, hash_cost),
            };
            cost += step_cost;
            rows = out_rows;
            joins.push(JoinNode {
                inner: inner_scan,
                algo,
                outer_ref,
                outer_col,
                inner_col,
                est_rows: rows,
                est_cost: cost,
            });
            joined.push(occ);
        }

        if joined.len() != n {
            continue; // disconnected query under this order
        }
        if best.as_ref().map(|(c, ..)| cost < *c).unwrap_or(true) {
            best = Some((cost, driver, joins, rows));
        }
    }

    let (cost, driver, joins, rows) = best.ok_or_else(|| {
        RelError::InvalidQuery("no connected join order found (cross joins unsupported)".into())
    })?;
    Ok(BranchPlan::Pipeline {
        tables: query.tables.clone(),
        driver,
        joins,
        outputs: query.outputs.clone(),
        est_rows: rows,
        est_cost: cost + rows * CPU_TUPLE_COST,
    })
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    permute(&mut items, 0, &mut out);
    out
}

fn permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == items.len() {
        out.push(items.clone());
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, out);
        items.swap(k, i);
    }
}

// ---------------------------------------------------------------------------
// Materialized view substitution
// ---------------------------------------------------------------------------

fn plan_view_scan(
    catalog: &Catalog,
    stats: &[TableStats],
    config: &ConfigIndex<'_>,
    query: &SelectQuery,
) -> Option<BranchPlan> {
    if query.tables.len() != 2 || query.joins.len() != 1 {
        return None;
    }
    let join = &query.joins[0];
    let mut best: Option<BranchPlan> = None;
    for view in config.views {
        // Orient the branch occurrences onto the view sides.
        let sides: Option<[ViewSide; 2]> = if query.tables[join.left_ref] == view.left
            && query.tables[join.right_ref] == view.right
            && join.left_col == view.left_col
            && join.right_col == view.right_col
        {
            let mut sides = [ViewSide::Left, ViewSide::Left];
            sides[join.left_ref] = ViewSide::Left;
            sides[join.right_ref] = ViewSide::Right;
            Some(sides)
        } else if query.tables[join.left_ref] == view.right
            && query.tables[join.right_ref] == view.left
            && join.left_col == view.right_col
            && join.right_col == view.left_col
        {
            let mut sides = [ViewSide::Left, ViewSide::Left];
            sides[join.left_ref] = ViewSide::Right;
            sides[join.right_ref] = ViewSide::Left;
            Some(sides)
        } else {
            None
        };
        let Some(sides) = sides else { continue };

        // Every column the *outputs and filters* reference must be exposed;
        // the join columns themselves are pre-computed into the view and
        // need not be.
        let mut needed: Vec<(ViewSide, usize)> = Vec::new();
        for output in &query.outputs {
            if let Output::Col { table_ref, column } = output {
                needed.push((sides[*table_ref], *column));
            }
        }
        for filter in &query.filters {
            needed.push((sides[filter.table_ref], filter.column));
        }
        if !view.exposes(&needed) {
            continue;
        }

        // Remap filters and outputs to view columns. Exposure was checked
        // above, but resolve defensively: a lookup miss skips the view
        // rather than panicking.
        let filters: Option<Vec<(usize, FilterOp, crate::types::Value)>> = query
            .filters
            .iter()
            .map(|f| {
                view.output_position(sides[f.table_ref], f.column)
                    .map(|pos| (pos, f.op, f.value.clone()))
            })
            .collect();
        let Some(filters) = filters else { continue };
        let outputs: Option<Vec<ViewOutput>> = query
            .outputs
            .iter()
            .map(|o| match o {
                Output::Col { table_ref, column } => view
                    .output_position(sides[*table_ref], *column)
                    .map(ViewOutput::Col),
                Output::Null(ty) => Some(ViewOutput::Null(*ty)),
            })
            .collect();
        let Some(outputs) = outputs else { continue };

        // Cost: sequential scan of the view. Views over foreign tables are
        // unusable for this catalog — skip them.
        let (Ok(left_def), Ok(right_def)) =
            (catalog.try_table(view.left), catalog.try_table(view.right))
        else {
            continue;
        };
        let bytes = view.estimated_bytes(
            left_def,
            stats_for(stats, view.left),
            right_def,
            stats_for(stats, view.right),
        );
        let pages = (bytes / PAGE_SIZE as f64).max(1.0);
        let view_rows = stats_for(stats, view.right).rows as f64;
        // Selectivity from underlying column stats.
        let sel: f64 = query
            .filters
            .iter()
            .map(|f| {
                let table = query.tables[f.table_ref];
                column_selectivity(stats_for(stats, table), f.column, f.op, &f.value)
            })
            .product();
        let est_rows = view_rows * sel;
        let est_cost =
            seq_scan_cost(pages, view_rows, query.filters.len()) + est_rows * CPU_TUPLE_COST;

        let candidate = BranchPlan::ViewScan {
            view: view.name.clone(),
            filters,
            outputs,
            est_rows,
            est_cost,
        };
        if best
            .as_ref()
            .map(|b| candidate.est_cost() < b.est_cost())
            .unwrap_or(true)
        {
            best = Some(candidate);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, TableDef};
    use crate::sql::JoinCond;
    use crate::stats::ColumnStats;
    use crate::types::{DataType, Value};

    /// A 100k-row parent and 150k-row child with realistic stats.
    fn setup() -> (Catalog, Vec<TableStats>, TableId, TableId) {
        let mut catalog = Catalog::new();
        let parent = catalog
            .add_table(TableDef::new(
                "parent",
                vec![
                    ColumnDef::new("ID", DataType::Int),
                    ColumnDef::new("grp", DataType::Str),
                    ColumnDef::new("year", DataType::Int),
                ],
            ))
            .unwrap();
        let child = catalog
            .add_table(TableDef::new(
                "child",
                vec![
                    ColumnDef::new("ID", DataType::Int),
                    ColumnDef::new("PID", DataType::Int),
                    ColumnDef::new("val", DataType::Str),
                ],
            ))
            .unwrap();
        let n = 100_000u64;
        let parent_stats = TableStats {
            rows: n,
            columns: vec![
                ColumnStats::build((0..n as i64).map(Value::Int)),
                ColumnStats::build((0..n as i64).map(|i| Value::str(format!("g{}", i % 5000)))),
                ColumnStats::build((0..n as i64).map(|i| Value::Int(1960 + i % 45))),
            ],
        };
        let m = 150_000u64;
        let child_stats = TableStats {
            rows: m,
            columns: vec![
                ColumnStats::build((0..m as i64).map(Value::Int)),
                ColumnStats::build((0..m as i64).map(|i| Value::Int(i % n as i64))),
                ColumnStats::build((0..m as i64).map(|i| Value::str(format!("v{i}")))),
            ],
        };
        (catalog, vec![parent_stats, child_stats], parent, child)
    }

    fn selective_query(parent: TableId) -> SelectQuery {
        let mut q = SelectQuery::single(parent);
        q.filters = vec![Filter::new(0, 1, FilterOp::Eq, Value::str("g7"))];
        q.outputs = vec![Output::col(0, 0), Output::col(0, 2)];
        q
    }

    #[test]
    fn seq_scan_without_indexes() {
        let (catalog, stats, parent, _) = setup();
        let plan = plan_select(
            &catalog,
            &stats,
            &PhysicalConfig::none(),
            &selective_query(parent),
        )
        .unwrap();
        let BranchPlan::Pipeline { driver, .. } = &plan else {
            panic!()
        };
        assert_eq!(driver.access, Access::SeqScan);
    }

    #[test]
    fn index_seek_chosen_when_selective() {
        let (catalog, stats, parent, _) = setup();
        let config = PhysicalConfig {
            indexes: vec![IndexDef::new("ix_grp", parent, vec![1], vec![])],
            views: vec![],
        };
        let plan = plan_select(&catalog, &stats, &config, &selective_query(parent)).unwrap();
        let BranchPlan::Pipeline { driver, .. } = &plan else {
            panic!()
        };
        assert_eq!(driver.access.index_name(), Some("ix_grp"));
    }

    #[test]
    fn covering_index_avoids_fetches() {
        let (catalog, stats, parent, _) = setup();
        let noncovering = PhysicalConfig {
            indexes: vec![IndexDef::new("ix", parent, vec![1], vec![])],
            views: vec![],
        };
        let covering = PhysicalConfig {
            indexes: vec![IndexDef::new("ix", parent, vec![1], vec![0, 2])],
            views: vec![],
        };
        let q = selective_query(parent);
        let p1 = plan_select(&catalog, &stats, &noncovering, &q).unwrap();
        let p2 = plan_select(&catalog, &stats, &covering, &q).unwrap();
        assert!(p2.est_cost() < p1.est_cost());
    }

    #[test]
    fn unselective_predicate_prefers_scan() {
        let (catalog, stats, parent, _) = setup();
        let config = PhysicalConfig {
            indexes: vec![IndexDef::new("ix_year", parent, vec![2], vec![])],
            views: vec![],
        };
        let mut q = SelectQuery::single(parent);
        // year >= 1961 matches ~98% of rows.
        q.filters = vec![Filter::new(0, 2, FilterOp::Ge, Value::Int(1961))];
        q.outputs = vec![Output::col(0, 0)];
        let plan = plan_select(&catalog, &stats, &config, &q).unwrap();
        let BranchPlan::Pipeline { driver, .. } = &plan else {
            panic!()
        };
        assert_eq!(driver.access, Access::SeqScan);
    }

    fn join_query(parent: TableId, child: TableId) -> SelectQuery {
        let mut q = SelectQuery::single(parent);
        q.tables.push(child);
        q.joins.push(JoinCond {
            left_ref: 0,
            left_col: 0,
            right_ref: 1,
            right_col: 1,
        });
        q.filters = vec![Filter::new(0, 1, FilterOp::Eq, Value::str("g7"))];
        q.outputs = vec![Output::col(0, 0), Output::col(1, 2)];
        q
    }

    #[test]
    fn plan_profile_counts_enumerated_search_space() {
        let (catalog, stats, parent, child) = setup();
        let mut config = PhysicalConfig::none();
        config
            .indexes
            .push(IndexDef::new("i_grp", parent, vec![1], vec![]));
        config
            .indexes
            .push(IndexDef::new("i_pid", child, vec![1], vec![]));
        let query = SqlQuery::Select(join_query(parent, child));
        let (plan, profile) = plan_query_profiled(&catalog, &stats, &config, &query).unwrap();
        assert!(plan.est_cost.is_finite());
        assert_eq!(profile.branches, 1);
        // Two occurrences, each with a seq scan plus one matching index.
        assert_eq!(profile.access_paths_considered, 4);
        // 2! join orders for a two-table branch.
        assert_eq!(profile.join_orders_considered, 2);
        // No views defined, but the two-table join did consult the (empty)
        // view list.
        assert_eq!(profile.views_considered, 0);

        // The profile is a pure function of (query, config): planning again
        // yields an identical profile.
        let (_, again) = plan_query_profiled(&catalog, &stats, &config, &query).unwrap();
        assert_eq!(profile, again);
    }

    #[test]
    fn hash_join_without_pid_index() {
        let (catalog, stats, parent, child) = setup();
        let plan = plan_select(
            &catalog,
            &stats,
            &PhysicalConfig::none(),
            &join_query(parent, child),
        )
        .unwrap();
        let BranchPlan::Pipeline { joins, .. } = &plan else {
            panic!()
        };
        assert_eq!(joins.len(), 1);
        assert!(matches!(joins[0].algo, JoinAlgo::Hash));
    }

    #[test]
    fn inlj_with_selective_outer_and_pid_index() {
        let (catalog, stats, parent, child) = setup();
        let config = PhysicalConfig {
            indexes: vec![
                IndexDef::new("ix_grp", parent, vec![1], vec![]),
                IndexDef::new("ix_pid", child, vec![1], vec![]),
            ],
            views: vec![],
        };
        let plan = plan_select(&catalog, &stats, &config, &join_query(parent, child)).unwrap();
        let BranchPlan::Pipeline { driver, joins, .. } = &plan else {
            panic!()
        };
        assert_eq!(driver.table_ref, 0);
        assert!(matches!(joins[0].algo, JoinAlgo::IndexNestedLoop { .. }));
    }

    #[test]
    fn view_replaces_join_branch() {
        let (catalog, stats, parent, child) = setup();
        let view = ViewDef {
            name: "v_pc".into(),
            left: parent,
            right: child,
            left_col: 0,
            right_col: 1,
            outputs: vec![
                (ViewSide::Left, 0),
                (ViewSide::Left, 1),
                (ViewSide::Right, 2),
            ],
        };
        let config = PhysicalConfig {
            indexes: vec![],
            views: vec![view],
        };
        let plan = plan_select(&catalog, &stats, &config, &join_query(parent, child)).unwrap();
        // Without any indexes, the view scan should beat scan+hash join.
        assert!(matches!(plan, BranchPlan::ViewScan { .. }));
    }

    #[test]
    fn view_not_used_when_columns_missing() {
        let (catalog, stats, parent, child) = setup();
        let view = ViewDef {
            name: "v_pc".into(),
            left: parent,
            right: child,
            left_col: 0,
            right_col: 1,
            outputs: vec![(ViewSide::Left, 0)], // missing grp and val
        };
        let config = PhysicalConfig {
            indexes: vec![],
            views: vec![view],
        };
        let plan = plan_select(&catalog, &stats, &config, &join_query(parent, child)).unwrap();
        assert!(matches!(plan, BranchPlan::Pipeline { .. }));
    }

    #[test]
    fn range_seek_built() {
        let (catalog, stats, parent, _) = setup();
        let config = PhysicalConfig {
            indexes: vec![IndexDef::new("ix_year", parent, vec![2], vec![0])],
            views: vec![],
        };
        let mut q = SelectQuery::single(parent);
        q.filters = vec![Filter::new(0, 2, FilterOp::Eq, Value::Int(1999))];
        q.outputs = vec![Output::col(0, 0)];
        let plan = plan_select(&catalog, &stats, &config, &q).unwrap();
        let BranchPlan::Pipeline { driver, .. } = &plan else {
            panic!()
        };
        // Equality on 1/45 of rows: too many random fetches for a plain
        // seek, but the covering index (no heap fetches) wins.
        assert_eq!(driver.access.index_name(), Some("ix_year"));
    }

    #[test]
    fn permutations_complete() {
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(1), vec![vec![0]]);
    }

    #[test]
    fn plan_query_sums_branches() {
        let (catalog, stats, parent, child) = setup();
        let union = crate::sql::UnionAllQuery {
            branches: vec![selective_query(parent), {
                let mut q = join_query(parent, child);
                q.outputs = vec![Output::col(0, 0), Output::Null(DataType::Str)];
                q
            }],
            order_by: vec![0],
        };
        // Make arities agree.
        let mut union = union;
        union.branches[0].outputs = vec![Output::col(0, 0), Output::col(0, 2)];
        let plan = plan_query(
            &catalog,
            &stats,
            &PhysicalConfig::none(),
            &SqlQuery::Union(union),
        )
        .unwrap();
        assert_eq!(plan.branches.len(), 2);
        assert!(plan.est_cost >= plan.branches.iter().map(|b| b.est_cost()).sum::<f64>());
    }
}
