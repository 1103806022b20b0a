//! The physical design tool: an Index-Tuning-Wizard analog in the AutoAdmin
//! style \[2\], \[7\].
//!
//! Given a relational schema (catalog + statistics), a weighted SQL
//! workload, and a storage bound, the tool:
//!
//! 1. generates candidate indexes per query — a narrow index on the
//!    sargable predicate columns, a covering variant including the query's
//!    projection columns, `PID` join indexes (narrow and covering) — and
//!    candidate two-table join views;
//! 2. greedily adds the candidate with the best what-if cost improvement
//!    while the configuration fits the storage bound;
//! 3. returns per-query costs and used-object sets `I(Q, M)` with their
//!    sizes, which Section 4.8's cost derivation consumes.

use crate::oracle::CostOracle;
use crate::parallel::parallel_map;
use crate::search::Deadline;
use rustc_hash::FxHashSet;
use xmlshred_rel::catalog::{Catalog, TableId};
use xmlshred_rel::cost::sort_cost;
use xmlshred_rel::expr::FilterOp;
use xmlshred_rel::index::IndexDef;
use xmlshred_rel::optimizer::{
    config_bytes, context_fingerprint, extend_fingerprint, index_fingerprint, query_fingerprint,
    select_fingerprint, view_fingerprint, PhysicalConfig, EMPTY_CONFIG_FINGERPRINT,
};
use xmlshred_rel::sql::{Output, SelectQuery, SqlQuery};
use xmlshred_rel::stats::TableStats;
use xmlshred_rel::view::{ViewDef, ViewSide};

/// Result of one tuning invocation.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The recommended configuration.
    pub config: PhysicalConfig,
    /// Weighted total estimated workload cost under it.
    pub total_cost: f64,
    /// Per input query: estimated cost and the used objects with their
    /// total size in bytes.
    pub per_query: Vec<PerQueryInfo>,
    /// What-if optimizer calls issued.
    pub optimizer_calls: u64,
    /// True when the anytime deadline cut the greedy selection short; the
    /// configuration is the best found before expiry and still respects
    /// the storage budget.
    pub degraded: bool,
}

/// Cost and used-object information for one query.
#[derive(Debug, Clone, Default)]
pub struct PerQueryInfo {
    /// Estimated (unweighted) cost.
    pub cost: f64,
    /// Names of indexes/views the chosen plan uses — `I(Q, M)`.
    pub used_objects: Vec<String>,
    /// Total estimated bytes of those objects.
    pub used_bytes: f64,
}

/// Per-period update volume on one table, for update-aware tuning (the
/// paper's stated future work: "we plan to consider more general XML
/// queries (including update queries)").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateLoad {
    /// The updated table.
    pub table: TableId,
    /// Rows inserted (or modified) per workload period, weighted.
    pub rows: f64,
}

/// Maintenance cost charged per index entry written (B-tree insert:
/// amortized descent + leaf write).
pub const INDEX_MAINTENANCE_COST: f64 = 0.01;
/// Maintenance cost per materialized-view row recomputed on a base-table
/// change (join probe + write).
pub const VIEW_MAINTENANCE_COST: f64 = 0.02;

/// Knobs for one tuning invocation.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Worker threads for the initial candidate-scoring fan-out; `0` =
    /// available parallelism. Results are bit-identical for any value.
    pub threads: usize,
    /// Observability sink; the tool records candidate counts, per-query
    /// cost histograms, and a `tune` span when present.
    pub metrics: Option<std::sync::Arc<crate::metrics::MetricsRegistry>>,
    /// Anytime budget. When it expires mid-search the greedy loop stops
    /// accepting candidates and the result carries `degraded = true`; the
    /// base-configuration costing and the final per-query report always run,
    /// so the result is well-formed regardless of when the budget lapses.
    pub deadline: Deadline,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            threads: 1,
            metrics: None,
            deadline: Deadline::none(),
        }
    }
}

/// Run the tuning tool on a read-only workload.
///
/// `queries` are `(query, weight)` pairs; `budget_bytes` bounds the total
/// estimated size of recommended structures.
pub fn tune(
    catalog: &Catalog,
    stats: &[TableStats],
    queries: &[(&SqlQuery, f64)],
    budget_bytes: f64,
) -> TuneResult {
    tune_with_updates(catalog, stats, queries, &[], budget_bytes)
}

/// Run the tuning tool on a mixed read/update workload: every candidate's
/// query benefit is discounted by the maintenance cost updates impose on it,
/// so update-heavy tables receive fewer (and narrower) structures.
pub fn tune_with_updates(
    catalog: &Catalog,
    stats: &[TableStats],
    queries: &[(&SqlQuery, f64)],
    updates: &[UpdateLoad],
    budget_bytes: f64,
) -> TuneResult {
    tune_with(
        catalog,
        stats,
        queries,
        updates,
        budget_bytes,
        &CostOracle::disabled(),
        &TuneOptions::default(),
    )
}

/// Run the tuning tool with an explicit what-if cost oracle and threading
/// knobs — the advisor searches share one oracle across every invocation so
/// repeated contexts hit the memo table.
///
/// `optimizer_calls` in the result counts queries whose costing actually
/// invoked the planner for at least one branch; fully cache-served queries
/// are visible in the oracle's counters instead.
pub fn tune_with(
    catalog: &Catalog,
    stats: &[TableStats],
    queries: &[(&SqlQuery, f64)],
    updates: &[UpdateLoad],
    budget_bytes: f64,
    oracle: &CostOracle,
    options: &TuneOptions,
) -> TuneResult {
    let _span = options.metrics.as_ref().map(|m| m.span("tune"));
    let mut optimizer_calls = 0u64;
    let mut degraded = false;
    let deadline = &options.deadline;

    // Memo-key ingredients. The context fingerprint pins the catalog and
    // statistics this invocation plans against; the config fingerprint is
    // maintained incrementally as candidates are accepted (and extended
    // per-trial), so a cache key never requires rehashing a whole
    // configuration. Keys matter only to the memo table; without it they
    // are never read, so zeros skip the hashing work.
    let keyed = oracle.is_enabled();
    let ctx_fp = if keyed {
        context_fingerprint(catalog, stats)
    } else {
        0
    };
    let branch_fps: Vec<Vec<u64>> = queries
        .iter()
        .map(|(q, _)| {
            if keyed {
                q.branches().iter().map(select_fingerprint).collect()
            } else {
                vec![0; q.branches().len()]
            }
        })
        .collect();
    let mut config_fp = EMPTY_CONFIG_FINGERPRINT;

    let maintenance = |candidate: &Candidate| -> f64 {
        updates
            .iter()
            .map(|u| match candidate {
                Candidate::Index(def) if def.table == u.table => u.rows * INDEX_MAINTENANCE_COST,
                Candidate::View(def) if def.left == u.table || def.right == u.table => {
                    u.rows * VIEW_MAINTENANCE_COST
                }
                _ => 0.0,
            })
            .sum()
    };

    // ------------------------------------------------------- candidates --
    let candidates = generate_candidates(catalog, queries.iter().map(|(q, _)| *q));
    if let Some(metrics) = &options.metrics {
        // Candidate generation is pure syntax over the workload: the count
        // is deterministic for any thread/cache setting.
        metrics.count("tune.candidates_generated", candidates.len() as u64);
        metrics.count("tune.queries", queries.len() as u64);
    }

    // Which queries reference which tables (for incremental re-costing).
    let query_tables: Vec<FxHashSet<TableId>> = queries
        .iter()
        .map(|(q, _)| {
            q.branches()
                .iter()
                .flat_map(|b| b.tables.iter().copied())
                .collect()
        })
        .collect();

    // ------------------------------------------------- base configuration --
    // Branch-level cost caching: a candidate only perturbs branches that
    // touch its table(s), so what-if evaluation re-plans just those branches
    // and reuses cached costs for the rest. On fully split schemas (dozens
    // of partitions -> dozens of UNION ALL branches per query) this is the
    // difference between seconds and minutes per tuning call.
    let mut config = PhysicalConfig::none();
    let mut branch_cost: Vec<Vec<f64>> = Vec::with_capacity(queries.len());
    let mut branch_rows: Vec<Vec<f64>> = Vec::with_capacity(queries.len());
    let mut per_cost: Vec<f64> = Vec::with_capacity(queries.len());
    for (qi, (q, _)) in queries.iter().enumerate() {
        let mut costs = Vec::new();
        let mut rows = Vec::new();
        let mut planned_fresh = false;
        for (bi, branch) in q.branches().iter().enumerate() {
            let (cost, cardinality, fresh) = oracle.select_cost(
                (ctx_fp, config_fp, branch_fps[qi][bi]),
                catalog,
                stats,
                &config,
                branch,
            );
            planned_fresh |= fresh;
            costs.push(cost);
            rows.push(cardinality);
        }
        if planned_fresh {
            optimizer_calls += 1;
        }
        let has_order = matches!(q, SqlQuery::Union(u) if !u.order_by.is_empty());
        let total = total_query_cost(&costs, &rows, has_order);
        branch_cost.push(costs);
        branch_rows.push(rows);
        per_cost.push(total);
    }

    // ------------------------------------------------------------ greedy --
    // Lazy greedy: cost improvements are (near-)submodular — adding more
    // structures never increases another candidate's benefit — so cached
    // benefits are upper bounds. Pop the best cached candidate, refresh its
    // benefit, and accept it if it still dominates the next cached bound.
    // What-if evaluation of one candidate. `scratch` must equal the current
    // configuration on entry; the candidate is pushed for the trial plans
    // and popped before returning, so no per-trial configuration clone is
    // made (satellite of the same PR: the old code cloned all indexes and
    // views per candidate). `trial_fp` is the fingerprint of
    // `scratch + candidate`, i.e. `extend_fingerprint(config_fp,
    // candidate.fingerprint())`.
    let evaluate = |candidate: &Candidate,
                    trial_fp: u64,
                    scratch: &mut PhysicalConfig,
                    branch_cost: &[Vec<f64>],
                    branch_rows: &[Vec<f64>],
                    per_cost: &[f64],
                    optimizer_calls: &mut u64|
     -> (f64, Vec<CacheUpdate>) {
        candidate.add_to(scratch);
        let mut delta = 0.0;
        let mut updates = Vec::new();
        for (qi, (q, weight)) in queries.iter().enumerate() {
            if !candidate.touches(&query_tables[qi]) {
                continue;
            }
            let mut planned_fresh = false;
            let mut costs = branch_cost[qi].clone();
            let mut rows = branch_rows[qi].clone();
            for (bi, branch) in q.branches().iter().enumerate() {
                let affected = match candidate {
                    Candidate::Index(def) => branch.tables.contains(&def.table),
                    Candidate::View(def) => {
                        branch.tables.contains(&def.left) && branch.tables.contains(&def.right)
                    }
                };
                if !affected {
                    continue;
                }
                let (cost, cardinality, fresh) = oracle.select_cost(
                    (ctx_fp, trial_fp, branch_fps[qi][bi]),
                    catalog,
                    stats,
                    scratch,
                    branch,
                );
                planned_fresh |= fresh;
                costs[bi] = cost;
                if cost.is_finite() {
                    rows[bi] = cardinality;
                }
            }
            if planned_fresh {
                *optimizer_calls += 1;
            }
            let has_order = matches!(q, SqlQuery::Union(u) if !u.order_by.is_empty());
            let total = total_query_cost(&costs, &rows, has_order);
            delta += (per_cost[qi] - total) * weight;
            updates.push((qi, costs, rows, total));
        }
        candidate.remove_from(scratch);
        (delta, updates)
    };

    // Initial scoring: every candidate against the empty configuration.
    // This is the tool's widest loop (candidates x affected branches), so
    // it fans out across scoped threads; reduction happens serially below
    // in candidate order, making the surviving list — and therefore the
    // whole greedy selection — independent of the thread count.
    let candidate_fps: Vec<u64> = candidates.iter().map(Candidate::fingerprint).collect();
    let scores: Vec<Option<(f64, u64)>> = parallel_map(
        &candidates,
        options.threads,
        deadline,
        options.metrics.as_deref(),
        || config.clone(),
        |scratch, i, candidate| {
            let mut calls = 0u64;
            let (raw, _) = evaluate(
                candidate,
                extend_fingerprint(config_fp, candidate_fps[i]),
                scratch,
                &branch_cost,
                &branch_rows,
                &per_cost,
                &mut calls,
            );
            (raw, calls)
        },
    );
    let mut remaining: Vec<(Candidate, u64, f64)> = {
        let mut scored = Vec::with_capacity(candidates.len());
        for ((candidate, fp), slot) in candidates.into_iter().zip(candidate_fps).zip(scores) {
            // A `None` slot means the deadline lapsed before this candidate
            // was scored: drop it and mark the run degraded.
            let Some((raw, calls)) = slot else {
                degraded = true;
                continue;
            };
            optimizer_calls += calls;
            let delta = raw - maintenance(&candidate);
            if delta > 1e-9 {
                scored.push((candidate, fp, delta));
            }
        }
        scored
    };
    'outer: loop {
        if deadline.expired() {
            degraded = true;
            break;
        }
        let current_bytes = config_bytes(catalog, stats, &config);
        // A bounded number of lazy refreshes per selection; each refresh
        // either accepts a candidate or strictly lowers a cached bound.
        let mut refreshes = remaining.len() * 2 + 1;
        loop {
            if refreshes == 0 {
                break 'outer;
            }
            refreshes -= 1;
            if deadline.expired() {
                degraded = true;
                break 'outer;
            }
            // The feasible candidate with the highest cached bound.
            // (Budget fits, and at most one clustered index per table.)
            let feasible = |c: &Candidate| -> bool {
                if current_bytes + c.bytes(catalog, stats) > budget_bytes {
                    return false;
                }
                if let Candidate::Index(def) = c {
                    if def.clustered
                        && config
                            .indexes
                            .iter()
                            .any(|i| i.clustered && i.table == def.table)
                    {
                        return false;
                    }
                }
                true
            };
            let Some(top) = remaining
                .iter()
                .enumerate()
                .filter(|(_, (c, _, _))| feasible(c))
                .max_by(|a, b| {
                    a.1 .2
                        .partial_cmp(&b.1 .2)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i)
            else {
                break 'outer;
            };
            // The incumbent configuration itself serves as the trial
            // scratch: `evaluate` pushes the candidate and pops it again,
            // so no clone of the configuration is made per refresh.
            let trial_fp = extend_fingerprint(config_fp, remaining[top].1);
            let (raw, cache_updates) = evaluate(
                &remaining[top].0,
                trial_fp,
                &mut config,
                &branch_cost,
                &branch_rows,
                &per_cost,
                &mut optimizer_calls,
            );
            let delta = raw - maintenance(&remaining[top].0);
            if delta <= 1e-9 {
                remaining.swap_remove(top);
                if remaining.is_empty() {
                    break 'outer;
                }
                continue;
            }
            remaining[top].2 = delta;
            // Accept if the refreshed benefit still dominates every other
            // cached bound (which are upper bounds under submodularity).
            let next_bound = remaining
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != top)
                .map(|(_, (_, _, b))| *b)
                .fold(0.0f64, f64::max);
            if delta + 1e-12 >= next_bound {
                let (candidate, fp, _) = remaining.swap_remove(top);
                candidate.add_to(&mut config);
                config_fp = extend_fingerprint(config_fp, fp);
                for (qi, costs, rows, total) in cache_updates {
                    branch_cost[qi] = costs;
                    branch_rows[qi] = rows;
                    per_cost[qi] = total;
                }
                break; // next selection
            }
            // Otherwise the loop re-picks the (possibly different) top.
        }
        if remaining.is_empty() {
            break;
        }
    }

    // ------------------------------------------------- final per-query info --
    let mut per_query = Vec::with_capacity(queries.len());
    let mut total_cost = 0.0;
    for (q, weight) in queries.iter() {
        let q_fp = if keyed { query_fingerprint(q) } else { 0 };
        let (cost, used, fresh) =
            oracle.query_cost((ctx_fp, config_fp, q_fp), catalog, stats, &config, q);
        if fresh {
            optimizer_calls += 1;
        }
        let used_bytes = used
            .iter()
            .map(|name| object_bytes(catalog, stats, &config, name))
            .sum();
        total_cost += cost * weight;
        if let Some(metrics) = &options.metrics {
            // Costs are pure planner output: deterministic per (seed, knobs).
            metrics.record_f64("tune.per_query_cost", cost);
        }
        per_query.push(PerQueryInfo {
            cost,
            used_objects: used,
            used_bytes,
        });
    }
    if let Some(metrics) = &options.metrics {
        metrics.count("tune.selected_indexes", config.indexes.len() as u64);
        metrics.count("tune.selected_views", config.views.len() as u64);
    }

    TuneResult {
        config,
        total_cost,
        per_query,
        optimizer_calls,
        degraded,
    }
}

/// Per-query cache update from a what-if evaluation:
/// `(query index, branch costs, branch row estimates, total cost)`.
type CacheUpdate = (usize, Vec<f64>, Vec<f64>, f64);

/// Combine branch costs (+ the final sort when the query is ordered) into
/// one query cost, mirroring `plan_query`'s total.
fn total_query_cost(branch_costs: &[f64], branch_rows: &[f64], has_order: bool) -> f64 {
    let total: f64 = branch_costs.iter().sum();
    if has_order {
        total + sort_cost(branch_rows.iter().sum())
    } else {
        total
    }
}

/// Estimated size of a named object in a configuration.
pub fn object_bytes(
    catalog: &Catalog,
    stats: &[TableStats],
    config: &PhysicalConfig,
    name: &str,
) -> f64 {
    if let Some(idx) = config.indexes.iter().find(|i| i.name == name) {
        return idx.estimated_bytes(catalog.table(idx.table), &stats[idx.table.index()]);
    }
    if let Some(view) = config.views.iter().find(|v| v.name == name) {
        return view.estimated_bytes(
            catalog.table(view.left),
            &stats[view.left.index()],
            catalog.table(view.right),
            &stats[view.right.index()],
        );
    }
    0.0
}

/// One physical design candidate.
#[derive(Debug, Clone)]
enum Candidate {
    Index(IndexDef),
    View(ViewDef),
}

impl Candidate {
    fn add_to(&self, config: &mut PhysicalConfig) {
        match self {
            Candidate::Index(def) => config.indexes.push(def.clone()),
            Candidate::View(def) => config.views.push(def.clone()),
        }
    }

    /// Undo the matching [`Candidate::add_to`] on the same config (the
    /// candidate is by construction the last element of its list).
    fn remove_from(&self, config: &mut PhysicalConfig) {
        match self {
            Candidate::Index(_) => {
                config.indexes.pop();
            }
            Candidate::View(_) => {
                config.views.pop();
            }
        }
    }

    /// Fingerprint used to extend a configuration fingerprint when this
    /// candidate is (tentatively or finally) appended.
    fn fingerprint(&self) -> u64 {
        match self {
            Candidate::Index(def) => index_fingerprint(def),
            Candidate::View(def) => view_fingerprint(def),
        }
    }

    fn bytes(&self, catalog: &Catalog, stats: &[TableStats]) -> f64 {
        match self {
            Candidate::Index(def) => {
                def.estimated_bytes(catalog.table(def.table), &stats[def.table.index()])
            }
            Candidate::View(def) => def.estimated_bytes(
                catalog.table(def.left),
                &stats[def.left.index()],
                catalog.table(def.right),
                &stats[def.right.index()],
            ),
        }
    }

    fn touches(&self, tables: &FxHashSet<TableId>) -> bool {
        match self {
            Candidate::Index(def) => tables.contains(&def.table),
            Candidate::View(def) => tables.contains(&def.left) && tables.contains(&def.right),
        }
    }
}

fn generate_candidates<'a>(
    catalog: &Catalog,
    queries: impl Iterator<Item = &'a SqlQuery>,
) -> Vec<Candidate> {
    let mut seen: FxHashSet<String> = FxHashSet::default();
    let mut out: Vec<Candidate> = Vec::new();
    let mut push_index = |def: IndexDef, out: &mut Vec<Candidate>| {
        if seen.insert(def.name.clone()) {
            out.push(Candidate::Index(def));
        }
    };

    let mut view_seen: FxHashSet<String> = FxHashSet::default();
    for query in queries {
        for branch in query.branches() {
            for (occ, &table) in branch.tables.iter().enumerate() {
                let table_name = &catalog.table(table).name;
                // Sargable predicate columns: equality first, then ranges.
                let mut eq_cols: Vec<usize> = branch
                    .filters
                    .iter()
                    .filter(|f| f.table_ref == occ && f.op == FilterOp::Eq)
                    .map(|f| f.column)
                    .collect();
                eq_cols.sort_unstable();
                eq_cols.dedup();
                let mut range_cols: Vec<usize> = branch
                    .filters
                    .iter()
                    .filter(|f| {
                        f.table_ref == occ
                            && f.op.is_sargable()
                            && f.op != FilterOp::Eq
                            && !eq_cols.contains(&f.column)
                    })
                    .map(|f| f.column)
                    .collect();
                range_cols.sort_unstable();
                range_cols.dedup();

                let needed = branch.referenced_columns(occ);
                let mut key = eq_cols.clone();
                if let Some(&r) = range_cols.first() {
                    key.push(r);
                }
                if !key.is_empty() {
                    let name = index_name(table_name, &key, &[]);
                    push_index(IndexDef::new(name, table, key.clone(), vec![]), &mut out);
                    let includes: Vec<usize> = needed
                        .iter()
                        .copied()
                        .filter(|c| !key.contains(c))
                        .collect();
                    if !includes.is_empty() {
                        let name = index_name(table_name, &key, &includes);
                        push_index(IndexDef::new(name, table, key.clone(), includes), &mut out);
                    }
                }

                // Join columns on this occurrence.
                let mut join_cols: Vec<usize> = Vec::new();
                for join in &branch.joins {
                    if join.left_ref == occ {
                        join_cols.push(join.left_col);
                    }
                    if join.right_ref == occ {
                        join_cols.push(join.right_col);
                    }
                }
                join_cols.sort_unstable();
                join_cols.dedup();
                for jc in join_cols {
                    let key = vec![jc];
                    let name = index_name(table_name, &key, &[]);
                    push_index(IndexDef::new(name, table, key.clone(), vec![]), &mut out);
                    let includes: Vec<usize> =
                        needed.iter().copied().filter(|&c| c != jc).collect();
                    if !includes.is_empty() {
                        let name = index_name(table_name, &key, &includes);
                        push_index(IndexDef::new(name, table, key, includes), &mut out);
                    }
                }
            }

            // Join-view candidate for a two-table branch.
            if branch.tables.len() == 2 && branch.joins.len() == 1 {
                if let Some(view) = view_candidate(catalog, branch) {
                    if view_seen.insert(view.name.clone()) {
                        out.push(Candidate::View(view));
                    }
                }
            }
        }
    }
    out
}

fn view_candidate(catalog: &Catalog, branch: &SelectQuery) -> Option<ViewDef> {
    let join = &branch.joins[0];
    let (left_ref, right_ref) = (join.left_ref, join.right_ref);
    let left = branch.tables[left_ref];
    let right = branch.tables[right_ref];
    let mut outputs: Vec<(ViewSide, usize)> = Vec::new();
    for output in &branch.outputs {
        if let Output::Col { table_ref, column } = output {
            let side = if *table_ref == left_ref {
                ViewSide::Left
            } else {
                ViewSide::Right
            };
            if !outputs.contains(&(side, *column)) {
                outputs.push((side, *column));
            }
        }
    }
    for filter in &branch.filters {
        let side = if filter.table_ref == left_ref {
            ViewSide::Left
        } else {
            ViewSide::Right
        };
        if !outputs.contains(&(side, filter.column)) {
            outputs.push((side, filter.column));
        }
    }
    if outputs.is_empty() {
        return None;
    }
    let name = format!(
        "v_{}_{}_{}",
        catalog.table(left).name,
        catalog.table(right).name,
        outputs
            .iter()
            .map(|(s, c)| format!(
                "{}{}",
                if matches!(s, ViewSide::Left) {
                    "l"
                } else {
                    "r"
                },
                c
            ))
            .collect::<Vec<_>>()
            .join("_")
    );
    Some(ViewDef {
        name,
        left,
        right,
        left_col: join.left_col,
        right_col: join.right_col,
        outputs,
    })
}

fn index_name(table: &str, key: &[usize], includes: &[usize]) -> String {
    let k: Vec<String> = key.iter().map(usize::to_string).collect();
    if includes.is_empty() {
        format!("ix_{}_{}", table, k.join("_"))
    } else {
        let i: Vec<String> = includes.iter().map(usize::to_string).collect();
        format!("ix_{}_{}_inc_{}", table, k.join("_"), i.join("_"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlshred_rel::catalog::{ColumnDef, TableDef};
    use xmlshred_rel::expr::Filter;
    use xmlshred_rel::optimizer::plan_query;
    use xmlshred_rel::sql::{JoinCond, UnionAllQuery};
    use xmlshred_rel::stats::ColumnStats;
    use xmlshred_rel::types::{DataType, Value};

    fn setup() -> (Catalog, Vec<TableStats>, TableId, TableId) {
        let mut catalog = Catalog::new();
        let inproc = catalog
            .add_table(TableDef::new(
                "inproc",
                vec![
                    ColumnDef::new("ID", DataType::Int),
                    ColumnDef::new("PID", DataType::Int),
                    ColumnDef::new("title", DataType::Str),
                    ColumnDef::new("booktitle", DataType::Str),
                    ColumnDef::new("year", DataType::Int),
                ],
            ))
            .unwrap();
        let author = catalog
            .add_table(TableDef::new(
                "author",
                vec![
                    ColumnDef::new("ID", DataType::Int),
                    ColumnDef::new("PID", DataType::Int),
                    ColumnDef::new("author", DataType::Str),
                ],
            ))
            .unwrap();
        let n = 50_000i64;
        let inproc_stats = TableStats {
            rows: n as u64,
            columns: vec![
                ColumnStats::synthetic_uniform_int(n as u64, 0, n - 1),
                ColumnStats::synthetic_uniform_int(n as u64, 0, 0),
                ColumnStats::build((0..n).map(|i| Value::str(format!("Paper {i}")))),
                ColumnStats::build((0..n).map(|i| Value::str(format!("CONF{}", i % 50)))),
                ColumnStats::build((0..n).map(|i| Value::Int(1960 + i % 45))),
            ],
        };
        let m = 120_000i64;
        let author_stats = TableStats {
            rows: m as u64,
            columns: vec![
                ColumnStats::synthetic_uniform_int(m as u64, 0, m - 1),
                ColumnStats::synthetic_fk(m as u64, n as u64, 0, n - 1),
                ColumnStats::build((0..m).map(|i| Value::str(format!("Author {}", i % 9000)))),
            ],
        };
        (catalog, vec![inproc_stats, author_stats], inproc, author)
    }

    fn paper_query(inproc: TableId, author: TableId) -> SqlQuery {
        let mut first = SelectQuery::single(inproc);
        first.filters = vec![Filter::new(0, 3, FilterOp::Eq, Value::str("CONF7"))];
        first.outputs = vec![
            Output::col(0, 0),
            Output::col(0, 2),
            Output::col(0, 4),
            Output::Null(DataType::Str),
        ];
        let mut second = SelectQuery::single(inproc);
        second.tables.push(author);
        second.joins.push(JoinCond {
            left_ref: 0,
            left_col: 0,
            right_ref: 1,
            right_col: 1,
        });
        second.filters = vec![Filter::new(0, 3, FilterOp::Eq, Value::str("CONF7"))];
        second.outputs = vec![
            Output::col(0, 0),
            Output::Null(DataType::Str),
            Output::Null(DataType::Int),
            Output::col(1, 2),
        ];
        SqlQuery::Union(UnionAllQuery {
            branches: vec![first, second],
            order_by: vec![0],
        })
    }

    #[test]
    fn tune_improves_cost() {
        let (catalog, stats, inproc, author) = setup();
        let query = paper_query(inproc, author);
        let base = plan_query(&catalog, &stats, &PhysicalConfig::none(), &query)
            .unwrap()
            .est_cost;
        let result = tune(&catalog, &stats, &[(&query, 1.0)], 1e12);
        assert!(
            result.total_cost < base * 0.5,
            "tuned {} base {base}",
            result.total_cost
        );
        assert!(!result.config.indexes.is_empty());
        assert!(result.optimizer_calls > 0);
    }

    #[test]
    fn used_objects_reported() {
        let (catalog, stats, inproc, author) = setup();
        let query = paper_query(inproc, author);
        let result = tune(&catalog, &stats, &[(&query, 1.0)], 1e12);
        assert!(!result.per_query[0].used_objects.is_empty());
        assert!(result.per_query[0].used_bytes > 0.0);
    }

    #[test]
    fn budget_respected() {
        let (catalog, stats, inproc, author) = setup();
        let query = paper_query(inproc, author);
        let unlimited = tune(&catalog, &stats, &[(&query, 1.0)], 1e12);
        let unlimited_bytes = config_bytes(&catalog, &stats, &unlimited.config);
        // Allow half of what the unlimited run used.
        let limited = tune(&catalog, &stats, &[(&query, 1.0)], unlimited_bytes / 2.0);
        let limited_bytes = config_bytes(&catalog, &stats, &limited.config);
        assert!(limited_bytes <= unlimited_bytes / 2.0 + 1.0);
        assert!(limited.total_cost >= unlimited.total_cost);
    }

    #[test]
    fn zero_budget_keeps_base_tables() {
        let (catalog, stats, inproc, author) = setup();
        let query = paper_query(inproc, author);
        let result = tune(&catalog, &stats, &[(&query, 1.0)], 0.0);
        assert!(result.config.indexes.is_empty());
        assert!(result.config.views.is_empty());
    }

    #[test]
    fn candidates_deduplicated() {
        let (catalog, _stats, inproc, author) = setup();
        let q1 = paper_query(inproc, author);
        let q2 = paper_query(inproc, author);
        let candidates = generate_candidates(&catalog, [&q1, &q2].into_iter());
        let names: Vec<String> = candidates
            .iter()
            .map(|c| match c {
                Candidate::Index(i) => i.name.clone(),
                Candidate::View(v) => v.name.clone(),
            })
            .collect();
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(names.len(), deduped.len());
    }

    #[test]
    fn update_load_suppresses_indexes() {
        let (catalog, stats, inproc, author) = setup();
        let query = paper_query(inproc, author);
        let read_only = tune(&catalog, &stats, &[(&query, 1.0)], 1e12);
        assert!(!read_only.config.indexes.is_empty());
        // A crushing update volume on both tables: no index pays for itself.
        let heavy = tune_with_updates(
            &catalog,
            &stats,
            &[(&query, 1.0)],
            &[
                UpdateLoad {
                    table: inproc,
                    rows: 1e12,
                },
                UpdateLoad {
                    table: author,
                    rows: 1e12,
                },
            ],
            1e12,
        );
        assert!(heavy.config.indexes.is_empty());
        assert!(heavy.config.views.is_empty());
        assert!(heavy.total_cost >= read_only.total_cost);
    }

    #[test]
    fn moderate_update_load_keeps_high_benefit_indexes() {
        let (catalog, stats, inproc, author) = setup();
        let query = paper_query(inproc, author);
        let read_only = tune(&catalog, &stats, &[(&query, 1.0)], 1e12);
        let moderate = tune_with_updates(
            &catalog,
            &stats,
            &[(&query, 1.0)],
            &[UpdateLoad {
                table: author,
                rows: 100.0,
            }],
            1e12,
        );
        // Small maintenance cost: structure count may shrink but never to
        // zero, and quality stays in the same ballpark.
        assert!(!moderate.config.indexes.is_empty());
        assert!(moderate.total_cost <= read_only.total_cost * 1.5 + 1.0);
    }

    #[test]
    fn expired_deadline_yields_degraded_base_design() {
        let (catalog, stats, inproc, author) = setup();
        let query = paper_query(inproc, author);
        let options = TuneOptions {
            threads: 1,
            deadline: Deadline::at(std::time::Instant::now() - std::time::Duration::from_secs(1)),
            ..TuneOptions::default()
        };
        let result = tune_with(
            &catalog,
            &stats,
            &[(&query, 1.0)],
            &[],
            1e12,
            &CostOracle::disabled(),
            &options,
        );
        assert!(result.degraded);
        // No time to accept anything, but the report is still well-formed.
        assert!(result.config.indexes.is_empty() && result.config.views.is_empty());
        assert_eq!(result.per_query.len(), 1);
        assert!(result.total_cost.is_finite());
    }

    #[test]
    fn weights_bias_selection() {
        let (catalog, stats, inproc, author) = setup();
        let query = paper_query(inproc, author);
        let heavy = tune(&catalog, &stats, &[(&query, 100.0)], 1e12);
        let light = tune(&catalog, &stats, &[(&query, 1.0)], 1e12);
        // Same structures either way for a single query, but total cost
        // scales with the weight.
        assert!((heavy.total_cost - 100.0 * light.total_cost).abs() < 1e-6 * heavy.total_cost);
    }
}
