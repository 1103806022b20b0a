//! Two-Step (Section 5.1.1): select the logical mapping *without*
//! considering physical design, then run the physical design tool once on
//! the winner.
//!
//! The first phase assumes the "best guess" physical configuration — a
//! clustered primary-key index on `ID` plus a nonclustered index on `PID`
//! for every table — and greedily descends over all transformations using
//! plain optimizer costing (no tuning tool). This is the baseline whose
//! quality Figs. 4a/4b show to be on average 77% (DBLP) / 47% (Movie) worse
//! than the joint search.

use crate::context::{EvalContext, PreparedMapping};
use crate::oracle::CostOracle;
use crate::parallel::parallel_map;
use crate::physical::{tune_with, TuneOptions};
use crate::search::{AdvisorOutcome, SearchOptions, SearchStats};
use std::time::Instant;
use xmlshred_rel::index::IndexDef;
use xmlshred_rel::optimizer::{
    config_fingerprint, context_fingerprint, query_fingerprint, PhysicalConfig,
};
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::schema::ColumnSource;
use xmlshred_shred::transform::enumerate_transformations;

/// Run Two-Step.
pub fn two_step_search(ctx: &EvalContext<'_>, max_rounds: usize) -> AdvisorOutcome {
    two_step_search_with(ctx, max_rounds, &SearchOptions::default())
}

/// Two-Step with explicit parallelism/caching knobs; output is bit-identical
/// for any [`SearchOptions`] value.
pub fn two_step_search_with(
    ctx: &EvalContext<'_>,
    max_rounds: usize,
    options: &SearchOptions,
) -> AdvisorOutcome {
    let start = Instant::now();
    let _span = options.metrics.as_ref().map(|m| m.span("search.twostep"));
    let mut stats = SearchStats::default();
    let oracle = CostOracle::new(options.plan_cache);
    let deadline = &options.deadline;
    let bounded = !deadline.is_unbounded();
    let tree = ctx.tree;

    // ------------------------------ phase 1: logical design in isolation --
    let mut mapping = Mapping::hybrid(tree);
    let mut cost = best_guess_cost(ctx, &mapping, &mut stats, &oracle);
    for _round in 0..max_rounds {
        // Anytime cutoff at round boundaries; phase 2 still runs so the
        // outcome always carries a real tuned configuration.
        if bounded && deadline.expired() {
            stats.deadline_hit = true;
            break;
        }
        let transformations =
            enumerate_transformations(tree, &mapping, &|star| ctx.split_count(star));
        // Fan out the independent best-guess costings; reduce serially in
        // enumeration order so the accepted transformation is independent
        // of the thread count.
        let mapping_ref = &mapping;
        let evaluations: Vec<Option<Option<(Mapping, f64, SearchStats)>>> = parallel_map(
            &transformations,
            options.threads,
            deadline,
            options.metrics.as_deref(),
            || (),
            |_, _i, t| {
                let Ok(next) = t.apply(tree, mapping_ref) else {
                    return None;
                };
                let mut local = SearchStats {
                    transformations_searched: 1,
                    ..SearchStats::default()
                };
                let next_cost = best_guess_cost(ctx, &next, &mut local, &oracle);
                Some((next, next_cost, local))
            },
        );
        let mut best: Option<(Mapping, f64)> = None;
        for evaluation in evaluations {
            // Outer `None`: the deadline lapsed before this costing started.
            let Some(evaluation) = evaluation else {
                stats.deadline_hit = true;
                continue;
            };
            let Some((next, next_cost, local)) = evaluation else {
                continue;
            };
            stats.absorb(&local);
            if best.as_ref().map(|(_, c)| next_cost < *c).unwrap_or(true) {
                best = Some((next, next_cost));
            }
        }
        match best {
            Some((next, next_cost)) if next_cost < cost * (1.0 - 1e-6) => {
                mapping = next;
                cost = next_cost;
            }
            _ => break,
        }
    }

    // ------------------------------------ phase 2: physical design once --
    let prepared = ctx.prepare(&mapping);
    let translated = prepared.translated(ctx.workload);
    let queries: Vec<(&xmlshred_rel::sql::SqlQuery, f64)> =
        translated.iter().map(|(_, q, w)| (*q, *w)).collect();
    let result = tune_with(
        &prepared.catalog,
        &prepared.stats,
        &queries,
        &[],
        ctx.space_budget,
        &oracle,
        &TuneOptions {
            threads: options.threads,
            metrics: options.metrics.clone(),
            deadline: deadline.clone(),
        },
    );
    stats.absorb_tune(result.optimizer_calls);
    stats.deadline_hit |= result.degraded;

    stats.absorb_cache(&oracle.snapshot());
    stats.elapsed = start.elapsed();
    if let Some(metrics) = &options.metrics {
        stats.register_into(metrics, "search.twostep");
        oracle.snapshot().register_into(metrics, "oracle");
    }
    let degraded = stats.deadline_hit;
    AdvisorOutcome {
        mapping,
        config: result.config,
        estimated_cost: result.total_cost,
        stats,
        degraded,
    }
}

/// The phase-1 "best guess" physical configuration: a PK index on `ID` and
/// a `PID` index per table.
pub fn best_guess_config(prepared: &PreparedMapping) -> PhysicalConfig {
    let mut config = PhysicalConfig::none();
    for (i, table) in prepared.schema.tables.iter().enumerate() {
        let table_id = xmlshred_rel::catalog::TableId(i as u32);
        if let Some(id_col) = table.column_position(&ColumnSource::Id) {
            // "A clustered index on primary key" (Section 5.1.1).
            config.indexes.push(
                IndexDef::new(format!("pk_{}", table.name), table_id, vec![id_col], vec![])
                    .clustered(),
            );
        }
        if let Some(pid_col) = table.column_position(&ColumnSource::Pid) {
            config.indexes.push(IndexDef::new(
                format!("fk_{}", table.name),
                table_id,
                vec![pid_col],
                vec![],
            ));
        }
    }
    config
}

fn best_guess_cost(
    ctx: &EvalContext<'_>,
    mapping: &Mapping,
    stats: &mut SearchStats,
    oracle: &CostOracle,
) -> f64 {
    let prepared = ctx.prepare(mapping);
    let config = best_guess_config(&prepared);
    // Keys feed the memo table; without it they are never read.
    let keyed = oracle.is_enabled();
    let (ctx_fp, config_fp) = if keyed {
        (
            context_fingerprint(&prepared.catalog, &prepared.stats),
            config_fingerprint(&config),
        )
    } else {
        (0, 0)
    };
    let mut total = 0.0;
    for (_, query, weight) in prepared.translated(ctx.workload) {
        let q_fp = if keyed { query_fingerprint(query) } else { 0 };
        let (cost, _, fresh) = oracle.query_cost(
            (ctx_fp, config_fp, q_fp),
            &prepared.catalog,
            &prepared.stats,
            &config,
            query,
        );
        if fresh {
            stats.optimizer_calls += 1;
        }
        total += cost * weight;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlshred_data::movie::{generate_movie, MovieConfig};
    use xmlshred_shred::source_stats::SourceStats;
    use xmlshred_xpath::parser::parse_path;

    #[test]
    fn two_step_completes() {
        let ds = generate_movie(&MovieConfig {
            n_movies: 800,
            ..MovieConfig::default()
        })
        .unwrap();
        let source = SourceStats::collect(&ds.tree, &ds.document);
        let workload = vec![
            (parse_path("//movie[year = 1990]/box_office").unwrap(), 1.0),
            (
                parse_path("//movie/(title | genre | avg_rating)").unwrap(),
                1.0,
            ),
        ];
        let ctx = EvalContext {
            tree: &ds.tree,
            source: &source,
            workload: &workload,
            space_budget: 1e12,
        };
        let outcome = two_step_search(&ctx, 3);
        assert!(outcome.estimated_cost.is_finite());
        // Phase 2 runs the tool exactly once.
        assert_eq!(outcome.stats.physical_tool_calls, 1);
    }

    #[test]
    fn best_guess_config_has_pk_fk_per_table() {
        let ds = generate_movie(&MovieConfig {
            n_movies: 100,
            ..MovieConfig::default()
        })
        .unwrap();
        let source = SourceStats::collect(&ds.tree, &ds.document);
        let workload = vec![(parse_path("//movie/title").unwrap(), 1.0)];
        let ctx = EvalContext {
            tree: &ds.tree,
            source: &source,
            workload: &workload,
            space_budget: 1e12,
        };
        let prepared = ctx.prepare(&Mapping::hybrid(&ds.tree));
        let config = best_guess_config(&prepared);
        assert_eq!(config.indexes.len(), prepared.schema.tables.len() * 2);
    }
}
