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
use crate::search::{improves, AdvisorOutcome, SearchOptions, SearchRun, SearchStats};
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
    let run = SearchRun::new("twostep", options);
    let mut stats = SearchStats::default();
    let tree = ctx.tree;

    // ------------------------------ phase 1: logical design in isolation --
    let mut mapping = Mapping::hybrid(tree);
    let mut cost = best_guess_cost(ctx, &mapping, &mut stats, run.oracle());
    for _round in 0..max_rounds {
        // Phase 2 still runs past the deadline, so the outcome always
        // carries a real tuned configuration.
        if run.expired(&mut stats) {
            break;
        }
        let transformations =
            enumerate_transformations(tree, &mapping, &|star| ctx.split_count(star));
        let best = run.round(&transformations, &mut stats, |t, local| {
            let next = t.apply(tree, &mapping).ok()?;
            let next_cost = best_guess_cost(ctx, &next, local, run.oracle());
            Some((next, next_cost))
        });
        match best {
            Some((_, next, next_cost)) if improves(next_cost, cost) => {
                mapping = next;
                cost = next_cost;
            }
            _ => break,
        }
    }

    // ------------------------------------ phase 2: physical design once --
    let tuned = run.evaluate(ctx, mapping, run.threads(), &mut stats);
    run.finish(stats, tuned.mapping, tuned.config, tuned.total_cost)
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
