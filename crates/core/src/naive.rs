//! Naive-Greedy (Section 4.2 / 5.1.1): the straightforward extension of the
//! prior logical-design greedy \[5\], \[18\] to the joint space. Every round it
//! enumerates *every* applicable transformation — subsumed ones included —
//! and invokes the physical design tool on every enumerated mapping, with no
//! workload pruning and no cost derivation. This is the baseline whose
//! running time Figs. 5 and 6 show to be one to two orders of magnitude
//! worse than Greedy's.

use crate::context::EvalContext;
use crate::metrics::MetricsRegistry;
use crate::oracle::CostOracle;
use crate::parallel::parallel_map;
use crate::physical::{tune_with, TuneOptions};
use crate::search::{AdvisorOutcome, Deadline, SearchOptions, SearchStats};
use std::sync::Arc;
use std::time::Instant;
use xmlshred_rel::optimizer::PhysicalConfig;
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::transform::enumerate_transformations;

/// One fanned-out evaluation: outer `None` means the deadline expired
/// before the slot started; inner `None` means the transformation did not
/// apply.
type Evaluation = Option<Option<(Mapping, PhysicalConfig, f64, SearchStats)>>;

/// Run Naive-Greedy. `max_rounds` bounds the descent (the paper let it run
/// for days; the harness keeps it finite).
pub fn naive_greedy_search(ctx: &EvalContext<'_>, max_rounds: usize) -> AdvisorOutcome {
    naive_greedy_search_with(ctx, max_rounds, &SearchOptions::default())
}

/// Naive-Greedy with explicit parallelism/caching knobs; output is
/// bit-identical for any [`SearchOptions`] value.
pub fn naive_greedy_search_with(
    ctx: &EvalContext<'_>,
    max_rounds: usize,
    options: &SearchOptions,
) -> AdvisorOutcome {
    let start = Instant::now();
    let _span = options.metrics.as_ref().map(|m| m.span("search.naive"));
    let mut stats = SearchStats::default();
    let oracle = CostOracle::new(options.plan_cache);
    let deadline = &options.deadline;
    let bounded = !deadline.is_unbounded();
    let tree = ctx.tree;

    let mut mapping = Mapping::hybrid(tree);
    let (mut config, mut cost) = evaluate(
        ctx,
        &mapping,
        &mut stats,
        &oracle,
        options.threads,
        deadline,
        &options.metrics,
    );

    for _round in 0..max_rounds {
        // Anytime cutoff: the incumbent is fully evaluated, so stopping at
        // a round boundary always leaves a valid best-so-far design.
        if bounded && deadline.expired() {
            stats.deadline_hit = true;
            break;
        }
        let transformations =
            enumerate_transformations(tree, &mapping, &|star| ctx.split_count(star));
        // Independent full evaluations against the same incumbent mapping:
        // fan out, then reduce serially in enumeration order (strict `<`,
        // first index wins ties) so the accepted transformation does not
        // depend on the thread count.
        let mapping_ref = &mapping;
        let evaluations: Vec<Evaluation> = parallel_map(
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
                let (next_config, next_cost) = evaluate(
                    ctx,
                    &next,
                    &mut local,
                    &oracle,
                    1,
                    deadline,
                    &options.metrics,
                );
                Some((next, next_config, next_cost, local))
            },
        );
        let mut best: Option<(Mapping, PhysicalConfig, f64)> = None;
        for evaluation in evaluations {
            // Outer `None`: the deadline lapsed before this transformation
            // was evaluated.
            let Some(evaluation) = evaluation else {
                stats.deadline_hit = true;
                continue;
            };
            let Some((next, next_config, next_cost, local)) = evaluation else {
                continue;
            };
            stats.absorb(&local);
            if best
                .as_ref()
                .map(|(_, _, c)| next_cost < *c)
                .unwrap_or(true)
            {
                best = Some((next, next_config, next_cost));
            }
        }
        match best {
            Some((next, next_config, next_cost)) if next_cost < cost * (1.0 - 1e-6) => {
                mapping = next;
                config = next_config;
                cost = next_cost;
            }
            _ => break,
        }
    }

    stats.absorb_cache(&oracle.snapshot());
    stats.elapsed = start.elapsed();
    if let Some(metrics) = &options.metrics {
        stats.register_into(metrics, "search.naive");
        oracle.snapshot().register_into(metrics, "oracle");
    }
    let degraded = stats.deadline_hit;
    AdvisorOutcome {
        mapping,
        config,
        estimated_cost: cost,
        stats,
        degraded,
    }
}

fn evaluate(
    ctx: &EvalContext<'_>,
    mapping: &Mapping,
    stats: &mut SearchStats,
    oracle: &CostOracle,
    threads: usize,
    deadline: &Deadline,
    metrics: &Option<Arc<MetricsRegistry>>,
) -> (PhysicalConfig, f64) {
    let prepared = ctx.prepare(mapping);
    let translated = prepared.translated(ctx.workload);
    let queries: Vec<(&xmlshred_rel::sql::SqlQuery, f64)> =
        translated.iter().map(|(_, q, w)| (*q, *w)).collect();
    let result = tune_with(
        &prepared.catalog,
        &prepared.stats,
        &queries,
        &[],
        ctx.space_budget,
        oracle,
        &TuneOptions {
            threads,
            metrics: metrics.clone(),
            deadline: deadline.clone(),
        },
    );
    stats.absorb_tune(result.optimizer_calls);
    stats.deadline_hit |= result.degraded;
    (result.config, result.total_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlshred_data::movie::{generate_movie, MovieConfig};
    use xmlshred_shred::source_stats::SourceStats;
    use xmlshred_xpath::parser::parse_path;

    #[test]
    fn naive_converges_and_counts() {
        let ds = generate_movie(&MovieConfig {
            n_movies: 800,
            ..MovieConfig::default()
        })
        .unwrap();
        let source = SourceStats::collect(&ds.tree, &ds.document);
        let workload = vec![
            (parse_path("//movie[year = 1990]/box_office").unwrap(), 1.0),
            (parse_path("//movie/title").unwrap(), 1.0),
        ];
        let ctx = EvalContext {
            tree: &ds.tree,
            source: &source,
            workload: &workload,
            space_budget: 1e12,
        };
        let outcome = naive_greedy_search(&ctx, 3);
        assert!(outcome.estimated_cost.is_finite());
        assert!(outcome.stats.transformations_searched > 10);
        // Naive calls the tool once per enumerated transformation.
        assert!(outcome.stats.physical_tool_calls > outcome.stats.transformations_searched / 2);
    }
}
