//! Naive-Greedy (Section 4.2 / 5.1.1): the straightforward extension of the
//! prior logical-design greedy \[5\], \[18\] to the joint space. Every round it
//! enumerates *every* applicable transformation — subsumed ones included —
//! and invokes the physical design tool on every enumerated mapping, with no
//! workload pruning and no cost derivation. This is the baseline whose
//! running time Figs. 5 and 6 show to be one to two orders of magnitude
//! worse than Greedy's.

use crate::context::EvalContext;
use crate::search::{improves, AdvisorOutcome, SearchOptions, SearchRun, SearchStats};
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::transform::enumerate_transformations;

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
    let run = SearchRun::new("naive", options);
    let mut stats = SearchStats::default();
    let tree = ctx.tree;

    let start = run.evaluate(ctx, Mapping::hybrid(tree), run.threads(), &mut stats);
    let (mut mapping, mut config, mut cost) = (start.mapping, start.config, start.total_cost);
    for _round in 0..max_rounds {
        if run.expired(&mut stats) {
            break;
        }
        // Every transformation, subsumed ones included, each tuned in full.
        let transformations =
            enumerate_transformations(tree, &mapping, &|star| ctx.split_count(star));
        let best = run.round(&transformations, &mut stats, |t, local| {
            let next = run.evaluate(ctx, t.apply(tree, &mapping).ok()?, 1, local);
            Some(((next.mapping, next.config), next.total_cost))
        });
        match best {
            Some((_, (next, next_config), next_cost)) if improves(next_cost, cost) => {
                mapping = next;
                config = next_config;
                cost = next_cost;
            }
            _ => break,
        }
    }
    run.finish(stats, mapping, config, cost)
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
