//! The paper's Greedy search (Fig. 3) over the joint logical + physical
//! design space, with every Section 4 optimization:
//!
//! * line 1 — workload-based candidate selection (Section 4.5) with the
//!   statistics-based repetition-split count (Section 4.6),
//! * line 2 — the initial mapping `M0` applies all split-type candidates,
//! * line 3 — candidate merging (Section 4.7),
//! * line 5 — the physical design tool on `M0`,
//! * lines 6-19 — greedy descent over merge-type candidates, costing each
//!   enumerated mapping with cost derivation (Section 4.8) and re-estimating
//!   the accepted mapping exactly,
//! * subsumed transformations are never enumerated (Section 4.3).
//!
//! Every optimization has an ablation flag in [`GreedyOptions`], which the
//! benchmark harness uses to regenerate Figs. 7-9.

use crate::candidates::{query_leaves, select_candidates, QueryLeaves};
use crate::context::EvalContext;
use crate::cost_derive::DerivationContext;
use crate::merging::merge_candidates;
pub use crate::merging::MergeStrategy;
use crate::moves::SearchMove;
use crate::search::{improves, AdvisorOutcome, SearchOptions, SearchRun, SearchStats, Tuned};
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::transform::{enumerate_transformations, Transformation};

/// Ablation switches for the Greedy search, plus the knobs every search
/// shares.
#[derive(Debug, Clone)]
pub struct GreedyOptions {
    /// Candidate merging strategy (Fig. 8).
    pub merge_strategy: MergeStrategy,
    /// Skip subsumed transformations (Section 4.3; Fig. 7 ablation).
    pub subsumption_pruning: bool,
    /// Use per-query candidate selection (Section 4.5; Fig. 7 ablation).
    /// When off, every applicable nonsubsumed transformation is a candidate.
    pub candidate_selection: bool,
    /// Use cost derivation (Section 4.8; Fig. 9 ablation).
    pub cost_derivation: bool,
    /// Safety bound on greedy rounds.
    pub max_rounds: usize,
    /// Threads, plan cache, anytime deadline and metrics sink. Output is
    /// bit-identical for any threads or plan-cache value; past the
    /// deadline the descent returns the best mapping found so far with
    /// `degraded = true` on the outcome.
    pub search: SearchOptions,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            merge_strategy: MergeStrategy::Greedy,
            subsumption_pruning: true,
            candidate_selection: true,
            cost_derivation: true,
            max_rounds: 32,
            search: SearchOptions::default(),
        }
    }
}

/// Run the Greedy search.
pub fn greedy_search(ctx: &EvalContext<'_>, options: &GreedyOptions) -> AdvisorOutcome {
    // One memo table for the whole search: every tuning invocation (exact
    // evaluations, derivation remainders, the base comparison) shares the
    // run's oracle, so re-planned contexts — the same mapping re-tuned,
    // unchanged incumbents re-costed — are answered from cache.
    let run = SearchRun::new("greedy", &options.search);
    let mut stats = SearchStats::default();
    let tree = ctx.tree;
    let base = Mapping::hybrid(tree);
    let leaves: Vec<QueryLeaves> = ctx
        .workload
        .iter()
        .map(|(p, _)| query_leaves(tree, p))
        .collect();

    // ------------------------------------------------ candidate selection --
    let (splits, mut moves): (Vec<Transformation>, Vec<SearchMove>) = if options.candidate_selection
    {
        let set = select_candidates(tree, &base, ctx.source, ctx.workload);
        (set.splits, set.merges)
    } else {
        let all = enumerate_transformations(tree, &base, &|star| ctx.split_count(star));
        let splits: Vec<Transformation> = all
            .iter()
            .filter(|t| !t.kind().is_subsumed() && !t.kind().is_merge_type())
            .cloned()
            .collect();
        (splits, Vec::new())
    };

    // ----------------------------------------------------- initial mapping --
    let mut mapping = base.clone();
    for t in &splits {
        if let Ok(next) = t.apply(tree, &mapping) {
            mapping = next;
        }
    }

    let mut incumbent = run.evaluate(ctx, mapping, run.threads(), &mut stats);

    // Without candidate selection, merge-type candidates are every
    // applicable nonsubsumed merge transformation under M0.
    if !options.candidate_selection {
        moves = enumerate_transformations(tree, &incumbent.mapping, &|star| ctx.split_count(star))
            .into_iter()
            .filter(|t| !t.kind().is_subsumed() && t.kind().is_merge_type())
            .map(SearchMove::One)
            .collect();
    }

    // ----------------------------------------------------- candidate merging --
    {
        let per_cost: Vec<f64> = incumbent
            .per_query
            .iter()
            .map(|p| p.as_ref().map(|i| i.cost).unwrap_or(0.0))
            .collect();
        let weights: Vec<f64> = ctx.workload.iter().map(|(_, w)| *w).collect();
        let merged = merge_candidates(
            tree,
            ctx.source,
            &incumbent.mapping,
            &incumbent.prepared,
            &leaves,
            &per_cost,
            &weights,
            options.merge_strategy,
        );
        moves.extend(merged);
    }

    // ------------------------------------------------------- greedy descent --
    for _round in 0..options.max_rounds {
        if run.expired(&mut stats) {
            break;
        }
        let mut round_moves: Vec<SearchMove> = moves.clone();
        if !options.subsumption_pruning {
            // Ablation: also search the subsumed transformations.
            round_moves.extend(
                enumerate_transformations(tree, &incumbent.mapping, &|star| ctx.split_count(star))
                    .into_iter()
                    .filter(|t| t.kind().is_subsumed())
                    .map(SearchMove::One),
            );
        }

        let best = run.round(&round_moves, &mut stats, |mv, local| {
            let next_mapping = mv.apply(tree, &incumbent.mapping).ok()?;
            if options.cost_derivation {
                let cost = estimate_with_derivation(
                    &run,
                    ctx,
                    &incumbent,
                    &leaves,
                    mv,
                    &next_mapping,
                    local,
                );
                Some((next_mapping, cost))
            } else {
                let exact = run.evaluate(ctx, next_mapping, 1, local);
                Some((exact.mapping, exact.total_cost))
            }
        });

        let Some((winner, next_mapping, estimated)) = best else {
            break;
        };
        // Accepting the winner requires an exact re-evaluation; past the
        // deadline we keep the (already exact) incumbent instead.
        if !improves(estimated, incumbent.total_cost) || run.expired(&mut stats) {
            break;
        }
        // Line 18: re-estimate the winner exactly, then accept. With the
        // plan cache on, this replays the estimate-phase planning against
        // the same context and is served almost entirely from the memo
        // table. A derived estimate that proves optimistic drops the move
        // and retries.
        let exact = run.evaluate(ctx, next_mapping, run.threads(), &mut stats);
        if improves(exact.total_cost, incumbent.total_cost) {
            incumbent = exact;
        }
        moves.retain(|m| m != &round_moves[winner]);
    }

    // Safeguard: never recommend something worse than the tuned base
    // (hybrid inlining) mapping, the paper's practical starting point
    // (Section 2.2). Skipped past the deadline — the incumbent stays the
    // best fully evaluated design.
    if !run.expired(&mut stats) {
        let base_eval = run.evaluate(ctx, base, run.threads(), &mut stats);
        if base_eval.total_cost < incumbent.total_cost {
            incumbent = base_eval;
        }
    }

    run.finish(
        stats,
        incumbent.mapping,
        incumbent.config,
        incumbent.total_cost,
    )
}

/// Section 4.8: derive what we can from the incumbent, tune the rest with
/// the remaining budget. Runs inside the move round, so its tuning is
/// serial.
fn estimate_with_derivation(
    run: &SearchRun<'_>,
    ctx: &EvalContext<'_>,
    incumbent: &Tuned,
    leaves: &[QueryLeaves],
    mv: &SearchMove,
    next_mapping: &Mapping,
    stats: &mut SearchStats,
) -> f64 {
    let derivation = DerivationContext {
        tree: ctx.tree,
        mapping: &incumbent.mapping,
        prepared: &incumbent.prepared,
        query_leaves: leaves,
    };

    let prepared_next = ctx.prepare(next_mapping);
    let mut derived_cost = 0.0;
    let mut derived_bytes = 0.0;
    let mut to_tune: Vec<(usize, f64)> = Vec::new();
    for (qi, (_, weight)) in ctx.workload.iter().enumerate() {
        let translatable_next = prepared_next.queries[qi].is_some();
        match (&incumbent.per_query[qi], translatable_next) {
            (Some(info), true) if derivation.derivable(mv, qi) => {
                derived_cost += info.cost * weight;
                derived_bytes += info.used_bytes;
                stats.costs_derived += 1;
            }
            (_, true) => to_tune.push((qi, *weight)),
            (_, false) => {}
        }
    }

    if to_tune.is_empty() {
        return derived_cost;
    }
    let queries: Vec<(&xmlshred_rel::sql::SqlQuery, f64)> = to_tune
        .iter()
        .map(|&(qi, w)| {
            let (sql, _) = prepared_next.queries[qi].as_ref().expect("translatable");
            (sql, w)
        })
        .collect();
    let remaining_budget = (ctx.space_budget - derived_bytes).max(0.0);
    derived_cost
        + run
            .tune(&prepared_next, &queries, remaining_budget, 1, stats)
            .total_cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlshred_data::movie::{generate_movie, MovieConfig};
    use xmlshred_shred::source_stats::SourceStats;
    use xmlshred_xpath::parser::parse_path;

    fn movie_ctx() -> (
        xmlshred_data::Dataset,
        SourceStats,
        Vec<(xmlshred_xpath::ast::Path, f64)>,
    ) {
        let ds = generate_movie(&MovieConfig {
            n_movies: 2_000,
            // A seed whose dataset rewards structural transformations, so
            // the split-application test exercises a real descent.
            seed: 2,
            ..MovieConfig::default()
        })
        .unwrap();
        let source = SourceStats::collect(&ds.tree, &ds.document);
        let workload = vec![
            (parse_path("//movie[year = 1990]/box_office").unwrap(), 1.0),
            (parse_path("//movie/avg_rating").unwrap(), 1.0),
            (
                parse_path("//movie[genre = \"Genre 3\"]/(title | aka_title)").unwrap(),
                1.0,
            ),
        ];
        (ds, source, workload)
    }

    #[test]
    fn greedy_improves_over_hybrid() {
        let (ds, source, workload) = movie_ctx();
        let ctx = EvalContext {
            tree: &ds.tree,
            source: &source,
            workload: &workload,
            space_budget: 1e12,
        };
        let outcome = greedy_search(&ctx, &GreedyOptions::default());
        // Hybrid + tuning baseline.
        let uncached = SearchOptions {
            plan_cache: false,
            ..SearchOptions::default()
        };
        let baseline = SearchRun::new("greedy", &uncached).evaluate(
            &ctx,
            Mapping::hybrid(&ds.tree),
            1,
            &mut SearchStats::default(),
        );
        assert!(
            outcome.estimated_cost <= baseline.total_cost + 1e-9,
            "greedy {} vs hybrid {}",
            outcome.estimated_cost,
            baseline.total_cost
        );
        assert!(outcome.stats.transformations_searched > 0);
        assert!(outcome.stats.physical_tool_calls > 0);
    }

    #[test]
    fn greedy_applies_nonsubsumed_splits() {
        let (ds, source, workload) = movie_ctx();
        let ctx = EvalContext {
            tree: &ds.tree,
            source: &source,
            workload: &workload,
            space_budget: 1e12,
        };
        let outcome = greedy_search(&ctx, &GreedyOptions::default());
        // The workload projects box_office-only and avg_rating-only
        // queries: some horizontal partitioning or repetition split should
        // survive in the final mapping.
        let has_structure =
            !outcome.mapping.partitions.is_empty() || !outcome.mapping.rep_splits.is_empty();
        assert!(has_structure, "{:?}", outcome.mapping);
    }

    #[test]
    fn derivation_reduces_tool_calls() {
        let (ds, source, workload) = movie_ctx();
        let ctx = EvalContext {
            tree: &ds.tree,
            source: &source,
            workload: &workload,
            space_budget: 1e12,
        };
        let with = greedy_search(&ctx, &GreedyOptions::default());
        let without = greedy_search(
            &ctx,
            &GreedyOptions {
                cost_derivation: false,
                ..GreedyOptions::default()
            },
        );
        assert!(with.stats.costs_derived > 0);
        assert!(with.stats.optimizer_calls <= without.stats.optimizer_calls);
    }

    #[test]
    fn no_subsumption_pruning_searches_more() {
        let (ds, source, workload) = movie_ctx();
        let ctx = EvalContext {
            tree: &ds.tree,
            source: &source,
            workload: &workload,
            space_budget: 1e12,
        };
        let pruned = greedy_search(&ctx, &GreedyOptions::default());
        let unpruned = greedy_search(
            &ctx,
            &GreedyOptions {
                subsumption_pruning: false,
                ..GreedyOptions::default()
            },
        );
        assert!(unpruned.stats.transformations_searched > pruned.stats.transformations_searched);
    }

    #[test]
    fn expired_deadline_still_returns_valid_outcome() {
        let (ds, source, workload) = movie_ctx();
        let ctx = EvalContext {
            tree: &ds.tree,
            source: &source,
            workload: &workload,
            space_budget: 1e12,
        };
        let outcome = greedy_search(
            &ctx,
            &GreedyOptions {
                search: SearchOptions {
                    deadline: crate::search::Deadline::at(
                        std::time::Instant::now() - std::time::Duration::from_secs(1),
                    ),
                    ..SearchOptions::default()
                },
                ..GreedyOptions::default()
            },
        );
        assert!(outcome.degraded);
        assert!(outcome.stats.deadline_hit);
        assert!(outcome.estimated_cost.is_finite());
    }

    #[test]
    fn no_candidate_selection_searches_more() {
        let (ds, source, workload) = movie_ctx();
        let ctx = EvalContext {
            tree: &ds.tree,
            source: &source,
            workload: &workload,
            space_budget: 1e12,
        };
        let selected = greedy_search(&ctx, &GreedyOptions::default());
        let unselected = greedy_search(
            &ctx,
            &GreedyOptions {
                candidate_selection: false,
                ..GreedyOptions::default()
            },
        );
        assert!(
            unselected.stats.transformations_searched >= selected.stats.transformations_searched
        );
    }
}
