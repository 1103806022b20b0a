//! The observability layer's determinism contract: the metrics report's
//! **deterministic** section (counters, histogram count/sum/min/max, span
//! counts) is a pure function of `(seed, knobs)` — bit-identical for any
//! worker-thread count. Schedule-class counters (cache hits/misses,
//! optimizer calls counted from cache `fresh` flags) may differ across
//! thread counts, and wall-clock span nanoseconds are never compared.
//!
//! Also checks that a real end-to-end run passes the report's invariant
//! self-check: cache `hits + misses == lookups`, histogram bucket totals
//! equal their counts, and no violation counters fire.

use std::sync::Arc;
use xmlshred::core::SearchOptions;
use xmlshred::data::movie::{generate_movie, MovieConfig};
use xmlshred::data::workload::{movie_workload, Projections, Selectivity, WorkloadSpec};
use xmlshred::prelude::*;

fn setup(
    n_movies: usize,
) -> (
    xmlshred::data::Dataset,
    SourceStats,
    Vec<(xmlshred::xpath::ast::Path, f64)>,
    f64,
) {
    let config = MovieConfig {
        n_movies,
        ..MovieConfig::default()
    };
    let dataset = generate_movie(&config).expect("dataset generates");
    let source = SourceStats::collect(&dataset.tree, &dataset.document);
    let spec = WorkloadSpec {
        projections: Projections::Low,
        selectivity: Selectivity::Low,
        n_queries: 3,
        seed: 11,
    };
    let workload = movie_workload(&spec, config.years, config.n_genres)
        .expect("workload generates")
        .queries;
    let budget = 3.0 * dataset.approx_bytes() as f64;
    (dataset, source, workload, budget)
}

#[test]
fn greedy_metrics_deterministic_across_thread_counts() {
    let (dataset, source, workload, budget) = setup(1_500);
    let ctx = EvalContext {
        tree: &dataset.tree,
        source: &source,
        workload: &workload,
        space_budget: budget,
    };
    let mut fingerprints = Vec::new();
    for threads in [1usize, 4] {
        let metrics = MetricsRegistry::shared();
        let outcome = greedy_search(
            &ctx,
            &GreedyOptions {
                search: SearchOptions {
                    threads,
                    metrics: Some(Arc::clone(&metrics)),
                    ..SearchOptions::default()
                },
                ..GreedyOptions::default()
            },
        );
        assert!(outcome.estimated_cost.is_finite());
        let report = metrics.snapshot();

        // All three recorded tiers are present.
        assert!(
            report.deterministic["search.greedy.transformations_searched"] > 0,
            "search tier missing: {:?}",
            report.deterministic
        );
        assert!(report.deterministic["tune.candidates_generated"] > 0);
        assert!(report.deterministic["parallel.items"] > 0);
        assert!(
            report.schedule.contains_key("oracle.cache.lookups"),
            "oracle tier missing: {:?}",
            report.schedule
        );
        assert!(report.spans.contains_key("search.greedy"));
        assert!(report.spans.contains_key("tune"));

        // A real run must be internally consistent.
        let violations = report.self_check();
        assert!(violations.is_empty(), "threads={threads}: {violations:?}");

        fingerprints.push(report.deterministic_fingerprint());
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "deterministic metrics must not depend on the thread count"
    );
}

#[test]
fn baseline_strategies_record_deterministic_metrics() {
    let (dataset, source, workload, budget) = setup(800);
    let ctx = EvalContext {
        tree: &dataset.tree,
        source: &source,
        workload: &workload,
        space_budget: budget,
    };
    for (name, prefix) in [("naive", "search.naive"), ("twostep", "search.twostep")] {
        let mut fingerprints = Vec::new();
        for threads in [1usize, 4] {
            let metrics = MetricsRegistry::shared();
            let options = SearchOptions {
                threads,
                metrics: Some(Arc::clone(&metrics)),
                ..SearchOptions::default()
            };
            let outcome = match name {
                "naive" => naive_greedy_search_with(&ctx, 2, &options),
                _ => two_step_search_with(&ctx, 3, &options),
            };
            assert!(outcome.estimated_cost.is_finite());
            let report = metrics.snapshot();
            assert!(
                report.deterministic[&format!("{prefix}.transformations_searched")] > 0,
                "{name} missing search counters: {:?}",
                report.deterministic
            );
            let violations = report.self_check();
            assert!(
                violations.is_empty(),
                "{name} threads={threads}: {violations:?}"
            );
            fingerprints.push(report.deterministic_fingerprint());
        }
        assert_eq!(
            fingerprints[0], fingerprints[1],
            "{name} not thread-invariant"
        );
    }
}

#[test]
fn plan_cache_toggle_changes_only_schedule_section() {
    let (dataset, source, workload, budget) = setup(1_000);
    let ctx = EvalContext {
        tree: &dataset.tree,
        source: &source,
        workload: &workload,
        space_budget: budget,
    };
    let mut fingerprints = Vec::new();
    for plan_cache in [true, false] {
        let metrics = MetricsRegistry::shared();
        greedy_search(
            &ctx,
            &GreedyOptions {
                search: SearchOptions {
                    threads: 2,
                    plan_cache,
                    metrics: Some(Arc::clone(&metrics)),
                    ..SearchOptions::default()
                },
                ..GreedyOptions::default()
            },
        );
        fingerprints.push(metrics.snapshot().deterministic_fingerprint());
    }
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "the plan cache must not leak into deterministic metrics"
    );
}
