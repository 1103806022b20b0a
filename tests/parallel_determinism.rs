//! The tentpole invariant of the parallel advisor: for every search
//! algorithm, the recommendation (mapping, physical configuration, cost) is
//! bit-identical for any worker-thread count and with the what-if plan
//! cache on or off. Parallelism only fans out independent evaluations
//! (reduced serially in a fixed order) and the cache memoizes a pure
//! function.

use xmlshred::core::{CostOracle, SearchOptions};
use xmlshred::data::dblp::{generate_dblp, DblpConfig};
use xmlshred::data::workload::{dblp_workload, Projections, Selectivity, WorkloadSpec};
use xmlshred::prelude::*;
use xmlshred::rel::optimizer::{
    config_fingerprint, context_fingerprint, plan_query, plan_select, query_fingerprint,
    select_fingerprint,
};
use xmlshred::rel::sql::SqlQuery;

fn setup() -> (
    xmlshred::data::Dataset,
    SourceStats,
    Vec<(xmlshred::xpath::ast::Path, f64)>,
    f64,
) {
    let config = DblpConfig {
        n_inproceedings: 2_000,
        n_books: 200,
        ..DblpConfig::default()
    };
    let dataset = generate_dblp(&config).expect("dataset generates");
    let source = SourceStats::collect(&dataset.tree, &dataset.document);
    let spec = WorkloadSpec {
        projections: Projections::High,
        selectivity: Selectivity::Low,
        n_queries: 6,
        seed: 5,
    };
    let workload = dblp_workload(&spec, config.years, config.n_conferences)
        .expect("workload generates")
        .queries;
    let budget = 3.0 * dataset.approx_bytes() as f64;
    (dataset, source, workload, budget)
}

/// The four knob corners every algorithm must agree across.
fn corners() -> [SearchOptions; 4] {
    [
        SearchOptions {
            threads: 1,
            plan_cache: true,
            ..SearchOptions::default()
        },
        SearchOptions {
            threads: 4,
            plan_cache: true,
            ..SearchOptions::default()
        },
        SearchOptions {
            threads: 1,
            plan_cache: false,
            ..SearchOptions::default()
        },
        SearchOptions {
            threads: 4,
            plan_cache: false,
            ..SearchOptions::default()
        },
    ]
}

fn assert_same(reference: &AdvisorOutcome, other: &AdvisorOutcome, label: &str) {
    assert_eq!(reference.mapping, other.mapping, "{label}: mapping differs");
    assert_eq!(reference.config, other.config, "{label}: config differs");
    assert_eq!(
        reference.estimated_cost.to_bits(),
        other.estimated_cost.to_bits(),
        "{label}: cost differs ({} vs {})",
        reference.estimated_cost,
        other.estimated_cost
    );
}

#[test]
fn greedy_is_invariant_to_threads_and_cache() {
    let (dataset, source, workload, budget) = setup();
    let ctx = EvalContext {
        tree: &dataset.tree,
        source: &source,
        workload: &workload,
        space_budget: budget,
    };
    let outcomes: Vec<AdvisorOutcome> = corners()
        .iter()
        .map(|opts| {
            greedy_search(
                &ctx,
                &GreedyOptions {
                    search: opts.clone(),
                    ..GreedyOptions::default()
                },
            )
        })
        .collect();
    for (i, outcome) in outcomes.iter().enumerate().skip(1) {
        assert_same(&outcomes[0], outcome, &format!("greedy corner {i}"));
    }
    // The cached runs must actually exercise the memo table.
    assert!(
        outcomes[0].stats.cache_hits > 0,
        "greedy with plan cache produced no hits: {:?}",
        outcomes[0].stats
    );
    assert!(outcomes[0].stats.cache_hit_rate() > 0.0);
    // Cache-off runs report no lookups at all.
    assert_eq!(outcomes[2].stats.cache_hits, 0);
    assert_eq!(outcomes[2].stats.cache_misses, 0);
}

#[test]
fn naive_greedy_is_invariant_to_threads_and_cache() {
    let (dataset, source, workload, budget) = setup();
    let ctx = EvalContext {
        tree: &dataset.tree,
        source: &source,
        workload: &workload,
        space_budget: budget,
    };
    let outcomes: Vec<AdvisorOutcome> = corners()
        .iter()
        .map(|opts| naive_greedy_search_with(&ctx, 2, opts))
        .collect();
    for (i, outcome) in outcomes.iter().enumerate().skip(1) {
        assert_same(&outcomes[0], outcome, &format!("naive corner {i}"));
    }
    assert!(outcomes[0].stats.cache_hits > 0);
}

#[test]
fn two_step_is_invariant_to_threads_and_cache() {
    let (dataset, source, workload, budget) = setup();
    let ctx = EvalContext {
        tree: &dataset.tree,
        source: &source,
        workload: &workload,
        space_budget: budget,
    };
    let outcomes: Vec<AdvisorOutcome> = corners()
        .iter()
        .map(|opts| two_step_search_with(&ctx, 4, opts))
        .collect();
    for (i, outcome) in outcomes.iter().enumerate().skip(1) {
        assert_same(&outcomes[0], outcome, &format!("two-step corner {i}"));
    }
    assert!(outcomes[0].stats.cache_hits > 0);
}

/// Differential check of the oracle itself: every answer — first (miss) and
/// second (hit) — must equal a direct planner invocation. (Debug builds
/// additionally re-plan on every hit inside the oracle and assert equality;
/// this test also pins the release-build behavior.)
#[test]
fn plan_cache_answers_match_fresh_plans() {
    let (dataset, source, workload, budget) = setup();
    let ctx = EvalContext {
        tree: &dataset.tree,
        source: &source,
        workload: &workload,
        space_budget: budget,
    };
    let mapping = Mapping::hybrid(&dataset.tree);
    let prepared = ctx.prepare(&mapping);
    let translated = prepared.translated(&workload);
    assert!(!translated.is_empty());

    // A configuration with some structure, so used-object sets are
    // nontrivial: tune the translated workload once.
    let queries: Vec<(&SqlQuery, f64)> = translated.iter().map(|(_, q, w)| (*q, *w)).collect();
    let tuned = tune(&prepared.catalog, &prepared.stats, &queries, budget);
    let config = &tuned.config;
    assert!(!config.indexes.is_empty());

    let oracle = CostOracle::new(true);
    let ctx_fp = context_fingerprint(&prepared.catalog, &prepared.stats);
    let config_fp = config_fingerprint(config);
    for (_, query, _) in &translated {
        let key = (ctx_fp, config_fp, query_fingerprint(query));
        let direct = plan_query(&prepared.catalog, &prepared.stats, config, query).unwrap();
        for round in 0..2 {
            let (cost, used, fresh) =
                oracle.query_cost(key, &prepared.catalog, &prepared.stats, config, query);
            assert_eq!(fresh, round == 0, "freshness flag wrong on round {round}");
            assert_eq!(cost.to_bits(), direct.est_cost.to_bits());
            assert_eq!(used, direct.used_objects());
        }
        for branch in query.branches() {
            let bkey = (ctx_fp, config_fp, select_fingerprint(branch));
            let plan = plan_select(&prepared.catalog, &prepared.stats, config, branch).unwrap();
            for _ in 0..2 {
                let (cost, rows, _) =
                    oracle.select_cost(bkey, &prepared.catalog, &prepared.stats, config, branch);
                assert_eq!(cost.to_bits(), plan.est_cost().to_bits());
                assert_eq!(rows.to_bits(), plan.est_rows().to_bits());
            }
        }
    }
    let snap = oracle.snapshot();
    assert!(snap.hits > 0 && snap.misses > 0);
    assert_eq!(snap.evictions, 0);
    assert!(snap.entries > 0);
}
