//! Chaos integration tests: the robustness contract of the whole advisor
//! stack under anytime deadlines, storage faults and malformed input.
//!
//! * Deadline-bounded runs return well-formed, possibly `degraded`
//!   results.
//! * Storage faults and page budgets surface as typed transient errors
//!   through `Database::execute`, and clearing the plane restores normal
//!   operation.
//! * Malformed inputs (truncated XML, invalid XPath) fail with typed
//!   errors and do not poison subsequent valid work.

use xmlshred::data::movie::{generate_movie, MovieConfig};
use xmlshred::data::workload::{movie_workload, Projections, Selectivity, WorkloadSpec};
use xmlshred::prelude::*;
use xmlshred::xml::parser::parse_document;

fn setup() -> (
    xmlshred::data::Dataset,
    SourceStats,
    Vec<(xmlshred::xpath::ast::Path, f64)>,
    f64,
) {
    let config = MovieConfig {
        n_movies: 400,
        ..MovieConfig::default()
    };
    let dataset = generate_movie(&config).expect("dataset generates");
    let source = SourceStats::collect(&dataset.tree, &dataset.document);
    let workload = movie_workload(
        &WorkloadSpec {
            projections: Projections::Low,
            selectivity: Selectivity::Low,
            n_queries: 4,
            seed: 8,
        },
        config.years,
        config.n_genres,
    )
    .expect("workload generates")
    .queries;
    let budget = 3.0 * dataset.approx_bytes() as f64;
    (dataset, source, workload, budget)
}

fn run_all(ctx: &EvalContext<'_>, deadline: Deadline) -> Vec<AdvisorOutcome> {
    let search = SearchOptions {
        deadline,
        ..SearchOptions::default()
    };
    vec![
        greedy_search(
            ctx,
            &GreedyOptions {
                search: search.clone(),
                ..GreedyOptions::default()
            },
        ),
        naive_greedy_search_with(ctx, 2, &search),
        two_step_search_with(ctx, 3, &search),
    ]
}

#[test]
fn deadline_bounded_runs_return_valid_best_so_far() {
    let (dataset, source, workload, budget) = setup();
    let ctx = EvalContext {
        tree: &dataset.tree,
        source: &source,
        workload: &workload,
        space_budget: budget,
    };
    // A generous-but-real budget: results must be well-formed whether or
    // not the deadline fires.
    for outcome in run_all(&ctx, Deadline::from_millis(250)) {
        assert!(!outcome.estimated_cost.is_nan());
    }
    // An already-expired deadline: every strategy degrades gracefully to
    // its baseline guess instead of panicking or stalling.
    for (i, outcome) in run_all(&ctx, Deadline::from_millis(0)).iter().enumerate() {
        assert!(
            outcome.degraded,
            "strategy {i}: expired deadline not marked"
        );
        assert!(outcome.stats.deadline_hit);
        assert!(!outcome.estimated_cost.is_nan());
    }
    // The physical tuner alone under an expired deadline still produces a
    // complete (empty-config) result.
    let prepared = ctx.prepare(&Mapping::hybrid(&dataset.tree));
    let translated = prepared.translated(&workload);
    let queries: Vec<(&xmlshred::rel::sql::SqlQuery, f64)> =
        translated.iter().map(|(_, q, w)| (*q, *w)).collect();
    let oracle = CostOracle::new(true);
    let result = tune_with(
        &prepared.catalog,
        &prepared.stats,
        &queries,
        &[],
        budget,
        &oracle,
        &TuneOptions {
            threads: 1,
            deadline: Deadline::from_millis(0),
            ..TuneOptions::default()
        },
    );
    assert!(result.degraded);
    assert!(result.total_cost.is_finite());
    assert_eq!(result.per_query.len(), queries.len());
}

#[test]
fn storage_faults_and_budgets_are_typed_and_recoverable() {
    let (dataset, _, workload, _) = setup();
    let mapping = Mapping::hybrid(&dataset.tree);
    let schema = derive_schema(&dataset.tree, &mapping);
    let mut db = load_database(&dataset.tree, &mapping, &schema, &[&dataset.document])
        .expect("load succeeds");
    let queries: Vec<_> = workload
        .iter()
        .filter_map(|(path, _)| translate(&dataset.tree, &mapping, &schema, path).ok())
        .map(|t| t.sql)
        .collect();
    assert!(!queries.is_empty());

    // Certain storage faults: every query fails with a transient error.
    db.set_fault_config(FaultConfig {
        seed: 13,
        p_storage: 1.0,
        ..FaultConfig::default()
    });
    for query in &queries {
        let err = db.execute(query).expect_err("p_storage=1.0 must fail");
        assert!(err.is_transient(), "expected transient fault, got {err}");
    }
    let stats = db.fault_plane().expect("plane armed").snapshot();
    assert!(stats.storage_faults as usize >= queries.len());

    // A one-page budget: execution fails with a non-transient
    // resource-exhaustion error rather than a fault.
    db.set_fault_config(FaultConfig {
        seed: 13,
        budget_pages: Some(1),
        ..FaultConfig::default()
    });
    let mut denials = 0;
    for query in &queries {
        if let Err(err) = db.execute(query) {
            assert!(!err.is_transient(), "budget denial must not be transient");
            denials += 1;
        }
    }
    assert!(denials > 0, "a one-page budget must deny something");

    // Clearing the plane restores normal operation on the same handle.
    db.clear_fault_config();
    assert!(db.fault_plane().is_none());
    for query in &queries {
        db.execute(query).expect("clean execution after clearing");
    }
}

#[test]
fn malformed_inputs_fail_typed_and_do_not_poison_valid_work() {
    // Truncated XML document.
    let err = parse_document("<movies><movie><title>Heat</title>").unwrap_err();
    assert!(err.to_string().to_lowercase().contains("open"));

    // Invalid XPath.
    assert!(parse_path("//movie[year = ]/title").is_err());
    assert!(parse_path("").is_err());

    // The same process continues to handle valid inputs end to end.
    let (dataset, source, workload, budget) = setup();
    let ctx = EvalContext {
        tree: &dataset.tree,
        source: &source,
        workload: &workload,
        space_budget: budget,
    };
    let outcome = greedy_search(&ctx, &GreedyOptions::default());
    assert!(outcome.estimated_cost.is_finite());
    assert!(!outcome.degraded);
}
