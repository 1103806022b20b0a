//! The morsel-driven executor's determinism and accounting contracts:
//!
//! * **Thread invariance** — for any executor thread count, every query
//!   returns bit-identical rows, bit-identical measured [`ExecStats`]
//!   (f64 costs compared by bit pattern), and an identical deterministic
//!   execution profile (morsel dispatch counts, rows-per-morsel, operator
//!   invocation counts). Only wall-clock nanoseconds may differ.
//! * **Fault-plane invariance** — with a fault plane armed, the page-budget
//!   charge is also thread-invariant: storage gates fire once per access,
//!   before morsel fan-out, never once per worker.
//! * **Accounting parity** — measured execution cost stays within a bounded
//!   ratio of the optimizer's estimate for every workload query, on both
//!   fixtures, so cost-model drift between the estimator and the executor
//!   is caught here rather than in skewed figures.

use xmlshred::data::dblp::{generate_dblp, DblpConfig};
use xmlshred::data::movie::{generate_movie, MovieConfig};
use xmlshred::data::workload::{
    dblp_workload, movie_workload, Projections, Selectivity, WorkloadSpec,
};
use xmlshred::data::Dataset;
use xmlshred::prelude::*;
use xmlshred::rel::fault::FaultConfig;
use xmlshred::rel::plan::{Access, BranchPlan, JoinAlgo, JoinNode, QueryPlan, ScanNode};
use xmlshred::rel::sql::SqlQuery;
use xmlshred::rel::ExecOptions;
use xmlshred::rel::{Filter, FilterOp, Output, Value};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Small morsels so even the small test fixtures fan out to many morsels.
const MORSEL_ROWS: usize = 128;

/// Build each fixture with a tuned hybrid design plus its translated
/// workload queries.
fn fixtures() -> Vec<(&'static str, Database, Vec<SqlQuery>)> {
    let mut out = Vec::new();

    let dblp = generate_dblp(&DblpConfig {
        n_inproceedings: 1_200,
        n_books: 120,
        ..DblpConfig::default()
    })
    .expect("dataset generates");
    let dblp_spec = WorkloadSpec {
        projections: Projections::High,
        selectivity: Selectivity::Low,
        n_queries: 5,
        seed: 11,
    };
    let dblp_queries = dblp_workload(&dblp_spec, (1970, 2004), 20)
        .expect("dblp workload generates")
        .queries;
    out.push(build("dblp", &dblp, &dblp_queries));

    let movie = generate_movie(&MovieConfig {
        n_movies: 1_500,
        ..MovieConfig::default()
    })
    .expect("dataset generates");
    let movie_config = MovieConfig::default();
    let movie_spec = WorkloadSpec {
        projections: Projections::Low,
        selectivity: Selectivity::High,
        n_queries: 5,
        seed: 12,
    };
    let movie_queries = movie_workload(&movie_spec, movie_config.years, movie_config.n_genres)
        .expect("movie workload generates")
        .queries;
    out.push(build("movie", &movie, &movie_queries));

    out
}

fn build(
    name: &'static str,
    dataset: &Dataset,
    workload: &[(xmlshred::xpath::ast::Path, f64)],
) -> (&'static str, Database, Vec<SqlQuery>) {
    let mapping = Mapping::hybrid(&dataset.tree);
    let schema = derive_schema(&dataset.tree, &mapping);
    let mut db =
        load_database(&dataset.tree, &mapping, &schema, &[&dataset.document]).expect("load");
    let queries: Vec<SqlQuery> = workload
        .iter()
        .filter_map(|(path, _)| {
            translate(&dataset.tree, &mapping, &schema, path)
                .ok()
                .map(|t| t.sql)
        })
        .collect();
    assert!(!queries.is_empty(), "{name}: no query translated");
    // Tune so the sweep covers index seeks (covering and not), not just
    // sequential scans.
    let query_refs: Vec<(&SqlQuery, f64)> = queries.iter().map(|q| (q, 1.0)).collect();
    let tuned = tune(
        db.catalog(),
        db.all_stats(),
        &query_refs,
        3.0 * dataset.approx_bytes() as f64,
    );
    db.apply_config(&tuned.config).expect("config builds");
    (name, db, queries)
}

/// Everything about an execution that must not depend on the thread count.
fn deterministic_view(
    outcome: &xmlshred::rel::db::QueryOutcome,
) -> (Vec<xmlshred::rel::types::Row>, u64, u64, usize, u64, String) {
    (
        outcome.rows.clone(),
        outcome.exec.io_cost.to_bits(),
        outcome.exec.cpu_cost.to_bits(),
        outcome.exec.rows_out,
        outcome.exec.tuples_processed,
        outcome.profile.deterministic_fingerprint(),
    )
}

/// A hand-built index-nested-loop plan (the tuned designs never choose
/// one): the first ID-range of the first indexed table, self-joined on the
/// index's key column through that index.
fn inlj_plan(db: &Database) -> QueryPlan {
    let index = &db.built_config().indexes[0];
    let key = index.key_columns[0];
    let scan = |table_ref, filters| ScanNode {
        table_ref,
        access: Access::SeqScan,
        filters,
        est_rows: 0.0,
        est_cost: 0.0,
    };
    QueryPlan {
        branches: vec![BranchPlan::Pipeline {
            tables: vec![index.table, index.table],
            driver: scan(0, vec![Filter::new(0, 0, FilterOp::Lt, Value::Int(256))]),
            joins: vec![JoinNode {
                inner: scan(1, vec![]),
                algo: JoinAlgo::IndexNestedLoop {
                    index: index.name.clone(),
                    covering: false,
                },
                outer_ref: 0,
                outer_col: key,
                inner_col: key,
                est_rows: 0.0,
                est_cost: 0.0,
            }],
            outputs: vec![Output::col(0, 0), Output::col(1, 0)],
            est_rows: 0.0,
            est_cost: 0.0,
        }],
        order_by: vec![],
        est_cost: 0.0,
        epoch: 0,
    }
}

/// Every executor fan-out site the sweep below must reach.
const FAN_OUT_SITES: [&str; 6] = [
    "scan.seq",
    "scan.index",
    "view.scan",
    "join.hash",
    "join.inlj",
    "project",
];

#[test]
fn results_stats_and_profiles_identical_across_exec_threads() {
    let mut hit = std::collections::BTreeSet::new();
    for (name, mut db, queries) in fixtures() {
        let mut plans: Vec<QueryPlan> = queries
            .iter()
            .map(|sql| db.plan(sql).expect("query plans"))
            .collect();
        plans.push(inlj_plan(&db));
        for (i, plan) in plans.iter().enumerate() {
            let mut baseline = None;
            for threads in THREADS {
                db.set_exec_options(ExecOptions {
                    threads,
                    morsel_rows: MORSEL_ROWS,
                });
                let outcome = db.execute_plan(plan.clone()).expect("plan executes");
                let view = deterministic_view(&outcome);
                match &baseline {
                    None => {
                        // The fixtures must actually exercise fan-out.
                        assert!(
                            outcome.profile.morsels_dispatched > 1,
                            "{name} q{i}: single morsel, sweep is vacuous"
                        );
                        hit.extend(
                            outcome
                                .profile
                                .operators
                                .iter()
                                .map(|op| op.name.to_string()),
                        );
                        baseline = Some(view);
                    }
                    Some(expected) => assert_eq!(
                        &view, expected,
                        "{name} q{i}: execution diverged at {threads} thread(s)"
                    ),
                }
            }
        }
    }
    let missed: Vec<_> = FAN_OUT_SITES
        .iter()
        .filter(|site| !hit.contains(**site))
        .collect();
    assert!(
        missed.is_empty(),
        "sweep never reached {missed:?}; hit {hit:?}"
    );
}

#[test]
fn fault_plane_budget_charge_is_thread_invariant() {
    for (name, mut db, queries) in fixtures() {
        let mut baseline: Option<(u64, Vec<_>)> = None;
        for threads in THREADS {
            // Inert-but-armed plane: huge budget, no probabilistic faults.
            // Every storage gate charges it, so the total is a precise count
            // of gate invocations — once per access, never once per worker.
            db.set_fault_config(FaultConfig {
                seed: 7,
                budget_pages: Some(u64::MAX),
                ..FaultConfig::default()
            });
            db.set_exec_options(ExecOptions {
                threads,
                morsel_rows: MORSEL_ROWS,
            });
            let mut views = Vec::new();
            for sql in &queries {
                views.push(deterministic_view(
                    &db.execute(sql).expect("query executes"),
                ));
            }
            let charged = db
                .fault_plane()
                .expect("plane armed")
                .snapshot()
                .pages_charged;
            assert!(charged > 0, "{name}: no pages charged");
            match &baseline {
                None => baseline = Some((charged, views)),
                Some((base_charged, base_views)) => {
                    assert_eq!(
                        charged, *base_charged,
                        "{name}: budget charge depends on thread count ({threads} threads)"
                    );
                    assert_eq!(
                        &views, base_views,
                        "{name}: rows/stats diverged under fault plane"
                    );
                }
            }
            db.clear_fault_config();
        }
    }
}

#[test]
fn measured_cost_stays_within_bounded_ratio_of_estimate() {
    for (name, mut db, queries) in fixtures() {
        db.set_exec_options(ExecOptions {
            threads: 2,
            morsel_rows: MORSEL_ROWS,
        });
        for (i, sql) in queries.iter().enumerate() {
            let outcome = db.execute(sql).expect("query executes");
            let estimated = outcome.plan.est_cost;
            let measured = outcome.exec.measured_cost();
            assert!(
                estimated.is_finite() && estimated > 0.0,
                "{name} q{i}: bad estimate {estimated}"
            );
            assert!(
                measured.is_finite() && measured > 0.0,
                "{name} q{i}: bad measurement {measured}"
            );
            let ratio = measured / estimated;
            // Estimates use histogram selectivities, the executor counts
            // actual pages and tuples; they agree on the cost constants, so
            // divergence beyond an order of magnitude means the two models
            // drifted apart (the class of bug this suite exists to catch).
            assert!(
                (0.1..=10.0).contains(&ratio),
                "{name} q{i}: measured {measured:.2} vs estimated {estimated:.2} \
                 (ratio {ratio:.3}) outside [0.1, 10]"
            );
        }
    }
}
