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
//! * **Layout invariance** — rebuilding every table as a columnar partition
//!   changes which scan kernels run, but not one bit of the results, the
//!   measured stats, the deterministic profile, or the parity ratios.

use xmlshred::data::dblp::{generate_dblp, DblpConfig};
use xmlshred::data::movie::{generate_movie, MovieConfig};
use xmlshred::data::workload::{
    dblp_workload, movie_workload, Projections, Selectivity, WorkloadSpec,
};
use xmlshred::data::Dataset;
use xmlshred::prelude::*;
use xmlshred::rel::fault::FaultConfig;
use xmlshred::rel::sql::SqlQuery;
use xmlshred::rel::ExecOptions;

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

#[test]
fn results_stats_and_profiles_identical_across_exec_threads() {
    for (name, mut db, queries) in fixtures() {
        for (i, sql) in queries.iter().enumerate() {
            let mut baseline = None;
            for threads in THREADS {
                db.set_exec_options(ExecOptions {
                    threads,
                    morsel_rows: MORSEL_ROWS,
                });
                let outcome = db.execute(sql).expect("query executes");
                let view = deterministic_view(&outcome);
                match &baseline {
                    None => {
                        // The fixtures must actually exercise fan-out.
                        assert!(
                            outcome.profile.morsels_dispatched > 1,
                            "{name} q{i}: single morsel, sweep is vacuous"
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

/// Run the accounting-parity sweep over one prepared database. Shared by
/// the row-layout and columnar-layout parity tests below.
fn assert_cost_parity(name: &str, db: &mut Database, queries: &[SqlQuery]) {
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

#[test]
fn measured_cost_stays_within_bounded_ratio_of_estimate() {
    for (name, mut db, queries) in fixtures() {
        assert_cost_parity(name, &mut db, &queries);
    }
}

/// Rebuild the tuned config with every table additionally stored as a
/// columnar partition, keeping the tuned indexes and views.
fn columnarize(db: &mut Database) {
    let mut config = db.built_config().clone();
    config.columnar = db.catalog().iter().map(|(id, _)| id).collect();
    db.apply_config(&config).expect("columnar config builds");
}

#[test]
fn columnar_layout_preserves_cost_parity() {
    for (name, mut db, queries) in fixtures() {
        columnarize(&mut db);
        assert_cost_parity(name, &mut db, &queries);
    }
}

#[test]
fn columnar_layout_is_bit_identical_to_row_layout() {
    let mut columnar_plans = 0usize;
    for (name, mut db, queries) in fixtures() {
        // Row-layout baseline, per query, at one thread count.
        db.set_exec_options(ExecOptions {
            threads: 1,
            morsel_rows: MORSEL_ROWS,
        });
        let row_views: Vec<_> = queries
            .iter()
            .map(|sql| deterministic_view(&db.execute(sql).expect("row query executes")))
            .collect();

        // Same queries over columnar partitions, at 1 and 4 threads: every
        // deterministic observable must match the row baseline exactly.
        columnarize(&mut db);
        for threads in [1, 4] {
            db.set_exec_options(ExecOptions {
                threads,
                morsel_rows: MORSEL_ROWS,
            });
            for (i, sql) in queries.iter().enumerate() {
                let outcome = db.execute(sql).expect("columnar query executes");
                if outcome.plan.explain().contains("ColumnarScan") {
                    columnar_plans += 1;
                }
                assert_eq!(
                    deterministic_view(&outcome),
                    row_views[i],
                    "{name} q{i}: columnar layout diverged from row at {threads} thread(s)"
                );
            }
        }
    }
    // The invariance must not hold vacuously: at least one workload query
    // has to actually plan a columnar scan.
    assert!(
        columnar_plans > 0,
        "no workload query planned a ColumnarScan; the layout sweep is vacuous"
    );
}
