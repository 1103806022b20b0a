//! Observability profile: run the joint search on a tiny fixture with the
//! metrics registry armed, build and execute the recommended design, and
//! emit a metrics report covering all three tiers — search strategies
//! (`search.*`, `tune.*`, `parallel.*`), the what-if oracle (`oracle.*`),
//! and the relational engine (`optimizer.*`, `exec.*`, `space.*`,
//! `rel.stats.*`).
//!
//! The report's deterministic section is a pure function of
//! `(seed, knobs)`; `--threads` changes only the schedule section and the
//! wall-clock spans. [`xmlshred_core::MetricsReport::self_check`] runs at
//! the end and the experiment fails on any accounting violation, so the
//! cost-model bugs this layer exists to catch (inflated histograms,
//! estimate-vs-actual byte confusion, broken cache accounting) surface as
//! nonzero exits instead of silently skewed figures.

use crate::experiments::RunOptions;
use crate::harness::{render_table, Draw, SearchInput};
use xmlshred_core::{greedy_search, GreedyOptions, MetricsRegistry, SearchOptions};
use xmlshred_data::workload::WorkloadSpec;
use xmlshred_rel::db::Database;
use xmlshred_rel::optimizer::plan_query_profiled;
use xmlshred_shred::schema::derive_schema;
use xmlshred_shred::shredder::load_database;
use xmlshred_translate::translate::translate;

/// Run the profile experiment. Writes the JSON report to
/// `opts.metrics_out` when set.
pub fn run(scale: f64, opts: &RunOptions) -> Result<(), String> {
    // The profile runs a full search plus execution; keep the fixture tiny
    // (same scaling as the fault-schedule matrices).
    let draw = Draw::new(scale * 0.02, 0)?;
    let input = SearchInput::new(draw.movie()?, &Default::default());
    let dataset = &input.dataset;
    // Movie LP-LS's shape, four queries under their own seed.
    let spec = WorkloadSpec {
        n_queries: 4,
        seed: 7,
        ..WorkloadSpec::movie_suite()[0]
    };
    let workload = draw.workload("movie", &spec)?;
    let ctx = input.ctx(&workload);

    println!(
        "\n=== Profile: three-tier metrics report on {} ===",
        dataset.name
    );

    // ------------------------------------------ search + oracle tiers --
    let metrics = MetricsRegistry::shared();
    let outcome = greedy_search(
        &ctx,
        &GreedyOptions {
            search: SearchOptions {
                metrics: Some(metrics.clone()),
                ..opts.search_for_run()
            },
            ..GreedyOptions::default()
        },
    );

    // ------------------------------------------------------- rel tier --
    // Build the recommended design for real and execute the workload, so
    // the report carries measured (not estimated) engine accounting.
    let schema = derive_schema(&dataset.tree, &outcome.mapping);
    let mut db: Database = load_database(
        &dataset.tree,
        &outcome.mapping,
        &schema,
        &[&dataset.document],
    )
    .map_err(|e| format!("load failed: {e}"))?;
    db.apply_config(&outcome.config)
        .map_err(|e| format!("apply_config failed: {e}"))?;
    db.set_exec_options(opts.exec);

    // Space accounting: actual structure bytes (what [`Database::built_bytes`]
    // now measures) vs. the optimizer's estimate and the budget. The
    // self-check enforces `built_bytes <= budget_bytes`.
    metrics.count("space.data_bytes", db.data_bytes() as u64);
    metrics.count("space.built_bytes", db.built_bytes() as u64);
    metrics.count(
        "space.estimated_bytes",
        db.config_bytes(db.built_config()) as u64,
    );
    metrics.count("space.budget_bytes", input.budget as u64);

    // Statistics consistency sweep: every column histogram must reconcile
    // with its row counts (the `rescale` bug this PR fixes broke exactly
    // this). The self-check fails on a nonzero violations counter.
    let mut stat_violations = 0u64;
    for table_stats in db.all_stats() {
        for column in &table_stats.columns {
            if let Some(err) = column.consistency_error() {
                eprintln!("stats violation: {err}");
                stat_violations += 1;
            }
        }
    }
    metrics.count("rel.stats.violations", stat_violations);

    // Optimizer + executor tiers: plan each workload query against the
    // built configuration (with search-space accounting) and run it.
    for (path, _weight) in &workload.queries {
        let Ok(translated) = translate(&dataset.tree, &outcome.mapping, &schema, path) else {
            continue;
        };
        let sql = translated.sql;
        let (plan, profile) =
            plan_query_profiled(db.catalog(), db.all_stats(), db.built_config(), &sql)
                .map_err(|e| format!("planning failed: {e}"))?;
        metrics.count("optimizer.plans_costed", 1);
        metrics.count(
            "optimizer.access_paths_considered",
            profile.access_paths_considered,
        );
        metrics.count(
            "optimizer.join_orders_considered",
            profile.join_orders_considered,
        );
        metrics.count("optimizer.views_considered", profile.views_considered);
        metrics.record_f64("optimizer.est_cost", plan.est_cost);

        let executed = db
            .execute(&sql)
            .map_err(|e| format!("execution failed: {e}"))?;
        metrics.count("exec.queries", 1);
        metrics.count("exec.rows_out", executed.exec.rows_out as u64);
        metrics.count("exec.tuples_processed", executed.exec.tuples_processed);
        metrics.record_f64("exec.measured_cost", executed.exec.measured_cost());
        // Morsel executor accounting: dispatch counts and the rows-per-morsel
        // summary are deterministic (a function of plan and morsel size,
        // never thread count); operator nanoseconds land in the wall tier.
        // The profile keeps a bounded summary (count, sum, head/tail
        // samples) rather than every morsel size; the histogram records the
        // retained samples and the counters carry the exact totals.
        metrics.count(
            "exec.morsels_dispatched",
            executed.profile.morsels_dispatched,
        );
        let morsel_rows = &executed.profile.rows_per_morsel;
        metrics.count("exec.morsel_rows_total", morsel_rows.sum);
        for &rows in morsel_rows.first.iter().chain(&morsel_rows.last) {
            metrics.record("exec.rows_per_morsel", rows);
        }
        for op in &executed.profile.operators {
            metrics.add_span(&format!("exec.op.{}", op.name), op.count, op.nanos);
        }
    }

    // ----------------------------------------------- report + checks --
    let report = metrics.snapshot();
    let mut rows = Vec::new();
    for (name, value) in &report.deterministic {
        rows.push(vec![
            name.clone(),
            value.to_string(),
            "deterministic".into(),
        ]);
    }
    for (name, value) in &report.schedule {
        rows.push(vec![name.clone(), value.to_string(), "schedule".into()]);
    }
    println!("{}", render_table(&["counter", "value", "class"], &rows));
    println!(
        "histograms: {}; spans: {}; search cost {:.0} (degraded: {})",
        report.histograms.len(),
        report.spans.len(),
        outcome.estimated_cost,
        outcome.degraded,
    );

    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("metrics report written to {path}");
    }

    let violations = report.self_check();
    if !violations.is_empty() {
        for violation in &violations {
            eprintln!("self-check violation: {violation}");
        }
        return Err(format!(
            "metrics self-check failed with {} violation(s)",
            violations.len()
        ));
    }
    println!(
        "self-check passed: {} deterministic counters, {} schedule counters, all invariants hold.",
        report.deterministic.len(),
        report.schedule.len(),
    );
    Ok(())
}
