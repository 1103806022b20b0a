//! `exec`: morsel-executor thread sweep.
//!
//! Runs every query of one workload per fixture (DBLP and Movie) against a
//! tuned hybrid-inlining design across executor thread counts, asserting
//! that rows, measured [`xmlshred_rel::ExecStats`], and the deterministic
//! profile fingerprint are bit-identical for every thread count. The sweep
//! prints per-thread wall-clock times (the only thing allowed to differ),
//! the per-operator timing breakdown, and a combined `exec sweep hash` over
//! all deterministic outputs — two invocations with different
//! `--exec-threads` must print the same hash, which CI checks.

use crate::experiments::RunOptions;
use crate::harness::{fmt_duration, render_table, space_budget, BenchScale};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use xmlshred_core::physical::tune;
use xmlshred_data::workload::{dblp_workload, movie_workload, Workload, WorkloadSpec};
use xmlshred_data::Dataset;
use xmlshred_rel::db::Database;
use xmlshred_rel::sql::SqlQuery;
use xmlshred_rel::{ExecOptions, ExecStats, OperatorTiming};
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::schema::derive_schema;
use xmlshred_shred::shredder::load_database;
use xmlshred_translate::translate::translate;

/// Thread counts swept. `opts.exec.threads` is appended when it is not
/// already covered, so `--exec-threads N` extends the sweep.
const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Run the thread-sweep experiment on both fixtures.
pub fn run(scale: BenchScale, opts: &RunOptions) -> Result<(), String> {
    // The sweep executes every query once per thread count; keep the
    // fixtures small (same scaling as the profile experiment).
    let sweep_scale = BenchScale(scale.0 * 0.05);
    let mut threads: Vec<usize> = SWEEP.to_vec();
    if opts.exec.threads != 0 && !threads.contains(&opts.exec.threads) {
        threads.push(opts.exec.threads);
    }

    let dblp = sweep_scale.dblp()?;
    let dblp_config = sweep_scale.dblp_config();
    let dblp_workload = dblp_workload(
        &WorkloadSpec {
            projections: xmlshred_data::workload::Projections::High,
            selectivity: xmlshred_data::workload::Selectivity::Low,
            n_queries: 6,
            seed: 11,
        },
        dblp_config.years,
        dblp_config.n_conferences,
    )?;
    let dblp_hash = sweep_dataset(&dblp, &dblp_workload, &threads, opts.exec.morsel_rows)?;

    let movie = sweep_scale.movie()?;
    let movie_config = sweep_scale.movie_config();
    let movie_workload = movie_workload(
        &WorkloadSpec {
            projections: xmlshred_data::workload::Projections::Low,
            selectivity: xmlshred_data::workload::Selectivity::High,
            n_queries: 6,
            seed: 12,
        },
        movie_config.years,
        movie_config.n_genres,
    )?;
    let movie_hash = sweep_dataset(&movie, &movie_workload, &threads, opts.exec.morsel_rows)?;

    let mut h = DefaultHasher::new();
    dblp_hash.hash(&mut h);
    movie_hash.hash(&mut h);
    let sweep_hash = h.finish();
    println!("exec sweep hash: {sweep_hash:016x}");
    Ok(())
}

/// Hash everything that must be thread-invariant about one execution.
fn result_fingerprint(
    rows: &[xmlshred_rel::types::Row],
    stats: &ExecStats,
    profile_fp: &str,
) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{rows:?}").hash(&mut h);
    stats.io_cost.to_bits().hash(&mut h);
    stats.cpu_cost.to_bits().hash(&mut h);
    (stats.rows_out as u64).hash(&mut h);
    stats.tuples_processed.hash(&mut h);
    profile_fp.hash(&mut h);
    h.finish()
}

fn sweep_dataset(
    dataset: &Dataset,
    workload: &Workload,
    threads: &[usize],
    morsel_rows: usize,
) -> Result<u64, String> {
    println!(
        "\n=== Exec thread sweep on {} ({}, threads {:?}, morsel {} rows) ===",
        dataset.name, workload.name, threads, morsel_rows
    );
    let mapping = Mapping::hybrid(&dataset.tree);
    let schema = derive_schema(&dataset.tree, &mapping);
    let mut db: Database = load_database(&dataset.tree, &mapping, &schema, &[&dataset.document])
        .map_err(|e| format!("load failed: {e}"))?;

    // Tune so the sweep exercises index seeks and covering scans, not just
    // sequential heap scans.
    let queries: Vec<(SqlQuery, f64)> = workload
        .queries
        .iter()
        .filter_map(|(path, w)| {
            translate(&dataset.tree, &mapping, &schema, path)
                .ok()
                .map(|t| (t.sql, *w))
        })
        .collect();
    if queries.is_empty() {
        return Err("no workload query translated".into());
    }
    let query_refs: Vec<(&SqlQuery, f64)> = queries.iter().map(|(q, w)| (q, *w)).collect();
    let tuned = tune(
        db.catalog(),
        db.all_stats(),
        &query_refs,
        space_budget(dataset),
    );
    db.apply_config(&tuned.config)
        .map_err(|e| format!("apply_config failed: {e}"))?;

    let mut rows_table = Vec::new();
    let mut operators: Vec<OperatorTiming> = Vec::new();
    let mut dataset_hash = DefaultHasher::new();
    for (i, (sql, _weight)) in queries.iter().enumerate() {
        let mut baseline: Option<(u64, String)> = None;
        let mut walls: Vec<Duration> = Vec::new();
        for &n in threads {
            db.set_exec_options(ExecOptions {
                threads: n,
                morsel_rows,
            });
            let started = Instant::now();
            let outcome = db
                .execute(sql)
                .map_err(|e| format!("query {i} failed at {n} thread(s): {e}"))?;
            walls.push(started.elapsed());
            let profile_fp = outcome.profile.deterministic_fingerprint();
            let fp = result_fingerprint(&outcome.rows, &outcome.exec, &profile_fp);
            match &baseline {
                None => {
                    baseline = Some((fp, profile_fp));
                    fp.hash(&mut dataset_hash);
                    rows_table.push(vec![
                        format!("q{i}"),
                        outcome.rows.len().to_string(),
                        outcome.profile.morsels_dispatched.to_string(),
                        format!("{:.1}", outcome.exec.measured_cost()),
                        String::new(), // wall columns filled below
                    ]);
                    for op in &outcome.profile.operators {
                        match operators.iter_mut().find(|o| o.name == op.name) {
                            Some(acc) => {
                                acc.count += op.count;
                                acc.nanos = acc.nanos.saturating_add(op.nanos);
                            }
                            None => operators.push(op.clone()),
                        }
                    }
                }
                Some((base_fp, base_profile)) => {
                    if fp != *base_fp {
                        return Err(format!(
                            "query {i} diverged at {n} thread(s): fingerprint \
                             {fp:016x} != {base_fp:016x} (baseline profile:\n{base_profile}\n\
                             this profile:\n{profile_fp})"
                        ));
                    }
                }
            }
        }
        let wall_cells: Vec<String> = walls.iter().map(|w| fmt_duration(*w)).collect();
        if let Some(row) = rows_table.last_mut() {
            row.pop();
            row.extend(wall_cells);
        }
    }

    let mut headers: Vec<String> = vec![
        "query".into(),
        "rows".into(),
        "morsels".into(),
        "cost".into(),
    ];
    headers.extend(threads.iter().map(|n| format!("wall@{n}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", render_table(&header_refs, &rows_table));

    let op_rows: Vec<Vec<String>> = operators
        .iter()
        .map(|op| {
            vec![
                op.name.to_string(),
                op.count.to_string(),
                fmt_duration(Duration::from_nanos(op.nanos)),
            ]
        })
        .collect();
    println!(
        "--- per-operator timings (threads={} runs) ---",
        threads.first().map_or(1, |n| *n)
    );
    println!(
        "{}",
        render_table(&["operator", "invocations", "wall"], &op_rows)
    );
    println!(
        "all {} queries bit-identical across {:?} executor thread(s).",
        queries.len(),
        threads
    );
    Ok(dataset_hash.finish())
}
