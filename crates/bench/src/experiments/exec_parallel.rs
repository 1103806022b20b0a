//! `exec`: morsel-executor thread sweep.
//!
//! Runs every query of one workload per fixture (DBLP and Movie) against a
//! tuned hybrid-inlining design across executor thread counts, asserting
//! that rows, measured [`xmlshred_rel::ExecStats`], and the deterministic
//! profile fingerprint are bit-identical for every thread count. The sweep
//! prints per-thread wall-clock times (the only thing allowed to differ),
//! the per-operator timing breakdown, and a combined `exec sweep hash` over
//! all deterministic outputs — two invocations with different
//! `--exec-threads` must print the same hash, which its `PINS` entry
//! checks.

use crate::experiments::RunOptions;
use crate::harness::{fmt_duration, load_hybrid, render_table, space_budget, Draw};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use xmlshred_core::physical::tune;
use xmlshred_data::workload::{Projections, Selectivity, Workload, WorkloadSpec};
use xmlshred_data::Dataset;
use xmlshred_rel::sql::SqlQuery;
use xmlshred_rel::{ExecOptions, ExecStats, OperatorTiming};

/// Thread counts swept. `opts.exec.threads` is appended when it is not
/// already covered, so `--exec-threads N` extends the sweep.
const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Run the thread-sweep experiment on both fixtures.
pub fn run(scale: f64, opts: &RunOptions) -> Result<(), String> {
    // The sweep executes every query once per thread count; keep the
    // fixtures small (same scaling as the profile experiment).
    let draw = Draw::new(scale * 0.05, 0)?;
    let mut threads: Vec<usize> = SWEEP.to_vec();
    if opts.exec.threads != 0 && !threads.contains(&opts.exec.threads) {
        threads.push(opts.exec.threads);
    }

    let spec = |projections, selectivity, seed| WorkloadSpec {
        projections,
        selectivity,
        n_queries: 6,
        seed,
    };
    let dblp = draw.dblp()?;
    let dblp_workload = draw.workload("dblp", &spec(Projections::High, Selectivity::Low, 11))?;
    let dblp_hash = sweep_dataset(&dblp, &dblp_workload, &threads, opts.exec.morsel_rows)?;

    let movie = draw.movie()?;
    let movie_workload = draw.workload("movie", &spec(Projections::Low, Selectivity::High, 12))?;
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
    // Tune so the sweep exercises index seeks and covering scans, not just
    // sequential heap scans.
    let (mut db, queries) = load_hybrid(dataset, &workload.queries)?;
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
