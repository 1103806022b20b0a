//! Figures 4, 5, and 6: quality and efficiency of Greedy, Naive-Greedy, and
//! Two-Step across the workload suites.
//!
//! * Fig. 4 — workload execution cost of each algorithm's recommendation,
//!   normalized to the tuned hybrid-inlining mapping (lower is better;
//!   the paper's Greedy lands around 0.2-0.9, Two-Step averages 77% worse
//!   than Greedy on DBLP and 47% on Movie).
//! * Fig. 5 — advisor running time normalized to Two-Step (log scale in the
//!   paper; Naive-Greedy is one to two orders of magnitude slower).
//! * Fig. 6 — number of transformations searched (Greedy searches 10-40x
//!   fewer than Naive-Greedy on DBLP, 5-10x fewer on Movie).
//!
//! Following the paper, Naive-Greedy is skipped on the 20-query DBLP
//! workloads ("it did not stop after running for five days").

use crate::harness::{
    fmt_duration, hybrid_baseline_exec, render_table, run_algorithms, space_budget, Algo,
    BenchScale, EvalRun,
};
use xmlshred_core::SearchOptions;
use xmlshred_data::workload::{dblp_workload, movie_workload, Workload, WorkloadSpec};
use xmlshred_data::Dataset;
use xmlshred_rel::ExecOptions;
use xmlshred_shred::source_stats::SourceStats;

/// Run the experiment for both datasets.
pub fn run(scale: BenchScale, search: &SearchOptions, exec: ExecOptions) -> Result<(), String> {
    let dblp = scale.dblp()?;
    let dblp_config = scale.dblp_config();
    let dblp_workloads: Vec<Workload> = WorkloadSpec::dblp_suite()
        .iter()
        .map(|spec| dblp_workload(spec, dblp_config.years, dblp_config.n_conferences))
        .collect::<Result<_, _>>()?;
    evaluate_dataset(&dblp, &dblp_workloads, true, search, exec)?;

    let movie = scale.movie()?;
    let movie_config = scale.movie_config();
    let movie_workloads: Vec<Workload> = WorkloadSpec::movie_suite()
        .iter()
        .map(|spec| movie_workload(spec, movie_config.years, movie_config.n_genres))
        .collect::<Result<_, _>>()?;
    evaluate_dataset(&movie, &movie_workloads, false, search, exec)?;
    Ok(())
}

fn evaluate_dataset(
    dataset: &Dataset,
    workloads: &[Workload],
    skip_naive_on_20: bool,
    search: &SearchOptions,
    exec: ExecOptions,
) -> Result<(), String> {
    println!(
        "\n=== Figs. 4/5/6 on {} ({} elements) ===",
        dataset.name,
        dataset.document.subtree_size()
    );
    let source = SourceStats::collect(&dataset.tree, &dataset.document);
    let budget = space_budget(dataset);

    let mut fig4 = Vec::new();
    let mut fig5 = Vec::new();
    let mut fig5_cache = Vec::new();
    let mut fig6 = Vec::new();
    for workload in workloads {
        let naive_skipped = skip_naive_on_20 && workload.queries.len() >= 20;
        let algos: Vec<Algo> = if naive_skipped {
            vec![Algo::Greedy, Algo::TwoStep]
        } else {
            vec![Algo::Greedy, Algo::NaiveGreedy, Algo::TwoStep]
        };
        let baseline = hybrid_baseline_exec(dataset, workload, budget, exec);
        let runs = run_algorithms(dataset, &source, workload, budget, &algos, search, exec);

        let cell = |name: &str, f: &dyn Fn(&EvalRun) -> String| -> String {
            runs.iter()
                .find(|r| r.algorithm == name)
                .map(f)
                .unwrap_or_else(|| "n/a*".into())
        };
        let twostep_time = runs
            .iter()
            .find(|r| r.algorithm == "Two-Step")
            .map(|r| r.outcome.stats.elapsed.as_secs_f64())
            .unwrap_or(1.0)
            .max(1e-9);

        fig4.push(vec![
            workload.name.clone(),
            cell("Greedy", &|r| {
                format!("{:.2}", r.quality.measured_cost / baseline.measured_cost)
            }),
            cell("Naive-Greedy", &|r| {
                format!("{:.2}", r.quality.measured_cost / baseline.measured_cost)
            }),
            cell("Two-Step", &|r| {
                format!("{:.2}", r.quality.measured_cost / baseline.measured_cost)
            }),
        ]);
        fig5.push(vec![
            workload.name.clone(),
            cell("Greedy", &|r| {
                format!(
                    "{:.1}x ({})",
                    r.outcome.stats.elapsed.as_secs_f64() / twostep_time,
                    fmt_duration(r.outcome.stats.elapsed)
                )
            }),
            cell("Naive-Greedy", &|r| {
                format!(
                    "{:.1}x ({})",
                    r.outcome.stats.elapsed.as_secs_f64() / twostep_time,
                    fmt_duration(r.outcome.stats.elapsed)
                )
            }),
            cell("Two-Step", &|r| {
                format!("1.0x ({})", fmt_duration(r.outcome.stats.elapsed))
            }),
        ]);
        fig5_cache.push(vec![
            workload.name.clone(),
            cell("Greedy", &|r| {
                format!(
                    "{}/{} ({:.0}%)",
                    r.outcome.stats.cache_hits,
                    r.outcome.stats.cache_hits + r.outcome.stats.cache_misses,
                    100.0 * r.outcome.stats.cache_hit_rate()
                )
            }),
            cell("Naive-Greedy", &|r| {
                format!(
                    "{}/{} ({:.0}%)",
                    r.outcome.stats.cache_hits,
                    r.outcome.stats.cache_hits + r.outcome.stats.cache_misses,
                    100.0 * r.outcome.stats.cache_hit_rate()
                )
            }),
            cell("Two-Step", &|r| {
                format!(
                    "{}/{} ({:.0}%)",
                    r.outcome.stats.cache_hits,
                    r.outcome.stats.cache_hits + r.outcome.stats.cache_misses,
                    100.0 * r.outcome.stats.cache_hit_rate()
                )
            }),
        ]);
        fig6.push(vec![
            workload.name.clone(),
            cell("Greedy", &|r| {
                r.outcome.stats.transformations_searched.to_string()
            }),
            cell("Naive-Greedy", &|r| {
                r.outcome.stats.transformations_searched.to_string()
            }),
        ]);
    }

    println!(
        "\n--- Fig. 4 ({}): workload cost normalized to tuned hybrid inlining (lower = better) ---",
        dataset.name
    );
    println!(
        "{}",
        render_table(&["workload", "Greedy", "Naive-Greedy", "Two-Step"], &fig4)
    );
    println!(
        "--- Fig. 5 ({}): advisor running time, normalized to Two-Step ---",
        dataset.name
    );
    println!(
        "{}",
        render_table(&["workload", "Greedy", "Naive-Greedy", "Two-Step"], &fig5)
    );
    println!(
        "--- Fig. 5 supplement ({}): what-if plan-cache hits/lookups (threads={}, cache {}) ---",
        dataset.name,
        search.threads,
        if search.plan_cache { "on" } else { "off" }
    );
    println!(
        "{}",
        render_table(
            &["workload", "Greedy", "Naive-Greedy", "Two-Step"],
            &fig5_cache
        )
    );
    println!(
        "--- Fig. 6 ({}): transformations searched ---",
        dataset.name
    );
    println!(
        "{}",
        render_table(&["workload", "Greedy", "Naive-Greedy"], &fig6)
    );
    if skip_naive_on_20 {
        println!("* Naive-Greedy skipped on 20-query DBLP workloads, as in the paper (it ran for days).\n");
    }
    Ok(())
}
