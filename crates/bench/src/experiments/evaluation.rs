//! Figures 4, 5, and 6: quality and efficiency of Greedy, Naive-Greedy, and
//! Two-Step across the workload suites.
//!
//! * Fig. 4 — workload execution cost of each algorithm's recommendation,
//!   normalized to the tuned hybrid-inlining mapping (lower is better;
//!   the paper's Greedy lands around 0.2-0.9, Two-Step averages 77% worse
//!   than Greedy on DBLP and 47% on Movie). Beside each measured ratio,
//!   the optimizer's estimate of the same plans, normalized the same way,
//!   so a ranking the estimator gets wrong shows.
//! * Fig. 5 — advisor running time normalized to Two-Step (log scale in the
//!   paper; Naive-Greedy is one to two orders of magnitude slower).
//! * Fig. 6 — number of transformations searched (Greedy searches 10-40x
//!   fewer than Naive-Greedy on DBLP, 5-10x fewer on Movie).
//!
//! Following the paper, Naive-Greedy is skipped on the 20-query DBLP
//! workloads ("it did not stop after running for five days").

use crate::harness::{
    fmt_duration, fold, hybrid_baseline_exec, render_table, run_algorithms, space_budget, Algo,
    BenchScale, EvalRun,
};
use xmlshred_core::SearchOptions;
use xmlshred_data::workload::{Workload, WorkloadSpec};
use xmlshred_data::Dataset;
use xmlshred_rel::ExecOptions;
use xmlshred_shred::source_stats::SourceStats;

/// The evaluated algorithms, in column order.
const ALGORITHMS: [&str; 3] = ["Greedy", "Naive-Greedy", "Two-Step"];

/// Run the experiment for both datasets; returns the digest of Figs. 4
/// and 6: every measured cost and search count, no running time.
pub fn run(scale: BenchScale, search: &SearchOptions, exec: ExecOptions) -> Result<u64, String> {
    let dblp = scale.dblp()?;
    let dblp_workloads: Vec<Workload> = WorkloadSpec::dblp_suite()
        .iter()
        .map(|spec| scale.workload("dblp", spec))
        .collect::<Result<_, _>>()?;
    let digest = evaluate_dataset(&dblp, &dblp_workloads, true, search, exec)?;

    let movie = scale.movie()?;
    let movie_workloads: Vec<Workload> = WorkloadSpec::movie_suite()
        .iter()
        .map(|spec| scale.workload("movie", spec))
        .collect::<Result<_, _>>()?;
    Ok(fold(
        digest,
        evaluate_dataset(&movie, &movie_workloads, false, search, exec)?,
    ))
}

fn evaluate_dataset(
    dataset: &Dataset,
    workloads: &[Workload],
    skip_naive_on_20: bool,
    search: &SearchOptions,
    exec: ExecOptions,
) -> Result<u64, String> {
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
    let mut digest = 0;
    for workload in workloads {
        let naive_skipped = skip_naive_on_20 && workload.queries.len() >= 20;
        let algos: Vec<Algo> = if naive_skipped {
            vec![Algo::Greedy, Algo::TwoStep]
        } else {
            vec![Algo::Greedy, Algo::NaiveGreedy, Algo::TwoStep]
        };
        let baseline = hybrid_baseline_exec(dataset, workload, budget, exec);
        let runs = run_algorithms(dataset, &source, workload, budget, &algos, search, exec);
        digest = fold(digest, baseline.measured_cost.to_bits());
        for run in &runs {
            digest = fold(digest, run.quality.measured_cost.to_bits());
            digest = fold(digest, run.outcome.stats.transformations_searched);
        }

        let twostep_time = runs
            .iter()
            .find(|r| r.algorithm == "Two-Step")
            .map(|r| r.outcome.stats.elapsed.as_secs_f64())
            .unwrap_or(1.0)
            .max(1e-9);
        // One table row: the workload, then `f` of each named algorithm's
        // run, "n/a*" where it was skipped.
        let row = |names: &[&str], f: &dyn Fn(&EvalRun) -> String| -> Vec<String> {
            let cell = |name: &&str| runs.iter().find(|r| r.algorithm == *name).map(f);
            let cells = names
                .iter()
                .map(|name| cell(name).unwrap_or_else(|| "n/a*".into()));
            std::iter::once(workload.name.clone())
                .chain(cells)
                .collect()
        };
        // Measured ratio, then the optimizer's estimate of the same plans.
        let cost = |r: &EvalRun| {
            let (quality, base) = (&r.quality, &baseline);
            let measured = quality.measured_cost / base.measured_cost;
            format!(
                "{measured:.2} (est {:.2})",
                quality.estimated_cost / base.estimated_cost
            )
        };
        fig4.push(row(&ALGORITHMS, &cost));
        fig5.push(row(&ALGORITHMS, &|r| {
            let elapsed = r.outcome.stats.elapsed;
            let ratio = match r.algorithm {
                "Two-Step" => 1.0,
                _ => elapsed.as_secs_f64() / twostep_time,
            };
            format!("{ratio:.1}x ({})", fmt_duration(elapsed))
        }));
        fig5_cache.push(row(&ALGORITHMS, &|r| {
            let (hits, stats) = (r.outcome.stats.cache_hits, &r.outcome.stats);
            let rate = 100.0 * stats.cache_hit_rate();
            format!("{hits}/{} ({rate:.0}%)", hits + stats.cache_misses)
        }));
        let searched = |r: &EvalRun| r.outcome.stats.transformations_searched.to_string();
        fig6.push(row(&ALGORITHMS[..2], &searched));
    }

    println!(
        "\n--- Fig. 4 ({}): workload cost normalized to tuned hybrid inlining, measured \
         (estimated) (lower = better) ---",
        dataset.name
    );
    let header = ["workload", "Greedy", "Naive-Greedy", "Two-Step"];
    println!("{}", render_table(&header, &fig4));
    println!(
        "--- Fig. 5 ({}): advisor running time, normalized to Two-Step ---",
        dataset.name
    );
    println!("{}", render_table(&header, &fig5));
    println!(
        "--- Fig. 5 supplement ({}): what-if plan-cache hits/lookups (threads={}, cache {}) ---",
        dataset.name,
        search.threads,
        if search.plan_cache { "on" } else { "off" }
    );
    println!("{}", render_table(&header, &fig5_cache));
    println!(
        "--- Fig. 6 ({}): transformations searched ---",
        dataset.name
    );
    println!("{}", render_table(&header[..3], &fig6));
    if skip_naive_on_20 {
        println!("* Naive-Greedy skipped on 20-query DBLP workloads, as in the paper (it ran for days).\n");
    }
    Ok(digest)
}
