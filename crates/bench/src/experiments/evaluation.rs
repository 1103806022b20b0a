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
//! The paper skipped Naive-Greedy on the 20-query DBLP workloads ("it did
//! not stop after running for five days"); here it runs on all twelve.

use crate::harness::{fmt_duration, fold, render_table, Draw, EvalRun, SearchInput};
use xmlshred_core::SearchOptions;
use xmlshred_data::workload::{Workload, WorkloadSpec};
use xmlshred_rel::ExecOptions;

/// One workload's Fig. 4 and Fig. 6 columns: the measured cost of tuned
/// hybrid inlining, then Greedy's, Naive-Greedy's and Two-Step's measured
/// cost and transformations searched.
pub struct Fig4Row {
    pub dataset: String,
    pub workload: String,
    pub hybrid: f64,
    pub runs: [(f64, u64); 3],
}

impl Fig4Row {
    /// Greedy's, Naive-Greedy's and Two-Step's measured cost normalized to
    /// hybrid inlining's, as Fig. 4 prints them.
    pub fn ratios(&self) -> [f64; 3] {
        self.runs.map(|(cost, _)| cost / self.hybrid)
    }
}

/// The digest of Figs. 4 and 6: every measured cost and search count, no
/// running time; one fold per dataset, then the two folded together.
pub fn digest(rows: &[Fig4Row]) -> u64 {
    let dataset = |name: &str| {
        let rows = rows.iter().filter(|row| row.dataset == name);
        rows.fold(0, |digest, row| {
            let runs = row.runs.iter();
            runs.fold(fold(digest, row.hybrid.to_bits()), |h, (cost, searched)| {
                fold(fold(h, cost.to_bits()), *searched)
            })
        })
    };
    fold(dataset("dblp"), dataset("movie"))
}

/// Run the experiment for both datasets of `draw`; returns the rows and
/// the report.
pub fn run(
    draw: &Draw,
    search: &SearchOptions,
    exec: ExecOptions,
) -> Result<(Vec<Fig4Row>, String), String> {
    let (mut rows, mut report) = (Vec::new(), String::new());
    for (dataset, suite) in [
        (draw.dblp()?, WorkloadSpec::dblp_suite()),
        (draw.movie()?, WorkloadSpec::movie_suite()),
    ] {
        let workloads: Vec<Workload> = (suite.iter())
            .map(|spec| draw.workload(&dataset.name, spec))
            .collect::<Result<_, _>>()?;
        report += &format!(
            "\n=== Figs. 4/5/6 on {}, draw {} ({} elements) ===\n",
            dataset.name,
            draw.index,
            dataset.document.subtree_size()
        );
        let input = SearchInput::new(dataset, search);
        rows.extend(evaluate_dataset(&input, &workloads, exec, &mut report));
    }
    Ok((rows, report))
}

fn evaluate_dataset(
    input: &SearchInput,
    workloads: &[Workload],
    exec: ExecOptions,
    report: &mut String,
) -> Vec<Fig4Row> {
    let (dataset, search) = (&input.dataset, &input.search);

    let mut fig4 = Vec::new();
    let mut fig5 = Vec::new();
    let mut fig5_cache = Vec::new();
    let mut fig6 = Vec::new();
    let mut costs = Vec::new();
    let searched = |r: &EvalRun| r.outcome.stats.transformations_searched;
    for workload in workloads {
        let baseline = input.hybrid(workload, exec);
        let runs = input.algorithms(workload, exec);
        costs.push(Fig4Row {
            dataset: dataset.name.clone(),
            workload: workload.name.clone(),
            hybrid: baseline.measured_cost,
            runs: runs
                .each_ref()
                .map(|r| (r.quality.measured_cost, searched(r))),
        });

        let twostep_time = runs[2].outcome.stats.elapsed.as_secs_f64().max(1e-9);
        // One table row: the workload, then `f` of the first `n` runs.
        let row = |n: usize, f: &dyn Fn(&EvalRun) -> String| -> Vec<String> {
            let name = std::iter::once(workload.name.clone());
            name.chain(runs[..n].iter().map(f)).collect()
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
        fig4.push(row(3, &cost));
        fig5.push(row(3, &|r| {
            let elapsed = r.outcome.stats.elapsed;
            let ratio = elapsed.as_secs_f64() / twostep_time;
            format!("{ratio:.1}x ({})", fmt_duration(elapsed))
        }));
        fig5_cache.push(row(3, &|r| {
            let (hits, stats) = (r.outcome.stats.cache_hits, &r.outcome.stats);
            let rate = 100.0 * stats.cache_hit_rate();
            format!("{hits}/{} ({rate:.0}%)", hits + stats.cache_misses)
        }));
        fig6.push(row(2, &|r| searched(r).to_string()));
    }

    let name = &dataset.name;
    let header = ["workload", "Greedy", "Naive-Greedy", "Two-Step"];
    let cache = if search.plan_cache { "on" } else { "off" };
    *report += &format!(
        "\n--- Fig. 4 ({name}): workload cost normalized to tuned hybrid inlining, measured \
         (estimated) (lower = better) ---\n{}\n\
         --- Fig. 5 ({name}): advisor running time, normalized to Two-Step ---\n{}\n\
         --- Fig. 5 supplement ({name}): what-if plan-cache hits/lookups (threads={}, cache \
         {cache}) ---\n{}\n\
         --- Fig. 6 ({name}): transformations searched ---\n{}\n",
        render_table(&header, &fig4),
        render_table(&header, &fig5),
        search.threads,
        render_table(&header, &fig5_cache),
        render_table(&header[..3], &fig6),
    );
    costs
}
