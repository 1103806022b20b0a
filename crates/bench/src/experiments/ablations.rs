//! Figures 7-9: ablations of the Section 4 optimizations on the 20-query
//! DBLP workloads.
//!
//! * Fig. 7 — speed-up from candidate selection: pruning subsumed
//!   transformations alone gives 8-12x in the paper; the remaining
//!   candidate-selection rules roughly another 2x.
//! * Fig. 8 — candidate merging strategies: greedy merging matches
//!   exhaustive merging's quality at a fraction of its time; no merging
//!   costs about 2x in quality.
//! * Fig. 9 — cost derivation: 4-10x faster with at most a few percent of
//!   quality loss.

use crate::harness::{fmt_duration, fold, hybrid_baseline, render_table, space_budget, Draw};
use std::time::Duration;
use xmlshred_core::quality::measure_quality;
use xmlshred_core::{greedy_search, EvalContext, GreedyOptions, MergeStrategy};
use xmlshred_data::workload::{Workload, WorkloadSpec};
use xmlshred_data::Dataset;
use xmlshred_shred::source_stats::SourceStats;

/// The digest of an ablation figure: every measured cost, in row order.
/// Each figure returns one row per workload: Fig. 7 the full Greedy's
/// cost; Fig. 8 tuned hybrid inlining's, then no, greedy and exhaustive
/// merging's; Fig. 9 hybrid inlining's, then Greedy's with and without
/// cost derivation.
pub fn digest(rows: &[Vec<f64>]) -> u64 {
    let costs = rows.iter().flatten();
    costs.fold(0, |digest, cost| fold(digest, cost.to_bits()))
}

/// The paper's Fig. 7-9 input: `draw`'s DBLP dataset, its source
/// statistics and space budget, and Fig. 4's four 20-query DBLP workloads.
struct Dblp20 {
    dataset: Dataset,
    source: SourceStats,
    budget: f64,
    workloads: Vec<Workload>,
}

impl Dblp20 {
    fn new(draw: &Draw) -> Result<Dblp20, String> {
        let dataset = draw.dblp()?;
        let suite = WorkloadSpec::dblp_suite().into_iter();
        let workloads = (suite.filter(|spec| spec.n_queries == 20))
            .map(|spec| draw.workload("dblp", &spec))
            .collect::<Result<_, _>>()?;
        Ok(Dblp20 {
            source: SourceStats::collect(&dataset.tree, &dataset.document),
            budget: space_budget(&dataset),
            dataset,
            workloads,
        })
    }

    /// Tuned hybrid inlining's measured cost on `workload`.
    fn hybrid(&self, workload: &Workload) -> f64 {
        hybrid_baseline(&self.dataset, workload, self.budget, Default::default()).measured_cost
    }

    /// Greedy under `options` on `workload`: its running time and the
    /// measured cost of its design.
    fn greedy(&self, workload: &Workload, options: &GreedyOptions) -> (Duration, f64) {
        let (tree, document) = (&self.dataset.tree, &self.dataset.document);
        let ctx = EvalContext {
            tree,
            source: &self.source,
            workload: &workload.queries,
            space_budget: self.budget,
        };
        let outcome = greedy_search(&ctx, options);
        let (mapping, config) = (&outcome.mapping, &outcome.config);
        let quality = measure_quality(tree, document, &workload.queries, mapping, config);
        (outcome.stats.elapsed, quality.measured_cost)
    }
}

/// Fig. 7: speed-up due to candidate selection.
///
/// The unpruned variants search the fully split schema with every
/// (subsumed) transformation and are slow by construction — exactly the
/// inefficiency the paper measures. Their greedy descent is capped at two
/// rounds, so the reported speed-ups are *lower bounds* (the full Greedy
/// runs uncapped). Returns the full Greedy's measured costs; the speed-ups
/// are wall-clock and stay out.
pub fn fig7(draw: &Draw) -> Result<Vec<Vec<f64>>, String> {
    println!("\n=== Fig. 7: speed-up due to candidate selection (DBLP, 20-query workloads) ===\n");
    let input = Dblp20::new(draw)?;
    let (mut rows, mut costs) = (Vec::new(), Vec::new());
    for workload in &input.workloads {
        // Baseline: no subsumption pruning, no candidate selection.
        let none = GreedyOptions {
            subsumption_pruning: false,
            candidate_selection: false,
            max_rounds: 2,
            ..GreedyOptions::default()
        };
        // Subsumption pruning only.
        let pruned = GreedyOptions {
            candidate_selection: false,
            max_rounds: 2,
            ..GreedyOptions::default()
        };
        let full = GreedyOptions::default();

        let (t_none, _) = input.greedy(workload, &none);
        let (t_pruned, _) = input.greedy(workload, &pruned);
        let (t_full, q_full) = input.greedy(workload, &full);
        costs.push(vec![q_full]);
        rows.push(vec![
            workload.name.clone(),
            format!(
                "{:.1}x",
                t_none.as_secs_f64() / t_pruned.as_secs_f64().max(1e-9)
            ),
            format!(
                "{:.1}x",
                t_none.as_secs_f64() / t_full.as_secs_f64().max(1e-9)
            ),
            fmt_duration(t_none),
            fmt_duration(t_full),
            format!("{q_full:.0}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "speedup: subsumption pruning",
                "speedup: all rules",
                "time (no pruning)",
                "time (full Greedy)",
                "quality (cost)",
            ],
            &rows,
        )
    );
    println!("paper: subsumption pruning alone 8-12x, all rules ~2x more.");
    println!(
        "(unpruned variants capped at two greedy rounds: reported speed-ups are lower bounds.)\n"
    );
    Ok(costs)
}

/// Fig. 8: merging strategies.
pub fn fig8(draw: &Draw) -> Result<Vec<Vec<f64>>, String> {
    println!("\n=== Fig. 8: candidate merging strategies (DBLP, 20-query workloads) ===\n");
    let input = Dblp20::new(draw)?;
    let (mut rows, mut costs) = (Vec::new(), Vec::new());
    for workload in &input.workloads {
        let hybrid = input.hybrid(workload);
        let mut measured = vec![hybrid];
        let mut cells = vec![workload.name.clone()];
        let mut none_time = 1e-9f64;
        for (label, strategy) in [
            ("none", MergeStrategy::None),
            ("greedy", MergeStrategy::Greedy),
            ("exhaustive", MergeStrategy::Exhaustive),
        ] {
            let options = GreedyOptions {
                merge_strategy: strategy,
                ..GreedyOptions::default()
            };
            let (t, q) = input.greedy(workload, &options);
            measured.push(q);
            if label == "none" {
                none_time = t.as_secs_f64().max(1e-9);
            }
            cells.push(format!(
                "{:.2} / {:.1}x",
                q / hybrid,
                t.as_secs_f64() / none_time
            ));
        }
        rows.push(cells);
        costs.push(measured);
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "no merge (quality/time)",
                "greedy merge",
                "exhaustive merge",
            ],
            &rows,
        )
    );
    println!("quality normalized to tuned hybrid inlining; time normalized to no-merging.");
    println!(
        "paper: greedy ~= exhaustive quality at 2-10x less time; no merging ~2x worse cost.\n"
    );
    Ok(costs)
}

/// Fig. 9: cost derivation.
pub fn fig9(draw: &Draw) -> Result<Vec<Vec<f64>>, String> {
    println!("\n=== Fig. 9: cost derivation (DBLP, 20-query workloads) ===\n");
    let input = Dblp20::new(draw)?;
    let (mut rows, mut costs) = (Vec::new(), Vec::new());
    for workload in &input.workloads {
        let hybrid = input.hybrid(workload);
        let with = GreedyOptions::default();
        let without = GreedyOptions {
            cost_derivation: false,
            ..GreedyOptions::default()
        };
        let (t_with, q_with) = input.greedy(workload, &with);
        let (t_without, q_without) = input.greedy(workload, &without);
        costs.push(vec![hybrid, q_with, q_without]);
        rows.push(vec![
            workload.name.clone(),
            format!("{:.2}", q_with / hybrid),
            format!("{:.2}", q_without / hybrid),
            format!(
                "{:.1}x",
                t_without.as_secs_f64() / t_with.as_secs_f64().max(1e-9)
            ),
            fmt_duration(t_with),
            fmt_duration(t_without),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "quality with derivation",
                "quality without",
                "speedup",
                "time with",
                "time without",
            ],
            &rows,
        )
    );
    println!("paper: 4-10x speedup, at most ~3% quality drop.\n");
    Ok(costs)
}
