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

use crate::harness::{
    fmt_duration, hybrid_baseline, render_table, space_budget, workload_spec, BenchScale,
};
use std::time::Duration;
use xmlshred_core::quality::measure_quality;
use xmlshred_core::{greedy_search, EvalContext, GreedyOptions, MergeStrategy};
use xmlshred_data::workload::{Projections, Selectivity, Workload};
use xmlshred_data::Dataset;
use xmlshred_shred::source_stats::SourceStats;

/// The paper's Fig. 7-9 input: the four 20-query DBLP workloads.
fn dblp_20q(scale: BenchScale) -> Result<(Dataset, Vec<Workload>), String> {
    let dataset = scale.dblp()?;
    let workloads = [
        (Projections::Low, Selectivity::Low),
        (Projections::Low, Selectivity::High),
        (Projections::High, Selectivity::Low),
        (Projections::High, Selectivity::High),
    ]
    .iter()
    .map(|&(projections, selectivity)| {
        let seed = 900
            + matches!(projections, Projections::High) as u64 * 2
            + matches!(selectivity, Selectivity::High) as u64;
        scale.workload("dblp", &workload_spec(projections, selectivity, 20, seed))
    })
    .collect::<Result<_, _>>()?;
    Ok((dataset, workloads))
}

fn run_variant(
    dataset: &Dataset,
    source: &SourceStats,
    workload: &Workload,
    budget: f64,
    options: &GreedyOptions,
) -> (Duration, f64) {
    let ctx = EvalContext {
        tree: &dataset.tree,
        source,
        workload: &workload.queries,
        space_budget: budget,
    };
    let outcome = greedy_search(&ctx, options);
    let quality = measure_quality(
        &dataset.tree,
        &dataset.document,
        &workload.queries,
        &outcome.mapping,
        &outcome.config,
    );
    (outcome.stats.elapsed, quality.measured_cost)
}

/// Fig. 7: speed-up due to candidate selection.
///
/// The unpruned variants search the fully split schema with every
/// (subsumed) transformation and are slow by construction — exactly the
/// inefficiency the paper measures. Their greedy descent is capped at two
/// rounds, so the reported speed-ups are *lower bounds* (the full Greedy
/// runs uncapped).
pub fn fig7(scale: BenchScale) -> Result<(), String> {
    println!("\n=== Fig. 7: speed-up due to candidate selection (DBLP, 20-query workloads) ===\n");
    let (dataset, workloads) = dblp_20q(scale)?;
    let source = SourceStats::collect(&dataset.tree, &dataset.document);
    let budget = space_budget(&dataset);

    let mut rows = Vec::new();
    for workload in &workloads {
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

        let (t_none, _) = run_variant(&dataset, &source, workload, budget, &none);
        let (t_pruned, _) = run_variant(&dataset, &source, workload, budget, &pruned);
        let (t_full, q_full) = run_variant(&dataset, &source, workload, budget, &full);
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
    Ok(())
}

/// Fig. 8: merging strategies.
pub fn fig8(scale: BenchScale) -> Result<(), String> {
    println!("\n=== Fig. 8: candidate merging strategies (DBLP, 20-query workloads) ===\n");
    let (dataset, workloads) = dblp_20q(scale)?;
    let source = SourceStats::collect(&dataset.tree, &dataset.document);
    let budget = space_budget(&dataset);

    let mut rows = Vec::new();
    for workload in &workloads {
        let baseline = hybrid_baseline(&dataset, workload, budget);
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
            let (t, q) = run_variant(&dataset, &source, workload, budget, &options);
            if label == "none" {
                none_time = t.as_secs_f64().max(1e-9);
            }
            cells.push(format!(
                "{:.2} / {:.1}x",
                q / baseline.measured_cost,
                t.as_secs_f64() / none_time
            ));
        }
        rows.push(cells);
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
    Ok(())
}

/// Fig. 9: cost derivation.
pub fn fig9(scale: BenchScale) -> Result<(), String> {
    println!("\n=== Fig. 9: cost derivation (DBLP, 20-query workloads) ===\n");
    let (dataset, workloads) = dblp_20q(scale)?;
    let source = SourceStats::collect(&dataset.tree, &dataset.document);
    let budget = space_budget(&dataset);

    let mut rows = Vec::new();
    for workload in &workloads {
        let baseline = hybrid_baseline(&dataset, workload, budget);
        let with = GreedyOptions::default();
        let without = GreedyOptions {
            cost_derivation: false,
            ..GreedyOptions::default()
        };
        let (t_with, q_with) = run_variant(&dataset, &source, workload, budget, &with);
        let (t_without, q_without) = run_variant(&dataset, &source, workload, budget, &without);
        rows.push(vec![
            workload.name.clone(),
            format!("{:.2}", q_with / baseline.measured_cost),
            format!("{:.2}", q_without / baseline.measured_cost),
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
    Ok(())
}
