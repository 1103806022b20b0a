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

use crate::harness::{fmt_duration, fold, render_table, Draw, SearchInput};
use std::time::Duration;
use xmlshred_core::{GreedyOptions, MergeStrategy, SearchOptions};
use xmlshred_data::workload::{Workload, WorkloadSpec};

/// The digest of an ablation figure: every measured cost, in row order
/// (each figure returns one row per workload).
pub fn digest(rows: &[Vec<f64>]) -> u64 {
    let costs = rows.iter().flatten();
    costs.fold(0, |digest, cost| fold(digest, cost.to_bits()))
}

/// Greedy's running time and measured cost under `options`.
fn timed(input: &SearchInput, workload: &Workload, options: GreedyOptions) -> (Duration, f64) {
    let run = input.greedy(workload, options);
    (run.outcome.stats.elapsed, run.quality.measured_cost)
}

/// `slow`'s running time over `fast`'s.
fn speedup(slow: Duration, fast: Duration) -> String {
    format!("{:.1}x", slow.as_secs_f64() / fast.as_secs_f64().max(1e-9))
}

/// One ablation figure on `draw`'s DBLP dataset and Fig. 4's four 20-query
/// DBLP workloads. `cells` measures one workload: its measured costs (the
/// figure's deterministic columns) and its table cells after the workload.
/// The report is `title`, the table under the comma-separated `columns`,
/// then `notes`.
fn ablation(
    draw: &Draw,
    search: &SearchOptions,
    (title, columns, notes): (&str, &str, &str),
    cells: impl Fn(&SearchInput, &Workload) -> (Vec<f64>, Vec<String>),
) -> Result<(Vec<Vec<f64>>, String), String> {
    let suite = WorkloadSpec::dblp_suite().into_iter();
    let workloads: Vec<Workload> = (suite.filter(|spec| spec.n_queries == 20))
        .map(|spec| draw.workload("dblp", &spec))
        .collect::<Result<_, _>>()?;
    let input = SearchInput::new(draw.dblp()?, search);
    let (mut costs, mut rows) = (Vec::new(), Vec::new());
    for workload in &workloads {
        let (measured, cells) = cells(&input, workload);
        costs.push(measured);
        rows.push([vec![workload.name.clone()], cells].concat());
    }
    let columns: Vec<&str> = columns.split(", ").collect();
    let report = format!(
        "\n=== {title} (DBLP, 20-query workloads), draw {} ===\n\n{}\n{notes}\n\n",
        draw.index,
        render_table(&columns, &rows)
    );
    Ok((costs, report))
}

/// Fig. 7: speed-up due to candidate selection.
///
/// The unpruned variants search the fully split schema with every
/// (subsumed) transformation and are slow by construction — exactly the
/// inefficiency the paper measures. Their greedy descent is capped at two
/// rounds, so the reported speed-ups are *lower bounds* (the full Greedy
/// runs uncapped). Returns the full Greedy's measured costs (the speed-ups
/// are wall-clock and stay out) and the report.
pub fn fig7(draw: &Draw, search: &SearchOptions) -> Result<(Vec<Vec<f64>>, String), String> {
    let text = (
        "Fig. 7: speed-up due to candidate selection",
        "workload, speedup: subsumption pruning, speedup: all rules, time (no pruning), \
         time (full Greedy), quality (cost)",
        "paper: subsumption pruning alone 8-12x, all rules ~2x more.\n\
         (unpruned variants capped at two greedy rounds: reported speed-ups are lower bounds.)",
    );
    ablation(draw, search, text, |input, workload| {
        // No candidate selection, with or without subsumption pruning.
        let unselected = |subsumption_pruning| GreedyOptions {
            subsumption_pruning,
            candidate_selection: false,
            max_rounds: 2,
            ..GreedyOptions::default()
        };
        let (t_none, _) = timed(input, workload, unselected(false));
        let (t_pruned, _) = timed(input, workload, unselected(true));
        let (t_full, q_full) = timed(input, workload, GreedyOptions::default());
        let cells = vec![
            speedup(t_none, t_pruned),
            speedup(t_none, t_full),
            fmt_duration(t_none),
            fmt_duration(t_full),
            format!("{q_full:.0}"),
        ];
        (vec![q_full], cells)
    })
}

/// Fig. 8: merging strategies. Returns tuned hybrid inlining's measured
/// cost, then no, greedy and exhaustive merging's.
pub fn fig8(draw: &Draw, search: &SearchOptions) -> Result<(Vec<Vec<f64>>, String), String> {
    let text = (
        "Fig. 8: candidate merging strategies",
        "workload, no merge (quality/time), greedy merge, exhaustive merge",
        "quality normalized to tuned hybrid inlining; time normalized to no-merging.\n\
         paper: greedy ~= exhaustive quality at 2-10x less time; no merging ~2x worse cost.",
    );
    ablation(draw, search, text, |input, workload| {
        let hybrid = input.hybrid(workload, Default::default()).measured_cost;
        let (mut measured, mut cells, mut none_time) = (vec![hybrid], Vec::new(), None);
        for merge_strategy in [
            MergeStrategy::None,
            MergeStrategy::Greedy,
            MergeStrategy::Exhaustive,
        ] {
            let options = GreedyOptions {
                merge_strategy,
                ..GreedyOptions::default()
            };
            let (t, q) = timed(input, workload, options);
            measured.push(q);
            let speed = speedup(t, *none_time.get_or_insert(t));
            cells.push(format!("{:.2} / {speed}", q / hybrid));
        }
        (measured, cells)
    })
}

/// Fig. 9: cost derivation. Returns hybrid inlining's measured cost, then
/// Greedy's with and without cost derivation.
pub fn fig9(draw: &Draw, search: &SearchOptions) -> Result<(Vec<Vec<f64>>, String), String> {
    let text = (
        "Fig. 9: cost derivation",
        "workload, quality with derivation, quality without, speedup, time with, time without",
        "paper: 4-10x speedup, at most ~3% quality drop.",
    );
    ablation(draw, search, text, |input, workload| {
        let hybrid = input.hybrid(workload, Default::default()).measured_cost;
        let without = GreedyOptions {
            cost_derivation: false,
            ..GreedyOptions::default()
        };
        let (t_with, q_with) = timed(input, workload, GreedyOptions::default());
        let (t_without, q_without) = timed(input, workload, without);
        let cells = vec![
            format!("{:.2}", q_with / hybrid),
            format!("{:.2}", q_without / hybrid),
            speedup(t_without, t_with),
            fmt_duration(t_with),
            fmt_duration(t_without),
        ];
        (vec![hybrid, q_with, q_without], cells)
    })
}
