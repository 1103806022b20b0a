//! The paper's Section 5 claims as pass rates over draws. Each draw moves
//! both dataset seeds and every workload seed (`harness::Draw`); draw 0 is
//! `reproduce figures`' own. The sweep runs the figure runners on draws
//! 0-11 at scale 0.25, prints each claim's pass rate with the median and
//! range of the ratio it judges, and pins the pass counts: every input is
//! a deterministic cost, so each count is exact. A claim that holds on
//! fewer than 80 % of its cells is "not reproduced".
//!
//! The loss diagnostic then re-runs Greedy, with one search switch changed
//! at a time, on every cell where Greedy misses Naive-Greedy by more than
//! 5 % or loses to Two-Step. It prints which switches bring Greedy within
//! that target, with the logical decisions the recovering design makes
//! beyond Greedy's, and pins how many cells each switch recovers.
//!
//! A few minutes in a release build on two cores, far longer in a debug
//! build, so ignored by default:
//!
//! ```text
//! cargo test --release -p xmlshred-bench --test claims -- --ignored --nocapture
//! ```

use std::collections::BTreeSet;
use std::time::Instant;
use xmlshred_bench::experiments::ablations;
use xmlshred_bench::experiments::evaluation::{self, Fig4Row};
use xmlshred_bench::experiments::motivating::{self, Motivating};
use xmlshred_bench::harness::{render_table, space_budget, Draw};
use xmlshred_core::quality::measure_quality;
use xmlshred_core::{greedy_search, EvalContext, GreedyOptions, MergeStrategy, SearchOptions};
use xmlshred_data::workload::WorkloadSpec;
use xmlshred_rel::ExecOptions;
use xmlshred_shred::mapping::{Mapping, PartitionDim};
use xmlshred_shred::source_stats::SourceStats;
use xmlshred_xml::tree::{NodeId, NodeKind, SchemaTree};

const SCALE: f64 = 0.25;
const DRAWS: u64 = 12;

/// One draw's deterministic figure columns.
struct Figures {
    index: u64,
    draw: Draw,
    fig4: Vec<Fig4Row>,
    motivating: Motivating,
    fig8: Vec<Vec<f64>>,
    fig9: Vec<Vec<f64>>,
}

fn run_draw(index: u64) -> Figures {
    let draw = Draw::new(SCALE, index).unwrap();
    let search = SearchOptions::default();
    Figures {
        index,
        draw,
        fig4: evaluation::run(&draw, &search, ExecOptions::default()).unwrap(),
        motivating: motivating::run(&draw).unwrap(),
        fig8: ablations::fig8(&draw).unwrap(),
        fig9: ablations::fig9(&draw).unwrap(),
    }
}

/// A ratio as Fig. 4 prints it.
fn two_places(ratio: f64) -> f64 {
    format!("{ratio:.2}").parse().unwrap()
}

/// `passes/cells (percent), median, range` of one claim's judged ratios.
fn rate(cells: &[(f64, bool)]) -> (usize, String) {
    let passes = cells.iter().filter(|(_, pass)| *pass).count();
    let mut ratios: Vec<f64> = cells.iter().map(|(ratio, _)| *ratio).collect();
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    let median = (ratios[(n - 1) / 2] + ratios[n / 2]) / 2.0;
    let (low, high) = (ratios[0], ratios[n - 1]);
    let verdict = if passes * 5 >= n * 4 {
        ""
    } else {
        ", not reproduced"
    };
    let percent = 100.0 * passes as f64 / n as f64;
    let cell = format!("{passes}/{n} ({percent:.0} %{verdict})");
    (
        passes,
        format!("{cell}; median {median:.2}, range {low:.2}-{high:.2}"),
    )
}

/// Greedy beats hybrid inlining: Greedy's Fig. 4 ratio.
fn hybrid_claim(row: &Fig4Row) -> (f64, bool) {
    let greedy = row.ratios()[0];
    (greedy, greedy < 1.0)
}

/// Greedy within 5 % of Naive-Greedy: Greedy / Naive-Greedy.
fn naive_claim(row: &Fig4Row) -> (f64, bool) {
    let [greedy, naive, _] = row.ratios();
    let ratio = greedy / naive;
    (ratio, ratio <= 1.05)
}

/// Greedy no worse than Two-Step on Fig. 4's two-decimal ratios:
/// Greedy / Two-Step.
fn two_step_claim(row: &Fig4Row) -> (f64, bool) {
    let [greedy, _, two_step] = row.ratios();
    let pass = two_places(greedy) <= two_places(two_step);
    (greedy / two_step, pass)
}

#[test]
#[ignore = "12 draws at scale 0.25, release build; run with --ignored --nocapture"]
fn paper_claims_over_twelve_draws() {
    let started = Instant::now();
    let draws: Vec<Figures> = (0..DRAWS).map(run_draw).collect();
    let fig4 = || draws.iter().flat_map(|d| &d.fig4);
    let cells =
        |claim: fn(&Fig4Row) -> (f64, bool)| -> Vec<(f64, bool)> { fig4().map(claim).collect() };

    // Greedy ~ Naive-Greedy, per workload.
    let (mut per_workload, mut rows) = (Vec::new(), Vec::new());
    for first in &draws[0].fig4 {
        let (dataset, workload) = (&first.dataset, &first.workload);
        let same = |row: &&Fig4Row| (&row.dataset, &row.workload) == (dataset, workload);
        let (passes, cell) = rate(&fig4().filter(same).map(naive_claim).collect::<Vec<_>>());
        per_workload.push(passes);
        rows.push(vec![format!("{dataset} {workload}"), cell]);
    }
    println!(
        "\n=== Claims over draws 0-{} at scale {SCALE} ===\n",
        DRAWS - 1
    );
    println!("Fig. 4: Greedy <= 1.05 x Naive-Greedy, per workload");
    let header = ["workload", "passes; Greedy / Naive-Greedy"];
    println!("{}", render_table(&header, &rows));

    let unrounded = fig4()
        .filter(|row| row.ratios()[0] <= row.ratios()[2])
        .count();
    // Per draw: the worst Two-Step ratio, over every workload and over DBLP's.
    let worst_two_step = |dataset: Option<&str>| -> Vec<(f64, bool)> {
        let worst = |d: &Figures| {
            let rows = d.fig4.iter();
            let rows = rows.filter(|r| dataset.is_none_or(|name| r.dataset == name));
            rows.map(|row| row.ratios()[2]).fold(0.0, f64::max)
        };
        draws.iter().map(|d| (worst(d), worst(d) > 1.0)).collect()
    };
    let tuned: Vec<(f64, bool)> = (draws.iter())
        .map(|d| d.motivating.costs[0] / d.motivating.costs[1])
        .map(|factor| (factor, factor >= 10.0))
        .collect();
    // Fig. 8 columns: hybrid, no merge, greedy merge, exhaustive merge.
    let merge: Vec<(f64, bool)> = (draws.iter().flat_map(|d| &d.fig8))
        .map(|costs| {
            let (greedy, exhaustive) = (costs[2] / costs[0], costs[3] / costs[0]);
            let pass = two_places(greedy) == two_places(exhaustive);
            (greedy / exhaustive, pass)
        })
        .collect();
    // Fig. 9 columns: hybrid, with derivation, without.
    let derivation: Vec<(f64, bool)> = (draws.iter().flat_map(|d| &d.fig9))
        .map(|costs| costs[1] / costs[2])
        .map(|loss| (loss, loss <= 1.03))
        .collect();

    let claims = [
        ("Fig. 4: Greedy beats hybrid, cells", cells(hybrid_claim)),
        (
            "Fig. 4: Greedy <= 1.05 x Naive-Greedy, cells",
            cells(naive_claim),
        ),
        (
            "Fig. 4: Greedy <= Two-Step, two decimals, cells",
            cells(two_step_claim),
        ),
        (
            "Fig. 4: Two-Step worse than hybrid somewhere, draws",
            worst_two_step(None),
        ),
        (
            "Fig. 4: ... on a DBLP workload, draws",
            worst_two_step(Some("dblp")),
        ),
        ("S1.1: tuned M1/M2 >= 10x, draws", tuned),
        (
            "Fig. 8: greedy merge = exhaustive, two decimals, cells",
            merge,
        ),
        ("Fig. 9: with/without derivation <= 1.03, cells", derivation),
    ];
    let (mut passes, mut rows) = (Vec::new(), Vec::new());
    for (claim, cells) in &claims {
        let (pass, cell) = rate(cells);
        passes.push(pass);
        rows.push(vec![claim.to_string(), cell]);
    }
    println!(
        "{}",
        render_table(&["claim", "passes; judged ratio"], &rows)
    );
    let total = fig4().count();
    println!("Greedy <= Two-Step on unrounded ratios: {unrounded}/{total}\n");

    diagnose_losses(&draws);
    println!(
        "claims sweep: {DRAWS} draws in {:.0} s",
        started.elapsed().as_secs_f64()
    );

    // DBLP 10-query, DBLP 20-query, then Movie workloads, in suite order.
    assert_eq!(per_workload, [6, 5, 10, 12, 2, 8, 9, 12, 2, 12, 11, 12]);
    assert_eq!(passes, [142, 101, 130, 11, 5, 12, 48, 37]);
    assert_eq!(unrounded, 128);
}

/// Greedy with one switch changed from the default, by label.
fn variants() -> Vec<(&'static str, GreedyOptions)> {
    let default = GreedyOptions::default;
    vec![
        (
            "subsumption_pruning off",
            GreedyOptions {
                subsumption_pruning: false,
                ..default()
            },
        ),
        (
            "candidate_selection off",
            GreedyOptions {
                candidate_selection: false,
                ..default()
            },
        ),
        (
            "cost_derivation off",
            GreedyOptions {
                cost_derivation: false,
                ..default()
            },
        ),
        (
            "merge_strategy Exhaustive",
            GreedyOptions {
                merge_strategy: MergeStrategy::Exhaustive,
                ..default()
            },
        ),
        (
            "merge_strategy None",
            GreedyOptions {
                merge_strategy: MergeStrategy::None,
                ..default()
            },
        ),
    ]
}

/// A node as `parent/tag`, or its kind over its first child's label.
fn label(tree: &SchemaTree, node: NodeId) -> String {
    match &tree.node(node).kind {
        NodeKind::Tag(tag) => match tree.parent_tag(node) {
            Some(parent) => format!("{}/{tag}", label(tree, parent)),
            None => tag.clone(),
        },
        kind => match tree.children(node).first() {
            Some(&child) => format!("{kind:?}({})", label(tree, child)),
            None => format!("{kind:?}"),
        },
    }
}

/// Every logical decision `mapping` makes beyond hybrid inlining.
fn decisions(tree: &SchemaTree, mapping: &Mapping) -> BTreeSet<String> {
    let name = |node: &NodeId| label(tree, *node);
    let annotations = mapping
        .annotation_overrides
        .iter()
        .map(|(node, ann)| match ann {
            Some(table) => format!("annotate {} as {table}", name(node)),
            None => format!("inline {}", name(node)),
        });
    let splits = (mapping.rep_splits.iter()).map(|(star, k)| format!("split {} x{k}", name(star)));
    let partitions = mapping.partitions.iter().flat_map(|(anchor, dims)| {
        dims.iter().map(move |dim| {
            let by = match dim {
                PartitionDim::Choice(choice) => name(choice),
                PartitionDim::Optionals(nodes) => {
                    nodes.iter().map(name).collect::<Vec<_>>().join(" + ")
                }
            };
            format!("partition {} by {by}", name(anchor))
        })
    });
    annotations.chain(splits).chain(partitions).collect()
}

/// Re-run every Fig. 4 cell that fails the Naive-Greedy or the Two-Step
/// claim under each switch of [`variants`]; print what each recovers, and
/// pin the recovered counts.
fn diagnose_losses(draws: &[Figures]) {
    println!("=== Loss diagnostic: Greedy with one switch changed, on every failing cell ===");
    let switches = variants();
    // Per switch: Naive-Greedy misses and Two-Step losses it recovers.
    let mut recovered = vec![(0, 0); switches.len()];
    let (mut misses, mut losses, mut unrecovered) = (0, 0, 0);
    let mut lp_hs_10 = None;
    for figures in draws {
        let draw = &figures.draw;
        for dataset in [draw.dblp().unwrap(), draw.movie().unwrap()] {
            let (tree, document) = (&dataset.tree, &dataset.document);
            let source = SourceStats::collect(tree, document);
            let suite = match dataset.name.as_str() {
                "dblp" => WorkloadSpec::dblp_suite(),
                _ => WorkloadSpec::movie_suite(),
            };
            for row in figures.fig4.iter().filter(|r| r.dataset == dataset.name) {
                let (naive_ok, two_step_ok) = (naive_claim(row).1, two_step_claim(row).1);
                if naive_ok && two_step_ok {
                    continue;
                }
                misses += usize::from(!naive_ok);
                losses += usize::from(!two_step_ok);
                let spec = suite.iter().find(|s| s.name() == row.workload).unwrap();
                let workload = draw.workload(&dataset.name, spec).unwrap();
                let ctx = EvalContext {
                    tree,
                    source: &source,
                    workload: &workload.queries,
                    space_budget: space_budget(&dataset),
                };
                let run = |options: &GreedyOptions| {
                    let outcome = greedy_search(&ctx, options);
                    let (mapping, config) = (&outcome.mapping, &outcome.config);
                    let quality =
                        measure_quality(tree, document, &workload.queries, mapping, config);
                    (quality.measured_cost / row.hybrid, outcome.mapping)
                };
                let [greedy, naive, two_step] = row.ratios();
                println!(
                    "\ndraw {} {} {}: Greedy {greedy:.2}, Naive-Greedy {naive:.2}, Two-Step \
                     {two_step:.2} ({})",
                    figures.index,
                    dataset.name,
                    row.workload,
                    match (naive_ok, two_step_ok) {
                        (false, false) => "Naive miss, Two-Step loss",
                        (false, true) => "Naive miss",
                        _ => "Two-Step loss",
                    }
                );
                let (mut greedy_decisions, mut any) = (None, false);
                for ((label, options), counts) in switches.iter().zip(&mut recovered) {
                    let (ratio, mapping) = run(options);
                    let beats_naive = !naive_ok && ratio / naive <= 1.05;
                    let beats_two_step = !two_step_ok && two_places(ratio) <= two_places(two_step);
                    counts.0 += usize::from(beats_naive);
                    counts.1 += usize::from(beats_two_step);
                    if (figures.index, &*row.workload, *label)
                        == (0, "LP-HS-10", "subsumption_pruning off")
                    {
                        lp_hs_10 = Some((ratio, two_step));
                    }
                    if !(beats_naive || beats_two_step) {
                        continue;
                    }
                    any = true;
                    println!(
                        "  {label}: {ratio:.2}, decisions beyond Greedy's (+) and missing (-):"
                    );
                    let greedy = greedy_decisions
                        .get_or_insert_with(|| decisions(tree, &run(&GreedyOptions::default()).1));
                    let theirs = decisions(tree, &mapping);
                    theirs
                        .difference(greedy)
                        .for_each(|d| println!("    + {d}"));
                    greedy
                        .difference(&theirs)
                        .for_each(|d| println!("    - {d}"));
                }
                if !any {
                    unrecovered += 1;
                    println!("  no single switch recovers it");
                }
            }
        }
    }
    let rows: Vec<Vec<String>> = (switches.iter().zip(&recovered))
        .map(|((label, _), (naive, two_step))| {
            let naive = format!("{naive}/{misses}");
            vec![label.to_string(), naive, format!("{two_step}/{losses}")]
        })
        .collect();
    let header = [
        "switch",
        "Naive misses recovered",
        "Two-Step losses recovered",
    ];
    println!("\n{}", render_table(&header, &rows));
    println!("failing cells no single switch recovers: {unrecovered}\n");

    // The draw-0 DBLP LP-HS-10 loss is a subsumption-pruning loss.
    let (ratio, two_step) = lp_hs_10.expect("draw 0 DBLP LP-HS-10 fails a claim");
    assert_eq!((two_places(ratio), two_places(two_step)), (0.46, 0.52));
    assert_eq!((misses, losses, unrecovered), (43, 14, 8));
    // Per switch, in `variants` order: (Naive misses, Two-Step losses).
    let expected = [(17, 10), (0, 1), (21, 4), (0, 0), (0, 0)];
    assert_eq!(recovered, expected);
}
