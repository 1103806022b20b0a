//! The paper's Section 5 claims as data, judged over draws 0-11
//! (`reproduce claims`). A [`Claim`] is the paper's statement, its section
//! and a predicate over one draw's figure-runner columns, per cell
//! (workload) or per draw. Every input is a deterministic cost or count,
//! so each pass count is exact; below 80 % a claim is "not reproduced".
//!
//! The run prints one markdown block, which EXPERIMENTS.md holds verbatim
//! between [`BEGIN`] and [`END`]: the claims table, Greedy / Naive-Greedy
//! per workload, the unrounded Greedy <= Two-Step count and the loss
//! diagnostic (Greedy re-run with one switch changed on every Fig. 4 cell
//! that fails the Naive-Greedy or the Two-Step claim). The decisions of
//! each recovering switch and the wall time follow, then a `claims hash`
//! over the block ([`digest`]): `PINS` pins it, and `tests/cli.rs` checks
//! EXPERIMENTS.md's block against the pin.

use super::ablations;
use super::evaluation::{self, Fig4Row};
use super::motivating::{self, Motivating};
use super::RunOptions;
use crate::harness::{fold_str, render_table, Draw, SearchInput};
use std::collections::BTreeSet;
use std::time::Instant;
use xmlshred_core::{GreedyOptions, MergeStrategy, SearchOptions};
use xmlshred_data::workload::WorkloadSpec;
use xmlshred_shred::mapping::{Mapping, PartitionDim};
use xmlshred_xml::tree::{NodeId, NodeKind, SchemaTree};
use Judge::{Cells, Draws};

/// The marker line before the claims block, in the output and in
/// EXPERIMENTS.md.
pub const BEGIN: &str = "<!-- claims:begin -->\n";
/// The marker after the claims block.
pub const END: &str = "<!-- claims:end -->";

/// The draws every claim is judged on.
const DRAWS: u64 = 12;

/// The `claims hash` of a block's exact text.
pub fn digest(block: &str) -> u64 {
    fold_str(0xc1a1_5eed, block)
}

/// One draw's deterministic figure columns.
struct Figures {
    fig4: Vec<Fig4Row>,
    motivating: Motivating,
    /// Per workload: hybrid inlining, no, greedy and exhaustive merging.
    fig8: Vec<Vec<f64>>,
    /// Per workload: hybrid inlining, Greedy with and without derivation.
    fig9: Vec<Vec<f64>>,
}

/// What a claim judges in one draw: the ratio it reads and whether the
/// claim holds, per cell (workload) or once for the draw.
enum Judge {
    Cells(fn(&Figures) -> Vec<(f64, bool)>),
    Draws(fn(&Figures) -> (f64, bool)),
}

/// One claim of the paper; the statement names the ratio it judges.
struct Claim {
    section: &'static str,
    statement: &'static str,
    judge: Judge,
}

/// The registry: every claim `reproduce claims` judges, in table order.
const CLAIMS: [Claim; 11] = [
    Claim {
        section: "Fig. 4",
        statement: "Greedy beats hybrid inlining: Greedy / hybrid < 1",
        judge: Cells(|f| {
            f.fig4
                .iter()
                .map(|r| r.ratios()[0])
                .map(|g| (g, g < 1.0))
                .collect()
        }),
    },
    Claim {
        section: "Fig. 4",
        statement: "Greedy ≈ Naive-Greedy: Greedy / Naive-Greedy ≤ 1.05",
        judge: Cells(|f| f.fig4.iter().map(naive).collect()),
    },
    Claim {
        section: "Fig. 4",
        statement: "Greedy no worse than Two-Step on two-decimal ratios: Greedy / Two-Step",
        judge: Cells(|f| f.fig4.iter().map(two_step).collect()),
    },
    Claim {
        section: "Fig. 4",
        statement: "Two-Step worse than hybrid on some workload: worst Two-Step / hybrid > 1",
        judge: Draws(|f| worst_two_step(f, None)),
    },
    Claim {
        section: "Fig. 4",
        statement: "... on a DBLP workload (the paper's LP-LS-20)",
        judge: Draws(|f| worst_two_step(f, Some("dblp"))),
    },
    Claim {
        section: "§1.1",
        statement: "Joint design wins big: tuned M1 / M2 ≥ 10 (paper ~20)",
        judge: Draws(|f| {
            let ratio = f.motivating.costs[0] / f.motivating.costs[1];
            (ratio, ratio >= 10.0)
        }),
    },
    Claim {
        section: "§1.1",
        statement: "The untuned ranking inverts: untuned M1 / M2 < 1 (paper 0.78)",
        judge: Draws(|f| {
            let ratio = f.motivating.costs[2] / f.motivating.costs[3];
            (ratio, ratio < 1.0)
        }),
    },
    Claim {
        section: "Fig. 6",
        statement: "Greedy searches fewer transformations: Naive-Greedy / Greedy ≥ 10 on DBLP, \
                    ≥ 5 on Movie",
        judge: Cells(|f| {
            let searched = |r: &Fig4Row| {
                let ratio = r.runs[1].1 as f64 / r.runs[0].1 as f64;
                (ratio, ratio >= if r.dataset == "dblp" { 10.0 } else { 5.0 })
            };
            f.fig4.iter().map(searched).collect()
        }),
    },
    Claim {
        section: "Fig. 8",
        statement: "Greedy merging = exhaustive on two-decimal ratios: greedy / exhaustive",
        judge: Cells(|f| {
            let same = |c: &Vec<f64>| two_places(c[2] / c[0]) == two_places(c[3] / c[0]);
            f.fig8.iter().map(|c| (c[2] / c[3], same(c))).collect()
        }),
    },
    Claim {
        section: "Fig. 8",
        statement: "No merging ~2x worse: no merge / greedy merge ≥ 1.5",
        judge: Cells(|f| {
            f.fig8
                .iter()
                .map(|c| (c[1] / c[2], c[1] / c[2] >= 1.5))
                .collect()
        }),
    },
    Claim {
        section: "Fig. 9",
        statement: "Cost derivation loses ≤ 3 %: with / without derivation ≤ 1.03",
        judge: Cells(|f| {
            f.fig9
                .iter()
                .map(|c| (c[1] / c[2], c[1] / c[2] <= 1.03))
                .collect()
        }),
    },
];

/// A ratio as Fig. 4 prints it.
fn two_places(ratio: f64) -> f64 {
    format!("{ratio:.2}").parse().unwrap_or(ratio)
}

/// Greedy within 5 % of Naive-Greedy: Greedy / Naive-Greedy.
fn naive(row: &Fig4Row) -> (f64, bool) {
    let [greedy, naive, _] = row.ratios();
    (greedy / naive, greedy / naive <= 1.05)
}

/// Greedy no worse than Two-Step on Fig. 4's two-decimal ratios.
fn two_step(row: &Fig4Row) -> (f64, bool) {
    let [greedy, _, two_step] = row.ratios();
    (
        greedy / two_step,
        two_places(greedy) <= two_places(two_step),
    )
}

/// A draw's worst Two-Step / hybrid ratio over `dataset`'s workloads, or
/// over all of them.
fn worst_two_step(f: &Figures, dataset: Option<&str>) -> (f64, bool) {
    let rows = f.fig4.iter();
    let rows = rows.filter(|r| dataset.is_none_or(|name| r.dataset == name));
    let worst = rows.map(|row| row.ratios()[2]).fold(0.0, f64::max);
    (worst, worst > 1.0)
}

/// `passes/n unit (percent[, not reproduced])`, then `median (low–high)`
/// of one claim's judged cells.
fn rate(cells: &[(f64, bool)], unit: &str) -> [String; 2] {
    let passes = cells.iter().filter(|(_, pass)| *pass).count();
    let mut ratios: Vec<f64> = cells.iter().map(|(ratio, _)| *ratio).collect();
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    let median = (ratios[(n - 1) / 2] + ratios[n / 2]) / 2.0;
    let verdict = if passes * 5 >= n * 4 {
        ""
    } else {
        ", **not reproduced**"
    };
    let percent = 100.0 * passes as f64 / n as f64;
    [
        format!("{passes}/{n} {unit} ({percent:.0} %{verdict})"),
        format!("{median:.2} ({:.2}–{:.2})", ratios[0], ratios[n - 1]),
    ]
}

/// A switch of the loss diagnostic: its label, and the one option of
/// Greedy it changes from the default.
type Switch = (&'static str, fn(&mut GreedyOptions));

const SWITCHES: [Switch; 5] = [
    ("subsumption_pruning off", |o| o.subsumption_pruning = false),
    ("candidate_selection off", |o| o.candidate_selection = false),
    ("cost_derivation off", |o| o.cost_derivation = false),
    ("merge_strategy Exhaustive", |o| {
        o.merge_strategy = MergeStrategy::Exhaustive
    }),
    ("merge_strategy None", |o| {
        o.merge_strategy = MergeStrategy::None
    }),
];

/// The loss diagnostic, accumulated draw by draw.
#[derive(Default)]
struct Diagnostic {
    /// Per switch: the Naive-Greedy misses and Two-Step losses it recovers.
    recovered: [(usize, usize); SWITCHES.len()],
    misses: usize,
    losses: usize,
    unrecovered: usize,
    /// One table row per failing cell.
    cells: Vec<Vec<String>>,
    /// Each recovering switch's decisions beyond Greedy's (+) and missing (-).
    decisions: String,
}

impl Diagnostic {
    /// Re-run Greedy under each switch on every failing Fig. 4 cell of
    /// `draw`. A switch recovers a Naive-Greedy miss by coming within 5 %
    /// of Naive-Greedy's cost, a Two-Step loss by reaching Two-Step's
    /// two-decimal ratio.
    fn add(&mut self, draw: &Draw, fig4: &[Fig4Row], search: &SearchOptions) -> Result<(), String> {
        for (dataset, suite) in [
            (draw.dblp()?, WorkloadSpec::dblp_suite()),
            (draw.movie()?, WorkloadSpec::movie_suite()),
        ] {
            let input = SearchInput::new(dataset, search);
            let (name, tree) = (&input.dataset.name, &input.dataset.tree);
            // Fig. 4 runs each dataset's suite in order.
            for (row, spec) in fig4.iter().filter(|r| &r.dataset == name).zip(&suite) {
                let (naive_ok, two_step_ok) = (naive(row).1, two_step(row).1);
                if naive_ok && two_step_ok {
                    continue;
                }
                self.misses += usize::from(!naive_ok);
                self.losses += usize::from(!two_step_ok);
                let workload = draw.workload(name, spec)?;
                let cell = format!("draw {} {name} {}", draw.index, row.workload);
                let [greedy, naive, two_step] = row.ratios();
                let (mut recovering, mut greedy_decisions) = (Vec::new(), None);
                for ((label, switch), counts) in SWITCHES.iter().zip(&mut self.recovered) {
                    let mut options = GreedyOptions::default();
                    switch(&mut options);
                    let run = input.greedy(&workload, options);
                    let ratio = run.quality.measured_cost / row.hybrid;
                    let beats_naive = !naive_ok && ratio / naive <= 1.05;
                    let beats_two_step = !two_step_ok && two_places(ratio) <= two_places(two_step);
                    counts.0 += usize::from(beats_naive);
                    counts.1 += usize::from(beats_two_step);
                    if !(beats_naive || beats_two_step) {
                        continue;
                    }
                    recovering.push(format!("{label} {ratio:.2}"));
                    let greedy = greedy_decisions.get_or_insert_with(|| {
                        decisions(
                            tree,
                            &input.greedy(&workload, Default::default()).outcome.mapping,
                        )
                    });
                    let theirs = decisions(tree, &run.outcome.mapping);
                    self.decisions += &format!("\n{cell}, {label}: {ratio:.2}\n");
                    for d in theirs.difference(greedy) {
                        self.decisions += &format!("  + {d}\n");
                    }
                    for d in greedy.difference(&theirs) {
                        self.decisions += &format!("  - {d}\n");
                    }
                }
                if recovering.is_empty() {
                    self.unrecovered += 1;
                    recovering.push("none".into());
                }
                let mut cells = vec![draw.index.to_string(), format!("{name} {}", row.workload)];
                cells.extend([greedy, naive, two_step].map(|ratio| format!("{ratio:.2}")));
                cells.push(recovering.join("; "));
                self.cells.push(cells);
            }
        }
        Ok(())
    }

    /// The diagnostic's part of the claims block.
    fn block(&self) -> String {
        let (misses, losses) = (self.misses, self.losses);
        let rows: Vec<Vec<String>> = (SWITCHES.iter().zip(&self.recovered))
            .map(|((label, _), (naive, two_step))| {
                let naive = format!("{naive}/{misses}");
                vec![format!("`{label}`"), naive, format!("{two_step}/{losses}")]
            })
            .collect();
        let columns = |names: &'static str| names.split(", ").collect::<Vec<_>>();
        let header = columns("switch, Naive-Greedy misses recovered, Two-Step losses recovered");
        let cells = columns("draw, workload, Greedy, Naive-Greedy, Two-Step, recovered by (ratio)");
        format!(
            "**Loss diagnostic.** Greedy re-run with one switch changed, on the {} cells that \
             fail the Naive-Greedy or the Two-Step claim ({misses} Naive-Greedy misses, \
             {losses} Two-Step losses). No single switch recovers {} of them.\n\n{}\n\
             <details><summary>The failing cells: ratios to tuned hybrid inlining, and the \
             switches that recover each</summary>\n\n{}\n</details>\n",
            self.cells.len(),
            self.unrecovered,
            render_table(&header, &rows),
            render_table(&cells, &self.cells),
        )
    }
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

/// `reproduce claims`: draws 0-11 at `scale`, the claims block between its
/// markers, the decisions, the wall time and the `claims hash`.
pub fn run(scale: f64, opts: &RunOptions) -> Result<(), String> {
    if opts.seed.is_some() {
        return Err(format!(
            "claims runs draws 0-{}; --seed does not apply",
            DRAWS - 1
        ));
    }
    let started = Instant::now();
    let (mut draws, mut diagnostic) = (Vec::new(), Diagnostic::default());
    for index in 0..DRAWS {
        let (draw, search) = (Draw::new(scale, index)?, opts.search_for_run());
        let figures = Figures {
            fig4: evaluation::run(&draw, &search, opts.exec)?.0,
            motivating: motivating::run(&draw)?.0,
            fig8: ablations::fig8(&draw, &search)?.0,
            fig9: ablations::fig9(&draw, &search)?.0,
        };
        diagnostic.add(&draw, &figures.fig4, &search)?;
        draws.push(figures);
    }

    let claims: Vec<Vec<String>> = (CLAIMS.iter())
        .map(|claim| {
            let (cells, unit): (Vec<_>, _) = match claim.judge {
                Cells(judge) => (draws.iter().flat_map(judge).collect(), "cells"),
                Draws(judge) => (draws.iter().map(judge).collect(), "draws"),
            };
            let [passes, ratio] = rate(&cells, unit);
            vec![claim.section.into(), claim.statement.into(), passes, ratio]
        })
        .collect();
    let fig4 = || draws.iter().flat_map(|d| &d.fig4);
    let per_workload: Vec<Vec<String>> = (draws[0].fig4.iter())
        .map(|first| {
            let key = (&first.dataset, &first.workload);
            let rows = fig4().filter(|row| (&row.dataset, &row.workload) == key);
            let [passes, ratio] = rate(&rows.map(naive).collect::<Vec<_>>(), "draws");
            vec![format!("{} {}", key.0, key.1), passes, ratio]
        })
        .collect();
    let unrounded = fig4().filter(|r| r.ratios()[0] <= r.ratios()[2]).count();

    let block = format!(
        "Draws 0–{} at scale {scale}; a claim that holds on fewer than 80 % of its cells is \
         **not reproduced**.\n\n{}\nGreedy ≤ 1.05 × Naive-Greedy per workload (Greedy / \
         Naive-Greedy):\n\n{}\nGreedy ≤ Two-Step on unrounded ratios: {unrounded}/{} cells.\n\n\
         {}",
        DRAWS - 1,
        render_table(&["§", "claim", "passes", "median (range)"], &claims),
        render_table(&["workload", "passes", "median (range)"], &per_workload),
        fig4().count(),
        diagnostic.block(),
    );
    println!("\n{BEGIN}{block}{END}");
    println!("\n=== Loss diagnostic: decisions beyond Greedy's (+) and missing (-) ===");
    print!("{}", diagnostic.decisions);
    println!(
        "\nclaims sweep: {DRAWS} draws in {:.0} s",
        started.elapsed().as_secs_f64()
    );
    println!("claims hash: {:016x}", digest(&block));
    Ok(())
}
