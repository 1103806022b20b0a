//! Does pruning cost Greedy its two Fig. 4 losses? On DBLP LP-HS-10 and
//! Movie HP-LS-20, Two-Step recommends a cheaper design than Greedy. This
//! re-runs Greedy on both with one search switch changed at a time (the
//! Fig. 7/8/9 ablation switches) and prints each variant's measured and
//! estimated ratio beside Naive-Greedy's and Two-Step's, normalized as in
//! Fig. 4, then the logical decisions in Two-Step's mapping that Greedy's
//! lacks. A variant at or below Two-Step's ratio names the switch whose
//! pruning drops the winning transformation.
//!
//! Seconds in a release build at scale 1, far longer in a debug build, so
//! ignored by default:
//!
//! ```text
//! cargo test --release -p xmlshred-bench --test greedy_pruning -- --ignored --nocapture
//! ```

use std::collections::{BTreeMap, BTreeSet};
use xmlshred_bench::harness::{
    hybrid_baseline_exec, render_table, run_algorithms, space_budget, Algo, BenchScale,
};
use xmlshred_core::quality::{measure_quality_with_exec, QualityReport};
use xmlshred_core::{
    greedy_search, AdvisorOutcome, EvalContext, GreedyOptions, MergeStrategy, SearchOptions,
};
use xmlshred_data::workload::WorkloadSpec;
use xmlshred_data::Dataset;
use xmlshred_rel::{ExecOptions, PhysicalConfig};
use xmlshred_shred::mapping::{Mapping, PartitionDim};
use xmlshred_shred::source_stats::SourceStats;
use xmlshred_xml::tree::{NodeId, NodeKind, SchemaTree};

/// Greedy with one switch changed from the default, by label.
fn variants() -> Vec<(&'static str, GreedyOptions)> {
    let default = GreedyOptions::default;
    vec![
        ("Greedy (default)", default()),
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

/// `measured (est estimated)`, each normalized to the baseline's.
fn ratio(quality: &QualityReport, base: &QualityReport) -> (f64, String) {
    let measured = quality.measured_cost / base.measured_cost;
    let estimated = quality.estimated_cost / base.estimated_cost;
    (measured, format!("{measured:.2} (est {estimated:.2})"))
}

/// Run every variant plus Naive-Greedy and Two-Step on one workload, print
/// their ratios and how each design that beats Greedy's differs from it,
/// and return every measured ratio by search name.
fn investigate(
    dataset: &Dataset,
    spec: &WorkloadSpec,
    name: &str,
    scale: BenchScale,
) -> BTreeMap<&'static str, f64> {
    let workload = scale.workload(&dataset.name, spec).expect("workload");
    assert_eq!(workload.name, name);
    let source = SourceStats::collect(&dataset.tree, &dataset.document);
    let budget = space_budget(dataset);
    let exec = ExecOptions::default();
    let base = hybrid_baseline_exec(dataset, &workload, budget, exec);
    let ctx = EvalContext {
        tree: &dataset.tree,
        source: &source,
        workload: &workload.queries,
        space_budget: budget,
    };
    let measure = |mapping: &Mapping, config: &PhysicalConfig| {
        let queries = &workload.queries;
        let (tree, document) = (&dataset.tree, &dataset.document);
        measure_quality_with_exec(tree, document, queries, mapping, config, exec)
    };

    let (mut rows, mut mappings) = (Vec::new(), Vec::new());
    let mut note = |name: &'static str, quality: &QualityReport, outcome: &AdvisorOutcome| {
        let (measured, cell) = ratio(quality, &base);
        let searched = outcome.stats.transformations_searched.to_string();
        rows.push(vec![name.to_string(), cell, searched]);
        mappings.push((name, measured, outcome.mapping.clone()));
    };
    for (name, options) in variants() {
        let outcome = greedy_search(&ctx, &options);
        note(name, &measure(&outcome.mapping, &outcome.config), &outcome);
    }
    let algos = [Algo::NaiveGreedy, Algo::TwoStep];
    let search = SearchOptions::default();
    for run in run_algorithms(dataset, &source, &workload, budget, &algos, &search, exec) {
        note(run.algorithm, &run.quality, &run.outcome);
    }
    println!(
        "\n{} {}: workload cost normalized to tuned hybrid inlining",
        dataset.name, workload.name
    );
    let header = ["search", "measured (est)", "transformations searched"];
    println!("{}", render_table(&header, &rows));

    let (_, greedy_ratio, greedy_mapping) = &mappings[0];
    let greedy = decisions(&dataset.tree, greedy_mapping);
    for (name, measured, mapping) in &mappings[1..] {
        if measured < greedy_ratio {
            let theirs = decisions(&dataset.tree, mapping);
            println!("{name} against Greedy (+ only in {name}'s mapping, - only in Greedy's):");
            theirs.difference(&greedy).for_each(|d| println!("  + {d}"));
            greedy.difference(&theirs).for_each(|d| println!("  - {d}"));
        }
    }
    mappings
        .iter()
        .map(|(name, measured, _)| (*name, *measured))
        .collect()
}

#[test]
#[ignore = "scale 1, release build; run with --ignored --nocapture"]
fn greedy_losses_under_each_pruning_switch() {
    let scale = BenchScale(1.0);
    let dblp = scale.dblp().expect("dblp");
    let lp_hs_10 = WorkloadSpec::dblp_suite()[1];
    let dblp = investigate(&dblp, &lp_hs_10, "LP-HS-10", scale);
    let movie = scale.movie().expect("movie");
    let hp_ls_20 = WorkloadSpec::movie_suite()[2];
    let movie = investigate(&movie, &hp_ls_20, "HP-LS-20", scale);
    // The default variant is Fig. 4's Greedy column.
    let two_places = |ratio: f64| format!("{ratio:.2}");
    assert_eq!(two_places(dblp["Greedy (default)"]), "0.60");
    assert_eq!(two_places(movie["Greedy (default)"]), "0.28");
    // The verdict: each loss is a pruning loss. One switch brings Greedy to
    // Two-Step's ratio or better, and it is a different switch on each.
    let at_most = |ratio: f64, two_step: f64| two_places(ratio) <= two_places(two_step);
    assert!(at_most(dblp["subsumption_pruning off"], dblp["Two-Step"]));
    assert!(at_most(movie["candidate_selection off"], movie["Two-Step"]));
}
