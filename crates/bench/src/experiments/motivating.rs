//! The Section 1.1 motivating experiment: Mapping 1 (hybrid inlining) vs
//! Mapping 2 (first five authors inlined), with and without tuned physical
//! design, on the SIGMOD-papers query.
//!
//! Paper numbers (SQL Server 2000, 100 MB, 300 MB space limit):
//!
//! |            | with physical design | without |
//! |------------|----------------------|---------|
//! | Mapping 1  | 5.1 s                | 21 s    |
//! | Mapping 2  | 0.25 s               | 27 s    |
//!
//! The reproduction reports measured cost units; the *shape* to check is
//! that Mapping 2 wins by a large factor with physical design and loses
//! that advantage without it.

use crate::harness::{fold, render_table, space_budget, Draw};
use xmlshred_core::quality::{measure_quality, measure_quality_with_tuning};
use xmlshred_rel::optimizer::PhysicalConfig;
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::source_stats::SourceStats;
use xmlshred_shred::transform::Transformation;
use xmlshred_xml::tree::NodeKind;
use xmlshred_xpath::parser::parse_path;

/// The experiment's deterministic columns: the split count, then the
/// measured costs of Mappings 1 and 2 tuned, then of both untuned.
pub struct Motivating {
    pub split_count: usize,
    pub costs: [f64; 4],
}

impl Motivating {
    /// The digest of the split count and the four measured costs.
    pub fn digest(&self) -> u64 {
        let costs = self.costs.iter();
        costs.fold(self.split_count as u64, |h, cost| fold(h, cost.to_bits()))
    }
}

/// Run the experiment on `draw`'s DBLP dataset; returns its columns and
/// the report.
pub fn run(draw: &Draw) -> Result<(Motivating, String), String> {
    let dataset = draw.dblp()?;
    let tree = &dataset.tree;
    let source = SourceStats::collect(tree, &dataset.document);

    let workload = vec![(
        parse_path("/dblp/inproceedings[booktitle = \"CONF7\"]/(title | year | author)")
            .map_err(|e| e.to_string())?,
        1.0,
    )];

    let mapping1 = Mapping::hybrid(tree);
    let star = tree
        .node_ids()
        .find(|&n| {
            matches!(tree.node(n).kind, NodeKind::Repetition)
                && tree.node(tree.children(n)[0]).kind.tag_name() == Some("author")
        })
        .ok_or("author repetition not found")?;
    let k = source.choose_split_count(star, 5, 0.8).unwrap_or(5);
    let mapping2 = Transformation::RepetitionSplit { star, count: k }
        .apply(tree, &mapping1)
        .map_err(|e| e.to_string())?;

    let budget = space_budget(&dataset);
    let m1_tuned =
        measure_quality_with_tuning(tree, &dataset.document, &workload, &mapping1, budget);
    let m2_tuned =
        measure_quality_with_tuning(tree, &dataset.document, &workload, &mapping2, budget);
    let none = PhysicalConfig::none();
    let m1_plain = measure_quality(tree, &dataset.document, &workload, &mapping1, &none);
    let m2_plain = measure_quality(tree, &dataset.document, &workload, &mapping2, &none);

    let rows = vec![
        vec![
            "Mapping 1 (hybrid)".to_string(),
            format!("{:.1}", m1_tuned.measured_cost),
            format!("{:.1}", m1_plain.measured_cost),
            "5.1 s".into(),
            "21 s".into(),
        ],
        vec![
            format!("Mapping 2 (split k={k})"),
            format!("{:.1}", m2_tuned.measured_cost),
            format!("{:.1}", m2_plain.measured_cost),
            "0.25 s".into(),
            "27 s".into(),
        ],
    ];
    let table = render_table(
        &[
            "mapping",
            "tuned (cost units)",
            "untuned (cost units)",
            "paper tuned",
            "paper untuned",
        ],
        &rows,
    );
    let report = format!(
        "\n=== Section 1.1 motivating experiment, draw {} ===\n\n\
         Section 4.6 split count: k = {k} (paper: 5)\n\n{table}\n\
         tuned win factor (M1/M2):   {:.1}x   (paper: ~20x)\n\
         untuned win factor (M1/M2): {:.2}x   (paper: 0.78x — Mapping 2 loses)\n",
        draw.index,
        m1_tuned.measured_cost / m2_tuned.measured_cost,
        m1_plain.measured_cost / m2_plain.measured_cost
    );
    let costs = [m1_tuned, m2_tuned, m1_plain, m2_plain].map(|r| r.measured_cost);
    Ok((
        Motivating {
            split_count: k,
            costs,
        },
        report,
    ))
}
