//! Table 1: characteristics of the datasets used in the experiments.
//!
//! The paper reports, per dataset: size, space limit, the number of
//! applicable transformations (total and nonsubsumed), and the counts of
//! unions, repetitions, and shared types. (The paper's DBLP at 100 MB had
//! 271 transformations; counts scale with the schema, not the data.)

use crate::harness::{fold_str, render_table, space_budget, Draw};
use xmlshred_data::Dataset;
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::transform::count_transformations;
use xmlshred_xml::tree::NodeKind;

/// Run the experiment; returns the digest of every cell and the report.
pub fn run(draw: &Draw) -> Result<(u64, String), String> {
    let mut rows = Vec::new();
    for dataset in [draw.dblp()?, draw.movie()?] {
        rows.push(characterize(&dataset));
    }
    let table = render_table(
        &[
            "dataset",
            "elements",
            "~MB",
            "space limit MB",
            "transformations",
            "nonsubsumed",
            "unions",
            "repetitions",
            "shared types",
        ],
        &rows,
    );
    let digest = rows.iter().flatten().fold(0, |h, cell| fold_str(h, cell));
    let header = format!(
        "=== Table 1: dataset characteristics, draw {} ===",
        draw.index
    );
    Ok((digest, format!("\n{header}\n\n{table}\n")))
}

fn characterize(dataset: &Dataset) -> Vec<String> {
    let tree = &dataset.tree;
    let mapping = Mapping::hybrid(tree);
    let counts = count_transformations(tree, &mapping);

    let mut choices = 0usize;
    let mut optionals = 0usize;
    let mut repetitions = 0usize;
    for node in tree.node_ids() {
        match tree.node(node).kind {
            NodeKind::Choice => choices += 1,
            NodeKind::Optional => optionals += 1,
            NodeKind::Repetition => repetitions += 1,
            _ => {}
        }
    }
    // Shared types: annotation groups with more than one node, plus
    // structurally equal tag pairs with distinct annotations (the DBLP
    // title/title1 case).
    let shared_annotations = mapping
        .annotation_groups(tree)
        .values()
        .filter(|nodes| nodes.len() > 1)
        .count();
    let tags = tree.tag_nodes();
    let mut shared_structural = 0usize;
    for (i, &a) in tags.iter().enumerate() {
        for &b in &tags[i + 1..] {
            // "Logically equivalent types with distinct annotated parents"
            // (Section 2): structurally equal same-tag nodes living in
            // different tables.
            let same_annotation = mapping.annotation(tree, a).is_some()
                && mapping.annotation(tree, a) == mapping.annotation(tree, b);
            if tree.node(a).kind == tree.node(b).kind
                && tree.structurally_equal(a, b)
                && mapping.anchor_of(tree, a) != mapping.anchor_of(tree, b)
                && !same_annotation
            {
                shared_structural += 1;
            }
        }
    }

    vec![
        dataset.name.clone(),
        dataset.document.subtree_size().to_string(),
        format!("{:.0}", dataset.approx_bytes() as f64 / 1e6),
        format!("{:.0}", space_budget(dataset) / 1e6),
        counts.total.to_string(),
        counts.nonsubsumed.to_string(),
        format!("{}", choices + optionals),
        repetitions.to_string(),
        (shared_annotations + shared_structural).to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterization_shape() {
        let row = characterize(&Draw::new(0.01, 0).unwrap().dblp().unwrap());
        assert_eq!(row.len(), 9);
        assert_eq!(row[0], "dblp");
        // DBLP has the shared author annotation and the shared title type.
        assert!(row[8].parse::<usize>().unwrap() >= 2);
    }
}
