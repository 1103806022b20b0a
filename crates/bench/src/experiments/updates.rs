//! Extension experiment (the paper's stated future work, Section 7):
//! update-aware physical design. Sweeps the update volume on the DBLP
//! tables and shows how the tuning tool trades indexes for update cost —
//! heavy writers get fewer and narrower structures.

use crate::harness::{fold, render_table, space_budget, Draw};
use xmlshred_core::context::EvalContext;
use xmlshred_core::physical::{tune_with_updates, UpdateLoad};
use xmlshred_data::workload::WorkloadSpec;
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::source_stats::SourceStats;

/// Run the experiment; returns the digest of every design's structure
/// counts and cost.
pub fn run(draw: &Draw) -> Result<u64, String> {
    println!("\n=== Extension: update-aware physical design (not in the paper; its Section 7 future work) ===\n");
    let dataset = draw.dblp()?;
    let source = SourceStats::collect(&dataset.tree, &dataset.document);
    // LP-LS-10's shape under its own seed.
    let spec = WorkloadSpec {
        seed: 77,
        ..WorkloadSpec::dblp_suite()[0]
    };
    let workload = draw.workload("dblp", &spec)?;
    let budget = space_budget(&dataset);
    let ctx = EvalContext {
        tree: &dataset.tree,
        source: &source,
        workload: &workload.queries,
        space_budget: budget,
    };
    let prepared = ctx.prepare(&Mapping::hybrid(&dataset.tree));
    let translated = prepared.translated(&workload.queries);
    let queries: Vec<(&xmlshred_rel::sql::SqlQuery, f64)> =
        translated.iter().map(|(_, q, w)| (*q, *w)).collect();

    // Updates land on every table, proportional to its size (a steady
    // document-ingest workload).
    let total_rows: u64 = prepared.stats.iter().map(|s| s.rows).sum();
    let (mut rows, mut digest) = (Vec::new(), 0);
    for &factor in &[0.0, 0.001, 0.01, 0.1, 1.0] {
        let updates: Vec<UpdateLoad> = prepared
            .schema
            .tables
            .iter()
            .enumerate()
            .map(|(i, _)| UpdateLoad {
                table: xmlshred_rel::catalog::TableId(i as u32),
                rows: prepared.stats[i].rows as f64 * factor,
            })
            .collect();
        let result = tune_with_updates(
            &prepared.catalog,
            &prepared.stats,
            &queries,
            &updates,
            budget,
        );
        let config = &result.config;
        for value in [config.indexes.len(), config.views.len()] {
            digest = fold(digest, value as u64);
        }
        digest = fold(digest, result.total_cost.to_bits());
        rows.push(vec![
            format!("{:.1}%", factor * 100.0),
            result.config.indexes.len().to_string(),
            result.config.views.len().to_string(),
            format!("{:.0}", result.total_cost),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "updates per period (% of rows)",
                "indexes",
                "views",
                "read workload cost",
            ],
            &rows,
        )
    );
    println!(
        "({} base rows; query-only cost degrades as structures are priced out by maintenance.)\n",
        total_rows
    );
    Ok(digest)
}
