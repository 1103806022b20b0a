//! Final quality evaluation: load the chosen mapping for real, materialize
//! its physical configuration, execute the workload, and report the
//! *measured* cost (actual pages and tuples touched; see
//! `xmlshred_rel::exec`). The paper normalizes quality to the
//! hybrid-inlining mapping with its own tuned physical design — the harness
//! does the same by calling this twice.

use crate::physical::tune;
use std::time::Duration;
use xmlshred_rel::db::Database;
use xmlshred_rel::optimizer::PhysicalConfig;
use xmlshred_rel::ExecOptions;
use xmlshred_shred::mapping::Mapping;
use xmlshred_shred::schema::derive_schema;
use xmlshred_shred::shredder::load_database;
use xmlshred_translate::translate::translate;
use xmlshred_xml::dom::Element;
use xmlshred_xml::tree::SchemaTree;
use xmlshred_xpath::ast::Path;

/// Result of executing a workload against a materialized design.
#[derive(Debug, Clone)]
pub struct QualityReport {
    /// Weighted sum of measured execution costs.
    pub measured_cost: f64,
    /// Weighted sum of the optimizer's estimates of the plans that ran
    /// (the same statistics and design as `measured_cost`).
    pub estimated_cost: f64,
    /// Total wall-clock execution time.
    pub elapsed: Duration,
    /// Per-query measured costs (0 for untranslatable queries).
    pub per_query: Vec<f64>,
    /// Queries skipped because they were untranslatable under the mapping.
    pub skipped: usize,
    /// Total result rows produced.
    pub rows: usize,
    /// Bytes of base data loaded.
    pub data_bytes: usize,
    /// Bytes of materialized physical structures.
    pub physical_bytes: usize,
}

/// Load `mapping`, apply `config`, execute the workload, measure.
pub fn measure_quality(
    tree: &SchemaTree,
    document: &Element,
    workload: &[(Path, f64)],
    mapping: &Mapping,
    config: &PhysicalConfig,
) -> QualityReport {
    measure_quality_with_exec(
        tree,
        document,
        workload,
        mapping,
        config,
        ExecOptions::default(),
    )
}

/// [`measure_quality`] with explicit executor options (thread count, morsel
/// size). Measured costs and row counts are identical for any `exec` value;
/// only wall-clock time may differ.
pub fn measure_quality_with_exec(
    tree: &SchemaTree,
    document: &Element,
    workload: &[(Path, f64)],
    mapping: &Mapping,
    config: &PhysicalConfig,
    exec: ExecOptions,
) -> QualityReport {
    let schema = derive_schema(tree, mapping);
    let mut db = load_database(tree, mapping, &schema, &[document]).expect("load succeeds");
    db.apply_config(config).expect("config builds");
    db.set_exec_options(exec);
    execute_workload(&db, tree, mapping, &schema, workload)
}

/// Load `mapping` and let the tuning tool pick the physical design before
/// measuring (convenience for baselines).
pub fn measure_quality_with_tuning(
    tree: &SchemaTree,
    document: &Element,
    workload: &[(Path, f64)],
    mapping: &Mapping,
    space_budget: f64,
) -> QualityReport {
    measure_quality_with_tuning_exec(
        tree,
        document,
        workload,
        mapping,
        space_budget,
        ExecOptions::default(),
    )
}

/// [`measure_quality_with_tuning`] with explicit executor options.
pub fn measure_quality_with_tuning_exec(
    tree: &SchemaTree,
    document: &Element,
    workload: &[(Path, f64)],
    mapping: &Mapping,
    space_budget: f64,
    exec: ExecOptions,
) -> QualityReport {
    let schema = derive_schema(tree, mapping);
    let mut db = load_database(tree, mapping, &schema, &[document]).expect("load succeeds");
    // Tune against the *actual* loaded statistics.
    let translated: Vec<(xmlshred_rel::sql::SqlQuery, f64)> = workload
        .iter()
        .filter_map(|(path, w)| {
            translate(tree, mapping, &schema, path)
                .ok()
                .map(|t| (t.sql, *w))
        })
        .collect();
    let query_refs: Vec<(&xmlshred_rel::sql::SqlQuery, f64)> =
        translated.iter().map(|(q, w)| (q, *w)).collect();
    let result = tune(db.catalog(), db.all_stats(), &query_refs, space_budget);
    db.apply_config(&result.config).expect("config builds");
    db.set_exec_options(exec);
    execute_workload(&db, tree, mapping, &schema, workload)
}

fn execute_workload(
    db: &Database,
    tree: &SchemaTree,
    mapping: &Mapping,
    schema: &xmlshred_shred::schema::DerivedSchema,
    workload: &[(Path, f64)],
) -> QualityReport {
    let (mut measured_cost, mut estimated_cost) = (0.0, 0.0);
    let mut elapsed = Duration::ZERO;
    let mut per_query = Vec::with_capacity(workload.len());
    let mut skipped = 0usize;
    let mut rows = 0usize;
    for (path, weight) in workload {
        match translate(tree, mapping, schema, path) {
            Ok(translated) => match db.execute(&translated.sql) {
                Ok(outcome) => {
                    let cost = outcome.exec.measured_cost();
                    measured_cost += cost * weight;
                    estimated_cost += outcome.plan.est_cost * weight;
                    elapsed += outcome.elapsed;
                    rows += outcome.rows.len();
                    per_query.push(cost);
                }
                Err(_) => {
                    skipped += 1;
                    per_query.push(0.0);
                }
            },
            Err(_) => {
                skipped += 1;
                per_query.push(0.0);
            }
        }
    }
    QualityReport {
        measured_cost,
        estimated_cost,
        elapsed,
        per_query,
        skipped,
        rows,
        data_bytes: db.data_bytes(),
        physical_bytes: db.built_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlshred_data::movie::{generate_movie, MovieConfig};
    use xmlshred_xpath::parser::parse_path;

    #[test]
    fn tuned_hybrid_beats_untuned() {
        let ds = generate_movie(&MovieConfig {
            n_movies: 3_000,
            ..MovieConfig::default()
        })
        .unwrap();
        let workload = vec![
            (
                parse_path("//movie[year = 1990]/(title | box_office)").unwrap(),
                1.0,
            ),
            (
                parse_path("//movie[genre = \"Genre 1\"]/title").unwrap(),
                1.0,
            ),
        ];
        let mapping = Mapping::hybrid(&ds.tree);
        let untuned = measure_quality(
            &ds.tree,
            &ds.document,
            &workload,
            &mapping,
            &PhysicalConfig::none(),
        );
        let tuned = measure_quality_with_tuning(&ds.tree, &ds.document, &workload, &mapping, 1e12);
        assert_eq!(untuned.skipped, 0);
        assert!(tuned.measured_cost < untuned.measured_cost);
        assert!(tuned.physical_bytes > 0);
        assert!(untuned.data_bytes > 0);
    }
}
