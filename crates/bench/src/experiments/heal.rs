//! Self-healing matrix: deterministic corruption-and-heal sweeps over both
//! fixtures, validating the quarantine/repair contract end to end.
//!
//! Each cell of the matrix builds a durable database (DDL, two batched load
//! phases split by a checkpoint, analyze, then a physical design that
//! guarantees the targeted structure sits on the preferred access path),
//! corrupts one seeded site inside one structure kind — B-tree index,
//! materialized view, or row-heap page — and then runs the workload
//! through [`Database::execute_healing`]. The corrupted
//! structure must never fail a SELECT: the statement completes against
//! degraded access paths while the structure is quarantined and rebuilt
//! (derived structures) or repaired from snapshot + committed WAL suffix
//! (heap pages). After healing, every query must return **bit-identical**
//! rows, [`ExecStats`], and fault-plane charges against an uncorrupted
//! oracle.
//!
//! The whole matrix — heal reports included — is a pure function of
//! `(--seed, --points, scale)`; the closing `heal matrix hash`
//! line digests it, and CI compares that hash across `--exec-threads`
//! values to pin the thread-invariance of detection, quarantine, and
//! repair.

use crate::experiments::{list_cells, RunOptions};
use crate::harness::{
    check_answers, fold, fold_answer, matrix_fixture, mix, render_table, run_queries, BenchScale,
    MatrixDir,
};
use std::path::Path;
use xmlshred_core::metrics::record_heal;
use xmlshred_core::MetricsRegistry;
use xmlshred_data::workload::Projections;
use xmlshred_data::Dataset;
use xmlshred_rel::db::Database;
use xmlshred_rel::expr::FilterOp;
use xmlshred_rel::sql::{Output, SqlQuery};
use xmlshred_rel::view::ViewSide;
use xmlshred_rel::{
    ExecOptions, ExecStats, FaultConfig, FaultStats, HealReport, IndexDef, PhysicalConfig, Row,
    StructureKind, TableDef, TableId, ViewDef,
};

/// Rows per logged insert batch (same as the crash matrix): keeps the WAL
/// frame count bounded while still giving the heap repair path a realistic
/// snapshot + multi-frame suffix to stitch.
const BATCH_ROWS: usize = 64;

/// Names of the handcrafted structures every fixture's design carries; the
/// corruption sites target these by name.
const INDEX_NAME: &str = "heal_ix";
const VIEW_NAME: &str = "heal_view";

/// Domain tag for corruption-site selection.
const SITE_TAG: u64 = 0x6865_616c; // "heal"
/// Corruption-site seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 9;

/// The cell's private seed: the CLI seed mixed with the structure kind's
/// label so every (kind, seed) pair draws a distinct corruption site.
fn cell_seed(seed: u64, kind_label: &str) -> u64 {
    let tag = kind_label.bytes().fold(0u64, |h, b| mix(h ^ u64::from(b)));
    mix(seed) ^ seed ^ tag
}

fn fold_heal_report(mut hash: u64, report: &HealReport) -> u64 {
    for (_, value) in report.metric_counters() {
        hash = fold(hash, value);
    }
    hash
}

fn fold_charges(mut hash: u64, charges: &FaultStats) -> u64 {
    hash = fold(hash, charges.plan_faults);
    hash = fold(hash, charges.storage_faults);
    hash = fold(hash, charges.budget_denials);
    fold(hash, charges.pages_charged)
}

/// The corruption targets mined from the workload: the table behind the
/// fixture's single-table scan branch (heap cells), plus a covering index
/// and a materialized join view constructed so the planner's preferred path
/// runs through them.
struct Targets {
    scan_table: TableId,
    index: IndexDef,
    view: ViewDef,
}

/// Build the per-kind physical designs from the workload shape: each kind's
/// cell applies only that kind's structure, so the corrupted structure is
/// on the preferred access path and the degraded replan has somewhere
/// strictly simpler to fall back to.
fn mine_targets(queries: &[SqlQuery], fixture: &str) -> Result<Targets, String> {
    let mut scan_table = None;
    let mut index = None;
    let mut view = None;
    for query in queries {
        for branch in query.branches() {
            if branch.tables.len() == 1 {
                if scan_table.is_none() {
                    scan_table = Some(branch.tables[0]);
                }
                if index.is_none() {
                    if let Some(eq) = branch.filters.iter().find(|f| f.op == FilterOp::Eq) {
                        // Cover every column the branch touches so the seek
                        // is strictly cheaper than a sequential scan.
                        let mut include: Vec<usize> = branch
                            .outputs
                            .iter()
                            .filter_map(|o| match o {
                                Output::Col { column, .. } => Some(*column),
                                Output::Null(_) => None,
                            })
                            .chain(branch.filters.iter().map(|f| f.column))
                            .collect();
                        include.sort_unstable();
                        include.dedup();
                        include.retain(|&c| c != eq.column);
                        index = Some(IndexDef {
                            name: INDEX_NAME.to_string(),
                            table: branch.tables[0],
                            key_columns: vec![eq.column],
                            include_columns: include,
                            clustered: false,
                        });
                    }
                }
            } else if branch.tables.len() == 2 && branch.joins.len() == 1 && view.is_none() {
                let join = &branch.joins[0];
                if join.left_ref == join.right_ref {
                    continue;
                }
                let side = |table_ref: usize| {
                    if table_ref == join.left_ref {
                        ViewSide::Left
                    } else {
                        ViewSide::Right
                    }
                };
                // Expose exactly what the branch needs (outputs + filter
                // columns) so the view answers it without the base join.
                let mut outputs: Vec<(ViewSide, usize)> = Vec::new();
                let needed = branch
                    .outputs
                    .iter()
                    .filter_map(|o| match o {
                        Output::Col { table_ref, column } => Some((side(*table_ref), *column)),
                        Output::Null(_) => None,
                    })
                    .chain(branch.filters.iter().map(|f| (side(f.table_ref), f.column)));
                for pair in needed {
                    if !outputs.contains(&pair) {
                        outputs.push(pair);
                    }
                }
                view = Some(ViewDef {
                    name: VIEW_NAME.to_string(),
                    left: branch.tables[join.left_ref],
                    right: branch.tables[join.right_ref],
                    left_col: join.left_col,
                    right_col: join.right_col,
                    outputs,
                });
            }
        }
    }
    let missing = |what: &str| format!("heal matrix: no {what} branch in the {fixture} workload");
    Ok(Targets {
        scan_table: scan_table.ok_or_else(|| missing("single-table scan"))?,
        index: index.ok_or_else(|| missing("eq-filtered scan"))?,
        view: view.ok_or_else(|| missing("two-table join"))?,
    })
}

/// The verification-only fault plane both sides arm: no injected faults, no
/// budget pressure, checksums verified once per structure per statement —
/// so charges stay comparable between the healed run and the oracle.
fn verify_plane(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        p_storage: 0.0,
        p_plan: 0.0,
        budget_pages: Some(u64::MAX),
        verify_checksums: true,
    }
}

/// The uncorrupted side of one (fixture, kind) pair: the physical design
/// the cells apply, the oracle answers, and the oracle fault-plane charges.
struct KindOracle {
    kind: StructureKind,
    config: PhysicalConfig,
    answers: Vec<(Vec<Row>, ExecStats)>,
    charges: FaultStats,
}

/// The uncorrupted side of one fixture: the load schedule inputs, the
/// workload queries, the mined corruption targets, and one oracle per
/// structure kind.
struct Oracle {
    fixture: String,
    defs: Vec<TableDef>,
    table_rows: Vec<Vec<Row>>,
    queries: Vec<SqlQuery>,
    targets: Targets,
    kinds: Vec<KindOracle>,
}

fn build_oracle(dataset: &Dataset, scale: BenchScale, opts: &RunOptions) -> Result<Oracle, String> {
    // High projections on movie: its low-projection paths translate to
    // single-table branches only, and the view target needs at least one
    // two-table join branch in the workload.
    let projections = if dataset.name == "dblp" {
        Projections::Low
    } else {
        Projections::High
    };
    let (mut db, queries) = matrix_fixture(dataset, scale, projections, opts.exec)?;
    let targets = mine_targets(&queries, &dataset.name)?;

    let defs: Vec<TableDef> = db.catalog().iter().map(|(_, def)| def.clone()).collect();
    let table_rows: Vec<Vec<Row>> = db
        .catalog()
        .iter()
        .map(|(id, _)| db.heap(id).rows().to_vec())
        .collect();

    // One oracle per structure kind: each kind's design carries exactly the
    // targeted structure, so corruption is guaranteed to sit on the
    // preferred access path and answers/charges are per-design.
    let configs = [
        (
            StructureKind::Index,
            PhysicalConfig {
                indexes: vec![targets.index.clone()],
                views: vec![],
            },
        ),
        (
            StructureKind::View,
            PhysicalConfig {
                indexes: vec![],
                views: vec![targets.view.clone()],
            },
        ),
        (StructureKind::Heap, PhysicalConfig::none()),
    ];
    let mut kinds = Vec::new();
    for (kind, config) in configs {
        db.apply_config(&config)
            .map_err(|e| format!("oracle {kind} config build failed: {e}"))?;
        // Fresh plane per kind: the oracle charges are seed-independent
        // (verification is charge-free, probabilities are zero).
        db.set_fault_config(verify_plane(opts.seed.unwrap_or(DEFAULT_SEED)));
        let answers = run_queries(&db, &queries)?;
        let charges = db
            .fault_plane()
            .ok_or_else(|| "oracle fault plane missing".to_string())?
            .snapshot();
        db.clear_fault_config();
        kinds.push(KindOracle {
            kind,
            config,
            answers,
            charges,
        });
    }

    Ok(Oracle {
        fixture: dataset.name.clone(),
        defs,
        table_rows,
        queries,
        targets,
        kinds,
    })
}

/// One matrix cell: build the durable database, corrupt the seeded site,
/// heal through the workload, and diff the healed state against the oracle.
struct CellResult {
    report: HealReport,
    site: u64,
    answers: Vec<(Vec<Row>, ExecStats)>,
    charges: FaultStats,
}

/// Corrupt the cell's seeded site inside the targeted structure. Every
/// site index is reduced modulo the structure's population so any seed
/// lands on a real page.
fn corrupt_site(
    db: &mut Database,
    kind: StructureKind,
    targets: &Targets,
    site: u64,
) -> Result<(), String> {
    let n = |len: usize| (site as usize) % len.max(1);
    let hit = match kind {
        StructureKind::Heap => {
            let rows = db.heap(targets.scan_table).rows().len();
            db.heap_mut(targets.scan_table)
                .ok_or_else(|| "heap target missing".to_string())?
                .corrupt_row(n(rows))
        }
        StructureKind::Index => {
            let index = db
                .built_mut()
                .index_mut(INDEX_NAME)
                .ok_or_else(|| "index target missing".to_string())?;
            let keys = index.distinct_keys();
            index.corrupt_entry(n(keys))
        }
        StructureKind::View => {
            let view = db
                .built_mut()
                .view_mut(VIEW_NAME)
                .ok_or_else(|| "view target missing".to_string())?;
            let rows = view.rows.len();
            view.corrupt_row(n(rows))
        }
    };
    if hit {
        Ok(())
    } else {
        Err(format!("seeded {kind} corruption missed (site {site})"))
    }
}

fn run_cell(
    oracle: &Oracle,
    kind_oracle: &KindOracle,
    dir: &Path,
    cell_seed: u64,
    exec: ExecOptions,
) -> Result<CellResult, String> {
    let kind = kind_oracle.kind;
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("[{}] {stage}: {e}", dir.display());
    std::fs::remove_dir_all(dir).ok();
    let mut db = Database::create_durable(dir).map_err(|e| fail("create", &e))?;
    db.set_exec_options(exec);

    // Replay the fixture into the durable store, checkpointing mid-load so
    // heap repair has to read a snapshot's records and a WAL suffix.
    let mut ids = Vec::with_capacity(oracle.defs.len());
    for def in &oracle.defs {
        ids.push(db.create_table(def.clone()).map_err(|e| fail("ddl", &e))?);
    }
    let split = |rows: &[Row]| rows.len() / 2;
    for (i, rows) in oracle.table_rows.iter().enumerate() {
        for chunk in rows[..split(rows)].chunks(BATCH_ROWS) {
            db.insert_rows(ids[i], chunk.iter().cloned())
                .map_err(|e| fail("load", &e))?;
        }
    }
    db.checkpoint().map_err(|e| fail("checkpoint", &e))?;
    for (i, rows) in oracle.table_rows.iter().enumerate() {
        for chunk in rows[split(rows)..].chunks(BATCH_ROWS) {
            db.insert_rows(ids[i], chunk.iter().cloned())
                .map_err(|e| fail("load", &e))?;
        }
    }
    db.analyze().map_err(|e| fail("analyze", &e))?;
    db.apply_config(&kind_oracle.config)
        .map_err(|e| fail("config build", &e))?;

    let site = mix(cell_seed ^ SITE_TAG);
    corrupt_site(&mut db, kind, &oracle.targets, site).map_err(|e| fail("corrupt", &e))?;
    db.set_fault_config(verify_plane(cell_seed));

    // The healing pass: every statement must succeed with oracle-identical
    // rows even while the corruption is live.
    let mut report = HealReport::default();
    for (i, query) in oracle.queries.iter().enumerate() {
        let (outcome, heal) = db
            .execute_healing(query)
            .map_err(|e| fail("healing execute", &e))?;
        if outcome.rows != kind_oracle.answers[i].0 {
            return Err(fail(
                "divergence",
                &format!("query {i}: healed rows differ from oracle"),
            ));
        }
        report.absorb(&heal);
    }
    if report.events.is_empty() {
        return Err(fail(
            "coverage",
            &format!("seeded {kind} corruption was never tripped by the workload"),
        ));
    }
    if !db.quarantined_structures().is_empty() {
        return Err(fail("repair", &"structures still quarantined after heal"));
    }
    let scrub = db.scrub();
    if !scrub.is_clean() {
        return Err(fail(
            "repair",
            &format!(
                "{} corruption sites survived healing",
                scrub.corruptions.len()
            ),
        ));
    }

    // Post-heal pass on a fresh plane: rows, ExecStats, and fault-plane
    // charges must all be bit-identical to the uncorrupted oracle.
    db.set_fault_config(verify_plane(cell_seed));
    let answers = run_queries(&db, &oracle.queries).map_err(|e| fail("post-heal", &e))?;
    check_answers(&answers, &kind_oracle.answers).map_err(|e| fail("post-heal divergence", &e))?;
    let charges = db
        .fault_plane()
        .ok_or_else(|| fail("post-heal", &"fault plane missing"))?
        .snapshot();
    if charges != kind_oracle.charges {
        return Err(fail(
            "divergence",
            &format!(
                "post-heal charges differ from oracle ({charges:?} vs {:?})",
                kind_oracle.charges
            ),
        ));
    }

    Ok(CellResult {
        report,
        site,
        answers,
        charges,
    })
}

/// Run the heal matrix on both fixtures.
pub fn run(scale: BenchScale, opts: &RunOptions) -> Result<(), String> {
    let heal_scale = BenchScale(scale.0 * 0.02);
    let kind_order = [
        StructureKind::Index,
        StructureKind::View,
        StructureKind::Heap,
    ];
    let (base_seed, seeds) = opts.matrix_seeds(DEFAULT_SEED, 3);
    if opts.list_cells {
        let kind_labels: Vec<String> = kind_order.iter().map(|k| k.to_string()).collect();
        list_cells("heal matrix", &kind_labels, &seeds, &|kind, _, seed| {
            // Mirrors the per-cell site selection below: the raw site index
            // is reduced modulo the structure's population at run time.
            format!(
                "site {:#x} mod {kind}",
                mix(cell_seed(seed, kind) ^ SITE_TAG)
            )
        });
        return Ok(());
    }
    println!(
        "\n=== Heal matrix: {} kinds x {} seeds x 2 fixtures (heal seed {}) ===",
        kind_order.len(),
        seeds.len(),
        base_seed
    );

    let matrix_dir = MatrixDir::create(opts.data_dir.as_deref(), "heal")?;

    let registry = MetricsRegistry::new();
    let mut matrix_hash = 0x8422_2325_cbf2_9ce4u64;
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    let mut quarantined_total = 0u64;

    for dataset in [heal_scale.dblp()?, heal_scale.movie()?] {
        let oracle = build_oracle(&dataset, heal_scale, opts)?;
        println!(
            "--- {}: {} tables, {} queries, targets: {} / {} / heap on table {} ---",
            oracle.fixture,
            oracle.defs.len(),
            oracle.queries.len(),
            INDEX_NAME,
            VIEW_NAME,
            oracle.targets.scan_table.index(),
        );
        for kind_oracle in &oracle.kinds {
            let kind = kind_oracle.kind;
            for &seed in &seeds {
                let cell = format!("{}-{kind}-{seed}", oracle.fixture);
                let dir = matrix_dir.cell_dir(&cell);
                let result = run_cell(
                    &oracle,
                    kind_oracle,
                    &dir,
                    cell_seed(seed, kind.label()),
                    opts.exec,
                )?;
                record_heal(&registry, &result.report);
                quarantined_total += result.report.quarantined;
                matrix_hash = fold_heal_report(matrix_hash, &result.report);
                matrix_hash = fold(matrix_hash, result.site);
                matrix_hash = fold_charges(matrix_hash, &result.charges);
                for (answer_rows, answer_stats) in &result.answers {
                    matrix_hash = fold_answer(matrix_hash, answer_rows, answer_stats);
                }
                reports.push(format!(
                    "{{\"cell\": \"{cell}\", \"site\": {}, \"report\": {}}}",
                    result.site,
                    result.report.to_json()
                ));
                rows.push(vec![
                    oracle.fixture.clone(),
                    kind.to_string(),
                    seed.to_string(),
                    format!("{:x}", result.site),
                    result.report.events.len().to_string(),
                    result.report.quarantined.to_string(),
                    result.report.rebuilt.to_string(),
                    result.report.heap_repairs.to_string(),
                    result.report.degraded_plans.to_string(),
                    result.report.retries.to_string(),
                    format!("{}/{}", result.answers.len(), oracle.queries.len()),
                ]);
                matrix_dir.release(&dir);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "fixture",
                "kind",
                "seed",
                "site",
                "events",
                "quarantined",
                "rebuilt",
                "heap repairs",
                "degraded",
                "retries",
                "queries ok",
            ],
            &rows,
        )
    );

    // The metrics layer must agree with the per-cell reports it ingested.
    let report = registry.snapshot();
    let metric_total = report
        .deterministic
        .get("heal.quarantined")
        .copied()
        .unwrap_or(0);
    if metric_total != quarantined_total {
        return Err(format!(
            "metrics disagree: heal.quarantined {metric_total} != {quarantined_total}"
        ));
    }
    println!(
        "heal metrics: heal.quarantined {metric_total}, heal cells {}",
        rows.len()
    );

    matrix_dir.finish("heal-reports.json", &reports)?;
    println!("heal matrix hash: {matrix_hash:016x}");
    Ok(())
}
