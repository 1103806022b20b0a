//! Crash-recovery matrix: deterministic kill-and-recover sweeps over both
//! fixtures, validating the durability contract end to end.
//!
//! Each cell of the matrix replays the same mutation schedule — table DDL,
//! bulk loads, statistics analysis, a mid-schedule checkpoint, and a tuned
//! physical-configuration build — into a durable database, with a seeded
//! crash point armed on the WAL writer. The "process" dies mid-load or
//! mid-build (cleanly, with a torn final frame, or with a bit flip inside a
//! frame), the database is reopened through crash recovery, the surviving
//! LSN tells the harness which schedule suffix to resume, and every
//! workload query must then return **bit-identical** rows and [`ExecStats`]
//! against an uncrashed oracle run.
//!
//! The whole matrix — recovery reports included — is a pure function of
//! `(--seed, --points, scale)`; the closing `crash matrix hash`
//! line digests it, and CI compares that hash across `--exec-threads`
//! values to pin the thread-invariance of recovery.

use crate::experiments::{list_cells, RunOptions};
use crate::harness::{
    check_answers, fold, fold_answer, matrix_fixture, mix, render_table, run_queries, space_budget,
    BenchScale, MatrixDir,
};
use std::path::Path;
use xmlshred_core::metrics::record_recovery;
use xmlshred_core::{tune_with, CostOracle, MetricsRegistry, TuneOptions};
use xmlshred_data::workload::Projections;
use xmlshred_data::Dataset;
use xmlshred_rel::db::Database;
use xmlshred_rel::sql::SqlQuery;
use xmlshred_rel::{
    CrashKind, CrashPoint, ExecOptions, ExecStats, PhysicalConfig, RecoveryReport, RelError, Row,
    TableDef, TableId,
};

/// Rows per logged insert batch: small enough that crash points land inside
/// the load phase with interesting frequency, large enough to keep the WAL
/// frame count (and thus the matrix runtime) bounded.
const BATCH_ROWS: usize = 64;

/// One durable mutation in the replayable schedule. Every variant except
/// `Checkpoint` consumes exactly one LSN, so a recovered database's
/// `next_lsn` doubles as the index of the first unapplied operation.
enum Op {
    Create(TableDef),
    Insert(TableId, Vec<Row>),
    Analyze,
    Apply(PhysicalConfig),
    Checkpoint,
}

impl Op {
    fn consumes_lsn(&self) -> bool {
        !matches!(self, Op::Checkpoint)
    }

    fn apply(&self, db: &mut Database) -> Result<(), RelError> {
        match self {
            Op::Create(def) => db.create_table(def.clone()).map(|_| ()),
            Op::Insert(table, rows) => db.insert_rows(*table, rows.iter().cloned()).map(|_| ()),
            Op::Analyze => db.analyze(),
            Op::Apply(config) => db.apply_config(config),
            Op::Checkpoint => db.checkpoint(),
        }
    }
}

fn fold_report(mut hash: u64, report: &RecoveryReport) -> u64 {
    for (_, value) in report.metric_counters() {
        hash = fold(hash, value);
    }
    hash
}

/// The uncrashed side of one fixture: the replayable schedule that builds
/// the database, and the workload queries with their oracle answers.
struct Oracle {
    schedule: Vec<Op>,
    lsn_ops: u64,
    queries: Vec<SqlQuery>,
    answers: Vec<(Vec<Row>, ExecStats)>,
}

fn build_oracle(dataset: &Dataset, scale: BenchScale, opts: &RunOptions) -> Result<Oracle, String> {
    let (mut db, queries) = matrix_fixture(dataset, scale, Projections::Low, opts.exec)?;

    // A realistic physical design from the paper's tuning tool, so crash
    // points can land inside index/view builds, not just loads.
    let weighted: Vec<(&SqlQuery, f64)> = queries.iter().map(|q| (q, 1.0)).collect();
    let config = tune_with(
        db.catalog(),
        db.all_stats(),
        &weighted,
        &[],
        space_budget(dataset),
        &CostOracle::disabled(),
        &TuneOptions::default(),
    )
    .config;

    // The schedule that rebuilds exactly this database, one WAL frame per
    // LSN-consuming op: DDL, batched loads, analyze, a checkpoint between
    // load and physical build, then the configuration build.
    let mut schedule: Vec<Op> = Vec::new();
    let ids: Vec<TableId> = db.catalog().iter().map(|(id, _)| id).collect();
    for (_, def) in db.catalog().iter() {
        schedule.push(Op::Create(def.clone()));
    }
    for &id in &ids {
        for chunk in db.heap(id).rows().chunks(BATCH_ROWS) {
            schedule.push(Op::Insert(id, chunk.to_vec()));
        }
    }
    schedule.push(Op::Analyze);
    schedule.push(Op::Checkpoint);
    schedule.push(Op::Apply(config.clone()));
    let lsn_ops = schedule.iter().filter(|op| op.consumes_lsn()).count() as u64;

    db.apply_config(&config)
        .map_err(|e| format!("oracle config build failed: {e}"))?;
    let answers = run_queries(&db, &queries)?;
    Ok(Oracle {
        schedule,
        lsn_ops,
        queries,
        answers,
    })
}

/// One matrix cell: kill the load/build at the seeded crash point, recover,
/// resume from the recovered LSN, and diff every query answer against the
/// oracle.
struct CellResult {
    report: RecoveryReport,
    answers: Vec<(Vec<Row>, ExecStats)>,
    crash_after: u64,
    committed: u64,
    resumed: u64,
    crashed: bool,
}

fn run_cell(
    oracle: &Oracle,
    dir: &Path,
    kind: CrashKind,
    cell_seed: u64,
    crash_after: u64,
    exec: ExecOptions,
) -> Result<CellResult, String> {
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("[{}] {stage}: {e}", dir.display());
    std::fs::remove_dir_all(dir).ok();
    let mut db = Database::create_durable(dir).map_err(|e| fail("create", &e))?;
    db.set_exec_options(exec);
    db.set_crash_point(Some(CrashPoint {
        after_writes: crash_after,
        kind,
        seed: cell_seed,
    }))
    .map_err(|e| fail("arm", &e))?;

    let mut crashed = false;
    for op in &oracle.schedule {
        match op.apply(&mut db) {
            Ok(()) => {}
            Err(RelError::Crashed(_)) => {
                crashed = true;
                break;
            }
            Err(other) => return Err(fail("pre-crash op", &other)),
        }
    }
    drop(db);

    let (mut db, report) = Database::open_durable(dir).map_err(|e| fail("recover", &e))?;
    db.set_exec_options(exec);
    let committed = report.next_lsn;
    if committed > oracle.lsn_ops {
        return Err(fail(
            "recovery",
            &format!(
                "recovered lsn {committed} beyond schedule ({})",
                oracle.lsn_ops
            ),
        ));
    }

    // Resume: skip every LSN-consuming op the recovered log already
    // carries; re-run the checkpoint only when the crash preceded it
    // (re-checkpointing is idempotent for the final state either way).
    let mut lsn_idx = 0u64;
    let mut resumed = 0u64;
    for op in &oracle.schedule {
        if op.consumes_lsn() {
            if lsn_idx >= committed {
                op.apply(&mut db).map_err(|e| fail("resume op", &e))?;
                resumed += 1;
            }
            lsn_idx += 1;
        } else if lsn_idx >= committed {
            op.apply(&mut db)
                .map_err(|e| fail("resume checkpoint", &e))?;
        }
    }

    let answers = run_queries(&db, &oracle.queries).map_err(|e| fail("post-recovery", &e))?;
    check_answers(&answers, &oracle.answers).map_err(|e| fail("divergence", &e))?;

    Ok(CellResult {
        report,
        answers,
        crash_after,
        committed,
        resumed,
        crashed,
    })
}

/// Run the crash matrix on both fixtures.
pub fn run(scale: BenchScale, opts: &RunOptions) -> Result<(), String> {
    let crash_scale = BenchScale(scale.0 * 0.02);
    let kinds = [CrashKind::Clean, CrashKind::TornTail, CrashKind::BitFlip];
    let (base_seed, seeds) = opts.matrix_seeds(7, 4);
    if opts.list_cells {
        let kind_labels: Vec<String> = kinds.iter().map(|k| k.to_string()).collect();
        list_cells("crash matrix", &kind_labels, &seeds, &|_, idx, seed| {
            // Mirrors the crash_after selection below; the two pinned cells
            // sit on the checkpoint boundary, the rest are seeded modulo the
            // schedule length (only known once the oracle is built).
            match idx {
                0 => "post-checkpoint frame".to_string(),
                1 => "checkpoint marker".to_string(),
                _ => format!("frame {:#x} mod schedule", mix(seed) ^ seed),
            }
        });
        return Ok(());
    }
    println!(
        "\n=== Crash matrix: {} kinds x {} seeds x 2 fixtures (crash seed {}) ===",
        kinds.len(),
        seeds.len(),
        base_seed
    );

    let matrix_dir = MatrixDir::create(opts.data_dir.as_deref(), "crash")?;

    let registry = MetricsRegistry::new();
    let mut matrix_hash = 0xcbf2_9ce4_8422_2325u64;
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    let mut frames_replayed_total = 0u64;

    for dataset in [crash_scale.dblp()?, crash_scale.movie()?] {
        let oracle = build_oracle(&dataset, crash_scale, opts)?;
        println!(
            "--- {}: {} ops ({} frames), {} queries ---",
            dataset.name,
            oracle.schedule.len(),
            oracle.lsn_ops,
            oracle.queries.len()
        );
        for &kind in &kinds {
            for (idx, &seed) in seeds.iter().enumerate() {
                // The first two seeds pin the checkpoint boundary — the
                // random positions almost never land there: crash on the
                // WAL frame right after the checkpoint (recovery must load
                // the snapshot), then on the checkpoint marker append
                // itself (recovery must fall back to the old log).
                let crash_after = match idx {
                    0 => oracle.lsn_ops,
                    1 => oracle.lsn_ops - 1,
                    _ => mix(mix(seed) ^ seed) % oracle.lsn_ops,
                };
                let cell = format!("{}-{kind}-{seed}", dataset.name);
                let dir = matrix_dir.cell_dir(&cell);
                let result = run_cell(
                    &oracle,
                    &dir,
                    kind,
                    mix(seed) ^ seed,
                    crash_after,
                    opts.exec,
                )?;
                record_recovery(&registry, &result.report);
                frames_replayed_total += result.report.frames_replayed;
                matrix_hash = fold_report(matrix_hash, &result.report);
                matrix_hash = fold(matrix_hash, result.crash_after);
                for (answer_rows, answer_stats) in &result.answers {
                    matrix_hash = fold_answer(matrix_hash, answer_rows, answer_stats);
                }
                reports.push(format!(
                    "{{\"cell\": \"{cell}\", \"crash_after\": {}, \"report\": {}}}",
                    result.crash_after,
                    result.report.to_json()
                ));
                rows.push(vec![
                    dataset.name.clone(),
                    kind.to_string(),
                    seed.to_string(),
                    result.crash_after.to_string(),
                    result.crashed.to_string(),
                    format!("{}/{}", result.committed, oracle.lsn_ops),
                    result.report.frames_replayed.to_string(),
                    result.report.frames_discarded.to_string(),
                    result.resumed.to_string(),
                    result.report.snapshot_loaded.to_string(),
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
                "crash@",
                "crashed",
                "committed",
                "replayed",
                "discarded",
                "resumed",
                "snapshot",
                "queries ok",
            ],
            &rows,
        )
    );

    // The metrics layer must agree with the per-cell reports it ingested.
    let report = registry.snapshot();
    let metric_total = report
        .deterministic
        .get("wal.frames_replayed")
        .copied()
        .unwrap_or(0);
    if metric_total != frames_replayed_total {
        return Err(format!(
            "metrics disagree: wal.frames_replayed {metric_total} != {frames_replayed_total}"
        ));
    }
    println!(
        "recovery metrics: wal.frames_replayed {metric_total}, recovery cells {}",
        rows.len()
    );

    matrix_dir.finish("recovery-reports.json", &reports)?;
    println!("crash matrix hash: {matrix_hash:016x}");
    Ok(())
}
