//! Fault schedules for the durable engine: the `crash`, `heal` and
//! `faults` matrices.
//!
//! A schedule is a list of `Event`s over one alphabet: logged mutations
//! and unlogged faults. One runner (`run_schedule`) applies it to a
//! durable [`Database`]. One oracle judges it: the schedule's logged
//! mutations replayed in order into an in-memory database. Three profiles
//! emit schedules over both fixtures: `crash` (one seeded crash during the
//! load and the design build), `heal` (one seeded corruption, healed
//! through the workload) and `faults` (a seeded draw over the whole
//! alphabet, storage faults on single statements included). Each matrix is
//! a pure function of `(--seed, --points, scale)`, closed by a hash line CI
//! compares across `--exec-threads`.

use crate::experiments::RunOptions;
use crate::harness::{
    check_answers, fold, fold_answer, fold_counters, load_hybrid, mix, run_queries, space_budget,
    workload_spec, BenchScale, CellOut, Matrix, MatrixSpec,
};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use xmlshred_core::metrics::{record_heal, record_recovery};
use xmlshred_core::tune;
use xmlshred_data::workload::{Projections, Selectivity};
use xmlshred_data::Dataset;
use xmlshred_rel::expr::FilterOp;
use xmlshred_rel::sql::{Output, SqlQuery};
use xmlshred_rel::view::ViewSide;
use xmlshred_rel::{
    CrashKind, CrashPoint, Database, ExecOptions, ExecStats, FaultConfig, FaultStats, HealReport,
    IndexDef, PhysicalConfig, RecoveryReport, RelError, Row, StructureKind, TableDef, TableId,
    ViewDef,
};

/// Rows per logged insert batch: crashes land inside the load often, heap
/// repair stitches a snapshot and a multi-frame suffix, and the frame
/// count (so the runtime) stays bounded.
const BATCH_ROWS: usize = 64;

/// The heal targets' structure names.
const INDEX_NAME: &str = "heal_ix";
const VIEW_NAME: &str = "heal_view";

const CRASH_KINDS: [CrashKind; 3] = [CrashKind::Clean, CrashKind::TornTail, CrashKind::BitFlip];

/// A storage fault armed for one workload statement.
#[derive(Clone, Copy, Debug)]
enum StorageFault {
    /// `p_storage = 1.0`: the statement's first page read fails.
    Roll,
    /// A page budget of zero: the statement's first charged page fails.
    Budget,
}

/// One step of a fault schedule. Every logged mutation but `Checkpoint`
/// consumes one LSN; `Crash`, `Corrupt`, `Heal`, `Restart` and `Storage`
/// are unlogged.
#[derive(Clone)]
enum Event {
    Create(TableDef),
    Insert(TableId, Vec<Row>),
    Analyze,
    Apply(PhysicalConfig),
    Checkpoint,
    /// Arm a crash `after_writes` WAL frames from now. It fires once.
    Crash(CrashKind, u64),
    /// Damage a seeded site of a heal target, in memory.
    Corrupt(StructureKind, u64),
    /// Run the workload through [`Database::execute_healing`].
    Heal,
    /// Close the database and reopen it through recovery.
    Restart,
    /// Run the seeded workload statement under a storage fault.
    Storage(StorageFault, u64),
}

impl Event {
    fn lsns(&self) -> u64 {
        use Event::*;
        u64::from(matches!(self, Create(_) | Insert(..) | Analyze | Apply(_)))
    }

    /// Apply a logged mutation; the durable run and the oracle share it.
    fn mutate(&self, db: &mut Database) -> Result<(), RelError> {
        match self {
            Event::Create(def) => db.create_table(def.clone()).map(drop),
            Event::Insert(table, rows) => db.insert_rows(*table, rows.iter().cloned()).map(drop),
            Event::Analyze => db.analyze(),
            Event::Apply(config) => db.apply_config(config),
            Event::Checkpoint => db.checkpoint(),
            Event::Crash(..)
            | Event::Corrupt(..)
            | Event::Heal
            | Event::Restart
            | Event::Storage(..) => Ok(()),
        }
    }

    /// One letter per event, for schedule listings and error messages.
    fn letter(&self) -> char {
        match self {
            Event::Create(_) => 'C',
            Event::Insert(..) => 'I',
            Event::Analyze => 'A',
            Event::Apply(_) => 'D',
            Event::Checkpoint => 'K',
            Event::Crash(..) => 'X',
            Event::Corrupt(..) => 'Z',
            Event::Heal => 'H',
            Event::Restart => 'R',
            Event::Storage(StorageFault::Roll, _) => 'F',
            Event::Storage(StorageFault::Budget, _) => 'B',
        }
    }
}

/// `Create` for every table of the loaded fixture, in catalog order.
fn creates(db: &Database) -> Vec<Event> {
    db.catalog()
        .iter()
        .map(|(_, def)| Event::Create(def.clone()))
        .collect()
}

/// `Insert` batches of `part` of every table's rows, table by table.
fn inserts(db: &Database, part: impl Fn(&[Row]) -> &[Row]) -> Vec<Event> {
    let batches = |(id, _)| {
        part(db.heap(id).rows())
            .chunks(BATCH_ROWS)
            .map(move |rows| (id, rows))
    };
    db.catalog()
        .iter()
        .flat_map(batches)
        .map(|(id, rows)| Event::Insert(id, rows.to_vec()))
        .collect()
}

// --------------------------------------------------------------- targets --

/// What corruption aims at, mined from the workload so the planner's
/// preferred paths run through it: the table of the first single-table
/// branch, a covering index for the first eq-filtered one, and a view
/// materializing the first two-table join.
struct Targets {
    scan_table: TableId,
    index: IndexDef,
    view: ViewDef,
}

impl Targets {
    /// One design per kind, carrying only that kind's target, so a
    /// corruption sits on the preferred path and the degraded replan has
    /// somewhere simpler to go. The heap's design is the empty one.
    fn designs(&self) -> [(StructureKind, PhysicalConfig); 3] {
        let (mut index, mut view) = (PhysicalConfig::none(), PhysicalConfig::none());
        index.indexes.push(self.index.clone());
        view.views.push(self.view.clone());
        [
            (StructureKind::Index, index),
            (StructureKind::View, view),
            (StructureKind::Heap, PhysicalConfig::none()),
        ]
    }
}

fn mine_targets(queries: &[SqlQuery], fixture: &str) -> Result<Targets, String> {
    let (mut scan_table, mut index, mut view) = (None, None, None);
    for branch in queries.iter().flat_map(SqlQuery::branches) {
        // Every (table ref, column) the branch reads: outputs, then filters.
        let touched: Vec<(usize, usize)> = (branch.outputs.iter())
            .filter_map(|o| match o {
                Output::Col { table_ref, column } => Some((*table_ref, *column)),
                Output::Null(_) => None,
            })
            .chain(branch.filters.iter().map(|f| (f.table_ref, f.column)))
            .collect();
        if let [table] = branch.tables[..] {
            scan_table.get_or_insert(table);
            let eq = branch.filters.iter().find(|f| f.op == FilterOp::Eq);
            if let (None, Some(eq)) = (&index, eq) {
                // Covering, so the seek is strictly cheaper than a scan.
                let mut include: Vec<usize> = touched.iter().map(|&(_, c)| c).collect();
                include.sort_unstable();
                include.dedup();
                include.retain(|&c| c != eq.column);
                index = Some(IndexDef {
                    name: INDEX_NAME.to_string(),
                    table,
                    key_columns: vec![eq.column],
                    include_columns: include,
                    clustered: false,
                });
            }
        } else if let ([_, _], [join], None) = (&branch.tables[..], &branch.joins[..], &view) {
            if join.left_ref == join.right_ref {
                continue;
            }
            // Expose exactly what the branch reads, so the view answers it
            // without the base join.
            let mut outputs: Vec<(ViewSide, usize)> = Vec::new();
            for &(table_ref, column) in &touched {
                let side = match table_ref == join.left_ref {
                    true => ViewSide::Left,
                    false => ViewSide::Right,
                };
                if !outputs.contains(&(side, column)) {
                    outputs.push((side, column));
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
    let missing = |what: &str| format!("no {what} branch in the {fixture} workload");
    Ok(Targets {
        scan_table: scan_table.ok_or_else(|| missing("single-table scan"))?,
        index: index.ok_or_else(|| missing("eq-filtered scan"))?,
        view: view.ok_or_else(|| missing("two-table join"))?,
    })
}

/// Corrupt the seeded site of the `kind` target, reduced modulo its
/// population so any seed lands on a real page.
fn corrupt_site(db: &mut Database, kind: StructureKind, targets: &Targets, site: u64) -> bool {
    let n = |len: usize| site as usize % len.max(1);
    match kind {
        StructureKind::Heap => db
            .heap_mut(targets.scan_table)
            .is_some_and(|heap| heap.corrupt_row(n(heap.rows().len()))),
        StructureKind::Index => (db.built_mut().index_mut(INDEX_NAME))
            .is_some_and(|index| index.corrupt_entry(n(index.distinct_keys()))),
        StructureKind::View => (db.built_mut().view_mut(VIEW_NAME))
            .is_some_and(|view| view.corrupt_row(n(view.rows.len()))),
    }
}

/// The verification-only fault plane: no injected faults, no budget
/// pressure, checksums verified once per structure per statement, so
/// charges stay comparable between a run and its oracle.
fn verify_plane(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        p_storage: 0.0,
        budget_pages: Some(u64::MAX),
        verify_checksums: true,
    }
}

/// Run `query` under a plane armed with `fault`, then give the database
/// back its plane as it was: config, charges and token sequence. A roll
/// fails every page read, so the statement must fail with `Fault`; a zero
/// budget must fail it with `ResourceExhausted` exactly when it charged a
/// page, and otherwise it answers with the oracle's rows.
fn storage_fault(
    db: &mut Database,
    oracle: &Database,
    fault: StorageFault,
    query: &SqlQuery,
    seed: u64,
) -> Result<(), String> {
    let saved = db.fault_plane().map(|plane| (plane.config(), plane.save()));
    db.set_fault_config(match fault {
        StorageFault::Roll => FaultConfig {
            seed,
            p_storage: 1.0,
            ..FaultConfig::default()
        },
        StorageFault::Budget => FaultConfig {
            seed,
            budget_pages: Some(0),
            ..FaultConfig::default()
        },
    });
    let result = db.execute(query);
    let charged = db
        .fault_plane()
        .map_or(0, |plane| plane.snapshot().pages_charged);
    match saved {
        Some((config, state)) => {
            db.set_fault_config(config);
            if let Some(plane) = db.fault_plane() {
                plane.restore(state);
            }
        }
        None => db.clear_fault_config(),
    }
    match (fault, result) {
        (StorageFault::Roll, Err(RelError::Fault(_))) => Ok(()),
        (StorageFault::Budget, Err(RelError::ResourceExhausted(_))) if charged > 0 => Ok(()),
        (StorageFault::Budget, Ok(outcome)) if charged == 0 => {
            match outcome.rows == oracle.execute(query).map_err(|e| e.to_string())?.rows {
                true => Ok(()),
                false => Err("rows under an unspent zero budget differ from oracle".into()),
            }
        }
        (_, result) => Err(format!(
            "{fault:?} storage fault ({charged} pages charged) returned {:?}",
            result.map(|outcome| outcome.rows.len())
        )),
    }
}

// ---------------------------------------------------------------- runner --

/// A fixture's workload side: the queries that judge every schedule run on
/// it, the targets of its corruptions (their presence arms the verify
/// plane), and the executor options.
struct Fixture {
    queries: Vec<SqlQuery>,
    targets: Option<Targets>,
    exec: ExecOptions,
}

/// Load a fixture under the hybrid mapping with its four-query
/// low-selectivity workload: low projections and no targets for the crash
/// profile; with `targets`, high projections on movie, whose
/// low-projection paths are single-table only while the view target needs
/// a two-table join.
fn fixture(
    dataset: &Dataset,
    scale: BenchScale,
    exec: ExecOptions,
    targets: bool,
) -> Result<(Database, Fixture), String> {
    let name = dataset.name.as_str();
    let projections = match targets && name == "movie" {
        true => Projections::High,
        false => Projections::Low,
    };
    let seed = if name == "dblp" { 31 } else { 32 };
    let spec = workload_spec(projections, Selectivity::Low, 4, seed);
    let (mut db, queries) = load_hybrid(dataset, &scale.workload(name, &spec)?.queries)?;
    db.set_exec_options(exec);
    let queries: Vec<SqlQuery> = queries.into_iter().map(|(sql, _)| sql).collect();
    let targets = targets.then(|| mine_targets(&queries, name)).transpose()?;
    let fixture = Fixture {
        queries,
        targets,
        exec,
    };
    Ok((db, fixture))
}

/// What a run leaves for its profile's row, report and digest.
#[derive(Default)]
struct Trace {
    /// The event the crash fired at.
    crashed_at: Option<usize>,
    /// One report per reopen (crash recovery or restart), in order.
    recoveries: Vec<RecoveryReport>,
    /// Every `Heal` event's statements, absorbed.
    heal: HealReport,
    /// Checkpoints refused over a live heap corruption.
    refused: u64,
    /// The final answers, and the verify plane's charges while they ran.
    answers: Vec<(Vec<Row>, ExecStats)>,
    charges: FaultStats,
}

/// The oracle: replay `schedule[*seen..to]`'s LSN-consuming mutations.
fn advance(
    schedule: &[Event],
    db: &mut Database,
    seen: &mut usize,
    to: usize,
) -> Result<(), String> {
    for event in schedule.get(*seen..to).unwrap_or_default() {
        if event.lsns() > 0 {
            event.mutate(db).map_err(|e| format!("oracle: {e}"))?;
        }
    }
    *seen = to.max(*seen);
    Ok(())
}

/// Run `schedule` against a durable database in `dir` and judge it; `seed`
/// seeds the crash point's damage and the verify plane.
///
/// - A crash fires once. Recovery must keep exactly the acknowledged
///   mutations, so the run resumes at the crashing event, the first whose
///   mutation the recovered log does not cover. A `Restart` must keep
///   them all. Either way, the statistics must be the oracle's.
/// - A `Heal` must answer every statement with the oracle's rows, trip the
///   live corruption if any (the targets lie on the workload's path) and
///   nothing else, and leave the quarantine empty and a scrub clean.
/// - A `Checkpoint` over a live heap corruption must fail with `Corrupted`
///   and leave the directory untouched.
/// - A `Storage` event must fail its statement with the fault's typed
///   error (see [`storage_fault`]) and leave the plane as it found it.
/// - At the end, both sides on a fresh plane: rows and [`ExecStats`] per
///   query, statistics, quarantine, scrub and fault-plane charges.
///
/// Any other error fails the cell, naming the event.
fn run_schedule(fx: &Fixture, schedule: &[Event], seed: u64, dir: &Path) -> Result<Trace, String> {
    let arm = |db: &mut Database| {
        db.set_exec_options(fx.exec);
        if fx.targets.is_some() {
            db.set_fault_config(verify_plane(seed));
        }
    };
    let mut db = Database::create_durable(dir).map_err(|e| format!("create: {e}"))?;
    arm(&mut db);
    let (mut oracle, mut seen) = (Database::new(), 0);
    oracle.set_exec_options(fx.exec);
    let (mut trace, mut live, mut lsn, mut i) = (Trace::default(), Vec::new(), 0, 0);
    while let Some(event) = schedule.get(i) {
        let at = |e: &dyn std::fmt::Display| format!("event {i} ({}): {e}", event.letter());
        // `Some(next)`: reopen through recovery, then go on at event `next`.
        let reopen = match event {
            Event::Crash(kind, after_writes) => {
                let (after_writes, kind) = (*after_writes, *kind);
                let point = CrashPoint {
                    after_writes,
                    kind,
                    seed,
                };
                if trace.crashed_at.is_none() {
                    db.set_crash_point(Some(point)).map_err(|e| at(&e))?;
                }
                None
            }
            Event::Corrupt(kind, site) => {
                let hit = |targets| corrupt_site(&mut db, *kind, targets, *site);
                if !fx.targets.as_ref().is_some_and(hit) {
                    return Err(at(&format!("{kind} corruption missed (site {site})")));
                }
                live.push(*kind);
                None
            }
            Event::Heal => {
                advance(schedule, &mut oracle, &mut seen, i)?;
                let mut report = HealReport::default();
                for (q, query) in fx.queries.iter().enumerate() {
                    let (outcome, heal) = db.execute_healing(query).map_err(|e| at(&e))?;
                    if outcome.rows != oracle.execute(query).map_err(|e| at(&e))?.rows {
                        return Err(at(&format!("query {q}: healed rows differ from oracle")));
                    }
                    report.absorb(&heal);
                }
                if report.events.is_empty() != live.is_empty() {
                    let tripped = report.events.len();
                    return Err(at(&format!("{tripped} trips for live {live:?}")));
                }
                clean(&db).map_err(|e| at(&e))?;
                trace.heal.absorb(&report);
                live.clear();
                None
            }
            Event::Restart => Some(i + 1),
            Event::Storage(fault, pick) => {
                advance(schedule, &mut oracle, &mut seen, i)?;
                let query = &fx.queries[*pick as usize % fx.queries.len()];
                storage_fault(&mut db, &oracle, *fault, query, seed).map_err(|e| at(&e))?;
                None
            }
            Event::Checkpoint if live.contains(&StructureKind::Heap) => {
                let before = dir_bytes(dir).map_err(|e| at(&e))?;
                let result = db.checkpoint();
                let untouched = dir_bytes(dir).map_err(|e| at(&e))? == before;
                if !(matches!(result, Err(RelError::Corrupted { .. })) && untouched) {
                    return Err(at(&format!(
                        "checkpoint over a corrupted heap returned {result:?}, directory \
                         untouched: {untouched}"
                    )));
                }
                trace.refused += 1;
                None
            }
            logged => match logged.mutate(&mut db) {
                Ok(()) => None,
                Err(RelError::Crashed(_)) => {
                    trace.crashed_at = Some(i);
                    Some(i)
                }
                Err(e) => return Err(at(&e)),
            },
        };
        let Some(next) = reopen else {
            lsn += event.lsns();
            i += 1;
            continue;
        };
        drop(db); // close the log before recovery reopens it
        let (recovered, report) = Database::open_durable(dir).map_err(|e| at(&e))?;
        db = recovered;
        arm(&mut db);
        if report.next_lsn != lsn {
            return Err(at(&format!("recovered lsn {}, not {lsn}", report.next_lsn)));
        }
        advance(schedule, &mut oracle, &mut seen, i)?;
        same_stats(&db, &oracle).map_err(|e| at(&e))?;
        trace.recoveries.push(report);
        live.clear();
        i = next;
    }

    let fail = |e: String| format!("final check: {e}");
    advance(schedule, &mut oracle, &mut seen, schedule.len())?;
    arm(&mut db);
    arm(&mut oracle);
    let answers = run_queries(&db, &fx.queries).map_err(fail)?;
    check_answers(&answers, &run_queries(&oracle, &fx.queries).map_err(fail)?).map_err(fail)?;
    same_stats(&db, &oracle).map_err(fail)?;
    clean(&db).map_err(fail)?;
    let charges = |db: &Database| db.fault_plane().map(|p| p.snapshot()).unwrap_or_default();
    trace.charges = charges(&db);
    if trace.charges != charges(&oracle) {
        let want = charges(&oracle);
        return Err(fail(format!(
            "charges {:?} differ from oracle's {want:?}",
            trace.charges
        )));
    }
    trace.answers = answers;
    Ok(trace)
}

/// Every table's statistics equal the oracle's.
fn same_stats(db: &Database, oracle: &Database) -> Result<(), String> {
    match db.all_stats() == oracle.all_stats() {
        true => Ok(()),
        false => Err("table statistics differ from oracle".into()),
    }
}

/// The quarantine is empty and a scrub finds every checksum intact.
fn clean(db: &Database) -> Result<(), String> {
    let (quarantined, scrub) = (db.quarantined_structures(), db.scrub());
    match quarantined.is_empty() && scrub.is_clean() {
        true => Ok(()),
        false => Err(format!(
            "{quarantined:?} quarantined, {} corrupt sites left",
            scrub.corruptions.len()
        )),
    }
}

/// Every file in `dir` with its bytes, in path order.
fn dir_bytes(dir: &Path) -> std::io::Result<Vec<(PathBuf, Vec<u8>)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        files.push((path.clone(), std::fs::read(path)?));
    }
    files.sort();
    Ok(files)
}

fn fold_answers(hash: u64, answers: &[(Vec<Row>, ExecStats)]) -> u64 {
    (answers.iter()).fold(hash, |h, (rows, stats)| fold_answer(h, rows, stats))
}

// -------------------------------------------------------------- profiles --

const CRASH: MatrixSpec = MatrixSpec {
    name: "crash matrix",
    tag: "crash",
    hash_seed: 0xcbf2_9ce4_8422_2325,
    key_columns: 3,
    list_columns: "fixture, kind, seed, site",
    columns: "fixture, kind, seed, crash@, crashed, committed, replayed, discarded, resumed, \
              snapshot, queries ok",
    artifact: "recovery-reports.json",
    metric: ("wal.frames_replayed", "recovery"),
};

/// The crash matrix: a load, analyze, checkpoint and tuned design build
/// with one seeded crash armed, 3 kinds x `--points` seeds per fixture.
pub fn crash(scale: BenchScale, opts: &RunOptions) -> Result<(), String> {
    let scale = BenchScale(scale.0 * 0.02);
    let (base_seed, seeds) = opts.matrix_seeds(7, 4);
    let header = format!(
        "Crash matrix: 3 kinds x {} seeds x 2 fixtures (crash seed {base_seed})",
        seeds.len()
    );
    let mut matrix = Matrix::start(&CRASH, &header, opts.list_cells, opts.data_dir.as_deref())?;
    for dataset in [scale.dblp()?, scale.movie()?] {
        let (db, fx) = fixture(&dataset, scale, opts.exec, false)?;
        // The paper's tuning tool's design, so crashes land in builds too.
        let weighted: Vec<(&SqlQuery, f64)> = fx.queries.iter().map(|q| (q, 1.0)).collect();
        let budget = space_budget(&dataset);
        let design = Event::Apply(tune(db.catalog(), db.all_stats(), &weighted, budget).config);
        let mut load = creates(&db);
        load.extend(inserts(&db, |rows| rows));
        load.extend([Event::Analyze, Event::Checkpoint, design]);
        let frames: u64 = load.iter().map(Event::lsns).sum();
        let (fixture, ops, n_queries) = (&dataset.name, load.len(), fx.queries.len());
        matrix.note(&format!(
            "--- {fixture}: {ops} ops ({frames} frames), {n_queries} queries ---"
        ));
        for kind in CRASH_KINDS {
            for (idx, &seed) in seeds.iter().enumerate() {
                // The first two seeds pin the checkpoint boundary, which
                // seeded frames almost never hit: the frame after the
                // checkpoint (recovery loads the snapshot), then its marker
                // (recovery falls back to the old log).
                let after = match idx {
                    0 => frames,
                    1 => frames - 1,
                    _ => mix(mix(seed) ^ seed) % frames,
                };
                let boundary = ["post-checkpoint frame", "checkpoint marker"].get(idx);
                let site = boundary.map_or(String::new(), |b| format!(" ({b})"));
                let site = format!("crash@{after}{site}");
                let listing = vec![fixture.clone(), kind.to_string(), seed.to_string(), site];
                let name = format!("{fixture}-{kind}-{seed}");
                matrix.cell(&name, listing, |dir, registry, hash| {
                    let schedule = std::iter::once(Event::Crash(kind, after));
                    let schedule: Vec<Event> = schedule.chain(load.iter().cloned()).collect();
                    let trace = run_schedule(&fx, &schedule, mix(seed) ^ seed, dir)?;
                    let report = trace.recoveries.first().ok_or("the crash never fired")?;
                    record_recovery(registry, report);
                    *hash = fold(fold_counters(*hash, report.metric_counters()), after);
                    *hash = fold_answers(*hash, &trace.answers);
                    Ok(CellOut {
                        row: vec![
                            after.to_string(),
                            trace.crashed_at.is_some().to_string(),
                            format!("{}/{frames}", report.next_lsn),
                            report.frames_replayed.to_string(),
                            report.frames_discarded.to_string(),
                            (frames - report.next_lsn).to_string(),
                            report.snapshot_loaded.to_string(),
                            format!("{}/{n_queries}", trace.answers.len()),
                        ],
                        report: format!(
                            "\"crash_after\": {after}, \"report\": {}",
                            report.to_json()
                        ),
                        tally: report.frames_replayed,
                    })
                })?;
            }
        }
    }
    matrix.finish()
}

const HEAL: MatrixSpec = MatrixSpec {
    name: "heal matrix",
    tag: "heal",
    hash_seed: 0x8422_2325_cbf2_9ce4,
    key_columns: 3,
    list_columns: "fixture, kind, seed, site",
    columns: "fixture, kind, seed, site, events, quarantined, rebuilt, heap repairs, degraded, \
              retries, queries ok",
    artifact: "heal-reports.json",
    metric: ("heal.quarantined", "heal"),
};

/// The heal matrix: a two-phase load around a checkpoint (so heap repair
/// reads a snapshot and a log suffix), one kind's design, one seeded
/// corruption of its target, a heal; 3 kinds x `--points` seeds per fixture.
pub fn heal(scale: BenchScale, opts: &RunOptions) -> Result<(), String> {
    let scale = BenchScale(scale.0 * 0.02);
    let (base_seed, seeds) = opts.matrix_seeds(9, 3);
    let header = format!(
        "Heal matrix: 3 kinds x {} seeds x 2 fixtures (heal seed {base_seed})",
        seeds.len()
    );
    let mut matrix = Matrix::start(&HEAL, &header, opts.list_cells, opts.data_dir.as_deref())?;
    for dataset in [scale.dblp()?, scale.movie()?] {
        let (db, fx) = fixture(&dataset, scale, opts.exec, true)?;
        let targets = fx.targets.as_ref().ok_or("no heal targets")?;
        let (fixture, tables, n_queries) = (&dataset.name, db.catalog().len(), fx.queries.len());
        let heap = targets.scan_table.index();
        matrix.note(&format!(
            "--- {fixture}: {tables} tables, {n_queries} queries, targets: {INDEX_NAME} / \
             {VIEW_NAME} / heap on table {heap} ---"
        ));
        for (kind, design) in targets.designs() {
            for &seed in &seeds {
                // Salted with the kind, so every (kind, seed) draws its own site.
                let tag = kind.label().bytes().fold(0, |h, b| mix(h ^ u64::from(b)));
                let cell_seed = mix(seed) ^ seed ^ tag;
                let site = mix(cell_seed ^ 0x6865_616c); // "heal"
                let (kind_name, seed_name) = (kind.to_string(), seed.to_string());
                let listing = vec![
                    fixture.clone(),
                    kind_name,
                    seed_name,
                    format!("site {site:#x} mod {kind}"),
                ];
                let name = format!("{fixture}-{kind}-{seed}");
                matrix.cell(&name, listing, |dir, registry, hash| {
                    let mut schedule = creates(&db);
                    schedule.extend(inserts(&db, |rows| &rows[..rows.len() / 2]));
                    schedule.push(Event::Checkpoint);
                    schedule.extend(inserts(&db, |rows| &rows[rows.len() / 2..]));
                    schedule.extend([Event::Analyze, Event::Apply(design.clone())]);
                    schedule.extend([Event::Corrupt(kind, site), Event::Heal]);
                    let trace = run_schedule(&fx, &schedule, cell_seed, dir)?;
                    let (report, charges) = (&trace.heal, &trace.charges);
                    record_heal(registry, report);
                    *hash = fold(fold_counters(*hash, report.metric_counters()), site);
                    // The 0 sits where the planner's fault count, always 0
                    // under the verify plane, was folded, so the pinned hash
                    // holds.
                    for charge in [0, charges.storage_faults] {
                        *hash = fold(*hash, charge);
                    }
                    *hash = fold(fold(*hash, charges.budget_denials), charges.pages_charged);
                    *hash = fold_answers(*hash, &trace.answers);
                    Ok(CellOut {
                        row: vec![
                            format!("{site:x}"),
                            report.events.len().to_string(),
                            report.quarantined.to_string(),
                            report.rebuilt.to_string(),
                            report.heap_repairs.to_string(),
                            report.degraded_plans.to_string(),
                            report.retries.to_string(),
                            format!("{}/{n_queries}", trace.answers.len()),
                        ],
                        report: format!("\"site\": {site}, \"report\": {}", report.to_json()),
                        tally: report.quarantined,
                    })
                })?;
            }
        }
    }
    matrix.finish()
}

const FAULTS: MatrixSpec = MatrixSpec {
    name: "faults matrix",
    tag: "faults",
    hash_seed: 0x2325_cbf2_9ce4_8422,
    key_columns: 2,
    list_columns: "fixture, seed, schedule",
    columns: "fixture, seed, events, crash@, restarts, refused, heal events, heap repairs, \
              replayed, queries ok",
    artifact: "faults-reports.json",
    metric: ("wal.frames_replayed", "faults"),
};

/// Draw a mixed schedule: the `Create`s, then every other event drawn
/// among the `Insert` batches and for a tail after them, each only where
/// the runner's contracts make it legal. A model of the run (design, live
/// corruption, writes left before the armed crash fires) keeps the draw
/// legal across the crash.
fn mixed_schedule(db: &Database, targets: &Targets, seed: u64) -> Vec<Event> {
    let mut rng = seed;
    let mut draw = move |n: u64| {
        rng = mix(rng);
        rng % n
    };
    let designs = targets.designs();
    let mut schedule = creates(db);
    let mut load: VecDeque<Event> = inserts(db, |rows| rows).into();
    let (mut design, mut live) = (2, None);
    let (mut crash, mut armed, mut heap_rows, mut tail) = (None, false, 0, 24);
    while !load.is_empty() || tail > 0 {
        let heap_live = live == Some(StructureKind::Heap);
        let event = match draw(21) {
            0..=9 => match load.pop_front() {
                Some(insert) => insert,
                None => continue,
            },
            10 | 11 => Event::Checkpoint,
            12 if !heap_live => Event::Analyze,
            13 if live.is_none() => {
                design = draw(3) as usize;
                Event::Apply(designs[design].1.clone())
            }
            14 if !armed => Event::Crash(CRASH_KINDS[draw(3) as usize], draw(4)),
            // A derived structure is corrupted once the load is complete,
            // where the statistics make it the workload's preferred path.
            15 | 16 if live.is_none() && (design == 2 && heap_rows > 0 || load.is_empty()) => {
                Event::Corrupt(designs[design].0, draw(u64::MAX))
            }
            17 => Event::Heal,
            18 if crash.is_none() => Event::Restart,
            19 | 20 if live.is_none() => {
                let fault = [StorageFault::Roll, StorageFault::Budget][draw(2) as usize];
                Event::Storage(fault, draw(u64::MAX))
            }
            _ => continue,
        };
        tail -= usize::from(load.is_empty());
        if event.lsns() > 0 || (matches!(event, Event::Checkpoint) && !heap_live) {
            // On the crashing write, recovery drops what lived only in
            // memory; the event then runs again.
            live = live.filter(|_| crash != Some(0));
            crash = crash.and_then(|left: u64| left.checked_sub(1));
        }
        match &event {
            Event::Insert(table, rows) if *table == targets.scan_table => heap_rows += rows.len(),
            Event::Crash(_, after) => (armed, crash) = (true, Some(*after)),
            Event::Corrupt(kind, _) => live = Some(*kind),
            Event::Heal | Event::Restart => live = None,
            _ => {}
        }
        schedule.push(event);
    }
    if live.is_some() {
        schedule.push(Event::Heal);
    }
    schedule
}

/// The mixed matrix: `--points` seeded schedules per fixture. A failing
/// cell names its one-cell repro.
pub fn mixed(scale: BenchScale, opts: &RunOptions) -> Result<(), String> {
    let scale = BenchScale(scale.0 * 0.02);
    let (base_seed, seeds) = opts.matrix_seeds(1, 10);
    let header = format!(
        "Fault schedules: {} seeds x 2 fixtures (schedule seed {base_seed})",
        seeds.len()
    );
    let mut matrix = Matrix::start(&FAULTS, &header, opts.list_cells, opts.data_dir.as_deref())?;
    for dataset in [scale.dblp()?, scale.movie()?] {
        let (db, fx) = fixture(&dataset, scale, opts.exec, true)?;
        let (targets, fixture) = (fx.targets.as_ref().ok_or("no targets")?, &dataset.name);
        for &seed in &seeds {
            let schedule = mixed_schedule(&db, targets, mix(seed) ^ seed);
            let letters: String = schedule.iter().map(Event::letter).collect();
            let listing = vec![fixture.clone(), seed.to_string(), letters.clone()];
            matrix.cell(
                &format!("{fixture}-{seed}"),
                listing,
                |dir, registry, hash| {
                    let repro =
                        |e| format!("{e}; repro: reproduce faults --seed {seed} --points 1");
                    let trace =
                        run_schedule(&fx, &schedule, mix(seed) ^ seed, dir).map_err(repro)?;
                    *hash = letters.chars().fold(*hash, |h, c| fold(h, u64::from(c)));
                    for report in &trace.recoveries {
                        record_recovery(registry, report);
                        *hash = fold_counters(*hash, report.metric_counters());
                    }
                    record_heal(registry, &trace.heal);
                    *hash = fold_counters(*hash, trace.heal.metric_counters());
                    *hash = fold(fold(*hash, trace.refused), trace.charges.pages_charged);
                    *hash = fold_answers(*hash, &trace.answers);
                    let replayed: u64 = trace.recoveries.iter().map(|r| r.frames_replayed).sum();
                    let reports: Vec<String> =
                        trace.recoveries.iter().map(|r| r.to_json()).collect();
                    Ok(CellOut {
                        row: vec![
                            schedule.len().to_string(),
                            trace.crashed_at.map_or("-".into(), |i| i.to_string()),
                            letters.matches('R').count().to_string(),
                            trace.refused.to_string(),
                            trace.heal.events.len().to_string(),
                            trace.heal.heap_repairs.to_string(),
                            replayed.to_string(),
                            format!("{}/{}", trace.answers.len(), fx.queries.len()),
                        ],
                        report: format!(
                            "\"schedule\": \"{letters}\", \"recoveries\": [{}], \"heal\": {}",
                            reports.join(", "),
                            trace.heal.to_json()
                        ),
                        tally: replayed,
                    })
                },
            )?;
        }
    }
    matrix.finish()
}
