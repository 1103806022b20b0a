//! The database facade tying together catalog, storage, statistics, physical
//! structures, planning, and execution.

use crate::built::BuiltSet;
use crate::catalog::{Catalog, TableDef, TableId};
use crate::error::{CorruptionEvent, RelError, RelResult, StructureKind};
use crate::exec::{self, ExecOptions, ExecProfile, ExecStats, StmtCtx};
use crate::fault::{backoff_nanos, CrashPoint, FaultConfig, FaultPlane};
use crate::heal::{HealReport, ScrubReport};
use crate::index::BuiltIndex;
use crate::optimizer::{self, PhysicalConfig as OptimizerConfig};
use crate::plan::QueryPlan;
use crate::recovery::{self, RecoveryReport};
use crate::snapshot::{self, SNAPSHOT_FILE, WAL_FILE};
use crate::sql::SqlQuery;
use crate::stats::{ColumnStats, TableStats};
use crate::storage::{self, TableHeap};
use crate::types::{Row, Value};
use crate::view::BuiltView;
use crate::wal::{WalRecord, WalStats, WalWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::optimizer::PhysicalConfig;

/// Rows per `InsertRows` record in a checkpoint snapshot.
const SNAPSHOT_BATCH_ROWS: usize = 4096;

/// The durable half of a database: where it lives on disk, the open log
/// writer, and the LSN counter (monotonic across checkpoints).
#[derive(Debug)]
struct Durability {
    dir: PathBuf,
    writer: WalWriter,
    next_lsn: u64,
}

/// The result of executing a query: rows plus accounting.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Result rows (sorted when the query carries an `ORDER BY`).
    pub rows: Vec<Row>,
    /// Measured execution accounting (actual pages and tuples touched).
    pub exec: ExecStats,
    /// The plan that ran.
    pub plan: QueryPlan,
    /// Wall-clock time of execution.
    pub elapsed: Duration,
    /// Executor profile (morsel dispatch counts, per-operator timings).
    pub profile: ExecProfile,
}

/// An in-memory database instance.
#[derive(Debug, Default)]
pub struct Database {
    catalog: Catalog,
    heaps: Vec<TableHeap>,
    stats: Vec<TableStats>,
    /// The materialized physical design: every derived structure plus the
    /// configuration it was built from. Replaced whole, only by
    /// [`Database::install`].
    built: BuiltSet,
    /// Derived structures currently marked unusable after a checksum
    /// failure: `(kind, name)` where the name is the index/view name.
    /// Planning transparently avoids
    /// quarantined structures; [`Database::execute_healing`] repopulates
    /// them after the statement completes. A `BTreeSet` so every walk is
    /// deterministic. Volatile by design: crash recovery rebuilds all
    /// derived structures fresh, so quarantine never reaches the WAL.
    quarantined: std::collections::BTreeSet<(StructureKind, String)>,
    fault: Option<Arc<FaultPlane>>,
    exec: ExecOptions,
    durability: Option<Durability>,
    /// Physical-configuration epoch, bumped whenever the set of built
    /// structures is replaced ([`Database::install`]). Plans are stamped
    /// with the epoch they were planned under and
    /// [`Database::execute_plan`] rejects a stale stamp, so a swap landing
    /// between plan and execute can never send the executor into a
    /// structure the swap just dropped. Stored zero-based; the public
    /// [`Database::config_epoch`] is one-based so `0` can mean "unpinned"
    /// in [`QueryPlan::epoch`].
    config_epoch: u64,
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    // ------------------------------------------------------- durability --

    /// Create a fresh durable database rooted at `dir` (created if
    /// missing). Any previous snapshot/log in the directory is discarded.
    /// Every mutation is write-ahead logged; [`Database::checkpoint`]
    /// compacts the log into a snapshot.
    pub fn create_durable(dir: impl AsRef<Path>) -> RelResult<Database> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(RelError::io)?;
        let snap = dir.join(SNAPSHOT_FILE);
        if snap.exists() {
            std::fs::remove_file(&snap).map_err(RelError::io)?;
        }
        let writer = WalWriter::create(&dir.join(WAL_FILE))?;
        let mut db = Database::new();
        db.durability = Some(Durability {
            dir: dir.to_path_buf(),
            writer,
            next_lsn: 0,
        });
        Ok(db)
    }

    /// Reopen a durable database from `dir`, running crash recovery:
    /// validate the snapshot, replay the committed WAL suffix, discard any
    /// torn tail *and* any trailing transaction whose commit marker never
    /// made it (truncating both from the file so future appends extend the
    /// committed prefix — dead transaction frames would otherwise absorb
    /// the LSNs of later commits), and rebuild physical structures.
    /// Deterministic: the same directory bytes always yield the same
    /// database and report.
    pub fn open_durable(dir: impl AsRef<Path>) -> RelResult<(Database, RecoveryReport)> {
        let dir = dir.as_ref();
        let (mut db, report) = recovery::recover(dir)?;
        let wal_path = dir.join(WAL_FILE);
        if !wal_path.exists() {
            WalWriter::create(&wal_path)?;
        } else if report.bytes_discarded > 0 || report.frames_uncommitted > 0 {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .map_err(RelError::io)?;
            file.set_len(report.wal_valid_bytes).map_err(RelError::io)?;
            file.sync_all().map_err(RelError::io)?;
        }
        let writer = WalWriter::open_append(&wal_path)?;
        db.durability = Some(Durability {
            dir: dir.to_path_buf(),
            writer,
            next_lsn: report.next_lsn,
        });
        Ok((db, report))
    }

    /// Whether this database write-ahead logs its mutations.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durable directory, if any.
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Cumulative WAL append counters, if durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durability.as_ref().map(|d| d.writer.stats())
    }

    /// Arm (or clear) a deterministic crash point on the WAL writer: after
    /// `after_writes` further frame appends, the next durable mutation
    /// "crashes" — the in-flight frame is dropped/torn/bit-flipped per the
    /// crash kind and every subsequent durable mutation fails with
    /// [`RelError::Crashed`] until the database is reopened through
    /// [`Database::open_durable`]. Errors on a non-durable database.
    pub fn set_crash_point(&mut self, point: Option<CrashPoint>) -> RelResult<()> {
        let d = self.durability.as_mut().ok_or_else(|| {
            RelError::InvalidQuery("crash point on a non-durable database".into())
        })?;
        d.writer.set_crash_point(point);
        Ok(())
    }

    /// Checkpoint: write the full state as a snapshot — the log records
    /// that rebuild it ([`crate::snapshot`]) — then truncate the log to a
    /// single checkpoint marker. Crash-safe at every step — the snapshot
    /// swap is tmp-file + rename, and the old log stays in place until the
    /// new one (whose frames the snapshot supersedes by LSN) is complete.
    /// Errors on a non-durable database; with a fault plane active, a heap
    /// failing its checksums is `Corrupted` and nothing on disk changes.
    pub fn checkpoint(&mut self) -> RelResult<()> {
        let Some(d) = self.durability.as_mut() else {
            return Err(RelError::InvalidQuery(
                "checkpoint on a non-durable database".into(),
            ));
        };
        if d.writer.is_dead() {
            return Err(RelError::Crashed(
                "checkpoint on a crashed database; reopen through recovery".into(),
            ));
        }
        // As in `validate_config`: never persist a corrupted page into a
        // snapshot that vouches for it once the repairing log is truncated.
        if self.fault.is_some() {
            for (id, def) in self.catalog.iter() {
                heap_of(&self.heaps, id)?.verify_checksums(&def.name)?;
            }
        }
        // Produced lazily, so only one row batch is cloned at a time.
        let config = self.built.config();
        let records = self
            .catalog
            .iter()
            .flat_map(|(id, def)| {
                let batches = self.heaps[id.index()]
                    .rows()
                    .chunks(SNAPSHOT_BATCH_ROWS)
                    .map(move |rows| WalRecord::InsertRows {
                        table: id,
                        rows: rows.to_vec(),
                    });
                std::iter::once(WalRecord::CreateTable(def.clone())).chain(batches)
            })
            .chain(self.catalog.iter().map(|(id, _)| WalRecord::SetTableStats {
                table: id,
                stats: self.stats[id.index()].clone(),
            }))
            .chain(
                (*config != PhysicalConfig::none()).then(|| WalRecord::ApplyConfig(config.clone())),
            );
        snapshot::write_snapshot(&d.dir, d.next_lsn, records)?;
        // Fresh log: one checkpoint marker, then swap it over the old file.
        let tmp = d.dir.join("wal.tmp");
        let mut fresh = WalWriter::create(&tmp)?;
        fresh.adopt_crash_state(&d.writer);
        if let Err(e) = fresh.append(d.next_lsn, &WalRecord::Checkpoint) {
            // A simulated crash during the marker write kills the process'
            // writer; the old log (fully covered by the snapshot) stays.
            d.writer.adopt_crash_state(&fresh);
            return Err(e);
        }
        fresh.sync()?;
        std::fs::rename(&tmp, d.dir.join(WAL_FILE)).map_err(RelError::io)?;
        d.writer = fresh;
        Ok(())
    }

    /// Write-ahead log one mutation record (no-op on non-durable
    /// databases). Called *after* validation and *before* application, so
    /// the log never records an operation that would fail to apply.
    /// `pub(crate)` so the session layer can frame transactional batches
    /// with begin/commit markers around the ordinary mutation calls.
    pub(crate) fn log(&mut self, record: &WalRecord) -> RelResult<()> {
        if let Some(d) = self.durability.as_mut() {
            d.writer.append(d.next_lsn, record)?;
            d.next_lsn += 1;
        }
        Ok(())
    }

    /// The LSN the next logged record will carry (`None` on non-durable
    /// databases). The session layer samples this around a commit's marker
    /// frames: the `TxnCommit` marker's LSN is the commit LSN that tags the
    /// transaction's row versions.
    pub fn wal_next_lsn(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.next_lsn)
    }

    // -------------------------------------------------------- mutations --

    /// Create a table.
    pub fn create_table(&mut self, def: TableDef) -> RelResult<TableId> {
        if self.catalog.table_id(&def.name).is_ok() {
            return Err(RelError::Duplicate(def.name));
        }
        if self.is_durable() {
            self.log(&WalRecord::CreateTable(def.clone()))?;
        }
        let id = self.catalog.add_table(def)?;
        self.heaps.push(TableHeap::new());
        self.stats.push(TableStats::default());
        Ok(id)
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// A table's heap.
    ///
    /// Panics on a foreign id; convenience accessor for tests and tools. Use
    /// [`Database::try_heap`] on paths that must degrade gracefully.
    pub fn heap(&self, table: TableId) -> &TableHeap {
        &self.heaps[table.index()]
    }

    /// A table's heap, as a checked result.
    pub fn try_heap(&self, table: TableId) -> RelResult<&TableHeap> {
        heap_of(&self.heaps, table)
    }

    /// Mutable heap access, used by chaos tests to damage stored rows (see
    /// [`TableHeap::corrupt_row`]).
    pub fn heap_mut(&mut self, table: TableId) -> Option<&mut TableHeap> {
        self.heaps.get_mut(table.index())
    }

    /// A table's statistics.
    ///
    /// Panics on a foreign id; convenience accessor for tests and tools.
    pub fn table_stats(&self, table: TableId) -> &TableStats {
        &self.stats[table.index()]
    }

    /// Enable deterministic fault injection on this database's execution
    /// paths. An inert config (see [`FaultConfig::is_active`]) clears it.
    pub fn set_fault_config(&mut self, config: FaultConfig) {
        self.fault = config
            .is_active()
            .then(|| Arc::new(FaultPlane::new(config)));
    }

    /// Disable fault injection.
    pub fn clear_fault_config(&mut self) {
        self.fault = None;
    }

    /// The active fault plane, if any.
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.fault.as_deref()
    }

    /// Set the executor options used by [`Database::execute`] /
    /// [`Database::execute_plan`]. Rows and [`ExecStats`] are bit-identical
    /// for any thread count; only wall-clock time changes.
    pub fn set_exec_options(&mut self, options: ExecOptions) {
        self.exec = options;
    }

    /// The executor options in effect.
    pub fn exec_options(&self) -> ExecOptions {
        self.exec
    }

    /// All table statistics, in table-id order.
    pub fn all_stats(&self) -> &[TableStats] {
        &self.stats
    }

    /// Insert one row (validated against the schema).
    pub fn insert(&mut self, table: TableId, row: Row) -> RelResult<()> {
        self.insert_rows(table, [row]).map(|_| ())
    }

    /// Bulk-insert rows. The whole batch is validated *before* the first
    /// row is logged or applied, so a rejected batch leaves neither the
    /// log nor the heap partially written.
    pub fn insert_rows(
        &mut self,
        table: TableId,
        rows: impl IntoIterator<Item = Row>,
    ) -> RelResult<usize> {
        let def = self.catalog.try_table(table)?;
        if self.heaps.get(table.index()).is_none() {
            return Err(RelError::UnknownTable(def.name.clone()));
        }
        let rows: Vec<Row> = rows.into_iter().collect();
        for row in &rows {
            storage::validate_row(def, row)?;
        }
        if rows.is_empty() {
            return Ok(0);
        }
        if self.is_durable() {
            self.log(&WalRecord::InsertRows {
                table,
                rows: rows.clone(),
            })?;
        }
        // Both were checked above; the definition is borrowed afresh because
        // logging needed `&mut self` in between.
        let def = self.catalog.try_table(table)?;
        let Some(heap) = self.heaps.get_mut(table.index()) else {
            return Err(RelError::UnknownTable(def.name.clone()));
        };
        let (n, from) = (rows.len(), heap.len());
        for row in rows {
            heap.insert_unchecked(def, row);
        }
        // The batch's delta reaches every built structure, so each stays a
        // full build over the live heaps. Infallible, O(delta) and
        // charge-free: nothing after the log append may fail.
        let heaps = &self.heaps;
        let rows_of = |t: TableId| heap_rows(heaps, t);
        let built_from = |t: TableId| if t == table { from } else { rows_of(t).len() };
        self.built.catch_up(&rows_of, &built_from);
        Ok(n)
    }

    /// Total bytes of base data.
    pub fn data_bytes(&self) -> usize {
        self.heaps.iter().map(TableHeap::byte_size).sum()
    }

    /// Recompute statistics for every table from the stored data.
    pub fn analyze(&mut self) -> RelResult<()> {
        self.log(&WalRecord::Analyze)?;
        for id in 0..self.heaps.len() {
            self.compute_table_stats(TableId(id as u32));
        }
        Ok(())
    }

    /// Recompute statistics for one table from its data. A foreign id is a
    /// no-op (and is not logged).
    pub fn analyze_table(&mut self, table: TableId) -> RelResult<()> {
        if self.heaps.get(table.index()).is_none() || self.catalog.try_table(table).is_err() {
            return Ok(());
        }
        self.log(&WalRecord::AnalyzeTable(table))?;
        self.compute_table_stats(table);
        Ok(())
    }

    /// The statistics computation behind [`Database::analyze`] /
    /// [`Database::analyze_table`] (no logging): full statistics of the
    /// table's heap, a short row reading as `Null` past its end. A foreign
    /// id is a no-op.
    fn compute_table_stats(&mut self, table: TableId) {
        let (Some(heap), Ok(def)) = (self.heaps.get(table.index()), self.catalog.try_table(table))
        else {
            return;
        };
        let rows = heap.rows();
        let fresh = TableStats {
            rows: rows.len() as u64,
            columns: (0..def.columns.len())
                .map(|c| {
                    ColumnStats::build(
                        rows.iter()
                            .map(|row| row.get(c).cloned().unwrap_or(Value::Null)),
                    )
                })
                .collect(),
        };
        if let Some(slot) = self.stats.get_mut(table.index()) {
            *slot = fresh;
        }
    }

    /// Install externally derived statistics (the paper derives merged-schema
    /// statistics from fully-split-schema statistics instead of re-collecting
    /// them; see Section 4.1). A foreign id is a no-op (and is not logged).
    pub fn set_table_stats(&mut self, table: TableId, stats: TableStats) -> RelResult<()> {
        if self.stats.get(table.index()).is_none() {
            return Ok(());
        }
        if self.is_durable() {
            self.log(&WalRecord::SetTableStats {
                table,
                stats: stats.clone(),
            })?;
        }
        if let Some(slot) = self.stats.get_mut(table.index()) {
            *slot = stats;
        }
        Ok(())
    }

    /// A built index by name.
    pub fn built_index(&self, name: &str) -> RelResult<&BuiltIndex> {
        self.built
            .index(name)
            .ok_or_else(|| RelError::UnknownIndex(name.to_string()))
    }

    /// A built view by name.
    pub fn built_view(&self, name: &str) -> RelResult<&BuiltView> {
        self.built
            .view(name)
            .ok_or_else(|| RelError::UnknownIndex(name.to_string()))
    }

    /// Mutable access to the built design, used by corruption tests to
    /// damage stored entries (see [`BuiltIndex::corrupt_entry`],
    /// [`BuiltView::corrupt_row`]).
    pub fn built_mut(&mut self) -> &mut BuiltSet {
        &mut self.built
    }

    /// The physical configuration currently materialized.
    pub fn built_config(&self) -> &OptimizerConfig {
        self.built.config()
    }

    /// Materialize a physical configuration (replacing any previous one).
    ///
    /// Every path that changes the design has the same shape — validate →
    /// verify backing heaps → build → log → install — and only the last
    /// step touches the database: a configuration that is rejected, or
    /// whose build fails, leaves the previous structures intact and never
    /// reaches the WAL.
    pub fn apply_config(&mut self, config: &OptimizerConfig) -> RelResult<()> {
        self.validate_config(config)?;
        let built = BuiltSet::build(config, &self.rows_of());
        self.apply_built(built)
    }

    /// Log and install an already-built design: the `ApplyConfig` record
    /// is appended first, so a crash before it recovers the old design and
    /// a crash after it recovers this one (rebuilt from the replayed
    /// heaps); nothing after the append can fail. `built` must come from
    /// [`BuiltSet::build`] over this database's rows — of a validated
    /// configuration, caught up to the live heaps.
    pub fn apply_built(&mut self, built: BuiltSet) -> RelResult<()> {
        if self.is_durable() {
            self.log(&WalRecord::ApplyConfig(built.config().clone()))?;
        }
        self.install(built);
        Ok(())
    }

    /// The one place the built design is replaced: swap the set, clear
    /// quarantine (it described the old structures), and bump the epoch so
    /// any plan stamped before the swap is rejected by `execute_plan`
    /// rather than run against structures that no longer exist.
    fn install(&mut self, built: BuiltSet) {
        self.built = built;
        self.quarantined.clear();
        self.config_epoch += 1;
    }

    /// Every table's live rows, as the row source of a [`BuiltSet`].
    pub(crate) fn rows_of<'a>(&'a self) -> impl Fn(TableId) -> &'a [Row] {
        |table| heap_rows(&self.heaps, table)
    }

    /// Check a configuration against the catalog without building
    /// anything: unique structure names, known tables, in-bounds columns,
    /// at most one clustered index per table, and — when a fault plane is
    /// active — clean checksums on every backing heap.
    pub(crate) fn validate_config(&self, config: &OptimizerConfig) -> RelResult<()> {
        let mut index_names: Vec<&str> = Vec::new();
        let mut clustered_on: Vec<TableId> = Vec::new();
        for def in &config.indexes {
            if index_names.contains(&def.name.as_str()) {
                return Err(RelError::Duplicate(def.name.clone()));
            }
            index_names.push(&def.name);
            let table_def = self.catalog.try_table(def.table)?;
            if def.clustered {
                if clustered_on.contains(&def.table) {
                    return Err(RelError::InvalidQuery(format!(
                        "two clustered indexes on table '{}'",
                        table_def.name
                    )));
                }
                clustered_on.push(def.table);
            }
            if let Some(&bad) = def
                .key_columns
                .iter()
                .chain(&def.include_columns)
                .find(|&&c| c >= table_def.columns.len())
            {
                return Err(RelError::UnknownColumn {
                    table: table_def.name.clone(),
                    column: format!("#{bad}"),
                });
            }
        }
        let mut view_names: Vec<&str> = Vec::new();
        for def in &config.views {
            if view_names.contains(&def.name.as_str()) {
                return Err(RelError::Duplicate(def.name.clone()));
            }
            view_names.push(&def.name);
            let left_def = self.catalog.try_table(def.left)?;
            let right_def = self.catalog.try_table(def.right)?;
            let bad_col = |table: &TableDef, col: usize| RelError::UnknownColumn {
                table: table.name.clone(),
                column: format!("#{col}"),
            };
            if def.left_col >= left_def.columns.len() {
                return Err(bad_col(left_def, def.left_col));
            }
            if def.right_col >= right_def.columns.len() {
                return Err(bad_col(right_def, def.right_col));
            }
            for &(side, col) in &def.outputs {
                let table = match side {
                    crate::view::ViewSide::Left => left_def,
                    crate::view::ViewSide::Right => right_def,
                };
                if col >= table.columns.len() {
                    return Err(bad_col(table, col));
                }
            }
        }
        // With a fault plane active, verify the page checksums of every
        // heap the configuration reads — each backing table exactly once,
        // however many structures reference it — so a corrupted page is
        // detected at build time instead of being silently materialized
        // into a structure whose own checksums would then vouch for it.
        if self.fault.is_some() {
            for table in config.backing_tables() {
                let def = self.catalog.try_table(table)?;
                self.try_heap(table)?.verify_checksums(&def.name)?;
            }
        }
        Ok(())
    }

    /// Drop all physical structures.
    pub fn clear_config(&mut self) -> RelResult<()> {
        self.log(&WalRecord::ClearConfig)?;
        self.install(BuiltSet::default());
        Ok(())
    }

    /// The current configuration epoch (one-based; see the field docs).
    /// Plans stamped with an older epoch are rejected by
    /// [`Database::execute_plan`] with [`RelError::StalePlan`].
    pub fn config_epoch(&self) -> u64 {
        self.config_epoch + 1
    }

    /// Actual bytes of the materialized physical structures, measured from
    /// the built B-trees and views themselves — not the optimizer's size
    /// *model* ([`Database::config_bytes`]), which charges included-column
    /// widths per row that the built structure never stores. Budget
    /// enforcement against a built design must use the measurement.
    pub fn built_bytes(&self) -> usize {
        self.built.bytes()
    }

    /// What-if: plan (and cost) a query against a hypothetical configuration
    /// without materializing anything.
    pub fn estimate(&self, query: &SqlQuery, config: &OptimizerConfig) -> RelResult<QueryPlan> {
        self.optimize(query, config)
    }

    /// The one optimizer call: every plan this database makes — what-if or
    /// for execution, library or session — comes through here, so the
    /// advisor prices exactly the planner the engine then runs.
    fn optimize(&self, query: &SqlQuery, config: &OptimizerConfig) -> RelResult<QueryPlan> {
        optimizer::plan_query(&self.catalog, &self.stats, config, query)
    }

    /// Estimated size in bytes of a configuration's structures.
    pub fn config_bytes(&self, config: &OptimizerConfig) -> f64 {
        optimizer::config_bytes(&self.catalog, &self.stats, config)
    }

    /// Plan a query against the *built* configuration — minus any
    /// quarantined structures, see [`BuiltSet::planning_config`] — with the
    /// engine's statistics, and stamp the plan with the current
    /// configuration epoch. Every statement plans this way: a structure
    /// answers for any snapshot and any pending rows, so plan choice cannot
    /// change an answer. The stamp pins the plan/execute handoff: if
    /// a configuration swap lands before [`Database::execute_plan`] runs
    /// the plan, execution fails with the transient
    /// [`RelError::StalePlan`] instead of dereferencing structures the
    /// swap dropped, and the caller replans.
    pub fn plan(&self, query: &SqlQuery) -> RelResult<QueryPlan> {
        let config = self.built.planning_config(&self.quarantined);
        let mut plan = self.optimize(query, &config)?;
        plan.epoch = self.config_epoch();
        Ok(plan)
    }

    /// Execute an already-chosen plan (must reference built structures
    /// only). A plan stamped under an older configuration epoch is
    /// rejected with [`RelError::StalePlan`] (transient — replan and
    /// retry); unstamped plans (`epoch == 0`, e.g. what-if plans promoted
    /// by tests) skip the check and the caller owns their validity.
    pub fn execute_plan(&self, plan: QueryPlan) -> RelResult<QueryOutcome> {
        self.execute_stmt(plan, &StmtCtx::default())
    }

    /// Check the plan's epoch stamp, run it through the executor's one
    /// entry point, and build the outcome.
    fn execute_stmt(&self, plan: QueryPlan, ctx: &StmtCtx) -> RelResult<QueryOutcome> {
        if plan.epoch != 0 && plan.epoch != self.config_epoch() {
            return Err(RelError::StalePlan {
                plan_epoch: plan.epoch,
                config_epoch: self.config_epoch(),
            });
        }
        let start = Instant::now();
        let (rows, exec, profile) = exec::execute(self, &plan, &self.exec, ctx)?;
        let elapsed = start.elapsed();
        Ok(QueryOutcome {
            rows,
            exec,
            plan,
            elapsed,
            profile,
        })
    }

    /// Plan against the *built* configuration — minus any quarantined
    /// structures — and execute. Subject to injected planner and storage
    /// faults when a fault plane is active.
    pub fn execute(&self, query: &SqlQuery) -> RelResult<QueryOutcome> {
        self.run(query, &StmtCtx::default())
    }

    /// Plan and execute one statement: the single statement path under the
    /// library, session and server surfaces. `ctx` carries everything that
    /// varies per statement — MVCC snapshot, statistics override, deadline,
    /// the open transaction's pending rows (see [`StmtCtx`]); the default
    /// context is [`Database::execute`].
    ///
    /// Timeouts are **charge/token-neutral**: a statement that ends in
    /// [`RelError::Timeout`] (transient) leaves the fault plane's budget
    /// charges and token serial at their pre-statement state, exactly like
    /// a failed heal attempt — a timed-out statement leaves no trace in
    /// the deterministic fault schedule.
    pub fn run(&self, query: &SqlQuery, ctx: &StmtCtx) -> RelResult<QueryOutcome> {
        self.attempt(query, ctx, |err| matches!(err, RelError::Timeout { .. }))
    }

    /// One statement attempt with fault-plane neutrality: save the plane's
    /// state (budget charges, token serial), plan and execute, and restore
    /// the saved state when the attempt fails with an error `undo` accepts.
    /// The one neutrality mechanism: [`Database::run`] undoes timeouts,
    /// [`Database::execute_healing`] undoes the corruption it retries.
    fn attempt(
        &self,
        query: &SqlQuery,
        ctx: &StmtCtx,
        undo: impl FnOnce(&RelError) -> bool,
    ) -> RelResult<QueryOutcome> {
        let saved = self.fault_plane().map(|plane| (plane, plane.save()));
        let result = self
            .plan(query)
            .and_then(|plan| self.execute_stmt(plan, ctx));
        if let (Err(err), Some((plane, state))) = (&result, saved) {
            if undo(err) {
                plane.restore(state);
            }
        }
        result
    }

    // ------------------------------------------------------ self-healing --

    /// Upper bound on healing retries for one statement. Each retry removes
    /// a distinct structure from the plan (or repairs a heap), so any real
    /// schedule converges far below this; the bound only guards against a
    /// corruption source the loop cannot drain.
    const MAX_HEAL_RETRIES: u64 = 16;

    /// Structures currently quarantined, in deterministic order.
    pub fn quarantined_structures(&self) -> Vec<(StructureKind, String)> {
        self.quarantined.iter().cloned().collect()
    }

    /// Execute a statement, healing any corruption it trips over instead of
    /// failing it:
    ///
    /// 1. **Detect** — a checksum failure during planning or execution
    ///    surfaces as a typed [`CorruptionEvent`]; the failed attempt's
    ///    fault-plane charges and tokens are rolled back
    ///    ([`FaultPlane::restore`]) so healing is charge-neutral.
    /// 2. **Quarantine & retry** — a corrupted *derived* structure (index
    ///    or view) is quarantined and the statement is replanned against
    ///    the remaining access paths, after recording a bounded
    ///    deterministic backoff ([`backoff_nanos`]; simulated, never
    ///    slept). A corrupted *row heap* on a durable database is repaired
    ///    in place from the snapshot + committed WAL suffix
    ///    ([`crate::recovery::repair_table`]); without a durable copy heap
    ///    corruption is unrecoverable and propagates.
    /// 3. **Repair** — once the statement succeeds, every quarantined
    ///    structure is rebuilt from its (verified) backing heaps and
    ///    released; a failed rebuild keeps the structure quarantined and is
    ///    counted, never raised — the statement already succeeded.
    ///
    /// Returns the outcome plus a [`HealReport`] of everything detected and
    /// repaired, all deterministic per `(seed, corruption sites)`.
    pub fn execute_healing(&mut self, query: &SqlQuery) -> RelResult<(QueryOutcome, HealReport)> {
        let mut report = HealReport::default();
        let seed = self.fault.as_ref().map(|p| p.config().seed).unwrap_or(0);
        let outcome = loop {
            if !self.quarantined.is_empty() {
                report.degraded_plans += 1;
            }
            let corrupted = |err: &RelError| CorruptionEvent::from_error(err).is_some();
            match self.attempt(query, &StmtCtx::default(), corrupted) {
                Ok(outcome) => break outcome,
                Err(err) => {
                    let Some(event) = CorruptionEvent::from_error(&err) else {
                        return Err(err);
                    };
                    if report.retries >= Self::MAX_HEAL_RETRIES {
                        return Err(err);
                    }
                    let attempt = u32::try_from(report.retries).unwrap_or(u32::MAX);
                    report.retries += 1;
                    report.backoff_nanos += backoff_nanos(seed, attempt);
                    report.events.push(event.clone());
                    if event.kind.is_derived() {
                        self.quarantined
                            .insert((event.kind, event.structure.clone()));
                        report.quarantined += 1;
                    } else if self.is_durable() {
                        self.repair_heap_from_log(&event.table)?;
                        report.heap_repairs += 1;
                    } else {
                        return Err(err);
                    }
                }
            }
        };
        self.rebuild_quarantined(&mut report);
        Ok((outcome, report))
    }

    /// Replace one table's in-memory heap with a fresh rebuild from the
    /// durable directory (snapshot + committed WAL suffix). The on-disk
    /// bytes are the authority: every committed mutation was logged before
    /// it was applied, so the rebuilt heap is exactly the pre-corruption
    /// heap.
    fn repair_heap_from_log(&mut self, table: &str) -> RelResult<()> {
        let dir = self
            .data_dir()
            .ok_or_else(|| RelError::UnknownTable(table.to_string()))?
            .to_path_buf();
        let heap = recovery::repair_table(&dir, table)?;
        let id = self.catalog.table_id(table)?;
        let slot = self
            .heaps
            .get_mut(id.index())
            .ok_or_else(|| RelError::UnknownTable(table.to_string()))?;
        *slot = heap;
        Ok(())
    }

    /// Rebuild every quarantined structure from its backing heaps and
    /// release it. Walks the quarantine in its deterministic (kind, name)
    /// order; each backing heap is checksum-verified before it is read, so
    /// damage is never materialized into the fresh structure. Rebuild
    /// failures are counted and the structure stays quarantined. Nothing
    /// is logged: the definitions are still part of the built
    /// configuration, whose `ApplyConfig` record is already durable, and
    /// recovery rebuilds all derived structures fresh anyway.
    fn rebuild_quarantined(&mut self, report: &mut HealReport) {
        let (catalog, heaps) = (&self.catalog, &self.heaps);
        let rows_of = |table: TableId| heap_rows(heaps, table);
        let verify = |table: TableId| {
            heap_of(heaps, table)?.verify_checksums(&catalog.try_table(table)?.name)
        };
        for (kind, name) in self.quarantined.clone() {
            match self.built.rebuild_one(kind, &name, &rows_of, &verify) {
                Ok(()) => {
                    self.quarantined.remove(&(kind, name));
                    report.rebuilt += 1;
                }
                Err(_) => report.rebuild_failures += 1,
            }
        }
    }

    /// Walk every stored checksum — row heaps, then the built design in
    /// configuration order — and report (never raise) each mismatch. Runs
    /// regardless of the fault plane.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for (id, def) in self.catalog.iter() {
            if let Ok(heap) = self.try_heap(id) {
                report.note(StructureKind::Heap, heap.verify_checksums(&def.name));
            }
        }
        self.built
            .verify_each(&self.catalog, |kind, result| report.note(kind, result));
        report
    }
}

fn heap_of(heaps: &[TableHeap], table: TableId) -> RelResult<&TableHeap> {
    heaps
        .get(table.index())
        .ok_or_else(|| RelError::UnknownTable(format!("#{}", table.0)))
}

/// A table's live rows; an unknown table has none.
fn heap_rows(heaps: &[TableHeap], table: TableId) -> &[Row] {
    heaps.get(table.index()).map_or(&[], TableHeap::rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnDef;
    use crate::expr::{Filter, FilterOp};
    use crate::index::IndexDef;
    use crate::sql::{JoinCond, Output, SelectQuery, UnionAllQuery};
    use crate::types::{DataType, Value};
    use crate::view::{ViewDef, ViewSide};

    /// Build the Section 1.1 scenario: inproc + inproc_author.
    fn build_dblp_like(n_pubs: i64) -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let inproc = db
            .create_table(TableDef::new(
                "inproc",
                vec![
                    ColumnDef::new("ID", DataType::Int),
                    ColumnDef::new("PID", DataType::Int),
                    ColumnDef::new("title", DataType::Str),
                    ColumnDef::new("booktitle", DataType::Str),
                    ColumnDef::new("year", DataType::Int),
                ],
            ))
            .unwrap();
        let author = db
            .create_table(TableDef::new(
                "inproc_author",
                vec![
                    ColumnDef::new("ID", DataType::Int),
                    ColumnDef::new("PID", DataType::Int),
                    ColumnDef::new("author", DataType::Str),
                ],
            ))
            .unwrap();
        let mut author_id = 0i64;
        for i in 0..n_pubs {
            let conf = format!("CONF{}", i % 50);
            db.insert(
                inproc,
                vec![
                    Value::Int(i),
                    Value::Int(0),
                    Value::str(format!("Paper {i}")),
                    Value::str(conf),
                    Value::Int(1960 + i % 45),
                ],
            )
            .unwrap();
            for a in 0..=(i % 3) {
                db.insert(
                    author,
                    vec![
                        Value::Int(author_id),
                        Value::Int(i),
                        Value::str(format!("Author {a}")),
                    ],
                )
                .unwrap();
                author_id += 1;
            }
        }
        db.analyze().unwrap();
        (db, inproc, author)
    }

    fn paper_query(inproc: TableId, author: TableId) -> SqlQuery {
        let mut first = SelectQuery::single(inproc);
        first.outputs = vec![
            Output::col(0, 0),
            Output::col(0, 2),
            Output::col(0, 4),
            Output::Null(DataType::Str),
        ];
        first.filters = vec![Filter::new(0, 3, FilterOp::Eq, Value::str("CONF7"))];
        let mut second = SelectQuery::single(inproc);
        second.tables.push(author);
        second.joins.push(JoinCond {
            left_ref: 0,
            left_col: 0,
            right_ref: 1,
            right_col: 1,
        });
        second.filters = vec![Filter::new(0, 3, FilterOp::Eq, Value::str("CONF7"))];
        second.outputs = vec![
            Output::col(0, 0),
            Output::Null(DataType::Str),
            Output::Null(DataType::Int),
            Output::col(1, 2),
        ];
        SqlQuery::Union(UnionAllQuery {
            branches: vec![first, second],
            order_by: vec![0],
        })
    }

    #[test]
    fn end_to_end_without_indexes() {
        let (db, inproc, author) = build_dblp_like(500);
        let outcome = db.execute(&paper_query(inproc, author)).unwrap();
        // 10 pubs match CONF7 (i%50==7): first branch 10 rows; second branch
        // sum of authors for those pubs.
        let first_rows = outcome.rows.iter().filter(|r| !r[1].is_null()).count();
        assert_eq!(first_rows, 10);
        assert!(outcome.exec.measured_cost() > 0.0);
    }

    #[test]
    fn results_sorted_by_id() {
        let (db, inproc, author) = build_dblp_like(500);
        let outcome = db.execute(&paper_query(inproc, author)).unwrap();
        let ids: Vec<_> = outcome.rows.iter().map(|r| r[0].clone()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn indexes_reduce_measured_cost() {
        let (mut db, inproc, author) = build_dblp_like(2_000);
        let query = paper_query(inproc, author);
        let plain = db.execute(&query).unwrap();

        let config = PhysicalConfig {
            indexes: vec![
                IndexDef::new("ix_conf", inproc, vec![3], vec![0, 2, 4]),
                IndexDef::new("ix_pid", author, vec![1], vec![0, 2]),
            ],
            views: vec![],
        };
        db.apply_config(&config).unwrap();
        let indexed = db.execute(&query).unwrap();
        assert_eq!(plain.rows, indexed.rows);
        assert!(
            indexed.exec.measured_cost() < plain.exec.measured_cost(),
            "indexed={} plain={}",
            indexed.exec.measured_cost(),
            plain.exec.measured_cost()
        );
    }

    #[test]
    fn estimate_tracks_execution_direction() {
        let (db, inproc, author) = build_dblp_like(2_000);
        let query = paper_query(inproc, author);
        let none = db.estimate(&query, &PhysicalConfig::none()).unwrap();
        let config = PhysicalConfig {
            indexes: vec![
                IndexDef::new("ix_conf", inproc, vec![3], vec![0, 2, 4]),
                IndexDef::new("ix_pid", author, vec![1], vec![0, 2]),
            ],
            views: vec![],
        };
        let with = db.estimate(&query, &config).unwrap();
        assert!(with.est_cost < none.est_cost);
    }

    #[test]
    fn view_execution_matches_pipeline() {
        let (mut db, inproc, author) = build_dblp_like(300);
        let query = paper_query(inproc, author);
        let plain = db.execute(&query).unwrap();
        let view = ViewDef {
            name: "v_ia".into(),
            left: inproc,
            right: author,
            left_col: 0,
            right_col: 1,
            outputs: vec![
                (ViewSide::Left, 0),
                (ViewSide::Left, 3),
                (ViewSide::Right, 2),
            ],
        };
        db.apply_config(&PhysicalConfig {
            indexes: vec![],
            views: vec![view],
        })
        .unwrap();
        let viewed = db.execute(&query).unwrap();
        assert_eq!(plain.rows, viewed.rows);
    }

    #[test]
    fn derived_stats_are_respected() {
        let (mut db, inproc, _) = build_dblp_like(100);
        let mut fake = db.table_stats(inproc).clone();
        fake.rows = 1_000_000;
        db.set_table_stats(inproc, fake).unwrap();
        assert_eq!(db.table_stats(inproc).rows, 1_000_000);
    }

    #[test]
    fn clear_config_removes_structures() {
        let (mut db, inproc, _) = build_dblp_like(100);
        db.apply_config(&PhysicalConfig {
            indexes: vec![IndexDef::new("ix", inproc, vec![3], vec![])],
            views: vec![],
        })
        .unwrap();
        assert!(db.built_index("ix").is_ok());
        db.clear_config().unwrap();
        assert!(db.built_index("ix").is_err());
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let (mut db, inproc, _) = build_dblp_like(10);
        let config = PhysicalConfig {
            indexes: vec![
                IndexDef::new("ix", inproc, vec![3], vec![]),
                IndexDef::new("ix", inproc, vec![4], vec![]),
            ],
            views: vec![],
        };
        assert!(db.apply_config(&config).is_err());
    }

    #[test]
    fn data_bytes_positive() {
        let (db, ..) = build_dblp_like(100);
        assert!(db.data_bytes() > 0);
        assert!(db.config_bytes(&PhysicalConfig::none()) == 0.0);
    }

    #[test]
    fn built_bytes_measures_structures_not_estimates() {
        // Regression: `built_bytes` claimed "actual bytes" while summing
        // the optimizer's `estimated_bytes`. A covering index with wide
        // included string columns makes the two diverge sharply — the
        // estimate charges title+booktitle widths for every row, but the
        // built B-tree stores only keys and row pointers.
        let (mut db, inproc, _) = build_dblp_like(500);
        db.apply_config(&PhysicalConfig {
            indexes: vec![IndexDef::new("wide", inproc, vec![4], vec![2, 3])],
            views: vec![],
        })
        .unwrap();
        let actual = db.built_bytes();
        let estimated = db.config_bytes(db.built_config()) as usize;
        assert_eq!(actual, db.built_index("wide").unwrap().byte_size());
        assert!(
            estimated > 2 * actual,
            "estimate {estimated} should dwarf actual {actual} for a wide covering index"
        );
        // The narrow version of the same index: the estimate no longer
        // carries the included columns, so the gap collapses.
        db.apply_config(&PhysicalConfig {
            indexes: vec![IndexDef::new("narrow", inproc, vec![4], vec![])],
            views: vec![],
        })
        .unwrap();
        assert!((db.config_bytes(db.built_config()) as usize) < estimated / 2);
    }

    #[test]
    fn foreign_table_id_is_an_error_not_a_panic() {
        let (mut db, ..) = build_dblp_like(10);
        let bogus = TableId(99);
        assert!(db.insert(bogus, vec![Value::Int(1)]).is_err());
        assert!(db.try_heap(bogus).is_err());
        assert!(db
            .apply_config(&PhysicalConfig {
                indexes: vec![IndexDef::new("ix", bogus, vec![0], vec![])],
                views: vec![],
            })
            .is_err());
        db.analyze_table(bogus).unwrap(); // no-op, no panic
    }

    #[test]
    fn storage_faults_surface_as_errors() {
        use crate::fault::FaultConfig;
        let (mut db, inproc, author) = build_dblp_like(500);
        db.set_fault_config(FaultConfig {
            seed: 11,
            p_storage: 1.0,
            ..FaultConfig::default()
        });
        let err = db.execute(&paper_query(inproc, author)).unwrap_err();
        assert!(err.is_transient(), "unexpected error: {err:?}");
        db.clear_fault_config();
        assert!(db.execute(&paper_query(inproc, author)).is_ok());
    }

    #[test]
    fn page_budget_exhaustion_surfaces() {
        use crate::fault::FaultConfig;
        let (mut db, inproc, author) = build_dblp_like(2_000);
        db.set_fault_config(FaultConfig {
            seed: 0,
            budget_pages: Some(1),
            ..FaultConfig::default()
        });
        let err = db.execute(&paper_query(inproc, author)).unwrap_err();
        assert!(matches!(err, RelError::ResourceExhausted(_)));
    }

    #[test]
    fn corrupted_heap_detected_under_fault_plane() {
        use crate::fault::FaultConfig;
        let (mut db, inproc, author) = build_dblp_like(500);
        // Without a fault plane the checksum walk is skipped entirely.
        db.heap_mut(inproc).unwrap().corrupt_row(42);
        assert!(db.execute(&paper_query(inproc, author)).is_ok());
        // With any active plane (even a large page budget and zero fault
        // probabilities), checksums are verified on access.
        db.set_fault_config(FaultConfig {
            seed: 0,
            budget_pages: Some(u64::MAX),
            ..FaultConfig::default()
        });
        let err = db.execute(&paper_query(inproc, author)).unwrap_err();
        assert!(matches!(err, RelError::Corrupted { .. }), "got {err:?}");
    }

    #[test]
    fn fault_free_execution_is_unchanged_by_inert_config() {
        use crate::fault::FaultConfig;
        let (mut db, inproc, author) = build_dblp_like(300);
        let plain = db.execute(&paper_query(inproc, author)).unwrap();
        db.set_fault_config(FaultConfig::default());
        assert!(db.fault_plane().is_none());
        let after = db.execute(&paper_query(inproc, author)).unwrap();
        assert_eq!(plain.rows, after.rows);
    }

    // ---------------------------------------------------- durability ----

    use crate::fault::{CrashKind, CrashPoint};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("xmlshred-db-{tag}-{}-{n}", std::process::id()))
    }

    fn small_def() -> TableDef {
        TableDef::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Str).nullable(),
            ],
        )
    }

    #[test]
    fn durable_reopen_replays_everything() {
        let dir = temp_dir("reopen");
        let t = {
            let mut db = Database::create_durable(&dir).unwrap();
            let t = db.create_table(small_def()).unwrap();
            for i in 0..200 {
                db.insert(t, vec![Value::Int(i), Value::str(format!("r{i}"))])
                    .unwrap();
            }
            db.analyze().unwrap();
            db.apply_config(&PhysicalConfig {
                indexes: vec![IndexDef::new("ix_id", t, vec![0], vec![])],
                views: vec![],
            })
            .unwrap();
            t
        };
        let (db, report) = Database::open_durable(&dir).unwrap();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.frames_discarded, 0);
        assert_eq!(report.frames_replayed, 203);
        assert_eq!(report.indexes_rebuilt, 1);
        assert_eq!(db.heap(t).len(), 200);
        assert!(db.built_index("ix_id").is_ok());
        assert_eq!(db.table_stats(t).rows, 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_log_and_reopen_matches() {
        let dir = temp_dir("ckpt");
        {
            let mut db = Database::create_durable(&dir).unwrap();
            let t = db.create_table(small_def()).unwrap();
            for i in 0..100 {
                db.insert(t, vec![Value::Int(i), Value::Null]).unwrap();
            }
            db.analyze().unwrap();
            let before = db.wal_stats().unwrap().bytes_written;
            db.checkpoint().unwrap();
            assert!(before > 0);
            // Post-checkpoint mutations extend the fresh log.
            for i in 100..120 {
                db.insert(t, vec![Value::Int(i), Value::Null]).unwrap();
            }
        }
        let (db, report) = Database::open_durable(&dir).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.snapshot_lsn, 102);
        assert_eq!(report.frames_replayed, 20);
        assert_eq!(report.frames_skipped, 1, "checkpoint marker is skipped");
        let t = db.catalog().table_id("t").unwrap();
        assert_eq!(db.heap(t).len(), 120);
        assert_eq!(report.next_lsn, 122);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_crash_recovers_committed_prefix() {
        let dir = temp_dir("torn");
        let committed = {
            let mut db = Database::create_durable(&dir).unwrap();
            let t = db.create_table(small_def()).unwrap();
            db.set_crash_point(Some(CrashPoint {
                after_writes: 6,
                kind: CrashKind::TornTail,
                seed: 7,
            }))
            .unwrap();
            let mut committed = 0u64;
            for i in 0..50 {
                match db.insert(t, vec![Value::Int(i), Value::Null]) {
                    Ok(()) => committed += 1,
                    Err(RelError::Crashed(_)) => break,
                    Err(other) => panic!("unexpected error: {other:?}"),
                }
            }
            // Every further durable mutation also fails until reopen.
            assert!(matches!(
                db.insert(t, vec![Value::Int(99), Value::Null]),
                Err(RelError::Crashed(_))
            ));
            committed
        };
        let (db, report) = Database::open_durable(&dir).unwrap();
        // The torn fragment's length is seed-dependent: shorter than one
        // frame header it is an incomplete tail, otherwise a corrupt frame.
        assert_eq!(
            report.frames_discarded + u64::from(report.tail_incomplete),
            1,
            "the torn tail is dropped and classified exactly once: {report:?}"
        );
        assert!(report.bytes_discarded > 0);
        let t = db.catalog().table_id("t").unwrap();
        assert_eq!(db.heap(t).len() as u64, committed);
        // The torn tail was truncated: appends after reopen are durable.
        drop(db);
        let (mut db, _) = Database::open_durable(&dir).unwrap();
        let t = db.catalog().table_id("t").unwrap();
        db.insert(t, vec![Value::Int(1000), Value::Null]).unwrap();
        let (db, report) = Database::open_durable(&dir).unwrap();
        assert_eq!(report.frames_discarded, 0);
        let t = db.catalog().table_id("t").unwrap();
        assert_eq!(db.heap(t).len() as u64, committed + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_crash_is_detected_and_discarded() {
        let dir = temp_dir("flip");
        {
            let mut db = Database::create_durable(&dir).unwrap();
            let t = db.create_table(small_def()).unwrap();
            db.set_crash_point(Some(CrashPoint {
                after_writes: 4,
                kind: CrashKind::BitFlip,
                seed: 3,
            }))
            .unwrap();
            for i in 0..20 {
                if db.insert(t, vec![Value::Int(i), Value::Null]).is_err() {
                    break;
                }
            }
        }
        let (db, report) = Database::open_durable(&dir).unwrap();
        assert_eq!(report.frames_discarded, 1, "flipped frame fails its CRC");
        let t = db.catalog().table_id("t").unwrap();
        assert_eq!(db.heap(t).len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_during_checkpoint_marker_keeps_old_state() {
        let dir = temp_dir("ckpt-crash");
        {
            let mut db = Database::create_durable(&dir).unwrap();
            let t = db.create_table(small_def()).unwrap();
            for i in 0..30 {
                db.insert(t, vec![Value::Int(i), Value::Null]).unwrap();
            }
            // Crash on the very next append: the checkpoint marker itself.
            db.set_crash_point(Some(CrashPoint {
                after_writes: 0,
                kind: CrashKind::Clean,
                seed: 1,
            }))
            .unwrap();
            let err = db.checkpoint().unwrap_err();
            assert!(matches!(err, RelError::Crashed(_)), "{err:?}");
            // The writer is dead process-wide now.
            assert!(matches!(
                db.insert(t, vec![Value::Int(99), Value::Null]),
                Err(RelError::Crashed(_))
            ));
        }
        let (db, report) = Database::open_durable(&dir).unwrap();
        // The snapshot was fully written before the marker append, so it
        // loads; the old log's frames are all below its next_lsn.
        assert!(report.snapshot_loaded);
        assert_eq!(report.frames_replayed, 0);
        let t = db.catalog().table_id("t").unwrap();
        assert_eq!(db.heap(t).len(), 30);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejected_batch_is_never_logged() {
        let dir = temp_dir("reject");
        {
            let mut db = Database::create_durable(&dir).unwrap();
            let t = db.create_table(small_def()).unwrap();
            db.insert(t, vec![Value::Int(1), Value::Null]).unwrap();
            // Second row of the batch is invalid: nothing may be applied
            // or logged.
            let err = db
                .insert_rows(
                    t,
                    vec![
                        vec![Value::Int(2), Value::Null],
                        vec![Value::str("wrong"), Value::Null],
                    ],
                )
                .unwrap_err();
            assert!(matches!(err, RelError::SchemaMismatch(_)));
            assert_eq!(db.heap(t).len(), 1);
        }
        let (db, report) = Database::open_durable(&dir).unwrap();
        let t = db.catalog().table_id("t").unwrap();
        assert_eq!(db.heap(t).len(), 1);
        assert_eq!(report.frames_discarded, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_is_deterministic_and_thread_invariant() {
        let dir = temp_dir("det");
        {
            let mut db = Database::create_durable(&dir).unwrap();
            let t = db.create_table(small_def()).unwrap();
            db.set_crash_point(Some(CrashPoint {
                after_writes: 9,
                kind: CrashKind::TornTail,
                seed: 42,
            }))
            .unwrap();
            for i in 0..40 {
                if db
                    .insert(t, vec![Value::Int(i), Value::str(format!("n{i}"))])
                    .is_err()
                {
                    break;
                }
            }
        }
        // `recover` is read-only: the same directory bytes must yield the
        // same report and rows, however many times it runs.
        let (db1, report1) = crate::recovery::recover(&dir).unwrap();
        let (db2, report2) = crate::recovery::recover(&dir).unwrap();
        assert_eq!(report1, report2);
        assert_eq!(
            report1.frames_discarded + u64::from(report1.tail_incomplete),
            1
        );
        let t = db1.catalog().table_id("t").unwrap();
        assert_eq!(db1.heap(t).rows(), db2.heap(t).rows());
        // A full open truncates the torn tail; the database it produces
        // matches, and executor thread count changes nothing.
        let (mut db3, report3) = Database::open_durable(&dir).unwrap();
        assert_eq!(report3.frames_replayed, report1.frames_replayed);
        db3.set_exec_options(ExecOptions {
            threads: 4,
            ..ExecOptions::default()
        });
        assert_eq!(db1.heap(t).rows(), db3.heap(t).rows());
        // After truncation the report is clean but the data identical.
        let (db4, report4) = Database::open_durable(&dir).unwrap();
        assert_eq!(report4.frames_discarded, 0);
        assert_eq!(report4.frames_replayed, report1.frames_replayed);
        assert_eq!(db1.heap(t).rows(), db4.heap(t).rows());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_backing_heap_detected_at_config_build() {
        use crate::fault::FaultConfig;
        // Satellite regression: materialized-view (re)builds must verify
        // their backing heaps' checksums instead of silently materializing
        // corrupted rows into a structure that carries no checksums.
        let (mut db, inproc, author) = build_dblp_like(300);
        db.heap_mut(author).unwrap().corrupt_row(17);
        let config = PhysicalConfig {
            indexes: vec![],
            views: vec![ViewDef {
                name: "v_bad".into(),
                left: inproc,
                right: author,
                left_col: 0,
                right_col: 1,
                outputs: vec![(ViewSide::Left, 2), (ViewSide::Right, 2)],
            }],
        };
        // Without a fault plane the walk is skipped (performance posture
        // matches the executor's).
        db.apply_config(&config).unwrap();
        db.clear_config().unwrap();
        db.set_fault_config(FaultConfig {
            seed: 0,
            budget_pages: Some(u64::MAX),
            ..FaultConfig::default()
        });
        let err = db.apply_config(&config).unwrap_err();
        assert!(matches!(err, RelError::Corrupted { .. }), "got {err:?}");
        // The rejected configuration left no partial structures behind.
        assert!(db.built_view("v_bad").is_err());
    }

    #[test]
    fn stale_plan_rejected_after_config_swap() {
        // Satellite regression: a configuration swap landing between a
        // statement's plan and execute must fail the statement with a
        // transient error, never send the executor into a dropped
        // structure.
        let (mut db, inproc, author) = build_dblp_like(200);
        let config = PhysicalConfig {
            indexes: vec![IndexDef::new("ix_year", inproc, vec![4], vec![])],
            views: vec![],
        };
        db.apply_config(&config).unwrap();
        let query = paper_query(inproc, author);
        let plan = db.plan(&query).unwrap();
        assert_eq!(plan.epoch, db.config_epoch());
        // Seeded swap point: the configuration is cleared after planning
        // but before execution — exactly the race an online swap creates.
        db.clear_config().unwrap();
        let err = db.execute_plan(plan.clone()).unwrap_err();
        assert!(matches!(err, RelError::StalePlan { .. }), "got {err:?}");
        assert!(err.is_transient());
        // Replanning against the current epoch succeeds.
        let fresh = db.plan(&query).unwrap();
        assert_ne!(fresh.epoch, plan.epoch);
        let outcome = db.execute_plan(fresh).unwrap();
        assert_eq!(outcome.rows, db.execute(&query).unwrap().rows);
        // Re-applying a configuration bumps the epoch again, so even a
        // swap back to the *same* design invalidates in-flight plans.
        let pinned = db.plan(&query).unwrap();
        db.apply_config(&config).unwrap();
        assert!(matches!(
            db.execute_plan(pinned).unwrap_err(),
            RelError::StalePlan { .. }
        ));
    }

    #[test]
    fn view_output_columns_validated() {
        let (mut db, inproc, author) = build_dblp_like(10);
        let config = PhysicalConfig {
            indexes: vec![],
            views: vec![ViewDef {
                name: "v_oob".into(),
                left: inproc,
                right: author,
                left_col: 0,
                right_col: 1,
                outputs: vec![(ViewSide::Right, 99)],
            }],
        };
        let err = db.apply_config(&config).unwrap_err();
        assert!(matches!(err, RelError::UnknownColumn { .. }), "got {err:?}");
    }
}
