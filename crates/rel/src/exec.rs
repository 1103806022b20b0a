//! Morsel-driven plan execution with I/O and CPU accounting.
//!
//! Execution is vector-at-a-time over the in-memory heaps. Because the data
//! lives in RAM, raw wall-clock time would not reflect the I/O behaviour the
//! paper measures on a disk-resident database; the executor therefore also
//! charges *measured cost units* — the same page/tuple constants as the cost
//! model, but applied to the **actual** row and page counts the plan touched
//! (not the optimizer's estimates). Quality figures in the benchmarks report
//! these measured units; EXPERIMENTS.md documents the substitution.
//!
//! # Parallelism and determinism
//!
//! Operators fan work out over fixed-size **morsels** — row ranges of the
//! heap (or of an index-seek match list) whose boundaries depend only on
//! [`ExecOptions::morsel_rows`], never on the thread count. Every operator
//! fans its morsels out through one helper, `fan_out`, over
//! [`crate::par::try_parallel_map`]; the per-morsel rows *and*
//! [`ExecStats`] partials are reduced serially in morsel order.
//! Floating-point accumulation order is therefore fixed, so results and
//! stats are bit-identical for any `threads` value.
//!
//! `fan_out` also keeps the deadline contract: `ctx.deadline` is the
//! fan-out's stop hook, so a morsel not started before it passes is never
//! started, and any unstarted morsel turns the whole fan-out into
//! [`RelError::Timeout`] after fan-in — no partial rows escape.
//!
//! The hash-join build runs as a parallel partitioned build: morsels first
//! assign build rows to a fixed number of hash partitions, then partitions
//! build their maps concurrently, visiting morsels in order so every
//! partition's insertion order equals the serial build's.
//!
//! The fault plane stays correct under parallelism by construction: page
//! budgets are charged and checksums verified **once per storage access,
//! before the fan-out** — never per worker. Index-nested-loop probes stay
//! serial because their storage gates draw fault tokens from the plane's
//! serial counter, whose sequence (and hence the injected-fault pattern)
//! must not depend on worker interleaving.

use crate::catalog::{TableDef, TableId};
use crate::cost::{
    sort_cost, BTREE_DESCENT_COST, CPU_HASH_COST, CPU_PRED_COST, CPU_TUPLE_COST, PAGE_SIZE,
    RANDOM_PAGE_COST, SEQ_PAGE_COST,
};
use crate::db::Database;
use crate::error::{RelError, RelResult, StructureKind};
use crate::expr::{Filter, FilterOp};
use crate::fault::FaultPlane;
use crate::index::{BuiltIndex, KeyRange};
use crate::par;
use crate::plan::{Access, BranchPlan, JoinAlgo, QueryPlan, ScanNode, ViewOutput};
use crate::sql::Output;
use crate::storage::TableHeap;
use crate::types::{Row, Value};
use crate::view::JoinSide;
use rustc_hash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Default rows per morsel: large enough to amortize dispatch, small enough
/// to load-balance skewed filters.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Number of hash-join build partitions. A constant (never derived from the
/// thread count) so the partition assignment — and with it the build's
/// insertion order — is identical for any parallelism degree.
const HASH_PARTITIONS: usize = 32;

/// Executor knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads for morsel execution (`0` = all cores, `1` = serial).
    pub threads: usize,
    /// Rows per morsel. Morsel boundaries depend only on this knob, so the
    /// per-morsel reduction order — and the bit pattern of every f64 stat —
    /// is the same for any thread count.
    pub morsel_rows: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }
}

impl ExecOptions {
    /// Default options with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads,
            ..ExecOptions::default()
        }
    }
}

/// Row-visibility horizon of one MVCC snapshot: for each table, how many
/// leading heap rows had committed when the snapshot was taken.
///
/// The engine's heaps are insert-only and commits append whole row batches
/// in commit-LSN order, so "every row version with `commit_lsn <=
/// snapshot_lsn`" is exactly a per-table row-count *prefix* — visibility
/// needs no per-row version column, just these watermarks. Scans under a
/// snapshot read `heap.rows()[..visible]`; index postings, join probes and
/// view rows (by their recorded positions) drop rows at or past the
/// watermark **before** any costing, so a snapshot execution's `ExecStats`
/// describe only the rows it could see.
///
/// Page-level accounting (I/O cost, fault-plane budget charges, checksum
/// verification) intentionally stays at the *live* heap's page count: the
/// snapshot reads through the same physical pages, and keeping the charge
/// schedule independent of the watermark preserves the deterministic fault
/// sequence across concurrent readers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotVisibility {
    /// The snapshot's start LSN (informational; visibility itself is fully
    /// captured by `visible`).
    pub lsn: u64,
    /// Visible row-count prefix per table, indexed by `TableId`. Tables
    /// created after the snapshot have no entry and read as empty.
    pub visible: Vec<usize>,
}

impl SnapshotVisibility {
    /// Rows of `table` visible at this snapshot (0 for tables created after
    /// the snapshot was taken).
    pub fn table_rows(&self, table: TableId) -> usize {
        self.visible.get(table.index()).copied().unwrap_or(0)
    }
}

/// Everything that varies per statement, as plain data: one value of this
/// type replaces what used to be a function-name suffix (`_snapshot`,
/// `_deadline`) on every layer from the session down to the executor.
/// Every statement plans with the engine's statistics. The default is the
/// library path: live rows, no deadline, no pending rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct StmtCtx<'a> {
    /// Execute under this MVCC snapshot: every table access is clamped to
    /// the snapshot's visible row prefix — heap rows and index postings by
    /// heap position, view rows by the two positions each records.
    pub snapshot: Option<&'a SnapshotVisibility>,
    /// Cooperative cancellation instant: the executor polls it at operator
    /// starts, morsel boundaries, and per-probe in index-nested-loop joins,
    /// raising [`RelError::Timeout`] once passed. A fired deadline aborts
    /// the statement wholesale — no partial rows escape — so results stay
    /// bit-identical across thread counts whenever the statement completes
    /// at all.
    pub deadline: Option<Instant>,
    /// Read-your-own-writes: the open transaction's buffered row batches,
    /// in statement order (a table may repeat). Every access path reads
    /// its clamped rows and then the pending rows of its tables, so the
    /// statement sees snapshot ++ own writes: a sequential scan or an index
    /// seek filters that table's batches as trailing morsels, an
    /// index-nested-loop join probes them by join key, and a view scan
    /// adds their delta join (`BuiltView::delta_join`).
    /// Pending rows live in no heap page and no physical structure: they
    /// charge tuples and CPU like heap rows but no pages (pages stay at the
    /// live heap, as for every snapshot read).
    pub pending: &'a [(TableId, Vec<Row>)],
}

impl<'a> StmtCtx<'a> {
    /// Raise [`RelError::Timeout`] if the deadline has passed. `site` is a
    /// stable label of the polling point, surfaced in the error.
    fn check_deadline(&self, site: &'static str) -> RelResult<()> {
        match self.deadline {
            Some(at) if Instant::now() >= at => Err(RelError::Timeout { site }),
            _ => Ok(()),
        }
    }

    /// The statement's pending rows of `table`, in statement order.
    fn pending_rows(&self, table: TableId) -> impl Iterator<Item = &'a Row> {
        let batches = self.pending.iter().filter(move |(t, _)| *t == table);
        batches.flat_map(|(_, rows)| rows)
    }

    /// The scannable prefix of a `len`-row structure of `table` (`len`
    /// itself when executing outside any snapshot).
    fn visible_rows(&self, table: TableId, len: usize) -> usize {
        match self.snapshot {
            None => len,
            Some(v) => v.table_rows(table).min(len),
        }
    }
}

/// Accounting of one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// I/O cost units actually incurred (pages x their seq/random weights).
    pub io_cost: f64,
    /// CPU cost units actually incurred.
    pub cpu_cost: f64,
    /// Tuples produced by the query.
    pub rows_out: usize,
    /// Tuples processed by all operators (scan inputs, probes, ...).
    pub tuples_processed: u64,
}

impl ExecStats {
    /// Total measured cost in cost units.
    pub fn measured_cost(&self) -> f64 {
        self.io_cost + self.cpu_cost
    }

    /// Fold another operator's accounting into this one. Callers must
    /// absorb in a fixed (plan) order so f64 accumulation is deterministic.
    fn absorb(&mut self, other: ExecStats) {
        self.io_cost += other.io_cost;
        self.cpu_cost += other.cpu_cost;
        self.rows_out += other.rows_out;
        self.tuples_processed += other.tuples_processed;
    }
}

/// Per-operator wall-clock timing. `count` is deterministic (a function of
/// the plan); `nanos` is wall-clock and must never be compared across runs.
#[derive(Debug, Clone)]
pub struct OperatorTiming {
    /// Operator name (`scan.seq`, `join.hash`, `sort`, ...).
    pub name: &'static str,
    /// Invocations.
    pub count: u64,
    /// Total wall-clock nanoseconds across invocations.
    pub nanos: u64,
}

/// How many leading/trailing morsel sizes [`MorselRows`] retains verbatim.
const MORSEL_ROWS_KEEP: usize = 16;

/// Bounded summary of the per-morsel input-row sequence. The profile used to
/// store every morsel's size in a `Vec<u64>`, which grew without bound on
/// long benchmark sweeps (one entry per morsel per operator per query); the
/// summary keeps exact count and sum plus the first and last
/// [`MORSEL_ROWS_KEEP`] sizes, and its [`MorselRows::merge`] reproduces
/// exactly what summarizing the concatenated sequence would produce — so the
/// deterministic fingerprint stays thread- and merge-order-stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MorselRows {
    /// Morsels observed.
    pub count: u64,
    /// Total input rows across all observed morsels.
    pub sum: u64,
    /// The first `MORSEL_ROWS_KEEP` morsel sizes, in dispatch order.
    pub first: Vec<u64>,
    /// The last `MORSEL_ROWS_KEEP` morsel sizes, in dispatch order.
    pub last: Vec<u64>,
}

impl MorselRows {
    fn push(&mut self, rows: u64) {
        self.count += 1;
        self.sum += rows;
        if self.first.len() < MORSEL_ROWS_KEEP {
            self.first.push(rows);
        }
        if self.last.len() == MORSEL_ROWS_KEEP {
            self.last.remove(0);
        }
        self.last.push(rows);
    }

    /// Fold `other` in as if its sequence had been pushed after this one's.
    fn merge(&mut self, other: &MorselRows) {
        self.count += other.count;
        self.sum += other.sum;
        for &rows in other
            .first
            .iter()
            .take(MORSEL_ROWS_KEEP.saturating_sub(self.first.len()))
        {
            self.first.push(rows);
        }
        if other.count >= MORSEL_ROWS_KEEP as u64 {
            self.last.clone_from(&other.last);
        } else {
            // `other` contributes fewer than KEEP sizes (all of them sit in
            // `other.last`); the concatenation's tail keeps the final
            // KEEP - other.count of ours in front of them.
            let keep = MORSEL_ROWS_KEEP - other.count as usize;
            let start = self.last.len().saturating_sub(keep);
            self.last.drain(..start);
            self.last.extend_from_slice(&other.last);
        }
    }

    fn render(&self) -> String {
        let join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        format!(
            "count:{},sum:{},first:[{}],last:[{}]",
            self.count,
            self.sum,
            join(&self.first),
            join(&self.last)
        )
    }
}

/// Execution profile of one plan run: morsel dispatch counts (deterministic)
/// plus per-operator span timers (counts deterministic, nanos wall-clock).
#[derive(Debug, Clone, Default)]
pub struct ExecProfile {
    /// Morsels dispatched to workers across all operators.
    pub morsels_dispatched: u64,
    /// Bounded summary of each dispatched morsel's input rows, in dispatch
    /// order.
    pub rows_per_morsel: MorselRows,
    /// Per-operator timings, in first-invocation order.
    pub operators: Vec<OperatorTiming>,
}

impl ExecProfile {
    fn record_op(&mut self, name: &'static str, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        match self.operators.iter_mut().find(|op| op.name == name) {
            Some(op) => {
                op.count += 1;
                op.nanos = op.nanos.saturating_add(nanos);
            }
            None => self.operators.push(OperatorTiming {
                name,
                count: 1,
                nanos,
            }),
        }
    }

    /// Fold another profile into this one (for aggregating across queries).
    /// Merge order must be fixed for the fingerprint to stay deterministic.
    pub fn merge(&mut self, other: &ExecProfile) {
        self.morsels_dispatched += other.morsels_dispatched;
        self.rows_per_morsel.merge(&other.rows_per_morsel);
        for op in &other.operators {
            match self.operators.iter_mut().find(|mine| mine.name == op.name) {
                Some(mine) => {
                    mine.count += op.count;
                    mine.nanos = mine.nanos.saturating_add(op.nanos);
                }
                None => self.operators.push(op.clone()),
            }
        }
    }

    /// Stable rendering of the profile's deterministic portion: morsel
    /// counts, the rows-per-morsel sequence, and operator invocation counts
    /// — everything except wall-clock nanoseconds. Bit-identical across
    /// thread counts.
    pub fn deterministic_fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "morsels={}", self.morsels_dispatched);
        let _ = writeln!(out, "rows_per_morsel={}", self.rows_per_morsel.render());
        for op in &self.operators {
            let _ = writeln!(out, "op {}={}", op.name, op.count);
        }
        out
    }
}

/// Fixed-size morsel boundaries over `len` rows, noted in `profile` as
/// dispatched. A pure function of `(len, morsel_rows)` — independent of the
/// thread count.
fn morsel_ranges(len: usize, opts: &ExecOptions, profile: &mut ExecProfile) -> Vec<Range<usize>> {
    let step = opts.morsel_rows.max(1);
    let mut out = Vec::with_capacity(len.div_ceil(step));
    let mut start = 0;
    while start < len {
        let end = (start + step).min(len);
        out.push(start..end);
        profile.morsels_dispatched += 1;
        profile.rows_per_morsel.push((end - start) as u64);
        start = end;
    }
    out
}

/// The executor's one fan-out: run `work` over `morsels` on
/// `opts.threads` workers and return the results in morsel order.
/// `ctx.deadline` is the stop hook — a morsel not started before it passes
/// is never started — and any unstarted morsel fails the whole fan-out
/// with [`RelError::Timeout`] at `site`, so no partial rows escape and a
/// statement that completes at all is bit-identical across thread counts.
fn fan_out<T: Sync, R: Send>(
    morsels: &[T],
    opts: &ExecOptions,
    ctx: &StmtCtx,
    site: &'static str,
    work: impl Fn(&T) -> R + Sync,
) -> RelResult<Vec<R>> {
    let expired = || ctx.deadline.is_some_and(|at| Instant::now() >= at);
    par::try_parallel_map(morsels, opts.threads, expired, || (), |_, _, m| work(m))
        .into_iter()
        .map(|slot| slot.ok_or(RelError::Timeout { site }))
        .collect()
}

/// Fan-in of a scan's `(rows, input rows)` morsel pieces: concatenate the
/// rows and charge each morsel's input at `per_row_cpu`, in morsel order so
/// the f64 accumulation order is fixed.
fn reduce_scan(pieces: Vec<(Vec<Row>, u64)>, per_row_cpu: f64, stats: &mut ExecStats) -> Vec<Row> {
    let mut out = Vec::with_capacity(pieces.iter().map(|(rows, _)| rows.len()).sum());
    for (rows, scanned) in pieces {
        out.extend(rows);
        stats.cpu_cost += scanned as f64 * per_row_cpu;
        stats.tuples_processed += scanned;
    }
    out
}

/// The postings path shared by index seeks and index-nested-loop probes,
/// first half: seek `key`, then — under a snapshot — drop postings past the
/// table's watermark before any costing, so invisible rows read no leaf
/// entries, fetch no heap pages and charge no budget.
fn seek_postings(built: &BuiltIndex, key: &KeyRange, ctx: &StmtCtx, table: TableId) -> Vec<u32> {
    let mut matched = built.seek(key);
    if let Some(v) = ctx.snapshot {
        let limit = v.table_rows(table);
        matched.retain(|&i| (i as usize) < limit);
    }
    matched
}

/// Second half of the postings path: the heap row a posting points at, or
/// a `Fault` for a dangling entry.
fn fetch_posting<'h>(
    heap: &'h TableHeap,
    posting: u32,
    table: &str,
    index: &str,
) -> RelResult<&'h Row> {
    heap.row(posting as usize).ok_or_else(|| {
        RelError::Fault(format!(
            "dangling index entry {posting} in '{table}' via '{index}'"
        ))
    })
}

/// Build-side partition of a join key: a pure function of the value, shared
/// by the partitioned build and the probe.
fn partition_of(key: &Value) -> usize {
    let mut hasher = FxHasher::default();
    key.hash(&mut hasher);
    (hasher.finish() as usize) % HASH_PARTITIONS
}

/// Execute a plan, returning rows, accounting, and the execution profile:
/// the executor's one entry point. Rows and [`ExecStats`] are bit-identical
/// for any `opts.threads` value. Under `ctx.snapshot` every table access is
/// clamped to the snapshot's visible row prefix (see [`SnapshotVisibility`]),
/// and `ctx.pending` rows follow the clamped ones (see [`StmtCtx::pending`]).
pub fn execute(
    db: &Database,
    plan: &QueryPlan,
    opts: &ExecOptions,
    ctx: &StmtCtx,
) -> RelResult<(Vec<Row>, ExecStats, ExecProfile)> {
    let mut profile = ExecProfile::default();
    let mut stats = ExecStats::default();
    let mut rows: Vec<Row> = Vec::new();
    let mut ledger = VerifyLedger::default();
    for branch in &plan.branches {
        ctx.check_deadline("branch")?;
        let (branch_rows, branch_stats) =
            execute_branch(db, branch, opts, ctx, &mut profile, &mut ledger)?;
        stats.absorb(branch_stats);
        rows.extend(branch_rows);
    }
    if !plan.order_by.is_empty() {
        ctx.check_deadline("sort")?;
        let sort_start = Instant::now();
        stats.cpu_cost += sort_cost(rows.len() as f64);
        let keys = plan.order_by.clone();
        rows.sort_by(|a, b| {
            for &k in &keys {
                let ord = a[k].total_cmp(&b[k]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        profile.record_op("sort", sort_start.elapsed());
    }
    stats.rows_out = rows.len();
    stats.cpu_cost += rows.len() as f64 * CPU_TUPLE_COST;
    Ok((rows, stats, profile))
}

/// Per-statement ledger of structures already checksum-verified, keyed by
/// `(kind, structure name)`. Branches execute serially, so one `&mut`
/// ledger threads through the whole statement without synchronization.
/// Deduplication is charge-safe: verification consumes neither budget
/// pages nor fault tokens, so skipping a repeat verify leaves every
/// fault-plane decision untouched.
#[derive(Default)]
struct VerifyLedger {
    seen: rustc_hash::FxHashSet<(StructureKind, String)>,
}

impl VerifyLedger {
    /// Run `verify` unless `(kind, name)` already passed this statement.
    /// Each successful verification is recorded on the plane, which is what
    /// the at-most-once audit tests observe.
    fn verify_once(
        &mut self,
        plane: &FaultPlane,
        kind: StructureKind,
        name: &str,
        verify: impl FnOnce() -> RelResult<()>,
    ) -> RelResult<()> {
        if !self.seen.insert((kind, name.to_string())) {
            return Ok(());
        }
        verify()?;
        plane.record_verification();
        Ok(())
    }
}

fn execute_branch(
    db: &Database,
    branch: &BranchPlan,
    opts: &ExecOptions,
    ctx: &StmtCtx,
    profile: &mut ExecProfile,
    ledger: &mut VerifyLedger,
) -> RelResult<(Vec<Row>, ExecStats)> {
    match branch {
        BranchPlan::Pipeline {
            tables,
            driver,
            joins,
            outputs,
            ..
        } => execute_pipeline(
            db, tables, driver, joins, outputs, opts, ctx, profile, ledger,
        ),
        BranchPlan::ViewScan {
            view,
            filters,
            outputs,
            ..
        } => execute_view_scan(db, view, filters, outputs, opts, ctx, profile, ledger),
    }
}

/// Occurrence layout inside a wide (concatenated) row.
struct Layout {
    /// occurrence ref -> (starting offset in the wide row, column count).
    offsets: FxHashMap<usize, (usize, usize)>,
    width: usize,
}

impl Layout {
    fn new() -> Self {
        Layout {
            offsets: FxHashMap::default(),
            width: 0,
        }
    }

    fn add(&mut self, table_ref: usize, columns: usize) {
        self.offsets.insert(table_ref, (self.width, columns));
        self.width += columns;
    }

    /// Wide-row slot of `(table_ref, column)`, or an error when the plan
    /// references an occurrence that was never joined in (or a column past
    /// its width).
    fn slot(&self, table_ref: usize, column: usize) -> RelResult<usize> {
        match self.offsets.get(&table_ref) {
            Some(&(offset, columns)) if column < columns => Ok(offset + column),
            _ => Err(RelError::InvalidQuery(format!(
                "plan references column {column} of unjoined or narrower occurrence {table_ref}"
            ))),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_pipeline(
    db: &Database,
    tables: &[TableId],
    driver: &ScanNode,
    joins: &[crate::plan::JoinNode],
    outputs: &[Output],
    opts: &ExecOptions,
    ctx: &StmtCtx,
    profile: &mut ExecProfile,
    ledger: &mut VerifyLedger,
) -> RelResult<(Vec<Row>, ExecStats)> {
    let mut stats = ExecStats::default();
    let mut layout = Layout::new();
    let &driver_table = tables.get(driver.table_ref).ok_or_else(|| {
        RelError::InvalidQuery(format!(
            "plan driver references table #{}",
            driver.table_ref
        ))
    })?;
    let driver_cols = db.catalog().try_table(driver_table)?.columns.len();
    layout.add(driver.table_ref, driver_cols);

    // Validate every join's occurrence, join-key column, and filter columns
    // against the catalog *before* any operator runs: a malformed plan must
    // surface as a typed error with zero charges — neither `ExecStats` cost
    // nor fault-plane page budget. (The hash-join arm used to charge its
    // build-side CPU before the join-key bounds check could fail.)
    let mut inners = Vec::with_capacity(joins.len());
    for join in joins {
        let &inner_table = tables.get(join.inner.table_ref).ok_or_else(|| {
            RelError::InvalidQuery(format!(
                "plan join references table #{}",
                join.inner.table_ref
            ))
        })?;
        let inner_def = db.catalog().try_table(inner_table)?;
        if join.inner_col >= inner_def.columns.len() {
            return Err(RelError::InvalidQuery(format!(
                "join key column {} out of bounds for '{}'",
                join.inner_col, inner_def.name
            )));
        }
        validate_filters(&join.inner.filters, inner_def)?;
        inners.push((inner_table, inner_def));
    }

    let (mut wide, driver_stats) = run_scan(db, driver_table, driver, opts, ctx, profile, ledger)?;
    stats.absorb(driver_stats);

    for (join, (inner_table, inner_def)) in joins.iter().zip(inners) {
        ctx.check_deadline("join")?;
        let outer_slot = layout.slot(join.outer_ref, join.outer_col)?;
        let next: Vec<Row> = match &join.algo {
            JoinAlgo::Hash => {
                let (inner_rows, scan_stats) =
                    run_scan(db, inner_table, &join.inner, opts, ctx, profile, ledger)?;
                stats.absorb(scan_stats);
                let join_start = Instant::now();
                stats.cpu_cost += inner_rows.len() as f64 * CPU_HASH_COST;
                stats.cpu_cost += wide.len() as f64 * CPU_HASH_COST;
                stats.tuples_processed += wide.len() as u64 + inner_rows.len() as u64;

                // Parallel partitioned build. Phase 1: morsels assign build
                // rows to HASH_PARTITIONS buckets. Phase 2: partitions build
                // their maps concurrently, visiting morsels in order, so each
                // key's match list carries row indexes in heap order — the
                // serial build's insertion order.
                let build_ranges = morsel_ranges(inner_rows.len(), opts, profile);
                let partitioned = fan_out(&build_ranges, opts, ctx, "build", |range| {
                    let mut parts: Vec<Vec<u32>> = vec![Vec::new(); HASH_PARTITIONS];
                    for i in range.clone() {
                        let key = &inner_rows[i][join.inner_col];
                        if !key.is_null() {
                            parts[partition_of(key)].push(i as u32);
                        }
                    }
                    parts
                })?;
                let part_ids: Vec<usize> = (0..HASH_PARTITIONS).collect();
                let tables_by_part = fan_out(&part_ids, opts, ctx, "build", |&p| {
                    let mut map: FxHashMap<Value, Vec<u32>> = FxHashMap::default();
                    for morsel in &partitioned {
                        for &i in &morsel[p] {
                            map.entry(inner_rows[i as usize][join.inner_col].clone())
                                .or_default()
                                .push(i);
                        }
                    }
                    map
                })?;

                // Probe in outer order, morselized; concatenating per-morsel
                // output in morsel order reproduces the serial probe's row
                // order exactly.
                let probe_ranges = morsel_ranges(wide.len(), opts, profile);
                let pieces = fan_out(&probe_ranges, opts, ctx, "probe", |range| {
                    // Pass 1: batch key extraction — hash every non-null
                    // probe key and record its partition, keeping the
                    // key-hashing loop tight over the morsel.
                    let mut probes: Vec<(u32, u8)> = Vec::with_capacity(range.len());
                    for (i, outer) in wide[range.clone()].iter().enumerate() {
                        let key = &outer[outer_slot];
                        if !key.is_null() {
                            probes.push(((range.start + i) as u32, partition_of(key) as u8));
                        }
                    }
                    // Pass 2: probe in extraction order, so per-morsel
                    // output order equals the row-at-a-time probe's.
                    let mut out = Vec::new();
                    for &(i, p) in &probes {
                        let outer = &wide[i as usize];
                        let key = &outer[outer_slot];
                        if let Some(matches) = tables_by_part[p as usize].get(key) {
                            for &m in matches {
                                let mut row = outer.clone();
                                row.extend(inner_rows[m as usize].iter().cloned());
                                out.push(row);
                            }
                        }
                    }
                    out
                })?;
                profile.record_op("join.hash", join_start.elapsed());
                pieces.concat()
            }
            JoinAlgo::IndexNestedLoop { index, covering } => {
                // Serial by design: every probe's storage gate draws a fault
                // token from the plane's serial counter, and the injected
                // fault sequence must not depend on worker interleaving.
                let join_start = Instant::now();
                let built = db.built_index(index)?;
                let heap = db.try_heap(inner_table)?;
                let entry_width = built
                    .def
                    .entry_width(inner_def, db.table_stats(inner_table));
                let plane = db.fault_plane();
                if let Some(plane) = plane {
                    ledger.verify_once(plane, StructureKind::Heap, &inner_def.name, || {
                        heap.verify_checksums(&inner_def.name)
                    })?;
                    // The index's postings drive every probe below; verify
                    // them up front (no budget, no tokens) so corruption is
                    // a typed event, not silently wrong join output.
                    ledger.verify_once(plane, StructureKind::Index, index, || {
                        built.verify_checksums(&inner_def.name)
                    })?;
                }
                // The inner table's pending rows, probed by join key.
                let mut pending: FxHashMap<&Value, Vec<&Row>> = FxHashMap::default();
                for row in ctx.pending_rows(inner_table) {
                    if !row[join.inner_col].is_null() {
                        pending.entry(&row[join.inner_col]).or_default().push(row);
                    }
                }
                let mut next = Vec::new();
                for outer in &wide {
                    // Per-probe deadline poll: INLJ is the one operator with
                    // no morsel boundaries (it stays serial for fault-token
                    // determinism), so cancellation hooks in here.
                    ctx.check_deadline("inlj")?;
                    let key = &outer[outer_slot];
                    if key.is_null() {
                        continue;
                    }
                    // Per-probe descent.
                    stats.io_cost += BTREE_DESCENT_COST * RANDOM_PAGE_COST;
                    let seek = KeyRange::eq(vec![key.clone()]);
                    let matched = seek_postings(built, &seek, ctx, inner_table);
                    stats.io_cost +=
                        (matched.len() as f64 * entry_width / PAGE_SIZE as f64) * SEQ_PAGE_COST;
                    if !covering {
                        stats.io_cost += matched.len() as f64 * RANDOM_PAGE_COST;
                    }
                    if let Some(plane) = plane {
                        // One descent page plus one page per fetched row.
                        plane.storage_gate(&inner_def.name, 1 + matched.len() as u64)?;
                    }
                    let own = pending.get(key).map_or(&[][..], Vec::as_slice);
                    let probed = matched.len() + own.len();
                    stats.cpu_cost += probed as f64 * CPU_TUPLE_COST;
                    stats.tuples_processed += probed as u64;
                    let fetched = matched
                        .iter()
                        .map(|&posting| fetch_posting(heap, posting, &inner_def.name, index));
                    for inner in fetched.chain(own.iter().map(|&row| Ok(row))) {
                        let inner = inner?;
                        stats.cpu_cost += join.inner.filters.len() as f64 * CPU_PRED_COST;
                        if passes_quiet(inner, &join.inner.filters) {
                            let mut row = outer.clone();
                            row.extend(inner.iter().cloned());
                            next.push(row);
                        }
                    }
                }
                profile.record_op("join.inlj", join_start.elapsed());
                next
            }
        };
        stats.cpu_cost += next.len() as f64 * CPU_TUPLE_COST;
        layout.add(join.inner.table_ref, inner_def.columns.len());
        wide = next;
    }

    // Resolve output slots once, then project per morsel.
    let mut out_slots: Vec<Option<usize>> = Vec::with_capacity(outputs.len());
    for output in outputs {
        out_slots.push(match output {
            Output::Col { table_ref, column } => Some(layout.slot(*table_ref, *column)?),
            Output::Null(_) => None,
        });
    }
    let project_start = Instant::now();
    let ranges = morsel_ranges(wide.len(), opts, profile);
    let pieces = fan_out(&ranges, opts, ctx, "project", |range| {
        wide[range.clone()]
            .iter()
            .map(|row| {
                out_slots
                    .iter()
                    .map(|slot| match slot {
                        Some(i) => row[*i].clone(),
                        None => Value::Null,
                    })
                    .collect::<Row>()
            })
            .collect::<Vec<Row>>()
    })?;
    profile.record_op("project", project_start.elapsed());
    Ok((pieces.concat(), stats))
}

/// Check every filter column against the table schema before row-at-a-time
/// evaluation, so a malformed plan is a typed error instead of an indexing
/// panic in the inner loop.
fn validate_filters(filters: &[Filter], def: &TableDef) -> RelResult<()> {
    for f in filters {
        if f.column >= def.columns.len() {
            return Err(RelError::UnknownColumn {
                table: def.name.clone(),
                column: format!("#{}", f.column),
            });
        }
    }
    Ok(())
}

/// Run one table access, returning full-width filtered rows and the access's
/// accounting.
fn run_scan(
    db: &Database,
    table: TableId,
    scan: &ScanNode,
    opts: &ExecOptions,
    ctx: &StmtCtx,
    profile: &mut ExecProfile,
    ledger: &mut VerifyLedger,
) -> RelResult<(Vec<Row>, ExecStats)> {
    let heap = db.try_heap(table)?;
    let table_def = db.catalog().try_table(table)?;
    validate_filters(&scan.filters, table_def)?;
    // Operator-start poll: an already-expired deadline must cancel before
    // any budget page is charged or fault token drawn, keeping timeouts
    // charge/token-neutral by construction on this path.
    ctx.check_deadline("scan")?;
    let plane = db.fault_plane();
    let mut stats = ExecStats::default();
    let per_row_cpu = CPU_TUPLE_COST + scan.filters.len() as f64 * CPU_PRED_COST;
    match &scan.access {
        Access::SeqScan => {
            let scan_start = Instant::now();
            // Gate once per access, before the fan-out: the page-budget
            // charge and the checksum walk must not scale with the worker
            // count.
            storage_access(
                plane,
                heap,
                &table_def.name,
                heap.pages() as u64,
                true,
                ledger,
            )?;
            stats.io_cost += heap.pages() as f64 * SEQ_PAGE_COST;
            // Under a snapshot only the visible prefix is scanned; pages are
            // still charged at the live heap (see `SnapshotVisibility`). The
            // statement's pending batches of this table follow as trailing
            // morsels: each source is cut at `morsel_rows` on its own, so
            // the boundaries — and the reduction order below — depend on
            // the data alone, never on the thread count.
            let visible = &heap.rows()[..ctx.visible_rows(table, heap.rows().len())];
            let pending = ctx.pending.iter().filter(|(t, _)| *t == table);
            let mut morsels: Vec<&[Row]> = Vec::new();
            for source in std::iter::once(visible).chain(pending.map(|(_, rows)| rows.as_slice())) {
                let ranges = morsel_ranges(source.len(), opts, profile);
                morsels.extend(ranges.into_iter().map(|range| &source[range]));
            }
            let pieces = fan_out(&morsels, opts, ctx, "scan", |morsel| {
                let out = morsel
                    .iter()
                    .filter(|row| passes_quiet(row, &scan.filters))
                    .cloned()
                    .collect();
                (out, morsel.len() as u64)
            })?;
            let result = reduce_scan(pieces, per_row_cpu, &mut stats);
            profile.record_op("scan.seq", scan_start.elapsed());
            Ok((result, stats))
        }
        Access::IndexSeek {
            index,
            key,
            covering,
        } => {
            let scan_start = Instant::now();
            let built = db.built_index(index)?;
            // Verify the index before trusting its postings (no budget, no
            // tokens): a damaged leaf must surface as a typed corruption
            // event rather than wrong or dangling row pointers.
            if let Some(plane) = plane {
                ledger.verify_once(plane, StructureKind::Index, index, || {
                    built.verify_checksums(&table_def.name)
                })?;
            }
            let matched = seek_postings(built, key, ctx, table);
            let entry_width = built.def.entry_width(table_def, db.table_stats(table));
            stats.io_cost += BTREE_DESCENT_COST * RANDOM_PAGE_COST;
            // Zero matches read no leaf entries: descent cost only, matching
            // `cost::index_seek_cost`'s proportional leaf-page charge.
            if !matched.is_empty() {
                stats.io_cost += ((matched.len() as f64 * entry_width / PAGE_SIZE as f64).max(1.0))
                    * SEQ_PAGE_COST;
            }
            let heap_pages = if *covering {
                0.0
            } else {
                crate::cost::pages_fetched(matched.len() as f64, heap.pages() as f64)
            };
            stats.io_cost += heap_pages * RANDOM_PAGE_COST;
            // The budget charge mirrors the costed I/O: one descent page
            // plus the Cardenas–Yao distinct heap pages (covering seeks
            // never touch the heap, so its checksums stay unverified).
            // Charging one page per matched *row* here used to exhaust
            // budgets for index plans the optimizer priced as cheap.
            let pages_touched = 1 + heap_pages.ceil() as u64;
            storage_access(
                plane,
                heap,
                &table_def.name,
                pages_touched,
                !covering,
                ledger,
            )?;
            // Resolve the postings before the fan-out, so a dangling entry
            // is a `Fault` even when the deadline stops the morsels. The
            // table's pending rows follow, filtered like the fetched ones.
            let fetched = matched
                .iter()
                .map(|&posting| fetch_posting(heap, posting, &table_def.name, index));
            let rows = fetched
                .chain(ctx.pending_rows(table).map(Ok))
                .collect::<RelResult<Vec<_>>>()?;
            let ranges = morsel_ranges(rows.len(), opts, profile);
            let pieces = fan_out(&ranges, opts, ctx, "scan", |range| {
                let slice = &rows[range.clone()];
                let out = slice.iter().filter(|r| passes_quiet(r, &scan.filters));
                (out.map(|&r| r.clone()).collect(), range.len() as u64)
            })?;
            let result = reduce_scan(pieces, per_row_cpu, &mut stats);
            profile.record_op("scan.index", scan_start.elapsed());
            Ok((result, stats))
        }
    }
}

/// Gate one heap access through the fault plane (when active): charge the
/// page budget, roll for an injected read fault, and — for accesses that
/// actually read heap rows — verify the page checksums (at most once per
/// statement, via the ledger). Called exactly once per storage access,
/// before any morsel fan-out.
fn storage_access(
    plane: Option<&FaultPlane>,
    heap: &TableHeap,
    table: &str,
    pages: u64,
    reads_heap_rows: bool,
    ledger: &mut VerifyLedger,
) -> RelResult<()> {
    let Some(plane) = plane else {
        return Ok(());
    };
    plane.storage_gate(table, pages)?;
    if reads_heap_rows {
        ledger.verify_once(plane, StructureKind::Heap, table, || {
            heap.verify_checksums(table)
        })?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn execute_view_scan(
    db: &Database,
    view: &str,
    filters: &[(usize, FilterOp, Value)],
    outputs: &[ViewOutput],
    opts: &ExecOptions,
    ctx: &StmtCtx,
    profile: &mut ExecProfile,
    ledger: &mut VerifyLedger,
) -> RelResult<(Vec<Row>, ExecStats)> {
    let built = db.built_view(view)?;
    let width = built.def.outputs.len();
    if let Some(&(bad, ..)) = filters.iter().find(|(col, ..)| *col >= width) {
        return Err(RelError::UnknownColumn {
            table: view.to_string(),
            column: format!("#{bad}"),
        });
    }
    if let Some(bad) = outputs.iter().find_map(|o| match o {
        ViewOutput::Col(c) if *c >= width => Some(*c),
        _ => None,
    }) {
        return Err(RelError::UnknownColumn {
            table: view.to_string(),
            column: format!("#{bad}"),
        });
    }
    let scan_start = Instant::now();
    if let Some(plane) = db.fault_plane() {
        plane.storage_gate(view, built.pages() as u64)?;
        // The materialization carries its own page checksums (its backing
        // heaps were already verified at build time); verify them before
        // returning any materialized row, at most once per statement.
        let left_table = db.catalog().try_table(built.def.left)?.name.clone();
        ledger.verify_once(plane, StructureKind::View, view, || {
            built.verify_checksums(&left_table)
        })?;
    }
    let mut stats = ExecStats::default();
    stats.io_cost += built.pages() as f64 * SEQ_PAGE_COST;
    let per_row_cpu = CPU_TUPLE_COST + filters.len() as f64 * CPU_PRED_COST;
    // The rows the snapshot sees (both positions below the watermarks),
    // then the delta join the statement's pending rows add.
    let side = |table: TableId| {
        let rows = db.try_heap(table)?.rows();
        let visible = ctx.visible_rows(table, rows.len());
        Ok::<_, RelError>(JoinSide::new(
            rows,
            visible,
            ctx.pending_rows(table).collect(),
        ))
    };
    let (left, right) = (side(built.def.left)?, side(built.def.right)?);
    let pending = built.delta_join(&left, &right);
    let visible = (built.rows.iter())
        .filter(|(&(l, r), _)| (l as usize) < left.old && (r as usize) < right.old)
        .map(|(_, row)| row);
    let rows: Vec<&Row> = visible.chain(pending.iter().map(|(_, row)| row)).collect();
    let ranges = morsel_ranges(rows.len(), opts, profile);
    let pieces = fan_out(&ranges, opts, ctx, "view", |range| {
        let mut out: Vec<Row> = Vec::new();
        for row in &rows[range.clone()] {
            if filters
                .iter()
                .all(|(col, op, value)| op.eval(&row[*col], value))
            {
                out.push(
                    outputs
                        .iter()
                        .map(|o| match o {
                            ViewOutput::Col(c) => row[*c].clone(),
                            ViewOutput::Null(_) => Value::Null,
                        })
                        .collect(),
                );
            }
        }
        (out, range.len() as u64)
    })?;
    let result = reduce_scan(pieces, per_row_cpu, &mut stats);
    profile.record_op("view.scan", scan_start.elapsed());
    Ok((result, stats))
}

fn passes_quiet(row: &Row, filters: &[Filter]) -> bool {
    filters.iter().all(|f| f.op.eval(&row[f.column], &f.value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, TableDef};
    use crate::db::Database;
    use crate::fault::FaultConfig;
    use crate::index::{IndexDef, KeyRange};
    use crate::optimizer::PhysicalConfig;
    use crate::plan::JoinNode;
    use crate::sql::{JoinCond, Output, SelectQuery, SqlQuery};
    use crate::types::DataType;

    fn db_with_index(covering: bool) -> (Database, crate::catalog::TableId) {
        let mut db = Database::new();
        let t = db
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("ID", DataType::Int),
                    ColumnDef::new("grp", DataType::Int),
                    ColumnDef::new("payload", DataType::Str),
                ],
            ))
            .unwrap();
        for i in 0..5_000i64 {
            db.insert(
                t,
                vec![
                    Value::Int(i),
                    Value::Int(i % 500),
                    Value::str("x".repeat(60)),
                ],
            )
            .unwrap();
        }
        db.analyze().unwrap();
        let includes = if covering { vec![0, 2] } else { vec![] };
        db.apply_config(&PhysicalConfig {
            indexes: vec![IndexDef::new("ix", t, vec![1], includes)],
            views: vec![],
        })
        .unwrap();
        (db, t)
    }

    /// A statement context whose deadline has already passed.
    fn expired() -> StmtCtx<'static> {
        StmtCtx {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..StmtCtx::default()
        }
    }

    fn grp_query(t: crate::catalog::TableId) -> SqlQuery {
        let mut q = SelectQuery::single(t);
        q.filters = vec![Filter::new(0, 1, crate::expr::FilterOp::Eq, Value::Int(7))];
        q.outputs = vec![Output::col(0, 0), Output::col(0, 2)];
        SqlQuery::Select(q)
    }

    #[test]
    fn covering_access_charges_less_io() {
        let (db_narrow, t1) = db_with_index(false);
        let (db_covering, t2) = db_with_index(true);
        let narrow = db_narrow.execute(&grp_query(t1)).unwrap();
        let covering = db_covering.execute(&grp_query(t2)).unwrap();
        assert_eq!(narrow.rows.len(), covering.rows.len());
        assert_eq!(narrow.rows.len(), 10);
        // The plans must both use the index; the covering variant skips the
        // random heap fetches.
        assert!(covering.exec.io_cost < narrow.exec.io_cost);
    }

    #[test]
    fn seq_scan_charges_heap_pages() {
        let (db, t) = db_with_index(false);
        db.built_index("ix").unwrap();
        // Query without a sargable predicate: forced scan.
        let mut q = SelectQuery::single(t);
        q.filters = vec![Filter::new(0, 1, crate::expr::FilterOp::Ne, Value::Int(7))];
        q.outputs = vec![Output::col(0, 0)];
        let outcome = db.execute(&SqlQuery::Select(q)).unwrap();
        let pages = db.heap(t).pages() as f64;
        assert!(
            outcome.exec.io_cost >= pages,
            "io {} < pages {pages}",
            outcome.exec.io_cost
        );
        assert_eq!(outcome.exec.rows_out, 5_000 - 10);
    }

    #[test]
    fn inlj_and_hash_join_agree_and_charge_differently() {
        let mut db = Database::new();
        let parent = db
            .create_table(TableDef::new(
                "p",
                vec![
                    ColumnDef::new("ID", DataType::Int),
                    ColumnDef::new("grp", DataType::Int),
                ],
            ))
            .unwrap();
        let child = db
            .create_table(TableDef::new(
                "c",
                vec![
                    ColumnDef::new("ID", DataType::Int),
                    ColumnDef::new("PID", DataType::Int),
                ],
            ))
            .unwrap();
        for i in 0..2_000i64 {
            db.insert(parent, vec![Value::Int(i), Value::Int(i % 1000)])
                .unwrap();
            db.insert(child, vec![Value::Int(10_000 + i), Value::Int(i % 2_000)])
                .unwrap();
        }
        db.analyze().unwrap();
        let mut q = SelectQuery::single(parent);
        q.tables.push(child);
        q.joins.push(JoinCond {
            left_ref: 0,
            left_col: 0,
            right_ref: 1,
            right_col: 1,
        });
        q.filters = vec![Filter::new(0, 1, crate::expr::FilterOp::Eq, Value::Int(3))];
        q.outputs = vec![Output::col(0, 0), Output::col(1, 0)];
        let query = SqlQuery::Select(q);

        let hash = db.execute(&query).unwrap();
        db.apply_config(&PhysicalConfig {
            indexes: vec![
                IndexDef::new("ix_grp", parent, vec![1], vec![0]),
                IndexDef::new("ix_pid", child, vec![1], vec![0]),
            ],
            views: vec![],
        })
        .unwrap();
        let indexed = db.execute(&query).unwrap();
        assert_eq!(
            {
                let mut a = hash.rows.clone();
                a.sort();
                a
            },
            {
                let mut b = indexed.rows.clone();
                b.sort();
                b
            }
        );
        // Selective INLJ touches far fewer tuples than the hash join's
        // full build-side scan.
        assert!(indexed.exec.tuples_processed < hash.exec.tuples_processed / 10);
    }

    #[test]
    fn expired_deadline_cancels_with_typed_timeout() {
        let (db, t) = db_with_index(false);
        // `grp_query` seeks `ix`; `Ne` is not sargable, so `scan` plans a
        // full sequential scan.
        let mut scan = SelectQuery::single(t);
        scan.filters = vec![Filter::new(0, 1, FilterOp::Ne, Value::Int(7))];
        scan.outputs = vec![Output::col(0, 0)];
        for q in [grp_query(t), SqlQuery::Select(scan)] {
            let plan = db.estimate(&q, db.built_config()).unwrap();
            for threads in [1usize, 4] {
                let opts = ExecOptions::with_threads(threads);
                let err = execute(&db, &plan, &opts, &expired()).unwrap_err();
                assert!(matches!(err, RelError::Timeout { .. }), "{threads}: {err}");
                assert!(err.is_transient());
                // A generous deadline never fires, and the result matches
                // the unbounded run bit-for-bit.
                let bounded = StmtCtx {
                    deadline: Some(Instant::now() + Duration::from_secs(60)),
                    ..StmtCtx::default()
                };
                let (rows_b, stats_b, _) = execute(&db, &plan, &opts, &bounded).unwrap();
                let (rows, stats, _) = execute(&db, &plan, &opts, &StmtCtx::default()).unwrap();
                assert_eq!((rows_b, stats_b), (rows, stats), "threads={threads}");
            }
        }
    }

    /// Read-your-own-writes through the index: a seek reads the pending
    /// rows of its table behind the postings, and an index-nested-loop
    /// join probes them by key, each at one tuple per row.
    #[test]
    fn index_paths_read_pending_rows() {
        let (db, t) = db_with_index(false);
        let own = vec![Value::Int(5_000), Value::Int(7), Value::str("mine")];
        let pending = [(t, vec![own])];
        let ctx = StmtCtx {
            pending: &pending,
            ..StmtCtx::default()
        };
        // Planned with `ix`, as without pending rows.
        let outcome = db.run(&grp_query(t), &ctx).unwrap();
        assert!(outcome.plan.explain().contains("ix"));
        assert_eq!(outcome.rows.len(), 11);
        assert_eq!(
            outcome.rows[10],
            vec![Value::Int(5_000), Value::str("mine")]
        );
        assert_eq!(outcome.exec.tuples_processed, 11);

        let scan = ScanNode {
            table_ref: 0,
            access: Access::SeqScan,
            filters: vec![],
            est_rows: 0.0,
            est_cost: 0.0,
        };
        let inlj = JoinNode {
            inner: ScanNode {
                table_ref: 1,
                ..scan.clone()
            },
            algo: JoinAlgo::IndexNestedLoop {
                index: "ix".into(),
                covering: false,
            },
            outer_ref: 0,
            outer_col: 1,
            inner_col: 1,
            est_rows: 0.0,
            est_cost: 0.0,
        };
        let plan = QueryPlan {
            branches: vec![BranchPlan::Pipeline {
                tables: vec![t, t],
                driver: scan,
                joins: vec![inlj],
                outputs: vec![Output::col(0, 0), Output::col(1, 0)],
                est_rows: 0.0,
                est_cost: 0.0,
            }],
            order_by: vec![],
            est_cost: 0.0,
            epoch: 0,
        };
        let (rows, ..) = execute(&db, &plan, &ExecOptions::default(), &ctx).unwrap();
        // 499 groups of 10 x 10, and group 7 with the own row: 11 x 11.
        assert_eq!(rows.len(), 499 * 100 + 121);
        let mine = Value::Int(5_000);
        assert_eq!(
            rows.iter().filter(|r| r[0] == mine && r[1] == mine).count(),
            1
        );
    }

    #[test]
    fn morsel_ranges_partition_exactly() {
        let opts = ExecOptions {
            threads: 1,
            morsel_rows: 100,
        };
        let mut profile = ExecProfile::default();
        let ranges = morsel_ranges(250, &opts, &mut profile);
        assert_eq!(ranges, vec![0..100, 100..200, 200..250]);
        assert!(morsel_ranges(0, &opts, &mut profile).is_empty());
        assert_eq!(morsel_ranges(100, &opts, &mut profile), vec![0..100]);
        // Every cut is noted as dispatched, in cut order.
        assert_eq!(profile.morsels_dispatched, 4);
        assert_eq!(profile.rows_per_morsel.first, vec![100, 100, 50, 100]);
    }

    /// The one fan-out: results in morsel order when the deadline is
    /// absent, and the caller's site in a typed timeout — with no morsel
    /// started — when it has already passed, for any thread count.
    #[test]
    fn fan_out_orders_results_and_times_out_at_its_site() {
        let morsels: Vec<usize> = (0..37).collect();
        let started = std::sync::atomic::AtomicUsize::new(0);
        for threads in [1usize, 4] {
            let opts = ExecOptions::with_threads(threads);
            let out = fan_out(&morsels, &opts, &StmtCtx::default(), "test", |&m| m * 3).unwrap();
            assert_eq!(out, morsels.iter().map(|m| m * 3).collect::<Vec<_>>());
            let err = fan_out(&morsels, &opts, &expired(), "probe", |&m| {
                started.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                m
            })
            .unwrap_err();
            assert!(matches!(err, RelError::Timeout { site: "probe" }), "{err}");
        }
        assert_eq!(started.into_inner(), 0, "expired fan-out ran a morsel");
    }

    #[test]
    fn rows_stats_and_profile_identical_across_thread_counts() {
        let (db, t) = db_with_index(false);
        let plan = db
            .estimate(&grp_query(t), db.built_config())
            .expect("plans");
        // Small morsels force a real fan-out even on this 5k-row table.
        let opts1 = ExecOptions {
            threads: 1,
            morsel_rows: 128,
        };
        let (rows1, stats1, profile1) = execute(&db, &plan, &opts1, &StmtCtx::default()).unwrap();
        assert!(profile1.morsels_dispatched > 1);
        for threads in [2, 4, 8] {
            let opts = ExecOptions {
                threads,
                morsel_rows: 128,
            };
            let (rows, stats, profile) = execute(&db, &plan, &opts, &StmtCtx::default()).unwrap();
            assert_eq!(rows1, rows, "threads={threads}");
            assert_eq!(stats1, stats, "threads={threads}");
            assert_eq!(
                profile1.deterministic_fingerprint(),
                profile.deterministic_fingerprint(),
                "threads={threads}"
            );
        }
    }

    /// Regression (accounting): a selective index seek must charge the page
    /// budget for the Cardenas–Yao *distinct* pages — mirroring its costed
    /// I/O — not one page per matched row. An unselective-but-indexed plan
    /// under a budget sized for the costed pages used to trip
    /// `ResourceExhausted`.
    #[test]
    fn index_seek_budget_charge_matches_costed_pages() {
        let (mut db, t) = db_with_index(false);
        // grp < 100 matches 1000 of 5000 rows; the heap spans ~52 pages, so
        // Cardenas–Yao distinct pages ≈ 52 while matched rows = 1000.
        let heap_pages = db.heap(t).pages() as u64;
        let matched = 1000u64;
        assert!(heap_pages < 100, "fixture drifted: {heap_pages} pages");
        let plan = QueryPlan {
            epoch: 0,
            branches: vec![BranchPlan::Pipeline {
                tables: vec![t],
                driver: ScanNode {
                    table_ref: 0,
                    access: Access::IndexSeek {
                        index: "ix".into(),
                        key: KeyRange::range(
                            std::ops::Bound::Unbounded,
                            std::ops::Bound::Excluded(Value::Int(100)),
                        ),
                        covering: false,
                    },
                    filters: vec![Filter::new(
                        0,
                        1,
                        crate::expr::FilterOp::Lt,
                        Value::Int(100),
                    )],
                    est_rows: matched as f64,
                    est_cost: 0.0,
                },
                joins: vec![],
                outputs: vec![Output::col(0, 0)],
                est_rows: matched as f64,
                est_cost: 0.0,
            }],
            order_by: vec![],
            est_cost: 0.0,
        };
        // Budget covers the costed pages (descent + distinct heap pages)
        // with slack, but is far below 1 + matched rows.
        db.set_fault_config(FaultConfig {
            seed: 0,
            budget_pages: Some(2 * heap_pages),
            ..FaultConfig::default()
        });
        let outcome = db.execute_plan(plan).expect("seek fits costed budget");
        assert_eq!(outcome.rows.len(), matched as usize);
        let charged = db
            .fault_plane()
            .expect("plane armed")
            .snapshot()
            .pages_charged;
        assert!(
            charged <= 1 + heap_pages,
            "budget charge {charged} exceeds descent + distinct pages {}",
            1 + heap_pages
        );
        assert!(charged < matched, "still charging per matched row");
    }

    /// Regression (accounting): an index seek matching nothing reads no leaf
    /// entries — descent cost only, as `cost::index_seek_cost` prices it.
    /// The measured I/O used to include a one-leaf-page floor.
    #[test]
    fn zero_match_seek_charges_descent_only() {
        let (db, t) = db_with_index(true);
        // grp = 10_000 matches nothing (grp ranges over 0..500).
        let mut q = SelectQuery::single(t);
        q.filters = vec![Filter::new(
            0,
            1,
            crate::expr::FilterOp::Eq,
            Value::Int(10_000),
        )];
        q.outputs = vec![Output::col(0, 0), Output::col(0, 2)];
        let outcome = db.execute(&SqlQuery::Select(q)).unwrap();
        assert!(outcome.rows.is_empty());
        assert!(
            matches!(
                outcome.plan.branches[0],
                BranchPlan::Pipeline {
                    driver: ScanNode {
                        access: Access::IndexSeek { covering: true, .. },
                        ..
                    },
                    ..
                }
            ),
            "optimizer must pick the covering seek: {}",
            outcome.plan.explain()
        );
        // Covering + zero matches: the only I/O is the B-tree descent.
        assert_eq!(outcome.exec.io_cost, BTREE_DESCENT_COST * RANDOM_PAGE_COST);
        // Measured must not exceed the optimizer's estimate for this plan.
        assert!(
            outcome.exec.measured_cost() <= outcome.plan.est_cost,
            "measured {} > estimated {}",
            outcome.exec.measured_cost(),
            outcome.plan.est_cost
        );
    }

    /// Regression (accounting): a plan whose join key is out of bounds must
    /// fail *before* any operator runs — leaving the fault plane's page
    /// budget untouched. The hash-join arm used to run (and charge) the
    /// build-side scan before the bounds check.
    #[test]
    fn invalid_join_key_charges_nothing() {
        let (mut db, t) = db_with_index(false);
        db.set_fault_config(FaultConfig {
            seed: 0,
            budget_pages: Some(u64::MAX),
            ..FaultConfig::default()
        });
        let scan = |filters: Vec<Filter>| ScanNode {
            table_ref: 0,
            access: Access::SeqScan,
            filters,
            est_rows: 5_000.0,
            est_cost: 0.0,
        };
        let plan = QueryPlan {
            epoch: 0,
            branches: vec![BranchPlan::Pipeline {
                tables: vec![t, t],
                driver: scan(vec![]),
                joins: vec![JoinNode {
                    inner: ScanNode {
                        table_ref: 1,
                        ..scan(vec![])
                    },
                    algo: JoinAlgo::Hash,
                    outer_ref: 0,
                    outer_col: 0,
                    inner_col: 99, // out of bounds: 't' has 3 columns
                    est_rows: 5_000.0,
                    est_cost: 0.0,
                }],
                outputs: vec![Output::col(0, 0)],
                est_rows: 5_000.0,
                est_cost: 0.0,
            }],
            order_by: vec![],
            est_cost: 0.0,
        };
        let err = db.execute_plan(plan).unwrap_err();
        assert!(matches!(err, RelError::InvalidQuery(_)), "got {err:?}");
        let snap = db.fault_plane().expect("plane armed").snapshot();
        assert_eq!(
            snap.pages_charged, 0,
            "failing query must not charge the page budget"
        );
    }

    /// Regression (memory): the profile used to keep every morsel's size in
    /// an unbounded `Vec`. The bounded summary must stay *exact* — count,
    /// sum, and the retained head/tail — and merging any split of a
    /// sequence must reproduce the whole-sequence summary bit for bit,
    /// since profile merging across queries relies on it.
    #[test]
    fn rows_per_morsel_summary_is_exact_and_bounded() {
        let seq: Vec<u64> = (0..1000u64).map(|i| (i * 7) % 90 + 1).collect();
        let mut all = MorselRows::default();
        for &v in &seq {
            all.push(v);
        }
        assert_eq!(all.count, 1000);
        assert_eq!(all.sum, seq.iter().sum::<u64>());
        assert_eq!(all.first, seq[..MORSEL_ROWS_KEEP].to_vec());
        assert_eq!(all.last, seq[seq.len() - MORSEL_ROWS_KEEP..].to_vec());
        for split in [0usize, 1, 5, 15, 16, 17, 500, 984, 990, 999, 1000] {
            let (a, b) = seq.split_at(split);
            let mut left = MorselRows::default();
            for &v in a {
                left.push(v);
            }
            let mut right = MorselRows::default();
            for &v in b {
                right.push(v);
            }
            left.merge(&right);
            assert_eq!(left, all, "split={split}");
        }
    }

    /// The three-column probe pipeline under the fault plane: checksums are
    /// verified and pages charged exactly once per access, so arming an
    /// inert plane changes neither rows nor stats for any thread count.
    #[test]
    fn inert_fault_plane_is_thread_invariant() {
        let (mut db, t) = db_with_index(false);
        let query = grp_query(t);
        let plain = db.execute(&query).unwrap();
        db.set_fault_config(FaultConfig {
            seed: 0,
            budget_pages: Some(u64::MAX),
            ..FaultConfig::default()
        });
        let mut charged = Vec::new();
        for threads in [1usize, 4] {
            db.set_exec_options(ExecOptions::with_threads(threads));
            let outcome = db.execute(&query).unwrap();
            assert_eq!(outcome.rows, plain.rows, "threads={threads}");
            assert_eq!(outcome.exec, plain.exec, "threads={threads}");
            let snap = db.fault_plane().expect("plane armed").snapshot();
            charged.push(snap.pages_charged);
        }
        // Equal increments: the second run charged exactly as much as the
        // first (once per access, not once per worker).
        assert_eq!(charged[1], 2 * charged[0]);
    }
}
