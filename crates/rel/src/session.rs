//! Multi-session access with MVCC snapshot isolation.
//!
//! [`SessionDb`] wraps a [`Database`] in an `Arc<RwLock<_>>` and hands out
//! [`Transaction`]s. The engine's heaps are insert-only and every commit
//! appends its row batches under the write lock in commit-LSN order, so a
//! *snapshot* is nothing more than a per-table row-count prefix captured
//! under a brief read lock ([`SnapshotVisibility`]): a row is visible iff
//! its batch committed at or below the snapshot's LSN, which is iff its
//! heap position is below the captured watermark.
//!
//! # Isolation
//!
//! * **Readers never block on writers.** A transaction buffers its writes
//!   locally; nothing touches the shared engine until commit. Concurrent
//!   snapshot reads take the read lock only — they contend with the commit
//!   critical section (microseconds of appends), never with an open write
//!   transaction.
//! * **Snapshot reads are repeatable.** Every query a transaction runs sees
//!   the same watermark vector captured at `begin`, so rows committed later
//!   are invisible for the transaction's whole lifetime (no dirty or
//!   non-repeatable reads).
//! * **Read-your-own-writes.** A transaction's buffered batches ride along
//!   on every statement it runs ([`StmtCtx::pending`]): sequential scans
//!   read the snapshot prefix and then the transaction's own rows of that
//!   table, in statement order; index seeks and views answer from their
//!   clamped entries plus the matching own rows. Such a statement is
//!   planned against the same design as any other — pages are charged at
//!   the live heap like every snapshot read, tuples are visible + pending.
//! * **First-committer-wins.** Commit re-checks, under the write lock, that
//!   no other transaction committed to a written table after this
//!   transaction's snapshot; if one did, the commit fails with
//!   [`RelError::WriteConflict`] and the transaction's writes are discarded.
//!   Conflicts are table-granular: the engine has no row updates (heaps are
//!   insert-only), so the classic lost-update race is two transactions
//!   appending to the same table from the same snapshot.
//!
//! # Durability
//!
//! On a durable database a commit brackets its `InsertRows` frames with
//! [`WalRecord::TxnBegin`] / [`WalRecord::TxnCommit`] markers carrying a
//! session-unique transaction id. Recovery replays only committed
//! transactions: an unmatched trailing `TxnBegin` (a crash mid-commit)
//! causes every frame from the marker on to be dropped and the log
//! truncated (see `recovery::committed_log`). Auto-commit mutations
//! ([`SessionDb::insert_rows`], DDL) log bare frames exactly like the
//! single-session library path — bare frames are committed by definition.

use crate::catalog::{TableDef, TableId};
use crate::db::{Database, QueryOutcome};
use crate::error::{RelError, RelResult};
use crate::exec::{SnapshotVisibility, StmtCtx};
use crate::sql::SqlQuery;
use crate::storage;
use crate::types::Row;
use crate::wal::WalRecord;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The engine state behind the session lock.
pub(crate) struct Engine {
    pub(crate) db: Database,
    /// Last assigned commit LSN on a non-durable database (durable ones
    /// read the WAL's LSN clock instead, so recovery and sessions agree).
    clock: u64,
    /// Per-table LSN of the last committed append, indexed by `TableId`.
    /// Tables created after startup extend the vector on demand.
    last_commit: Vec<u64>,
    /// Monotonic transaction id for WAL txn framing.
    next_txn: u64,
}

impl Engine {
    /// The highest committed LSN: snapshots taken now see everything at or
    /// below it.
    fn snapshot_lsn(&self) -> u64 {
        match self.db.wal_next_lsn() {
            Some(next) => next.saturating_sub(1),
            None => self.clock,
        }
    }

    /// Record that `table` last changed at `lsn`.
    fn note_commit(&mut self, table: TableId, lsn: u64) {
        if self.last_commit.len() <= table.index() {
            self.last_commit.resize(table.index() + 1, 0);
        }
        self.last_commit[table.index()] = lsn;
        self.clock = self.clock.max(lsn);
    }

    /// Capture the visibility watermarks of a snapshot taken now.
    pub(crate) fn visibility(&self) -> SnapshotVisibility {
        SnapshotVisibility {
            lsn: self.snapshot_lsn(),
            visible: (0..self.db.catalog().len())
                .map(|i| {
                    self.db
                        .try_heap(TableId(i as u32))
                        .map(|h| h.len())
                        .unwrap_or(0)
                })
                .collect(),
        }
    }
}

/// A shared, session-capable database handle. Cloning is cheap (one `Arc`);
/// every clone talks to the same engine.
#[derive(Clone)]
pub struct SessionDb {
    inner: Arc<RwLock<Engine>>,
}

/// Poison recovery: a panicked writer cannot leave the engine logically
/// torn — commits apply their whole batch set or error out before touching
/// the heaps — so sessions keep serving rather than propagating poison.
fn read_lock(inner: &RwLock<Engine>) -> RwLockReadGuard<'_, Engine> {
    inner.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock(inner: &RwLock<Engine>) -> RwLockWriteGuard<'_, Engine> {
    inner.write().unwrap_or_else(PoisonError::into_inner)
}

impl SessionDb {
    /// Wrap a database (durable or in-memory) for multi-session access.
    pub fn new(db: Database) -> SessionDb {
        let tables = db.catalog().len();
        SessionDb {
            inner: Arc::new(RwLock::new(Engine {
                db,
                clock: 0,
                last_commit: vec![0; tables],
                next_txn: 0,
            })),
        }
    }

    /// Open a transaction: captures the snapshot watermarks under a brief
    /// read lock and releases it before returning.
    pub fn begin(&self) -> Transaction {
        let snapshot = read_lock(&self.inner).visibility();
        Transaction {
            inner: Arc::clone(&self.inner),
            snapshot,
            writes: Vec::new(),
        }
    }

    /// Auto-commit snapshot read: sees everything committed at call time.
    pub fn execute(&self, query: &SqlQuery) -> RelResult<QueryOutcome> {
        self.execute_deadline(query, None)
    }

    /// [`SessionDb::execute`] under a per-statement deadline: the executor
    /// polls it at morsel boundaries and cancels with [`RelError::Timeout`]
    /// (transient, charge/token-neutral — see [`Database::run`]) once
    /// passed. Deadlines are per-statement, never stored on the shared
    /// engine, so concurrent sessions cannot inherit each other's budgets.
    pub fn execute_deadline(
        &self,
        query: &SqlQuery,
        deadline: Option<std::time::Instant>,
    ) -> RelResult<QueryOutcome> {
        let engine = read_lock(&self.inner);
        let vis = engine.visibility();
        let ctx = StmtCtx {
            snapshot: Some(&vis),
            deadline,
            ..StmtCtx::default()
        };
        engine.db.run(query, &ctx)
    }

    /// Auto-commit DDL. Not versioned: the new table is immediately visible
    /// to every session (snapshots taken earlier see it as empty — its
    /// watermark defaults to zero rows).
    pub fn create_table(&self, def: TableDef) -> RelResult<TableId> {
        let mut engine = write_lock(&self.inner);
        let id = engine.db.create_table(def)?;
        if engine.last_commit.len() <= id.index() {
            engine.last_commit.resize(id.index() + 1, 0);
        }
        Ok(id)
    }

    /// Auto-commit bulk insert: a single-statement transaction. Logged as a
    /// bare `InsertRows` frame (committed by definition) and advances the
    /// table's conflict watermark, so it conflicts with overlapping
    /// explicit transactions like any other committer.
    pub fn insert_rows(&self, table: TableId, rows: Vec<Row>) -> RelResult<usize> {
        let mut engine = write_lock(&self.inner);
        let n = engine.db.insert_rows(table, rows)?;
        let lsn = engine.snapshot_lsn().max(engine.clock + 1);
        engine.note_commit(table, lsn);
        Ok(n)
    }

    /// Auto-commit `ANALYZE` over every table.
    pub fn analyze(&self) -> RelResult<()> {
        write_lock(&self.inner).db.analyze()
    }

    /// Checkpoint the underlying durable database (no-op semantics match
    /// [`Database::checkpoint`]).
    pub fn checkpoint(&self) -> RelResult<()> {
        write_lock(&self.inner).db.checkpoint()
    }

    /// Run `f` against the engine under the read lock — the escape hatch
    /// for read-only inspection (schema describes, bench parity checks).
    pub fn with_db<T>(&self, f: impl FnOnce(&Database) -> T) -> T {
        f(&read_lock(&self.inner).db)
    }

    /// Crate-internal engine guards for the online-swap machinery (see
    /// [`crate::adapt`]): the swap needs the raw engine to capture
    /// watermarks, log, and install structures under one lock hold.
    pub(crate) fn read_engine(&self) -> RwLockReadGuard<'_, Engine> {
        read_lock(&self.inner)
    }

    pub(crate) fn write_engine(&self) -> RwLockWriteGuard<'_, Engine> {
        write_lock(&self.inner)
    }

    /// Arm (or clear) the underlying database's deterministic crash point
    /// (see [`Database::set_crash_point`]), so crash-recovery tests can
    /// kill a commit between its WAL frames.
    pub fn set_crash_point(&self, point: Option<crate::fault::CrashPoint>) -> RelResult<()> {
        write_lock(&self.inner).db.set_crash_point(point)
    }
}

/// One open transaction: a frozen snapshot plus locally buffered writes.
/// Dropping it without [`Transaction::commit`] is a rollback.
pub struct Transaction {
    inner: Arc<RwLock<Engine>>,
    /// The watermarks captured at `begin`: every batch committed at or
    /// below `snapshot.lsn` is visible, as a per-table row-count prefix.
    snapshot: SnapshotVisibility,
    /// Buffered writes in statement order. A table may appear repeatedly.
    writes: Vec<(TableId, Vec<Row>)>,
}

impl Transaction {
    /// The snapshot's LSN (highest commit visible to this transaction).
    pub fn snapshot_lsn(&self) -> u64 {
        self.snapshot.lsn
    }

    /// This transaction's snapshot watermarks.
    pub fn visibility(&self) -> SnapshotVisibility {
        self.snapshot.clone()
    }

    /// Buffer rows for insertion at commit. Validated against the current
    /// schema immediately, so a bad row fails the statement, not the
    /// eventual commit.
    pub fn insert_rows(&mut self, table: TableId, rows: Vec<Row>) -> RelResult<()> {
        {
            let engine = read_lock(&self.inner);
            let def = engine.db.catalog().try_table(table)?;
            for row in &rows {
                storage::validate_row(def, row)?;
            }
        }
        if !rows.is_empty() {
            self.writes.push((table, rows));
        }
        Ok(())
    }

    /// Rows this transaction has buffered for `table`.
    pub fn pending_rows(&self, table: TableId) -> usize {
        self.writes
            .iter()
            .filter(|(t, _)| *t == table)
            .map(|(_, rows)| rows.len())
            .sum()
    }

    /// Execute a query against this transaction's snapshot followed by its
    /// own buffered writes (read-your-own-writes, see the module docs).
    pub fn query(&self, query: &SqlQuery) -> RelResult<QueryOutcome> {
        self.query_deadline(query, None)
    }

    /// [`Transaction::query`] under a per-statement deadline (see
    /// [`SessionDb::execute_deadline`] for the timeout contract).
    pub fn query_deadline(
        &self,
        query: &SqlQuery,
        deadline: Option<std::time::Instant>,
    ) -> RelResult<QueryOutcome> {
        let ctx = StmtCtx {
            snapshot: Some(&self.snapshot),
            deadline,
            pending: &self.writes,
        };
        read_lock(&self.inner).db.run(query, &ctx)
    }

    /// Commit: first-committer-wins conflict check, WAL txn framing, apply.
    /// Returns the commit LSN. On [`RelError::WriteConflict`] nothing was
    /// logged or applied; the caller may retry on a fresh transaction.
    pub fn commit(self) -> RelResult<u64> {
        let mut engine = write_lock(&self.inner);
        if self.writes.is_empty() {
            return Ok(self.snapshot.lsn);
        }
        // Conflict check before anything is logged: another transaction
        // committed to one of our tables after our snapshot?
        for (table, _) in &self.writes {
            let committed = engine.last_commit.get(table.index()).copied().unwrap_or(0);
            if committed > self.snapshot.lsn {
                let name = engine
                    .db
                    .catalog()
                    .try_table(*table)
                    .map(|d| d.name.clone())
                    .unwrap_or_else(|_| format!("#{}", table.0));
                return Err(RelError::WriteConflict {
                    table: name,
                    committed_lsn: committed,
                    snapshot_lsn: self.snapshot.lsn,
                });
            }
        }
        // Re-validate every batch against the (possibly evolved) schema
        // before the first frame is logged, so a rejected commit leaves
        // neither the log nor the heaps partially written.
        for (table, rows) in &self.writes {
            let def = engine.db.catalog().try_table(*table)?;
            for row in rows {
                storage::validate_row(def, row)?;
            }
        }
        let durable = engine.db.is_durable();
        let txn = engine.next_txn;
        engine.next_txn += 1;
        if durable {
            engine.db.log(&WalRecord::TxnBegin { txn })?;
        }
        // The batches move into the heaps; keep the ids for the watermarks.
        let tables: Vec<TableId> = self.writes.iter().map(|(table, _)| *table).collect();
        for (table, rows) in self.writes {
            engine.db.insert_rows(table, rows)?;
        }
        let commit_lsn = if durable {
            // The TxnCommit marker's LSN is the commit LSN tagging this
            // transaction's row versions.
            let lsn = engine.db.wal_next_lsn().unwrap_or(engine.clock + 1);
            engine.db.log(&WalRecord::TxnCommit { txn })?;
            lsn
        } else {
            engine.clock + 1
        };
        for table in tables {
            engine.note_commit(table, commit_lsn);
        }
        Ok(commit_lsn)
    }

    /// Explicit rollback: discard buffered writes. (Dropping the
    /// transaction has the same effect; this makes intent visible.)
    pub fn rollback(self) {
        drop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnDef;
    use crate::sql::{Output, SelectQuery};
    use crate::types::{DataType, Value};

    fn session_with_table() -> (SessionDb, TableId) {
        let sdb = SessionDb::new(Database::new());
        let t = sdb
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
            ))
            .unwrap();
        (sdb, t)
    }

    fn count_query(t: TableId) -> SqlQuery {
        let mut q = SelectQuery::single(t);
        q.outputs = vec![Output::col(0, 0)];
        SqlQuery::Select(q)
    }

    #[test]
    fn snapshot_reads_are_stable_across_commits() {
        let (sdb, t) = session_with_table();
        sdb.insert_rows(t, vec![vec![Value::Int(1), Value::Int(10)]])
            .unwrap();
        let reader = sdb.begin();
        assert_eq!(reader.query(&count_query(t)).unwrap().rows.len(), 1);

        let mut writer = sdb.begin();
        writer
            .insert_rows(t, vec![vec![Value::Int(2), Value::Int(20)]])
            .unwrap();
        writer.commit().unwrap();

        // The old snapshot still sees one row; a fresh one sees two.
        assert_eq!(reader.query(&count_query(t)).unwrap().rows.len(), 1);
        assert_eq!(sdb.execute(&count_query(t)).unwrap().rows.len(), 2);
    }

    #[test]
    fn first_committer_wins() {
        let (sdb, t) = session_with_table();
        let mut a = sdb.begin();
        let mut b = sdb.begin();
        a.insert_rows(t, vec![vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        b.insert_rows(t, vec![vec![Value::Int(2), Value::Int(2)]])
            .unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(matches!(err, RelError::WriteConflict { .. }), "{err}");
        assert!(err.is_transient());
        // The loser's writes were discarded.
        assert_eq!(sdb.execute(&count_query(t)).unwrap().rows.len(), 1);
    }

    #[test]
    fn read_your_own_writes_is_private() {
        let (sdb, t) = session_with_table();
        let mut txn = sdb.begin();
        txn.insert_rows(t, vec![vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        assert_eq!(txn.query(&count_query(t)).unwrap().rows.len(), 1);
        // Uncommitted writes are invisible to other sessions (no dirty read).
        assert_eq!(sdb.execute(&count_query(t)).unwrap().rows.len(), 0);
        txn.rollback();
        assert_eq!(sdb.execute(&count_query(t)).unwrap().rows.len(), 0);
    }

    #[test]
    fn empty_commit_is_conflict_free() {
        let (sdb, t) = session_with_table();
        let reader = sdb.begin();
        sdb.insert_rows(t, vec![vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        // A read-only transaction commits trivially even after others wrote.
        assert_eq!(reader.commit().unwrap(), 0);
    }
}
