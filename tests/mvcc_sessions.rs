//! Tier-1 integration tests for the session layer: MVCC snapshot
//! isolation, the classic anomaly suite, first-committer-wins conflict
//! detection, non-blocking readers, committed-only crash recovery, and a
//! property test that any interleaving of committed transactions is
//! equivalent to their serial replay in commit order.
//!
//! The rel crate's unit tests cover the per-method contracts; these pin
//! the cross-session guarantees a user of [`xmlshred::rel::SessionDb`]
//! relies on.

use proptest::prelude::*;
use std::sync::mpsc;
use xmlshred::rel::catalog::{ColumnDef, TableDef};
use xmlshred::rel::db::Database;
use xmlshred::rel::sql::{Output, SelectQuery, SqlQuery};
use xmlshred::rel::types::{DataType, Value};
use xmlshred::rel::{CrashKind, CrashPoint, RelError, SessionDb, TableId};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xmlshred-mvcc-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn kv_def(name: &str) -> TableDef {
    TableDef::new(
        name,
        vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("tag", DataType::Str),
        ],
    )
}

fn row(k: i64, tag: &str) -> Vec<Value> {
    vec![Value::Int(k), Value::str(tag)]
}

fn scan(table: TableId) -> SqlQuery {
    let mut q = SelectQuery::single(table);
    q.outputs = vec![Output::col(0, 0), Output::col(0, 1)];
    SqlQuery::Select(q)
}

/// Anomaly: dirty read. A transaction's uncommitted writes must be
/// invisible to every other session — autocommit readers and concurrent
/// transactions alike — until commit.
#[test]
fn no_dirty_read() {
    let sdb = SessionDb::new(Database::new());
    let table = sdb.create_table(kv_def("kv")).expect("create");
    sdb.insert_rows(table, vec![row(0, "base")]).expect("seed");

    let mut writer = sdb.begin();
    writer
        .insert_rows(table, vec![row(1, "uncommitted")])
        .expect("buffer");

    // An autocommit reader and a concurrent transaction both see only the
    // committed base row while the writer is open.
    assert_eq!(sdb.execute(&scan(table)).expect("read").rows.len(), 1);
    let reader = sdb.begin();
    assert_eq!(reader.query(&scan(table)).expect("txn read").rows.len(), 1);

    writer.commit().expect("commit");
    assert_eq!(sdb.execute(&scan(table)).expect("reread").rows.len(), 2);
    // The still-open reader's snapshot predates the commit.
    assert_eq!(reader.query(&scan(table)).expect("stale").rows.len(), 1);
}

/// Anomaly: non-repeatable read. Within one transaction the same query
/// returns the same rows no matter what commits in between.
#[test]
fn no_non_repeatable_read() {
    let sdb = SessionDb::new(Database::new());
    let table = sdb.create_table(kv_def("kv")).expect("create");
    sdb.insert_rows(table, vec![row(0, "base")]).expect("seed");

    let reader = sdb.begin();
    let first = reader.query(&scan(table)).expect("first read").rows;

    sdb.insert_rows(table, vec![row(1, "concurrent")])
        .expect("concurrent commit");

    let second = reader.query(&scan(table)).expect("second read").rows;
    assert_eq!(first, second, "read must repeat under the same snapshot");
    // A fresh snapshot does see the new row.
    assert_eq!(sdb.execute(&scan(table)).expect("fresh").rows.len(), 2);
}

/// Anomaly: lost update. Two transactions from the same snapshot write
/// the same table; the first commit wins, the second gets a transient
/// [`RelError::WriteConflict`] and its writes are discarded.
#[test]
fn no_lost_update_first_committer_wins() {
    let sdb = SessionDb::new(Database::new());
    let table = sdb.create_table(kv_def("kv")).expect("create");

    let mut a = sdb.begin();
    let mut b = sdb.begin();
    a.insert_rows(table, vec![row(1, "a")]).expect("a buffers");
    b.insert_rows(table, vec![row(1, "b")]).expect("b buffers");

    a.commit().expect("first committer wins");
    let err = b.commit().expect_err("second committer must conflict");
    assert!(
        matches!(err, RelError::WriteConflict { .. }),
        "expected WriteConflict, got {err:?}"
    );
    assert!(err.is_transient(), "conflicts are retryable");

    // Only the winner's row landed.
    let rows = sdb.execute(&scan(table)).expect("read").rows;
    assert_eq!(rows, vec![row(1, "a")]);
}

/// Read-your-own-writes: a transaction sees its buffered rows after its
/// snapshot, privately — and nothing anyone else commits meanwhile.
#[test]
fn read_your_own_writes() {
    let sdb = SessionDb::new(Database::new());
    let table = sdb.create_table(kv_def("kv")).expect("create");
    sdb.insert_rows(table, vec![row(0, "base")]).expect("seed");

    let mut writer = sdb.begin();
    writer
        .insert_rows(table, vec![row(1, "mine")])
        .expect("buffer");
    let rows = writer.query(&scan(table)).expect("own read").rows;
    assert_eq!(rows, vec![row(0, "base"), row(1, "mine")]);
    // Nobody else sees it.
    assert_eq!(sdb.execute(&scan(table)).expect("other").rows.len(), 1);

    // Isolation: another session's commit to the same table lands in the
    // heap right behind the writer's snapshot prefix, and the writer still
    // reads prefix + own rows only.
    sdb.insert_rows(table, vec![row(2, "theirs")])
        .expect("other commit");
    let rows = writer.query(&scan(table)).expect("own read").rows;
    assert_eq!(rows, vec![row(0, "base"), row(1, "mine")]);
    assert_eq!(sdb.execute(&scan(table)).expect("other").rows.len(), 2);

    writer.rollback();
    assert_eq!(sdb.execute(&scan(table)).expect("after").rows.len(), 2);
}

/// Acceptance: readers never block on writers. A reader on another thread
/// must complete its query while a write transaction is open (and its
/// writes buffered), without waiting for that transaction to resolve.
#[test]
fn readers_never_block_on_open_writers() {
    let sdb = SessionDb::new(Database::new());
    let table = sdb.create_table(kv_def("kv")).expect("create");
    sdb.insert_rows(table, vec![row(0, "base")]).expect("seed");

    let mut writer = sdb.begin();
    writer
        .insert_rows(table, vec![row(1, "pending")])
        .expect("buffer");

    // The write transaction stays open on this thread while the reader
    // runs to completion on another; the channel proves ordering.
    let (tx, rx) = mpsc::channel();
    let reader_db = sdb.clone();
    let reader = std::thread::spawn(move || {
        let rows = reader_db.execute(&scan(table)).expect("read").rows;
        tx.send(rows.len()).expect("send");
    });
    let seen = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("reader must complete while the write txn is open");
    assert_eq!(seen, 1, "reader sees only the committed base row");
    reader.join().expect("reader thread");

    writer.commit().expect("commit after the read finished");
    assert_eq!(sdb.execute(&scan(table)).expect("final").rows.len(), 2);
}

/// Crash mid-commit: a transaction whose `TxnCommit` marker never reached
/// the log is invisible after recovery — its intact `TxnBegin`/insert
/// frames are identified, counted, and dropped — while every earlier
/// committed transaction replays in full.
#[test]
fn crash_mid_commit_replays_only_committed_txns() {
    let dir = temp_dir("mid-commit");
    let mut db = Database::create_durable(&dir).expect("create durable");
    let table = db.create_table(kv_def("kv")).expect("create");
    db.insert_rows(table, [row(0, "autocommit")]).expect("seed");

    // Commit one transaction fully, then crash the next one after its
    // TxnBegin and insert frames but before the TxnCommit marker: frames
    // so far are create + insert = 2, the survivor txn adds 3
    // (begin/insert/commit), so the victim's marker is write 8.
    let sdb = SessionDb::new(db);
    let mut survivor = sdb.begin();
    survivor
        .insert_rows(table, vec![row(1, "committed")])
        .expect("buffer");
    survivor.commit().expect("survivor commits");

    let mut victim = sdb.begin();
    victim
        .insert_rows(table, vec![row(2, "uncommitted")])
        .expect("buffer");
    // Arm the crash through the engine: allow TxnBegin + InsertRows, kill
    // the TxnCommit append cleanly (the marker simply never hits disk).
    sdb.set_crash_point(Some(CrashPoint {
        after_writes: 2,
        kind: CrashKind::Clean,
        seed: 5,
    }))
    .expect("arm");
    assert!(
        victim.commit().is_err(),
        "the armed crash point must kill the commit"
    );
    drop(sdb);

    let (db, report) = Database::open_durable(&dir).expect("recover");
    assert_eq!(report.txns_committed, 1, "only the survivor's txn commits");
    assert_eq!(
        report.frames_uncommitted, 2,
        "the victim's TxnBegin + insert frames are dropped"
    );
    let rows = db.execute(&scan(table)).expect("read").rows;
    assert_eq!(
        rows,
        vec![row(0, "autocommit"), row(1, "committed")],
        "recovery replays the autocommit row and the committed txn only"
    );

    // Recovery truncated the uncommitted suffix: reopening is clean.
    let (_db2, report2) = Database::open_durable(&dir).expect("reopen");
    assert_eq!(report2.frames_uncommitted, 0);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------- property --

/// One scripted transaction: when it begins, what it writes, when it
/// tries to commit. Times index into the global event order.
#[derive(Debug, Clone)]
struct TxnScript {
    begin_at: usize,
    commit_at: usize,
    /// `(table_idx, n_rows)` batches, written right after begin.
    writes: Vec<(usize, usize)>,
}

fn txn_script_strategy(n_txns: usize) -> impl Strategy<Value = Vec<TxnScript>> {
    let slots = n_txns * 2;
    proptest::collection::vec(
        (
            0..slots,
            0..slots,
            proptest::collection::vec((0..2usize, 1..4usize), 1..3),
        ),
        n_txns,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(a, b, writes)| TxnScript {
                begin_at: a.min(b),
                commit_at: a.max(b).max(a.min(b) + 1),
                writes,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serializability of the committed set: run scripted transactions
    /// under an arbitrary interleaving of begins and commits, record which
    /// ones the first-committer-wins rule admits, then replay exactly
    /// those serially in commit-LSN order on a fresh database. Heaps must
    /// match row for row.
    #[test]
    fn committed_txns_equal_their_serial_replay(scripts in txn_script_strategy(4)) {
        let sdb = SessionDb::new(Database::new());
        let t0 = sdb.create_table(kv_def("t0")).expect("create t0");
        let t1 = sdb.create_table(kv_def("t1")).expect("create t1");
        let tables = [t0, t1];

        // Drive the interleaving: at each time slot, first begin every
        // transaction scheduled there (buffering its writes), then attempt
        // every commit scheduled there.
        let max_slot = scripts.iter().map(|s| s.commit_at).max().unwrap_or(0);
        let mut open: Vec<Option<xmlshred::rel::Transaction>> = scripts.iter().map(|_| None).collect();
        let mut committed: Vec<(u64, usize)> = Vec::new();
        for slot in 0..=max_slot {
            for (i, script) in scripts.iter().enumerate() {
                if script.begin_at == slot {
                    let mut txn = sdb.begin();
                    for (w, &(table_idx, n)) in script.writes.iter().enumerate() {
                        let rows: Vec<_> = (0..n)
                            .map(|r| row((i * 100 + w * 10 + r) as i64, &format!("txn{i}")))
                            .collect();
                        txn.insert_rows(tables[table_idx], rows).expect("buffer");
                    }
                    open[i] = Some(txn);
                }
            }
            for (i, script) in scripts.iter().enumerate() {
                if script.commit_at == slot {
                    if let Some(txn) = open[i].take() {
                        match txn.commit() {
                            Ok(lsn) => committed.push((lsn, i)),
                            Err(e) => prop_assert!(
                                matches!(e, RelError::WriteConflict { .. }),
                                "only conflicts may fail a commit: {e:?}"
                            ),
                        }
                    }
                }
            }
        }

        // Serial replay of exactly the admitted transactions, in commit
        // order, on a fresh database.
        committed.sort_unstable();
        let mut serial = Database::new();
        let s0 = serial.create_table(kv_def("t0")).expect("create t0");
        let s1 = serial.create_table(kv_def("t1")).expect("create t1");
        let serial_tables = [s0, s1];
        for &(_lsn, i) in &committed {
            for (w, &(table_idx, n)) in scripts[i].writes.iter().enumerate() {
                let rows: Vec<_> = (0..n)
                    .map(|r| row((i * 100 + w * 10 + r) as i64, &format!("txn{i}")))
                    .collect();
                serial
                    .insert_rows(serial_tables[table_idx], rows)
                    .expect("replay");
            }
        }

        for (concurrent, replayed) in tables.iter().zip(serial_tables.iter()) {
            let got = sdb.with_db(|db| db.heap(*concurrent).rows().to_vec());
            let want = serial.heap(*replayed).rows();
            prop_assert_eq!(&got[..], want, "heaps diverge from serial replay");
        }
    }
}
