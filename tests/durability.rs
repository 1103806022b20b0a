//! Tier-1 integration tests for the durability subsystem, exercised
//! through the facade crate: WAL logging, checkpoint snapshots, crash-point
//! injection, recovery, and the metrics registration of recovery reports.
//!
//! The rel crate's unit tests cover the framing and protocol details; these
//! tests pin the end-to-end contract a user of the facade relies on — a
//! durable database survives a seeded crash with all committed operations
//! intact, physical structures are rebuilt, and the recovery report feeds
//! the deterministic metrics class.

use xmlshred::core::metrics::record_recovery;
use xmlshred::core::MetricsRegistry;
use xmlshred::rel::catalog::{ColumnDef, TableDef};
use xmlshred::rel::db::Database;
use xmlshred::rel::index::IndexDef;
use xmlshred::rel::types::{DataType, Value};
use xmlshred::rel::view::{ViewDef, ViewSide};
use xmlshred::rel::{CrashKind, CrashPoint, PhysicalConfig};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xmlshred-durability-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn parent_def() -> TableDef {
    TableDef::new(
        "parent",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("label", DataType::Str).nullable(),
        ],
    )
}

fn child_def() -> TableDef {
    TableDef::new(
        "child",
        vec![
            ColumnDef::new("pid", DataType::Int),
            ColumnDef::new("score", DataType::Float).nullable(),
        ],
    )
}

fn parent_row(i: i64) -> Vec<Value> {
    vec![Value::Int(i), Value::str(format!("p{i}"))]
}

fn child_row(i: i64) -> Vec<Value> {
    vec![Value::Int(i % 40), Value::Float(i as f64 / 2.0)]
}

/// Load two joined tables, build an index and a view, in a durable
/// directory. Returns the ids in creation order.
fn build_durable(db: &mut Database) -> (xmlshred::rel::TableId, xmlshred::rel::TableId) {
    let parent = db.create_table(parent_def()).expect("create parent");
    let child = db.create_table(child_def()).expect("create child");
    db.insert_rows(parent, (0..40).map(parent_row))
        .expect("load parent");
    db.insert_rows(child, (0..120).map(child_row))
        .expect("load child");
    db.analyze().expect("analyze");
    (parent, child)
}

fn config_for(parent: xmlshred::rel::TableId, child: xmlshred::rel::TableId) -> PhysicalConfig {
    PhysicalConfig {
        indexes: vec![IndexDef::new("ix_child_pid", child, vec![0], vec![])],
        views: vec![ViewDef {
            name: "v_parent_child".into(),
            left: parent,
            right: child,
            left_col: 0,
            right_col: 0,
            outputs: vec![
                (ViewSide::Left, 0),
                (ViewSide::Left, 1),
                (ViewSide::Right, 1),
            ],
        }],
    }
}

#[test]
fn durable_database_survives_torn_tail_crash_mid_load() {
    let dir = temp_dir("torn-load");
    // The uncrashed oracle, in memory.
    let mut oracle = Database::new();
    let (op, oc) = build_durable(&mut oracle);
    oracle
        .apply_config(&config_for(op, oc))
        .expect("oracle config");

    // The durable run dies with a torn frame while loading the child rows
    // (after create+create+parent-load = 3 frames, die on the 4th).
    let mut db = Database::create_durable(&dir).expect("create durable");
    db.set_crash_point(Some(CrashPoint {
        after_writes: 3,
        kind: CrashKind::TornTail,
        seed: 9,
    }))
    .expect("arm");
    let parent = db.create_table(parent_def()).expect("create parent");
    let child = db.create_table(child_def()).expect("create child");
    db.insert_rows(parent, (0..40).map(parent_row))
        .expect("load parent");
    let torn = db.insert_rows(child, (0..120).map(child_row));
    assert!(torn.is_err(), "the armed crash point must kill the load");
    drop(db);

    // Recovery keeps the committed prefix and discards the torn tail. How
    // the tail is classified depends on the seeded tear length: a fragment
    // shorter than one frame header is an incomplete append
    // (`tail_incomplete`), anything longer is a corrupt frame — exactly one
    // of the two fires.
    let (mut db, report) = Database::open_durable(&dir).expect("recover");
    assert_eq!(report.frames_replayed, 3);
    assert_eq!(
        report.frames_discarded + u64::from(report.tail_incomplete),
        1,
        "torn tail must be classified exactly once: {report:?}"
    );
    assert!(report.bytes_discarded > 0);
    assert!(!report.snapshot_loaded);
    assert_eq!(db.heap(parent).len(), 40);
    assert_eq!(db.heap(child).len(), 0);

    // Resuming the lost suffix converges to the oracle.
    db.insert_rows(child, (0..120).map(child_row))
        .expect("reload child");
    db.analyze().expect("analyze");
    db.apply_config(&config_for(parent, child)).expect("config");
    assert_eq!(db.heap(parent).rows(), oracle.heap(op).rows());
    assert_eq!(db.heap(child).rows(), oracle.heap(oc).rows());
    assert_eq!(db.table_stats(parent), oracle.table_stats(op));
    assert_eq!(db.table_stats(child), oracle.table_stats(oc));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_snapshot_carries_physical_config_through_recovery() {
    let dir = temp_dir("checkpoint-config");
    let mut db = Database::create_durable(&dir).expect("create durable");
    let (parent, child) = build_durable(&mut db);
    db.apply_config(&config_for(parent, child)).expect("config");
    db.checkpoint().expect("checkpoint");
    db.insert_rows(child, (120..130).map(child_row))
        .expect("post-checkpoint insert");
    drop(db);

    let (db, report) = Database::open_durable(&dir).expect("recover");
    assert!(report.snapshot_loaded);
    // Only the post-checkpoint insert lives in the log.
    assert_eq!(report.frames_replayed, 1);
    // The snapshot's physical configuration is rebuilt, not lost.
    assert_eq!(report.indexes_rebuilt, 1);
    assert_eq!(report.views_rebuilt, 1);
    assert!(report.pages_verified > 0);
    assert_eq!(db.heap(child).len(), 130);
    std::fs::remove_dir_all(&dir).ok();
}

/// Statistics change only through `ANALYZE` and installed statistics, so
/// rows inserted after the last `ANALYZE` leave them stale. A checkpoint
/// carries them as they are: recovery restores the snapshot's statistics
/// frames, not a fresh analyze of the restored rows.
#[test]
fn checkpoint_carries_stale_statistics_through_recovery() {
    let dir = temp_dir("stale-stats");
    let mut db = Database::create_durable(&dir).expect("create durable");
    let t = db.create_table(parent_def()).expect("create table");
    db.insert_rows(t, (0..40).map(parent_row)).expect("load");
    db.analyze().expect("analyze");
    db.insert_rows(t, (40..60).map(parent_row)).expect("insert");
    db.checkpoint().expect("checkpoint");
    let live = db.all_stats().to_vec();
    assert_eq!(live[t.index()].rows, 40, "inserts leave statistics stale");
    drop(db);

    let (db, report) = Database::open_durable(&dir).expect("recover");
    assert!(report.snapshot_loaded);
    assert_eq!(db.heap(t).len(), 60);
    assert_eq!(db.all_stats(), live, "recovered stats differ from live");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_crash_never_resurrects_a_corrupt_frame() {
    let dir = temp_dir("bit-flip");
    let mut db = Database::create_durable(&dir).expect("create durable");
    let parent = db.create_table(parent_def()).expect("create parent");
    for i in 0..6 {
        db.insert_rows(parent, [parent_row(i)]).expect("insert");
    }
    db.set_crash_point(Some(CrashPoint {
        after_writes: 0,
        kind: CrashKind::BitFlip,
        seed: 1234,
    }))
    .expect("arm");
    // Committed so far: create + 6 single-row inserts = 7 LSNs. The crash
    // countdown starts at arming, so the next insert's frame hits the disk
    // flipped.
    assert!(db.insert_rows(parent, [parent_row(6)]).is_err());
    drop(db);

    let (db, report) = Database::open_durable(&dir).expect("recover");
    assert_eq!(report.frames_replayed, 7);
    assert_eq!(report.frames_discarded, 1);
    assert_eq!(report.next_lsn, 7);
    assert_eq!(db.heap(parent).len(), 6, "the corrupt row must not appear");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_reports_register_into_deterministic_metrics() {
    let dir = temp_dir("metrics");
    let mut db = Database::create_durable(&dir).expect("create durable");
    let (parent, child) = build_durable(&mut db);
    db.apply_config(&config_for(parent, child)).expect("config");
    db.checkpoint().expect("checkpoint");
    drop(db);

    let (_db, report) = Database::open_durable(&dir).expect("recover");
    let registry = MetricsRegistry::new();
    record_recovery(&registry, &report);
    let snapshot = registry.snapshot();
    for (name, value) in report.metric_counters() {
        assert_eq!(
            snapshot.deterministic.get(name).copied(),
            Some(value),
            "counter {name} must land in the deterministic class"
        );
    }
    // The JSON rendering carries the same counters, for CI artifacts.
    let json = report.to_json();
    for (name, value) in report.metric_counters() {
        assert!(
            json.contains(&format!("\"{name}\": {value}")),
            "JSON report must carry {name}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_is_identical_regardless_of_exec_thread_count() {
    let dir = temp_dir("thread-invariance");
    let mut db = Database::create_durable(&dir).expect("create durable");
    let (parent, child) = build_durable(&mut db);
    db.set_crash_point(Some(CrashPoint {
        after_writes: 5,
        kind: CrashKind::TornTail,
        seed: 77,
    }))
    .expect("arm");
    let _ = db.apply_config(&config_for(parent, child));
    drop(db);

    // Recovery is a pure function of the directory bytes. `recover` is the
    // read-only entry point (`open_durable` additionally truncates the torn
    // tail on disk), so two calls must agree exactly.
    let (db_a, report_a) = xmlshred::rel::recovery::recover(&dir).expect("recover");
    let (db_b, report_b) = xmlshred::rel::recovery::recover(&dir).expect("recover again");
    assert_eq!(report_a, report_b);
    assert_eq!(db_a.heap(parent).rows(), db_b.heap(parent).rows());
    assert_eq!(db_a.heap(child).rows(), db_b.heap(child).rows());

    // Opening under different executor thread settings changes nothing
    // about the recovered state either.
    let mut row_sets = Vec::new();
    for threads in [1usize, 4] {
        let (mut db, report) = Database::open_durable(&dir).expect("open");
        db.set_exec_options(xmlshred::rel::ExecOptions {
            threads,
            ..Default::default()
        });
        assert_eq!(report.frames_replayed, report_a.frames_replayed);
        assert_eq!(report.next_lsn, report_a.next_lsn);
        row_sets.push((
            db.heap(parent).rows().to_vec(),
            db.heap(child).rows().to_vec(),
        ));
    }
    assert_eq!(row_sets[0], row_sets[1]);
    std::fs::remove_dir_all(&dir).ok();
}
