//! Tier-1 integration tests for the online self-tuning loop, exercised
//! through the facade crate:
//!
//! * **Determinism** — the same seeded statement schedule produces
//!   bit-identical drift decisions, installed configuration fingerprints,
//!   and query answers at executor thread counts 1 and 4.
//! * **Crash safety** — an online configuration swap on a durable
//!   database follows the validate→log→install discipline: a crash
//!   injected into the `ApplyConfig` log write recovers the *old* design,
//!   a completed swap recovers the *new* one, and committed rows survive
//!   either way.
//!
//! Each insert through `AdaptiveDb` is followed by an `ANALYZE`, so the
//! loop tunes against statistics of the heaps it runs on.

use xmlshred::core::profile::{AdaptiveDb, ProfileOptions};
use xmlshred::rel::catalog::{ColumnDef, TableDef};
use xmlshred::rel::db::Database;
use xmlshred::rel::expr::{Filter, FilterOp};
use xmlshred::rel::index::IndexDef;
use xmlshred::rel::optimizer::config_fingerprint;
use xmlshred::rel::sql::{Output, SelectQuery, SqlQuery};
use xmlshred::rel::types::{DataType, Value};
use xmlshred::rel::{CrashKind, CrashPoint, ExecOptions, PhysicalConfig, SessionDb, TableId};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xmlshred-adapt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// splitmix64, local so the digest needs no bench-crate dependency.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fold(hash: u64, value: u64) -> u64 {
    mix(hash ^ value.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

fn table_def() -> TableDef {
    TableDef::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Int),
        ],
    )
}

fn make_row(i: i64) -> Vec<Value> {
    vec![Value::Int(i), Value::Int(i % 13), Value::Int(i % 5)]
}

fn filter_query(table: TableId, col: usize, v: i64) -> SqlQuery {
    let mut q = SelectQuery::single(table);
    q.filters = vec![Filter::new(0, col, FilterOp::Eq, Value::Int(v))];
    q.outputs = vec![Output::col(0, 0), Output::col(0, col)];
    SqlQuery::Select(q)
}

/// Run the shifting-workload scenario at the given executor parallelism;
/// digest every answer, every drift decision, and every installed design.
fn run_scenario(exec_threads: usize) -> (u64, Vec<Option<u64>>) {
    let mut db = Database::new();
    db.set_exec_options(ExecOptions {
        threads: exec_threads,
        ..ExecOptions::default()
    });
    let table = db.create_table(table_def()).expect("create table");
    db.insert_rows(table, (0..600).map(make_row)).expect("load");
    db.analyze().expect("analyze");
    let mut adb = AdaptiveDb::new(
        SessionDb::new(db),
        ProfileOptions {
            window: 24,
            min_statements: 24,
            seed: 11,
            ..ProfileOptions::default()
        },
    );
    let mut hash = 0x5eed_u64;
    let mut next = 600i64;
    for i in 0..96u64 {
        let roll = mix(11 ^ i);
        if roll.is_multiple_of(6) {
            let rows: Vec<Vec<Value>> = (next..next + 4).map(make_row).collect();
            next += 4;
            adb.insert_rows(table, rows).expect("insert");
        } else {
            let pick = (roll >> 8) as i64;
            let query = if i < 48 {
                filter_query(table, 1, pick.rem_euclid(13))
            } else {
                filter_query(table, 2, pick.rem_euclid(5))
            };
            let outcome = adb.execute(&query).expect("query");
            hash = fold(hash, outcome.rows.len() as u64);
            for row in &outcome.rows {
                for value in row {
                    hash = fold(hash, format!("{value:?}").len() as u64);
                }
            }
            hash = fold(hash, outcome.exec.io_cost.to_bits());
            hash = fold(hash, outcome.exec.cpu_cost.to_bits());
        }
    }
    let applied: Vec<Option<u64>> = adb.events().iter().map(|e| e.applied).collect();
    (fold(hash, adb.digest()), applied)
}

/// Each insert through `AdaptiveDb` is followed by an `ANALYZE`, so the
/// statistics the loop tunes and plans against equal a fresh analyze of
/// the heaps.
#[test]
fn adaptive_inserts_leave_statistics_equal_to_a_fresh_analyze() {
    let mut db = Database::new();
    let table = db.create_table(table_def()).expect("create table");
    db.insert_rows(table, (0..100).map(make_row)).expect("load");
    db.analyze().expect("analyze");
    let mut adb = AdaptiveDb::new(SessionDb::new(db), ProfileOptions::default());
    let rows = (100..140).map(make_row).collect();
    adb.insert_rows(table, rows).expect("insert");
    let after_insert = adb.session().with_db(|db| db.all_stats().to_vec());
    adb.session().analyze().expect("analyze");
    adb.session()
        .with_db(|db| assert_eq!(db.all_stats(), &after_insert[..]));
    assert_eq!(after_insert[table.index()].rows, 140);
}

#[test]
fn adaptive_loop_bit_identical_across_exec_threads() {
    let (h1, a1) = run_scenario(1);
    let (h4, a4) = run_scenario(4);
    assert_eq!(h1, h4, "adapt digest varies with executor threads");
    assert_eq!(a1, a4, "installed designs vary with executor threads");
    assert!(
        a1.iter().any(Option::is_some),
        "the advisor never installed a design"
    );
}

#[test]
fn online_swap_survives_crash_and_recovery() {
    let dir = temp_dir("swap");
    let config = |t: TableId| PhysicalConfig {
        indexes: vec![IndexDef::new("ix_a", t, vec![1], vec![])],
        views: vec![],
    };

    // Completed swap: recovery rebuilds the new design.
    let mut db = Database::create_durable(&dir).expect("create durable");
    let t = db.create_table(table_def()).expect("create table");
    db.insert_rows(t, (0..120).map(make_row)).expect("load");
    db.analyze().expect("analyze");
    let sdb = SessionDb::new(db);
    let report = sdb.apply_config_online(&config(t)).expect("online swap");
    assert_eq!(report.installed, (1, 0));
    drop(sdb);
    let (db, recovery) = Database::open_durable(&dir).expect("recover");
    assert_eq!(recovery.indexes_rebuilt, 1);
    assert_eq!(
        config_fingerprint(db.built_config()),
        config_fingerprint(&config(t)),
        "recovery lost the online-swapped design"
    );
    assert_eq!(db.heap(t).len(), 120);

    // Crashed swap: a crash injected into the ApplyConfig log write
    // recovers the old (swapped) design — the torn record is discarded.
    let mut db = db;
    db.set_crash_point(Some(CrashPoint {
        after_writes: 0,
        kind: CrashKind::TornTail,
        seed: 3,
    }))
    .expect("arm crash point");
    let sdb = SessionDb::new(db);
    let bigger = PhysicalConfig {
        indexes: vec![
            IndexDef::new("ix_a", t, vec![1], vec![]),
            IndexDef::new("ix_b", t, vec![2], vec![]),
        ],
        views: vec![],
    };
    let err = sdb.apply_config_online(&bigger).expect_err("swap crashes");
    assert!(
        matches!(err, xmlshred::rel::RelError::Crashed(_)),
        "got {err:?}"
    );
    drop(sdb);
    let (db, _) = Database::open_durable(&dir).expect("recover after crash");
    assert_eq!(
        config_fingerprint(db.built_config()),
        config_fingerprint(&config(t)),
        "a torn ApplyConfig record must leave the previous design"
    );
    assert_eq!(db.heap(t).len(), 120, "rows lost across the crashed swap");
    std::fs::remove_dir_all(&dir).ok();
}
