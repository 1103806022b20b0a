//! Self-healing storage: corruption quarantine, degraded replanning, and
//! online repair (DESIGN.md §12).
//!
//! The contract under test: for seeded corruption of any *derived*
//! structure (index or materialized view), a SELECT
//! never fails — the statement completes against the degraded
//! configuration, the damaged structure is rebuilt afterwards, and every
//! post-heal query is bit-identical (rows, [`ExecStats`], fault-plane
//! charges) to an uncorrupted oracle. Row-heap corruption is repaired from
//! the durable snapshot + committed WAL suffix when the database is
//! durable, and propagates as a typed error when it is not.

use xmlshred::core::metrics::{record_heal, record_scrub};
use xmlshred::core::MetricsRegistry;
use xmlshred::rel::catalog::{ColumnDef, TableDef, TableId};
use xmlshred::rel::db::Database;
use xmlshred::rel::expr::{Filter, FilterOp};
use xmlshred::rel::index::IndexDef;
use xmlshred::rel::snapshot::{SNAPSHOT_FILE, WAL_FILE};
use xmlshred::rel::sql::{JoinCond, Output, SelectQuery, SqlQuery, UnionAllQuery};
use xmlshred::rel::types::{DataType, Value};
use xmlshred::rel::view::{ViewDef, ViewSide};
use xmlshred::rel::{
    ExecOptions, ExecStats, FaultConfig, FaultStats, PhysicalConfig, RelError, SessionDb,
    SnapshotVisibility, StmtCtx, StructureKind,
};

// ------------------------------------------------------------- fixture --

/// The Section 1.1 scenario: publications plus an author child table.
fn build_db(n_pubs: i64) -> (Database, TableId, TableId) {
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
        db.insert(
            inproc,
            vec![
                Value::Int(i),
                Value::Int(0),
                Value::str(format!("Paper {i}")),
                Value::str(format!("CONF{}", i % 50)),
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

/// One more publication, as a row of `inproc`.
fn pub_row(id: i64, conf: &str) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Int(0),
        Value::str(format!("Paper {id}")),
        Value::str(conf),
        Value::Int(2004),
    ]
}

/// A configuration exercising both derived structure kinds.
fn full_config(inproc: TableId, author: TableId) -> PhysicalConfig {
    PhysicalConfig {
        indexes: vec![
            IndexDef::new("ix_conf", inproc, vec![3], vec![0, 2, 4]),
            IndexDef::new("ix_pid", author, vec![1], vec![0, 2]),
        ],
        views: vec![ViewDef {
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
        }],
    }
}

/// Arm a fresh checksum-verifying fault plane (zero fault probabilities,
/// generous page budget so budget charges are observable).
fn arm_verification(db: &mut Database, seed: u64) {
    db.set_fault_config(FaultConfig {
        seed,
        budget_pages: Some(u64::MAX),
        verify_checksums: true,
        ..FaultConfig::default()
    });
}

fn stats_bits(stats: &ExecStats) -> (u64, u64, usize, u64) {
    (
        stats.io_cost.to_bits(),
        stats.cpu_cost.to_bits(),
        stats.rows_out,
        stats.tuples_processed,
    )
}

fn fault_charges(db: &Database) -> FaultStats {
    db.fault_plane().expect("plane armed").snapshot()
}

// ------------------------------------------------- derived structures --

/// A configuration containing only the structure kind under test, so the
/// planner's preferred access path runs straight through the corruption.
fn config_for(kind: StructureKind, inproc: TableId, author: TableId) -> PhysicalConfig {
    let full = full_config(inproc, author);
    match kind {
        StructureKind::Index => PhysicalConfig {
            indexes: full.indexes,
            ..PhysicalConfig::none()
        },
        StructureKind::View => PhysicalConfig {
            views: full.views,
            ..PhysicalConfig::none()
        },
        StructureKind::Heap => unreachable!("derived kinds only"),
    }
}

/// Corrupt one derived structure of the given kind in-place.
fn corrupt_structure(db: &mut Database, kind: StructureKind) {
    match kind {
        StructureKind::Index => {
            assert!(db
                .built_mut()
                .index_mut("ix_conf")
                .unwrap()
                .corrupt_entry(3));
        }
        StructureKind::View => {
            assert!(db.built_mut().view_mut("v_ia").unwrap().corrupt_row(11));
        }
        StructureKind::Heap => unreachable!("derived kinds only"),
    }
}

#[test]
fn corrupted_derived_structures_never_fail_a_select() {
    for kind in [StructureKind::Index, StructureKind::View] {
        // Oracle: identical database, never corrupted, same fault config.
        let (mut oracle, o_inproc, o_author) = build_db(600);
        oracle
            .apply_config(&config_for(kind, o_inproc, o_author))
            .unwrap();
        arm_verification(&mut oracle, 42);
        let expected = oracle.execute(&paper_query(o_inproc, o_author)).unwrap();

        let (mut db, inproc, author) = build_db(600);
        db.apply_config(&config_for(kind, inproc, author)).unwrap();
        corrupt_structure(&mut db, kind);
        arm_verification(&mut db, 42);
        let query = paper_query(inproc, author);

        // A plain execute would fail with a typed corruption error…
        let err = db.execute(&query).unwrap_err();
        assert!(
            matches!(err, RelError::Corrupted { kind: k, .. } if k == kind),
            "{kind:?}: got {err:?}"
        );

        // …but the healing path completes the statement with the right
        // rows, quarantines and then rebuilds the damaged structure.
        arm_verification(&mut db, 42);
        let (outcome, report) = db.execute_healing(&query).unwrap();
        assert_eq!(outcome.rows, expected.rows, "{kind:?}: degraded rows");
        assert_eq!(report.quarantined, 1, "{kind:?}");
        assert_eq!(report.rebuilt, 1, "{kind:?}");
        assert_eq!(report.retries, 1, "{kind:?}");
        assert!(report.degraded_plans >= 1, "{kind:?}");
        assert_eq!(report.heap_repairs, 0, "{kind:?}");
        assert_eq!(report.rebuild_failures, 0, "{kind:?}");
        assert_eq!(report.events.len(), 1, "{kind:?}");
        assert_eq!(report.events[0].kind, kind);
        assert!(report.backoff_nanos > 0, "{kind:?}: backoff recorded");
        assert!(db.quarantined_structures().is_empty(), "{kind:?}");
        assert!(db.scrub().is_clean(), "{kind:?}: repair left damage");

        // Post-heal, the structure is used again and every observable —
        // rows, ExecStats bits, fault-plane charges — matches the oracle.
        arm_verification(&mut db, 42);
        let healed = db.execute(&query).unwrap();
        assert_eq!(healed.rows, expected.rows, "{kind:?}");
        assert_eq!(
            stats_bits(&healed.exec),
            stats_bits(&expected.exec),
            "{kind:?}"
        );
        // Fresh planes on both sides: one statement each.
        arm_verification(&mut db, 42);
        let (mut oracle2, o2_inproc, o2_author) = build_db(600);
        oracle2
            .apply_config(&config_for(kind, o2_inproc, o2_author))
            .unwrap();
        arm_verification(&mut oracle2, 42);
        db.execute(&query).unwrap();
        oracle2.execute(&paper_query(o2_inproc, o2_author)).unwrap();
        assert_eq!(fault_charges(&db), fault_charges(&oracle2), "{kind:?}");
    }
}

#[test]
fn heal_metrics_are_deterministic_across_thread_counts() {
    let mut reports = Vec::new();
    let mut rows = Vec::new();
    for threads in [1usize, 4] {
        let (mut db, inproc, author) = build_db(600);
        db.apply_config(&full_config(inproc, author)).unwrap();
        db.set_exec_options(ExecOptions {
            threads,
            ..ExecOptions::default()
        });
        assert!(db
            .built_mut()
            .index_mut("ix_conf")
            .unwrap()
            .corrupt_entry(4));
        assert!(db.built_mut().view_mut("v_ia").unwrap().corrupt_row(5));
        arm_verification(&mut db, 7);
        let (outcome, report) = db.execute_healing(&paper_query(inproc, author)).unwrap();
        rows.push(outcome.rows);
        reports.push(report);
    }
    assert_eq!(rows[0], rows[1]);
    assert_eq!(reports[0], reports[1]);

    // The registered heal.* counters are deterministic-class metrics.
    let registry = MetricsRegistry::new();
    record_heal(&registry, &reports[0]);
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.deterministic.get("heal.quarantined"),
        Some(&reports[0].quarantined)
    );
    assert_eq!(
        snapshot.deterministic.get("heal.rebuilt"),
        Some(&reports[0].rebuilt)
    );
    assert_eq!(
        snapshot.deterministic.get("heal.degraded_plans"),
        Some(&reports[0].degraded_plans)
    );
    assert!(snapshot.schedule.is_empty());
}

// ------------------------------------------------------------ row heap --

#[test]
fn durable_heap_corruption_is_repaired_from_snapshot_and_wal() {
    let dir = std::env::temp_dir().join(format!("xmlshred-heal-heap-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut db = Database::create_durable(&dir).unwrap();
    let t = db
        .create_table(TableDef::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Str),
            ],
        ))
        .unwrap();
    for i in 0..300 {
        db.insert(t, vec![Value::Int(i), Value::str(format!("r{i}"))])
            .unwrap();
    }
    db.analyze().unwrap();
    // Absorb a prefix into the snapshot so repair must stitch snapshot
    // rows together with the committed WAL suffix.
    db.checkpoint().unwrap();
    for i in 300..400 {
        db.insert(t, vec![Value::Int(i), Value::str(format!("r{i}"))])
            .unwrap();
    }
    db.analyze().unwrap();

    let mut query = SelectQuery::single(t);
    query.outputs = vec![Output::col(0, 0), Output::col(0, 1)];
    let query = SqlQuery::Union(UnionAllQuery {
        branches: vec![query],
        order_by: vec![0],
    });
    let expected = db.execute(&query).unwrap();

    db.heap_mut(t).unwrap().corrupt_row(350);
    arm_verification(&mut db, 9);
    let (outcome, report) = db.execute_healing(&query).unwrap();
    assert_eq!(outcome.rows, expected.rows);
    assert_eq!(report.heap_repairs, 1);
    assert_eq!(report.quarantined, 0);
    assert_eq!(report.events.len(), 1);
    assert_eq!(report.events[0].kind, StructureKind::Heap);
    assert!(db.scrub().is_clean());

    // The repair is genuine: a fresh statement sees the clean heap.
    let after = db.execute(&query).unwrap();
    assert_eq!(after.rows, expected.rows);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_refuses_to_persist_a_corrupted_heap() {
    let dir = std::env::temp_dir().join(format!("xmlshred-heal-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut db = Database::create_durable(&dir).unwrap();
    let t = db
        .create_table(TableDef::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("b", DataType::Int),
            ],
        ))
        .unwrap();
    db.insert_rows(t, (0..10).map(|i| vec![Value::Int(i), Value::Int(i)]))
        .unwrap();
    let snapshot = dir.join(SNAPSHOT_FILE);
    let log_before = std::fs::read(dir.join(WAL_FILE)).unwrap();

    arm_verification(&mut db, 0);
    db.heap_mut(t).unwrap().corrupt_row(3);
    let err = db.checkpoint().unwrap_err();
    assert!(
        matches!(
            err,
            RelError::Corrupted {
                kind: StructureKind::Heap,
                ..
            }
        ),
        "got {err:?}"
    );
    // Nothing on disk moved: no snapshot, and the log that can still
    // repair the heap is intact.
    assert!(!snapshot.exists());
    assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), log_before);
    drop(db);
    let (db, _) = Database::open_durable(&dir).unwrap();
    assert_eq!(db.heap(t).row(3), Some(&vec![Value::Int(3), Value::Int(3)]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heap_corruption_without_durability_propagates() {
    let (mut db, inproc, author) = build_db(200);
    db.heap_mut(inproc).unwrap().corrupt_row(42);
    arm_verification(&mut db, 0);
    let err = db
        .execute_healing(&paper_query(inproc, author))
        .unwrap_err();
    assert!(
        matches!(
            err,
            RelError::Corrupted {
                kind: StructureKind::Heap,
                ..
            }
        ),
        "got {err:?}"
    );
}

// --------------------------------------------------------------- scrub --

#[test]
fn scrub_reports_every_corruption_site_typed() {
    let (mut db, inproc, author) = build_db(400);
    db.apply_config(&full_config(inproc, author)).unwrap();
    assert!(db.scrub().is_clean());

    db.heap_mut(author).unwrap().corrupt_row(17);
    assert!(db
        .built_mut()
        .index_mut("ix_conf")
        .unwrap()
        .corrupt_entry(2));
    assert!(db.built_mut().view_mut("v_ia").unwrap().corrupt_row(3));

    let report = db.scrub();
    assert!(!report.is_clean());
    assert_eq!(report.heaps_checked, 2);
    assert_eq!(report.indexes_checked, 2);
    assert_eq!(report.views_checked, 1);
    let kinds: Vec<StructureKind> = report.corruptions.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            StructureKind::Heap,
            StructureKind::Index,
            StructureKind::View
        ]
    );
    // Scrub is read-only and deterministic.
    assert_eq!(report, db.scrub());

    let registry = MetricsRegistry::new();
    record_scrub(&registry, &report);
    assert_eq!(
        registry.snapshot().deterministic.get("scrub.corruptions"),
        Some(&3)
    );
}

// ------------------------------------------------ fault-plane neutrality --

/// A failed attempt leaves no trace on the fault plane. The engine has one
/// neutrality mechanism with two users, covered here by one table: a
/// statement that times out (every `StmtCtx` shape), and a corruption retry
/// inside `execute_healing`. `PlaneState` is a superset of
/// `FaultPlane::snapshot()` — it adds the token serial, which is the one
/// counter a statement cancelled at its first poll has already moved.
#[test]
fn failed_attempts_leave_no_trace_on_the_fault_plane() {
    let kind = StructureKind::Index;
    let (mut db, inproc, author) = build_db(600);
    db.apply_config(&config_for(kind, inproc, author)).unwrap();
    arm_verification(&mut db, 42);
    let query = paper_query(inproc, author);
    let vis = SnapshotVisibility {
        lsn: 0,
        visible: vec![db.heap(inproc).len(), db.heap(author).len()],
    };
    let pending = [(inproc, vec![pub_row(600, "CONF7")])];
    let deadline = Some(std::time::Instant::now());
    let timeouts = [
        (
            "library",
            StmtCtx {
                deadline,
                ..StmtCtx::default()
            },
        ),
        (
            "snapshot",
            StmtCtx {
                snapshot: Some(&vis),
                deadline,
                ..StmtCtx::default()
            },
        ),
        (
            "snapshot+pending",
            StmtCtx {
                snapshot: Some(&vis),
                deadline,
                pending: &pending,
            },
        ),
    ];
    for (row, ctx) in timeouts {
        let plane = db.fault_plane().expect("plane armed");
        let before = (plane.snapshot(), plane.save());
        let err = db.run(&query, &ctx).expect_err("expired deadline cancels");
        assert!(matches!(err, RelError::Timeout { .. }), "{row}: {err:?}");
        assert!(err.is_transient(), "{row}");
        assert_eq!((plane.snapshot(), plane.save()), before, "{row}");
    }

    // The heal loop's retry: the attempt that tripped over the corrupted
    // index drew a planner token and verified the heap before failing. A
    // twin that never saw the corruption — planned without the index from
    // the start — must end in the same plane state.
    corrupt_structure(&mut db, kind);
    arm_verification(&mut db, 42);
    let (outcome, report) = db.execute_healing(&query).unwrap();
    assert_eq!(report.retries, 1);
    let (mut twin, t_inproc, t_author) = build_db(600);
    let mut degraded = config_for(kind, t_inproc, t_author);
    degraded.indexes.retain(|index| index.name != "ix_conf");
    twin.apply_config(&degraded).unwrap();
    arm_verification(&mut twin, 42);
    let expected = twin.execute(&paper_query(t_inproc, t_author)).unwrap();
    assert_eq!(outcome.rows, expected.rows);
    assert_eq!(stats_bits(&outcome.exec), stats_bits(&expected.exec));
    assert_eq!(
        db.fault_plane().expect("plane armed").save(),
        twin.fault_plane().expect("plane armed").save(),
        "heal retry"
    );
}

/// An own-write read is a first-class statement: it runs on the shared
/// engine, so it charges the page budget and walks the heap checksums
/// exactly like the plain snapshot read one statement earlier. (It used to run on a private plane-less copy of the visible
/// rows, which answered silently from a damaged page.)
#[test]
fn own_write_reads_verify_and_charge_like_snapshot_reads() {
    let (mut db, inproc, author) = build_db(600);
    assert!(db.heap_mut(inproc).unwrap().corrupt_row(17));
    arm_verification(&mut db, 42);
    let sdb = SessionDb::new(db);
    let query = paper_query(inproc, author);
    let charged = || sdb.with_db(|db| fault_charges(db).pages_charged);
    let is_heap_corruption = |err: &RelError| {
        matches!(
            err,
            RelError::Corrupted {
                kind: StructureKind::Heap,
                ..
            }
        )
    };

    let mut txn = sdb.begin();
    let err = txn.query(&query).expect_err("snapshot read hits the page");
    assert!(is_heap_corruption(&err), "snapshot read: {err:?}");
    let plain = charged();
    assert!(plain > 0, "the snapshot read charged the budget");

    txn.insert_rows(inproc, vec![pub_row(600, "CONF7")])
        .unwrap();
    let err = txn.query(&query).expect_err("own-write read hits it too");
    assert!(is_heap_corruption(&err), "own-write read: {err:?}");
    assert_eq!(
        charged() - plain,
        plain,
        "the own-write read charges the snapshot read's pages"
    );
}

// ----------------------------------------- once-per-statement verification --

#[test]
fn each_structure_is_verified_at_most_once_per_statement() {
    let (mut db, inproc, author) = build_db(600);
    db.apply_config(&full_config(inproc, author)).unwrap();
    arm_verification(&mut db, 0);
    let query = paper_query(inproc, author);

    db.execute(&query).unwrap();
    let plane = db.fault_plane().expect("plane armed");
    let first = plane.verifications();
    let first_charges = plane.snapshot();
    assert!(first > 0, "statement verified at least one structure");

    // The same statement again: the per-statement ledger resets, so the
    // count doubles exactly — no structure is verified twice within one
    // statement, none is skipped across statements.
    db.execute(&query).unwrap();
    let plane = db.fault_plane().expect("plane armed");
    assert_eq!(plane.verifications(), 2 * first);
    // Verification itself is charge-free: the second statement charged
    // exactly what the first did.
    let second_charges = plane.snapshot();
    assert_eq!(
        second_charges.pages_charged,
        2 * first_charges.pages_charged
    );

    // Index and view paths individually: drive each access
    // path with a dedicated statement and confirm the dedup holds there.
    let mut by_view = SelectQuery::single(inproc);
    by_view.tables.push(author);
    by_view.joins.push(JoinCond {
        left_ref: 0,
        left_col: 0,
        right_ref: 1,
        right_col: 1,
    });
    by_view.outputs = vec![Output::col(0, 0), Output::col(0, 3), Output::col(1, 2)];
    let by_view = SqlQuery::Union(UnionAllQuery {
        branches: vec![by_view],
        order_by: vec![0],
    });
    arm_verification(&mut db, 0);
    db.execute(&by_view).unwrap();
    let per_statement = db.fault_plane().expect("plane armed").verifications();
    db.execute(&by_view).unwrap();
    assert_eq!(
        db.fault_plane().expect("plane armed").verifications(),
        2 * per_statement
    );
}
