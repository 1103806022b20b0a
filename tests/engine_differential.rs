//! Differential testing of the relational engine: for random tables and
//! random conjunctive select-project-join queries, the optimizer+executor
//! must return exactly what a brute-force nested-loop evaluation returns —
//! under every physical configuration (no indexes, narrow indexes, covering
//! indexes, join views). And the engine's one
//! statement path must not care who calls it: over both fixtures' workload
//! queries, the library context and a full-visibility snapshot (what a
//! session passes) return the same bits.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use xmlshred::data::dblp::{generate_dblp, DblpConfig};
use xmlshred::data::movie::{generate_movie, MovieConfig};
use xmlshred::data::workload::{
    dblp_workload, movie_workload, Projections, Selectivity, WorkloadSpec,
};
use xmlshred::data::Dataset;
use xmlshred::prelude::{derive_schema, load_database, translate, tune, Mapping};
use xmlshred::rel::catalog::{ColumnDef, TableDef, TableId};
use xmlshred::rel::db::Database;
use xmlshred::rel::expr::{Filter, FilterOp};
use xmlshred::rel::index::IndexDef;
use xmlshred::rel::optimizer::PhysicalConfig;
use xmlshred::rel::plan::QueryPlan;
use xmlshred::rel::sql::{JoinCond, Output, SelectQuery, SqlQuery, UnionAllQuery};
use xmlshred::rel::types::{DataType, Row, Value};
use xmlshred::rel::view::{ViewDef, ViewSide};
use xmlshred::rel::{ExecOptions, QueryOutcome, RelError, SessionDb, SnapshotVisibility, StmtCtx};

/// Build a parent/child database from generated rows.
fn build_db(
    parents: &[(i64, i64, String)],
    children: &[(i64, i64, i64)],
) -> (Database, TableId, TableId) {
    let mut db = Database::new();
    let parent = db
        .create_table(TableDef::new(
            "parent",
            vec![
                ColumnDef::new("ID", DataType::Int),
                ColumnDef::new("grp", DataType::Int),
                ColumnDef::new("name", DataType::Str),
            ],
        ))
        .unwrap();
    let child = db
        .create_table(TableDef::new(
            "child",
            vec![
                ColumnDef::new("ID", DataType::Int),
                ColumnDef::new("PID", DataType::Int),
                ColumnDef::new("val", DataType::Int),
            ],
        ))
        .unwrap();
    for (id, grp, name) in parents {
        db.insert(
            parent,
            vec![Value::Int(*id), Value::Int(*grp), Value::str(name)],
        )
        .unwrap();
    }
    for (id, pid, val) in children {
        db.insert(
            child,
            vec![Value::Int(*id), Value::Int(*pid), Value::Int(*val)],
        )
        .unwrap();
    }
    db.analyze().unwrap();
    (db, parent, child)
}

/// Brute-force evaluation of one select block by nested loops.
fn brute_force(db: &Database, query: &SelectQuery) -> Vec<Row> {
    brute_force_over(&|table| db.heap(table).rows(), query)
}

/// [`brute_force`] over the rows `rows_of` hands out for each table.
fn brute_force_over<'r>(rows_of: &dyn Fn(TableId) -> &'r [Row], query: &SelectQuery) -> Vec<Row> {
    // Cartesian product of all table occurrences, each filtered first.
    let mut combos: Vec<Vec<Row>> = vec![Vec::new()];
    for (occurrence, &table) in query.tables.iter().enumerate() {
        let own = |f: &&Filter| f.table_ref == occurrence;
        let passes = |row: &&Row| {
            (query.filters.iter().filter(own)).all(|f| f.op.eval(&row[f.column], &f.value))
        };
        let mut next = Vec::new();
        for combo in &combos {
            for row in rows_of(table).iter().filter(passes) {
                let mut extended = combo.clone();
                extended.push(row.clone());
                next.push(extended);
            }
        }
        combos = next;
    }
    combos
        .into_iter()
        .filter(|combo| {
            query
                .joins
                .iter()
                .all(|j| combo[j.left_ref][j.left_col].sql_eq(&combo[j.right_ref][j.right_col]))
                && query
                    .filters
                    .iter()
                    .all(|f| f.op.eval(&combo[f.table_ref][f.column], &f.value))
        })
        .map(|combo| {
            query
                .outputs
                .iter()
                .map(|o| match o {
                    Output::Col { table_ref, column } => combo[*table_ref][*column].clone(),
                    Output::Null(_) => Value::Null,
                })
                .collect()
        })
        .collect()
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b) {
            let ord = x.total_cmp(y);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

/// All physical configurations to differentially test.
fn configs(parent: TableId, child: TableId) -> Vec<(&'static str, PhysicalConfig)> {
    vec![
        ("none", PhysicalConfig::none()),
        (
            "narrow-indexes",
            PhysicalConfig {
                indexes: vec![
                    IndexDef::new("ix_grp", parent, vec![1], vec![]),
                    IndexDef::new("ix_pid", child, vec![1], vec![]),
                ],
                views: vec![],
            },
        ),
        (
            "covering-indexes",
            PhysicalConfig {
                indexes: vec![
                    IndexDef::new("ix_grp_c", parent, vec![1], vec![0, 2]),
                    IndexDef::new("ix_pid_c", child, vec![1], vec![0, 2]),
                ],
                views: vec![],
            },
        ),
        (
            "join-view",
            PhysicalConfig {
                indexes: vec![],
                views: vec![ViewDef {
                    name: "v_pc".into(),
                    left: parent,
                    right: child,
                    left_col: 0,
                    right_col: 1,
                    outputs: vec![
                        (ViewSide::Left, 0),
                        (ViewSide::Left, 1),
                        (ViewSide::Left, 2),
                        (ViewSide::Right, 2),
                    ],
                }],
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn executor_matches_brute_force(
        parents in proptest::collection::vec((0i64..40, 0i64..5, "[a-c]{1,2}"), 1..30),
        children in proptest::collection::vec((100i64..200, 0i64..40, 0i64..10), 0..60),
        grp_probe in 0i64..5,
        val_probe in 0i64..10,
        op_choice in 0usize..4,
    ) {
        // Deduplicate parent IDs (primary key).
        let mut seen = std::collections::HashSet::new();
        let parents: Vec<(i64, i64, String)> = parents
            .into_iter()
            .filter(|(id, _, _)| seen.insert(*id))
            .collect();
        let (mut db, parent, child) = build_db(&parents, &children);

        let op = [FilterOp::Eq, FilterOp::Le, FilterOp::Gt, FilterOp::Ne][op_choice];

        // A single-table query and a join query.
        let mut single = SelectQuery::single(parent);
        single.filters = vec![Filter::new(0, 1, op, Value::Int(grp_probe))];
        single.outputs = vec![Output::col(0, 0), Output::col(0, 2)];

        let mut join = SelectQuery::single(parent);
        join.tables.push(child);
        join.joins.push(JoinCond { left_ref: 0, left_col: 0, right_ref: 1, right_col: 1 });
        join.filters = vec![
            Filter::new(0, 1, op, Value::Int(grp_probe)),
            Filter::new(1, 2, FilterOp::Ge, Value::Int(val_probe)),
        ];
        join.outputs = vec![Output::col(0, 0), Output::col(0, 2), Output::col(1, 2)];

        let union = SqlQuery::Union(UnionAllQuery {
            branches: vec![
                {
                    let mut b = single.clone();
                    b.outputs.push(Output::Null(DataType::Int));
                    b
                },
                join.clone(),
            ],
            order_by: vec![0],
        });

        for (label, config) in configs(parent, child) {
            db.apply_config(&config).unwrap();
            for (name, query) in [
                ("single", SqlQuery::Select(single.clone())),
                ("join", SqlQuery::Select(join.clone())),
                ("union", union.clone()),
            ] {
                let expected: Vec<Row> = match &query {
                    SqlQuery::Select(q) => brute_force(&db, q),
                    SqlQuery::Union(u) => u
                        .branches
                        .iter()
                        .flat_map(|b| brute_force(&db, b))
                        .collect(),
                };
                let outcome = db.execute(&query).unwrap();
                prop_assert_eq!(
                    sorted(outcome.rows),
                    sorted(expected),
                    "query {} under config {}",
                    name,
                    label
                );
            }
        }
    }
}

// ------------------------------------------ plan choice never changes answers --

/// One parent row and one child row of the plan-equivalence contract,
/// wide enough that seeks and views pay off.
fn contract_rows(id: i64, seed: u64) -> (Row, Row) {
    let parent = vec![
        Value::Int(id),
        Value::Int((seed % 8) as i64),
        Value::str(format!("{id:0>300}")),
    ];
    // The child's parent may be old (its view rows land between existing
    // ones), recent — its own batch's, or another transaction's — or not
    // yet inserted.
    let near = seed >> 32;
    let pid = match near % 2 {
        0 => (near / 2 % (id as u64 + 5)) as i64,
        _ => id - 3 + (near / 2 % 8) as i64,
    };
    let child = vec![
        Value::Int(10_000 + id),
        Value::Int(pid),
        Value::Int((seed / 64 % 10) as i64),
    ];
    (parent, child)
}

/// Every configuration the contract's design may be: the `configs` helper's
/// and their union.
fn contract_designs(parent: TableId, child: TableId) -> Vec<PhysicalConfig> {
    let mut designs: Vec<PhysicalConfig> =
        configs(parent, child).into_iter().map(|(_, c)| c).collect();
    let all = designs.iter().fold(PhysicalConfig::none(), |mut all, c| {
        all.indexes.extend(c.indexes.iter().cloned());
        all.views.extend(c.views.iter().cloned());
        all
    });
    designs.push(all);
    designs
}

/// Every plan the optimizer can produce for `query` under `built`: the
/// seq-scan plan, and the plan under each single built index and view.
fn every_plan(db: &Database, built: &PhysicalConfig, query: &SqlQuery) -> Vec<QueryPlan> {
    let single = |indexes: Vec<IndexDef>, views: Vec<ViewDef>| PhysicalConfig { indexes, views };
    let candidates = std::iter::once(PhysicalConfig::none())
        .chain(
            built
                .indexes
                .iter()
                .map(|ix| single(vec![ix.clone()], vec![])),
        )
        .chain(built.views.iter().map(|v| single(vec![], vec![v.clone()])));
    candidates
        .map(|config| db.estimate(query, &config).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Plan choice never changes an answer. Over an arbitrary interleaving
    /// of inserts into an open transaction, own-write reads, commits,
    /// commits by another session while the transaction stays open (so its
    /// snapshot lags the heaps every structure is maintained over), online
    /// design swaps, checkpoints and crash-restarts of a durable database,
    /// every read runs every plan the optimizer can produce — the seq-scan
    /// plan and the plan under each single built index and view — at
    /// executor threads 1 and 4, on the committed state (the library
    /// context), on the transaction's snapshot alone and on that snapshot
    /// plus its pending rows. Each returns the brute-force rows, compared
    /// sorted, with rows and `ExecStats` bits equal across thread counts;
    /// so does the session's own read.
    #[test]
    fn every_plan_returns_the_same_rows(
        seeds in proptest::collection::vec(0u64..u64::MAX, 150..300),
        steps in proptest::collection::vec((0u8..13, 0u64..u64::MAX), 1..24),
        grp in 0i64..8,
        val in 0i64..10,
    ) {
        static DIRS: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlshred-plan-contract-{}-{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed),
        ));
        let mut db = Database::create_durable(&dir).unwrap();
        let (parent, child) = {
            let (shape, p, c) = build_db(&[], &[]);
            let def = |t| shape.catalog().try_table(t).unwrap().clone();
            (db.create_table(def(p)).unwrap(), db.create_table(def(c)).unwrap())
        };
        let mut committed: Vec<Vec<Row>> = vec![Vec::new(), Vec::new()];
        let mut next = 0i64;
        let mut new_rows = |seed: u64| {
            next += 1;
            contract_rows(next - 1, seed)
        };
        for &seed in &seeds {
            let (p, c) = new_rows(seed);
            committed[0].push(p);
            committed[1].push(c);
        }
        db.insert_rows(parent, committed[0].clone()).unwrap();
        db.insert_rows(child, committed[1].clone()).unwrap();
        db.analyze().unwrap();
        let designs = contract_designs(parent, child);
        db.apply_config(designs.last().unwrap()).unwrap();
        let mut sdb = SessionDb::new(db);

        let mut single = SelectQuery::single(parent);
        single.filters = vec![Filter::new(0, 1, FilterOp::Eq, Value::Int(grp))];
        single.outputs = vec![Output::col(0, 0), Output::col(0, 2), Output::Null(DataType::Int)];
        let mut join = SelectQuery::single(parent);
        join.tables.push(child);
        join.joins.push(JoinCond { left_ref: 0, left_col: 0, right_ref: 1, right_col: 1 });
        join.filters = vec![
            Filter::new(0, 1, FilterOp::Eq, Value::Int(grp)),
            Filter::new(1, 2, FilterOp::Ge, Value::Int(val)),
        ];
        join.outputs = vec![Output::col(0, 0), Output::col(0, 2), Output::col(1, 2)];
        // One parent's children: the shape an index-nested-loop join wins.
        let mut point = join.clone();
        point.filters = vec![Filter::new(0, 0, FilterOp::Eq, Value::Int(val * 13))];
        // Every pair: the shape where a row joined across snapshots shows.
        let mut pairs = join.clone();
        pairs.filters.clear();
        let queries = [
            SqlQuery::Select(single.clone()),
            SqlQuery::Select(point),
            SqlQuery::Select(pairs),
            SqlQuery::Select(join.clone()),
            SqlQuery::Union(UnionAllQuery { branches: vec![single, join], order_by: vec![0] }),
        ];
        let brute = |rows: &[Vec<Row>], query: &SqlQuery| {
            let rows_of = |table: TableId| rows[table.index()].as_slice();
            sorted(query.branches().iter().flat_map(|b| brute_force_over(&rows_of, b)).collect())
        };

        let mut txn = sdb.begin();
        // The committed rows `txn`'s snapshot sees, and whether another
        // session has committed since (then `txn`'s own commit conflicts).
        let mut seen = committed.clone();
        let mut overtaken = false;
        let mut pending: Vec<(TableId, Vec<Row>)> = Vec::new();
        let last = (4u8, 0u64);
        for (i, &(kind, seed)) in steps.iter().chain([&last]).enumerate() {
            match kind {
                0..=3 => {
                    let (p, c) = new_rows(seed);
                    // Either table first, so either side of the view grows first.
                    let mut batches = [(parent, vec![p]), (child, vec![c])];
                    if seed % 2 == 1 {
                        batches.reverse();
                    }
                    for (table, rows) in batches {
                        txn.insert_rows(table, rows.clone()).unwrap();
                        pending.push((table, rows));
                    }
                }
                4..=6 => {
                    let vis = txn.visibility();
                    let snap = StmtCtx { snapshot: Some(&vis), ..StmtCtx::default() };
                    let own = StmtCtx { snapshot: Some(&vis), pending: &pending, ..StmtCtx::default() };
                    let mut with_own = seen.clone();
                    for (table, rows) in &pending {
                        with_own[table.index()].extend(rows.iter().cloned());
                    }
                    for query in &queries {
                        let answer = sorted(txn.query(query).unwrap().rows);
                        prop_assert_eq!(&answer, &brute(&with_own, query), "step {}: session read", i);
                        sdb.with_db(|db| {
                            for plan in every_plan(db, db.built_config(), query) {
                                let contexts =
                                    [(&StmtCtx::default(), &committed), (&snap, &seen), (&own, &with_own)];
                                for (ctx, rows) in contexts {
                                    let [serial, parallel] = [1, 4].map(|threads| {
                                        let opts = ExecOptions { threads, morsel_rows: 16 };
                                        let (rows, stats, _) =
                                            xmlshred::rel::exec::execute(db, &plan, &opts, ctx).unwrap();
                                        let bits = (stats.io_cost.to_bits(), stats.cpu_cost.to_bits());
                                        (rows, bits, stats.tuples_processed)
                                    });
                                    let explain = plan.explain();
                                    prop_assert_eq!(&serial, &parallel, "step {}: threads changed {}", i, explain);
                                    let expected = brute(rows, query);
                                    prop_assert_eq!(sorted(serial.0), expected, "step {}: {}", i, explain);
                                }
                            }
                            Ok(())
                        })?;
                    }
                }
                7 | 8 => {
                    match txn.commit() {
                        Ok(_) => prop_assert!(!overtaken || pending.is_empty(), "step {}: no conflict", i),
                        Err(RelError::WriteConflict { .. }) if overtaken => pending.clear(),
                        Err(err) => panic!("step {i}: commit: {err}"),
                    }
                    for (table, rows) in pending.drain(..) {
                        committed[table.index()].extend(rows);
                    }
                    txn = sdb.begin();
                    (seen, overtaken) = (committed.clone(), false);
                }
                11 => {
                    // Another session commits while `txn` stays open.
                    let (p, c) = new_rows(seed);
                    let mut other = sdb.begin();
                    other.insert_rows(parent, vec![p.clone()]).unwrap();
                    other.insert_rows(child, vec![c.clone()]).unwrap();
                    other.commit().unwrap();
                    committed[0].push(p);
                    committed[1].push(c);
                    overtaken = true;
                }
                9 => {
                    sdb.apply_config_online(&designs[seed as usize % designs.len()]).unwrap();
                }
                10 => sdb.checkpoint().unwrap(),
                _ => {
                    // A crash: the open transaction's rows die with it.
                    drop((txn, sdb));
                    pending.clear();
                    sdb = SessionDb::new(Database::open_durable(&dir).unwrap().0);
                    txn = sdb.begin();
                    (seen, overtaken) = (committed.clone(), false);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn null_join_keys_never_match() {
    let mut db = Database::new();
    let parent = db
        .create_table(TableDef::new(
            "p",
            vec![
                ColumnDef::new("ID", DataType::Int).nullable(),
                ColumnDef::new("x", DataType::Int),
            ],
        ))
        .unwrap();
    let child = db
        .create_table(TableDef::new(
            "c",
            vec![
                ColumnDef::new("ID", DataType::Int),
                ColumnDef::new("PID", DataType::Int).nullable(),
            ],
        ))
        .unwrap();
    db.insert(parent, vec![Value::Null, Value::Int(1)]).unwrap();
    db.insert(parent, vec![Value::Int(5), Value::Int(2)])
        .unwrap();
    db.insert(child, vec![Value::Int(1), Value::Null]).unwrap();
    db.insert(child, vec![Value::Int(2), Value::Int(5)])
        .unwrap();
    db.analyze().unwrap();

    let mut q = SelectQuery::single(parent);
    q.tables.push(child);
    q.joins.push(JoinCond {
        left_ref: 0,
        left_col: 0,
        right_ref: 1,
        right_col: 1,
    });
    q.outputs = vec![Output::col(0, 0), Output::col(1, 0)];
    let outcome = db.execute(&SqlQuery::Select(q)).unwrap();
    // Only the (5, 2) pair joins; NULLs never match.
    assert_eq!(outcome.rows, vec![vec![Value::Int(5), Value::Int(2)]]);
}

// ------------------------------------------ library path == session path --

/// One fixture: the hybrid-mapped database, its translated workload, and
/// the tuner's design for it (indexes and views).
fn workload_fixture(
    dataset: &Dataset,
    workload: &[(xmlshred::xpath::ast::Path, f64)],
) -> (Database, Vec<SqlQuery>, PhysicalConfig) {
    let mapping = Mapping::hybrid(&dataset.tree);
    let schema = derive_schema(&dataset.tree, &mapping);
    let db = load_database(&dataset.tree, &mapping, &schema, &[&dataset.document]).expect("load");
    let queries: Vec<SqlQuery> = workload
        .iter()
        .filter_map(|(path, _)| translate(&dataset.tree, &mapping, &schema, path).ok())
        .map(|t| t.sql)
        .collect();
    assert!(!queries.is_empty(), "no workload query translated");
    let weighted: Vec<(&SqlQuery, f64)> = queries.iter().map(|q| (q, 1.0)).collect();
    let budget = 3.0 * dataset.approx_bytes() as f64;
    let design = tune(db.catalog(), db.all_stats(), &weighted, budget).config;
    (db, queries, design)
}

fn workload_fixtures() -> Vec<(&'static str, Database, Vec<SqlQuery>, PhysicalConfig)> {
    let spec = |projections, selectivity, seed| WorkloadSpec {
        projections,
        selectivity,
        n_queries: 5,
        seed,
    };
    let dblp = generate_dblp(&DblpConfig {
        n_inproceedings: 1_200,
        n_books: 120,
        ..DblpConfig::default()
    })
    .expect("dblp generates");
    let dblp_queries = dblp_workload(
        &spec(Projections::High, Selectivity::Low, 11),
        (1970, 2004),
        20,
    )
    .expect("dblp workload")
    .queries;
    let movie_config = MovieConfig {
        n_movies: 1_500,
        ..MovieConfig::default()
    };
    let movie = generate_movie(&movie_config).expect("movie generates");
    let movie_queries = movie_workload(
        &spec(Projections::Low, Selectivity::High, 12),
        movie_config.years,
        movie_config.n_genres,
    )
    .expect("movie workload")
    .queries;
    let (d_db, d_sql, d_design) = workload_fixture(&dblp, &dblp_queries);
    let (m_db, m_sql, m_design) = workload_fixture(&movie, &movie_queries);
    vec![
        ("dblp", d_db, d_sql, d_design),
        ("movie", m_db, m_sql, m_design),
    ]
}

/// Rows and every `ExecStats` field, floats by bit pattern.
fn bits(outcome: &QueryOutcome) -> (&[Row], u64, u64, usize, u64) {
    (
        &outcome.rows,
        outcome.exec.io_cost.to_bits(),
        outcome.exec.cpu_cost.to_bits(),
        outcome.exec.rows_out,
        outcome.exec.tuples_processed,
    )
}

#[test]
fn library_context_and_full_snapshot_return_the_same_bits() {
    let mut view_plans = 0;
    for (name, mut db, queries, design) in workload_fixtures() {
        let everything = SnapshotVisibility {
            lsn: 0,
            visible: db
                .catalog()
                .iter()
                .map(|(id, _)| db.heap(id).len())
                .collect(),
        };
        let session = StmtCtx {
            snapshot: Some(&everything),
            ..StmtCtx::default()
        };
        // The tuner's whole design, views included: a snapshot statement
        // plans against the same configuration as the library one.
        db.apply_config(&design).unwrap();
        for threads in [1, 4] {
            db.set_exec_options(ExecOptions {
                threads,
                morsel_rows: 128,
            });
            for (i, query) in queries.iter().enumerate() {
                let library = db.run(query, &StmtCtx::default()).unwrap();
                let snapshot = db.run(query, &session).unwrap();
                assert_eq!(
                    bits(&library),
                    bits(&snapshot),
                    "{name} q{i} threads={threads}"
                );
                view_plans += usize::from(snapshot.plan.explain().contains("ViewScan"));
            }
        }
    }
    assert!(
        view_plans > 0,
        "no snapshot plan used a view: case is vacuous"
    );
}
