//! Differential testing of the relational engine: for random tables and
//! random conjunctive select-project-join queries, the optimizer+executor
//! must return exactly what a brute-force nested-loop evaluation returns —
//! under every physical configuration (no indexes, narrow indexes, covering
//! indexes, join views). And the engine's one
//! statement path must not care who calls it: over both fixtures' workload
//! queries, the library context and a full-visibility snapshot (what a
//! session passes) return the same bits.

use proptest::prelude::*;
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
use xmlshred::rel::sql::{JoinCond, Output, SelectQuery, SqlQuery, UnionAllQuery};
use xmlshred::rel::types::{DataType, Row, Value};
use xmlshred::rel::view::{ViewDef, ViewSide};
use xmlshred::rel::{ExecOptions, QueryOutcome, SnapshotVisibility, StmtCtx};

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
    // Cartesian product of all table occurrences.
    let mut combos: Vec<Vec<Row>> = vec![Vec::new()];
    for &table in &query.tables {
        let mut next = Vec::new();
        for combo in &combos {
            for row in db.heap(table).rows() {
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
        let view_free = PhysicalConfig {
            views: vec![],
            ..design.clone()
        };
        db.apply_config(&view_free).unwrap();
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
            }
        }
        // A design with views: the snapshot statement differs from the
        // library one by exactly the documented view stripping — it is the
        // library statement under the same design minus its views.
        db.apply_config(&view_free).unwrap();
        let stripped: Vec<QueryOutcome> = queries
            .iter()
            .map(|query| db.execute(query).unwrap())
            .collect();
        db.apply_config(&design).unwrap();
        for (i, (query, expected)) in queries.iter().zip(&stripped).enumerate() {
            let library = db.execute(query).unwrap();
            let snapshot = db.run(query, &session).unwrap();
            assert_eq!(bits(&snapshot), bits(expected), "{name} q{i} with views");
            assert_eq!(
                sorted(library.rows.clone()),
                sorted(snapshot.rows),
                "{name} q{i}"
            );
            view_plans += usize::from(library.plan.explain().contains("ViewScan"));
        }
    }
    assert!(
        view_plans > 0,
        "no library plan used a view: case is vacuous"
    );
}
