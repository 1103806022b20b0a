//! Property-based tests over the core invariants:
//!
//! * XML serialize -> parse is the identity on arbitrary documents;
//! * entity escaping round-trips arbitrary text;
//! * histogram selectivities are probabilities and the equality/range
//!   estimates track the truth on arbitrary value sets;
//! * `ColumnStats::rescale` preserves distribution shape;
//! * translation correctness holds under arbitrary *mappings* (random
//!   subsets of applicable transformations) on randomly generated movie
//!   documents;
//! * shredding conserves instances: every element of an annotated type
//!   appears exactly once across its tables (plus rep-split columns);
//! * crash recovery converges: for an arbitrary table, mutation sequence,
//!   checkpoint position, and seeded crash point (clean, torn-tail, or
//!   bit-flip), recovering and resuming from the recovered LSN yields a
//!   database equal to an uncrashed run, and the result is itself durable;
//! * self-healing restores the oracle: for an arbitrary durable database
//!   and an arbitrary single-structure corruption (row heap, index, or
//!   view), `execute_healing` completes the statement
//!   with the uncorrupted oracle's rows, and afterwards rows, stats, and
//!   fault-plane charges are bit-identical to the oracle at executor
//!   thread counts 1 and 4, with a thread-invariant heal report;
//! * the built-set lifecycle: `BuiltSet::build` over arbitrary per-table
//!   prefixes followed by `catch_up` in arbitrary steps is bit-identical to
//!   a full build for every structure kind, catching up never hides
//!   damage, and `rebuild_one` undoes any single-structure damage;
//! * own-write reads: with a design installed and another session
//!   committing in between, a transaction's read of snapshot + pending
//!   rows equals a brute-force evaluation and the same query on a fresh
//!   database loaded with exactly those rows, bit-identically at executor
//!   thread counts 1 and 4, at a tuple count of one bare snapshot scan
//!   plus the transaction's own rows.

use proptest::prelude::*;
use xmlshred::prelude::*;
use xmlshred::rel::expr::FilterOp;
use xmlshred::rel::stats::ColumnStats;
use xmlshred::rel::types::Value;
use xmlshred::shred::schema::derive_schema;
use xmlshred::shred::transform::enumerate_transformations;
use xmlshred::translate::assemble::reassemble;
use xmlshred::xml::dom::{Element, XmlNode};
use xmlshred::xml::escape::{escape_attr, escape_text, unescape};
use xmlshred::xml::parser::parse_element;
use xmlshred::xml::writer::element_to_string;
use xmlshred::xpath::eval::evaluate_query;

// ---------------------------------------------------------------- XML ----

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
}

fn arb_text() -> impl Strategy<Value = String> {
    // Includes characters that require escaping.
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just('<'),
            Just('>'),
            Just('&'),
            Just('"'),
            Just('\''),
            Just('é'),
            Just(' '),
        ],
        0..12,
    )
    .prop_map(|cs| {
        let text: String = cs.into_iter().collect();
        // The parser drops whitespace-only runs between elements (by
        // design); keep generated text either empty or meaningful.
        if !text.is_empty() && text.chars().all(char::is_whitespace) {
            format!("x{text}")
        } else {
            text
        }
    })
}

fn arb_element(depth: u32) -> BoxedStrategy<Element> {
    let leaf = (arb_name(), arb_text()).prop_map(|(name, text)| {
        let mut e = Element::new(name);
        if !text.is_empty() {
            e.children.push(XmlNode::Text(text));
        }
        e
    });
    if depth == 0 {
        return leaf.boxed();
    }
    (
        arb_name(),
        proptest::collection::vec((arb_name(), arb_text()), 0..3),
        proptest::collection::vec(arb_element(depth - 1), 0..4),
    )
        .prop_map(|(name, attrs, children)| {
            let mut e = Element::new(name);
            e.attributes = attrs;
            for child in children {
                e.children.push(XmlNode::Element(child));
            }
            e
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xml_write_parse_roundtrip(element in arb_element(3)) {
        let text = element_to_string(&element);
        let parsed = parse_element(&text).expect("serialized XML parses");
        // Whitespace-only text nodes are dropped by the parser; our
        // generator never produces them except as full text values, which
        // are preserved when non-empty and non-whitespace.
        prop_assert_eq!(element_to_string(&parsed), text);
    }

    #[test]
    fn escape_roundtrip(text in arb_text()) {
        let escaped_text = escape_text(&text).into_owned();
        prop_assert_eq!(unescape(&escaped_text).into_owned(), text.clone());
        let escaped_attr = escape_attr(&text).into_owned();
        prop_assert_eq!(unescape(&escaped_attr).into_owned(), text);
    }

    #[test]
    fn selectivity_is_a_probability(values in proptest::collection::vec(-50i64..50, 1..300), probe in -60i64..60) {
        let stats = ColumnStats::build(values.iter().map(|&v| Value::Int(v)));
        for op in [FilterOp::Eq, FilterOp::Ne, FilterOp::Lt, FilterOp::Le, FilterOp::Gt, FilterOp::Ge] {
            let sel = stats.selectivity(op, &Value::Int(probe));
            prop_assert!((0.0..=1.0).contains(&sel), "{op:?} -> {sel}");
        }
    }

    #[test]
    fn eq_selectivity_tracks_truth(values in proptest::collection::vec(0i64..20, 20..400), probe in 0i64..20) {
        let stats = ColumnStats::build(values.iter().map(|&v| Value::Int(v)));
        let truth = values.iter().filter(|&&v| v == probe).count() as f64 / values.len() as f64;
        let sel = stats.selectivity(FilterOp::Eq, &Value::Int(probe));
        // Histogram estimates are within a bucket of the truth.
        prop_assert!((sel - truth).abs() < 0.15, "sel {sel} truth {truth}");
    }

    #[test]
    fn range_selectivity_tracks_truth(values in proptest::collection::vec(0i64..1000, 50..500), probe in 0i64..1000) {
        let stats = ColumnStats::build(values.iter().map(|&v| Value::Int(v)));
        let truth = values.iter().filter(|&&v| v < probe).count() as f64 / values.len() as f64;
        let sel = stats.selectivity(FilterOp::Lt, &Value::Int(probe));
        prop_assert!((sel - truth).abs() < 0.1, "sel {sel} truth {truth}");
    }

    #[test]
    fn rescale_keeps_selectivity_shape(values in proptest::collection::vec(0i64..50, 50..400), probe in 0i64..50, factor in 0.1f64..0.9) {
        let stats = ColumnStats::build(values.iter().map(|&v| Value::Int(v)));
        let rows = values.len() as u64;
        let non_null = (rows as f64 * factor) as u64;
        let scaled = stats.rescale(non_null, rows);
        let base = stats.selectivity(FilterOp::Eq, &Value::Int(probe));
        let scaled_sel = scaled.selectivity(FilterOp::Eq, &Value::Int(probe));
        // Selectivity scales with the fill fraction.
        prop_assert!((scaled_sel - base * factor).abs() < 0.1,
            "base {base} factor {factor} scaled {scaled_sel}");
    }
}

// ------------------------------------------------- translation vs XPath --

/// Generate a random movie document compatible with the fixture tree.
fn arb_movie_doc() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        (
            0i32..30,            // year offset
            0usize..5,           // aka count
            proptest::bool::ANY, // has rating
            proptest::bool::ANY, // movie vs tv
        ),
        1..40,
    )
    .prop_map(|movies| {
        let mut s = String::from("<movies>");
        for (i, (year, aka, rating, is_movie)) in movies.into_iter().enumerate() {
            s.push_str(&format!(
                "<movie><title>M{i}</title><year>{}</year>",
                1980 + year
            ));
            for a in 0..aka {
                s.push_str(&format!("<aka_title>M{i}a{a}</aka_title>"));
            }
            if rating {
                s.push_str(&format!("<avg_rating>{}.5</avg_rating>", i % 10));
            }
            if is_movie {
                s.push_str(&format!("<box_office>{}</box_office>", i * 3));
            } else {
                s.push_str(&format!("<seasons>{}</seasons>", i % 20 + 1));
            }
            s.push_str("</movie>");
        }
        s.push_str("</movies>");
        s
    })
}

const PROP_QUERIES: &[&str] = &[
    "//movie/title",
    "//movie[year >= 1990]/(title | box_office)",
    "//movie/(avg_rating | aka_title)",
    "//movie[title = \"M3\"]/(year | seasons)",
    "//movie/aka_title",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For a random document and a random subset of applicable nonsubsumed
    /// transformations, SQL results equal the reference evaluator's.
    #[test]
    fn translation_correct_under_random_mappings(
        doc in arb_movie_doc(),
        picks in proptest::collection::vec(proptest::bool::ANY, 8),
    ) {
        let fixture = xmlshred::shred::mapping::fixtures::movie_tree();
        let tree = &fixture.tree;
        let document = parse_element(&doc).expect("generated doc parses");

        // Apply a random subset of the applicable nonsubsumed transformations.
        let mut mapping = Mapping::hybrid(tree);
        let mut pick_index = 0;
        loop {
            let applicable: Vec<Transformation> =
                enumerate_transformations(tree, &mapping, &|_| 2)
                    .into_iter()
                    .filter(|t| !t.kind().is_subsumed())
                    .collect();
            let mut applied = false;
            for t in applicable {
                if pick_index >= picks.len() {
                    break;
                }
                let take = picks[pick_index];
                pick_index += 1;
                if take {
                    if let Ok(next) = t.apply(tree, &mapping) {
                        mapping = next;
                        applied = true;
                        break; // re-enumerate after each application
                    }
                }
            }
            if !applied || pick_index >= picks.len() {
                break;
            }
        }

        let schema = derive_schema(tree, &mapping);
        let db = load_database(tree, &mapping, &schema, &[&document]).unwrap();
        for query in PROP_QUERIES {
            let path = parse_path(query).unwrap();
            let mut expected: Vec<(String, String)> = evaluate_query(&document, &path)
                .into_iter()
                .map(|m| (m.tag, m.value))
                .collect();
            expected.sort();
            let translated = translate(tree, &mapping, &schema, &path).unwrap();
            let outcome = db.execute(&translated.sql).unwrap();
            let mut got: Vec<(String, String)> = reassemble(&outcome.rows, &translated.shape)
                .into_iter()
                .map(|t| (t.tag, t.value))
                .collect();
            got.sort();
            prop_assert_eq!(got, expected, "query {} under {:?}", query, mapping);
        }
    }

    /// Shredding conserves instances: total rows + inlined rep-split values
    /// across an annotation's tables equals the number of element instances.
    #[test]
    fn shredding_conserves_instances(doc in arb_movie_doc(), split in 1usize..4) {
        let fixture = xmlshred::shred::mapping::fixtures::movie_tree();
        let tree = &fixture.tree;
        let document = parse_element(&doc).expect("parses");
        let mut mapping = Mapping::hybrid(tree);
        mapping.rep_splits.insert(fixture.aka_star, split);
        let schema = derive_schema(tree, &mapping);
        let db = load_database(tree, &mapping, &schema, &[&document]).unwrap();

        let movie_count = document.children_named("movie").count();
        let aka_count: usize = document
            .children_named("movie")
            .map(|m| m.children_named("aka_title").count())
            .sum();

        // Movie rows across partitions.
        let movie_rows: usize = schema
            .tables
            .iter()
            .filter(|t| t.annotation == "movie")
            .map(|t| db.heap(db.catalog().table_id(&t.name).unwrap()).len())
            .sum();
        prop_assert_eq!(movie_rows, movie_count);

        // aka_title instances: overflow rows + non-null inlined columns.
        let overflow: usize = schema
            .tables
            .iter()
            .filter(|t| t.annotation == "aka_title")
            .map(|t| db.heap(db.catalog().table_id(&t.name).unwrap()).len())
            .sum();
        let mut inlined = 0usize;
        for table in schema.tables.iter().filter(|t| t.annotation == "movie") {
            let positions = table.rep_split_positions(fixture.aka_star);
            let tid = db.catalog().table_id(&table.name).unwrap();
            for row in db.heap(tid).rows() {
                inlined += positions.iter().filter(|&&c| !row[c].is_null()).count();
            }
        }
        prop_assert_eq!(overflow + inlined, aka_count);
    }
}

// ----------------------------------------- derived stats vs loaded stats --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Statistics derived from source statistics (Section 4.1) must agree
    /// with statistics analyzed on the actually loaded database — row
    /// counts within 2% and per-column fill fractions within 0.05 — for
    /// random documents and random nonsubsumed mappings.
    #[test]
    fn derived_stats_match_loaded(
        doc in arb_movie_doc(),
        picks in proptest::collection::vec(proptest::bool::ANY, 6),
    ) {
        use xmlshred::shred::stats_derive::derive_table_stats;

        let fixture = xmlshred::shred::mapping::fixtures::movie_tree();
        let tree = &fixture.tree;
        let document = parse_element(&doc).expect("parses");

        let mut mapping = Mapping::hybrid(tree);
        let mut pick_index = 0;
        for t in enumerate_transformations(tree, &mapping, &|_| 2) {
            if pick_index >= picks.len() {
                break;
            }
            if t.kind().is_subsumed() {
                continue;
            }
            let take = picks[pick_index];
            pick_index += 1;
            if take {
                if let Ok(next) = t.apply(tree, &mapping) {
                    mapping = next;
                }
            }
        }

        let schema = derive_schema(tree, &mapping);
        let source = SourceStats::collect(tree, &document);
        let derived = derive_table_stats(tree, &mapping, &schema, &source);
        let db = load_database(tree, &mapping, &schema, &[&document]).unwrap();
        for (i, table) in schema.tables.iter().enumerate() {
            let tid = db.catalog().table_id(&table.name).unwrap();
            let actual = db.table_stats(tid);
            // Partition row counts are independence-approximated; crossed
            // dimensions on correlated random data can deviate.
            let tolerance = if table.partition.is_empty() {
                (actual.rows as f64 * 0.02).max(1.0)
            } else {
                ((actual.rows + derived[i].rows) as f64 * 0.2).max(3.0)
            };
            prop_assert!(
                (derived[i].rows as f64 - actual.rows as f64).abs() <= tolerance,
                "table {} rows: derived {} actual {}",
                table.name, derived[i].rows, actual.rows
            );
            if actual.rows < 20 {
                continue; // fill fractions too noisy on tiny tables
            }
            // Fill fractions are independence-approximated (Section 4.1's
            // derivation explicitly accepts this); random documents carry
            // real correlations, so the bound is loose — the property is
            // "no wild disagreement".
            for (c, (d, a)) in derived[i].columns.iter().zip(&actual.columns).enumerate() {
                prop_assert!(
                    (d.fill_fraction() - a.fill_fraction()).abs() < 0.25,
                    "table {} col {c}: derived fill {} actual {}",
                    table.name, d.fill_fraction(), a.fill_fraction()
                );
            }
        }
    }
}

// -------------------------------------------------------------- durability --

use std::sync::atomic::{AtomicU64, Ordering};
use xmlshred::rel::catalog::{ColumnDef, TableDef};
use xmlshred::rel::types::{DataType, Row};
use xmlshred::rel::{CrashKind, CrashPoint, RelError};

/// One step of a durable mutation schedule. Every variant except
/// `Checkpoint` writes exactly one WAL frame, so schedule position doubles
/// as the LSN and recovery's `next_lsn` tells the resume loop where to
/// pick up.
#[derive(Debug, Clone)]
enum DurOp {
    Insert(Vec<Row>),
    Analyze,
    Checkpoint,
}

/// Deterministic mixer (splitmix64) for deriving cell values from the raw
/// per-row seeds the strategy generates; the vendored proptest has no
/// dependent (`flat_map`) strategies, so rows are built from plain data.
fn dur_mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn dur_value(ty: DataType, nullable: bool, row_seed: u64, col: u64) -> Value {
    let m = dur_mix(row_seed ^ dur_mix(col + 1));
    if nullable && m.is_multiple_of(5) {
        return Value::Null;
    }
    match ty {
        DataType::Int => Value::Int((m % 2001) as i64 - 1000),
        DataType::Float => Value::Float(((m % 8001) as i64 - 4000) as f64 / 4.0),
        DataType::Str => {
            let len = (m % 7) as usize;
            let s: String = (0..len)
                .map(|i| {
                    let c = dur_mix(m ^ i as u64) % 26;
                    char::from(b'a' + c as u8)
                })
                .collect();
            Value::str(s)
        }
    }
}

/// An arbitrary table, a mutation schedule with a checkpoint inserted at a
/// random prefix, a crash-position seed, and a crash kind.
fn arb_durability_case() -> impl Strategy<Value = (TableDef, Vec<DurOp>, u64, CrashKind)> {
    (
        proptest::collection::vec((0u8..3, proptest::bool::ANY), 1..4),
        proptest::collection::vec(
            (0u8..5, proptest::collection::vec(0u64..u64::MAX, 1..6)),
            1..10,
        ),
        0u64..u64::MAX,
        0u8..3,
        0usize..10,
    )
        .prop_map(|(cols, raw_ops, seed, kind_sel, checkpoint_at)| {
            let types: Vec<(DataType, bool)> = cols
                .iter()
                .map(|&(t, nullable)| {
                    let ty = match t {
                        0 => DataType::Int,
                        1 => DataType::Float,
                        _ => DataType::Str,
                    };
                    (ty, nullable)
                })
                .collect();
            let def = TableDef::new(
                "t",
                types
                    .iter()
                    .enumerate()
                    .map(|(i, &(ty, nullable))| {
                        let column = ColumnDef::new(format!("c{i}"), ty);
                        if nullable {
                            column.nullable()
                        } else {
                            column
                        }
                    })
                    .collect(),
            );
            let mut ops: Vec<DurOp> = raw_ops
                .into_iter()
                .map(|(sel, row_seeds)| {
                    if sel == 4 {
                        DurOp::Analyze
                    } else {
                        let rows = row_seeds
                            .into_iter()
                            .map(|row_seed| {
                                types
                                    .iter()
                                    .enumerate()
                                    .map(|(c, &(ty, nullable))| {
                                        dur_value(ty, nullable, row_seed, c as u64)
                                    })
                                    .collect::<Row>()
                            })
                            .collect();
                        DurOp::Insert(rows)
                    }
                })
                .collect();
            let at = checkpoint_at.min(ops.len());
            ops.insert(at, DurOp::Checkpoint);
            let kind = match kind_sel {
                0 => CrashKind::Clean,
                1 => CrashKind::TornTail,
                _ => CrashKind::BitFlip,
            };
            (def, ops, seed, kind)
        })
}

// ------------------------------------------------- single-table scans --

use xmlshred::rel::expr::Filter;
use xmlshred::rel::fault::FaultConfig;
use xmlshred::rel::optimizer::PhysicalConfig;
use xmlshred::rel::sql::{Output, SelectQuery, SqlQuery};
use xmlshred::rel::ExecOptions;

/// A single-table scan over all of `types`' columns under a filter
/// conjunction decoded from `(column selector, operator selector, literal
/// type selector, literal seed)` tuples. Literals come from the durability
/// section's `dur_value` mixer, so the filters are plain data.
fn scan_query(
    table: xmlshred::rel::catalog::TableId,
    types: &[(DataType, bool)],
    raw_filters: &[(u8, u8, u8, u64)],
) -> SqlQuery {
    let mut q = SelectQuery::single(table);
    q.outputs = (0..types.len()).map(|c| Output::col(0, c)).collect();
    for &(col_sel, op_sel, lit_ty_sel, lit_seed) in raw_filters {
        let column = col_sel as usize % types.len();
        let op = match op_sel {
            0 => FilterOp::Eq,
            1 => FilterOp::Ne,
            2 => FilterOp::Lt,
            3 => FilterOp::Le,
            4 => FilterOp::Gt,
            5 => FilterOp::Ge,
            6 => FilterOp::IsNull,
            _ => FilterOp::IsNotNull,
        };
        // The literal's type is chosen independently of the column's, so
        // cross-type and null-literal comparisons are exercised too.
        let lit_ty = match lit_ty_sel {
            0 => DataType::Int,
            1 => DataType::Float,
            _ => DataType::Str,
        };
        let value = dur_value(lit_ty, true, lit_seed, 97);
        q.filters.push(Filter::new(0, column, op, value));
    }
    SqlQuery::Select(q)
}

/// Everything about an execution a test compares bit for bit (mirrors
/// `tests/exec_parallel.rs::deterministic_view`).
fn deterministic_view(
    outcome: &xmlshred::rel::db::QueryOutcome,
) -> (Vec<Row>, u64, u64, usize, u64, String) {
    (
        outcome.rows.clone(),
        outcome.exec.io_cost.to_bits(),
        outcome.exec.cpu_cost.to_bits(),
        outcome.exec.rows_out,
        outcome.exec.tuples_processed,
        outcome.profile.deterministic_fingerprint(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Crash anywhere, recover, resume: the result equals the uncrashed
    /// database, and a further reopen finds a clean log.
    #[test]
    fn crash_recovery_converges_to_uncrashed_database(case in arb_durability_case()) {
        let (def, ops, seed, kind) = case;
        static DIRS: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xmlshred-prop-durability-{}-{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::remove_dir_all(&dir).ok();

        // The uncrashed oracle, in memory.
        let mut oracle = Database::new();
        let table = oracle.create_table(def.clone()).expect("oracle create");
        for op in &ops {
            match op {
                DurOp::Insert(rows) => {
                    oracle.insert_rows(table, rows.iter().cloned()).expect("oracle insert");
                }
                DurOp::Analyze => oracle.analyze().expect("oracle analyze"),
                DurOp::Checkpoint => {}
            }
        }

        // The durable run, killed at a seeded point in the WAL stream.
        // `create_table` is LSN 0 and each non-checkpoint op is one LSN;
        // the modulus reaches past the last append so some cases never
        // crash at all.
        let lsn_ops = 1 + ops.iter().filter(|op| !matches!(op, DurOp::Checkpoint)).count() as u64;
        let crash_after = seed % (lsn_ops + 2);
        let mut db = Database::create_durable(&dir).expect("create durable");
        db.set_crash_point(Some(CrashPoint { after_writes: crash_after, kind, seed }))
            .expect("arm crash point");
        let mut steps: Vec<&DurOp> = Vec::new();
        let analyze = DurOp::Analyze; // placeholder slot for create_table
        steps.push(&analyze);
        steps.extend(ops.iter());
        'replay: for (i, op) in steps.iter().enumerate() {
            let result = if i == 0 {
                db.create_table(def.clone()).map(|_| ())
            } else {
                match op {
                    DurOp::Insert(rows) => db.insert_rows(table, rows.iter().cloned()).map(|_| ()),
                    DurOp::Analyze => db.analyze(),
                    DurOp::Checkpoint => db.checkpoint(),
                }
            };
            match result {
                Ok(()) => {}
                Err(RelError::Crashed(_)) => break 'replay,
                Err(e) => panic!("unexpected durable-run error: {e}"),
            }
        }
        drop(db);

        // Recover and resume the uncommitted suffix (re-running the
        // checkpoint only when the crash preceded it).
        let (mut db, report) = Database::open_durable(&dir).expect("recover");
        prop_assert!(report.next_lsn <= lsn_ops, "recovered past the schedule");
        let committed = report.next_lsn;
        let mut lsn_idx = 0u64;
        if lsn_idx >= committed {
            db.create_table(def.clone()).expect("resume create");
        }
        lsn_idx += 1;
        for op in &ops {
            match op {
                DurOp::Checkpoint => {
                    if lsn_idx >= committed {
                        db.checkpoint().expect("resume checkpoint");
                    }
                }
                DurOp::Insert(rows) => {
                    if lsn_idx >= committed {
                        db.insert_rows(table, rows.iter().cloned()).expect("resume insert");
                    }
                    lsn_idx += 1;
                }
                DurOp::Analyze => {
                    if lsn_idx >= committed {
                        db.analyze().expect("resume analyze");
                    }
                    lsn_idx += 1;
                }
            }
        }

        // The recovered-and-resumed database equals the uncrashed oracle.
        prop_assert_eq!(db.heap(table).rows(), oracle.heap(table).rows());
        prop_assert_eq!(db.table_stats(table), oracle.table_stats(table));

        // And that state is itself durable: a clean reopen replays to the
        // same place with nothing to discard.
        drop(db);
        let (db, report) = Database::open_durable(&dir).expect("reopen");
        prop_assert_eq!(report.frames_discarded, 0);
        prop_assert_eq!(db.heap(table).rows(), oracle.heap(table).rows());
        prop_assert_eq!(db.table_stats(table), oracle.table_stats(table));
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ------------------------------------------------------- self-healing --

use xmlshred::rel::catalog::TableId;
use xmlshred::rel::index::{IndexDef, KeyRange};
use xmlshred::rel::plan::{Access, BranchPlan, QueryPlan, ScanNode, ViewOutput};
use xmlshred::rel::sql::{JoinCond, UnionAllQuery};
use xmlshred::rel::view::{ViewDef, ViewSide};
use xmlshred::rel::{BuiltSet, StructureKind};

/// An arbitrary healing case: parent-table shape (type selector and
/// nullability per column), per-row value seeds, a structure kind to
/// corrupt, and a corruption-site seed.
#[allow(clippy::type_complexity)]
fn arb_heal_case() -> impl Strategy<Value = (Vec<(u8, bool)>, Vec<u64>, u8, u64)> {
    (
        proptest::collection::vec((0u8..3, proptest::bool::ANY), 1..4),
        proptest::collection::vec(0u64..u64::MAX, 1..80),
        0u8..3,
        0u64..u64::MAX,
    )
}

/// Decode an [`arb_heal_case`] column list into the parent table's column
/// types.
fn heal_column_types(cols: &[(u8, bool)]) -> Vec<(DataType, bool)> {
    let ty = |t| match t {
        0 => DataType::Int,
        1 => DataType::Float,
        _ => DataType::Str,
    };
    cols.iter()
        .map(|&(t, nullable)| (ty(t), nullable))
        .collect()
}

/// Load the two-table heal fixture (durable when `dir` is given): parent
/// `t0` from the generated rows and child `t1` whose join column copies a
/// parent key, analyzed, with no physical design yet.
fn load_heal_tables(
    dir: Option<&std::path::Path>,
    types: &[(DataType, bool)],
    row_seeds: &[u64],
) -> (Database, TableId, TableId) {
    let def = TableDef::new(
        "t0",
        types
            .iter()
            .enumerate()
            .map(|(i, &(ty, nullable))| {
                let column = ColumnDef::new(format!("c{i}"), ty);
                if nullable {
                    column.nullable()
                } else {
                    column
                }
            })
            .collect(),
    );
    let child_def = TableDef::new(
        "t1",
        vec![
            ColumnDef::new("k", types[0].0).nullable(),
            ColumnDef::new("payload", DataType::Int),
        ],
    );
    let mut db = match dir {
        Some(dir) => Database::create_durable(dir).expect("create durable"),
        None => Database::new(),
    };
    let parent = db.create_table(def).expect("create t0");
    let child = db.create_table(child_def).expect("create t1");
    let rows: Vec<Row> = row_seeds
        .iter()
        .map(|&seed| {
            types
                .iter()
                .enumerate()
                .map(|(c, &(ty, nullable))| dur_value(ty, nullable, seed, c as u64))
                .collect::<Row>()
        })
        .collect();
    db.insert_rows(parent, rows.iter().cloned())
        .expect("insert t0");
    let child_rows: Vec<Row> = row_seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let key = rows[seed as usize % rows.len()][0].clone();
            vec![key, Value::Int(i as i64)]
        })
        .collect();
    db.insert_rows(child, child_rows).expect("insert t1");
    db.analyze().expect("analyze");
    (db, parent, child)
}

/// One structure of every derived kind over the heal fixture's tables.
fn heal_config(parent: TableId, child: TableId) -> PhysicalConfig {
    PhysicalConfig {
        indexes: vec![IndexDef::new("ix0", parent, vec![0], vec![])],
        views: vec![ViewDef {
            name: "v0".into(),
            left: parent,
            right: child,
            left_col: 0,
            right_col: 0,
            outputs: vec![(ViewSide::Left, 0), (ViewSide::Right, 1)],
        }],
    }
}

/// The heal fixture with [`heal_config`] applied, plus a query that reads
/// every structure of it.
fn build_heal_db(
    dir: Option<&std::path::Path>,
    types: &[(DataType, bool)],
    row_seeds: &[u64],
) -> (Database, TableId, SqlQuery) {
    let (mut db, parent, child) = load_heal_tables(dir, types, row_seeds);
    db.apply_config(&heal_config(parent, child))
        .expect("apply config");

    // Branch A: filtered scan of the parent; branch B: the parent ⋈ child
    // join the view covers. Arity 2, ordered by the first output.
    let mut branch_a = SelectQuery::single(parent);
    branch_a.outputs = vec![Output::col(0, 0), Output::Null(DataType::Int)];
    let mut branch_b = SelectQuery::single(parent);
    branch_b.tables.push(child);
    branch_b.joins.push(JoinCond {
        left_ref: 0,
        left_col: 0,
        right_ref: 1,
        right_col: 0,
    });
    branch_b.outputs = vec![Output::col(0, 0), Output::col(1, 1)];
    let query = SqlQuery::Union(UnionAllQuery {
        branches: vec![branch_a, branch_b],
        order_by: vec![0, 1],
    });
    (db, parent, query)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corrupt one arbitrary structure (row heap, index, or view) of an
    /// arbitrary durable database: `execute_healing`
    /// completes the statement with the oracle's rows, and afterwards the
    /// database is observationally identical to one that was never
    /// corrupted — same rows, same `ExecStats` bits, same fault-plane
    /// budget charges — at executor thread counts 1 and 4, with a
    /// thread-invariant heal report.
    #[test]
    fn healing_restores_the_uncorrupted_oracle(case in arb_heal_case()) {
        let (cols, row_seeds, kind_sel, site) = case;
        let types = heal_column_types(&cols);
        let kind = match kind_sel {
            0 => StructureKind::Heap,
            1 => StructureKind::Index,
            _ => StructureKind::View,
        };

        // The never-corrupted oracle (in memory; durability is irrelevant
        // to its observables).
        let (mut oracle, _, oracle_query) = build_heal_db(None, &types, &row_seeds);
        oracle.set_fault_config(FaultConfig {
            seed: 13,
            budget_pages: Some(u64::MAX),
            verify_checksums: true,
            ..FaultConfig::default()
        });
        let expected = oracle.execute(&oracle_query).expect("oracle run");
        let expected_view = deterministic_view(&expected);
        let expected_charges = oracle.fault_plane().expect("armed").snapshot();

        static DIRS: AtomicU64 = AtomicU64::new(0);
        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let dir = std::env::temp_dir().join(format!(
                "xmlshred-prop-heal-{}-{}",
                std::process::id(),
                DIRS.fetch_add(1, Ordering::Relaxed),
            ));
            std::fs::remove_dir_all(&dir).ok();
            let (mut db, parent, query) = build_heal_db(Some(&dir), &types, &row_seeds);
            db.set_exec_options(ExecOptions { threads, ..ExecOptions::default() });

            // Corrupt one seeded site of the chosen kind. Out-of-range
            // sites are a no-op (the corruption helpers return false), in
            // which case healing trivially observes nothing.
            match kind {
                StructureKind::Heap => {
                    db.heap_mut(parent).expect("heap").corrupt_row(site as usize % row_seeds.len());
                }
                StructureKind::Index => {
                    db.built_mut().index_mut("ix0").expect("index").corrupt_entry(site as usize % row_seeds.len());
                }
                StructureKind::View => {
                    db.built_mut().view_mut("v0").expect("view").corrupt_row(site as usize % row_seeds.len());
                }
            }

            db.set_fault_config(FaultConfig {
                seed: 13,
                budget_pages: Some(u64::MAX),
                verify_checksums: true,
                ..FaultConfig::default()
            });
            let (outcome, report) = db.execute_healing(&query).expect("healing run");
            prop_assert_eq!(&outcome.rows, &expected.rows, "degraded rows diverged");
            prop_assert!(db.quarantined_structures().is_empty(), "quarantine not drained");
            // Every site the statement tripped over is clean now. (A
            // corrupted structure the plan never reads is legitimately
            // still damaged — and still unread by the comparison below.)
            let remaining = db.scrub().corruptions;
            for event in &report.events {
                prop_assert!(
                    !remaining.iter().any(|c| c.kind == event.kind && c.structure == event.structure),
                    "healed site still corrupt: {:?}",
                    event
                );
            }
            reports.push(report);

            // Post-heal: a fresh plane on both sides, and every observable
            // matches the oracle bit-for-bit.
            db.set_fault_config(FaultConfig {
                seed: 13,
                budget_pages: Some(u64::MAX),
                verify_checksums: true,
                ..FaultConfig::default()
            });
            let healed = db.execute(&query).expect("post-heal run");
            prop_assert_eq!(deterministic_view(&healed), expected_view.clone(), "post-heal view diverged");
            prop_assert_eq!(
                db.fault_plane().expect("armed").snapshot(),
                expected_charges,
                "post-heal charges diverged"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        prop_assert_eq!(&reports[0], &reports[1], "heal report varies with threads");
    }
}

// ------------------------------------------------- built-set lifecycle --

/// A single-branch plan over the heal fixture's parent table with the
/// given access path (unpinned: `epoch == 0`).
fn parent_scan_plan(parent: TableId, access: Access) -> QueryPlan {
    let driver = ScanNode {
        table_ref: 0,
        access,
        filters: vec![],
        est_rows: 0.0,
        est_cost: 0.0,
    };
    QueryPlan {
        branches: vec![BranchPlan::Pipeline {
            tables: vec![parent],
            driver,
            joins: vec![],
            outputs: vec![Output::col(0, 0)],
            est_rows: 0.0,
            est_cost: 0.0,
        }],
        order_by: vec![0],
        est_cost: 0.0,
        epoch: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A derived structure is a pure function of a heap prefix, for every
    /// structure kind: building from an arbitrary per-table prefix and
    /// catching up in two or more arbitrary steps — the view's right side
    /// growing under older left rows, so view rows land between existing
    /// ones — is bit-identical at every step to a full build over the same
    /// prefixes: same entries, rows, positions, checksums and bytes, and
    /// the same rows + `ExecStats` from an index seek and a view scan at
    /// executor thread counts 1 and 4. Likewise `rebuild_one` after
    /// damaging any one structure restores the never-damaged set.
    #[test]
    fn built_set_prefix_catch_up_equals_full_build(
        case in arb_heal_case(),
        child_cut in 0u64..u64::MAX,
        steps in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 1..4),
    ) {
        let (cols, row_seeds, _, parent_cut) = case;
        let types = heal_column_types(&cols);
        let (mut db, parent, child) = load_heal_tables(None, &types, &row_seeds);
        let config = heal_config(parent, child);
        let n = row_seeds.len();
        // A quarter of the watermarks sit at the full heap, so "only the
        // other table grew" is a common case, not a 1-in-n one.
        let cut_at = |seed: u64, from: usize| match seed % 4 {
            0 => n,
            _ => from + (seed / 4) as usize % (n - from + 1),
        };
        // Per-table watermarks: the prefix build's, each step's, the heaps'.
        let mut marks = vec![(cut_at(parent_cut, 0), cut_at(child_cut, 0))];
        for &(p, c) in &steps {
            let &(at_p, at_c) = marks.last().expect("a mark");
            marks.push((cut_at(p, at_p), cut_at(c, at_c)));
        }
        marks.push((n, n));
        let at = |(p, c): (usize, usize)| move |table: TableId| if table == parent { p } else { c };
        let full_rows = &|table: TableId| db.heap(table).rows();
        let prefix_build = |mark| {
            let cut = at(mark);
            BuiltSet::build(&config, &|table| &db.heap(table).rows()[..cut(table)])
        };

        let full = BuiltSet::build(&config, full_rows);
        let mut caught_up = prefix_build(marks[0]);
        let mut delta_rows = 0;
        for pair in marks.windows(2) {
            let to = at(pair[1]);
            delta_rows += caught_up.catch_up(&|table| &db.heap(table).rows()[..to(table)], &at(pair[0]));
            prop_assert_eq!(&caught_up, &prefix_build(pair[1]));
        }
        prop_assert_eq!(delta_rows, n - marks[0].0);
        prop_assert_eq!(&caught_up, &full);
        prop_assert_eq!(caught_up.bytes(), full.bytes());
        let mut verified = 0;
        caught_up.verify_each(db.catalog(), |_, result| {
            verified += usize::from(result.is_ok());
        });
        prop_assert_eq!(verified, 2);

        // Damage each structure in turn; `rebuild_one` restores the set.
        let mut damaged = full.clone();
        let site = parent_cut as usize % n;
        if damaged.index_mut("ix0").expect("index").corrupt_entry(site) {
            prop_assert!(damaged != full);
        }
        if damaged.view_mut("v0").expect("view").corrupt_row(site) {
            prop_assert!(damaged != full);
        }
        for (kind, name) in [(StructureKind::Index, "ix0"), (StructureKind::View, "v0")] {
            damaged.rebuild_one(kind, name, full_rows, &|_| Ok(())).expect("rebuild");
        }
        prop_assert_eq!(&damaged, &full);

        // The executor cannot tell the two sets apart either.
        let plans = [
            parent_scan_plan(parent, Access::IndexSeek {
                index: "ix0".into(),
                key: KeyRange::eq(vec![]),
                covering: false,
            }),
            QueryPlan {
                branches: vec![BranchPlan::ViewScan {
                    view: "v0".into(),
                    filters: vec![],
                    outputs: vec![ViewOutput::Col(0), ViewOutput::Col(1)],
                    est_rows: 0.0,
                    est_cost: 0.0,
                }],
                order_by: vec![0, 1],
                est_cost: 0.0,
                epoch: 0,
            },
        ];
        let mut views = Vec::new();
        for set in [full, caught_up] {
            db.apply_built(set).expect("install");
            for threads in [1usize, 4] {
                db.set_exec_options(ExecOptions { threads, ..ExecOptions::default() });
                for plan in &plans {
                    let outcome = db.execute_plan(plan.clone()).expect("execute");
                    views.push(deterministic_view(&outcome));
                }
            }
        }
        let (from_full, from_caught_up) = views.split_at(views.len() / 2);
        prop_assert_eq!(from_full, from_caught_up);
        prop_assert_eq!(&from_full[..plans.len()], &from_full[plans.len()..]);
    }
}

/// An index's pages do not depend on how it was built: after every
/// catch-up step they are the key-order layout's — 16 bytes of node
/// overhead per key plus 4 per posting — counted to the page the last
/// entry starts on, plus one.
#[test]
fn index_pages_are_the_key_order_layout() {
    let rows: Vec<Row> = (0..3000i64)
        .map(|i| vec![Value::Int(i), Value::str("k".repeat((i * 7 % 40) as usize))])
        .collect();
    let def = IndexDef::new("ix", TableId(0), vec![1, 0], vec![]);
    let mut index = xmlshred::rel::BuiltIndex::build(def, &rows[..100]);
    for to in [100, 1100, 1101, 3000] {
        index.extend_from(&rows[..to], index.scan().map(|(_, r)| r.len()).sum());
        let widths: Vec<usize> = (index.scan())
            .map(|(key, rows)| key.iter().map(Value::width).sum::<usize>() + 16 + 4 * rows.len())
            .collect();
        let last_start = widths.iter().sum::<usize>() - widths[widths.len() - 1];
        assert_eq!(index.byte_size(), widths.iter().sum::<usize>());
        assert_eq!(index.pages(), last_start / 8192 + 1, "after {to} rows");
    }
    assert!(index.pages() > 1);
}

/// Damage survives maintenance: an index entry and a view row corrupted
/// in a prefix build are still reported by `verify_each` after catching up
/// more rows, since the delta updates the checksums and never recomputes
/// them from the damaged structure.
#[test]
fn catch_up_keeps_reporting_damage() {
    let seeds: Vec<u64> = (0..200).collect();
    let (db, parent, child) = load_heal_tables(None, &[(DataType::Int, false)], &seeds);
    let half = |table: TableId| db.heap(table).len() / 2;
    let config = heal_config(parent, child);
    let mut built = BuiltSet::build(&config, &|table| &db.heap(table).rows()[..half(table)]);
    assert!(built.index_mut("ix0").expect("index").corrupt_entry(3));
    assert!(built.view_mut("v0").expect("view").corrupt_row(3));
    assert!(built.catch_up(&|table| db.heap(table).rows(), &half) > 0);
    let mut reported = Vec::new();
    built.verify_each(db.catalog(), |kind, result| {
        if result.is_err() {
            reported.push(kind);
        }
    });
    assert_eq!(reported, [StructureKind::Index, StructureKind::View]);
}

// ------------------------------------------------------ own-write reads --

use xmlshred::rel::SessionDb;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Read-your-own-writes is the snapshot prefix followed by the pending
    /// batches in statement order, whatever else the engine holds: a design
    /// on the written tables (planned against like any statement's; on
    /// these one-page tables the optimizer scans), rows another
    /// session committed after `begin`, a table created after `begin`, and
    /// a table written twice. Three independent answers agree: the
    /// transaction's, a brute-force evaluation over the modelled rows, and
    /// the same query on a fresh database loaded with exactly those rows
    /// (what the per-query overlay copy used to be). Heap order is exact
    /// for single-table queries; the join is compared as a multiset, since
    /// which side drives it follows the statistics, and the transaction
    /// plans with the engine's while the loaded copy analyzes its own.
    /// Rows and `ExecStats` bits do not move between 1 and 4 executor
    /// threads, and `tuples_processed` is exactly a bare scan of the
    /// snapshot prefix plus the pending rows of the scanned tables (the
    /// hash join processes each scanned row once more): the cost follows
    /// the snapshot scan and the transaction, not a copy of the database.
    #[test]
    fn own_write_reads_equal_brute_force_and_load_then_read(
        case in arb_heal_case(),
        raw_filters in proptest::collection::vec((0u8..8, 0u8..8, 0u8..3, 0u64..u64::MAX), 1..3),
        concurrent in proptest::collection::vec(0u64..u64::MAX, 1..30),
        batches in proptest::collection::vec(
            (0usize..3, proptest::collection::vec(0u64..u64::MAX, 1..40)),
            1..4,
        ),
    ) {
        let (cols, row_seeds, _, _) = case;
        let types = heal_column_types(&cols);
        let parent_row = |seed: u64| -> Row {
            types
                .iter()
                .enumerate()
                .map(|(c, &(ty, nullable))| dur_value(ty, nullable, seed, c as u64))
                .collect()
        };
        let select = |table: TableId, width: usize| {
            let mut q = SelectQuery::single(table);
            q.outputs = (0..width).map(|c| Output::col(0, c)).collect();
            q
        };

        let mut views = Vec::new();
        for threads in [1usize, 4] {
            let (mut db, parent, child) = load_heal_tables(None, &types, &row_seeds);
            db.apply_config(&PhysicalConfig {
                indexes: vec![
                    IndexDef::new("ix0", parent, vec![0], vec![]),
                    IndexDef::new("ix1", child, vec![0], vec![1]),
                ],
                views: vec![],
            })
            .expect("apply config");
            // Small morsels, so prefix and pending batches both span several.
            db.set_exec_options(ExecOptions { threads, morsel_rows: 16 });
            let child_def = db.catalog().try_table(child).expect("t1").clone();
            // What the transaction must see, per table: the snapshot prefix
            // now, each pending batch appended as it is buffered.
            let mut model: Vec<Vec<Row>> = vec![
                db.heap(parent).rows().to_vec(),
                db.heap(child).rows().to_vec(),
                Vec::new(),
            ];

            let sdb = SessionDb::new(db);
            let mut txn = sdb.begin();
            // After the snapshot: another session commits to both written
            // tables, and a third table appears.
            sdb.insert_rows(parent, concurrent.iter().map(|&s| parent_row(s)).collect())
                .expect("concurrent commit");
            sdb.insert_rows(
                child,
                concurrent
                    .iter()
                    .map(|&s| vec![parent_row(s)[0].clone(), Value::Int(-1)])
                    .collect(),
            )
            .expect("concurrent commit");
            let late = sdb
                .create_table(TableDef::new("t2", child_def.columns.clone()))
                .expect("create t2");
            let tables = [parent, child, late];
            for (t, seeds) in &batches {
                let rows: Vec<Row> = seeds
                    .iter()
                    .map(|&seed| match t {
                        0 => parent_row(seed),
                        // Child-shaped rows join to a parent the
                        // transaction can see.
                        _ => {
                            let key = model[0][seed as usize % model[0].len()][0].clone();
                            vec![key, Value::Int((seed % 1000) as i64)]
                        }
                    })
                    .collect();
                model[*t].extend(rows.iter().cloned());
                txn.insert_rows(tables[*t], rows).expect("buffer");
            }

            // Load-then-read: a fresh database holding exactly the model.
            let mut loaded = Database::new();
            for (&table, rows) in tables.iter().zip(&model) {
                let def = sdb.with_db(|db| db.catalog().try_table(table).expect("def").clone());
                prop_assert_eq!(loaded.create_table(def).expect("create"), table);
                loaded.insert_rows(table, rows.clone()).expect("load");
            }
            loaded.analyze().expect("analyze");

            let filtered = scan_query(parent, &types, &raw_filters);
            let SqlQuery::Select(filter_block) = &filtered else { unreachable!() };
            let mut join = select(parent, 1);
            join.tables.push(child);
            join.joins.push(JoinCond { left_ref: 0, left_col: 0, right_ref: 1, right_col: 0 });
            join.outputs.push(Output::col(1, 1));
            let mut joined = Vec::new();
            for p in &model[0] {
                for c in model[1].iter().filter(|c| !p[0].is_null() && c[0] == p[0]) {
                    joined.push(vec![p[0].clone(), c[1].clone()]);
                }
            }
            let mut by_key = model[1].clone();
            by_key.sort_by(|a, b| a[0].total_cmp(&b[0]));
            let scanned = |t: usize| model[t].len() as u64;
            // (query, brute-force rows, is the row order defined, tuples)
            let checks = [
                (SqlQuery::Select(select(parent, types.len())), model[0].clone(), true, scanned(0)),
                (
                    filtered.clone(),
                    model[0]
                        .iter()
                        .filter(|row| {
                            filter_block.filters.iter().all(|f| f.op.eval(&row[f.column], &f.value))
                        })
                        .cloned()
                        .collect(),
                    true,
                    scanned(0),
                ),
                (SqlQuery::Select(join), joined, false, 2 * (scanned(0) + scanned(1))),
                (
                    SqlQuery::Union(UnionAllQuery {
                        branches: vec![select(child, 2)],
                        order_by: vec![0],
                    }),
                    by_key,
                    true,
                    scanned(1),
                ),
                (SqlQuery::Select(select(late, 2)), model[2].clone(), true, scanned(2)),
            ];
            for (i, (query, brute, ordered, tuples)) in checks.into_iter().enumerate() {
                let own = txn.query(&query).expect("own-write read");
                let canon = |mut rows: Vec<Row>| {
                    if !ordered {
                        rows.sort();
                    }
                    rows
                };
                let own_rows = canon(own.rows.clone());
                prop_assert_eq!(&own_rows, &canon(brute), "query {} vs brute force", i);
                let reloaded = loaded.execute(&query).expect("load-then-read");
                prop_assert_eq!(&own_rows, &canon(reloaded.rows), "query {} vs load-then-read", i);
                prop_assert_eq!(own.exec.tuples_processed, tuples, "query {} tuples", i);
                views.push(deterministic_view(&own));
            }
        }
        let (serial, parallel) = views.split_at(views.len() / 2);
        prop_assert_eq!(serial, parallel, "own-write reads vary with threads");
    }
}
