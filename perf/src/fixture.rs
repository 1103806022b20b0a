//! Seeded inputs shared by the workloads: the two generated datasets as a
//! user holds them (XSD tree + XML text), the query pools, the advisor's
//! design for a pool, a loaded database, and each pool query's expected
//! answer checked against the DOM evaluator.
//!
//! The seed goes to the generators only; the system under test sees just
//! the XML text, the XPath texts and the rows they produce.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use xmlshred_core::{greedy_search, AdvisorOutcome, EvalContext, GreedyOptions};
use xmlshred_data::workload::{dblp_workload, movie_workload, WorkloadSpec};
use xmlshred_data::{generate_dblp, generate_movie, DblpConfig, MovieConfig};
use xmlshred_rel::{Database, PhysicalConfig, Row};
use xmlshred_shred::schema::{derive_schema, DerivedSchema};
use xmlshred_shred::shredder::load_database;
use xmlshred_shred::{Mapping, SourceStats};
use xmlshred_translate::assemble::reassemble;
use xmlshred_translate::translate::translate;
use xmlshred_xml::dom::Element;
use xmlshred_xml::tree::SchemaTree;
use xmlshred_xml::writer::element_to_string;
use xmlshred_xpath::ast::Path;
use xmlshred_xpath::eval::evaluate_query;
use xmlshred_xpath::parser::parse_path;

/// Dataset scale relative to the paper-sized defaults of `xmlshred_data`
/// (DBLP 20 000 inproceedings + 2 000 books, Movie 30 000 movies). 0.25
/// gives DBLP ~2.2 MB and Movie ~1.5 MB of XML: large enough that per-row
/// work dominates `xpath_scan`, small enough that a set-up takes well under
/// a second, which the run budget (114 runs in under an hour, each setting
/// up three times) requires.
pub const SCALE: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    Dblp,
    Movie,
}

impl DatasetKind {
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Dblp => "dblp",
            DatasetKind::Movie => "movie",
        }
    }
}

/// A generated dataset as the user holds it.
pub struct Source {
    pub kind: DatasetKind,
    pub tree: SchemaTree,
    /// The document as XML text — the system's input.
    pub xml: String,
    /// The same document as a DOM — the oracle's input.
    pub document: Element,
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(50)
}

pub fn dblp_config(seed: u64, scale: f64) -> DblpConfig {
    let defaults = DblpConfig::default();
    DblpConfig {
        n_inproceedings: scaled(defaults.n_inproceedings, scale),
        n_books: scaled(defaults.n_books, scale),
        seed,
        ..defaults
    }
}

/// The dataset at [`SCALE`].
pub fn source(kind: DatasetKind, seed: u64) -> Result<Source, String> {
    source_at(kind, seed, SCALE)
}

pub fn source_at(kind: DatasetKind, seed: u64, scale: f64) -> Result<Source, String> {
    let dataset = match kind {
        DatasetKind::Dblp => generate_dblp(&dblp_config(seed, scale))?,
        DatasetKind::Movie => {
            let defaults = MovieConfig::default();
            generate_movie(&MovieConfig {
                n_movies: scaled(defaults.n_movies, scale),
                seed,
                ..defaults
            })?
        }
    };
    Ok(Source {
        kind,
        tree: dataset.tree,
        xml: element_to_string(&dataset.document),
        document: dataset.document,
    })
}

/// The four 20-query pool shapes of the paper's Section 5.1.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    LpLs,
    LpHs,
    HpLs,
    HpHs,
}

impl Pool {
    pub const ALL: [Pool; 4] = [Pool::LpLs, Pool::LpHs, Pool::HpLs, Pool::HpHs];

    pub fn name(self) -> &'static str {
        match self {
            Pool::LpLs => "LP-LS-20",
            Pool::LpHs => "LP-HS-20",
            Pool::HpLs => "HP-LS-20",
            Pool::HpHs => "HP-HS-20",
        }
    }
}

/// The pool's queries with weights. The pools are the fixed ones of
/// `WorkloadSpec::{dblp,movie}_suite()` — the benchmark seed does not
/// reshuffle them, because twenty random queries are too few for their mean
/// cost to repeat from one pool to the next; the seed varies the data they
/// run on and the order they are drawn in.
pub fn pool(kind: DatasetKind, pool: Pool) -> Result<Vec<(Path, f64)>, String> {
    let suite = match kind {
        DatasetKind::Dblp => WorkloadSpec::dblp_suite(),
        DatasetKind::Movie => WorkloadSpec::movie_suite(),
    };
    let spec = suite
        .iter()
        .find(|s| s.name() == pool.name())
        .ok_or_else(|| format!("no {} spec for {}", pool.name(), kind.name()))?;
    let workload = match kind {
        DatasetKind::Dblp => {
            let c = DblpConfig::default();
            dblp_workload(spec, c.years, c.n_conferences)?
        }
        DatasetKind::Movie => {
            let c = MovieConfig::default();
            movie_workload(spec, c.years, c.n_genres)?
        }
    };
    Ok(workload.queries)
}

/// The paper's storage bound: physical structures within 3x the data size.
pub fn space_budget(source: &Source) -> f64 {
    3.0 * source.xml.len() as f64
}

/// Greedy's recommendation (default options) for `workload` on `source`.
pub fn advise(source: &Source, stats: &SourceStats, workload: &[(Path, f64)]) -> AdvisorOutcome {
    let ctx = EvalContext {
        tree: &source.tree,
        source: stats,
        workload,
        space_budget: space_budget(source),
    };
    greedy_search(&ctx, &GreedyOptions::default())
}

/// A logical + physical design ready to load documents under.
pub struct Design {
    pub mapping: Mapping,
    pub config: PhysicalConfig,
    pub schema: DerivedSchema,
}

impl Design {
    pub fn new(tree: &SchemaTree, mapping: Mapping, config: PhysicalConfig) -> Design {
        let schema = derive_schema(tree, &mapping);
        Design {
            mapping,
            config,
            schema,
        }
    }

    /// Shred `document` and build the physical structures.
    pub fn load(&self, tree: &SchemaTree, document: &Element) -> Result<Database, String> {
        let mut db = load_database(tree, &self.mapping, &self.schema, &[document])
            .map_err(|e| format!("load_database: {e}"))?;
        db.apply_config(&self.config)
            .map_err(|e| format!("apply_config: {e}"))?;
        Ok(db)
    }
}

/// One pool query with its verified answer.
pub struct PoolQuery {
    /// XPath text — what a client sends.
    pub text: String,
    /// SQL rows the translated query returns.
    pub expected_rows: usize,
    /// Hash of those rows, in order.
    pub expected_hash: u64,
}

impl PoolQuery {
    /// Cheap per-operation check.
    pub fn count_matches(&self, rows: &[Row]) -> bool {
        rows.len() == self.expected_rows
    }

    /// Full check, once per round.
    pub fn hash_matches(&self, rows: &[Row]) -> bool {
        rows.len() == self.expected_rows && hash_rows(rows) == self.expected_hash
    }
}

pub fn hash_rows(rows: &[Row]) -> u64 {
    let mut hasher = DefaultHasher::new();
    rows.hash(&mut hasher);
    hasher.finish()
}

/// Numeric values round-trip through typed columns ("7.0" is stored as the
/// float 7.0 and prints as "7"); canonicalize both sides the same way.
fn canonical(value: String) -> String {
    match value.parse::<f64>() {
        Ok(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{}", v as i64),
        Ok(v) => v.to_string(),
        Err(_) => value,
    }
}

/// Execute every pool query against `db` and accept the rows as the
/// expected answer only when, reassembled, they equal what the DOM
/// evaluator returns on the original document.
pub fn expected_answers(
    source: &Source,
    design: &Design,
    db: &Database,
    workload: &[(Path, f64)],
) -> Result<Vec<PoolQuery>, String> {
    workload
        .iter()
        .map(|(path, _)| {
            let text = path.to_string();
            let reparsed =
                parse_path(&text).map_err(|e| format!("'{text}' does not parse: {e}"))?;
            let translated = translate(&source.tree, &design.mapping, &design.schema, &reparsed)
                .map_err(|e| format!("'{text}' does not translate: {e}"))?;
            let outcome = db
                .execute(&translated.sql)
                .map_err(|e| format!("'{text}' does not execute: {e}"))?;
            let mut got: Vec<(String, String)> = reassemble(&outcome.rows, &translated.shape)
                .into_iter()
                .map(|t| (t.tag, canonical(t.value)))
                .collect();
            got.sort();
            let mut want: Vec<(String, String)> = evaluate_query(&source.document, path)
                .into_iter()
                .map(|m| (m.tag, canonical(m.value)))
                .collect();
            want.sort();
            if got != want {
                return Err(format!(
                    "'{text}': SQL answer ({} values) differs from the DOM oracle's ({} values)",
                    got.len(),
                    want.len()
                ));
            }
            Ok(PoolQuery {
                text,
                expected_rows: outcome.rows.len(),
                expected_hash: hash_rows(&outcome.rows),
            })
        })
        .collect()
}

/// DBLP under Greedy's design for one pool, answers verified: what the
/// three serve workloads know about the database they serve.
pub struct Served {
    pub source: Source,
    pub design: Design,
    pub queries: Vec<PoolQuery>,
    /// (heap + built structure bytes) per byte of XML loaded.
    pub stored_bytes_per_xml_byte: f64,
}

impl Served {
    /// Generate, advise, load, verify. Returns the loaded database beside
    /// its description so the caller can put it behind a server.
    pub fn build(seed: u64, pool_kind: Pool, scale: f64) -> Result<(Served, Database), String> {
        let source = source_at(DatasetKind::Dblp, seed, scale)?;
        let workload = pool(DatasetKind::Dblp, pool_kind)?;
        let stats = SourceStats::collect(&source.tree, &source.document);
        let outcome = advise(&source, &stats, &workload);
        let design = Design::new(&source.tree, outcome.mapping, outcome.config);
        let db = design.load(&source.tree, &source.document)?;
        let queries = expected_answers(&source, &design, &db, &workload)?;
        let stored_bytes_per_xml_byte =
            (db.data_bytes() + db.built_bytes()) as f64 / source.xml.len() as f64;
        Ok((
            Served {
                source,
                design,
                queries,
                stored_bytes_per_xml_byte,
            },
            db,
        ))
    }
}
