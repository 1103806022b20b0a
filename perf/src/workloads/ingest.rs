//! `ingest`: XML text → `parse_element` → `load_database` (includes
//! analyze) → `apply_config` → first XPath answered, single thread.
//!
//! One operation is one pass over both documents (Movie, then DBLP), so
//! operations are alike and their median means something. Each document is
//! loaded under Greedy's LP-LS-20 design for it, computed in set-up.

use super::{traced_result, Run};
use crate::fixture::{
    advise, expected_answers, pool, source_at, DatasetKind, Design, Pool, PoolQuery, Source,
};
use crate::report::{LayerMetrics, RunResult};
use crate::stats::{Recorder, Timed};
use crate::trace::{call, Scope, Tracer, OP};
use std::time::Instant;
use xmlshred_rel::{Database, QueryOutcome};
use xmlshred_shred::shredder::load_database;
use xmlshred_shred::SourceStats;
use xmlshred_translate::translate::translate;
use xmlshred_xml::parser::parse_element;
use xmlshred_xpath::parser::parse_path;

/// Dataset scale of the two documents: DBLP 1 000 inproceedings + 100
/// books (~0.44 MB of XML), Movie 1 500 movies (~0.30 MB), a fifth of the
/// other workloads' [`crate::fixture::SCALE`]. The cost per byte is the same
/// from 30 KB to 3.7 MB per pass (28-31 MB/s), but the more memory a pass
/// walks, the more it shows of the shared host's slow minutes: run in turn
/// for half an hour, passes at scale 0.25 (96 MB resident) fell more than
/// 8 % below their median in 30 % of the runs and 15 % below in 23 %,
/// passes at 0.05 (25 MB) in 5.8 % and 0.7 %; smaller still is no steadier
/// (README, "Differences from the issue's sketch").
const INGEST_SCALE: f64 = 0.05;

struct Doc {
    source: Source,
    design: Design,
    /// The first pool query and its verified answer.
    first: PoolQuery,
    stored_bytes: usize,
    /// Elements in the document.
    elements: usize,
}

struct Fixture {
    docs: Vec<Doc>,
}

fn setup(seed: u64) -> Result<Fixture, String> {
    let docs = [DatasetKind::Movie, DatasetKind::Dblp]
        .into_iter()
        .map(|kind| {
            let source = source_at(kind, seed, INGEST_SCALE)?;
            let workload = pool(kind, Pool::LpLs)?;
            let stats = SourceStats::collect(&source.tree, &source.document);
            let outcome = advise(&source, &stats, &workload);
            let design = Design::new(&source.tree, outcome.mapping, outcome.config);
            let db = design.load(&source.tree, &source.document)?;
            let first = expected_answers(&source, &design, &db, &workload[..1])?
                .pop()
                .ok_or("empty pool")?;
            Ok(Doc {
                stored_bytes: db.data_bytes() + db.built_bytes(),
                elements: source.document.subtree_size(),
                source,
                design,
                first,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Fixture { docs })
}

/// What ingesting one document produced, for checks and counts.
struct Ingested {
    db: Database,
    outcome: QueryOutcome,
    union_branches: usize,
}

/// The measured path for one document. Every layer call goes through
/// [`call`], which records a span only when tracing.
fn ingest(doc: &Doc, scope: &mut Scope<'_>) -> Result<Ingested, String> {
    let tree = &doc.source.tree;
    let design = &doc.design;
    let dom = call(scope, "xml.parse_element", || {
        parse_element(&doc.source.xml)
    })
    .map_err(|e| format!("parse_element: {e}"))?;
    let mut db = call(scope, "shred.load_database", || {
        load_database(tree, &design.mapping, &design.schema, &[&dom])
    })
    .map_err(|e| format!("load_database: {e}"))?;
    call(scope, "rel.index.apply_config", || {
        db.apply_config(&design.config)
    })
    .map_err(|e| format!("apply_config: {e}"))?;
    let path = call(scope, "xpath.parse_path", || parse_path(&doc.first.text))
        .map_err(|e| format!("parse_path: {e}"))?;
    let translated = call(scope, "translate.translate", || {
        translate(tree, &design.mapping, &design.schema, &path)
    })
    .map_err(|e| format!("translate: {e}"))?;
    let plan = call(scope, "rel.optimizer.plan", || db.plan(&translated.sql))
        .map_err(|e| format!("plan: {e}"))?;
    let outcome = call(scope, "rel.exec.execute_plan", || db.execute_plan(plan))
        .map_err(|e| format!("execute_plan: {e}"))?;
    // Releasing the DOM is the parser's cost too.
    call(scope, "xml.drop_dom", || drop(dom));
    Ok(Ingested {
        db,
        union_branches: translated.sql.branches().len(),
        outcome,
    })
}

/// One untraced pass; true when every document's first answer is right.
fn pass(fixture: &Fixture) -> bool {
    fixture.docs.iter().all(|doc| match ingest(doc, &mut None) {
        Ok(ingested) => doc.first.hash_matches(&ingested.outcome.rows),
        Err(_) => false,
    })
}

fn rows_loaded(db: &Database) -> usize {
    db.catalog().iter().map(|(id, _)| db.heap(id).len()).sum()
}

pub fn run(run: &Run) -> Result<RunResult, String> {
    let (fixture, setup_s) = run.setup(|| setup(run.seed))?;
    let xml_bytes: usize = fixture.docs.iter().map(|d| d.source.xml.len()).sum();
    let stored: usize = fixture.docs.iter().map(|d| d.stored_bytes).sum();

    let warm_until = Instant::now() + std::time::Duration::from_secs_f64(run.warmup_seconds());
    let mut failed = u64::from(!pass(&fixture));
    let mut attempted = 1;
    while Instant::now() < warm_until {
        failed += u64::from(!pass(&fixture));
        attempted += 1;
    }

    if run.traced {
        return traced(run, &fixture, attempted, failed);
    }

    let mut rec = Recorder::new(Instant::now(), run.seconds);
    while !rec.done() {
        let t0 = Instant::now();
        let ok = pass(&fixture);
        rec.record(t0, Instant::now());
        attempted += 1;
        failed += u64::from(!ok);
    }
    let timed = Timed::merge(vec![rec.finish()]);
    let mb_s = timed.ops_per_s().scaled(xml_bytes as f64 / 1e6);
    let notes = vec![format!(
        "ingest_mb_s {:.3} MB/s [rounds {:.3} .. {:.3}] ({} XML bytes per pass, scale {})",
        mb_s.median, mb_s.min, mb_s.max, xml_bytes, INGEST_SCALE
    )];
    Ok(run.end_to_end(
        timed.ops_per_s(),
        &timed,
        stored as f64 / xml_bytes as f64,
        setup_s,
        attempted,
        failed,
        notes,
    ))
}

fn traced(
    run: &Run,
    fixture: &Fixture,
    mut attempted: u64,
    mut failed: u64,
) -> Result<RunResult, String> {
    let mut tracer = Tracer::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(run.seconds);
    let (mut bytes, mut elements, mut rows, mut built_bytes) = (0usize, 0usize, 0usize, 0usize);
    let (mut branches, mut tuples, mut rows_out, mut cost) = (0usize, 0u64, 0usize, 0.0f64);
    let mut passes = 0u32;
    while passes == 0 || Instant::now() < deadline {
        let op = tracer.begin(OP, None, passes);
        let mut ingested = Vec::with_capacity(fixture.docs.len());
        let mut ok = true;
        for doc in &fixture.docs {
            match ingest(doc, &mut Some((&mut tracer, op))) {
                Ok(done) => {
                    ok &= doc.first.hash_matches(&done.outcome.rows);
                    let load_span = tracer
                        .last("shred.load_database")
                        .expect("ingest recorded its load span");
                    ingested.push((doc, done, load_span));
                }
                Err(_) => ok = false,
            }
        }
        tracer.end(op);
        attempted += 1;
        failed += u64::from(!ok);
        // After the operation: repeat `analyze` on the same rows as an
        // attributed child of the load that contained the first one.
        for (doc, mut done, load_span) in ingested {
            let analyze = tracer.begin("rel.stats.analyze", Some(load_span), passes);
            let analyzed = done.db.analyze();
            tracer.end(analyze);
            analyzed.map_err(|e| format!("analyze: {e}"))?;
            bytes += doc.source.xml.len();
            elements += doc.elements;
            rows += rows_loaded(&done.db);
            built_bytes += done.db.built_bytes();
            branches += done.union_branches;
            tuples += done.outcome.exec.tuples_processed;
            rows_out += done.outcome.exec.rows_out;
            // A float sum over a varying number of passes would differ in
            // its last bits from run to run; every pass costs the same.
            if passes == 0 {
                cost += done.outcome.exec.measured_cost();
            }
        }
        passes += 1;
    }

    let n = f64::from(passes);
    let queries = n * fixture.docs.len() as f64;
    let total = |name: &str| tracer.total(name).0 as f64;
    let analyze_ns = total("rel.stats.analyze");
    let mut layers = LayerMetrics::default();
    layers.set(
        "xml.parse_ns_per_byte",
        total("xml.parse_element") / bytes as f64,
    );
    layers.set("xml.dom_elements", elements as f64 / n);
    layers.set(
        "shred.load_ns_per_row",
        (total("shred.load_database") - analyze_ns).max(0.0) / rows as f64,
    );
    layers.set("shred.rows_per_element", rows as f64 / elements as f64);
    layers.set("rel.stats.analyze_ns_per_row", analyze_ns / rows as f64);
    layers.set(
        "rel.index.build_ns_per_row",
        total("rel.index.apply_config") / rows as f64,
    );
    layers.set("rel.index.built_bytes", built_bytes as f64 / n);
    layers.set("xpath.parse_ns", tracer.mean_ns("xpath.parse_path"));
    layers.set(
        "translate.translate_ns",
        tracer.mean_ns("translate.translate"),
    );
    layers.set("translate.union_branches", branches as f64 / queries);
    layers.set(
        "rel.optimizer.plan_ns",
        tracer.mean_ns("rel.optimizer.plan"),
    );
    layers.set(
        "rel.exec.execute_ns",
        tracer.mean_ns("rel.exec.execute_plan"),
    );
    layers.set(
        "rel.exec.tuples_per_row_out",
        tuples as f64 / rows_out.max(1) as f64,
    );
    layers.set("rel.exec.measured_cost", cost / fixture.docs.len() as f64);
    let mut notes = Vec::new();
    for doc in &fixture.docs {
        notes.push(format!(
            "{}: {} XML bytes",
            doc.source.kind.name(),
            doc.source.xml.len()
        ));
    }
    let per_doc = per_document_parse_ns_per_byte(&tracer, fixture);
    notes.push(format!("xml.parse_ns_per_byte by document: {per_doc}"));
    traced_result(run, &tracer, layers, attempted, failed, notes)
}

/// The documents alternate within a pass, so the n-th parse span belongs to
/// document `n % docs`.
fn per_document_parse_ns_per_byte(tracer: &Tracer, fixture: &Fixture) -> String {
    let mut ns = vec![0u64; fixture.docs.len()];
    let mut count = vec![0u64; fixture.docs.len()];
    for (i, span) in tracer
        .spans()
        .iter()
        .filter(|s| s.name == "xml.parse_element")
        .enumerate()
    {
        ns[i % fixture.docs.len()] += span.nanos();
        count[i % fixture.docs.len()] += 1;
    }
    fixture
        .docs
        .iter()
        .enumerate()
        .map(|(i, doc)| {
            format!(
                "{} {:.2} ns/B",
                doc.source.kind.name(),
                ns[i] as f64 / (count[i].max(1) * doc.source.xml.len() as u64) as f64
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}
