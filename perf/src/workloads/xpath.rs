//! `xpath_point` and `xpath_scan`: DBLP under Greedy's design for the
//! LP-LS-20 (point) or HP-HS-20 (scan) pool, an in-memory `SessionDb`
//! behind `rel::Server` on loopback, and `min(2, nproc)` closed-loop client
//! connections. One operation is one XPath text → `parse_path` →
//! `translate` → `Client::query` → rows, checked against the answer the DOM
//! oracle confirmed in set-up.
//!
//! The reader and the traced read operation here are also `mixed_rw`'s.

use super::{traced_result, Run};
use crate::fixture::{Pool, PoolQuery, Served, SCALE};
use crate::report::{LayerMetrics, RunResult};
use crate::spec::Workload;
use crate::stats::{Recorder, Timed};
use crate::trace::{Tracer, OP};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use xmlshred_rel::{Client, Database, RelError, Row, Server, ServerOptions, SessionDb, SqlQuery};
use xmlshred_translate::translate::{translate, TranslatedQuery};
use xmlshred_xpath::parser::parse_path;

/// A served database: what the clients know plus the running server.
pub(super) struct Serving {
    pub served: Served,
    pub sdb: SessionDb,
    server: Option<Server>,
    pub addr: SocketAddr,
}

impl Serving {
    pub fn spawn(served: Served, db: Database) -> Result<Serving, String> {
        let sdb = SessionDb::new(db);
        let server = Server::spawn_with(sdb.clone(), "127.0.0.1:0", ServerOptions::default())
            .map_err(|e| format!("server spawn: {e}"))?;
        Ok(Serving {
            served,
            sdb,
            addr: server.local_addr(),
            server: Some(server),
        })
    }

    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until shutdown")
    }

    /// Drain and join the server's threads and let go of the database.
    pub fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            self.sdb = SessionDb::new(Database::new());
        }
    }
}

impl Drop for Serving {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// XPath text to SQL, as a client does per statement.
pub(super) fn to_sql(served: &Served, text: &str) -> Result<TranslatedQuery, String> {
    let path = parse_path(text).map_err(|e| format!("parse_path: {e}"))?;
    translate(
        &served.source.tree,
        &served.design.mapping,
        &served.design.schema,
        &path,
    )
    .map_err(|e| format!("translate: {e}"))
}

/// What a closed-loop client brings back.
pub(super) struct ClientRecord {
    pub rounds: Vec<(Vec<u64>, Duration)>,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
}

/// One closed-loop reader: draws pool queries uniformly (seeded) until the
/// recorder's time is up. The first operation of each round is checked by
/// full row hash, the rest by row count.
pub(super) fn reader(
    served: &Served,
    addr: SocketAddr,
    seed: u64,
    start: Instant,
    seconds: f64,
) -> Result<ClientRecord, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rec = Recorder::new(start, seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);
    while !rec.done() {
        let query = &served.queries[rng.gen_range(0..served.queries.len())];
        let full_check = rec.first_of_round();
        let t0 = Instant::now();
        let rows: Result<Vec<Row>, String> = to_sql(served, &query.text)
            .and_then(|t| client.query(&t.sql).map_err(|e| format!("query: {e}")));
        rec.record(t0, Instant::now());
        attempted += 1;
        let ok = match &rows {
            Ok(rows) if full_check => query.hash_matches(rows),
            Ok(rows) => query.count_matches(rows),
            Err(_) => false,
        };
        failed += u64::from(!ok);
    }
    let retries = client.retry_stats().retries;
    client.close().map_err(|e| format!("close: {e}"))?;
    Ok(ClientRecord {
        rounds: rec.finish(),
        attempted,
        failed,
        retries,
    })
}

/// Run `clients` readers side by side for `seconds`.
pub(super) fn readers(
    serving: &Serving,
    clients: usize,
    seed: u64,
    seconds: f64,
) -> Result<Vec<ClientRecord>, String> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let served = &serving.served;
                let addr = serving.addr;
                scope.spawn(move || {
                    reader(served, addr, seed ^ ((c as u64 + 1) << 32), start, seconds)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "reader panicked".to_string())?)
            .collect()
    })
}

fn pool_of(workload: Workload) -> Pool {
    match workload {
        Workload::XpathScan => Pool::HpHs,
        _ => Pool::LpLs,
    }
}

pub fn run(run: &Run) -> Result<RunResult, String> {
    let (mut serving, setup_s) = run.setup(|| {
        let (served, db) = Served::build(run.seed, pool_of(run.workload), SCALE)?;
        Serving::spawn(served, db)
    })?;
    let clients = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);

    let warm = readers(&serving, clients, run.seed ^ 0x5eed, run.warmup_seconds())?;
    let mut attempted: u64 = warm.iter().map(|c| c.attempted).sum();
    let mut failed: u64 = warm.iter().map(|c| c.failed).sum();

    if run.traced {
        let mut tracer = Tracer::new();
        let mut layers = LayerMetrics::default();
        let mut client = Client::connect(serving.addr).map_err(|e| format!("connect: {e}"))?;
        let tally = traced_reads(
            &serving,
            &mut client,
            &mut tracer,
            run.seed,
            Instant::now() + Duration::from_secs_f64(run.seconds),
        )?;
        attempted += tally.attempted;
        failed += tally.failed;
        tally.report(&tracer, &mut layers);
        layers.set("client.retries", client.retry_stats().retries as f64);
        client.close().map_err(|e| format!("close: {e}"))?;
        server_counters(&serving, &mut layers);
        serving.shutdown();
        return traced_result(run, &tracer, layers, attempted, failed, Vec::new());
    }

    let records = readers(&serving, clients, run.seed, run.seconds)?;
    attempted += records.iter().map(|c| c.attempted).sum::<u64>();
    failed += records.iter().map(|c| c.failed).sum::<u64>();
    let retries: u64 = records.iter().map(|c| c.retries).sum();
    let stats = serving.server().stats();
    let notes = vec![format!(
        "{clients} closed-loop client connection(s); client retries {retries}; server rejected {} timed out {} protocol errors {}",
        stats.statements_rejected, stats.statement_timeouts, stats.protocol_errors
    )];
    let timed = Timed::merge(records.into_iter().map(|c| c.rounds).collect());
    let stored = serving.served.stored_bytes_per_xml_byte;
    serving.shutdown();
    Ok(run.end_to_end(
        timed.ops_per_s(),
        &timed,
        stored,
        setup_s,
        attempted,
        failed,
        notes,
    ))
}

pub(super) fn server_counters(serving: &Serving, layers: &mut LayerMetrics) {
    let stats = serving.server().stats();
    layers.set(
        "rel.server.statements_rejected",
        stats.statements_rejected as f64,
    );
    layers.set(
        "rel.server.statement_timeouts",
        stats.statement_timeouts as f64,
    );
    layers.set("rel.server.protocol_errors", stats.protocol_errors as f64);
}

/// Counts gathered while replaying reads with spans.
#[derive(Default)]
pub(super) struct ReadTally {
    pub attempted: u64,
    pub failed: u64,
    queries: u64,
    union_branches: u64,
    rows_returned: u64,
    tuples_processed: u64,
    rows_out: u64,
    /// Summed over the first pool cycle only: a float sum over a varying
    /// number of cycles would differ in its last bits from run to run.
    first_cycle_cost: f64,
    first_cycle_queries: u64,
    pub next_op: u32,
}

impl ReadTally {
    /// The read path's per-layer metrics. Subtraction-defined ones use
    /// totals over the same queries, so each is paired query by query.
    pub fn report(&self, tracer: &Tracer, layers: &mut LayerMetrics) {
        let n = self.queries.max(1) as f64;
        let total = |name: &str| tracer.total(name).0 as f64;
        let wire = total("rel.server.query");
        let session = total("rel.session.execute");
        let plan = total("rel.optimizer.plan");
        let exec = total("rel.exec.execute_plan");
        layers.set("xpath.parse_ns", tracer.mean_ns("xpath.parse_path"));
        layers.set(
            "translate.translate_ns",
            tracer.mean_ns("translate.translate"),
        );
        layers.set("translate.union_branches", self.union_branches as f64 / n);
        layers.set("rel.optimizer.plan_ns", plan / n);
        layers.set("rel.exec.execute_ns", exec / n);
        layers.set(
            "rel.exec.tuples_per_row_out",
            self.tuples_processed as f64 / self.rows_out.max(1) as f64,
        );
        layers.set(
            "rel.exec.measured_cost",
            self.first_cycle_cost / self.first_cycle_queries.max(1) as f64,
        );
        layers.set(
            "rel.session.snapshot_overhead_ns",
            (session - plan - exec) / n,
        );
        if wire > 0.0 {
            layers.set("rel.server.wire_overhead_ns", (wire - session) / n);
            layers.set(
                "rel.server.wire_ns_per_row",
                (wire - session) / self.rows_returned.max(1) as f64,
            );
        }
    }
}

/// One traced read: the operation itself (parse, translate, answer) under a
/// root span, then — outside the operation — the same query repeated one
/// layer further in each time, recorded as attributed children: the session
/// under the wire call, plan and execute under the session.
///
/// `client` is `None` for a library-path replay (`mixed_rw`): the operation
/// is then answered by `SessionDb::execute` directly.
pub(super) fn traced_read(
    serving: &Serving,
    mut client: Option<&mut Client>,
    tracer: &mut Tracer,
    tally: &mut ReadTally,
    query: &PoolQuery,
) -> Result<(), String> {
    let served = &serving.served;
    let op = tracer.begin(OP, None, tally.next_op);
    tally.next_op += 1;
    let (path, _) = tracer.span("xpath.parse_path", op, || parse_path(&query.text));
    let path = path.map_err(|e| format!("parse_path: {e}"))?;
    let (translated, _) = tracer.span("translate.translate", op, || {
        translate(
            &served.source.tree,
            &served.design.mapping,
            &served.design.schema,
            &path,
        )
    });
    let translated = translated.map_err(|e| format!("translate: {e}"))?;
    let sql: &SqlQuery = &translated.sql;
    let (answer, outer): (Result<Vec<Row>, RelError>, _) = match client.as_deref_mut() {
        Some(client) => tracer.span("rel.server.query", op, || client.query(sql)),
        None => tracer.span("rel.session.execute", op, || {
            serving.sdb.execute(sql).map(|o| o.rows)
        }),
    };
    tracer.end(op);
    tally.attempted += 1;
    let ok = matches!(&answer, Ok(rows) if query.hash_matches(rows));
    tally.failed += u64::from(!ok);

    let session = if client.is_some() {
        let span = tracer.begin("rel.session.execute", Some(outer), tally.next_op - 1);
        let repeated = serving.sdb.execute(sql);
        tracer.end(span);
        repeated.map_err(|e| format!("session execute: {e}"))?;
        span
    } else {
        outer
    };
    let outcome = serving.sdb.with_db(|db| {
        let span = tracer.begin("rel.optimizer.plan", Some(session), tally.next_op - 1);
        let plan = db.plan(sql);
        tracer.end(span);
        let plan = plan.map_err(|e| format!("plan: {e}"))?;
        let span = tracer.begin("rel.exec.execute_plan", Some(session), tally.next_op - 1);
        let outcome = db.execute_plan(plan);
        tracer.end(span);
        outcome.map_err(|e| format!("execute_plan: {e}"))
    })?;
    if tally.queries < served.queries.len() as u64 {
        tally.first_cycle_cost += outcome.exec.measured_cost();
        tally.first_cycle_queries += 1;
    }
    tally.queries += 1;
    tally.union_branches += sql.branches().len() as u64;
    tally.rows_returned += answer.map_or(0, |rows| rows.len() as u64);
    tally.tuples_processed += outcome.exec.tuples_processed;
    tally.rows_out += outcome.exec.rows_out as u64;
    Ok(())
}

/// Replay whole cycles over the pool (each query once per cycle, in a
/// seeded order) until `deadline`, so per-query ratios and counts are exact
/// however many cycles fit.
fn traced_reads(
    serving: &Serving,
    client: &mut Client,
    tracer: &mut Tracer,
    seed: u64,
    deadline: Instant,
) -> Result<ReadTally, String> {
    let mut tally = ReadTally::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..serving.served.queries.len()).collect();
    while tally.queries == 0 || Instant::now() < deadline {
        order.shuffle(&mut rng);
        for &q in &order {
            traced_read(
                serving,
                Some(&mut *client),
                tracer,
                &mut tally,
                &serving.served.queries[q],
            )?;
        }
    }
    Ok(tally)
}
