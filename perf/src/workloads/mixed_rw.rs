//! `mixed_rw`: DBLP under Greedy's LP-LS-20 design like `xpath_point`, but
//! paper-sized (scale 1) and durable, with one paced writer connection
//! beside one closed-loop reader connection, then five restarts.
//!
//! The writer commits one new publication per transaction (its
//! `inproceedings` row plus the child rows the served mapping puts in other
//! tables), pre-shredded in set-up from a second generated document
//! (seed + 1). Those publications carry `year` 3000 and conference names no
//! pool query selects, so the reader's expected answers hold whether a plan
//! scans the heap (and sees the new rows) or seeks an index (which stays
//! stale until the next `apply_config`) — and a probe query on `year = 3000`
//! counts exactly the committed transactions.
//!
//! One writer by design: with table-granular first-committer-wins a second
//! writer would make aborts dominate and the numbers would not repeat.

use super::xpath::{
    reader, server_counters, to_sql, traced_read, ClientRecord, ReadTally, Serving,
};
use super::{out_dir, traced_result, Run};
use crate::fixture::{dblp_config, Pool, Served};
use crate::report::{LayerMetrics, RunResult};
use crate::stats::{median, percentile, Recorder, Spread, Timed};
use crate::trace::{Tracer, OP};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xmlshred_data::{generate_dblp, DblpConfig};
use xmlshred_rel::{Client, Database, RelError, Row, SessionDb, TableId, Value};
use xmlshred_shred::shredder::load_database;
use xmlshred_translate::assemble::reassemble;
use xmlshred_translate::translate::TranslatedQuery;
use xmlshred_xml::parser::parse_element;
use xmlshred_xml::writer::element_to_string;

/// The served database is the paper-sized one (20 000 inproceedings + 2 000
/// books, ~8.9 MB of XML), four times the other workloads', so that a run's
/// inserts grow it by about an eighth: the overlay and the checkpoint cost
/// time in proportion to the whole database, and on a database that doubled
/// during the run no two rounds would measure the same thing.
const MIXED_RW_SCALE: f64 = 1.0;
/// The writer starts one transaction per interval (250 per second) and
/// back to back when it has fallen behind. Pacing fixes how fast the
/// database grows: unpaced, a faster commit path would mean a bigger
/// database, and the reader and the O(size) steps would be measured on
/// different data from one version to the next.
const WRITE_INTERVAL: Duration = Duration::from_millis(4);
/// Every n-th transaction reads its own pending write before committing:
/// four per 2 s round at the writer's pace. At the issue's 1-in-4 the
/// writer would spend 99 % of its time in `build_overlay` (~130 ms each
/// against ~0.2 ms for a plain transaction; see README, first findings).
const READ_OWN_WRITE_EVERY: u64 = 125;
/// The writer checkpoints after this many commits: one per second, two per
/// round, ten cycles in a run.
const CHECKPOINT_EVERY: u64 = 250;
/// Publications pre-shredded for insertion; reused cyclically with fresh
/// IDs when a run commits more than this.
const INSERT_POOL: usize = 1_000;
/// Copies of the data directory reopened after the timed phase.
const RESTARTS: usize = 5;
/// Selects exactly the inserted publications, one row each.
const PROBE: &str = "/dblp/inproceedings[year = 3000]/title";
const INSERTED_YEAR: i32 = 3000;

/// The rows of one publication, grouped by table.
type Batch = Vec<(TableId, Vec<Row>)>;

struct Fixture {
    serving: Serving,
    dir: PathBuf,
    batches: Vec<Batch>,
    /// Added to a batch's IDs: past every ID of the served document.
    id_base: i64,
    /// IDs one pass over `batches` consumes.
    id_span: i64,
    probe: TranslatedQuery,
    stored_bytes_per_xml_byte: f64,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.serving.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn rel<T>(what: &str, result: Result<T, RelError>) -> Result<T, String> {
    result.map_err(|e| format!("{what}: {e}"))
}

fn int(value: &Value) -> Option<i64> {
    match value {
        Value::Int(v) => Some(*v),
        _ => None,
    }
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        total += entry.metadata().map_err(|e| e.to_string())?.len();
    }
    Ok(total)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// A directory of this process's own under `perf/out`.
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    out_dir().join(format!(
        "tmp-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Shred a second document of publications no pool query selects and cut
/// its rows into one batch per publication. IDs are document-order, so a
/// publication's rows are exactly the ID range up to the next publication;
/// a publication starts at each row whose `PID` is the document root.
fn insert_batches(served: &Served, seed: u64) -> Result<(Vec<Batch>, i64), String> {
    let second = generate_dblp(&DblpConfig {
        n_inproceedings: INSERT_POOL,
        n_books: 0,
        years: (INSERTED_YEAR, INSERTED_YEAR),
        seed: seed.wrapping_add(1),
        ..dblp_config(seed, MIXED_RW_SCALE)
    })?;
    let xml = element_to_string(&second.document).replace("<booktitle>CONF", "<booktitle>NEWC");
    let dom = parse_element(&xml).map_err(|e| format!("second document: {e}"))?;
    let scratch = rel(
        "shred second document",
        load_database(
            &served.source.tree,
            &served.design.mapping,
            &served.design.schema,
            &[&dom],
        ),
    )?;
    const ROOT_ID: i64 = 0;
    let mut rows: Vec<(i64, TableId, Row)> = Vec::new();
    for (table, _) in scratch.catalog().iter() {
        for row in scratch.heap(table).rows() {
            let id = int(&row[0]).ok_or("row without an integer ID")?;
            if id != ROOT_ID {
                rows.push((id, table, row.clone()));
            }
        }
    }
    rows.sort_by_key(|(id, _, _)| *id);
    let id_span = rows.last().map_or(0, |(id, _, _)| *id) + 1;
    let mut batches: Vec<Batch> = Vec::new();
    for (_, table, row) in rows {
        if int(&row[1]) == Some(ROOT_ID) {
            batches.push(Vec::new());
        }
        let batch = batches
            .last_mut()
            .ok_or("child row before any publication")?;
        match batch.iter_mut().find(|(t, _)| *t == table) {
            Some((_, rows)) => rows.push(row),
            None => batch.push((table, vec![row])),
        }
    }
    if batches.len() != INSERT_POOL {
        return Err(format!(
            "expected {INSERT_POOL} publications to insert, cut {}",
            batches.len()
        ));
    }
    Ok((batches, id_span))
}

impl Fixture {
    fn build(seed: u64) -> Result<Fixture, String> {
        let (served, loaded) = Served::build(seed, Pool::LpLs, MIXED_RW_SCALE)?;
        let dir = fresh_dir("mixed_rw");
        let mut db = rel("create_durable", Database::create_durable(&dir))?;
        let mut id_base = 0;
        for (table, def) in loaded.catalog().iter() {
            rel("create_table", db.create_table(def.clone()))?;
            let rows = loaded.heap(table).rows().to_vec();
            id_base = rows
                .iter()
                .filter_map(|r| int(&r[0]))
                .fold(id_base, i64::max);
            rel("insert_rows", db.insert_rows(table, rows))?;
        }
        rel("analyze", db.analyze())?;
        rel("apply_config", db.apply_config(&served.design.config))?;
        rel("checkpoint", db.checkpoint())?;
        let stored = (db.data_bytes() + db.built_bytes()) as u64 + dir_bytes(&dir)?;
        let stored_bytes_per_xml_byte = stored as f64 / served.source.xml.len() as f64;
        let (batches, id_span) = insert_batches(&served, seed)?;
        let probe = to_sql(&served, PROBE)?;
        Ok(Fixture {
            serving: Serving::spawn(served, db)?,
            dir,
            batches,
            id_base: id_base + 1,
            id_span,
            probe,
            stored_bytes_per_xml_byte,
        })
    }

    /// The `n`-th transaction's rows, IDs moved past everything stored.
    fn batch(&self, n: u64) -> Batch {
        let offset = self.id_base + (n / self.batches.len() as u64) as i64 * self.id_span;
        self.batches[(n % self.batches.len() as u64) as usize]
            .iter()
            .map(|(table, rows)| {
                let rows = rows
                    .iter()
                    .map(|row| {
                        let mut row = row.clone();
                        row[0] = Value::Int(int(&row[0]).unwrap_or(0) + offset);
                        // Children point at their publication; publications
                        // keep pointing at the document root (ID 0).
                        if let Some(pid) = int(&row[1]).filter(|pid| *pid != 0) {
                            row[1] = Value::Int(pid + offset);
                        }
                        row
                    })
                    .collect();
                (*table, rows)
            })
            .collect()
    }

    /// Every row of every acknowledged transaction is in `db`'s heaps.
    /// Checked on the heaps, not through a query: an index seek answers
    /// from the rows present at the last `apply_config`, before and after
    /// recovery alike, and would hide later commits that are there.
    fn all_visible(&self, db: &Database, acked: u64) -> bool {
        let present: HashSet<i64> = db
            .catalog()
            .iter()
            .flat_map(|(table, _)| db.heap(table).rows())
            .filter_map(|row| int(&row[0]))
            .collect();
        (0..acked).all(|n| {
            self.batch(n)
                .iter()
                .flat_map(|(_, rows)| rows)
                .all(|row| int(&row[0]).is_some_and(|id| present.contains(&id)))
        })
    }

    /// Inserted publications the probe's rows stand for.
    fn probe_count(&self, rows: &[Row]) -> u64 {
        reassemble(rows, &self.probe.shape).len() as u64
    }
}

/// Commits acknowledged so far, across warm-up and every phase.
#[derive(Default)]
struct Writer {
    acked: u64,
    aborts: u64,
    commit_ns: Vec<u64>,
    checkpoint_ns: Vec<u64>,
}

impl Writer {
    /// One write transaction over the wire. `Ok(false)` is a wrong
    /// read-your-own-writes answer.
    fn transact(&mut self, fixture: &Fixture, client: &mut Client) -> Result<bool, String> {
        rel("begin", client.begin())?;
        for (table, rows) in fixture.batch(self.acked) {
            rel("insert_rows", client.insert_rows(table, &rows))?;
        }
        let mut ok = true;
        if self.acked % READ_OWN_WRITE_EVERY == READ_OWN_WRITE_EVERY - 1 {
            let rows = rel("in-transaction query", client.query(&fixture.probe.sql))?;
            ok = fixture.probe_count(&rows) == self.acked + 1;
        }
        let t0 = Instant::now();
        let committed = client.commit();
        self.commit_ns
            .push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if let Err(RelError::WriteConflict { .. }) = &committed {
            self.aborts += 1;
        }
        rel("commit", committed)?;
        self.acked += 1;
        Ok(ok)
    }

    /// Commit on, untimed, until the WAL holds exactly half a checkpoint
    /// interval of transactions, so every restart replays the same amount
    /// of log however many commits the timed phase managed.
    fn top_up(&mut self, fixture: &Fixture) -> Result<(u64, u64), String> {
        let mut client =
            Client::connect(fixture.serving.addr).map_err(|e| format!("connect: {e}"))?;
        let (mut attempted, mut failed) = (0, 0);
        while self.acked % CHECKPOINT_EVERY != CHECKPOINT_EVERY / 2 {
            attempted += 1;
            failed += u64::from(!self.transact(fixture, &mut client)?);
            if self.acked.is_multiple_of(CHECKPOINT_EVERY) {
                rel("checkpoint", fixture.serving.sdb.checkpoint())?;
            }
        }
        client.close().map_err(|e| format!("close: {e}"))?;
        Ok((attempted, failed))
    }

    /// The paced writer until the recorder's time is up. One operation is
    /// one transaction, plus the checkpoint when one falls due after it.
    fn run(
        &mut self,
        fixture: &Fixture,
        start: Instant,
        seconds: f64,
    ) -> Result<ClientRecord, String> {
        let mut client =
            Client::connect(fixture.serving.addr).map_err(|e| format!("connect: {e}"))?;
        let mut rec = Recorder::new(start, seconds);
        let (mut attempted, mut failed) = (0u64, 0u64);
        while !rec.done() {
            let due = start + WRITE_INTERVAL * attempted as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let t0 = Instant::now();
            let outcome = self.transact(fixture, &mut client);
            attempted += 1;
            match outcome {
                Ok(true) => {}
                Ok(false) => failed += 1,
                Err(_) => {
                    failed += 1;
                    if client.in_txn() {
                        let _ = client.rollback();
                    }
                }
            }
            if self.acked > 0 && self.acked.is_multiple_of(CHECKPOINT_EVERY) {
                let t0 = Instant::now();
                rel("checkpoint", fixture.serving.sdb.checkpoint())?;
                self.checkpoint_ns
                    .push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
            rec.record(t0, Instant::now());
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
}

/// The writer and one reader side by side for `seconds`.
fn side_by_side(
    fixture: &Fixture,
    writer: &mut Writer,
    seed: u64,
    seconds: f64,
) -> Result<(ClientRecord, ClientRecord), String> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            reader(
                &fixture.serving.served,
                fixture.serving.addr,
                seed,
                start,
                seconds,
            )
        });
        let wrote = writer.run(fixture, start, seconds);
        let read = reading
            .join()
            .map_err(|_| "reader panicked".to_string())??;
        Ok((wrote?, read))
    })
}

/// What reopening copies of the data directory showed.
struct Restarts {
    attempted: u64,
    failed: u64,
    restart_ms: Vec<f64>,
    open_ms: Vec<f64>,
    /// Snapshot + WAL bytes recovery read.
    dir_bytes: u64,
    wal_bytes: u64,
    frames_replayed: u64,
}

/// Shut the server down, then reopen [`RESTARTS`] copies of the data
/// directory: time `open_durable` to the first pool query answered, and
/// check that every acknowledged commit is visible and every pool answer
/// still matches.
fn restart(
    fixture: &mut Fixture,
    writer: &mut Writer,
    tracer: Option<&mut Tracer>,
) -> Result<Restarts, String> {
    let topped_up = writer.top_up(fixture)?;
    let acked = writer.acked;
    fixture.serving.shutdown();
    let wal_bytes = std::fs::metadata(fixture.dir.join(xmlshred_rel::snapshot::WAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    let mut out = Restarts {
        attempted: topped_up.0,
        failed: topped_up.1,
        restart_ms: Vec::new(),
        open_ms: Vec::new(),
        dir_bytes: dir_bytes(&fixture.dir)?,
        wal_bytes,
        frames_replayed: 0,
    };
    let served = &fixture.serving.served;
    let mut tracer = tracer;
    for _ in 0..RESTARTS {
        let copy = fresh_dir("restart");
        copy_dir(&fixture.dir, &copy)?;
        let t0 = Instant::now();
        let span = tracer
            .as_deref_mut()
            .map(|t| t.begin("rel.recovery.open_durable", None, u32::MAX));
        let opened = Database::open_durable(&copy);
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.end(span);
        }
        let open_ms = t0.elapsed().as_secs_f64() * 1e3;
        let first = &served.queries[0];
        let answered = opened.and_then(|(db, report)| {
            let sql = to_sql(served, &first.text).map_err(RelError::InvalidQuery)?;
            let rows = db.execute(&sql.sql)?.rows;
            Ok((db, report, rows))
        });
        out.restart_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.open_ms.push(open_ms);
        out.attempted += 1;
        match answered {
            Err(_) => out.failed += 1,
            Ok((db, report, rows)) => {
                out.frames_replayed = report.frames_replayed;
                let mut ok = first.hash_matches(&rows) && fixture.all_visible(&db, acked);
                for query in &served.queries {
                    ok &= matches!(
                        to_sql(served, &query.text).map(|t| db.execute(&t.sql)),
                        Ok(Ok(o)) if query.hash_matches(&o.rows)
                    );
                }
                out.failed += u64::from(!ok);
            }
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
    Ok(out)
}

pub fn run(run: &Run) -> Result<RunResult, String> {
    let (mut fixture, setup_s) = run.setup(|| Fixture::build(run.seed))?;
    let mut writer = Writer::default();
    let (w, r) = side_by_side(
        &fixture,
        &mut writer,
        run.seed ^ 0x5eed,
        run.warmup_seconds(),
    )?;
    let mut attempted = w.attempted + r.attempted;
    let mut failed = w.failed + r.failed;

    if run.traced {
        return traced(run, fixture, writer, attempted, failed);
    }

    let (wrote, read) = side_by_side(&fixture, &mut writer, run.seed, run.seconds)?;
    attempted += wrote.attempted + read.attempted;
    failed += wrote.failed + read.failed;
    let stats = fixture.serving.server().stats();
    let restarts = restart(&mut fixture, &mut writer, None)?;
    attempted += restarts.attempted;
    failed += restarts.failed;

    writer.commit_ns.sort_unstable();
    let reads = Timed::merge(vec![read.rounds]);
    let txns = Timed::merge(vec![wrote.rounds]);
    let notes = vec![
        format!(
            "reader: {:.1} XPath/s; writer: {:.1} txn/s started (paced at {} per second), txn p50 {:.1} us, commit call p50 {:.1} us p99 {:.1} us, {} aborts",
            reads.ops_per_s().median,
            txns.ops_per_s().median,
            1_000_000 / WRITE_INTERVAL.as_micros(),
            txns.percentile_us(0.5).median,
            percentile(&writer.commit_ns, 0.5) as f64 / 1e3,
            percentile(&writer.commit_ns, 0.99) as f64 / 1e3,
            writer.aborts
        ),
        format!(
            "{} commits acknowledged (warm-up included), {} checkpoints, restart_ms median {:.2} over {RESTARTS} copies, all commits visible after each: {}",
            writer.acked,
            writer.checkpoint_ns.len(),
            median(&restarts.restart_ms),
            restarts.failed == 0
        ),
        format!(
            "client retries {}; server rejected {} timed out {} protocol errors {}",
            wrote.retries + read.retries,
            stats.statements_rejected,
            stats.statement_timeouts,
            stats.protocol_errors
        ),
    ];
    Ok(run.end_to_end(
        txns.ops_per_busy_s(),
        &reads,
        fixture.stored_bytes_per_xml_byte,
        setup_s,
        attempted,
        failed,
        notes,
    ))
}

/// One write transaction through the library path, with spans.
fn traced_transaction(
    fixture: &Fixture,
    tracer: &mut Tracer,
    writer: &mut Writer,
    op_id: u32,
) -> Result<bool, String> {
    let sdb: &SessionDb = &fixture.serving.sdb;
    let read_own_write = writer.acked % READ_OWN_WRITE_EVERY == READ_OWN_WRITE_EVERY - 1;
    let op = tracer.begin(OP, None, op_id);
    let mut txn = sdb.begin();
    for (table, rows) in fixture.batch(writer.acked) {
        let (inserted, _) = tracer.span("rel.session.insert_rows", op, || {
            txn.insert_rows(table, rows)
        });
        rel("insert_rows", inserted)?;
    }
    let mut ok = true;
    let mut overlay = None;
    if read_own_write {
        let (answer, span) = tracer.span("rel.session.txn_query", op, || {
            txn.query(&fixture.probe.sql)
        });
        ok = fixture.probe_count(&rel("in-transaction query", answer)?.rows) == writer.acked + 1;
        overlay = Some(span);
    }
    let (committed, commit) = tracer.span("rel.session.commit", op, || txn.commit());
    tracer.end(op);
    if let Err(RelError::WriteConflict { .. }) = &committed {
        writer.aborts += 1;
    }
    rel("commit", committed)?;
    writer.acked += 1;
    writer.commit_ns.push(tracer.nanos(commit));
    // The same probe with no pending writes, as the overlay query's
    // attributed child: what is left is the overlay's penalty.
    if let Some(overlay) = overlay {
        let span = tracer.begin("rel.session.execute", Some(overlay), op_id);
        let plain = sdb.execute(&fixture.probe.sql);
        tracer.end(span);
        // Not checked against `acked`: outside a transaction the probe may
        // seek the `year` index, which answers from the rows present at the
        // last `apply_config`.
        rel("probe", plain)?;
    }
    Ok(ok)
}

fn traced(
    run: &Run,
    mut fixture: Fixture,
    mut writer: Writer,
    mut attempted: u64,
    mut failed: u64,
) -> Result<RunResult, String> {
    let mut tracer = Tracer::new();
    let mut layers = LayerMetrics::default();
    let sdb = fixture.serving.sdb.clone();

    // Part A (40 % of the time): single-threaded replay through the library
    // path, one write transaction then one read, whole pool cycles.
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds * 0.4);
    let mut tally = ReadTally::default();
    let mut rng = StdRng::seed_from_u64(run.seed);
    let mut order: Vec<usize> = (0..fixture.serving.served.queries.len()).collect();
    let wal_before = sdb.with_db(|db| (db.wal_stats().unwrap_or_default(), db.data_bytes()));
    let commits_before = writer.acked;
    let mut checkpoints = Vec::new();
    let library_commits_from = writer.commit_ns.len();
    while writer.acked == commits_before || Instant::now() < deadline {
        order.shuffle(&mut rng);
        for &q in &order {
            let ok = traced_transaction(&fixture, &mut tracer, &mut writer, tally.next_op)?;
            tally.next_op += 1;
            attempted += 1;
            failed += u64::from(!ok);
            traced_read(
                &fixture.serving,
                None,
                &mut tracer,
                &mut tally,
                &fixture.serving.served.queries[q],
            )?;
            if writer.acked.is_multiple_of(CHECKPOINT_EVERY) {
                // Checkpoints restart the WAL counters' file, not the
                // counters: WalStats is cumulative across them.
                let span = tracer.begin("rel.db.checkpoint", None, tally.next_op);
                let done = sdb.checkpoint();
                checkpoints.push(tracer.end(span) as f64 / 1e6);
                rel("checkpoint", done)?;
            }
        }
    }
    attempted += tally.attempted;
    failed += tally.failed;
    let wal_after = sdb.with_db(|db| (db.wal_stats().unwrap_or_default(), db.data_bytes()));
    let commits = (writer.acked - commits_before) as f64;
    tally.report(&tracer, &mut layers);
    let library_commits = &writer.commit_ns[library_commits_from..];
    layers.set(
        "rel.session.commit_ns",
        library_commits.iter().sum::<u64>() as f64 / library_commits.len().max(1) as f64,
    );
    let (overlay_ns, overlays) = tracer.total("rel.session.txn_query");
    if overlays > 0 {
        let plain_ns: u64 = tracer
            .spans()
            .iter()
            .filter(|s| {
                s.name == "rel.session.execute"
                    && s.parent
                        .is_some_and(|p| tracer.spans()[p as usize].name == "rel.session.txn_query")
            })
            .map(|s| s.nanos())
            .sum();
        layers.set(
            "rel.session.overlay_penalty_ratio",
            overlay_ns as f64 / plain_ns.max(1) as f64,
        );
    }
    // Frames and bytes of checkpoint markers are in the deltas too; with
    // one checkpoint per thousand commits they move the ratios by < 0.1 %.
    layers.set(
        "rel.wal.frames_per_commit",
        (wal_after.0.frames_written - wal_before.0.frames_written) as f64 / commits,
    );
    layers.set(
        "rel.wal.bytes_per_user_byte",
        (wal_after.0.bytes_written - wal_before.0.bytes_written) as f64
            / (wal_after.1 - wal_before.1).max(1) as f64,
    );

    // Part B: through the server. The reader alone (20 %), then beside the
    // writer (40 %): the ratio of its medians is the time reads waited on
    // the engine lock and the second core.
    let alone = reader(
        &fixture.serving.served,
        fixture.serving.addr,
        run.seed,
        Instant::now(),
        run.seconds * 0.2,
    )?;
    let wire_commits_from = writer.commit_ns.len();
    let (wrote, beside) = side_by_side(&fixture, &mut writer, run.seed, run.seconds * 0.4)?;
    attempted += alone.attempted + wrote.attempted + beside.attempted;
    failed += alone.failed + wrote.failed + beside.failed;
    let alone_p50 = Timed::merge(vec![alone.rounds]).percentile_us(0.5);
    let beside_p50 = Timed::merge(vec![beside.rounds]).percentile_us(0.5);
    layers.set(
        "rel.session.reader_wait_ratio",
        beside_p50.median / alone_p50.median.max(1e-9),
    );
    let mut wire_commits = writer.commit_ns[wire_commits_from..].to_vec();
    wire_commits.sort_unstable();
    layers.set(
        "rel.session.commit_p50_us",
        percentile(&wire_commits, 0.5) as f64 / 1e3,
    );
    layers.set(
        "rel.session.commit_p99_us",
        percentile(&wire_commits, 0.99) as f64 / 1e3,
    );
    layers.set("rel.session.commit_aborts", writer.aborts as f64);
    layers.set(
        "client.retries",
        (alone.retries + wrote.retries + beside.retries) as f64,
    );
    server_counters(&fixture.serving, &mut layers);
    checkpoints.extend(writer.checkpoint_ns.iter().map(|ns| *ns as f64 / 1e6));
    layers.set_spread("rel.db.checkpoint_ms", Spread::of(&checkpoints));
    layers.set("rel.db.checkpoints", checkpoints.len() as f64);

    drop(sdb);
    let restarts = restart(&mut fixture, &mut writer, Some(&mut tracer))?;
    attempted += restarts.attempted;
    failed += restarts.failed;
    layers.set_spread("rel.recovery.restart_ms", Spread::of(&restarts.restart_ms));
    layers.set(
        "rel.recovery.open_ms_per_mb",
        median(&restarts.open_ms) / (restarts.dir_bytes as f64 / 1e6).max(1e-9),
    );
    layers.set(
        "rel.recovery.frames_replayed",
        restarts.frames_replayed as f64,
    );
    let notes = vec![
        format!(
            "reader p50 alone {:.1} us, beside the writer {:.1} us; {} commits acknowledged, all visible after each of {RESTARTS} restarts: {}",
            alone_p50.median,
            beside_p50.median,
            writer.acked,
            restarts.failed == 0
        ),
        format!(
            "WAL at shutdown {} bytes; every {READ_OWN_WRITE_EVERY}th transaction reads its own write; checkpoint every {CHECKPOINT_EVERY} commits",
            restarts.wal_bytes
        ),
    ];
    traced_result(run, &tracer, layers, attempted, failed, notes)
}
