//! `serve`: multi-session SQL server benchmark.
//!
//! Spawns a [`xmlshred_rel::Server`] on an ephemeral port and drives it
//! with N concurrent client connections (N swept over 1, 4, 8), each
//! running the same deterministic mixed read/write workload: three
//! autocommitted single-row inserts followed by one snapshot read,
//! repeated. Every database executes with `--exec-threads`. Per-cell
//! output is p50/p99 operation latency and throughput.
//!
//! The single-client cell is additionally replayed through the library
//! path — the same operation sequence against a plain
//! [`xmlshred_rel::Database`], no sessions, no sockets — and the combined
//! hash over every query's rows plus the final table scan must be
//! bit-identical. That is the end-to-end contract that the session layer
//! (snapshot execution, wire codec, autocommit watermarking) does not
//! change what a query returns. The printed `serve hash` line must not
//! move with `--exec-threads`; the repository's `PINS` file pins it.

use crate::experiments::RunOptions;
use crate::harness::{fmt_duration, render_table};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use xmlshred_rel::{
    Client, ClientOptions, ColumnDef, DataType, Database, ExecOptions, Filter, FilterOp, Output,
    Row, SelectQuery, Server, ServerOptions, SessionDb, SqlQuery, TableDef, TableId, Value,
};

/// Client counts swept. The single-client cell doubles as the
/// library-parity check.
const SWEEP: [usize; 3] = [1, 4, 8];

/// One benchmark operation, pre-generated so the serve path and the
/// library replay consume the identical sequence.
enum Op {
    Insert(Row),
    Query(SqlQuery),
}

/// Measurements for one `(clients, ops)` cell of the sweep.
struct CellResult {
    clients: usize,
    total_ops: usize,
    wall_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
    ops_per_sec: f64,
}

/// The key-value table the server benchmarks write: key, client, payload.
pub(crate) fn kv_table(name: &str) -> TableDef {
    TableDef::new(
        name,
        vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("client", DataType::Int),
            ColumnDef::new("payload", DataType::Str),
        ],
    )
}

/// Full-table scan over the three columns of a [`kv_table`].
pub(crate) fn scan_query(table: TableId) -> SqlQuery {
    let mut q = SelectQuery::single(table);
    q.outputs = (0..3).map(|c| Output::col(0, c)).collect();
    SqlQuery::Select(q)
}

/// The deterministic per-client operation sequence: ops `0..ops` where
/// every fourth is a filtered read over the client's own key range and the
/// rest insert one row keyed `client * 1_000_000 + i`.
fn client_ops(client: usize, ops: usize, table: TableId) -> Vec<Op> {
    let base = client as i64 * 1_000_000;
    (0..ops)
        .map(|i| {
            if i % 4 == 3 {
                let mut q = SelectQuery::single(table);
                q.filters = vec![Filter::new(0, 0, FilterOp::Ge, Value::Int(base))];
                q.outputs = (0..3).map(|c| Output::col(0, c)).collect();
                Op::Query(SqlQuery::Select(q))
            } else {
                Op::Insert(vec![
                    Value::Int(base + i as i64),
                    Value::Int(client as i64),
                    Value::str(format!("payload-{client}-{i}")),
                ])
            }
        })
        .collect()
}

/// Rows per morsel in every serve database. The hashed single-client cell's
/// table holds at most 192 rows at default scale (256 ops, three inserts
/// per read), under one default 1 024-row morsel, so every scan would run
/// serially at any `--exec-threads`; 64 rows cut it into at least three.
const MORSEL_ROWS: usize = 64;

/// An empty in-memory database executing with `exec`'s threads, in
/// [`MORSEL_ROWS`]-row morsels.
fn database(exec: ExecOptions) -> Database {
    let mut db = Database::new();
    db.set_exec_options(ExecOptions {
        morsel_rows: MORSEL_ROWS,
        ..exec
    });
    db
}

/// Nearest-rank percentile over an ascending-sorted latency vector.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one sweep cell: spawn a fresh in-memory server, drive it with
/// `clients` concurrent connections, and return the latency/throughput
/// measurements plus the deterministic fingerprint (client 0's query rows
/// chained with the final table scan — only meaningful at one client,
/// where the interleaving is fixed).
fn run_cell(clients: usize, ops: usize, exec: ExecOptions) -> Result<(CellResult, u64), String> {
    let sdb = SessionDb::new(database(exec));
    let table = sdb
        .create_table(kv_table("serve_kv"))
        .map_err(|e| format!("create_table failed: {e}"))?;
    let server =
        Server::spawn(sdb, "127.0.0.1:0").map_err(|e| format!("server spawn failed: {e}"))?;
    let addr = server.local_addr();

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || -> Result<(Vec<u64>, u64), String> {
                let mut client =
                    Client::connect(addr).map_err(|e| format!("client {c} connect failed: {e}"))?;
                let mut latencies = Vec::with_capacity(ops);
                let mut queries = DefaultHasher::new();
                for op in client_ops(c, ops, table) {
                    let t = Instant::now();
                    match op {
                        Op::Insert(row) => client
                            .insert_rows(table, &[row])
                            .map_err(|e| format!("client {c} insert failed: {e}"))?,
                        Op::Query(q) => {
                            let rows = client
                                .query(&q)
                                .map_err(|e| format!("client {c} query failed: {e}"))?;
                            format!("{rows:?}").hash(&mut queries);
                        }
                    }
                    latencies.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
                client
                    .close()
                    .map_err(|e| format!("client {c} close failed: {e}"))?;
                Ok((latencies, queries.finish()))
            })
        })
        .collect();

    let mut latencies = Vec::with_capacity(clients * ops);
    let mut client0_queries = 0u64;
    for (c, handle) in handles.into_iter().enumerate() {
        let (lat, queries) = handle
            .join()
            .map_err(|_| format!("client {c} thread panicked"))??;
        latencies.extend(lat);
        if c == 0 {
            client0_queries = queries;
        }
    }
    let wall = started.elapsed();

    // Final-state check over a fresh connection: every autocommitted insert
    // from every client must be visible once the writers have drained.
    let mut checker = Client::connect(addr).map_err(|e| format!("checker connect failed: {e}"))?;
    let rows = checker
        .query(&scan_query(table))
        .map_err(|e| format!("final scan failed: {e}"))?;
    let expected = clients * (ops - ops / 4);
    if rows.len() != expected {
        return Err(format!(
            "{clients} client(s): final scan saw {} rows, expected {expected}",
            rows.len()
        ));
    }
    let mut fingerprint = DefaultHasher::new();
    client0_queries.hash(&mut fingerprint);
    format!("{rows:?}").hash(&mut fingerprint);
    checker
        .close()
        .map_err(|e| format!("checker close failed: {e}"))?;
    server.shutdown();

    latencies.sort_unstable();
    let total_ops = clients * ops;
    let cell = CellResult {
        clients,
        total_ops,
        wall_ns: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
        ops_per_sec: total_ops as f64 / wall.as_secs_f64().max(f64::EPSILON),
    };
    Ok((cell, fingerprint.finish()))
}

/// Replay client 0's operation sequence against a plain [`Database`] —
/// no session layer, no server — and fingerprint it the same way the
/// serve path does. Must equal the single-client serve fingerprint.
fn library_replay(ops: usize, exec: ExecOptions) -> Result<u64, String> {
    let mut db = database(exec);
    let table = db
        .create_table(kv_table("serve_kv"))
        .map_err(|e| format!("replay create_table failed: {e}"))?;
    let mut queries = DefaultHasher::new();
    for op in client_ops(0, ops, table) {
        match op {
            Op::Insert(row) => {
                db.insert_rows(table, [row])
                    .map_err(|e| format!("replay insert failed: {e}"))?;
            }
            Op::Query(q) => {
                let outcome = db
                    .execute(&q)
                    .map_err(|e| format!("replay query failed: {e}"))?;
                format!("{:?}", outcome.rows).hash(&mut queries);
            }
        }
    }
    let outcome = db
        .execute(&scan_query(table))
        .map_err(|e| format!("replay final scan failed: {e}"))?;
    let mut fingerprint = DefaultHasher::new();
    queries.finish().hash(&mut fingerprint);
    format!("{:?}", outcome.rows).hash(&mut fingerprint);
    Ok(fingerprint.finish())
}

/// Overload cell: more clients than the server's in-flight statement
/// budget. With `max_inflight: 1` and six concurrent writers, admission
/// control must shed statements as typed transient `Overloaded` errors
/// that the clients' seeded backoff absorbs — so rejections are (a)
/// observed, (b) bounded by the retries that absorbed them, and (c) free:
/// every insert still commits exactly once.
fn overload_cell(exec: ExecOptions) -> Result<(), String> {
    const CLIENTS: usize = 6;
    const MAX_ROUNDS: usize = 50;

    let sdb = SessionDb::new(database(exec));
    let table = sdb
        .create_table(kv_table("serve_kv"))
        .map_err(|e| format!("overload create_table failed: {e}"))?;
    let server = Server::spawn_with(
        sdb,
        "127.0.0.1:0",
        ServerOptions {
            max_inflight: 1,
            ..ServerOptions::default()
        },
    )
    .map_err(|e| format!("overload server spawn failed: {e}"))?;
    let addr = server.local_addr();

    // The permit is held for the duration of one statement, so to force a
    // collision one client commits a statement with a long execution
    // window — a single bulk insert — while the small writers hammer
    // one-row inserts the whole time. Every small statement arriving
    // inside the bulk window is shed with `Overloaded` and absorbed by
    // the client's seeded backoff. Rounds repeat until a shed is
    // observed; the cap turns "admission control never engaged" into a
    // hard failure instead of an infinite loop.
    const BULK_ROWS: usize = 100_000;
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..CLIENTS - 1)
        .map(|c| {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || -> Result<(usize, u64), String> {
                let mut client = Client::connect_with(
                    addr,
                    ClientOptions {
                        retries: 64,
                        backoff_seed: c as u64 + 1,
                        ..ClientOptions::default()
                    },
                )
                .map_err(|e| format!("overload writer {c} connect failed: {e}"))?;
                let mut committed = 0usize;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let key = (BULK_ROWS + c * 1_000_000 + committed) as i64;
                    client
                        .insert_rows(
                            table,
                            &[vec![
                                Value::Int(key),
                                Value::Int(c as i64),
                                Value::str(format!("burst-{c}-{committed}")),
                            ]],
                        )
                        .map_err(|e| format!("overload writer {c} insert failed: {e}"))?;
                    committed += 1;
                }
                let stats = client.retry_stats();
                client
                    .close()
                    .map_err(|e| format!("overload writer {c} close failed: {e}"))?;
                Ok((committed, stats.retries))
            })
        })
        .collect();

    let mut bulk = Client::connect_with(
        addr,
        ClientOptions {
            retries: 64,
            backoff_seed: 97,
            ..ClientOptions::default()
        },
    )
    .map_err(|e| format!("overload bulk connect failed: {e}"))?;
    let batch: Vec<Row> = (0..BULK_ROWS)
        .map(|i| vec![Value::Int(i as i64), Value::Int(-1), Value::str("bulk")])
        .collect();
    let mut rounds = 0usize;
    let mut bulk_batches = 0usize;
    while rounds < MAX_ROUNDS {
        rounds += 1;
        bulk.insert_rows(table, &batch)
            .map_err(|e| format!("overload bulk insert failed: {e}"))?;
        bulk_batches += 1;
        if server.stats().statements_rejected > 0 {
            break;
        }
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let mut retries = bulk.retry_stats().retries;
    bulk.close()
        .map_err(|e| format!("overload bulk close failed: {e}"))?;
    let mut committed = bulk_batches * BULK_ROWS;
    for (c, handle) in writers.into_iter().enumerate() {
        let (n, r) = handle
            .join()
            .map_err(|_| format!("overload writer {c} thread panicked"))??;
        committed += n;
        retries += r;
    }

    let stats = server.stats();
    if stats.statements_rejected == 0 {
        return Err(format!(
            "overload cell: {CLIENTS} clients against max_inflight=1 never tripped \
             admission control in {MAX_ROUNDS} rounds"
        ));
    }
    // Bounded: with no other fault source, every shed was absorbed by
    // exactly one budgeted client retry.
    if stats.statements_rejected > retries {
        return Err(format!(
            "overload cell: {} rejections but only {retries} client retries — sheds \
             escaped the retry budget",
            stats.statements_rejected
        ));
    }
    // Zero lost commits: every insert landed despite the shedding.
    let mut checker = Client::connect_with(
        addr,
        ClientOptions {
            retries: 32,
            ..ClientOptions::default()
        },
    )
    .map_err(|e| format!("overload checker connect failed: {e}"))?;
    let rows = checker
        .query(&scan_query(table))
        .map_err(|e| format!("overload final scan failed: {e}"))?;
    if rows.len() != committed {
        return Err(format!(
            "overload cell: final scan saw {} rows, expected {committed} — commits lost \
             under admission control",
            rows.len()
        ));
    }
    checker
        .close()
        .map_err(|e| format!("overload checker close failed: {e}"))?;
    server.shutdown();
    println!(
        "overload cell: {committed} commits, {} statements shed, {retries} client retries \
         (bounded, zero lost commits).",
        stats.statements_rejected
    );
    Ok(())
}

/// Run the serve benchmark: sweep client counts, assert library parity at
/// one client, print the latency table and the pinned `serve hash`.
pub fn run(scale: f64, opts: &RunOptions) -> Result<(), String> {
    // Ops per client scale with the fixture scale, rounded to a multiple
    // of four so every client runs the same insert/read mix.
    let ops = (((scale * 256.0) as usize).max(64) / 4) * 4;
    println!(
        "\n=== Multi-session serve bench ({} ops/client, clients {:?}) ===",
        ops, SWEEP
    );

    let mut cells = Vec::new();
    let mut single_hash = None;
    for clients in SWEEP {
        let (cell, fingerprint) = run_cell(clients, ops, opts.exec)?;
        if clients == 1 {
            single_hash = Some(fingerprint);
        }
        cells.push(cell);
    }
    let serve_hash = single_hash.ok_or("sweep never ran a single-client cell")?;

    let replay_hash = library_replay(ops, opts.exec)?;
    if replay_hash != serve_hash {
        return Err(format!(
            "single-client serve hash {serve_hash:016x} != library replay {replay_hash:016x}: \
             the session/server path changed query results"
        ));
    }
    println!("single-client results bit-identical to library execution.");
    println!("serve hash: {serve_hash:016x}");

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.clients.to_string(),
                c.total_ops.to_string(),
                fmt_duration(Duration::from_nanos(c.wall_ns)),
                format!("{:.1}us", c.p50_ns as f64 / 1_000.0),
                format!("{:.1}us", c.p99_ns as f64 / 1_000.0),
                format!("{:.0}", c.ops_per_sec),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["clients", "ops", "wall", "p50", "p99", "ops/s"], &rows)
    );

    overload_cell(opts.exec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hashed cell's reads fan out: once its table passes one morsel,
    /// each read's scan (and the projection above it) dispatches one morsel
    /// per started 64 rows.
    #[test]
    fn hashed_cell_reads_fan_out_past_one_morsel() {
        let mut db = database(ExecOptions::with_threads(4));
        let table = db.create_table(kv_table("serve_kv")).unwrap();
        let mut stored = 0usize;
        for op in client_ops(0, 256, table) {
            match op {
                Op::Insert(row) => stored += db.insert_rows(table, [row]).map(|_| 1).unwrap(),
                Op::Query(q) => {
                    let per_scan = db.execute(&q).unwrap().profile.morsels_dispatched / 2;
                    assert_eq!(
                        per_scan,
                        stored.div_ceil(MORSEL_ROWS) as u64,
                        "{stored} rows"
                    );
                    assert_eq!(per_scan > 1, stored > MORSEL_ROWS, "{stored} rows");
                }
            }
        }
        assert_eq!(stored, 192);
    }
}
