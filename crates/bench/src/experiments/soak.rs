//! `soak`: seeded network-chaos soak over the hardened multi-session
//! server.
//!
//! A 16-cell matrix — client count × wire-fault kind × overload on/off —
//! each cell spawning a fresh **durable** [`SessionDb`] server and driving
//! it with concurrent retrying clients while seeded faults tear frames,
//! drop connections, and stall the codec on *both* sides of every
//! connection ([`xmlshred_rel::netfault`]). Overloaded cells additionally
//! cap the server's in-flight statements below the client count, so
//! admission control sheds work into the clients' seeded backoff.
//!
//! Every client drives every one of its operations to completion
//! **exactly once**: transactional inserts retry on transient failures
//! (write conflicts, shed statements) and resolve ambiguous torn commits
//! by read-back. Interleaved deadline probes (1ns deadlines) must come
//! back as typed timeouts. After the storm the server drains gracefully
//! and the cell must converge three ways, bit-identically:
//!
//! 1. the **live** database's final scan,
//! 2. the database **recovered** from the durable directory
//!    ([`xmlshred_rel::recovery::recover`], fresh fault plane), and
//! 3. a **serial oracle**: a fresh in-memory database replaying the
//!    committed WAL prefix in commit-LSN order,
//!
//! with recovered-vs-oracle compared over rows *and* [`ExecStats`]. The
//! closing `soak hash` digests a canonical rebuild (all expected rows in
//! key order, scanned with `--exec-threads`) per cell — a pure function of
//! `(scale, ops)` that CI diffs across `--exec-threads 1` vs `4` to pin
//! the executor's thread-invariance under the chaos workload.
//! `--data-dir PATH` keeps the per-cell databases and writes a
//! `soak-reports.json` artifact (per-cell server counters and drain
//! reports).

use crate::experiments::RunOptions;
use crate::harness::{fold, fold_answer, mix, render_table, BenchScale, MatrixDir};
use std::path::Path;
use std::time::Duration;
use xmlshred_core::metrics::{record_drain, record_server};
use xmlshred_core::MetricsRegistry;
use xmlshred_rel::{
    recovery, snapshot, wal, Client, ClientOptions, ColumnDef, DataType, Database, DrainReport,
    Filter, FilterOp, NetFaultConfig, Output, RelError, Row, SelectQuery, Server, ServerOptions,
    ServerStatsSnapshot, SessionDb, SqlQuery, TableDef, TableId, Value, WalRecord,
};

/// Client counts swept (one dimension of the matrix).
const CLIENT_SWEEP: [usize; 2] = [2, 4];

/// Retry budget per logical client operation; paired with the seeded
/// exponential backoff this absorbs conflict storms and shed statements.
const CLIENT_RETRIES: u32 = 12;

/// Attempt caps for the drive-to-completion loops: generous enough that a
/// seeded fault script cannot plausibly exhaust them, small enough that a
/// real wedge fails the cell instead of hanging it.
const OP_ATTEMPTS: usize = 200;
const READBACK_ATTEMPTS: usize = 100;
const PROBE_ATTEMPTS: usize = 100;

/// Wire-fault kind injected on both sides of every connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Clean wire (the control row of the matrix).
    None,
    /// Frames torn to a seeded prefix, then the connection dies.
    Torn,
    /// Connections dropped cleanly between frames.
    Disconnect,
    /// Seeded write delays and read stalls (no connection deaths).
    Delay,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            FaultKind::None => "none",
            FaultKind::Torn => "torn",
            FaultKind::Disconnect => "disconnect",
            FaultKind::Delay => "delay",
        }
    }

    /// The fault config for one side of the matrix cell. `side` salts the
    /// seed so server and clients draw independent scripts.
    fn config(self, seed: u64, side: u64) -> Option<NetFaultConfig> {
        let seed = mix(seed ^ side.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        match self {
            FaultKind::None => None,
            FaultKind::Torn => Some(NetFaultConfig {
                seed,
                p_torn_write: 0.05,
                ..NetFaultConfig::default()
            }),
            FaultKind::Disconnect => Some(NetFaultConfig {
                seed,
                p_disconnect: 0.05,
                ..NetFaultConfig::default()
            }),
            FaultKind::Delay => Some(NetFaultConfig {
                seed,
                p_delay_write: 0.25,
                p_stall_read: 0.25,
                max_delay_nanos: 300_000,
                ..NetFaultConfig::default()
            }),
        }
    }
}

const KINDS: [FaultKind; 4] = [
    FaultKind::None,
    FaultKind::Torn,
    FaultKind::Disconnect,
    FaultKind::Delay,
];

fn table_def() -> TableDef {
    TableDef::new(
        "soak_kv",
        vec![
            ColumnDef::new("k", DataType::Int),
            ColumnDef::new("client", DataType::Int),
            ColumnDef::new("payload", DataType::Str),
        ],
    )
}

/// Full-table scan over all three columns.
fn scan_query(table: TableId) -> SqlQuery {
    let mut q = SelectQuery::single(table);
    q.outputs = (0..3).map(|c| Output::col(0, c)).collect();
    SqlQuery::Select(q)
}

/// Point lookup on the unique key, used for ambiguity read-back.
fn key_query(table: TableId, key: i64) -> SqlQuery {
    let mut q = SelectQuery::single(table);
    q.filters = vec![Filter::new(0, 0, FilterOp::Eq, Value::Int(key))];
    q.outputs = vec![Output::col(0, 0)];
    SqlQuery::Select(q)
}

fn key_of(client: usize, seq: usize) -> i64 {
    client as i64 * 1_000_000 + seq as i64
}

/// Whether op `seq` is a deadline probe instead of an insert.
fn is_probe(seq: usize) -> bool {
    seq % 5 == 4
}

fn row_of(client: usize, seq: usize) -> Row {
    vec![
        Value::Int(key_of(client, seq)),
        Value::Int(client as i64),
        Value::str(format!("soak-{client}-{seq}")),
    ]
}

/// Every row the cell must end with: all clients' non-probe ops, exactly
/// once, in ascending key order.
fn expected_rows(clients: usize, ops: usize) -> Vec<Row> {
    let mut rows: Vec<Row> = (0..clients)
        .flat_map(|c| {
            (0..ops)
                .filter(|&seq| !is_probe(seq))
                .map(move |seq| row_of(c, seq))
        })
        .collect();
    rows.sort_by_key(|row| match row.first() {
        Some(Value::Int(k)) => *k,
        _ => i64::MAX,
    });
    rows
}

fn sorted_by_key(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|row| match row.first() {
        Some(Value::Int(k)) => *k,
        _ => i64::MAX,
    });
    rows
}

/// What one client thread observed.
struct ClientOutcome {
    committed: usize,
    timeouts: u64,
    retries: u64,
    reconnects: u64,
    faults_injected: u64,
}

/// Drive one client's operation sequence to exactly-once completion
/// against a chaotic server. Every insert runs as a transaction retried on
/// transient failures; ambiguous transport failures (a torn `COMMIT` may
/// or may not have landed) are resolved by reading the unique key back.
fn drive_client(
    addr: std::net::SocketAddr,
    table: TableId,
    client_idx: usize,
    ops: usize,
    kind: FaultKind,
    seed: u64,
) -> Result<ClientOutcome, String> {
    let opts = ClientOptions {
        retries: CLIENT_RETRIES,
        backoff_seed: mix(seed ^ (client_idx as u64).wrapping_mul(31) ^ 7),
        reconnect: true,
        net_fault: kind.config(seed, 2 + client_idx as u64),
        conn_id: client_idx as u64,
    };
    let mut client = Client::connect_with(addr, opts)
        .map_err(|e| format!("client {client_idx} connect: {e}"))?;
    // The probe client is deliberately fail-fast and fault-free on its own
    // side, so a 1ns deadline's only failure modes are the typed Timeout
    // (expected) or server-side chaos (retried below).
    let mut probe = Client::connect_with(
        addr,
        ClientOptions {
            reconnect: true,
            ..ClientOptions::default()
        },
    )
    .map_err(|e| format!("client {client_idx} probe connect: {e}"))?;

    let mut committed = 0usize;
    let mut timeouts = 0u64;
    for seq in 0..ops {
        if is_probe(seq) {
            let mut seen = false;
            for _ in 0..PROBE_ATTEMPTS {
                match probe.query_deadline(&scan_query(table), Some(Duration::from_nanos(1))) {
                    Err(RelError::Timeout { .. }) => {
                        seen = true;
                        break;
                    }
                    // A shed probe, a torn server response, anything else:
                    // try again — the contract under test is that an
                    // expired deadline surfaces as Timeout, not that every
                    // attempt survives the chaos.
                    _ => continue,
                }
            }
            if !seen {
                return Err(format!(
                    "client {client_idx}: no typed Timeout in {PROBE_ATTEMPTS} probe attempts"
                ));
            }
            timeouts += 1;
            continue;
        }
        let row = row_of(client_idx, seq);
        let lookup = key_query(table, key_of(client_idx, seq));
        let mut landed = false;
        for _ in 0..OP_ATTEMPTS {
            let attempt = client.run_txn(|c| c.insert_rows(table, std::slice::from_ref(&row)));
            if attempt.is_ok() {
                landed = true;
                break;
            }
            // Ambiguous or exhausted: ask the server whether the commit
            // actually landed before (maybe) rerunning the transaction.
            let mut present = None;
            for _ in 0..READBACK_ATTEMPTS {
                match client.query(&lookup) {
                    Ok(rows) => {
                        present = Some(!rows.is_empty());
                        break;
                    }
                    Err(_) => continue,
                }
            }
            match present {
                Some(true) => {
                    landed = true;
                    break;
                }
                Some(false) => continue,
                None => {
                    return Err(format!(
                        "client {client_idx}: read-back for key {} never completed",
                        key_of(client_idx, seq)
                    ))
                }
            }
        }
        if !landed {
            return Err(format!(
                "client {client_idx}: op {seq} not committed after {OP_ATTEMPTS} attempts"
            ));
        }
        committed += 1;
    }
    let stats = client.retry_stats();
    // Closes may be torn by the fault plane; the server's disconnect
    // rollback path owns that case.
    let _ = client.close();
    let _ = probe.close();
    Ok(ClientOutcome {
        committed,
        timeouts,
        retries: stats.retries,
        reconnects: stats.reconnects,
        faults_injected: stats.net_faults_injected,
    })
}

/// Replay the committed WAL prefix serially (commit-LSN order is file
/// order: the session layer serializes commits) into a fresh in-memory
/// database — the oracle every other view must match.
fn oracle_replay(dir: &Path) -> Result<Database, String> {
    let outcome = wal::read_wal(&dir.join(snapshot::WAL_FILE))
        .map_err(|e| format!("oracle wal read: {e}"))?;
    // Drop the trailing open transaction, if any (a torn connection can
    // leave one only if the server died mid-commit; after a clean drain
    // this is empty, but the oracle must not depend on that).
    let mut cut = outcome.frames.len();
    let mut open_at = None;
    for (i, (_, record)) in outcome.frames.iter().enumerate() {
        match record {
            WalRecord::TxnBegin { .. } if open_at.is_none() => open_at = Some(i),
            WalRecord::TxnCommit { .. } => open_at = None,
            _ => {}
        }
    }
    if let Some(at) = open_at {
        cut = at;
    }
    let mut db = Database::new();
    for (_, record) in outcome.frames.into_iter().take(cut) {
        match record {
            WalRecord::CreateTable(def) => {
                db.create_table(def)
                    .map_err(|e| format!("oracle create: {e}"))?;
            }
            WalRecord::InsertRows { table, rows } => {
                db.insert_rows(table, rows)
                    .map_err(|e| format!("oracle insert: {e}"))?;
            }
            // Markers and maintenance records carry no row state the scan
            // can observe.
            _ => {}
        }
    }
    Ok(db)
}

/// Everything one matrix cell produced.
struct CellOutcome {
    committed: usize,
    timeouts: u64,
    retries: u64,
    reconnects: u64,
    client_faults: u64,
    stats: ServerStatsSnapshot,
    drain: DrainReport,
    cell_hash: u64,
}

fn run_cell(
    dir: &Path,
    clients: usize,
    kind: FaultKind,
    overload: bool,
    ops: usize,
    seed: u64,
    exec_threads: usize,
) -> Result<CellOutcome, String> {
    let db = Database::create_durable(dir).map_err(|e| format!("create durable: {e}"))?;
    let sdb = SessionDb::new(db);
    let table = sdb
        .create_table(table_def())
        .map_err(|e| format!("create table: {e}"))?;
    let live = sdb.clone();
    let server_opts = ServerOptions {
        max_inflight: if overload { 1 } else { 0 },
        read_timeout: Duration::from_millis(50),
        idle_txn_timeout: Duration::from_secs(10),
        drain_timeout: Duration::from_secs(5),
        net_fault: kind.config(seed, 1),
        ..ServerOptions::default()
    };
    let server = Server::spawn_with(sdb, "127.0.0.1:0", server_opts)
        .map_err(|e| format!("server spawn: {e}"))?;
    let addr = server.local_addr();

    let handles: Vec<_> = (0..clients)
        .map(|c| std::thread::spawn(move || drive_client(addr, table, c, ops, kind, seed)))
        .collect();
    let mut committed = 0usize;
    let mut timeouts = 0u64;
    let mut retries = 0u64;
    let mut reconnects = 0u64;
    let mut client_faults = 0u64;
    for (c, handle) in handles.into_iter().enumerate() {
        let outcome = handle
            .join()
            .map_err(|_| format!("client {c} thread panicked"))??;
        committed += outcome.committed;
        timeouts += outcome.timeouts;
        retries += outcome.retries;
        reconnects += outcome.reconnects;
        client_faults += outcome.faults_injected;
    }

    let stats = server.stats();
    let drain = server.shutdown();

    // Convergence check 1: the live database's final state.
    let live_rows = sorted_by_key(
        live.execute(&scan_query(table))
            .map_err(|e| format!("live scan: {e}"))?
            .rows,
    );
    drop(live);

    // Convergence check 2: recovery from the durable directory, on a fresh
    // fault plane, compared to the serial oracle over rows AND ExecStats.
    let (recovered, _report) = recovery::recover(dir).map_err(|e| format!("recover: {e}"))?;
    let rec = recovered
        .execute(&scan_query(table))
        .map_err(|e| format!("recovered scan: {e}"))?;
    let oracle_db = oracle_replay(dir)?;
    let ora = oracle_db
        .execute(&scan_query(table))
        .map_err(|e| format!("oracle scan: {e}"))?;
    let rec_digest = fold_answer(0, &rec.rows, &rec.exec);
    let ora_digest = fold_answer(0, &ora.rows, &ora.exec);
    if rec_digest != ora_digest {
        return Err(format!(
            "cell {clients}x{}-overload={overload}: recovered state diverged from the \
             serial oracle ({rec_digest:016x} != {ora_digest:016x})",
            kind.name()
        ));
    }

    // Exactly-once: every op landed exactly once, nothing extra, across
    // all three views.
    let expected = expected_rows(clients, ops);
    let rec_sorted = sorted_by_key(rec.rows);
    if live_rows != rec_sorted {
        return Err(format!(
            "cell {clients}x{}-overload={overload}: live state != recovered state",
            kind.name()
        ));
    }
    if rec_sorted != expected {
        return Err(format!(
            "cell {clients}x{}-overload={overload}: final state has {} rows, expected {} \
             (lost or duplicated commits)",
            kind.name(),
            rec_sorted.len(),
            expected.len()
        ));
    }

    // The hashed artifact: a canonical rebuild (expected rows in key
    // order) scanned with the CLI's executor thread count. Pure function
    // of (scale, ops) — chaos seeds and interleavings cancel out — so the
    // printed hash is comparable across runs AND across --exec-threads,
    // which is exactly what CI diffs.
    let mut canonical = Database::new();
    canonical.set_exec_options(xmlshred_rel::ExecOptions {
        threads: exec_threads,
        ..xmlshred_rel::ExecOptions::default()
    });
    let ct = canonical
        .create_table(table_def())
        .map_err(|e| format!("canonical create: {e}"))?;
    canonical
        .insert_rows(ct, expected)
        .map_err(|e| format!("canonical insert: {e}"))?;
    let canon = canonical
        .execute(&scan_query(ct))
        .map_err(|e| format!("canonical scan: {e}"))?;
    let mut cell_hash = fold(0x736f_616b, clients as u64);
    cell_hash = fold(cell_hash, overload as u64);
    cell_hash = fold(cell_hash, committed as u64);
    cell_hash = fold_answer(cell_hash, &canon.rows, &canon.exec);

    Ok(CellOutcome {
        committed,
        timeouts,
        retries,
        reconnects,
        client_faults,
        stats,
        drain,
        cell_hash,
    })
}

/// Run the 16-cell soak matrix and print the CI-checked `soak hash`.
pub fn run(scale: BenchScale, opts: &RunOptions) -> Result<(), String> {
    let ops = opts.ops.unwrap_or(((scale.0 * 10.0) as usize).max(10));
    let seed = opts.seed.unwrap_or(13);
    if opts.list_cells {
        let mut rows = Vec::new();
        for &clients in &CLIENT_SWEEP {
            for kind in KINDS {
                for overload in [false, true] {
                    rows.push(vec![
                        clients.to_string(),
                        kind.name().to_string(),
                        overload.to_string(),
                        format!("{} ops/client", ops),
                    ]);
                }
            }
        }
        println!(
            "{}",
            render_table(&["clients", "faults", "overload", "work"], &rows)
        );
        println!("soak: {} cells", rows.len());
        return Ok(());
    }
    println!(
        "\n=== Network-chaos soak: {} clients x {} fault kinds x overload on/off \
         ({ops} ops/client, seed {seed}) ===",
        CLIENT_SWEEP.len(),
        KINDS.len()
    );

    let matrix_dir = MatrixDir::create(opts.data_dir.as_deref(), "soak")?;

    let registry = MetricsRegistry::new();
    let mut soak_hash = 0xcbf2_9ce4_8422_2325u64;
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    let mut total_committed = 0usize;

    for &clients in &CLIENT_SWEEP {
        for kind in KINDS {
            for overload in [false, true] {
                let cell = format!(
                    "{clients}c-{}-{}",
                    kind.name(),
                    if overload { "overload" } else { "calm" }
                );
                let dir = matrix_dir.cell_dir(&cell);
                let outcome =
                    run_cell(&dir, clients, kind, overload, ops, seed, opts.exec.threads)?;
                record_server(&registry, &outcome.stats);
                record_drain(&registry, &outcome.drain);
                total_committed += outcome.committed;
                soak_hash = fold(soak_hash, outcome.cell_hash);
                reports.push(format!(
                    "{{\"cell\": \"{cell}\", \"committed\": {}, \"retries\": {}, \
                     \"reconnects\": {}, \"timeouts\": {}, \"client_faults\": {}, \
                     \"server\": {}, \"drain\": {}}}",
                    outcome.committed,
                    outcome.retries,
                    outcome.reconnects,
                    outcome.timeouts,
                    outcome.client_faults,
                    outcome.stats.to_json(),
                    outcome.drain.to_json()
                ));
                rows.push(vec![
                    clients.to_string(),
                    kind.name().to_string(),
                    overload.to_string(),
                    outcome.committed.to_string(),
                    outcome.retries.to_string(),
                    outcome.reconnects.to_string(),
                    outcome.stats.statements_rejected.to_string(),
                    outcome.timeouts.to_string(),
                    (outcome.stats.net_faults_injected + outcome.client_faults).to_string(),
                    format!(
                        "{}/{}",
                        outcome.drain.drained_clean, outcome.drain.connections_at_shutdown
                    ),
                ]);
                matrix_dir.release(&dir);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "clients",
                "faults",
                "overload",
                "committed",
                "retries",
                "reconnects",
                "shed",
                "timeouts",
                "wire faults",
                "drained",
            ],
            &rows,
        )
    );
    println!(
        "all {} cells converged (live == recovered == serial oracle, rows+ExecStats); \
         {total_committed} transactions committed exactly once.",
        rows.len()
    );

    // The schedule-classed metrics layer must have ingested every cell.
    let report = registry.snapshot();
    let accepted = report
        .schedule
        .get("server.connections_accepted")
        .copied()
        .unwrap_or(0);
    if accepted == 0 {
        return Err("metrics ingested no server counters".into());
    }

    matrix_dir.finish("soak-reports.json", &reports)?;
    println!("soak hash: {soak_hash:016x}");
    Ok(())
}
