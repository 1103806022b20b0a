//! Standalone multi-session SQL server: serves a [`xmlshred_rel::SessionDb`]
//! over the length-prefixed TCP protocol (see `rel::server`).
//!
//! ```text
//! xmlsql-server [--addr HOST:PORT] [--data-dir DIR]
//!               [--max-connections N] [--max-inflight N]
//!               [--read-timeout-ms N] [--idle-txn-timeout-ms N]
//!               [--drain-timeout-ms N]
//! ```
//!
//! Without `--data-dir` the database is in-memory (state dies with the
//! process); with it, the server opens (or creates) a durable database in
//! `DIR` — recovering committed transactions from its WAL — and every
//! commit is logged before it is acknowledged.
//!
//! The hardening knobs map onto [`xmlshred_rel::ServerOptions`]
//! (DESIGN.md §15): `--max-connections` caps registered sessions (0 =
//! unlimited), `--max-inflight` caps concurrently executing statements
//! (0 = unlimited; excess is shed with a typed transient `Overloaded`
//! error), `--read-timeout-ms` sets the per-connection poll tick,
//! `--idle-txn-timeout-ms` rolls back transactions idle past the bound,
//! and `--drain-timeout-ms` bounds how long `SIGINT`-free shutdown paths
//! wait for open transactions.

use std::time::Duration;
use xmlshred_rel::snapshot::{SNAPSHOT_FILE, WAL_FILE};
use xmlshred_rel::{Database, Server, ServerOptions, SessionDb};

fn main() {
    let mut addr = String::from("127.0.0.1:7878");
    let mut data_dir: Option<String> = None;
    let mut opts = ServerOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(v) => addr = v,
                None => return usage("--addr needs a value"),
            },
            "--data-dir" => match args.next() {
                Some(v) => data_dir = Some(v),
                None => return usage("--data-dir needs a value"),
            },
            "--max-connections" => match numeric(args.next(), "--max-connections") {
                Ok(n) => opts.max_connections = n as usize,
                Err(m) => return usage(&m),
            },
            "--max-inflight" => match numeric(args.next(), "--max-inflight") {
                Ok(n) => opts.max_inflight = n as usize,
                Err(m) => return usage(&m),
            },
            "--read-timeout-ms" => match numeric(args.next(), "--read-timeout-ms") {
                Ok(n) => opts.read_timeout = Duration::from_millis(n.max(1)),
                Err(m) => return usage(&m),
            },
            "--idle-txn-timeout-ms" => match numeric(args.next(), "--idle-txn-timeout-ms") {
                Ok(n) => opts.idle_txn_timeout = Duration::from_millis(n.max(1)),
                Err(m) => return usage(&m),
            },
            "--drain-timeout-ms" => match numeric(args.next(), "--drain-timeout-ms") {
                Ok(n) => opts.drain_timeout = Duration::from_millis(n),
                Err(m) => return usage(&m),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument '{other}'")),
        }
    }

    let db = match &data_dir {
        None => Database::new(),
        Some(dir) => {
            let dir_path = std::path::Path::new(dir);
            if dir_path.join(WAL_FILE).exists() || dir_path.join(SNAPSHOT_FILE).exists() {
                match Database::open_durable(dir) {
                    Ok((db, report)) => {
                        eprintln!(
                            "recovered {dir}: {} frames replayed, {} txns committed, \
                             {} uncommitted frames dropped",
                            report.frames_replayed,
                            report.txns_committed,
                            report.frames_uncommitted
                        );
                        db
                    }
                    Err(e) => return fail(&format!("open {dir}: {e}")),
                }
            } else {
                match Database::create_durable(dir) {
                    Ok(db) => db,
                    Err(e) => return fail(&format!("create {dir}: {e}")),
                }
            }
        }
    };

    let server = match Server::spawn_with(SessionDb::new(db), &addr, opts) {
        Ok(server) => server,
        Err(e) => return fail(&format!("bind {addr}: {e}")),
    };
    println!("listening on {}", server.local_addr());
    // Serve until killed; the accept loop owns its thread.
    loop {
        std::thread::park();
    }
}

fn numeric(value: Option<String>, flag: &str) -> Result<u64, String> {
    match value {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("{flag} needs a non-negative integer, got '{v}'")),
        None => Err(format!("{flag} needs a value")),
    }
}

fn usage(err: &str) {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: xmlsql-server [--addr HOST:PORT] [--data-dir DIR] \
         [--max-connections N] [--max-inflight N] [--read-timeout-ms N] \
         [--idle-txn-timeout-ms N] [--drain-timeout-ms N]"
    );
    if !err.is_empty() {
        std::process::exit(2);
    }
}

fn fail(msg: &str) {
    eprintln!("error: {msg}");
    std::process::exit(1);
}
