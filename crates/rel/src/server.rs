//! TCP server and client for multi-session access: a length-prefixed
//! binary protocol over [`crate::session::SessionDb`].
//!
//! # Wire format
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes]
//! ```
//!
//! The payload's first byte is a tag; the body reuses the WAL codec
//! ([`crate::wal::Enc`]/[`crate::wal::Dec`]) for rows, table definitions,
//! and queries, so the server speaks exactly the encoding the log already
//! pins down. Frames are capped at [`crate::wal::MAX_FRAME_BYTES`]; an
//! oversized length is a protocol error, not an allocation.
//!
//! # Sessions
//!
//! Each TCP connection is one session, served by its own registered (and
//! joined — never detached) thread. A session holds at most one open
//! [`crate::session::Transaction`]; `BEGIN` opens one (a nested `BEGIN` is
//! a typed non-transient error), `COMMIT`/`ROLLBACK` close it, and
//! statements outside a transaction auto-commit. Server-side errors travel
//! back as an error response carrying the error's display string, its
//! transience, and a coarse [`ErrCode`] (so clients can retype
//! `Overloaded`/`Timeout` for their retry policy); the full typed
//! [`crate::error::RelError`] structure itself stays server-side.
//!
//! # Overload & failure contract (see DESIGN.md §15)
//!
//! * [`ServerOptions`] bounds connections and in-flight statements;
//!   rejections are typed [`RelError::Overloaded`] (transient), never
//!   unbounded queues.
//! * `REQ_QUERY` carries an optional deadline; expiry is a typed
//!   [`RelError::Timeout`] (transient, fault-plane-neutral).
//! * Idle open transactions are reaped (implicit rollback, counted), and a
//!   connection that drops with an open transaction rolls it back — an
//!   uncommitted transaction never leaves partial state.
//! * [`Server::shutdown`] drains: stop accepting, signal sessions, wait a
//!   deadline for open transactions, force-close stragglers; the
//!   [`DrainReport`] is typed and feeds `core::metrics`.
//! * A seeded [`NetFaultConfig`] can tear frames, drop connections, and
//!   delay/stall the codec on either side — the chaos the soak harness
//!   drives.

use crate::catalog::{TableDef, TableId};
use crate::error::{RelError, RelResult};
use crate::expr::{Filter, FilterOp};
use crate::fault::backoff_nanos;
use crate::netfault::{NetFaultConfig, NetFaultState, ReadFault, WriteFault};
use crate::session::{SessionDb, Transaction};
use crate::sql::{JoinCond, Output, SelectQuery, SqlQuery, UnionAllQuery};
use crate::types::Row;
use crate::wal::{self, Dec, DecodeError, Enc, MAX_FRAME_BYTES};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ------------------------------------------------------------- framing --

fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// [`write_frame`] through an optional seeded fault stream: the frame may
/// go out whole (possibly after a pause), torn to a strict prefix, or not
/// at all — the latter two kill the connection, exactly like a real peer
/// or network dying mid-reply. `injected` counts every fault that fired.
fn write_frame_faulty(
    stream: &mut TcpStream,
    payload: &[u8],
    faults: &mut Option<NetFaultState>,
    injected: Option<&AtomicU64>,
) -> io::Result<()> {
    let Some(state) = faults.as_mut() else {
        return write_frame(stream, payload);
    };
    let total = 4 + payload.len();
    match state.on_write(total) {
        WriteFault::None => write_frame(stream, payload),
        WriteFault::Delay(pause) => {
            if let Some(counter) = injected {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            std::thread::sleep(pause);
            write_frame(stream, payload)
        }
        WriteFault::Torn { prefix } => {
            if let Some(counter) = injected {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            let len = payload.len() as u32;
            let mut buf = Vec::with_capacity(total);
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(payload);
            let _ = stream.write_all(&buf[..prefix.min(buf.len())]);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "injected torn frame",
            ))
        }
        WriteFault::Disconnect => {
            if let Some(counter) = injected {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            let _ = stream.shutdown(Shutdown::Both);
            Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "injected disconnect",
            ))
        }
    }
}

/// Sleep out a seeded read stall, if the fault stream injects one.
fn stall_before_read(faults: &mut Option<NetFaultState>, injected: Option<&AtomicU64>) {
    if let Some(state) = faults.as_mut() {
        if let ReadFault::Stall(pause) = state.on_read() {
            if let Some(counter) = injected {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            std::thread::sleep(pause);
        }
    }
}

/// Read one frame. `Ok(None)` is a clean EOF *between* frames; EOF inside
/// a frame is an error.
fn read_frame(stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    match stream.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// One server-side frame read under a socket read timeout.
enum FrameRead {
    /// A whole frame arrived.
    Frame(Vec<u8>),
    /// Clean EOF between frames: the peer closed the session.
    Eof,
    /// The read timed out *between* frames (zero bytes in): the connection
    /// is healthy but idle — the serve loop's chance to poll drain and
    /// idle-transaction state.
    Idle,
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read one frame under the connection's read timeout, distinguishing
/// idle-between-frames (a poll tick) from a mid-frame stall (a protocol
/// error: the peer wedged partway through a frame, so the connection is
/// torn down rather than held past its read timeout).
fn read_frame_timeout(stream: &mut TcpStream) -> io::Result<FrameRead> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match stream.read(&mut header[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(FrameRead::Eof)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof inside frame header",
                    ))
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && got == 0 => return Ok(FrameRead::Idle),
            Err(e) if is_timeout(&e) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "read timeout inside frame header",
                ))
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match stream.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame payload",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "read timeout inside frame payload",
                ))
            }
            Err(e) => return Err(e),
        }
    }
    Ok(FrameRead::Frame(payload))
}

// ------------------------------------------------------- query codec --

fn enc_filter_op(e: &mut Enc, op: FilterOp) {
    e.u8(match op {
        FilterOp::Eq => 0,
        FilterOp::Ne => 1,
        FilterOp::Lt => 2,
        FilterOp::Le => 3,
        FilterOp::Gt => 4,
        FilterOp::Ge => 5,
        FilterOp::IsNull => 6,
        FilterOp::IsNotNull => 7,
    });
}

fn dec_filter_op(d: &mut Dec<'_>) -> Result<FilterOp, DecodeError> {
    match d.u8()? {
        0 => Ok(FilterOp::Eq),
        1 => Ok(FilterOp::Ne),
        2 => Ok(FilterOp::Lt),
        3 => Ok(FilterOp::Le),
        4 => Ok(FilterOp::Gt),
        5 => Ok(FilterOp::Ge),
        6 => Ok(FilterOp::IsNull),
        7 => Ok(FilterOp::IsNotNull),
        tag => Err(DecodeError::BadTag {
            what: "filter op",
            tag,
        }),
    }
}

fn enc_select(e: &mut Enc, q: &SelectQuery) {
    e.u32(q.tables.len() as u32);
    for t in &q.tables {
        e.u32(t.0);
    }
    e.u32(q.joins.len() as u32);
    for j in &q.joins {
        e.u32(j.left_ref as u32);
        e.u32(j.left_col as u32);
        e.u32(j.right_ref as u32);
        e.u32(j.right_col as u32);
    }
    e.u32(q.filters.len() as u32);
    for f in &q.filters {
        e.u32(f.table_ref as u32);
        e.u32(f.column as u32);
        enc_filter_op(e, f.op);
        wal::enc_value(e, &f.value);
    }
    e.u32(q.outputs.len() as u32);
    for o in &q.outputs {
        match o {
            Output::Col { table_ref, column } => {
                e.u8(0);
                e.u32(*table_ref as u32);
                e.u32(*column as u32);
            }
            Output::Null(ty) => {
                e.u8(1);
                wal::enc_data_type(e, *ty);
            }
        }
    }
}

fn dec_select(d: &mut Dec<'_>) -> Result<SelectQuery, DecodeError> {
    let n_tables = d.u32()? as usize;
    let mut tables = Vec::with_capacity(n_tables.min(1024));
    for _ in 0..n_tables {
        tables.push(TableId(d.u32()?));
    }
    let n_joins = d.u32()? as usize;
    let mut joins = Vec::with_capacity(n_joins.min(1024));
    for _ in 0..n_joins {
        joins.push(JoinCond {
            left_ref: d.u32()? as usize,
            left_col: d.u32()? as usize,
            right_ref: d.u32()? as usize,
            right_col: d.u32()? as usize,
        });
    }
    let n_filters = d.u32()? as usize;
    let mut filters = Vec::with_capacity(n_filters.min(1024));
    for _ in 0..n_filters {
        let table_ref = d.u32()? as usize;
        let column = d.u32()? as usize;
        let op = dec_filter_op(d)?;
        let value = wal::dec_value(d)?;
        filters.push(Filter {
            table_ref,
            column,
            op,
            value,
        });
    }
    let n_outputs = d.u32()? as usize;
    let mut outputs = Vec::with_capacity(n_outputs.min(1024));
    for _ in 0..n_outputs {
        outputs.push(match d.u8()? {
            0 => Output::Col {
                table_ref: d.u32()? as usize,
                column: d.u32()? as usize,
            },
            1 => Output::Null(wal::dec_data_type(d)?),
            tag => {
                return Err(DecodeError::BadTag {
                    what: "output",
                    tag,
                })
            }
        });
    }
    Ok(SelectQuery {
        tables,
        joins,
        filters,
        outputs,
    })
}

fn enc_query(e: &mut Enc, q: &SqlQuery) {
    match q {
        SqlQuery::Select(s) => {
            e.u8(0);
            enc_select(e, s);
        }
        SqlQuery::Union(u) => {
            e.u8(1);
            e.u32(u.branches.len() as u32);
            for b in &u.branches {
                enc_select(e, b);
            }
            e.u32(u.order_by.len() as u32);
            for &k in &u.order_by {
                e.u32(k as u32);
            }
        }
    }
}

fn dec_query(d: &mut Dec<'_>) -> Result<SqlQuery, DecodeError> {
    match d.u8()? {
        0 => Ok(SqlQuery::Select(dec_select(d)?)),
        1 => {
            let n = d.u32()? as usize;
            let mut branches = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                branches.push(dec_select(d)?);
            }
            let n_keys = d.u32()? as usize;
            let mut order_by = Vec::with_capacity(n_keys.min(1024));
            for _ in 0..n_keys {
                order_by.push(d.u32()? as usize);
            }
            Ok(SqlQuery::Union(UnionAllQuery { branches, order_by }))
        }
        tag => Err(DecodeError::BadTag { what: "query", tag }),
    }
}

// ----------------------------------------------------------- messages --

const REQ_PING: u8 = 1;
const REQ_CREATE_TABLE: u8 = 2;
const REQ_INSERT: u8 = 3;
const REQ_QUERY: u8 = 4;
const REQ_BEGIN: u8 = 5;
const REQ_COMMIT: u8 = 6;
const REQ_ROLLBACK: u8 = 7;
const REQ_ANALYZE: u8 = 8;
const REQ_DESCRIBE: u8 = 9;
const REQ_CLOSE: u8 = 10;

const RESP_OK: u8 = 0;
const RESP_TABLE: u8 = 1;
const RESP_COMMITTED: u8 = 2;
const RESP_ROWS: u8 = 3;
const RESP_TEXT: u8 = 4;
const RESP_ERR: u8 = 5;

/// Coarse error classification carried on the wire alongside the display
/// string, so clients can retype the errors their retry policy cares
/// about without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Anything without a dedicated code.
    Other,
    /// Admission control shed the request ([`RelError::Overloaded`]).
    Overloaded,
    /// The statement's deadline expired ([`RelError::Timeout`]).
    Timeout,
    /// First-committer-wins conflict ([`RelError::WriteConflict`]).
    Conflict,
    /// `BEGIN` with a transaction already open (non-transient).
    NestedBegin,
}

impl ErrCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrCode::Other => 0,
            ErrCode::Overloaded => 1,
            ErrCode::Timeout => 2,
            ErrCode::Conflict => 3,
            ErrCode::NestedBegin => 4,
        }
    }

    /// Lenient by design: an unknown code degrades to [`ErrCode::Other`]
    /// rather than failing the whole response (the transient bit and
    /// message still carry the decision-relevant content).
    fn from_u8(b: u8) -> ErrCode {
        match b {
            1 => ErrCode::Overloaded,
            2 => ErrCode::Timeout,
            3 => ErrCode::Conflict,
            4 => ErrCode::NestedBegin,
            _ => ErrCode::Other,
        }
    }
}

/// One decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Statement succeeded with nothing to return.
    Ok,
    /// `CREATE TABLE` succeeded.
    Table(TableId),
    /// `COMMIT` succeeded at this commit LSN.
    Committed {
        /// The transaction's commit LSN.
        lsn: u64,
    },
    /// Query result rows.
    Rows(Vec<Row>),
    /// Human-readable text (schema describes).
    Text(String),
    /// Server-side failure.
    Err {
        /// Whether retrying (e.g. a write conflict on a fresh transaction)
        /// may succeed.
        transient: bool,
        /// Coarse classification for retry policy.
        code: ErrCode,
        /// The server error's display string.
        msg: String,
    },
}

fn encode_response(resp: &Response) -> Vec<u8> {
    let mut e = Enc(Vec::new());
    match resp {
        Response::Ok => e.u8(RESP_OK),
        Response::Table(id) => {
            e.u8(RESP_TABLE);
            e.u32(id.0);
        }
        Response::Committed { lsn } => {
            e.u8(RESP_COMMITTED);
            e.u64(*lsn);
        }
        Response::Rows(rows) => {
            e.u8(RESP_ROWS);
            e.u32(rows.len() as u32);
            for row in rows {
                wal::enc_row(&mut e, row);
            }
        }
        Response::Text(s) => {
            e.u8(RESP_TEXT);
            e.str(s);
        }
        Response::Err {
            transient,
            code,
            msg,
        } => {
            e.u8(RESP_ERR);
            e.u8(u8::from(*transient));
            e.u8(code.to_u8());
            e.str(msg);
        }
    }
    e.0
}

fn decode_response(payload: &[u8]) -> Result<Response, DecodeError> {
    let mut d = Dec::new(payload);
    let resp = match d.u8()? {
        RESP_OK => Response::Ok,
        RESP_TABLE => Response::Table(TableId(d.u32()?)),
        RESP_COMMITTED => Response::Committed { lsn: d.u64()? },
        RESP_ROWS => {
            let n = d.u32()? as usize;
            let mut rows = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                rows.push(wal::dec_row(&mut d)?);
            }
            Response::Rows(rows)
        }
        RESP_TEXT => Response::Text(d.str()?),
        RESP_ERR => Response::Err {
            transient: d.u8()? != 0,
            code: ErrCode::from_u8(d.u8()?),
            msg: d.str()?,
        },
        tag => {
            return Err(DecodeError::BadTag {
                what: "response",
                tag,
            })
        }
    };
    if !d.is_done() {
        return Err(DecodeError::TrailingBytes {
            context: "response payload",
        });
    }
    Ok(resp)
}

fn err_code(err: &RelError) -> ErrCode {
    match err {
        RelError::Overloaded(_) => ErrCode::Overloaded,
        RelError::Timeout { .. } => ErrCode::Timeout,
        RelError::WriteConflict { .. } => ErrCode::Conflict,
        // The nested-BEGIN rejection is minted in handle_request with this
        // exact prefix; no other InvalidQuery uses it.
        RelError::InvalidQuery(msg) if msg.starts_with("nested BEGIN") => ErrCode::NestedBegin,
        _ => ErrCode::Other,
    }
}

fn err_response(err: &RelError) -> Response {
    Response::Err {
        transient: err.is_transient(),
        code: err_code(err),
        msg: err.to_string(),
    }
}

// ------------------------------------------------------------- server --

/// Admission-control and hardening knobs for a [`Server`]. Defaults are
/// permissive enough that a well-behaved test client never notices them.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Maximum simultaneous connections (0 = unlimited). A connection over
    /// the limit is answered with one [`RelError::Overloaded`] frame and
    /// closed.
    pub max_connections: usize,
    /// Maximum simultaneously executing heavy statements across all
    /// connections (0 = unlimited). Excess statements are rejected with
    /// [`RelError::Overloaded`] — no queueing, the client's backoff is the
    /// queue.
    pub max_inflight: usize,
    /// Socket read timeout; also the serve loop's poll tick for drain and
    /// idle-transaction checks. A peer that stalls *mid-frame* longer than
    /// this is disconnected (a wedged peer can't hold a thread hostage).
    pub read_timeout: Duration,
    /// An open transaction idle longer than this is implicitly rolled
    /// back (and counted in `idle_txns_reaped`).
    pub idle_txn_timeout: Duration,
    /// How long [`Server::shutdown`] waits for sessions to finish before
    /// force-closing their sockets.
    pub drain_timeout: Duration,
    /// Seeded wire-level fault injection on the server's side of every
    /// connection (see [`crate::netfault`]). `None` disables it.
    pub net_fault: Option<NetFaultConfig>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_connections: 256,
            max_inflight: 0,
            read_timeout: Duration::from_millis(250),
            idle_txn_timeout: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(5),
            net_fault: None,
        }
    }
}

/// Internal live counters; read out via [`Server::stats`].
#[derive(Default)]
struct ServerStats {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    accept_errors: AtomicU64,
    accept_backoffs: AtomicU64,
    statements_rejected: AtomicU64,
    statement_timeouts: AtomicU64,
    idle_txns_reaped: AtomicU64,
    disconnect_rollbacks: AtomicU64,
    protocol_errors: AtomicU64,
    net_faults_injected: AtomicU64,
}

/// Point-in-time snapshot of a server's hardening counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections accepted and registered.
    pub connections_accepted: u64,
    /// Connections rejected at accept time by `max_connections`.
    pub connections_rejected: u64,
    /// `accept(2)` failures of any kind (each is classified and counted,
    /// never silently swallowed).
    pub accept_errors: u64,
    /// The subset of accept errors that looked like fd/memory exhaustion
    /// and triggered a backoff sleep.
    pub accept_backoffs: u64,
    /// Statements shed by the in-flight limit.
    pub statements_rejected: u64,
    /// Statements that exceeded their deadline server-side.
    pub statement_timeouts: u64,
    /// Idle open transactions implicitly rolled back by the reaper.
    pub idle_txns_reaped: u64,
    /// Open transactions rolled back because their connection died.
    pub disconnect_rollbacks: u64,
    /// Undecodable requests, oversized/torn frames, mid-frame stalls.
    pub protocol_errors: u64,
    /// Wire faults injected by the server-side [`NetFaultConfig`].
    pub net_faults_injected: u64,
}

impl ServerStatsSnapshot {
    /// `(name, value)` pairs for the metrics registry.
    pub fn metric_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("server.connections_accepted", self.connections_accepted),
            ("server.connections_rejected", self.connections_rejected),
            ("server.accept_errors", self.accept_errors),
            ("server.accept_backoffs", self.accept_backoffs),
            ("server.statements_rejected", self.statements_rejected),
            ("server.statement_timeouts", self.statement_timeouts),
            ("server.idle_txns_reaped", self.idle_txns_reaped),
            ("server.disconnect_rollbacks", self.disconnect_rollbacks),
            ("server.protocol_errors", self.protocol_errors),
            ("server.net_faults_injected", self.net_faults_injected),
        ]
    }

    /// One JSON object (stable key order).
    pub fn to_json(&self) -> String {
        crate::json::counters_json(&self.metric_counters(), "server.")
    }
}

/// What [`Server::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Live connections when the drain began.
    pub connections_at_shutdown: u64,
    /// Sessions that finished on their own within the drain deadline.
    pub drained_clean: u64,
    /// Sessions whose sockets were force-closed at the deadline.
    pub forced_closed: u64,
    /// Open transactions implicitly rolled back during the drain.
    pub txns_rolled_back: u64,
    /// Wall-clock duration of the whole drain.
    pub wait_nanos: u64,
}

impl DrainReport {
    /// `(name, value)` pairs for the metrics registry.
    pub fn metric_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            (
                "server.drain.connections_at_shutdown",
                self.connections_at_shutdown,
            ),
            ("server.drain.drained_clean", self.drained_clean),
            ("server.drain.forced_closed", self.forced_closed),
            ("server.drain.txns_rolled_back", self.txns_rolled_back),
            ("server.drain.wait_nanos", self.wait_nanos),
        ]
    }

    /// One JSON object (stable key order).
    pub fn to_json(&self) -> String {
        crate::json::counters_json(&self.metric_counters(), "server.drain.")
    }
}

/// State shared between the accept loop and every session thread.
struct Shared {
    sdb: SessionDb,
    opts: ServerOptions,
    stats: ServerStats,
    draining: AtomicBool,
    inflight: AtomicUsize,
}

/// One registered connection: its thread (joined, never detached), a
/// cloned socket handle for force-close, and liveness flags.
struct ConnSlot {
    handle: JoinHandle<()>,
    stream: TcpStream,
    done: Arc<AtomicBool>,
}

fn lock_slots(m: &Mutex<Vec<ConnSlot>>) -> std::sync::MutexGuard<'_, Vec<ConnSlot>> {
    // A session thread that panicked poisons nothing we can't keep using:
    // the registry only holds handles and flags.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// RAII in-flight statement permit; see [`ServerOptions::max_inflight`].
struct Permit<'a> {
    inflight: &'a AtomicUsize,
}

impl<'a> Permit<'a> {
    fn acquire(inflight: &'a AtomicUsize, cap: usize) -> Option<Permit<'a>> {
        let admitted = inflight.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            if cap != 0 && n >= cap {
                None
            } else {
                Some(n + 1)
            }
        });
        admitted.ok().map(|_| Permit { inflight })
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Accept errors that signal resource exhaustion (EMFILE and friends):
/// retrying immediately would spin, so the accept loop backs off.
fn is_resource_exhaustion(e: &io::Error) -> bool {
    // 24 EMFILE, 23 ENFILE, 105 ENOBUFS, 12 ENOMEM.
    matches!(e.raw_os_error(), Some(24 | 23 | 105 | 12)) || e.kind() == io::ErrorKind::OutOfMemory
}

/// A running TCP server over one [`SessionDb`]. Dropping without
/// [`Server::shutdown`] detaches the accept thread (it exits with the
/// process).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    registry: Arc<Mutex<Vec<ConnSlot>>>,
    handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve
    /// `sdb` with one thread per connection, under default
    /// [`ServerOptions`].
    pub fn spawn(sdb: SessionDb, addr: &str) -> io::Result<Server> {
        Server::spawn_with(sdb, addr, ServerOptions::default())
    }

    /// [`Server::spawn`] with explicit hardening options.
    pub fn spawn_with(sdb: SessionDb, addr: &str, opts: ServerOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            sdb,
            opts,
            stats: ServerStats::default(),
            draining: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
        });
        let registry = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_registry = Arc::clone(&registry);
        let handle = std::thread::spawn(move || {
            accept_loop(&listener, &accept_shared, &accept_registry);
        });
        Ok(Server {
            addr,
            shared,
            registry,
            handle: Some(handle),
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the hardening counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        let s = &self.shared.stats;
        ServerStatsSnapshot {
            connections_accepted: s.connections_accepted.load(Ordering::SeqCst),
            connections_rejected: s.connections_rejected.load(Ordering::SeqCst),
            accept_errors: s.accept_errors.load(Ordering::SeqCst),
            accept_backoffs: s.accept_backoffs.load(Ordering::SeqCst),
            statements_rejected: s.statements_rejected.load(Ordering::SeqCst),
            statement_timeouts: s.statement_timeouts.load(Ordering::SeqCst),
            idle_txns_reaped: s.idle_txns_reaped.load(Ordering::SeqCst),
            disconnect_rollbacks: s.disconnect_rollbacks.load(Ordering::SeqCst),
            protocol_errors: s.protocol_errors.load(Ordering::SeqCst),
            net_faults_injected: s.net_faults_injected.load(Ordering::SeqCst),
        }
    }

    /// Graceful drain: stop accepting, signal every session (new `BEGIN`s
    /// are rejected, idle sessions exit at their next poll tick), wait up
    /// to [`ServerOptions::drain_timeout`] for open work to finish, then
    /// force-close stragglers and join every connection thread. A
    /// committed transaction is never lost: force-close only interrupts
    /// sessions *between* statements or mid-statement (whose transaction
    /// then rolls back whole).
    pub fn shutdown(mut self) -> DrainReport {
        let start = Instant::now();
        self.shared.draining.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        // The accept thread (sole registrar) is gone; freeze the registry.
        let slots: Vec<ConnSlot> = std::mem::take(&mut *lock_slots(&self.registry));
        let connections_at_shutdown = slots.len() as u64;
        let rollbacks_before = self
            .shared
            .stats
            .disconnect_rollbacks
            .load(Ordering::SeqCst);
        let reaped_before = self.shared.stats.idle_txns_reaped.load(Ordering::SeqCst);
        let deadline = start + self.shared.opts.drain_timeout;
        while slots.iter().any(|s| !s.done.load(Ordering::SeqCst)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut drained_clean = 0u64;
        let mut forced_closed = 0u64;
        for slot in slots {
            if slot.done.load(Ordering::SeqCst) {
                drained_clean += 1;
            } else {
                forced_closed += 1;
                let _ = slot.stream.shutdown(Shutdown::Both);
            }
            let _ = slot.handle.join();
        }
        let stats = &self.shared.stats;
        let txns_rolled_back = (stats.disconnect_rollbacks.load(Ordering::SeqCst)
            - rollbacks_before)
            + (stats.idle_txns_reaped.load(Ordering::SeqCst) - reaped_before);
        DrainReport {
            connections_at_shutdown,
            drained_clean,
            forced_closed,
            txns_rolled_back,
            wait_nanos: start.elapsed().as_nanos() as u64,
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, registry: &Mutex<Vec<ConnSlot>>) {
    let mut next_conn: u64 = 0;
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                // Never silently swallow an accept failure: classify and
                // count it, and back off when the cause is fd/memory
                // pressure (spinning on EMFILE would starve the very
                // sessions holding the fds we're waiting for).
                shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                if is_resource_exhaustion(&e) {
                    shared.stats.accept_backoffs.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(10));
                }
                continue;
            }
        };
        // Reap finished sessions: join their threads, free their slots.
        let finished: Vec<ConnSlot> = {
            let mut slots = lock_slots(registry);
            let mut keep = Vec::with_capacity(slots.len());
            let mut done = Vec::new();
            for slot in slots.drain(..) {
                if slot.done.load(Ordering::SeqCst) {
                    done.push(slot);
                } else {
                    keep.push(slot);
                }
            }
            *slots = keep;
            done
        };
        for slot in finished {
            let _ = slot.handle.join();
        }
        let cap = shared.opts.max_connections;
        if cap != 0 && lock_slots(registry).len() >= cap {
            shared
                .stats
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            let err = RelError::Overloaded(format!("connection limit ({cap}) reached"));
            // One typed rejection frame, then close: the client's first
            // roundtrip reads it as its response.
            let _ = stream.set_nodelay(true);
            let _ = write_frame(&mut stream, &encode_response(&err_response(&err)));
            continue;
        }
        // Responses are one small frame each; without nodelay the reply
        // sits in Nagle's buffer waiting on the client's delayed ACK
        // (~40ms per roundtrip).
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(shared.opts.read_timeout));
        let Ok(peer) = stream.try_clone() else {
            // Without a second handle the drain can't force-close this
            // connection later, so don't register it at all.
            shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let conn_id = next_conn;
        next_conn += 1;
        shared
            .stats
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        let done = Arc::new(AtomicBool::new(false));
        let thread_done = Arc::clone(&done);
        let thread_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            let mut stream = stream;
            let _ = serve_connection(&mut stream, &thread_shared, conn_id);
            // The registry holds a cloned fd for force-close, so dropping
            // `stream` alone would not send FIN — shut the socket down
            // explicitly or the peer hangs until its own read timeout.
            let _ = stream.shutdown(Shutdown::Both);
            thread_done.store(true, Ordering::SeqCst);
        });
        lock_slots(registry).push(ConnSlot {
            handle,
            stream: peer,
            done,
        });
    }
}

fn serve_connection(stream: &mut TcpStream, shared: &Shared, conn_id: u64) -> io::Result<()> {
    let mut faults = shared
        .opts
        .net_fault
        .filter(NetFaultConfig::is_active)
        .map(|config| NetFaultState::new(config, conn_id));
    let mut open_txn: Option<Transaction> = None;
    let mut txn_last_used = Instant::now();
    let result = loop {
        // Drain signal: idle sessions (no open transaction) exit at the
        // next poll tick; sessions with open work keep serving so the
        // client can commit within the drain deadline.
        if shared.draining.load(Ordering::SeqCst) && open_txn.is_none() {
            break Ok(());
        }
        stall_before_read(&mut faults, Some(&shared.stats.net_faults_injected));
        let request = match read_frame_timeout(stream) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::Eof) => break Ok(()),
            Ok(FrameRead::Idle) => {
                if open_txn.is_some() && txn_last_used.elapsed() >= shared.opts.idle_txn_timeout {
                    // Reap the idle transaction: implicit rollback, so its
                    // conflict footprint and buffered writes vanish.
                    if let Some(txn) = open_txn.take() {
                        txn.rollback();
                    }
                    shared
                        .stats
                        .idle_txns_reaped
                        .fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            Err(e) => {
                // Torn frame, oversized length, or a peer wedged mid-frame
                // past the read timeout: drop the connection rather than
                // hold a thread (and possibly a transaction) hostage.
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                break Err(e);
            }
        };
        let (resp, close) = handle_request(&request, shared, &mut open_txn);
        txn_last_used = Instant::now();
        if let Err(e) = write_frame_faulty(
            stream,
            &encode_response(&resp),
            &mut faults,
            Some(&shared.stats.net_faults_injected),
        ) {
            break Err(e);
        }
        if close {
            break Ok(());
        }
    };
    if let Some(txn) = open_txn.take() {
        // A connection never leaves a transaction behind: whatever ended
        // the session (clean close, EOF, protocol error, forced drain),
        // the open transaction rolls back whole — no partial state.
        txn.rollback();
        shared
            .stats
            .disconnect_rollbacks
            .fetch_add(1, Ordering::Relaxed);
    }
    result
}

fn handle_request(
    payload: &[u8],
    shared: &Shared,
    open_txn: &mut Option<Transaction>,
) -> (Response, bool) {
    let sdb = &shared.sdb;
    let mut d = Dec::new(payload);
    let tag = match d.u8() {
        Ok(tag) => tag,
        Err(e) => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return (
                Response::Err {
                    transient: false,
                    code: ErrCode::Other,
                    msg: format!("bad request: {e}"),
                },
                true,
            );
        }
    };
    // Admission control: heavy statements take an in-flight permit up
    // front; over the cap they are shed with a typed transient error
    // before any work happens (so rejected statements have no effect and
    // are always safe to retry). Cheap control messages bypass the gate —
    // a loaded server must still answer pings and rollbacks.
    let _permit = match tag {
        REQ_CREATE_TABLE | REQ_INSERT | REQ_QUERY | REQ_ANALYZE | REQ_COMMIT => {
            match Permit::acquire(&shared.inflight, shared.opts.max_inflight) {
                Some(permit) => Some(permit),
                None => {
                    shared
                        .stats
                        .statements_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    let err = RelError::Overloaded(format!(
                        "in-flight statement limit ({}) reached",
                        shared.opts.max_inflight
                    ));
                    return (err_response(&err), false);
                }
            }
        }
        _ => None,
    };
    let bad = |what: &str, e: DecodeError| {
        shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        RelError::Io(format!("bad {what}: {e}"))
    };
    let resp = match tag {
        REQ_PING => Ok(Response::Ok),
        REQ_CREATE_TABLE => wal::dec_table_def(&mut d)
            .map_err(|e| bad("table def", e))
            .and_then(|def| sdb.create_table(def))
            .map(Response::Table),
        REQ_INSERT => decode_insert(&mut d)
            .map_err(|e| bad("insert", e))
            .and_then(|(table, rows)| {
                match open_txn.as_mut() {
                    Some(txn) => txn.insert_rows(table, rows)?,
                    None => {
                        sdb.insert_rows(table, rows)?;
                    }
                }
                Ok(Response::Ok)
            }),
        REQ_QUERY => d
            .u64()
            .and_then(|deadline_nanos| dec_query(&mut d).map(|query| (deadline_nanos, query)))
            .map_err(|e| bad("query", e))
            .and_then(|(deadline_nanos, query)| {
                let deadline = (deadline_nanos > 0)
                    .then(|| Instant::now() + Duration::from_nanos(deadline_nanos));
                let result = match open_txn.as_ref() {
                    Some(txn) => txn.query_deadline(&query, deadline),
                    None => sdb.execute_deadline(&query, deadline),
                };
                if matches!(result, Err(RelError::Timeout { .. })) {
                    shared
                        .stats
                        .statement_timeouts
                        .fetch_add(1, Ordering::Relaxed);
                }
                result
            })
            .map(|outcome| Response::Rows(outcome.rows)),
        REQ_BEGIN => {
            if open_txn.is_some() {
                // Silently discarding (or stacking) the open transaction
                // would lose buffered writes the client thinks are
                // pending. Typed, non-transient: retrying won't help.
                Err(RelError::InvalidQuery(
                    "nested BEGIN: a transaction is already open in this session; \
                     commit or roll back first"
                        .into(),
                ))
            } else if shared.draining.load(Ordering::SeqCst) {
                Err(RelError::Overloaded(
                    "server draining; not accepting new transactions".into(),
                ))
            } else {
                *open_txn = Some(sdb.begin());
                Ok(Response::Ok)
            }
        }
        REQ_COMMIT => match open_txn.take() {
            Some(txn) => txn.commit().map(|lsn| Response::Committed { lsn }),
            None => Err(RelError::InvalidQuery("no open transaction".into())),
        },
        REQ_ROLLBACK => {
            if let Some(txn) = open_txn.take() {
                txn.rollback();
            }
            Ok(Response::Ok)
        }
        REQ_ANALYZE => sdb.analyze().map(|()| Response::Ok),
        REQ_DESCRIBE => Ok(Response::Text(sdb.with_db(|db| {
            let mut out = String::new();
            for (_, def) in db.catalog().iter() {
                out.push_str(&def.name);
                out.push('(');
                for (i, col) in def.columns.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&col.name);
                }
                out.push_str(")\n");
            }
            out
        }))),
        REQ_CLOSE => return (Response::Ok, true),
        tag => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            Err(RelError::Io(format!("unknown request tag {tag}")))
        }
    };
    // A well-formed request consumes its whole payload; leftovers mean a
    // corrupted or mis-framed message.
    let resp = resp.and_then(|ok| {
        if d.is_done() {
            Ok(ok)
        } else {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            Err(RelError::Io("trailing bytes in request".into()))
        }
    });
    match resp {
        Ok(resp) => (resp, false),
        Err(err) => (err_response(&err), false),
    }
}

fn decode_insert(d: &mut Dec<'_>) -> Result<(TableId, Vec<Row>), DecodeError> {
    let table = TableId(d.u32()?);
    let n = d.u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        rows.push(wal::dec_row(d)?);
    }
    Ok((table, rows))
}

// ------------------------------------------------------------- client --

/// Retry and fault-injection knobs for a [`Client`]. Defaults are
/// fail-fast (no retries, no reconnect, no injected faults), matching the
/// pre-hardening client.
#[derive(Debug, Clone, Copy)]
pub struct ClientOptions {
    /// Retry budget per logical operation. `0` surfaces the first error
    /// unchanged; with a budget, a retryable error that exhausts it comes
    /// back as the typed, non-transient [`RelError::RetriesExhausted`].
    pub retries: u32,
    /// Seed for the deterministic exponential backoff between retries
    /// (see [`crate::fault::backoff_nanos`]).
    pub backoff_seed: u64,
    /// Reconnect automatically after a torn connection — only outside an
    /// open transaction (inside one, the server has already rolled back
    /// and the caller must rerun the transaction).
    pub reconnect: bool,
    /// Seeded wire-level fault injection on the client's side (see
    /// [`crate::netfault`]). `None` disables it.
    pub net_fault: Option<NetFaultConfig>,
    /// This client's fault-stream identity (keep distinct across clients
    /// so each draws an independent fault script).
    pub conn_id: u64,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            retries: 0,
            backoff_seed: 42,
            reconnect: false,
            net_fault: None,
            conn_id: 0,
        }
    }
}

/// What a [`Client`]'s retry machinery has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts beyond the first, across all operations.
    pub retries: u64,
    /// Successful automatic reconnects.
    pub reconnects: u64,
    /// Operations that exhausted their retry budget.
    pub giveups: u64,
    /// Total backoff slept, in nanoseconds.
    pub backoff_nanos_total: u64,
    /// Wire faults injected by the client-side [`NetFaultConfig`].
    pub net_faults_injected: u64,
}

/// A blocking client for the server's wire protocol. One client is one
/// session; protocol errors and server-side failures surface as
/// [`RelError`], retyped from the wire's [`ErrCode`] (write conflicts come
/// back transient, admission rejections as [`RelError::Overloaded`],
/// expired deadlines as [`RelError::Timeout`]).
///
/// With a [`ClientOptions::retries`] budget, transient *response* errors
/// (`Overloaded`, `Timeout`) are retried with seeded exponential backoff —
/// they are always safe to retry because the server sheds load *before*
/// executing and aborts timed-out statements whole. Torn connections are
/// retried only for idempotent requests, only outside a transaction, and
/// only with [`ClientOptions::reconnect`]; ambiguous failures (a torn
/// write of an `INSERT` or `COMMIT`) surface to the caller, who owns the
/// read-back.
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    opts: ClientOptions,
    faults: Option<NetFaultState>,
    injected: AtomicU64,
    reconnect_epoch: u64,
    in_txn: bool,
    stats: RetryStats,
}

fn client_faults(opts: &ClientOptions, epoch: u64) -> Option<NetFaultState> {
    opts.net_fault.filter(NetFaultConfig::is_active).map(|c| {
        // Each physical connection gets its own fault stream: replaying
        // the previous script from frame 0 after a reconnect could tear
        // every retry forever.
        NetFaultState::new(c, opts.conn_id ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    })
}

impl Client {
    /// Connect to a server with default (fail-fast) [`ClientOptions`].
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, ClientOptions::default())
    }

    /// Connect with explicit retry/fault options.
    pub fn connect_with(
        addr: impl std::net::ToSocketAddrs,
        opts: ClientOptions,
    ) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        let faults = client_faults(&opts, 0);
        Ok(Client {
            stream,
            addr,
            opts,
            faults,
            injected: AtomicU64::new(0),
            reconnect_epoch: 0,
            in_txn: false,
            stats: RetryStats::default(),
        })
    }

    /// Snapshot this client's retry counters.
    pub fn retry_stats(&self) -> RetryStats {
        RetryStats {
            net_faults_injected: self.injected.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    /// Whether this client believes it has an open transaction.
    pub fn in_txn(&self) -> bool {
        self.in_txn
    }

    fn reconnect(&mut self) -> RelResult<()> {
        let stream = TcpStream::connect(self.addr).map_err(RelError::io)?;
        stream.set_nodelay(true).map_err(RelError::io)?;
        self.stream = stream;
        self.reconnect_epoch += 1;
        self.faults = client_faults(&self.opts, self.reconnect_epoch);
        self.stats.reconnects += 1;
        Ok(())
    }

    fn backoff(&mut self, attempt: u32) {
        let pause = backoff_nanos(self.opts.backoff_seed, attempt);
        self.stats.backoff_nanos_total += pause;
        std::thread::sleep(Duration::from_nanos(pause));
    }

    fn raw_roundtrip(&mut self, payload: &[u8]) -> RelResult<Response> {
        write_frame_faulty(
            &mut self.stream,
            payload,
            &mut self.faults,
            Some(&self.injected),
        )
        .map_err(RelError::io)?;
        stall_before_read(&mut self.faults, Some(&self.injected));
        let frame = read_frame(&mut self.stream)
            .map_err(RelError::io)?
            .ok_or_else(|| RelError::Io("server closed connection".into()))?;
        decode_response(&frame).map_err(|e| RelError::Io(format!("undecodable response: {e}")))
    }

    /// Retype a wire error response into the client-side [`RelError`].
    fn typed_response_err(transient: bool, code: ErrCode, msg: String) -> RelError {
        match code {
            ErrCode::Overloaded => RelError::Overloaded(msg),
            ErrCode::Timeout => RelError::Timeout { site: "server" },
            _ if transient => RelError::Fault(msg),
            _ => RelError::Io(msg),
        }
    }

    /// One logical request: roundtrip plus the retry loop described on
    /// [`Client`].
    fn request(&mut self, payload: &[u8], idempotent: bool) -> RelResult<Response> {
        let mut attempt: u32 = 0;
        loop {
            let failure = match self.raw_roundtrip(payload) {
                Ok(Response::Err {
                    transient,
                    code,
                    msg,
                }) => {
                    let typed = Client::typed_response_err(transient, code, msg);
                    match typed {
                        // The server sheds load before executing and
                        // aborts timed-out statements whole, so both are
                        // effect-free and safe to retry for any request.
                        RelError::Overloaded(_) | RelError::Timeout { .. } => typed,
                        other => return Err(other),
                    }
                }
                Ok(resp) => return Ok(resp),
                Err(err) => {
                    // Transport failure: the connection is gone or
                    // suspect. The server rolls back an open transaction
                    // on disconnect; mirror that client-side.
                    let was_in_txn = std::mem::replace(&mut self.in_txn, false);
                    if !self.opts.reconnect || was_in_txn {
                        return Err(err);
                    }
                    self.reconnect()?;
                    if !idempotent {
                        // The request may or may not have executed;
                        // surface the ambiguity (on a usable, fresh
                        // connection so the caller can read back).
                        return Err(err);
                    }
                    err
                }
            };
            if attempt >= self.opts.retries {
                if self.opts.retries > 0 {
                    self.stats.giveups += 1;
                    return Err(RelError::RetriesExhausted {
                        attempts: attempt + 1,
                        last: failure.to_string(),
                    });
                }
                return Err(failure);
            }
            self.backoff(attempt);
            attempt += 1;
            self.stats.retries += 1;
        }
    }

    fn expect_ok(&mut self, payload: &[u8], idempotent: bool) -> RelResult<()> {
        match self.request(payload, idempotent)? {
            Response::Ok => Ok(()),
            other => Err(RelError::Io(format!("unexpected response {other:?}"))),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> RelResult<()> {
        self.expect_ok(&[REQ_PING], true)
    }

    /// Create a table (auto-commit DDL). Not retried across torn
    /// connections: a replay would create a second table.
    pub fn create_table(&mut self, def: &TableDef) -> RelResult<TableId> {
        let mut e = Enc(vec![REQ_CREATE_TABLE]);
        wal::enc_table_def(&mut e, def);
        match self.request(&e.0, false)? {
            Response::Table(id) => Ok(id),
            other => Err(RelError::Io(format!("unexpected response {other:?}"))),
        }
    }

    /// Insert rows: buffered in the open transaction, or auto-committed.
    /// Not retried across torn connections (a replay would double-insert);
    /// the caller owns the read-back on ambiguity.
    pub fn insert_rows(&mut self, table: TableId, rows: &[Row]) -> RelResult<()> {
        let mut e = Enc(vec![REQ_INSERT]);
        e.u32(table.0);
        e.u32(rows.len() as u32);
        for row in rows {
            wal::enc_row(&mut e, row);
        }
        self.expect_ok(&e.0, false)
    }

    /// Execute a query in this session (snapshot semantics; see
    /// [`crate::session`]).
    pub fn query(&mut self, query: &SqlQuery) -> RelResult<Vec<Row>> {
        self.query_deadline(query, None)
    }

    /// [`Client::query`] with a server-side deadline: the statement is
    /// cooperatively cancelled at the next morsel boundary past the
    /// deadline and comes back as [`RelError::Timeout`].
    pub fn query_deadline(
        &mut self,
        query: &SqlQuery,
        deadline: Option<Duration>,
    ) -> RelResult<Vec<Row>> {
        let mut e = Enc(vec![REQ_QUERY]);
        let nanos = deadline
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1))
            .unwrap_or(0);
        e.u64(nanos);
        enc_query(&mut e, query);
        match self.request(&e.0, true)? {
            Response::Rows(rows) => Ok(rows),
            other => Err(RelError::Io(format!("unexpected response {other:?}"))),
        }
    }

    /// Open a transaction. A `BEGIN` with one already open is a typed,
    /// non-transient server error (nothing is silently discarded).
    pub fn begin(&mut self) -> RelResult<()> {
        self.expect_ok(&[REQ_BEGIN], true)?;
        self.in_txn = true;
        Ok(())
    }

    /// Commit the open transaction; returns the commit LSN. Not retried
    /// across torn connections: a torn `COMMIT` is ambiguous (it may have
    /// landed), and only the caller can decide via read-back.
    pub fn commit(&mut self) -> RelResult<u64> {
        match self.request(&[REQ_COMMIT], false) {
            Ok(Response::Committed { lsn }) => {
                self.in_txn = false;
                Ok(lsn)
            }
            Ok(other) => {
                self.in_txn = false;
                Err(RelError::Io(format!("unexpected response {other:?}")))
            }
            Err(err) => {
                // A commit shed by admission control (or still shed after
                // the whole budget) leaves the transaction open server-side
                // and retryable; every other failure consumed it.
                if !matches!(
                    err,
                    RelError::Overloaded(_) | RelError::RetriesExhausted { .. }
                ) {
                    self.in_txn = false;
                }
                Err(err)
            }
        }
    }

    /// Roll back the open transaction (no-op without one).
    pub fn rollback(&mut self) -> RelResult<()> {
        self.expect_ok(&[REQ_ROLLBACK], true)?;
        self.in_txn = false;
        Ok(())
    }

    /// Run `body` inside a transaction, retrying the whole
    /// begin–body–commit round on transient failures (write conflicts,
    /// shed statements) with seeded backoff. Returns the body's value and
    /// the commit LSN. Ambiguous transport failures are surfaced, not
    /// retried — rerunning the body blind could double-apply it.
    pub fn run_txn<T>(
        &mut self,
        mut body: impl FnMut(&mut Client) -> RelResult<T>,
    ) -> RelResult<(T, u64)> {
        let mut attempt: u32 = 0;
        loop {
            let result = self
                .begin()
                .and_then(|()| body(self))
                .and_then(|value| self.commit().map(|lsn| (value, lsn)));
            let err = match result {
                Ok(done) => return Ok(done),
                Err(err) => err,
            };
            // Clear any half-open transaction before deciding anything
            // (harmless no-op when none is open).
            if self.in_txn {
                let _ = self.rollback();
            }
            if !err.is_transient() {
                return Err(err);
            }
            if attempt >= self.opts.retries {
                if self.opts.retries > 0 {
                    self.stats.giveups += 1;
                    return Err(RelError::RetriesExhausted {
                        attempts: attempt + 1,
                        last: err.to_string(),
                    });
                }
                return Err(err);
            }
            self.backoff(attempt);
            attempt += 1;
            self.stats.retries += 1;
        }
    }

    /// Recompute statistics over every table.
    pub fn analyze(&mut self) -> RelResult<()> {
        self.expect_ok(&[REQ_ANALYZE], true)
    }

    /// Render the schema as text.
    pub fn describe(&mut self) -> RelResult<String> {
        match self.request(&[REQ_DESCRIBE], true)? {
            Response::Text(s) => Ok(s),
            other => Err(RelError::Io(format!("unexpected response {other:?}"))),
        }
    }

    /// Close the session cleanly.
    pub fn close(mut self) -> RelResult<()> {
        self.expect_ok(&[REQ_CLOSE], true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnDef;
    use crate::db::Database;
    use crate::types::{DataType, Value};

    fn spawn_with_table() -> (Server, TableId) {
        let sdb = SessionDb::new(Database::new());
        let t = sdb
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
            ))
            .expect("create table");
        let server = Server::spawn(sdb, "127.0.0.1:0").expect("bind");
        (server, t)
    }

    fn count_query(t: TableId) -> SqlQuery {
        let mut q = SelectQuery::single(t);
        q.outputs = vec![Output::col(0, 0)];
        SqlQuery::Select(q)
    }

    #[test]
    fn roundtrip_over_tcp() {
        let (server, t) = spawn_with_table();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.ping().unwrap();
        client
            .insert_rows(t, &[vec![Value::Int(1), Value::Int(10)]])
            .unwrap();
        assert_eq!(client.query(&count_query(t)).unwrap().len(), 1);
        assert!(client.describe().unwrap().contains("t(id, v)"));
        client.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn transactions_isolate_across_connections() {
        let (server, t) = spawn_with_table();
        let mut writer = Client::connect(server.local_addr()).expect("connect");
        let mut reader = Client::connect(server.local_addr()).expect("connect");
        writer.begin().unwrap();
        writer
            .insert_rows(t, &[vec![Value::Int(1), Value::Int(10)]])
            .unwrap();
        // The open transaction's writes are invisible to the other session,
        // and the reader completes while the write txn is open.
        assert_eq!(reader.query(&count_query(t)).unwrap().len(), 0);
        assert_eq!(writer.query(&count_query(t)).unwrap().len(), 1);
        let lsn = writer.commit().unwrap();
        assert!(lsn > 0);
        assert_eq!(reader.query(&count_query(t)).unwrap().len(), 1);
        writer.close().unwrap();
        reader.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn conflict_comes_back_transient() {
        let (server, t) = spawn_with_table();
        let mut a = Client::connect(server.local_addr()).expect("connect");
        let mut b = Client::connect(server.local_addr()).expect("connect");
        a.begin().unwrap();
        b.begin().unwrap();
        a.insert_rows(t, &[vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        b.insert_rows(t, &[vec![Value::Int(2), Value::Int(2)]])
            .unwrap();
        a.commit().unwrap();
        let err = b.commit().unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(err.to_string().contains("write conflict"), "{err}");
        server.shutdown();
    }

    #[test]
    fn nested_begin_is_a_typed_non_transient_error() {
        let (server, t) = spawn_with_table();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.begin().unwrap();
        client
            .insert_rows(t, &[vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        let err = client.begin().unwrap_err();
        assert!(!err.is_transient(), "{err}");
        assert!(err.to_string().contains("nested BEGIN"), "{err}");
        // The original transaction is untouched by the rejected BEGIN.
        assert_eq!(client.query(&count_query(t)).unwrap().len(), 1);
        client.rollback().unwrap();
        client.begin().unwrap();
        client.rollback().unwrap();
        client.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn connection_limit_rejects_with_typed_overloaded() {
        let sdb = SessionDb::new(Database::new());
        let opts = ServerOptions {
            max_connections: 1,
            ..ServerOptions::default()
        };
        let server = Server::spawn_with(sdb, "127.0.0.1:0", opts).expect("bind");
        let mut first = Client::connect(server.local_addr()).expect("connect");
        first.ping().unwrap();
        let mut second = Client::connect(server.local_addr()).expect("connect");
        let err = second.ping().unwrap_err();
        assert!(matches!(err, RelError::Overloaded(_)), "{err}");
        assert!(err.is_transient(), "{err}");
        // Once the first session ends its slot is reaped and a newcomer
        // gets in.
        first.close().unwrap();
        let third = loop {
            let mut candidate = Client::connect(server.local_addr()).expect("connect");
            match candidate.ping() {
                Ok(()) => break candidate,
                Err(RelError::Overloaded(_)) => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        };
        third.close().unwrap();
        let stats = server.stats();
        assert!(stats.connections_rejected >= 1, "{stats:?}");
        server.shutdown();
    }

    #[test]
    fn retries_exhausted_is_typed_and_counted() {
        let sdb = SessionDb::new(Database::new());
        let opts = ServerOptions {
            max_connections: 1,
            ..ServerOptions::default()
        };
        let server = Server::spawn_with(sdb, "127.0.0.1:0", opts).expect("bind");
        let mut hog = Client::connect(server.local_addr()).expect("connect");
        hog.ping().unwrap();
        let mut shed = Client::connect_with(
            server.local_addr(),
            ClientOptions {
                retries: 2,
                reconnect: true,
                ..ClientOptions::default()
            },
        )
        .expect("connect");
        let err = shed.ping().unwrap_err();
        assert!(
            matches!(err, RelError::RetriesExhausted { attempts: 3, .. }),
            "{err}"
        );
        assert!(!err.is_transient(), "giving up must not look retryable");
        let stats = shed.retry_stats();
        assert_eq!(stats.retries, 2, "{stats:?}");
        assert_eq!(stats.giveups, 1, "{stats:?}");
        assert!(stats.backoff_nanos_total > 0, "{stats:?}");
        hog.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn query_deadline_comes_back_as_typed_timeout() {
        let (server, t) = spawn_with_table();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let rows: Vec<Row> = (0..200)
            .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
            .collect();
        client.insert_rows(t, &rows).unwrap();
        // A 1ns deadline has expired by the time the executor first
        // checks it; the statement dies with the typed transient error.
        let err = client
            .query_deadline(&count_query(t), Some(Duration::from_nanos(1)))
            .unwrap_err();
        assert!(matches!(err, RelError::Timeout { .. }), "{err}");
        assert!(err.is_transient(), "{err}");
        // A generous deadline changes nothing.
        assert_eq!(
            client
                .query_deadline(&count_query(t), Some(Duration::from_secs(60)))
                .unwrap()
                .len(),
            200
        );
        client.close().unwrap();
        let stats = server.stats();
        assert_eq!(stats.statement_timeouts, 1, "{stats:?}");
        server.shutdown();
    }

    #[test]
    fn disconnect_rolls_back_open_transaction() {
        let (server, t) = spawn_with_table();
        let mut writer = Client::connect(server.local_addr()).expect("connect");
        let mut reader = Client::connect(server.local_addr()).expect("connect");
        writer.begin().unwrap();
        writer
            .insert_rows(t, &[vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        // Tear the connection with the transaction open: the server must
        // roll it back, leaving no partial state.
        drop(writer);
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().disconnect_rollbacks == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.stats().disconnect_rollbacks, 1);
        assert_eq!(reader.query(&count_query(t)).unwrap().len(), 0);
        reader.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn idle_transaction_is_reaped() {
        let sdb = SessionDb::new(Database::new());
        let t = sdb
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
            ))
            .expect("create table");
        let opts = ServerOptions {
            read_timeout: Duration::from_millis(20),
            idle_txn_timeout: Duration::from_millis(60),
            ..ServerOptions::default()
        };
        let server = Server::spawn_with(sdb, "127.0.0.1:0", opts).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.begin().unwrap();
        client
            .insert_rows(t, &[vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().idle_txns_reaped == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.stats().idle_txns_reaped, 1);
        // The reaped transaction is gone server-side: committing it now
        // is a typed error, and its writes never landed.
        let err = client.commit().unwrap_err();
        assert!(err.to_string().contains("no open transaction"), "{err}");
        assert_eq!(client.query(&count_query(t)).unwrap().len(), 0);
        client.close().unwrap();
        server.shutdown();
    }

    #[test]
    fn drain_report_accounts_for_forced_and_clean_sessions() {
        let sdb = SessionDb::new(Database::new());
        let t = sdb
            .create_table(TableDef::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("v", DataType::Int),
                ],
            ))
            .expect("create table");
        let opts = ServerOptions {
            read_timeout: Duration::from_millis(20),
            drain_timeout: Duration::from_millis(150),
            ..ServerOptions::default()
        };
        let server = Server::spawn_with(sdb, "127.0.0.1:0", opts).expect("bind");
        // One idle session (drains clean at its next poll tick) and one
        // with an open transaction (holds out past the drain deadline and
        // is force-closed, rolling the transaction back).
        let mut idle = Client::connect(server.local_addr()).expect("connect");
        idle.ping().unwrap();
        let mut holdout = Client::connect(server.local_addr()).expect("connect");
        holdout.begin().unwrap();
        holdout
            .insert_rows(t, &[vec![Value::Int(1), Value::Int(1)]])
            .unwrap();
        let report = server.shutdown();
        assert_eq!(report.connections_at_shutdown, 2, "{report:?}");
        assert_eq!(report.drained_clean, 1, "{report:?}");
        assert_eq!(report.forced_closed, 1, "{report:?}");
        assert_eq!(report.txns_rolled_back, 1, "{report:?}");
        assert!(report.wait_nanos > 0, "{report:?}");
        assert!(!report.to_json().is_empty());
        drop(idle);
        drop(holdout);
    }

    /// The drain JSON is its counters with the `server.drain.` prefix
    /// stripped, byte for byte.
    #[test]
    fn drain_report_json_strips_the_counter_prefix() {
        let report = DrainReport {
            connections_at_shutdown: 2,
            drained_clean: 1,
            forced_closed: 1,
            txns_rolled_back: 1,
            wait_nanos: 9,
        };
        assert_eq!(
            report.to_json(),
            r#"{"connections_at_shutdown":2,"drained_clean":1,"forced_closed":1,"txns_rolled_back":1,"wait_nanos":9}"#
        );
    }

    #[test]
    fn err_code_round_trips_and_degrades_unknown_to_other() {
        for code in [
            ErrCode::Other,
            ErrCode::Overloaded,
            ErrCode::Timeout,
            ErrCode::Conflict,
            ErrCode::NestedBegin,
        ] {
            assert_eq!(ErrCode::from_u8(code.to_u8()), code);
        }
        assert_eq!(ErrCode::from_u8(250), ErrCode::Other);
        let resp = Response::Err {
            transient: true,
            code: ErrCode::Overloaded,
            msg: "shed".into(),
        };
        let decoded = decode_response(&encode_response(&resp)).expect("decode");
        assert_eq!(decoded, resp);
    }

    #[test]
    fn query_codec_round_trips() {
        let query = SqlQuery::Union(UnionAllQuery {
            branches: vec![
                SelectQuery {
                    tables: vec![TableId(0), TableId(1)],
                    joins: vec![JoinCond {
                        left_ref: 0,
                        left_col: 1,
                        right_ref: 1,
                        right_col: 0,
                    }],
                    filters: vec![Filter::new(0, 1, FilterOp::Ge, Value::Int(7))],
                    outputs: vec![Output::col(0, 0), Output::Null(DataType::Str)],
                },
                SelectQuery {
                    tables: vec![TableId(2)],
                    joins: vec![],
                    filters: vec![Filter::new(0, 0, FilterOp::IsNull, Value::Null)],
                    outputs: vec![Output::col(0, 0), Output::col(0, 1)],
                },
            ],
            order_by: vec![0, 1],
        });
        let mut e = Enc(Vec::new());
        enc_query(&mut e, &query);
        let mut d = Dec::new(&e.0);
        let back = dec_query(&mut d).expect("decode");
        assert!(d.is_done());
        assert_eq!(back, query);
    }
}
