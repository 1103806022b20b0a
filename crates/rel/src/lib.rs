//! An in-memory relational engine substrate.
//!
//! The paper runs its experiments on Microsoft SQL Server 2000 and its Index
//! Tuning Wizard. Neither is available (nor scriptable) here, so this crate
//! implements the pieces of a relational system the advisor actually
//! exercises:
//!
//! * a [`catalog`] and paged row [`storage`],
//! * B-tree [`index`]es with included (covering) columns and a clustered
//!   primary-key index,
//! * materialized join [`view`]s,
//! * per-column [`stats`] (row counts, distinct counts, equi-depth
//!   histograms) driving selectivity estimation,
//! * a small SQL subset ([`sql`]): conjunctive select-project-join blocks
//!   combined with `UNION ALL` + `ORDER BY` — exactly the shape produced by
//!   the sorted-outer-union XPath translation,
//! * a cost-based [`optimizer`] choosing access paths (seq scan, index seek,
//!   covering index) and join algorithms (hash join vs index nested loop),
//! * a vectorized [`exec`]utor with I/O accounting, and
//! * *what-if* costing against hypothetical physical configurations, which
//!   is the interface the paper's tuning-wizard analog needs.
//!
//! The engine's purpose is fidelity of *relative* costs (who wins, where the
//! crossover is), not absolute throughput; see DESIGN.md for the
//! substitution argument.

// Robustness gate: library code must propagate typed errors, not unwrap.
// Tests are exempt (unwrap there is an assertion).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod adapt;
pub mod built;
pub mod catalog;
pub mod cost;
pub mod db;
pub mod ddl;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fault;
pub mod heal;
pub mod index;
pub mod json;
pub mod netfault;
pub mod optimizer;
pub mod par;
pub mod plan;
pub mod recovery;
pub mod server;
pub mod session;
pub mod snapshot;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod types;
pub mod view;
pub mod wal;

pub use adapt::OnlineSwapReport;
pub use built::BuiltSet;
pub use catalog::{Catalog, ColumnDef, TableDef, TableId};
pub use db::{Database, PhysicalConfig, QueryOutcome};
pub use error::{CorruptionEvent, RelError, RelResult, StructureKind};
pub use exec::{
    ExecOptions, ExecProfile, ExecStats, MorselRows, OperatorTiming, SnapshotVisibility, StmtCtx,
};
pub use expr::{Filter, FilterOp};
pub use fault::{
    backoff_nanos, CrashKind, CrashPoint, FaultConfig, FaultPlane, FaultStats, PlaneState,
};
pub use heal::{HealReport, ScrubReport};
pub use index::{BuiltIndex, IndexDef};
pub use netfault::{NetFaultConfig, NetFaultState, ReadFault, WriteFault};
pub use recovery::RecoveryReport;
pub use server::{
    Client, ClientOptions, DrainReport, ErrCode, Response, RetryStats, Server, ServerOptions,
    ServerStatsSnapshot,
};
pub use session::{SessionDb, Transaction};
pub use sql::{Output, SelectQuery, SqlQuery, UnionAllQuery};
pub use stats::{ColumnStats, TableStats};
pub use types::{DataType, Row, Value};
pub use view::BuiltView;
pub use view::ViewDef;
pub use wal::{DecodeError, WalRecord, WalStats};
