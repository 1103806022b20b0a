//! Error type for the relational engine.

use std::fmt;

/// Result alias for engine operations.
pub type RelResult<T> = Result<T, RelError>;

/// Which physical structure a corruption diagnosis refers to. The row heap
/// is the durable source of truth; indexes and materialized views are
/// derived from it and therefore rebuildable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StructureKind {
    /// A base table's row heap.
    Heap,
    /// A built B-tree index.
    Index,
    /// A materialized join view.
    View,
}

impl StructureKind {
    /// Whether the structure can be rebuilt from the row heap alone.
    /// Heap damage needs snapshot + WAL instead.
    pub fn is_derived(&self) -> bool {
        !matches!(self, StructureKind::Heap)
    }

    /// Stable lowercase label, used in metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            StructureKind::Heap => "heap",
            StructureKind::Index => "index",
            StructureKind::View => "view",
        }
    }
}

impl fmt::Display for StructureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A typed description of one detected checksum failure: which structure,
/// on which table, at which page. This is what the self-healing loop
/// quarantines and repairs; it round-trips with [`RelError::Corrupted`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CorruptionEvent {
    /// What kind of structure failed verification.
    pub kind: StructureKind,
    /// Owning base table.
    pub table: String,
    /// Name of the damaged structure: the table name for heaps, else the
    /// index/view name.
    pub structure: String,
    /// Zero-based page number of the first mismatch.
    pub page: usize,
}

impl CorruptionEvent {
    /// Extract the event from an error, if it is a corruption diagnosis.
    pub fn from_error(err: &RelError) -> Option<CorruptionEvent> {
        match err {
            RelError::Corrupted {
                kind,
                table,
                structure,
                page,
            } => Some(CorruptionEvent {
                kind: *kind,
                table: table.clone(),
                structure: structure.clone(),
                page: *page,
            }),
            _ => None,
        }
    }

    /// Convert back into the error the detection site would have raised.
    pub fn into_error(self) -> RelError {
        RelError::Corrupted {
            kind: self.kind,
            table: self.table,
            structure: self.structure,
            page: self.page,
        }
    }
}

/// Errors raised by catalog, storage, and execution operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RelError {
    /// Referencing a table that does not exist.
    UnknownTable(String),
    /// Referencing a column that does not exist in its table.
    UnknownColumn { table: String, column: String },
    /// Referencing an index that does not exist.
    UnknownIndex(String),
    /// Creating an object whose name is already taken.
    Duplicate(String),
    /// A row does not match its table's schema.
    SchemaMismatch(String),
    /// A malformed query (bad table/column references, empty union, ...).
    InvalidQuery(String),
    /// A transient fault (injected or real): a failed page read, a planner
    /// that gave up, a dangling index entry. Retrying may succeed.
    Fault(String),
    /// A page whose checksum no longer matches its contents. Not transient:
    /// the stored data itself is damaged. Derived structures (index, view)
    /// are rebuildable from the row heap; heap corruption needs snapshot +
    /// WAL repair.
    Corrupted {
        /// What kind of structure failed verification.
        kind: StructureKind,
        /// Owning base table.
        table: String,
        /// Name of the damaged structure (see [`CorruptionEvent::structure`]).
        structure: String,
        /// Zero-based page number of the first mismatch.
        page: usize,
    },
    /// A resource budget (e.g. a page-read budget) was exhausted.
    ResourceExhausted(String),
    /// A filesystem operation (WAL append, snapshot write, rename) failed.
    Io(String),
    /// A simulated crash point fired: the durable writer is dead and every
    /// further durable mutation fails until the database is reopened
    /// through recovery.
    Crashed(String),
    /// The snapshot failed validation (a damaged or torn frame, or no
    /// closing checkpoint marker). Not recoverable by replay: the
    /// checkpointed base state itself is damaged.
    InvalidSnapshot(String),
    /// First-committer-wins serialization failure: another transaction
    /// committed to a table this transaction wrote after this transaction's
    /// snapshot was taken. The transaction is rolled back; retrying it
    /// against a fresh snapshot may succeed.
    WriteConflict {
        /// Table both transactions wrote.
        table: String,
        /// The conflicting transaction's commit LSN.
        committed_lsn: u64,
        /// This transaction's snapshot LSN.
        snapshot_lsn: u64,
    },
    /// The plan was chosen under a physical configuration that has since
    /// been replaced (an `apply_config`/`clear_config`/online swap landed
    /// between plan and execute), so it may reference structures that no
    /// longer exist. Transient: replanning against the current
    /// configuration succeeds.
    StalePlan {
        /// The configuration epoch the plan was stamped with.
        plan_epoch: u64,
        /// The configuration epoch at execution time.
        config_epoch: u64,
    },
    /// A statement exceeded its request deadline and was cooperatively
    /// cancelled at a morsel boundary. Transient: the same statement may
    /// finish under a fresh (or longer) deadline. Timeouts are
    /// charge/token-neutral: the fault plane's budget charges and token
    /// serial are restored to their pre-statement state, exactly like a
    /// failed heal attempt.
    Timeout {
        /// Stable label of the execution site that observed expiry
        /// (`"scan"`, `"probe"`, `"inlj"`, ...).
        site: &'static str,
    },
    /// The server refused admission: the connection or in-flight statement
    /// limit was reached. Transient by construction — the rejection is
    /// load shedding, not a statement failure — so clients retry it with
    /// backoff.
    Overloaded(String),
    /// A client retry budget ran out without a successful response. Not
    /// transient: the budget itself is the retry policy, so surfacing this
    /// means "stop retrying".
    RetriesExhausted {
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// Display form of the last error observed.
        last: String,
    },
}

impl RelError {
    /// Wrap a [`std::io::Error`] into [`RelError::Io`].
    pub fn io(e: std::io::Error) -> RelError {
        RelError::Io(e.to_string())
    }

    /// Corruption in a base table's row heap.
    pub fn corrupted_heap(table: impl Into<String>, page: usize) -> RelError {
        let table = table.into();
        RelError::Corrupted {
            kind: StructureKind::Heap,
            structure: table.clone(),
            table,
            page,
        }
    }

    /// Corruption in a derived structure owned by `table`.
    pub fn corrupted(
        kind: StructureKind,
        table: impl Into<String>,
        structure: impl Into<String>,
        page: usize,
    ) -> RelError {
        RelError::Corrupted {
            kind,
            table: table.into(),
            structure: structure.into(),
            page,
        }
    }
    /// Whether retrying the failed operation could succeed. Injected faults
    /// are transient by construction, and a write conflict clears once the
    /// transaction restarts on a fresh snapshot; corruption and exhausted
    /// budgets are not retryable.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            RelError::Fault(_)
                | RelError::WriteConflict { .. }
                | RelError::StalePlan { .. }
                | RelError::Timeout { .. }
                | RelError::Overloaded(_)
        )
    }
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::UnknownTable(name) => write!(f, "unknown table '{name}'"),
            RelError::UnknownColumn { table, column } => {
                write!(f, "unknown column '{column}' in table '{table}'")
            }
            RelError::UnknownIndex(name) => write!(f, "unknown index '{name}'"),
            RelError::Duplicate(name) => write!(f, "object '{name}' already exists"),
            RelError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            RelError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            RelError::Fault(msg) => write!(f, "fault: {msg}"),
            RelError::Corrupted {
                kind,
                table,
                structure,
                page,
            } => match kind {
                // The heap message predates the structured variants; tests
                // and logs match on it, so it stays byte-identical.
                StructureKind::Heap => write!(f, "corrupted page {page} in table '{table}'"),
                StructureKind::Index => {
                    write!(
                        f,
                        "corrupted page {page} in index '{structure}' on table '{table}'"
                    )
                }
                StructureKind::View => write!(f, "corrupted page {page} in view '{structure}'"),
            },
            RelError::ResourceExhausted(msg) => write!(f, "resource exhausted: {msg}"),
            RelError::Io(msg) => write!(f, "i/o error: {msg}"),
            RelError::Crashed(msg) => write!(f, "crashed: {msg}"),
            RelError::InvalidSnapshot(msg) => write!(f, "invalid snapshot: {msg}"),
            RelError::WriteConflict {
                table,
                committed_lsn,
                snapshot_lsn,
            } => write!(
                f,
                "write conflict on table '{table}': lsn {committed_lsn} committed after \
                 snapshot lsn {snapshot_lsn}"
            ),
            RelError::StalePlan {
                plan_epoch,
                config_epoch,
            } => write!(
                f,
                "stale plan: planned under config epoch {plan_epoch}, \
                 current epoch is {config_epoch}; replan"
            ),
            RelError::Timeout { site } => {
                write!(f, "timeout: request deadline exceeded at {site}")
            }
            RelError::Overloaded(msg) => write!(f, "overloaded: {msg}"),
            RelError::RetriesExhausted { attempts, last } => write!(
                f,
                "retries exhausted after {attempts} attempts; last error: {last}"
            ),
        }
    }
}

impl std::error::Error for RelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(RelError::UnknownTable("t".into()).to_string().contains("t"));
        assert!(RelError::UnknownColumn {
            table: "t".into(),
            column: "c".into()
        }
        .to_string()
        .contains("'c'"));
        assert!(RelError::Duplicate("x".into())
            .to_string()
            .contains("exists"));
        assert!(RelError::InvalidQuery("no".into())
            .to_string()
            .contains("no"));
    }

    #[test]
    fn heap_corruption_display_is_stable() {
        // Pre-structured-variant message, matched by tests and logs.
        assert_eq!(
            RelError::corrupted_heap("t", 3).to_string(),
            "corrupted page 3 in table 't'"
        );
    }

    #[test]
    fn derived_corruption_displays_name_kind_and_table() {
        let err = RelError::corrupted(StructureKind::Index, "t", "ix", 7);
        let msg = err.to_string();
        assert!(msg.contains("index 'ix'") && msg.contains("'t'") && msg.contains("7"));
        let msg = RelError::corrupted(StructureKind::View, "t", "v", 0).to_string();
        assert!(msg.contains("view 'v'"));
    }

    #[test]
    fn corruption_event_round_trips() {
        let err = RelError::corrupted(StructureKind::View, "t", "v", 9);
        let event = CorruptionEvent::from_error(&err).expect("corruption event");
        assert_eq!(event.kind, StructureKind::View);
        assert_eq!(event.table, "t");
        assert_eq!(event.structure, "v");
        assert_eq!(event.page, 9);
        assert_eq!(event.into_error(), err);
        assert!(CorruptionEvent::from_error(&RelError::Fault("x".into())).is_none());
    }

    #[test]
    fn overload_taxonomy_is_transient_but_giving_up_is_not() {
        assert!(RelError::Timeout { site: "scan" }.is_transient());
        assert!(RelError::Overloaded("inflight limit".into()).is_transient());
        assert!(!RelError::RetriesExhausted {
            attempts: 5,
            last: "overloaded: inflight limit".into()
        }
        .is_transient());
        assert_eq!(
            RelError::Timeout { site: "probe" }.to_string(),
            "timeout: request deadline exceeded at probe"
        );
        let msg = RelError::RetriesExhausted {
            attempts: 3,
            last: "timeout: request deadline exceeded at scan".into(),
        }
        .to_string();
        assert!(msg.contains("3 attempts") && msg.contains("timeout"));
    }

    #[test]
    fn structure_kinds_classify_repairability() {
        assert!(!StructureKind::Heap.is_derived());
        for kind in [StructureKind::Index, StructureKind::View] {
            assert!(kind.is_derived());
        }
        assert_eq!(StructureKind::Heap.to_string(), "heap");
    }
}
