//! Crash recovery: turn a durable directory (snapshot + write-ahead log)
//! back into a live [`Database`], deterministically.
//!
//! Recovery is a pure function of the on-disk bytes:
//!
//! 1. Validate the snapshot, if any ([`crate::snapshot`]), and replay its
//!    records — a compacted log ending in a checkpoint marker — through
//!    the same `apply_record` as the WAL; a damaged snapshot is fatal, a
//!    missing one means "replay from an empty database".
//! 2. Scan the WAL, accepting frames up to the first incomplete or
//!    CRC-failing one; the remainder is a torn tail from an interrupted
//!    final write and is discarded (counted, not errored). A trailing
//!    transaction whose `TxnCommit` marker never made it to disk is
//!    dropped the same way: the WAL is the commit log, and only committed
//!    transactions replay.
//! 3. Replay every accepted frame whose LSN the snapshot does not already
//!    cover, in log order, through the same mutation logic the original
//!    calls used — so physical structures are rebuilt from exactly the
//!    heap state they were originally built from.
//! 4. Verify every heap's page checksums exactly once and count the pages
//!    salvaged, then report what happened as a [`RecoveryReport`].
//!
//! Nothing in the pipeline reads clocks, thread counts, or iteration order
//! of hash maps, so the same directory bytes always produce the same
//! database and the same report — the property the crash-matrix harness
//! and CI assert.

use crate::catalog::{TableDef, TableId};
use crate::db::Database;
use crate::error::{RelError, RelResult};
use crate::snapshot::{self, WAL_FILE};
use crate::storage::TableHeap;
use crate::wal::{self, WalRecord};
use std::path::Path;

/// What recovery found and did, fully deterministic for a given directory
/// state. Registered into metrics as `wal.*` / `recovery.*` counters via
/// [`RecoveryReport::metric_counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot was found and replayed.
    pub snapshot_loaded: bool,
    /// The snapshot's checkpoint-marker LSN (0 without a snapshot): WAL
    /// frames below this are already absorbed.
    pub snapshot_lsn: u64,
    /// WAL frames replayed against the restored state.
    pub frames_replayed: u64,
    /// WAL frames skipped: checkpoint and transaction markers plus frames
    /// the snapshot already covered.
    pub frames_skipped: u64,
    /// Corrupt trailing frames discarded (0 or 1: the scan cannot
    /// resynchronize past the first bad frame). A trailing fragment
    /// shorter than one frame header sets [`tail_incomplete`] instead — no
    /// complete frame was damaged.
    ///
    /// [`tail_incomplete`]: RecoveryReport::tail_incomplete
    pub frames_discarded: u64,
    /// The log ended on a fragment shorter than one 8-byte frame header
    /// (an append that barely started); mutually exclusive with a nonzero
    /// `frames_discarded`.
    pub tail_incomplete: bool,
    /// CRC-valid frames dropped because they belong to a trailing
    /// transaction whose commit marker never reached the log. The WAL is
    /// the commit log: an interrupted commit must be invisible after
    /// recovery, exactly like a torn tail.
    pub frames_uncommitted: u64,
    /// Committed transactions observed in the log (matched
    /// `TxnBegin`/`TxnCommit` pairs).
    pub txns_committed: u64,
    /// Bytes of torn tail discarded.
    pub bytes_discarded: u64,
    /// Bytes of valid log retained (the replayable committed prefix).
    pub wal_valid_bytes: u64,
    /// Heap pages whose checksums were verified after restore.
    pub pages_verified: u64,
    /// Index structures built during recovery (the snapshot's and the
    /// log's replayed `ApplyConfig` records).
    pub indexes_rebuilt: u64,
    /// View materializations built during recovery.
    pub views_rebuilt: u64,
    /// The LSN counter the recovered database resumes from: the number of
    /// mutation records that are durably applied.
    pub next_lsn: u64,
}

impl RecoveryReport {
    /// The report as `(metric name, value)` pairs, all deterministic, under
    /// the `wal.` / `recovery.` prefixes.
    pub fn metric_counters(&self) -> [(&'static str, u64); 14] {
        [
            ("wal.frames_replayed", self.frames_replayed),
            ("wal.frames_skipped", self.frames_skipped),
            ("wal.frames_discarded", self.frames_discarded),
            ("wal.tail_incomplete", u64::from(self.tail_incomplete)),
            ("wal.frames_uncommitted", self.frames_uncommitted),
            ("wal.bytes_discarded", self.bytes_discarded),
            ("wal.valid_bytes", self.wal_valid_bytes),
            ("recovery.snapshot_loaded", u64::from(self.snapshot_loaded)),
            ("recovery.snapshot_lsn", self.snapshot_lsn),
            ("recovery.txns_committed", self.txns_committed),
            ("recovery.pages_verified", self.pages_verified),
            ("recovery.indexes_rebuilt", self.indexes_rebuilt),
            ("recovery.views_rebuilt", self.views_rebuilt),
            ("recovery.next_lsn", self.next_lsn),
        ]
    }

    /// Render as a stable JSON object (keys in [`RecoveryReport::metric_counters`]
    /// order), for CI artifacts.
    pub fn to_json(&self) -> String {
        crate::json::report_json(&self.metric_counters(), None)
    }
}

/// Apply one replayed record through the database's (non-durable) mutation
/// paths. `recover` only calls this on a database with no durability
/// attached, so nothing is re-logged.
fn apply_record(
    db: &mut Database,
    record: WalRecord,
    report: &mut RecoveryReport,
) -> RelResult<()> {
    match record {
        WalRecord::CreateTable(def) => {
            db.create_table(def)?;
        }
        WalRecord::InsertRows { table, rows } => {
            db.insert_rows(table, rows)?;
        }
        WalRecord::Analyze => db.analyze()?,
        WalRecord::AnalyzeTable(table) => db.analyze_table(table)?,
        WalRecord::SetTableStats { table, stats } => db.set_table_stats(table, stats)?,
        WalRecord::ApplyConfig(config) => {
            report.indexes_rebuilt += config.indexes.len() as u64;
            report.views_rebuilt += config.views.len() as u64;
            db.apply_config(&config)?;
        }
        WalRecord::ClearConfig => db.clear_config()?,
        // Markers carry no mutation; `recover` handles their bookkeeping
        // before dispatching here, so these arms are defensive.
        WalRecord::Checkpoint => {}
        WalRecord::TxnBegin { .. } | WalRecord::TxnCommit { .. } => {}
    }
    Ok(())
}

/// The committed prefix of a scanned log: the frame sequence up to (not
/// including) the first `TxnBegin` with no matching `TxnCommit`. Commits
/// are serialized by the session layer, so a transaction's frames are
/// contiguous and only the log's trailing transaction can be uncommitted —
/// everything from its begin marker on is dropped, and `valid_bytes` moves
/// back to the boundary so [`Database::open_durable`] truncates the dead
/// frames before appending (their LSNs are reused by the next commit).
struct CommittedLog {
    /// Replayable frames, in file order.
    frames: Vec<(u64, WalRecord)>,
    /// Byte length of the replayable prefix.
    valid_bytes: u64,
    /// Matched begin/commit pairs observed.
    txns_committed: u64,
    /// CRC-valid frames dropped from the uncommitted tail.
    frames_uncommitted: u64,
}

fn committed_log(outcome: wal::WalReadOutcome) -> CommittedLog {
    let mut open_at: Option<usize> = None;
    let mut txns_committed = 0u64;
    for (i, (_, record)) in outcome.frames.iter().enumerate() {
        match record {
            WalRecord::TxnBegin { .. } if open_at.is_none() => open_at = Some(i),
            WalRecord::TxnCommit { .. } if open_at.take().is_some() => txns_committed += 1,
            _ => {}
        }
    }
    let mut frames = outcome.frames;
    let mut valid_bytes = outcome.valid_bytes;
    let mut frames_uncommitted = 0u64;
    if let Some(cut) = open_at {
        frames_uncommitted = (frames.len() - cut) as u64;
        valid_bytes = if cut == 0 {
            0
        } else {
            outcome.frame_ends[cut - 1]
        };
        frames.truncate(cut);
    }
    CommittedLog {
        frames,
        valid_bytes,
        txns_committed,
        frames_uncommitted,
    }
}

/// Recover a database from a durable directory. Returns the rebuilt
/// (not-yet-durable) database plus the report; [`Database::open_durable`]
/// attaches the log writer on top.
pub fn recover(dir: &Path) -> RelResult<(Database, RecoveryReport)> {
    let mut db = Database::new();
    let mut report = RecoveryReport::default();

    if let Some((lsn, records)) = snapshot::read_snapshot(dir)? {
        report.snapshot_loaded = true;
        report.snapshot_lsn = lsn;
        report.next_lsn = lsn;
        for record in records {
            apply_record(&mut db, record, &mut report)?;
        }
    }

    let outcome = wal::read_wal(&dir.join(WAL_FILE))?;
    report.frames_discarded = outcome.frames_discarded;
    report.tail_incomplete = outcome.tail_incomplete;
    report.bytes_discarded = outcome.bytes_discarded;
    let committed = committed_log(outcome);
    report.wal_valid_bytes = committed.valid_bytes;
    report.txns_committed = committed.txns_committed;
    report.frames_uncommitted = committed.frames_uncommitted;
    for (lsn, record) in committed.frames {
        match record {
            WalRecord::Checkpoint => {
                // Shares its LSN with the next mutation; never advances.
                report.frames_skipped += 1;
            }
            _ if lsn < report.snapshot_lsn => {
                report.frames_skipped += 1;
            }
            WalRecord::TxnBegin { .. } | WalRecord::TxnCommit { .. } => {
                // Markers carry no mutation but consume LSNs; the recovered
                // database must resume past them.
                report.frames_skipped += 1;
                report.next_lsn = lsn + 1;
            }
            record => {
                apply_record(&mut db, record, &mut report)?;
                report.frames_replayed += 1;
                report.next_lsn = lsn + 1;
            }
        }
    }

    // Verify every heap exactly once, after the full replay: the recovered
    // base data (and thus everything rebuilt from it) is checksum-clean, or
    // recovery fails loudly with `Corrupted`.
    let tables: Vec<(TableId, String)> = db
        .catalog()
        .iter()
        .map(|(id, def)| (id, def.name.clone()))
        .collect();
    for (id, name) in tables {
        let heap = db.try_heap(id)?;
        heap.verify_checksums(&name)?;
        report.pages_verified += heap.pages() as u64;
    }

    Ok((db, report))
}

/// Rebuild one table's row heap from the durable directory alone: the
/// snapshot's records (if any) followed by the committed WAL suffix, read
/// as one log. This is targeted repair for in-memory heap-page corruption
/// — the on-disk bytes are the authority, so the returned heap is exactly
/// the heap a full [`recover`] would produce for that table.
///
/// Pure function of the directory bytes and the table name; the caller
/// swaps the heap into the live database. Table ids are assigned the way
/// [`recover`] assigns them — each replayed `CreateTable` takes the next
/// id — so `InsertRows` records can be matched to the target table
/// without a live catalog.
///
/// The rebuilt heap is checksum-verified before it is returned; an
/// unknown table name is an error.
pub fn repair_table(dir: &Path, table: &str) -> RelResult<TableHeap> {
    let mut heap = TableHeap::new();
    let mut target: Option<(TableId, TableDef)> = None;
    let mut next_id: u32 = 0;

    let (snapshot_lsn, snapshot_records) = snapshot::read_snapshot(dir)?.unwrap_or_default();
    // Same committed-prefix rule as `recover`: an uncommitted trailing
    // transaction contributes nothing to the repaired heap.
    let committed = committed_log(wal::read_wal(&dir.join(WAL_FILE))?);
    let log = snapshot_records
        .into_iter()
        .map(|record| (snapshot_lsn, record))
        .chain(committed.frames);
    for (lsn, record) in log {
        if lsn < snapshot_lsn {
            continue;
        }
        match record {
            WalRecord::CreateTable(created) => {
                let id = TableId(next_id);
                next_id += 1;
                if created.name == table {
                    target = Some((id, created));
                }
            }
            WalRecord::InsertRows { table: id, rows } => {
                if let Some((_, def)) = target.as_ref().filter(|(t, _)| *t == id) {
                    for row in rows {
                        heap.insert_unchecked(def, row);
                    }
                }
            }
            _ => {}
        }
    }

    if target.is_none() {
        return Err(RelError::UnknownTable(table.to_string()));
    }
    heap.verify_checksums(table)?;
    Ok(heap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_stable_and_complete() {
        let report = RecoveryReport {
            snapshot_loaded: true,
            snapshot_lsn: 3,
            frames_replayed: 5,
            frames_skipped: 2,
            frames_discarded: 1,
            tail_incomplete: false,
            frames_uncommitted: 3,
            txns_committed: 2,
            bytes_discarded: 40,
            wal_valid_bytes: 640,
            pages_verified: 7,
            indexes_rebuilt: 2,
            views_rebuilt: 1,
            next_lsn: 8,
        };
        let json = report.to_json();
        for (name, value) in report.metric_counters() {
            assert!(
                json.contains(&format!("\"{name}\": {value}")),
                "missing {name} in {json}"
            );
        }
        assert_eq!(json, report.to_json());
    }

    #[test]
    fn empty_dir_recovers_to_empty_database() {
        let dir = std::env::temp_dir().join(format!("xmlshred-rec-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (db, report) = recover(&dir).unwrap();
        assert!(db.catalog().is_empty());
        assert_eq!(report, RecoveryReport::default());
        std::fs::remove_dir_all(&dir).ok();
    }
}
