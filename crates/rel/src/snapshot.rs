//! Checkpoint snapshots: the database state as a compacted log.
//!
//! `snapshot.img` holds the records that rebuild the checkpointed state on
//! an empty database, in the WAL's own frame format ([`crate::wal`]): one
//! `CreateTable` per table, its rows as `InsertRows` batches, one
//! `SetTableStats` per table, the physical design as one `ApplyConfig`
//! (when one is built), and a closing `Checkpoint` marker. Every frame
//! carries the checkpoint's LSN — the database's `next_lsn` at checkpoint
//! time — so recovery replays the records through the same `apply_record`
//! as the log, then skips WAL frames below it.
//!
//! Unlike the WAL, whose tail may legitimately be torn, a snapshot is
//! written through a temp-file + `rename` sequence and must never be
//! partially visible: a damaged or torn frame, or a last frame that is not
//! the marker, rejects the whole file ([`RelError::InvalidSnapshot`]).

use crate::error::{RelError, RelResult};
use crate::wal::{self, WalRecord, WalWriter};
use std::fs;
use std::path::Path;

/// Snapshot file name inside a durable database directory.
pub const SNAPSHOT_FILE: &str = "snapshot.img";
/// Log file name inside a durable database directory.
pub const WAL_FILE: &str = "wal.log";

/// Write `records` plus the closing checkpoint marker, every frame at
/// `lsn`, to `dir/snapshot.img` atomically: append to `snapshot.tmp`,
/// sync, then rename over the live file. A crash at any point leaves
/// either the old snapshot or the new one — never a torn mix. The writer
/// is private to the file, so no crash point or WAL counter sees it.
pub(crate) fn write_snapshot(
    dir: &Path,
    lsn: u64,
    records: impl IntoIterator<Item = WalRecord>,
) -> RelResult<()> {
    let tmp = dir.join("snapshot.tmp");
    let mut writer = WalWriter::create(&tmp)?;
    for record in records.into_iter().chain([WalRecord::Checkpoint]) {
        writer.append(lsn, &record)?;
    }
    writer.sync()?;
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE)).map_err(RelError::io)
}

/// Read and validate `dir/snapshot.img`: the checkpoint marker's LSN and
/// the records before it. A missing file is `None` (fresh database or
/// never checkpointed); a damaged or torn frame, or a missing closing
/// marker, is [`RelError::InvalidSnapshot`], which is fatal: the WAL alone
/// cannot reconstruct state the truncated log no longer carries.
pub fn read_snapshot(dir: &Path) -> RelResult<Option<(u64, Vec<WalRecord>)>> {
    let path = dir.join(SNAPSHOT_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let outcome = wal::read_wal(&path)?;
    if outcome.bytes_discarded > 0 {
        return Err(RelError::InvalidSnapshot(format!(
            "damaged frame at byte {} of {}",
            outcome.valid_bytes,
            path.display()
        )));
    }
    let mut frames = outcome.frames;
    match frames.pop() {
        Some((lsn, WalRecord::Checkpoint)) => Ok(Some((
            lsn,
            frames.into_iter().map(|(_, record)| record).collect(),
        ))),
        _ => Err(RelError::InvalidSnapshot(format!(
            "no closing checkpoint marker in {}",
            path.display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, TableDef, TableId};
    use crate::index::IndexDef;
    use crate::optimizer::PhysicalConfig;
    use crate::stats::TableStats;
    use crate::types::{DataType, Value};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("xmlshred-snap-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        let def = TableDef::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Str).nullable(),
            ],
        );
        vec![
            WalRecord::CreateTable(def),
            WalRecord::InsertRows {
                table: TableId(0),
                rows: vec![
                    vec![Value::Int(1), Value::str("a")],
                    vec![Value::Int(2), Value::Null],
                ],
            },
            WalRecord::SetTableStats {
                table: TableId(0),
                stats: TableStats {
                    rows: 2,
                    columns: vec![],
                },
            },
            WalRecord::ApplyConfig(PhysicalConfig {
                indexes: vec![IndexDef::new("ix", TableId(0), vec![0], vec![])],
                views: vec![],
            }),
        ]
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = temp_dir("roundtrip");
        write_snapshot(&dir, 17, sample_records()).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some((17, sample_records())));
        assert!(!dir.join("snapshot.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_none() {
        let dir = temp_dir("missing");
        assert_eq!(read_snapshot(&dir).unwrap(), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_snapshots_are_fatal() {
        let dir = temp_dir("damaged");
        write_snapshot(&dir, 3, sample_records()).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let good = fs::read(&path).unwrap();
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x40;
        let marker = wal::encode_frame(3, &WalRecord::Checkpoint).len();
        let cases: [(&str, &[u8]); 5] = [
            ("flipped byte", &flipped),
            ("truncated", &good[..good.len() - 3]),
            ("no closing marker", &good[..good.len() - marker]),
            ("empty", b""),
            // Starts like the retired hand-versioned image format.
            ("garbage", b"XSHREDSN\x01\0\0\0garbage."),
        ];
        for (case, bytes) in cases {
            fs::write(&path, bytes).unwrap();
            let err = read_snapshot(&dir).unwrap_err();
            assert!(
                matches!(err, RelError::InvalidSnapshot(_)),
                "{case}: {err:?}"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// A snapshot written while an incremental statistics mode existed
    /// carried its toggle as a tag-11 frame. That tag is retired, so such a
    /// snapshot is rejected whole, like the retired image format.
    #[test]
    fn snapshot_with_retired_stats_mode_frame_is_invalid() {
        let dir = temp_dir("retired");
        let mut body = 5u64.to_le_bytes().to_vec();
        body.extend_from_slice(&[11, 1]);
        let mut bytes = wal::encode_frame(5, &sample_records()[0]);
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&wal::crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&wal::encode_frame(5, &WalRecord::Checkpoint));
        fs::write(dir.join(SNAPSHOT_FILE), bytes).unwrap();
        let err = read_snapshot(&dir).unwrap_err();
        assert!(matches!(err, RelError::InvalidSnapshot(_)), "{err:?}");
        fs::remove_dir_all(&dir).ok();
    }
}
