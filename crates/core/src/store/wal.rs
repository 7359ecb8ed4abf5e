//! Append-only write-ahead log for index mutations.
//!
//! The segment file is immutable; every `insert`/`delete` between compactions
//! is logged here *before* it is acknowledged, by the one writer
//! ([`crate::snapshot::ConcurrentIndex`]), so a crash at any byte offset
//! loses at most the mutation that never finished writing. File layout:
//!
//! ```text
//! offset 0    magic "PWAL" | version u16 | flags u16 | dim u32 | reserved u32
//! offset 16   record | record | ...
//! record  =   len u32 | crc u32 | payload (len bytes)
//! payload =   op u8 (1=insert, 2=delete)
//!             insert: expected global id u32, then dim f32 components
//!             delete: global id u32
//! ```
//!
//! All words are little-endian. `crc` covers the payload only; `len` is
//! implicitly validated by the CRC (a corrupted length either overruns the
//! file or frames bytes whose checksum cannot match).
//!
//! **Torn-tail semantics**: [`read_wal`] replays the longest valid prefix
//! and reports everything after the first invalid frame as
//! [`WalReplay::torn_bytes`] — a torn tail is an expected crash artifact,
//! not corruption, and is never an error. Only the *header* failing
//! validation is [`StoreError::Corrupt`]. Reading never modifies the file;
//! [`crate::store::DurableIndex::open`] calls [`truncate_tail`] to repair
//! the file on disk before appending to it again.

use super::{corrupt, StoreError};
use crate::index::PathWeaverIndex;
use pathweaver_util::crc32;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: [u8; 4] = *b"PWAL";
const VERSION: u16 = 1;
/// Fixed header length; records start here.
pub const WAL_HEADER_LEN: u64 = 16;
/// Frame prefix: `len u32 | crc u32`.
const FRAME_LEN: usize = 8;

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;

/// One decoded mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Insert `vector`; replaying it must allocate `expected_id`.
    Insert {
        /// Global id the original insert returned.
        expected_id: u32,
        /// The inserted vector.
        vector: Vec<f32>,
    },
    /// Tombstone `global_id`.
    Delete {
        /// The deleted global id.
        global_id: u32,
    },
}

/// A decoded record and where its frame starts in the file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Byte offset of the record's frame header.
    pub offset: u64,
    /// The mutation.
    pub op: WalOp,
}

/// The result of scanning a WAL: its longest valid prefix.
#[derive(Debug)]
pub struct WalReplay {
    /// Valid records, in append order.
    pub records: Vec<WalRecord>,
    /// Vector dimensionality the log was created for.
    pub dim: usize,
    /// File length of the valid prefix (header + whole valid records).
    pub valid_len: u64,
    /// Bytes past `valid_len` — a torn tail from an interrupted append.
    pub torn_bytes: u64,
}

/// Appends mutation records, each flushed and fsynced before the mutation
/// is acknowledged.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    dim: usize,
}

impl WalWriter {
    /// Creates (truncating) a fresh log for `dim`-dimensional vectors.
    ///
    /// # Errors
    ///
    /// IO failures.
    pub fn create(path: impl AsRef<Path>, dim: usize) -> Result<Self, StoreError> {
        let mut file = File::create(path)?;
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        header[..4].copy_from_slice(&MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        // Bytes 6..8 are flags, 12..16 reserved — zero for version 1.
        header[8..12].copy_from_slice(&(dim as u32).to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(Self { file, dim })
    }

    /// Opens an existing log for appending. The header is validated; the
    /// body is not scanned — run [`read_wal`] first and [`truncate_tail`]
    /// any torn tail, or new appends land after garbage and are lost.
    ///
    /// # Errors
    ///
    /// IO failures, or [`StoreError::Corrupt`] for a damaged header.
    pub fn open_append(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let dim = read_header(&std::fs::read(path)?)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Self { file, dim })
    }

    /// Vector dimensionality the log was created for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Logs an insert. Durable (fsynced) when this returns.
    ///
    /// # Errors
    ///
    /// IO failures.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the log's dimensionality.
    pub fn append_insert(&mut self, expected_id: u32, vector: &[f32]) -> Result<(), StoreError> {
        assert_eq!(vector.len(), self.dim, "dimensionality mismatch");
        let mut payload = Vec::with_capacity(5 + vector.len() * 4);
        payload.push(OP_INSERT);
        payload.extend_from_slice(&expected_id.to_le_bytes());
        for &x in vector {
            payload.extend_from_slice(&x.to_le_bytes());
        }
        self.append(&payload)
    }

    /// Logs a delete. Durable (fsynced) when this returns.
    ///
    /// # Errors
    ///
    /// IO failures.
    pub fn append_delete(&mut self, global_id: u32) -> Result<(), StoreError> {
        let mut payload = Vec::with_capacity(5);
        payload.push(OP_DELETE);
        payload.extend_from_slice(&global_id.to_le_bytes());
        self.append(&payload)
    }

    fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        if pathweaver_obs::enabled() {
            pathweaver_obs::registry().counter("store.wal_appends").inc();
        }
        Ok(())
    }
}

fn read_header(raw: &[u8]) -> Result<usize, StoreError> {
    if raw.len() < WAL_HEADER_LEN as usize {
        return Err(corrupt(0, format!("wal shorter than its {WAL_HEADER_LEN}-byte header")));
    }
    if raw[..4] != MAGIC {
        return Err(corrupt(0, "bad wal magic"));
    }
    let version = u16::from_le_bytes([raw[4], raw[5]]);
    if version != VERSION {
        return Err(corrupt(4, format!("unsupported wal version {version}")));
    }
    let dim = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]) as usize;
    if dim == 0 {
        return Err(corrupt(8, "wal header declares dim 0"));
    }
    Ok(dim)
}

/// Decodes one payload; `None` means structurally invalid (treated as torn
/// by the caller, since a crash can tear a frame at any byte).
fn decode_payload(payload: &[u8], dim: usize) -> Option<WalOp> {
    let (&op, body) = payload.split_first()?;
    match op {
        OP_INSERT => {
            if body.len() != 4 + dim * 4 {
                return None;
            }
            let expected_id = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
            let vector = body[4..]
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            Some(WalOp::Insert { expected_id, vector })
        }
        OP_DELETE => {
            if body.len() != 4 {
                return None;
            }
            Some(WalOp::Delete {
                global_id: u32::from_le_bytes([body[0], body[1], body[2], body[3]]),
            })
        }
        _ => None,
    }
}

/// Scans a WAL and returns its longest valid prefix. Read-only: torn tails
/// are reported, not repaired.
///
/// # Errors
///
/// IO failures, or [`StoreError::Corrupt`] for a damaged *header* (body
/// damage is by construction a torn tail, never an error).
pub fn read_wal(path: impl AsRef<Path>) -> Result<WalReplay, StoreError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    let dim = read_header(&raw)?;
    let mut records = Vec::new();
    let mut at = WAL_HEADER_LEN as usize;
    while let Some(frame) = raw.get(at..at + FRAME_LEN) {
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        let want_crc = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        let Some(payload) = raw.get(at + FRAME_LEN..at + FRAME_LEN + len) else { break };
        if crc32(payload) != want_crc {
            break;
        }
        let Some(op) = decode_payload(payload, dim) else { break };
        records.push(WalRecord { offset: at as u64, op });
        at += FRAME_LEN + len;
    }
    Ok(WalReplay { records, dim, valid_len: at as u64, torn_bytes: (raw.len() - at) as u64 })
}

/// Truncates a torn tail off the log, leaving exactly the valid prefix that
/// [`read_wal`] reported as `valid_len`.
///
/// # Errors
///
/// IO failures.
pub fn truncate_tail(path: impl AsRef<Path>, valid_len: u64) -> Result<(), StoreError> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_len)?;
    file.sync_all()?;
    Ok(())
}

/// Replays decoded records onto a freshly loaded index, in order.
///
/// Replay is idempotent: global ids are allocated monotonically and never
/// rewound, so an insert whose `expected_id` is below the index's id
/// high-water mark was already folded into the segment (a crash between
/// [`crate::snapshot::ConcurrentIndex::compact`]'s segment rename and its WAL
/// reset leaves exactly such records) and is skipped; deletes re-tombstone
/// harmlessly.
///
/// # Errors
///
/// [`StoreError::Corrupt`] when a replayed insert allocates a different id
/// than the log recorded, or a record's dimensionality disagrees with the
/// index — both mean the WAL does not belong to this segment.
pub fn apply_records(index: &mut PathWeaverIndex, records: &[WalRecord]) -> Result<(), StoreError> {
    for rec in records {
        match &rec.op {
            WalOp::Insert { expected_id, vector } => {
                if vector.len() != index.dim() {
                    return Err(corrupt(
                        rec.offset,
                        format!(
                            "wal insert has dim {} but the segment has dim {}",
                            vector.len(),
                            index.dim()
                        ),
                    ));
                }
                if (*expected_id as usize) < index.num_vectors {
                    continue; // Already folded into the segment by a compact.
                }
                let (got, _) = crate::snapshot::insert_into_smallest(index, vector);
                if got != *expected_id {
                    return Err(corrupt(
                        rec.offset,
                        format!("replayed insert allocated id {got}, log expected {expected_id}"),
                    ));
                }
            }
            // Deletes are idempotent; a tombstone already present in the
            // segment (logged before a compact) is not an error.
            WalOp::Delete { global_id } => {
                let _ = crate::snapshot::tombstone(index, *global_id);
            }
        }
    }
    if pathweaver_obs::enabled() && !records.is_empty() {
        pathweaver_obs::registry().counter("store.replay_records").add(records.len() as u64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::testutil::TempDir;
    use super::*;

    fn sample_log(dir: &TempDir) -> std::path::PathBuf {
        let path = dir.join("wal.pwal");
        let mut w = WalWriter::create(&path, 3).unwrap();
        w.append_insert(7, &[1.0, 2.0, 3.0]).unwrap();
        w.append_delete(2).unwrap();
        w.append_insert(8, &[4.0, 5.0, 6.0]).unwrap();
        path
    }

    #[test]
    fn roundtrip_preserves_records() {
        let dir = TempDir::new("wal-roundtrip");
        let replay = read_wal(sample_log(&dir)).unwrap();
        assert_eq!(replay.dim, 3);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(
            replay.records[0].op,
            WalOp::Insert { expected_id: 7, vector: vec![1.0, 2.0, 3.0] }
        );
        assert_eq!(replay.records[1].op, WalOp::Delete { global_id: 2 });
        assert_eq!(replay.records[0].offset, WAL_HEADER_LEN);
    }

    #[test]
    fn truncation_drops_only_the_torn_tail() {
        let dir = TempDir::new("wal-torn");
        let path = sample_log(&dir);
        let full = std::fs::read(&path).unwrap();
        // Tear the log at every byte boundary inside the last record.
        let second_end = read_wal(&path).unwrap().records[2].offset as usize;
        for cut in second_end + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = read_wal(&path).unwrap();
            assert_eq!(replay.records.len(), 2, "cut at {cut}");
            assert_eq!(replay.valid_len, second_end as u64);
            assert_eq!(replay.torn_bytes, (cut - second_end) as u64);
        }
    }

    #[test]
    fn bitflip_truncates_from_damaged_record() {
        let dir = TempDir::new("wal-flip");
        let path = sample_log(&dir);
        let full = std::fs::read(&path).unwrap();
        let second = read_wal(&path).unwrap().records[1].offset as usize;
        // Flip one bit in every byte of the middle record's frame+payload.
        let third = read_wal(&path).unwrap().records[2].offset as usize;
        for i in second..third {
            let mut damaged = full.clone();
            damaged[i] ^= 0x10;
            std::fs::write(&path, &damaged).unwrap();
            let replay = read_wal(&path).unwrap();
            // The first record always survives; the damaged one never does.
            // (A flipped length can occasionally keep a valid-CRC frame from
            // being found at all, but never yields a *wrong* record.)
            assert_eq!(replay.records.len(), 1, "flip at {i}");
            assert_eq!(replay.valid_len, second as u64);
        }
    }

    #[test]
    fn header_damage_is_corrupt_not_torn() {
        let dir = TempDir::new("wal-header");
        let path = sample_log(&dir);
        let mut raw = std::fs::read(&path).unwrap();
        raw[0] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(read_wal(&path), Err(StoreError::Corrupt { offset: 0, .. })));
    }

    #[test]
    fn truncate_tail_then_append_continues_cleanly() {
        let dir = TempDir::new("wal-repair");
        let path = sample_log(&dir);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.records.len(), 2);
        truncate_tail(&path, replay.valid_len).unwrap();
        let mut w = WalWriter::open_append(&path).unwrap();
        w.append_delete(9).unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[2].op, WalOp::Delete { global_id: 9 });
    }

    #[test]
    fn empty_log_replays_nothing() {
        let dir = TempDir::new("wal-empty");
        let path = dir.join("wal.pwal");
        WalWriter::create(&path, 5).unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.valid_len, WAL_HEADER_LEN);
        assert_eq!(replay.torn_bytes, 0);
    }
}
