//! Durable index persistence.
//!
//! A store directory holds one immutable, versioned, CRC-checksummed
//! [`segment`] file with every shard structure in its exact in-memory
//! layout, plus an append-only [`wal`] that logs `insert`/`delete`
//! mutations and replays them on open:
//!
//! ```text
//! index-dir/
//!   segment.pwseg            immutable checksummed segment (all shards)
//!   wal.pwal                 append-only mutation log
//! ```
//!
//! [`save_index`] writes a fresh segment and an empty WAL. [`load_index`]
//! and [`DurableIndex::open`] recover a store through one routine: read the
//! segment, read the WAL, check that the log belongs to this index, replay
//! it. The only writer of a store is
//! [`ConcurrentIndex::durable`](crate::snapshot::ConcurrentIndex::durable):
//! it appends to the WAL before publishing each mutation and folds the log
//! back into a fresh segment on maintenance and
//! [`compact`](crate::snapshot::ConcurrentIndex::compact).

pub mod segment;
pub mod wal;

use crate::index::PathWeaverIndex;
use std::path::{Path, PathBuf};

/// File name of the segment inside a store directory.
pub const SEGMENT_FILE: &str = "segment.pwseg";
/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.pwal";

/// Errors raised while saving or loading an index.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// A segment or WAL failed its checksum / framing / structural
    /// validation. `offset` is the byte offset of the rejected region in
    /// the file named by `detail`.
    Corrupt {
        /// Byte offset of the first rejected byte range.
        offset: u64,
        /// What failed and where.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Corrupt { offset, detail } => {
                write!(f, "corrupt store at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

pub(crate) fn corrupt(offset: u64, detail: impl std::fmt::Display) -> StoreError {
    StoreError::Corrupt { offset, detail: detail.to_string() }
}

/// Saves `index` under `dir` (created if missing) in the segment format,
/// with a fresh (empty) WAL beside it.
///
/// # Errors
///
/// IO failures. The segment is written to a temporary file and renamed into
/// place, so an existing store is never left half-overwritten.
pub fn save_index(index: &PathWeaverIndex, dir: impl AsRef<Path>) -> Result<(), StoreError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    segment::write_segment(index, dir.join(SEGMENT_FILE))?;
    wal::WalWriter::create(dir.join(WAL_FILE), index.dim())?;
    Ok(())
}

/// Loads an index saved by [`save_index`] and replays any WAL records onto
/// it. This is a read-only open (the WAL file itself is not truncated —
/// open the store through [`DurableIndex::open`] to also repair torn tails
/// on disk). A directory without a WAL loads the segment alone.
///
/// # Errors
///
/// IO failures ([`StoreError::Io`] with `NotFound` when `dir` holds no
/// segment), or [`StoreError::Corrupt`] on checksum/framing/structural
/// violations, including a WAL written for another index.
pub fn load_index(dir: impl AsRef<Path>) -> Result<PathWeaverIndex, StoreError> {
    recover(dir.as_ref()).map(|(index, _)| index)
}

/// The recovery routine behind [`load_index`] and [`DurableIndex::open`]:
/// reads the segment, scans the WAL when there is one, checks that the log
/// was written for the segment's dimensionality, and replays its valid
/// prefix. Returns the recovered index and the WAL scan.
fn recover(dir: &Path) -> Result<(PathWeaverIndex, Option<wal::WalReplay>), StoreError> {
    let mut index = segment::read_segment(dir.join(SEGMENT_FILE))?;
    let wal_path = dir.join(WAL_FILE);
    if !wal_path.exists() {
        return Ok((index, None));
    }
    let replay = wal::read_wal(&wal_path)?;
    if replay.dim != index.dim() {
        // Byte 8 of the WAL header holds its dimensionality.
        return Err(corrupt(
            8,
            format!("wal dim {} disagrees with segment dim {}", replay.dim, index.dim()),
        ));
    }
    wal::apply_records(&mut index, &replay.records)?;
    Ok((index, Some(replay)))
}

/// A store directory recovered for durable mutation: the index as of the
/// last durable WAL record, a WAL writer positioned after that record, and
/// the directory.
///
/// It only creates or recovers a store. Mutations, publication and folds
/// all run through the one writer,
/// [`ConcurrentIndex::durable`](crate::snapshot::ConcurrentIndex::durable),
/// which takes the handle over.
#[derive(Debug)]
pub struct DurableIndex {
    index: PathWeaverIndex,
    wal: wal::WalWriter,
    dir: PathBuf,
}

impl DurableIndex {
    /// Persists a freshly built `index` under `dir` (segment + empty WAL)
    /// and returns the durable handle. An existing store at `dir` is
    /// replaced.
    ///
    /// # Errors
    ///
    /// IO failures.
    pub fn create(index: PathWeaverIndex, dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        save_index(&index, &dir)?;
        let wal = wal::WalWriter::open_append(dir.join(WAL_FILE))?;
        Ok(Self { index, wal, dir })
    }

    /// Opens the store at `dir`: recovers the index like [`load_index`],
    /// then **repairs** any torn WAL tail on disk (truncates it away) so
    /// appends continue from the last durable record.
    ///
    /// # Errors
    ///
    /// IO failures ([`StoreError::Io`] with `NotFound` when `dir` holds no
    /// segment or no WAL; nothing is created then), or
    /// [`StoreError::Corrupt`] as for [`load_index`]. On error the
    /// directory is left untouched.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let (index, replay) = recover(&dir)?;
        let wal_path = dir.join(WAL_FILE);
        let replay = replay.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no write-ahead log at {}", wal_path.display()),
            )
        })?;
        if replay.torn_bytes > 0 {
            wal::truncate_tail(&wal_path, replay.valid_len)?;
        }
        let wal = wal::WalWriter::open_append(&wal_path)?;
        Ok(Self { index, wal, dir })
    }

    /// The store directory this handle is bound to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The recovered index, the open WAL writer, and the directory, for the
    /// writer that takes the store over.
    pub(crate) fn into_parts(self) -> (PathWeaverIndex, wal::WalWriter, PathBuf) {
        (self.index, self.wal, self.dir)
    }
}

/// A checksum audit of one store directory (see [`verify_store`]).
#[derive(Debug)]
pub struct StoreReport {
    /// Number of checksummed segment sections verified.
    pub sections: usize,
    /// Total segment bytes verified.
    pub segment_bytes: u64,
    /// Valid WAL records found.
    pub wal_records: usize,
    /// Bytes of torn / unreplayable WAL tail (0 for a clean log).
    pub wal_torn_bytes: u64,
}

/// Checksum-audits a store without materializing the index: verifies the
/// segment header, table of contents and every section CRC, then scans the
/// WAL and reports any torn tail.
///
/// # Errors
///
/// IO failures ([`StoreError::Io`] with `NotFound` when `dir` holds no
/// segment), or [`StoreError::Corrupt`] (segment or WAL header damage).
pub fn verify_store(dir: impl AsRef<Path>) -> Result<StoreReport, StoreError> {
    let dir = dir.as_ref();
    let audit = segment::verify_segment(dir.join(SEGMENT_FILE))?;
    let wal_path = dir.join(WAL_FILE);
    let (wal_records, wal_torn_bytes) = if wal_path.exists() {
        let replay = wal::read_wal(&wal_path)?;
        (replay.records.len(), replay.torn_bytes)
    } else {
        (0, 0)
    };
    Ok(StoreReport {
        sections: audit.sections,
        segment_bytes: audit.bytes,
        wal_records,
        wal_torn_bytes,
    })
}

#[cfg(test)]
pub(crate) mod testutil {
    /// RAII temp directory for store tests: removed on drop, including on
    /// assertion failure (panics unwind through the guard).
    pub struct TempDir(pub std::path::PathBuf);

    impl TempDir {
        pub fn new(tag: &str) -> Self {
            let d = std::env::temp_dir().join(format!(
                "pw-store-{tag}-{}-{:x}",
                std::process::id(),
                pathweaver_util::seed_from_parts(0xD1F, tag, 0)
            ));
            // A stale run's leftovers must not leak into this one.
            let _ = std::fs::remove_dir_all(&d);
            std::fs::create_dir_all(&d).unwrap();
            Self(d)
        }

        pub fn path(&self) -> &std::path::Path {
            &self.0
        }

        pub fn join(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::TempDir;
    use super::*;
    use crate::config::PathWeaverConfig;
    use crate::snapshot::{ConcurrentIndex, DeleteOutcome};
    use pathweaver_datasets::{recall_batch, DatasetProfile, Scale};
    use pathweaver_search::SearchParams;

    #[test]
    fn roundtrip_preserves_search_results() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 10, 71);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let dir = TempDir::new("roundtrip");
        save_index(&idx, dir.path()).unwrap();
        let loaded = load_index(dir.path()).unwrap();
        assert_eq!(loaded.num_devices(), 2);
        assert_eq!(loaded.dim(), idx.dim());
        assert_eq!(loaded.num_vectors, idx.num_vectors);
        let params = SearchParams::default();
        let a = idx.search_pipelined(&w.queries, &params);
        let b = loaded.search_pipelined(&w.queries, &params);
        assert_eq!(a.results, b.results, "loaded index must search identically");
        let recall = recall_batch(&w.ground_truth, &b.results, 10);
        assert!(recall > 0.8);
    }

    #[test]
    fn quantized_tier_survives_roundtrip_bitwise() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 10, 77);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let dir = TempDir::new("roundtrip-quantized");
        save_index(&idx, dir.path()).unwrap();
        let loaded = load_index(dir.path()).unwrap();
        assert!(loaded.config.build_quantized, "meta round-trips the tier toggle");
        for (a, b) in idx.shards.iter().zip(&loaded.shards) {
            assert_eq!(a.quantized, b.quantized, "codes and grid must reopen bitwise");
        }
        let params = SearchParams { quantized: true, ..SearchParams::default() };
        let before = idx.search_pipelined(&w.queries, &params);
        let after = loaded.search_pipelined(&w.queries, &params);
        assert_eq!(before.results, after.results, "quantized search must reopen identically");
    }

    #[test]
    fn tombstones_survive_roundtrip() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 4, 5, 72);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let victim = idx.shards[0].global_ids[3];
        let dir = TempDir::new("tombstone");
        let ci = ConcurrentIndex::durable(DurableIndex::create(idx, dir.path()).unwrap());
        assert_eq!(ci.delete_outcome(victim).unwrap(), DeleteOutcome::Applied);
        // Fold the tombstone into the segment, so the reload reads it from
        // the segment's tombstone section rather than replaying the WAL.
        ci.compact().unwrap();
        assert_eq!(verify_store(dir.path()).unwrap().wal_records, 0);
        let loaded = load_index(dir.path()).unwrap();
        assert_eq!(loaded.live_vectors(), ci.pin().index().live_vectors());
        let again = ConcurrentIndex::new(loaded).delete_outcome(victim).unwrap();
        assert_eq!(again, DeleteOutcome::AlreadyDeleted);
    }

    #[test]
    fn missing_store_is_clean_error() {
        let dir = TempDir::new("missing");
        assert!(matches!(load_index(dir.path()), Err(StoreError::Io(_))));
    }

    #[test]
    fn verify_reports_clean_store() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 4, 5, 74);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let dir = TempDir::new("verify");
        save_index(&idx, dir.path()).unwrap();
        let report = verify_store(dir.path()).unwrap();
        assert!(report.sections > 0);
        assert!(report.segment_bytes > 0);
        assert_eq!(report.wal_records, 0);
        assert_eq!(report.wal_torn_bytes, 0);
    }
}
