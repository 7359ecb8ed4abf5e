//! The one writer: snapshot-isolated mutation (MVCC) with optional
//! write-ahead durability.
//!
//! [`PathWeaverIndex`]'s mutations take `&mut self`, so under the serving
//! layer a single insert would stall every in-flight search.
//! [`ConcurrentIndex`] removes that coupling with a multi-version scheme
//! built on the index's shard-granular copy-on-write spine
//! (`Vec<Arc<ShardIndex>>`), and it is the only code that mutates an index
//! someone may be reading:
//!
//! - **Readers pin, never lock.** [`ConcurrentIndex::pin`] hands out the
//!   current [`IndexSnapshot`] — an immutable point-in-time view (shards,
//!   tombstone bitmaps, assignment) behind an `Arc`. A search batch pins
//!   once and reads the same snapshot for its whole lifetime; no torn
//!   tombstone words, no half-published delta, ever. A static index is the
//!   degenerate case: version 0, never republished.
//! - **Writers serialize and publish atomically.** Mutations run against a
//!   private writer master under a mutex. The first write after a publish
//!   copies only the shard it lands on (`Arc::make_mut`); untouched shards
//!   stay shared with every pinned snapshot. Publication swaps one Arc.
//! - **WAL-before-publish.** A durable index ([`ConcurrentIndex::durable`])
//!   carries the store's WAL as a sink: the append (fsynced) strictly
//!   precedes both the master mutation and the publish, so no reader can
//!   ever observe state the log does not already contain, and recovery
//!   ([`DurableIndex::open`]) reconstructs the latest published snapshot.
//! - **One fold.** [`ConcurrentIndex::compact`] and every maintenance pass
//!   that installs a rebuild fold the WAL into a fresh segment under the
//!   writer lock.
//! - **Background maintenance off the hot path.**
//!   [`ConcurrentIndex::maintain`] finds heavily-deleted shards and clones
//!   their Arcs under a short lock, runs the expensive CAGRA rebuilds with
//!   the lock *released* (searches and mutations proceed), then re-locks,
//!   installs each rebuild whose shard is epoch-unchanged (a raced shard is
//!   simply retried next pass), folds the WAL into the segment, and
//!   publishes. [`ConcurrentIndex::spawn_maintainer`] runs this on a timer
//!   thread.

use crate::dynamic::{self, DeleteOutcome, MaintainError};
use crate::index::{PathWeaverIndex, ShardIndex};
use crate::store::{self, wal, DurableIndex, StoreError};
use parking_lot::{Condvar, Mutex, RwLock};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An immutable point-in-time view of the index.
///
/// Everything a search touches — shard vectors, graphs, auxiliaries,
/// tombstone bitmaps, the assignment — is frozen at the version this
/// snapshot was published. Snapshots are cheap: the contained index shares
/// its shards (`Arc` per shard) with the writer master and with every other
/// snapshot that has not diverged from it.
#[derive(Debug, Clone)]
pub struct IndexSnapshot {
    index: Arc<PathWeaverIndex>,
    version: u64,
}

impl IndexSnapshot {
    /// The frozen index. Searching through this reference is always
    /// consistent, regardless of concurrent mutation.
    pub fn index(&self) -> &Arc<PathWeaverIndex> {
        &self.index
    }

    /// Monotonic publication version (0 = the initially loaded state).
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Errors surfaced by [`ConcurrentIndex`] mutations.
#[derive(Debug)]
pub enum ConcurrentError {
    /// WAL/segment IO failed (durable indices only).
    Store(StoreError),
    /// Invalid maintenance parameters.
    Maintain(MaintainError),
}

impl std::fmt::Display for ConcurrentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Store(e) => write!(f, "{e}"),
            Self::Maintain(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConcurrentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            Self::Maintain(e) => Some(e),
        }
    }
}

impl From<StoreError> for ConcurrentError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

impl From<MaintainError> for ConcurrentError {
    fn from(e: MaintainError) -> Self {
        Self::Maintain(e)
    }
}

/// The writer's private state: the master index every mutation applies to,
/// the durability hooks, and per-shard mutation epochs for the off-lock
/// maintainer's install-time validation.
struct WriterState {
    master: PathWeaverIndex,
    /// Present on durable indices; appended (fsynced) before every apply.
    wal: Option<wal::WalWriter>,
    /// Store directory for segment folds; `None` for in-memory indices.
    dir: Option<PathBuf>,
    /// Bumped whenever the corresponding shard's content changes. The
    /// maintainer records an epoch when it clones a shard for rebuild and
    /// discards the rebuild if the epoch moved before install.
    epochs: Vec<u64>,
}

/// A snapshot-isolated dynamic index: concurrent searches pin immutable
/// snapshots while mutations stream through a serialized writer, and a
/// background maintainer rebuilds heavily-deleted shards off the hot path.
///
/// ```
/// use pathweaver_core::prelude::*;
/// use pathweaver_core::snapshot::ConcurrentIndex;
///
/// let w = DatasetProfile::deep10m_like().workload(Scale::Test, 4, 5, 7);
/// let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
/// let ci = ConcurrentIndex::new(idx);
///
/// let snap = ci.pin(); // a reader's frozen view
/// let id = ci.insert(w.base.row(0)).unwrap(); // does not disturb `snap`
/// assert_eq!(snap.index().num_vectors + 1, ci.pin().index().num_vectors);
/// assert_eq!(ci.delete_outcome(id).unwrap(), DeleteOutcome::Applied);
/// ```
pub struct ConcurrentIndex {
    /// The latest published snapshot; readers clone the Arc under a read
    /// lock held for nanoseconds, writers replace it after mutating.
    published: RwLock<Arc<IndexSnapshot>>,
    writer: Mutex<WriterState>,
    /// Mutations applied since the last fold (maintenance or compact) —
    /// the serving layer's `serve.merge_backlog` gauge.
    backlog: AtomicU64,
}

impl std::fmt::Debug for ConcurrentIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentIndex")
            .field("version", &self.latest_version())
            .finish_non_exhaustive()
    }
}

impl ConcurrentIndex {
    /// Wraps a built index for in-memory concurrent mutation (no WAL).
    pub fn new(index: PathWeaverIndex) -> Self {
        Self::from_arc(Arc::new(index), None, None)
    }

    /// Takes over a recovered store: the WAL becomes the writer's durability
    /// sink, and folds rewrite the store's segment.
    ///
    /// The crash-recovery contract: once [`insert`](Self::insert) or
    /// [`delete_outcome`](Self::delete_outcome) returns, the mutation
    /// survives any crash. Kill the process at an arbitrary WAL byte offset,
    /// [`DurableIndex::open`] the directory again, and searches return
    /// results bitwise-identical to an index that never saw the torn record
    /// (the torn tail is truncated away on open).
    pub fn durable(index: DurableIndex) -> Self {
        let (index, wal, dir) = index.into_parts();
        Self::from_arc(Arc::new(index), Some(wal), Some(dir))
    }

    /// Publishes `index` itself as version 0 — a static index is this
    /// handle with no writes — and seeds the writer master from it. The
    /// master clone copies the shard spine, never vector or graph payloads.
    pub(crate) fn from_arc(
        index: Arc<PathWeaverIndex>,
        wal: Option<wal::WalWriter>,
        dir: Option<PathBuf>,
    ) -> Self {
        let master = PathWeaverIndex::clone(&index);
        let epochs = vec![0; master.num_devices()];
        Self {
            published: RwLock::new(Arc::new(IndexSnapshot { index, version: 0 })),
            writer: Mutex::new(WriterState { master, wal, dir, epochs }),
            backlog: AtomicU64::new(0),
        }
    }

    /// Pins the latest published snapshot. Never blocks on writers beyond
    /// the nanoseconds of the version-slot read lock; in particular it never
    /// waits for an in-flight insert, delete, or rebuild.
    pub fn pin(&self) -> Arc<IndexSnapshot> {
        Arc::clone(&self.published.read())
    }

    /// Version of the latest published snapshot.
    pub fn latest_version(&self) -> u64 {
        self.published.read().version
    }

    /// Mutations applied since the last fold (maintenance or compact).
    pub fn merge_backlog(&self) -> u64 {
        // Relaxed: monotonic stat, reset under the writer lock; nothing is
        // published through it.
        self.backlog.load(Ordering::Relaxed)
    }

    /// Inserts a vector and publishes the new snapshot, returning the new
    /// global id. Concurrent readers keep their pinned snapshots; the next
    /// [`pin`](Self::pin) sees the insert.
    ///
    /// # Errors
    ///
    /// [`ConcurrentError::Store`] when the WAL append fails (durable
    /// indices); nothing is applied or published on error.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the index dimensionality.
    pub fn insert(&self, vector: &[f32]) -> Result<u32, ConcurrentError> {
        let mut st = self.writer.lock();
        let expected = st.master.num_vectors as u32;
        if let Some(w) = st.wal.as_mut() {
            // WAL-before-publish: the record is durable before any reader
            // can observe the state that contains it.
            w.append_insert(expected, vector).map_err(ConcurrentError::Store)?;
        }
        let target = st.master.assignment.smallest_shard();
        let id = st.master.insert(vector);
        debug_assert_eq!(id, expected);
        st.epochs[target] += 1;
        // Relaxed: monotonic stat, reset under the writer lock (held here);
        // nothing is published through it.
        self.backlog.fetch_add(1, Ordering::Relaxed);
        self.publish(&st);
        if pathweaver_obs::enabled() {
            let r = pathweaver_obs::registry();
            r.counter("dyn.delta_inserts").inc();
            r.gauge("serve.merge_backlog").set(self.merge_backlog() as f64);
        }
        Ok(id)
    }

    /// Logically deletes a global id, reporting the [`DeleteOutcome`], and
    /// publishes the new snapshot when the tombstone landed. No-op outcomes
    /// (unknown id, double delete) publish nothing — the state did not
    /// change — but are still WAL-logged; replaying them is idempotent.
    ///
    /// # Errors
    ///
    /// [`ConcurrentError::Store`] when the WAL append fails.
    pub fn delete_outcome(&self, global_id: u32) -> Result<DeleteOutcome, ConcurrentError> {
        let mut st = self.writer.lock();
        if let Some(w) = st.wal.as_mut() {
            w.append_delete(global_id).map_err(ConcurrentError::Store)?;
        }
        let hit =
            st.master.shards.iter().position(|sh| sh.global_ids.binary_search(&global_id).is_ok());
        let outcome = st.master.delete_outcome(global_id);
        if outcome.applied() {
            if let Some(s) = hit {
                st.epochs[s] += 1;
            }
            // Relaxed: monotonic stat, reset under the writer lock (held
            // here); nothing is published through it.
            self.backlog.fetch_add(1, Ordering::Relaxed);
            self.publish(&st);
            if pathweaver_obs::enabled() {
                let r = pathweaver_obs::registry();
                r.counter("dyn.delta_deletes").inc();
                r.gauge("serve.merge_backlog").set(self.merge_backlog() as f64);
            }
        }
        Ok(outcome)
    }

    /// Rebuilds every shard whose tombstone fraction reaches
    /// `rebuild_threshold`, with the expensive graph builds running
    /// **outside** the writer lock: searches pin snapshots and mutations
    /// stream throughout. A shard mutated between the off-lock rebuild and
    /// the install is detected by its epoch and skipped (retried on the
    /// next pass). On durable indices an install folds the WAL into the
    /// segment in the same critical section — a rebuild changes shard
    /// sizes, and replaying the old log against the new shape would send
    /// replayed inserts to different shards. Returns the number of shards
    /// whose rebuilds were installed.
    ///
    /// # Errors
    ///
    /// [`ConcurrentError::Maintain`] for a threshold outside `(0, 1]`;
    /// [`ConcurrentError::Store`] when the durable fold fails (the in-memory
    /// install has already happened and is preserved).
    pub fn maintain(&self, rebuild_threshold: f64) -> Result<usize, ConcurrentError> {
        if !(rebuild_threshold > 0.0 && rebuild_threshold <= 1.0) {
            return Err(MaintainError::InvalidThreshold { got: rebuild_threshold }.into());
        }
        // Phase 1 — short lock: pick candidates, pin their inputs.
        let (candidates, config) = {
            let st = self.writer.lock();
            let picks: Vec<(usize, Arc<ShardIndex>, u64)> = st
                .master
                .shards
                .iter()
                .enumerate()
                .filter(|(_, sh)| dynamic::shard_needs_rebuild(sh, rebuild_threshold))
                .map(|(s, sh)| (s, Arc::clone(sh), st.epochs[s]))
                .collect();
            (picks, st.master.config.clone())
        };
        if candidates.is_empty() {
            return Ok(0);
        }

        // Phase 2 — no lock: the CAGRA rebuilds, the expensive part.
        let built: Vec<(usize, u64, ShardIndex)> = candidates
            .into_iter()
            .map(|(s, sh, epoch)| (s, epoch, dynamic::rebuild_shard(&sh, &config, s)))
            .collect();

        // Phase 3 — lock: validate epochs, install, fold, publish.
        let mut st = self.writer.lock();
        let mut installed = 0;
        for (s, epoch, shard) in built {
            if st.epochs[s] != epoch {
                // The shard changed under the rebuild; its replacement was
                // computed from stale survivors. Drop it — the tombstones
                // are still there, the next pass rebuilds from fresh state.
                continue;
            }
            st.master.install_rebuilt(s, Arc::new(shard));
            st.epochs[s] += 1;
            let n = st.master.shards.len();
            if n > 1 {
                // `install_rebuilt` also replaced the predecessor's
                // inter-shard table.
                st.epochs[(s + n - 1) % n] += 1;
            }
            installed += 1;
        }
        if installed > 0 {
            self.fold_locked(&mut st)?;
            self.publish(&st);
            if pathweaver_obs::enabled() {
                pathweaver_obs::registry().counter("dyn.rebuilds").add(installed as u64);
            }
        }
        Ok(installed)
    }

    /// Starts a background thread that runs [`maintain`](Self::maintain)
    /// every `interval_ms` until the returned handle is stopped or dropped.
    /// Fold IO errors are counted (`dyn.maintain_errors`) and the loop keeps
    /// going — a transient disk error must not silently end maintenance.
    ///
    /// # Errors
    ///
    /// [`ConcurrentError::Maintain`] for a threshold outside `(0, 1]`
    /// (validated up front so the background loop cannot fail on it);
    /// [`ConcurrentError::Store`] when the OS refuses the thread.
    pub fn spawn_maintainer(
        self: &Arc<Self>,
        rebuild_threshold: f64,
        interval_ms: f64,
    ) -> Result<MaintainerHandle, ConcurrentError> {
        if !(rebuild_threshold > 0.0 && rebuild_threshold <= 1.0) {
            return Err(MaintainError::InvalidThreshold { got: rebuild_threshold }.into());
        }
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let index = Arc::clone(self);
        let thread_stop = Arc::clone(&stop);
        let wait = std::time::Duration::from_micros((interval_ms * 1000.0).max(100.0) as u64);
        let thread = std::thread::Builder::new()
            .name("pathweaver-maintainer".into())
            .spawn(move || loop {
                {
                    let (flag, cv) = &*thread_stop;
                    let mut stopped = flag.lock();
                    if !*stopped {
                        let _ = cv.wait_for(&mut stopped, wait);
                    }
                    if *stopped {
                        return;
                    }
                }
                if index.maintain(rebuild_threshold).is_err() && pathweaver_obs::enabled() {
                    pathweaver_obs::registry().counter("dyn.maintain_errors").inc();
                }
            })
            .map_err(|e| ConcurrentError::Store(StoreError::Io(e)))?;
        Ok(MaintainerHandle { stop, thread: Some(thread) })
    }

    fn publish(&self, st: &WriterState) {
        // The master's shards are Arcs, so this clone copies the spine and
        // the assignment, never vector/graph payloads.
        let index = Arc::new(st.master.clone());
        let mut slot = self.published.write();
        *slot = Arc::new(IndexSnapshot { index, version: slot.version + 1 });
    }

    /// Folds the WAL into a fresh segment and resets the log (durable
    /// indices; a no-op in memory). The published state does not change, so
    /// nothing is republished; the merge backlog drops to zero.
    ///
    /// The segment is replaced atomically (temp file + rename). A crash
    /// between the rename and the WAL reset is benign, because replay skips
    /// inserts the segment already holds and deletes are idempotent (see
    /// [`wal::apply_records`]).
    ///
    /// # Errors
    ///
    /// IO failures; the in-memory index is unaffected.
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut st = self.writer.lock();
        self.fold_locked(&mut st)
    }

    /// The one fold: writes the master to a fresh segment, resets the WAL
    /// and the merge backlog. Runs under the writer lock, so no mutation
    /// can land between the segment write and the log reset.
    fn fold_locked(&self, st: &mut WriterState) -> Result<(), StoreError> {
        if let Some(dir) = st.dir.clone() {
            store::segment::write_segment(&st.master, dir.join(store::SEGMENT_FILE))?;
            st.wal = Some(wal::WalWriter::create(dir.join(store::WAL_FILE), st.master.dim())?);
        }
        // Relaxed: monotonic stat, reset under the writer lock (held by the
        // caller); nothing is published through it.
        self.backlog.store(0, Ordering::Relaxed);
        if pathweaver_obs::enabled() {
            let r = pathweaver_obs::registry();
            r.counter("dyn.delta_folds").inc();
            r.gauge("serve.merge_backlog").set(0.0);
        }
        Ok(())
    }
}

/// Owns the background maintainer thread; stopping (or dropping) the handle
/// wakes and joins it.
#[derive(Debug)]
pub struct MaintainerHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MaintainerHandle {
    /// Stops the maintainer and waits for the in-flight pass to finish.
    pub fn stop(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        {
            let (flag, cv) = &*self.stop;
            *flag.lock() = true;
            cv.notify_all();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MaintainerHandle {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PathWeaverConfig;
    use pathweaver_datasets::{DatasetProfile, Scale};
    use pathweaver_search::SearchParams;

    fn built(seed: u64) -> (pathweaver_datasets::Workload, PathWeaverIndex) {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 6, 5, seed);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        (w, idx)
    }

    #[test]
    fn pinned_snapshot_is_isolated_from_mutation() {
        let (w, idx) = built(41);
        let before_live = idx.live_vectors();
        let ci = ConcurrentIndex::new(idx);
        let snap = ci.pin();
        assert_eq!(snap.version(), 0);

        let id = ci.insert(w.base.row(0)).unwrap();
        assert_eq!(ci.delete_outcome(3).unwrap(), DeleteOutcome::Applied);

        // The pinned snapshot still sees the pre-mutation state.
        assert_eq!(snap.index().live_vectors(), before_live);
        assert_eq!(snap.index().num_vectors as u32, id);
        // A fresh pin sees both mutations and a bumped version.
        let now = ci.pin();
        assert!(now.version() > snap.version());
        assert_eq!(now.index().live_vectors(), before_live); // +1 insert −1 delete
        assert!(now.index().num_vectors as u32 > id);
    }

    #[test]
    fn snapshot_search_is_bitwise_stable_under_streaming_writes() {
        let (w, idx) = built(43);
        let params = SearchParams::default();
        let ci = ConcurrentIndex::new(idx);
        let snap = ci.pin();
        let baseline = snap.index().search_pipelined(&w.queries, &params);
        for i in 0..8 {
            let novel: Vec<f32> = w.base.row(i).iter().map(|x| x * 1.01).collect();
            ci.insert(&novel).unwrap();
            ci.delete_outcome(i as u32).unwrap();
            let again = snap.index().search_pipelined(&w.queries, &params);
            assert_eq!(baseline.results, again.results, "pinned snapshot drifted");
        }
    }

    #[test]
    fn zero_mutation_snapshot_matches_plain_index_bitwise() {
        let (w, idx) = built(47);
        let params = SearchParams::default();
        let direct = idx.search_pipelined(&w.queries, &params);
        let ci = ConcurrentIndex::new(idx);
        let snapped = ci.pin().index().search_pipelined(&w.queries, &params);
        assert_eq!(direct.results, snapped.results);
        for (a, b) in direct.hits.iter().zip(&snapped.hits) {
            assert_eq!(a.len(), b.len());
            for (&(da, ia), &(db, ib)) in a.iter().zip(b) {
                assert_eq!((da.to_bits(), ia), (db.to_bits(), ib));
            }
        }
    }

    #[test]
    fn maintain_off_lock_matches_inline_maintain() {
        let (w, idx) = built(53);
        let mut inline = idx.clone();
        let ci = ConcurrentIndex::new(idx);
        let victims: Vec<u32> = inline.shards[0]
            .global_ids
            .iter()
            .step_by(2)
            .copied()
            .take(inline.shards[0].len() * 2 / 5)
            .collect();
        for &g in &victims {
            assert_eq!(inline.delete_outcome(g), DeleteOutcome::Applied);
            assert_eq!(ci.delete_outcome(g).unwrap(), DeleteOutcome::Applied);
        }
        assert_eq!(inline.maintain(0.3).unwrap(), 1);
        assert_eq!(ci.maintain(0.3).unwrap(), 1);
        let snap = ci.pin();
        let a = inline.search_pipelined(&w.queries, &SearchParams::default());
        let b = snap.index().search_pipelined(&w.queries, &SearchParams::default());
        assert_eq!(a.results, b.results, "off-lock maintain diverged from inline maintain");
    }

    #[test]
    fn maintain_rejects_bad_threshold_as_value() {
        let (_, idx) = built(59);
        let ci = ConcurrentIndex::new(idx);
        assert!(matches!(
            ci.maintain(0.0),
            Err(ConcurrentError::Maintain(MaintainError::InvalidThreshold { .. }))
        ));
        assert!(matches!(ci.maintain(1.5), Err(ConcurrentError::Maintain(_))));
        let arc = Arc::new(ci);
        assert!(arc.spawn_maintainer(-1.0, 5.0).is_err());
    }

    #[test]
    fn backlog_tracks_unfolded_mutations() {
        let (w, idx) = built(61);
        let ci = ConcurrentIndex::new(idx);
        assert_eq!(ci.merge_backlog(), 0);
        ci.insert(w.base.row(0)).unwrap();
        ci.delete_outcome(0).unwrap();
        assert_eq!(ci.merge_backlog(), 2);
        // Double delete is a no-op and does not inflate the backlog.
        assert_eq!(ci.delete_outcome(0).unwrap(), DeleteOutcome::AlreadyDeleted);
        assert_eq!(ci.merge_backlog(), 2);
    }

    #[test]
    fn delete_outcome_distinguishes_unknown_from_double_delete() {
        let (_, idx) = built(67);
        let ci = ConcurrentIndex::new(idx);
        assert_eq!(ci.delete_outcome(999_999).unwrap(), DeleteOutcome::Unknown);
        assert_eq!(ci.delete_outcome(5).unwrap(), DeleteOutcome::Applied);
        assert_eq!(ci.delete_outcome(5).unwrap(), DeleteOutcome::AlreadyDeleted);
    }

    #[test]
    fn background_maintainer_folds_heavy_deletions() {
        let (w, idx) = built(71);
        let shard0_ids: Vec<u32> = idx.shards[0].global_ids.clone();
        let ci = Arc::new(ConcurrentIndex::new(idx));
        let handle = ci.spawn_maintainer(0.3, 2.0).unwrap();
        for &g in shard0_ids.iter().step_by(2).take(shard0_ids.len() * 2 / 5) {
            assert_eq!(ci.delete_outcome(g).unwrap(), DeleteOutcome::Applied);
        }
        // Wait (bounded) for the maintainer to fold the tombstones away.
        let mut folded = false;
        for _ in 0..500 {
            let snap = ci.pin();
            if snap.index().shards[0].deleted.count() == 0 {
                folded = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        handle.stop();
        assert!(folded, "maintainer never rebuilt the heavily-deleted shard");
        let out = ci.pin().index().search_pipelined(&w.queries, &SearchParams::default());
        assert_eq!(out.results.len(), w.queries.len());
    }
}
