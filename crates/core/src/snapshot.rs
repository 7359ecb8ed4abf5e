//! The one writer: the paper's update model (§6.2), applied with
//! snapshot-isolated mutation (MVCC) and optional write-ahead durability.
//!
//! Insertions go to the smallest shard, deletions are tombstones, and a
//! heavily-deleted shard is rebuilt from its survivors. Those shard-level
//! mutations are crate-private functions here; [`ConcurrentIndex`] is their
//! only public door (WAL replay is the one other caller), so
//! [`PathWeaverIndex`] itself is read-only. The writer never blocks a
//! search: it runs a multi-version scheme built on the index's
//! copy-on-write spine (`Vec<Arc<ShardIndex>>`), where each shard is a
//! shared payload ([`ShardData`] behind one `Arc`: vectors, graph,
//! direction and int8 codes, ghost) plus the small state every version
//! owns (tombstones and the outgoing `I(u)` table):
//!
//! - **Readers pin, never lock.** [`ConcurrentIndex::pin`] hands out the
//!   current [`IndexSnapshot`] — an immutable point-in-time view (shards
//!   and their tombstone bitmaps) behind an `Arc`. A search batch pins
//!   once and reads the same snapshot for its whole lifetime; no torn
//!   tombstone words, no half-published delta, ever. A static index is the
//!   degenerate case: version 0, never republished.
//! - **Writers serialize, copy what they change, and publish atomically.**
//!   Mutations run against a private writer master under a mutex. The
//!   first write after a publish copies only the shard it lands on
//!   (`Arc::make_mut`), and that copy is shallow: a refcount, the
//!   tombstones and `I(u)`. A delete or a rebuild's `I(u)` swap stops
//!   there; an insert also copies the one payload it grows, once, with
//!   room for the new row. Untouched shards and payloads stay shared with
//!   every pinned snapshot. Publication swaps one Arc.
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

use crate::config::PathWeaverConfig;
use crate::index::{PathWeaverIndex, ShardData, ShardIndex};
use crate::store::{self, wal, DurableIndex, StoreError};
use parking_lot::{Condvar, Mutex, RwLock};
use pathweaver_graph::greedy_search;
use pathweaver_obs::SpanTimer;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An immutable point-in-time view of the index.
///
/// Everything a search touches — shard vectors, graphs, auxiliaries,
/// tombstone bitmaps — is frozen at the version this snapshot was
/// published. Snapshots are cheap: the contained index shares
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

/// What a [`ConcurrentIndex::delete_outcome`] call actually did.
///
/// Delete-unknown and delete-twice stay distinguishable for the call sites
/// that care (WAL replay, client error reporting), while every case stays
/// idempotent: replaying any of the three is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The id was live and is now tombstoned.
    Applied,
    /// The id exists but was already tombstoned (or compacted away after a
    /// tombstone by [`ConcurrentIndex::maintain`] — its slot is gone but the
    /// id was once deleted).
    AlreadyDeleted,
    /// The id was never allocated (at or above the id high-water mark).
    Unknown,
}

/// Errors surfaced by [`ConcurrentIndex`] mutations.
#[derive(Debug)]
pub enum ConcurrentError {
    /// WAL/segment IO failed (durable indices only).
    Store(StoreError),
    /// A maintenance `rebuild_threshold` outside `(0, 1]`.
    InvalidThreshold {
        /// The rejected value.
        got: f64,
    },
}

impl std::fmt::Display for ConcurrentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Store(e) => write!(f, "{e}"),
            Self::InvalidThreshold { got } => write!(f, "rebuild threshold {got} out of (0, 1]"),
        }
    }
}

impl std::error::Error for ConcurrentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            Self::InvalidThreshold { .. } => None,
        }
    }
}

impl From<StoreError> for ConcurrentError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

/// The one threshold check behind [`ConcurrentIndex::maintain`] and
/// [`ConcurrentIndex::spawn_maintainer`]: a bad value from a live serving
/// path must surface as a value, not a panic.
fn check_threshold(rebuild_threshold: f64) -> Result<(), ConcurrentError> {
    if rebuild_threshold > 0.0 && rebuild_threshold <= 1.0 {
        Ok(())
    } else {
        Err(ConcurrentError::InvalidThreshold { got: rebuild_threshold })
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
    /// master clone copies the shard spine, never a shard.
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
        let span = SpanTimer::start();
        let expected = st.master.num_vectors as u32;
        if let Some(w) = st.wal.as_mut() {
            // WAL-before-publish: the record is durable before any reader
            // can observe the state that contains it.
            w.append_insert(expected, vector).map_err(ConcurrentError::Store)?;
        }
        let (id, target) = insert_into_smallest(&mut st.master, vector);
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
            r.histogram("dyn.insert_ns").record(span.elapsed_ns());
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
        let span = SpanTimer::start();
        if let Some(w) = st.wal.as_mut() {
            w.append_delete(global_id).map_err(ConcurrentError::Store)?;
        }
        let (outcome, hit) = tombstone(&mut st.master, global_id);
        if let Some(s) = hit {
            st.epochs[s] += 1;
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
        if pathweaver_obs::enabled() {
            pathweaver_obs::registry().histogram("dyn.delete_ns").record(span.elapsed_ns());
        }
        Ok(outcome)
    }

    /// Rebuilds every shard whose tombstone fraction reaches
    /// `rebuild_threshold` (§6.2) from its survivors, plus both inter-shard
    /// tables touching it (see `rebuild_shard` for the remnant and bridge
    /// regimes). The expensive graph builds run **outside** the writer
    /// lock: searches pin snapshots and mutations stream throughout. A
    /// shard mutated between the off-lock rebuild and the install is
    /// detected by its epoch and skipped (retried on the next pass). On
    /// durable indices an install folds the WAL into the segment in the
    /// same critical section — a rebuild changes shard sizes, and replaying
    /// the old log against the new shape would send replayed inserts to
    /// different shards. Returns the number of shards whose rebuilds were
    /// installed.
    ///
    /// # Errors
    ///
    /// [`ConcurrentError::InvalidThreshold`] for a threshold outside
    /// `(0, 1]` (the index is unchanged); [`ConcurrentError::Store`] when
    /// the durable fold fails (the in-memory install has already happened
    /// and is preserved).
    pub fn maintain(&self, rebuild_threshold: f64) -> Result<usize, ConcurrentError> {
        check_threshold(rebuild_threshold)?;
        // Phase 1 — short lock: pick candidates, pin their inputs.
        let (candidates, config) = {
            let st = self.writer.lock();
            let picks: Vec<(usize, Arc<ShardIndex>, u64)> = st
                .master
                .shards
                .iter()
                .enumerate()
                .filter(|(_, sh)| shard_needs_rebuild(sh, rebuild_threshold))
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
            .map(|(s, sh, epoch)| (s, epoch, rebuild_shard(&sh, &config, s)))
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
            install_rebuilt(&mut st.master, s, Arc::new(shard));
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
    /// [`ConcurrentError::InvalidThreshold`] for a threshold outside
    /// `(0, 1]` (validated up front so the background loop cannot fail on
    /// it); [`ConcurrentError::Store`] when the OS refuses the thread.
    pub fn spawn_maintainer(
        self: &Arc<Self>,
        rebuild_threshold: f64,
        interval_ms: f64,
    ) -> Result<MaintainerHandle, ConcurrentError> {
        check_threshold(rebuild_threshold)?;
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
        // The master's shards are Arcs, so this clone copies the spine,
        // never a shard.
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

// Shard-level mutations (§6.2). The writer applies them to its master
// under the writer lock, and WAL replay ([`wal::apply_records`]) applies
// them to a freshly loaded index; nothing else mutates an index.

/// Inserts `vector` into the smallest shard, returning its new global id
/// and the shard it landed in.
///
/// The new node's adjacency row is found by a build-quality graph search,
/// the direction table and the shard's outgoing `I(u)` entry are extended
/// incrementally, and the ghost shard is left untouched (it is a random
/// sample; one more point does not move it). A payload shared with a
/// published snapshot is copied once, with room for the row
/// ([`ShardIndex::payload_for_insert`]); an unshared one (WAL replay, an
/// unpublished master) grows in place.
///
/// # Panics
///
/// Panics if `vector.len()` differs from the index dimensionality.
pub(crate) fn insert_into_smallest(index: &mut PathWeaverIndex, vector: &[f32]) -> (u32, usize) {
    assert_eq!(vector.len(), index.dim(), "dimensionality mismatch");
    // The first of the smallest shards.
    let s = (1..index.shards.len()).fold(0, |best, s| {
        if index.shards[s].len() < index.shards[best].len() {
            s
        } else {
            best
        }
    });
    // `num_vectors` is a high-water mark for id allocation (a rebuild never
    // rewinds it), so ids stay unique and per-shard `global_ids` stay
    // ascending — which `tombstone` relies on for binary search.
    let global_id = index.num_vectors as u32;
    index.num_vectors += 1;

    let degree = index.shards[s].graph.degree();
    let next = (s + 1) % index.shards.len();

    // Locate the new node's neighbors with a build-quality search, entering
    // through the ghost shard when one exists (random-only entries can
    // strand the search in a far region of the graph).
    let mut entries: Vec<u32> = (0..16)
        .map(|i| {
            (pathweaver_util::seed_from_parts(index.config.seed, "insert", global_id as u64 + i)
                % index.shards[s].len() as u64) as u32
        })
        .collect();
    if let Some(ghost) = &index.shards[s].ghost {
        let ghost_hits = greedy_search(&ghost.graph, &ghost.vectors, vector, &[0], 8, 2);
        entries.extend(ghost_hits.iter().map(|&(_, g)| ghost.original_id(g)));
    }
    let hits = greedy_search(
        &index.shards[s].graph,
        &index.shards[s].vectors,
        vector,
        &entries,
        (degree * 2).max(16),
        degree,
    );
    let mut row: Vec<u32> = hits.iter().map(|&(_, id)| id).collect();
    // Pad pathological underfull rows by wrapping over the shard. Only
    // locals that exist before this push are legal neighbors: an unbounded
    // pad fabricates ids at or past the new node's own id (a self-loop at
    // best, an out-of-range panic at worst) whenever the shard is smaller
    // than the degree.
    let existing = index.shards[s].len() as u32;
    let mut pad = 0u32;
    while row.len() < degree && pad < existing {
        if !row.contains(&pad) {
            row.push(pad);
        }
        pad += 1;
    }
    // A shard smaller than the degree cycles its own row; duplicate
    // neighbors are legal in a fixed-degree graph.
    let mut wrap = 0;
    while row.len() < degree {
        row.push(row[wrap]);
        wrap += 1;
    }

    // Extend every affected structure in dependency order. The first
    // insert after a snapshot publish copies the shard's shell (`make_mut`:
    // tombstones and `I(u)`) and then its payload, once, with room for the
    // new row; pinned snapshots keep reading the old payload untouched.
    let shard = Arc::make_mut(&mut index.shards[s]);
    let data = shard.payload_for_insert();
    data.vectors.push(vector);
    // The quantized tier encodes with the shard's frozen scales/offsets
    // (re-deriving them would re-code every row); out-of-range values clamp
    // to ±127 and are repaired by the exact re-rank at query time.
    if let Some(q) = data.quantized.as_mut() {
        q.push(vector);
    }
    let local = data.graph.push_node(&row);
    data.global_ids.push(global_id);
    if let Some(table) = data.dir_table.as_mut() {
        table.push_node(&data.vectors, &data.graph);
    }
    debug_assert_eq!(local as usize, data.vectors.len() - 1);

    // Reverse edges: searches reach the new node only through in-edges, so
    // each forward neighbor replaces its farthest out-edge with the
    // newcomer when the newcomer is closer. The nearest neighbor adopts the
    // newcomer unconditionally — an outlier insert would otherwise have
    // in-degree zero and be unreachable forever.
    for (rank, &v) in row.iter().enumerate() {
        let force = rank == 0;
        let d_new = pathweaver_vector::l2_squared(
            data.vectors.row(v as usize),
            data.vectors.row(local as usize),
        );
        let mut vrow: Vec<u32> = data.graph.neighbors(v).to_vec();
        let (worst_j, worst_d) = vrow
            .iter()
            .enumerate()
            .map(|(j, &w)| {
                (
                    j,
                    pathweaver_vector::l2_squared(
                        data.vectors.row(v as usize),
                        data.vectors.row(w as usize),
                    ),
                )
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            // lint: allow(hot-panic) — degree > 0: configs validate it, and
            // the segment reader rejects a zero-degree graph as Corrupt.
            .expect("positive degree");
        if (force || d_new < worst_d) && !vrow.contains(&local) {
            vrow[worst_j] = local;
            data.graph.set_neighbors(v, &vrow);
            if let Some(table) = data.dir_table.as_mut() {
                table.rebuild_node(&data.vectors, &data.graph, v);
            }
        }
    }
    shard.deleted.grow(shard.len());

    // Outgoing inter-shard edge of the new node (incoming edges from the
    // previous shard stay stale — the paper argues a small local change
    // does not affect existing similarities).
    if index.shards.len() > 1 {
        let target = {
            let next_shard = &index.shards[next];
            let entries: Vec<u32> = (0..4)
                .map(|i| {
                    (pathweaver_util::seed_from_parts(
                        index.config.seed,
                        "isd",
                        global_id as u64 + i,
                    ) % next_shard.len() as u64) as u32
                })
                .collect();
            greedy_search(
                &next_shard.graph,
                &next_shard.vectors,
                vector,
                &entries,
                index.config.intershard.beam,
                1,
            )[0]
            .1
        };
        // The shard Arc is already unique after the `make_mut` above, so
        // this second `make_mut` is a pointer check, not a clone.
        Arc::make_mut(&mut index.shards[s])
            .intershard
            .as_mut()
            // lint: allow(hot-panic) — built multi-device indices carry the
            // tables, and the segment reader rejects one without them.
            .expect("multi-device index has inter-shard tables")
            .push(target);
    }

    (global_id, s)
}

/// Logically deletes a global id: a tombstone hides the node from results
/// while it keeps serving as a bridge, preserving connectivity exactly as
/// the paper suggests. Returns which of the three cases occurred and, when
/// the tombstone landed, the shard it landed in. Idempotent: replaying the
/// same delete (WAL recovery) reports [`DeleteOutcome::AlreadyDeleted`]
/// and changes nothing.
pub(crate) fn tombstone(
    index: &mut PathWeaverIndex,
    global_id: u32,
) -> (DeleteOutcome, Option<usize>) {
    for (s, shard) in index.shards.iter_mut().enumerate() {
        // `global_ids` is ascending (built sorted; inserts append
        // monotonically increasing ids), so each shard is one binary search
        // instead of a linear scan.
        if let Ok(local) = shard.global_ids.binary_search(&global_id) {
            if shard.deleted.contains(local) {
                return (DeleteOutcome::AlreadyDeleted, None);
            }
            // Copy-on-write: only the hit shard's shell is cloned (its
            // tombstones and `I(u)`; the payload stays shared), and only
            // when a pinned snapshot still shares it.
            Arc::make_mut(shard).deleted.insert(local);
            return (DeleteOutcome::Applied, Some(s));
        }
    }
    if (global_id as usize) < index.num_vectors {
        // Below the high-water mark but in no shard: the slot was
        // tombstoned and then compacted away by a rebuild.
        (DeleteOutcome::AlreadyDeleted, None)
    } else {
        (DeleteOutcome::Unknown, None)
    }
}

/// Whether maintenance at `rebuild_threshold` would rebuild this shard. The
/// minimal bridge remnant (one node, tombstoned) is exempt: rebuilding it
/// again every pass would make maintenance permanently non-idle.
pub(crate) fn shard_needs_rebuild(shard: &ShardIndex, rebuild_threshold: f64) -> bool {
    let dead = shard.deleted.count();
    if dead == 0 || (dead as f64) < rebuild_threshold * shard.len() as f64 {
        return false;
    }
    !(shard.len() == 1 && dead == 1)
}

/// Builds the replacement for a heavily-deleted shard from its survivors:
/// graph, auxiliaries and quantized tier, but no inter-shard table — the
/// caller installs those via [`install_rebuilt`], because they depend on the
/// neighbor shards at install time.
///
/// Three regimes by survivor count: a full CAGRA rebuild above
/// `degree + 1`; a dense brute-force remnant (every node cycles over the
/// other survivors; duplicate neighbors are legal in a fixed-degree graph)
/// down to one survivor; and, when every node is tombstoned, a single
/// tombstoned bridge node with a self-loop row, so the shard (and the ring
/// through it) stays searchable without ever surfacing in results.
pub(crate) fn rebuild_shard(shard: &ShardIndex, config: &PathWeaverConfig, s: usize) -> ShardIndex {
    let survivors: Vec<usize> = (0..shard.len()).filter(|&l| !shard.deleted.contains(l)).collect();
    let degree = config.graph.degree;
    let full_rebuild = survivors.len() > degree + 1;
    // A fully-tombstoned shard keeps node 0 as its tombstoned bridge.
    let keep: &[usize] = if survivors.is_empty() { &[0] } else { &survivors };
    let vectors = shard.vectors.gather(keep);
    let global_ids: Vec<u32> = keep.iter().map(|&l| shard.global_ids[l]).collect();
    let graph = if full_rebuild {
        pathweaver_graph::cagra_build(&vectors, &config.graph)
    } else {
        let m = keep.len();
        let lists: Vec<Vec<u32>> = (0..m)
            .map(|u| {
                (0..degree)
                    .map(|j| {
                        if m == 1 {
                            0 // a lone survivor or the bridge: self-loop row
                        } else {
                            ((u + 1 + j % (m - 1)) % m) as u32
                        }
                    })
                    .collect()
            })
            .collect();
        pathweaver_graph::FixedDegreeGraph::from_lists(degree, &lists)
    };
    // Remnant shards skip the ghost/direction auxiliaries: both assume a
    // graph large enough to sample from, and a brute-force remnant is exact
    // without them.
    let dir_table = (config.build_dir_table && full_rebuild)
        .then(|| pathweaver_graph::DirectionTable::build(&vectors, &graph));
    let ghost = config.ghost.filter(|_| full_rebuild).map(|mut gp| {
        gp.seed = pathweaver_util::seed_from_parts(config.seed, "ghost-rebuild", s as u64);
        pathweaver_graph::GhostShard::build(&vectors, &gp)
    });
    // Rebuilds re-derive the quantization grid from the survivors, so
    // post-insert drift accumulated by frozen-parameter pushes is flushed at
    // the same cadence as the graph itself.
    let quantized =
        config.build_quantized.then(|| pathweaver_vector::QuantizedSet::quantize(&vectors));
    let mut shard =
        ShardIndex::new(ShardData { global_ids, vectors, graph, dir_table, quantized, ghost });
    if survivors.is_empty() {
        shard.deleted.insert(0);
    }
    shard
}

/// Swaps a rebuilt shard in at position `s` and repairs everything that
/// references its local ids: (multi-device) both inter-shard tables
/// touching the shard — its outgoing table and the predecessor's table into
/// it.
pub(crate) fn install_rebuilt(index: &mut PathWeaverIndex, s: usize, shard: Arc<ShardIndex>) {
    let n = index.shards.len();
    index.shards[s] = shard;
    if n > 1 {
        let next = (s + 1) % n;
        let prev = (s + n - 1) % n;
        let out_table = pathweaver_graph::InterShardTable::build(
            &index.shards[s].vectors,
            &index.shards[next].vectors,
            &index.shards[next].graph,
            &index.config.intershard,
        );
        Arc::make_mut(&mut index.shards[s]).intershard = Some(out_table);
        let in_table = pathweaver_graph::InterShardTable::build(
            &index.shards[prev].vectors,
            &index.shards[s].vectors,
            &index.shards[s].graph,
            &index.config.intershard,
        );
        Arc::make_mut(&mut index.shards[prev]).intershard = Some(in_table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathweaver_datasets::{DatasetProfile, Scale};
    use pathweaver_search::SearchParams;
    use pathweaver_vector::VectorSet;

    fn built(seed: u64) -> (pathweaver_datasets::Workload, PathWeaverIndex) {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 6, 5, seed);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        (w, idx)
    }

    /// Every other id of shard 0, `take` of them.
    fn every_other_of_shard0(idx: &PathWeaverIndex, take: usize) -> Vec<u32> {
        idx.shards[0].global_ids.iter().step_by(2).copied().take(take).collect()
    }

    fn single_query(v: &[f32]) -> VectorSet {
        let mut queries = VectorSet::empty(v.len());
        queries.push(v);
        queries
    }

    #[test]
    fn maintain_rejects_bad_threshold_as_value() {
        let (_, idx) = built(59);
        let ci = Arc::new(ConcurrentIndex::new(idx));
        for bad in [0.0, -0.3, 1.5, f64::NAN] {
            let invalid = |e| matches!(e, ConcurrentError::InvalidThreshold { .. });
            assert!(ci.maintain(bad).is_err_and(invalid), "{bad} accepted");
            assert!(ci.spawn_maintainer(bad, 5.0).is_err_and(invalid), "{bad} accepted");
        }
        // A valid threshold still works after the rejections.
        assert_eq!(ci.maintain(1.0).unwrap(), 0);
    }

    #[test]
    fn delete_outcome_three_way() {
        let (w, idx) = built(13);
        let victims = every_other_of_shard0(&idx, idx.shards[0].len() * 2 / 5);
        let ci = ConcurrentIndex::new(idx);
        // Query for an exact base vector, then tombstone it.
        let queries = single_query(w.base.row(7));
        let found = |ci: &ConcurrentIndex| {
            let out = ci.pin().index().search_pipelined(&queries, &SearchParams::default());
            out.results[0].contains(&7)
        };
        assert!(found(&ci));
        assert_eq!(ci.delete_outcome(999_999).unwrap(), DeleteOutcome::Unknown);
        assert_eq!(ci.delete_outcome(7).unwrap(), DeleteOutcome::Applied);
        assert_eq!(ci.delete_outcome(7).unwrap(), DeleteOutcome::AlreadyDeleted);
        assert!(!found(&ci), "a tombstoned id left the results");
        assert_eq!(ci.pin().index().live_vectors(), w.base.len() - 1);
        // An id compacted away by maintain is AlreadyDeleted, not Unknown:
        // it was allocated once and its slot is gone.
        for &g in &victims {
            ci.delete_outcome(g).unwrap();
        }
        assert!(ci.maintain(0.3).unwrap() >= 1);
        assert_eq!(ci.delete_outcome(victims[0]).unwrap(), DeleteOutcome::AlreadyDeleted);
        // Fresh inserts stay deletable exactly once, and compaction never
        // rewinds the id high-water mark.
        let id = ci.insert(w.base.row(0)).unwrap();
        assert_eq!(id as usize, w.base.len(), "id high-water mark must not rewind");
        assert_eq!(ci.delete_outcome(id).unwrap(), DeleteOutcome::Applied);
        assert_eq!(ci.delete_outcome(id).unwrap(), DeleteOutcome::AlreadyDeleted);
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

    #[test]
    fn inserted_vector_is_findable() {
        let (w, idx) = built(13);
        assert!(idx.shards.iter().all(|s| s.quantized.is_some()), "test_scale builds the tier");
        let smallest = if idx.shards[1].len() < idx.shards[0].len() { 1 } else { 0 };
        let ci = ConcurrentIndex::new(idx);
        let novel: Vec<f32> = w.base.row(0).iter().map(|x| x + 0.01).collect();
        let id = ci.insert(&novel).unwrap();
        assert_eq!(id as usize, w.base.len());
        let snap = ci.pin();
        let target = &snap.index().shards[smallest];
        assert_eq!(target.global_ids.last(), Some(&id), "inserts go to the smallest shard");
        // Exact traversal, and the quantized tier the insert extended.
        for quantized in [false, true] {
            let params = SearchParams { quantized, ..Default::default() };
            let out = ci.pin().index().search_pipelined(&single_query(&novel), &params);
            assert!(out.results[0].contains(&id), "inserted id missing: {:?}", out.results[0]);
        }
    }

    #[test]
    fn maintain_rebuilds_heavily_deleted_shard() {
        // Tombstone 40 % of shard 0. The reference applies the same
        // tombstones, then rebuilds and installs the shard in place on a
        // private copy, with no lock or epoch in the way.
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 5, 19);
        let mut reference =
            PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let victims = every_other_of_shard0(&reference, reference.shards[0].len() * 2 / 5);
        let len_before = reference.shards[0].len();
        let ci = ConcurrentIndex::new(reference.clone());
        // One tombstone in shard 1: lightly deleted, so never rebuilt.
        let light = reference.shards[1].global_ids[0];
        for &g in victims.iter().chain([&light]) {
            assert_eq!(tombstone(&mut reference, g).0, DeleteOutcome::Applied);
            assert_eq!(ci.delete_outcome(g).unwrap(), DeleteOutcome::Applied);
        }
        assert!(shard_needs_rebuild(&reference.shards[0], 0.3));
        assert!(!shard_needs_rebuild(&reference.shards[1], 0.3));
        let rebuilt = rebuild_shard(&reference.shards[0], &reference.config, 0);
        install_rebuilt(&mut reference, 0, Arc::new(rebuilt));
        assert_eq!(ci.maintain(0.3).unwrap(), 1);
        let snap = ci.pin();
        let idx = snap.index();
        let out = idx.search_pipelined(&w.queries, &SearchParams::default());
        let want = reference.search_pipelined(&w.queries, &SearchParams::default());
        assert_eq!(out.results, want.results, "off-lock maintain diverged from the direct rebuild");
        let shard = &idx.shards[0];
        assert_eq!(shard.len(), len_before - victims.len());
        assert_eq!(shard.deleted.count(), 0);
        assert_eq!(shard.graph.num_nodes(), shard.len());
        assert_eq!(shard.intershard.as_ref().unwrap().len(), shard.len());
        // The predecessor's table into the rebuilt shard must be in range.
        let prev = &idx.shards[1];
        let prev_table = prev.intershard.as_ref().unwrap();
        for u in 0..prev.len() as u32 {
            assert!((prev_table.target(u) as usize) < shard.len());
        }
        // The quantized tier is rebuilt too: the fresh quantization of the
        // survivors, not the old grid.
        let q = shard.quantized.as_ref().expect("rebuild keeps the tier");
        assert_eq!(q.len(), shard.vectors.len());
        assert_eq!(q, &pathweaver_vector::QuantizedSet::quantize(&shard.vectors));
        assert_eq!(idx.shards[1].deleted.count(), 1, "a lightly-deleted shard is left alone");
        // Victims stay gone.
        for hits in &out.results {
            for id in hits {
                assert!(!victims.contains(id), "tombstoned id {id} resurfaced");
            }
        }
        // A second pass is a no-op.
        assert_eq!(ci.maintain(0.3).unwrap(), 0);
    }

    #[test]
    fn heavy_local_deletion_still_returns_k_live_results() {
        // Tombstone a query's nearest neighbors: the over-fetch must surface
        // the live nodes ranked just past them.
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 1, 12, 31);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(1)).unwrap();
        let params = SearchParams::default();
        let ci = ConcurrentIndex::new(idx);
        let before = ci.pin().index().search_pipelined(&w.queries, &params);
        for &g in &before.results[0][..6] {
            assert_eq!(ci.delete_outcome(g).unwrap(), DeleteOutcome::Applied);
        }
        let after = ci.pin().index().search_pipelined(&w.queries, &params);
        assert_eq!(after.results[0].len(), params.k, "k live results expected");
        for id in &after.results[0] {
            assert!(!before.results[0][..6].contains(id), "tombstoned id returned");
        }
    }

    #[test]
    fn maintain_folds_nearly_and_fully_emptied_shards() {
        // Regression: maintenance used to `continue` once a shard's survivor
        // count fell to degree + 1 or fewer, leaving a ~100 %-tombstoned
        // graph serving bridges forever. The fold must compact the remnant,
        // and a fully-emptied shard keeps one tombstoned bridge node so the
        // ring stays searchable.
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 6, 5, 37);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let ids: Vec<u32> = idx.shards[0].global_ids.clone();
        let params = SearchParams::default();
        for keep in [idx.config.graph.degree.min(ids.len() - 1), 0] {
            let ci = ConcurrentIndex::new(idx.clone());
            for &g in &ids[keep..] {
                assert_eq!(ci.delete_outcome(g).unwrap(), DeleteOutcome::Applied);
            }
            assert_eq!(ci.maintain(0.3).unwrap(), 1, "remnant shard must be folded, not skipped");
            let snap = ci.pin();
            let idx = snap.index();
            let shard = &idx.shards[0];
            assert_eq!(shard.len(), keep.max(1), "survivors, or the one bridge node");
            assert_eq!(shard.graph.num_nodes(), shard.len());
            let bridge = usize::from(keep == 0);
            assert_eq!(shard.deleted.count(), bridge, "only the bridge stays tombstoned");
            // The ring tables on both sides of the folded shard stay in range.
            let prev_table = idx.shards[1].intershard.as_ref().unwrap();
            for u in 0..idx.shards[1].len() as u32 {
                assert!((prev_table.target(u) as usize) < shard.len());
            }
            // Every survivor is still findable through the remnant graph.
            for (local, &g) in shard.global_ids.iter().enumerate().take(keep) {
                let out = idx.search_pipelined(&shard.vectors.gather(&[local]), &params);
                assert!(out.results[0].contains(&g), "survivor {g} lost by the fold");
            }
            // Tombstoned ids (the bridge included) never surface.
            let out = idx.search_pipelined(&w.queries, &params);
            for id in out.results.iter().flatten() {
                assert!(!ids[keep..].contains(id), "tombstoned id {id} resurfaced");
            }
            // A second pass is a no-op (no rebuild storm on the remnant).
            assert_eq!(ci.maintain(0.3).unwrap(), 0);
        }
    }

    #[test]
    fn insert_into_tiny_shard_stays_in_range() {
        // A shard smaller than the graph degree must not pad the new row
        // with fabricated ids at or past the new node's own id (self-loop
        // or out-of-range panic in `push_node`).
        let dim = 4;
        let n = 4usize;
        let degree = 6usize;
        let mut vectors = VectorSet::empty(dim);
        for i in 0..n {
            let row: Vec<f32> = (0..dim).map(|d| (i * dim + d) as f32).collect();
            vectors.push(&row);
        }
        let lists: Vec<Vec<u32>> =
            (0..n).map(|u| (0..degree).map(|j| ((u + j + 1) % n) as u32).collect()).collect();
        let graph = pathweaver_graph::FixedDegreeGraph::from_lists(degree, &lists);
        let shard = ShardIndex::new(ShardData {
            global_ids: (0..n as u32).collect(),
            vectors,
            graph,
            dir_table: None,
            quantized: None,
            ghost: None,
        });
        let ci = ConcurrentIndex::new(PathWeaverIndex {
            config: PathWeaverConfig::test_scale(1),
            shards: vec![Arc::new(shard)],
            build_report: pathweaver_graph::BuildReport::new(),
            ledgers: Vec::new(),
            num_vectors: n,
        });
        let id = ci.insert(&[0.5; 4]).unwrap();
        assert_eq!(id, n as u32);
        let snap = ci.pin();
        let local = (snap.index().shards[0].len() - 1) as u32;
        let row = snap.index().shards[0].graph.neighbors(local);
        assert!(
            row.iter().all(|&v| v < local),
            "new node's row references itself or out-of-range ids: {row:?}"
        );
    }
}
