//! Streaming query serving over the persistent ring executor.
//!
//! `search_pipelined` is strictly one-batch-at-a-time: the caller blocks
//! while a single batch circulates and devices idle whenever their stage
//! finishes early. [`Server`] closes that gap — the throughput mode the
//! paper's pipelining exists for:
//!
//! - **Micro-batching admission queue.** Queries from any number of
//!   submitter threads accumulate in a bounded queue; an admission thread
//!   flushes a batch when [`ServeConfig::max_batch`] queries are pending or
//!   the oldest query has waited [`ServeConfig::flush_interval_ms`].
//! - **Backpressure.** [`Server::try_submit`] never blocks: when
//!   [`ServeConfig::queue_capacity`] queries are already pending it returns
//!   [`SubmitError::QueueFull`] and the caller decides (retry, shed, …).
//! - **Overlapped execution.** Flushed batches go straight to a
//!   [`RingExecutor`], so stage `s` of batch `b` on device `d` runs while
//!   device `d-1` executes stage `s` of batch `b+1` — the inter-batch
//!   pipelining of paper §3.1, measurable via
//!   [`PipelineTimeline::overlapped_makespan_s`].
//! - **Deadlines.** With [`ServeConfig::deadline_ms`] set, a batch that
//!   exceeds its budget stops searching: remaining stages become no-op hops
//!   and every query returns the hits accumulated so far, flagged
//!   [`QueryResult::timed_out`].
//! - **Clean shutdown.** [`Server::shutdown`] (or drop) flushes the
//!   admission queue, drains every in-flight batch, and joins all threads —
//!   every accepted ticket is answered.
//!
//! **Determinism contract:** with no deadline configured, a batch formed
//! from queries `q0..qn` (in submission order) produces bit-identical hits
//! and stats to `search_pipelined` on the same rows — chunking, stage
//! execution, and reduction are the same code. Deadlines trade that
//! determinism for bounded latency: whether a stage is skipped depends on
//! wall-clock time.
//!
//! **Snapshot pinning.** Every batch pins the latest [`IndexSnapshot`] of a
//! [`ConcurrentIndex`] exactly once, at flush time, so concurrent
//! inserts/deletes/rebuilds never touch a batch mid-flight. The batch's
//! staleness is observable as the `serve.snapshot_lag` histogram (published
//! versions behind at completion) next to the `serve.merge_backlog` gauge.
//! [`Server::new`] serves a static index through the same path: the index
//! is version 0 of a `ConcurrentIndex` that is never written, so every
//! batch pins the caller's own `Arc`.

use crate::index::{PathWeaverIndex, SearchOutput};
use crate::pipeline::{make_chunks, reduce_chunks, ChunkState};
use crate::snapshot::{ConcurrentIndex, IndexSnapshot};
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use pathweaver_gpusim::{BatchHandle, CostModel, PipelineTimeline, RingExecutor, RingMessage};
use pathweaver_obs::{trace, Stopwatch};
use pathweaver_search::{BatchStats, SearchParams};
use pathweaver_vector::VectorSet;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush the admission queue as soon as this many queries are pending.
    pub max_batch: usize,
    /// Flush a partial batch once its oldest query has waited this long.
    pub flush_interval_ms: f64,
    /// Maximum pending queries before [`Server::try_submit`] sheds load.
    pub queue_capacity: usize,
    /// Per-batch execution budget, measured from batch formation; `None`
    /// serves every batch to completion (the deterministic mode).
    pub deadline_ms: Option<f64>,
    /// Search parameters applied to every batch.
    pub params: SearchParams,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            flush_interval_ms: 2.0,
            queue_capacity: 1024,
            deadline_ms: None,
            params: SearchParams::default(),
        }
    }
}

impl ServeConfig {
    /// Validates internal consistency.
    ///
    /// `queue_capacity` may be smaller than `max_batch` — batches then never
    /// fill to `max_batch` and flush on the interval instead, which is a
    /// legitimate (if unusual) low-memory configuration.
    ///
    /// # Panics
    ///
    /// Panics when `max_batch == 0`, `queue_capacity == 0`, or
    /// `flush_interval_ms`/`deadline_ms` are not positive.
    pub fn validate(&self) {
        assert!(self.max_batch > 0, "max_batch must be positive");
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
        assert!(self.flush_interval_ms > 0.0, "flush_interval_ms must be positive");
        if let Some(d) = self.deadline_ms {
            assert!(d > 0.0, "deadline_ms must be positive");
        }
        self.params.validate();
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at [`ServeConfig::queue_capacity`].
    QueueFull,
    /// [`Server::shutdown`] has begun; no new queries are accepted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull => f.write_str("admission queue full"),
            Self::ShuttingDown => f.write_str("server shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Serving-layer failure surfaced by [`Server::new`] and
/// [`QueryTicket::wait`] — the typed form of what used to be a panic, so
/// hot callers can turn it into an error frame.
#[derive(Debug)]
pub enum ServeError {
    /// An OS-level thread spawn failed while starting the server.
    Spawn(std::io::Error),
    /// The server answered an accepted query without a result: a stage
    /// panicked on the query's batch, or a server thread died. Shutdown
    /// drains every accepted ticket, so nothing else produces it; the
    /// query's result is unrecoverable.
    Disconnected,
    /// A submission was rejected.
    Submit(SubmitError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Spawn(e) => write!(f, "cannot spawn serving thread: {e}"),
            Self::Disconnected => {
                f.write_str("query batch failed or server tore down without delivering")
            }
            Self::Submit(e) => write!(f, "submission rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Spawn(e) => Some(e),
            Self::Submit(e) => Some(e),
            Self::Disconnected => None,
        }
    }
}

impl From<SubmitError> for ServeError {
    fn from(e: SubmitError) -> Self {
        Self::Submit(e)
    }
}

/// Result of one served query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// `(squared distance, global id)` hits, ascending, length ≤ k. Partial
    /// (possibly empty) when [`timed_out`](Self::timed_out) is set.
    pub hits: Vec<(f32, u32)>,
    /// Statistics of the whole micro-batch this query rode in.
    pub stats: BatchStats,
    /// Whether the batch hit its deadline and stopped searching early.
    pub timed_out: bool,
    /// Executor batch id (submission sequence number).
    pub batch_id: u64,
}

/// A claim ticket for one accepted query.
pub struct QueryTicket {
    rx: Receiver<QueryResult>,
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTicket").finish_non_exhaustive()
    }
}

impl QueryTicket {
    /// Blocks until the query's batch completes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] when the query's batch failed (a stage
    /// panicked) or the server was torn down without delivering — shutdown
    /// drains every accepted query, so only a panic produces it.
    pub fn wait(self) -> Result<QueryResult, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// Returns the result if the batch has already completed.
    pub fn try_wait(&self) -> Option<QueryResult> {
        self.rx.try_recv()
    }
}

/// Shared per-batch context: the formed queries, the pinned snapshot,
/// and deadline state.
struct BatchCtx {
    queries: VectorSet,
    params: SearchParams,
    /// The snapshot every stage of this batch reads — pinned at flush,
    /// immutable for the batch's lifetime.
    snapshot: Arc<IndexSnapshot>,
    trace_batch: u64,
    /// `(started at flush, budget in ms)`.
    deadline: Option<(Stopwatch, f64)>,
    expired: AtomicBool,
}

/// One chunk of a served batch riding the ring.
struct ServeChunk {
    state: ChunkState,
    ctx: Arc<BatchCtx>,
}

/// One pending query in the admission queue.
struct Pending {
    query: Vec<f32>,
    tx: Sender<QueryResult>,
    enqueued: Stopwatch,
}

/// Admission queue state behind the server mutex.
struct AdmissionState {
    pending: VecDeque<Pending>,
    shutting_down: bool,
}

struct ServerInner {
    config: ServeConfig,
    dim: usize,
    /// Batches pin their snapshot from it at flush time.
    index: Arc<ConcurrentIndex>,
    state: Mutex<AdmissionState>,
    /// Wakes the admission thread on arrivals and shutdown.
    wakeup: Condvar,
}

/// A finished-forming batch travelling from admission to completion.
struct BatchJob {
    handle: BatchHandle<ServeChunk>,
    ctx: Arc<BatchCtx>,
    /// Result channel and enqueue stopwatch per query, in batch row order.
    tickets: Vec<(Sender<QueryResult>, Stopwatch)>,
}

/// Streaming query server over a persistent device ring.
///
/// ```no_run
/// use pathweaver_core::prelude::*;
/// use pathweaver_core::serve::{ServeConfig, Server};
/// use std::sync::Arc;
///
/// # let dataset = pathweaver_datasets::DatasetProfile::deep10m_like()
/// #     .workload(pathweaver_datasets::Scale::Test, 1, 10, 1).base;
/// let index = Arc::new(PathWeaverIndex::build(&dataset, &PathWeaverConfig::test_scale(2)).unwrap());
/// let server = Server::new(Arc::clone(&index), ServeConfig::default()).unwrap();
/// let ticket = server.try_submit(dataset.row(0)).unwrap();
/// let result = ticket.wait().unwrap();
/// assert!(!result.hits.is_empty());
/// server.shutdown();
/// ```
pub struct Server {
    inner: Arc<ServerInner>,
    timeline: Arc<Mutex<PipelineTimeline>>,
    admission: Option<std::thread::JoinHandle<()>>,
    completion: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the serving threads (admission, completion, and one device
    /// thread per shard).
    ///
    /// # Errors
    ///
    /// [`ServeError::Spawn`] when the OS refuses a serving thread; the ring
    /// and any thread already started are torn down before returning.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`ServeConfig::validate`].
    pub fn new(index: Arc<PathWeaverIndex>, config: ServeConfig) -> Result<Self, ServeError> {
        Self::new_dynamic(Arc::new(ConcurrentIndex::from_arc(index, None, None)), config)
    }

    /// Starts a server over a snapshot-isolated dynamic index: each batch
    /// pins the latest published snapshot at flush time, so streaming
    /// inserts/deletes/rebuilds never block or tear an in-flight batch.
    /// With zero in-flight mutations this is bit-identical to
    /// [`Server::new`] on the wrapped index.
    ///
    /// # Errors
    ///
    /// As [`Server::new`].
    ///
    /// # Panics
    ///
    /// As [`Server::new`].
    pub fn new_dynamic(
        index: Arc<ConcurrentIndex>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        config.validate();
        // The device count, cost model, and dimensionality are fixed for
        // the server's lifetime: snapshots never change shard count or dim.
        let pinned = index.pin();
        let initial = pinned.index();
        let n = initial.num_devices();
        let cost = CostModel::new(initial.config.device);
        let executor =
            RingExecutor::new(n, n, move |device, stage, msg: &mut RingMessage<ServeChunk>| {
                let ServeChunk { state, ctx } = &mut msg.payload;
                if let Some((started, budget_ms)) = &ctx.deadline {
                    // Relaxed: the flag is a one-way latch that only skips
                    // optional work; a stale read delays the skip by at most
                    // one stage and no data is published through it.
                    if ctx.expired.load(Ordering::Relaxed) || started.elapsed_millis() > *budget_ms
                    {
                        ctx.expired.store(true, Ordering::Relaxed);
                        return None;
                    }
                }
                // The batch's pinned view, not a server-global index: every
                // stage of this batch reads the same snapshot.
                ctx.snapshot.index().run_stage(
                    device,
                    stage,
                    msg.origin_chunk,
                    state,
                    &ctx.queries,
                    &ctx.params,
                    &cost,
                    ctx.trace_batch,
                )
            });

        let inner = Arc::new(ServerInner {
            config,
            dim: initial.dim(),
            index,
            state: Mutex::new(AdmissionState { pending: VecDeque::new(), shutting_down: false }),
            wakeup: Condvar::new(),
        });
        let timeline = Arc::new(Mutex::new(PipelineTimeline::new()));

        let (job_tx, job_rx) = channel::unbounded::<BatchJob>();
        let admission = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("pathweaver-admission".into())
                .spawn(move || admission_loop(&inner, &executor, &job_tx))
                .map_err(ServeError::Spawn)?
        };
        let completion = {
            let timeline = Arc::clone(&timeline);
            let index = Arc::clone(&inner.index);
            let spawned = std::thread::Builder::new()
                .name("pathweaver-completion".into())
                .spawn(move || completion_loop(&job_rx, &timeline, &index));
            match spawned {
                Ok(h) => h,
                Err(e) => {
                    // Unwind the admission thread (which owns the ring) so a
                    // failed start leaks nothing.
                    inner.state.lock().shutting_down = true;
                    inner.wakeup.notify_all();
                    let _ = admission.join();
                    return Err(ServeError::Spawn(e));
                }
            }
        };
        Ok(Self { inner, timeline, admission: Some(admission), completion: Some(completion) })
    }

    /// Enqueues one query without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at capacity, [`SubmitError::ShuttingDown`]
    /// after [`shutdown`](Self::shutdown) began.
    ///
    /// # Panics
    ///
    /// Panics if `query.len()` differs from the index dimensionality.
    pub fn try_submit(&self, query: &[f32]) -> Result<QueryTicket, SubmitError> {
        assert_eq!(query.len(), self.inner.dim, "dimensionality mismatch");
        let (tx, rx) = channel::unbounded();
        let depth = {
            let mut st = self.inner.state.lock();
            if st.shutting_down {
                return Err(SubmitError::ShuttingDown);
            }
            if st.pending.len() >= self.inner.config.queue_capacity {
                drop(st);
                if pathweaver_obs::enabled() {
                    pathweaver_obs::registry().counter("serve.rejected").inc();
                }
                return Err(SubmitError::QueueFull);
            }
            st.pending.push_back(Pending {
                query: query.to_vec(),
                tx,
                enqueued: Stopwatch::start(),
            });
            st.pending.len()
        };
        self.inner.wakeup.notify_all();
        if pathweaver_obs::enabled() {
            let r = pathweaver_obs::registry();
            r.counter("serve.submitted").inc();
            r.gauge("serve.queue_depth").set(depth as f64);
        }
        Ok(QueryTicket { rx })
    }

    /// Submits every row of `queries` in order through the admission queue,
    /// returning one ticket per row. A one-shot batch without serving
    /// threads — what the cluster node answers each RPC with — is
    /// [`serve_once`].
    ///
    /// # Errors
    ///
    /// Fails like [`try_submit`](Self::try_submit); on failure the already-
    /// accepted prefix is still answered (tickets are dropped, results
    /// discarded).
    ///
    /// # Panics
    ///
    /// Panics if the batch dimensionality differs from the index's.
    pub fn submit_batch(&self, queries: &VectorSet) -> Result<Vec<QueryTicket>, SubmitError> {
        (0..queries.len()).map(|r| self.try_submit(queries.row(r))).collect()
    }

    /// Number of queries currently pending admission.
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().pending.len()
    }

    /// Snapshot of the merged timeline across every completed batch;
    /// [`PipelineTimeline::overlapped_makespan_s`] on it is the stream's
    /// simulated wall time.
    pub fn timeline(&self) -> PipelineTimeline {
        self.timeline.lock().clone()
    }

    /// Stops accepting queries, flushes the admission queue, drains every
    /// in-flight batch, and joins the serving threads. Every ticket accepted
    /// before the call is answered.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        self.inner.state.lock().shutting_down = true;
        self.inner.wakeup.notify_all();
        if let Some(h) = self.admission.take() {
            let _ = h.join();
        }
        if let Some(h) = self.completion.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// Admission loop: wait for a flush condition, form a batch, submit it.
/// Owns the executor — dropping out of this function (after the final flush)
/// drains the ring; dropping `job_tx` then lets the completion loop finish.
fn admission_loop(
    inner: &ServerInner,
    executor: &RingExecutor<ServeChunk>,
    job_tx: &Sender<BatchJob>,
) {
    loop {
        let batch: Vec<Pending> = {
            let mut st = inner.state.lock();
            loop {
                if st.shutting_down || st.pending.len() >= inner.config.max_batch {
                    break;
                }
                match st.pending.front() {
                    None => inner.wakeup.wait(&mut st),
                    Some(oldest) => {
                        let age_ms = oldest.enqueued.elapsed_millis();
                        if age_ms >= inner.config.flush_interval_ms {
                            break;
                        }
                        let remain_ms = inner.config.flush_interval_ms - age_ms;
                        // Cheap truncation: the wait re-checks age on wake.
                        let micros = (remain_ms * 1000.0).max(50.0) as u64;
                        let _ = inner
                            .wakeup
                            .wait_for(&mut st, std::time::Duration::from_micros(micros));
                    }
                }
            }
            if st.pending.is_empty() {
                debug_assert!(st.shutting_down, "flush without work or shutdown");
                return;
            }
            let take = st.pending.len().min(inner.config.max_batch);
            let batch: Vec<Pending> = st.pending.drain(..take).collect();
            if pathweaver_obs::enabled() {
                pathweaver_obs::registry().gauge("serve.queue_depth").set(st.pending.len() as f64);
            }
            batch
        };

        // Form the batch outside the lock: submitters keep enqueueing while
        // the VectorSet is assembled and the chunks hit the ring.
        let mut queries = VectorSet::empty(inner.dim);
        let mut tickets = Vec::with_capacity(batch.len());
        for p in batch {
            queries.push(&p.query);
            tickets.push((p.tx, p.enqueued));
        }
        if pathweaver_obs::enabled() {
            let r = pathweaver_obs::registry();
            r.counter("serve.batches").inc();
            r.histogram("serve.batch_size").record(tickets.len() as u64);
            let q_hist = r.histogram("serve.queue_wall_ns");
            for (_, enq) in &tickets {
                q_hist.record(enq.elapsed_nanos());
            }
        }
        let trace_batch =
            if pathweaver_obs::tracing_enabled() { trace::next_batch_id() } else { 0 };
        // Pin the batch's index view exactly once, at flush: every stage
        // and the final reduction read this snapshot, whatever mutations
        // land while the batch is in flight.
        let ctx = Arc::new(BatchCtx {
            deadline: inner.config.deadline_ms.map(|ms| (Stopwatch::start(), ms)),
            queries,
            params: inner.config.params,
            snapshot: inner.index.pin(),
            trace_batch,
            expired: AtomicBool::new(false),
        });
        let chunks: Vec<(usize, ServeChunk)> =
            make_chunks(ctx.queries.len(), executor.num_devices())
                .into_iter()
                .map(|(origin, state)| (origin, ServeChunk { state, ctx: Arc::clone(&ctx) }))
                .collect();
        let handle = executor.submit(chunks);
        if job_tx.send(BatchJob { handle, ctx, tickets }).is_err() {
            // Completion thread died; nothing left to deliver to.
            return;
        }
    }
}

/// Completion loop: wait for each batch in submission order, reduce it, and
/// answer its tickets. Runs until the admission loop drops its job sender.
fn completion_loop(
    job_rx: &Receiver<BatchJob>,
    timeline: &Mutex<PipelineTimeline>,
    index: &ConcurrentIndex,
) {
    while let Ok(job) = job_rx.recv() {
        let batch_id = job.handle.batch_id();
        let Ok((finished, batch_timeline)) = job.handle.wait() else {
            // A stage panicked on this batch. Dropping its result senders
            // answers every ticket with `ServeError::Disconnected`; the ring
            // keeps serving the next batch.
            continue;
        };
        timeline.lock().extend(&batch_timeline);
        let messages: Vec<RingMessage<ChunkState>> = finished
            .into_iter()
            .map(|m| RingMessage { origin_chunk: m.origin_chunk, payload: m.payload.state })
            .collect();
        let (hits_by_row, stats) = reduce_chunks(messages, job.ctx.queries.len(), job.ctx.params.k);
        // Relaxed: read-only view of the latch after the batch finished; the
        // channel recv above already ordered everything that matters.
        let timed_out = job.ctx.expired.load(Ordering::Relaxed);
        if pathweaver_obs::enabled() {
            let r = pathweaver_obs::registry();
            r.counter("serve.completed").add(job.tickets.len() as u64);
            if timed_out {
                r.counter("serve.timeouts").inc();
            }
            // How stale this batch's pinned snapshot is by the time it
            // answers, and the mutation backlog not folded yet.
            let lag = index.latest_version().saturating_sub(job.ctx.snapshot.version());
            r.histogram("serve.snapshot_lag").record(lag);
            r.gauge("serve.merge_backlog").set(index.merge_backlog() as f64);
        }
        for (hits, (tx, enqueued)) in hits_by_row.into_iter().zip(job.tickets) {
            if pathweaver_obs::enabled() {
                pathweaver_obs::registry()
                    .histogram("serve.e2e_wall_ns")
                    .record(enqueued.elapsed_nanos());
            }
            // A dropped ticket is a caller that stopped caring; ignore.
            let _ = tx.send(QueryResult { hits, stats, timed_out, batch_id });
        }
    }
}

/// Serves `queries` as one exclusive micro-batch and returns what a
/// [`Server`] sized to the batch would answer. By the serve ≡
/// `search_pipelined` contract that is exactly
/// [`PathWeaverIndex::search_pipelined`], so the batch runs through it
/// directly, without starting serving threads. The cluster node front end
/// answers every request through this call.
///
/// # Errors
///
/// None today; the `Result` is part of the serving-layer signature the
/// cluster node front end maps to error frames.
///
/// # Panics
///
/// Panics on an empty or wrongly-sized batch, or on invalid `params`, on
/// the calling thread (the cluster node turns that into an error frame).
pub fn serve_once(
    index: &Arc<PathWeaverIndex>,
    queries: &VectorSet,
    params: &SearchParams,
) -> Result<SearchOutput, ServeError> {
    Ok(index.search_pipelined(queries, params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PathWeaverConfig;
    use pathweaver_datasets::{DatasetProfile, Scale};

    fn built(devices: usize) -> (pathweaver_datasets::Workload, Arc<PathWeaverIndex>) {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 10, 17);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(devices)).unwrap();
        (w, Arc::new(idx))
    }

    #[test]
    fn single_query_roundtrip() {
        let (w, idx) = built(2);
        let server = Server::new(Arc::clone(&idx), ServeConfig::default()).unwrap();
        let t = server.try_submit(w.queries.row(0)).unwrap();
        let res = t.wait().unwrap();
        assert!(!res.hits.is_empty());
        assert!(!res.timed_out);
        server.shutdown();
    }

    #[test]
    fn queue_full_sheds_load() {
        let (w, idx) = built(2);
        // Capacity below max_batch with an hour-long flush window: the
        // admission thread cannot flush (pending never reaches max_batch and
        // the interval is far away), so the third submission must bounce —
        // deterministically.
        let config = ServeConfig {
            max_batch: 16,
            queue_capacity: 2,
            flush_interval_ms: 3_600_000.0,
            ..ServeConfig::default()
        };
        let server = Server::new(Arc::clone(&idx), config).unwrap();
        let t0 = server.try_submit(w.queries.row(0)).unwrap();
        let t1 = server.try_submit(w.queries.row(1)).unwrap();
        assert_eq!(server.queue_depth(), 2);
        assert_eq!(server.try_submit(w.queries.row(2)).unwrap_err(), SubmitError::QueueFull);
        server.shutdown(); // Must answer everything accepted.
        assert!(!t0.wait().unwrap().hits.is_empty());
        assert!(!t1.wait().unwrap().hits.is_empty());
    }

    #[test]
    fn shutdown_rejects_new_queries() {
        let (w, idx) = built(2);
        let server = Server::new(Arc::clone(&idx), ServeConfig::default()).unwrap();
        // Flip the flag the way a concurrent shutdown's first step would.
        server.inner.state.lock().shutting_down = true;
        assert_eq!(server.try_submit(w.queries.row(0)).unwrap_err(), SubmitError::ShuttingDown);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_queries() {
        let (w, idx) = built(2);
        let config = ServeConfig {
            max_batch: 64,
            flush_interval_ms: 3_600_000.0, // Never flush on time alone.
            ..ServeConfig::default()
        };
        let server = Server::new(Arc::clone(&idx), config).unwrap();
        let tickets: Vec<QueryTicket> =
            (0..w.queries.len()).map(|r| server.try_submit(w.queries.row(r)).unwrap()).collect();
        server.shutdown(); // Must flush + drain, not strand.
        for t in tickets {
            assert!(!t.wait().unwrap().hits.is_empty());
        }
    }

    #[test]
    fn deadline_yields_partial_results() {
        let (w, idx) = built(2);
        let config = ServeConfig {
            max_batch: 1,
            deadline_ms: Some(0.0000001), // Expires before stage 0 runs.
            ..ServeConfig::default()
        };
        // validate() demands positive deadline; tiny but positive.
        let server = Server::new(Arc::clone(&idx), config).unwrap();
        let res = server.try_submit(w.queries.row(0)).unwrap().wait().unwrap();
        assert!(res.timed_out, "deadline should have fired");
        assert!(res.hits.is_empty(), "no stage ran, no hits");
        server.shutdown();
    }

    #[test]
    fn micro_batching_coalesces_queries() {
        let (w, idx) = built(2);
        let config = ServeConfig {
            max_batch: w.queries.len(),
            flush_interval_ms: 3_600_000.0,
            ..ServeConfig::default()
        };
        let server = Server::new(Arc::clone(&idx), config).unwrap();
        let tickets: Vec<QueryTicket> =
            (0..w.queries.len()).map(|r| server.try_submit(w.queries.row(r)).unwrap()).collect();
        let results: Vec<QueryResult> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        // One flush: every query rode the same executor batch.
        let ids: std::collections::BTreeSet<u64> = results.iter().map(|r| r.batch_id).collect();
        assert_eq!(ids.len(), 1, "expected one coalesced batch, got {ids:?}");
        server.shutdown();
    }
}
