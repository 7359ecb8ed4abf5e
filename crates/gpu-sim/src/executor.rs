//! Pipelined ring executor.
//!
//! One OS thread per simulated device, connected in a ring — the concurrency
//! skeleton of pipelining-based path extension (paper §3.1). Each device owns
//! a work queue; a chunk enters the ring on its origin device and, after
//! every stage, hops to the ring successor's queue. The *simulated* time of
//! each stage comes from the [`StageRecord`]s the caller's stage function
//! produces; the OS-level parallelism only provides real concurrency for the
//! computation itself.
//!
//! Two frontends share the same device-worker loop:
//!
//! - [`run_ring_stream`] spawns scoped workers for one batch and joins them
//!   before returning — the one-shot mode `search_pipelined` uses, able to
//!   borrow non-`'static` state.
//! - [`RingExecutor`] keeps the device threads alive across submissions and
//!   accepts new batches while earlier ones are still circulating, so stage
//!   `s` of batch `b` on device `d` overlaps with stage `s` of batch `b + 1`
//!   on device `d - 1` — the paper's inter-batch pipelining, and the engine
//!   under the serving layer.
//!
//! Device queues are unbounded: admission control (and therefore
//! backpressure) belongs to the serving layer above, and a bounded ring edge
//! could deadlock once batches stop moving in lock-step. In-flight work is
//! tracked by a counter so [`RingExecutor`]'s drop can drain before stopping
//! the threads.
//!
//! A panic inside a stage function fails its chunk, not the ring: the device
//! thread catches it, delivers the chunk as failed (so the in-flight count
//! still drops) and keeps serving. [`run_ring_stream`] re-raises the panic
//! on the caller once the batch's other chunks have drained;
//! [`BatchHandle::wait`] reports it as a [`StageFailed`] value.

use crate::timeline::{PipelineTimeline, StageRecord};
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A payload circulating the ring: the chunk's origin device plus the
/// caller-defined state (queries + current best hits).
#[derive(Debug, Clone, PartialEq)]
pub struct RingMessage<T> {
    /// Device on which this chunk entered the pipeline.
    pub origin_chunk: usize,
    /// Caller-defined state.
    pub payload: T,
}

/// A stage function panicked on one chunk of a batch. The chunk left the
/// ring at that stage; the device thread that caught the panic keeps
/// serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageFailed {
    /// Device whose stage function panicked.
    pub device: usize,
    /// Stage index at which the chunk failed.
    pub stage: usize,
    /// Origin of the failed chunk.
    pub origin_chunk: usize,
    /// The panic message, when it was a string.
    pub message: String,
}

impl std::fmt::Display for StageFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stage {} of chunk {} panicked on device {}: {}",
            self.stage, self.origin_chunk, self.device, self.message
        )
    }
}

impl std::error::Error for StageFailed {}

/// A failed chunk as delivered: the report plus the original panic payload,
/// which [`run_ring_stream`] re-raises.
struct Failure {
    report: StageFailed,
    payload: Box<dyn Any + Send>,
}

/// What a chunk's final delivery carries.
type Delivery<T> = Result<RingMessage<T>, Failure>;

/// One unit of device work: a chunk at a specific stage of a specific batch,
/// plus the channels its records and final state report back on.
struct Task<T> {
    batch: u64,
    stage: usize,
    msg: RingMessage<T>,
    rec_tx: Sender<StageRecord>,
    fin_tx: Sender<Delivery<T>>,
}

/// What a device queue carries.
enum DeviceMsg<T> {
    Task(Task<T>),
    Stop,
}

/// Count of chunks somewhere between submission and final delivery; drop
/// drains on it before stopping the device threads, so a `Stop` can never
/// overtake a chunk that is still hopping the ring.
#[derive(Default)]
struct Inflight {
    count: Mutex<usize>,
    zero: Condvar,
}

impl Inflight {
    fn add(&self, n: usize) {
        *self.count.lock() += n;
    }

    fn finish_one(&self) {
        let mut c = self.count.lock();
        *c -= 1;
        if *c == 0 {
            self.zero.notify_all();
        }
    }

    fn wait_zero(&self) {
        let mut c = self.count.lock();
        while *c > 0 {
            self.zero.wait(&mut c);
        }
    }
}

/// The device loop both frontends run: take a task, execute its stage, stamp
/// and emit the record, then forward to the ring successor or deliver. A
/// stage that panics delivers its chunk as failed at once.
///
/// Sends to `rec_tx`/`fin_tx` ignore disconnects (a caller may drop its
/// [`BatchHandle`] without waiting); the inflight counter is decremented
/// exactly once per chunk, at final delivery.
fn device_worker<T, F>(
    device: usize,
    num_stages: usize,
    rx: &Receiver<DeviceMsg<T>>,
    next_tx: &Sender<DeviceMsg<T>>,
    inflight: &Inflight,
    stage_fn: &F,
) where
    F: Fn(usize, usize, &mut RingMessage<T>) -> Option<StageRecord>,
{
    while let Ok(msg) = rx.recv() {
        let mut task = match msg {
            DeviceMsg::Stop => break,
            DeviceMsg::Task(t) => t,
        };
        // The chunk's payload is dropped, not reused, after a panic, so a
        // half-updated state is never observed.
        let ran = catch_unwind(AssertUnwindSafe(|| stage_fn(device, task.stage, &mut task.msg)));
        match ran {
            Ok(Some(mut record)) => {
                record.batch = task.batch;
                let _ = task.rec_tx.send(record);
            }
            Ok(None) => {}
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                let report = StageFailed {
                    device,
                    stage: task.stage,
                    origin_chunk: task.msg.origin_chunk,
                    message,
                };
                let _ = task.fin_tx.send(Err(Failure { report, payload }));
                inflight.finish_one();
                continue;
            }
        }
        task.stage += 1;
        if task.stage < num_stages {
            next_tx.send(DeviceMsg::Task(task)).expect("ring successor alive");
        } else {
            let _ = task.fin_tx.send(Ok(task.msg));
            inflight.finish_one();
        }
    }
}

/// Collects `expected` finished chunks (sorted by origin) and the batch's
/// records (sorted by `(stage, origin_chunk)`) into a timeline, or the
/// failure of the lowest-origin failed chunk once every chunk has arrived.
///
/// Every record of a chunk is sent before that chunk's final delivery on the
/// same worker chain (each hop is a channel send/recv pair, which orders the
/// sends), so once all finals have arrived the record drain is complete.
fn collect_batch<T>(
    expected: usize,
    fin_rx: &Receiver<Delivery<T>>,
    rec_rx: &Receiver<StageRecord>,
) -> Result<(Vec<RingMessage<T>>, PipelineTimeline), Failure> {
    let mut out = Vec::with_capacity(expected);
    let mut failed: Option<Failure> = None;
    for _ in 0..expected {
        match fin_rx.recv().expect("executor delivers every chunk") {
            Ok(msg) => out.push(msg),
            Err(f) => {
                if failed.as_ref().is_none_or(|g| g.report.origin_chunk > f.report.origin_chunk) {
                    failed = Some(f);
                }
            }
        }
    }
    if let Some(f) = failed {
        return Err(f);
    }
    out.sort_by_key(|m| m.origin_chunk);
    let mut records = Vec::new();
    while let Some(r) = rec_rx.try_recv() {
        records.push(r);
    }
    records.sort_by_key(|r| (r.batch, r.stage, r.origin_chunk, r.device));
    let mut timeline = PipelineTimeline::new();
    for r in records {
        timeline.push(r);
    }
    Ok((out, timeline))
}

/// Runs one batch of `chunks` through an `num_stages`-stage ring of
/// `num_devices` scoped device workers and joins them before returning.
///
/// `chunks` pairs each chunk's origin index with its payload; the chunk
/// enters the ring on device `origin % num_devices` and hops to the ring
/// successor after every stage. Origins need not cover every device — empty
/// chunks are simply not submitted. `stage_fn(device, stage, msg)` returns
/// `Some(record)` for work performed or `None` for a stage that should leave
/// no trace in the timeline; records are stamped with `batch`.
///
/// Returns the final messages (sorted by origin chunk) and the timeline
/// (records sorted by `(stage, origin_chunk)`).
///
/// # Panics
///
/// Panics if `num_devices == 0`, `num_stages == 0`, or `chunks` is empty.
/// A panic raised inside `stage_fn` is re-raised on the caller, with its
/// original payload, after the batch's other chunks have drained.
pub fn run_ring_stream<T, F>(
    num_devices: usize,
    num_stages: usize,
    batch: u64,
    chunks: Vec<(usize, T)>,
    stage_fn: F,
) -> (Vec<RingMessage<T>>, PipelineTimeline)
where
    T: Send,
    F: Fn(usize, usize, &mut RingMessage<T>) -> Option<StageRecord> + Sync,
{
    assert!(num_devices > 0, "need at least one device");
    assert!(num_stages > 0, "need at least one stage");
    assert!(!chunks.is_empty(), "need at least one chunk");

    let (txs, rxs): (Vec<_>, Vec<_>) =
        (0..num_devices).map(|_| channel::unbounded::<DeviceMsg<T>>()).unzip();
    let (rec_tx, rec_rx) = channel::unbounded::<StageRecord>();
    let (fin_tx, fin_rx) = channel::unbounded::<Delivery<T>>();
    let inflight = Inflight::default();
    let expected = chunks.len();
    inflight.add(expected);

    std::thread::scope(|scope| {
        let stage_fn = &stage_fn;
        let inflight = &inflight;
        let mut rxs = rxs.into_iter().map(Some).collect::<Vec<_>>();
        for (d, rx_slot) in rxs.iter_mut().enumerate() {
            let rx = rx_slot.take().expect("rx taken once");
            let next_tx = txs[(d + 1) % num_devices].clone();
            scope.spawn(move || device_worker(d, num_stages, &rx, &next_tx, inflight, stage_fn));
        }
        for (origin, payload) in chunks {
            let entry = origin % num_devices;
            txs[entry]
                .send(DeviceMsg::Task(Task {
                    batch,
                    stage: 0,
                    msg: RingMessage { origin_chunk: origin, payload },
                    rec_tx: rec_tx.clone(),
                    fin_tx: fin_tx.clone(),
                }))
                .expect("device thread alive");
        }
        inflight.wait_zero();
        for tx in &txs {
            tx.send(DeviceMsg::Stop).expect("device thread alive");
        }
    });
    collect_batch(expected, &fin_rx, &rec_rx).unwrap_or_else(|f| resume_unwind(f.payload))
}

/// Shared state between a [`RingExecutor`] and its device threads.
struct RingShared<T> {
    txs: Vec<Sender<DeviceMsg<T>>>,
    inflight: Arc<Inflight>,
    num_devices: usize,
}

/// A persistent ring of device threads that keeps multiple batches in
/// flight.
///
/// Unlike [`run_ring_stream`], the device threads outlive any single batch:
/// [`submit`](Self::submit) enqueues a batch's chunks and returns a
/// [`BatchHandle`] immediately, so while batch `b`'s chunks are on devices
/// `d, d+1, …`, batch `b+1`'s chunks already occupy the devices behind them.
/// Dropping the executor drains every in-flight chunk, then stops and joins
/// the threads.
pub struct RingExecutor<T: Send + 'static> {
    shared: RingShared<T>,
    threads: Vec<std::thread::JoinHandle<()>>,
    batch_seq: AtomicU64,
}

impl<T: Send + 'static> RingExecutor<T> {
    /// Spawns `num_devices` device threads running `stage_fn` over
    /// `num_stages`-stage batches.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices == 0` or `num_stages == 0`.
    pub fn new<F>(num_devices: usize, num_stages: usize, stage_fn: F) -> Self
    where
        F: Fn(usize, usize, &mut RingMessage<T>) -> Option<StageRecord> + Send + Sync + 'static,
    {
        assert!(num_devices > 0, "need at least one device");
        assert!(num_stages > 0, "need at least one stage");
        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..num_devices).map(|_| channel::unbounded::<DeviceMsg<T>>()).unzip();
        let inflight = Arc::new(Inflight::default());
        let stage_fn = Arc::new(stage_fn);
        let threads = rxs
            .into_iter()
            .enumerate()
            .map(|(d, rx)| {
                let next_tx = txs[(d + 1) % num_devices].clone();
                let inflight = Arc::clone(&inflight);
                let stage_fn = Arc::clone(&stage_fn);
                std::thread::Builder::new()
                    .name(format!("pathweaver-device-{d}"))
                    .spawn(move || {
                        device_worker(d, num_stages, &rx, &next_tx, &inflight, &*stage_fn);
                    })
                    .expect("spawn device thread")
            })
            .collect();
        Self {
            shared: RingShared { txs, inflight, num_devices },
            threads,
            batch_seq: AtomicU64::new(0),
        }
    }

    /// Number of device threads.
    pub fn num_devices(&self) -> usize {
        self.shared.num_devices
    }

    /// Submits one batch of `chunks` and returns without waiting; each chunk
    /// enters the ring on device `origin % num_devices`.
    ///
    /// The returned handle collects the batch's outputs; its records carry
    /// this submission's sequence number in [`StageRecord::batch`].
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is empty.
    pub fn submit(&self, chunks: Vec<(usize, T)>) -> BatchHandle<T> {
        assert!(!chunks.is_empty(), "need at least one chunk");
        // Relaxed: the sequence only needs per-submission uniqueness; all
        // data the batch touches flows through the channels, which order it.
        let batch = self.batch_seq.fetch_add(1, Ordering::Relaxed);
        let (rec_tx, rec_rx) = channel::unbounded::<StageRecord>();
        let (fin_tx, fin_rx) = channel::unbounded::<Delivery<T>>();
        let expected = chunks.len();
        self.shared.inflight.add(expected);
        for (origin, payload) in chunks {
            let entry = origin % self.shared.num_devices;
            self.shared.txs[entry]
                .send(DeviceMsg::Task(Task {
                    batch,
                    stage: 0,
                    msg: RingMessage { origin_chunk: origin, payload },
                    rec_tx: rec_tx.clone(),
                    fin_tx: fin_tx.clone(),
                }))
                .expect("device thread alive");
        }
        BatchHandle { batch, expected, fin_rx, rec_rx }
    }
}

impl<T: Send + 'static> Drop for RingExecutor<T> {
    fn drop(&mut self) {
        // Drain first: a Stop enqueued while chunks still hop the ring could
        // arrive at a device before a chunk forwarded to it later.
        self.shared.inflight.wait_zero();
        for tx in &self.shared.txs {
            let _ = tx.send(DeviceMsg::Stop);
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Pending results of one submitted batch.
pub struct BatchHandle<T> {
    batch: u64,
    expected: usize,
    fin_rx: Receiver<Delivery<T>>,
    rec_rx: Receiver<StageRecord>,
}

impl<T> BatchHandle<T> {
    /// The batch's submission sequence number (stamped into its records).
    pub fn batch_id(&self) -> u64 {
        self.batch
    }

    /// Blocks until every chunk of the batch has completed all stages (or
    /// failed); returns the final messages (sorted by origin chunk) and the
    /// batch's timeline (records sorted by `(stage, origin_chunk)`).
    ///
    /// # Errors
    ///
    /// [`StageFailed`] for the lowest-origin chunk whose stage function
    /// panicked; the batch's other results are discarded.
    pub fn wait(self) -> Result<(Vec<RingMessage<T>>, PipelineTimeline), StageFailed> {
        collect_batch(self.expected, &self.fin_rx, &self.rec_rx).map_err(|f| f.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TimeBreakdown;
    use crate::counters::CostCounters;

    fn record(device: usize, stage: usize, origin: usize) -> StageRecord {
        StageRecord {
            device,
            stage,
            origin_chunk: origin,
            batch: 0,
            breakdown: TimeBreakdown { dist_s: 1.0, other_s: 0.0, comm_s: 0.0 },
            counters: CostCounters::new(),
        }
    }

    /// One chunk entering on each device, origin `d` carrying `initial[d]`.
    fn one_per_device<T>(initial: Vec<T>) -> Vec<(usize, T)> {
        initial.into_iter().enumerate().collect()
    }

    #[test]
    fn every_chunk_visits_every_device() {
        let n = 4;
        let chunks = one_per_device(vec![Vec::<usize>::new(); n]);
        let (out, timeline) = run_ring_stream(n, n, 0, chunks, |device, stage, msg| {
            msg.payload.push(device);
            Some(record(device, stage, msg.origin_chunk))
        });
        assert_eq!(out.len(), n);
        for m in &out {
            // Chunk originating at d visits d, d+1, ..., d+3 (mod 4).
            let want: Vec<usize> = (0..n).map(|s| (m.origin_chunk + s) % n).collect();
            assert_eq!(m.payload, want, "origin {}", m.origin_chunk);
        }
        assert_eq!(timeline.records().len(), n * n);
        assert_eq!(timeline.num_stages(), n);
    }

    #[test]
    fn single_device_runs_all_stages_locally() {
        let (out, timeline) = run_ring_stream(1, 3, 0, vec![(0, 0u32)], |device, stage, msg| {
            msg.payload += 1;
            Some(record(device, stage, msg.origin_chunk))
        });
        assert_eq!(out[0].payload, 3);
        assert_eq!(timeline.records().len(), 3);
    }

    #[test]
    fn makespan_counts_lockstep_stages() {
        let n = 3;
        let (_, timeline) =
            run_ring_stream(n, n, 0, one_per_device(vec![(); n]), |device, stage, msg| {
                Some(record(device, stage, msg.origin_chunk))
            });
        // Each stage's worst device takes 1.0s; 3 stages → 3.0s.
        assert!((timeline.makespan_s() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn payloads_are_not_lost_or_duplicated() {
        let n = 5;
        let initial: Vec<u64> = (0..n as u64).map(|d| d * 100).collect();
        let (out, _) = run_ring_stream(n, 2, 0, one_per_device(initial), |device, stage, msg| {
            Some(record(device, stage, msg.origin_chunk))
        });
        let payloads: Vec<u64> = out.iter().map(|m| m.payload).collect();
        assert_eq!(payloads, vec![0, 100, 200, 300, 400]);
    }

    #[test]
    fn stream_accepts_sparse_chunks() {
        // One chunk (origin 3) on a 4-device ring still visits all four
        // devices, and the other devices produce no records.
        let (out, timeline) =
            run_ring_stream(4, 4, 7, vec![(3usize, Vec::<usize>::new())], |device, stage, msg| {
                msg.payload.push(device);
                Some(record(device, stage, msg.origin_chunk))
            });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].origin_chunk, 3);
        assert_eq!(out[0].payload, vec![3, 0, 1, 2]);
        assert_eq!(timeline.records().len(), 4);
        assert!(timeline.records().iter().all(|r| r.batch == 7));
    }

    #[test]
    fn none_stages_leave_no_records() {
        let (out, timeline) = run_ring_stream(2, 2, 0, vec![(0, ()), (1, ())], |_, stage, msg| {
            (stage == 0 && msg.origin_chunk == 0).then(|| record(0, 0, 0))
        });
        assert_eq!(out.len(), 2);
        assert_eq!(timeline.records().len(), 1);
    }

    #[test]
    fn persistent_executor_matches_scoped_run() {
        let n = 4;
        let exec = RingExecutor::new(
            n,
            n,
            move |device: usize, stage, msg: &mut RingMessage<Vec<usize>>| {
                msg.payload.push(device);
                Some(record(device, stage, msg.origin_chunk))
            },
        );
        let chunks: Vec<(usize, Vec<usize>)> = (0..n).map(|d| (d, Vec::new())).collect();
        let (out, timeline) = exec.submit(chunks).wait().unwrap();
        assert_eq!(out.len(), n);
        for m in &out {
            let want: Vec<usize> = (0..n).map(|s| (m.origin_chunk + s) % n).collect();
            assert_eq!(m.payload, want, "origin {}", m.origin_chunk);
        }
        assert_eq!(timeline.records().len(), n * n);
    }

    #[test]
    fn batches_overlap_in_flight() {
        let n = 4;
        let exec = RingExecutor::new(n, n, |device: usize, stage, msg: &mut RingMessage<u64>| {
            msg.payload += 1;
            Some(record(device, stage, msg.origin_chunk))
        });
        // Submit several batches before waiting on any of them.
        let handles: Vec<BatchHandle<u64>> =
            (0..6).map(|b| exec.submit(vec![(3usize, b * 1000)])).collect();
        for (b, h) in handles.into_iter().enumerate() {
            assert_eq!(h.batch_id(), b as u64);
            let (out, timeline) = h.wait().unwrap();
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].payload, b as u64 * 1000 + n as u64);
            assert_eq!(timeline.records().len(), n);
            assert!(timeline.records().iter().all(|r| r.batch == b as u64));
        }
    }

    #[test]
    fn drop_drains_inflight_batches() {
        let exec = RingExecutor::new(2, 2, |device: usize, stage, msg: &mut RingMessage<u32>| {
            msg.payload += 1;
            Some(record(device, stage, msg.origin_chunk))
        });
        let h1 = exec.submit(vec![(0, 0u32), (1, 10)]);
        let h2 = exec.submit(vec![(0, 100)]);
        drop(exec); // Must drain, not strand, the two batches.
        let (out1, _) = h1.wait().unwrap();
        assert_eq!(out1.iter().map(|m| m.payload).collect::<Vec<_>>(), vec![2, 12]);
        let (out2, _) = h2.wait().unwrap();
        assert_eq!(out2[0].payload, 102);
    }

    #[test]
    fn dropped_handle_does_not_wedge_executor() {
        let exec = RingExecutor::new(2, 2, |device: usize, stage, msg: &mut RingMessage<u32>| {
            msg.payload += 1;
            Some(record(device, stage, msg.origin_chunk))
        });
        drop(exec.submit(vec![(0, 0u32)])); // Receiver gone; sends are ignored.
        let (out, _) = exec.submit(vec![(1, 5u32)]).wait().unwrap();
        assert_eq!(out[0].payload, 7);
    }

    /// Runs `body` on its own thread and fails the test if it has not
    /// returned within `secs` — a hang is the defect under test.
    fn within<R: Send + 'static>(secs: u64, body: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(body());
        });
        rx.recv_timeout(std::time::Duration::from_secs(secs))
            .unwrap_or_else(|_| panic!("did not return within {secs} s"))
    }

    #[test]
    fn stream_reraises_a_stage_panic_after_draining() {
        let outcome = within(20, || {
            catch_unwind(|| {
                run_ring_stream(3, 3, 0, one_per_device(vec![(); 3]), |device, stage, msg| {
                    assert!(!(stage == 1 && msg.origin_chunk == 2), "injected stage failure");
                    Some(record(device, stage, msg.origin_chunk))
                })
            })
        });
        let payload = outcome.expect_err("the stage panic must reach the caller");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "injected stage failure");
    }

    #[test]
    fn failed_executor_batch_is_reported_and_the_ring_keeps_serving() {
        let (failed, next) = within(20, || {
            let exec =
                RingExecutor::new(2, 2, |device: usize, stage, msg: &mut RingMessage<u32>| {
                    assert!(msg.payload != 13 || stage != 1, "injected stage failure");
                    msg.payload += 1;
                    Some(record(device, stage, msg.origin_chunk))
                });
            let failed = exec.submit(vec![(0, 0u32), (1, 12)]).wait();
            let next = exec.submit(vec![(0, 100u32), (1, 200)]).wait();
            drop(exec); // Must drain and join, not wait on the failed chunk.
            (failed, next)
        });
        let err = failed.expect_err("the panicking chunk fails its batch");
        assert_eq!((err.device, err.stage, err.origin_chunk), (0, 1, 1));
        assert_eq!(err.message, "injected stage failure");
        let (out, timeline) = next.expect("the next batch completes");
        assert_eq!(out.iter().map(|m| m.payload).collect::<Vec<_>>(), vec![102, 202]);
        assert_eq!(timeline.records().len(), 4);
    }
}
