//! Persistent fork-join worker pool.
//!
//! The workspace needs simple fork-join parallelism (graph construction,
//! brute-force ground truth, per-shard preprocessing, batch search) but the
//! approved dependency set contains no thread-pool crate. Earlier revisions
//! spawned fresh scoped threads on every call; at batch-search granularity the
//! per-call OS thread spawn dominated the useful work, so the helpers now
//! dispatch onto a lazily-initialized global pool of persistent workers.
//!
//! Design notes (see also DESIGN.md, "Threading model"):
//!
//! - **Lazy global pool.** No threads exist until the first parallel call
//!   that actually wants parallelism. The pool grows on demand up to the
//!   per-call thread budget and workers then idle on a condition variable.
//! - **Scoped borrows.** [`parallel_for`]'s closure may borrow from the
//!   caller's stack. The job descriptor lives in the caller's frame; its
//!   address is type-erased, handed to workers, and the caller blocks until
//!   every handed-out reference has been returned, which bounds all worker
//!   access within the caller's lifetime.
//! - **Caller participates.** The calling thread drains blocks alongside the
//!   workers, so a pool of `n - 1` workers saturates `n` threads and a call
//!   never sits idle waiting for a busy pool.
//! - **Dynamic block scheduling.** Indices are handed out in contiguous
//!   blocks from a shared atomic cursor (~8 blocks per thread), so uneven
//!   per-index cost (e.g. beam searches converging at different iteration
//!   counts) still balances.
//! - **Panic propagation.** A panic in the closure — on any thread — is
//!   captured, remaining blocks are abandoned, and the payload is re-thrown
//!   on the calling thread once the job has quiesced. Workers survive
//!   panics; the pool never shrinks.
//! - **Nested calls run serial.** A parallel call from inside a worker
//!   executes inline on that worker. This keeps nesting deadlock-free and
//!   the thread count bounded by the top-level budget.
//! - **`PATHWEAVER_THREADS`.** Read per call: `1` forces fully serial
//!   execution (no pool interaction at all, useful for debugging and for
//!   deterministic wall-clock baselines); larger values cap — and on first
//!   use, size — the worker count.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::{Condvar, Mutex};

/// Returns the number of worker threads to use by default.
///
/// Honours the `PATHWEAVER_THREADS` environment variable when it parses as a
/// positive integer; otherwise falls back to [`std::thread::available_parallelism`].
pub fn available_threads() -> usize {
    if let Ok(v) = std::env::var("PATHWEAVER_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

thread_local! {
    /// Set while a pool worker (or a closure it runs) is on this thread's
    /// stack; nested parallel calls check it and degrade to serial.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A fork-join job descriptor, allocated in the calling thread's frame.
///
/// Workers receive `*const Job` through the pool queue. The pointee stays
/// valid because [`parallel_for`] does not return until `outstanding` — the
/// number of queue entries not yet fully processed — reaches zero.
struct Job {
    /// Next unclaimed index; blocks are claimed with `fetch_add(block)`.
    cursor: AtomicUsize,
    /// One past the last index.
    len: usize,
    /// Indices claimed per cursor bump.
    block: usize,
    /// Type-erased `&dyn Fn(usize)` borrowed from the caller's frame.
    ///
    /// The `'static` here is a lie told to the type system; validity is
    /// enforced by the completion handshake described above.
    body: *const (dyn Fn(usize) + Sync + 'static),
    /// Queue entries handed out and not yet returned by a worker.
    outstanding: AtomicUsize,
    /// Set on first panic; drains abandon remaining blocks when it is set.
    abandoned: AtomicBool,
    /// First panic payload, re-thrown on the calling thread.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion signal: workers decrement `outstanding` and notify under
    /// this lock, and the caller reads it under this lock.
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: `Job` is shared by address between the caller and pool workers. All
// mutable state is behind atomics or locks, and `body` points at a `Sync`
// closure, so concurrent shared access is sound. The raw pointer's lifetime
// is upheld by the completion handshake in `parallel_for`.
unsafe impl Send for Job {}
// SAFETY: see the `Send` justification above.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs blocks until the range — or the job — is exhausted.
    /// Returns the first panic payload caught on this thread, if any.
    fn drain(&self) -> Option<Box<dyn Any + Send>> {
        // SAFETY: the caller of `parallel_for` keeps the closure alive until
        // `outstanding` reaches zero, and this method only runs before the
        // worker's decrement (or on the caller's own stack).
        let body = unsafe { &*self.body };
        while !self.abandoned.load(Ordering::Relaxed) {
            let start = self.cursor.fetch_add(self.block, Ordering::Relaxed);
            if start >= self.len {
                return None;
            }
            let end = (start + self.block).min(self.len);
            for i in start..end {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(i))) {
                    // Relaxed: `abandoned` is a best-effort stop flag — late
                    // readers just claim one extra block; the panic payload
                    // itself is published through the `panic` mutex.
                    self.abandoned.store(true, Ordering::Relaxed);
                    return Some(payload);
                }
            }
        }
        None
    }

    /// Records the first panic payload; later ones are dropped.
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Returns one queue entry; the last return wakes the caller.
    ///
    /// The decrement and the wake-up both happen under `done_lock`. The
    /// caller reads `outstanding` only while holding that lock, so it sees
    /// zero — and may return and free this stack-held job — only after this
    /// thread has released the lock and stopped touching the job.
    fn finish_entry(&self) {
        let _guard = self.done_lock.lock();
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.done_cv.notify_all();
        }
    }
}

/// Queue entry: the address of a caller-owned [`Job`].
struct JobRef(*const Job);

// SAFETY: the pointee is `Sync` and outlives every queue entry (completion
// handshake), so the address may cross threads.
unsafe impl Send for JobRef {}

/// Shared state of the global pool.
struct Pool {
    queue: Mutex<VecDeque<JobRef>>,
    /// Signals workers that the queue may be non-empty.
    work_cv: Condvar,
    /// Workers spawned so far; grows on demand, never shrinks.
    spawned: Mutex<usize>,
}

impl Pool {
    /// Ensures at least `want` workers exist; returns the usable count
    /// (less than `want` only if thread spawning fails).
    fn ensure_workers(&'static self, want: usize) -> usize {
        let mut have = self.spawned.lock();
        while *have < want {
            let name = format!("pathweaver-worker-{}", *have);
            let builder = std::thread::Builder::new().name(name);
            match builder.spawn(move || self.worker_loop()) {
                Ok(_) => *have += 1,
                Err(_) => break,
            }
        }
        (*have).min(want)
    }

    /// The persistent worker body: pop a job, drain it, repeat forever.
    fn worker_loop(&self) {
        IN_WORKER.with(|f| f.set(true));
        loop {
            let job = {
                let mut queue = self.queue.lock();
                loop {
                    if let Some(j) = queue.pop_front() {
                        break j;
                    }
                    self.work_cv.wait(&mut queue);
                }
            };
            // SAFETY: the queue entry guarantees the job is still live; the
            // caller cannot return until `finish_entry` below runs.
            let job = unsafe { &*job.0 };
            if let Some(payload) = job.drain() {
                job.record_panic(payload);
            }
            job.finish_entry();
        }
    }
}

/// Returns the lazily-created global pool.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        work_cv: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

/// Runs `body(i)` for every `i in 0..len`, distributing indices over the
/// persistent worker pool.
///
/// Work is handed out in dynamically-sized blocks from a shared atomic
/// cursor, so uneven per-index cost (e.g. beam searches that converge at
/// different iteration counts) still balances. The calling thread processes
/// blocks alongside the workers.
///
/// `body` receives the global index and may borrow from the caller's stack.
/// The call returns after every index has been processed (or, on panic,
/// after remaining blocks are abandoned and the job has quiesced).
///
/// Runs serially — without touching the pool — when `PATHWEAVER_THREADS=1`,
/// when `len < 2`, or when called from inside another parallel call.
///
/// # Panics
///
/// Re-throws the first panic raised by `body` on the calling thread.
pub fn parallel_for<F>(len: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    let threads = available_threads().min(len.max(1));
    if threads <= 1 || len < 2 || IN_WORKER.with(|f| f.get()) {
        for i in 0..len {
            body(i);
        }
        return;
    }

    let pool = pool();
    // The caller is one of the `threads`; the pool supplies the rest.
    let helpers = pool.ensure_workers(threads - 1);
    if helpers == 0 {
        for i in 0..len {
            body(i);
        }
        return;
    }

    // ~8 blocks per participating thread balances load without excessive
    // cursor contention.
    let block = (len / ((helpers + 1) * 8)).max(1);
    let body_ref: &(dyn Fn(usize) + Sync) = &body;
    // SAFETY: erasing the borrow's lifetime is sound because this function
    // blocks until `outstanding == 0`, i.e. until no worker can still hold
    // a reference to the job or the closure.
    let body_ptr = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync + 'static)>(
            body_ref,
        )
    };
    let job = Job {
        cursor: AtomicUsize::new(0),
        len,
        block,
        body: body_ptr,
        outstanding: AtomicUsize::new(helpers),
        abandoned: AtomicBool::new(false),
        panic: Mutex::new(None),
        done_lock: Mutex::new(()),
        done_cv: Condvar::new(),
    };

    {
        let mut queue = pool.queue.lock();
        for _ in 0..helpers {
            queue.push_back(JobRef(&job));
        }
    }
    pool.work_cv.notify_all();

    // Work the job from this thread too; a panic here is deferred until the
    // workers have quiesced so the job can be dropped safely.
    if let Some(payload) = job.drain() {
        job.record_panic(payload);
    }

    {
        let mut guard = job.done_lock.lock();
        while job.outstanding.load(Ordering::Acquire) > 0 {
            job.done_cv.wait(&mut guard);
        }
    }

    let payload = job.panic.lock().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Maps `f` over `0..len` in parallel and collects the results in index order.
pub fn parallel_map<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    {
        let slots: Vec<SlotPtr<T>> = out.iter_mut().map(|s| SlotPtr(s as *mut Option<T>)).collect();
        let slots = &slots;
        let f = &f;
        parallel_for(len, move |i| {
            slots[i].write(f(i));
        });
    }
    out.into_iter().map(|s| s.expect("parallel_map slot filled")).collect()
}

/// Raw pointer wrapper so per-index result slots can cross the worker
/// boundary.
struct SlotPtr<T>(*mut Option<T>);

impl<T> SlotPtr<T> {
    /// Writes `value` into the slot.
    fn write(&self, value: T) {
        // SAFETY: `parallel_for` hands each index to exactly one thread, so
        // each slot pointer is written once and never read until the call
        // returns; the target outlives the call.
        unsafe { *self.0 = Some(value) };
    }
}
// SAFETY: Each `SlotPtr` targets a distinct element of a `Vec` that outlives
// the `parallel_for` call, and `parallel_for` guarantees exclusive access per
// index.
unsafe impl<T: Send> Sync for SlotPtr<T> {}
// SAFETY: See `Sync` justification above; the pointer is only dereferenced
// while the owning call is live.
unsafe impl<T: Send> Send for SlotPtr<T> {}

/// Splits `data` into contiguous mutable chunks of `chunk_len` elements and
/// processes them in parallel.
///
/// `body` receives `(chunk_index, chunk)`. The final chunk may be shorter.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_len).enumerate().collect();
    let n = chunks.len();
    // Each of the `n` invocations pops exactly one chunk, so all chunks are
    // processed; ownership transfer through the mutex keeps borrows exclusive.
    let work = Mutex::new(chunks);
    parallel_for(n, |_| {
        let item = work.lock().pop();
        if let Some((i, c)) = item {
            body(i, c);
        }
    });
}

/// Spawn-per-call reference implementation retained as a benchmark baseline.
///
/// Semantically identical to [`parallel_for`] but starts fresh scoped
/// threads on every invocation, paying the OS thread spawn cost each time.
/// `crates/bench` compares the two to quantify the persistent pool's
/// dispatch advantage; nothing else should call this.
#[doc(hidden)]
pub fn parallel_for_spawning<F>(len: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    let threads = available_threads().min(len.max(1));
    if threads <= 1 || len < 2 {
        for i in 0..len {
            body(i);
        }
        return;
    }
    let block = (len / (threads * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                // Relaxed: the cursor is a pure work-claim ticket; the
                // scope's join provides the end-of-job synchronization.
                let start = cursor.fetch_add(block, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let end = (start + block).min(len);
                for i in start..end {
                    body(i);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that set `PATHWEAVER_THREADS`; without it, parallel
    /// test threads would race on the process-wide environment.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `f` with `PATHWEAVER_THREADS` pinned to `n`, restoring the prior
    /// value afterwards. Pinning above the core count exercises the real
    /// pool machinery even on single-core CI runners.
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock();
        let prior = std::env::var("PATHWEAVER_THREADS").ok();
        std::env::set_var("PATHWEAVER_THREADS", n.to_string());
        let result = f();
        match prior {
            Some(v) => std::env::set_var("PATHWEAVER_THREADS", v),
            None => std::env::remove_var("PATHWEAVER_THREADS"),
        }
        result
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        with_threads(4, || {
            let n = 10_000;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            parallel_for(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn parallel_for_uses_pool_workers() {
        with_threads(4, || {
            let caller = std::thread::current().id();
            // One dispatch can (legally) complete entirely on the caller
            // before a parked worker wakes, so no single dispatch is
            // asserted on. Instead the off-thread participation of each
            // dispatch is recorded into a histogram and the aggregate is
            // asserted, with the summary in the failure message — on a
            // loaded runner the distribution shows *how* starved the pool
            // was rather than a bare "never ran".
            let hist = pathweaver_obs::Histogram::new();
            for _ in 0..50 {
                let off_thread = AtomicU64::new(0);
                parallel_for(4_096, |_| {
                    if std::thread::current().id() != caller {
                        off_thread.fetch_add(1, Ordering::Relaxed);
                    } else if off_thread.load(Ordering::Relaxed) == 0 {
                        // The caller yields while it has seen no worker yet,
                        // so it cannot race through the whole range before a
                        // parked worker has any chance to wake.
                        std::thread::yield_now();
                    }
                    std::hint::black_box((0..64).sum::<u64>());
                });
                hist.record(off_thread.load(Ordering::Relaxed));
                if hist.summary().max > 0 {
                    break;
                }
            }
            let s = hist.summary();
            assert!(s.max > 0, "pool workers never ran in {} dispatches: {s:?}", s.count);
        });
    }

    #[test]
    fn short_jobs_from_two_callers_complete() {
        // Regression: a worker used to decrement `outstanding` before taking
        // `done_lock`, so a caller could see zero, return and free its
        // stack-held job while the worker still locked and notified it — a
        // crash or a hang. Tiny jobs from two callers keep workers finishing
        // exactly while their callers check for completion. Under Miri, which
        // checks every access to the freed job, fewer calls suffice.
        let calls = if cfg!(miri) { 200 } else { 10_000 };
        with_threads(3, || {
            std::thread::scope(|s| {
                for caller in 0..2usize {
                    s.spawn(move || {
                        for call in 0..calls {
                            let len = 2 + (call + caller) % 3;
                            let sum = AtomicU64::new(0);
                            parallel_for(len, |i| {
                                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
                            });
                            assert_eq!(sum.load(Ordering::Relaxed), (len * (len + 1) / 2) as u64);
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn parallel_for_empty_is_noop() {
        parallel_for(0, |_| panic!("must not be called"));
    }

    #[test]
    fn parallel_for_propagates_panic_payload() {
        with_threads(4, || {
            let result = std::panic::catch_unwind(|| {
                parallel_for(1_000, |i| {
                    if i == 381 {
                        panic!("worker failure at {i}");
                    }
                });
            });
            let payload = result.expect_err("panic must propagate to the caller");
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("worker failure at 381"), "{msg}");
        });
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        // A panic must not kill pool workers: the next call still completes.
        with_threads(4, || {
            let _ = std::panic::catch_unwind(|| parallel_for(256, |_| panic!("boom")));
            let count = AtomicU64::new(0);
            parallel_for(256, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 256);
        });
    }

    #[test]
    fn nested_parallel_for_completes() {
        // Inner calls degrade to serial on workers (and dispatch normally on
        // the caller); either way every (i, j) cell must be visited without
        // deadlocking the fixed-size pool.
        with_threads(4, || {
            let n = 48;
            let hits: Vec<AtomicU64> = (0..n * n).map(|_| AtomicU64::new(0)).collect();
            parallel_for(n, |i| {
                parallel_for(n, |j| {
                    hits[i * n + j].fetch_add(1, Ordering::Relaxed);
                });
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn env_one_forces_serial() {
        // With PATHWEAVER_THREADS=1 every index must run on the calling
        // thread, even when pool workers already exist from earlier calls.
        with_threads(1, || {
            let caller = std::thread::current().id();
            let off_thread = AtomicU64::new(0);
            parallel_for(512, |_| {
                if std::thread::current().id() != caller {
                    off_thread.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(off_thread.load(Ordering::Relaxed), 0);
        });
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(5_000, |i| i * 3);
        assert_eq!(out.len(), 5_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn parallel_map_zero_len() {
        let out: Vec<u32> = parallel_map(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_chunks_mut_covers_all_elements() {
        let mut data = vec![0u32; 1003];
        parallel_chunks_mut(&mut data, 97, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v = ci as u32 + 1;
            }
        });
        assert!(data.iter().all(|&v| v > 0));
        // The first chunk is indices 0..97 with chunk id 0 -> value 1.
        assert_eq!(data[0], 1);
        assert_eq!(data[96], 1);
        assert_eq!(data[97], 2);
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn parallel_chunks_mut_rejects_zero_chunk() {
        let mut data = vec![0u8; 4];
        parallel_chunks_mut(&mut data, 0, |_, _| {});
    }

    #[test]
    fn spawning_baseline_matches() {
        let n = 2_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_spawning(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
