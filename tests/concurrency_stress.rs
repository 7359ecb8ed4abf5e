//! Concurrency stress tests over the worker pool and the obs registry's
//! tri-state flags — the dynamic complement to pwlint's static A-rules.
//!
//! These run under the normal harness on every CI pass and are the intended
//! workload for the ThreadSanitizer leg (`tools/check_tsan.sh`): each test
//! drives real cross-thread interleavings (pool work racing flag toggles,
//! snapshots racing recording) and asserts the exactness guarantees that
//! Relaxed-ordering counters must still provide.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pathweaver::core::serve::{ServeConfig, Server, SubmitError};
use pathweaver::obs;
use pathweaver::prelude::*;
use pathweaver::util::{parallel_for, parallel_for_spawning};

/// Tests in this binary toggle the process-global observability flags, so
/// they serialize on one lock (the harness runs tests in parallel).
fn flag_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Pool work races rapid flag flips: every gated instrumentation read
/// (`obs::enabled()` / `obs::tracing_enabled()`) interleaves with stores
/// from the toggler thread, while the job's own Relaxed tally must still
/// come out exact — integer addition commutes regardless of schedule.
#[test]
fn pool_work_is_exact_under_flag_toggling() {
    let _g = flag_guard();
    let stop = AtomicU64::new(0);
    let total = AtomicU64::new(0);

    std::thread::scope(|s| {
        s.spawn(|| {
            let mut on = false;
            while stop.load(Ordering::Acquire) == 0 {
                obs::set_enabled(on);
                obs::set_tracing(!on);
                on = !on;
                std::thread::yield_now();
            }
        });

        for round in 0..50u64 {
            let len = 64 + (round as usize % 7) * 33;
            parallel_for(len, |i| {
                // The gated fast path every instrumented call site takes.
                if obs::enabled() {
                    std::hint::black_box(i);
                }
                total.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
        }
        stop.store(1, Ordering::Release);
    });

    obs::set_tracing(false);
    obs::set_enabled(false);

    let expected: u64 = (0..50u64)
        .map(|r| {
            let n = 64 + (r % 7) * 33;
            n * (n + 1) / 2
        })
        .sum();
    assert_eq!(total.load(Ordering::Relaxed), expected, "pool dropped or duplicated work");
}

/// Snapshots (including full JSON rendering) race live recording from pool
/// workers; after the pool joins, the registry must hold the exact total.
#[test]
fn snapshots_race_recording_without_losing_updates() {
    let _g = flag_guard();
    obs::set_enabled(true);
    obs::reset();

    let done = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while done.load(Ordering::Acquire) == 0 {
                let snap = obs::global_snapshot();
                std::hint::black_box(snap.to_json());
                std::thread::yield_now();
            }
        });

        parallel_for_spawning(1000, |i| {
            obs::registry().counter("search.stress.events").add(1);
            obs::registry().histogram("search.stress.sizes").record(i as u64);
        });
        done.store(1, Ordering::Release);
    });

    let snap = obs::global_snapshot();
    obs::set_enabled(false);
    obs::reset();

    assert_eq!(snap.counters["search.stress.events"], 1000);
    assert_eq!(snap.histograms["search.stress.sizes"].count, 1000);
}

/// Concurrent first-touch registration of the same metric names from many
/// pool workers must yield one instance per name (the registry's intern
/// path), never split counts across duplicates.
#[test]
fn concurrent_registration_interns_one_instance_per_name() {
    let _g = flag_guard();
    obs::set_enabled(true);
    obs::reset();

    parallel_for(256, |i| {
        let name = format!("search.stress.shard{}", i % 4);
        obs::registry().counter(&name).add(1);
    });

    let snap = obs::global_snapshot();
    obs::set_enabled(false);
    obs::reset();

    let shard_total: u64 = (0..4).map(|s| snap.counters[&format!("search.stress.shard{s}")]).sum();
    assert_eq!(shard_total, 256, "interning split counts across duplicates");
}

/// The snapshot-isolation stress contract: thousands of streaming inserts
/// and deletes race concurrent serve batches and the background maintainer,
/// and no query may ever observe a torn snapshot. Inserted vectors sit far
/// from every query cluster and deletes only target those inserts, so the
/// pre-built ground truth stays valid throughout — recall@10 must hold its
/// floor on every round, mutations or not, and every ticket must come back
/// answered with sorted, in-range hits.
#[test]
fn mixed_mutations_under_serve_keep_recall_and_never_tear() {
    let _g = flag_guard();
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 10, 10, 61);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
    let base_len = w.base.len() as u32;
    let concurrent = Arc::new(ConcurrentIndex::new(idx));
    let maintainer = concurrent.spawn_maintainer(0.3, 2.0).unwrap();

    let config = ServeConfig {
        max_batch: 4,
        flush_interval_ms: 0.2,
        params: SearchParams::default(),
        ..ServeConfig::default()
    };
    let server = Server::new_dynamic(Arc::clone(&concurrent), config).unwrap();

    const WRITERS: usize = 2;
    const INSERTS_PER_WRITER: usize = 900;
    let writes_done = AtomicU64::new(0);
    let answered = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let (concurrent, w) = (&concurrent, &w);
            let writes_done = &writes_done;
            s.spawn(move || {
                let mut minted: Vec<u32> = Vec::with_capacity(INSERTS_PER_WRITER);
                for i in 0..INSERTS_PER_WRITER {
                    // Far outside every query cluster: never cracks a top-10.
                    let far: Vec<f32> = w
                        .base
                        .row((t * INSERTS_PER_WRITER + i) % w.base.len())
                        .iter()
                        .map(|x| x + 40.0 + t as f32)
                        .collect();
                    minted.push(concurrent.insert(&far).unwrap());
                    // Delete roughly half of our own inserts as we go, plus
                    // the occasional no-op double delete — replaying the
                    // same tombstone must stay harmless under concurrency.
                    if i % 2 == 1 {
                        let victim = minted[i - 1];
                        assert_eq!(
                            concurrent.delete_outcome(victim).unwrap(),
                            DeleteOutcome::Applied,
                            "insert {victim} vanished"
                        );
                        if i % 8 == 1 {
                            assert_eq!(
                                concurrent.delete_outcome(victim).unwrap(),
                                DeleteOutcome::AlreadyDeleted
                            );
                        }
                    }
                }
                writes_done.fetch_add(1, Ordering::Release);
            });
        }

        // Reader: stream serve batches for the whole write phase (and one
        // final quiesced round), checking invariants on every response.
        let (server, w) = (&server, &w);
        let (writes_done, answered) = (&writes_done, &answered);
        s.spawn(move || {
            let mut round = 0u64;
            loop {
                let quiesced = writes_done.load(Ordering::Acquire) == WRITERS as u64;
                let tickets: Vec<_> = (0..w.queries.len())
                    .map(|r| loop {
                        match server.try_submit(w.queries.row(r)) {
                            Ok(ticket) => break ticket,
                            Err(SubmitError::QueueFull) => std::thread::yield_now(),
                            Err(SubmitError::ShuttingDown) => {
                                unreachable!("shutdown begins after readers join")
                            }
                        }
                    })
                    .collect();
                let mut ids = Vec::with_capacity(tickets.len());
                for (q, ticket) in tickets.into_iter().enumerate() {
                    let res = ticket
                        .wait()
                        .unwrap_or_else(|e| panic!("round {round} query {q} failed: {e:?}"));
                    assert!(!res.timed_out, "round {round} query {q} timed out (no deadline set)");
                    assert!(!res.hits.is_empty(), "round {round} query {q}: empty hit list");
                    for pair in res.hits.windows(2) {
                        assert!(
                            pair[0].0 <= pair[1].0,
                            "round {round} query {q}: hits out of order (torn snapshot?)"
                        );
                    }
                    for &(d, _id) in &res.hits {
                        assert!(d.is_finite(), "round {round} query {q}: non-finite distance");
                    }
                    // Far-away inserts must never displace true neighbors.
                    let base_hits: Vec<u32> =
                        res.hits.iter().map(|&(_, id)| id).filter(|&id| id < base_len).collect();
                    ids.push(base_hits);
                    answered.fetch_add(1, Ordering::Relaxed);
                }
                let recall = recall_batch(&w.ground_truth, &ids, 10);
                assert!(
                    recall >= 0.75,
                    "round {round} recall@10 {recall:.3} under streaming mutation"
                );
                round += 1;
                if quiesced {
                    break; // This round ran against the fully-mutated index.
                }
            }
            assert!(round >= 2, "writers outpaced the reader: no overlapped rounds observed");
        });
    });

    server.shutdown();
    maintainer.stop();
    assert!(answered.load(Ordering::Relaxed) >= 2 * w.queries.len() as u64);
    // Every mutation went through: the final snapshot accounts for all
    // minted ids, and nothing the maintainer folded resurrected a tombstone.
    let pinned = concurrent.pin();
    assert_eq!(
        pinned.index().num_vectors,
        w.base.len() + WRITERS * INSERTS_PER_WRITER,
        "inserts lost or duplicated"
    );
    assert!(pinned.version() > 0, "mutations never published a new snapshot");
}

/// Many submitter threads race the serve layer's admission queue —
/// backpressure retries, interval flushes, and overlapped batches — across
/// servers whose deadlines are drawn from a seeded pseudo-random sequence
/// (expired-at-once, tight, comfortable, and none). Every accepted ticket
/// must be answered exactly once, timed out or not.
#[test]
fn serve_survives_concurrent_submitters_with_random_deadlines() {
    let _g = flag_guard();
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 10, 37);
    let idx = Arc::new(PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap());

    const SUBMITTERS: usize = 6;
    const PER_THREAD: usize = 20;
    const BURST: usize = 5;
    for round in 0..4u64 {
        // Deadline budgets (ms) chosen by seeded draw so each run covers the
        // same spread without wall-clock-dependent flakiness.
        let deadline_ms = match pathweaver::util::seed_from_parts(93, "serve-stress", round) % 4 {
            0 => None,
            1 => Some(0.01),
            2 => Some(0.5),
            _ => Some(5.0),
        };
        let config = ServeConfig {
            max_batch: 4,
            flush_interval_ms: 0.2,
            queue_capacity: 8, // Small: submitter bursts must hit QueueFull.
            deadline_ms,
            ..ServeConfig::default()
        };
        let server = Server::new(Arc::clone(&idx), config).unwrap();
        let delivered = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..SUBMITTERS {
                let (server, w, delivered) = (&server, &w, &delivered);
                s.spawn(move || {
                    let mut sent = 0usize;
                    while sent < PER_THREAD {
                        let burst = BURST.min(PER_THREAD - sent);
                        let tickets: Vec<_> = (0..burst)
                            .map(|i| {
                                let row = (t * PER_THREAD + sent + i) % w.queries.len();
                                loop {
                                    match server.try_submit(w.queries.row(row)) {
                                        Ok(ticket) => break ticket,
                                        Err(SubmitError::QueueFull) => std::thread::yield_now(),
                                        Err(SubmitError::ShuttingDown) => {
                                            unreachable!("shutdown begins after submitters join")
                                        }
                                    }
                                }
                            })
                            .collect();
                        sent += burst;
                        for ticket in tickets {
                            let res = ticket.wait().unwrap();
                            if !res.timed_out {
                                assert!(!res.hits.is_empty(), "completed batch with no hits");
                            }
                            delivered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        server.shutdown();
        assert_eq!(
            delivered.load(Ordering::Relaxed),
            (SUBMITTERS * PER_THREAD) as u64,
            "round {round}: tickets stranded or duplicated"
        );
    }
}
