//! Wall-clock benchmark for the persistent worker pool and the batched
//! distance kernels, emitting machine-readable `BENCH_wallclock.json`.
//!
//! Unlike every other harness in this crate — which reports the simulated
//! GPU clock derived from operation counters — this binary measures real
//! elapsed time. It exists to demonstrate that the PR 1 runtime work
//! (persistent pool, batched gather-distance, scratch reuse) improves
//! wall-clock throughput while leaving the simulated clock untouched:
//!
//! - `pool_dispatch`: many fine-grained `parallel_for` calls through the
//!   persistent pool vs the retained spawn-per-call baseline
//!   (`parallel_for_spawning`). This isolates dispatch overhead.
//! - `batch_search`: `search_batch` (pool-dispatched per-query map) vs an
//!   identical per-query map driven by spawn-per-call threads, on a
//!   sift-like shard. This is the end-to-end number the acceptance
//!   criterion tracks.
//! - `batch_distance`: the 4-row blocked `batch_l2_squared` vs a per-row
//!   scalar loop over the same gather list.
//! - `simd_l2` / `simd_batch`: the runtime-dispatched SIMD kernels (PR 2)
//!   vs the same code forced to the scalar level, on single-pair and blocked
//!   batch distance respectively. Results are asserted bitwise identical
//!   across levels before timing.
//! - `quantized_l2`: the int8 code-space distance kernel under auto dispatch
//!   vs forced scalar, results asserted identical across levels (integer
//!   arithmetic — identity is exact, not bitwise-float).
//! - `quantized_search`: end-to-end pipelined search with the quantized
//!   traversal tier on vs off. The simulated QPS must at least double and
//!   recall@k must stay within 0.01 of the exact path (the tier's
//!   acceptance bar) before the wall clocks are compared.
//! - `pipelined_search`: end-to-end `search_pipelined` under auto dispatch
//!   vs forced scalar, with search results and simulated-clock counters
//!   asserted bitwise unchanged (the dispatch level must never leak into
//!   the simulation).
//! - `obs_overhead`: the same pipelined search with observability (metrics
//!   and tracing) enabled vs disabled; search results and simulated-clock
//!   counters are asserted unchanged, so only wall time may differ. The
//!   disabled side is the number the perf gate tracks.
//! - `serve_throughput`: a stream of single-query batches served one at a
//!   time (`search_pipelined` in a loop) vs overlapped through the streaming
//!   `Server` on a 4-device ring. Hits are asserted identical, and the
//!   simulated-makespan speedup of the overlapped schedule must clear 1.5×
//!   (the serve-layer acceptance bar) before the wall clocks are compared.
//! - `cluster_serve`: the same batch stream through a 1-node cluster vs a
//!   4-node, 4-way-replicated cluster. The 1-node answers are asserted
//!   bit-identical to `serve_once`, and the replicated fan-out's simulated
//!   QPS at 4 nodes must clear 2.5× the 1-node number before the wall
//!   clocks are compared.
//!
//! After the timed entries, one instrumented search populates the metrics
//! registry and the summary is written to `target/BENCH_metrics.json` (or
//! `$PATHWEAVER_METRICS_OUT`).
//!
//! `PATHWEAVER_THREADS` defaults to 2 here so the dispatch comparison is
//! meaningful even on single-core CI runners (the pool pins one helper; the
//! baseline spawns threads on every call). Set it explicitly to measure a
//! different width. Output path: `BENCH_wallclock.json` in the working
//! directory, or `$PATHWEAVER_BENCH_OUT`.

use std::hint::black_box;
use std::time::Instant;

use pathweaver_datasets::DatasetProfile;
use pathweaver_datasets::Scale;
use pathweaver_gpusim::CostCounters;
use pathweaver_graph::{cagra_build, CagraBuildParams};
use pathweaver_search::{search_batch, search_query, EntryPolicy, SearchParams, ShardContext};
use pathweaver_vector::{batch_l2_squared, l2_squared, set_simd_level, SimdLevel};
use serde_json::{json, Value};

/// Median wall-clock milliseconds of `reps` runs of `f`.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    // One untimed warm-up run lets lazy state (pool workers, page faults)
    // settle outside the measurement.
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn result(name: &str, baseline_ms: f64, optimized_ms: f64) -> Value {
    let speedup = baseline_ms / optimized_ms.max(1e-9);
    println!("{name}: baseline {baseline_ms:.3} ms, optimized {optimized_ms:.3} ms, speedup {speedup:.2}x");
    json!({
        "name": name,
        "baseline_ms": baseline_ms,
        "optimized_ms": optimized_ms,
        "speedup": speedup,
    })
}

/// Dispatch overhead: 300 fine-grained fork-joins per rep.
fn pool_dispatch() -> Value {
    let body = |_i: usize| {
        black_box((0..32u64).sum::<u64>());
    };
    let run_pooled = || {
        for _ in 0..300 {
            pathweaver_util::parallel_for(64, body);
        }
    };
    let run_spawning = || {
        for _ in 0..300 {
            pathweaver_util::parallel_for_spawning(64, body);
        }
    };
    let baseline = time_ms(9, run_spawning);
    let optimized = time_ms(9, run_pooled);
    result("pool_dispatch", baseline, optimized)
}

/// End-to-end batch search: persistent pool vs spawn-per-call dispatch of
/// the identical per-query work.
fn batch_search() -> Value {
    let w = DatasetProfile::sift_like().workload(Scale::Test, 4, 10, 7);
    let graph = cagra_build(&w.base, &CagraBuildParams::with_degree(16));
    let ctx = ShardContext::new(&w.base, &graph, None);
    let params = SearchParams::default();
    let entries = [EntryPolicy::Random { count: 64 }];

    let run_pooled = || {
        for _ in 0..40 {
            black_box(search_batch(&ctx, &w.queries, &params, &entries));
        }
    };
    // The historical driver: same per-query closure, but each batch spawns
    // fresh OS threads (via the retained baseline) instead of reusing the
    // pool. Hits are collected to keep the work identical.
    let run_spawning = || {
        for _ in 0..40 {
            type IndexedHits = Vec<(usize, Vec<(f32, u32)>)>;
            let hits: Vec<Vec<(f32, u32)>> = {
                let results: parking_lot::Mutex<IndexedHits> =
                    parking_lot::Mutex::new(Vec::with_capacity(w.queries.len()));
                pathweaver_util::parallel_for_spawning(w.queries.len(), |q| {
                    let mut counters = CostCounters::new();
                    let seed = pathweaver_util::seed_from_parts(params.seed, "query", q as u64);
                    let (hits, _) = search_query(
                        &ctx,
                        w.queries.row(q),
                        &params,
                        &entries[0],
                        seed,
                        &mut counters,
                    );
                    results.lock().push((q, hits));
                });
                let mut collected = results.into_inner();
                collected.sort_by_key(|&(q, _)| q);
                collected.into_iter().map(|(_, h)| h).collect()
            };
            black_box(hits);
        }
    };
    let baseline = time_ms(7, run_spawning);
    let optimized = time_ms(7, run_pooled);
    result("batch_search", baseline, optimized)
}

/// Gather-distance throughput: blocked batch kernel vs per-row scalar loop.
fn batch_distance() -> Value {
    let w = DatasetProfile::sift_like().workload(Scale::Bench, 1, 1, 13);
    let set = &w.base;
    let mut rng = pathweaver_util::small_rng(17);
    let rows: Vec<u32> =
        (0..8192).map(|_| rand::Rng::gen_range(&mut rng, 0..set.len()) as u32).collect();
    let query = w.queries.row(0).to_vec();
    let mut out = vec![0.0f32; rows.len()];

    let baseline = time_ms(15, || {
        for (o, &r) in out.iter_mut().zip(&rows) {
            *o = l2_squared(set.row(r as usize), &query);
        }
        black_box(&out);
    });
    let optimized = time_ms(15, || {
        batch_l2_squared(set, &rows, &query, &mut out);
        black_box(&out);
    });
    result("batch_distance", baseline, optimized)
}

/// Runs `f` with the dispatch forced to `level`, restoring auto detection
/// afterwards. Swapping mid-process is safe: every level is bitwise
/// identical, so nothing downstream can observe which level computed what.
fn at_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    assert!(set_simd_level(level), "level {} unavailable on this host", level.name());
    let r = f();
    set_simd_level(SimdLevel::detect());
    r
}

/// Single-pair distance throughput: auto-dispatched SIMD level vs forced
/// scalar on the same pairs (960-d, the paper's widest dataset).
fn simd_l2() -> Value {
    let dim = 960;
    let n = 512;
    let set = pathweaver_datasets::SyntheticSpec {
        dim,
        len: n + 1,
        distribution: pathweaver_datasets::Distribution::Uniform,
        seed: 41,
    }
    .generate();
    let query = set.row(n).to_vec();
    // Bitwise identity across levels, checked on the bench inputs.
    let auto: Vec<u32> = (0..n).map(|i| l2_squared(set.row(i), &query).to_bits()).collect();
    at_level(SimdLevel::Scalar, || {
        for (i, &bits) in auto.iter().enumerate() {
            assert_eq!(l2_squared(set.row(i), &query).to_bits(), bits, "row {i}");
        }
    });

    let run = || {
        let mut acc = 0.0f32;
        for _ in 0..16 {
            for i in 0..n {
                acc += l2_squared(set.row(i), &query);
            }
        }
        black_box(acc);
    };
    let baseline = time_ms(15, || at_level(SimdLevel::Scalar, run));
    let optimized = time_ms(15, run);
    result("simd_l2", baseline, optimized)
}

/// Blocked batch-distance throughput: auto-dispatched SIMD level vs forced
/// scalar running the identical blocked kernel (this is the acceptance
/// criterion's batch-distance microbench).
fn simd_batch() -> Value {
    let w = DatasetProfile::sift_like().workload(Scale::Bench, 1, 1, 19);
    let set = &w.base;
    let mut rng = pathweaver_util::small_rng(29);
    let rows: Vec<u32> =
        (0..8192).map(|_| rand::Rng::gen_range(&mut rng, 0..set.len()) as u32).collect();
    let query = w.queries.row(0).to_vec();
    let mut out = vec![0.0f32; rows.len()];

    batch_l2_squared(set, &rows, &query, &mut out);
    let auto_bits: Vec<u32> = out.iter().map(|d| d.to_bits()).collect();
    at_level(SimdLevel::Scalar, || {
        batch_l2_squared(set, &rows, &query, &mut out);
    });
    let scalar_bits: Vec<u32> = out.iter().map(|d| d.to_bits()).collect();
    assert_eq!(auto_bits, scalar_bits, "dispatch levels disagree bitwise");

    let mut run = || {
        batch_l2_squared(set, &rows, &query, &mut out);
        black_box(&out);
    };
    let baseline = time_ms(25, || at_level(SimdLevel::Scalar, &mut run));
    let optimized = time_ms(25, run);
    result("simd_batch", baseline, optimized)
}

/// Int8 code-space distance kernel: auto-dispatched SIMD level vs forced
/// scalar over the same quantized rows (960-d like `simd_l2`). The distance
/// is an integer sum of squared code differences, so cross-level identity
/// is exact equality, asserted before timing.
fn quantized_l2() -> Value {
    use pathweaver_vector::QuantizedSet;
    let dim = 960;
    let n = 512;
    let set = pathweaver_datasets::SyntheticSpec {
        dim,
        len: n + 1,
        distribution: pathweaver_datasets::Distribution::Uniform,
        seed: 47,
    }
    .generate();
    let qs = QuantizedSet::quantize(&set);
    let qcodes = qs.encode(set.row(n));
    let auto: Vec<u32> = (0..n).map(|i| qs.code_l2_squared(i, &qcodes)).collect();
    at_level(SimdLevel::Scalar, || {
        for (i, &d) in auto.iter().enumerate() {
            assert_eq!(qs.code_l2_squared(i, &qcodes), d, "row {i}");
        }
    });

    let run = || {
        let mut acc = 0u64;
        for _ in 0..16 {
            for i in 0..n {
                acc += u64::from(qs.code_l2_squared(i, &qcodes));
            }
        }
        black_box(acc);
    };
    let baseline = time_ms(15, || at_level(SimdLevel::Scalar, run));
    let optimized = time_ms(15, run);
    result("quantized_l2", baseline, optimized)
}

/// Quantized traversal vs exact traversal on the Deep-like profile: the
/// same index searched with `quantized` off ("baseline") and on
/// ("optimized"). Before the wall clocks run, the simulated numbers must
/// clear the tier's acceptance bar — int8 rows stream a quarter of the
/// bytes, so in the memory-bound cost model the simulated QPS must at
/// least double, and the exact re-rank must hold recall@k within 0.01 of
/// the exact path.
fn quantized_search() -> Value {
    use pathweaver_core::{PathWeaverConfig, PathWeaverIndex};
    use pathweaver_datasets::recall_batch;
    // Bench scale with a wide batch, not Test: the acceptance bar targets
    // the paper's memory-bound regime (Fig 2), which needs shards big
    // enough that streaming candidate vectors dominates the simulated
    // kernel time, and enough in-flight queries to amortize the fixed
    // per-batch kernel-launch and link-latency charges.
    let w = DatasetProfile::deep10m_like().workload(Scale::Bench, 1024, 10, 59);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2))
        .expect("bench index builds");
    // Default traversal parameters are sized for Test-scale shards; at
    // Bench scale they converge early with low recall. Widen the beam and
    // patience so the walk actually covers the shard — this is also what
    // pushes the kernel into the bandwidth-bound regime the tier targets.
    let exact = SearchParams {
        beam: 128,
        candidates: 64,
        patience: 32,
        max_iterations: 192,
        ..SearchParams::default()
    };
    let quant = SearchParams { quantized: true, ..exact };

    let out_exact = idx.search_pipelined(&w.queries, &exact);
    let out_quant = idx.search_pipelined(&w.queries, &quant);
    let sim_speedup = out_quant.qps / out_exact.qps.max(1e-12);
    // In this cost model bytes ≈ time: report the traffic cut alongside the
    // simulated clocks so the mechanism behind the speedup is visible.
    let ce = out_exact.timeline.aggregate_counters();
    let cq = out_quant.timeline.aggregate_counters();
    println!(
        "  vector traffic {:.1} MB exact -> {:.1} MB quantized; dist share {:.0}% -> {:.0}%",
        ce.vector_bytes as f64 / 1e6,
        cq.vector_bytes as f64 / 1e6,
        out_exact.breakdown.dist_fraction() * 100.0,
        out_quant.breakdown.dist_fraction() * 100.0,
    );
    let recall_exact = recall_batch(&w.ground_truth, &out_exact.results, exact.k);
    let recall_quant = recall_batch(&w.ground_truth, &out_quant.results, quant.k);
    println!(
        "quantized_search: simulated {:.0} qps exact vs {:.0} qps quantized ({sim_speedup:.2}x), \
         recall {recall_exact:.4} -> {recall_quant:.4}",
        out_exact.qps, out_quant.qps
    );
    assert!(
        sim_speedup >= 2.0,
        "quantized traversal must at least double simulated QPS, got {sim_speedup:.2}x"
    );
    assert!(
        recall_exact - recall_quant <= 0.01,
        "exact re-rank must hold recall within 0.01 of the exact path \
         ({recall_exact:.4} exact vs {recall_quant:.4} quantized)"
    );

    // The wall clocks here track the two code paths for regressions; the
    // tier's performance claim is the simulated assert above. On CPU the
    // quantized walk pays the same queue/hash bookkeeping per hop as the
    // exact one, so its wall time sits near parity — the 4× byte cut is a
    // device-memory effect, visible in the simulated clock by design.
    let baseline = time_ms(5, || {
        black_box(idx.search_pipelined(&w.queries, &exact));
    });
    let optimized = time_ms(5, || {
        black_box(idx.search_pipelined(&w.queries, &quant));
    });
    result("quantized_search", baseline, optimized)
}

/// Observability overhead: the same pipelined search with metrics + tracing
/// fully enabled ("baseline") vs disabled ("optimized"). The disabled path
/// must stay within noise of the uninstrumented build — the speedup here is
/// the cost of enabling observability, and the CI perf gate tracks the
/// disabled number against the committed baseline like every other entry.
fn obs_overhead() -> Value {
    use pathweaver_core::{PathWeaverConfig, PathWeaverIndex};
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 24, 10, 43);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2))
        .expect("bench index builds");
    let params = SearchParams::default();

    // Instrumentation must not perturb results or the simulated clock.
    pathweaver_obs::set_tracing(false);
    pathweaver_obs::set_enabled(false);
    let out_off = idx.search_pipelined(&w.queries, &params);
    pathweaver_obs::set_tracing(true);
    let out_on = idx.search_pipelined(&w.queries, &params);
    pathweaver_obs::set_tracing(false);
    pathweaver_obs::set_enabled(false);
    assert_eq!(out_off.hits, out_on.hits, "observability changed search results");
    assert_eq!(
        out_off.timeline.aggregate_counters(),
        out_on.timeline.aggregate_counters(),
        "observability perturbed the simulated clock"
    );

    let run = || {
        for _ in 0..4 {
            black_box(idx.search_pipelined(&w.queries, &params));
        }
    };
    let baseline = time_ms(7, || {
        pathweaver_obs::set_tracing(true);
        run();
        pathweaver_obs::set_tracing(false);
        pathweaver_obs::set_enabled(false);
    });
    let optimized = time_ms(7, run);
    pathweaver_obs::reset();
    result("obs_overhead", baseline, optimized)
}

/// End-to-end pipelined multi-shard search: auto dispatch vs forced scalar.
/// Search results and simulated-clock counters must be bitwise unchanged —
/// only the wall clock may move.
fn pipelined_search() -> Value {
    use pathweaver_core::{PathWeaverConfig, PathWeaverIndex};
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 24, 10, 43);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2))
        .expect("bench index builds");
    let params = SearchParams::default();

    let out_auto = idx.search_pipelined(&w.queries, &params);
    let out_scalar = at_level(SimdLevel::Scalar, || idx.search_pipelined(&w.queries, &params));
    assert_eq!(out_auto.hits, out_scalar.hits, "hits changed across dispatch levels");
    assert_eq!(
        out_auto.timeline.aggregate_counters(),
        out_scalar.timeline.aggregate_counters(),
        "simulated-clock counters changed across dispatch levels"
    );

    let run = || {
        for _ in 0..4 {
            black_box(idx.search_pipelined(&w.queries, &params));
        }
    };
    let baseline = time_ms(7, || at_level(SimdLevel::Scalar, run));
    let optimized = time_ms(7, run);
    result("pipelined_search", baseline, optimized)
}

/// Streamed serving vs one-batch-at-a-time: a backlog of single-query
/// batches on a 4-device ring. Serialized, every batch pays the full ring
/// traversal before the next starts; streamed through the [`Server`], batch
/// `b+1`'s entry stage runs while batch `b`'s tail still hops the remaining
/// devices. Hits must be identical; the simulated-makespan speedup
/// (serialized sum vs overlapped replay of the merged timeline) must clear
/// the 1.5× serve-layer acceptance bar.
///
/// [`Server`]: pathweaver_core::serve::Server
fn serve_throughput() -> Value {
    use pathweaver_core::serve::{ServeConfig, Server};
    use pathweaver_core::{PathWeaverConfig, PathWeaverIndex};
    use std::sync::Arc;

    const BATCHES: usize = 12;
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, BATCHES, 10, 53);
    let idx = Arc::new(
        PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(4))
            .expect("bench index builds"),
    );
    let params = SearchParams::default();

    // Serialized reference: per-batch hits plus summed simulated makespans.
    let singles: Vec<pathweaver_vector::VectorSet> = (0..BATCHES)
        .map(|r| {
            let mut q = pathweaver_vector::VectorSet::empty(idx.dim());
            q.push(w.queries.row(r));
            q
        })
        .collect();
    let serial_outs: Vec<_> = singles.iter().map(|q| idx.search_pipelined(q, &params)).collect();
    let serial_sim_s: f64 = serial_outs.iter().map(|o| o.makespan_s).sum();

    let config = ServeConfig {
        max_batch: 1, // Every submission is its own in-flight batch.
        queue_capacity: BATCHES,
        params,
        ..ServeConfig::default()
    };
    let server = Server::new(Arc::clone(&idx), config.clone()).expect("serve threads spawn");
    let tickets: Vec<_> = (0..BATCHES)
        .map(|r| server.try_submit(w.queries.row(r)).expect("capacity fits the backlog"))
        .collect();
    let results: Vec<_> = tickets.into_iter().map(|t| t.wait().expect("server stays up")).collect();
    for (r, (res, reference)) in results.iter().zip(&serial_outs).enumerate() {
        assert_eq!(res.hits, reference.hits[0], "query {r}: streamed hits diverged");
    }
    let overlapped_sim_s = server.timeline().overlapped_makespan_s();
    server.shutdown();
    let sim_speedup = serial_sim_s / overlapped_sim_s.max(1e-12);
    println!(
        "serve_throughput: simulated {:.1} us serialized vs {:.1} us overlapped ({sim_speedup:.2}x)",
        serial_sim_s * 1e6,
        overlapped_sim_s * 1e6
    );
    assert!(
        sim_speedup >= 1.5,
        "overlapped serving must beat serialized by 1.5x simulated, got {sim_speedup:.2}x"
    );

    let baseline = time_ms(7, || {
        for q in &singles {
            black_box(idx.search_pipelined(q, &params));
        }
    });
    let server = Server::new(Arc::clone(&idx), config).expect("serve threads spawn");
    let optimized = time_ms(7, || {
        let tickets: Vec<_> = (0..BATCHES)
            .map(|r| server.try_submit(w.queries.row(r)).expect("capacity fits the backlog"))
            .collect();
        for t in tickets {
            black_box(t.wait().expect("server stays up"));
        }
    });
    server.shutdown();
    result("serve_throughput", baseline, optimized)
}

/// Snapshot isolation under churn: per-query serve latency through the
/// dynamic (snapshot-pinning) server, read-only vs with a mutator thread
/// streaming far-away inserts and deletes (and the background maintainer
/// folding tombstones). Mutations publish copy-on-write snapshots off the
/// read path, so the search p99 under churn must stay within 1.5× of the
/// read-only p99 — the snapshot-isolation acceptance bar. As with
/// [`cluster_serve`], the bar is enforced on the deterministic counted
/// clock (per-query `visits` p99): on a runner where searches and the
/// writer time-share one core, wall tails measure the OS scheduler, not
/// the snapshot design — the wall-clock p99 bar additionally applies
/// whenever the host has cores to actually run reads beside the writer.
/// `optimized_ms` reports the under-mutation wall *median*, the stable
/// number the perf gate can track over time (the wall tail has multi-x
/// run-to-run variance on shared runners).
fn mutate_under_serve() -> Value {
    use pathweaver_core::serve::{ServeConfig, Server};
    use pathweaver_core::snapshot::ConcurrentIndex;
    use pathweaver_core::{PathWeaverConfig, PathWeaverIndex};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const SAMPLES: usize = 120;
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 10, 59);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2))
        .expect("bench index builds");
    let concurrent = Arc::new(ConcurrentIndex::new(idx));

    // (wall median ms, wall p99 ms, counted-work p99) over samples, where
    // one sample drives the full query set through the server one query at
    // a time (max_batch = 1) and tallies the summed search visits — a
    // group is long enough to measure above timer granularity, and any
    // writer collision inside it lands in the group's tail. The perf gate
    // tracks the median — on a shared runner the wall tail is scheduler
    // noise with multi-x run-to-run variance, far past the gate's
    // tolerance.
    let p99 = |server: &Server| -> (f64, f64, u64) {
        let submit = |row: usize| loop {
            match server.try_submit(w.queries.row(row)) {
                Ok(ticket) => break ticket,
                Err(_) => std::thread::yield_now(),
            }
        };
        // Untimed warm-up: first batches pay thread wake-up and page faults.
        for row in 0..w.queries.len() {
            submit(row).wait().expect("server stays up");
        }
        let mut lat = Vec::with_capacity(SAMPLES);
        let mut visits = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let mut group_visits = 0u64;
            let t = Instant::now();
            for row in 0..w.queries.len() {
                let res = submit(row).wait().expect("server stays up");
                assert!(!res.hits.is_empty(), "served query returned no hits");
                group_visits += res.stats.visits;
            }
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            visits.push(group_visits);
        }
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        visits.sort_unstable();
        (lat[lat.len() / 2], lat[lat.len() * 99 / 100], visits[visits.len() * 99 / 100])
    };

    let config = ServeConfig { max_batch: 1, ..ServeConfig::default() };
    let server =
        Server::new_dynamic(Arc::clone(&concurrent), config.clone()).expect("serve threads spawn");
    let (read_only_median, read_only, read_only_visits) = p99(&server);
    server.shutdown();

    let maintainer = concurrent.spawn_maintainer(0.3, 2.0).expect("valid threshold");
    let server = Server::new_dynamic(Arc::clone(&concurrent), config).expect("serve threads spawn");
    let stop = AtomicBool::new(false);
    let under_mutation = std::thread::scope(|s| {
        let (concurrent, w, stop) = (&concurrent, &w, &stop);
        s.spawn(move || {
            // Far-away inserts (never in any top-k) and deletes of our own
            // inserts. Paced at ~500 mutations/s: this measures the cost a
            // *streaming* ingest imposes on search tails, not a saturating
            // bulk load — on a single-core runner an unthrottled writer
            // loop would simply time-share the CPU away from serving and
            // measure the scheduler, not the snapshot design.
            let mut minted: Vec<u32> = Vec::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                let far: Vec<f32> = w.base.row(i % w.base.len()).iter().map(|x| x + 40.0).collect();
                minted.push(concurrent.insert(&far).expect("streamed insert"));
                if i % 2 == 1 {
                    concurrent.delete_outcome(minted[i - 1]).expect("streamed delete");
                }
                i += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        let p = p99(&server);
        stop.store(true, Ordering::Release);
        p
    });
    server.shutdown();
    maintainer.stop();

    let (under_mutation_median, under_mutation, under_mutation_visits) = under_mutation;
    let wall_ratio = under_mutation / read_only.max(1e-9);
    let work_ratio = under_mutation_visits as f64 / (read_only_visits as f64).max(1e-9);
    println!(
        "mutate_under_serve: read-only p99 {read_only:.3} ms / {read_only_visits} visits, \
         streaming p99 {under_mutation:.3} ms / {under_mutation_visits} visits \
         ({wall_ratio:.2}x wall, {work_ratio:.2}x work)"
    );
    assert!(
        work_ratio <= 1.5,
        "per-query search work p99 under streaming mutation must stay within 1.5x read-only, \
         got {work_ratio:.2}x"
    );
    // With cores to spare beyond the writer and the two pool workers, reads
    // really do run beside mutations and the wall bar applies directly.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores > 3 {
        assert!(
            wall_ratio <= 1.5,
            "search wall p99 under streaming mutation must stay within 1.5x read-only \
             on a {cores}-core host, got {wall_ratio:.2}x"
        );
    }
    result("mutate_under_serve", read_only_median, under_mutation_median)
}

/// Cluster serving: the same batch stream through a 1-node cluster vs a
/// 4-node cluster holding the partition 4-way replicated, over the
/// in-process channel transport. The 1-node hits (and simulated makespan
/// bits) must match `serve_once` exactly — the cluster layer's identity
/// contract. Replicated read fan-out then spreads the stream round-robin
/// over the nodes; summing each node's simulated busy time, the 4-node
/// simulated QPS must clear 2.5× the 1-node number (near-linear scaling,
/// the cluster-layer acceptance bar) before the wall clocks are compared.
/// On CPU both configurations share the same cores, so wall parity is
/// expected — the scaling claim lives in the simulated clock by design.
fn cluster_serve() -> Value {
    use pathweaver_core::cluster::{build_partitions, LocalCluster, TransportKind};
    use pathweaver_core::config::ClusterConfig;
    use pathweaver_core::serve::serve_once;
    use pathweaver_core::PathWeaverConfig;

    const BATCHES: usize = 16;
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 10, 67);
    let parts = build_partitions(&w.base, &PathWeaverConfig::test_scale(2), 1)
        .expect("bench partition builds");
    let params = SearchParams::default();
    let reference = serve_once(&parts[0].index, &w.queries, &params).expect("reference serve");

    let launch = |nodes: usize| {
        let config =
            ClusterConfig { partitions: 1, replication: nodes, ..ClusterConfig::default() };
        LocalCluster::launch_with_partitions(&parts, &config, nodes, TransportKind::Channel, &[])
            .expect("bench cluster boots")
    };

    // Simulated phase: drive the batch stream sequentially, checking every
    // answer bitwise, then read per-node busy time off the router.
    let sim_qps = |nodes: usize| -> f64 {
        let cluster = launch(nodes);
        for b in 0..BATCHES {
            let out = cluster.router().search(&w.queries, &params).expect("cluster search");
            assert_eq!(out.hits, reference.hits, "batch {b}: cluster hits diverged");
            if nodes == 1 {
                assert_eq!(
                    out.makespan_s.to_bits(),
                    reference.makespan_s.to_bits(),
                    "batch {b}: 1-node simulated makespan must match serve_once bitwise"
                );
            }
        }
        let busy_s = cluster.router().node_busy_s().into_iter().fold(0.0f64, f64::max);
        cluster.shutdown();
        (BATCHES * w.queries.len()) as f64 / busy_s.max(1e-12)
    };
    let qps_1 = sim_qps(1);
    let qps_4 = sim_qps(4);
    let scaling = qps_4 / qps_1.max(1e-12);
    println!(
        "cluster_serve: simulated {qps_1:.0} qps on 1 node vs {qps_4:.0} qps on 4 nodes \
         ({scaling:.2}x)"
    );
    assert!(
        scaling >= 2.5,
        "4-node replicated serving must clear 2.5x the 1-node simulated QPS, got {scaling:.2}x"
    );

    let cluster_1 = launch(1);
    let baseline = time_ms(5, || {
        for _ in 0..BATCHES {
            black_box(cluster_1.router().search(&w.queries, &params).expect("cluster search"));
        }
    });
    cluster_1.shutdown();
    let cluster_4 = launch(4);
    let optimized = time_ms(5, || {
        for _ in 0..BATCHES {
            black_box(cluster_4.router().search(&w.queries, &params).expect("cluster search"));
        }
    });
    cluster_4.shutdown();
    result("cluster_serve", baseline, optimized)
}

fn main() {
    // Default to two threads so the dispatch comparison exercises the pool
    // even on single-core runners; an explicit setting wins.
    if std::env::var("PATHWEAVER_THREADS").is_err() {
        std::env::set_var("PATHWEAVER_THREADS", "2");
    }
    let threads = pathweaver_util::available_threads();
    let simd_name = pathweaver_vector::active_simd_level().name();
    println!("wallclock bench: {threads} threads, simd dispatch: {simd_name}");

    let results = vec![
        pool_dispatch(),
        batch_search(),
        batch_distance(),
        simd_l2(),
        simd_batch(),
        quantized_l2(),
        quantized_search(),
        pipelined_search(),
        obs_overhead(),
        serve_throughput(),
        mutate_under_serve(),
        cluster_serve(),
    ];
    let doc = json!({
        "bench": "wallclock",
        "threads": threads,
        "simd": simd_name,
        "results": results,
    });
    let path = std::env::var("PATHWEAVER_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_wallclock.json".to_string());
    let text = serde_json::to_string_pretty(&doc).expect("serialize bench output");
    std::fs::write(&path, text).expect("write bench output");
    println!("wrote {path}");

    // One instrumented pass so the run ships a metrics summary alongside the
    // timing numbers (CI uploads both as artifacts).
    pathweaver_obs::set_enabled(true);
    pipelined_search_snapshot();
    let metrics_path = std::env::var("PATHWEAVER_METRICS_OUT")
        .unwrap_or_else(|_| "target/BENCH_metrics.json".to_string());
    if let Some(dir) = std::path::Path::new(&metrics_path).parent() {
        std::fs::create_dir_all(dir).expect("create metrics output directory");
    }
    let mut summary = pathweaver_obs::global_snapshot().to_json();
    summary.push('\n');
    std::fs::write(&metrics_path, summary).expect("write metrics summary");
    pathweaver_obs::set_enabled(false);
    pathweaver_obs::reset();
    println!("wrote {metrics_path}");
}

/// Runs one pipelined search purely to populate the metrics registry for the
/// end-of-run summary.
fn pipelined_search_snapshot() {
    use pathweaver_core::{PathWeaverConfig, PathWeaverIndex};
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 24, 10, 43);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2))
        .expect("bench index builds");
    black_box(idx.search_pipelined(&w.queries, &SearchParams::default()));
}
