//! Integration tests for the streaming serve layer: the streamed path must
//! be bit-identical to `search_pipelined` (the determinism contract of
//! `pathweaver::core::serve`), both for a single coalesced batch and across
//! a stream of overlapped micro-batches.

use std::sync::Arc;

use pathweaver::core::serve::{QueryResult, ServeConfig, Server};
use pathweaver::prelude::*;
use pathweaver::search::BatchStats;

fn serve_all(server: &Server, queries: &pathweaver::vector::VectorSet) -> Vec<Vec<(f32, u32)>> {
    let tickets: Vec<_> =
        (0..queries.len()).map(|r| server.try_submit(queries.row(r)).unwrap()).collect();
    tickets.into_iter().map(|t| t.wait().unwrap().hits).collect()
}

/// Serves `queries` through a `Server` sized to the batch, which flushes on
/// size alone, so the rows ride one micro-batch; returns each row's hits and
/// the batch's stats.
fn serve_as_one_batch(
    idx: &Arc<PathWeaverIndex>,
    queries: &pathweaver::vector::VectorSet,
    params: SearchParams,
) -> (Vec<Vec<(f32, u32)>>, BatchStats) {
    let config = ServeConfig {
        max_batch: queries.len(),
        queue_capacity: queries.len(),
        flush_interval_ms: 3_600_000.0,
        params,
        ..ServeConfig::default()
    };
    let server = Server::new(Arc::clone(idx), config).unwrap();
    let results: Vec<QueryResult> =
        server.submit_batch(queries).unwrap().into_iter().map(|t| t.wait().unwrap()).collect();
    server.shutdown();
    assert!(results.iter().all(|r| r.batch_id == results[0].batch_id), "batch was split");
    let stats = results[0].stats;
    (results.into_iter().map(|r| r.hits).collect(), stats)
}

/// Serializes tests that pin `PATHWEAVER_THREADS`; parallel test threads
/// would otherwise race on the process-wide environment.
fn with_single_thread<R>(f: impl FnOnce() -> R) -> R {
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prior = std::env::var("PATHWEAVER_THREADS").ok();
    std::env::set_var("PATHWEAVER_THREADS", "1");
    let result = f();
    match prior {
        Some(v) => std::env::set_var("PATHWEAVER_THREADS", v),
        None => std::env::remove_var("PATHWEAVER_THREADS"),
    }
    result
}

/// Asserts two per-query hit lists are bit-identical (distances compared as
/// raw f32 bits, not approximately).
fn assert_hits_identical(a: &[Vec<(f32, u32)>], b: &[Vec<(f32, u32)>], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: query count");
    for (q, (ha, hb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ha.len(), hb.len(), "{label}: query {q} hit count");
        for (rank, (&(da, ia), &(db, ib))) in ha.iter().zip(hb).enumerate() {
            assert_eq!(ia, ib, "{label}: query {q} rank {rank} id");
            assert_eq!(
                da.to_bits(),
                db.to_bits(),
                "{label}: query {q} rank {rank} distance ({da} vs {db})"
            );
        }
    }
}

#[test]
fn serve_stream_is_bit_identical_to_search_pipelined() {
    with_single_thread(|| {
        for devices in [1usize, 2, 3] {
            let w = DatasetProfile::deep10m_like().workload(Scale::Test, 9, 10, 41);
            let idx = Arc::new(
                PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(devices)).unwrap(),
            );
            let params = SearchParams::default();
            let direct = idx.search_pipelined(&w.queries, &params);
            let (served, stats) = serve_as_one_batch(&idx, &w.queries, params);
            let label = format!("{devices} devices");
            assert_hits_identical(&direct.hits, &served, &label);
            assert_eq!(direct.stats, stats, "{label}: stats diverged");
        }
    });
}

#[test]
fn dynamic_serve_without_mutation_is_bit_identical_to_static_serve() {
    // The snapshot-pinned path through `ConcurrentIndex` adds a level of
    // indirection per batch (pin the published snapshot, read through it).
    // With zero mutations that indirection must be invisible: same hits,
    // same raw f32 distance bits, same ids as the plain pipelined search.
    with_single_thread(|| {
        for devices in [1usize, 2] {
            let w = DatasetProfile::deep10m_like().workload(Scale::Test, 9, 10, 53);
            let idx =
                PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(devices)).unwrap();
            let params = SearchParams::default();
            let direct = idx.search_pipelined(&w.queries, &params);

            let concurrent = Arc::new(ConcurrentIndex::new(idx));
            let config =
                ServeConfig { max_batch: w.queries.len(), params, ..ServeConfig::default() };
            let server = Server::new_dynamic(Arc::clone(&concurrent), config).unwrap();
            let streamed = serve_all(&server, &w.queries);
            server.shutdown();

            let label = format!("dynamic zero-mutation, {devices} devices");
            assert_hits_identical(&direct.hits, &streamed, &label);
        }
    });
}

#[test]
fn serve_handles_fewer_queries_than_devices() {
    // One query on a four-device ring: three chunks are empty and must be
    // skipped, not shipped — on both the one-shot and the streamed path.
    with_single_thread(|| {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 1, 10, 43);
        let idx =
            Arc::new(PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(4)).unwrap());
        let params = SearchParams::default();
        let direct = idx.search_pipelined(&w.queries, &params);
        let (served, stats) = serve_as_one_batch(&idx, &w.queries, params);
        assert_hits_identical(&direct.hits, &served, "1 query / 4 devices");
        assert_eq!(direct.stats, stats);
        assert!(!served[0].is_empty());
    });
}

#[test]
fn overlapped_batches_match_per_batch_pipelined() {
    // Stream 8 queries through max_batch=2: the server forms four
    // consecutive pairs and keeps them overlapped in flight. Each pair must
    // still return exactly what a standalone `search_pipelined` over the
    // same two rows returns.
    with_single_thread(|| {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 10, 47);
        let idx =
            Arc::new(PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap());
        let params = SearchParams::default();
        let config = ServeConfig {
            max_batch: 2,
            flush_interval_ms: 3_600_000.0, // Flush on size only.
            params,
            ..ServeConfig::default()
        };
        let server = Server::new(Arc::clone(&idx), config).unwrap();
        let tickets: Vec<_> =
            (0..w.queries.len()).map(|r| server.try_submit(w.queries.row(r)).unwrap()).collect();
        server.shutdown(); // Flushes any unpaired remainder and drains.
        let results: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();

        for pair in 0..w.queries.len() / 2 {
            let mut two = pathweaver::vector::VectorSet::empty(idx.dim());
            two.push(w.queries.row(2 * pair));
            two.push(w.queries.row(2 * pair + 1));
            let direct = idx.search_pipelined(&two, &params);
            let streamed: Vec<Vec<(f32, u32)>> =
                vec![results[2 * pair].hits.clone(), results[2 * pair + 1].hits.clone()];
            assert_hits_identical(&direct.hits, &streamed, &format!("pair {pair}"));
            assert_eq!(direct.stats, results[2 * pair].stats, "pair {pair} stats");
            assert_eq!(
                results[2 * pair].batch_id,
                results[2 * pair + 1].batch_id,
                "pair {pair} split across batches"
            );
        }
    });
}
