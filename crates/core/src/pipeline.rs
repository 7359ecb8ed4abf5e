//! Pipelining-based path extension (paper §3.1) with ghost staging (§3.2).
//!
//! The query batch is split into one chunk per device. Chunk `d` starts on
//! device `d`: the first stage searches from scratch (or from ghost-stage
//! seeds), every later stage starts from the forwarded `I(z)` seeds of the
//! previous shard's best hits. After `N` stages every chunk has visited
//! every shard and the host reduces the accumulated candidates.

use crate::index::{PathWeaverIndex, SearchOutput};
use crate::reduce::reduce_hits;
use pathweaver_gpusim::{obs_bridge, run_ring_stream, CostModel, RingMessage, StageRecord};
use pathweaver_obs::{trace, SpanTimer, TraceEvent};
use pathweaver_search::{BatchStats, EntryPolicy, SearchParams};
use pathweaver_vector::VectorSet;

/// In-flight state of one query chunk. Shared between the one-shot
/// pipelined mode and the streaming serve layer.
pub(crate) struct ChunkState {
    /// Global query row indices of this chunk (rows of the batch's
    /// `VectorSet`).
    pub(crate) query_rows: Vec<usize>,
    /// Per-query entry seeds for the *next* stage (local ids of the device
    /// that will process the chunk next); empty before stage 0.
    pub(crate) seeds: Vec<Vec<u32>>,
    /// Accumulated `(distance, global id)` candidates per query.
    pub(crate) hits: Vec<Vec<(f32, u32)>>,
    /// Accumulated statistics of this chunk.
    pub(crate) stats: BatchStats,
}

/// Splits a batch of `num_queries` rows into contiguous per-device chunks —
/// chunk `d` gets rows `[d·Q/N, (d+1)·Q/N)` — skipping chunks that would be
/// empty (`Q < N` leaves some devices without a chunk). Empty chunks used to
/// circulate anyway, paying `N` no-op stage records each and polluting the
/// per-stage histograms; now they are never submitted.
pub(crate) fn make_chunks(num_queries: usize, num_devices: usize) -> Vec<(usize, ChunkState)> {
    (0..num_devices)
        .filter_map(|d| {
            let lo = d * num_queries / num_devices;
            let hi = (d + 1) * num_queries / num_devices;
            if lo == hi {
                return None;
            }
            let rows: Vec<usize> = (lo..hi).collect();
            let m = rows.len();
            Some((
                d,
                ChunkState {
                    query_rows: rows,
                    seeds: vec![Vec::new(); m],
                    hits: vec![Vec::new(); m],
                    stats: BatchStats::default(),
                },
            ))
        })
        .collect()
}

/// Host-side reduction of finished chunks back into global query order.
/// `finished` must be sorted by origin chunk (the executor guarantees it),
/// so stats merge in a deterministic order.
pub(crate) fn reduce_chunks(
    finished: Vec<RingMessage<ChunkState>>,
    num_queries: usize,
    k: usize,
) -> (Vec<Vec<(f32, u32)>>, BatchStats) {
    let mut hits_by_row: Vec<Vec<(f32, u32)>> = vec![Vec::new(); num_queries];
    let mut stats = BatchStats::default();
    for msg in finished {
        let mut chunk = msg.payload;
        stats.merge(&chunk.stats);
        for (i, row) in chunk.query_rows.iter().enumerate() {
            // Take the accumulated list instead of cloning it: the chunk
            // is consumed here, and reduce only needs it by value to sort.
            let hits = std::mem::take(&mut chunk.hits[i]);
            hits_by_row[*row] = reduce_hits(&[hits], k);
        }
    }
    (hits_by_row, stats)
}

impl PathWeaverIndex {
    /// Pipelined multi-GPU search (the full PathWeaver mode).
    ///
    /// With one device this degenerates to the single-GPU mode: one stage,
    /// ghost staging still applies.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty, its dimensionality differs from the
    /// index, or `params` fail [`SearchParams::validate`] — all checked on
    /// the calling thread before the ring starts, since a panic on a device
    /// thread would leave the ring waiting for its chunk forever.
    pub fn search_pipelined(&self, queries: &VectorSet, params: &SearchParams) -> SearchOutput {
        assert!(!queries.is_empty(), "empty query batch");
        assert_eq!(queries.dim(), self.dim(), "query dimensionality mismatch");
        params.validate();
        let n = self.num_devices();
        let cost = CostModel::new(self.config.device);
        // Batch ids are only consumed while tracing, so metrics-only runs
        // leave the sequence untouched.
        let batch_id = if pathweaver_obs::tracing_enabled() { trace::next_batch_id() } else { 0 };

        // Contiguous chunking, empty chunks skipped.
        let chunks = make_chunks(queries.len(), n);

        let (finished, timeline) = run_ring_stream(n, n, batch_id, chunks, |device, stage, msg| {
            self.run_stage(
                device,
                stage,
                msg.origin_chunk,
                &mut msg.payload,
                queries,
                params,
                &cost,
                batch_id,
            )
        });

        let (hits_by_row, stats) = reduce_chunks(finished, queries.len(), params.k);
        SearchOutput::from_parts(hits_by_row, stats, timeline, queries.len())
    }

    /// Executes one pipeline stage of one chunk on one device. Returns
    /// `None` for an empty chunk (nothing to search, no record to emit) —
    /// the executor skips such chunks at submission, so this is a guard, not
    /// a hot path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_stage(
        &self,
        device: usize,
        stage: usize,
        origin_chunk: usize,
        chunk: &mut ChunkState,
        queries: &VectorSet,
        params: &SearchParams,
        cost: &CostModel,
        batch_id: u64,
    ) -> Option<StageRecord> {
        if chunk.query_rows.is_empty() {
            return None;
        }
        // Stage-entry span: wall time of the whole hop (ghost stage, search,
        // seed forwarding). Inert unless observability is on.
        let span = SpanTimer::start();
        let n = self.num_devices();
        let shard = &self.shards[device];
        let chunk_queries = queries.gather(&chunk.query_rows);

        // Stage 0 starts from scratch (ghost staging if available); later
        // stages start from the forwarded I(z) seeds. Empty seed lists
        // (possible when every forwarded hit was tombstoned) fall back to
        // random entries.
        let (entries, use_ghost): (Vec<EntryPolicy>, bool) = if stage == 0 {
            (vec![EntryPolicy::Random { count: params.candidates }], shard.ghost.is_some())
        } else {
            let e = chunk
                .seeds
                .iter()
                .map(|s| {
                    if s.is_empty() {
                        EntryPolicy::Random { count: params.candidates }
                    } else {
                        EntryPolicy::Seeded {
                            seeds: s.clone(),
                            // Scale the escape-hatch entries with the search
                            // width so wider (higher-recall) configurations
                            // keep their diversity.
                            extra_random: self.config.seed_extra_random.max(params.candidates / 8),
                        }
                    }
                })
                .collect();
            (e, false)
        };

        // Later stages converge in far fewer iterations (the whole point of
        // path extension); the kernel's convergence check realizes that
        // automatically, so parameters stay identical across stages.
        let out = shard.search_local(&chunk_queries, params, &entries, use_ghost, &self.config);
        let mut counters = out.counters;
        chunk.stats.merge(&out.stats);

        // Accumulate global candidates.
        for (i, hits) in out.hits.iter().enumerate() {
            chunk.hits[i].extend(hits.iter().map(|&(d, local)| (d, shard.to_global(local))));
        }

        // Prepare forwarded seeds through this shard's I(u) table.
        let mut comm_s = 0.0;
        if stage + 1 < n {
            let table = shard
                .intershard
                .as_ref()
                // lint: allow(hot-panic) — builder invariant, not input: every
                // multi-device build attaches I(u) tables before serving.
                .expect("multi-device index always builds inter-shard tables");
            for (i, hits) in out.hits.iter().enumerate() {
                chunk.seeds[i] = hits
                    .iter()
                    .take(self.config.forward_width)
                    .map(|&(_, local)| table.target(local))
                    .collect();
            }
            let bytes = (chunk.query_rows.len() * self.config.forward_width * 4) as u64;
            counters.comm_bytes += bytes;
            comm_s = self.config.topology.forward_time(device, bytes);
        }

        let mut breakdown = cost.kernel_time(&counters, self.dim());
        breakdown.comm_s = comm_s;

        // Stage-exit instrumentation: per-stage latency/iteration/distance
        // histograms, the gpu-sim counter bridge, and (when tracing) one
        // structured trace event for this shard hop. All of it only reads
        // the counters, so the simulated clock cannot be perturbed.
        let wall_ns = span.elapsed_ns();
        if pathweaver_obs::enabled() {
            let r = pathweaver_obs::registry();
            r.histogram(&format!("pipeline.stage{stage}.wall_ns")).record(wall_ns);
            r.histogram(&format!("pipeline.stage{stage}.iterations")).record(counters.iterations);
            r.histogram(&format!("pipeline.stage{stage}.dist_calcs")).record(counters.dist_calcs);
            obs_bridge::record_counters("pipeline", &counters);
        }
        if pathweaver_obs::tracing_enabled() {
            trace::record(TraceEvent {
                batch: batch_id,
                chunk: origin_chunk,
                device,
                stage,
                queries: chunk.query_rows.len() as u64,
                iterations: counters.iterations,
                dist_calcs: counters.dist_calcs,
                bytes_read: counters.bytes_read(),
                comm_bytes: counters.comm_bytes,
                wall_ns,
            });
        }
        Some(StageRecord { device, stage, origin_chunk, batch: batch_id, breakdown, counters })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PathWeaverConfig;
    use pathweaver_datasets::{recall_batch, DatasetProfile, Scale};

    fn workload() -> pathweaver_datasets::Workload {
        DatasetProfile::deep10m_like().workload(Scale::Test, 12, 10, 21)
    }

    #[test]
    fn pipelined_search_reaches_high_recall() {
        let w = workload();
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(3)).unwrap();
        let params = SearchParams::default();
        let out = idx.search_pipelined(&w.queries, &params);
        assert_eq!(out.results.len(), w.queries.len());
        let recall = recall_batch(&w.ground_truth, &out.results, 10);
        assert!(recall > 0.8, "recall {recall}");
        assert!(out.qps > 0.0);
        assert!(out.makespan_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "need 0 < k <= beam")]
    fn invalid_params_panic_on_the_calling_thread() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 2, 10, 23);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let params = SearchParams { k: 100, beam: 16, ..SearchParams::default() };
        let _ = idx.search_pipelined(&w.queries, &params);
    }

    #[test]
    fn timeline_has_n_by_n_stages() {
        let w = workload();
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(3)).unwrap();
        let out = idx.search_pipelined(&w.queries, &SearchParams::default());
        assert_eq!(out.timeline.num_stages(), 3);
        assert_eq!(out.timeline.records().len(), 9);
    }

    #[test]
    fn later_stages_are_cheaper_than_first() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 20, 10, 33);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let out = idx.search_pipelined(&w.queries, &SearchParams::default());
        let times = out.timeline.stage_times_s();
        assert!(times[0] > times[1], "stage0 {} stage1 {}", times[0], times[1]);
    }

    #[test]
    fn communication_recorded_between_stages() {
        let w = workload();
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let out = idx.search_pipelined(&w.queries, &SearchParams::default());
        let agg = out.timeline.aggregate_counters();
        assert!(agg.comm_bytes > 0);
        assert!(out.breakdown.comm_s > 0.0);
        // §6.4: communication must be a small fraction of total time.
        assert!(out.breakdown.comm_s < 0.25 * out.breakdown.total_s());
    }

    #[test]
    fn single_device_pipeline_works() {
        let w = workload();
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(1)).unwrap();
        let out = idx.search_pipelined(&w.queries, &SearchParams::default());
        let recall = recall_batch(&w.ground_truth, &out.results, 10);
        assert!(recall > 0.8, "recall {recall}");
        assert_eq!(out.timeline.num_stages(), 1);
    }

    #[test]
    fn fewer_queries_than_devices_skips_empty_chunks() {
        // Regression: 1 query on 4 devices used to circulate 3 empty chunks
        // through all 4 stages, logging 16 stage records instead of 4.
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 1, 10, 41);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(4)).unwrap();
        let out = idx.search_pipelined(&w.queries, &SearchParams::default());
        assert_eq!(out.results.len(), 1);
        assert!(!out.results[0].is_empty());
        assert_eq!(
            out.timeline.records().len(),
            4,
            "only the non-empty chunk should produce records"
        );
        // The lone chunk still visits every device in ring order.
        let devices: Vec<usize> = out.timeline.records().iter().map(|r| r.device).collect();
        let origin = out.timeline.records()[0].origin_chunk;
        let want: Vec<usize> = (0..4).map(|s| (origin + s) % 4).collect();
        assert_eq!(devices, want);
        // Every stage of the batch shows up exactly once.
        let stages: Vec<usize> = out.timeline.records().iter().map(|r| r.stage).collect();
        assert_eq!(stages, vec![0, 1, 2, 3]);
    }

    #[test]
    fn make_chunks_covers_rows_without_empties() {
        for (q, n) in [(1usize, 4usize), (3, 4), (5, 4), (12, 3), (4, 4), (2, 5)] {
            let chunks = make_chunks(q, n);
            assert!(chunks.iter().all(|(_, c)| !c.query_rows.is_empty()), "q={q} n={n}");
            let rows: Vec<usize> =
                chunks.iter().flat_map(|(_, c)| c.query_rows.iter().copied()).collect();
            assert_eq!(rows, (0..q).collect::<Vec<_>>(), "q={q} n={n}");
        }
    }

    #[test]
    fn results_sorted_and_unique_per_query() {
        let w = workload();
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let out = idx.search_pipelined(&w.queries, &SearchParams::default());
        for hits in &out.hits {
            assert!(hits.windows(2).all(|p| p[0].0 <= p[1].0));
            let ids: std::collections::HashSet<u32> = hits.iter().map(|h| h.1).collect();
            assert_eq!(ids.len(), hits.len());
        }
    }
}
