//! The PathWeaver index: per-shard graphs plus auxiliary structures.

use crate::config::PathWeaverConfig;
use crate::shard::ShardAssignment;
use pathweaver_gpusim::memory::OutOfMemory;
use pathweaver_gpusim::{CostCounters, MemoryLedger, PipelineTimeline, TimeBreakdown};
use pathweaver_graph::build_report::BuildPhase;
use pathweaver_graph::{
    cagra_build, BuildReport, DirectionTable, FixedDegreeGraph, GhostShard, InterShardTable,
};
use pathweaver_search::{search_batch, BatchStats, EntryPolicy, SearchParams, ShardContext};
use pathweaver_util::FixedBitSet;
use pathweaver_vector::{QuantizedSet, VectorSet};
use std::sync::Arc;

/// Errors raised while building an index.
#[derive(Debug, Clone)]
pub enum BuildError {
    /// A shard's resident structures exceed the device's memory capacity.
    OutOfMemory(OutOfMemory),
    /// The dataset is too small for the requested device count.
    TooFewVectors {
        /// Vectors supplied.
        have: usize,
        /// Minimum required.
        need: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfMemory(e) => write!(f, "{e}"),
            Self::TooFewVectors { have, need } => {
                write!(f, "dataset too small: {have} vectors, need at least {need}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// The payload of one shard: everything only inserts and rebuilds change.
///
/// It is the bulk of a shard's bytes (vectors, graph, direction codes, int8
/// codes, ghost), so a [`ShardIndex`] holds it behind one [`Arc`] that every
/// version of the shard shares until an insert copies it.
#[derive(Debug, Clone)]
pub struct ShardData {
    /// Local→global id mapping (ascending).
    pub global_ids: Vec<u32>,
    /// Shard vectors (row = local id).
    pub vectors: VectorSet,
    /// Shard proximity graph.
    pub graph: FixedDegreeGraph,
    /// Direction-bit table (§3.3), present when DGS is enabled.
    pub dir_table: Option<DirectionTable>,
    /// Int8 quantized tier (1 byte/dim code rows), present when
    /// [`PathWeaverConfig::build_quantized`] is set; enables quantized
    /// traversal with exact re-rank.
    pub quantized: Option<QuantizedSet>,
    /// Ghost shard (§3.2).
    pub ghost: Option<GhostShard>,
}

impl ShardData {
    /// Bytes of every payload structure (the shard's resident bytes minus
    /// its `I(u)` table).
    pub fn resident_bytes(&self) -> Vec<(&'static str, u64)> {
        let mut out = vec![
            ("vectors", self.vectors.nbytes() as u64),
            ("graph", self.graph.nbytes() as u64),
            ("id-map", (self.global_ids.len() * 4) as u64),
        ];
        if let Some(t) = &self.dir_table {
            out.push(("dir-table", t.nbytes() as u64));
        }
        if let Some(q) = &self.quantized {
            out.push(("quantized", q.nbytes() as u64));
        }
        if let Some(g) = &self.ghost {
            out.push(("ghost", g.nbytes() as u64));
        }
        out
    }

    /// Copies the payload once, with room in every growing buffer for
    /// `extra` more nodes (the ghost, a fixed sample, is copied as is).
    fn clone_with_room(&self, extra: usize) -> Self {
        Self {
            global_ids: pathweaver_util::vec_with_room(&self.global_ids, extra),
            vectors: self.vectors.clone_with_room(extra),
            graph: self.graph.clone_with_room(extra),
            dir_table: self.dir_table.as_ref().map(|t| t.clone_with_room(extra)),
            quantized: self.quantized.as_ref().map(|q| q.clone_with_room(extra)),
            ghost: self.ghost.clone(),
        }
    }
}

/// Everything resident on one simulated device: the shared [`ShardData`]
/// payload plus the small state every version owns (tombstones and the
/// outgoing `I(u)` table).
///
/// Cloning a shard costs a refcount and those two small buffers, so a
/// delete or an `I(u)` swap never copies vectors or graphs. Field reads of
/// the payload go through [`Deref`](std::ops::Deref) (`shard.vectors`,
/// `shard.graph`, ...).
#[derive(Debug, Clone)]
pub struct ShardIndex {
    payload: Arc<ShardData>,
    /// `I(u)` table into the next shard of the ring (§3.1); `None` on
    /// single-device indices.
    pub intershard: Option<InterShardTable>,
    /// Logical deletion flags (local ids; §6.2).
    pub deleted: FixedBitSet,
}

impl std::ops::Deref for ShardIndex {
    type Target = ShardData;

    fn deref(&self) -> &ShardData {
        &self.payload
    }
}

/// Output of one shard-local batch search (ids are local).
#[derive(Debug, Clone)]
pub struct ShardBatchOutput {
    /// Per-query `(squared distance, local id)` hits, ascending.
    pub hits: Vec<Vec<(f32, u32)>>,
    /// Aggregated statistics.
    pub stats: BatchStats,
    /// Aggregated counters (ghost stage included).
    pub counters: CostCounters,
}

impl ShardIndex {
    /// Wraps a payload as a shard with no tombstones and no `I(u)` table.
    pub fn new(payload: ShardData) -> Self {
        let deleted = FixedBitSet::new(payload.vectors.len());
        Self { payload: Arc::new(payload), intershard: None, deleted }
    }

    /// The shared payload; two versions of a shard hold the same one
    /// ([`Arc::ptr_eq`]) until an insert copies it.
    pub fn payload(&self) -> &Arc<ShardData> {
        &self.payload
    }

    /// The payload, writable for appending one node. A payload shared with
    /// another version (a pinned snapshot, the published index) is copied
    /// once, with room for the new row, and the copy's bytes are counted in
    /// `dyn.cow_bytes`; an unshared one (WAL replay, an unpublished master)
    /// is returned in place.
    pub(crate) fn payload_for_insert(&mut self) -> &mut ShardData {
        if Arc::get_mut(&mut self.payload).is_none() {
            if pathweaver_obs::enabled() {
                let bytes = self.payload.resident_bytes().iter().map(|&(_, b)| b).sum();
                pathweaver_obs::registry().counter("dyn.cow_bytes").add(bytes);
            }
            self.payload = Arc::new(self.payload.clone_with_room(1));
        }
        // Unique by now, so this never clones.
        Arc::make_mut(&mut self.payload)
    }

    /// Number of resident vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the shard holds no vectors (never true for built indices).
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Maps a local id to the global dataset id.
    pub fn to_global(&self, local: u32) -> u32 {
        self.global_ids[local as usize]
    }

    /// Shard-local search with optional ghost staging and deletion
    /// filtering.
    ///
    /// `entries` follows [`search_batch`] semantics. When `use_ghost` is set
    /// and the shard has a ghost shard, a short ghost-stage search picks the
    /// entry seeds per query (overriding `entries`); its cost is included in
    /// the returned counters.
    pub fn search_local(
        &self,
        queries: &VectorSet,
        params: &SearchParams,
        entries: &[EntryPolicy],
        use_ghost: bool,
        config: &PathWeaverConfig,
    ) -> ShardBatchOutput {
        let mut counters = CostCounters::new();
        let mut stats = BatchStats::default();

        let ghost_ref = if use_ghost { self.ghost.as_ref() } else { None };
        let main_entries: Vec<EntryPolicy> = if let Some(ghost) = ghost_ref {
            let gctx = ShardContext::new(&ghost.vectors, &ghost.graph, None);
            let gparams = SearchParams {
                k: config.ghost_seeds.min(config.ghost_beam),
                beam: config.ghost_beam,
                candidates: config.ghost_entries,
                expand: 2,
                max_iterations: config.ghost_iterations,
                hash_bits: 10,
                dgs: None,
                random_discard: false,
                patience: 1,
                // Ghost shards carry no quantized payload; the staging pass
                // is short and always exact.
                quantized: false,
                seed: pathweaver_util::seed_from_parts(params.seed, "ghost", 0),
            };
            let gbatch = search_batch(
                &gctx,
                queries,
                &gparams,
                &[EntryPolicy::Random { count: config.ghost_entries }],
            );
            counters.merge(&gbatch.counters);
            // Ghost-staging entry metrics: how many entry seeds each query
            // got and what the ghost stage cost (bridged under `ghost.*` so
            // its share of the stage's work stays attributable).
            if pathweaver_obs::enabled() {
                let r = pathweaver_obs::registry();
                r.counter("ghost.batches").inc();
                r.counter("ghost.queries").add(gbatch.stats.queries);
                r.counter("ghost.converged").add(gbatch.stats.converged);
                pathweaver_gpusim::obs_bridge::record_counters("ghost", &gbatch.counters);
                let seeds = r.histogram("ghost.seeds_per_query");
                for hits in &gbatch.hits {
                    seeds.record(hits.len() as u64);
                }
            }
            // Ghost iterations are bookkeeping, not shard-search iterations:
            // keep visits/distance costs but do not fold ghost iteration
            // counts into the shard stats used for Fig 3/13.
            gbatch
                .hits
                .iter()
                .map(|hits| EntryPolicy::Seeded {
                    seeds: hits.iter().map(|&(_, g)| ghost.original_id(g)).collect(),
                    extra_random: config.seed_extra_random.max(params.candidates / 8),
                })
                .collect()
        } else {
            entries.to_vec()
        };

        // Logical deletions (§6.2): tombstoned nodes still act as bridges
        // during traversal and only vanish from results. Over-fetch so that
        // filtering cannot leave a query with fewer than k live hits while
        // live neighbors were ranked just past the window.
        let tombstones = self.deleted.count();
        let run_params = if tombstones > 0 {
            // Widen the beam along with k: clamping the widened k back to the
            // caller's beam silently cancels the over-fetch whenever
            // k == beam, so heavy deletions would return fewer than k live
            // hits even though the shard still holds them.
            let k = params.k + tombstones.min(params.k);
            let beam = params.beam.max(k);
            SearchParams { k, beam, ..*params }
        } else {
            *params
        };
        let ctx = ShardContext::new(&self.vectors, &self.graph, self.dir_table.as_ref())
            .with_quantized(self.quantized.as_ref());
        let batch = search_batch(&ctx, queries, &run_params, &main_entries);
        counters.merge(&batch.counters);
        stats.merge(&batch.stats);

        let hits = if tombstones > 0 {
            batch
                .hits
                .into_iter()
                .map(|h| {
                    let mut live: Vec<(f32, u32)> = h
                        .into_iter()
                        .filter(|&(_, id)| !self.deleted.contains(id as usize))
                        .collect();
                    live.truncate(params.k);
                    live
                })
                .collect()
        } else {
            batch.hits
        };

        ShardBatchOutput { hits, stats, counters }
    }

    /// Bytes of every structure resident on the device: the payload plus
    /// the `I(u)` table.
    pub fn resident_bytes(&self) -> Vec<(&'static str, u64)> {
        let mut out = self.payload.resident_bytes();
        if let Some(t) = &self.intershard {
            out.push(("intershard", t.nbytes() as u64));
        }
        out
    }
}

/// A built PathWeaver index over `num_devices` simulated GPUs.
#[derive(Debug, Clone)]
pub struct PathWeaverIndex {
    /// Build configuration.
    pub config: PathWeaverConfig,
    /// Per-device shard indices. Each shard is behind an [`Arc`] so a
    /// snapshot publish ([`crate::snapshot::ConcurrentIndex`]) clones only
    /// the spine: untouched shards are shared between the writer master and
    /// every pinned snapshot. The first mutation after a publish copies the
    /// shard it lands on (`Arc::make_mut`), and that copy is shallow: the
    /// [`ShardData`] payload stays shared, and only an insert copies it.
    pub shards: Vec<Arc<ShardIndex>>,
    /// Build-phase timing (Fig 17).
    pub build_report: BuildReport,
    /// Per-device simulated memory ledgers.
    pub ledgers: Vec<MemoryLedger>,
    /// High-water mark of allocated global ids: counts every vector ever
    /// indexed (including tombstoned and compacted ones), so new inserts
    /// never reuse a live id. Use [`PathWeaverIndex::live_vectors`] for the
    /// live count.
    pub num_vectors: usize,
}

impl PathWeaverIndex {
    /// Builds the index: random sharding, per-shard CAGRA-style graphs, and
    /// the configured auxiliary structures.
    ///
    /// # Errors
    ///
    /// [`BuildError::TooFewVectors`] when the dataset cannot fill every
    /// shard with at least `degree + 1` vectors;
    /// [`BuildError::OutOfMemory`] when a shard does not fit its device.
    pub fn build(dataset: &VectorSet, config: &PathWeaverConfig) -> Result<Self, BuildError> {
        config.validate();
        let need = config.num_devices * (config.graph.degree + 1);
        if dataset.len() < need {
            return Err(BuildError::TooFewVectors { have: dataset.len(), need });
        }

        let assignment = ShardAssignment::random(
            dataset.len(),
            config.num_devices,
            pathweaver_util::seed_from_parts(config.seed, "shard", 0),
        );
        let mut report = BuildReport::new();

        // Phase 1: per-shard vectors + proximity graphs.
        let mut shards: Vec<Arc<ShardIndex>> = Vec::with_capacity(config.num_devices);
        for s in 0..config.num_devices {
            // Aligned storage (64-byte rows, zero-padded stride) mirrors the
            // device-side layout and lets the SIMD kernels avoid split-line
            // loads; distances are bitwise unchanged (logical dim preserved).
            let vectors = assignment.gather(s, dataset).into_aligned();
            let graph =
                report.time(BuildPhase::GraphBuild, || cagra_build(&vectors, &config.graph));
            let dir_table = if config.build_dir_table {
                Some(report.time(BuildPhase::DirTable, || DirectionTable::build(&vectors, &graph)))
            } else {
                None
            };
            let ghost = config.ghost.map(|mut gp| {
                gp.seed = pathweaver_util::seed_from_parts(config.seed, "ghost", s as u64);
                report.time(BuildPhase::Ghost, || GhostShard::build(&vectors, &gp))
            });
            let quantized = config
                .build_quantized
                .then(|| report.time(BuildPhase::Quantize, || QuantizedSet::quantize(&vectors)));
            shards.push(Arc::new(ShardIndex::new(ShardData {
                global_ids: assignment.members(s).to_vec(),
                vectors,
                graph,
                dir_table,
                quantized,
                ghost,
            })));
        }

        // Phase 2: inter-shard tables (ring), only meaningful multi-device.
        if config.num_devices > 1 {
            let tables: Vec<InterShardTable> = (0..config.num_devices)
                .map(|s| {
                    let next = (s + 1) % config.num_devices;
                    report.time(BuildPhase::InterShard, || {
                        InterShardTable::build(
                            &shards[s].vectors,
                            &shards[next].vectors,
                            &shards[next].graph,
                            &config.intershard,
                        )
                    })
                })
                .collect();
            for (s, t) in tables.into_iter().enumerate() {
                Arc::make_mut(&mut shards[s]).intershard = Some(t);
            }
        }

        // Phase 3: simulated memory accounting.
        let mut ledgers = Vec::with_capacity(config.num_devices);
        for shard in &shards {
            let mut ledger = MemoryLedger::new(config.device.mem_capacity);
            for (label, bytes) in shard.resident_bytes() {
                ledger.allocate(label, bytes).map_err(BuildError::OutOfMemory)?;
            }
            ledgers.push(ledger);
        }

        Ok(Self {
            config: config.clone(),
            shards,
            build_report: report,
            ledgers,
            num_vectors: dataset.len(),
        })
    }

    /// Number of devices/shards.
    pub fn num_devices(&self) -> usize {
        self.shards.len()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.shards[0].vectors.dim()
    }

    /// Number of live (non-tombstoned, non-compacted) vectors.
    pub fn live_vectors(&self) -> usize {
        self.shards.iter().map(|s| s.len() - s.deleted.count()).sum()
    }
}

/// Output of a framework-level search (any mode).
#[derive(Debug, Clone)]
pub struct SearchOutput {
    /// Per-query global result ids (ascending by distance, length ≤ k).
    pub results: Vec<Vec<u32>>,
    /// Per-query `(squared distance, global id)` hits.
    pub hits: Vec<Vec<(f32, u32)>>,
    /// Simulated wall time of the batch.
    pub makespan_s: f64,
    /// Simulated queries/second.
    pub qps: f64,
    /// Aggregate simulated device-seconds by category.
    pub breakdown: TimeBreakdown,
    /// Aggregate search statistics.
    pub stats: BatchStats,
    /// Full stage timeline.
    pub timeline: PipelineTimeline,
}

impl SearchOutput {
    /// Assembles the output from a finished timeline and merged hits.
    pub(crate) fn from_parts(
        hits: Vec<Vec<(f32, u32)>>,
        stats: BatchStats,
        timeline: PipelineTimeline,
        num_queries: usize,
    ) -> Self {
        let makespan_s = timeline.makespan_s();
        let qps = if makespan_s > 0.0 { num_queries as f64 / makespan_s } else { 0.0 };
        let results = hits.iter().map(|h| h.iter().map(|&(_, id)| id).collect()).collect();
        let breakdown = timeline.aggregate();
        Self { results, hits, makespan_s, qps, breakdown, stats, timeline }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathweaver_datasets::{DatasetProfile, Scale};

    fn small_workload() -> pathweaver_datasets::Workload {
        DatasetProfile::deep10m_like().workload(Scale::Test, 6, 5, 11)
    }

    #[test]
    fn build_partitions_all_vectors() {
        let w = small_workload();
        let config = PathWeaverConfig::test_scale(3);
        let idx = PathWeaverIndex::build(&w.base, &config).unwrap();
        assert_eq!(idx.num_devices(), 3);
        let total: usize = idx.shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, w.base.len());
        for shard in &idx.shards {
            assert!(shard.dir_table.is_some());
            assert!(shard.ghost.is_some());
            assert!(shard.intershard.is_some());
            assert_eq!(shard.intershard.as_ref().unwrap().len(), shard.len());
        }
    }

    #[test]
    fn single_device_has_no_intershard() {
        let w = small_workload();
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(1)).unwrap();
        assert!(idx.shards[0].intershard.is_none());
        assert!(idx.shards[0].ghost.is_some());
    }

    #[test]
    fn global_ids_roundtrip() {
        let w = small_workload();
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        for shard in &idx.shards {
            for local in 0..shard.len() as u32 {
                let g = shard.to_global(local) as usize;
                assert_eq!(shard.vectors.row(local as usize), w.base.row(g));
            }
        }
    }

    #[test]
    fn too_small_dataset_errors() {
        let tiny = VectorSet::from_fn(10, 4, |r, c| (r + c) as f32);
        let err = PathWeaverIndex::build(&tiny, &PathWeaverConfig::test_scale(4)).unwrap_err();
        assert!(matches!(err, BuildError::TooFewVectors { .. }));
    }

    #[test]
    fn oom_detected_for_tiny_device() {
        let w = small_workload();
        let mut config = PathWeaverConfig::test_scale(2);
        config.device.mem_capacity = 1024; // 1 KiB: nothing fits.
        let err = PathWeaverIndex::build(&w.base, &config).unwrap_err();
        assert!(matches!(err, BuildError::OutOfMemory(_)));
    }

    #[test]
    fn build_report_has_all_phases() {
        let w = small_workload();
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let r = &idx.build_report;
        assert!(r.graph_build_s > 0.0);
        assert!(r.ghost_s > 0.0);
        assert!(r.dirtable_s > 0.0);
        assert!(r.intershard_s > 0.0);
    }

    #[test]
    fn shard_local_search_finds_resident_vector() {
        let w = small_workload();
        let config = PathWeaverConfig::test_scale(2);
        let idx = PathWeaverIndex::build(&w.base, &config).unwrap();
        let shard = &idx.shards[0];
        let queries = shard.vectors.gather(&[3]);
        let params = SearchParams { k: 1, ..Default::default() };
        let out = shard.search_local(
            &queries,
            &params,
            &[pathweaver_search::EntryPolicy::Random { count: 16 }],
            true,
            &config,
        );
        assert_eq!(out.hits[0][0].1, 3);
        assert!(out.counters.dist_calcs > 0);
    }

    #[test]
    fn quantized_tier_built_and_searchable() {
        let w = small_workload();
        let config = PathWeaverConfig::test_scale(2);
        let idx = PathWeaverIndex::build(&w.base, &config).unwrap();
        assert!(idx.build_report.quantize_s > 0.0, "quantize phase must be timed");
        for shard in &idx.shards {
            let q = shard.quantized.as_ref().expect("test_scale builds the tier");
            assert_eq!(q.len(), shard.vectors.len());
            assert!(
                shard.resident_bytes().iter().any(|&(label, b)| label == "quantized" && b > 0),
                "quantized payload missing from the memory ledger"
            );
        }
        let shard = &idx.shards[0];
        let queries = shard.vectors.gather(&[3]);
        let params = SearchParams { k: 1, quantized: true, ..Default::default() };
        let out = shard.search_local(
            &queries,
            &params,
            &[pathweaver_search::EntryPolicy::Random { count: 16 }],
            true,
            &config,
        );
        assert_eq!(out.hits[0][0].1, 3);
        assert_eq!(out.hits[0][0].0, 0.0, "re-rank must restore the exact distance");
        assert!(out.counters.quant_dist_calcs > 0, "traversal must run on codes");
    }

    #[test]
    fn deleted_hits_filtered() {
        let w = small_workload();
        let config = PathWeaverConfig::test_scale(2);
        let mut idx = PathWeaverIndex::build(&w.base, &config).unwrap();
        Arc::make_mut(&mut idx.shards[0]).deleted.insert(3);
        let queries = idx.shards[0].vectors.gather(&[3]);
        let params = SearchParams { k: 2, ..Default::default() };
        let out = idx.shards[0].search_local(
            &queries,
            &params,
            &[pathweaver_search::EntryPolicy::Random { count: 16 }],
            false,
            &config,
        );
        assert!(out.hits[0].iter().all(|&(_, id)| id != 3), "tombstoned id returned");
    }

    #[test]
    fn tombstone_overfetch_widens_tight_beam() {
        let w = small_workload();
        let config = PathWeaverConfig::test_scale(2);
        let mut idx = PathWeaverIndex::build(&w.base, &config).unwrap();
        let queries = idx.shards[0].vectors.gather(&[0]);
        let entries = [pathweaver_search::EntryPolicy::Random { count: 16 }];

        // Find the query's ten nearest locals with a generous beam, then
        // tombstone all of them.
        let wide = SearchParams { k: 10, beam: 64, ..Default::default() };
        let before = idx.shards[0].search_local(&queries, &wide, &entries, false, &config);
        let victims: Vec<u32> = before.hits[0].iter().map(|&(_, id)| id).collect();
        assert_eq!(victims.len(), 10);
        for &v in &victims {
            Arc::make_mut(&mut idx.shards[0]).deleted.insert(v as usize);
        }

        // A caller whose beam equals k leaves the over-fetch no headroom
        // unless the beam widens alongside the widened k.
        let tight = SearchParams { k: 10, beam: 10, ..Default::default() };
        let out = idx.shards[0].search_local(&queries, &tight, &entries, false, &config);
        assert_eq!(out.hits[0].len(), 10, "deletions starved the result window");
        for &(_, id) in &out.hits[0] {
            assert!(!victims.contains(&id), "tombstoned id {id} returned");
        }
    }
}
