//! The per-query search loop and the batch driver (paper §2.2, §4).
//!
//! The loop is CAGRA's: initialize the priority buffer from entry candidates,
//! then repeatedly expand the best `r` unexpanded nodes, filter their
//! neighbors (direction-guided selection, §3.3), compute exact distances for
//! the survivors, and merge them into the buffer. The search converges when
//! no unexpanded node remains in the buffer — the paper's "priority queue
//! receives no new entries" condition — or the iteration cap is hit.
//!
//! Every operation is tallied into [`CostCounters`]; the simulated GPU clock
//! is derived from those counters, never from wall time.

use crate::dgs::{select_neighbors_into, NeighborFilter};
use crate::hash::VisitedHash;
use crate::params::SearchParams;
use crate::queue::PriorityBuffer;
use crate::stats::{BatchStats, SearchStats};
use pathweaver_gpusim::CostCounters;
use pathweaver_graph::{DirectionTable, FixedDegreeGraph};
use pathweaver_vector::{batch_l2_squared, QuantizedSet, SignCodeBuf, VectorSet};
use rand::Rng;

/// Everything resident on one simulated device for one shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardContext<'a> {
    /// Shard vectors.
    pub vectors: &'a VectorSet,
    /// Shard proximity graph.
    pub graph: &'a FixedDegreeGraph,
    /// Optional direction-bit table (required when DGS is enabled).
    pub dir_table: Option<&'a DirectionTable>,
    /// Optional int8 quantized payload (required for quantized traversal;
    /// searches fall back to exact distances when absent).
    pub quantized: Option<&'a QuantizedSet>,
}

impl<'a> ShardContext<'a> {
    /// Creates a context, checking graph/vector consistency.
    ///
    /// # Panics
    ///
    /// Panics if the graph and vectors disagree on node count.
    pub fn new(
        vectors: &'a VectorSet,
        graph: &'a FixedDegreeGraph,
        dir_table: Option<&'a DirectionTable>,
    ) -> Self {
        assert_eq!(vectors.len(), graph.num_nodes(), "graph/vector size mismatch");
        Self { vectors, graph, dir_table, quantized: None }
    }

    /// Attaches the shard's quantized payload, checking shape consistency.
    ///
    /// # Panics
    ///
    /// Panics if the payload disagrees with the vectors on row count or
    /// dimensionality.
    pub fn with_quantized(mut self, quantized: Option<&'a QuantizedSet>) -> Self {
        if let Some(q) = quantized {
            assert_eq!(q.len(), self.vectors.len(), "quantized/vector size mismatch");
            assert_eq!(q.dim(), self.vectors.dim(), "quantized/vector dim mismatch");
        }
        self.quantized = quantized;
        self
    }
}

/// One batched distance pass over `ids`, on the quantized tier when query
/// codes are present and exact otherwise. Tallies one distance per id; the
/// tally order relative to queue pushes does not matter (counters are pure
/// sums), so batching the records here keeps both call sites identical.
fn batch_candidate_distances(
    ctx: &ShardContext<'_>,
    query: &[f32],
    qcodes: Option<&[i8]>,
    ids: &[u32],
    dists: &mut Vec<f32>,
    counters: &mut CostCounters,
) {
    let dim = ctx.vectors.dim();
    dists.resize(ids.len(), 0.0);
    match qcodes {
        Some(qc) => {
            // lint: allow(hot-panic) — caller contract: query codes are only
            // built when ctx.quantized is Some (search_batch gates on it).
            let qs = ctx.quantized.expect("query codes imply a quantized payload");
            qs.batch_code_l2_squared(ids, qc, dists);
            for _ in ids {
                counters.record_quantized_distance(dim);
            }
        }
        None => {
            batch_l2_squared(ctx.vectors, ids, query, dists);
            for _ in ids {
                counters.record_distance(dim);
            }
        }
    }
}

/// How a query's initial candidate buffer is filled (paper §2.2 step 2 or
/// the seeded variants of §3.1/§3.2).
#[derive(Debug, Clone)]
pub enum EntryPolicy {
    /// `count` uniformly random nodes (baseline CAGRA).
    Random {
        /// Number of random entries.
        count: usize,
    },
    /// Explicit seeds (forwarded results `I(z)` or ghost-stage hits), plus
    /// `extra_random` random nodes as a safety net.
    Seeded {
        /// Seed node ids in this shard.
        seeds: Vec<u32>,
        /// Additional random entries.
        extra_random: usize,
    },
}

/// Searches one query on one shard, tallying every simulated operation.
///
/// Returns `(top-k hits ascending by distance, per-query statistics)`.
///
/// # Panics
///
/// Panics if `params` are invalid (see [`SearchParams::validate`]), the
/// shard is empty, or DGS is enabled without a direction table.
pub fn search_query(
    ctx: &ShardContext<'_>,
    query: &[f32],
    params: &SearchParams,
    entry: &EntryPolicy,
    query_seed: u64,
    counters: &mut CostCounters,
) -> (Vec<(f32, u32)>, SearchStats) {
    params.validate();
    let n = ctx.vectors.len();
    assert!(n > 0, "empty shard");
    let dim = ctx.vectors.dim();
    let degree = ctx.graph.degree();
    if params.dgs.is_some() && !params.random_discard {
        assert!(ctx.dir_table.is_some(), "direction-guided selection needs a direction table");
    }

    let mut queue = PriorityBuffer::new(params.beam);
    let mut visited = VisitedHash::new(params.hash_bits);
    let mut scratch = SignCodeBuf::new(dim);
    let mut rng = pathweaver_util::small_rng(query_seed);
    let mut stats = SearchStats::default();

    // Quantized tier: encode the query once into code space (§ the int8
    // traversal tier); every beam distance then streams 1 byte/dim. Shards
    // without a payload (e.g. the ghost stage) silently run exact.
    let qcodes: Option<Vec<i8>> = if params.quantized {
        ctx.quantized.map(|qs| {
            counters.sign_encodes += 1; // one query encode, same cost class
            qs.encode(query)
        })
    } else {
        None
    };

    // Scratch reused across all beam iterations (and the init phase): the
    // expansion targets, the per-node selected row positions, the DGS match
    // counts and sort keys, and the candidate id/distance lists fed to the
    // batched distance kernel. The hot loop performs no allocation after
    // warm-up.
    let mut targets: Vec<(f32, u32)> = Vec::with_capacity(params.expand);
    let mut selected: Vec<usize> = Vec::with_capacity(degree);
    let mut match_counts: Vec<u32> = Vec::with_capacity(degree);
    let mut rank_keys: Vec<u64> = Vec::with_capacity(degree);
    let mut cand_ids: Vec<u32> = Vec::with_capacity(params.expand * degree);
    let mut cand_dists: Vec<f32> = Vec::with_capacity(params.expand * degree);

    // Step 2–3: fill the candidate buffer and sort it into the queue.
    let mut init_ids: Vec<u32> = Vec::with_capacity(params.candidates);
    match entry {
        EntryPolicy::Random { count } => {
            for _ in 0..(*count).max(1) {
                // lint: allow(hot-panic) — shard node counts stay far below
                // u32::MAX at build time; this keeps the rng domain bit-stable.
                init_ids.push(u32::try_from(rng.gen_range(0..n)).expect("node id fits u32"));
                counters.rng_ops += 1;
            }
        }
        EntryPolicy::Seeded { seeds, extra_random } => {
            init_ids.extend(seeds.iter().copied().filter(|&s| (s as usize) < n));
            for _ in 0..*extra_random {
                // lint: allow(hot-panic) — same bound and rng-determinism
                // argument as the Random entry arm above.
                init_ids.push(u32::try_from(rng.gen_range(0..n)).expect("node id fits u32"));
                counters.rng_ops += 1;
            }
            assert!(!init_ids.is_empty(), "seeded entry produced no valid candidates");
        }
    }
    cand_ids.clear();
    cand_ids.extend(init_ids.iter().copied().filter(|&id| visited.insert(id)));
    batch_candidate_distances(ctx, query, qcodes.as_deref(), &cand_ids, &mut cand_dists, counters);
    for (&id, &d) in cand_ids.iter().zip(&cand_dists) {
        stats.visits += 1;
        queue.push(d, id);
    }

    // Steps 3–4 iterated: expand, filter, compute, merge.
    let cooldown_start = params.cooldown_start();
    let keep = params.kept_neighbors(degree);
    let mut stalled = 0usize;
    for iter in 0..params.max_iterations {
        queue.pop_expansion_targets_into(params.expand, &mut targets);
        if targets.is_empty() {
            stats.converged = true;
            break;
        }
        stats.iterations += 1;
        // Paper §2.2: iterate "until the priority queue receives no new
        // entries". The signal watches the *result window* (the top-k
        // slots): a seeded search (path extension / ghost staging) starts at
        // the optimum's doorstep, so its window stabilizes within a couple
        // of iterations, while a random start keeps improving it during the
        // whole navigation phase — exactly where the pipelined stages get
        // their speedup. Beam-tail churn is ignored.
        let mut inserted_in_window = false;

        let filter = match params.dgs {
            // `keep < degree` only gates the top-n mode: in threshold mode
            // `keep_ratio` is a matching-bit fraction, not a neighbor count.
            Some(d) if iter < cooldown_start && (d.threshold_mode || keep < degree) => {
                if params.random_discard {
                    NeighborFilter::Random { keep }
                } else if d.threshold_mode {
                    // §6.3 variant: the keep_ratio doubles as the matching-
                    // bit fraction required of a surviving neighbor.
                    // `keep_ratio` is validated to [0, 1], so the product is
                    // bounded by `dim`, which fits u32.
                    #[allow(clippy::cast_possible_truncation)]
                    let min_matches = (d.keep_ratio * dim as f64).round() as u32;
                    NeighborFilter::Threshold { min_matches }
                } else {
                    NeighborFilter::Direction { keep }
                }
            }
            _ => NeighborFilter::All,
        };

        // Phase 1: select and dedup candidates for every target. Filtering
        // and visited-hash insertion run in the same order as the historical
        // per-neighbor loop, so RNG draws and hash probes are unchanged.
        cand_ids.clear();
        for &(_, u) in &targets {
            counters.record_adjacency_fetch(degree);
            match filter {
                NeighborFilter::All => select_neighbors_into(
                    NeighborFilter::All,
                    degree,
                    ctx.vectors.row(u as usize),
                    query,
                    None,
                    &mut scratch,
                    &mut rng,
                    &mut match_counts,
                    &mut rank_keys,
                    &mut selected,
                ),
                NeighborFilter::Random { keep } => {
                    counters.rng_ops += degree as u64;
                    select_neighbors_into(
                        NeighborFilter::Random { keep },
                        degree,
                        ctx.vectors.row(u as usize),
                        query,
                        None,
                        &mut scratch,
                        &mut rng,
                        &mut match_counts,
                        &mut rank_keys,
                        &mut selected,
                    );
                }
                NeighborFilter::Direction { .. } | NeighborFilter::Threshold { .. } => {
                    // lint: allow(hot-panic) — this arm is only reachable
                    // after the filter selection above saw a Some table.
                    let table = ctx.dir_table.expect("checked above");
                    counters.record_dir_selection(degree, table.words_per_code());
                    if matches!(filter, NeighborFilter::Direction { .. }) {
                        // Only the top-n mode pays a min-sort over the
                        // `degree` match counts; threshold mode is a linear
                        // scan already covered by the per-compare cost.
                        // `ceil(log2(degree))` of a graph degree is tiny, so
                        // the f64-to-u64 cast cannot truncate.
                        #[allow(clippy::cast_possible_truncation)]
                        let cmp_rounds = (degree as f64).log2().ceil() as u64;
                        counters.sort_ops += cmp_rounds * degree as u64;
                    }
                    select_neighbors_into(
                        filter,
                        degree,
                        ctx.vectors.row(u as usize),
                        query,
                        Some((table, u)),
                        &mut scratch,
                        &mut rng,
                        &mut match_counts,
                        &mut rank_keys,
                        &mut selected,
                    );
                }
            }
            stats.filtered_neighbors += (degree - selected.len()) as u64;
            let row = ctx.graph.neighbors(u);
            cand_ids.extend(selected.iter().map(|&j| row[j]).filter(|&v| visited.insert(v)));
        }

        // Phase 2: one batched gather-distance call for the whole iteration
        // (bitwise identical to per-candidate `l2_squared`), then merge in
        // the historical order. Distances and pushes are sequenced exactly
        // as before, so the counters and the queue evolve identically.
        batch_candidate_distances(
            ctx,
            query,
            qcodes.as_deref(),
            &cand_ids,
            &mut cand_dists,
            counters,
        );
        for (&v, &d) in cand_ids.iter().zip(&cand_dists) {
            stats.visits += 1;
            if let Some(rank) = queue.push_at(d, v) {
                if rank < params.k {
                    inserted_in_window = true;
                }
            }
        }
        if inserted_in_window {
            stalled = 0;
        } else {
            stalled += 1;
            if stalled >= params.patience.max(1) {
                stats.converged = true;
                break;
            }
        }
    }
    if !stats.converged && queue.pop_expansion_targets(1).is_empty() {
        stats.converged = true;
    }

    counters.sort_ops += queue.take_sort_steps();
    counters.hash_probes += visited.take_probes();
    counters.iterations += stats.iterations;

    // Table 1 semantics: a visit is "kept" only if the node is still in the
    // priority buffer at the end; everything else was computed and dropped.
    let kept = queue.len() as u64;
    stats.discarded = stats.visits.saturating_sub(kept);

    // Quantized traversal ends with an exact re-rank of the final candidate
    // window only: code-space distances order the beam but are not L2 values
    // (each dimension is range-normalized by its scale), so the window is
    // re-scored against the full-precision vectors and the true top-k
    // returned. The window is wider than k so a near-neighbor demoted a few
    // ranks by quantization error still survives the cut.
    let hits = if qcodes.is_some() {
        let window = queue.top_k(params.candidates.max(params.k));
        let ids: Vec<u32> = window.iter().map(|&(_, id)| id).collect();
        let mut exact = vec![0.0f32; ids.len()];
        batch_l2_squared(ctx.vectors, &ids, query, &mut exact);
        for _ in &ids {
            counters.record_distance(dim);
        }
        stats.rerank_width = ids.len() as u64;
        let mut rescored: Vec<(f32, u32)> =
            exact.iter().copied().zip(ids.iter().copied()).collect();
        // Distance then id: a total order, so ties resolve deterministically.
        rescored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Same per-insert charge as the priority buffer's bitonic model.
        // `ceil(log2(window))` of a candidate window is tiny, so the
        // f64-to-u64 cast cannot truncate.
        #[allow(clippy::cast_possible_truncation)]
        let rounds = (rescored.len().max(2) as f64).log2().ceil() as u64;
        counters.sort_ops += rounds * rescored.len() as u64;
        rescored.truncate(params.k);
        rescored
    } else {
        queue.top_k(params.k)
    };

    (hits, stats)
}

/// Result of a batch search on one shard.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-query top-k hits, ascending by distance.
    pub hits: Vec<Vec<(f32, u32)>>,
    /// Aggregated statistics.
    pub stats: BatchStats,
    /// Aggregated operation counters (including one kernel launch).
    pub counters: CostCounters,
}

/// Searches a batch of queries on one shard in parallel.
///
/// `entries[i]` configures query `i`'s entry candidates; pass a single-entry
/// slice to share one policy across the batch.
///
/// # Panics
///
/// Panics if `entries` is neither length 1 nor `queries.len()`.
pub fn search_batch(
    ctx: &ShardContext<'_>,
    queries: &VectorSet,
    params: &SearchParams,
    entries: &[EntryPolicy],
) -> BatchResult {
    assert!(
        entries.len() == 1 || entries.len() == queries.len(),
        "entries must be shared (len 1) or per-query (len {})",
        queries.len()
    );
    let per_query = pathweaver_util::parallel_map(queries.len(), |q| {
        let mut counters = CostCounters::new();
        let entry = if entries.len() == 1 { &entries[0] } else { &entries[q] };
        let seed = pathweaver_util::seed_from_parts(params.seed, "query", q as u64);
        let (hits, stats) = search_query(ctx, queries.row(q), params, entry, seed, &mut counters);
        (hits, stats, counters)
    });

    let mut result = BatchResult {
        hits: Vec::with_capacity(queries.len()),
        stats: BatchStats::default(),
        counters: CostCounters::new(),
    };
    let obs = pathweaver_obs::enabled();
    for (hits, stats, counters) in per_query {
        if obs {
            record_query_metrics(&stats, &counters);
        }
        result.hits.push(hits);
        result.stats.absorb(&stats);
        result.counters.merge(&counters);
    }
    result.counters.kernel_launches += 1;
    if obs {
        record_batch_metrics(ctx, params, &result);
    }
    result
}

/// Records one query's per-query distributions into the metrics registry.
///
/// Runs on the host aggregation loop, off the parallel per-query hot path;
/// histogram recording is order-independent, so the resulting summaries are
/// deterministic for a deterministic workload.
fn record_query_metrics(stats: &SearchStats, counters: &CostCounters) {
    let r = pathweaver_obs::registry();
    r.histogram("search.query.iterations").record(stats.iterations);
    r.histogram("search.query.visits").record(stats.visits);
    r.histogram("search.query.hash_probes").record(counters.hash_probes);
    if stats.rerank_width > 0 {
        r.histogram("qt.query.rerank_width").record(stats.rerank_width);
    }
}

/// Records batch-level aggregates: query/convergence counts, visited-hash
/// probe totals, and — when DGS is active — the neighbor skip rate that the
/// paper's distance-computation savings hinge on.
fn record_batch_metrics(ctx: &ShardContext<'_>, params: &SearchParams, batch: &BatchResult) {
    let r = pathweaver_obs::registry();
    r.counter("search.queries").add(batch.stats.queries);
    r.counter("search.converged").add(batch.stats.converged);
    r.counter("search.hash.probes").add(batch.counters.hash_probes);
    if params.quantized && batch.counters.quant_dist_calcs > 0 {
        // The compressed-tier ledger: code-space distances computed, exact
        // re-scores paid at the end, and the bytes the tier streamed. The 4×
        // traffic cut versus `record_distance` is visible here directly.
        r.counter("qt.queries").add(batch.stats.queries);
        r.counter("qt.dist_calcs").add(batch.counters.quant_dist_calcs);
        r.counter("qt.rerank.dist_calcs").add(batch.stats.reranked);
        r.counter("qt.vector_bytes")
            .add(batch.counters.quant_dist_calcs * ctx.vectors.dim() as u64);
    }
    if params.dgs.is_some() {
        let considered = batch.counters.nodes_visited * ctx.graph.degree() as u64;
        let skipped = r.counter("search.dgs.neighbors_skipped");
        let total = r.counter("search.dgs.neighbors_considered");
        skipped.add(batch.stats.filtered_neighbors);
        total.add(considered);
        if total.get() > 0 {
            // Cumulative skip rate across every DGS batch so far; derived
            // from the two counters, hence replay-deterministic.
            r.gauge("search.dgs.skip_rate").set(skipped.get() as f64 / total.get() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathweaver_graph::{cagra_build, CagraBuildParams};
    use pathweaver_vector::l2_squared;

    fn world(n: usize, dim: usize) -> (VectorSet, FixedDegreeGraph, DirectionTable) {
        let mut rng = pathweaver_util::small_rng(99);
        let set = VectorSet::from_fn(n, dim, |r, _| {
            (r % 25) as f32 * 0.8 + rand::Rng::gen_range(&mut rng, -0.3f32..0.3)
        });
        let g = cagra_build(&set, &CagraBuildParams::with_degree(16));
        let t = DirectionTable::build(&set, &g);
        (set, g, t)
    }

    fn exact_top1(set: &VectorSet, q: &[f32]) -> u32 {
        let mut best = (f32::INFINITY, 0u32);
        for i in 0..set.len() {
            let d = l2_squared(set.row(i), q);
            if d < best.0 {
                best = (d, u32::try_from(i).expect("test set fits u32"));
            }
        }
        best.1
    }

    #[test]
    fn finds_indexed_vector_exactly() {
        let (set, g, _) = world(600, 12);
        let ctx = ShardContext::new(&set, &g, None);
        let params = SearchParams::default();
        let mut c = CostCounters::new();
        let (hits, stats) = search_query(
            &ctx,
            set.row(321),
            &params,
            &EntryPolicy::Random { count: 32 },
            7,
            &mut c,
        );
        assert_eq!(hits[0].1, 321);
        assert_eq!(hits[0].0, 0.0);
        assert!(stats.visits > 0);
        assert!(c.dist_calcs == stats.visits);
    }

    #[test]
    fn seeded_entry_converges_faster_than_random() {
        let (set, g, _) = world(800, 12);
        let ctx = ShardContext::new(&set, &g, None);
        let params = SearchParams::default();
        let q = set.row(555).to_vec();
        let near = exact_top1(&set, &q);
        let mut c1 = CostCounters::new();
        let (_, s_rand) =
            search_query(&ctx, &q, &params, &EntryPolicy::Random { count: 64 }, 1, &mut c1);
        let mut c2 = CostCounters::new();
        let (_, s_seed) = search_query(
            &ctx,
            &q,
            &params,
            &EntryPolicy::Seeded { seeds: vec![near], extra_random: 0 },
            1,
            &mut c2,
        );
        assert!(
            s_seed.visits < s_rand.visits,
            "seeded {} should visit fewer than random {}",
            s_seed.visits,
            s_rand.visits
        );
    }

    #[test]
    fn dgs_reduces_distance_calcs() {
        // DGS trades per-iteration distance work for (slightly) more
        // iterations; its win shows at a matched iteration budget, which is
        // also how the paper's QPS–recall sweeps operate. A uniform world
        // keeps adjacency overlap (and hence visited-dedup) low, so the
        // distance count tracks the keep ratio.
        let mut rng = pathweaver_util::small_rng(4242);
        let set = VectorSet::from_fn(2000, 32, |_, _| rand::Rng::gen_range(&mut rng, -1.0f32..1.0));
        let g = cagra_build(&set, &CagraBuildParams::with_degree(16));
        let t = DirectionTable::build(&set, &g);
        let ctx = ShardContext::new(&set, &g, Some(&t));
        // A budget low enough that neither variant hits the no-new-entries
        // stop, so both run the same number of iterations.
        let base = SearchParams { max_iterations: 8, ..Default::default() };
        let dgs = SearchParams {
            dgs: Some(crate::params::DgsParams {
                keep_ratio: 0.5,
                cooldown_ratio: 0.3,
                threshold_mode: false,
            }),
            ..base
        };
        let q = set.row(100).to_vec();
        let mut c_base = CostCounters::new();
        let _ = search_query(&ctx, &q, &base, &EntryPolicy::Random { count: 64 }, 3, &mut c_base);
        let mut c_dgs = CostCounters::new();
        let (hits, stats) =
            search_query(&ctx, &q, &dgs, &EntryPolicy::Random { count: 64 }, 3, &mut c_dgs);
        assert!(
            c_dgs.dist_calcs < c_base.dist_calcs,
            "{} vs {}",
            c_dgs.dist_calcs,
            c_base.dist_calcs
        );
        assert!(stats.filtered_neighbors > 0);
        assert!(c_dgs.dir_table_bytes > 0);
        // Accuracy: DGS should still land on the exact vector.
        assert_eq!(hits[0].1, 100);
    }

    #[test]
    fn discarded_visits_dominate() {
        // Table 1: the overwhelming majority of visited nodes never survive
        // to the final buffer.
        let (set, g, _) = world(1000, 16);
        let ctx = ShardContext::new(&set, &g, None);
        // A narrow final buffer relative to the exploration volume, as in
        // real deployments (Table 1 measures >80 % discarded).
        let params = SearchParams { beam: 32, candidates: 64, ..Default::default() };
        let mut c = CostCounters::new();
        let (_, stats) = search_query(
            &ctx,
            set.row(42),
            &params,
            &EntryPolicy::Random { count: 64 },
            11,
            &mut c,
        );
        assert!(stats.discard_ratio() > 0.5, "ratio {}", stats.discard_ratio());
    }

    #[test]
    fn batch_driver_matches_single_queries() {
        let (set, g, _) = world(400, 8);
        let ctx = ShardContext::new(&set, &g, None);
        let params = SearchParams { k: 5, ..Default::default() };
        let queries = set.gather(&[10, 20, 30]);
        let batch = search_batch(&ctx, &queries, &params, &[EntryPolicy::Random { count: 32 }]);
        assert_eq!(batch.hits.len(), 3);
        assert_eq!(batch.stats.queries, 3);
        assert_eq!(batch.counters.kernel_launches, 1);
        for (i, &orig) in [10u32, 20, 30].iter().enumerate() {
            assert_eq!(batch.hits[i][0].1, orig, "query {i}");
        }
    }

    /// Serializes tests that toggle the process-global obs flag.
    fn obs_guard() -> parking_lot::MutexGuard<'static, ()> {
        static LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
        LOCK.lock()
    }

    #[test]
    fn dgs_metrics_recorded_when_enabled() {
        let _g = obs_guard();
        let mut rng = pathweaver_util::small_rng(777);
        let set = VectorSet::from_fn(1200, 24, |_, _| rand::Rng::gen_range(&mut rng, -1.0f32..1.0));
        let g = cagra_build(&set, &CagraBuildParams::with_degree(16));
        let t = DirectionTable::build(&set, &g);
        let ctx = ShardContext::new(&set, &g, Some(&t));
        let params =
            SearchParams { dgs: Some(crate::params::DgsParams::default()), ..Default::default() };
        let queries = set.gather(&[5, 50, 500]);
        pathweaver_obs::set_enabled(true);
        let _ = search_batch(&ctx, &queries, &params, &[EntryPolicy::Random { count: 32 }]);
        pathweaver_obs::set_enabled(false);
        let snap = pathweaver_obs::global_snapshot();
        assert!(snap.counters["search.queries"] >= 3);
        assert!(snap.counters["search.dgs.neighbors_skipped"] > 0);
        assert!(snap.counters["search.hash.probes"] > 0);
        let rate = snap.gauges["search.dgs.skip_rate"];
        assert!(rate > 0.0 && rate < 1.0, "skip rate {rate}");
        assert!(snap.histograms["search.query.iterations"].count >= 3);
        assert!(snap.histograms["search.query.visits"].p50 > 0);
    }

    #[test]
    fn metrics_do_not_perturb_search() {
        let _g = obs_guard();
        let (set, g, _) = world(500, 12);
        let ctx = ShardContext::new(&set, &g, None);
        let params = SearchParams::default();
        let queries = set.gather(&[7, 70, 170]);
        let entries = [EntryPolicy::Random { count: 32 }];
        let off = search_batch(&ctx, &queries, &params, &entries);
        pathweaver_obs::set_enabled(true);
        let on = search_batch(&ctx, &queries, &params, &entries);
        pathweaver_obs::set_enabled(false);
        assert_eq!(off.hits, on.hits, "hits changed with metrics enabled");
        assert_eq!(off.counters, on.counters, "simulated counters changed with metrics enabled");
    }

    #[test]
    fn max_iterations_caps_work() {
        let (set, g, _) = world(800, 8);
        let ctx = ShardContext::new(&set, &g, None);
        let capped = SearchParams { max_iterations: 2, ..Default::default() };
        let mut c = CostCounters::new();
        let (_, stats) =
            search_query(&ctx, set.row(0), &capped, &EntryPolicy::Random { count: 16 }, 5, &mut c);
        assert!(stats.iterations <= 2);
    }

    #[test]
    fn per_query_entries_respected() {
        let (set, g, _) = world(300, 8);
        let ctx = ShardContext::new(&set, &g, None);
        let params = SearchParams { k: 1, ..Default::default() };
        let queries = set.gather(&[5, 250]);
        let entries = vec![
            EntryPolicy::Seeded { seeds: vec![5], extra_random: 0 },
            EntryPolicy::Seeded { seeds: vec![250], extra_random: 0 },
        ];
        let batch = search_batch(&ctx, &queries, &params, &entries);
        assert_eq!(batch.hits[0][0].1, 5);
        assert_eq!(batch.hits[1][0].1, 250);
    }

    #[test]
    #[should_panic(expected = "direction-guided selection needs a direction table")]
    fn dgs_without_table_panics() {
        let (set, g, _) = world(100, 8);
        let ctx = ShardContext::new(&set, &g, None);
        let params =
            SearchParams { dgs: Some(crate::params::DgsParams::default()), ..Default::default() };
        let mut c = CostCounters::new();
        let _ =
            search_query(&ctx, set.row(0), &params, &EntryPolicy::Random { count: 8 }, 1, &mut c);
    }

    #[test]
    fn quantized_traversal_finds_indexed_vector_with_exact_distances() {
        let (set, g, _) = world(600, 12);
        let qs = QuantizedSet::quantize(&set);
        let ctx = ShardContext::new(&set, &g, None).with_quantized(Some(&qs));
        let params = SearchParams { quantized: true, ..Default::default() };
        let mut c = CostCounters::new();
        let (hits, stats) = search_query(
            &ctx,
            set.row(321),
            &params,
            &EntryPolicy::Random { count: 32 },
            7,
            &mut c,
        );
        assert_eq!(hits[0].1, 321);
        assert_eq!(hits[0].0, 0.0);
        // Traversal ran on codes; only the re-rank window paid exact work.
        assert!(c.quant_dist_calcs >= stats.visits);
        assert_eq!(c.dist_calcs, stats.rerank_width);
        assert!(stats.rerank_width >= params.k as u64);
        // Every returned distance is the true L2, not a code-space value.
        let q = set.row(321);
        for &(d, id) in &hits {
            assert_eq!(d, l2_squared(set.row(id as usize), q), "hit {id}");
        }
        // Returned ascending.
        for w in hits.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn quantized_without_payload_falls_back_to_exact() {
        let (set, g, _) = world(400, 8);
        let ctx = ShardContext::new(&set, &g, None);
        let exact = SearchParams::default();
        let quant = SearchParams { quantized: true, ..exact };
        let mut c1 = CostCounters::new();
        let (h1, _) =
            search_query(&ctx, set.row(9), &exact, &EntryPolicy::Random { count: 32 }, 3, &mut c1);
        let mut c2 = CostCounters::new();
        let (h2, _) =
            search_query(&ctx, set.row(9), &quant, &EntryPolicy::Random { count: 32 }, 3, &mut c2);
        assert_eq!(h1, h2, "fallback must be bitwise-identical to exact");
        assert_eq!(c1, c2);
        assert_eq!(c2.quant_dist_calcs, 0);
    }

    #[test]
    fn quantized_traversal_streams_fewer_vector_bytes() {
        // A long enough traversal that the fixed-size exact re-rank window
        // stops dominating the byte tally (in real profiles the traversal is
        // thousands of visits; here patience keeps the beam exploring).
        let (set, g, _) = world(4000, 64);
        let qs = QuantizedSet::quantize(&set);
        let ctx = ShardContext::new(&set, &g, None).with_quantized(Some(&qs));
        let exact = SearchParams { patience: 8, ..Default::default() };
        let quant = SearchParams { quantized: true, ..exact };
        let q = set.row(70).to_vec();
        let mut ce = CostCounters::new();
        let _ = search_query(&ctx, &q, &exact, &EntryPolicy::Random { count: 64 }, 5, &mut ce);
        let mut cq = CostCounters::new();
        let _ = search_query(&ctx, &q, &quant, &EntryPolicy::Random { count: 64 }, 5, &mut cq);
        assert!(
            cq.vector_bytes < ce.vector_bytes / 2,
            "quantized {} vs exact {}",
            cq.vector_bytes,
            ce.vector_bytes
        );
    }

    #[test]
    fn qt_metrics_recorded_when_enabled() {
        let _g = obs_guard();
        let (set, g, _) = world(500, 12);
        let qs = QuantizedSet::quantize(&set);
        let ctx = ShardContext::new(&set, &g, None).with_quantized(Some(&qs));
        let params = SearchParams { quantized: true, ..Default::default() };
        let queries = set.gather(&[7, 70, 170]);
        pathweaver_obs::set_enabled(true);
        let _ = search_batch(&ctx, &queries, &params, &[EntryPolicy::Random { count: 32 }]);
        pathweaver_obs::set_enabled(false);
        let snap = pathweaver_obs::global_snapshot();
        assert!(snap.counters["qt.queries"] >= 3);
        assert!(snap.counters["qt.dist_calcs"] > 0);
        assert!(snap.counters["qt.rerank.dist_calcs"] > 0);
        assert!(snap.counters["qt.vector_bytes"] > 0);
        assert!(snap.histograms["qt.query.rerank_width"].count >= 3);
    }

    #[test]
    #[should_panic(expected = "quantized/vector size mismatch")]
    fn mismatched_quantized_payload_rejected() {
        let (set, g, _) = world(100, 8);
        let small = set.gather(&[0, 1, 2]);
        let qs = QuantizedSet::quantize(&small);
        let _ = ShardContext::new(&set, &g, None).with_quantized(Some(&qs));
    }
}
