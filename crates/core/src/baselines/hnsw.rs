//! HNSW baselines: CPU search (paper §5.1) and the GPU-searched HNSW graph
//! of the ghost-staging comparison (§6.1, Fig 18).

use crate::config::PathWeaverConfig;
use crate::index::{PathWeaverIndex, ShardData, ShardIndex};
use pathweaver_gpusim::MemoryLedger;
use pathweaver_graph::{Hnsw, HnswParams};
use pathweaver_vector::VectorSet;

/// The HNSW baseline: one CPU index over the full dataset.
#[derive(Debug, Clone)]
pub struct HnswBaseline {
    /// The hierarchical index.
    pub hnsw: Hnsw,
    /// The indexed vectors (owned copy; the CPU baseline is standalone).
    pub vectors: VectorSet,
}

/// Results plus measured CPU throughput.
#[derive(Debug, Clone)]
pub struct CpuSearchOutput {
    /// Per-query global result ids.
    pub results: Vec<Vec<u32>>,
    /// Measured wall-clock queries/second (real CPU time, not simulated).
    pub qps_measured: f64,
    /// Elapsed wall-clock seconds.
    pub elapsed_s: f64,
}

impl HnswBaseline {
    /// Builds the CPU index.
    pub fn build(dataset: &VectorSet, params: &HnswParams) -> Self {
        Self { hnsw: Hnsw::build(dataset, params), vectors: dataset.clone() }
    }

    /// CPU k-NN search over a batch, parallelized across host threads, with
    /// measured wall-clock throughput.
    ///
    /// Unlike the GPU paths, this baseline reports *real* CPU time — it runs
    /// on an actual CPU, so no simulation is needed (the paper likewise ran
    /// HNSW natively with 64 threads).
    pub fn search_cpu(&self, queries: &VectorSet, k: usize, ef: usize) -> CpuSearchOutput {
        let sw = pathweaver_obs::Stopwatch::start();
        let results: Vec<Vec<u32>> = pathweaver_util::parallel_map(queries.len(), |q| {
            self.hnsw
                .search(&self.vectors, queries.row(q), k, ef)
                .into_iter()
                .map(|(_, id)| id)
                .collect()
        });
        let elapsed_s = sw.elapsed_secs();
        let qps_measured = if elapsed_s > 0.0 { queries.len() as f64 / elapsed_s } else { 0.0 };
        CpuSearchOutput { results, qps_measured, elapsed_s }
    }

    /// Wraps the HNSW layer-0 graph as a single-device framework index so
    /// the GPU kernel can search it (Fig 18's "GPU-based HNSW").
    ///
    /// The hierarchy is discarded — the GPU kernel enters from random nodes,
    /// which is exactly the configuration ghost staging is compared against.
    pub fn as_gpu_index(&self) -> PathWeaverIndex {
        let graph = self.hnsw.layer0_as_fixed_degree();
        let n = self.vectors.len();
        let mut config = PathWeaverConfig::full(1);
        config.ghost = None;
        config.build_dir_table = false;
        config.build_quantized = false;
        let shard = ShardIndex::new(ShardData {
            global_ids: (0..n as u32).collect(),
            vectors: self.vectors.clone(),
            graph,
            dir_table: None,
            quantized: None,
            ghost: None,
        });
        let mut ledger = MemoryLedger::new(config.device.mem_capacity);
        for (label, bytes) in shard.resident_bytes() {
            ledger.allocate(label, bytes).expect("HNSW graph fits a 48 GiB device at test scale");
        }
        PathWeaverIndex {
            config,
            shards: vec![std::sync::Arc::new(shard)],
            build_report: pathweaver_graph::BuildReport::new(),
            ledgers: vec![ledger],
            num_vectors: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathweaver_datasets::{recall_batch, DatasetProfile, Scale};
    use pathweaver_search::SearchParams;

    #[test]
    fn cpu_search_recall() {
        let w = DatasetProfile::sift_like().workload(Scale::Test, 10, 10, 4);
        let b = HnswBaseline::build(&w.base, &HnswParams::default());
        let out = b.search_cpu(&w.queries, 10, 64);
        let recall = recall_batch(&w.ground_truth, &out.results, 10);
        assert!(recall > 0.8, "recall {recall}");
        assert!(out.qps_measured > 0.0);
    }

    #[test]
    fn gpu_index_over_hnsw_graph_searches() {
        let w = DatasetProfile::sift_like().workload(Scale::Test, 6, 10, 5);
        let b = HnswBaseline::build(&w.base, &HnswParams::default());
        let idx = b.as_gpu_index();
        let out = idx.search_naive(&w.queries, &SearchParams::default());
        let recall = recall_batch(&w.ground_truth, &out.results, 10);
        assert!(recall > 0.7, "recall {recall}");
    }
}
