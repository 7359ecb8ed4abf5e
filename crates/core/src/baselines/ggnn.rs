//! The GGNN-style multi-GPU baseline.
//!
//! GGNN shards the dataset, builds a dense (unpruned) k-NN graph per shard,
//! and finds entry points through a sampled selection layer. The baseline
//! assembles those pieces into the framework's [`ShardIndex`] shape — the
//! selection layer slots into the ghost-shard mechanism (it plays the same
//! role: locating entry points) — and searches in sharding mode, which is
//! how GGNN natively supports multiple GPUs.

use crate::config::PathWeaverConfig;
use crate::index::{BuildError, PathWeaverIndex, SearchOutput, ShardData, ShardIndex};
use crate::shard::ShardAssignment;
use pathweaver_gpusim::MemoryLedger;
use pathweaver_graph::ggnn::{GgnnIndex, GgnnParams};
use pathweaver_search::SearchParams;
use pathweaver_vector::VectorSet;

/// The GGNN-style baseline.
#[derive(Debug, Clone)]
pub struct GgnnBaseline {
    /// The assembled sharded index (base graphs + selection layers).
    pub index: PathWeaverIndex,
}

impl GgnnBaseline {
    /// Builds the baseline over `num_devices` simulated GPUs.
    ///
    /// # Errors
    ///
    /// [`BuildError::TooFewVectors`] for undersized datasets,
    /// [`BuildError::OutOfMemory`] when a shard exceeds device memory.
    pub fn build(
        dataset: &VectorSet,
        num_devices: usize,
        params: &GgnnParams,
    ) -> Result<Self, BuildError> {
        let mut config = PathWeaverConfig::full(num_devices);
        config.build_dir_table = false;
        let need = num_devices * (params.degree + 1);
        if dataset.len() < need {
            return Err(BuildError::TooFewVectors { have: dataset.len(), need });
        }
        let assignment = ShardAssignment::random(
            dataset.len(),
            num_devices,
            pathweaver_util::seed_from_parts(config.seed, "ggnn-shard", 0),
        );
        let mut report = pathweaver_graph::BuildReport::new();
        let mut shards = Vec::with_capacity(num_devices);
        for s in 0..num_devices {
            let vectors = assignment.gather(s, dataset);
            let built = report.time(pathweaver_graph::build_report::BuildPhase::GraphBuild, || {
                GgnnIndex::build(&vectors, params)
            });
            shards.push(std::sync::Arc::new(ShardIndex::new(ShardData {
                global_ids: assignment.members(s).to_vec(),
                vectors,
                graph: built.base,
                dir_table: None,
                quantized: None,
                ghost: Some(built.selection),
            })));
        }
        let mut ledgers = Vec::with_capacity(num_devices);
        for shard in &shards {
            let mut ledger = MemoryLedger::new(config.device.mem_capacity);
            for (label, bytes) in shard.resident_bytes() {
                ledger.allocate(label, bytes).map_err(BuildError::OutOfMemory)?;
            }
            ledgers.push(ledger);
        }
        Ok(Self {
            index: PathWeaverIndex {
                config,
                shards,
                build_report: report,
                ledgers,
                num_vectors: dataset.len(),
            },
        })
    }

    /// Sharded search through the selection layer.
    pub fn search(&self, queries: &VectorSet, params: &SearchParams) -> SearchOutput {
        let clean = SearchParams { dgs: None, random_discard: false, ..*params };
        self.index.search_naive(queries, &clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathweaver_datasets::{recall_batch, DatasetProfile, Scale};

    fn small_params() -> GgnnParams {
        GgnnParams { degree: 12, selection_ratio: 0.05, selection_degree: 6, ..Default::default() }
    }

    #[test]
    fn build_creates_selection_layers() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 4, 5, 7);
        let b = GgnnBaseline::build(&w.base, 2, &small_params()).unwrap();
        for shard in &b.index.shards {
            assert!(shard.ghost.is_some(), "selection layer missing");
            assert_eq!(shard.graph.degree(), 12);
            assert!(shard.dir_table.is_none());
        }
    }

    #[test]
    fn recall_is_sane() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 10, 9);
        let b = GgnnBaseline::build(&w.base, 2, &small_params()).unwrap();
        let out = b.search(&w.queries, &SearchParams::default());
        let recall = recall_batch(&w.ground_truth, &out.results, 10);
        assert!(recall > 0.7, "recall {recall}");
    }

    #[test]
    fn too_small_dataset_errors() {
        let tiny = VectorSet::from_fn(8, 4, |r, c| (r * c) as f32);
        assert!(matches!(
            GgnnBaseline::build(&tiny, 2, &small_params()),
            Err(BuildError::TooFewVectors { .. })
        ));
    }
}
