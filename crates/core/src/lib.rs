//! PathWeaver — the framework API.
//!
//! This crate assembles the substrates into the system the paper describes:
//!
//! - [`config`]: [`PathWeaverConfig`] — device count, graph/ghost/DGS/
//!   inter-shard parameters and feature toggles (the ablation axes of
//!   Fig 11).
//! - [`shard`]: random dataset partitioning and global↔local id mapping.
//! - [`index`]: [`PathWeaverIndex::build`] — per-shard CAGRA-style graphs
//!   plus the three auxiliary structures (inter-shard edge tables, ghost
//!   shards, direction tables), with simulated-memory accounting and a
//!   build-time report (Fig 17).
//! - [`pipeline`]: pipelining-based path extension over the ring executor
//!   (§3.1) with ghost staging in the first stage (§3.2).
//! - [`naive`]: the sharding baseline (every device searches every query).
//! - [`reduce`]: host-side top-k reduction across devices.
//! - [`eval`]: QPS–recall sweeps, `QPS@recall` readout and ablation runs.
//! - [`baselines`]: CAGRA (+sharding), GGNN-style, and HNSW-CPU baselines.
//! - [`serve`]: streaming query serving — a micro-batching admission queue
//!   over a persistent device ring that keeps multiple batches overlapped in
//!   flight (the throughput mode §3.1's pipelining exists for).
//! - [`cluster`]: the multi-node layer — length-prefixed frame RPC (TCP or
//!   an in-process channel transport), consistent-hash routing of
//!   partitions to nodes, N-way replication with read fan-out, health
//!   checks and failover; a 1-node cluster is bit-identical to
//!   [`serve::serve_once`].
//! - [`snapshot`]: the one writer and the only mutation surface —
//!   [`snapshot::ConcurrentIndex`] applies every mutation of §6.2
//!   (insert into the smallest shard, tombstone on delete, rebuild a
//!   heavily-deleted shard), publishes immutable point-in-time snapshots
//!   that searches pin, appends to the WAL first when the index is durable,
//!   and folds the WAL into the segment. A static index is a snapshot that
//!   is never republished.
//! - [`store`]: the durable index store — one checksummed zero-copy segment
//!   file plus a write-ahead log, recovered by [`store::load_index`] or
//!   [`DurableIndex::open`].
//! - [`report`]: JSON experiment records for the reproduction harness.
//!
//! # Quickstart
//!
//! ```
//! use pathweaver_core::prelude::*;
//!
//! // A small clustered dataset and queries.
//! let profile = pathweaver_datasets::DatasetProfile::deep10m_like();
//! let workload = profile.workload(pathweaver_datasets::Scale::Test, 8, 10, 42);
//!
//! // Build a 2-device PathWeaver index with all features on.
//! let config = PathWeaverConfig::test_scale(2);
//! let index = PathWeaverIndex::build(&workload.base, &config).unwrap();
//!
//! // Pipelined multi-GPU search.
//! let params = SearchParams::default();
//! let out = index.search_pipelined(&workload.queries, &params);
//! assert_eq!(out.results.len(), workload.queries.len());
//! let recall = pathweaver_datasets::recall_batch(&workload.ground_truth, &out.results, 10);
//! assert!(recall > 0.5);
//! ```

#![forbid(unsafe_code)]

pub mod baselines;
pub mod cluster;
pub mod config;
pub mod eval;
pub mod index;
pub mod naive;
pub mod pipeline;
pub mod reduce;
pub mod report;
pub mod serve;
pub mod shard;
pub mod snapshot;
pub mod store;

pub use cluster::{ClusterError, ClusterOutput, LocalCluster, Router};
pub use config::{ClusterConfig, PathWeaverConfig};
pub use index::{PathWeaverIndex, SearchOutput, ShardData, ShardIndex};
pub use serve::{QueryResult, QueryTicket, ServeConfig, ServeError, Server, SubmitError};
pub use snapshot::{
    ConcurrentError, ConcurrentIndex, DeleteOutcome, IndexSnapshot, MaintainerHandle,
};
pub use store::{DurableIndex, StoreError, StoreReport};

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::baselines::{CagraBaseline, GgnnBaseline, HnswBaseline};
    pub use crate::cluster::{ClusterError, ClusterOutput, LocalCluster, Router, TransportKind};
    pub use crate::config::{ClusterConfig, PathWeaverConfig};
    pub use crate::eval::{qps_at_recall, sweep_beam, sweep_iterations, SweepPoint};
    pub use crate::index::{PathWeaverIndex, SearchOutput, ShardData, ShardIndex};
    pub use crate::serve::{
        QueryResult, QueryTicket, ServeConfig, ServeError, Server, SubmitError,
    };
    pub use crate::snapshot::{
        ConcurrentError, ConcurrentIndex, DeleteOutcome, IndexSnapshot, MaintainerHandle,
    };
    pub use crate::store::{DurableIndex, StoreError, StoreReport};
    pub use pathweaver_datasets::{recall_batch, DatasetProfile, Scale, Workload};
    pub use pathweaver_gpusim::{CostModel, DeviceSpec, RingTopology};
    pub use pathweaver_search::{DgsParams, SearchParams};
}
