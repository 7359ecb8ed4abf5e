//! Proximity graph construction and auxiliary structures for PathWeaver.
//!
//! The paper assumes a pre-built proximity graph per shard (it uses CAGRA's
//! build algorithm) and adds three auxiliary structures at build time:
//! inter-shard edge tables (§3.1), ghost shards (§3.2) and direction-bit
//! tables (§3.3). This crate implements all of them, plus the baselines'
//! graphs:
//!
//! - [`csr`]: [`FixedDegreeGraph`], the flat fixed-out-degree adjacency both
//!   CAGRA and this reproduction search over.
//! - [`knn_build`]: NN-descent approximate k-NN graph construction.
//! - [`cagra_opt`]: CAGRA-style graph optimization (rank-sorted adjacency,
//!   detour-count pruning, reverse-edge merging).
//! - [`greedy`]: a plain best-first graph search used *at build time* (for
//!   inter-shard tables and HNSW insertion). The instrumented runtime kernel
//!   lives in `pathweaver-search`.
//! - [`hnsw`]: the HNSW baseline (hierarchical graph + CPU search).
//! - [`ggnn`]: a GGNN-style layered graph baseline.
//! - [`ghost`]: ghost-shard sampling and its lightweight graph (§3.2).
//! - [`intershard`]: the `I(u)` nearest-in-next-shard edge table (§3.1).
//! - [`dirtable`]: packed sign-bit direction codes for every edge (§3.3).
//! - [`stats`]: reachability and degree diagnostics.
//! - [`build_report`]: build-phase timing breakdown (Fig 17).

#![forbid(unsafe_code)]

pub mod build_report;
pub mod cagra_opt;
pub mod csr;
pub mod dirtable;
pub mod ggnn;
pub mod ghost;
pub mod greedy;
pub mod hnsw;
pub mod intershard;
pub mod knn_build;
pub mod stats;

pub use build_report::BuildReport;
pub use cagra_opt::{cagra_build, CagraBuildParams};
pub use csr::FixedDegreeGraph;
pub use dirtable::DirectionTable;
pub use ghost::{GhostParams, GhostShard};
pub use greedy::greedy_search;
pub use hnsw::{Hnsw, HnswParams};
pub use intershard::{InterShardParams, InterShardTable};
pub use knn_build::{nn_descent, NnDescentParams};
