//! The PathWeaver reproduction harness.
//!
//! Every table and figure of the paper's evaluation (§2, §3, §5, §6) has a
//! module under [`experiments`] that regenerates it: the module builds (or
//! reuses, via [`session::Session`]) the needed indices, runs the searches,
//! prints the rows/series the paper reports, and returns a machine-readable
//! [`pathweaver_core::report::ExperimentRecord`].
//!
//! The `reproduce` binary (`cargo run --release -p pathweaver-bench --bin
//! reproduce -- all`) drives the modules at `--scale bench` (laptop-sized
//! datasets, minutes) or `--scale test` (seconds, for smoke checks). The
//! seeded contract gates (`check_store`, `check_cluster`) share the
//! [`gate`] skeleton.
//!
//! All QPS numbers from the simulated devices come from the cost-model
//! clock ("sim-QPS"); only the HNSW CPU baseline reports real wall time.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod gate;
pub mod session;

pub use session::Session;
