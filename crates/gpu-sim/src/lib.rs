//! Simulated multi-GPU substrate.
//!
//! The paper evaluates on four NVIDIA RTX A6000s (NVLink-bridged pairs over a
//! PCIe switch). This environment has no GPU, so the reproduction runs the
//! *exact search algorithm* on CPU threads while accounting every operation
//! the CUDA kernel would perform — distance computations, vector/adjacency
//! bytes streamed from device memory, hash probes, sort steps, inter-GPU
//! transfer bytes — and converts those counts into simulated kernel time with
//! a roofline cost model. The paper's own breakdown (Fig 2: >80–95 % of time
//! is L2 distance work, i.e. memory-bound vector streaming) is what makes
//! this substitution faithful: simulated time is dominated by exactly the
//! term the counters measure directly.
//!
//! Modules:
//!
//! - [`device`]: [`DeviceSpec`] — bandwidth/FLOPs of one simulated GPU, with
//!   an RTX A6000 preset.
//! - [`counters`]: [`CostCounters`] — the operation tally a kernel fills in.
//! - [`cost`]: [`CostModel`] — roofline conversion of counters to seconds,
//!   split into the paper's breakdown categories (L2 / rest-of-kernel).
//! - [`link`] and [`topology`]: NVLink/PCIe link specs and the ring topology
//!   of pipelining-based path extension.
//! - [`memory`]: per-device capacity ledger (shards must fit).
//! - [`timeline`]: per-stage records and pipeline makespan computation.
//! - [`executor`]: one OS thread per simulated device with ring work queues
//!   — the real concurrency skeleton the framework drives, in a scoped
//!   one-shot form ([`run_ring_stream`]) and a persistent multi-batch form
//!   ([`RingExecutor`]) that keeps batches overlapped in flight.
//! - [`trace`]: execution-time breakdown reports (Figs 2, 5, 12).
//! - [`obs_bridge`]: snapshots [`CostCounters`] into the `pathweaver-obs`
//!   metrics registry so simulated-clock accounting and wall-clock spans
//!   share one exportable namespace.

#![forbid(unsafe_code)]

pub mod cost;
pub mod counters;
pub mod device;
pub mod executor;
pub mod link;
pub mod memory;
pub mod obs_bridge;
pub mod timeline;
pub mod topology;
pub mod trace;

pub use cost::{CostModel, TimeBreakdown};
pub use counters::CostCounters;
pub use device::DeviceSpec;
pub use executor::{run_ring_stream, BatchHandle, RingExecutor, RingMessage, StageFailed};
pub use link::LinkSpec;
pub use memory::MemoryLedger;
pub use timeline::{PipelineTimeline, StageRecord};
pub use topology::RingTopology;
