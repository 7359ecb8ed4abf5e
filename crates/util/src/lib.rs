//! Shared utilities for the PathWeaver workspace.
//!
//! This crate collects the small, dependency-light building blocks that every
//! other crate in the workspace relies on:
//!
//! - [`parallel`]: fork-join data parallelism (`parallel_for`,
//!   `parallel_map`) dispatched onto a lazily-initialized persistent worker
//!   pool, so the workspace does not need a third-party thread-pool crate.
//! - [`rng`]: deterministic seeding helpers so every experiment in the
//!   reproduction is replayable bit-for-bit.
//! - [`topk`]: bounded top-k selection used by ground-truth computation and
//!   host-side result reduction.
//! - [`bitset`]: a fixed-capacity bitset used for visited tracking in
//!   reference (non-simulated) code paths.
//! - [`stats`]: summary statistics (mean, geometric mean, percentiles) used
//!   by the experiment harness.
//! - [`fmt`]: human-readable formatting of counts, bytes and durations for
//!   experiment reports.
//! - [`mod@crc32`]: dependency-free CRC-32 used by the durable store's segment
//!   and WAL checksums.
//! - [`aligned`]: 64-byte-aligned byte buffers with typed zero-copy word
//!   views — the audited aligned-read module backing segment opens.

pub mod aligned;
pub mod bitset;
pub mod crc32;
pub mod fmt;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod topk;

pub use aligned::{put_le_words, AlignedBytes};
pub use bitset::FixedBitSet;
pub use crc32::{crc32, Crc32};
#[doc(hidden)]
pub use parallel::parallel_for_spawning;
pub use parallel::{available_threads, parallel_chunks_mut, parallel_for, parallel_map};
pub use rng::{seed_from_parts, small_rng, SeedStream};
pub use stats::Summary;
pub use topk::TopK;

/// Copies `src` into a fresh `Vec` with capacity for `extra` more elements,
/// so the next `extra` pushes append in place. One copy, where
/// `src.to_vec()` followed by a push copies twice (a clone is exactly sized,
/// so the first push reallocates).
pub fn vec_with_room<T: Clone>(src: &[T], extra: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(src.len() + extra);
    out.extend_from_slice(src);
    out
}
