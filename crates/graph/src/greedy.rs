//! Build-time best-first graph search.
//!
//! A plain, uninstrumented beam search over a [`FixedDegreeGraph`]. It is
//! used where search quality matters but the GPU cost model does not: the
//! inter-shard table build (every node queries the adjacent shard, paper §4)
//! and graph-quality diagnostics. The runtime kernel with counters, hash
//! tables and direction-guided selection lives in `pathweaver-search`.

use crate::csr::FixedDegreeGraph;
use pathweaver_util::FixedBitSet;
use pathweaver_vector::{batch_l2_squared, l2_squared, VectorSet};

/// One search result: squared distance and node id.
pub type Hit = (f32, u32);

/// Best-first beam search for the `k` nearest nodes to `query`.
///
/// `beam` is the working-set width (≥ k for sensible recall; commonly called
/// `ef`). `entries` seeds the beam; duplicates are tolerated.
///
/// Returns up to `k` hits ascending by distance.
///
/// # Panics
///
/// Panics if `entries` is empty, `beam == 0`, or `k == 0`.
pub fn greedy_search(
    graph: &FixedDegreeGraph,
    vectors: &VectorSet,
    query: &[f32],
    entries: &[u32],
    beam: usize,
    k: usize,
) -> Vec<Hit> {
    assert!(!entries.is_empty(), "need at least one entry point");
    assert!(beam > 0 && k > 0, "beam and k must be positive");
    let n = graph.num_nodes();
    let mut visited = FixedBitSet::new(n);

    // Working beam: ascending by distance, bounded to `beam` entries.
    // `expanded` marks nodes whose adjacency has been fetched.
    let mut heap: Vec<(f32, u32, bool)> = Vec::with_capacity(beam + 1);
    let push = |heap: &mut Vec<(f32, u32, bool)>, d: f32, id: u32| {
        if heap.len() == beam && d >= heap[beam - 1].0 {
            return;
        }
        let pos = heap.partition_point(|e| e.0 <= d);
        heap.insert(pos, (d, id, false));
        if heap.len() > beam {
            heap.pop();
        }
    };

    for &e in entries {
        if visited.insert(e as usize) {
            push(&mut heap, l2_squared(vectors.row(e as usize), query), e);
        }
    }

    // Expand the best unexpanded node within the beam until none remain.
    // Each expansion's unvisited neighbors are measured in one batch, then
    // pushed in adjacency order.
    let mut fresh: Vec<u32> = Vec::with_capacity(graph.degree());
    let mut dists = vec![0.0f32; graph.degree()];
    while let Some(idx) = heap.iter().position(|e| !e.2) {
        heap[idx].2 = true;
        let u = heap[idx].1;
        fresh.clear();
        fresh.extend(graph.neighbors(u).iter().copied().filter(|&v| visited.insert(v as usize)));
        let dists = &mut dists[..fresh.len()];
        batch_l2_squared(vectors, &fresh, query, dists);
        for (&v, &d) in fresh.iter().zip(dists.iter()) {
            push(&mut heap, d, v);
        }
    }

    heap.into_iter().take(k).map(|(d, id, _)| (d, id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cagra_opt::{cagra_build, CagraBuildParams};

    fn line_world(n: usize) -> (FixedDegreeGraph, VectorSet) {
        let set = VectorSet::from_fn(n, 2, |r, _| r as f32);
        let g = cagra_build(&set, &CagraBuildParams::with_degree(8));
        (g, set)
    }

    #[test]
    fn finds_nearest_on_line() {
        let (g, set) = line_world(200);
        let hits = greedy_search(&g, &set, &[57.3, 57.3], &[0], 32, 3);
        assert_eq!(hits[0].1, 57);
        assert!(hits.iter().map(|h| h.1).collect::<Vec<_>>().contains(&58));
        assert!(hits.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn wider_beam_never_hurts() {
        let (g, set) = line_world(300);
        let query = [222.4f32, 222.4];
        let narrow = greedy_search(&g, &set, &query, &[0], 4, 1);
        let wide = greedy_search(&g, &set, &query, &[0], 64, 1);
        assert!(wide[0].0 <= narrow[0].0);
    }

    #[test]
    fn multiple_entries_accepted() {
        let (g, set) = line_world(100);
        let hits = greedy_search(&g, &set, &[10.0, 10.0], &[0, 50, 99, 0], 16, 2);
        assert_eq!(hits[0].1, 10);
    }

    #[test]
    fn k_capped_by_beam() {
        let (g, set) = line_world(50);
        let hits = greedy_search(&g, &set, &[25.0, 25.0], &[0], 4, 10);
        assert!(hits.len() <= 4);
    }

    #[test]
    #[should_panic(expected = "entry point")]
    fn empty_entries_panic() {
        let (g, set) = line_world(10);
        let _ = greedy_search(&g, &set, &[0.0, 0.0], &[], 4, 1);
    }
}
