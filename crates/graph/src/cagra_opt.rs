//! CAGRA-style proximity graph optimization.
//!
//! CAGRA (Ootomo et al., ICDE'24) turns an approximate k-NN graph into a
//! search graph with a fixed out-degree `d` in two steps, both reproduced
//! here:
//!
//! 1. **Detour-count pruning** — an edge `u → v` is redundant when a two-hop
//!    path `u → w → v` exists through a closer neighbor `w`; such edges are
//!    "detourable". Each node keeps the `d/2` forward edges with the fewest
//!    detours, which preserves reachability while shedding redundancy.
//! 2. **Reverse-edge merging** — the remaining `d/2` slots are filled with
//!    reverse edges (nodes that kept `u` as a forward edge), which restores
//!    in-degree balance and gives the graph its strong navigability
//!    ("convexity" in the paper's terms).

use crate::csr::FixedDegreeGraph;
use crate::knn_build::{nn_descent, NnDescentParams};
use pathweaver_util::parallel_map;
use pathweaver_vector::{l2_squared, VectorSet};
use rand::Rng;

/// Parameters of the full CAGRA-style build (k-NN phase + optimization).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CagraBuildParams {
    /// Out-degree of the final graph (the paper fixes 64 at paper scale).
    pub degree: usize,
    /// Degree of the intermediate k-NN graph; defaults to `3/2 × degree`.
    pub knn_degree: usize,
    /// NN-descent parameters for the intermediate graph.
    pub nn_descent: NnDescentParams,
}

impl CagraBuildParams {
    /// Reasonable defaults for a final out-degree.
    pub fn with_degree(degree: usize) -> Self {
        let knn_degree = degree + degree / 2;
        Self {
            degree,
            knn_degree,
            nn_descent: NnDescentParams { k: knn_degree, ..Default::default() },
        }
    }
}

impl Default for CagraBuildParams {
    fn default() -> Self {
        Self::with_degree(32)
    }
}

/// Builds a CAGRA-style fixed-degree search graph over `vectors`.
///
/// # Panics
///
/// Panics if `vectors` is empty or `degree == 0`.
pub fn cagra_build(vectors: &VectorSet, params: &CagraBuildParams) -> FixedDegreeGraph {
    assert!(params.degree > 0, "degree must be positive");
    let nn_params =
        NnDescentParams { k: params.knn_degree.max(params.degree), ..params.nn_descent };
    let knn = nn_descent(vectors, &nn_params);
    optimize(&knn, params.degree, params.nn_descent.seed)
}

/// Optimizes sorted k-NN lists into a fixed-degree search graph. Each list
/// holds distinct ids, as [`nn_descent`] and the exact lists produce.
///
/// Exposed separately so callers that already hold a k-NN graph (e.g. the
/// GGNN builder or tests using exact lists) can reuse the pruning/merging
/// stage.
pub fn optimize(knn: &[Vec<(f32, u32)>], degree: usize, seed: u64) -> FixedDegreeGraph {
    let n = knn.len();
    assert!(n > 0, "empty knn graph");

    // Forward-edge selection by detour count. Each task owns a dense
    // id → slot map over all nodes for its run of `u`s.
    const NODES_PER_TASK: usize = 256;
    let keep_fwd = degree - degree / 2;
    let strong: Vec<Vec<(f32, u32)>> = parallel_map(n.div_ceil(NODES_PER_TASK), |t| {
        let mut slot = vec![u32::MAX; n];
        let nodes = t * NODES_PER_TASK..((t + 1) * NODES_PER_TASK).min(n);
        nodes
            .map(|u| {
                let neigh = &knn[u];
                let counts = detour_counts(knn, u, &mut slot);
                let mut order: Vec<usize> = (0..neigh.len()).collect();
                order.sort_by(|&a, &b| counts[a].cmp(&counts[b]).then(a.cmp(&b)));
                order.truncate(keep_fwd);
                order.sort_unstable(); // Restore distance rank among the kept edges.
                order.iter().map(|&i| neigh[i]).collect()
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();

    // Reverse edges of the kept forward edges, ascending by distance.
    let mut reverse: Vec<Vec<(f32, u32)>> = vec![Vec::new(); n];
    for (u, list) in strong.iter().enumerate() {
        for &(d, v) in list {
            reverse[v as usize].push((d, u as u32));
        }
    }
    for r in reverse.iter_mut() {
        r.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    }

    // Merge: strong forward edges first, then reverse, then leftover k-NN,
    // then random padding for pathological underfull nodes. When the degree
    // allows, the last slot is reserved for a random long-range shortcut:
    // detour pruning plus reverse merging keeps overwhelmingly local edges,
    // and on strongly clustered corpora that can splinter the directed
    // graph into islands; one shortcut per node restores the global
    // reachability the search algorithm assumes (§2.2), at negligible cost.
    let mut rng = pathweaver_util::small_rng(pathweaver_util::seed_from_parts(seed, "pad", 0));
    let reserve_shortcut = degree >= 8 && n > degree * 2;
    let fill_to = if reserve_shortcut { degree - 1 } else { degree };
    let mut lists: Vec<Vec<u32>> = Vec::with_capacity(n);
    for u in 0..n {
        let mut out: Vec<u32> = Vec::with_capacity(degree);
        let mut seen = std::collections::HashSet::with_capacity(degree * 2);
        seen.insert(u as u32);
        for &(_, v) in &strong[u] {
            if out.len() >= fill_to {
                break;
            }
            if seen.insert(v) {
                out.push(v);
            }
        }
        for &(_, v) in &reverse[u] {
            if out.len() >= fill_to {
                break;
            }
            if seen.insert(v) {
                out.push(v);
            }
        }
        for &(_, v) in &knn[u] {
            if out.len() >= fill_to {
                break;
            }
            if seen.insert(v) {
                out.push(v);
            }
        }
        while out.len() < degree {
            if n == 1 {
                out.push(0); // Single-node graph: self loop is the only option.
                continue;
            }
            let v = rng.gen_range(0..n) as u32;
            if seen.insert(v) {
                out.push(v);
            }
        }
        out.truncate(degree);
        lists.push(out);
    }
    FixedDegreeGraph::from_lists(degree, &lists)
}

/// Detour count of each of `u`'s k-NN edges: for the edge to `v` at slot
/// `j`, the number of closer neighbors `w` (slots before `j`) whose own list
/// holds `v` at a distance below `d(u, v)`.
///
/// One pass over each `w`'s list, looking its ids up in `slot` — an id →
/// slot map of all nodes, `u32::MAX` where unset, which is left unset on
/// return. Lists hold distinct ids.
fn detour_counts(knn: &[Vec<(f32, u32)>], u: usize, slot: &mut [u32]) -> Vec<u32> {
    let neigh = &knn[u];
    for (j, &(_, v)) in neigh.iter().enumerate() {
        slot[v as usize] = j as u32;
    }
    let mut counts = vec![0u32; neigh.len()];
    for (i, &(_, w)) in neigh.iter().enumerate() {
        for &(dwv, x) in &knn[w as usize] {
            let j = slot[x as usize] as usize;
            if j > i {
                if let Some(&(duv, _)) = neigh.get(j) {
                    if dwv < duv {
                        counts[j] += 1;
                    }
                }
            }
        }
    }
    for &(_, v) in neigh {
        slot[v as usize] = u32::MAX;
    }
    counts
}

/// Average distance of kept edges — a compactness diagnostic used by build
/// reports and ablation benches.
pub fn mean_edge_length(vectors: &VectorSet, graph: &FixedDegreeGraph) -> f64 {
    let mut sum = 0.0f64;
    let mut count = 0u64;
    for u in 0..graph.num_nodes() {
        for &v in graph.neighbors(u as u32) {
            sum += f64::from(l2_squared(vectors.row(u), vectors.row(v as usize)).sqrt());
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn_build::exact_knn_lists;
    use crate::stats::reachable_fraction;

    fn grid_set(n: usize, dim: usize) -> VectorSet {
        let mut rng = pathweaver_util::small_rng(5);
        VectorSet::from_fn(n, dim, |r, _| (r % 23) as f32 + rng.gen_range(-0.3f32..0.3))
    }

    #[test]
    fn build_produces_fixed_degree_no_self_loops() {
        let set = grid_set(300, 8);
        let g = cagra_build(&set, &CagraBuildParams::with_degree(12));
        assert_eq!(g.num_nodes(), 300);
        assert_eq!(g.degree(), 12);
        for u in 0..300u32 {
            let nb = g.neighbors(u);
            assert!(!nb.contains(&u), "self loop at {u}");
            let uniq: std::collections::HashSet<&u32> = nb.iter().collect();
            assert_eq!(uniq.len(), 12, "duplicate neighbors at {u}");
        }
    }

    #[test]
    fn optimized_graph_is_highly_reachable() {
        let set = grid_set(400, 6);
        let g = cagra_build(&set, &CagraBuildParams::with_degree(16));
        let frac = reachable_fraction(&g, 0);
        assert!(frac > 0.99, "reachability {frac}");
    }

    #[test]
    fn optimize_from_exact_lists() {
        let set = grid_set(120, 4);
        let knn = exact_knn_lists(&set, 18);
        let g = optimize(&knn, 12, 0);
        assert_eq!(g.degree(), 12);
        assert_eq!(g.num_nodes(), 120);
    }

    #[test]
    fn pruning_shortens_edges_versus_random() {
        // The optimized graph's forward edges should be far shorter than
        // random edges would be.
        let set = grid_set(200, 6);
        let g = cagra_build(&set, &CagraBuildParams::with_degree(8));
        let mean = mean_edge_length(&set, &g);
        let mut rng = pathweaver_util::small_rng(1);
        let mut rand_sum = 0.0f64;
        for _ in 0..1000 {
            let a = rng.gen_range(0..set.len());
            let b = rng.gen_range(0..set.len());
            rand_sum += f64::from(l2_squared(set.row(a), set.row(b)).sqrt());
        }
        let rand_mean = rand_sum / 1000.0;
        assert!(mean < rand_mean * 0.6, "edges not short: {mean} vs random {rand_mean}");
    }

    #[test]
    fn detour_counts_match_the_pairwise_definition() {
        // Against the definition: for each pair of slots i < j, does
        // neighbor i's list hold neighbor j closer than u does?
        let set = grid_set(300, 5);
        let knn = crate::knn_build::nn_descent(
            &set,
            &crate::NnDescentParams { k: 14, ..Default::default() },
        );
        let mut slot = vec![u32::MAX; knn.len()];
        for (u, neigh) in knn.iter().enumerate() {
            let mut want = vec![0u32; neigh.len()];
            for (i, &(_, w)) in neigh.iter().enumerate() {
                for (j, &(duv, v)) in neigh.iter().enumerate().skip(i + 1) {
                    if knn[w as usize].iter().any(|&(dwv, x)| x == v && dwv < duv) {
                        want[j] += 1;
                    }
                }
            }
            assert_eq!(detour_counts(&knn, u, &mut slot), want, "node {u}");
        }
        assert!(slot.iter().all(|&s| s == u32::MAX));
    }

    #[test]
    fn single_node_graph_self_loops() {
        let knn: Vec<Vec<(f32, u32)>> = vec![Vec::new()];
        let g = optimize(&knn, 4, 0);
        assert_eq!(g.neighbors(0), &[0, 0, 0, 0]);
    }

    #[test]
    fn degree_two_keeps_one_forward_one_reverse_slot() {
        let set = grid_set(50, 4);
        let g = cagra_build(&set, &CagraBuildParams::with_degree(2));
        assert_eq!(g.degree(), 2);
    }
}
