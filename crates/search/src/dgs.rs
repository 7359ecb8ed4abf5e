//! Direction-guided selection (paper §3.3) and its random-discard control.
//!
//! Given a visited node `u`, its adjacency row, and the query, DGS:
//!
//! 1. encodes the sign bits of `q − u` (one code per visited node),
//! 2. looks up the precomputed edge codes of `u`'s neighbors,
//! 3. counts matching bits per neighbor (XOR + popcount), and
//! 4. keeps the `n` neighbors with the most matching bits; only those get a
//!    full distance computation.
//!
//! `Random` keeps a uniformly random subset of the same size — the control
//! experiment in Fig 15/16 that shows the *direction* information, not the
//! mere discarding, preserves recall.

use pathweaver_graph::DirectionTable;
use pathweaver_vector::SignCodeBuf;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;

/// How the kernel selects which neighbors get an exact distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborFilter {
    /// All neighbors (exact CAGRA behaviour).
    All,
    /// Direction-guided: keep the `keep` most query-aligned neighbors.
    Direction {
        /// Neighbors kept per row.
        keep: usize,
    },
    /// Random control: keep `keep` uniformly random neighbors.
    Random {
        /// Neighbors kept per row.
        keep: usize,
    },
    /// Similarity-threshold pruning (paper §6.3's suggested variant): keep
    /// every neighbor whose direction code matches the query direction on at
    /// least `min_matches` bits, regardless of how many qualify. Preserves
    /// good candidates at the cost of a variable (warp-imbalancing) keep
    /// count; at least one neighbor is always kept.
    Threshold {
        /// Minimum matching bits required.
        min_matches: u32,
    },
}

/// Selects the positions (indices into the adjacency row) whose distances
/// will be computed.
///
/// `node_vec` is the visited node's vector, `query` the query vector,
/// `row_codes` the node's direction-table row (`degree × words` packed u32).
/// `scratch` is the reusable query-code buffer. Returns indices in ranking
/// order (most aligned first for [`NeighborFilter::Direction`]).
pub fn select_neighbors(
    filter: NeighborFilter,
    degree: usize,
    node_vec: &[f32],
    query: &[f32],
    dir_table: Option<(&DirectionTable, u32)>,
    scratch: &mut SignCodeBuf,
    rng: &mut SmallRng,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(degree);
    let (mut counts, mut keys) = (Vec::new(), Vec::new());
    select_neighbors_into(
        filter,
        degree,
        node_vec,
        query,
        dir_table,
        scratch,
        rng,
        &mut counts,
        &mut keys,
        &mut out,
    );
    out
}

/// [`select_neighbors`] writing into caller-owned buffers.
///
/// `counts` receives the row's per-neighbor matching bits and `keys` the
/// [`NeighborFilter::Direction`] sort keys; `out` receives the selected row
/// positions. All three are overwritten — the search kernel reuses them
/// across all beam iterations so the selection path stays allocation-free.
#[allow(clippy::too_many_arguments)]
pub fn select_neighbors_into(
    filter: NeighborFilter,
    degree: usize,
    node_vec: &[f32],
    query: &[f32],
    dir_table: Option<(&DirectionTable, u32)>,
    scratch: &mut SignCodeBuf,
    rng: &mut SmallRng,
    counts: &mut Vec<u32>,
    keys: &mut Vec<u64>,
    out: &mut Vec<usize>,
) {
    out.clear();
    match filter {
        NeighborFilter::All => out.extend(0..degree),
        NeighborFilter::Random { keep } => {
            out.extend(0..degree);
            out.shuffle(rng);
            out.truncate(keep.clamp(1, degree));
        }
        NeighborFilter::Direction { keep } => {
            // lint: allow(hot-panic) — caller contract: search_query only
            // selects this filter after checking ctx.dir_table is Some.
            let (table, u) = dir_table.expect("direction filter requires a direction table");
            row_match_counts(table, u, degree, node_vec, query, scratch, counts);
            // Most matching bits first, row position breaking ties: the key
            // `!matches << 32 | j` orders exactly so and is unique per row
            // position, so an unstable sort yields that one total order.
            keys.clear();
            keys.extend(counts.iter().enumerate().map(|(j, &m)| u64::from(!m) << 32 | j as u64));
            keys.sort_unstable();
            // The low half of a key is its row position, below `degree`.
            #[allow(clippy::cast_possible_truncation)]
            out.extend(keys.iter().take(keep.clamp(1, degree)).map(|&k| k as u32 as usize));
        }
        NeighborFilter::Threshold { min_matches } => {
            // lint: allow(hot-panic) — caller contract: search_query only
            // selects this filter after checking ctx.dir_table is Some.
            let (table, u) = dir_table.expect("threshold filter requires a direction table");
            row_match_counts(table, u, degree, node_vec, query, scratch, counts);
            let mut best = (0u32, 0usize);
            for (j, &m) in counts.iter().enumerate() {
                if m >= min_matches {
                    out.push(j);
                }
                if m > best.0 {
                    best = (m, j);
                }
            }
            if out.is_empty() {
                out.push(best.1);
            }
        }
    }
}

/// Encodes the query direction seen from `node_vec` and counts, for each of
/// `u`'s `degree` edges, how many direction bits match it.
fn row_match_counts(
    table: &DirectionTable,
    u: u32,
    degree: usize,
    node_vec: &[f32],
    query: &[f32],
    scratch: &mut SignCodeBuf,
    counts: &mut Vec<u32>,
) {
    scratch.encode(node_vec, query);
    let row = table.node_codes(u);
    counts.clear();
    counts.resize(degree, 0);
    scratch.row_matches(&row[..degree * table.words_per_code()], counts);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathweaver_graph::FixedDegreeGraph;
    use pathweaver_vector::VectorSet;

    /// A node at the origin with 4 neighbors along ±x / ±y; the query sits
    /// along +x, so the +x neighbor must rank first.
    fn axis_world() -> (VectorSet, FixedDegreeGraph, DirectionTable) {
        let dim = 16;
        let mut set = VectorSet::empty(dim);
        set.push(&vec![0.0; dim]); // node 0: origin
        let mut px = vec![0.0; dim];
        px[0] = 1.0;
        let mut nx = vec![0.0; dim];
        nx[0] = -1.0;
        let mut py = vec![0.0; dim];
        py[1] = 1.0;
        let mut ny = vec![0.0; dim];
        ny[1] = -1.0;
        set.push(&px); // 1
        set.push(&nx); // 2
        set.push(&py); // 3
        set.push(&ny); // 4
        let lists = vec![
            vec![1, 2, 3, 4],
            vec![0, 2, 3, 4],
            vec![0, 1, 3, 4],
            vec![0, 1, 2, 4],
            vec![0, 1, 2, 3],
        ];
        let g = FixedDegreeGraph::from_lists(4, &lists);
        let t = DirectionTable::build(&set, &g);
        (set, g, t)
    }

    #[test]
    fn all_keeps_everything() {
        let mut rng = pathweaver_util::small_rng(1);
        let mut buf = SignCodeBuf::new(16);
        let got = select_neighbors(
            NeighborFilter::All,
            4,
            &[0.0; 16],
            &[1.0; 16],
            None,
            &mut buf,
            &mut rng,
        );
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn direction_ranks_aligned_neighbor_first() {
        let (set, _g, t) = axis_world();
        let mut query = vec![0.0f32; 16];
        query[0] = 2.0; // Along +x: neighbor 1 (row position 0) is aligned.
        let mut rng = pathweaver_util::small_rng(2);
        let mut buf = SignCodeBuf::new(16);
        let got = select_neighbors(
            NeighborFilter::Direction { keep: 1 },
            4,
            set.row(0),
            &query,
            Some((&t, 0)),
            &mut buf,
            &mut rng,
        );
        assert_eq!(got, vec![0], "expected the +x edge (row position 0)");
    }

    #[test]
    fn direction_keep_two_excludes_opposite() {
        let (set, _g, t) = axis_world();
        // Query increases along every coordinate, so the +x and +y edges
        // (row positions 0 and 2) must outrank the −x and −y edges, whose
        // sign codes share no raised bit with the query direction.
        let query = vec![2.0f32; 16];
        let mut rng = pathweaver_util::small_rng(3);
        let mut buf = SignCodeBuf::new(16);
        let got = select_neighbors(
            NeighborFilter::Direction { keep: 2 },
            4,
            set.row(0),
            &query,
            Some((&t, 0)),
            &mut buf,
            &mut rng,
        );
        assert_eq!(got.len(), 2);
        assert!(got.contains(&0), "+x edge must be kept: {got:?}");
        assert!(got.contains(&2), "+y edge must be kept: {got:?}");
    }

    #[test]
    fn random_keeps_requested_count() {
        let mut rng = pathweaver_util::small_rng(4);
        let mut buf = SignCodeBuf::new(8);
        let got = select_neighbors(
            NeighborFilter::Random { keep: 3 },
            10,
            &[0.0; 8],
            &[1.0; 8],
            None,
            &mut buf,
            &mut rng,
        );
        assert_eq!(got.len(), 3);
        let uniq: std::collections::HashSet<usize> = got.iter().copied().collect();
        assert_eq!(uniq.len(), 3);
        assert!(got.iter().all(|&j| j < 10));
    }

    #[test]
    fn threshold_keeps_qualifying_neighbors() {
        let (set, _g, t) = axis_world();
        let query = vec![2.0f32; 16]; // All coordinates increase.
        let mut rng = pathweaver_util::small_rng(6);
        let mut buf = SignCodeBuf::new(16);
        // +x and +y edges match on 1 bit; −x/−y on 0 bits.
        let got = select_neighbors(
            NeighborFilter::Threshold { min_matches: 1 },
            4,
            set.row(0),
            &query,
            Some((&t, 0)),
            &mut buf,
            &mut rng,
        );
        assert_eq!(got, vec![0, 2]);
    }

    #[test]
    fn threshold_never_empty() {
        let (set, _g, t) = axis_world();
        let query = vec![2.0f32; 16];
        let mut rng = pathweaver_util::small_rng(7);
        let mut buf = SignCodeBuf::new(16);
        let got = select_neighbors(
            NeighborFilter::Threshold { min_matches: 1000 },
            4,
            set.row(0),
            &query,
            Some((&t, 0)),
            &mut buf,
            &mut rng,
        );
        assert_eq!(got.len(), 1, "best neighbor must survive an impossible threshold");
    }

    #[test]
    fn keep_clamped_to_degree() {
        let mut rng = pathweaver_util::small_rng(5);
        let mut buf = SignCodeBuf::new(8);
        let got = select_neighbors(
            NeighborFilter::Random { keep: 100 },
            4,
            &[0.0; 8],
            &[1.0; 8],
            None,
            &mut buf,
            &mut rng,
        );
        assert_eq!(got.len(), 4);
    }
}
