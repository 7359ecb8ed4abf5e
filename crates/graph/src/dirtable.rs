//! Packed direction-bit tables (paper §3.3, §4).
//!
//! For every edge `u → v` of a shard graph, the table stores the sign bits of
//! `v - u` packed into `u32` words. At search time the kernel computes the
//! query-direction code `sign(q - u)` once per visited node and ranks `u`'s
//! neighbors by matching bits with one XOR + popcount per word — avoiding the
//! full vector read for neighbors that point away from the query.
//!
//! Layout: row-major `num_nodes × degree × words_per_code`, so the codes of
//! one node's whole adjacency row are contiguous (a single coalesced load in
//! the simulated kernel).

use crate::csr::FixedDegreeGraph;
use pathweaver_util::parallel_chunks_mut;
use pathweaver_vector::{sign_code, sign_code_words, VectorSet};
use serde::{Deserialize, Serialize};

/// The per-edge packed direction codes of one shard graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectionTable {
    dim: usize,
    degree: usize,
    words: usize,
    codes: Vec<u32>,
}

impl DirectionTable {
    /// Builds the table for `graph` over `vectors`.
    ///
    /// Mirrors the paper's CPU-side preprocessing: one worker handles the
    /// edges of a contiguous block of parent nodes, packing each comparison
    /// into `u32` words.
    ///
    /// # Panics
    ///
    /// Panics if the graph and vector set disagree on node count.
    pub fn build(vectors: &VectorSet, graph: &FixedDegreeGraph) -> Self {
        assert_eq!(vectors.len(), graph.num_nodes(), "graph/vector size mismatch");
        let dim = vectors.dim();
        let degree = graph.degree();
        let words = sign_code_words(dim);
        let mut codes = vec![0u32; graph.num_nodes() * degree * words];
        let row_len = degree * words;
        parallel_chunks_mut(&mut codes, row_len, |u, chunk| {
            let src = vectors.row(u);
            for (j, &v) in graph.neighbors(u as u32).iter().enumerate() {
                let dst = vectors.row(v as usize);
                sign_code(src, dst, &mut chunk[j * words..(j + 1) * words]);
            }
        });
        Self { dim, degree, words, codes }
    }

    /// Vector dimensionality the codes encode.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of `u32` words per edge code.
    pub fn words_per_code(&self) -> usize {
        self.words
    }

    /// Returns the packed code of edge `(u, j)` — the `j`-th neighbor of `u`.
    ///
    /// # Panics
    ///
    /// Panics if the edge coordinates are out of range.
    #[inline]
    pub fn edge_code(&self, u: u32, j: usize) -> &[u32] {
        let start = (u as usize * self.degree + j) * self.words;
        &self.codes[start..start + self.words]
    }

    /// Returns all codes of node `u`'s adjacency row, concatenated.
    #[inline]
    pub fn node_codes(&self, u: u32) -> &[u32] {
        let start = u as usize * self.degree * self.words;
        &self.codes[start..start + self.degree * self.words]
    }

    /// Memory footprint in bytes (Fig 17 build-overhead analysis).
    pub fn nbytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<u32>()
    }

    /// The packed code words in their exact in-memory layout (row-major
    /// `num_nodes × degree × words_per_code`), for persistence.
    pub fn as_words(&self) -> &[u32] {
        &self.codes
    }

    /// Rebuilds a table from persisted code words.
    ///
    /// # Errors
    ///
    /// A description of the structural violation when the shape parameters
    /// are inconsistent with the word count or with `dim`.
    pub fn try_from_words(dim: usize, degree: usize, codes: Vec<u32>) -> Result<Self, String> {
        if dim == 0 || degree == 0 {
            return Err("zero dim or degree".into());
        }
        let words = sign_code_words(dim);
        if !codes.len().is_multiple_of(degree * words) {
            return Err(format!(
                "code count {} not a multiple of degree {degree} x {words} words",
                codes.len()
            ));
        }
        Ok(Self { dim, degree, words, codes })
    }

    /// Recomputes the codes of one node's adjacency row in place (dynamic
    /// updates, §6.2).
    pub fn rebuild_node(&mut self, vectors: &VectorSet, graph: &FixedDegreeGraph, u: u32) {
        let src = vectors.row(u as usize);
        for (j, &v) in graph.neighbors(u).iter().enumerate() {
            let start = (u as usize * self.degree + j) * self.words;
            let end = start + self.words;
            sign_code(src, vectors.row(v as usize), &mut self.codes[start..end]);
        }
    }

    /// Copies the table with room for `extra` more nodes' rows
    /// (bitwise-equal codes): the next `extra` [`push_node`](Self::push_node)s
    /// append without reallocating, so a copy-on-write insert copies the
    /// codes once.
    pub fn clone_with_room(&self, extra: usize) -> Self {
        Self {
            codes: pathweaver_util::vec_with_room(&self.codes, extra * self.degree * self.words),
            ..*self
        }
    }

    /// Appends codes for a newly added node's adjacency row (dynamic
    /// updates).
    ///
    /// # Panics
    ///
    /// Panics if the graph does not already contain the new node as its last
    /// row.
    pub fn push_node(&mut self, vectors: &VectorSet, graph: &FixedDegreeGraph) {
        let u = graph.num_nodes() - 1;
        assert_eq!(self.codes.len(), u * self.degree * self.words, "push_node called out of sync");
        let src = vectors.row(u);
        let mut buf = vec![0u32; self.words];
        for &v in graph.neighbors(u as u32) {
            sign_code(src, vectors.row(v as usize), &mut buf);
            self.codes.extend_from_slice(&buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathweaver_vector::{hamming_matches, SignCodeBuf};

    fn small_world() -> (VectorSet, FixedDegreeGraph) {
        let set = VectorSet::from_fn(10, 40, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        let lists: Vec<Vec<u32>> =
            (0..10).map(|u| vec![((u + 1) % 10) as u32, ((u + 2) % 10) as u32]).collect();
        (set, FixedDegreeGraph::from_lists(2, &lists))
    }

    #[test]
    fn codes_match_direct_computation() {
        let (set, g) = small_world();
        let t = DirectionTable::build(&set, &g);
        assert_eq!(t.words_per_code(), 2);
        for u in 0..10u32 {
            for (j, &v) in g.neighbors(u).iter().enumerate() {
                let mut want = vec![0u32; 2];
                sign_code(set.row(u as usize), set.row(v as usize), &mut want);
                assert_eq!(t.edge_code(u, j), want.as_slice(), "edge ({u},{j})");
            }
        }
    }

    #[test]
    fn node_codes_are_row_concat() {
        let (set, g) = small_world();
        let t = DirectionTable::build(&set, &g);
        let row = t.node_codes(3);
        assert_eq!(&row[..2], t.edge_code(3, 0));
        assert_eq!(&row[2..4], t.edge_code(3, 1));
    }

    #[test]
    fn aligned_edge_scores_high_match() {
        // Node at origin, neighbor along +x, query along +x: the edge code
        // must match the query code on every dimension.
        let mut set = VectorSet::empty(32);
        set.push(&[0.0; 32]); // node 0
        set.push(&[1.0; 32]); // node 1: all coords increase
        let g = FixedDegreeGraph::from_lists(1, &[vec![1], vec![0]]);
        let t = DirectionTable::build(&set, &g);
        let query = [2.0f32; 32];
        let mut qcode = SignCodeBuf::new(32);
        qcode.encode(set.row(0), &query);
        assert_eq!(hamming_matches(qcode.words(), t.edge_code(0, 0), 32), 32);
    }

    #[test]
    fn rebuild_node_tracks_graph_change() {
        let (set, mut g) = small_world();
        let mut t = DirectionTable::build(&set, &g);
        g.set_neighbors(0, &[5, 6]);
        t.rebuild_node(&set, &g, 0);
        let mut want = vec![0u32; 2];
        sign_code(set.row(0), set.row(5), &mut want);
        assert_eq!(t.edge_code(0, 0), want.as_slice());
    }

    #[test]
    fn push_node_appends() {
        let (mut set, mut g) = small_world();
        let mut t = DirectionTable::build(&set, &g);
        set.push(&[0.5; 40]);
        g.push_node(&[0, 1]);
        t.push_node(&set, &g);
        let mut want = vec![0u32; 2];
        sign_code(set.row(10), set.row(0), &mut want);
        assert_eq!(t.edge_code(10, 0), want.as_slice());
    }

    #[test]
    fn nbytes_accounts_all_edges() {
        let (set, g) = small_world();
        let t = DirectionTable::build(&set, &g);
        assert_eq!(t.nbytes(), 10 * 2 * 2 * 4);
    }
}
