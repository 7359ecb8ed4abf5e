//! Fixed-out-degree adjacency storage.
//!
//! CAGRA-family search kernels want every node to have exactly `degree`
//! neighbors so a warp can fetch the adjacency row with one coalesced load
//! and process it without divergence. The paper fixes the out-degree to 64
//! for all datasets (§5.1); this reproduction keeps it configurable.

use serde::{Deserialize, Serialize};

/// A proximity graph with exactly `degree` out-edges per node, stored as one
/// flat row-major `u32` array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixedDegreeGraph {
    degree: usize,
    /// `num_nodes × degree` neighbor ids.
    adjacency: Vec<u32>,
}

impl FixedDegreeGraph {
    /// Creates a graph from a flat `num_nodes × degree` adjacency array.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0`, the buffer is not a multiple of `degree`, or
    /// any neighbor id is out of range.
    pub fn from_flat(degree: usize, adjacency: Vec<u32>) -> Self {
        match Self::try_from_flat(degree, adjacency) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`FixedDegreeGraph::from_flat`] for loaders that
    /// must turn structural problems into errors instead of panics (the
    /// durable store rejects corrupt adjacency sections this way).
    ///
    /// # Errors
    ///
    /// A description of the structural violation: zero degree, ragged
    /// buffer, or an out-of-range neighbor id.
    pub fn try_from_flat(degree: usize, adjacency: Vec<u32>) -> Result<Self, String> {
        if degree == 0 {
            return Err("degree must be positive".into());
        }
        if !adjacency.len().is_multiple_of(degree) {
            return Err(format!(
                "adjacency length {} not a multiple of degree {degree}",
                adjacency.len()
            ));
        }
        let n = adjacency.len() / degree;
        if !adjacency.iter().all(|&v| (v as usize) < n) {
            return Err(format!("neighbor id out of range for {n} nodes"));
        }
        Ok(Self { degree, adjacency })
    }

    /// Creates a graph from per-node neighbor lists, each exactly `degree`
    /// long.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`FixedDegreeGraph::from_flat`],
    /// or if any list has the wrong length.
    pub fn from_lists(degree: usize, lists: &[Vec<u32>]) -> Self {
        let mut adjacency = Vec::with_capacity(lists.len() * degree);
        for (u, list) in lists.iter().enumerate() {
            assert_eq!(list.len(), degree, "node {u} has {} neighbors, want {degree}", list.len());
            adjacency.extend_from_slice(list);
        }
        Self::from_flat(degree, adjacency)
    }

    /// Returns the fixed out-degree.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Returns the number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len() / self.degree
    }

    /// Returns the neighbors of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let start = u as usize * self.degree;
        &self.adjacency[start..start + self.degree]
    }

    /// Returns the flat adjacency buffer.
    pub fn as_flat(&self) -> &[u32] {
        &self.adjacency
    }

    /// Returns the memory footprint of the adjacency in bytes.
    pub fn nbytes(&self) -> usize {
        self.adjacency.len() * std::mem::size_of::<u32>()
    }

    /// Returns the total number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.len()
    }

    /// Replaces the adjacency row of node `u`.
    ///
    /// Used by the dynamic-update path when a shard absorbs insertions.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != degree` or any id is out of range.
    pub fn set_neighbors(&mut self, u: u32, row: &[u32]) {
        assert_eq!(row.len(), self.degree, "row length mismatch");
        let n = self.num_nodes();
        assert!(row.iter().all(|&v| (v as usize) < n), "neighbor id out of range");
        let start = u as usize * self.degree;
        self.adjacency[start..start + self.degree].copy_from_slice(row);
    }

    /// Copies the graph with room for `extra` more nodes (bitwise-equal
    /// rows): the next `extra` [`push_node`](Self::push_node)s append
    /// without reallocating, so a copy-on-write insert copies the adjacency
    /// once.
    pub fn clone_with_room(&self, extra: usize) -> Self {
        Self {
            degree: self.degree,
            adjacency: pathweaver_util::vec_with_room(&self.adjacency, extra * self.degree),
        }
    }

    /// Appends a new node with the given adjacency row, returning its id.
    ///
    /// The new node may reference any id `<= num_nodes()` (including itself).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != degree` or any id exceeds the new node count.
    pub fn push_node(&mut self, row: &[u32]) -> u32 {
        assert_eq!(row.len(), self.degree, "row length mismatch");
        let new_id = self.num_nodes() as u32;
        assert!(row.iter().all(|&v| v <= new_id), "neighbor id out of range");
        self.adjacency.extend_from_slice(row);
        new_id
    }

    /// Builds the reverse adjacency: for each node, the list of nodes that
    /// point to it.
    pub fn reverse_lists(&self) -> Vec<Vec<u32>> {
        let n = self.num_nodes();
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for u in 0..n {
            for &v in self.neighbors(u as u32) {
                rev[v as usize].push(u as u32);
            }
        }
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, degree: usize) -> FixedDegreeGraph {
        let lists: Vec<Vec<u32>> =
            (0..n).map(|u| (1..=degree).map(|s| ((u + s) % n) as u32).collect()).collect();
        FixedDegreeGraph::from_lists(degree, &lists)
    }

    #[test]
    fn ring_adjacency() {
        let g = ring(5, 2);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.degree(), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(4), &[0, 1]);
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn set_neighbors_replaces_row() {
        let mut g = ring(4, 2);
        g.set_neighbors(1, &[3, 0]);
        assert_eq!(g.neighbors(1), &[3, 0]);
    }

    #[test]
    fn push_node_grows_graph() {
        let mut g = ring(3, 2);
        let id = g.push_node(&[0, 3]); // May self-reference the new node.
        assert_eq!(id, 3);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.neighbors(3), &[0, 3]);
    }

    #[test]
    fn reverse_lists_inverts() {
        let g = ring(4, 1); // u -> u+1
        let rev = g.reverse_lists();
        assert_eq!(rev[0], vec![3]);
        assert_eq!(rev[1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_ids() {
        let _ = FixedDegreeGraph::from_flat(2, vec![0, 5, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_ragged_flat() {
        let _ = FixedDegreeGraph::from_flat(2, vec![0, 1, 0]);
    }

    #[test]
    fn nbytes_counts_u32() {
        let g = ring(10, 4);
        assert_eq!(g.nbytes(), 10 * 4 * 4);
    }
}
