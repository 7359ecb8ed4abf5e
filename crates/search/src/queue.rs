//! The bounded sorted priority buffer (the paper's queue `p`).
//!
//! CAGRA keeps the top-`l` intermediate results in registers, sorted by a
//! warp-wide bitonic network. The CPU mirror is a bounded sorted vector with
//! an `expanded` flag per entry; insertions charge `log2(l)` simulated sort
//! steps (one bitonic merge depth) to the cost counters.

/// A bounded ascending-sorted buffer of the best `capacity` nodes seen.
///
/// Stored as parallel columns: the distances (binary-searched on insert),
/// the ids (scanned whole for the duplicate check, a branch-free compare
/// the compiler vectorizes) and the expanded flags.
#[derive(Debug, Clone)]
pub struct PriorityBuffer {
    /// Squared distances to the query, ascending.
    dists: Vec<f32>,
    /// Node ids, parallel to `dists`.
    node_ids: Vec<u32>,
    /// Whether each node's adjacency has been expanded (step 4 of §2.2).
    expanded: Vec<bool>,
    capacity: usize,
    /// Simulated bitonic sort steps charged per accepted insert.
    steps_per_insert: u64,
    /// Simulated bitonic sort steps charged so far.
    sort_steps: u64,
}

impl PriorityBuffer {
    /// Creates an empty buffer of the given capacity (`l`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        // `ceil(log2(capacity))` of a queue capacity is tiny, so the
        // f64-to-u64 cast cannot truncate.
        #[allow(clippy::cast_possible_truncation)]
        let steps_per_insert = (capacity.max(2) as f64).log2().ceil() as u64;
        Self {
            dists: Vec::with_capacity(capacity + 1),
            node_ids: Vec::with_capacity(capacity + 1),
            expanded: Vec::with_capacity(capacity + 1),
            capacity,
            steps_per_insert,
            sort_steps: 0,
        }
    }

    /// Capacity `l`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.node_ids.len()
    }

    /// Whether the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.node_ids.is_empty()
    }

    /// Simulated sort steps charged so far (drained into cost counters by
    /// the kernel).
    pub fn take_sort_steps(&mut self) -> u64 {
        std::mem::take(&mut self.sort_steps)
    }

    /// Worst distance still kept, or `f32::INFINITY` while not full.
    pub fn threshold(&self) -> f32 {
        if self.dists.len() < self.capacity {
            f32::INFINITY
        } else {
            self.dists[self.capacity - 1]
        }
    }

    /// Offers `(dist, id)`; returns `true` if the buffer changed.
    ///
    /// Duplicate ids are rejected (the visited hash makes them rare; this is
    /// the backstop that keeps results unique).
    pub fn push(&mut self, dist: f32, id: u32) -> bool {
        self.push_at(dist, id).is_some()
    }

    /// Offers `(dist, id)`; returns the insertion rank (0 = new best) when
    /// the buffer changed, `None` otherwise.
    ///
    /// An id already held is rejected whatever its distance. The rank feeds
    /// the kernel's convergence check: the search has converged when the
    /// *result window* (top-k) stops receiving new entries, even while the
    /// beam tail keeps churning.
    pub fn push_at(&mut self, dist: f32, id: u32) -> Option<usize> {
        if self.dists.len() == self.capacity && dist >= self.dists[self.capacity - 1] {
            // Rejected by the threshold: a single register compare on the
            // GPU, no merge network — charge nothing.
            return None;
        }
        // A fold, not `any`: no early exit, so the whole column is one
        // vectorized compare-and-or.
        if self.node_ids.iter().fold(false, |held, &x| held | (x == id)) {
            return None;
        }
        self.sort_steps += self.steps_per_insert;
        let pos = self.dists.partition_point(|&d| d <= dist);
        self.dists.insert(pos, dist);
        self.node_ids.insert(pos, id);
        self.expanded.insert(pos, false);
        if self.node_ids.len() > self.capacity {
            self.dists.pop();
            self.node_ids.pop();
            self.expanded.pop();
        }
        Some(pos)
    }

    /// Marks and returns the best `r` unexpanded slots' `(dist, id)`.
    pub fn pop_expansion_targets(&mut self, r: usize) -> Vec<(f32, u32)> {
        let mut out = Vec::with_capacity(r);
        self.pop_expansion_targets_into(r, &mut out);
        out
    }

    /// [`Self::pop_expansion_targets`] writing into a caller-owned buffer.
    ///
    /// `out` is cleared first; the search kernel reuses one buffer across all
    /// beam iterations to keep the hot loop allocation-free.
    pub fn pop_expansion_targets_into(&mut self, r: usize, out: &mut Vec<(f32, u32)>) {
        out.clear();
        for (i, expanded) in self.expanded.iter_mut().enumerate() {
            if out.len() == r {
                break;
            }
            if !*expanded {
                *expanded = true;
                out.push((self.dists[i], self.node_ids[i]));
            }
        }
    }

    /// The current best `k` results, ascending.
    pub fn top_k(&self, k: usize) -> Vec<(f32, u32)> {
        self.dists.iter().copied().zip(self.node_ids.iter().copied()).take(k).collect()
    }

    /// All ids currently held.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.node_ids.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_sorted() {
        let mut q = PriorityBuffer::new(3);
        assert!(q.push(5.0, 1));
        assert!(q.push(2.0, 2));
        assert!(q.push(8.0, 3));
        assert!(q.push(1.0, 4)); // Evicts id 3.
        assert!(!q.push(9.0, 5));
        let top = q.top_k(3);
        assert_eq!(top, vec![(1.0, 4), (2.0, 2), (5.0, 1)]);
    }

    #[test]
    fn duplicates_rejected() {
        let mut q = PriorityBuffer::new(4);
        assert!(q.push(1.0, 7));
        assert!(!q.push(2.0, 7));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn duplicate_at_a_better_distance_is_rejected_too() {
        // The id check does not depend on where the new distance would land:
        // a better, an equal and a worse re-offer of a held id all fail.
        let mut q = PriorityBuffer::new(4);
        assert!(q.push(3.0, 9));
        assert!(q.push(5.0, 2));
        assert_eq!(q.push_at(0.5, 2), None);
        assert_eq!(q.push_at(3.0, 9), None);
        assert_eq!(q.push_at(4.0, 9), None);
        assert_eq!(q.top_k(4), vec![(3.0, 9), (5.0, 2)]);
        assert_eq!(q.take_sort_steps(), 4, "rejected offers charge no sort steps");
    }

    #[test]
    fn expansion_targets_marked_once() {
        let mut q = PriorityBuffer::new(4);
        q.push(1.0, 1);
        q.push(2.0, 2);
        q.push(3.0, 3);
        let first = q.pop_expansion_targets(2);
        assert_eq!(first, vec![(1.0, 1), (2.0, 2)]);
        let second = q.pop_expansion_targets(2);
        assert_eq!(second, vec![(3.0, 3)]);
        assert!(q.pop_expansion_targets(2).is_empty());
    }

    #[test]
    fn new_entries_are_unexpanded() {
        let mut q = PriorityBuffer::new(4);
        q.push(1.0, 1);
        let _ = q.pop_expansion_targets(1);
        q.push(0.5, 2); // Better node arrives after expansion.
        let next = q.pop_expansion_targets(1);
        assert_eq!(next, vec![(0.5, 2)]);
    }

    #[test]
    fn threshold_tracks_worst() {
        let mut q = PriorityBuffer::new(2);
        assert_eq!(q.threshold(), f32::INFINITY);
        q.push(3.0, 1);
        q.push(1.0, 2);
        assert_eq!(q.threshold(), 3.0);
    }

    #[test]
    fn sort_steps_accumulate_and_drain() {
        let mut q = PriorityBuffer::new(8);
        q.push(1.0, 1);
        q.push(2.0, 2);
        assert_eq!(q.take_sort_steps(), 6); // 2 pushes × log2(8).
        assert_eq!(q.take_sort_steps(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn matches_sorted_truncation(entries in proptest::collection::vec((0.0f32..100.0, 0u32..1000), 0..200)) {
            let mut q = PriorityBuffer::new(8);
            for &(d, id) in &entries {
                q.push(d, id);
            }
            // Reference: sort by (dist, first-arrival), dedup ids keeping the
            // first accepted occurrence. The buffer processes sequentially, so
            // an id is kept with the distance of its first surviving arrival.
            let got = q.top_k(8);
            prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
            let ids: std::collections::HashSet<u32> = got.iter().map(|e| e.1).collect();
            prop_assert_eq!(ids.len(), got.len());
            // Every kept distance is at most the 8th-smallest overall dist.
            if entries.len() >= 8 {
                let mut dists: Vec<f32> = entries.iter().map(|e| e.0).collect();
                dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
                for e in &got {
                    prop_assert!(e.0 >= dists[0] - 1e-6);
                }
            }
        }
    }
}
