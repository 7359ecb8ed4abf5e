//! The forgettable visited-hash table (CAGRA §4, adopted by the paper).
//!
//! A small open-addressing table of node ids that answers "have I already
//! computed this node's distance?". It is *forgettable*: when a probe window
//! is full, the oldest-looking slot is overwritten. Forgetting can cause a
//! node to be re-processed (costing a redundant distance computation, never
//! a wrong result) — precisely the trade the GPU kernel makes to keep the
//! table in shared memory.

/// Sentinel for an empty slot (node ids are < 2^32 − 1 in practice).
const EMPTY: u32 = u32::MAX;

/// Linear-probe window before forgetting.
const WINDOW: usize = 8;

/// A fixed-capacity forgettable visited set of `u32` ids.
#[derive(Debug, Clone)]
pub struct VisitedHash {
    slots: Vec<u32>,
    mask: usize,
    probes: u64,
}

impl VisitedHash {
    /// Creates a table with `2^bits` slots.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `4..=28`.
    pub fn new(bits: u32) -> Self {
        assert!((4..=28).contains(&bits), "hash bits out of range");
        let n = 1usize << bits;
        Self { slots: vec![EMPTY; n], mask: n - 1, probes: 0 }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Simulated probe count charged so far (drained by the kernel).
    pub fn take_probes(&mut self) -> u64 {
        std::mem::take(&mut self.probes)
    }

    /// Multiplicative hash of an id onto the table.
    #[inline]
    fn slot_of(&self, id: u32) -> usize {
        (id.wrapping_mul(0x9E37_79B1) as usize) & self.mask
    }

    /// Walks `id`'s probe window from `start`, tallies the slots probed, and
    /// returns the first slot holding `id` or empty, if any.
    ///
    /// A window that fits before the table end is one checked sub-slice and
    /// an unchecked scan; only the few windows that wrap index slot by slot.
    /// The tally is added once per call, equal to one per slot probed.
    #[inline]
    fn probe(&mut self, id: u32, start: usize) -> Option<usize> {
        let stop = |s: u32| s == id || s == EMPTY;
        let hit = match self.slots.get(start..start + WINDOW) {
            Some(window) => window.iter().position(|&s| stop(s)),
            None => (0..WINDOW).position(|i| stop(self.slots[(start + i) & self.mask])),
        };
        self.probes += hit.map_or(WINDOW, |i| i + 1) as u64;
        hit.map(|i| (start + i) & self.mask)
    }

    /// Marks `id` visited. Returns `true` when the id was *not* already
    /// present (i.e. the caller should process it now).
    pub fn insert(&mut self, id: u32) -> bool {
        debug_assert_ne!(id, EMPTY, "sentinel id");
        let start = self.slot_of(id);
        match self.probe(id, start) {
            Some(s) if self.slots[s] == id => false,
            Some(s) => {
                self.slots[s] = id;
                true
            }
            None => {
                // Window full: forget the slot at the window start.
                self.slots[start] = id;
                true
            }
        }
    }

    /// Returns `true` if `id` is currently remembered as visited.
    pub fn contains(&mut self, id: u32) -> bool {
        let start = self.slot_of(id);
        self.probe(id, start).is_some_and(|s| self.slots[s] == id)
    }

    /// Clears the table (reused between queries).
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_contains() {
        let mut h = VisitedHash::new(8);
        assert!(h.insert(42));
        assert!(!h.insert(42));
        assert!(h.contains(42));
        assert!(!h.contains(43));
    }

    #[test]
    fn clear_forgets_everything() {
        let mut h = VisitedHash::new(6);
        h.insert(1);
        h.insert(2);
        h.clear();
        assert!(!h.contains(1));
        assert!(h.insert(1));
    }

    #[test]
    fn never_false_positive() {
        // Forgetting may cause false *negatives* (re-processing) but an id
        // never reported visited unless it was actually inserted.
        let mut h = VisitedHash::new(4); // 16 slots: heavy pressure.
        let mut inserted = std::collections::HashSet::new();
        for id in 0..1000u32 {
            if h.contains(id * 7 + 1) {
                assert!(inserted.contains(&(id * 7 + 1)), "false positive for {}", id * 7 + 1);
            }
            h.insert(id);
            inserted.insert(id);
        }
    }

    #[test]
    fn forgetting_under_pressure_still_inserts() {
        let mut h = VisitedHash::new(4);
        for id in 0..10_000u32 {
            h.insert(id);
        }
        // The most recent id must still be present.
        assert!(h.contains(9_999));
    }

    #[test]
    fn probes_are_counted() {
        let mut h = VisitedHash::new(8);
        h.insert(1);
        h.contains(1);
        assert!(h.take_probes() >= 2);
        assert_eq!(h.take_probes(), 0);
    }

    #[test]
    fn matches_the_slot_by_slot_probe_model() {
        // Reference: the per-probe loop (one tally per slot visited, every
        // index wrapped by the mask). On a 16-slot table most windows wrap,
        // and forgetting is constant; answers, contents and tallies must
        // agree call by call.
        struct Model {
            slots: Vec<u32>,
            probes: u64,
        }
        impl Model {
            fn walk(&mut self, id: u32) -> Option<usize> {
                let start = (id.wrapping_mul(0x9E37_79B1) as usize) & (self.slots.len() - 1);
                for i in 0..WINDOW {
                    self.probes += 1;
                    let s = (start + i) & (self.slots.len() - 1);
                    if self.slots[s] == id || self.slots[s] == EMPTY {
                        return Some(s);
                    }
                }
                None
            }
        }
        let mut h = VisitedHash::new(4);
        let mut m = Model { slots: vec![EMPTY; 16], probes: 0 };
        let mut x = 0x1234_5678u32;
        for step in 0..5_000 {
            x = x.wrapping_mul(0x0019_660d).wrapping_add(0x3c6e_f35f);
            let id = (x >> 8) % 64;
            if step % 3 == 0 {
                let want = m.walk(id).is_some_and(|s| m.slots[s] == id);
                assert_eq!(h.contains(id), want, "contains {id} at step {step}");
            } else {
                let start = (id.wrapping_mul(0x9E37_79B1) as usize) & 15;
                let want = match m.walk(id) {
                    Some(s) if m.slots[s] == id => false,
                    Some(s) => {
                        m.slots[s] = id;
                        true
                    }
                    None => {
                        m.slots[start] = id;
                        true
                    }
                };
                assert_eq!(h.insert(id), want, "insert {id} at step {step}");
            }
            assert_eq!(h.slots, m.slots, "table contents at step {step}");
            assert_eq!(h.probes, m.probes, "probe tally at step {step}");
        }
    }

    #[test]
    #[should_panic(expected = "hash bits out of range")]
    fn tiny_table_rejected() {
        let _ = VisitedHash::new(2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn agrees_with_exact_set_when_roomy(ids in proptest::collection::vec(0u32..200, 0..100)) {
            // With a table far larger than the id universe, the forgettable
            // hash must behave exactly like a set.
            let mut h = VisitedHash::new(12);
            let mut set = std::collections::HashSet::new();
            for &id in &ids {
                prop_assert_eq!(h.insert(id), set.insert(id), "id {}", id);
            }
            for id in 0u32..200 {
                prop_assert_eq!(h.contains(id), set.contains(&id), "contains {}", id);
            }
        }
    }
}
