//! Random dataset sharding (paper §3.1.2: "the dataset is randomly
//! partitioned ... to build independent graphs").

use pathweaver_vector::VectorSet;
use rand::seq::SliceRandom;

/// Assignment of every global vector to exactly one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// `members[s]` lists the global ids of shard `s`, ascending.
    members: Vec<Vec<u32>>,
}

impl ShardAssignment {
    /// Randomly partitions `n` items into `num_shards` near-equal shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0` or `n < num_shards`.
    pub fn random(n: usize, num_shards: usize, seed: u64) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert!(n >= num_shards, "need at least one vector per shard");
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut rng = pathweaver_util::small_rng(seed);
        ids.shuffle(&mut rng);
        let mut members: Vec<Vec<u32>> = vec![Vec::with_capacity(n / num_shards + 1); num_shards];
        for (i, id) in ids.into_iter().enumerate() {
            members[i % num_shards].push(id);
        }
        for m in members.iter_mut() {
            m.sort_unstable();
        }
        Self { members }
    }

    /// Global ids of shard `s` (ascending; index = local id).
    pub fn members(&self, s: usize) -> &[u32] {
        &self.members[s]
    }

    /// Materializes shard `s`'s vectors from the full set.
    pub fn gather(&self, s: usize, all: &VectorSet) -> VectorSet {
        let rows: Vec<usize> = self.members[s].iter().map(|&g| g as usize).collect();
        all.gather(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_exact_and_balanced() {
        let a = ShardAssignment::random(1003, 4, 9);
        let mut all: Vec<u32> = (0..4).flat_map(|s| a.members(s).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..1003u32).collect::<Vec<_>>());
        for s in 0..4 {
            let len = a.members(s).len();
            assert!((250..=251).contains(&len), "shard {s} has {len}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(ShardAssignment::random(100, 3, 5), ShardAssignment::random(100, 3, 5));
        assert_ne!(ShardAssignment::random(100, 3, 5), ShardAssignment::random(100, 3, 6));
    }

    #[test]
    fn gather_matches_members() {
        let all = VectorSet::from_fn(20, 2, |r, _| r as f32);
        let a = ShardAssignment::random(20, 3, 1);
        for s in 0..3 {
            let shard = a.gather(s, &all);
            assert_eq!(shard.len(), a.members(s).len());
            for (local, &global) in a.members(s).iter().enumerate() {
                assert_eq!(shard.row(local), all.row(global as usize));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one vector per shard")]
    fn too_many_shards_rejected() {
        let _ = ShardAssignment::random(2, 3, 0);
    }
}
