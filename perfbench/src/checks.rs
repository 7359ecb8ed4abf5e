//! Correctness checks on answers: hit-list shape, recall against exact
//! ground truth (over the live set after writes), and a digest of the
//! fixed-batch answers, which a traced run compares with an untraced pass.

use crate::inputs::Inputs;
use pathweaver_datasets::{brute_force_knn, recall_at_k};
use pathweaver_vector::VectorSet;
use std::collections::HashMap;
use std::time::Instant;

/// A hit list must hold exactly `k` distinct ids (every workload keeps far
/// more than `k` vectors live), with finite distances in ascending order.
pub fn hits_shape(hits: &[(f32, u32)], k: usize) -> Result<(), String> {
    if hits.len() != k {
        return Err(format!("{} hits, expected {k}", hits.len()));
    }
    if let Some((d, id)) = hits.iter().find(|(d, _)| !d.is_finite()) {
        return Err(format!("non-finite distance {d} for id {id}"));
    }
    if hits.windows(2).any(|p| p[0].0 > p[1].0) {
        return Err("hits not sorted by distance".into());
    }
    let mut ids: Vec<u32> = hits.iter().map(|&(_, id)| id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|p| p[0] == p[1]) {
        return Err("duplicate id in hits".into());
    }
    Ok(())
}

pub fn recall(exact: &[u32], hits: &[(f32, u32)]) -> f64 {
    let ids: Vec<u32> = hits.iter().map(|&(_, id)| id).collect();
    recall_at_k(exact, &ids, exact.len())
}

/// Exact top-`k` global ids per query over the live set: base rows not
/// deleted, plus every inserted row under the id its insert returned.
pub fn live_ground_truth(
    inputs: &Inputs,
    deleted: &HashMap<u32, Instant>,
    inserted: &[(u32, usize)],
    k: usize,
) -> Vec<Vec<u32>> {
    let mut ids: Vec<u32> =
        (0..inputs.base.len() as u32).filter(|id| !deleted.contains_key(id)).collect();
    let mut live = inputs.base.gather(&ids.iter().map(|&id| id as usize).collect::<Vec<_>>());
    for &(id, row) in inserted {
        if !deleted.contains_key(&id) {
            live.push(inputs.inserts.row(row));
            ids.push(id);
        }
    }
    let gt = brute_force_knn(&live, &inputs.queries, k);
    (0..gt.num_queries())
        .map(|q| gt.neighbors(q).iter().map(|&r| ids[r as usize]).collect())
        .collect()
}

/// FNV-1a over every hit's distance bits and id, in answer order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, hits: &[(f32, u32)]) {
        for &(d, id) in hits {
            for b in d.to_bits().to_le_bytes().into_iter().chain(id.to_le_bytes()) {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
            }
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A query set in one row-major block, for probes that need `VectorSet`s.
pub fn rows(set: &VectorSet, range: std::ops::Range<usize>) -> VectorSet {
    set.gather(&range.collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_check_rejects_each_violation() {
        assert!(hits_shape(&[(0.1, 1), (0.2, 2)], 2).is_ok());
        assert!(hits_shape(&[(0.1, 1)], 2).is_err());
        assert!(hits_shape(&[(0.3, 1), (0.2, 2)], 2).is_err());
        assert!(hits_shape(&[(f32::NAN, 1), (0.2, 2)], 2).is_err());
        assert!(hits_shape(&[(0.1, 1), (0.2, 1)], 2).is_err());
    }

    #[test]
    fn digest_sees_distance_bits_and_order() {
        let mut a = Digest::default();
        a.add(&[(0.5, 3), (0.75, 4)]);
        let mut b = Digest::default();
        b.add(&[(0.5, 3), (0.75, 4)]);
        assert_eq!(a, b);
        let mut c = Digest::default();
        c.add(&[(0.75, 4), (0.5, 3)]);
        assert_ne!(a, c);
        let mut d = Digest::default();
        d.add(&[(0.5, 3), (f32::from_bits(0.75f32.to_bits() + 1), 4)]);
        assert_ne!(a, d);
    }
}
