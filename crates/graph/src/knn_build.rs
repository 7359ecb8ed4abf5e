//! NN-descent approximate k-NN graph construction.
//!
//! The paper builds its proximity graphs with CAGRA's GPU build algorithm,
//! whose first phase is an approximate k-NN graph. This module provides that
//! phase on CPU threads via NN-descent (Dong et al., WWW'11): start from
//! random neighbor lists and repeatedly join each node's neighborhood —
//! neighbors of neighbors are likely neighbors — until updates die out.
//!
//! # Ordered proposals
//!
//! The output depends on the data and the seed only, never on the thread
//! count. It is defined by the sequential join: nodes `u` in ascending
//! order, each trying its sampled pairs `(a, b)` in order, offering the
//! pair's distance to `a`'s list and then to `b`'s. Every thread count
//! reproduces that sequence's lists bit for bit, without per-node locks,
//! by running each round's join over blocks of nodes in two phases:
//!
//! 1. **Propose**, in parallel over `u`: compute the block's pair distances
//!    and drop every offer the sequential insert would certainly reject,
//!    judged against the lists as they stand before the block (read-only,
//!    so threads share them freely). An offer is certainly rejected when
//!    its distance is not below the list's worst, because a full list's
//!    worst only ever falls; or when its id is already held, because
//!    squared L2 is symmetric bit for bit, so the held entry has the same
//!    distance, and evicting it first would leave the worst at most that
//!    distance.
//! 2. **Apply**, in parallel over ranges of target nodes: apply the
//!    surviving offers in the sequential order. Every list sees its own
//!    inserts in the same order as the sequential join, so each accepts or
//!    rejects the same offers, and the round's accepted count — which
//!    decides termination — is the same too.
//!
//! Both arguments need ordered, NaN-free distances: a set with a non-finite
//! component skips the filter and applies every offer. Initialization and
//! sampling each touch only the node's own list, so they run per node.
//!
//! The result feeds [`crate::cagra_opt`] for detour pruning and reverse-edge
//! merging.

use pathweaver_util::{available_threads, parallel_chunks_mut, parallel_map, small_rng, TopK};
use pathweaver_vector::{batch_l2_squared, l2_squared, VectorSet};
use rand::seq::SliceRandom;
use rand::Rng;
use std::ops::Range;

/// Parameters of the NN-descent build.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NnDescentParams {
    /// Neighbors per node in the produced k-NN lists.
    pub k: usize,
    /// Maximum local-join rounds.
    pub max_rounds: usize,
    /// Per-node sample size of new/old neighbors considered per round.
    pub sample: usize,
    /// Stop after a round whose accepted updates are at most
    /// `termination_ratio × n × k`.
    pub termination_ratio: f64,
    /// RNG seed for the random initialization and sampling.
    pub seed: u64,
}

impl Default for NnDescentParams {
    fn default() -> Self {
        Self { k: 32, max_rounds: 12, sample: 12, termination_ratio: 0.002, seed: 0x9a7d }
    }
}

/// Nodes per local-join block. Bounds the proposal buffer at
/// `JOIN_BLOCK × 2 × (pairs per node)` offers: with the default sample of
/// 12 a node joins at most 24 new and 24 old candidates, 852 pairs, so at
/// most 8.7·10⁵ offers (10.5 MB) per block, before the filter.
const JOIN_BLOCK: usize = 512;

/// One offer of the local join: insert `id` at `dist` into `target`'s list.
#[derive(Debug, Clone, Copy)]
struct Proposal {
    target: u32,
    id: u32,
    dist: f32,
}

/// Every node's neighbor list as flat columns: node `u` owns slots
/// `u * k..(u + 1) * k` of each, ascending by distance. Lists hold `k`
/// distinct ids from initialization on.
struct Lists {
    k: usize,
    dist: Vec<f32>,
    id: Vec<u32>,
    is_new: Vec<bool>,
}

impl Lists {
    fn slots(&self, u: usize) -> Range<usize> {
        u * self.k..(u + 1) * self.k
    }

    /// Whether inserting `(dist, id)` into `u`'s list is certain to be
    /// rejected now and after any further inserts (see the module docs).
    /// Sound for NaN-free lists only.
    fn rejects(&self, u: usize, dist: f32, id: u32) -> bool {
        let s = self.slots(u);
        dist >= self.dist[s.end - 1] || self.id[s].contains(&id)
    }

    /// Splits the lists into mutable runs of `rows` consecutive nodes.
    fn runs(&mut self, rows: usize) -> Vec<Run<'_>> {
        let (k, len) = (self.k, rows * self.k);
        self.dist
            .chunks_mut(len)
            .zip(self.id.chunks_mut(len))
            .zip(self.is_new.chunks_mut(len))
            .enumerate()
            .map(|(i, ((dist, id), is_new))| Run {
                first: i * rows,
                k,
                dist,
                id,
                is_new,
                accepted: 0,
            })
            .collect()
    }

    fn into_vecs(self) -> Vec<Vec<(f32, u32)>> {
        self.dist
            .chunks(self.k)
            .zip(self.id.chunks(self.k))
            .map(|(d, id)| d.iter().copied().zip(id.iter().copied()).collect())
            .collect()
    }
}

/// The lists of nodes `first..`, borrowed mutably from [`Lists`].
struct Run<'a> {
    first: usize,
    k: usize,
    dist: &'a mut [f32],
    id: &'a mut [u32],
    is_new: &'a mut [bool],
    /// Offers this run has accepted.
    accepted: u64,
}

impl Run<'_> {
    fn rows(&self) -> Range<usize> {
        self.first..self.first + self.id.len() / self.k
    }

    /// Inserts `(dist, id)` into node `u`'s list, filled to `len` entries.
    fn insert(&mut self, u: usize, len: usize, dist: f32, id: u32) -> bool {
        let s = (u - self.first) * self.k..(u - self.first + 1) * self.k;
        insert(
            &mut self.dist[s.clone()],
            &mut self.id[s.clone()],
            &mut self.is_new[s],
            len,
            dist,
            id,
        )
    }
}

/// Inserts `(d, id)`, marked new, into the ascending list held in the first
/// `len` slots of `dist`, `ids` and `is_new` (capacity `dist.len()`),
/// dropping the worst entry when full. Rejects a distance not below a full
/// list's worst and an id already held. Returns whether the list changed.
fn insert(
    dist: &mut [f32],
    ids: &mut [u32],
    is_new: &mut [bool],
    len: usize,
    d: f32,
    id: u32,
) -> bool {
    let cap = dist.len();
    if len == cap && d >= dist[cap - 1] {
        return false;
    }
    if ids[..len].contains(&id) {
        return false;
    }
    // `pos < cap`: a full list's worst fails the predicate here.
    let pos = dist[..len].partition_point(|&x| x <= d);
    let last = len.min(cap - 1);
    dist.copy_within(pos..last, pos + 1);
    ids.copy_within(pos..last, pos + 1);
    is_new.copy_within(pos..last, pos + 1);
    dist[pos] = d;
    ids[pos] = id;
    is_new[pos] = true;
    true
}

/// Builds approximate k-NN lists `(distance, id)` per node, ascending by
/// distance.
///
/// Lists may hold fewer than `k` entries only when the dataset has fewer
/// than `k + 1` points. The output is the same at every thread count.
///
/// # Panics
///
/// Panics if `vectors` is empty or `params.k == 0`.
pub fn nn_descent(vectors: &VectorSet, params: &NnDescentParams) -> Vec<Vec<(f32, u32)>> {
    let n = vectors.len();
    assert!(n > 0, "cannot build a graph over an empty set");
    assert!(params.k > 0, "k must be positive");
    if n == 1 {
        return vec![Vec::new()];
    }
    let k = params.k.min(n - 1);
    let mut lists =
        Lists { k, dist: vec![0.0; n * k], id: vec![0; n * k], is_new: vec![false; n * k] };
    // One run per thread for the apply phase; a range per thread suffices
    // since offers spread over every target.
    let run_rows = n.div_ceil(available_threads());

    // Random initialization: k distinct random neighbors per node.
    parallel_chunks_mut(&mut lists.runs(JOIN_BLOCK), 1, |_, runs| {
        let run = &mut runs[0];
        for u in run.rows() {
            let mut rng =
                small_rng(pathweaver_util::seed_from_parts(params.seed, "init", u as u64));
            let mut len = 0;
            while len < k {
                let v = rng.gen_range(0..n);
                if v == u {
                    continue;
                }
                let d = l2_squared(vectors.row(u), vectors.row(v));
                if run.insert(u, len, d, v as u32) {
                    len += 1;
                }
            }
        }
    });

    let prefilter = (0..n).all(|u| vectors.row(u).iter().all(|x| x.is_finite()));
    for round in 0..params.max_rounds {
        // Phase 1: per-node forward samples — up to `sample` new entries,
        // whose `new` flags are then cleared, and up to `sample` old ones.
        let samples: Vec<(Vec<usize>, Vec<u32>)> = parallel_map(n, |u| {
            let mut rng = small_rng(pathweaver_util::seed_from_parts(
                params.seed,
                "sample",
                (round * n + u) as u64,
            ));
            let s = lists.slots(u);
            let mut new_slots: Vec<usize> = s.clone().filter(|&i| lists.is_new[i]).collect();
            new_slots.shuffle(&mut rng);
            new_slots.truncate(params.sample);
            let mut olds: Vec<u32> = s.filter(|&i| !lists.is_new[i]).map(|i| lists.id[i]).collect();
            olds.shuffle(&mut rng);
            olds.truncate(params.sample);
            (new_slots, olds)
        });
        let mut fwd_new: Vec<Vec<u32>> = Vec::with_capacity(n);
        let mut fwd_old: Vec<Vec<u32>> = Vec::with_capacity(n);
        for (new_slots, olds) in samples {
            fwd_new.push(new_slots.iter().map(|&i| lists.id[i]).collect());
            for i in new_slots {
                lists.is_new[i] = false;
            }
            fwd_old.push(olds);
        }

        // Phase 2: reverse samples (who sampled me?), bounded per node.
        let mut rev_new: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut rev_old: Vec<Vec<u32>> = vec![Vec::new(); n];
        for u in 0..n {
            for &v in &fwd_new[u] {
                rev_new[v as usize].push(u as u32);
            }
            for &v in &fwd_old[u] {
                rev_old[v as usize].push(u as u32);
            }
        }
        let mut trim_rng =
            small_rng(pathweaver_util::seed_from_parts(params.seed, "rev-trim", round as u64));
        for l in rev_new.iter_mut().chain(rev_old.iter_mut()) {
            if l.len() > params.sample {
                l.shuffle(&mut trim_rng);
                l.truncate(params.sample);
            }
        }

        // Phase 3: local join, block by block. New candidates are tried
        // against both new and old candidates; every accepted insertion
        // counts as an update.
        let mut updates = 0u64;
        for start in (0..n).step_by(JOIN_BLOCK) {
            let block = start..(start + JOIN_BLOCK).min(n);
            let offers: Vec<Vec<Proposal>> = parallel_map(block.len(), |i| {
                let u = block.start + i;
                let mut news = fwd_new[u].clone();
                news.extend_from_slice(&rev_new[u]);
                news.sort_unstable();
                news.dedup();
                let mut olds = fwd_old[u].clone();
                olds.extend_from_slice(&rev_old[u]);
                olds.sort_unstable();
                olds.dedup();
                propose(vectors, &lists, prefilter, &news, &olds)
            });
            let mut runs = lists.runs(run_rows);
            parallel_chunks_mut(&mut runs, 1, |_, runs| {
                let run = &mut runs[0];
                let rows = run.rows();
                for p in offers.iter().flatten() {
                    let t = p.target as usize;
                    if rows.contains(&t) && run.insert(t, k, p.dist, p.id) {
                        run.accepted += 1;
                    }
                }
            });
            updates += runs.iter().map(|r| r.accepted).sum::<u64>();
        }

        let threshold = (params.termination_ratio * n as f64 * k as f64) as u64;
        if updates <= threshold {
            break;
        }
    }

    lists.into_vecs()
}

/// One node's local-join offers in sequential order: for each new candidate
/// `a`, its pairs with the later new candidates and then with the old ones,
/// each pair offered to `a`'s list and then to `b`'s. With `prefilter`,
/// offers `lists` certainly rejects are left out.
fn propose(
    vectors: &VectorSet,
    lists: &Lists,
    prefilter: bool,
    news: &[u32],
    olds: &[u32],
) -> Vec<Proposal> {
    let mut out = Vec::new();
    let mut rows: Vec<u32> = Vec::with_capacity(news.len() + olds.len());
    let mut dists = vec![0.0f32; news.len() + olds.len()];
    for (i, &a) in news.iter().enumerate() {
        rows.clear();
        rows.extend_from_slice(&news[i + 1..]);
        rows.extend(olds.iter().copied().filter(|&b| b != a));
        let dists = &mut dists[..rows.len()];
        batch_l2_squared(vectors, &rows, vectors.row(a as usize), dists);
        for (&b, &dist) in rows.iter().zip(dists.iter()) {
            for (target, id) in [(a, b), (b, a)] {
                if !(prefilter && lists.rejects(target as usize, dist, id)) {
                    out.push(Proposal { target, id, dist });
                }
            }
        }
    }
    out
}

/// Exact k-NN lists by brute force — the oracle used in tests and for tiny
/// sets (ghost shards) where exactness is cheap.
pub fn exact_knn_lists(vectors: &VectorSet, k: usize) -> Vec<Vec<(f32, u32)>> {
    let n = vectors.len();
    let k = k.min(n.saturating_sub(1)).max(1);
    // Chunked through the blocked SIMD kernel; pushes stay in ascending-id
    // order (skipping the self pair) so TopK tie-breaking is unchanged.
    const CHUNK: usize = 256;
    pathweaver_util::parallel_map(n, |u| {
        let mut top = TopK::new(k);
        let mut dists = [0.0f32; CHUNK];
        let mut v = 0;
        while v < n {
            let m = CHUNK.min(n - v);
            pathweaver_vector::l2_squared_rows(vectors, v, vectors.row(u), &mut dists[..m]);
            for (j, &d) in dists[..m].iter().enumerate() {
                if v + j != u {
                    top.push(d, (v + j) as u64);
                }
            }
            v += m;
        }
        top.into_sorted().into_iter().map(|(d, id)| (d, id as u32)).collect()
    })
}

/// Fraction of exact k-NN edges recovered by `approx` (graph-build quality
/// metric).
pub fn knn_recall(exact: &[Vec<(f32, u32)>], approx: &[Vec<(f32, u32)>]) -> f64 {
    assert_eq!(exact.len(), approx.len());
    let mut hit = 0usize;
    let mut total = 0usize;
    for (e, a) in exact.iter().zip(approx) {
        let truth: std::collections::HashSet<u32> = e.iter().map(|x| x.1).collect();
        total += e.len();
        hit += a.iter().filter(|x| truth.contains(&x.1)).count();
    }
    if total == 0 {
        0.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_set(n: usize, dim: usize, seed: u64) -> VectorSet {
        let mut rng = small_rng(seed);
        VectorSet::from_fn(n, dim, |r, _| {
            let center = (r % 10) as f32 * 5.0;
            center + rng.gen_range(-0.5f32..0.5)
        })
    }

    #[test]
    fn insert_keeps_sorted_dedup() {
        let (mut d, mut id, mut new) = (vec![0.0; 3], vec![0; 3], vec![false; 3]);
        assert!(insert(&mut d, &mut id, &mut new, 0, 5.0, 1));
        assert!(insert(&mut d, &mut id, &mut new, 1, 2.0, 2));
        assert!(!insert(&mut d, &mut id, &mut new, 2, 2.0, 2));
        assert!(insert(&mut d, &mut id, &mut new, 2, 9.0, 3));
        assert!(insert(&mut d, &mut id, &mut new, 3, 1.0, 4)); // Evicts id 3.
        assert!(!insert(&mut d, &mut id, &mut new, 3, 10.0, 5));
        assert_eq!(id, vec![4, 2, 1]);
        assert_eq!(d, vec![1.0, 2.0, 5.0]);
        assert!(new.iter().all(|&f| f));
    }

    #[test]
    fn prefilter_never_drops_an_accepted_insert() {
        // Random offer streams against a few full lists. As in the join,
        // an id offered to a list always carries the same distance (a fixed
        // random table), drawn from a small set so ties are everywhere; ids
        // come from a small range, so held and evicted ids are re-offered.
        // The sequential path applies every offer; the filtered path drops
        // the offers `rejects` names against the state at the start of each
        // block, then applies the rest in order. Lists, flags and accepted
        // counts must agree, and the filter must actually drop offers.
        let (rows, k, ids) = (3usize, 5usize, 16u32);
        let mut dropped = 0usize;
        let mut evicted_reoffers = 0usize;
        for case in 0..300u64 {
            let mut rng = small_rng(case);
            let table: Vec<f32> =
                (0..rows * ids as usize).map(|_| rng.gen_range(0..10) as f32).collect();
            let dist_of = |t: usize, id: u32| table[t * ids as usize + id as usize];
            let mut start = Lists {
                k,
                dist: vec![0.0; rows * k],
                id: vec![0; rows * k],
                is_new: vec![false; rows * k],
            };
            for u in 0..rows {
                let mut len = 0;
                while len < k {
                    let id = rng.gen_range(0..ids / 2);
                    if start.runs(rows)[0].insert(u, len, dist_of(u, id), id) {
                        len += 1;
                    }
                }
            }
            let stream: Vec<Proposal> = (0..60)
                .map(|_| {
                    let (target, id) = (rng.gen_range(0..rows as u32), rng.gen_range(0..ids));
                    Proposal { target, id, dist: dist_of(target as usize, id) }
                })
                .collect();
            let apply = |lists: &mut Lists, offers: &[Proposal]| -> u64 {
                let mut runs = lists.runs(rows);
                for p in offers {
                    if runs[0].insert(p.target as usize, k, p.dist, p.id) {
                        runs[0].accepted += 1;
                    }
                }
                runs[0].accepted
            };

            let mut seq = Lists {
                k,
                dist: start.dist.clone(),
                id: start.id.clone(),
                is_new: start.is_new.clone(),
            };
            let seq_accepted = apply(&mut seq, &stream);

            let mut filtered = start;
            let mut accepted = 0;
            let mut ever_held: Vec<Vec<u32>> =
                (0..rows).map(|u| filtered.id[filtered.slots(u)].to_vec()).collect();
            let mut at = 0;
            while at < stream.len() {
                let block = &stream[at..(at + rng.gen_range(1..20)).min(stream.len())];
                at += block.len();
                let kept: Vec<Proposal> = block
                    .iter()
                    .copied()
                    .filter(|p| !filtered.rejects(p.target as usize, p.dist, p.id))
                    .collect();
                dropped += block.len() - kept.len();
                for p in block {
                    let t = p.target as usize;
                    if ever_held[t].contains(&p.id)
                        && !filtered.id[filtered.slots(t)].contains(&p.id)
                    {
                        evicted_reoffers += 1;
                    }
                }
                accepted += apply(&mut filtered, &kept);
                for (u, held) in ever_held.iter_mut().enumerate() {
                    held.extend_from_slice(&filtered.id[filtered.slots(u)]);
                }
            }
            assert_eq!(accepted, seq_accepted, "case {case}: accepted counts differ");
            assert_eq!(filtered.id, seq.id, "case {case}: ids differ");
            assert_eq!(filtered.is_new, seq.is_new, "case {case}: flags differ");
            let bits = |l: &Lists| l.dist.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&filtered), bits(&seq), "case {case}: distances differ");
        }
        assert!(dropped > 1000, "the filter dropped only {dropped} offers");
        assert!(evicted_reoffers > 100, "only {evicted_reoffers} offers re-offered an evicted id");
    }

    /// The sequential NN-descent the ordered-proposal build must reproduce:
    /// every offer goes straight into a `Vec` list, in join order.
    fn nn_descent_sequential(
        vectors: &VectorSet,
        params: &NnDescentParams,
    ) -> Vec<Vec<(f32, u32)>> {
        fn offer(list: &mut Vec<(f32, u32, bool)>, k: usize, d: f32, id: u32) -> bool {
            if list.len() == k && d >= list[k - 1].0 || list.iter().any(|e| e.1 == id) {
                return false;
            }
            let pos = list.partition_point(|e| e.0 <= d);
            list.insert(pos, (d, id, true));
            list.truncate(k);
            true
        }
        let n = vectors.len();
        let k = params.k.min(n - 1);
        let seed = |label, i: usize| {
            small_rng(pathweaver_util::seed_from_parts(params.seed, label, i as u64))
        };
        let mut lists: Vec<Vec<(f32, u32, bool)>> = (0..n)
            .map(|u| {
                let (mut rng, mut list) = (seed("init", u), Vec::new());
                while list.len() < k {
                    let v = rng.gen_range(0..n);
                    if v != u {
                        offer(&mut list, k, l2_squared(vectors.row(u), vectors.row(v)), v as u32);
                    }
                }
                list
            })
            .collect();
        for round in 0..params.max_rounds {
            let (mut fwd_new, mut fwd_old) = (Vec::new(), Vec::new());
            for (u, list) in lists.iter_mut().enumerate() {
                let mut rng = seed("sample", round * n + u);
                let mut slots: Vec<usize> = (0..k).filter(|&i| list[i].2).collect();
                slots.shuffle(&mut rng);
                slots.truncate(params.sample);
                let mut olds: Vec<u32> = list.iter().filter(|e| !e.2).map(|e| e.1).collect();
                olds.shuffle(&mut rng);
                olds.truncate(params.sample);
                fwd_new.push(slots.iter().map(|&i| list[i].1).collect::<Vec<u32>>());
                for i in slots {
                    list[i].2 = false;
                }
                fwd_old.push(olds);
            }
            let (mut rev_new, mut rev_old) = (vec![Vec::new(); n], vec![Vec::new(); n]);
            for u in 0..n {
                fwd_new[u].iter().for_each(|&v| rev_new[v as usize].push(u as u32));
                fwd_old[u].iter().for_each(|&v| rev_old[v as usize].push(u as u32));
            }
            let mut trim = seed("rev-trim", round);
            for l in rev_new.iter_mut().chain(rev_old.iter_mut()) {
                if l.len() > params.sample {
                    l.shuffle(&mut trim);
                    l.truncate(params.sample);
                }
            }
            let mut updates = 0u64;
            for u in 0..n {
                let merged = |a: &[u32], b: &[u32]| {
                    let mut m = [a, b].concat();
                    m.sort_unstable();
                    m.dedup();
                    m
                };
                let news = merged(&fwd_new[u], &rev_new[u]);
                let olds = merged(&fwd_old[u], &rev_old[u]);
                for (i, &a) in news.iter().enumerate() {
                    for &b in news[i + 1..].iter().chain(olds.iter().filter(|&&b| b != a)) {
                        let d = l2_squared(vectors.row(a as usize), vectors.row(b as usize));
                        updates += u64::from(offer(&mut lists[a as usize], k, d, b));
                        updates += u64::from(offer(&mut lists[b as usize], k, d, a));
                    }
                }
            }
            if updates <= (params.termination_ratio * n as f64 * k as f64) as u64 {
                break;
            }
        }
        lists.into_iter().map(|l| l.into_iter().map(|(d, id, _)| (d, id)).collect()).collect()
    }

    fn bits(lists: &[Vec<(f32, u32)>]) -> Vec<Vec<(u32, u32)>> {
        lists.iter().map(|l| l.iter().map(|&(d, id)| (d.to_bits(), id)).collect()).collect()
    }

    #[test]
    fn matches_the_sequential_join_bit_for_bit() {
        // Blocks of more than one JOIN_BLOCK, and a set with ties (integer
        // grid coordinates) where insertion order decides evictions.
        let params =
            NnDescentParams { k: 10, max_rounds: 6, sample: 6, termination_ratio: 0.0, seed: 9 };
        let clustered = clustered_set(1100, 8, 11);
        let mut rng = small_rng(4);
        let grid = VectorSet::from_fn(700, 3, |_, _| rng.gen_range(0..6) as f32);
        for set in [&clustered, &grid] {
            assert_eq!(bits(&nn_descent(set, &params)), bits(&nn_descent_sequential(set, &params)));
        }
    }

    #[test]
    fn non_finite_components_take_the_unfiltered_path() {
        // NaN and infinite coordinates give NaN distances, which break the
        // filter's ordering argument; such sets must still match the
        // sequential join exactly.
        let params =
            NnDescentParams { k: 6, max_rounds: 4, sample: 5, termination_ratio: 0.0, seed: 3 };
        let mut rng = small_rng(8);
        let set = VectorSet::from_fn(300, 4, |r, c| match (r % 37, c) {
            (0, 0) => f32::NAN,
            (5, 1) => f32::INFINITY,
            (9, 2) => f32::NEG_INFINITY,
            _ => rng.gen_range(-1.0f32..1.0),
        });
        assert_eq!(bits(&nn_descent(&set, &params)), bits(&nn_descent_sequential(&set, &params)));
    }

    #[test]
    fn single_point_has_an_empty_list() {
        let set = VectorSet::from_fn(1, 3, |_, c| c as f32);
        assert_eq!(nn_descent(&set, &NnDescentParams::default()), vec![Vec::new()]);
    }

    #[test]
    fn nn_descent_recovers_most_exact_edges() {
        let set = clustered_set(600, 12, 42);
        let params =
            NnDescentParams { k: 8, max_rounds: 10, sample: 8, termination_ratio: 0.001, seed: 1 };
        let approx = nn_descent(&set, &params);
        let exact = exact_knn_lists(&set, 8);
        let recall = knn_recall(&exact, &approx);
        assert!(recall > 0.90, "NN-descent recall too low: {recall}");
    }

    #[test]
    fn lists_have_k_entries_and_no_self_loops() {
        let set = clustered_set(200, 8, 7);
        let params = NnDescentParams { k: 6, ..Default::default() };
        let lists = nn_descent(&set, &params);
        for (u, l) in lists.iter().enumerate() {
            assert_eq!(l.len(), 6, "node {u}");
            assert!(l.iter().all(|&(_, id)| id as usize != u), "self loop at {u}");
            assert!(l.windows(2).all(|w| w[0].0 <= w[1].0), "unsorted at {u}");
            let ids: std::collections::HashSet<u32> = l.iter().map(|x| x.1).collect();
            assert_eq!(ids.len(), 6, "duplicates at {u}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let set = clustered_set(150, 6, 3);
        let params = NnDescentParams { k: 4, ..Default::default() };
        assert_eq!(nn_descent(&set, &params), nn_descent(&set, &params));
    }

    #[test]
    fn tiny_set_caps_k() {
        let set = clustered_set(4, 3, 9);
        let params = NnDescentParams { k: 10, ..Default::default() };
        let lists = nn_descent(&set, &params);
        for l in &lists {
            assert_eq!(l.len(), 3);
        }
    }

    #[test]
    fn exact_knn_matches_ground_truth_semantics() {
        let set = VectorSet::from_fn(20, 2, |r, _| r as f32);
        let lists = exact_knn_lists(&set, 2);
        // Node 5's nearest are 4 and 6 (distance 2.0 in squared-L2, both dims).
        let ids: Vec<u32> = lists[5].iter().map(|x| x.1).collect();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&4) && ids.contains(&6));
    }
}
