//! Reference-model test of the one writer: seeded random operations drive
//! `ConcurrentIndex` (in memory and durable) beside a plain model (live
//! `(id, vector)` pairs, deleted ids, id high-water mark, unfolded backlog).
//! After every step the delete outcomes, counts, live id set and shard
//! structures match the model exactly; searches return `k` live ids with
//! recall@10 at or above [`RECALL_FLOOR`]; pinned snapshots never move; and
//! a reopened store searches bitwise equal to the last pin before the drop.

mod common;

use common::TempStore;
use pathweaver::core::DeleteOutcome;
use pathweaver::prelude::*;
use pathweaver::util::small_rng;
use pathweaver::vector::{l2_squared, VectorSet};
use rand::Rng;

/// Operations per run.
const STEPS: usize = 120;

/// Recall floor over the live set, chosen from measurement: over 16 runs
/// of this sequence (seeds 1-8 in memory, 11-18 durable; 1936 checks), the
/// lowest mean recall@10 was 0.958 and most runs never left 1.0. The floor
/// leaves room for that spread; an insert that is not wired into the graph
/// or a rebuild that loses survivors falls far below it.
const RECALL_FLOOR: f64 = 0.9;

/// What the index must contain.
struct Model {
    live: Vec<(u32, Vec<f32>)>,
    deleted: Vec<u32>,
    allocated: u32,
    backlog: u64,
}

/// Search hits as bit patterns, for exact comparison.
type Hits = Vec<Vec<(u32, u32)>>;

/// One writer under test, in memory or over a store directory.
struct Harness<'a> {
    ci: ConcurrentIndex,
    dir: Option<&'a TempStore>,
    model: Model,
    queries: VectorSet,
    params: SearchParams,
}

impl Harness<'_> {
    fn insert(&mut self, vector: Vec<f32>) {
        let id = self.ci.insert(&vector).unwrap();
        assert_eq!(id, self.model.allocated, "ids are allocated from the high-water mark");
        self.model.allocated += 1;
        self.model.backlog += 1;
        self.model.live.push((id, vector));
    }

    fn delete(&mut self, id: u32) {
        let m = &mut self.model;
        let want = if m.live.iter().any(|&(l, _)| l == id) {
            DeleteOutcome::Applied
        } else if id < m.allocated {
            DeleteOutcome::AlreadyDeleted
        } else {
            DeleteOutcome::Unknown
        };
        assert_eq!(self.ci.delete_outcome(id).unwrap(), want, "delete {id}");
        if want == DeleteOutcome::Applied {
            m.live.retain(|&(l, _)| l != id);
            m.deleted.push(id);
            m.backlog += 1;
        }
    }

    /// A vector close to a random query, so inserts show up in results.
    fn novel(&self, rng: &mut impl Rng) -> Vec<f32> {
        let q = self.queries.row(rng.gen_range(0..self.queries.len()));
        q.iter().map(|x| x + rng.gen_range(-0.05..0.05f32)).collect()
    }

    fn search(&self, snap: &IndexSnapshot) -> Hits {
        let out = snap.index().search_pipelined(&self.queries, &self.params);
        out.hits.iter().map(|h| h.iter().map(|&(d, id)| (d.to_bits(), id)).collect()).collect()
    }

    /// Checks the latest published snapshot against the model; returns
    /// its mean recall@10.
    fn check(&self) -> f64 {
        let snap = self.ci.pin();
        let index = snap.index();
        assert_eq!(index.num_vectors, self.model.allocated as usize, "num_vectors");
        assert_eq!(index.live_vectors(), self.model.live.len(), "live_vectors");
        assert_eq!(self.ci.merge_backlog(), self.model.backlog, "merge_backlog");
        let n = index.shards.len();
        for (s, shard) in index.shards.iter().enumerate() {
            assert_eq!(shard.graph.num_nodes(), shard.len(), "shard {s} graph");
            assert_eq!(shard.global_ids.len(), shard.len(), "shard {s} ids");
            assert!(shard.deleted.capacity() >= shard.len(), "shard {s} tombstones");
            assert_eq!(shard.quantized.as_ref().map(|q| q.len()), Some(shard.len()));
            let table = shard.intershard.as_ref().expect("multi-device tables");
            let next = index.shards[(s + 1) % n].len();
            assert_eq!(table.len(), shard.len(), "shard {s} inter-shard table");
            assert!((0..table.len() as u32).all(|u| (table.target(u) as usize) < next));
        }
        let mut all: Vec<(u32, bool)> = index
            .shards
            .iter()
            .flat_map(|s| s.global_ids.iter().enumerate().map(|(l, &g)| (g, s.deleted.contains(l))))
            .collect();
        all.sort_unstable();
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "duplicate global id");
        let live: Vec<u32> = all.iter().filter(|&&(_, dead)| !dead).map(|&(g, _)| g).collect();
        let mut model_live: Vec<u32> = self.model.live.iter().map(|&(id, _)| id).collect();
        model_live.sort_unstable();
        assert_eq!(live, model_live, "live id set");

        let out = index.search_pipelined(&self.queries, &self.params);
        let k = self.params.k;
        let mut recall = 0.0;
        for (q, hits) in out.results.iter().enumerate() {
            assert_eq!(hits.len(), k, "query {q} got {} results", hits.len());
            assert!(hits.iter().all(|id| live.binary_search(id).is_ok()), "non-live id returned");
            let query = self.queries.row(q);
            let mut exact: Vec<(f32, u32)> =
                self.model.live.iter().map(|(id, v)| (l2_squared(query, v), *id)).collect();
            exact.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let found = exact[..k].iter().filter(|(_, id)| hits.contains(id)).count();
            recall += found as f64 / k as f64;
        }
        recall / out.results.len() as f64
    }
}

/// Runs one seeded operation sequence, checking the model after every
/// step and, at the end, that the sequence rebuilt a shard and (durable)
/// reopened the store.
fn run(seed: u64, durable: bool) {
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 12, 10, seed);
    let index = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
    let live = (0..w.base.len()).map(|i| (i as u32, w.base.row(i).to_vec())).collect();
    let model = Model { live, deleted: Vec::new(), allocated: w.base.len() as u32, backlog: 0 };
    let store = durable.then(|| TempStore::new(&format!("model-{seed}")));
    let ci = match &store {
        Some(dir) => ConcurrentIndex::durable(DurableIndex::create(index, dir.path()).unwrap()),
        None => ConcurrentIndex::new(index),
    };
    let (queries, params) = (w.queries, SearchParams::default());
    let mut h = Harness { ci, dir: store.as_ref(), model, queries, params };
    assert_eq!(h.ci.pin().version(), 0);
    let mut rng = small_rng(seed);
    let (mut min_recall, mut rebuilds, mut reopens) = (h.check(), 0, 0);

    for _ in 0..STEPS {
        match rng.gen_range(0..100) {
            0..=24 => {
                let v = h.novel(&mut rng);
                h.insert(v);
            }
            // Runs of live deletes make rebuilds reachable.
            25..=54 => {
                for _ in 0..rng.gen_range(1..30) {
                    let id = h.model.live[rng.gen_range(0..h.model.live.len())].0;
                    h.delete(id);
                }
            }
            // Delete twice (possibly an id a rebuild compacted away).
            55..=61 => {
                if !h.model.deleted.is_empty() {
                    let id = h.model.deleted[rng.gen_range(0..h.model.deleted.len())];
                    h.delete(id);
                }
            }
            62..=67 => {
                let unknown = h.model.allocated + rng.gen_range(0..1000);
                h.delete(unknown);
            }
            68..=77 => {
                let threshold = [0.05, 0.1, 0.3, 1.0][rng.gen_range(0..4)];
                let rebuilt = h.ci.maintain(threshold).unwrap();
                if rebuilt > 0 {
                    h.model.backlog = 0; // An installed rebuild folds.
                }
                rebuilds += rebuilt;
            }
            78..=83 => {
                h.ci.compact().unwrap();
                h.model.backlog = 0;
            }
            // Drop the writer and recover the store from disk.
            84..=89 => {
                if let Some(dir) = h.dir {
                    let before = h.search(&h.ci.pin());
                    drop(h.ci);
                    h.ci = ConcurrentIndex::durable(DurableIndex::open(dir.path()).unwrap());
                    h.model.backlog = 0;
                    assert_eq!(
                        h.search(&h.ci.pin()),
                        before,
                        "reopened store searches differently"
                    );
                    reopens += 1;
                }
            }
            // Pin, then mutate: the pinned view must not move.
            _ => {
                let snap = h.ci.pin();
                let (pinned, live) = (h.search(&snap), snap.index().live_vectors());
                let v = h.novel(&mut rng);
                h.insert(v);
                let id = h.model.live[rng.gen_range(0..h.model.live.len())].0;
                h.delete(id);
                assert!(h.ci.latest_version() > snap.version());
                assert_eq!(snap.index().live_vectors(), live, "pinned live count moved");
                assert_eq!(h.search(&snap), pinned, "pinned snapshot moved");
            }
        }
        min_recall = min_recall.min(h.check());
    }
    assert!(min_recall >= RECALL_FLOOR, "seed {seed}: recall@10 {min_recall} < {RECALL_FLOOR}");
    assert!(rebuilds > 0, "seed {seed}: no maintenance pass rebuilt a shard");
    assert!(!durable || reopens > 0, "seed {seed}: the store was never reopened");
}

#[test]
fn in_memory_writer_matches_the_model() {
    for seed in 1..=3 {
        run(seed, false);
    }
}

#[test]
fn durable_writer_matches_the_model() {
    for seed in 11..=13 {
        run(seed, true);
    }
}
