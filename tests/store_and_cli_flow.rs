//! Persistence-centric integration flows: save/load through the index
//! store combined with dynamic updates and continued searching — the
//! lifecycle a deployment would actually run.

mod common;

use common::TempStore;
use pathweaver::core::store::{load_index, save_index, SEGMENT_FILE};
use pathweaver::prelude::*;

#[test]
fn save_update_save_load_keeps_working() {
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 10, 91);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
    let dir = TempStore::new("lifecycle");

    // Save the fresh index, reopen it for writing, mutate the reopened copy.
    save_index(&idx, dir.path()).unwrap();
    let reloaded = ConcurrentIndex::durable(DurableIndex::open(dir.path()).unwrap());
    let novel: Vec<f32> = w.base.row(3).iter().map(|x| x + 0.005).collect();
    let new_id = reloaded.insert(&novel).unwrap();
    assert_eq!(reloaded.delete_outcome(w.base.len() as u32 / 2).unwrap(), DeleteOutcome::Applied);

    // Fold the mutations over the first segment and reload again.
    reloaded.compact().unwrap();
    let mutated = reloaded.pin();
    let third = load_index(dir.path()).unwrap();
    assert_eq!(third.num_vectors, mutated.index().num_vectors);
    assert_eq!(third.live_vectors(), mutated.index().live_vectors());

    let mut queries = pathweaver::vector::VectorSet::empty(third.dim());
    queries.push(&novel);
    let out = third.search_pipelined(&queries, &SearchParams::default());
    assert!(out.results[0].contains(&new_id), "insert lost across save/load");

    // The original in-memory index is untouched by all of this.
    let out0 = idx.search_pipelined(&w.queries, &SearchParams::default());
    assert_eq!(out0.results.len(), w.queries.len());
    ConcurrentIndex::new(idx).insert(&novel).unwrap(); // Still mutable and consistent.
}

#[test]
fn maintain_then_save_load_searches_identically() {
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 10, 92);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
    let victims: Vec<u32> =
        idx.shards[0].global_ids.iter().copied().step_by(2).take(idx.shards[0].len() / 2).collect();
    let dir = TempStore::new("maintain");
    let ci = ConcurrentIndex::durable(DurableIndex::create(idx, dir.path()).unwrap());
    for &g in &victims {
        ci.delete_outcome(g).unwrap();
    }
    // A durable maintenance pass folds the rebuilt shard into the segment.
    assert_eq!(ci.maintain(0.3).unwrap(), 1);
    let loaded = load_index(dir.path()).unwrap();
    let params = SearchParams::default();
    let a = ci.pin().index().search_pipelined(&w.queries, &params);
    let b = loaded.search_pipelined(&w.queries, &params);
    assert_eq!(a.results, b.results);
    for hits in &b.results {
        for id in hits {
            assert!(!victims.contains(id));
        }
    }
}

#[test]
fn single_device_index_roundtrips_without_intershard() {
    let w = DatasetProfile::sift_like().workload(Scale::Test, 4, 5, 93);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(1)).unwrap();
    let dir = TempStore::new("single");
    save_index(&idx, dir.path()).unwrap();
    assert!(dir.join(SEGMENT_FILE).exists(), "save_index writes the segment format");
    let loaded = load_index(dir.path()).unwrap();
    assert!(loaded.shards[0].intershard.is_none());
    assert!(loaded.shards[0].ghost.is_some());
    let out = loaded.search_pipelined(&w.queries, &SearchParams::default());
    assert_eq!(out.results.len(), 4);
}
