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
    let mut idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
    let dir = TempStore::new("lifecycle");

    // Save the fresh index, reload, mutate the reloaded copy.
    save_index(&idx, dir.path()).unwrap();
    let mut reloaded = load_index(dir.path()).unwrap();
    let novel: Vec<f32> = w.base.row(3).iter().map(|x| x + 0.005).collect();
    let new_id = reloaded.insert(&novel);
    assert_eq!(reloaded.delete_outcome(w.base.len() as u32 / 2), DeleteOutcome::Applied);

    // Save the mutated index over the first snapshot and reload again.
    save_index(&reloaded, dir.path()).unwrap();
    let third = load_index(dir.path()).unwrap();
    assert_eq!(third.num_vectors, reloaded.num_vectors);
    assert_eq!(third.live_vectors(), reloaded.live_vectors());

    let mut queries = pathweaver::vector::VectorSet::empty(third.dim());
    queries.push(&novel);
    let out = third.search_pipelined(&queries, &SearchParams::default());
    assert!(out.results[0].contains(&new_id), "insert lost across save/load");

    // The original in-memory index is untouched by all of this.
    let out0 = idx.search_pipelined(&w.queries, &SearchParams::default());
    assert_eq!(out0.results.len(), w.queries.len());
    idx.insert(&novel); // Still mutable and consistent.
}

#[test]
fn maintain_then_save_load_searches_identically() {
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 10, 92);
    let mut idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
    let victims: Vec<u32> =
        idx.shards[0].global_ids.iter().copied().step_by(2).take(idx.shards[0].len() / 2).collect();
    for &g in &victims {
        idx.delete_outcome(g);
    }
    assert_eq!(idx.maintain(0.3).unwrap(), 1);
    let dir = TempStore::new("maintain");
    save_index(&idx, dir.path()).unwrap();
    let loaded = load_index(dir.path()).unwrap();
    let params = SearchParams::default();
    let a = idx.search_pipelined(&w.queries, &params);
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
