//! Persistence integration: graphs and datasets round-trip through the
//! filesystem formats and experiment records reload intact.

mod common;

use common::TempStore;
use pathweaver::core::report::ExperimentRecord;
use pathweaver::core::store::segment::{read_segment, write_segment};
use pathweaver::datasets::io::{read_fvecs_file, read_ivecs, write_fvecs, write_ivecs};
use pathweaver::prelude::*;

#[test]
fn built_graph_roundtrips_through_disk() {
    // Shard and ghost graphs reopen from the segment exactly as built.
    let w = DatasetProfile::sift_like().workload(Scale::Test, 4, 5, 51);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
    let dir = TempStore::new("graph");
    let path = dir.join("segment.pwseg");
    write_segment(&idx, &path).unwrap();
    let back = read_segment(&path).unwrap();
    for (a, b) in idx.shards.iter().zip(&back.shards) {
        assert_eq!(b.graph, a.graph);
        let ghost_graph = |s: &ShardIndex| s.ghost.as_ref().map(|g| g.graph.clone());
        assert!(ghost_graph(a).is_some());
        assert_eq!(ghost_graph(b), ghost_graph(a));
    }
}

#[test]
fn fvecs_file_feeds_the_index_builder() {
    // Write a synthetic corpus as fvecs, read it back as a real corpus
    // would be, and index it.
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 6, 5, 52);
    let dir = TempStore::new("fvecs");
    let path = dir.join("base.fvecs");
    write_fvecs(std::fs::File::create(&path).unwrap(), &w.base).unwrap();
    let loaded = read_fvecs_file(&path, None).unwrap();
    assert_eq!(loaded, w.base);

    let idx = PathWeaverIndex::build(&loaded, &PathWeaverConfig::test_scale(2)).unwrap();
    let out = idx.search_pipelined(&w.queries, &SearchParams::default());
    let recall = recall_batch(&w.ground_truth, &out.results, 5);
    assert!(recall > 0.8, "recall {recall}");
}

#[test]
fn ground_truth_roundtrips_as_ivecs() {
    let w = DatasetProfile::sift_like().workload(Scale::Test, 8, 10, 53);
    let records: Vec<Vec<u32>> = (0..8).map(|q| w.ground_truth.neighbors(q).to_vec()).collect();
    let mut buf = Vec::new();
    write_ivecs(&mut buf, &records).unwrap();
    let back = read_ivecs(&buf[..], None).unwrap();
    assert_eq!(back, records);
}

#[test]
fn partial_fvecs_read_respects_limit() {
    let w = DatasetProfile::sift_like().workload(Scale::Test, 4, 5, 54);
    let dir = TempStore::new("limit");
    let path = dir.join("base.fvecs");
    write_fvecs(std::fs::File::create(&path).unwrap(), &w.base).unwrap();
    let firsthalf = read_fvecs_file(&path, Some(w.base.len() / 2)).unwrap();
    assert_eq!(firsthalf.len(), w.base.len() / 2);
    assert_eq!(firsthalf.row(0), w.base.row(0));
}

#[test]
fn experiment_records_round_trip() {
    let dir = TempStore::new("record");
    let mut rec = ExperimentRecord::new("fig0", "integration smoke");
    rec.note("simulated clock");
    rec.push_row(&serde_json::json!({"dataset": "sift-like", "qps": 123.0}));
    let path = rec.save(dir.path()).unwrap();
    let back = ExperimentRecord::load(&path).unwrap();
    assert_eq!(back.id, rec.id);
    assert_eq!(back.rows.len(), 1);
}
