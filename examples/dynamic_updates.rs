//! Dynamic updates (paper §6.2): live insertions and logical deletions on a
//! built multi-shard index, through the one writer (`ConcurrentIndex`).
//! Every mutation publishes a new snapshot; searches read a pinned one.
//!
//! ```text
//! cargo run --release --example dynamic_updates
//! ```

use pathweaver::prelude::*;
use pathweaver::vector::VectorSet;

fn main() {
    let profile = DatasetProfile::deep10m_like();
    let workload = profile.workload(Scale::Test, 8, 10, 5);
    let built = PathWeaverIndex::build(&workload.base, &PathWeaverConfig::test_scale(2))
        .expect("index fits");
    let index = ConcurrentIndex::new(built);
    let params = SearchParams::default();

    // Insert a burst of new points near existing ones.
    println!("inserting 25 vectors...");
    let mut inserted = Vec::new();
    for i in 0..25 {
        let base_row = workload.base.row(i * 7 % workload.base.len());
        let novel: Vec<f32> = base_row.iter().map(|x| x * 1.002 + 0.001).collect();
        inserted.push((index.insert(&novel).expect("in-memory insert"), novel));
    }
    let snap = index.pin();
    let (vectors, shards) = (snap.index().num_vectors, snap.index().num_devices());
    println!("index now holds {vectors} vectors across {shards} shards");

    // Every inserted vector must be findable as its own nearest neighbor.
    let mut queries = VectorSet::empty(workload.base.dim());
    for (_, v) in &inserted {
        queries.push(v);
    }
    let out = snap.index().search_pipelined(&queries, &params);
    let found =
        inserted.iter().enumerate().filter(|(i, (id, _))| out.results[*i].contains(id)).count();
    println!("{found}/{} inserted vectors found by search", inserted.len());

    // Tombstone half of them; they must vanish from results while the rest
    // stay findable.
    println!("\ndeleting 12 of the inserted vectors (logical tombstones)...");
    for (id, _) in inserted.iter().take(12) {
        assert_eq!(index.delete_outcome(*id).expect("in-memory delete"), DeleteOutcome::Applied);
    }
    let snap = index.pin();
    println!("live vectors: {}", snap.index().live_vectors());
    let out = snap.index().search_pipelined(&queries, &params);
    let mut ghosts = 0;
    let mut survivors = 0;
    for (i, (id, _)) in inserted.iter().enumerate() {
        let present = out.results[i].contains(id);
        if i < 12 {
            ghosts += usize::from(present);
        } else {
            survivors += usize::from(present);
        }
    }
    println!("deleted vectors still returned: {ghosts} (want 0)");
    assert_eq!(ghosts, 0, "a tombstoned id must never be returned");
    println!("surviving vectors still found: {survivors}/13");
}
