//! Copy granularity of the one writer. A shard's payload (vectors, graph,
//! direction codes, int8 codes, ghost) is shared by every version of the
//! shard until an insert copies it: a delete copies only the tombstones,
//! an insert copies the one target shard's payload once, and a maintenance
//! install leaves the predecessor's payload shared. `dyn.cow_bytes` counts
//! the payload bytes the writer copied, and turning it on changes nothing
//! the writer or a reader sees.

mod common;

use common::TempStore;
use pathweaver::core::DeleteOutcome;
use pathweaver::obs;
use pathweaver::prelude::*;
use pathweaver::vector::VectorSet;
use std::sync::{Arc, Mutex, MutexGuard};

/// The obs flag and registry are process-global: the tests here toggle the
/// one and read counters from the other, so they run one at a time.
static OBS: Mutex<()> = Mutex::new(());

fn obs_lock(on: bool) -> MutexGuard<'static, ()> {
    let guard = OBS.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(on);
    obs::reset();
    guard
}

fn built(seed: u64) -> (Workload, PathWeaverIndex) {
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 6, 5, seed);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
    for shard in &idx.shards {
        assert!(shard.dir_table.is_some() && shard.quantized.is_some() && shard.ghost.is_some());
    }
    (w, idx)
}

/// The address of every payload buffer of a shard: ids, vector rows,
/// adjacency, direction codes, int8 codes and the ghost's three buffers.
fn payload_ptrs(shard: &ShardIndex) -> Vec<usize> {
    let ghost = shard.ghost.as_ref().unwrap();
    vec![
        shard.global_ids.as_ptr() as usize,
        shard.vectors.row(0).as_ptr() as usize,
        shard.graph.neighbors(0).as_ptr() as usize,
        shard.dir_table.as_ref().unwrap().node_codes(0).as_ptr() as usize,
        shard.quantized.as_ref().unwrap().row(0).as_ptr() as usize,
        ghost.to_original.as_ptr() as usize,
        ghost.vectors.row(0).as_ptr() as usize,
        ghost.graph.neighbors(0).as_ptr() as usize,
    ]
}

/// Every other id of a shard, 40 % of its size: enough for a rebuild at a
/// 0.3 threshold.
fn every_other(shard: &ShardIndex) -> Vec<u32> {
    shard.global_ids.iter().step_by(2).copied().take(shard.len() * 2 / 5).collect()
}

fn payload_bytes(shard: &ShardIndex) -> u64 {
    shard.payload().resident_bytes().iter().map(|&(_, b)| b).sum()
}

fn cow_bytes() -> u64 {
    obs::registry().counter("dyn.cow_bytes").get()
}

/// Search hits as bit patterns, for exact comparison.
type Hits = Vec<Vec<(u32, u32)>>;

/// A snapshot's search hits.
fn hits(snap: &IndexSnapshot, queries: &VectorSet) -> Hits {
    let out = snap.index().search_pipelined(queries, &SearchParams::default());
    out.hits.iter().map(|h| h.iter().map(|&(d, id)| (d.to_bits(), id)).collect()).collect()
}

#[test]
fn delete_copies_tombstones_not_payload() {
    let _obs = obs_lock(true);
    let (w, idx) = built(41);
    let ci = ConcurrentIndex::new(idx);
    let pinned = ci.pin();
    let before = hits(&pinned, &w.queries);
    let victim = pinned.index().shards[0].global_ids[5];

    assert_eq!(ci.delete_outcome(victim).unwrap(), DeleteOutcome::Applied);
    assert_eq!(cow_bytes(), 0, "a delete copied payload bytes");
    let after = ci.pin();
    let (old, new) = (&pinned.index().shards, &after.index().shards);
    assert!(!Arc::ptr_eq(&old[0], &new[0]), "the hit shard's tombstones were not copied");
    assert!(new[0].deleted.contains(5) && !old[0].deleted.contains(5));
    assert!(Arc::ptr_eq(old[0].payload(), new[0].payload()), "the hit shard's payload was copied");
    assert_eq!(payload_ptrs(&old[0]), payload_ptrs(&new[0]));
    assert!(Arc::ptr_eq(&old[1], &new[1]), "the untouched shard was copied");
    assert_eq!(hits(&pinned, &w.queries), before, "the pinned snapshot moved");
}

#[test]
fn insert_copies_one_payload_once() {
    let _obs = obs_lock(true);
    let (w, idx) = built(43);
    let ci = ConcurrentIndex::new(idx);
    for round in 0..2 {
        let pinned = ci.pin();
        let sizes: Vec<usize> = pinned.index().shards.iter().map(|s| s.len()).collect();
        let target = usize::from(sizes[1] < sizes[0]);
        let other = 1 - target;
        let before = hits(&pinned, &w.queries);
        let copied = cow_bytes();
        let id = ci.insert(w.base.row(round)).unwrap();
        let after = ci.pin();
        let (old, new) = (&pinned.index().shards, &after.index().shards);
        assert_eq!(new[target].global_ids.last(), Some(&id), "inserts go to the smallest shard");
        assert_eq!(
            cow_bytes() - copied,
            payload_bytes(&old[target]),
            "an insert copies the target shard's payload exactly once"
        );
        assert!(!Arc::ptr_eq(old[target].payload(), new[target].payload()));
        assert!(Arc::ptr_eq(&old[other], &new[other]), "the other shard was copied");
        assert_eq!(payload_ptrs(&old[other]), payload_ptrs(&new[other]));
        assert_eq!(hits(&pinned, &w.queries), before, "the pinned snapshot moved");
    }
}

#[test]
fn maintain_leaves_the_predecessor_payload_shared() {
    let _obs = obs_lock(true);
    let (w, idx) = built(47);
    let victims = every_other(&idx.shards[0]);
    let ci = ConcurrentIndex::new(idx);
    for &g in &victims {
        assert_eq!(ci.delete_outcome(g).unwrap(), DeleteOutcome::Applied);
    }
    let pinned = ci.pin();
    let before = hits(&pinned, &w.queries);
    assert_eq!(ci.maintain(0.3).unwrap(), 1);
    assert_eq!(cow_bytes(), 0, "maintenance copied payload bytes");
    let after = ci.pin();
    let (old, new) = (&pinned.index().shards, &after.index().shards);
    // With two shards, shard 1 is shard 0's ring predecessor: its `I(u)`
    // into the rebuilt shard is replaced, its payload is not.
    assert!(!Arc::ptr_eq(old[0].payload(), new[0].payload()), "shard 0 was not rebuilt");
    assert_ne!(old[1].intershard, new[1].intershard, "the predecessor's I(u) was not swapped");
    assert!(Arc::ptr_eq(old[1].payload(), new[1].payload()), "the predecessor payload was copied");
    assert_eq!(payload_ptrs(&old[1]), payload_ptrs(&new[1]));
    assert_eq!(hits(&pinned, &w.queries), before, "the pinned snapshot moved");
}

#[test]
fn wal_replay_mutates_in_place() {
    let _obs = obs_lock(true);
    let (w, idx) = built(53);
    let dir = TempStore::new("write-granularity");
    let ci = ConcurrentIndex::durable(DurableIndex::create(idx, dir.path()).unwrap());
    for r in 0..3 {
        ci.insert(w.base.row(r)).unwrap();
    }
    ci.delete_outcome(7).unwrap();
    let want = hits(&ci.pin(), &w.queries);
    drop(ci);
    obs::reset();
    // Replay owns every payload it touches, so it copies none.
    let reopened = ConcurrentIndex::durable(DurableIndex::open(dir.path()).unwrap());
    assert_eq!(cow_bytes(), 0, "WAL replay copied payload bytes");
    assert_eq!(hits(&reopened.pin(), &w.queries), want);
}

/// One write sequence: every outcome the writer reports, plus pinned
/// search hits after each phase.
fn write_sequence(w: &Workload, idx: PathWeaverIndex) -> (Vec<u64>, Vec<Hits>) {
    let victims = every_other(&idx.shards[1]);
    let ci = ConcurrentIndex::new(idx);
    let mut outcomes = Vec::new();
    let mut pinned = vec![hits(&ci.pin(), &w.queries)];
    for r in 0..4 {
        outcomes.push(u64::from(ci.insert(w.base.row(r)).unwrap()));
    }
    pinned.push(hits(&ci.pin(), &w.queries));
    for &g in victims.iter().chain([&victims[0], &u32::MAX]) {
        outcomes.push(ci.delete_outcome(g).unwrap() as u64);
    }
    pinned.push(hits(&ci.pin(), &w.queries));
    outcomes.push(ci.maintain(0.3).unwrap() as u64);
    outcomes.push(u64::from(ci.insert(w.base.row(9)).unwrap()));
    outcomes.push(ci.latest_version());
    pinned.push(hits(&ci.pin(), &w.queries));
    (outcomes, pinned)
}

#[test]
fn write_metrics_change_no_outcome() {
    let (w, idx) = built(59);
    let deletes = every_other(&idx.shards[1]).len() as u64 + 2;
    let off = {
        let _obs = obs_lock(false);
        let off = write_sequence(&w, idx.clone());
        assert_eq!(cow_bytes(), 0, "write metrics recorded while off");
        off
    };
    let _obs = obs_lock(true);
    let on = write_sequence(&w, idx);
    assert_eq!(on, off, "recording write metrics changed a writer outcome or a pinned result");
    let r = obs::registry();
    assert_eq!(r.histogram("dyn.insert_ns").count(), 5);
    assert_eq!(r.histogram("dyn.delete_ns").count(), deletes, "every delete call is timed");
    assert!(cow_bytes() > 0);
}
