//! Durable-store integration: WAL-before-ack mutations survive reopen, and
//! the crash-recovery contract holds — a process killed mid-append leaves a
//! store that reopens to exactly the state before the torn record.
//!
//! Every mutation and reopen goes through the one writer,
//! `ConcurrentIndex::durable`, and every read through `pin()`.

mod common;

use common::TempStore;
use pathweaver::core::store::wal::WalWriter;
use pathweaver::core::store::{load_index, save_index, verify_store, StoreError, WAL_FILE};
use pathweaver::datasets::io::write_fvecs;
use pathweaver::prelude::*;

fn build_index(seed: u64) -> (Workload, PathWeaverIndex) {
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 6, 5, seed);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
    (w, idx)
}

/// Persists `idx` as a fresh store under `dir` and returns its writer.
fn create(idx: PathWeaverIndex, dir: &TempStore) -> ConcurrentIndex {
    ConcurrentIndex::durable(DurableIndex::create(idx, dir.path()).unwrap())
}

/// Recovers the store under `dir` into a writer, as a restarted process does.
fn reopen(dir: &TempStore) -> ConcurrentIndex {
    ConcurrentIndex::durable(DurableIndex::open(dir.path()).unwrap())
}

fn search_with(
    ci: &ConcurrentIndex,
    queries: &pathweaver::vector::VectorSet,
    params: &SearchParams,
) -> Vec<Vec<u32>> {
    ci.pin().index().search_pipelined(queries, params).results
}

fn search_all(ci: &ConcurrentIndex, queries: &pathweaver::vector::VectorSet) -> Vec<Vec<u32>> {
    search_with(ci, queries, &SearchParams::default())
}

fn num_vectors(ci: &ConcurrentIndex) -> usize {
    ci.pin().index().num_vectors
}

fn single(vector: &[f32]) -> pathweaver::vector::VectorSet {
    let mut q = pathweaver::vector::VectorSet::empty(vector.len());
    q.push(vector);
    q
}

#[test]
fn durable_mutations_survive_reopen() {
    let (w, idx) = build_index(71);
    let dir = TempStore::new("durable-reopen");
    let durable = create(idx, &dir);

    let novel: Vec<f32> = w.base.row(2).iter().map(|x| x + 0.004).collect();
    let id = durable.insert(&novel).unwrap();
    assert_eq!(durable.delete_outcome(1).unwrap(), DeleteOutcome::Applied);
    let before = search_all(&durable, &w.queries);

    drop(durable); // Simulated clean shutdown: no compact, WAL still pending.
    let reopened = reopen(&dir);
    assert_eq!(num_vectors(&reopened), w.base.len() + 1);
    assert_eq!(search_all(&reopened, &w.queries), before);
    assert!(search_all(&reopened, &single(&novel))[0].contains(&id), "WAL insert lost on reopen");
}

#[test]
fn wal_replay_extends_quantized_tier_identically() {
    // Replay goes through `PathWeaverIndex::insert`, which pushes onto the
    // quantized tier under the shard's frozen grid — so a reopened index
    // must answer quantized searches bitwise-identically to the live one.
    let (w, idx) = build_index(75);
    let dir = TempStore::new("durable-quantized");
    let durable = create(idx, &dir);
    for r in 0..3 {
        let v: Vec<f32> = w.base.row(r).iter().map(|x| x + 0.002).collect();
        durable.insert(&v).unwrap();
    }
    let params = SearchParams { quantized: true, ..SearchParams::default() };
    let before = search_with(&durable, &w.queries, &params);

    drop(durable); // WAL still pending: reopen must replay the inserts.
    let reopened = reopen(&dir);
    assert_eq!(search_with(&reopened, &w.queries, &params), before);
}

#[test]
fn wal_replay_is_idempotent_across_noop_deletes_and_reinserts() {
    // Every delete is WAL-logged even when it applies nothing (unknown id,
    // double delete), so replay walks the exact mutation history including
    // the no-ops. Reopening — once, or repeatedly without compaction — must
    // converge to the same state as the live index.
    let (w, idx) = build_index(77);
    let dir = TempStore::new("durable-idempotent-replay");
    let durable = create(idx, &dir);

    let novel: Vec<f32> = w.base.row(3).iter().map(|x| x + 0.006).collect();
    let id = durable.insert(&novel).unwrap();
    assert_eq!(durable.delete_outcome(u32::MAX).unwrap(), DeleteOutcome::Unknown);
    assert_eq!(durable.delete_outcome(1).unwrap(), DeleteOutcome::Applied);
    assert_eq!(durable.delete_outcome(1).unwrap(), DeleteOutcome::AlreadyDeleted);
    let second: Vec<f32> = w.base.row(5).iter().map(|x| x + 0.008).collect();
    let id2 = durable.insert(&second).unwrap();
    assert_eq!(durable.delete_outcome(id2).unwrap(), DeleteOutcome::Applied);
    assert_eq!(durable.delete_outcome(id2).unwrap(), DeleteOutcome::AlreadyDeleted);
    let before = search_all(&durable, &w.queries);
    let count = num_vectors(&durable);

    drop(durable); // Clean shutdown, WAL still pending: reopen replays everything.
    for round in 0..2 {
        let reopened = reopen(&dir);
        assert_eq!(num_vectors(&reopened), count, "replay changed the count (round {round})");
        assert_eq!(search_all(&reopened, &w.queries), before, "replay diverged (round {round})");
        // The replayed tombstones must report as already present, not re-apply.
        assert_eq!(reopened.delete_outcome(1).unwrap(), DeleteOutcome::AlreadyDeleted);
        assert_eq!(reopened.delete_outcome(id2).unwrap(), DeleteOutcome::AlreadyDeleted);
        // The replayed insert is live and searchable under its original id.
        assert!(search_all(&reopened, &single(&novel))[0].contains(&id), "replayed insert lost");
    }
}

#[test]
fn torn_wal_tail_recovers_to_pre_record_state_at_every_offset() {
    // The crash-recovery contract (ISSUE acceptance): kill the process at
    // any byte offset inside the last WAL append; on reopen, search results
    // are identical to an index that never saw the torn record.
    let (w, idx) = build_index(72);
    let dir = TempStore::new("durable-torn");
    let durable = create(idx, &dir);
    let a: Vec<f32> = w.base.row(0).iter().map(|x| x + 0.003).collect();
    durable.insert(&a).unwrap();
    let baseline = search_all(&durable, &w.queries);
    let intact_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();

    // Append one more record, then tear it at a spread of offsets.
    let b: Vec<f32> = w.base.row(1).iter().map(|x| x + 0.007).collect();
    durable.insert(&b).unwrap();
    drop(durable);
    let full = std::fs::read(dir.join(WAL_FILE)).unwrap();
    assert!(full.len() as u64 > intact_len);

    for cut in intact_len..full.len() as u64 {
        std::fs::write(dir.join(WAL_FILE), &full[..cut as usize]).unwrap();
        let reopened = ConcurrentIndex::durable(
            DurableIndex::open(dir.path())
                .unwrap_or_else(|e| panic!("reopen failed at cut {cut}: {e:?}")),
        );
        assert_eq!(num_vectors(&reopened), w.base.len() + 1, "wrong count at cut {cut}");
        assert_eq!(search_all(&reopened, &w.queries), baseline, "divergence at cut {cut}");
        drop(reopened); // Reopen repairs the tail; restore the torn file for the next cut.
    }
}

#[test]
fn compact_folds_wal_and_store_stays_usable() {
    let (w, idx) = build_index(73);
    let dir = TempStore::new("durable-compact");
    let durable = create(idx, &dir);
    for r in 0..3 {
        let v: Vec<f32> = w.base.row(r).iter().map(|x| x + 0.002).collect();
        durable.insert(&v).unwrap();
    }
    assert_eq!(durable.delete_outcome(0).unwrap(), DeleteOutcome::Applied);
    let before = search_all(&durable, &w.queries);

    durable.compact().unwrap();
    let report = verify_store(dir.path()).unwrap();
    assert_eq!(report.wal_records, 0, "compact must fold the WAL into the segment");
    assert_eq!(report.wal_torn_bytes, 0);

    // Post-compact the store keeps accepting mutations and reopens cleanly.
    let v: Vec<f32> = w.base.row(4).iter().map(|x| x + 0.009).collect();
    durable.insert(&v).unwrap();
    drop(durable);
    let reopened = reopen(&dir);
    assert_eq!(num_vectors(&reopened), w.base.len() + 4);
    assert_eq!(search_all(&reopened, &w.queries), before);
}

#[test]
fn verify_store_reports_pending_and_torn_wal_bytes() {
    let (w, idx) = build_index(74);
    let dir = TempStore::new("durable-verify");
    let durable = create(idx, &dir);
    let v: Vec<f32> = w.base.row(0).iter().map(|x| x + 0.001).collect();
    durable.insert(&v).unwrap();
    durable.delete_outcome(2).unwrap();
    drop(durable);

    let report = verify_store(dir.path()).unwrap();
    assert!(report.sections > 0);
    assert_eq!(report.wal_records, 2);
    assert_eq!(report.wal_torn_bytes, 0);

    // Tear off the last 3 bytes: verify reports the torn tail, doesn't fail.
    let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
    std::fs::write(dir.join(WAL_FILE), &bytes[..bytes.len() - 3]).unwrap();
    let torn = verify_store(dir.path()).unwrap();
    assert_eq!(torn.wal_records, 1);
    assert!(torn.wal_torn_bytes > 0);
}

#[test]
fn non_segment_directories_fail_cleanly() {
    // Every store entry point must answer a directory without a segment
    // (empty, or laid out one file per structure per shard as stores were
    // before the segment) with Io(NotFound): no panic, and nothing written
    // into the directory, in particular no fresh WAL.
    let empty = TempStore::new("non-segment-empty");
    let per_shard = TempStore::new("non-segment-per-shard");
    std::fs::write(per_shard.join("meta.json"), r#"{"version": 1, "num_devices": 1}"#).unwrap();
    std::fs::create_dir(per_shard.join("shard-000")).unwrap();
    let vectors = pathweaver::vector::VectorSet::from_fn(10, 8, |r, c| (r * 8 + c) as f32);
    write_fvecs(
        std::fs::File::create(per_shard.join("shard-000/vectors.fvecs")).unwrap(),
        &vectors,
    )
    .unwrap();

    for dir in [&empty, &per_shard] {
        let before = tree(dir.path());
        let not_found = |what: &str, err: Option<StoreError>| match err {
            Some(StoreError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{what}: {e}")
            }
            other => {
                panic!("{what} on {}: expected Io(NotFound), got {other:?}", dir.path().display())
            }
        };
        not_found("load_index", load_index(dir.path()).err());
        not_found("verify_store", verify_store(dir.path()).err());
        not_found("DurableIndex::open", DurableIndex::open(dir.path()).err());
        assert_eq!(tree(dir.path()), before, "{} was modified", dir.path().display());
        assert!(!dir.join(WAL_FILE).exists());
    }
}

#[test]
fn wal_of_another_index_is_corrupt_and_leaves_the_store_untouched() {
    // A dim-96 segment beside a WAL written for dim-101 vectors, holding
    // one delete. Replaying it would apply another index's mutation, so
    // both recovery entry points reject the pair before replaying anything.
    let (_, idx) = build_index(76);
    assert_eq!(idx.dim(), 96);
    let ours = TempStore::new("foreign-wal-ours");
    save_index(&idx, ours.path()).unwrap();
    let mut foreign = WalWriter::create(ours.join(WAL_FILE), 101).unwrap();
    foreign.append_delete(0).unwrap();
    drop(foreign);

    let before = tree(ours.path());
    let corrupt_at_dim = |what: &str, err: Option<StoreError>| match err {
        Some(StoreError::Corrupt { offset, .. }) => assert_eq!(offset, 8, "{what}"),
        other => panic!("{what}: expected Corrupt at byte 8, got {other:?}"),
    };
    corrupt_at_dim("load_index", load_index(ours.path()).err());
    corrupt_at_dim("DurableIndex::open", DurableIndex::open(ours.path()).err());
    assert_eq!(tree(ours.path()), before, "a rejected recovery modified the store");
}

/// Every path under `root` with its byte contents, sorted.
fn tree(root: &std::path::Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.push((path.clone(), Vec::new()));
            out.extend(tree(&path));
        } else {
            out.push((path.clone(), std::fs::read(&path).unwrap()));
        }
    }
    out.sort();
    out
}
