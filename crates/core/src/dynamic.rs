//! Dynamic updates (paper §6.2).
//!
//! Insertions go to the smallest shard: the new node's adjacency row is
//! found by a build-time graph search, the direction table and the shard's
//! outgoing `I(u)` entry are extended incrementally, and the ghost shard is
//! left untouched (it is a random sample; one more point does not move it).
//! Deletions are logical: a tombstone flag hides the node from results while
//! it keeps serving as a bridge, preserving connectivity exactly as the
//! paper suggests.
//!
//! These are the in-place mutations the single writer,
//! [`crate::snapshot::ConcurrentIndex`], applies to its master copy (and
//! WAL replay applies on recovery); durability and publication live there.

use crate::index::PathWeaverIndex;
use pathweaver_graph::greedy_search;
use std::sync::Arc;

/// What a [`PathWeaverIndex::delete_outcome`] call actually did.
///
/// Delete-unknown and delete-twice stay distinguishable for the call sites
/// that care (WAL replay, client error reporting), while every case stays
/// idempotent: replaying any of the three is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteOutcome {
    /// The id was live and is now tombstoned.
    Applied,
    /// The id exists but was already tombstoned (or compacted away after a
    /// tombstone — its slot is gone but the id was once deleted).
    AlreadyDeleted,
    /// The id was never allocated (above the high-water mark) or was
    /// compacted away by [`PathWeaverIndex::maintain`].
    Unknown,
}

impl DeleteOutcome {
    /// Whether the call changed the index.
    pub fn applied(self) -> bool {
        matches!(self, Self::Applied)
    }
}

/// Errors raised by [`PathWeaverIndex::maintain`].
///
/// With the background maintainer ([`crate::snapshot::ConcurrentIndex`])
/// calling `maintain` on a live serving path, a bad threshold must surface
/// as a value, not a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintainError {
    /// `rebuild_threshold` outside `(0, 1]`.
    InvalidThreshold {
        /// The rejected value.
        got: f64,
    },
}

impl std::fmt::Display for MaintainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidThreshold { got } => {
                write!(f, "rebuild threshold {got} out of (0, 1]")
            }
        }
    }
}

impl std::error::Error for MaintainError {}

impl PathWeaverIndex {
    /// Inserts a vector, returning its new global id.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the index dimensionality.
    pub fn insert(&mut self, vector: &[f32]) -> u32 {
        assert_eq!(vector.len(), self.dim(), "dimensionality mismatch");
        let s = self.assignment.smallest_shard();
        // `num_vectors` is a high-water mark for id allocation (maintain()
        // never rewinds it), so ids stay unique and per-shard `global_ids`
        // stay ascending — which `delete` relies on for binary search.
        let global_id = self.num_vectors as u32;
        self.num_vectors += 1;

        let degree = self.shards[s].graph.degree();
        let next = (s + 1) % self.shards.len();

        // Locate the new node's neighbors with a build-quality search,
        // entering through the ghost shard when one exists (random-only
        // entries can strand the search in a far region of the graph).
        let mut entries: Vec<u32> = (0..16)
            .map(|i| {
                (pathweaver_util::seed_from_parts(self.config.seed, "insert", global_id as u64 + i)
                    % self.shards[s].len() as u64) as u32
            })
            .collect();
        if let Some(ghost) = &self.shards[s].ghost {
            let ghost_hits = greedy_search(&ghost.graph, &ghost.vectors, vector, &[0], 8, 2);
            entries.extend(ghost_hits.iter().map(|&(_, g)| ghost.original_id(g)));
        }
        let hits = greedy_search(
            &self.shards[s].graph,
            &self.shards[s].vectors,
            vector,
            &entries,
            (degree * 2).max(16),
            degree,
        );
        let mut row: Vec<u32> = hits.iter().map(|&(_, id)| id).collect();
        // Pad pathological underfull rows by wrapping over the shard. Only
        // locals that exist before this push are legal neighbors: an
        // unbounded pad fabricates ids at or past the new node's own id (a
        // self-loop at best, an out-of-range panic at worst) whenever the
        // shard is smaller than the degree.
        let existing = self.shards[s].len() as u32;
        let mut pad = 0u32;
        while row.len() < degree && pad < existing {
            if !row.contains(&pad) {
                row.push(pad);
            }
            pad += 1;
        }
        // A shard smaller than the degree cycles its own row; duplicate
        // neighbors are legal in a fixed-degree graph.
        let mut wrap = 0;
        while row.len() < degree {
            row.push(row[wrap]);
            wrap += 1;
        }

        // Extend every affected structure in dependency order. The first
        // mutation after a snapshot publish copies the shard (`make_mut`);
        // pinned snapshots keep reading the old Arc untouched.
        let shard = Arc::make_mut(&mut self.shards[s]);
        shard.vectors.push(vector);
        // The quantized tier encodes with the shard's frozen scales/offsets
        // (re-deriving them would re-code every row); out-of-range values
        // clamp to ±127 and are repaired by the exact re-rank at query time.
        if let Some(q) = shard.quantized.as_mut() {
            q.push(vector);
        }
        let local = shard.graph.push_node(&row);
        shard.global_ids.push(global_id);
        shard.deleted.grow(shard.vectors.len());
        if let Some(table) = shard.dir_table.as_mut() {
            table.push_node(&shard.vectors, &shard.graph);
        }
        debug_assert_eq!(local as usize, shard.vectors.len() - 1);

        // Reverse edges: searches reach the new node only through in-edges,
        // so each forward neighbor replaces its farthest out-edge with the
        // newcomer when the newcomer is closer. The nearest neighbor adopts
        // the newcomer unconditionally — an outlier insert would otherwise
        // have in-degree zero and be unreachable forever.
        for (rank, &v) in row.iter().enumerate() {
            let force = rank == 0;
            let d_new = pathweaver_vector::l2_squared(
                shard.vectors.row(v as usize),
                shard.vectors.row(local as usize),
            );
            let mut vrow: Vec<u32> = shard.graph.neighbors(v).to_vec();
            let (worst_j, worst_d) = vrow
                .iter()
                .enumerate()
                .map(|(j, &w)| {
                    (
                        j,
                        pathweaver_vector::l2_squared(
                            shard.vectors.row(v as usize),
                            shard.vectors.row(w as usize),
                        ),
                    )
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("positive degree");
            if (force || d_new < worst_d) && !vrow.contains(&local) {
                vrow[worst_j] = local;
                shard.graph.set_neighbors(v, &vrow);
                if let Some(table) = shard.dir_table.as_mut() {
                    table.rebuild_node(&shard.vectors, &shard.graph, v);
                }
            }
        }

        // Outgoing inter-shard edge of the new node (incoming edges from the
        // previous shard stay stale — the paper argues a small local change
        // does not affect existing similarities).
        if self.shards.len() > 1 {
            let target = {
                let next_shard = &self.shards[next];
                let entries: Vec<u32> = (0..4)
                    .map(|i| {
                        (pathweaver_util::seed_from_parts(
                            self.config.seed,
                            "isd",
                            global_id as u64 + i,
                        ) % next_shard.len() as u64) as u32
                    })
                    .collect();
                greedy_search(
                    &next_shard.graph,
                    &next_shard.vectors,
                    vector,
                    &entries,
                    self.config.intershard.beam,
                    1,
                )[0]
                .1
            };
            // The shard Arc is already unique after the `make_mut` above, so
            // this second `make_mut` is a pointer check, not a clone.
            Arc::make_mut(&mut self.shards[s])
                .intershard
                .as_mut()
                .expect("multi-device index has inter-shard tables")
                .push(target);
        }

        self.assignment.push(s, global_id);
        global_id
    }

    /// Logically deletes a global id, reporting which of the three cases
    /// occurred ([`DeleteOutcome`]). Idempotent: replaying the same delete
    /// (WAL recovery) reports [`DeleteOutcome::AlreadyDeleted`] and changes
    /// nothing.
    pub fn delete_outcome(&mut self, global_id: u32) -> DeleteOutcome {
        for shard in self.shards.iter_mut() {
            // `global_ids` is ascending (built sorted; inserts append
            // monotonically increasing ids), so each shard is one binary
            // search instead of a linear scan.
            if let Ok(local) = shard.global_ids.binary_search(&global_id) {
                if shard.deleted.contains(local) {
                    return DeleteOutcome::AlreadyDeleted;
                }
                // Copy-on-write: only the hit shard is cloned, and only when
                // a pinned snapshot still shares it.
                Arc::make_mut(shard).deleted.insert(local);
                return DeleteOutcome::Applied;
            }
        }
        if (global_id as usize) < self.num_vectors {
            // Below the high-water mark but in no shard: the slot was
            // tombstoned and then compacted away by `maintain`.
            DeleteOutcome::AlreadyDeleted
        } else {
            DeleteOutcome::Unknown
        }
    }

    /// Number of live (non-tombstoned, non-compacted) vectors.
    pub fn live_vectors(&self) -> usize {
        self.shards.iter().map(|s| s.len() - s.deleted.count()).sum()
    }

    /// Physically rebuilds every shard whose tombstone fraction reaches
    /// `rebuild_threshold` (§6.2: "when a substantial portion of a shard is
    /// deleted, rebuilding the shard and its associated structures becomes
    /// beneficial"). Rebuilds the shard's graph, ghost shard and direction
    /// table, plus both inter-shard tables touching the shard (its outgoing
    /// table and the predecessor's incoming one). Returns the number of
    /// shards rebuilt.
    ///
    /// A shard whose survivors are too few for a CAGRA build (`degree + 1`
    /// or fewer) is not skipped: it is compacted into a dense brute-force
    /// remnant whose every node links to every other survivor, so a
    /// nearly-emptied shard stops serving from a ~100 %-tombstoned graph.
    /// A fully-emptied shard keeps its first node as a tombstoned bridge
    /// (the ring needs a non-empty shard on every device); the bridge never
    /// surfaces in results.
    ///
    /// # Errors
    ///
    /// [`MaintainError::InvalidThreshold`] if `rebuild_threshold` is outside
    /// `(0, 1]`; the index is unchanged.
    pub fn maintain(&mut self, rebuild_threshold: f64) -> Result<usize, MaintainError> {
        if !(rebuild_threshold > 0.0 && rebuild_threshold <= 1.0) {
            return Err(MaintainError::InvalidThreshold { got: rebuild_threshold });
        }
        let mut rebuilt = 0;
        for s in 0..self.shards.len() {
            if !shard_needs_rebuild(&self.shards[s], rebuild_threshold) {
                continue;
            }
            let replacement = rebuild_shard(&self.shards[s], &self.config, s);
            self.install_rebuilt(s, Arc::new(replacement));
            rebuilt += 1;
        }
        Ok(rebuilt)
    }

    /// Swaps a rebuilt shard in at position `s` and repairs everything that
    /// references its local ids: the assignment's member list and (multi-
    /// device) both inter-shard tables touching the shard. The background
    /// maintainer calls this under its writer lock after building the
    /// replacement off-lock ([`crate::snapshot::ConcurrentIndex`]).
    pub(crate) fn install_rebuilt(&mut self, s: usize, shard: Arc<crate::index::ShardIndex>) {
        let n = self.shards.len();
        self.assignment.set_members(s, shard.global_ids.clone());
        self.shards[s] = shard;
        if n > 1 {
            // Outgoing I(u) of the rebuilt shard and the predecessor's
            // table into it both reference changed local ids.
            let next = (s + 1) % n;
            let prev = (s + n - 1) % n;
            let out_table = pathweaver_graph::InterShardTable::build(
                &self.shards[s].vectors,
                &self.shards[next].vectors,
                &self.shards[next].graph,
                &self.config.intershard,
            );
            Arc::make_mut(&mut self.shards[s]).intershard = Some(out_table);
            let in_table = pathweaver_graph::InterShardTable::build(
                &self.shards[prev].vectors,
                &self.shards[s].vectors,
                &self.shards[s].graph,
                &self.config.intershard,
            );
            Arc::make_mut(&mut self.shards[prev]).intershard = Some(in_table);
        }
    }
}

/// Whether [`PathWeaverIndex::maintain`] at `rebuild_threshold` would
/// rebuild this shard. The minimal bridge remnant (one node, tombstoned) is
/// exempt: rebuilding it again every pass would make `maintain` permanently
/// non-idle.
pub(crate) fn shard_needs_rebuild(
    shard: &crate::index::ShardIndex,
    rebuild_threshold: f64,
) -> bool {
    let dead = shard.deleted.count();
    if dead == 0 || (dead as f64) < rebuild_threshold * shard.len() as f64 {
        return false;
    }
    !(shard.len() == 1 && dead == 1)
}

/// Builds the replacement for a heavily-deleted shard from its survivors:
/// graph, auxiliaries and quantized tier, but no inter-shard table — the
/// caller installs those via [`PathWeaverIndex::install_rebuilt`], because
/// they depend on the neighbor shards at install time.
///
/// Three regimes by survivor count: a full CAGRA rebuild above
/// `degree + 1`; a dense brute-force remnant (every node cycles over the
/// other survivors; duplicate neighbors are legal in a fixed-degree graph)
/// down to one survivor; and, when every node is tombstoned, a single
/// tombstoned bridge node with a self-loop row, so the shard (and the ring
/// through it) stays searchable without ever surfacing in results.
pub(crate) fn rebuild_shard(
    shard: &crate::index::ShardIndex,
    config: &crate::config::PathWeaverConfig,
    s: usize,
) -> crate::index::ShardIndex {
    let survivors: Vec<usize> = (0..shard.len()).filter(|&l| !shard.deleted.contains(l)).collect();
    let degree = config.graph.degree;
    let full_rebuild = survivors.len() > degree + 1;
    let (vectors, global_ids, graph, deleted) = if full_rebuild {
        let vectors = shard.vectors.gather(&survivors);
        let global_ids: Vec<u32> = survivors.iter().map(|&l| shard.global_ids[l]).collect();
        let graph = pathweaver_graph::cagra_build(&vectors, &config.graph);
        let deleted = pathweaver_util::FixedBitSet::new(vectors.len());
        (vectors, global_ids, graph, deleted)
    } else if survivors.is_empty() {
        let vectors = shard.vectors.gather(&[0]);
        let global_ids = vec![shard.global_ids[0]];
        let row = vec![0u32; degree];
        let graph = pathweaver_graph::FixedDegreeGraph::from_lists(degree, &[row]);
        let mut deleted = pathweaver_util::FixedBitSet::new(1);
        deleted.insert(0);
        (vectors, global_ids, graph, deleted)
    } else {
        let vectors = shard.vectors.gather(&survivors);
        let global_ids: Vec<u32> = survivors.iter().map(|&l| shard.global_ids[l]).collect();
        let m = survivors.len();
        let lists: Vec<Vec<u32>> = (0..m)
            .map(|u| {
                (0..degree)
                    .map(|j| {
                        if m == 1 {
                            0 // single survivor: self-loop row
                        } else {
                            ((u + 1 + j % (m - 1)) % m) as u32
                        }
                    })
                    .collect()
            })
            .collect();
        let graph = pathweaver_graph::FixedDegreeGraph::from_lists(degree, &lists);
        let deleted = pathweaver_util::FixedBitSet::new(m);
        (vectors, global_ids, graph, deleted)
    };
    // Remnant shards skip the ghost/direction auxiliaries: both assume a
    // graph large enough to sample from, and a brute-force remnant is exact
    // without them.
    let dir_table = (config.build_dir_table && full_rebuild)
        .then(|| pathweaver_graph::DirectionTable::build(&vectors, &graph));
    let ghost = if full_rebuild {
        config.ghost.map(|mut gp| {
            gp.seed = pathweaver_util::seed_from_parts(config.seed, "ghost-rebuild", s as u64);
            pathweaver_graph::GhostShard::build(&vectors, &gp)
        })
    } else {
        None
    };
    // Rebuilds re-derive the quantization grid from the survivors, so
    // post-insert drift accumulated by frozen-parameter pushes is flushed at
    // the same cadence as the graph itself.
    let quantized =
        config.build_quantized.then(|| pathweaver_vector::QuantizedSet::quantize(&vectors));
    crate::index::ShardIndex {
        global_ids,
        vectors,
        graph,
        dir_table,
        quantized,
        ghost,
        intershard: None,
        deleted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PathWeaverConfig;
    use pathweaver_datasets::{DatasetProfile, Scale};
    use pathweaver_search::SearchParams;

    fn built() -> (pathweaver_datasets::Workload, PathWeaverIndex) {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 6, 5, 13);
        let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        (w, idx)
    }

    #[test]
    fn inserted_vector_is_findable() {
        let (w, mut idx) = built();
        let novel: Vec<f32> = w.base.row(0).iter().map(|x| x + 0.01).collect();
        let id = idx.insert(&novel);
        assert_eq!(id as usize, w.base.len());
        let mut queries = pathweaver_vector::VectorSet::empty(idx.dim());
        queries.push(&novel);
        let out = idx.search_pipelined(&queries, &SearchParams::default());
        assert!(out.results[0].contains(&id), "inserted id missing: {:?}", out.results[0]);
    }

    #[test]
    fn insert_updates_all_structures() {
        let (w, mut idx) = built();
        let before: Vec<usize> = idx.shards.iter().map(|s| s.len()).collect();
        let _ = idx.insert(w.base.row(1));
        let s = idx
            .shards
            .iter()
            .position(|sh| {
                sh.len() != before[idx.shards.iter().position(|x| std::ptr::eq(x, sh)).unwrap()]
            })
            .unwrap();
        let shard = &idx.shards[s];
        assert_eq!(shard.vectors.len(), shard.graph.num_nodes());
        assert_eq!(shard.vectors.len(), shard.global_ids.len());
        assert_eq!(shard.intershard.as_ref().unwrap().len(), shard.len());
        assert!(shard.deleted.capacity() >= shard.len());
    }

    #[test]
    fn deleted_vector_leaves_results() {
        let (w, mut idx) = built();
        // Query for an exact base vector, then tombstone it.
        let target_global = 7u32;
        let mut queries = pathweaver_vector::VectorSet::empty(idx.dim());
        queries.push(w.base.row(target_global as usize));
        let before = idx.search_pipelined(&queries, &SearchParams::default());
        assert!(before.results[0].contains(&target_global));
        assert_eq!(idx.delete_outcome(target_global), DeleteOutcome::Applied);
        assert_eq!(idx.delete_outcome(target_global), DeleteOutcome::AlreadyDeleted);
        let after = idx.search_pipelined(&queries, &SearchParams::default());
        assert!(!after.results[0].contains(&target_global));
        assert_eq!(idx.live_vectors(), w.base.len() - 1);
    }

    #[test]
    fn maintain_rebuilds_heavily_deleted_shard() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 5, 19);
        let mut idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        // Tombstone 40 % of shard 0.
        let victims: Vec<u32> = idx.shards[0]
            .global_ids
            .iter()
            .step_by(2)
            .copied()
            .take(idx.shards[0].len() * 2 / 5)
            .collect();
        for &g in &victims {
            assert_eq!(idx.delete_outcome(g), DeleteOutcome::Applied);
        }
        let len_before = idx.shards[0].len();
        let rebuilt = idx.maintain(0.3).unwrap();
        assert_eq!(rebuilt, 1);
        let shard = &idx.shards[0];
        assert_eq!(shard.len(), len_before - victims.len());
        assert_eq!(shard.deleted.count(), 0);
        assert_eq!(shard.graph.num_nodes(), shard.len());
        assert_eq!(shard.intershard.as_ref().unwrap().len(), shard.len());
        // The predecessor's table into the rebuilt shard must be in range.
        let prev = &idx.shards[1];
        let prev_table = prev.intershard.as_ref().unwrap();
        for u in 0..prev.len() as u32 {
            assert!((prev_table.target(u) as usize) < shard.len());
        }
        // Victims stay gone; search still works end to end.
        let out = idx.search_pipelined(&w.queries, &SearchParams::default());
        for hits in &out.results {
            for id in hits {
                assert!(!victims.contains(id), "tombstoned id {id} resurfaced");
            }
        }
        // A second pass is a no-op.
        assert_eq!(idx.maintain(0.3).unwrap(), 0);
    }

    #[test]
    fn insert_after_maintain_never_reuses_ids() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 4, 5, 29);
        let mut idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let victims: Vec<u32> = idx.shards[0]
            .global_ids
            .iter()
            .step_by(2)
            .copied()
            .take(idx.shards[0].len() / 2)
            .collect();
        for &g in &victims {
            idx.delete_outcome(g);
        }
        assert_eq!(idx.maintain(0.3).unwrap(), 1);
        // New ids must stay above every live id even after compaction.
        let id = idx.insert(w.base.row(0));
        assert_eq!(id as usize, w.base.len(), "id high-water mark must not rewind");
        let all: Vec<u32> = idx.shards.iter().flat_map(|s| s.global_ids.iter().copied()).collect();
        let unique: std::collections::HashSet<u32> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "duplicate global ids after maintain+insert");
    }

    #[test]
    fn heavy_local_deletion_still_returns_k_live_results() {
        // Tombstone a query's nearest neighbors: the over-fetch must surface
        // the live nodes ranked just past them.
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 1, 12, 31);
        let mut idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(1)).unwrap();
        let params = SearchParams::default();
        let before = idx.search_pipelined(&w.queries, &params);
        for &g in &before.results[0][..6] {
            assert_eq!(idx.delete_outcome(g), DeleteOutcome::Applied);
        }
        let after = idx.search_pipelined(&w.queries, &params);
        assert_eq!(after.results[0].len(), params.k, "k live results expected");
        for id in &after.results[0] {
            assert!(!before.results[0][..6].contains(id), "tombstoned id returned");
        }
    }

    #[test]
    fn maintain_ignores_lightly_deleted_shards() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 4, 5, 23);
        let mut idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let g = idx.shards[0].global_ids[0];
        idx.delete_outcome(g);
        assert_eq!(idx.maintain(0.3).unwrap(), 0);
        assert_eq!(idx.shards[0].deleted.count(), 1);
    }

    #[test]
    fn maintain_rejects_bad_threshold_without_panicking() {
        let (_, mut idx) = built();
        for bad in [0.0, -0.3, 1.5, f64::NAN] {
            let err = idx.maintain(bad).unwrap_err();
            assert!(matches!(err, MaintainError::InvalidThreshold { .. }), "{bad} accepted");
        }
        // A valid threshold still works after the rejections.
        assert_eq!(idx.maintain(1.0).unwrap(), 0);
    }

    #[test]
    fn maintain_folds_nearly_emptied_shard_instead_of_skipping() {
        // Regression: `maintain` used to `continue` once a shard's survivor
        // count fell to degree + 1 or fewer, leaving a ~100 %-tombstoned
        // graph serving bridges forever. The fold must compact the remnant.
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 6, 5, 37);
        let mut idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let degree = idx.config.graph.degree;
        // Tombstone shard 0 down to degree survivors — under the old skip
        // condition this shard would never be rebuilt.
        let ids: Vec<u32> = idx.shards[0].global_ids.clone();
        let keep = degree.min(ids.len().saturating_sub(1));
        for &g in &ids[keep..] {
            assert_eq!(idx.delete_outcome(g), DeleteOutcome::Applied);
        }
        let dead_before = idx.shards[0].deleted.count();
        assert!(dead_before > 0);
        assert!(
            ids.len() - dead_before <= degree + 1,
            "test setup must land in the remnant regime"
        );
        assert_eq!(idx.maintain(0.3).unwrap(), 1, "remnant shard must be folded, not skipped");
        let shard = &idx.shards[0];
        assert_eq!(shard.deleted.count(), 0, "tombstones must be physically gone");
        assert_eq!(shard.len(), keep);
        assert_eq!(shard.graph.num_nodes(), keep);
        // The ring tables on both sides of the folded shard stay in range.
        let prev_table = idx.shards[1].intershard.as_ref().unwrap();
        for u in 0..idx.shards[1].len() as u32 {
            assert!((prev_table.target(u) as usize) < shard.len());
        }
        // Every survivor is still findable through the remnant graph.
        let params = SearchParams::default();
        for (local, &g) in idx.shards[0].global_ids.clone().iter().enumerate() {
            let queries = idx.shards[0].vectors.gather(&[local]);
            let out = idx.search_pipelined(&queries, &params);
            assert!(out.results[0].contains(&g), "survivor {g} lost by the fold");
        }
    }

    #[test]
    fn maintain_keeps_bridge_when_shard_fully_tombstoned() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 6, 5, 43);
        let mut idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let ids: Vec<u32> = idx.shards[0].global_ids.clone();
        for &g in &ids {
            assert_eq!(idx.delete_outcome(g), DeleteOutcome::Applied);
        }
        assert_eq!(idx.maintain(0.3).unwrap(), 1);
        let shard = &idx.shards[0];
        assert_eq!(shard.len(), 1, "one bridge node keeps the ring searchable");
        assert_eq!(shard.deleted.count(), 1, "the bridge stays tombstoned");
        // The bridge never surfaces; searches still answer from live shards.
        let out = idx.search_pipelined(&w.queries, &SearchParams::default());
        for hits in &out.results {
            for id in hits {
                assert!(!ids.contains(id), "tombstoned id {id} resurfaced");
            }
        }
        // A second pass is a no-op (no rebuild storm on the minimal remnant).
        assert_eq!(idx.maintain(0.3).unwrap(), 0);
    }

    #[test]
    fn delete_outcome_three_way() {
        let (w, mut idx) = built();
        assert_eq!(idx.delete_outcome(7), DeleteOutcome::Applied);
        assert_eq!(idx.delete_outcome(7), DeleteOutcome::AlreadyDeleted);
        assert_eq!(idx.delete_outcome(999_999), DeleteOutcome::Unknown);
        // An id compacted away by maintain is AlreadyDeleted, not Unknown:
        // it was allocated once and its slot is gone.
        let victims: Vec<u32> = idx.shards[0]
            .global_ids
            .iter()
            .step_by(2)
            .copied()
            .take(idx.shards[0].len() * 2 / 5)
            .collect();
        for &g in &victims {
            idx.delete_outcome(g);
        }
        assert!(idx.maintain(0.3).unwrap() >= 1);
        assert_eq!(idx.delete_outcome(victims[0]), DeleteOutcome::AlreadyDeleted);
        // Fresh inserts stay deletable exactly once.
        let id = idx.insert(w.base.row(0));
        assert_eq!(idx.delete_outcome(id), DeleteOutcome::Applied);
        assert_eq!(idx.delete_outcome(id), DeleteOutcome::AlreadyDeleted);
    }

    #[test]
    fn insert_into_tiny_shard_stays_in_range() {
        // A shard smaller than the graph degree must not pad the new row
        // with fabricated ids at or past the new node's own id (self-loop
        // or out-of-range panic in `push_node`).
        let dim = 4;
        let n = 4usize;
        let degree = 6usize;
        let mut vectors = pathweaver_vector::VectorSet::empty(dim);
        for i in 0..n {
            let row: Vec<f32> = (0..dim).map(|d| (i * dim + d) as f32).collect();
            vectors.push(&row);
        }
        let lists: Vec<Vec<u32>> =
            (0..n).map(|u| (0..degree).map(|j| ((u + j + 1) % n) as u32).collect()).collect();
        let graph = pathweaver_graph::FixedDegreeGraph::from_lists(degree, &lists);
        let shard = crate::index::ShardIndex {
            global_ids: (0..n as u32).collect(),
            deleted: pathweaver_util::FixedBitSet::new(n),
            vectors,
            graph,
            dir_table: None,
            quantized: None,
            ghost: None,
            intershard: None,
        };
        let mut idx = PathWeaverIndex {
            config: PathWeaverConfig::test_scale(1),
            shards: vec![Arc::new(shard)],
            assignment: crate::shard::ShardAssignment::random(n, 1, 7),
            build_report: pathweaver_graph::BuildReport::new(),
            ledgers: Vec::new(),
            num_vectors: n,
        };
        let id = idx.insert(&[0.5; 4]);
        assert_eq!(id, n as u32);
        let local = (idx.shards[0].len() - 1) as u32;
        let row = idx.shards[0].graph.neighbors(local);
        assert!(
            row.iter().all(|&v| v < local),
            "new node's row references itself or out-of-range ids: {row:?}"
        );
    }

    #[test]
    fn insert_extends_quantized_tier_and_stays_searchable() {
        let (w, mut idx) = built();
        assert!(idx.shards.iter().all(|s| s.quantized.is_some()), "test_scale builds the tier");
        let novel: Vec<f32> = w.base.row(2).iter().map(|x| x + 0.02).collect();
        let id = idx.insert(&novel);
        for shard in &idx.shards {
            let q = shard.quantized.as_ref().unwrap();
            assert_eq!(q.len(), shard.vectors.len(), "tier must track the vectors");
        }
        let mut queries = pathweaver_vector::VectorSet::empty(idx.dim());
        queries.push(&novel);
        let params = SearchParams { quantized: true, ..Default::default() };
        let out = idx.search_pipelined(&queries, &params);
        assert!(out.results[0].contains(&id), "inserted id missing: {:?}", out.results[0]);
    }

    #[test]
    fn maintain_rebuilds_quantized_tier() {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 5, 19);
        let mut idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap();
        let victims: Vec<u32> = idx.shards[0]
            .global_ids
            .iter()
            .step_by(2)
            .copied()
            .take(idx.shards[0].len() * 2 / 5)
            .collect();
        for &g in &victims {
            assert_eq!(idx.delete_outcome(g), DeleteOutcome::Applied);
        }
        assert_eq!(idx.maintain(0.3).unwrap(), 1);
        let shard = &idx.shards[0];
        let q = shard.quantized.as_ref().expect("rebuild keeps the tier");
        assert_eq!(q.len(), shard.vectors.len());
        // The rebuilt grid is the fresh quantization of the survivors.
        assert_eq!(q, &pathweaver_vector::QuantizedSet::quantize(&shard.vectors));
    }

    #[test]
    fn many_inserts_keep_index_consistent() {
        let (w, mut idx) = built();
        for i in 0..20 {
            let novel: Vec<f32> = w.base.row(i).iter().map(|x| x * 1.001).collect();
            idx.insert(&novel);
        }
        assert_eq!(idx.num_vectors, w.base.len() + 20);
        let total: usize = idx.shards.iter().map(|s| s.len()).sum();
        assert_eq!(total, idx.num_vectors);
        // Search still functions.
        let out = idx.search_pipelined(&w.queries, &SearchParams::default());
        assert_eq!(out.results.len(), w.queries.len());
    }
}
