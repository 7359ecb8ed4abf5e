//! Seeded workload inputs — base, query and held-out insert vectors plus
//! exact ground truth — cached on disk by (profile, sizes, seed).
//!
//! Generation (dominated by the brute-force ground truth) runs in a child
//! process, so the measuring process always loads the same files the same
//! way: its set-up time and peak memory do not depend on whether the cache
//! was warm.

use pathweaver_datasets::io::{read_fvecs_file, read_ivecs, write_fvecs, write_ivecs};
use pathweaver_datasets::query::split_queries;
use pathweaver_datasets::{brute_force_knn, DatasetProfile, Scale, SyntheticSpec};
use pathweaver_util::seed_from_parts;
use pathweaver_vector::VectorSet;
use std::path::{Path, PathBuf};

/// Neighbours per query in the ground truth (and `k` of every search).
pub const K: usize = 10;

/// What to generate.
#[derive(Debug, Clone)]
pub struct InputSpec {
    pub profile: DatasetProfile,
    pub queries: usize,
    pub inserts: usize,
    pub seed: u64,
}

/// Loaded inputs. `base` row `i` has global id `i` in a built index.
pub struct Inputs {
    pub base: VectorSet,
    pub queries: VectorSet,
    /// Vectors from the same distribution, held out of both the base and
    /// the query set, for the writer to insert.
    pub inserts: VectorSet,
    /// Exact top-`K` base ids per query, ascending by distance.
    pub ground_truth: Vec<Vec<u32>>,
}

impl InputSpec {
    fn key(&self) -> String {
        format!(
            "{}-n{}-q{}-i{}-s{}",
            self.profile.name,
            self.profile.len_at(Scale::Bench),
            self.queries,
            self.inserts,
            self.seed
        )
    }

    pub fn dir(&self, cache: &Path) -> PathBuf {
        cache.join(self.key())
    }

    /// Generates the inputs and writes them under `cache`, atomically: a
    /// half-written directory is never visible under the final name.
    pub fn prepare(&self, cache: &Path) -> Result<(), String> {
        let held = self.queries + self.inserts;
        let spec =
            self.profile.base_spec(Scale::Bench, seed_from_parts(self.seed, self.profile.name, 0));
        let all = SyntheticSpec { len: spec.len + held, ..spec }.generate();
        let (base, held_out) =
            split_queries(&all, held, seed_from_parts(self.seed, "query-split", 1));
        let queries = held_out.gather(&(0..self.queries).collect::<Vec<_>>());
        let inserts = held_out.gather(&(self.queries..held).collect::<Vec<_>>());
        let gt = brute_force_knn(&base, &queries, K);
        let lists: Vec<Vec<u32>> =
            (0..gt.num_queries()).map(|q| gt.neighbors(q).to_vec()).collect();

        let tmp = cache.join(format!("{}.tmp-{}", self.key(), std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        let write = |name: &str, set: &VectorSet| -> Result<(), String> {
            let f = std::fs::File::create(tmp.join(name)).map_err(|e| format!("{name}: {e}"))?;
            write_fvecs(std::io::BufWriter::new(f), set).map_err(|e| format!("{name}: {e}"))
        };
        write("base.fvecs", &base)?;
        write("queries.fvecs", &queries)?;
        write("inserts.fvecs", &inserts)?;
        let f = std::fs::File::create(tmp.join("gt.ivecs")).map_err(|e| format!("gt: {e}"))?;
        write_ivecs(std::io::BufWriter::new(f), &lists).map_err(|e| format!("gt: {e}"))?;
        std::fs::rename(&tmp, self.dir(cache)).map_err(|e| format!("publish cache: {e}"))
    }

    /// Loads cached inputs, or `None` when they are not cached yet.
    pub fn load(&self, cache: &Path) -> Result<Option<Inputs>, String> {
        let dir = self.dir(cache);
        if !dir.join("gt.ivecs").exists() {
            return Ok(None);
        }
        let read =
            |name: &str| read_fvecs_file(dir.join(name), None).map_err(|e| format!("{name}: {e}"));
        let base = read("base.fvecs")?;
        let queries = read("queries.fvecs")?;
        let inserts = if self.inserts > 0 {
            read("inserts.fvecs")?
        } else {
            VectorSet::from_flat(base.dim(), Vec::new())
        };
        let f = std::fs::File::open(dir.join("gt.ivecs")).map_err(|e| format!("gt: {e}"))?;
        let ground_truth =
            read_ivecs(std::io::BufReader::new(f), None).map_err(|e| format!("gt: {e}"))?;
        let shape_ok = base.len() == self.profile.len_at(Scale::Bench)
            && queries.len() == self.queries
            && inserts.len() == self.inserts
            && ground_truth.len() == self.queries
            && ground_truth.iter().all(|g| g.len() == K);
        if !shape_ok {
            return Err(format!("cached inputs in {} have the wrong shape", dir.display()));
        }
        Ok(Some(Inputs { base, queries, inserts, ground_truth }))
    }
}
