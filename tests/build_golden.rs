//! Golden results of the graph build.
//!
//! NN-descent's k-NN lists (distance bits and ids), the CAGRA-optimized
//! graph built from them, and build-time greedy searches over that graph,
//! on one fixed world, must reproduce the recorded digests below. The
//! build's contract is that its output depends only on the data and the
//! seed: the same bits at every `PATHWEAVER_THREADS` count and every
//! `PATHWEAVER_SIMD` level. CI runs this file under the default, forced-
//! scalar, single-thread and four-thread settings.
//!
//! The world is chosen so NN-descent runs at least three rounds: the lists
//! after a two-round cap are pinned too, and differ from the full build's.
//! An intended algorithm change regenerates the constants from the failure
//! message, which prints the measured values.

use pathweaver::graph::{
    cagra_build, greedy_search, nn_descent, CagraBuildParams, NnDescentParams,
};
use pathweaver::util::small_rng;
use pathweaver::vector::VectorSet;
use rand::Rng;

const N: usize = 2500;
/// 28 dimensions: SIMD tails on every dispatch level.
const DIM: usize = 28;
const CLUSTERS: usize = 25;
const DEGREE: usize = 12;
const QUERIES: usize = 32;

/// Points scattered around random cluster centres, with wide enough noise
/// that clusters overlap and NN-descent needs several rounds to settle.
fn world() -> (VectorSet, VectorSet) {
    let mut rng = small_rng(0xb01d);
    let centres: Vec<Vec<f32>> =
        (0..CLUSTERS).map(|_| (0..DIM).map(|_| rng.gen_range(-4.0f32..4.0)).collect()).collect();
    let point = |rng: &mut rand::rngs::SmallRng| -> Vec<f32> {
        let c = &centres[rng.gen_range(0..CLUSTERS)];
        c.iter().map(|&x| x + rng.gen_range(-1.5f32..1.5)).collect()
    };
    let mut base = VectorSet::empty(DIM);
    for _ in 0..N {
        base.push(&point(&mut rng));
    }
    let mut queries = VectorSet::empty(DIM);
    for _ in 0..QUERIES {
        queries.push(&point(&mut rng));
    }
    (base, queries)
}

/// FNV-1a over a stream of 32-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u32) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of per-node `(distance, id)` lists, list by list.
fn lists_digest(lists: &[Vec<(f32, u32)>]) -> u64 {
    let mut h = Digest::new();
    for l in lists {
        h.eat(u32::MAX);
        for &(d, id) in l {
            h.eat(d.to_bits());
            h.eat(id);
        }
    }
    h.0
}

fn knn_params() -> NnDescentParams {
    let p = CagraBuildParams::with_degree(DEGREE);
    NnDescentParams { k: p.knn_degree, seed: 0x5eed, ..p.nn_descent }
}

/// Recorded digests, measured with the single-threaded build.
const KNN_FULL: u64 = 0x2ecb_0cb0_c725_9863;
const KNN_TWO_ROUNDS: u64 = 0x3585_0be0_9af8_7b56;
const GRAPH: u64 = 0x2c09_ae17_180d_eb9a;
const GREEDY: u64 = 0xe73a_33e4_9ed4_52ca;

#[test]
fn build_reproduces_its_recorded_output() {
    let (base, queries) = world();
    let params = knn_params();
    let full = nn_descent(&base, &params);
    let two = nn_descent(&base, &NnDescentParams { max_rounds: 2, ..params });

    let build = CagraBuildParams { nn_descent: params, ..CagraBuildParams::with_degree(DEGREE) };
    let graph = cagra_build(&base, &build);
    let mut g = Digest::new();
    for &v in graph.as_flat() {
        g.eat(v);
    }

    let hits: Vec<Vec<(f32, u32)>> = (0..QUERIES)
        .map(|q| greedy_search(&graph, &base, queries.row(q), &[0, 1, 2], 24, 10))
        .collect();

    let got = (lists_digest(&full), lists_digest(&two), g.0, lists_digest(&hits));
    assert_ne!(got.0, got.1, "NN-descent stopped within two rounds; the world is too easy");
    assert_eq!(
        got,
        (KNN_FULL, KNN_TWO_ROUNDS, GRAPH, GREEDY),
        "build output moved: knn 0x{:016x}, knn two rounds 0x{:016x}, graph 0x{:016x}, \
         greedy 0x{:016x}",
        got.0,
        got.1,
        got.2,
        got.3
    );
}
