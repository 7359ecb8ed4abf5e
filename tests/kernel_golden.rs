//! Golden results of the beam kernel.
//!
//! `search_batch` on one fixed world, under every neighbour filter and the
//! quantized traversal tier, must reproduce the same hits (distance bits and
//! ids), the same batch statistics and the same cost counters as the
//! recorded constants below. The simulated clock is computed from those
//! counters, so a change to the kernel's bookkeeping — queue, visited hash,
//! DGS ranking, the row-match kernel — that alters any of them changes the
//! paper's numbers; this test names the case and field that moved.
//!
//! The world is built without NN-descent (exact k-NN lists through the
//! CAGRA optimizer), so it is the same at every thread count and SIMD level.
//! An intended algorithm change regenerates the constants from the failure
//! message, which prints the measured values.

use pathweaver::gpusim::CostCounters;
use pathweaver::graph::cagra_opt::optimize;
use pathweaver::graph::{DirectionTable, FixedDegreeGraph};
use pathweaver::search::{
    search_batch, BatchStats, DgsParams, EntryPolicy, SearchParams, ShardContext,
};
use pathweaver::util::small_rng;
use pathweaver::vector::{l2_squared, QuantizedSet, VectorSet};
use rand::Rng;

const N: usize = 1200;
/// 40 dimensions: two code words with padding bits, and SIMD tails.
const DIM: usize = 40;
const DEGREE: usize = 24;
const QUERIES: usize = 24;

/// Uniform points in a 40-d cube: hard enough that the filters settle on
/// different hits.
fn world() -> (VectorSet, VectorSet, FixedDegreeGraph, DirectionTable, QuantizedSet) {
    let mut rng = small_rng(0x601d);
    let point = |rng: &mut rand::rngs::SmallRng| -> Vec<f32> {
        (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    };
    let mut base = VectorSet::empty(DIM);
    for _ in 0..N {
        base.push(&point(&mut rng));
    }
    let mut queries = VectorSet::empty(DIM);
    for _ in 0..QUERIES {
        queries.push(&point(&mut rng));
    }
    // Exact k-NN lists, ties broken by id, so the graph does not depend on
    // the build's thread schedule.
    let knn: Vec<Vec<(f32, u32)>> = (0..N)
        .map(|u| {
            let mut row: Vec<(f32, u32)> = (0..N)
                .filter(|&v| v != u)
                .map(|v| (l2_squared(base.row(u), base.row(v)), v as u32))
                .collect();
            row.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            row.truncate(2 * DEGREE);
            row
        })
        .collect();
    let graph = optimize(&knn, DEGREE, 7);
    let table = DirectionTable::build(&base, &graph);
    let quantized = QuantizedSet::quantize(&base);
    (base, queries, graph, table, quantized)
}

/// FNV-1a over every hit's distance bits and id, query by query.
fn hits_digest(hits: &[Vec<(f32, u32)>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for q in hits {
        eat(u32::MAX);
        for &(d, id) in q {
            eat(d.to_bits());
            eat(id);
        }
    }
    h
}

fn stats_fields(s: &BatchStats) -> [u64; 7] {
    [s.queries, s.iterations, s.visits, s.discarded, s.converged, s.filtered_neighbors, s.reranked]
}

fn counter_fields(c: &CostCounters) -> [u64; 14] {
    [
        c.dist_calcs,
        c.quant_dist_calcs,
        c.vector_bytes,
        c.graph_bytes,
        c.dir_table_bytes,
        c.sign_encodes,
        c.dir_compares,
        c.hash_probes,
        c.sort_ops,
        c.rng_ops,
        c.kernel_launches,
        c.iterations,
        c.nodes_visited,
        c.comm_bytes,
    ]
}

/// One recorded case: the hits digest, `stats_fields` and `counter_fields`
/// as measured before the kernel's bookkeeping was reworked.
struct Golden {
    name: &'static str,
    params: SearchParams,
    digest: u64,
    stats: [u64; 7],
    counters: [u64; 14],
}

fn cases() -> Vec<Golden> {
    let exact = SearchParams { beam: 32, candidates: 32, ..SearchParams::default() };
    let direction = SearchParams { dgs: Some(DgsParams::default()), ..exact };
    let threshold = SearchParams {
        dgs: Some(DgsParams { keep_ratio: 0.55, cooldown_ratio: 0.3, threshold_mode: true }),
        ..exact
    };
    let random = SearchParams { random_discard: true, ..direction };
    let quantized = SearchParams { quantized: true, ..direction };
    vec![
        Golden {
            name: "all",
            params: exact,
            digest: 0x24e3_9bdb_9e96_1d96,
            stats: [24, 160, 10635, 9867, 24, 0, 0],
            counters: [10635, 0, 1701600, 60960, 0, 0, 0, 16008, 14575, 768, 1, 160, 635, 0],
        },
        Golden {
            name: "direction",
            params: direction,
            digest: 0x63db_a903_9670_97bb,
            stats: [24, 174, 6137, 5369, 24, 8268, 0],
            counters: [
                6137, 0, 981920, 66144, 132288, 689, 16536, 9036, 95775, 768, 1, 174, 689, 0,
            ],
        },
        Golden {
            name: "threshold",
            params: threshold,
            digest: 0x02c2_61fa_9a2f_596c,
            stats: [24, 163, 8654, 7886, 24, 3278, 0],
            counters: [
                8654, 0, 1384640, 62112, 124224, 647, 15528, 13018, 14120, 768, 1, 163, 647, 0,
            ],
        },
        Golden {
            name: "random",
            params: random,
            digest: 0xfbee_912e_1616_5053,
            stats: [24, 217, 8129, 7361, 24, 10008, 0],
            counters: [8129, 0, 1300640, 80064, 0, 0, 0, 10776, 14130, 20784, 1, 217, 834, 0],
        },
        Golden {
            name: "quantized",
            params: quantized,
            digest: 0x63db_a903_9670_97bb,
            stats: [24, 174, 6157, 5389, 24, 8304, 768],
            counters: [
                768, 6157, 369160, 66432, 132864, 716, 16608, 9072, 99970, 768, 1, 174, 692, 0,
            ],
        },
    ]
}

#[test]
fn every_filter_reproduces_its_recorded_results() {
    let (base, queries, graph, table, quantized) = world();
    let ctx = ShardContext::new(&base, &graph, Some(&table)).with_quantized(Some(&quantized));
    let entries = [EntryPolicy::Random { count: 32 }];
    let mut failures = Vec::new();
    for case in cases() {
        let b = search_batch(&ctx, &queries, &case.params, &entries);
        let got = (hits_digest(&b.hits), stats_fields(&b.stats), counter_fields(&b.counters));
        if got != (case.digest, case.stats, case.counters) {
            failures.push(format!(
                "{}: digest 0x{:016x}, stats {:?}, counters {:?}",
                case.name, got.0, got.1, got.2
            ));
        }
    }
    assert!(failures.is_empty(), "kernel results moved:\n{}", failures.join("\n"));
}
