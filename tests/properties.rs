//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary (small) workloads.

use pathweaver::datasets::{brute_force_knn, recall_batch, Distribution, SyntheticSpec};
use pathweaver::prelude::*;
use pathweaver::search::{EntryPolicy, ShardContext};
use pathweaver::vector::l2_squared;
use proptest::prelude::*;

/// A small searchable world for property tests.
fn world(n: usize, dim: usize, clusters: usize, seed: u64) -> pathweaver::vector::VectorSet {
    SyntheticSpec { dim, len: n, distribution: Distribution::Gmm { clusters, std: 0.25 }, seed }
        .generate()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn search_results_always_sorted_unique_and_in_range(
        seed in 0u64..1000,
        n in 300usize..600,
        dim in 4usize..24,
    ) {
        let base = world(n, dim, 5, seed);
        let queries = world(6, dim, 5, seed + 1);
        let idx = PathWeaverIndex::build(&base, &PathWeaverConfig::test_scale(2)).unwrap();
        let out = idx.search_pipelined(&queries, &SearchParams::default());
        for hits in &out.hits {
            prop_assert!(hits.len() <= 10);
            prop_assert!(hits.windows(2).all(|w| w[0].0 <= w[1].0), "unsorted");
            let ids: std::collections::HashSet<u32> = hits.iter().map(|h| h.1).collect();
            prop_assert_eq!(ids.len(), hits.len(), "duplicates");
            prop_assert!(hits.iter().all(|h| (h.1 as usize) < n), "id out of range");
        }
    }

    #[test]
    fn reported_distances_are_true_distances(
        seed in 0u64..1000,
    ) {
        let base = world(400, 8, 4, seed);
        let queries = world(4, 8, 4, seed + 9);
        let idx = PathWeaverIndex::build(&base, &PathWeaverConfig::test_scale(2)).unwrap();
        let out = idx.search_pipelined(&queries, &SearchParams::default());
        for (q, hits) in out.hits.iter().enumerate() {
            for &(d, id) in hits {
                let truth = l2_squared(base.row(id as usize), queries.row(q));
                prop_assert!((d - truth).abs() <= 1e-3 * truth.max(1.0),
                    "hit distance {d} disagrees with true {truth}");
            }
        }
    }

    #[test]
    fn exhaustive_beam_equals_brute_force(
        seed in 0u64..500,
    ) {
        // With beam = n and unlimited iterations on a connected graph, the
        // kernel must find the exact top-k.
        let n = 250usize;
        let base = world(n, 6, 3, seed);
        let queries = world(3, 6, 3, seed + 5);
        let gt = brute_force_knn(&base, &queries, 5);
        let graph = pathweaver::graph::cagra_build(
            &base,
            &pathweaver::graph::CagraBuildParams::with_degree(16),
        );
        let ctx = ShardContext::new(&base, &graph, None);
        let params = SearchParams {
            k: 5,
            beam: n,
            candidates: n,
            expand: 8,
            max_iterations: 10 * n,
            hash_bits: 12,
            // Disable the convergence heuristic: this test checks the
            // exhaustive limit, so the loop must only stop when the whole
            // beam has been expanded.
            patience: usize::MAX,
            ..SearchParams::default()
        };
        let batch = pathweaver::search::search_batch(
            &ctx,
            &queries,
            &params,
            &[EntryPolicy::Random { count: n }],
        );
        let results: Vec<Vec<u32>> =
            batch.hits.iter().map(|h| h.iter().map(|&(_, id)| id).collect()).collect();
        let recall = recall_batch(&gt, &results, 5);
        prop_assert!(recall >= 0.99, "exhaustive search recall {recall}");
    }

    #[test]
    fn insert_then_delete_restores_results(
        seed in 0u64..500,
    ) {
        let base = world(350, 8, 4, seed);
        let queries = world(4, 8, 4, seed + 3);
        let idx = PathWeaverIndex::build(&base, &PathWeaverConfig::test_scale(2)).unwrap();
        let params = SearchParams::default();
        let ci = ConcurrentIndex::new(idx);
        let before = ci.pin().index().search_pipelined(&queries, &params);
        // Insert a decoy exactly on top of query 0, then tombstone it: the
        // final results must match the original ones.
        let decoy: Vec<f32> = queries.row(0).to_vec();
        let id = ci.insert(&decoy).unwrap();
        let with_decoy = ci.pin().index().search_pipelined(&queries, &params);
        prop_assert!(with_decoy.results[0].contains(&id), "decoy not found after insert");
        prop_assert_eq!(ci.delete_outcome(id).unwrap(), DeleteOutcome::Applied);
        let after = ci.pin().index().search_pipelined(&queries, &params);
        prop_assert!(!after.results[0].contains(&id), "tombstoned decoy returned");
        // Insertion permanently rewires a few reverse edges, so the graph is
        // not byte-identical afterwards; results must still agree closely.
        prop_assert_eq!(after.results[0][0], before.results[0][0], "top-1 must be stable");
        let b: std::collections::HashSet<u32> = before.results[0].iter().copied().collect();
        let overlap = after.results[0].iter().filter(|id| b.contains(id)).count();
        prop_assert!(overlap + 2 >= before.results[0].len(),
            "results drifted too far: {overlap}/{}", before.results[0].len());
    }
}
