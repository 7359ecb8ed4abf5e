//! Fault-injection gate for the multi-node cluster layer, emitting
//! machine-readable `cluster_report.json`.
//!
//! Partitioned indexes are built once; every case then boots a fresh local
//! cluster (in-process channel transport, plus two TCP loopback cases) with
//! a scripted fault assignment and pushes query batches through the router:
//!
//! - **Identity**: a 1-node cluster must answer bit-identically to
//!   `serve_once` — same hits, same result ids, same simulated makespan
//!   bits.
//! - **Replica kill mid-batch**: a node swallows a request at a seeded
//!   ordinal and dies; every batch must still return the exact merged
//!   top-k via a sibling replica, with zero failed queries.
//! - **Torn frames**: a node truncates responses at seeded ordinals
//!   mid-frame; the router must detect the tear and fail over.
//! - **Timeout storm**: a node delays every response far beyond the request
//!   budget; the router must time out, mark it dead, and reroute.
//! - **Combinations**: crash + torn + storm spread over a 3-way replicated
//!   cluster, and multi-partition variants of each.
//!
//! A case fails on any router error while a live replica remains, any hit
//! list differing from the single-node reference by even one bit, or a
//! panic. The gate requires **zero failed queries** across the whole
//! matrix.
//!
//! Environment: `PATHWEAVER_CLUSTER_SEED` (default 77) seeds the fuzzed
//! fault ordinals; `PATHWEAVER_CLUSTER_OUT` overrides the report path
//! (default `target/cluster_report.json`).

use std::collections::BTreeSet;

use pathweaver_bench::gate::{seed_from_env, Gate};
use pathweaver_core::cluster::{
    build_partitions, reference_merged, ClusterPartition, DelayWindow, FaultScript, LocalCluster,
    TransportKind,
};
use pathweaver_core::config::ClusterConfig;
use pathweaver_core::serve::serve_once;
use pathweaver_core::PathWeaverConfig;
use pathweaver_datasets::{DatasetProfile, Scale};
use pathweaver_search::SearchParams;
use pathweaver_vector::VectorSet;
use rand::Rng;
use serde_json::json;

/// One case's cluster shape + scripted faults.
struct CaseSpec<'a> {
    label: String,
    parts: &'a [ClusterPartition],
    reference: &'a [Vec<(f32, u32)>],
    nodes: usize,
    replication: usize,
    transport: TransportKind,
    faults: Vec<FaultScript>,
    batches: usize,
    /// Shrink the per-request budget for timeout cases.
    request_timeout_ms: u64,
    /// Expect at least one failover across the batches.
    expect_failover: bool,
}

/// The fault matrix: the shared gate skeleton plus the query load.
struct Matrix {
    checks: Gate,
    load: Load,
}

struct Load {
    queries: VectorSet,
    params: SearchParams,
    queries_served: u64,
    failovers_seen: u64,
}

impl Matrix {
    fn run_case(&mut self, spec: CaseSpec<'_>) {
        let Self { checks, load } = self;
        checks.case(&spec.label, || load.drive(&spec));
    }
}

impl Load {
    /// Boots the cluster, pushes the batches, checks every hit bitwise.
    fn drive(&mut self, spec: &CaseSpec<'_>) -> Result<(), String> {
        let config = ClusterConfig {
            partitions: spec.parts.len(),
            replication: spec.replication,
            request_timeout_ms: spec.request_timeout_ms,
            ..ClusterConfig::default()
        };
        let cluster = LocalCluster::launch_with_partitions(
            spec.parts,
            &config,
            spec.nodes,
            spec.transport,
            &spec.faults,
        )
        .map_err(|e| format!("bootstrap: {e}"))?;
        let mut failovers = 0;
        let result = (0..spec.batches).try_for_each(|batch| {
            let out = cluster
                .router()
                .search(&self.queries, &self.params)
                .map_err(|e| format!("batch {batch}: router error: {e}"))?;
            failovers += out.failovers;
            self.queries_served += self.queries.len() as u64;
            compare_hits(&out.hits, spec.reference).map_err(|d| format!("batch {batch}: {d}"))
        });
        self.failovers_seen += failovers;
        cluster.shutdown();
        result?;
        if spec.expect_failover && failovers == 0 {
            return Err("expected at least one failover, saw none".into());
        }
        Ok(())
    }
}

/// Bitwise hit-list comparison; `Err` pinpoints the first divergence.
fn compare_hits(got: &[Vec<(f32, u32)>], want: &[Vec<(f32, u32)>]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("query count {} != {}", got.len(), want.len()));
    }
    for (q, (g, w)) in got.iter().zip(want).enumerate() {
        if g.len() != w.len() {
            return Err(format!("query {q}: {} hits != {}", g.len(), w.len()));
        }
        for (rank, (&(gd, gi), &(wd, wi))) in g.iter().zip(w).enumerate() {
            if gi != wi || gd.to_bits() != wd.to_bits() {
                return Err(format!("query {q} rank {rank}: got ({gd}, {gi}), want ({wd}, {wi})"));
            }
        }
    }
    Ok(())
}

fn crash(at: u64) -> FaultScript {
    FaultScript { crash_after_requests: Some(at), ..FaultScript::default() }
}

fn torn(ordinals: impl IntoIterator<Item = u64>) -> FaultScript {
    FaultScript {
        torn_responses: ordinals.into_iter().collect::<BTreeSet<_>>(),
        ..Default::default()
    }
}

fn storm(delay_ms: u64) -> FaultScript {
    FaultScript {
        delay: Some(DelayWindow { from: 0, to: u64::MAX, delay_ms }),
        ..FaultScript::default()
    }
}

fn main() {
    let seed = seed_from_env("PATHWEAVER_CLUSTER_SEED", 77);
    let mut rng = pathweaver_util::small_rng(seed);

    let workload = DatasetProfile::deep10m_like().workload(Scale::Test, 8, 10, 23);
    let index_config = PathWeaverConfig::test_scale(2);
    let full = build_partitions(&workload.base, &index_config, 1).expect("1-partition build");
    let halves = build_partitions(&workload.base, &index_config, 2).expect("2-partition build");
    let params = SearchParams::default();
    let single = serve_once(&full[0].index, &workload.queries, &params).expect("reference serve");
    let merged = reference_merged(&halves, &workload.queries, &params).expect("reference merge");
    println!(
        "check_cluster: seed {seed}, {} base vectors, {} queries per batch",
        workload.base.len(),
        workload.queries.len()
    );

    let load = Load { queries: workload.queries, params, queries_served: 0, failovers_seen: 0 };
    let mut gate = Matrix { checks: Gate::new("check_cluster", seed), load };

    // Identity: 1 node must be bit-identical to serve_once, down to the
    // simulated makespan, on both transports.
    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        let config = ClusterConfig { partitions: 1, ..ClusterConfig::default() };
        let Matrix { checks, load } = &mut gate;
        checks.case(&format!("identity-{transport:?}"), || {
            let out = LocalCluster::launch_with_partitions(&full, &config, 1, transport, &[])
                .and_then(|cluster| {
                    let out = cluster.router().search(&load.queries, &load.params)?;
                    cluster.shutdown();
                    Ok(out)
                })
                .map_err(|e| format!("router error: {e}"))?;
            load.queries_served += load.queries.len() as u64;
            compare_hits(&out.hits, &single.hits)?;
            if out.results != single.results {
                return Err("result ids diverged".to_string());
            }
            if out.makespan_s.to_bits() != single.makespan_s.to_bits() {
                return Err("simulated makespan bits diverged".to_string());
            }
            Ok(())
        });
    }

    // Replica kill mid-batch: one of two replicas swallows a request at a
    // seeded ordinal and dies. Every batch must still come back exact. The
    // rotating fan-out hands the victim a request every other batch, so 6
    // batches guarantee any ordinal < 2 trips.
    for round in 0..4 {
        let at = rng.gen_range(0..2);
        let victim = rng.gen_range(0..2);
        let mut faults = vec![FaultScript::default(), FaultScript::default()];
        faults[victim] = crash(at);
        gate.run_case(CaseSpec {
            label: format!("kill-{round}@node{victim}+{at}"),
            parts: &full,
            reference: &single.hits,
            nodes: 2,
            replication: 2,
            transport: TransportKind::Channel,
            faults,
            batches: 6,
            request_timeout_ms: 2_000,
            expect_failover: true,
        });
    }

    // Torn frames: seeded response ordinals truncated mid-frame, on the
    // channel transport and once over real TCP sockets.
    // The torn node sees every other batch while alive, so 6 batches reach
    // any ordinal < 3 before the tear gets it marked dead.
    for round in 0..4 {
        let ordinals: BTreeSet<u64> =
            (0..rng.gen_range(1..3u64)).map(|_| rng.gen_range(0..3)).collect();
        let transport = if round == 0 { TransportKind::Tcp } else { TransportKind::Channel };
        gate.run_case(CaseSpec {
            label: format!("torn-{round}@{ordinals:?}-{transport:?}"),
            parts: &full,
            reference: &single.hits,
            nodes: 2,
            replication: 2,
            transport,
            faults: vec![torn(ordinals), FaultScript::default()],
            batches: 6,
            request_timeout_ms: 2_000,
            expect_failover: true,
        });
    }

    // Timeout storm: a replica delays every response far past the budget.
    for round in 0..2 {
        let delay = 300 + rng.gen_range(0..200);
        gate.run_case(CaseSpec {
            label: format!("storm-{round}+{delay}ms"),
            parts: &full,
            reference: &single.hits,
            nodes: 2,
            replication: 2,
            transport: TransportKind::Channel,
            faults: vec![storm(delay), FaultScript::default()],
            batches: 2,
            request_timeout_ms: 60,
            expect_failover: true,
        });
    }

    // Combination: crash + torn + storm spread over three replicas — the
    // single clean node must carry every batch exactly.
    gate.run_case(CaseSpec {
        label: "combo-crash+torn+storm".into(),
        parts: &full,
        reference: &single.hits,
        nodes: 4,
        replication: 4,
        transport: TransportKind::Channel,
        faults: vec![crash(0), torn([0, 1]), storm(400), FaultScript::default()],
        batches: 3,
        request_timeout_ms: 60,
        expect_failover: true,
    });

    // Multi-partition: the same faults must never bend the cross-partition
    // merge while each partition keeps a live replica.
    gate.run_case(CaseSpec {
        label: "partitions-clean".into(),
        parts: &halves,
        reference: &merged,
        nodes: 3,
        replication: 2,
        transport: TransportKind::Channel,
        faults: Vec::new(),
        batches: 2,
        request_timeout_ms: 2_000,
        expect_failover: false,
    });
    // Full replication here so every node is in every partition's rotation
    // and the seeded victim is guaranteed to see its crash ordinal.
    for round in 0..2 {
        let victim = rng.gen_range(0..3);
        let mut faults = vec![FaultScript::default(); 3];
        faults[victim] = crash(rng.gen_range(0..2));
        gate.run_case(CaseSpec {
            label: format!("partitions-kill-{round}@node{victim}"),
            parts: &halves,
            reference: &merged,
            nodes: 3,
            replication: 3,
            transport: TransportKind::Channel,
            faults,
            batches: 4,
            request_timeout_ms: 2_000,
            expect_failover: true,
        });
    }
    gate.run_case(CaseSpec {
        label: "partitions-torn".into(),
        parts: &halves,
        reference: &merged,
        nodes: 3,
        replication: 2,
        transport: TransportKind::Channel,
        faults: vec![torn([0, 2]), FaultScript::default(), torn([1])],
        batches: 3,
        request_timeout_ms: 2_000,
        expect_failover: true,
    });

    let Matrix { checks, load } = gate;
    let fields = [
        ("queries_served", json!(load.queries_served)),
        ("failovers", json!(load.failovers_seen)),
        ("failed_queries", json!(checks.failure_count())),
    ];
    checks.finish(
        &fields,
        &[(load.queries_served, "queries served"), (load.failovers_seen, "failovers")],
        "PATHWEAVER_CLUSTER_OUT",
        "target/cluster_report.json",
        "fault matrix found contract violations",
    );
}
