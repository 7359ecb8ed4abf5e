//! `pwctl` — command-line front end for the PathWeaver library.
//!
//! ```text
//! pwctl synth  --profile deep10m-like --scale bench --out base.fvecs
//! pwctl gt     --base base.fvecs --queries q.fvecs --k 10 --out gt.ivecs
//! pwctl build  --base base.fvecs --devices 4 [--degree 32] [--no-ghost]
//!              [--no-dgs] --out index-dir
//! pwctl search --index index-dir --queries q.fvecs [--k 10] [--beam 64]
//!              [--dgs] [--naive] [--quantized] [--out results.ivecs]
//! pwctl eval    --results results.ivecs --gt gt.ivecs --k 10
//! pwctl info    --index index-dir
//! pwctl verify  --index index-dir
//! pwctl compact --index index-dir
//! pwctl cluster --base base.fvecs --queries q.fvecs [--nodes 2]
//!               [--partitions 1] [--replication 2] [--devices 2]
//!               [--batches 4] [--k 10] [--beam 64] [--tcp]
//! ```
//!
//! All vector files use the TexMex `fvecs`/`ivecs` formats, so the real
//! Sift/Gist/Deep corpora work directly. `verify` checksum-audits a store
//! without loading it; `compact` folds the write-ahead log into a fresh
//! segment.
//! `cluster` boots an in-process multi-node cluster (partitioned, replicated
//! node processes behind the frame RPC layer — TCP loopback with `--tcp`,
//! the deterministic channel transport otherwise), routes query batches
//! through it, and reports per-node load, failovers and simulated QPS.

use pathweaver_core::prelude::*;
use pathweaver_core::store::{load_index, save_index, verify_store};
use pathweaver_datasets::io::{read_fvecs_file, read_ivecs, write_fvecs, write_ivecs};
use pathweaver_datasets::recall_at_k;
use std::collections::BTreeMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: pwctl <synth|gt|build|search|eval|info|verify|compact|cluster> [--flag value ...]"
    );
    eprintln!("run with a subcommand and no flags for its specific usage");
    exit(2)
}

/// Parses `--key value` pairs (plus bare `--key` switches) after the
/// subcommand.
fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].strip_prefix("--").unwrap_or_else(|| usage()).to_string();
        if i + 1 < args.len() && !args[i + 1].starts_with("--") {
            flags.insert(key, args[i + 1].clone());
            i += 2;
        } else {
            flags.insert(key, String::from("true"));
            i += 1;
        }
    }
    flags
}

fn req<'a>(flags: &'a BTreeMap<String, String>, key: &str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or_else(|| {
        eprintln!("missing required flag --{key}");
        exit(2)
    })
}

fn opt_parse<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{key}: {v}");
            exit(2)
        }),
    }
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    exit(1)
}

/// Writes one line to stdout, the only way this binary prints results. A
/// closed stdout (`pwctl search ... | head -2`) ends the program quietly
/// with status 0; any other write error is a one-line [`fail`].
fn out_line(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0)
        }
        fail(format!("writing to stdout: {e}"))
    }
}

macro_rules! outln {
    ($($arg:tt)*) => {
        out_line(format_args!($($arg)*))
    };
}

fn profile_by_name(name: &str) -> DatasetProfile {
    DatasetProfile::all().into_iter().find(|p| p.name == name).unwrap_or_else(|| {
        eprintln!("unknown profile '{name}'; available:");
        for p in DatasetProfile::all() {
            eprintln!("  {}", p.name);
        }
        exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { usage() };
    let flags = parse_flags(rest);
    match cmd.as_str() {
        "synth" => synth(&flags),
        "gt" => gt(&flags),
        "build" => build(&flags),
        "search" => search(&flags),
        "eval" => eval(&flags),
        "info" => info(&flags),
        "verify" => verify(&flags),
        "compact" => compact(&flags),
        "cluster" => cluster(&flags),
        _ => usage(),
    }
}

fn synth(flags: &BTreeMap<String, String>) {
    let profile = profile_by_name(req(flags, "profile"));
    let scale = match flags.get("scale").map(String::as_str) {
        Some("test") => Scale::Test,
        None | Some("bench") => Scale::Bench,
        Some(other) => fail(format!("unknown scale '{other}'")),
    };
    let queries = opt_parse(flags, "queries", 0usize);
    let seed = opt_parse(flags, "seed", 42u64);
    let spec = profile.base_spec(scale, seed);
    let spec = pathweaver_datasets::SyntheticSpec { len: spec.len + queries, ..spec };
    let all = spec.generate();
    let out = req(flags, "out");
    if queries > 0 {
        let (base, qs) = pathweaver_datasets::query::split_queries(&all, queries, seed ^ 1);
        write_fvecs(std::fs::File::create(out).unwrap_or_else(|e| fail(e)), &base)
            .unwrap_or_else(|e| fail(e));
        let qout = format!("{out}.queries");
        write_fvecs(std::fs::File::create(&qout).unwrap_or_else(|e| fail(e)), &qs)
            .unwrap_or_else(|e| fail(e));
        outln!("wrote {} base vectors to {out} and {queries} queries to {qout}", base.len());
    } else {
        write_fvecs(std::fs::File::create(out).unwrap_or_else(|e| fail(e)), &all)
            .unwrap_or_else(|e| fail(e));
        outln!("wrote {} vectors (dim {}) to {out}", all.len(), all.dim());
    }
}

fn gt(flags: &BTreeMap<String, String>) {
    let base = read_fvecs_file(req(flags, "base"), None).unwrap_or_else(|e| fail(e));
    let queries = read_fvecs_file(req(flags, "queries"), None).unwrap_or_else(|e| fail(e));
    let k = opt_parse(flags, "k", 10usize);
    let sw = pathweaver_obs::Stopwatch::start();
    let gt = pathweaver_datasets::brute_force_knn(&base, &queries, k);
    let records: Vec<Vec<u32>> = (0..gt.num_queries()).map(|q| gt.neighbors(q).to_vec()).collect();
    let out = req(flags, "out");
    write_ivecs(std::fs::File::create(out).unwrap_or_else(|e| fail(e)), &records)
        .unwrap_or_else(|e| fail(e));
    outln!(
        "wrote exact top-{k} of {} queries over {} vectors to {out} ({:.1}s)",
        queries.len(),
        base.len(),
        sw.elapsed_secs()
    );
}

fn build(flags: &BTreeMap<String, String>) {
    let base = read_fvecs_file(req(flags, "base"), None).unwrap_or_else(|e| fail(e));
    let devices = opt_parse(flags, "devices", 1usize);
    let degree = opt_parse(flags, "degree", 32usize);
    let mut config = PathWeaverConfig::full(devices);
    config.graph = pathweaver::graph_params(degree);
    if flags.contains_key("no-ghost") {
        config.ghost = None;
    }
    if flags.contains_key("no-dgs") {
        config.build_dir_table = false;
    }
    let sw = pathweaver_obs::Stopwatch::start();
    let index = PathWeaverIndex::build(&base, &config).unwrap_or_else(|e| fail(e));
    let out = req(flags, "out");
    save_index(&index, out).unwrap_or_else(|e| fail(e));
    outln!(
        "built {} shards over {} vectors in {:.1}s ({:.1}% auxiliary overhead); saved to {out}",
        devices,
        base.len(),
        sw.elapsed_secs(),
        index.build_report.overhead_fraction() * 100.0
    );
}

/// Tiny indirection so the binary reads naturally above.
mod pathweaver {
    pub fn graph_params(degree: usize) -> pathweaver_graph::CagraBuildParams {
        pathweaver_graph::CagraBuildParams::with_degree(degree)
    }
}

fn search(flags: &BTreeMap<String, String>) {
    let index = load_index(req(flags, "index")).unwrap_or_else(|e| fail(e));
    let queries = read_fvecs_file(req(flags, "queries"), None).unwrap_or_else(|e| fail(e));
    if queries.dim() != index.dim() {
        fail(format!(
            "query dimensionality {} does not match the index ({})",
            queries.dim(),
            index.dim()
        ));
    }
    let k = opt_parse(flags, "k", 10usize);
    let beam = opt_parse(flags, "beam", 64usize);
    let mut params = SearchParams {
        k,
        beam,
        candidates: beam,
        expand: (beam / 16).max(4),
        hash_bits: 15,
        ..SearchParams::default()
    };
    if flags.contains_key("dgs") {
        params.dgs = Some(DgsParams::default());
    }
    if flags.contains_key("quantized") {
        params.quantized = true;
    }
    let out = if flags.contains_key("naive") {
        index.search_naive(&queries, &params)
    } else {
        index.search_pipelined(&queries, &params)
    };
    outln!(
        "searched {} queries: simulated makespan {:.3} ms, sim-QPS {:.0}",
        queries.len(),
        out.makespan_s * 1e3,
        out.qps
    );
    outln!(
        "time split: {:.1}% L2 / {:.1}% rest / {:.1}% comm",
        100.0 * out.breakdown.dist_s / out.breakdown.total_s().max(f64::MIN_POSITIVE),
        100.0 * out.breakdown.other_s / out.breakdown.total_s().max(f64::MIN_POSITIVE),
        100.0 * out.breakdown.comm_s / out.breakdown.total_s().max(f64::MIN_POSITIVE),
    );
    if let Some(path) = flags.get("out") {
        write_ivecs(std::fs::File::create(path).unwrap_or_else(|e| fail(e)), &out.results)
            .unwrap_or_else(|e| fail(e));
        outln!("wrote result ids to {path}");
    } else {
        for (q, hits) in out.results.iter().enumerate().take(5) {
            outln!("query {q}: {hits:?}");
        }
        if out.results.len() > 5 {
            outln!("... ({} more; use --out to save all)", out.results.len() - 5);
        }
    }
}

fn eval(flags: &BTreeMap<String, String>) {
    let results =
        read_ivecs(std::fs::File::open(req(flags, "results")).unwrap_or_else(|e| fail(e)), None)
            .unwrap_or_else(|e| fail(e));
    let truth = read_ivecs(std::fs::File::open(req(flags, "gt")).unwrap_or_else(|e| fail(e)), None)
        .unwrap_or_else(|e| fail(e));
    if results.len() != truth.len() {
        fail(format!("result count {} != ground-truth count {}", results.len(), truth.len()));
    }
    let k = opt_parse(flags, "k", 10usize);
    let mean: f64 = results.iter().zip(&truth).map(|(r, t)| recall_at_k(t, r, k)).sum::<f64>()
        / results.len().max(1) as f64;
    outln!("recall@{k} = {mean:.4} over {} queries", results.len());
}

fn verify(flags: &BTreeMap<String, String>) {
    let dir = req(flags, "index");
    let report = verify_store(dir).unwrap_or_else(|e| fail(e));
    outln!(
        "{dir}: segment store OK — {} sections, {} checksum-verified; \
         wal: {} records, {} torn bytes",
        report.sections,
        pathweaver_util::fmt::bytes(report.segment_bytes as f64),
        report.wal_records,
        report.wal_torn_bytes,
    );
    if report.wal_torn_bytes > 0 {
        outln!("note: the torn tail is an expected crash artifact; opening the store repairs it");
    }
}

fn compact(flags: &BTreeMap<String, String>) {
    let dir = req(flags, "index");
    let sw = pathweaver_obs::Stopwatch::start();
    // Opening replays the WAL; the writer's fold writes a fresh segment and
    // resets the WAL.
    let store = DurableIndex::open(dir).unwrap_or_else(|e| fail(e));
    ConcurrentIndex::durable(store).compact().unwrap_or_else(|e| fail(e));
    outln!("compacted {dir} in {:.1}s (wal folded into a fresh segment)", sw.elapsed_secs());
}

/// Boots an in-process cluster over the given dataset and routes query
/// batches through it: partitions spread over `--nodes` node processes with
/// `--replication`-way replicas, behind the frame RPC layer (TCP loopback
/// with `--tcp`, the deterministic channel transport otherwise). A 1-node
/// cluster answers bit-identically to `serve_once`; more nodes spread the
/// load, visible in the per-node busy times printed at the end.
fn cluster(flags: &BTreeMap<String, String>) {
    let base = read_fvecs_file(req(flags, "base"), None).unwrap_or_else(|e| fail(e));
    let queries = read_fvecs_file(req(flags, "queries"), None).unwrap_or_else(|e| fail(e));
    if queries.dim() != base.dim() {
        fail(format!(
            "query dimensionality {} does not match the base vectors ({})",
            queries.dim(),
            base.dim()
        ));
    }
    let nodes = opt_parse(flags, "nodes", 2usize);
    let partitions = opt_parse(flags, "partitions", 1usize);
    let replication = opt_parse(flags, "replication", nodes.min(2));
    let devices = opt_parse(flags, "devices", 2usize);
    let batches = opt_parse(flags, "batches", 4usize);
    let k = opt_parse(flags, "k", 10usize);
    let beam = opt_parse(flags, "beam", 64usize);
    let transport =
        if flags.contains_key("tcp") { TransportKind::Tcp } else { TransportKind::Channel };

    let index_config = PathWeaverConfig::full(devices);
    let cluster_config = ClusterConfig { partitions, replication, ..ClusterConfig::default() };
    let params = SearchParams {
        k,
        beam,
        candidates: beam,
        expand: (beam / 16).max(4),
        hash_bits: 15,
        ..SearchParams::default()
    };

    let sw = pathweaver_obs::Stopwatch::start();
    let cluster = LocalCluster::launch(&base, &index_config, &cluster_config, nodes, transport)
        .unwrap_or_else(|e| fail(e));
    outln!(
        "cluster up in {:.1}s: {} nodes ({:?}), {} partitions x {} replicas; placement {:?}",
        sw.elapsed_secs(),
        nodes,
        transport,
        partitions,
        replication,
        cluster.router().placement(),
    );

    let mut total_queries = 0u64;
    let mut failovers = 0u64;
    for batch in 0..batches {
        let out = cluster.router().search(&queries, &params).unwrap_or_else(|e| fail(e));
        total_queries += queries.len() as u64;
        failovers += out.failovers;
        outln!(
            "batch {batch}: {} queries, simulated makespan {:.3} ms, {} rpc attempts",
            queries.len(),
            out.makespan_s * 1e3,
            out.attempts,
        );
    }
    let busy = cluster.router().node_busy_s();
    let max_busy = busy.iter().copied().fold(0.0f64, f64::max);
    for (node, b) in busy.iter().enumerate() {
        outln!("node {node}: {:.3} ms simulated busy time", b * 1e3);
    }
    outln!(
        "served {total_queries} queries over {batches} batches: sim-QPS {:.0}, {failovers} failovers, {} / {} nodes alive",
        total_queries as f64 / max_busy.max(f64::MIN_POSITIVE),
        cluster.router().alive().iter().filter(|&&a| a).count(),
        nodes,
    );
    cluster.shutdown();
}

fn info(flags: &BTreeMap<String, String>) {
    let index = load_index(req(flags, "index")).unwrap_or_else(|e| fail(e));
    outln!(
        "PathWeaver index: {} vectors (dim {}), {} shards",
        index.num_vectors,
        index.dim(),
        index.num_devices()
    );
    for (s, shard) in index.shards.iter().enumerate() {
        let resident: u64 = shard.resident_bytes().iter().map(|(_, b)| b).sum();
        outln!(
            "  shard {s}: {} vectors, degree {}, ghost {}, dir-table {}, tombstones {}, {} resident",
            shard.len(),
            shard.graph.degree(),
            shard.ghost.as_ref().map(|g| g.len().to_string()).unwrap_or_else(|| "-".into()),
            if shard.dir_table.is_some() { "yes" } else { "no" },
            shard.deleted.count(),
            pathweaver_util::fmt::bytes(resident as f64),
        );
    }
}
