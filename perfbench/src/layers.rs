//! The traced run's per-layer numbers. Each is timed around calls into one
//! layer's public functions from here, or read from the `pathweaver-obs`
//! registry the program already keeps; nothing inside the program is
//! instrumented for the benchmark. A layer a workload leaves idle reports 0.

use crate::checks;
use crate::inputs::Inputs;
use crate::stats::{self, median, Rng};
use crate::workloads::{search_params, Outcome};
use pathweaver_core::cluster::{Frame, FrameKind, SearchRequest, SearchResponse};
use pathweaver_core::serve::serve_once;
use pathweaver_core::store::{segment, wal};
use pathweaver_core::PathWeaverIndex;
use pathweaver_gpusim::CostCounters;
use pathweaver_search::{search_query, EntryPolicy, ShardContext};
use pathweaver_vector::batch_l2_squared;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Queries each single-thread probe runs.
const PROBE_QUERIES: usize = 200;
/// Rows gathered per distance-kernel call.
const PROBE_ROWS: usize = 256;
/// Queries in the pipeline throughput probe.
const PIPELINE_BATCH: usize = 256;

type Layers = BTreeMap<&'static str, f64>;

pub fn probe(out: &Outcome, inputs: &Inputs, work: &Path, seed: u64) -> Result<Layers, String> {
    let mut m = Layers::new();
    m.insert("serve.queue_wait_ms_p50", out.queue_wait_ms_p50);
    let r = &out.build_report;
    m.insert("graph.build_s", r.graph_build_s);
    m.insert("graph.intershard_s", r.intershard_s);
    m.insert("graph.ghost_s", r.ghost_s);
    m.insert("graph.dirtable_s", r.dirtable_s);
    m.insert("vector.quantize_s", r.quantize_s);

    let index = out.index.as_ref().ok_or("no index to probe")?;
    kernels(&mut m, index, inputs, seed);
    pipeline(&mut m, index, inputs);

    m.insert(
        "serve.submit_us_p50",
        if out.submit_s.is_empty() { 0.0 } else { median(&out.submit_s) * 1e6 },
    );
    m.insert("serve.batch_size_mean", out.batch_size_mean);
    m.insert("serve.gen_late_ms_max", out.gen_late_ms_max);

    let p50_us = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) * 1e6 };
    let writes = out.writes.as_ref();
    m.insert("snapshot.insert_us_p50", writes.map_or(0.0, |w| p50_us(&w.insert_service_s)));
    m.insert("snapshot.delete_us_p50", writes.map_or(0.0, |w| p50_us(&w.delete_service_s)));
    m.insert("snapshot.pin_us_p50", writes.map_or(0.0, |w| p50_us(&w.pin_s)));
    m.insert("snapshot.merge_backlog_max", writes.map_or(0.0, |w| w.merge_backlog_max));
    m.insert("snapshot.rebuilds", writes.map_or(0.0, |w| w.rebuilds));
    m.insert("snapshot.rebuild_s", writes.map_or(0.0, |w| w.rebuild_s));
    m.insert(
        "snapshot.write_p50_ms",
        writes
            .and_then(|w| stats::percentile(&stats::sorted(w.write_latency_s.clone()), 0.5))
            .unwrap_or(0.0)
            * 1e3,
    );
    let (wal_us, seg_write_ms, seg_open_ms) = match writes {
        Some(_) => store(index, inputs, work)?,
        None => (0.0, 0.0, 0.0),
    };
    m.insert("store.wal_append_us", wal_us);
    m.insert("store.segment_write_ms", seg_write_ms);
    m.insert("store.segment_open_ms", seg_open_ms);

    for name in [
        "cluster.encode_us_per_query",
        "cluster.decode_us_per_query",
        "cluster.serve_once_us",
        "cluster.rpc_overhead_ms",
    ] {
        m.insert(name, 0.0);
    }
    if let Some(c) = &out.cluster {
        cluster(&mut m, c)?;
    }
    Ok(m)
}

/// Distance kernel and single-shard beam search, single thread, on the
/// workload's own shards and queries.
fn kernels(m: &mut Layers, index: &PathWeaverIndex, inputs: &Inputs, seed: u64) {
    let params = search_params();
    let nq = PROBE_QUERIES.min(inputs.queries.len());
    let shard0 = &index.shards[0];
    let mut rng = Rng::new(seed ^ 0x6c32);
    let rows: Vec<u32> = (0..PROBE_ROWS).map(|_| rng.below(shard0.vectors.len()) as u32).collect();
    let mut dists = vec![0.0f32; rows.len()];
    let per_rep: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for q in 0..nq {
                batch_l2_squared(&shard0.vectors, &rows, inputs.queries.row(q), &mut dists);
                std::hint::black_box(&dists);
            }
            t.elapsed().as_secs_f64() * 1e9 / (nq * rows.len()) as f64
        })
        .collect();
    let l2_ns_per_row = median(&per_rep);
    m.insert("vector.l2_ns_per_row", l2_ns_per_row);

    let mut counters = CostCounters::new();
    let (mut visits, mut iterations, mut filtered) = (0u64, 0u64, 0u64);
    let entry = EntryPolicy::Random { count: params.candidates };
    let t = Instant::now();
    for q in 0..nq {
        for shard in &index.shards {
            let ctx = ShardContext::new(&shard.vectors, &shard.graph, shard.dir_table.as_ref());
            let (hits, st) =
                search_query(&ctx, inputs.queries.row(q), &params, &entry, q as u64, &mut counters);
            std::hint::black_box(hits);
            visits += st.visits;
            iterations += st.iterations;
            filtered += st.filtered_neighbors;
        }
    }
    let total_ns = t.elapsed().as_secs_f64() * 1e9;
    let searches = (nq * index.shards.len()) as f64;
    m.insert("search.us_per_query", total_ns / 1e3 / searches);
    m.insert("search.ns_per_visit", total_ns / visits.max(1) as f64);
    m.insert("search.visits_per_query", visits as f64 / searches);
    m.insert("search.iterations_per_query", iterations as f64 / searches);
    m.insert("search.dgs_skip_share", filtered as f64 / (filtered + visits).max(1) as f64);
    m.insert("vector.distance_share", visits as f64 * l2_ns_per_row / total_ns);
}

/// The multi-device ring pipeline without the serving layer in front.
fn pipeline(m: &mut Layers, index: &PathWeaverIndex, inputs: &Inputs) {
    let params = search_params();
    let single: Vec<f64> = (0..50.min(inputs.queries.len()))
        .map(|q| {
            let one = checks::rows(&inputs.queries, q..q + 1);
            let t = Instant::now();
            std::hint::black_box(index.search_pipelined(&one, &params));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.insert("pipeline.batch1_us", median(&single));
    let n = PIPELINE_BATCH.min(inputs.queries.len());
    let batch = checks::rows(&inputs.queries, 0..n);
    let mut makespan_s = 0.0;
    let per_rep: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let out = index.search_pipelined(&batch, &params);
            let us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
            makespan_s = out.makespan_s;
            us
        })
        .collect();
    m.insert("pipeline.us_per_query", median(&per_rep));
    m.insert("sim.makespan_us_per_query", makespan_s * 1e6 / n as f64);
}

/// WAL appends (each fsynced) and a segment write and open of the final
/// index, in the run's own work directory.
fn store(index: &PathWeaverIndex, inputs: &Inputs, work: &Path) -> Result<(f64, f64, f64), String> {
    let err = |e: pathweaver_core::StoreError| e.to_string();
    let mut log = wal::WalWriter::create(work.join("probe.pwal"), index.dim()).map_err(err)?;
    let appends: Vec<f64> = (0..50.min(inputs.inserts.len()))
        .map(|i| {
            let t = Instant::now();
            log.append_insert((index.num_vectors + i) as u32, inputs.inserts.row(i))
                .map_err(err)?;
            Ok(t.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<_, String>>()?;
    let path = work.join("probe.pwseg");
    let mut writes = Vec::new();
    let mut opens = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        segment::write_segment(index, &path).map_err(err)?;
        writes.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(segment::read_segment(&path).map_err(err)?);
        opens.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&appends), median(&writes), median(&opens)))
}

/// Frame and request/response codecs on the run's real batches, one
/// partition's `serve_once`, and the router's cost beyond the slowest
/// partition.
fn cluster(m: &mut Layers, c: &crate::workloads::ClusterProbe) -> Result<(), String> {
    let params = search_params();
    let (mut enc_s, mut dec_s, mut queries) = (0.0, 0.0, 0usize);
    let mut serve_us = Vec::new();
    let mut overhead_ms = Vec::new();
    for (b, batch) in c.batches.iter().enumerate() {
        let mut slowest = 0.0f64;
        let mut replies = Vec::new();
        for part in &c.parts {
            let t = Instant::now();
            let out = serve_once(&part.index, batch, &params).map_err(|e| e.to_string())?;
            let s = t.elapsed().as_secs_f64();
            serve_us.push(s * 1e6);
            slowest = slowest.max(s);
            replies.push(out);
        }
        let t = Instant::now();
        std::hint::black_box(c.cluster.router().search(batch, &params).map_err(|e| e.to_string())?);
        overhead_ms.push((t.elapsed().as_secs_f64() - slowest) * 1e3);

        let t = Instant::now();
        let req = SearchRequest { partition: 0, params, queries: batch.clone() };
        let req_bytes =
            Frame { kind: FrameKind::Search, request_id: b as u64, payload: req.encode() }.encode();
        let resp =
            SearchResponse { hits: replies[0].hits.clone(), makespan_s: replies[0].makespan_s };
        let resp_bytes =
            Frame { kind: FrameKind::Hits, request_id: b as u64, payload: resp.encode() }.encode();
        enc_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (f, _) = Frame::decode(&req_bytes).map_err(|e| e.to_string())?;
        let got_req = SearchRequest::decode(&f.payload).map_err(|e| e.to_string())?;
        let (f, _) = Frame::decode(&resp_bytes).map_err(|e| e.to_string())?;
        let got_resp = SearchResponse::decode(&f.payload).map_err(|e| e.to_string())?;
        dec_s += t.elapsed().as_secs_f64();
        if got_req.queries != *batch || got_resp != resp {
            return Err(format!("batch {b}: codec round trip changed the payload"));
        }
        queries += batch.len();
    }
    m.insert("cluster.encode_us_per_query", enc_s * 1e6 / queries.max(1) as f64);
    m.insert("cluster.decode_us_per_query", dec_s * 1e6 / queries.max(1) as f64);
    m.insert("cluster.serve_once_us", median(&serve_us));
    m.insert("cluster.rpc_overhead_ms", median(&overhead_ms));
    Ok(())
}
