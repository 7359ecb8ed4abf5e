//! The workloads. Each drives one public front end — `Server`, or
//! `Server::new_dynamic` over a durable `ConcurrentIndex` — checks every
//! answer, and returns its end-to-end metrics plus the raw material the
//! traced run turns into per-layer numbers. The traced serve-deep run also
//! launches a `Router` cluster over the same base for the cluster layers.

use crate::checks::{self, Digest};
use crate::host;
use crate::inputs::{Inputs, K};
use crate::spec::{FrontEnd, Spec, Workload};
use crate::stats::{self, closed_loop, open_loop, paced_loop, Frontend, Phase, Sampler, Tally};
use pathweaver_core::cluster::TransportKind;
use pathweaver_core::cluster::{build_partitions, reference_merged, ClusterPartition};
use pathweaver_core::{
    ClusterConfig, ConcurrentIndex, DeleteOutcome, DurableIndex, LocalCluster, PathWeaverConfig,
    PathWeaverIndex, QueryResult, QueryTicket, ServeConfig, Server,
};
use pathweaver_search::{DgsParams, SearchParams};
use pathweaver_vector::VectorSet;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated devices per index (per partition on the cluster).
pub const DEVICES: usize = 2;
/// Partitions (one per node) of the cluster the traced serve-deep run probes.
pub const NODES: usize = 2;
/// How long past the end of its quiet gap the writer waits for the rebuild
/// its delete burst triggered before it gives up and fails the run.
const REBUILD_GRACE: Duration = Duration::from_secs(20);
/// Phases are cut into windows this long and summarised by the median
/// window, so one stall of the shared host spoils a window, not the run.
const WINDOW: Duration = Duration::from_millis(500);

/// Median over a phase's windows of `per_window`, noting the series.
fn windowed(
    notes: &mut Vec<String>,
    label: &str,
    windows: &[stats::Window],
    per_window: impl Fn(&stats::Window) -> f64,
) -> f64 {
    let series: Vec<f64> = windows.iter().map(per_window).collect();
    notes.push(format!("{label} per window: {:.0?}", series));
    stats::median(&series)
}

pub fn search_params() -> SearchParams {
    SearchParams { k: K, dgs: Some(DgsParams::default()), ..SearchParams::default() }
}

pub fn index_config() -> PathWeaverConfig {
    PathWeaverConfig::full(DEVICES)
}

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything a workload measured. End-to-end metrics are filled for every
/// workload; the rest feeds the traced run's per-layer numbers.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Vec<(&'static str, f64)>,
    pub tally: Tally,
    /// Digest of the fixed-batch hits, printed so runs can be compared.
    pub digest: Digest,
    pub notes: Vec<String>,
    /// The served index (partition 0 on the cluster), for layer probes.
    pub index: Option<Arc<PathWeaverIndex>>,
    pub build_report: pathweaver_graph::BuildReport,
    pub submit_s: Vec<f64>,
    pub batch_size_mean: f64,
    pub gen_late_ms_max: f64,
    /// p50 of the program's `serve.queue_wall_ns` histogram over the
    /// fixed-rate phase alone.
    pub queue_wait_ms_p50: f64,
    pub writes: Option<Writes>,
    pub cluster: Option<ClusterProbe>,
}

/// Raw write-path samples from mutate-deep.
#[derive(Default)]
pub struct Writes {
    pub insert_service_s: Vec<f64>,
    pub delete_service_s: Vec<f64>,
    pub write_latency_s: Vec<f64>,
    pub merge_backlog_max: f64,
    pub pin_s: Vec<f64>,
    /// Maintenance passes installed during the run.
    pub rebuilds: f64,
    /// From the delete burst's last write to the install of the rebuild it
    /// triggered, as the writer saw it by polling the published version.
    pub rebuild_s: f64,
}

/// What the cluster layer probes need: the partitions and a running
/// cluster over them, and the fixed batches.
pub struct ClusterProbe {
    pub parts: Vec<ClusterPartition>,
    pub cluster: LocalCluster,
    pub batches: Vec<VectorSet>,
}

/// Splits the query set into the fixed batches used for `sim_qps`, recall
/// and the hit digest.
pub fn fixed_batches(queries: &VectorSet, batch: usize) -> Vec<(usize, VectorSet)> {
    (0..queries.len())
        .step_by(batch)
        .map(|start| {
            let rows: Vec<usize> = (start..(start + batch).min(queries.len())).collect();
            (start, queries.gather(&rows))
        })
        .collect()
}

/// Times `reps` set-ups, keeping the last one; earlier ones are torn down
/// before the next starts so memory stays that of one instance.
fn timed_setups<T>(
    reps: usize,
    mut make: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps.max(1) {
        if let Some(prev) = kept.take() {
            teardown(prev);
        }
        let t = Instant::now();
        kept = Some(make(rep)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up ran"), times))
}

struct ServeFront<'a> {
    server: &'a Server,
    queries: &'a VectorSet,
}

impl Frontend for ServeFront<'_> {
    type Ticket = (usize, QueryTicket);
    type Answer = (usize, QueryResult);

    fn submit(&self, op: usize) -> Result<Self::Ticket, String> {
        let q = op % self.queries.len();
        self.server.try_submit(self.queries.row(q)).map(|t| (q, t)).map_err(|e| e.to_string())
    }

    fn wait(&self, (q, t): Self::Ticket) -> Result<Self::Answer, String> {
        t.wait().map(|r| (q, r)).map_err(|e| e.to_string())
    }
}

/// A set-up of one served workload: the server and what it reads from.
struct Served {
    server: Server,
    index: Arc<PathWeaverIndex>,
    dynamic: Option<(Arc<ConcurrentIndex>, pathweaver_core::MaintainerHandle)>,
}

fn serve_config() -> ServeConfig {
    ServeConfig { params: search_params(), ..ServeConfig::default() }
}

fn set_up_served(w: &Workload, base: &VectorSet, dir: &Path) -> Result<Served, String> {
    let index = PathWeaverIndex::build(base, &index_config()).map_err(|e| e.to_string())?;
    if w.front_end == FrontEnd::Server {
        let index = Arc::new(index);
        let server = Server::new(Arc::clone(&index), serve_config()).map_err(|e| e.to_string())?;
        return Ok(Served { server, index, dynamic: None });
    }
    let writes = w.writes.ok_or("a dynamic workload needs a write plan")?;
    let _ = std::fs::remove_dir_all(dir);
    let durable = DurableIndex::create(index, dir).map_err(|e| e.to_string())?;
    let ci = Arc::new(ConcurrentIndex::durable(durable));
    let maintainer = ci
        .spawn_maintainer(writes.rebuild_threshold, writes.maintain_interval_ms)
        .map_err(|e| e.to_string())?;
    let server = Server::new_dynamic(Arc::clone(&ci), serve_config()).map_err(|e| e.to_string())?;
    let index = Arc::clone(ci.pin().index());
    Ok(Served { server, index, dynamic: Some((ci, maintainer)) })
}

fn tear_down(s: Served) {
    s.server.shutdown();
    if let Some((_, maintainer)) = s.dynamic {
        maintainer.stop();
    }
}

/// Checks every answered read of a phase: shape, no deleted id, and the
/// query's recall, which is summed into `recall_sum`.
fn check_reads(
    phase: &Phase<(usize, QueryResult)>,
    inputs: &Inputs,
    deleted: &HashMap<u32, Instant>,
    tally: &mut Tally,
    recall: &mut (f64, usize),
) {
    for s in &phase.ops {
        match &s.answer {
            Err(e) => tally.fail(format!("read {}: {e}", s.op)),
            Ok((q, r)) => {
                let shape = checks::hits_shape(&r.hits, K);
                let stale = r
                    .hits
                    .iter()
                    .find(|&&(_, id)| deleted.get(&id).is_some_and(|&at| at < s.sent_at));
                match (shape, stale) {
                    (Err(e), _) => tally.fail(format!("read {}: {e}", s.op)),
                    (_, Some(&(_, id))) => tally.fail(format!(
                        "read {} returned id {id}, deleted before it was sent",
                        s.op
                    )),
                    _ => tally.ok(),
                }
                if deleted.is_empty() {
                    recall.0 += checks::recall(&inputs.ground_truth[*q], &r.hits);
                    recall.1 += 1;
                }
            }
        }
    }
}

/// p50 and p90 in ms: medians of the windows' percentiles (see
/// [`stats::windowed_percentile`]), with the p90 series noted.
fn latency_metrics(
    notes: &mut Vec<String>,
    windows: &[stats::Window],
    all: &[f64],
    tally: &mut Tally,
) -> (f64, f64) {
    let p90s: Vec<f64> =
        windows.iter().map(|w| stats::percentile(&w.latencies, 0.9).unwrap_or(f64::NAN)).collect();
    notes.push(format!(
        "p90 ms per window: {:.2?}",
        p90s.iter().map(|v| v * 1e3).collect::<Vec<_>>()
    ));
    let p50 = stats::windowed_percentile(windows, all, 0.5);
    let p90 = stats::windowed_percentile(windows, all, 0.9);
    if p50.is_none() || p90.is_none() {
        tally.fail(format!("only {} latency samples: p90 not supported", all.len()));
    }
    (p50.unwrap_or(f64::NAN) * 1e3, p90.unwrap_or(f64::NAN) * 1e3)
}

pub fn run(
    w: &Workload,
    spec: &Spec,
    inputs: &Inputs,
    args: RunArgs,
    work: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (served, setup_times) = timed_setups(
        spec.setup_reps,
        |rep| set_up_served(w, &inputs.base, &work.join(format!("store-{rep}"))),
        tear_down,
    )?;
    out.build_report = served.index.build_report.clone();
    let front = ServeFront { server: &served.server, queries: &inputs.queries };

    // Warm-up: thread wake-ups and first-touch page faults, not measured.
    let warm = stats::poisson_schedule(args.seed ^ 0x5741_524d, w.rate_qps, spec.warmup_s);
    let warm = open_loop(&front, Instant::now(), &warm);
    if warm.answered() != warm.ops.len() {
        return Err("warm-up queries were refused".into());
    }

    let fixed_s = args.seconds * w.fixed_rate_share;
    let schedule = stats::poisson_schedule(args.seed, w.rate_qps, fixed_s);
    let plan = w.writes.map(|wp| {
        let shards: Vec<&[u32]> =
            served.index.shards.iter().map(|sh| sh.global_ids.as_slice()).collect();
        write_plan(args.seed, &shards, inputs.inserts.len(), &wp, args.seconds)
    });
    let start = Instant::now() + Duration::from_millis(1);
    let steal = (Instant::now(), host::steal_seconds());
    let mut write_log = Vec::new();
    let mut rebuild_wait = None;
    // The queue-wait histogram is read over the measured phase alone.
    pathweaver_obs::registry().reset();
    let (fixed, fixed_cpu, saturated, saturated_cpu) = std::thread::scope(|s| {
        let writer = served.dynamic.as_ref().zip(plan.as_ref()).map(|((ci, _), plan)| {
            let inserts = &inputs.inserts;
            s.spawn(move || run_writes(ci, inserts, plan, start))
        });
        let sampler = Sampler::start(WINDOW, host::cpu_seconds);
        let fixed = open_loop(&front, start, &schedule);
        let fixed_cpu = sampler.stop();
        out.queue_wait_ms_p50 = queue_wait_ms_p50();
        let remaining = (args.seconds - start.elapsed().as_secs_f64()).max(0.2 * args.seconds);
        let sampler = Sampler::start(WINDOW, host::cpu_seconds);
        let saturated =
            closed_loop(&front, Instant::now(), remaining, w.outstanding, schedule.len());
        let saturated_cpu = sampler.stop();
        if let Some(h) = writer {
            (write_log, rebuild_wait) = h.join().expect("writer thread panicked");
        }
        (fixed, fixed_cpu, saturated, saturated_cpu)
    });
    // Peak memory of the program under load, before the checks below add
    // the harness's own copies (the live ground truth, the fixed batches).
    let peak_rss_mb = host::peak_rss_mb();
    out.notes.push(steal_note(steal));

    // Writes: failures count against ok_share; applied deletes feed the
    // stale-read check.
    let mut deleted: HashMap<u32, Instant> = HashMap::new();
    let mut inserted: Vec<(u32, usize)> = Vec::new();
    let mut writes = Writes::default();
    for d in &write_log {
        writes.merge_backlog_max = writes.merge_backlog_max.max(d.result.1 as f64);
        match &d.result.0 {
            Ok(Wrote::Inserted(id, row)) => {
                out.tally.ok();
                inserted.push((*id, *row));
                writes.insert_service_s.push(d.service_s);
                writes.write_latency_s.push(d.latency_s);
            }
            Ok(Wrote::Deleted(id)) => {
                out.tally.ok();
                deleted.insert(*id, d.returned_at);
                writes.delete_service_s.push(d.service_s);
                writes.write_latency_s.push(d.latency_s);
            }
            Ok(Wrote::Refused(e)) | Err(e) => out.tally.fail(format!("write {}: {e}", d.op)),
        }
    }
    if let Some(plan) = &plan {
        let late_ms = write_log.iter().map(|d| d.late_s).fold(0.0, f64::max) * 1e3;
        out.notes.push(format!(
            "writer: {} writes ({} in the delete burst), late by at most {late_ms:.3} ms",
            write_log.len(),
            plan.burst.len()
        ));
        match rebuild_wait {
            Some(secs) => {
                writes.rebuild_s = secs;
                out.notes
                    .push(format!("burst rebuild installed {secs:.3} s after its last delete"));
            }
            None if plan.triggers_rebuild => out.tally.fail(format!(
                "the delete burst's rebuild was not installed within {:.0} s",
                plan.quiet_gap_s + REBUILD_GRACE.as_secs_f64()
            )),
            None => out.notes.push("run too short for the delete burst: no rebuild".into()),
        }
    }

    let mut served_recall = (0.0, 0usize);
    check_reads(&fixed, inputs, &deleted, &mut out.tally, &mut served_recall);
    check_reads(&saturated, inputs, &deleted, &mut out.tally, &mut served_recall);
    let fixed_windows = stats::windows(&fixed_cpu, &fixed.answers());
    let latencies = fixed.latencies();
    let (p50_ms, p90_ms) =
        latency_metrics(&mut out.notes, &fixed_windows, &latencies, &mut out.tally);
    let cpu_us_per_query = cpu_us_per_query(&mut out.notes, &fixed_windows);
    let saturated_windows = stats::windows(&saturated_cpu, &saturated.answers());
    let qps =
        windowed(&mut out.notes, "saturated qps", &saturated_windows, |w| w.events as f64 / w.secs);

    out.submit_s = fixed.ops.iter().map(|s| s.submit_s).collect();
    out.gen_late_ms_max = fixed.max_late_s() * 1e3;
    let mut per_batch: HashMap<u64, usize> = HashMap::new();
    for s in &fixed.ops {
        if let Ok((_, r)) = &s.answer {
            *per_batch.entry(r.batch_id).or_default() += 1;
        }
    }
    out.batch_size_mean = fixed.answered() as f64 / per_batch.len().max(1) as f64;
    if let Some((label, v)) = stats::highest_supported(&latencies) {
        out.notes.push(format!(
            "fixed-rate phase: {} reads, {label} {:.3} ms, generator late by at most {:.3} ms",
            latencies.len(),
            v * 1e3,
            out.gen_late_ms_max
        ));
    }

    // The served index after the writer stopped: the maintainer is stopped
    // first so the final snapshot is the one every check reads.
    let Served { server, index, dynamic } = served;
    server.shutdown();
    let (final_index, live_gt) = match dynamic {
        None => (index, None),
        Some((ci, maintainer)) => {
            maintainer.stop();
            // Every applied write published once; the rest were installs.
            let applied = inserted.len() + deleted.len();
            writes.rebuilds = ci.latest_version().saturating_sub(applied as u64) as f64;
            out.notes.push(format!("maintenance installs during the run: {}", writes.rebuilds));
            let snap = ci.pin();
            for _ in 0..1000 {
                let t = Instant::now();
                std::hint::black_box(ci.pin());
                writes.pin_s.push(t.elapsed().as_secs_f64());
            }
            let final_index = Arc::clone(snap.index());
            let gt = checks::live_ground_truth(inputs, &deleted, &inserted, K);
            (final_index, Some(gt))
        }
    };
    if plan.is_some() {
        out.writes = Some(writes);
    } else if served_recall.1 > 0 {
        let r = served_recall.0 / served_recall.1 as f64;
        if r < w.recall_floor {
            out.tally.fail(format!("served recall {r:.4} below floor {}", w.recall_floor));
        }
    }

    // Fixed batches on the final index: sim_qps, recall, digest.
    let gt = live_gt.as_ref().unwrap_or(&inputs.ground_truth);
    let mut sim_s = 0.0;
    let mut recall_sum = 0.0;
    for (first, batch) in fixed_batches(&inputs.queries, spec.fixed_batch) {
        let (hits, makespan_s) = serve_fixed(&final_index, &batch)?;
        sim_s += makespan_s;
        for (i, hits) in hits.iter().enumerate() {
            out.digest.add(hits);
            let stale = hits.iter().any(|(_, id)| deleted.contains_key(id));
            match checks::hits_shape(hits, K) {
                Err(e) => out.tally.fail(format!("fixed query {}: {e}", first + i)),
                Ok(()) if stale => out.tally.fail(format!("fixed query {}: deleted id", first + i)),
                Ok(()) => out.tally.ok(),
            }
            recall_sum += checks::recall(&gt[first + i], hits);
        }
    }
    let recall = recall_sum / inputs.queries.len() as f64;
    if recall < w.recall_floor {
        out.tally.fail(format!("recall@{K} {recall:.4} below floor {}", w.recall_floor));
    }
    if args.trace {
        tracing_neutral(&mut out, || {
            let mut d = Digest::default();
            for (_, batch) in fixed_batches(&inputs.queries, spec.fixed_batch) {
                serve_fixed(&final_index, &batch)?.0.iter().for_each(|h| d.add(h));
            }
            Ok(d)
        })?;
    }
    if args.trace && w.front_end == FrontEnd::Server {
        out.cluster = Some(launch_cluster(inputs, spec, &mut out.tally)?);
    }
    out.index = Some(final_index);

    out.e2e = vec![
        ("setup_s", stats::median(&setup_times)),
        ("qps", qps),
        ("p50_ms", p50_ms),
        ("p90_ms", p90_ms),
        ("cpu_us_per_query", cpu_us_per_query),
        ("recall_at_10", recall),
        ("peak_rss_mb", peak_rss_mb),
        ("sim_qps", inputs.queries.len() as f64 / sim_s.max(1e-12)),
    ];
    out.notes.push(format!("setup_s samples: {setup_times:?}"));
    Ok(out)
}

/// Process CPU time over the whole phase per query answered in it. CPU
/// time does not advance while the host stalls the process, so unlike wall
/// time it needs no median over windows; the total also charges work that
/// runs in bursts, such as a rebuild beside the reads, at its full weight.
/// The per-window series is noted.
fn cpu_us_per_query(notes: &mut Vec<String>, windows: &[stats::Window]) -> f64 {
    let series: Vec<f64> = windows.iter().map(|w| w.delta * 1e6 / w.events as f64).collect();
    notes.push(format!("fixed-rate cpu us/query per window: {series:.0?}"));
    let cpu_s: f64 = windows.iter().map(|w| w.delta).sum();
    let answered: usize = windows.iter().map(|w| w.events).sum();
    cpu_s * 1e6 / answered.max(1) as f64
}

/// How much of the host's CPU time the hypervisor gave away since `from`:
/// a run measured under heavy steal measured the host, not the program.
fn steal_note((at, steal_s): (Instant, f64)) -> String {
    let cpu_s = at.elapsed().as_secs_f64() * host::nproc() as f64;
    let stolen = host::steal_seconds() - steal_s;
    format!(
        "host steal during the load: {stolen:.2} s of {cpu_s:.1} CPU-s ({:.1}%)",
        100.0 * stolen / cpu_s
    )
}

/// p50 of the program's per-request queue wait since the registry was last
/// reset; 0 unless the obs registry is on (traced runs).
fn queue_wait_ms_p50() -> f64 {
    pathweaver_obs::registry().histogram("serve.queue_wall_ns").summary().p50 as f64 / 1e6
}

/// In a traced run, repeats the fixed-batch pass with the obs registry
/// off: the answers must be bitwise those of the traced pass.
fn tracing_neutral(
    out: &mut Outcome,
    untraced_pass: impl FnOnce() -> Result<Digest, String>,
) -> Result<(), String> {
    pathweaver_obs::set_enabled(false);
    let untraced = untraced_pass();
    pathweaver_obs::set_enabled(true);
    if untraced? != out.digest {
        out.tally.fail("fixed-batch hits differ between the traced and the untraced pass");
    } else {
        out.tally.ok();
    }
    Ok(())
}

/// Per-query hit lists, `(squared distance, global id)` ascending.
type Hits = Vec<Vec<(f32, u32)>>;

/// Serves one fixed batch as a single exclusive micro-batch through a
/// `Server` of its own that flushes on size alone, returning the hits and
/// the batch's simulated makespan. `serve_once` would flush whatever is
/// queued once its 2 ms interval passes, so a host stall during submission
/// can split its batch and change the answers.
fn serve_fixed(index: &Arc<PathWeaverIndex>, batch: &VectorSet) -> Result<(Hits, f64), String> {
    let config = ServeConfig {
        max_batch: batch.len(),
        queue_capacity: batch.len(),
        flush_interval_ms: 60_000.0,
        ..serve_config()
    };
    let server = Server::new(Arc::clone(index), config).map_err(|e| e.to_string())?;
    let results = server
        .submit_batch(batch)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|t| t.wait().map_err(|e| e.to_string()))
        .collect::<Result<Vec<QueryResult>, String>>()?;
    let makespan_s = server.timeline().makespan_s();
    server.shutdown();
    if results.iter().any(|r| r.batch_id != results[0].batch_id) {
        return Err("a fixed batch was served as more than one micro-batch".into());
    }
    Ok((results.into_iter().map(|r| r.hits).collect(), makespan_s))
}

/// One planned write. The plan depends only on the seed and the index's
/// shard membership, so the final live set repeats exactly per seed.
#[derive(Debug, Clone, Copy)]
enum Write {
    /// Insert held-out row `.0`.
    Insert(usize),
    /// Delete global id `.0`.
    Delete(u32),
}

/// What a write did.
#[derive(Debug)]
enum Wrote {
    /// Global id and held-out row.
    Inserted(u32, usize),
    Deleted(u32),
    Refused(String),
}

/// The writer's plan, offsets in seconds from the start of the load.
///
/// A delete burst aimed at one shard ends on the delete that takes it to
/// the rebuild threshold, so the maintainer's off-lock rebuild, install,
/// WAL fold and publish run once inside every run. A quiet gap follows:
/// the maintainer drops a rebuild whose shard was written while it ran,
/// and every insert lands on one of the shards. Then alternating inserts of
/// held-out rows and deletes of live base ids spread over all shards.
struct WritePlan {
    burst: Vec<(f64, Write)>,
    /// Whether the run is long enough for the burst to reach the threshold.
    triggers_rebuild: bool,
    quiet_gap_s: f64,
    steady: Vec<(f64, Write)>,
}

/// Moves a seeded choice of `n` distinct entries to the front of `ids`
/// (a partial Fisher–Yates shuffle).
fn choose_front(ids: &mut [u32], n: usize, rng: &mut stats::Rng) {
    for d in 0..n.min(ids.len()) {
        let j = d + rng.below(ids.len() - d);
        ids.swap(d, j);
    }
}

fn write_plan(
    seed: u64,
    shards: &[&[u32]],
    inserts: usize,
    w: &crate::spec::Writes,
    seconds: f64,
) -> WritePlan {
    let mut rng = stats::Rng::new(seed ^ 0x7772_6974_6572);
    let target = (seed % shards.len() as u64) as usize;
    let mut victims = shards[target].to_vec();
    // The maintainer's test: tombstones >= threshold * shard length.
    let need =
        ((w.rebuild_threshold * victims.len() as f64).ceil() as usize).clamp(1, victims.len());
    let fits = ((seconds * w.rate_hz).ceil() as usize).max(1);
    let burst_n = need.min(fits);
    choose_front(&mut victims, burst_n, &mut rng);
    let burst: Vec<(f64, Write)> = victims[..burst_n]
        .iter()
        .enumerate()
        .map(|(i, &id)| (i as f64 / w.rate_hz, Write::Delete(id)))
        .collect();
    let triggers_rebuild = burst_n == need;

    let mut steady = Vec::new();
    let resume_s = (need - 1) as f64 / w.rate_hz + w.quiet_gap_s;
    if triggers_rebuild && resume_s < seconds {
        let mut live: Vec<u32> = victims[need..].to_vec();
        for (s, ids) in shards.iter().enumerate() {
            if s != target {
                live.extend_from_slice(ids);
            }
        }
        let n = ((seconds - resume_s) * w.rate_hz).ceil() as usize;
        let n = n.min(2 * inserts).min(2 * live.len());
        choose_front(&mut live, n / 2, &mut rng);
        steady = (0..n)
            .map(|i| {
                let write =
                    if i % 2 == 0 { Write::Insert(i / 2) } else { Write::Delete(live[i / 2]) };
                (resume_s + i as f64 / w.rate_hz, write)
            })
            .collect();
    }
    WritePlan { burst, triggers_rebuild, quiet_gap_s: w.quiet_gap_s, steady }
}

/// Runs the plan on the calling thread: the burst, a wait for the install
/// of the rebuild it triggered, then the steady writes. Returns every
/// write's record and, when the install was seen, how long after the
/// burst's last delete it landed.
#[allow(clippy::type_complexity)]
fn run_writes(
    ci: &ConcurrentIndex,
    inserts: &VectorSet,
    plan: &WritePlan,
    start: Instant,
) -> (Vec<stats::Done<(Result<Wrote, String>, u64)>>, Option<f64>) {
    let write = |op: Write| {
        let r = match op {
            Write::Insert(row) => ci.insert(inserts.row(row)).map(|id| Wrote::Inserted(id, row)),
            Write::Delete(id) => ci.delete_outcome(id).map(|o| match o {
                DeleteOutcome::Applied => Wrote::Deleted(id),
                other => Wrote::Refused(format!("delete {id}: {other:?}")),
            }),
        };
        (r.map_err(|e| e.to_string()), ci.merge_backlog())
    };
    let times = |ops: &[(f64, Write)]| ops.iter().map(|o| o.0).collect::<Vec<f64>>();
    let mut log = paced_loop(start, &times(&plan.burst), |i| write(plan.burst[i].1));

    let mut rebuild_s = None;
    if plan.triggers_rebuild {
        // Each applied write publishes one version; an install adds one more.
        let applied = log.iter().filter(|d| matches!(d.result.0, Ok(Wrote::Deleted(_)))).count();
        let version = applied as u64;
        let burst_end = Instant::now();
        let deadline = burst_end + Duration::from_secs_f64(plan.quiet_gap_s) + REBUILD_GRACE;
        while Instant::now() < deadline {
            if ci.latest_version() > version {
                rebuild_s = Some(burst_end.elapsed().as_secs_f64());
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let steady = paced_loop(start, &times(&plan.steady), |i| write(plan.steady[i].1));
    let burst_len = log.len();
    log.extend(steady.into_iter().map(|mut d| {
        d.op += burst_len;
        d
    }));
    (log, rebuild_s)
}

/// Builds the base's partitions, launches them as a cluster on TCP
/// loopback and checks that the router answers every fixed batch exactly
/// as `reference_merged` does. The traced serve-deep run probes the cluster
/// layers on it.
fn launch_cluster(inputs: &Inputs, spec: &Spec, tally: &mut Tally) -> Result<ClusterProbe, String> {
    let parts =
        build_partitions(&inputs.base, &index_config(), NODES).map_err(|e| e.to_string())?;
    let config = ClusterConfig { partitions: NODES, ..ClusterConfig::default() };
    let cluster =
        LocalCluster::launch_with_partitions(&parts, &config, NODES, TransportKind::Tcp, &[])
            .map_err(|e| e.to_string())?;
    let params = search_params();
    let fixed = fixed_batches(&inputs.queries, spec.fixed_batch);
    for (first, batch) in &fixed {
        let got = cluster.router().search(batch, &params).map_err(|e| e.to_string())?;
        let want = reference_merged(&parts, batch, &params).map_err(|e| e.to_string())?;
        for (i, hits) in got.hits.iter().enumerate() {
            match want.get(i) == Some(hits) {
                true => tally.ok(),
                false => tally.fail(format!(
                    "router query {}: answer differs from reference_merged",
                    first + i
                )),
            }
        }
    }
    let batches = fixed.into_iter().map(|(_, b)| b).collect();
    Ok(ClusterProbe { parts, cluster, batches })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, seconds: f64) -> WritePlan {
        let a: Vec<u32> = (0..1000).step_by(2).collect();
        let b: Vec<u32> = (1..1000).step_by(2).collect();
        let w = crate::spec::Writes {
            rate_hz: 50.0,
            rebuild_threshold: 0.02,
            maintain_interval_ms: 50.0,
            quiet_gap_s: 4.0,
        };
        write_plan(seed, &[&a, &b], 100, &w, seconds)
    }

    fn deletes(ops: &[(f64, Write)]) -> Vec<u32> {
        ops.iter()
            .filter_map(|o| match o.1 {
                Write::Delete(id) => Some(id),
                Write::Insert(_) => None,
            })
            .collect()
    }

    /// The burst deletes exactly the threshold's share of one shard, the
    /// steady writes resume after the gap and never delete an id twice,
    /// and the plan repeats per seed.
    #[test]
    fn write_plan_crosses_the_threshold_once_then_churns() {
        let p = plan(3, 20.0);
        assert!(p.triggers_rebuild);
        let burst = deletes(&p.burst);
        assert_eq!(burst.len(), 10, "2% of a 500-id shard");
        let shard = burst[0] % 2;
        assert!(burst.iter().all(|id| id % 2 == shard), "one shard");
        let last = p.burst.last().expect("burst").0;
        assert!(p.steady.first().expect("steady").0 >= last + 4.0);
        assert!(p.steady.iter().all(|o| o.0 < 20.0));
        let mut all = burst.clone();
        all.extend(deletes(&p.steady));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "no id deleted twice");
        assert_eq!(deletes(&plan(3, 20.0).steady), deletes(&p.steady));
        assert_ne!(deletes(&plan(4, 20.0).steady), deletes(&p.steady));
        // Too short for the whole burst: no rebuild expected, no churn.
        let short = plan(3, 0.1);
        assert!(!short.triggers_rebuild && short.steady.is_empty());
    }
}
