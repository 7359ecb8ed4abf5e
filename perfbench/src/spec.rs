//! The benchmark's definition: `BENCHMARK.json` at the repository root
//! names the workloads and metrics with their units, and `spec.json` holds
//! what that file cannot — rates, sizes, recall floors and the write plan.
//! Both are compiled in.

use serde_json::Value;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
const SPEC: &str = include_str!("../spec.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    Server,
    Dynamic,
}

/// The writer beside the reads on mutate-deep.
#[derive(Debug, Clone, Copy)]
pub struct Writes {
    pub rate_hz: f64,
    /// Maintainer threshold: rebuild a shard once this share of it is
    /// tombstoned.
    pub rebuild_threshold: f64,
    pub maintain_interval_ms: f64,
    /// Quiet time after the delete burst, for the rebuild it triggers.
    pub quiet_gap_s: f64,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub profile: pathweaver_datasets::DatasetProfile,
    pub front_end: FrontEnd,
    /// Open-loop read rate of the fixed-rate phase.
    pub rate_qps: f64,
    /// Share of the run spent in the fixed-rate phase; the closed-loop
    /// saturation phase takes the rest.
    pub fixed_rate_share: f64,
    /// Queries kept in flight when saturating.
    pub outstanding: usize,
    pub writes: Option<Writes>,
    pub queries: usize,
    pub inserts: usize,
    pub recall_floor: f64,
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
}

#[derive(Debug, Clone)]
pub struct Spec {
    /// Threads of the program's fork-join pool (`PATHWEAVER_THREADS`).
    pub pool_threads: usize,
    pub setup_reps: usize,
    pub fixed_batch: usize,
    pub warmup_s: f64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("spec: missing number {key}"))
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key).and_then(Value::as_str).ok_or_else(|| format!("spec: missing string {key}"))
}

fn list<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key).and_then(Value::as_array).ok_or_else(|| format!("missing list {key}"))
}

fn profile(name: &str) -> Result<pathweaver_datasets::DatasetProfile, String> {
    pathweaver_datasets::DatasetProfile::all()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| format!("spec: unknown profile {name}"))
}

fn metrics(bench: &Value, key: &str) -> Result<Vec<Metric>, String> {
    list(bench, key)?
        .iter()
        .map(|m| {
            Ok(Metric { name: text(m, "name")?.to_string(), unit: text(m, "unit")?.to_string() })
        })
        .collect()
}

fn workload(name: &str, w: &Value) -> Result<Workload, String> {
    let writes = match w.get("writes") {
        None => None,
        Some(x) => Some(Writes {
            rate_hz: num(x, "rate_hz")?,
            rebuild_threshold: num(x, "rebuild_threshold")?,
            maintain_interval_ms: num(x, "maintain_interval_ms")?,
            quiet_gap_s: num(x, "quiet_gap_s")?,
        }),
    };
    Ok(Workload {
        name: name.to_string(),
        profile: profile(text(w, "profile")?)?,
        front_end: match text(w, "front_end")? {
            "Server" => FrontEnd::Server,
            "Server::new_dynamic" => FrontEnd::Dynamic,
            other => return Err(format!("spec: unknown front end {other}")),
        },
        rate_qps: num(w, "rate_qps")?,
        fixed_rate_share: num(w, "fixed_rate_share")?,
        outstanding: num(w, "outstanding")? as usize,
        writes,
        queries: num(w, "queries")? as usize,
        inserts: num(w, "inserts")? as usize,
        recall_floor: num(w, "recall_floor")?,
    })
}

/// Every workload `BENCHMARK.json` names, with its constants from
/// `spec.json`, and the metrics to print.
pub fn load() -> Result<Spec, String> {
    let bench: Value =
        serde_json::from_str(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let root: Value = serde_json::from_str(SPEC).map_err(|e| format!("spec.json: {e}"))?;
    let constants = root.get("workloads").ok_or("spec: missing workloads")?;
    let workloads = list(&bench, "workloads")?
        .iter()
        .map(|w| {
            let name = text(w, "name")?;
            let c = constants.get(name).ok_or_else(|| format!("spec: no constants for {name}"))?;
            workload(name, c)
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Spec {
        pool_threads: num(&root, "pool_threads")? as usize,
        setup_reps: num(&root, "setup_reps")? as usize,
        fixed_batch: num(&root, "fixed_batch")? as usize,
        warmup_s: num(&root, "warmup_s")?,
        workloads,
        end_to_end: metrics(&bench, "end_to_end")?,
        layers: metrics(&bench, "per_layer")?,
    })
}
