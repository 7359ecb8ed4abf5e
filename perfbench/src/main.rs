//! PathWeaver benchmark: seeded load through the public front ends, with
//! every answer checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-deep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with the `pathweaver-obs` registry on and prints the per-layer
//! metrics instead. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; lines before it start
//! with `#` and are for people. Exit code 1 means a correctness check
//! failed (the JSON is still printed), 2 means the run could not complete,
//! 3 means it had not finished after 170 s.
//!
//! The statistics code has its own tests:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

mod checks;
mod host;
mod inputs;
mod layers;
mod spec;
mod stats;
mod workloads;

use inputs::InputSpec;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::RunArgs;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    prepare: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, prepare: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--prepare" {
            a.prepare = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The benchmark's own directory; caches and scratch files live under it.
fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Loads the workload's inputs, generating them in a child process on a
/// cache miss.
fn inputs_for(spec: &InputSpec, workload: &str, cache: &Path) -> Result<inputs::Inputs, String> {
    if let Some(i) = spec.load(cache)? {
        return Ok(i);
    }
    std::fs::create_dir_all(cache).map_err(|e| format!("{}: {e}", cache.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .args(["--prepare", "--workload", workload])
        .args(["--seed", &spec.seed.to_string()])
        .status()
        .map_err(|e| format!("input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator failed: {status}"));
    }
    spec.load(cache)?.ok_or_else(|| "input generator wrote nothing".to_string())
}

/// An untraced run records its end-to-end metrics; a traced run of the
/// same seed prints each as a ratio to them — the tracing overhead.
fn trace_overhead(path: &Path, e2e: &[(&str, f64)], traced: bool) {
    if !traced {
        let text: String = e2e.iter().map(|(n, v)| format!("{n} {v}\n")).collect();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, text));
        }
        return;
    }
    let Ok(text) = std::fs::read_to_string(path) else {
        println!("# tracing overhead: no untraced run of this seed to compare with");
        return;
    };
    let ratios: Vec<String> = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(n, v)| {
            let base: f64 = v.parse().ok()?;
            let (_, now) = e2e.iter().find(|(m, _)| *m == n)?;
            Some(format!("{n} x{:.3}", now / base))
        })
        .collect();
    println!("# tracing overhead (traced / untraced, same seed): {}", ratios.join(", "));
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::Num(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn run(args: &Args, spec: &spec::Spec) -> Result<(bool, Value), String> {
    let w = spec
        .workloads
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let input_spec =
        InputSpec { profile: w.profile, queries: w.queries, inserts: w.inserts, seed: args.seed };
    let cache = home().join(".cache");
    if args.prepare {
        input_spec.prepare(&cache)?;
        return Ok((true, Value::Null));
    }
    let inputs = inputs_for(&input_spec, &w.name, &cache)?;
    println!(
        "# host: nproc {} simd {}; workload {} seed {} seconds {} trace {}",
        host::nproc(),
        host::simd_level(),
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    if args.trace {
        pathweaver_obs::set_enabled(true);
    }
    let state = home().join(".state");
    let work = home().join(".work").join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let run_args = RunArgs { seed: args.seed, seconds: args.seconds, trace: args.trace };
    let result = workloads::run(w, spec, &inputs, run_args, &work).and_then(|out| {
        let layers =
            if args.trace { Some(layers::probe(&out, &inputs, &work, args.seed)?) } else { None };
        Ok((out, layers))
    });
    let _ = std::fs::remove_dir_all(&work);
    let (mut out, layers) = result?;

    let ok_share = out.tally.ok_share();
    out.e2e.push(("ok_share", ok_share));
    out.notes.push(format!("fixed-batch hit digest {}", out.digest.hex()));
    for n in &out.notes {
        println!("# {n}");
    }
    let e2e_line: Vec<String> = out.e2e.iter().map(|(n, v)| format!("{n} {v:.4}")).collect();
    println!("# end to end{}: {}", if args.trace { " (traced)" } else { "" }, e2e_line.join(", "));
    for r in &out.tally.reasons {
        println!("# FAILED: {r}");
    }
    let run_key = format!("{}-s{}-t{}", w.name, args.seed, args.seconds);
    trace_overhead(&state.join(format!("{run_key}.e2e")), &out.e2e, args.trace);

    // Every metric BENCHMARK.json declares, in its order and units.
    let measured: std::collections::BTreeMap<&str, f64> = match layers {
        None => out.e2e.iter().copied().collect(),
        Some(mut l) => {
            let e2e = |name: &str| out.e2e.iter().find(|(n, _)| *n == name).map_or(0.0, |e| e.1);
            l.insert("traced.qps", e2e("qps"));
            l.insert("traced.p50_ms", e2e("p50_ms"));
            l.insert("traced.p90_ms", e2e("p90_ms"));
            l.insert("traced.cpu_us_per_query", e2e("cpu_us_per_query"));
            l
        }
    };
    let declared = if args.trace { &spec.layers } else { &spec.end_to_end };
    let metrics = declared
        .iter()
        .map(|d| {
            let v = measured
                .get(d.name.as_str())
                .copied()
                .ok_or_else(|| format!("metric {} not measured", d.name))?;
            Ok((d.name.clone(), metric(v, &d.unit)))
        })
        .collect::<Result<Vec<(String, Value)>, String>>()?;
    let correct = out.tally.failed == 0;
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(out.tally.attempted as f64)),
        ("failed".into(), Value::Num(out.tally.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    Ok((correct, doc))
}

/// A run takes well under a minute; one still going after this long has
/// hung, and ends with a message rather than running on. The input
/// generator's limit is shorter, so it never outlives the run that started
/// it.
const RUN_LIMIT_S: u64 = 170;
const PREPARE_LIMIT_S: u64 = 150;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts: the program's fork-join pool reads this on
    // every parallel call. One pool thread keeps a search or graph build on
    // one core, so a run measures its work rather than how the shared host
    // schedules a fork-join beside the serving threads (see spec.json).
    std::env::set_var("PATHWEAVER_THREADS", spec.pool_threads.to_string());
    let limit = if args.prepare { PREPARE_LIMIT_S } else { RUN_LIMIT_S };
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(limit));
        eprintln!("perfbench: no result after {limit} s; the run hung");
        std::process::exit(3);
    });
    match run(&args, &spec) {
        Ok((_, Value::Null)) => ExitCode::SUCCESS,
        Ok((correct, doc)) => {
            println!("{}", serde_json::to_string(&doc).expect("metrics serialize"));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
