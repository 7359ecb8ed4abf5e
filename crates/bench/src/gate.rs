//! The skeleton shared by the seeded contract gates (`check_store`,
//! `check_cluster`): every case runs under `catch_unwind`, a violated or
//! panicking case becomes a JSON failure, and [`Gate::finish`] writes one
//! pretty-printed report, prints a summary and exits 1 on any failure.

use serde_json::{json, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Reads a gate's seed from `var`, or `default` when it is unset; panics
/// when the variable is set but not an integer.
pub fn seed_from_env(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .map(|s| s.parse().unwrap_or_else(|_| panic!("{var} must be an integer")))
        .unwrap_or(default)
}

/// One gate run: its case count and the failures collected so far.
#[derive(Debug)]
pub struct Gate {
    name: &'static str,
    seed: u64,
    cases: usize,
    failures: Vec<Value>,
}

impl Gate {
    /// Starts the gate `name` (the report's `"gate"` field) for `seed`.
    pub fn new(name: &'static str, seed: u64) -> Self {
        Self { name, seed, cases: 0, failures: Vec::new() }
    }

    /// Runs one case. `Ok` means the case met its contract; `Err` carries
    /// what went wrong, and a panic is reported as `"panicked"`. Failures
    /// are printed as they happen and collected for the report.
    pub fn case(&mut self, label: &str, run: impl FnOnce() -> Result<(), String>) {
        self.cases += 1;
        let detail = match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(())) => return,
            Ok(Err(detail)) => detail,
            Err(_) => "panicked".to_string(),
        };
        println!("  FAIL {label}: {detail}");
        self.failures.push(json!({"case": label, "outcome": detail}));
    }

    /// Failures collected so far.
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }

    /// Writes the report `{"gate", "seed", "cases", <fields>.., "failures"}`
    /// to `$out_var` (default `default_path`), prints the case count, each
    /// `summary` count and the failure count, and exits 1 with `violation`
    /// on stderr when any case failed.
    ///
    /// # Panics
    ///
    /// Panics when the report cannot be written.
    pub fn finish(
        self,
        fields: &[(&str, Value)],
        summary: &[(u64, &str)],
        out_var: &str,
        default_path: &str,
        violation: &str,
    ) {
        let failed = self.failures.len();
        let mut report = vec![
            ("gate".to_string(), json!(self.name)),
            ("seed".to_string(), json!(self.seed)),
            ("cases".to_string(), json!(self.cases)),
        ];
        report.extend(fields.iter().map(|(key, value)| (key.to_string(), value.clone())));
        report.push(("failures".to_string(), Value::Array(self.failures)));
        let path = std::env::var(out_var).unwrap_or_else(|_| default_path.to_string());
        if let Some(dir) = Path::new(&path).parent() {
            std::fs::create_dir_all(dir).expect("create report directory");
        }
        let mut text = serde_json::to_string_pretty(&Value::Object(report)).expect("serialize");
        text.push('\n');
        std::fs::write(&path, text).expect("write report");

        let counts: String = summary.iter().map(|(n, label)| format!("{n} {label}, ")).collect();
        println!("{}: {} cases, {counts}{failed} failures — wrote {path}", self.name, self.cases);
        if failed > 0 {
            eprintln!("{}: {violation}", self.name);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_counts_every_run_and_records_errors_and_panics() {
        let mut gate = Gate::new("unit", 1);
        gate.case("ok", || Ok(()));
        gate.case("violated", || Err("wrong answer".into()));
        gate.case("panics", || panic!("boom"));
        assert_eq!(gate.cases, 3);
        assert_eq!(gate.failure_count(), 2);
        assert_eq!(gate.failures[0], json!({"case": "violated", "outcome": "wrong answer"}));
        assert_eq!(gate.failures[1], json!({"case": "panics", "outcome": "panicked"}));
    }
}
