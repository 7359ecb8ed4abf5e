//! `pwctl` and a stdout that goes away: a reader that closes the pipe early
//! (`pwctl search ... | head -2`) must end the program quietly, and any other
//! stdout failure must be a one-line error, never a panic.

use std::process::{Command, Output, Stdio};

/// `pwctl synth` at test scale: cheap, and it prints a result line.
fn synth(tag: &str, stdout: impl Into<Stdio>) -> (Output, String) {
    let out = std::env::temp_dir().join(format!("pwctl-{tag}-{}.fvecs", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_pwctl"))
        .args(["synth", "--profile", "deep10m-like", "--scale", "test", "--out"])
        .arg(&out)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .expect("run pwctl");
    let _ = std::fs::remove_file(&out);
    let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "pwctl panicked: {stderr}");
    (run, stderr)
}

#[test]
fn closed_stdout_exits_quietly() {
    // The read end is closed before the child starts, so its first write
    // meets EPIPE (Rust programs ignore SIGPIPE).
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let (run, stderr) = synth("closed", writer);
    assert!(stderr.is_empty(), "a closed stdout must end pwctl silently: {stderr}");
    assert_eq!(run.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn failing_stdout_is_a_one_line_error() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return; // No always-full device on this platform.
    };
    let (run, stderr) = synth("full", full);
    assert_eq!(stderr.lines().count(), 1, "expected one error line: {stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
}
