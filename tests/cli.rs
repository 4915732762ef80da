//! End-to-end checks of the `orp` binary's argument handling: unknown
//! options and surplus positionals must fail with a usage error rather
//! than being silently ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

fn orp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_orp"))
        .args(args)
        .output()
        .expect("run orp")
}

fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{what} must fail, stderr: {stderr}");
    assert!(stderr.contains("usage: orp"), "{what}: {stderr}");
}

/// A small solved graph in a per-test scratch directory.
fn solved_graph(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("orp_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let g = dir.join("g.hsg").to_string_lossy().into_owned();
    let out = orp(&["solve", "32", "4", "50", &g]);
    assert!(out.status.success(), "{:?}", out);
    (dir, g)
}

#[test]
fn unknown_flags_and_extra_positionals_fail() {
    let (dir, g) = solved_graph("reject");
    let out = orp(&["simulate", &g, "--inject", "100", "--workers", "2"]);
    assert_usage_error(&out, "simulate --workers");
    let out = orp(&["simulate", &g, "cg", "1", "--bogus", "3"]);
    assert_usage_error(&out, "simulate --bogus");
    let out = orp(&["solve", "32", "4", "50", &g, "--bogus", "1"]);
    assert_usage_error(&out, "solve --bogus");
    let out = orp(&["eval", &g, "--bogus"]);
    assert_usage_error(&out, "eval --bogus");
    let out = orp(&["eval", &g, "extra"]);
    assert_usage_error(&out, "eval with a surplus positional");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn valid_injection_run_prints_its_state_line() {
    let (dir, g) = solved_graph("inject");
    let out = orp(&["simulate", &g, "--inject", "100", "--sharing", "approx"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{:?}", out);
    assert!(
        stdout.lines().any(|l| l.starts_with("sim-state: ")),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
