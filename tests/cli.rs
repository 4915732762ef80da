//! End-to-end checks of the `orp` binary's argument handling: unknown
//! options, surplus positionals and out-of-range values must fail with
//! a structured error rather than a panic or being silently ignored.

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

/// Runs `orp` expecting a clean failure: non-zero exit, an `error:`
/// line naming `needle`, and no panic.
fn assert_clean_error(args: &[&str], needle: &str) {
    let out = orp(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{args:?} must fail, stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(needle),
        "{args:?}: {stderr}"
    );
}

#[test]
fn degenerate_orders_and_radices_are_structured_errors() {
    assert_clean_error(&["bounds", "0", "0"], "n must be at least 2");
    assert_clean_error(&["bounds", "64", "2"], "r must be at least 3");
    assert_clean_error(&["solve", "1", "8", "10"], "n must be at least 2");
    assert_clean_error(&["compare", "64", "2"], "r must be at least 3");
    assert_clean_error(&["compare", "0", "4"], "n must be at least 2");
}

#[test]
fn watchdog_must_be_finite_and_positive() {
    let (dir, g) = solved_graph("watchdog");
    for bad in ["-1", "inf", "nan", "0", "1e300"] {
        assert_clean_error(
            &["solve", "32", "4", "50", "--watchdog", bad],
            "--watchdog needs a finite positive number of seconds",
        );
        assert_clean_error(
            &["simulate", &g, "--inject", "100", "--watchdog", bad],
            "--watchdog needs a finite positive number of seconds",
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

fn solve_state(args: &[&str]) -> String {
    let out = orp(args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|l| l.starts_with("solve-state: "))
        .unwrap_or_else(|| panic!("{args:?} printed no state line"))
        .to_owned()
}

#[test]
fn cache_mode_accepts_auto_and_off_only() {
    for gone in ["dense", "compressed"] {
        let out = orp(&["solve", "32", "4", "50", "--cache-mode", gone]);
        assert_usage_error(&out, &format!("--cache-mode {gone}"));
    }
    let base = ["solve", "32", "4", "200"];
    let with = |extra: &[&str]| solve_state(&[&base[..], extra].concat());
    assert_eq!(with(&["--cache-mode", "auto"]), with(&[]));
    // Without a cache the early-reject guard cannot fire, so the
    // trajectory is that of a cache-less run, not of the default one
    // (see `SaConfig::search`); a budget too small for the cache gives
    // the same run as switching it off.
    assert_eq!(with(&["--cache-mode", "off"]), with(&["--mem-budget", "1"]));
}
