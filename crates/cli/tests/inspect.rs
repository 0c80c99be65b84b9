//! `btfluid inspect` driven through the binary: what it reads from a
//! `profile` trace, and how it refuses hostile input.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_btfluid");

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn btfluid(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn btfluid")
}

/// A `profile --aggregate` trace carries its rate mode, so `inspect`
/// applies the aggregate-mode checks: per-peer recomputes in the end
/// record are flagged, as they are for any aggregate run.
#[test]
fn profile_trace_records_its_rate_mode() {
    let dir = fresh_dir("btfluid_inspect_profile_test");
    let trace = dir.join("p.jsonl");
    let trace = trace.to_str().unwrap();
    let out = btfluid(&[
        "profile",
        "--aggregate",
        "--horizon",
        "400",
        "--trace",
        trace,
    ]);
    assert!(out.status.success(), "profile failed: {out:?}");
    let body = std::fs::read_to_string(trace).unwrap();
    let meta = body.lines().next().unwrap();
    assert!(meta.contains("\"aggregate\":true"), "{meta}");
    assert!(meta.contains("\"exact_rates\":false"), "{meta}");
    assert!(meta.contains("\"sample_every\":"), "{meta}");

    // A leaking per-peer cache: only the aggregate branch reads this.
    let leaky: String = body
        .lines()
        .map(|line| {
            let line = if line.starts_with("{\"kind\":\"end\"") {
                line.replace("\"rate_recomputes\":0", "\"rate_recomputes\":7")
            } else {
                line.to_string()
            };
            line + "\n"
        })
        .collect();
    std::fs::write(trace, leaky).unwrap();
    let out = btfluid(&["inspect", trace]);
    assert!(out.status.success(), "inspect failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("7 per-peer rate recomputes in aggregate mode"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Nesting far past the parser's bound is refused with a message and
/// exit 1, not a stack overflow.
#[test]
fn deeply_nested_input_is_refused() {
    let dir = fresh_dir("btfluid_inspect_deep_test");
    let deep = dir.join("deep.jsonl");
    std::fs::write(&deep, "[".repeat(200_000)).unwrap();
    let out = btfluid(&["inspect", deep.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
    assert!(stderr.contains("deep.jsonl:1:"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
