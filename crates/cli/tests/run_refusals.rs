//! The run-flag refusal rules against the real `btfluid` binary: every
//! single-engine command refuses the same contradictory modes and
//! invalid cadences with exit code 2 and one message, before anything
//! runs or any file is written.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_btfluid");

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The base command line of every command that takes run flags.
fn commands(dir: &Path, trace: &Path) -> Vec<(&'static str, Vec<String>)> {
    let manifest = dir.join("sweep.jsonl");
    let base: [(&str, Vec<&str>); 5] = [
        ("sim", vec!["sim", "--horizon", "200"]),
        ("profile", vec!["profile", "--horizon", "200"]),
        ("scenario", vec!["scenario", "flash_crowd", "--smoke"]),
        (
            "trace replay",
            vec!["trace", "replay", "--in", trace.to_str().unwrap()],
        ),
        (
            "sweep",
            vec!["sweep", "--manifest", manifest.to_str().unwrap()],
        ),
    ];
    base.into_iter()
        .map(|(name, args)| (name, args.into_iter().map(String::from).collect()))
        .collect()
}

#[test]
fn run_flag_refusals_exit_2_everywhere() {
    let dir = fresh_dir("btfluid_run_refusals_test");
    let trace = dir.join("workload.csv");
    let status = Command::new(BIN)
        .args(["trace", "gen", "--seed", "1", "--horizon", "400"])
        .args(["--out", trace.to_str().unwrap()])
        .stderr(Stdio::null())
        .status()
        .expect("spawn trace gen");
    assert!(status.success(), "trace gen failed: {status}");
    let flight = dir.join("flight.jsonl");
    let flight = flight.to_str().unwrap();
    let trace_out = dir.join("trace.jsonl");
    let trace_out = trace_out.to_str().unwrap();

    // (commands, extra flags, expected stderr fragment)
    let single = ["sim", "profile", "scenario", "trace replay"];
    let all = ["sim", "profile", "scenario", "trace replay", "sweep"];
    let table: Vec<(&[&str], Vec<&str>, &str)> = vec![
        (
            &all,
            vec!["--exact", "--aggregate"],
            "--exact and --aggregate are mutually exclusive",
        ),
        (
            &single,
            vec!["--sample-every", "0"],
            "--sample-every must be positive",
        ),
        (
            &single,
            vec!["--sample-every", "-2.5", "--trace", trace_out],
            "--sample-every must be positive",
        ),
        (
            &single,
            vec!["--flightrec", flight, "--flightrec-cap", "0"],
            "--flightrec-cap must be at least 1",
        ),
        (
            &all,
            vec!["--checkpoint-every", "0"],
            "--checkpoint-every must be at least 1",
        ),
        (
            &["sweep"],
            vec!["--trace", trace_out],
            "apply to single-engine commands",
        ),
        (
            &["scenario"],
            vec!["--checked"],
            "need --scheme (one engine run, one checkpoint)",
        ),
        (&["scenario"], vec!["--hybrid"], "--hybrid needs --scheme"),
        (
            &["scenario"],
            vec!["--hybrid", "--scheme", "mfcd"],
            "--hybrid supports mtcd and mtsd",
        ),
        (
            &["scenario"],
            vec!["--hybrid", "--scheme", "mtsd", "--exact"],
            "--hybrid refuses --exact",
        ),
        (
            &["scenario"],
            vec!["--hybrid", "--scheme", "mtcd", "--checked"],
            "--hybrid refuses --records and --checked",
        ),
        (
            &["scenario"],
            vec!["--hybrid", "--scheme", "mtsd", "--records", flight],
            "--hybrid refuses --records and --checked",
        ),
        (
            &["scenario"],
            vec!["--hybrid", "--scheme", "mtsd", "--hybrid-tol", "3"],
            "hybrid tolerance must be in (0, 1]",
        ),
    ];

    let mut rows = 0;
    for (names, extra, message) in &table {
        for (name, base) in commands(&dir, &trace) {
            if !names.contains(&name) {
                continue;
            }
            let out = Command::new(BIN)
                .args(&base)
                .args(extra)
                .output()
                .expect("spawn btfluid");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{name} {extra:?}: stderr: {stderr}"
            );
            assert!(
                stderr.contains(message),
                "{name} {extra:?}: expected '{message}' in: {stderr}"
            );
            assert!(
                out.stdout.is_empty(),
                "{name} {extra:?}: refused yet printed a table"
            );
            for path in [flight, trace_out] {
                assert!(
                    !Path::new(path).exists(),
                    "{name} {extra:?}: refused yet wrote {path}"
                );
            }
            rows += 1;
        }
    }
    assert_eq!(rows, 30, "every table row must hit a command");
    let _ = std::fs::remove_dir_all(&dir);
}
