//! The run-flag refusal rules against the real `btfluid` binary: every
//! single-engine command refuses the same contradictory modes and
//! invalid cadences with exit code 2 and one message, before anything
//! runs or any file is written. A malformed workload trace is refused the
//! same way, as invalid input rather than a rejected repro bundle.

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

/// Runs `btfluid args…`, asserts exit 2 with `message` on stderr, an
/// empty stdout, and none of `unwritten` created, and returns stderr.
fn assert_refused(args: &[&str], message: &str, unwritten: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn btfluid");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    assert!(
        stderr.contains(message),
        "{args:?}: expected '{message}' in: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?}: refused yet printed a table"
    );
    for path in unwritten {
        assert!(
            !Path::new(path).exists(),
            "{args:?}: refused yet wrote {path}"
        );
    }
    stderr.into_owned()
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
            let args: Vec<&str> = base
                .iter()
                .map(String::as_str)
                .chain(extra.clone())
                .collect();
            let _ = assert_refused(&args, message, &[flight, trace_out]);
            rows += 1;
        }
    }
    assert_eq!(rows, 30, "every table row must hit a command");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every command that loads a workload trace refuses a malformed one as
/// invalid input (exit 2) naming the file and line, not as a rejected
/// repro bundle (exit 5).
#[test]
fn malformed_trace_refusals_exit_2() {
    let dir = fresh_dir("btfluid_bad_trace_test");
    let jsonl = dir.join("bad.jsonl");
    std::fs::write(&jsonl, "{\"format\":\"btfluid-trace-arrivals\"}\nnope\n").unwrap();
    let csv = dir.join("bad.csv");
    std::fs::write(&csv, "garbage\n").unwrap();
    let manifest = dir.join("sweep.jsonl");
    let (jsonl, csv, manifest) = (
        jsonl.to_str().unwrap(),
        csv.to_str().unwrap(),
        manifest.to_str().unwrap(),
    );
    let jsonl_line = format!("trace '{jsonl}': line 1:");
    let csv_line = format!("trace '{csv}': line 1:");
    let table: [(Vec<&str>, &str); 5] = [
        (vec!["trace", "info", "--in", jsonl], &jsonl_line),
        (vec!["trace", "fit", "--in", jsonl], &jsonl_line),
        (vec!["trace", "info", "--in", csv], &csv_line),
        (vec!["trace", "replay", "--in", csv], &csv_line),
        (
            vec!["sweep", "--manifest", manifest, "--workload", csv],
            &csv_line,
        ),
    ];
    for (args, message) in &table {
        let stderr = assert_refused(args, message, &[manifest]);
        assert!(!stderr.contains("repro bundle"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
