//! Fixed-seed output bytes of the single-engine commands, pinned as
//! FNV-1a 64 digests: stdout (all with `--csv`), the records CSV and the
//! JSON artifacts (trace, flight dump, sweep journal, repro bundle) must
//! not move when the run path or the JSON codec is refactored.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_btfluid");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `btfluid args… --csv` in `dir` and returns its stdout.
fn stdout(dir: &Path, args: &[&str]) -> Vec<u8> {
    let out = Command::new(BIN)
        .current_dir(dir)
        .args(args)
        .arg("--csv")
        .stderr(Stdio::null())
        .output()
        .expect("spawn btfluid");
    assert!(out.status.success(), "{args:?} failed: {}", out.status);
    out.stdout
}

fn file(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

/// Replaces the number after each `"key":` with `#`, so wall-clock fields
/// do not enter a digest.
fn mask_keys(text: &str, keys: &[&str]) -> String {
    let mut out = text.to_string();
    for key in keys {
        let pat = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&pat) {
            let start = from + at + pat.len();
            let len = out[start..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "#");
            from = start + 1;
        }
    }
    out
}

/// Masks the throughput a journal's `detail` ends with (`…, 480957 ev/s`).
fn mask_rate(text: &str) -> String {
    text.split_inclusive('\n')
        .map(|line| match line.find(" ev/s") {
            Some(end) => {
                let start = line[..end].rfind(' ').map_or(0, |i| i + 1);
                format!("{}#{}", &line[..start], &line[end..])
            }
            None => line.to_string(),
        })
        .collect()
}

/// A file's bytes with its wall-clock fields and its queue-shape counters
/// (`heap_peak`, `stale_discards`: how the event heap is laid out, not
/// what the run did) masked.
fn masked(dir: &Path, name: &str) -> Vec<u8> {
    let text = String::from_utf8(file(dir, name)).expect("JSON artifacts are UTF-8");
    let keys = [
        "heap_peak",
        "micros",
        "pair_overhead_ns",
        "self_ns",
        "stale_discards",
        "total_ns",
        "wall_ms",
    ];
    mask_rate(&mask_keys(&text, &keys)).into_bytes()
}

/// Fails listing every `(name, bytes, digest)` case whose bytes moved.
fn assert_pinned(cases: &[(&str, Vec<u8>, u64)]) {
    let drifted: Vec<String> = cases
        .iter()
        .filter(|(_, bytes, want)| fnv1a(bytes) != *want)
        .map(|(name, bytes, want)| {
            format!(
                "{name}: digest {:#018x}, pinned {want:#018x}\n{}",
                fnv1a(bytes),
                String::from_utf8_lossy(bytes)
            )
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "outputs drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn fixed_seed_outputs_are_pinned() {
    let dir = fresh_dir("btfluid_golden_test");
    let d = dir.as_path();
    let cases: Vec<(&str, Vec<u8>, u64)> = vec![
        (
            "sim cmfsd:0.5",
            stdout(
                d,
                &[
                    "sim",
                    "--scheme",
                    "cmfsd:0.5",
                    "--horizon",
                    "600",
                    "--seed",
                    "3",
                ],
            ),
            0x2ea4_4a6f_05c7_ad45,
        ),
        (
            "sim mtcd --aggregate",
            stdout(
                d,
                &["sim", "--scheme", "mtcd", "--aggregate", "--horizon", "600"],
            ),
            0xeb5c_4275_acba_e34c,
        ),
        (
            "scenario line-up",
            stdout(d, &["scenario", "flash_crowd", "--smoke", "--seed", "2006"]),
            0xf16b_0cbe_6b58_b7f9,
        ),
        (
            "scenario diurnal --aggregate",
            stdout(
                d,
                &[
                    "scenario",
                    "diurnal",
                    "--smoke",
                    "--scheme",
                    "mtcd",
                    "--seed",
                    "3",
                    "--aggregate",
                    "--records",
                    "R.csv",
                ],
            ),
            0xd49f_117b_49fa_fb31,
        ),
        (
            "scenario diurnal records",
            file(d, "R.csv"),
            0xd764_affd_130d_e565,
        ),
        (
            "scenario --hybrid",
            stdout(
                d,
                &[
                    "scenario",
                    "flash_crowd",
                    "--smoke",
                    "--scheme",
                    "mtsd",
                    "--hybrid",
                ],
            ),
            0x61e6_6712_08e3_bcd5,
        ),
        (
            "trace gen",
            stdout(
                d,
                &[
                    "trace",
                    "gen",
                    "--seed",
                    "1",
                    "--horizon",
                    "400",
                    "--out",
                    "T.csv",
                ],
            ),
            fnv1a(b""),
        ),
        ("trace gen file", file(d, "T.csv"), 0x8385_0b74_6213_76e9),
        (
            "trace replay",
            stdout(d, &["trace", "replay", "--in", "T.csv", "--scheme", "mtsd"]),
            0xb55d_f9f1_60c3_3ef6,
        ),
        (
            "sweep",
            stdout(
                d,
                &[
                    "sweep",
                    "--horizon",
                    "200",
                    "--reps",
                    "1",
                    "--schemes",
                    "mtsd,cmfsd:0.5",
                    "--manifest",
                    "M.jsonl",
                ],
            ),
            0xfde1_a5c1_983a_c363,
        ),
        ("sweep journal", masked(d, "M.jsonl"), 0x67d7_9ba8_5c60_a758),
        (
            "sim --trace --flightrec",
            stdout(
                d,
                &[
                    "sim",
                    "--scheme",
                    "mtcd",
                    "--horizon",
                    "600",
                    "--seed",
                    "3",
                    "--trace",
                    "S.jsonl",
                    "--flightrec",
                    "F.jsonl",
                ],
            ),
            0x411c_ed11_c0a0_c197,
        ),
        ("sim trace", masked(d, "S.jsonl"), 0xae2c_a6e4_f8b1_e0d4),
        ("sim flight dump", file(d, "F.jsonl"), 0x2caa_c216_e28c_b183),
    ];
    assert_pinned(&cases);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash sweep CI runs: its journal line, repro bundle and bundled
/// flight dump are pinned with wall-clock fields masked.
#[test]
fn crash_sweep_artifacts_are_pinned() {
    let dir = fresh_dir("btfluid_golden_crash_test");
    let out = Command::new(BIN)
        .current_dir(&dir)
        .args([
            "sweep",
            "--manifest",
            "M.jsonl",
            "--schemes",
            "mtcd",
            "--reps",
            "1",
            "--horizon",
            "200",
            "--seed",
            "43",
            "--inject-panic",
            "mtcd-s43@150",
            "--checkpoint-every",
            "50",
            "--retries",
            "0",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn btfluid");
    assert_eq!(out.code(), Some(6), "the injected panic is quarantined");
    let bundle = dir.join("M.bundles/mtcd-s43");
    assert_pinned(&[
        ("journal", masked(&dir, "M.jsonl"), 0x6530_8cdb_c00f_4c4d),
        (
            "repro.json",
            masked(&bundle, "repro.json"),
            0x5bf0_e1d0_388b_4eb6,
        ),
        (
            "flightrec.jsonl",
            file(&bundle, "flightrec.jsonl"),
            0xe2d2_746b_b0d4_af6e,
        ),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--k` reaches the engine: `sim` used to read it nowhere.
#[test]
fn sim_honours_k() {
    let dir = fresh_dir("btfluid_golden_k_test");
    let default = stdout(&dir, &["sim", "--horizon", "600"]);
    let k5 = stdout(&dir, &["sim", "--horizon", "600", "--k", "5"]);
    assert_eq!(
        fnv1a(&default),
        fnv1a(&stdout(&dir, &["sim", "--horizon", "600"]))
    );
    assert_ne!(default, k5, "--k 5 printed the K = 10 table");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The rate cache's memory grows with the classes present, not with K²:
/// the largest K a file id can name runs under the demand-aware schemes,
/// which re-split every pool on each weight change.
#[test]
fn sim_runs_at_the_largest_k() {
    let dir = fresh_dir("btfluid_golden_large_k_test");
    for scheme in ["mfcd", "cmfsd:0.5"] {
        let out = stdout(
            &dir,
            &[
                "sim",
                "--scheme",
                scheme,
                "--k",
                "65535",
                "--p",
                "0.00005",
                "--lambda0",
                "4",
                "--horizon",
                "60",
                "--seed",
                "3",
            ],
        );
        assert!(!out.is_empty(), "{scheme}: no table");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--lambda0` reaches the engine: `sim`, `profile` and `sweep` used to
/// run at λ₀ = 0.25 whatever it said.
#[test]
fn sim_honours_lambda0() {
    let dir = fresh_dir("btfluid_golden_lambda0_test");
    let base = ["sim", "--scheme", "mfcd", "--horizon", "200", "--seed", "3"];
    let default = stdout(&dir, &base);
    let explicit = stdout(&dir, &[&base[..], &["--lambda0", "0.25"]].concat());
    let busy = stdout(&dir, &[&base[..], &["--lambda0", "4"]].concat());
    assert_eq!(default, explicit, "the default λ₀ is 0.25");
    assert_ne!(default, busy, "--lambda0 4 printed the λ₀ = 0.25 table");
    let _ = std::fs::remove_dir_all(&dir);
}
