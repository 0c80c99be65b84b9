//! Fixed-seed output bytes of the single-engine commands, pinned as
//! FNV-1a 64 digests: stdout (all with `--csv`) and the records CSV must
//! not move when the run path is refactored.

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
            0xfecb_0b15_3815_d7d6,
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
    ];
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
