//! What ran, where: stamped on every benchmark output.

use btfluid_harness::json::Json;
use std::path::Path;
use std::process::Command;

/// Build and host facts of this benchmark process.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the source tree, or `unknown` outside git.
    pub git_rev: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// Host name.
    pub host: String,
    /// Available parallelism.
    pub nproc: usize,
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.trim();
    (!line.is_empty()).then(|| line.to_string())
}

impl Provenance {
    /// Collects the facts; anything unavailable reads `unknown`.
    pub fn collect() -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut git = Command::new("git");
        git.arg("rev-parse").arg("HEAD").current_dir(&root);
        // Do not pick up a repository that merely contains the tree.
        if let Some(above) = root
            .canonicalize()
            .ok()
            .and_then(|r| r.parent().map(Path::to_path_buf))
        {
            git.env("GIT_CEILING_DIRECTORIES", above);
        }
        let unknown = || "unknown".to_string();
        Self {
            git_rev: command_line(&mut git).unwrap_or_else(unknown),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            host: command_line(Command::new("uname").arg("-n")).unwrap_or_else(unknown),
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    /// JSON object of the facts plus the run's seed and config digests.
    pub fn to_json(&self, seed: u64, config_digests: &[(String, u64)]) -> Json {
        Json::Obj(vec![
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
            ("rustc".into(), Json::Str(self.rustc.into())),
            ("profile".into(), Json::Str(self.profile.into())),
            ("host".into(), Json::Str(self.host.clone())),
            ("nproc".into(), Json::num_u64(self.nproc as u64)),
            ("seed".into(), Json::num_u64(seed)),
            (
                "config_digests".into(),
                Json::Obj(
                    config_digests
                        .iter()
                        .map(|(run, d)| (run.clone(), Json::Str(format!("{d:016x}"))))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Peak resident set size of this process in MiB: `VmHWM` of
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would be wrong here:
/// it survives `execve`, so under `cargo run` it reports cargo's own
/// footprint whenever that is the larger.)
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    (kib > 0.0).then_some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_and_grows_with_allocation() {
        let before = peak_rss_mb().expect("/proc/self/status has VmHWM");
        assert!(before > 0.0);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let after = peak_rss_mb().unwrap();
        assert!(after >= before + 32.0, "{before} -> {after}");
    }
}
