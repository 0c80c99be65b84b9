//! `btfluid perf` — the cross-run performance observatory.
//!
//! Ingests the committed `BENCH_*.json` artifacts (and, optionally, a
//! sweep manifest's `wall_ms` fields), flattens every numeric leaf into a
//! dotted metric name, and maintains `PERF_HISTORY.jsonl` — one JSON line
//! per recorded observation set. From the history it computes a **noise
//! band** per metric (median ± max(3·1.4826·MAD, 5% of the median)) and
//! classifies the current value:
//!
//! * metrics whose name marks them *lower-is-better* (`overhead`, `wall`,
//!   `ns_per`, `per_checkpoint`) regress when they land **above** the
//!   band;
//! * *higher-is-better* metrics (`speedup`, `events_per`, `flatness`)
//!   regress when they land **below** it;
//! * everything else is informational.
//!
//! `--check` exits 4 ([`EXIT_INVARIANT`]) on any regression — the CI gate.
//! `--record` appends the current observation to the history. `--canary`
//! degrades every directional metric before checking (lower-better ×1.5,
//! higher-better ×0.5) and therefore must exit 4: CI asserts that the
//! gate actually trips. A `perf-report.json` (and optionally a markdown
//! delta table) is written either way.

use crate::args::Options;
use crate::errors::{CliError, EXIT_INVARIANT};
use btfluid_harness as harness;
use btfluid_telemetry::{diag, Json, Level};
use std::collections::BTreeMap;
use std::path::Path;

/// History schema version, stamped into every line.
pub const PERF_HISTORY_VERSION: u64 = 1;

/// Minimum history depth before the band is trusted to gate.
const MIN_HISTORY: usize = 3;

/// How a metric's movement is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller values are better (walls, overheads).
    LowerBetter,
    /// Larger values are better (speedups, throughputs).
    HigherBetter,
    /// No gate — tracked for context only.
    Informational,
}

impl Direction {
    fn name(self) -> &'static str {
        match self {
            Direction::LowerBetter => "lower-better",
            Direction::HigherBetter => "higher-better",
            Direction::Informational => "informational",
        }
    }
}

/// Classifies a dotted metric name. Substring-based on purpose: bench
/// keys are stable, and a new key lands in the right class by following
/// the existing naming convention instead of editing a table here.
pub fn direction(metric: &str) -> Direction {
    let lower = [
        "overhead",
        "wall",
        "ns_per",
        "per_checkpoint",
        "per_consult",
    ];
    let higher = ["speedup", "events_per", "flatness"];
    // Only the leaf's own name decides: matching the full dotted path
    // would drag every sibling of an "…_overhead" object into the gate
    // (its lambda0, rep count, capacities — config constants, not perf).
    // Numeric tail segments (array indices) defer to the nearest named
    // ancestor, so spread arrays classify by their field name.
    let leaf = metric
        .rsplit('.')
        .find(|seg| !seg.chars().all(|c| c.is_ascii_digit()))
        .unwrap_or(metric);
    // "overhead" wins over "events_per" etc. — a name matching both
    // classes (none today) gates conservatively on the lower-better side.
    if lower.iter().any(|k| leaf.contains(k)) {
        Direction::LowerBetter
    } else if higher.iter().any(|k| leaf.contains(k)) {
        Direction::HigherBetter
    } else {
        Direction::Informational
    }
}

/// Flattens every numeric leaf of `doc` into `out` under dotted names
/// rooted at `prefix`; array elements are indexed by position.
pub fn flatten(prefix: &str, doc: &Json, out: &mut BTreeMap<String, f64>) {
    match doc {
        Json::Num(raw) => {
            if let Ok(v) = raw.parse::<f64>() {
                if v.is_finite() {
                    out.insert(prefix.to_string(), v);
                }
            }
        }
        Json::Obj(fields) => {
            for (key, val) in fields {
                let name = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten(&name, val, out);
            }
        }
        Json::Arr(items) => {
            for (i, val) in items.iter().enumerate() {
                flatten(&format!("{prefix}.{i}"), val, out);
            }
        }
        _ => {}
    }
}

/// One metric's verdict in the report.
struct Row {
    metric: String,
    value: f64,
    median: Option<f64>,
    band: Option<f64>,
    dir: Direction,
    regressed: bool,
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median and noise half-width over history samples: MAD scaled to a
/// normal-consistent sigma, three sigmas wide, floored at 5% of the
/// median so a dead-flat history doesn't gate on measurement jitter.
fn band(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let med = median_of(&sorted);
    let mut dev: Vec<f64> = sorted.iter().map(|x| (x - med).abs()).collect();
    dev.sort_by(f64::total_cmp);
    let mad = median_of(&dev);
    let width = (3.0 * 1.4826 * mad).max(0.05 * med.abs()).max(1e-9);
    (med, width)
}

/// Collects the current observation set from bench files and an optional
/// sweep manifest.
fn observe(opts: &Options) -> Result<BTreeMap<String, f64>, CliError> {
    let mut metrics = BTreeMap::new();
    let bench_list = opts
        .get("bench")
        .unwrap_or("BENCH_des.json,BENCH_scenario.json,BENCH_trace.json");
    for path in bench_list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                diag!(Level::Warn, "perf: {path} not found; skipping");
                continue;
            }
            Err(e) => return Err(format!("perf: {path}: {e}").into()),
        };
        let doc = Json::parse(&text).map_err(|e| format!("perf: {path}: {e}"))?;
        let root = doc
            .get("bench")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| {
                Path::new(path)
                    .file_stem()
                    .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned())
            });
        // Identity fields (p, seed, lambda0 grids…) are configuration,
        // not measurements, but they flatten harmlessly: they never move,
        // so their band is zero-width around the pinned value, and they
        // carry no direction keyword, so they never gate.
        flatten(&root, &doc, &mut metrics);
    }
    if let Some(path) = opts.get("manifest") {
        // The journal reader treats a missing file as empty; here it was named.
        std::fs::metadata(path).map_err(|e| format!("perf: {path}: {e}"))?;
        let mut rates: Vec<f64> = harness::manifest::load(Path::new(path))?
            .iter()
            .filter(|r| r.events > 0 && r.wall_ms > 0)
            .map(|r| r.events as f64 / r.wall_ms as f64)
            .collect();
        if !rates.is_empty() {
            rates.sort_by(f64::total_cmp);
            metrics.insert("sweep.events_per_ms_median".into(), median_of(&rates));
            metrics.insert("sweep.cells".into(), rates.len() as f64);
        }
    }
    if metrics.is_empty() {
        return Err("perf: no metrics found (no readable --bench files)".into());
    }
    Ok(metrics)
}

/// Loads the per-metric history from the JSONL file (missing file = empty
/// history — the observatory bootstraps itself).
fn load_history(path: &str) -> Result<Vec<BTreeMap<String, f64>>, CliError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("perf: {path}: {e}").into()),
    };
    let mut history = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("perf: {path}:{}: {e}", i + 1))?;
        let Some(obj) = rec.get("metrics") else {
            return Err(format!("perf: {path}:{}: missing metrics", i + 1).into());
        };
        let mut metrics = BTreeMap::new();
        flatten("", obj, &mut metrics);
        history.push(metrics);
    }
    Ok(history)
}

fn history_line(seq: usize, metrics: &BTreeMap<String, f64>) -> String {
    let fields: Vec<(String, Json)> = metrics
        .iter()
        .map(|(k, v)| (k.clone(), Json::num_f64(*v)))
        .collect();
    let doc = Json::Obj(vec![
        ("version".into(), Json::num_u64(PERF_HISTORY_VERSION)),
        ("seq".into(), Json::num_u64(seq as u64)),
        ("metrics".into(), Json::Obj(fields)),
    ]);
    format!("{doc}\n")
}

fn report_json(rows: &[Row], history_len: usize, gated: bool) -> String {
    let entries: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("metric".into(), Json::Str(r.metric.clone())),
                ("value".into(), Json::num_f64(r.value)),
                ("direction".into(), Json::Str(r.dir.name().into())),
                ("regressed".into(), Json::Bool(r.regressed)),
            ];
            if let (Some(med), Some(w)) = (r.median, r.band) {
                fields.push(("median".into(), Json::num_f64(med)));
                fields.push(("band".into(), Json::num_f64(w)));
            }
            Json::Obj(fields)
        })
        .collect();
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("btfluid-perf-report".into())),
        ("version".into(), Json::num_u64(PERF_HISTORY_VERSION)),
        ("history".into(), Json::num_u64(history_len as u64)),
        ("gated".into(), Json::Bool(gated)),
        (
            "regressions".into(),
            Json::num_u64(rows.iter().filter(|r| r.regressed).count() as u64),
        ),
        ("metrics".into(), Json::Arr(entries)),
    ]);
    format!("{doc}\n")
}

fn markdown_table(rows: &[Row]) -> String {
    let mut out = String::from(
        "| metric | value | median | band ± | direction | verdict |\n\
         |---|---:|---:|---:|---|---|\n",
    );
    for r in rows {
        let fmt = |x: f64| {
            if x.abs() >= 1000.0 {
                format!("{x:.0}")
            } else {
                format!("{x:.4}")
            }
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            r.metric,
            fmt(r.value),
            r.median.map_or_else(|| "-".into(), fmt),
            r.band.map_or_else(|| "-".into(), fmt),
            r.dir.name(),
            if r.regressed {
                "**REGRESSED**"
            } else if r.dir == Direction::Informational {
                "info"
            } else {
                "ok"
            },
        ));
    }
    out
}

/// Entry point for `btfluid perf`.
pub fn cmd_perf(opts: &Options) -> Result<(), CliError> {
    let mut current = observe(opts)?;
    let history_path = opts.get("history").unwrap_or("PERF_HISTORY.jsonl");
    let history = load_history(history_path)?;

    if opts.has("canary") {
        // Degrade every directional metric far outside any honest noise
        // band; a gate that stays green on this data is broken.
        for (name, value) in current.iter_mut() {
            match direction(name) {
                Direction::LowerBetter => *value *= 1.5,
                Direction::HigherBetter => *value *= 0.5,
                Direction::Informational => {}
            }
        }
        diag!(
            Level::Info,
            "perf: canary mode — directional metrics degraded 50%"
        );
    }

    let gate = history.len() >= MIN_HISTORY;
    let mut rows: Vec<Row> = Vec::new();
    for (metric, value) in &current {
        let samples: Vec<f64> = history
            .iter()
            .filter_map(|h| h.get(metric))
            .copied()
            .collect();
        let dir = direction(metric);
        if samples.len() >= MIN_HISTORY {
            let (med, width) = band(&samples);
            let regressed = gate
                && match dir {
                    Direction::LowerBetter => *value > med + width,
                    Direction::HigherBetter => *value < med - width,
                    Direction::Informational => false,
                };
            rows.push(Row {
                metric: metric.clone(),
                value: *value,
                median: Some(med),
                band: Some(width),
                dir,
                regressed,
            });
        } else {
            rows.push(Row {
                metric: metric.clone(),
                value: *value,
                median: None,
                band: None,
                dir,
                regressed: false,
            });
        }
    }

    let report_path = opts.get("report").unwrap_or("perf-report.json");
    let regressions: Vec<&Row> = rows.iter().filter(|r| r.regressed).collect();
    harness::atomic_write(
        Path::new(report_path),
        report_json(&rows, history.len(), gate).as_bytes(),
    )?;
    diag!(Level::Info, "perf: wrote {report_path}");
    if let Some(md) = opts.get("md-out") {
        harness::atomic_write(Path::new(md), markdown_table(&rows).as_bytes())?;
        diag!(Level::Info, "perf: wrote {md}");
    }

    if opts.has("record") {
        let line = history_line(history.len() + 1, &current);
        let mut text = match std::fs::read_to_string(history_path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("perf: {history_path}: {e}").into()),
        };
        text.push_str(&line);
        harness::atomic_write(Path::new(history_path), text.as_bytes())?;
        println!(
            "perf: recorded observation {} ({} metric(s)) into {history_path}",
            history.len() + 1,
            current.len()
        );
    }

    let tracked = rows
        .iter()
        .filter(|r| r.dir != Direction::Informational)
        .count();
    println!(
        "perf: {} metric(s), {} gated, history depth {}{}",
        rows.len(),
        tracked,
        history.len(),
        if gate {
            String::new()
        } else {
            format!(" (< {MIN_HISTORY}: observing only, no gate)")
        }
    );
    for r in &regressions {
        println!(
            "perf: REGRESSION {}: {} vs median {} ± {} ({})",
            r.metric,
            r.value,
            r.median.unwrap_or(f64::NAN),
            r.band.unwrap_or(f64::NAN),
            r.dir.name()
        );
    }

    if opts.has("check") || opts.has("canary") {
        if !regressions.is_empty() {
            return Err(CliError::new(
                EXIT_INVARIANT,
                format!(
                    "perf: {} metric(s) regressed beyond the noise band \
                     (see {report_path})",
                    regressions.len()
                ),
            ));
        }
        if opts.has("canary") {
            return Err(CliError::new(
                EXIT_INVARIANT,
                if gate {
                    "perf: canary degraded the metrics but nothing regressed — \
                     the gate is broken"
                        .to_string()
                } else {
                    format!(
                        "perf: canary cannot arm — history depth {} < {MIN_HISTORY}",
                        history.len()
                    )
                },
            ));
        }
        println!("perf: all gated metrics within their noise bands");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_classify_by_convention() {
        assert_eq!(
            direction("des_scale.telemetry_overhead.noop_overhead_pct"),
            Direction::LowerBetter
        );
        assert_eq!(
            direction("des_scale.points.2.exact.wall_s"),
            Direction::LowerBetter
        );
        assert_eq!(
            direction("sweep.events_per_ms_median"),
            Direction::HigherBetter
        );
        assert_eq!(
            direction("des_scale.aggregate_flatness_512_over_32"),
            Direction::HigherBetter
        );
        assert_eq!(
            direction("des_scale.points.0.lambda0"),
            Direction::Informational
        );
        // Only the leaf name decides — siblings of an "…_overhead" object
        // are config constants, not perf metrics.
        assert_eq!(
            direction("des_scale.telemetry_overhead.lambda0"),
            Direction::Informational
        );
        assert_eq!(
            direction("des_scale.telemetry_overhead.reps"),
            Direction::Informational
        );
        // Array indices defer to the nearest named ancestor.
        assert_eq!(
            direction("des_scale.telemetry_overhead.bare_spread_s.0"),
            Direction::Informational
        );
        assert_eq!(
            direction("des_scale.injector_overhead.per_consult_ns"),
            Direction::LowerBetter
        );
    }

    #[test]
    fn flatten_walks_objects_and_arrays() {
        let doc = Json::parse(r#"{"a":{"b":1.5,"c":[2,3]},"d":"x","e":true}"#).unwrap();
        let mut out = BTreeMap::new();
        flatten("root", &doc, &mut out);
        assert_eq!(out.get("root.a.b"), Some(&1.5));
        assert_eq!(out.get("root.a.c.0"), Some(&2.0));
        assert_eq!(out.get("root.a.c.1"), Some(&3.0));
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn band_floors_on_flat_history() {
        let (med, width) = band(&[10.0, 10.0, 10.0, 10.0]);
        assert_eq!(med, 10.0);
        assert!((width - 0.5).abs() < 1e-12, "5% floor, got {width}");
        // Real spread dominates the floor once it is wide enough.
        let (_, width) = band(&[10.0, 14.0, 6.0, 10.0, 11.0, 9.0]);
        assert!(width > 0.5, "{width}");
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median_of(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median_of(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
