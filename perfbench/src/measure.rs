//! The measurement loop and the metrics it derives.
//!
//! A run repeats one workload (same seed, same inputs) until its time
//! budget is spent. Untraced, it reports medians of the end-to-end
//! metrics. Traced, it alternates untraced and traced repetitions: the
//! traced ones give the per-layer metrics, the pair gives the tracing
//! overhead, and every repetition's outcomes must be bit-identical to the
//! first one's.

use crate::common::{Rep, RunCounters, Size};
use crate::provenance::peak_rss_mb;
use crate::trace::{covered_ns, median, self_seconds_by_name, Span, Tracer};
use crate::Workload;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Root span of one repetition.
pub const ROOT: &str = "bench.rep";

/// Spans the benchmark records around calls into the library layers.
pub const LAYER_SPANS: [&str; 17] = [
    "des.new",
    "des.step",
    "des.finish",
    "des.snapshot",
    "des.snapshot_encode",
    "des.snapshot_decode",
    "des.restore",
    "harness.write",
    "workload.encode",
    "workload.decode",
    "workload.fit",
    "scenario.synth",
    "scenario.program",
    "scenario.hook",
    "core.evaluate",
    "hybrid.new",
    "hybrid.run",
];

/// Scheme tags with their own rate-recompute metric.
pub const SCHEME_TAGS: [&str; 5] = ["mtsd", "mtcd", "mfcd", "cmfsd", "cmfsd_adapt"];

/// Counts the workloads measure themselves, with units.
const WORKLOAD_COUNTS: [(&str, &str); 12] = [
    ("scenario.hook_calls", "count"),
    ("core.evaluate_calls", "count"),
    ("hybrid.des_events", "count"),
    ("hybrid.fluid_steps", "count"),
    ("hybrid.handoffs", "count"),
    ("harness.writes", "count"),
    ("harness.write_bytes", "B"),
    ("workload.trace_bytes", "B"),
    ("workload.arrivals", "count"),
    ("des.snapshots", "count"),
    ("des.records", "count"),
    ("des.events", "count"),
];

/// End-to-end metrics of the result line (tracing off), as declared in
/// `BENCHMARK.json`. `model_rel_err` and `fail_frac` are reported in the
/// report line only: both are legitimately zero on some workloads, and
/// the result line's `failed`/`attempted` already carry `fail_frac`.
pub const RESULT_END_TO_END: [&str; 3] = ["wall_s", "setup_s", "peak_rss_mb"];

/// Per-layer metrics of the result line (traced), as declared in
/// `BENCHMARK.json`. Self times of layers that only some workloads
/// exercise appear as shares of the repetition (`*_frac`), which are
/// zero where a layer is not used; every `*_s` is in the report line.
pub const RESULT_PER_LAYER: [&str; 44] = [
    "des.step_s",
    "des.new_s",
    "des.finish_s",
    "des.step_frac",
    "des.events",
    "des.events_per_s",
    "des.rate_recomputes_per_event",
    "des.rate_recomputes_per_event.mtsd",
    "des.rate_recomputes_per_event.mtcd",
    "des.rate_recomputes_per_event.mfcd",
    "des.rate_recomputes_per_event.cmfsd",
    "des.rate_recomputes_per_event.cmfsd_adapt",
    "des.rate_clean_hit_frac",
    "des.stale_discard_frac",
    "des.heap_peak",
    "des.agg_rate_updates_per_event",
    "des.agg_samples_per_event",
    "des.records",
    "des.snapshot_frac",
    "des.snapshot_encode_frac",
    "des.snapshot_decode_frac",
    "des.restore_frac",
    "des.snapshot_bytes",
    "harness.write_frac",
    "harness.writes",
    "harness.write_bytes",
    "workload.encode_frac",
    "workload.decode_frac",
    "workload.fit_frac",
    "workload.trace_bytes",
    "workload.arrivals",
    "scenario.synth_frac",
    "scenario.hook_frac",
    "scenario.hook_calls",
    "core.evaluate_frac",
    "core.evaluate_calls",
    "hybrid.run_frac",
    "hybrid.des_events",
    "hybrid.fluid_steps",
    "hybrid.handoffs",
    "bench.attributed_frac",
    "trace_overhead_frac",
    "des.snapshots",
    "scenario.program_frac",
];

/// Fewest repetitions of each kind a run makes, however short its budget.
const MIN_REPS: usize = 3;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, e.g. `s`, `MiB`, `1/event`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced pass instead of the end-to-end pass.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
    /// Directory for files the workloads write.
    pub dir: PathBuf,
}

/// A traced repetition: its report and its spans.
#[derive(Debug, Clone)]
pub struct TracedRep {
    /// What the workload reported.
    pub rep: Rep,
    /// Every span recorded during the repetition.
    pub spans: Vec<Span>,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Untraced repetitions.
    pub untraced: Vec<Rep>,
    /// Traced repetitions.
    pub traced: Vec<TracedRep>,
    /// Operations attempted (output checks and runs).
    pub attempted: u64,
    /// Operations that errored, panicked or failed a check.
    pub failed: u64,
    /// Names and details of the failed operations.
    pub failures: Vec<String>,
}

fn one_rep(settings: &Settings, tracer: &mut Tracer) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| {
        tracer.time(ROOT, |t| {
            settings
                .workload
                .run_once(settings.seed, settings.size, &settings.dir, t)
        })
    }))
    .map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

impl Measured {
    fn account(&mut self, label: &str, rep: &Result<Rep, String>, reference: Option<&Rep>) {
        let rep = match rep {
            Ok(rep) => rep,
            Err(panic) => {
                self.attempted += 1;
                self.failed += 1;
                self.failures.push(format!("{label}: panicked: {panic}"));
                return;
            }
        };
        for c in &rep.checks {
            self.attempted += 1;
            if !c.ok {
                self.failed += 1;
                self.failures
                    .push(format!("{label} {}: {}", c.name, c.detail));
            }
        }
        if let Some(first) = reference {
            self.attempted += 1;
            if rep.digests.is_empty() || rep.digests != first.digests {
                self.failed += 1;
                self.failures.push(format!(
                    "{label}: outcomes differ bitwise from the first repetition"
                ));
            }
        }
    }
}

/// Runs the workload until the budget is spent.
pub fn measure(settings: &Settings) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    let mut first: Option<Rep> = None;
    let min_attempts = if settings.trace {
        2 * MIN_REPS
    } else {
        MIN_REPS
    };
    for i in 0u32.. {
        let traced = settings.trace && i % 2 == 1;
        let mut tracer = if traced { Tracer::on(i) } else { Tracer::off() };
        let rep = one_rep(settings, &mut tracer);
        let label = format!("rep {i}{}", if traced { " (traced)" } else { "" });
        m.account(&label, &rep, first.as_ref());
        if let Ok(rep) = rep {
            if first.is_none() {
                first = Some(rep.clone());
            }
            if traced {
                m.traced.push(TracedRep {
                    rep,
                    spans: tracer.into_spans(),
                });
            } else {
                m.untraced.push(rep);
            }
        }
        // Failed repetitions count as attempts, so a failing workload
        // cannot loop forever; one that never succeeds stops early.
        let attempts = i as usize + 1;
        let done = attempts >= min_attempts
            && (start.elapsed().as_secs_f64() >= settings.seconds || m.untraced.is_empty());
        if done {
            break;
        }
    }
    m
}

fn medians(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let v: Vec<f64> = reps.iter().map(f).collect();
    median(&v).unwrap_or(f64::NAN)
}

/// End-to-end metrics of the untraced repetitions.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let model_rel_err = m
        .untraced
        .iter()
        .chain(m.traced.iter().map(|t| &t.rep))
        .map(|r| r.model_rel_err)
        .fold(0.0, f64::max);
    vec![
        metric("wall_s", "s", medians(&m.untraced, |r| r.wall_s)),
        metric("setup_s", "s", medians(&m.untraced, |r| r.setup_s)),
        metric("peak_rss_mb", "MiB", peak_rss_mb().unwrap_or(f64::NAN)),
        metric("model_rel_err", "ratio", model_rel_err),
        metric(
            "fail_frac",
            "ratio",
            m.failed as f64 / m.attempted.max(1) as f64,
        ),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of one traced repetition.
pub fn layer_metrics(t: &TracedRep) -> Vec<Metric> {
    let mut out = Vec::new();
    let root = t
        .spans
        .iter()
        .find(|s| s.name == ROOT && s.parent.is_none());
    let (root_lo, root_hi) = root.map_or((0, 0), |r| (r.start_ns, r.end_ns));
    let root_s = (root_hi - root_lo) as f64 * 1e-9;
    let own = self_seconds_by_name(&t.spans);
    for name in LAYER_SPANS {
        let s = own.get(name).copied().unwrap_or(0.0);
        out.push(metric(format!("{name}_s"), "s", s));
        out.push(metric(format!("{name}_frac"), "frac", ratio(s, root_s)));
    }
    let layer_intervals = t
        .spans
        .iter()
        .filter(|s| LAYER_SPANS.contains(&s.name))
        .map(|s| (s.start_ns, s.end_ns));
    let covered = covered_ns(layer_intervals, root_lo, root_hi) as f64 * 1e-9;
    out.push(metric(
        "bench.attributed_frac",
        "frac",
        ratio(covered, root_s),
    ));
    out.push(metric("bench.rep_s", "s", root_s));

    let rep = &t.rep;
    // Per-event ratios use every dispatched event as the denominator;
    // `events_popped` counts only queue pops and feeds the stale share.
    let sum = |f: &dyn Fn(&RunCounters) -> u64, tag: Option<&str>| -> f64 {
        rep.runs
            .iter()
            .filter(|r| tag.is_none_or(|t| r.tag == t))
            .map(|r| f(r) as f64)
            .sum()
    };
    let events = sum(&|r| r.events, None);
    out.push(metric(
        "des.events_per_s",
        "1/s",
        ratio(events, own.get("des.step").copied().unwrap_or(0.0)),
    ));
    out.push(metric(
        "des.rate_recomputes_per_event",
        "1/event",
        ratio(sum(&|r| r.counters.rate_recomputes, None), events),
    ));
    for tag in SCHEME_TAGS {
        out.push(metric(
            format!("des.rate_recomputes_per_event.{tag}"),
            "1/event",
            ratio(
                sum(&|r| r.counters.rate_recomputes, Some(tag)),
                sum(&|r| r.events, Some(tag)),
            ),
        ));
    }
    out.push(metric(
        "des.rate_clean_hit_frac",
        "frac",
        ratio(sum(&|r| r.counters.rate_clean_hits, None), events),
    ));
    let popped = sum(&|r| r.counters.events_popped, None);
    let stale = sum(&|r| r.counters.stale_discards, None);
    out.push(metric(
        "des.stale_discard_frac",
        "frac",
        ratio(stale, popped + stale),
    ));
    let heap_peak = rep
        .runs
        .iter()
        .map(|r| r.counters.heap_peak)
        .max()
        .unwrap_or(0);
    out.push(metric("des.heap_peak", "count", heap_peak as f64));
    out.push(metric(
        "des.agg_rate_updates_per_event",
        "1/event",
        ratio(sum(&|r| r.counters.agg_rate_updates, None), events),
    ));
    out.push(metric(
        "des.agg_samples_per_event",
        "1/event",
        ratio(sum(&|r| r.counters.agg_samples, None), events),
    ));
    let count = |name: &str| rep.counts.get(name).copied().unwrap_or(0.0);
    out.push(metric(
        "des.snapshot_bytes",
        "B",
        ratio(count("harness.write_bytes"), count("des.snapshots")),
    ));
    for (name, unit) in WORKLOAD_COUNTS {
        let value = match name {
            "des.records" => rep.runs.iter().map(|r| r.records as f64).sum(),
            "des.events" => events,
            _ => count(name),
        };
        out.push(metric(name, unit, value));
    }
    out
}

/// Per-layer metrics: the median of each over the traced repetitions,
/// plus the tracing overhead against the untraced ones.
pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let per_rep: Vec<Vec<Metric>> = m.traced.iter().map(layer_metrics).collect();
    let mut values: BTreeMap<&str, (&'static str, Vec<f64>)> = BTreeMap::new();
    let mut order = Vec::new();
    for rep in &per_rep {
        for x in rep {
            let entry = values.entry(x.name.as_str()).or_insert_with(|| {
                order.push(x.name.clone());
                (x.unit, Vec::new())
            });
            entry.1.push(x.value);
        }
    }
    let mut out: Vec<Metric> = order
        .iter()
        .map(|name| {
            let (unit, v) = &values[name.as_str()];
            metric(name.clone(), unit, median(v).unwrap_or(f64::NAN))
        })
        .collect();
    // The attribution bar holds for each traced repetition, not just the
    // median one.
    let attributed_min = values
        .get("bench.attributed_frac")
        .map_or(f64::NAN, |(_, v)| {
            v.iter().copied().fold(f64::INFINITY, f64::min)
        });
    out.push(metric("bench.attributed_frac.min", "frac", attributed_min));
    let traced_wall = median(&m.traced.iter().map(|t| t.rep.wall_s).collect::<Vec<_>>());
    let untraced_wall = median(&m.untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let overhead = match (traced_wall, untraced_wall) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => f64::NAN,
    };
    out.push(metric("trace_overhead_frac", "frac", overhead));
    out
}

/// The output directory under the checkout the benchmark runs from.
pub fn default_dir() -> PathBuf {
    Path::new("perfbench").join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_validated() {
        assert!(valid_name("des.rate_recomputes_per_event.mfcd"));
        assert!(valid_name("wall_s"));
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("ρ"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
