//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! Prints a human summary, one `{"report": …}` JSON line with provenance,
//! every metric and every failed check, and as the last line the result
//! object `{"correct", "attempted", "failed", "metrics"}`. The report and
//! (when traced) every span are also written to
//! `DIR/<workload>-seed<N>-trace<0|1>.jsonl` (default `perfbench/out`).

use btfluid_harness::json::Json;
use perfbench::common::Size;
use perfbench::measure::{
    default_dir, end_to_end, measure, per_layer, Measured, Metric, Settings, RESULT_END_TO_END,
    RESULT_PER_LAYER,
};
use perfbench::provenance::Provenance;
use perfbench::trace::spans_jsonl;
use perfbench::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload paper_mix|flash_aggregate|replay_checkpoint --seed N --seconds S --trace 0|1 [--out DIR]";

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dir = default_dir();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be finite and >= 0, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            "--out" => dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Settings {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
        dir,
    })
}

fn metrics_json(metrics: &[&Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::num_f64(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn report(settings: &Settings, m: &Measured, e2e: &[Metric], layers: &[Metric]) -> Json {
    let first = m.untraced.first().or(m.traced.first().map(|t| &t.rep));
    let digests: Vec<(String, u64)> = first
        .map(|r| {
            r.config_digests
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect()
        })
        .unwrap_or_default();
    let notes = first.map(|r| r.notes.clone()).unwrap_or_default();
    let checks: Vec<String> = first
        .map(|r| {
            r.checks
                .iter()
                .map(|c| {
                    format!(
                        "{} {}: {}",
                        if c.ok { "ok" } else { "FAILED" },
                        c.name,
                        c.detail
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
    Json::Obj(vec![(
        "report".into(),
        Json::Obj(vec![
            (
                "workload".into(),
                Json::Str(settings.workload.name().into()),
            ),
            ("trace".into(), Json::Bool(settings.trace)),
            (
                "provenance".into(),
                Provenance::collect().to_json(settings.seed, &digests),
            ),
            (
                "untraced_reps".into(),
                Json::num_u64(m.untraced.len() as u64),
            ),
            ("traced_reps".into(), Json::num_u64(m.traced.len() as u64)),
            (
                "wall_s_samples".into(),
                Json::Arr(m.untraced.iter().map(|r| Json::num_f64(r.wall_s)).collect()),
            ),
            (
                "end_to_end".into(),
                metrics_json(&e2e.iter().collect::<Vec<_>>()),
            ),
            (
                "per_layer".into(),
                metrics_json(&layers.iter().collect::<Vec<_>>()),
            ),
            ("first_rep_checks".into(), strings(&checks)),
            ("failures".into(), strings(&m.failures)),
            ("notes".into(), strings(&notes)),
        ]),
    )])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&settings.dir) {
        eprintln!("perfbench: cannot create {}: {e}", settings.dir.display());
        return ExitCode::FAILURE;
    }
    let m = measure(&settings);
    let e2e = end_to_end(&m);
    let layers = if settings.trace {
        per_layer(&m)
    } else {
        Vec::new()
    };
    let report = report(&settings, &m, &e2e, &layers);

    let name = settings.workload.name();
    println!(
        "# perfbench {name} seed={} trace={} reps={} untraced + {} traced",
        settings.seed,
        u8::from(settings.trace),
        m.untraced.len(),
        m.traced.len()
    );
    for x in e2e.iter().chain(&layers) {
        println!("# {name} {:<44} {:>16.6} {}", x.name, x.value, x.unit);
    }
    for f in &m.failures {
        println!("# FAILED {f}");
    }
    println!("{report}");

    let mut file = format!("{report}\n");
    for t in &m.traced {
        file.push_str(&spans_jsonl(&t.spans));
    }
    let path = settings.dir.join(format!(
        "{name}-seed{}-trace{}.jsonl",
        settings.seed,
        u8::from(settings.trace)
    ));
    if let Err(e) = std::fs::write(&path, file) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }

    let selected: Vec<&Metric> = if settings.trace {
        layers
            .iter()
            .filter(|x| RESULT_PER_LAYER.contains(&x.name.as_str()))
            .collect()
    } else {
        e2e.iter()
            .filter(|x| RESULT_END_TO_END.contains(&x.name.as_str()))
            .collect()
    };
    let result = Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(m.failed == 0 && !m.untraced.is_empty()),
        ),
        ("attempted".into(), Json::num_u64(m.attempted.max(1))),
        ("failed".into(), Json::num_u64(m.failed)),
        ("metrics".into(), metrics_json(&selected)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
