//! The benchmark's own contract: `BENCHMARK.json` names only metrics a
//! run emits, with the units it emits them in, and every workload runs
//! end to end at a tiny size with its structural checks passing.

use btfluid_harness::json::Json;
use perfbench::common::Size;
use perfbench::measure::{
    end_to_end, measure, per_layer, valid_name, Measured, Metric, Settings, RESULT_END_TO_END,
    RESULT_PER_LAYER,
};
use perfbench::Workload;
use std::path::PathBuf;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{section}' list"))
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn tiny(workload: Workload) -> Measured {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{}", workload.name()));
    std::fs::create_dir_all(&dir).unwrap();
    measure(&Settings {
        workload,
        seed: 7,
        seconds: 0.0,
        trace: true,
        size: Size::Tiny,
        dir,
    })
}

fn assert_emits(declared: &[(String, String)], emitted: &[Metric], what: &str) {
    for (name, unit) in declared {
        let m = emitted
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("{what}: declared metric {name} is not emitted"));
        assert_eq!(&m.unit, unit, "{what}: unit of {name}");
        assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
    }
}

#[test]
fn declared_metrics_match_the_result_line() {
    let e2e: Vec<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
    assert_eq!(e2e, RESULT_END_TO_END);
    let layers: Vec<String> = declared("per_layer").into_iter().map(|(n, _)| n).collect();
    let mut sorted = layers.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), layers.len(), "duplicate per-layer names");
    let mut expected: Vec<&str> = RESULT_PER_LAYER.to_vec();
    expected.sort_unstable();
    assert_eq!(sorted, expected);
    for name in layers.iter().chain(&e2e) {
        assert!(valid_name(name), "invalid metric name {name}");
    }
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);
}

#[test]
fn every_workload_runs_tiny_and_emits_every_declared_metric() {
    let e2e_declared = declared("end_to_end");
    let layer_declared = declared("per_layer");
    for workload in Workload::ALL {
        let m = tiny(workload);
        let name = workload.name();
        assert!(
            m.untraced.len() >= 3 && m.traced.len() >= 3,
            "{name}: too few repetitions"
        );
        for rep in m.untraced.iter().chain(m.traced.iter().map(|t| &t.rep)) {
            assert!(!rep.checks.is_empty(), "{name}: no checks ran");
            for c in rep.checks.iter().filter(|c| !c.statistical) {
                assert!(c.ok, "{name}: {} failed: {}", c.name, c.detail);
            }
        }
        assert!(
            !m.failures
                .iter()
                .any(|f| f.contains("differ bitwise") || f.contains("panicked")),
            "{name}: {:?}",
            m.failures
        );
        let e2e = end_to_end(&m);
        let layers = per_layer(&m);
        for x in e2e.iter().chain(&layers) {
            assert!(
                valid_name(&x.name),
                "{name}: invalid metric name {}",
                x.name
            );
        }
        assert_emits(&e2e_declared, &e2e, name);
        assert_emits(&layer_declared, &layers, name);
        let attributed = layers
            .iter()
            .find(|x| x.name == "bench.attributed_frac")
            .unwrap()
            .value;
        assert!(
            attributed > 0.5,
            "{name}: only {attributed} of the wall attributed"
        );
    }
}
