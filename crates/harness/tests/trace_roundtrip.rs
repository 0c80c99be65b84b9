//! Regression: a JSONL trace containing a *non-finite* sample must still
//! be a valid JSON document per line (non-finite encodes as `null`), and
//! the workspace-wide downgrade counter must record the event.

use btfluid_telemetry::{Counters, Json, Sample, TraceRecord, TraceSink};

#[test]
fn trace_with_non_finite_sample_round_trips_as_valid_json() {
    let dir = std::env::temp_dir().join("btfluid_trace_nan_roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.jsonl");

    let before = btfluid_telemetry::non_finite_null_count();
    let mut sink = TraceSink::create(&path).unwrap();
    sink.meta(&[
        ("scheme", Json::Str("MTCD".into())),
        ("sample_every", Json::num_f64(f64::NAN)),
    ]);
    // A sample whose adapt means blew up to NaN/∞ — the failure mode this
    // guards against is the sink writing literal `NaN` and breaking every
    // later `btfluid inspect` of the file.
    sink.sample(&Sample {
        t: 10.0,
        events: 123,
        downloaders: &[4, 2],
        download_pairs: &[4, 2],
        seed_pairs: &[1, 1],
        weight: &[1.0, f64::INFINITY],
        pool_real: &[0.5, f64::NAN],
        pool_virtual: &[0.0, 0.0],
        rho_mean: f64::NAN,
        delta_mean: f64::NEG_INFINITY,
        counters: Counters::default(),
    });
    sink.end(10.0, &Counters::default());
    let final_path = sink.finish().unwrap();

    let text = std::fs::read_to_string(&final_path).unwrap();
    let mut lines = 0;
    let mut saw_null_rho = false;
    for line in text.lines() {
        let record =
            TraceRecord::parse(line).unwrap_or_else(|e| panic!("invalid JSON line {line:?}: {e}"));
        if let TraceRecord::Sample(s) = record {
            assert!(line.contains("\"rho_mean\":null"), "{line}");
            assert!(s.rho_mean.is_nan() && s.pool_real[1].is_nan());
            saw_null_rho = true;
        }
        lines += 1;
    }
    assert!(lines >= 3, "expected meta+sample+end, got {lines} lines");
    assert!(saw_null_rho, "sample record with null rho_mean not found");
    assert!(
        btfluid_telemetry::non_finite_null_count() >= before + 4,
        "non-finite downgrades were not counted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
