//! Every JSON artifact the telemetry crate writes decodes back, through
//! the reader that sits beside its writer, to the values written.

use btfluid_telemetry::{
    Counters, FlightDump, FlightKind, FlightRecord, FlightRecorder, Json, OwnedSample, Phase,
    Profiler, Sample, TraceRecord, TraceSink, FLIGHTREC_VERSION, TRACE_VERSION,
};

fn sample(s: &OwnedSample) -> Sample<'_> {
    Sample {
        t: s.t,
        events: s.events,
        downloaders: &s.downloaders,
        download_pairs: &s.download_pairs,
        seed_pairs: &s.seed_pairs,
        weight: &s.weight,
        pool_real: &s.pool_real,
        pool_virtual: &s.pool_virtual,
        rho_mean: s.rho_mean,
        delta_mean: s.delta_mean,
        counters: s.counters,
    }
}

#[test]
fn every_trace_record_kind_decodes_to_what_was_written() {
    let dir = std::env::temp_dir().join(format!("btfs-codecs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    let mut sink = TraceSink::create(&path).unwrap();
    sink.meta(&[
        ("label", Json::Str("sim \"MTCD\"\n".into())),
        ("seed", Json::num_u64(u64::MAX)),
        ("exact_rates", Json::Bool(false)),
        ("aggregate", Json::Bool(true)),
        ("sample_every", Json::num_f64(2.5)),
    ]);
    let written = OwnedSample {
        t: 0.1 + 0.2,
        events: u64::MAX,
        downloaders: vec![3, 0, usize::MAX],
        download_pairs: vec![1, 2, 3],
        seed_pairs: vec![],
        weight: vec![1.5, 1e-300, 7.0],
        pool_real: vec![0.25],
        pool_virtual: vec![0.0, 3.0e10],
        rho_mean: 0.75,
        delta_mean: -0.125,
        counters: Counters {
            events_popped: 7,
            agg_samples: 9,
            ..Counters::default()
        },
    };
    sink.sample(&sample(&written));
    sink.span("engine", 1234);
    sink.span_at("handoff:des->fluid", 56, 301.5);
    let mut profiler = Profiler::new();
    profiler.add(Phase::HeapOps, 100);
    profiler.add(Phase::SinkWrite, 7);
    let table = profiler.table(42);
    sink.profile(&table);
    let end = Counters {
        heap_peak: 11,
        snapshot_bytes: u64::MAX,
        ..Counters::default()
    };
    sink.end(80.0, &end);
    sink.finish().unwrap();

    let body = std::fs::read_to_string(&path).unwrap();
    let got: Vec<TraceRecord> = body
        .lines()
        .map(|l| TraceRecord::parse(l).unwrap())
        .collect();
    let want = vec![
        TraceRecord::Meta {
            version: u64::from(TRACE_VERSION),
            label: "sim \"MTCD\"\n".into(),
            exact_rates: false,
            aggregate: true,
        },
        TraceRecord::Sample(written),
        TraceRecord::Span("engine".into(), 1234, None),
        TraceRecord::Span("handoff:des->fluid".into(), 56, Some(301.5)),
        TraceRecord::Profile(table),
        TraceRecord::End(80.0, end),
    ];
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Older traces lack fields; the reader's defaults stand in, and it
/// refuses what is not a btfluid trace record.
#[test]
fn trace_reader_keeps_its_lenient_defaults() {
    let old = "{\"kind\":\"sample\",\"t\":5,\"rho_mean\":null,\"counters\":\
               {\"events_popped\":3,\"stale_discards\":0,\"heap_peak\":0,\
               \"rate_recomputes\":2,\"rate_clean_hits\":0,\"snapshots_taken\":0,\
               \"snapshot_bytes\":0,\"snapshot_micros\":0}}";
    let Ok(TraceRecord::Sample(s)) = TraceRecord::parse(old) else {
        panic!("not a sample")
    };
    assert_eq!((s.t, s.events, s.counters.rate_recomputes), (5.0, 0, 2));
    assert!(s.rho_mean.is_nan() && s.delta_mean.is_nan() && s.downloaders.is_empty());
    // A meta line with only label and seed reads as incremental mode.
    let meta = "{\"schema\":\"btfluid-trace\",\"version\":1,\"kind\":\"meta\",\"seed\":1}";
    let Ok(TraceRecord::Meta {
        label, aggregate, ..
    }) = TraceRecord::parse(meta)
    else {
        panic!("not a meta record")
    };
    assert_eq!((label.as_str(), aggregate), ("?", false));
    let parse = TraceRecord::parse;
    assert_eq!(
        parse("{\"kind\":\"warp\"}"),
        Ok(TraceRecord::Unknown("warp".into()))
    );
    assert_eq!(parse("{\"t\":1}"), Err("record without a kind".into()));
    assert_eq!(
        parse("{\"kind\":\"meta\",\"schema\":\"flightrec\"}"),
        Err("schema 'flightrec' is not 'btfluid-trace'".into())
    );
}

#[test]
fn flight_dump_decodes_to_the_held_records() {
    let mut ring = FlightRecorder::new(4);
    for (i, kind) in (0u64..).zip(FlightKind::ALL) {
        ring.record(FlightRecord {
            t: if kind == FlightKind::FaultConsult {
                -1.0
            } else {
                0.1 * i as f64
            },
            events: i,
            kind,
            a: i % 7,
            b: u64::MAX - i,
        });
    }
    let text = ring.dump_string(Some(2.5));
    let want = FlightDump {
        version: u64::from(FLIGHTREC_VERSION),
        capacity: 4,
        total: 6,
        dropped: 2,
        failure_t: Some(2.5),
        records: ring.iter().copied().collect(),
    };
    assert_eq!(FlightDump::parse(&text), Ok(Some(want)));
    let no_failure = FlightDump::parse(&ring.dump_string(None)).unwrap();
    assert_eq!(no_failure.unwrap().failure_t, None);

    // A non-finite clock travels as null and decodes as NaN.
    let nan = FlightRecord {
        t: f64::NAN,
        events: 1,
        kind: FlightKind::EventPop,
        a: 0,
        b: 0,
    };
    let line = Json::parse(&nan.to_json()).unwrap();
    assert!(FlightRecord::from_json(&line).unwrap().unwrap().t.is_nan());
    // Unknown kinds are skipped; a record without a kind is refused with
    // its line.
    let future = text.clone() + "{\"k\":\"warp\",\"t\":1}\n";
    assert_eq!(
        FlightDump::parse(&future).unwrap().unwrap().records.len(),
        4
    );
    let torn = text + "{\"t\":1}\n";
    assert_eq!(
        FlightDump::parse(&torn),
        Err("6: record without 'k'".into())
    );
    // Another artifact is not a dump.
    assert_eq!(
        FlightDump::parse("{\"schema\":\"btfluid-trace\"}"),
        Ok(None)
    );
}

#[test]
fn counters_decode_what_they_encode() {
    let c = Counters {
        events_popped: 1,
        stale_discards: 2,
        heap_peak: 3,
        rate_recomputes: 4,
        rate_clean_hits: 5,
        snapshots_taken: 6,
        snapshot_bytes: u64::MAX,
        snapshot_micros: 8,
        agg_rate_updates: 9,
        agg_samples: 10,
    };
    let text = c.to_json();
    assert_eq!(Counters::from_json(&Json::parse(&text).unwrap()), Some(c));
    // Objects written before aggregate mode lack its two counters.
    let old = text.replace(",\"agg_rate_updates\":9,\"agg_samples\":10", "");
    let old = Counters::from_json(&Json::parse(&old).unwrap()).unwrap();
    assert_eq!((old.snapshot_bytes, old.agg_samples), (u64::MAX, 0));
    assert_eq!(Counters::from_json(&Json::parse("{}").unwrap()), None);
    assert_eq!(Counters::from_json(&Json::Null), None);
}
