//! The versioned JSONL trace sink.
//!
//! One trace file is a sequence of newline-delimited JSON objects:
//!
//! 1. a `meta` record stamped with the schema name and version (plus
//!    caller-supplied run parameters),
//! 2. any number of `sample` and `span` records,
//! 3. a final `end` record with the closing clock and counters.
//!
//! A file may hold several such segments, one per engine run.
//! [`TraceRecord::parse`] is the matching reader: it decodes any line
//! this writer emits (and `profile` records), reading fields that older
//! traces lack as their defaults.
//!
//! Writes follow the snapshot layer's atomic discipline: everything goes
//! to `<path>.tmp` and is renamed over the final path by
//! [`TraceSink::finish`], so a crash leaves either no trace or a
//! complete one — a lingering `.tmp` always means "this run did not
//! finish".

use crate::counters::Counters;
use crate::json::{self, Json};
use crate::probe::{OwnedSample, Probe, Sample};
use crate::profiler::{PhaseStats, ProfileTable, PHASES};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Schema identifier stamped on every trace's meta record.
pub const TRACE_SCHEMA: &str = "btfluid-trace";
/// Current trace schema version.
pub const TRACE_VERSION: u32 = 1;

/// An append-only JSONL trace writer (see module docs for the record
/// grammar and atomicity guarantees).
#[derive(Debug)]
pub struct TraceSink {
    final_path: PathBuf,
    tmp_path: PathBuf,
    out: Option<BufWriter<File>>,
    error: Option<String>,
    lines: u64,
}

impl TraceSink {
    /// Opens `<path>.tmp` for writing; the final path appears only on
    /// [`TraceSink::finish`].
    ///
    /// # Errors
    /// Propagates the file creation failure.
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        let tmp_path = PathBuf::from(os);
        let file = File::create(&tmp_path)?;
        Ok(Self {
            final_path: path.to_path_buf(),
            tmp_path,
            out: Some(BufWriter::new(file)),
            error: None,
            lines: 0,
        })
    }

    /// Wraps the sink for sharing between a probe and the caller.
    pub fn shared(self) -> SharedSink {
        Arc::new(Mutex::new(self))
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        let Some(out) = self.out.as_mut() else {
            self.error = Some("write after finish".into());
            return;
        };
        // The chaos injection seam: a scripted fault here behaves exactly
        // like the OS failing the buffered write — the error is deferred
        // and surfaces (typed) at finish(), the sink's normal discipline.
        let wrote =
            match crate::faults::write_plan(crate::faults::FaultSite::TraceWrite, line.len()) {
                crate::faults::WritePlan::Full | crate::faults::WritePlan::Corrupt => out
                    .write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n")),
                crate::faults::WritePlan::Short(n, e) => {
                    let _ = out.write_all(&line.as_bytes()[..n]);
                    Err(e)
                }
                crate::faults::WritePlan::Fail(e) => Err(e),
            };
        match wrote {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e.to_string()),
        }
    }

    /// Writes the schema-stamped meta record (the caller's run
    /// parameters follow the schema fields); call once, first.
    pub fn meta(&mut self, fields: &[(&str, Json)]) {
        let mut s = format!(
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_VERSION},\"kind\":\"meta\""
        );
        for (key, value) in fields {
            s.push(',');
            let _ = json::push_str_lit(&mut s, key);
            let _ = write!(s, ":{value}");
        }
        s.push('}');
        self.write_line(&s);
    }

    /// Writes one sample record.
    pub fn sample(&mut self, sample: &Sample<'_>) {
        let mut s = String::with_capacity(256);
        s.push_str("{\"kind\":\"sample\",\"t\":");
        json::push_f64(&mut s, sample.t);
        let _ = write!(s, ",\"events\":{}", sample.events);
        let usize = |out: &mut String, x: usize| {
            let _ = write!(out, "{x}");
        };
        push_arr(&mut s, "downloaders", sample.downloaders, usize);
        push_arr(&mut s, "download_pairs", sample.download_pairs, usize);
        push_arr(&mut s, "seed_pairs", sample.seed_pairs, usize);
        push_arr(&mut s, "weight", sample.weight, json::push_f64);
        push_arr(&mut s, "pool_real", sample.pool_real, json::push_f64);
        push_arr(&mut s, "pool_virtual", sample.pool_virtual, json::push_f64);
        s.push_str(",\"rho_mean\":");
        json::push_f64(&mut s, sample.rho_mean);
        s.push_str(",\"delta_mean\":");
        json::push_f64(&mut s, sample.delta_mean);
        let _ = write!(s, ",\"counters\":{}}}", sample.counters.to_json());
        self.write_line(&s);
    }

    /// Writes one span-timing record.
    pub fn span(&mut self, name: &str, micros: u64) {
        let mut s = String::with_capacity(64);
        s.push_str("{\"kind\":\"span\",\"name\":");
        let _ = json::push_str_lit(&mut s, name);
        let _ = write!(s, ",\"micros\":{micros}}}");
        self.write_line(&s);
    }

    /// Writes a span-timing record anchored to a simulated-time instant
    /// (an additive `"t"` field on the span record; schema version
    /// unchanged — readers without the field ignore it).
    ///
    /// Hybrid fluid↔DES handoffs use this: *when* in model time a switch
    /// happened matters to later thrash analysis, not just how long the
    /// handoff took in wall time.
    pub fn span_at(&mut self, name: &str, micros: u64, t: f64) {
        let mut s = String::with_capacity(80);
        s.push_str("{\"kind\":\"span\",\"name\":");
        let _ = json::push_str_lit(&mut s, name);
        let _ = write!(s, ",\"micros\":{micros},\"t\":");
        json::push_f64(&mut s, t);
        s.push('}');
        self.write_line(&s);
    }

    /// Writes one self-profiler record (an additive `"profile"` record
    /// kind; schema version unchanged — readers without it skip unknown
    /// kinds, the same discipline as [`TraceSink::span_at`]'s `"t"`).
    pub fn profile(&mut self, table: &ProfileTable) {
        let mut s = String::with_capacity(64 + table.phases.len() * 96);
        let _ = write!(
            s,
            "{{\"kind\":\"profile\",\"events\":{},\"pair_overhead_ns\":{},\"phases\":[",
            table.events, table.pair_overhead_ns
        );
        for (i, (name, stat)) in table.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            let _ = json::push_str_lit(&mut s, name);
            let _ = write!(
                s,
                ",\"calls\":{},\"self_ns\":{},\"total_ns\":{}}}",
                stat.calls, stat.self_ns, stat.total_ns
            );
        }
        s.push_str("]}");
        self.write_line(&s);
    }

    /// Writes the final end record.
    pub fn end(&mut self, t: f64, counters: &Counters) {
        let mut s = String::with_capacity(128);
        s.push_str("{\"kind\":\"end\",\"t\":");
        json::push_f64(&mut s, t);
        let _ = write!(s, ",\"counters\":{}}}", counters.to_json());
        self.write_line(&s);
    }

    /// Flushes, fsyncs, and renames the temp file over the final path.
    ///
    /// # Errors
    /// Surfaces the first deferred write error, or the flush/rename
    /// failure. On error the temp file is removed best-effort.
    pub fn finish(&mut self) -> io::Result<PathBuf> {
        let fail = |tmp: &Path, e: io::Error| {
            let _ = std::fs::remove_file(tmp);
            Err(e)
        };
        if let Some(msg) = self.error.take() {
            self.out = None;
            return fail(&self.tmp_path, io::Error::other(msg));
        }
        let Some(mut out) = self.out.take() else {
            return Ok(self.final_path.clone());
        };
        if let Err(e) = out.flush() {
            return fail(&self.tmp_path, e);
        }
        let file = match out.into_inner() {
            Ok(f) => f,
            Err(e) => return fail(&self.tmp_path, e.into_error()),
        };
        if let Err(e) = file.sync_all() {
            return fail(&self.tmp_path, e);
        }
        drop(file);
        if let Some(kind) = crate::faults::intercept(crate::faults::FaultSite::TraceFinish) {
            return fail(&self.tmp_path, kind.to_io_error());
        }
        if let Err(e) = std::fs::rename(&self.tmp_path, &self.final_path) {
            return fail(&self.tmp_path, e);
        }
        Ok(self.final_path.clone())
    }
}

/// Appends `,"key":[x,…]`, each element written by `push`.
fn push_arr<T: Copy>(out: &mut String, key: &str, xs: &[T], push: fn(&mut String, T)) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, x);
    }
    out.push(']');
}

/// One decoded trace-v1 line. Fields missing from older traces read as
/// defaults: `0` for counts, NaN for clocks and means, empty arrays,
/// zeroed [`Counters`], `"?"` for names and `false` for mode flags.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// Opens a segment (one engine run); the fields readers interpret.
    Meta {
        /// Schema version (this build writes [`TRACE_VERSION`]).
        version: u64,
        /// Run label.
        label: String,
        /// Whether the run used exact (reference) rates.
        exact_rates: bool,
        /// Whether the run used class-aggregated scheduling.
        aggregate: bool,
    },
    /// A cadence-point observation.
    Sample(OwnedSample),
    /// A span: its name, wall-clock µs, and the simulated time of a
    /// timestamped span ([`TraceSink::span_at`]).
    Span(String, u64, Option<f64>),
    /// A self-profiler table; phases this build does not know are
    /// skipped.
    Profile(ProfileTable),
    /// Closes a segment: the final clock and counters.
    End(f64, Counters),
    /// A record kind this build does not know (readers skip it).
    Unknown(String),
}

impl TraceRecord {
    /// Decodes one trace line.
    ///
    /// # Errors
    /// The line is not JSON, has no `kind`, or is a `meta` record of
    /// another schema.
    pub fn parse(line: &str) -> Result<TraceRecord, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let Some(kind) = v.get("kind").and_then(Json::as_str) else {
            return Err("record without a kind".into());
        };
        let u = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        let f = |key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let text = |key: &str| v.get(key).and_then(Json::as_str).unwrap_or("?").to_string();
        let flag = |key: &str| v.get(key).and_then(Json::as_bool).unwrap_or(false);
        let arr = |key: &str| v.get(key).and_then(Json::as_arr).unwrap_or(&[]);
        let int = |x: &Json| x.as_u64().and_then(|x| usize::try_from(x).ok());
        let float = |x: &Json| x.as_f64().unwrap_or(f64::NAN);
        let usizes = |key| arr(key).iter().map(|x| int(x).unwrap_or(0)).collect();
        let floats = |key| arr(key).iter().map(float).collect();
        let counters = v.get("counters").and_then(Counters::from_json);
        Ok(match kind {
            "meta" => match v.get("schema").and_then(Json::as_str).unwrap_or("?") {
                TRACE_SCHEMA => TraceRecord::Meta {
                    version: u("version"),
                    label: text("label"),
                    exact_rates: flag("exact_rates"),
                    aggregate: flag("aggregate"),
                },
                schema => return Err(format!("schema '{schema}' is not '{TRACE_SCHEMA}'")),
            },
            "sample" => TraceRecord::Sample(OwnedSample {
                t: f("t"),
                events: u("events"),
                downloaders: usizes("downloaders"),
                download_pairs: usizes("download_pairs"),
                seed_pairs: usizes("seed_pairs"),
                weight: floats("weight"),
                pool_real: floats("pool_real"),
                pool_virtual: floats("pool_virtual"),
                rho_mean: f("rho_mean"),
                delta_mean: f("delta_mean"),
                counters: counters.unwrap_or_default(),
            }),
            "span" => {
                TraceRecord::Span(text("name"), u("micros"), v.get("t").and_then(Json::as_f64))
            }
            "profile" => TraceRecord::Profile(ProfileTable {
                phases: arr("phases")
                    .iter()
                    .filter_map(|ph| {
                        let name = ph.get("name").and_then(Json::as_str)?;
                        let phase = PHASES.iter().find(|p| p.name() == name)?;
                        let n = |key: &str| ph.get(key).and_then(Json::as_u64).unwrap_or(0);
                        let stats = PhaseStats {
                            calls: n("calls"),
                            self_ns: n("self_ns"),
                            total_ns: n("total_ns"),
                        };
                        Some((phase.name(), stats))
                    })
                    .collect(),
                events: u("events"),
                pair_overhead_ns: u("pair_overhead_ns"),
            }),
            "end" => TraceRecord::End(f("t"), counters.unwrap_or_default()),
            other => TraceRecord::Unknown(other.to_string()),
        })
    }
}

/// A trace sink shared between a [`SinkProbe`] and the caller that will
/// [`TraceSink::finish`] it after the run.
pub type SharedSink = Arc<Mutex<TraceSink>>;

/// The probe that streams every observation into a shared [`TraceSink`].
#[derive(Debug)]
pub struct SinkProbe {
    sink: SharedSink,
    cadence: f64,
}

impl SinkProbe {
    /// Creates a probe sampling every `cadence` time units into `sink`.
    pub fn new(sink: SharedSink, cadence: f64) -> Self {
        Self { sink, cadence }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceSink> {
        self.sink.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Probe for SinkProbe {
    fn sample_every(&self) -> f64 {
        self.cadence
    }

    fn on_sample(&mut self, sample: &Sample<'_>) {
        self.lock().sample(sample);
    }

    fn on_span(&mut self, name: &str, micros: u64) {
        self.lock().span(name, micros);
    }

    fn on_finish(&mut self, t: f64, counters: &Counters) {
        self.lock().end(t, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("btfs-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_bufs() -> ([usize; 2], [f64; 2]) {
        ([3, 1], [1.5, 0.0])
    }

    fn sample<'a>(bufs: &'a ([usize; 2], [f64; 2])) -> Sample<'a> {
        Sample {
            t: 10.0,
            events: 99,
            downloaders: &bufs.0,
            download_pairs: &bufs.0,
            seed_pairs: &bufs.0,
            weight: &bufs.1,
            pool_real: &bufs.1,
            pool_virtual: &bufs.1,
            rho_mean: 0.75,
            delta_mean: f64::NAN,
            counters: Counters::default(),
        }
    }

    #[test]
    fn full_trace_is_atomic_and_well_formed() {
        let path = tmp("full.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut sink = TraceSink::create(&path).unwrap();
        sink.meta(&[
            ("scheme", Json::Str("MTCD".into())),
            ("seed", Json::num_u64(u64::MAX)),
            ("sample_every", Json::num_f64(5.0)),
            ("exact_rates", Json::Bool(false)),
        ]);
        let bufs = sample_bufs();
        sink.sample(&sample(&bufs));
        sink.span("engine", 1234);
        sink.end(80.0, &Counters::default());
        assert!(!path.exists(), "final path must not exist before finish");
        assert_eq!(sink.lines(), 4);
        sink.finish().unwrap();
        assert!(path.exists());

        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"schema\":\"btfluid-trace\""));
        assert!(lines[0].contains("\"version\":1"));
        assert!(lines[0].contains(&format!("\"seed\":{}", u64::MAX)));
        assert!(lines[1].contains("\"kind\":\"sample\""));
        assert!(lines[1].contains("\"downloaders\":[3,1]"));
        assert!(lines[1].contains("\"delta_mean\":null"));
        assert!(lines[2].contains("\"kind\":\"span\""));
        assert!(lines[3].contains("\"kind\":\"end\""));
    }

    #[test]
    fn sink_probe_streams_through_shared_sink() {
        let path = tmp("probe.jsonl");
        let _ = std::fs::remove_file(&path);
        let shared = TraceSink::create(&path).unwrap().shared();
        let mut probe = SinkProbe::new(shared.clone(), 2.5);
        assert_eq!(probe.sample_every(), 2.5);
        let bufs = sample_bufs();
        probe.on_sample(&sample(&bufs));
        probe.on_finish(80.0, &Counters::default());
        shared
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .finish()
            .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        assert!(body.contains("\"kind\":\"end\""));
    }

    #[test]
    fn unfinished_trace_leaves_only_tmp() {
        let path = tmp("crash.jsonl");
        let _ = std::fs::remove_file(&path);
        let tmp_path = {
            let mut sink = TraceSink::create(&path).unwrap();
            sink.span("engine", 1);
            sink.tmp_path.clone()
            // dropped without finish(), mimicking a crash
        };
        assert!(!path.exists());
        assert!(tmp_path.exists(), "the torn .tmp is the crash marker");
        let _ = std::fs::remove_file(&tmp_path);
    }
}
