//! # btfluid-telemetry
//!
//! Observability substrate for the btfluid workspace: engine probes,
//! hot-loop counters, a versioned JSONL trace sink, the flight recorder,
//! the `diag!` leveled stderr diagnostics macro, and the workspace's one
//! JSON codec ([`json`]).
//!
//! Every JSON artifact has one encoder/decoder pair, in the module that
//! owns its schema: [`Counters::to_json`]/[`Counters::from_json`],
//! [`FlightRecord`] and [`FlightDump`] in [`flightrec`], and the trace-v1
//! writer [`TraceSink`] with its reader [`TraceRecord`] in [`sink`]. The
//! crate has no dependencies, so every crate that reads or writes JSON can
//! use the codec from here.
//!
//! The crate sits *below* `btfluid-des` in the dependency graph (the
//! engine calls into it), so it carries no simulator types — probes see
//! plain slices and scalars through [`Sample`]. Three invariants the rest
//! of the workspace relies on:
//!
//! * **Zero perturbation**: a probe only *observes*. Nothing here feeds
//!   back into the engine's RNG streams, event order, or float
//!   computations, so a run with telemetry attached is bit-identical to
//!   the same seed without it (enforced by proptests in `btfluid-des`).
//! * **Near-zero cost when disabled**: with no probe attached the engine
//!   pays only plain integer counter increments and one float compare per
//!   event — no allocation, no dynamic dispatch.
//! * **Result files stay clean**: `diag!` writes to stderr only; the
//!   trace sink writes to its own file with the snapshot layer's atomic
//!   temp-file-and-rename discipline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod diag;
pub mod faults;
pub mod flightrec;
pub mod json;
pub mod probe;
pub mod profiler;
pub mod sink;

pub use counters::Counters;
pub use diag::{enabled, level, set_level, Level};
pub use faults::{FaultKind, FaultRule, FaultScript, FaultSite};
pub use flightrec::{
    shared_recorder, FanoutProbe, FlightDump, FlightKind, FlightRecord, FlightRecorder,
    RecorderProbe, SharedRecorder, DEFAULT_FLIGHT_CAPACITY, FLIGHTREC_SCHEMA, FLIGHTREC_VERSION,
};
pub use json::{non_finite_null_count, Json, JsonError};
pub use probe::{MemoryProbe, NoopProbe, OwnedSample, Probe, Sample};
pub use profiler::{Phase, PhaseStats, ProfileTable, Profiler, PHASES};
pub use sink::{SharedSink, SinkProbe, TraceRecord, TraceSink, TRACE_SCHEMA, TRACE_VERSION};

/// Default sampling cadence (simulated time units) for trace-producing
/// probes when the caller does not choose one.
pub const DEFAULT_SAMPLE_EVERY: f64 = 5.0;
