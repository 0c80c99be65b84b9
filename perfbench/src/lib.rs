//! # perfbench
//!
//! The btfluid benchmark: each named workload drives the library crates'
//! public APIs, checks their outputs, and reports end-to-end metrics
//! (tracing off) or per-layer metrics (a separate traced pass). See
//! `perfbench/README.md` for the workloads, the layer → metric →
//! end-to-end map, and how to run it.

pub mod common;
pub mod flash_aggregate;
pub mod hook;
pub mod measure;
pub mod paper_mix;
pub mod provenance;
pub mod replay_checkpoint;
pub mod trace;

use common::{Rep, Size};
use std::path::Path;
use trace::Tracer;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Per-peer incremental engine, five schemes, fluid references.
    PaperMix,
    /// Class-aggregated engine on an amplified flash crowd, hybrid
    /// references.
    FlashAggregate,
    /// Trace codec, fit and replay with durable checkpoints and resume.
    ReplayCheckpoint,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMix,
        Workload::FlashAggregate,
        Workload::ReplayCheckpoint,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::FlashAggregate => "flash_aggregate",
            Workload::ReplayCheckpoint => "replay_checkpoint",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one repetition; `dir` holds any files the workload writes.
    pub fn run_once(self, seed: u64, size: Size, dir: &Path, tracer: &mut Tracer) -> Rep {
        match self {
            Workload::PaperMix => paper_mix::run(seed, size, tracer),
            Workload::FlashAggregate => flash_aggregate::run(seed, size, tracer),
            Workload::ReplayCheckpoint => replay_checkpoint::run(seed, size, dir, tracer),
        }
    }
}
