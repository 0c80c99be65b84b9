//! Crash-safe execution for the btfluid simulator.
//!
//! The engine (`btfluid-des`) guarantees that run → snapshot → restore →
//! run is bit-identical to an uninterrupted run. This crate turns that
//! guarantee into operational robustness:
//!
//! * [`checkpoint::drive`] — a resumable run driver: step in chunks,
//!   checkpoint atomically between chunks, pick up from the checkpoint
//!   (or an in-memory snapshot) after a crash, and honor event/wall-clock
//!   budgets cooperatively.
//! * [`checkpoint::Checkpointer`] — the one checkpoint write/restore
//!   policy (atomic write, retry with backoff, degrade, restore, delete on
//!   completion), shared by `drive` and the hybrid driver's loops.
//! * [`supervisor::run_sweep`] — replicate/parameter-grid sweeps where
//!   every cell runs behind `catch_unwind` with a watchdog; panicking
//!   cells are retried with bounded backoff and then **quarantined**
//!   without sinking the sweep, and completed cells are journaled to an
//!   append-only JSONL [`manifest`] so a restarted sweep skips exactly
//!   the finished work.
//! * [`shard::run_shards`] — a rayon-sharded batch driver: many whole
//!   runs in parallel with compact in-memory summaries (no journal, no
//!   checkpoints), for mode-equivalence checks and replication studies.
//! * [`bundle::ReproBundle`] — a quarantined cell's config, seed,
//!   scenario reference, and last checkpoint, packaged as a directory
//!   that `btfluid repro <dir>` replays deterministically.
//!
//! Failures stay typed end to end: [`HarnessError`] wraps the engine's
//! `DesError`/`SnapshotError` hierarchy so the CLI can map each failure
//! class to a documented exit code instead of panicking.

#![warn(missing_docs)]

pub mod bundle;
pub mod checkpoint;
pub mod error;
pub mod manifest;
pub mod shard;
pub mod supervisor;

/// The JSON codec lives in `btfluid-telemetry`, the crate every JSON
/// reader and writer already depends on; this path is kept because the
/// benchmark package imports `btfluid_harness::json`.
pub use btfluid_telemetry::json;

pub use bundle::{config_from_json, config_to_json, load_trace, ReproBundle, ScenarioRef};
pub use checkpoint::{
    atomic_write, clean_stale_tmp, drive, CheckpointPlan, Checkpointer, RetryPolicy, RunEnd,
    RunLimits, RunReport, Start,
};
pub use error::HarnessError;
pub use manifest::{CellRecord, CellStatus, ManifestWriter};
pub use shard::{run_shards, ShardOutcome, ShardSpec};
pub use supervisor::{
    bundle_path, run_sweep, Budget, CellResult, CellSpec, FailedCell, SupervisorConfig, SweepReport,
};
