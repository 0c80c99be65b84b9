//! # btfluid-scenario
//!
//! Non-stationary workloads, churn, and fault injection for the btfluid
//! DES and fluid paths.
//!
//! The stationary pipeline (fluid closed forms, `btfluid-des`, the bench
//! harnesses) answers "what does the system do in equilibrium?". This
//! crate answers "what happens when the workload *moves*": flash crowds,
//! diurnal cycles, seed crashes, tracker blackouts, abort storms, and
//! slow drifts of the request correlation.
//!
//! ## Architecture
//!
//! * [`Schedule`] — piecewise / ramp / periodic / spike functions of time,
//!   with analytic integrals and finite upper bounds (the thinning
//!   majorizers).
//! * [`FaultPlan`] — deterministic fault description: per-downloader abort
//!   rate `θ(t)`, origin-seed crash windows, tracker blackout windows.
//! * [`ScenarioProgram`] — a complete experiment: workload schedules +
//!   faults + fluid parameters + run geometry + reporting phases. Compiles
//!   to a [`ProgramHook`] (the engine-facing
//!   [`btfluid_des::ScenarioHook`]) and a per-scheme
//!   [`btfluid_des::DesConfig`].
//! * [`registry`] — the five named scenarios behind
//!   `btfluid scenario <name>`: `flash_crowd`, `diurnal`, `seed_outage`,
//!   `abort_storm`, `correlation_drift`.
//! * [`runner`] — runs a program against the four schemes plus
//!   CMFSD+Adapt and buckets results into per-phase timelines.
//! * [`fluid`] — the MTCD ODE driven by the same schedules
//!   ([`ScheduledMtcd`]), for DES-vs-fluid comparison beyond steady state.
//!
//! Determinism: a scenario run is a pure function of `(program, scheme,
//! seed)`. Scenario randomness draws from its own RNG stream, so attaching
//! a hook never perturbs the arrival/service draws of the underlying
//! stationary engine, and the engine's `exact_rates` bit-equivalence
//! guarantee extends to scenario runs.

#![forbid(unsafe_code)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod fault;
pub mod fluid;
pub mod program;
pub mod registry;
pub mod replay;
pub mod runner;
pub mod schedule;
pub mod shaper;

pub use fault::FaultPlan;
pub use fluid::{des_avg_downloaders, fluid_avg_downloaders, ScheduledMtcd, ScheduledMtsd};
pub use program::{ProgramHook, ScenarioPhase, ScenarioProgram};
pub use registry::{by_name, SCENARIO_NAMES};
pub use replay::{trace_program, TraceHook};
pub use runner::{per_file, run_one, scheme_lineup, PhaseStats, RateMode, ScenarioRun};
pub use schedule::Schedule;
pub use shaper::TraceShaper;

/// Convenience error alias.
pub type ScenarioError = btfluid_numkit::NumError;
