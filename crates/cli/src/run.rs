//! The run path every single-engine command shares.
//!
//! `sim`, `profile`, `scenario`, `trace replay` and `sweep` describe an
//! engine run with the same flags: a rate mode, a seed, the `checked`
//! audit, a checkpoint plan with `--resume`, a records CSV, and two
//! observers (the `--trace` telemetry sink and the `--flightrec` flight
//! recorder). [`RunSpec`] parses those flags once and is the only place
//! that decides which of them apply and which combinations are refused;
//! [`execute`] runs one engine — or a scenario's scheme line-up — through
//! [`harness::drive`] with them.

use crate::args::Options;
use crate::commands::check_clobber;
use crate::errors::{CliError, EXIT_CONFIG};
use btfluid_des::{
    DesConfig, FanoutProbe, Probe, ProfileTable, RecorderProbe, ScenarioHook, SchemeKind,
    SimOutcome, SinkProbe, TraceSink,
};
use btfluid_harness as harness;
use btfluid_hybrid::HybridConfig;
use btfluid_scenario::{RateMode, ScenarioProgram};
use btfluid_telemetry::{
    diag, shared_recorder, Json, Level, SharedRecorder, SharedSink, DEFAULT_FLIGHT_CAPACITY,
    DEFAULT_SAMPLE_EVERY,
};
use btfluid_workload::CorrelationModel;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// A refusal of a flag combination or value: exit code 2, before
/// anything runs.
fn refuse(message: &str) -> CliError {
    CliError::new(EXIT_CONFIG, message)
}

/// Locks a shared observer; a poisoned lock still holds usable state.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The run flags of one invocation, parsed and validated once.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Rate-scheduling engine: `--exact`, `--aggregate`, or neither.
    pub mode: RateMode,
    /// `--seed`, defaulted per command.
    pub seed: u64,
    /// `--checked`: per-event engine invariant audits.
    pub checked: bool,
    /// `--checkpoint FILE`.
    pub checkpoint: Option<PathBuf>,
    /// `--checkpoint-every N` when given; each driver has its own unit
    /// and default.
    pub checkpoint_every: Option<u64>,
    /// `--resume`: start from the checkpoint when one exists.
    pub resume: bool,
    /// `--records FILE`: the per-user record stream as CSV.
    pub records: Option<PathBuf>,
    /// `--trace FILE`: the btfluid-trace v1 telemetry stream.
    pub trace: Option<PathBuf>,
    /// `--sample-every T`: the trace's sampling period.
    pub sample_every: f64,
    /// `--flightrec FILE`: the flight-recorder dump.
    pub flightrec: Option<PathBuf>,
    /// `--flightrec-cap N`: the flight ring's capacity.
    pub flightrec_cap: usize,
    /// Run with the calibrated self-profiler (`btfluid profile`).
    pub profile: bool,
}

impl RunSpec {
    /// Parses the run flags, refusing contradictory modes and
    /// non-positive cadences with exit code 2.
    pub fn parse(opts: &Options, default_seed: u64) -> Result<Self, CliError> {
        let mode = match (opts.has("exact"), opts.has("aggregate")) {
            (true, true) => {
                return Err(refuse(
                    "--exact and --aggregate are mutually exclusive \
                     (aggregate mode has no per-peer rates to recompute)",
                ))
            }
            (true, false) => RateMode::Exact,
            (false, true) => RateMode::Aggregate,
            (false, false) => RateMode::Incremental,
        };
        let sample_every = opts.get_f64("sample-every", DEFAULT_SAMPLE_EVERY)?;
        if !(sample_every.is_finite() && sample_every > 0.0) {
            return Err(refuse("--sample-every must be positive"));
        }
        let flightrec_cap = opts.get_usize("flightrec-cap", DEFAULT_FLIGHT_CAPACITY)?;
        if flightrec_cap == 0 {
            return Err(refuse("--flightrec-cap must be at least 1"));
        }
        let checkpoint_every = opts
            .get("checkpoint-every")
            .map(|_| opts.get_u64("checkpoint-every", 0))
            .transpose()?;
        if checkpoint_every == Some(0) {
            return Err(refuse("--checkpoint-every must be at least 1"));
        }
        Ok(Self {
            mode,
            seed: opts.get_u64("seed", default_seed)?,
            checked: opts.has("checked"),
            checkpoint: opts.get("checkpoint").map(PathBuf::from),
            checkpoint_every,
            resume: opts.has("resume"),
            records: opts.get("records").map(PathBuf::from),
            trace: opts.get("trace").map(PathBuf::from),
            sample_every,
            flightrec: opts.get("flightrec").map(PathBuf::from),
            flightrec_cap,
            profile: false,
        })
    }

    /// Refuses the per-run outputs on a command that runs many engines
    /// under its own journal (`sweep`).
    pub fn refuse_run_outputs(&self, cmd: &str) -> Result<(), CliError> {
        let files = [
            &self.trace,
            &self.flightrec,
            &self.records,
            &self.checkpoint,
        ];
        if files.iter().any(|f| f.is_some()) {
            return Err(refuse(&format!(
                "{cmd}: --trace/--flightrec/--records/--checkpoint apply to \
                 single-engine commands"
            )));
        }
        Ok(())
    }

    /// Applies the rate mode and `--checked` to an engine configuration.
    pub fn apply(&self, cfg: &mut DesConfig) {
        self.mode.apply(cfg);
        cfg.checked = self.checked;
    }

    /// The synthetic paper-parameter workload of `sim`, `profile` and
    /// `sweep` cells: `--k` (10), `--p` (0.5), `--horizon` (the
    /// command's `horizon`), `--warmup` (horizon/4), a drain as long as
    /// the horizon, `--origin-seeds` (1), at λ₀ = 0.25.
    pub fn des_config(
        &self,
        opts: &Options,
        scheme: SchemeKind,
        seed: u64,
        horizon: f64,
    ) -> Result<DesConfig, CliError> {
        let p = opts.get_f64("p", 0.5)?;
        let model = CorrelationModel::new(opts.get_usize("k", 10)? as u32, p, 0.25)?;
        let horizon = opts.get_f64("horizon", horizon)?;
        let mut cfg = DesConfig::paper_small(scheme, p, seed)?;
        cfg.model = model;
        cfg.horizon = horizon;
        cfg.warmup = opts.get_f64("warmup", horizon / 4.0)?;
        cfg.drain = horizon;
        cfg.origin_seeds = opts.get_usize("origin-seeds", 1)?;
        self.apply(&mut cfg);
        Ok(cfg)
    }

    /// The multiscale driver's configuration. Refuses what the driver
    /// cannot honour: schemes without a scheduled fluid model, the exact
    /// engine (no fluid counterpart), and the per-user `--records` and
    /// `--checked` (the driver is class-level).
    pub fn hybrid_config(
        &self,
        program: &ScenarioProgram,
        scheme: Option<SchemeKind>,
        tol: f64,
    ) -> Result<HybridConfig, CliError> {
        let scheme = match scheme {
            Some(s @ (SchemeKind::Mtcd | SchemeKind::Mtsd)) => s,
            Some(other) => {
                return Err(refuse(&format!(
                    "--hybrid supports mtcd and mtsd, not {}",
                    other.name()
                )))
            }
            None => return Err(refuse("--hybrid needs --scheme mtcd|mtsd")),
        };
        if self.mode == RateMode::Exact {
            return Err(refuse("--hybrid refuses --exact (no fluid counterpart)"));
        }
        if self.records.is_some() || self.checked {
            return Err(refuse(
                "--hybrid refuses --records and --checked (no per-user stream)",
            ));
        }
        Ok(HybridConfig {
            program: program.clone(),
            scheme,
            seed: self.seed,
            tol,
            aggregate: self.mode == RateMode::Aggregate,
        })
    }

    /// The trace-segment header every run starts with: label, seed, mode
    /// and sampling period (a scenario run adds its own fields).
    pub fn meta(&self, label: String) -> Vec<(&'static str, Json)> {
        let is = |mode| Json::Bool(self.mode == mode);
        vec![
            ("label", Json::Str(label)),
            ("seed", Json::num_u64(self.seed)),
            ("exact_rates", is(RateMode::Exact)),
            ("aggregate", is(RateMode::Aggregate)),
            ("sample_every", Json::num_f64(self.sample_every)),
        ]
    }
}

/// The files one invocation writes besides its tables, opened once and
/// shared by every run of the invocation: a scenario line-up writes one
/// trace segment per run into the same sink and one flight ring across
/// all of them.
pub struct Outputs {
    /// The `--trace` sink.
    pub sink: Option<SharedSink>,
    /// The `--flightrec` ring and its dump path.
    pub flight: Option<(SharedRecorder, PathBuf)>,
    sample_every: f64,
}

impl Outputs {
    /// Refuses to clobber any output without `--force`, clears stale
    /// `.tmp` files a kill left behind, and opens the observers.
    pub fn open(spec: &RunSpec, opts: &Options) -> Result<Self, CliError> {
        for path in [&spec.records, &spec.flightrec, &spec.trace]
            .into_iter()
            .flatten()
        {
            check_clobber(&path.display().to_string(), opts)?;
        }
        // A kill between an atomic write's tmp file and its rename leaves
        // `<path>.tmp` behind; it is never valid state, so clear it.
        // (The checkpoint's own is cleared by `harness::Checkpointer`.)
        if let Some(path) = &spec.trace {
            harness::clean_stale_tmp(path);
        }
        let sink = spec.trace.as_deref().map(TraceSink::create).transpose()?;
        Ok(Self {
            sink: sink.map(TraceSink::shared),
            flight: (spec.flightrec.clone())
                .map(|path| (shared_recorder(spec.flightrec_cap), path)),
            sample_every: spec.sample_every,
        })
    }

    /// Opens a trace segment headed by `meta` and returns the probe that
    /// feeds the observers from one engine run.
    fn probe(&self, meta: &[(&str, Json)]) -> Option<Box<dyn Probe>> {
        let mut probes: Vec<Box<dyn Probe>> = Vec::new();
        if let Some(sink) = &self.sink {
            lock(sink).meta(meta);
            probes.push(Box::new(SinkProbe::new(sink.clone(), self.sample_every)));
        }
        if let Some((flight, _)) = &self.flight {
            probes.push(Box::new(RecorderProbe::new(Arc::clone(flight))));
        }
        match probes.len() {
            0 => None,
            1 => probes.pop(),
            _ => Some(Box::new(FanoutProbe::new(probes))),
        }
    }

    /// Best-effort flight dump on an error path, so a typed engine or
    /// driver error still ships its last-N-events story. Never masks the
    /// original error: a dump failure only warns, and an empty ring (the
    /// error fired before any run) writes nothing.
    pub fn dump_on_error(&self) {
        if let Some((flight, path)) = &self.flight {
            if !lock(flight).is_empty() {
                if let Err(e) = write_flight_dump(path, flight) {
                    diag!(Level::Warn, "flight dump on the error path failed: {e}");
                }
            }
        }
    }

    /// Closes the trace (after the profiler's record, when given) and
    /// writes the flight dump.
    pub fn finish(self, profile: Option<&ProfileTable>) -> Result<(), CliError> {
        if let Some(sink) = &self.sink {
            let mut guard = lock(sink);
            if let Some(table) = profile {
                guard.profile(table);
            }
            let path = guard.finish()?;
            diag!(Level::Info, "wrote trace {}", path.display());
        }
        if let Some((flight, path)) = &self.flight {
            write_flight_dump(path, flight)?;
        }
        Ok(())
    }
}

/// Writes a flight recorder's `flightrec v1` dump to `path` atomically.
fn write_flight_dump(path: &Path, flight: &SharedRecorder) -> Result<(), CliError> {
    let dump = lock(flight).dump_string(None);
    harness::atomic_write(path, dump.as_bytes())?;
    diag!(Level::Info, "wrote flight recording {}", path.display());
    Ok(())
}

/// One engine run for [`execute`].
pub struct Job<'a> {
    /// The engine configuration, with [`RunSpec::apply`] already applied.
    pub cfg: DesConfig,
    /// Builds the scenario hook; called again to restore from a
    /// checkpoint.
    pub hook: Option<&'a dyn Fn() -> Box<dyn ScenarioHook>>,
    /// Header of this run's trace segment.
    pub meta: Vec<(&'static str, Json)>,
}

/// Runs `jobs` in order through [`harness::drive`] under the spec and
/// returns each outcome with its driver report (profile table, wall).
/// Each run gets its own trace segment, a checkpoint plan when
/// `--checkpoint` is set, and the profiler when asked for. On an error
/// the flight ring is dumped before the error surfaces; on success the
/// trace is closed, the flight ring dumped, and `--records` written.
///
/// Per-run state (`--checkpoint`, `--records`, `--resume`, `--checked`)
/// needs exactly one job: a scenario line-up refuses it.
pub fn execute(
    spec: &RunSpec,
    opts: &Options,
    jobs: Vec<Job<'_>>,
) -> Result<Vec<(SimOutcome, harness::RunReport)>, CliError> {
    if jobs.len() > 1
        && (spec.checkpoint.is_some() || spec.records.is_some() || spec.resume || spec.checked)
    {
        return Err(refuse(
            "--checkpoint/--records/--resume/--checked need --scheme \
             (one engine run, one checkpoint)",
        ));
    }
    let outputs = Outputs::open(spec, opts)?;
    let plan = spec
        .checkpoint
        .as_ref()
        .map(|path| harness::CheckpointPlan {
            path: Some(path.clone()),
            every_events: spec.checkpoint_every.unwrap_or(5000),
            retry: harness::RetryPolicy::default(),
        });
    let limits = harness::RunLimits {
        profile: spec.profile,
        ..Default::default()
    };
    let mut finished = Vec::with_capacity(jobs.len());
    for job in jobs {
        let probe = outputs.probe(&job.meta);
        let mut report = harness::drive(
            job.cfg,
            job.hook,
            plan.as_ref(),
            if spec.resume {
                harness::Start::Resume
            } else {
                harness::Start::Fresh
            },
            &limits,
            None,
            None,
            probe,
        )
        .inspect_err(|_| outputs.dump_on_error())?;
        if report.resumed {
            diag!(
                Level::Info,
                "resumed from checkpoint; finished at {} events ({} checkpoint(s) this run)",
                report.events,
                report.checkpoints
            );
        }
        let outcome = report
            .outcome
            .take()
            .expect("a run without limits completes");
        finished.push((outcome, report));
    }
    outputs.finish(finished.last().and_then(|(_, r)| r.profile.as_ref()))?;
    if let Some(path) = &spec.records {
        write_records(path, &finished[0].0)?;
    }
    Ok(finished)
}

/// Writes the per-user record stream as CSV. Floats use Rust's
/// shortest-roundtrip formatting, so two byte-identical files mean two
/// bit-identical record streams — the resume tests compare exactly this.
fn write_records(path: &Path, outcome: &SimOutcome) -> Result<(), CliError> {
    let mut body =
        String::from("id,class,arrival,departure,download_span,online_fluid,final_rho,cheater\n");
    for r in &outcome.records {
        body.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.id,
            r.class,
            r.arrival,
            r.departure,
            r.download_span,
            r.online_fluid,
            r.final_rho,
            r.cheater
        ));
    }
    fs::write(path, body)?;
    diag!(
        Level::Info,
        "wrote {} ({} records)",
        path.display(),
        outcome.records.len()
    );
    Ok(())
}
