//! `replay_checkpoint`: checkpoint writes beside trace reads on one
//! engine. A measurement-shaped trace is synthesized, round-tripped
//! through the arrivals codec and fitted; the incremental MTSD engine
//! replays it through `TraceHook`, writing a durable checkpoint every
//! [`CHECKPOINT_EVERY`] events. The run then resumes from its last
//! checkpoint, and the resumed finish must be bit-identical.

use crate::common::{outcome_digest, secs, step_events, with_hook_span, Rep, RunCounters, Size};
use crate::hook::{attach, Attached, HookStats};
use crate::trace::Tracer;
use btfluid_des::snapshot::config_digest;
use btfluid_des::{DesConfig, SchemeKind, SimOutcome, Simulation, Snapshot};
use btfluid_numkit::rng::Xoshiro256StarStar;
use btfluid_scenario::{trace_program, TraceHook, TraceShaper};
use btfluid_workload::{fit_model, ArrivalTrace};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// Events between checkpoints.
pub const CHECKPOINT_EVERY: u64 = 4000;

/// Bins of the empirical λ(t) program the replay config is built from.
const BINS: usize = 8;

/// `(mean λ₀, horizon)` per size.
fn geometry(size: Size) -> (f64, f64) {
    match size {
        Size::Full => (4.0, 6400.0),
        Size::Tiny => (1.0, 1200.0),
    }
}

/// Bitwise equality of two traces (times by their bits).
fn same_trace(a: &ArrivalTrace, b: &ArrivalTrace) -> bool {
    a.k() == b.k()
        && a.horizon().to_bits() == b.horizon().to_bits()
        && a.len() == b.len()
        && a.arrivals()
            .iter()
            .zip(b.arrivals())
            .all(|(x, y)| x.time.to_bits() == y.time.to_bits() && x.files == y.files)
}

/// Replay hook for one engine, counted when traced.
fn hook(trace: &ArrivalTrace, tracer: &Tracer) -> Result<Attached, String> {
    let inner = TraceHook::new(trace).map_err(|e| e.to_string())?;
    Ok(attach(inner, tracer.is_on()))
}

struct Setup {
    trace: ArrivalTrace,
    cfg: DesConfig,
    sim: Simulation,
    hook: Option<Rc<HookStats>>,
}

fn setup(seed: u64, size: Size, rep: &mut Rep, tracer: &mut Tracer) -> Result<Setup, String> {
    let (mean, horizon) = geometry(size);
    let mut shaper = TraceShaper::measured(10, horizon);
    let preset_mean = 0.25;
    shaper.lambda0 = shaper.lambda0.rate_scaled(mean / preset_mean);
    let synthesized = tracer
        .time("scenario.synth", |_| {
            shaper.synthesize(&mut Xoshiro256StarStar::stream(seed, 0))
        })
        .map_err(|e| e.to_string())?;
    let csv = tracer.time("workload.encode", |_| synthesized.to_csv());
    let trace = tracer
        .time("workload.decode", |_| ArrivalTrace::from_csv(&csv))
        .map_err(|e| e.to_string())?;
    rep.check(
        "trace.codec_round_trip".into(),
        same_trace(&synthesized, &trace),
        format!("{} arrivals, {} CSV bytes", trace.len(), csv.len()),
    );
    rep.add_count("workload.trace_bytes", csv.len() as f64);
    rep.add_count("workload.arrivals", trace.len() as f64);
    let model = tracer
        .time("workload.fit", |_| fit_model(&trace))
        .map_err(|e| e.to_string())?;
    rep.notes.push(format!(
        "fitted λ̂₀ {:.4}, p̂ {:.4} over {} arrivals",
        model.lambda0(),
        model.p(),
        trace.len()
    ));
    let cfg = tracer
        .time("scenario.program", |_| {
            trace_program(&trace, BINS, horizon / 4.0)?.des_config(SchemeKind::Mtsd, seed)
        })
        .map_err(|e| e.to_string())?;
    rep.config_digests
        .insert("mtsd".into(), config_digest(&cfg));
    let (boxed, stats) = hook(&trace, tracer)?;
    let sim = with_hook_span(tracer, "des.new", stats.as_deref(), || {
        Simulation::with_hook(cfg.clone(), boxed)
    })
    .map_err(|e| e.to_string())?;
    Ok(Setup {
        trace,
        cfg,
        sim,
        hook: stats,
    })
}

/// Steps to the end, checkpointing every [`CHECKPOINT_EVERY`] events
/// into `path`. Returns the finished outcome.
fn run_checkpointed(
    mut sim: Simulation,
    hook: Option<&HookStats>,
    path: &Path,
    rep: &mut Rep,
    tracer: &mut Tracer,
) -> Result<SimOutcome, String> {
    let mut writes = 0u64;
    let mut bytes_total = 0u64;
    while step_events(&mut sim, tracer, hook, CHECKPOINT_EVERY).map_err(|e| e.to_string())? {
        let snap = tracer.time("des.snapshot", |_| sim.snapshot());
        let bytes = tracer.time("des.snapshot_encode", |_| snap.to_bytes());
        tracer
            .time("harness.write", |_| {
                btfluid_harness::atomic_write(path, &bytes)
            })
            .map_err(|e| format!("checkpoint write {}: {e}", path.display()))?;
        writes += 1;
        bytes_total += bytes.len() as u64;
    }
    rep.add_count("harness.writes", writes as f64);
    rep.add_count("harness.write_bytes", bytes_total as f64);
    rep.add_count("des.snapshots", writes as f64);
    let counters = sim.counters();
    let outcome = tracer.time("des.finish", |_| sim.finish());
    rep.check_events("mtsd", &counters, &outcome, 0);
    rep.runs.push(RunCounters {
        tag: "mtsd",
        counters,
        events: outcome.events,
        records: outcome.records.len() as u64,
    });
    Ok(outcome)
}

/// Restores from the checkpoint at `path` and runs to the end.
fn resume(
    rep: &mut Rep,
    trace: &ArrivalTrace,
    cfg: &DesConfig,
    path: &Path,
    tracer: &mut Tracer,
) -> Result<SimOutcome, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let snap = tracer
        .time("des.snapshot_decode", |_| Snapshot::from_bytes(&bytes))
        .map_err(|e| e.to_string())?;
    let (boxed, stats) = hook(trace, tracer)?;
    let mut sim = with_hook_span(tracer, "des.restore", stats.as_deref(), || {
        Simulation::restore_with_hook(cfg.clone(), &snap, boxed)
    })
    .map_err(|e| e.to_string())?;
    step_events(&mut sim, tracer, stats.as_deref(), u64::MAX).map_err(|e| e.to_string())?;
    let counters = sim.counters();
    let outcome = tracer.time("des.finish", |_| sim.finish());
    rep.check_events("mtsd.resumed", &counters, &outcome, 0);
    Ok(outcome)
}

/// Worst relative difference between the two runs' per-user online
/// times; 1 when the runs do not even have the same shape.
fn resume_error(a: &SimOutcome, b: &SimOutcome) -> f64 {
    if a.events != b.events || a.records.len() != b.records.len() {
        return 1.0;
    }
    a.records
        .iter()
        .zip(&b.records)
        .map(|(x, y)| crate::common::rel_err(y.online_fluid, x.online_fluid))
        .fold(0.0, f64::max)
}

/// One repetition; the checkpoint file lives under `dir` and is removed
/// at the end.
pub fn run(seed: u64, size: Size, dir: &Path, tracer: &mut Tracer) -> Rep {
    let start = Instant::now();
    let mut rep = Rep::default();
    let Setup {
        trace,
        cfg,
        sim,
        hook,
    } = match setup(seed, size, &mut rep, tracer) {
        Ok(s) => s,
        Err(e) => {
            rep.check("setup".into(), false, e);
            return rep;
        }
    };
    let first = Instant::now();
    rep.setup_s = secs(start, first);
    let path: PathBuf = dir.join(format!(
        "replay_checkpoint-{}-{seed}.snap",
        std::process::id()
    ));
    let result = (|| -> Result<(), String> {
        let full = run_checkpointed(sim, hook.as_deref(), &path, &mut rep, tracer)?;
        if let Some(h) = &hook {
            rep.add_count("scenario.hook_calls", h.calls() as f64);
        }
        let digest = outcome_digest(&full);
        rep.digests.insert("mtsd".into(), digest);
        let resumed = resume(&mut rep, &trace, &cfg, &path, tracer)?;
        let err = resume_error(&full, &resumed);
        rep.model_rel_err = err;
        rep.check(
            "mtsd.resume_bit_identical".into(),
            outcome_digest(&resumed) == digest,
            format!(
                "{} vs {} events, {} vs {} records, worst online rel diff {err}",
                full.events,
                resumed.events,
                full.records.len(),
                resumed.records.len()
            ),
        );
        Ok(())
    })();
    if let Err(e) = result {
        rep.check("mtsd.run".into(), false, e);
    }
    // Best effort: a leftover checkpoint is harmless and overwritten by
    // the next repetition.
    let _ = std::fs::remove_file(&path);
    rep.wall_s = secs(first, Instant::now());
    rep
}
