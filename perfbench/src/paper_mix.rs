//! `paper_mix`: the per-peer incremental engine at the paper's parameters
//! (K = 10, μ = 0.02, η = 0.5, γ = 0.05, p = 0.5) with λ₀ raised so the
//! swarm holds hundreds of peers. Five schemes run one after another;
//! each is checked against its fluid steady state from
//! `core::evaluate_scheme`.

use crate::common::{outcome_digest, rel_err, secs, step_events, Rep, RunCounters, Size};
use crate::trace::Tracer;
use btfluid_core::adapt::AdaptConfig;
use btfluid_core::{evaluate_scheme, FluidParams, Scheme};
use btfluid_des::snapshot::config_digest;
use btfluid_des::{AdaptSetup, DesConfig, OrderPolicy, SchemeKind, Simulation};
use btfluid_workload::CorrelationModel;
use std::time::Instant;

/// DES-vs-fluid tolerance on online time per file: the bound the oracle
/// and the validation experiment hold the engine to.
pub const FLUID_REL_TOL: f64 = 0.12;

/// Share of arriving peers that cheat (pin ρ = 1) in the Adapt run.
const CHEATERS: f64 = 0.25;

struct Job {
    tag: &'static str,
    scheme: SchemeKind,
    adapt: bool,
}

const JOBS: [Job; 5] = [
    Job {
        tag: "mfcd",
        scheme: SchemeKind::Mfcd,
        adapt: false,
    },
    Job {
        tag: "cmfsd_adapt",
        scheme: SchemeKind::Cmfsd { rho: 0.5 },
        adapt: true,
    },
    Job {
        tag: "cmfsd",
        scheme: SchemeKind::Cmfsd { rho: 0.5 },
        adapt: false,
    },
    Job {
        tag: "mtcd",
        scheme: SchemeKind::Mtcd,
        adapt: false,
    },
    Job {
        tag: "mtsd",
        scheme: SchemeKind::Mtsd,
        adapt: false,
    },
];

/// `(λ₀, horizon, warm-up)` per size.
fn geometry(size: Size) -> (f64, f64, f64) {
    match size {
        Size::Full => (1.0, 1600.0, 500.0),
        Size::Tiny => (0.1, 300.0, 100.0),
    }
}

fn config(job: &Job, size: Size, seed: u64) -> Result<DesConfig, String> {
    let (lambda0, horizon, warmup) = geometry(size);
    let cfg = DesConfig {
        params: FluidParams::paper(),
        model: CorrelationModel::new(10, 0.5, lambda0).map_err(|e| e.to_string())?,
        scheme: job.scheme,
        horizon,
        warmup,
        drain: horizon,
        seed,
        adapt: job.adapt.then(|| AdaptSetup {
            controller: AdaptConfig::default_for_mu(FluidParams::paper().mu()),
            epoch: 20.0,
            cheater_fraction: CHEATERS,
        }),
        origin_seeds: 0,
        warm_start: false,
        order_policy: OrderPolicy::default(),
        record_every: None,
        exact_rates: false,
        checked: false,
        aggregate: false,
    };
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// Runs one built engine to the end and checks it against its fluid
/// reference.
fn run_job(
    job: &Job,
    cfg: &DesConfig,
    mut sim: Simulation,
    rep: &mut Rep,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let tag = job.tag;
    step_events(&mut sim, tracer, None, u64::MAX).map_err(|e| e.to_string())?;
    let counters = sim.counters();
    let outcome = tracer.time("des.finish", |_| sim.finish());
    // Adapt epochs fire at every multiple of the epoch strictly before
    // the hard stop at horizon + drain.
    let epochs = cfg.adapt.map_or(0, |a| {
        (((cfg.horizon + cfg.drain) / a.epoch).ceil() as u64).saturating_sub(1)
    });
    rep.check_events(tag, &counters, &outcome, epochs);
    rep.runs.push(RunCounters {
        tag,
        counters,
        events: outcome.events,
        records: outcome.records.len() as u64,
    });
    rep.digests.insert(tag.into(), outcome_digest(&outcome));

    // Fluid reference. Under Adapt every peer ends at its own ρ; the
    // reference is CMFSD at the mean final ρ of the recorded users
    // (cheaters included, at ρ = 1).
    let scheme = match job.scheme {
        SchemeKind::Mtsd => Scheme::Mtsd,
        SchemeKind::Mtcd => Scheme::Mtcd,
        SchemeKind::Mfcd => Scheme::Mfcd,
        SchemeKind::Cmfsd { rho } if !job.adapt => Scheme::Cmfsd { rho },
        SchemeKind::Cmfsd { .. } => {
            let n = outcome.records.len().max(1) as f64;
            Scheme::Cmfsd {
                rho: outcome.records.iter().map(|r| r.final_rho).sum::<f64>() / n,
            }
        }
    };
    let fluid = tracer
        .time("core.evaluate", |_| {
            evaluate_scheme(cfg.params, &cfg.model, scheme)
        })
        .map_err(|e| format!("fluid reference: {e}"))?;
    rep.add_count("core.evaluate_calls", 1.0);
    let sim_online = outcome.avg_online_per_file().map_err(|e| e.to_string())?;
    let rel = rel_err(sim_online, fluid.avg_online_per_file);
    rep.model_rel_err = rep.model_rel_err.max(rel);
    rep.check_rel(
        format!("{tag}.online_vs_fluid"),
        rel,
        FLUID_REL_TOL,
        format!(
            "DES {sim_online:.3} vs fluid {:.3} online/file",
            fluid.avg_online_per_file
        ),
    );
    Ok(())
}

/// One repetition: every engine is built first (the set-up), then the
/// schemes run one after another.
///
/// Sequential on purpose: on a shared 2-vCPU host, running the schemes on
/// parallel threads left both the wall time (17% run-to-run quartile
/// spread over ten seeds) and the peak RSS (21%: allocator arenas and
/// which jobs happen to overlap) too unsteady to bound a regression.
pub fn run(seed: u64, size: Size, tracer: &mut Tracer) -> Rep {
    let start = Instant::now();
    let mut rep = Rep::default();
    let mut built = Vec::new();
    for job in &JOBS {
        let tag = job.tag;
        let engine = config(job, size, seed).and_then(|cfg| {
            rep.config_digests.insert(tag.into(), config_digest(&cfg));
            let sim = tracer
                .time("des.new", |_| Simulation::new(cfg.clone()))
                .map_err(|e| e.to_string())?;
            Ok((cfg, sim))
        });
        match engine {
            Ok((cfg, sim)) => built.push((job, cfg, sim)),
            Err(e) => rep.check(format!("{tag}.setup"), false, e),
        }
    }
    let first = Instant::now();
    rep.setup_s = secs(start, first);
    for (job, cfg, sim) in built {
        if let Err(e) = run_job(job, &cfg, sim, &mut rep, tracer) {
            rep.check(format!("{}.run", job.tag), false, e);
        }
    }
    rep.wall_s = secs(first, Instant::now());
    rep
}
