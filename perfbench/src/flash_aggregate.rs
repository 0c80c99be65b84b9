//! `flash_aggregate`: the flash crowd amplified to a peak of 512
//! visitors per time unit, run by the class-aggregated engine for MTSD and
//! MTCD, with a hybrid fluid/DES run per scheme as the population
//! reference.
//!
//! This path never touches the per-peer rate cache. MTCD's aggregate
//! population is known to run above the reference (concurrent schemes
//! depart at the max of K exponential completions); the gap shows in
//! `model_rel_err` and is not a failed check. Only MTSD, where the
//! relaxation is exact in distribution, is held to the hybrid tolerance.

use crate::common::{
    outcome_digest, rel_err, secs, step_events, with_hook_span, Fnv, Rep, RunCounters, Size,
};
use crate::hook::{attach, HookStats};
use crate::trace::Tracer;
use btfluid_des::snapshot::config_digest;
use btfluid_des::{DesConfig, SchemeKind, Simulation};
use btfluid_hybrid::{amplified_flash_crowd, HybridConfig, HybridOutcome, HybridRunner};
use btfluid_scenario::ScenarioProgram;
use std::rc::Rc;
use std::time::Instant;

/// The hybrid runner's relative error budget, also the MTSD tolerance.
pub const HYBRID_TOL: f64 = 0.1;

/// Peak visitor rate of the amplified flash crowd.
const PEAK: f64 = 512.0;

const SCHEMES: [(&str, SchemeKind); 2] = [("mtsd", SchemeKind::Mtsd), ("mtcd", SchemeKind::Mtcd)];

/// Compression of the flash crowd's 4000-unit time axis.
fn time_scale(size: Size) -> f64 {
    match size {
        Size::Full => 0.05,
        Size::Tiny => 0.005,
    }
}

fn des_config(
    program: &ScenarioProgram,
    scheme: SchemeKind,
    seed: u64,
) -> Result<DesConfig, String> {
    let mut cfg = program
        .des_config(scheme, seed)
        .map_err(|e| e.to_string())?;
    // Same window as the hybrid run: no drain, no trajectory.
    cfg.aggregate = true;
    cfg.drain = 0.0;
    cfg.record_every = None;
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

fn hybrid_digest(h: &HybridOutcome) -> u64 {
    let mut f = Fnv::default();
    for m in &h.class_means {
        f.float(*m);
    }
    f.word(h.des_events);
    f.word(h.fluid_steps);
    f.word(h.handoffs.len() as u64);
    f.float(h.final_t);
    f.finish()
}

struct Prepared {
    tag: &'static str,
    sim: Simulation,
    hook: Option<Rc<HookStats>>,
    runner: HybridRunner,
}

fn prepare(
    program: &ScenarioProgram,
    tag: &'static str,
    scheme: SchemeKind,
    seed: u64,
    rep: &mut Rep,
    tracer: &mut Tracer,
) -> Result<Prepared, String> {
    let cfg = des_config(program, scheme, seed)?;
    rep.config_digests.insert(tag.into(), config_digest(&cfg));
    let (boxed, hook) = attach(program.hook(), tracer.is_on());
    let sim = with_hook_span(tracer, "des.new", hook.as_deref(), || {
        Simulation::with_hook(cfg, boxed)
    })
    .map_err(|e| e.to_string())?;
    let runner = tracer
        .time("hybrid.new", |_| {
            HybridRunner::new(HybridConfig {
                program: program.clone(),
                scheme,
                seed,
                tol: HYBRID_TOL,
                aggregate: false,
            })
        })
        .map_err(|e| e.to_string())?;
    Ok(Prepared {
        tag,
        sim,
        hook,
        runner,
    })
}

/// One repetition.
pub fn run(seed: u64, size: Size, tracer: &mut Tracer) -> Rep {
    let start = Instant::now();
    let mut rep = Rep::default();
    let program = amplified_flash_crowd(PEAK, time_scale(size));
    let mut prepared = Vec::new();
    for (tag, scheme) in SCHEMES {
        match prepare(&program, tag, scheme, seed, &mut rep, tracer) {
            Ok(p) => prepared.push(p),
            Err(e) => rep.check(format!("{tag}.setup"), false, e),
        }
    }
    let first = Instant::now();
    rep.setup_s = secs(start, first);

    let mut references = Vec::new();
    for p in prepared {
        let Prepared {
            tag,
            mut sim,
            hook,
            runner,
        } = p;
        if let Err(e) = step_events(&mut sim, tracer, hook.as_deref(), u64::MAX) {
            rep.check(format!("{tag}.run"), false, e.to_string());
            continue;
        }
        let counters = sim.counters();
        let outcome = tracer.time("des.finish", |_| sim.finish());
        rep.check_events(tag, &counters, &outcome, 0);
        rep.runs.push(RunCounters {
            tag,
            counters,
            events: outcome.events,
            records: outcome.records.len() as u64,
        });
        rep.digests.insert(tag.into(), outcome_digest(&outcome));
        if let Some(h) = &hook {
            rep.add_count("scenario.hook_calls", h.calls() as f64);
        }
        let pop: f64 = (1..=outcome.k())
            .map(|i| outcome.population.avg_downloader_peers(i))
            .sum();
        references.push((tag, pop, runner));
    }
    for (tag, des_pop, mut runner) in references {
        let hybrid = tracer.time("hybrid.run", |_| -> Result<HybridOutcome, String> {
            while runner.step_boundary().map_err(|e| e.to_string())? {}
            Ok(runner.finish())
        });
        let hybrid = match hybrid {
            Ok(h) => h,
            Err(e) => {
                rep.check(format!("{tag}.hybrid"), false, e);
                continue;
            }
        };
        rep.add_count("hybrid.des_events", hybrid.des_events as f64);
        rep.add_count("hybrid.fluid_steps", hybrid.fluid_steps as f64);
        rep.add_count("hybrid.handoffs", hybrid.handoffs.len() as f64);
        rep.digests
            .insert(format!("{tag}.hybrid"), hybrid_digest(&hybrid));
        let reference = hybrid.total_mean();
        let rel = rel_err(des_pop, reference);
        rep.model_rel_err = rep.model_rel_err.max(rel);
        let detail = format!("aggregate {des_pop:.1} vs hybrid {reference:.1} downloaders");
        if tag == "mtsd" {
            rep.check_rel(
                format!("{tag}.population_vs_hybrid"),
                rel,
                HYBRID_TOL,
                detail,
            );
        } else {
            rep.notes.push(format!(
                "{tag}: {detail} (rel {rel:.4}; known gap, not checked)"
            ));
        }
    }
    rep.wall_s = secs(first, Instant::now());
    rep
}
