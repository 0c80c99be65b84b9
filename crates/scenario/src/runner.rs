//! Running a scenario program against the DES schemes and bucketing the
//! outcome into per-phase timelines.

use crate::program::ScenarioProgram;
use btfluid_core::adapt::AdaptConfig;
use btfluid_des::{AdaptSetup, ClassStats, SchemeKind, SimOutcome, Simulation};
use btfluid_numkit::NumError;

/// Per-phase aggregation of one scenario run: users are bucketed by
/// arrival time, aborts by the time the abort fired.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Phase name from the program.
    pub name: String,
    /// Phase start (inclusive).
    pub start: f64,
    /// Phase end (exclusive).
    pub end: f64,
    /// Per-class statistics over users who *arrived* inside the phase and
    /// completed (index 0 ↔ class 1).
    pub classes: Vec<ClassStats>,
    /// Aborts that fired inside the phase.
    pub aborted: usize,
}

impl PhaseStats {
    /// Users counted across all classes.
    pub fn completed(&self) -> u64 {
        self.classes.iter().map(ClassStats::count).sum()
    }

    /// Mean online time per file over the phase's completed users, or
    /// `None` when nobody completed.
    pub fn online_per_file(&self) -> Option<f64> {
        per_file(&self.classes, |c| c.online.mean())
    }
}

/// Per-file mean of a per-user statistic over per-class stats (index 0 ↔
/// class 1): each class's `mean` weighted by its users, divided by the
/// files they downloaded. `None` when nobody completed.
pub fn per_file(classes: &[ClassStats], mean: impl Fn(&ClassStats) -> f64) -> Option<f64> {
    let mut total = 0.0;
    let mut files = 0.0;
    for (idx, c) in classes.iter().enumerate() {
        total += mean(c) * c.count() as f64;
        files += (idx + 1) as f64 * c.count() as f64;
    }
    (files > 0.0).then(|| total / files)
}

/// One scheme's run of a scenario program.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Display label (`MTCD`, `CMFSD+Adapt`, …).
    pub label: String,
    /// The scheme simulated.
    pub scheme: SchemeKind,
    /// The full simulation outcome (trajectory included).
    pub outcome: SimOutcome,
    /// Per-phase timeline in program order.
    pub phases: Vec<PhaseStats>,
}

impl ScenarioRun {
    /// Buckets a finished outcome into the program's reporting phases.
    pub fn new(
        program: &ScenarioProgram,
        scheme: SchemeKind,
        label: impl Into<String>,
        outcome: SimOutcome,
    ) -> Self {
        let phases = program
            .phases
            .iter()
            .map(|ph| {
                let mut classes = vec![ClassStats::default(); program.k as usize];
                for r in &outcome.records {
                    if (ph.start..ph.end).contains(&r.arrival) {
                        let stats = &mut classes[r.class - 1];
                        stats.download.push(r.download_span);
                        stats.online.push(r.online_fluid);
                        stats.rho.push(r.final_rho);
                    }
                }
                let aborted = outcome
                    .aborts
                    .iter()
                    .filter(|a| (ph.start..ph.end).contains(&a.time))
                    .count();
                PhaseStats {
                    name: ph.name.clone(),
                    start: ph.start,
                    end: ph.end,
                    classes,
                    aborted,
                }
            })
            .collect();
        Self {
            label: label.into(),
            scheme,
            outcome,
            phases,
        }
    }
}

/// Which rate-scheduling engine a scenario run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RateMode {
    /// Incremental dirty-tracking refresh — the production default.
    #[default]
    Incremental,
    /// Forced full recompute on every event: O(peers) per event,
    /// bit-identical to [`RateMode::Incremental`] (the verification
    /// baseline).
    Exact,
    /// Class-aggregated completion scheduling: one exponential completion
    /// event per (file, class, band) group, flat per-event cost.
    /// Distribution-equivalent to the per-peer modes, not bit-identical;
    /// incompatible with Adapt (which needs per-peer progress accounting).
    Aggregate,
}

impl RateMode {
    /// Applies the mode to an engine configuration.
    pub fn apply(self, cfg: &mut btfluid_des::DesConfig) {
        cfg.exact_rates = self == RateMode::Exact;
        cfg.aggregate = self == RateMode::Aggregate;
    }
}

/// Runs one scheme (optionally with Adapt) against the program.
///
/// # Errors
/// Propagates configuration validation errors.
pub fn run_one(
    program: &ScenarioProgram,
    scheme: SchemeKind,
    adapt: Option<AdaptSetup>,
    label: &str,
    seed: u64,
    mode: RateMode,
) -> Result<ScenarioRun, NumError> {
    program.validate()?;
    let mut cfg = program.des_config(scheme, seed)?;
    cfg.adapt = adapt;
    mode.apply(&mut cfg);
    cfg.validate()?;
    let outcome = Simulation::with_hook(cfg, Box::new(program.hook()))?.run();
    Ok(ScenarioRun::new(program, scheme, label, outcome))
}

/// The scheme line-up every scenario is run against: the paper's four
/// schemes plus CMFSD with the Adapt layer attached.
///
/// In [`RateMode::Aggregate`] the CMFSD+Adapt cell is omitted: Adapt
/// steers individual ρ from per-peer progress, which the aggregate engine
/// does not track (its config is rejected by validation). The shorter
/// line-up is visible to callers rather than silently downgraded to a
/// different mode.
pub fn scheme_lineup(
    program: &ScenarioProgram,
    mode: RateMode,
) -> Vec<(SchemeKind, Option<AdaptSetup>, String)> {
    let cmfsd = SchemeKind::Cmfsd { rho: 0.5 };
    let adapt = AdaptSetup {
        controller: AdaptConfig::default_for_mu(program.params.mu()),
        epoch: 20.0,
        cheater_fraction: 0.0,
    };
    let mut lineup = vec![
        (SchemeKind::Mtsd, None, "MTSD".into()),
        (SchemeKind::Mtcd, None, "MTCD".into()),
        (SchemeKind::Mfcd, None, "MFCD".into()),
        (cmfsd, None, cmfsd.name()),
    ];
    if mode != RateMode::Aggregate {
        lineup.push((cmfsd, Some(adapt), "CMFSD+Adapt".into()));
    }
    lineup
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    /// A tiny flash crowd (quarter scale) runs end to end on every scheme
    /// and produces per-phase stats.
    #[test]
    fn smoke_flash_crowd_all_schemes() {
        let program = registry::flash_crowd().time_scaled(0.25);
        let lineup = scheme_lineup(&program, RateMode::Incremental);
        assert_eq!(lineup.len(), 5);
        for (scheme, adapt, label) in lineup {
            let run =
                run_one(&program, scheme, adapt, &label, 7, RateMode::Incremental).expect("run");
            assert_eq!(run.phases.len(), 3, "{}", run.label);
            assert!(run.outcome.arrivals > 0, "{}: no arrivals", run.label);
            let completed: u64 = run.phases.iter().map(PhaseStats::completed).sum();
            assert!(completed > 0, "{}: nobody completed", run.label);
            // The surge phase must see more arrivals per unit time than the
            // pre phase: count raw records bucketed by arrival.
            let per_rate = |ph: &PhaseStats| {
                run.outcome
                    .records
                    .iter()
                    .filter(|r| (ph.start..ph.end).contains(&r.arrival))
                    .count() as f64
                    / (ph.end - ph.start)
            };
            let pre = per_rate(&run.phases[0]);
            let surge = per_rate(&run.phases[1]);
            assert!(
                surge > pre,
                "{}: surge rate {surge} not above pre rate {pre}",
                run.label
            );
        }
    }

    /// Abort storm actually aborts peers, and all aborts land in the storm
    /// phase or later (the abort schedule is zero before it).
    #[test]
    fn abort_storm_produces_aborts() {
        let program = registry::abort_storm().time_scaled(0.25);
        let run = run_one(
            &program,
            SchemeKind::Mtcd,
            None,
            "MTCD",
            11,
            RateMode::Incremental,
        )
        .expect("run");
        assert!(
            !run.outcome.aborts.is_empty(),
            "storm injected no aborts at all"
        );
        let storm_start = program.faults.abort.boundaries()[0];
        for a in &run.outcome.aborts {
            assert!(a.time >= storm_start, "abort at {} before storm", a.time);
        }
    }

    /// Telemetry probes never perturb hooked runs: with a sampling probe
    /// attached the outcome is bit-identical to the bare run, in both
    /// `exact_rates` modes (the des-level proptest covers hookless runs).
    #[test]
    fn probe_never_perturbs_hooked_runs() {
        use btfluid_des::{Counters, MemoryProbe, Probe, Sample};
        use std::sync::{Arc, Mutex};

        struct Fwd(Arc<Mutex<MemoryProbe>>);
        impl Probe for Fwd {
            fn sample_every(&self) -> f64 {
                self.0.lock().unwrap().sample_every()
            }
            fn on_sample(&mut self, s: &Sample<'_>) {
                self.0.lock().unwrap().on_sample(s);
            }
            fn on_finish(&mut self, t: f64, c: &Counters) {
                self.0.lock().unwrap().on_finish(t, c);
            }
        }

        let program = registry::flash_crowd().time_scaled(0.25);
        for mode in [RateMode::Incremental, RateMode::Exact] {
            let bare = run_one(&program, SchemeKind::Mtcd, None, "MTCD", 9, mode).expect("bare");
            let shared = Arc::new(Mutex::new(MemoryProbe::new(5.0)));
            let mut cfg = program.des_config(SchemeKind::Mtcd, 9).expect("config");
            mode.apply(&mut cfg);
            let probed = Simulation::with_hook(cfg, Box::new(program.hook()))
                .expect("probed")
                .with_probe(Box::new(Fwd(Arc::clone(&shared))))
                .run();
            assert_eq!(bare.outcome.events, probed.events);
            assert_eq!(bare.outcome.arrivals, probed.arrivals);
            assert_eq!(bare.outcome.records.len(), probed.records.len());
            for (a, b) in bare.outcome.records.iter().zip(&probed.records) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.departure.to_bits(), b.departure.to_bits());
                assert_eq!(a.download_span.to_bits(), b.download_span.to_bits());
                assert_eq!(a.online_fluid.to_bits(), b.online_fluid.to_bits());
            }
            assert_eq!(bare.outcome.aborts.len(), probed.aborts.len());
            assert_eq!(
                bare.outcome.population.window.to_bits(),
                probed.population.window.to_bits()
            );
            let mem = shared.lock().unwrap();
            assert!(!mem.samples.is_empty(), "sampler never fired ({mode:?})");
            assert!(mem.finished.is_some(), "on_finish not called");
        }
    }

    /// Phase online-per-file helper is consistent with the outcome.
    #[test]
    fn phase_metric_sanity() {
        let program = registry::diurnal().time_scaled(0.25);
        let run = run_one(
            &program,
            SchemeKind::Mtsd,
            None,
            "MTSD",
            3,
            RateMode::Incremental,
        )
        .expect("run");
        for ph in &run.phases {
            if ph.completed() > 0 {
                let v = ph.online_per_file().expect("metric");
                assert!(v.is_finite() && v > 0.0);
            }
        }
    }
}
