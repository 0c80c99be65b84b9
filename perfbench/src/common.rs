//! Plumbing shared by the workloads: per-repetition results, output
//! checks, bitwise outcome digests and the (optionally traced) step loop.

use crate::hook::HookStats;
use crate::trace::Tracer;
use btfluid_des::{Counters, DesError, SimOutcome, Simulation};
use std::collections::BTreeMap;
use std::time::Instant;

/// Problem size of a workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// A seconds-scale smoke size for tests. Statistical checks are not
    /// expected to hold at this size; structural ones are.
    Tiny,
}

/// One output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// `<run>.<what>`, e.g. `mtsd.events_accounted`.
    pub name: String,
    /// Whether the output passed.
    pub ok: bool,
    /// Evidence or the failure message.
    pub detail: String,
    /// A statistical agreement check (may legitimately fail at
    /// [`Size::Tiny`]).
    pub statistical: bool,
}

/// What one simulation run contributes to the per-layer counts.
#[derive(Debug, Clone, Copy)]
pub struct RunCounters {
    /// Short scheme tag (`mtsd`, `mfcd`, `cmfsd_adapt`, …).
    pub tag: &'static str,
    /// Engine counters read after the last step.
    pub counters: Counters,
    /// Events the run dispatched (`SimOutcome::events`).
    pub events: u64,
    /// User records the run produced.
    pub records: u64,
}

/// Everything one repetition of a workload reports.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds before the first simulated event.
    pub setup_s: f64,
    /// Host seconds from the first simulated event to the last check.
    pub wall_s: f64,
    /// Worst relative error against the workload's reference.
    pub model_rel_err: f64,
    /// Output checks, in order.
    pub checks: Vec<Check>,
    /// Bitwise digest of each run's outcome, by run name.
    pub digests: BTreeMap<String, u64>,
    /// `des::snapshot::config_digest` of each DES run, by run name.
    pub config_digests: BTreeMap<String, u64>,
    /// Counters of each simulation run.
    pub runs: Vec<RunCounters>,
    /// Per-layer counts the workload measures itself (bytes, calls, …).
    pub counts: BTreeMap<&'static str, f64>,
    /// Reported observations that are not checks.
    pub notes: Vec<String>,
}

impl Rep {
    /// Records a check.
    pub fn check(&mut self, name: String, ok: bool, detail: String) {
        self.checks.push(Check {
            name,
            ok,
            detail,
            statistical: false,
        });
    }

    /// Records a statistical agreement check: `rel <= tol`.
    pub fn check_rel(&mut self, name: String, rel: f64, tol: f64, detail: String) {
        self.checks.push(Check {
            name,
            ok: rel <= tol,
            detail: format!("{detail} (rel {rel:.4}, tol {tol})"),
            statistical: true,
        });
    }

    /// Records the engine-counter consistency check for one run: every
    /// dispatched event is accounted for. `counters().events_popped`
    /// counts only events popped from the queue (completions and seed
    /// expiries); arrivals, Adapt epochs (`clock_events`) and the final
    /// end-of-run event come from the engine's clocks instead.
    pub fn check_events(
        &mut self,
        run: &str,
        counters: &Counters,
        outcome: &SimOutcome,
        clock_events: u64,
    ) {
        let accounted = counters.events_popped + outcome.arrivals as u64 + clock_events + 1;
        self.check(
            format!("{run}.events_accounted"),
            accounted == outcome.events,
            format!(
                "events_popped {} + arrivals {} + clock events {clock_events} + end 1 = {accounted} vs outcome.events {}",
                counters.events_popped, outcome.arrivals, outcome.events
            ),
        );
    }

    /// Adds to a workload-measured count.
    pub fn add_count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes one float by its bits.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Bitwise digest of everything a DES run reports: event and arrival
/// counts, every user record, population integrals and censoring.
pub fn outcome_digest(o: &SimOutcome) -> u64 {
    let mut h = Fnv::default();
    h.word(o.events);
    h.word(o.arrivals as u64);
    h.word(o.censored as u64);
    h.word(o.aborts.len() as u64);
    for r in &o.records {
        h.word(r.id);
        h.word(r.class as u64);
        h.float(r.arrival);
        h.float(r.departure);
        h.float(r.download_span);
        h.float(r.online_fluid);
        h.float(r.final_rho);
        h.word(u64::from(r.cheater));
    }
    let pop = &o.population;
    h.float(pop.window);
    for v in pop
        .downloader_peer_integral
        .iter()
        .chain(&pop.download_pair_integral)
        .chain(&pop.seed_pair_integral)
    {
        h.float(*v);
    }
    h.finish()
}

/// Steps per traced `des.step` span: large enough that the two clock
/// reads per batch are noise against the batch, small enough that a
/// snapshot cadence or the run's end is hit exactly.
const BATCH: u64 = 1024;

/// Advances `sim` by at most `max_events` events. Returns `Ok(false)` once
/// the run has reached its end (call `finish`).
///
/// Untraced, this is the bare `step()` loop. Traced, every batch of up to
/// [`BATCH`] steps becomes one `des.step` span, with the hook calls made
/// during the batch folded into one aggregated `scenario.hook` child.
pub fn step_events(
    sim: &mut Simulation,
    tracer: &mut Tracer,
    hook: Option<&HookStats>,
    max_events: u64,
) -> Result<bool, DesError> {
    if !tracer.is_on() {
        for _ in 0..max_events {
            if !sim.step()? {
                return Ok(false);
            }
        }
        return Ok(true);
    }
    let mut left = max_events;
    while left > 0 {
        let n = left.min(BATCH);
        let (calls0, ns0) = hook.map_or((0, 0), |h| (h.calls(), h.ns()));
        let start = Instant::now();
        let mut done = 0;
        let mut running = true;
        while done < n {
            done += 1;
            if !sim.step()? {
                running = false;
                break;
            }
        }
        let end = Instant::now();
        let id = tracer.record("des.step", start, end, done);
        if let Some(h) = hook {
            tracer.record_aggregate(id, "scenario.hook", start, h.ns() - ns0, h.calls() - calls0);
        }
        if !running {
            return Ok(false);
        }
        left -= n;
    }
    Ok(true)
}

/// Runs `f` as span `name`, folding the hook calls it triggers into an
/// aggregated `scenario.hook` child.
pub fn with_hook_span<T>(
    tracer: &mut Tracer,
    name: &'static str,
    hook: Option<&HookStats>,
    f: impl FnOnce() -> T,
) -> T {
    if !tracer.is_on() {
        return f();
    }
    let (calls0, ns0) = hook.map_or((0, 0), |h| (h.calls(), h.ns()));
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let id = tracer.record(name, start, end, 1);
    if let Some(h) = hook {
        tracer.record_aggregate(id, "scenario.hook", start, h.ns() - ns0, h.calls() - calls0);
    }
    out
}

/// Relative error `|x - reference| / |reference|`.
pub fn rel_err(x: f64, reference: f64) -> f64 {
    (x - reference).abs() / reference.abs().max(f64::MIN_POSITIVE)
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_single_bit_changes() {
        let mut a = Fnv::default();
        a.float(1.0);
        let mut b = Fnv::default();
        b.float(f64::from_bits(1.0f64.to_bits() ^ 1));
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn rel_err_is_symmetric_in_sign() {
        assert_eq!(rel_err(11.0, 10.0), rel_err(9.0, 10.0));
        assert_eq!(rel_err(5.0, 5.0), 0.0);
    }
}
