//! The engine-side observation interface.
//!
//! A [`Probe`] is attached to a simulation the way a scenario hook is:
//! explicitly, outside the config (so config digests and snapshots are
//! unaffected). The engine calls it at a fixed simulated-time cadence
//! with a borrowed [`Sample`] of its public aggregates, plus span timings
//! and a final counter flush. Probes must never influence the run — they
//! receive shared borrows of engine state and have nowhere to write back.

use crate::counters::Counters;
use crate::flightrec::FlightRecord;

/// One cadence-point observation of the engine, borrowed from live
/// engine state (no allocation on the hot path).
#[derive(Debug, Clone, Copy)]
pub struct Sample<'a> {
    /// Simulated time of the sample.
    pub t: f64,
    /// Events dispatched so far (monotone across a run, resume included).
    pub events: u64,
    /// Per-class count of users in a downloading phase (index 0 ↔ class 1).
    pub downloaders: &'a [usize],
    /// Per-class count of active (peer, file) downloads.
    pub download_pairs: &'a [usize],
    /// Per-class count of (peer, file) seeding pairs.
    pub seed_pairs: &'a [usize],
    /// Per-subtorrent downloader weight (the fluid model's demand).
    pub weight: &'a [f64],
    /// Per-subtorrent real-seed bandwidth pool.
    pub pool_real: &'a [f64],
    /// Per-subtorrent virtual-seed bandwidth pool.
    pub pool_virtual: &'a [f64],
    /// Mean individual ρ over peers currently present (1.0-dominated
    /// outside CMFSD).
    pub rho_mean: f64,
    /// Mean Adapt imbalance Δ observed at the most recent epoch (0.0
    /// before the first epoch or without Adapt).
    pub delta_mean: f64,
    /// Cumulative hot-loop counters at the sample point.
    pub counters: Counters,
}

/// An owned copy of a [`Sample`], for buffering probes, tests, and the
/// trace reader ([`crate::TraceRecord`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OwnedSample {
    /// Simulated time of the sample.
    pub t: f64,
    /// Events dispatched so far.
    pub events: u64,
    /// Per-class downloading users.
    pub downloaders: Vec<usize>,
    /// Per-class active (peer, file) downloads.
    pub download_pairs: Vec<usize>,
    /// Per-class (peer, file) seeding pairs.
    pub seed_pairs: Vec<usize>,
    /// Per-subtorrent downloader weight.
    pub weight: Vec<f64>,
    /// Per-subtorrent real-seed pool.
    pub pool_real: Vec<f64>,
    /// Per-subtorrent virtual-seed pool.
    pub pool_virtual: Vec<f64>,
    /// Mean individual ρ.
    pub rho_mean: f64,
    /// Mean Adapt Δ at the latest epoch.
    pub delta_mean: f64,
    /// Cumulative counters.
    pub counters: Counters,
}

impl Sample<'_> {
    /// Copies the borrowed sample into an owned one.
    pub fn to_owned_sample(&self) -> OwnedSample {
        OwnedSample {
            t: self.t,
            events: self.events,
            downloaders: self.downloaders.to_vec(),
            download_pairs: self.download_pairs.to_vec(),
            seed_pairs: self.seed_pairs.to_vec(),
            weight: self.weight.to_vec(),
            pool_real: self.pool_real.to_vec(),
            pool_virtual: self.pool_virtual.to_vec(),
            rho_mean: self.rho_mean,
            delta_mean: self.delta_mean,
            counters: self.counters,
        }
    }
}

/// An observer of one engine run.
///
/// All methods default to no-ops, so implementors override only what
/// they need. `Send` because the sweep supervisor moves probes across
/// worker threads.
pub trait Probe: Send {
    /// Desired sampling cadence in simulated time units; `0.0` disables
    /// the sampler entirely (the engine then never builds a [`Sample`]).
    fn sample_every(&self) -> f64 {
        0.0
    }

    /// Called at each cadence point (and once at `t = 0` on a fresh run).
    fn on_sample(&mut self, _sample: &Sample<'_>) {}

    /// Whether this probe wants [`FlightRecord`]s. The engine caches the
    /// answer at attach time (like `sample_every`), so a `false` here
    /// costs the hot loop one cached boolean test per event and nothing
    /// else.
    fn wants_flight(&self) -> bool {
        false
    }

    /// Called with each flight-recorder entry when [`wants_flight`]
    /// returned `true` at attach time.
    ///
    /// [`wants_flight`]: Probe::wants_flight
    fn on_flight(&mut self, _rec: &FlightRecord) {}

    /// Called with a named phase timing (e.g. `engine`, `checkpoint`).
    fn on_span(&mut self, _name: &str, _micros: u64) {}

    /// Called once when the run completes, with the final clock and
    /// counters.
    fn on_finish(&mut self, _t: f64, _counters: &Counters) {}
}

/// The do-nothing probe: attaching it must be indistinguishable (in
/// results, not wall-clock) from attaching nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// A buffering probe that keeps every sample and the final counters in
/// memory — the test harness's view of a run's telemetry.
#[derive(Debug, Default)]
pub struct MemoryProbe {
    cadence: f64,
    /// Samples in emission order.
    pub samples: Vec<OwnedSample>,
    /// Spans in emission order.
    pub spans: Vec<(String, u64)>,
    /// Final counters, once the run finished.
    pub finished: Option<Counters>,
}

impl MemoryProbe {
    /// Creates a buffering probe sampling every `cadence` time units.
    pub fn new(cadence: f64) -> Self {
        Self {
            cadence,
            samples: Vec::new(),
            spans: Vec::new(),
            finished: None,
        }
    }
}

impl Probe for MemoryProbe {
    fn sample_every(&self) -> f64 {
        self.cadence
    }

    fn on_sample(&mut self, sample: &Sample<'_>) {
        self.samples.push(sample.to_owned_sample());
    }

    fn on_span(&mut self, name: &str, micros: u64) {
        self.spans.push((name.to_string(), micros));
    }

    fn on_finish(&mut self, _t: f64, counters: &Counters) {
        self.finished = Some(*counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<'a>(bufs: &'a ([usize; 2], [f64; 3])) -> Sample<'a> {
        Sample {
            t: 1.5,
            events: 42,
            downloaders: &bufs.0,
            download_pairs: &bufs.0,
            seed_pairs: &bufs.0,
            weight: &bufs.1,
            pool_real: &bufs.1,
            pool_virtual: &bufs.1,
            rho_mean: 0.5,
            delta_mean: -0.25,
            counters: Counters::default(),
        }
    }

    #[test]
    fn memory_probe_buffers_everything() {
        let bufs = ([3usize, 0], [1.0f64, 0.0, 2.0]);
        let mut p = MemoryProbe::new(5.0);
        assert_eq!(p.sample_every(), 5.0);
        p.on_sample(&sample(&bufs));
        p.on_span("engine", 17);
        p.on_finish(2.0, &Counters::default());
        assert_eq!(p.samples.len(), 1);
        assert_eq!(p.samples[0].t, 1.5);
        assert_eq!(p.samples[0].downloaders, vec![3, 0]);
        assert_eq!(p.spans, vec![("engine".to_string(), 17)]);
        assert_eq!(p.finished, Some(Counters::default()));
    }

    #[test]
    fn noop_probe_defaults() {
        let bufs = ([0usize, 0], [0.0f64, 0.0, 0.0]);
        let mut p = NoopProbe;
        assert_eq!(p.sample_every(), 0.0);
        p.on_sample(&sample(&bufs));
        p.on_span("x", 1);
        p.on_finish(0.0, &Counters::default());
    }
}
