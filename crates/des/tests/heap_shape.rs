//! The event heap holds one completion entry per subtorrent, not one per
//! download: at the paper's parameters with hundreds of concurrent MFCD
//! downloads it stays a few hundred entries deep, while the rate work and
//! the event sequence stay exactly those of one entry per download.

use btfluid_core::FluidParams;
use btfluid_des::config::{DesConfig, OrderPolicy, SchemeKind};
use btfluid_des::engine::Simulation;
use btfluid_workload::CorrelationModel;

/// MFCD at K = 10, p = 0.5, λ₀ = 1 over a 1600 tu horizon: the heaviest
/// run of the `paper_mix` benchmark workload.
fn paper_mix_mfcd(seed: u64) -> DesConfig {
    DesConfig {
        params: FluidParams::paper(),
        model: CorrelationModel::new(10, 0.5, 1.0).unwrap(),
        scheme: SchemeKind::Mfcd,
        horizon: 1600.0,
        warmup: 500.0,
        drain: 1600.0,
        seed,
        adapt: None,
        origin_seeds: 0,
        warm_start: false,
        order_policy: OrderPolicy::default(),
        record_every: None,
        exact_rates: false,
        checked: false,
        aggregate: false,
    }
}

#[test]
fn paper_mix_mfcd_heap_stays_shallow() {
    let mut sim = Simulation::new(paper_mix_mfcd(1)).unwrap();
    while sim.step().unwrap() {}
    let c = sim.counters();
    // One entry per download peaked at 10 501 entries on this run.
    assert!(c.heap_peak <= 512, "heap peaked at {} entries", c.heap_peak);
    // Same events and the same rate recomputations as one entry per
    // download (values recorded from that engine): no rate work skipped.
    assert_eq!(sim.events(), 11_096);
    assert_eq!(c.events_popped, 9_487);
    assert_eq!(c.rate_recomputes, 4_653_877);
}
