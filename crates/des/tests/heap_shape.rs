//! The per-peer engine's queue and rate work scale with files, not
//! downloaders: at the paper's parameters with hundreds of concurrent MFCD
//! downloads the lazy heap holds only seed expiries, completions come from
//! one indexed head per subtorrent, and a pool change costs one clock
//! re-anchor per file instead of one settlement per download.

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
    let events = sim.events();
    // One entry per download peaked at 10 501 entries on this run.
    assert!(c.heap_peak <= 512, "heap peaked at {} entries", c.heap_peak);
    // The engine that settled every download on every pool change ran
    // 11 096 events with 9 487 heap pops and 4 653 877 rate recomputes
    // (about 420 per event). The clock engine dispatches the same run
    // (its completion times differ only in their last bits) with fewer
    // than 2·K rate evaluations per event.
    assert!(
        (11_000..=11_200).contains(&events),
        "{events} events, 11 096 before"
    );
    assert!(
        c.rate_recomputes < 20 * events,
        "{} rate evaluations over {events} events",
        c.rate_recomputes
    );
    assert!(c.events_popped <= events);
}
