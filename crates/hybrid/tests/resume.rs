//! Snapshot v4 round-trips: a hybrid run stopped at any decision
//! boundary and resumed from its snapshot finishes bit-identical to the
//! uninterrupted run — across regimes, schemes, and both DES rate modes.

use btfluid_des::codec::{self, fnv1a};
use btfluid_des::{SchemeKind, Snapshot};
use btfluid_hybrid::{amplified_flash_crowd, HybridConfig, HybridOutcome, HybridRunner, Regime};

fn cfg(scheme: SchemeKind, aggregate: bool) -> HybridConfig {
    HybridConfig {
        program: amplified_flash_crowd(512.0, 0.005),
        scheme,
        seed: 29,
        tol: 0.1,
        aggregate,
    }
}

fn assert_bit_identical(a: &HybridOutcome, b: &HybridOutcome) {
    assert_eq!(a.class_means.len(), b.class_means.len());
    for (i, (x, y)) in a.class_means.iter().zip(b.class_means.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "class {} mean differs", i + 1);
    }
    assert_eq!(a.des_events, b.des_events);
    assert_eq!(a.fluid_steps, b.fluid_steps);
    assert_eq!(a.handoffs, b.handoffs);
    assert_eq!(a.final_t.to_bits(), b.final_t.to_bits());
}

/// Runs uninterrupted; then re-runs stopping at boundary `stop_at`,
/// snapshotting, resuming into a fresh runner, and finishing. Both
/// outcomes must match bit for bit.
fn round_trip(cfg: HybridConfig, stop_at: usize) {
    let reference = HybridRunner::run(cfg.clone()).unwrap();

    let mut victim = HybridRunner::new(cfg.clone()).unwrap();
    let mut steps = 0usize;
    let mut more = true;
    while more && steps < stop_at {
        more = victim.step_boundary().unwrap();
        steps += 1;
    }
    let bytes = victim.snapshot();
    drop(victim);

    let mut resumed = HybridRunner::resume(cfg, &bytes).unwrap();
    while resumed.step_boundary().unwrap() {}
    assert_bit_identical(&reference, &resumed.finish());
}

#[test]
fn resume_mid_discrete_segment_is_bit_identical() {
    // Boundary 1 is early: the run is still in its initial discrete
    // ramp, so the snapshot embeds a live engine.
    round_trip(cfg(SchemeKind::Mtcd, true), 1);
    round_trip(cfg(SchemeKind::Mtsd, false), 1);
}

#[test]
fn resume_mid_fluid_stretch_is_bit_identical() {
    // By mid-run the population has crossed hi and the state is fluid.
    let c = cfg(SchemeKind::Mtcd, true);
    let probe = {
        let mut r = HybridRunner::new(c.clone()).unwrap();
        let mut at_fluid = None;
        let mut n = 0usize;
        loop {
            let more = r.step_boundary().unwrap();
            n += 1;
            if r.regime() == Regime::Fluid && at_fluid.is_none() {
                at_fluid = Some(n + 2);
            }
            if !more {
                break;
            }
        }
        at_fluid.expect("λ₀ = 512 must reach the fluid regime")
    };
    round_trip(c, probe);
    round_trip(cfg(SchemeKind::Mtsd, true), probe);
}

#[test]
fn resume_at_every_early_boundary_is_bit_identical() {
    for stop_at in [0, 2, 4, 7] {
        round_trip(cfg(SchemeKind::Mtsd, true), stop_at);
    }
}

#[test]
fn snapshot_of_resumed_runner_matches_original_continuation() {
    // Chain two resumes: snapshot at 3, resume, snapshot at 6, resume.
    let c = cfg(SchemeKind::Mtcd, false);
    let reference = HybridRunner::run(c.clone()).unwrap();

    let mut first = HybridRunner::new(c.clone()).unwrap();
    for _ in 0..3 {
        first.step_boundary().unwrap();
    }
    let snap1 = first.snapshot();
    let mut second = HybridRunner::resume(c.clone(), &snap1).unwrap();
    for _ in 0..3 {
        second.step_boundary().unwrap();
    }
    let snap2 = second.snapshot();
    let mut third = HybridRunner::resume(c, &snap2).unwrap();
    while third.step_boundary().unwrap() {}
    assert_bit_identical(&reference, &third.finish());
}

/// The runner stepped `boundaries` decision boundaries in.
fn stepped(cfg: HybridConfig, boundaries: usize) -> HybridRunner {
    let mut runner = HybridRunner::new(cfg).unwrap();
    for _ in 0..boundaries {
        assert!(runner.step_boundary().unwrap());
    }
    runner
}

/// A v4 snapshot with the embedded engine's queue-shape counters zeroed
/// (`Snapshot::without_queue_shape`) and the frame re-sealed. Walks the
/// v4 layout to the engine section, the payload's tail; the masked
/// engine has the same length, so it is written back in place.
fn without_queue_shape(bytes: &[u8]) -> Vec<u8> {
    let (_, mut r) = codec::open(bytes).unwrap();
    // digest, t, regime, seg_t0, seg_seed, segment, next_boundary,
    // handoff RNG (4 words), des_events, fluid_steps.
    r.take(8 + 8 + 1 + 8 + 8 + 8 + 8 + 32 + 8 + 8).unwrap();
    for _ in 0..2 {
        let n = r.u32().unwrap() as usize;
        r.take(8 * n).unwrap();
    }
    let handoffs = r.u32().unwrap() as usize;
    r.take(17 * handoffs).unwrap();
    if r.u8().unwrap() == 0 {
        return bytes.to_vec();
    }
    let len = r.u64().unwrap() as usize;
    let engine = r.take(len).unwrap();
    r.done().unwrap();
    let at = bytes.len() - 8 - len;
    let masked = Snapshot::from_bytes(engine)
        .unwrap()
        .without_queue_shape()
        .to_bytes();
    assert_eq!(masked.len(), len);
    let mut out = bytes.to_vec();
    out[at..at + len].copy_from_slice(&masked);
    let body = out.len() - 8;
    let sum = fnv1a(&out[..body]);
    out[body..].copy_from_slice(&sum.to_le_bytes());
    out
}

/// The v4 encoding itself is pinned, not just its round trip: length and
/// FNV-1a digest of snapshots taken mid-discrete (embedding a live v5 or
/// v6 engine) and mid-fluid, with the engine's queue-shape counters
/// zeroed. A layout change needs a version bump and new pins.
#[test]
fn v4_snapshot_bytes_are_pinned() {
    let discrete_agg = stepped(cfg(SchemeKind::Mtcd, true), 1);
    let discrete = stepped(cfg(SchemeKind::Mtsd, false), 2);
    let mut fluid = stepped(cfg(SchemeKind::Mtcd, true), 1);
    while fluid.regime() != Regime::Fluid {
        assert!(fluid.step_boundary().unwrap());
    }
    assert!(fluid.step_boundary().unwrap());
    assert_eq!(discrete_agg.regime(), Regime::Discrete);
    assert_eq!(discrete.regime(), Regime::Discrete);
    assert_eq!(fluid.regime(), Regime::Fluid);
    let pins = [
        (&discrete_agg, 22_252, 0x3c9f_dfbb_c71d_3a6f),
        (&discrete, 23_322, 0x03d5_8fcd_83c3_3f1a),
        (&fluid, 383, 0x633d_c316_c9c9_b34c),
    ];
    for (runner, len, digest) in pins {
        let bytes = without_queue_shape(&runner.snapshot());
        assert_eq!((bytes.len(), fnv1a(&bytes)), (len, digest));
    }
}
