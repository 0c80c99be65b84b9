//! Snapshot v4: checkpoint/resume for hybrid runs.
//!
//! A hybrid checkpoint is taken *between decision boundaries* and captures
//! everything the driver cannot re-derive from its config: the clock, the
//! active regime, the fluid state vector or the embedded engine snapshot
//! (the DES layer's own v5/v6 codec, verbatim), the handoff RNG stream,
//! the per-class integrals, and the handoff log. Boundaries, policy, and
//! the fluid model are pure functions of the config and are rebuilt on
//! restore. The file is a version-4 [`btfluid_des::codec`] frame — the
//! engine's magic, framing and FNV-1a checksum — so a config digest plus
//! that checksum reject mismatched or torn files with typed errors, and
//! each decoder refuses the other's versions. Restore-then-run is bit-identical to
//! never having stopped — the same contract the engine snapshot keeps.

use crate::driver::{segment_config, HybridConfig, HybridError, HybridRunner, ShiftedHook};
use crate::handoff::HandoffRecord;
use crate::policy::Regime;
use btfluid_des::codec::{self, Reader, Writer};
use btfluid_des::{Simulation, Snapshot};
use btfluid_numkit::rng::Xoshiro256StarStar;

/// Hybrid snapshots are version 4 of the shared frame (the engine owns
/// v5/v6).
pub const HYBRID_SNAPSHOT_VERSION: u32 = 4;

/// Digest of everything that parameterizes a run. Debug formatting of the
/// program is stable, covers every schedule/fault field, and is the same
/// representation the scenario hook fingerprint relies on.
fn config_digest(cfg: &HybridConfig) -> u64 {
    let mut w = Writer::from(format!("{:?}", cfg.program).into_bytes());
    w.bytes(cfg.scheme.name().as_bytes());
    w.u64(cfg.seed);
    w.f64(cfg.tol);
    w.bool(cfg.aggregate);
    w.digest()
}

fn regime_tag(regime: Regime) -> u8 {
    match regime {
        Regime::Fluid => 0,
        Regime::Discrete => 1,
    }
}

fn read_regime(r: &mut Reader) -> Result<Regime, HybridError> {
    match r.u8()? {
        0 => Ok(Regime::Fluid),
        1 => Ok(Regime::Discrete),
        other => Err(HybridError::Snapshot(format!("unknown regime tag {other}"))),
    }
}

/// Reads a `u32` count that must equal `expected` (`what` names it).
fn read_count(r: &mut Reader, expected: usize, what: &str) -> Result<(), HybridError> {
    let n = r.u32()? as usize;
    if n != expected {
        return Err(HybridError::Snapshot(format!(
            "{what} {n} does not match the config's {expected}"
        )));
    }
    Ok(())
}

impl HybridRunner {
    /// Serializes the full driver state (between decision boundaries).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::frame(HYBRID_SNAPSHOT_VERSION);
        w.u64(config_digest(self.config()));
        w.f64(self.t);
        w.u8(regime_tag(self.regime));
        w.f64(self.seg_t0);
        w.u64(self.seg_seed);
        w.u64(self.segment);
        w.u64(self.next_boundary as u64);
        for word in self.rng_handoff.state() {
            w.u64(word);
        }
        w.u64(self.des_events);
        w.u64(self.fluid_steps);
        for xs in [&self.integrals, &self.fluid] {
            w.u32(xs.len() as u32);
            for &v in xs {
                w.f64(v);
            }
        }
        w.u32(self.handoffs.len() as u32);
        for h in &self.handoffs {
            w.f64(h.t);
            w.u8(regime_tag(h.to));
            w.f64(h.pop);
        }
        match &self.sim {
            Some(sim) => {
                w.u8(1);
                let engine = sim.snapshot().to_bytes();
                w.u64(engine.len() as u64);
                w.bytes(&engine);
            }
            None => w.u8(0),
        }
        w.seal()
    }

    /// Rebuilds a runner from `cfg` and a snapshot taken by an identical
    /// config; stepping on is bit-identical to never having stopped.
    ///
    /// # Errors
    /// Typed [`HybridError::Snapshot`] on truncation, checksum or digest
    /// mismatch, bad magic, or a version other than
    /// [`HYBRID_SNAPSHOT_VERSION`] (engine v5/v6 files included);
    /// propagates embedded-engine restore failures.
    pub fn resume(cfg: HybridConfig, bytes: &[u8]) -> Result<Self, HybridError> {
        let (version, mut r) = codec::open(bytes)?;
        if version != HYBRID_SNAPSHOT_VERSION {
            return Err(HybridError::Snapshot(format!(
                "version {version}, expected {HYBRID_SNAPSHOT_VERSION}"
            )));
        }
        if r.u64()? != config_digest(&cfg) {
            return Err(HybridError::Snapshot(
                "config digest mismatch (snapshot from a different run)".into(),
            ));
        }
        let mut runner = Self::new(cfg)?;
        runner.t = r.f64()?;
        runner.regime = read_regime(&mut r)?;
        runner.seg_t0 = r.f64()?;
        runner.seg_seed = r.u64()?;
        runner.segment = r.u64()?;
        runner.next_boundary = r.u64()? as usize;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.u64()?;
        }
        runner.rng_handoff = Xoshiro256StarStar::from_state(rng_state);
        runner.des_events = r.u64()?;
        runner.fluid_steps = r.u64()?;
        read_count(&mut r, runner.integrals.len(), "integral count")?;
        for slot in &mut runner.integrals {
            *slot = r.f64()?;
        }
        read_count(&mut r, runner.fluid.len(), "fluid dimension")?;
        for slot in &mut runner.fluid {
            *slot = r.f64()?;
        }
        let n_handoffs = r.u32()? as usize;
        runner.handoffs = Vec::with_capacity(n_handoffs);
        for _ in 0..n_handoffs {
            let t = r.f64()?;
            let to = read_regime(&mut r)?;
            let pop = r.f64()?;
            runner.handoffs.push(HandoffRecord { t, to, pop });
        }
        if r.u8()? == 1 {
            let len = r.u64()? as usize;
            let snap = Snapshot::from_bytes(r.take(len)?)
                .map_err(|e| HybridError::Snapshot(format!("embedded engine: {e}")))?;
            let seg_cfg = segment_config(runner.config(), runner.seg_t0, runner.seg_seed)?;
            let hook = Box::new(ShiftedHook::new(
                runner.config().program.hook(),
                runner.seg_t0,
            ));
            runner.sim = Some(Simulation::restore_with_hook(seg_cfg, &snap, hook)?);
        }
        Ok(runner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::amplified_flash_crowd;
    use btfluid_des::SchemeKind;

    fn cfg() -> HybridConfig {
        HybridConfig {
            program: amplified_flash_crowd(512.0, 0.005),
            scheme: SchemeKind::Mtcd,
            seed: 17,
            tol: 0.1,
            aggregate: true,
        }
    }

    #[test]
    fn corrupt_and_mismatched_snapshots_yield_typed_errors() {
        let runner = HybridRunner::new(cfg()).unwrap();
        let bytes = runner.snapshot();

        assert!(matches!(
            HybridRunner::resume(cfg(), b"BTFSgarbage"),
            Err(HybridError::Snapshot(_))
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            HybridRunner::resume(cfg(), &flipped),
            Err(HybridError::Snapshot(_))
        ));
        let mut other = cfg();
        other.seed = 18;
        assert!(matches!(
            HybridRunner::resume(other, &bytes),
            Err(HybridError::Snapshot(_))
        ));
        // Engine v5/v6 frames share the magic but not the version.
        for aggregate in [false, true] {
            let mut engine = Simulation::new(btfluid_des::DesConfig {
                aggregate,
                ..segment_config(&cfg(), 0.0, 5).unwrap()
            })
            .unwrap();
            assert!(engine.step().unwrap());
            let engine = engine.snapshot().to_bytes();
            assert!(matches!(
                HybridRunner::resume(cfg(), &engine),
                Err(HybridError::Snapshot(_))
            ));
        }
        // ...and the engine decoder refuses a hybrid frame by its version.
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            btfluid_des::SnapshotError::UnsupportedVersion(HYBRID_SNAPSHOT_VERSION)
        );
        // The pristine bytes restore fine.
        assert!(HybridRunner::resume(cfg(), &bytes).is_ok());
    }
}
