//! The resumable run driver and the one checkpoint write/restore policy.
//!
//! [`Checkpointer`] owns what every checkpointing loop needs from disk:
//! atomic writes ([`atomic_write`]: temp file, fsync, rename), bounded
//! retry with backoff, degradation after repeated failures, the restore
//! read, and deletion on completion. [`drive`] is the DES loop built on
//! it: start fresh, from the checkpoint file, or from an in-memory
//! snapshot ([`Start`]), step the engine `every_events` at a time,
//! checkpoint after each chunk, and honor cooperative limits — an event
//! budget, a wall-clock deadline, a cancel flag — checked at chunk
//! granularity. The hybrid driver's CLI loop and the chaos executor use
//! the same [`Checkpointer`] for its snapshot bytes. A kill at any instant
//! leaves either the previous checkpoint or the new one, never a torn
//! file, and a leftover checkpoint always means "this run did not finish".

use crate::error::{io_err, HarnessError};
use btfluid_des::{
    DesConfig, FlightKind, Probe, ProfileTable, Profiler, ScenarioHook, SimOutcome, Simulation,
    Snapshot, SnapshotError,
};
use btfluid_numkit::rng::{RngCore, SplitMix64};
use btfluid_telemetry::faults::{self, FaultSite, WritePlan};
use btfluid_telemetry::profiler::Phase as ProfPhase;
use btfluid_telemetry::{diag, Level};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Atomically replaces `path` with `bytes`: write `<path>.tmp`, fsync,
/// rename over the destination. A kill at any instant leaves either the
/// old file or the new one, never a torn write. This is the workspace's
/// only checkpoint writer (engine v5/v6 and hybrid v4 snapshots alike,
/// through [`Checkpointer`]); flight dumps and other whole-file artifacts
/// use it too.
///
/// Both steps pass through the chaos injection seam
/// ([`btfluid_telemetry::faults`]) under the checkpoint sites, so a
/// scripted ENOSPC/EIO/short-write/rename failure surfaces here exactly
/// like the real one would.
///
/// # Errors
/// Propagates the underlying filesystem errors; on failure the temp file
/// is removed best-effort and `path` is untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let write = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        match faults::write_plan(FaultSite::CheckpointWrite, bytes.len()) {
            WritePlan::Full => std::io::Write::write_all(&mut file, bytes)?,
            WritePlan::Short(n, e) => {
                let _ = std::io::Write::write_all(&mut file, &bytes[..n]);
                return Err(e);
            }
            WritePlan::Fail(e) => return Err(e),
            WritePlan::Corrupt => {
                // Silent corruption: commit a byte-flipped copy with no
                // error — the lying-firmware case only read-time
                // checksums can catch.
                let mut poisoned = bytes.to_vec();
                let mid = poisoned.len() / 2;
                if let Some(b) = poisoned.get_mut(mid) {
                    *b ^= 0x40;
                }
                std::io::Write::write_all(&mut file, &poisoned)?;
            }
        }
        file.sync_all()?;
        if let Some(kind) = faults::intercept(FaultSite::CheckpointRename) {
            return Err(kind.to_io_error());
        }
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

/// Removes a leftover `<path>.tmp` from a write interrupted between the
/// temp-file write and the rename (checkpoints, traces, hybrid v4
/// snapshots — every atomic writer in the workspace uses the same
/// discipline). Returns whether a stale file was actually removed.
///
/// The temp file is never a valid resume source (the rename is the commit
/// point), so cleaning it up beats letting the next atomic write trip
/// over it or an operator mistaking it for state.
pub fn clean_stale_tmp(path: &Path) -> bool {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    if tmp.exists() {
        diag!(
            Level::Warn,
            "removing leftover temp file {} (interrupted mid-write)",
            tmp.display()
        );
        let _ = std::fs::remove_file(&tmp);
        return true;
    }
    false
}

/// Bounded retry with exponential backoff for transient checkpoint I/O
/// failures, plus the graceful-degradation threshold: after
/// `degrade_after` *consecutive* failed write cycles (each cycle already
/// containing `max_attempts` backed-off tries) the driver stops
/// checkpointing entirely, bumps the process-wide
/// [`faults::checkpoint_degraded_count`] tally, warns once, and lets the
/// run finish on the engine's in-memory state — a correct result beats a
/// dead run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Write attempts per checkpoint cycle (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt after that.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Consecutive failed cycles before checkpointing is disabled.
    pub degrade_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(400),
            degrade_after: 3,
        }
    }
}

impl RetryPolicy {
    /// A no-sleep variant for tests and chaos sweeps, where hundreds of
    /// injected failures must not stack real wall-clock backoff.
    pub fn immediate() -> Self {
        Self {
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            ..Self::default()
        }
    }

    /// Backoff before retry `attempt` (1-based): `base * 2^(attempt-1)`
    /// capped at `max_backoff`, plus a deterministic jitter in
    /// `[0, base/2)` drawn from a SplitMix64 stream seeded by `salt` —
    /// reruns of the same failing run back off identically, so chaos
    /// verdicts stay bit-reproducible.
    fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.max_backoff);
        let half_base = (self.base_backoff.as_micros() as u64 / 2).max(1);
        let jitter = SplitMix64::new(salt ^ u64::from(attempt)).next_u64() % half_base;
        capped + Duration::from_micros(jitter)
    }

    /// Runs one checkpoint write cycle: up to `max_attempts` tries with
    /// backed-off sleeps between them.
    fn write_cycle(&self, path: &Path, bytes: &[u8], salt: u64) -> std::io::Result<()> {
        let mut attempt = 0u32;
        loop {
            match atomic_write(path, bytes) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.max_attempts.max(1) {
                        return Err(e);
                    }
                    let pause = self.backoff(attempt, salt);
                    diag!(
                        Level::Warn,
                        "checkpoint write to {} failed ({e}); retry {attempt}/{} in {:?}",
                        path.display(),
                        self.max_attempts.max(1) - 1,
                        pause
                    );
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
            }
        }
    }
}

/// Where and how often to checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// Checkpoint file; `None` disables on-disk checkpoints (the
    /// in-memory observer still fires).
    pub path: Option<PathBuf>,
    /// Snapshot after this many engine events (> 0).
    pub every_events: u64,
    /// Retry/backoff/degradation policy for checkpoint write failures.
    pub retry: RetryPolicy,
}

/// The checkpoint write/restore policy for one run, whatever engine
/// produces the bytes.
///
/// Checkpointing is a pure observer of the run: a failed write never
/// changes the result and never stops the run. Each [`Checkpointer::write`]
/// is one cycle of up to [`RetryPolicy::max_attempts`] backed-off
/// [`atomic_write`]s; a failed cycle warns with the path and counts, and
/// after [`RetryPolicy::degrade_after`] consecutive failed cycles
/// checkpointing disables itself (warning once) and the run finishes on
/// its in-memory state.
#[derive(Debug)]
pub struct Checkpointer {
    path: Option<PathBuf>,
    retry: RetryPolicy,
    written: u64,
    failures: u64,
    consecutive: u32,
    degraded: bool,
}

impl Checkpointer {
    /// Checkpoints to `path` (`None`: nowhere) under `retry`. A leftover
    /// `<path>.tmp` from a write interrupted before its rename is removed
    /// first: it is never a valid resume source.
    pub fn new(path: Option<PathBuf>, retry: RetryPolicy) -> Self {
        if let Some(path) = &path {
            clean_stale_tmp(path);
        }
        Self {
            path,
            retry,
            written: 0,
            failures: 0,
            consecutive: 0,
            degraded: false,
        }
    }

    /// Whether [`Checkpointer::write`] would touch the disk: a path is set
    /// and checkpointing has not degraded. Lets callers skip encoding.
    pub fn active(&self) -> bool {
        self.path.is_some() && !self.degraded
    }

    /// The committed checkpoint's bytes — the restore source — or `None`
    /// when no path is set or no checkpoint exists yet.
    ///
    /// # Errors
    /// A checkpoint that exists but cannot be read is a snapshot error
    /// ([`SnapshotError::Io`]), like one that fails to decode.
    pub fn load(&self) -> Result<Option<Vec<u8>>, HarnessError> {
        let Some(path) = &self.path else {
            return Ok(None);
        };
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(SnapshotError::Io(format!("{}: {e}", path.display())).into()),
        }
    }

    /// One write cycle of `bytes`; `salt` seeds the backoff jitter (pass
    /// a run-progress count so reruns back off identically). Returns
    /// whether the checkpoint was committed; a no-op returning `false`
    /// when not [`Checkpointer::active`].
    pub fn write(&mut self, bytes: &[u8], salt: u64) -> bool {
        let Some(path) = self.path.as_deref().filter(|_| !self.degraded) else {
            return false;
        };
        match self.retry.write_cycle(path, bytes, salt) {
            Ok(()) => {
                self.written += 1;
                self.consecutive = 0;
                true
            }
            Err(e) => {
                self.failures += 1;
                self.consecutive += 1;
                faults::note_checkpoint_failure();
                diag!(
                    Level::Warn,
                    "checkpoint write to {} failed after {} attempt(s): {e}; run continues",
                    path.display(),
                    self.retry.max_attempts.max(1)
                );
                if self.consecutive >= self.retry.degrade_after.max(1) {
                    self.degraded = true;
                    faults::note_checkpoint_degraded();
                    diag!(
                        Level::Warn,
                        "disabling checkpoints after {} consecutive failed cycles; \
                         run continues without crash protection",
                        self.consecutive
                    );
                }
                false
            }
        }
    }

    /// Deletes the checkpoint once its run has completed: a finished run
    /// must not leave one behind, since its presence is the "work
    /// remains" signal for a resume.
    ///
    /// # Errors
    /// [`HarnessError::Io`] when an existing checkpoint cannot be removed.
    pub fn complete(&self) -> Result<(), HarnessError> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(path, e)),
        }
    }

    /// Checkpoints committed to disk.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Write cycles that failed even after retries.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Whether checkpointing disabled itself after repeated failures.
    pub fn degraded(&self) -> bool {
        self.degraded
    }
}

/// Where [`drive`] starts the engine.
#[derive(Debug, Clone, Copy)]
pub enum Start<'a> {
    /// A fresh run from `t = 0`.
    Fresh,
    /// From the plan's checkpoint file when one exists, else fresh.
    Resume,
    /// From an in-memory snapshot (a repro bundle's last checkpoint).
    Snapshot(&'a Snapshot),
}

/// Cooperative limits, checked between chunks (and the panic injection,
/// checked per event so it is exact).
#[derive(Debug, Default)]
pub struct RunLimits {
    /// Stop once the engine's *total* event count (which survives resume)
    /// reaches this.
    pub max_events: Option<u64>,
    /// Stop after this instant.
    pub deadline: Option<Instant>,
    /// Deterministically panic when the event count reaches this value —
    /// fault injection for the crash-recovery tests and CI smoke.
    pub inject_panic_at: Option<u64>,
    /// Run with the calibrated self-profiler; its per-phase table comes
    /// back in [`RunReport::profile`]. Wall-clock observation only.
    pub profile: bool,
}

/// Why the driver returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// The simulation ran to completion; the outcome is final.
    Completed,
    /// The event budget was reached first.
    EventBudget,
    /// The wall-clock deadline passed first.
    WallBudget,
    /// The cancel flag was raised (watchdog or operator).
    Cancelled,
}

/// The driver's result.
#[derive(Debug)]
pub struct RunReport {
    /// The finished outcome — `None` unless [`RunEnd::Completed`].
    pub outcome: Option<SimOutcome>,
    /// How the run ended.
    pub end: RunEnd,
    /// Total engine events executed (including any resumed-from prefix).
    pub events: u64,
    /// Whether the run started from a checkpoint (file or snapshot).
    pub resumed: bool,
    /// Checkpoints written to disk.
    pub checkpoints: u64,
    /// Checkpoint write cycles that failed even after retries. Failures
    /// never kill the run — checkpointing is a pure observer.
    pub checkpoint_failures: u64,
    /// Whether checkpointing was disabled mid-run after
    /// [`RetryPolicy::degrade_after`] consecutive failed cycles.
    pub degraded: bool,
    /// The self-profiler's table when [`RunLimits::profile`] was set.
    pub profile: Option<ProfileTable>,
    /// Wall time of the step loop, checkpoints included — the `engine`
    /// span the probe receives.
    pub wall: Duration,
}

/// Runs `cfg` under the plan and limits.
///
/// `hooks` supplies the scenario hook: called once for a fresh start or a
/// restore (the engine consumes the box), so pass a factory, not a value.
/// `start` picks the starting state (see [`Start`]). On a non-`Completed`
/// end a final checkpoint is written (when a path is configured) so the
/// next invocation loses no work.
///
/// `probe` attaches a telemetry probe to the engine. The driver feeds it
/// `checkpoint` spans and per-checkpoint byte/time accounting (via
/// [`Simulation::note_snapshot`]) on top of the engine's own samples, and
/// an `engine` span covering the whole drive on completion. Probes only
/// observe — attaching one never changes the run's results.
///
/// # Errors
/// Engine and snapshot errors ([`HarnessError::Engine`]), filesystem
/// failures ([`HarnessError::Io`]), and invalid plans
/// ([`HarnessError::Config`]).
///
/// # Panics
/// Panics deliberately when `limits.inject_panic_at` fires; engine bugs
/// outside `checked` mode may also panic. Callers that must survive either
/// wrap the call in `catch_unwind` (the supervisor does).
#[allow(clippy::too_many_arguments)]
pub fn drive(
    cfg: DesConfig,
    hook_factory: Option<&dyn Fn() -> Box<dyn ScenarioHook>>,
    plan: Option<&CheckpointPlan>,
    start: Start<'_>,
    limits: &RunLimits,
    cancel: Option<&AtomicBool>,
    mut on_snapshot: Option<&mut dyn FnMut(&Snapshot)>,
    probe: Option<Box<dyn Probe>>,
) -> Result<RunReport, HarnessError> {
    if let Some(plan) = plan {
        if plan.every_events == 0 {
            return Err(HarnessError::Config(
                "checkpoint interval must be at least 1 event".into(),
            ));
        }
    }
    let mut ckpt = Checkpointer::new(
        plan.and_then(|p| p.path.clone()),
        plan.map_or_else(RetryPolicy::default, |p| p.retry),
    );
    let on_disk = match start {
        Start::Resume => ckpt.load()?.map(|b| Snapshot::from_bytes(&b)).transpose()?,
        _ => None,
    };
    let from = match start {
        Start::Snapshot(snap) => Some(snap),
        _ => on_disk.as_ref(),
    };
    let mut sim = match (from, hook_factory) {
        (Some(snap), Some(make)) => Simulation::restore_with_hook(cfg, snap, make())?,
        (Some(snap), None) => Simulation::restore(cfg, snap)?,
        (None, Some(make)) => Simulation::with_hook(cfg, make())?,
        (None, None) => Simulation::new(cfg)?,
    };
    if let Some(probe) = probe {
        sim.attach_probe(probe);
    }
    if limits.profile {
        sim.enable_profiler(Profiler::calibrated());
    }
    let resumed = from.is_some();
    let chunk = plan.map_or(u64::MAX, |p| p.every_events);
    let mut next_checkpoint = sim.events().saturating_add(chunk);
    let drive_start = Instant::now();

    let mut take_snapshot = |sim: &mut Simulation, ckpt: &mut Checkpointer| {
        let started = Instant::now();
        let snap = sim.snapshot();
        let mut encode_ns = started.elapsed().as_nanos() as u64;
        if let Some(cb) = on_snapshot.as_mut() {
            cb(&snap);
        }
        if !ckpt.active() {
            return;
        }
        let encode_started = Instant::now();
        let bytes = snap.to_bytes();
        encode_ns += encode_started.elapsed().as_nanos() as u64;
        sim.profiler_add(ProfPhase::SnapshotEncode, encode_ns);
        if ckpt.write(&bytes, snap.events() ^ 0x5eed_c0de) {
            let micros = started.elapsed().as_micros() as u64;
            sim.note_snapshot(bytes.len() as u64, micros);
            sim.emit_span("checkpoint", micros);
            sim.emit_flight(FlightKind::Checkpoint, bytes.len() as u64, 0);
        }
    };

    let end = loop {
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            break RunEnd::Cancelled;
        }
        if limits.deadline.is_some_and(|d| Instant::now() >= d) {
            break RunEnd::WallBudget;
        }
        if limits.max_events.is_some_and(|n| sim.events() >= n) {
            break RunEnd::EventBudget;
        }
        if limits.inject_panic_at.is_some_and(|n| sim.events() >= n) {
            panic!(
                "injected panic at event {} (t = {:.3})",
                sim.events(),
                sim.sim_time()
            );
        }
        if !sim.step()? {
            break RunEnd::Completed;
        }
        if sim.events() >= next_checkpoint {
            take_snapshot(&mut sim, &mut ckpt);
            next_checkpoint = sim.events().saturating_add(chunk);
        }
    };

    if end != RunEnd::Completed {
        // Interrupted: persist the frontier so nothing is lost.
        take_snapshot(&mut sim, &mut ckpt);
    }
    let events = sim.events();
    let wall = drive_start.elapsed();
    sim.emit_span("engine", wall.as_micros() as u64);
    let profile = sim.profiler_table();
    let outcome = (end == RunEnd::Completed).then(|| sim.finish());
    if outcome.is_some() {
        ckpt.complete()?;
    }
    Ok(RunReport {
        outcome,
        end,
        events,
        resumed,
        checkpoints: ckpt.written(),
        checkpoint_failures: ckpt.failures(),
        degraded: ckpt.degraded(),
        profile,
        wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_des::SchemeKind;

    fn cfg(seed: u64) -> DesConfig {
        let mut cfg = DesConfig::paper_small(SchemeKind::Mtcd, 0.5, seed).unwrap();
        cfg.horizon = 400.0;
        cfg.warmup = 100.0;
        cfg.drain = 400.0;
        cfg
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("btfs-driver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn budget_stop_then_resume_is_bit_identical() {
        let straight = Simulation::new(cfg(5)).unwrap().run();

        let path = tmp("budget.snap");
        let _ = std::fs::remove_file(&path);
        let plan = CheckpointPlan {
            path: Some(path.clone()),
            every_events: 64,
            retry: RetryPolicy::immediate(),
        };
        let limits = RunLimits {
            max_events: Some(333),
            ..Default::default()
        };
        let first = drive(
            cfg(5),
            None,
            Some(&plan),
            Start::Resume,
            &limits,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(first.end, RunEnd::EventBudget);
        assert!(first.outcome.is_none());
        assert!(path.exists(), "interrupted run must leave a checkpoint");

        let second = drive(
            cfg(5),
            None,
            Some(&plan),
            Start::Resume,
            &RunLimits::default(),
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(second.end, RunEnd::Completed);
        assert!(second.resumed);
        assert!(!path.exists(), "completion must remove the checkpoint");
        let resumed = second.outcome.unwrap();
        assert_eq!(straight.events, resumed.events);
        assert_eq!(straight.records, resumed.records);
        assert_eq!(straight.aborts, resumed.aborts);
    }

    #[test]
    fn resume_cleans_leftover_tmp_from_interrupted_rename() {
        // A SIGKILL between writing `<path>.tmp` and the rename leaves the
        // temp file on disk next to the (older, still-valid) checkpoint.
        // Resume must ignore the partial temp file, clean it up, and
        // continue bit-identically from the committed checkpoint.
        let straight = Simulation::new(cfg(11)).unwrap().run();

        let path = tmp("stale-tmp.snap");
        let _ = std::fs::remove_file(&path);
        let plan = CheckpointPlan {
            path: Some(path.clone()),
            every_events: 64,
            retry: RetryPolicy::immediate(),
        };
        let limits = RunLimits {
            max_events: Some(333),
            ..Default::default()
        };
        let first = drive(
            cfg(11),
            None,
            Some(&plan),
            Start::Resume,
            &limits,
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(first.end, RunEnd::EventBudget);
        assert!(path.exists());

        // Simulate the interrupted mid-rename write: garbage in `.tmp`.
        let mut stale = path.as_os_str().to_owned();
        stale.push(".tmp");
        let stale = PathBuf::from(stale);
        std::fs::write(&stale, b"partial snapshot, crash before rename").unwrap();

        let second = drive(
            cfg(11),
            None,
            Some(&plan),
            Start::Resume,
            &RunLimits::default(),
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(second.end, RunEnd::Completed);
        assert!(second.resumed, "must resume from the committed checkpoint");
        assert!(!stale.exists(), "leftover .tmp must be cleaned up");
        assert!(!path.exists(), "completion must remove the checkpoint");
        let resumed = second.outcome.unwrap();
        assert_eq!(straight.events, resumed.events);
        assert_eq!(straight.records, resumed.records);
    }

    #[test]
    fn cancel_flag_stops_promptly() {
        let cancel = AtomicBool::new(true);
        let report = drive(
            cfg(6),
            None,
            None,
            Start::Fresh,
            &RunLimits::default(),
            Some(&cancel),
            None,
            None,
        )
        .unwrap();
        assert_eq!(report.end, RunEnd::Cancelled);
    }

    #[test]
    fn snapshot_observer_sees_chunks() {
        let mut seen = 0u64;
        let mut last_events = 0u64;
        let plan = CheckpointPlan {
            path: None,
            every_events: 100,
            retry: RetryPolicy::immediate(),
        };
        let mut observe = |snap: &Snapshot| {
            seen += 1;
            last_events = snap.events();
        };
        let report = drive(
            cfg(7),
            None,
            Some(&plan),
            Start::Fresh,
            &RunLimits::default(),
            None,
            Some(&mut observe),
            None,
        )
        .unwrap();
        assert_eq!(report.end, RunEnd::Completed);
        assert_eq!(report.checkpoints, 0, "no path, nothing written");
        assert!(seen > 1, "observer should fire once per chunk");
        assert!(last_events > 0);
    }

    #[test]
    fn injected_panic_fires_exactly() {
        let limits = RunLimits {
            inject_panic_at: Some(50),
            ..Default::default()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(cfg(8), None, None, Start::Fresh, &limits, None, None, None)
        }));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("injected panic at event 50"), "{msg}");
    }

    /// The profiler observes only: a profiled drive returns its table and
    /// the same outcome as an unprofiled one.
    #[test]
    fn profiled_drive_returns_its_table() {
        let limits = RunLimits {
            profile: true,
            ..Default::default()
        };
        let profiled = drive(cfg(9), None, None, Start::Fresh, &limits, None, None, None).unwrap();
        let bare = drive(
            cfg(9),
            None,
            None,
            Start::Fresh,
            &RunLimits::default(),
            None,
            None,
            None,
        );
        let bare = bare.unwrap();
        let table = profiled.profile.expect("profile requested");
        assert_eq!(table.events, profiled.events);
        assert!(bare.profile.is_none());
        let (a, b) = (profiled.outcome.unwrap(), bare.outcome.unwrap());
        assert_eq!(a.events, b.events);
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.departure.to_bits(), y.departure.to_bits());
        }
    }

    #[test]
    fn zero_interval_is_refused() {
        let plan = CheckpointPlan {
            path: None,
            every_events: 0,
            retry: RetryPolicy::immediate(),
        };
        assert!(matches!(
            drive(
                cfg(9),
                None,
                Some(&plan),
                Start::Fresh,
                &RunLimits::default(),
                None,
                None,
                None
            ),
            Err(HarnessError::Config(_))
        ));
    }

    #[test]
    fn probe_sees_checkpoint_spans_and_snapshot_accounting() {
        use btfluid_des::MemoryProbe;
        use std::sync::{Arc, Mutex};

        // MemoryProbe is consumed by the engine; share its observations
        // out through a forwarding probe.
        #[derive(Default)]
        struct Shared {
            spans: Vec<(String, u64)>,
            finished: Option<btfluid_des::Counters>,
        }
        struct Fwd(Arc<Mutex<Shared>>, MemoryProbe);
        impl Probe for Fwd {
            fn sample_every(&self) -> f64 {
                self.1.sample_every()
            }
            fn on_span(&mut self, name: &str, micros: u64) {
                self.0.lock().unwrap().spans.push((name.into(), micros));
            }
            fn on_finish(&mut self, _t: f64, counters: &btfluid_des::Counters) {
                self.0.lock().unwrap().finished = Some(*counters);
            }
        }

        let path = tmp("probed.snap");
        let _ = std::fs::remove_file(&path);
        let plan = CheckpointPlan {
            path: Some(path.clone()),
            every_events: 64,
            retry: RetryPolicy::immediate(),
        };
        let shared = Arc::new(Mutex::new(Shared::default()));
        let report = drive(
            cfg(11),
            None,
            Some(&plan),
            Start::Fresh,
            &RunLimits::default(),
            None,
            None,
            Some(Box::new(Fwd(Arc::clone(&shared), MemoryProbe::new(10.0)))),
        )
        .unwrap();
        assert_eq!(report.end, RunEnd::Completed);
        assert!(report.checkpoints > 0);
        let shared = shared.lock().unwrap();
        let n_ckpt_spans = shared
            .spans
            .iter()
            .filter(|(name, _)| name == "checkpoint")
            .count();
        assert_eq!(n_ckpt_spans as u64, report.checkpoints);
        assert!(
            shared.spans.iter().any(|(name, _)| name == "engine"),
            "completed drive emits an engine span"
        );
        let counters = shared.finished.expect("probe sees finish");
        assert_eq!(counters.snapshots_taken, report.checkpoints);
        assert!(counters.snapshot_bytes > 0);
        assert!(counters.events_popped > 0);
    }
}
