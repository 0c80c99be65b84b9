//! End-to-end exercises of the fault-injection seam against the harness
//! write paths. The injector is process-global, so everything runs inside
//! one `#[test]` — integration tests get their own process, keeping the
//! armed scripts away from the crate's unit tests.

use btfluid_des::{DesConfig, SchemeKind, Simulation};
use btfluid_harness::{
    checkpoint, drive, manifest, CellRecord, CellStatus, CheckpointPlan, Checkpointer,
    HarnessError, ManifestWriter, ReproBundle, RetryPolicy, RunEnd, RunLimits, Start,
};
use btfluid_hybrid::{amplified_flash_crowd, HybridConfig, HybridRunner};
use btfluid_telemetry::faults::{self, FaultKind, FaultRule, FaultScript, FaultSite};
use std::path::PathBuf;

fn cfg(seed: u64) -> DesConfig {
    let mut cfg = DesConfig::paper_small(SchemeKind::Mtcd, 0.5, seed).unwrap();
    cfg.horizon = 400.0;
    cfg.warmup = 100.0;
    cfg.drain = 400.0;
    cfg
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("btfs-chaos-inj-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn rule(site: FaultSite, kind: FaultKind, from_op: u64, count: u64) -> FaultRule {
    FaultRule {
        site,
        kind,
        from_op,
        count,
    }
}

fn plan(path: Option<PathBuf>) -> CheckpointPlan {
    CheckpointPlan {
        path,
        every_events: 64,
        retry: RetryPolicy::immediate(),
    }
}

#[test]
fn injected_faults_degrade_gracefully_and_never_change_results() {
    // --- 1. Permanent ENOSPC on every checkpoint write: the run must
    // degrade (disable checkpointing, count failures) and still finish
    // with results bit-identical to an uninterrupted run.
    let straight = Simulation::new(cfg(21)).unwrap().run();
    let path = tmp("degrade.snap");
    let _ = std::fs::remove_file(&path);
    faults::arm(FaultScript {
        rules: vec![rule(
            FaultSite::CheckpointWrite,
            FaultKind::Enospc,
            0,
            u64::MAX,
        )],
    });
    let report = drive(
        cfg(21),
        None,
        Some(&plan(Some(path.clone()))),
        Start::Fresh,
        &RunLimits::default(),
        None,
        None,
        None,
    );
    faults::disarm();
    let report = report.unwrap();
    assert_eq!(report.end, RunEnd::Completed);
    assert!(
        report.degraded,
        "permanent failure must disable checkpoints"
    );
    assert!(report.checkpoint_failures >= u64::from(RetryPolicy::immediate().degrade_after));
    assert_eq!(report.checkpoints, 0);
    assert!(faults::checkpoint_failure_count() > 0);
    assert!(faults::checkpoint_degraded_count() > 0);
    let outcome = report.outcome.unwrap();
    assert_eq!(straight.events, outcome.events);
    assert_eq!(straight.records, outcome.records);
    assert_eq!(straight.aborts, outcome.aborts);
    assert!(!path.exists());

    // --- 2. Transient EIO (two failed attempts, third succeeds): the
    // retry policy absorbs it inside one cycle — no recorded failures, no
    // degradation, checkpoints written as normal.
    let path = tmp("transient.snap");
    let _ = std::fs::remove_file(&path);
    faults::arm(FaultScript {
        rules: vec![rule(FaultSite::CheckpointWrite, FaultKind::Eio, 0, 2)],
    });
    let report = drive(
        cfg(22),
        None,
        Some(&plan(Some(path.clone()))),
        Start::Fresh,
        &RunLimits::default(),
        None,
        None,
        None,
    );
    faults::disarm();
    let report = report.unwrap();
    assert_eq!(report.end, RunEnd::Completed);
    assert!(!report.degraded);
    assert_eq!(report.checkpoint_failures, 0, "retries absorb transients");
    assert!(report.checkpoints > 0);

    // --- 3. Rename failure behaves like a write failure: the temp file
    // is cleaned up and the committed checkpoint (if any) is untouched.
    let path = tmp("rename.snap");
    let _ = std::fs::remove_file(&path);
    faults::arm(FaultScript {
        rules: vec![rule(
            FaultSite::CheckpointRename,
            FaultKind::RenameFail,
            0,
            u64::MAX,
        )],
    });
    let report = drive(
        cfg(23),
        None,
        Some(&plan(Some(path.clone()))),
        Start::Fresh,
        &RunLimits::default(),
        None,
        None,
        None,
    );
    faults::disarm();
    let report = report.unwrap();
    assert_eq!(report.end, RunEnd::Completed);
    assert!(report.degraded);
    let mut stale = path.as_os_str().to_owned();
    stale.push(".tmp");
    assert!(
        !PathBuf::from(stale).exists(),
        "failed rename must not leave the temp file behind"
    );

    // --- 4. Short write on the manifest creates a real torn line; load
    // tolerates it and reopening repairs the tail before appending.
    let journal = tmp("torn-manifest.jsonl");
    let _ = std::fs::remove_file(&journal);
    let record = CellRecord {
        id: "cell-a".into(),
        status: CellStatus::Done,
        attempts: 1,
        events: 10,
        wall_ms: 1,
        counters: None,
        detail: "ok".into(),
    };
    let mut w = ManifestWriter::open(&journal).unwrap();
    w.append(&record).unwrap();
    faults::arm(FaultScript {
        rules: vec![rule(FaultSite::ManifestAppend, FaultKind::ShortWrite, 0, 1)],
    });
    let torn = w.append(&CellRecord {
        id: "cell-b".into(),
        ..record.clone()
    });
    faults::disarm();
    assert!(matches!(torn, Err(HarnessError::Io { .. })));
    drop(w);
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(!text.ends_with('\n'), "short write must leave a torn tail");
    let records = manifest::load(&journal).unwrap();
    assert_eq!(records.len(), 1, "torn tail is skipped, not fatal");
    let mut w = ManifestWriter::open(&journal).unwrap();
    w.append(&CellRecord {
        id: "cell-c".into(),
        ..record.clone()
    })
    .unwrap();
    drop(w);
    let ids: Vec<String> = manifest::load(&journal)
        .unwrap()
        .into_iter()
        .map(|r| r.id)
        .collect();
    assert_eq!(ids, ["cell-a", "cell-c"]);

    // --- 5. ENOSPC on a bundle write surfaces as a typed I/O error.
    let dir = tmp("bundle-enospc");
    let bundle = ReproBundle {
        cell_id: "cell-x".into(),
        reason: "test".into(),
        cfg: cfg(24),
        scenario: None,
        inject_panic_at: None,
        checkpoint: None,
        flight: None,
    };
    faults::arm(FaultScript {
        rules: vec![rule(FaultSite::BundleWrite, FaultKind::Enospc, 0, u64::MAX)],
    });
    let write = bundle.write(&dir);
    faults::disarm();
    assert!(matches!(write, Err(HarnessError::Io { .. })));

    // --- 6. atomic_write + CorruptWrite commits silently-poisoned bytes
    // (no error): the lying-disk case only read-time checksums catch.
    let path = tmp("corrupt.bin");
    faults::arm(FaultScript {
        rules: vec![rule(
            FaultSite::CheckpointWrite,
            FaultKind::CorruptWrite,
            0,
            1,
        )],
    });
    checkpoint::atomic_write(&path, b"0123456789").unwrap();
    faults::disarm();
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(on_disk.len(), 10);
    assert_ne!(on_disk, b"0123456789", "corrupt write must flip a byte");

    // --- 7. Hybrid checkpoints follow the same policy: under permanent
    // ENOSPC the hybrid loop's Checkpointer degrades after
    // `degrade_after` failed cycles, and the class means stay
    // bit-identical to an unarmed run.
    let hybrid = HybridConfig {
        program: amplified_flash_crowd(512.0, 0.005),
        scheme: SchemeKind::Mtsd,
        seed: 21,
        tol: 0.1,
        aggregate: false,
    };
    let unarmed = HybridRunner::run(hybrid.clone()).unwrap();
    let path = tmp("degrade.hsnap");
    let _ = std::fs::remove_file(&path);
    let degraded_before = faults::checkpoint_degraded_count();
    faults::arm(FaultScript {
        rules: vec![rule(
            FaultSite::CheckpointWrite,
            FaultKind::Enospc,
            0,
            u64::MAX,
        )],
    });
    let mut runner = HybridRunner::new(hybrid).unwrap();
    let mut ckpt = Checkpointer::new(Some(path.clone()), RetryPolicy::immediate());
    let mut boundaries = 0u64;
    while runner.step_boundary().unwrap() {
        boundaries += 1;
        if ckpt.active() {
            ckpt.write(&runner.snapshot(), boundaries);
        }
    }
    faults::disarm();
    assert!(
        ckpt.degraded(),
        "permanent failure must disable checkpoints"
    );
    assert_eq!(ckpt.written(), 0);
    assert_eq!(
        ckpt.failures(),
        u64::from(RetryPolicy::immediate().degrade_after)
    );
    assert!(faults::checkpoint_degraded_count() > degraded_before);
    assert!(!path.exists());
    let armed = runner.finish();
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&unarmed.class_means), bits(&armed.class_means));
    assert_eq!(unarmed, armed);
}
