//! Agreement of the virtual-clock rate cache with the per-download engine
//! it replaced.
//!
//! The fixtures under `fixtures/clock_agreement/` were recorded from the
//! engine that settled every download on every rate change and armed one
//! deadline per download: for each scheme, the completion stream
//! `(user id, slot, time bits)` of one small run, and the mean online time
//! per file over 20 seeds with its standard error. The clock engine
//! computes the same quantities along a different floating-point path, so
//! it must reproduce the stream's order up to the first near-tie, with
//! times within 1e-9 relative up to that point, and the means within
//! three standard errors.

use btfluid_core::adapt::AdaptConfig;
use btfluid_des::{AdaptSetup, DesConfig, SchemeKind, Simulation};
use std::collections::HashSet;

const TAGS: [&str; 5] = ["mtsd", "mtcd", "mfcd", "cmfsd", "cmfsd_adapt"];

/// `paper_small` at p = 0.5 shortened to `horizon` (warm-up a quarter of
/// it, drain equal to it); CMFSD at ρ = 0.5, and the Adapt run with 25%
/// cheaters and a 20 tu epoch.
fn cfg(tag: &str, seed: u64, horizon: f64) -> DesConfig {
    let scheme = match tag {
        "mtsd" => SchemeKind::Mtsd,
        "mtcd" => SchemeKind::Mtcd,
        "mfcd" => SchemeKind::Mfcd,
        _ => SchemeKind::Cmfsd { rho: 0.5 },
    };
    let mut c = DesConfig::paper_small(scheme, 0.5, seed).unwrap();
    c.horizon = horizon;
    c.warmup = horizon / 4.0;
    c.drain = horizon;
    if tag == "cmfsd_adapt" {
        c.adapt = Some(AdaptSetup {
            controller: AdaptConfig::default_for_mu(c.params.mu()),
            epoch: 20.0,
            cheater_fraction: 0.25,
        });
    }
    c
}

fn fixture(name: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/clock_agreement/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn f64_hex(s: &str) -> f64 {
    f64::from_bits(u64::from_str_radix(s, 16).expect("hex float bits"))
}

/// Every slot completion of a run in event order: `(user id, slot, time)`.
fn completions(cfg: DesConfig) -> Vec<(u64, usize, f64)> {
    let mut sim = Simulation::new(cfg).unwrap();
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    while sim.step().unwrap() {
        let t = sim.sim_time();
        for p in sim.peers() {
            for (s, c) in p.completed_at.iter().enumerate() {
                if *c == Some(t) && seen.insert((p.id, s)) {
                    out.push((p.id, s, t));
                }
            }
        }
    }
    out
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

#[test]
fn completion_streams_agree_up_to_the_first_near_tie() {
    for tag in TAGS {
        let parent: Vec<(u64, usize, f64)> = fixture(tag)
            .lines()
            .map(|l| {
                let mut it = l.split_whitespace();
                (
                    it.next().unwrap().parse().unwrap(),
                    it.next().unwrap().parse().unwrap(),
                    f64_hex(it.next().unwrap()),
                )
            })
            .collect();
        let now = completions(cfg(tag, 11, 400.0));
        let n = parent.len().min(now.len());
        let (mut agreed, mut worst) = (0, 0.0f64);
        while agreed < n {
            let (a, b) = (parent[agreed], now[agreed]);
            if (a.0, a.1) != (b.0, b.1) {
                // The streams may part only where two completions are so
                // close that rounding can swap them.
                assert!(
                    rel(a.2, b.2) <= 1e-9,
                    "{tag}: completion {agreed} is ({}, {}) at {} here, ({}, {}) at {} before",
                    b.0,
                    b.1,
                    b.2,
                    a.0,
                    a.1,
                    a.2
                );
                break;
            }
            assert!(
                rel(a.2, b.2) <= 1e-9,
                "{tag}: completion {agreed} ({}, {}) at {} vs {} before",
                a.0,
                a.1,
                b.2,
                a.2
            );
            worst = worst.max(rel(a.2, b.2));
            agreed += 1;
        }
        if agreed == n {
            assert_eq!(now.len(), parent.len(), "{tag}: completion counts");
        }
        eprintln!(
            "{tag}: {agreed} of {} completions agree, worst relative time error {worst:.1e}",
            parent.len()
        );
        assert!(
            5 * agreed >= 4 * parent.len(),
            "{tag}: only {agreed} of {} completions agree before the first near-tie",
            parent.len()
        );
    }
}

#[test]
fn mean_online_time_agrees_over_twenty_seeds() {
    let means = fixture("means");
    for line in means.lines() {
        let mut it = line.split_whitespace();
        let tag = it.next().unwrap();
        let (mean_then, se_then) = (f64_hex(it.next().unwrap()), f64_hex(it.next().unwrap()));
        let seeds: u64 = it.next().unwrap().parse().unwrap();
        let xs: Vec<f64> = (1..=seeds)
            .map(|seed| {
                Simulation::new(cfg(tag, seed, 800.0))
                    .unwrap()
                    .run()
                    .avg_online_per_file()
                    .unwrap()
            })
            .collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let se = (se_then.powi(2) + var / n).sqrt();
        eprintln!("{tag}: mean online/file {mean:.6} vs {mean_then:.6} (se {se:.4})");
        assert!(
            (mean - mean_then).abs() <= 3.0 * se,
            "{tag}: mean online/file {mean} vs {mean_then}, beyond 3 standard errors ({se})"
        );
    }
}
