//! Property tests for the bandwidth allocator and its incremental cache:
//! conservation, non-negativity, bitwise agreement of the cache with a
//! full recompute, completion heads against brute force, and the virtual
//! clocks against piecewise integration of each download's progress.

use btfluid_core::FluidParams;
use btfluid_des::config::SchemeKind;
use btfluid_des::peer::{Peer, Phase};
use btfluid_des::rate::compute_rates;
use btfluid_des::rate_cache::RateCache;
use proptest::prelude::*;
use std::collections::HashMap;

const K: usize = 6;

const ALL_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Mtsd,
    SchemeKind::Mtcd,
    SchemeKind::Mfcd,
    SchemeKind::Cmfsd { rho: 0.5 },
];

/// The TFT upload a peer dedicates to the file of download `(peer, slot)`
/// under `scheme` — mirrors the scheme view in `btfluid_des::rate`.
fn member_u(scheme: SchemeKind, peer: &Peer, mu: f64) -> f64 {
    match scheme {
        SchemeKind::Mtsd => mu,
        SchemeKind::Mtcd | SchemeKind::Mfcd => mu / peer.class() as f64,
        SchemeKind::Cmfsd { .. } => {
            if peer.done_count() >= 1 {
                peer.rho * mu
            } else {
                mu
            }
        }
    }
}

/// Builds a cache over `peers` by incremental registration, refreshing
/// after every step so the dirty tracking (not a single full build) is
/// what produces the final state.
fn build_incrementally(
    peers: &mut [Peer],
    scheme: SchemeKind,
    params: &FluidParams,
    origin: usize,
) -> RateCache {
    let mut cache = RateCache::new(K, scheme, params, origin);
    cache.grow(peers.len());
    for idx in 0..peers.len() {
        cache.register(idx, peers, 0.0);
        cache.refresh(peers, 0.0, false);
    }
    cache
}

/// Asserts the cache's snapshot equals a from-scratch `compute_rates`
/// bit for bit.
fn assert_matches_full(
    cache: &RateCache,
    peers: &[Peer],
    scheme: SchemeKind,
    params: &FluidParams,
    origin: usize,
) -> Result<(), TestCaseError> {
    let snap = cache.snapshot(peers);
    let full = compute_rates(peers, scheme, params, K, origin);
    prop_assert_eq!(snap.downloads.len(), full.downloads.len());
    for (a, b) in snap.downloads.iter().zip(&full.downloads) {
        prop_assert_eq!(a.peer_idx, b.peer_idx);
        prop_assert_eq!(a.slot, b.slot);
        prop_assert_eq!(
            a.rate.to_bits(),
            b.rate.to_bits(),
            "rate mismatch for peer {} slot {}: {} vs {}",
            a.peer_idx,
            a.slot,
            a.rate,
            b.rate
        );
        prop_assert_eq!(
            a.vs_rate.to_bits(),
            b.vs_rate.to_bits(),
            "vs_rate mismatch for peer {} slot {}: {} vs {}",
            a.peer_idx,
            a.slot,
            a.vs_rate,
            b.vs_rate
        );
    }
    prop_assert_eq!(snap.donations.len(), full.donations.len());
    for (i, (a, b)) in snap.donations.iter().zip(&full.donations).enumerate() {
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "donation mismatch for peer {i}: {} vs {}",
            a,
            b
        );
    }
    Ok(())
}

/// Each file's earliest completion by brute force over its downloads'
/// deadlines, ties to the lowest `(peer, slot)`: what `RateCache::head`
/// must report.
fn earliest_due(cache: &RateCache, peers: &[Peer]) -> [Option<(f64, u32, u32)>; K] {
    let mut first: [Option<(f64, u32, u32)>; K] = [None; K];
    for (idx, p) in peers.iter().enumerate() {
        for s in 0..p.class() {
            let due = cache.due(peers, idx, s);
            let f = &mut first[p.files[s] as usize];
            // Peers and slots are visited in ascending order, so a strict
            // `<` keeps the lowest `(peer, slot)` among equal deadlines.
            if due < f64::INFINITY && f.is_none_or(|(d, _, _)| due < d) {
                *f = Some((due, idx as u32, s as u32));
            }
        }
    }
    first
}

/// The engine's touch around a mutation: settle the donation, deregister
/// the peer (which folds its download progress into it), mutate, register
/// it again.
fn touch(
    cache: &mut RateCache,
    peers: &mut [Peer],
    idx: usize,
    t: f64,
    mutate: impl FnOnce(&mut Peer),
) {
    let p = &mut peers[idx];
    p.settle_donation(t);
    p.donation_rate = 0.0;
    cache.deregister(idx, peers, t);
    mutate(&mut peers[idx]);
    cache.register(idx, peers, t);
}

/// Completes download `slot` of a peer at `t` as the engine's completion
/// handler does under `scheme` (seed timers aside).
fn complete(scheme: SchemeKind, p: &mut Peer, slot: usize, t: f64) {
    p.remaining[slot] = 0.0;
    p.completed_at[slot] = Some(t);
    match scheme {
        SchemeKind::Mtsd => p.phase = Phase::SeedingFile(slot),
        SchemeKind::Mtcd | SchemeKind::Mfcd => {
            p.seed_until[slot] = Some(f64::INFINITY);
            if p.all_done() {
                p.phase = Phase::SeedingAll;
            }
        }
        SchemeKind::Cmfsd { .. } => {
            p.cursor += 1;
            if p.cursor >= p.class() {
                p.phase = Phase::SeedingAll;
            }
        }
    }
}

/// Strategy: a random CMFSD peer in a consistent state.
fn cmfsd_peer(id: u64) -> impl Strategy<Value = Peer> {
    (
        prop::collection::btree_set(0u16..K as u16, 1..=K),
        // ρ = 0 (a zero-slope clock on later files), ρ = 1 (cheaters,
        // sharing the first-file group) and per-peer values (singleton
        // groups, as under Adapt).
        prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0],
        any::<bool>(),
        0usize..K,
        // MTCD/MFCD: whether finished slots still seed their own files.
        any::<bool>(),
    )
        .prop_map(move |(files, rho, seeding_all, progress, seeds)| {
            let seed_until = seeds.then_some(f64::INFINITY);
            let files: Vec<u16> = files.into_iter().collect();
            let n = files.len();
            let order: Vec<usize> = (0..n).collect();
            let mut p = Peer::new(id, 0.0, files, order, rho);
            if seeding_all {
                for s in 0..n {
                    p.remaining[s] = 0.0;
                    p.completed_at[s] = Some(1.0);
                    p.seed_until[s] = seed_until;
                }
                p.cursor = n;
                p.phase = Phase::SeedingAll;
            } else {
                let done = progress.min(n - 1);
                for s in 0..done {
                    let slot = p.order[s];
                    p.remaining[slot] = 0.0;
                    p.completed_at[slot] = Some(1.0);
                    p.seed_until[slot] = seed_until;
                }
                p.cursor = done;
            }
            p
        })
}

fn population() -> impl Strategy<Value = Vec<Peer>> {
    prop::collection::vec(any::<u64>(), 1..20).prop_flat_map(|ids| {
        ids.into_iter()
            .enumerate()
            .map(|(i, _)| cmfsd_peer(i as u64))
            .collect::<Vec<_>>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cmfsd_conserves_bandwidth(peers in population(), origin in 0usize..3) {
        let params = FluidParams::paper();
        let scheme = SchemeKind::Cmfsd { rho: 0.5 }; // per-peer ρ is on the peer
        let snap = compute_rates(&peers, scheme, &params, K, origin);

        // Non-negativity and vs_rate ≤ rate.
        for d in &snap.downloads {
            prop_assert!(d.rate >= 0.0);
            prop_assert!(d.vs_rate >= -1e-15 && d.vs_rate <= d.rate + 1e-12);
        }

        // Conservation: total received = η·Σ(TFT uploads) + consumed
        // donations + consumed real-seed/origin bandwidth. We can't see
        // "consumed real" directly, so check the weaker sound bound:
        // total received ≤ η·ΣTFT + all donations + all real capacity.
        let eta = params.eta();
        let mu = params.mu();
        let mut tft = 0.0;
        let mut real_capacity = origin as f64 * mu;
        for p in &peers {
            match p.phase {
                Phase::Downloading => {
                    let u = if p.done_count() >= 1 { p.rho * mu } else { mu };
                    tft += u;
                }
                Phase::SeedingAll => real_capacity += mu,
                _ => {}
            }
        }
        let donations: f64 = snap.donations.iter().sum();
        let received: f64 = snap.downloads.iter().map(|d| d.rate).sum();
        prop_assert!(
            received <= eta * tft + donations + real_capacity + 1e-9,
            "received {received} exceeds capacity {}",
            eta * tft + donations + real_capacity
        );

        // Per-download TFT floor: every downloader gets at least η·(own
        // upload).
        for d in &snap.downloads {
            let p = &peers[d.peer_idx];
            let own = if p.done_count() >= 1 { p.rho * mu } else { mu };
            prop_assert!(d.rate >= eta * own - 1e-12);
        }

        // Donations only come from peers with a finished file still
        // downloading.
        for (idx, &don) in snap.donations.iter().enumerate() {
            if don > 0.0 {
                let p = &peers[idx];
                prop_assert_eq!(p.phase, Phase::Downloading);
                prop_assert!(p.done_count() >= 1);
                prop_assert!((don - (1.0 - p.rho) * mu).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cache_matches_full_recompute_every_scheme(peers in population(), origin in 0usize..3) {
        // The incremental cache, built peer by peer with a refresh between
        // registrations, must agree bit for bit with a from-scratch
        // `compute_rates` under every scheme.
        let params = FluidParams::paper();
        for scheme in ALL_SCHEMES {
            let mut peers = peers.clone();
            let cache = build_incrementally(&mut peers, scheme, &params, origin);
            assert_matches_full(&cache, &peers, scheme, &params, origin)?;
        }
    }

    #[test]
    fn cache_tracks_mutation_cycles(peers in population(), origin in 0usize..3) {
        // Deregister → mutate (complete the current file) → re-register →
        // refresh must keep the cache in lockstep with a full recompute at
        // every step.
        let params = FluidParams::paper();
        let scheme = SchemeKind::Cmfsd { rho: 0.5 };
        let mut peers = peers.clone();
        let mut cache = build_incrementally(&mut peers, scheme, &params, origin);
        for idx in 0..peers.len() {
            if peers[idx].phase != Phase::Downloading {
                continue;
            }
            cache.deregister(idx, &mut peers, 0.0);
            let slot = peers[idx].current_slot();
            peers[idx].remaining[slot] = 0.0;
            peers[idx].completed_at[slot] = Some(2.0);
            peers[idx].cursor += 1;
            if peers[idx].cursor >= peers[idx].class() {
                peers[idx].phase = Phase::SeedingAll;
            }
            cache.register(idx, &mut peers, 0.0);
            cache.refresh(&mut peers, 0.0, false);
            assert_matches_full(&cache, &peers, scheme, &params, origin)?;
        }
    }

    #[test]
    fn heads_match_brute_force_min(
        peers in population(),
        origin in 0usize..3,
        ops in prop::collection::vec((0usize..20, 0u8..4, 0.05f64..0.95), 1..24),
    ) {
        // Across completions of the earliest download, ρ changes (a
        // touched peer re-tagged, possibly into another group), forced
        // refreshes and quiet time steps, under every scheme: each file's
        // head is its earliest download, the cache audit holds, and the
        // heap's top is the earliest head.
        let params = FluidParams::paper();
        for scheme in ALL_SCHEMES {
            let mut peers = peers.clone();
            let mut cache = build_incrementally(&mut peers, scheme, &params, origin);
            let mut t = 0.0;
            for &(who, op, frac) in &ops {
                let idx = who % peers.len();
                match (op, cache.next_head()) {
                    (0, Some(h)) => {
                        t = h.due.max(t);
                        let slot = h.slot as usize;
                        touch(&mut cache, &mut peers, h.peer as usize, t, |p| complete(scheme, p, slot, t));
                    }
                    (1, _) => touch(&mut cache, &mut peers, idx, t, |p| {
                        p.rho = (p.rho + 0.37) % 1.0;
                    }),
                    (_, h) => t += frac * h.map_or(10.0, |h| h.due - t),
                }
                cache.refresh(&mut peers, t, op == 2);
                assert_matches_full(&cache, &peers, scheme, &params, origin)?;
                prop_assert!(cache.audit(&peers, t).is_ok(), "{}: {:?}", scheme.name(), cache.audit(&peers, t));
                let want = earliest_due(&cache, &peers);
                for (f, first) in want.iter().enumerate() {
                    let h = cache.head(f);
                    let (due, peer, slot) = first.unwrap_or((f64::INFINITY, u32::MAX, u32::MAX));
                    prop_assert_eq!((h.due.to_bits(), h.peer, h.slot), (due.to_bits(), peer, slot), "{}: file {f}", scheme.name());
                }
                let top = (0..K).map(|f| cache.head(f)).filter(|h| h.due < f64::INFINITY)
                    .min_by(|a, b| a.due.total_cmp(&b.due).then((a.peer, a.slot).cmp(&(b.peer, b.slot))));
                prop_assert_eq!(cache.next_head(), top);
            }
        }
    }

    #[test]
    fn tags_reproduce_piecewise_deadlines(
        peers in population(),
        origin in 0usize..3,
        ops in prop::collection::vec((0usize..20, 0u8..5, 0.05f64..0.95), 1..32),
    ) {
        // A shadow model settles every download's remaining work piecewise
        // at the cache's rates, the way the per-download engine did. Over
        // random completions, ρ changes (group and pool changes), seed
        // departures (pool changes) and arrivals (weight changes), the
        // tags must reproduce that integration: materialized remaining
        // work within 1e-9, deadlines within 1e-9 relative.
        let params = FluidParams::paper();
        for scheme in ALL_SCHEMES {
            let mut peers = peers.clone();
            let mut cache = build_incrementally(&mut peers, scheme, &params, origin);
            let mut shadow: HashMap<(usize, usize), f64> = HashMap::new();
            let track = |shadow: &mut HashMap<(usize, usize), f64>, cache: &RateCache, peers: &[Peer], idx: usize, t: f64| {
                shadow.retain(|&(i, _), _| i != idx);
                for s in 0..peers[idx].class() {
                    if cache.is_downloading(idx, s) {
                        shadow.insert((idx, s), cache.remaining(peers, idx, s, t));
                    }
                }
            };
            for idx in 0..peers.len() {
                track(&mut shadow, &cache, &peers, idx, 0.0);
            }
            let mut t = 0.0;
            for &(who, op, frac) in &ops {
                let idx = who % peers.len();
                let head = cache.next_head();
                let t_next = match (op, head) {
                    (0, Some(h)) => h.due.max(t),
                    (_, h) => t + frac * h.map_or(10.0, |h| h.due - t),
                };
                // Piecewise settlement at the rates in force since `t`.
                for (&(i, s), r) in shadow.iter_mut() {
                    *r -= cache.rate(i, s).0 * (t_next - t);
                }
                t = t_next;
                for (&(i, s), &r) in &shadow {
                    let m = cache.remaining(&peers, i, s, t);
                    prop_assert!(
                        (m - r.max(0.0)).abs() <= 1e-9,
                        "{}: peer {i} slot {s}: materialized {m} vs piecewise {r}", scheme.name()
                    );
                }
                let mut touched = idx;
                match (op, head) {
                    (0, Some(h)) => {
                        touched = h.peer as usize;
                        let slot = h.slot as usize;
                        touch(&mut cache, &mut peers, touched, t, |p| complete(scheme, p, slot, t));
                    }
                    (1, _) => touch(&mut cache, &mut peers, idx, t, |p| {
                        p.rho = (p.rho + 0.37) % 1.0;
                    }),
                    (2, _) if peers[idx].phase == Phase::SeedingAll => {
                        touch(&mut cache, &mut peers, idx, t, |p| p.phase = Phase::Departed);
                    }
                    (3, _) if peers[idx].phase == Phase::Departed => {
                        touch(&mut cache, &mut peers, idx, t, |p| {
                            let fresh = Peer::new(p.id, t, p.files.clone(), p.order.clone(), frac);
                            *p = fresh;
                        });
                    }
                    _ => {}
                }
                cache.refresh(&mut peers, t, false);
                track(&mut shadow, &cache, &peers, touched, t);
                for (&(i, s), &r) in &shadow {
                    let rate = cache.rate(i, s).0;
                    let want = if rate > 0.0 { t + r / rate } else { f64::INFINITY };
                    let due = cache.due(&peers, i, s);
                    prop_assert!(
                        due == want || (due - want).abs() <= 1e-9 * want.abs().max(1.0),
                        "{}: peer {i} slot {s}: tag deadline {due} vs piecewise {want}", scheme.name()
                    );
                }
            }
        }
    }

    #[test]
    fn cache_conserves_bandwidth_per_subtorrent(peers in population(), origin in 0usize..3) {
        // On every subtorrent with at least one downloader, the shares of
        // the pools sum to 1, so Σ rates = η·Σu + pool_real + pool_virtual.
        let params = FluidParams::paper();
        let eta = params.eta();
        let mu = params.mu();
        for scheme in ALL_SCHEMES {
            let mut peers = peers.clone();
            let cache = build_incrementally(&mut peers, scheme, &params, origin);
            let snap = cache.snapshot(&peers);
            let mut sum_rate = [0.0f64; K];
            let mut sum_u = [0.0f64; K];
            for d in &snap.downloads {
                let p = &peers[d.peer_idx];
                let f = p.files[d.slot] as usize;
                sum_rate[f] += d.rate;
                sum_u[f] += member_u(scheme, p, mu);
            }
            for f in 0..K {
                if cache.weight()[f] <= 0.0 {
                    continue;
                }
                let expect = eta * sum_u[f] + cache.pool_real()[f] + cache.pool_virtual()[f];
                let tol = 1e-9 * expect.abs().max(1.0);
                prop_assert!(
                    (sum_rate[f] - expect).abs() <= tol,
                    "{}: subtorrent {f}: Σrates {} vs η·Σu + pools {}",
                    scheme.name(),
                    sum_rate[f],
                    expect
                );
            }
        }
    }

    #[test]
    fn mtcd_rates_respect_class_split(peers in population()) {
        // Reinterpreting the same peers under MTCD: each unfinished slot
        // downloads at ≥ η·μ/class.
        let params = FluidParams::paper();
        let snap = compute_rates(&peers, SchemeKind::Mtcd, &params, K, 0);
        for d in &snap.downloads {
            let p = &peers[d.peer_idx];
            let floor = params.eta() * params.mu() / p.class() as f64;
            prop_assert!(d.rate >= floor - 1e-12);
        }
    }
}

/// Equal deadlines order by `(peer, slot)`, as equal-time completions
/// pop: a touched download that ties the head from a lower slab index
/// takes it.
#[test]
fn equal_deadlines_go_to_the_lower_peer() {
    let params = FluidParams::paper();
    let mut peers: Vec<Peer> = (0..2)
        .map(|id| Peer::new(id, 0.0, vec![0], vec![0], 1.0))
        .collect();
    peers[0].remaining[0] = 2.0;
    let mut cache = build_incrementally(&mut peers, SchemeKind::Mtsd, &params, 0);
    assert_eq!(cache.head(0).peer, 1, "peer 1 has half the work left");
    touch(&mut cache, &mut peers, 0, 0.0, |p| p.remaining[0] = 1.0);
    cache.refresh(&mut peers, 0.0, false);
    assert_eq!(cache.due(&peers, 0, 0), cache.due(&peers, 1, 0));
    let head = cache.head(0);
    assert_eq!((head.peer, head.slot), (0, 0));
    assert_eq!(cache.next_head(), Some(head));
}

/// Distinct finish tags in one group can round to one deadline. The head
/// is then the lower `(peer, slot)`, as with equal tags, even though the
/// other download holds the lower tag.
#[test]
fn deadlines_rounded_equal_go_to_the_lower_peer() {
    let params = FluidParams::paper();
    let mut found = 0;
    for i in 0..2_000 {
        let mut peers: Vec<Peer> = (0..2)
            .map(|id| Peer::new(id, 0.0, vec![0], vec![0], 1.0))
            .collect();
        let mut cache = build_incrementally(&mut peers, SchemeKind::Mtsd, &params, 0);
        // Peer 1 registers with the work peer 0 has, less one ulp.
        let (t, r) = (997.0 + 0.37 * i as f64, 1.0 + 0.013 * i as f64);
        touch(&mut cache, &mut peers, 0, t, |p| p.remaining[0] = r);
        touch(&mut cache, &mut peers, 1, t, |p| {
            p.remaining[0] = r.next_down()
        });
        cache.refresh(&mut peers, t, false);
        let (due0, due1) = (cache.due(&peers, 0, 0), cache.due(&peers, 1, 0));
        if peers[1].tag[0] < peers[0].tag[0] && due0 == due1 {
            found += 1;
            let head = cache.head(0);
            assert_eq!((head.peer, head.slot, head.due), (0, 0, due0), "case {i}");
            assert!(
                cache.audit(&peers, t).is_ok(),
                "{:?}",
                cache.audit(&peers, t)
            );
        }
    }
    assert!(found > 0, "no rounded tie among the cases");
}

/// A CMFSD download at ρ = 0 has `c = 0`: its group's clock stands still,
/// with no deadline, until a seed brings its file a pool.
#[test]
fn zero_slope_group_waits_for_a_pool() {
    let params = FluidParams::paper();
    let scheme = SchemeKind::Cmfsd { rho: 0.0 };
    // Peer 0 finished file 0 and downloads file 1 at ρ = 0; peer 1 will
    // seed file 1.
    let mut a = Peer::new(0, 0.0, vec![0, 1], vec![0, 1], 0.0);
    a.remaining[0] = 0.0;
    a.completed_at[0] = Some(0.0);
    a.cursor = 1;
    let mut b = Peer::new(1, 0.0, vec![1], vec![0], 0.0);
    b.phase = Phase::Departed;
    let mut peers = vec![a, b];
    let mut cache = build_incrementally(&mut peers, scheme, &params, 0);
    assert_eq!(cache.rate(0, 1), (0.0, 0.0));
    assert_eq!(cache.head(1).due, f64::INFINITY);
    assert_eq!(cache.next_head(), None);
    // Time passes without progress.
    cache.refresh(&mut peers, 30.0, true);
    assert_eq!(cache.remaining(&peers, 0, 1, 30.0), 1.0);
    // A real seed of file 1 appears: the clock starts, the deadline is
    // the whole file at the seed's bandwidth.
    touch(&mut cache, &mut peers, 1, 30.0, |p| {
        p.phase = Phase::SeedingAll;
        p.remaining[0] = 0.0;
        p.completed_at[0] = Some(30.0);
        p.cursor = 1;
    });
    cache.refresh(&mut peers, 30.0, false);
    let mu = params.mu();
    assert_eq!(cache.rate(0, 1).0, mu);
    let head = cache.head(1);
    assert_eq!((head.peer, head.slot), (0, 1));
    assert!((head.due - (30.0 + 1.0 / mu)).abs() < 1e-9);
    assert!(cache.audit(&peers, 30.0).is_ok());
}
