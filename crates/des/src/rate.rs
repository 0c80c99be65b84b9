//! Bandwidth allocation: turns the current peer population into per-download
//! service rates, mirroring the fluid model's two service assumptions.
//!
//! For every subtorrent `f` the snapshot aggregates
//!
//! * `pool_real[f]` — bandwidth of real seeds (and MTSD/MTCD per-file
//!   seeds) serving `f`;
//! * `pool_virtual[f]` — bandwidth of CMFSD virtual seeds serving `f`;
//! * `weight[f]` — total download-capacity weight of the downloaders in
//!   `f` (`1/class` under concurrent schemes, `1` under sequential ones).
//!
//! A downloader of `f` with weight `w` and TFT upload `u = w·c` then
//! receives
//!
//! ```text
//! rate = w · (η·c + ψ[f]),   ψ[f] = (pool_real[f] + pool_virtual[f]) / weight[f]
//! ```
//!
//! which conserves bandwidth: summing over downloaders of `f` reproduces
//! `η·Σu + pool_real[f] + pool_virtual[f]`, the fluid model's
//! per-torrent service capacity. The scheme fixes `c` directly rather
//! than through `u/w`: `μ` for MTSD, MTCD, MFCD and a CMFSD peer's first
//! file, `ρμ` for CMFSD's later files. Downloads with the same `(f, c)`
//! therefore progress at rates proportional to their weights, which is
//! what lets [`crate::rate_cache::RateCache`] track them with one virtual
//! clock per group.
//!
//! ## Canonical aggregates
//!
//! Every aggregate is a function of integer counts and an ordered source
//! list, so the incremental cache and this from-scratch reference
//! produce the same bits: `weight[f]` sums `count · (1/d)` over weight
//! divisors `d` ascending; pinned seeds (MTSD, MTCD, MFCD: bandwidth
//! `μ/d` serving one file) enter `pool_real[f]` the same way; the
//! demand-aware sources of CMFSD give each of their files
//! `weight[f] · bandwidth/demand`, their bandwidth per unit demand summed
//! in `(peer, source)` order.
//!
//! ## Demand-aware CMFSD seeding
//!
//! The fluid model of Eq. (5) pools all virtual-seed and real-seed
//! bandwidth *globally* over the torrent's downloaders. A physical peer can
//! only serve files it has finished, so this simulator realizes the pooling
//! by splitting each CMFSD seed's bandwidth across its finished subtorrents
//! in proportion to their current downloader weight (a seed never wastes
//! bandwidth on an empty subtorrent). A naive alternative — pinning each
//! virtual seed to one randomly chosen finished file — matches the fluid
//! model at moderate ρ but collapses at ρ → 0, where downloaders have no
//! TFT income and starve whenever their subtorrent happens to attract no
//! donor; the paper's model implicitly assumes the perfectly mixed
//! allocation implemented here.
//!
//! MTCD/MFCD virtual peers, by contrast, are genuinely separate peers in
//! separate (sub)torrents with a fixed `μ/i` each (that is the scheme), so
//! their seed bandwidth stays pinned to its own file.

use crate::config::SchemeKind;
use crate::peer::{Peer, Phase};
use btfluid_core::FluidParams;

/// One active (peer, file-slot) download with its current rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveDownload {
    /// Index into the engine's peer vector.
    pub peer_idx: usize,
    /// File slot within that peer.
    pub slot: usize,
    /// Total download rate (files per time unit).
    pub rate: f64,
    /// Portion of [`ActiveDownload::rate`] received from *virtual seeds*
    /// (CMFSD Adapt accounting).
    pub vs_rate: f64,
}

/// The rate snapshot between two events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RateSnapshot {
    /// Every active download and its rate.
    pub downloads: Vec<ActiveDownload>,
    /// Per-peer bandwidth currently donated through a virtual seed and
    /// actually consumed by someone (parallel to the engine's peer vector;
    /// CMFSD only).
    pub donations: Vec<f64>,
}

/// One download a peer holds under the scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Download {
    pub slot: u32,
    pub file: u32,
    /// TFT upload per unit weight.
    pub c: f64,
    /// Weight divisor: the download's weight is `1/d`.
    pub d: u32,
}

/// A seed source split demand-aware over `View::files[start..end]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Shared {
    pub bandwidth: f64,
    pub is_virtual: bool,
    pub start: usize,
    pub end: usize,
}

/// What a peer contributes and consumes under the configured scheme, in
/// the order every aggregate is accumulated in. Reused buffers: `fill`
/// clears them first.
#[derive(Debug, Default)]
pub(crate) struct View {
    pub downloads: Vec<Download>,
    /// Pinned seeds `(file, d)`: bandwidth `μ/d` serving `file` alone.
    pub pinned: Vec<(u32, u32)>,
    pub shared: Vec<Shared>,
    /// File lists of the shared sources.
    pub files: Vec<usize>,
}

impl View {
    pub(crate) fn fill(&mut self, peer: &Peer, scheme: SchemeKind, mu: f64) {
        self.downloads.clear();
        self.pinned.clear();
        self.shared.clear();
        self.files.clear();
        let class = peer.class();
        let file = |slot: usize| peer.files[slot] as u32;
        match scheme {
            SchemeKind::Mtsd => match peer.phase {
                Phase::Downloading => {
                    let slot = peer.current_slot();
                    self.download(slot, file(slot), mu, 1);
                }
                Phase::SeedingFile(slot) => self.pinned.push((file(slot), 1)),
                Phase::SeedingAll | Phase::Departed => {}
            },
            SchemeKind::Mtcd | SchemeKind::Mfcd => {
                if peer.phase == Phase::Departed {
                    return;
                }
                for slot in 0..class {
                    if !peer.finished(slot) {
                        self.download(slot, file(slot), mu, class as u32);
                    } else if peer.seed_until[slot].is_some() {
                        // Finished slot: this virtual peer seeds its own
                        // torrent (MTCD: until its deadline; MFCD: until
                        // the user departs).
                        self.pinned.push((file(slot), class as u32));
                    }
                }
            }
            SchemeKind::Cmfsd { .. } => match peer.phase {
                Phase::Downloading => {
                    let slot = peer.current_slot();
                    if peer.done_count() >= 1 {
                        // Partial seed: ρμ plays TFT in the current
                        // subtorrent, (1−ρ)μ serves the finished files
                        // demand-aware.
                        let rho = peer.rho;
                        self.download(slot, file(slot), rho * mu, 1);
                        let donated = (1.0 - rho) * mu;
                        if donated > 0.0 {
                            let start = self.files.len();
                            self.files.extend(
                                (0..class)
                                    .filter(|&s| peer.finished(s))
                                    .map(|s| peer.files[s] as usize),
                            );
                            self.share(donated, true, start);
                        }
                    } else {
                        self.download(slot, file(slot), mu, 1);
                    }
                }
                Phase::SeedingAll => {
                    // Real seed: μ over all its files, demand-aware.
                    let start = self.files.len();
                    self.files.extend(peer.files.iter().map(|&f| f as usize));
                    self.share(mu, false, start);
                }
                Phase::SeedingFile(_) | Phase::Departed => {}
            },
        }
    }

    fn download(&mut self, slot: usize, file: u32, c: f64, d: u32) {
        self.downloads.push(Download {
            slot: slot as u32,
            file,
            c,
            d,
        });
    }

    fn share(&mut self, bandwidth: f64, is_virtual: bool, start: usize) {
        self.shared.push(Shared {
            bandwidth,
            is_virtual,
            start,
            end: self.files.len(),
        });
    }
}

/// A download's weight `1/d`.
pub(crate) fn weight_of(d: u32) -> f64 {
    1.0 / d as f64
}

/// A file's memberships counted by divisor: `(d, n)` pairs with `n > 0`,
/// `d` ascending. Its length is the number of distinct classes present,
/// not K.
pub(crate) type Counts = Vec<(u32, u32)>;

/// Counts one more membership with divisor `d`.
pub(crate) fn count_add(row: &mut Counts, d: u32) {
    match row.binary_search_by_key(&d, |&(e, _)| e) {
        Ok(i) => row[i].1 += 1,
        Err(i) => row.insert(i, (d, 1)),
    }
}

/// Counts one membership with divisor `d` less.
pub(crate) fn count_sub(row: &mut Counts, d: u32) {
    let i = row
        .binary_search_by_key(&d, |&(e, _)| e)
        .expect("removing an uncounted membership");
    row[i].1 -= 1;
    if row[i].1 == 0 {
        row.remove(i);
    }
}

/// `Σ n · (1/d)` over a file's weight-divisor counts, divisors ascending.
pub(crate) fn weight_sum(row: &[(u32, u32)]) -> f64 {
    let mut s = 0.0;
    for &(d, n) in row {
        s += n as f64 * weight_of(d);
    }
    s
}

/// The origin publishers' share of one subtorrent's real pool: pinned
/// per torrent (MTSD/MTCD) or split demand-aware over the subtorrents by
/// weight (MFCD/CMFSD, `total_weight` the sum over every subtorrent).
pub(crate) fn origin_share(origin_bw: f64, demand_aware: bool, wf: f64, total_weight: f64) -> f64 {
    if origin_bw > 0.0 {
        if !demand_aware {
            return origin_bw;
        }
        if total_weight > 0.0 && wf > 0.0 {
            return origin_bw * wf / total_weight;
        }
    }
    0.0
}

/// A demand-aware source's bandwidth per unit of the weight it serves:
/// each of its files with weight `w_f` receives `w_f · bandwidth/demand`
/// (nothing when no file has demand).
pub(crate) fn intensity(bandwidth: f64, demand: f64) -> f64 {
    if demand > 0.0 {
        bandwidth / demand
    } else {
        0.0
    }
}

/// `(pool_real, pool_virtual)` of a subtorrent with weight `wf`: the
/// origin share, then the pinned seeds (`n` seeds of bandwidth `μ/d` per
/// `(d, n)`, divisors ascending), then `wf` times the summed
/// [`intensity`] of the demand-aware sources `(is_virtual, intensity)`,
/// accumulated in `(peer, source)` order. Seed capacity only flows where
/// there is demand.
pub(crate) fn file_pools(
    origin: f64,
    wf: f64,
    pinned: &[(u32, u32)],
    mu: f64,
    shared: impl Iterator<Item = (bool, f64)>,
) -> (f64, f64) {
    let mut pr = origin;
    let mut pv = 0.0;
    if wf > 0.0 {
        for &(d, n) in pinned {
            pr += n as f64 * (mu / d as f64);
        }
        let (mut qr, mut qv) = (0.0, 0.0);
        for (is_virtual, q) in shared {
            if is_virtual {
                qv += q;
            } else {
                qr += q;
            }
        }
        pr += wf * qr;
        pv += wf * qv;
    }
    (pr, pv)
}

/// `(ψ, φ)` of a subtorrent: pool bandwidth and virtual-seed bandwidth
/// per unit of downloader weight (zero without downloaders).
pub(crate) fn per_weight(wf: f64, pr: f64, pv: f64) -> (f64, f64) {
    if wf > 0.0 {
        ((pr + pv) / wf, pv / wf)
    } else {
        (0.0, 0.0)
    }
}

/// `(rate, vs_rate)` of a download with weight `w` and `ec = η·c` in a
/// subtorrent with per-weight pools `(ψ, φ)`.
pub(crate) fn download_rate(w: f64, ec: f64, psi: f64, phi: f64) -> (f64, f64) {
    (w * (ec + psi), w * phi)
}

/// Builds the rate snapshot for the current population.
///
/// `origin_seeds` is the number of permanent publisher seeds: under the
/// multi-torrent schemes each of the `K` torrents has that many publishers
/// (bandwidth `μ` each, pinned to their torrent); under the multi-file
/// schemes the single torrent has that many publishers, each splitting `μ`
/// demand-aware over the `K` subtorrents.
pub fn compute_rates(
    peers: &[Peer],
    scheme: SchemeKind,
    params: &FluidParams,
    k: usize,
    origin_seeds: usize,
) -> RateSnapshot {
    let eta = params.eta();
    let mu = params.mu();
    let mut wcount: Vec<Counts> = vec![Vec::new(); k];
    let mut pcount: Vec<Counts> = vec![Vec::new(); k];

    // Pass 1: views and the integer counts behind weights and pinned pools.
    let mut views = Vec::with_capacity(peers.len());
    for peer in peers {
        let mut v = View::default();
        v.fill(peer, scheme, mu);
        for d in &v.downloads {
            count_add(&mut wcount[d.file as usize], d.d);
        }
        for &(f, d) in &v.pinned {
            count_add(&mut pcount[f as usize], d);
        }
        views.push(v);
    }
    let weight: Vec<f64> = wcount.iter().map(|row| weight_sum(row)).collect();

    // Pass 2: demand-aware sources per file, in (peer, source) order, and
    // the donations they carry.
    let mut snapshot = RateSnapshot {
        downloads: Vec::new(),
        donations: vec![0.0; peers.len()],
    };
    let mut shared: Vec<Vec<(bool, f64)>> = vec![Vec::new(); k];
    for (peer_idx, v) in views.iter().enumerate() {
        for src in &v.shared {
            let files = &v.files[src.start..src.end];
            let demand: f64 = files.iter().map(|&f| weight[f]).sum();
            for &f in files {
                shared[f].push((src.is_virtual, intensity(src.bandwidth, demand)));
            }
            if src.is_virtual && demand > 0.0 {
                snapshot.donations[peer_idx] += src.bandwidth;
            }
        }
    }

    // Pass 3: pools and per-weight shares.
    let origin_bw = if origin_seeds > 0 {
        origin_seeds as f64 * mu
    } else {
        0.0
    };
    let demand_aware = matches!(scheme, SchemeKind::Mfcd | SchemeKind::Cmfsd { .. });
    let total_weight: f64 = if demand_aware && origin_bw > 0.0 {
        weight.iter().sum()
    } else {
        0.0
    };
    let shares: Vec<(f64, f64)> = (0..k)
        .map(|f| {
            let wf = weight[f];
            let origin = origin_share(origin_bw, demand_aware, wf, total_weight);
            let (pr, pv) = file_pools(origin, wf, &pcount[f], mu, shared[f].iter().copied());
            per_weight(wf, pr, pv)
        })
        .collect();

    // Pass 4: per-download rates.
    for (peer_idx, v) in views.iter().enumerate() {
        for d in &v.downloads {
            let (psi, phi) = shares[d.file as usize];
            let (rate, vs_rate) = download_rate(weight_of(d.d), eta * d.c, psi, phi);
            snapshot.downloads.push(ActiveDownload {
                peer_idx,
                slot: d.slot as usize,
                rate,
                vs_rate,
            });
        }
    }
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_core::FluidParams;

    fn params() -> FluidParams {
        FluidParams::paper() // μ = 0.02, η = 0.5, γ = 0.05
    }

    fn peer(id: u64, files: Vec<u16>) -> Peer {
        let order: Vec<usize> = (0..files.len()).collect();
        Peer::new(id, 0.0, files, order, 1.0)
    }

    #[test]
    fn lone_mtsd_downloader_gets_only_tft() {
        let peers = vec![peer(0, vec![3])];
        let snap = compute_rates(&peers, SchemeKind::Mtsd, &params(), 10, 0);
        assert_eq!(snap.downloads.len(), 1);
        let d = snap.downloads[0];
        assert_eq!(d.slot, 0);
        // η·μ = 0.01
        assert!((d.rate - 0.01).abs() < 1e-15);
        assert_eq!(d.vs_rate, 0.0);
    }

    #[test]
    fn mtsd_seed_feeds_downloader() {
        let mut seeder = peer(0, vec![3]);
        seeder.remaining[0] = 0.0;
        seeder.phase = Phase::SeedingFile(0);
        let downloader = peer(1, vec![3]);
        let peers = vec![seeder, downloader];
        let snap = compute_rates(&peers, SchemeKind::Mtsd, &params(), 10, 0);
        assert_eq!(snap.downloads.len(), 1);
        // η·μ + μ (full seed bandwidth to the only downloader).
        assert!((snap.downloads[0].rate - (0.01 + 0.02)).abs() < 1e-15);
    }

    #[test]
    fn mtsd_seed_in_other_torrent_does_not_help() {
        let mut seeder = peer(0, vec![4]);
        seeder.remaining[0] = 0.0;
        seeder.phase = Phase::SeedingFile(0);
        let downloader = peer(1, vec![3]);
        let peers = vec![seeder, downloader];
        let snap = compute_rates(&peers, SchemeKind::Mtsd, &params(), 10, 0);
        assert!((snap.downloads[0].rate - 0.01).abs() < 1e-15);
    }

    #[test]
    fn mtcd_splits_bandwidth_across_torrents() {
        let peers = vec![peer(0, vec![0, 1, 2, 3])];
        let snap = compute_rates(&peers, SchemeKind::Mtcd, &params(), 10, 0);
        assert_eq!(snap.downloads.len(), 4);
        for d in &snap.downloads {
            // η·μ/4 each.
            assert!((d.rate - 0.5 * 0.02 / 4.0).abs() < 1e-15);
        }
    }

    #[test]
    fn mtcd_seed_share_weighted_by_inverse_class() {
        // A seed with μ/2 serves torrent 0; two downloaders compete: one of
        // class 1 (weight 1) and one of class 4 (weight 1/4).
        let mut seeder = peer(0, vec![0, 5]);
        seeder.remaining[0] = 0.0;
        seeder.seed_until[0] = Some(100.0);
        let d1 = peer(1, vec![0]);
        let d4 = peer(2, vec![0, 1, 2, 3]);
        let peers = vec![seeder, d1, d4];
        let snap = compute_rates(&peers, SchemeKind::Mtcd, &params(), 10, 0);
        let pool = 0.02 / 2.0; // seeder of class 2
        let total_w = 1.0 + 0.25;
        let r1 = snap
            .downloads
            .iter()
            .find(|d| d.peer_idx == 1)
            .unwrap()
            .rate;
        let r4 = snap
            .downloads
            .iter()
            .find(|d| d.peer_idx == 2 && d.slot == 0)
            .unwrap()
            .rate;
        assert!((r1 - (0.5 * 0.02 + 1.0 / total_w * pool)).abs() < 1e-15);
        assert!((r4 - (0.5 * 0.02 / 4.0 + 0.25 / total_w * pool)).abs() < 1e-15);
        // The seeder still downloads its unfinished slot 1.
        assert!(snap
            .downloads
            .iter()
            .any(|d| d.peer_idx == 0 && d.slot == 1));
    }

    #[test]
    fn mtcd_seed_bandwidth_stays_pinned_to_its_torrent() {
        // An MTCD virtual seed of torrent 0 idles when torrent 0 has no
        // downloaders — it cannot redirect to torrent 5.
        let mut seeder = peer(0, vec![0, 5]);
        seeder.remaining = vec![0.0, 0.0];
        seeder.seed_until = vec![Some(100.0), None];
        seeder.phase = Phase::SeedingAll;
        let other = peer(1, vec![5]);
        let peers = vec![seeder, other];
        let snap = compute_rates(&peers, SchemeKind::Mtcd, &params(), 10, 0);
        let r = snap
            .downloads
            .iter()
            .find(|d| d.peer_idx == 1)
            .unwrap()
            .rate;
        assert!((r - 0.01).abs() < 1e-15, "only TFT: {r}");
    }

    #[test]
    fn cmfsd_first_file_full_tft() {
        let mut p = peer(0, vec![2, 7]);
        p.rho = 0.3;
        let peers = vec![p];
        let snap = compute_rates(&peers, SchemeKind::Cmfsd { rho: 0.3 }, &params(), 10, 0);
        // No finished file yet: P = 1 → η·μ.
        assert!((snap.downloads[0].rate - 0.01).abs() < 1e-15);
        assert_eq!(snap.donations[0], 0.0);
    }

    #[test]
    fn cmfsd_partial_seed_splits_upload() {
        // Peer A finished slot 0, downloading slot 1; its virtual seed can
        // only serve file 2, where peer B downloads.
        let mut a = peer(0, vec![2, 7]);
        a.rho = 0.25;
        a.remaining[0] = 0.0;
        a.completed_at[0] = Some(1.0);
        a.cursor = 1;
        let b = peer(1, vec![2]);
        let peers = vec![a, b];
        let snap = compute_rates(&peers, SchemeKind::Cmfsd { rho: 0.25 }, &params(), 10, 0);
        // A's download: η·ρμ (nobody serves file 7).
        let ra = snap.downloads.iter().find(|d| d.peer_idx == 0).unwrap();
        assert!((ra.rate - 0.5 * 0.25 * 0.02).abs() < 1e-15);
        // B gets η·μ TFT + A's donated (1−ρ)μ as vs_rate.
        let rb = snap.downloads.iter().find(|d| d.peer_idx == 1).unwrap();
        let donated = 0.75 * 0.02;
        assert!((rb.rate - (0.01 + donated)).abs() < 1e-15);
        assert!((rb.vs_rate - donated).abs() < 1e-15);
        assert!((snap.donations[0] - donated).abs() < 1e-15);
    }

    #[test]
    fn cmfsd_virtual_seed_is_demand_aware() {
        // A has finished files 2 and 7. File 2 has two downloaders, file 7
        // has one — the donated bandwidth splits 2:1 by weight.
        let mut a = peer(0, vec![2, 7, 9]);
        a.rho = 0.0;
        a.remaining[0] = 0.0;
        a.remaining[1] = 0.0;
        a.completed_at[0] = Some(1.0);
        a.completed_at[1] = Some(2.0);
        a.cursor = 2;
        let b = peer(1, vec![2]);
        let c = peer(2, vec![2]);
        let d = peer(3, vec![7]);
        let peers = vec![a, b, c, d];
        let snap = compute_rates(&peers, SchemeKind::Cmfsd { rho: 0.0 }, &params(), 10, 0);
        let donated = 0.02;
        // Demand: weight(file 2) = 2, weight(file 7) = 1 → 2/3 vs 1/3.
        let rb = snap.downloads.iter().find(|x| x.peer_idx == 1).unwrap();
        assert!((rb.vs_rate - donated * (2.0 / 3.0) / 2.0).abs() < 1e-15);
        let rd = snap.downloads.iter().find(|x| x.peer_idx == 3).unwrap();
        assert!((rd.vs_rate - donated * (1.0 / 3.0)).abs() < 1e-15);
        assert!((snap.donations[0] - donated).abs() < 1e-15);
    }

    #[test]
    fn cmfsd_idle_virtual_seed_not_counted_as_donation() {
        // A's only finished file has no downloaders: capacity idles and Δ
        // accounting sees no donation.
        let mut a = peer(0, vec![2, 7]);
        a.rho = 0.0;
        a.remaining[0] = 0.0;
        a.completed_at[0] = Some(1.0);
        a.cursor = 1;
        let peers = vec![a];
        let snap = compute_rates(&peers, SchemeKind::Cmfsd { rho: 0.0 }, &params(), 10, 0);
        assert_eq!(snap.donations[0], 0.0);
    }

    #[test]
    fn cmfsd_real_seed_demand_aware_over_its_files() {
        let mut s = peer(0, vec![2, 7]);
        s.remaining = vec![0.0, 0.0];
        s.completed_at = vec![Some(1.0), Some(2.0)];
        s.phase = Phase::SeedingAll;
        let b = peer(1, vec![2]);
        let peers = vec![s, b];
        let snap = compute_rates(&peers, SchemeKind::Cmfsd { rho: 0.5 }, &params(), 10, 0);
        // Only file 2 has demand: the WHOLE μ goes there.
        let rb = snap.downloads.iter().find(|d| d.peer_idx == 1).unwrap();
        assert!((rb.rate - (0.01 + 0.02)).abs() < 1e-15);
        assert_eq!(rb.vs_rate, 0.0);
    }

    #[test]
    fn bandwidth_conservation_per_subtorrent() {
        // Sum of downloader rates in a subtorrent equals η·Σ uploads + pools.
        let mut a = peer(0, vec![0, 1, 2]);
        a.rho = 0.4;
        a.remaining[0] = 0.0;
        a.completed_at[0] = Some(1.0);
        a.cursor = 1;
        let b = peer(1, vec![1]);
        let c = peer(2, vec![1, 2]);
        let peers = vec![a, b, c];
        let snap = compute_rates(&peers, SchemeKind::Cmfsd { rho: 0.4 }, &params(), 10, 0);
        // Total received must equal η·ΣTFT + Σ consumed donations.
        let total_received: f64 = snap.downloads.iter().map(|d| d.rate).sum();
        let eta = 0.5;
        let tft = eta * (0.4 * 0.02 + 0.02 + 0.02);
        let donations: f64 = snap.donations.iter().sum();
        assert!(
            (total_received - (tft + donations)).abs() < 1e-12,
            "received {total_received} vs capacity {}",
            tft + donations
        );
    }

    #[test]
    fn departed_peers_contribute_nothing() {
        let mut p = peer(0, vec![1]);
        p.phase = Phase::Departed;
        let snap = compute_rates(&[p], SchemeKind::Mtcd, &params(), 10, 0);
        assert!(snap.downloads.is_empty());
    }

    #[test]
    fn mfcd_finished_slots_keep_seeding_until_departure() {
        let mut p = peer(0, vec![0, 1]);
        p.remaining[0] = 0.0;
        p.completed_at[0] = Some(5.0);
        p.seed_until[0] = Some(f64::INFINITY); // engine sets departure later
        let q = peer(1, vec![0]);
        let peers = vec![p, q];
        let snap = compute_rates(&peers, SchemeKind::Mfcd, &params(), 10, 0);
        let rq = snap
            .downloads
            .iter()
            .find(|d| d.peer_idx == 1)
            .unwrap()
            .rate;
        // q: η·μ + the virtual seed's μ/2.
        assert!((rq - (0.01 + 0.01)).abs() < 1e-15);
    }
}
