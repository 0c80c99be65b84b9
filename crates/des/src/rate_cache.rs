//! Incremental rate maintenance: per-subtorrent aggregates kept up to date
//! event-by-event instead of rebuilt from scratch.
//!
//! [`crate::rate::compute_rates`] rebuilds `weight`, `pool_real`,
//! `pool_virtual` and every download rate from the whole population on
//! every call — O(peers) per event. [`RateCache`] maintains the same
//! aggregates incrementally: when a peer's membership changes (arrival,
//! completion, expiry, ρ update) the engine deregisters and re-registers
//! that one peer, which marks the affected subtorrents dirty; the
//! subsequent [`RateCache::refresh`] recomputes only dirty aggregates and
//! the downloads they feed.
//!
//! ## Bit-exactness contract
//!
//! Every aggregate is recomputed by re-summing an ordered member list that
//! reproduces `compute_rates`' accumulation order (peers ascending by slab
//! index, slots in view order within a peer, the origin publisher first in
//! every pool). A recompute of an *unchanged* aggregate therefore yields
//! the identical bit pattern, which is what makes the engine's
//! `exact_rates` mode (forced full recompute every event) and the default
//! incremental mode produce bit-identical trajectories: the only
//! difference between the modes is how much provably-unchanged work is
//! redone.
//!
//! Change detection is by `f64::to_bits` comparison, and a changed rate
//! triggers lazy settlement of the affected download
//! ([`crate::peer::Peer::settle_slot`]) before the new rate is stored, so
//! progress accrual is exact piecewise-linear integration in both modes.
//!
//! ## Dirty propagation
//!
//! * A membership change on subtorrent `f` marks `weight[f]` dirty.
//! * A bit-changed `weight[f]` invalidates: `f`'s own pools, the pools of
//!   every file served by any source that also serves `f` (their
//!   demand-aware split changed), and — when a demand-aware origin
//!   publisher exists (MFCD/CMFSD) — every pool (the global demand
//!   changed).
//! * Download rates are recomputed for every member of a subtorrent whose
//!   weight or pools bit-changed, plus every active slot of a peer touched
//!   this round (its TFT upload `u` can change with no weight change,
//!   e.g. a CMFSD peer finishing its first file at unchanged weight 1).
//! * Donation rates are recomputed for touched peers and for owners of
//!   sources serving a pool-dirty file.
//!
//! Each seed source's demand `Σ weight` over the files it serves is
//! summed once per refresh into the source table and shared by every
//! pool it feeds and by its owner's donation rate.
//!
//! ## Completion heads
//!
//! A changed rate re-arms its download's completion deadline on the peer
//! (`comp_stamp`/`comp_time`) and on its member entry. The cache keeps,
//! per subtorrent, the earliest armed deadline — its [`Head`], ties broken
//! by `(peer, slot)` — and [`RateCache::refresh`] reports the files whose
//! head moved, so the engine's event heap holds one completion entry per
//! subtorrent instead of one per download. The pass that recomputes a
//! file's rates visits every member anyway and takes the minimum as it
//! goes. A file reached only through touched peers takes an earlier
//! deadline as its head directly and rescans its members only when its
//! head's download was deregistered (it may have moved later or left) or
//! its entry was popped.

use crate::config::SchemeKind;
use crate::peer::{Peer, Phase};
use crate::rate::{ActiveDownload, RateSnapshot};
use btfluid_core::FluidParams;

/// One downloader membership in a subtorrent's member list.
#[derive(Debug, Clone, Copy)]
struct Member {
    peer: u32,
    slot: u32,
    /// TFT upload bandwidth `u` of this download.
    u: f64,
    /// Downloader weight `w` of this download.
    w: f64,
    /// The download's armed completion deadline (`Peer::comp_time`), +∞
    /// while none is armed.
    due: f64,
}

/// Reference to one seed source in a subtorrent's source list: the
/// owner's `ord`-th source, stored at `srcs[id]`. Lists sort by
/// `(peer, ord)`, the order `compute_rates` accumulates pools in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SourceRef {
    peer: u32,
    ord: u32,
    id: u32,
}

/// A seed capacity source owned by one peer, split demand-aware over
/// its files.
#[derive(Debug, Clone, Default)]
struct Source {
    files: Vec<usize>,
    bandwidth: f64,
    is_virtual: bool,
    /// `Σ weight` over `files`, valid while `demand_pass` equals the
    /// cache's refresh count.
    demand: f64,
    demand_pass: u64,
}

/// What one peer currently has registered in the cache.
#[derive(Debug, Default)]
struct PeerReg {
    /// Active downloads `(slot, file, u, w)` in view order.
    active: Vec<(u32, u32, f64, f64)>,
    /// Ids of its seed sources in the source table, in view order.
    sources: Vec<u32>,
    registered: bool,
}

/// A subtorrent's earliest armed completion: the download due first,
/// ties broken by `(peer, slot)` — the order the event heap pops
/// equal-time completions in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Head {
    /// Completion deadline (the download's `Peer::comp_time`).
    pub due: f64,
    /// Slab index of the downloading peer.
    pub peer: u32,
    /// The peer's slot.
    pub slot: u32,
    /// Stamp of the head's event-queue entry; 0 when no download of the
    /// file is armed.
    pub stamp: u64,
}

impl Head {
    /// No armed download.
    const NONE: Head = Head {
        due: f64::INFINITY,
        peer: u32::MAX,
        slot: u32::MAX,
        stamp: 0,
    };

    /// Whether download `(peer, slot)` due at `due` comes before this
    /// head, and so takes its place.
    fn yields_to(&self, due: f64, peer: u32, slot: u32) -> bool {
        due < self.due || (due == self.due && (peer, slot) < (self.peer, self.slot))
    }

    fn is(&self, peer: u32, slot: u32) -> bool {
        self.peer == peer && self.slot == slot
    }
}

/// Adds `i` to a dirty list unless its flag says it is already there.
fn mark(list: &mut Vec<usize>, flag: &mut [bool], i: usize) {
    if !flag[i] {
        flag[i] = true;
        list.push(i);
    }
}

/// Clears a dirty list and its flags.
fn clear(list: &mut Vec<usize>, flag: &mut [bool]) {
    for &i in list.iter() {
        flag[i] = false;
    }
    list.clear();
}

/// Incrementally maintained per-subtorrent rate aggregates.
///
/// Protocol (driven by the engine around every event):
/// 1. [`RateCache::deregister`] each peer whose state the event mutates;
/// 2. mutate the peer;
/// 3. [`RateCache::register`] it again;
/// 4. call [`RateCache::refresh`] once, which settles and updates every
///    download whose rate actually changed, re-arms its deadline and
///    reports the subtorrents whose [`Head`] moved.
#[derive(Debug)]
pub struct RateCache {
    k: usize,
    scheme: SchemeKind,
    mu: f64,
    eta: f64,
    /// Aggregate origin-publisher bandwidth (0 when there are none).
    origin_bw: f64,
    /// Whether the origin splits demand-aware over subtorrents
    /// (MFCD/CMFSD) rather than pinning μ per torrent (MTSD/MTCD).
    origin_demand_aware: bool,
    weight: Vec<f64>,
    pool_real: Vec<f64>,
    pool_virtual: Vec<f64>,
    /// Per file: downloader members sorted by (peer, slot).
    downloaders: Vec<Vec<Member>>,
    /// Per file: seed sources serving it, sorted by (peer, ord).
    sources: Vec<Vec<SourceRef>>,
    /// Source table indexed by [`SourceRef::id`]; `free_srcs` lists the
    /// ids of deregistered sources for reuse.
    srcs: Vec<Source>,
    free_srcs: Vec<u32>,
    reg: Vec<PeerReg>,
    /// Per file: the earliest armed completion.
    heads: Vec<Head>,
    /// Heads with a queue entry (non-zero stamp).
    armed_heads: usize,
    /// Last head stamp handed out (stamps are unique across files).
    head_stamp: u64,
    /// Refreshes that did work; dates the source table's demand sums.
    pass: u64,
    // Dirty tracking (list + flag pairs so marking is O(1) amortized).
    dirty_w: Vec<usize>,
    dirty_w_flag: Vec<bool>,
    dirty_p: Vec<usize>,
    dirty_p_flag: Vec<bool>,
    touched: Vec<usize>,
    touched_flag: Vec<bool>,
    /// Files whose head must be found again by scanning the members.
    rescan: Vec<usize>,
    rescan_flag: Vec<bool>,
    /// Files whose head changed this refresh.
    moved_flag: Vec<bool>,
    // Scratch reused across refreshes.
    wc: Vec<usize>,
    pd: Vec<usize>,
    pd_flag: Vec<bool>,
    rate_files: Vec<usize>,
    rate_flag: Vec<bool>,
    owners: Vec<usize>,
    owner_flag: Vec<bool>,
    // Telemetry (drained via `take_stats`, never read by the cache).
    /// Download-rate recomputations performed since the last drain.
    stat_recomputes: u64,
    /// Refreshes satisfied by the early return (nothing dirty).
    stat_clean: u64,
}

impl RateCache {
    /// Creates an empty cache for `k` subtorrents.
    ///
    /// `origin_seeds` has the same meaning as in
    /// [`crate::rate::compute_rates`].
    pub fn new(k: usize, scheme: SchemeKind, params: &FluidParams, origin_seeds: usize) -> Self {
        let origin_bw = if origin_seeds > 0 {
            origin_seeds as f64 * params.mu()
        } else {
            0.0
        };
        RateCache {
            k,
            scheme,
            mu: params.mu(),
            eta: params.eta(),
            origin_bw,
            origin_demand_aware: matches!(scheme, SchemeKind::Mfcd | SchemeKind::Cmfsd { .. }),
            weight: vec![0.0; k],
            pool_real: vec![0.0; k],
            pool_virtual: vec![0.0; k],
            downloaders: vec![Vec::new(); k],
            sources: vec![Vec::new(); k],
            srcs: Vec::new(),
            free_srcs: Vec::new(),
            reg: Vec::new(),
            heads: vec![Head::NONE; k],
            armed_heads: 0,
            head_stamp: 0,
            pass: 0,
            dirty_w: Vec::new(),
            dirty_w_flag: vec![false; k],
            dirty_p: Vec::new(),
            dirty_p_flag: vec![false; k],
            touched: Vec::new(),
            touched_flag: Vec::new(),
            rescan: Vec::new(),
            rescan_flag: vec![false; k],
            moved_flag: vec![false; k],
            wc: Vec::new(),
            pd: Vec::new(),
            pd_flag: vec![false; k],
            rate_files: Vec::new(),
            rate_flag: vec![false; k],
            owners: Vec::new(),
            owner_flag: Vec::new(),
            stat_recomputes: 0,
            stat_clean: 0,
        }
    }

    /// Drains the telemetry accumulated since the last call:
    /// `(download-rate recomputations, clean refresh hits)`.
    pub fn take_stats(&mut self) -> (u64, u64) {
        let stats = (self.stat_recomputes, self.stat_clean);
        self.stat_recomputes = 0;
        self.stat_clean = 0;
        stats
    }

    /// Changes the origin-publisher count mid-run (scenario seed crash /
    /// recovery) and marks every pool dirty so the next [`Self::refresh`]
    /// redistributes the new bandwidth.
    ///
    /// Marking all pools (rather than diffing) keeps the bit-exactness
    /// contract trivially: the forced-recompute mode recomputes every pool
    /// anyway, and an incremental recompute of an unchanged pool is a
    /// bitwise no-op.
    pub fn set_origin_seeds(&mut self, origin_seeds: usize) {
        let bw = if origin_seeds > 0 {
            origin_seeds as f64 * self.mu
        } else {
            0.0
        };
        if bw.to_bits() == self.origin_bw.to_bits() {
            return;
        }
        self.origin_bw = bw;
        for f in 0..self.k {
            mark(&mut self.dirty_p, &mut self.dirty_p_flag, f);
        }
    }

    /// Grows per-peer bookkeeping to cover `n` peer slab slots.
    pub fn grow(&mut self, n: usize) {
        while self.reg.len() < n {
            self.reg.push(PeerReg::default());
        }
        if self.touched_flag.len() < n {
            self.touched_flag.resize(n, false);
        }
        if self.owner_flag.len() < n {
            self.owner_flag.resize(n, false);
        }
    }

    /// Removes a peer's current memberships from the aggregate structures
    /// and marks the affected subtorrents dirty. Does not settle — the
    /// engine settles the peer before calling this.
    pub fn deregister(&mut self, idx: usize, _peers: &[Peer]) {
        mark(&mut self.touched, &mut self.touched_flag, idx);
        let mut reg = std::mem::take(&mut self.reg[idx]);
        let peer = idx as u32;
        for &(slot, file, _u, _w) in &reg.active {
            let f = file as usize;
            let list = &mut self.downloaders[f];
            let pos = list
                .binary_search_by_key(&(peer, slot), |m| (m.peer, m.slot))
                .expect("deregistering a member that was never inserted");
            list.remove(pos);
            mark(&mut self.dirty_w, &mut self.dirty_w_flag, f);
            if self.heads[f].is(peer, slot) {
                mark(&mut self.rescan, &mut self.rescan_flag, f);
            }
        }
        for (ord, &id) in reg.sources.iter().enumerate() {
            let sref = SourceRef {
                peer,
                ord: ord as u32,
                id,
            };
            for &f in &self.srcs[id as usize].files {
                let list = &mut self.sources[f];
                let pos = list
                    .binary_search(&sref)
                    .expect("deregistering a source that was never inserted");
                list.remove(pos);
                mark(&mut self.dirty_p, &mut self.dirty_p_flag, f);
            }
            self.free_srcs.push(id);
        }
        // reg[idx] is left empty (registered = false) until re-registered.
        reg.active.clear();
        reg.sources.clear();
        reg.registered = false;
        self.reg[idx] = reg;
    }

    /// Computes the peer's current memberships (mirroring
    /// `crate::rate::view`) and inserts them, marking the affected
    /// subtorrents dirty. A slot the peer already has armed (a restored
    /// snapshot) joins with its deadline.
    pub fn register(&mut self, idx: usize, peers: &[Peer]) {
        mark(&mut self.touched, &mut self.touched_flag, idx);
        let peer = &peers[idx];
        debug_assert!(!self.reg[idx].registered, "double registration");
        let mut reg = std::mem::take(&mut self.reg[idx]);
        reg.registered = true;
        self.fill_membership(peer, &mut reg);
        let p = idx as u32;
        for &(slot, file, u, w) in &reg.active {
            let f = file as usize;
            let s = slot as usize;
            let due = if peer.comp_stamp[s] != 0 {
                peer.comp_time[s]
            } else {
                f64::INFINITY
            };
            let list = &mut self.downloaders[f];
            let pos = list
                .binary_search_by_key(&(p, slot), |m| (m.peer, m.slot))
                .expect_err("duplicate downloader membership");
            list.insert(
                pos,
                Member {
                    peer: p,
                    slot,
                    u,
                    w,
                    due,
                },
            );
            mark(&mut self.dirty_w, &mut self.dirty_w_flag, f);
            if due < f64::INFINITY {
                mark(&mut self.rescan, &mut self.rescan_flag, f);
            }
        }
        for (ord, &id) in reg.sources.iter().enumerate() {
            let sref = SourceRef {
                peer: p,
                ord: ord as u32,
                id,
            };
            for &f in &self.srcs[id as usize].files {
                let list = &mut self.sources[f];
                let pos = list
                    .binary_search(&sref)
                    .expect_err("duplicate source membership");
                list.insert(pos, sref);
                mark(&mut self.dirty_p, &mut self.dirty_p_flag, f);
            }
        }
        self.reg[idx] = reg;
    }

    /// Stores a source in the table (reusing a freed id) and appends its
    /// id to the peer's source list.
    fn add_source(
        &mut self,
        reg: &mut PeerReg,
        files: impl IntoIterator<Item = usize>,
        bandwidth: f64,
        is_virtual: bool,
    ) {
        let id = match self.free_srcs.pop() {
            Some(id) => id,
            None => {
                self.srcs.push(Source::default());
                (self.srcs.len() - 1) as u32
            }
        };
        let src = &mut self.srcs[id as usize];
        src.files.clear();
        src.files.extend(files);
        src.bandwidth = bandwidth;
        src.is_virtual = is_virtual;
        src.demand_pass = 0;
        reg.sources.push(id);
    }

    /// Mirrors `crate::rate::view`: what the peer contributes under the
    /// configured scheme, in the same order.
    fn fill_membership(&mut self, peer: &Peer, reg: &mut PeerReg) {
        let mu = self.mu;
        let class = peer.class() as f64;
        match self.scheme {
            SchemeKind::Mtsd => match peer.phase {
                Phase::Downloading => {
                    let slot = peer.current_slot();
                    reg.active
                        .push((slot as u32, peer.files[slot] as u32, mu, 1.0));
                }
                Phase::SeedingFile(slot) => {
                    self.add_source(reg, [peer.files[slot] as usize], mu, false);
                }
                Phase::SeedingAll | Phase::Departed => {}
            },
            SchemeKind::Mtcd | SchemeKind::Mfcd => {
                if peer.phase == Phase::Departed {
                    return;
                }
                let share = mu / class;
                for slot in 0..peer.class() {
                    if !peer.finished(slot) {
                        reg.active
                            .push((slot as u32, peer.files[slot] as u32, share, 1.0 / class));
                    } else if peer.seed_until[slot].is_some() {
                        self.add_source(reg, [peer.files[slot] as usize], share, false);
                    }
                }
            }
            SchemeKind::Cmfsd { .. } => match peer.phase {
                Phase::Downloading => {
                    let slot = peer.current_slot();
                    if peer.done_count() >= 1 {
                        let rho = peer.rho;
                        reg.active
                            .push((slot as u32, peer.files[slot] as u32, rho * mu, 1.0));
                        let donated = (1.0 - rho) * mu;
                        if donated > 0.0 {
                            let files = (0..peer.class())
                                .filter(|&s| peer.finished(s))
                                .map(|s| peer.files[s] as usize);
                            self.add_source(reg, files, donated, true);
                        }
                    } else {
                        reg.active
                            .push((slot as u32, peer.files[slot] as u32, mu, 1.0));
                    }
                }
                Phase::SeedingAll => {
                    let files = peer.files.iter().map(|&f| f as usize);
                    self.add_source(reg, files, mu, false);
                }
                Phase::SeedingFile(_) | Phase::Departed => {}
            },
        }
    }

    /// Recomputes dirty aggregates and updates the rates they feed,
    /// settling every download/donation whose rate bit-changes before the
    /// new value is stored on the peer.
    ///
    /// With `force` the full recompute path of the seed engine is
    /// replayed: every weight, pool, and rate is recomputed (and, by the
    /// ordered-resummation argument in the module docs, every unchanged
    /// one reproduces its cached bits). A changed rate re-arms the
    /// download's deadline, drawing fresh deadline stamps from
    /// `next_stamp`. `moved` receives every subtorrent whose [`Head`]
    /// changed; its new head carries a fresh stamp (0 when nothing is
    /// armed on it).
    pub fn refresh(
        &mut self,
        peers: &mut [Peer],
        t: f64,
        force: bool,
        next_stamp: &mut u64,
        moved: &mut Vec<usize>,
    ) {
        moved.clear();
        if !force
            && self.dirty_w.is_empty()
            && self.dirty_p.is_empty()
            && self.touched.is_empty()
            && self.rescan.is_empty()
        {
            self.stat_clean += 1;
            return;
        }
        self.pass += 1;

        // Pass 1: weights. `wc` collects the bit-changed files.
        self.wc.clear();
        if force {
            for f in 0..self.k {
                self.recompute_weight(f);
            }
        } else {
            let dirty = std::mem::take(&mut self.dirty_w);
            for &f in &dirty {
                self.recompute_weight(f);
            }
            self.dirty_w = dirty;
        }

        // Pass 2: the pool-dirty set `pd` (marking stops once it holds
        // every file; the order files entered it is kept).
        self.pd.clear();
        if force {
            for f in 0..self.k {
                mark(&mut self.pd, &mut self.pd_flag, f);
            }
        } else {
            for &f in &self.dirty_p {
                mark(&mut self.pd, &mut self.pd_flag, f);
            }
            'mark: for &f in &self.wc {
                if self.pd.len() == self.k {
                    break;
                }
                mark(&mut self.pd, &mut self.pd_flag, f);
                // Sources serving a weight-changed file redistribute their
                // bandwidth over all their files.
                for sref in &self.sources[f] {
                    for &g in &self.srcs[sref.id as usize].files {
                        mark(&mut self.pd, &mut self.pd_flag, g);
                        if self.pd.len() == self.k {
                            break 'mark;
                        }
                    }
                }
            }
            if self.origin_demand_aware && self.origin_bw > 0.0 && !self.wc.is_empty() {
                for f in 0..self.k {
                    mark(&mut self.pd, &mut self.pd_flag, f);
                }
            }
        }

        // Pass 3: pools, collecting donation owners along the way. Each
        // source's demand is summed once and dated with `pass`.
        self.owners.clear();
        for &p in &self.touched {
            mark(&mut self.owners, &mut self.owner_flag, p);
        }
        let origin_demand: f64 = if self.origin_demand_aware && self.origin_bw > 0.0 {
            self.weight.iter().sum()
        } else {
            0.0
        };
        for &f in &self.pd {
            let wf = self.weight[f];
            let mut pr = 0.0;
            let mut pv = 0.0;
            if self.origin_bw > 0.0 {
                if self.origin_demand_aware {
                    if origin_demand > 0.0 && wf > 0.0 {
                        pr += self.origin_bw * wf / origin_demand;
                    }
                } else {
                    pr += self.origin_bw;
                }
            }
            for sref in &self.sources[f] {
                let src = &mut self.srcs[sref.id as usize];
                if src.demand_pass != self.pass {
                    src.demand = src.files.iter().map(|&g| self.weight[g]).sum();
                    src.demand_pass = self.pass;
                }
                if src.is_virtual {
                    mark(&mut self.owners, &mut self.owner_flag, sref.peer as usize);
                }
                if src.demand <= 0.0 {
                    continue;
                }
                if wf > 0.0 {
                    let share = src.bandwidth * wf / src.demand;
                    if src.is_virtual {
                        pv += share;
                    } else {
                        pr += share;
                    }
                }
            }
            if pr.to_bits() != self.pool_real[f].to_bits()
                || pv.to_bits() != self.pool_virtual[f].to_bits()
            {
                self.pool_real[f] = pr;
                self.pool_virtual[f] = pv;
                mark(&mut self.rate_files, &mut self.rate_flag, f);
            }
        }

        // Pass 4: download rates for members of weight- or pool-changed
        // files plus all active slots of touched peers. Under `force` the
        // seed engine's full pass is replayed: every rate is recomputed
        // (unchanged ones are bitwise no-ops and trigger nothing).
        if force {
            for f in 0..self.k {
                mark(&mut self.rate_files, &mut self.rate_flag, f);
            }
        }
        for &f in &self.wc {
            mark(&mut self.rate_files, &mut self.rate_flag, f);
        }
        let mut recomputed = 0u64;
        for i in 0..self.rate_files.len() {
            let f = self.rate_files[i];
            recomputed += self.downloaders[f].len() as u64;
            // Every member is visited: its minimum deadline is the head.
            let mut head = Head::NONE;
            for j in 0..self.downloaders[f].len() {
                let m = self.downloaders[f][j];
                let due =
                    match self.recompute_rate(peers, t, m.peer, m.slot, f, m.u, m.w, next_stamp) {
                        Some(due) => {
                            self.downloaders[f][j].due = due;
                            due
                        }
                        None => m.due,
                    };
                if due < head.due {
                    head = Head {
                        due,
                        peer: m.peer,
                        slot: m.slot,
                        stamp: 0,
                    };
                }
            }
            self.settle_head(f, head);
        }
        for i in 0..self.touched.len() {
            let p = self.touched[i];
            recomputed += self.reg[p].active.len() as u64;
            for j in 0..self.reg[p].active.len() {
                let (slot, file, u, w) = self.reg[p].active[j];
                let f = file as usize;
                let Some(due) = self.recompute_rate(peers, t, p as u32, slot, f, u, w, next_stamp)
                else {
                    continue;
                };
                // A rate file's members were just recomputed against the
                // same aggregates, so in practice only files reached
                // through touched peers alone change here.
                let pos = self.downloaders[f]
                    .binary_search_by_key(&(p as u32, slot), |m| (m.peer, m.slot))
                    .expect("touched download is a member");
                self.downloaders[f][pos].due = due;
                self.note_due(f, p as u32, slot, due);
            }
        }
        self.stat_recomputes += recomputed;
        // Heads whose download left or whose entry was popped, unless the
        // rate pass already scanned the file.
        for i in 0..self.rescan.len() {
            let f = self.rescan[i];
            if self.rate_flag[f] {
                continue;
            }
            let mut head = Head::NONE;
            for m in &self.downloaders[f] {
                if m.due < head.due {
                    head = Head {
                        due: m.due,
                        peer: m.peer,
                        slot: m.slot,
                        stamp: 0,
                    };
                }
            }
            self.settle_head(f, head);
        }

        // Pass 5: donation rates for owners, from the demands of pass 3.
        if force {
            for p in 0..self.reg.len() {
                mark(&mut self.owners, &mut self.owner_flag, p);
            }
        }
        for &p in &self.owners {
            let mut dr = 0.0;
            for &id in &self.reg[p].sources {
                let src = &self.srcs[id as usize];
                if !src.is_virtual {
                    continue;
                }
                let demand: f64 = if src.demand_pass == self.pass {
                    src.demand
                } else {
                    src.files.iter().map(|&g| self.weight[g]).sum()
                };
                if demand > 0.0 {
                    dr += src.bandwidth;
                }
            }
            let peer = &mut peers[p];
            if dr.to_bits() != peer.donation_rate.to_bits() {
                peer.settle_donation(t);
                peer.donation_rate = dr;
            }
        }

        // Publish the moved heads under fresh stamps.
        for f in 0..self.k {
            if !self.moved_flag[f] {
                continue;
            }
            self.moved_flag[f] = false;
            let head = &mut self.heads[f];
            if head.stamp != 0 {
                self.armed_heads -= 1;
            }
            if head.due < f64::INFINITY {
                self.head_stamp += 1;
                head.stamp = self.head_stamp;
                self.armed_heads += 1;
            } else {
                *head = Head::NONE;
            }
            moved.push(f);
        }

        // Reset dirty/scratch state for the next round.
        clear(&mut self.dirty_w, &mut self.dirty_w_flag);
        clear(&mut self.dirty_p, &mut self.dirty_p_flag);
        clear(&mut self.touched, &mut self.touched_flag);
        clear(&mut self.rescan, &mut self.rescan_flag);
        clear(&mut self.pd, &mut self.pd_flag);
        clear(&mut self.rate_files, &mut self.rate_flag);
        clear(&mut self.owners, &mut self.owner_flag);
        self.wc.clear();
    }

    /// Installs a freshly computed head for `f` when it differs from the
    /// current one.
    fn settle_head(&mut self, f: usize, head: Head) {
        let cur = &mut self.heads[f];
        if cur.due.to_bits() != head.due.to_bits() || !cur.is(head.peer, head.slot) {
            *cur = Head {
                stamp: cur.stamp,
                ..head
            };
            self.moved_flag[f] = true;
        }
    }

    /// Folds a touched download's new deadline into its file's head
    /// without a scan: an earlier deadline takes the head. (A head whose
    /// own download moved later or disarmed was deregistered first, which
    /// queued its file for a rescan.)
    fn note_due(&mut self, f: usize, peer: u32, slot: u32, due: f64) {
        let cur = self.heads[f];
        if cur.yields_to(due, peer, slot) {
            self.heads[f] = Head {
                due,
                peer,
                slot,
                stamp: cur.stamp,
            };
            self.moved_flag[f] = true;
        }
    }

    /// Re-sums `weight[f]` over the ordered member list; records a bit
    /// change in `wc`.
    fn recompute_weight(&mut self, f: usize) {
        let s: f64 = self.downloaders[f].iter().map(|m| m.w).sum();
        if s.to_bits() != self.weight[f].to_bits() {
            self.weight[f] = s;
            self.wc.push(f);
        }
    }

    /// Recomputes one download's rate with the exact float expression of
    /// `compute_rates`. On a bit change it settles the slot, stores the
    /// rate and re-arms the completion deadline, returning the new
    /// deadline (+∞ when the download cannot progress); `None` when the
    /// rate is unchanged.
    ///
    /// A deadline that moved earlier (or a first arming) takes a fresh
    /// stamp from `next_stamp`; one that stayed or moved later keeps its
    /// stamp and only records the new time.
    #[allow(clippy::too_many_arguments)]
    fn recompute_rate(
        &self,
        peers: &mut [Peer],
        t: f64,
        p: u32,
        slot: u32,
        f: usize,
        u: f64,
        w: f64,
        next_stamp: &mut u64,
    ) -> Option<f64> {
        let share = if self.weight[f] > 0.0 {
            w / self.weight[f]
        } else {
            0.0
        };
        let from_real = share * self.pool_real[f];
        let from_virtual = share * self.pool_virtual[f];
        let rate = self.eta * u + from_real + from_virtual;
        let peer = &mut peers[p as usize];
        let s = slot as usize;
        if rate.to_bits() == peer.rate[s].to_bits()
            && from_virtual.to_bits() == peer.vs_rate[s].to_bits()
        {
            return None;
        }
        peer.settle_slot(s, t);
        peer.rate[s] = rate;
        peer.vs_rate[s] = from_virtual;
        if !(rate > 0.0 && peer.remaining[s] > 0.0) {
            peer.comp_stamp[s] = 0;
            return Some(f64::INFINITY);
        }
        let time = t + peer.remaining[s] / rate;
        if peer.comp_stamp[s] == 0 || time < peer.comp_time[s] {
            peer.comp_stamp[s] = *next_stamp;
            *next_stamp += 1;
        }
        peer.comp_time[s] = time;
        Some(time)
    }

    /// The earliest armed completion of subtorrent `f`.
    pub fn head(&self, f: usize) -> Head {
        self.heads[f]
    }

    /// Number of subtorrents with an armed head (one queue entry each).
    pub fn armed_heads(&self) -> usize {
        self.armed_heads
    }

    /// Drops `f`'s head after the engine popped its entry: the next
    /// [`Self::refresh`] finds and publishes the file's new head.
    pub fn consume_head(&mut self, f: usize) {
        if self.heads[f].stamp != 0 {
            self.armed_heads -= 1;
        }
        self.heads[f] = Head::NONE;
        mark(&mut self.rescan, &mut self.rescan_flag, f);
    }

    /// Current downloader weight per subtorrent.
    pub fn weight(&self) -> &[f64] {
        &self.weight
    }

    /// Current real-seed pool per subtorrent.
    pub fn pool_real(&self) -> &[f64] {
        &self.pool_real
    }

    /// Current virtual-seed pool per subtorrent.
    pub fn pool_virtual(&self) -> &[f64] {
        &self.pool_virtual
    }

    /// Materializes a [`RateSnapshot`] from the cached state (testing and
    /// verification; downloads in the same order `compute_rates` emits).
    pub fn snapshot(&self, peers: &[Peer]) -> RateSnapshot {
        let mut snap = RateSnapshot {
            downloads: Vec::new(),
            donations: vec![0.0; peers.len()],
        };
        for (idx, reg) in self.reg.iter().enumerate() {
            if idx >= peers.len() {
                break;
            }
            for &(slot, _f, _u, _w) in &reg.active {
                let s = slot as usize;
                snap.downloads.push(ActiveDownload {
                    peer_idx: idx,
                    slot: s,
                    rate: peers[idx].rate[s],
                    vs_rate: peers[idx].vs_rate[s],
                });
            }
            snap.donations[idx] = peers[idx].donation_rate;
        }
        snap
    }
}
