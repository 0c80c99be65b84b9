//! Incremental rate maintenance: per-subtorrent aggregates and virtual
//! clocks kept up to date event by event instead of rebuilt from scratch.
//!
//! [`crate::rate::compute_rates`] rebuilds `weight`, `pool_real`,
//! `pool_virtual` and every download rate from the whole population on
//! every call — O(peers) per event. [`RateCache`] maintains the same
//! aggregates incrementally: when a peer's membership changes (arrival,
//! completion, expiry, ρ update) the engine deregisters and re-registers
//! that one peer, which marks the affected subtorrents dirty; the
//! subsequent [`RateCache::refresh`] recomputes only dirty aggregates.
//!
//! ## Virtual clocks
//!
//! A download of subtorrent `f` with weight `w` and TFT upload `w·c`
//! progresses at `w·(η·c + ψ_f)`, where `ψ_f` is the file's pool per unit
//! weight (see [`crate::rate`]). This is generalized processor sharing,
//! and the cache tracks it with virtual time rather than per-download
//! settlement:
//!
//! * Each file keeps `Ψ_f = ∫ψ_f dt` and `Φ_f = ∫φ_f dt` (`φ_f` the
//!   virtual-seed pool per unit weight) as a `Clock`: their values at
//!   the anchor time plus the current `ψ_f`, `φ_f`. The clock is
//!   re-anchored exactly when `(ψ_f, φ_f)` changes in its bits.
//! * Downloads with the same `(f, c)` form a group with the clock
//!   `V(t) = η·c·t + Ψ_f(t)`. A download registered at `t₀` with remaining
//!   work `r` gets the finish tag `F = V(t₀) + r/w` (stored on the peer);
//!   its remaining work at `t` is `w·(F − V(t))` and it completes when
//!   `V` reaches `F`. Pool changes move `V`'s slope, never a tag.
//! * Each group keeps its members ordered by `(F, peer, slot)`. A due
//!   time is nondecreasing in the tag, so the group's earliest completion
//!   is found at the front: the least `(due, peer, slot)` over the members
//!   due when the least tag is (distinct tags can round to one due time).
//!   The file's head is the least of its groups' and the heads of all
//!   files sit in an `IndexedHeap`, so completions pop in the order a heap
//!   of every download's deadline would give.
//!
//! A pool change therefore costs one re-anchor and one due time per group
//! of the file, whatever the number of downloaders. Remaining work, rates
//! and received virtual-seed bandwidth are materialized from the tags
//! only when read: at deregistration (every touch), in audits, snapshots
//! and at the end of a run.
//!
//! ## Bit-exactness contract
//!
//! Every aggregate is a function of integer counts and ordered source
//! lists (see [`crate::rate`]), so a recompute of an *unchanged*
//! aggregate yields the identical bit pattern. The engine's
//! `exact_rates` mode (forced full recompute every event) feeds the same
//! clocks as the default incremental mode: a clock only moves when its
//! `(ψ, φ)` bits change, and due times are pure functions of the clock
//! anchor, the group's `η·c` and its least tag, never of the time they
//! were computed at. The two modes produce bit-identical trajectories.
//!
//! ## Dirty propagation
//!
//! * A membership change on subtorrent `f` marks `weight[f]` and the
//!   download's group dirty.
//! * A bit-changed `weight[f]` invalidates: `f`'s own pools, the pools of
//!   every file served by any demand-aware source that also serves `f`
//!   (their split changed), and — when a demand-aware origin publisher
//!   exists (MFCD/CMFSD) — every pool (the global demand changed).
//! * A bit-changed `(ψ_f, φ_f)` re-anchors `f`'s clock and marks all of
//!   its groups dirty; a dirty group recomputes its due time and its
//!   file's head.
//! * Donation rates are recomputed for touched peers and for owners of
//!   virtual sources whose demand started or stopped.
//!
//! Each demand-aware source's demand `Σ weight` over the files it serves
//! and its bandwidth per unit demand are computed once per refresh into
//! the source table and shared by every pool it feeds and by its owner's
//! donation rate.

use crate::config::SchemeKind;
pub use crate::event_queue::Head;
use crate::event_queue::{by_key_peer_slot, IndexedHeap};
use crate::peer::Peer;
use crate::rate::{
    count_add, count_sub, download_rate, file_pools, intensity, origin_share, per_weight,
    weight_of, weight_sum, ActiveDownload, Counts, RateSnapshot, View,
};
use btfluid_core::FluidParams;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// A subtorrent's pool integrals: `Ψ` and `Φ` at the anchor time, and the
/// rates they grow at since.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Clock {
    /// Time of the last re-anchoring.
    pub(crate) anchor: f64,
    /// `Ψ = ∫ψ` at the anchor.
    pub(crate) psi_acc: f64,
    /// `Φ = ∫φ` at the anchor.
    pub(crate) phi_acc: f64,
    /// Current pool bandwidth per unit downloader weight.
    pub(crate) psi: f64,
    /// Current virtual-seed bandwidth per unit downloader weight.
    pub(crate) phi: f64,
}

impl Clock {
    fn psi_at(&self, t: f64) -> f64 {
        self.psi_acc + self.psi * (t - self.anchor)
    }

    fn phi_at(&self, t: f64) -> f64 {
        self.phi_acc + self.phi * (t - self.anchor)
    }

    /// Group clock `V(t) = η·c·t + Ψ(t)`.
    fn v_at(&self, ec: f64, t: f64) -> f64 {
        ec * t + self.psi_at(t)
    }

    /// When a group with `ec = η·c` reaches `tag` (+∞ when its clock
    /// stands still). A function of the anchor, not of the current time.
    fn due(&self, ec: f64, tag: f64) -> f64 {
        let slope = ec + self.psi;
        if !(slope > 0.0) {
            return f64::INFINITY;
        }
        self.anchor + (tag - self.v_at(ec, self.anchor)) / slope
    }
}

/// A member of a group, ordered by finish tag, ties by `(peer, slot)`.
#[derive(Debug, Clone, Copy)]
struct Tag {
    tag: f64,
    peer: u32,
    slot: u32,
}

impl PartialEq for Tag {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Tag {}

impl PartialOrd for Tag {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tag {
    fn cmp(&self, other: &Self) -> Ordering {
        by_key_peer_slot(
            (self.tag, self.peer, self.slot),
            (other.tag, other.peer, other.slot),
        )
    }
}

/// The downloads of one subtorrent that share `c`, hence one clock.
#[derive(Debug, Clone)]
struct Group {
    file: u32,
    c: f64,
    /// `η·c`.
    ec: f64,
    members: BTreeSet<Tag>,
    /// The member that completes first ([`Head::NONE`] when none can).
    head: Head,
    dirty: bool,
}

impl Group {
    /// The least `(due, peer, slot)` over the members under `clock`. Due
    /// times are nondecreasing in the tag, so only the members due when
    /// the least tag is can tie with it: O(1 + ties).
    fn earliest(&self, clock: &Clock) -> Head {
        let mut head = Head::NONE;
        for m in &self.members {
            let due = clock.due(self.ec, m.tag);
            if !(due < f64::INFINITY) || (head.due < f64::INFINITY && due > head.due) {
                break;
            }
            let cand = Head {
                due,
                peer: m.peer,
                slot: m.slot,
            };
            if cand.before(&head) {
                head = cand;
            }
        }
        head
    }
}

/// One registered download.
#[derive(Debug, Clone, Copy)]
struct Member {
    slot: u32,
    file: u32,
    group: u32,
    /// Weight divisor (`w = 1/d`).
    d: u32,
}

/// Reference to one demand-aware seed source in a subtorrent's source
/// list: the owner's `ord`-th source, stored at `srcs[id]`. Lists sort by
/// `(peer, ord)`, the order `compute_rates` accumulates pools in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SourceRef {
    peer: u32,
    ord: u32,
    id: u32,
    is_virtual: bool,
}

/// A seed capacity source owned by one peer, split demand-aware over
/// its files.
#[derive(Debug, Clone, Default)]
struct Source {
    files: Vec<usize>,
    bandwidth: f64,
    is_virtual: bool,
    /// Slab index of the peer that owns it.
    owner: u32,
    /// `Σ weight` over `files` (its [`intensity`] is at
    /// `RateCache::intensity[id]`); recomputed whenever one of the files'
    /// weights changes.
    demand: f64,
    /// The refresh that last queued the demand for recomputation.
    demand_pass: u64,
}

/// What one peer currently has registered in the cache.
#[derive(Debug, Default)]
struct PeerReg {
    /// Downloads in view order.
    active: Vec<Member>,
    /// Pinned seeds `(file, d)`.
    pinned: Vec<(u32, u32)>,
    /// Ids of its demand-aware sources in the source table, in view order.
    sources: Vec<u32>,
    registered: bool,
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

/// Incrementally maintained per-subtorrent rate aggregates and clocks.
///
/// Protocol (driven by the engine around every event):
/// 1. [`RateCache::deregister`] each peer whose state the event mutates
///    (this folds its downloads' progress into the peer);
/// 2. mutate the peer;
/// 3. [`RateCache::register`] it again (fresh finish tags);
/// 4. call [`RateCache::refresh`] once, which updates the dirty
///    aggregates, re-anchors the clocks whose pools changed and moves the
///    completion heads.
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
    /// Per file: downloads by weight divisor (weight `1/d`).
    wcount: Vec<Counts>,
    /// Per file: pinned seeds by bandwidth divisor (bandwidth `μ/d`).
    pcount: Vec<Counts>,
    /// Per file: demand-aware sources serving it, sorted by (peer, ord).
    sources: Vec<Vec<SourceRef>>,
    /// Source table indexed by [`SourceRef::id`]; `free_srcs` lists the
    /// ids of deregistered sources for reuse.
    srcs: Vec<Source>,
    free_srcs: Vec<u32>,
    /// Bandwidth per unit demand of each source, parallel to `srcs`: the
    /// pool pass reads it once per (file, source) pair.
    intensity: Vec<f64>,
    /// Sources registered since the last refresh.
    new_srcs: Vec<u32>,
    /// Sources whose demand the current refresh recomputes.
    dirty_srcs: Vec<u32>,
    clocks: Vec<Clock>,
    /// Group slab; `free_groups` lists ids for reuse.
    groups: Vec<Group>,
    free_groups: Vec<u32>,
    /// Per file: `(c bits, group id)` of its groups, sorted by `c` bits.
    file_groups: Vec<Vec<(u64, u32)>>,
    /// Per-file completion heads.
    heads: IndexedHeap,
    reg: Vec<PeerReg>,
    view: View,
    /// Refreshes that did work; dates the source table's demand sums.
    pass: u64,
    // Dirty tracking (list + flag pairs so marking is O(1) amortized).
    dirty_w: Vec<usize>,
    dirty_w_flag: Vec<bool>,
    dirty_p: Vec<usize>,
    dirty_p_flag: Vec<bool>,
    touched: Vec<usize>,
    touched_flag: Vec<bool>,
    /// Groups whose due time must be recomputed (flag on the group).
    dirty_groups: Vec<u32>,
    /// Files whose head must be recomputed from their groups.
    head_files: Vec<usize>,
    head_flag: Vec<bool>,
    // Scratch reused across refreshes.
    wc: Vec<usize>,
    pd: Vec<usize>,
    pd_flag: Vec<bool>,
    owners: Vec<usize>,
    owner_flag: Vec<bool>,
    // Telemetry (drained via `take_stats`, never read by the cache).
    /// Rate evaluations (group due times and download registrations)
    /// since the last drain.
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
            wcount: vec![Vec::new(); k],
            pcount: vec![Vec::new(); k],
            sources: vec![Vec::new(); k],
            srcs: Vec::new(),
            free_srcs: Vec::new(),
            intensity: Vec::new(),
            new_srcs: Vec::new(),
            dirty_srcs: Vec::new(),
            clocks: vec![Clock::default(); k],
            groups: Vec::new(),
            free_groups: Vec::new(),
            file_groups: vec![Vec::new(); k],
            heads: IndexedHeap::new(k),
            reg: Vec::new(),
            view: View::default(),
            pass: 0,
            dirty_w: Vec::new(),
            dirty_w_flag: vec![false; k],
            dirty_p: Vec::new(),
            dirty_p_flag: vec![false; k],
            touched: Vec::new(),
            touched_flag: Vec::new(),
            dirty_groups: Vec::new(),
            head_files: Vec::new(),
            head_flag: vec![false; k],
            wc: Vec::new(),
            pd: Vec::new(),
            pd_flag: vec![false; k],
            owners: Vec::new(),
            owner_flag: Vec::new(),
            stat_recomputes: 0,
            stat_clean: 0,
        }
    }

    /// Drains the telemetry accumulated since the last call:
    /// `(rate evaluations, clean refresh hits)`. A rate evaluation is one
    /// group due time or one download registration.
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

    /// Whether peer `idx` currently has its memberships registered.
    pub fn is_registered(&self, idx: usize) -> bool {
        self.reg.get(idx).is_some_and(|r| r.registered)
    }

    /// Removes a peer's current memberships from the aggregate structures
    /// and marks the affected subtorrents dirty. Each download's progress
    /// up to `t` is folded into the peer ([`Peer::remaining`],
    /// [`Peer::received_vs`]) first.
    pub fn deregister(&mut self, idx: usize, peers: &mut [Peer], t: f64) {
        mark(&mut self.touched, &mut self.touched_flag, idx);
        let mut reg = std::mem::take(&mut self.reg[idx]);
        let p = idx as u32;
        let peer = &mut peers[idx];
        for m in &reg.active {
            let (f, s) = (m.file as usize, m.slot as usize);
            peer.remaining[s] = self.materialize(m, peer.tag[s], t);
            peer.received_vs += weight_of(m.d) * (self.clocks[f].phi_at(t) - peer.vs_mark[s]);
            let g = &mut self.groups[m.group as usize];
            let removed = g.members.remove(&Tag {
                tag: peer.tag[s],
                peer: p,
                slot: m.slot,
            });
            debug_assert!(removed, "deregistering a member that was never inserted");
            peer.tag[s] = 0.0;
            peer.vs_mark[s] = 0.0;
            if !g.dirty {
                g.dirty = true;
                self.dirty_groups.push(m.group);
            }
            count_sub(&mut self.wcount[f], m.d);
            mark(&mut self.dirty_w, &mut self.dirty_w_flag, f);
        }
        for &(f, d) in &reg.pinned {
            let f = f as usize;
            count_sub(&mut self.pcount[f], d);
            mark(&mut self.dirty_p, &mut self.dirty_p_flag, f);
        }
        for (ord, &id) in reg.sources.iter().enumerate() {
            let sref = SourceRef {
                peer: p,
                ord: ord as u32,
                id,
                is_virtual: self.srcs[id as usize].is_virtual,
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
        reg.pinned.clear();
        reg.sources.clear();
        reg.registered = false;
        self.reg[idx] = reg;
    }

    /// Computes the peer's current memberships (the scheme's
    /// [`crate::rate`] view) and inserts them, marking the affected
    /// subtorrents dirty. Each download gets a fresh finish tag from its
    /// remaining work at `t`.
    pub fn register(&mut self, idx: usize, peers: &mut [Peer], t: f64) {
        self.join(idx, &peers[idx]);
        let peer = &mut peers[idx];
        for i in 0..self.reg[idx].active.len() {
            let m = self.reg[idx].active[i];
            let s = m.slot as usize;
            let clock = self.clocks[m.file as usize];
            let g = &self.groups[m.group as usize];
            peer.tag[s] = clock.v_at(g.ec, t) + peer.remaining[s] / weight_of(m.d);
            peer.vs_mark[s] = clock.phi_at(t);
            self.insert_member(idx as u32, m, peer.tag[s]);
        }
        self.stat_recomputes += self.reg[idx].active.len() as u64;
    }

    /// Re-inserts a restored peer's memberships under the finish tags it
    /// carries (snapshot restore; the clocks must be installed first).
    pub(crate) fn rejoin(&mut self, idx: usize, peers: &[Peer]) {
        self.join(idx, &peers[idx]);
        for i in 0..self.reg[idx].active.len() {
            let m = self.reg[idx].active[i];
            self.insert_member(idx as u32, m, peers[idx].tag[m.slot as usize]);
        }
    }

    fn insert_member(&mut self, peer: u32, m: Member, tag: f64) {
        let g = &mut self.groups[m.group as usize];
        let fresh = g.members.insert(Tag {
            tag,
            peer,
            slot: m.slot,
        });
        debug_assert!(fresh, "duplicate downloader membership");
        if !g.dirty {
            g.dirty = true;
            self.dirty_groups.push(m.group);
        }
    }

    /// Records the peer's view: download memberships (finding or creating
    /// their groups; tags are inserted by the caller), pinned seeds and
    /// demand-aware sources.
    fn join(&mut self, idx: usize, peer: &Peer) {
        mark(&mut self.touched, &mut self.touched_flag, idx);
        debug_assert!(!self.reg[idx].registered, "double registration");
        let mut reg = std::mem::take(&mut self.reg[idx]);
        reg.registered = true;
        let mut view = std::mem::take(&mut self.view);
        view.fill(peer, self.scheme, self.mu);
        for d in &view.downloads {
            let f = d.file as usize;
            let group = self.group_of(f, d.c);
            reg.active.push(Member {
                slot: d.slot,
                file: d.file,
                group,
                d: d.d,
            });
            count_add(&mut self.wcount[f], d.d);
            mark(&mut self.dirty_w, &mut self.dirty_w_flag, f);
        }
        for &(f, d) in &view.pinned {
            reg.pinned.push((f, d));
            count_add(&mut self.pcount[f as usize], d);
            mark(&mut self.dirty_p, &mut self.dirty_p_flag, f as usize);
        }
        let p = idx as u32;
        for (ord, src) in view.shared.iter().enumerate() {
            let id = match self.free_srcs.pop() {
                Some(id) => id,
                None => {
                    self.srcs.push(Source::default());
                    self.intensity.push(0.0);
                    (self.srcs.len() - 1) as u32
                }
            };
            let entry = &mut self.srcs[id as usize];
            entry.files.clear();
            entry
                .files
                .extend_from_slice(&view.files[src.start..src.end]);
            entry.bandwidth = src.bandwidth;
            entry.is_virtual = src.is_virtual;
            entry.owner = p;
            entry.demand = 0.0;
            entry.demand_pass = 0;
            self.new_srcs.push(id);
            reg.sources.push(id);
            let sref = SourceRef {
                peer: p,
                ord: ord as u32,
                id,
                is_virtual: src.is_virtual,
            };
            for &f in &view.files[src.start..src.end] {
                let list = &mut self.sources[f];
                let pos = list
                    .binary_search(&sref)
                    .expect_err("duplicate source membership");
                list.insert(pos, sref);
                mark(&mut self.dirty_p, &mut self.dirty_p_flag, f);
            }
        }
        self.view = view;
        self.reg[idx] = reg;
    }

    /// The id of file `f`'s group for `c`, created empty if it is new.
    fn group_of(&mut self, f: usize, c: f64) -> u32 {
        let bits = c.to_bits();
        match self.file_groups[f].binary_search_by_key(&bits, |&(b, _)| b) {
            Ok(i) => self.file_groups[f][i].1,
            Err(i) => {
                let group = Group {
                    file: f as u32,
                    c,
                    ec: self.eta * c,
                    members: BTreeSet::new(),
                    head: Head::NONE,
                    dirty: false,
                };
                let id = match self.free_groups.pop() {
                    Some(id) => {
                        self.groups[id as usize] = group;
                        id
                    }
                    None => {
                        self.groups.push(group);
                        (self.groups.len() - 1) as u32
                    }
                };
                self.file_groups[f].insert(i, (bits, id));
                id
            }
        }
    }

    /// Recomputes dirty aggregates, re-anchors every clock whose `(ψ, φ)`
    /// changed in its bits, recomputes the due time of every dirty group
    /// and moves the heads of their files.
    ///
    /// With `force` the full recompute path of the seed engine is
    /// replayed: every weight, pool, clock rate, group due time and head
    /// is recomputed (and, by the contract in the module docs, every
    /// unchanged one reproduces its bits).
    pub fn refresh(&mut self, peers: &mut [Peer], t: f64, force: bool) {
        if !force
            && self.dirty_w.is_empty()
            && self.dirty_p.is_empty()
            && self.touched.is_empty()
            && self.dirty_groups.is_empty()
        {
            self.stat_clean += 1;
            return;
        }
        self.pass += 1;
        let k = self.k;

        // Pass 1: weights. `wc` collects the bit-changed files.
        self.wc.clear();
        let dirty = std::mem::take(&mut self.dirty_w);
        if force {
            for f in 0..k {
                self.recompute_weight(f);
            }
        } else {
            for &f in &dirty {
                self.recompute_weight(f);
            }
        }
        self.dirty_w = dirty;

        // Pass 2: the demand-dirty sources (new ones and those serving a
        // weight-changed file, each stamped with `pass` once) and the
        // pool-dirty set `pd`: the files of those sources, the files
        // whose pinned seeds or source lists changed, and every file when
        // the demand-aware origin's total demand moved.
        self.pd.clear();
        for &f in &self.dirty_p {
            mark(&mut self.pd, &mut self.pd_flag, f);
        }
        // Under `force` every file counts as weight-changed.
        let all = if force { 0..k } else { 0..0 };
        for f in all.chain(self.wc.iter().copied()) {
            mark(&mut self.pd, &mut self.pd_flag, f);
            for sref in &self.sources[f] {
                let src = &mut self.srcs[sref.id as usize];
                if src.demand_pass != self.pass {
                    src.demand_pass = self.pass;
                    self.dirty_srcs.push(sref.id);
                    // The source redistributes its bandwidth over all its
                    // files.
                    for &g in &src.files {
                        mark(&mut self.pd, &mut self.pd_flag, g);
                    }
                }
            }
        }
        for i in 0..self.new_srcs.len() {
            let src = &mut self.srcs[self.new_srcs[i] as usize];
            if src.demand_pass != self.pass {
                src.demand_pass = self.pass;
                self.dirty_srcs.push(self.new_srcs[i]);
            }
        }
        if self.origin_demand_aware && self.origin_bw > 0.0 && !self.wc.is_empty() {
            for f in 0..k {
                mark(&mut self.pd, &mut self.pd_flag, f);
            }
        }

        // Pass 3: source demands, then pools and clocks. A virtual source
        // whose demand starts or stops marks its owner's donation rate for
        // recomputation (a donation is the bandwidth of the sources with
        // demand).
        self.owners.clear();
        for &p in &self.touched {
            mark(&mut self.owners, &mut self.owner_flag, p);
        }
        for &id in &self.dirty_srcs {
            let src = &mut self.srcs[id as usize];
            let had = src.demand > 0.0;
            src.demand = src.files.iter().map(|&g| self.weight[g]).sum();
            self.intensity[id as usize] = intensity(src.bandwidth, src.demand);
            if src.is_virtual && had != (src.demand > 0.0) {
                mark(&mut self.owners, &mut self.owner_flag, src.owner as usize);
            }
        }
        self.dirty_srcs.clear();
        self.new_srcs.clear();
        let total_weight: f64 = if self.origin_demand_aware && self.origin_bw > 0.0 {
            self.weight.iter().sum()
        } else {
            0.0
        };
        for i in 0..self.pd.len() {
            let f = self.pd[i];
            let wf = self.weight[f];
            let origin = origin_share(self.origin_bw, self.origin_demand_aware, wf, total_weight);
            let q = &self.intensity;
            let (pr, pv) = file_pools(
                origin,
                wf,
                &self.pcount[f],
                self.mu,
                self.sources[f]
                    .iter()
                    .map(|sref| (sref.is_virtual, q[sref.id as usize])),
            );
            self.pool_real[f] = pr;
            self.pool_virtual[f] = pv;
            let (psi, phi) = per_weight(wf, pr, pv);
            let clock = &mut self.clocks[f];
            if psi.to_bits() != clock.psi.to_bits() || phi.to_bits() != clock.phi.to_bits() {
                clock.psi_acc = clock.psi_at(t);
                clock.phi_acc = clock.phi_at(t);
                clock.anchor = t;
                clock.psi = psi;
                clock.phi = phi;
                for &(_, g) in &self.file_groups[f] {
                    let grp = &mut self.groups[g as usize];
                    if !grp.dirty {
                        grp.dirty = true;
                        self.dirty_groups.push(g);
                    }
                }
            }
        }

        // Pass 4: due times of dirty groups (every group under `force`);
        // empty groups are dropped. Their files' heads are recomputed.
        if force {
            for f in 0..k {
                for &(_, g) in &self.file_groups[f] {
                    let grp = &mut self.groups[g as usize];
                    if !grp.dirty {
                        grp.dirty = true;
                        self.dirty_groups.push(g);
                    }
                }
            }
        }
        let mut evaluated = 0u64;
        for i in 0..self.dirty_groups.len() {
            let g = self.dirty_groups[i];
            let grp = &mut self.groups[g as usize];
            grp.dirty = false;
            let f = grp.file as usize;
            mark(&mut self.head_files, &mut self.head_flag, f);
            if grp.members.is_empty() {
                let list = &mut self.file_groups[f];
                let pos = list
                    .binary_search_by_key(&grp.c.to_bits(), |&(b, _)| b)
                    .expect("a live group is listed under its file");
                list.remove(pos);
                self.free_groups.push(g);
            } else {
                grp.head = grp.earliest(&self.clocks[f]);
                evaluated += 1;
            }
        }
        self.dirty_groups.clear();
        self.stat_recomputes += evaluated;
        for i in 0..self.head_files.len() {
            let f = self.head_files[i];
            let head = self.scan_head(f);
            if head.due < f64::INFINITY {
                self.heads.set(f, head);
            } else {
                self.heads.remove(f);
            }
        }

        // Pass 5: donation rates for owners, from the current demands.
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
                if src.demand > 0.0 {
                    dr += src.bandwidth;
                }
            }
            let peer = &mut peers[p];
            if dr.to_bits() != peer.donation_rate.to_bits() {
                peer.settle_donation(t);
                peer.donation_rate = dr;
            }
        }

        // Reset dirty/scratch state for the next round.
        clear(&mut self.dirty_w, &mut self.dirty_w_flag);
        clear(&mut self.dirty_p, &mut self.dirty_p_flag);
        clear(&mut self.touched, &mut self.touched_flag);
        clear(&mut self.head_files, &mut self.head_flag);
        clear(&mut self.pd, &mut self.pd_flag);
        clear(&mut self.owners, &mut self.owner_flag);
        self.wc.clear();
    }

    /// File `f`'s head from its groups' due times.
    fn scan_head(&self, f: usize) -> Head {
        let mut head = Head::NONE;
        for &(_, g) in &self.file_groups[f] {
            let cand = self.groups[g as usize].head;
            if cand.before(&head) {
                head = cand;
            }
        }
        head
    }

    /// Re-sums `weight[f]` from its counts; records a bit change in `wc`.
    fn recompute_weight(&mut self, f: usize) {
        let s = weight_sum(&self.wcount[f]);
        if s.to_bits() != self.weight[f].to_bits() {
            self.weight[f] = s;
            self.wc.push(f);
        }
    }

    /// The registered download `(idx, slot)` and its group, if any.
    fn member(&self, idx: usize, slot: usize) -> Option<(Member, &Group)> {
        let m = *self
            .reg
            .get(idx)?
            .active
            .iter()
            .find(|m| m.slot as usize == slot)?;
        Some((m, &self.groups[m.group as usize]))
    }

    /// Whether slot `slot` of peer `idx` is a registered download.
    pub fn is_downloading(&self, idx: usize, slot: usize) -> bool {
        self.member(idx, slot).is_some()
    }

    /// `(rate, vs_rate)` of download `(idx, slot)`: zero when the slot is
    /// not downloading.
    pub fn rate(&self, idx: usize, slot: usize) -> (f64, f64) {
        match self.member(idx, slot) {
            Some((m, g)) => {
                let clock = &self.clocks[m.file as usize];
                download_rate(weight_of(m.d), g.ec, clock.psi, clock.phi)
            }
            None => (0.0, 0.0),
        }
    }

    /// Remaining work of slot `slot` of peer `idx` at `t`, materialized
    /// from its finish tag while it downloads (as [`Self::deregister`]
    /// would fold it).
    pub fn remaining(&self, peers: &[Peer], idx: usize, slot: usize, t: f64) -> f64 {
        match self.member(idx, slot) {
            Some((m, _)) => self.materialize(&m, peers[idx].tag[slot], t),
            None => peers[idx].remaining[slot],
        }
    }

    /// Remaining work at `t` of download `m` with finish tag `tag`:
    /// `w·(tag − V(t))`. Only the completion event finishes a download, so
    /// progress that rounds to zero or below leaves the smallest positive
    /// remainder for the completion that is due now.
    fn materialize(&self, m: &Member, tag: f64, t: f64) -> f64 {
        let ec = self.groups[m.group as usize].ec;
        let left = weight_of(m.d) * (tag - self.clocks[m.file as usize].v_at(ec, t));
        if left > 0.0 {
            left
        } else {
            f64::MIN_POSITIVE
        }
    }

    /// Completion deadline of download `(idx, slot)` under the current
    /// clocks (+∞ when it is not downloading or cannot progress).
    pub fn due(&self, peers: &[Peer], idx: usize, slot: usize) -> f64 {
        match self.member(idx, slot) {
            Some((m, g)) => self.clocks[m.file as usize].due(g.ec, peers[idx].tag[slot]),
            None => f64::INFINITY,
        }
    }

    /// Folds every registered download's progress up to `t` into its peer
    /// without deregistering it (end of run). Re-marks the virtual-seed
    /// clock so a second call adds nothing twice.
    pub(crate) fn settle_all(&self, peers: &mut [Peer], t: f64) {
        for (idx, reg) in self.reg.iter().enumerate() {
            if !reg.registered || idx >= peers.len() {
                continue;
            }
            for m in &reg.active {
                let s = m.slot as usize;
                let left = self.remaining(peers, idx, s, t);
                peers[idx].remaining[s] = left;
                let clock = &self.clocks[m.file as usize];
                let peer = &mut peers[idx];
                let phi = clock.phi_at(t);
                peer.received_vs += weight_of(m.d) * (phi - peer.vs_mark[s]);
                peer.vs_mark[s] = phi;
            }
        }
    }

    /// The earliest completion head of file `f` ([`Head::NONE`] when none
    /// of its downloads can complete).
    pub fn head(&self, f: usize) -> Head {
        self.heads.get(f).unwrap_or(Head::NONE)
    }

    /// The earliest completion over all files.
    pub fn next_head(&self) -> Option<Head> {
        self.heads.peek().map(|(_, head)| head)
    }

    /// The per-file clocks (snapshots).
    pub(crate) fn clocks(&self) -> &[Clock] {
        &self.clocks
    }

    /// Installs serialized clocks into a fresh cache before the restored
    /// peers [`Self::rejoin`].
    pub(crate) fn set_clocks(&mut self, clocks: &[Clock]) {
        self.clocks.copy_from_slice(clocks);
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

    /// Materializes a [`RateSnapshot`] from the cached state (audits and
    /// tests; downloads in the same order `compute_rates` emits).
    pub fn snapshot(&self, peers: &[Peer]) -> RateSnapshot {
        let mut snap = RateSnapshot {
            downloads: Vec::new(),
            donations: vec![0.0; peers.len()],
        };
        for (idx, reg) in self.reg.iter().enumerate() {
            if idx >= peers.len() {
                break;
            }
            for m in &reg.active {
                let s = m.slot as usize;
                let (rate, vs_rate) = self.rate(idx, s);
                snap.downloads.push(ActiveDownload {
                    peer_idx: idx,
                    slot: s,
                    rate,
                    vs_rate,
                });
            }
            snap.donations[idx] = peers[idx].donation_rate;
        }
        snap
    }

    /// Audits the clocks and heads against brute force at time `t`:
    /// every registered download sits in its group under the tag its peer
    /// carries and nothing else does; each group's head is the least
    /// `(due, peer, slot)` over its members' deadlines; each file's head
    /// is the least of its groups' and the heap's top the earliest head
    /// (so each is the least over every download's deadline); each clock is finite,
    /// anchored no later than `t`, nondecreasing (`ψ, φ ≥ 0`) and agrees
    /// with the current weight and pools.
    ///
    /// # Errors
    /// A description of the first violation.
    pub fn audit(&self, peers: &[Peer], t: f64) -> Result<(), String> {
        // Per group: the least `(due, peer, slot)` over its registered
        // downloads, each due time from that download's own tag.
        let mut least = vec![Head::NONE; self.groups.len()];
        let mut count = vec![0usize; self.groups.len()];
        for (idx, reg) in self.reg.iter().enumerate() {
            if !reg.registered {
                continue;
            }
            for m in &reg.active {
                let tag = Tag {
                    tag: peers[idx].tag[m.slot as usize],
                    peer: idx as u32,
                    slot: m.slot,
                };
                let g = &self.groups[m.group as usize];
                if g.file != m.file || !g.members.contains(&tag) {
                    return Err(format!(
                        "peer {idx} slot {}: tag {} missing from its group",
                        m.slot, tag.tag
                    ));
                }
                if !tag.tag.is_finite() {
                    return Err(format!("peer {idx} slot {}: tag {}", m.slot, tag.tag));
                }
                let cand = Head {
                    due: self.clocks[m.file as usize].due(g.ec, tag.tag),
                    peer: tag.peer,
                    slot: tag.slot,
                };
                let g = m.group as usize;
                count[g] += 1;
                if cand.due < f64::INFINITY && cand.before(&least[g]) {
                    least[g] = cand;
                }
            }
        }
        for f in 0..self.k {
            let clock = &self.clocks[f];
            let parts = [
                clock.anchor,
                clock.psi_acc,
                clock.phi_acc,
                clock.psi,
                clock.phi,
            ];
            if parts.iter().any(|v| !v.is_finite())
                || clock.anchor > t
                || [clock.psi_acc, clock.phi_acc, clock.psi, clock.phi]
                    .iter()
                    .any(|&v| v < 0.0)
            {
                return Err(format!("file {f}: clock {clock:?} at t = {t}"));
            }
            let (psi, phi) = per_weight(self.weight[f], self.pool_real[f], self.pool_virtual[f]);
            if psi.to_bits() != clock.psi.to_bits() || phi.to_bits() != clock.phi.to_bits() {
                return Err(format!(
                    "file {f}: clock runs at ({}, {}), pools give ({psi}, {phi})",
                    clock.psi, clock.phi
                ));
            }
            let mut head = Head::NONE;
            for &(bits, g) in &self.file_groups[f] {
                let grp = &self.groups[g as usize];
                if grp.c.to_bits() != bits || grp.file as usize != f {
                    return Err(format!("file {f}: group {g} listed under the wrong key"));
                }
                if grp.members.len() != count[g as usize] {
                    return Err(format!(
                        "file {f}: group {g} holds {} members, {} registered",
                        grp.members.len(),
                        count[g as usize]
                    ));
                }
                if count[g as usize] == 0 {
                    return Err(format!("file {f}: empty group {g} still listed"));
                }
                let want = least[g as usize];
                if (grp.head.due.to_bits(), grp.head.peer, grp.head.slot)
                    != (want.due.to_bits(), want.peer, want.slot)
                {
                    return Err(format!(
                        "file {f}: group {g} head {:?} vs least member deadline {want:?}",
                        grp.head
                    ));
                }
                if want.before(&head) {
                    head = want;
                }
            }
            let have = self.head(f);
            if (have.due.to_bits(), have.peer, have.slot)
                != (head.due.to_bits(), head.peer, head.slot)
            {
                return Err(format!(
                    "file {f}: head {have:?} vs earliest group {head:?}"
                ));
            }
        }
        let listed: usize = self.file_groups.iter().map(Vec::len).sum();
        let stray = count.iter().enumerate().any(|(g, &n)| {
            n > 0
                && !self.file_groups[self.groups[g].file as usize]
                    .iter()
                    .any(|&(_, id)| id as usize == g)
        });
        if stray || listed + self.free_groups.len() != self.groups.len() {
            return Err("a group with members is not listed under its file".into());
        }
        let top = (0..self.k)
            .map(|f| self.head(f))
            .filter(|h| h.due < f64::INFINITY)
            .fold(None::<Head>, |best, h| match best {
                Some(b) if !h.before(&b) => Some(b),
                _ => Some(h),
            });
        if self.next_head() != top {
            return Err(format!(
                "heap top {:?} vs earliest head {top:?}",
                self.next_head()
            ));
        }
        Ok(())
    }
}
