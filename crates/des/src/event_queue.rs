//! Future-event queues.
//!
//! [`EventQueue`] is a binary min-heap with lazy invalidation, for the
//! deadlines whose number grows with the population: seed expiries and
//! aggregate groups. Entries are never removed eagerly when a deadline
//! changes. Instead each entry carries a `stamp` drawn from a monotone
//! counter, and the owner of the deadline stores the stamp of its
//! *current* entry: the peer for its expiry
//! ([`crate::peer::Peer::expiry_stamp`]), the aggregate cache for each
//! group. An entry whose stamp no longer matches is stale and is discarded
//! when it reaches the top of the heap ("lazy invalidation"). The engine
//! periodically compacts the heap when stale entries dominate.
//!
//! `IndexedHeap` holds the per-peer engine's completion heads, one fixed
//! slot per subtorrent. A head moves on every change of its file's pool,
//! so it is updated in place (decrease- or increase-key) instead of
//! leaving a stale entry behind.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Rank of a seed-expiry / departure entry. Rank 0 is free: completions
/// are not queued here, and they rank first by construction, since the
/// engine takes the rate cache's earliest head before any entry due at
/// the same time.
pub const RANK_EXPIRY: u8 = 1;
/// Rank of an aggregate group-completion entry (aggregate scheduling mode;
/// `Entry::peer` carries the group id). Ties behind per-peer events so the
/// tie-break order stays deterministic; the two kinds never coexist in one
/// run, so the relative rank is a convention, not a semantic choice.
pub const RANK_AGG: u8 = 2;

/// One scheduled future event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Absolute simulation time at which the event fires.
    pub time: f64,
    /// Tie-break rank: [`RANK_EXPIRY`] before [`RANK_AGG`].
    pub rank: u8,
    /// Slab index of the peer the event belongs to, or the group id for
    /// [`RANK_AGG`] entries.
    pub peer: u32,
    /// Slot index (completions only; 0 for expiries).
    pub slot: u32,
    /// Validity stamp; must match the peer's stored stamp to be live.
    pub stamp: u64,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Deterministic total order: time, then rank, then
        // peer/slot/stamp so equal-time events pop in a
        // reproducible sequence regardless of heap internals.
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.rank.cmp(&other.rank))
            .then_with(|| self.peer.cmp(&other.peer))
            .then_with(|| self.slot.cmp(&other.slot))
            .then_with(|| self.stamp.cmp(&other.stamp))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of [`Entry`] values ordered by [`Entry::cmp`].
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an entry.
    pub fn push(&mut self, e: Entry) {
        self.heap.push(Reverse(e));
    }

    /// The earliest entry, stale or not.
    pub fn peek(&self) -> Option<Entry> {
        self.heap.peek().map(|r| r.0)
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<Entry> {
        self.heap.pop().map(|r| r.0)
    }

    /// Number of entries, including stale ones.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every entry, stale or not, in arbitrary order (audits).
    pub fn iter(&self) -> impl Iterator<Item = Entry> + '_ {
        self.heap.iter().map(|r| r.0)
    }

    /// Empties the queue, returning all entries in arbitrary order
    /// (used by the engine's compaction pass to drop stale entries).
    pub fn drain(&mut self) -> Vec<Entry> {
        std::mem::take(&mut self.heap)
            .into_vec()
            .into_iter()
            .map(|r| r.0)
            .collect()
    }
}

/// A subtorrent's earliest completion, the key of its `IndexedHeap`
/// slot: the download due first, ordered by `(due, peer, slot)` — the
/// order equal-time completions pop in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Head {
    /// Completion deadline.
    pub due: f64,
    /// Slab index of the downloading peer.
    pub peer: u32,
    /// The peer's slot.
    pub slot: u32,
}

impl Head {
    /// No download can complete.
    pub const NONE: Head = Head {
        due: f64::INFINITY,
        peer: u32::MAX,
        slot: u32::MAX,
    };

    /// Whether this completion pops before `other`.
    pub fn before(&self, other: &Head) -> bool {
        by_key_peer_slot(
            (self.due, self.peer, self.slot),
            (other.due, other.peer, other.slot),
        )
        .is_lt()
    }
}

/// The `(key, peer, slot)` order of completions, `key` by `total_cmp`:
/// heads order by their due time, a group's members by their finish tag.
pub(crate) fn by_key_peer_slot(a: (f64, u32, u32), b: (f64, u32, u32)) -> Ordering {
    a.0.total_cmp(&b.0)
        .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
}

/// A binary min-heap over the fixed slots `0..n`, each holding at most
/// one [`Head`]: O(log n) insert, decrease-key, increase-key and
/// removal, no stale entries.
#[derive(Debug, Clone)]
pub(crate) struct IndexedHeap {
    /// Slot ids in heap order.
    heap: Vec<u32>,
    /// Position of each slot in `heap`; [`IndexedHeap::ABSENT`] when the
    /// slot holds no key.
    pos: Vec<u32>,
    keys: Vec<Head>,
}

impl IndexedHeap {
    const ABSENT: u32 = u32::MAX;

    /// An empty heap over `n` slots.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            heap: Vec::with_capacity(n),
            pos: vec![Self::ABSENT; n],
            keys: vec![Head::NONE; n],
        }
    }

    /// The least key and its slot.
    pub(crate) fn peek(&self) -> Option<(usize, Head)> {
        self.heap
            .first()
            .map(|&i| (i as usize, self.keys[i as usize]))
    }

    /// The key slot `i` holds.
    pub(crate) fn get(&self, i: usize) -> Option<Head> {
        (self.pos[i] != Self::ABSENT).then(|| self.keys[i])
    }

    /// Sets slot `i`'s key, inserting it or moving it either way.
    pub(crate) fn set(&mut self, i: usize, key: Head) {
        self.keys[i] = key;
        let at = if self.pos[i] == Self::ABSENT {
            self.heap.push(i as u32);
            self.heap.len() - 1
        } else {
            self.pos[i] as usize
        };
        self.pos[i] = at as u32;
        let at = self.sift_up(at);
        self.sift_down(at);
    }

    /// Empties slot `i`.
    pub(crate) fn remove(&mut self, i: usize) {
        let at = self.pos[i];
        if at == Self::ABSENT {
            return;
        }
        self.pos[i] = Self::ABSENT;
        let last = self.heap.pop().expect("a present slot is in the heap");
        if last as usize != i {
            let at = at as usize;
            self.heap[at] = last;
            self.pos[last as usize] = at as u32;
            let at = self.sift_up(at);
            self.sift_down(at);
        }
    }

    fn less(&self, a: usize, b: usize) -> bool {
        self.keys[self.heap[a] as usize].before(&self.keys[self.heap[b] as usize])
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a as u32;
        self.pos[self.heap[b] as usize] = b as u32;
    }

    fn sift_up(&mut self, mut at: usize) -> usize {
        while at > 0 {
            let parent = (at - 1) / 2;
            if !self.less(at, parent) {
                break;
            }
            self.swap(at, parent);
            at = parent;
        }
        at
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let (l, r) = (2 * at + 1, 2 * at + 2);
            let mut least = at;
            if l < self.heap.len() && self.less(l, least) {
                least = l;
            }
            if r < self.heap.len() && self.less(r, least) {
                least = r;
            }
            if least == at {
                return;
            }
            self.swap(at, least);
            at = least;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rank ahead of expiries, to test rank tie-breaking.
    const RANK_FIRST: u8 = 0;

    fn entry(time: f64, rank: u8, peer: u32, stamp: u64) -> Entry {
        Entry {
            time,
            rank,
            peer,
            slot: 0,
            stamp,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(entry(3.0, RANK_EXPIRY, 0, 1));
        q.push(entry(1.0, RANK_EXPIRY, 1, 2));
        q.push(entry(2.0, RANK_FIRST, 2, 3));
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_on_rank_then_peer() {
        let mut q = EventQueue::new();
        q.push(entry(5.0, RANK_EXPIRY, 0, 1));
        q.push(entry(5.0, RANK_FIRST, 9, 2));
        q.push(entry(5.0, RANK_FIRST, 3, 3));
        let order: Vec<(u8, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.rank, e.peer))
            .collect();
        assert_eq!(
            order,
            vec![(RANK_FIRST, 3), (RANK_FIRST, 9), (RANK_EXPIRY, 0)]
        );
    }

    #[test]
    fn agg_rank_ties_behind_per_peer_ranks() {
        let mut q = EventQueue::new();
        q.push(entry(5.0, RANK_AGG, 0, 1));
        q.push(entry(5.0, RANK_EXPIRY, 0, 2));
        q.push(entry(5.0, RANK_FIRST, 0, 3));
        let order: Vec<u8> = std::iter::from_fn(|| q.pop()).map(|e| e.rank).collect();
        assert_eq!(order, vec![RANK_FIRST, RANK_EXPIRY, RANK_AGG]);
    }

    #[test]
    fn drain_returns_everything() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(entry(i as f64, RANK_FIRST, i, i as u64 + 1));
        }
        let drained = q.drain();
        assert_eq!(drained.len(), 10);
        assert!(q.is_empty());
    }

    #[test]
    fn stale_entries_coexist_with_fresh_ones() {
        // The queue itself does not know about staleness; it just orders.
        // Two entries for the same (peer, slot) with different stamps must
        // both survive until popped.
        let mut q = EventQueue::new();
        q.push(entry(4.0, RANK_FIRST, 7, 1));
        q.push(entry(2.0, RANK_FIRST, 7, 2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().stamp, 2);
        assert_eq!(q.pop().unwrap().stamp, 1);
    }

    fn key(due: f64, peer: u32) -> Head {
        Head { due, peer, slot: 0 }
    }

    #[test]
    fn indexed_heap_moves_keys_both_ways() {
        let mut h = IndexedHeap::new(4);
        assert!(h.peek().is_none());
        h.set(0, key(5.0, 0));
        h.set(1, key(3.0, 1));
        h.set(2, key(4.0, 2));
        assert_eq!(h.peek().map(|(i, _)| i), Some(1));
        h.set(1, key(9.0, 1)); // increase-key
        assert_eq!(h.peek().map(|(i, _)| i), Some(2));
        h.set(0, key(1.0, 0)); // decrease-key
        assert_eq!(h.peek().map(|(i, _)| i), Some(0));
        h.remove(0);
        h.remove(0);
        assert_eq!(h.get(0), None);
        let mut order = Vec::new();
        while let Some((i, _)) = h.peek() {
            order.push(i);
            h.remove(i);
        }
        assert_eq!(order, vec![2, 1]);
    }

    #[test]
    fn indexed_heap_matches_brute_force_min() {
        // Pseudo-random set/remove sequence against a linear scan.
        let mut h = IndexedHeap::new(10);
        let mut shadow: Vec<Option<Head>> = vec![None; 10];
        let mut x = 12_345u64;
        for _ in 0..2_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let i = (x >> 33) as usize % 10;
            if (x >> 20).is_multiple_of(4) {
                h.remove(i);
                shadow[i] = None;
            } else {
                // Few distinct times, so ties fall to (peer, slot).
                let k = key(((x >> 40) % 7) as f64, i as u32);
                h.set(i, k);
                shadow[i] = Some(k);
            }
            let want = (0..10)
                .filter_map(|j| shadow[j].map(|k| (j, k)))
                .min_by(|a, b| a.1.due.total_cmp(&b.1.due).then(a.1.peer.cmp(&b.1.peer)));
            assert_eq!(h.peek(), want);
        }
    }
}
