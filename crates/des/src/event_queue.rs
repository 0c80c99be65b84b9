//! Indexed future-event queue: a binary min-heap with lazy invalidation.
//!
//! The seed engine found the next event by scanning every peer's pending
//! completion and expiry deadline on every iteration — O(peers) per event.
//! This queue replaces the scan with a `BinaryHeap` keyed on event time, so
//! selection is O(log n).
//!
//! Entries are never removed eagerly when a deadline changes. Instead each
//! entry carries a `stamp` drawn from a monotone counter, and the owner of
//! the deadline stores the stamp of its *current* entry: the peer for its
//! expiry ([`crate::peer::Peer::expiry_stamp`]), the rate cache for each
//! subtorrent's completion head ([`crate::rate_cache::Head::stamp`]), the
//! aggregate cache for each group. An entry whose stamp no longer matches
//! is stale and is discarded when it reaches the top of the heap ("lazy
//! invalidation"). The engine periodically compacts the heap when stale
//! entries dominate.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Rank of a download-completion entry (fires before expiries at a tie).
pub const RANK_COMPLETION: u8 = 0;
/// Rank of a seed-expiry / departure entry.
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
    /// Tie-break rank: [`RANK_COMPLETION`] before [`RANK_EXPIRY`] before
    /// [`RANK_AGG`].
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
        // Deterministic total order: time, then completions before
        // expiries, then peer/slot/stamp so equal-time events pop in a
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

#[cfg(test)]
mod tests {
    use super::*;

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
        q.push(entry(2.0, RANK_COMPLETION, 2, 3));
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_on_rank_then_peer() {
        let mut q = EventQueue::new();
        q.push(entry(5.0, RANK_EXPIRY, 0, 1));
        q.push(entry(5.0, RANK_COMPLETION, 9, 2));
        q.push(entry(5.0, RANK_COMPLETION, 3, 3));
        let order: Vec<(u8, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.rank, e.peer))
            .collect();
        assert_eq!(
            order,
            vec![(RANK_COMPLETION, 3), (RANK_COMPLETION, 9), (RANK_EXPIRY, 0)]
        );
    }

    #[test]
    fn agg_rank_ties_behind_per_peer_ranks() {
        let mut q = EventQueue::new();
        q.push(entry(5.0, RANK_AGG, 0, 1));
        q.push(entry(5.0, RANK_EXPIRY, 0, 2));
        q.push(entry(5.0, RANK_COMPLETION, 0, 3));
        let order: Vec<u8> = std::iter::from_fn(|| q.pop()).map(|e| e.rank).collect();
        assert_eq!(order, vec![RANK_COMPLETION, RANK_EXPIRY, RANK_AGG]);
    }

    #[test]
    fn drain_returns_everything() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(entry(i as f64, RANK_COMPLETION, i, i as u64 + 1));
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
        q.push(entry(4.0, RANK_COMPLETION, 7, 1));
        q.push(entry(2.0, RANK_COMPLETION, 7, 2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().stamp, 2);
        assert_eq!(q.pop().unwrap().stamp, 1);
    }
}
