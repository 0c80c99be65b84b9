//! A delegating [`ScenarioHook`] that counts and times the engine's calls
//! into the scenario layer without changing a single answer.
//!
//! Every trait method, including the provided ones, forwards to the inner
//! hook, so `hook_state` (and with it the snapshot fingerprint), replay
//! and tracker release behave exactly as without the wrapper.

use btfluid_des::ScenarioHook;
use btfluid_workload::requests::FileId;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Call count and summed call time, shared with the benchmark.
#[derive(Debug, Default)]
pub struct HookStats {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl HookStats {
    /// Calls observed so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Nanoseconds spent inside the inner hook so far.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }
}

/// The wrapper.
pub struct CountingHook<H> {
    inner: H,
    stats: Rc<HookStats>,
}

impl<H: ScenarioHook> CountingHook<H> {
    /// Wraps `inner`; the returned stats observe every later call.
    pub fn new(inner: H) -> (Self, Rc<HookStats>) {
        let stats = Rc::new(HookStats::default());
        (
            Self {
                inner,
                stats: Rc::clone(&stats),
            },
            stats,
        )
    }

    fn timed<T>(&self, f: impl FnOnce(&H) -> T) -> T {
        let start = Instant::now();
        let out = f(&self.inner);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.calls.set(self.stats.calls.get() + 1);
        self.stats.ns.set(self.stats.ns.get().saturating_add(ns));
        out
    }
}

impl<H: ScenarioHook> ScenarioHook for CountingHook<H> {
    fn arrival_rate(&self, t: f64) -> f64 {
        self.timed(|h| h.arrival_rate(t))
    }

    fn arrival_rate_bound(&self) -> f64 {
        self.timed(|h| h.arrival_rate_bound())
    }

    fn correlation(&self, t: f64) -> f64 {
        self.timed(|h| h.correlation(t))
    }

    fn abort_rate(&self, t: f64) -> f64 {
        self.timed(|h| h.abort_rate(t))
    }

    fn abort_rate_bound(&self) -> f64 {
        self.timed(|h| h.abort_rate_bound())
    }

    fn origin_seeds(&self, t: f64) -> usize {
        self.timed(|h| h.origin_seeds(t))
    }

    fn tracker_up(&self, t: f64) -> bool {
        self.timed(|h| h.tracker_up(t))
    }

    fn next_boundary(&self, t: f64) -> Option<f64> {
        self.timed(|h| h.next_boundary(t))
    }

    fn hook_state(&self) -> Vec<u8> {
        self.timed(|h| h.hook_state())
    }

    fn replays(&self) -> bool {
        self.timed(|h| h.replays())
    }

    fn replay_arrival(&self, idx: u64) -> Option<(f64, Vec<FileId>)> {
        self.timed(|h| h.replay_arrival(idx))
    }

    fn tracker_release(&self, t: f64) -> f64 {
        self.timed(|h| h.tracker_release(t))
    }
}

/// A hook boxed for the engine, with the counting wrapper's stats when
/// traced.
pub type Attached = (Box<dyn ScenarioHook>, Option<Rc<HookStats>>);

/// Boxes `inner` for the engine. Traced runs observe the scenario layer
/// through a [`CountingHook`]; untraced runs hand the engine the bare
/// hook.
pub fn attach<H: ScenarioHook + 'static>(inner: H, traced: bool) -> Attached {
    if traced {
        let (h, stats) = CountingHook::new(inner);
        (Box::new(h), Some(stats))
    } else {
        (Box::new(inner), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_scenario::registry;

    #[test]
    fn wrapper_answers_like_the_inner_hook_and_counts() {
        let program = registry::by_name("flash_crowd").unwrap();
        let plain = program.hook();
        let (wrapped, stats) = CountingHook::new(program.hook());
        assert_eq!(wrapped.hook_state(), plain.hook_state());
        for t in [0.0, 1599.0, 1700.0, 3999.0] {
            assert_eq!(wrapped.arrival_rate(t), plain.arrival_rate(t));
            assert_eq!(wrapped.next_boundary(t), plain.next_boundary(t));
            assert_eq!(wrapped.tracker_release(t), plain.tracker_release(t));
        }
        assert_eq!(wrapped.replays(), plain.replays());
        assert_eq!(stats.calls(), 1 + 4 * 3 + 1);
    }
}
