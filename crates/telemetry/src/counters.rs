//! Hot-loop counters the engine maintains unconditionally.
//!
//! All fields are plain `u64`s so the per-event cost is a handful of
//! integer increments — cheap enough (the engine spends tens of
//! microseconds per event) to keep even when no probe is attached, which
//! in turn keeps snapshots identical whether or not telemetry is enabled.
//!
//! [`Counters::to_json`] and [`Counters::from_json`] are the one codec
//! for the counters object that trace records and sweep-journal lines
//! embed.

use crate::json::Json;

/// Cumulative engine counters since the start of the run (they survive
/// snapshot/restore, so a resumed run continues the same series).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Events popped from the queue and dispatched.
    pub events_popped: u64,
    /// Stale entries discarded by lazy invalidation before dispatch.
    pub stale_discards: u64,
    /// Peak event-queue length observed.
    pub heap_peak: u64,
    /// Per-download rate recomputations performed by the rate cache
    /// (each is one `recompute_rate` evaluation).
    pub rate_recomputes: u64,
    /// Rate-cache refreshes satisfied without touching any aggregate
    /// (nothing dirty — the incremental fast path).
    pub rate_clean_hits: u64,
    /// Snapshots written by a checkpointing driver.
    pub snapshots_taken: u64,
    /// Total bytes of those snapshots.
    pub snapshot_bytes: u64,
    /// Total wall-clock microseconds spent writing them.
    pub snapshot_micros: u64,
    /// Group-rate recomputations performed by the aggregate cache
    /// (aggregate scheduling mode; zero under per-peer scheduling).
    pub agg_rate_updates: u64,
    /// Aggregate completion events dispatched (one member sampled each).
    pub agg_samples: u64,
}

impl Counters {
    /// Renders the counters as a JSON object (raw text, no trailing
    /// newline), the exact shape the trace schema embeds.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"events_popped\":{},\"stale_discards\":{},\"heap_peak\":{},\
             \"rate_recomputes\":{},\"rate_clean_hits\":{},\"snapshots_taken\":{},\
             \"snapshot_bytes\":{},\"snapshot_micros\":{},\
             \"agg_rate_updates\":{},\"agg_samples\":{}}}",
            self.events_popped,
            self.stale_discards,
            self.heap_peak,
            self.rate_recomputes,
            self.rate_clean_hits,
            self.snapshots_taken,
            self.snapshot_bytes,
            self.snapshot_micros,
            self.agg_rate_updates,
            self.agg_samples,
        )
    }

    /// Decodes the object [`Counters::to_json`] writes; `None` when `v` is
    /// not one. The two aggregate-mode counters read as zero when absent:
    /// traces and journals written before aggregate mode lack them.
    pub fn from_json(v: &Json) -> Option<Counters> {
        let u = |key: &str| v.get(key).and_then(Json::as_u64);
        Some(Counters {
            events_popped: u("events_popped")?,
            stale_discards: u("stale_discards")?,
            heap_peak: u("heap_peak")?,
            rate_recomputes: u("rate_recomputes")?,
            rate_clean_hits: u("rate_clean_hits")?,
            snapshots_taken: u("snapshots_taken")?,
            snapshot_bytes: u("snapshot_bytes")?,
            snapshot_micros: u("snapshot_micros")?,
            agg_rate_updates: u("agg_rate_updates").unwrap_or(0),
            agg_samples: u("agg_samples").unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let c = Counters {
            events_popped: 3,
            snapshot_bytes: u64::MAX,
            ..Counters::default()
        };
        let s = c.to_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"events_popped\":3"));
        assert!(s.contains(&format!("\"snapshot_bytes\":{}", u64::MAX)));
        assert!(s.contains("\"agg_rate_updates\":0"));
        assert!(s.contains("\"agg_samples\":0"));
        assert!(!s.contains(' '), "compact encoding only: {s}");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Counters::default(), Counters::default());
        assert!(Counters::default().to_json().contains("\"heap_peak\":0"));
    }
}
