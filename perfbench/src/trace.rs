//! In-memory span recording for the traced pass.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! the library crates; nothing inside those crates is instrumented. A
//! disabled tracer turns every recording call into a branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
///
/// Aggregated spans (hook calls inside a step batch) carry the number of
/// calls in `count` and their summed duration as `end_ns - start_ns`,
/// anchored at the start of the parent batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the tracer.
    pub id: u64,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `des.step`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Calls folded into this span (1 for a plain span).
    pub count: u64,
    /// Which traced repetition the span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one repetition (or a no-op when off): a stack of
/// open spans and the finished ones, kept in memory.
pub struct Tracer {
    on: bool,
    run: u32,
    epoch: Instant,
    next_id: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false, 0)
    }

    /// A recording tracer for repetition `run`.
    pub fn on(run: u32) -> Self {
        Self::new(true, run)
    }

    fn new(on: bool, run: u32) -> Self {
        Self {
            on,
            run,
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Every span recorded, sorted by id.
    pub fn into_spans(mut self) -> Vec<Span> {
        self.spans.sort_by_key(|s| s.id);
        self.spans
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.fresh_id();
        let start = Instant::now();
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = Instant::now();
        self.push(id, name, start, end, 1);
        out
    }

    /// Records an already measured interval under the current parent and
    /// returns its id (0 when tracing is off).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, count: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.fresh_id();
        self.push(id, name, start, end, count);
        id
    }

    /// Records `count` calls totalling `total_ns` as one aggregated child
    /// of span `parent`, anchored at `anchor`.
    pub fn record_aggregate(
        &mut self,
        parent: u64,
        name: &'static str,
        anchor: Instant,
        total_ns: u64,
        count: u64,
    ) {
        if !self.on || count == 0 {
            return;
        }
        let start_ns = self.ns(anchor);
        let id = self.fresh_id();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            start_ns,
            end_ns: start_ns + total_ns,
            count,
            run: self.run,
        });
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn push(&mut self, id: u64, name: &'static str, start: Instant, end: Instant, count: u64) {
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            count,
            run: self.run,
        });
    }
}

/// Self time of every span: its duration minus the summed durations of
/// its direct children (children of one span never overlap: the
/// benchmark makes one call at a time), clamped at zero.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(children))
        })
        .collect()
}

/// Summed self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += own[&s.id] as f64 * 1e-9;
    }
    out
}

/// Length of the union of the given intervals, clipped to `[lo, hi)`.
pub fn covered_ns(intervals: impl IntoIterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it. The
/// median of an even-length sample is the mean of the two middle values.
/// Returns `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if q == 0.5 && n.is_multiple_of(2) {
        return Some(0.5 * (v[n / 2 - 1] + v[n / 2]));
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(v[rank.clamp(1, n) - 1])
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Renders spans as JSON lines (one object per span).
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{},\"run\":{}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.end_ns,
            s.count,
            s.run
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            count: 1,
            run: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "des.step", 10, 60),
            span(3, Some(2), "scenario.hook", 10, 25),
            span(4, Some(2), "scenario.hook", 30, 35),
            span(5, Some(1), "des.finish", 70, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 50 - 20);
        assert_eq!(own[&2], 50 - 15 - 5);
        assert_eq!(own[&3], 15);
        assert_eq!(own[&5], 20);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["scenario.hook"] - 20e-9).abs() < 1e-18);
        // Self times partition the root exactly.
        let total: u64 = own.values().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn spans_nest() {
        let mut tracer = Tracer::on(3);
        tracer.time("outer", |t| {
            t.time("inner", |_| ());
            let now = Instant::now();
            let id = t.record("des.step", now, now, 7);
            t.record_aggregate(id, "scenario.hook", now, 5, 2);
        });
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 4);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert!(outer.parent.is_none());
        for s in spans
            .iter()
            .filter(|s| s.name == "inner" || s.name == "des.step")
        {
            assert_eq!(s.parent, Some(outer.id));
        }
        let step = spans.iter().find(|s| s.name == "des.step").unwrap();
        let hook = spans.iter().find(|s| s.name == "scenario.hook").unwrap();
        assert_eq!(hook.parent, Some(step.id));
        assert_eq!((hook.count, hook.dur_ns()), (2, 5));
        assert!(spans.iter().all(|s| s.run == 3));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        assert_eq!(tracer.time("x", |_| 41) + 1, 42);
        let now = Instant::now();
        assert_eq!(tracer.record("y", now, now, 1), 0);
        assert!(tracer.into_spans().is_empty());
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(covered_ns([(0, 10), (5, 20), (30, 40)], 0, 100), 30);
        assert_eq!(covered_ns([(0, 10), (5, 20), (30, 40)], 8, 35), 17);
        assert_eq!(covered_ns(Vec::<(u64, u64)>::new(), 0, 10), 0);
    }

    #[test]
    fn percentile_selection() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[2.0, f64::NAN, 1.0], 0.0), Some(1.0));
    }
}
