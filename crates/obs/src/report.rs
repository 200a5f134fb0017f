//! The structured run report: an immutable snapshot of everything a
//! run recorded.
//!
//! Counters and gauges are seed-deterministic; histogram blocks hold
//! wall-clock timings and are expected to differ between runs
//! (DESIGN.md §10). Entries are stored as vectors sorted by name, so
//! their order is deterministic. The `hp-report-v1` document is written
//! and read by `hp_sim::codec`, which declares these types' members
//! (DESIGN.md §13).

/// Magic schema tag written to and required from every report document.
pub const SCHEMA: &str = "hp-report-v1";

/// A named monotonic counter value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterEntry {
    /// Dotted counter name, e.g. `engine.intervals`.
    pub name: String,
    /// Final value at snapshot time.
    pub value: u64,
}

/// A named point-in-time gauge value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GaugeEntry {
    /// Dotted gauge name, e.g. `metrics.peak_celsius`.
    pub name: String,
    /// Last recorded value (may be NaN if the source was undefined).
    pub value: f64,
}

/// Percentile summary of one duration histogram, in microseconds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean, µs.
    pub mean_us: f64,
    /// Median estimate, µs (log-bucket resolution, ≤ 19 % relative).
    pub p50_us: f64,
    /// 95th-percentile estimate, µs.
    pub p95_us: f64,
    /// Exact maximum, µs.
    pub max_us: f64,
}

/// A named duration histogram summary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramEntry {
    /// Dotted histogram name, e.g. `hook.schedule`.
    pub name: String,
    /// The percentile summary.
    pub summary: HistogramSummary,
}

/// A named free-form metadata string.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetaEntry {
    /// Metadata key, e.g. `gemm_backend`.
    pub name: String,
    /// Metadata value.
    pub value: String,
}

/// One timestamped run event (degradations, DTM trips, aborts).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportEvent {
    /// Simulated time of the event, seconds.
    pub time_seconds: f64,
    /// Event class, e.g. `dtm`, `degraded`, `aborted`.
    pub kind: String,
    /// Human-readable detail line.
    pub detail: String,
}

/// The complete observability snapshot of one simulation run.
///
/// Produced by [`Registry::snapshot`](crate::Registry::snapshot),
/// merged across layers via [`merge_prefixed`](RunReport::merge_prefixed),
/// embedded in `hp_sim::Metrics`, and written by `hp simulate --report`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Seed-deterministic counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// Seed-deterministic gauges, sorted by name.
    pub gauges: Vec<GaugeEntry>,
    /// Wall-clock duration histograms, sorted by name. *Not*
    /// deterministic across runs.
    pub histograms: Vec<HistogramEntry>,
    /// Free-form metadata, sorted by name.
    pub meta: Vec<MetaEntry>,
    /// Timestamped run events, in chronological order.
    pub events: Vec<ReportEvent>,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        RunReport::default()
    }

    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.meta.is_empty()
            && self.events.is_empty()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.summary)
    }

    /// Looks up a metadata value by name.
    pub fn meta_value(&self, name: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value.as_str())
    }

    /// Inserts or replaces a counter, keeping name order.
    pub fn push_counter(&mut self, name: &str, value: u64) {
        let name = name.to_string();
        upsert(
            &mut self.counters,
            |c| &c.name,
            CounterEntry { name, value },
        );
    }

    /// Inserts or replaces a gauge, keeping name order.
    pub fn push_gauge(&mut self, name: &str, value: f64) {
        let name = name.to_string();
        upsert(&mut self.gauges, |g| &g.name, GaugeEntry { name, value });
    }

    /// Inserts or replaces a histogram summary, keeping name order.
    pub fn push_histogram(&mut self, name: &str, summary: HistogramSummary) {
        let name = name.to_string();
        upsert(
            &mut self.histograms,
            |h| &h.name,
            HistogramEntry { name, summary },
        );
    }

    /// Inserts or replaces a metadata entry, keeping name order.
    pub fn push_meta(&mut self, name: &str, value: &str) {
        let (name, value) = (name.to_string(), value.to_string());
        upsert(&mut self.meta, |m| &m.name, MetaEntry { name, value });
    }

    /// Appends a run event.
    pub fn push_event(&mut self, time_seconds: f64, kind: &str, detail: &str) {
        self.events.push(ReportEvent {
            time_seconds,
            kind: kind.to_string(),
            detail: detail.to_string(),
        });
    }

    /// Folds `other` into `self`, namespacing every entry name under
    /// `prefix.` (events are appended unprefixed — their `kind` already
    /// identifies the source).
    pub fn merge_prefixed(&mut self, prefix: &str, other: &RunReport) {
        for c in &other.counters {
            self.push_counter(&format!("{prefix}.{}", c.name), c.value);
        }
        for g in &other.gauges {
            self.push_gauge(&format!("{prefix}.{}", g.name), g.value);
        }
        for h in &other.histograms {
            self.push_histogram(&format!("{prefix}.{}", h.name), h.summary.clone());
        }
        for m in &other.meta {
            self.push_meta(&format!("{prefix}.{}", m.name), &m.value);
        }
        self.events.extend(other.events.iter().cloned());
    }

    /// A copy with all wall-clock histograms removed: the
    /// seed-deterministic subset of the report, suitable for
    /// bit-identical comparison across same-config runs.
    pub fn without_timings(&self) -> RunReport {
        let mut copy = self.clone();
        copy.histograms.clear();
        copy
    }
}

/// Replaces the entry of `entries` named like `entry`, or inserts it in
/// name order.
fn upsert<E>(entries: &mut Vec<E>, name: fn(&E) -> &String, entry: E) {
    match entries.binary_search_by(|e| name(e).cmp(name(&entry))) {
        Ok(i) => {
            if let Some(slot) = entries.get_mut(i) {
                *slot = entry;
            }
        }
        Err(i) => entries.insert(i, entry),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new();
        r.push_counter("engine.intervals", 600);
        r.push_counter("thermal.decay_cache_hits", 599);
        r.push_gauge("metrics.peak_celsius", 68.4375);
        r.push_histogram(
            "hook.schedule",
            HistogramSummary {
                count: 600,
                mean_us: 21.5,
                p50_us: 19.03,
                p95_us: 45.25,
                max_us: 113.0,
            },
        );
        r.push_meta("gemm_backend", "avx2");
        r.push_event(1.0, "dtm", "core 3 above threshold");
        r
    }

    #[test]
    fn accessors_find_entries() {
        let r = sample();
        assert_eq!(r.counter("engine.intervals"), Some(600));
        assert_eq!(r.gauge("metrics.peak_celsius"), Some(68.4375));
        assert_eq!(r.histogram("hook.schedule").map(|h| h.count), Some(600));
        assert_eq!(r.meta_value("gemm_backend"), Some("avx2"));
        assert_eq!(r.counter("nope"), None);
    }

    #[test]
    fn push_replaces_existing_names() {
        let mut r = RunReport::new();
        r.push_counter("c", 1);
        r.push_counter("c", 2);
        assert_eq!(r.counters.len(), 1);
        assert_eq!(r.counter("c"), Some(2));
    }

    #[test]
    fn merge_prefixed_namespaces_entries() {
        let mut outer = RunReport::new();
        outer.push_counter("engine.intervals", 10);
        let mut inner = RunReport::new();
        inner.push_counter("alg1.evaluations", 42);
        inner.push_meta("gemm_backend", "scalar");
        inner.push_event(2.0, "probe", "ring rotation");
        outer.merge_prefixed("sched", &inner);
        assert_eq!(outer.counter("sched.alg1.evaluations"), Some(42));
        assert_eq!(outer.meta_value("sched.gemm_backend"), Some("scalar"));
        assert_eq!(outer.counter("engine.intervals"), Some(10));
        assert_eq!(outer.events.len(), 1);
    }

    #[test]
    fn without_timings_strips_histograms_only() {
        let r = sample();
        let stripped = r.without_timings();
        assert!(stripped.histograms.is_empty());
        assert_eq!(stripped.counters, r.counters);
        assert_eq!(stripped.gauges, r.gauges);
        assert_eq!(stripped.events, r.events);
    }
}
