//! Live metric recording: named counters, gauges and log-bucketed
//! duration histograms behind one interior-mutable registry.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::report::{HistogramSummary, RunReport};

/// Sub-buckets per octave of the duration histograms: bucket `i` covers
/// `[2^(i/4), 2^((i+1)/4))` nanoseconds, a ≤ 19 % relative resolution.
const SUBDIV: f64 = 4.0;

/// Number of log buckets; covers up to `2^(255/4)` ns ≈ 2.6 × 10¹⁰ s.
const BUCKETS: usize = 256;

/// One duration histogram: count / sum / exact max plus log₂ buckets for
/// the percentile estimates.
///
/// A [`Registry`] keeps one per name. A hot loop may keep its own,
/// record into it without a lock or a lookup by name, and fold it into
/// the registry with [`Registry::absorb_histogram`] before a snapshot.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum_seconds: f64,
    max_seconds: f64,
    buckets: Box<[u64; BUCKETS]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum_seconds: 0.0,
            max_seconds: 0.0,
            buckets: Box::new([0; BUCKETS]),
        }
    }

    fn bucket_index(seconds: f64) -> usize {
        let ns = seconds * 1e9;
        if ns.is_nan() || ns <= 1.0 {
            // Sub-nanosecond, zero, or non-finite garbage: first bucket.
            return 0;
        }
        let idx = (ns.log2() * SUBDIV).floor();
        if idx >= (BUCKETS - 1) as f64 {
            BUCKETS - 1
        } else if idx >= 0.0 {
            // xtask: allow(cast) — idx is in [0, BUCKETS-1] by the guards
            // above, so the cast is exact.
            idx as usize
        } else {
            0
        }
    }

    /// Records one duration observation, in seconds. Negative or
    /// non-finite durations are clamped to zero.
    pub fn observe_seconds(&mut self, seconds: f64) {
        let seconds = if seconds.is_finite() && seconds >= 0.0 {
            seconds
        } else {
            0.0
        };
        self.count += 1;
        self.sum_seconds += seconds;
        self.max_seconds = self.max_seconds.max(seconds);
        if let Some(slot) = self.buckets.get_mut(Self::bucket_index(seconds)) {
            *slot += 1;
        }
    }

    /// Adds every observation of `other` to this histogram and empties
    /// `other`, in place.
    fn absorb(&mut self, other: &mut Histogram) {
        self.count += other.count;
        self.sum_seconds += other.sum_seconds;
        self.max_seconds = self.max_seconds.max(other.max_seconds);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter_mut()) {
            *mine += std::mem::take(theirs);
        }
        other.count = 0;
        other.sum_seconds = 0.0;
        other.max_seconds = 0.0;
    }

    /// Quantile estimate in seconds: the geometric midpoint of the bucket
    /// holding the `q`-th observation, clamped to the exact maximum.
    fn quantile_seconds(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // xtask: allow(cast) — count is a small observation tally; the
        // f64→u64 round-trip is exact far beyond any realistic count.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                // xtask: allow(cast) — i < 256, exact in f64.
                let mid_ns = ((i as f64 + 0.5) / SUBDIV).exp2();
                return (mid_ns * 1e-9).min(self.max_seconds);
            }
        }
        self.max_seconds
    }

    fn summary(&self) -> HistogramSummary {
        let mean = if self.count == 0 {
            0.0
        } else {
            // xtask: allow(cast) — observation tally, exact in f64.
            self.sum_seconds / self.count as f64
        };
        HistogramSummary {
            count: self.count,
            mean_us: mean * 1e6,
            p50_us: self.quantile_seconds(0.50) * 1e6,
            p95_us: self.quantile_seconds(0.95) * 1e6,
            max_us: self.max_seconds * 1e6,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    meta: BTreeMap<String, String>,
}

/// A registry of named counters, gauges and duration histograms.
///
/// All methods take `&self` (interior mutability behind a mutex), so one
/// registry can be threaded through solver, scheduler and engine layers
/// without borrow gymnastics; a poisoned lock is tolerated because every
/// update is a plain arithmetic write.
///
/// Counters and gauges record *simulation* quantities and are
/// seed-deterministic; histograms record *wall-clock* durations and are
/// not (DESIGN.md §10).
///
/// # Example
///
/// ```
/// use hp_obs::{Registry, ScopedTimer};
///
/// let reg = Registry::new();
/// reg.inc("engine.intervals");
/// reg.add("engine.actions", 3);
/// reg.set_gauge("metrics.peak_celsius", 68.4);
/// {
///     let _t = ScopedTimer::start(&reg, "hook.schedule");
///     // ... timed work ...
/// }
/// let report = reg.snapshot();
/// assert_eq!(report.counter("engine.intervals"), Some(1));
/// assert_eq!(report.histogram("hook.schedule").map(|h| h.count), Some(1));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Clone for Registry {
    fn clone(&self) -> Self {
        Registry {
            inner: Mutex::new(self.lock().clone()),
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Every critical section is a plain in-memory update; a panic
        // mid-update cannot leave the maps structurally invalid.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Increments counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increments counter `name` by `by` (creating it at zero first).
    pub fn add(&self, name: &str, by: u64) {
        let mut inner = self.lock();
        if let Some(v) = inner.counters.get_mut(name) {
            *v = v.saturating_add(by);
        } else {
            inner.counters.insert(name.to_string(), by);
        }
    }

    /// Sets counter `name` to an absolute value (for counters maintained
    /// elsewhere, e.g. solver-internal tallies copied in at snapshot
    /// time).
    pub fn set_counter(&self, name: &str, value: u64) {
        self.lock().counters.insert(name.to_string(), value);
    }

    /// Sets gauge `name` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Records one duration observation, in seconds, into histogram
    /// `name`. Negative or non-finite durations are clamped to zero.
    pub fn observe_seconds(&self, name: &str, seconds: f64) {
        let mut inner = self.lock();
        if let Some(h) = inner.histograms.get_mut(name) {
            h.observe_seconds(seconds);
        } else {
            let mut h = Histogram::new();
            h.observe_seconds(seconds);
            inner.histograms.insert(name.to_string(), h);
        }
    }

    /// Folds the observations of `local` into histogram `name` and
    /// empties `local`: the registry then reports what it would have had
    /// every observation been recorded here with
    /// [`observe_seconds`](Registry::observe_seconds) (the sum of
    /// seconds up to rounding). An empty `local` creates no histogram.
    pub fn absorb_histogram(&self, name: &str, local: &mut Histogram) {
        if local.count == 0 {
            return;
        }
        let mut inner = self.lock();
        if let Some(h) = inner.histograms.get_mut(name) {
            h.absorb(local);
        } else {
            let mut h = Histogram::new();
            h.absorb(local);
            inner.histograms.insert(name.to_string(), h);
        }
    }

    /// Sets metadata entry `name` (free-form strings: backend names,
    /// config fingerprints, schema hints).
    pub fn set_meta(&self, name: &str, value: &str) {
        self.lock().meta.insert(name.to_string(), value.to_string());
    }

    /// Clears all recorded values (start of a new run).
    pub fn reset(&self) {
        *self.lock() = Inner::default();
    }

    /// Takes an immutable, serialisable snapshot of everything recorded,
    /// in deterministic (sorted-by-name) order.
    pub fn snapshot(&self) -> RunReport {
        let inner = self.lock();
        let mut report = RunReport::default();
        for (name, &value) in &inner.counters {
            report.push_counter(name, value);
        }
        for (name, &value) in &inner.gauges {
            report.push_gauge(name, value);
        }
        for (name, hist) in &inner.histograms {
            report.push_histogram(name, hist.summary());
        }
        for (name, value) in &inner.meta {
            report.push_meta(name, value);
        }
        report
    }
}

/// A guard that measures the wall-clock time between its construction
/// and drop and records it (in seconds) into a [`Registry`] histogram.
///
/// Dropping is infallible; the duration lands in the histogram even when
/// the timed scope unwinds.
#[derive(Debug)]
pub struct ScopedTimer<'a> {
    registry: &'a Registry,
    name: &'a str,
    start: Instant,
}

impl<'a> ScopedTimer<'a> {
    /// Starts timing; the observation is recorded into histogram `name`
    /// when the returned guard drops.
    pub fn start(registry: &'a Registry, name: &'a str) -> Self {
        ScopedTimer {
            registry,
            name,
            // xtask: allow(nondet) — wall-clock observability timing; the
            // histogram it feeds is excluded from golden outputs.
            start: Instant::now(),
        }
    }
}

impl Drop for ScopedTimer<'_> {
    fn drop(&mut self) {
        self.registry
            .observe_seconds(self.name, self.start.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let reg = Registry::new();
        reg.inc("a");
        reg.add("a", 4);
        reg.add("b", u64::MAX);
        reg.add("b", 10);
        let r = reg.snapshot();
        assert_eq!(r.counter("a"), Some(5));
        assert_eq!(r.counter("b"), Some(u64::MAX));
        assert_eq!(r.counter("missing"), None);
    }

    #[test]
    fn gauges_last_write_wins() {
        let reg = Registry::new();
        reg.set_gauge("g", 1.0);
        reg.set_gauge("g", 2.5);
        assert_eq!(reg.snapshot().gauge("g"), Some(2.5));
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let reg = Registry::new();
        // 99 observations at ~10 µs, one at 1 ms.
        for _ in 0..99 {
            reg.observe_seconds("h", 10e-6);
        }
        reg.observe_seconds("h", 1e-3);
        let r = reg.snapshot();
        let h = r.histogram("h").expect("histogram recorded");
        assert_eq!(h.count, 100);
        // p50 should sit near 10 µs (within the ~19 % bucket resolution),
        // max exactly at 1 ms.
        assert!(h.p50_us > 8.0 && h.p50_us < 13.0, "p50 {}", h.p50_us);
        assert!(h.p95_us > 8.0 && h.p95_us < 13.0, "p95 {}", h.p95_us);
        assert!((h.max_us - 1000.0).abs() < 1e-9, "max {}", h.max_us);
        assert!(h.mean_us > 15.0 && h.mean_us < 25.0, "mean {}", h.mean_us);
    }

    #[test]
    fn histogram_p95_finds_the_tail() {
        let reg = Registry::new();
        for _ in 0..90 {
            reg.observe_seconds("h", 10e-6);
        }
        for _ in 0..10 {
            reg.observe_seconds("h", 100e-6);
        }
        let r = reg.snapshot();
        let h = r.histogram("h").expect("histogram recorded");
        assert!(h.p50_us < 13.0);
        assert!(h.p95_us > 80.0 && h.p95_us <= 100.0 + 1e-9, "{}", h.p95_us);
    }

    #[test]
    fn garbage_durations_are_clamped() {
        let reg = Registry::new();
        reg.observe_seconds("h", -1.0);
        reg.observe_seconds("h", f64::NAN);
        let h = reg.snapshot().histogram("h").cloned().expect("histogram");
        assert_eq!(h.count, 2);
        assert_eq!(h.max_us, 0.0);
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let reg = Registry::new();
        {
            let _t = ScopedTimer::start(&reg, "scope");
            std::hint::black_box(42);
        }
        assert_eq!(reg.snapshot().histogram("scope").map(|h| h.count), Some(1));
    }

    #[test]
    fn absorbed_histograms_report_like_direct_observations() {
        let samples = [3e-6, 10e-6, 10e-6, 250e-6, 1e-3, f64::NAN];
        let direct = Registry::new();
        for &s in &samples {
            direct.observe_seconds("h", s);
        }
        // Two folds into one name, as a run that checkpoints midway
        // makes; only the sum of seconds may round differently.
        let folded = Registry::new();
        let mut local = Histogram::new();
        for (k, &s) in samples.iter().enumerate() {
            local.observe_seconds(s);
            if k == 2 {
                folded.absorb_histogram("h", &mut local);
            }
        }
        folded.absorb_histogram("h", &mut local);
        // Absorbing empties `local`: a third fold adds nothing.
        folded.absorb_histogram("h", &mut local);
        let (a, b) = (direct.snapshot(), folded.snapshot());
        let (a, b) = (a.histogram("h").unwrap(), b.histogram("h").unwrap());
        assert_eq!(
            (a.count, a.p50_us, a.p95_us, a.max_us),
            (b.count, b.p50_us, b.p95_us, b.max_us)
        );
        assert!((a.mean_us - b.mean_us).abs() < 1e-9);
        // An empty histogram creates nothing.
        folded.absorb_histogram("empty", &mut Histogram::new());
        assert!(folded.snapshot().histogram("empty").is_none());
    }

    #[test]
    fn reset_clears_everything() {
        let reg = Registry::new();
        reg.inc("c");
        reg.set_gauge("g", 1.0);
        reg.observe_seconds("h", 1e-6);
        reg.set_meta("m", "x");
        reg.reset();
        let r = reg.snapshot();
        assert!(r.counters.is_empty());
        assert!(r.gauges.is_empty());
        assert!(r.histograms.is_empty());
        assert!(r.meta.is_empty());
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let build = || {
            let reg = Registry::new();
            reg.inc("z.last");
            reg.inc("a.first");
            reg.inc("m.middle");
            reg.snapshot()
        };
        let names: Vec<String> = build().counters.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
        assert_eq!(build(), build());
    }

    #[test]
    fn clone_is_independent() {
        let reg = Registry::new();
        reg.inc("c");
        let copy = reg.clone();
        reg.inc("c");
        assert_eq!(copy.snapshot().counter("c"), Some(1));
        assert_eq!(reg.snapshot().counter("c"), Some(2));
    }
}
