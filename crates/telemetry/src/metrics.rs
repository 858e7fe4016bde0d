//! The metrics registry: named atomic counters, gauges, and fixed-bucket
//! histograms, plus the workspace's one nearest-rank percentile helper.
//!
//! Metrics share the tracer's enable gate ([`crate::enabled`]): when
//! tracing is off every write path is a single relaxed atomic load and an
//! early return, so instrumented hot loops (kernels, transport) cost
//! nothing measurable in normal runs.
//!
//! The registry is keyed by name in a `BTreeMap` so exports are stable and
//! sorted; lookups take a short global lock, so callers on hot paths
//! should either rely on the disabled early-out or cache the
//! [`std::sync::Arc`] handle returned by the `register_*` functions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::span::enabled;

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// Uses the classic nearest-rank definition: `rank = ceil(p/100 * n)`
/// clamped to `[1, n]`, returning `sorted[rank - 1]`. `p = 0` therefore
/// selects the first element and `p = 100` the last. Returns 0.0 for an
/// empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current counter value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value / max gauge storing an `f64` as raw bits.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge to `v` (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if `v` exceeds the current value.
    #[inline]
    fn set_max(&self, v: f64) {
        if !enabled() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self
                .bits
                .compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current gauge value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram: counts per upper-bound bucket plus a final
/// overflow bucket, a total count, and a running sum.
#[derive(Debug)]
pub struct Histogram {
    /// Ascending inclusive upper bounds; values above the last bound land
    /// in the overflow bucket.
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket at the end.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum of observed values, stored as f64 bits and updated by
    /// CAS (observation rates here never make this a bottleneck).
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation (no-op while telemetry is disabled).
    pub fn observe(&self, v: f64) {
        if !enabled() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The configured bucket upper bounds (ascending).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

/// One registered metric.
#[derive(Debug)]
pub enum Metric {
    /// A monotonically increasing counter.
    Counter(Counter),
    /// A last-value / max gauge.
    Gauge(Gauge),
    /// A fixed-bucket histogram.
    Histogram(Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<String, Arc<Metric>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Arc<Metric>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn register(name: &str, make: impl FnOnce() -> Metric) -> Arc<Metric> {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    Arc::clone(reg.entry(name.to_owned()).or_insert_with(|| Arc::new(make())))
}

/// Adds `n` to the counter named `name` (registers it on first use).
pub fn counter_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    let m = register(name, || Metric::Counter(Counter::default()));
    if let Metric::Counter(c) = &*m {
        c.add(n);
    }
}

/// Adds `n` to the counter named `name.label` (registers it on first
/// use). A thin convenience over [`counter_add`] for per-replica /
/// per-tenant fan-out ("fleet.served" + "replica-2" →
/// "fleet.served.replica-2"): the label lands in the metric name, so
/// labelled series sort together in exports.
pub fn counter_add_labeled(name: &str, label: &str, n: u64) {
    if !enabled() {
        return;
    }
    counter_add(&format!("{name}.{label}"), n);
}

/// Sets the gauge named `name` to `v` (registers it on first use).
pub fn gauge_set(name: &str, v: f64) {
    if !enabled() {
        return;
    }
    let m = register(name, || Metric::Gauge(Gauge::default()));
    if let Metric::Gauge(g) = &*m {
        g.set(v);
    }
}

/// Raises the gauge named `name` to at least `v` (registers it on first
/// use).
pub fn gauge_set_max(name: &str, v: f64) {
    if !enabled() {
        return;
    }
    let m = register(name, || Metric::Gauge(Gauge::default()));
    if let Metric::Gauge(g) = &*m {
        g.set_max(v);
    }
}

/// Records `v` into the histogram named `name`, creating it with `bounds`
/// on first use (later calls ignore `bounds`).
pub fn histogram_observe(name: &str, bounds: &[f64], v: f64) {
    if !enabled() {
        return;
    }
    let m = register(name, || Metric::Histogram(Histogram::new(bounds.to_vec())));
    if let Metric::Histogram(h) = &*m {
        h.observe(v);
    }
}

/// A point-in-time copy of one metric's state, for export.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter {
        /// Metric name.
        name: String,
        /// Counter value.
        value: u64,
    },
    /// Gauge value.
    Gauge {
        /// Metric name.
        name: String,
        /// Gauge value.
        value: f64,
    },
    /// Histogram state.
    Histogram {
        /// Metric name.
        name: String,
        /// Bucket upper bounds (ascending).
        bounds: Vec<f64>,
        /// Per-bucket counts; final entry is the overflow bucket.
        buckets: Vec<u64>,
        /// Total observation count.
        count: u64,
        /// Sum of observed values.
        sum: f64,
    },
}

impl MetricSnapshot {
    /// The metric's name.
    pub fn name(&self) -> &str {
        match self {
            MetricSnapshot::Counter { name, .. }
            | MetricSnapshot::Gauge { name, .. }
            | MetricSnapshot::Histogram { name, .. } => name,
        }
    }
}

/// Snapshots every registered metric, sorted by name.
pub fn snapshot_metrics() -> Vec<MetricSnapshot> {
    let reg = registry().lock().expect("metrics registry poisoned");
    reg.iter()
        .map(|(name, m)| match &**m {
            Metric::Counter(c) => MetricSnapshot::Counter {
                name: name.clone(),
                value: c.get(),
            },
            Metric::Gauge(g) => MetricSnapshot::Gauge {
                name: name.clone(),
                value: g.get(),
            },
            Metric::Histogram(h) => MetricSnapshot::Histogram {
                name: name.clone(),
                bounds: h.bounds().to_vec(),
                buckets: h.bucket_counts(),
                count: h.count(),
                sum: h.sum(),
            },
        })
        .collect()
}

/// Removes every registered metric (test / smoke-harness support).
pub fn reset_metrics() {
    registry().lock().expect("metrics registry poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::set_enabled;
    use crate::span::tests::LOCK;

    #[test]
    fn percentile_edge_cases() {
        // Empty input.
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Single sample: every percentile returns it, including p=0.
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 100.0), 7.0);
        // p=0 clamps to the first element.
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        // Nearest rank: p50 of 4 samples is the 2nd.
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 75.0), 3.0);
        assert_eq!(percentile(&v, 76.0), 4.0);
        // Ties: repeated values are returned as-is.
        let t = [1.0, 5.0, 5.0, 5.0, 9.0];
        assert_eq!(percentile(&t, 40.0), 5.0);
        assert_eq!(percentile(&t, 60.0), 5.0);
        assert_eq!(percentile(&t, 80.0), 5.0);
    }

    #[test]
    fn counters_gauges_histograms_register_and_accumulate() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        reset_metrics();
        counter_add("t.counter", 2);
        counter_add("t.counter", 3);
        gauge_set("t.gauge", 1.5);
        gauge_set_max("t.gauge", 0.5); // lower: ignored
        gauge_set_max("t.gauge", 2.5); // higher: taken
        histogram_observe("t.hist", &[1.0, 10.0], 0.5);
        histogram_observe("t.hist", &[1.0, 10.0], 1.0); // boundary: first bucket
        histogram_observe("t.hist", &[1.0, 10.0], 5.0);
        histogram_observe("t.hist", &[1.0, 10.0], 99.0); // overflow
        set_enabled(false);
        let snaps = snapshot_metrics();
        assert_eq!(
            snaps[0],
            MetricSnapshot::Counter {
                name: "t.counter".into(),
                value: 5
            }
        );
        assert_eq!(
            snaps[1],
            MetricSnapshot::Gauge {
                name: "t.gauge".into(),
                value: 2.5
            }
        );
        match &snaps[2] {
            MetricSnapshot::Histogram {
                name,
                bounds,
                buckets,
                count,
                sum,
            } => {
                assert_eq!(name, "t.hist");
                assert_eq!(bounds, &[1.0, 10.0]);
                assert_eq!(buckets, &[2, 1, 1]);
                assert_eq!(*count, 4);
                assert!((sum - 105.5).abs() < 1e-9);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        reset_metrics();
    }

    #[test]
    fn labeled_counters_land_in_distinct_series() {
        let _g = LOCK.lock().unwrap();
        set_enabled(true);
        reset_metrics();
        counter_add_labeled("fleet.served", "replica-0", 2);
        counter_add_labeled("fleet.served", "replica-1", 3);
        counter_add_labeled("fleet.served", "replica-0", 1);
        set_enabled(false);
        let snaps = snapshot_metrics();
        assert_eq!(
            snaps[0],
            MetricSnapshot::Counter {
                name: "fleet.served.replica-0".into(),
                value: 3
            }
        );
        assert_eq!(
            snaps[1],
            MetricSnapshot::Counter {
                name: "fleet.served.replica-1".into(),
                value: 3
            }
        );
        reset_metrics();
    }

    #[test]
    fn disabled_metrics_do_not_accumulate() {
        let _g = LOCK.lock().unwrap();
        set_enabled(false);
        reset_metrics();
        counter_add("t.off", 10);
        gauge_set("t.off.g", 3.0);
        histogram_observe("t.off.h", &[1.0], 2.0);
        assert!(snapshot_metrics().is_empty());
    }
}
