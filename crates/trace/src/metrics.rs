//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Handles are `&'static` and interned by name on first use — call sites
//! in hot loops should look a handle up once (the [`crate::counter_add!`]
//! and [`crate::histogram_record!`] macros cache the lookup in a
//! per-call-site `OnceLock`). Every mutation first checks
//! [`crate::enabled`], so a disabled build pays one thread-local flag read
//! per probe and the registry stays at its zero state.
//!
//! ## Histogram bucket scheme
//!
//! Histograms use [`HISTOGRAM_BUCKETS`] = 64 power-of-two buckets:
//!
//! - bucket 0 holds exactly the value 0,
//! - bucket `i` for `1 ≤ i ≤ 62` holds values in `[2^(i-1), 2^i)`,
//! - bucket 63 is the **overflow bucket**: it holds every value
//!   `≥ 2^62` and its upper bound is reported as `u64::MAX`. Records
//!   landing there are additionally counted in
//!   [`Histogram::overflow`], so a saturating histogram is visible in
//!   snapshots instead of silently folding into the top bucket.
//!
//! This spans nanoseconds to hours with ≤ 2× resolution — the right
//! trade for latency percentile readouts (p50/p95/p99) that must cost
//! O(1) per record on the hot path. Quantiles are nearest-rank over
//! bucket upper bounds, clamped to the true recorded maximum: a
//! single-sample histogram reports that sample exactly, and an
//! all-overflow histogram reports its true maximum rather than
//! `u64::MAX` (both pinned by unit tests below).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use sa_json::impl_json_struct;

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` (no-op while tracing is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A last-value-wins gauge (also tracks the maximum ever set).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicI64,
    max: AtomicI64,
}

impl Gauge {
    /// Sets the gauge (no-op while tracing is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Ordering::Relaxed);
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Maximum value ever set.
    pub fn max(&self) -> i64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Number of power-of-two histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket (power-of-two) histogram with p50/p95/p99 readout.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    overflow: AtomicU64,
}

/// Bucket index for a value: 0 holds 0, bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound of bucket `i` (used as the percentile estimate: an
/// overestimate by at most 2×, consistent across runs).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 63 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    /// Records a value (no-op while tracing is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let b = bucket_of(v);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        if b == HISTOGRAM_BUCKETS - 1 {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Number of recorded values that landed in the overflow bucket
    /// (values `≥ 2^62` — see the module docs on the bucket scheme).
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimated quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// where the cumulative count crosses `q · count` (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return bucket_upper(i).min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// Registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            name: self.name.to_string(),
            count,
            sum: self.sum(),
            mean: if count == 0 {
                0.0
            } else {
                self.sum() as f64 / count as f64
            },
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            overflow: self.overflow(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.overflow.store(0, Ordering::Relaxed);
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

fn with_registry<R>(f: impl FnOnce(&mut Vec<Metric>) -> R) -> R {
    let mut guard = match REGISTRY.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(&mut guard)
}

/// Interns (or returns the existing) counter `name`. O(registered
/// metrics) — cache the handle at hot call sites.
pub fn counter(name: &'static str) -> &'static Counter {
    with_registry(|reg| {
        for m in reg.iter() {
            if let Metric::Counter(c) = m {
                if c.name == name {
                    return *c;
                }
            }
        }
        let c: &'static Counter = Box::leak(Box::new(Counter {
            name,
            value: AtomicU64::new(0),
        }));
        reg.push(Metric::Counter(c));
        c
    })
}

/// Interns (or returns the existing) gauge `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    with_registry(|reg| {
        for m in reg.iter() {
            if let Metric::Gauge(g) = m {
                if g.name == name {
                    return *g;
                }
            }
        }
        let g: &'static Gauge = Box::leak(Box::new(Gauge {
            name,
            value: AtomicI64::new(0),
            max: AtomicI64::new(i64::MIN),
        }));
        reg.push(Metric::Gauge(g));
        g
    })
}

/// Interns (or returns the existing) histogram `name`.
pub fn histogram(name: &'static str) -> &'static Histogram {
    with_registry(|reg| {
        for m in reg.iter() {
            if let Metric::Histogram(h) = m {
                if h.name == name {
                    return *h;
                }
            }
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram {
            name,
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }));
        reg.push(Metric::Histogram(h));
        h
    })
}

/// Zeroes every registered metric (handles stay valid — the registry
/// interns for the process lifetime).
pub fn reset() {
    with_registry(|reg| {
        for m in reg.iter() {
            match m {
                Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => {
                    g.value.store(0, Ordering::Relaxed);
                    g.max.store(i64::MIN, Ordering::Relaxed);
                }
                Metric::Histogram(h) => h.reset(),
            }
        }
    });
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

impl_json_struct!(CounterSnapshot { name, value });

/// Point-in-time value of one gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
    /// Maximum value ever set.
    pub max: i64,
}

impl_json_struct!(GaugeSnapshot { name, value, max });

/// Point-in-time readout of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Mean recorded value.
    pub mean: f64,
    /// Minimum recorded value (0 when empty).
    pub min: u64,
    /// Maximum recorded value.
    pub max: u64,
    /// Median (bucket upper-bound estimate).
    pub p50: u64,
    /// 95th percentile (bucket upper-bound estimate).
    pub p95: u64,
    /// 99th percentile (bucket upper-bound estimate).
    pub p99: u64,
    /// Records that landed in the overflow bucket (values `≥ 2^62`).
    pub overflow: u64,
}

impl_json_struct!(HistogramSnapshot {
    name,
    count,
    sum,
    mean,
    min,
    max,
    p50,
    p95,
    p99,
    overflow: default
});

/// A full registry snapshot, name-sorted (deterministic output order
/// regardless of registration order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl_json_struct!(MetricsSnapshot {
    counters,
    gauges,
    histograms
});

/// Snapshots every registered metric (including zero-valued ones).
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = with_registry(|reg| {
        let mut s = MetricsSnapshot::default();
        for m in reg.iter() {
            match m {
                Metric::Counter(c) => s.counters.push(CounterSnapshot {
                    name: c.name.to_string(),
                    value: c.get(),
                }),
                Metric::Gauge(g) => s.gauges.push(GaugeSnapshot {
                    name: g.name.to_string(),
                    value: g.get(),
                    max: g.max(),
                }),
                Metric::Histogram(h) => s.histograms.push(h.snapshot()),
            }
        }
        s
    });
    snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
    snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
    snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    snap
}

/// Adds to a named counter, caching the registry lookup per call site.
/// Expands to a single thread-local flag read while tracing is disabled.
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            static __SA_TRACE_C: ::std::sync::OnceLock<&'static $crate::Counter> =
                ::std::sync::OnceLock::new();
            __SA_TRACE_C
                .get_or_init(|| $crate::metrics::counter($name))
                .add($n);
        }
    };
}

/// Records into a named histogram, caching the registry lookup per call
/// site. Expands to a single thread-local flag read while tracing is
/// disabled.
#[macro_export]
macro_rules! histogram_record {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            static __SA_TRACE_H: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            __SA_TRACE_H
                .get_or_init(|| $crate::metrics::histogram($name))
                .record($v);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoped;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let _session = scoped();
        let c = counter("test.counter_roundtrip");
        c.add(3);
        c.add(4);
        assert_eq!(c.get(), 7);
        assert!(std::ptr::eq(c, counter("test.counter_roundtrip")));
        let g = gauge("test.gauge_roundtrip");
        g.set(9);
        g.set(-2);
        assert_eq!(g.get(), -2);
        assert_eq!(g.max(), 9);
    }

    #[test]
    fn disabled_metrics_stay_zero() {
        let _session = scoped();
        crate::set_enabled(false);
        counter("test.disabled_counter").add(5);
        gauge("test.disabled_gauge").set(5);
        histogram("test.disabled_hist").record(5);
        assert_eq!(counter("test.disabled_counter").get(), 0);
        assert_eq!(gauge("test.disabled_gauge").get(), 0);
        assert_eq!(histogram("test.disabled_hist").count(), 0);
        crate::set_enabled(true);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let _session = scoped();
        let h = histogram("test.hist_quantiles");
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        // Power-of-two buckets overestimate by at most 2x.
        let p50 = h.quantile(0.5);
        assert!((500..=1000).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert!(h.quantile(1.0) == 1000);
        assert_eq!(histogram("test.hist_empty").quantile(0.5), 0);
    }

    #[test]
    fn single_sample_quantile_is_exact() {
        let _session = scoped();
        // The nearest-rank readout clamps to the recorded max, so a
        // single sample is reported exactly at every quantile — not as
        // its bucket's power-of-two upper bound.
        for v in [0u64, 1, 3, 700, 1_000_003] {
            let h = histogram(match v {
                0 => "test.hist_single_0",
                1 => "test.hist_single_1",
                3 => "test.hist_single_3",
                700 => "test.hist_single_700",
                _ => "test.hist_single_big",
            });
            h.record(v);
            assert_eq!(h.count(), 1);
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "q={q} v={v}");
            }
        }
    }

    #[test]
    fn all_overflow_histogram_reports_true_max() {
        let _session = scoped();
        let h = histogram("test.hist_all_overflow");
        let lo = 1u64 << 62;
        let hi = (1u64 << 62) + 12_345;
        h.record(lo);
        h.record(hi);
        // Both land in the overflow bucket (upper bound u64::MAX); the
        // clamp keeps the readout at the true maximum.
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.quantile(0.5), hi);
        assert_eq!(h.quantile(0.99), hi);
        let snap = h.snapshot();
        assert_eq!(snap.overflow, 2);
        assert_eq!(snap.p99, hi);
        h.reset();
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn overflow_counter_tracks_only_the_top_bucket() {
        let _session = scoped();
        let h = histogram("test.hist_overflow_edges");
        h.record((1u64 << 62) - 1); // top in-range bucket
        assert_eq!(h.overflow(), 0);
        h.record(1u64 << 62); // first overflow value
        assert_eq!(h.overflow(), 1);
        h.record(u64::MAX);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn bucket_layout_is_monotone() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        let mut prev = 0;
        for shift in 0..63 {
            let b = bucket_of(1u64 << shift);
            assert!(b >= prev);
            prev = b;
        }
        assert!(bucket_upper(5) > bucket_upper(4));
    }

    #[test]
    fn snapshot_is_sorted_and_round_trips() {
        let _session = scoped();
        counter("test.snap_b").add(2);
        counter("test.snap_a").add(1);
        histogram("test.snap_h").record(100);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let s = sa_json::to_string(&snap);
        let back: MetricsSnapshot = sa_json::from_str(&s).expect("snapshot round-trips");
        assert_eq!(back, snap);
    }

    #[test]
    fn macros_cache_and_record() {
        let _session = scoped();
        for _ in 0..10 {
            crate::counter_add!("test.macro_counter", 2);
            crate::histogram_record!("test.macro_hist", 7);
        }
        assert_eq!(counter("test.macro_counter").get(), 20);
        assert_eq!(histogram("test.macro_hist").count(), 10);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let _session = scoped();
        let c = counter("test.reset_counter");
        c.add(5);
        reset();
        assert_eq!(c.get(), 0);
        c.add(1);
        assert_eq!(c.get(), 1);
    }
}
