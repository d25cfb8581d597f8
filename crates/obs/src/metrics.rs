//! The atomic metrics registry and its handle types.
//!
//! Registration (naming a metric) takes a lock once, at construction time;
//! recording through a handle is relaxed atomics only. Handles are `Arc`s
//! onto the same cells the registry snapshots, so they can be stored in
//! hot-path structs and recorded through `&self` from any thread.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use crate::histogram::{bucket_index, HistogramSnapshot, BUCKETS};
use crate::snapshot::Snapshot;

/// Named cache statistics: the type `NeighborCache::stats()` returns and the
/// registry ingests ([`MetricsRegistry::ingest_cache`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh computation.
    pub misses: u64,
    /// Entries evicted to keep the cache within its capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in [0, 1]; 0 when never queried.
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Component-wise difference (counters are monotone; saturates at 0).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }
}

/// A monotone event counter. *Not* gated on the registry's enabled flag: a
/// counter bump is a single relaxed `fetch_add`, and consumers (cache
/// hit-rate accounting) rely on counters being always correct.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A counter not attached to any registry (counts, never snapshotted).
    pub fn detached() -> Self {
        Self { cell: Arc::new(AtomicU64::new(0)) }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value — for mirroring an external monotone counter into
    /// the registry (e.g. [`MetricsRegistry::ingest_cache`]), not for
    /// hot-path use.
    pub fn store(&self, n: u64) {
        self.cell.store(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64` (stored as its bit pattern).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    pub fn detached() -> Self {
        Self { cell: Arc::new(AtomicU64::new(0f64.to_bits())) }
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// The shared state of one histogram: fixed bucket array plus scalar
/// accumulators. Padded nothing, locked nothing.
struct HistCell {
    enabled: Arc<AtomicBool>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket latency histogram (values in nanoseconds). Recording is
/// gated on the owning registry's enabled flag and costs a handful of
/// relaxed atomic operations when on, one relaxed load when off.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistCell>,
}

impl Histogram {
    fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        let mut buckets = Vec::with_capacity(BUCKETS);
        buckets.resize_with(BUCKETS, || AtomicU64::new(0));
        Self {
            cell: Arc::new(HistCell {
                enabled,
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// A histogram not attached to any registry, always recording.
    pub fn detached() -> Self {
        Self::with_flag(Arc::new(AtomicBool::new(true)))
    }

    /// Whether recording is currently on (the owning registry's flag).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cell.enabled.load(Ordering::Relaxed)
    }

    /// Record one value (no-op while disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.is_enabled() {
            return;
        }
        let c = &*self.cell;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let c = &*self.cell;
        let mut buckets = Vec::new();
        for (i, b) in c.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        let count = c.count.load(Ordering::Relaxed);
        let min = c.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 && min == u64::MAX { 0 } else { min },
            max: c.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry: a named set of metrics sharing one enabled flag.
///
/// Disabled by default ([`MetricsRegistry::new`]); a disabled registry still
/// counts counters and sets gauges (both are single relaxed atomics) but
/// skips histogram recording and clock reads entirely.
#[derive(Default)]
pub struct MetricsRegistry {
    enabled: Arc<AtomicBool>,
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").field("enabled", &self.is_enabled()).finish()
    }
}

impl MetricsRegistry {
    /// A disabled registry (near-free recording until enabled).
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry with recording already on.
    pub fn enabled() -> Self {
        let r = Self::new();
        r.set_enabled(true);
        r
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip histogram/timer recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Lock the metric map, recovering from poisoning: every critical
    /// section below is a single map operation that cannot be torn by a
    /// panicking holder.
    fn metrics_mut(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn metrics_ref(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Get or register the counter `name`. If the name is already taken by a
    /// metric of another kind, a detached handle is returned (it records but
    /// is not snapshotted) — callers own the namespace, so this only happens
    /// on a naming bug and must not panic the server.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics_mut();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Counter(Counter::detached())) {
            Metric::Counter(c) => c.clone(),
            _ => Counter::detached(),
        }
    }

    /// Get or register the gauge `name` (same collision policy as
    /// [`Self::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics_mut();
        match m.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Gauge::detached())) {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::detached(),
        }
    }

    /// Get or register the histogram `name` (same collision policy as
    /// [`Self::counter`]). The handle shares this registry's enabled flag.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics_mut();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::with_flag(Arc::clone(&self.enabled))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::with_flag(Arc::clone(&self.enabled)),
        }
    }

    /// Mirror a [`CacheStats`] reading into `{prefix}.hits` / `.misses` /
    /// `.evictions` counters, so cache effectiveness appears
    /// in snapshots next to the stage timings.
    pub fn ingest_cache(&self, prefix: &str, stats: CacheStats) {
        self.counter(&format!("{prefix}.hits")).store(stats.hits);
        self.counter(&format!("{prefix}.misses")).store(stats.misses);
        self.counter(&format!("{prefix}.evictions")).store(stats.evictions);
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics_ref();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => histograms.push(h.snapshot(name)),
            }
        }
        Snapshot { counters, gauges, histograms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_regardless_of_enabled() {
        let r = MetricsRegistry::new();
        assert!(!r.is_enabled());
        let c = r.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name, same cell.
        assert_eq!(r.counter("x").get(), 5);
    }

    #[test]
    fn gauges_hold_last_value() {
        let r = MetricsRegistry::new();
        let g = r.gauge("loss");
        g.set(0.75);
        assert_eq!(r.gauge("loss").get(), 0.75);
        g.set(-1.5);
        assert_eq!(g.get(), -1.5);
    }

    #[test]
    fn histogram_respects_enabled_flag() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat");
        h.record(100);
        assert_eq!(h.count(), 0, "disabled registry must not record");
        r.set_enabled(true);
        h.record(100);
        h.record(200);
        assert_eq!(h.count(), 2);
        r.set_enabled(false);
        h.record(300);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn detached_histogram_always_records() {
        let h = Histogram::detached();
        h.record(7);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn kind_collision_returns_detached_handle() {
        let r = MetricsRegistry::enabled();
        let c = r.counter("name");
        c.inc();
        let h = r.histogram("name"); // wrong kind: detached, not snapshotted
        h.record(5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("name"), Some(1));
        assert!(snap.histogram("name").is_none());
    }

    #[test]
    fn snapshot_collects_all_kinds() {
        let r = MetricsRegistry::enabled();
        r.counter("a").add(3);
        r.gauge("b").set(1.25);
        r.histogram("c").record(10);
        let s = r.snapshot();
        assert_eq!(s.counter("a"), Some(3));
        assert_eq!(s.gauges, vec![("b".to_string(), 1.25)]);
        let h = s.histogram("c").expect("histogram present");
        assert_eq!(h.count, 1);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 10);
    }

    #[test]
    fn ingest_cache_mirrors_counters() {
        let r = MetricsRegistry::new();
        let stats = CacheStats { hits: 8, misses: 2, evictions: 3 };
        r.ingest_cache("cache", stats);
        let s = r.snapshot();
        assert_eq!(s.counter("cache.hits"), Some(8));
        assert_eq!(s.counter("cache.misses"), Some(2));
        assert_eq!(s.counter("cache.evictions"), Some(3));
        assert!((stats.hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn cache_stats_since_saturates() {
        let a = CacheStats { hits: 10, misses: 4, evictions: 6 };
        let b = CacheStats { hits: 7, misses: 5, evictions: 1 };
        assert_eq!(a.since(&b), CacheStats { hits: 3, misses: 0, evictions: 5 });
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = std::sync::Arc::new(MetricsRegistry::enabled());
        let h = r.histogram("lat");
        let c = r.counter("n");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                let c = c.clone();
                scope.spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v % 97);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(c.get(), 4000);
        let snap = r.snapshot();
        let hs = snap.histogram("lat").expect("present");
        assert_eq!(hs.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4000);
    }
}
