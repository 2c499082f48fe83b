//! The sharded, lock-cheap metrics registry.
//!
//! Three metric kinds cover everything the workspace measures:
//!
//! * [`Counter`] — a monotonic event count, **sharded** across
//!   [`SHARDS`] relaxed atomics so that the net runtime's worker threads
//!   (up to one per cell) never contend on one cache line;
//! * [`Gauge`] — a signed instantaneous level (queue depth, population);
//! * [`Histogram`] — a fixed power-of-two-bucket latency distribution
//!   (ns per phase, barrier wait, round time) with an atomic count per
//!   bucket. Observing never allocates, so instrumented hot loops keep the
//!   zero-clone engine's steady-state no-allocation guarantee.
//!
//! Every handle is a cheap `Arc` clone of registry-owned storage, and every
//! handle has a **no-op form**: a handle minted by [`Registry::disabled`]
//! carries no storage at all, so the disabled fast path is a single
//! `Option` check that the optimizer folds away — the perf envelope of the
//! uninstrumented code is preserved (asserted by `BENCH_PR5.json` and the
//! bench tests).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of independent counter shards. Enough that a pool of worker
/// threads rarely collides; small enough that summing is trivial.
pub const SHARDS: usize = 16;

/// Number of histogram buckets: bucket `k` holds observations in
/// `[2^k, 2^(k+1))` (bucket 0 also holds 0), so 40 buckets cover 1 ns up to
/// ~18 minutes — every latency this workspace can produce.
pub const BUCKETS: usize = 40;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread gets a fixed shard, assigned round-robin at first use.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS;
}

fn my_shard() -> usize {
    MY_SHARD.with(|s| *s)
}

#[derive(Default)]
struct CounterInner {
    shards: [AtomicU64; SHARDS],
}

/// A monotonic counter. Cloning shares the underlying storage; a default or
/// [`Counter::noop`] handle silently discards increments.
#[derive(Clone, Default)]
pub struct Counter {
    inner: Option<Arc<CounterInner>>,
}

impl Counter {
    /// A handle that records nothing (the disabled sink).
    pub fn noop() -> Counter {
        Counter::default()
    }

    /// `true` if increments actually land somewhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(inner) = &self.inner {
            inner.shards[my_shard()].fetch_add(n, Relaxed);
        }
    }

    /// The current total across all shards (0 for a no-op handle).
    pub fn value(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.shards.iter().map(|s| s.load(Relaxed)).sum(),
            None => 0,
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

#[derive(Default)]
struct GaugeInner {
    value: AtomicI64,
}

/// A signed instantaneous level.
#[derive(Clone, Default)]
pub struct Gauge {
    inner: Option<Arc<GaugeInner>>,
}

impl Gauge {
    /// A handle that records nothing.
    pub fn noop() -> Gauge {
        Gauge::default()
    }

    /// `true` if updates actually land somewhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(inner) = &self.inner {
            inner.value.store(v, Relaxed);
        }
    }

    /// Adjusts the level by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(inner) = &self.inner {
            inner.value.fetch_add(delta, Relaxed);
        }
    }

    /// Raises the level to `v` if it is higher than the current value
    /// (a cheap racy high-water mark — exact under one writer, and never
    /// loses more than a concurrent update's worth of precision otherwise).
    #[inline]
    pub fn record_max(&self, v: i64) {
        if let Some(inner) = &self.inner {
            let mut cur = inner.value.load(Relaxed);
            while v > cur {
                match inner.value.compare_exchange_weak(cur, v, Relaxed, Relaxed) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// The current level (0 for a no-op handle).
    pub fn value(&self) -> i64 {
        match &self.inner {
            Some(inner) => inner.value.load(Relaxed),
            None => 0,
        }
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.value())
    }
}

struct HistogramInner {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> HistogramInner {
        HistogramInner {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index of an observation: `floor(log2(v))`, clamped.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((63 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The inclusive upper edge of bucket `k` (`2^(k+1) − 1`).
pub fn bucket_upper(k: usize) -> u64 {
    if k + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (k + 1)) - 1
    }
}

/// A fixed-bucket distribution of `u64` observations (nanoseconds, queue
/// sizes, …). Observing is two relaxed atomic adds — no locks, no
/// allocation.
#[derive(Clone, Default)]
pub struct Histogram {
    inner: Option<Arc<HistogramInner>>,
}

impl Histogram {
    /// A handle that records nothing.
    pub fn noop() -> Histogram {
        Histogram::default()
    }

    /// `true` if observations actually land somewhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(inner) = &self.inner {
            inner.counts[bucket_of(v)].fetch_add(1, Relaxed);
            inner.sum.fetch_add(v, Relaxed);
        }
    }

    /// Starts a span whose elapsed nanoseconds are recorded when the guard
    /// drops (or on [`Span::stop`]).
    #[inline]
    pub fn start(&self) -> Span {
        Span {
            started: self.is_enabled().then(Instant::now),
            histogram: self.clone(),
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.counts.iter().map(|c| c.load(Relaxed)).sum(),
            None => 0,
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.sum.load(Relaxed),
            None => 0,
        }
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// The upper edge of the bucket containing quantile `q` ∈ [0, 1] — an
    /// upper bound on the true quantile, within a factor of 2.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(k);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Per-bucket observation counts.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        match &self.inner {
            Some(inner) => std::array::from_fn(|k| inner.counts[k].load(Relaxed)),
            None => [0; BUCKETS],
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(count={}, p50={}, p99={})",
            self.count(),
            self.quantile(0.5),
            self.quantile(0.99)
        )
    }
}

/// A timing span: records its elapsed nanoseconds into the histogram it was
/// started from when dropped. No-op (and free of `Instant` calls) when the
/// histogram is disabled.
#[must_use = "a span records on drop; binding it to _ measures nothing"]
pub struct Span {
    started: Option<Instant>,
    histogram: Histogram,
}

impl Span {
    /// Ends the span now and returns the recorded nanoseconds (`None` if
    /// the histogram is disabled).
    pub fn stop(mut self) -> Option<u64> {
        let started = self.started.take()?;
        let ns = started.elapsed().as_nanos() as u64;
        self.histogram.observe(ns);
        Some(ns)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            self.histogram.observe(started.elapsed().as_nanos() as u64);
        }
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// One metric's point-in-time reading, as taken by [`Registry::snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricSnapshot {
    /// A counter's total.
    Counter {
        /// Metric name.
        name: String,
        /// Current total.
        value: u64,
    },
    /// A gauge's level.
    Gauge {
        /// Metric name.
        name: String,
        /// Current level.
        value: i64,
    },
    /// A histogram's distribution.
    Histogram {
        /// Metric name.
        name: String,
        /// Total observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// `(inclusive upper edge, observations)` for every non-empty
        /// bucket, ascending.
        buckets: Vec<(u64, u64)>,
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

/// A named collection of metrics shared by everything one run instruments.
///
/// Cloning shares the registry. Handles minted by a disabled registry are
/// all no-ops, so instrumented code needs no `if telemetry` branches of its
/// own — it asks for its metrics unconditionally and the disabled path
/// costs one pointer check per operation.
#[derive(Clone)]
pub struct Registry {
    inner: Option<Arc<Mutex<BTreeMap<String, Slot>>>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(Mutex::new(BTreeMap::new()))),
        }
    }

    /// The disabled registry: every handle it mints is a no-op.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// `true` if this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn slot(&self, name: &str, make: impl FnOnce() -> Slot) -> Option<Slot> {
        let inner = self.inner.as_ref()?;
        let mut map = inner.lock().unwrap_or_else(|e| e.into_inner());
        let slot = map.entry(name.to_string()).or_insert_with(make);
        Some(match slot {
            Slot::Counter(c) => Slot::Counter(c.clone()),
            Slot::Gauge(g) => Slot::Gauge(g.clone()),
            Slot::Histogram(h) => Slot::Histogram(h.clone()),
        })
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.slot(name, || {
            Slot::Counter(Counter {
                inner: Some(Arc::new(CounterInner::default())),
            })
        }) {
            None => Counter::noop(),
            Some(Slot::Counter(c)) => c,
            Some(other) => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.slot(name, || {
            Slot::Gauge(Gauge {
                inner: Some(Arc::new(GaugeInner::default())),
            })
        }) {
            None => Gauge::noop(),
            Some(Slot::Gauge(g)) => g,
            Some(other) => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.slot(name, || {
            Slot::Histogram(Histogram {
                inner: Some(Arc::new(HistogramInner::default())),
            })
        }) {
            None => Histogram::noop(),
            Some(Slot::Histogram(h)) => h,
            Some(other) => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// A point-in-time reading of every registered metric, sorted by name
    /// (deterministic rendering order).
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let map = inner.lock().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .map(|(name, slot)| match slot {
                Slot::Counter(c) => MetricSnapshot::Counter {
                    name: name.clone(),
                    value: c.value(),
                },
                Slot::Gauge(g) => MetricSnapshot::Gauge {
                    name: name.clone(),
                    value: g.value(),
                },
                Slot::Histogram(h) => MetricSnapshot::Histogram {
                    name: name.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h
                        .bucket_counts()
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(k, &c)| (bucket_upper(k), c))
                        .collect(),
                },
            })
            .collect()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Registry(disabled)"),
            Some(inner) => {
                let map = inner.lock().unwrap_or_else(|e| e.into_inner());
                write!(f, "Registry({} metrics)", map.len())
            }
        }
    }
}

/// The engine's per-phase span set (Route / Signal / Move plus the whole
/// round), registered under the `cellflow_engine_*` names. Defined here so
/// every layer that drives an engine shares one metric vocabulary.
#[derive(Clone, Debug)]
pub struct PhaseTimers {
    /// `Route` phase nanoseconds.
    pub route: Histogram,
    /// `Signal` phase nanoseconds.
    pub signal: Histogram,
    /// `Move` phase (including source insertion) nanoseconds.
    pub mv: Histogram,
    /// Whole-round nanoseconds.
    pub round: Histogram,
}

impl PhaseTimers {
    /// Registers the standard engine phase histograms on `registry`.
    pub fn register(registry: &Registry) -> PhaseTimers {
        PhaseTimers {
            route: registry.histogram("cellflow_engine_route_ns"),
            signal: registry.histogram("cellflow_engine_signal_ns"),
            mv: registry.histogram("cellflow_engine_move_ns"),
            round: registry.histogram("cellflow_engine_round_ns"),
        }
    }
}

/// The sparse scheduler's metric set: how much of the grid each round
/// actually touched. Registered under the `cellflow_engine_*` names beside [`PhaseTimers`] so
/// the occupancy of the active set lands in the same registry as the phase
/// timings it explains.
#[derive(Clone, Debug)]
pub struct SchedulerMetrics {
    /// Distinct cells any phase ran on in the most recent round
    /// (`cellflow_engine_active_cells`). A dense round sets this to the full
    /// cell count; a quiescent sparse round to near zero.
    pub active_cells: Gauge,
    /// Running total of cells skipped by the active-set scheduler
    /// (`cellflow_engine_skipped_cells_total`).
    pub skipped_cells: Counter,
}

impl SchedulerMetrics {
    /// Registers the scheduler gauges/counters on `registry`.
    pub fn register(registry: &Registry) -> SchedulerMetrics {
        SchedulerMetrics {
            active_cells: registry.gauge("cellflow_engine_active_cells"),
            skipped_cells: registry.counter("cellflow_engine_skipped_cells_total"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shard_and_sum() {
        let reg = Registry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        // A clone shares storage; the registry hands back the same counter.
        let c2 = reg.counter("c");
        c2.inc();
        assert_eq!(c.value(), 6);
        assert!(c.is_enabled());
    }

    #[test]
    fn counters_sum_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("t");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8_000);
    }

    #[test]
    fn gauges_set_add_and_record_max() {
        let g = Registry::new().gauge("g");
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
        g.record_max(5);
        assert_eq!(g.value(), 7, "record_max never lowers");
        g.record_max(42);
        assert_eq!(g.value(), 42);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Registry::new().histogram("h");
        for v in [0, 1, 2, 3, 100, 1000, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1_001_106);
        assert_eq!(h.mean(), 1_001_106 / 7);
        // p50 of 7 values = 4th smallest (3) → bucket [2,4) → upper edge 3.
        assert_eq!(h.quantile(0.5), 3);
        assert!(h.quantile(1.0) >= 1_000_000);
        assert_eq!(h.quantile(0.0), 1, "rank clamps to the first observation");
        let counts = h.bucket_counts();
        assert_eq!(counts.iter().sum::<u64>(), 7);
        assert_eq!(counts[0], 2); // 0 and 1
    }

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(9), 1023);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn spans_record_elapsed_time() {
        let h = Registry::new().histogram("span");
        {
            let _span = h.start();
        }
        let ns = h.start().stop();
        assert_eq!(h.count(), 2);
        assert!(ns.is_some());
    }

    #[test]
    fn disabled_registry_is_a_total_noop() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("c");
        let g = reg.gauge("g");
        let h = reg.histogram("h");
        c.inc();
        g.set(9);
        h.observe(100);
        assert_eq!((c.value(), g.value(), h.count()), (0, 0, 0));
        assert!(!h.is_enabled());
        assert_eq!(
            h.start().stop(),
            None,
            "disabled spans never read the clock"
        );
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("z_events").add(3);
        reg.gauge("m_depth").set(-2);
        reg.histogram("a_ns").observe(7);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name()).collect();
        assert_eq!(names, ["a_ns", "m_depth", "z_events"]);
        assert_eq!(
            snap[2],
            MetricSnapshot::Counter {
                name: "z_events".into(),
                value: 3
            }
        );
        match &snap[0] {
            MetricSnapshot::Histogram {
                count,
                sum,
                buckets,
                ..
            } => {
                assert_eq!((*count, *sum), (1, 7));
                assert_eq!(buckets, &[(7, 1)]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn phase_timers_register_standard_names() {
        let reg = Registry::new();
        let timers = PhaseTimers::register(&reg);
        timers.route.observe(1);
        timers.round.observe(4);
        let names: Vec<String> = reg
            .snapshot()
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        assert!(names.contains(&"cellflow_engine_route_ns".to_string()));
        assert!(names.contains(&"cellflow_engine_round_ns".to_string()));
        assert_eq!(names.len(), 4);
    }
}
