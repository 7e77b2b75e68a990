//! # patty-telemetry
//!
//! Runtime telemetry for Patty's tunable patterns and process phases.
//!
//! The paper's tuning loop (Section 2.1) treats a parallelized program
//! as a black box: run it, measure wall time, adjust parameters. This
//! crate opens the box a crack — it records *where* items flowed and
//! *where* time went while keeping the instrumented code paths cheap
//! enough to leave compiled in:
//!
//! * **Counters** — monotonically increasing `u64`s (items per pipeline
//!   stage, chunks claimed by a data-parallel worker, tasks completed by
//!   a master/worker instance). Pre-registered so the hot path is one
//!   relaxed atomic add, no hashing.
//! * **Histograms** — log2-bucketed distributions (bounded-queue
//!   occupancy, chunk sizes) with exact min/max/sum.
//! * **Spans** — drop-guard timers aggregated by name, used by the
//!   process model so each phase (detect → annotate → transform →
//!   validate → tune) reports its wall time.
//! * **Tuner iterations** — one record per auto-tuner evaluation:
//!   iteration number, parameter assignment, measured objective, and
//!   whether it became the incumbent best.
//!
//! A [`Telemetry`] handle is either *enabled* (shared sink) or
//! *disabled* (no allocation, no locks; every operation is a branch on
//! a `None`). Pattern builders take the handle by value and clone it
//! into workers; `Telemetry::disabled()` is the default everywhere, so
//! unprofiled runs pay only the dead branch.
//!
//! [`TelemetryReport`] snapshots everything into a deterministic,
//! alphabetically sorted structure and renders it with `patty-json` —
//! the same report the `patty profile` CLI mode prints.

use parking_lot::Mutex;
use patty_json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of log2 buckets in a histogram: values 0, 1, 2-3, 4-7, ...
/// up to 2^62 and beyond in the final bucket.
const BUCKETS: usize = 64;

/// Log2 bucket of a value: 0 for zero, `floor(log2(v)) + 1` otherwise.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Shared histogram storage. Lock-free: every field is a relaxed
/// atomic, so the instrumented hot paths (one [`Histogram::record`] per
/// pipeline batch, one [`Histogram::merge`] per parallel-for worker)
/// never take a lock or touch the registry map.
struct HistogramCore {
    /// bucket\[i\] counts values v with floor(log2(v)) == i-1 (bucket 0
    /// counts zeros).
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first observation.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn merge(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (slot, &n) in self.buckets.iter().zip(&local.buckets) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.min.fetch_min(local.min, Ordering::Relaxed);
        self.max.fetch_max(local.max, Ordering::Relaxed);
    }

    fn summary(&self, name: &str) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        HistogramSummary {
            name: name.to_string(),
            count,
            sum,
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
        }
    }
}

/// A thread-local histogram accumulator for the tightest loops: workers
/// record into plain fields (no atomics at all) and fold the whole
/// batch into the shared [`Histogram`] once, via
/// [`Histogram::merge`] — one flush per worker per run instead of one
/// shared-cacheline RMW per observation.
#[derive(Clone, Debug)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl LocalHistogram {
    pub fn new() -> LocalHistogram {
        LocalHistogram::default()
    }

    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Pre-registered histogram handle, the distribution-shaped sibling of
/// [`Counter`]: recording is lock-free (a handful of relaxed atomic
/// adds), and a [`LocalHistogram`] batch folds in with one
/// [`Histogram::merge`]. On a disabled handle both are inert.
#[derive(Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("enabled", &self.core.is_some()).finish()
    }
}

impl Histogram {
    /// The inert handle (what disabled telemetry hands out).
    pub fn disabled() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        if let Some(core) = &self.core {
            core.record(value);
        }
    }

    /// Fold a worker-local batch into the shared histogram.
    pub fn merge(&self, local: &LocalHistogram) {
        if let Some(core) = &self.core {
            core.merge(local);
        }
    }
}

#[derive(Default)]
struct SpanStats {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl SpanStats {
    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }
}

/// One auto-tuner evaluation, logged by the tuning crate.
#[derive(Clone, Debug, PartialEq)]
pub struct TunerIteration {
    /// 1-based evaluation number.
    pub iteration: u64,
    /// Parameter assignment evaluated, as `(qualified name, value)`.
    pub params: Vec<(String, i64)>,
    /// Measured objective (lower is better; typically milliseconds).
    pub objective: f64,
    /// Whether this evaluation became the incumbent best.
    pub improved: bool,
}

#[derive(Default)]
struct Inner {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<HashMap<String, Arc<HistogramCore>>>,
    spans: Mutex<HashMap<String, SpanStats>>,
    tuner: Mutex<Vec<TunerIteration>>,
}

/// A cheaply cloneable telemetry handle — either a shared sink or a
/// no-op. All pattern builders accept one; `Telemetry::disabled()` is
/// the default and makes every operation a branch on `None`.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish()
    }
}

impl Telemetry {
    /// A live handle that records everything sent to it.
    pub fn enabled() -> Telemetry {
        Telemetry { inner: Some(Arc::new(Inner::default())) }
    }

    /// The no-op handle. Never allocates, never locks.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Pre-register a counter. The returned handle costs one relaxed
    /// atomic add per increment; on a disabled handle it is inert.
    pub fn counter(&self, name: &str) -> Counter {
        let slot = self.inner.as_ref().map(|inner| {
            Arc::clone(
                inner
                    .counters
                    .lock()
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        });
        Counter { slot }
    }

    /// One-shot counter add without keeping a handle (cold paths only —
    /// pays a map lookup).
    pub fn add(&self, name: &str, delta: u64) {
        if self.inner.is_some() {
            self.counter(name).add(delta);
        }
    }

    /// Pre-register a histogram. The returned handle records with a few
    /// relaxed atomic adds — no lock, no hashing; on a disabled handle
    /// it is inert.
    pub fn histogram(&self, name: &str) -> Histogram {
        let core = self.inner.as_ref().map(|inner| {
            Arc::clone(inner.histograms.lock().entry(name.to_string()).or_default())
        });
        Histogram { core }
    }

    /// One-shot observation into the named histogram (cold paths only —
    /// pays a map lookup; hot loops should hold a [`Histogram`]).
    pub fn record(&self, name: &str, value: u64) {
        if self.inner.is_some() {
            self.histogram(name).record(value);
        }
    }

    /// Start a timed span; the elapsed time is aggregated under `name`
    /// when the returned guard drops.
    pub fn span(&self, name: &str) -> Span {
        Span {
            target: self.inner.as_ref().map(|inner| (Arc::clone(inner), name.to_string())),
            started: Instant::now(),
        }
    }

    /// Time a closure as a span and return its result.
    pub fn timed<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    /// Append one auto-tuner evaluation record.
    pub fn log_tuner_iteration(&self, record: TunerIteration) {
        if let Some(inner) = &self.inner {
            inner.tuner.lock().push(record);
        }
    }

    /// Snapshot everything recorded so far. Disabled handles report
    /// nothing. Counters registered but never incremented are included
    /// at zero so reports enumerate the instrumented surface.
    pub fn report(&self) -> TelemetryReport {
        let Some(inner) = &self.inner else {
            return TelemetryReport::default();
        };
        let mut counters: Vec<(String, u64)> = inner
            .counters
            .lock()
            .iter()
            .map(|(name, slot)| (name.clone(), slot.load(Ordering::Relaxed)))
            .collect();
        counters.sort();
        let mut histograms: Vec<HistogramSummary> = inner
            .histograms
            .lock()
            .iter()
            .map(|(name, h)| h.summary(name))
            .filter(|h| h.count > 0)
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        let mut spans: Vec<SpanSummary> = inner
            .spans
            .lock()
            .iter()
            .map(|(name, s)| SpanSummary {
                name: name.clone(),
                count: s.count,
                total_ns: s.total_ns,
                min_ns: s.min_ns,
                max_ns: s.max_ns,
            })
            .collect();
        spans.sort_by(|a, b| a.name.cmp(&b.name));
        TelemetryReport {
            counters,
            histograms,
            spans,
            tuner_iterations: inner.tuner.lock().clone(),
        }
    }
}

/// Pre-registered counter handle. `Clone` shares the same slot.
#[derive(Clone, Default)]
pub struct Counter {
    slot: Option<Arc<AtomicU64>>,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("enabled", &self.slot.is_some())
            .field("value", &self.get())
            .finish()
    }
}

impl Counter {
    /// An inert counter, equivalent to one from `Telemetry::disabled()`.
    pub fn disabled() -> Counter {
        Counter { slot: None }
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(slot) = &self.slot {
            slot.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.slot.as_ref().map_or(0, |slot| slot.load(Ordering::Relaxed))
    }
}

/// Drop guard returned by [`Telemetry::span`].
pub struct Span {
    target: Option<(Arc<Inner>, String)>,
    started: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, name)) = self.target.take() {
            let ns = self.started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            inner.spans.lock().entry(name).or_default().record(ns);
        }
    }
}

/// Aggregated statistics for one named histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSummary {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
}

/// Aggregated statistics for one named span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanSummary {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl SpanSummary {
    pub(crate) fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// Deterministic snapshot of a [`Telemetry`] sink.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryReport {
    /// Alphabetically sorted `(name, value)` pairs.
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<HistogramSummary>,
    pub spans: Vec<SpanSummary>,
    pub tuner_iterations: Vec<TunerIteration>,
}

impl TelemetryReport {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.tuner_iterations.is_empty()
    }

    /// Counter value by exact name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Span summary by exact name, if present.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Render as pretty-printed JSON (the `patty profile` output).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }

    /// Render as a `patty_json::Json` value for embedding in larger
    /// documents.
    pub fn to_json_value(&self) -> Json {
        let counters = Json::Arr(
            self.counters
                .iter()
                .map(|(name, value)| {
                    Json::obj().with("name", name.as_str()).with("value", *value)
                })
                .collect(),
        );
        let histograms = Json::Arr(
            self.histograms
                .iter()
                .map(|h| {
                    Json::obj()
                        .with("name", h.name.as_str())
                        .with("count", h.count)
                        .with("sum", h.sum)
                        .with("min", h.min)
                        .with("max", h.max)
                        .with("mean", h.mean)
                })
                .collect(),
        );
        let spans = Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("name", s.name.as_str())
                        .with("count", s.count)
                        .with("total_ms", s.total_ms())
                        .with("min_ns", s.min_ns)
                        .with("max_ns", s.max_ns)
                })
                .collect(),
        );
        let tuner = Json::Arr(
            self.tuner_iterations
                .iter()
                .map(|it| {
                    Json::obj()
                        .with("iteration", it.iteration)
                        .with(
                            "params",
                            Json::Obj(
                                it.params
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Int(*v)))
                                    .collect(),
                            ),
                        )
                        .with("objective", it.objective)
                        .with("improved", it.improved)
                })
                .collect(),
        );
        Json::obj()
            .with("counters", counters)
            .with("histograms", histograms)
            .with("spans", spans)
            .with("tuner_iterations", tuner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn disabled_handle_reports_nothing() {
        let tel = Telemetry::disabled();
        let c = tel.counter("pipeline.stage.a.items");
        c.add(10);
        tel.record("queue", 3);
        tel.timed("phase", || ());
        tel.log_tuner_iteration(TunerIteration {
            iteration: 1,
            params: vec![],
            objective: 1.0,
            improved: true,
        });
        assert!(!tel.is_enabled());
        assert!(tel.report().is_empty());
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counters_are_shared_across_clones_and_threads() {
        let tel = Telemetry::enabled();
        let c = tel.counter("items");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Re-registering the same name yields the same slot.
        assert_eq!(tel.counter("items").get(), 4000);
        assert_eq!(tel.report().counter("items"), Some(4000));
    }

    #[test]
    fn histogram_summary_tracks_extremes_and_mean() {
        let tel = Telemetry::enabled();
        for v in [0u64, 1, 5, 16, 100] {
            tel.record("occupancy", v);
        }
        let report = tel.report();
        let h = &report.histograms[0];
        assert_eq!((h.count, h.min, h.max, h.sum), (5, 0, 100, 122));
        assert!((h.mean - 24.4).abs() < 1e-9);
    }

    #[test]
    fn spans_aggregate_by_name() {
        let tel = Telemetry::enabled();
        for _ in 0..3 {
            let _s = tel.span("phase.transform");
        }
        let value = tel.timed("phase.transform", || 7);
        assert_eq!(value, 7);
        let report = tel.report();
        let s = report.span("phase.transform").unwrap();
        assert_eq!(s.count, 4);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.total_ns >= s.max_ns);
    }

    #[test]
    fn report_serializes_to_json() {
        let tel = Telemetry::enabled();
        tel.counter("b.items").add(2);
        tel.counter("a.items").add(1);
        tel.record("queue", 4);
        tel.log_tuner_iteration(TunerIteration {
            iteration: 1,
            params: vec![("main.compress.replication".into(), 4)],
            objective: 12.5,
            improved: true,
        });
        let report = tel.report();
        // Counters are sorted for deterministic output.
        assert_eq!(report.counters[0].0, "a.items");
        let json = report.to_json();
        let parsed = patty_json::parse(&json).expect("report JSON parses");
        assert_eq!(
            parsed.get("counters").and_then(|c| c.as_arr()).map(|a| a.len()),
            Some(2)
        );
        let iters = parsed.get("tuner_iterations").and_then(|t| t.as_arr()).unwrap();
        assert_eq!(
            iters[0].get("params").and_then(|p| p.get("main.compress.replication")),
            Some(&Json::Int(4))
        );
        assert_eq!(iters[0].get("improved"), Some(&Json::Bool(true)));
    }

    #[test]
    fn histogram_handles_share_one_core_across_threads() {
        let tel = Telemetry::enabled();
        let h = tel.histogram("chunk_size");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                thread::spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Re-registering the same name sees the same core.
        tel.histogram("chunk_size").record(5000);
        let report = tel.report();
        let s = &report.histograms[0];
        assert_eq!((s.count, s.min, s.max), (4001, 0, 5000));
        assert_eq!(s.sum, 4 * (0..1000u64).sum::<u64>() + 5000);
    }

    #[test]
    fn local_histogram_merge_matches_direct_recording() {
        let direct = Telemetry::enabled();
        let merged = Telemetry::enabled();
        let mut local = LocalHistogram::new();
        assert!(local.is_empty());
        for v in [0u64, 1, 7, 64, 900] {
            direct.record("h", v);
            local.record(v);
        }
        merged.histogram("h").merge(&local);
        assert_eq!(direct.report().histograms, merged.report().histograms);
    }

    #[test]
    fn disabled_and_empty_histograms_stay_out_of_reports() {
        let h = Histogram::disabled();
        h.record(7);
        h.merge(&LocalHistogram::new());
        let tel = Telemetry::enabled();
        let registered = tel.histogram("never_observed");
        registered.merge(&LocalHistogram::new());
        // Registered-but-empty histograms are filtered, matching the
        // old lazy-registration report shape.
        assert!(tel.report().histograms.is_empty());
    }

    #[test]
    fn empty_report_is_valid_json() {
        let report = Telemetry::disabled().report();
        let parsed = patty_json::parse(&report.to_json()).unwrap();
        assert_eq!(parsed.get("counters"), Some(&Json::Arr(vec![])));
    }
}
