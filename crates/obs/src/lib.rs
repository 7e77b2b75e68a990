//! # patty-obs
//!
//! The process-wide observability plane. Every subsystem in the
//! workspace already measures itself — [`patty_telemetry`] counts and
//! times, [`patty_trace`] aggregates per-item event rings, the
//! [`patty_runtime`] executor keeps global and per-lane counters, and
//! the minilang profiler sizes its retained trace data. This crate
//! unifies those sources into one **[`MetricsRegistry`]**: a snapshot
//! model with sorted, integer-valued metric families that renders to
//!
//! * **Prometheus text exposition format** ([`MetricsRegistry::prometheus`],
//!   linted by [`lint_prometheus`]),
//! * **deterministic JSON** ([`MetricsRegistry::to_json`] — byte-stable
//!   for identical inputs, like `Tracer::deterministic` reports), and
//! * a **terminal dashboard** ([`render_dashboard`]) used by
//!   `patty stats --watch`.
//!
//! ## Model
//!
//! A registry holds *families* keyed by metric name; each family has a
//! help string, a [`MetricKind`], and a sorted set of *samples* (label
//! set → value). All values are `u64`: the sources are monotonic
//! counters and integer gauges, and integer-only rendering keeps both
//! exporters byte-stable (no float formatting drift). Ingesting the
//! same snapshots into two registries produces identical exports.
//!
//! Naming follows Prometheus conventions with one family prefix per
//! source: `patty_executor_*` (pool aggregates and `lane`-labelled
//! series), `patty_runtime_*` (telemetry counters, histograms, spans),
//! `patty_trace_*` (trace-report aggregates and `stage`-labelled
//! series), `patty_vm_*` (profiler retention stats and what the VM
//! dispatched for the profiled run: superinstruction hits and dispatch
//! ranks).

use patty_json::Json;
use patty_minilang::profile::ProfileStats;
use patty_minilang::OpCounts;
use patty_runtime::{ExecutorStats, LaneSnapshot};
use patty_telemetry::TelemetryReport;
use patty_trace::TraceReport;
use std::collections::BTreeMap;

mod dashboard;
mod prom;

pub use dashboard::render_dashboard;
pub use prom::lint_prometheus;

/// How a family's value behaves over time; renders as the Prometheus
/// `# TYPE` annotation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing over the process lifetime.
    Counter,
    /// An instantaneous level that can go up and down.
    Gauge,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// A sorted `(key, value)` label set identifying one series of a family.
pub(crate) type Labels = Vec<(String, String)>;

/// One metric family: help text, kind, and its series.
#[derive(Clone, Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Label set → value. `BTreeMap` keeps series ordering (and thus
    /// both exporters) deterministic.
    samples: BTreeMap<Labels, u64>,
}

/// The unified snapshot registry. See the crate docs for the model.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
}

/// True for names matching the Prometheus identifier grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub(crate) fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Record one sample. The family is created on first use; a repeated
    /// `(name, labels)` pair overwrites (a registry is a snapshot, not a
    /// stream). Labels are sorted by key internally, so caller order
    /// never leaks into the output.
    pub fn set(
        &mut self,
        name: &str,
        kind: MetricKind,
        help: &str,
        labels: &[(&str, &str)],
        value: u64,
    ) {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut sorted: Labels = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        sorted.sort();
        let family = self.families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            samples: BTreeMap::new(),
        });
        debug_assert_eq!(family.kind, kind, "metric {name} re-registered with a new kind");
        family.samples.insert(sorted, value);
    }

    /// Number of families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Total series across all families.
    pub fn series(&self) -> usize {
        self.families.values().map(|f| f.samples.len()).sum()
    }

    /// Sum of a family's samples across all label sets, if the family
    /// exists. For unlabelled families this is the plain value.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.families
            .get(name)
            .map(|f| f.samples.values().fold(0u64, |a, v| a.saturating_add(*v)))
    }

    /// All `(labels, value)` samples of a family, in sorted label order.
    pub fn samples(&self, name: &str) -> Vec<(Labels, u64)> {
        self.families
            .get(name)
            .map(|f| f.samples.iter().map(|(l, v)| (l.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// Family names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.families.keys().cloned().collect()
    }

    /// Ingest an executor snapshot: pool aggregates plus one
    /// `lane`-labelled series per live lane. Take both from the same
    /// executor back-to-back (`stats()` then `lane_snapshots()`) for a
    /// coherent picture.
    pub fn ingest_executor(&mut self, stats: &ExecutorStats, lanes: &[LaneSnapshot]) {
        use MetricKind::{Counter, Gauge};
        let g: &[(&str, &str, MetricKind, u64)] = &[
            ("patty_executor_lanes_spawned_total", "Persistent lanes started since pool creation.", Counter, stats.lanes_spawned),
            ("patty_executor_lanes_retired_total", "Lanes that exited after staying quiescent past the retirement window.", Counter, stats.lanes_retired),
            ("patty_executor_lanes_live", "Lanes currently alive (running or parked).", Gauge, stats.lanes_spawned.saturating_sub(stats.lanes_retired)),
            ("patty_executor_resident_handoffs_total", "Resident tasks handed to an already-idle lane.", Counter, stats.resident_handoffs),
            ("patty_executor_ephemeral_spawns_total", "Resident tasks run on one-shot threads because the pool was saturated.", Counter, stats.ephemeral_spawns),
            ("patty_executor_short_submitted_total", "Short tasks pushed to the shared injector.", Counter, stats.short_submitted),
            ("patty_executor_tasks_executed_total", "Tasks executed by pool lanes.", Counter, stats.tasks_executed),
            ("patty_executor_tasks_helped_total", "Short tasks executed by waiting scope callers (helping).", Counter, stats.tasks_helped),
            ("patty_executor_steals_attempted_total", "Sibling-deque steal probes.", Counter, stats.steals_attempted),
            ("patty_executor_steals_succeeded_total", "Tasks actually taken from a sibling's deque.", Counter, stats.steals_succeeded),
            ("patty_executor_injector_pops_total", "Tasks taken from the shared injector (including batch refills).", Counter, stats.injector_pops),
            ("patty_executor_parks_total", "Times a lane parked with nothing runnable.", Counter, stats.parks),
            ("patty_executor_unparks_total", "Times a parked lane woke (wake-up or idle-wait timeout).", Counter, stats.unparks),
            ("patty_executor_wakeups_total", "Wake-ups sent to a parked lane, one per hand-off.", Counter, stats.wakeups),
            ("patty_executor_deque_depth_hwm", "Highest local-deque depth any lane observed after a batch refill.", Gauge, stats.deque_depth_hwm),
        ];
        for (name, help, kind, value) in g {
            self.set(name, *kind, help, &[], *value);
        }
        for lane in lanes {
            let id = lane.lane_id.to_string();
            let labels: &[(&str, &str)] = &[("lane", id.as_str())];
            let per: &[(&str, &str, MetricKind, u64)] = &[
                ("patty_executor_lane_short_executed_total", "Short tasks executed by one lane.", Counter, lane.short_executed),
                ("patty_executor_lane_resident_executed_total", "Resident tasks executed by one lane.", Counter, lane.resident_executed),
                ("patty_executor_lane_steals_attempted_total", "Sibling-deque steal probes by one lane.", Counter, lane.steals_attempted),
                ("patty_executor_lane_steals_succeeded_total", "Tasks one lane took from a sibling's deque.", Counter, lane.steals_succeeded),
                ("patty_executor_lane_injector_pops_total", "Tasks one lane took from the shared injector.", Counter, lane.injector_pops),
                ("patty_executor_lane_parks_total", "Times one lane parked with nothing runnable.", Counter, lane.parks),
                ("patty_executor_lane_unparks_total", "Times one lane woke from a park.", Counter, lane.unparks),
                ("patty_executor_lane_deque_depth_hwm", "Highest local-deque depth one lane observed.", Gauge, lane.deque_depth_hwm),
            ];
            for (name, help, kind, value) in per {
                self.set(name, *kind, help, labels, *value);
            }
        }
    }

    /// Ingest a telemetry snapshot: every counter becomes a
    /// `name`-labelled series of `patty_runtime_counter`, histograms and
    /// spans keep their integer aggregates (float means are dropped —
    /// derive them from `sum / count` downstream).
    pub fn ingest_telemetry(&mut self, report: &TelemetryReport) {
        use MetricKind::{Counter, Gauge};
        for (name, value) in &report.counters {
            self.set(
                "patty_runtime_counter",
                Counter,
                "Named telemetry counters (see the name label).",
                &[("name", name.as_str())],
                *value,
            );
        }
        for h in &report.histograms {
            let labels: &[(&str, &str)] = &[("name", h.name.as_str())];
            self.set("patty_runtime_histogram_count", Counter, "Observations recorded per named histogram.", labels, h.count);
            self.set("patty_runtime_histogram_sum", Counter, "Sum of observed values per named histogram.", labels, h.sum);
            self.set("patty_runtime_histogram_min", Gauge, "Minimum observed value per named histogram.", labels, h.min);
            self.set("patty_runtime_histogram_max", Gauge, "Maximum observed value per named histogram.", labels, h.max);
        }
        for s in &report.spans {
            let labels: &[(&str, &str)] = &[("name", s.name.as_str())];
            self.set("patty_runtime_span_count", Counter, "Completed timings per named span.", labels, s.count);
            self.set("patty_runtime_span_total_ns", Counter, "Total nanoseconds per named span.", labels, s.total_ns);
        }
        self.set(
            "patty_runtime_tuner_iterations_total",
            Counter,
            "Auto-tuner iterations logged to telemetry.",
            &[],
            report.tuner_iterations.len() as u64,
        );
    }

    /// Ingest a deterministic trace report: run aggregates plus one
    /// `stage`-labelled series per pipeline stage.
    pub fn ingest_trace(&mut self, report: &TraceReport) {
        use MetricKind::{Counter, Gauge};
        self.set("patty_trace_wall_ns", Gauge, "Span from the earliest event start to the latest event end.", &[], report.wall_ns);
        self.set("patty_trace_items_total", Counter, "Completed items across all stages.", &[], report.total_items);
        self.set("patty_trace_dropped_events_total", Counter, "Events lost to ring wrap.", &[], report.dropped_events);
        self.set("patty_trace_tuner_steps_total", Counter, "Auto-tuner evaluations observed in the trace.", &[], report.tuner_steps);
        self.set("patty_trace_faults_total", Counter, "Caught faults across all stages.", &[], report.faults);
        for stage in &report.stages {
            let labels: &[(&str, &str)] = &[("stage", stage.name.as_str())];
            let per: &[(&str, &str, MetricKind, u64)] = &[
                ("patty_trace_stage_workers", "Distinct worker threads that recorded events for one stage.", Gauge, stage.workers),
                ("patty_trace_stage_items_total", "Completed stream elements per stage.", Counter, stage.items),
                ("patty_trace_stage_compute_ns_total", "Total compute time across one stage's workers.", Counter, stage.compute_ns),
                ("patty_trace_stage_recv_wait_ns_total", "Time one stage spent blocked on its upstream queue.", Counter, stage.recv_wait_ns),
                ("patty_trace_stage_send_wait_ns_total", "Time one stage spent blocked on its downstream queue.", Counter, stage.send_wait_ns),
                ("patty_trace_stage_faults_total", "Caught faults attributed to one stage.", Counter, stage.faults),
                ("patty_trace_stage_busy_permille", "compute / (compute + waits + idle) per stage, in permille.", Gauge, stage.busy_permille),
                ("patty_trace_stage_service_ns", "Mean per-item service time divided by replication width.", Gauge, stage.service_ns),
            ];
            for (name, help, kind, value) in per {
                self.set(name, *kind, help, labels, *value);
            }
        }
    }

    /// Ingest the minilang profiler's retention stats (the "memory side"
    /// of the paper's dynamic-analysis overhead question).
    pub fn ingest_vm_profile(&mut self, stats: &ProfileStats) {
        use MetricKind::{Counter, Gauge};
        self.set("patty_vm_profiled_loops", Gauge, "Loops the dynamic profiler traced.", &[], stats.loops as u64);
        self.set("patty_vm_traced_iterations_total", Counter, "Traced (loop, iteration) pairs retained by the profiler.", &[], stats.traced_iterations as u64);
        self.set("patty_vm_recorded_accesses_total", Counter, "Recorded (statement, location, kind) access entries.", &[], stats.recorded_accesses as u64);
        self.set("patty_vm_counted_statements", Gauge, "Statements with cost/hit counters.", &[], stats.counted_statements as u64);
    }

    /// Ingest the [`OpCounts`] of a counted VM run: each superinstruction's
    /// dispatches and static sites, and the dispatch picture (total
    /// dispatched ops, the frequency rank of the hottest opcodes, the
    /// field inline cache's hits and misses).
    pub fn ingest_vm_dispatch(&mut self, counts: &OpCounts) {
        use MetricKind::{Counter, Gauge};
        for f in &counts.fused {
            let labels: &[(&str, &str)] = &[("op", f.op)];
            self.set("patty_vm_superinstruction_hits", Counter, "Dispatches of each fused superinstruction in the counted VM run.", labels, f.hits);
            self.set("patty_vm_superinstruction_sites", Gauge, "Static code sites holding each fused superinstruction.", labels, f.sites);
        }
        self.set("patty_vm_dispatch_ops_total", Counter, "Opcodes dispatched during the counted VM run.", &[], counts.total_ops);
        for (rank, (op, _count)) in counts.dispatch_top.iter().enumerate() {
            self.set(
                "patty_vm_dispatch_rank",
                Gauge,
                "Frequency rank (1 = hottest) of the most-dispatched opcodes in the counted run.",
                &[("op", op)],
                rank as u64 + 1,
            );
        }
        self.set("patty_vm_field_ic_hits_total", Counter, "Field loads served by the monomorphic inline cache during the counted VM run.", &[], counts.field_ic_hits);
        self.set("patty_vm_field_ic_misses_total", Counter, "Field loads that took the slow path (cold first loads plus inline-cache deopts) during the counted VM run.", &[], counts.field_ic_misses);
    }

    /// Prometheus text exposition format: `# HELP` and `# TYPE` per
    /// family, one line per series, families and series sorted. The
    /// output always passes [`lint_prometheus`].
    pub fn prometheus(&self) -> String {
        prom::render(self)
    }

    /// Deterministic JSON document: a sorted object of families, each
    /// with `help`, `kind` and a `samples` array. Identical registries
    /// render byte-identically (integer values only — no float drift).
    pub fn to_json_value(&self) -> Json {
        let families = self
            .families
            .iter()
            .map(|(name, family)| {
                let samples = Json::Arr(
                    family
                        .samples
                        .iter()
                        .map(|(labels, value)| {
                            Json::obj()
                                .with(
                                    "labels",
                                    Json::Obj(
                                        labels
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                            .collect(),
                                    ),
                                )
                                .with("value", *value)
                        })
                        .collect(),
                );
                (
                    name.clone(),
                    Json::obj()
                        .with("help", family.help.as_str())
                        .with("kind", family.kind.as_str())
                        .with("samples", samples),
                )
            })
            .collect();
        Json::Obj(families)
    }

    /// Pretty-printed [`MetricsRegistry::to_json_value`].
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }

    /// Iterate families in sorted order (exporter plumbing).
    pub(crate) fn iter_families(
        &self,
    ) -> impl Iterator<Item = (&str, &str, MetricKind, &BTreeMap<Labels, u64>)> {
        self.families
            .iter()
            .map(|(name, f)| (name.as_str(), f.help.as_str(), f.kind, &f.samples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let stats = ExecutorStats {
            lanes_spawned: 4,
            resident_handoffs: 2,
            ephemeral_spawns: 0,
            short_submitted: 100,
            tasks_executed: 98,
            tasks_helped: 2,
            lanes_retired: 1,
            steals_attempted: 30,
            steals_succeeded: 12,
            injector_pops: 60,
            parks: 9,
            unparks: 9,
            wakeups: 6,
            deque_depth_hwm: 7,
        };
        let lanes = vec![
            LaneSnapshot { lane_id: 0, short_executed: 50, resident_executed: 1, ..LaneSnapshot::default() },
            LaneSnapshot { lane_id: 3, short_executed: 48, steals_succeeded: 12, ..LaneSnapshot::default() },
        ];
        reg.ingest_executor(&stats, &lanes);
        reg.ingest_vm_profile(&ProfileStats {
            loops: 3,
            traced_iterations: 96,
            recorded_accesses: 410,
            counted_statements: 17,
        });
        reg
    }

    #[test]
    fn families_and_series_are_sorted_and_queryable() {
        let reg = synthetic();
        let names = reg.names();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(reg.value("patty_executor_tasks_executed_total"), Some(98));
        // Labelled family sums across lanes; per-lane samples stay
        // addressable in lane-id order.
        assert_eq!(reg.value("patty_executor_lane_short_executed_total"), Some(98));
        let samples = reg.samples("patty_executor_lane_short_executed_total");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].0, vec![("lane".to_string(), "0".to_string())]);
        assert_eq!(reg.value("no_such_family"), None);
    }

    /// The exporter and the telemetry surface (`executor.*`, pinned
    /// field by field in the runtime's
    /// `annotate_executor_telemetry_registers_the_full_family`) list the
    /// same pool counters.
    #[test]
    fn executor_families_match_the_telemetry_executor_family() {
        let pool = patty_runtime::Executor::with_threads(1);
        pool.scope(patty_runtime::SpawnMode::Pooled, |s| s.spawn(|| {}));
        let telemetry = patty_telemetry::Telemetry::enabled();
        patty_runtime::annotate_executor_telemetry(&telemetry, &pool);
        let from_telemetry: std::collections::BTreeSet<String> = telemetry
            .report()
            .counters
            .iter()
            .filter_map(|(name, _)| name.strip_prefix("executor."))
            .map(String::from)
            .collect();
        let mut reg = MetricsRegistry::new();
        reg.ingest_executor(&pool.stats(), &[]);
        let from_exporter: std::collections::BTreeSet<String> = reg
            .names()
            .iter()
            .filter_map(|name| name.strip_prefix("patty_executor_"))
            .map(|name| name.strip_suffix("_total").unwrap_or(name).to_string())
            .collect();
        assert_eq!(from_exporter, from_telemetry);
    }

    #[test]
    fn repeated_set_overwrites_instead_of_accumulating() {
        let mut reg = MetricsRegistry::new();
        reg.set("x_total", MetricKind::Counter, "x", &[], 1);
        reg.set("x_total", MetricKind::Counter, "x", &[], 5);
        assert_eq!(reg.value("x_total"), Some(5));
        assert_eq!(reg.series(), 1);
    }

    #[test]
    fn label_order_never_leaks_into_the_series_key() {
        let mut reg = MetricsRegistry::new();
        reg.set("y", MetricKind::Gauge, "y", &[("b", "2"), ("a", "1")], 7);
        reg.set("y", MetricKind::Gauge, "y", &[("a", "1"), ("b", "2")], 9);
        assert_eq!(reg.series(), 1, "same labels in any order are one series");
        assert_eq!(reg.value("y"), Some(9));
    }

    #[test]
    fn json_export_is_byte_stable_across_identical_ingestion_runs() {
        let a = synthetic();
        let b = synthetic();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.prometheus(), b.prometheus());
    }

    #[test]
    fn telemetry_and_trace_ingestion_cover_the_required_prefixes() {
        let mut reg = MetricsRegistry::new();
        let tel = patty_telemetry::Telemetry::enabled();
        tel.counter("fault.caught").add(2);
        tel.record("queue.depth", 5);
        reg.ingest_telemetry(&tel.report());
        reg.ingest_trace(&TraceReport::default());
        let text = reg.prometheus();
        assert!(text.contains("patty_runtime_counter{name=\"fault.caught\"} 2"), "{text}");
        assert!(text.contains("patty_runtime_histogram_count{name=\"queue.depth\"} 1"), "{text}");
        assert!(text.contains("patty_trace_dropped_events_total 0"), "{text}");
    }

    #[test]
    fn ring_wrap_reaches_the_scrape_as_dropped_events() {
        // A 2-slot ring that records 8 events keeps the newest 2; the six
        // it overwrote are the only overflow count the scrape carries.
        let tracer = patty_trace::Tracer::deterministic(2);
        let wt = tracer.worker(tracer.stage("s"), 0);
        for i in 0..8u64 {
            wt.fault(i);
        }
        let mut reg = MetricsRegistry::new();
        reg.ingest_trace(&tracer.report());
        let text = reg.prometheus();
        assert!(text.contains("patty_trace_dropped_events_total 6\n"), "{text}");
    }

    #[test]
    fn metric_name_grammar_is_enforced() {
        assert!(valid_metric_name("patty_executor_parks_total"));
        assert!(valid_metric_name("_private:series"));
        assert!(!valid_metric_name("9starts_with_digit"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name(""));
    }
}
