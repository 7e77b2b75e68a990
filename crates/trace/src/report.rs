//! Deterministic aggregation of a raw [`Trace`] into a
//! [`TraceReport`]: per-stage latency percentiles, queue-wait vs
//! compute breakdown, worker utilization and the critical path through
//! the pipeline DAG.
//!
//! Determinism rules: stages appear in registration (pipeline) order,
//! every derived ratio is an integer (permille, not a float), and ties
//! in the critical path break on stage order. Two traces with the same
//! events — e.g. two single-threaded runs under
//! [`Tracer::deterministic`](crate::Tracer::deterministic) — therefore
//! serialize to byte-identical JSON.

use crate::{EventKind, Trace, TUNER_STAGE};
use patty_json::Json;

/// Aggregate view of one stage (or one data-parallel / master-worker
/// architecture, which reports as a single stage). All fields are
/// public so tests and evaluators can build synthetic reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageSummary {
    pub name: String,
    /// Distinct worker threads that recorded events for this stage.
    pub workers: u64,
    /// Completed stream elements (sum of `ItemEnd` counts — a batched
    /// event contributes its whole batch).
    pub items: u64,
    /// Total compute time across all workers (sum of `ItemEnd` durations).
    pub compute_ns: u64,
    /// Total time blocked waiting on the upstream queue.
    pub recv_wait_ns: u64,
    /// Total time blocked pushing into the downstream queue.
    pub send_wait_ns: u64,
    /// Idle tails recorded at worker exit.
    pub idle_ns: u64,
    /// Caught faults attributed to this stage.
    pub faults: u64,
    /// Per-item compute latency percentiles (nearest-rank).
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    /// compute / (compute + waits + idle), in permille (0..=1000).
    pub busy_permille: u64,
    /// Mean per-item service time divided by replication width:
    /// `compute_ns / items / workers`. The stage with the largest
    /// service time bounds pipeline throughput.
    pub service_ns: u64,
}

impl StageSummary {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("workers", self.workers)
            .with("items", self.items)
            .with("compute_ns", self.compute_ns)
            .with("recv_wait_ns", self.recv_wait_ns)
            .with("send_wait_ns", self.send_wait_ns)
            .with("idle_ns", self.idle_ns)
            .with("faults", self.faults)
            .with("p50_ns", self.p50_ns)
            .with("p95_ns", self.p95_ns)
            .with("p99_ns", self.p99_ns)
            .with("busy_permille", self.busy_permille)
            .with("service_ns", self.service_ns)
    }
}

/// The collector's aggregate: what `patty trace --format summary`
/// prints and what `BottleneckAnalyzer` in `patty-tuning` consumes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// One summary per stage, in registration (pipeline) order.
    pub stages: Vec<StageSummary>,
    /// Span from the earliest event start to the latest event end.
    pub wall_ns: u64,
    /// Completed items across all stages.
    pub total_items: u64,
    /// Events lost to ring wrap (satellite: wrap accounting).
    pub dropped_events: u64,
    /// Auto-tuner evaluations observed.
    pub tuner_steps: u64,
    /// Caught faults across all stages.
    pub faults: u64,
    /// Stage names ordered by descending service time — the chain that
    /// bounds end-to-end latency. The head is the bottleneck.
    pub critical_path: Vec<String>,
}

impl TraceReport {
    /// Aggregate a raw trace deterministically (see module docs).
    pub fn from_trace(trace: &Trace) -> TraceReport {
        // Stage slots in registration order; extra ids past the name
        // table (defensive) get a synthetic name.
        let mut max_stage = trace.stage_names.len();
        for t in &trace.threads {
            if t.stage != TUNER_STAGE {
                max_stage = max_stage.max(t.stage as usize + 1);
            }
        }
        let mut stages: Vec<StageSummary> = (0..max_stage)
            .map(|i| StageSummary {
                name: trace
                    .stage_names
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| format!("stage{i}")),
                ..StageSummary::default()
            })
            .collect();
        let mut durations: Vec<Vec<u64>> = vec![Vec::new(); max_stage];
        let mut tuner_steps = 0u64;
        let mut min_start = u64::MAX;
        let mut max_end = 0u64;
        for thread in &trace.threads {
            if thread.stage == TUNER_STAGE {
                tuner_steps += thread
                    .events
                    .iter()
                    .filter(|e| e.kind == EventKind::TunerStep)
                    .count() as u64;
                continue;
            }
            let s = &mut stages[thread.stage as usize];
            if thread.events.iter().any(|e| e.kind != EventKind::TunerStep) {
                s.workers += 1;
            }
            for e in &thread.events {
                min_start = min_start.min(e.tick_ns.saturating_sub(e.dur_ns));
                max_end = max_end.max(e.tick_ns);
                match e.kind {
                    EventKind::ItemEnd => {
                        // One event may account for a whole batch/chunk:
                        // count its elements so per-stage items always
                        // equal the stream length.
                        s.items += e.count.max(1);
                        s.compute_ns += e.dur_ns;
                        durations[thread.stage as usize].push(e.dur_ns / e.count.max(1));
                    }
                    EventKind::StageBlockedRecv => s.recv_wait_ns += e.dur_ns,
                    EventKind::StageBlockedSend => s.send_wait_ns += e.dur_ns,
                    EventKind::WorkerIdle => s.idle_ns += e.dur_ns,
                    EventKind::FaultCaught => s.faults += 1,
                    EventKind::ItemStart | EventKind::TunerStep => {}
                }
            }
        }
        for (s, durs) in stages.iter_mut().zip(durations.iter_mut()) {
            durs.sort_unstable();
            s.p50_ns = percentile(durs, 50);
            s.p95_ns = percentile(durs, 95);
            s.p99_ns = percentile(durs, 99);
            let accounted = s.compute_ns + s.recv_wait_ns + s.send_wait_ns + s.idle_ns;
            s.busy_permille = (s.compute_ns * 1000).checked_div(accounted).unwrap_or(0);
            s.service_ns = s.compute_ns / s.items.max(1) / s.workers.max(1);
        }
        // Critical path: stages by descending service time, stable on
        // registration order for ties; empty stages don't participate.
        let mut order: Vec<usize> = (0..stages.len()).filter(|&i| stages[i].items > 0).collect();
        order.sort_by(|&a, &b| stages[b].service_ns.cmp(&stages[a].service_ns).then(a.cmp(&b)));
        TraceReport {
            wall_ns: if max_end >= min_start && min_start != u64::MAX {
                max_end - min_start
            } else {
                0
            },
            total_items: stages.iter().map(|s| s.items).sum(),
            dropped_events: trace.dropped_events,
            tuner_steps,
            faults: stages.iter().map(|s| s.faults).sum(),
            critical_path: order.iter().map(|&i| stages[i].name.clone()).collect(),
            stages,
        }
    }

    /// The stage bounding throughput: head of the critical path.
    pub fn bottleneck(&self) -> Option<&str> {
        self.critical_path.first().map(String::as_str)
    }

    /// Summary of one stage by name (fused stages use their composed
    /// `"a+b"` name).
    pub fn stage(&self, name: &str) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// The stable JSON schema (`patty trace --format summary`). Integer
    /// fields only, fixed key order — byte-identical for identical
    /// traces.
    pub fn to_json_value(&self) -> Json {
        Json::obj()
            .with("wall_ns", self.wall_ns)
            .with("total_items", self.total_items)
            .with("dropped_events", self.dropped_events)
            .with("tuner_steps", self.tuner_steps)
            .with("faults", self.faults)
            .with(
                "critical_path",
                Json::Arr(self.critical_path.iter().map(|s| Json::from(s.as_str())).collect()),
            )
            .with("bottleneck", self.bottleneck().unwrap_or(""))
            .with("stages", Json::Arr(self.stages.iter().map(|s| s.to_json()).collect()))
    }

    /// Pretty-printed form of [`Self::to_json_value`].
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }
}

/// Nearest-rank percentile on a sorted slice (0 for empty input).
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tick, Tracer};

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn report_aggregates_stage_breakdown() {
        let tracer = Tracer::deterministic(256);
        let a = tracer.stage("decode");
        let b = tracer.stage("encode");
        // decode: 1 worker, 3 items of 1 virtual tick each.
        let wa = tracer.worker(a, 0);
        let run_start = wa.tick();
        let mut busy = 0u64;
        for i in 0..3u64 {
            let start = wa.item_start(i);
            let end = wa.item_end(i, start);
            busy += end.since(start);
        }
        wa.worker_idle(run_start, busy, 3);
        // encode: 2 workers, 1 item each, with recv waits.
        for w in 0..2u64 {
            let wb = tracer.worker(b, w as usize);
            let waiting = wb.tick();
            let start = wb.begin_item(w, waiting);
            wb.item_end(w, start);
        }
        let report = tracer.report();
        assert_eq!(report.stages.len(), 2);
        let decode = report.stage("decode").unwrap();
        assert_eq!(decode.workers, 1);
        assert_eq!(decode.items, 3);
        assert_eq!(decode.compute_ns, 3 * crate::VIRTUAL_TICK_NS);
        assert!(decode.idle_ns > 0, "non-compute ticks show up as idle");
        let encode = report.stage("encode").unwrap();
        assert_eq!(encode.workers, 2);
        assert_eq!(encode.items, 2);
        assert_eq!(encode.recv_wait_ns, 2 * crate::VIRTUAL_TICK_NS);
        assert_eq!(report.total_items, 5);
        assert!(report.wall_ns > 0);
    }

    #[test]
    fn critical_path_ranks_by_service_time() {
        // Build a trace whose per-stage durations differ by simulating
        // extra virtual-clock ticks between start and end: every
        // tick() read advances the clock by one tick.
        let tracer = Tracer::deterministic(256);
        let names = ["fast", "slow", "mid"];
        let extra_ticks = [0usize, 8, 3];
        for (name, extra) in names.iter().zip(extra_ticks) {
            let wt = tracer.worker(tracer.stage(name), 0);
            for i in 0..4u64 {
                let start = wt.item_start(i);
                for _ in 0..extra {
                    let _ = wt.tick(); // burn virtual time as "compute"
                }
                wt.item_end(i, start);
            }
        }
        let report = tracer.report();
        assert_eq!(report.bottleneck(), Some("slow"));
        assert_eq!(report.critical_path, vec!["slow", "mid", "fast"]);
        let slow = report.stage("slow").unwrap();
        let fast = report.stage("fast").unwrap();
        assert!(slow.service_ns > fast.service_ns);
        assert_eq!(slow.p50_ns, slow.p99_ns, "uniform synthetic durations");
    }

    #[test]
    fn replication_divides_service_time() {
        // Same compute totals, but stage "wide" has 3 workers: its
        // effective service time is a third of "narrow"'s.
        let tracer = Tracer::deterministic(256);
        let narrow = tracer.stage("narrow");
        let wide = tracer.stage("wide");
        let wt = tracer.worker(narrow, 0);
        for i in 0..6u64 {
            let s = wt.item_start(i);
            wt.item_end(i, s);
        }
        for w in 0..3usize {
            let wt = tracer.worker(wide, w);
            for i in 0..2u64 {
                let s = wt.item_start(i);
                wt.item_end(i, s);
            }
        }
        let report = tracer.report();
        let n = report.stage("narrow").unwrap();
        let w = report.stage("wide").unwrap();
        assert_eq!(n.compute_ns, w.compute_ns);
        assert_eq!(n.service_ns / w.service_ns, 3, "integer division rounds down");
        assert_eq!(report.bottleneck(), Some("narrow"));
    }

    #[test]
    fn deterministic_runs_produce_byte_identical_json() {
        let run = || {
            let tracer = Tracer::deterministic(128);
            let a = tracer.stage("scale");
            let b = tracer.stage("emit");
            let wa = tracer.worker(a, 0);
            let wb = tracer.worker(b, 0);
            for i in 0..5u64 {
                let s = wa.item_start(i);
                let e = wa.item_end(i, s);
                wa.blocked_send(i, e);
                let s = wb.begin_item(i, Tick::none());
                wb.item_end(i, s);
            }
            tracer.report().to_json()
        };
        let first = run();
        assert_eq!(first, run(), "virtual clock pins the summary bytes");
        assert!(patty_json::parse(&first).is_ok());
    }

    #[test]
    fn json_schema_has_stable_keys() {
        let tracer = Tracer::deterministic(16);
        let wt = tracer.worker(tracer.stage("s"), 0);
        let s = wt.item_start(0);
        wt.item_end(0, s);
        let json = patty_json::parse(&tracer.report().to_json()).unwrap();
        for key in [
            "wall_ns",
            "total_items",
            "dropped_events",
            "tuner_steps",
            "faults",
            "critical_path",
            "bottleneck",
            "stages",
        ] {
            assert!(json.get(key).is_some(), "missing key {key}");
        }
        let stage = &json.get("stages").unwrap().as_arr().unwrap()[0];
        for key in [
            "name", "workers", "items", "compute_ns", "recv_wait_ns", "send_wait_ns",
            "idle_ns", "faults", "p50_ns", "p95_ns", "p99_ns", "busy_permille", "service_ns",
        ] {
            assert!(stage.get(key).is_some(), "missing stage key {key}");
        }
    }
}
