//! The metric tables (`BENCHMARK.json` lists the same names; a test
//! holds the two together) and the report every run prints.

use crate::stats;
use crate::trace::Tracer;
use crate::{Outcome, Plan};
use patty_json::Json;
use std::time::Instant;

pub const DEFAULT_SEED: u64 = 2015;
pub const DEFAULT_SECONDS: f64 = 20.0;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    /// Per-layer metrics carry none in `BENCHMARK.json`; `compare` holds
    /// them to the same one.
    pub bound: f64,
}

/// Every bound is the largest the benchmark contract allows. The widest
/// spread inside a set of ten runs would calibrate 0.15 to 0.25 (see
/// README.md), but this host has phases of some twenty minutes in which
/// compute-bound work runs 15-20 % slower, and two sets measured at
/// different times must still agree.
const BOUND: f64 = 0.25;

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: true,
        bound: BOUND,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: false,
        bound: BOUND,
    }
}

/// What a user of the system sees. Measured with tracing off.
pub const END_TO_END: [Metric; 5] = [
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("op_geomean_ms", "ms"),
    lower("op_p50_ms", "ms"),
    lower("op_p95_ms", "ms"),
];

/// One layer each; layer = crate. Every workload prints every row, and a
/// layer that does no work on a workload reads 0 there. Times are means
/// per op unless the name says otherwise.
pub const PER_LAYER: [Metric; 69] = [
    lower("minilang.parse_ms", "ms"),
    higher("minilang.parse_mb_per_s", "MB/s"),
    lower("minilang.compile_ms", "ms"),
    lower("minilang.vm_traced_ms", "ms"),
    lower("minilang.vm_exec_ms", "ms"),
    lower("minilang.vm_steps", "count"),
    lower("analysis.build_ms", "ms"),
    lower("analysis.static_ms", "ms"),
    lower("analysis.static_ms.x1", "ms"),
    lower("analysis.static_ms.x2", "ms"),
    lower("analysis.static_ms.x4", "ms"),
    lower("analysis.static_ms.x8", "ms"),
    lower("patterns.detect_ms", "ms"),
    lower("patterns.instances", "count"),
    lower("transform.annotate_ms", "ms"),
    lower("transform.plan_ms", "ms"),
    lower("testgen.unittest_ms", "ms"),
    lower("testgen.inputs_ms", "ms"),
    lower("chess.validate_ms", "ms"),
    lower("chess.schedules", "count"),
    lower("chess.steps", "count"),
    lower("chess.ns_per_step", "ns"),
    lower("chess.rss_growth_mb_per_run", "MB"),
    lower("tuning.tune_ms", "ms"),
    lower("tuning.evaluations", "count"),
    lower("patty.run_automatic_ms", "ms"),
    lower("patty.unattributed_ms", "ms"),
    higher("json.parse_mb_per_s", "MB/s"),
    higher("json.render_mb_per_s", "MB/s"),
    lower("serve.decode_us", "us"),
    lower("serve.encode_us", "us"),
    lower("serve.cache_get_hit_us", "us"),
    lower("serve.cache_get_miss_us", "us"),
    lower("serve.cache_insert_us", "us"),
    lower("serve.cache_disk_hit_us", "us"),
    lower("serve.admit_us", "us"),
    lower("serve.submit_hit_us", "us"),
    lower("serve.submit_miss_us", "us"),
    lower("serve.handle_line_hit_us", "us"),
    lower("serve.wire_overhead_us", "us"),
    higher("serve.mem_hit_ratio", "ratio"),
    lower("serve.disk_hit_ratio", "ratio"),
    lower("serve.evictions", "count"),
    lower("serve.coalesced", "count"),
    lower("serve.shed", "count"),
    lower("runtime.pipe_coarse.ns_per_item", "ns"),
    lower("runtime.pipe_coarse.seq_ms", "ms"),
    higher("runtime.pipe_coarse.speedup_vs_seq", "ratio"),
    lower("runtime.pipe_fine.ns_per_item", "ns"),
    lower("runtime.pipe_fine.seq_ms", "ms"),
    higher("runtime.pipe_fine.speedup_vs_seq", "ratio"),
    lower("runtime.parfor_skewed.ns_per_item", "ns"),
    lower("runtime.parfor_skewed.seq_ms", "ms"),
    higher("runtime.parfor_skewed.speedup_vs_seq", "ratio"),
    lower("runtime.parfor_small.ns_per_item", "ns"),
    lower("runtime.parfor_small.seq_ms", "ms"),
    higher("runtime.parfor_small.speedup_vs_seq", "ratio"),
    lower("runtime.mw_coarse.ns_per_item", "ns"),
    lower("runtime.mw_coarse.seq_ms", "ms"),
    higher("runtime.mw_coarse.speedup_vs_seq", "ratio"),
    higher("runtime.executor.steal_ratio", "ratio"),
    lower("runtime.executor.parks", "count"),
    lower("runtime.executor.lanes", "count"),
    lower("bench.op_geomean_ms", "ms"),
    lower("bench.trace_overhead_pct", "%"),
    lower("host.calib_ms", "ms"),
    lower("host.cpu_ms_per_op", "ms"),
    lower("host.peak_rss_mb", "MB"),
    lower("host.runq_wait_share", "ratio"),
];

/// What one span costs: the difference between timing an empty closure
/// with the recorder on and with it off.
fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let cost = |on: bool| {
        let mut tr = Tracer::new(on, Instant::now());
        let t0 = Instant::now();
        for _ in 0..N {
            tr.time("calibrate", |_| ());
        }
        t0.elapsed().as_nanos() as f64 / f64::from(N)
    };
    (cost(true) - cost(false)).max(0.0)
}

/// Print every metric by name and unit, and return the closing line as
/// the driver reads it.
pub fn report(workload: &str, plan: &Plan, out: &Outcome) -> Json {
    println!(
        "== {workload}: seed {}, {} s, trace {}, {} cores ==",
        plan.seed,
        plan.duration.as_secs_f64(),
        u8::from(plan.traced),
        crate::host::nproc()
    );
    for note in &out.notes {
        println!("note: {note}");
    }
    for why in &out.failures {
        println!("FAILED op: {why}");
    }

    let mut all: Vec<f64> = out.samples.iter().flatten().copied().collect();
    all.sort_by(f64::total_cmp);
    let mut typical = Vec::new();
    println!("{:<28} {:>7} {:>12}", "kind", "samples", "typ ms (iqm)");
    for (kind, samples) in out.kinds.iter().zip(&out.samples) {
        if samples.is_empty() {
            continue;
        }
        let typ = stats::iqm(samples);
        println!("{kind:<28} {:>7} {typ:>12.4}", samples.len());
        typical.push(typ);
    }
    let ops = out.attempted.max(1) as f64;
    let geomean = stats::geomean(&typical);
    println!(
        "{} samples, {} beyond p95; {} attempted, {} failed",
        all.len(),
        all.len() - (0.95 * all.len() as f64).ceil() as usize,
        out.attempted,
        out.failed
    );

    let values: Vec<(String, f64, &str)> = if plan.traced {
        let mut layers = out.layers.clone();
        layers.insert("bench.op_geomean_ms".into(), geomean);
        layers.insert("host.cpu_ms_per_op".into(), out.cpu_s * 1e3 / ops);
        layers.insert("host.peak_rss_mb".into(), out.peak_rss_kb as f64 / 1024.0);
        let spans: usize = out.recorders.iter().map(Vec::len).sum();
        let timed_ns = all.iter().sum::<f64>() * 1e6;
        layers.insert(
            "bench.trace_overhead_pct".into(),
            100.0 * spans as f64 * span_cost_ns() / timed_ns,
        );
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    layers.get(m.name).copied().unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect()
    } else {
        let e2e = [
            stats::median(&out.setup_s),
            ops / out.timed_wall_s,
            geomean,
            stats::percentile(&all, 0.50),
            stats::percentile(&all, 0.95),
        ];
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(m, v)| (m.name.to_string(), v, m.unit))
            .collect()
    };
    for (name, value, unit) in &values {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    let mut metrics = Json::obj();
    for (name, value, unit) in values {
        metrics = metrics.with(name, Json::obj().with("value", value).with("unit", unit));
    }
    Json::obj()
        .with("correct", out.failed == 0)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("metrics", metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what a run prints. They must name the same metrics and workloads.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let spec = patty_json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| -> Vec<(String, String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let table = |metrics: &[Metric]| -> Vec<(String, String, String)> {
            metrics
                .iter()
                .map(|m| {
                    let better = if m.lower_is_better { "lower" } else { "higher" };
                    (m.name.to_string(), m.unit.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(rows("end_to_end"), table(&END_TO_END));
        let bounds: Vec<f64> = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).expect("bound"))
            .collect();
        assert_eq!(
            bounds,
            END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>()
        );
        assert_eq!(rows("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = rows("workloads").into_iter().map(|r| r.0).collect();
        let ours: Vec<String> = crate::WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        assert_eq!(workloads, ours);
        let seconds = spec
            .get("run_seconds")
            .and_then(Json::as_i64)
            .expect("run_seconds");
        assert_eq!(seconds as f64, DEFAULT_SECONDS);
    }
}
