//! Golden-file test for the Prometheus exporter.
//!
//! A fixed synthetic snapshot (executor + lanes + telemetry + trace +
//! VM profile) must render byte-identically to `golden_scrape.prom`.
//! Every formatting decision — family ordering, label sorting, escape
//! rules, HELP text — is pinned by this file; an intentional change is
//! re-blessed with `PATTY_OBS_BLESS=1 cargo test -p patty-obs`.

use patty_minilang::fuse::{FusedOp, OpCounts};
use patty_minilang::profile::ProfileStats;
use patty_obs::{lint_prometheus, MetricsRegistry};
use patty_runtime::{ExecutorStats, LaneSnapshot};
use patty_telemetry::Telemetry;
use patty_trace::{TraceReport, Tracer};
use std::path::PathBuf;

/// A snapshot with every ingestion source populated, fixed values only.
fn golden_registry() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.ingest_executor(
        &ExecutorStats {
            lanes_spawned: 3,
            resident_handoffs: 2,
            ephemeral_spawns: 1,
            short_submitted: 240,
            tasks_executed: 230,
            tasks_helped: 10,
            lanes_retired: 1,
            steals_attempted: 44,
            steals_succeeded: 17,
            injector_pops: 120,
            parks: 12,
            unparks: 12,
            wakeups: 8,
            deque_depth_hwm: 9,
        },
        &[
            LaneSnapshot {
                lane_id: 0,
                short_executed: 130,
                resident_executed: 1,
                steals_attempted: 20,
                steals_succeeded: 9,
                injector_pops: 70,
                parks: 5,
                unparks: 5,
                deque_depth_hwm: 9,
            },
            LaneSnapshot {
                lane_id: 2,
                short_executed: 100,
                resident_executed: 1,
                steals_attempted: 24,
                steals_succeeded: 8,
                injector_pops: 50,
                parks: 7,
                unparks: 7,
                deque_depth_hwm: 6,
            },
        ],
    );

    let tel = Telemetry::enabled();
    tel.counter("fault.caught").add(2);
    tel.counter("pipeline.items").add(240);
    tel.record("queue.depth", 3);
    tel.record("queue.depth", 7);
    reg.ingest_telemetry(&tel.report());

    // A tiny deterministic trace: one stage, two items, virtual clock.
    let tracer = Tracer::deterministic(64);
    let stage = tracer.stage("decode");
    let worker = tracer.worker(stage, 0);
    for item in 0..2u64 {
        let t = worker.item_start(item);
        worker.item_end(item, t);
    }
    reg.ingest_trace(&TraceReport::from_trace(&tracer.snapshot()));

    reg.ingest_vm_profile(&ProfileStats {
        loops: 2,
        traced_iterations: 64,
        recorded_accesses: 301,
        counted_statements: 15,
    });

    reg.ingest_vm_dispatch(&OpCounts {
        fused: vec![
            FusedOp { op: "load_slot_bin", sites: 9, hits: 4200 },
            FusedOp { op: "tick_jump", sites: 3, hits: 1800 },
        ],
        dispatch_top: vec![("tick", 9000), ("load_slot_bin", 4200), ("tick_jump", 1800)],
        total_ops: 15000,
        field_ic_hits: 4100,
        field_ic_misses: 7,
        ..OpCounts::default()
    });
    reg
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_scrape.prom")
}

#[test]
fn prometheus_export_matches_the_golden_scrape() {
    let text = golden_registry().prometheus();
    let stats = lint_prometheus(&text).expect("golden registry must pass the lint");
    assert!(stats.families >= 20, "expected a rich scrape, got {stats:?}");

    if std::env::var_os("PATTY_OBS_BLESS").is_some() {
        std::fs::write(golden_path(), &text).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(golden_path())
        .expect("golden_scrape.prom missing — run with PATTY_OBS_BLESS=1 once");
    assert_eq!(
        text, golden,
        "Prometheus exposition drifted from tests/golden_scrape.prom; \
         re-bless with PATTY_OBS_BLESS=1 if the change is intentional"
    );
}

#[test]
fn golden_registry_renders_byte_identically_twice() {
    let a = golden_registry();
    let b = golden_registry();
    assert_eq!(a.prometheus(), b.prometheus());
    assert_eq!(a.to_json(), b.to_json());
}
