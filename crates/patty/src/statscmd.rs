//! `patty stats` — the unified observability snapshot of one run.
//!
//! Runs the full process on a source file, executes every generated
//! plan on the runtime library, and folds every measurement surface —
//! executor lane counters, telemetry, the structured trace, the VM
//! profiler's retention stats — into one [`MetricsRegistry`], rendered
//! as Prometheus text exposition (`--format prom`, the default),
//! deterministic JSON (`--format json`), or a live terminal dashboard
//! (`--watch`).
//!
//! `--deterministic` trades live numbers for byte-stability: nothing
//! executes on the wall-clock pool, the trace is synthesized
//! single-threaded under the virtual clock (like
//! [`Tracer::deterministic`]), and two runs over the same source render
//! byte-identical output. Executor families stay in the scrape (at
//! zero) so the schema never depends on the mode.

use crate::process::{execute_plan, Patty, PattyError, PattyRun, PROFILE_STREAM_CAP};
use patty_obs::MetricsRegistry;
use patty_runtime::Executor;
use patty_tadl::PatternKind;
use patty_telemetry::{Telemetry, TelemetryReport};
use patty_trace::{TraceReport, Tracer};

/// Build `source`'s process run with an enabled telemetry sink attached
/// (fault counters pre-registered, like `patty profile`).
fn stats_run(patty: &Patty, source: &str) -> Result<(Patty, Telemetry, PattyRun), PattyError> {
    let telemetry = Telemetry::enabled();
    patty_runtime::register_fault_counters(&telemetry);
    let patty = patty.clone().with_telemetry(telemetry.clone());
    let run = patty.run(source)?;
    Ok((patty, telemetry, run))
}

/// Synthesize each plan's trace single-threaded under the virtual
/// clock: one stage per pipeline stage (or one per architecture for the
/// loop patterns), the profiled stream length capped like the live
/// executor path. Call sequences depend only on the plans, so the
/// resulting report is byte-stable.
fn synthesize_trace(run: &PattyRun) -> TraceReport {
    let tracer = Tracer::deterministic(1024);
    for a in &run.artifacts {
        let n = a.plan.stream_length.clamp(1, PROFILE_STREAM_CAP);
        let stage_names: Vec<String> = match a.plan.kind {
            PatternKind::Pipeline => a.plan.stages.iter().map(|s| s.name.clone()).collect(),
            _ => vec![a.arch.name.clone()],
        };
        for name in stage_names {
            let stage = tracer.stage(&name);
            let worker = tracer.worker(stage, 0);
            for item in 0..n {
                let t = worker.item_start(item);
                worker.item_end(item, t);
            }
        }
    }
    TraceReport::from_trace(&tracer.snapshot())
}

/// Build the unified metrics registry for one source file. See the
/// module docs for what `deterministic` changes.
pub fn stats_registry(
    patty: &Patty,
    source: &str,
    deterministic: bool,
) -> Result<MetricsRegistry, PattyError> {
    let (_patty, telemetry, run) = stats_run(patty, source)?;
    let mut reg = MetricsRegistry::new();
    if deterministic {
        // Schema-faithful zeros for the schedule-dependent families;
        // only sources that are functions of the program survive.
        reg.ingest_executor(&patty_runtime::ExecutorStats::default(), &[]);
        let report = telemetry.report();
        reg.ingest_telemetry(&TelemetryReport {
            counters: report.counters,
            ..TelemetryReport::default()
        });
        reg.ingest_trace(&synthesize_trace(&run));
    } else {
        let tracer = Tracer::enabled();
        for a in &run.artifacts {
            execute_plan(a, &telemetry, &tracer)?;
        }
        let executor = Executor::global();
        reg.ingest_executor(&executor.stats(), &executor.lane_snapshots());
        reg.ingest_telemetry(&telemetry.report());
        reg.ingest_trace(&TraceReport::from_trace(&tracer.snapshot()));
    }
    if let Some(profile) = &run.model.profile {
        reg.ingest_vm_profile(&profile.stats());
    }
    // What the VM dispatched for that profile: the same bytecode the model
    // build ran (`vm::run_func`), under the same options, counted. The run
    // is deterministic (same program → same counts), so these families
    // are safe under `--deterministic` too.
    let interp = patty.options.interp.clone();
    let fused = patty_minilang::compile_fused(&run.model.program, interp.trace_loops);
    let (_, op_counts) = patty_minilang::vm::profile_ops(&fused, "main", vec![], interp)
        .map_err(PattyError::Lang)?;
    reg.ingest_vm_dispatch(&op_counts);
    Ok(reg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_corpus::avistream_program;
    use patty_obs::lint_prometheus;

    #[test]
    fn live_registry_covers_every_required_family_prefix() {
        let patty = Patty::new();
        let reg = stats_registry(&patty, avistream_program().source, false).unwrap();
        let text = reg.prometheus();
        lint_prometheus(&text).expect(&text);
        for prefix in ["patty_executor_", "patty_runtime_", "patty_vm_", "patty_trace_"] {
            assert!(
                reg.names().iter().any(|n| n.starts_with(prefix)),
                "missing {prefix}* family in:\n{text}"
            );
        }
        // The pipeline really executed: the pool did work and the trace
        // saw items.
        assert!(reg.value("patty_executor_tasks_executed_total").unwrap_or(0) > 0, "{text}");
        assert!(reg.value("patty_trace_items_total").unwrap_or(0) > 0, "{text}");
        assert!(reg.value("patty_vm_traced_iterations_total").unwrap_or(0) > 0, "{text}");
        // The dispatch families describe the profiled run's bytecode.
        assert!(reg.value("patty_vm_dispatch_ops_total").unwrap_or(0) > 0, "{text}");
        assert!(!reg.samples("patty_vm_superinstruction_hits").is_empty(), "{text}");
        assert!(!reg.samples("patty_vm_dispatch_rank").is_empty(), "{text}");
    }

    #[test]
    fn deterministic_registries_render_byte_identically() {
        let patty = Patty::new();
        let a = stats_registry(&patty, avistream_program().source, true).unwrap();
        let b = stats_registry(&patty, avistream_program().source, true).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.prometheus(), b.prometheus());
        // Executor families stay in the schema at zero.
        assert_eq!(a.value("patty_executor_tasks_executed_total"), Some(0));
        // The synthetic trace still carries the stage structure.
        assert!(a.value("patty_trace_items_total").unwrap_or(0) > 0);
        assert!(!a.samples("patty_trace_stage_items_total").is_empty());
    }
}
