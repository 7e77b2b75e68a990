//! `patty faultcheck` — validate the runtime's failure paths for a
//! program the way `patty validate` validates its interleavings.
//!
//! The generated plan is executed under a matrix of deterministic
//! [`FaultPlan`]s: one panic planted at every stage × {first, middle,
//! last} item. Each scenario must end in one of the two contractual
//! outcomes:
//!
//! * **recovered** — the sequential fallback absorbed the fault and the
//!   output is byte-identical to the sequential oracle, or
//! * **structured error** — the run failed fast with a
//!   [`RuntimeError`](patty_runtime::RuntimeError) naming the stage.
//!
//! Anything else (wrong output, an unwinding panic) fails the check.
//! The report carries the `fault.*` telemetry counters accumulated
//! across all scenarios, so the recovery machinery is observable from
//! the CLI exactly like stage throughput is in `patty profile`.
//!
//! The wall-clock matrix is complemented by the joint schedule×fault
//! exploration on the virtual-time chess scheduler (see
//! [`crate::chesscmd`]): every failing scenario there prints its
//! `sched_trace_hash`, and `patty faultcheck --replay <hash>` (or
//! `patty chess --replay <hash>`) re-executes exactly that interleaving
//! byte-stably.

use crate::chesscmd::{chess_explore, ChessReport};
use crate::process::{InstanceArtifacts, Patty, PattyError};
use patty_faultsim::FaultPlan;
use patty_runtime::{FailurePolicy, MasterWorker, Pipeline, RunOptions, Stage};
use patty_telemetry::Telemetry;
use std::time::Duration;

/// Items streamed per scenario — small enough that a full matrix stays
/// interactive, large enough that every stage sees first/middle/last.
const FAULTCHECK_STREAM_CAP: u64 = 64;

/// Guard deadline per scenario; a hung recovery is itself a failure.
const SCENARIO_DEADLINE: Duration = Duration::from_secs(30);

/// How one fault scenario ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Fallback completed; output matched the sequential oracle.
    Recovered,
    /// The run failed fast with the structured error's display string.
    StructuredError(String),
    /// Output diverged from the oracle — a real fault-tolerance bug.
    Diverged,
}

/// One executed scenario of the fault matrix.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Architecture the fault was injected into.
    pub arch: String,
    /// Stage (or task label) that hosted the fault.
    pub stage: String,
    /// 0-based call index the fault fired at.
    pub nth: u64,
    pub outcome: Outcome,
}

impl Scenario {
    pub fn passed(&self) -> bool {
        self.outcome != Outcome::Diverged
    }
}

/// The aggregated result of `patty faultcheck`.
#[derive(Debug)]
pub struct FaultcheckReport {
    pub scenarios: Vec<Scenario>,
    /// The joint schedule×fault exploration on the chess scheduler —
    /// every failure there carries a replayable `sched_trace_hash`.
    pub chess: ChessReport,
    /// `fault.*` (and pattern) counters accumulated across the matrix.
    pub telemetry: patty_telemetry::TelemetryReport,
}

impl FaultcheckReport {
    pub fn passed(&self) -> bool {
        !self.scenarios.is_empty()
            && self.scenarios.iter().all(Scenario::passed)
            && self.chess.passed()
    }

    /// Human-readable rendering; the telemetry report is appended as
    /// JSON so scripts can scrape the `fault.*` counters.
    pub fn render(&self) -> String {
        let mut out = String::from("— fault matrix —\n");
        for s in &self.scenarios {
            let verdict = match &s.outcome {
                Outcome::Recovered => "recovered via sequential fallback".to_string(),
                Outcome::StructuredError(e) => format!("structured error: {e}"),
                Outcome::Diverged => "FAILED: output diverged from sequential oracle".to_string(),
            };
            out.push_str(&format!("  {}::{}@{}: {}\n", s.arch, s.stage, s.nth, verdict));
        }
        let recovered = self.scenarios.iter().filter(|s| s.outcome == Outcome::Recovered).count();
        let errored = self
            .scenarios
            .iter()
            .filter(|s| matches!(s.outcome, Outcome::StructuredError(_)))
            .count();
        let failed = self.scenarios.iter().filter(|s| !s.passed()).count();
        out.push_str(&format!(
            "scenarios: {}, recovered: {recovered}, structured errors: {errored}, failures: {failed}\n",
            self.scenarios.len(),
        ));
        out.push('\n');
        out.push_str(&self.chess.render());
        out.push_str("\n[fault telemetry]\n");
        out.push_str(&self.telemetry.to_json());
        out.push('\n');
        out
    }
}

/// Run the fault matrix for every architecture detected in `source`.
pub fn faultcheck(patty: &Patty, source: &str) -> Result<FaultcheckReport, PattyError> {
    let run = patty.run(source)?;
    let telemetry = Telemetry::enabled();
    let mut scenarios = Vec::new();
    for artifacts in &run.artifacts {
        check_instance(artifacts, &telemetry, &mut scenarios);
    }
    let chess = chess_explore(patty, &run);
    Ok(FaultcheckReport { scenarios, chess, telemetry: telemetry.report() })
}

fn fallback_opts() -> RunOptions {
    RunOptions::new()
        .on_failure(FailurePolicy::FallbackSequential)
        .with_deadline(SCENARIO_DEADLINE)
}

/// First, middle and last call index for a stream of `n` items.
fn positions(n: u64) -> Vec<u64> {
    let mut p = vec![0, n / 2, n.saturating_sub(1)];
    p.dedup();
    p
}

/// The busy-work stage body shared with `patty profile`: replays the
/// profiled per-element cost, deterministically per input.
fn busy(cost: u64, x: u64) -> u64 {
    let mut acc = x;
    for i in 0..cost.min(512) {
        acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
    }
    acc
}

fn check_instance(
    artifacts: &InstanceArtifacts,
    telemetry: &Telemetry,
    scenarios: &mut Vec<Scenario>,
) {
    let plan = &artifacts.plan;
    let arch = artifacts.arch.name.clone();
    let n = plan.stream_length.clamp(1, FAULTCHECK_STREAM_CAP);
    match plan.kind {
        patty_tadl::PatternKind::Pipeline => {
            let costs: Vec<(String, u64)> = plan
                .stages
                .iter()
                .map(|ps| (ps.name.clone(), ps.cost_per_element))
                .collect();
            // Sequential oracle: the stage chain folded on one thread.
            let oracle: Vec<u64> = (0..n)
                .map(|x| costs.iter().fold(x, |v, (_, c)| busy(*c, v)))
                .collect();
            for (stage_name, _) in &costs {
                for nth in positions(n) {
                    let fault = FaultPlan::new().panic_at(stage_name.clone(), nth);
                    let stages: Vec<Stage<u64>> = costs
                        .iter()
                        .map(|(name, cost)| {
                            let cost = *cost;
                            fault.wrap_stage(Stage::new(name.clone(), move |x: u64| busy(cost, x)))
                        })
                        .collect();
                    let pipeline =
                        Pipeline::new(stages).with_telemetry(telemetry.clone());
                    let outcome = match pipeline.run_checked((0..n).collect(), &fallback_opts()) {
                        Ok(out) if out == oracle => Outcome::Recovered,
                        Ok(_) => Outcome::Diverged,
                        Err(e) => Outcome::StructuredError(e.to_string()),
                    };
                    scenarios.push(Scenario {
                        arch: arch.clone(),
                        stage: stage_name.clone(),
                        nth,
                        outcome,
                    });
                }
            }
        }
        patty_tadl::PatternKind::MasterWorker | patty_tadl::PatternKind::DataParallelLoop => {
            let cost = plan.element_cost;
            let oracle: Vec<u64> = (0..n).map(|x| busy(cost, x)).collect();
            for nth in positions(n) {
                let fault = FaultPlan::new().panic_at("worker", nth);
                let task = fault.instrument("worker", move |x: u64| busy(cost, x));
                let mw = MasterWorker::new(4).with_telemetry(telemetry.clone());
                let outcome = match mw.run_checked((0..n).collect(), task, &fallback_opts()) {
                    Ok(out) if out == oracle => Outcome::Recovered,
                    Ok(_) => Outcome::Diverged,
                    Err(e) => Outcome::StructuredError(e.to_string()),
                };
                scenarios.push(Scenario {
                    arch: arch.clone(),
                    stage: "worker".to_string(),
                    nth,
                    outcome,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_corpus::avistream_program;

    #[test]
    fn avistream_fault_matrix_passes_and_reports_counters() {
        let patty = Patty::new();
        let report = faultcheck(&patty, avistream_program().source).unwrap();
        assert!(report.passed(), "{}", report.render());
        // 4 pipeline stages × 3 positions.
        assert!(report.scenarios.len() >= 9, "only {} scenarios", report.scenarios.len());
        let caught = report.telemetry.counter("fault.panics_caught").unwrap_or(0);
        assert_eq!(caught, report.scenarios.len() as u64, "one injection per scenario");
        let rendered = report.render();
        assert!(rendered.contains("fault.panics_caught"));
        assert!(rendered.contains("fault.fallbacks"));
        // The chess section prints a replayable sched_trace_hash for
        // every failing schedule×fault scenario.
        assert!(rendered.contains("schedule×fault"), "{rendered}");
        assert!(rendered.contains("hash=0x"), "{rendered}");
    }

    #[test]
    fn positions_collapse_for_tiny_streams() {
        assert_eq!(positions(1), vec![0]);
        assert_eq!(positions(2), vec![0, 1]);
        assert_eq!(positions(24), vec![0, 12, 23]);
    }
}
