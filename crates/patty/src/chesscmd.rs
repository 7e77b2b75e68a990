//! `patty chess` — joint schedule×fault exploration of the generated
//! parallel unit tests.
//!
//! `patty validate` explores schedules; `patty faultcheck` explores
//! faults on wall-clock runs. This mode fuses the two on the virtual-time
//! scheduler: every generated unit test is explored under a matrix of
//! fault scenarios (no-fault plus every stage × {first, middle, last}
//! element × {panic, delay, drop}), so one command validates thousands of
//! schedule×fault combinations deterministically, with zero OS threads.
//!
//! Every failure carries its `sched_trace_hash`; `patty chess
//! --replay <hash>` re-executes exactly that interleaving under exactly
//! that fault scenario, twice, and reports whether the replays were
//! byte-identical.

use crate::process::{Patty, PattyRun};
use patty_chess::{FaultScenario, JointReport, ReplayOutcome};
use patty_faultsim::chess::scenario_matrix;
use patty_testgen::{fault_labels, replay_unit_test_hash, run_unit_test_joint};

/// Failures rendered per scenario before eliding the rest.
const MAX_RENDERED_FAILURES: usize = 4;

/// Schedule budget per fault scenario of the joint matrix. The matrix
/// multiplies ~30 scenarios by this budget, so the per-scenario cap is
/// what keeps the full sweep interactive; DPOR at this budget covers the
/// same failure set as a 15× larger preemption-bounded DFS on the
/// corpus. `--replay` re-explores under the identical budget so hashes
/// printed by an exploration are always found again.
const MATRIX_SCHEDULES_PER_SCENARIO: u64 = 128;

/// The session's chess options clamped to the joint-matrix budget.
fn matrix_options(patty: &Patty) -> patty_chess::ChessOptions {
    let mut options = patty.options.chess.clone();
    options.max_schedules = options.max_schedules.min(MATRIX_SCHEDULES_PER_SCENARIO);
    options
}

/// The joint exploration of every detected architecture.
#[derive(Clone, Debug, Default)]
pub struct ChessReport {
    /// `(architecture name, joint report)`, best candidate first.
    pub architectures: Vec<(String, JointReport)>,
}

impl ChessReport {
    /// Total schedule×fault combinations executed.
    pub fn combos(&self) -> u64 {
        self.architectures.iter().map(|(_, j)| j.combos).sum()
    }

    /// Did every scenario of every architecture behave as its fault
    /// model predicts?
    pub fn passed(&self) -> bool {
        !self.architectures.is_empty()
            && self.architectures.iter().all(|(_, j)| j.passed())
    }

    /// True when nothing was explored (no architecture had a unit test).
    pub fn is_empty(&self) -> bool {
        self.architectures.is_empty()
    }

    /// Human-readable rendering; every failure line carries the
    /// `sched_trace_hash` that `--replay` accepts.
    pub fn render(&self) -> String {
        let mut out = String::from("— chess: schedule×fault exploration —\n");
        for (name, joint) in &self.architectures {
            out.push_str(&format!(
                "{name}: {} scenario(s), {} schedule×fault combination(s), {} step(s)\n",
                joint.scenarios.len(),
                joint.combos,
                joint.total_steps
            ));
            out.push_str(&format!(
                "  coverage: {}‰ of ~{} estimated combination(s){}\n",
                joint.coverage_permille(),
                joint.estimated_combos.max(joint.combos),
                if joint.all_complete() {
                    String::from(" (exhaustive)")
                } else {
                    format!(" ({} frontier branch(es) open)", joint.frontier_open)
                }
            ));
            for sr in &joint.scenarios {
                if sr.report.failures.is_empty() {
                    continue;
                }
                let unexpected = sr.unexpected().len();
                out.push_str(&format!(
                    "  {}: {} schedule(s), {} failure(s){}\n",
                    sr.scenario.encode(),
                    sr.report.schedules,
                    sr.report.failures.len(),
                    if unexpected > 0 {
                        format!(", {unexpected} UNEXPECTED")
                    } else {
                        String::from(", all fault-induced")
                    }
                ));
                for f in sr.report.failures.iter().take(MAX_RENDERED_FAILURES) {
                    let tag = if sr.scenario.faults.is_empty() || !f.fault_induced {
                        "UNEXPECTED"
                    } else {
                        "fault-induced"
                    };
                    out.push_str(&format!(
                        "    {} [{tag}] hash=0x{:016x}\n",
                        f.kind, f.trace_hash
                    ));
                }
                if sr.report.failures.len() > MAX_RENDERED_FAILURES {
                    out.push_str(&format!(
                        "    … {} more\n",
                        sr.report.failures.len() - MAX_RENDERED_FAILURES
                    ));
                }
            }
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.is_empty() {
                "no parallel architectures with unit tests"
            } else if self.passed() {
                "pass (every failure explained by its injected fault)"
            } else {
                "FAIL (failures not explained by any injected fault)"
            }
        ));
        out
    }
}

/// First, middle and last element index of a unit test's stream.
fn positions(elements: usize) -> Vec<u64> {
    let n = elements.max(1) as u64;
    let mut p = vec![0, n / 2, n - 1];
    p.dedup();
    p
}

/// The fault scenario matrix of one generated unit test: no-fault plus
/// every stage label × stream position × injection kind.
pub fn unit_test_scenarios(test: &patty_testgen::ParallelUnitTest) -> Vec<FaultScenario> {
    scenario_matrix(&fault_labels(test), &positions(test.elements))
}

/// Run the joint schedule×fault explorer on every generated unit test.
pub fn chess_explore(patty: &Patty, run: &PattyRun) -> ChessReport {
    let _span = patty.telemetry.span("phase.chess");
    let options = matrix_options(patty);
    ChessReport {
        architectures: run
            .artifacts
            .iter()
            .filter_map(|a| {
                let t = a.unit_test.as_ref()?;
                let scenarios = unit_test_scenarios(t);
                Some((a.arch.name.clone(), run_unit_test_joint(t, &scenarios, &options)))
            })
            .collect(),
    }
}

/// Replay one failure from its `sched_trace_hash` alone, searching every
/// architecture's scenario matrix. Returns the architecture name and the
/// replay outcome, or `None` when no explored failure carries the hash.
pub fn chess_replay(patty: &Patty, run: &PattyRun, hash: u64) -> Option<(String, ReplayOutcome)> {
    let options = matrix_options(patty);
    run.artifacts.iter().find_map(|a| {
        let t = a.unit_test.as_ref()?;
        let scenarios = unit_test_scenarios(t);
        replay_unit_test_hash(t, &scenarios, &options, hash)
            .map(|outcome| (a.arch.name.clone(), outcome))
    })
}

/// Render a replay outcome for the CLI.
pub fn render_replay(arch: &str, outcome: &ReplayOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!("— replay: {arch} —\n"));
    out.push_str(&format!("scenario: {}\n", outcome.scenario.encode()));
    out.push_str(&format!(
        "schedule: [{}]\n",
        outcome
            .schedule
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    for f in &outcome.failures {
        out.push_str(&format!("  {} hash=0x{:016x}\n", f.kind, f.trace_hash));
    }
    out.push_str(&format!(
        "replay: {}\n",
        if outcome.byte_stable { "byte-stable (two identical re-executions)" } else { "DIVERGED" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_corpus::avistream_program;

    /// One exploration of the avistream matrix backs every assertion:
    /// pass verdict, fault-induced failures, hash replay, and the
    /// unknown-hash miss. A single test keeps the (deliberately bounded)
    /// matrix cost paid once.
    #[test]
    fn avistream_matrix_passes_and_failures_replay_from_their_hashes() {
        let patty = Patty::new();
        let run = patty.run(avistream_program().source).unwrap();
        let report = chess_explore(&patty, &run);
        assert!(!report.is_empty(), "avistream must have a unit test");
        assert!(report.passed(), "{}", report.render());
        let (_, joint) = &report.architectures[0];
        // no-fault plus stages × positions × 3 kinds.
        assert!(joint.scenarios.len() > 1, "matrix must cover fault scenarios");
        assert!(report.combos() > joint.scenarios.len() as u64);
        let rendered = report.render();
        assert!(rendered.contains("schedule×fault"), "{rendered}");
        assert!(rendered.contains("verdict: pass"), "{rendered}");
        assert!(rendered.contains("coverage: "), "{rendered}");
        assert!(rendered.contains("‰"), "{rendered}");

        let hash = report
            .architectures
            .iter()
            .flat_map(|(_, j)| &j.scenarios)
            .flat_map(|s| &s.report.failures)
            .map(|f| f.trace_hash)
            .next()
            .expect("the fault matrix must produce at least one (expected) failure");
        let (arch, outcome) = chess_replay(&patty, &run, hash).expect("hash must be found");
        assert!(outcome.byte_stable, "replay must be byte-stable");
        let replay = render_replay(&arch, &outcome);
        assert!(replay.contains("byte-stable"), "{replay}");
        assert!(replay.contains(&format!("{hash:016x}")), "{replay}");

        assert!(chess_replay(&patty, &run, 0xdead_beef_0bad_f00d).is_none());
    }

    #[test]
    fn positions_collapse_for_tiny_streams() {
        assert_eq!(positions(1), vec![0]);
        assert_eq!(positions(2), vec![0, 1]);
        assert_eq!(positions(9), vec![0, 4, 8]);
    }
}
