//! Joint schedule × fault exploration.
//!
//! `crates/faultsim` injects one fault into one wall-clock run; the chess
//! scheduler makes fault injection a *scheduler decision point* instead:
//! every [`crate::ThreadCtx::fault_point`] is a yield point, and a
//! [`FaultScenario`] arms which call fires which fault. The joint
//! explorer runs the full schedule exploration (DFS or DPOR, per
//! [`ChessOptions::mode`]) once per scenario, so a corpus with `s`
//! scenarios and `k` schedules each validates `s × k` schedule×fault
//! combinations — thousands of combinations in CI-flat time, zero OS
//! threads.
//!
//! The verdict per scenario:
//! - a **race** is never acceptable — faults change timing and control
//!   flow, not the synchronization discipline;
//! - under the **no-fault** scenario every failure is a bug;
//! - under a fault scenario, a failure is *expected* iff a fault had
//!   already fired when it was observed (`Failure::fault_induced`): an
//!   injected panic, or the deadlock it causes downstream, is the fault
//!   model working — the same failure without the fault is a bug.
//!
//! Every failure carries its `sched_trace_hash`; [`replay_hash`]
//! re-executes exactly that interleaving (twice, comparing byte-for-byte)
//! from the hash alone.

use crate::explore::{explore_scenario, replay_under, ChessOptions, Report};
use crate::sched::{Failure, FailureKind, FaultScenario, ThreadCtx};
use std::future::Future;
use std::rc::Rc;

/// The exploration of one fault scenario.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    pub scenario: FaultScenario,
    pub report: Report,
}

impl ScenarioReport {
    /// Failures that are bugs (not explained by the injected fault).
    pub fn unexpected(&self) -> Vec<&Failure> {
        self.report
            .failures
            .iter()
            .filter(|f| {
                matches!(f.kind, FailureKind::Race { .. })
                    || self.scenario.faults.is_empty()
                    || !f.fault_induced
            })
            .collect()
    }
}

/// The outcome of a joint schedule×fault exploration.
#[derive(Clone, Debug, Default)]
pub struct JointReport {
    pub scenarios: Vec<ScenarioReport>,
    /// Total schedule×fault combinations executed (Σ schedules).
    pub combos: u64,
    /// Total yield points executed across all combinations.
    pub total_steps: u64,
    /// Frontier-based estimate of the full combination space
    /// (Σ per-scenario `estimated_total`).
    pub estimated_combos: u64,
    /// Open frontier branches left across all scenarios.
    pub frontier_open: u64,
}

impl JointReport {
    /// Was every scenario's schedule space exhausted?
    pub fn all_complete(&self) -> bool {
        self.scenarios.iter().all(|s| s.report.complete)
    }

    /// Coverage of the estimated combination space, in permille: 1000‰
    /// iff every scenario completed, otherwise clamped to 999‰.
    pub fn coverage_permille(&self) -> u64 {
        if self.all_complete() {
            return 1000;
        }
        if self.combos == 0 {
            return 0;
        }
        let est = self.estimated_combos.max(self.combos.saturating_add(1));
        (1000u64.saturating_mul(self.combos) / est).min(999)
    }
    /// All unexpected failures, tagged with their scenario encoding.
    pub fn unexpected(&self) -> Vec<(String, Failure)> {
        self.scenarios
            .iter()
            .flat_map(|s| {
                s.unexpected()
                    .into_iter()
                    .map(|f| (s.scenario.encode(), f.clone()))
            })
            .collect()
    }

    /// Did every scenario behave as its fault model predicts?
    pub fn passed(&self) -> bool {
        self.scenarios.iter().all(|s| s.unexpected().is_empty())
    }
}

/// Explore every scenario × every schedule of `test`.
pub fn explore_joint<F, Fut>(test: F, scenarios: &[FaultScenario], options: &ChessOptions) -> JointReport
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let test = Rc::new(test);
    let mut joint = JointReport::default();
    for scenario in scenarios {
        let report = explore_scenario(&test, scenario, options);
        joint.combos += report.schedules;
        joint.total_steps += report.total_steps;
        joint.estimated_combos = joint.estimated_combos.saturating_add(report.estimated_total);
        joint.frontier_open += report.frontier_open;
        joint.scenarios.push(ScenarioReport { scenario: scenario.clone(), report });
    }
    joint
}

/// A replayed interleaving, located by its `sched_trace_hash`.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    pub scenario: FaultScenario,
    pub schedule: Vec<usize>,
    pub failures: Vec<Failure>,
    /// True when two independent replays of the schedule produced
    /// identical decisions, failures, step counts and trace hashes.
    pub byte_stable: bool,
}

/// Find the failure whose `sched_trace_hash` is `hash` by re-running the
/// joint exploration (same options ⇒ same search ⇒ same hashes), then
/// replay its interleaving twice and compare the replays byte-for-byte.
/// Returns `None` when no explored failure carries the hash.
pub fn replay_hash<F, Fut>(
    test: F,
    scenarios: &[FaultScenario],
    options: &ChessOptions,
    hash: u64,
) -> Option<ReplayOutcome>
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let test = Rc::new(test);
    for scenario in scenarios {
        let report = explore_scenario(&test, scenario, options);
        if let Some(f) = report.failures.iter().find(|f| f.trace_hash == hash) {
            let a = replay_under(&test, scenario, &f.schedule, options.max_steps);
            let b = replay_under(&test, scenario, &f.schedule, options.max_steps);
            let byte_stable = a.decisions == b.decisions
                && a.failures == b.failures
                && a.steps == b.steps
                && a.trace_hash == b.trace_hash
                && a.failures.iter().any(|g| g.kind == f.kind && g.trace_hash == hash);
            return Some(ReplayOutcome {
                scenario: scenario.clone(),
                schedule: f.schedule.clone(),
                failures: a.failures,
                byte_stable,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Inject, InjectKind};

    /// A two-stage pipeline with fault points at both stages; clean under
    /// the no-fault scenario.
    async fn faulty_pipeline(ctx: ThreadCtx) {
        let ch = ctx.channel::<i64>("buf");
        let out = ctx.shared("out", 0i64);
        let chp = ch.clone();
        let producer = ctx.spawn(move |ctx| async move {
            for i in 0..2 {
                let v = match ctx.fault_point("stage_a").await {
                    Inject::Run => i * 2,
                    Inject::Drop => -1,
                };
                chp.send(&ctx, v).await;
            }
        }).await;
        let (chc, oc) = (ch.clone(), out.clone());
        let consumer = ctx.spawn(move |ctx| async move {
            let mut sum = 0;
            for _ in 0..2 {
                let v = chc.recv(&ctx).await;
                if ctx.fault_point("stage_b").await == Inject::Run && v >= 0 {
                    sum += v;
                }
            }
            oc.write(&ctx, sum).await;
        }).await;
        ctx.join(producer).await;
        ctx.join(consumer).await;
        ctx.check(out.read(&ctx).await >= 0, "sum stays non-negative").await;
    }

    fn scenarios() -> Vec<FaultScenario> {
        vec![
            FaultScenario::none(),
            FaultScenario::one("stage_a", 0, InjectKind::Panic),
            FaultScenario::one("stage_a", 1, InjectKind::DropItem),
            FaultScenario::one("stage_b", 0, InjectKind::DelayTicks(40)),
        ]
    }

    #[test]
    fn fault_induced_failures_are_expected_and_clean_scenarios_pass() {
        let joint = explore_joint(faulty_pipeline, &scenarios(), &ChessOptions::default());
        assert_eq!(joint.scenarios.len(), 4);
        assert!(joint.combos > 4, "several schedules per scenario");
        // The injected panic produces Panic (+ downstream deadlock)
        // failures — all fault-induced, so the matrix passes.
        let panic_scn = &joint.scenarios[1];
        assert!(panic_scn.report.failed(), "injected panic must surface");
        assert!(
            panic_scn.report.failures.iter().all(|f| f.fault_induced),
            "{:?}",
            panic_scn.report.failures
        );
        assert!(joint.passed(), "unexpected: {:?}", joint.unexpected());
    }

    #[test]
    fn dropped_item_keeps_pipeline_drainable() {
        let joint = explore_joint(
            faulty_pipeline,
            &[FaultScenario::one("stage_a", 1, InjectKind::DropItem)],
            &ChessOptions::default(),
        );
        // The tombstone keeps the consumer fed: no deadlock, no failure.
        assert!(joint.passed(), "{:?}", joint.unexpected());
    }

    #[test]
    fn replay_hash_reproduces_fault_induced_failure_byte_stably() {
        let joint = explore_joint(faulty_pipeline, &scenarios(), &ChessOptions::default());
        let (_, failure) = joint
            .scenarios
            .iter()
            .flat_map(|s| s.report.failures.iter().map(move |f| (s, f)))
            .next()
            .map(|(s, f)| (s.scenario.clone(), f.clone()))
            .expect("panic scenario fails");
        let outcome = replay_hash(
            faulty_pipeline,
            &scenarios(),
            &ChessOptions::default(),
            failure.trace_hash,
        )
        .expect("hash must be found");
        assert!(outcome.byte_stable);
        assert_eq!(outcome.schedule, failure.schedule);
        assert!(outcome.failures.iter().any(|f| f.kind == failure.kind));
    }

    #[test]
    fn replay_hash_rejects_unknown_hash() {
        let outcome = replay_hash(
            faulty_pipeline,
            &scenarios(),
            &ChessOptions::default(),
            0xdead_beef_dead_beef,
        );
        assert!(outcome.is_none());
    }

    #[test]
    fn scenario_changes_trace_hash_for_same_schedule() {
        // Hashes are seeded by the scenario encoding: the same decision
        // sequence under a different fault scenario must not collide.
        let a = explore_joint(
            faulty_pipeline,
            &[FaultScenario::one("stage_a", 0, InjectKind::Panic)],
            &ChessOptions { max_schedules: 1, ..ChessOptions::default() },
        );
        let b = explore_joint(
            faulty_pipeline,
            &[FaultScenario::one("stage_b", 0, InjectKind::Panic)],
            &ChessOptions { max_schedules: 1, ..ChessOptions::default() },
        );
        let ha: Vec<u64> = a.scenarios[0].report.failures.iter().map(|f| f.trace_hash).collect();
        let hb: Vec<u64> = b.scenarios[0].report.failures.iter().map(|f| f.trace_hash).collect();
        for h in &ha {
            assert!(!hb.contains(h), "hash collision across scenarios");
        }
    }
}
