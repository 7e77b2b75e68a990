//! Systematic schedule exploration with iterative preemption bounding.
//!
//! The explorer enumerates schedules depth-first: each run replays a
//! prefix of scheduling decisions and takes the first unexplored branch at
//! the deepest decision point, exactly like CHESS's stateless search.
//! *Iterative context bounding* — CHESS's key idea — explores all
//! schedules with at most `c` preemptions before trying `c + 1`, because
//! most concurrency bugs need only a couple of preemptions.
//!
//! [`SearchMode::Dpor`] switches the same entry point to the dynamic
//! partial-order reduction explorer ([`crate::dpor`]), which visits every
//! Mazurkiewicz trace once instead of every interleaving — same failure
//! set, strictly fewer schedules. The DFS stays as the differential
//! oracle (and is the only mode that honors `preemption_bound`).

use crate::sched::{
    run_schedule, scenario_seed, Failure, FaultScenario, Policy, RunResult, ThreadCtx,
};
use std::future::Future;
use std::rc::Rc;

/// Which search algorithm drives the exploration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SearchMode {
    /// Stateless depth-first enumeration (CHESS), optionally preemption-
    /// bounded. The differential oracle for DPOR.
    #[default]
    Dfs,
    /// Dynamic partial-order reduction with sleep sets: one schedule per
    /// equivalence class of commuting interleavings. Ignores
    /// `preemption_bound`.
    Dpor,
}

/// Exploration options.
#[derive(Clone, Debug)]
pub struct ChessOptions {
    /// Maximum schedules to run before giving up.
    pub max_schedules: u64,
    /// Per-schedule step limit (livelock guard).
    pub max_steps: u64,
    /// Maximum preemptions per schedule (`None` = unbounded; DFS only).
    pub preemption_bound: Option<usize>,
    /// Stop at the first failing schedule.
    pub stop_on_first_failure: bool,
    /// Search algorithm.
    pub mode: SearchMode,
    /// Known-bad decision sequences to explore *first* (DPOR only) —
    /// typically the failure witnesses of an earlier run, i.e. the
    /// schedules behind previously reported `sched_trace_hash`es (see
    /// [`Report::failure_schedules`]). A regression on a known bug then
    /// surfaces on the very first schedule instead of after the search
    /// rediscovers the interleaving. Stale entries (the test changed and
    /// a recorded choice is no longer runnable) degrade gracefully to
    /// the default choice at that step.
    pub seed_schedules: Vec<Vec<usize>>,
}

impl Default for ChessOptions {
    fn default() -> ChessOptions {
        ChessOptions {
            max_schedules: 10_000,
            max_steps: 20_000,
            preemption_bound: None,
            stop_on_first_failure: false,
            mode: SearchMode::Dfs,
            seed_schedules: Vec::new(),
        }
    }
}

/// Cap on the frontier-based size estimate: branching products along a
/// deep path overflow fast, and coverage permille needs no more
/// resolution than this.
const ESTIMATE_CAP: u64 = 1_000_000_000_000;

/// The outcome of an exploration.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Schedules executed.
    pub schedules: u64,
    /// Whether the search space was exhausted (within the bound).
    pub complete: bool,
    /// Unique failures (first witness schedule each).
    pub failures: Vec<Failure>,
    /// Total yield points executed across all schedules.
    pub total_steps: u64,
    /// Branches still open on the search frontier when the search
    /// stopped (0 for a complete search): sibling choices at decision
    /// points on the current path that were never taken.
    pub frontier_open: u64,
    /// Frontier-based estimate of the total (DPOR-reduced, for that
    /// mode) schedule space: explored schedules plus a branching-product
    /// estimate of what the open frontier still hides. Equals
    /// `schedules` for a complete search; capped at [`ESTIMATE_CAP`].
    pub estimated_total: u64,
}

impl Report {
    /// Did any schedule fail?
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }

    /// The witness schedule of every recorded failure, in report order —
    /// the decision sequences behind the report's `sched_trace_hash`es.
    /// Feed these into [`ChessOptions::seed_schedules`] on the next run
    /// so known-bad interleavings are re-checked before the search
    /// explores anything new.
    pub fn failure_schedules(&self) -> Vec<Vec<usize>> {
        self.failures.iter().map(|f| f.schedule.clone()).collect()
    }

    /// How much of the (estimated) schedule space the budget explored,
    /// in permille. A complete search is 1000‰ by definition; an
    /// incomplete one is clamped to 999‰ so a truncated search never
    /// claims exhaustion, however optimistic the estimate.
    pub fn coverage_permille(&self) -> u64 {
        if self.complete {
            return 1000;
        }
        if self.schedules == 0 {
            return 0;
        }
        let est = self.estimated_total.max(self.schedules.saturating_add(1));
        (1000u64.saturating_mul(self.schedules) / est).min(999)
    }

    /// Fold the frontier left standing at search exit into the report:
    /// `open` sibling branches never taken, and a Knuth-style product of
    /// the branching factors along the final path as the size estimate
    /// (each factor ≥ 1; saturating, capped). A complete search has no
    /// frontier and estimates exactly what it ran.
    pub(crate) fn close_frontier(&mut self, open: u64, branching: impl Iterator<Item = u64>) {
        // A search that stops with nothing left on the frontier has in
        // fact exhausted the (reduced) space — the next backtrack step
        // would pop every node and terminate — so credit it as complete
        // even when a budget check was what stopped it. Without this, a
        // budget that lands exactly on the last schedule would report
        // phantom partial coverage.
        if open == 0 {
            self.complete = true;
        }
        if self.complete {
            self.frontier_open = 0;
            self.estimated_total = self.schedules;
            return;
        }
        let mut est: u64 = 1;
        for b in branching {
            est = est.saturating_mul(b.max(1)).min(ESTIMATE_CAP);
        }
        self.frontier_open = open;
        self.estimated_total =
            est.max(self.schedules.saturating_add(open)).min(ESTIMATE_CAP);
    }

    /// Merge another report into this one (used by iterative bounding).
    pub(crate) fn merge(&mut self, other: Report) {
        self.schedules += other.schedules;
        self.total_steps += other.total_steps;
        self.frontier_open += other.frontier_open;
        self.estimated_total = self
            .estimated_total
            .saturating_add(other.estimated_total)
            .min(ESTIMATE_CAP);
        for f in other.failures {
            if !self.failures.iter().any(|g| g.kind == f.kind) {
                self.failures.push(f);
            }
        }
    }

    pub(crate) fn absorb_run(&mut self, failures: Vec<Failure>, steps: u64) {
        self.schedules += 1;
        self.total_steps += steps;
        for f in failures {
            if !self.failures.iter().any(|g| g.kind == f.kind) {
                self.failures.push(f);
            }
        }
    }
}

struct Frame {
    choices: Vec<usize>,
    next: usize,
}

struct DfsPolicy {
    frames: Vec<Frame>,
    bound: Option<usize>,
    preemptions: usize,
}

impl Policy for DfsPolicy {
    fn choose(&mut self, step: usize, runnable: &[usize], last: Option<usize>) -> usize {
        let allowed = match (self.bound, &last) {
            (Some(c), Some(l)) if self.preemptions >= c && runnable.contains(l) => {
                std::slice::from_ref(l)
            }
            _ => runnable,
        };
        if step == self.frames.len() {
            self.frames.push(Frame { choices: allowed.to_vec(), next: 0 });
        }
        debug_assert_eq!(
            self.frames[step].choices, allowed,
            "nondeterministic test: runnable set diverged on replay"
        );
        let f = &self.frames[step];
        let tid = *f.choices.get(f.next).unwrap_or(&allowed[0]);
        if let Some(l) = last {
            if tid != l && runnable.contains(&l) {
                self.preemptions += 1;
            }
        }
        tid
    }
}

/// Explore all schedules of `test` (within the options' bounds), using
/// the configured [`SearchMode`].
pub fn explore<F, Fut>(test: F, options: ChessOptions) -> Report
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    explore_scenario(&Rc::new(test), &FaultScenario::none(), &options)
}

/// Run the configured exploration once under a fixed fault scenario (the
/// joint schedule×fault explorer calls this once per scenario).
pub(crate) fn explore_scenario<F, Fut>(
    test: &Rc<F>,
    scenario: &FaultScenario,
    options: &ChessOptions,
) -> Report
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    match options.mode {
        SearchMode::Dfs => explore_dfs_scenario(test, scenario, options),
        SearchMode::Dpor => crate::dpor::explore_dpor_scenario(test, scenario, options),
    }
}

/// DFS exploration of `test` under a fixed fault scenario.
fn explore_dfs_scenario<F, Fut>(
    test: &Rc<F>,
    scenario: &FaultScenario,
    options: &ChessOptions,
) -> Report
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let hash_seed = scenario_seed(scenario);
    let mut frames: Vec<Frame> = Vec::new();
    let mut report = Report::default();
    loop {
        let mut policy = DfsPolicy {
            frames: std::mem::take(&mut frames),
            bound: options.preemption_bound,
            preemptions: 0,
        };
        let run = run_schedule(test, &mut policy, options.max_steps, scenario, hash_seed);
        frames = policy.frames;
        report.absorb_run(run.failures, run.steps);
        if options.stop_on_first_failure && report.failed() {
            close_dfs_frontier(&mut report, &frames);
            return report;
        }
        if report.schedules >= options.max_schedules {
            close_dfs_frontier(&mut report, &frames);
            return report;
        }
        // Backtrack: drop exhausted suffix, advance the deepest open frame.
        loop {
            match frames.last_mut() {
                None => {
                    report.complete = true;
                    close_dfs_frontier(&mut report, &frames);
                    return report;
                }
                Some(f) if f.next + 1 < f.choices.len() => {
                    f.next += 1;
                    break;
                }
                Some(_) => {
                    frames.pop();
                }
            }
        }
    }
}

/// Frontier accounting at DFS exit: open branches are the sibling
/// choices to the right of each frame's cursor; the size estimate is
/// the branching product along the final path.
fn close_dfs_frontier(report: &mut Report, frames: &[Frame]) {
    let open: u64 = frames
        .iter()
        .map(|f| (f.choices.len().saturating_sub(f.next + 1)) as u64)
        .sum();
    report.close_frontier(open, frames.iter().map(|f| f.choices.len() as u64));
}

/// Iterative context bounding: explore with preemption bounds
/// `0, 1, …, max_bound`, stopping early when a failure is found (if
/// requested). The returned report accumulates all bounds explored.
pub fn explore_iterative<F, Fut>(test: F, max_bound: usize, options: ChessOptions) -> Report
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let test = Rc::new(test);
    let mut total = Report { complete: true, ..Report::default() };
    for c in 0..=max_bound {
        let opts = ChessOptions {
            preemption_bound: Some(c),
            max_schedules: options
                .max_schedules
                .saturating_sub(total.schedules)
                .max(1),
            mode: SearchMode::Dfs,
            ..options.clone()
        };
        let r = explore_dfs_scenario(&test, &FaultScenario::none(), &opts);
        let complete = r.complete;
        total.merge(r);
        total.complete &= complete;
        if options.stop_on_first_failure && total.failed() {
            return total;
        }
        if total.schedules >= options.max_schedules {
            total.complete = false;
            return total;
        }
    }
    total
}

/// Random schedule sampling — the practical fallback when the state space
/// is too large to exhaust: `runs` independent random walks over the
/// scheduling decisions. Far cheaper than DFS per unit of coverage
/// diversity; finds shallow bugs quickly but gives no completeness
/// guarantee.
pub fn explore_random<F, Fut>(test: F, runs: u64, seed: u64, options: ChessOptions) -> Report
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct RandomPolicy {
        rng: StdRng,
    }
    impl Policy for RandomPolicy {
        fn choose(&mut self, _step: usize, runnable: &[usize], _last: Option<usize>) -> usize {
            runnable[self.rng.gen_range(0..runnable.len())]
        }
    }

    let test = Rc::new(test);
    let scenario = FaultScenario::none();
    let hash_seed = scenario_seed(&scenario);
    let mut report = Report::default();
    for i in 0..runs {
        let mut policy = RandomPolicy { rng: StdRng::seed_from_u64(seed ^ i) };
        let run = run_schedule(&test, &mut policy, options.max_steps, &scenario, hash_seed);
        report.absorb_run(run.failures, run.steps);
        if options.stop_on_first_failure && report.failed() {
            break;
        }
    }
    report
}

struct ReplayPolicy<'a> {
    schedule: &'a [usize],
}

impl Policy for ReplayPolicy<'_> {
    fn choose(&mut self, step: usize, runnable: &[usize], _last: Option<usize>) -> usize {
        self.schedule
            .get(step)
            .copied()
            .filter(|t| runnable.contains(t))
            .unwrap_or(runnable[0])
    }
}

/// Replay a specific schedule (e.g. a failure witness) and return the
/// failures it triggers.
pub fn replay<F, Fut>(test: F, schedule: &[usize], max_steps: u64) -> Vec<Failure>
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    replay_under(&Rc::new(test), &FaultScenario::none(), schedule, max_steps).failures
}

/// Re-run one schedule under one scenario via the replay policy.
pub(crate) fn replay_under<F, Fut>(
    test: &Rc<F>,
    scenario: &FaultScenario,
    schedule: &[usize],
    max_steps: u64,
) -> RunResult
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let mut policy = ReplayPolicy { schedule };
    run_schedule(test, &mut policy, max_steps, scenario, scenario_seed(scenario))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::FailureKind;

    /// Unsynchronized increment by two threads.
    async fn racy_counter(ctx: ThreadCtx) {
        let counter = ctx.shared("counter", 0i64);
        let c1 = counter.clone();
        let c2 = counter.clone();
        let t1 = ctx.spawn(move |ctx| async move {
            let v = c1.read(&ctx).await;
            c1.write(&ctx, v + 1).await;
        }).await;
        let t2 = ctx.spawn(move |ctx| async move {
            let v = c2.read(&ctx).await;
            c2.write(&ctx, v + 1).await;
        }).await;
        ctx.join(t1).await;
        ctx.join(t2).await;
        ctx.check(counter.read(&ctx).await == 2, "both increments must land").await;
    }

    #[test]
    fn finds_race_and_lost_update() {
        let report = explore(racy_counter, ChessOptions::default());
        assert!(report.complete, "small test must be exhaustable");
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(f.kind, FailureKind::Race { .. })));
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(f.kind, FailureKind::CheckFailed(_))));
    }

    #[test]
    fn mutex_protected_counter_is_clean_except_for_no_failures() {
        let report = explore(
            |ctx| async move {
                let counter = ctx.shared("counter", 0i64);
                let m = ctx.mutex("m");
                let (c1, m1) = (counter.clone(), m.clone());
                let (c2, m2) = (counter.clone(), m.clone());
                let t1 = ctx.spawn(move |ctx| async move {
                    m1.lock(&ctx).await;
                    let v = c1.read(&ctx).await;
                    c1.write(&ctx, v + 1).await;
                    m1.unlock(&ctx).await;
                }).await;
                let t2 = ctx.spawn(move |ctx| async move {
                    m2.lock(&ctx).await;
                    let v = c2.read(&ctx).await;
                    c2.write(&ctx, v + 1).await;
                    m2.unlock(&ctx).await;
                }).await;
                ctx.join(t1).await;
                ctx.join(t2).await;
                ctx.check(counter.read(&ctx).await == 2, "serialized increments").await;
            },
            ChessOptions::default(),
        );
        assert!(report.complete);
        assert!(!report.failed(), "failures: {:?}", report.failures);
        assert!(report.schedules > 1, "must explore several interleavings");
    }

    #[test]
    fn atomic_fetch_modify_has_no_lost_update() {
        let report = explore(
            |ctx| async move {
                let counter = ctx.shared("counter", 0i64);
                let c1 = counter.clone();
                let c2 = counter.clone();
                let t1 = ctx.spawn(move |ctx| async move {
                    c1.fetch_modify(&ctx, |v| v + 1).await;
                }).await;
                let t2 = ctx.spawn(move |ctx| async move {
                    c2.fetch_modify(&ctx, |v| v + 1).await;
                }).await;
                ctx.join(t1).await;
                ctx.join(t2).await;
                ctx.check(counter.read(&ctx).await == 2, "atomic increments").await;
            },
            ChessOptions::default(),
        );
        assert!(report.complete);
        // fetch_modify is a single yield point, so there is no lost
        // update; but the two unsynchronized RMWs are still flagged as a
        // race by the happens-before detector (correct: no ordering).
        assert!(!report
            .failures
            .iter()
            .any(|f| matches!(f.kind, FailureKind::CheckFailed(_))));
    }

    #[test]
    fn detects_abba_deadlock() {
        let report = explore(
            |ctx| async move {
                let a = ctx.mutex("a");
                let b = ctx.mutex("b");
                let (a1, b1) = (a.clone(), b.clone());
                let (a2, b2) = (a.clone(), b.clone());
                let t1 = ctx.spawn(move |ctx| async move {
                    a1.lock(&ctx).await;
                    b1.lock(&ctx).await;
                    b1.unlock(&ctx).await;
                    a1.unlock(&ctx).await;
                }).await;
                let t2 = ctx.spawn(move |ctx| async move {
                    b2.lock(&ctx).await;
                    a2.lock(&ctx).await;
                    a2.unlock(&ctx).await;
                    b2.unlock(&ctx).await;
                }).await;
                ctx.join(t1).await;
                ctx.join(t2).await;
            },
            ChessOptions::default(),
        );
        assert!(report
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::Deadlock));
    }

    #[test]
    fn preemption_bound_zero_misses_lost_update_but_bound_one_finds_it() {
        // The lost update needs a preemption between the read and the
        // write; non-preemptive schedules never expose it. This is the
        // iterative-context-bounding story of CHESS.
        let r0 = explore(
            racy_counter,
            ChessOptions { preemption_bound: Some(0), ..ChessOptions::default() },
        );
        assert!(
            !r0.failures
                .iter()
                .any(|f| matches!(f.kind, FailureKind::CheckFailed(_))),
            "bound 0 must not expose the lost update: {:?}",
            r0.failures
        );
        let r1 = explore(
            racy_counter,
            ChessOptions { preemption_bound: Some(1), ..ChessOptions::default() },
        );
        assert!(r1
            .failures
            .iter()
            .any(|f| matches!(f.kind, FailureKind::CheckFailed(_))));
        // And bound 0 is much cheaper.
        assert!(r0.schedules < r1.schedules);
    }

    #[test]
    fn complete_search_reports_full_coverage() {
        let report = explore(racy_counter, ChessOptions::default());
        assert!(report.complete);
        assert_eq!(report.coverage_permille(), 1000);
        assert_eq!(report.frontier_open, 0);
        assert_eq!(report.estimated_total, report.schedules);
    }

    #[test]
    fn truncated_search_reports_partial_coverage_and_open_frontier() {
        let full = explore(racy_counter, ChessOptions::default());
        assert!(full.complete);
        let truncated = explore(
            racy_counter,
            ChessOptions { max_schedules: 3, ..ChessOptions::default() },
        );
        assert!(!truncated.complete);
        assert!(truncated.frontier_open > 0, "a cut-off search leaves open branches");
        assert!(
            truncated.estimated_total > truncated.schedules,
            "estimate must exceed what was run"
        );
        let permille = truncated.coverage_permille();
        assert!(
            permille > 0 && permille < 1000,
            "3 of {} schedules cannot be 0‰ or 1000‰ (got {permille}‰)",
            full.schedules
        );
    }

    #[test]
    fn coverage_grows_with_budget() {
        let small = explore(
            racy_counter,
            ChessOptions { max_schedules: 2, ..ChessOptions::default() },
        );
        let large = explore(
            racy_counter,
            ChessOptions { max_schedules: 12, ..ChessOptions::default() },
        );
        assert!(
            small.coverage_permille() <= large.coverage_permille(),
            "{}‰ !<= {}‰",
            small.coverage_permille(),
            large.coverage_permille()
        );
    }

    #[test]
    fn iterative_bounding_accumulates() {
        let report = explore_iterative(racy_counter, 2, ChessOptions::default());
        assert!(report.failed());
        assert!(report.schedules > 0);
    }

    #[test]
    fn failure_schedules_replay() {
        let report = explore(racy_counter, ChessOptions::default());
        let lost = report
            .failures
            .iter()
            .find(|f| matches!(f.kind, FailureKind::CheckFailed(_)))
            .expect("lost update found");
        let replayed = replay(racy_counter, &lost.schedule, 20_000);
        assert!(
            replayed.iter().any(|f| f.kind == lost.kind),
            "replay must reproduce: {replayed:?}"
        );
    }

    #[test]
    fn replayed_failure_carries_identical_trace_hash() {
        let report = explore(racy_counter, ChessOptions::default());
        let lost = report
            .failures
            .iter()
            .find(|f| matches!(f.kind, FailureKind::CheckFailed(_)))
            .expect("lost update found");
        assert_ne!(lost.trace_hash, 0);
        let replayed = replay(racy_counter, &lost.schedule, 20_000);
        let again = replayed
            .iter()
            .find(|f| f.kind == lost.kind)
            .expect("replay reproduces");
        // Byte-stable: same decision prefix, same hash, same schedule.
        assert_eq!(again.trace_hash, lost.trace_hash);
        assert_eq!(again.schedule, lost.schedule);
    }

    #[test]
    fn panic_in_thread_is_reported() {
        let report = explore(
            |ctx| async move {
                let t = ctx.spawn(|_| async move { panic!("boom") }).await;
                ctx.join(t).await;
            },
            ChessOptions { max_schedules: 10, ..ChessOptions::default() },
        );
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(&f.kind, FailureKind::Panic(m) if m.contains("boom"))));
    }

    #[test]
    fn single_thread_test_has_one_schedule() {
        let report = explore(
            |ctx| async move {
                let x = ctx.shared("x", 1i64);
                let v = x.read(&ctx).await;
                x.write(&ctx, v * 2).await;
                ctx.check(x.read(&ctx).await == 2, "sequential").await;
            },
            ChessOptions::default(),
        );
        assert!(report.complete);
        assert_eq!(report.schedules, 1);
        assert!(!report.failed());
    }

    #[test]
    fn schedule_count_grows_with_interleavings() {
        let small = explore(
            |ctx| async move {
                let t = ctx.spawn(|ctx| async move { ctx.step().await }).await;
                ctx.step().await;
                ctx.join(t).await;
            },
            ChessOptions::default(),
        );
        let big = explore(
            |ctx| async move {
                let t = ctx.spawn(|ctx| async move {
                    ctx.step().await;
                    ctx.step().await;
                    ctx.step().await;
                }).await;
                ctx.step().await;
                ctx.step().await;
                ctx.step().await;
                ctx.join(t).await;
            },
            ChessOptions::default(),
        );
        assert!(big.schedules > small.schedules);
        assert!(big.complete && small.complete);
    }

    #[test]
    fn join_establishes_happens_before() {
        // Parent reads what the child wrote after joining: no race.
        let report = explore(
            |ctx| async move {
                let x = ctx.shared("x", 0i64);
                let xc = x.clone();
                let t = ctx.spawn(move |ctx| async move { xc.write(&ctx, 42).await }).await;
                ctx.join(t).await;
                ctx.check(x.read(&ctx).await == 42, "joined value visible").await;
            },
            ChessOptions::default(),
        );
        assert!(report.complete);
        assert!(!report.failed(), "{:?}", report.failures);
    }

    #[test]
    fn step_limit_guards_against_livelock() {
        let report = explore(
            |ctx| async move {
                // A long but finite loop that exceeds the tiny step limit.
                for _ in 0..1000 {
                    ctx.step().await;
                }
            },
            ChessOptions { max_steps: 100, max_schedules: 2, ..ChessOptions::default() },
        );
        assert!(report
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::StepLimit));
    }

    #[test]
    fn virtual_sleep_is_deterministic_and_instant() {
        // Sleeps ride on the virtual clock: a million-tick sleep costs
        // nothing and two sleepers wake in target order, every run.
        let report = explore(
            |ctx| async move {
                let x = ctx.shared("order", 0i64);
                let (x1, x2) = (x.clone(), x.clone());
                let slow = ctx.spawn(move |ctx| async move {
                    ctx.sleep(1_000_000).await;
                    x1.fetch_modify(&ctx, |v| v * 10 + 2).await;
                }).await;
                let fast = ctx.spawn(move |ctx| async move {
                    ctx.sleep(10).await;
                    x2.fetch_modify(&ctx, |v| v * 10 + 1).await;
                }).await;
                ctx.join(fast).await;
                ctx.join(slow).await;
                ctx.check(x.read(&ctx).await == 12, "fast sleeper wakes first").await;
            },
            ChessOptions::default(),
        );
        assert!(report.complete);
        assert!(
            !report.failures.iter().any(|f| matches!(f.kind, FailureKind::CheckFailed(_))),
            "{:?}",
            report.failures
        );
    }
}

#[cfg(test)]
mod channel_tests {
    use super::*;
    use crate::sched::FailureKind;

    #[test]
    fn channel_handoff_is_race_free() {
        // Producer writes a cell, sends a token; consumer receives then
        // reads the cell: the channel edge orders the accesses.
        let report = explore(
            |ctx| async move {
                let x = ctx.shared("x", 0i64);
                let ch = ctx.channel::<i64>("buf");
                let (xp, chp) = (x.clone(), ch.clone());
                let producer = ctx.spawn(move |ctx| async move {
                    xp.write(&ctx, 7).await;
                    chp.send(&ctx, 1).await;
                }).await;
                let (xc, chc) = (x.clone(), ch.clone());
                let consumer = ctx.spawn(move |ctx| async move {
                    let _token = chc.recv(&ctx).await;
                    let v = xc.read(&ctx).await;
                    ctx.check(v == 7, "value visible after handoff").await;
                }).await;
                ctx.join(producer).await;
                ctx.join(consumer).await;
            },
            ChessOptions::default(),
        );
        assert!(report.complete);
        assert!(!report.failed(), "{:?}", report.failures);
    }

    #[test]
    fn unordered_access_despite_channel_still_races() {
        // Consumer reads the cell BEFORE receiving: race must be found.
        let report = explore(
            |ctx| async move {
                let x = ctx.shared("x", 0i64);
                let ch = ctx.channel::<i64>("buf");
                let (xp, chp) = (x.clone(), ch.clone());
                let producer = ctx.spawn(move |ctx| async move {
                    xp.write(&ctx, 7).await;
                    chp.send(&ctx, 1).await;
                }).await;
                let (xc, chc) = (x.clone(), ch.clone());
                let consumer = ctx.spawn(move |ctx| async move {
                    let _early = xc.read(&ctx).await; // unsynchronized
                    let _token = chc.recv(&ctx).await;
                }).await;
                ctx.join(producer).await;
                ctx.join(consumer).await;
            },
            ChessOptions::default(),
        );
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(f.kind, FailureKind::Race { .. })));
    }

    #[test]
    fn fifo_order_preserved() {
        let report = explore(
            |ctx| async move {
                let ch = ctx.channel::<i64>("buf");
                let chp = ch.clone();
                let producer = ctx.spawn(move |ctx| async move {
                    for i in 0..3 {
                        chp.send(&ctx, i).await;
                    }
                }).await;
                let a = ch.recv(&ctx).await;
                let b = ch.recv(&ctx).await;
                let c = ch.recv(&ctx).await;
                ctx.check(a == 0 && b == 1 && c == 2, "FIFO").await;
                ctx.join(producer).await;
            },
            ChessOptions { max_schedules: 2_000, ..ChessOptions::default() },
        );
        assert!(!report.failed(), "{:?}", report.failures);
    }

    #[test]
    fn recv_on_never_filled_channel_deadlocks() {
        let report = explore(
            |ctx| async move {
                let ch = ctx.channel::<i64>("buf");
                let _ = ch.recv(&ctx).await;
            },
            ChessOptions { max_schedules: 10, ..ChessOptions::default() },
        );
        assert!(report
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::Deadlock));
    }
}

#[cfg(test)]
mod random_tests {
    use super::*;
    use crate::sched::FailureKind;

    async fn racy(ctx: ThreadCtx) {
        let x = ctx.shared("x", 0i64);
        let xc = x.clone();
        let t = ctx.spawn(move |ctx| async move {
            let v = xc.read(&ctx).await;
            xc.write(&ctx, v + 1).await;
        }).await;
        let v = x.read(&ctx).await;
        x.write(&ctx, v + 1).await;
        ctx.join(t).await;
    }

    #[test]
    fn random_exploration_finds_shallow_races() {
        let report = explore_random(racy, 40, 7, ChessOptions::default());
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(f.kind, FailureKind::Race { .. })));
        assert_eq!(report.schedules, 40);
    }

    #[test]
    fn random_exploration_is_deterministic_per_seed() {
        let a = explore_random(racy, 10, 3, ChessOptions::default());
        let b = explore_random(racy, 10, 3, ChessOptions::default());
        assert_eq!(a.failures.len(), b.failures.len());
        assert_eq!(a.total_steps, b.total_steps);
    }

    #[test]
    fn stop_on_first_failure_stops_early() {
        let report = explore_random(
            racy,
            1000,
            1,
            ChessOptions { stop_on_first_failure: true, ..ChessOptions::default() },
        );
        assert!(report.failed());
        assert!(report.schedules < 1000);
    }
}
