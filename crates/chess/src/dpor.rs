//! Dynamic partial-order reduction (DPOR) with sleep sets.
//!
//! DFS enumerates *interleavings*; DPOR enumerates *Mazurkiewicz traces*
//! — equivalence classes of interleavings that differ only in the order
//! of independent (commuting) operations. Following Flanagan–Godefroid,
//! each run is analyzed after the fact: for every executed operation we
//! find the most recent operation of another task that is *dependent*
//! and not already ordered by happens-before (the scheduler's vector
//! clocks), and add a *backtrack point* at that earlier decision so the
//! reversed order is explored too. *Sleep sets* prune runs that would
//! only replay an already-explored commutation.
//!
//! Dependent pairs: a cell access with a write to the same cell; lock and
//! unlock ops on the same mutex; fault points with the same label; and on
//! one channel, every pair of sends, of dequeuing receives, and of a
//! blocked receive attempt with either. The dependence is conditional on
//! the queue: a send and a receive that dequeued commute, because that
//! receive ran on a non-empty FIFO (`dependent` gives the argument).
//!
//! One deliberate strengthening: two `lock` acquisitions of the same
//! mutex are **always** treated as racing, even though the loser's clock
//! is ordered after the winner's unlock — acquisition *order* is exactly
//! the thing lock clocks cannot capture, and reversing it is how the
//! ABBA deadlock is discovered.
//!
//! The preemption-bounded DFS ([`crate::explore`]) stays as the
//! differential oracle: on the known-bug corpus both must report the
//! identical failure set, with DPOR running strictly fewer schedules
//! (asserted in `tests/known_bugs.rs` and the chess bench guard).

use crate::explore::{ChessOptions, Report};
use crate::sched::{
    run_schedule, scenario_seed, FaultScenario, OpKey, Policy, StepInfo, ThreadCtx,
};
use std::collections::BTreeSet;
use std::future::Future;
use std::rc::Rc;

/// Are two operations dependent (order-sensitive)?
///
/// On one channel, two sends (FIFO order) and two dequeuing receives
/// (which receiver wins) are dependent, and so is a blocked receive
/// attempt with a send (the send enables it) or with a dequeuing
/// receive (which can empty the channel under it). A send and a
/// dequeuing receive are independent:
/// - a receive that consumed this send's message joined its clock, so
///   the pair is happens-before ordered and never reversed anyway;
/// - a receive that consumed an earlier message ran on a non-empty
///   queue, where push-back and pop-front commute and the receiver
///   joins the same sender clock in either order;
/// - a send never disables a receive.
fn dependent(a: OpKey, b: OpKey) -> bool {
    use OpKey::*;
    match (a, b) {
        (Read(x), Write(y)) | (Write(x), Read(y)) | (Write(x), Write(y)) => x == y,
        (Lock(x), Lock(y)) | (Lock(x), Unlock(y)) | (Unlock(x), Lock(y)) => x == y,
        (Send(x), Send(y))
        | (Recv(x), Recv(y))
        | (Send(x), RecvWait(y))
        | (RecvWait(x), Send(y))
        | (Recv(x), RecvWait(y))
        | (RecvWait(x), Recv(y)) => x == y,
        (Fault(x), Fault(y)) => x == y,
        _ => false,
    }
}

/// One decision point along the committed path prefix.
struct Node {
    /// The runnable set at this point (replay-deterministic).
    enabled: Vec<usize>,
    /// The branch the next run takes.
    chosen: usize,
    /// Branches whose subtrees are fully explored.
    done: BTreeSet<usize>,
    /// Branches that must be explored (filled by race analysis).
    backtrack: BTreeSet<usize>,
    /// `(tid, op)` of each done sibling — seeds the sleep set when the
    /// node is revisited.
    sleep_ops: Vec<(usize, Option<OpKey>)>,
}

struct DporPolicy {
    nodes: Vec<Node>,
    /// Length of the committed prefix (`nodes.len()` at run start).
    path_len: usize,
    /// The run-side sleep set: `(tid, op-it-performed-when-explored)`.
    sleep: Vec<(usize, Option<OpKey>)>,
    /// Set when every enabled task was asleep: the rest of this run is
    /// known-redundant, so no further nodes are created.
    pruned: bool,
    /// Preferred decision sequence for fresh (uncommitted) steps — a
    /// seed schedule from [`ChessOptions::seed_schedules`]. Entries that
    /// are stale (not runnable) or asleep fall back to the default
    /// choice, so an out-of-date seed degrades to a normal run.
    seed: Vec<usize>,
}

impl Policy for DporPolicy {
    fn choose(&mut self, step: usize, runnable: &[usize], _last: Option<usize>) -> usize {
        if step < self.path_len {
            let node = &self.nodes[step];
            debug_assert_eq!(
                node.enabled, runnable,
                "nondeterministic test: runnable set diverged on replay"
            );
            for entry in &node.sleep_ops {
                self.sleep.push(*entry);
            }
            return node.chosen;
        }
        if self.pruned {
            return runnable[0];
        }
        let asleep = |t: usize| self.sleep.iter().any(|(s, _)| *s == t);
        let fresh = self
            .seed
            .get(step)
            .copied()
            .filter(|&t| runnable.contains(&t) && !asleep(t))
            .or_else(|| runnable.iter().copied().find(|&t| !asleep(t)));
        match fresh {
            None => {
                self.pruned = true;
                runnable[0]
            }
            Some(t) => {
                self.nodes.push(Node {
                    enabled: runnable.to_vec(),
                    chosen: t,
                    done: BTreeSet::new(),
                    backtrack: BTreeSet::new(),
                    sleep_ops: Vec::new(),
                });
                t
            }
        }
    }

    fn observe_step(&mut self, info: &StepInfo) {
        // A sleeping task wakes when the executed op is dependent with
        // the op it performed when its branch was explored (or when it is
        // itself scheduled — its position in the trace moved).
        self.sleep.retain(|(t, op)| {
            if *t == info.tid {
                return false;
            }
            match (op, &info.op) {
                (Some(a), Some(b)) => !dependent(*a, *b),
                _ => true,
            }
        });
    }
}

/// Post-run race analysis: add backtrack points that reverse every pair
/// of dependent, happens-before-unordered operations.
///
/// A failed check ends the run, so every other task enabled there never
/// reveals its next op; the abort disables that op and so races with it.
/// Each such task is therefore also tried at the failing check's node.
fn apply_backtracks(infos: &[StepInfo], nodes: &mut [Node]) {
    for i in 0..infos.len() {
        let Some(op_i) = infos[i].op else { continue };
        let tid_i = infos[i].tid;
        if op_i == OpKey::CheckFailed {
            if let Some(node) = nodes.get_mut(i) {
                node.backtrack.extend(node.enabled.iter().copied());
            }
        }
        let jmax = i.min(nodes.len());
        let mut found = None;
        for j in (0..jmax).rev() {
            let Some(op_j) = infos[j].op else { continue };
            if infos[j].tid == tid_i || !dependent(op_j, op_i) {
                continue;
            }
            let lock_lock = matches!((op_j, op_i), (OpKey::Lock(a), OpKey::Lock(b)) if a == b);
            if lock_lock || !infos[j].clock.le(&infos[i].clock) {
                found = Some(j);
                break;
            }
        }
        if let Some(j) = found {
            let node = &mut nodes[j];
            if node.enabled.contains(&tid_i) {
                node.backtrack.insert(tid_i);
            } else {
                // The racing task was not yet enabled at j: conservatively
                // try every branch there.
                for &e in &node.enabled {
                    node.backtrack.insert(e);
                }
            }
        }
    }
}

/// Frontier accounting at DPOR exit. Open branches are backtrack points
/// not yet done and not currently in flight; the size estimate is the
/// product, along the committed path, of the branches DPOR has decided
/// are needed at each node (`backtrack ∪ done ∪ {chosen}`) — the
/// DPOR-*reduced* space, not the raw interleaving count.
fn close_dpor_frontier(report: &mut Report, nodes: &[Node]) {
    let open: u64 = nodes
        .iter()
        .map(|n| {
            n.backtrack
                .iter()
                .filter(|t| !n.done.contains(t) && **t != n.chosen)
                .count() as u64
        })
        .sum();
    report.close_frontier(
        open,
        nodes.iter().map(|n| {
            let mut needed = n.backtrack.clone();
            needed.extend(n.done.iter().copied());
            needed.insert(n.chosen);
            needed.len() as u64
        }),
    );
}

/// Explore `test` with dynamic partial-order reduction.
pub fn explore_dpor<F, Fut>(test: F, options: ChessOptions) -> Report
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    explore_dpor_scenario(&Rc::new(test), &FaultScenario::none(), &options)
}

/// Backtrack after a run: close out the deepest explored branch and
/// switch to the next pending backtrack point, popping exhausted nodes.
/// Returns `false` when the root pops — nothing is left to reverse, so
/// the (reduced) space is exhausted.
fn advance(nodes: &mut Vec<Node>, step_infos: &[StepInfo]) -> bool {
    loop {
        let depth = match nodes.len().checked_sub(1) {
            None => return false,
            Some(d) => d,
        };
        let op = step_infos.get(depth).and_then(|s| s.op);
        let top = &mut nodes[depth];
        top.done.insert(top.chosen);
        top.sleep_ops.push((top.chosen, op));
        match top.backtrack.iter().copied().find(|t| !top.done.contains(t)) {
            Some(q) => {
                top.chosen = q;
                return true;
            }
            None => {
                nodes.pop();
            }
        }
    }
}

/// DPOR exploration under a fixed fault scenario.
pub(crate) fn explore_dpor_scenario<F, Fut>(
    test: &Rc<F>,
    scenario: &FaultScenario,
    options: &ChessOptions,
) -> Report
where
    F: Fn(ThreadCtx) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    let hash_seed = scenario_seed(scenario);
    let mut nodes: Vec<Node> = Vec::new();
    let mut report = Report::default();
    // Seed pass: run each known-bad schedule first, fully instrumented,
    // so a regressed bug fails on schedule 1 and the seed path's races
    // feed the backtrack frontier immediately. DPOR is complete from
    // *any* initial path, so adopting the last seed's path as the
    // committed prefix (earlier seeds contribute only their failures)
    // keeps the search sound and exhaustive.
    for seed in &options.seed_schedules {
        let mut policy = DporPolicy {
            path_len: 0,
            nodes: Vec::new(),
            sleep: Vec::new(),
            pruned: false,
            seed: seed.clone(),
        };
        let run = run_schedule(test, &mut policy, options.max_steps, scenario, hash_seed);
        nodes = policy.nodes;
        report.absorb_run(run.failures, run.steps);
        apply_backtracks(&run.step_infos, &mut nodes);
        if (options.stop_on_first_failure && report.failed())
            || report.schedules >= options.max_schedules
        {
            close_dpor_frontier(&mut report, &nodes);
            return report;
        }
        if !advance(&mut nodes, &run.step_infos) {
            report.complete = true;
            close_dpor_frontier(&mut report, &nodes);
            return report;
        }
    }
    loop {
        let mut policy = DporPolicy {
            path_len: nodes.len(),
            nodes: std::mem::take(&mut nodes),
            sleep: Vec::new(),
            pruned: false,
            seed: Vec::new(),
        };
        let run = run_schedule(test, &mut policy, options.max_steps, scenario, hash_seed);
        nodes = policy.nodes;
        report.absorb_run(run.failures, run.steps);
        // Race analysis before the exit checks, so a truncated search's
        // frontier still reflects the last run's backtrack points.
        apply_backtracks(&run.step_infos, &mut nodes);
        if options.stop_on_first_failure && report.failed() {
            close_dpor_frontier(&mut report, &nodes);
            return report;
        }
        if report.schedules >= options.max_schedules {
            close_dpor_frontier(&mut report, &nodes);
            return report;
        }
        if !advance(&mut nodes, &run.step_infos) {
            report.complete = true;
            close_dpor_frontier(&mut report, &nodes);
            return report;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, SearchMode};
    use crate::sched::FailureKind;

    fn kinds(report: &Report) -> BTreeSet<FailureKind> {
        report.failures.iter().map(|f| f.kind.clone()).collect()
    }

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
    fn dpor_finds_lost_update_with_fewer_schedules() {
        let dfs = explore(racy_counter, ChessOptions::default());
        let dpor = explore_dpor(racy_counter, ChessOptions::default());
        assert!(dfs.complete && dpor.complete);
        assert_eq!(kinds(&dfs), kinds(&dpor));
        assert!(
            dpor.schedules < dfs.schedules,
            "dpor {} !< dfs {}",
            dpor.schedules,
            dfs.schedules
        );
    }

    #[test]
    fn dpor_finds_abba_deadlock() {
        let report = explore_dpor(
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
        assert!(report.failures.iter().any(|f| f.kind == FailureKind::Deadlock));
    }

    #[test]
    fn dpor_on_independent_threads_runs_one_schedule() {
        // Two tasks touching disjoint cells commute completely: DPOR
        // must collapse the whole interleaving space to a single trace.
        let report = explore_dpor(
            |ctx| async move {
                let x = ctx.shared("x", 0i64);
                let y = ctx.shared("y", 0i64);
                let (xc, yc) = (x.clone(), y.clone());
                let t1 = ctx.spawn(move |ctx| async move {
                    let v = xc.read(&ctx).await;
                    xc.write(&ctx, v + 1).await;
                }).await;
                let t2 = ctx.spawn(move |ctx| async move {
                    let v = yc.read(&ctx).await;
                    yc.write(&ctx, v + 1).await;
                }).await;
                ctx.join(t1).await;
                ctx.join(t2).await;
            },
            ChessOptions::default(),
        );
        assert!(report.complete);
        assert!(!report.failed(), "{:?}", report.failures);
        assert_eq!(report.schedules, 1, "independent ops must not be reversed");
    }

    #[test]
    fn a_cell_free_producer_consumer_runs_one_schedule() {
        // The producer is spawned first, so the consumer never finds the
        // channel empty: every receive dequeues, and a send commutes with
        // a receive that dequeued.
        let report = explore_dpor(
            |ctx| async move {
                let ch = ctx.channel::<i64>("ch");
                let tx = ch.clone();
                let producer = ctx.spawn(move |ctx| async move {
                    for v in 0..3 {
                        tx.send(&ctx, v).await;
                    }
                }).await;
                let consumer = ctx.spawn(move |ctx| async move {
                    for v in 0..3 {
                        let got = ch.recv(&ctx).await;
                        ctx.check(got == v, "FIFO order").await;
                    }
                }).await;
                ctx.join(producer).await;
                ctx.join(consumer).await;
            },
            ChessOptions::default(),
        );
        assert!(report.complete);
        assert!(!report.failed(), "{:?}", report.failures);
        assert_eq!(report.schedules, 1, "send/receive pairs must not be reversed");
    }

    #[test]
    fn consumers_contending_for_a_message_explore_both_winners() {
        // Two consumers take one message each; which of them dequeues the
        // first one is a receive/receive race that must be reversed.
        let search = |mode: SearchMode| {
            let winners = Rc::new(std::cell::RefCell::new(BTreeSet::new()));
            let seen = winners.clone();
            let report = explore(
                move |ctx| {
                    let seen = seen.clone();
                    async move {
                        let ch = ctx.channel::<i64>("ch");
                        let tx = ch.clone();
                        let mut tasks = vec![ctx.spawn(move |ctx| async move {
                            tx.send(&ctx, 0).await;
                            tx.send(&ctx, 1).await;
                        }).await];
                        for _ in 0..2 {
                            let (rx, seen) = (ch.clone(), seen.clone());
                            tasks.push(ctx.spawn(move |ctx| async move {
                                if rx.recv(&ctx).await == 0 {
                                    seen.borrow_mut().insert(ctx.tid());
                                }
                            }).await);
                        }
                        for t in tasks {
                            ctx.join(t).await;
                        }
                    }
                },
                ChessOptions { mode, ..ChessOptions::default() },
            );
            let winners = winners.borrow().clone();
            (report, winners)
        };
        let (dpor, dpor_winners) = search(SearchMode::Dpor);
        let (dfs, dfs_winners) = search(SearchMode::Dfs);
        assert!(dpor.complete && dfs.complete);
        assert_eq!(dpor_winners, BTreeSet::from([2, 3]), "both consumers win in some schedule");
        assert_eq!(dpor_winners, dfs_winners);
        assert_eq!(kinds(&dpor), kinds(&dfs));
        assert!(dpor.schedules < dfs.schedules, "{} !< {}", dpor.schedules, dfs.schedules);
    }

    #[test]
    fn dpor_coverage_tracks_the_reduced_space() {
        let full = explore_dpor(racy_counter, ChessOptions::default());
        assert!(full.complete);
        assert_eq!(full.coverage_permille(), 1000);
        assert_eq!(full.estimated_total, full.schedules);
        let truncated = explore_dpor(
            racy_counter,
            ChessOptions { max_schedules: 2, ..ChessOptions::default() },
        );
        assert!(!truncated.complete);
        let permille = truncated.coverage_permille();
        assert!(permille < 1000, "a truncated search never claims exhaustion");
        assert!(
            truncated.estimated_total <= full.estimated_total.max(full.schedules) * 4,
            "the DPOR estimate tracks the reduced space, not the raw \
             interleaving count ({} vs {} actual traces)",
            truncated.estimated_total,
            full.schedules
        );
    }

    #[test]
    fn seeded_search_hits_known_failure_on_first_schedule() {
        // Harvest the failure witnesses of one full search, then hand
        // them back as seeds: the known bug must now fall out of the
        // very first schedule instead of being rediscovered.
        let first = explore_dpor(racy_counter, ChessOptions::default());
        let seeds = first.failure_schedules();
        assert!(!seeds.is_empty());
        let reseeded = explore_dpor(
            racy_counter,
            ChessOptions {
                seed_schedules: seeds,
                stop_on_first_failure: true,
                ..ChessOptions::default()
            },
        );
        assert_eq!(reseeded.schedules, 1, "seed must replay the bug immediately");
        // The early stop reports the first seed's bug; whatever it found
        // must be one of the harvested failures.
        assert!(reseeded.failed());
        assert!(kinds(&reseeded).is_subset(&kinds(&first)), "{:?}", reseeded.failures);
    }

    #[test]
    fn seeded_search_stays_complete_and_matches_the_oracle() {
        // With the budget left open, seeding only reorders exploration:
        // the search still exhausts the reduced space and reports the
        // same failure set as the unseeded run and the DFS oracle.
        let first = explore_dpor(racy_counter, ChessOptions::default());
        let seeded = explore_dpor(
            racy_counter,
            ChessOptions {
                seed_schedules: first.failure_schedules(),
                ..ChessOptions::default()
            },
        );
        let dfs = explore(racy_counter, ChessOptions::default());
        assert!(seeded.complete);
        assert_eq!(kinds(&seeded), kinds(&first));
        assert_eq!(kinds(&seeded), kinds(&dfs));
    }

    #[test]
    fn stale_seeds_degrade_to_a_normal_search() {
        // Decision entries that name never-runnable tids (the test
        // changed since the seed was recorded) fall back to the default
        // choice step by step — no panic, no lost failures.
        let stale = vec![vec![7, 7, 7, 7, 7, 7, 7, 7], vec![99]];
        let report = explore_dpor(
            racy_counter,
            ChessOptions { seed_schedules: stale, ..ChessOptions::default() },
        );
        assert!(report.complete);
        assert_eq!(kinds(&report), kinds(&explore_dpor(racy_counter, ChessOptions::default())));
    }

    #[test]
    fn search_mode_dispatch_routes_to_dpor() {
        let via_mode = explore(
            racy_counter,
            ChessOptions { mode: SearchMode::Dpor, ..ChessOptions::default() },
        );
        let direct = explore_dpor(racy_counter, ChessOptions::default());
        assert_eq!(via_mode.schedules, direct.schedules);
        assert_eq!(kinds(&via_mode), kinds(&direct));
    }
}
