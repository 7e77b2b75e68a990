//! The known-bug micro-corpus.
//!
//! Small programs with seeded concurrency bugs (plus one clean pipeline
//! carrying fault points) that the explorer **must** find. They serve
//! three masters: `tests/known_bugs.rs` asserts each bug is found and
//! replays byte-stably; the DPOR-vs-DFS differential test asserts
//! identical failure sets with strictly fewer DPOR schedules; and the CI
//! chess guard (`crates/bench/src/bin/chess_bench.rs`) drives the joint
//! schedule×fault explorer over the corpus with asserted budgets.

use crate::explore::Report;
use crate::sched::{FailureKind, FaultScenario, Inject, InjectKind, TaskFuture, ThreadCtx};

/// Failure kind expectations, ignoring payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpectedKind {
    Race,
    Deadlock,
    Panic,
    CheckFailed,
}

impl ExpectedKind {
    pub fn matches(&self, kind: &FailureKind) -> bool {
        matches!(
            (self, kind),
            (ExpectedKind::Race, FailureKind::Race { .. })
                | (ExpectedKind::Deadlock, FailureKind::Deadlock)
                | (ExpectedKind::Panic, FailureKind::Panic(_))
                | (ExpectedKind::CheckFailed, FailureKind::CheckFailed(_))
        )
    }
}

/// One corpus entry.
pub struct CorpusEntry {
    pub name: &'static str,
    pub test: fn(ThreadCtx) -> TaskFuture,
    /// Failure kinds exploration must report (fault-free).
    pub expected: &'static [ExpectedKind],
    /// Fault point labels the entry carries (drives scenario generation).
    pub fault_labels: &'static [&'static str],
}

impl CorpusEntry {
    /// Does `report` contain every expected kind and nothing else?
    pub fn satisfied_by(&self, report: &Report) -> bool {
        self.expected
            .iter()
            .all(|e| report.failures.iter().any(|f| e.matches(&f.kind)))
            && report
                .failures
                .iter()
                .all(|f| self.expected.iter().any(|e| e.matches(&f.kind)))
    }
}

/// Seeded data race: two unsynchronized read-increment-write threads
/// lose an update on some interleavings.
async fn lost_update(ctx: ThreadCtx) {
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

/// Classic ABBA deadlock: opposite lock acquisition order.
async fn abba_deadlock(ctx: ThreadCtx) {
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
}

/// Channel-order violation: two producers race to a shared FIFO, but the
/// consumer assumes producer 1's message arrives first.
async fn channel_order(ctx: ThreadCtx) {
    let ch = ctx.channel::<i64>("merge");
    let (c1, c2) = (ch.clone(), ch.clone());
    let t1 = ctx.spawn(move |ctx| async move { c1.send(&ctx, 1).await }).await;
    let t2 = ctx.spawn(move |ctx| async move { c2.send(&ctx, 2).await }).await;
    let first = ch.recv(&ctx).await;
    let second = ch.recv(&ctx).await;
    ctx.check(first == 1 && second == 2, "producer 1 must arrive first").await;
    ctx.join(t1).await;
    ctx.join(t2).await;
}

/// Panic mid-drain: the producer dies after two of three items; the
/// consumer starves on the third receive — a panic *and* the deadlock it
/// causes downstream.
async fn panic_mid_drain(ctx: ThreadCtx) {
    let ch = ctx.channel::<i64>("drain");
    let chp = ch.clone();
    let producer = ctx.spawn(move |ctx| async move {
        chp.send(&ctx, 10).await;
        chp.send(&ctx, 20).await;
        panic!("producer died mid-drain");
    }).await;
    let chc = ch.clone();
    let consumer = ctx.spawn(move |ctx| async move {
        for _ in 0..3 {
            let _ = chc.recv(&ctx).await;
        }
    }).await;
    ctx.join(producer).await;
    ctx.join(consumer).await;
}

/// A clean two-stage pipeline carrying fault points at both stages: the
/// fault-free exploration must be silent, and every fault-scenario
/// failure must be fault-induced. A `Drop` at stage A forwards a
/// tombstone so the stream stays drainable.
async fn clean_pipeline(ctx: ThreadCtx) {
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

/// The full micro-corpus.
pub fn corpus() -> Vec<CorpusEntry> {
    vec![
        CorpusEntry {
            name: "lost_update",
            test: |ctx| Box::pin(lost_update(ctx)),
            expected: &[ExpectedKind::Race, ExpectedKind::CheckFailed],
            fault_labels: &[],
        },
        CorpusEntry {
            name: "abba_deadlock",
            test: |ctx| Box::pin(abba_deadlock(ctx)),
            expected: &[ExpectedKind::Deadlock],
            fault_labels: &[],
        },
        CorpusEntry {
            name: "channel_order",
            test: |ctx| Box::pin(channel_order(ctx)),
            expected: &[ExpectedKind::CheckFailed],
            fault_labels: &[],
        },
        CorpusEntry {
            name: "panic_mid_drain",
            test: |ctx| Box::pin(panic_mid_drain(ctx)),
            expected: &[ExpectedKind::Panic, ExpectedKind::Deadlock],
            fault_labels: &[],
        },
        CorpusEntry {
            name: "clean_pipeline",
            test: |ctx| Box::pin(clean_pipeline(ctx)),
            expected: &[],
            fault_labels: &["stage_a", "stage_b"],
        },
    ]
}

/// The scenario matrix for one entry: no-fault plus, for every label,
/// every injection kind at the first two call positions.
pub fn scenarios_for(entry: &CorpusEntry) -> Vec<FaultScenario> {
    let mut scenarios = vec![FaultScenario::none()];
    for label in entry.fault_labels {
        for nth in 0..2 {
            for kind in [InjectKind::Panic, InjectKind::DelayTicks(50), InjectKind::DropItem] {
                scenarios.push(FaultScenario::one(*label, nth, kind));
            }
        }
    }
    scenarios
}
