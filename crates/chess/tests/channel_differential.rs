//! DPOR ≡ DFS on random channel programs.
//!
//! DPOR treats a send and a receive that dequeued as independent, and
//! keeps a blocked receive attempt dependent on both. This differential
//! holds that relation to the DFS oracle: on every generated program both
//! searches must exhaust their space and report the same failure kinds —
//! a failed check on the order `main` received its values, races on the
//! cells, and deadlocks when the consumers want more than was sent.

use patty_chess::{
    explore, explore_dpor, CChannel, ChessOptions, FailureKind, Report, Shared, ThreadCtx,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::rc::Rc;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// A producer sends on the channel; a consumer receives from it.
    Chan(usize),
    Read(usize),
    Write(usize),
}

/// Producers and consumers, each a list of ops, over `channels` channels
/// and two cells. The first consumer is `main` itself; a second one is a
/// spawned task that competes with it for messages.
#[derive(Clone, Debug)]
struct Program {
    channels: usize,
    producers: Vec<Vec<Op>>,
    consumers: Vec<Vec<Op>>,
}

impl Program {
    /// Scheduling decisions in one run: every op, one spawn per task
    /// besides `main`, and the final check (blocked receive attempts come
    /// on top).
    fn decisions(&self) -> usize {
        let ops: usize = self.producers.iter().chain(&self.consumers).map(Vec::len).sum();
        ops + self.producers.len() + self.consumers.len()
    }
}

/// At most 12 decisions per run keeps the unreduced DFS oracle within its
/// 50 000-schedule budget.
const MAX_DECISIONS: usize = 12;

fn arb_task() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        4 => (0..2usize).prop_map(Op::Chan),
        1 => (0..2usize).prop_map(Op::Read),
        1 => (0..2usize).prop_map(Op::Write),
    ];
    proptest::collection::vec(op, 1..=3)
}

fn arb_program() -> impl Strategy<Value = Program> {
    let tasks = |n| proptest::collection::vec(arb_task(), n);
    (1..=2usize, tasks(1..=3), tasks(1..=2))
        .prop_map(|(channels, mut producers, mut consumers)| {
            for op in producers.iter_mut().chain(&mut consumers).flatten() {
                if let Op::Chan(c) = op {
                    *c %= channels;
                }
            }
            Program { channels, producers, consumers }
        })
        .prop_filter("small enough for exhaustive DFS", |p| p.decisions() <= MAX_DECISIONS)
}

/// Run a consumer's ops; returns the values it received, in order.
async fn consume(
    ctx: &ThreadCtx,
    ops: &[Op],
    chans: &[CChannel<i64>],
    cells: &[Shared<i64>],
) -> Vec<i64> {
    let mut received = Vec::new();
    for &op in ops {
        match op {
            Op::Chan(c) => received.push(chans[c].recv(ctx).await),
            Op::Read(i) => drop(cells[i].read(ctx).await),
            Op::Write(i) => cells[i].write(ctx, -1).await,
        }
    }
    received
}

async fn run(ctx: ThreadCtx, program: Rc<Program>) {
    let chans: Vec<_> =
        (0..program.channels).map(|c| ctx.channel::<i64>(&format!("ch{c}"))).collect();
    let cells: Vec<_> = (0..2).map(|i| ctx.shared(&format!("x{i}"), 0i64)).collect();
    for (p, ops) in program.producers.iter().cloned().enumerate() {
        let (chans, cells) = (chans.clone(), cells.clone());
        ctx.spawn(move |ctx| async move {
            let mut sent = 0;
            for op in ops {
                match op {
                    Op::Chan(c) => {
                        chans[c].send(&ctx, (10 * p + sent) as i64).await;
                        sent += 1;
                    }
                    Op::Read(i) => drop(cells[i].read(&ctx).await),
                    Op::Write(i) => cells[i].write(&ctx, p as i64).await,
                }
            }
        })
        .await;
    }
    if let Some(ops) = program.consumers.get(1).cloned() {
        let (chans, cells) = (chans.clone(), cells.clone());
        ctx.spawn(move |ctx| async move {
            consume(&ctx, &ops, &chans, &cells).await;
        })
        .await;
    }
    let received = consume(&ctx, &program.consumers[0], &chans, &cells).await;
    ctx.check(received.windows(2).all(|w| w[0] <= w[1]), "values arrive in order").await;
}

fn search(program: &Program, dpor: bool) -> Report {
    let program = Rc::new(program.clone());
    let test = move |ctx| run(ctx, program.clone());
    let options = ChessOptions { max_schedules: 50_000, ..ChessOptions::default() };
    if dpor {
        explore_dpor(test, options)
    } else {
        explore(test, options)
    }
}

fn kinds(report: &Report) -> BTreeSet<FailureKind> {
    report.failures.iter().map(|f| f.kind.clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn dpor_and_dfs_report_the_same_failure_kinds(program in arb_program()) {
        let dfs = search(&program, false);
        let dpor = search(&program, true);
        prop_assert!(dfs.complete && dpor.complete, "both searches exhaust: {:?}", program);
        prop_assert_eq!(kinds(&dfs), kinds(&dpor), "{:?}", program);
    }
}
