//! Parallel unit test generation.
//!
//! "As we employ optimistic analyses, we cannot guarantee correct
//! semantics in the parallelized version. To assist engineers in locating
//! potential parallel errors like data races, we automatically generate
//! parallel unit tests for each tunable parallel pattern … All unit tests
//! are then executed on the dynamic data race detector CHESS."
//! (Section 2.1)
//!
//! A generated test replays the *observed* memory behaviour of a detected
//! pattern under the pattern's parallel discipline: one controlled thread
//! per stage (replicated stages get one thread per replica), channels as
//! the pipeline buffers (each handoff a happens-before edge), and one
//! shared cell per dynamically observed non-private location. If the
//! optimistic detection split two statements that actually share state,
//! the CHESS exploration finds the race; if it was right, every
//! interleaving is clean.

use patty_analysis::SemanticModel;
use patty_chess::{
    explore, explore_joint, replay_hash, ChessOptions, FaultScenario, Inject, JointReport,
    ReplayOutcome, Report, TaskFuture, ThreadCtx,
};
use patty_minilang::profile::{AccessKind, DynLoc};
use patty_minilang::span::NodeId;
use patty_patterns::PatternInstance;
use patty_tadl::PatternKind;
use patty_transform::expr_levels;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

/// One memory operation of a stage on one stream element.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Op {
    /// Cell name (derived from the dynamic location).
    pub cell: String,
    pub kind: AccessKind,
}

/// The per-element operation script of one stage.
#[derive(Clone, Debug, Default)]
pub struct StagePlan {
    pub name: String,
    /// `ops[e]` = operations while processing element `e`.
    pub ops: Vec<Vec<Op>>,
    /// Number of concurrent replicas to model (1 = plain stage).
    pub replicas: usize,
}

/// A generated parallel unit test.
#[derive(Clone, Debug)]
pub struct ParallelUnitTest {
    pub name: String,
    pub kind: PatternKind,
    /// Stages in TADL-expression order.
    pub stages: Vec<StagePlan>,
    /// Stage indices per pipeline level (levels run `=>`-sequenced per
    /// element; stages within a level run `||`).
    pub levels: Vec<Vec<usize>>,
    /// Stream elements modeled.
    pub elements: usize,
    /// All cell names.
    pub cells: BTreeSet<String>,
}

/// Render a dynamic location as a cell name. Returns `None` for locations
/// the transformation privatizes (iteration-local values travel in the
/// stream-element buffers; reduction variables get per-worker
/// accumulators).
fn cell_name(
    loc: &DynLoc,
    iteration_locals: &BTreeSet<String>,
    reductions: &[String],
) -> Option<String> {
    match loc {
        DynLoc::Local(frame, name) => {
            if iteration_locals.contains(name.as_ref() as &str)
                || reductions.iter().any(|r| r.as_str() == name.as_ref())
            {
                None
            } else {
                Some(format!("local:{frame}:{name}"))
            }
        }
        DynLoc::Field(obj, field) => Some(format!("obj{obj}.{field}")),
        DynLoc::Elem(list, idx) => Some(format!("list{list}[{idx}]")),
        DynLoc::ListStruct(list) => Some(format!("list{list}.len")),
    }
}

/// Generate the parallel unit test for a detected pattern instance.
/// Requires the dynamic trace (the paper's process always has one by this
/// phase); returns `None` when the loop was never observed.
///
/// Operations that provably cannot participate in a failure are left out:
/// ops on cells touched by a single scheduler task (program order already
/// orders them) and ops on cells that are never written (no conflicting
/// pair exists). Duplicate `(cell, kind)` ops within one element collapse
/// to one occurrence — the happens-before pair the detector needs
/// survives. None of this can change a race/deadlock/panic verdict; it
/// only removes equivalent interleavings: every op kept is a decision
/// point, so each one multiplies the number of schedules the search must
/// visit (a row-render loop with thousands of per-pixel accesses would put
/// any schedule budget out of reach). The pruning runs on the trace's
/// location ids, so only a surviving cell is ever named.
pub fn generate_unit_test(
    model: &SemanticModel,
    instance: &PatternInstance,
    max_elements: usize,
) -> Option<ParallelUnitTest> {
    let trace = model.profile.as_ref()?.loop_traces.get(&instance.loop_id)?;
    if trace.traced_iters() == 0 {
        return None;
    }
    let deps = model.loop_deps.get(&instance.loop_id)?;
    let elements = trace.traced_iters().min(max_elements.max(1));
    let kind = instance.kind();
    let mut stages: Vec<StagePlan> = Vec::new();
    let mut levels = Vec::new();
    let mut stage_of: Vec<(NodeId, usize)> = Vec::new();
    for level in &expr_levels(&instance.arch.expr) {
        let mut level_idx = Vec::new();
        for name in level {
            let stage = instance.stage(name)?;
            let replicas = if stage.replicable
                && (kind == PatternKind::DataParallelLoop
                    || instance.arch.expr.replicable_items().contains(&name.as_str()))
            {
                2
            } else {
                1
            };
            stage_of.extend(stage.stmts.iter().map(|stmt| (*stmt, stages.len())));
            level_idx.push(stages.len());
            stages.push(StagePlan { name: name.clone(), ops: vec![Vec::new(); elements], replicas });
        }
        levels.push(level_idx);
    }
    // The modeled accesses, one run per (element, statement), each with the
    // stages that own the statement.
    let accesses = trace.accesses();
    let modeled = &accesses[..accesses.partition_point(|a| (a.iter as usize) < elements)];
    let runs = || {
        modeled.chunk_by(|a, b| (a.iter, a.stmt) == (b.iter, b.stmt)).flat_map(|run| {
            let owners = stage_of.iter().filter(|(stmt, _)| *stmt == run[0].stmt);
            owners.map(move |&(_, si)| (si, run[0].iter as usize, run))
        })
    };
    // Which scheduler task performs (stage, element), mirroring doall_body
    // (one task per element) and pipeline_body (one task per stage×replica;
    // element e goes to replica e % replicas).
    let task_of = |si: usize, e: usize| {
        if kind == PatternKind::DataParallelLoop {
            e
        } else {
            si * elements + e % stages[si].replicas
        }
    };
    const WRITTEN: u8 = 1;
    const SHARED: u8 = 2;
    let mut first_task = vec![usize::MAX; trace.locs().len()];
    let mut flags = vec![0u8; trace.locs().len()];
    for (si, e, run) in runs() {
        let task = task_of(si, e);
        for a in run {
            let l = a.loc as usize;
            if a.kind == AccessKind::Write {
                flags[l] |= WRITTEN;
            }
            if first_task[l] == usize::MAX {
                first_task[l] = task;
            } else if first_task[l] != task {
                flags[l] |= SHARED;
            }
        }
    }
    // Name the survivors, ascending by location id.
    let named: Vec<(usize, String)> = (0..flags.len())
        .filter(|&l| flags[l] == WRITTEN | SHARED)
        .filter_map(|l| {
            let cell = cell_name(&trace.locs()[l], &deps.iteration_locals, &instance.reductions)?;
            Some((l, cell))
        })
        .collect();
    for (si, e, run) in runs() {
        for a in run {
            if let Ok(i) = named.binary_search_by_key(&(a.loc as usize), |(l, _)| *l) {
                stages[si].ops[e].push(Op { cell: named[i].1.clone(), kind: a.kind });
            }
        }
    }
    // Reads before writes within one element mirrors evaluate-then-assign
    // statement semantics.
    for ops in stages.iter_mut().flat_map(|s| &mut s.ops) {
        ops.sort_unstable_by(|a, b| (a.kind, &a.cell).cmp(&(b.kind, &b.cell)));
        ops.dedup();
    }
    Some(ParallelUnitTest {
        name: format!("put_{}", instance.arch.name),
        kind,
        stages,
        levels,
        elements,
        cells: named.into_iter().map(|(_, cell)| cell).collect(),
    })
}

/// Execute a generated unit test on the CHESS explorer (search mode —
/// DFS oracle or DPOR — comes from `options.mode`).
pub fn run_unit_test(test: &ParallelUnitTest, options: ChessOptions) -> Report {
    let test = Arc::new(test.clone());
    match test.kind {
        PatternKind::DataParallelLoop => explore(doall_body(test, false), options),
        _ => explore(pipeline_body(test, false), options),
    }
}

/// Execute a generated unit test under the joint schedule×fault explorer:
/// the body gains one `fault_point` per (stage, element), so every
/// scenario in `scenarios` is explored against every schedule.
pub fn run_unit_test_joint(
    test: &ParallelUnitTest,
    scenarios: &[FaultScenario],
    options: &ChessOptions,
) -> JointReport {
    let test = Arc::new(test.clone());
    match test.kind {
        PatternKind::DataParallelLoop => {
            explore_joint(doall_body(test, true), scenarios, options)
        }
        _ => explore_joint(pipeline_body(test, true), scenarios, options),
    }
}

/// Replay one interleaving of a generated unit test from its
/// `sched_trace_hash` alone: re-explores the scenario matrix (same
/// options ⇒ same search ⇒ same hashes), finds the failure carrying the
/// hash, and re-executes its schedule twice, comparing byte-for-byte.
/// Returns `None` when no explored failure carries the hash.
pub fn replay_unit_test_hash(
    test: &ParallelUnitTest,
    scenarios: &[FaultScenario],
    options: &ChessOptions,
    hash: u64,
) -> Option<ReplayOutcome> {
    let test = Arc::new(test.clone());
    match test.kind {
        PatternKind::DataParallelLoop => {
            replay_hash(doall_body(test, true), scenarios, options, hash)
        }
        _ => replay_hash(pipeline_body(test, true), scenarios, options, hash),
    }
}

/// Fault point labels (one per stage) a generated unit test exposes to
/// the joint explorer.
pub fn fault_labels(test: &ParallelUnitTest) -> Vec<String> {
    test.stages.iter().map(|s| s.name.clone()).collect()
}

/// Data-parallel loop: all elements run concurrently (that is the claim
/// the detector made).
fn doall_body(
    test: Arc<ParallelUnitTest>,
    with_faults: bool,
) -> impl Fn(ThreadCtx) -> TaskFuture + 'static {
    move |ctx| {
        let test = test.clone();
        Box::pin(async move {
            let cells = make_cells(&ctx, &test.cells);
            let mut handles = Vec::new();
            let stage = &test.stages[0];
            for e in 0..test.elements {
                let ops = stage.ops[e].clone();
                let cells = cells.clone();
                let label = stage.name.clone();
                let task = ctx.spawn(move |ctx| async move {
                    if !with_faults || ctx.fault_point(&label).await == Inject::Run {
                        perform(&ctx, &cells, &ops).await;
                    }
                });
                handles.push(task.await);
            }
            for h in handles {
                ctx.join(h).await;
            }
        })
    }
}

/// Pipeline / master-worker: stage threads connected by per-successor
/// channels; every stage sends one token per element to each stage of the
/// next level, and receives one token per predecessor.
fn pipeline_body(
    test: Arc<ParallelUnitTest>,
    with_faults: bool,
) -> impl Fn(ThreadCtx) -> TaskFuture + 'static {
    move |ctx| {
        let test = test.clone();
        Box::pin(async move {
            let cells = make_cells(&ctx, &test.cells);
            let n_stages = test.stages.len();
            // Input channels, one per (stage, replica).
            let mut in_chs: Vec<Vec<patty_chess::CChannel<usize>>> = Vec::new();
            for s in &test.stages {
                in_chs.push(
                    (0..s.replicas.max(1))
                        .map(|r| ctx.channel::<usize>(&format!("buf_{}_{r}", s.name)))
                        .collect(),
                );
            }
            // successors[s] = stage indices of the next level; a stage of
            // level i receives one token per stage of level i-1 per
            // element (the join of a `||` group).
            let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n_stages];
            let mut pred_count: Vec<usize> = vec![0; n_stages];
            for w in test.levels.windows(2) {
                for &a in &w[0] {
                    for &b in &w[1] {
                        successors[a].push(b);
                    }
                }
                for &b in &w[1] {
                    pred_count[b] = w[0].len();
                }
            }

            let mut handles = Vec::new();
            for (si, stage) in test.stages.iter().enumerate() {
                for replica in 0..stage.replicas.max(1) {
                    let ops = stage.ops.clone();
                    let cells = cells.clone();
                    let my_in = in_chs[si][replica].clone();
                    let outs: Vec<Vec<patty_chess::CChannel<usize>>> = successors[si]
                        .iter()
                        .map(|&succ| in_chs[succ].clone())
                        .collect();
                    let preds = pred_count[si];
                    let replicas = stage.replicas.max(1);
                    let elements = test.elements;
                    let label = stage.name.clone();
                    let task = ctx.spawn(move |ctx| async move {
                        for e in 0..elements {
                            if replicas > 1 && e % replicas != replica {
                                continue;
                            }
                            // Receive one token per predecessor stage.
                            for _ in 0..preds {
                                let _ = my_in.recv(&ctx).await;
                            }
                            // Under a fault scenario a dropped item skips
                            // the stage's work but still forwards its
                            // tokens, so the stream stays drainable.
                            if !with_faults || ctx.fault_point(&label).await == Inject::Run {
                                perform(&ctx, &cells, &ops[e]).await;
                            }
                            // Hand the element to every successor stage
                            // (to the replica that will process it).
                            for succ_chs in &outs {
                                let r = succ_chs.len();
                                succ_chs[e % r].send(&ctx, e).await;
                            }
                        }
                    });
                    handles.push(task.await);
                }
            }
            // StreamGenerator: feed the first level.
            if let Some(first_level) = test.levels.first() {
                for e in 0..test.elements {
                    for &si in first_level {
                        let r = in_chs[si].len();
                        in_chs[si][e % r].send(&ctx, e).await;
                    }
                }
            }
            for h in handles {
                ctx.join(h).await;
            }
        })
    }
}

fn make_cells(
    ctx: &ThreadCtx,
    names: &BTreeSet<String>,
) -> Rc<BTreeMap<String, patty_chess::Shared<i64>>> {
    Rc::new(
        names
            .iter()
            .map(|n| (n.clone(), ctx.shared(n, 0i64)))
            .collect(),
    )
}

async fn perform(
    ctx: &ThreadCtx,
    cells: &BTreeMap<String, patty_chess::Shared<i64>>,
    ops: &[Op],
) {
    for op in ops {
        let cell = &cells[&op.cell];
        match op.kind {
            AccessKind::Read => {
                let _ = cell.read(ctx).await;
            }
            AccessKind::Write => {
                let v = cell.read(ctx).await;
                cell.write(ctx, v + 1).await;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_chess::FailureKind;
    use patty_minilang::{parse, InterpOptions};
    use patty_patterns::{detect_loop, DetectOptions};

    fn instance_of(src: &str) -> (SemanticModel, PatternInstance) {
        let p = parse(src).unwrap();
        let m = SemanticModel::build(&p, InterpOptions::default()).unwrap();
        let l = m.loops[0].clone();
        let i = detect_loop(&m, &l, &DetectOptions::default()).unwrap();
        (m, i)
    }

    #[test]
    fn correct_pipeline_detection_yields_clean_unit_test() {
        let src = r#"
            class F { var g = 2; fn apply(x) { work(60); return x * this.g; } }
            fn main() {
                var f = new F();
                var out = [];
                foreach (x in range(0, 6)) {
                    var a = f.apply(x);
                    out.add(a);
                }
                print(len(out));
            }
        "#;
        let (m, inst) = instance_of(src);
        let t = generate_unit_test(&m, &inst, 2).unwrap();
        assert_eq!(t.stages.len(), 2);
        let report = run_unit_test(
            &t,
            ChessOptions { max_schedules: 3_000, ..ChessOptions::default() },
        );
        assert!(
            !report
                .failures
                .iter()
                .any(|f| matches!(f.kind, FailureKind::Race { .. })),
            "correct detection must produce race-free unit test: {:?}",
            report.failures
        );
        assert!(!report
            .failures
            .iter()
            .any(|f| f.kind == FailureKind::Deadlock));
    }

    #[test]
    fn doall_unit_test_from_disjoint_writes_is_clean() {
        let src = r#"
            fn main() {
                var a = [0, 0, 0, 0];
                var b = [1, 2, 3, 4];
                for (var i = 0; i < 4; i = i + 1) {
                    a[i] = b[i] * 2;
                }
                print(a[0]);
            }
        "#;
        let (m, inst) = instance_of(src);
        let t = generate_unit_test(&m, &inst, 3).unwrap();
        assert_eq!(t.kind, PatternKind::DataParallelLoop);
        let report = run_unit_test(
            &t,
            ChessOptions { max_schedules: 3_000, ..ChessOptions::default() },
        );
        assert!(
            !report
                .failures
                .iter()
                .any(|f| matches!(f.kind, FailureKind::Race { .. })),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn wrong_optimistic_claim_is_caught_as_race() {
        // Hand-build an instance claiming two stages that actually share
        // a field — the unit test must expose the race. This mirrors an
        // engineer (or a bug in detection) over-claiming independence via
        // a mode-2 annotation.
        let src = r#"
            class S { var v = 0; fn bump(x) { this.v = this.v + x; return this.v; } }
            fn main() {
                var s1 = new S();
                var out = [];
                #region TADL: A+ => B
                foreach (x in range(0, 4)) {
                    #region A:
                    var a = s1.bump(x);
                    #endregion
                    #region B:
                    out.add(a);
                    #endregion
                }
                #endregion
                print(len(out));
            }
        "#;
        let p = parse(src).unwrap();
        let m = SemanticModel::build(&p, InterpOptions::default()).unwrap();
        let anns = patty_transform::extract_annotations(&p).unwrap();
        let inst = patty_transform::instance_from_annotation(&m, &anns[0]).unwrap();
        let t = generate_unit_test(&m, &inst, 3).unwrap();
        // stage A is replicated (A+) and mutates s1.v on every element →
        // two replicas of A race on obj.v.
        let report = run_unit_test(
            &t,
            ChessOptions { max_schedules: 5_000, ..ChessOptions::default() },
        );
        assert!(
            report
                .failures
                .iter()
                .any(|f| matches!(f.kind, FailureKind::Race { .. })),
            "replicating a stateful stage must race: {:?}",
            report.failures
        );
    }

    #[test]
    fn no_trace_means_no_unit_test() {
        let src = "fn main() { foreach (x in range(0, 4)) { work(1); } }";
        let p = parse(src).unwrap();
        let m = patty_analysis::SemanticModel::build_static(&p);
        // detection needs dynamics for DOALL here; craft via annotation
        let l = m.loops[0].clone();
        let r = detect_loop(&m, &l, &DetectOptions::default());
        if let Ok(inst) = r {
            assert!(generate_unit_test(&m, &inst, 2).is_none());
        }
    }
}
