//! Source pattern detection (phase 2 of the process model).
//!
//! Implements the rule families of Section 2.2 over the semantic model:
//!
//! * **PLPL** — every loop is a candidate; the loop header becomes the
//!   implicit `StreamGenerator`; initially each direct body statement is
//!   one stage.
//! * **PLCD** — statements whose control effects escape the iteration
//!   (`break`, `return`) disqualify the loop.
//! * **PLDD** — loop-carried dependencies merge the spanned statements
//!   into one stage. Static may-dependencies on heap locations are
//!   *optimistically* discharged when the dynamic trace shows no
//!   cross-iteration conflict between the two statements.
//! * **PLDS** — intra-iteration dataflow defines the buffers between
//!   stages and the stage-level DAG (independent stages become `||`
//!   master/worker groups, cf. Fig. 3's `(A || B || C+) => D => E`).
//! * **PLTP** — tuning parameters: `StageReplication` for the hottest
//!   side-effect-free stage, `OrderPreservation`, `StageFusion` per
//!   adjacent pair, `SequentialExecution`.
//!
//! Loops whose iterations are fully independent (no carried dependencies
//! at all, or only recognized reductions) are classified as
//! **data-parallel loops** instead.

use crate::instance::{PatternInstance, Rejection, Stage};
use patty_analysis::loc::StaticLoc;
use patty_analysis::loops::{jump_effects, LoopInfo};
use patty_analysis::SemanticModel;
use patty_minilang::ast::{AssignOp, ExprKind, LValueKind, StmtKind, StmtTable};
use patty_minilang::profile::DynLoc;
use patty_minilang::span::NodeId;
use patty_tadl::{ArchItem, ArchitectureDescription, PatternKind, TadlExpr};
use patty_tuning::{TuningConfig, TuningParam};
use std::collections::{BTreeMap, BTreeSet};

/// Options for the detector.
#[derive(Clone, Debug)]
pub struct DetectOptions {
    /// Upper bound for replication / worker-count tuning domains
    /// (the target platform's core count).
    pub max_workers: i64,
    /// Minimum estimated speedup for a candidate to be reported.
    pub min_speedup: f64,
}

impl Default for DetectOptions {
    fn default() -> DetectOptions {
        DetectOptions { max_workers: 8, min_speedup: 1.2 }
    }
}

/// Detect all pattern instances in a program, best candidates first.
pub fn detect_patterns(model: &SemanticModel, opts: &DetectOptions) -> Vec<PatternInstance> {
    let table = model.program.stmt_table();
    let mut out = Vec::new();
    for l in &model.loops {
        if let Ok(inst) = detect_loop_in(model, &table, l, opts) {
            if inst.est_speedup >= opts.min_speedup {
                out.push(inst);
            }
        }
    }
    out.sort_by(|a, b| b.est_speedup.total_cmp(&a.est_speedup).then(a.arch.line.cmp(&b.arch.line)));
    out
}

/// Stage names `A`, `B`, ..., `Z`, `S26`, ...
fn stage_name(i: usize) -> String {
    if i < 26 {
        ((b'A' + i as u8) as char).to_string()
    } else {
        format!("S{i}")
    }
}

/// Detect the pattern (if any) at one loop.
pub fn detect_loop(
    model: &SemanticModel,
    loop_info: &LoopInfo,
    opts: &DetectOptions,
) -> Result<PatternInstance, Rejection> {
    detect_loop_in(model, &model.program.stmt_table(), loop_info, opts)
}

/// [`detect_loop`], looking statements up in `table`, the model's
/// program's statement table.
fn detect_loop_in(
    model: &SemanticModel,
    table: &StmtTable,
    loop_info: &LoopInfo,
    opts: &DetectOptions,
) -> Result<PatternInstance, Rejection> {
    let stmts = &loop_info.body_stmts;
    if stmts.is_empty() {
        return Err(Rejection::Empty);
    }

    // ---- PLCD ----
    for id in stmts {
        let stmt = table.get(*id).ok_or(Rejection::Empty)?;
        let j = jump_effects(stmt);
        if j.violates_plcd() {
            let what = if j.breaks { "break" } else { "return" };
            return Err(Rejection::ControlDependence(format!(
                "`{}` escapes the iteration in `{}`",
                what,
                stmt.describe(&model.program.source)
            )));
        }
    }

    let deps = model
        .loop_deps
        .get(&loop_info.id)
        .ok_or(Rejection::Empty)?;

    // ---- PLPL: fold induction updates into the StreamGenerator ----
    // "we process the loop header, increment and termination condition.
    // This represents the generation of continuous stream elements."
    // For `while` / condition-carrying `for` loops, a simple self-update
    // of a condition variable (`i = i + 1`) is part of stream generation;
    // any other body write the condition observes means the trip count
    // depends on processed values — no continuous stream exists.
    let (stmts, folded_vars) = fold_header_induction(table, loop_info, deps)?;
    let stmts = &stmts;
    if stmts.is_empty() {
        return Err(Rejection::Empty);
    }
    let mut iteration_locals = deps.iteration_locals.clone();
    iteration_locals.extend(folded_vars.iter().cloned());

    let idx_of: BTreeMap<NodeId, usize> =
        stmts.iter().enumerate().map(|(i, s)| (*s, i)).collect();

    // ---- PLDD with optimistic dynamic refinement ----
    // Only a trace of two iterations or more can show (or rule out) a
    // cross-iteration conflict; a static-only model has none to consult.
    let trace = model
        .profile
        .as_ref()
        .and_then(|p| p.loop_traces.get(&loop_info.id))
        .filter(|t| t.traced_iters() >= 2);
    let dynamic_usable = trace.is_some();
    // Carried accesses to iteration-local variables are artifacts of the
    // interpreter reusing one cell per frame: the pipeline transform
    // privatizes those values into the per-element buffers (rule PLDS), so
    // they impose no cross-element ordering.
    let mut observed_carried: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    if let Some(t) = trace {
        t.carried(
            |loc| !matches!(loc, DynLoc::Local(_, name) if iteration_locals.contains(&**name)),
            |src, dst, _, _| {
                observed_carried.insert((src.min(dst), src.max(dst)));
            },
        );
    }

    let mut carried_pairs: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for d in deps.carried() {
        let pair = (d.src.min(d.dst), d.src.max(d.dst));
        let keep = match &d.loc {
            // Local accumulators are syntactically precise; always keep.
            StaticLoc::Var(_) => true,
            // Heap may-dependencies: optimistically discharge when the
            // dynamic trace saw no cross-iteration conflict between the
            // two statements.
            _ => {
                if dynamic_usable {
                    observed_carried.contains(&pair)
                } else {
                    true
                }
            }
        };
        if keep {
            carried_pairs.insert(pair);
        }
    }
    // Dependencies the static analysis missed (aliasing) but the dynamic
    // analysis observed.
    if dynamic_usable {
        for pair in &observed_carried {
            carried_pairs.insert(*pair);
        }
    }

    // Order-sensitive external effects: statements that print (or consume
    // random state) must see elements in order, and any two such
    // statements must stay in one thread.
    let io_stmts: Vec<NodeId> = stmts
        .iter()
        .filter(|id| deps.stmt_effects.get(id).map(|e| e.io).unwrap_or(false))
        .copied()
        .collect();
    for i in 0..io_stmts.len() {
        carried_pairs.insert((io_stmts[i], io_stmts[i]));
        for j in (i + 1)..io_stmts.len() {
            carried_pairs.insert((io_stmts[i], io_stmts[j]));
        }
    }

    // ---- reductions (for DOALL classification) ----
    let reductions = recognize_reductions(table, stmts, &iteration_locals, deps, &carried_pairs);
    let non_reduction_pairs: BTreeSet<(NodeId, NodeId)> = carried_pairs
        .iter()
        .filter(|(a, b)| {
            !(a == b && reductions.iter().any(|(id, _)| id == a))
        })
        .copied()
        .collect();

    let iterations = model.loop_iterations(loop_info.id);

    if non_reduction_pairs.is_empty() {
        // Fully independent iterations → data-parallel loop.
        return Ok(build_doall(model, table, loop_info, opts, iterations, reductions));
    }

    // ---- stage formation: merge carried-dependence spans ----
    let n = stmts.len();
    let mut group = vec![0usize; n]; // group id per stmt index, contiguous
    for (i, g) in group.iter_mut().enumerate() {
        *g = i;
    }
    for (a, b) in &non_reduction_pairs {
        let (Some(&ia), Some(&ib)) = (idx_of.get(a), idx_of.get(b)) else { continue };
        let (lo, hi) = (ia.min(ib), ia.max(ib));
        // "we subsume si, sk, and all statements in between in one
        // pipeline stage"
        let target = group[lo];
        for g in group.iter_mut().take(hi + 1).skip(lo) {
            *g = target;
        }
    }
    // Renumber groups contiguously (they are monotone by construction).
    let mut stage_groups: Vec<Vec<usize>> = Vec::new();
    let mut last = usize::MAX;
    for (i, g) in group.iter().enumerate() {
        if *g != last {
            stage_groups.push(Vec::new());
            last = *g;
        }
        stage_groups.last_mut().expect("pushed").push(i);
    }

    if stage_groups.len() < 2 {
        return Err(Rejection::SingleStage);
    }

    // ---- stage metadata ----
    let self_carried: BTreeSet<NodeId> = carried_pairs
        .iter()
        .filter(|(a, b)| a == b)
        .map(|(a, _)| *a)
        .collect();
    let mut stages: Vec<Stage> = Vec::with_capacity(stage_groups.len());
    for (gi, members) in stage_groups.iter().enumerate() {
        let stmt_ids: Vec<NodeId> = members.iter().map(|i| stmts[*i]).collect();
        let cost_share: f64 = stmt_ids
            .iter()
            .map(|id| model.stage_cost_share(loop_info.id, *id))
            .sum();
        let order_sensitive = stmt_ids.iter().any(|id| self_carried.contains(id));
        let io = stmt_ids.iter().any(|id| io_stmts.contains(id));
        // Replicable: no carried self-dependence, no I/O, and all writes
        // are iteration-local variables (the stage's own outputs).
        let writes_local = stmt_ids.iter().all(|id| {
            deps.stmt_effects
                .get(id)
                .map(|e| {
                    e.writes.iter().all(|w| match w {
                        StaticLoc::Var(v) => iteration_locals.contains(v),
                        _ => false,
                    })
                })
                .unwrap_or(false)
        });
        let replicable = !order_sensitive && !io && writes_local;
        stages.push(Stage {
            name: stage_name(gi),
            stmts: stmt_ids,
            cost_share,
            replicable,
            order_sensitive,
        });
    }

    // ---- PLDS: stage-level DAG from intra-iteration dependencies ----
    let stage_of: BTreeMap<NodeId, usize> = stages
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.stmts.iter().map(move |id| (*id, si)))
        .collect();
    let mut stage_deps: BTreeSet<(usize, usize)> = BTreeSet::new();
    for d in deps.intra() {
        let (Some(&sa), Some(&sb)) = (stage_of.get(&d.src), stage_of.get(&d.dst)) else {
            continue;
        };
        if sa != sb {
            stage_deps.insert((sa.min(sb), sa.max(sb)));
        }
    }
    // Layering: level = 1 + max(level of dependence predecessors).
    let mut level = vec![0usize; stages.len()];
    for si in 0..stages.len() {
        let l = stage_deps
            .iter()
            .filter(|(_, b)| *b == si)
            .map(|(a, _)| level[*a] + 1)
            .max()
            .unwrap_or(0);
        level[si] = l;
    }
    let max_level = level.iter().copied().max().unwrap_or(0);

    // ---- PLTP: replication mark on the hottest replicable stage ----
    let hottest_replicable: Option<usize> = stages
        .iter()
        .enumerate()
        .filter(|(_, s)| s.replicable)
        .max_by(|a, b| a.1.cost_share.total_cmp(&b.1.cost_share))
        .map(|(i, _)| i);

    // ---- TADL expression ----
    let mut level_exprs: Vec<TadlExpr> = Vec::new();
    for l in 0..=max_level {
        let members: Vec<usize> = (0..stages.len()).filter(|si| level[*si] == l).collect();
        let items: Vec<TadlExpr> = members
            .iter()
            .map(|&si| {
                if Some(si) == hottest_replicable {
                    TadlExpr::replicable(stages[si].name.clone())
                } else {
                    TadlExpr::item(stages[si].name.clone())
                }
            })
            .collect();
        level_exprs.push(TadlExpr::parallel(items));
    }
    let expr = TadlExpr::pipeline(level_exprs);
    let kind = if max_level == 0 {
        PatternKind::MasterWorker
    } else {
        PatternKind::Pipeline
    };

    // Items must appear in expression order.
    let mut order: Vec<usize> = (0..stages.len()).collect();
    order.sort_by_key(|&si| (level[si], si));

    let arch_name = format!(
        "{}_{}_l{}",
        match kind {
            PatternKind::Pipeline => "pipeline",
            PatternKind::MasterWorker => "masterworker",
            PatternKind::DataParallelLoop => "doall",
        },
        loop_info.func.replace('.', "_"),
        loop_info.span.line
    );

    let items: Vec<ArchItem> = order
        .iter()
        .map(|&si| {
            let s = &stages[si];
            let first = table.get(s.stmts[0]);
            ArchItem {
                name: s.name.clone(),
                line: first.map(|f| f.span.line).unwrap_or(0),
                source: first
                    .map(|f| f.describe(&model.program.source))
                    .unwrap_or_default(),
                cost_share: s.cost_share,
                pure_stage: s.replicable,
            }
        })
        .collect();

    // ---- tuning configuration ----
    let mut tuning = TuningConfig::new(arch_name.clone());
    let loc = format!("{}:{}", loop_info.func, loop_info.span.line);
    for s in &stages {
        if s.replicable {
            tuning.push(TuningParam::replication(
                format!("{arch_name}.{}.replication", s.name),
                loc.clone(),
                opts.max_workers,
            ));
            tuning.push(TuningParam::order_preservation(
                format!("{arch_name}.{}.order", s.name),
                loc.clone(),
            ));
        }
    }
    for w in order.windows(2) {
        tuning.push(TuningParam::stage_fusion(
            format!(
                "{arch_name}.fuse.{}_{}",
                stages[w[0]].name, stages[w[1]].name
            ),
            loc.clone(),
        ));
    }
    tuning.push(TuningParam::batch_size(
        format!("{arch_name}.batch"),
        loc.clone(),
        256,
    ));
    tuning.push(TuningParam::sequential_execution(
        format!("{arch_name}.sequential"),
        loc.clone(),
    ));

    // ---- speedup estimate ----
    // The pipeline's throughput is bounded by its slowest stage; the
    // hottest replicable stage can be divided by replication.
    let mut bottleneck: f64 = 0.0;
    for (si, s) in stages.iter().enumerate() {
        let mut share = s.cost_share;
        if Some(si) == hottest_replicable {
            share /= opts.max_workers as f64;
        }
        bottleneck = bottleneck.max(share);
    }
    let est_speedup = if bottleneck > 0.0 {
        (1.0 / bottleneck).min(opts.max_workers as f64)
    } else {
        stages.len() as f64
    };

    let arch = ArchitectureDescription {
        name: arch_name,
        kind,
        expr,
        items,
        func: loop_info.func.clone(),
        line: loop_info.span.line,
        stream_length: iterations,
    };
    debug_assert!(arch.validate().is_ok(), "{:?}", arch.validate());

    // Reorder stages into expression order for downstream consumers.
    let stages_ordered: Vec<Stage> = order.iter().map(|&si| stages[si].clone()).collect();

    Ok(PatternInstance {
        arch,
        loop_id: loop_info.id,
        stages: stages_ordered,
        tuning,
        est_speedup,
        reductions: reductions.into_iter().map(|(_, v)| v).collect(),
    })
}

/// Build the data-parallel-loop instance for a fully independent loop.
fn build_doall(
    model: &SemanticModel,
    table: &StmtTable,
    loop_info: &LoopInfo,
    opts: &DetectOptions,
    iterations: u64,
    reductions: Vec<(NodeId, String)>,
) -> PatternInstance {
    let arch_name = format!(
        "doall_{}_l{}",
        loop_info.func.replace('.', "_"),
        loop_info.span.line
    );
    let first = loop_info
        .body_stmts
        .first()
        .and_then(|id| table.get(*id));
    let stage = Stage {
        name: "A".into(),
        stmts: loop_info.body_stmts.clone(),
        cost_share: 1.0,
        replicable: true,
        order_sensitive: false,
    };
    let arch = ArchitectureDescription {
        name: arch_name.clone(),
        kind: PatternKind::DataParallelLoop,
        expr: TadlExpr::replicable("A"),
        items: vec![ArchItem {
            name: "A".into(),
            line: first.map(|f| f.span.line).unwrap_or(loop_info.span.line),
            source: first
                .map(|f| f.describe(&model.program.source))
                .unwrap_or_default(),
            cost_share: 1.0,
            pure_stage: true,
        }],
        func: loop_info.func.clone(),
        line: loop_info.span.line,
        stream_length: iterations,
    };
    let loc = format!("{}:{}", loop_info.func, loop_info.span.line);
    let mut tuning = TuningConfig::new(arch_name.clone());
    tuning.push(TuningParam::worker_count(
        format!("{arch_name}.workers"),
        loc.clone(),
        opts.max_workers,
    ));
    tuning.push(TuningParam::chunk_size(
        format!("{arch_name}.chunk"),
        loc.clone(),
        256,
    ));
    tuning.push(TuningParam::chunk_size(
        format!("{arch_name}.min_chunk"),
        loc.clone(),
        256,
    ));
    tuning.push(TuningParam::sequential_execution(
        format!("{arch_name}.sequential"),
        loc,
    ));
    let est_speedup = if iterations == 0 {
        opts.max_workers as f64
    } else {
        (iterations as f64).min(opts.max_workers as f64)
    };
    PatternInstance {
        arch,
        loop_id: loop_info.id,
        stages: vec![stage],
        tuning,
        est_speedup,
        reductions: reductions.into_iter().map(|(_, v)| v).collect(),
    }
}

/// Fold simple induction updates of condition variables into the implicit
/// StreamGenerator stage (rule PLPL), and reject loops whose condition
/// observes body computation in any other way.
///
/// Returns the remaining stage-candidate statements and the folded
/// generator-managed variables.
fn fold_header_induction(
    table: &StmtTable,
    loop_info: &LoopInfo,
    deps: &patty_analysis::LoopDeps,
) -> Result<(Vec<NodeId>, BTreeSet<String>), Rejection> {
    let loop_stmt = table.get(loop_info.id).ok_or(Rejection::Empty)?;
    let cond = match &loop_stmt.kind {
        StmtKind::While { cond, .. } => Some(cond),
        StmtKind::For { cond, .. } => cond.as_ref(),
        _ => None,
    };
    let Some(cond) = cond else {
        return Ok((loop_info.body_stmts.clone(), BTreeSet::new()));
    };

    // What the condition observes: plain variables, and the root
    // variables of any heap paths it dereferences.
    let mut cond_vars: BTreeSet<String> = BTreeSet::new();
    let mut cond_heap_roots: BTreeSet<String> = BTreeSet::new();
    patty_minilang::ast::visit_expr(cond, &mut |e| match &e.kind {
        ExprKind::Var(v) => {
            cond_vars.insert(v.clone());
        }
        ExprKind::Field { base, .. } | ExprKind::Index { base, .. } => {
            if let Some(p) = base.path() {
                if let Some(root) = p.split('.').next() {
                    cond_heap_roots.insert(root.to_string());
                }
            }
        }
        ExprKind::MethodCall { base, .. } => {
            if let Some(p) = base.path() {
                if let Some(root) = p.split('.').next() {
                    cond_heap_roots.insert(root.to_string());
                }
            }
        }
        _ => {}
    });

    let mut remaining = Vec::new();
    let mut folded = BTreeSet::new();
    for id in &loop_info.body_stmts {
        let s = table.get(*id).ok_or(Rejection::Empty)?;
        if let Some(var) = simple_induction_var(s, &cond_vars) {
            folded.insert(var);
            continue;
        }
        remaining.push(*id);
    }
    for id in &remaining {
        let Some(e) = deps.stmt_effects.get(id) else { continue };
        for w in &e.writes {
            match w {
                StaticLoc::Var(v) => {
                    if cond_vars.contains(v)
                        && !deps.iteration_locals.contains(v)
                        && !folded.contains(v)
                    {
                        return Err(Rejection::HeaderDependence(format!(
                            "condition variable `{v}` is written by the loop body"
                        )));
                    }
                }
                StaticLoc::Path(p) | StaticLoc::Elem(p) | StaticLoc::Struct(p) => {
                    if let Some(root) = p.split('.').next() {
                        if cond_heap_roots.contains(root) {
                            return Err(Rejection::HeaderDependence(format!(
                                "condition dereferences `{root}`, which the loop body mutates"
                            )));
                        }
                    }
                }
                StaticLoc::Unknown => {
                    if !cond_heap_roots.is_empty() {
                        return Err(Rejection::HeaderDependence(
                            "condition dereferences heap state the body may mutate".into(),
                        ));
                    }
                }
            }
        }
    }
    Ok((remaining, folded))
}

/// Is `s` a simple self-update of a condition variable — `v += e`,
/// `v -= e`, `v *= e` or `v = v ⊕ e` — whose operand only reads other
/// condition variables and literals? Such updates belong to the stream
/// generator.
fn simple_induction_var(
    s: &patty_minilang::ast::Stmt,
    cond_vars: &BTreeSet<String>,
) -> Option<String> {
    let StmtKind::Assign { target, op, value } = &s.kind else { return None };
    let LValueKind::Var(v) = &target.kind else { return None };
    if !cond_vars.contains(v) {
        return None;
    }
    let operand_ok = |e: &patty_minilang::ast::Expr, v: &str| {
        let mut ok = true;
        patty_minilang::ast::visit_expr(e, &mut |x| match &x.kind {
            ExprKind::Var(name) => {
                if name == v || !cond_vars.contains(name) {
                    ok = false;
                }
            }
            ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Binary { .. }
            | ExprKind::Unary { .. } => {}
            _ => ok = false,
        });
        ok
    };
    match op {
        AssignOp::Add | AssignOp::Sub | AssignOp::Mul => {
            operand_ok(value, v).then(|| v.clone())
        }
        AssignOp::Set => {
            let ExprKind::Binary { lhs, rhs, .. } = &value.kind else { return None };
            let lhs_is_v = matches!(&lhs.kind, ExprKind::Var(n) if n == v);
            let rhs_is_v = matches!(&rhs.kind, ExprKind::Var(n) if n == v);
            let other = if lhs_is_v { rhs } else { lhs };
            ((lhs_is_v ^ rhs_is_v) && operand_ok(other, v)).then(|| v.clone())
        }
    }
}

/// Recognize privatizable reduction statements: `v += e`, `v *= e` or
/// `v = v + e` on a non-iteration-local variable where `e` does not read
/// `v` and no other body statement touches `v`.
fn recognize_reductions(
    table: &StmtTable,
    body_stmts: &[NodeId],
    iteration_locals: &BTreeSet<String>,
    deps: &patty_analysis::LoopDeps,
    carried: &BTreeSet<(NodeId, NodeId)>,
) -> Vec<(NodeId, String)> {
    let mut out = Vec::new();
    for id in body_stmts {
        let Some(stmt) = table.get(*id) else { continue };
        let var = match &stmt.kind {
            StmtKind::Assign { target, op, value } => {
                let LValueKind::Var(name) = &target.kind else { continue };
                let reads_self = |e: &patty_minilang::ast::Expr| {
                    let mut hit = false;
                    patty_minilang::ast::visit_expr(e, &mut |x| {
                        if matches!(&x.kind, ExprKind::Var(v) if v == name) {
                            hit = true;
                        }
                    });
                    hit
                };
                match op {
                    AssignOp::Add | AssignOp::Mul => {
                        if reads_self(value) {
                            continue;
                        }
                        name.clone()
                    }
                    AssignOp::Set => {
                        // v = v + e  or  v = e + v
                        let ExprKind::Binary { op: bop, lhs, rhs } = &value.kind else {
                            continue;
                        };
                        if !matches!(
                            bop,
                            patty_minilang::ast::BinOp::Add | patty_minilang::ast::BinOp::Mul
                        ) {
                            continue;
                        }
                        let lhs_is_v = matches!(&lhs.kind, ExprKind::Var(v) if v == name);
                        let rhs_is_v = matches!(&rhs.kind, ExprKind::Var(v) if v == name);
                        let other = if lhs_is_v { rhs } else { lhs };
                        if !(lhs_is_v ^ rhs_is_v) || reads_self(other) {
                            continue;
                        }
                        name.clone()
                    }
                    _ => continue,
                }
            }
            _ => continue,
        };
        if iteration_locals.contains(&var) {
            continue;
        }
        // No other body statement may touch the reduction variable.
        let touched_elsewhere = body_stmts.iter().any(|other| {
            if other == id {
                return false;
            }
            deps.stmt_effects
                .get(other)
                .map(|e| {
                    let loc = StaticLoc::Var(var.clone());
                    e.reads.contains(&loc) || e.writes.contains(&loc)
                })
                .unwrap_or(false)
        });
        if touched_elsewhere {
            continue;
        }
        // All carried pairs involving this statement must be the
        // self-dependence of the reduction itself.
        let only_self = carried
            .iter()
            .filter(|(a, b)| a == id || b == id)
            .all(|(a, b)| a == b);
        if only_self {
            out.push((*id, var));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_minilang::{parse, InterpOptions};

    fn model_of(src: &str) -> SemanticModel {
        let p = parse(src).unwrap();
        SemanticModel::build(&p, InterpOptions::default()).unwrap()
    }

    fn detect_first(src: &str) -> Result<PatternInstance, Rejection> {
        let m = model_of(src);
        let l = m.loops[0].clone();
        detect_loop(&m, &l, &DetectOptions::default())
    }

    const AVISTREAM: &str = r#"
        class Filter { var gain = 2; fn apply(x) { work(300); return x * this.gain; } }
        class Conv { fn apply(a, b, c) { work(60); return a + b + c; } }
        fn main() {
            var cropFilter = new Filter();
            var histoFilter = new Filter();
            var oilFilter = new Filter();
            var conv = new Conv();
            var out = [];
            foreach (i in range(0, 12)) {
                var c = cropFilter.apply(i);
                var h = histoFilter.apply(i);
                var o = oilFilter.apply(i);
                var r = conv.apply(c, h, o);
                out.add(r);
            }
            print(len(out));
        }
    "#;

    #[test]
    fn avistream_matches_paper_shape() {
        // Figure 3: (A || B || C+) => D => E — three independent filters,
        // a join, and an order-carrying output append.
        let inst = detect_first(AVISTREAM).unwrap();
        assert_eq!(inst.kind(), PatternKind::Pipeline);
        assert_eq!(inst.stages.len(), 5);
        let s = inst.arch.expr.to_string();
        assert!(
            s.starts_with("(") && s.contains("||") && s.contains("=>"),
            "expr {s}"
        );
        // The three filter stages are parallel at level 0, one of them
        // marked replicable.
        assert_eq!(inst.arch.expr.replicable_items().len(), 1);
        // The append stage is not replicable and order-sensitive.
        let last = inst.stages.last().unwrap();
        assert!(!last.replicable);
        assert!(last.order_sensitive);
    }

    #[test]
    fn avistream_tuning_parameters() {
        let inst = detect_first(AVISTREAM).unwrap();
        let kinds: Vec<patty_tuning::ParamKind> =
            inst.tuning.params.iter().map(|p| p.kind).collect();
        use patty_tuning::ParamKind::*;
        assert!(kinds.contains(&StageReplication));
        assert!(kinds.contains(&OrderPreservation));
        assert!(kinds.contains(&StageFusion));
        assert!(kinds.contains(&SequentialExecution));
        // four adjacent pairs → four fusion parameters
        assert_eq!(kinds.iter().filter(|k| **k == StageFusion).count(), 4);
    }

    #[test]
    fn disjoint_array_writes_are_doall() {
        let src = r#"
            fn main() {
                var a = [0, 0, 0, 0, 0, 0, 0, 0];
                var b = [1, 2, 3, 4, 5, 6, 7, 8];
                for (var i = 0; i < 8; i = i + 1) {
                    a[i] = b[i] * b[i];
                }
                print(a[7]);
            }
        "#;
        let inst = detect_first(src).unwrap();
        assert_eq!(inst.kind(), PatternKind::DataParallelLoop);
        assert!(inst.reductions.is_empty());
    }

    #[test]
    fn reduction_loop_is_doall_with_reduction() {
        let src = r#"
            fn main() {
                var s = 0;
                foreach (x in range(0, 20)) {
                    s += x * x;
                }
                print(s);
            }
        "#;
        let inst = detect_first(src).unwrap();
        assert_eq!(inst.kind(), PatternKind::DataParallelLoop);
        assert_eq!(inst.reductions, vec!["s".to_string()]);
    }

    #[test]
    fn break_rejects_via_plcd() {
        let src = r#"
            fn main() {
                foreach (x in range(0, 10)) {
                    if (x > 5) { break; }
                    work(10);
                }
            }
        "#;
        let err = detect_first(src).unwrap_err();
        assert!(matches!(err, Rejection::ControlDependence(_)));
    }

    #[test]
    fn tight_sequential_chain_is_single_stage() {
        // Every statement depends on the shared accumulator object — no
        // pipeline possible (true sequential dependence chain).
        let src = r#"
            class Acc { var v = 1; fn mul(x) { this.v = this.v * x + 1; return this.v; } }
            fn main() {
                var acc = new Acc();
                foreach (x in range(0, 10)) {
                    var a = acc.mul(x);
                    var b = acc.mul(a);
                }
                print(acc.v);
            }
        "#;
        let err = detect_first(src).unwrap_err();
        assert_eq!(err, Rejection::SingleStage);
    }

    #[test]
    fn two_stage_pipeline_from_filter_chain() {
        let src = r#"
            class F { var g = 3; fn apply(x) { work(100); return x * this.g; } }
            fn main() {
                var f1 = new F();
                var out = [];
                foreach (x in range(0, 10)) {
                    var a = f1.apply(x);
                    out.add(a);
                }
                print(len(out));
            }
        "#;
        let inst = detect_first(src).unwrap();
        assert_eq!(inst.kind(), PatternKind::Pipeline);
        assert_eq!(inst.stages.len(), 2);
        assert!(inst.stages[0].replicable);
        assert!(inst.stages[0].cost_share > 0.8);
    }

    #[test]
    fn io_in_loop_prevents_doall_but_allows_pipeline() {
        let src = r#"
            class F { var g = 3; fn apply(x) { work(100); return x * this.g; } }
            fn main() {
                var f1 = new F();
                foreach (x in range(0, 10)) {
                    var a = f1.apply(x);
                    print(a);
                }
            }
        "#;
        let inst = detect_first(src).unwrap();
        assert_eq!(inst.kind(), PatternKind::Pipeline);
        let last = inst.stages.last().unwrap();
        assert!(!last.replicable, "printing stage must not replicate");
    }

    #[test]
    fn pure_independent_statements_are_masterworker() {
        let src = r#"
            class F { var g = 2; fn apply(x) { work(100); return x * this.g; } }
            fn main() {
                var f1 = new F();
                var f2 = new F();
                var a = [0,0,0,0,0,0];
                var b = [0,0,0,0,0,0];
                for (var i = 0; i < 6; i = i + 1) {
                    a[i] = f1.apply(i);
                    b[i] = f2.apply(i);
                }
                print(a[0] + b[0]);
            }
        "#;
        // Disjoint dynamic element writes discharge the static carries →
        // the two statements are independent → this is in fact a DOALL
        // (each iteration is independent).
        let inst = detect_first(src).unwrap();
        assert_eq!(inst.kind(), PatternKind::DataParallelLoop);
    }

    #[test]
    fn detect_patterns_ranks_by_speedup() {
        let src = r#"
            class F { var g = 2; fn apply(x) { work(200); return x * this.g; } }
            fn main() {
                var f = new F();
                var out = [];
                // hot DOALL
                var a = [0,0,0,0,0,0,0,0];
                for (var i = 0; i < 8; i = i + 1) { a[i] = f.apply(i); }
                // modest two-stage pipeline
                foreach (x in range(0, 8)) {
                    var v = f.apply(x);
                    out.add(v);
                }
                print(len(out) + a[0]);
            }
        "#;
        let m = model_of(src);
        let found = detect_patterns(&m, &DetectOptions::default());
        assert_eq!(found.len(), 2);
        assert!(found[0].est_speedup >= found[1].est_speedup);
        assert_eq!(found[0].kind(), PatternKind::DataParallelLoop);
    }

    #[test]
    fn static_only_model_is_more_conservative() {
        // Without a dynamic profile the element-wise writes stay carried
        // and the loop is not a DOALL.
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
        let p = parse(src).unwrap();
        let m = SemanticModel::build_static(&p);
        let l = m.loops[0].clone();
        let r = detect_loop(&m, &l, &DetectOptions::default());
        assert!(r.is_err(), "static-only should not claim DOALL: {r:?}");
    }

    #[test]
    fn a_model_without_a_profile_never_consults_a_trace() {
        // Poison the loop's trace: every body statement writes one shared
        // field in iterations 0 and 1, so every pair of statements carries
        // a dependence — for whoever reads the trace.
        use patty_minilang::profile::{Access, AccessKind, DynLoc, LoopTrace};
        let mut poisoned = model_of(AVISTREAM);
        let l = poisoned.loops[0].clone();
        let t = poisoned.profile.as_mut().unwrap().loop_traces.get_mut(&l.id).unwrap();
        let accesses = l
            .body_stmts
            .iter()
            .flat_map(|&stmt| [0, 1].map(|iter| Access { iter, stmt, loc: 0, kind: AccessKind::Write }))
            .collect();
        let poison = vec![DynLoc::Field(99, "poison".into())];
        *t = LoopTrace::new(t.iterations, 2, t.stmt_cost.clone(), poison, accesses);

        let opts = DetectOptions::default();
        // With the profile, the poison merges the body into one stage.
        let dynamic = detect_loop(&poisoned, &l, &opts);
        assert_eq!(dynamic.unwrap_err(), Rejection::SingleStage);
        // Dropped, the poisoned trace is never read: detection answers
        // exactly as on a model built without a profile.
        poisoned.profile = None;
        let found = detect_loop(&poisoned, &l, &opts).unwrap();
        let static_model = SemanticModel::build_static(&parse(AVISTREAM).unwrap());
        let expected = detect_loop(&static_model, &l, &opts).unwrap();
        assert!(found.stages.len() > 1, "{:?}", found.stages);
        assert_eq!(found.arch.expr, expected.arch.expr);
        assert_eq!(found.stages, expected.stages);
    }

    #[test]
    fn stream_length_recorded() {
        let inst = detect_first(AVISTREAM).unwrap();
        assert_eq!(inst.arch.stream_length, 12);
    }

    #[test]
    fn while_with_simple_induction_folds_into_generator() {
        // `i = i + 1` belongs to the StreamGenerator (rule PLPL); the
        // remaining body forms the stages.
        let src = r#"
            class F { var g = 2; fn apply(x) { work(120); return x * this.g; } }
            fn main() {
                var f = new F();
                var out = [];
                var i = 0;
                while (i < 10) {
                    var v = f.apply(i);
                    out.add(v);
                    i = i + 1;
                }
                print(len(out));
            }
        "#;
        let inst = detect_first(src).unwrap();
        assert_eq!(inst.kind(), PatternKind::Pipeline);
        assert_eq!(inst.stages.len(), 2, "induction update must not be a stage");
    }

    #[test]
    fn search_loop_condition_dependence_rejected() {
        // The trip count depends on processed data: `runLen` advances by a
        // body-computed amount the condition observes — no stream exists.
        let src = r#"
            fn main() {
                var data = [1, 1, 1, 2, 2, 3];
                var i = 0;
                while (i < len(data)) {
                    var v = data[i];
                    var runLen = 1;
                    while (i + runLen < len(data) && data[i + runLen] == v) {
                        runLen = runLen + 1;
                    }
                    print(v, runLen);
                    i = i + runLen;
                }
            }
        "#;
        let err = detect_first(src).unwrap_err();
        assert!(
            matches!(err, Rejection::HeaderDependence(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn condition_reading_mutated_collection_rejected() {
        // `while (len(queue) > 0)` consuming the queue: the header
        // observes the mutation.
        let src = r#"
            fn main() {
                var queue = [5, 4, 3, 2, 1];
                var processed = 0;
                while (queue.len() > 0) {
                    queue.clear();
                    processed += 1;
                }
                print(processed);
            }
        "#;
        let m = model_of(src);
        let l = m.loops[0].clone();
        let r = detect_loop(&m, &l, &DetectOptions::default());
        assert!(
            matches!(r, Err(Rejection::HeaderDependence(_)) | Err(Rejection::SingleStage)),
            "got {r:?}"
        );
    }

    #[test]
    fn escape_style_iteration_is_not_a_pattern() {
        // x/y feed back into the condition through non-inductive updates.
        let src = r#"
            fn main() {
                var x = 1;
                var y = 1;
                var iter = 0;
                while (iter < 10 && x * x + y * y < 10000) {
                    var nx = x * 2 - y;
                    var ny = x + y;
                    x = nx;
                    y = ny;
                    iter = iter + 1;
                }
                print(x, y);
            }
        "#;
        let err = detect_first(src).unwrap_err();
        assert!(matches!(err, Rejection::HeaderDependence(_)), "got {err:?}");
    }
}
