//! Path-coverage input generation.
//!
//! "After this, we perform a path coverage analysis to generate a set of
//! input data for each unit test." (Section 2.1)
//!
//! Candidate inputs are drawn from a small value domain per parameter;
//! each candidate is executed and its branch coverage recorded; a greedy
//! set cover then picks a minimal input set that reaches the maximal
//! coverage. Unit tests stay small, which is exactly what keeps the CHESS
//! search space tractable ("unit tests are rather small portions of a
//! whole program, so we can keep the search space for parallel errors
//! also rather small").
//!
//! Candidate runs are bounded by fuel (the VM's virtual cost), never by
//! wall clock: each run may spend `CANDIDATE_FUEL`, all runs of one
//! function together `FUNCTION_FUEL`, and evaluation stops when that is
//! spent. The source may come from anyone (`patty serve`), and a function
//! that never returns must not cost one full run per candidate.

use patty_minilang::ast::{FuncDecl, Program, Stmt, StmtKind};
use patty_minilang::span::NodeId;
use patty_minilang::vm::run_compiled_metered;
use patty_minilang::{compile_fused, CompiledProgram, InterpOptions, Value};
use std::collections::BTreeSet;

/// Virtual cost one candidate run may spend.
const CANDIDATE_FUEL: u64 = 2_000_000;

/// Virtual cost all candidates of one function may spend together.
const FUNCTION_FUEL: u64 = 4 * CANDIDATE_FUEL;

/// A coverage goal: a branch direction of a conditional statement.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Goal {
    /// The then-branch of the `if` with this id was entered.
    Then(NodeId),
    /// The else-branch (or fallthrough) of the `if` was taken.
    Else(NodeId),
    /// The loop body with this id executed at least once.
    LoopBody(NodeId),
    /// The loop with this id exited with zero iterations.
    LoopSkipped(NodeId),
}

/// Result of input generation.
#[derive(Clone, Debug)]
pub struct CoverageReport {
    /// The selected inputs (argument vectors for the function under test).
    pub inputs: Vec<Vec<Value>>,
    /// Goals covered by the selected inputs.
    pub covered: usize,
    /// Goals covered by *any* candidate (the achievable maximum over the
    /// candidate domain).
    pub achievable: usize,
    /// All goals in the function under test.
    pub total: usize,
    /// Candidates executed before the domain or the function's fuel ran
    /// out.
    pub candidates_run: usize,
}

/// A statement that carries two goals, and the first statement of the arm
/// whose hit count tells them apart.
struct Site {
    stmt: NodeId,
    first_in_arm: Option<NodeId>,
    is_loop: bool,
}

/// The branch points of a function, in source order.
fn sites_of(f: &FuncDecl) -> Vec<Site> {
    let mut sites = Vec::new();
    patty_minilang::ast::visit_block(&f.body, &mut |s: &Stmt| {
        let (arm, is_loop) = match &s.kind {
            StmtKind::If { then_blk, .. } => (then_blk, false),
            StmtKind::While { body, .. }
            | StmtKind::For { body, .. }
            | StmtKind::Foreach { body, .. } => (body, true),
            _ => return,
        };
        sites.push(Site { stmt: s.id, first_in_arm: arm.stmts.first().map(|t| t.id), is_loop });
    });
    sites
}

/// Goals covered by one execution, derived from statement hit counts.
fn covered_goals(sites: &[Site], hits: impl Fn(NodeId) -> u64) -> BTreeSet<Goal> {
    let mut covered = BTreeSet::new();
    for site in sites {
        let own = hits(site.stmt);
        if own == 0 {
            continue;
        }
        let arm_hits = site.first_in_arm.map(&hits).unwrap_or(0);
        if site.is_loop {
            covered.insert(if arm_hits > 0 {
                Goal::LoopBody(site.stmt)
            } else {
                Goal::LoopSkipped(site.stmt)
            });
        } else {
            if arm_hits > 0 {
                covered.insert(Goal::Then(site.stmt));
            }
            if arm_hits < own {
                covered.insert(Goal::Else(site.stmt));
            }
        }
    }
    covered
}

/// Path-coverage input sets for every parameterized free function of
/// `program` (the inputs the generated unit tests run on). The program is
/// compiled once; every candidate of every function runs on that one
/// compiled program.
pub fn generate_test_inputs(program: &Program) -> Vec<(String, CoverageReport)> {
    let targets: Vec<&FuncDecl> =
        program.funcs.iter().filter(|f| !f.params.is_empty() && f.name != "main").collect();
    if targets.is_empty() {
        return Vec::new(); // nothing to run, so nothing to compile
    }
    let compiled = compile_fused(program, false); // coverage runs are untraced
    targets
        .into_iter()
        .map(|f| (f.name.clone(), cover(&compiled, f, &[-3, -1, 0, 1, 2, 7], 4, 512)))
        .collect()
}

/// Generate a small input set for `func` maximizing branch coverage over
/// the integer candidate domain `ints` (each parameter independently).
/// The candidate product is capped at `max_candidates`; at most
/// `max_inputs` inputs are selected (greedy set cover). One-shot: this
/// compiles `program` for the one function; [`generate_test_inputs`]
/// compiles once for all of them.
pub fn path_coverage_inputs(
    program: &Program,
    func: &str,
    ints: &[i64],
    max_inputs: usize,
    max_candidates: usize,
) -> CoverageReport {
    match program.func(func) {
        Some(f) => cover(&compile_fused(program, false), f, ints, max_inputs, max_candidates),
        None => {
            CoverageReport { inputs: vec![], covered: 0, achievable: 0, total: 0, candidates_run: 0 }
        }
    }
}

/// The coverage search for one function of an already-compiled program.
fn cover(
    compiled: &CompiledProgram,
    f: &FuncDecl,
    ints: &[i64],
    max_inputs: usize,
    max_candidates: usize,
) -> CoverageReport {
    let sites = sites_of(f);
    // Cartesian product of the int domain, capped.
    let mut candidates: Vec<Vec<Value>> = vec![vec![]];
    for _ in 0..f.params.len() {
        let mut next = Vec::new();
        'outer: for c in &candidates {
            for v in ints {
                let mut c2 = c.clone();
                c2.push(Value::Int(*v));
                next.push(c2);
                if next.len() >= max_candidates {
                    break 'outer;
                }
            }
        }
        candidates = next;
    }

    // Execute candidates and record their coverage until the domain or the
    // function's fuel is exhausted.
    let mut fuel = FUNCTION_FUEL;
    let mut candidates_run = 0;
    let mut evaluated: Vec<(Vec<Value>, BTreeSet<Goal>)> = Vec::new();
    for cand in candidates {
        if fuel == 0 {
            break;
        }
        let opts = InterpOptions {
            trace_loops: false,
            step_limit: CANDIDATE_FUEL.min(fuel),
            ..InterpOptions::default()
        };
        let (outcome, cost) = run_compiled_metered(compiled, &f.name, cand.clone(), opts);
        candidates_run += 1;
        fuel = fuel.saturating_sub(cost);
        let Ok(outcome) = outcome else {
            continue; // crashing inputs are not useful unit-test inputs
        };
        let hits = outcome.profile.stmt_hits;
        let covered = covered_goals(&sites, |id| hits.get(&id).copied().unwrap_or(0));
        evaluated.push((cand, covered));
    }
    let achievable: BTreeSet<Goal> = evaluated
        .iter()
        .flat_map(|(_, c)| c.iter().cloned())
        .collect();

    // Greedy set cover.
    let mut chosen: Vec<Vec<Value>> = Vec::new();
    let mut covered: BTreeSet<Goal> = BTreeSet::new();
    while chosen.len() < max_inputs && covered.len() < achievable.len() {
        let best = evaluated
            .iter()
            .max_by_key(|(_, c)| c.difference(&covered).count())
            .map(|(cand, c)| (cand.clone(), c.clone()));
        let Some((cand, c)) = best else { break };
        let gain = c.difference(&covered).count();
        if gain == 0 {
            break;
        }
        covered.extend(c);
        chosen.push(cand);
    }
    CoverageReport {
        inputs: chosen,
        covered: covered.len(),
        achievable: achievable.len(),
        total: 2 * sites.len(),
        candidates_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_minilang::parse;

    #[test]
    fn covers_both_branches_with_two_inputs() {
        let src = r#"
            fn classify(x) {
                if (x > 0) {
                    return 1;
                } else {
                    return 0 - 1;
                }
            }
            fn main() { }
        "#;
        let p = parse(src).unwrap();
        let r = path_coverage_inputs(&p, "classify", &[-2, 0, 3], 4, 256);
        assert_eq!(r.covered, 2);
        assert_eq!(r.achievable, 2);
        assert!(r.inputs.len() <= 2);
    }

    #[test]
    fn greedy_cover_is_minimal_for_independent_branches() {
        let src = r#"
            fn f(a, b) {
                var r = 0;
                if (a > 0) { r += 1; }
                if (b > 0) { r += 2; }
                return r;
            }
            fn main() { }
        "#;
        let p = parse(src).unwrap();
        let r = path_coverage_inputs(&p, "f", &[-1, 1], 8, 256);
        // one input (1, 1) covers both thens; one (-1, -1) both elses
        assert_eq!(r.covered, 4);
        assert!(r.inputs.len() <= 2, "greedy should need at most two: {:?}", r.inputs);
    }

    #[test]
    fn loop_goals_need_zero_and_nonzero_counts() {
        let src = r#"
            fn f(n) {
                var s = 0;
                for (var i = 0; i < n; i = i + 1) { s += i; }
                return s;
            }
            fn main() { }
        "#;
        let p = parse(src).unwrap();
        let r = path_coverage_inputs(&p, "f", &[0, 3], 4, 64);
        assert_eq!(r.covered, 2, "body-executed and zero-iteration goals");
    }

    #[test]
    fn unreachable_branch_is_reported_unachievable() {
        let src = r#"
            fn f(x) {
                if (x * 0 == 1) { return 99; }
                return x;
            }
            fn main() { }
        "#;
        let p = parse(src).unwrap();
        let r = path_coverage_inputs(&p, "f", &[-5, 0, 5], 4, 64);
        assert_eq!(r.total, 2);
        assert_eq!(r.achievable, 1, "then-branch is unreachable");
        assert_eq!(r.covered, 1);
    }

    #[test]
    fn crashing_inputs_are_skipped() {
        let src = r#"
            fn f(x) {
                var v = 10 / x;
                if (v > 1) { return 1; }
                return 0;
            }
            fn main() { }
        "#;
        let p = parse(src).unwrap();
        // x = 0 crashes; the other candidates still cover both branches.
        let r = path_coverage_inputs(&p, "f", &[0, 1, 100], 4, 64);
        assert_eq!(r.covered, 2);
        assert!(r.inputs.iter().all(|i| !matches!(i[0], Value::Int(0))));
    }

    #[test]
    fn respects_max_inputs() {
        let src = r#"
            fn f(x) {
                if (x == 1) { return 1; }
                if (x == 2) { return 2; }
                if (x == 3) { return 3; }
                return 0;
            }
            fn main() { }
        "#;
        let p = parse(src).unwrap();
        let r = path_coverage_inputs(&p, "f", &[1, 2, 3, 4], 2, 64);
        assert_eq!(r.inputs.len(), 2);
        assert!(r.covered < r.achievable);
    }

    const DOMAIN: [i64; 6] = [-3, -1, 0, 1, 2, 7];

    #[test]
    fn a_function_that_never_returns_costs_four_candidates() {
        let src = "fn spin(a, b, c) { var x = 0; while (true) { x = x + 1; } return x; } \
                   fn main() { print(1); }";
        let p = parse(src).unwrap();
        let r = path_coverage_inputs(&p, "spin", &DOMAIN, 4, 512);
        assert!(r.candidates_run <= 4, "{} candidates ran", r.candidates_run);
        assert!(r.inputs.is_empty());
        assert_eq!((r.covered, r.total), (0, 2));
    }

    #[test]
    fn a_crash_is_charged_what_it_spent() {
        // Every candidate burns most of its fuel and then fails: the budget
        // has to see the cost of a run that returned an error.
        let src = "fn burn(a, b) { var x = 0; while (x < 250000) { x = x + 1; } return 1 / 0; } \
                   fn main() { }";
        let p = parse(src).unwrap();
        let r = path_coverage_inputs(&p, "burn", &DOMAIN, 4, 512);
        assert!(r.candidates_run < 36, "{} candidates ran", r.candidates_run);
        assert!(r.inputs.is_empty());
    }

    #[test]
    fn a_terminating_function_runs_its_whole_domain() {
        let src = r#"
            fn f(a, b, c) {
                var s = 0;
                for (var i = 0; i < a + b + c; i = i + 1) { s += i; }
                return s;
            }
            fn main() { }
        "#;
        let p = parse(src).unwrap();
        let r = path_coverage_inputs(&p, "f", &DOMAIN, 4, 512);
        assert_eq!(r.candidates_run, 216);
        assert_eq!(r.covered, 2);
    }
}
