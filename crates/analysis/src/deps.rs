//! Static data-dependence analysis over loop bodies (rules PLDD / PLDS).
//!
//! For a loop body we compute, per pair of direct body statements, the
//! may-dependencies (flow / anti / output) and classify each as
//! intra-iteration (preserved for free by a pipeline's fixed processing
//! order) or possibly loop-carried (forces stage fusion per rule PLDD).

use crate::effects::SummaryTable;
use crate::loc::StaticLoc;
use crate::loops::{declared_vars, LoopInfo};
use crate::rw::{stmt_effects, Effects};
use patty_minilang::ast::StmtTable;
use patty_minilang::profile::DepKind;
use patty_minilang::span::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// A statically derived may-dependence between two direct body statements
/// of a loop (possibly the same statement, for self-carried dependencies).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct StaticDep {
    pub src: NodeId,
    pub dst: NodeId,
    pub kind: DepKind,
    pub loc: StaticLoc,
    /// May this dependence cross iterations?
    pub carried: bool,
}

/// The static dependence summary of one loop.
#[derive(Clone, Debug, Default)]
pub struct LoopDeps {
    /// Effects of each direct body statement, in body order.
    pub stmt_effects: BTreeMap<NodeId, Effects>,
    /// All may-dependencies.
    pub deps: Vec<StaticDep>,
    /// Variables that are iteration-local (declared inside the body or the
    /// loop's own iteration variable).
    pub iteration_locals: BTreeSet<String>,
}

impl LoopDeps {
    /// Compute the dependence summary of `loop_info`, looking its
    /// statements up in `by_id`, its program's statement table.
    pub fn compute(by_id: &StmtTable, loop_info: &LoopInfo, table: &SummaryTable) -> LoopDeps {
        let mut out = LoopDeps::default();
        if let Some(v) = &loop_info.iter_var {
            out.iteration_locals.insert(v.clone());
        }
        let stmts: Vec<_> = loop_info
            .body_stmts
            .iter()
            .filter_map(|id| by_id.get(*id))
            .collect();
        for s in &stmts {
            for v in declared_vars(s) {
                out.iteration_locals.insert(v);
            }
            out.stmt_effects.insert(s.id, stmt_effects(s, table));
        }
        // For `for` loops the induction variable updated in the header is a
        // carried dependence by construction; the header is handled as the
        // StreamGenerator stage (rule PLPL), so body deps on header-written
        // vars are *reads of the stream element* rather than carried deps.
        // We therefore treat the induction variable like an iteration-local.
        if let Some(stmt) = by_id.get(loop_info.id) {
            if let patty_minilang::ast::StmtKind::For { init, update, .. } = &stmt.kind {
                for h in [init, update].into_iter().flatten() {
                    match &h.kind {
                        patty_minilang::ast::StmtKind::VarDecl { name, .. } => {
                            out.iteration_locals.insert(name.clone());
                        }
                        patty_minilang::ast::StmtKind::Assign { target, .. } => {
                            if let patty_minilang::ast::LValueKind::Var(name) = &target.kind {
                                out.iteration_locals.insert(name.clone());
                            }
                        }
                        _ => {}
                    }
                }
            }
        }

        let ids: Vec<NodeId> = stmts.iter().map(|s| s.id).collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in ids.iter().skip(i) {
                let ea = &out.stmt_effects[&a];
                let eb = &out.stmt_effects[&b];
                let push = |src: NodeId,
                                dst: NodeId,
                                kind: DepKind,
                                loc: &StaticLoc,
                                deps: &mut Vec<StaticDep>,
                                locals: &BTreeSet<String>| {
                    let carried = match loc {
                        StaticLoc::Var(v) => !locals.contains(v),
                        _ => true,
                    };
                    // Same-statement intra-iteration "dependence" is not a
                    // dependence at all; only the carried direction counts.
                    if src == dst && !carried {
                        return;
                    }
                    deps.push(StaticDep { src, dst, kind, loc: loc.clone(), carried });
                };
                let mut deps = Vec::new();
                for w in &ea.writes {
                    for r in &eb.reads {
                        if w.conflicts(r) {
                            push(a, b, DepKind::Flow, w, &mut deps, &out.iteration_locals);
                        }
                    }
                    for w2 in &eb.writes {
                        if w.conflicts(w2) {
                            push(a, b, DepKind::Output, w, &mut deps, &out.iteration_locals);
                        }
                    }
                }
                for r in &ea.reads {
                    for w in &eb.writes {
                        if r.conflicts(w) {
                            push(a, b, DepKind::Anti, w, &mut deps, &out.iteration_locals);
                        }
                    }
                }
                out.deps.extend(deps);
            }
        }
        out.deps.sort();
        out.deps.dedup();
        out
    }

    /// The carried dependencies only.
    pub fn carried(&self) -> impl Iterator<Item = &StaticDep> {
        self.deps.iter().filter(|d| d.carried)
    }

    /// The intra-iteration dependencies only (these define the dataflow
    /// along the pipeline, rule PLDS).
    pub fn intra(&self) -> impl Iterator<Item = &StaticDep> {
        self.deps.iter().filter(|d| !d.carried)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loops::collect_loops;
    use patty_minilang::parse;

    fn deps_of(src: &str) -> (patty_minilang::Program, LoopInfo, LoopDeps) {
        let p = parse(src).unwrap();
        let table = SummaryTable::build(&p);
        let loops = collect_loops(&p);
        let l = loops[0].clone();
        let d = LoopDeps::compute(&p.stmt_table(), &l, &table);
        (p, l, d)
    }

    #[test]
    fn accumulator_is_carried_flow_dep() {
        let (_, l, d) = deps_of("fn main() { var s = 0; foreach (x in xs) { s = s + x; } }");
        let stmt = l.body_stmts[0];
        assert!(d
            .carried()
            .any(|dep| dep.src == stmt && dep.dst == stmt && dep.kind == DepKind::Flow));
    }

    #[test]
    fn iteration_local_chain_is_intra_only() {
        let src = r#"
            fn main() {
                foreach (x in xs) {
                    var a = x * 2;
                    var b = a + 1;
                }
            }
        "#;
        let (_, l, d) = deps_of(src);
        let (s1, s2) = (l.body_stmts[0], l.body_stmts[1]);
        // flow dep a: s1 -> s2, intra-iteration
        assert!(d
            .intra()
            .any(|dep| dep.src == s1 && dep.dst == s2 && dep.kind == DepKind::Flow));
        // but nothing carried between them
        assert!(!d.carried().any(|dep| dep.src == s1 && dep.dst == s2));
    }

    #[test]
    fn list_append_is_carried_on_collection() {
        let src = "fn main() { foreach (x in xs) { out.add(x); } }";
        let (_, l, d) = deps_of(src);
        let s = l.body_stmts[0];
        assert!(d
            .carried()
            .any(|dep| dep.src == s && dep.dst == s && matches!(dep.loc, StaticLoc::Struct(_))));
    }

    #[test]
    fn for_induction_variable_not_carried_into_body() {
        let src = "fn main() { var a = [0,0,0]; for (var i = 0; i < 3; i = i + 1) { a[i] = i; } }";
        let (_, _l, d) = deps_of(src);
        // body statement a[i] = i reads i, but i is header-managed
        // (StreamGenerator), so no carried Var("i") dependence on the body.
        assert!(!d.carried().any(|dep| dep.loc == StaticLoc::Var("i".into())));
        // The write to a's elements *is* statically carried (index-
        // insensitive static view) — dynamic evidence refines this later.
        assert!(d.carried().any(|dep| matches!(&dep.loc, StaticLoc::Elem(p) if p == "a")));
    }

    #[test]
    fn distinct_filters_have_no_mutual_deps() {
        let src = r#"
            class Filter { var g = 2; fn apply(x) { return x * this.g; } }
            fn main() {
                foreach (x in xs) {
                    var a = cropFilter.apply(x);
                    var b = histoFilter.apply(x);
                }
            }
        "#;
        let (_, l, d) = deps_of(src);
        let (s1, s2) = (l.body_stmts[0], l.body_stmts[1]);
        // The optimistic analysis sees different receivers → no deps in
        // either direction between the two filter statements.
        assert!(!d.deps.iter().any(|dep| (dep.src == s1 && dep.dst == s2)
            || (dep.src == s2 && dep.dst == s1)));
    }

    #[test]
    fn write_after_read_is_anti_dep() {
        let src = r#"
            fn main() {
                foreach (x in xs) {
                    var a = shared.v;
                    shared.v = x;
                }
            }
        "#;
        let (_, l, d) = deps_of(src);
        let (s1, s2) = (l.body_stmts[0], l.body_stmts[1]);
        assert!(d
            .deps
            .iter()
            .any(|dep| dep.src == s1 && dep.dst == s2 && dep.kind == DepKind::Anti));
    }
}
