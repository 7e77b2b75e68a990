//! The semantic model: "the cross product from the control flow graph, the
//! data dependencies, the call graph, and runtime information"
//! (Section 2.1). This is the single input artifact the pattern detector
//! consumes, and what the Patty tool visualizes after phase 1.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::deps::LoopDeps;
use crate::effects::SummaryTable;
use crate::loops::{collect_loops, LoopInfo};
use crate::rw::{stmt_effects, Effects};
use patty_minilang::ast::Program;
use patty_minilang::interp::{run, InterpOptions};
use patty_minilang::profile::Profile;
use patty_minilang::span::NodeId;
use patty_minilang::LangError;
use std::collections::BTreeMap;

/// The joined static × dynamic model of one program.
#[derive(Clone, Debug)]
pub struct SemanticModel {
    /// The analyzed program (owned; the model outlives the parse).
    pub program: Program,
    /// Interprocedural side-effect summaries.
    pub summaries: SummaryTable,
    /// One CFG per function/method, keyed by qualified name.
    pub cfgs: BTreeMap<String, Cfg>,
    /// The static call graph.
    pub callgraph: CallGraph,
    /// Every loop in the program.
    pub loops: Vec<LoopInfo>,
    /// Static dependence summaries per loop (keyed by loop id).
    pub loop_deps: BTreeMap<NodeId, LoopDeps>,
    /// Runtime information from the dynamic analysis, when available.
    pub profile: Option<Profile>,
}

impl SemanticModel {
    /// Build the model of `program`, which it takes over: the static
    /// analyses, then, given `dynamic` options, one profiled execution of
    /// `main()` (the paper's dynamic analysis step; the Patty wizard asks
    /// the engineer for input data — here the program's `main` provides
    /// it). Without them the model is static only and this cannot fail.
    pub fn from_program(
        program: Program,
        dynamic: Option<InterpOptions>,
    ) -> Result<SemanticModel, LangError> {
        let summaries = SummaryTable::build(&program);
        let mut cfgs = BTreeMap::new();
        for f in &program.funcs {
            cfgs.insert(f.name.clone(), Cfg::build(f));
        }
        for c in &program.classes {
            for m in &c.methods {
                cfgs.insert(format!("{}.{}", c.name, m.name), Cfg::build(m));
            }
        }
        let callgraph = CallGraph::build(&program);
        let loops = collect_loops(&program);
        let stmts = program.stmt_table();
        let mut loop_deps = BTreeMap::new();
        for l in &loops {
            loop_deps.insert(l.id, LoopDeps::compute(&stmts, l, &summaries));
        }
        let profile = match dynamic {
            Some(options) => Some(run(&program, options)?.profile),
            None => None,
        };
        Ok(SemanticModel { program, summaries, cfgs, callgraph, loops, loop_deps, profile })
    }

    /// The static model of a copy of `program`.
    pub fn build_static(program: &Program) -> SemanticModel {
        SemanticModel::from_program(program.clone(), None).expect("a static build runs nothing")
    }

    /// The full model of a copy of `program`, profiled under `options`.
    pub fn build(program: &Program, options: InterpOptions) -> Result<SemanticModel, LangError> {
        SemanticModel::from_program(program.clone(), Some(options))
    }

    /// Attach an existing profile (e.g. from a custom entry point).
    pub fn with_profile(mut self, profile: Profile) -> SemanticModel {
        self.profile = Some(profile);
        self
    }

    /// The loop info for a loop id.
    pub fn loop_info(&self, id: NodeId) -> Option<&LoopInfo> {
        self.loops.iter().find(|l| l.id == id)
    }

    /// Static effects of an arbitrary statement.
    pub fn effects_of(&self, stmt_id: NodeId) -> Option<Effects> {
        let stmt = self.program.find_stmt(stmt_id)?;
        Some(stmt_effects(stmt, &self.summaries))
    }

    /// Runtime share of a statement (0.0 without a profile).
    pub fn runtime_share(&self, stmt_id: NodeId) -> f64 {
        self.profile.as_ref().map(|p| p.share(stmt_id)).unwrap_or(0.0)
    }

    /// Cost share of a direct body statement within its loop: dynamic when
    /// profiled, uniform otherwise.
    pub fn stage_cost_share(&self, loop_id: NodeId, stmt_id: NodeId) -> f64 {
        if let Some(p) = &self.profile {
            if let Some(t) = p.loop_traces.get(&loop_id) {
                let s = t.cost_share(stmt_id);
                if t.stmt_cost.values().sum::<u64>() > 0 {
                    return s;
                }
            }
        }
        let n = self
            .loop_info(loop_id)
            .map(|l| l.body_stmts.len())
            .unwrap_or(1)
            .max(1);
        1.0 / n as f64
    }

    /// Observed iteration count of a loop (0 without a profile).
    pub fn loop_iterations(&self, loop_id: NodeId) -> u64 {
        self.profile
            .as_ref()
            .and_then(|p| p.loop_traces.get(&loop_id))
            .map(|t| t.iterations)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_minilang::parse;

    const PIPE: &str = r#"
        class Filter { var g = 2; fn apply(x) { work(50); return x * this.g; } }
        fn main() {
            var f1 = new Filter();
            var f2 = new Filter();
            var out = [];
            foreach (x in range(0, 10)) {
                var a = f1.apply(x);
                var b = f2.apply(a);
                out.add(b);
            }
            print(len(out));
        }
    "#;

    #[test]
    fn builds_all_ingredients() {
        let p = parse(PIPE).unwrap();
        let m = SemanticModel::build(&p, InterpOptions::default()).unwrap();
        assert!(m.cfgs.contains_key("main"));
        assert!(m.cfgs.contains_key("Filter.apply"));
        assert_eq!(m.loops.len(), 1);
        assert!(m.profile.is_some());
        assert!(m.callgraph.callees("main").any(|c| c == "Filter.apply"));
        assert!(m.loop_deps.contains_key(&m.loops[0].id));
    }

    #[test]
    fn stage_cost_share_prefers_dynamic() {
        let p = parse(PIPE).unwrap();
        let m = SemanticModel::build(&p, InterpOptions::default()).unwrap();
        let l = &m.loops[0];
        // first two statements call work(50): dominant cost vs out.add
        let a = m.stage_cost_share(l.id, l.body_stmts[0]);
        let c = m.stage_cost_share(l.id, l.body_stmts[2]);
        assert!(a > 0.3, "filter stage share {a}");
        assert!(c < 0.2, "cheap stage share {c}");
    }

    #[test]
    fn static_model_uses_uniform_shares() {
        let p = parse(PIPE).unwrap();
        let m = SemanticModel::build_static(&p);
        let l = &m.loops[0];
        let share = m.stage_cost_share(l.id, l.body_stmts[0]);
        assert!((share - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.loop_iterations(l.id), 0);
    }

    #[test]
    fn loop_iterations_from_profile() {
        let p = parse(PIPE).unwrap();
        let m = SemanticModel::build(&p, InterpOptions::default()).unwrap();
        assert_eq!(m.loop_iterations(m.loops[0].id), 10);
    }
}
