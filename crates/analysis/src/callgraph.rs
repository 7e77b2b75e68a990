//! Static call graph.
//!
//! Nodes are function names (`main`) and qualified methods
//! (`Image.apply`). Call sites that cannot be resolved to a unique class
//! are connected to every class declaring the method — the optimistic
//! variant of class-hierarchy analysis, sufficient for the semantic model.

use patty_minilang::ast::{Expr, ExprKind, Program};
use std::collections::{BTreeMap, BTreeSet};

/// The static call graph of a program.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    edges: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Build the call graph.
    pub fn build(program: &Program) -> CallGraph {
        let mut cg = CallGraph::default();
        let method_owners: BTreeMap<&str, Vec<&str>> = {
            let mut m: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
            for c in &program.classes {
                for meth in &c.methods {
                    m.entry(meth.name.as_str()).or_default().push(c.name.as_str());
                }
            }
            m
        };
        fn add_edges(
            edges: &mut BTreeMap<String, BTreeSet<String>>,
            program: &Program,
            method_owners: &BTreeMap<&str, Vec<&str>>,
            caller: &str,
            expr: &Expr,
        ) {
            patty_minilang::ast::visit_expr(expr, &mut |e| match &e.kind {
                ExprKind::Call { callee, .. }
                    if program.func(callee).is_some() => {
                        edges.entry(caller.to_string()).or_default().insert(callee.clone());
                    }
                ExprKind::MethodCall { method, .. } => {
                    for owner in method_owners.get(method.as_str()).into_iter().flatten() {
                        edges
                            .entry(caller.to_string())
                            .or_default()
                            .insert(format!("{owner}.{method}"));
                    }
                }
                ExprKind::New { class, .. }
                    if program.method(class, "init").is_some() => {
                        edges
                            .entry(caller.to_string())
                            .or_default()
                            .insert(format!("{class}.init"));
                    }
                _ => {}
            });
        }
        for f in &program.funcs {
            let caller = f.name.clone();
            cg.edges.entry(caller.clone()).or_default();
            patty_minilang::ast::visit_block(&f.body, &mut |s| {
                patty_minilang::ast::visit_stmt_exprs(s, &mut |e| {
                    add_edges(&mut cg.edges, program, &method_owners, &caller, e)
                });
            });
        }
        for c in &program.classes {
            for m in &c.methods {
                let caller = format!("{}.{}", c.name, m.name);
                cg.edges.entry(caller.clone()).or_default();
                patty_minilang::ast::visit_block(&m.body, &mut |s| {
                    patty_minilang::ast::visit_stmt_exprs(s, &mut |e| {
                        add_edges(&mut cg.edges, program, &method_owners, &caller, e)
                    });
                });
            }
        }
        cg
    }

    /// Direct callees of a node.
    pub fn callees(&self, caller: &str) -> impl Iterator<Item = &str> {
        self.edges.get(caller).into_iter().flatten().map(|s| s.as_str())
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &str> {
        self.edges.keys().map(|s| s.as_str())
    }

    /// Transitive closure of callees from `root`.
    pub fn reachable(&self, root: &str) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![root.to_string()];
        while let Some(n) = stack.pop() {
            if !seen.insert(n.clone()) {
                continue;
            }
            for c in self.callees(&n) {
                stack.push(c.to_string());
            }
        }
        seen.remove(root);
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_minilang::parse;

    #[test]
    fn resolves_free_functions_and_methods() {
        let src = r#"
            class Filter { fn apply(x) { return helper(x); } }
            fn helper(x) { return x; }
            fn main() { var f = new Filter(); f.apply(1); }
        "#;
        let cg = CallGraph::build(&parse(src).unwrap());
        let mains: Vec<&str> = cg.callees("main").collect();
        assert!(mains.contains(&"Filter.apply"));
        assert!(cg.callees("Filter.apply").any(|c| c == "helper"));
    }

    #[test]
    fn ambiguous_methods_fan_out() {
        let src = r#"
            class A { fn go() { } }
            class B { fn go() { } }
            fn main() { x.go(); }
        "#;
        let cg = CallGraph::build(&parse(src).unwrap());
        let callees: BTreeSet<&str> = cg.callees("main").collect();
        assert!(callees.contains("A.go") && callees.contains("B.go"));
    }

    #[test]
    fn constructor_with_init_is_an_edge() {
        let src = "class C { var n = 0; fn init(v) { this.n = v; } } fn main() { var c = new C(1); }";
        let cg = CallGraph::build(&parse(src).unwrap());
        assert!(cg.callees("main").any(|c| c == "C.init"));
    }

    #[test]
    fn reachable_is_transitive() {
        let src = "fn a() { b(); } fn b() { c(); } fn c() { } fn main() { a(); }";
        let cg = CallGraph::build(&parse(src).unwrap());
        let r = cg.reachable("main");
        assert!(r.contains("a") && r.contains("b") && r.contains("c"));
    }

    #[test]
    fn builtins_are_not_nodes() {
        let cg = CallGraph::build(&parse("fn main() { print(1); work(5); }").unwrap());
        assert_eq!(cg.callees("main").count(), 0);
    }
}
