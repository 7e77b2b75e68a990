//! Loop inventory and control-effect classification.
//!
//! Rule PLPL considers every loop a pipeline candidate; rule PLCD rejects
//! loop bodies whose statements can affect control flow across stream
//! elements (`break`, `return` escaping the iteration).

use patty_minilang::ast::{Block, FuncDecl, Program, Stmt, StmtKind};
use patty_minilang::span::{NodeId, Span};

/// What kind of loop a candidate is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopKind {
    While,
    For,
    Foreach,
}

/// One loop in the program.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// The loop statement's node id.
    pub id: NodeId,
    /// Enclosing function (qualified `Class.method` for methods).
    pub func: String,
    pub kind: LoopKind,
    pub span: Span,
    /// Ids of the direct body statements (the initial pipeline stages).
    pub body_stmts: Vec<NodeId>,
    /// Nesting depth (0 = outermost in its function).
    pub depth: usize,
    /// The foreach iteration variable, if any.
    pub iter_var: Option<String>,
}

/// Cross-iteration control effects of a statement (rule PLCD).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JumpEffects {
    /// Contains a `break` that escapes the inspected statement into the
    /// surrounding loop.
    pub breaks: bool,
    /// Contains a `continue` that escapes to the surrounding loop header.
    pub continues: bool,
    /// Contains a `return`.
    pub returns: bool,
}

impl JumpEffects {
    /// A statement with any escaping jump violates the fixed processing
    /// order required by pipelines (PLCD).
    pub fn violates_plcd(&self) -> bool {
        self.breaks || self.returns
    }
}

/// Collect every loop in a program.
pub fn collect_loops(program: &Program) -> Vec<LoopInfo> {
    let mut out = Vec::new();
    for f in &program.funcs {
        collect_in_func(&f.name, f, &mut out);
    }
    for c in &program.classes {
        for m in &c.methods {
            collect_in_func(&format!("{}.{}", c.name, m.name), m, &mut out);
        }
    }
    out
}

fn collect_in_func(qualified: &str, func: &FuncDecl, out: &mut Vec<LoopInfo>) {
    collect_in_block(qualified, &func.body, 0, out);
}

fn collect_in_block(func: &str, block: &Block, depth: usize, out: &mut Vec<LoopInfo>) {
    for stmt in &block.stmts {
        collect_in_stmt(func, stmt, depth, out);
    }
}

fn collect_in_stmt(func: &str, stmt: &Stmt, depth: usize, out: &mut Vec<LoopInfo>) {
    match &stmt.kind {
        StmtKind::While { body, .. } => {
            out.push(info(func, stmt, LoopKind::While, body, depth, None));
            collect_in_block(func, body, depth + 1, out);
        }
        StmtKind::For { body, .. } => {
            out.push(info(func, stmt, LoopKind::For, body, depth, None));
            collect_in_block(func, body, depth + 1, out);
        }
        StmtKind::Foreach { var, body, .. } => {
            out.push(info(func, stmt, LoopKind::Foreach, body, depth, Some(var.clone())));
            collect_in_block(func, body, depth + 1, out);
        }
        StmtKind::If { then_blk, else_blk, .. } => {
            collect_in_block(func, then_blk, depth, out);
            if let Some(e) = else_blk {
                collect_in_block(func, e, depth, out);
            }
        }
        StmtKind::Block(b) | StmtKind::Region { body: b, .. } => {
            collect_in_block(func, b, depth, out)
        }
        _ => {}
    }
}

fn info(
    func: &str,
    stmt: &Stmt,
    kind: LoopKind,
    body: &Block,
    depth: usize,
    iter_var: Option<String>,
) -> LoopInfo {
    LoopInfo {
        id: stmt.id,
        func: func.to_string(),
        kind,
        span: stmt.span,
        body_stmts: body.stmts.iter().map(|s| s.id).collect(),
        depth,
        iter_var,
    }
}

/// Compute the jump effects that escape `stmt` (jumps consumed by loops
/// nested inside `stmt` do not escape).
pub fn jump_effects(stmt: &Stmt) -> JumpEffects {
    let mut e = JumpEffects::default();
    walk(stmt, 0, &mut e);
    return e;

    fn walk(stmt: &Stmt, loop_depth: usize, e: &mut JumpEffects) {
        match &stmt.kind {
            StmtKind::Break
                if loop_depth == 0 => {
                    e.breaks = true;
                }
            StmtKind::Continue
                if loop_depth == 0 => {
                    e.continues = true;
                }
            StmtKind::Return(_) => e.returns = true,
            StmtKind::If { then_blk, else_blk, .. } => {
                for s in &then_blk.stmts {
                    walk(s, loop_depth, e);
                }
                if let Some(b) = else_blk {
                    for s in &b.stmts {
                        walk(s, loop_depth, e);
                    }
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::For { body, .. }
            | StmtKind::Foreach { body, .. } => {
                for s in &body.stmts {
                    walk(s, loop_depth + 1, e);
                }
            }
            StmtKind::Block(b) | StmtKind::Region { body: b, .. } => {
                for s in &b.stmts {
                    walk(s, loop_depth, e);
                }
            }
            _ => {}
        }
    }
}

/// Names declared by `var` directly or transitively inside a statement,
/// used to classify which `Var` locations are iteration-local.
pub(crate) fn declared_vars(stmt: &Stmt) -> Vec<String> {
    let mut out = Vec::new();
    patty_minilang::ast::visit_stmt(stmt, &mut |s| {
        if let StmtKind::VarDecl { name, .. } = &s.kind {
            out.push(name.clone());
        }
        if let StmtKind::Foreach { var, .. } = &s.kind {
            out.push(var.clone());
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_minilang::parse;

    #[test]
    fn collects_nested_loops_with_depth() {
        let src = "fn main() { foreach (a in xs) { while (c) { } } for (;;) { break; } }";
        let loops = collect_loops(&parse(src).unwrap());
        assert_eq!(loops.len(), 3);
        let depths: Vec<(LoopKind, usize)> = loops.iter().map(|l| (l.kind, l.depth)).collect();
        assert!(depths.contains(&(LoopKind::Foreach, 0)));
        assert!(depths.contains(&(LoopKind::While, 1)));
        assert!(depths.contains(&(LoopKind::For, 0)));
    }

    #[test]
    fn collects_loops_in_methods() {
        let src = "class C { fn m() { foreach (x in this.items) { } } } fn main() { }";
        let loops = collect_loops(&parse(src).unwrap());
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].func, "C.m");
        assert_eq!(loops[0].iter_var.as_deref(), Some("x"));
    }

    #[test]
    fn body_stmts_are_direct_children() {
        let src = "fn main() { foreach (x in xs) { var a = 1; if (a > 0) { var b = 2; } } }";
        let loops = collect_loops(&parse(src).unwrap());
        assert_eq!(loops[0].body_stmts.len(), 2);
    }

    #[test]
    fn escaping_break_detected() {
        let src = "fn main() { foreach (x in xs) { if (x > 3) { break; } } }";
        let p = parse(src).unwrap();
        let loops = collect_loops(&p);
        let body_stmt = p.find_stmt(loops[0].body_stmts[0]).unwrap();
        let e = jump_effects(body_stmt);
        assert!(e.breaks && e.violates_plcd());
    }

    #[test]
    fn nested_loop_consumes_its_own_break() {
        let src = "fn main() { foreach (x in xs) { while (true) { break; } } }";
        let p = parse(src).unwrap();
        let loops = collect_loops(&p);
        let outer = loops.iter().find(|l| l.kind == LoopKind::Foreach).unwrap();
        let body_stmt = p.find_stmt(outer.body_stmts[0]).unwrap();
        let e = jump_effects(body_stmt);
        assert!(!e.breaks && !e.violates_plcd());
    }

    #[test]
    fn continue_alone_does_not_violate_plcd() {
        let src = "fn main() { foreach (x in xs) { if (x < 0) { continue; } work(1); } }";
        let p = parse(src).unwrap();
        let loops = collect_loops(&p);
        let body_stmt = p.find_stmt(loops[0].body_stmts[0]).unwrap();
        let e = jump_effects(body_stmt);
        assert!(e.continues && !e.violates_plcd());
    }

    #[test]
    fn return_violates_plcd() {
        let src = "fn main() { foreach (x in xs) { if (x == 7) { return; } } }";
        let p = parse(src).unwrap();
        let loops = collect_loops(&p);
        let body_stmt = p.find_stmt(loops[0].body_stmts[0]).unwrap();
        assert!(jump_effects(body_stmt).violates_plcd());
    }

    #[test]
    fn declared_vars_includes_nested_and_foreach() {
        let src = "fn main() { foreach (x in xs) { var a = 1; foreach (y in ys) { var b = 2; } } }";
        let p = parse(src).unwrap();
        let loops = collect_loops(&p);
        let outer = &loops[0];
        let mut names = Vec::new();
        for id in &outer.body_stmts {
            names.extend(declared_vars(p.find_stmt(*id).unwrap()));
        }
        assert!(names.contains(&"a".to_string()));
        assert!(names.contains(&"y".to_string()));
        assert!(names.contains(&"b".to_string()));
    }
}
