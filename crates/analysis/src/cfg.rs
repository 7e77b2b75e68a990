//! Statement-level control flow graphs.
//!
//! One CFG per function; nodes are statement ids plus synthetic entry and
//! exit nodes. The CFG is one of the four ingredients of the semantic
//! model (Section 2.1) and powers reachability queries and the control-
//! dependence checks of rule PLCD.

use patty_minilang::ast::{Block, FuncDecl, Stmt, StmtKind};
use patty_minilang::span::NodeId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A node in the control flow graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CfgNode {
    Entry,
    Stmt(NodeId),
    Exit,
}

/// A per-function control flow graph.
#[derive(Clone, Debug, Default)]
pub struct Cfg {
    pub func: String,
    succs: BTreeMap<CfgNode, BTreeSet<CfgNode>>,
    preds: BTreeMap<CfgNode, BTreeSet<CfgNode>>,
}

impl Cfg {
    /// Build the CFG of a function.
    pub fn build(func: &FuncDecl) -> Cfg {
        let mut cfg = Cfg { func: func.name.clone(), ..Cfg::default() };
        let mut ctx = BuildCtx { cfg: &mut cfg, loop_stack: Vec::new() };
        let after = ctx.block(&func.body, vec![CfgNode::Entry]);
        for n in after {
            ctx.cfg.edge(n, CfgNode::Exit);
        }
        cfg
    }

    fn edge(&mut self, from: CfgNode, to: CfgNode) {
        self.succs.entry(from).or_default().insert(to);
        self.preds.entry(to).or_default().insert(from);
        self.succs.entry(to).or_default();
        self.preds.entry(from).or_default();
    }

    /// Successors of a node.
    pub(crate) fn succs(&self, n: CfgNode) -> impl Iterator<Item = CfgNode> + '_ {
        self.succs.get(&n).into_iter().flatten().copied()
    }

    /// Predecessors of a node.
    pub fn preds(&self, n: CfgNode) -> impl Iterator<Item = CfgNode> + '_ {
        self.preds.get(&n).into_iter().flatten().copied()
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = CfgNode> + '_ {
        self.succs.keys().copied()
    }

    /// Is `to` reachable from `from` along CFG edges?
    pub fn reaches(&self, from: CfgNode, to: CfgNode) -> bool {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            queue.extend(self.succs(n));
        }
        false
    }
}

struct BuildCtx<'a> {
    cfg: &'a mut Cfg,
    /// (break targets, continue targets) per enclosing loop: nodes that
    /// `break`/`continue` connect to are resolved after the loop body.
    loop_stack: Vec<LoopCtx>,
}

#[derive(Default)]
struct LoopCtx {
    breaks: Vec<CfgNode>,
    continues: Vec<CfgNode>,
}

impl BuildCtx<'_> {
    /// Wire a block starting from `preds` (the dangling out-edges of what
    /// came before); returns the dangling out-edges after the block.
    fn block(&mut self, block: &Block, preds: Vec<CfgNode>) -> Vec<CfgNode> {
        let mut current = preds;
        for stmt in &block.stmts {
            current = self.stmt(stmt, current);
        }
        current
    }

    fn stmt(&mut self, stmt: &Stmt, preds: Vec<CfgNode>) -> Vec<CfgNode> {
        let me = CfgNode::Stmt(stmt.id);
        for p in &preds {
            self.cfg.edge(*p, me);
        }
        match &stmt.kind {
            StmtKind::VarDecl { .. }
            | StmtKind::Assign { .. }
            | StmtKind::Expr(_) => vec![me],
            StmtKind::If { then_blk, else_blk, .. } => {
                let mut out = self.block(then_blk, vec![me]);
                match else_blk {
                    Some(e) => out.extend(self.block(e, vec![me])),
                    None => out.push(me),
                }
                out
            }
            StmtKind::While { body, .. } | StmtKind::Foreach { body, .. } => {
                self.loop_stack.push(LoopCtx::default());
                let body_out = self.block(body, vec![me]);
                let ctx = self.loop_stack.pop().expect("pushed above");
                // back edges: end of body (and continues) to the header
                for n in body_out.iter().chain(&ctx.continues) {
                    self.cfg.edge(*n, me);
                }
                // loop exits: the header (condition false / stream empty)
                // plus any breaks
                let mut out = vec![me];
                out.extend(ctx.breaks);
                out
            }
            StmtKind::For { init, update, body, .. } => {
                // The `for` statement node stands for its header; init and
                // update are separate statement nodes.
                let mut header_preds = preds.clone();
                if let Some(i) = init {
                    // preds -> init -> header
                    let init_node = CfgNode::Stmt(i.id);
                    for p in &preds {
                        self.cfg.edge(*p, init_node);
                    }
                    header_preds = vec![init_node];
                }
                for p in &header_preds {
                    self.cfg.edge(*p, me);
                }
                self.loop_stack.push(LoopCtx::default());
                let body_out = self.block(body, vec![me]);
                let ctx = self.loop_stack.pop().expect("pushed above");
                let back_src = if let Some(u) = update {
                    let u_node = CfgNode::Stmt(u.id);
                    for n in body_out.iter().chain(&ctx.continues) {
                        self.cfg.edge(*n, u_node);
                    }
                    vec![u_node]
                } else {
                    body_out.iter().chain(&ctx.continues).copied().collect()
                };
                for n in back_src {
                    self.cfg.edge(n, me);
                }
                let mut out = vec![me];
                out.extend(ctx.breaks);
                out
            }
            StmtKind::Break => {
                if let Some(ctx) = self.loop_stack.last_mut() {
                    ctx.breaks.push(me);
                }
                vec![]
            }
            StmtKind::Continue => {
                if let Some(ctx) = self.loop_stack.last_mut() {
                    ctx.continues.push(me);
                }
                vec![]
            }
            StmtKind::Return(_) => {
                self.cfg.edge(me, CfgNode::Exit);
                vec![]
            }
            StmtKind::Block(b) | StmtKind::Region { body: b, .. } => self.block(b, vec![me]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_minilang::parse;

    fn cfg_of(src: &str) -> (patty_minilang::Program, Cfg) {
        let p = parse(src).unwrap();
        let cfg = Cfg::build(p.func("main").unwrap());
        (p, cfg)
    }

    #[test]
    fn straight_line_chains_to_exit() {
        let (_, cfg) = cfg_of("fn main() { var a = 1; var b = 2; var c = 3; }");
        assert_eq!(cfg.nodes().filter(|n| matches!(n, CfgNode::Stmt(_))).count(), 3);
        assert!(cfg.reaches(CfgNode::Entry, CfgNode::Exit));
    }

    #[test]
    fn if_without_else_falls_through() {
        let (p, cfg) = cfg_of("fn main() { if (c) { var a = 1; } var b = 2; }");
        let mut if_id = None;
        let mut b_id = None;
        p.for_each_stmt(&mut |s| match &s.kind {
            StmtKind::If { .. } => if_id = Some(s.id),
            StmtKind::VarDecl { name, .. } if name == "b" => b_id = Some(s.id),
            _ => {}
        });
        let (if_id, b_id) = (if_id.unwrap(), b_id.unwrap());
        // if node has two successors: the then-branch and b (fallthrough)
        assert_eq!(cfg.succs(CfgNode::Stmt(if_id)).count(), 2);
        assert!(cfg.reaches(CfgNode::Stmt(if_id), CfgNode::Stmt(b_id)));
    }

    #[test]
    fn while_has_back_edge() {
        let (p, cfg) = cfg_of("fn main() { while (c) { var x = 1; } }");
        let mut loop_id = None;
        let mut body_id = None;
        p.for_each_stmt(&mut |s| match &s.kind {
            StmtKind::While { .. } => loop_id = Some(s.id),
            StmtKind::VarDecl { .. } => body_id = Some(s.id),
            _ => {}
        });
        let (l, b) = (loop_id.unwrap(), body_id.unwrap());
        assert!(cfg.succs(CfgNode::Stmt(b)).any(|n| n == CfgNode::Stmt(l)), "back edge missing");
        assert!(cfg.succs(CfgNode::Stmt(l)).any(|n| n == CfgNode::Stmt(b)));
    }

    #[test]
    fn break_exits_loop() {
        let (p, cfg) = cfg_of("fn main() { while (true) { break; } var after = 1; }");
        let mut break_id = None;
        let mut after_id = None;
        p.for_each_stmt(&mut |s| match &s.kind {
            StmtKind::Break => break_id = Some(s.id),
            StmtKind::VarDecl { .. } => after_id = Some(s.id),
            _ => {}
        });
        assert!(cfg
            .succs(CfgNode::Stmt(break_id.unwrap()))
            .any(|n| n == CfgNode::Stmt(after_id.unwrap())));
    }

    #[test]
    fn return_goes_to_exit_only() {
        let (p, cfg) = cfg_of("fn main() { return; var dead = 1; }");
        let mut ret = None;
        let mut dead = None;
        p.for_each_stmt(&mut |s| match &s.kind {
            StmtKind::Return(_) => ret = Some(s.id),
            StmtKind::VarDecl { .. } => dead = Some(s.id),
            _ => {}
        });
        let succ: Vec<CfgNode> = cfg.succs(CfgNode::Stmt(ret.unwrap())).collect();
        assert_eq!(succ, vec![CfgNode::Exit]);
        assert!(!cfg.reaches(CfgNode::Entry, CfgNode::Stmt(dead.unwrap())));
    }

    #[test]
    fn for_loop_wires_init_and_update() {
        let (p, cfg) = cfg_of("fn main() { for (var i = 0; i < 3; i = i + 1) { work(1); } }");
        let mut for_id = None;
        let mut init_id = None;
        let mut update_id = None;
        p.for_each_stmt(&mut |s| if let StmtKind::For { init, update, .. } = &s.kind {
            for_id = Some(s.id);
            init_id = init.as_ref().map(|i| i.id);
            update_id = update.as_ref().map(|u| u.id);
        });
        let (f, i, u) = (for_id.unwrap(), init_id.unwrap(), update_id.unwrap());
        assert!(cfg.succs(CfgNode::Stmt(i)).any(|n| n == CfgNode::Stmt(f)));
        assert!(cfg.succs(CfgNode::Stmt(u)).any(|n| n == CfgNode::Stmt(f)));
    }

    #[test]
    fn continue_jumps_to_header() {
        let (p, cfg) = cfg_of("fn main() { foreach (x in xs) { if (x) { continue; } work(1); } }");
        let mut loop_id = None;
        let mut cont = None;
        p.for_each_stmt(&mut |s| match &s.kind {
            StmtKind::Foreach { .. } => loop_id = Some(s.id),
            StmtKind::Continue => cont = Some(s.id),
            _ => {}
        });
        assert!(cfg
            .succs(CfgNode::Stmt(cont.unwrap()))
            .any(|n| n == CfgNode::Stmt(loop_id.unwrap())));
    }
}
