//! Abstract syntax tree for minilang.
//!
//! Node granularity matters for Patty: the pipeline detector initially
//! turns *each statement of a loop body* into a pipeline stage (rule PLPL),
//! so statements are the unit that carries identity ([`crate::span::NodeId`])
//! and that the analyses, detectors and rewriters all speak about.

use crate::span::{NodeId, Span};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A parsed program: classes, free functions, and the original source text
/// (kept so spans can be rendered as overlays, paper Fig. 4b).
#[derive(Clone, Debug)]
pub struct Program {
    pub classes: Vec<ClassDecl>,
    pub funcs: Vec<FuncDecl>,
    /// Total number of allocated node ids (ids are dense in `0..node_count`).
    pub node_count: usize,
    /// The source text this program was parsed from.
    pub source: String,
    /// Lazily-built name→index maps backing [`Program::func`],
    /// [`Program::class`] and [`Program::method`]. Built once on first
    /// lookup; cloning a program clones the built index.
    index: OnceLock<NameIndex>,
}

/// Name→index maps for O(1) function/class/method lookup. Duplicate names
/// keep the *first* declaration, matching the linear-scan semantics the
/// index replaced.
#[derive(Clone, Debug, Default)]
struct NameIndex {
    funcs: HashMap<String, usize>,
    classes: HashMap<String, usize>,
    /// Per-class method name→index, parallel to `Program::classes`.
    methods: Vec<HashMap<String, usize>>,
}

impl NameIndex {
    fn build(program: &Program) -> NameIndex {
        let mut index = NameIndex::default();
        for (i, f) in program.funcs.iter().enumerate() {
            index.funcs.entry(f.name.clone()).or_insert(i);
        }
        for (i, c) in program.classes.iter().enumerate() {
            index.classes.entry(c.name.clone()).or_insert(i);
            let mut methods = HashMap::new();
            for (j, m) in c.methods.iter().enumerate() {
                methods.entry(m.name.clone()).or_insert(j);
            }
            index.methods.push(methods);
        }
        index
    }
}

/// A class declaration with fields and methods.
#[derive(Clone, Debug)]
pub struct ClassDecl {
    pub id: NodeId,
    pub span: Span,
    pub name: String,
    pub fields: Vec<FieldDecl>,
    pub methods: Vec<FuncDecl>,
}

/// A field declaration, optionally initialized.
#[derive(Clone, Debug)]
pub struct FieldDecl {
    pub id: NodeId,
    pub span: Span,
    pub name: String,
    pub init: Option<Expr>,
}

/// A free function or a method (methods have an implicit `this`).
#[derive(Clone, Debug)]
pub struct FuncDecl {
    pub id: NodeId,
    pub span: Span,
    pub name: String,
    pub params: Vec<String>,
    pub body: Block,
}

/// A `{ ... }` statement sequence.
#[derive(Clone, Debug)]
pub struct Block {
    pub id: NodeId,
    pub span: Span,
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Clone, Debug)]
pub struct Stmt {
    pub id: NodeId,
    pub span: Span,
    pub kind: StmtKind,
}

/// Compound assignment operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Set,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
}

/// Statement kinds.
#[derive(Clone, Debug)]
pub enum StmtKind {
    /// `var x = e;`
    VarDecl { name: String, init: Expr },
    /// `lv = e;`, `lv += e;`, ...
    Assign { target: LValue, op: AssignOp, value: Expr },
    /// An expression evaluated for its effects, e.g. a call.
    Expr(Expr),
    /// `if (c) { .. } else { .. }`
    If { cond: Expr, then_blk: Block, else_blk: Option<Block> },
    /// `while (c) { .. }`
    While { cond: Expr, body: Block },
    /// `for (init; cond; update) { .. }`
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        update: Option<Box<Stmt>>,
        body: Block,
    },
    /// `foreach (x in e) { .. }`
    Foreach { var: String, iter: Expr, body: Block },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return e?;`
    Return(Option<Expr>),
    /// A nested `{ .. }` block.
    Block(Block),
    /// `#region <label> ... #endregion` — carries TADL annotations through
    /// the AST exactly like the paper's preprocessor-directive encoding.
    Region { label: String, body: Block },
}

/// Assignment target.
#[derive(Clone, Debug)]
pub struct LValue {
    pub span: Span,
    pub kind: LValueKind,
}

/// Assignment target kinds.
#[derive(Clone, Debug)]
pub enum LValueKind {
    /// `x = ..`
    Var(String),
    /// `e.f = ..`
    Field { base: Expr, field: String },
    /// `e[i] = ..`
    Index { base: Expr, index: Expr },
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// An expression.
#[derive(Clone, Debug)]
pub struct Expr {
    pub id: NodeId,
    pub span: Span,
    pub kind: ExprKind,
}

/// Expression kinds.
#[derive(Clone, Debug)]
pub enum ExprKind {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
    /// A variable (or `this`).
    Var(String),
    Unary { op: UnOp, expr: Box<Expr> },
    Binary { op: BinOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// `e.f`
    Field { base: Box<Expr>, field: String },
    /// `e[i]`
    Index { base: Box<Expr>, index: Box<Expr> },
    /// `f(a, b)` — free function or builtin.
    Call { callee: String, args: Vec<Expr> },
    /// `e.m(a, b)` — method or builtin method on a value.
    MethodCall { base: Box<Expr>, method: String, args: Vec<Expr> },
    /// `new C(a, b)`
    New { class: String, args: Vec<Expr> },
    /// `[a, b, c]`
    ListLit(Vec<Expr>),
}

impl Expr {
    /// The syntactic access path of this expression if it is a chain of
    /// variables and field accesses (`a`, `a.b`, `a.b.c`), else `None`.
    ///
    /// Patty's *optimistic* static analysis identifies heap locations by
    /// their syntactic path — distinct paths are assumed not to alias.
    pub fn path(&self) -> Option<String> {
        match &self.kind {
            ExprKind::Var(name) => Some(name.clone()),
            ExprKind::Field { base, field } => Some(format!("{}.{}", base.path()?, field)),
            _ => None,
        }
    }
}

impl Stmt {
    /// Short one-line description used in diagnostics and overlays.
    pub fn describe(&self, source: &str) -> String {
        let text = if self.span.is_empty() { "" } else { self.span.text(source) };
        let first = text.lines().next().unwrap_or("").trim();
        if first.len() > 60 {
            format!("{}…", &first[..59])
        } else {
            first.to_string()
        }
    }

    /// True for loop statements (rule PLPL: every loop is a pipeline
    /// candidate).
    pub fn is_loop(&self) -> bool {
        matches!(
            self.kind,
            StmtKind::While { .. } | StmtKind::For { .. } | StmtKind::Foreach { .. }
        )
    }

    /// The loop body, for loop statements.
    pub fn loop_body(&self) -> Option<&Block> {
        match &self.kind {
            StmtKind::While { body, .. }
            | StmtKind::For { body, .. }
            | StmtKind::Foreach { body, .. } => Some(body),
            _ => None,
        }
    }
}

/// A program's statements indexed by node id ([`Program::stmt_table`]),
/// looked up in O(1).
pub struct StmtTable<'a> {
    by_id: Vec<Option<&'a Stmt>>,
}

impl<'a> StmtTable<'a> {
    /// The statement with node id `id`, if the program has one.
    pub fn get(&self, id: NodeId) -> Option<&'a Stmt> {
        self.by_id.get(id.0 as usize).copied().flatten()
    }
}

impl Program {
    /// Build a program from its parts (the name index is built lazily).
    pub fn new(classes: Vec<ClassDecl>, funcs: Vec<FuncDecl>, node_count: usize, source: String) -> Program {
        Program { classes, funcs, node_count, source, index: OnceLock::new() }
    }

    fn index(&self) -> &NameIndex {
        self.index.get_or_init(|| NameIndex::build(self))
    }

    /// Iterate over every function and method in the program.
    pub fn all_funcs(&self) -> impl Iterator<Item = &FuncDecl> {
        self.funcs
            .iter()
            .chain(self.classes.iter().flat_map(|c| c.methods.iter()))
    }

    /// Look up a free function by name (O(1) after the first lookup).
    pub fn func(&self, name: &str) -> Option<&FuncDecl> {
        self.funcs.get(*self.index().funcs.get(name)?)
    }

    /// Look up a class by name (O(1) after the first lookup).
    pub fn class(&self, name: &str) -> Option<&ClassDecl> {
        self.classes.get(*self.index().classes.get(name)?)
    }

    /// Look up a method on a class (O(1) after the first lookup).
    pub fn method(&self, class: &str, method: &str) -> Option<&FuncDecl> {
        let class_idx = *self.index().classes.get(class)?;
        let method_idx = *self.index().methods.get(class_idx)?.get(method)?;
        self.classes[class_idx].methods.get(method_idx)
    }

    /// Visit every statement in the program (pre-order, including nested).
    pub fn for_each_stmt<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        for func in self.all_funcs() {
            visit_block(&func.body, f);
        }
    }

    /// Find a statement by node id anywhere in the program. Builds a whole
    /// [`StmtTable`]; a pass that looks up many statements builds one and
    /// keeps it.
    pub fn find_stmt(&self, id: NodeId) -> Option<&Stmt> {
        self.stmt_table().get(id)
    }

    /// Every statement by node id, in one walk of the program.
    pub fn stmt_table(&self) -> StmtTable<'_> {
        let mut by_id: Vec<Option<&Stmt>> = vec![None; self.node_count];
        self.for_each_stmt(&mut |s| {
            let at = s.id.0 as usize;
            if at >= by_id.len() {
                by_id.resize(at + 1, None);
            }
            // The first in pre-order wins.
            by_id[at].get_or_insert(s);
        });
        StmtTable { by_id }
    }

    /// Collect every loop statement in the program together with the name
    /// of the enclosing function.
    pub fn loops(&self) -> Vec<(&str, &Stmt)> {
        let mut out = Vec::new();
        for func in self.all_funcs() {
            let mut collect = |s: &Stmt| {
                if s.is_loop() {
                    // raw pointer trick not needed: restrict lifetime by
                    // re-finding below
                }
            };
            // Simple two-pass: gather ids first, then resolve.
            let _ = &mut collect;
            let mut ids = Vec::new();
            visit_block(&func.body, &mut |s: &Stmt| {
                if s.is_loop() {
                    ids.push(s.id);
                }
            });
            for id in ids {
                let mut hit: Option<&Stmt> = None;
                visit_block(&func.body, &mut |s: &Stmt| {
                    if s.id == id && hit.is_none() {
                        hit = Some(s);
                    }
                });
                if let Some(s) = hit {
                    out.push((func.name.as_str(), s));
                }
            }
        }
        out
    }
}

/// Visit every statement in a block (pre-order, including nested blocks).
pub fn visit_block<'a>(block: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for stmt in &block.stmts {
        visit_stmt(stmt, f);
    }
}

/// Visit `stmt` and all statements nested inside it (pre-order).
pub fn visit_stmt<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Stmt)) {
    f(stmt);
    match &stmt.kind {
        StmtKind::If { then_blk, else_blk, .. } => {
            visit_block(then_blk, f);
            if let Some(e) = else_blk {
                visit_block(e, f);
            }
        }
        StmtKind::While { body, .. } | StmtKind::Foreach { body, .. } => visit_block(body, f),
        StmtKind::For { init, update, body, .. } => {
            if let Some(i) = init {
                visit_stmt(i, f);
            }
            if let Some(u) = update {
                visit_stmt(u, f);
            }
            visit_block(body, f);
        }
        StmtKind::Block(b) | StmtKind::Region { body: b, .. } => visit_block(b, f),
        _ => {}
    }
}

/// Visit every expression inside a statement (pre-order), *not* descending
/// into nested statements.
pub fn visit_stmt_exprs<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match &stmt.kind {
        StmtKind::VarDecl { init, .. } => visit_expr(init, f),
        StmtKind::Assign { target, value, .. } => {
            match &target.kind {
                LValueKind::Var(_) => {}
                LValueKind::Field { base, .. } => visit_expr(base, f),
                LValueKind::Index { base, index } => {
                    visit_expr(base, f);
                    visit_expr(index, f);
                }
            }
            visit_expr(value, f);
        }
        StmtKind::Expr(e) => visit_expr(e, f),
        StmtKind::If { cond, .. } => visit_expr(cond, f),
        StmtKind::While { cond, .. } => visit_expr(cond, f),
        StmtKind::For { cond: Some(c), .. } => visit_expr(c, f),
        StmtKind::Foreach { iter, .. } => visit_expr(iter, f),
        StmtKind::Return(Some(e)) => visit_expr(e, f),
        _ => {}
    }
}

/// Visit `expr` and all its sub-expressions (pre-order).
pub fn visit_expr<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(expr);
    match &expr.kind {
        ExprKind::Unary { expr: e, .. } => visit_expr(e, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            visit_expr(lhs, f);
            visit_expr(rhs, f);
        }
        ExprKind::Field { base, .. } => visit_expr(base, f),
        ExprKind::Index { base, index } => {
            visit_expr(base, f);
            visit_expr(index, f);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                visit_expr(a, f);
            }
        }
        ExprKind::MethodCall { base, args, .. } => {
            visit_expr(base, f);
            for a in args {
                visit_expr(a, f);
            }
        }
        ExprKind::New { args, .. } => {
            for a in args {
                visit_expr(a, f);
            }
        }
        ExprKind::ListLit(items) => {
            for a in items {
                visit_expr(a, f);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn path_of_field_chain() {
        let prog = parse("fn main() { var x = a.b.c; }").unwrap();
        let mut paths = Vec::new();
        prog.for_each_stmt(&mut |s| {
            visit_stmt_exprs(s, &mut |e| {
                if let Some(p) = e.path() {
                    paths.push(p);
                }
            });
        });
        assert!(paths.contains(&"a.b.c".to_string()));
        assert!(paths.contains(&"a.b".to_string()));
        assert!(paths.contains(&"a".to_string()));
    }

    #[test]
    fn loops_finds_all_loops() {
        let src = "fn main() { while (true) { } foreach (x in xs) { for (var i = 0; i < 3; i = i + 1) { } } }";
        let prog = parse(src).unwrap();
        let loops = prog.loops();
        assert_eq!(loops.len(), 3);
        assert!(loops.iter().all(|(f, _)| *f == "main"));
    }

    #[test]
    fn find_stmt_resolves_ids() {
        let prog = parse("fn main() { var x = 1; var y = 2; }").unwrap();
        let mut ids = Vec::new();
        prog.for_each_stmt(&mut |s| ids.push(s.id));
        for id in ids {
            assert_eq!(prog.find_stmt(id).unwrap().id, id);
        }
        assert!(prog.find_stmt(NodeId(u32::MAX)).is_none());
    }

    #[test]
    fn describe_truncates_long_statements() {
        let long_name = "x".repeat(100);
        let src = format!("fn main() {{ var {long_name} = 1; }}");
        let prog = parse(&src).unwrap();
        let mut descr = String::new();
        prog.for_each_stmt(&mut |s| descr = s.describe(&prog.source));
        assert!(descr.len() < 70);
        assert!(descr.ends_with('…'));
    }
}
