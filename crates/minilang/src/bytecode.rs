//! Compiler from the minilang AST to a compact, slot-resolved bytecode.
//!
//! The compiled form exists purely for speed: the VM ([`crate::vm`]) must
//! be *observationally identical* to the tree-walker, producing the same
//! [`crate::interp::Outcome`] and a byte-identical [`crate::profile::Profile`].
//! That contract shapes the instruction set:
//!
//! * **Virtual cost.** The tree-walker ticks one unit per evaluated
//!   expression node (pre-order) and per executed statement. The compiler
//!   emits an explicit `Op::Tick` before each expression's sub-ops and
//!   coalesces adjacent ticks — safe because no observable event happens
//!   between a parent's tick and its first child's, and never across a jump
//!   target (the `barrier` below).
//! * **Profile bookkeeping** is explicit: `StmtEnter`/`StmtExit` bracket
//!   every statement for hit counts and inclusive cost (the `+1` of the
//!   statement's own tick is added at exit, like the tree-walker's
//!   `delta = cost_after - cost_before + 1`), and `BeginLoop`/`IterStart`/
//!   `IterStmtEnter`/`IterStmtExit`/`EndIterBody`/`EndLoop` replicate the
//!   loop-trace context stack.
//! * **Unwinding is compiled.** `break`/`continue`/`return` emit the
//!   statically-known sequence of exit ops for every enclosing statement
//!   and loop, because the tree-walker adds cost deltas at each level even
//!   when control unwinds.
//! * **Names are resolved at compile time.** Locals become frame-slot
//!   indices ([`crate::resolve`]); functions and classes become table
//!   indices; unresolvable references compile to *runtime-error ops*
//!   (`UndefVar`, `UnknownCall`, `NoClass`) so programs that never execute
//!   the bad path still run, exactly like the tree-walker.
//! * **Constructors are inlined.** `new C(args)` expands to `AllocObject`,
//!   per-field initializer code + `InitField`, then `CallCtor` (init
//!   method) or `PositionalInit`. Field initializers are compiled *at the
//!   call site* in the caller's scope, which reproduces the tree-walker's
//!   dynamic-scope evaluation of initializer expressions. A class whose
//!   field initializers construct the class itself (directly or via a
//!   cycle) cannot terminate under the tree-walker either; such sites
//!   compile to `Op::CtorRecursion`, which reports `step limit exceeded`.

use crate::ast::*;
use crate::builtins::{BuiltinId, MethodTag};
use crate::resolve::{Interner, SlotScopes};
use crate::span::NodeId;
use crate::value::Value;
use std::collections::HashMap;
use std::rc::Rc;

/// Maps a compound-assignment operator to its binary operator.
pub(crate) fn compound_bin(op: AssignOp) -> BinOp {
    match op {
        AssignOp::Add => BinOp::Add,
        AssignOp::Sub => BinOp::Sub,
        AssignOp::Mul => BinOp::Mul,
        AssignOp::Set => unreachable!("compound ops only"),
    }
}

/// Which kind of unresolved-variable reference an [`Op::UndefVar`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UndefKind {
    /// `undefined variable `x`` (reads and compound-assign lookups).
    Read,
    /// `assignment to undefined variable `x``.
    Assign,
}

/// Which conditional a [`Op::JumpIfFalse`] guards, for error messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CondCtx {
    If,
    While,
    For,
}

impl CondCtx {
    pub(crate) fn label(self) -> &'static str {
        match self {
            CondCtx::If => "if",
            CondCtx::While => "while",
            CondCtx::For => "for",
        }
    }
}

/// One bytecode instruction. Jump targets are absolute indices into the
/// program-wide code array; `name` fields index [`CompiledProgram::names`];
/// `slot` fields index the current frame's slot window.
///
/// Variants are declared hottest-first (as [`crate::vm::profile_ops`]
/// counted dispatches over the corpus when the order was fixed) so the
/// hot opcodes share low discriminants and pack into the same icache
/// lines of the dispatch jump table. The six fused variants declared
/// between [`Op::Tick`] and [`Op::StmtEnter`] are *superinstructions*:
/// they never come out of [`compile`], only out of
/// [`CompiledProgram::fused`], and the VM runs each as the code of the
/// plain ops it replaces, in sequence.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// Add `n` virtual cost units (coalesced expression-node ticks).
    Tick(u32),
    /// Fused `LoadSlot` + `Binary`: pop lhs, combine with the slot value.
    LoadSlotBin { slot: u32, name: u32, op: BinOp },
    /// Fused `Const` + `Binary`: pop lhs, combine with the constant.
    ConstBin { idx: u32, op: BinOp },
    /// Fused `StmtEnter` + `Tick(n)` (statement prologue + first ticks).
    StmtEnterTick { id: NodeId, line: u32, n: u8 },
    /// Fused `Tick(n)` + `LoadSlot`: segment-start ticks that follow an
    /// error-capable op (so tick hoisting could not merge them further
    /// back) are swallowed by the load that almost always comes next.
    TickLoadSlot { slot: u32, name: u32, n: u8 },
    /// Fused `StmtExit` + `StmtEnter` + `Tick(n)` — the boundary between
    /// two consecutive statements, one dispatch instead of three.
    StmtExitEnterTick { id: NodeId, line: u32, n: u8 },
    /// Fused `StoreSlot` + `StmtExit` — assignment statements end this way.
    StoreSlotExit { slot: u32, name: u32 },
    /// Statement prologue: set the current line, tick 1, count a hit, and
    /// mark the cost watermark for inclusive-cost accounting.
    StmtEnter { id: NodeId, line: u32 },
    /// Statement epilogue: add `cost - mark + 1` to the statement's cost.
    StmtExit,
    /// Push a constant from the pool.
    Const { idx: u32 },
    /// Push a local slot's value (records a `Read` when tracing).
    LoadSlot { slot: u32, name: u32 },
    /// Pop into a local slot (records a `Write`; declarations and plain
    /// assignments behave identically at runtime).
    StoreSlot { slot: u32, name: u32 },
    /// Compound assignment to a local slot: pop rhs, read old, combine.
    CompoundSlot { slot: u32, name: u32, op: AssignOp },
    /// Non-logical binary operator on the two top stack values.
    Binary(BinOp),
    Jump { target: u32 },
    /// Pop a condition; jump when false; error when not a bool.
    JumpIfFalse { target: u32, cond: CondCtx },
    /// Direct loop-body statement prologue: set the trace context's
    /// current statement and mark the cost watermark.
    IterStmtEnter { stmt: NodeId },
    /// Direct loop-body statement epilogue: attribute `cost - mark` to the
    /// loop trace's per-statement cost. `loop_idx` indexes
    /// [`CompiledProgram::loop_infos`], `slot` that loop's direct-statement
    /// list — dense counters, no map lookups at runtime.
    IterStmtExit { loop_idx: u32, slot: u32 },
    /// Loop prologue: mark the loop's trace entry live and push a trace
    /// context. `loop_idx` indexes [`CompiledProgram::loop_infos`].
    BeginLoop { loop_idx: u32 },
    /// Iteration prologue: compute the global iteration number, decide
    /// whether this iteration is recorded, bump the iteration count.
    IterStart { loop_idx: u32 },
    /// Iteration body epilogue: clear the trace context's current statement.
    EndIterBody,
    /// Loop epilogue: pop the trace context.
    EndLoop,
    /// Drop the innermost foreach iteration state (break/return unwind).
    PopIterState,
    /// Discard the top of stack (expression statements).
    Pop,
    /// Reference to a name with no visible binding: runtime error.
    UndefVar { name: u32, kind: UndefKind },
    Unary(UnOp),
    /// Coerce the logical-operator rhs to bool (`logic on <type>` error).
    ToBool,
    /// Short-circuit check of the logical-operator lhs: on a decided
    /// result, push it and jump past the rhs.
    ShortCircuit { and: bool, target: u32 },
    /// Pop base, push field value (records a `Read`).
    LoadField { name: u32 },
    /// Pop base then rhs, store the field (records a `Write`).
    StoreField { name: u32 },
    /// Compound assignment to a field.
    CompoundField { name: u32, op: AssignOp },
    /// Pop index then base, push the element (records a `Read`).
    LoadIndex,
    /// Pop index, base, rhs; store the element (records a `Write`).
    StoreIndex,
    /// Compound assignment to a list element.
    CompoundIndex { op: AssignOp },
    /// Pop `len` items into a fresh list.
    MakeList { len: u32 },
    /// Call a user function: pop `argc` args, push a frame.
    CallFunc { func: u32, argc: u32 },
    /// Dynamic method dispatch on the receiver under `argc` args.
    CallMethod { name: u32, argc: u32 },
    /// Call a builtin free function.
    CallBuiltin { id: BuiltinId, argc: u32 },
    /// Dedicated `work(n)` op (the hot cost-model builtin).
    Work,
    /// Call of a name that is neither a user function nor a builtin.
    UnknownCall { name: u32 },
    /// Allocate an empty object of a class (fresh heap id).
    AllocObject { class: u32 },
    /// Pop an initializer value into a field of the object below it.
    InitField { name: u32 },
    /// Call the class `init` method: stack is `[args.., obj]`; the object
    /// is re-pushed when the call returns (its return value is discarded).
    CallCtor { func: u32, argc: u32 },
    /// Positional construction: assign `argc` args to fields in
    /// declaration order (arity-checked).
    PositionalInit { class: u32, argc: u32 },
    /// `new` of an unknown class: pop args, error.
    NoClass { name: u32 },
    /// `new` of a class whose field initializers recursively construct it;
    /// diverges under the tree-walker, reported as `step limit exceeded`.
    CtorRecursion,
    /// Pop an iterable, push a foreach iteration state (list snapshot or
    /// string chars).
    ForeachIter,
    /// Advance the innermost iteration state: store the next item into
    /// `slot`, or pop the state and jump to `target` when exhausted.
    ForeachNext { slot: u32, target: u32 },
    /// Pop the return value and the current frame.
    Ret,
}

/// A compiled function or method.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CompiledFunc {
    pub(crate) name: u32,
    pub(crate) entry: u32,
    pub(crate) frame_size: u32,
    pub(crate) n_params: u32,
    pub(crate) is_method: bool,
}

/// A compiled class: interned field names in declaration order and the
/// method table (method name → function index, first declaration wins).
#[derive(Clone, Debug)]
pub(crate) struct CompiledClass {
    pub(crate) name: u32,
    pub(crate) field_names: Vec<u32>,
    pub(crate) methods: Vec<(u32, u32)>,
    pub(crate) init: Option<u32>,
}

/// Compile-time metadata of one loop: its statement id and the ids of its
/// direct body statements in slot order. The VM keeps per-loop counters in
/// dense arrays indexed by these and only materializes the canonical
/// [`crate::profile::LoopTrace`] once, at the end of a run.
#[derive(Clone, Debug)]
pub(crate) struct LoopInfo {
    pub(crate) id: NodeId,
    pub(crate) stmts: Vec<NodeId>,
}

/// A program compiled to bytecode, reusable across runs.
pub struct CompiledProgram {
    pub(crate) code: Vec<Op>,
    pub(crate) consts: Vec<Value>,
    pub(crate) names: Vec<String>,
    pub(crate) funcs: Vec<CompiledFunc>,
    pub(crate) classes: Vec<CompiledClass>,
    pub(crate) free_funcs: HashMap<String, u32>,
    pub(crate) class_by_name: HashMap<String, u32>,
    /// One entry per compiled loop, indexed by the `loop_idx` op fields.
    pub(crate) loop_infos: Vec<LoopInfo>,
    /// Exclusive upper bound on statement `NodeId`s: sizes the VM's dense
    /// hit/cost arrays.
    pub(crate) n_stmts: u32,
    /// Shared class-name strings, cloned into objects on allocation (one
    /// `Rc` bump instead of a fresh `String` per object).
    pub(crate) class_names: Vec<Rc<str>>,
    /// Every interned name as a shared string, parallel to `names`: lets
    /// the VM insert object fields by cloning an `Rc` instead of copying.
    pub(crate) names_rc: Vec<Rc<str>>,
    /// Builtin-method tag per interned name (parallel to `names`), so the
    /// VM dispatches list/string methods without comparing strings.
    pub(crate) method_tags: Vec<Option<MethodTag>>,
    /// Set by [`CompiledProgram::fused`] when trace-only bookkeeping ops
    /// were stripped: such a program can only run with
    /// `trace_loops = false` ([`crate::vm::run_compiled`] enforces this).
    pub(crate) stripped_tracing: bool,
}

impl CompiledProgram {
    /// Number of bytecode instructions (diagnostics and benches).
    pub fn op_count(&self) -> usize {
        self.code.len()
    }
}

/// Compile a program. Never fails: unresolvable references become
/// runtime-error ops, mirroring the tree-walker's execute-time errors.
pub fn compile(program: &Program) -> CompiledProgram {
    Compiler::new(program).compile()
}

/// Constant-pool dedup key (floats by bit pattern).
#[derive(PartialEq, Eq, Hash)]
enum ConstKey {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(String),
}

/// Compile-time unwind-context entry: what exit ops `break`/`continue`/
/// `return` must emit for each enclosing construct.
#[derive(Clone, Copy)]
enum UnwindEntry {
    /// An open `StmtEnter` needing a `StmtExit`.
    Stmt,
    /// An open `IterStmtEnter` needing an `IterStmtExit`.
    IterStmt { loop_idx: u32, slot: u32 },
    /// An active loop (`BeginLoop` .. `EndLoop`); `loop_idx` indexes the
    /// compiler's patch lists.
    Loop { loop_idx: usize, is_foreach: bool },
}

#[derive(Default)]
struct LoopPatches {
    breaks: Vec<usize>,
    conts: Vec<usize>,
}

struct Compiler<'p> {
    program: &'p Program,
    interner: Interner,
    scopes: SlotScopes,
    code: Vec<Op>,
    consts: Vec<Value>,
    const_ids: HashMap<ConstKey, u32>,
    funcs: Vec<CompiledFunc>,
    classes: Vec<CompiledClass>,
    free_funcs: HashMap<String, u32>,
    class_by_name: HashMap<String, u32>,
    unwind: Vec<UnwindEntry>,
    loops: Vec<LoopPatches>,
    loop_infos: Vec<LoopInfo>,
    n_stmts: u32,
    /// Classes currently being ctor-inlined (recursion guard).
    expanding: Vec<u32>,
    /// No tick-coalescing at or past this code index (jump-target barrier).
    barrier: usize,
}

impl<'p> Compiler<'p> {
    fn new(program: &'p Program) -> Compiler<'p> {
        Compiler {
            program,
            interner: Interner::default(),
            scopes: SlotScopes::default(),
            code: Vec::new(),
            consts: Vec::new(),
            const_ids: HashMap::new(),
            funcs: Vec::new(),
            classes: Vec::new(),
            free_funcs: HashMap::new(),
            class_by_name: HashMap::new(),
            unwind: Vec::new(),
            loops: Vec::new(),
            loop_infos: Vec::new(),
            n_stmts: 0,
            expanding: Vec::new(),
            barrier: 0,
        }
    }

    fn compile(mut self) -> CompiledProgram {
        // Function table: free functions first, then methods in class
        // order, matching `Program::all_funcs`. First declaration wins in
        // the name maps, like `Program::func`/`class`/`method`.
        let mut decls: Vec<(&'p FuncDecl, bool)> = Vec::new();
        for (i, f) in self.program.funcs.iter().enumerate() {
            self.free_funcs.entry(f.name.clone()).or_insert(i as u32);
            decls.push((f, false));
        }
        let init_name = self.interner.intern("init");
        for (ci, c) in self.program.classes.iter().enumerate() {
            self.class_by_name.entry(c.name.clone()).or_insert(ci as u32);
            let name = self.interner.intern(&c.name);
            let field_names = c
                .fields
                .iter()
                .map(|f| self.interner.intern(&f.name))
                .collect();
            let mut methods = Vec::new();
            for m in &c.methods {
                let func_idx = decls.len() as u32;
                methods.push((self.interner.intern(&m.name), func_idx));
                decls.push((m, true));
            }
            let init = methods
                .iter()
                .find(|(n, _)| *n == init_name)
                .map(|(_, f)| *f);
            self.classes.push(CompiledClass { name, field_names, methods, init });
        }
        for (decl, is_method) in decls {
            let func = self.compile_func(decl, is_method);
            self.funcs.push(func);
        }
        let names = self.interner.into_names();
        let names_rc: Vec<Rc<str>> = names.iter().map(|n| Rc::<str>::from(n.as_str())).collect();
        let method_tags = names.iter().map(|n| MethodTag::from_name(n)).collect();
        let class_names = self
            .classes
            .iter()
            .map(|c| names_rc[c.name as usize].clone())
            .collect();
        CompiledProgram {
            code: self.code,
            consts: self.consts,
            names,
            funcs: self.funcs,
            classes: self.classes,
            free_funcs: self.free_funcs,
            class_by_name: self.class_by_name,
            loop_infos: self.loop_infos,
            n_stmts: self.n_stmts,
            class_names,
            names_rc,
            method_tags,
            stripped_tracing: false,
        }
    }

    fn compile_func(&mut self, decl: &'p FuncDecl, is_method: bool) -> CompiledFunc {
        debug_assert!(self.unwind.is_empty() && self.loops.is_empty());
        self.scopes.reset();
        if is_method {
            let this = self.interner.intern("this");
            self.scopes.declare(this);
        }
        for p in &decl.params {
            let n = self.interner.intern(p);
            self.scopes.declare(n);
        }
        let entry = self.here();
        // The tree-walker's `exec_block` opens a body scope distinct from
        // the parameter scope.
        self.scopes.push();
        for stmt in &decl.body.stmts {
            self.compile_stmt(stmt);
        }
        self.scopes.pop();
        let null = self.konst(Value::Null);
        self.emit(Op::Const { idx: null });
        self.emit(Op::Ret);
        CompiledFunc {
            name: self.interner.intern(&decl.name),
            entry,
            frame_size: self.scopes.frame_size(),
            n_params: decl.params.len() as u32,
            is_method,
        }
    }

    // ---- emission helpers ----

    fn emit(&mut self, op: Op) {
        self.code.push(op);
    }

    /// Emit a tick, coalescing with an immediately preceding tick when no
    /// jump target separates them.
    fn emit_tick(&mut self, n: u32) {
        if self.code.len() > self.barrier {
            if let Some(Op::Tick(t)) = self.code.last_mut() {
                *t += n;
                return;
            }
        }
        self.code.push(Op::Tick(n));
    }

    /// The current code position as a jump target (also a coalescing
    /// barrier: ticks emitted here must execute on the jumped-to path).
    fn here(&mut self) -> u32 {
        self.barrier = self.code.len();
        self.code.len() as u32
    }

    /// Emit a jump-ish op whose target is patched later.
    fn emit_patched(&mut self, op: Op) -> usize {
        let at = self.code.len();
        self.code.push(op);
        at
    }

    fn patch(&mut self, at: usize, to: u32) {
        match &mut self.code[at] {
            Op::Jump { target }
            | Op::JumpIfFalse { target, .. }
            | Op::ShortCircuit { target, .. }
            | Op::ForeachNext { target, .. } => *target = to,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    fn konst(&mut self, v: Value) -> u32 {
        let key = match &v {
            Value::Null => ConstKey::Null,
            Value::Bool(b) => ConstKey::Bool(*b),
            Value::Int(i) => ConstKey::Int(*i),
            Value::Float(f) => ConstKey::Float(f.to_bits()),
            Value::Str(s) => ConstKey::Str(s.to_string()),
            _ => unreachable!("only literals enter the constant pool"),
        };
        if let Some(&idx) = self.const_ids.get(&key) {
            return idx;
        }
        let idx = self.consts.len() as u32;
        self.consts.push(v);
        self.const_ids.insert(key, idx);
        idx
    }

    // ---- statements ----

    /// Compile one statement. Returns `true` when the statement
    /// unconditionally transfers control (break/continue/return), in which
    /// case its exit bookkeeping was already emitted on the unwind path.
    fn compile_stmt(&mut self, stmt: &'p Stmt) -> bool {
        self.n_stmts = self.n_stmts.max(stmt.id.0 + 1);
        self.emit(Op::StmtEnter { id: stmt.id, line: stmt.span.line });
        self.unwind.push(UnwindEntry::Stmt);
        let terminated = self.compile_stmt_kind(stmt);
        self.unwind.pop();
        if !terminated {
            self.emit(Op::StmtExit);
        }
        terminated
    }

    fn compile_stmt_kind(&mut self, stmt: &'p Stmt) -> bool {
        match &stmt.kind {
            StmtKind::VarDecl { name, init } => {
                self.compile_expr(init);
                let n = self.interner.intern(name);
                let slot = self.scopes.declare(n);
                self.emit(Op::StoreSlot { slot, name: n });
                false
            }
            StmtKind::Assign { target, op, value } => {
                // Evaluation order matches `exec_assign`: rhs first, then
                // the target's base (and index).
                self.compile_expr(value);
                match &target.kind {
                    LValueKind::Var(name) => {
                        let n = self.interner.intern(name);
                        match self.scopes.lookup(n) {
                            Some(slot) if *op == AssignOp::Set => {
                                self.emit(Op::StoreSlot { slot, name: n });
                            }
                            Some(slot) => {
                                self.emit(Op::CompoundSlot { slot, name: n, op: *op });
                            }
                            None => {
                                let kind = if *op == AssignOp::Set {
                                    UndefKind::Assign
                                } else {
                                    UndefKind::Read
                                };
                                self.emit(Op::UndefVar { name: n, kind });
                            }
                        }
                    }
                    LValueKind::Field { base, field } => {
                        self.compile_expr(base);
                        let name = self.interner.intern(field);
                        if *op == AssignOp::Set {
                            self.emit(Op::StoreField { name });
                        } else {
                            self.emit(Op::CompoundField { name, op: *op });
                        }
                    }
                    LValueKind::Index { base, index } => {
                        self.compile_expr(base);
                        self.compile_expr(index);
                        if *op == AssignOp::Set {
                            self.emit(Op::StoreIndex);
                        } else {
                            self.emit(Op::CompoundIndex { op: *op });
                        }
                    }
                }
                false
            }
            StmtKind::Expr(e) => {
                self.compile_expr(e);
                self.emit(Op::Pop);
                false
            }
            StmtKind::If { cond, then_blk, else_blk } => {
                self.compile_expr(cond);
                let jf = self.emit_patched(Op::JumpIfFalse { target: 0, cond: CondCtx::If });
                self.compile_block_scoped(then_blk);
                if let Some(else_blk) = else_blk {
                    let j_end = self.emit_patched(Op::Jump { target: 0 });
                    let l_else = self.here();
                    self.patch(jf, l_else);
                    self.compile_block_scoped(else_blk);
                    let l_end = self.here();
                    self.patch(j_end, l_end);
                } else {
                    let l_end = self.here();
                    self.patch(jf, l_end);
                }
                false
            }
            StmtKind::While { cond, body } => {
                let info_idx = self.new_loop_info(stmt.id);
                self.emit(Op::BeginLoop { loop_idx: info_idx });
                let loop_idx = self.loops.len();
                self.loops.push(LoopPatches::default());
                self.unwind.push(UnwindEntry::Loop { loop_idx, is_foreach: false });
                let l_cond = self.here();
                self.compile_expr(cond);
                let jf = self.emit_patched(Op::JumpIfFalse { target: 0, cond: CondCtx::While });
                self.emit(Op::IterStart { loop_idx: info_idx });
                self.scopes.push();
                for s in &body.stmts {
                    self.compile_direct_stmt(info_idx, s);
                }
                self.scopes.pop();
                self.emit(Op::EndIterBody);
                self.emit(Op::Jump { target: l_cond });
                let l_exit = self.here();
                self.patch(jf, l_exit);
                self.finish_loop(loop_idx, l_exit, l_cond);
                false
            }
            StmtKind::For { init, cond, update, body } => {
                self.scopes.push();
                if let Some(init) = init {
                    self.compile_stmt(init);
                }
                let info_idx = self.new_loop_info(stmt.id);
                self.emit(Op::BeginLoop { loop_idx: info_idx });
                let loop_idx = self.loops.len();
                self.loops.push(LoopPatches::default());
                self.unwind.push(UnwindEntry::Loop { loop_idx, is_foreach: false });
                let l_cond = self.here();
                let jf = cond.as_ref().map(|c| {
                    self.compile_expr(c);
                    self.emit_patched(Op::JumpIfFalse { target: 0, cond: CondCtx::For })
                });
                self.emit(Op::IterStart { loop_idx: info_idx });
                self.scopes.push();
                for s in &body.stmts {
                    self.compile_direct_stmt(info_idx, s);
                }
                self.scopes.pop();
                self.emit(Op::EndIterBody);
                let l_cont = self.here();
                if let Some(update) = update {
                    self.compile_stmt(update);
                }
                self.emit(Op::Jump { target: l_cond });
                let l_exit = self.here();
                if let Some(jf) = jf {
                    self.patch(jf, l_exit);
                }
                self.finish_loop(loop_idx, l_exit, l_cont);
                self.scopes.pop();
                false
            }
            StmtKind::Foreach { var, iter, body } => {
                self.compile_expr(iter);
                self.emit(Op::ForeachIter);
                let info_idx = self.new_loop_info(stmt.id);
                self.emit(Op::BeginLoop { loop_idx: info_idx });
                let loop_idx = self.loops.len();
                self.loops.push(LoopPatches::default());
                self.unwind.push(UnwindEntry::Loop { loop_idx, is_foreach: true });
                self.scopes.push();
                let n = self.interner.intern(var);
                let slot = self.scopes.declare(n);
                let l_next = self.here();
                let fnext = self.emit_patched(Op::ForeachNext { slot, target: 0 });
                self.emit(Op::IterStart { loop_idx: info_idx });
                for s in &body.stmts {
                    self.compile_direct_stmt(info_idx, s);
                }
                self.scopes.pop();
                self.emit(Op::EndIterBody);
                self.emit(Op::Jump { target: l_next });
                let l_exit = self.here();
                self.patch(fnext, l_exit);
                self.finish_loop(loop_idx, l_exit, l_next);
                false
            }
            StmtKind::Break => {
                self.compile_break_continue(true);
                true
            }
            StmtKind::Continue => {
                self.compile_break_continue(false);
                true
            }
            StmtKind::Return(e) => {
                match e {
                    Some(e) => self.compile_expr(e),
                    None => {
                        let null = self.konst(Value::Null);
                        self.emit(Op::Const { idx: null });
                    }
                }
                // Unwind every enclosing construct in the frame.
                for i in (0..self.unwind.len()).rev() {
                    match self.unwind[i] {
                        UnwindEntry::Stmt => self.emit(Op::StmtExit),
                        UnwindEntry::IterStmt { loop_idx, slot } => {
                            self.emit(Op::IterStmtExit { loop_idx, slot })
                        }
                        UnwindEntry::Loop { is_foreach, .. } => {
                            self.emit(Op::EndIterBody);
                            if is_foreach {
                                self.emit(Op::PopIterState);
                            }
                            self.emit(Op::EndLoop);
                        }
                    }
                }
                self.emit(Op::Ret);
                true
            }
            StmtKind::Block(b) => {
                self.compile_block_scoped(b);
                false
            }
            StmtKind::Region { body, .. } => {
                // Regions execute flat: no scope of their own, declarations
                // land in the enclosing scope (`exec_stmts_flat`).
                for s in &body.stmts {
                    self.compile_stmt(s);
                }
                false
            }
        }
    }

    /// Close out a loop: patch break/continue jumps, emit `EndLoop`, and
    /// pop the loop's unwind entry.
    fn finish_loop(&mut self, loop_idx: usize, l_exit: u32, l_cont: u32) {
        let patches = self.loops.pop().expect("loop patch stack");
        debug_assert_eq!(loop_idx, self.loops.len());
        for at in patches.breaks {
            self.patch(at, l_exit);
        }
        for at in patches.conts {
            self.patch(at, l_cont);
        }
        self.emit(Op::EndLoop);
        let popped = self.unwind.pop();
        debug_assert!(matches!(popped, Some(UnwindEntry::Loop { .. })));
    }

    fn compile_block_scoped(&mut self, block: &'p Block) {
        self.scopes.push();
        for s in &block.stmts {
            self.compile_stmt(s);
        }
        self.scopes.pop();
    }

    /// Allocate the compile-time metadata slot for a loop.
    fn new_loop_info(&mut self, id: NodeId) -> u32 {
        let idx = self.loop_infos.len() as u32;
        self.loop_infos.push(LoopInfo { id, stmts: Vec::new() });
        idx
    }

    /// Compile a direct loop-body statement with loop-trace bookkeeping.
    fn compile_direct_stmt(&mut self, loop_idx: u32, stmt: &'p Stmt) {
        let info = &mut self.loop_infos[loop_idx as usize];
        let slot = info.stmts.len() as u32;
        info.stmts.push(stmt.id);
        self.emit(Op::IterStmtEnter { stmt: stmt.id });
        self.unwind.push(UnwindEntry::IterStmt { loop_idx, slot });
        let terminated = self.compile_stmt(stmt);
        self.unwind.pop();
        if !terminated {
            self.emit(Op::IterStmtExit { loop_idx, slot });
        }
    }

    /// Emit the unwind sequence for `break` (`is_break`) or `continue` up
    /// to the innermost loop. Outside any loop both simply end the current
    /// function call with a `null` result, like the tree-walker's
    /// `call_func` treating any non-`Return` flow as `null`.
    fn compile_break_continue(&mut self, is_break: bool) {
        for i in (0..self.unwind.len()).rev() {
            match self.unwind[i] {
                UnwindEntry::Stmt => self.emit(Op::StmtExit),
                UnwindEntry::IterStmt { loop_idx, slot } => {
                    self.emit(Op::IterStmtExit { loop_idx, slot })
                }
                UnwindEntry::Loop { loop_idx, is_foreach } => {
                    self.emit(Op::EndIterBody);
                    if is_break && is_foreach {
                        self.emit(Op::PopIterState);
                    }
                    let j = self.emit_patched(Op::Jump { target: 0 });
                    if is_break {
                        self.loops[loop_idx].breaks.push(j);
                    } else {
                        self.loops[loop_idx].conts.push(j);
                    }
                    return;
                }
            }
        }
        // No enclosing loop: the flow unwinds the whole call.
        let null = self.konst(Value::Null);
        self.emit(Op::Const { idx: null });
        self.emit(Op::Ret);
    }

    // ---- expressions ----

    fn compile_expr(&mut self, expr: &'p Expr) {
        self.emit_tick(1);
        match &expr.kind {
            ExprKind::Int(v) => {
                let idx = self.konst(Value::Int(*v));
                self.emit(Op::Const { idx });
            }
            ExprKind::Float(v) => {
                let idx = self.konst(Value::Float(*v));
                self.emit(Op::Const { idx });
            }
            ExprKind::Str(s) => {
                let idx = self.konst(Value::str(s));
                self.emit(Op::Const { idx });
            }
            ExprKind::Bool(b) => {
                let idx = self.konst(Value::Bool(*b));
                self.emit(Op::Const { idx });
            }
            ExprKind::Null => {
                let idx = self.konst(Value::Null);
                self.emit(Op::Const { idx });
            }
            ExprKind::Var(name) => {
                let n = self.interner.intern(name);
                match self.scopes.lookup(n) {
                    Some(slot) => self.emit(Op::LoadSlot { slot, name: n }),
                    None => self.emit(Op::UndefVar { name: n, kind: UndefKind::Read }),
                }
            }
            ExprKind::Unary { op, expr } => {
                self.compile_expr(expr);
                self.emit(Op::Unary(*op));
            }
            ExprKind::Binary { op: op @ (BinOp::And | BinOp::Or), lhs, rhs } => {
                self.compile_expr(lhs);
                let sc = self.emit_patched(Op::ShortCircuit {
                    and: *op == BinOp::And,
                    target: 0,
                });
                self.compile_expr(rhs);
                self.emit(Op::ToBool);
                let l_end = self.here();
                self.patch(sc, l_end);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                self.compile_expr(lhs);
                self.compile_expr(rhs);
                self.emit(Op::Binary(*op));
            }
            ExprKind::Field { base, field } => {
                self.compile_expr(base);
                let name = self.interner.intern(field);
                self.emit(Op::LoadField { name });
            }
            ExprKind::Index { base, index } => {
                self.compile_expr(base);
                self.compile_expr(index);
                self.emit(Op::LoadIndex);
            }
            ExprKind::Call { callee, args } => {
                for a in args {
                    self.compile_expr(a);
                }
                let argc = args.len() as u32;
                if let Some(&func) = self.free_funcs.get(callee) {
                    self.emit(Op::CallFunc { func, argc });
                } else if let Some(id) = BuiltinId::from_name(callee) {
                    if id == BuiltinId::Work && argc == 1 {
                        self.emit(Op::Work);
                    } else {
                        self.emit(Op::CallBuiltin { id, argc });
                    }
                } else {
                    let name = self.interner.intern(callee);
                    self.emit(Op::UnknownCall { name });
                }
            }
            ExprKind::MethodCall { base, method, args } => {
                self.compile_expr(base);
                for a in args {
                    self.compile_expr(a);
                }
                let name = self.interner.intern(method);
                self.emit(Op::CallMethod { name, argc: args.len() as u32 });
            }
            ExprKind::New { class, args } => {
                for a in args {
                    self.compile_expr(a);
                }
                self.compile_new(class, args.len() as u32);
            }
            ExprKind::ListLit(items) => {
                for item in items {
                    self.compile_expr(item);
                }
                self.emit(Op::MakeList { len: items.len() as u32 });
            }
        }
    }

    /// Inline-expand `new C(args)` (args already on the stack).
    fn compile_new(&mut self, class: &'p str, argc: u32) {
        let Some(&ci) = self.class_by_name.get(class) else {
            let name = self.interner.intern(class);
            self.emit(Op::NoClass { name });
            return;
        };
        if self.expanding.contains(&ci) {
            self.emit(Op::CtorRecursion);
            return;
        }
        self.emit(Op::AllocObject { class: ci });
        self.expanding.push(ci);
        let decl = &self.program.classes[ci as usize];
        for f in &decl.fields {
            match &f.init {
                // Initializer expressions evaluate in the *caller's*
                // scope, exactly like the tree-walker's `construct`.
                Some(e) => self.compile_expr(e),
                None => {
                    let null = self.konst(Value::Null);
                    self.emit(Op::Const { idx: null });
                }
            }
            let name = self.interner.intern(&f.name);
            self.emit(Op::InitField { name });
        }
        self.expanding.pop();
        let compiled = &self.classes[ci as usize];
        if let Some(init) = compiled.init {
            self.emit(Op::CallCtor { func: init, argc });
        } else if argc > 0 {
            self.emit(Op::PositionalInit { class: ci, argc });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn compiles_every_corpus_shaped_construct() {
        let src = r#"
            class P { var x = 0; var y = 1; fn init(a) { this.x = a; } fn go() { return this.x + this.y; } }
            fn helper(n) { return n * 2; }
            fn main() {
                var p = new P(3);
                var xs = [1, 2, 3];
                var s = 0;
                foreach (x in xs) { s += x; }
                for (var i = 0; i < 3; i = i + 1) { if (i == 1) { continue; } s += helper(i); }
                while (s > 100) { break; }
                print(s, p.go(), xs[0], "lit" + 1, true && false, -s);
                return s;
            }
        "#;
        let program = parse(src).unwrap();
        let compiled = compile(&program);
        assert!(compiled.op_count() > 50);
        assert!(compiled.free_funcs.contains_key("main"));
        assert_eq!(compiled.classes.len(), 1);
        assert!(compiled.classes[0].init.is_some());
    }

    #[test]
    fn adjacent_expression_ticks_coalesce() {
        let program = parse("fn main() { var x = 1 + 2 * 3; }").unwrap();
        let compiled = compile(&program);
        // The five expression nodes of `1 + 2 * 3` must not emit five
        // separate tick ops.
        let ticks = compiled
            .code
            .iter()
            .filter(|op| matches!(op, Op::Tick(_)))
            .count();
        let total: u32 = compiled
            .code
            .iter()
            .map(|op| if let Op::Tick(n) = op { *n } else { 0 })
            .sum();
        assert_eq!(total, 5, "tick mass preserved");
        assert!(ticks < 5, "ticks coalesced, got {ticks}");
    }

    #[test]
    fn op_stays_within_its_size_budget() {
        // The dispatch loop reads one `Op` per step; superinstruction
        // payloads must not widen the array element (12 bytes = max
        // two-u32 payload + discriminant, 4-aligned).
        assert!(std::mem::size_of::<Op>() <= 12, "{}", std::mem::size_of::<Op>());
    }

    #[test]
    fn unresolved_references_become_runtime_error_ops() {
        let program =
            parse("fn main() { if (false) { print(nope); missing(); var y = new Gone(); } }")
                .unwrap();
        let compiled = compile(&program);
        let has = |pred: &dyn Fn(&Op) -> bool| compiled.code.iter().any(pred);
        assert!(has(&|op| matches!(op, Op::UndefVar { .. })));
        assert!(has(&|op| matches!(op, Op::UnknownCall { .. })));
        assert!(has(&|op| matches!(op, Op::NoClass { .. })));
    }
}
