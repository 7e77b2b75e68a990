//! Tree-walking interpreter with built-in dynamic analysis.
//!
//! Executing a program produces a [`Profile`]: per-statement hit counts and
//! inclusive virtual costs, observed call edges, and per-loop access traces.
//! Virtual cost is a deterministic stand-in for wall time: every evaluated
//! expression node costs one unit and the `work(n)` builtin costs `n` units,
//! so corpus programs can model arbitrary runtime distributions (a video
//! filter that is 4× as expensive as another is written as `work(4000)` vs
//! `work(1000)`), which is what rule PLTP's runtime-share reasoning needs.

use crate::ast::*;
use crate::builtins::{binary_op, call_builtin, call_builtin_method, BuiltinId, Host};
use crate::error::LangError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::profile::{Access, AccessKind, DynLoc, LoopTrace, Profile};
use crate::span::NodeId;
use crate::value::{FieldTable, HeapId, ListData, ObjectData, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Which execution engine runs the program.
///
/// Both engines are observationally identical — same [`Outcome`], same
/// errors, byte-identical [`Profile`] — so the choice is purely a
/// performance one. The tree-walker is kept as the differential oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The original tree-walking interpreter (reference semantics).
    Ast,
    /// The compiled slot-resolved bytecode VM (default; ≥3× faster).
    #[default]
    Vm,
}

/// Options controlling interpretation and dynamic analysis.
#[derive(Clone, Debug)]
pub struct InterpOptions {
    /// Abort after this many virtual cost units (guards against runaway
    /// programs; generous default).
    pub step_limit: u64,
    /// Record per-loop access traces (the dynamic dependence analysis).
    pub trace_loops: bool,
    /// How many iterations per loop to trace exactly. The paper notes that
    /// whole-program dynamic analysis is unmanageable; tracing a prefix
    /// keeps the cost bounded.
    pub trace_iters: usize,
    /// Seed for the deterministic `rand(n)` builtin.
    pub seed: u64,
    /// Maximum call depth.
    pub max_depth: usize,
    /// Which engine executes the program.
    pub engine: Engine,
}

impl Default for InterpOptions {
    fn default() -> InterpOptions {
        InterpOptions {
            step_limit: 200_000_000,
            trace_loops: true,
            trace_iters: 12,
            seed: 0x5EED,
            max_depth: 64,
            engine: Engine::default(),
        }
    }
}

/// Result of running a program.
#[derive(Debug)]
pub struct Outcome {
    /// Value returned by the entry function.
    pub result: Value,
    /// Lines printed via `print(..)`.
    pub output: Vec<String>,
    /// The dynamic profile.
    pub profile: Profile,
}

/// Run `main()` of `program`.
pub fn run(program: &Program, options: InterpOptions) -> Result<Outcome, LangError> {
    run_func(program, "main", vec![], options)
}

/// Run a named free function with arguments, on the engine selected by
/// `options.engine`. One-shot: on the VM every call compiles the whole
/// program again, so a loop of calls on one program compiles it once and
/// uses [`crate::vm::run_compiled`] instead.
pub fn run_func(
    program: &Program,
    name: &str,
    args: Vec<Value>,
    options: InterpOptions,
) -> Result<Outcome, LangError> {
    if options.engine == Engine::Vm {
        return crate::vm::run_func(program, name, args, options);
    }
    let mut interp = Interp::new(program, options);
    let func = program
        .func(name)
        .ok_or_else(|| LangError::runtime(0, format!("no function `{name}`")))?;
    let result = interp.call_func(func, None, args)?;
    let output = std::mem::take(&mut interp.output);
    Ok(Outcome { result, output, profile: interp.into_profile() })
}

/// Statement execution outcome for control flow.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// One activation frame.
struct Frame {
    serial: u32,
    scopes: Vec<HashMap<String, Value>>,
}

impl Frame {
    fn lookup(&self, name: &str) -> Option<&Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn assign(&mut self, name: &str, value: Value) -> bool {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return true;
            }
        }
        false
    }

    fn declare(&mut self, name: &str, value: Value) {
        self.scopes
            .last_mut()
            .expect("frame always has a scope")
            .insert(name.to_string(), value);
    }
}

/// An active loop-trace context: accesses made while executing direct body
/// statement `cur_stmt` of loop `loop_id` during iteration `iter`, in the
/// frame with serial `frame`.
struct TraceCtx {
    loop_id: NodeId,
    frame: u32,
    iter: usize,
    recording: bool,
    cur_stmt: Option<NodeId>,
}

/// One loop's traced prefix and raw access records `(location id, iter,
/// stmt, kind)`. A set, so a statement that repeats an access a million
/// times holds it once.
type Records = (usize, FxHashSet<(u32, u32, NodeId, AccessKind)>);

struct Interp<'p> {
    program: &'p Program,
    options: InterpOptions,
    frames: Vec<Frame>,
    call_names: Vec<String>,
    heap_next: HeapId,
    frame_next: u32,
    cost: u64,
    output: Vec<String>,
    profile: Profile,
    traces: Vec<TraceCtx>,
    /// Every location a traced loop touched, numbered as first seen.
    loc_ids: FxHashMap<DynLoc, u32>,
    /// The traced prefix and raw records per traced loop, turned into the
    /// loops' access tables when the run ends.
    records: BTreeMap<NodeId, Records>,
    rng: u64,
    /// 1-based source line of the innermost executing statement, for
    /// runtime error positions.
    current_line: u32,
}

impl<'p> Interp<'p> {
    fn new(program: &'p Program, options: InterpOptions) -> Interp<'p> {
        let rng = options.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Interp {
            program,
            options,
            frames: Vec::new(),
            call_names: Vec::new(),
            heap_next: 1,
            frame_next: 1,
            cost: 0,
            output: Vec::new(),
            profile: Profile::default(),
            traces: Vec::new(),
            loc_ids: FxHashMap::default(),
            records: BTreeMap::new(),
            rng,
            current_line: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        LangError::runtime(self.current_line, msg)
    }

    fn tick(&mut self, n: u64) -> Result<(), LangError> {
        self.cost += n;
        if self.cost > self.options.step_limit {
            return Err(self.err("step limit exceeded"));
        }
        Ok(())
    }

    fn fresh_heap(&mut self) -> HeapId {
        let id = self.heap_next;
        self.heap_next += 1;
        id
    }

    fn frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("no active frame")
    }

    fn frame_serial(&self) -> u32 {
        self.frames.last().map(|f| f.serial).unwrap_or(0)
    }

    /// Record one dynamic access into every active recording trace context
    /// (nested loops record into outer contexts too) — except a local into
    /// a context of another frame: a frame called inside an iteration is
    /// private to it. Every recording context's traced prefix still reaches
    /// the current iteration.
    fn record(&mut self, loc: DynLoc, kind: AccessKind) {
        let frame = match loc {
            DynLoc::Local(serial, _) => Some(serial),
            _ => None,
        };
        let mut id = None;
        for ctx in &self.traces {
            let (true, Some(stmt)) = (ctx.recording, ctx.cur_stmt) else { continue };
            let (traced, records) = self.records.entry(ctx.loop_id).or_default();
            *traced = (*traced).max(ctx.iter + 1);
            if frame.is_some_and(|serial| serial != ctx.frame) {
                continue;
            }
            let id = *id.get_or_insert_with(|| {
                let next = self.loc_ids.len() as u32;
                *self.loc_ids.entry(loc.clone()).or_insert(next)
            });
            records.insert((id, ctx.iter as u32, stmt, kind));
        }
    }

    /// The finished profile: total cost set, and every traced loop's raw
    /// records folded into its access table.
    fn into_profile(mut self) -> Profile {
        self.profile.total_cost = self.cost;
        // Locations are compared once, here; the records then sort by rank.
        let mut by_rank: Vec<(DynLoc, u32)> = self.loc_ids.into_iter().collect();
        by_rank.sort_unstable();
        let mut rank_of = vec![0; by_rank.len()];
        for (rank, (_, id)) in by_rank.iter().enumerate() {
            rank_of[*id as usize] = rank;
        }
        // A loop's own rank of each location, refilled per loop.
        let mut local = vec![0u32; by_rank.len()];
        for (loop_id, (traced, records)) in self.records {
            let t = self.profile.loop_traces.get_mut(&loop_id).expect("begin_loop made the entry");
            let stmt_cost = std::mem::take(&mut t.stmt_cost);
            let mut ranks: Vec<usize> = records.iter().map(|r| rank_of[r.0 as usize]).collect();
            ranks.sort_unstable();
            ranks.dedup();
            for (i, &rank) in ranks.iter().enumerate() {
                local[rank] = i as u32;
            }
            let locs = ranks.iter().map(|&rank| by_rank[rank].0.clone()).collect();
            let accesses = records
                .into_iter()
                .map(|(id, iter, stmt, kind)| Access { iter, stmt, loc: local[rank_of[id as usize]], kind })
                .collect();
            *t = LoopTrace::new(t.iterations, traced, stmt_cost, locs, accesses);
        }
        self.profile
    }

    fn next_rand(&mut self, n: i64) -> i64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let v = x.wrapping_mul(0x2545F4914F6CDD1D);
        if n <= 0 {
            0
        } else {
            ((v >> 17) % n as u64) as i64
        }
    }

    // ---- calls ----

    fn call_func(
        &mut self,
        func: &'p FuncDecl,
        this: Option<Value>,
        args: Vec<Value>,
    ) -> Result<Value, LangError> {
        if self.frames.len() >= self.options.max_depth {
            return Err(self.err(format!("call depth exceeded calling `{}`", func.name)));
        }
        if func.params.len() != args.len() {
            return Err(self.err(format!(
                "function `{}` expects {} argument(s), got {}",
                func.name,
                func.params.len(),
                args.len()
            )));
        }
        if let Some(caller) = self.call_names.last() {
            self.profile
                .call_edges
                .insert((caller.clone(), func.name.clone()));
        }
        self.call_names.push(func.name.clone());
        let serial = self.frame_next;
        self.frame_next += 1;
        let mut scope = HashMap::new();
        if let Some(this) = this {
            scope.insert("this".to_string(), this);
        }
        for (p, a) in func.params.iter().zip(args) {
            scope.insert(p.clone(), a);
        }
        self.frames.push(Frame { serial, scopes: vec![scope] });
        let flow = self.exec_block(&func.body);
        self.frames.pop();
        self.call_names.pop();
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Null),
        }
    }

    // ---- statements ----

    fn exec_block(&mut self, block: &'p Block) -> Result<Flow, LangError> {
        self.frame().scopes.push(HashMap::new());
        let mut flow = Flow::Normal;
        for stmt in &block.stmts {
            flow = self.exec_stmt(stmt)?;
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        self.frame().scopes.pop();
        Ok(flow)
    }

    /// Execute the statements of a block without opening a new scope
    /// (loop bodies share the iteration scope with the loop variable).
    fn exec_stmts_flat(&mut self, block: &'p Block) -> Result<Flow, LangError> {
        for stmt in &block.stmts {
            let flow = self.exec_stmt(stmt)?;
            if !matches!(flow, Flow::Normal) {
                return Ok(flow);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &'p Stmt) -> Result<Flow, LangError> {
        self.current_line = stmt.span.line;
        self.tick(1)?;
        *self.profile.stmt_hits.entry(stmt.id).or_insert(0) += 1;
        let cost_before = self.cost;
        let flow = self.exec_stmt_inner(stmt);
        let delta = self.cost - cost_before + 1;
        *self.profile.stmt_cost.entry(stmt.id).or_insert(0) += delta;
        flow
    }

    fn exec_stmt_inner(&mut self, stmt: &'p Stmt) -> Result<Flow, LangError> {
        match &stmt.kind {
            StmtKind::VarDecl { name, init } => {
                let v = self.eval(init)?;
                let serial = self.frame_serial();
                self.record(DynLoc::Local(serial, name.as_str().into()), AccessKind::Write);
                self.frame().declare(name, v);
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, op, value } => {
                self.exec_assign(target, *op, value)?;
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then_blk, else_blk } => {
                let c = self.eval(cond)?;
                let b = c
                    .as_bool()
                    .ok_or_else(|| self.err(format!("if condition is {}", c.type_name())))?;
                if b {
                    self.exec_block(then_blk)
                } else if let Some(e) = else_blk {
                    self.exec_block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                self.begin_loop(stmt.id);
                let mut iter = 0usize;
                loop {
                    let c = self.eval(cond)?;
                    let Some(true) = c.as_bool() else {
                        if c.as_bool().is_none() {
                            self.end_loop();
                            return Err(
                                self.err(format!("while condition is {}", c.type_name()))
                            );
                        }
                        break;
                    };
                    let flow = self.run_iteration(stmt.id, iter, body, true)?;
                    iter += 1;
                    match flow {
                        Flow::Break => break,
                        Flow::Return(v) => {
                            self.end_loop();
                            return Ok(Flow::Return(v));
                        }
                        _ => {}
                    }
                }
                self.end_loop();
                Ok(Flow::Normal)
            }
            StmtKind::For { init, cond, update, body } => {
                self.frame().scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.exec_stmt(i)?;
                }
                self.begin_loop(stmt.id);
                let mut iter = 0usize;
                let result = loop {
                    if let Some(c) = cond {
                        let v = self.eval(c)?;
                        match v.as_bool() {
                            Some(true) => {}
                            Some(false) => break Ok(Flow::Normal),
                            None => {
                                break Err(
                                    self.err(format!("for condition is {}", v.type_name()))
                                )
                            }
                        }
                    }
                    let flow = self.run_iteration(stmt.id, iter, body, true)?;
                    iter += 1;
                    match flow {
                        Flow::Break => break Ok(Flow::Normal),
                        Flow::Return(v) => break Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if let Some(u) = update {
                        self.exec_stmt(u)?;
                    }
                };
                self.end_loop();
                self.frame().scopes.pop();
                result
            }
            StmtKind::Foreach { var, iter: iter_expr, body } => {
                let iterable = self.eval(iter_expr)?;
                let items: Vec<Value> = match &iterable {
                    Value::List(l) => {
                        self.record(DynLoc::ListStruct(l.id), AccessKind::Read);
                        l.items.borrow().clone()
                    }
                    Value::Str(s) => s
                        .chars()
                        .map(|c| Value::str(c.to_string()))
                        .collect(),
                    other => {
                        return Err(self.err(format!(
                            "cannot iterate over {}",
                            other.type_name()
                        )))
                    }
                };
                self.begin_loop(stmt.id);
                let mut result = Flow::Normal;
                for (i, item) in items.into_iter().enumerate() {
                    self.frame().scopes.push(HashMap::new());
                    self.frame().declare(var, item);
                    let flow = self.run_iteration(stmt.id, i, body, false);
                    self.frame().scopes.pop();
                    match flow? {
                        Flow::Break => break,
                        Flow::Return(v) => {
                            result = Flow::Return(v);
                            break;
                        }
                        _ => {}
                    }
                }
                self.end_loop();
                Ok(result)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Block(b) => self.exec_block(b),
            StmtKind::Region { body, .. } => self.exec_stmts_flat(body),
        }
    }

    fn begin_loop(&mut self, loop_id: NodeId) {
        if self.options.trace_loops {
            self.profile.loop_traces.entry(loop_id).or_default();
            let frame = self.frame_serial();
            self.traces.push(TraceCtx {
                loop_id,
                frame,
                iter: 0,
                recording: false,
                cur_stmt: None,
            });
        }
    }

    fn end_loop(&mut self) {
        if self.options.trace_loops {
            self.traces.pop();
        }
    }

    /// Execute one loop iteration, attributing each direct body statement's
    /// accesses and cost to the loop trace. `own_scope` opens a fresh scope
    /// for the body (foreach manages its own scope for the loop variable).
    fn run_iteration(
        &mut self,
        loop_id: NodeId,
        iter: usize,
        body: &'p Block,
        own_scope: bool,
    ) -> Result<Flow, LangError> {
        let _ = iter;
        if self.options.trace_loops {
            // The traced prefix is global across re-entries of the loop
            // (a loop in a helper called many times records its first K
            // iterations overall, not K per call) — this both bounds the
            // trace and avoids conflating distinct activations.
            let global_iter = self
                .profile
                .loop_traces
                .get(&loop_id)
                .map(|t| t.iterations as usize)
                .unwrap_or(0);
            if let Some(ctx) = self.traces.last_mut() {
                ctx.iter = global_iter;
                ctx.recording = global_iter < self.options.trace_iters;
                ctx.cur_stmt = None;
            }
            if let Some(t) = self.profile.loop_traces.get_mut(&loop_id) {
                t.iterations += 1;
            }
        }
        if own_scope {
            self.frame().scopes.push(HashMap::new());
        }
        let mut flow = Flow::Normal;
        for s in &body.stmts {
            if self.options.trace_loops {
                if let Some(ctx) = self.traces.last_mut() {
                    ctx.cur_stmt = Some(s.id);
                }
            }
            let before = self.cost;
            flow = self.exec_stmt(s)?;
            let delta = self.cost - before;
            if self.options.trace_loops {
                if let Some(t) = self.profile.loop_traces.get_mut(&loop_id) {
                    *t.stmt_cost.entry(s.id).or_insert(0) += delta;
                }
            }
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        if self.options.trace_loops {
            if let Some(ctx) = self.traces.last_mut() {
                ctx.cur_stmt = None;
            }
        }
        if own_scope {
            self.frame().scopes.pop();
        }
        // `continue` ends the iteration normally.
        if matches!(flow, Flow::Continue) {
            flow = Flow::Normal;
        }
        Ok(flow)
    }

    fn exec_assign(
        &mut self,
        target: &'p LValue,
        op: AssignOp,
        value: &'p Expr,
    ) -> Result<(), LangError> {
        let rhs = self.eval(value)?;
        match &target.kind {
            LValueKind::Var(name) => {
                let serial = self.frame_serial();
                let new = if op == AssignOp::Set {
                    rhs
                } else {
                    self.record(DynLoc::Local(serial, name.as_str().into()), AccessKind::Read);
                    let old = self
                        .frame()
                        .lookup(name)
                        .cloned()
                        .ok_or_else(|| self.err(format!("undefined variable `{name}`")))?;
                    self.apply_compound(op, &old, &rhs)?
                };
                self.record(DynLoc::Local(serial, name.as_str().into()), AccessKind::Write);
                if !self.frame().assign(name, new) {
                    return Err(self.err(format!("assignment to undefined variable `{name}`")));
                }
            }
            LValueKind::Field { base, field } => {
                let obj = self.eval(base)?;
                let Value::Object(o) = &obj else {
                    return Err(self.err(format!(
                        "cannot assign field `{field}` on {}",
                        obj.type_name()
                    )));
                };
                let new = if op == AssignOp::Set {
                    rhs
                } else {
                    self.record(DynLoc::Field(o.id, field.as_str().into()), AccessKind::Read);
                    let old = o
                        .fields
                        .borrow()
                        .get(field)
                        .cloned()
                        .ok_or_else(|| self.err(format!("no field `{field}`")))?;
                    self.apply_compound(op, &old, &rhs)?
                };
                self.record(DynLoc::Field(o.id, field.as_str().into()), AccessKind::Write);
                o.fields.borrow_mut().set(field, new);
            }
            LValueKind::Index { base, index } => {
                let list = self.eval(base)?;
                let idx = self.eval(index)?;
                let Value::List(l) = &list else {
                    return Err(self.err(format!("cannot index {}", list.type_name())));
                };
                let Value::Int(i) = idx else {
                    return Err(self.err(format!("index must be int, got {}", idx.type_name())));
                };
                let len = l.items.borrow().len() as i64;
                if i < 0 || i >= len {
                    return Err(self.err(format!("index {i} out of bounds (len {len})")));
                }
                let new = if op == AssignOp::Set {
                    rhs
                } else {
                    self.record(DynLoc::Elem(l.id, i), AccessKind::Read);
                    let old = l.items.borrow()[i as usize].clone();
                    self.apply_compound(op, &old, &rhs)?
                };
                self.record(DynLoc::Elem(l.id, i), AccessKind::Write);
                l.items.borrow_mut()[i as usize] = new;
            }
        }
        Ok(())
    }

    fn apply_compound(&self, op: AssignOp, old: &Value, rhs: &Value) -> Result<Value, LangError> {
        let bin = match op {
            AssignOp::Add => BinOp::Add,
            AssignOp::Sub => BinOp::Sub,
            AssignOp::Mul => BinOp::Mul,
            AssignOp::Set => unreachable!(),
        };
        binary_op(bin, old, rhs).map_err(|m| self.err(m))
    }

    // ---- expressions ----

    fn eval(&mut self, expr: &'p Expr) -> Result<Value, LangError> {
        self.tick(1)?;
        match &expr.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Float(v) => Ok(Value::Float(*v)),
            ExprKind::Str(s) => Ok(Value::str(s)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Null => Ok(Value::Null),
            ExprKind::Var(name) => {
                let serial = self.frame_serial();
                self.record(DynLoc::Local(serial, name.as_str().into()), AccessKind::Read);
                self.frame()
                    .lookup(name)
                    .cloned()
                    .ok_or_else(|| self.err(format!("undefined variable `{name}`")))
            }
            ExprKind::Unary { op, expr } => {
                let v = self.eval(expr)?;
                match (op, &v) {
                    (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
                    (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    _ => Err(self.err(format!("bad operand {} for unary op", v.type_name()))),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                // short-circuit logic
                if *op == BinOp::And || *op == BinOp::Or {
                    let l = self.eval(lhs)?;
                    let lb = l
                        .as_bool()
                        .ok_or_else(|| self.err(format!("logic on {}", l.type_name())))?;
                    if (*op == BinOp::And && !lb) || (*op == BinOp::Or && lb) {
                        return Ok(Value::Bool(lb));
                    }
                    let r = self.eval(rhs)?;
                    return r
                        .as_bool()
                        .map(Value::Bool)
                        .ok_or_else(|| self.err(format!("logic on {}", r.type_name())));
                }
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                binary_op(*op, &l, &r).map_err(|m| self.err(m))
            }
            ExprKind::Field { base, field } => {
                let b = self.eval(base)?;
                match &b {
                    Value::Object(o) => {
                        self.record(DynLoc::Field(o.id, field.as_str().into()), AccessKind::Read);
                        o.fields
                            .borrow()
                            .get(field)
                            .cloned()
                            .ok_or_else(|| {
                                self.err(format!("no field `{}` on {}", field, o.class))
                            })
                    }
                    other => Err(self.err(format!(
                        "cannot read field `{}` of {}",
                        field,
                        other.type_name()
                    ))),
                }
            }
            ExprKind::Index { base, index } => {
                let b = self.eval(base)?;
                let i = self.eval(index)?;
                let (Value::List(l), Value::Int(i)) = (&b, &i) else {
                    return Err(self.err(format!(
                        "cannot index {} with {}",
                        b.type_name(),
                        i.type_name()
                    )));
                };
                let len = l.items.borrow().len() as i64;
                if *i < 0 || *i >= len {
                    return Err(self.err(format!("index {i} out of bounds (len {len})")));
                }
                self.record(DynLoc::Elem(l.id, *i), AccessKind::Read);
                let v = l.items.borrow()[*i as usize].clone();
                Ok(v)
            }
            ExprKind::Call { callee, args } => {
                let argv = self.eval_args(args)?;
                if let Some(func) = self.program.func(callee) {
                    self.call_func(func, None, argv)
                } else if let Some(id) = BuiltinId::from_name(callee) {
                    call_builtin(self, id, &argv)
                } else {
                    Err(self.err(format!("unknown function `{callee}`")))
                }
            }
            ExprKind::MethodCall { base, method, args } => {
                let recv = self.eval(base)?;
                let argv = self.eval_args(args)?;
                if let Value::Object(o) = &recv {
                    if let Some(m) = self.program.method(&o.class, method) {
                        return self.call_func(m, Some(recv.clone()), argv);
                    }
                }
                call_builtin_method(self, &recv, method, &argv)
            }
            ExprKind::New { class, args } => {
                let argv = self.eval_args(args)?;
                self.construct(class, argv)
            }
            ExprKind::ListLit(items) => {
                let mut v = Vec::with_capacity(items.len());
                for item in items {
                    v.push(self.eval(item)?);
                }
                let id = self.fresh_heap();
                Ok(Value::List(Rc::new(ListData { id, items: RefCell::new(v) })))
            }
        }
    }

    fn eval_args(&mut self, args: &'p [Expr]) -> Result<Vec<Value>, LangError> {
        let mut out = Vec::with_capacity(args.len());
        for a in args {
            out.push(self.eval(a)?);
        }
        Ok(out)
    }

    fn construct(&mut self, class: &str, args: Vec<Value>) -> Result<Value, LangError> {
        let decl = self
            .program
            .class(class)
            .ok_or_else(|| self.err(format!("no class `{class}`")))?;
        let id = self.fresh_heap();
        let mut fields = FieldTable::with_capacity(decl.fields.len());
        // Field initializers run first (in declaration order).
        for f in &decl.fields {
            let v = match &f.init {
                Some(e) => self.eval(e)?,
                None => Value::Null,
            };
            fields.set(&f.name, v);
        }
        let obj = Value::Object(Rc::new(ObjectData {
            id,
            class: Rc::from(class),
            fields: RefCell::new(fields),
        }));
        if let Some(init) = self.program.method(class, "init") {
            self.call_func(init, Some(obj.clone()), args)?;
        } else if !args.is_empty() {
            if args.len() != decl.fields.len() {
                return Err(self.err(format!(
                    "class `{class}` has {} field(s) but constructor got {} argument(s)",
                    decl.fields.len(),
                    args.len()
                )));
            }
            let Value::Object(o) = &obj else { unreachable!() };
            for (f, a) in decl.fields.iter().zip(args) {
                o.fields.borrow_mut().set(&f.name, a);
            }
        }
        Ok(obj)
    }

}

impl Host for Interp<'_> {
    fn tick(&mut self, n: u64) -> Result<(), LangError> {
        Interp::tick(self, n)
    }
    fn rt_err(&self, msg: String) -> LangError {
        self.err(msg)
    }
    fn fresh_heap(&mut self) -> HeapId {
        Interp::fresh_heap(self)
    }
    fn next_rand(&mut self, n: i64) -> i64 {
        Interp::next_rand(self, n)
    }
    fn record(&mut self, loc: DynLoc, kind: AccessKind) {
        Interp::record(self, loc, kind)
    }
    fn push_output(&mut self, line: String) {
        self.output.push(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::profile::DepKind;

    fn run_src(src: &str) -> Outcome {
        let p = parse(src).unwrap();
        run(&p, InterpOptions::default()).unwrap()
    }

    fn run_err(src: &str) -> LangError {
        let p = parse(src).unwrap();
        run(&p, InterpOptions::default()).unwrap_err()
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run_src("fn main() { print(1 + 2 * 3); print(10 / 4); print(10.0 / 4); }");
        assert_eq!(out.output, vec!["7", "2", "2.5"]);
    }

    #[test]
    fn string_concat_and_methods() {
        let out = run_src(
            r#"fn main() { var s = "a" + "b" + 1; print(s.upper()); print(s.len()); }"#,
        );
        assert_eq!(out.output, vec!["AB1", "3"]);
    }

    #[test]
    fn while_and_for_loops() {
        let out = run_src(
            "fn main() { var s = 0; for (var i = 0; i < 5; i = i + 1) { s += i; } print(s); }",
        );
        assert_eq!(out.output, vec!["10"]);
    }

    #[test]
    fn foreach_over_range() {
        let out = run_src("fn main() { var s = 0; foreach (i in range(0, 4)) { s += i; } print(s); }");
        assert_eq!(out.output, vec!["6"]);
    }

    #[test]
    fn break_and_continue() {
        let out = run_src(
            "fn main() { var s = 0; foreach (i in range(0, 10)) { if (i % 2 == 0) { continue; } if (i > 5) { break; } s += i; } print(s); }",
        );
        // odd values <= 5: 1 + 3 + 5
        assert_eq!(out.output, vec!["9"]);
    }

    #[test]
    fn classes_fields_methods() {
        let src = r#"
            class Point {
                var x = 0;
                var y = 0;
                fn dist2() { return this.x * this.x + this.y * this.y; }
            }
            fn main() {
                var p = new Point(3, 4);
                print(p.dist2());
                p.x = 10;
                print(p.x);
            }
        "#;
        let out = run_src(src);
        assert_eq!(out.output, vec!["25", "10"]);
    }

    #[test]
    fn class_with_init_method() {
        let src = r#"
            class Counter {
                var n = 0;
                fn init(start) { this.n = start * 2; }
                fn bump() { this.n += 1; return this.n; }
            }
            fn main() { var c = new Counter(5); print(c.bump()); }
        "#;
        assert_eq!(run_src(src).output, vec!["11"]);
    }

    #[test]
    fn functions_and_recursion() {
        let src = "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } fn main() { print(fib(10)); }";
        assert_eq!(run_src(src).output, vec!["55"]);
    }

    #[test]
    fn list_operations() {
        let src = r#"
            fn main() {
                var xs = [1, 2, 3];
                xs.add(4);
                xs.set(0, 10);
                print(xs.get(0), xs.len(), xs.contains(3));
                print(xs[1] + xs[2]);
            }
        "#;
        assert_eq!(run_src(src).output, vec!["10 4 true", "5"]);
    }

    #[test]
    fn runtime_errors() {
        assert!(run_err("fn main() { var x = 1 / 0; }").message.contains("zero"));
        assert!(run_err("fn main() { print(nope); }").message.contains("undefined"));
        assert!(run_err("fn main() { var xs = [1]; print(xs[5]); }")
            .message
            .contains("bounds"));
        assert!(run_err("fn main() { missing(); }").message.contains("unknown function"));
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let p = parse("fn main() { while (true) { } }").unwrap();
        let err = run(
            &p,
            InterpOptions { step_limit: 10_000, ..InterpOptions::default() },
        )
        .unwrap_err();
        assert!(err.message.contains("step limit"));
    }

    #[test]
    fn work_builtin_adds_cost() {
        let a = run_src("fn main() { work(0); }");
        let b = run_src("fn main() { work(100000); }");
        assert!(b.profile.total_cost > a.profile.total_cost + 90_000);
    }

    #[test]
    fn profile_counts_statement_hits() {
        let src = "fn main() { foreach (i in range(0, 7)) { var x = i; } }";
        let out = run_src(src);
        // one statement ran 7 times
        assert!(out.profile.stmt_hits.values().any(|&h| h == 7));
    }

    #[test]
    fn profile_records_call_edges() {
        let src = "fn helper() { return 1; } fn main() { helper(); }";
        let out = run_src(src);
        assert!(out
            .profile
            .call_edges
            .contains(&("main".to_string(), "helper".to_string())));
    }

    #[test]
    fn loop_trace_sees_accumulator_carried_dep() {
        let src = "fn main() { var s = 0; foreach (i in range(0, 5)) { s = s + i; } print(s); }";
        let out = run_src(src);
        let trace = out.profile.loop_traces.values().next().unwrap();
        let deps = trace.carried_deps();
        assert!(deps.iter().any(|d| d.kind == DepKind::Flow));
    }

    #[test]
    fn loop_trace_doall_has_no_carried_deps() {
        let src = r#"
            fn main() {
                var a = [0, 0, 0, 0, 0];
                var b = [1, 2, 3, 4, 5];
                for (var i = 0; i < 5; i = i + 1) {
                    a[i] = b[i] * 2;
                }
                print(a[4]);
            }
        "#;
        let out = run_src(src);
        assert_eq!(out.output, vec!["10"]);
        // Find the for loop's trace: its body statement writes Elem locs.
        let trace = out
            .profile
            .loop_traces
            .values()
            .find(|t| t.iterations == 5)
            .unwrap();
        // The loop induction variable i produces carried deps via the
        // header, but the single *body* statement's accesses must show no
        // cross-iteration conflicts on the arrays.
        let deps = trace.carried_deps();
        assert!(deps
            .iter()
            .all(|d| !matches!(d.loc, DynLoc::Elem(_, _))));
    }

    #[test]
    fn pipelineable_loop_traces_each_direct_statement() {
        let src = r#"
            class Filter { var gain = 2; fn apply(x) { work(10); return x * this.gain; } }
            fn main() {
                var f = new Filter();
                var g = new Filter();
                var out = [];
                foreach (x in range(0, 6)) {
                    var a = f.apply(x);
                    var b = g.apply(a);
                    out.add(b);
                }
                print(len(out));
            }
        "#;
        let o = run_src(src);
        assert_eq!(o.output, vec!["6"]);
        let trace = o
            .profile
            .loop_traces
            .values()
            .find(|t| t.iterations == 6)
            .unwrap();
        // three direct statements traced
        let first: std::collections::BTreeSet<NodeId> =
            trace.accesses().iter().filter(|a| a.iter == 0).map(|a| a.stmt).collect();
        assert_eq!(first.len(), 3);
        // the two filter stages carry cost
        let costs: Vec<u64> = trace.stmt_cost.values().copied().collect();
        assert!(costs.iter().filter(|&&c| c > 50).count() >= 2);
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let src = "fn main() { print(rand(100), rand(100), rand(100)); }";
        let a = run_src(src);
        let b = run_src(src);
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn region_statements_execute_transparently() {
        let src = "fn main() {\n#region A:\nvar x = 21;\n#endregion\nprint(x * 2);\n}";
        assert_eq!(run_src(src).output, vec!["42"]);
    }

    #[test]
    fn assert_builtin() {
        assert!(run_err(r#"fn main() { assert(false, "boom"); }"#)
            .message
            .contains("boom"));
        let ok = run_src("fn main() { assert(true); print(1); }");
        assert_eq!(ok.output, vec!["1"]);
    }

    #[test]
    fn string_split_and_substr() {
        let src = r#"fn main() {
            var parts = "a,b,c".split(",");
            print(parts.len(), parts[1]);
            print("hello".substr(1, 3));
        }"#;
        assert_eq!(run_src(src).output, vec!["3 b", "el"]);
    }

    #[test]
    fn positional_constructor_arity_mismatch_errors() {
        let err = run_err("class P { var x = 0; } fn main() { var p = new P(1, 2); }");
        assert!(err.message.contains("argument"));
    }

    #[test]
    fn call_depth_limit() {
        let err = run_err("fn f() { return f(); } fn main() { f(); }");
        assert!(err.message.contains("depth"));
    }

    #[test]
    fn trace_iters_caps_recording_but_not_execution() {
        let p = parse("fn main() { var s = 0; foreach (i in range(0, 100)) { s += i; } print(s); }").unwrap();
        let out = run(
            &p,
            InterpOptions { trace_iters: 4, ..InterpOptions::default() },
        )
        .unwrap();
        assert_eq!(out.output, vec!["4950"]);
        let t = out.profile.loop_traces.values().next().unwrap();
        assert_eq!(t.iterations, 100);
        assert_eq!(t.traced_iters(), 4);
    }
}

#[cfg(test)]
mod line_number_tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn runtime_errors_carry_the_statement_line() {
        let src = "fn main() {\n    var a = 1;\n    var b = 2;\n    var c = a / (b - 2);\n}";
        let p = parse(src).unwrap();
        let err = run(&p, InterpOptions::default()).unwrap_err();
        assert_eq!(err.line, 4, "{err}");
        assert!(err.to_string().contains("line 4"));
    }

    #[test]
    fn error_inside_callee_points_at_callee_statement() {
        let src = "fn boom(x) {\n    return 1 / x;\n}\nfn main() {\n    boom(0);\n}";
        let p = parse(src).unwrap();
        let err = run(&p, InterpOptions::default()).unwrap_err();
        assert_eq!(err.line, 2, "{err}");
    }
}
