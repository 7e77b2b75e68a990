//! Stack-based virtual machine executing [`crate::bytecode`] programs.
//!
//! The VM is the fast engine behind [`crate::interp::Engine::Vm`]. It is
//! observationally identical to the tree-walker: same [`Outcome`], same
//! [`crate::error::LangError`] (phase, line, message), and a byte-identical
//! [`Profile`] — statement hits, inclusive costs, loop access traces, call
//! edges, deterministic heap ids, frame serials and `rand()` streams.
//!
//! Where the speed comes from:
//!
//! * locals are frame slots in a flat register file — no `HashMap` scope
//!   chain, no string hashing on variable access; the current frame's base
//!   is cached in the dispatch loop;
//! * expression-node ticks are pre-coalesced by the compiler into single
//!   `Op::Tick` ops;
//! * functions, builtins and classes are pre-resolved table indices, and
//!   call arguments move straight from the value stack into parameter
//!   slots — no per-call argument vector;
//! * profile bookkeeping is dense: statement hits/costs live in flat arrays
//!   indexed by statement id, per-loop counters in arrays indexed by
//!   compile-time loop/statement slots, and traced accesses in 16-byte
//!   `(iter, stmt, location id, kind)` records. The canonical [`Profile`] —
//!   byte-identical to the tree-walker's — is materialized once, after the
//!   run, by one ranking of the location ids and two counting passes per
//!   loop;
//! * loop-trace recording hides behind one cached `record_active` flag,
//!   maintained incrementally alongside the list of actively-recording
//!   contexts (`rec_ctxs`). A traced location gets its dense id through
//!   side tables — the frame's locals, the object's fields — and record-time
//!   dedup compares one stamp per (id, context position, kind): no hashing
//!   on the common paths (`Cells`);
//! * programs arrive fused by [`crate::fuse`]: superinstructions, hoisted
//!   ticks and (in exec mode) stripped trace bookkeeping. [`profile_ops`]
//!   counts what a run of them dispatched.

use crate::ast::Program;
use crate::builtins::{binary_op, call_builtin, call_builtin_method_tagged, Host};
use crate::bytecode::{compound_bin, CompiledProgram, Op, UndefKind};
use crate::error::LangError;
use crate::fuse::{compile_fused, op_kind, OpCounters, OpCounts};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::interp::{InterpOptions, Outcome};
use crate::profile::{Access, AccessKind, DynLoc, LoopTrace, Profile};
use crate::span::NodeId;
use crate::value::{FieldTable, HeapId, ListData, ObjectData, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The one-shot path: compile and fuse `program` for `options` and run a
/// named free function on the VM — the whole program is compiled on every
/// call. A loop of calls on one program calls [`compile_fused`] once and
/// goes through [`run_compiled`].
pub fn run_func(
    program: &Program,
    name: &str,
    args: Vec<Value>,
    options: InterpOptions,
) -> Result<Outcome, LangError> {
    run_compiled(&compile_fused(program, options.trace_loops), name, args, options)
}

/// Run a named free function of an already-compiled program. Compiling once
/// and calling this repeatedly amortizes compilation across runs.
pub fn run_compiled(
    compiled: &CompiledProgram,
    name: &str,
    args: Vec<Value>,
    options: InterpOptions,
) -> Result<Outcome, LangError> {
    run_compiled_metered(compiled, name, args, options).0
}

/// [`run_compiled`], plus the virtual cost the run consumed. A failed run
/// reports what it spent too, which is what a caller that hands out
/// `step_limit` from a shared fuel budget has to charge.
pub fn run_compiled_metered(
    compiled: &CompiledProgram,
    name: &str,
    args: Vec<Value>,
    options: InterpOptions,
) -> (Result<Outcome, LangError>, u64) {
    let func = match lookup_entry(compiled, name, &options) {
        Ok(func) => func,
        Err(e) => return (Err(e), 0),
    };
    let mut vm = Vm::new(compiled, options);
    match vm.run(func, args) {
        Ok(result) => {
            let profile = vm.build_profile();
            (Ok(Outcome { result, output: vm.output, profile }), vm.cost)
        }
        Err(e) => (Err(e), vm.cost),
    }
}

/// Run with opcode/pair frequency counters enabled and return what the
/// run dispatched alongside the outcome. The counted run is
/// observationally identical to a plain one.
pub fn profile_ops(
    compiled: &CompiledProgram,
    name: &str,
    args: Vec<Value>,
    options: InterpOptions,
) -> Result<(Outcome, OpCounts), LangError> {
    let func = lookup_entry(compiled, name, &options)?;
    let mut vm = Vm::new(compiled, options);
    vm.counters = Some(Box::new(OpCounters::new()));
    let result = if vm.options.trace_loops {
        vm.run_ops::<true, true>(func, args)?
    } else {
        vm.run_ops::<true, false>(func, args)?
    };
    let profile = vm.build_profile();
    let counters = vm.counters.take().expect("profiling counters");
    let counts = OpCounts::new(compiled, &counters, vm.field_ic_hits, vm.field_ic_misses);
    Ok((Outcome { result, output: vm.output, profile }, counts))
}

/// Shared entry lookup + the stripped-program guard: a program fused for
/// untraced runs has no trace bookkeeping ops left, cannot honor the
/// loop-trace contract and must refuse rather than silently produce an
/// empty trace.
fn lookup_entry(
    compiled: &CompiledProgram,
    name: &str,
    options: &InterpOptions,
) -> Result<u32, LangError> {
    if compiled.stripped_tracing && options.trace_loops {
        return Err(LangError::runtime(
            0,
            "program was fused for untraced runs and has no loop-trace ops (fuse it with `traced = true` to trace loops)",
        ));
    }
    compiled
        .free_funcs
        .get(name)
        .copied()
        .ok_or_else(|| LangError::runtime(0, format!("no function `{name}`")))
}

/// One activation record. `base` is the frame's window into the slot file;
/// `cells_at` is where its segment of [`Cells::frame_cells`] starts;
/// `ctor_obj` is set for inlined `init` calls, whose return value is
/// replaced by the constructed object.
struct VmFrame {
    ret_pc: usize,
    base: usize,
    serial: u32,
    cells_at: u32,
    ctor_obj: Option<Value>,
}

/// A traced location as the integers it is made of: names are interned
/// ids, resolved to strings only when the final profile is built.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Cell {
    Local(u32, u32),
    Field(HeapId, u32),
    Elem(HeapId, i64),
    ListStruct(HeapId),
}

/// The heap-chain key of an object's list structure; a field's key is its
/// interned name.
const STRUCTURE: u32 = u32::MAX;

/// Recording contexts, innermost-last positions in `Vm::rec_ctxs`, whose
/// stamps are a vector indexed by id. A context nested deeper keeps its
/// stamps in one exact map ([`Cells::deep_stamps`]).
const STAMP_DEPTH: usize = 4;

/// A link of an object's chain in [`Cells::heap_chain`].
#[derive(Clone, Copy)]
struct HeapLink {
    /// A field's interned name, or [`STRUCTURE`].
    key: u32,
    id: u32,
    /// 1 + the index of the object's next link, 0 at the end.
    next: u32,
}

/// Dense ids for traced locations, handed out the first time any recording
/// context touches one, through side tables instead of hashing:
/// * a local of the current frame goes through that frame's `(name, id)`
///   segment of `frame_cells`, which a return truncates;
/// * a field or the list structure of an object goes through a chain
///   hanging off the object's heap id;
/// * everything else — an element, a cell a builtin reports by name, an
///   object id past the table — goes through one exact map.
///
/// The same location can get two ids (a name interned twice, an object met
/// past the heap table and again after it grew); ranking after the run
/// gives them one rank. Only traced runs fill the tables.
#[derive(Default)]
struct Cells {
    /// The location of each id.
    cells: Vec<Cell>,
    /// Per stamped `rec_ctxs` position, two per id (read, write): the
    /// `gen` of the context that last recorded the id there, 0 for never.
    /// `gen`s are unique per `(iteration, statement)` activation, so a
    /// match means "already recorded here". Each grows only as far as the
    /// ids its position records: inner positions are busy briefly.
    stamps: [Vec<u32>; STAMP_DEPTH],
    /// The stamps of positions past `stamps`, by `(position, 2 * id +
    /// kind)`: as exact, and as large as what those contexts recorded.
    deep_stamps: FxHashMap<(usize, usize), u32>,
    /// `(name, id)` of the locals interned per live frame, in call order.
    frame_cells: Vec<(u32, u32)>,
    /// Per heap id: 1 + the index of its newest link, 0 for none. Sized by
    /// [`Cells::heap`] to stay proportional to the traced locations.
    heap_heads: Vec<u32>,
    heap_chain: Vec<HeapLink>,
    others: FxHashMap<Cell, u32>,
}

impl Cells {
    fn add(&mut self, cell: Cell) -> u32 {
        self.cells.push(cell);
        self.cells.len() as u32 - 1
    }

    /// Local `name` of the current frame, whose segment starts at `at`.
    #[inline]
    fn local(&mut self, at: u32, serial: u32, name: u32) -> u32 {
        if let Some(&(_, id)) = self.frame_cells[at as usize..].iter().find(|c| c.0 == name) {
            return id;
        }
        let id = self.add(Cell::Local(serial, name));
        self.frame_cells.push((name, id));
        id
    }

    /// Field `key` — or, for [`STRUCTURE`], the list structure — of object
    /// `obj`; ids below `heap_heads.len()` have a chain. The table grows to
    /// `heap_next`, one entry per object the run allocated, only while that
    /// is at most four entries per traced location (plus a page's worth):
    /// an object met when it is not goes to the exact map, so a run that
    /// allocates millions of objects and then traces a few keeps a small
    /// table.
    #[inline]
    fn heap(&mut self, obj: HeapId, key: u32, heap_next: HeapId) -> u32 {
        if obj as usize >= self.heap_heads.len() {
            if obj >= heap_next || heap_next as usize > 4 * self.cells.len() + 4096 {
                return self.other(if key == STRUCTURE { Cell::ListStruct(obj) } else { Cell::Field(obj, key) });
            }
            self.heap_heads.resize(heap_next as usize, 0);
        }
        let obj = obj as usize;
        let mut at = self.heap_heads[obj];
        while at != 0 {
            let link = self.heap_chain[at as usize - 1];
            if link.key == key {
                return link.id;
            }
            at = link.next;
        }
        let id = self.add(if key == STRUCTURE { Cell::ListStruct(obj as HeapId) } else { Cell::Field(obj as HeapId, key) });
        self.heap_chain.push(HeapLink { key, id, next: self.heap_heads[obj] });
        self.heap_heads[obj] = self.heap_chain.len() as u32;
        id
    }

    fn other(&mut self, cell: Cell) -> u32 {
        if let Some(&id) = self.others.get(&cell) {
            return id;
        }
        let id = self.add(cell);
        self.others.insert(cell, id);
        id
    }
}

/// Rank `cells` by `key`, which orders as their locations do: the rank of
/// each cell, equal keys equal rank, and one cell id per rank.
fn rank_by<K: Copy + Eq + Into<u128>>(cells: &[Cell], key: impl Fn(Cell) -> K) -> (Vec<u32>, Vec<u32>) {
    let mut keyed: Vec<(K, u32)> = cells.iter().enumerate().map(|(id, &c)| (key(c), id as u32)).collect();
    radix_sort(&mut keyed);
    let mut rank = vec![0u32; cells.len()];
    let mut ranked = Vec::new();
    for (i, &(key, id)) in keyed.iter().enumerate() {
        if i == 0 || keyed[i - 1].0 != key {
            ranked.push(id);
        }
        rank[id as usize] = ranked.len() as u32 - 1;
    }
    (rank, ranked)
}

/// Sort `(key, id)` pairs by key: a stable LSD radix sort, one counting
/// pass per key byte that is not the same in every key.
fn radix_sort<K: Copy + Into<u128>>(pairs: &mut Vec<(K, u32)>) {
    let Some(&(first, _)) = pairs.first() else { return };
    let first = first.into();
    let varying = pairs.iter().fold(0, |acc, &(key, _)| acc | (key.into() ^ first));
    let mut buf = pairs.clone();
    for shift in (0..128).step_by(8) {
        if (varying >> shift) as u8 == 0 {
            continue;
        }
        let digit = |key: K| (key.into() >> shift) as u8 as usize;
        let mut next = [0usize; 256];
        for &(key, _) in pairs.iter() {
            next[digit(key)] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            (*slot, at) = (at, at + *slot);
        }
        for &pair in pairs.iter() {
            buf[next[digit(pair.0)]] = pair;
            next[digit(pair.0)] += 1;
        }
        std::mem::swap(pairs, &mut buf);
    }
}

/// Dense runtime counters of one compiled loop.
struct LoopRun {
    /// Whether `BeginLoop` ever executed — the tree-walker creates the
    /// (possibly empty) trace entry on loop entry, even for zero iterations.
    entered: bool,
    iterations: u64,
    /// Inclusive cost per direct body statement, by compile-time slot.
    stmt_cost: Vec<u64>,
    /// Which slots ever executed: the tree-walker creates a cost entry on
    /// first execution even when the attributed delta is zero.
    stmt_seen: Vec<bool>,
    /// The traced prefix's accesses in arrival order, `loc` holding the
    /// [`Cells`] id until the profile is built. A context stamps what it
    /// recorded, so a site repeated a thousand times in one statement of
    /// one iteration — a traced outer iteration runs whole subcomputations
    /// — is pushed once; one context pushes in ascending `(iter, stmt)`
    /// groups, which is what lets [`LoopTrace::new`] count instead of sort.
    records: Vec<Access>,
}

/// An active loop-trace context, mirroring the tree-walker's stack.
struct VmTraceCtx {
    loop_idx: u32,
    iter: usize,
    recording: bool,
    cur_stmt: Option<NodeId>,
    /// Globally-unique stamp of the current `(iter, cur_stmt)` activation
    /// (reassigned at every `IterStmtEnter`), keying record-time dedup.
    gen: u32,
}

struct Vm<'p> {
    prog: &'p CompiledProgram,
    options: InterpOptions,
    stack: Vec<Value>,
    /// Flat slot file; each frame owns `base..base + frame_size`.
    slots: Vec<Value>,
    frames: Vec<VmFrame>,
    /// Interned names of the active call chain (for call edges).
    call_names: Vec<u32>,
    /// Call edges observed, as interned-name pairs.
    edges_seen: FxHashSet<(u32, u32)>,
    /// Active foreach iterations: (snapshot, next index).
    iter_states: Vec<(Vec<Value>, usize)>,
    /// Open statement cost watermarks (id, cost at entry).
    stmt_marks: Vec<(NodeId, u64)>,
    /// Open direct-loop-statement cost watermarks.
    iter_marks: Vec<u64>,
    /// Dense per-statement counters, indexed by statement `NodeId`.
    stmt_hits: Vec<u64>,
    stmt_cost: Vec<u64>,
    /// Dense per-loop counters, indexed by compile-time loop index.
    loop_runs: Vec<LoopRun>,
    /// Names recorded by builtins that are not in the compile-time table
    /// (ids offset past `prog.names`).
    dyn_names: Vec<Rc<str>>,
    /// Monomorphic method-dispatch cache, indexed by interned method name:
    /// `(class index, function index)`. Valid only for receivers whose
    /// class `Rc` is the program's pooled one (anything the VM allocated),
    /// checked by pointer identity on every hit. Name-keyed rather than
    /// site-keyed so every call site of e.g. `.dot()` shares one entry.
    method_cache: Vec<Option<(u32, u32)>>,
    /// Monomorphic field-load inline cache, indexed by interned field
    /// name: `(class index, entry offset in the receiver's field table)`.
    /// Same keying and pointer-identity discipline as `method_cache`,
    /// with one extra guard: the key at the cached offset is re-checked
    /// on every hit, because field tables can grow at runtime and two
    /// same-class objects may place a late-added field at different
    /// offsets. Any mismatch deopts to the linear-scan slow path, which
    /// re-records the cache.
    field_cache: Vec<Option<(u32, u32)>>,
    /// Field-IC effectiveness counters, exported by [`profile_ops`].
    field_ic_hits: u64,
    field_ic_misses: u64,
    /// Reusable argument buffer for builtin calls (no per-call `Vec`).
    scratch: Vec<Value>,
    heap_next: HeapId,
    frame_next: u32,
    cost: u64,
    output: Vec<String>,
    traces: Vec<VmTraceCtx>,
    rng: u64,
    current_line: u32,
    /// Cached: some trace context is recording with a current statement
    /// (equivalently: `rec_ctxs` is non-empty). Maintained incrementally
    /// by the trace ops — no per-record scan of the context stack.
    record_active: bool,
    /// Indices into `traces` of contexts that are actively recording
    /// (recording == true and cur_stmt set), innermost last. Only the
    /// innermost context ever toggles its `cur_stmt`, so this stays
    /// correct with O(1) push/pop at the trace ops.
    rec_ctxs: Vec<u32>,
    /// Source of `VmTraceCtx::gen` stamps.
    gen_next: u32,
    /// The traced locations' ids and dedup stamps.
    cells: Cells,
    /// Dispatch counters, present only under [`profile_ops`].
    counters: Option<Box<OpCounters>>,
}

impl<'p> Vm<'p> {
    fn new(prog: &'p CompiledProgram, options: InterpOptions) -> Vm<'p> {
        let rng = options.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let trace_loops = options.trace_loops;
        Vm {
            prog,
            options,
            stack: Vec::with_capacity(64),
            slots: Vec::with_capacity(64),
            frames: Vec::with_capacity(16),
            call_names: Vec::with_capacity(16),
            edges_seen: FxHashSet::default(),
            iter_states: Vec::new(),
            stmt_marks: Vec::with_capacity(32),
            iter_marks: Vec::with_capacity(32),
            stmt_hits: vec![0; prog.n_stmts as usize],
            stmt_cost: vec![0; prog.n_stmts as usize],
            loop_runs: if trace_loops {
                prog.loop_infos
                    .iter()
                    .map(|info| LoopRun {
                        entered: false,
                        iterations: 0,
                        stmt_cost: vec![0; info.stmts.len()],
                        stmt_seen: vec![false; info.stmts.len()],
                        records: Vec::new(),
                    })
                    .collect()
            } else {
                Vec::new()
            },
            dyn_names: Vec::new(),
            method_cache: vec![None; prog.names.len()],
            field_cache: vec![None; prog.names.len()],
            field_ic_hits: 0,
            field_ic_misses: 0,
            scratch: Vec::with_capacity(8),
            heap_next: 1,
            frame_next: 1,
            cost: 0,
            output: Vec::new(),
            traces: Vec::new(),
            rng,
            current_line: 0,
            record_active: false,
            rec_ctxs: Vec::new(),
            gen_next: 0,
            cells: Cells::default(),
            counters: None,
        }
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        LangError::runtime(self.current_line, msg)
    }

    /// Field load through the monomorphic inline cache — shared by
    /// `LoadField` and the fused `SlotField`. Hit path: one pointer
    /// comparison on the class plus one on the key at the cached offset.
    /// Miss path: the linear scan [`FieldTable::get_interned_at`], then
    /// the cache is (re)recorded iff the receiver's class `Rc` is the
    /// program's pooled one (the same publication rule as the method
    /// cache, checked by pointer identity).
    #[inline]
    fn load_field_cached(&mut self, o: &ObjectData, name: u32) -> Result<Value, LangError> {
        let prog = self.prog;
        let site = name as usize;
        let key = &prog.names_rc[site];
        if let Some((ci, off)) = self.field_cache[site] {
            if Rc::ptr_eq(&o.class, &prog.class_names[ci as usize]) {
                if let Some(v) = o.fields.borrow().get_at(off as usize, key) {
                    self.field_ic_hits += 1;
                    return Ok(v.clone());
                }
            }
        }
        self.field_ic_misses += 1;
        let fields = o.fields.borrow();
        let (off, v) = fields.get_interned_at(key).ok_or_else(|| {
            self.err(format!("no field `{}` on {}", self.name(name), o.class))
        })?;
        let v = v.clone();
        drop(fields);
        if let Some(&ci) = prog.class_by_name.get(&*o.class) {
            if Rc::ptr_eq(&o.class, &prog.class_names[ci as usize]) {
                self.field_cache[site] = Some((ci, off as u32));
            }
        }
        Ok(v)
    }

    /// Terminal error-op constructors, outlined so their formatting code
    /// stays off the dispatch loop's hot path (they always end the run).
    #[cold]
    #[inline(never)]
    fn undef_var_err(&self, name: u32, kind: UndefKind) -> LangError {
        let name = self.name(name);
        match kind {
            UndefKind::Read => self.err(format!("undefined variable `{name}`")),
            UndefKind::Assign => self.err(format!("assignment to undefined variable `{name}`")),
        }
    }

    #[cold]
    #[inline(never)]
    fn unknown_call_err(&self, name: u32) -> LangError {
        self.err(format!("unknown function `{}`", self.name(name)))
    }

    #[cold]
    #[inline(never)]
    fn no_class_err(&self, name: u32) -> LangError {
        self.err(format!("no class `{}`", self.name(name)))
    }

    #[inline]
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

    fn next_rand(&mut self, n: i64) -> i64 {
        // xorshift64* — identical stream to the tree-walker.
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

    /// Record one access to the location `id` into every active recording
    /// trace context — a 16-byte push per context that has not recorded it
    /// in its current `(iteration, statement)` yet. Iterates only the
    /// contexts known to be recording (`rec_ctxs`); a repeat can only land
    /// in an iteration and statement its first occurrence already created,
    /// so skipping it changes nothing downstream.
    fn record_cell(&mut self, id: u32, kind: AccessKind) {
        let at = 2 * id as usize + kind as usize;
        let n_ids = self.cells.cells.len();
        for (pos, &ci) in self.rec_ctxs.iter().enumerate() {
            let ctx = &self.traces[ci as usize];
            debug_assert!(ctx.recording);
            let Some(stmt) = ctx.cur_stmt else {
                debug_assert!(false, "rec_ctxs entry without a current statement");
                continue;
            };
            let stamp = match self.cells.stamps.get_mut(pos) {
                Some(stamps) => {
                    if at >= stamps.len() {
                        stamps.resize(2 * n_ids, 0);
                    }
                    &mut stamps[at]
                }
                None => self.cells.deep_stamps.entry((pos, at)).or_insert(0),
            };
            if *stamp == ctx.gen {
                continue;
            }
            *stamp = ctx.gen;
            let access = Access { iter: ctx.iter as u32, stmt, loc: id, kind };
            self.loop_runs[ctx.loop_idx as usize].records.push(access);
        }
    }

    /// Record an access to local `name` of the current frame.
    #[inline]
    fn record_local(&mut self, name: u32, kind: AccessKind) {
        let frame = self.frames.last().expect("a frame is running");
        let id = self.cells.local(frame.cells_at, frame.serial, name);
        self.record_cell(id, kind);
    }

    /// Record an access to field `key` of object `obj`, or to its list
    /// structure when `key` is [`STRUCTURE`].
    #[inline]
    fn record_heap(&mut self, obj: HeapId, key: u32, kind: AccessKind) {
        let id = self.cells.heap(obj, key, self.heap_next);
        self.record_cell(id, kind);
    }

    fn record_other(&mut self, cell: Cell, kind: AccessKind) {
        let id = self.cells.other(cell);
        self.record_cell(id, kind);
    }

    #[inline]
    fn pop(&mut self) -> Value {
        self.stack.pop().expect("vm stack underflow")
    }

    fn name(&self, id: u32) -> &str {
        &self.prog.names[id as usize]
    }

    /// Builtin (list/string) method call, dispatched by the compile-time
    /// tag of the interned method name.
    fn dispatch_builtin_method(
        &mut self,
        name: u32,
        recv: &Value,
        args: &[Value],
    ) -> Result<Value, LangError> {
        match self.prog.method_tags[name as usize] {
            Some(tag) => {
                let method = self.prog.names_rc[name as usize].clone();
                call_builtin_method_tagged(self, recv, tag, &method, args)
            }
            None => Err(self.rt_err(format!(
                "no method `{}` on {}",
                self.name(name),
                recv.type_name()
            ))),
        }
    }

    /// Resolve an interned name, including runtime-recorded ones.
    fn resolve_name(&self, id: u32) -> &str {
        let id = id as usize;
        let n = self.prog.names.len();
        if id < n {
            &self.prog.names[id]
        } else {
            &self.dyn_names[id - n]
        }
    }

    /// Resolve an interned name as a shared `Rc<str>` — a refcount bump,
    /// so materializing profile records never allocates strings.
    fn resolve_rc(&self, id: u32) -> Rc<str> {
        let id = id as usize;
        let n = self.prog.names.len();
        if id < n {
            self.prog.names_rc[id].clone()
        } else {
            self.dyn_names[id - n].clone()
        }
    }

    /// Intern a name recorded at runtime (builtin-reported locations whose
    /// names are not in the compile-time table). Cold path.
    fn intern_dyn(&mut self, name: &str) -> u32 {
        let base = self.prog.names.len();
        if let Some(i) = self.dyn_names.iter().position(|n| &**n == name) {
            return (base + i) as u32;
        }
        self.dyn_names.push(Rc::from(name));
        (base + self.dyn_names.len() - 1) as u32
    }

    /// The profile's location for `cell`, names resolved to shared strings.
    fn dyn_loc(&self, cell: Cell) -> DynLoc {
        match cell {
            Cell::Local(serial, name) => DynLoc::Local(serial, self.resolve_rc(name)),
            Cell::Field(id, name) => DynLoc::Field(id, self.resolve_rc(name)),
            Cell::Elem(id, i) => DynLoc::Elem(id, i),
            Cell::ListStruct(id) => DynLoc::ListStruct(id),
        }
    }

    /// Rank every traced location id in `DynLoc` order, equal locations
    /// equal rank: the rank of each id, and one id per rank.
    fn rank_cells(&self) -> (Vec<u32>, Vec<u32>) {
        let cells = &self.cells.cells;
        if cells.is_empty() {
            return (Vec::new(), Vec::new());
        }
        // Rank every name (compile-time and runtime-interned) by string
        // order, equal strings equal rank.
        let n_names = self.prog.names.len() + self.dyn_names.len();
        let mut by_str: Vec<u32> = (0..n_names as u32).collect();
        by_str.sort_unstable_by_key(|&id| self.resolve_name(id));
        let mut name_rank = vec![0u32; n_names];
        for (i, &id) in by_str.iter().enumerate().skip(1) {
            let prev = by_str[i - 1];
            let same = self.resolve_name(prev) == self.resolve_name(id);
            name_rank[id as usize] = name_rank[prev as usize] + u32::from(!same);
        }
        // A cell as `(variant, frame serial or heap id, name rank or
        // index)`, which order as its `DynLoc` does; an `i64` index is
        // sign-flipped into an ordered `u64`.
        let parts = |cell: Cell| match cell {
            Cell::Local(serial, name) => (0, serial as u64, name_rank[name as usize] as u64),
            Cell::Field(id, name) => (1, id, name_rank[name as usize] as u64),
            Cell::Elem(id, i) => (2, id, (i as u64) ^ (1 << 63)),
            Cell::ListStruct(id) => (3, id, 0),
        };
        // Packed into one integer of as few bits as the run needs: the
        // third part less its variant's minimum.
        let mut b_min = [u64::MAX; 4];
        let (mut a_max, mut b_span) = (0, 0);
        for &cell in cells {
            let (tag, a, b) = parts(cell);
            a_max = a_max.max(a);
            b_min[tag] = b_min[tag].min(b);
        }
        for &cell in cells {
            let (tag, _, b) = parts(cell);
            b_span = b_span.max(b - b_min[tag]);
        }
        debug_assert!(a_max < 1 << 62, "no run makes 2^62 frames or objects");
        let bits = |x: u64| 64 - x.leading_zeros();
        let (a_bits, b_bits) = (bits(a_max), bits(b_span));
        let key = |cell: Cell| {
            let (tag, a, b) = parts(cell);
            ((tag as u128) << (a_bits + b_bits)) | ((a as u128) << b_bits) | (b - b_min[tag]) as u128
        };
        if 2 + a_bits + b_bits <= 64 {
            rank_by(cells, |cell| key(cell) as u64)
        } else {
            rank_by(cells, key)
        }
    }

    /// Materialize the canonical profile from the dense counters. Only
    /// called on successful runs (errors discard the profile, like the
    /// tree-walker).
    ///
    /// The maps are bulk-built from pre-sorted vectors instead of grown by
    /// repeated inserts, and each loop's records go to [`LoopTrace::new`]
    /// under the loop's own dense ranks: the only `DynLoc`s built are one
    /// per distinct location.
    fn build_profile(&mut self) -> Profile {
        let mut p = Profile { total_cost: self.cost, ..Profile::default() };
        p.stmt_hits = self
            .stmt_hits
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h > 0)
            .map(|(i, &h)| (NodeId(i as u32), h))
            .collect();
        p.stmt_cost = self
            .stmt_hits
            .iter()
            .enumerate()
            .filter(|&(_, &h)| h > 0)
            .map(|(i, _)| (NodeId(i as u32), self.stmt_cost[i]))
            .collect();
        p.call_edges = self
            .edges_seen
            .iter()
            .map(|&(a, b)| (self.name(a).to_string(), self.name(b).to_string()))
            .collect();

        let (rank, ranked) = self.rank_cells();
        // Scratch over all ranks, reused by every loop: which ranks the
        // loop touched (one bit each, cleared as they are read back in
        // order), then each one's dense rank within the loop.
        let mut touched = vec![0u64; ranked.len().div_ceil(64)];
        let mut local = vec![0u32; ranked.len()];
        let loop_runs = std::mem::take(&mut self.loop_runs);
        let mut traces: Vec<(NodeId, LoopTrace)> = Vec::new();
        for (idx, run) in loop_runs.into_iter().enumerate() {
            if !run.entered {
                continue;
            }
            let info = &self.prog.loop_infos[idx];
            let stmt_cost = run
                .stmt_seen
                .iter()
                .enumerate()
                .filter(|&(_, &seen)| seen)
                .map(|(slot, _)| (info.stmts[slot], run.stmt_cost[slot]))
                .collect();
            let mut accesses = run.records;
            let mut distinct = 0;
            for a in &mut accesses {
                a.loc = rank[a.loc as usize];
                let (word, bit) = (&mut touched[a.loc as usize / 64], 1 << (a.loc % 64));
                distinct += usize::from(*word & bit == 0);
                *word |= bit;
            }
            let mut locs = Vec::with_capacity(distinct);
            if distinct > 0 {
                for (w, word) in touched.iter_mut().enumerate() {
                    while *word != 0 {
                        let r = w * 64 + word.trailing_zeros() as usize;
                        *word &= *word - 1;
                        local[r] = locs.len() as u32;
                        locs.push(self.dyn_loc(self.cells.cells[ranked[r] as usize]));
                    }
                }
            }
            for a in &mut accesses {
                a.loc = local[a.loc as usize];
            }
            traces.push((info.id, LoopTrace::new(run.iterations, stmt_cost, locs, accesses)));
        }
        p.loop_traces = BTreeMap::from_iter(traces);
        p
    }

    /// Set up a frame for `func`, moving the top `argc` stack values into
    /// its parameter slots, and return its entry pc.
    fn call(
        &mut self,
        func: u32,
        argc: usize,
        this: Option<Value>,
        ret_pc: usize,
        ctor_obj: Option<Value>,
    ) -> Result<usize, LangError> {
        let f = self.prog.funcs[func as usize];
        if self.frames.len() >= self.options.max_depth {
            return Err(self.err(format!(
                "call depth exceeded calling `{}`",
                self.name(f.name)
            )));
        }
        if f.n_params as usize != argc {
            return Err(self.err(format!(
                "function `{}` expects {} argument(s), got {}",
                self.name(f.name),
                f.n_params,
                argc
            )));
        }
        if let Some(&caller) = self.call_names.last() {
            self.edges_seen.insert((caller, f.name));
        }
        self.call_names.push(f.name);
        let serial = self.frame_next;
        self.frame_next += 1;
        let base = self.slots.len();
        self.slots.resize(base + f.frame_size as usize, Value::Null);
        let mut at = base;
        if f.is_method {
            self.slots[at] = this.unwrap_or(Value::Null);
            at += 1;
        }
        let start = self.stack.len() - argc;
        for i in 0..argc {
            self.slots[at + i] = std::mem::replace(&mut self.stack[start + i], Value::Null);
        }
        self.stack.truncate(start);
        let cells_at = self.cells.frame_cells.len() as u32;
        self.frames.push(VmFrame { ret_pc, base, serial, cells_at, ctor_obj });
        Ok(f.entry as usize)
    }

    fn run(&mut self, entry_func: u32, args: Vec<Value>) -> Result<Value, LangError> {
        if self.options.trace_loops {
            self.run_ops::<false, true>(entry_func, args)
        } else {
            self.run_ops::<false, false>(entry_func, args)
        }
    }

    /// The dispatch loop, monomorphized over the op-counting switch and
    /// the tracing switch: with `PROFILE = false` the counter hooks vanish
    /// entirely, and with `TRACED = false` (execution mode) every
    /// `record_active` test and trace-bookkeeping branch constant-folds
    /// away, so plain runs pay nothing for either capability.
    /// `TRACED` must equal `options.trace_loops`.
    fn run_ops<const PROFILE: bool, const TRACED: bool>(
        &mut self,
        entry_func: u32,
        args: Vec<Value>,
    ) -> Result<Value, LangError> {
        let argc = args.len();
        self.stack.extend(args);
        let mut pc = self.call(entry_func, argc, None, usize::MAX, None)?;
        // The current frame's base, cached across ops and refreshed on
        // call/return.
        let mut base = self.frames.last().expect("entry frame").base;
        let code: &'p [Op] = &self.prog.code;
        loop {
            debug_assert!(pc < code.len(), "pc out of bounds");
            // SAFETY: `pc` is a compiled function entry, a jump target, or
            // sequential from one of those. `bytecode::compile` keeps every
            // target in-bounds and terminates every path with `Ret` (or
            // `UndefVar`), and `CompiledProgram::fused` remaps targets through
            // the same invariant — `control_stays_in_bounds`, which it
            // debug-asserts on its result and `fuse`'s tests check over the
            // corpus in both modes — so `pc` never reaches `code.len()`.
            let op = unsafe { *code.get_unchecked(pc) };
            if PROFILE {
                if let Some(c) = self.counters.as_deref_mut() {
                    c.count(op_kind(&op));
                }
            }
            pc += 1;
            match op {
                Op::Tick(n) => self.tick(n as u64)?,
                Op::TickJump { n, target } => {
                    self.tick(n as u64)?;
                    pc = target as usize;
                }
                Op::StmtEnterTick { id, line, n } => {
                    self.current_line = line;
                    // One combined limit check for `StmtEnter`'s own tick
                    // and the fused `Tick(n)`: the abort decision and
                    // line are identical, and the mark is backdated so
                    // `StmtExit`'s `cost - mark + 1` matches
                    // `StmtEnter; Tick(n)` exactly.
                    self.tick(1 + n as u64)?;
                    self.stmt_hits[id.0 as usize] += 1;
                    self.stmt_marks.push((id, self.cost - n as u64));
                }
                Op::IterStmtEnterTick { id, line, n } => {
                    if TRACED {
                        let top = self.traces.len().wrapping_sub(1) as u32;
                        if let Some(ctx) = self.traces.last_mut() {
                            ctx.cur_stmt = Some(id);
                            self.gen_next += 1;
                            ctx.gen = self.gen_next;
                            if ctx.recording {
                                if self.rec_ctxs.last() != Some(&top) {
                                    self.rec_ctxs.push(top);
                                }
                                self.record_active = true;
                            }
                        }
                        self.iter_marks.push(self.cost);
                    }
                    self.current_line = line;
                    self.tick(1 + n as u64)?;
                    self.stmt_hits[id.0 as usize] += 1;
                    self.stmt_marks.push((id, self.cost - n as u64));
                }
                Op::StmtExitIter { loop_idx, slot } => {
                    let (id, mark) = self.stmt_marks.pop().expect("stmt mark underflow");
                    self.stmt_cost[id.0 as usize] += self.cost - mark + 1;
                    if TRACED {
                        let mark = self.iter_marks.pop().expect("iter mark underflow");
                        let delta = self.cost - mark;
                        let run = &mut self.loop_runs[loop_idx as usize];
                        run.stmt_cost[slot as usize] += delta;
                        run.stmt_seen[slot as usize] = true;
                    }
                }
                Op::TickLoadSlot { slot, name, n } => {
                    self.tick(n as u64)?;
                    if TRACED && self.record_active {
                        self.record_local(name, AccessKind::Read);
                    }
                    self.stack.push(self.slots[base + slot as usize].clone());
                }
                Op::StmtExitEnterTick { id, line, n } => {
                    let (prev, mark) = self.stmt_marks.pop().expect("stmt mark underflow");
                    self.stmt_cost[prev.0 as usize] += self.cost - mark + 1;
                    self.current_line = line;
                    self.tick(1 + n as u64)?;
                    self.stmt_hits[id.0 as usize] += 1;
                    self.stmt_marks.push((id, self.cost - n as u64));
                }
                Op::StoreSlotExit { slot, name } => {
                    let v = self.pop();
                    if TRACED && self.record_active {
                        self.record_local(name, AccessKind::Write);
                    }
                    self.slots[base + slot as usize] = v;
                    let (id, mark) = self.stmt_marks.pop().expect("stmt mark underflow");
                    self.stmt_cost[id.0 as usize] += self.cost - mark + 1;
                }
                Op::SlotField { aux } => {
                    let [slot, slot_name, field_name, _] = self.prog.move_aux[aux as usize];
                    if TRACED && self.record_active {
                        self.record_local(slot_name, AccessKind::Read);
                    }
                    let b = self.slots[base + slot as usize].clone();
                    match &b {
                        Value::Object(o) => {
                            if TRACED && self.record_active {
                                self.record_heap(o.id, field_name, AccessKind::Read);
                            }
                            let v = self.load_field_cached(o, field_name)?;
                            self.stack.push(v);
                        }
                        other => {
                            return Err(self.err(format!(
                                "cannot read field `{}` of {}",
                                self.name(field_name),
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::LoadSlot2 { aux } => {
                    let [s1, n1, s2, n2] = self.prog.move_aux[aux as usize];
                    if TRACED && self.record_active {
                        self.record_local(n1, AccessKind::Read);
                        self.record_local(n2, AccessKind::Read);
                    }
                    self.stack.push(self.slots[base + s1 as usize].clone());
                    self.stack.push(self.slots[base + s2 as usize].clone());
                }
                Op::LoadSlotBin { slot, name, op } => {
                    if TRACED && self.record_active {
                        self.record_local(name, AccessKind::Read);
                    }
                    let l = self.pop();
                    let out = binary_op(op, &l, &self.slots[base + slot as usize])
                        .map_err(|m| self.err(m))?;
                    self.stack.push(out);
                }
                Op::ConstBin { idx, op } => {
                    let l = self.pop();
                    let out = binary_op(op, &l, &self.prog.consts[idx as usize])
                        .map_err(|m| self.err(m))?;
                    self.stack.push(out);
                }
                Op::BinJumpIfFalse { op, target, cond } => {
                    let r = self.pop();
                    let l = self.pop();
                    let v = binary_op(op, &l, &r).map_err(|m| self.err(m))?;
                    let b = v.as_bool().ok_or_else(|| {
                        self.err(format!("{} condition is {}", cond.label(), v.type_name()))
                    })?;
                    if !b {
                        pc = target as usize;
                    }
                }
                Op::SlotMove { aux } => {
                    let [src, src_name, dst, dst_name] = self.prog.move_aux[aux as usize];
                    if TRACED && self.record_active {
                        self.record_local(src_name, AccessKind::Read);
                        self.record_local(dst_name, AccessKind::Write);
                    }
                    self.slots[base + dst as usize] = self.slots[base + src as usize].clone();
                }
                Op::StmtEnter { id, line } => {
                    self.current_line = line;
                    self.tick(1)?;
                    self.stmt_hits[id.0 as usize] += 1;
                    self.stmt_marks.push((id, self.cost));
                }
                Op::StmtExit => {
                    let (id, mark) = self.stmt_marks.pop().expect("stmt mark underflow");
                    self.stmt_cost[id.0 as usize] += self.cost - mark + 1;
                }
                Op::IterStmtEnter { stmt } => {
                    if TRACED {
                        let top = self.traces.len().wrapping_sub(1) as u32;
                        if let Some(ctx) = self.traces.last_mut() {
                            ctx.cur_stmt = Some(stmt);
                            self.gen_next += 1;
                            ctx.gen = self.gen_next;
                            if ctx.recording {
                                // Consecutive direct statements re-enter
                                // without an intervening clear; push once.
                                if self.rec_ctxs.last() != Some(&top) {
                                    self.rec_ctxs.push(top);
                                }
                                self.record_active = true;
                            }
                        }
                        self.iter_marks.push(self.cost);
                    }
                }
                Op::IterStmtExit { loop_idx, slot } => {
                    if TRACED {
                        let mark = self.iter_marks.pop().expect("iter mark underflow");
                        let delta = self.cost - mark;
                        let run = &mut self.loop_runs[loop_idx as usize];
                        run.stmt_cost[slot as usize] += delta;
                        run.stmt_seen[slot as usize] = true;
                    }
                }
                Op::BeginLoop { loop_idx } => {
                    if TRACED {
                        self.loop_runs[loop_idx as usize].entered = true;
                        // Not recording until `IterStart` decides; no
                        // `rec_ctxs` change.
                        self.traces.push(VmTraceCtx {
                            loop_idx,
                            iter: 0,
                            recording: false,
                            cur_stmt: None,
                            gen: 0,
                        });
                    }
                }
                Op::IterStart { loop_idx } => {
                    if TRACED {
                        let run = &mut self.loop_runs[loop_idx as usize];
                        let global_iter = run.iterations as usize;
                        run.iterations += 1;
                        if let Some(ctx) = self.traces.last_mut() {
                            // `cur_stmt` is always clear here: a fresh
                            // `BeginLoop` or the previous iteration's
                            // `EndIterBody` preceded us.
                            debug_assert!(ctx.cur_stmt.is_none());
                            ctx.iter = global_iter;
                            ctx.recording = global_iter < self.options.trace_iters;
                        }
                    }
                }
                Op::EndIterBody => {
                    if TRACED {
                        let top = self.traces.len().wrapping_sub(1) as u32;
                        if let Some(ctx) = self.traces.last_mut() {
                            ctx.cur_stmt = None;
                        }
                        if self.rec_ctxs.last() == Some(&top) {
                            self.rec_ctxs.pop();
                        }
                        self.record_active = !self.rec_ctxs.is_empty();
                    }
                }
                Op::EndLoop => {
                    if TRACED {
                        self.traces.pop();
                        // `EndIterBody` always precedes (even on unwind
                        // paths), so the popped context cannot still be
                        // in `rec_ctxs`.
                        debug_assert!(self.rec_ctxs.last() != Some(&(self.traces.len() as u32)));
                        self.record_active = !self.rec_ctxs.is_empty();
                    }
                }
                Op::PopIterState => {
                    self.iter_states.pop();
                }
                Op::Const { idx } => {
                    self.stack.push(self.prog.consts[idx as usize].clone());
                }
                Op::Pop => {
                    self.pop();
                }
                Op::LoadSlot { slot, name } => {
                    if TRACED && self.record_active {
                        self.record_local(name, AccessKind::Read);
                    }
                    self.stack.push(self.slots[base + slot as usize].clone());
                }
                Op::StoreSlot { slot, name } => {
                    let v = self.pop();
                    if TRACED && self.record_active {
                        self.record_local(name, AccessKind::Write);
                    }
                    self.slots[base + slot as usize] = v;
                }
                Op::CompoundSlot { slot, name, op } => {
                    let rhs = self.pop();
                    if TRACED && self.record_active {
                        self.record_local(name, AccessKind::Read);
                    }
                    let old = self.slots[base + slot as usize].clone();
                    let new = binary_op(compound_bin(op), &old, &rhs)
                        .map_err(|m| self.err(m))?;
                    if TRACED && self.record_active {
                        self.record_local(name, AccessKind::Write);
                    }
                    self.slots[base + slot as usize] = new;
                }
                Op::UndefVar { name, kind } => return Err(self.undef_var_err(name, kind)),
                Op::Unary(op) => {
                    use crate::ast::UnOp;
                    let v = self.pop();
                    let out = match (op, &v) {
                        (UnOp::Neg, Value::Int(i)) => Value::Int(-i),
                        (UnOp::Neg, Value::Float(f)) => Value::Float(-f),
                        (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                        _ => {
                            return Err(self.err(format!(
                                "bad operand {} for unary op",
                                v.type_name()
                            )))
                        }
                    };
                    self.stack.push(out);
                }
                Op::Binary(op) => {
                    let r = self.pop();
                    let l = self.pop();
                    let out = binary_op(op, &l, &r).map_err(|m| self.err(m))?;
                    self.stack.push(out);
                }
                Op::ToBool => {
                    let v = self.pop();
                    let b = v
                        .as_bool()
                        .ok_or_else(|| self.err(format!("logic on {}", v.type_name())))?;
                    self.stack.push(Value::Bool(b));
                }
                Op::ShortCircuit { and, target } => {
                    let v = self.pop();
                    let b = v
                        .as_bool()
                        .ok_or_else(|| self.err(format!("logic on {}", v.type_name())))?;
                    if (and && !b) || (!and && b) {
                        self.stack.push(Value::Bool(b));
                        pc = target as usize;
                    }
                }
                Op::Jump { target } => pc = target as usize,
                Op::JumpIfFalse { target, cond } => {
                    let v = self.pop();
                    let b = v.as_bool().ok_or_else(|| {
                        self.err(format!("{} condition is {}", cond.label(), v.type_name()))
                    })?;
                    if !b {
                        pc = target as usize;
                    }
                }
                Op::LoadField { name } => {
                    let b = self.pop();
                    match &b {
                        Value::Object(o) => {
                            if TRACED && self.record_active {
                                self.record_heap(o.id, name, AccessKind::Read);
                            }
                            let v = self.load_field_cached(o, name)?;
                            self.stack.push(v);
                        }
                        other => {
                            return Err(self.err(format!(
                                "cannot read field `{}` of {}",
                                self.name(name),
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::StoreField { name } => {
                    let obj = self.pop();
                    let rhs = self.pop();
                    let Value::Object(o) = &obj else {
                        return Err(self.err(format!(
                            "cannot assign field `{}` on {}",
                            self.name(name),
                            obj.type_name()
                        )));
                    };
                    if TRACED && self.record_active {
                        self.record_heap(o.id, name, AccessKind::Write);
                    }
                    o.fields
                        .borrow_mut()
                        .set_interned(&self.prog.names_rc[name as usize], rhs);
                }
                Op::CompoundField { name, op } => {
                    let obj = self.pop();
                    let rhs = self.pop();
                    let Value::Object(o) = &obj else {
                        return Err(self.err(format!(
                            "cannot assign field `{}` on {}",
                            self.name(name),
                            obj.type_name()
                        )));
                    };
                    if TRACED && self.record_active {
                        self.record_heap(o.id, name, AccessKind::Read);
                    }
                    let old = o
                        .fields
                        .borrow()
                        .get_interned(&self.prog.names_rc[name as usize])
                        .cloned()
                        .ok_or_else(|| self.err(format!("no field `{}`", self.name(name))))?;
                    let new = binary_op(compound_bin(op), &old, &rhs)
                        .map_err(|m| self.err(m))?;
                    if TRACED && self.record_active {
                        self.record_heap(o.id, name, AccessKind::Write);
                    }
                    o.fields
                        .borrow_mut()
                        .set_interned(&self.prog.names_rc[name as usize], new);
                }
                Op::LoadIndex => {
                    let i = self.pop();
                    let b = self.pop();
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
                    if TRACED && self.record_active {
                        self.record_other(Cell::Elem(l.id, *i), AccessKind::Read);
                    }
                    let v = l.items.borrow()[*i as usize].clone();
                    self.stack.push(v);
                }
                Op::StoreIndex | Op::CompoundIndex { .. } => {
                    let idx = self.pop();
                    let list = self.pop();
                    let rhs = self.pop();
                    let Value::List(l) = &list else {
                        return Err(self.err(format!("cannot index {}", list.type_name())));
                    };
                    let Value::Int(i) = idx else {
                        return Err(
                            self.err(format!("index must be int, got {}", idx.type_name()))
                        );
                    };
                    let len = l.items.borrow().len() as i64;
                    if i < 0 || i >= len {
                        return Err(self.err(format!("index {i} out of bounds (len {len})")));
                    }
                    let new = match op {
                        Op::StoreIndex => rhs,
                        Op::CompoundIndex { op } => {
                            if TRACED && self.record_active {
                                self.record_other(Cell::Elem(l.id, i), AccessKind::Read);
                            }
                            let old = l.items.borrow()[i as usize].clone();
                            binary_op(compound_bin(op), &old, &rhs).map_err(|m| self.err(m))?
                        }
                        _ => unreachable!(),
                    };
                    if TRACED && self.record_active {
                        self.record_other(Cell::Elem(l.id, i), AccessKind::Write);
                    }
                    l.items.borrow_mut()[i as usize] = new;
                }
                Op::MakeList { len } => {
                    let items = self.stack.split_off(self.stack.len() - len as usize);
                    let id = self.fresh_heap();
                    self.stack
                        .push(Value::List(Rc::new(ListData { id, items: RefCell::new(items) })));
                }
                Op::CallFunc { func, argc } => {
                    pc = self.call(func, argc as usize, None, pc, None)?;
                    let f = self.frames.last().expect("frame just pushed");
                    base = f.base;
                }
                Op::CallMethod { name, argc } => {
                    let argc = argc as usize;
                    let recv_at = self.stack.len() - argc - 1;
                    let site = name as usize;
                    let mut method_fn = None;
                    let mut slow_class: Option<Rc<str>> = None;
                    if let Value::Object(o) = &self.stack[recv_at] {
                        match self.method_cache[site] {
                            Some((ci, f))
                                if Rc::ptr_eq(
                                    &o.class,
                                    &self.prog.class_names[ci as usize],
                                ) =>
                            {
                                method_fn = Some(f);
                            }
                            _ => slow_class = Some(o.class.clone()),
                        }
                    }
                    if let Some(class) = slow_class {
                        if let Some(&ci) = self.prog.class_by_name.get(&*class) {
                            method_fn = self.prog.classes[ci as usize]
                                .methods
                                .iter()
                                .find(|(n, _)| *n == name)
                                .map(|&(_, f)| f);
                            if method_fn.is_some()
                                && Rc::ptr_eq(&class, &self.prog.class_names[ci as usize])
                            {
                                self.method_cache[site] =
                                    method_fn.map(|f| (ci, f));
                            }
                        }
                    }
                    match method_fn {
                        Some(f) => {
                            let recv = self.stack.remove(recv_at);
                            pc = self.call(f, argc, Some(recv), pc, None)?;
                            let fr = self.frames.last().expect("frame just pushed");
                            base = fr.base;
                        }
                        None => {
                            let res = if argc <= 2 {
                                let mut buf = [Value::Null, Value::Null];
                                for slot in buf[..argc].iter_mut().rev() {
                                    *slot = self.pop();
                                }
                                let recv = self.pop();
                                self.dispatch_builtin_method(name, &recv, &buf[..argc])
                            } else {
                                let mut scratch = std::mem::take(&mut self.scratch);
                                scratch.extend(self.stack.drain(recv_at + 1..));
                                let recv = self.pop();
                                let res =
                                    self.dispatch_builtin_method(name, &recv, &scratch);
                                scratch.clear();
                                self.scratch = scratch;
                                res
                            };
                            self.stack.push(res?);
                        }
                    }
                }
                Op::CallBuiltin { id, argc } => {
                    let argc = argc as usize;
                    // Nearly all builtin calls take <= 2 arguments: move
                    // them into a fixed buffer instead of the shared
                    // scratch vector (no drain, no restore).
                    let res = if argc <= 2 {
                        let mut buf = [Value::Null, Value::Null];
                        for slot in buf[..argc].iter_mut().rev() {
                            *slot = self.pop();
                        }
                        call_builtin(self, id, &buf[..argc])
                    } else {
                        let start = self.stack.len() - argc;
                        let mut scratch = std::mem::take(&mut self.scratch);
                        scratch.extend(self.stack.drain(start..));
                        let res = call_builtin(self, id, &scratch);
                        scratch.clear();
                        self.scratch = scratch;
                        res
                    };
                    self.stack.push(res?);
                }
                Op::Work => {
                    let v = self.pop();
                    let Value::Int(n) = v else {
                        return Err(self.err("work(n) takes an int"));
                    };
                    if n < 0 {
                        return Err(self.err("work(n) takes a non-negative int"));
                    }
                    self.tick(n as u64)?;
                    self.stack.push(Value::Null);
                }
                Op::UnknownCall { name } => return Err(self.unknown_call_err(name)),
                Op::AllocObject { class } => {
                    let id = self.fresh_heap();
                    let n_fields = self.prog.classes[class as usize].field_names.len();
                    self.stack.push(Value::Object(Rc::new(ObjectData {
                        id,
                        class: self.prog.class_names[class as usize].clone(),
                        fields: RefCell::new(FieldTable::with_capacity(n_fields)),
                    })));
                }
                Op::InitField { name } => {
                    let v = self.pop();
                    let Value::Object(o) = self.stack.last().expect("object under init") else {
                        unreachable!("InitField on non-object");
                    };
                    o.fields
                        .borrow_mut()
                        .set_interned(&self.prog.names_rc[name as usize], v);
                }
                Op::CallCtor { func, argc } => {
                    let obj = self.pop();
                    pc = self.call(func, argc as usize, Some(obj.clone()), pc, Some(obj))?;
                    let f = self.frames.last().expect("frame just pushed");
                    base = f.base;
                }
                Op::PositionalInit { class, argc } => {
                    let cc = &self.prog.classes[class as usize];
                    if argc as usize != cc.field_names.len() {
                        let cname = self.name(cc.name);
                        return Err(self.err(format!(
                            "class `{cname}` has {} field(s) but constructor got {} argument(s)",
                            cc.field_names.len(),
                            argc
                        )));
                    }
                    let obj = self.pop();
                    let args = self.stack.split_off(self.stack.len() - argc as usize);
                    let Value::Object(o) = &obj else {
                        unreachable!("PositionalInit on non-object");
                    };
                    {
                        let mut fields = o.fields.borrow_mut();
                        for (&fname, a) in cc.field_names.iter().zip(args) {
                            fields.set_interned(&self.prog.names_rc[fname as usize], a);
                        }
                    }
                    self.stack.push(obj);
                }
                Op::NoClass { name } => return Err(self.no_class_err(name)),
                Op::CtorRecursion => {
                    // Field initializers that construct their own class
                    // diverge under the tree-walker; report the resource
                    // error a diverging run would eventually hit.
                    return Err(self.err("step limit exceeded"));
                }
                Op::ForeachIter => {
                    let iterable = self.pop();
                    let items: Vec<Value> = match &iterable {
                        Value::List(l) => {
                            if TRACED && self.record_active {
                                self.record_heap(l.id, STRUCTURE, AccessKind::Read);
                            }
                            l.items.borrow().clone()
                        }
                        Value::Str(s) => {
                            s.chars().map(|c| Value::str(c.to_string())).collect()
                        }
                        other => {
                            return Err(self.err(format!(
                                "cannot iterate over {}",
                                other.type_name()
                            )))
                        }
                    };
                    self.iter_states.push((items, 0));
                }
                Op::ForeachNext { slot, target } => {
                    let (items, at) = self.iter_states.last_mut().expect("no iter state");
                    if *at < items.len() {
                        let item = std::mem::replace(&mut items[*at], Value::Null);
                        *at += 1;
                        self.slots[base + slot as usize] = item;
                    } else {
                        self.iter_states.pop();
                        pc = target as usize;
                    }
                }
                Op::Ret => {
                    let ret = self.pop();
                    let frame = self.frames.pop().expect("no frame to return from");
                    self.slots.truncate(frame.base);
                    if TRACED {
                        self.cells.frame_cells.truncate(frame.cells_at as usize);
                    }
                    self.call_names.pop();
                    let v = match frame.ctor_obj {
                        Some(obj) => obj,
                        None => ret,
                    };
                    if self.frames.is_empty() {
                        return Ok(v);
                    }
                    self.stack.push(v);
                    pc = frame.ret_pc;
                    let f = self.frames.last().expect("caller frame");
                    base = f.base;
                }
            }
        }
    }
}

impl Host for Vm<'_> {
    fn tick(&mut self, n: u64) -> Result<(), LangError> {
        Vm::tick(self, n)
    }
    fn rt_err(&self, msg: String) -> LangError {
        self.err(msg)
    }
    fn fresh_heap(&mut self) -> HeapId {
        Vm::fresh_heap(self)
    }
    fn next_rand(&mut self, n: i64) -> i64 {
        Vm::next_rand(self, n)
    }
    fn record(&mut self, loc: DynLoc, kind: AccessKind) {
        if !self.record_active {
            return;
        }
        match loc {
            DynLoc::ListStruct(id) => self.record_heap(id, STRUCTURE, kind),
            DynLoc::Elem(id, i) => self.record_other(Cell::Elem(id, i), kind),
            // Builtins report list cells; a local or a field would arrive
            // by name and goes through the exact map.
            DynLoc::Local(serial, name) => {
                let name = self.intern_dyn(&name);
                self.record_other(Cell::Local(serial, name), kind);
            }
            DynLoc::Field(id, name) => {
                let name = self.intern_dyn(&name);
                self.record_other(Cell::Field(id, name), kind);
            }
        }
    }
    fn push_output(&mut self, line: String) {
        self.output.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, Engine};
    use crate::parser::parse;

    fn both(src: &str) -> (Result<Outcome, LangError>, Result<Outcome, LangError>) {
        let p = parse(src).unwrap();
        let ast = run(
            &p,
            InterpOptions { engine: Engine::Ast, ..InterpOptions::default() },
        );
        let vm = run(
            &p,
            InterpOptions { engine: Engine::Vm, ..InterpOptions::default() },
        );
        (ast, vm)
    }

    fn assert_identical(src: &str) {
        let (ast, vm) = both(src);
        match (ast, vm) {
            (Ok(a), Ok(v)) => {
                assert_eq!(format!("{:?}", a.result), format!("{:?}", v.result), "{src}");
                assert_eq!(a.output, v.output, "{src}");
                assert_eq!(a.profile.total_cost, v.profile.total_cost, "{src}");
                assert_eq!(a.profile.stmt_hits, v.profile.stmt_hits, "{src}");
                assert_eq!(a.profile.stmt_cost, v.profile.stmt_cost, "{src}");
                assert_eq!(a.profile.call_edges, v.profile.call_edges, "{src}");
            }
            (Err(a), Err(v)) => {
                assert_eq!(a.line, v.line, "{src}");
                assert_eq!(a.message, v.message, "{src}");
            }
            (a, v) => panic!("engines disagree on {src}: ast={a:?} vm={v:?}"),
        }
    }

    #[test]
    fn arithmetic_and_control_flow_match() {
        assert_identical("fn main() { print(1 + 2 * 3); print(10 / 4); print(10.0 / 4); }");
        assert_identical(
            "fn main() { var s = 0; for (var i = 0; i < 5; i = i + 1) { s += i; } print(s); }",
        );
        assert_identical(
            "fn main() { var s = 0; foreach (i in range(0, 10)) { if (i % 2 == 0) { continue; } if (i > 5) { break; } s += i; } print(s); }",
        );
    }

    #[test]
    fn classes_and_calls_match() {
        assert_identical(
            r#"
            class Counter {
                var n = 0;
                fn init(start) { this.n = start * 2; }
                fn bump() { this.n += 1; return this.n; }
            }
            fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
            fn main() {
                var c = new Counter(5);
                print(c.bump(), c.bump(), fib(10));
            }
            "#,
        );
    }

    #[test]
    fn errors_match() {
        assert_identical("fn main() { var x = 1 / 0; }");
        assert_identical("fn main() { print(nope); }");
        assert_identical("fn main() { var xs = [1]; print(xs[5]); }");
        assert_identical("fn main() { missing(); }");
        assert_identical("fn f() { return f(); } fn main() { f(); }");
        assert_identical("class P { var x = 0; } fn main() { var p = new P(1, 2); }");
    }

    #[test]
    fn shadowing_and_scopes_match() {
        assert_identical(
            r#"
            fn main() {
                var x = 1;
                { var x = 2; print(x); }
                print(x);
                var x = x + 10;
                print(x);
                if (true) { var y = 5; print(y); }
            }
            "#,
        );
    }

    #[test]
    fn loop_traces_match_byte_for_byte() {
        let src = r#"
            fn main() {
                var acc = 0;
                var xs = [1, 2, 3, 4, 5];
                foreach (x in xs) {
                    acc += x;
                    foreach (y in xs) { acc += y; }
                }
                print(acc);
            }
        "#;
        let (ast, vm) = both(src);
        let (a, v) = (ast.unwrap(), vm.unwrap());
        assert_eq!(a.profile.to_json(), v.profile.to_json());
    }

    /// Run `main` of `src` traced: the records its loops pushed, the length
    /// of the heap table, and the profile built from them.
    fn traced_run(src: &str) -> (usize, usize, Profile) {
        let compiled = compile_fused(&parse(src).unwrap(), true);
        let options = InterpOptions::default();
        let func = lookup_entry(&compiled, "main", &options).unwrap();
        let mut vm = Vm::new(&compiled, options);
        vm.run(func, vec![]).unwrap();
        let records = vm.loop_runs.iter().map(|run| run.records.len()).sum();
        (records, vm.cells.heap_heads.len(), vm.build_profile())
    }

    #[test]
    fn contexts_past_the_stamp_vectors_record_each_access_once() {
        // Six recording contexts around a long loop: the two innermost
        // keep their stamps in the map, and record `i` once apiece.
        let src = format!(
            "fn main() {{\n    var i = 0;\n{}while (i < 20000) {{ i += 1; }}\n{}}}",
            "foreach (x in range(0, 1)) {\n".repeat(6),
            "}\n".repeat(6)
        );
        let (records, _, profile) = traced_run(&src);
        assert_eq!(records, profile.stats().recorded_accesses);
        assert!(records < 200, "{records} records");
    }

    #[test]
    fn the_heap_table_is_sized_by_the_traced_locations() {
        // 50 000 objects allocated before a loop traces one field of each
        // of three: they go to the exact map, not a table of 50 000.
        let src = "class P { var v = 0; }\nfn main() {\n    var ps = [];\n    foreach (i in range(0, 50000)) { ps.add(new P()); }\n    foreach (k in range(0, 3)) { ps[k].v += 1; }\n}";
        let (_, heap_table, profile) = traced_run(src);
        assert!(heap_table <= 4096, "heap table of {heap_table}");
        let ast = run(&parse(src).unwrap(), InterpOptions { engine: Engine::Ast, ..InterpOptions::default() });
        assert_eq!(ast.unwrap().profile.to_json(), profile.to_json());
    }

    #[test]
    fn precompiled_program_reruns() {
        let p = parse("fn main() { var s = 0; foreach (i in range(0, 5)) { s += i; } print(s); }")
            .unwrap();
        let compiled = compile_fused(&p, true);
        for _ in 0..3 {
            let out =
                run_compiled(&compiled, "main", vec![], InterpOptions::default()).unwrap();
            assert_eq!(out.output, vec!["10"]);
        }
    }

    #[test]
    fn program_fused_for_untraced_runs_refuses_to_trace() {
        let p = parse("fn main() { var s = 0; foreach (i in range(0, 5)) { s += i; } print(s); }")
            .unwrap();
        let exec = compile_fused(&p, false);
        let untraced = InterpOptions { trace_loops: false, ..InterpOptions::default() };
        assert_eq!(run_compiled(&exec, "main", vec![], untraced).unwrap().output, vec!["10"]);
        // Tracing it would yield an empty trace; the VM says so instead.
        let err = run_compiled(&exec, "main", vec![], InterpOptions::default()).unwrap_err();
        assert!(err.message.contains("fused for untraced runs"), "{err}");
        assert!(profile_ops(&exec, "main", vec![], InterpOptions::default()).is_err());
    }

    #[test]
    fn vm_is_the_default_engine() {
        assert_eq!(Engine::default(), Engine::Vm);
        let p = parse("fn main() { print(42); }").unwrap();
        let out = run(&p, InterpOptions::default()).unwrap();
        assert_eq!(out.output, vec!["42"]);
    }
}
