//! Superinstruction fusion: the one structural pass between
//! [`crate::bytecode::compile`] and [`crate::vm`] execution, and the
//! opcode-counting readout that describes what a run dispatched.
//!
//! The VM's profile contract (byte-identical [`crate::profile::Profile`]
//! vs the tree-walker) makes the compiled form safe to rewrite
//! aggressively — any transformation that preserves the observable op
//! sequence semantics is checked by the engine-differential suites.
//! [`CompiledProgram::fused`] is deterministic and takes no profile: what
//! it does depends only on the code and on whether the run will trace
//! loops.
//!
//! 1. **Trace-op stripping** (untraced runs only): the six loop-trace
//!    bookkeeping ops are no-ops when `trace_loops` is off; stripping
//!    them removes dispatch steps entirely. Stripped programs refuse to
//!    run with tracing enabled.
//! 2. **Tick hoisting**: within a straight-line segment every tick merges
//!    into the segment's first.
//! 3. **Superinstruction fusion**: adjacent pairs and triples are
//!    rewritten into single fused ops — slot-load + binop, constant +
//!    binop, compare + branch, slot-load + slot-store, statement-enter +
//!    tick, … — and back-edge jumps whose target is a tick absorb it
//!    (`Op::TickJump`). Fusion never crosses a *barrier* (a jump target
//!    or function entry): control entering mid-pair must still observe
//!    the second op alone.
//!
//! **Counting** ([`OpCounts`], filled by [`crate::vm::profile_ops`]) is a
//! readout, never an input: per-kind dispatch counts, adjacent-pair
//! counts and the field inline cache's hit rate for the program that was
//! run. `Op` variants are declared in the dispatch order those counts
//! once suggested.

use crate::ast::Program;
use crate::bytecode::{compile, CompiledFunc, CompiledProgram, Op};

/// Number of distinct [`Op`] kinds (dense counter index space).
pub(crate) const N_OP_KINDS: usize = 56;

/// The kinds of the superinstructions: ops that only [`CompiledProgram::fused`]
/// emits, never [`compile`].
const FUSED_KINDS: std::ops::RangeInclusive<u8> = 1..=13;

/// Dense discriminant of an op, for the frequency counters; numbered in
/// `Op`'s declaration order.
pub(crate) fn op_kind(op: &Op) -> u8 {
    match op {
        Op::Tick(_) => 0,
        Op::LoadSlotBin { .. } => 1,
        Op::ConstBin { .. } => 2,
        Op::BinJumpIfFalse { .. } => 3,
        Op::TickJump { .. } => 4,
        Op::StmtEnterTick { .. } => 5,
        Op::SlotMove { .. } => 6,
        Op::IterStmtEnterTick { .. } => 7,
        Op::StmtExitIter { .. } => 8,
        Op::TickLoadSlot { .. } => 9,
        Op::StmtExitEnterTick { .. } => 10,
        Op::StoreSlotExit { .. } => 11,
        Op::SlotField { .. } => 12,
        Op::LoadSlot2 { .. } => 13,
        Op::StmtEnter { .. } => 14,
        Op::StmtExit => 15,
        Op::Const { .. } => 16,
        Op::LoadSlot { .. } => 17,
        Op::StoreSlot { .. } => 18,
        Op::CompoundSlot { .. } => 19,
        Op::Binary(_) => 20,
        Op::Jump { .. } => 21,
        Op::JumpIfFalse { .. } => 22,
        Op::IterStmtEnter { .. } => 23,
        Op::IterStmtExit { .. } => 24,
        Op::BeginLoop { .. } => 25,
        Op::IterStart { .. } => 26,
        Op::EndIterBody => 27,
        Op::EndLoop => 28,
        Op::PopIterState => 29,
        Op::Pop => 30,
        Op::UndefVar { .. } => 31,
        Op::Unary(_) => 32,
        Op::ToBool => 33,
        Op::ShortCircuit { .. } => 34,
        Op::LoadField { .. } => 35,
        Op::StoreField { .. } => 36,
        Op::CompoundField { .. } => 37,
        Op::LoadIndex => 38,
        Op::StoreIndex => 39,
        Op::CompoundIndex { .. } => 40,
        Op::MakeList { .. } => 41,
        Op::CallFunc { .. } => 42,
        Op::CallMethod { .. } => 43,
        Op::CallBuiltin { .. } => 44,
        Op::Work => 45,
        Op::UnknownCall { .. } => 46,
        Op::AllocObject { .. } => 47,
        Op::InitField { .. } => 48,
        Op::CallCtor { .. } => 49,
        Op::PositionalInit { .. } => 50,
        Op::NoClass { .. } => 51,
        Op::CtorRecursion => 52,
        Op::ForeachIter => 53,
        Op::ForeachNext { .. } => 54,
        Op::Ret => 55,
    }
}

/// Snake-case name of an op kind, for reports and metric labels.
pub(crate) fn op_kind_name(kind: u8) -> &'static str {
    const NAMES: [&str; N_OP_KINDS] = [
        "tick",
        "load_slot_bin",
        "const_bin",
        "bin_jump_if_false",
        "tick_jump",
        "stmt_enter_tick",
        "slot_move",
        "iter_stmt_enter_tick",
        "stmt_exit_iter",
        "tick_load_slot",
        "stmt_exit_enter_tick",
        "store_slot_exit",
        "slot_field",
        "load_slot2",
        "stmt_enter",
        "stmt_exit",
        "const",
        "load_slot",
        "store_slot",
        "compound_slot",
        "binary",
        "jump",
        "jump_if_false",
        "iter_stmt_enter",
        "iter_stmt_exit",
        "begin_loop",
        "iter_start",
        "end_iter_body",
        "end_loop",
        "pop_iter_state",
        "pop",
        "undef_var",
        "unary",
        "to_bool",
        "short_circuit",
        "load_field",
        "store_field",
        "compound_field",
        "load_index",
        "store_index",
        "compound_index",
        "make_list",
        "call_func",
        "call_method",
        "call_builtin",
        "work",
        "unknown_call",
        "alloc_object",
        "init_field",
        "call_ctor",
        "positional_init",
        "no_class",
        "ctor_recursion",
        "foreach_iter",
        "foreach_next",
        "ret",
    ];
    NAMES[kind as usize]
}

/// Mutable counter state threaded through a counted VM run
/// ([`crate::vm::profile_ops`]).
pub(crate) struct OpCounters {
    ops: Vec<u64>,
    pairs: Vec<u64>,
    prev: u8,
}

impl OpCounters {
    pub(crate) fn new() -> OpCounters {
        OpCounters {
            ops: vec![0; N_OP_KINDS],
            pairs: vec![0; N_OP_KINDS * N_OP_KINDS],
            // `Ret` as the phantom predecessor of the first op.
            prev: op_kind(&Op::Ret),
        }
    }

    /// Count one dispatched op (and the dynamic pair with its predecessor).
    #[inline]
    pub(crate) fn count(&mut self, kind: u8) {
        self.ops[kind as usize] += 1;
        self.pairs[self.prev as usize * N_OP_KINDS + kind as usize] += 1;
        self.prev = kind;
    }
}

/// One superinstruction in an [`OpCounts`].
#[derive(Clone, Debug)]
pub struct FusedOp {
    /// Snake-case name of the fused op.
    pub op: &'static str,
    /// Number of code sites holding it.
    pub sites: u64,
    /// Times the run dispatched it.
    pub hits: u64,
}

/// What one counted run ([`crate::vm::profile_ops`]) dispatched, and on
/// what code — the observability payload of `patty stats` and `vm_probe`.
#[derive(Clone, Debug, Default)]
pub struct OpCounts {
    /// Ops dispatched.
    pub total_ops: u64,
    /// Hottest op kinds by dispatch count, descending (top 10).
    pub dispatch_top: Vec<(&'static str, u64)>,
    /// Hottest adjacent pairs as `("first+second", count)`, descending
    /// (top 10).
    pub top_pairs: Vec<(String, u64)>,
    /// Every superinstruction the program contains, hits-descending.
    pub fused: Vec<FusedOp>,
    /// Field loads served by the monomorphic inline cache.
    pub field_ic_hits: u64,
    /// Field loads that took the slow path: cold first loads plus deopts.
    pub field_ic_misses: u64,
}

impl OpCounts {
    /// Rank what `counters` saw while running `prog`. Ties break by name,
    /// so the readout is deterministic.
    pub(crate) fn new(
        prog: &CompiledProgram,
        counters: &OpCounters,
        field_ic_hits: u64,
        field_ic_misses: u64,
    ) -> OpCounts {
        fn top10<N: Ord>(mut all: Vec<(N, u64)>) -> Vec<(N, u64)> {
            all.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
            all.truncate(10);
            all
        }
        // The indices of `counts` that counted anything, with their counts.
        fn seen(counts: &[u64]) -> impl Iterator<Item = (usize, u64)> + '_ {
            counts.iter().copied().enumerate().filter(|&(_, c)| c > 0)
        }
        let mut sites = [0u64; N_OP_KINDS];
        for op in &prog.code {
            sites[op_kind(op) as usize] += 1;
        }
        let mut fused: Vec<FusedOp> = FUSED_KINDS
            .filter(|&k| sites[k as usize] > 0)
            .map(|k| FusedOp {
                op: op_kind_name(k),
                sites: sites[k as usize],
                hits: counters.ops[k as usize],
            })
            .collect();
        fused.sort_by(|x, y| y.hits.cmp(&x.hits).then_with(|| x.op.cmp(y.op)));
        OpCounts {
            total_ops: counters.ops.iter().sum(),
            dispatch_top: top10(
                seen(&counters.ops).map(|(k, c)| (op_kind_name(k as u8), c)).collect(),
            ),
            top_pairs: top10(
                seen(&counters.pairs)
                    .map(|(i, c)| {
                        let (a, b) = ((i / N_OP_KINDS) as u8, (i % N_OP_KINDS) as u8);
                        (format!("{}+{}", op_kind_name(a), op_kind_name(b)), c)
                    })
                    .collect(),
            ),
            fused,
            field_ic_hits,
            field_ic_misses,
        }
    }
}

/// [`compile`] `program` and fuse it for a run with `trace_loops ==
/// traced`: the bytecode [`crate::vm::run_func`] executes. The only place
/// the two steps are written in sequence.
pub fn compile_fused(program: &Program, traced: bool) -> CompiledProgram {
    compile(program).fused(traced)
}

/// The target of a control-transfer op.
fn jump_target(mut op: Op) -> Option<u32> {
    jump_target_mut(&mut op).copied()
}

fn jump_target_mut(op: &mut Op) -> Option<&mut u32> {
    match op {
        Op::Jump { target }
        | Op::JumpIfFalse { target, .. }
        | Op::ShortCircuit { target, .. }
        | Op::ForeachNext { target, .. }
        | Op::TickJump { target, .. }
        | Op::BinJumpIfFalse { target, .. } => Some(target),
        _ => None,
    }
}

/// Mark every code index control can enter non-sequentially: jump
/// targets and function entries. Fusion must not swallow an op at a
/// barrier, and tick coalescing across one would misattribute cost.
fn barriers(code: &[Op], funcs: &[CompiledFunc]) -> Vec<bool> {
    let mut b = vec![false; code.len() + 1];
    for target in code.iter().filter_map(|&op| jump_target(op)) {
        b[target as usize] = true;
    }
    for f in funcs {
        b[f.entry as usize] = true;
    }
    b
}

/// Is this op pure loop-trace bookkeeping (a no-op when `trace_loops`
/// is off)? `PopIterState` is *not*: it manages real foreach state.
fn strippable(op: &Op) -> bool {
    matches!(
        op,
        Op::IterStmtEnter { .. }
            | Op::IterStmtExit { .. }
            | Op::BeginLoop { .. }
            | Op::IterStart { .. }
            | Op::EndIterBody
            | Op::EndLoop
    )
}

impl CompiledProgram {
    /// What the VM's unchecked code fetch relies on: every jump target and
    /// function entry is a code index, and the last op never falls through
    /// (each function ends in `Ret`).
    pub(crate) fn control_stays_in_bounds(&self) -> bool {
        let n = self.code.len() as u32;
        self.code.iter().all(|&op| jump_target(op).is_none_or(|t| t < n))
            && self.funcs.iter().all(|f| f.entry < n)
            && matches!(self.code.last(), None | Some(Op::Ret))
    }

    /// Rewrite the program for runs with `trace_loops == traced`. The
    /// result is observationally identical to the input for any run it
    /// supports (a program fused for untraced runs has lost its trace
    /// bookkeeping, and [`crate::vm::run_compiled`] refuses to trace it).
    pub fn fused(mut self, traced: bool) -> CompiledProgram {
        let old_barrier = barriers(&self.code, &self.funcs);
        let code = std::mem::take(&mut self.code);
        let n = code.len();

        // Pass A — strip trace bookkeeping and hoist-merge ticks. `map1[old]
        // = mid index` (for a deleted op: the next surviving index, where its
        // jump targets land).
        //
        // Tick hoisting: within a straight-line segment — no jump target, no
        // op that can raise an error, no statement/trace bookkeeping (which
        // snapshots cost), no control transfer — every tick merges into the
        // segment's *first* tick. Cost is only observable at those hard
        // points: a step-limit abort discards all interpreter state and
        // reports the current line, which only changes at (hard) `StmtEnter`,
        // so moving cost earlier across loads/stores/consts cannot change
        // any outcome. Hoisting (rather than sinking) lets the merged tick
        // coalesce into `StmtEnterTick` and `TickJump`, and frees pairs like
        // `LoadSlot`+`Binary` of the interleaved expression-node ticks.
        let mut mid: Vec<Op> = Vec::with_capacity(n);
        let mut map1 = vec![0u32; n + 1];
        // Index into `mid` of the current segment's open tick, if any.
        let mut tick_site: Option<usize> = None;
        let tick_transparent = |op: &Op| {
            matches!(
                op,
                Op::LoadSlot { .. } | Op::Const { .. } | Op::StoreSlot { .. } | Op::Pop
            )
        };
        for (i, op) in code.iter().enumerate() {
            if old_barrier[i] {
                // Control can land here: cost accumulated after this point
                // must not migrate before it.
                tick_site = None;
            }
            map1[i] = mid.len() as u32;
            if !traced && strippable(op) {
                // Deleted trace ops are no-ops in exec mode; ticks may merge
                // straight across them.
                continue;
            }
            match op {
                Op::Tick(t) => {
                    if let Some(site) = tick_site {
                        if let Op::Tick(acc) = &mut mid[site] {
                            *acc = acc.saturating_add(*t);
                        }
                        continue;
                    }
                    tick_site = Some(mid.len());
                }
                _ if !tick_transparent(op) => tick_site = None,
                _ => {}
            }
            mid.push(*op);
        }
        map1[n] = mid.len() as u32;
        let mut barrier1 = vec![false; mid.len() + 1];
        for (i, &is_b) in old_barrier.iter().enumerate() {
            if is_b {
                barrier1[map1[i] as usize] = true;
            }
        }

        // Pass B — greedy fusion. Fusing (j, j+1) requires j+1 not be a
        // barrier: control entering there must still execute the second op
        // alone.
        let mut out: Vec<Op> = Vec::with_capacity(mid.len());
        let mut map2 = vec![0u32; mid.len() + 1];
        let mut j = 0usize;
        while j < mid.len() {
            map2[j] = out.len() as u32;
            let op = mid[j];
            // Triple fusion first: the fixed prologue of a traced loop-body
            // statement (both enters carry the same id, asserted here), and
            // the exit/enter/tick boundary between consecutive statements.
            if j + 2 < mid.len() && !barrier1[j + 1] && !barrier1[j + 2] {
                let fused3 = match (op, mid[j + 1], mid[j + 2]) {
                    (Op::IterStmtEnter { stmt }, Op::StmtEnter { id, line }, Op::Tick(t))
                        if stmt == id && t <= 255 =>
                    {
                        Some(Op::IterStmtEnterTick { id, line, n: t as u8 })
                    }
                    (Op::StmtExit, Op::StmtEnter { id, line }, Op::Tick(t)) if t <= 255 => {
                        Some(Op::StmtExitEnterTick { id, line, n: t as u8 })
                    }
                    _ => None,
                };
                if let Some(f) = fused3 {
                    map2[j + 1] = out.len() as u32;
                    map2[j + 2] = out.len() as u32;
                    out.push(f);
                    j += 3;
                    continue;
                }
            }
            if j + 1 < mid.len() && !barrier1[j + 1] {
                let mut aux = |payload: [u32; 4]| {
                    self.move_aux.push(payload);
                    self.move_aux.len() as u32 - 1
                };
                let fused2 = match (op, mid[j + 1]) {
                    (Op::StmtEnter { id, line }, Op::Tick(t)) if t <= 255 => {
                        Some(Op::StmtEnterTick { id, line, n: t as u8 })
                    }
                    (Op::IterStmtEnter { stmt }, Op::StmtEnter { id, line }) if stmt == id => {
                        Some(Op::IterStmtEnterTick { id, line, n: 0 })
                    }
                    (Op::StmtExit, Op::IterStmtExit { loop_idx, slot }) => {
                        Some(Op::StmtExitIter { loop_idx, slot })
                    }
                    (Op::StmtExit, Op::StmtEnter { id, line }) => {
                        Some(Op::StmtExitEnterTick { id, line, n: 0 })
                    }
                    // Jump-target ticks (`barrier1[j]`) are left alone: Pass D
                    // threads unconditional back-edges through them instead,
                    // which also covers heads not followed by a slot load.
                    (Op::Tick(t), Op::LoadSlot { slot, name }) if t <= 255 && !barrier1[j] => {
                        Some(Op::TickLoadSlot { slot, name, n: t as u8 })
                    }
                    (Op::StoreSlot { slot, name }, Op::StmtExit) => {
                        Some(Op::StoreSlotExit { slot, name })
                    }
                    (Op::LoadSlot { slot, name }, Op::LoadField { name: field }) => {
                        Some(Op::SlotField { aux: aux([slot, name, field, 0]) })
                    }
                    // Skip when the op after the second load would rather fuse
                    // with it (`LoadSlotBin`/`SlotMove`/`SlotField` keep the
                    // operand off the stack entirely, which beats a paired
                    // push).
                    (Op::LoadSlot { slot, name }, Op::LoadSlot { slot: s2, name: n2 })
                        if !(j + 2 < mid.len()
                            && !barrier1[j + 2]
                            && matches!(
                                mid[j + 2],
                                Op::Binary(_) | Op::StoreSlot { .. } | Op::LoadField { .. }
                            )) =>
                    {
                        Some(Op::LoadSlot2 { aux: aux([slot, name, s2, n2]) })
                    }
                    (Op::LoadSlot { slot, name }, Op::Binary(b)) => {
                        Some(Op::LoadSlotBin { slot, name, op: b })
                    }
                    (Op::Const { idx }, Op::Binary(b)) => Some(Op::ConstBin { idx, op: b }),
                    (Op::Binary(b), Op::JumpIfFalse { target, cond }) => {
                        Some(Op::BinJumpIfFalse { op: b, target, cond })
                    }
                    (Op::LoadSlot { slot, name }, Op::StoreSlot { slot: dst, name: dst_name }) => {
                        Some(Op::SlotMove { aux: aux([slot, name, dst, dst_name]) })
                    }
                    _ => None,
                };
                if let Some(f) = fused2 {
                    // The swallowed op is not a barrier, so nothing jumps to
                    // `j + 1`; map it to the fused op for completeness.
                    map2[j + 1] = out.len() as u32;
                    out.push(f);
                    j += 2;
                    continue;
                }
            }
            out.push(op);
            j += 1;
        }
        map2[mid.len()] = out.len() as u32;

        // Pass C — retarget: targets were copied verbatim in old-code space.
        let remap = |t: u32| map2[map1[t as usize] as usize];
        for op in &mut out {
            if let Some(target) = jump_target_mut(op) {
                *target = remap(*target);
            }
        }
        for f in &mut self.funcs {
            f.entry = remap(f.entry);
        }

        // Pass D — back-edge tick threading: a `Jump` whose (final) target
        // is a `Tick(t)` executes the tick inside the jump and lands past
        // it. The tick stays for the fall-through entry path.
        for i in 0..out.len() {
            if let Op::Jump { target } = out[i] {
                if let Some(Op::Tick(t)) = out.get(target as usize) {
                    out[i] = Op::TickJump { n: *t, target: target + 1 };
                }
            }
        }

        self.code = out;
        self.stripped_tracing |= !traced;
        debug_assert!(self.control_stays_in_bounds());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::InterpOptions;
    use crate::parser::parse;
    use crate::vm::profile_ops;

    fn fused(src: &str, traced: bool) -> CompiledProgram {
        compile_fused(&parse(src).unwrap(), traced)
    }

    #[test]
    fn fusion_emits_superinstructions_and_strips_trace_ops() {
        let src =
            "fn main() { var s = 0; for (var i = 0; i < 9; i = i + 1) { s = s + i; } return s; }";
        let raw = compile(&parse(src).unwrap());
        let opt = fused(src, false);
        assert!(opt.stripped_tracing);
        assert!(opt.op_count() < raw.op_count(), "{} -> {}", raw.op_count(), opt.op_count());
        assert!(opt.code.iter().any(|op| matches!(op, Op::LoadSlotBin { .. })), "no fusion");
        assert!(!opt.code.iter().any(strippable), "a trace op survived stripping");
        assert!(opt.control_stays_in_bounds());
    }

    /// The VM fetches ops unchecked, so this has to hold for whatever the
    /// pass is given; the corpus is the widest input there is.
    #[test]
    fn every_corpus_program_keeps_control_in_bounds_in_both_modes() {
        for p in patty_corpus::all_programs() {
            let program = parse(p.source).unwrap();
            let raw = compile(&program);
            assert!(raw.control_stays_in_bounds(), "{}: raw", p.name);
            assert!(
                !raw.code.iter().any(|op| FUSED_KINDS.contains(&op_kind(op))),
                "{}: the compiler emitted a superinstruction",
                p.name
            );
            for traced in [true, false] {
                let opt = compile_fused(&program, traced);
                assert!(opt.control_stays_in_bounds(), "{}: traced={traced}", p.name);
                // Every op the pass introduced counts as a superinstruction.
                for op in &opt.code {
                    let k = op_kind(op);
                    assert!(
                        FUSED_KINDS.contains(&k) || raw.code.iter().any(|r| op_kind(r) == k),
                        "{}: {op:?} is not in FUSED_KINDS",
                        p.name
                    );
                }
            }
        }
    }

    #[test]
    fn traced_fusion_keeps_trace_ops() {
        let opt = fused("fn main() { var s = 0; while (s < 3) { s += 1; } return s; }", true);
        assert!(!opt.stripped_tracing);
        assert!(opt.code.iter().any(|op| matches!(op, Op::IterStart { .. })));
    }

    #[test]
    fn back_edges_absorb_their_target_tick() {
        let opt = fused("fn main() { var s = 0; while (s < 3) { s += 1; } return s; }", false);
        assert!(opt.code.iter().any(|op| matches!(op, Op::TickJump { .. })));
    }

    #[test]
    fn fusion_never_swallows_a_jump_target() {
        // `continue` jumps to the for-update statement: its `StmtEnter`
        // is a barrier and must stay dispatchable on its own.
        let src = "fn main() { var s = 0; for (var i = 0; i < 9; i = i + 1) { if (i == 1) { continue; } s = s + i; } return s; }";
        let raw = compile(&parse(src).unwrap());
        let targets = |p: &CompiledProgram| {
            barriers(&p.code, &p.funcs).iter().filter(|&&b| b).count()
        };
        // Fusion merges ops, never places control can land.
        assert_eq!(targets(&raw), targets(&fused(src, true)));
    }

    #[test]
    fn field_ic_serves_monomorphic_loads_from_cache() {
        let src = r#"
            class Point { var x = 0; var y = 0; }
            fn main() {
                var p = new Point(3, 4);
                var s = 0;
                for (var i = 0; i < 50; i = i + 1) { s = s + p.x + p.y; }
                print(s);
            }
        "#;
        let (out, counts) =
            profile_ops(&fused(src, true), "main", vec![], InterpOptions::default()).unwrap();
        assert_eq!(out.output, vec!["350"]);
        // One cold miss per field name; every later load is a cache hit.
        assert_eq!(counts.field_ic_misses, 2);
        assert_eq!(counts.field_ic_hits, 98);
    }

    #[test]
    fn field_ic_deopts_on_polymorphic_and_reshaped_receivers() {
        // `w` lands at a different offset in `p` than in `q` even though
        // both are `P`s: the class guard passes, the key-at-offset check
        // must catch it. `a.v`/`b.v` alternate classes, so the class
        // guard itself deopts every other load.
        let src = r#"
            class P { var x = 0; }
            class A { var v = 0; }
            class B { var pad = 0; var v = 0; }
            fn main() {
                var p = new P(1);
                var q = new P(2);
                q.z = 30; q.w = 40;
                p.w = 4; p.z = 3;
                var a = new A(1);
                var b = new B(0, 2);
                var s = 0;
                for (var i = 0; i < 10; i = i + 1) { s = s + a.v + b.v; }
                print(p.w + q.w);
                print(s);
            }
        "#;
        let (out, profile) =
            profile_ops(&fused(src, true), "main", vec![], InterpOptions::default()).unwrap();
        assert_eq!(out.output, vec!["44", "30"]);
        // The alternating a.v/b.v loads can never both stay cached under
        // one name-keyed entry, so misses dominate — what matters is
        // that every deopt still produced the right value above.
        assert!(profile.field_ic_misses >= 11, "misses {}", profile.field_ic_misses);
    }

    #[test]
    fn op_kind_names_are_unique_and_total() {
        let mut names: Vec<&str> = (0..N_OP_KINDS as u8).map(op_kind_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_OP_KINDS);
    }
}
