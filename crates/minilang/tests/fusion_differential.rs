//! Differential tests for the fusion pass: the bytecode `run` executes
//! (`compile_fused`: trace stripping in exec mode, tick hoisting,
//! superinstructions) must be observationally identical to the raw
//! bytecode and to the tree-walking interpreter — same result, same
//! printed output, same `LangError` (line + message) and a
//! **byte-identical** `Profile::to_json()` rendering.
//!
//! The suite covers the whole benchmark corpus, targeted fusion-barrier
//! programs (jump targets landing where a superinstruction would
//! otherwise form), type changes and errors inside fused arithmetic, and
//! randomly generated loop-heavy programs.

use patty_minilang::bytecode::compile;
use patty_minilang::vm::{profile_ops, run_compiled};
use patty_minilang::{compile_fused, parse, run, Engine, InterpOptions, Program};
use proptest::prelude::*;

/// Run one program on the tree-walker, the raw bytecode and the fused
/// bytecode, with tracing on and off, and assert full observational
/// identity. Exec profiles keep statement shares, so the JSON must match
/// byte-for-byte in both modes. The counted run (`profile_ops`) must be
/// identical to the plain one too.
fn assert_fusion_agrees(program: &Program, base: &InterpOptions) {
    let raw = compile(program);

    for trace_loops in [true, false] {
        let opts = InterpOptions { trace_loops, engine: Engine::Vm, ..base.clone() };
        let ast = run(program, InterpOptions { engine: Engine::Ast, ..opts.clone() });
        let plain = run_compiled(&raw, "main", Vec::new(), opts.clone());
        let fused = compile_fused(program, trace_loops);
        let opt = run_compiled(&fused, "main", Vec::new(), opts.clone());
        let counted = profile_ops(&fused, "main", Vec::new(), opts.clone()).map(|(o, _)| o);

        match (&ast, &plain, &opt, &counted) {
            (Ok(a), Ok(p), Ok(o), Ok(c)) => {
                for vm in [p, o, c] {
                    assert_eq!(format!("{:?}", a.result), format!("{:?}", vm.result));
                    assert_eq!(&a.output, &vm.output);
                    assert_eq!(a.profile.to_json(), vm.profile.to_json());
                }
            }
            (Err(a), Err(p), Err(o), Err(c)) => {
                assert_eq!(a, p);
                assert_eq!(a, o);
                assert_eq!(a, c);
            }
            _ => panic!(
                "engines disagree (trace_loops={trace_loops}): ast={:?} plain={:?} fused={:?} counted={:?}",
                ast.as_ref().map(|o| &o.output),
                plain.as_ref().map(|o| &o.output),
                opt.as_ref().map(|o| &o.output),
                counted.as_ref().map(|o| &o.output),
            ),
        }
    }
}

fn assert_src_agrees(src: &str, opts: &InterpOptions) {
    let program = parse(src).expect("test program parses");
    assert_fusion_agrees(&program, opts);
}

// ---- whole corpus ----

#[test]
fn corpus_programs_survive_fusion_unchanged() {
    for prog in patty_corpus::all_programs() {
        let program = prog.parse();
        assert_fusion_agrees(&program, &InterpOptions::default());
    }
}

// ---- fusion barriers: jump targets landing mid-pair ----

/// A `continue` jumps to the while-condition re-check, whose first op is
/// the `LoadSlot` of a `LoadSlot`+`Binary` candidate pair. Fusing that
/// pair would swallow the jump target; the barrier must prevent it.
#[test]
fn continue_target_blocks_condition_pair_fusion() {
    assert_src_agrees(
        "fn main() {\n\
         var i = 0; var s = 0;\n\
         while (i < 20) {\n\
           i = i + 1;\n\
           if (i % 3 == 0) { continue; }\n\
           s = s + i;\n\
         }\n\
         print(s);\n\
         }",
        &InterpOptions::default(),
    );
}

/// `break` out of a foreach lands after `EndLoop` on a `LoadSlot` that a
/// following `Binary` would pair with.
#[test]
fn break_target_blocks_post_loop_pair_fusion() {
    assert_src_agrees(
        "fn main() {\n\
         var s = 0;\n\
         foreach (i in range(0, 50)) {\n\
           if (i > 7) { break; }\n\
           s += i;\n\
         }\n\
         var t = s * 2;\n\
         print(t);\n\
         }",
        &InterpOptions::default(),
    );
}

/// An if/else join point: the else-branch jump lands on the statement
/// after the if, so no superinstruction may swallow the op it lands on.
#[test]
fn if_join_blocks_slot_move_fusion() {
    assert_src_agrees(
        "fn main() {\n\
         var a = 1; var b = 2; var c = 0;\n\
         foreach (i in range(0, 10)) {\n\
           if (i % 2 == 0) { a = a + i; } else { b = b + i; }\n\
           c = a;\n\
           c = c + b;\n\
         }\n\
         print(c);\n\
         }",
        &InterpOptions::default(),
    );
}

// ---- arithmetic inside fused ops ----

/// A fused `LoadSlotBin` site that is int/int for many iterations, then
/// sees a float.
#[test]
fn operand_type_change_mid_loop_is_identical_through_fusion() {
    assert_src_agrees(
        "fn main() {\n\
         var s = 0;\n\
         foreach (i in range(0, 30)) {\n\
           var x = 1;\n\
           if (i == 25) { x = 0.5; }\n\
           s = s + x;\n\
         }\n\
         print(s);\n\
         }",
        &InterpOptions::default(),
    );
}

/// Float arithmetic, comparison and division through `ConstBin`.
#[test]
fn float_arithmetic_is_identical_through_fusion() {
    assert_src_agrees(
        "fn main() {\n\
         var s = 0.0;\n\
         foreach (i in range(0, 40)) {\n\
           s = s + 1.5;\n\
           s = s * 1.01;\n\
           if (s > 100.0) { s = s / 2.0; }\n\
         }\n\
         print(s);\n\
         }",
        &InterpOptions::default(),
    );
}

/// Errors inside fused ops must carry the same line and message as the
/// plain ops': division by zero after a hot int loop.
#[test]
fn division_by_zero_error_is_identical_through_fusion() {
    assert_src_agrees(
        "fn main() {\n\
         var s = 0; var d = 5;\n\
         foreach (i in range(0, 20)) {\n\
           d = d - 1;\n\
           s = s + 100 / d;\n\
         }\n\
         print(s);\n\
         }",
        &InterpOptions::default(),
    );
}

/// Step-limit exhaustion can trigger inside a fused op that carries ticks
/// (`StmtEnterTick`, `StmtExitEnterTick`, `TickLoadSlot`); the reported
/// error must match the tree-walker's.
#[test]
fn step_limit_error_is_identical_through_fusion() {
    for limit in [50, 97, 214, 1003] {
        assert_src_agrees(
            "fn main() {\n\
             var s = 0;\n\
             while (true) { s = s + 1; }\n\
             }",
            &InterpOptions { step_limit: limit, ..InterpOptions::default() },
        );
    }
}

/// A type error mid-loop (int + string) raised by a fused `LoadSlotBin`
/// after many int/int iterations.
#[test]
fn type_error_mid_loop_is_identical_through_fusion() {
    assert_src_agrees(
        "fn main() {\n\
         var s = 0;\n\
         foreach (i in range(0, 15)) {\n\
           var x = 1;\n\
           if (i == 12) { x = \"oops\"; }\n\
           s = s + x;\n\
         }\n\
         print(s);\n\
         }",
        &InterpOptions::default(),
    );
}

// ---- generated programs ----

fn arb_term() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..9).prop_map(|v| v.to_string()),
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        (1u32..40).prop_map(|v| format!("{}.5", v)),
    ]
}

fn arb_binexpr() -> impl Strategy<Value = String> {
    (arb_term(), prop_oneof![Just("+"), Just("-"), Just("*"), Just("%"), Just("/")], arb_term())
        .prop_map(|(l, op, r)| format!("({l} {op} {r})"))
}

fn arb_cond() -> impl Strategy<Value = String> {
    (arb_term(), prop_oneof![Just("<"), Just("<="), Just(">"), Just("=="), Just("!=")], arb_term())
        .prop_map(|(l, op, r)| format!("({l} {op} {r})"))
}

fn arb_stmt(depth: u32) -> BoxedStrategy<String> {
    let assign = (prop_oneof![Just("a"), Just("b"), Just("c")], arb_binexpr())
        .prop_map(|(v, e)| format!("{v} = {e};"));
    let compound =
        (prop_oneof![Just("a"), Just("b"), Just("c")], prop_oneof![Just("+="), Just("-="), Just("*=")], arb_term())
            .prop_map(|(v, op, e)| format!("{v} {op} {e};"));
    if depth == 0 {
        return prop_oneof![assign, compound].boxed();
    }
    let iff = (arb_cond(), arb_stmt(depth - 1), arb_stmt(depth - 1))
        .prop_map(|(c, t, e)| format!("if {c} {{ {t} }} else {{ {e} }}"));
    let foreach = (2u32..12, proptest::collection::vec(arb_stmt(depth - 1), 1..3), any::<bool>())
        .prop_map(|(n, body, skip)| {
            let guard = if skip { "if (i % 3 == 0) { continue; } " } else { "" };
            format!("foreach (i in range(0, {n})) {{ {guard}{} }}", body.join(" "))
        });
    let whileloop = (2u32..10, proptest::collection::vec(arb_stmt(depth - 1), 1..3))
        .prop_map(|(n, body)| {
            format!("var w = 0; while (w < {n}) {{ w = w + 1; {} }}", body.join(" "))
        });
    prop_oneof![3 => assign, 2 => compound, 2 => iff, 2 => foreach, 1 => whileloop].boxed()
}

fn arb_program() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_stmt(2), 1..6).prop_map(|stmts| {
        format!(
            "fn main() {{ var a = 3; var b = 4; var c = 5; {} print(a); print(b); print(c); }}",
            stmts.join("\n")
        )
    })
}

proptest! {
    #[test]
    fn generated_programs_survive_fusion(src in arb_program()) {
        let program = parse(&src).expect("generated program parses");
        assert_fusion_agrees(&program, &InterpOptions::default());
    }

    // The same generated programs under a tight step limit: exhaustion
    // lands inside fused ops at arbitrary points.
    #[test]
    fn generated_programs_agree_on_step_limits(src in arb_program(), limit in 20u64..400) {
        let program = parse(&src).expect("generated program parses");
        assert_fusion_agrees(&program, &InterpOptions { step_limit: limit, ..InterpOptions::default() });
    }
}
