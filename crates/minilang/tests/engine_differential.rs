//! Differential tests: the bytecode VM must be observationally identical to
//! the tree-walking interpreter — same result, same printed output, same
//! `LangError` (phase, line, message) and a **byte-identical** profile JSON
//! rendering — on randomly generated programs and on targeted error cases.

use patty_minilang::ast::*;
use patty_minilang::span::{NodeId, Span};
use patty_minilang::{parse, print_program, run, DynLoc, Engine, InterpOptions, LoopTrace};
use proptest::prelude::*;

/// Run one parsed program through both engines under the same options and
/// assert full observational identity.
fn assert_engines_agree(program: &Program, opts: &InterpOptions) -> Result<(), TestCaseError> {
    let ast = run(program, InterpOptions { engine: Engine::Ast, ..opts.clone() });
    let vm = run(program, InterpOptions { engine: Engine::Vm, ..opts.clone() });
    match (ast, vm) {
        (Ok(a), Ok(v)) => {
            prop_assert_eq!(format!("{:?}", a.result), format!("{:?}", v.result));
            prop_assert_eq!(&a.output, &v.output);
            prop_assert_eq!(a.profile.to_json(), v.profile.to_json());
        }
        (Err(a), Err(v)) => prop_assert_eq!(a, v),
        (a, v) => {
            return Err(TestCaseError::fail(format!(
                "engines disagree: ast={:?} vm={:?}",
                a.map(|o| o.output),
                v.map(|o| o.output)
            )))
        }
    }
    Ok(())
}

fn assert_src_agrees(src: &str, opts: &InterpOptions) {
    let program = parse(src).expect("test program parses");
    assert_engines_agree(&program, opts).unwrap();
}

// ---- generated programs ----

fn lit(v: i64) -> Expr {
    Expr { id: NodeId(0), span: Span::DUMMY, kind: ExprKind::Int(v) }
}

fn var(name: &str) -> Expr {
    Expr { id: NodeId(0), span: Span::DUMMY, kind: ExprKind::Var(name.to_string()) }
}

fn stmt(kind: StmtKind) -> Stmt {
    Stmt { id: NodeId(0), span: Span::DUMMY, kind }
}

fn block(stmts: Vec<Stmt>) -> Block {
    Block { id: NodeId(0), span: Span::DUMMY, stmts }
}

fn call(callee: &str, args: Vec<Expr>) -> Expr {
    Expr {
        id: NodeId(0),
        span: Span::DUMMY,
        kind: ExprKind::Call { callee: callee.to_string(), args },
    }
}

/// Expressions over pre-declared ints `a`/`b`/`c` and list `xs`.
fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-50i64..50).prop_map(lit),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(var),
        // xs[..] indexing with an in-bounds constant (xs has 4 elements)
        (0i64..4).prop_map(|i| Expr {
            id: NodeId(0),
            span: Span::DUMMY,
            kind: ExprKind::Index { base: Box::new(var("xs")), index: Box::new(lit(i)) },
        }),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        (
            inner.clone(),
            inner,
            prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::Rem),
                Just(BinOp::Lt),
                Just(BinOp::Eq),
            ],
        )
            .prop_map(|(lhs, rhs, op)| {
                // `%` faults on bool operands and on zero divisors from
                // comparison subtrees; guard it to arithmetic-only shapes.
                let op = if op == BinOp::Rem
                    && !matches!(
                        (&lhs.kind, &rhs.kind),
                        (ExprKind::Var(_) | ExprKind::Int(_), ExprKind::Int(_))
                    ) {
                    BinOp::Add
                } else {
                    op
                };
                let rhs = if op == BinOp::Rem && matches!(rhs.kind, ExprKind::Int(0)) {
                    lit(7)
                } else {
                    rhs
                };
                Expr {
                    id: NodeId(0),
                    span: Span::DUMMY,
                    kind: ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                }
            })
            .boxed()
    })
    .boxed()
}

/// Statements reading/writing `a`/`b`/`c`, mutating list `xs`, calling the
/// `helper` user function, printing, and nesting ifs/foreach/while.
fn arb_stmt(depth: u32) -> BoxedStrategy<Stmt> {
    let assign = (
        prop_oneof![Just("a"), Just("b"), Just("c")],
        prop_oneof![Just(AssignOp::Set), Just(AssignOp::Add), Just(AssignOp::Mul)],
        arb_expr(2),
    )
        .prop_map(|(name, op, value)| {
            let op = if matches!(
                value.kind,
                ExprKind::Binary { op: BinOp::Lt | BinOp::Eq, .. }
            ) {
                AssignOp::Set
            } else {
                op
            };
            stmt(StmtKind::Assign {
                target: LValue { span: Span::DUMMY, kind: LValueKind::Var(name.to_string()) },
                op,
                value,
            })
        });
    let index_assign = (0i64..4, arb_expr(1)).prop_map(|(i, value)| {
        let value = if matches!(value.kind, ExprKind::Binary { op: BinOp::Lt | BinOp::Eq, .. }) {
            lit(1)
        } else {
            value
        };
        stmt(StmtKind::Assign {
            target: LValue {
                span: Span::DUMMY,
                kind: LValueKind::Index { base: var("xs"), index: lit(i) },
            },
            op: AssignOp::Set,
            value,
        })
    });
    let helper_call = arb_expr(1).prop_map(|e| {
        stmt(StmtKind::Assign {
            target: LValue { span: Span::DUMMY, kind: LValueKind::Var("a".to_string()) },
            op: AssignOp::Set,
            value: call("helper", vec![e]),
        })
    });
    let print_stmt = arb_expr(1).prop_map(|e| stmt(StmtKind::Expr(call("print", vec![e]))));
    let base = prop_oneof![3 => assign, 2 => index_assign, 1 => helper_call, 1 => print_stmt];
    base.prop_recursive(depth, 16, 4, |inner| {
        prop_oneof![
            (arb_expr(1), proptest::collection::vec(inner.clone(), 1..3)).prop_map(
                |(c, body)| {
                    let cond = Expr {
                        id: NodeId(0),
                        span: Span::DUMMY,
                        kind: ExprKind::Binary {
                            op: BinOp::Lt,
                            lhs: Box::new(c),
                            rhs: Box::new(lit(10)),
                        },
                    };
                    stmt(StmtKind::If { cond, then_blk: block(body), else_blk: None })
                }
            ),
            (1i64..5, proptest::collection::vec(inner.clone(), 1..3)).prop_map(|(n, body)| {
                stmt(StmtKind::Foreach {
                    var: "it".into(),
                    iter: call("range", vec![lit(0), lit(n)]),
                    body: block(body),
                })
            }),
            // bounded while: `c = 0; while (c < n) { ..body..; c += 1 }`
            (1i64..4, proptest::collection::vec(inner, 1..2)).prop_map(|(n, mut body)| {
                body.push(stmt(StmtKind::Assign {
                    target: LValue { span: Span::DUMMY, kind: LValueKind::Var("w".into()) },
                    op: AssignOp::Add,
                    value: lit(1),
                }));
                let cond = Expr {
                    id: NodeId(0),
                    span: Span::DUMMY,
                    kind: ExprKind::Binary {
                        op: BinOp::Lt,
                        lhs: Box::new(var("w")),
                        rhs: Box::new(lit(n)),
                    },
                };
                stmt(StmtKind::Block(block(vec![
                    stmt(StmtKind::VarDecl { name: "w".into(), init: lit(0) }),
                    stmt(StmtKind::While { cond, body: block(body) }),
                ])))
            }),
        ]
        .boxed()
    })
    .boxed()
}

/// Build a whole program: a `helper(n)` user function plus a `main` with
/// the shared declarations and the generated statements.
fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(arb_stmt(2), 1..7).prop_map(|mut stmts| {
        let helper = FuncDecl {
            id: NodeId(0),
            span: Span::DUMMY,
            name: "helper".into(),
            params: vec!["n".into()],
            body: block(vec![stmt(StmtKind::Return(Some(Expr {
                id: NodeId(0),
                span: Span::DUMMY,
                kind: ExprKind::Binary {
                    op: BinOp::Mul,
                    lhs: Box::new(var("n")),
                    rhs: Box::new(lit(2)),
                },
            })))]),
        };
        let mut all = vec![
            stmt(StmtKind::VarDecl { name: "a".into(), init: lit(1) }),
            stmt(StmtKind::VarDecl { name: "b".into(), init: lit(2) }),
            stmt(StmtKind::VarDecl { name: "c".into(), init: lit(3) }),
            stmt(StmtKind::VarDecl {
                name: "xs".into(),
                init: Expr {
                    id: NodeId(0),
                    span: Span::DUMMY,
                    kind: ExprKind::ListLit(vec![lit(1), lit(2), lit(3), lit(4)]),
                },
            }),
        ];
        all.append(&mut stmts);
        all.push(stmt(StmtKind::Expr(call(
            "print",
            vec![var("a"), var("b"), var("c"), var("xs")],
        ))));
        Program::new(
            vec![],
            vec![
                helper,
                FuncDecl {
                    id: NodeId(0),
                    span: Span::DUMMY,
                    name: "main".into(),
                    params: vec![],
                    body: block(all),
                },
            ],
            0,
            String::new(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn vm_matches_tree_walker_on_random_programs(program in arb_program()) {
        // Round-trip through the printer so the parsed program carries real
        // node ids and line numbers (the generator uses dummies).
        let src = print_program(&program);
        let parsed = parse(&src).expect("printed program parses");
        let opts = InterpOptions { step_limit: 2_000_000, ..InterpOptions::default() };
        assert_engines_agree(&parsed, &opts)?;
    }

    #[test]
    fn vm_matches_tree_walker_with_tiny_trace_budget(program in arb_program()) {
        let src = print_program(&program);
        let parsed = parse(&src).expect("printed program parses");
        let opts = InterpOptions {
            step_limit: 2_000_000,
            trace_iters: 2,
            ..InterpOptions::default()
        };
        assert_engines_agree(&parsed, &opts)?;
    }

    #[test]
    fn vm_matches_tree_walker_under_injected_step_limit(program in arb_program(), limit in 1u64..400) {
        let src = print_program(&program);
        let parsed = parse(&src).expect("printed program parses");
        // A tiny step limit makes many cases die mid-execution; the error
        // (line and message) must match exactly.
        let opts = InterpOptions { step_limit: limit, ..InterpOptions::default() };
        assert_engines_agree(&parsed, &opts)?;
    }
}

// ---- targeted error-identity cases ----

#[test]
fn step_limit_error_is_identical() {
    assert_src_agrees(
        "fn main() {\n    var i = 0;\n    while (i < 100000) {\n        i += 1;\n    }\n}",
        &InterpOptions { step_limit: 5_000, ..InterpOptions::default() },
    );
}

#[test]
fn call_depth_error_is_identical() {
    assert_src_agrees(
        "fn rec(n) {\n    return rec(n + 1);\n}\nfn main() {\n    rec(0);\n}",
        &InterpOptions::default(),
    );
    assert_src_agrees(
        "fn rec(n) {\n    return rec(n + 1);\n}\nfn main() {\n    rec(0);\n}",
        &InterpOptions { max_depth: 7, ..InterpOptions::default() },
    );
}

#[test]
fn index_out_of_bounds_error_is_identical() {
    assert_src_agrees(
        "fn main() {\n    var xs = [1, 2, 3];\n    var i = 0;\n    while (true) {\n        var v = xs[i];\n        i += 1;\n    }\n}",
        &InterpOptions::default(),
    );
    assert_src_agrees(
        "fn main() {\n    var xs = [1];\n    xs[5] = 9;\n}",
        &InterpOptions::default(),
    );
    assert_src_agrees(
        "fn main() {\n    var xs = [1];\n    xs[0 - 1] += 2;\n}",
        &InterpOptions::default(),
    );
}

#[test]
fn type_and_name_errors_are_identical() {
    for src in [
        "fn main() {\n    var x = 1 / 0;\n}",
        "fn main() {\n    var x = 5 % 0;\n}",
        "fn main() {\n    print(nope);\n}",
        "fn main() {\n    nope = 3;\n}",
        "fn main() {\n    nope += 3;\n}",
        "fn main() {\n    missing(1, 2);\n}",
        "fn main() {\n    var o = new Ghost();\n}",
        "fn main() {\n    if (1) { print(2); }\n}",
        "fn main() {\n    while (1) { print(2); }\n}",
        "fn main() {\n    for (var i = 0; i + 1; i += 1) { }\n}",
        "fn main() {\n    var x = true + 1;\n}",
        "fn main() {\n    var x = -true;\n}",
        "fn main() {\n    var x = 1 && true;\n}",
        "fn main() {\n    var x = true && 1;\n}",
        "fn main() {\n    foreach (x in 5) { }\n}",
        "fn main() {\n    var s = \"abc\";\n    s.x = 1;\n}",
        "fn main() {\n    var s = \"abc\";\n    print(s.q());\n}",
        "fn main() {\n    print(len(3));\n}",
        "fn main() {\n    print(work(true));\n}",
        "fn main() {\n    print(work(0 - 4));\n}",
        "fn main() {\n    print(range(1));\n}",
        "fn main() {\n    assert(1 == 2, \"boom\");\n}",
        "class P { var x = 0; }\nfn main() {\n    var p = new P(1, 2);\n}",
        "class P { var x = 0; }\nfn main() {\n    var p = new P(1);\n    print(p.y);\n}",
        "fn f(a, b) { return a; }\nfn main() {\n    f(1);\n}",
    ] {
        assert_src_agrees(src, &InterpOptions::default());
    }
}

#[test]
fn errors_inside_loops_carry_identical_stale_lines() {
    // The walker's `current_line` is the line of the innermost *statement*
    // last entered; a condition failing on a later iteration reports the
    // line of the last body statement. Both engines must agree.
    assert_src_agrees(
        "fn main() {\n    var c = 0;\n    while (c < 2) {\n        c = c + \"x\";\n    }\n}",
        &InterpOptions::default(),
    );
}

// ---- every path a traced location takes to its id ----

/// `src` agrees under the default trace length and shorter ones.
fn assert_traces_agree(src: &str) {
    for trace_iters in [InterpOptions::default().trace_iters, 2, 1] {
        assert_src_agrees(src, &InterpOptions { trace_iters, ..InterpOptions::default() });
    }
}

#[test]
fn a_loop_re_entered_by_recursion_agrees() {
    // The inner activations record into the loop while the outer one is
    // mid-iteration, so the loop's accesses arrive out of order.
    assert_traces_agree(
        "fn walk(xs, depth) {\n    var total = 0;\n    foreach (x in xs) {\n        total += x;\n        if (depth > 0) {\n            total += walk(xs, depth - 1);\n        }\n        xs[0] = total % 7;\n    }\n    return total;\n}\nfn main() {\n    var xs = [1, 2, 3];\n    print(walk(xs, 3), xs);\n}",
    );
}

#[test]
fn recording_nested_deeper_than_the_stamps_agrees() {
    let open: String = "abcdefg".chars().map(|v| format!("foreach ({v} in range(0, 2)) {{\n")).collect();
    assert_traces_agree(&format!(
        "fn main() {{\n    var xs = [0, 0, 0, 0];\n    var s = 0;\n{open}s += a + d + g;\nxs[(a + g) % 4] += s;\ns += xs[b] + len(xs);\n{}    print(s, xs);\n}}",
        "}\n".repeat(7)
    ));
}

#[test]
fn objects_met_before_and_after_the_heap_table_grows_agree() {
    // `ps[4000]` is first traced while 6 000 objects outnumber the traced
    // locations, so it goes to the exact map; 800 element cells later the
    // heap table grows past it and its field gets a second id.
    assert_traces_agree(
        "class P { var v = 0; }\nfn main() {\n    var ps = [];\n    foreach (i in range(0, 6000)) { ps.add(new P()); }\n    var big = range(0, 800);\n    var s = 0;\n    foreach (k in range(0, 3)) {\n        ps[4000].v += k;\n        foreach (j in range(0, 800)) { s += big[j]; }\n        ps[4000 + k].v += s;\n    }\n    print(s, ps[4000].v);\n}",
    );
}

#[test]
fn element_cells_at_large_and_negative_indices_agree() {
    assert_traces_agree(
        "fn main() {\n    var big = range(0, 100000);\n    var s = 0;\n    foreach (i in range(0, 4)) {\n        s += big[99999 - i] + big[i * 33333];\n        big[99998 - i] = s;\n        big.set(i * 33332, big.get(99999));\n    }\n    print(s, big[99998], big[0]);\n}",
    );
    // A negative index fails the run mid-trace, on both engines alike.
    assert_traces_agree(
        "fn main() {\n    var xs = [1, 2, 3];\n    foreach (i in range(0, 3)) {\n        xs[i] = xs[i - 1];\n    }\n}",
    );
    assert_traces_agree(
        "fn main() {\n    var xs = [1, 2, 3];\n    foreach (i in range(0, 3)) {\n        xs.set(1 - i, i);\n    }\n}",
    );
}

#[test]
fn locations_builtins_report_agree() {
    assert_traces_agree(
        "fn main() {\n    var xs = [];\n    var ys = [5, 6, 7];\n    foreach (i in range(0, 6)) {\n        xs.add(i);\n        var n = len(xs) + ys.len();\n        if (ys.contains(i + 1)) {\n            ys.set(0, ys.get(1) + n);\n        }\n        foreach (y in ys.clone()) {\n            n += y;\n        }\n        if (i == 4) {\n            xs.clear();\n        }\n        ys.add(n);\n    }\n    print(xs, ys);\n}",
    );
}

#[test]
fn objects_and_lists_allocated_outside_the_run_agree() {
    use patty_minilang::value::{FieldTable, ListData, ObjectData};
    use patty_minilang::{run_func, Value};
    use std::cell::RefCell;
    use std::rc::Rc;
    // Heap ids far past anything the run allocates, and too wide for a
    // location's rank key to fit one word.
    let args = || {
        let items = RefCell::new((0..4).map(Value::Int).collect());
        let mut fields = FieldTable::with_capacity(1);
        fields.set("v", Value::Int(1));
        vec![
            Value::List(Rc::new(ListData { id: 1 << 61, items })),
            Value::Object(Rc::new(ObjectData { id: (1 << 61) + 1, class: "P".into(), fields: RefCell::new(fields) })),
        ]
    };
    let p = parse(
        "class P { var v = 0; }\nfn f(xs, p) {\n    foreach (i in range(0, 3)) {\n        xs[i] = xs[i + 1] + p.v;\n        p.v += len(xs);\n        xs.add(new P());\n    }\n    return p.v;\n}",
    )
    .unwrap();
    let ast = run_func(&p, "f", args(), InterpOptions { engine: Engine::Ast, ..InterpOptions::default() }).unwrap();
    let vm = run_func(&p, "f", args(), InterpOptions { engine: Engine::Vm, ..InterpOptions::default() }).unwrap();
    assert_eq!(format!("{:?}", ast.result), format!("{:?}", vm.result));
    assert_eq!(ast.profile.to_json(), vm.profile.to_json());
}

#[test]
fn entry_function_runs_with_args_on_both_engines() {
    use patty_minilang::{run_func, Value};
    let p = parse("fn f(n) { var s = 0; foreach (i in range(0, n)) { s += i; } return s; }")
        .unwrap();
    let ast = run_func(
        &p,
        "f",
        vec![Value::Int(10)],
        InterpOptions { engine: Engine::Ast, ..InterpOptions::default() },
    )
    .unwrap();
    let vm = run_func(
        &p,
        "f",
        vec![Value::Int(10)],
        InterpOptions { engine: Engine::Vm, ..InterpOptions::default() },
    )
    .unwrap();
    assert_eq!(format!("{:?}", ast.result), format!("{:?}", vm.result));
    assert_eq!(ast.profile.to_json(), vm.profile.to_json());
}

// ---- what a loop records: its own frame's locals, and the heap ----

/// Run `src` on both engines at trace lengths 8, 2 and 1, require
/// byte-identical profiles, and hand each length's program and VM profile
/// to `check`.
fn assert_recorded(src: &str, check: impl Fn(usize, &Program, &patty_minilang::Profile)) {
    let program = parse(src).expect("test program parses");
    for trace_iters in [8, 2, 1] {
        let opts = InterpOptions { trace_iters, ..InterpOptions::default() };
        assert_engines_agree(&program, &opts).unwrap();
        let profile = run(&program, opts).expect("test program runs").profile;
        check(trace_iters, &program, &profile);
    }
}

/// The trace of the one loop in function `func`.
fn loop_in<'a>(program: &Program, profile: &'a patty_minilang::Profile, func: &str) -> &'a LoopTrace {
    let loops: Vec<_> = program.loops().into_iter().filter(|(f, _)| *f == func).collect();
    assert_eq!(loops.len(), 1, "one loop in `{func}`");
    &profile.loop_traces[&loops[0].1.id]
}

/// `(frame serial, name)` of every local in a trace's table.
fn locals(trace: &LoopTrace) -> Vec<(u32, String)> {
    trace
        .locs()
        .iter()
        .filter_map(|loc| match loc {
            DynLoc::Local(serial, name) => Some((*serial, name.to_string())),
            _ => None,
        })
        .collect()
}

#[test]
fn a_callee_frames_locals_stay_out_of_the_callers_loop() {
    // `main` is frame 1; each `helper` call is a fresh frame running its
    // own loop over its own locals.
    let src = "fn helper(n) {\n    var t = n * 2;\n    var acc = 0;\n    foreach (k in range(0, n)) {\n        acc += t + k;\n    }\n    return acc;\n}\nfn main() {\n    var xs = [0, 0, 0, 0];\n    var s = 0;\n    foreach (i in range(0, 4)) {\n        var h = helper(i + 1);\n        xs[i] = h;\n        s += h;\n    }\n    print(s, xs);\n}";
    assert_recorded(src, |trace_iters, program, profile| {
        let caller = loop_in(program, profile, "main");
        let mine = locals(caller);
        assert!(mine.iter().all(|(serial, _)| *serial == 1), "trace length {trace_iters}: {mine:?}");
        for name in ["h", "i", "s", "xs"] {
            assert!(mine.iter().any(|(_, n)| n == name), "trace length {trace_iters}: `{name}` missing from {mine:?}");
        }
        assert!(caller.locs().iter().any(|loc| matches!(loc, DynLoc::Elem(..))), "the caller still records the heap");
        assert_eq!(caller.traced_iters(), trace_iters.min(4));
        let callee = locals(loop_in(program, profile, "helper"));
        for name in ["acc", "t", "k"] {
            assert!(callee.iter().any(|(serial, n)| n == name && *serial > 1), "trace length {trace_iters}: `{name}` missing from {callee:?}");
        }
    });
}

#[test]
fn recursion_re_entering_a_loop_records_each_frame_in_its_own_iterations() {
    // `walk(1)` is frame 2 and runs the loop's global iterations 0 and 3;
    // the `walk(0)` it calls from them are frames 3 (iterations 1, 2) and
    // 4 (iterations 4, 5). Each activation's `total` is recorded only in
    // the iterations its own frame ran.
    let src = "fn walk(depth) {\n    var total = 0;\n    foreach (x in range(0, 2)) {\n        total += x;\n        if (depth > 0) {\n            total += walk(depth - 1);\n        }\n    }\n    return total;\n}\nfn main() {\n    print(walk(1));\n}";
    let ran_by = |serial: u32| match serial {
        2 => [0, 3],
        3 => [1, 2],
        4 => [4, 5],
        other => panic!("no frame {other} runs the loop"),
    };
    assert_recorded(src, |trace_iters, program, profile| {
        let t = loop_in(program, profile, "walk");
        assert_eq!(t.traced_iters(), trace_iters.min(6));
        let mut seen = 0;
        for a in t.accesses() {
            if let DynLoc::Local(serial, name) = &t.locs()[a.loc as usize] {
                assert!(ran_by(*serial).contains(&a.iter), "trace length {trace_iters}: `{name}` of frame {serial} in iteration {}", a.iter);
                seen += 1;
            }
        }
        assert!(seen > 0);
    });
}

#[test]
fn iterations_that_touch_only_a_callees_locals_stay_in_the_traced_prefix() {
    // Under the default seed `rand(3)` draws 2, 2, 0, 2, 2, 1: only
    // iteration 2 touches `xs`; every other one calls `spin`, whose
    // locals the loop leaves out. Each iteration still made an access, so
    // the traced prefix is every traced iteration — 6, 2 and 1.
    let src = "fn spin(n) {\n    var t = n * 2;\n    t += 1;\n    return t;\n}\nfn main() {\n    var xs = [0, 0];\n    foreach (k in range(0, 6)) {\n        if (rand(3) == 0) {\n            xs[0] += 1;\n        } else {\n            spin(4);\n        }\n    }\n    print(xs);\n}";
    assert_recorded(src, |trace_iters, program, profile| {
        let t = loop_in(program, profile, "main");
        let expected = trace_iters.min(6);
        assert_eq!(t.traced_iters(), expected, "trace length {trace_iters}");
        // The last traced iteration recorded nothing, and only iteration 2
        // recorded anything at all.
        assert!(t.accesses().iter().all(|a| a.iter == 2), "trace length {trace_iters}: {:?}", t.accesses());
        assert_eq!(t.accesses().is_empty(), expected <= 2);
        assert_eq!(profile.stats().traced_iterations, expected);
    });
}

#[test]
fn iterations_that_touch_nothing_stay_out_of_the_traced_prefix() {
    // Under the default seed `rand(3)` draws 2, 2, 0, 2, 2, 1: only
    // iteration 2 touches `s`, and the others run `work(1)`, which touches
    // no location. The prefix ends after the last
    // iteration that made an access, not the last one that ran a
    // statement: 3 when iteration 2 is traced, else 0.
    let src = "fn main() {\n    var s = 0;\n    foreach (k in range(0, 6)) {\n        if (rand(3) == 0) {\n            s += 1;\n        } else {\n            work(1);\n        }\n    }\n    print(s);\n}";
    assert_recorded(src, |trace_iters, program, profile| {
        let t = loop_in(program, profile, "main");
        let expected = if trace_iters > 2 { 3 } else { 0 };
        assert_eq!(t.traced_iters(), expected, "trace length {trace_iters}");
        assert!(t.accesses().iter().all(|a| a.iter == 2), "trace length {trace_iters}: {:?}", t.accesses());
    });
}

#[test]
fn non_ascii_string_literals_print_as_written_on_both_engines() {
    let src = "fn main() {\n    var s = \"été € \\\"😀\\\"\";\n    print(s);\n}";
    for engine in [Engine::Ast, Engine::Vm] {
        let program = parse(src).unwrap();
        let out = run(&program, InterpOptions { engine, ..InterpOptions::default() }).unwrap();
        assert_eq!(out.output[0], "été € \"😀\"", "{engine:?}");
    }
    assert_src_agrees(src, &InterpOptions::default());
}
