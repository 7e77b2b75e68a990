//! Diagnostic probe: per-feature engine timings on focused microprograms.
//!
//! Each program isolates one language feature so the ast-vs-vm ratio shows
//! where the VM wins and where shared costs dominate. The VM always runs
//! the bytecode the product runs (`compile_fused`); the last section
//! counts what it dispatches, next to the raw bytecode's counts. Not a
//! regression gate — a tool for directing optimization work.

use patty_bench::{print_table, time_median};
use patty_minilang::{bytecode, compile_fused, parse, run, vm, Engine, InterpOptions};
use std::collections::BTreeMap;
use std::hint::black_box;

const SAMPLES: usize = 7;

fn opts(engine: Engine) -> InterpOptions {
    InterpOptions { engine, ..InterpOptions::default() }
}

const PROBES: &[(&str, &str)] = &[
    (
        "locals_arith",
        "fn main() { var s = 0; for (var i = 0; i < 20000; i += 1) { s += i * 3 - 1; } print(s); }",
    ),
    (
        "field_read",
        "class P { var x = 1; }
         fn main() { var p = new P(); var s = 0; for (var i = 0; i < 20000; i += 1) { s += p.x; } print(s); }",
    ),
    (
        "field_write",
        "class P { var x = 0; }
         fn main() { var p = new P(); for (var i = 0; i < 20000; i += 1) { p.x += 1; } print(p.x); }",
    ),
    (
        "method_call",
        "class P { fn get() { return 1; } }
         fn main() { var p = new P(); var s = 0; for (var i = 0; i < 20000; i += 1) { s += p.get(); } print(s); }",
    ),
    (
        "object_alloc",
        "class V { var x = 0; var y = 0; var z = 0; }
         fn main() { var s = 0; for (var i = 0; i < 20000; i += 1) { var v = new V(i, 2, 3); s += v.x; } print(s); }",
    ),
    (
        "func_call",
        "fn f(a, b) { return a + b; }
         fn main() { var s = 0; for (var i = 0; i < 20000; i += 1) { s = f(s, 1); } print(s); }",
    ),
    (
        "builtin_len",
        "fn main() { var xs = [1, 2, 3]; var s = 0; for (var i = 0; i < 20000; i += 1) { s += len(xs); } print(s); }",
    ),
    (
        "builtin_sqrt",
        "fn main() { var s = 0.0; for (var i = 0; i < 20000; i += 1) { s += sqrt(2.0); } print(s > 0.0); }",
    ),
    (
        "list_index",
        "fn main() { var xs = [1, 2, 3, 4]; var s = 0; for (var i = 0; i < 20000; i += 1) { s += xs[i % 4]; } print(s); }",
    ),
    (
        "string_ops",
        "fn main() { var s = 0; for (var i = 0; i < 2000; i += 1) { var parts = \"a b c\".split(\" \"); s += len(parts); } print(s); }",
    ),
];

fn main() {
    let mut rows = Vec::new();
    for (name, src) in PROBES {
        let program = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let compiled = compile_fused(&program, opts(Engine::Vm).trace_loops);
        let out = run(&program, opts(Engine::Ast)).unwrap();
        let cost = out.profile.total_cost.max(1);
        let ast_t = time_median(SAMPLES, || {
            black_box(run(&program, opts(Engine::Ast)).unwrap());
        });
        let vm_t = time_median(SAMPLES, || {
            black_box(vm::run_compiled(&compiled, "main", vec![], opts(Engine::Vm)).unwrap());
        });
        let ast_ns = ast_t.as_nanos() as f64 / cost as f64;
        let vm_ns = vm_t.as_nanos() as f64 / cost as f64;
        rows.push(vec![
            name.to_string(),
            cost.to_string(),
            format!("{ast_ns:.2}"),
            format!("{vm_ns:.2}"),
            format!("{:.2}x", ast_ns / vm_ns),
        ]);
    }
    print_table(
        "per-feature probes (ns per virtual cost unit)",
        &["probe", "total_cost", "ast ns/cost", "vm ns/cost", "ratio"],
        &rows,
    );

    // Split execution vs loop-trace recording on the heaviest corpus
    // programs (plus the traced-mode stragglers): same run with tracing
    // on and off, on the bytecode fused for each mode.
    let mut rows = Vec::new();
    for p in patty_corpus::all_programs() {
        if ![
            "raytracer",
            "matmul",
            "nbody",
            "graph_bfs",
            "tokenizer",
            "spellcheck",
            "wordstats",
            "csv_analytics",
        ]
        .contains(&p.name)
        {
            continue;
        }
        let program = p.parse();
        let profile = run(&program, opts(Engine::Ast)).unwrap().profile;
        let cost = profile.total_cost.max(1);
        let locations: usize = profile.loop_traces.values().map(|t| t.locs().len()).sum();
        let (opt_on, opt_off) = (compile_fused(&program, true), compile_fused(&program, false));
        let t = |engine: Engine, trace: bool| {
            let o = InterpOptions { engine, trace_loops: trace, ..InterpOptions::default() };
            let code = if trace { &opt_on } else { &opt_off };
            let d = time_median(SAMPLES, || match engine {
                Engine::Ast => {
                    black_box(run(&program, o.clone()).unwrap());
                }
                Engine::Vm => {
                    black_box(vm::run_compiled(code, "main", vec![], o.clone()).unwrap());
                }
            });
            d.as_nanos() as f64 / cost as f64
        };
        let (ast_on, ast_off) = (t(Engine::Ast, true), t(Engine::Ast, false));
        let (vm_on, vm_off) = (t(Engine::Vm, true), t(Engine::Vm, false));
        rows.push(vec![
            p.name.to_string(),
            format!("{ast_on:.1}"),
            format!("{ast_off:.1}"),
            format!("{vm_on:.1}"),
            format!("{vm_off:.1}"),
            format!("{:.2}x", ast_off / vm_off),
            format!("{:.2}x", ast_on / vm_on),
            format!("{:.2}x", vm_on / vm_off),
            profile.stats().recorded_accesses.to_string(),
            locations.to_string(),
        ]);
    }
    print_table(
        "trace recording split (ns/cost, fused bytecode; accesses and locations summed over the loop tables)",
        &[
            "program", "ast on", "ast off", "vm on", "vm off", "off-ratio", "on-ratio", "vm on/off", "accesses",
            "locations",
        ],
        &rows,
    );

    // Dispatch diagnostics: the top-10 opcode pairs across the corpus on
    // raw and on fused bytecode, each superinstruction's share of the
    // dispatched ops in both modes (which ones pay is ROADMAP item 7), and
    // a fused-vs-raw A/B per program so fusion wins are visible in CI logs.
    let add = |totals: &mut BTreeMap<String, u64>, pairs: &[(String, u64)]| {
        for (pair, count) in pairs {
            *totals.entry(pair.clone()).or_insert(0) += count;
        }
    };
    let hottest = |totals: BTreeMap<String, u64>| {
        let mut all: Vec<(String, u64)> = totals.into_iter().collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(10);
        all.into_iter().map(|(p, c)| vec![p, c.to_string()]).collect::<Vec<_>>()
    };
    let (mut raw_pairs, mut fused_pairs) = (BTreeMap::new(), BTreeMap::new());
    // Per superinstruction: dispatches in [exec, traced] mode; and the
    // total ops dispatched in each.
    let mut fused_hits: BTreeMap<&'static str, [u64; 2]> = BTreeMap::new();
    let mut dispatched = [0u64; 2];
    let mut rows = Vec::new();
    for p in patty_corpus::all_programs() {
        let program = p.parse();
        let raw = bytecode::compile(&program);
        let fused = compile_fused(&program, false);
        let exec = InterpOptions { trace_loops: false, ..InterpOptions::default() };
        let (_, raw_counts) = vm::profile_ops(&raw, "main", vec![], exec.clone())
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let (out, counts) = vm::profile_ops(&fused, "main", vec![], exec.clone())
            .unwrap_or_else(|e| panic!("{} fused: {e}", p.name));
        let (_, traced_counts) =
            vm::profile_ops(&compile_fused(&program, true), "main", vec![], InterpOptions::default())
                .unwrap_or_else(|e| panic!("{} fused for tracing: {e}", p.name));
        add(&mut raw_pairs, &raw_counts.top_pairs);
        add(&mut fused_pairs, &counts.top_pairs);
        for (mode, c) in [&counts, &traced_counts].into_iter().enumerate() {
            dispatched[mode] += c.total_ops;
            for f in &c.fused {
                fused_hits.entry(f.op).or_default()[mode] += f.hits;
            }
        }
        let cost = out.profile.total_cost.max(1);
        let raw_t = time_median(SAMPLES, || {
            black_box(vm::run_compiled(&raw, "main", vec![], exec.clone()).unwrap());
        });
        let fused_t = time_median(SAMPLES, || {
            black_box(vm::run_compiled(&fused, "main", vec![], exec.clone()).unwrap());
        });
        rows.push(vec![
            p.name.to_string(),
            format!("{} -> {}", raw.op_count(), fused.op_count()),
            counts.fused.iter().map(|f| f.sites).sum::<u64>().to_string(),
            format!("{:.2}", raw_counts.total_ops as f64 / cost as f64),
            format!("{:.2}", counts.total_ops as f64 / cost as f64),
            format!("{:.2}x", raw_t.as_nanos() as f64 / fused_t.as_nanos().max(1) as f64),
        ]);
    }
    print_table(
        "top-10 opcode pairs on raw bytecode (corpus, exec mode)",
        &["pair", "dynamic count"],
        &hottest(raw_pairs),
    );
    print_table(
        "top-10 opcode pairs on fused bytecode (corpus, exec mode)",
        &["pair", "dynamic count"],
        &hottest(fused_pairs),
    );
    let share = |hits: u64, total: u64| format!("{:.1}%", 100.0 * hits as f64 / total.max(1) as f64);
    print_table(
        "superinstruction share of dispatched ops (corpus)",
        &["op", "exec", "traced"],
        &fused_hits
            .iter()
            .map(|(op, h)| vec![op.to_string(), share(h[0], dispatched[0]), share(h[1], dispatched[1])])
            .collect::<Vec<_>>(),
    );
    print_table(
        "per-program fusion (exec mode)",
        &["program", "ops", "fusion sites", "dispatch/cost raw", "fused", "fused speedup"],
        &rows,
    );
}
