//! The dynamic profile and the unit tests generated from it, pinned to a
//! committed golden file.
//!
//! The engine differentials compare the VM with the tree-walker inside
//! one build, so a change that moved both the same way would pass them.
//! For every corpus program this records, per engine, the FNV-1a of
//! `Profile::to_json()` under default options and under `trace_iters = 1`,
//! and per detected instance a digest of the generated `ParallelUnitTest`
//! (stage names, replicas, every element's op list, `cells`) at two and
//! six elements and for a deliberate over-claim of the instance. How the
//! profile is stored and how the unit test is derived from it are
//! implementation details; these bytes are not.

mod common;

use patty_hash::fnv1a64;
use patty_workspace::corpus::all_programs;
use patty_workspace::minilang::profile::AccessKind;
use patty_workspace::minilang::{run, Engine, InterpOptions};
use patty_workspace::patty::Patty;
use patty_workspace::tadl::PatternKind;
use patty_workspace::testgen::{generate_unit_test, ParallelUnitTest};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/profile_digests.txt");

/// Everything of a unit test the chess bodies read, one line per fact.
fn render_unit_test(t: &ParallelUnitTest) -> String {
    let mut s = String::new();
    writeln!(s, "{} {:?} elements={} levels={:?}", t.name, t.kind, t.elements, t.levels).unwrap();
    for stage in &t.stages {
        writeln!(s, "stage {} replicas={}", stage.name, stage.replicas).unwrap();
        for (e, ops) in stage.ops.iter().enumerate() {
            let ops: Vec<String> = ops
                .iter()
                .map(|o| {
                    let kind = match o.kind {
                        AccessKind::Read => 'r',
                        AccessKind::Write => 'w',
                    };
                    format!("{kind}:{}", o.cell)
                })
                .collect();
            writeln!(s, "  {e}: {}", ops.join(" ")).unwrap();
        }
    }
    for cell in &t.cells {
        writeln!(s, "cell {cell}").unwrap();
    }
    s
}

#[test]
fn profiles_and_unit_tests_match_the_golden_file() {
    let mut actual = String::new();
    for p in all_programs() {
        writeln!(actual, "== {}", p.name).unwrap();
        let program = p.parse();
        for (label, engine) in [("ast", Engine::Ast), ("vm", Engine::Vm)] {
            for (mode, trace_iters) in [("default", InterpOptions::default().trace_iters), ("iters1", 1)] {
                let options = InterpOptions { engine, trace_iters, ..InterpOptions::default() };
                let json = run(&program, options).expect("the program runs").profile.to_json();
                writeln!(actual, "profile {label} {mode} len={} fnv={:016x}", json.len(), fnv1a64(json.as_bytes()))
                    .unwrap();
            }
        }
        let run = Patty::new().run_automatic(p.source).expect("the process runs");
        // The process's own unit test (two elements), the same instance
        // over six, and an over-claim of it — every element its own task,
        // no reduction privatized. A correct detection prunes to nothing;
        // the over-claim keeps every written cell two elements share, so
        // naming, ordering and pruning all reach the digest.
        for a in &run.artifacts {
            let wide = generate_unit_test(&run.model, &a.instance, 6);
            let mut claim = a.instance.clone();
            claim.arch.kind = PatternKind::DataParallelLoop;
            claim.reductions.clear();
            let overclaimed = generate_unit_test(&run.model, &claim, 6);
            for (label, test) in [("x2", &a.unit_test), ("x6", &wide), ("x6_doall", &overclaimed)] {
                match test {
                    Some(t) => {
                        let ops: usize =
                            t.stages.iter().flat_map(|s| s.ops.iter()).map(|ops| ops.len()).sum();
                        writeln!(
                            actual,
                            "unittest {} {label} stages={} ops={ops} cells={} fnv={:016x}",
                            a.arch.name,
                            t.stages.len(),
                            t.cells.len(),
                            fnv1a64(render_unit_test(t).as_bytes())
                        )
                        .unwrap();
                    }
                    None => writeln!(actual, "unittest {} {label} none", a.arch.name).unwrap(),
                }
            }
        }
    }
    common::assert_matches_golden("profile_digests", &actual, GOLDEN);
}
