//! The process model's artifacts, pinned to a committed golden file.
//!
//! How often the process model parses, compiles or prints a program is an
//! implementation detail; *what* it hands back is not. For every corpus
//! program and four size-scaled ones this records, under default options,
//! each detected instance's architecture, tuning file, plan and annotated
//! source (length + FNV-1a) and each function's path-coverage report. A
//! change to how the artifacts are computed leaves this file's bytes
//! alone.

mod common;

use patty_hash::fnv1a64;
use patty_workspace::corpus::all_programs;
use patty_workspace::minilang::{parse, Value};
use patty_workspace::patty::{Patty, PattyRun};
use patty_workspace::testgen::{path_coverage_inputs, CoverageReport};
use patty_workspace::transform::{annotate_source, extract_annotations};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/process_artifacts.txt");

/// The 22 corpus programs, then `nbody` at ≈ ×1/×2/×4/×8 of its size and
/// a ×2 variant whose last annotated loop sits in a class method.
fn programs() -> Vec<(String, String)> {
    let corpus = all_programs();
    let base = corpus.iter().find(|p| p.name == "nbody").expect("nbody is in the corpus").source;
    let mut all: Vec<(String, String)> =
        corpus.iter().map(|p| (p.name.to_string(), p.source.to_string())).collect();
    for scale in [1, 2, 4, 8] {
        all.push((format!("nbody_x{scale}"), common::scaled_source(base, scale, 22)));
    }
    all.push(("nbody_x2_method".into(), common::scaled_source_with_method(base, 2, 22)));
    all
}

/// The run, its annotated sources (one per instance) and its coverage
/// reports: the whole process, its two on-request steps included.
fn run(source: &str) -> (PattyRun, Vec<String>, Vec<(String, CoverageReport)>) {
    let patty = Patty::new();
    let run = patty.run_automatic(source).expect("the program runs");
    let annotated = patty.annotate(&run).expect("the program annotates");
    let inputs = patty.coverage_inputs(&run);
    (run, annotated, inputs)
}

fn render_inputs(inputs: &[Vec<Value>]) -> String {
    let rows: Vec<String> = inputs
        .iter()
        .map(|row| {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Int(n) => n.to_string(),
                    other => format!("{other:?}"),
                })
                .collect();
            format!("({})", cells.join(","))
        })
        .collect();
    rows.join(" ")
}

fn render(out: &mut String, name: &str, source: &str) {
    let (run, annotated, inputs) = run(source);
    writeln!(out, "== {name} bytes={} instances={}", source.len(), run.artifacts.len()).unwrap();
    for (a, annotated) in run.artifacts.iter().zip(&annotated) {
        let stages: Vec<&str> = a.plan.stages.iter().map(|s| s.name.as_str()).collect();
        writeln!(out, "instance {} | {}", a.arch.name, a.arch.expr).unwrap();
        writeln!(out, "  plan {} stages=[{}]", a.plan.kind, stages.join(",")).unwrap();
        writeln!(out, "  tuning {}", a.instance.tuning.to_json().split_whitespace().collect::<Vec<_>>().join(" "))
            .unwrap();
        writeln!(
            out,
            "  annotated len={} fnv={:016x}",
            annotated.len(),
            fnv1a64(annotated.as_bytes())
        )
        .unwrap();
    }
    for (func, r) in &inputs {
        let CoverageReport { inputs, covered, achievable, total, .. } = r;
        writeln!(
            out,
            "inputs {func} covered={covered} achievable={achievable} total={total} inputs={}",
            render_inputs(inputs)
        )
        .unwrap();
    }
}

#[test]
fn artifacts_match_the_golden_file() {
    let mut actual = String::new();
    for (name, source) in programs() {
        render(&mut actual, &name, &source);
    }
    common::assert_matches_golden("process_artifacts", &actual, GOLDEN);
}

#[test]
fn every_annotated_source_reparses_to_its_architecture() {
    for (name, source) in programs() {
        let (run, annotated, _) = run(&source);
        for (a, annotated) in run.artifacts.iter().zip(&annotated) {
            let reparsed = parse(annotated)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.arch.name));
            let annotations = extract_annotations(&reparsed)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.arch.name));
            assert_eq!(annotations.len(), 1, "{name}/{}: one TADL region", a.arch.name);
            assert_eq!(annotations[0].expr, a.arch.expr, "{name}/{}", a.arch.name);
        }
    }
}

#[test]
fn one_shot_wrappers_agree_with_the_process_model() {
    for (name, source) in programs() {
        let (run, annotated, inputs) = run(&source);
        for (a, annotated) in run.artifacts.iter().zip(&annotated) {
            let one_shot = annotate_source(&run.model.program, &a.instance)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", a.arch.name));
            assert_eq!(&one_shot, annotated, "{name}/{}", a.arch.name);
        }
        for (func, report) in &inputs {
            let one_shot =
                path_coverage_inputs(&run.model.program, func, &[-3, -1, 0, 1, 2, 7], 4, 512);
            assert_eq!(format!("{one_shot:?}"), format!("{report:?}"), "{name}/{func}");
        }
    }
}
