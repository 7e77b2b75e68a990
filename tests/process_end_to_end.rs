//! Cross-crate integration: the full four-phase process on every corpus
//! program, plus the annotation (mode 2) round trip.

use patty_workspace::corpus::all_programs;
use patty_workspace::minilang::{parse, run, InterpOptions};
use patty_workspace::patty::Patty;
use patty_workspace::transform::extract_annotations;

#[test]
fn automatic_mode_runs_on_every_corpus_program() {
    let patty = Patty::new();
    for prog in all_programs() {
        let result = patty
            .run_automatic(prog.source)
            .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
        let annotated = patty.annotate(&result).unwrap_or_else(|e| panic!("{}: {e}", prog.name));
        for (a, annotated) in result.artifacts.iter().zip(&annotated) {
            // every artifact set is internally consistent
            a.arch.validate().unwrap_or_else(|e| panic!("{}: {e}", prog.name));
            assert!(
                annotated.contains("#region TADL:"),
                "{}: annotation missing",
                prog.name
            );
            assert!(!a.instance.tuning.to_json().is_empty());
            assert!(!a.plan.code.is_empty());
            // the tuning JSON round-trips
            let cfg = patty_workspace::patty::load_tuning(&a.instance.tuning.to_json()).unwrap();
            assert_eq!(cfg, a.instance.tuning, "{}", prog.name);
        }
    }
}

#[test]
fn annotated_source_reanalyzes_identically() {
    // Mode 1 output (annotated source) is valid mode 2 input: extracting
    // the injected annotations yields the same architecture.
    let patty = Patty::new();
    for prog in all_programs() {
        let auto = patty.run_automatic(prog.source).unwrap();
        let annotated = patty.annotate(&auto).unwrap();
        for (a, annotated) in auto.artifacts.iter().zip(&annotated) {
            let reparsed = parse(annotated)
                .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
            let anns = extract_annotations(&reparsed)
                .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
            assert_eq!(anns.len(), 1, "{}", prog.name);
            assert_eq!(anns[0].expr, a.arch.expr, "{}", prog.name);
        }
    }
}

#[test]
fn annotation_never_changes_program_behaviour() {
    let patty = Patty::new();
    for prog in all_programs() {
        let original = run(&prog.parse(), InterpOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
        let auto = patty.run_automatic(prog.source).unwrap();
        for (a, annotated) in auto.artifacts.iter().zip(patty.annotate(&auto).unwrap()) {
            let annotated = parse(&annotated).unwrap();
            let transformed = run(&annotated, InterpOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
            assert_eq!(
                original.output, transformed.output,
                "{}: annotating {} changed behaviour",
                prog.name, a.arch.name
            );
        }
    }
}

#[test]
fn tuning_improves_every_pipeline_plan() {
    let patty = Patty::new();
    for prog in all_programs() {
        let auto = patty.run_automatic(prog.source).unwrap();
        for (name, result) in patty.tune_performance(&auto) {
            let initial = result.history.first().map(|h| h.1).unwrap_or(f64::NAN);
            assert!(
                result.best_score <= initial,
                "{}/{name}: tuning must never make things worse ({initial} -> {})",
                prog.name,
                result.best_score
            );
        }
    }
}
