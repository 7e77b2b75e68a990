//! Quickstart: the full Patty process on the paper's AviStream example
//! (Fig. 3) — detect the pipeline, annotate the source, emit the tuning
//! configuration and the parallel plan, validate with CHESS, tune.
//!
//! Run with: `cargo run --example quickstart`

use patty_workspace::patty::{Patty, PattyOptions};

fn main() {
    let source = patty_workspace::corpus::avistream_program().source;
    let patty = Patty { options: PattyOptions::default(), ..Patty::default() };

    // Phases 1–4, fully automatic (operation mode 1).
    let run = patty.run_automatic(source).expect("avistream analyses cleanly");
    println!("detected {} candidate architecture(s)\n", run.artifacts.len());
    let artifact = &run.artifacts[0];

    println!("architecture (Fig. 3b annotation): {}", artifact.arch.expr);
    println!("stream length observed: {} elements", artifact.arch.stream_length);
    println!("\n— annotated source (excerpt) —");
    let annotated = patty.annotate(&run).expect("avistream annotates cleanly");
    for line in annotated[0]
        .lines()
        .filter(|l| l.contains("#region") || l.contains("#endregion"))
    {
        println!("{line}");
    }

    println!("\n— tuning configuration (Fig. 3c) —");
    println!("{}", artifact.instance.tuning.to_json());

    println!("— parallel source (Fig. 3d) —");
    println!("{}", artifact.plan.code);

    // Operation mode 4a: correctness validation on the generated parallel
    // unit test (all interleavings).
    for (name, report) in patty.validate_correctness(&run) {
        println!(
            "correctness[{name}]: {} schedules explored, {}",
            report.schedules,
            if report.failures.is_empty() { "no parallel errors" } else { "FAILURES" }
        );
    }

    // Operation mode 4b: the auto-tuning cycle.
    for (name, result) in patty.tune_performance(&run) {
        let initial = result.history.first().map(|h| h.1).unwrap_or(f64::NAN);
        println!(
            "tuning[{name}]: {:.0} → {:.0} simulated cost units in {} evaluations",
            initial, result.best_score, result.evaluations
        );
    }
}
