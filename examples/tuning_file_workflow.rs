//! The "automatically tunable without the need to recompile" loop of
//! Section 2.1: Patty writes a tuning configuration file next to the
//! parallel code; every execution initializes the patterns from the file;
//! between runs anyone (engineer or auto-tuner) can edit the values.
//!
//! This example runs that loop end to end on disk: generate the file from
//! a detected architecture, execute the native pipeline as configured,
//! let the auto-tuner rewrite the file, execute again — no recompilation
//! anywhere.
//!
//! Run with: `cargo run --example tuning_file_workflow`

use patty_workspace::patty::{load_tuning, Patty};
use patty_workspace::runtime::{PipelineTuning, Stage};
use patty_workspace::transform::{simulate_pipeline, PipelineSimEvaluator, SimParams};
use patty_workspace::tuning::{LinearSearch, Tuner};

fn build_stages() -> Vec<Stage<u64>> {
    vec![
        Stage::new("A", |x: u64| x.wrapping_mul(31) ^ 5),
        Stage::new("B", |x: u64| x.rotate_left(7).wrapping_add(13)),
        Stage::new("C", |x: u64| x ^ (x >> 3)),
        Stage::new("D", |x: u64| x.wrapping_mul(3)),
        Stage::new("E", |x: u64| x.wrapping_sub(1)),
    ]
}

fn main() {
    // 1. Patty generates the architecture + tuning file for AviStream.
    let run = Patty::new()
        .run_automatic(patty_workspace::corpus::avistream_program().source)
        .expect("avistream analyses");
    let artifact = &run.artifacts[0];
    let dir = std::env::temp_dir().join("patty-tuning-demo");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("{}.tuning.json", artifact.arch.name));
    std::fs::write(&path, artifact.instance.tuning.to_json()).expect("write tuning file");
    println!("tuning file written: {}", path.display());

    // 2. First execution: load the file, configure the pipeline, run.
    let config1 = load_tuning(&std::fs::read_to_string(&path).expect("read")).expect("parse");
    let values1 = PipelineTuning::from_config(&config1).expect("config decodes");
    let out1 = values1.build_pipeline(build_stages()).run((0..200).collect());
    let sim1 = simulate_pipeline(&artifact.plan, &values1, &SimParams::default());
    println!(
        "run 1 (defaults): {} elements, simulated parallel cost {}",
        out1.len(),
        sim1.parallel_time
    );

    // 3. The auto-tuner edits the file between runs.
    let mut evaluator =
        PipelineSimEvaluator { plan: artifact.plan.clone(), params: SimParams::default() };
    let tuned = LinearSearch::default().tune(config1, &mut evaluator, 80);
    std::fs::write(&path, tuned.best.to_json()).expect("rewrite tuning file");
    println!(
        "auto-tuner rewrote the file after {} evaluations",
        tuned.evaluations
    );

    // 4. Second execution: same binary, new behaviour.
    let config2 = load_tuning(&std::fs::read_to_string(&path).expect("read")).expect("parse");
    let values2 = PipelineTuning::from_config(&config2).expect("config decodes");
    let out2 = values2.build_pipeline(build_stages()).run((0..200).collect());
    let sim2 = simulate_pipeline(&artifact.plan, &values2, &SimParams::default());
    println!(
        "run 2 (tuned):    {} elements, simulated parallel cost {}",
        out2.len(),
        sim2.parallel_time
    );
    assert_eq!(out1, out2, "tuning must never change results");
    assert!(
        sim2.parallel_time <= sim1.parallel_time,
        "tuned configuration must not be slower in the model"
    );
    println!(
        "\nsame results, {:.0}% of the untuned cost — without recompiling",
        100.0 * sim2.parallel_time as f64 / sim1.parallel_time as f64
    );
    for p in &config2.params {
        println!("  {} = {}", p.name, p.value);
    }
}
