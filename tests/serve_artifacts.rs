//! The serve artifacts, pinned to a committed golden file.
//!
//! `patty serve` answers `analyze` with `analyze_artifact` and `tune` with
//! `tune_artifact` over `run_automatic`; the benchmark holds every
//! response against the same two functions, so a change to what they
//! compute would pass it. This records, under default options, the
//! length and FNV-1a of both artifacts' compact rendering for every
//! corpus program and `nbody` at ≈ ×1/×2/×4/×8 of its size. A change to
//! how the process computes them leaves this file's bytes alone.

mod common;

use patty_hash::fnv1a64;
use patty_workspace::corpus::all_programs;
use patty_workspace::patty::{analyze_artifact, tune_artifact, Patty};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/serve_artifacts.txt");

/// The 22 corpus programs, then `nbody` at ≈ ×1/×2/×4/×8 of its size.
fn programs() -> Vec<(String, String)> {
    let corpus = all_programs();
    let base = corpus.iter().find(|p| p.name == "nbody").expect("nbody is in the corpus").source;
    let mut all: Vec<(String, String)> =
        corpus.iter().map(|p| (p.name.to_string(), p.source.to_string())).collect();
    for scale in [1, 2, 4, 8] {
        all.push((format!("nbody_x{scale}"), common::scaled_source(base, scale, 22)));
    }
    all
}

#[test]
fn serve_artifacts_match_the_golden_file() {
    let patty = Patty::new();
    let mut actual = String::new();
    for (name, source) in programs() {
        let analyze = analyze_artifact(&patty, &source).expect("the program analyses").to_string();
        let run = patty.run_automatic(&source).expect("the program runs");
        let tune = tune_artifact(&patty, &run).to_string();
        writeln!(
            actual,
            "{name} analyze len={} fnv={:016x} tune len={} fnv={:016x}",
            analyze.len(),
            fnv1a64(analyze.as_bytes()),
            tune.len(),
            fnv1a64(tune.as_bytes())
        )
        .unwrap();
    }
    common::assert_matches_golden("serve_artifacts", &actual, GOLDEN);
}
