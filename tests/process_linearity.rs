//! The process model does O(program) work per program.
//!
//! Work is counted as heap bytes allocated — not time, not RSS — with a
//! counting global allocator, so this file holds exactly one `#[test]`
//! (its own binary, no sibling test threads allocating alongside).
//! Compiling, printing, parsing and cloning all allocate in proportion to
//! what they touch, so a layer that repeats whole-program work per
//! function or per instance shows up as bytes per source byte that grow
//! with the source.

mod common;

use common::{Counting, ALLOCATED_BYTES};
use patty_workspace::corpus::all_programs;
use patty_workspace::patty::Patty;
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes the whole process — `run_automatic`, then its two on-request
/// steps, `annotate` and `coverage_inputs` — allocates per byte of
/// `source`.
fn allocated_per_source_byte(patty: &Patty, source: &str) -> f64 {
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let run = patty.run_automatic(source).expect("the program runs");
    let annotated = patty.annotate(&run).expect("the program annotates");
    let inputs = patty.coverage_inputs(&run);
    let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    assert!(!annotated.is_empty() && !inputs.is_empty(), "every phase ran");
    allocated as f64 / source.len() as f64
}

#[test]
fn run_automatic_allocates_in_proportion_to_the_source() {
    let base = all_programs()
        .into_iter()
        .find(|p| p.name == "nbody")
        .expect("nbody is in the corpus")
        .source;
    let x1 = common::scaled_source(base, 1, 22);
    let x8 = common::scaled_source(base, 8, 22);
    assert!(x8.len() >= 8 * x1.len());
    let patty = Patty::new();
    allocated_per_source_byte(&patty, &x1); // lazy one-time set-up is not per-program work
    let per_byte_x1 = allocated_per_source_byte(&patty, &x1);
    let per_byte_x8 = allocated_per_source_byte(&patty, &x8);
    // Measured (bytes allocated per source byte, x1 → x8): 2 878 → 2 391,
    // ratio 0.83, with one compiled and one printed program per run; 15 956
    // → 21 356, ratio 1.34, when every coverage candidate compiled the
    // program and every instance cloned, printed and parsed it. The x1
    // program's one three-parameter function (216 candidates) carries a
    // fixed cost that x8 dilutes, so linear work reads below 1.
    assert!(
        per_byte_x8 <= per_byte_x1,
        "x8 allocates {per_byte_x8:.0} bytes per source byte, x1 {per_byte_x1:.0}"
    );
}
