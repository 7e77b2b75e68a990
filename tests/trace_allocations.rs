//! The dynamic analysis allocates per distinct location, not per access.
//!
//! Work is counted as heap allocations — calls, not bytes, not time — with
//! a counting global allocator, so this file holds exactly one `#[test]`
//! (its own binary, no sibling test threads allocating alongside). A loop
//! trace is two vectors however many accesses it holds, and every reader
//! of it works on integers; a layer that goes back to one set, one
//! `DynLoc` or one cell name per access shows up here as twelve thousand
//! extra calls on `raytracer`.

mod common;

use common::{Counting, ALLOCATIONS};
use patty_workspace::analysis::SemanticModel;
use patty_workspace::corpus::raytracer_program;
use patty_workspace::minilang::{run, InterpOptions};
use patty_workspace::patterns::{detect_patterns, DetectOptions};
use patty_workspace::testgen::generate_unit_test;
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, value)
}

#[test]
fn dynamic_analysis_allocates_per_location_not_per_access() {
    let program = raytracer_program().parse();
    // What executing the program allocates with tracing off — objects,
    // lists, frames — is the program's own business, not the analysis's.
    let untraced = InterpOptions { trace_loops: false, ..InterpOptions::default() };
    let (executing, _) = allocations(|| run(&program, untraced).expect("raytracer runs"));
    // The same run traced: what recording and building the loop tables
    // allocate beyond that is a few growing vectors per run and per loop.
    let (traced, _) = allocations(|| run(&program, InterpOptions::default()).expect("raytracer runs"));
    let for_the_trace = traced.saturating_sub(executing);
    assert!(for_the_trace <= 300, "{for_the_trace} allocations beyond the {executing} of a plain run");

    let (analysing, (locations, accesses)) = allocations(|| {
        let model = SemanticModel::build(&program, InterpOptions::default()).expect("raytracer runs");
        let instances = detect_patterns(&model, &DetectOptions::default());
        assert_eq!(instances.len(), 3);
        for instance in &instances {
            generate_unit_test(&model, instance, 2).expect("the loop was traced");
        }
        let traces = &model.profile.as_ref().expect("a dynamic model").loop_traces;
        let locations: usize = traces.values().map(|t| t.locs().len()).sum();
        let accesses: usize = traces.values().map(|t| t.accesses().len()).sum();
        (locations, accesses)
    });
    assert!(accesses >= 12_000 && locations >= 5_000, "{accesses} accesses to {locations} locations");
    // Measured: 4 300 allocations executing, 4 555 traced (255 for the
    // trace) and 17 678 analysing (5 594 locations, 12 504 accesses) —
    // 13 378 for the analysis, pinned below at that plus 5 %. One call per
    // access would be 12 504 more, one per location 5 594 more; a trace of
    // nested sets that named every access took 235 574 analysing.
    let for_the_analysis = analysing.saturating_sub(executing);
    assert!(
        for_the_analysis <= 14_047,
        "{for_the_analysis} allocations beyond the {executing} of a plain run, for {locations} locations and {accesses} accesses"
    );
}
