//! # patty-testgen
//!
//! Correctness-validation artifact generation (PMAM'15, Section 2.1):
//! parallel unit tests for each detected tunable parallel pattern, plus
//! path-coverage input generation for the sequential code under test.
//!
//! A generated [`ParallelUnitTest`] replays the dynamically observed
//! memory behaviour of a pattern instance under the pattern's parallel
//! discipline on the CHESS explorer (`patty-chess`): stages become
//! controlled threads, pipeline buffers become happens-before channels,
//! replicated stages become concurrent replicas. A correct (race-free)
//! detection yields a unit test that is clean under *all* interleavings;
//! an over-optimistic one is caught as a data race with a reproducing
//! schedule.

pub mod inputs;
pub mod unittest;

pub use inputs::{generate_test_inputs, path_coverage_inputs, CoverageReport};
pub use unittest::{
    fault_labels, generate_unit_test, replay_unit_test_hash, run_unit_test, run_unit_test_joint,
    Op, ParallelUnitTest, StagePlan,
};
