//! # patty-tool
//!
//! The Patty tool (PMAM'15, Section 3): the pattern-based parallelization
//! process model of Fig. 1 orchestrated end to end, with the paper's four
//! operation modes (requirement R3) and per-phase artifacts (requirement
//! R2). The IDE chrome of the original is replaced by a CLI and terminal
//! overlays (requirement R1's comprehensibility goals — process state,
//! reflected results, reproducibility — are preserved).
//!
//! ```
//! use patty_tool::Patty;
//!
//! let source = r#"
//!     class F { var g = 2; fn apply(x) { work(100); return x * this.g; } }
//!     fn main() {
//!         var f = new F();
//!         var out = [];
//!         foreach (x in range(0, 8)) {
//!             var a = f.apply(x);
//!             out.add(a);
//!         }
//!         print(len(out));
//!     }
//! "#;
//! let run = Patty::new().run_automatic(source).unwrap();
//! assert_eq!(run.artifacts.len(), 1);
//! assert!(run.artifacts[0].annotated_source.contains("#region TADL:"));
//! ```

pub mod chesscmd;
pub mod faultcheck;
pub mod overlay;
pub mod process;
pub mod servecmd;
pub mod statscmd;

pub use chesscmd::{chess_explore, chess_replay, render_replay, ChessReport};
pub use servecmd::{analyze_artifact, tune_artifact, tune_cached, PattyJobRunner};
pub use faultcheck::{faultcheck, FaultcheckReport, Outcome, Scenario};
pub use overlay::{render_candidates, render_overlay, render_process_chart, Phase};
pub use statscmd::stats_registry;
pub use process::{
    load_tuning, InstanceArtifacts, Patty, PattyError, PattyOptions, PattyRun,
};

/// Description of the four operation modes (Section 3, R3).
pub fn describe_modes() -> String {
    "\
Patty operation modes (R3 — flexible parallelization):

1. Automatic parallelization
   No user action required: model creation, pattern analysis, tunable
   architecture annotation and code transformation run end to end.
   (CLI: run any command on a plain source file.)

2. Architecture-based parallel programming
   Engineers who know where to parallelize write TADL annotations
   (#region TADL: (A || B || C+) => D => E) and bypass detection; Patty
   still generates the tuning configuration, the parallel code and the
   correctness tests from the annotation.
   (CLI: run any command on a file containing TADL regions.)

3. Library-based parallel programming
   Skilled engineers instantiate the parallel runtime library directly
   (patty-runtime: Pipeline, MasterWorker, ParallelFor) — the lowest
   abstraction level, no automatic assistance, but no manual thread
   synchronization either.

4. Program validation
   Repeated execution with varying tuning parameter values (auto-tuning)
   and systematic data race detection on the generated parallel unit
   tests; needs no source code insight.
   (CLI: `patty validate`, `patty tune`.)
"
    .to_string()
}
