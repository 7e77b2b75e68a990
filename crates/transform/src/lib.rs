//! # patty-transform
//!
//! Target pattern transformation — phase 2 of the Patty process model
//! (PMAM'15, Section 2.1, Fig. 1 steps 3–4):
//!
//! * [`annotate`] — inject TADL `#region` annotations at the detected
//!   locations (the Fig. 3b artifact) and read engineer-written
//!   annotations back (operation mode 2),
//! * [`codegen`] — produce the parallel plan and the parallel source
//!   artifact instantiating the runtime library (Fig. 3d),
//! * [`sim`] — a deterministic performance model of the generated code,
//!   used as the execute-and-measure step of the auto-tuning cycle
//!   (Fig. 4c) for minilang programs.

pub mod annotate;
pub mod codegen;
pub mod sim;

pub use annotate::{
    annotate_source, extract_annotations, instance_from_annotation, Annotation, Annotator,
};
pub use codegen::{expr_levels, generate_plan, ParallelPlan, PlanStage};
pub use sim::{
    simulate_doall, simulate_pipeline, DoallSimEvaluator, PipelineSimEvaluator, SimOutcome,
    SimParams,
};
