//! # patty-runtime
//!
//! The tunable parallel pattern runtime library (PMAM'15, Sections 2.1–2.2
//! and Fig. 3d). The paper implements its own runtime "for the purpose of
//! standardization … that contains data types for parallel patterns and
//! that is capable of handling tuning parameters"; this crate is that
//! library in Rust:
//!
//! * [`Pipeline`] — stage-binding software pipeline with bounded buffers
//!   and the PLTP tuning parameters (StageReplication, OrderPreservation,
//!   StageFusion, SequentialExecution),
//! * [`MasterWorker`] — work distribution with ordered result collection
//!   and heterogeneous `join_all` groups,
//! * [`ParallelFor`] — chunked data-parallel loops with privatized
//!   reductions,
//! * [`PipelineTuning`] / [`LoopTuning`] — initialization from the JSON
//!   tuning configuration file, so applications re-tune without
//!   recompilation,
//! * [`fault`] — panic isolation, cooperative cancellation, deadlines and
//!   sequential fallback for all three patterns: the `run_checked` entry
//!   points return structured [`RuntimeError`]s instead of poisoning
//!   channels or unwinding through the caller.
//!
//! ```
//! use patty_runtime::{Pipeline, Stage};
//!
//! let pipeline = Pipeline::new(vec![
//!     Stage::new("crop", |x: i64| x * 2).replicated(3),
//!     Stage::new("emit", |x: i64| x + 1),
//! ]);
//! let out = pipeline.run((0..10).collect());
//! assert_eq!(out, (0..10).map(|x| x * 2 + 1).collect::<Vec<_>>());
//! ```

pub mod config;
pub mod executor;
pub mod fault;
mod heartbeat;
pub mod masterworker;
pub mod parfor;
pub mod pipeline;

pub use config::{LoopTuning, PipelineTuning};
pub use executor::{
    annotate_executor_telemetry, Executor, ExecutorStats, LaneSnapshot, SpawnMode,
};
pub use fault::{register_fault_counters, CancelToken, FailurePolicy, RunOptions, RuntimeError};
pub use masterworker::{Item, MasterWorker};
pub use parfor::ParallelFor;
pub use pipeline::{Pipeline, Stage};
