//! # patty-chess
//!
//! A CHESS-style systematic concurrency tester (Musuvathi et al., OSDI'08
//! — reference \[24\] of the Patty paper) used by Patty's correctness
//! validation phase: generated parallel unit tests are driven through
//! *all* thread interleavings, with a vector-clock happens-before
//! detector reporting data races even on schedules where nothing visibly
//! breaks.
//!
//! Exploration runs on a **cooperative virtual-time scheduler** — no OS
//! threads, every `Shared`/`CMutex`/`CChannel` operation is a
//! deterministic yield point, blocking is a virtual-time event — so
//! every schedule gets a stable `sched_trace_hash` and replays
//! byte-stably. Two search modes share the scheduler: stateless DFS with
//! iterative preemption bounding (the differential oracle) and dynamic
//! partial-order reduction ([`explore_dpor`]): same failure set,
//! strictly fewer schedules. The joint explorer ([`explore_joint`])
//! drives schedules × injected faults ([`FaultScenario`]) in one search.
//!
//! A test is a closure from a [`ThreadCtx`] to an `async` block —
//! `|ctx| async move { … .await }` — that spawns controlled tasks of the
//! same shape and touches [`Shared`] cells / [`CMutex`] mutexes /
//! [`CChannel`] channels. Every such operation is an `async fn`: its
//! `.await` is the deterministic scheduling point where the task parks
//! until the scheduler grants it a step (tasks are polled futures, see
//! [`sched`]). Bodies must be deterministic between yield points and must
//! not hold a `RefCell` borrow of their own across an `.await`.
//!
//! ```
//! use patty_chess::{explore, ChessOptions, FailureKind};
//!
//! let report = explore(
//!     |ctx| async move {
//!         let x = ctx.shared("x", 0i64);
//!         let xc = x.clone();
//!         let t = ctx
//!             .spawn(move |ctx| async move {
//!                 let v = xc.read(&ctx).await;
//!                 xc.write(&ctx, v + 1).await;
//!             })
//!             .await;
//!         let v = x.read(&ctx).await; // races with the spawned task
//!         x.write(&ctx, v + 1).await;
//!         ctx.join(t).await;
//!     },
//!     ChessOptions::default(),
//! );
//! assert!(report.failures.iter().any(|f| matches!(f.kind, FailureKind::Race { .. })));
//! ```

pub mod clock;
pub mod corpus;
pub mod dpor;
pub mod explore;
pub mod joint;
pub mod sched;

pub use clock::VectorClock;
pub use dpor::explore_dpor;
pub use explore::{
    explore, explore_iterative, explore_random, replay, ChessOptions, Report, SearchMode,
};
pub use joint::{explore_joint, replay_hash, JointReport, ReplayOutcome, ScenarioReport};
pub use sched::{
    CChannel, CMutex, Failure, FailureKind, FaultPoint, FaultScenario, Inject, InjectKind,
    JoinHandle, Shared, TaskFuture, ThreadCtx,
};
