//! # patty-faultsim
//!
//! A deterministic fault-injection harness for the `patty-runtime`
//! fault-tolerance layer. The paper validates every transformation
//! against the sequential original (Section 3.4); this crate extends
//! that discipline to the *failure* paths: a [`FaultPlan`] plants
//! precisely-placed faults — "panic on the 3rd item entering `blur`" —
//! into stage functions, and tests assert that the runtime either
//! reports a structured [`RuntimeError`](patty_runtime::RuntimeError)
//! or (under [`FallbackSequential`](patty_runtime::FailurePolicy))
//! produces output byte-identical to the sequential oracle.
//!
//! Faults are **transient by construction**: each spec fires exactly
//! once, modelling the crash-once faults the sequential fallback is
//! designed to absorb. A plan is cheaply cloneable and thread-safe, so
//! one plan can instrument every stage of a pipeline and be inspected
//! after the run ([`FaultPlan::injections`], [`FaultPlan::calls`]).
//!
//! ```
//! use patty_faultsim::FaultPlan;
//! use patty_runtime::{FailurePolicy, Pipeline, RunOptions, Stage};
//!
//! let plan = FaultPlan::new().panic_at("double", 3);
//! let pipeline = Pipeline::new(vec![
//!     plan.wrap_stage(Stage::new("double", |x: u64| x * 2)),
//!     plan.wrap_stage(Stage::new("inc", |x: u64| x + 1)),
//! ]);
//! let opts = RunOptions::new().on_failure(FailurePolicy::FallbackSequential);
//! let out = pipeline.run_checked((0..16).collect(), &opts).unwrap();
//! assert_eq!(out, (0..16).map(|x| x * 2 + 1).collect::<Vec<u64>>());
//! assert_eq!(plan.injections(), 1);
//! ```

use parking_lot::Mutex;
use patty_runtime::Stage;
use rand::{Rng, SeedableRng, StdRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What an armed fault does when its call arrives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a `faultsim:`-prefixed `String` payload; the runtime
    /// converts it to `RuntimeError::StagePanicked`.
    Panic,
    /// Sleep before running the stage body — exercises stage and run
    /// deadlines without failing the item.
    Delay(Duration),
    /// "Lose" the item. A `Fn(T) -> T` stage cannot literally drop its
    /// input, so the loss is modelled as a panic with a distinguishable
    /// `faultsim: dropped item` payload: from the runtime's point of
    /// view a lost item and a crashed worker need the same recovery.
    DropItem,
}

/// One planted fault: fires on the `nth` call (0-based) routed to
/// `stage`, exactly once per plan lifetime.
#[derive(Debug)]
struct FaultSpec {
    stage: String,
    nth: u64,
    kind: FaultKind,
    fired: AtomicBool,
}

#[derive(Default)]
struct PlanInner {
    specs: Mutex<Vec<Arc<FaultSpec>>>,
    /// Per-stage invocation counters (shared by replicas of a stage).
    calls: Mutex<HashMap<String, Arc<AtomicU64>>>,
    injections: AtomicU64,
}

impl PlanInner {
    fn counter(&self, stage: &str) -> Arc<AtomicU64> {
        self.calls
            .lock()
            .entry(stage.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone()
    }

    /// Fire at most one armed spec matching (stage, call_index).
    fn fire(&self, stage: &str, call_index: u64) {
        let armed = self.specs.lock().iter().find_map(|spec| {
            (spec.stage == stage
                && spec.nth == call_index
                && !spec.fired.swap(true, Ordering::SeqCst))
            .then(|| spec.clone())
        });
        let Some(spec) = armed else { return };
        self.injections.fetch_add(1, Ordering::SeqCst);
        match &spec.kind {
            FaultKind::Panic => {
                panic!("faultsim: injected panic at `{stage}` call {call_index}")
            }
            FaultKind::Delay(d) => std::thread::sleep(*d),
            FaultKind::DropItem => {
                panic!("faultsim: dropped item at `{stage}` call {call_index}")
            }
        }
    }
}

/// A deterministic set of planted faults. Clones share state: wrap
/// stages with one clone, assert on another.
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl FaultPlan {
    /// An empty plan (wrapping with it only counts calls).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    fn push(self, stage: impl Into<String>, nth: u64, kind: FaultKind) -> FaultPlan {
        self.inner.specs.lock().push(Arc::new(FaultSpec {
            stage: stage.into(),
            nth,
            kind,
            fired: AtomicBool::new(false),
        }));
        self
    }

    /// Panic on the `nth` (0-based) call routed to `stage`.
    pub fn panic_at(self, stage: impl Into<String>, nth: u64) -> FaultPlan {
        self.push(stage, nth, FaultKind::Panic)
    }

    /// Sleep `delay` before the `nth` call to `stage` runs.
    pub fn delay(self, stage: impl Into<String>, nth: u64, delay: Duration) -> FaultPlan {
        self.push(stage, nth, FaultKind::Delay(delay))
    }

    /// Lose the item on the `nth` call to `stage` (modelled as a panic
    /// with a `faultsim: dropped item` payload).
    pub fn drop_item(self, stage: impl Into<String>, nth: u64) -> FaultPlan {
        self.push(stage, nth, FaultKind::DropItem)
    }

    /// A reproducible randomized plan: `faults` panic faults spread over
    /// `stages`, each at a call index below `calls_per_stage`. The same
    /// `seed` always yields the same plan — the property a fault matrix
    /// in CI depends on.
    pub fn seeded(seed: u64, stages: &[&str], calls_per_stage: u64, faults: usize) -> FaultPlan {
        assert!(!stages.is_empty(), "seeded plan needs at least one stage");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..faults {
            let stage = stages[rng.gen_range(0..stages.len())];
            let nth = rng.gen_range(0..calls_per_stage.max(1));
            plan = plan.panic_at(stage, nth);
        }
        plan
    }

    /// Wrap a pipeline stage so its body consults this plan on every
    /// call. The stage keeps its name, replication and ordering flags;
    /// replicas share one call counter, so `nth` counts items entering
    /// the *stage*, not a particular replica.
    pub fn wrap_stage<T: 'static>(&self, stage: Stage<T>) -> Stage<T> {
        let inner = self.inner.clone();
        let name = stage.name.clone();
        let counter = inner.counter(&name);
        let body = stage.func.clone();
        let mut wrapped = Stage::new(name.clone(), move |item: T| {
            let call = counter.fetch_add(1, Ordering::SeqCst);
            inner.fire(&name, call);
            body(item)
        });
        wrapped.replication = stage.replication;
        wrapped.preserve_order = stage.preserve_order;
        wrapped
    }

    /// Instrument an arbitrary task body (MasterWorker tasks, ParallelFor
    /// bodies) under a stage label of the caller's choosing.
    pub fn instrument<I, O, F>(&self, label: impl Into<String>, f: F) -> impl Fn(I) -> O
    where
        F: Fn(I) -> O,
    {
        let inner = self.inner.clone();
        let label = label.into();
        let counter = inner.counter(&label);
        move |input: I| {
            let call = counter.fetch_add(1, Ordering::SeqCst);
            inner.fire(&label, call);
            f(input)
        }
    }

    /// How many faults have fired so far.
    pub fn injections(&self) -> u64 {
        self.inner.injections.load(Ordering::SeqCst)
    }

    /// How many calls reached `stage` so far (0 for unknown stages).
    pub fn calls(&self, stage: &str) -> u64 {
        self.inner
            .calls
            .lock()
            .get(stage)
            .map_or(0, |c| c.load(Ordering::SeqCst))
    }

}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("specs", &*self.inner.specs.lock())
            .field("injections", &self.injections())
            .finish()
    }
}

/// Bridge into the chess joint schedule×fault explorer: faultsim's
/// wall-clock fault matrix expressed as virtual-time
/// [`patty_chess::FaultScenario`]s.
pub mod chess {
    use patty_chess::{FaultScenario, InjectKind};

    /// The joint scenario matrix for a set of stage labels: the no-fault
    /// scenario plus every (stage × position × kind) single-fault
    /// combination. `positions` follows faultcheck's convention
    /// (first/middle/last call indices, deduplicated).
    pub fn scenario_matrix(labels: &[String], positions: &[u64]) -> Vec<FaultScenario> {
        let mut dedup: Vec<u64> = Vec::new();
        for &p in positions {
            if !dedup.contains(&p) {
                dedup.push(p);
            }
        }
        let mut scenarios = vec![FaultScenario::none()];
        for label in labels {
            for &nth in &dedup {
                for kind in
                    [InjectKind::Panic, InjectKind::DelayTicks(50), InjectKind::DropItem]
                {
                    scenarios.push(FaultScenario::one(label.clone(), nth, kind));
                }
            }
        }
        scenarios
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_runtime::{
        FailurePolicy, MasterWorker, ParallelFor, Pipeline, RunOptions, RuntimeError,
    };

    const FRAMES: u64 = 24;

    /// An avistream-shaped video pipeline: three filters and a
    /// converter over synthetic frame checksums, mirroring
    /// `examples/avistream.mini`.
    fn video_stages() -> Vec<Stage<u64>> {
        vec![
            Stage::new("grayscale", |x: u64| x.wrapping_mul(2654435761).rotate_left(7)),
            Stage::new("blur", |x: u64| x ^ (x >> 13)).replicated(3),
            Stage::new("sharpen", |x: u64| x.wrapping_add(0x9E3779B97F4A7C15)),
            Stage::new("convert", |x: u64| x.rotate_right(11) | 1),
        ]
    }

    fn oracle() -> Vec<u64> {
        let sequential: Vec<Stage<u64>> = video_stages();
        (0..FRAMES)
            .map(|x| sequential.iter().fold(x, |v, s| (s.func)(v)))
            .collect()
    }

    fn wrapped_pipeline(plan: &FaultPlan) -> Pipeline<u64> {
        Pipeline::new(video_stages().into_iter().map(|s| plan.wrap_stage(s)).collect())
    }

    fn fallback_opts() -> RunOptions {
        RunOptions::new().on_failure(FailurePolicy::FallbackSequential)
    }

    /// The acceptance matrix: a panic injected into every stage of the
    /// avistream pipeline, at the first, a middle, and the last item —
    /// 12 scenarios — must each recover through sequential fallback to
    /// output identical to the sequential oracle.
    #[test]
    fn panic_matrix_every_stage_every_position_recovers_to_oracle() {
        let expected = oracle();
        let stages = ["grayscale", "blur", "sharpen", "convert"];
        let positions = [0, FRAMES / 2, FRAMES - 1];
        let mut scenarios = 0;
        for stage in stages {
            for nth in positions {
                let plan = FaultPlan::new().panic_at(stage, nth);
                let pipeline = wrapped_pipeline(&plan);
                let out = pipeline
                    .run_checked((0..FRAMES).collect(), &fallback_opts())
                    .unwrap_or_else(|e| panic!("{stage}@{nth}: unexpected error {e}"));
                assert_eq!(out, expected, "{stage}@{nth}: output diverged from oracle");
                assert_eq!(plan.injections(), 1, "{stage}@{nth}: fault did not fire once");
                scenarios += 1;
            }
        }
        assert!(scenarios >= 9, "matrix shrank below the acceptance floor");
    }

    /// Fail-fast: the same injection points yield structured errors
    /// naming the faulted stage when no fallback is requested.
    #[test]
    fn panic_matrix_fail_fast_reports_the_faulted_stage() {
        for stage in ["grayscale", "blur", "sharpen", "convert"] {
            let plan = FaultPlan::new().panic_at(stage, 5);
            let pipeline = wrapped_pipeline(&plan);
            let err = pipeline
                .run_checked((0..FRAMES).collect(), &RunOptions::default())
                .unwrap_err();
            match err {
                RuntimeError::StagePanicked { stage: reported, payload, .. } => {
                    assert_eq!(reported, stage);
                    assert!(payload.starts_with("faultsim: injected panic"));
                }
                other => panic!("expected StagePanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn drop_item_is_recovered_like_a_crash() {
        let plan = FaultPlan::new().drop_item("blur", 7);
        let pipeline = wrapped_pipeline(&plan);
        let out = pipeline.run_checked((0..FRAMES).collect(), &fallback_opts()).unwrap();
        assert_eq!(out, oracle());
        assert_eq!(plan.injections(), 1);
    }

    #[test]
    fn drop_item_payload_is_distinguishable() {
        let plan = FaultPlan::new().drop_item("sharpen", 2);
        let pipeline = wrapped_pipeline(&plan);
        let err =
            pipeline.run_checked((0..FRAMES).collect(), &RunOptions::default()).unwrap_err();
        match err {
            RuntimeError::StagePanicked { payload, .. } => {
                assert!(payload.starts_with("faultsim: dropped item"), "payload: {payload}");
            }
            other => panic!("expected StagePanicked, got {other:?}"),
        }
    }

    #[test]
    fn delay_trips_the_stage_deadline_but_not_correctness() {
        let plan = || FaultPlan::new().delay("convert", 3, Duration::from_millis(30));
        let pipeline = wrapped_pipeline(&plan());
        // Without a deadline the delay is invisible.
        let out = pipeline.run_checked((0..FRAMES).collect(), &RunOptions::default()).unwrap();
        assert_eq!(out, oracle());
        // With a tight per-stage deadline the delayed call is flagged —
        // and because the fault is one-shot, fallback still completes.
        let pipeline = wrapped_pipeline(&plan());
        let opts = fallback_opts().with_stage_deadline(Duration::from_millis(10));
        let out = pipeline.run_checked((0..FRAMES).collect(), &opts).unwrap();
        assert_eq!(out, oracle());
    }

    #[test]
    fn faults_fire_exactly_once_even_across_reruns() {
        let plan = FaultPlan::new().panic_at("grayscale", 0);
        let pipeline = wrapped_pipeline(&plan);
        let first = pipeline.run_checked((0..FRAMES).collect(), &fallback_opts()).unwrap();
        assert_eq!(plan.injections(), 1);
        // Second run through the same wrapped pipeline: fault spent.
        let second = pipeline.run_checked((0..FRAMES).collect(), &fallback_opts()).unwrap();
        assert_eq!(first, second);
        assert_eq!(plan.injections(), 1);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let stages = ["grayscale", "blur", "sharpen", "convert"];
        let a = FaultPlan::seeded(42, &stages, FRAMES, 3);
        let b = FaultPlan::seeded(42, &stages, FRAMES, 3);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = FaultPlan::seeded(43, &stages, FRAMES, 3);
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "different seeds, same plan");
        // A single-fault seeded plan recovers like a hand-written one.
        // (Multi-fault plans may legitimately fail: a second fault firing
        // during the fallback pass reads as a persistent panic.)
        let single = FaultPlan::seeded(42, &stages, FRAMES, 1);
        let pipeline = wrapped_pipeline(&single);
        let out = pipeline.run_checked((0..FRAMES).collect(), &fallback_opts()).unwrap();
        assert_eq!(out, oracle());
        assert_eq!(single.injections(), 1);
    }

    #[test]
    fn instrument_reaches_masterworker_and_parfor() {
        let plan = FaultPlan::new().panic_at("task", 4);
        let task = plan.instrument("task", |x: u64| x * 10);
        let mw = MasterWorker::new(4);
        let opts = fallback_opts();
        let out = mw.run_checked((0..20u64).collect(), &task, &opts).unwrap();
        assert_eq!(out, (0..20u64).map(|x| x * 10).collect::<Vec<_>>());
        assert_eq!(plan.injections(), 1);

        let plan = FaultPlan::new().panic_at("loop", 9);
        let body = plan.instrument("loop", |i: usize| i + 1);
        let pf = ParallelFor::new(4).with_chunk(3);
        let out = pf.map_checked(40, body, &fallback_opts()).unwrap();
        assert_eq!(out, (1..=40).collect::<Vec<_>>());
        assert_eq!(plan.injections(), 1);
    }

    #[test]
    fn call_accounting_spans_replicas() {
        let plan = FaultPlan::new();
        let pipeline = wrapped_pipeline(&plan);
        pipeline.run_checked((0..FRAMES).collect(), &RunOptions::default()).unwrap();
        for stage in ["grayscale", "blur", "sharpen", "convert"] {
            assert_eq!(plan.calls(stage), FRAMES, "stage {stage} call count");
        }
        assert_eq!(plan.calls("nonexistent"), 0);
        assert_eq!(plan.injections(), 0);
    }
}
