//! The four-phase process model (Fig. 1) and the four operation modes
//! (Section 3, R3).
//!
//! Phases: **1. Model Creation** (semantic model from static + dynamic
//! analyses) → **2. Pattern Analysis** (source pattern detection, tuning
//! parameter derivation) → **3. Tunable Architecture** (TADL annotations
//! and architecture descriptions) → **4. Code Transform** (parallel plan,
//! tuning configuration file, parallel unit tests).
//!
//! Every phase's artifacts are exposed (requirement R2: "the necessity to
//! visualize the phase artifacts after each step"). [`Patty::run`] builds
//! what validation and tuning read — the model, the instances and per
//! instance the architecture, plan, tuning file and unit test. The two
//! artifacts nothing downstream reads are steps of their own, computed
//! when a caller steps to them: [`Patty::annotate`] (the TADL-annotated
//! source) and [`Patty::coverage_inputs`] (path-coverage input sets).

use patty_analysis::SemanticModel;
use patty_chess::{ChessOptions, Report, SearchMode};
use patty_minilang::{parse, InterpOptions, LangError};
use patty_patterns::{detect_patterns, DetectOptions, PatternInstance};
use patty_tadl::ArchitectureDescription;
use patty_testgen::{
    generate_test_inputs, generate_unit_test, run_unit_test, CoverageReport, ParallelUnitTest,
};
use patty_transform::{
    extract_annotations, generate_plan, instance_from_annotation, Annotator, ParallelPlan,
    PipelineSimEvaluator, SimParams,
};
use patty_telemetry::Telemetry;
use patty_trace::{Trace, TraceReport, Tracer};
use patty_tuning::{LinearSearch, TelemetryEvaluator, Tuner, TuningConfig, TuningResult};

/// Configuration of a Patty run.
#[derive(Clone, Debug)]
pub struct PattyOptions {
    pub interp: InterpOptions,
    pub detect: DetectOptions,
    pub sim: SimParams,
    /// Elements modeled per generated parallel unit test.
    pub unit_test_elements: usize,
    pub chess: ChessOptions,
    /// Evaluation budget of the auto-tuning cycle.
    pub tuning_budget: u32,
}

impl Default for PattyOptions {
    fn default() -> PattyOptions {
        PattyOptions {
            interp: InterpOptions::default(),
            detect: DetectOptions::default(),
            sim: SimParams::default(),
            unit_test_elements: 2,
            // DPOR prunes happens-before-equivalent interleavings, so the
            // default budget covers the same behaviours as a much larger
            // DFS budget; `patty chess --mode dfs` restores the oracle.
            chess: ChessOptions {
                max_schedules: 2_000,
                mode: SearchMode::Dpor,
                ..ChessOptions::default()
            },
            tuning_budget: 60,
        }
    }
}

/// Everything one detected instance produced in phases 3–4.
#[derive(Clone, Debug)]
pub struct InstanceArtifacts {
    /// The instance. Its `tuning` is the phase-4 tuning configuration
    /// file (Fig. 3c), rendered when asked for: `tuning.to_json()`.
    pub instance: PatternInstance,
    /// Phase-3 artifact: the architecture description (TADL interface).
    /// The annotated source (Fig. 3b) is [`Patty::annotate`]'s.
    pub arch: ArchitectureDescription,
    /// Phase-4 artifact: the parallel plan and source rendering (Fig. 3d).
    pub plan: ParallelPlan,
    /// Phase-4 artifact: the generated parallel unit test.
    pub unit_test: Option<ParallelUnitTest>,
}

/// The result of running the Patty process on a program.
#[derive(Debug)]
pub struct PattyRun {
    /// Phase-1 artifact: the semantic model.
    pub model: SemanticModel,
    /// Per-instance artifacts, best candidate first.
    pub artifacts: Vec<InstanceArtifacts>,
}

/// Errors of the Patty process.
#[derive(Debug)]
pub enum PattyError {
    Lang(LangError),
    Annotation(String),
    /// A generated plan failed while executing on the runtime library
    /// (config decode failure, worker panic, deadline, …).
    Runtime(String),
}

impl std::fmt::Display for PattyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PattyError::Lang(e) => write!(f, "{e}"),
            PattyError::Annotation(e) => write!(f, "annotation error: {e}"),
            PattyError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for PattyError {}

impl From<LangError> for PattyError {
    fn from(e: LangError) -> PattyError {
        PattyError::Lang(e)
    }
}

/// Whether `source` carries engineer-written TADL annotations, which
/// select operation mode 2.
pub fn is_annotated(source: &str) -> bool {
    source.contains("#region TADL:")
}

/// The Patty tool.
#[derive(Clone, Debug, Default)]
pub struct Patty {
    pub options: PattyOptions,
    /// Telemetry sink; disabled by default. When enabled, every process
    /// phase emits a `phase.*` span and the auto-tuning cycle logs each
    /// evaluated configuration.
    pub telemetry: Telemetry,
}

impl Patty {
    /// A tool instance with default options.
    pub fn new() -> Patty {
        Patty::default()
    }

    /// Attach a telemetry sink (see [`patty_telemetry::Telemetry`]).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Patty {
        self.telemetry = telemetry;
        self
    }

    /// Run the process in the mode `source` selects: TADL annotations make
    /// it mode 2, a plain file mode 1.
    pub fn run(&self, source: &str) -> Result<PattyRun, PattyError> {
        self.process(source, is_annotated(source))
    }

    /// **Operation mode 1 — automatic parallelization**: all four phases,
    /// no user action required.
    pub fn run_automatic(&self, source: &str) -> Result<PattyRun, PattyError> {
        self.process(source, false)
    }

    /// **Operation mode 2 — architecture-based parallel programming**:
    /// the engineer wrote TADL annotations; detection is bypassed and the
    /// annotations drive transformation (tuning and correctness artifacts
    /// are still generated automatically).
    pub fn run_annotated(&self, source: &str) -> Result<PattyRun, PattyError> {
        self.process(source, true)
    }

    /// The four phases, up to what validation and tuning read. The modes
    /// differ only in where the instances come from; the program is
    /// parsed once and run traced once for the model, and every instance
    /// borrows that model.
    fn process(&self, source: &str, annotated: bool) -> Result<PattyRun, PattyError> {
        let (model, instances) = self.telemetry.timed("phase.detect", || {
            let model = SemanticModel::from_program(parse(source)?, Some(self.options.interp.clone()))?;
            let instances = if annotated {
                extract_annotations(&model.program)
                    .map_err(PattyError::Annotation)?
                    .iter()
                    .map(|ann| instance_from_annotation(&model, ann))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(PattyError::Annotation)?
            } else {
                detect_patterns(&model, &self.options.detect)
            };
            Ok::<_, PattyError>((model, instances))
        })?;
        let artifacts = instances
            .into_iter()
            .map(|instance| self.transform_instance(&model, instance))
            .collect();
        Ok(PattyRun { model, artifacts })
    }

    /// Phase 4 for one instance.
    fn transform_instance(
        &self,
        model: &SemanticModel,
        instance: PatternInstance,
    ) -> InstanceArtifacts {
        let _span = self.telemetry.span("phase.transform");
        let body_cost = loop_body_cost(model, &instance);
        let plan = generate_plan(&instance, body_cost);
        let unit_test = generate_unit_test(model, &instance, self.options.unit_test_elements);
        InstanceArtifacts {
            arch: instance.arch.clone(),
            plan,
            unit_test,
            instance,
        }
    }

    /// **Phase 3, annotated source** (Fig. 3b): the program with each
    /// instance's TADL regions, one source per instance in `run`'s order.
    /// The program is printed once and every instance re-prints only the
    /// declaration that owns its loop. The re-parse that checks the result
    /// can fail: regions nest a loop at the parser's depth bound past it.
    pub fn annotate(&self, run: &PattyRun) -> Result<Vec<String>, PattyError> {
        // Printed inside the first instance's span: a program without
        // instances is never printed, and the span count stays one per
        // instance.
        let mut annotator = None;
        run.artifacts
            .iter()
            .map(|a| {
                self.telemetry.timed("phase.annotate", || {
                    if annotator.is_none() {
                        annotator = Some(Annotator::new(&run.model.program)?);
                    }
                    Ok(annotator.as_ref().expect("built above").annotate(&a.instance)?)
                })
            })
            .collect()
    }

    /// **Phase 4, unit-test inputs**: path-coverage input sets for every
    /// parameterized free function ("we perform a path coverage analysis
    /// to generate a set of input data for each unit test", Section 2.1),
    /// from one exec-mode compilation of the program.
    pub fn coverage_inputs(&self, run: &PattyRun) -> Vec<(String, CoverageReport)> {
        generate_test_inputs(&run.model.program)
    }

    /// **`patty profile`** — run the whole process with telemetry enabled
    /// (the on-request [`annotate`](Patty::annotate) and
    /// [`coverage_inputs`](Patty::coverage_inputs) steps included),
    /// execute every generated plan on the runtime library over its
    /// observed stream, and return the aggregated report: per-stage item
    /// counts, per-phase span timings and the auto-tuner's iteration log.
    /// Pipeline plans run with their stages bound to threads from the
    /// first batch (see `execute_plan`).
    pub fn profile(&self, source: &str) -> Result<patty_telemetry::TelemetryReport, PattyError> {
        let telemetry = Telemetry::enabled();
        // Pre-register the fault.* counter family: the report's schema
        // must not depend on whether any plan actually executed (a
        // program with no detected architectures still reports
        // `fault.panics_caught: 0`).
        patty_runtime::register_fault_counters(&telemetry);
        let patty = self.clone().with_telemetry(telemetry.clone());
        let run = patty.run(source)?;
        patty.annotate(&run)?;
        patty.coverage_inputs(&run);
        for a in &run.artifacts {
            execute_plan(a, &telemetry, &Tracer::disabled())?;
        }
        patty.validate_correctness(&run);
        patty.tune_performance(&run);
        // Executor introspection rides along in the same report: the
        // `executor.*` family is always registered (like `fault.*`), so
        // the schema is identical whether or not any plan ran on the
        // pool.
        patty_runtime::annotate_executor_telemetry(
            &telemetry,
            patty_runtime::Executor::global(),
        );
        Ok(telemetry.report())
    }

    /// **`patty trace`** — run the full process, execute every generated
    /// plan on the runtime library with structured tracing attached, and
    /// return the raw [`Trace`] (for the Chrome exporter) plus its
    /// aggregated [`TraceReport`] (for the summary/flame views). Pipeline
    /// plans run with their stages bound to threads from the first batch
    /// (see `execute_plan`).
    pub fn trace(&self, source: &str) -> Result<(Trace, TraceReport), PattyError> {
        let tracer = Tracer::enabled();
        let run = self.run(source)?;
        for a in &run.artifacts {
            execute_plan(a, &self.telemetry, &tracer)?;
        }
        let trace = tracer.snapshot();
        let report = TraceReport::from_trace(&trace);
        Ok((trace, report))
    }

    /// **Operation mode 4 — program validation**, correctness half:
    /// run the generated parallel unit tests on the CHESS explorer.
    pub fn validate_correctness(&self, run: &PattyRun) -> Vec<(String, Report)> {
        let _span = self.telemetry.span("phase.validate");
        run.artifacts
            .iter()
            .filter_map(|a| {
                let t = a.unit_test.as_ref()?;
                Some((a.arch.name.clone(), run_unit_test(t, self.options.chess.clone())))
            })
            .collect()
    }

    /// **Operation mode 4 — program validation**, performance half:
    /// the auto-tuning cycle (Fig. 4c) over the performance model, using
    /// the paper's linear per-dimension search.
    pub fn tune_performance(&self, run: &PattyRun) -> Vec<(String, TuningResult)> {
        let _span = self.telemetry.span("phase.tune");
        run.artifacts
            .iter()
            .filter(|a| a.arch.kind != patty_tadl::PatternKind::DataParallelLoop)
            .map(|a| {
                let mut evaluator = PipelineSimEvaluator {
                    plan: a.plan.clone(),
                    params: self.options.sim.clone(),
                };
                let mut evaluator =
                    TelemetryEvaluator::new(&mut evaluator, self.telemetry.clone());
                let mut tuner = LinearSearch::default();
                let result = tuner.tune(
                    a.instance.tuning.clone(),
                    &mut evaluator,
                    self.options.tuning_budget,
                );
                (a.arch.name.clone(), result)
            })
            .collect()
    }
}

/// Items profiled per plan: enough for stable per-stage counts, bounded
/// so `patty profile` stays interactive on long observed streams.
pub(crate) const PROFILE_STREAM_CAP: u64 = 256;

/// Execute one generated plan on the real runtime library with telemetry
/// attached, so the profile reports measured per-stage item counts rather
/// than model predictions. Stage bodies replay the profiled per-element
/// cost as busy work.
///
/// Runs through the checked entry points under
/// [`FailurePolicy::FallbackSequential`](patty_runtime::FailurePolicy)
/// with a guard deadline, so a faulty plan degrades or reports a
/// [`PattyError::Runtime`] instead of unwinding through the CLI — and so
/// the profile report always carries the `fault.*` counter family.
///
/// The deadline forces a pipeline plan's stages onto threads from its
/// first batch, as only the threaded collector sees a deadline pass while
/// a stage body runs. So the stage lanes that `patty profile`, `trace`
/// and `stats` show are always the threaded binding, even for a plan of
/// cheap stages that a run without a deadline keeps in place.
pub(crate) fn execute_plan(
    artifacts: &InstanceArtifacts,
    telemetry: &patty_telemetry::Telemetry,
    tracer: &Tracer,
) -> Result<(), PattyError> {
    use patty_runtime::{
        FailurePolicy, LoopTuning, MasterWorker, PipelineTuning, RunOptions, Stage,
    };
    let plan = &artifacts.plan;
    let n = plan.stream_length.clamp(1, PROFILE_STREAM_CAP);
    let opts = RunOptions::new()
        .on_failure(FailurePolicy::FallbackSequential)
        .with_deadline(std::time::Duration::from_secs(30));
    let busy = |cost: u64, x: u64| -> u64 {
        let mut acc = x;
        for i in 0..cost.min(512) {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
        }
        acc
    };
    match plan.kind {
        patty_tadl::PatternKind::DataParallelLoop => {
            let tuning = LoopTuning::from_config(&artifacts.instance.tuning)
                .map_err(PattyError::Runtime)?;
            let cost = plan.element_cost;
            let pf = tuning
                .build()
                .with_telemetry(telemetry.clone())
                .with_tracer(tracer.clone());
            pf.for_each_checked(
                n as usize,
                |i| {
                    std::hint::black_box(busy(cost, i as u64));
                },
                &opts,
            )
            .map_err(|e| PattyError::Runtime(e.to_string()))?;
        }
        patty_tadl::PatternKind::MasterWorker => {
            let tuning = LoopTuning::from_config(&artifacts.instance.tuning)
                .map_err(PattyError::Runtime)?;
            let cost = plan.element_cost;
            let mw = MasterWorker::new(tuning.workers)
                .sequential(tuning.sequential)
                .with_telemetry(telemetry.clone())
                .with_tracer(tracer.clone());
            mw.run_checked((0..n).collect(), |x| busy(cost, x), &opts)
                .map_err(|e| PattyError::Runtime(e.to_string()))?;
        }
        patty_tadl::PatternKind::Pipeline => {
            let stages: Vec<Stage<u64>> = plan
                .stages
                .iter()
                .map(|ps| {
                    let cost = ps.cost_per_element;
                    Stage::new(ps.name.clone(), move |x: u64| busy(cost, x))
                })
                .collect();
            let tuning = PipelineTuning::from_config(&artifacts.instance.tuning)
                .map_err(PattyError::Runtime)?;
            let pipeline = tuning
                .build_pipeline(stages)
                .with_telemetry(telemetry.clone())
                .with_tracer(tracer.clone());
            pipeline
                .run_checked((0..n).collect(), &opts)
                .map_err(|e| PattyError::Runtime(e.to_string()))?;
        }
    }
    Ok(())
}

/// Per-element virtual cost of the instance's loop body.
fn loop_body_cost(model: &SemanticModel, instance: &PatternInstance) -> u64 {
    let Some(profile) = &model.profile else { return 1 };
    let Some(trace) = profile.loop_traces.get(&instance.loop_id) else { return 1 };
    let total: u64 = trace.stmt_cost.values().sum();
    (total / trace.iterations.max(1)).max(1)
}

/// Load a tuning configuration back from its JSON artifact (the
/// "no recompilation" loop of Section 2.1).
pub fn load_tuning(json: &str) -> Result<TuningConfig, String> {
    TuningConfig::from_json(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use patty_corpus::{avistream_program, raytracer_program};
    use patty_tadl::PatternKind;

    #[test]
    fn automatic_mode_produces_all_artifacts_for_avistream() {
        let patty = Patty::new();
        let run = patty.run_automatic(avistream_program().source).unwrap();
        assert_eq!(run.artifacts.len(), 1);
        let a = &run.artifacts[0];
        assert_eq!(a.arch.kind, PatternKind::Pipeline);
        assert!(patty.annotate(&run).unwrap()[0].contains("#region TADL:"));
        assert!(a.instance.tuning.to_json().contains("StageReplication"));
        assert!(a.plan.code.contains("build_pipeline"));
        assert!(a.unit_test.is_some());
    }

    /// `shape(n)` at the largest `n` the parser accepts.
    fn deepest(shape: impl Fn(usize) -> String) -> String {
        let mut n = 1;
        while parse(&shape(n + 1)).is_ok() {
            n += 1;
        }
        let refused = parse(&shape(n + 1)).unwrap_err();
        assert!(refused.message.starts_with("nesting deeper than"), "{refused}");
        shape(n)
    }

    #[test]
    fn programs_at_the_depth_bound_run_every_pass_on_a_small_stack() {
        // A pipeline whose first stage calls `deep`, so detection,
        // annotation, unit-test and path-coverage generation all walk it.
        let program = |deep: &str| {
            format!(
                "class F {{ var g = 2; fn apply(x) {{ work(150); return x * this.g; }} }}
fn id(x) {{ return x; }}
fn deep(x) {{
{deep}
    return x;
}}
fn main() {{
    var f = new F();
    var out = [];
    foreach (x in range(0, 8)) {{
        var a = f.apply(deep(x));
        out.add(a);
    }}
    print(len(out));
}}"
            )
        };
        let value = |open: &str, close: &str, n: usize| {
            program(&format!("    x = {}x{};", open.repeat(n), close.repeat(n)))
        };
        let expressions = [
            deepest(|n| value("(", ")", n)),
            deepest(|n| value("x * (", ")", n)),
            deepest(|n| value("-(", ")", n)),
            deepest(|n| value("id(", ")", n)),
            deepest(|n| value("len([", "])", n)),
            deepest(|n| program(&format!("    x = x{};", " + 0".repeat(n)))),
            deepest(|n| program(&format!("{}x = x + 1;{}", "if (x < 5) { ".repeat(n), " }".repeat(n)))),
        ];
        let loops = deepest(|n| {
            program(&format!("{}x = x + 1;{}", "foreach (i in range(0, 1)) { ".repeat(n), " }".repeat(n)))
        });
        let on_a_small_stack = |source: String| {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || {
                    let patty = Patty::new();
                    let run = patty.run(&source)?;
                    patty.annotate(&run)?;
                    patty.coverage_inputs(&run);
                    Ok::<_, PattyError>(run.artifacts.len())
                })
                .unwrap()
                .join()
                .expect("no stack overflow")
        };
        for source in expressions {
            assert!(matches!(on_a_small_stack(source), Ok(1..)));
        }
        // A loop detected at the bound is annotated inside regions of its
        // own, which nest it past the bound: annotation stops with the
        // parser's error.
        match on_a_small_stack(loops) {
            Err(PattyError::Lang(e)) => assert!(e.message.starts_with("nesting deeper than"), "{e}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn raytracer_automatic_finds_three_locations() {
        let patty = Patty::new();
        let run = patty.run_automatic(raytracer_program().source).unwrap();
        assert_eq!(run.artifacts.len(), 3, "Section 4.2: Patty finds 3.0 of 3 locations");
    }

    #[test]
    fn validation_passes_for_correct_detection() {
        let patty = Patty::new();
        let run = patty.run_automatic(avistream_program().source).unwrap();
        let reports = patty.validate_correctness(&run);
        assert_eq!(reports.len(), 1);
        let (_, report) = &reports[0];
        assert!(
            !report
                .failures
                .iter()
                .any(|f| matches!(f.kind, patty_chess::FailureKind::Race { .. })),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn tuning_cycle_improves_the_pipeline() {
        let patty = Patty::new();
        let run = patty.run_automatic(avistream_program().source).unwrap();
        let results = patty.tune_performance(&run);
        assert_eq!(results.len(), 1);
        let (_, r) = &results[0];
        // the tuned configuration must beat the untuned default
        let first = r.history.first().unwrap().1;
        assert!(r.best_score < first, "tuning must improve: {} -> {}", first, r.best_score);
        assert!(r.evaluations > 5);
    }

    #[test]
    fn mode2_annotated_source_runs_end_to_end() {
        let src = r#"
            class F { var g = 2; fn apply(x) { work(120); return x * this.g; } }
            fn main() {
                var f = new F();
                var out = [];
                #region TADL: A+ => B
                foreach (x in range(0, 6)) {
                    #region A:
                    var v = f.apply(x);
                    #endregion
                    #region B:
                    out.add(v);
                    #endregion
                }
                #endregion
                print(len(out));
            }
        "#;
        let patty = Patty::new();
        let run = patty.run_annotated(src).unwrap();
        assert_eq!(run.artifacts.len(), 1);
        assert_eq!(run.artifacts[0].arch.expr.to_string(), "A+ => B");
        assert!(run.artifacts[0].unit_test.is_some());
    }

    #[test]
    fn coverage_inputs_generated_for_parameterized_functions() {
        let patty = Patty::new();
        let run = patty.run_automatic(raytracer_program().source).unwrap();
        // the ray tracer has the free function pickBetter(best, t, color)
        let inputs = patty.coverage_inputs(&run);
        let (name, report) = inputs
            .iter()
            .find(|(n, _)| n == "pickBetter")
            .expect("inputs for pickBetter");
        assert_eq!(name, "pickBetter");
        assert!(!report.inputs.is_empty());
        assert!(report.covered > 0);
        assert!(report.covered <= report.total);
    }

    #[test]
    fn tuning_json_round_trips() {
        let patty = Patty::new();
        let run = patty.run_automatic(avistream_program().source).unwrap();
        let cfg = load_tuning(&run.artifacts[0].instance.tuning.to_json()).unwrap();
        assert_eq!(cfg, run.artifacts[0].instance.tuning);
    }

    #[test]
    fn parse_errors_surface() {
        let patty = Patty::new();
        assert!(matches!(
            patty.run_automatic("fn main() { let oops"),
            Err(PattyError::Lang(_))
        ));
    }
}
