//! `process_corpus`: the paper's whole process, source → model → detect →
//! transform → chess → tune, one op per corpus program.
//!
//! patty-chess keeps ~12 KB per explored schedule for the life of the
//! process, and every layer slows down once the heap has grown by a few
//! hundred MB. A loop over the corpus inside one process therefore
//! measures how long that process has lived. The parent runs short-lived
//! children of this same binary one after another instead, the way the
//! CLI is used: each child does one untimed pass and `TIMED_PASSES`
//! timed ones, then exits and takes its heap with it.

use crate::host::{self, Rng};
use crate::trace::{self, Tracer};
use crate::{Outcome, Plan};
use patty_analysis::SemanticModel;
use patty_json::Json;
use patty_minilang::{Engine, InterpOptions};
use patty_serve::fnv1a64;
use patty_tool::Patty;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub const TIMED_PASSES: u64 = 2;

/// Candidate architectures and chess verdicts per program, written by
/// hand from the corpus' ground truth: the code under test did not
/// produce this file. Race-free programs pass.
const EXPECTED: &str = include_str!("../expected.json");

/// What one op showed, reduced to what the references can check and the
/// counts that must repeat exactly.
struct Observed {
    profile_hash: u64,
    vm_steps: u64,
    candidates: Vec<String>,
    chess: Vec<String>,
    schedules: u64,
    chess_steps: u64,
    evaluations: u64,
    rss_growth_kb: u64,
}

impl Observed {
    fn to_json(&self) -> Json {
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::from(s.as_str())).collect());
        Json::obj()
            .with("profile_hash", format!("{:016x}", self.profile_hash))
            .with("vm_steps", self.vm_steps)
            .with("candidates", strs(&self.candidates))
            .with("chess", strs(&self.chess))
            .with("schedules", self.schedules)
            .with("chess_steps", self.chess_steps)
            .with("evaluations", self.evaluations)
            .with("rss_growth_kb", self.rss_growth_kb)
    }
}

/// The timed op: the three calls a user of the process model makes. Its
/// time is the sum of the three; reading the resident set in between
/// (the chess leak is one of the rows) stays outside it.
fn run_op(patty: &Patty, source: &str, tr: &mut Tracer) -> (Result<Observed, String>, Duration) {
    let (run, automatic) = tr.time("patty.run_automatic", |_| patty.run_automatic(source));
    let run = match run {
        Ok(run) => run,
        Err(e) => return (Err(e.to_string()), automatic),
    };
    let rss0 = host::rss_kb();
    let (reports, validate) = tr.time("chess.validate", |_| patty.validate_correctness(&run));
    let rss1 = host::rss_kb();
    let (tuned, tune) = tr.time("tuning.tune", |_| patty.tune_performance(&run));
    let observed = run
        .model
        .profile
        .as_ref()
        .ok_or("model without a profile".to_string())
        .map(|profile| Observed {
            profile_hash: fnv1a64(profile.to_json().as_bytes()),
            vm_steps: profile.total_cost,
            candidates: run
                .artifacts
                .iter()
                .map(|a| a.arch.expr.to_string())
                .collect(),
            chess: reports
                .iter()
                .map(|(_, r)| if r.failed() { "fail" } else { "pass" }.to_string())
                .collect(),
            schedules: reports.iter().map(|(_, r)| r.schedules).sum(),
            chess_steps: reports.iter().map(|(_, r)| r.total_steps).sum(),
            evaluations: tuned.iter().map(|(_, r)| u64::from(r.evaluations)).sum(),
            rss_growth_kb: rss1.saturating_sub(rss0),
        });
    (observed, automatic + validate + tune)
}

/// Traced runs only: call each layer's public functions once more on the
/// same program, one span each, so the op's time can be laid against its
/// parts. `run_automatic` is parse + build + detect + per candidate
/// (annotate + plan + unittest) + inputs + what is left unattributed.
fn replay_layers(patty: &Patty, source: &str, tr: &mut Tracer) -> Result<(), String> {
    let opts = &patty.options;
    let (program, _) = tr.time("minilang.parse", |_| patty_minilang::parse(source));
    let program = program.map_err(|e| e.to_string())?;
    tr.time("minilang.compile", |_| {
        patty_minilang::bytecode::compile(&program)
    });
    let (traced, _) = tr.time("minilang.vm_traced", |_| {
        patty_minilang::run(&program, opts.interp.clone())
    });
    traced.map_err(|e| e.to_string())?;
    let untraced = InterpOptions {
        trace_loops: false,
        ..opts.interp.clone()
    };
    let (plain, _) = tr.time("minilang.vm_exec", |_| {
        patty_minilang::run(&program, untraced)
    });
    plain.map_err(|e| e.to_string())?;
    tr.time("analysis.static", |_| SemanticModel::build_static(&program));
    let (model, _) = tr.time("analysis.build", |_| {
        SemanticModel::build(&program, opts.interp.clone())
    });
    let model = model.map_err(|e| e.to_string())?;
    let (instances, _) = tr.time("patterns.detect", |_| {
        patty_patterns::detect_patterns(&model, &opts.detect)
    });
    for inst in &instances {
        let (annotated, _) = tr.time("transform.annotate", |_| {
            patty_transform::annotate_source(&model.program, inst)
        });
        annotated.map_err(|e| e.to_string())?;
        tr.time("transform.plan", |_| {
            patty_transform::generate_plan(inst, 1)
        });
        tr.time("testgen.unittest", |_| {
            patty_testgen::generate_unit_test(&model, inst, opts.unit_test_elements)
        });
    }
    for f in program
        .funcs
        .iter()
        .filter(|f| !f.params.is_empty() && f.name != "main")
    {
        tr.time("testgen.inputs", |_| {
            patty_testgen::path_coverage_inputs(&program, &f.name, &[-3, -1, 0, 1, 2, 7], 4, 512)
        });
    }
    Ok(())
}

/// A child: one untimed pass, `TIMED_PASSES` timed ones, a report per op
/// on stdout and a closing line with its own CPU time and peak memory.
pub fn child(seed: u64, traced: bool) -> i32 {
    let epoch = Instant::now();
    let programs = patty_corpus::all_programs();
    let patty = Patty::new();
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..programs.len()).collect();
    let mut tr = Tracer::new(traced, epoch);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    rng.shuffle(&mut order);
    let mut idle = Tracer::new(false, epoch);
    for &k in &order {
        let _ = run_op(&patty, programs[k].source, &mut idle);
    }
    let warm_s = epoch.elapsed().as_secs_f64();

    // CPU of the ops alone: a traced run's replays are not part of them.
    let mut cpu_s = 0.0;
    for pass in 0..TIMED_PASSES {
        rng.shuffle(&mut order);
        for &k in &order {
            tr.set_op(pass * programs.len() as u64 + k as u64);
            let cpu0 = host::usage_self().cpu_s;
            let ((obs, wall), _) = tr.time("op", |tr| run_op(&patty, programs[k].source, tr));
            cpu_s += host::usage_self().cpu_s - cpu0;
            let mut line = Json::obj()
                .with("kind", k)
                .with("ms", wall.as_secs_f64() * 1e3);
            line = match obs {
                Ok(obs) => line.with("observed", obs.to_json()),
                Err(e) => line.with("error", e),
            };
            if traced {
                let (replayed, _) =
                    tr.time("replay", |tr| replay_layers(&patty, programs[k].source, tr));
                if let Err(e) = replayed {
                    line = line.with("error", e);
                }
            }
            if writeln!(out, "{line}").is_err() {
                return 1;
            }
        }
    }
    let (on_cpu_ns, runnable_ns) = host::sched_ns();
    let done = Json::obj()
        .with("done", true)
        .with("warm_s", warm_s)
        .with("total_s", epoch.elapsed().as_secs_f64())
        .with("cpu_s", cpu_s)
        .with("maxrss_kb", host::usage_self().maxrss_kb)
        .with("on_cpu_ns", on_cpu_ns)
        .with("runnable_ns", runnable_ns)
        .with(
            "spans",
            Json::Arr(tr.spans.iter().map(trace::span_to_json).collect()),
        );
    if writeln!(out, "{done}").is_err() {
        return 1;
    }
    0
}

fn strings(list: Option<&Json>) -> Vec<String> {
    list.and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| s.as_str().map(str::to_string))
        .collect()
}

/// What the parent checks every op against.
struct Reference {
    profile_hash: u64,
    candidates: Vec<String>,
    chess: Vec<String>,
}

/// The VM's profile must equal the tree-walker's (`Engine::Ast`, kept as
/// the differential oracle); candidates and verdicts come from
/// `expected.json`.
fn references() -> Result<Vec<Reference>, String> {
    let expected = patty_json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    patty_corpus::all_programs()
        .iter()
        .map(|p| {
            let entry = expected
                .get(p.name)
                .ok_or(format!("expected.json has no entry for {}", p.name))?;
            let oracle = InterpOptions {
                engine: Engine::Ast,
                ..InterpOptions::default()
            };
            let outcome = patty_minilang::run(&p.parse(), oracle).map_err(|e| e.to_string())?;
            Ok(Reference {
                profile_hash: fnv1a64(outcome.profile.to_json().as_bytes()),
                candidates: strings(entry.get("candidates")),
                chess: strings(entry.get("chess")),
            })
        })
        .collect()
}

fn check(observed: &Json, reference: &Reference) -> Result<(), String> {
    let strs = |key: &str| strings(observed.get(key));
    let hash = observed
        .get("profile_hash")
        .and_then(Json::as_str)
        .unwrap_or("");
    if hash != format!("{:016x}", reference.profile_hash) {
        return Err("VM profile differs from the tree-walker's".into());
    }
    if strs("candidates") != reference.candidates {
        return Err(format!(
            "candidates {:?}, expected {:?}",
            strs("candidates"),
            reference.candidates
        ));
    }
    if strs("chess") != reference.chess {
        return Err(format!(
            "chess verdicts {:?}, expected {:?}",
            strs("chess"),
            reference.chess
        ));
    }
    Ok(())
}

/// Counts that must repeat exactly, op after op, child after child.
const EXACT: [&str; 4] = ["vm_steps", "schedules", "chess_steps", "evaluations"];

/// What the parent adds up over all ops, and the first reading of the
/// exact counts per program.
#[derive(Default)]
struct Tally {
    first_counts: BTreeMap<usize, Vec<i64>>,
    sums: BTreeMap<&'static str, f64>,
}

impl Tally {
    fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_default() += value;
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Hold one observation against its reference and its predecessors.
    fn judge(&mut self, kind: usize, obs: &Json, reference: &Reference) -> Result<(), String> {
        check(obs, reference)?;
        let int = |key: &str| obs.get(key).and_then(Json::as_i64).unwrap_or(-1);
        let counts: Vec<i64> = EXACT.iter().map(|c| int(c)).collect();
        for (name, n) in EXACT.iter().zip(&counts) {
            self.add(name, *n as f64);
        }
        if int("schedules") > 0 {
            self.add("chess_ops", 1.0);
            self.add("rss_growth_kb", int("rss_growth_kb") as f64);
        }
        let first = self
            .first_counts
            .entry(kind)
            .or_insert_with(|| counts.clone());
        if *first == counts {
            Ok(())
        } else {
            Err(format!(
                "counts {EXACT:?} changed from {first:?} to {counts:?}"
            ))
        }
    }
}

pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let programs = patty_corpus::all_programs();
    let mut out = Outcome::new(programs.iter().map(|p| p.name.to_string()).collect());

    // Set-up, repeated so its median is steady: the reference pass.
    let mut refs = Vec::new();
    let mut ref_s = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        let t0 = Instant::now();
        let again = references()?;
        ref_s.push(t0.elapsed().as_secs_f64());
        // Determinism: the oracle itself must repeat.
        let hashes = |refs: &[Reference]| refs.iter().map(|r| r.profile_hash).collect::<Vec<_>>();
        if !refs.is_empty() && hashes(&refs) != hashes(&again) {
            return Err("the tree-walker's profiles changed between two reference passes".into());
        }
        refs = again;
    }

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut rng = Rng::new(plan.seed);
    let mut tally = Tally::default();
    let mut warm_s = Vec::new();
    let started = Instant::now();
    while started.elapsed() < plan.duration {
        let spawned = Instant::now();
        let child = Command::new(&exe)
            .args(["--corpus-child", "--seed", &rng.next().to_string()])
            .args(["--trace", if plan.traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn child: {e}"))?;
        let wall_s = spawned.elapsed().as_secs_f64();
        let text = String::from_utf8_lossy(&child.stdout);
        let mut done = None;
        let mut timed_s = 0.0;
        for line in text.lines() {
            let v = patty_json::parse(line).map_err(|e| format!("child line: {e}"))?;
            if v.get("done").is_some() {
                done = Some(v);
                continue;
            }
            let kind = v
                .get("kind")
                .and_then(Json::as_i64)
                .ok_or("child line without kind")? as usize;
            let ms = v
                .get("ms")
                .and_then(Json::as_f64)
                .ok_or("child line without ms")?;
            timed_s += ms / 1e3;
            let verdict = match (v.get("error"), v.get("observed")) {
                (Some(e), _) => Err(e.as_str().unwrap_or("error").to_string()),
                (None, None) => Err("no observation".to_string()),
                (None, Some(obs)) => tally.judge(kind, obs, &refs[kind]),
            };
            out.record(
                kind,
                ms,
                verdict.map_err(|e| format!("{}: {e}", programs[kind].name)),
            );
        }
        let done = done.ok_or(format!(
            "child exited with {} before its closing line",
            child.status
        ))?;
        let f = |key: &str| done.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        // Start-up of the child is set-up too: spawn to first timed op.
        warm_s.push((wall_s - f("total_s")).max(0.0) + f("warm_s"));
        out.timed_wall_s += timed_s;
        out.cpu_s += f("cpu_s");
        for key in ["on_cpu_ns", "runnable_ns"] {
            tally.add(
                key,
                done.get(key).and_then(Json::as_i64).unwrap_or(0) as f64,
            );
        }
        let rss = done.get("maxrss_kb").and_then(Json::as_i64).unwrap_or(0) as u64;
        out.peak_rss_kb = out.peak_rss_kb.max(rss);
        if plan.traced {
            let spans = done
                .get("spans")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(trace::span_from_json)
                .collect();
            out.recorders.push(spans);
        }
    }
    out.setup_s = vec![crate::stats::median(&ref_s) + crate::stats::median(&warm_s)];
    out.note(format!(
        "reference pass {:.3} s (median of {}), child start + warm pass {:.3} s (median of {})",
        crate::stats::median(&ref_s),
        ref_s.len(),
        crate::stats::median(&warm_s),
        warm_s.len()
    ));

    if plan.traced {
        layers(&mut out, &tally);
    }
    Ok(out)
}

/// Per-layer rows, each a mean per op so the parts can be laid against
/// `patty.run_automatic_ms`.
fn layers(out: &mut Outcome, tally: &Tally) {
    let totals = trace::totals(&out.recorders);
    let ops = totals.get("op").map_or(0, |t| t.count).max(1) as f64;
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64) / 1e6 / ops;
    for (metric, span) in [
        ("minilang.parse_ms", "minilang.parse"),
        ("minilang.compile_ms", "minilang.compile"),
        ("minilang.vm_traced_ms", "minilang.vm_traced"),
        ("minilang.vm_exec_ms", "minilang.vm_exec"),
        ("analysis.build_ms", "analysis.build"),
        ("analysis.static_ms", "analysis.static"),
        ("patterns.detect_ms", "patterns.detect"),
        ("transform.annotate_ms", "transform.annotate"),
        ("transform.plan_ms", "transform.plan"),
        ("testgen.unittest_ms", "testgen.unittest"),
        ("testgen.inputs_ms", "testgen.inputs"),
        ("chess.validate_ms", "chess.validate"),
        ("tuning.tune_ms", "tuning.tune"),
        ("patty.run_automatic_ms", "patty.run_automatic"),
    ] {
        out.layer(metric, ms(span));
    }
    let parts: f64 = [
        "minilang.parse",
        "analysis.build",
        "patterns.detect",
        "transform.annotate",
        "transform.plan",
        "testgen.unittest",
        "testgen.inputs",
    ]
    .iter()
    .map(|s| ms(s))
    .sum();
    out.layer("patty.unattributed_ms", ms("patty.run_automatic") - parts);
    let source_mb: f64 = patty_corpus::all_programs()
        .iter()
        .map(|p| p.source.len() as f64)
        .sum::<f64>()
        / 1e6;
    let kinds = out.kinds.len() as f64;
    out.layer(
        "minilang.parse_mb_per_s",
        source_mb / kinds / (ms("minilang.parse") / 1e3),
    );
    let sum = |name: &str| tally.sum(name);
    out.layer("minilang.vm_steps", sum("vm_steps") / ops);
    out.layer(
        "patterns.instances",
        totals.get("transform.plan").map_or(0.0, |t| t.count as f64) / ops,
    );
    out.layer("chess.schedules", sum("schedules") / ops);
    out.layer("chess.steps", sum("chess_steps") / ops);
    out.layer(
        "chess.ns_per_step",
        totals
            .get("chess.validate")
            .map_or(0.0, |t| t.total_ns as f64)
            / sum("chess_steps").max(1.0),
    );
    out.layer(
        "chess.rss_growth_mb_per_run",
        sum("rss_growth_kb") / 1024.0 / sum("chess_ops").max(1.0),
    );
    out.layer("tuning.evaluations", sum("evaluations") / ops);
    out.layer(
        "host.runq_wait_share",
        sum("runnable_ns") / (sum("on_cpu_ns") + sum("runnable_ns")).max(1.0),
    );
}
