//! `patty serve` — the daemon mode — plus the artifact-cache plumbing
//! shared with the one-shot CLI.
//!
//! The serve infrastructure (sharded cache, admission control, line
//! protocol) lives in `patty-serve`, generic over a [`JobRunner`];
//! this module supplies the real runner that maps `analyze | tune |
//! faultcheck | trace` jobs onto the language pipeline, and renders
//! each result as a patty-json artifact so it is cacheable by the
//! program's content hash.
//!
//! `patty tune` routes through the same cache (`tune_cached`): the
//! artifact spills to `$PATTY_CACHE_DIR` (default: a `patty-cache`
//! directory under the system temp dir), so repeated tuning of an
//! unchanged file is served from disk instead of recomputed — even
//! across processes.

use crate::process::{is_annotated, Patty, PattyError, PattyRun};
use patty_json::Json;
use patty_serve::{
    job_hash, AdmissionConfig, CacheConfig, JobCtl, JobKind, JobRunner, ServeConfig, Service,
    ShardedCache,
};
use std::path::PathBuf;
use std::time::Duration;

/// The `analyze` artifact: detected candidates with their parsed
/// tuning configuration.
pub fn analyze_artifact(patty: &Patty, source: &str) -> Result<Json, PattyError> {
    let run = patty.run(source)?;
    let candidates = run
        .artifacts
        .iter()
        .map(|a| {
            let tuning = patty_json::parse(&a.tuning_json).unwrap_or(Json::Null);
            Json::obj()
                .with("name", Json::Str(a.arch.name.clone()))
                .with("expr", Json::Str(a.arch.expr.to_string()))
                .with("tuning", tuning)
        })
        .collect();
    Ok(Json::obj()
        .with(
            "mode",
            Json::Str(if is_annotated(source) {
                "annotated".into()
            } else {
                "automatic".into()
            }),
        )
        .with("candidates", Json::Arr(candidates)))
}

/// The `tune` artifact: per-architecture tuning outcomes, carrying
/// everything `render_tune_artifact` needs to reproduce the CLI output.
pub fn tune_artifact(patty: &Patty, run: &PattyRun) -> Json {
    let archs = patty
        .tune_performance(run)
        .into_iter()
        .map(|(name, result)| {
            let initial = result.history.first().map(|h| h.1).unwrap_or(f64::NAN);
            let params = result
                .best
                .params
                .iter()
                .map(|p| {
                    Json::obj()
                        .with("name", Json::Str(p.name.clone()))
                        .with("value", Json::Str(p.value.to_string()))
                        .with("location", Json::Str(p.location.clone()))
                })
                .collect();
            Json::obj()
                .with("name", Json::Str(name))
                .with("evaluations", Json::Int(i64::from(result.evaluations)))
                .with("initial_cost", Json::Float(initial))
                .with("best_cost", Json::Float(result.best_score))
                .with("params", Json::Arr(params))
        })
        .collect();
    Json::obj().with("archs", Json::Arr(archs))
}

/// Render a `tune` artifact exactly as the pre-cache CLI printed live
/// results, so cached and fresh invocations are byte-identical.
pub(crate) fn render_tune_artifact(artifact: &Json) -> String {
    let mut out = String::new();
    let archs = artifact.get("archs").and_then(Json::as_arr).unwrap_or(&[]);
    for arch in archs {
        let name = arch.get("name").and_then(Json::as_str).unwrap_or("?");
        let evals = arch.get("evaluations").and_then(Json::as_i64).unwrap_or(0);
        let initial = arch.get("initial_cost").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let best = arch.get("best_cost").and_then(Json::as_f64).unwrap_or(f64::NAN);
        out.push_str(&format!("{name}: {evals} evaluations\n"));
        out.push_str(&format!("  initial cost: {initial:.0}\n"));
        out.push_str(&format!("  best cost:    {best:.0}\n"));
        for p in arch.get("params").and_then(Json::as_arr).unwrap_or(&[]) {
            let pname = p.get("name").and_then(Json::as_str).unwrap_or("?");
            let value = p.get("value").and_then(Json::as_str).unwrap_or("?");
            let location = p.get("location").and_then(Json::as_str).unwrap_or("?");
            out.push_str(&format!("    {pname} = {value} ({location})\n"));
        }
    }
    out
}

/// The `faultcheck` artifact: matrix verdicts plus the chess sweep's
/// pass/fail, compact enough to cache and diff.
pub(crate) fn faultcheck_artifact(patty: &Patty, source: &str) -> Result<Json, PattyError> {
    let report = crate::faultcheck::faultcheck(patty, source)?;
    let scenarios = report
        .scenarios
        .iter()
        .map(|s| {
            let outcome = match &s.outcome {
                crate::faultcheck::Outcome::Recovered => "recovered".to_string(),
                crate::faultcheck::Outcome::StructuredError(e) => format!("structured: {e}"),
                crate::faultcheck::Outcome::Diverged => "diverged".to_string(),
            };
            Json::obj()
                .with("arch", Json::Str(s.arch.clone()))
                .with("stage", Json::Str(s.stage.clone()))
                .with("nth", Json::Int(s.nth as i64))
                .with("outcome", Json::Str(outcome))
        })
        .collect();
    Ok(Json::obj()
        .with("passed", Json::Bool(report.passed()))
        .with("scenarios", Json::Arr(scenarios))
        .with("chess_passed", Json::Bool(report.chess.passed())))
}

/// The `trace` artifact: the deterministic per-stage trace summary.
pub(crate) fn trace_artifact(patty: &Patty, source: &str) -> Result<Json, PattyError> {
    let (_trace, report) = patty.trace(source)?;
    Ok(report.to_json_value())
}

/// The real job runner behind `patty serve`: maps each job kind onto
/// the language pipeline, with a cooperative cancellation checkpoint
/// between the analysis and execution phases.
pub struct PattyJobRunner {
    patty: Patty,
}

impl PattyJobRunner {
    pub fn new() -> PattyJobRunner {
        PattyJobRunner { patty: Patty::new() }
    }
}

impl Default for PattyJobRunner {
    fn default() -> PattyJobRunner {
        PattyJobRunner::new()
    }
}

impl JobRunner for PattyJobRunner {
    fn run(&self, kind: JobKind, source: &str, ctl: &JobCtl) -> Result<Json, String> {
        ctl.checkpoint()?;
        let result = match kind {
            JobKind::Analyze => analyze_artifact(&self.patty, source),
            JobKind::Tune => {
                let run = self.patty.run(source).map_err(|e| e.to_string())?;
                ctl.checkpoint()?;
                Ok(tune_artifact(&self.patty, &run))
            }
            JobKind::Faultcheck => faultcheck_artifact(&self.patty, source),
            JobKind::Trace => trace_artifact(&self.patty, source),
        };
        result.map_err(|e| e.to_string())
    }
}

/// The persistent CLI-side artifact cache: spills to
/// `$PATTY_CACHE_DIR` (or `<tmp>/patty-cache`), so repeat invocations
/// of the same binary on the same file hit disk instead of recomputing.
fn cli_cache() -> ShardedCache {
    let dir = std::env::var_os("PATTY_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("patty-cache"));
    ShardedCache::new(CacheConfig {
        shards: 4,
        capacity: 256,
        spill_dir: Some(dir),
    })
}

/// `patty tune <file.mini>`, routed through the artifact cache.
pub fn tune_cached(patty: &Patty, source: &str) -> i32 {
    let cache = cli_cache();
    let hash = job_hash(JobKind::Tune, source);
    if let Some((artifact, from)) = cache.get(JobKind::Tune, hash) {
        print!("{}", render_tune_artifact(&artifact));
        eprintln!(
            "patty tune: served from artifact cache ({}, key {hash:016x})",
            from.as_str()
        );
        return 0;
    }
    let run = match patty.run(source) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("patty: {e}");
            return 1;
        }
    };
    let artifact = tune_artifact(patty, &run);
    cache.insert(JobKind::Tune, hash, &artifact);
    print!("{}", render_tune_artifact(&artifact));
    0
}

/// `patty serve [--addr HOST:PORT] [--stdin] [--cache-dir DIR]
/// [--no-spill] [--cache-capacity N] [--shards N] [--max-concurrent N]
/// [--queue-limit N] [--deadline-ms N]`.
pub fn serve(args: &[String]) -> i32 {
    let mut addr = "127.0.0.1:7465".to_string();
    let mut use_stdin = false;
    let mut cache_dir: Option<PathBuf> = std::env::var_os("PATTY_CACHE_DIR").map(PathBuf::from);
    let mut no_spill = false;
    let mut capacity: usize = 1024;
    let mut shards: usize = 8;
    let mut max_concurrent: usize = 4;
    let mut queue_limit: usize = 16;
    let mut deadline_ms: u64 = 30_000;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stdin" => {
                use_stdin = true;
                i += 1;
            }
            "--no-spill" => {
                no_spill = true;
                i += 1;
            }
            flag @ ("--addr" | "--cache-dir" | "--cache-capacity" | "--shards"
            | "--max-concurrent" | "--queue-limit" | "--deadline-ms") => {
                let Some(value) = args.get(i + 1).map(String::as_str) else {
                    eprintln!("patty serve: `{flag}` needs a value");
                    return 2;
                };
                let mut bad = false;
                match flag {
                    "--addr" => addr = value.to_string(),
                    "--cache-dir" => cache_dir = Some(PathBuf::from(value)),
                    "--cache-capacity" => bad = value.parse().map(|v| capacity = v).is_err(),
                    "--shards" => bad = value.parse().map(|v| shards = v).is_err(),
                    "--max-concurrent" => bad = value.parse().map(|v| max_concurrent = v).is_err(),
                    "--queue-limit" => bad = value.parse().map(|v| queue_limit = v).is_err(),
                    _ => bad = value.parse().map(|v| deadline_ms = v).is_err(),
                }
                if bad {
                    eprintln!("patty serve: `{flag}` needs a number, got `{value}`");
                    return 2;
                }
                i += 2;
            }
            other => {
                eprintln!("patty serve: unknown flag `{other}`");
                return 2;
            }
        }
    }
    let spill_dir = if no_spill {
        None
    } else {
        Some(cache_dir.unwrap_or_else(|| std::env::temp_dir().join("patty-cache")))
    };
    let cfg = ServeConfig {
        cache: CacheConfig {
            shards,
            capacity,
            spill_dir,
        },
        admission: AdmissionConfig {
            max_concurrent,
            queue_limit,
            ..AdmissionConfig::default()
        },
        job_deadline: Duration::from_millis(deadline_ms),
    };
    let service = Service::new(PattyJobRunner::new(), cfg);
    if use_stdin {
        eprintln!("patty serve: line protocol on stdin/stdout (send {{\"op\":\"shutdown\"}} to stop)");
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        return match service.serve_lines(stdin.lock(), stdout.lock()) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("patty serve: io error: {e}");
                1
            }
        };
    }
    let listener = match std::net::TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("patty serve: cannot bind {addr}: {e}");
            return 1;
        }
    };
    match listener.local_addr() {
        Ok(local) => eprintln!("patty serve: listening on {local}"),
        Err(_) => eprintln!("patty serve: listening on {addr}"),
    }
    match service.serve_tcp(listener) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("patty serve: io error: {e}");
            1
        }
    }
}
