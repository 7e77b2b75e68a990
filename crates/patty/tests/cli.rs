//! End-to-end tests of the `patty` binary: the CLI is the substitute for
//! the paper's IDE integration, so its commands must work on real files.

use patty_json::Json;
use std::path::PathBuf;
use std::process::Command;

fn patty_bin() -> PathBuf {
    // target/debug/patty, next to the test binary's directory.
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // debug/
    p.push(format!("patty{}", std::env::consts::EXE_SUFFIX));
    p
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("patty-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write temp source");
    path
}

const PIPELINE_SRC: &str = r#"
class F { var g = 2; fn apply(x) { work(150); return x * this.g; } }
fn main() {
    var f = new F();
    var out = [];
    foreach (x in range(0, 8)) {
        var a = f.apply(x);
        out.add(a);
    }
    print(len(out));
}
"#;

fn run_patty(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(patty_bin())
        .args(args)
        .output()
        .expect("patty binary runs (build with `cargo build -p patty-tool` first)");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn analyze_prints_candidates_and_overlay() {
    let file = write_temp("pipeline.mini", PIPELINE_SRC);
    let (stdout, stderr, ok) = run_patty(&["analyze", file.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Pipeline"), "{stdout}");
    assert!(stdout.contains("A+ => B"), "{stdout}");
    assert!(stdout.contains("var a = f.apply(x);"), "overlay shows source: {stdout}");
}

#[test]
fn annotate_emits_reparseable_tadl_source() {
    let file = write_temp("annotate.mini", PIPELINE_SRC);
    let (stdout, _, ok) = run_patty(&["annotate", file.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("#region TADL: A+ => B"), "{stdout}");
    assert!(stdout.contains("#endregion"));
}

#[test]
fn transform_prints_tuning_config_and_parallel_code() {
    let file = write_temp("transform.mini", PIPELINE_SRC);
    let (stdout, _, ok) = run_patty(&["transform", file.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("StageReplication"), "{stdout}");
    assert!(stdout.contains("SequentialExecution"));
    assert!(stdout.contains("build_pipeline"), "{stdout}");
}

#[test]
fn validate_reports_clean_for_correct_detection() {
    let file = write_temp("validate.mini", PIPELINE_SRC);
    let (stdout, _, ok) = run_patty(&["validate", file.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("no parallel errors found"), "{stdout}");
}

/// A function that never returns is bounded by path coverage's fuel, not by
/// its candidate count: the process finishes and offers no inputs for it.
#[test]
fn fuel_bounds_a_function_that_never_returns() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/spin.mini");
    let (_, stderr, ok) = run_patty(&["analyze", fixture]);
    assert!(ok, "stderr: {stderr}");
    let (stdout, stderr, ok) = run_patty(&["validate", fixture]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("spin: 0 input set(s), 0/2 branch goals covered"), "{stdout}");
}

#[test]
fn tune_reports_improvement() {
    let file = write_temp("tune.mini", PIPELINE_SRC);
    let (stdout, _, ok) = run_patty(&["tune", file.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("initial cost"), "{stdout}");
    assert!(stdout.contains("best cost"));
    assert!(stdout.contains("replication"));
}

/// The tune bugfix: a second invocation over an unchanged file must be
/// served from the content-addressed artifact cache — byte-identical
/// output, no recomputation.
#[test]
fn tune_repeat_is_served_from_the_artifact_cache() {
    let file = write_temp("tune_cached.mini", PIPELINE_SRC);
    let cache_dir = std::env::temp_dir().join("patty-cli-tests").join("tune-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let run = || {
        let out = Command::new(patty_bin())
            .args(["tune", file.to_str().unwrap()])
            .env("PATTY_CACHE_DIR", &cache_dir)
            .output()
            .expect("patty runs");
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
            out.status.success(),
        )
    };
    let (cold, cold_err, ok) = run();
    assert!(ok, "stderr: {cold_err}");
    assert!(!cold_err.contains("artifact cache"), "first run computes: {cold_err}");
    assert!(cold.contains("initial cost"), "{cold}");
    let (warm, warm_err, ok2) = run();
    assert!(ok2, "stderr: {warm_err}");
    assert!(
        warm_err.contains("served from artifact cache"),
        "second run must hit the cache: {warm_err}"
    );
    assert_eq!(cold, warm, "cached output is byte-identical to the computed one");
}

/// `patty serve --stdin` is the loopback daemon: one JSON request per
/// line in, one response per line out, `shutdown` ends the session.
#[test]
fn serve_stdin_round_trips_analyze_tune_and_stats() {
    use std::io::Write as _;
    let mut child = Command::new(patty_bin())
        .args(["serve", "--stdin", "--no-spill"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("patty serve spawns");
    let req = |id: i64, op: &str, source: Option<&str>| {
        let mut r = Json::obj()
            .with("id", Json::Int(id))
            .with("op", Json::Str(op.to_string()));
        if let Some(s) = source {
            r = r.with("source", Json::Str(s.to_string()));
        }
        format!("{r}\n")
    };
    // Two kilobytes of parentheses: refused by the parser's depth bound,
    // not a stack overflow that takes the daemon down.
    let deep = format!("fn main() {{ return {}1{}; }}", "(".repeat(1_000), ")".repeat(1_000));
    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        stdin.write_all(req(1, "analyze", Some(PIPELINE_SRC)).as_bytes()).unwrap();
        stdin.write_all(req(2, "analyze", Some(&deep)).as_bytes()).unwrap();
        stdin.write_all(req(3, "tune", Some(PIPELINE_SRC)).as_bytes()).unwrap();
        stdin.write_all(req(4, "tune", Some(PIPELINE_SRC)).as_bytes()).unwrap();
        stdin.write_all(req(5, "stats", None).as_bytes()).unwrap();
        stdin.write_all(req(6, "shutdown", None).as_bytes()).unwrap();
    }
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let mut lines: Vec<Json> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| patty_json::parse(l).expect("every response line is JSON"))
        .collect();
    assert_eq!(lines.len(), 6, "one response per request");
    let refused = lines.remove(1);
    assert_eq!(refused.get("id").and_then(|i| i.as_i64()), Some(2), "{refused}");
    assert_eq!(refused.get("status").and_then(|s| s.as_str()), Some("error"), "{refused}");
    assert!(refused.to_string().contains("nesting deeper than"), "{refused}");
    let analyze = &lines[0];
    assert_eq!(analyze.get("status").and_then(|s| s.as_str()), Some("ok"));
    let candidates = analyze
        .get("result")
        .and_then(|r| r.get("candidates"))
        .and_then(|c| c.as_arr())
        .expect("analyze artifact lists candidates");
    assert!(!candidates.is_empty(), "pipeline detected over the wire");
    assert_eq!(lines[1].get("cached").and_then(|c| c.as_str()), Some("no"));
    assert_eq!(
        lines[2].get("cached").and_then(|c| c.as_str()),
        Some("memory"),
        "repeat tune is a cache hit: {}",
        lines[2]
    );
    let stats = lines[3].get("result").and_then(|r| r.as_obj()).expect("stats families");
    assert!(
        stats.iter().any(|(k, _)| k.starts_with("patty_serve_")),
        "stats exposes patty_serve_* families"
    );
    assert_eq!(lines[4].get("op").and_then(|o| o.as_str()), Some("shutdown"));
}

/// A loop nest at the parser's depth bound parses, models and detects, so
/// serve `analyze` answers it. Its annotated source wraps the detected loop
/// in regions that nest it past the bound, so `patty annotate` fails with
/// the parser's message.
#[test]
fn a_loop_at_the_depth_bound_analyzes_but_does_not_annotate() {
    use std::io::Write as _;
    let program = |n: usize| {
        format!(
            "class F {{ var g = 2; fn apply(x) {{ work(150); return x * this.g; }} }}
fn deep(x) {{
{}x = x + 1;{}
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
}}",
            "foreach (i in range(0, 1)) { ".repeat(n),
            " }".repeat(n)
        )
    };
    let mut n = 1;
    while patty_minilang::parse(&program(n + 1)).is_ok() {
        n += 1;
    }
    let source = program(n);

    let mut child = Command::new(patty_bin())
        .args(["serve", "--stdin", "--no-spill"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("patty serve spawns");
    {
        let request = Json::obj()
            .with("id", Json::Int(1))
            .with("op", Json::Str("analyze".into()))
            .with("source", Json::Str(source.clone()));
        let stdin = child.stdin.as_mut().expect("piped stdin");
        writeln!(stdin, "{request}").unwrap();
        writeln!(stdin, "{{\"id\":2,\"op\":\"shutdown\"}}").unwrap();
    }
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let analyze = patty_json::parse(stdout.lines().next().expect("a response")).expect("JSON");
    assert_eq!(analyze.get("status").and_then(|s| s.as_str()), Some("ok"), "{analyze}");

    let file = write_temp("loop_at_bound.mini", &source);
    let out = Command::new(patty_bin())
        .args(["annotate", file.to_str().unwrap()])
        .output()
        .expect("patty runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("patty: parse error") && stderr.contains("nesting deeper than"),
        "{stderr}"
    );
}

/// The real daemon path: bind an ephemeral loopback port, learn it from
/// the stderr banner, round-trip analyze + repeat tune + stats over a
/// TCP connection, and shut the daemon down cleanly over the wire.
#[test]
fn serve_tcp_round_trips_over_loopback() {
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::net::TcpStream;

    let mut child = Command::new(patty_bin())
        .args(["serve", "--addr", "127.0.0.1:0", "--no-spill"])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("patty serve spawns");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let addr = loop {
        let mut line = String::new();
        assert!(stderr.read_line(&mut line).unwrap() > 0, "daemon exited before binding");
        if let Some(pos) = line.find("listening on ") {
            break line[pos + "listening on ".len()..].trim().to_string();
        }
    };

    let stream = TcpStream::connect(&addr).expect("connect to daemon");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |req: Json| -> Json {
        let mut w = &stream;
        w.write_all(format!("{req}\n").as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        patty_json::parse(line.trim()).expect("response line is JSON")
    };
    let req = |id: i64, op: &str, source: Option<&str>| {
        let mut r = Json::obj()
            .with("id", Json::Int(id))
            .with("op", Json::Str(op.to_string()));
        if let Some(s) = source {
            r = r.with("source", Json::Str(s.to_string()));
        }
        r
    };

    let analyze = send(req(1, "analyze", Some(PIPELINE_SRC)));
    assert_eq!(analyze.get("status").and_then(|s| s.as_str()), Some("ok"), "{analyze}");
    let cold = send(req(2, "tune", Some(PIPELINE_SRC)));
    assert_eq!(cold.get("cached").and_then(|c| c.as_str()), Some("no"));
    let warm = send(req(3, "tune", Some(PIPELINE_SRC)));
    assert_eq!(warm.get("cached").and_then(|c| c.as_str()), Some("memory"), "{warm}");
    let stats = send(req(4, "stats", None));
    let families = stats.get("result").and_then(|r| r.as_obj()).expect("stats families");
    assert!(
        families.iter().any(|(k, _)| k.starts_with("patty_serve_")),
        "stats exposes patty_serve_* families over TCP"
    );
    let bye = send(req(5, "shutdown", None));
    assert_eq!(bye.get("status").and_then(|s| s.as_str()), Some("ok"), "{bye}");

    let status = child.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "daemon exits cleanly");
}

#[test]
fn annotated_file_runs_in_mode_2() {
    let src = r#"
class F { var g = 2; fn apply(x) { work(100); return x * this.g; } }
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
    let file = write_temp("mode2.mini", src);
    let (stdout, _, ok) = run_patty(&["analyze", file.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("A+ => B"), "{stdout}");
}

#[test]
fn modes_command_describes_all_four() {
    let (stdout, _, ok) = run_patty(&["modes"]);
    assert!(ok);
    for needle in [
        "Automatic parallelization",
        "Architecture-based",
        "Library-based",
        "Program validation",
    ] {
        assert!(stdout.contains(needle), "missing {needle}: {stdout}");
    }
}

#[test]
fn bad_usage_and_bad_files_fail_cleanly() {
    let (_, stderr, ok) = run_patty(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    let (_, stderr2, ok2) = run_patty(&["analyze", "/nonexistent/x.mini"]);
    assert!(!ok2);
    assert!(stderr2.contains("cannot read"));
    let bad = write_temp("bad.mini", "fn main() { var x = ; }");
    let (_, stderr3, ok3) = run_patty(&["analyze", bad.to_str().unwrap()]);
    assert!(!ok3);
    assert!(stderr3.contains("parse error"), "{stderr3}");
}

/// Exit codes are part of the CLI contract: 2 for usage errors, 1 for
/// processing failures, and every diagnostic is a line on stderr — no
/// panic backtraces.
#[test]
fn failures_use_distinct_exit_codes_without_backtraces() {
    let run_with_code = |args: &[&str]| {
        let out = Command::new(patty_bin()).args(args).output().expect("patty runs");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).to_string())
    };
    let (code, stderr) = run_with_code(&[]);
    assert_eq!(code, Some(2), "usage error: {stderr}");
    let (code, stderr) = run_with_code(&["frobnicate", "x.mini"]);
    assert_eq!(code, Some(2), "unknown command: {stderr}");
    let (code, stderr) = run_with_code(&["analyze", "/nonexistent/x.mini"]);
    assert_eq!(code, Some(1), "unreadable file: {stderr}");
    let bad = write_temp("bad_exit.mini", "fn main() { var x = ; }");
    let (code, stderr) = run_with_code(&["analyze", bad.to_str().unwrap()]);
    assert_eq!(code, Some(1), "parse error: {stderr}");
    assert!(
        !stderr.contains("stack backtrace") && !stderr.contains("thread 'main' panicked"),
        "diagnostics must be one-line, not a panic dump: {stderr}"
    );
}

#[test]
fn faultcheck_passes_on_detected_pipeline_and_reports_fault_counters() {
    let file = write_temp("faultcheck.mini", PIPELINE_SRC);
    let (stdout, stderr, ok) = run_patty(&["faultcheck", file.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("recovered via sequential fallback"), "{stdout}");
    assert!(stdout.contains("failures: 0"), "{stdout}");
    for counter in ["fault.panics_caught", "fault.fallbacks", "fault.items_retried"] {
        assert!(stdout.contains(counter), "missing {counter}: {stdout}");
    }
}

/// Schema-stability pinning: `patty profile` must emit the whole
/// `fault.*` counter family (value 0) even when the program has no
/// detectable parallel architecture, so downstream consumers never see
/// the keys appear and disappear between runs.
#[test]
fn profile_reports_fault_counters_without_parallel_architectures() {
    let src = "fn main() { var x = 1; print(x); }";
    let file = write_temp("profile_no_patterns.mini", src);
    let (stdout, stderr, ok) = run_patty(&["profile", file.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    let report = patty_json::parse(&stdout).expect("profile output is valid JSON");
    let counters = report.get("counters").and_then(|c| c.as_arr()).expect("counters array");
    for name in [
        "fault.panics_caught",
        "fault.fallbacks",
        "fault.items_retried",
        "fault.deadline_aborts",
        "fault.cancellations",
    ] {
        let counter = counters
            .iter()
            .find(|c| c.get("name").and_then(|n| n.as_str()) == Some(name))
            .unwrap_or_else(|| panic!("missing {name} in {stdout}"));
        assert_eq!(counter.get("value").and_then(|v| v.as_i64()), Some(0), "{stdout}");
    }
}

#[test]
fn stats_emits_linted_prometheus_with_every_family_prefix() {
    let file = write_temp("stats.mini", PIPELINE_SRC);
    let (stdout, stderr, ok) = run_patty(&["stats", file.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    let lint = patty_obs::lint_prometheus(&stdout).expect("scrape must pass the format lint");
    assert!(lint.families >= 20, "thin scrape ({lint:?}): {stdout}");
    for prefix in ["patty_executor_", "patty_runtime_", "patty_vm_", "patty_trace_"] {
        assert!(
            stdout.lines().any(|l| l.starts_with(prefix)),
            "no {prefix}* sample in: {stdout}"
        );
    }
    // The pipeline really ran on the pool: executed tasks are non-zero.
    let executed = stdout
        .lines()
        .find(|l| l.starts_with("patty_executor_tasks_executed_total "))
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("tasks_executed sample");
    assert!(executed > 0, "{stdout}");
}

/// `--deterministic --format json` is the machine-readable snapshot
/// contract: two sequential invocations must be byte-identical.
#[test]
fn stats_deterministic_json_is_byte_identical_across_runs() {
    let file = write_temp("stats_det.mini", PIPELINE_SRC);
    let path = file.to_str().unwrap();
    let (a, stderr, ok) = run_patty(&["stats", path, "--format", "json", "--deterministic"]);
    assert!(ok, "stderr: {stderr}");
    let (b, _, ok2) = run_patty(&["stats", path, "--format", "json", "--deterministic"]);
    assert!(ok2);
    assert_eq!(a, b, "deterministic stats runs must be byte-identical");
    let doc = patty_json::parse(&a).expect("stats JSON parses");
    let obj = doc.as_obj().expect("top-level object");
    assert!(obj.iter().any(|(k, _)| k.starts_with("patty_trace_stage_")), "{a}");
    // Schedule-dependent families stay in the schema, at zero.
    let executed = doc
        .get("patty_executor_tasks_executed_total")
        .and_then(|f| f.get("samples"))
        .and_then(|s| s.as_arr())
        .and_then(|s| s.first())
        .and_then(|s| s.get("value"))
        .and_then(|v| v.as_i64());
    assert_eq!(executed, Some(0), "{a}");
}

/// `--watch --iterations N` renders N dashboard frames and exits 0, so
/// the live mode is scriptable and testable.
#[test]
fn stats_watch_renders_bounded_dashboard_frames() {
    let file = write_temp("stats_watch.mini", PIPELINE_SRC);
    let (stdout, stderr, ok) = run_patty(&[
        "stats",
        file.to_str().unwrap(),
        "--watch",
        "--iterations",
        "2",
        "--interval",
        "0",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("frame 0"), "{stdout}");
    assert!(stdout.contains("frame 1"), "{stdout}");
    assert!(!stdout.contains("frame 2"), "--iterations 2 must stop after two frames");
    assert!(stdout.contains("lanes: "), "{stdout}");
    assert!(stdout.contains("steals: "), "{stdout}");
    assert!(stdout.contains("health: "), "{stdout}");
}

#[test]
fn stats_flag_errors_are_usage_errors() {
    let file = write_temp("stats_flags.mini", PIPELINE_SRC);
    let path = file.to_str().unwrap();
    for args in [
        vec!["stats", path, "--format", "yaml"],
        vec!["stats", path, "--format"],
        vec!["stats", path, "--interval", "soon"],
        vec!["stats", path, "--iterations", "-1"],
        vec!["stats", path, "--frobnicate"],
    ] {
        let out = Command::new(patty_bin()).args(&args).output().expect("patty runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

/// The `executor.*` family joins `fault.*` in the profile schema: always
/// present, even when no plan executed on the pool.
#[test]
fn profile_reports_executor_counters_alongside_faults() {
    let plain = write_temp("profile_exec_plain.mini", "fn main() { var x = 1; print(x); }");
    let pipeline = write_temp("profile_exec_pipe.mini", PIPELINE_SRC);
    for (path, expect_work) in [(&plain, false), (&pipeline, true)] {
        let (stdout, stderr, ok) = run_patty(&["profile", path.to_str().unwrap()]);
        assert!(ok, "stderr: {stderr}");
        let report = patty_json::parse(&stdout).expect("profile output is valid JSON");
        let counters = report.get("counters").and_then(|c| c.as_arr()).expect("counters");
        let value = |name: &str| {
            counters
                .iter()
                .find(|c| c.get("name").and_then(|n| n.as_str()) == Some(name))
                .unwrap_or_else(|| panic!("missing {name} in {stdout}"))
                .get("value")
                .and_then(|v| v.as_i64())
                .unwrap()
        };
        for name in [
            "executor.lanes_spawned",
            "executor.lanes_live",
            "executor.short_submitted",
            "executor.tasks_executed",
            "executor.steals_attempted",
            "executor.injector_pops",
            "executor.parks",
        ] {
            assert!(value(name) >= 0, "{stdout}");
        }
        if expect_work {
            assert!(
                value("executor.tasks_executed") + value("executor.tasks_helped") > 0,
                "pipeline must have executed tasks on the pool: {stdout}"
            );
        }
    }
}

#[test]
fn trace_emits_chrome_json_with_events_per_stage() {
    let file = write_temp("trace.mini", PIPELINE_SRC);
    let (stdout, stderr, ok) = run_patty(&["trace", file.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    let doc = patty_json::parse(&stdout).expect("chrome trace is valid JSON");
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
    // Thread metadata names every (stage, worker) lane; the detected
    // A+ => B pipeline must produce at least one slice per stage.
    let mut tid_names = std::collections::BTreeMap::new();
    for e in events {
        if e.get("name").and_then(|n| n.as_str()) == Some("thread_name") {
            let tid = e.get("tid").and_then(|t| t.as_i64()).unwrap();
            let name =
                e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()).unwrap();
            tid_names.insert(tid, name.to_string());
        }
    }
    for stage in ["A", "B"] {
        let slices = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .filter(|e| {
                let tid = e.get("tid").and_then(|t| t.as_i64()).unwrap_or(-1);
                tid_names.get(&tid).is_some_and(|n| n.starts_with(&format!("{stage} ")))
            })
            .count();
        assert!(slices > 0, "no slices for stage {stage}: {stdout}");
    }
}

#[test]
fn trace_formats_and_flags() {
    let file = write_temp("trace_fmt.mini", PIPELINE_SRC);
    let path = file.to_str().unwrap();

    let (stdout, _, ok) = run_patty(&["trace", path, "--format", "summary"]);
    assert!(ok);
    let doc = patty_json::parse(&stdout).expect("summary is valid JSON");
    for key in ["wall_ns", "total_items", "dropped_events", "bottleneck", "stages"] {
        assert!(doc.get(key).is_some(), "missing {key}: {stdout}");
    }

    let (stdout, _, ok) = run_patty(&["trace", path, "--format", "flame"]);
    assert!(ok);
    assert!(stdout.contains("critical path:"), "{stdout}");

    let out_file = std::env::temp_dir().join("patty-cli-tests").join("trace_out.json");
    let out_path = out_file.to_str().unwrap().to_string();
    let (_, stderr, ok) = run_patty(&["trace", path, "--out", &out_path]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("wrote"), "{stderr}");
    let written = std::fs::read_to_string(&out_file).expect("trace file written");
    assert!(patty_json::parse(&written).is_ok());

    let out = Command::new(patty_bin())
        .args(["trace", path, "--format", "bogus"])
        .output()
        .expect("patty runs");
    assert_eq!(out.status.code(), Some(2), "unknown format is a usage error");
    let out = Command::new(patty_bin())
        .args(["trace", path, "--out"])
        .output()
        .expect("patty runs");
    assert_eq!(out.status.code(), Some(2), "missing flag value is a usage error");
}

#[test]
fn profile_emits_json_telemetry_report() {
    let file = write_temp("profile.mini", PIPELINE_SRC);
    let (stdout, stderr, ok) = run_patty(&["profile", file.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    let report = patty_json::parse(&stdout).expect("profile output is valid JSON");
    let counters = report.get("counters").and_then(|c| c.as_arr()).expect("counters array");
    // The detected A+ => B pipeline runs over 8 elements per stage.
    let stage_items: Vec<_> = counters
        .iter()
        .filter(|c| {
            c.get("name")
                .and_then(|n| n.as_str())
                .is_some_and(|n| n.starts_with("pipeline.stage.") && n.ends_with(".items"))
        })
        .collect();
    assert!(!stage_items.is_empty(), "{stdout}");
    for c in &stage_items {
        assert_eq!(c.get("value").and_then(|v| v.as_i64()), Some(8), "{stdout}");
    }
    let spans: Vec<String> = report
        .get("spans")
        .and_then(|s| s.as_arr())
        .expect("spans array")
        .iter()
        .filter_map(|s| s.get("name").and_then(|n| n.as_str()).map(str::to_string))
        .collect();
    for phase in ["phase.detect", "phase.annotate", "phase.transform", "phase.validate", "phase.tune"] {
        assert!(spans.iter().any(|s| s == phase), "missing {phase} in {spans:?}");
    }
    let iterations = report
        .get("tuner_iterations")
        .and_then(|t| t.as_arr())
        .expect("tuner_iterations array");
    assert!(!iterations.is_empty(), "{stdout}");
    assert!(iterations[0].get("objective").is_some());
    assert!(iterations[0].get("params").is_some());
    // The plan executes through the checked runtime entry points, so the
    // fault counter family is present (all zero on a healthy run).
    let fault_counters: Vec<_> = counters
        .iter()
        .filter(|c| {
            c.get("name").and_then(|n| n.as_str()).is_some_and(|n| n.starts_with("fault."))
        })
        .collect();
    assert!(fault_counters.len() >= 5, "{stdout}");
    for c in &fault_counters {
        assert_eq!(c.get("value").and_then(|v| v.as_i64()), Some(0), "{stdout}");
    }
}
