//! The `patty` command-line tool.
//!
//! The paper's Patty is a Visual Studio plugin; the CLI exposes the same
//! process model and operation modes on the terminal:
//!
//! ```text
//! patty analyze  <file.mini>    # phases 1–2: candidates + overlay
//! patty annotate <file.mini>    # phase 3: print TADL-annotated source
//! patty transform <file.mini>   # phase 4: plan + tuning config + Fig.3d code
//! patty validate <file.mini>    # mode 4: CHESS on generated unit tests
//! patty tune     <file.mini>    # mode 4: auto-tuning cycle (linear search)
//! patty profile  <file.mini>    # run with telemetry: JSON report of
//!                               # per-stage item counts, per-phase span
//!                               # timings and tuner iteration logs
//!                               # (plans run under a guard deadline, so
//!                               # pipeline stages are always threaded)
//! patty faultcheck <file.mini> [--replay HASH]
//!                               # run the generated plan under a matrix
//!                               # of injected faults; every scenario must
//!                               # recover to the sequential oracle or
//!                               # fail with a structured error. Also runs
//!                               # the joint schedule×fault exploration:
//!                               # every failing scenario prints its
//!                               # sched_trace_hash; --replay re-executes
//!                               # that interleaving byte-stably
//! patty chess <file.mini> [--mode dpor|dfs] [--replay HASH]
//!                               # joint schedule×fault exploration of the
//!                               # generated unit tests on the virtual-time
//!                               # chess scheduler (DPOR by default, DFS as
//!                               # the exhaustive oracle); zero OS threads,
//!                               # byte-reproducible
//! patty trace <file.mini> [--out FILE] [--format chrome|flame|summary]
//!                               # run with structured tracing: Chrome
//!                               # trace_event JSON (load in Perfetto),
//!                               # plain-text flame summary, or the
//!                               # stable per-stage summary JSON; as in
//!                               # `profile`, pipeline stage lanes are
//!                               # always threaded
//! patty stats <file.mini> [--format prom|json] [--watch]
//!             [--deterministic] [--interval MS] [--iterations N]
//!                               # unified observability snapshot:
//!                               # executor lane counters, telemetry,
//!                               # trace aggregates and VM profiler
//!                               # stats in one registry. Prometheus
//!                               # text exposition by default; --watch
//!                               # renders a live terminal dashboard;
//!                               # --deterministic makes the output
//!                               # byte-stable (virtual clock, no
//!                               # wall-clock pool execution)
//! patty serve [--addr HOST:PORT] [--stdin] [--cache-dir DIR]
//!             [--no-spill] [--cache-capacity N] [--shards N]
//!             [--max-concurrent N] [--queue-limit N] [--deadline-ms N]
//!                               # daemon mode: a patty-json line protocol
//!                               # over TCP (or stdin/stdout loopback)
//!                               # accepting analyze|tune|faultcheck|trace
//!                               # jobs, content-addressed artifact cache,
//!                               # admission control, live `stats` scrape
//! patty modes                   # describe the four operation modes
//! ```
//!
//! Exit codes: 0 success, 1 processing/runtime failure, 2 usage error,
//! 3 internal error (a panic that escaped — reported as one line on
//! stderr, never a backtrace).
//!
//! Files with TADL `#region` annotations are processed in mode 2
//! (annotations drive the transformation); plain files run mode 1
//! (fully automatic).

use patty_tool::{render_candidates, render_overlay, Patty, PattyRun};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A panic that escapes the fault-tolerant runtime is an internal
    // error: report it as a single stderr line, never a backtrace.
    // Panics on worker threads are caught and structured by the runtime,
    // so the hook only speaks for the main thread.
    std::panic::set_hook(Box::new(|info| {
        if std::thread::current().name() == Some("main") {
            let msg = patty_runtime::fault::panic_payload(info.payload());
            eprintln!("patty: internal error: {msg}");
        }
    }));
    let code = std::panic::catch_unwind(|| run(&args)).unwrap_or(3);
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    let usage = "usage: patty <analyze|annotate|transform|validate|tune|profile|faultcheck|chess|trace|stats|serve|modes> [file.mini]\n       patty trace <file.mini> [--out FILE] [--format chrome|flame|summary]\n       patty chess <file.mini> [--mode dpor|dfs] [--replay HASH]\n       patty faultcheck <file.mini> [--replay HASH]\n       patty stats <file.mini> [--format prom|json] [--watch] [--deterministic] [--interval MS] [--iterations N]\n       patty serve [--addr HOST:PORT] [--stdin] [--cache-dir DIR] [--no-spill] [--cache-capacity N] [--shards N] [--max-concurrent N] [--queue-limit N] [--deadline-ms N]";
    let Some(cmd) = args.first() else {
        eprintln!("{usage}");
        return 2;
    };
    if cmd == "modes" {
        print!("{}", patty_tool::describe_modes());
        return 0;
    }
    // `serve` takes no input file: jobs arrive over the wire.
    if cmd == "serve" {
        return patty_tool::servecmd::serve(&args[1..]);
    }
    let known = [
        "analyze", "annotate", "transform", "validate", "tune", "profile", "faultcheck", "chess",
        "trace", "stats",
    ];
    if !known.contains(&cmd.as_str()) {
        eprintln!("unknown command `{cmd}`\n{usage}");
        return 2;
    }
    let Some(path) = args.get(1) else {
        eprintln!("{usage}");
        return 2;
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 1;
        }
    };
    let patty = Patty::new();
    if cmd == "tune" {
        // Tuning routes through the content-addressed artifact cache:
        // repeat invocations over an unchanged file are served from the
        // spilled artifact instead of re-running the search.
        return patty_tool::tune_cached(&patty, &source);
    }
    if cmd == "trace" {
        return trace(&patty, &source, &args[2..]);
    }
    if cmd == "chess" {
        return chess(&patty, &source, &args[2..]);
    }
    if cmd == "faultcheck" {
        return faultcheck(&patty, &source, &args[2..]);
    }
    if cmd == "stats" {
        return stats(&patty, path, &source, &args[2..]);
    }
    if cmd == "profile" {
        // Telemetry profile: the process runs inside `Patty::profile` with
        // an enabled sink, so skip the plain run below.
        return match patty.profile(&source) {
            Ok(report) => {
                println!("{}", report.to_json());
                0
            }
            Err(e) => {
                eprintln!("patty: {e}");
                1
            }
        };
    }
    let run = match patty.run(&source) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("patty: {e}");
            return 1;
        }
    };
    match cmd.as_str() {
        "analyze" => analyze(&run),
        "annotate" => return annotate(&patty, &run),
        "transform" => transform(&run),
        "validate" => validate(&patty, &run),
        other => unreachable!("command `{other}` validated above"),
    }
    0
}

/// Parse a `sched_trace_hash` CLI argument (hex, optional `0x` prefix).
fn parse_hash(s: &str) -> Option<u64> {
    u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
}

/// `patty chess <file.mini> [--mode dpor|dfs] [--replay HASH]`.
fn chess(patty: &Patty, source: &str, flags: &[String]) -> i32 {
    let mut mode = patty_chess::SearchMode::Dpor;
    let mut replay: Option<u64> = None;
    let mut i = 0;
    while i < flags.len() {
        let value = flags.get(i + 1).map(String::as_str);
        match (flags[i].as_str(), value) {
            ("--mode", Some("dpor")) => mode = patty_chess::SearchMode::Dpor,
            ("--mode", Some("dfs")) => mode = patty_chess::SearchMode::Dfs,
            ("--mode", Some(other)) => {
                eprintln!("patty chess: unknown mode `{other}` (expected dpor or dfs)");
                return 2;
            }
            ("--replay", Some(hash)) => match parse_hash(hash) {
                Some(h) => replay = Some(h),
                None => {
                    eprintln!("patty chess: `--replay` needs a hex trace hash, got `{hash}`");
                    return 2;
                }
            },
            (flag @ ("--mode" | "--replay"), None) => {
                eprintln!("patty chess: `{flag}` needs a value");
                return 2;
            }
            (other, _) => {
                eprintln!("patty chess: unknown flag `{other}`");
                return 2;
            }
        }
        i += 2;
    }
    let mut patty = patty.clone();
    patty.options.chess.mode = mode;
    let run = match patty.run(source) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("patty: {e}");
            return 1;
        }
    };
    if let Some(hash) = replay {
        return match patty_tool::chess_replay(&patty, &run, hash) {
            Some((arch, outcome)) => {
                print!("{}", patty_tool::render_replay(&arch, &outcome));
                i32::from(!outcome.byte_stable)
            }
            None => {
                eprintln!("patty chess: no explored failure carries hash {hash:#018x}");
                1
            }
        };
    }
    let report = patty_tool::chess_explore(&patty, &run);
    print!("{}", report.render());
    if report.is_empty() {
        eprintln!("patty: chess: no parallel architectures with unit tests detected");
        return 1;
    }
    i32::from(!report.passed())
}

/// `patty stats <file.mini> [--format prom|json] [--watch]
/// [--deterministic] [--interval MS] [--iterations N]`.
///
/// `--iterations` bounds the `--watch` loop (0 = forever) so scripted
/// and test invocations terminate; `--interval` is the refresh period
/// in milliseconds.
fn stats(patty: &Patty, path: &str, source: &str, flags: &[String]) -> i32 {
    let mut format = "prom";
    let mut watch = false;
    let mut deterministic = false;
    let mut interval_ms: u64 = 1000;
    let mut iterations: u64 = 0;
    let mut i = 0;
    while i < flags.len() {
        match flags[i].as_str() {
            "--watch" => {
                watch = true;
                i += 1;
            }
            "--deterministic" => {
                deterministic = true;
                i += 1;
            }
            flag @ ("--format" | "--interval" | "--iterations") => {
                let Some(value) = flags.get(i + 1).map(String::as_str) else {
                    eprintln!("patty stats: `{flag}` needs a value");
                    return 2;
                };
                match flag {
                    "--format" => {
                        if !["prom", "json"].contains(&value) {
                            eprintln!(
                                "patty stats: unknown format `{value}` (expected prom or json)"
                            );
                            return 2;
                        }
                        format = value;
                    }
                    "--interval" => match value.parse() {
                        Ok(ms) => interval_ms = ms,
                        Err(_) => {
                            eprintln!("patty stats: `--interval` needs milliseconds, got `{value}`");
                            return 2;
                        }
                    },
                    _ => match value.parse() {
                        Ok(n) => iterations = n,
                        Err(_) => {
                            eprintln!("patty stats: `--iterations` needs a count, got `{value}`");
                            return 2;
                        }
                    },
                }
                i += 2;
            }
            other => {
                eprintln!("patty stats: unknown flag `{other}`");
                return 2;
            }
        }
    }
    if watch {
        let mut frame = 0u64;
        loop {
            let reg = match patty_tool::stats_registry(patty, source, deterministic) {
                Ok(reg) => reg,
                Err(e) => {
                    eprintln!("patty: {e}");
                    return 1;
                }
            };
            if frame > 0 {
                // Repaint in place; the first frame scrolls normally so
                // piped output keeps every frame.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", patty_obs::render_dashboard(&reg, path, frame));
            frame += 1;
            if iterations > 0 && frame >= iterations {
                return 0;
            }
            std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        }
    }
    match patty_tool::stats_registry(patty, source, deterministic) {
        Ok(reg) => {
            match format {
                "prom" => print!("{}", reg.prometheus()),
                _ => println!("{}", reg.to_json()),
            }
            0
        }
        Err(e) => {
            eprintln!("patty: {e}");
            1
        }
    }
}

/// `patty faultcheck <file.mini> [--replay HASH]`.
fn faultcheck(patty: &Patty, source: &str, flags: &[String]) -> i32 {
    let mut replay: Option<u64> = None;
    let mut i = 0;
    while i < flags.len() {
        let value = flags.get(i + 1).map(String::as_str);
        match (flags[i].as_str(), value) {
            ("--replay", Some(hash)) => match parse_hash(hash) {
                Some(h) => replay = Some(h),
                None => {
                    eprintln!("patty faultcheck: `--replay` needs a hex trace hash, got `{hash}`");
                    return 2;
                }
            },
            ("--replay", None) => {
                eprintln!("patty faultcheck: `--replay` needs a value");
                return 2;
            }
            (other, _) => {
                eprintln!("patty faultcheck: unknown flag `{other}`");
                return 2;
            }
        }
        i += 2;
    }
    if let Some(hash) = replay {
        let run = match patty.run(source) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("patty: {e}");
                return 1;
            }
        };
        return match patty_tool::chess_replay(patty, &run, hash) {
            Some((arch, outcome)) => {
                print!("{}", patty_tool::render_replay(&arch, &outcome));
                i32::from(!outcome.byte_stable)
            }
            None => {
                eprintln!("patty faultcheck: no explored failure carries hash {hash:#018x}");
                1
            }
        };
    }
    match patty_tool::faultcheck(patty, source) {
        Ok(report) => {
            print!("{}", report.render());
            if report.passed() {
                0
            } else if report.scenarios.is_empty() {
                eprintln!("patty: faultcheck: no parallel architectures detected");
                1
            } else if report.scenarios.iter().any(|s| !s.passed()) {
                eprintln!("patty: faultcheck failed: output diverged from sequential oracle");
                1
            } else {
                eprintln!(
                    "patty: faultcheck failed: unexpected schedule×fault failures \
                     (re-execute one with `patty faultcheck <file> --replay <hash>`)"
                );
                1
            }
        }
        Err(e) => {
            eprintln!("patty: {e}");
            1
        }
    }
}

/// `patty trace <file.mini> [--out FILE] [--format chrome|flame|summary]`.
fn trace(patty: &Patty, source: &str, flags: &[String]) -> i32 {
    let mut out: Option<&str> = None;
    let mut format = "chrome";
    let mut i = 0;
    while i < flags.len() {
        let value = flags.get(i + 1).map(String::as_str);
        match (flags[i].as_str(), value) {
            ("--out", Some(path)) => out = Some(path),
            ("--format", Some(f)) => format = f,
            (flag @ ("--out" | "--format"), None) => {
                eprintln!("patty trace: `{flag}` needs a value");
                return 2;
            }
            (other, _) => {
                eprintln!("patty trace: unknown flag `{other}`");
                return 2;
            }
        }
        i += 2;
    }
    if !["chrome", "flame", "summary"].contains(&format) {
        eprintln!("patty trace: unknown format `{format}` (expected chrome, flame or summary)");
        return 2;
    }
    let (trace, report) = match patty.trace(source) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("patty: {e}");
            return 1;
        }
    };
    let rendered = match format {
        "chrome" => patty_trace::chrome_trace(&trace).to_string_pretty(),
        "flame" => patty_trace::flame_summary(&report),
        _ => report.to_json(),
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered + "\n") {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{rendered}"),
    }
    0
}

fn analyze(run: &PattyRun) {
    println!("— process (Fig. 4a) —");
    print!(
        "{}",
        patty_tool::render_process_chart(patty_tool::Phase::PatternAnalysis)
    );
    let instances: Vec<_> = run.artifacts.iter().map(|a| a.instance.clone()).collect();
    println!("\n— detected candidates —");
    print!("{}", render_candidates(&instances));
    for a in &run.artifacts {
        println!("\n— overlay: {} —", a.arch.name);
        print!("{}", render_overlay(&run.model.program, &a.instance));
    }
}

fn annotate(patty: &Patty, run: &PattyRun) -> i32 {
    let sources = match patty.annotate(run) {
        Ok(sources) => sources,
        Err(e) => {
            eprintln!("patty: {e}");
            return 1;
        }
    };
    for (a, source) in run.artifacts.iter().zip(sources) {
        println!("// —— annotated source for {} ——", a.arch.name);
        println!("{source}");
    }
    0
}

fn transform(run: &PattyRun) {
    for a in &run.artifacts {
        println!("— {} —", a.arch.name);
        println!("architecture: {}", a.arch.expr);
        println!("\n[tuning configuration]\n{}", a.instance.tuning.to_json());
        println!("\n[parallel source]\n{}", a.plan.code);
    }
}

fn validate(patty: &Patty, run: &PattyRun) {
    let inputs = patty.coverage_inputs(run);
    if !inputs.is_empty() {
        println!("— path-coverage inputs for unit tests —");
        for (func, report) in &inputs {
            println!(
                "  {func}: {} input set(s), {}/{} branch goals covered",
                report.inputs.len(),
                report.covered,
                report.total
            );
        }
    }
    for (name, report) in patty.validate_correctness(run) {
        println!(
            "{name}: {} schedule(s), {}",
            report.schedules,
            if report.failures.is_empty() {
                "no parallel errors found".to_string()
            } else {
                format!(
                    "{} failure(s): {}",
                    report.failures.len(),
                    report
                        .failures
                        .iter()
                        .map(|f| f.kind.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                )
            }
        );
    }
}

