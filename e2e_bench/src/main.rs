//! `e2e_bench` — the repo's performance yardstick: four workloads, each
//! verified against references the code under test did not produce,
//! every end-to-end metric with tracing off and every per-layer metric
//! from a separate traced run. See README.md beside this package.

mod corpus;
mod host;
mod metrics;
mod repeat;
mod runtime;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Duration;
use trace::Span;

/// Set-up is done this often in a run and its median reported, so that
/// work a later change moves into set-up shows without the noise of a
/// single cold start.
pub const SETUP_REPEATS: usize = 3;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "process_corpus",
        "the paper's whole process per corpus program in short-lived child processes: VM, analysis, detection, transform, testgen, chess and tuning work; serve and runtime do not",
    ),
    (
        "serve_hot",
        "every request a memory hit over loopback TCP: protocol, json, cache reads and framing work, compute does not; the delayed-ACK floor shows here",
    ),
    (
        "serve_churn",
        "a quarter of requests are never-seen size-scaled programs: inserts, evictions, spill, disk hits, admission and static analysis of large sources work",
    ),
    (
        "runtime_patterns",
        "pipeline, parallel-for and master-worker on the shared executor: coarse kinds measure real speed-up on the host's cores, fine kinds per-item overhead",
    ),
];

/// What the driver's arguments fix for one run.
pub struct Plan {
    pub seed: u64,
    pub duration: Duration,
    pub traced: bool,
}

/// What a workload hands back; the metrics are computed from it here.
pub struct Outcome {
    pub kinds: Vec<String>,
    /// Wall time of every op in ms, per kind.
    pub samples: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// One entry per repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// What `ops_per_s` divides by: summed op wall for the sequential
    /// workloads, the measurement window for the concurrent ones.
    pub timed_wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_kb: u64,
    pub layers: BTreeMap<String, f64>,
    pub recorders: Vec<Vec<Span>>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(kinds: Vec<String>) -> Outcome {
        Outcome {
            samples: vec![Vec::new(); kinds.len()],
            kinds,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            setup_s: Vec::new(),
            timed_wall_s: 0.0,
            cpu_s: 0.0,
            peak_rss_kb: 0,
            layers: BTreeMap::new(),
            recorders: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// One op: its time counts either way, a mismatch or error counts as
    /// failed and never stops the run.
    pub fn record(&mut self, kind: usize, ms: f64, verdict: Result<(), String>) {
        self.attempted += 1;
        self.samples[kind].push(ms);
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            metrics::PER_LAYER.iter().any(|m| m.name == name),
            "per-layer metric {name} is not in the table"
        );
        self.layers.insert(name.to_string(), value);
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: e2e_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      e2e_bench [--repeat N] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
         \x20      e2e_bench compare <parent.json> <change.json>\n\
         \x20      e2e_bench --list"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
            usage()
        };
        std::process::exit(repeat::compare_files(a, b));
    }
    let mut workload = None;
    let mut seed = metrics::DEFAULT_SEED;
    let mut seconds = metrics::DEFAULT_SECONDS;
    let mut traced = false;
    let mut repeats = 1usize;
    let mut out_file = None;
    let mut corpus_child = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--list" => {
                for (name, why) in WORKLOADS {
                    println!("{name}: {why}");
                }
                return;
            }
            "--corpus-child" => corpus_child = true,
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--repeat" => repeats = value().parse().unwrap_or_else(|_| usage()),
            "--out" => out_file = Some(value()),
            _ => usage(),
        }
    }
    if corpus_child {
        std::process::exit(corpus::child(seed, traced));
    }
    let Some(workload) = workload else {
        std::process::exit(repeat::run(
            repeats.max(1),
            seed,
            seconds,
            traced,
            out_file.as_deref(),
        ));
    };
    let plan = Plan {
        seed,
        duration: Duration::from_secs_f64(seconds),
        traced,
    };
    let calib_before = if traced { host_calib() } else { Vec::new() };
    let result = match workload.as_str() {
        "process_corpus" => corpus::run(&plan),
        "serve_hot" => serve::run(&plan, false),
        "serve_churn" => serve::run(&plan, true),
        "runtime_patterns" => runtime::run(&plan),
        _ => usage(),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2e_bench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    if traced {
        let calib = stats::median(&[calib_before, host_calib()].concat());
        out.layer("host.calib_ms", calib);
        if !out.layers.contains_key("host.runq_wait_share") {
            let (on_cpu, runnable) = host::sched_ns();
            out.layer(
                "host.runq_wait_share",
                runnable as f64 / (on_cpu + runnable).max(1) as f64,
            );
        }
    }
    let line = metrics::report(&workload, &plan, &out);
    if traced {
        if let Err(e) = write_trace(&workload, &out.recorders) {
            eprintln!("e2e_bench: cannot write the trace: {e}");
            std::process::exit(1);
        }
    }
    println!("{line}");
}

fn host_calib() -> Vec<f64> {
    (0..5).map(|_| host::calib_ms()).collect()
}

/// Where the benchmark may write: the build directory of its checkout.
pub fn scratch_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(target).join("e2e_bench")
}

fn write_trace(workload: &str, recorders: &[Vec<Span>]) -> std::io::Result<()> {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(
        &path,
        trace::to_json(workload, recorders).to_string() + "\n",
    )?;
    let spans: usize = recorders.iter().map(Vec::len).sum();
    println!("trace: {spans} spans -> {}", path.display());
    Ok(())
}
