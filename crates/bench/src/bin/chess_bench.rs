//! Chess guard: joint schedule×fault exploration budgets on the
//! known-bug micro-corpus.
//!
//! Drives the virtual-time explorer over every corpus entry's fault
//! matrix under both search modes and asserts the deterministic-
//! validation contract CI depends on:
//!
//! * **scale** — the joint sweep executes at least [`MIN_COMBOS`]
//!   schedule×fault combinations,
//! * **zero OS threads** — the explorer is cooperative; the process
//!   thread count never rises above its starting value,
//! * **DPOR vs DFS** — on exhaustive entries DPOR reports the identical
//!   failure-kind set with strictly fewer schedules than the DFS oracle,
//! * **byte-stable replay** — one failure per failing entry is replayed
//!   from its `sched_trace_hash` alone and the two re-executions must be
//!   byte-identical,
//! * **wall cap** — in release builds the whole sweep finishes within
//!   [`WALL_CAP`].
//!
//! Prints a table and writes machine-readable `BENCH_chess.json`.

use patty_bench::print_table;
use patty_chess::corpus::{corpus, scenarios_for};
use patty_chess::{explore_joint, replay_hash, ChessOptions, FailureKind, SearchMode};
use patty_json::Json;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The joint sweep must cover at least this many schedule×fault combos.
const MIN_COMBOS: u64 = 1000;

/// Release-build wall cap for the full sweep (both modes + replays).
const WALL_CAP: Duration = Duration::from_secs(60);

/// Schedule budget per scenario; high enough that every corpus entry's
/// search exhausts under both modes, so DPOR-vs-DFS counts compare
/// completed searches, not truncations.
const BUDGET: u64 = 50_000;

fn options(mode: SearchMode) -> ChessOptions {
    ChessOptions { max_schedules: BUDGET, mode, ..ChessOptions::default() }
}

/// Coarse failure-kind set of a joint report (payloads included —
/// `FailureKind` is `Ord` and both modes must agree byte-for-byte).
fn kind_set(joint: &patty_chess::JointReport) -> BTreeSet<FailureKind> {
    joint
        .scenarios
        .iter()
        .flat_map(|s| s.report.failures.iter().map(|f| f.kind.clone()))
        .collect()
}

/// `Threads:` line of /proc/self/status, or `None` off Linux.
fn os_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

struct Row {
    name: &'static str,
    scenarios: usize,
    dpor_combos: u64,
    dfs_combos: u64,
    dpor_steps: u64,
    failures: usize,
    replayed: bool,
    coverage_permille: u64,
    truncated_coverage_permille: u64,
}

impl Row {
    fn json(&self) -> Json {
        Json::obj()
            .with("entry", Json::Str(self.name.into()))
            .with("scenarios", Json::Int(self.scenarios as i64))
            .with("dpor_combos", Json::Int(self.dpor_combos as i64))
            .with("dfs_combos", Json::Int(self.dfs_combos as i64))
            .with("dpor_steps", Json::Int(self.dpor_steps as i64))
            .with("failures", Json::Int(self.failures as i64))
            .with("replayed_byte_stable", Json::Bool(self.replayed))
            .with("coverage_permille", Json::Int(self.coverage_permille as i64))
            .with(
                "truncated_coverage_permille",
                Json::Int(self.truncated_coverage_permille as i64),
            )
    }
}

fn main() {
    let start = Instant::now();
    let threads_before = os_threads();

    let mut rows = Vec::new();
    for entry in corpus() {
        let scenarios = scenarios_for(&entry);
        let dpor = explore_joint(entry.test, &scenarios, &options(SearchMode::Dpor));
        let dfs = explore_joint(entry.test, &scenarios, &options(SearchMode::Dfs));

        let exhaustive = dpor.scenarios.iter().all(|s| s.report.complete)
            && dfs.scenarios.iter().all(|s| s.report.complete);
        assert!(exhaustive, "{}: budget {BUDGET} must exhaust both searches", entry.name);
        assert_eq!(
            kind_set(&dpor),
            kind_set(&dfs),
            "{}: DPOR and the DFS oracle must report the identical failure set",
            entry.name
        );
        assert!(
            dpor.combos < dfs.combos,
            "{}: DPOR must explore strictly fewer schedules ({} !< {})",
            entry.name,
            dpor.combos,
            dfs.combos
        );

        // Replay the first failure (if any) from its hash alone.
        let failures: Vec<_> = dpor
            .scenarios
            .iter()
            .flat_map(|s| s.report.failures.iter())
            .collect();
        let replayed = match failures.first() {
            Some(f) => {
                let outcome =
                    replay_hash(entry.test, &scenarios, &options(SearchMode::Dpor), f.trace_hash)
                        .unwrap_or_else(|| {
                            panic!("{}: hash {:#018x} not found on re-exploration", entry.name, f.trace_hash)
                        });
                assert!(outcome.byte_stable, "{}: replay must be byte-stable", entry.name);
                true
            }
            None => false,
        };

        // Coverage accounting: an exhausted search must report exactly
        // 1000‰; the same sweep under a tiny budget must report an open
        // frontier and strictly partial coverage.
        assert_eq!(
            dpor.coverage_permille(),
            1000,
            "{}: exhaustive DPOR sweep must report 1000 permille coverage",
            entry.name
        );
        let truncated = explore_joint(
            entry.test,
            &scenarios,
            &ChessOptions { max_schedules: 2, mode: SearchMode::Dpor, ..ChessOptions::default() },
        );
        let truncated_coverage = truncated.coverage_permille();
        if !truncated.all_complete() {
            assert!(
                truncated_coverage < 1000,
                "{}: truncated sweep must not claim exhaustion",
                entry.name
            );
            assert!(
                truncated.frontier_open > 0,
                "{}: truncated sweep must leave frontier branches open",
                entry.name
            );
        }

        rows.push(Row {
            name: entry.name,
            scenarios: scenarios.len(),
            dpor_combos: dpor.combos,
            dfs_combos: dfs.combos,
            dpor_steps: dpor.total_steps,
            failures: failures.len(),
            replayed,
            coverage_permille: dpor.coverage_permille(),
            truncated_coverage_permille: truncated_coverage,
        });
    }

    let threads_after = os_threads();
    let elapsed = start.elapsed();
    let total_combos: u64 = rows.iter().map(|r| r.dpor_combos + r.dfs_combos).sum();

    print_table(
        "chess guard: joint schedule×fault exploration",
        &["entry", "scenarios", "dpor", "dfs", "steps", "failures", "replayed", "cov‰"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    r.scenarios.to_string(),
                    r.dpor_combos.to_string(),
                    r.dfs_combos.to_string(),
                    r.dpor_steps.to_string(),
                    r.failures.to_string(),
                    r.replayed.to_string(),
                    r.coverage_permille.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\ntotal: {total_combos} schedule×fault combination(s) in {:.2}s, threads {:?} -> {:?}",
        elapsed.as_secs_f64(),
        threads_before,
        threads_after
    );

    assert!(
        total_combos >= MIN_COMBOS,
        "joint sweep must cover >= {MIN_COMBOS} combinations, got {total_combos}"
    );
    assert!(
        rows.iter().any(|r| r.replayed),
        "at least one failure must replay byte-stably from its hash"
    );
    if let (Some(before), Some(after)) = (threads_before, threads_after) {
        assert!(
            after <= before,
            "the explorer must not spawn OS threads ({before} -> {after})"
        );
    }
    // Wall cap only where optimizations ran; a debug sweep is a smoke test.
    if !cfg!(debug_assertions) {
        assert!(
            elapsed <= WALL_CAP,
            "sweep took {:.2}s, cap is {:.0}s",
            elapsed.as_secs_f64(),
            WALL_CAP.as_secs_f64()
        );
    }

    let mut json: Vec<Json> = rows.iter().map(Row::json).collect();
    json.push(
        Json::obj()
            .with("guard", Json::Str("chess_joint_budgets".into()))
            .with("result", Json::Str("guard_passed".into()))
            .with("total_combos", Json::Int(total_combos as i64))
            .with(
                "coverage_permille",
                Json::Int(
                    rows.iter().map(|r| r.coverage_permille).min().unwrap_or(0) as i64,
                ),
            )
            .with("elapsed_ms", Json::Int(elapsed.as_millis() as i64))
            .with(
                "combos_per_s",
                Json::Int((total_combos as f64 / elapsed.as_secs_f64().max(1e-9)) as i64),
            )
            .with(
                "os_threads",
                match threads_after {
                    Some(t) => Json::Int(t as i64),
                    None => Json::Null,
                },
            ),
    );
    std::fs::write("BENCH_chess.json", Json::Arr(json).to_string_pretty() + "\n")
        .expect("write BENCH_chess.json");
    println!("wrote BENCH_chess.json");
}
