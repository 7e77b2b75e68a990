//! `--repeat N`: the full set N times, each run a process of its own,
//! with the spread of every metric and the bound that spread calibrates;
//! and `compare`: the rule of choosing-metrics §8 over two such files.

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{self, Verdict};
use crate::WORKLOADS;
use patty_json::Json;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Workload → metric → one value per run, in run order.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

pub fn run(repeats: usize, seed: u64, seconds: f64, traced: bool, out_file: Option<&str>) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e_bench: current_exe: {e}");
            return 1;
        }
    };
    let mut table = Table::new();
    let mut all_correct = true;
    for r in 0..repeats {
        for (workload, _) in WORKLOADS {
            // Another seed each run, as the driver does it.
            let output = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &(seed + r as u64).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let output = match output {
                Ok(o) if o.status.success() => o,
                Ok(o) => {
                    eprintln!("e2e_bench: {workload} run {r} exited with {}", o.status);
                    return 1;
                }
                Err(e) => {
                    eprintln!("e2e_bench: spawn {workload}: {e}");
                    return 1;
                }
            };
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            let Some(result) = text.lines().last().and_then(|l| patty_json::parse(l).ok()) else {
                eprintln!("e2e_bench: {workload} run {r} printed no result line");
                return 1;
            };
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            let metrics = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                table
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }

    let mut bounds: BTreeMap<String, f64> = BTreeMap::new();
    if repeats > 1 {
        println!("\n== {repeats} runs: median, quartiles, inter-quartile spread as a share of the median ==");
        println!(
            "{:<18} {:<34} {:>12} {:>12} {:>12} {:>8}",
            "workload", "metric", "q1", "median", "q3", "spread"
        );
        for (workload, _) in WORKLOADS {
            for (name, values) in &table[workload] {
                let [q1, q2, q3] = stats::quartiles(values);
                let spread = if q2 == 0.0 {
                    0.0
                } else {
                    stats::rel_spread(values)
                };
                println!(
                    "{workload:<18} {name:<34} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.2}%",
                    spread * 100.0
                );
                let bound = bounds.entry(name.clone()).or_insert(0.0);
                *bound = bound.max(stats::calibrated_bound(spread));
            }
        }
        println!(
            "\ncalibrated bounds, clamp(3 x the widest spread over the workloads, 0.03, 0.25):"
        );
        for (name, bound) in &bounds {
            println!("{name:<34} {bound:.3}");
        }
    }
    if let Some(path) = out_file {
        let mut workloads = Json::obj();
        for (workload, metrics) in &table {
            let mut obj = Json::obj();
            for (name, values) in metrics {
                obj = obj.with(
                    name.as_str(),
                    Json::Arr(values.iter().map(|v| Json::from(*v)).collect()),
                );
            }
            workloads = workloads.with(workload.as_str(), obj);
        }
        let mut calibrated = Json::obj();
        for (name, bound) in &bounds {
            calibrated = calibrated.with(name.as_str(), *bound);
        }
        let file = Json::obj()
            .with("runs", repeats)
            .with("seconds", seconds)
            .with("workloads", workloads)
            .with("calibrated_bounds", calibrated);
        if let Err(e) = std::fs::write(path, file.to_string_pretty() + "\n") {
            eprintln!("e2e_bench: {path}: {e}");
            return 1;
        }
        println!("wrote {path}");
    }
    i32::from(!all_correct)
}

fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = patty_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = file
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or(format!("{path}: no workloads"))?;
    let mut table = Table::new();
    for (workload, metrics) in workloads {
        for (name, values) in metrics.as_obj().unwrap_or(&[]) {
            let values = values
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            table
                .entry(workload.clone())
                .or_default()
                .insert(name.clone(), values);
        }
    }
    Ok(table)
}

/// Run i of the parent is paired with run i of the change; produce both
/// files by alternating which side runs first.
pub fn compare_files(parent: &str, change: &str) -> i32 {
    let (parent, change) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("e2e_bench compare: {e}");
            return 1;
        }
    };
    println!(
        "{:<18} {:<34} {:>12} {:>12} {:>6}  verdict",
        "workload", "metric", "parent med", "change med", "pairs"
    );
    let mut worse = false;
    for (workload, metrics) in &parent {
        for (name, a) in metrics {
            let Some(b) = change.get(workload).and_then(|m| m.get(name)) else {
                continue;
            };
            let Some(m) = metric(name) else { continue };
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let verdict = stats::compare(a, b, m.lower_is_better, m.bound);
            worse |= verdict == Verdict::Worse;
            println!(
                "{workload:<18} {name:<34} {:>12.4} {:>12.4} {:>6}  {verdict:?}",
                stats::median(a),
                stats::median(b),
                a.len().min(b.len())
            );
        }
    }
    i32::from(worse)
}
