//! The chess search contract, pinned to a committed golden file.
//!
//! How the scheduler suspends and resumes a task is an implementation
//! detail; *which* schedules a search visits is not. For every corpus
//! program's generated unit tests and every known-bug corpus entry this
//! records, in both search modes, how many schedules and steps the search
//! ran, whether it completed, and each failure's kind, witness schedule,
//! `sched_trace_hash` and fault attribution. A scheduler change that
//! alters any decision sequence changes this file's bytes.

mod common;

use patty_workspace::chess::corpus::{corpus, scenarios_for};
use patty_workspace::chess::{explore_joint, ChessOptions, Report, SearchMode};
use patty_workspace::corpus::all_programs;
use patty_workspace::patty::Patty;
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden/chess_contract.txt");
const MODES: [SearchMode; 2] = [SearchMode::Dpor, SearchMode::Dfs];

fn render(out: &mut String, head: &str, report: &Report) {
    writeln!(
        out,
        "{head} schedules={} total_steps={} complete={}",
        report.schedules, report.total_steps, report.complete
    )
    .unwrap();
    for f in &report.failures {
        writeln!(
            out,
            "  {} | schedule={:?} trace_hash={:016x} fault_induced={}",
            f.kind, f.schedule, f.trace_hash, f.fault_induced
        )
        .unwrap();
    }
}

fn actual() -> String {
    let mut out = String::new();
    for mode in MODES {
        let mut patty = Patty::new();
        patty.options.chess.mode = mode;
        for prog in all_programs() {
            let run = patty.run_automatic(prog.source).expect("corpus programs run");
            for (arch, report) in patty.validate_correctness(&run) {
                render(&mut out, &format!("{mode:?} {}/{arch}", prog.name), &report);
            }
        }
    }
    for mode in MODES {
        let options = ChessOptions { mode, ..ChessOptions::default() };
        for entry in corpus() {
            let joint = explore_joint(entry.test, &scenarios_for(&entry), &options);
            for s in &joint.scenarios {
                let head = format!("{mode:?} joint {}/{}", entry.name, s.scenario.encode());
                render(&mut out, &head, &s.report);
            }
        }
    }
    out
}

#[test]
fn search_results_match_the_golden_file() {
    let actual = actual();
    common::assert_matches_golden("chess_contract", &actual, GOLDEN);
}
