//! Behaviour simulation: what each participant does on the RayTracing
//! task ("Find all source code locations that are appropriate candidates
//! for parallel execution"), producing the objective measurements of
//! Section 4.2 (found locations, false positives, working times).
//!
//! The Patty group's findings are not scripted — they come from running
//! the *actual* detector on the actual benchmark; the tool models for the
//! commercial-profiler group and the manual group encode exactly the
//! workflow properties the paper reports (profiler reveals only the
//! hottest location; the annotation language costs learning time; manual
//! engineers overlook data races).

use crate::roster::{Group, Participant};
use patty_analysis::{collect_loops, SemanticModel};
use patty_corpus::raytracer_program;
use patty_minilang::{InterpOptions, NodeId};
use patty_patterns::{detect_patterns, DetectOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The benchmark as the simulation sees it.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Ground-truth parallelizable loops.
    pub truth: BTreeSet<NodeId>,
    /// What Patty's automatic mode detects (loop ids).
    pub patty_found: Vec<NodeId>,
    /// The one location the runtime profiler reveals (highest share).
    pub profiler_hotspot: Option<NodeId>,
    /// The remaining (non-hotspot) true locations, hardest first.
    pub hidden_truth: Vec<NodeId>,
    /// The racy-looking trap loops (manual false positives).
    pub traps: Vec<NodeId>,
}

/// Run the real toolchain on the study benchmark once.
pub(crate) fn prepare_benchmark() -> Benchmark {
    let prog = raytracer_program();
    let parsed = prog.parse();
    let model = SemanticModel::build(&parsed, InterpOptions::default())
        .expect("raytracer runs");
    let loops = collect_loops(&parsed);
    let truth: BTreeSet<NodeId> = prog.truth_loop_ids(&loops).into_iter().collect();
    let patty_found: Vec<NodeId> = detect_patterns(&model, &DetectOptions::default())
        .into_iter()
        .map(|i| i.loop_id)
        .collect();
    // The profiler surfaces the hottest main-function loop only.
    let profiler_hotspot = loops
        .iter()
        .filter(|l| l.func == "main")
        .max_by(|a, b| {
            model
                .runtime_share(a.id)
                .total_cmp(&model.runtime_share(b.id))
        })
        .map(|l| l.id);
    let hidden_truth: Vec<NodeId> = truth
        .iter()
        .filter(|id| Some(**id) != profiler_hotspot)
        .copied()
        .collect();
    // Traps: the labeled-false main loops whose body is a single shared-
    // state mutation (they "look parallel"): histogram and smoother.
    let traps: Vec<NodeId> = loops
        .iter()
        .filter(|l| l.func == "main" && !truth.contains(&l.id) && l.depth == 0)
        .filter(|l| l.body_stmts.len() == 1)
        .map(|l| l.id)
        .collect();
    Benchmark { truth, patty_found, profiler_hotspot, hidden_truth, traps }
}

/// One participant's objective outcome.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub participant_id: usize,
    pub group: Group,
    /// Correctly identified locations.
    pub found: BTreeSet<NodeId>,
    /// Incorrectly claimed locations (overlooked races).
    pub false_positives: BTreeSet<NodeId>,
    /// Minutes until the tool was first used as intended.
    pub first_tool_use_min: f64,
    /// Minutes until the first correct location was identified.
    pub first_identification_min: f64,
    /// Total working time in minutes (capped at the study hour).
    pub total_min: f64,
}

impl Outcome {
    /// Detection accuracy against the ground truth.
    pub fn accuracy(&self, truth: &BTreeSet<NodeId>) -> f64 {
        self.found.len() as f64 / truth.len().max(1) as f64
    }
}

/// The study-session time limit (Section 4.1: "The maximum time to
/// accomplish the given task was one hour").
pub(crate) const TIME_LIMIT_MIN: f64 = 60.0;

/// Simulate one participant working on the benchmark.
pub(crate) fn simulate_participant(p: &Participant, bench: &Benchmark, seed: u64) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed ^ (p.id as u64).wrapping_mul(0x9E3779B9));
    let jitter = |rng: &mut StdRng, base: f64, spread: f64| -> f64 {
        (base + rng.gen_range(-spread..spread)).max(0.1)
    };
    match p.group {
        Group::Patty => {
            // "the Patty group immediately started parallelizing
            // (Avg. 0.33 min)": the wizard is the obvious first click.
            let first_tool = jitter(&mut rng, 0.33, 0.15);
            // Automatic phases 1–2 run unattended.
            let analysis = jitter(&mut rng, 2.2, 0.6);
            // Verifying a proposed candidate (reading overlay + artifacts)
            // is faster for multicore-savvy engineers.
            let verify = |rng: &mut StdRng, mc: f64| jitter(rng, 5.2 - 2.2 * mc, 0.8);
            let mut t = first_tool + analysis;
            let mut found = BTreeSet::new();
            let mut first_id = None;
            for loc in &bench.patty_found {
                t += verify(&mut rng, p.mc_skill);
                if t > TIME_LIMIT_MIN {
                    break;
                }
                found.insert(*loc);
                first_id.get_or_insert(t);
            }
            // Cross-checking the rest of the source against the tool's
            // rejections (comprehension work, R1).
            let review = jitter(&mut rng, 30.0 - 8.0 * p.se_skill, 3.0);
            let total = (t + review).min(TIME_LIMIT_MIN);
            Outcome {
                participant_id: p.id,
                group: p.group,
                found,
                false_positives: BTreeSet::new(),
                first_tool_use_min: first_tool,
                first_identification_min: first_id.unwrap_or(total),
                total_min: total,
            }
        }
        Group::ParallelStudio => {
            // "intel has a fixed parallelization process that requires the
            // engineers to know an annotation language."
            let learn = jitter(&mut rng, 10.0 - 4.0 * p.mc_skill, 1.5);
            let first_tool = jitter(&mut rng, 2.0, 0.8) + learn * 0.3;
            let profile_run = jitter(&mut rng, 3.0, 0.8);
            let mut t = learn + profile_run;
            let mut found = BTreeSet::new();
            let mut first_id = None;
            if let Some(hot) = bench.profiler_hotspot {
                t += jitter(&mut rng, 1.5, 0.5); // locate in source
                found.insert(hot);
                first_id = Some(t);
            }
            // Each further region needs annotating + a speedup estimate;
            // finding the hidden ones at all takes multicore insight —
            // but the estimator gives better guidance than bare eyes.
            for loc in &bench.hidden_truth {
                let attempt = jitter(&mut rng, 14.0 - 3.0 * p.se_skill, 2.0);
                t += attempt;
                if t > TIME_LIMIT_MIN {
                    break;
                }
                let p_find = 0.42 + 0.45 * p.mc_skill;
                if rng.gen_bool(p_find.clamp(0.0, 1.0)) {
                    found.insert(*loc);
                    first_id.get_or_insert(t);
                }
            }
            let wrapup = jitter(&mut rng, 11.0, 2.0);
            let total = (t + wrapup).min(TIME_LIMIT_MIN);
            Outcome {
                participant_id: p.id,
                group: p.group,
                found,
                false_positives: BTreeSet::new(),
                first_tool_use_min: first_tool,
                first_identification_min: first_id.unwrap_or(total),
                total_min: total,
            }
        }
        Group::Manual => {
            // "almost all of the participants navigated through Visual
            // Studio during the introductory phase and found the built-in
            // profiling tool. When the study began, they directly
            // executed it."
            let first_tool = jitter(&mut rng, 1.4, 0.5);
            let profile_run = jitter(&mut rng, 1.1, 0.3);
            let mut t = first_tool + profile_run;
            let mut found = BTreeSet::new();
            let mut first_id = None;
            if let Some(hot) = bench.profiler_hotspot {
                t += jitter(&mut rng, 0.3, 0.2);
                found.insert(hot);
                first_id = Some(t);
            }
            // Reading the rest of the code by hand: the hidden locations
            // are mostly missed; the racy traps are mostly claimed.
            for loc in &bench.hidden_truth {
                t += jitter(&mut rng, 7.0, 1.5);
                if t > TIME_LIMIT_MIN * 0.75 {
                    break;
                }
                let p_find = 0.15 + 0.35 * p.mc_skill;
                if rng.gen_bool(p_find.clamp(0.0, 1.0)) {
                    found.insert(*loc);
                    first_id.get_or_insert(t);
                }
            }
            let mut false_positives = BTreeSet::new();
            for trap in &bench.traps {
                t += jitter(&mut rng, 3.0, 1.0);
                // "In all cases, this was due to the fact that data races
                // were overlooked by the engineers."
                let p_overlook = 0.9 - 0.75 * p.mc_skill;
                if rng.gen_bool(p_overlook.clamp(0.05, 0.95)) {
                    false_positives.insert(*trap);
                }
            }
            // Confident early finish ("all of them were confident that
            // they had found all locations").
            let total = (t + jitter(&mut rng, 8.0, 2.0)).min(TIME_LIMIT_MIN);
            Outcome {
                participant_id: p.id,
                group: p.group,
                found,
                false_positives,
                first_tool_use_min: first_tool,
                first_identification_min: first_id.unwrap_or(total),
                total_min: total,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roster::build_roster;

    #[test]
    fn benchmark_has_three_truths_and_patty_finds_them() {
        let b = prepare_benchmark();
        assert_eq!(b.truth.len(), 3);
        assert_eq!(b.patty_found.len(), 3);
        assert!(b.profiler_hotspot.is_some());
        assert_eq!(b.hidden_truth.len(), 2);
        assert!(b.traps.len() >= 2, "traps: {:?}", b.traps);
    }

    #[test]
    fn patty_participants_find_everything_without_false_positives() {
        let b = prepare_benchmark();
        for p in build_roster(42).iter().filter(|p| p.group == Group::Patty) {
            let o = simulate_participant(p, &b, 1);
            assert_eq!(o.found.len(), 3);
            assert!(o.false_positives.is_empty());
            assert!(o.total_min <= TIME_LIMIT_MIN);
        }
    }

    #[test]
    fn only_manual_group_produces_false_positives() {
        let b = prepare_benchmark();
        let roster = build_roster(42);
        let mut manual_fps = 0;
        for p in &roster {
            let o = simulate_participant(p, &b, 1);
            match p.group {
                Group::Manual => manual_fps += o.false_positives.len(),
                _ => assert!(o.false_positives.is_empty()),
            }
        }
        assert!(manual_fps > 0, "the manual group must overlook races");
    }

    #[test]
    fn manual_is_fast_to_first_hit_but_low_recall() {
        let b = prepare_benchmark();
        let roster = build_roster(42);
        let avg = |g: Group, f: &dyn Fn(&Outcome) -> f64| {
            let os: Vec<f64> = roster
                .iter()
                .filter(|p| p.group == g)
                .map(|p| f(&simulate_participant(p, &b, 1)))
                .collect();
            os.iter().sum::<f64>() / os.len() as f64
        };
        let first = |o: &Outcome| o.first_identification_min;
        let found = |o: &Outcome| o.found.len() as f64;
        assert!(
            avg(Group::Manual, &first) < avg(Group::Patty, &first),
            "manual profiler hit comes fastest"
        );
        assert!(avg(Group::Patty, &found) > avg(Group::Manual, &found));
        assert!(
            avg(Group::ParallelStudio, &first) > avg(Group::Patty, &first),
            "intel group takes longest to a first result"
        );
    }

    #[test]
    fn outcomes_are_deterministic_per_seed() {
        let b = prepare_benchmark();
        let p = &build_roster(42)[0];
        let a = simulate_participant(p, &b, 9);
        let c = simulate_participant(p, &b, 9);
        assert_eq!(a.found, c.found);
        assert_eq!(a.total_min, c.total_min);
    }
}
