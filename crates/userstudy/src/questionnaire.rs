//! The post-study questionnaire (Section 4.1–4.2, Tables 1–2).
//!
//! Questions follow the standardized format of Laugwitz et al. \[32\]:
//! raw answers on a 0–7 scale in *cross-value order* (on some questions 0
//! is best, on others 7), normalized to −3 (worst) … +3 (best) for
//! evaluation. Answers are produced by a response model: a group- and
//! indicator-specific base attitude, shifted by the participant's skills
//! and by their objective outcome, plus seeded noise — so the aggregate
//! tables emerge from the mechanism rather than being transcribed.

use crate::behavior::Outcome;
use crate::roster::{Group, Participant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The comprehensibility indicators of Table 1.
pub(crate) const COMPREHENSIBILITY: [&str; 4] =
    ["Clarity", "Complexity", "Perceivability", "Learnability"];

/// The tool-assistance indicators of Table 2.
pub(crate) const ASSISTANCE: [&str; 2] = ["Perceived tool support", "Subjective satisfaction with result"];

/// One participant's normalized answers.
#[derive(Clone, Debug)]
pub struct Answers {
    pub participant_id: usize,
    pub group: Group,
    /// indicator name → normalized score in −3..=3.
    pub scores: Vec<(String, f64)>,
}

impl Answers {
    /// Score of a named indicator.
    pub fn score(&self, indicator: &str) -> Option<f64> {
        self.scores
            .iter()
            .find(|(n, _)| n == indicator)
            .map(|(_, s)| *s)
    }
}

/// Normalize a raw 0–7 answer (with 7 = best) to −3…+3.
fn normalize(raw: f64) -> f64 {
    (raw.clamp(0.0, 7.0) / 7.0) * 6.0 - 3.0
}

/// Sample a raw answer around `base` (0–7 scale) with the given spread.
fn sample(rng: &mut StdRng, base: f64, spread: f64) -> f64 {
    // triangular-ish noise: sum of two uniforms
    let noise = rng.gen_range(-spread..spread) + rng.gen_range(-spread..spread);
    (base + noise).round().clamp(0.0, 7.0)
}

/// Fill in the questionnaire for a tool-group participant (the manual
/// group answers the desired-features questionnaire instead, see
/// [`crate::features`]).
pub fn answer(p: &Participant, outcome: &Outcome, seed: u64) -> Option<Answers> {
    let mut rng = StdRng::seed_from_u64(seed ^ (p.id as u64).wrapping_mul(0xA5A5_1234));
    let mut scores = Vec::new();
    let success = outcome.found.len() as f64 / 3.0;
    match p.group {
        Group::Patty => {
            // Comprehensible process chart + overlays: uniformly good
            // scores, small spread (the paper notes the smaller standard
            // deviations make the result more reliable).
            for (ind, base, spread) in [
                ("Clarity", 5.9, 0.55),
                ("Complexity", 5.9, 0.6),
                ("Perceivability", 6.2, 0.6),
                ("Learnability", 6.2, 0.45),
            ] {
                scores.push((ind.to_string(), normalize(sample(&mut rng, base, spread))));
            }
            scores.push((
                "Perceived tool support".to_string(),
                normalize(sample(&mut rng, 5.4 + success, 1.0)),
            ));
            // Satisfaction with their *own* result is modest-positive
            // (engineers remain cautious about code they did not write).
            scores.push((
                "Subjective satisfaction with result".to_string(),
                normalize(sample(&mut rng, 4.3 + 0.5 * success, 0.5)),
            ));
        }
        Group::ParallelStudio => {
            // Mixed: a powerful but rigid workflow. The multicore expert
            // rates it highly (the paper traces the big deviation on
            // satisfaction to exactly that participant).
            let expert_bonus = 2.8 * (p.mc_skill - 0.4).max(0.0);
            for (ind, base, spread) in [
                ("Clarity", 4.6, 1.2),
                ("Complexity", 4.3, 1.0),
                ("Perceivability", 4.6, 0.9),
                ("Learnability", 4.8, 1.1),
            ] {
                scores.push((
                    ind.to_string(),
                    normalize(sample(&mut rng, base + 0.4 * expert_bonus, spread)),
                ));
            }
            scores.push((
                "Perceived tool support".to_string(),
                normalize(sample(&mut rng, 5.2 + 0.3 * expert_bonus, 0.8)),
            ));
            // Satisfaction with their own result: mildly negative for
            // most (rigid process, partial findings) but excellent for
            // the multicore expert — the paper's outlier.
            let satisfaction_base = 1.8 + 13.0 * (p.mc_skill - 0.55).max(0.0) + 0.4 * success;
            scores.push((
                "Subjective satisfaction with result".to_string(),
                normalize(sample(&mut rng, satisfaction_base, 0.5)),
            ));
        }
        Group::Manual => return None,
    }
    Some(Answers { participant_id: p.id, group: p.group, scores })
}

/// Mean and (population) standard deviation.
pub(crate) fn mean_sd(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{prepare_benchmark, simulate_participant};
    use crate::roster::build_roster;

    fn answers_for(seed: u64) -> Vec<Answers> {
        let bench = prepare_benchmark();
        build_roster(seed)
            .iter()
            .filter_map(|p| {
                let o = simulate_participant(p, &bench, seed);
                answer(p, &o, seed)
            })
            .collect()
    }

    #[test]
    fn manual_group_gets_no_tool_questionnaire() {
        let all = answers_for(42);
        assert_eq!(all.len(), 7, "3 Patty + 4 Parallel Studio");
        assert!(all.iter().all(|a| a.group != Group::Manual));
    }

    #[test]
    fn scores_are_in_range() {
        for a in answers_for(42) {
            for (_, s) in &a.scores {
                assert!((-3.0..=3.0).contains(s), "{s}");
            }
        }
    }

    #[test]
    fn patty_beats_studio_on_comprehensibility() {
        let all = answers_for(42);
        let avg = |g: Group| {
            let vals: Vec<f64> = all
                .iter()
                .filter(|a| a.group == g)
                .flat_map(|a| {
                    COMPREHENSIBILITY
                        .iter()
                        .filter_map(|i| a.score(i))
                        .collect::<Vec<_>>()
                })
                .collect();
            mean_sd(&vals).0
        };
        let (p, s) = (avg(Group::Patty), avg(Group::ParallelStudio));
        assert!(p > s, "Patty {p:.2} must beat Parallel Studio {s:.2}");
        assert!(p > 1.5, "Patty total comprehensibility ≈ 2.17, got {p:.2}");
        assert!((0.2..=1.8).contains(&s), "studio ≈ 1.00, got {s:.2}");
    }

    #[test]
    fn studio_satisfaction_has_the_expert_outlier() {
        let all = answers_for(42);
        let sat: Vec<f64> = all
            .iter()
            .filter(|a| a.group == Group::ParallelStudio)
            .filter_map(|a| a.score("Subjective satisfaction with result"))
            .collect();
        let (mean, sd) = mean_sd(&sat);
        // low-ish mean, large spread (paper: −0.25 with σ 2.75)
        assert!(mean < 1.0, "mean {mean:.2}");
        assert!(sd > 1.0, "σ {sd:.2} must reflect the expert outlier");
        let max = sat.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > 1.2, "the expert gave an excellent score: {max:.2}");
    }

    #[test]
    fn normalization_maps_extremes() {
        assert_eq!(normalize(0.0), -3.0);
        assert_eq!(normalize(7.0), 3.0);
        assert!((normalize(3.5)).abs() < 1e-9);
    }
}
