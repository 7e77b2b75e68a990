//! Desired features of parallelization tools (Fig. 5a).
//!
//! "We evaluated the questionnaires of the manual control group that
//! assessed what tool support would help them in parallelization, if they
//! had to do this task again. … For the questionnaire we collected
//! different tool features and let the manual control group decide, how
//! helpful these feature would be to them."

use crate::roster::Participant;
use patty_hash::fnv1a64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The nine features of Fig. 5a, with which tools provide them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Feature {
    pub name: &'static str,
    /// How helpful the manual group rates it (base attitude, −3..3).
    pub base: f64,
    pub patty_provides: bool,
    pub studio_provides: bool,
}

/// The feature catalog. Patty provides five of the nine; Parallel Studio
/// two (only one of them in the top five) — the paper's R2 conclusion.
pub(crate) const FEATURES: [Feature; 9] = [
    Feature { name: "Emphasize source", base: 2.2, patty_provides: true, studio_provides: false },
    Feature { name: "Model source", base: 0.9, patty_provides: false, studio_provides: false },
    Feature { name: "Visualize call graph", base: 0.2, patty_provides: false, studio_provides: false },
    Feature { name: "Visualize runtime distribution", base: 2.6, patty_provides: false, studio_provides: true },
    Feature { name: "Show data dependencies", base: 2.6, patty_provides: true, studio_provides: false },
    Feature { name: "Show control dependencies", base: 1.6, patty_provides: true, studio_provides: false },
    Feature { name: "Provide parallel strategies", base: 2.3, patty_provides: true, studio_provides: false },
    Feature { name: "Support validation", base: 1.9, patty_provides: true, studio_provides: true },
    Feature { name: "Support performance optimization", base: 2.2, patty_provides: false, studio_provides: false },
];

/// One row of the Fig. 5a evaluation.
#[derive(Clone, Debug)]
pub struct FeatureRow {
    pub name: &'static str,
    pub average: f64,
    /// Lower/upper quantiles over the manual group's answers.
    pub lower: f64,
    pub upper: f64,
    pub patty_provides: bool,
    pub studio_provides: bool,
}

/// Collect the manual group's feature ratings.
pub(crate) fn rate_features(manual: &[&Participant], seed: u64) -> Vec<FeatureRow> {
    FEATURES
        .iter()
        .map(|f| {
            let mut ratings: Vec<f64> = manual
                .iter()
                .map(|p| {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (p.id as u64).wrapping_mul(0xFEA7) ^ fnv1a64(f.name.as_bytes()),
                    );
                    // Struggling participants (low multicore skill) want
                    // dependence views and strategies even more.
                    let want = f.base + (0.5 - p.mc_skill) * 0.8;
                    // Noise stays small relative to the base-attitude
                    // gaps: with only three manual raters, a wider
                    // spread would let sampling luck reorder Fig. 5a.
                    (want + rng.gen_range(-0.45..0.45)).clamp(-3.0, 3.0)
                })
                .collect();
            ratings.sort_by(f64::total_cmp);
            let average = ratings.iter().sum::<f64>() / ratings.len().max(1) as f64;
            FeatureRow {
                name: f.name,
                average,
                lower: ratings.first().copied().unwrap_or(0.0),
                upper: ratings.last().copied().unwrap_or(0.0),
                patty_provides: f.patty_provides,
                studio_provides: f.studio_provides,
            }
        })
        .collect()
}

/// The top-`k` features by average rating.
pub fn top_features(rows: &[FeatureRow], k: usize) -> Vec<&FeatureRow> {
    let mut sorted: Vec<&FeatureRow> = rows.iter().collect();
    sorted.sort_by(|a, b| b.average.total_cmp(&a.average));
    sorted.into_iter().take(k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roster::{build_roster, Group};

    fn rows() -> Vec<FeatureRow> {
        let roster = build_roster(42);
        let manual: Vec<&Participant> =
            roster.iter().filter(|p| p.group == Group::Manual).collect();
        rate_features(&manual, 42)
    }

    #[test]
    fn coverage_counts_match_the_paper() {
        assert_eq!(FEATURES.iter().filter(|f| f.patty_provides).count(), 5);
        assert_eq!(FEATURES.iter().filter(|f| f.studio_provides).count(), 2);
    }

    #[test]
    fn patty_covers_three_of_top_five() {
        let rows = rows();
        let top5 = top_features(&rows, 5);
        let patty_top = top5.iter().filter(|r| r.patty_provides).count();
        let studio_top = top5.iter().filter(|r| r.studio_provides).count();
        assert!(
            patty_top >= 3,
            "Patty must provide ≥3 of the top five (has {patty_top})"
        );
        assert_eq!(studio_top, 1, "Parallel Studio provides exactly one of the top five");
    }

    #[test]
    fn quantiles_bracket_the_average() {
        for r in rows() {
            assert!(r.lower <= r.average && r.average <= r.upper, "{r:?}");
            assert!((-3.0..=3.0).contains(&r.average));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = rows();
        let b = rows();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.average, y.average);
        }
    }
}
