//! Participants and group composition (Section 4.1).
//!
//! "For this study we collected ten participants with different
//! experiences in general and multicore software engineering. We
//! retrieved their skill level in both categories in interviews before we
//! performed the actual study. From this score we composed three groups
//! with an equal average experience level."
//!
//! The roster is synthetic but deterministic: skills are seeded, groups
//! are balanced greedily on the combined experience score, and — as in
//! the paper — every skill band from inexperienced to multicore expert is
//! represented.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which tool a participant's group used.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Group {
    /// Group 1: Patty.
    Patty,
    /// Group 2: the commercial tool chain (profiler-first workflow,
    /// annotation language, no pattern proposals).
    ParallelStudio,
    /// Group 3: manual, with only the IDE's standard tools.
    Manual,
}

impl std::fmt::Display for Group {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Group::Patty => write!(f, "Patty"),
            Group::ParallelStudio => write!(f, "Parallel Studio"),
            Group::Manual => write!(f, "Manual"),
        }
    }
}

/// Skill classification used in the paper's write-up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkillBand {
    /// Inexperienced in software engineering.
    Novice,
    /// Experienced in software engineering, inexperienced in multicore.
    Sequential,
    /// Experienced in multicore engineering.
    Multicore,
}

/// One study participant.
#[derive(Clone, Debug)]
pub struct Participant {
    pub id: usize,
    /// General software engineering skill, 0..1.
    pub se_skill: f64,
    /// Multicore engineering skill, 0..1.
    pub mc_skill: f64,
    pub group: Group,
}

/// Combined experience score of a `(se_skill, mc_skill)` pair, used for
/// balancing the groups.
fn experience((se, mc): (f64, f64)) -> f64 {
    0.5 * se + 0.5 * mc
}

impl Participant {
    /// The paper's skill band.
    pub fn band(&self) -> SkillBand {
        if self.mc_skill >= 0.6 {
            SkillBand::Multicore
        } else if self.se_skill >= 0.5 {
            SkillBand::Sequential
        } else {
            SkillBand::Novice
        }
    }
}

/// Build the 10-person roster and assign balanced groups of sizes
/// 3 (Patty), 4 (Parallel Studio) and 3 (Manual) — the sizes implied by
/// the paper's group averages (thirds, quarters, thirds).
pub(crate) fn build_roster(seed: u64) -> Vec<Participant> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Skill draws spanning the bands: a couple of novices, a majority of
    // solid sequential engineers, one genuine multicore expert.
    let mut skills: Vec<(f64, f64)> = Vec::new();
    for i in 0..10 {
        let (se, mc) = match i {
            0 => (0.25, 0.10),                              // novice
            1 => (0.35, 0.15),                              // novice
            9 => (0.90, 0.90),                              // the multicore expert
            8 => (0.80, 0.65),                              // strong multicore
            _ => (
                0.5 + rng.gen_range(0.0..0.35),
                0.15 + rng.gen_range(0.0..0.40),
            ),
        };
        skills.push((se, mc));
    }
    // Greedy balancing: sort by experience descending, deal into the
    // group with the lowest current average that still has capacity.
    let mut order: Vec<usize> = (0..10).collect();
    order.sort_by(|&a, &b| experience(skills[b]).total_cmp(&experience(skills[a])));
    let capacities = [(Group::Patty, 3), (Group::ParallelStudio, 4), (Group::Manual, 3)];
    let mut assigned: Vec<(Group, Vec<usize>)> =
        capacities.iter().map(|(g, _)| (*g, Vec::new())).collect();
    // The multicore expert sits in the commercial-tool group — the paper
    // traces the intel group's satisfaction outlier to exactly that
    // participant.
    assigned[1].1.push(9);
    order.retain(|&i| i != 9);
    for idx in order {
        // Pick the group with the lowest total experience so far that has
        // remaining capacity.
        let slot = assigned
            .iter_mut()
            .zip(capacities.iter())
            .filter(|((_, members), (_, cap))| members.len() < *cap)
            .min_by(|((_, a), _), ((_, b), _)| {
                let sa: f64 = a.iter().map(|&i| experience(skills[i])).sum();
                let sb: f64 = b.iter().map(|&i| experience(skills[i])).sum();
                sa.total_cmp(&sb)
            })
            .map(|((_, members), _)| members)
            .expect("capacity left");
        slot.push(idx);
    }
    let mut out = Vec::new();
    for (group, members) in assigned {
        for idx in members {
            out.push(Participant {
                id: idx,
                se_skill: skills[idx].0,
                mc_skill: skills[idx].1,
                group,
            });
        }
    }
    out.sort_by_key(|p| p.id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_ten_in_three_groups() {
        let r = build_roster(42);
        assert_eq!(r.len(), 10);
        let count = |g| r.iter().filter(|p| p.group == g).count();
        assert_eq!(count(Group::Patty), 3);
        assert_eq!(count(Group::ParallelStudio), 4);
        assert_eq!(count(Group::Manual), 3);
    }

    #[test]
    fn groups_have_balanced_experience() {
        let r = build_roster(42);
        let avg = |g| {
            let members: Vec<&Participant> = r.iter().filter(|p| p.group == g).collect();
            members.iter().map(|p| experience((p.se_skill, p.mc_skill))).sum::<f64>() / members.len() as f64
        };
        let (a, b, c) = (
            avg(Group::Patty),
            avg(Group::ParallelStudio),
            avg(Group::Manual),
        );
        let spread = [a, b, c].iter().cloned().fold(f64::MIN, f64::max)
            - [a, b, c].iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.15, "experience spread {spread} ({a:.2}/{b:.2}/{c:.2})");
    }

    #[test]
    fn all_skill_bands_present() {
        let r = build_roster(42);
        let bands: std::collections::BTreeSet<u8> = r
            .iter()
            .map(|p| match p.band() {
                SkillBand::Novice => 0,
                SkillBand::Sequential => 1,
                SkillBand::Multicore => 2,
            })
            .collect();
        assert_eq!(bands.len(), 3);
    }

    #[test]
    fn roster_is_deterministic_per_seed() {
        let a = build_roster(7);
        let b = build_roster(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.group, y.group);
            assert_eq!(x.se_skill, y.se_skill);
        }
    }
}
