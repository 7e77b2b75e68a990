//! The estimators. A *sample* is the wall time of one op, a *kind* one
//! distinct input; `typ(kind)` is the interquartile mean of its samples.
//! Medians of short ops jump between scheduling modes on a 2-core host;
//! the interquartile mean is continuous under that bimodality and still
//! deaf to stalls, which is why every per-kind figure uses it.

/// Mean of the middle half of the samples (all of them below four).
pub fn iqm(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return [v[0]; 3];
    }
    let m = len + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Inter-quartile distance as a share of the median.
pub fn rel_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// A regression bound is calibrated, not guessed: three times the
/// spread seen over repeated runs (so the spread stays below a third of
/// the bound), never tighter than 3 % and never wider than the 25 % the
/// benchmark contract allows. A metric that cannot repeat within that
/// gets a longer run or a better estimator, or leaves the end-to-end
/// table for a per-layer row.
pub fn calibrated_bound(rel_spread: f64) -> f64 {
    (3.0 * rel_spread).clamp(0.03, 0.25)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Better,
    Worse,
    /// Medians within the bound and the spread narrower than the bound.
    Unchanged,
    /// The runs cannot tell: never reported as "unchanged".
    Unresolved,
}

/// choosing-metrics §8 over paired runs `(parent[i], change[i])`: a side
/// wins when there are at least ten pairs, it takes at least nine tenths
/// of them (ties count for neither) and the medians differ by more than
/// the parent's own inter-quartile distance.
pub fn compare(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let change_wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let parent_wins = (0..pairs).filter(|&i| better(parent[i], change[i])).count();
    let [q1, parent_med, q3] = quartiles(parent);
    let gap = (median(change) - parent_med).abs();
    let needed = (pairs * 9).div_ceil(10);
    if gap > q3 - q1 && pairs >= 10 {
        if change_wins >= needed {
            return Verdict::Better;
        }
        if parent_wins >= needed {
            return Verdict::Worse;
        }
    }
    let worse_by = if lower_is_better {
        median(change) / parent_med - 1.0
    } else {
        1.0 - median(change) / parent_med
    };
    if worse_by <= bound && rel_spread(parent).max(rel_spread(change)) <= bound {
        Verdict::Unchanged
    } else {
        Verdict::Unresolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iqm_ignores_both_tails() {
        assert_eq!(iqm(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1000.0]), 4.5);
        assert_eq!(iqm(&[0.0, 10.0, 10.0, 500.0]), 10.0);
        assert_eq!(iqm(&[3.0]), 3.0);
        assert_eq!(iqm(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[8.0, 8.0, 8.0]) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 3, 7, 20, 21], n=4) == [2.0, 7.0, 20.5]
        assert_eq!(quartiles(&[21.0, 1.0, 7.0, 3.0, 20.0]), [2.0, 7.0, 20.5]);
        assert!((rel_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_is_clamped() {
        assert_eq!(calibrated_bound(0.001), 0.03);
        assert!((calibrated_bound(0.02) - 0.06).abs() < 1e-12);
        assert_eq!(calibrated_bound(0.2), 0.25);
    }

    #[test]
    fn compare_needs_nine_of_ten_and_a_gap_beyond_the_quartiles() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let faster: Vec<f64> = parent.iter().map(|v| v - 5.0).collect();
        assert_eq!(compare(&parent, &faster, true, 0.05), Verdict::Better);
        assert_eq!(compare(&faster, &parent, true, 0.05), Verdict::Worse);
        assert_eq!(compare(&parent, &faster, false, 0.05), Verdict::Worse);
        // Wins 8 of 10: not a claim, and within the bound: unchanged.
        let mut mixed = faster.clone();
        mixed[0] = parent[0] + 1.0;
        mixed[1] = parent[1] + 1.0;
        assert_eq!(compare(&parent, &mixed, true, 0.10), Verdict::Unchanged);
        // A gap smaller than the parent's own spread is no claim either.
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 3.0).collect();
        let nudged: Vec<f64> = noisy.iter().map(|v| v - 1.0).collect();
        assert_eq!(compare(&noisy, &nudged, true, 0.05), Verdict::Unresolved);
        assert_eq!(compare(&parent, &parent, true, 0.05), Verdict::Unchanged);
        // Fewer than ten pairs never make a claim.
        assert_eq!(
            compare(&parent[..9], &faster[..9], true, 0.05),
            Verdict::Unchanged
        );
    }
}
