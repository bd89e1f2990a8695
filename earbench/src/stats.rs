//! Order statistics behind every reported number and the compare verdicts.

/// Median of unsorted samples (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of the samples left after dropping the
/// lowest and the highest quarter (`n / 4` samples from each end, rounded
/// down). Like the median it leaves out a minority of outliers; unlike the
/// median, when the samples come from two speeds of the host it moves in
/// proportion to the time spent at each instead of jumping between them.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "interquartile mean of no samples");
    let cut = s.len() / 4;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Samples in ascending order (total order, so a NaN cannot scramble it).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One-based nearest rank of percentile `p` among `n` samples: the
/// smallest rank with at least `p` percent of the samples at or below it.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// Fewest samples that leave at least ten beyond the nearest-rank
/// percentile `p` — the rule a reported tail percentile must meet.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= 10)
        .unwrap_or(usize::MAX)
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method)
/// computes them. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Whether lower or higher readings of a metric are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, memory.
    Lower,
    /// Rates, ratios of useful outcomes.
    Higher,
}

impl Better {
    /// `true` when `a` reads strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Pairs the change won out of the pairs run; ties count for neither side.
pub fn pairs_won(pairs: &[(f64, f64)], better: Better) -> usize {
    pairs
        .iter()
        .filter(|&&(parent, change)| better.beats(change, parent))
        .count()
}

/// A gain may be claimed only when the change won at least nine tenths of
/// all pairs run.
pub fn wins_enough(won: usize, pairs: usize) -> bool {
    pairs > 0 && won * 10 >= pairs * 9
}

/// The compare mode's call on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won at least nine tenths of the pairs and moved by more than the
    /// parent's own quartile spread, in the better direction.
    Improved,
    /// Median within the bound of the parent's.
    Unchanged,
    /// Median worse than the parent's by more than the bound.
    Worse,
    /// Run-to-run spread wider than the bound and no clean separation.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Decides a verdict from paired runs `(parent, change)`, following the
/// choosing-metrics method: a gain needs nine tenths of the pairs and a
/// median shift beyond the parent's quartile spread; a regression is a
/// median worse by more than `bound` (a share of the parent's median);
/// when either side's spread exceeds `bound`, the call is unresolved
/// unless every change run reads better than every parent run. With
/// `gain_allowed` false — the change failed more operations than the
/// parent, or one of its runs was incorrect — no gain counts: the call is
/// never improved, and a separation in the better direction stays
/// unresolved.
pub fn verdict(pairs: &[(f64, f64)], better: Better, bound: f64, gain_allowed: bool) -> Verdict {
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    if pairs.is_empty() {
        return Verdict::Unresolved;
    }
    let (pm, cm) = (median(&parent), median(&change));
    let parent_iqr = quartiles(&parent).map_or(0.0, |(q1, q3)| q3 - q1);
    let change_iqr = quartiles(&change).map_or(0.0, |(q1, q3)| q3 - q1);
    if gain_allowed
        && wins_enough(pairs_won(pairs, better), pairs.len())
        && better.beats(cm, pm)
        && (cm - pm).abs() > parent_iqr
    {
        return Verdict::Improved;
    }
    let spread = (parent_iqr / pm.abs()).max(change_iqr / cm.abs());
    if !(spread <= bound) {
        let separated = change
            .iter()
            .all(|&c| parent.iter().all(|&p| better.beats(c, p)));
        return if separated && gain_allowed {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match better {
        Better::Lower => (cm - pm) / pm.abs(),
        Better::Higher => (pm - cm) / pm.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 91.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_p99_needs_a_thousand() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(100, 50.0), 50);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(90.0), 100);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[3.0, 1.0, 2.0]), 2.0);
        // n = 8: two dropped from each end, mean of 3, 4, 5, 6.
        let xs = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        assert_eq!(interquartile_mean(&xs), 4.5);
        // n = 7: one dropped from each end; an outlier does not count.
        assert_eq!(
            interquartile_mean(&[1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 100.0]),
            1.6
        );
        // Two speeds: the median jumps with the majority, the
        // interquartile mean moves with the mix.
        let mostly_fast = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0];
        let mostly_slow = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0];
        assert_eq!(median(&mostly_fast), 1.0);
        assert_eq!(median(&mostly_slow), 2.0);
        assert_eq!(interquartile_mean(&mostly_fast), 1.25);
        assert_eq!(interquartile_mean(&mostly_slow), 1.75);
    }

    #[test]
    fn pairs_won_ignores_ties_and_needs_nine_tenths() {
        let pairs = [(10.0, 9.0), (10.0, 10.0), (10.0, 11.0), (12.0, 8.0)];
        assert_eq!(pairs_won(&pairs, Better::Lower), 2);
        assert_eq!(pairs_won(&pairs, Better::Higher), 1);
        assert!(wins_enough(9, 10));
        assert!(!wins_enough(8, 10));
        assert!(wins_enough(18, 20));
        assert!(!wins_enough(0, 0));
    }

    #[test]
    fn verdicts_follow_the_pairs_and_bound_rules() {
        let steady: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + f64::from(i % 3), 80.0 + f64::from(i % 3)))
            .collect();
        assert_eq!(
            verdict(&steady, Better::Lower, 0.1, true),
            Verdict::Improved
        );
        assert_eq!(verdict(&steady, Better::Higher, 0.1, true), Verdict::Worse);
        let same: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + f64::from(i % 3), 101.0 - f64::from(i % 3)))
            .collect();
        assert_eq!(verdict(&same, Better::Lower, 0.1, true), Verdict::Unchanged);
        // Spread wider than the bound, overlapping sides: unresolved.
        let noisy: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                (
                    50.0 + 20.0 * f64::from(i % 4),
                    55.0 + 20.0 * f64::from((i + 1) % 4),
                )
            })
            .collect();
        assert_eq!(
            verdict(&noisy, Better::Lower, 0.05, true),
            Verdict::Unresolved
        );
    }

    #[test]
    fn no_gain_counts_when_the_change_fails_more_or_is_incorrect() {
        let steady: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + f64::from(i % 3), 80.0 + f64::from(i % 3)))
            .collect();
        assert_eq!(
            verdict(&steady, Better::Lower, 0.1, false),
            Verdict::Unchanged
        );
        // A regression still reads worse.
        assert_eq!(verdict(&steady, Better::Higher, 0.1, false), Verdict::Worse);
        // A clean separation in the better direction beyond the bound.
        let apart: Vec<(f64, f64)> = (0..10)
            .map(|i| (50.0 + 20.0 * f64::from(i % 4), 10.0 + f64::from(i % 4)))
            .collect();
        assert_eq!(
            verdict(&apart, Better::Lower, 0.05, true),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&apart, Better::Lower, 0.05, false),
            Verdict::Unresolved
        );
    }
}
