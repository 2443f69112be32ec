//! Percentiles of job durations.

/// Minimum number of samples that must lie strictly beyond a reported
/// percentile: a tail estimate resting on fewer is noise.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `pct` (1..=100) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it. The median
/// (`pct = 50`) therefore needs at least 20 samples and p90 at least 100.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = nearest_rank(n, pct);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// 1-based rank of the nearest-rank percentile: `ceil(pct * n / 100)`.
fn nearest_rank(n: usize, pct: usize) -> usize {
    assert!((1..=100).contains(&pct), "percentile {pct} out of 1..=100");
    (pct * n).div_ceil(100).clamp(1, n)
}

/// The number of samples a run needs before `percentile(_, pct)` exists.
pub fn samples_needed(pct: usize) -> usize {
    (1..)
        .find(|&n| n - nearest_rank(n, pct) >= MIN_BEYOND)
        .expect("some sample count satisfies the rule")
}

/// Plain median (mean of the middle pair for even counts); `None` when
/// empty. Used for repeated measurements of one quantity, not for tails.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the function has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(99), 90), None);
        // 100 samples: rank 90, ten samples (91..=100) beyond.
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile(&ramp(109), 90), Some(99.0));
        assert_eq!(samples_needed(90), 100);
    }

    #[test]
    fn median_rule_and_plain_median() {
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
        assert_eq!(samples_needed(50), 20);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert_eq!(percentile(&[], 90), None);
        assert_eq!(percentile(&[1.0; 200], 90), Some(1.0));
    }
}
