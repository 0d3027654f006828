//! The benchmark's own arithmetic: medians, tail percentiles, self
//! times and error rates. Kept free of any Athena type so the unit tests
//! below pin it down exactly.

/// The median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// small offset keeps products such as 99.9% of 10 000 from rounding up
/// past the exact rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    sorted.get(rank(sorted.len(), p) - 1).copied()
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it — the rule for reporting a tail percentile at all.
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// A layer's self time: its own span minus the spans of the layers it
/// calls.
pub fn self_time(total: f64, children: &[f64]) -> f64 {
    total - children.iter().sum::<f64>()
}

/// Failed operations as a share of attempted ones (0 when nothing was
/// attempted).
pub fn error_rate(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Counts a run's failures: requests that got no response, store quorum
/// failures, statistics polls the SB gave up on, and failed train calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    pub unanswered: u64,
    pub quorum_failures: u64,
    pub polls_gave_up: u64,
    pub train_failures: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.unanswered + self.quorum_failures + self.polls_gave_up + self.train_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&v, 0.0), None);
        assert_eq!(percentile_sorted(&[], 50.0), None);
        assert_eq!(percentile_sorted(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(tail_supported(1000, 99.0));
        assert!(!tail_supported(999, 99.0));
        // p50 of 21 samples is rank 11: ten beyond it; 20 samples leave 10
        // too, 19 leave only 9.
        assert!(tail_supported(20, 50.0));
        assert!(!tail_supported(19, 50.0));
        // 99.9% of 10 000 is exactly rank 9990, not 9991.
        assert_eq!(samples_beyond(10_000, 99.9), 10);
        assert!(tail_supported(10_000, 99.9));
    }

    #[test]
    fn self_times_sum_back_to_the_wall() {
        // wall -> link -> {sb -> dispatch -> insert, apps}
        let (wall, link, sb, apps, dispatch, insert) = (10.0, 8.0, 5.0, 1.0, 3.0, 2.0);
        let other = self_time(wall, &[link]);
        let controller = self_time(link, &[sb, apps]);
        let sb_self = self_time(sb, &[dispatch]);
        let detector = self_time(dispatch, &[insert]);
        assert_eq!(other, 2.0);
        assert_eq!(controller, 2.0);
        assert_eq!(sb_self, 2.0);
        assert_eq!(detector, 1.0);
        let parts = other + controller + apps + sb_self + detector + insert;
        assert!((parts - wall).abs() < 1e-12);
    }

    #[test]
    fn error_rate_counts_every_failure_kind() {
        let f = Failures {
            unanswered: 2,
            quorum_failures: 1,
            polls_gave_up: 3,
            train_failures: 4,
        };
        assert_eq!(f.total(), 10);
        assert_eq!(error_rate(f.total(), 100), 0.1);
        assert_eq!(error_rate(0, 0), 0.0);
        assert_eq!(error_rate(0, 5), 0.0);
    }
}
