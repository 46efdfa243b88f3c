//! Order statistics for the reported timings.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile
//! of `n` sorted samples is the sample at rank `ceil(p/100 * n)`
//! (1-based). The tail reported for a latency is the highest
//! percentile of [`TAIL_LADDER`] that still has at least
//! [`MIN_BEYOND`] samples strictly beyond its rank.

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pct` (to a tenth of a percent)
/// among `n` samples, in integer arithmetic so that e.g. p99.9 of 10 000
/// is exactly rank 9 990.
pub fn nearest_rank(n: usize, pct: f64) -> usize {
    let tenths = (pct * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The nearest-rank percentile of ascending `sorted` (non-empty).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), pct) - 1]
}

/// The median (nearest rank) of `values`, in any order; `None` if empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile(&sorted, 50.0))
}

/// A reported tail: which percentile, its value, and how many samples
/// lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of the ascending `sorted` samples beyond it; `None`
/// when there are too few samples for any rung.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        let rank = nearest_rank(n, pct);
        let beyond = n.checked_sub(rank)?;
        (n > 0 && beyond >= MIN_BEYOND).then(|| Tail {
            percentile: pct,
            value: sorted[rank - 1],
            beyond,
        })
    })
}

/// Latency samples of one kind of operation, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn median(&self) -> Option<f64> {
        median(&self.0)
    }

    pub fn tail(&self) -> Option<Tail> {
        tail(&self.sorted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(100, 50.0), 50);
        assert_eq!(nearest_rank(101, 50.0), 51);
        assert_eq!(nearest_rank(10, 99.0), 10);
        assert_eq!(nearest_rank(10, 0.1), 1);
        assert_eq!(percentile(&ramp(5), 50.0), 3.0);
        assert_eq!(percentile(&ramp(4), 50.0), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990 with 10 beyond; p99.5
        // would leave only 5.
        let t = tail(&ramp(1000)).expect("enough samples");
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 100 samples: p90 (rank 90, 10 beyond); p95 would leave 5.
        let t = tail(&ramp(100)).expect("enough samples");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 20 samples: only the median leaves 10 beyond.
        let t = tail(&ramp(20)).expect("enough samples");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        // 10 000 samples: p99.9 leaves exactly 10.
        assert_eq!(tail(&ramp(10_000)).map(|t| t.percentile), Some(99.9));
    }

    #[test]
    fn tail_refuses_small_samples() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn every_reported_tail_has_min_beyond() {
        for n in 20..2_000 {
            let t = tail(&ramp(n)).expect("n >= 20");
            assert!(t.beyond >= MIN_BEYOND, "n={n}");
            // No higher rung would also qualify.
            for &higher in TAIL_LADDER.iter().filter(|&&p| p > t.percentile) {
                assert!(n - nearest_rank(n, higher) < MIN_BEYOND, "n={n} p={higher}");
            }
        }
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
