//! Percentiles, window medians and the tail-percentile picker.

/// Percentiles are given per mille (`P99` = 990), so ranks are exact
/// integers.
pub const P50: u32 = 500;
pub const P95: u32 = 950;
pub const P99: u32 = 990;
/// Percentiles a tail metric may fall back to, highest first.
const TAIL_LADDER: [u32; 5] = [P99, P95, 900, 750, P50];
/// A percentile is only reported when at least this many samples lie
/// beyond it.
const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `per_mille` among `n` samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (`0 < per_mille <= 1000`).
pub fn percentile(sorted: &[u64], per_mille: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// Median of the values (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile of [`TAIL_LADDER`], `wanted` at most, that
/// leaves at least [`MIN_BEYOND`] of `samples` samples beyond it — p99
/// needs 1 000 samples, p95 200, and so on.
pub fn tail_percentile(samples: usize, wanted: u32) -> u32 {
    *TAIL_LADDER
        .iter()
        .filter(|p| **p <= wanted)
        .find(|p| samples >= 1 && samples - rank(samples, **p) >= MIN_BEYOND)
        .unwrap_or(&P50)
}

/// Sorts `ns` samples and returns a percentile of them in microseconds.
pub fn percentile_us(samples: &mut [u64], per_mille: u32) -> f64 {
    samples.sort_unstable();
    percentile(samples, per_mille) as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, P50), 50);
        assert_eq!(percentile(&v, 900), 90);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 1000), 100);
        assert_eq!(percentile(&[7], P50), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], P50), 2);
        assert_eq!(percentile(&[1, 2, 3], P50), 2);
    }

    #[test]
    fn window_median_ignores_one_outlying_window() {
        assert_eq!(median(&[10.0, 11.0, 9.0, 10.5, 250.0]), 10.5);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn tail_picker_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000, P99), 990);
        assert_eq!(tail_percentile(1_000, P99), 990);
        assert_eq!(tail_percentile(999, P99), 950);
        assert_eq!(tail_percentile(200, P99), 950);
        assert_eq!(tail_percentile(199, P99), 900);
        assert_eq!(tail_percentile(100, P99), 900);
        assert_eq!(tail_percentile(40, P99), 750);
        assert_eq!(tail_percentile(39, P99), P50);
        assert_eq!(tail_percentile(3, P99), P50);
        assert_eq!(tail_percentile(0, P99), P50);
        assert_eq!(tail_percentile(100_000, P95), P95);
        assert_eq!(tail_percentile(199, P95), 900);
    }

    #[test]
    fn percentile_us_sorts_and_scales() {
        let mut v = vec![3_000, 1_000, 2_000];
        assert_eq!(percentile_us(&mut v, P50), 2.0);
    }
}
