//! Percentiles, round aggregation and the exact-metric digest.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `pct` percent of all samples at or below it. `None` when
/// there are no samples.
pub fn nearest_rank<T: Copy>(sorted: &[T], pct: u32) -> Option<T> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (pct as usize * n).div_ceil(100).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Median of per-round values (the mean of the middle two for an even
/// count); `0.0` for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank quartile of per-round values on the better side: the
/// upper quartile when higher is better, the lower one otherwise.
/// Contention from other tenants of a shared host comes in bursts of
/// seconds and only ever slows a round down, so this reads the
/// uncontended speed as long as a quarter of the rounds escape the
/// bursts, where the median needs half of them.
pub fn better_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, if higher_is_better { 75 } else { 25 }).unwrap_or(0.0)
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_of_no_samples_is_none() {
        assert_eq!(nearest_rank::<u64>(&[], 50), None);
    }

    #[test]
    fn nearest_rank_of_one_sample_is_that_sample() {
        for pct in [1, 50, 90, 99, 100] {
            assert_eq!(nearest_rank(&[7u64], pct), Some(7));
        }
    }

    #[test]
    fn nearest_rank_p90_of_ten() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&v, 90), Some(9));
        assert_eq!(nearest_rank(&v, 50), Some(5));
        assert_eq!(nearest_rank(&v, 99), Some(10));
        assert_eq!(nearest_rank(&v, 0), Some(1));
    }

    #[test]
    fn round_median_aggregation() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow round does not move the median.
        assert_eq!(median(&[10.0, 11.0, 10.5, 500.0, 10.2]), 10.5);
    }

    #[test]
    fn the_better_quartile_ignores_rounds_slowed_by_contention() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(better_quartile(&v, false), 2.0);
        assert_eq!(better_quartile(&v, true), 6.0);
        assert_eq!(better_quartile(&[], true), 0.0);
        // Six of ten rounds run at half speed: the median moves, the
        // better quartile does not.
        let rates = [
            100.0, 50.0, 101.0, 49.0, 50.0, 99.0, 51.0, 50.0, 100.0, 50.0,
        ];
        assert_eq!(median(&rates), 50.5);
        assert_eq!(better_quartile(&rates, true), 100.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
