//! Summary statistics the benchmark reports: medians, quartiles, the
//! tail-percentile rule, and the fnv64 fold the digests use.

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive"
/// method). `None` with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let n = 4i64;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// The percentile ladder tail latencies are read from.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// 1-based nearest-rank index of the `p`-th percentile of `n`
/// samples, in integer per-mille arithmetic so 99.9 × 10 000 is
/// exactly 9 990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples ranked strictly beyond the nearest-rank `p`-th percentile
/// of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The tail rule: the highest percentile of [`PERCENTILES`] with at
/// least ten samples beyond it, or `None` when even the median has
/// fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Nearest-rank `p`-th percentile of `samples`, provided at least ten
/// samples lie beyond it; `None` otherwise, so a thin tail is never
/// reported as if it were measured.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(samples.len(), p) < 10 {
        return None;
    }
    nearest_rank(samples, p)
}

/// Nearest-rank `p`-th percentile of `samples` however thin its tail
/// (for small populations whose count is reported beside it); `None`
/// when empty.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    (n > 0).then(|| sorted[rank(n, p) - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The fnv64 offset basis every digest in the repository starts from.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Fold `bytes` into an fnv64 hash (the same fold `gtpin sim` uses for
/// its stats digest).
pub fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 57, 100, 200, 999, 1000, 4321] {
            let p = tail_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), Some(190.0));
        assert_eq!(percentile(&samples, 50.0), Some(100.0));
        assert_eq!(percentile(&samples[..199], 95.0), None);
        assert_eq!(percentile(&samples, 99.0), None);
    }
}
