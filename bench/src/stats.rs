//! Order statistics for the measuring code: nearest-rank percentiles, the
//! "highest percentile the sample supports" rule, and the quartiles
//! `compare` and `suite` judge run-to-run spread with.

/// Sort a sample ascending (NaN-free by construction: every value is a
/// duration or a count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values
}

/// Nearest-rank percentile of an ascending sample: the value of rank
/// `ceil(p · n)`, so it is always a value that was measured. 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Percentiles worth reporting, low to high.
const LADDER: [f64; 6] = [0.5, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// The highest ladder percentile with at least ten samples beyond it in a
/// sample of `n` — a percentile read off fewer than ten tail samples is one
/// scheduler hiccup away from a different number.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().rfind(|&p| {
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        n >= rank + 10
    })
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the acceptance driver computes spread with.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the run-to-run spread the
/// bounds in `BENCHMARK.json` are compared against. 0 for a constant sample.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => ((q3 - q1) / q2).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_values() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Rank ceil(0.5 · 5) = 3.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), None);
        // n = 20: p50 is rank 10, ten samples lie beyond it.
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
        // n = 1000: p99 is rank 990 with exactly ten beyond; p99.9 has one.
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
