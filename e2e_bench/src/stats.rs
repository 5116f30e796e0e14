//! Order statistics over recorded samples.

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` is clamped to `[0, 100]`; `p = 0`
/// gives the minimum. Returns `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` (NaN-free) ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// p50, p90 and p99 of `values`, in one sort.
pub fn p50_p90_p99(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (
        percentile(&s, 50.0),
        percentile(&s, 90.0),
        percentile(&s, 99.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_boundaries() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 99.5), 100.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 250.0), 100.0);
    }

    #[test]
    fn nearest_rank_small_samples() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Two samples: p50 is the lower one (rank ceil(1.0) = 1), any
        // higher percentile the upper one.
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.1), 2.0);
        // Ten samples: p99 needs rank ceil(9.9) = 10, the maximum.
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), 10.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
    }

    #[test]
    fn quantiles_sort_their_input() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(p50_p90_p99(&v), (3.0, 5.0, 5.0));
        assert_eq!(mean(&v), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
