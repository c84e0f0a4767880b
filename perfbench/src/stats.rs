//! Statistics over exact samples (no histogram buckets).

/// Median of unsorted samples; NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile of unsorted samples, interpolated at rank `(n + 1) / 4`
/// as Python's `statistics.quantiles` does; NaN when empty.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (v.len() + 1) as f64 / 4.0;
    if pos <= 1.0 {
        return v[0];
    }
    let j = pos.floor() as usize;
    if j >= v.len() {
        return v[v.len() - 1];
    }
    v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
}

/// Nearest-rank quantile of sorted samples (the sample at rank
/// `ceil(q * n)`); NaN when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Geometric mean; NaN when empty or when any value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Geometric mean of values weighted by the second of each pair; NaN
/// when empty, when the weights sum to 0, or when any value is not
/// positive.
pub fn weighted_geomean(pairs: &[(f64, f64)]) -> f64 {
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    if total <= 0.0 || pairs.iter().any(|&(v, _)| v.is_nan() || v <= 0.0) {
        return f64::NAN;
    }
    (pairs.iter().map(|(v, w)| v.ln() * w).sum::<f64>() / total).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_exact_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Python: statistics.quantiles([1, 2, 3, 4, 5], n=4)[0] == 1.5
        assert_eq!(lower_quartile(&[5.0, 1.0, 3.0, 2.0, 4.0]), 1.5);
        assert_eq!(lower_quartile(&[2.0, 1.0]), 1.0);
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.5), 100.0);
        assert_eq!(nearest_rank(&sorted, 0.95), 190.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!((weighted_geomean(&[(1.0, 1.0), (8.0, 2.0)]) - 4.0).abs() < 1e-12);
        assert!(weighted_geomean(&[]).is_nan());
    }
}
