//! Order statistics over wall-clock samples.

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) so the
/// ledger's spread is the number the acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => return [f64::NAN; 3],
        1 => return [data[0]; 3],
        _ => {}
    }
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    cuts
}

pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// difference must exceed to be resolvable.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let mid = median(values);
    if mid == 0.0 || !mid.is_finite() {
        return 0.0;
    }
    (q3 - q1) / mid.abs()
}

/// The `q`-quantile by nearest rank (used for tails, where interpolating
/// between the two slowest samples would invent a value nobody measured).
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    if data.is_empty() {
        return f64::NAN;
    }
    let rank = (q * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn medians_tails_and_means() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.9), 4.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((spread(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }
}
