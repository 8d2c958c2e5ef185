//! Order statistics, computed the way the acceptance protocol computes
//! them (Python's `statistics.quantiles(values, n=4)`, exclusive method)
//! so `--compare` and the driver agree on every spread.

/// `(q1, median, q3)` of `values`; a single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a bound is judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(spread(&[7.0]), 0.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
