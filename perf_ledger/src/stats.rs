//! Order statistics used for every reported figure.

/// Returns a sorted copy of `xs` (total order, so NaN cannot panic).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the two middle values averaged for even lengths, as
/// Python's `statistics.median`. `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(xs, n=4)`, so spreads computed here
/// match the ones an outside checker computes from the same values.
/// Needs at least two values; a single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        _ => {
            // signed: after the clamp `delta` can be negative, which
            // extrapolates below the sample for tiny inputs, as in Python
            let (n, m) = (4i64, ld as i64 + 1);
            let mut out = [0.0; 3];
            for (i, q) in (1..n).zip(out.iter_mut()) {
                let j = (i * m / n).clamp(1, ld as i64 - 1);
                let delta = (i * m - j * n) as f64;
                let (lo, hi) = (v[j as usize - 1], v[j as usize]);
                *q = (lo * (n as f64 - delta) + hi * delta) / n as f64;
            }
            out
        }
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    // Reference values from Python 3.11:
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn quartile_median_agrees_with_median() {
        let xs = [0.9, 1.3, 1.1, 1.0, 1.2, 0.95, 1.05];
        assert_eq!(quartiles(&xs)[1], median(&xs));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }
}
