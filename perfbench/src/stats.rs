//! Order statistics for pass timings.
//!
//! Quantiles follow Python's `statistics.quantiles(data, n=n)` (its
//! default `exclusive` method), so a spread printed here is the same
//! number a reader gets from the standard library over the same values.

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The `n - 1` cut points that split `values` into `n` groups, as
/// `statistics.quantiles(values, n=n)` computes them. `None` below two
/// values.
pub fn quantiles(values: &[f64], n: usize) -> Option<Vec<f64>> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 || n < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    Some((1..n).map(cut).collect())
}

/// First and third quartiles, as `statistics.quantiles(values, n=4)`
/// computes them. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    quantiles(values, 4).map(|q| (q[0], q[2]))
}

/// The lowest decile: the value nine in ten of `values` reach or exceed.
pub fn lower_decile(values: &[f64]) -> Option<f64> {
    quantiles(values, 10).map(|q| q[0])
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// A tail timing: the value at the highest whole percentile that still
/// leaves at least [`TAIL_BEYOND`] samples above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The nearest-rank percentile used.
    pub percentile: u32,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile `p` whose rank `ceil(p·n/100)`
/// leaves at least [`TAIL_BEYOND`] samples above it. With too few
/// samples for any such percentile the maximum is returned as p100, so
/// the recorded percentile always says which case applied.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return None;
    }
    if n <= TAIL_BEYOND {
        return Some(Tail {
            percentile: 100,
            value: s[n - 1],
            samples: n,
        });
    }
    let percentile = (100 * (n - TAIL_BEYOND) / n) as u32;
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    Some(Tail {
        percentile,
        value: s[rank - 1],
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn deciles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=10)[0] == 1.1
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((lower_decile(&v).expect("ten values") - 1.1).abs() < 1e-12);
        // statistics.quantiles([5, 1, 4, 2, 3], n=10)[0] == 0.6
        let d = lower_decile(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("five values");
        assert!((d - 0.6).abs() < 1e-12);
        // statistics.quantiles([1..19], n=10)[0] == 2.0
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(lower_decile(&v), Some(2.0));
        assert_eq!(lower_decile(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).expect("ten values");
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 100 samples 1..=100: p90 is rank 90, value 90, ten above it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).expect("samples");
        assert_eq!((t.percentile, t.value, t.samples), (90, 90.0, 100));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        // 40 samples: p75, rank 30, exactly ten beyond.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v).expect("samples");
        assert_eq!((t.percentile, t.value), (75, 30.0));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);

        // 37 samples: floor(2700/37) = 72, rank ceil(26.64) = 27.
        let v: Vec<f64> = (1..=37).map(f64::from).collect();
        let t = tail(&v).expect("samples");
        assert_eq!((t.percentile, t.value), (72, 27.0));
        assert!(v.iter().filter(|&&x| x > t.value).count() >= 10);
    }

    #[test]
    fn tail_is_order_independent_and_falls_back_to_max() {
        let mut v: Vec<f64> = (1..=50).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v).map(|t| t.value), Some(40.0));
        let few = [0.3, 0.1, 0.2];
        let t = tail(&few).expect("samples");
        assert_eq!((t.percentile, t.value, t.samples), (100, 0.3, 3));
        assert_eq!(tail(&[]), None);
    }
}
