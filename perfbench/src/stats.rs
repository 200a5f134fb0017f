//! Order statistics over raw samples.
//!
//! Every percentile the benchmark prints is computed here from the raw
//! samples, never from the `hp-obs` log-bucket histograms (whose
//! quarter-octave buckets move in 19 % steps).

/// Samples that must lie strictly above a percentile before it is
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` when `xs` is empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// A percentile read off raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank `ceil(q · n)`.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank rule.
///
/// Returns `None` unless at least [`MIN_BEYOND`] samples lie strictly
/// above it: a tail percentile resting on fewer samples does not repeat.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let value = v[rank - 1];
    let beyond = n - v.partition_point(|x| *x <= value);
    (beyond >= MIN_BEYOND).then_some(Percentile {
        value,
        samples: n,
        beyond,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_uses_nearest_rank_on_raw_samples() {
        let p = percentile(&ramp(1000), 0.99).expect("10 samples beyond");
        assert_eq!(p.value, 990.0);
        assert_eq!(p.samples, 1000);
        assert_eq!(p.beyond, 10);
        // Order of the input does not matter.
        let mut rev = ramp(1000);
        rev.reverse();
        assert_eq!(percentile(&rev, 0.99), Some(p));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 999 samples: rank ceil(989.01) = 990 leaves only 9 above.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // The median of 20 samples has 10 above it.
        let p50 = percentile(&ramp(20), 0.5).expect("10 beyond");
        assert_eq!((p50.value, p50.beyond), (10.0, 10));
        assert_eq!(percentile(&ramp(19), 0.5), None);
    }

    #[test]
    fn ties_at_the_percentile_do_not_count_as_beyond() {
        // 990 copies of 1.0 then 9 larger values: p99 = 1.0 with only
        // 9 samples strictly above it.
        let mut xs = vec![1.0; 990];
        xs.extend((0..9).map(|i| 2.0 + f64::from(i)));
        xs.push(1.0);
        assert_eq!(percentile(&xs, 0.99), None);
        xs.push(50.0);
        let p = percentile(&xs, 0.99).expect("10 beyond");
        assert_eq!((p.value, p.beyond), (1.0, 10));
    }

    #[test]
    fn degenerate_inputs_report_nothing() {
        assert_eq!(percentile(&[], 0.99), None);
        assert_eq!(percentile(&ramp(100), 1.0), None);
        assert_eq!(percentile(&ramp(100), 0.0), None);
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0]), Some(1.5));
    }
}
