//! Estimators: percentiles over raw samples, and the reduction of a run's
//! ten slices to one figure.

/// The `p`-th percentile (`0.0..=1.0`) of `sorted` by nearest rank: the
/// smallest sample with at least `p` of the samples at or below it. An
/// actual observation, never an interpolation. 0 for no samples.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the middle half of `sorted` (between its quartiles): a centre that
/// ignores the tail as a median does, but moves smoothly when the samples
/// come from two populations. On `hbase_mix` a call runs either alone (the
/// other caller is inside an HDFS write, ~18 us) or beside the other (~42 us);
/// the plain median sits on the cliff between the two and swung +-10 % from
/// run to run with the mix, this +-4 %. 0 for no samples.
pub fn interquartile_mean(sorted: &[u64]) -> f64 {
    let cut = sorted.len() / 4;
    let mid = &sorted[cut..sorted.len() - cut];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().sum::<u64>() as f64 / mid.len() as f64
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `values` without the smallest and the largest one.
///
/// Every per-slice number of a run is reduced with this. A median of the
/// ten slices would shrug off more, but it is the wrong tool when the
/// program has periodic work of its own: on `hbase_mix` the DataNodes'
/// block reports land in four slices of ten, the median then sits on the
/// edge between clean and hit slices, and which side it falls is the
/// phase's luck (12 k or 23 k ops/s from one build) while the mean of the
/// same slices repeats within 2 %. Dropping one slice at each end still
/// forgives a single stall.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() > 2 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Standard error of the mean of `values`, as a share of that mean: how far
/// a run's figure could sit from where the next run's would, judged from
/// its own slices. 0 when it cannot be formed.
pub fn rel_std_err(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (var / n).sqrt() / mean.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 0.999), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[7], 0.5), 7);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        // Odd count: the true middle.
        assert_eq!(percentile_sorted(&[1, 2, 9], 0.5), 2);
    }

    #[test]
    fn interquartile_mean_ignores_both_tails() {
        // Quarter of 8 is 2: the middle four of 1,2,3,4,5,6,7,1000.
        assert_eq!(interquartile_mean(&[1, 2, 3, 4, 5, 6, 7, 1000]), 4.5);
        // Two populations, 60/40: between them, not on either.
        let mixed: Vec<u64> = [18; 60].into_iter().chain([42; 40]).collect();
        assert_eq!(
            interquartile_mean(&mixed),
            (35.0 * 18.0 + 15.0 * 42.0) / 50.0
        );
        assert_eq!(interquartile_mean(&[7]), 7.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[f64::NAN, 5.0]), 5.0);
    }

    #[test]
    fn trimmed_mean_forgives_one_stall_and_keeps_a_pattern() {
        // One stalled slice (and the best one) are dropped.
        assert_eq!(trimmed_mean(&[100.0, 100.0, 10.0, 100.0, 130.0]), 100.0);
        // A pattern of hit slices stays in: 4 hit, 6 clean.
        let pattern = [23.0, 23.0, 18.0, 23.0, 15.0, 23.0, 13.0, 23.0, 11.0, 23.0];
        assert_eq!(trimmed_mean(&pattern), (195.0 - 11.0 - 23.0) / 8.0);
        assert_eq!(trimmed_mean(&[4.0, 2.0]), 3.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
        assert_eq!(trimmed_mean(&[f64::NAN, 5.0, 5.0, 5.0]), 5.0);
    }

    #[test]
    fn std_err_is_relative_to_the_mean() {
        // sd of [90, 100, 110] is 10; /sqrt(3) over a mean of 100.
        let se = rel_std_err(&[90.0, 100.0, 110.0]);
        assert!((se - 10.0 / 3f64.sqrt() / 100.0).abs() < 1e-12);
        assert_eq!(rel_std_err(&[7.0, 7.0, 7.0]), 0.0);
        assert_eq!(rel_std_err(&[7.0]), 0.0);
        assert_eq!(rel_std_err(&[0.0, 0.0]), 0.0);
    }
}
