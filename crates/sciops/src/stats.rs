//! Order statistics and robust estimators shared by both pipelines.

/// Median of a slice (average of middle two for even lengths).
/// Returns `NaN` for an empty slice.
///
/// Selects the middle element in `f64::total_cmp` order instead of
/// sorting; for an even length the lower middle is the `total_cmp`
/// maximum of the part below it. `total_cmp` is a total order in which
/// equal values are equal bit for bit, so the result is exactly that of a
/// full sort. The slice is left permuted, not sorted.
pub fn median(values: &mut [f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    let (lower, upper, _) = values.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        *upper
    } else {
        // `lower` holds n / 2 >= 1 values, so the fallback never applies.
        let below = lower
            .iter()
            .copied()
            .max_by(f64::total_cmp)
            .unwrap_or(*upper);
        0.5 * (below + *upper)
    }
}

/// Mean and population standard deviation in one pass.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Iterative sigma clipping in place: `iterations` times, drop every
/// sample more than `kappa` standard deviations from the current mean.
/// Stops early when nothing or everything would go. Survivors keep their
/// input order, so [`mean_std`] sums them in the order a filtered copy
/// would.
fn sigma_clip(kept: &mut Vec<f64>, kappa: f64, iterations: usize) {
    for _ in 0..iterations {
        if kept.len() <= 1 {
            break;
        }
        let (mean, std) = mean_std(kept);
        // scilint: allow(N001, exact-zero std is mean_std's all-equal-samples sentinel so clipping can never remove anything)
        if std == 0.0 {
            break;
        }
        let inside = |v: &f64| (v - mean).abs() <= kappa * std;
        let survivors = kept.iter().filter(|v| inside(v)).count();
        if survivors == 0 || survivors == kept.len() {
            break;
        }
        kept.retain(inside);
    }
}

/// Iteratively sigma-clipped mean: repeatedly discard samples more than
/// `kappa` standard deviations from the current mean, `iterations` times.
///
/// This is the outlier-rejection rule of the co-addition step (Step 3A):
/// "computing the mean flux value for each pixel and setting any pixel that
/// is three standard deviations away from the mean to null", two iterations.
pub fn sigma_clipped_mean(values: &[f64], kappa: f64, iterations: usize) -> f64 {
    let mut kept = values.to_vec();
    sigma_clip(&mut kept, kappa, iterations);
    mean_std(&kept).0
}

/// Sigma-clipped median: like [`sigma_clipped_mean`] but returns the median
/// of the surviving samples (used by background mesh estimation).
pub fn sigma_clipped_median(values: &[f64], kappa: f64, iterations: usize) -> f64 {
    sigma_clipped_median_in_place(&mut values.to_vec(), kappa, iterations)
}

/// [`sigma_clipped_median`] that clips and selects inside `values`,
/// leaving it holding the permuted survivors: callers that gather into a
/// reused buffer pay no copy per call.
pub(crate) fn sigma_clipped_median_in_place(
    values: &mut Vec<f64>,
    kappa: f64,
    iterations: usize,
) -> f64 {
    sigma_clip(values, kappa, iterations);
    median(values)
}

/// Fixed-width histogram over `[lo, hi]` with `bins` buckets.
/// Values outside the range clamp into the edge buckets.
pub fn histogram(values: impl Iterator<Item = f64>, lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for v in values {
        let bin = if width <= 0.0 {
            0
        } else {
            (((v - lo) / width) as isize).clamp(0, bins as isize - 1) as usize
        };
        counts[bin] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m, 5.0);
        assert_eq!(s, 2.0);
    }

    #[test]
    fn sigma_clip_removes_outlier() {
        // 11 inliers at ~10 and one wild outlier.
        let mut v = vec![10.0; 11];
        v.push(1000.0);
        let clipped = sigma_clipped_mean(&v, 3.0, 2);
        assert!((clipped - 10.0).abs() < 1e-9);
        // Plain mean would be dragged far off.
        assert!((mean_std(&v).0 - 10.0).abs() > 50.0);
    }

    #[test]
    fn sigma_clip_no_outliers_equals_mean() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(sigma_clipped_mean(&v, 3.0, 2), 2.5);
    }

    #[test]
    fn sigma_clipped_median_robust() {
        let mut v = vec![5.0, 5.5, 4.5, 5.0, 5.2, 4.8];
        v.push(500.0);
        let m = sigma_clipped_median(&v, 3.0, 2);
        assert!((m - 5.0).abs() < 0.3);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        // 0.5 sits exactly on the bin edge and goes to the upper bin.
        let h = histogram([0.1, 0.9, 0.5, -5.0, 5.0].into_iter(), 0.0, 1.0, 2);
        assert_eq!(h, vec![2, 3]);
        assert_eq!(h.iter().sum::<usize>(), 5);
    }
}
