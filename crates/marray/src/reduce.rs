use crate::array::NdArray;
use crate::element::Element;

impl<T: Element> NdArray<T> {
    /// Sum of all elements, accumulated in `f64`.
    pub fn sum(&self) -> f64 {
        self.data().iter().map(|v| v.to_f64()).sum()
    }

    /// Mean of all elements (`NaN` for empty arrays).
    pub fn mean(&self) -> f64 {
        self.sum() / self.len() as f64
    }

    /// Minimum element as `f64` (`INFINITY` for empty arrays).
    pub fn min(&self) -> f64 {
        self.data()
            .iter()
            .map(|v| v.to_f64())
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum element as `f64` (`NEG_INFINITY` for empty arrays).
    pub fn max(&self) -> f64 {
        self.data()
            .iter()
            .map(|v| v.to_f64())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Population standard deviation of all elements.
    pub fn std(&self) -> f64 {
        let mean = self.mean();
        let var = self
            .data()
            .iter()
            .map(|v| {
                let d = v.to_f64() - mean;
                d * d
            })
            .sum::<f64>()
            / self.len() as f64;
        var.sqrt()
    }

    /// Reduce along `axis` with an arbitrary fold over `f64` accumulators,
    /// producing a rank-(N-1) `f64` array.
    ///
    /// `init` seeds each output cell; `fold` combines an accumulator with
    /// one input element; `finish` post-processes with the reduced extent.
    // scilint: allow(F001, shape invariant upheld by construction; a violation is a kernel bug, not a data error)
    pub fn fold_axis(
        &self,
        axis: usize,
        init: f64,
        mut fold: impl FnMut(f64, f64) -> f64,
        finish: impl Fn(f64, usize) -> f64,
    ) -> NdArray<f64> {
        let shape = self.shape();
        let out_shape = shape.without_axis(axis).expect("axis in range");
        let n = shape.dim(axis);
        let mut acc = vec![init; out_shape.len()];
        if !shape.is_empty() {
            // View the input as (outer, n, inner): every output cell folds
            // its strided column of `n` elements in increasing axis order.
            // Walking each block's `n` rows in turn is the input's own
            // row-major order, so every cell sees the same fold sequence.
            let inner: usize = shape.dims()[axis + 1..].iter().product();
            for (cells, block) in acc
                .chunks_exact_mut(inner)
                .zip(self.data().chunks_exact(n * inner))
            {
                for row in block.chunks_exact(inner) {
                    for (a, v) in cells.iter_mut().zip(row) {
                        *a = fold(*a, v.to_f64());
                    }
                }
            }
        }
        for v in &mut acc {
            *v = finish(*v, n);
        }
        NdArray::from_vec(out_shape.dims(), acc).expect("shape/len agree")
    }

    /// Sum along `axis`.
    pub fn sum_axis(&self, axis: usize) -> NdArray<f64> {
        self.fold_axis(axis, 0.0, |a, v| a + v, |a, _| a)
    }

    /// Mean along `axis` — the Step 1-N "mean volume" operation.
    pub fn mean_axis(&self, axis: usize) -> NdArray<f64> {
        self.fold_axis(axis, 0.0, |a, v| a + v, |a, n| a / n as f64)
    }

    /// Maximum along `axis`.
    pub fn max_axis(&self, axis: usize) -> NdArray<f64> {
        self.fold_axis(axis, f64::NEG_INFINITY, f64::max, |a, _| a)
    }

    /// Minimum along `axis`.
    pub fn min_axis(&self, axis: usize) -> NdArray<f64> {
        self.fold_axis(axis, f64::INFINITY, f64::min, |a, _| a)
    }

    /// Population standard deviation along `axis` (two-pass via sums).
    pub fn std_axis(&self, axis: usize) -> NdArray<f64> {
        let mean = self.mean_axis(axis);
        let sumsq = self.fold_axis(axis, 0.0, |a, v| a + v * v, |a, n| a / n as f64);
        sumsq
            .zip_with(&mean, |sq, m| (sq - m * m).max(0.0).sqrt())
            .expect("shapes agree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(dims: &[usize]) -> NdArray<f64> {
        let mut n = -1.0;
        NdArray::from_fn(dims, |_| {
            n += 1.0;
            n
        })
    }

    #[test]
    fn global_reductions() {
        let a = iota(&[2, 3]); // 0..5
        assert_eq!(a.sum(), 15.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.min(), 0.0);
        assert_eq!(a.max(), 5.0);
        assert!((a.std() - (35.0f64 / 12.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mean_axis_matches_manual() {
        let a = iota(&[2, 3]);
        let m0 = a.mean_axis(0);
        assert_eq!(m0.data(), &[1.5, 2.5, 3.5]);
        let m1 = a.mean_axis(1);
        assert_eq!(m1.data(), &[1.0, 4.0]);
    }

    #[test]
    fn mean_axis_4d_last_axis() {
        // Mean across volumes (axis 3) must equal per-voxel average.
        let a = NdArray::from_fn(&[2, 2, 2, 4], |ix| (ix[3] + 1) as f64);
        let m = a.mean_axis(3);
        assert_eq!(m.dims(), &[2, 2, 2]);
        assert!(m.data().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn std_axis_constant_is_zero() {
        let a = NdArray::<f64>::full(&[3, 4], 7.0);
        let s = a.std_axis(1);
        assert!(s.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn max_min_axis() {
        let a = iota(&[2, 3]);
        assert_eq!(a.max_axis(1).data(), &[2.0, 5.0]);
        assert_eq!(a.min_axis(1).data(), &[0.0, 3.0]);
    }
}
