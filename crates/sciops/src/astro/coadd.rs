//! Step 3A — co-addition with iterative outlier rejection.
//!
//! Exposures of the same patch from different visits are stacked: for each
//! pixel, compute the mean across visits, null out samples more than three
//! standard deviations away, and repeat (two cleaning iterations in the
//! reference). The surviving samples are averaged with inverse-variance
//! weights. The output per patch is a *Coadd*.

use crate::astro::geometry::{Exposure, SkyBox};
use marray::NdArray;
use parexec::{par_map_slabs, Parallelism};

/// Co-addition parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoaddParams {
    /// Outlier rejection threshold in standard deviations.
    pub kappa: f64,
    /// Number of rejection iterations (the paper's reference uses 2).
    pub iterations: usize,
}

impl Default for CoaddParams {
    fn default() -> Self {
        CoaddParams {
            kappa: 3.0,
            iterations: 2,
        }
    }
}

/// The stacked output for one patch.
#[derive(Debug, Clone, PartialEq)]
pub struct Coadd {
    /// Sky region the coadd covers.
    pub bbox: SkyBox,
    /// Clipped, inverse-variance-weighted mean flux per pixel.
    pub flux: NdArray<f64>,
    /// Variance of the weighted mean per pixel.
    pub variance: NdArray<f64>,
    /// Number of visits contributing to each pixel after clipping.
    pub depth: NdArray<u16>,
}

/// Stack per-patch exposures from different visits into a coadd.
///
/// All inputs must share the same bbox (they are the same patch cut from
/// different visits). Pixels where an input's mask is non-zero are excluded
/// from that input's contribution.
pub fn coadd_sigma_clip(exposures: &[Exposure], params: &CoaddParams) -> Coadd {
    coadd_sigma_clip_par(exposures, params, Parallelism::Serial)
}

/// [`coadd_sigma_clip`] with explicit intra-node parallelism: pixel rows of
/// the stack are clipped and averaged independently across
/// `par.workers()` threads. Each pixel's rejection loop only reads its own
/// column of samples, so output is bit-identical at every worker count.
// scilint: allow(F001, shape invariant upheld by construction; a violation is a kernel bug, not a data error)
pub fn coadd_sigma_clip_par(
    exposures: &[Exposure],
    params: &CoaddParams,
    par: Parallelism,
) -> Coadd {
    let first = exposures.first().expect("coadd of zero exposures");
    let bbox = first.bbox;
    for e in exposures {
        assert_eq!(e.bbox, bbox, "all coadd inputs must cover the same patch");
    }
    let (rows, cols) = first.dims();
    let n = exposures.len();

    // Each exposure's (flux, variance, mask) slices, taken once: a packed
    // mask decodes here, not inside the pixel loop.
    let planes: Vec<(&[f64], &[f64], &[u8])> = exposures
        .iter()
        .map(|e| (e.flux.data(), e.variance.data(), e.mask.data()))
        .collect();
    let row_ids: Vec<usize> = (0..rows).collect();
    let stacked = par_map_slabs(&row_ids, par, |_, &r| {
        let mut flux_row = vec![0.0f64; cols];
        let mut var_row = vec![0.0f64; cols];
        let mut depth_row = vec![0u16; cols];
        let mut samples: Vec<(f64, f64)> = Vec::with_capacity(n); // (flux, var)
        let mut vals: Vec<f64> = Vec::with_capacity(n);
        for c in 0..cols {
            let p = r * cols + c;
            samples.clear();
            for &(flux, var, mask) in &planes {
                if mask[p] == 0 {
                    samples.push((flux[p], var[p].max(1e-12)));
                }
            }
            if samples.is_empty() {
                continue;
            }
            // Iterative 3-sigma rejection on the flux samples.
            for _ in 0..params.iterations {
                if samples.len() <= 1 {
                    break;
                }
                vals.clear();
                vals.extend(samples.iter().map(|s| s.0));
                let (mean, std) = crate::stats::mean_std(&vals);
                // scilint: allow(N001, exact-zero std is mean_std's all-equal-samples sentinel so clipping can never remove anything)
                if std == 0.0 {
                    break;
                }
                let before = samples.len();
                samples.retain(|s| (s.0 - mean).abs() <= params.kappa * std);
                if samples.is_empty() || samples.len() == before {
                    break;
                }
            }
            // Inverse-variance weighted mean of the survivors.
            let wsum: f64 = samples.iter().map(|s| 1.0 / s.1).sum();
            let fsum: f64 = samples.iter().map(|s| s.0 / s.1).sum();
            flux_row[c] = fsum / wsum;
            var_row[c] = 1.0 / wsum;
            // scilint: allow(N002, depth counts visits per pixel which is far below u16::MAX)
            depth_row[c] = samples.len() as u16;
        }
        (flux_row, var_row, depth_row)
    });

    let mut flux = Vec::with_capacity(rows * cols);
    let mut variance = Vec::with_capacity(rows * cols);
    let mut depth = Vec::with_capacity(rows * cols);
    for (flux_row, var_row, depth_row) in stacked {
        flux.extend(flux_row);
        variance.extend(var_row);
        depth.extend(depth_row);
    }
    Coadd {
        bbox,
        flux: NdArray::from_vec(&[rows, cols], flux).expect("row stitching preserves shape"),
        variance: NdArray::from_vec(&[rows, cols], variance)
            .expect("row stitching preserves shape"),
        depth: NdArray::from_vec(&[rows, cols], depth).expect("row stitching preserves shape"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marray::NdArray;

    fn exposure(visit: u32, flux: NdArray<f64>) -> Exposure {
        let dims = flux.dims().to_vec();
        Exposure {
            visit,
            sensor: 0,
            bbox: SkyBox {
                x0: 0,
                y0: 0,
                width: dims[1] as u64,
                height: dims[0] as u64,
            },
            variance: NdArray::full(&dims, 4.0),
            mask: NdArray::zeros(&dims),
            flux,
        }
    }

    #[test]
    fn mean_of_identical_exposures() {
        let e = exposure(0, NdArray::full(&[4, 4], 10.0));
        let stack: Vec<Exposure> = (0..6)
            .map(|v| Exposure {
                visit: v,
                ..e.clone()
            })
            .collect();
        let coadd = coadd_sigma_clip(&stack, &CoaddParams::default());
        for &v in coadd.flux.data() {
            assert!((v - 10.0).abs() < 1e-12);
        }
        // Variance of a 6-fold mean of var-4 samples is 4/6.
        for &v in coadd.variance.data() {
            assert!((v - 4.0 / 6.0).abs() < 1e-12);
        }
        assert!(coadd.depth.data().iter().all(|&d| d == 6));
    }

    #[test]
    fn transient_outlier_rejected() {
        // 11 visits at 10, one at 10_000 (e.g. an uncaught cosmic ray/satellite).
        let mut stack: Vec<Exposure> = (0..11)
            .map(|v| {
                exposure(
                    v,
                    NdArray::from_fn(&[3, 3], |ix| 10.0 + 0.01 * (v as f64 + ix[0] as f64)),
                )
            })
            .collect();
        stack.push(exposure(11, NdArray::full(&[3, 3], 10_000.0)));
        let coadd = coadd_sigma_clip(&stack, &CoaddParams::default());
        for &v in coadd.flux.data() {
            assert!((v - 10.0).abs() < 0.5, "outlier survived: {v}");
        }
        assert!(coadd.depth.data().iter().all(|&d| d == 11));
    }

    #[test]
    fn masked_pixels_excluded() {
        let clean = exposure(0, NdArray::full(&[2, 2], 5.0));
        let mut flagged = exposure(1, NdArray::full(&[2, 2], 50.0));
        flagged.mask[&[0, 0][..]] = 1;
        let coadd = coadd_sigma_clip(&[clean, flagged], &CoaddParams::default());
        assert_eq!(coadd.depth[&[0, 0][..]], 1, "masked sample dropped");
        assert!((coadd.flux[&[0, 0][..]] - 5.0).abs() < 1e-12);
        assert_eq!(coadd.depth[&[1, 1][..]], 2);
    }

    #[test]
    fn inverse_variance_weighting() {
        let mut precise = exposure(0, NdArray::full(&[1, 1], 0.0));
        precise.variance = NdArray::full(&[1, 1], 1.0);
        let mut noisy = exposure(1, NdArray::full(&[1, 1], 10.0));
        noisy.variance = NdArray::full(&[1, 1], 9.0);
        let coadd = coadd_sigma_clip(
            &[precise, noisy],
            &CoaddParams {
                kappa: 100.0,
                iterations: 0,
            },
        );
        // Weighted mean = (0/1 + 10/9) / (1 + 1/9) = 1.0.
        assert!((coadd.flux[&[0, 0][..]] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_coadd_is_bit_identical() {
        let stack: Vec<Exposure> = (0..7)
            .map(|v| {
                exposure(
                    v,
                    NdArray::from_fn(&[9, 5], |ix| {
                        10.0 + (v as f64) * 0.3 + (ix[0] * 5 + ix[1]) as f64 * 0.07
                    }),
                )
            })
            .collect();
        let params = CoaddParams::default();
        let serial = coadd_sigma_clip_par(&stack, &params, Parallelism::Serial);
        for workers in [1usize, 2, 4, 8] {
            let par = coadd_sigma_clip_par(&stack, &params, Parallelism::threads(workers));
            assert_eq!(serial, par, "workers={workers}");
        }
    }

    #[test]
    fn compressed_planes_reproduce_dense_coadd_bitwise() {
        let dense: Vec<Exposure> = (0..6)
            .map(|v| {
                let mut e = exposure(
                    v,
                    NdArray::from_fn(&[11, 7], |ix| {
                        20.0 + (v as f64) * 0.4 + ((ix[0] * 7 + ix[1]) % 13) as f64 * 0.9
                    }),
                );
                if v == 3 {
                    // Partially flagged mask: packs to Rle.
                    e.mask[&[2, 2][..]] = 1;
                    e.mask[&[2, 3][..]] = 1;
                }
                if v == 5 {
                    // Fully flagged mask: packs to Const(1).
                    e.mask = NdArray::full(&[11, 7], 1);
                }
                e
            })
            .collect();
        let compressed: Vec<Exposure> = dense
            .iter()
            .map(|e| Exposure {
                flux: e.flux.compressed(),
                variance: e.variance.compressed(),
                mask: e.mask.compressed(),
                ..e.clone()
            })
            .collect();
        assert!(
            compressed
                .iter()
                .any(|e| e.mask.repr() == marray::ChunkRepr::Const
                    && e.variance.repr() == marray::ChunkRepr::Const),
            "no exposure packed both its mask and its variance plane"
        );
        let params = CoaddParams::default();
        let base = coadd_sigma_clip(&dense, &params);
        let eq = |a: &NdArray<f64>, b: &NdArray<f64>| {
            a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
        };
        for workers in [1usize, 2, 4, 8] {
            let got = coadd_sigma_clip_par(&compressed, &params, Parallelism::threads(workers));
            assert!(
                eq(&base.flux, &got.flux),
                "flux differs at workers={workers}"
            );
            assert!(
                eq(&base.variance, &got.variance),
                "variance differs at workers={workers}"
            );
            assert_eq!(base.depth, got.depth, "depth differs at workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "same patch")]
    fn mismatched_bboxes_panic() {
        let a = exposure(0, NdArray::full(&[2, 2], 1.0));
        let mut b = exposure(1, NdArray::full(&[2, 2], 1.0));
        b.bbox = SkyBox {
            x0: 5,
            y0: 0,
            width: 2,
            height: 2,
        };
        coadd_sigma_clip(&[a, b], &CoaddParams::default());
    }
}
