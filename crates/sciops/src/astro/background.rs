//! Background estimation and subtraction (part of Step 1A and Step 4A).
//!
//! The sky background varies smoothly across a sensor. Following the LSST
//! stack's approach, the image is divided into a coarse mesh of cells; each
//! cell's background is a sigma-clipped median (robust against stars), and
//! the per-pixel background is bilinear interpolation between cell centers.

use crate::stats::sigma_clipped_median_in_place;
use marray::NdArray;
use parexec::{par_chunks_mut, par_map_slabs, Parallelism};

/// Background-mesh parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundParams {
    /// Mesh cell edge length in pixels.
    pub cell_size: usize,
    /// Sigma-clipping threshold inside each cell.
    pub kappa: f64,
    /// Sigma-clipping iterations inside each cell.
    pub clip_iterations: usize,
}

impl Default for BackgroundParams {
    fn default() -> Self {
        BackgroundParams {
            cell_size: 16,
            kappa: 3.0,
            clip_iterations: 2,
        }
    }
}

/// Estimate the smooth background of a 2-D image.
pub fn estimate_background(image: &NdArray<f64>, params: &BackgroundParams) -> NdArray<f64> {
    estimate_background_par(image, params, Parallelism::Serial)
}

/// [`estimate_background`] with explicit intra-node parallelism: mesh rows
/// are clipped independently, then output pixel rows are interpolated
/// independently, each across `par.workers()` threads. Both stages are
/// per-row pure functions of read-only inputs, so output is bit-identical
/// at every worker count.
pub fn estimate_background_par(
    image: &NdArray<f64>,
    params: &BackgroundParams,
    par: Parallelism,
) -> NdArray<f64> {
    assert_eq!(
        image.shape().rank(),
        2,
        "background estimation expects a 2-D image"
    );
    let (rows, cols) = (image.dims()[0], image.dims()[1]);
    let cell = params.cell_size.max(1);
    let mesh_rows = rows.div_ceil(cell).max(1);
    let mesh_cols = cols.div_ceil(cell).max(1);

    // Robust per-cell levels, one mesh row per slab. Each cell is gathered
    // row slice by row slice into one reused buffer, then clipped and
    // selected in place.
    let data = image.data();
    let mesh_row_ids: Vec<usize> = (0..mesh_rows).collect();
    let mesh: Vec<f64> = par_map_slabs(&mesh_row_ids, par, |_, &mr| {
        let mut mesh_row = vec![0.0f64; mesh_cols];
        let mut cell_values = Vec::with_capacity(cell * cell);
        let r1 = ((mr + 1) * cell).min(rows);
        for (mc, slot) in mesh_row.iter_mut().enumerate() {
            cell_values.clear();
            let (c0, c1) = (mc * cell, ((mc + 1) * cell).min(cols));
            for r in mr * cell..r1 {
                cell_values.extend_from_slice(&data[r * cols + c0..r * cols + c1]);
            }
            *slot = sigma_clipped_median_in_place(
                &mut cell_values,
                params.kappa,
                params.clip_iterations,
            );
        }
        mesh_row
    })
    .into_iter()
    .flatten()
    .collect();

    // Bilinear interpolation between cell centers, one pixel row per slab.
    let mut out = NdArray::zeros(&[rows, cols]);
    if cols == 0 {
        return out;
    }
    // Fractional mesh position of pixel `i` along an axis of `mesh_len`
    // cells, measured from the first cell's center: the two neighbouring
    // cells and the weight of the second.
    let center0 = (cell as f64 - 1.0) / 2.0;
    let weights = |i: usize, mesh_len: usize| -> (usize, usize, f64) {
        let f = if mesh_len == 1 {
            0.0
        } else {
            (((i as f64) - center0) / cell as f64).clamp(0.0, (mesh_len - 1) as f64)
        };
        let m0 = f.floor() as usize;
        (m0, (m0 + 1).min(mesh_len - 1), f - m0 as f64)
    };
    // Column weights depend only on the column, so compute them once.
    let col_weights: Vec<(usize, usize, f64)> = (0..cols).map(|c| weights(c, mesh_cols)).collect();
    par_chunks_mut(out.data_mut(), cols, par, |r, out_row| {
        let (mr0, mr1, tr) = weights(r, mesh_rows);
        let (top_row, bottom_row) = (&mesh[mr0 * mesh_cols..], &mesh[mr1 * mesh_cols..]);
        for (slot, &(mc0, mc1, tc)) in out_row.iter_mut().zip(&col_weights) {
            let top = top_row[mc0] * (1.0 - tc) + top_row[mc1] * tc;
            let bottom = bottom_row[mc0] * (1.0 - tc) + bottom_row[mc1] * tc;
            *slot = top * (1.0 - tr) + bottom * tr;
        }
    });
    out
}

/// Subtract the estimated background from an image.
pub fn subtract_background(image: &NdArray<f64>, params: &BackgroundParams) -> NdArray<f64> {
    subtract_background_par(image, params, Parallelism::Serial)
}

/// [`subtract_background`] with explicit intra-node parallelism.
// scilint: allow(F001, shape invariant upheld by construction; a violation is a kernel bug, not a data error)
pub fn subtract_background_par(
    image: &NdArray<f64>,
    params: &BackgroundParams,
    par: Parallelism,
) -> NdArray<f64> {
    let bg = estimate_background_par(image, params, par);
    image.zip_with(&bg, |v, b| v - b).expect("same shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_background_recovered_exactly() {
        let img = NdArray::<f64>::full(&[32, 32], 250.0);
        let bg = estimate_background(&img, &BackgroundParams::default());
        for &v in bg.data() {
            assert!((v - 250.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gradient_background_tracked() {
        // Linear ramp along columns.
        let img = NdArray::from_fn(&[32, 64], |ix| 100.0 + ix[1] as f64);
        let bg = estimate_background(
            &img,
            &BackgroundParams {
                cell_size: 8,
                ..Default::default()
            },
        );
        // Interior pixels track the ramp closely.
        for r in 8..24 {
            for c in 8..56 {
                let expected = 100.0 + c as f64;
                let got = bg[&[r, c][..]];
                assert!(
                    (got - expected).abs() < 2.0,
                    "({r},{c}): {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn stars_do_not_bias_background() {
        // Flat sky + a few very bright "stars" — the robust mesh ignores them.
        let mut img = NdArray::<f64>::full(&[32, 32], 50.0);
        for &(r, c) in &[(5usize, 5usize), (20, 11), (28, 30)] {
            img[&[r, c][..]] = 50_000.0;
        }
        let bg = estimate_background(
            &img,
            &BackgroundParams {
                cell_size: 8,
                ..Default::default()
            },
        );
        for &v in bg.data() {
            assert!((v - 50.0).abs() < 1.0, "background {v} biased by stars");
        }
    }

    #[test]
    fn subtract_centers_residuals_at_zero() {
        let img = NdArray::from_fn(&[32, 32], |ix| 10.0 + 0.5 * ix[0] as f64);
        let sub = subtract_background(
            &img,
            &BackgroundParams {
                cell_size: 8,
                ..Default::default()
            },
        );
        assert!(sub.mean().abs() < 0.5);
    }

    #[test]
    fn parallel_background_is_bit_identical() {
        let img = NdArray::from_fn(&[33, 29], |ix| {
            40.0 + 0.3 * ix[0] as f64 - 0.2 * ix[1] as f64 + ((ix[0] * 29 + ix[1]) % 7) as f64
        });
        let params = BackgroundParams {
            cell_size: 8,
            ..Default::default()
        };
        let serial = estimate_background_par(&img, &params, Parallelism::Serial);
        for workers in [1usize, 2, 4, 8] {
            let par = estimate_background_par(&img, &params, Parallelism::threads(workers));
            assert_eq!(serial, par, "workers={workers}");
        }
    }

    #[test]
    fn compressed_image_reproduces_dense_background_bitwise() {
        // Mostly-constant "flat-field" plane with a few star islands:
        // packs to Rle, and the kernel must read it exactly as it reads the
        // dense plane.
        let mut img = NdArray::<f64>::full(&[33, 29], 120.0);
        for &(r, c) in &[(3usize, 4usize), (3, 5), (17, 20), (30, 2)] {
            img[&[r, c][..]] = 50_000.0 + (r * 29 + c) as f64;
        }
        let packed = img.compressed();
        assert_eq!(packed.repr(), marray::ChunkRepr::Rle, "plane must pack");
        let params = BackgroundParams {
            cell_size: 8,
            ..Default::default()
        };
        let base = estimate_background(&img, &params);
        for workers in [1usize, 2, 4, 8] {
            let got = estimate_background_par(&packed, &params, Parallelism::threads(workers));
            assert!(
                base.data()
                    .iter()
                    .zip(got.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "compressed background differs at workers={workers}"
            );
        }
    }

    #[test]
    fn tiny_image_single_cell() {
        let img = NdArray::<f64>::full(&[4, 4], 9.0);
        let bg = estimate_background(
            &img,
            &BackgroundParams {
                cell_size: 16,
                ..Default::default()
            },
        );
        for &v in bg.data() {
            assert_eq!(v, 9.0);
        }
    }
}
