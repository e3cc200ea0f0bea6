//! Cosmic-ray and cosmetic-defect detection and repair (part of Step 1A).
//!
//! Cosmic rays deposit charge in isolated pixels or short trails that are
//! much sharper than the instrument's point-spread function. The detector
//! here uses a Laplacian significance test (van Dokkum's L.A.Cosmic idea in
//! simplified form): a pixel whose Laplacian is many noise sigmas above its
//! neighborhood is flagged; flagged pixels are repaired with the median of
//! their unflagged neighbors.

use marray::NdArray;

/// Mask bit set on pixels identified as cosmic-ray hits.
pub const MASK_CR: u8 = 0b0000_0001;
/// Mask bit set on known-bad detector pixels.
pub const MASK_BAD: u8 = 0b0000_0010;

/// Cosmic-ray detector parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosmicParams {
    /// Detection threshold in noise sigmas.
    pub threshold_sigma: f64,
}

impl Default for CosmicParams {
    fn default() -> Self {
        // High enough that a PSF-shaped source (whose own shot noise raises
        // the local sigma) never trips the test, while single-pixel hits —
        // whose Laplacian is ~4× their full amplitude — exceed it hugely.
        CosmicParams {
            threshold_sigma: 15.0,
        }
    }
}

/// Detect cosmic rays in an image with a per-pixel `variance` plane.
/// Returns the per-pixel hit flags as an `u8` array (1 = hit).
pub fn detect_cosmic_rays(
    image: &NdArray<f64>,
    variance: &NdArray<f64>,
    params: &CosmicParams,
) -> NdArray<u8> {
    assert_eq!(image.dims(), variance.dims());
    let (rows, cols) = (image.dims()[0], image.dims()[1]);
    let (data, var) = (image.data(), variance.data());
    let mut flags = NdArray::<u8>::zeros(&[rows, cols]);
    let hits = flags.data_mut();
    for r in 0..rows {
        // 4-neighbor Laplacian with border clamping.
        let row = &data[r * cols..(r + 1) * cols];
        let up_row = &data[r.saturating_sub(1) * cols..][..cols];
        let down_row = &data[(r + 1).min(rows - 1) * cols..][..cols];
        let var_row = &var[r * cols..(r + 1) * cols];
        let hit_row = &mut hits[r * cols..(r + 1) * cols];
        for c in 0..cols {
            let v = row[c];
            let left = row[c.saturating_sub(1)];
            let right = row[(c + 1).min(cols - 1)];
            let lap = 4.0 * v - up_row[c] - down_row[c] - left - right;
            let sigma = var_row[c].max(1e-12).sqrt();
            if lap > params.threshold_sigma * sigma * 4.0 {
                hit_row[c] = 1;
            }
        }
    }
    flags
}

/// Repair flagged pixels in place with the median of their unflagged
/// 8-neighborhood; pixels with no clean neighbor fall back to the local mean
/// of the whole neighborhood.
///
/// Every replacement is computed from the unrepaired image first and then
/// written, so the image is mutated in place, never copied.
pub fn repair(image: &mut NdArray<f64>, flags: &NdArray<u8>) {
    assert_eq!(image.dims(), flags.dims());
    let (rows, cols) = (image.dims()[0], image.dims()[1]);
    let (data, flagged) = (image.data(), flags.data());
    let mut replacements: Vec<(usize, f64)> = Vec::new();
    for (p, _) in flagged.iter().enumerate().filter(|&(_, &f)| f != 0) {
        let (r, c) = (p / cols, p % cols);
        // Clean and all in-bounds neighbors, in row-major order.
        let (mut clean, mut all) = ([0.0f64; 8], [0.0f64; 8]);
        let (mut n_clean, mut n_all) = (0, 0);
        for nr in r.saturating_sub(1)..(r + 2).min(rows) {
            for nc in c.saturating_sub(1)..(c + 2).min(cols) {
                if nr == r && nc == c {
                    continue;
                }
                let off = nr * cols + nc;
                all[n_all] = data[off];
                n_all += 1;
                if flagged[off] == 0 {
                    clean[n_clean] = data[off];
                    n_clean += 1;
                }
            }
        }
        let replacement = if n_clean > 0 {
            crate::stats::median(&mut clean[..n_clean])
        } else {
            all[..n_all].iter().sum::<f64>() / n_all.max(1) as f64
        };
        replacements.push((p, replacement));
    }
    // A clean image is not touched, so a shared plane is not unshared.
    if replacements.is_empty() {
        return;
    }
    let out = image.data_mut();
    for (p, v) in replacements {
        out[p] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_with_hit() -> (NdArray<f64>, NdArray<f64>) {
        let mut img = NdArray::<f64>::full(&[16, 16], 100.0);
        img[&[8, 8][..]] = 5000.0; // single-pixel cosmic ray
        let var = NdArray::<f64>::full(&[16, 16], 100.0); // sigma = 10
        (img, var)
    }

    #[test]
    fn detects_isolated_hit() {
        let (img, var) = flat_with_hit();
        let flags = detect_cosmic_rays(&img, &var, &CosmicParams::default());
        assert_eq!(flags[&[8, 8][..]], 1);
        assert_eq!(flags.sum() as usize, 1, "only the hit is flagged");
    }

    #[test]
    fn smooth_star_not_flagged() {
        // A PSF-like blob (slowly varying) must not trigger.
        let img = NdArray::from_fn(&[16, 16], |ix| {
            let dr = ix[0] as f64 - 8.0;
            let dc = ix[1] as f64 - 8.0;
            100.0 + 500.0 * (-(dr * dr + dc * dc) / 18.0).exp()
        });
        let var = NdArray::<f64>::full(&[16, 16], 100.0);
        let flags = detect_cosmic_rays(&img, &var, &CosmicParams::default());
        assert_eq!(flags.sum(), 0.0, "smooth PSF flagged as cosmic ray");
    }

    #[test]
    fn repair_restores_flat_level() {
        let (mut img, var) = flat_with_hit();
        let flags = detect_cosmic_rays(&img, &var, &CosmicParams::default());
        repair(&mut img, &flags);
        assert!((img[&[8, 8][..]] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn repair_of_cluster_uses_clean_neighbors() {
        let mut img = NdArray::<f64>::full(&[8, 8], 10.0);
        let mut flags = NdArray::<u8>::zeros(&[8, 8]);
        for &(r, c) in &[(3usize, 3usize), (3, 4), (4, 3)] {
            img[&[r, c][..]] = 9999.0;
            flags[&[r, c][..]] = 1;
        }
        repair(&mut img, &flags);
        for &(r, c) in &[(3usize, 3usize), (3, 4), (4, 3)] {
            assert!((img[&[r, c][..]] - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn higher_threshold_detects_less() {
        let (img, var) = flat_with_hit();
        let strict = detect_cosmic_rays(
            &img,
            &var,
            &CosmicParams {
                threshold_sigma: 1e6,
            },
        );
        assert_eq!(strict.sum(), 0.0);
    }
}
