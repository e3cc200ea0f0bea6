//! The single-machine neuroscience reference pipeline (Steps 1N → 2N → 3N).
//!
//! This plays the role of the paper's Python/Cython reference implementation
//! ("executes as a single process on one machine"): every engine's output is
//! validated against it.

use crate::neuro::denoise::{nlmeans3d, NlmParams};
use crate::neuro::dtm::fit_dtm_volume_par;
use crate::neuro::gradients::GradientTable;
use crate::neuro::segment::median_otsu;
use marray::{Mask, NdArray};
use parexec::{par_map_slabs, Parallelism};

/// Output of the full neuroscience pipeline for one subject.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuroOutput {
    /// The Step 1N brain mask.
    pub mask: Mask,
    /// The Step 1N mean b0 volume.
    pub mean_b0: NdArray<f64>,
    /// The Step 2N denoised volumes, stacked back into (x,y,z,volume).
    pub denoised: NdArray<f64>,
    /// The Step 3N fractional anisotropy map.
    pub fa: NdArray<f64>,
}

/// Step 1N in isolation: filter to b0 volumes, average, build the mask.
// scilint: allow(F001, shape invariant upheld by construction; a violation is a kernel bug, not a data error)
pub fn segmentation(data: &NdArray<f64>, gtab: &GradientTable) -> (NdArray<f64>, Mask) {
    let b0 = data
        .compress_axis(&gtab.b0s_mask(), 3)
        .expect("b0 mask matches volume axis");
    let mean_b0 = b0.mean_axis(3);
    let mask = median_otsu(&mean_b0, 1);
    (mean_b0, mask)
}

/// Step 2N in isolation: denoise every volume under the mask.
pub fn denoise_all(data: &NdArray<f64>, mask: &Mask, params: &NlmParams) -> NdArray<f64> {
    denoise_all_par(data, mask, params, Parallelism::Serial)
}

/// [`denoise_all`] with explicit intra-node parallelism: the volumes fan
/// out across `par.workers()` threads, each denoised by the serial kernel,
/// so a subject costs one parallel call instead of one per volume. Output
/// is bit-identical at every worker count: each volume's result is the
/// serial kernel's, and the stack keeps volume order.
// scilint: allow(F001, shape invariant upheld by construction; a violation is a kernel bug, not a data error)
pub fn denoise_all_par(
    data: &NdArray<f64>,
    mask: &Mask,
    params: &NlmParams,
    par: Parallelism,
) -> NdArray<f64> {
    let ids: Vec<usize> = (0..data.dims()[3]).collect();
    let volumes = par_map_slabs(&ids, par, |_, &v| {
        let vol = data.slice_axis(3, v).expect("volume index in range");
        let den = nlmeans3d(&vol, Some(mask), params);
        let mut vd = den.dims().to_vec();
        vd.push(1);
        den.reshape(&vd).expect("same element count")
    });
    let refs: Vec<&NdArray<f64>> = volumes.iter().collect();
    NdArray::concat(&refs, 3).expect("volumes share spatial dims")
}

/// Run the complete three-step pipeline for one subject.
///
/// `data` is the 4-D (x, y, z, volume) dataset; `gtab` describes the
/// acquisition.
pub fn reference_pipeline(
    data: &NdArray<f64>,
    gtab: &GradientTable,
    nlm: &NlmParams,
) -> NeuroOutput {
    reference_pipeline_par(data, gtab, nlm, Parallelism::Serial)
}

/// [`reference_pipeline`] with explicit intra-node parallelism threaded
/// through the denoising and tensor-fitting steps (segmentation is a
/// negligible fraction of the runtime and stays serial).
pub fn reference_pipeline_par(
    data: &NdArray<f64>,
    gtab: &GradientTable,
    nlm: &NlmParams,
    par: Parallelism,
) -> NeuroOutput {
    let (mean_b0, mask) = segmentation(data, gtab);
    let denoised = denoise_all_par(data, &mask, nlm, par);
    let fa = fit_dtm_volume_par(&denoised, &mask, gtab, par);
    NeuroOutput {
        mask,
        mean_b0,
        denoised,
        fa,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::dmri::{DmriPhantom, DmriSpec};

    fn tiny_subject() -> (NdArray<f64>, GradientTable) {
        let spec = DmriSpec::test_scale();
        let phantom = DmriPhantom::generate(7, &spec);
        (phantom.data.cast(), phantom.gtab)
    }

    #[test]
    fn pipeline_produces_brain_fa() {
        let (data, gtab) = tiny_subject();
        let nlm = NlmParams {
            search_radius: 1,
            patch_radius: 1,
            sigma: 20.0,
            h_factor: 1.0,
        };
        let out = reference_pipeline(&data, &gtab, &nlm);
        // Mask selects a substantial brain region (phantom brain ≈ half).
        let frac = out.mask.fill_fraction();
        assert!(frac > 0.1 && frac < 0.9, "mask fraction {frac}");
        // FA is nonzero somewhere in the brain and zero outside.
        let max_fa = out.fa.max();
        assert!(max_fa > 0.2, "max FA {max_fa}");
        for i in 0..out.fa.len() {
            if !out.mask.get_flat(i) {
                assert_eq!(out.fa.data()[i], 0.0);
            }
            assert!((0.0..=1.0).contains(&out.fa.data()[i]));
        }
    }

    #[test]
    fn segmentation_mask_covers_phantom_brain() {
        let (data, gtab) = tiny_subject();
        let (mean_b0, mask) = segmentation(&data, &gtab);
        assert_eq!(mean_b0.dims(), &data.dims()[..3]);
        // The brain is brighter, so the masked mean must exceed the global.
        let brain_mean: f64 = mean_b0
            .data()
            .iter()
            .enumerate()
            .filter(|(i, _)| mask.get_flat(*i))
            .map(|(_, &v)| v)
            .sum::<f64>()
            / mask.count() as f64;
        assert!(brain_mean > mean_b0.mean());
    }

    #[test]
    fn denoise_preserves_shape_and_background() {
        let (data, gtab) = tiny_subject();
        let (_, mask) = segmentation(&data, &gtab);
        let nlm = NlmParams {
            search_radius: 1,
            patch_radius: 1,
            sigma: 20.0,
            h_factor: 1.0,
        };
        let den = denoise_all(&data, &mask, &nlm);
        assert_eq!(den.dims(), data.dims());
        // Background voxels pass through unchanged in every volume.
        let n_vols = data.dims()[3];
        for voxel in 0..mask.len() {
            if !mask.get_flat(voxel) {
                for v in 0..n_vols {
                    assert_eq!(
                        den.data()[voxel * n_vols + v],
                        data.data()[voxel * n_vols + v]
                    );
                }
            }
        }
    }
}
