//! The single-machine astronomy reference pipeline (Steps 1A → 4A).
//!
//! Plays the role of the paper's LSST-stack reference implementation:
//! engines' outputs are validated against it.

use crate::astro::calib::{calibrate_exposure, CalibParams};
use crate::astro::coadd::{coadd_sigma_clip, Coadd, CoaddParams};
use crate::astro::detect::{detect_sources, DetectParams, Source};
use crate::astro::geometry::{Exposure, PatchGrid, PatchId};
use parexec::{par_map_slabs, Parallelism};
use std::collections::BTreeMap;

/// Output of the full astronomy pipeline.
#[derive(Debug, Clone)]
pub struct AstroOutput {
    /// One coadd per sky patch that received data.
    pub coadds: BTreeMap<PatchId, Coadd>,
    /// Detected sources per patch.
    pub catalogs: BTreeMap<PatchId, Vec<Source>>,
}

impl AstroOutput {
    /// Total number of detected sources across all patches.
    pub fn total_sources(&self) -> usize {
        self.catalogs.values().map(Vec::len).sum()
    }
}

/// Step 2A for a set of calibrated exposures: group the per-patch pieces.
pub fn create_patches(
    calibrated: &[Exposure],
    grid: &PatchGrid,
) -> BTreeMap<PatchId, Vec<Exposure>> {
    let mut by_patch: BTreeMap<PatchId, Vec<Exposure>> = BTreeMap::new();
    for exposure in calibrated {
        for (patch, piece) in grid.map_to_patches(exposure) {
            by_patch.entry(patch).or_default().push(piece);
        }
    }
    by_patch
}

/// Within one visit, merge all the pieces covering the same patch into one
/// exposure spanning the whole patch ("creates a new exposure object for
/// each patch in each visit"). Pixels with no data carry a non-zero mask.
// scilint: allow(F001, shape invariant upheld by construction; a violation is a kernel bug, not a data error)
pub fn merge_visit_pieces(
    patch_box: &crate::astro::geometry::SkyBox,
    pieces: &[Exposure],
) -> Exposure {
    use marray::NdArray;
    let rows = patch_box.height as usize;
    let cols = patch_box.width as usize;
    let mut flux = NdArray::<f64>::zeros(&[rows, cols]);
    let mut variance = NdArray::<f64>::full(&[rows, cols], 1.0);
    // Start fully masked; unmask where a piece provides pixels.
    let mut mask = NdArray::<u8>::full(&[rows, cols], crate::astro::cosmic::MASK_BAD);
    for piece in pieces {
        let r0 = (piece.bbox.y0 - patch_box.y0) as usize;
        let c0 = (piece.bbox.x0 - patch_box.x0) as usize;
        flux.write_subarray(&[r0, c0], &piece.flux)
            .expect("piece inside patch");
        variance
            .write_subarray(&[r0, c0], &piece.variance)
            .expect("piece inside patch");
        mask.write_subarray(&[r0, c0], &piece.mask)
            .expect("piece inside patch");
    }
    Exposure {
        visit: pieces.first().map(|p| p.visit).unwrap_or(0),
        sensor: u32::MAX, // merged patch exposure has no single sensor
        bbox: *patch_box,
        flux,
        variance,
        mask,
    }
}

/// Run the complete four-step pipeline over all visits.
///
/// `visits[v]` holds the raw sensor exposures of visit `v`.
pub fn reference_pipeline(
    visits: &[Vec<Exposure>],
    grid: &PatchGrid,
    calib: &CalibParams,
    coadd: &CoaddParams,
    detect: &DetectParams,
) -> AstroOutput {
    reference_pipeline_par(visits, grid, calib, coadd, detect, Parallelism::Serial)
}

/// [`reference_pipeline`] with explicit intra-node parallelism: calibration
/// fans out over exposures, and co-addition plus detection fan out over
/// patches, each patch on the serial kernels (as `denoise_all_par` fans
/// out over volumes). A patch is a whole unit of work, so one fan-out
/// replaces the several row-parallel rounds per patch that the `_par`
/// kernels would pay. Every patch is computed by the same serial code at
/// every worker count and lands in its patch's slot, so output is
/// bit-identical at every worker count.
pub fn reference_pipeline_par(
    visits: &[Vec<Exposure>],
    grid: &PatchGrid,
    calib: &CalibParams,
    coadd: &CoaddParams,
    detect: &DetectParams,
    par: Parallelism,
) -> AstroOutput {
    // Step 1A: calibrate every exposure (one exposure per slab).
    let raw: Vec<&Exposure> = visits.iter().flatten().collect();
    let calibrated: Vec<Exposure> = par_map_slabs(&raw, par, |_, e| calibrate_exposure(e, calib));
    reference_pipeline_calibrated_par(calibrated, grid, coadd, detect, par)
}

/// Steps 2A → 4A over already-calibrated exposures, serial reference.
pub fn reference_pipeline_calibrated(
    calibrated: Vec<Exposure>,
    grid: &PatchGrid,
    coadd: &CoaddParams,
    detect: &DetectParams,
) -> AstroOutput {
    reference_pipeline_calibrated_par(calibrated, grid, coadd, detect, Parallelism::Serial)
}

/// Steps 2A → 4A over already-calibrated exposures, fanned out per patch
/// as in [`reference_pipeline_par`]: each slab crops and merges its
/// patch's pieces (Step 2A), then coadds and detects on the serial
/// kernels. Only the patch membership lists are built serially, so Step 2A
/// is off the serial critical path. Split out so ingest paths that decode
/// and calibrate each exposure in one pass (the FITS entry point in
/// `scibench_core::usecases::ingest`) can join the reference pipeline
/// after Step 1A with bit-identical results.
pub fn reference_pipeline_calibrated_par(
    calibrated: Vec<Exposure>,
    grid: &PatchGrid,
    coadd: &CoaddParams,
    detect: &DetectParams,
    par: Parallelism,
) -> AstroOutput {
    // Step 2A membership: the exposures each patch receives a piece from,
    // in exposure order. A patch enters only with a piece, so the patch
    // set and every piece list are exactly those of `create_patches`.
    let mut members: BTreeMap<PatchId, Vec<usize>> = BTreeMap::new();
    for (i, exposure) in calibrated.iter().enumerate() {
        for patch in grid.overlapping_patches(&exposure.bbox) {
            if exposure.bbox.intersect(&grid.patch_box(patch)).is_some() {
                members.entry(patch).or_default().push(i);
            }
        }
    }
    let patches: Vec<(PatchId, Vec<usize>)> = members.into_iter().collect();

    // Per patch: crop its pieces and merge them per visit (Step 2A), coadd
    // across visits (Step 3A), then detect sources on the coadd (Step 4A).
    let per_patch = par_map_slabs(&patches, par, |_, (patch, exposures)| {
        let patch_box = grid.patch_box(*patch);
        let mut by_visit: BTreeMap<u32, Vec<Exposure>> = BTreeMap::new();
        for piece in exposures
            .iter()
            .filter_map(|&i| calibrated[i].crop_to(&patch_box))
        {
            by_visit.entry(piece.visit).or_default().push(piece);
        }
        let visit_exposures: Vec<Exposure> = by_visit
            .values()
            .map(|pieces| merge_visit_pieces(&patch_box, pieces))
            .collect();
        let c = coadd_sigma_clip(&visit_exposures, coadd);
        let sources = detect_sources(&c, detect);
        (*patch, c, sources)
    });
    let mut out = AstroOutput {
        coadds: BTreeMap::new(),
        catalogs: BTreeMap::new(),
    };
    for (patch, c, sources) in per_patch {
        out.coadds.insert(patch, c);
        out.catalogs.insert(patch, sources);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::sky::{SkySpec, SkySurvey};

    #[test]
    fn end_to_end_finds_injected_sources() {
        let spec = SkySpec::test_scale();
        let survey = SkySurvey::generate(11, &spec);
        let grid = survey.patch_grid();
        let out = reference_pipeline(
            &survey.visits,
            &grid,
            &CalibParams::default(),
            &CoaddParams::default(),
            &DetectParams::default(),
        );
        assert!(!out.coadds.is_empty());
        let found = out.total_sources();
        // The generator injected a known number of bright sources; the
        // pipeline should recover most of them and not hallucinate wildly.
        let injected = spec.n_sources;
        assert!(
            found >= injected / 2 && found <= injected * 3,
            "found {found}, injected {injected}"
        );
    }

    #[test]
    fn coadd_depth_reflects_visit_count() {
        let spec = SkySpec::test_scale();
        let survey = SkySurvey::generate(5, &spec);
        let grid = survey.patch_grid();
        let out = reference_pipeline(
            &survey.visits,
            &grid,
            &CalibParams::default(),
            &CoaddParams::default(),
            &DetectParams::default(),
        );
        let n_visits = survey.visits.len() as f64;
        // Median depth should be close to the number of visits.
        let mut depths: Vec<f64> = out
            .coadds
            .values()
            .flat_map(|c| c.depth.data().iter().map(|&d| d as f64))
            .filter(|&d| d > 0.0)
            .collect();
        let med = crate::stats::median(&mut depths);
        assert!(
            med >= n_visits - 1.5,
            "median depth {med} for {n_visits} visits"
        );
    }

    #[test]
    fn merge_visit_pieces_masks_gaps() {
        use crate::astro::geometry::SkyBox;
        use marray::NdArray;
        let patch_box = SkyBox {
            x0: 0,
            y0: 0,
            width: 10,
            height: 10,
        };
        let piece = Exposure {
            visit: 2,
            sensor: 0,
            bbox: SkyBox {
                x0: 0,
                y0: 0,
                width: 5,
                height: 10,
            },
            flux: NdArray::full(&[10, 5], 7.0),
            variance: NdArray::full(&[10, 5], 1.0),
            mask: NdArray::zeros(&[10, 5]),
        };
        let merged = merge_visit_pieces(&patch_box, &[piece]);
        assert_eq!(merged.visit, 2);
        assert_eq!(merged.mask[&[0, 0][..]], 0, "covered pixel unmasked");
        assert_ne!(merged.mask[&[0, 7][..]], 0, "gap pixel masked");
        assert_eq!(merged.flux[&[3, 2][..]], 7.0);
    }
}
