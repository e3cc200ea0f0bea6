//! Ingest entry points: decode encoded buffers on the morsel pool, then
//! run the first compute step.
//!
//! The paper's Figure 11 credits ingest/compute pipelining to the engines
//! (Dask, TensorFlow), and their lowerings model it. The native path
//! keeps no overlap machinery of its own: decode runs on the same
//! `parexec` pool as every other fan-out. Astronomy decodes each FITS
//! exposure and calibrates it (Step 1A) in one pool call, then joins the
//! reference pipeline at Step 2A. Neuroimaging decodes its NIfTI volumes
//! on a 2-wide pool, then folds the b0 running sum in volume order (the
//! first half of Step 1N). Each item's result lands in its own slot, so
//! both are byte-identical to a sequential decode-then-compute (proven by
//! the tests below).

use formats::fits::{self, Card, ImageData, TypedHdu};
use formats::nifti;
use marray::NdArray;
use parexec::par_map_slabs;
use sciops::astro::{
    calibrate_exposure, reference_pipeline_calibrated_par, AstroOutput, CalibParams, CoaddParams,
    DetectParams, Exposure, PatchGrid, SkyBox,
};
use sciops::Parallelism;

// ---------------------------------------------------------------------------
// Astronomy: FITS exposures → calibration (Step 1A)
// ---------------------------------------------------------------------------

/// Encode one sensor exposure as a 3-HDU FITS buffer (flux primary HDU,
/// variance and mask image extensions), the layout the paper describes for
/// LSST sensor files. Positional metadata rides in header cards.
pub fn encode_exposure_fits(e: &Exposure) -> Vec<u8> {
    let cards = vec![
        Card {
            key: "VISIT".into(),
            value: e.visit.to_string(),
        },
        Card {
            key: "SENSOR".into(),
            value: e.sensor.to_string(),
        },
        Card {
            key: "X0".into(),
            value: e.bbox.x0.to_string(),
        },
        Card {
            key: "Y0".into(),
            value: e.bbox.y0.to_string(),
        },
    ];
    let hdus = [
        TypedHdu {
            cards: cards.clone(),
            data: ImageData::F32(e.flux.cast()),
        },
        TypedHdu {
            cards: cards.clone(),
            data: ImageData::F32(e.variance.cast()),
        },
        TypedHdu {
            cards,
            data: ImageData::U8(e.mask.clone()),
        },
    ];
    fits::encode_typed(&hdus)
}

fn card_i64(hdu: &TypedHdu, key: &str) -> Result<i64, String> {
    hdu.cards
        .iter()
        .find(|c| c.key == key)
        .and_then(|c| c.value.trim().parse().ok())
        .ok_or_else(|| format!("FITS exposure missing {key} card"))
}

/// Decode a 3-HDU FITS buffer produced by [`encode_exposure_fits`].
pub fn decode_exposure_fits(buf: &[u8]) -> Result<Exposure, String> {
    let hdus = fits::decode_typed(buf).map_err(|e| format!("FITS decode: {e:?}"))?;
    if hdus.len() != 3 {
        return Err(format!(
            "expected 3 HDUs (flux/variance/mask), got {}",
            hdus.len()
        ));
    }
    let flux: NdArray<f64> = hdus[0].data.to_f32().cast();
    let variance: NdArray<f64> = hdus[1].data.to_f32().cast();
    let mask: NdArray<u8> = hdus[2].data.to_u8();
    let dims = flux.dims().to_vec();
    Ok(Exposure {
        visit: card_i64(&hdus[0], "VISIT")? as u32,
        sensor: card_i64(&hdus[0], "SENSOR")? as u32,
        bbox: SkyBox {
            x0: card_i64(&hdus[0], "X0")?,
            y0: card_i64(&hdus[0], "Y0")?,
            width: dims[1] as u64,
            height: dims[0] as u64,
        },
        flux,
        variance,
        mask,
    })
}

/// The full astronomy reference pipeline fed from encoded FITS exposures:
/// each exposure is decoded and calibrated (Step 1A) in one pool call at
/// `par`, then Steps 2A–4A run as in [`reference_pipeline_calibrated_par`].
/// Outputs are bit-identical to calibrating decoded exposures serially.
// scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
pub fn astro_pipeline_from_fits(
    buffers: &[Vec<u8>],
    grid: &PatchGrid,
    calib: &CalibParams,
    coadd: &CoaddParams,
    detect: &DetectParams,
    par: Parallelism,
) -> AstroOutput {
    let calibrated = par_map_slabs(buffers, par, |_, buf| {
        let e = decode_exposure_fits(buf).expect("valid exposure buffer");
        calibrate_exposure(&e, calib)
    });
    reference_pipeline_calibrated_par(calibrated, grid, coadd, detect, par)
}

// ---------------------------------------------------------------------------
// Neuroimaging: NIfTI volumes → b0 mean accumulation (Step 1N)
// ---------------------------------------------------------------------------

/// Result of neuro ingest: the stacked 4-D (x, y, z, volume) dataset plus
/// the mean b0 volume (the first half of Step 1N; `median_otsu` completes
/// segmentation).
pub struct NeuroIngest {
    /// The stacked 4-D dataset, volume order preserved.
    pub data: NdArray<f64>,
    /// Mean over the b0 (non-diffusion-weighted) volumes.
    pub mean_b0: NdArray<f64>,
}

/// Encode a subject's volumes as one NIfTI-1 buffer per volume (f32 on
/// disk, like real acquisitions; decoding casts back up).
// scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
pub fn encode_volumes_nifti(data: &NdArray<f64>, voxel_mm: f32) -> Vec<Vec<u8>> {
    (0..data.dims()[3])
        .map(|v| {
            let vol: NdArray<f32> = data.slice_axis(3, v).expect("volume index in range").cast();
            nifti::encode(&vol, voxel_mm).expect("encodable volume")
        })
        .collect()
}

/// Decode NIfTI-1 buffers (f32 payloads cast up to f64) on a 2-wide pool,
/// then fold the b0 volumes into their mean in volume order: a fixed fold
/// order, so the mean is bit-identical to a sequential decode and fold.
/// The width is fixed because the signature takes no [`Parallelism`]:
/// decode is a small share of a pipeline, and two workers hide most of it.
// scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
// scilint: allow(F003, engine ingest boundary: blobs enter the engine's own tuple store, a materializing copy by contract)
pub fn neuro_ingest_nifti(volumes: &[Vec<u8>], b0_indices: &[usize]) -> NeuroIngest {
    assert!(!volumes.is_empty(), "at least one volume");
    let decoded: Vec<NdArray<f64>> = par_map_slabs(volumes, Parallelism::threads(2), |_, buf| {
        let (_, vol) = nifti::decode(buf).expect("valid NIfTI volume");
        vol.cast()
    });
    let mut b0_sum: Option<NdArray<f64>> = None;
    let mut n_b0 = 0usize;
    for (i, vol) in decoded.iter().enumerate() {
        if b0_indices.contains(&i) {
            n_b0 += 1;
            b0_sum = Some(match b0_sum.take() {
                None => vol.clone(),
                Some(acc) => acc.zip_with(vol, |a, b| a + b).expect("same dims"),
            });
        }
    }
    let mut mean_b0 = b0_sum.expect("at least one b0 volume");
    let inv = 1.0 / n_b0 as f64;
    mean_b0.map_inplace(|x| x * inv);
    let dims3 = decoded[0].dims().to_vec();
    let parts: Vec<NdArray<f64>> = decoded
        .into_iter()
        .map(|vol| {
            let mut d = dims3.clone();
            d.push(1);
            vol.reshape(&d).expect("same element count")
        })
        .collect();
    let refs: Vec<&NdArray<f64>> = parts.iter().collect();
    let data = NdArray::concat(&refs, 3).expect("volumes share spatial dims");
    NeuroIngest { data, mean_b0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciops::synth::dmri::{DmriPhantom, DmriSpec};
    use sciops::synth::sky::{SkySpec, SkySurvey};

    #[test]
    fn exposure_fits_roundtrip_preserves_metadata_and_pixels() {
        let survey = SkySurvey::generate(21, &SkySpec::test_scale());
        let e = &survey.visits[0][0];
        let buf = encode_exposure_fits(e);
        let back = decode_exposure_fits(&buf).expect("roundtrip");
        assert_eq!(back.visit, e.visit);
        assert_eq!(back.sensor, e.sensor);
        assert_eq!(back.bbox, e.bbox);
        assert_eq!(back.mask, e.mask, "mask is lossless");
        // Pixels pass through f32: exact at f32 precision.
        for (a, b) in back.flux.data().iter().zip(e.flux.data()) {
            assert_eq!(*a, *b as f32 as f64);
        }
    }

    /// Every coadd and catalog value of `out`, as raw bits.
    fn output_bits(out: &AstroOutput) -> Vec<u64> {
        let mut bits = Vec::new();
        for (patch, c) in &out.coadds {
            bits.extend([patch.0 as u64, patch.1 as u64]);
            bits.extend(c.flux.data().iter().map(|v| v.to_bits()));
            bits.extend(c.variance.data().iter().map(|v| v.to_bits()));
            bits.extend(c.depth.data().iter().map(|&d| u64::from(d)));
        }
        for (patch, sources) in &out.catalogs {
            bits.extend([patch.0 as u64, patch.1 as u64, sources.len() as u64]);
            for s in sources {
                bits.extend([s.centroid.0, s.centroid.1, s.flux, s.peak].map(f64::to_bits));
                bits.push(s.npix as u64);
            }
        }
        bits
    }

    #[test]
    fn astro_pipeline_from_fits_matches_reference_on_decoded_exposures() {
        let survey = SkySurvey::generate(33, &SkySpec::test_scale());
        let grid = survey.patch_grid();
        let (calib, coadd, detect) = (
            CalibParams::default(),
            CoaddParams::default(),
            DetectParams::default(),
        );
        let buffers: Vec<Vec<u8>> = survey
            .visits
            .iter()
            .flatten()
            .map(encode_exposure_fits)
            .collect();
        // Reference: decode all exposures up front, then run the serial
        // reference pipeline over them.
        let mut visits: Vec<Vec<Exposure>> = vec![Vec::new(); survey.visits.len()];
        for b in &buffers {
            let e = decode_exposure_fits(b).expect("valid");
            visits[e.visit as usize].push(e);
        }
        let reference = sciops::astro::reference_pipeline_par(
            &visits,
            &grid,
            &calib,
            &coadd,
            &detect,
            Parallelism::Serial,
        );
        assert!(reference.total_sources() > 0, "the survey has sources");
        let expect = output_bits(&reference);
        let pars = [1usize, 2, 4, 8].map(Parallelism::threads);
        for par in std::iter::once(Parallelism::Serial).chain(pars) {
            let got = astro_pipeline_from_fits(&buffers, &grid, &calib, &coadd, &detect, par);
            assert_eq!(got.coadds.len(), reference.coadds.len(), "{par:?}");
            assert!(output_bits(&got) == expect, "{par:?}: output bits differ");
        }
    }

    #[test]
    fn neuro_ingest_matches_sequential_decode_then_fold_byte_for_byte() {
        let phantom = DmriPhantom::generate(4242, &DmriSpec::test_scale());
        let data: NdArray<f64> = phantom.data.cast();
        let b0: Vec<usize> = phantom.gtab.b0_indices();
        assert!(b0.len() > 1, "the fold must add more than one volume");
        let buffers = encode_volumes_nifti(&data, 2.0);
        // Sequential baseline: decode every volume in order, then fold the
        // b0 volumes in volume order.
        let decoded: Vec<NdArray<f64>> = buffers
            .iter()
            .map(|b| nifti::decode(b).expect("valid").1.cast())
            .collect();
        let mut sum: Option<NdArray<f64>> = None;
        for (v, vol) in decoded.iter().enumerate() {
            if b0.contains(&v) {
                sum = Some(match sum.take() {
                    None => vol.clone(),
                    Some(acc) => acc.zip_with(vol, |a, b| a + b).expect("same dims"),
                });
            }
        }
        let mut seq_mean = sum.expect("b0 volumes exist");
        let inv = 1.0 / b0.len() as f64;
        seq_mean.map_inplace(|x| x * inv);

        let ingest = neuro_ingest_nifti(&buffers, &b0);
        let bits = |a: &NdArray<f64>| a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ingest.mean_b0), bits(&seq_mean), "mean byte-for-byte");
        assert_eq!(ingest.data.dims()[3], decoded.len());
        for (v, vol) in decoded.iter().enumerate() {
            let got = ingest.data.slice_axis(3, v).expect("in range");
            assert_eq!(&got, vol, "volume {v} byte-for-byte");
        }
    }
}
