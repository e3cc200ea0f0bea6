//! The kernel probe of a traced run. After the timed ops it calls the
//! native path's public step functions one at a time on the workload's
//! first input: each step at two threads (the `sciops.*_ms` metrics) and
//! the parallel kernels also serially, asserting the two outputs are
//! bit-identical (the `parexec.*_speedup` metrics are serial time over
//! two-thread time on the same input).

use std::collections::BTreeMap;
use std::time::Instant;

use marray::NdArray;
use parexec::{par_map_slabs, Parallelism};
use scibench_core::usecases::{astro::astro_params, neuro::nlm_params};
use sciops::astro::pipeline::{create_patches, merge_visit_pieces};
use sciops::astro::{
    calibrate_exposure, coadd_sigma_clip_par, detect_sources_par, Exposure, PatchGrid, PatchId,
};
use sciops::neuro::pipeline::{denoise_all_par, segmentation};
use sciops::neuro::{fit_dtm_volume_par, GradientTable};

use crate::report::Report;
use crate::util::{median, Fingerprint};

/// The probe's parallel width: the workloads' two threads.
fn two() -> Parallelism {
    Parallelism::threads(2)
}

/// Median wall time in ms of `reps` calls of `f`, with the last output.
fn timed<R>(reps: usize, f: impl Fn() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        out = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (median(&times), out.expect("at least one repetition"))
}

fn reps(smoke: bool) -> usize {
    if smoke {
        1
    } else {
        3
    }
}

/// Record a serial-versus-parallel comparison: wrong output if the two
/// fingerprints differ.
fn same_bits(rep: &mut Report, step: &str, serial: u64, parallel: u64) {
    rep.attempted += 1;
    if serial != parallel {
        rep.wrong += 1;
        rep.failures.push(format!(
            "probe {step}: two-thread output is not bit-identical to serial"
        ));
    }
}

fn fp_arrays<'a>(arrays: impl IntoIterator<Item = &'a NdArray<f64>>) -> u64 {
    let mut fp = Fingerprint::default();
    for a in arrays {
        fp.f64s(a.data());
    }
    fp.finish()
}

/// Probe the neuro steps on one subject.
pub fn neuro(rep: &mut Report, data: &NdArray<f64>, gtab: &GradientTable, smoke: bool) {
    let n = reps(smoke);
    let nlm = nlm_params();
    let (segment_ms, (_, mask)) = timed(n, || segmentation(data, gtab));
    let (denoise_ms, denoised) = timed(n, || denoise_all_par(data, &mask, &nlm, two()));
    let (denoise_serial_ms, denoised_serial) = timed(n, || {
        denoise_all_par(data, &mask, &nlm, Parallelism::Serial)
    });
    let (dtm_ms, fa) = timed(n, || fit_dtm_volume_par(&denoised, &mask, gtab, two()));
    let (dtm_serial_ms, fa_serial) = timed(n, || {
        fit_dtm_volume_par(&denoised, &mask, gtab, Parallelism::Serial)
    });
    same_bits(
        rep,
        "denoise",
        fp_arrays([&denoised_serial]),
        fp_arrays([&denoised]),
    );
    same_bits(rep, "dtm", fp_arrays([&fa_serial]), fp_arrays([&fa]));
    rep.set("sciops.segment_ms", segment_ms);
    rep.set("sciops.denoise_ms", denoise_ms);
    rep.set("sciops.dtm_ms", dtm_ms);
    rep.set("parexec.denoise_speedup", denoise_serial_ms / denoise_ms);
    rep.set("parexec.dtm_speedup", dtm_serial_ms / dtm_ms);
}

/// Step 2A as the native pipeline runs it: group calibrated pieces by
/// patch, then merge each visit's pieces into one patch exposure.
fn merged_patches(calibrated: &[Exposure], grid: &PatchGrid) -> BTreeMap<PatchId, Vec<Exposure>> {
    create_patches(calibrated, grid)
        .into_iter()
        .map(|(patch, pieces)| {
            let patch_box = grid.patch_box(patch);
            let mut by_visit: BTreeMap<u32, Vec<Exposure>> = BTreeMap::new();
            for piece in pieces {
                by_visit.entry(piece.visit).or_default().push(piece);
            }
            let merged = by_visit
                .values()
                .map(|pieces| merge_visit_pieces(&patch_box, pieces))
                .collect();
            (patch, merged)
        })
        .collect()
}

/// Probe the astro steps on one survey's exposures.
pub fn astro(rep: &mut Report, visits: &[Vec<Exposure>], grid: &PatchGrid, smoke: bool) {
    let n = reps(smoke);
    let (calib, coadd, detect) = astro_params();
    let raw: Vec<&Exposure> = visits.iter().flatten().collect();
    let (calibrate_ms, calibrated) = timed(n, || {
        par_map_slabs(&raw, two(), |_, e| calibrate_exposure(e, &calib))
    });
    let (patches_ms, merged) = timed(n, || merged_patches(&calibrated, grid));
    let coadd_all = |par| {
        merged
            .values()
            .map(|exposures| coadd_sigma_clip_par(exposures, &coadd, par))
            .collect::<Vec<_>>()
    };
    let (coadd_ms, coadds) = timed(n, || coadd_all(two()));
    let (coadd_serial_ms, coadds_serial) = timed(n, || coadd_all(Parallelism::Serial));
    let detect_all = |par| {
        let mut fp = Fingerprint::default();
        for c in &coadds {
            for s in detect_sources_par(c, &detect, par) {
                fp.f64s(&[s.centroid.0, s.centroid.1, s.flux, s.peak]);
                fp.u64(s.npix as u64);
            }
        }
        fp.finish()
    };
    let (detect_ms, sources) = timed(n, || detect_all(two()));
    let (detect_serial_ms, sources_serial) = timed(n, || detect_all(Parallelism::Serial));
    let coadd_fp = |cs: &[sciops::astro::coadd::Coadd]| {
        fp_arrays(cs.iter().flat_map(|c| [&c.flux, &c.variance]))
    };
    same_bits(rep, "coadd", coadd_fp(&coadds_serial), coadd_fp(&coadds));
    same_bits(rep, "detect", sources_serial, sources);
    rep.set("sciops.calibrate_ms", calibrate_ms);
    rep.set("sciops.patches_ms", patches_ms);
    rep.set("sciops.coadd_ms", coadd_ms);
    rep.set("sciops.detect_ms", detect_ms);
    rep.set("parexec.coadd_speedup", coadd_serial_ms / coadd_ms);
    rep.set("parexec.detect_speedup", detect_serial_ms / detect_ms);
}
