//! The `astro` workload: op `k` takes survey `k mod 2` as FITS buffers
//! and runs variant `k mod 5`. Spark, Myria and SciDB first decode the
//! buffers into a survey; the native pipeline decodes them itself,
//! overlapped with calibration.

use std::time::Instant;

use marray::NdArray;
use parexec::Parallelism;
use scibench_core::usecases::astro::{self as uc, AstroResult};
use scibench_core::usecases::ingest::{
    astro_pipeline_from_fits, decode_exposure_fits, encode_exposure_fits,
};
use sciops::astro::pipeline::merge_visit_pieces;
use sciops::astro::{
    calibrate_exposure, reference_pipeline, AstroOutput, Exposure, PatchGrid, PatchId,
};
use sciops::synth::sky::{SkySpec, SkySurvey};

use crate::ops::{close, Variant, MYRIA, NATIVE, SCIDB, SPARK};
use crate::report::Report;
use crate::trace::{OpenOp, Tracer};
use crate::util::{mix, Fingerprint};
use crate::RunCfg;

/// Surveys in the input set.
const SURVEYS: usize = 2;
/// Variants, in op order. The native pipeline takes two of the five
/// slots, for the reason given in `neuro.rs`: an odd slot count keeps the
/// median op inside one variant's latency cluster.
const VARIANTS: [Variant; 5] = [SPARK, MYRIA, SCIDB, NATIVE, NATIVE];
/// Ops until the (survey, variant) sequence repeats.
const CYCLE: usize = 10;
/// SciDB chunk edge for the clipped coadd.
const SCIDB_CHUNK: usize = 32;

/// Survey geometry: 2x2 sensors per visit and 8 visits. Eight samples
/// per pixel also keep every |z| below 3 (the bound is sqrt(n - 1)), so
/// the SciDB clipped mean and its serial reference never disagree on
/// which samples to clip.
fn sky_spec(smoke: bool) -> SkySpec {
    if smoke {
        return SkySpec::test_scale();
    }
    SkySpec {
        sensor_width: 112,
        sensor_height: 112,
        n_visits: 8,
        n_sources: 60,
        cosmic_rays_per_sensor: 4,
        patch_size: 64,
        ..SkySpec::test_scale()
    }
}

struct SurveyInput {
    fits: Vec<Vec<u8>>,
    fits_bytes: usize,
    /// The exposures as decoded serially, for the probe.
    visits: Vec<Vec<Exposure>>,
    /// Serial reference pipeline output on the decoded exposures.
    reference: AstroOutput,
    /// Bit-level fingerprint of `reference`.
    reference_fp: u64,
    /// Serial per-pixel clipped mean of the SciDB patch cube.
    scidb_reference: NdArray<f64>,
}

/// The generated inputs and their serial references.
pub struct Input {
    spec: SkySpec,
    grid: PatchGrid,
    cube_patch: PatchId,
    surveys: Vec<SurveyInput>,
    fingerprint: u64,
}

/// Decode FITS buffers back into a survey. Ground-truth sources do not
/// travel through FITS, so the decoded survey carries none.
pub fn decode_survey(fits: &[Vec<u8>], spec: &SkySpec) -> SkySurvey {
    let mut visits: Vec<Vec<Exposure>> = vec![Vec::new(); spec.n_visits];
    for buf in fits {
        let e = decode_exposure_fits(buf).expect("the suite's own FITS buffers decode");
        visits[e.visit as usize].push(e);
    }
    SkySurvey {
        spec: spec.clone(),
        sources: Vec::new(),
        visits,
    }
}

/// The `(visit, rows, cols)` cube of calibrated, merged flux over one
/// patch: the SciDB coadd's ingest input.
fn patch_cube(survey: &SkySurvey, grid: &PatchGrid, patch: PatchId) -> NdArray<f64> {
    let (calib, _, _) = uc::astro_params();
    let patch_box = grid.patch_box(patch);
    let (rows, cols) = (patch_box.height as usize, patch_box.width as usize);
    let mut cube = NdArray::<f64>::zeros(&[survey.visits.len(), rows, cols]);
    for (v, exposures) in survey.visits.iter().enumerate() {
        let pieces: Vec<Exposure> = exposures
            .iter()
            .map(|e| calibrate_exposure(e, &calib))
            .filter_map(|e| e.crop_to(&patch_box))
            .collect();
        let merged = merge_visit_pieces(&patch_box, &pieces);
        let slice = merged
            .flux
            .reshape(&[1, rows, cols])
            .expect("merged flux is rows x cols");
        cube.write_subarray(&[v, 0, 0], &slice)
            .expect("the slice fits the cube");
    }
    cube
}

/// Per-pixel iteratively clipped mean over the visit axis: the serial
/// reference for the SciDB coadd.
fn clipped_mean_reference(cube: &NdArray<f64>) -> NdArray<f64> {
    let d = cube.dims().to_vec();
    NdArray::from_fn(&[d[1], d[2]], |ix| {
        let samples: Vec<f64> = (0..d[0]).map(|v| cube[&[v, ix[0], ix[1]][..]]).collect();
        sciops::stats::sigma_clipped_mean(&samples, 3.0, 2)
    })
}

fn output_fingerprint(out: &AstroOutput) -> u64 {
    let mut fp = Fingerprint::default();
    for (patch, c) in &out.coadds {
        fp.u64(u64::from(patch.0));
        fp.u64(u64::from(patch.1));
        fp.f64s(c.flux.data());
        fp.f64s(c.variance.data());
    }
    for sources in out.catalogs.values() {
        fp.u64(sources.len() as u64);
        for s in sources {
            fp.f64s(&[s.centroid.0, s.centroid.1, s.flux, s.peak]);
            fp.u64(s.npix as u64);
        }
    }
    fp.finish()
}

/// Generate the surveys from `seed`, encode every exposure as FITS, and
/// compute the serial references on the decoded exposures.
pub fn synth(seed: u64, smoke: bool) -> Input {
    let spec = sky_spec(smoke);
    let generated: Vec<SkySurvey> = (0..SURVEYS)
        .map(|i| SkySurvey::generate(mix(seed, 100 + i as u64), &spec))
        .collect();
    let grid = generated[0].patch_grid();
    // An interior patch where the grid has one, so the cube is full of data.
    let (cols, rows) = grid.grid_dims();
    let cube_patch = (rows.min(2) - 1, cols.min(2) - 1);
    let (calib, coadd, detect) = uc::astro_params();
    let mut fp = Fingerprint::default();
    let surveys = generated
        .iter()
        .map(|survey| {
            let fits: Vec<Vec<u8>> = survey
                .visits
                .iter()
                .flatten()
                .map(encode_exposure_fits)
                .collect();
            for buf in &fits {
                fp.bytes(buf);
            }
            let decoded = decode_survey(&fits, &spec);
            let reference = reference_pipeline(&decoded.visits, &grid, &calib, &coadd, &detect);
            let cube = patch_cube(&decoded, &grid, cube_patch);
            SurveyInput {
                fits_bytes: fits.iter().map(Vec::len).sum(),
                fits,
                reference_fp: output_fingerprint(&reference),
                reference,
                visits: decoded.visits,
                scidb_reference: clipped_mean_reference(&cube),
            }
        })
        .collect();
    Input {
        spec,
        grid,
        cube_patch,
        surveys,
        fingerprint: fp.finish(),
    }
}

enum Output {
    Engine(AstroResult),
    Scidb(NdArray<f64>),
    Native(AstroOutput),
}

fn run_op(inp: &Input, k: usize, tr: &Tracer, op: &OpenOp) -> Output {
    let s = &inp.surveys[k % SURVEYS];
    let v = VARIANTS[k % VARIANTS.len()];
    let (calib, coadd, detect) = uc::astro_params();
    if v.name == NATIVE.name {
        return Output::Native(tr.span(v.span, op, || {
            astro_pipeline_from_fits(
                &s.fits,
                &inp.grid,
                &calib,
                &coadd,
                &detect,
                Parallelism::threads(2),
            )
        }));
    }
    let survey = tr.span("formats.ingest", op, || decode_survey(&s.fits, &inp.spec));
    match v.name {
        "spark" => Output::Engine(tr.span(v.span, op, || uc::spark(&survey, 2))),
        "myria" => Output::Engine(tr.span(v.span, op, || uc::myria(&survey, 1, 2))),
        _ => {
            let cube = tr.span("sciops.cube", op, || {
                patch_cube(&survey, &inp.grid, inp.cube_patch)
            });
            Output::Scidb(tr.span(v.span, op, || {
                let db = engine_array::ArrayDb::connect(2);
                uc::scidb_coadd_cube(&db, &cube, SCIDB_CHUNK).expect("SciDB accepts the cube")
            }))
        }
    }
}

/// Tolerances follow the use-case tests in `scibench_core::usecases`.
fn check(inp: &Input, k: usize, out: Output) -> Result<(), String> {
    let s = &inp.surveys[k % SURVEYS];
    match out {
        Output::Engine(r) => {
            let want: Vec<&PatchId> = s.reference.coadds.keys().collect();
            let got: Vec<&PatchId> = r.coadd_flux.keys().collect();
            if got != want {
                return Err(format!("patches {got:?} vs {want:?}"));
            }
            for (patch, c) in &s.reference.coadds {
                let scale = c.flux.max().abs().max(1.0);
                close("coadd flux", &r.coadd_flux[patch], &c.flux, 1e-9 * scale)?;
                let (got, want) = (
                    r.catalogs.get(patch).map_or(0, Vec::len),
                    s.reference.catalogs[patch].len(),
                );
                if got != want {
                    return Err(format!("patch {patch:?}: {got} sources vs {want}"));
                }
            }
            Ok(())
        }
        Output::Scidb(plane) => {
            let scale = s.scidb_reference.max().abs().max(1.0);
            close("scidb coadd", &plane, &s.scidb_reference, 1e-9 * scale)
        }
        Output::Native(o) => {
            if output_fingerprint(&o) == s.reference_fp {
                Ok(())
            } else {
                Err("native coadds or catalogs differ from the serial reference".to_string())
            }
        }
    }
}

/// Run the `astro` workload.
pub fn run(cfg: &RunCfg) -> Report {
    let tracer = Tracer::new(cfg.traced);
    let mut rep = Report::new(cfg.workload, cfg.seed, cfg.traced);

    let t = Instant::now();
    let inp = synth(cfg.seed, cfg.smoke);
    rep.set("bench.gen_s", t.elapsed().as_secs_f64());
    rep.input_fingerprint = inp.fingerprint;

    let lo = crate::measure_batch(
        cfg,
        &mut rep,
        &tracer,
        &VARIANTS,
        CYCLE,
        |k, tr, op| run_op(&inp, k, tr, op),
        |k, out| check(&inp, k, out),
    );

    if tracer.on() {
        let spans = tracer.into_spans();
        let decoded: usize = lo
            .samples
            .iter()
            .filter(|s| s.variant != NATIVE.name)
            .map(|s| inp.surveys[s.k % SURVEYS].fits_bytes)
            .sum();
        crate::record_spans(&mut rep, &spans, &VARIANTS, CYCLE, decoded);
        let s0 = &inp.surveys[0];
        crate::probe::astro(&mut rep, &s0.visits, &inp.grid, cfg.smoke);
        crate::finish_trace(cfg, &mut rep, &spans);
    }
    rep
}
