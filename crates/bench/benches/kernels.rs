//! Criterion benches of the real scientific kernels (the "reference
//! implementation" compute that every engine's UDFs run), plus the format
//! codecs whose conversion costs drive Figure 11's ingest differences and
//! the `stream()` overhead of Figure 12c, and the strided `marray` copies
//! and axis folds underneath both use cases.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use marray::NdArray;
use sciops::astro::{self, BackgroundParams, CalibParams, CoaddParams, CosmicParams, DetectParams};
use sciops::neuro::{self, NlmParams};
use sciops::synth::dmri::{DmriPhantom, DmriSpec};
use sciops::synth::sky::{SkySpec, SkySurvey};
use sciops::Parallelism;
use std::hint::black_box;

/// Thread count for the `_par` bench variants: `SCIBENCH_THREADS` if set,
/// else whatever the host offers.
fn bench_par() -> Parallelism {
    Parallelism::auto()
}

fn neuro_kernels(c: &mut Criterion) {
    let spec = DmriSpec::test_scale();
    let phantom = DmriPhantom::generate(5, &spec);
    let data: NdArray<f64> = phantom.data.cast();
    let (mean_b0, mask) = neuro::pipeline::segmentation(&data, &phantom.gtab);
    let vol = data.slice_axis(3, 0).unwrap();

    let mut g = c.benchmark_group("neuro_kernels");
    g.throughput(Throughput::Bytes(vol.nbytes() as u64));
    g.bench_function("otsu_threshold", |b| {
        b.iter(|| black_box(neuro::otsu_threshold(&mean_b0, 256)));
    });
    g.bench_function("median_filter3d", |b| {
        b.iter(|| black_box(neuro::median_filter3d(&mean_b0, 1)));
    });
    g.bench_function("median_otsu_mask", |b| {
        b.iter(|| black_box(neuro::median_otsu(&mean_b0, 1)));
    });
    let nlm = NlmParams {
        search_radius: 1,
        patch_radius: 1,
        sigma: 20.0,
        h_factor: 1.0,
    };
    g.bench_function("nlmeans3d_masked", |b| {
        b.iter(|| black_box(neuro::nlmeans3d(&vol, Some(&mask), &nlm)));
    });
    g.bench_function("nlmeans3d_unmasked", |b| {
        b.iter(|| black_box(neuro::nlmeans3d(&vol, None, &nlm)));
    });
    let par = bench_par();
    g.bench_function("nlmeans3d_masked_par", |b| {
        b.iter(|| black_box(neuro::nlmeans3d_par(&vol, Some(&mask), &nlm, par)));
    });
    g.bench_function("dtm_fit_volume", |b| {
        b.iter(|| black_box(neuro::fit_dtm_volume(&data, &mask, &phantom.gtab)));
    });
    g.bench_function("dtm_fit_volume_par", |b| {
        b.iter(|| black_box(neuro::fit_dtm_volume_par(&data, &mask, &phantom.gtab, par)));
    });
    g.finish();
}

fn astro_kernels(c: &mut Criterion) {
    let spec = SkySpec::test_scale();
    let survey = SkySurvey::generate(17, &spec);
    let e = &survey.visits[0][0];
    let grid = survey.patch_grid();

    let mut g = c.benchmark_group("astro_kernels");
    g.throughput(Throughput::Bytes(e.flux.nbytes() as u64));
    g.bench_function("estimate_background", |b| {
        b.iter(|| {
            black_box(astro::estimate_background(
                &e.flux,
                &BackgroundParams::default(),
            ))
        });
    });
    g.bench_function("detect_cosmic_rays", |b| {
        b.iter(|| {
            black_box(astro::detect_cosmic_rays(
                &e.flux,
                &e.variance,
                &CosmicParams::default(),
            ))
        });
    });
    g.bench_function("calibrate_exposure", |b| {
        b.iter(|| black_box(astro::calibrate_exposure(e, &CalibParams::default())));
    });
    g.bench_function("map_to_patches", |b| {
        b.iter(|| black_box(grid.map_to_patches(e)));
    });

    // Coadd + detect on one merged patch stack.
    let calib = CalibParams::default();
    let patch = grid.overlapping_patches(&e.bbox)[0];
    let patch_box = grid.patch_box(patch);
    let stack: Vec<_> = survey
        .visits
        .iter()
        .map(|visit| {
            let pieces: Vec<_> = visit
                .iter()
                .map(|e| astro::calibrate_exposure(e, &calib))
                .filter_map(|e| e.crop_to(&patch_box))
                .collect();
            astro::pipeline::merge_visit_pieces(&patch_box, &pieces)
        })
        .collect();
    g.bench_function("coadd_sigma_clip", |b| {
        b.iter(|| black_box(astro::coadd_sigma_clip(&stack, &CoaddParams::default())));
    });
    let par = bench_par();
    g.bench_function("coadd_sigma_clip_par", |b| {
        b.iter(|| {
            black_box(astro::coadd_sigma_clip_par(
                &stack,
                &CoaddParams::default(),
                par,
            ))
        });
    });
    let coadd = astro::coadd_sigma_clip(&stack, &CoaddParams::default());
    g.bench_function("detect_sources", |b| {
        b.iter(|| black_box(astro::detect_sources(&coadd, &DetectParams::default())));
    });
    g.bench_function("detect_sources_par", |b| {
        b.iter(|| {
            black_box(astro::detect_sources_par(
                &coadd,
                &DetectParams::default(),
                par,
            ))
        });
    });
    g.bench_function("estimate_background_par", |b| {
        b.iter(|| {
            black_box(astro::estimate_background_par(
                &e.flux,
                &BackgroundParams::default(),
                par,
            ))
        });
    });
    g.finish();
}

fn format_codecs(c: &mut Criterion) {
    let spec = DmriSpec::test_scale();
    let phantom = DmriPhantom::generate(9, &spec);
    let vol: NdArray<f32> = phantom.data.slice_axis(3, 0).unwrap();
    let nifti_bytes = formats::nifti::encode(&phantom.data, 1.25).unwrap();
    let npy_bytes = formats::npy::encode_f32(&vol);
    let csv_text = formats::text::to_csv(&vol);
    let tsv_text = formats::text::to_tsv(&vol);

    let mut g = c.benchmark_group("format_codecs");
    g.throughput(Throughput::Bytes(vol.nbytes() as u64));
    g.bench_function("nifti_encode", |b| {
        b.iter(|| black_box(formats::nifti::encode(&phantom.data, 1.25).unwrap()));
    });
    g.bench_function("nifti_decode", |b| {
        b.iter(|| black_box(formats::nifti::decode(&nifti_bytes).unwrap()));
    });
    g.bench_function("npy_encode", |b| {
        b.iter(|| black_box(formats::npy::encode_f32(&vol)));
    });
    g.bench_function("npy_decode", |b| {
        b.iter(|| black_box(formats::npy::decode_f32(&npy_bytes).unwrap()));
    });
    g.bench_function("csv_encode", |b| {
        b.iter(|| black_box(formats::text::to_csv(&vol)));
    });
    g.bench_function("csv_decode", |b| {
        b.iter(|| black_box(formats::text::from_csv(&csv_text, vol.dims()).unwrap()));
    });
    g.bench_function("tsv_roundtrip_stream_interface", |b| {
        b.iter(|| black_box(formats::text::from_tsv(&tsv_text).unwrap()));
    });
    g.finish();
}

/// The strided `marray` operations the pipelines spend their data
/// movement in, each measured alone: Step 2A's per-patch crops and merges,
/// the dMRI volume slice, the mean across volumes, and a volume-axis
/// concatenation.
fn marray_strided(c: &mut Criterion) {
    let survey = SkySurvey::generate(17, &SkySpec::test_scale());
    let sensor = &survey.visits[0][0];
    let grid = survey.patch_grid();
    let phantom = DmriPhantom::generate(5, &DmriSpec::test_scale());
    let data = &phantom.data;
    let n_vol = data.dims()[3];
    let halves = [
        data.take_axis(3, &(0..n_vol / 2).collect::<Vec<_>>())
            .unwrap(),
        data.take_axis(3, &(n_vol / 2..n_vol).collect::<Vec<_>>())
            .unwrap(),
    ];

    let mut g = c.benchmark_group("marray_strided");
    g.throughput(Throughput::Bytes(sensor.nbytes() as u64));
    g.bench_function("step2a_crop_and_merge", |b| {
        b.iter(|| {
            for (patch, piece) in grid.map_to_patches(sensor) {
                let merged = astro::pipeline::merge_visit_pieces(&grid.patch_box(patch), &[piece]);
                black_box(merged);
            }
        });
    });
    // Each case's throughput counts the bytes it copies out or reads.
    g.throughput(Throughput::Bytes((data.nbytes() / n_vol) as u64));
    g.bench_function("dmri_slice_axis3", |b| {
        b.iter(|| black_box(data.slice_axis(3, n_vol / 2).unwrap()));
    });
    g.throughput(Throughput::Bytes(data.nbytes() as u64));
    g.bench_function("dmri_mean_axis3", |b| {
        b.iter(|| black_box(data.mean_axis(3)));
    });
    g.bench_function("dmri_concat_axis3", |b| {
        b.iter(|| black_box(NdArray::concat(&[&halves[0], &halves[1]], 3).unwrap()));
    });
    g.finish();
}

criterion_group!(
    kernels,
    neuro_kernels,
    astro_kernels,
    format_codecs,
    marray_strided
);
criterion_main!(kernels);
