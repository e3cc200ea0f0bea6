//! Compression benchmarks: per-codec ratios at the engine boundary,
//! compressed-vs-dense kernel runs, and full-pipeline fingerprint equality
//! between [`CompressMode::Off`] and [`CompressMode::Auto`].
//!
//! The scenario is the honest one for this workload: a flat-field
//! calibration stack (no sky sources, no background gradient) whose mask
//! and variance planes are constant — the planes the cost-model heuristic
//! ([`scibench_core::costmodel::choose_repr`]) packs — while the flux
//! plane carries noise in every pixel and stays dense. The run-level
//! kernel fast paths then consume the encoded planes directly, so the
//! compressed runs win on bytes touched (and usually on time) while the
//! fingerprints stay bit-identical with the dense runs. Results serialize
//! as `BENCH_compress.json` (schema `scibench-bench-compress/v1`).

use crate::kernels::{fingerprint_coadd, Fingerprint};
use marray::{with_compress_mode, ChunkRepr, CodecCounter, CodecStats, CompressMode, NdArray};
use scibench_core::costmodel::{pack_for_boundary, PlaneKind};
use scibench_core::usecases::astro as astro_uc;
use scibench_core::usecases::neuro as neuro_uc;
use sciops::astro::geometry::Exposure;
use sciops::astro::{coadd_sigma_clip_par, estimate_background_par, BackgroundParams, CoaddParams};
use sciops::synth::sky::{SkySpec, SkySurvey};
use sciops::Parallelism;
use std::time::Instant;

/// Flat-field calibration geometry: no sources, no background gradient.
/// The variance plane is exactly the read-noise floor (Const) and the
/// mask is all-good (Const); the flux plane is pure noise (Dense).
fn flat_field_spec(quick: bool) -> SkySpec {
    let scale = if quick { 1 } else { 2 };
    SkySpec {
        sensor_width: 48 * scale,
        sensor_height: 48 * scale,
        n_sources: 0,
        bg_gradient: 0.0,
        dither: 0,
        patch_size: 36 * scale as u64,
        ..SkySpec::test_scale()
    }
}

/// Science geometry on a gradient-free sky: the variance plane is the
/// read-noise floor plus shot-noise islands under the sources — the
/// mostly-constant plane RLE is built for.
fn runny_science_spec(quick: bool) -> SkySpec {
    let scale = if quick { 1 } else { 2 };
    SkySpec {
        sensor_width: 48 * scale,
        sensor_height: 48 * scale,
        bg_gradient: 0.0,
        patch_size: 36 * scale as u64,
        ..SkySpec::test_scale()
    }
}

/// Compression outcome of one plane crossing an engine boundary.
#[derive(Debug, Clone)]
pub struct PlaneRow {
    /// Plane name: `mask`, `variance` or `flux`.
    pub plane: &'static str,
    /// Representation the cost-model heuristic chose.
    pub repr: ChunkRepr,
    /// Dense footprint in bytes.
    pub dense_bytes: u64,
    /// Stored footprint after the boundary chose (equals `dense_bytes`
    /// when the heuristic kept the plane dense).
    pub stored_bytes: u64,
    /// `dense_bytes / stored_bytes` — 1.0 for planes that stay dense.
    pub ratio: f64,
}

/// One kernel timed on the same inputs dense and compressed.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel identifier (matches `BENCH_kernels.json` names).
    pub kernel: &'static str,
    /// Input shape string.
    pub shape: String,
    /// Best-of-N nanoseconds on dense inputs.
    pub dense_ns: u64,
    /// Best-of-N nanoseconds on compressed inputs.
    pub compressed_ns: u64,
    /// `dense_ns / compressed_ns` — >1 means the run-level path is faster.
    pub time_ratio: f64,
    /// Input plane bytes a dense execution touches.
    pub dense_bytes_read: u64,
    /// Input plane bytes the compressed execution touches (encoded planes
    /// are consumed at their stored size by the run-level fast paths).
    pub compressed_bytes_read: u64,
    /// Dense and compressed fingerprints matched bit for bit.
    pub outputs_identical: bool,
}

/// One full pipeline run dense and compressed.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    /// Use case: `astro` or `neuro`.
    pub pipeline: &'static str,
    /// Engine analog.
    pub engine: &'static str,
    /// Wall milliseconds with compression off.
    pub dense_ms: f64,
    /// Wall milliseconds with the boundary heuristic active.
    pub compressed_ms: f64,
    /// Off-mode and Auto-mode fingerprints matched bit for bit.
    pub outputs_identical: bool,
}

/// A whole `scibench bench compress` run.
#[derive(Debug, Clone)]
pub struct CompressRun {
    /// Boundary compression per plane kind.
    pub planes: Vec<PlaneRow>,
    /// Compressed-vs-dense kernel matrix.
    pub kernels: Vec<KernelRow>,
    /// Full-pipeline equality and timing.
    pub pipelines: Vec<PipelineRow>,
    /// Codec ledger delta over the compressed pipeline runs.
    pub codec: CodecStats,
}

fn plane_row<T: marray::Element>(
    plane: &'static str,
    arr: &NdArray<T>,
    kind: PlaneKind,
) -> PlaneRow {
    let packed = pack_for_boundary(arr, kind);
    let chosen = packed.as_ref().unwrap_or(arr);
    let dense = arr.nbytes() as u64;
    let stored = chosen.stored_nbytes() as u64;
    PlaneRow {
        plane,
        repr: chosen.repr(),
        dense_bytes: dense,
        stored_bytes: stored,
        ratio: dense as f64 / stored.max(1) as f64,
    }
}

/// Flat-field calibration stack: the same sensor exposed repeatedly
/// (undithered), one frame per visit — the stack whose mask and variance
/// planes are exactly constant.
fn flat_stack(quick: bool) -> Vec<Exposure> {
    let survey = SkySurvey::generate(314, &flat_field_spec(quick));
    survey.visits.iter().map(|v| v[0].clone()).collect()
}

fn pack_stack(stack: &[Exposure]) -> Vec<Exposure> {
    stack
        .iter()
        .map(|e| Exposure {
            visit: e.visit,
            sensor: e.sensor,
            bbox: e.bbox,
            flux: pack_for_boundary(&e.flux, PlaneKind::Flux).unwrap_or_else(|| e.flux.clone()),
            variance: pack_for_boundary(&e.variance, PlaneKind::Variance)
                .unwrap_or_else(|| e.variance.clone()),
            mask: pack_for_boundary(&e.mask, PlaneKind::Mask).unwrap_or_else(|| e.mask.clone()),
        })
        .collect()
}

fn stack_stored_bytes(stack: &[Exposure]) -> u64 {
    stack.iter().map(|e| e.stored_nbytes() as u64).sum()
}

fn time_ns(reps: usize, mut f: impl FnMut() -> u64) -> (u64, u64) {
    let fp = f();
    let mut best = u64::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let got = f();
        best = best.min(t.elapsed().as_nanos() as u64);
        assert_eq!(got, fp, "kernel output changed between timing reps");
    }
    (best.max(1), fp)
}

/// The compressed-vs-dense kernel matrix: sigma-clip coadd on the
/// flat-field stack (Const mask + Const variance feed the run-level
/// plans) and background estimation on the mostly-constant variance
/// plane (the Rle run table feeds the per-cell gather + median memo).
pub fn kernel_matrix(quick: bool, reps: usize) -> Vec<KernelRow> {
    let mut rows = Vec::new();

    {
        let dense = flat_stack(quick);
        let packed = pack_stack(&dense);
        let (rows_px, cols_px) = dense[0].dims();
        let shape = format!("{rows_px}x{cols_px}x{}", dense.len());
        let params = CoaddParams::default();
        let (dense_ns, fp_dense) = time_ns(reps, || {
            fingerprint_coadd(&coadd_sigma_clip_par(&dense, &params, Parallelism::Serial))
        });
        let (compressed_ns, fp_packed) = time_ns(reps, || {
            fingerprint_coadd(&coadd_sigma_clip_par(&packed, &params, Parallelism::Serial))
        });
        rows.push(KernelRow {
            kernel: "coadd_sigma_clip",
            shape,
            dense_ns,
            compressed_ns,
            time_ratio: dense_ns as f64 / compressed_ns as f64,
            dense_bytes_read: stack_stored_bytes(&dense),
            compressed_bytes_read: stack_stored_bytes(&packed),
            outputs_identical: fp_dense == fp_packed,
        });
    }

    {
        let survey = SkySurvey::generate(315, &runny_science_spec(quick));
        let image = survey.visits[0][0].variance.clone();
        let packed = pack_for_boundary(&image, PlaneKind::Variance)
            .expect("gradient-free variance plane must clear the RLE break-even");
        let shape = format!("{}x{}", image.dims()[0], image.dims()[1]);
        let params = BackgroundParams {
            cell_size: 8,
            ..Default::default()
        };
        let fp_of = |img: &NdArray<f64>| {
            let bg = estimate_background_par(img, &params, Parallelism::Serial);
            let mut fp = Fingerprint::new();
            fp.push_slice(bg.data());
            fp.finish()
        };
        let (dense_ns, fp_dense) = time_ns(reps, || fp_of(&image));
        let (compressed_ns, fp_packed) = time_ns(reps, || fp_of(&packed));
        rows.push(KernelRow {
            kernel: "background_estimate",
            shape,
            dense_ns,
            compressed_ns,
            time_ratio: dense_ns as f64 / compressed_ns as f64,
            dense_bytes_read: image.nbytes() as u64,
            compressed_bytes_read: packed.stored_nbytes() as u64,
            outputs_identical: fp_dense == fp_packed,
        });
    }

    rows
}

/// The compressed-vs-dense pairs `scibench bench` appends to the kernel
/// matrix: the two run-level kernels, each on the same inputs dense and
/// boundary-packed, so `BENCH_kernels.json` carries a paired row per
/// representation at every thread level.
pub fn bench_cases() -> Vec<crate::kernels::KernelCase> {
    let mut cases = Vec::new();

    let dense = flat_stack(true);
    let packed = pack_stack(&dense);
    let (rows_px, cols_px) = dense[0].dims();
    let shape = format!("{rows_px}x{cols_px}x{}", dense.len());
    let params = CoaddParams::default();
    for (name, stack) in [("coadd_flat_dense", dense), ("coadd_flat_codec", packed)] {
        cases.push(crate::kernels::KernelCase::new(
            name,
            shape.clone(),
            Box::new(move |par| fingerprint_coadd(&coadd_sigma_clip_par(&stack, &params, par))),
        ));
    }

    let survey = SkySurvey::generate(315, &runny_science_spec(true));
    let image = survey.visits[0][0].variance.clone();
    let packed = pack_for_boundary(&image, PlaneKind::Variance)
        .expect("gradient-free variance plane must clear the RLE break-even");
    let shape = format!("{}x{}", image.dims()[0], image.dims()[1]);
    let params = BackgroundParams {
        cell_size: 8,
        ..Default::default()
    };
    for (name, img) in [
        ("background_runny_dense", image),
        ("background_runny_codec", packed),
    ] {
        cases.push(crate::kernels::KernelCase::new(
            name,
            shape.clone(),
            Box::new(move |par| {
                let bg = estimate_background_par(&img, &params, par);
                let mut fp = Fingerprint::new();
                fp.push_slice(bg.data());
                fp.finish()
            }),
        ));
    }

    cases
}

/// Run the whole compression suite.
pub fn run_compress(quick: bool) -> CompressRun {
    // Per-plane boundary outcomes, measured on a science exposure (with
    // sources) so the variance row exercises Rle rather than Const.
    let survey = SkySurvey::generate(315, &runny_science_spec(quick));
    let e = &survey.visits[0][0];
    let planes = vec![
        plane_row("mask", &e.mask, PlaneKind::Mask),
        plane_row("variance", &e.variance, PlaneKind::Variance),
        plane_row("flux", &e.flux, PlaneKind::Flux),
    ];

    let kernels = kernel_matrix(quick, if quick { 2 } else { 3 });

    // Full pipelines, compression off vs the boundary heuristic: the
    // fingerprints must match bit for bit — compression is a
    // representation choice, never a numeric one.
    let mut pipelines = Vec::new();
    let codec_before = CodecCounter::snapshot();
    {
        let astro_survey = SkySurvey::generate(99, &SkySpec::test_scale());
        let run = || {
            let t = Instant::now();
            let fp = crate::e2e::fingerprint_astro(&astro_uc::spark(&astro_survey, 6));
            (fp, t.elapsed().as_secs_f64() * 1e3)
        };
        let (fp_off, dense_ms) = with_compress_mode(CompressMode::Off, run);
        let (fp_auto, compressed_ms) = with_compress_mode(CompressMode::Auto, run);
        pipelines.push(PipelineRow {
            pipeline: "astro",
            engine: "spark",
            dense_ms,
            compressed_ms,
            outputs_identical: fp_off == fp_auto,
        });
    }
    {
        let subs = crate::e2e::subjects(1);
        let run = || {
            let t = Instant::now();
            let fp = crate::e2e::fingerprint_fa(&neuro_uc::spark(&subs, 8));
            (fp, t.elapsed().as_secs_f64() * 1e3)
        };
        let (fp_off, dense_ms) = with_compress_mode(CompressMode::Off, run);
        let (fp_auto, compressed_ms) = with_compress_mode(CompressMode::Auto, run);
        pipelines.push(PipelineRow {
            pipeline: "neuro",
            engine: "spark",
            dense_ms,
            compressed_ms,
            outputs_identical: fp_off == fp_auto,
        });
    }
    let codec = CodecCounter::snapshot().since(&codec_before);

    CompressRun {
        planes,
        kernels,
        pipelines,
        codec,
    }
}

/// Render a run as the `BENCH_compress.json` document
/// (schema `scibench-bench-compress/v1`). Hand-rolled like the other
/// bench writers: no JSON dependency in the workspace.
pub fn results_to_json(run: &CompressRun, host_parallelism: usize, quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"scibench-bench-compress/v1\",\n");
    out.push_str(&crate::hostinfo::host_block(host_parallelism));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"planes\": [\n");
    for (i, p) in run.planes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"plane\": \"{}\", \"repr\": \"{}\", \"dense_bytes\": {}, \
             \"stored_bytes\": {}, \"ratio\": {:.2}}}{}\n",
            p.plane,
            p.repr.as_str(),
            p.dense_bytes,
            p.stored_bytes,
            p.ratio,
            if i + 1 < run.planes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"kernels\": [\n");
    for (i, k) in run.kernels.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"dense_ns\": {}, \
             \"compressed_ns\": {}, \"time_ratio\": {:.3}, \"dense_bytes_read\": {}, \
             \"compressed_bytes_read\": {}, \"outputs_identical\": {}}}{}\n",
            k.kernel,
            k.shape,
            k.dense_ns,
            k.compressed_ns,
            k.time_ratio,
            k.dense_bytes_read,
            k.compressed_bytes_read,
            k.outputs_identical,
            if i + 1 < run.kernels.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"pipelines\": [\n");
    for (i, p) in run.pipelines.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"pipeline\": \"{}\", \"engine\": \"{}\", \"dense_ms\": {:.2}, \
             \"compressed_ms\": {:.2}, \"outputs_identical\": {}}}{}\n",
            p.pipeline,
            p.engine,
            p.dense_ms,
            p.compressed_ms,
            p.outputs_identical,
            if i + 1 < run.pipelines.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"codec\": {\n");
    let codecs: Vec<String> = run
        .codec
        .by_codec
        .iter()
        .map(|(name, s)| {
            format!(
                "    \"{name}\": {{\"encodes\": {}, \"decodes\": {}, \"dense_bytes\": {}, \
                 \"encoded_bytes\": {}}}",
                s.encodes, s.decodes, s.dense_bytes, s.encoded_bytes
            )
        })
        .collect();
    out.push_str(&codecs.join(",\n"));
    if !codecs.is_empty() {
        out.push('\n');
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_field_planes_compress_and_flux_stays_dense() {
        let stack = flat_stack(true);
        let packed = pack_stack(&stack);
        for e in &packed {
            assert_eq!(e.mask.repr(), ChunkRepr::Const);
            assert_eq!(e.variance.repr(), ChunkRepr::Const);
            assert_eq!(e.flux.repr(), ChunkRepr::Dense);
        }
        assert!(stack_stored_bytes(&packed) < stack_stored_bytes(&stack) / 2);
    }

    #[test]
    fn kernel_matrix_is_bit_identical_and_moves_fewer_bytes() {
        for row in kernel_matrix(true, 1) {
            assert!(row.outputs_identical, "{} diverged", row.kernel);
            assert!(
                row.compressed_bytes_read < row.dense_bytes_read,
                "{}: {} vs {}",
                row.kernel,
                row.compressed_bytes_read,
                row.dense_bytes_read
            );
        }
    }

    #[test]
    fn plane_rows_hit_the_acceptance_ratios() {
        let survey = SkySurvey::generate(315, &runny_science_spec(true));
        let e = &survey.visits[0][0];
        let mask = plane_row("mask", &e.mask, PlaneKind::Mask);
        let var = plane_row("variance", &e.variance, PlaneKind::Variance);
        let flux = plane_row("flux", &e.flux, PlaneKind::Flux);
        assert!(mask.ratio >= 2.0, "mask ratio {}", mask.ratio);
        assert!(var.ratio >= 2.0, "variance ratio {}", var.ratio);
        assert_eq!(flux.repr, ChunkRepr::Dense);
        assert!((flux.ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_schema_and_fields_are_stable() {
        let run = CompressRun {
            planes: vec![PlaneRow {
                plane: "mask",
                repr: ChunkRepr::Const,
                dense_bytes: 2304,
                stored_bytes: 9,
                ratio: 256.0,
            }],
            kernels: vec![KernelRow {
                kernel: "coadd_sigma_clip",
                shape: "36x36x6".into(),
                dense_ns: 1000,
                compressed_ns: 800,
                time_ratio: 1.25,
                dense_bytes_read: 100,
                compressed_bytes_read: 50,
                outputs_identical: true,
            }],
            pipelines: vec![PipelineRow {
                pipeline: "astro",
                engine: "spark",
                dense_ms: 10.0,
                compressed_ms: 9.0,
                outputs_identical: true,
            }],
            codec: CodecStats::default(),
        };
        let json = results_to_json(&run, 1, true);
        assert!(json.contains("\"schema\": \"scibench-bench-compress/v1\""));
        assert!(json.contains("\"single_core_host\": true"));
        assert!(json.contains("\"repr\": \"const\""));
        assert!(json.contains("\"ratio\": 256.00"));
        assert!(json.contains("\"outputs_identical\": true"));
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");
    }
}
