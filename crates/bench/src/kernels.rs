//! Runnable kernel cases for `scibench bench`: the five hottest sciops
//! kernels, each wrapped as a closure over pre-built synthetic inputs that
//! runs at a given [`Parallelism`] and returns a fingerprint of its full
//! output.
//!
//! The fingerprint (FNV-1a over every output bit pattern) is how the tests
//! assert the determinism contract end to end: serial and N-thread runs
//! of the same case must produce the same fingerprint because the kernels
//! guarantee bit-identical outputs at every worker count.

use scibench_core::usecases::astro::astro_params;
use scibench_core::usecases::neuro::nlm_params;
use sciops::astro::coadd::Coadd;
use sciops::astro::pipeline::{create_patches, merge_visit_pieces};
use sciops::astro::{
    calibrate_exposure, coadd_sigma_clip_par, detect_sources_par, estimate_background_par,
    CalibParams, CoaddParams, DetectParams,
};
use sciops::neuro::pipeline::segmentation;
use sciops::neuro::{fit_dtm_volume_full_par, nlmeans3d_par, GradientTable};
use sciops::synth::dmri::{DmriPhantom, DmriSpec};
use sciops::synth::sky::{SkySpec, SkySurvey};
use sciops::Parallelism;
use std::time::Instant;

/// FNV-1a accumulator for output fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Start a fresh fingerprint.
    pub fn new() -> Fingerprint {
        Fingerprint(0xcbf29ce484222325)
    }
    fn push_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    /// Fold one float's exact bit pattern in.
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }
    /// Fold an integer in.
    pub fn push_usize(&mut self, v: usize) {
        self.push_u64(v as u64);
    }
    /// Fold a whole float slice in.
    pub fn push_slice(&mut self, vs: &[f64]) {
        for &v in vs {
            self.push_f64(v);
        }
    }
    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

/// One benchmarkable kernel: a name, its input shape, and a runner that
/// executes at a given parallelism and fingerprints the full output.
pub struct KernelCase {
    /// Kernel identifier (stable across releases; used in JSON output).
    pub name: &'static str,
    /// Human-readable input shape, e.g. `"12x12x10"`.
    pub shape: String,
    runner: Box<dyn Fn(Parallelism) -> u64>,
}

impl KernelCase {
    /// Run the kernel once; returns the output fingerprint.
    pub fn run(&self, par: Parallelism) -> u64 {
        (self.runner)(par)
    }

    /// Wall-clock nanoseconds per run at `par`: one warm-up run, then the
    /// best of `reps` timed runs (min shaves scheduler noise).
    pub fn time_ns(&self, par: Parallelism, reps: usize) -> u64 {
        let _ = self.run(par);
        let mut best = u64::MAX;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            let _ = self.run(par);
            best = best.min(t.elapsed().as_nanos() as u64);
        }
        best.max(1)
    }
}

fn coadd_inputs() -> Vec<sciops::astro::Exposure> {
    let survey = SkySurvey::generate(101, &SkySpec::test_scale());
    let grid = survey.patch_grid();
    let calib = CalibParams::default();
    let calibrated: Vec<_> = survey
        .visits
        .iter()
        .flatten()
        .map(|e| calibrate_exposure(e, &calib))
        .collect();
    let by_patch = create_patches(&calibrated, &grid);
    // The busiest patch gives the deepest stack.
    let (patch, pieces) = by_patch
        .iter()
        .max_by_key(|(_, v)| v.len())
        .expect("survey covers >= 1 patch");
    let patch_box = grid.patch_box(*patch);
    let mut by_visit: std::collections::BTreeMap<u32, Vec<_>> = std::collections::BTreeMap::new();
    for piece in pieces {
        by_visit.entry(piece.visit).or_default().push(piece.clone());
    }
    by_visit
        .into_values()
        .map(|pieces| merge_visit_pieces(&patch_box, &pieces))
        .collect()
}

fn fingerprint_coadd(c: &Coadd) -> u64 {
    let mut fp = Fingerprint::new();
    fp.push_slice(c.flux.data());
    fp.push_slice(c.variance.data());
    for &d in c.depth.data() {
        fp.push_usize(d as usize);
    }
    fp.finish()
}

/// A phantom dMRI subject, its brain mask and its gradient table.
fn phantom_subject(spec: &DmriSpec) -> (marray::NdArray<f64>, marray::Mask, GradientTable) {
    let phantom = DmriPhantom::generate(42, spec);
    let data: marray::NdArray<f64> = phantom.data.cast();
    let (_, mask) = segmentation(&data, &phantom.gtab);
    (data, mask, phantom.gtab)
}

/// The five hottest kernels of the two pipelines, on small synthetic
/// inputs (~seconds for the whole suite even single-threaded).
pub fn suite() -> Vec<KernelCase> {
    let mut cases = Vec::new();

    // NLM runs the parameters every pipeline ships on one volume of the
    // suite's `ooc` subject geometry.
    {
        let spec = DmriSpec {
            dims: [20, 20, 14],
            n_volumes: 24,
            n_b0: 3,
            ..DmriSpec::test_scale()
        };
        let (data, mask, _) = phantom_subject(&spec);
        let vol = data.slice_axis(3, 0).expect("volume 0");
        let nlm = nlm_params();
        cases.push(KernelCase {
            name: "nlm_denoise",
            shape: format!("{}x{}x{}", spec.dims[0], spec.dims[1], spec.dims[2]),
            runner: Box::new(move |par| {
                let out = nlmeans3d_par(&vol, Some(&mask), &nlm, par);
                let mut fp = Fingerprint::new();
                fp.push_slice(out.data());
                fp.finish()
            }),
        });
    }

    // Tensor fitting runs on a small phantom subject.
    {
        let spec = DmriSpec::test_scale();
        let (data, mask, gtab) = phantom_subject(&spec);
        let dmri_shape = format!(
            "{}x{}x{}x{}",
            spec.dims[0], spec.dims[1], spec.dims[2], spec.n_volumes
        );
        cases.push(KernelCase {
            name: "dtm_fit",
            shape: dmri_shape,
            runner: Box::new(move |par| {
                let (fa, md) = fit_dtm_volume_full_par(&data, &mask, &gtab, par);
                let mut fp = Fingerprint::new();
                fp.push_slice(fa.data());
                fp.push_slice(md.data());
                fp.finish()
            }),
        });
    }

    // Astronomy inputs.
    {
        let exposures = coadd_inputs();
        let (rows, cols) = exposures[0].dims();
        let shape = format!("{rows}x{cols}x{}", exposures.len());
        let params = CoaddParams::default();
        cases.push(KernelCase {
            name: "coadd_sigma_clip",
            shape,
            runner: Box::new(move |par| {
                fingerprint_coadd(&coadd_sigma_clip_par(&exposures, &params, par))
            }),
        });
    }

    // Background estimation runs the shipped calibration parameters on one
    // exposure of the suite's `astro` sensor geometry.
    {
        let spec = SkySpec {
            sensor_width: 112,
            sensor_height: 112,
            n_visits: 8,
            n_sources: 60,
            cosmic_rays_per_sensor: 4,
            patch_size: 64,
            ..SkySpec::test_scale()
        };
        let survey = SkySurvey::generate(103, &spec);
        let flux = survey.visits[0][0].flux.clone();
        let shape = format!("{}x{}", flux.dims()[0], flux.dims()[1]);
        let params = astro_params().0.background;
        cases.push(KernelCase {
            name: "background_estimate",
            shape,
            runner: Box::new(move |par| {
                let bg = estimate_background_par(&flux, &params, par);
                let mut fp = Fingerprint::new();
                fp.push_slice(bg.data());
                fp.finish()
            }),
        });
    }

    {
        let exposures = coadd_inputs();
        let coadd = coadd_sigma_clip_par(&exposures, &CoaddParams::default(), Parallelism::Serial);
        let shape = format!("{}x{}", coadd.flux.dims()[0], coadd.flux.dims()[1]);
        let params = DetectParams::default();
        cases.push(KernelCase {
            name: "detect_sources",
            shape,
            runner: Box::new(move |par| {
                let sources = detect_sources_par(&coadd, &params, par);
                let mut fp = Fingerprint::new();
                fp.push_usize(sources.len());
                for s in &sources {
                    fp.push_f64(s.centroid.0);
                    fp.push_f64(s.centroid.1);
                    fp.push_f64(s.flux);
                    fp.push_f64(s.peak);
                    fp.push_usize(s.npix);
                }
                fp.finish()
            }),
        });
    }

    cases
}

/// One measurement row of a `scibench bench` run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Kernel identifier.
    pub kernel: &'static str,
    /// Input shape string.
    pub shape: String,
    /// Worker threads used (1 = the serial reference path).
    pub threads: usize,
    /// Best-of-N wall clock per iteration.
    pub ns_per_iter: u64,
    /// `serial_ns / this_ns` — 1.0 for the serial row by construction.
    pub speedup_vs_serial: f64,
}

/// Time every kernel of [`suite`] at each thread level. Level 1 runs the
/// serial path and anchors the speedup column.
pub fn run_bench(thread_levels: &[usize], reps: usize) -> Vec<BenchResult> {
    let mut results = Vec::new();
    for case in suite() {
        let serial_ns = case.time_ns(Parallelism::Serial, reps);
        for &threads in thread_levels {
            let ns = if threads <= 1 {
                serial_ns
            } else {
                case.time_ns(Parallelism::threads(threads), reps)
            };
            results.push(BenchResult {
                kernel: case.name,
                shape: case.shape.clone(),
                threads: threads.max(1),
                ns_per_iter: ns,
                speedup_vs_serial: serial_ns as f64 / ns as f64,
            });
        }
    }
    results
}

/// Render bench results as the `BENCH_kernels.json` document
/// (schema `scibench-bench-kernels/v1`). Hand-rolled writer: the workspace
/// has no JSON dependency, and the schema is flat.
pub fn results_to_json(results: &[BenchResult], host_parallelism: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"scibench-bench-kernels/v1\",\n");
    out.push_str(&crate::hostinfo::host_block(host_parallelism));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"threads\": {}, \"ns_per_iter\": {}, \"speedup_vs_serial\": {:.4}}}{}\n",
            r.kernel,
            r.shape,
            r.threads,
            r.ns_per_iter,
            r.speedup_vs_serial,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_the_five_hot_kernels() {
        let names: Vec<&str> = suite().iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            [
                "nlm_denoise",
                "dtm_fit",
                "coadd_sigma_clip",
                "background_estimate",
                "detect_sources"
            ]
        );
    }

    #[test]
    fn fingerprints_stable_across_parallelism() {
        for case in suite() {
            let serial = case.run(Parallelism::Serial);
            for workers in [2, 4] {
                let par = case.run(Parallelism::threads(workers));
                assert_eq!(
                    serial, par,
                    "{} fingerprint diverged at {workers} workers",
                    case.name
                );
            }
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let results = vec![BenchResult {
            kernel: "nlm_denoise",
            shape: "12x12x10".into(),
            threads: 2,
            ns_per_iter: 1234,
            speedup_vs_serial: 1.5,
        }];
        let json = results_to_json(&results, 8);
        assert!(json.contains("\"schema\": \"scibench-bench-kernels/v1\""));
        assert!(json.contains("\"available_parallelism\": 8"));
        assert!(json.contains("\"single_core_host\": false"));
        assert!(json.contains("\"threads\": 2"));
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");

        let single = results_to_json(&results, 1);
        assert!(single.contains("\"single_core_host\": true"));
    }
}
