//! The simulation cost model.
//!
//! Every constant the lowering uses. Compute constants are single-core
//! seconds at the paper's full data geometry ("reference-implementation
//! seconds"); the engines' relative behaviour comes from *their* profile
//! constants (crossing costs, overheads, scheduling), not from these.
//!
//! [`CostModel::calibrated`] optionally rescales the kernel constants by
//! measuring the real Rust kernels at test scale and extrapolating by
//! voxel/pixel count, so the relative weights of the pipeline steps track
//! the real implementations on the host machine.

use crate::workload::NeuroWorkload;
use std::time::Instant;

/// Single-core kernel and conversion costs at paper-scale geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    // ---- neuroscience kernels (seconds, per unit noted) ----
    /// Select the 18 b0 volumes of one subject (metadata + copy).
    pub neuro_filter_per_subject: f64,
    /// Mean of the b0 volumes of one subject.
    pub neuro_mean_per_subject: f64,
    /// `median_otsu` mask construction for one subject.
    pub neuro_mask_per_subject: f64,
    /// Non-local-means denoising of one masked volume.
    pub neuro_denoise_per_volume: f64,
    /// Diffusion-tensor fit for one whole subject (parallelizable across
    /// voxel blocks).
    pub neuro_fit_per_subject: f64,

    // ---- astronomy kernels ----
    /// Step 1A calibration of one sensor exposure.
    pub astro_preprocess_per_sensor: f64,
    /// Cutting one exposure↔patch piece (Step 2A).
    pub astro_crop_per_piece: f64,
    /// Merging one visit's pieces into one patch exposure.
    pub astro_merge_per_patch_visit: f64,
    /// Sigma-clipped co-addition of one patch across 24 visits.
    pub astro_coadd_per_patch: f64,
    /// Source detection on one patch coadd.
    pub astro_detect_per_patch: f64,

    // ---- format conversions (per subject / per visit) ----
    /// NIfTI → per-volume NumPy staging of one subject (the Spark/Myria
    /// pre-ingest conversion; included in their ingest time).
    pub convert_nifti_to_npy_per_subject: f64,
    /// NIfTI → CSV conversion of one subject (the SciDB `aio_input` path;
    /// "a little larger than the NIfTI-to-NumPy overhead").
    pub convert_nifti_to_csv_per_subject: f64,
    /// FITS → CSV conversion of one visit (SciDB astronomy ingest).
    pub convert_fits_to_csv_per_visit: f64,
    /// Parse one subject's NIfTI into in-memory arrays (Dask/TF ingest).
    pub parse_nifti_per_subject: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            neuro_filter_per_subject: 0.6,
            neuro_mean_per_subject: 4.0,
            neuro_mask_per_subject: 70.0,
            neuro_denoise_per_volume: 40.0,
            neuro_fit_per_subject: 600.0,

            astro_preprocess_per_sensor: 25.0,
            astro_crop_per_piece: 1.5,
            astro_merge_per_patch_visit: 2.5,
            astro_coadd_per_patch: 95.0,
            astro_detect_per_patch: 30.0,

            convert_nifti_to_npy_per_subject: 35.0,
            convert_nifti_to_csv_per_subject: 140.0,
            convert_fits_to_csv_per_visit: 70.0,
            parse_nifti_per_subject: 12.0,
        }
    }
}

impl CostModel {
    /// Calibrate the neuroscience kernel constants by running the real
    /// Rust kernels on a small phantom and extrapolating by voxel count.
    ///
    /// Keeps the paper-scale constants' *meaning* (single-core seconds at
    /// full geometry) but derives their ratios from measurements.
    // scilint: allow(F001, calibration probe runs on synthetic data sized by the model itself; a shape fault is a model bug)
    // scilint: allow(F002, the cost model calibrates against wall time by design; timings feed tuning only, never result payloads)
    pub fn calibrated() -> CostModel {
        use sciops::neuro::{median_otsu, nlmeans3d, NlmParams};
        use sciops::synth::dmri::{DmriPhantom, DmriSpec};

        let spec = DmriSpec::test_scale();
        let phantom = DmriPhantom::generate(1, &spec);
        let data: marray::NdArray<f64> = phantom.data.cast();
        let (mean_b0, mask) = sciops::neuro::pipeline::segmentation(&data, &phantom.gtab);

        let small_voxels: f64 = spec.dims.iter().product::<usize>() as f64;
        let full_voxels = NeuroWorkload::VOXELS_PER_VOLUME as f64;
        let voxel_scale = full_voxels / small_voxels;

        // Measure one denoised volume and one mask build.
        let vol = data.slice_axis(3, 0).expect("volume 0");
        let nlm = NlmParams {
            search_radius: 2,
            patch_radius: 1,
            sigma: 20.0,
            h_factor: 1.0,
        };
        let t0 = Instant::now();
        let _ = nlmeans3d(&vol, Some(&mask), &nlm);
        let denoise_small = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let _ = median_otsu(&mean_b0, 1);
        let mask_small = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let _ = data.mean_axis(3);
        let mean_small =
            t2.elapsed().as_secs_f64() * (NeuroWorkload::B0_VOLUMES as f64 / spec.n_volumes as f64);

        CostModel {
            neuro_denoise_per_volume: (denoise_small * voxel_scale).max(1.0),
            neuro_mask_per_subject: (mask_small * voxel_scale).max(0.5),
            neuro_mean_per_subject: (mean_small * voxel_scale).max(0.1),
            ..CostModel::default()
        }
    }
}

/// Headroom factor of the budget-derived granularity formula: each
/// worker's share of the budget must cover its pinned input chunk, the
/// output it is building, and the governor's transient double-residency
/// during a reload, so a chunk targets `budget / (workers × SLACK)`.
pub const CHUNK_BUDGET_SLACK: u64 = 4;

/// Elements one chunk should hold under a memory budget: the largest
/// count whose bytes fit `budget / (workers × slack)`, floored at one
/// element. `None` (unbounded) keeps everything in one chunk.
///
/// Hayot-Sasson et al. (arXiv:1812.06492) measured exactly this on the
/// paper's neuroimaging pipelines: chunk granularity, not thread count,
/// governs scaling once data exceeds memory — too-large chunks thrash
/// the spill tier (SciDB's mis-sized chunks in Figure 15), too-small
/// chunks drown in per-chunk overhead.
pub fn choose_chunk_elems(
    total_elems: usize,
    elem_bytes: usize,
    workers: usize,
    budget: Option<u64>,
) -> usize {
    let Some(budget) = budget else {
        return total_elems.max(1);
    };
    let share = budget / (workers.max(1) as u64 * CHUNK_BUDGET_SLACK);
    let cap = (share / elem_bytes.max(1) as u64).max(1) as usize;
    total_elems.clamp(1, cap)
}

/// Chunk shape for a row-major array of `dims` under a memory budget:
/// splits along axis 0 (the slab axis every partitioner already uses) so
/// one chunk holds as many whole planes as fit the per-worker budget
/// share, with a floor of one plane. `None` (unbounded) keeps the array
/// in one chunk, matching the in-memory plane's historical behaviour.
pub fn choose_chunk_shape(
    dims: &[usize],
    elem_bytes: usize,
    workers: usize,
    budget: Option<u64>,
) -> Vec<usize> {
    if dims.is_empty() {
        return Vec::new();
    }
    let plane: usize = dims[1..].iter().product::<usize>().max(1);
    let target = choose_chunk_elems(
        dims.iter().product::<usize>().max(1),
        elem_bytes,
        workers,
        budget,
    );
    let rows = (target / plane).clamp(1, dims[0].max(1));
    let mut shape = dims.to_vec();
    shape[0] = rows;
    shape
}

/// Apply the memory governor at an engine ingest boundary: when a
/// process-wide budget is active ([`marray::mem_budget`]), a governed
/// handle whose bytes the governor may spill under pressure; `None`
/// (keep the caller's handle) otherwise, so the unbounded path is
/// byte-for-byte the historical one. This is the single choke point the
/// engine analogs share, so "every engine really executes a
/// larger-than-budget dataset" is one code path, not five.
pub fn govern_for_boundary<T: marray::Element>(
    arr: &marray::NdArray<T>,
) -> Option<marray::NdArray<T>> {
    marray::mem_budget().is_some().then(|| arr.govern())
}

/// A measured intra-node kernel scaling curve: aggregate speedup over the
/// single-threaded run at each thread count, obtained by timing a real
/// parallel kernel on the host (or loaded from a `scibench bench` run).
///
/// Feeds [`simcluster::ClusterSpec::with_measured_scaling`] so the engine
/// analogs' per-node speedup model can be grounded in a measurement instead
/// of the analytic hyper-threading curve.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelScaling {
    /// `(threads, speedup)` points, sorted by thread count. `(1, 1.0)` is
    /// the serial anchor.
    pub points: Vec<(usize, f64)>,
}

impl KernelScaling {
    /// Build from explicit points; sorts by thread count.
    pub fn from_points(mut points: Vec<(usize, f64)>) -> KernelScaling {
        points.sort_by_key(|&(t, _)| t);
        points.dedup_by_key(|&mut (t, _)| t);
        KernelScaling { points }
    }

    /// Measure the NLM denoise kernel (the dominant cost of the
    /// neuroscience pipeline) at each thread count on a small phantom and
    /// return the speedup curve relative to the serial run.
    ///
    /// On a single-core host the curve is flat (~1×) — the measurement is
    /// honest about the hardware it ran on.
    // scilint: allow(F001, calibration probe runs on synthetic data sized by the model itself; a shape fault is a model bug)
    // scilint: allow(F002, the cost model calibrates against wall time by design; timings feed tuning only, never result payloads)
    pub fn measure(thread_counts: &[usize]) -> KernelScaling {
        use sciops::neuro::{nlmeans3d_par, NlmParams};
        use sciops::synth::dmri::{DmriPhantom, DmriSpec};
        use sciops::Parallelism;

        let spec = DmriSpec::test_scale();
        let phantom = DmriPhantom::generate(3, &spec);
        let data: marray::NdArray<f64> = phantom.data.cast();
        let (_, mask) = sciops::neuro::pipeline::segmentation(&data, &phantom.gtab);
        let vol = data.slice_axis(3, 0).expect("volume 0");
        let nlm = NlmParams {
            search_radius: 2,
            patch_radius: 1,
            sigma: 20.0,
            h_factor: 1.0,
        };

        let time_at = |par: Parallelism| {
            // Warm-up run, then time the better of two runs to shave
            // scheduler noise on small inputs.
            let _ = nlmeans3d_par(&vol, Some(&mask), &nlm, par);
            let mut best = f64::INFINITY;
            for _ in 0..2 {
                let t = Instant::now();
                let _ = nlmeans3d_par(&vol, Some(&mask), &nlm, par);
                best = best.min(t.elapsed().as_secs_f64());
            }
            best.max(1e-9)
        };

        let serial = time_at(Parallelism::Serial);
        let mut points = vec![(1usize, 1.0f64)];
        for &t in thread_counts {
            if t <= 1 {
                continue;
            }
            points.push((t, serial / time_at(Parallelism::threads(t))));
        }
        KernelScaling::from_points(points)
    }

    /// Predict the scaling curve a morsel-scheduled kernel would achieve
    /// from its measured per-morsel cost profile: at each thread count,
    /// speedup is the serial total over the makespan of
    /// [`parexec::simulate_workers`]'s deterministic claim model. This is
    /// the scheduler's `measured_scaling` feedback path — a skewed cost
    /// profile caps the predicted speedup at `total / hottest_morsel` no
    /// matter how many workers are added.
    pub fn from_morsel_costs(costs: &[f64], thread_counts: &[usize]) -> KernelScaling {
        let total: f64 = costs.iter().sum();
        let mut points = vec![(1usize, 1.0f64)];
        if total > 0.0 {
            for &t in thread_counts {
                if t <= 1 {
                    continue;
                }
                let load = parexec::simulate_workers(costs, t);
                let makespan = load.iter().cloned().fold(0.0f64, f64::max);
                if makespan > 0.0 {
                    points.push((t, total / makespan));
                }
            }
        }
        KernelScaling::from_points(points)
    }

    /// Aggregate speedup at `threads`: piecewise-linear between measured
    /// points, flat beyond the ends, 1.0 for an empty curve.
    pub fn speedup_at(&self, threads: usize) -> f64 {
        let Some(&(first_t, first_s)) = self.points.first() else {
            return 1.0;
        };
        let &(last_t, last_s) = self.points.last().unwrap_or(&(first_t, first_s));
        if threads <= first_t {
            return first_s;
        }
        if threads >= last_t {
            return last_s;
        }
        for pair in self.points.windows(2) {
            let (t0, s0) = pair[0];
            let (t1, s1) = pair[1];
            if threads >= t0 && threads <= t1 {
                let frac = (threads - t0) as f64 / (t1 - t0) as f64;
                return s0 + frac * (s1 - s0);
            }
        }
        last_s
    }

    /// Apply this curve to a cluster spec, replacing its analytic
    /// intra-node scaling model.
    pub fn apply_to(&self, cluster: simcluster::ClusterSpec) -> simcluster::ClusterSpec {
        cluster.with_measured_scaling(self.points.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denoise_dominates_neuro() {
        // The paper: "the bulk of the processing happens in the
        // user-defined denoising function".
        let m = CostModel::default();
        let denoise = NeuroWorkload::VOLUMES as f64 * m.neuro_denoise_per_volume;
        let rest = m.neuro_filter_per_subject
            + m.neuro_mean_per_subject
            + m.neuro_mask_per_subject
            + m.neuro_fit_per_subject;
        assert!(denoise > 10.0 * rest, "denoise {denoise} vs rest {rest}");
    }

    #[test]
    fn csv_conversion_costs_more_than_npy() {
        // Figure 11's analysis: "the NIfTI-to-CSV conversion overhead for
        // SciDB is a little larger than the NIfTI-to-NumPy overhead".
        let m = CostModel::default();
        assert!(m.convert_nifti_to_csv_per_subject > m.convert_nifti_to_npy_per_subject);
        // CSV is ~6× the bytes of the binary form; the conversion stays
        // within that byte-inflation multiple of the NumPy staging cost.
        assert!(m.convert_nifti_to_csv_per_subject < 6.0 * m.convert_nifti_to_npy_per_subject);
    }

    #[test]
    fn kernel_scaling_interpolates_and_clamps() {
        let s = KernelScaling::from_points(vec![(4, 3.0), (1, 1.0), (2, 1.8)]);
        assert_eq!(s.points, vec![(1, 1.0), (2, 1.8), (4, 3.0)]);
        assert_eq!(s.speedup_at(1), 1.0);
        assert!((s.speedup_at(3) - 2.4).abs() < 1e-12);
        assert_eq!(s.speedup_at(64), 3.0);
        assert_eq!(KernelScaling::from_points(vec![]).speedup_at(8), 1.0);
    }

    #[test]
    fn morsel_cost_scaling_is_capped_by_the_hottest_morsel() {
        // Uniform profile: near-linear until worker count passes the
        // morsel count.
        let uniform = KernelScaling::from_morsel_costs(&[1.0; 16], &[2, 4, 8]);
        assert_eq!(uniform.points[0], (1, 1.0));
        assert!((uniform.speedup_at(4) - 4.0).abs() < 1e-9);
        // Skewed profile: one morsel carries half the work, so speedup
        // saturates at total/max = 2.0 regardless of width.
        let mut costs = vec![1.0f64; 15];
        costs.push(15.0);
        let skewed = KernelScaling::from_morsel_costs(&costs, &[2, 4, 8]);
        assert!(skewed.speedup_at(8) <= 2.0 + 1e-9);
        assert!(skewed.speedup_at(8) > 1.0);
        // Degenerate inputs stay sane.
        assert_eq!(
            KernelScaling::from_morsel_costs(&[], &[2]).points,
            vec![(1, 1.0)]
        );
    }

    #[test]
    fn kernel_scaling_applies_to_cluster() {
        let s = KernelScaling::from_points(vec![(1, 1.0), (2, 2.0), (4, 4.0)]);
        let c = s.apply_to(simcluster::ClusterSpec::r3_2xlarge(1));
        assert!((c.node.slot_speed(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measured_scaling_is_sane() {
        // One small measurement: serial anchor present, all speedups
        // positive, and the curve never claims superlinear scaling beyond
        // the thread count.
        let s = KernelScaling::measure(&[2]);
        assert_eq!(s.points[0], (1, 1.0));
        for &(t, sp) in &s.points {
            assert!(sp > 0.0, "non-positive speedup at {t} threads");
            assert!(sp <= t as f64 * 1.5, "implausible speedup {sp} at {t}");
        }
    }

    #[test]
    fn budget_derives_chunk_granularity() {
        // Unbounded: one chunk, whole array.
        assert_eq!(
            choose_chunk_shape(&[24, 100, 100], 8, 4, None),
            vec![24, 100, 100]
        );
        // 32 MiB over 4 workers, slack 4: 2 MiB per chunk = 26 planes of
        // 100×100 f64 — floored to whole planes.
        let budget = Some(32u64 << 20);
        let shape = choose_chunk_shape(&[1000, 100, 100], 8, 4, budget);
        assert_eq!(&shape[1..], &[100, 100]);
        assert!(shape[0] >= 1 && shape[0] < 1000);
        assert!(shape[0] as u64 * 100 * 100 * 8 <= (32u64 << 20) / (4 * CHUNK_BUDGET_SLACK));
        // A budget smaller than one plane still yields one whole plane.
        assert_eq!(
            choose_chunk_shape(&[10, 512, 512], 8, 8, Some(1 << 20))[0],
            1
        );
        // Tighter budget, smaller chunks (monotone).
        let loose = choose_chunk_elems(1 << 24, 8, 2, Some(256 << 20));
        let tight = choose_chunk_elems(1 << 24, 8, 2, Some(16 << 20));
        assert!(tight < loose);
    }

    #[test]
    fn boundary_governing_follows_the_budget() {
        let arr: marray::NdArray<f64> = marray::NdArray::zeros(&[64, 64]);
        assert!(
            govern_for_boundary(&arr).is_none(),
            "no budget: caller's handle"
        );
        marray::with_mem_budget(Some(1 << 20), || {
            let governed = govern_for_boundary(&arr).expect("budget active");
            assert_eq!(governed.residency(), marray::Residency::Resident);
            assert_eq!(governed.data(), arr.data());
        });
    }

    #[test]
    fn calibration_keeps_denoise_dominant() {
        let m = CostModel::calibrated();
        assert!(
            m.neuro_denoise_per_volume > m.neuro_mean_per_subject,
            "denoise {} vs mean {}",
            m.neuro_denoise_per_volume,
            m.neuro_mean_per_subject
        );
        assert!(m.neuro_denoise_per_volume >= 1.0);
    }
}
