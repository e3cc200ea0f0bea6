//! Skew benchmark: the same per-patch co-add + detection workload under
//! morsel claiming and under static block splits.
//!
//! The workload is a synthetic sky whose source field is deliberately
//! skewed ([`SkySurvey::generate_skewed`]: 80% of the sources packed into
//! one corner patch — the paper's §5.3.3 "a few patches dominate a
//! straggler" scenario). Each patch is one work item: co-add + detection
//! (per-pixel, near-uniform) plus per-source forced photometry (what makes
//! the dense patch cost several times the others), so a static contiguous
//! split pins the hot patch plus its block-mates on one worker while
//! morsel claiming gives that worker nothing else.
//!
//! Two imbalance numbers are reported per (workers, schedule) cell:
//!
//! * **model** — [`simulate_workers`] over the serially measured
//!   per-morsel costs. Deterministic given the costs, and meaningful even
//!   on a single-core host where real threads never overlap.
//! * **measured** — the live [`PoolStats`] busy-time imbalance of the
//!   actual threaded run. Honest but noisy; on a one-core host a single
//!   worker can drain the whole cursor before the others are scheduled.
//!
//! Results serialize as `BENCH_skew.json` (schema `scibench-bench-skew/v2`).

use crate::kernels::Fingerprint;
use parexec::{imbalance_ratio, simulate_workers, MorselPool, Parallelism, PoolStats, Schedule};
use scibench_core::costmodel::KernelScaling;
use sciops::astro::pipeline::{create_patches, merge_visit_pieces};
use sciops::astro::{
    calibrate_exposure, coadd_sigma_clip, detect_sources, CalibParams, CoaddParams, DetectParams,
    Exposure, PatchId,
};
use sciops::synth::sky::{SkySpec, SkySurvey};
use std::time::Instant;

/// Worker counts the skew matrix sweeps (serial is the cost-measurement
/// anchor, not a row: imbalance is undefined for one worker).
pub const SKEW_LADDER: [usize; 3] = [2, 4, 8];

/// Survey geometry for the skew run. Both variants pack enough sources
/// into the dense corner patch that its forced-photometry bill dominates:
/// `quick` is a 9-patch smoke field, the full run a 16-patch field whose
/// hot patch sits among 15 cheap ones.
fn skew_spec(quick: bool) -> SkySpec {
    if quick {
        SkySpec {
            sensor_width: 48,
            sensor_height: 48,
            sensor_grid: (2, 2),
            n_visits: 4,
            n_sources: 40,
            background: 200.0,
            bg_gradient: 0.05,
            flux_range: (3000.0, 9000.0),
            psf_sigma: 1.2,
            read_noise: 8.0,
            cosmic_rays_per_sensor: 2,
            dither: 2,
            patch_size: 36,
        }
    } else {
        SkySpec {
            sensor_width: 64,
            sensor_height: 64,
            sensor_grid: (3, 3),
            n_visits: 8,
            n_sources: 110,
            background: 200.0,
            bg_gradient: 0.02,
            flux_range: (3000.0, 9000.0),
            psf_sigma: 1.2,
            read_noise: 8.0,
            cosmic_rays_per_sensor: 3,
            dither: 3,
            patch_size: 48,
        }
    }
}

/// One (schedule) cell of a skew matrix row.
#[derive(Debug, Clone)]
pub struct SkewCell {
    /// Imbalance of the deterministic worker model over measured costs.
    pub model_imbalance: f64,
    /// Imbalance of the live run's per-worker busy times.
    pub measured_imbalance: f64,
    /// Morsels executed off their static-block owner (0 under Static).
    pub steals: usize,
    /// Morsels claimed per worker in the live run.
    pub per_worker_morsels: Vec<usize>,
    /// Wall milliseconds of the live run.
    pub ms: f64,
}

/// One worker-count row: morsel claiming vs the static split.
#[derive(Debug, Clone)]
pub struct SkewResult {
    /// Worker count.
    pub workers: usize,
    /// Dynamic morsel claiming.
    pub morsel: SkewCell,
    /// Static contiguous block split.
    pub static_split: SkewCell,
    /// Both schedules' outputs matched the serial run bit for bit.
    pub outputs_identical: bool,
}

/// A full skew run: the matrix plus the serially measured cost profile.
#[derive(Debug, Clone)]
pub struct SkewRun {
    /// Work items (patches with data).
    pub patches: usize,
    /// Model work units: one morsel per patch (the live pools may coarsen
    /// their own partitions; the model is the headline on this host).
    pub morsels: usize,
    /// Per-morsel (= per-patch) serial costs in nanoseconds.
    pub morsel_cost_nanos: Vec<f64>,
    /// One row per [`SKEW_LADDER`] entry.
    pub results: Vec<SkewResult>,
    /// Intra-node scaling curve the cost model predicts from the measured
    /// morsel costs ([`KernelScaling::from_morsel_costs`]).
    pub predicted_scaling: Vec<(usize, f64)>,
}

/// Calibrate, patch and merge the survey into per-patch visit stacks —
/// the items the scheduler fans out over.
fn patch_items(survey: &SkySurvey) -> Vec<(PatchId, Vec<Exposure>)> {
    let calib = CalibParams::default();
    let grid = survey.patch_grid();
    let calibrated: Vec<Exposure> = survey
        .visits
        .iter()
        .flatten()
        .map(|e| calibrate_exposure(e, &calib))
        .collect();
    create_patches(&calibrated, &grid)
        .into_iter()
        .map(|(patch, pieces)| {
            let patch_box = grid.patch_box(patch);
            let mut by_visit: std::collections::BTreeMap<u32, Vec<Exposure>> =
                std::collections::BTreeMap::new();
            for piece in pieces {
                by_visit.entry(piece.visit).or_default().push(piece);
            }
            let stacks: Vec<Exposure> = by_visit
                .into_values()
                .map(|pieces| merge_visit_pieces(&patch_box, &pieces))
                .collect();
            (patch, stacks)
        })
        .collect()
}

/// Co-add, detect, then force-photometer every detected source on every
/// visit stack, folded to a fingerprint.
///
/// Co-add and detection cost is per-pixel and thus near-uniform across
/// patches; the forced photometry (light-curve extraction, one stamp per
/// source per visit) is what makes a source-dense patch genuinely more
/// expensive — the cost skew this benchmark demonstrates.
fn patch_work(patch: &PatchId, stacks: &[Exposure]) -> u64 {
    let coadd = coadd_sigma_clip(stacks, &CoaddParams::default());
    let sources = detect_sources(&coadd, &DetectParams::default());
    let mut fp = Fingerprint::new();
    fp.push_usize(patch.0 as usize);
    fp.push_usize(patch.1 as usize);
    fp.push_slice(coadd.flux.data());
    fp.push_usize(sources.len());
    for s in &sources {
        fp.push_f64(s.centroid.0);
        fp.push_f64(s.centroid.1);
        fp.push_f64(s.flux);
        fp.push_f64(s.peak);
        fp.push_usize(s.npix);
        for e in stacks {
            fp.push_f64(forced_flux(e, s.centroid));
        }
    }
    fp.finish()
}

/// PSF-weighted forced photometry of one source position on one visit
/// stack: Gaussian-weighted mean flux over a fixed stamp around the
/// centroid (the per-epoch flux a light curve is built from).
fn forced_flux(e: &Exposure, centroid: (f64, f64)) -> f64 {
    /// Stamp half-width in pixels; covers the PSF out to ~6 sigma.
    const RADIUS: i64 = 7;
    /// `2 * psf_sigma^2` for the generator's 1.2-pixel PSF.
    const TWO_SIGMA_SQ: f64 = 2.0 * 1.2 * 1.2;
    let (rows, cols) = e.dims();
    let cx = centroid.0 - e.bbox.x0 as f64;
    let cy = centroid.1 - e.bbox.y0 as f64;
    let (ix, iy) = (cx.round() as i64, cy.round() as i64);
    let mut num = 0.0;
    let mut den = 0.0;
    for dy in -RADIUS..=RADIUS {
        for dx in -RADIUS..=RADIUS {
            let (x, y) = (ix + dx, iy + dy);
            if x < 0 || y < 0 || x >= cols as i64 || y >= rows as i64 {
                continue;
            }
            let fx = cx - x as f64;
            let fy = cy - y as f64;
            let w = (-(fx * fx + fy * fy) / TWO_SIGMA_SQ).exp();
            num += w * e.flux.data()[y as usize * cols + x as usize];
            den += w;
        }
    }
    num / den.max(1e-12)
}

fn run_cell(
    items: &[(PatchId, Vec<Exposure>)],
    workers: usize,
    schedule: Schedule,
    costs: &[f64],
) -> (Vec<u64>, SkewCell) {
    let pool = MorselPool::new(Parallelism::threads(workers)).with_schedule(schedule);
    let t0 = Instant::now();
    let (out, stats): (Vec<u64>, PoolStats) =
        pool.map_with_stats(items, |_, (patch, stacks)| patch_work(patch, stacks));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let model = simulate_workers(costs, workers, schedule);
    let cell = SkewCell {
        model_imbalance: imbalance_ratio(&model),
        measured_imbalance: stats.imbalance(),
        steals: stats.steals,
        per_worker_morsels: stats.per_worker_morsels.clone(),
        ms,
    };
    (out, cell)
}

/// Run the skew matrix: serial cost measurement, then every
/// [`SKEW_LADDER`] worker count under both schedules, asserting outputs
/// stay bit-identical to the serial run.
pub fn run_skew(quick: bool) -> SkewRun {
    let survey = SkySurvey::generate_skewed(42, &skew_spec(quick));
    let items = patch_items(&survey);

    // Serial anchor: the reference output and the per-patch cost profile
    // every model comparison uses. Timed item by item rather than through
    // a width-1 pool — the pool would coarsen a handful of patches into
    // fewer morsels, and the model wants exactly one cost per patch.
    let mut reference = Vec::with_capacity(items.len());
    let mut costs = Vec::with_capacity(items.len());
    for (patch, stacks) in &items {
        let t0 = Instant::now();
        reference.push(patch_work(patch, stacks));
        costs.push(t0.elapsed().as_secs_f64() * 1e9);
    }

    let mut results = Vec::new();
    for &workers in &SKEW_LADDER {
        let (out_m, morsel) = run_cell(&items, workers, Schedule::Morsel, &costs);
        let (out_s, static_split) = run_cell(&items, workers, Schedule::Static, &costs);
        results.push(SkewResult {
            workers,
            morsel,
            static_split,
            outputs_identical: out_m == reference && out_s == reference,
        });
    }

    let predicted = KernelScaling::from_morsel_costs(&costs, &[2, 4, 8]);
    SkewRun {
        patches: items.len(),
        morsels: costs.len(),
        morsel_cost_nanos: costs,
        results,
        predicted_scaling: predicted.points,
    }
}

fn cell_json(c: &SkewCell) -> String {
    let morsels = c
        .per_worker_morsels
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"model_imbalance\": {:.4}, \"measured_imbalance\": {:.4}, \"steals\": {}, \
         \"per_worker_morsels\": [{morsels}], \"ms\": {:.2}}}",
        c.model_imbalance, c.measured_imbalance, c.steals, c.ms
    )
}

/// Render a skew run as the `BENCH_skew.json` document
/// (schema `scibench-bench-skew/v2`). Hand-rolled like the other bench
/// emitters: no JSON dependency in the workspace.
pub fn results_to_json(run: &SkewRun, host_parallelism: usize, quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"scibench-bench-skew/v2\",\n");
    out.push_str(&crate::hostinfo::host_block(host_parallelism));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"patches\": {},\n", run.patches));
    out.push_str(&format!("  \"morsels\": {},\n", run.morsels));
    out.push_str("  \"results\": [\n");
    for (i, r) in run.results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"morsel\": {}, \"static\": {}, \
             \"outputs_identical\": {}}}{}\n",
            r.workers,
            cell_json(&r.morsel),
            cell_json(&r.static_split),
            r.outputs_identical,
            if i + 1 < run.results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"predicted_scaling\": [\n");
    for (i, (t, s)) in run.predicted_scaling.iter().enumerate() {
        out.push_str(&format!(
            "    [{t}, {s:.4}]{}\n",
            if i + 1 < run.predicted_scaling.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic per-patch cost proxy: how many injected sources land
    /// in each patch (detection cost tracks source density). Independent
    /// of any timing, so the regression assertion below is strict.
    fn source_count_costs(survey: &SkySurvey) -> Vec<f64> {
        let grid = survey.patch_grid();
        let items = patch_items(survey);
        items
            .iter()
            .map(|(patch, _)| {
                let b = grid.patch_box(*patch);
                let n = survey
                    .sources
                    .iter()
                    .filter(|s| {
                        s.x >= b.x0 as f64
                            && s.x < b.x1() as f64
                            && s.y >= b.y0 as f64
                            && s.y < b.y1() as f64
                    })
                    .count();
                // Every patch pays a base co-add cost; detection adds
                // per-source work on top.
                1.0 + n as f64
            })
            .collect()
    }

    #[test]
    fn morsel_schedule_beats_static_split_on_skewed_field() {
        // Full-scale field: with 16 patches every static block at 8 workers
        // still co-locates a block-mate with the hot patch, so strictness
        // holds at every ladder width. (At quick scale, 9 patches over 8
        // workers leave the hot patch alone in its block and the schedules
        // tie.) Cheap despite the scale: this only counts sources, it never
        // runs the co-add/detect kernel.
        let survey = SkySurvey::generate_skewed(42, &skew_spec(false));
        let costs = source_count_costs(&survey);
        assert!(
            costs.len() >= 4,
            "need several patches, got {}",
            costs.len()
        );
        let max = costs.iter().cloned().fold(0.0f64, f64::max);
        let sum: f64 = costs.iter().sum();
        assert!(
            max / sum > 3.0 / costs.len() as f64,
            "field not skewed: hottest patch carries {max} of {sum} over {} patches",
            costs.len()
        );
        for workers in [2usize, 4, 8] {
            let dynamic = imbalance_ratio(&simulate_workers(&costs, workers, Schedule::Morsel));
            let fixed = imbalance_ratio(&simulate_workers(&costs, workers, Schedule::Static));
            assert!(
                dynamic < fixed,
                "workers={workers}: morsel imbalance {dynamic:.3} not strictly below \
                 static {fixed:.3}"
            );
        }
    }

    #[test]
    fn quick_run_is_bit_identical_across_schedules() {
        // Bit-identity and structure only: the quick field is deliberately
        // small, and with nine chunky morsels the measured scheduling gap
        // between morsel claiming and a static split is inside timing
        // noise. The scheduling *win* is asserted deterministically by
        // `morsel_schedule_beats_static_split_on_skewed_field` and enforced
        // on the full run that generates the committed BENCH_skew.json.
        let run = run_skew(true);
        assert_eq!(run.patches, run.morsels, "one model morsel per patch");
        assert!(!run.results.is_empty());
        for r in &run.results {
            assert!(r.outputs_identical, "workers={}", r.workers);
            assert!(r.morsel.model_imbalance >= 1.0);
            assert!(r.static_split.model_imbalance >= 1.0);
        }
        assert_eq!(run.predicted_scaling.first(), Some(&(1, 1.0)));
    }

    #[test]
    fn json_schema_and_fields_are_stable() {
        let run = SkewRun {
            patches: 9,
            morsels: 9,
            morsel_cost_nanos: vec![100.0; 9],
            results: vec![SkewResult {
                workers: 4,
                morsel: SkewCell {
                    model_imbalance: 1.05,
                    measured_imbalance: 2.0,
                    steals: 3,
                    per_worker_morsels: vec![3, 2, 2, 2],
                    ms: 1.5,
                },
                static_split: SkewCell {
                    model_imbalance: 2.4,
                    measured_imbalance: 2.5,
                    steals: 0,
                    per_worker_morsels: vec![2, 2, 2, 3],
                    ms: 2.0,
                },
                outputs_identical: true,
            }],
            predicted_scaling: vec![(1, 1.0), (4, 3.2)],
        };
        let json = results_to_json(&run, 1, true);
        assert!(json.contains("\"schema\": \"scibench-bench-skew/v2\""));
        assert!(json.contains("\"single_core_host\": true"));
        assert!(json.contains("\"model_imbalance\": 1.0500"));
        assert!(json.contains("\"model_imbalance\": 2.4000"));
        assert!(!json.contains("\"summary\""));
        assert!(json.contains("\"per_worker_morsels\": [3, 2, 2, 2]"));
        assert!(json.contains("\"predicted_scaling\""));
        assert!(json.contains("[4, 3.2000]"));
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");
    }
}
