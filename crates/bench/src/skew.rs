//! Skew benchmark: a per-patch co-add + detection workload on the morsel
//! pool, gated against a static block split of the same costs.
//!
//! The workload is a synthetic sky whose source field is deliberately
//! skewed ([`SkySurvey::generate_skewed`]: 80% of the sources packed into
//! one corner patch — the paper's §5.3.3 "a few patches dominate a
//! straggler" scenario). Each patch is one work item: co-add + detection
//! (per-pixel, near-uniform) plus per-source forced photometry (what makes
//! the dense patch the costliest, about twice the mean patch in measured
//! full-field profiles), so a static contiguous split pins the hot patch
//! plus its block-mates on one worker while morsel claiming gives that
//! worker nothing else.
//!
//! Each patch's cost is measured serially, as the median of three timed
//! passes after an untimed warm-up pass, then two models replay those
//! costs at every ladder width: [`simulate_workers`] (the pool's greedy
//! claim loop) and a contiguous block split. Both are deterministic given
//! the costs, so the comparison holds even on a single-core host where
//! real threads never overlap. The live pool runs at each width only to
//! prove its outputs bit-identical to the serial run.
//!
//! Results serialize as `BENCH_skew.json` (schema `scibench-bench-skew/v3`).

use crate::kernels::Fingerprint;
use parexec::{simulate_workers, MorselPool, Parallelism};
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

/// Timed serial passes over every patch; a patch's cost is their median.
const TIMED_PASSES: usize = 3;

/// Survey geometry for the skew run. Both variants pack enough sources
/// into the dense corner patch that its forced-photometry bill dominates:
/// `quick` is a 9-patch smoke field, the full run a 25-patch field (16
/// full patches and 9 edge slivers) whose hot patch sits among 24 cheaper
/// ones.
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

/// One worker-count row: the claim model vs the block-split model over the
/// same measured costs, plus the live pool run.
#[derive(Debug, Clone)]
pub struct SkewResult {
    /// Worker count.
    pub workers: usize,
    /// Max-over-mean worker load of [`simulate_workers`].
    pub morsel_imbalance: f64,
    /// Max-over-mean worker load of a contiguous block split.
    pub block_imbalance: f64,
    /// Wall milliseconds of the live pool run.
    pub ms: f64,
    /// The live pool's outputs matched the serial run bit for bit.
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

/// Max-over-mean imbalance of per-worker loads. Empty or all-zero loads
/// count as perfectly balanced (1.0).
fn imbalance_ratio(per_worker: &[f64]) -> f64 {
    let sum: f64 = per_worker.iter().sum();
    if per_worker.is_empty() || sum <= 0.0 {
        return 1.0;
    }
    let mean = sum / per_worker.len() as f64;
    per_worker.iter().cloned().fold(0.0f64, f64::max) / mean
}

/// Per-worker loads of a contiguous block split: worker `w` of `W` gets
/// items `w*n/W .. (w+1)*n/W`, with no more workers than items (the same
/// clamp as [`simulate_workers`]).
fn block_split_loads(costs: &[f64], workers: usize) -> Vec<f64> {
    let n = costs.len();
    let workers = workers.max(1).min(n.max(1));
    (0..workers)
        .map(|w| costs[w * n / workers..(w + 1) * n / workers].iter().sum())
        .collect()
}

/// Run the skew matrix: serial cost measurement, then both models and a
/// live pool run at every [`SKEW_LADDER`] worker count, checking the pool's
/// outputs stay bit-identical to the serial run.
pub fn run_skew(quick: bool) -> SkewRun {
    let survey = SkySurvey::generate_skewed(42, &skew_spec(quick));
    let items = patch_items(&survey);

    // Serial anchor: the reference output and the per-patch cost profile
    // every model comparison uses. Timed item by item rather than through
    // a width-1 pool — the pool would coarsen a handful of patches into
    // fewer morsels, and the model wants exactly one cost per patch. An
    // untimed pass yields the reference and warms caches and allocator,
    // so the hot corner patch, which comes first, is not charged for a
    // cold start; each patch's cost is the median of its timed passes, so
    // one stalled pass does not set its share.
    let reference: Vec<u64> = items
        .iter()
        .map(|(patch, stacks)| patch_work(patch, stacks))
        .collect();
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(TIMED_PASSES); items.len()];
    for _ in 0..TIMED_PASSES {
        for (((patch, stacks), expect), t) in items.iter().zip(&reference).zip(&mut times) {
            let t0 = Instant::now();
            let out = patch_work(patch, stacks);
            t.push(t0.elapsed().as_secs_f64() * 1e9);
            assert_eq!(
                out, *expect,
                "timed pass diverged from the reference at {patch:?}"
            );
        }
    }
    let costs: Vec<f64> = times
        .into_iter()
        .map(|mut t| {
            t.sort_by(f64::total_cmp);
            t[TIMED_PASSES / 2]
        })
        .collect();

    let mut results = Vec::new();
    for &workers in &SKEW_LADDER {
        let pool = MorselPool::new(Parallelism::threads(workers));
        let t0 = Instant::now();
        let out = pool.map(&items, |_, (patch, stacks)| patch_work(patch, stacks));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        results.push(SkewResult {
            workers,
            morsel_imbalance: imbalance_ratio(&simulate_workers(&costs, workers)),
            block_imbalance: imbalance_ratio(&block_split_loads(&costs, workers)),
            ms,
            outputs_identical: out == reference,
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

/// Render a skew run as the `BENCH_skew.json` document
/// (schema `scibench-bench-skew/v3`). Hand-rolled like the other bench
/// emitters: no JSON dependency in the workspace.
pub fn results_to_json(run: &SkewRun, host_parallelism: usize, quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"scibench-bench-skew/v3\",\n");
    out.push_str(&crate::hostinfo::host_block(host_parallelism));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"patches\": {},\n", run.patches));
    out.push_str(&format!("  \"morsels\": {},\n", run.morsels));
    out.push_str("  \"results\": [\n");
    for (i, r) in run.results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"morsel_imbalance\": {:.4}, \"block_imbalance\": {:.4}, \
             \"ms\": {:.2}, \"outputs_identical\": {}}}{}\n",
            r.workers,
            r.morsel_imbalance,
            r.block_imbalance,
            r.ms,
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

    /// Visit-stack pixels whose co-add and detection cost about what one
    /// source's forced photometry does. Fitted to two serially measured
    /// full-field profiles, whose hottest patch carried 7.1% and 7.7% of
    /// the total (1.8–1.9x the mean); 80 puts the proxy's at 7.5%.
    const PIXELS_PER_SOURCE: f64 = 80.0;

    /// Deterministic per-patch cost proxy: a base cost in proportion to
    /// the patch's pixels over all its visit stacks, plus one unit per
    /// injected source in the patch. Independent of any timing, so the
    /// regression assertion below is strict.
    fn pixel_and_source_costs(survey: &SkySurvey) -> Vec<f64> {
        let grid = survey.patch_grid();
        let items = patch_items(survey);
        items
            .iter()
            .map(|(patch, stacks)| {
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
                let pixels: usize = stacks.iter().map(|e| e.flux.len()).sum();
                pixels as f64 / PIXELS_PER_SOURCE + n as f64
            })
            .collect()
    }

    #[test]
    fn morsel_schedule_beats_static_split_on_skewed_field() {
        // Full-scale field: with 25 patches every static block at 8 workers
        // still co-locates a block-mate with the hot patch, so strictness
        // holds at every ladder width. (At quick scale, 9 patches over 8
        // workers leave the hot patch alone in its block and the schedules
        // tie.) Cheap despite the scale: this counts pixels and sources, it
        // never runs the co-add/detect kernel.
        let survey = SkySurvey::generate_skewed(42, &skew_spec(false));
        let costs = pixel_and_source_costs(&survey);
        assert_eq!(costs.len(), 25, "the full field's patch count");
        let max = costs.iter().cloned().fold(0.0f64, f64::max);
        let sum: f64 = costs.iter().sum();
        // The measured skew the proxy is fitted to (`PIXELS_PER_SOURCE`).
        assert!(
            (0.071..=0.077).contains(&(max / sum)),
            "hottest patch carries {max:.1} of {sum:.1}, outside the measured 7.1-7.7%"
        );
        for workers in [2usize, 4, 8] {
            let dynamic = imbalance_ratio(&simulate_workers(&costs, workers));
            let fixed = imbalance_ratio(&block_split_loads(&costs, workers));
            assert!(
                dynamic < fixed,
                "workers={workers}: morsel imbalance {dynamic:.3} not strictly below \
                 static {fixed:.3}"
            );
        }
    }

    #[test]
    fn block_split_matches_block_math() {
        // One heavy morsel among uniform ones: block 0 holds it plus its
        // three block-mates, and the claim model gives it a worker alone.
        let mut costs = vec![1.0f64; 16];
        costs[0] = 10.0;
        let blocks = block_split_loads(&costs, 4);
        assert_eq!(blocks, vec![13.0, 4.0, 4.0, 4.0]);
        assert!(imbalance_ratio(&simulate_workers(&costs, 4)) < imbalance_ratio(&blocks));
        // Uneven blocks still cover every item once; never more workers
        // than items.
        assert_eq!(block_split_loads(&[1.0; 7], 3), vec![2.0, 2.0, 3.0]);
        assert_eq!(block_split_loads(&[1.0, 2.0], 8), vec![1.0, 2.0]);
    }

    #[test]
    fn imbalance_ratio_edges() {
        assert_eq!(imbalance_ratio(&[]), 1.0);
        assert_eq!(imbalance_ratio(&[0.0, 0.0]), 1.0);
        assert_eq!(imbalance_ratio(&[1.0, 1.0, 1.0]), 1.0);
        assert!((imbalance_ratio(&[3.0, 1.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn quick_run_is_bit_identical_at_every_width() {
        // Bit-identity and structure only: the quick field is deliberately
        // small, and at 8 workers its nine patches leave the hot patch alone
        // in its block, so the two models tie. The model gap is asserted
        // deterministically by
        // `morsel_schedule_beats_static_split_on_skewed_field` and enforced
        // on the full run that generates the committed BENCH_skew.json.
        let run = run_skew(true);
        assert_eq!(run.patches, run.morsels, "one model morsel per patch");
        assert_eq!(run.results.len(), SKEW_LADDER.len());
        for r in &run.results {
            assert!(r.outputs_identical, "workers={}", r.workers);
            assert!(r.morsel_imbalance >= 1.0);
            assert!(r.block_imbalance >= 1.0);
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
                morsel_imbalance: 1.05,
                block_imbalance: 2.4,
                ms: 1.5,
                outputs_identical: true,
            }],
            predicted_scaling: vec![(1, 1.0), (4, 3.2)],
        };
        let json = results_to_json(&run, 1, true);
        assert!(json.contains("\"schema\": \"scibench-bench-skew/v3\""));
        assert!(json.contains("\"single_core_host\": true"));
        assert!(json.contains(
            "{\"workers\": 4, \"morsel_imbalance\": 1.0500, \"block_imbalance\": 2.4000, \
             \"ms\": 1.50, \"outputs_identical\": true}"
        ));
        for gone in [
            "summary",
            "measured_imbalance",
            "steals",
            "per_worker_morsels",
        ] {
            assert!(!json.contains(gone), "{gone} is not part of v3:\n{json}");
        }
        assert!(json.contains("\"predicted_scaling\""));
        assert!(json.contains("[4, 3.2000]"));
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");
    }
}
