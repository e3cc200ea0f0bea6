//! Frozen oracle for the Step 1A–4A astronomy kernels.
//!
//! The `reference_*` functions below are the kernels that read every pixel
//! through `NdArray::data()`, kept verbatim: calibration with its
//! background mesh gathered pixel by pixel, a cosmic-ray pass that wrote
//! its flags through a fresh `data_mut()` per hit, and a `repair` that
//! cloned the flux plane and so copied it on its first write; the
//! sigma-clip coadd with a `vals` buffer per pixel and round; detection
//! reading `bg`, `variance` and `sub` per pixel; and the Steps 2A–4A
//! pipeline that grouped and merged every patch serially before the
//! per-patch fan-out. The shipped kernels take each plane's slice once and
//! allocate nothing per pixel or cell, and the native pipeline merges each
//! patch on the pool; these tests pin them to the old output bit for bit,
//! at every worker count, on exposures whose sizes are not multiples of
//! the 16-px background cell, with clustered cosmic-ray hits (so `repair`
//! takes its all-flagged mean fallback), masked and `MASK_BAD` pixels, and
//! masks packed to `Const`/`Rle` as the Spark analog ships them.
//!
//! A source guard keeps per-pixel `.data()[` and `.data_mut()[` reads out
//! of the astro kernels' non-test code.

use marray::{ChunkRepr, NdArray};
use parexec::{par_chunks_mut, par_map_slabs, Parallelism};
use sciops::astro::coadd::Coadd;
use sciops::astro::cosmic::{MASK_BAD, MASK_CR};
use sciops::astro::{
    calibrate_exposure, coadd_sigma_clip_par, detect_cosmic_rays, detect_sources_par,
    reference_pipeline_calibrated_par, reference_pipeline_par, repair, AstroOutput,
    BackgroundParams, CalibParams, CoaddParams, CosmicParams, DetectParams, Exposure, PatchGrid,
    PatchId, SkyBox, Source,
};
use sciops::stats::sigma_clipped_median;
use sciops::synth::sky::{SkySpec, SkySurvey};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// The frozen kernels
// ---------------------------------------------------------------------------

fn reference_estimate_background_par(
    image: &NdArray<f64>,
    params: &BackgroundParams,
    par: Parallelism,
) -> NdArray<f64> {
    assert_eq!(
        image.shape().rank(),
        2,
        "background estimation expects a 2-D image"
    );
    let (rows, cols) = (image.dims()[0], image.dims()[1]);
    let cell = params.cell_size.max(1);
    let mesh_rows = rows.div_ceil(cell).max(1);
    let mesh_cols = cols.div_ceil(cell).max(1);

    // Robust per-cell levels, one mesh row per slab.
    let mesh_row_ids: Vec<usize> = (0..mesh_rows).collect();
    let mesh: Vec<f64> = par_map_slabs(&mesh_row_ids, par, |_, &mr| {
        let mut mesh_row = vec![0.0f64; mesh_cols];
        let mut cell_values = Vec::with_capacity(cell * cell);
        for (mc, slot) in mesh_row.iter_mut().enumerate() {
            cell_values.clear();
            let r1 = ((mr + 1) * cell).min(rows);
            let c1 = ((mc + 1) * cell).min(cols);
            for r in mr * cell..r1 {
                for c in mc * cell..c1 {
                    cell_values.push(image.data()[r * cols + c]);
                }
            }
            *slot = sigma_clipped_median(&cell_values, params.kappa, params.clip_iterations);
        }
        mesh_row
    })
    .into_iter()
    .flatten()
    .collect();

    // Bilinear interpolation between cell centers, one pixel row per slab.
    let mut out = NdArray::zeros(&[rows, cols]);
    if cols == 0 {
        return out;
    }
    let center0 = (cell as f64 - 1.0) / 2.0;
    let weights = |i: usize, mesh_len: usize| -> (usize, usize, f64) {
        let f = if mesh_len == 1 {
            0.0
        } else {
            (((i as f64) - center0) / cell as f64).clamp(0.0, (mesh_len - 1) as f64)
        };
        let m0 = f.floor() as usize;
        (m0, (m0 + 1).min(mesh_len - 1), f - m0 as f64)
    };
    let col_weights: Vec<(usize, usize, f64)> = (0..cols).map(|c| weights(c, mesh_cols)).collect();
    par_chunks_mut(out.data_mut(), cols, par, |r, out_row| {
        let (mr0, mr1, tr) = weights(r, mesh_rows);
        let (top_row, bottom_row) = (&mesh[mr0 * mesh_cols..], &mesh[mr1 * mesh_cols..]);
        for (slot, &(mc0, mc1, tc)) in out_row.iter_mut().zip(&col_weights) {
            let top = top_row[mc0] * (1.0 - tc) + top_row[mc1] * tc;
            let bottom = bottom_row[mc0] * (1.0 - tc) + bottom_row[mc1] * tc;
            *slot = top * (1.0 - tr) + bottom * tr;
        }
    });
    out
}

fn reference_detect_cosmic_rays(
    image: &NdArray<f64>,
    variance: &NdArray<f64>,
    params: &CosmicParams,
) -> NdArray<u8> {
    assert_eq!(image.dims(), variance.dims());
    let (rows, cols) = (image.dims()[0], image.dims()[1]);
    let data = image.data();
    let mut flags = NdArray::<u8>::zeros(&[rows, cols]);
    for r in 0..rows {
        for c in 0..cols {
            // 4-neighbor Laplacian with border clamping.
            let v = data[r * cols + c];
            let up = data[r.saturating_sub(1) * cols + c];
            let down = data[(r + 1).min(rows - 1) * cols + c];
            let left = data[r * cols + c.saturating_sub(1)];
            let right = data[r * cols + (c + 1).min(cols - 1)];
            let lap = 4.0 * v - up - down - left - right;
            let sigma = variance.data()[r * cols + c].max(1e-12).sqrt();
            if lap > params.threshold_sigma * sigma * 4.0 {
                flags.data_mut()[r * cols + c] = 1;
            }
        }
    }
    flags
}

fn reference_repair(image: &mut NdArray<f64>, flags: &NdArray<u8>) {
    assert_eq!(image.dims(), flags.dims());
    let (rows, cols) = (image.dims()[0], image.dims()[1]);
    let original = image.clone();
    let mut neigh: Vec<f64> = Vec::with_capacity(8);
    for r in 0..rows {
        for c in 0..cols {
            if flags.data()[r * cols + c] == 0 {
                continue;
            }
            neigh.clear();
            let mut all = Vec::with_capacity(8);
            for dr in -1i64..=1 {
                for dc in -1i64..=1 {
                    if dr == 0 && dc == 0 {
                        continue;
                    }
                    let nr = r as i64 + dr;
                    let nc = c as i64 + dc;
                    if nr < 0 || nc < 0 || nr >= rows as i64 || nc >= cols as i64 {
                        continue;
                    }
                    let off = nr as usize * cols + nc as usize;
                    all.push(original.data()[off]);
                    if flags.data()[off] == 0 {
                        neigh.push(original.data()[off]);
                    }
                }
            }
            let replacement = if !neigh.is_empty() {
                sciops::stats::median(&mut neigh)
            } else {
                all.iter().sum::<f64>() / all.len().max(1) as f64
            };
            image.data_mut()[r * cols + c] = replacement;
        }
    }
}

fn reference_calibrate_exposure(exposure: &Exposure, params: &CalibParams) -> Exposure {
    let bg =
        reference_estimate_background_par(&exposure.flux, &params.background, Parallelism::Serial);
    let mut flux = exposure
        .flux
        .zip_with(&bg, |v, b| v - b)
        .expect("background matches exposure shape");

    let cr = reference_detect_cosmic_rays(&flux, &exposure.variance, &params.cosmic);
    reference_repair(&mut flux, &cr);

    let s = params.aperture_scale;
    flux.map_inplace(|v| v * s);
    let variance = exposure.variance.map(|v| v * s * s);
    let mask = exposure
        .mask
        .zip_with(&cr, |m, hit| if hit != 0 { m | MASK_CR } else { m })
        .expect("same shape");

    Exposure {
        visit: exposure.visit,
        sensor: exposure.sensor,
        bbox: exposure.bbox,
        flux,
        variance,
        mask,
    }
}

fn reference_coadd_sigma_clip_par(
    exposures: &[Exposure],
    params: &CoaddParams,
    par: Parallelism,
) -> Coadd {
    let first = exposures.first().expect("coadd of zero exposures");
    let bbox = first.bbox;
    for e in exposures {
        assert_eq!(e.bbox, bbox, "all coadd inputs must cover the same patch");
    }
    let (rows, cols) = first.dims();
    let n = exposures.len();

    let row_ids: Vec<usize> = (0..rows).collect();
    let stacked = par_map_slabs(&row_ids, par, |_, &r| {
        let mut flux_row = vec![0.0f64; cols];
        let mut var_row = vec![0.0f64; cols];
        let mut depth_row = vec![0u16; cols];
        let mut samples: Vec<(f64, f64)> = Vec::with_capacity(n); // (flux, var)
        for c in 0..cols {
            let p = r * cols + c;
            samples.clear();
            for e in exposures {
                if e.mask.data()[p] == 0 {
                    samples.push((e.flux.data()[p], e.variance.data()[p].max(1e-12)));
                }
            }
            if samples.is_empty() {
                continue;
            }
            // Iterative 3-sigma rejection on the flux samples.
            for _ in 0..params.iterations {
                if samples.len() <= 1 {
                    break;
                }
                let vals: Vec<f64> = samples.iter().map(|s| s.0).collect();
                let (mean, std) = sciops::stats::mean_std(&vals);
                if std == 0.0 {
                    break;
                }
                let before = samples.len();
                samples.retain(|s| (s.0 - mean).abs() <= params.kappa * std);
                if samples.is_empty() || samples.len() == before {
                    break;
                }
            }
            // Inverse-variance weighted mean of the survivors.
            let wsum: f64 = samples.iter().map(|s| 1.0 / s.1).sum();
            let fsum: f64 = samples.iter().map(|s| s.0 / s.1).sum();
            flux_row[c] = fsum / wsum;
            var_row[c] = 1.0 / wsum;
            depth_row[c] = samples.len() as u16;
        }
        (flux_row, var_row, depth_row)
    });

    let mut flux = Vec::with_capacity(rows * cols);
    let mut variance = Vec::with_capacity(rows * cols);
    let mut depth = Vec::with_capacity(rows * cols);
    for (flux_row, var_row, depth_row) in stacked {
        flux.extend(flux_row);
        variance.extend(var_row);
        depth.extend(depth_row);
    }
    Coadd {
        bbox,
        flux: NdArray::from_vec(&[rows, cols], flux).expect("row stitching preserves shape"),
        variance: NdArray::from_vec(&[rows, cols], variance)
            .expect("row stitching preserves shape"),
        depth: NdArray::from_vec(&[rows, cols], depth).expect("row stitching preserves shape"),
    }
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: vec![0] } // label 0 = background sentinel
    }
    fn make(&mut self) -> u32 {
        let l = self.parent.len() as u32;
        self.parent.push(l);
        l
    }
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }
    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }
}

fn reference_detect_sources_par(
    coadd: &Coadd,
    params: &DetectParams,
    par: Parallelism,
) -> Vec<Source> {
    let (rows, cols) = (coadd.flux.dims()[0], coadd.flux.dims()[1]);
    let bg = reference_estimate_background_par(&coadd.flux, &params.background, par);
    let mut sub: NdArray<f64> = coadd.flux.clone();
    if cols > 0 {
        par_chunks_mut(sub.data_mut(), cols, par, |r, row| {
            for (c, v) in row.iter_mut().enumerate() {
                *v -= bg.data()[r * cols + c];
            }
        });
    }

    // Per-pixel significance threshold from the coadd variance.
    let row_ids: Vec<usize> = (0..rows).collect();
    let above: Vec<bool> = par_map_slabs(&row_ids, par, |_, &r| {
        let mut row = vec![false; cols];
        for (c, flag) in row.iter_mut().enumerate() {
            let p = r * cols + c;
            let sigma = coadd.variance.data()[p].max(1e-12).sqrt();
            *flag = sub.data()[p] > params.n_sigma * sigma;
        }
        row
    })
    .into_iter()
    .flatten()
    .collect();

    // Two-pass 8-connected labeling.
    let mut labels = vec![0u32; rows * cols];
    let mut uf = UnionFind::new();
    for r in 0..rows {
        for c in 0..cols {
            let p = r * cols + c;
            if !above[p] {
                continue;
            }
            // Previously-visited neighbors: W, NW, N, NE.
            let mut neighbor_labels: [u32; 4] = [0; 4];
            let mut count = 0;
            if c > 0 && labels[p - 1] != 0 {
                neighbor_labels[count] = labels[p - 1];
                count += 1;
            }
            if r > 0 {
                let base = p - cols;
                if c > 0 && labels[base - 1] != 0 {
                    neighbor_labels[count] = labels[base - 1];
                    count += 1;
                }
                if labels[base] != 0 {
                    neighbor_labels[count] = labels[base];
                    count += 1;
                }
                if c + 1 < cols && labels[base + 1] != 0 {
                    neighbor_labels[count] = labels[base + 1];
                    count += 1;
                }
            }
            if count == 0 {
                labels[p] = uf.make();
            } else {
                let mut min = neighbor_labels[0];
                for &l in &neighbor_labels[1..count] {
                    if l < min {
                        min = l;
                    }
                }
                labels[p] = min;
                for &l in &neighbor_labels[..count] {
                    uf.union(min, l);
                }
            }
        }
    }

    // Second pass: resolve labels, accumulate measurements.
    #[derive(Default)]
    struct Acc {
        flux: f64,
        peak: f64,
        wx: f64,
        wy: f64,
        npix: usize,
    }
    let mut clusters: BTreeMap<u32, Acc> = BTreeMap::new();
    for r in 0..rows {
        for c in 0..cols {
            let p = r * cols + c;
            if labels[p] == 0 {
                continue;
            }
            let root = uf.find(labels[p]);
            let v = sub.data()[p].max(0.0);
            let acc = clusters.entry(root).or_default();
            acc.flux += v;
            acc.peak = acc.peak.max(sub.data()[p]);
            acc.wx += v * c as f64;
            acc.wy += v * r as f64;
            acc.npix += 1;
        }
    }

    let mut sources: Vec<Source> = clusters
        .into_values()
        .filter(|a| a.npix >= params.min_pixels && a.flux > 0.0)
        .map(|a| Source {
            centroid: (
                coadd.bbox.x0 as f64 + a.wx / a.flux,
                coadd.bbox.y0 as f64 + a.wy / a.flux,
            ),
            flux: a.flux,
            peak: a.peak,
            npix: a.npix,
        })
        .collect();
    sources.sort_by(|a, b| {
        b.flux
            .total_cmp(&a.flux)
            .then(a.centroid.0.total_cmp(&b.centroid.0))
    });
    sources
}

fn reference_create_patches(
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

fn reference_merge_visit_pieces(patch_box: &SkyBox, pieces: &[Exposure]) -> Exposure {
    let rows = patch_box.height as usize;
    let cols = patch_box.width as usize;
    let mut flux = NdArray::<f64>::zeros(&[rows, cols]);
    let mut variance = NdArray::<f64>::full(&[rows, cols], 1.0);
    // Start fully masked; unmask where a piece provides pixels.
    let mut mask = NdArray::<u8>::full(&[rows, cols], MASK_BAD);
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

/// Steps 2A–4A: every patch grouped and merged serially, then
/// coadd plus detection fanned out one patch per slab.
fn reference_pipeline_calibrated(
    calibrated: Vec<Exposure>,
    grid: &PatchGrid,
    coadd: &CoaddParams,
    detect: &DetectParams,
    par: Parallelism,
) -> AstroOutput {
    // Step 2A: flatmap to patches, then merge pieces per (patch, visit).
    let by_patch = reference_create_patches(&calibrated, grid);
    let mut merged: Vec<(PatchId, Vec<Exposure>)> = Vec::with_capacity(by_patch.len());
    for (patch, pieces) in by_patch {
        let patch_box = grid.patch_box(patch);
        let mut by_visit: BTreeMap<u32, Vec<Exposure>> = BTreeMap::new();
        for piece in pieces {
            by_visit.entry(piece.visit).or_default().push(piece);
        }
        let visit_exposures: Vec<Exposure> = by_visit
            .into_values()
            .map(|pieces| reference_merge_visit_pieces(&patch_box, &pieces))
            .collect();
        merged.push((patch, visit_exposures));
    }

    // Steps 3A + 4A: coadd each patch across visits, then detect sources
    // on the coadd, one patch per slab on the serial kernels.
    let per_patch = par_map_slabs(&merged, par, |_, (patch, exposures)| {
        let c = reference_coadd_sigma_clip_par(exposures, coadd, Parallelism::Serial);
        let sources = reference_detect_sources_par(&c, detect, Parallelism::Serial);
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

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A deterministic LCG for the perturbations the generator does not make.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 42) as f64
    }
}

/// Sensor and patch sizes that are not multiples of the 16-px background
/// cell, small enough for a debug test and large enough for several mesh
/// cells, patch overlaps and visits.
fn specs() -> [SkySpec; 2] {
    [
        SkySpec {
            sensor_width: 45,
            sensor_height: 37,
            n_visits: 5,
            n_sources: 12,
            cosmic_rays_per_sensor: 3,
            dither: 3,
            patch_size: 27,
            ..SkySpec::test_scale()
        },
        SkySpec {
            sensor_width: 83,
            sensor_height: 71,
            n_visits: 6,
            n_sources: 40,
            cosmic_rays_per_sensor: 4,
            dither: 2,
            patch_size: 53,
            ..SkySpec::test_scale()
        },
    ]
}

/// Add a 3x3 cosmic-ray cluster centred on `(r, c)`: every pixel of the
/// block has a Laplacian far above threshold, so the centre's eight
/// neighbours are all flagged and `repair` falls back to their mean.
fn add_cluster(flux: &mut [f64], cols: usize, r: usize, c: usize, amp: f64) {
    for dr in 0..3 {
        for dc in 0..3 {
            let weight = match (dr, dc) {
                (1, 1) => 1.0,
                (1, _) | (_, 1) => 0.5,
                _ => 0.3,
            };
            flux[(r + dr - 1) * cols + c + dc - 1] += amp * weight;
        }
    }
}

/// Roughen one raw exposure: clustered and trailing cosmic-ray hits, then
/// one of five masks — clean (packs to `Const`), scattered flags with
/// `MASK_BAD` among them, a bad column, a bad corner, or a fully bad
/// sensor (packs to `Const(MASK_BAD)`). Every other exposure ships its
/// mask packed, as the Spark analog does.
fn roughen(e: &mut Exposure, rng: &mut Lcg) {
    let (rows, cols) = e.dims();
    let flux = e.flux.data_mut();
    for _ in 0..2 {
        let (r, c) = (1 + rng.below(rows - 2), 1 + rng.below(cols - 2));
        add_cluster(flux, cols, r, c, 40_000.0 + 40_000.0 * rng.unit());
    }
    // A two-pixel trail.
    let (r, c) = (rng.below(rows), rng.below(cols - 1));
    flux[r * cols + c] += 30_000.0;
    flux[r * cols + c + 1] += 25_000.0;

    let mask = e.mask.data_mut();
    match rng.below(5) {
        0 => {}
        1 => {
            for _ in 0..(rows * cols / 40) {
                let p = rng.below(rows * cols);
                mask[p] = if rng.below(2) == 0 {
                    MASK_BAD
                } else {
                    0b0000_0100
                };
            }
        }
        2 => {
            let c = rng.below(cols);
            for r in 0..rows {
                mask[r * cols + c] = MASK_BAD;
            }
        }
        3 => {
            for r in 0..rows / 3 {
                for c in 0..cols / 4 {
                    mask[r * cols + c] = MASK_BAD | 0b0000_1000;
                }
            }
        }
        _ => mask.fill(MASK_BAD),
    }
    if rng.below(2) == 0 {
        e.mask = e.mask.compressed();
    }
}

/// A roughened survey per (spec, seed), with its patch grid.
fn surveys() -> Vec<(Vec<Vec<Exposure>>, PatchGrid)> {
    let mut out = Vec::new();
    for spec in specs() {
        for seed in [3u64, 41] {
            let mut survey = SkySurvey::generate(seed, &spec);
            let mut rng = Lcg(seed ^ 0xA57E0);
            for e in survey.visits.iter_mut().flatten() {
                roughen(e, &mut rng);
            }
            let grid = survey.patch_grid();
            out.push((survey.visits, grid));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Comparisons
// ---------------------------------------------------------------------------

fn same_f64(a: &NdArray<f64>, b: &NdArray<f64>) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_exposure(a: &Exposure, b: &Exposure) -> bool {
    a.visit == b.visit
        && a.sensor == b.sensor
        && a.bbox == b.bbox
        && same_f64(&a.flux, &b.flux)
        && same_f64(&a.variance, &b.variance)
        && a.mask.dims() == b.mask.dims()
        && a.mask.data() == b.mask.data()
}

fn same_coadd(a: &Coadd, b: &Coadd) -> bool {
    a.bbox == b.bbox
        && same_f64(&a.flux, &b.flux)
        && same_f64(&a.variance, &b.variance)
        && a.depth.dims() == b.depth.dims()
        && a.depth.data() == b.depth.data()
}

fn same_sources(a: &[Source], b: &[Source]) -> bool {
    let bits = |s: &Source| {
        [
            s.centroid.0.to_bits(),
            s.centroid.1.to_bits(),
            s.flux.to_bits(),
            s.peak.to_bits(),
            s.npix as u64,
        ]
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

fn same_output(a: &AstroOutput, b: &AstroOutput) -> bool {
    a.coadds.len() == b.coadds.len()
        && a.coadds
            .iter()
            .zip(&b.coadds)
            .all(|((pa, ca), (pb, cb))| pa == pb && same_coadd(ca, cb))
        && a.catalogs.len() == b.catalogs.len()
        && a.catalogs
            .iter()
            .zip(&b.catalogs)
            .all(|((pa, sa), (pb, sb))| pa == pb && same_sources(sa, sb))
}

fn widths() -> [Parallelism; 5] {
    [
        Parallelism::Serial,
        Parallelism::threads(1),
        Parallelism::threads(2),
        Parallelism::threads(4),
        Parallelism::threads(8),
    ]
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn the_inputs_reach_every_branch() {
    let (mut fallback, mut consts, mut rles, mut bad) = (0, 0, 0, 0);
    for (visits, _) in surveys() {
        for e in visits.iter().flatten() {
            match e.mask.repr() {
                ChunkRepr::Const => consts += 1,
                ChunkRepr::Rle => rles += 1,
                _ => {}
            }
            bad += e.mask.data().iter().filter(|&&m| m & MASK_BAD != 0).count();
            let cal = reference_calibrate_exposure(e, &CalibParams::default());
            let (rows, cols) = e.dims();
            let hit = |r: usize, c: usize| cal.mask.data()[r * cols + c] & MASK_CR != 0;
            for r in 1..rows - 1 {
                for c in 1..cols - 1 {
                    let ring = (r - 1..=r + 1).all(|rr| (c - 1..=c + 1).all(|cc| hit(rr, cc)));
                    fallback += usize::from(ring);
                }
            }
        }
    }
    assert!(fallback > 0, "no pixel took repair's all-flagged fallback");
    assert!(
        consts > 0 && rles > 0,
        "masks packed {consts} Const, {rles} Rle"
    );
    assert!(bad > 0, "no MASK_BAD pixel");
}

#[test]
fn calibration_matches_the_frozen_kernels() {
    let params = CalibParams::default();
    for (visits, _) in surveys() {
        for e in visits.iter().flatten() {
            let want = reference_calibrate_exposure(e, &params);
            let got = calibrate_exposure(e, &params);
            assert!(
                same_exposure(&got, &want),
                "calibration of visit {} sensor {}",
                e.visit,
                e.sensor
            );
        }
    }
}

#[test]
fn repair_matches_the_frozen_kernel_on_dense_flag_maps() {
    let mut rng = Lcg(0xC05);
    for (rows, cols) in [(1usize, 1usize), (1, 7), (5, 1), (9, 13), (23, 17)] {
        for density in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let image = NdArray::from_fn(&[rows, cols], |_| rng.unit() * 1e4 - 2e3);
            let flags = NdArray::from_fn(&[rows, cols], |_| u8::from(rng.unit() < density));
            let mut want = image.clone();
            reference_repair(&mut want, &flags);
            let mut got = image.clone();
            repair(&mut got, &flags);
            assert!(
                same_f64(&got, &want),
                "{rows}x{cols} at flag density {density}"
            );
            let variance = NdArray::from_fn(&[rows, cols], |_| 1.0 + rng.unit() * 400.0);
            for threshold_sigma in [0.0, 0.5, 15.0] {
                let params = CosmicParams { threshold_sigma };
                let want = reference_detect_cosmic_rays(&image, &variance, &params);
                let got = detect_cosmic_rays(&image, &variance, &params);
                assert_eq!(got, want, "{rows}x{cols} flags at {threshold_sigma} sigma");
            }
        }
    }
}

#[test]
fn coadd_and_detection_match_the_frozen_kernels_at_every_width() {
    let (calib, coadd, detect) = (
        CalibParams::default(),
        CoaddParams::default(),
        DetectParams::default(),
    );
    for (visits, grid) in surveys() {
        let calibrated: Vec<Exposure> = visits
            .iter()
            .flatten()
            .map(|e| reference_calibrate_exposure(e, &calib))
            .collect();
        for (patch, pieces) in reference_create_patches(&calibrated, &grid) {
            let patch_box = grid.patch_box(patch);
            let mut by_visit: BTreeMap<u32, Vec<Exposure>> = BTreeMap::new();
            for piece in pieces {
                by_visit.entry(piece.visit).or_default().push(piece);
            }
            // Pack every plane that shrinks, as the engine boundaries may.
            let stack: Vec<Exposure> = by_visit
                .values()
                .map(|pieces| {
                    let e = reference_merge_visit_pieces(&patch_box, pieces);
                    Exposure {
                        mask: e.mask.compressed(),
                        variance: e.variance.compressed(),
                        ..e
                    }
                })
                .collect();
            let want = reference_coadd_sigma_clip_par(&stack, &coadd, Parallelism::Serial);
            let sources = reference_detect_sources_par(&want, &detect, Parallelism::Serial);
            for par in widths() {
                let got = coadd_sigma_clip_par(&stack, &coadd, par);
                assert!(same_coadd(&got, &want), "coadd of {patch:?} at {par:?}");
                let got = detect_sources_par(&want, &detect, par);
                assert!(
                    same_sources(&got, &sources),
                    "detection on {patch:?} at {par:?}"
                );
            }
        }
    }
}

#[test]
fn pipeline_matches_the_frozen_pipeline_at_every_width() {
    let (calib, coadd, detect) = (
        CalibParams::default(),
        CoaddParams::default(),
        DetectParams::default(),
    );
    for (visits, grid) in surveys() {
        let calibrated: Vec<Exposure> = visits
            .iter()
            .flatten()
            .map(|e| reference_calibrate_exposure(e, &calib))
            .collect();
        let want = reference_pipeline_calibrated(
            calibrated.clone(),
            &grid,
            &coadd,
            &detect,
            Parallelism::Serial,
        );
        assert!(want.total_sources() > 0, "the survey yields sources");
        for par in widths() {
            let got = reference_pipeline_par(&visits, &grid, &calib, &coadd, &detect, par);
            assert!(same_output(&got, &want), "full pipeline at {par:?}");
            let got =
                reference_pipeline_calibrated_par(calibrated.clone(), &grid, &coadd, &detect, par);
            assert!(same_output(&got, &want), "Steps 2A-4A at {par:?}");
        }
    }
}

/// The astro kernels read each plane through one slice taken outside
/// their pixel loops: no non-test line indexes a fresh `data()` or
/// `data_mut()` borrow.
#[test]
fn astro_kernels_take_plane_slices_once() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/astro");
    let mut hits = Vec::new();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("astro sources")
        .map(|entry| entry.expect("astro source entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(files.len() >= 7, "found {} astro sources", files.len());
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable source");
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        for (i, line) in code.lines().enumerate() {
            let n = line.matches(".data()[").count() + line.matches(".data_mut()[").count();
            if n > 0 {
                hits.push(format!(
                    "{}:{} ({n}x): {}",
                    path.display(),
                    i + 1,
                    line.trim()
                ));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "indexed plane borrows in non-test astro code:\n{}",
        hits.join("\n")
    );
}
