//! Step 4A — source detection.
//!
//! Detects sources in a coadd: estimate and subtract the residual
//! background, threshold at `n_sigma` above the per-pixel noise, label the
//! 8-connected pixel clusters, and measure each cluster's centroid, total
//! flux and peak.

use crate::astro::background::{estimate_background_par, BackgroundParams};
use crate::astro::coadd::Coadd;
use marray::NdArray;
use parexec::{par_chunks_mut, par_map_slabs, Parallelism};

/// Detection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectParams {
    /// Detection threshold in units of the per-pixel noise sigma.
    pub n_sigma: f64,
    /// Minimum cluster size in pixels.
    pub min_pixels: usize,
    /// Background mesh used for residual background removal.
    pub background: BackgroundParams,
}

impl Default for DetectParams {
    fn default() -> Self {
        DetectParams {
            n_sigma: 5.0,
            min_pixels: 3,
            background: BackgroundParams::default(),
        }
    }
}

/// One detected source.
#[derive(Debug, Clone, PartialEq)]
pub struct Source {
    /// Flux-weighted centroid in global sky coordinates (x, y).
    pub centroid: (f64, f64),
    /// Total background-subtracted flux in the cluster.
    pub flux: f64,
    /// Peak pixel value.
    pub peak: f64,
    /// Cluster size in pixels.
    pub npix: usize,
}

/// Union-find over pixel labels.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: vec![0] } // label 0 = background sentinel
    }
    fn make(&mut self) -> u32 {
        // scilint: allow(N002, label count is bounded by the pixel count of one patch and cannot reach u32::MAX)
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

/// Detect sources in a coadd. Centroids are reported in global sky
/// coordinates using the coadd's bbox origin.
pub fn detect_sources(coadd: &Coadd, params: &DetectParams) -> Vec<Source> {
    detect_sources_par(coadd, params, Parallelism::Serial)
}

/// [`detect_sources`] with explicit intra-node parallelism: the background
/// mesh, the residual subtraction, and the per-pixel threshold map are all
/// computed row-parallel across `par.workers()` threads; the connected-
/// component labeling stays serial (its scan order is part of the label
/// semantics). Output is bit-identical at every worker count.
pub fn detect_sources_par(coadd: &Coadd, params: &DetectParams, par: Parallelism) -> Vec<Source> {
    let (rows, cols) = (coadd.flux.dims()[0], coadd.flux.dims()[1]);
    let bg = estimate_background_par(&coadd.flux, &params.background, par);
    // The residual image, written into a fresh plane: subtracting in place
    // from a handle clone of the coadd flux would copy it first.
    let mut residual = NdArray::<f64>::zeros(&[rows, cols]);
    let (flux, bg) = (coadd.flux.data(), bg.data());
    if cols > 0 {
        par_chunks_mut(residual.data_mut(), cols, par, |r, row| {
            let span = r * cols..(r + 1) * cols;
            for ((v, &f), &b) in row.iter_mut().zip(&flux[span.clone()]).zip(&bg[span]) {
                *v = f - b;
            }
        });
    }
    let (sub, variance) = (residual.data(), coadd.variance.data());

    // Per-pixel significance threshold from the coadd variance.
    let row_ids: Vec<usize> = (0..rows).collect();
    let above: Vec<bool> = par_map_slabs(&row_ids, par, |_, &r| {
        let mut row = vec![false; cols];
        for (c, flag) in row.iter_mut().enumerate() {
            let p = r * cols + c;
            let sigma = variance[p].max(1e-12).sqrt();
            *flag = sub[p] > params.n_sigma * sigma;
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

    // Second pass: resolve labels, accumulate measurements. BTreeMap keeps
    // accumulation order label-sorted, independent of any hash seed.
    use std::collections::BTreeMap;
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
            let v = sub[p].max(0.0);
            let acc = clusters.entry(root).or_default();
            acc.flux += v;
            acc.peak = acc.peak.max(sub[p]);
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
    // Deterministic order: brightest first, ties by position. total_cmp is
    // a total order, so NaN flux cannot panic the sort.
    sources.sort_by(|a, b| {
        b.flux
            .total_cmp(&a.flux)
            .then(a.centroid.0.total_cmp(&b.centroid.0))
    });
    sources
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astro::geometry::SkyBox;

    fn coadd_with_sources(positions: &[(usize, usize)], amp: f64) -> Coadd {
        let flux = NdArray::from_fn(&[48, 48], |ix| {
            let mut v = 100.0; // residual background
            for &(r, c) in positions {
                let dr = ix[0] as f64 - r as f64;
                let dc = ix[1] as f64 - c as f64;
                v += amp * (-(dr * dr + dc * dc) / 4.0).exp();
            }
            v
        });
        Coadd {
            bbox: SkyBox {
                x0: 1000,
                y0: 2000,
                width: 48,
                height: 48,
            },
            variance: NdArray::full(&[48, 48], 1.0),
            depth: NdArray::full(&[48, 48], 10),
            flux,
        }
    }

    #[test]
    fn finds_isolated_sources_at_positions() {
        let coadd = coadd_with_sources(&[(12, 12), (34, 30)], 500.0);
        let sources = detect_sources(&coadd, &DetectParams::default());
        assert_eq!(sources.len(), 2, "expected 2 sources, got {sources:?}");
        // Centroids are in global coordinates near the injected spots.
        for s in &sources {
            let local = (s.centroid.0 - 1000.0, s.centroid.1 - 2000.0);
            let near_a = (local.0 - 12.0).abs() < 1.5 && (local.1 - 12.0).abs() < 1.5;
            let near_b = (local.0 - 30.0).abs() < 1.5 && (local.1 - 34.0).abs() < 1.5;
            assert!(
                near_a || near_b,
                "centroid {local:?} matches no injected source"
            );
        }
    }

    #[test]
    fn empty_sky_detects_nothing() {
        let coadd = coadd_with_sources(&[], 0.0);
        assert!(detect_sources(&coadd, &DetectParams::default()).is_empty());
    }

    #[test]
    fn touching_pixels_form_one_source() {
        let coadd = coadd_with_sources(&[(20, 20)], 800.0);
        let sources = detect_sources(&coadd, &DetectParams::default());
        assert_eq!(sources.len(), 1, "PSF blob fragmented: {sources:?}");
        assert!(sources[0].npix >= 3);
    }

    #[test]
    fn min_pixels_filters_specks() {
        let mut coadd = coadd_with_sources(&[], 0.0);
        coadd.flux[&[5, 5][..]] = 10_000.0; // 1-pixel spike
        let sources = detect_sources(
            &coadd,
            &DetectParams {
                min_pixels: 3,
                ..Default::default()
            },
        );
        assert!(sources.is_empty());
        let loose = detect_sources(
            &coadd,
            &DetectParams {
                min_pixels: 1,
                ..Default::default()
            },
        );
        assert_eq!(loose.len(), 1);
    }

    #[test]
    fn parallel_detection_is_bit_identical() {
        let coadd = coadd_with_sources(&[(12, 12), (34, 30), (8, 40)], 600.0);
        let params = DetectParams::default();
        let serial = detect_sources_par(&coadd, &params, Parallelism::Serial);
        for workers in [1usize, 2, 4, 8] {
            let par = detect_sources_par(&coadd, &params, Parallelism::threads(workers));
            assert_eq!(serial, par, "workers={workers}");
        }
    }

    #[test]
    fn brighter_source_sorts_first() {
        let mut coadd = coadd_with_sources(&[(10, 10)], 300.0);
        let bright = coadd_with_sources(&[(35, 35)], 900.0);
        // Merge: add the bright source into the same image.
        coadd.flux = coadd
            .flux
            .zip_with(&bright.flux, |a, b| a + b - 100.0)
            .unwrap();
        let sources = detect_sources(&coadd, &DetectParams::default());
        assert_eq!(sources.len(), 2);
        assert!(sources[0].flux > sources[1].flux);
    }
}
