//! Step 2N — non-local means denoising.
//!
//! A blockwise non-local means filter over a 3-D sliding window (Coupé et
//! al. 2008, the paper's \[7]): each voxel is replaced by a weighted average
//! of voxels in a search window, weighted by the similarity of the small
//! patches around them. The brain mask restricts computation to ~2/3 of the
//! volume — the optimization TensorFlow cannot express (no masked
//! element-wise assignment), which the dataflow engine reproduces.
//!
//! Each patch-pair weight is computed once ([`nlmeans3d_par`]). A voxel is
//! *interior* when every candidate patch of its search window lies inside
//! the volume. An interior weight sums the squared differences
//! `(c_k − q_k)²` of the two patches into four lanes chosen by the
//! patch-offset index `k` alone. IEEE-754 subtraction is exact under
//! negation, so the mirror pair `(q, p)` yields the same squares, in the
//! same lanes and the same order: the same sum, the same `exp`, the same
//! weight. So the kernel runs in two passes over axis-0 planes:
//!
//! 1. For every voxel pair with at least one interior masked voxel, the
//!    weight for each offset `δ` in the positive half of the search window
//!    (13 of 27 offsets at radius 1, 62 of 125 at radius 2), with both
//!    patches read in place.
//! 2. Per masked voxel, the weighted average. An interior voxel `p` reads
//!    its positive-half weights from its own row and its negative-half
//!    weights from the mirror voxel `p + δ`, whose patch is inside because
//!    `p` is interior. The `δ = 0` weight is computed on the spot, and the
//!    weighted sums run in the window's row-major candidate order.
//!
//! Border voxels compute every candidate's weight themselves, as a
//! sequential sum over the patch box clipped per axis to the offsets valid
//! for both the center and the candidate. The scratch is one `f64` per
//! voxel per positive-half offset, allocated once per call: 0.58 MB on a
//! 20×20×14 volume at search radius 1.

use std::cmp::Ordering;

use marray::{window_bounds, Mask, NdArray};
use parexec::{par_chunks_mut, Parallelism};

/// Non-local means parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NlmParams {
    /// Search window radius (voxels).
    pub search_radius: usize,
    /// Patch radius for similarity comparison (voxels).
    pub patch_radius: usize,
    /// Noise standard deviation; weights decay as exp(-d² / h²) with
    /// h = `h_factor · sigma`.
    pub sigma: f64,
    /// Smoothing strength multiplier.
    pub h_factor: f64,
}

impl Default for NlmParams {
    fn default() -> Self {
        NlmParams {
            search_radius: 2,
            patch_radius: 1,
            sigma: 1.0,
            h_factor: 1.0,
        }
    }
}

/// The `(dx, dy, dz)` offsets of a cube of radius `radius`, in the fixed
/// row-major order every distance and weighted sum accumulates in — the
/// order is part of the determinism contract (float sums are
/// order-sensitive).
fn cube(radius: usize) -> Vec<[isize; 3]> {
    let r = radius as isize;
    let mut offsets = Vec::with_capacity((2 * radius + 1).pow(3));
    for dx in -r..=r {
        for dy in -r..=r {
            for dz in -r..=r {
                offsets.push([dx, dy, dz]);
            }
        }
    }
    offsets
}

/// One call's input, geometry and constants, shared read-only by both
/// passes.
struct Nlm<'a> {
    data: &'a [f64],
    mask: Option<&'a Mask>,
    dims: [usize; 3],
    sy: usize,
    sz: usize,
    search_radius: usize,
    patch_radius: usize,
    /// Distance from the volume's faces at which voxels become interior.
    margin: usize,
    h2: f64,
    /// Search-window offsets in row-major order: index `half` is `δ = 0`,
    /// and index `i` mirrors index `2·half − i`.
    window: Vec<[isize; 3]>,
    /// `window` as flat offsets.
    window_flat: Vec<isize>,
    /// Flat offsets of a patch's elements from its first element, in
    /// row-major order: the lane order of an interior distance.
    patch: Vec<usize>,
    /// Flat distance from a patch's first element to its center.
    corner: usize,
}

impl<'a> Nlm<'a> {
    fn new(volume: &'a NdArray<f64>, mask: Option<&'a Mask>, params: &NlmParams) -> Nlm<'a> {
        let d = volume.dims();
        let (sy, sz) = (d[1] * d[2], d[2]);
        let flat = |o: [isize; 3]| o[0] * sy as isize + o[1] * sz as isize + o[2];
        let pr = params.patch_radius as isize;
        let window = cube(params.search_radius);
        Nlm {
            data: volume.data(),
            mask,
            dims: [d[0], d[1], d[2]],
            sy,
            sz,
            search_radius: params.search_radius,
            patch_radius: params.patch_radius,
            margin: params.search_radius + params.patch_radius,
            h2: (params.h_factor * params.sigma).powi(2).max(1e-12),
            window_flat: window.iter().map(|&o| flat(o)).collect(),
            window,
            patch: cube(params.patch_radius)
                .iter()
                .map(|o| flat([o[0] + pr, o[1] + pr, o[2] + pr]) as usize)
                .collect(),
            corner: params.patch_radius * (sy + sz + 1),
        }
    }

    fn masked(&self, v: usize) -> bool {
        self.mask.is_none_or(|m| m.get_flat(v))
    }

    /// Whether the voxel at `c` (possibly outside the volume) is interior:
    /// every candidate patch of its search window lies inside the volume.
    fn interior(&self, c: [isize; 3]) -> bool {
        let m = self.margin as isize;
        (0..3).all(|a| c[a] >= m && c[a] + m < self.dims[a] as isize)
    }

    /// Pass 1 over plane `x`: `plane` holds `half` weights per voxel, one
    /// per positive-half offset. Only pairs with at least one interior
    /// masked voxel are computed; the other slots are never read.
    fn fill_weights(&self, x: usize, plane: &mut [f64]) {
        let half = self.window.len() / 2;
        let positive = half + 1..self.window.len();
        for y in 0..self.dims[1] {
            for z in 0..self.dims[2] {
                let p = x * self.sy + y * self.sz + z;
                let c = [x as isize, y as isize, z as isize];
                let own = self.interior(c) && self.masked(p);
                let row = &mut plane[(y * self.sz + z) * half..][..half];
                for (w, i) in row.iter_mut().zip(positive.clone()) {
                    let d = self.window[i];
                    // `q` may lie off the volume; it is read only once `p`
                    // or `q` is known interior, which puts both inside.
                    let q = (p as isize + self.window_flat[i]) as usize;
                    let mirror = [c[0] + d[0], c[1] + d[1], c[2] + d[2]];
                    if own || (self.interior(mirror) && self.masked(q)) {
                        *w = self.lane_weight(p, q);
                    }
                }
            }
        }
    }

    /// Pass 2 over plane `x`: the denoised value of every masked voxel.
    /// Masked-out voxels keep the input value already in `plane`.
    fn denoise_plane(&self, weights: &[f64], x: usize, plane: &mut [f64]) {
        let half = self.window.len() / 2;
        for y in 0..self.dims[1] {
            for z in 0..self.dims[2] {
                let p = x * self.sy + y * self.sz + z;
                if !self.masked(p) {
                    continue;
                }
                let mut wsum = 0.0;
                let mut vsum = 0.0;
                if self.interior([x as isize, y as isize, z as isize]) {
                    for (i, &d) in self.window_flat.iter().enumerate() {
                        let q = (p as isize + d) as usize;
                        let w = match i.cmp(&half) {
                            Ordering::Less => weights[q * half + half - 1 - i],
                            Ordering::Equal => self.lane_weight(p, p),
                            Ordering::Greater => weights[p * half + i - half - 1],
                        };
                        wsum += w;
                        vsum += w * self.data[q];
                    }
                } else {
                    let sr = self.search_radius;
                    let (x0, x1) = window_bounds(x, sr, self.dims[0]);
                    let (y0, y1) = window_bounds(y, sr, self.dims[1]);
                    let (z0, z1) = window_bounds(z, sr, self.dims[2]);
                    for nx in x0..x1 {
                        for ny in y0..y1 {
                            for nz in z0..z1 {
                                let w = self.border_weight([x, y, z], [nx, ny, nz]);
                                wsum += w;
                                vsum += w * self.data[nx * self.sy + ny * self.sz + nz];
                            }
                        }
                    }
                }
                plane[y * self.sz + z] = vsum / wsum;
            }
        }
    }

    /// The weight of the pair `(p, q)` when both patches lie inside the
    /// volume. Squared differences accumulate in four lanes picked by the
    /// patch-offset index alone, so `(q, p)` gives the same bits.
    fn lane_weight(&self, p: usize, q: usize) -> f64 {
        let pa = &self.data[p - self.corner..];
        let qa = &self.data[q - self.corner..];
        let mut acc = [0.0f64; 4];
        let mut quads = self.patch.chunks_exact(4);
        for o in &mut quads {
            let d0 = pa[o[0]] - qa[o[0]];
            let d1 = pa[o[1]] - qa[o[1]];
            let d2 = pa[o[2]] - qa[o[2]];
            let d3 = pa[o[3]] - qa[o[3]];
            acc[0] += d0 * d0;
            acc[1] += d1 * d1;
            acc[2] += d2 * d2;
            acc[3] += d3 * d3;
        }
        for (lane, &o) in quads.remainder().iter().enumerate() {
            let d = pa[o] - qa[o];
            acc[lane] += d * d;
        }
        let d = ((acc[0] + acc[1]) + (acc[2] + acc[3])) / self.patch.len() as f64;
        (-d / self.h2).exp()
    }

    /// The weight of the pair `(p, q)` when a patch may cross the volume's
    /// faces: one sequential sum over the patch offsets valid for both
    /// voxels, which factor per axis into a clipped box walked in row-major
    /// order.
    fn border_weight(&self, p: [usize; 3], q: [usize; 3]) -> f64 {
        let pr = self.patch_radius;
        // Per axis, how far the box reaches below the voxels, and its length.
        let below = |a: usize| pr.min(p[a]).min(q[a]);
        let len = |a: usize| below(a) + pr.min(self.dims[a] - 1 - p[a].max(q[a])) + 1;
        let (bx, by, bz) = (below(0), below(1), below(2));
        let (nx, ny, nz) = (len(0), len(1), len(2));
        let row = |c: [usize; 3], dx: usize, dy: usize| {
            let start = (c[0] - bx + dx) * self.sy + (c[1] - by + dy) * self.sz + c[2] - bz;
            &self.data[start..start + nz]
        };
        let mut sum = 0.0;
        for dx in 0..nx {
            for dy in 0..ny {
                for (a, b) in row(p, dx, dy).iter().zip(row(q, dx, dy)) {
                    let d = a - b;
                    sum += d * d;
                }
            }
        }
        let d = sum / (nx * ny * nz) as f64;
        (-d / self.h2).exp()
    }
}

/// Denoise one 3-D volume with non-local means, computing only voxels where
/// `mask` is true (masked-out voxels pass through unchanged). Pass `None`
/// to denoise the full volume (the TensorFlow path).
///
/// Single-threaded reference path: identical to
/// [`nlmeans3d_par`] at [`Parallelism::Serial`].
pub fn nlmeans3d(volume: &NdArray<f64>, mask: Option<&Mask>, params: &NlmParams) -> NdArray<f64> {
    nlmeans3d_par(volume, mask, params, Parallelism::Serial)
}

/// [`nlmeans3d`] with explicit intra-node parallelism: both passes (see the
/// module docs) distribute axis-0 planes across `par.workers()` threads.
/// Output is bit-identical at every worker count: plane boundaries are
/// fixed by the volume shape, whether a voxel is interior depends only on
/// its coordinates, every weight and every sum has a fixed accumulation
/// order, and workers only write their own disjoint planes — of the
/// weight scratch in pass 1, of the output in pass 2.
///
/// Scratch: `half × voxels` `f64`s, where `half = ((2·search_radius + 1)³
/// − 1) / 2`, allocated once per call (0.58 MB on a 20×20×14 volume at
/// search radius 1).
// scilint: allow(F003, output starts as a handle clone (refcount bump) and unshares on first write via make_mut)
pub fn nlmeans3d_par(
    volume: &NdArray<f64>,
    mask: Option<&Mask>,
    params: &NlmParams,
    par: Parallelism,
) -> NdArray<f64> {
    assert_eq!(volume.shape().rank(), 3, "nlmeans3d expects a 3-D volume");
    if let Some(m) = mask {
        assert_eq!(m.dims(), volume.dims(), "mask shape must match volume");
    }
    let mut out = volume.clone();
    let nlm = Nlm::new(volume, mask, params);
    if nlm.sy == 0 {
        return out;
    }
    let half = nlm.window.len() / 2;
    let mut weights = vec![0.0f64; half * volume.len()];
    if half > 0 {
        par_chunks_mut(&mut weights, half * nlm.sy, par, |x, plane| {
            nlm.fill_weights(x, plane);
        });
    }
    par_chunks_mut(out.data_mut(), nlm.sy, par, |x, plane| {
        nlm.denoise_plane(&weights, x, plane);
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_constant(seed: u64, level: f64, noise: f64) -> NdArray<f64> {
        let mut state = seed;
        NdArray::from_fn(&[6, 6, 6], |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            level + noise * u
        })
    }

    #[test]
    fn reduces_noise_on_constant_region() {
        let v = noisy_constant(7, 100.0, 5.0);
        let params = NlmParams {
            sigma: 5.0,
            ..Default::default()
        };
        let d = nlmeans3d(&v, None, &params);
        let noise_before = v.map(|x| x - 100.0).std();
        let noise_after = d.map(|x| x - 100.0).std();
        assert!(
            noise_after < 0.6 * noise_before,
            "noise {noise_after} not reduced from {noise_before}"
        );
    }

    #[test]
    fn preserves_strong_edges() {
        // Two constant halves with a large step; NLM should keep the step.
        let v = NdArray::from_fn(&[6, 6, 6], |ix| if ix[0] < 3 { 0.0 } else { 1000.0 });
        let params = NlmParams {
            sigma: 1.0,
            ..Default::default()
        };
        let d = nlmeans3d(&v, None, &params);
        assert!(d[&[0, 3, 3][..]] < 1.0);
        assert!(d[&[5, 3, 3][..]] > 999.0);
    }

    #[test]
    fn masked_voxels_pass_through() {
        let v = noisy_constant(13, 50.0, 5.0);
        let mask = Mask::from_vec(v.dims(), (0..v.len()).map(|i| i % 2 == 0).collect()).unwrap();
        let params = NlmParams {
            sigma: 5.0,
            ..Default::default()
        };
        let d = nlmeans3d(&v, Some(&mask), &params);
        for i in 0..v.len() {
            if !mask.get_flat(i) {
                assert_eq!(d.data()[i], v.data()[i], "masked-out voxel {i} changed");
            }
        }
    }

    #[test]
    fn masked_result_matches_unmasked_on_selected_voxels() {
        let v = noisy_constant(29, 10.0, 2.0);
        let full_mask = Mask::from_vec(v.dims(), vec![true; v.len()]).unwrap();
        let params = NlmParams {
            sigma: 2.0,
            ..Default::default()
        };
        let a = nlmeans3d(&v, None, &params);
        let b = nlmeans3d(&v, Some(&full_mask), &params);
        assert_eq!(a, b);
    }

    #[test]
    fn constant_volume_is_fixed_point() {
        let v = NdArray::<f64>::full(&[5, 5, 5], 42.0);
        let d = nlmeans3d(&v, None, &NlmParams::default());
        for &x in d.data() {
            assert!((x - 42.0).abs() < 1e-9);
        }
    }

    #[test]
    fn interior_fast_path_is_bit_identical_across_workers() {
        // Volume large enough that interior voxels read mirrored lane
        // weights while border voxels keep the clipped-box path
        // (margin = search_radius + patch_radius = 3, so x in 3..7 etc.).
        let mut state = 99u64;
        let v = NdArray::from_fn(&[10, 9, 8], |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            60.0 + 8.0 * (((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
        });
        let params = NlmParams {
            sigma: 4.0,
            ..Default::default()
        };
        let serial = nlmeans3d_par(&v, None, &params, Parallelism::Serial);
        for workers in [1usize, 2, 4, 8] {
            let par = nlmeans3d_par(&v, None, &params, Parallelism::threads(workers));
            assert_eq!(serial, par, "workers={workers}");
        }
    }

    #[test]
    fn parallel_output_is_bit_identical() {
        let v = noisy_constant(41, 80.0, 6.0);
        let mask = Mask::from_vec(v.dims(), (0..v.len()).map(|i| i % 3 != 0).collect()).unwrap();
        let params = NlmParams {
            sigma: 6.0,
            ..Default::default()
        };
        let serial = nlmeans3d_par(&v, Some(&mask), &params, Parallelism::Serial);
        for workers in [1usize, 2, 4, 8] {
            let par = nlmeans3d_par(&v, Some(&mask), &params, Parallelism::threads(workers));
            assert_eq!(serial, par, "workers={workers}");
        }
    }
}
