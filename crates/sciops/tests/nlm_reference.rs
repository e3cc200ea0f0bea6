//! Frozen oracle for the non-local-means kernel.
//!
//! `reference_nlmeans3d` below is the gather-per-candidate kernel that
//! `nlmeans3d_par` replaced, kept verbatim: every weight computed for both
//! voxels of a pair, each candidate patch copied out row by row, and border
//! voxels bounds-checked at every patch offset. The shipped kernel computes
//! each interior pair's weight once, reads patches in place and walks a
//! clipped patch box at the border; these properties pin it to the old
//! output bit for bit, at every worker count, for `nlmeans3d_par` and for
//! the per-volume fan-out of `denoise_all_par`.

use marray::{window_bounds, Mask, NdArray};
use parexec::{par_chunks_mut, Parallelism};
use proptest::prelude::*;
use sciops::neuro::pipeline::denoise_all_par;
use sciops::neuro::{nlmeans3d_par, NlmParams};

fn patch_offsets(radius: usize) -> Vec<[isize; 3]> {
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

#[inline]
fn inside(dims: &[usize; 3], x: isize, y: isize, z: isize) -> bool {
    x >= 0
        && y >= 0
        && z >= 0
        && (x as usize) < dims[0]
        && (y as usize) < dims[1]
        && (z as usize) < dims[2]
}

fn reference_nlmeans3d(
    volume: &NdArray<f64>,
    mask: Option<&Mask>,
    params: &NlmParams,
    par: Parallelism,
) -> NdArray<f64> {
    assert_eq!(volume.shape().rank(), 3, "nlmeans3d expects a 3-D volume");
    if let Some(m) = mask {
        assert_eq!(m.dims(), volume.dims(), "mask shape must match volume");
    }
    let dims = [volume.dims()[0], volume.dims()[1], volume.dims()[2]];
    let data = volume.data();
    let (sy, sz) = (dims[1] * dims[2], dims[2]);
    let h2 = (params.h_factor * params.sigma).powi(2).max(1e-12);
    let offsets = patch_offsets(params.patch_radius);
    let mut out = volume.clone();
    if sy == 0 {
        return out;
    }

    let pr = params.patch_radius;
    let margin = params.search_radius + pr;
    let pw = 2 * pr + 1;
    let n_off = offsets.len();

    par_chunks_mut(out.data_mut(), sy, par, |x, plane| {
        // Per-worker scratch: the center-patch cache, gathered once per
        // voxel and reused for every search-window candidate, plus a
        // candidate-patch buffer for the interior fast path.
        let mut center_vals = vec![0.0f64; n_off];
        let mut center_ok = vec![false; n_off];
        let mut cand_vals = vec![0.0f64; n_off];
        let x_interior = x >= margin && x + margin < dims[0];
        for y in 0..dims[1] {
            for z in 0..dims[2] {
                let plane_off = y * sz + z;
                let off = x * sy + plane_off;
                if let Some(m) = mask {
                    if !m.get_flat(off) {
                        continue;
                    }
                }
                // Interior fast path: when every candidate patch is fully
                // inside the volume, patches are gathered as contiguous
                // z-lanes (no per-offset bounds checks) and the distance
                // accumulates in a fixed 4-wide unrolled accumulator whose
                // lane assignment depends only on the flat offset index —
                // the summation order is a pure function of the voxel
                // coordinates, so output stays bit-identical at every
                // worker count.
                if x_interior
                    && y >= margin
                    && y + margin < dims[1]
                    && z >= margin
                    && z + margin < dims[2]
                {
                    let mut k = 0;
                    for dx in 0..pw {
                        for dy in 0..pw {
                            let base = (x + dx - pr) * sy + (y + dy - pr) * sz + (z - pr);
                            center_vals[k..k + pw].copy_from_slice(&data[base..base + pw]);
                            k += pw;
                        }
                    }
                    let (x0, x1) = window_bounds(x, params.search_radius, dims[0]);
                    let (y0, y1) = window_bounds(y, params.search_radius, dims[1]);
                    let (z0, z1) = window_bounds(z, params.search_radius, dims[2]);
                    let mut wsum = 0.0;
                    let mut vsum = 0.0;
                    for nx in x0..x1 {
                        for ny in y0..y1 {
                            for nz in z0..z1 {
                                let mut k = 0;
                                for dx in 0..pw {
                                    for dy in 0..pw {
                                        let base =
                                            (nx + dx - pr) * sy + (ny + dy - pr) * sz + (nz - pr);
                                        cand_vals[k..k + pw]
                                            .copy_from_slice(&data[base..base + pw]);
                                        k += pw;
                                    }
                                }
                                let mut acc = [0.0f64; 4];
                                let mut j = 0;
                                while j + 4 <= n_off {
                                    let d0 = center_vals[j] - cand_vals[j];
                                    let d1 = center_vals[j + 1] - cand_vals[j + 1];
                                    let d2 = center_vals[j + 2] - cand_vals[j + 2];
                                    let d3 = center_vals[j + 3] - cand_vals[j + 3];
                                    acc[0] += d0 * d0;
                                    acc[1] += d1 * d1;
                                    acc[2] += d2 * d2;
                                    acc[3] += d3 * d3;
                                    j += 4;
                                }
                                while j < n_off {
                                    let d = center_vals[j] - cand_vals[j];
                                    acc[j % 4] += d * d;
                                    j += 1;
                                }
                                let sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
                                let d = sum / n_off as f64;
                                let w = (-d / h2).exp();
                                wsum += w;
                                vsum += w * data[nx * sy + ny * sz + nz];
                            }
                        }
                    }
                    plane[plane_off] = vsum / wsum;
                    continue;
                }
                for (k, o) in offsets.iter().enumerate() {
                    let ax = x as isize + o[0];
                    let ay = y as isize + o[1];
                    let az = z as isize + o[2];
                    let ok = inside(&dims, ax, ay, az);
                    center_ok[k] = ok;
                    center_vals[k] = if ok {
                        data[ax as usize * sy + ay as usize * sz + az as usize]
                    } else {
                        0.0
                    };
                }
                let (x0, x1) = window_bounds(x, params.search_radius, dims[0]);
                let (y0, y1) = window_bounds(y, params.search_radius, dims[1]);
                let (z0, z1) = window_bounds(z, params.search_radius, dims[2]);
                let mut wsum = 0.0;
                let mut vsum = 0.0;
                for nx in x0..x1 {
                    for ny in y0..y1 {
                        for nz in z0..z1 {
                            // Patch distance against the cached center
                            // patch, accumulated in the fixed offset order.
                            let mut sum = 0.0;
                            let mut count = 0usize;
                            for (k, o) in offsets.iter().enumerate() {
                                if !center_ok[k] {
                                    continue;
                                }
                                let bx = nx as isize + o[0];
                                let by = ny as isize + o[1];
                                let bz = nz as isize + o[2];
                                if inside(&dims, bx, by, bz) {
                                    let vb =
                                        data[bx as usize * sy + by as usize * sz + bz as usize];
                                    let d = center_vals[k] - vb;
                                    sum += d * d;
                                    count += 1;
                                }
                            }
                            let d = if count == 0 { 0.0 } else { sum / count as f64 };
                            let w = (-d / h2).exp();
                            wsum += w;
                            vsum += w * data[nx * sy + ny * sz + nz];
                        }
                    }
                }
                plane[plane_off] = vsum / wsum;
            }
        }
    });
    out
}

/// A mask over `dims`: absent, full, or random at a drawn density.
fn make_mask(dims: &[usize], kind: u8, density: u64, mut state: u64) -> Option<Mask> {
    let n: usize = dims.iter().product();
    let bits = match kind {
        0 => return None,
        1 => vec![true; n],
        _ => (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % 8 < density
            })
            .collect(),
    };
    Some(Mask::from_vec(dims, bits).expect("mask dims match"))
}

fn same_bits(a: &NdArray<f64>, b: &NdArray<f64>) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A volume of `1..=12` voxels per axis (times `vols` volumes along a
/// fourth axis when `vols > 0`) with values on a scale comparable to the
/// drawn sigma, so weights span the whole `(0, 1]` range.
fn arrays(vols: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = NdArray<f64>> {
    (1usize..=12, 1usize..=12, 1usize..=12, vols).prop_flat_map(|(x, y, z, v)| {
        let dims: Vec<usize> = if v == 0 {
            vec![x, y, z]
        } else {
            vec![x, y, z, v]
        };
        let n = x * y * z * v.max(1);
        prop::collection::vec(0.0f64..100.0, n)
            .prop_map(move |data| NdArray::from_vec(&dims, data).expect("dims match data"))
    })
}

fn params() -> impl Strategy<Value = NlmParams> {
    (0usize..=2, 0usize..=2, 0.5f64..60.0, 0.5f64..2.0).prop_map(
        |(search_radius, patch_radius, sigma, h_factor)| NlmParams {
            search_radius,
            patch_radius,
            sigma,
            h_factor,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nlmeans3d_par_matches_frozen_kernel(
        v in arrays(0..=0),
        p in params(),
        (kind, density, seed) in (0u8..3, 1u64..8, any::<u64>()),
    ) {
        let mask = make_mask(v.dims(), kind, density, seed);
        let want = reference_nlmeans3d(&v, mask.as_ref(), &p, Parallelism::Serial);
        let widths = [
            Parallelism::Serial,
            Parallelism::threads(1),
            Parallelism::threads(2),
            Parallelism::threads(4),
            Parallelism::threads(8),
        ];
        for par in widths {
            let got = nlmeans3d_par(&v, mask.as_ref(), &p, par);
            prop_assert!(
                same_bits(&got, &want),
                "dims {:?}, {:?}, mask kind {kind}, {par:?}",
                v.dims(),
                p
            );
        }
    }

    #[test]
    fn denoise_all_par_matches_frozen_kernel(
        data in arrays(1..=3),
        p in params(),
        (full, density, seed) in (any::<bool>(), 1u64..8, any::<u64>()),
    ) {
        let dims3 = &data.dims()[..3];
        let mask = make_mask(dims3, if full { 1 } else { 2 }, density, seed)
            .expect("denoise_all takes a mask");
        let per_volume: Vec<NdArray<f64>> = (0..data.dims()[3])
            .map(|v| {
                let vol = data.slice_axis(3, v).expect("volume index in range");
                let den = reference_nlmeans3d(&vol, Some(&mask), &p, Parallelism::Serial);
                den.reshape(&[dims3[0], dims3[1], dims3[2], 1]).expect("same element count")
            })
            .collect();
        let refs: Vec<&NdArray<f64>> = per_volume.iter().collect();
        let want = NdArray::concat(&refs, 3).expect("volumes share spatial dims");
        for workers in [1usize, 2, 4] {
            let got = denoise_all_par(&data, &mask, &p, Parallelism::threads(workers));
            prop_assert!(
                same_bits(&got, &want),
                "dims {:?}, {:?}, workers {workers}",
                data.dims(),
                p
            );
        }
    }
}
