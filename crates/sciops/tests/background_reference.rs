//! Frozen oracle for the background-mesh kernels.
//!
//! `reference_median`, `reference_sigma_clipped_median`,
//! `reference_sigma_clipped_mean` and `reference_estimate_background` below
//! are the kernels that selection-based medians, the shared in-place
//! clipping loop and the once-per-call column weights replaced, kept
//! verbatim: a full sort per median, a filtered copy per clipping round,
//! and the interpolation weights recomputed at every pixel. These tests pin
//! the shipped kernels to them bit for bit, on adversarial slices and on
//! survey planes at every worker count.

use marray::NdArray;
use parexec::{par_chunks_mut, par_map_slabs, Parallelism};
use sciops::astro::{estimate_background_par, BackgroundParams};
use sciops::stats::{median, sigma_clipped_mean, sigma_clipped_median};
use sciops::synth::sky::{SkySpec, SkySurvey};

fn reference_median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mid = values.len() / 2;
    values.sort_unstable_by(f64::total_cmp);
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

fn reference_mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn reference_clip(values: &[f64], kappa: f64, iterations: usize) -> Vec<f64> {
    let mut kept: Vec<f64> = values.to_vec();
    for _ in 0..iterations {
        if kept.len() <= 1 {
            break;
        }
        let (mean, std) = reference_mean_std(&kept);
        if std == 0.0 {
            break;
        }
        let next: Vec<f64> = kept
            .iter()
            .copied()
            .filter(|v| (v - mean).abs() <= kappa * std)
            .collect();
        if next.is_empty() || next.len() == kept.len() {
            break;
        }
        kept = next;
    }
    kept
}

fn reference_sigma_clipped_mean(values: &[f64], kappa: f64, iterations: usize) -> f64 {
    reference_mean_std(&reference_clip(values, kappa, iterations)).0
}

fn reference_sigma_clipped_median(values: &[f64], kappa: f64, iterations: usize) -> f64 {
    reference_median(&mut reference_clip(values, kappa, iterations))
}

fn reference_estimate_background(
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
            *slot =
                reference_sigma_clipped_median(&cell_values, params.kappa, params.clip_iterations);
        }
        mesh_row
    })
    .into_iter()
    .flatten()
    .collect();

    let mut out = NdArray::zeros(&[rows, cols]);
    let center = |m: usize| (m * cell) as f64 + (cell as f64 - 1.0) / 2.0;
    if cols == 0 {
        return out;
    }
    par_chunks_mut(out.data_mut(), cols, par, |r, out_row| {
        let fr = if mesh_rows == 1 {
            0.0
        } else {
            (((r as f64) - center(0)) / cell as f64).clamp(0.0, (mesh_rows - 1) as f64)
        };
        let mr0 = fr.floor() as usize;
        let mr1 = (mr0 + 1).min(mesh_rows - 1);
        let tr = fr - mr0 as f64;
        for (c, slot) in out_row.iter_mut().enumerate() {
            let fc = if mesh_cols == 1 {
                0.0
            } else {
                (((c as f64) - center(0)) / cell as f64).clamp(0.0, (mesh_cols - 1) as f64)
            };
            let mc0 = fc.floor() as usize;
            let mc1 = (mc0 + 1).min(mesh_cols - 1);
            let tc = fc - mc0 as f64;
            let v00 = mesh[mr0 * mesh_cols + mc0];
            let v01 = mesh[mr0 * mesh_cols + mc1];
            let v10 = mesh[mr1 * mesh_cols + mc0];
            let v11 = mesh[mr1 * mesh_cols + mc1];
            let top = v00 * (1.0 - tc) + v01 * tc;
            let bottom = v10 * (1.0 - tc) + v11 * tc;
            *slot = top * (1.0 - tr) + bottom * tr;
        }
    });
    out
}

/// Equal bit for bit, or both NaN: `0.5 * (a + b)` of two NaNs keeps an
/// unspecified payload, in the frozen kernel as well.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// A deterministic stream of slices of length 0–40 drawn from a pool that
/// forces ties, signed zeros, infinities and NaNs of both signs next to
/// ordinary and wide-ranging values.
struct Slices {
    state: u64,
}

impl Slices {
    fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 11
    }

    fn value(&mut self) -> f64 {
        let r = self.next_u64();
        match r % 16 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5 => -f64::NAN,
            6..=9 => ((r >> 8) % 5) as f64,
            10 | 11 => ((r >> 8) % 2001) as f64 / 100.0 - 10.0,
            _ => f64::from_bits(r >> 8 | 0x3FF0_0000_0000_0000) * 1e3 - 1.5e3,
        }
    }

    fn slice(&mut self, specials: bool) -> Vec<f64> {
        let len = (self.next_u64() % 41) as usize;
        (0..len)
            .map(|_| loop {
                let v = self.value();
                if specials || v.is_finite() {
                    break v;
                }
            })
            .collect()
    }
}

#[test]
fn order_statistics_match_the_frozen_kernels() {
    let mut slices = Slices { state: 0x5EED };
    for i in 0..40_000 {
        // Half the slices are finite only, so clipping actually clips.
        let v = slices.slice(i % 2 == 0);
        let (want, got) = (reference_median(&mut v.clone()), median(&mut v.clone()));
        assert!(same(got, want), "median of {v:?}: {got} vs {want}");
        for (kappa, iterations) in [(3.0, 2), (1.0, 3), (0.5, 1), (2.0, 0)] {
            let want = reference_sigma_clipped_median(&v, kappa, iterations);
            let got = sigma_clipped_median(&v, kappa, iterations);
            assert!(
                same(got, want),
                "clipped median of {v:?} at kappa {kappa}, {iterations} rounds: {got} vs {want}"
            );
            let want = reference_sigma_clipped_mean(&v, kappa, iterations);
            let got = sigma_clipped_mean(&v, kappa, iterations);
            assert!(
                same(got, want),
                "clipped mean of {v:?} at kappa {kappa}, {iterations} rounds: {got} vs {want}"
            );
        }
    }
}

fn assert_background_matches(spec: &SkySpec, seed: u64) {
    let survey = SkySurvey::generate(seed, spec);
    for exposure in survey.visits.iter().flatten() {
        for cell_size in [5usize, 8, 16, 100] {
            let params = BackgroundParams {
                cell_size,
                ..Default::default()
            };
            let want = reference_estimate_background(&exposure.flux, &params, Parallelism::Serial);
            for workers in [1usize, 2, 4] {
                let got =
                    estimate_background_par(&exposure.flux, &params, Parallelism::threads(workers));
                assert!(
                    got.dims() == want.dims()
                        && got
                            .data()
                            .iter()
                            .zip(want.data())
                            .all(|(a, b)| same(*a, *b)),
                    "visit {} sensor {}: cell {cell_size}, {workers} workers",
                    exposure.visit,
                    exposure.sensor
                );
            }
        }
    }
}

#[test]
fn background_matches_the_frozen_kernel_at_test_scale() {
    assert_background_matches(&SkySpec::test_scale(), 7);
}

#[test]
fn background_matches_the_frozen_kernel_on_the_suite_sensor() {
    let spec = SkySpec {
        sensor_width: 112,
        sensor_height: 112,
        n_visits: 8,
        n_sources: 60,
        cosmic_rays_per_sensor: 4,
        patch_size: 64,
        ..SkySpec::test_scale()
    };
    assert_background_matches(&spec, 1);
}
