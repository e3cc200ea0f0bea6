//! Eager astronomy implementations.
//!
//! As in the paper: Spark and Myria run the full pipeline (reusing the
//! reference kernels as UDFs); SciDB expresses co-addition in native
//! array operations (the 180-LoC AQL program's structure); Dask's
//! implementation froze on the cluster and is therefore not provided
//! (see [`DASK_ASTRO_STATUS`]); TensorFlow cannot express the use case.

use crate::costmodel::{pack_for_boundary, PlaneKind};
use engine_rdd::SparkContext;
use engine_rel::{MyriaConnection, Query, Schema, Value, ValueType};
use marray::NdArray;
use sciops::astro::geometry::{Exposure, PatchId, SkyBox};
use sciops::astro::pipeline::merge_visit_pieces;
use sciops::astro::{
    calibrate_exposure, coadd_sigma_clip, detect_sources, CalibParams, CoaddParams, DetectParams,
    Source,
};
use sciops::synth::sky::SkySurvey;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Why there are no Dask results for astronomy (the paper, §4.4):
/// "the implementation freezes once deployed on a cluster and we found it
/// surprisingly difficult to track down the cause of the problem. Hence,
/// we do not report performance numbers for the second use case."
pub const DASK_ASTRO_STATUS: &str = "not runnable (implementation froze on the cluster)";

/// Results: coadd flux and catalog per patch.
pub struct AstroResult {
    /// Coadded flux per patch.
    pub coadd_flux: BTreeMap<PatchId, NdArray<f64>>,
    /// Detected sources per patch.
    pub catalogs: BTreeMap<PatchId, Vec<Source>>,
}

/// Choose chunk representations for an exposure's planes at an engine
/// ingest boundary: the cost-model heuristic
/// ([`crate::costmodel::choose_repr`]) packs the mask and any
/// sufficiently runny variance plane, while noisy flux stays dense. The
/// clone is a refcount bump when the heuristic declines, an encoded
/// (smaller) buffer when it packs — downstream kernels' run-level fast
/// paths consume the encoded forms directly. Under an active memory
/// budget ([`marray::mem_budget`]) each plane additionally enters the
/// governor's spill tier ([`crate::costmodel::govern_for_boundary`]), so
/// an ingested working set larger than the budget degrades to spill I/O
/// instead of exhausting memory.
fn pack_exposure(e: &Exposure) -> Exposure {
    let plane = |arr: &NdArray<f64>, kind: PlaneKind| {
        let packed = pack_for_boundary(arr, kind).unwrap_or_else(|| arr.clone());
        crate::costmodel::govern_for_boundary(&packed).unwrap_or(packed)
    };
    let mask = pack_for_boundary(&e.mask, PlaneKind::Mask).unwrap_or_else(|| e.mask.clone());
    Exposure {
        visit: e.visit,
        sensor: e.sensor,
        bbox: e.bbox,
        flux: plane(&e.flux, PlaneKind::Flux),
        variance: plane(&e.variance, PlaneKind::Variance),
        mask: crate::costmodel::govern_for_boundary(&mask).unwrap_or(mask),
    }
}

/// Re-type an exposure's u8 mask plane into the engine's f64 blob column.
///
/// This is the only genuinely required copy on the way into the relational
/// engine (§5.3's format-conversion boundary): the f64 flux and variance
/// planes travel as shared chunk handles, but the u8 mask has no f64
/// representation to share, so its conversion is recorded under the
/// sanctioned `myria.pack-blob` tag.
// scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
fn mask_to_blob(mask: &NdArray<u8>) -> Value {
    marray::CopyCounter::record("myria.pack-blob", mask.len() * 8);
    let blob = NdArray::from_vec(mask.dims(), mask.data().iter().map(|&m| m as f64).collect())
        .expect("mask plane");
    // The freshly re-typed mask is the runniest plane in the pipeline:
    // pack it so the blob column crosses worker boundaries at its
    // encoded size.
    let blob = pack_for_boundary(&blob, PlaneKind::Mask).unwrap_or(blob);
    Value::blob(blob)
}

/// Inverse of [`mask_to_blob`] — the matching required copy on the way out.
// scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
fn blob_to_mask(blob: &NdArray<f64>) -> NdArray<u8> {
    marray::CopyCounter::record("myria.unpack-blob", blob.len());
    NdArray::from_vec(blob.dims(), blob.data().iter().map(|&v| v as u8).collect())
        .expect("mask plane")
}

/// Ship a freshly computed exposure out of a UDF: the owned f64 planes
/// move into their blob columns untouched; only the mask pays the
/// re-typing copy.
fn exposure_to_blobs(e: Exposure) -> (Value, Value, Value) {
    let mask = mask_to_blob(&e.mask);
    (Value::blob(e.flux), Value::blob(e.variance), mask)
}

/// Rebuild an [`Exposure`] from its three blob columns. The flux/variance
/// clones are refcount bumps, not the per-plane deep copies Myria's blob
/// deserialization pays on every UDF call.
// scilint: allow(F003, engine ingest boundary: blobs enter the engine's own tuple store, a materializing copy by contract)
fn exposure_from_blobs(
    flux: &Value,
    variance: &Value,
    mask: &Value,
    visit: u32,
    sensor: u32,
    bbox: SkyBox,
) -> Exposure {
    Exposure {
        visit,
        sensor,
        bbox,
        flux: flux.as_blob().as_ref().clone(),
        variance: variance.as_blob().as_ref().clone(),
        mask: blob_to_mask(mask.as_blob()),
    }
}

/// Shared parameters (matching the reference pipeline).
pub fn astro_params() -> (CalibParams, CoaddParams, DetectParams) {
    (
        CalibParams::default(),
        CoaddParams::default(),
        DetectParams::default(),
    )
}

// ---------------------------------------------------------------------------
// Spark
// ---------------------------------------------------------------------------

/// Run the full astronomy pipeline on the Spark analog.
// scilint: allow(F003, engine ingest boundary: blobs enter the engine's own tuple store, a materializing copy by contract)
pub fn spark(survey: &SkySurvey, partitions: usize) -> AstroResult {
    let sc = SparkContext::new(128);
    let grid = Arc::new(survey.patch_grid());
    let (calib, coadd_p, detect_p) = astro_params();

    let records: Vec<(u32, Arc<Exposure>)> = survey
        .visits
        .iter()
        .flatten()
        .map(|e| (e.visit, Arc::new(pack_exposure(e))))
        .collect();
    let raw = sc.parallelize(records, partitions);

    // Step 1A — map(calibrate); Step 2A — flatMap to patch pieces keyed by
    // patch; Step 3A+4A — groupBy(patch), merge per visit, coadd, detect.
    let g1 = Arc::clone(&grid);
    let pieces = raw
        .map(move |(v, e)| (v, Arc::new(calibrate_exposure(&e, &calib))))
        .flat_map(move |(v, e)| {
            g1.map_to_patches(&e)
                .into_iter()
                .map(|(patch, piece)| (patch, (v, Arc::new(piece))))
                .collect()
        });
    let g2 = Arc::clone(&grid);
    let per_patch = pieces.group_by_key(64).map(move |(patch, pieces)| {
        let patch_box = g2.patch_box(patch);
        let mut by_visit: BTreeMap<u32, Vec<Exposure>> = BTreeMap::new();
        for (v, piece) in pieces {
            by_visit.entry(v).or_default().push(piece.as_ref().clone());
        }
        let visit_exposures: Vec<Exposure> = by_visit
            .into_values()
            .map(|ps| merge_visit_pieces(&patch_box, &ps))
            .collect();
        let coadd = coadd_sigma_clip(&visit_exposures, &coadd_p);
        let sources = detect_sources(&coadd, &detect_p);
        (patch, (coadd.flux, sources))
    });

    let mut coadd_flux = BTreeMap::new();
    let mut catalogs = BTreeMap::new();
    for (patch, (flux, sources)) in per_patch.collect() {
        coadd_flux.insert(patch, flux);
        catalogs.insert(patch, sources);
    }
    AstroResult {
        coadd_flux,
        catalogs,
    }
}

// ---------------------------------------------------------------------------
// Myria
// ---------------------------------------------------------------------------

/// Run the full astronomy pipeline on the Myria analog.
///
/// Exposures travel through the relational plan as **three blob columns**
/// (flux, variance, mask) instead of one packed `[3, rows, cols]` blob:
/// the f64 planes are shared chunk handles end to end, so the only copies
/// left on the shared data plane are the u8-mask re-typings at each UDF
/// boundary (kept under the sanctioned `myria.pack-blob` /
/// `myria.unpack-blob` tags), which `scibench bench e2e` counts.
// scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
// scilint: allow(F003, engine ingest boundary: blobs enter the engine's own tuple store, a materializing copy by contract)
pub fn myria(survey: &SkySurvey, nodes: usize, workers_per_node: usize) -> AstroResult {
    let conn = MyriaConnection::connect(nodes, workers_per_node);
    let grid = Arc::new(survey.patch_grid());
    let (calib, coadd_p, detect_p) = astro_params();

    // Ingest Exposures(visit, sensor, x0, y0, w, h, flux, var, mask).
    let schema = Schema::new(&[
        ("visit", ValueType::Int),
        ("sensor", ValueType::Int),
        ("x0", ValueType::Int),
        ("y0", ValueType::Int),
        ("w", ValueType::Int),
        ("h", ValueType::Int),
        ("flux", ValueType::Blob),
        ("var", ValueType::Blob),
        ("mask", ValueType::Blob),
    ]);
    let tuples: Vec<Vec<Value>> = survey
        .visits
        .iter()
        .flatten()
        .map(|e| {
            vec![
                Value::Int(e.visit as i64),
                Value::Int(e.sensor as i64),
                Value::Int(e.bbox.x0),
                Value::Int(e.bbox.y0),
                Value::Int(e.bbox.width as i64),
                Value::Int(e.bbox.height as i64),
                Value::blob(
                    pack_for_boundary(&e.flux, PlaneKind::Flux).unwrap_or_else(|| e.flux.clone()),
                ),
                Value::blob(
                    pack_for_boundary(&e.variance, PlaneKind::Variance)
                        .unwrap_or_else(|| e.variance.clone()),
                ),
                mask_to_blob(&e.mask),
            ]
        })
        .collect();
    conn.ingest("Exposures", schema, tuples, 1);

    // UDFs: Calibrate and PatchPieces as table functions (each emits the
    // full multi-blob row), the two aggregates as multi-output UDAs.
    conn.create_table_function("Calibrate", move |args| {
        let visit = args[0].as_int();
        let sensor = args[1].as_int();
        let bbox = SkyBox {
            x0: args[2].as_int(),
            y0: args[3].as_int(),
            width: args[4].as_int() as u64,
            height: args[5].as_int() as u64,
        };
        let e = exposure_from_blobs(
            &args[6],
            &args[7],
            &args[8],
            visit as u32,
            sensor as u32,
            bbox,
        );
        let (flux, var, mask) = exposure_to_blobs(calibrate_exposure(&e, &calib));
        vec![vec![
            Value::Int(visit),
            Value::Int(sensor),
            Value::Int(bbox.x0),
            Value::Int(bbox.y0),
            Value::Int(bbox.width as i64),
            Value::Int(bbox.height as i64),
            flux,
            var,
            mask,
        ]]
    });
    let g1 = Arc::clone(&grid);
    conn.create_table_function("PatchPieces", move |args| {
        let visit = args[0].as_int();
        let bbox = SkyBox {
            x0: args[2].as_int(),
            y0: args[3].as_int(),
            width: args[4].as_int() as u64,
            height: args[5].as_int() as u64,
        };
        let e = exposure_from_blobs(
            &args[6],
            &args[7],
            &args[8],
            visit as u32,
            args[1].as_int() as u32,
            bbox,
        );
        g1.map_to_patches(&e)
            .into_iter()
            .map(|((pr, pc), piece)| {
                let piece_box = piece.bbox;
                let (flux, var, mask) = exposure_to_blobs(piece);
                vec![
                    Value::Int(pr as i64),
                    Value::Int(pc as i64),
                    Value::Int(visit),
                    Value::Int(piece_box.x0),
                    Value::Int(piece_box.y0),
                    Value::Int(piece_box.width as i64),
                    Value::Int(piece_box.height as i64),
                    flux,
                    var,
                    mask,
                ]
            })
            .collect()
    });
    let g2 = Arc::clone(&grid);
    conn.create_multi_aggregate("MergeVisit", move |tuples| {
        let patch = (tuples[0][0].as_int() as u32, tuples[0][1].as_int() as u32);
        let patch_box = g2.patch_box(patch);
        let pieces: Vec<Exposure> = tuples
            .iter()
            .map(|t| {
                let bbox = SkyBox {
                    x0: t[3].as_int(),
                    y0: t[4].as_int(),
                    width: t[5].as_int() as u64,
                    height: t[6].as_int() as u64,
                };
                exposure_from_blobs(&t[7], &t[8], &t[9], t[2].as_int() as u32, 0, bbox)
            })
            .collect();
        let (flux, var, mask) = exposure_to_blobs(merge_visit_pieces(&patch_box, &pieces));
        vec![flux, var, mask]
    });
    let g3 = Arc::clone(&grid);
    conn.create_multi_aggregate("CoaddDetect", move |tuples| {
        let patch = (tuples[0][0].as_int() as u32, tuples[0][1].as_int() as u32);
        let patch_box = g3.patch_box(patch);
        let exposures: Vec<Exposure> = tuples
            .iter()
            .map(|t| exposure_from_blobs(&t[3], &t[4], &t[5], t[2].as_int() as u32, 0, patch_box))
            .collect();
        let coadd = coadd_sigma_clip(&exposures, &coadd_p);
        let sources = detect_sources(&coadd, &detect_p);
        // Catalog rows are fresh scalars, 5 per source behind a leading
        // count; the coadd flux moves into its blob column untouched.
        let mut cat = vec![sources.len() as f64];
        for s in &sources {
            cat.extend_from_slice(&[s.centroid.0, s.centroid.1, s.flux, s.peak, s.npix as f64]);
        }
        let total = cat.len();
        vec![
            Value::blob(coadd.flux),
            Value::blob(NdArray::from_vec(&[total], cat).expect("catalog rows")),
        ]
    });

    const EXPOSURE_COLS: [&str; 9] = [
        "visit", "sensor", "x0", "y0", "w", "h", "flux", "var", "mask",
    ];
    let result = Query::scan("Exposures")
        .flat_apply(
            "Calibrate",
            &EXPOSURE_COLS,
            &[
                ("visit", ValueType::Int),
                ("sensor", ValueType::Int),
                ("x0", ValueType::Int),
                ("y0", ValueType::Int),
                ("w", ValueType::Int),
                ("h", ValueType::Int),
                ("flux", ValueType::Blob),
                ("var", ValueType::Blob),
                ("mask", ValueType::Blob),
            ],
        )
        .flat_apply(
            "PatchPieces",
            &EXPOSURE_COLS,
            &[
                ("patchRow", ValueType::Int),
                ("patchCol", ValueType::Int),
                ("visit", ValueType::Int),
                ("x0", ValueType::Int),
                ("y0", ValueType::Int),
                ("w", ValueType::Int),
                ("h", ValueType::Int),
                ("flux", ValueType::Blob),
                ("var", ValueType::Blob),
                ("mask", ValueType::Blob),
            ],
        )
        .group_by_multi(
            &["patchRow", "patchCol", "visit"],
            "MergeVisit",
            &[
                ("mflux", ValueType::Blob),
                ("mvar", ValueType::Blob),
                ("mmask", ValueType::Blob),
            ],
        )
        .group_by_multi(
            &["patchRow", "patchCol"],
            "CoaddDetect",
            &[("coaddFlux", ValueType::Blob), ("catalog", ValueType::Blob)],
        )
        .execute(&conn)
        .expect("astronomy query");

    let mut coadd_flux = BTreeMap::new();
    let mut catalogs = BTreeMap::new();
    for t in result.all_tuples() {
        let patch: PatchId = (t[0].as_int() as u32, t[1].as_int() as u32);
        // The flux plane leaves the engine as a shared handle — no
        // client-side unpack copy remains.
        let flux = t[2].as_blob().as_ref().clone();
        let cat = t[3].as_blob();
        let data = cat.data();
        let n = data[0] as usize;
        let mut sources = Vec::with_capacity(n);
        for chunk in data[1..1 + 5 * n].chunks_exact(5) {
            sources.push(Source {
                centroid: (chunk[0], chunk[1]),
                flux: chunk[2],
                peak: chunk[3],
                npix: chunk[4] as usize,
            });
        }
        coadd_flux.insert(patch, flux);
        catalogs.insert(patch, sources);
    }
    AstroResult {
        coadd_flux,
        catalogs,
    }
}

// ---------------------------------------------------------------------------
// SciDB co-addition (Step 3A in native array ops — the "180 LoC of AQL")
// ---------------------------------------------------------------------------

/// Count of native array operations our AQL-style coadd chains together
/// (the Table 1 complexity analog of the 180-LoC AQL program).
pub const SCIDB_COADD_OPS: usize = 9;

/// Iteratively sigma-clipped mean over the visit axis of a
/// `(visit, rows, cols)` cube using only native array operations
/// (aggregate / apply / join / cross_join), mirroring the paper's pure-AQL
/// implementation with two cleaning iterations.
pub fn scidb_coadd_cube(
    db: &engine_array::ArrayDb,
    cube: &NdArray<f64>,
    chunk: usize,
) -> Result<NdArray<f64>, engine_array::ArrayDbError> {
    let dims = cube.dims();
    let chunk_dims = vec![1, chunk.min(dims[1]), chunk.min(dims[2])];
    let stack = db.from_array(cube, &chunk_dims)?;
    // weights: 1 = sample currently kept.
    let mut weights = stack.apply(|_| 1.0)?;

    for _ in 0..2 {
        let kept = stack.join(&weights, |v, w| v * w)?;
        let sum_w = weights.aggregate_sum(0)?;
        let sum_v = kept.aggregate_sum(0)?;
        let mean = sum_v.join(&sum_w, |s, n| if n > 0.0 { s / n } else { 0.0 })?;
        let sum_sq = stack
            .apply(|v| v * v)?
            .join(&weights, |v, w| v * w)?
            .aggregate_sum(0)?;
        let meansq = sum_sq.join(&sum_w, |s, n| if n > 0.0 { s / n } else { 0.0 })?;
        let std = meansq.join(&mean.apply(|m| m * m)?, |a, b| (a - b).max(0.0).sqrt())?;
        // Re-test every sample against the current mean/σ (3σ rule).
        let pass = stack.cross_join2(&mean, &std, |v, m, s| {
            if s == 0.0 || (v - m).abs() <= 3.0 * s {
                1.0
            } else {
                0.0
            }
        })?;
        weights = weights.join(&pass, |a, b| a * b)?;
    }

    // Final clipped mean.
    let kept = stack.join(&weights, |v, w| v * w)?;
    let sum_w = weights.aggregate_sum(0)?;
    let sum_v = kept.aggregate_sum(0)?;
    sum_v
        .join(&sum_w, |s, n| if n > 0.0 { s / n } else { 0.0 })?
        .materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciops::astro::pipeline::reference_pipeline;
    use sciops::synth::sky::SkySpec;

    fn survey() -> SkySurvey {
        SkySurvey::generate(21, &SkySpec::test_scale())
    }

    fn reference(s: &SkySurvey) -> sciops::astro::pipeline::AstroOutput {
        let grid = s.patch_grid();
        let (c, co, d) = astro_params();
        reference_pipeline(&s.visits, &grid, &c, &co, &d)
    }

    fn assert_flux_close(a: &NdArray<f64>, b: &NdArray<f64>, what: &str) {
        assert_eq!(a.dims(), b.dims(), "{what} dims");
        let scale = b.max().abs().max(1.0);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= 1e-9 * scale, "{what}: {x} vs {y}");
        }
    }

    #[test]
    fn spark_matches_reference() {
        let s = survey();
        let reference = reference(&s);
        let out = spark(&s, 8);
        assert_eq!(out.coadd_flux.len(), reference.coadds.len());
        for (patch, flux) in &out.coadd_flux {
            assert_flux_close(flux, &reference.coadds[patch].flux, "spark coadd");
            assert_eq!(out.catalogs[patch].len(), reference.catalogs[patch].len());
        }
    }

    #[test]
    fn myria_matches_reference() {
        let s = survey();
        let reference = reference(&s);
        let out = myria(&s, 2, 2);
        assert_eq!(out.coadd_flux.len(), reference.coadds.len());
        for (patch, flux) in &out.coadd_flux {
            assert_flux_close(flux, &reference.coadds[patch].flux, "myria coadd");
            let got = &out.catalogs[patch];
            let want = &reference.catalogs[patch];
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert!((g.centroid.0 - w.centroid.0).abs() < 1e-9);
                assert!((g.flux - w.flux).abs() < 1e-6 * w.flux.abs().max(1.0));
            }
        }
    }

    #[test]
    fn spark_and_myria_agree() {
        let s = survey();
        let a = spark(&s, 4);
        let b = myria(&s, 2, 2);
        assert_eq!(a.coadd_flux.len(), b.coadd_flux.len());
        for (patch, flux) in &a.coadd_flux {
            assert_flux_close(flux, &b.coadd_flux[patch], "spark vs myria");
        }
    }

    #[test]
    fn scidb_cube_coadd_matches_sigma_clipped_mean() {
        // A cube with one wild outlier per pixel column; uniform variance
        // so the clipped plain mean is the reference answer.
        let db = engine_array::ArrayDb::connect(2);
        let visits = 12;
        let cube = NdArray::from_fn(&[visits, 6, 6], |ix| {
            if ix[0] == 3 {
                10_000.0
            } else {
                50.0 + (ix[1] * 6 + ix[2]) as f64 + 0.01 * ix[0] as f64
            }
        });
        let out = scidb_coadd_cube(&db, &cube, 4).expect("coadd runs");
        for r in 0..6 {
            for c in 0..6 {
                let samples: Vec<f64> = (0..visits).map(|v| cube[&[v, r, c][..]]).collect();
                let expect = sciops::stats::sigma_clipped_mean(&samples, 3.0, 2);
                let got = out[&[r, c][..]];
                assert!((got - expect).abs() < 1e-9, "({r},{c}): {got} vs {expect}");
            }
        }
    }

    #[test]
    fn blob_plane_roundtrip() {
        let s = survey();
        let e = &s.visits[0][0];
        let (flux, var, mask) = exposure_to_blobs(e.clone());
        let back = exposure_from_blobs(&flux, &var, &mask, e.visit, e.sensor, e.bbox);
        assert_eq!(&back.flux, &e.flux);
        assert_eq!(&back.variance, &e.variance);
        assert_eq!(&back.mask, &e.mask);
    }

    /// Run the calling test alone in a fresh process of this test binary
    /// (`name` is its full path), so that no other test records into the
    /// process-wide copy ledger while it diffs the ledger.
    fn in_own_process(name: &str, body: impl FnOnce()) {
        const CHILD_ENV: &str = "SCIBENCH_ISOLATED_TEST";
        if std::env::var_os(CHILD_ENV).is_some() {
            body();
            return;
        }
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(exe)
            .args(["--exact", name, "--test-threads=1", "--nocapture"])
            .env(CHILD_ENV, "1")
            .output()
            .expect("spawn the isolated test process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "isolated run of {name} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn myria_blob_path_shares_planes() {
        in_own_process(
            "usecases::astro::tests::myria_blob_path_shares_planes",
            myria_blob_path_shares_planes_body,
        );
    }

    fn myria_blob_path_shares_planes_body() {
        use marray::{CopyCounter, ReasonStats};
        let s = survey();
        let before = CopyCounter::snapshot();
        myria(&s, 2, 2);
        let copies = CopyCounter::snapshot().since(&before);
        // The f64 planes ride shared handles, so only the mask re-typings
        // (pack/unpack and their codec traffic) and copy-on-write remain.
        // The counts are exact: a copied f64 plane adds a tag or raises
        // a count.
        let expected: BTreeMap<String, ReasonStats> = [
            ("codec.decode", 198, 1_807_104),
            ("codec.encode", 198, 34_956),
            ("cow", 33, 522_368),
            ("myria.pack-blob", 198, 1_807_104),
            ("myria.unpack-blob", 198, 225_888),
        ]
        .into_iter()
        .map(|(tag, copies, bytes)| (tag.to_string(), ReasonStats { copies, bytes }))
        .collect();
        assert_eq!(copies.by_reason, expected);
        assert_eq!((copies.copies, copies.bytes), (825, 4_397_420));
    }

    #[test]
    fn dask_status_documented() {
        assert!(DASK_ASTRO_STATUS.contains("froze"));
    }

    #[test]
    fn ingest_packing_preserves_planes_and_compresses_masks() {
        let s = survey();
        let e = &s.visits[0][0];
        let packed = pack_exposure(e);
        // The all-good mask is a single Const run; flux is noise in every
        // pixel and must stay dense.
        assert_eq!(packed.mask.repr(), marray::ChunkRepr::Const);
        assert_eq!(packed.flux.repr(), marray::ChunkRepr::Dense);
        assert!(packed.stored_nbytes() <= e.nbytes());
        // Whatever representation the heuristic chose, the pixel values
        // are untouched.
        assert_eq!(packed.flux.data(), e.flux.data());
        assert_eq!(packed.variance.data(), e.variance.data());
        assert_eq!(packed.mask.data(), e.mask.data());
        // The re-typed mask blob also crosses the boundary encoded.
        let blob = mask_to_blob(&e.mask);
        assert_eq!(blob.as_blob().repr(), marray::ChunkRepr::Const);
        assert!(blob.nbytes() < e.mask.len());
    }
}
