//! Eager neuroscience implementations, one per engine.

use engine_dataflow::{BinaryOp, GraphBuilder, Session};
use engine_rdd::SparkContext;
use engine_rel::{MyriaConnection, Query, Schema, Value, ValueType};
use engine_taskgraph::{DaskClient, Delayed};
use marray::{Mask, NdArray};
use sciops::neuro::{fit_dtm_volume, median_otsu, nlmeans3d, GradientTable, NlmParams};
use sciops::synth::dmri::DmriPhantom;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One subject's input: id, 4-D data and gradient table.
#[derive(Clone)]
pub struct Subject {
    /// Subject id.
    pub id: u32,
    /// The 4-D (x, y, z, volume) data.
    pub data: Arc<NdArray<f64>>,
    /// The acquisition's gradient table.
    pub gtab: Arc<GradientTable>,
}

impl Subject {
    /// Build from a generated phantom.
    pub fn from_phantom(id: u32, phantom: &DmriPhantom) -> Subject {
        Subject {
            id,
            data: Arc::new(phantom.data.cast()),
            gtab: Arc::new(phantom.gtab.clone()),
        }
    }

    /// Extract volume `v` as a 3-D array.
    // scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
    pub fn volume(&self, v: usize) -> NdArray<f64> {
        self.data.slice_axis(3, v).expect("volume index in range")
    }
}

/// Ready a volume for an engine ingest boundary. dMRI volumes carry noise
/// in every voxel and no pipeline workload packed one, so they cross as
/// the caller's handle (DESIGN §3.13). Under an active memory budget
/// ([`marray::mem_budget`]) the volume enters the governor's spill tier
/// ([`crate::costmodel::govern_for_boundary`]), so a working set larger
/// than the budget degrades to spill I/O instead of exhausting memory.
fn boundary_volume(vol: NdArray<f64>) -> NdArray<f64> {
    crate::costmodel::govern_for_boundary(&vol).unwrap_or(vol)
}

/// The NLM parameters every implementation shares (matching the reference).
pub fn nlm_params() -> NlmParams {
    NlmParams {
        search_radius: 1,
        patch_radius: 1,
        sigma: 20.0,
        h_factor: 1.0,
    }
}

/// Assemble per-volume results back into a (x, y, z, volume) array.
// scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
// scilint: allow(F003, engine ingest boundary: blobs enter the engine's own tuple store, a materializing copy by contract)
fn stack_volumes(dims3: &[usize], volumes: &mut [(usize, NdArray<f64>)]) -> NdArray<f64> {
    volumes.sort_by_key(|(v, _)| *v);
    let parts: Vec<NdArray<f64>> = volumes
        .iter()
        .map(|(_, vol)| {
            let mut d = dims3.to_vec();
            d.push(1);
            vol.clone().reshape(&d).expect("same element count")
        })
        .collect();
    let refs: Vec<&NdArray<f64>> = parts.iter().collect();
    NdArray::concat(&refs, 3).expect("volumes share spatial dims")
}

// ---------------------------------------------------------------------------
// Spark (the paper's Figure 6 structure)
// ---------------------------------------------------------------------------

/// Run the full pipeline on the Spark analog. Returns FA per subject.
///
/// Mirrors Figure 6: `imgRDD.map(denoise).flatMap(repart).groupBy(...)
/// .map(regroup).map(fitmodel)`, with the mask as a broadcast variable.
// scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
// scilint: allow(F003, engine ingest boundary: blobs enter the engine's own tuple store, a materializing copy by contract)
pub fn spark(subjects: &[Subject], partitions: usize) -> BTreeMap<u32, NdArray<f64>> {
    let sc = SparkContext::new();

    // imgRDD: ((subjId, imgId), volume)
    type ImgRecord = ((u32, u32), Arc<NdArray<f64>>);
    let records: Vec<ImgRecord> = subjects
        .iter()
        .flat_map(|s| {
            (0..s.gtab.len())
                .map(move |v| ((s.id, v as u32), Arc::new(boundary_volume(s.volume(v)))))
        })
        .collect();
    let img_rdd = sc.parallelize(records, partitions).cache();

    // Step 1N: filter b0 volumes, mean per subject, median_otsu masks;
    // broadcast the masks.
    let b0_sets: BTreeMap<u32, Vec<u32>> = subjects
        .iter()
        .map(|s| {
            (
                s.id,
                s.gtab.b0_indices().iter().map(|&v| v as u32).collect(),
            )
        })
        .collect();
    let b0_sets = Arc::new(b0_sets);
    let b0s = Arc::clone(&b0_sets);
    let mean_rdd = img_rdd
        .filter(move |((s, v), _)| b0s[s].contains(v))
        .map(|((s, _), vol)| (s, vol))
        .group_by_key(16)
        .map(|(s, vols)| {
            let mut acc = NdArray::<f64>::zeros(vols[0].dims());
            for v in &vols {
                acc = acc.zip_with(v.as_ref(), |a, b| a + b).expect("same dims");
            }
            let n = vols.len() as f64;
            acc.map_inplace(|x| x / n);
            (s, Arc::new(acc))
        });
    let masks: BTreeMap<u32, Mask> = mean_rdd
        .map(|(s, mean)| (s, median_otsu(&mean, 1)))
        .collect_as_map();
    let mask_bc = sc.broadcast(masks);

    // Steps 2N + 3N, exactly the Figure 6 chain.
    let params = nlm_params();
    let m1 = mask_bc.clone();
    let dims3: Vec<usize> = subjects[0].data.dims()[..3].to_vec();
    let n_blocks = 4usize;
    let voxels: usize = dims3.iter().product();
    let block_len = voxels.div_ceil(n_blocks);

    let models = img_rdd
        .map(move |((s, v), vol)| {
            (
                (s, v),
                Arc::new(nlmeans3d(&vol, Some(&m1.value()[&s]), &params)),
            )
        })
        // repart: split each denoised volume into voxel blocks. The blocks
        // are zero-copy views into the shared denoised buffer — the
        // shuffle moves refcounted handles, not voxels.
        .flat_map(move |((s, v), vol)| {
            (0..n_blocks)
                .map(|b| {
                    let lo = b * block_len;
                    let hi = ((b + 1) * block_len).min(vol.len());
                    ((s, b as u32), (v, vol.slice_view(lo, hi - lo)))
                })
                .collect()
        })
        .group_by_key(64);

    let gtabs: BTreeMap<u32, Arc<GradientTable>> = subjects
        .iter()
        .map(|s| (s.id, Arc::clone(&s.gtab)))
        .collect();
    let gtabs = Arc::new(gtabs);
    let m2 = mask_bc.clone();
    let fa_blocks = models.map(move |((s, b), mut pieces)| {
        // regroup: order by volume id, then fit each voxel of the block.
        pieces.sort_by_key(|(v, _)| *v);
        let gtab = &gtabs[&s];
        let mask = &m2.value()[&s];
        let lo = b as usize * block_len;
        let n = pieces[0].1.len();
        let slices: Vec<&[f64]> = pieces.iter().map(|(_, p)| p.as_slice()).collect();
        let mut fa = vec![0.0f64; n];
        let mut signals = vec![0.0f64; gtab.len()];
        for i in 0..n {
            if !mask.get_flat(lo + i) {
                continue;
            }
            for (v, piece) in slices.iter().enumerate() {
                signals[v] = piece[i];
            }
            if let Some(fit) = sciops::neuro::dtm::fit_dtm_voxel(&signals, gtab) {
                fa[i] = fit.fa();
            }
        }
        ((s, b), fa)
    });

    // Collect and assemble FA maps per subject.
    let mut out: BTreeMap<u32, NdArray<f64>> = BTreeMap::new();
    let mut by_subject: BTreeMap<u32, Vec<(u32, Vec<f64>)>> = BTreeMap::new();
    for ((s, b), fa) in fa_blocks.collect() {
        by_subject.entry(s).or_default().push((b, fa));
    }
    for (s, mut blocks) in by_subject {
        blocks.sort_by_key(|(b, _)| *b);
        let data: Vec<f64> = blocks.into_iter().flat_map(|(_, fa)| fa).collect();
        out.insert(
            s,
            NdArray::from_vec(&dims3, data).expect("blocks partition voxels"),
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Myria (the paper's Figure 7 structure)
// ---------------------------------------------------------------------------

/// Run the full pipeline on the Myria analog. Returns FA per subject.
///
/// Mirrors Figure 7: ingest an `Images(subjId, imgId, img)` relation,
/// compute and broadcast `Mask`, then join + PYUDF(Denoise) + a FitDTM UDA.
/// `Images` is hash-partitioned on `imgId`, so even one subject's volumes
/// spread over the workers and every fragment runs its share of the
/// Denoise calls. `MeanVol` sums in `imgId` order, so the mask and FA are
/// bit-identical at any worker count.
// scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
// scilint: allow(F003, engine ingest boundary: blobs enter the engine's own tuple store, a materializing copy by contract)
pub fn myria(
    subjects: &[Subject],
    nodes: usize,
    workers_per_node: usize,
) -> BTreeMap<u32, NdArray<f64>> {
    let conn = MyriaConnection::connect(nodes, workers_per_node);

    // Ingest.
    let schema = Schema::new(&[
        ("subjId", ValueType::Int),
        ("imgId", ValueType::Int),
        ("img", ValueType::Blob),
    ]);
    let tuples: Vec<Vec<Value>> = subjects
        .iter()
        .flat_map(|s| {
            (0..s.gtab.len()).map(move |v| {
                vec![
                    Value::Int(s.id as i64),
                    Value::Int(v as i64),
                    Value::blob(boundary_volume(s.volume(v))),
                ]
            })
        })
        .collect();
    // On imgId, as the lowering pins volume (s, v) to a worker.
    conn.ingest("Images", schema, tuples, 1);

    // Register UDFs/UDAs over blobs.
    conn.create_aggregate("MeanVol", |tuples| {
        Value::blob(mean_vol(tuples).expect("same dims"))
    });
    conn.create_function("MedianOtsu", |args| {
        let mean = args[0].as_blob();
        Value::blob(median_otsu(mean, 1).to_array().cast())
    });
    let params = nlm_params();
    conn.create_function("Denoise", move |args| {
        let img = args[0].as_blob();
        let mask = Mask::from_array(args[1].as_blob().as_ref());
        Value::blob(nlmeans3d(img, Some(&mask), &params))
    });

    // Query 1: mask per subject (scan with b0 pushdown → mean → mask).
    let first_b0: Vec<i64> = subjects[0]
        .gtab
        .b0_indices()
        .iter()
        .map(|&v| v as i64)
        .collect();
    let mask_rel = Query::scan_select("Images", "imgId", move |v| first_b0.contains(&v.as_int()))
        .group_by(&["subjId"], "MeanVol", "mean", ValueType::Blob)
        .apply(
            "MedianOtsu",
            &["mean"],
            &["subjId"],
            "mask",
            ValueType::Blob,
        )
        .execute(&conn)
        .expect("mask query");
    conn.ingest_broadcast("Mask", mask_rel.schema.clone(), mask_rel.all_tuples());

    // FitDTM UDA: groups hold a subject's denoised volumes.
    let gtabs: BTreeMap<i64, Arc<GradientTable>> = subjects
        .iter()
        .map(|s| (s.id as i64, Arc::clone(&s.gtab)))
        .collect();
    conn.create_aggregate("FitDTM", move |tuples| {
        let subj = tuples[0][0].as_int();
        let gtab = &gtabs[&subj];
        let mut volumes: Vec<(usize, NdArray<f64>)> = tuples
            .iter()
            .map(|t| (t[1].as_int() as usize, t[2].as_blob().as_ref().clone()))
            .collect();
        let mask = Mask::from_array(tuples[0][3].as_blob().as_ref());
        let dims3 = volumes[0].1.dims().to_vec();
        let stacked = stack_volumes(&dims3, &mut volumes);
        Value::blob(fit_dtm_volume(&stacked, &mask, gtab))
    });

    // A pass-through UDF used to put columns in the UDA's expected order.
    conn.create_function("Identity", |args| args[0].clone());

    // Query 2: join, denoise, fit (Figure 7's flow + the Step 3N UDA).
    let result = Query::scan("Images")
        .broadcast_join("Mask", "subjId", "subjId")
        .apply(
            "Denoise",
            &["img", "mask"],
            &["subjId", "imgId", "mask"],
            "img",
            ValueType::Blob,
        )
        // Reorder for the UDA: (subjId, imgId, img, mask).
        .apply(
            "Identity",
            &["img"],
            &["subjId", "imgId", "img", "mask"],
            "ignored",
            ValueType::Blob,
        )
        .group_by(&["subjId"], "FitDTM", "fa", ValueType::Blob)
        .execute(&conn)
        .expect("denoise+fit query");

    result
        .all_tuples()
        .into_iter()
        .map(|t| {
            (
                t[0].as_int() as u32,
                t.last().expect("fa col").as_blob().as_ref().clone(),
            )
        })
        .collect()
}

/// The `MeanVol` UDA's fold over `Images(subjId, imgId, img)` tuples: the
/// mean of the group's volumes, summed in `imgId` order so the bits do not
/// depend on which fragments the group's tuples arrived from.
fn mean_vol(tuples: &[Vec<Value>]) -> Result<NdArray<f64>, marray::ArrayError> {
    let mut imgs: Vec<(i64, &NdArray<f64>)> = tuples
        .iter()
        .map(|t| (t[1].as_int(), t[2].as_blob().as_ref()))
        .collect();
    imgs.sort_by_key(|(v, _)| *v);
    let mut acc = NdArray::<f64>::zeros(imgs[0].1.dims());
    for (_, img) in &imgs {
        acc = acc.zip_with(img, |a, b| a + b)?;
    }
    let n = imgs.len() as f64;
    acc.map_inplace(|x| x / n);
    Ok(acc)
}

// ---------------------------------------------------------------------------
// Dask (the paper's Figure 8 structure)
// ---------------------------------------------------------------------------

/// Run the full pipeline on the Dask analog. Returns FA per subject.
///
/// Mirrors Figure 8: per-subject `delayed` chains with explicit barriers.
// scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
// scilint: allow(F003, engine ingest boundary: blobs enter the engine's own tuple store, a materializing copy by contract)
pub fn dask(subjects: &[Subject], workers: usize) -> BTreeMap<u32, NdArray<f64>> {
    let client = DaskClient::new(workers);
    let params = nlm_params();
    let mut out = BTreeMap::new();

    // Build the whole graph first (delayed), then one barrier per subject.
    let mut targets: Vec<(u32, Delayed<NdArray<f64>>)> = Vec::new();
    for s in subjects {
        // The ingest boundary sits at graph-load time.
        let subj = Subject {
            id: s.id,
            data: Arc::new(boundary_volume(s.data.as_ref().clone())),
            gtab: Arc::clone(&s.gtab),
        };
        let loaded = client.delayed(move || subj);
        let mean = client.delayed_map(loaded, |s: &Subject| {
            let b0s = s.gtab.b0s_mask();
            let filtered = s.data.compress_axis(&b0s, 3).expect("b0 mask fits");
            (s.clone(), filtered.mean_axis(3))
        });
        let masked = client.delayed_map(mean, |(s, mean): &(Subject, NdArray<f64>)| {
            (s.clone(), median_otsu(mean, 1))
        });
        // Denoise per volume, in parallel.
        let n_vols = s.gtab.len();
        let denoised: Vec<Delayed<(usize, NdArray<f64>)>> = (0..n_vols)
            .map(|v| {
                client.delayed_map(masked, move |(s, mask): &(Subject, Mask)| {
                    (v, nlmeans3d(&s.volume(v), Some(mask), &params))
                })
            })
            .collect();
        let all = client.delayed_many(&denoised, |vols: &[&(usize, NdArray<f64>)]| {
            vols.iter()
                .map(|(v, a)| (*v, a.clone()))
                .collect::<Vec<_>>()
        });
        let subj2 = s.clone();
        let fa = client.delayed_zip(masked, all, move |(_, mask), vols| {
            let mut vols: Vec<(usize, NdArray<f64>)> = vols.clone();
            let dims3 = subj2.data.dims()[..3].to_vec();
            let stacked = stack_volumes(&dims3, &mut vols);
            fit_dtm_volume(&stacked, mask, &subj2.gtab)
        });
        targets.push((s.id, fa));
    }
    for (id, fa) in targets {
        out.insert(id, client.result(fa)); // barrier per subject
    }
    out
}

// ---------------------------------------------------------------------------
// TensorFlow (the paper's Figure 9 structure)
// ---------------------------------------------------------------------------

/// Output of the TensorFlow analog: only Steps 1N and (simplified) 2N are
/// expressible; model fitting is NA.
pub struct TfNeuroOutput {
    /// Mean b0 volume per subject.
    pub mean_b0: BTreeMap<u32, NdArray<f64>>,
    /// Simplified (threshold) mask per subject.
    pub mask: BTreeMap<u32, Mask>,
    /// Convolution-denoised volume 0 per subject (whole volume — no mask
    /// support).
    pub denoised0: BTreeMap<u32, NdArray<f64>>,
}

/// Run the expressible steps on the TensorFlow analog.
///
/// One graph per step, global barrier between steps, data staged through
/// the master (Figure 9's loop). Filtering happens on volume-major
/// tensors via gather along axis 0.
// scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
// scilint: allow(F003, engine ingest boundary: blobs enter the engine's own tuple store, a materializing copy by contract)
pub fn tensorflow(subjects: &[Subject]) -> TfNeuroOutput {
    let mut session = Session::new();
    let mut mean_b0 = BTreeMap::new();
    let mut mask_out = BTreeMap::new();
    let mut denoised0 = BTreeMap::new();

    for s in subjects {
        let dims3: Vec<usize> = s.data.dims()[..3].to_vec();

        // Graph 1: the paper's filter workaround in-graph — transpose the
        // (x,y,z,v) tensor so the volume axis leads, gather the b0 rows
        // (axis 0 is the only gatherable axis), mean over them. Three full
        // data-movement passes where other engines do a metadata filter.
        let mut g1 = GraphBuilder::new();
        let full_dims: Vec<usize> = s.data.dims().to_vec();
        let p = g1.placeholder(&full_dims);
        let vm = g1.transpose(p, &[3, 0, 1, 2]);
        let b0 = g1.gather(vm, &s.gtab.b0_indices());
        let mean = g1.reduce_mean(b0, 0);
        let out = session
            .run(
                &g1,
                &[(p, boundary_volume(s.data.as_ref().clone()))]
                    .into_iter()
                    .collect(),
                &[mean],
            )
            .expect("graph 1 runs");
        let mean_vol = out[0].clone();
        assert_eq!(mean_vol.dims(), &dims3[..]);
        let voxels: usize = dims3.iter().product();

        // Graph 2: simplified mask = mean > global-mean threshold.
        let mut g2 = GraphBuilder::new();
        let pm = g2.placeholder(&[voxels]);
        let thresh = mean_vol.mean();
        let m = g2.scalar_op(BinaryOp::Greater, pm, thresh);
        let out2 = session
            .run(
                &g2,
                &[(pm, mean_vol.clone().flatten())].into_iter().collect(),
                &[m],
            )
            .expect("graph 2 runs");
        let mask = Mask::from_array(&out2[0].clone().reshape(&dims3).expect("voxels match"));

        // Graph 3: denoise volume 0 by 3-D box convolution — whole tensor,
        // no masking possible.
        let mut g3 = GraphBuilder::new();
        let pv = g3.placeholder(&dims3);
        let kernel = NdArray::<f64>::full(&[3, 3, 3], 1.0 / 27.0);
        let conv = g3.conv3d(pv, kernel);
        let out3 = session
            .run(&g3, &[(pv, s.volume(0))].into_iter().collect(), &[conv])
            .expect("graph 3 runs");

        mean_b0.insert(s.id, mean_vol);
        mask_out.insert(s.id, mask);
        denoised0.insert(s.id, out3[0].clone());
    }
    assert_eq!(
        session.run_count(),
        subjects.len() * 3,
        "one run per step per subject"
    );
    TfNeuroOutput {
        mean_b0,
        mask: mask_out,
        denoised0,
    }
}

// ---------------------------------------------------------------------------
// SciDB (the paper's Figure 5 structure)
// ---------------------------------------------------------------------------

/// Output of the SciDB analog: Step 1N natively, Step 2N via `stream()`;
/// Step 3N is NA.
pub struct ScidbNeuroOutput {
    /// Mean b0 volume per subject (Figure 5's `mean(index=3)`).
    pub mean_b0: BTreeMap<u32, NdArray<f64>>,
    /// Denoised data per subject via `stream()`.
    pub denoised: BTreeMap<u32, NdArray<f64>>,
}

/// Run the expressible steps on the SciDB analog.
///
/// The deployment has four instances, and each subject is stored one
/// volume per chunk. Step 2N's `stream()` runs each chunk's TSV round
/// trip and NLM call on a pool worker, up to four chunks at a time.
// scilint: allow(F001, volume index and shape invariants are upheld by the pipeline driver; TODO(flow): propagate Result through the use-case API)
// scilint: allow(F003, engine ingest boundary: blobs enter the engine's own tuple store, a materializing copy by contract)
pub fn scidb(subjects: &[Subject]) -> ScidbNeuroOutput {
    let db = engine_array::ArrayDb::connect(4);
    let params = nlm_params();
    let mut mean_b0 = BTreeMap::new();
    let mut denoised = BTreeMap::new();

    for s in subjects {
        let dims = s.data.dims().to_vec();
        // Chunk one volume per chunk along the volume axis.
        let chunk_dims = vec![dims[0], dims[1], dims[2], 1];
        let ingest = boundary_volume(s.data.as_ref().clone());
        let stored = db.from_array(&ingest, &chunk_dims).expect("ingest");

        // Figure 5: compress(b0s_mask, axis=3) then mean(index=3).
        let filtered = stored.compress(&s.gtab.b0s_mask(), 3).expect("compress");
        let mean = filtered.aggregate_mean(3).expect("aggregate");
        let mean_vol = mean.materialize().expect("materialize");

        // Step 2N through stream(): the mask rides along in the external
        // process (chunk = one volume, shape preserved).
        let mask = median_otsu(&mean_vol, 1);
        let den = stored
            .stream(move |chunk| {
                let dims3: Vec<usize> = chunk.dims()[..3].to_vec();
                let vol = chunk.clone().reshape(&dims3).expect("volume chunk");
                let out = nlmeans3d(&vol, Some(&mask), &params);
                out.reshape(chunk.dims()).expect("same count")
            })
            .expect("stream denoise");

        mean_b0.insert(s.id, mean_vol);
        denoised.insert(s.id, den.materialize().expect("materialize"));
    }
    ScidbNeuroOutput { mean_b0, denoised }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciops::synth::dmri::DmriSpec;

    fn subjects(n: usize) -> Vec<Subject> {
        let spec = DmriSpec::test_scale();
        (0..n)
            .map(|i| Subject::from_phantom(i as u32, &DmriPhantom::generate(100 + i as u64, &spec)))
            .collect()
    }

    fn reference_fa(s: &Subject) -> NdArray<f64> {
        sciops::neuro::reference_pipeline(&s.data, &s.gtab, &nlm_params()).fa
    }

    fn assert_close(a: &NdArray<f64>, b: &NdArray<f64>, tol: f64, what: &str) {
        assert_eq!(a.dims(), b.dims(), "{what}: dims");
        let mut worst = 0.0f64;
        for (x, y) in a.data().iter().zip(b.data()) {
            worst = worst.max((x - y).abs());
        }
        assert!(worst <= tol, "{what}: max abs diff {worst}");
    }

    #[test]
    fn spark_matches_reference() {
        let subs = subjects(2);
        let out = spark(&subs, 8);
        for s in &subs {
            assert_close(&out[&s.id], &reference_fa(s), 1e-9, "spark FA");
        }
        // A volume crosses the ingest boundary dense: dMRI volumes never
        // pack.
        let crossed = boundary_volume(subs[0].volume(0));
        assert_eq!(crossed.repr(), marray::ChunkRepr::Dense);
    }

    #[test]
    fn myria_matches_reference() {
        let subs = subjects(2);
        let out = myria(&subs, 2, 2);
        for s in &subs {
            assert_close(&out[&s.id], &reference_fa(s), 1e-9, "myria FA");
        }
    }

    fn bits(a: &NdArray<f64>) -> Vec<u64> {
        a.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn myria_fa_is_bit_identical_at_every_width_and_to_spark() {
        // Images is partitioned on imgId, so each subject's volumes spread
        // over every fragment; the FA bits hold at any worker count.
        let subs = subjects(2);
        let expect = spark(&subs, 4);
        for workers in [1, 2, 4] {
            let out = myria(&subs, 1, workers);
            for s in &subs {
                assert_eq!(
                    bits(&out[&s.id]),
                    bits(&expect[&s.id]),
                    "workers={workers}, subject {}",
                    s.id
                );
            }
        }
    }

    #[test]
    fn mean_vol_ignores_arrival_order() {
        // Thirds, so the sums round and their order shows in the bits.
        let s = &subjects(1)[0];
        let tuples: Vec<Vec<Value>> = (0..s.gtab.len())
            .map(|v| {
                vec![
                    Value::Int(0),
                    Value::Int(v as i64),
                    Value::blob(s.volume(v).map(|x| x / 3.0)),
                ]
            })
            .collect();
        let expect = bits(&mean_vol(&tuples).unwrap());
        // Odd imgIds first, then even ones backwards: a fragment layout
        // no hash partitioning produces in imgId order.
        let mut shuffled: Vec<Vec<Value>> = tuples.iter().skip(1).step_by(2).cloned().collect();
        shuffled.extend(tuples.iter().step_by(2).rev().cloned());
        assert_eq!(bits(&mean_vol(&shuffled).unwrap()), expect);
        // Summing in arrival order would change the bits, so the sort is
        // what keeps them.
        let mut arrival = NdArray::<f64>::zeros(s.volume(0).dims());
        for t in &shuffled {
            arrival = arrival.zip_with(t[2].as_blob(), |a, b| a + b).unwrap();
        }
        let n = shuffled.len() as f64;
        arrival.map_inplace(|x| x / n);
        assert_ne!(bits(&arrival), expect);
    }

    #[test]
    fn dask_matches_reference() {
        let subs = subjects(2);
        let out = dask(&subs, 4);
        for s in &subs {
            assert_close(&out[&s.id], &reference_fa(s), 1e-9, "dask FA");
        }
    }

    #[test]
    fn scidb_mean_matches_reference_and_denoise_close() {
        let subs = subjects(1);
        let out = scidb(&subs);
        let s = &subs[0];
        let (mean_ref, mask) = sciops::neuro::pipeline::segmentation(&s.data, &s.gtab);
        assert_close(&out.mean_b0[&s.id], &mean_ref, 1e-9, "scidb mean");
        // stream() passes data through f32 TSV: small tolerance.
        let den_ref = sciops::neuro::pipeline::denoise_all(&s.data, &mask, &nlm_params());
        let scale = den_ref.max().abs().max(1.0);
        assert_close(
            &out.denoised[&s.id],
            &den_ref,
            1e-3 * scale,
            "scidb denoise",
        );
    }

    #[test]
    fn tensorflow_steps_run_and_approximate() {
        let subs = subjects(1);
        let out = tensorflow(&subs);
        let s = &subs[0];
        let (mean_ref, mask_ref) = sciops::neuro::pipeline::segmentation(&s.data, &s.gtab);
        assert_close(&out.mean_b0[&s.id], &mean_ref, 1e-9, "tf mean");
        // The simplified mask is approximate: it should still select a
        // brain-like fraction and mostly agree with the reference mask.
        let tf_mask = &out.mask[&s.id];
        let frac = tf_mask.fill_fraction();
        assert!(frac > 0.15 && frac < 0.85, "tf mask fraction {frac}");
        let agree = tf_mask
            .bits()
            .iter()
            .zip(mask_ref.bits())
            .filter(|(a, b)| a == b)
            .count() as f64
            / tf_mask.len() as f64;
        assert!(agree > 0.8, "tf mask agreement {agree}");
        // Conv denoising smooths: variance within the brain decreases.
        let vol0 = s.volume(0);
        assert!(out.denoised0[&s.id].std() < vol0.std());
    }

    #[test]
    fn engines_agree_with_each_other() {
        // Cross-engine check: Spark, Myria and Dask produce bitwise-close
        // FA on the same subject.
        let subs = subjects(1);
        let a = spark(&subs, 4);
        let b = myria(&subs, 2, 2);
        let c = dask(&subs, 4);
        assert_close(&a[&0], &b[&0], 1e-9, "spark vs myria");
        assert_close(&a[&0], &c[&0], 1e-9, "spark vs dask");
    }
}
