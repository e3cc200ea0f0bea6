//! The `ooc` workload: op `k` ingests dMRI subject `k mod 4` from NIfTI,
//! then computes FA (or the steps the engine can express) on variant
//! `k mod 7`, all under a 512 KiB memory budget, the only setting in which
//! the governor spills.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use marray::NdArray;
use parexec::Parallelism;
use scibench_core::usecases::ingest::{encode_volumes_nifti, neuro_ingest_nifti};
use scibench_core::usecases::neuro::{self as uc, Subject};
use sciops::neuro::{reference_pipeline, reference_pipeline_par, GradientTable, NeuroOutput};
use sciops::synth::dmri::{DmriPhantom, DmriSpec};

use crate::ops::{close, identical, Variant, DASK, MYRIA, NATIVE, SCIDB, SPARK, TENSORFLOW};
use crate::report::Report;
use crate::trace::{OpenOp, Tracer};
use crate::util::{mix, Fingerprint};
use crate::RunCfg;

/// Subjects in the input set.
const SUBJECTS: usize = 4;
/// Variants, in op order. The native pipeline takes two of the seven
/// slots: it is the path the workspace ships, and with an odd slot count
/// the median op falls inside one variant's latency cluster instead of on
/// the gap between two, where it would swing from run to run.
const VARIANTS: [Variant; 7] = [SPARK, MYRIA, DASK, TENSORFLOW, SCIDB, NATIVE, NATIVE];
/// Ops until the (subject, variant) sequence repeats.
const CYCLE: usize = 28;
/// The workload's memory budget.
const BUDGET: u64 = 512 << 10;

/// Subject geometry: big enough that the NLM and tensor-fit kernels
/// dominate each op, small enough for a closed loop of 100+ ops.
fn dmri_spec(smoke: bool) -> DmriSpec {
    if smoke {
        return DmriSpec::test_scale();
    }
    DmriSpec {
        dims: [20, 20, 14],
        n_volumes: 24,
        n_b0: 3,
        ..DmriSpec::test_scale()
    }
}

struct SubjectInput {
    nifti: Vec<Vec<u8>>,
    nifti_bytes: usize,
    /// Ground truth the probe runs on.
    data: NdArray<f64>,
    /// Serial reference outputs.
    reference: NeuroOutput,
}

/// The generated inputs and their serial references.
pub struct Input {
    gtab: Arc<GradientTable>,
    b0: Vec<usize>,
    subjects: Vec<SubjectInput>,
    fingerprint: u64,
}

/// Generate the subjects from `seed`, encode them as NIfTI, and compute
/// each one's reference outputs with the serial pipeline.
pub fn synth(seed: u64, smoke: bool) -> Input {
    let spec = dmri_spec(smoke);
    let mut fp = Fingerprint::default();
    let mut gtab = None;
    let subjects = (0..SUBJECTS)
        .map(|i| {
            let phantom = DmriPhantom::generate(mix(seed, i as u64), &spec);
            let data: NdArray<f64> = phantom.data.cast();
            let nifti = encode_volumes_nifti(&data, spec.voxel_mm);
            for buf in &nifti {
                fp.bytes(buf);
            }
            let reference = reference_pipeline(&data, &phantom.gtab, &uc::nlm_params());
            gtab.get_or_insert(phantom.gtab);
            SubjectInput {
                nifti_bytes: nifti.iter().map(Vec::len).sum(),
                nifti,
                data,
                reference,
            }
        })
        .collect();
    let gtab = gtab.expect("at least one subject");
    Input {
        b0: gtab.b0_indices(),
        gtab: Arc::new(gtab),
        subjects,
        fingerprint: fp.finish(),
    }
}

enum Output {
    Fa(BTreeMap<u32, NdArray<f64>>),
    Tensorflow(uc::TfNeuroOutput),
    Scidb(uc::ScidbNeuroOutput),
    Native(NdArray<f64>),
}

fn run_op(inp: &Input, k: usize, tr: &Tracer, op: &OpenOp) -> (NdArray<f64>, Output) {
    let s = k % SUBJECTS;
    let ingest = tr.span("formats.ingest", op, || {
        neuro_ingest_nifti(&inp.subjects[s].nifti, &inp.b0)
    });
    let subject = [Subject {
        id: s as u32,
        data: Arc::new(ingest.data),
        gtab: Arc::clone(&inp.gtab),
    }];
    let v = VARIANTS[k % VARIANTS.len()];
    let out = tr.span(v.span, op, || match v.name {
        "spark" => Output::Fa(uc::spark(&subject, 2)),
        "myria" => Output::Fa(uc::myria(&subject, 1, 2)),
        "dask" => Output::Fa(uc::dask(&subject, 2)),
        "tensorflow" => Output::Tensorflow(uc::tensorflow(&subject)),
        "scidb" => Output::Scidb(uc::scidb(&subject)),
        _ => Output::Native(
            reference_pipeline_par(
                &subject[0].data,
                &inp.gtab,
                &uc::nlm_params(),
                Parallelism::threads(2),
            )
            .fa,
        ),
    });
    (ingest.mean_b0, out)
}

/// Tolerances follow the use-case tests in `scibench_core::usecases`.
fn check(inp: &Input, k: usize, (mean_b0, out): (NdArray<f64>, Output)) -> Result<(), String> {
    let s = k % SUBJECTS;
    let id = s as u32;
    let r = &inp.subjects[s].reference;
    close("ingest mean_b0", &mean_b0, &r.mean_b0, 1e-9)?;
    let missing = || format!("no output for subject {id}");
    match out {
        Output::Fa(fa) => close("FA", fa.get(&id).ok_or_else(missing)?, &r.fa, 1e-9),
        Output::Tensorflow(o) => close(
            "mean_b0",
            o.mean_b0.get(&id).ok_or_else(missing)?,
            &r.mean_b0,
            1e-9,
        ),
        Output::Scidb(o) => {
            close(
                "mean_b0",
                o.mean_b0.get(&id).ok_or_else(missing)?,
                &r.mean_b0,
                1e-9,
            )?;
            let scale = r.denoised.max().abs().max(1.0);
            close(
                "denoised",
                o.denoised.get(&id).ok_or_else(missing)?,
                &r.denoised,
                1e-3 * scale,
            )
        }
        Output::Native(fa) => identical("FA", &fa, &r.fa),
    }
}

/// Run the `ooc` workload.
pub fn run(cfg: &RunCfg) -> Report {
    let tracer = Tracer::new(cfg.traced);
    let mut rep = Report::new(cfg.workload, cfg.seed, cfg.traced);

    let t = Instant::now();
    let inp = synth(cfg.seed, cfg.smoke);
    rep.set("bench.gen_s", t.elapsed().as_secs_f64());
    rep.input_fingerprint = inp.fingerprint;
    marray::set_mem_budget(Some(BUDGET));

    let lo = crate::measure_batch(
        cfg,
        &mut rep,
        &tracer,
        &VARIANTS,
        CYCLE,
        |k, tr, op| run_op(&inp, k, tr, op),
        |k, out| check(&inp, k, out),
    );
    let peak = marray::MemoryGovernor::snapshot().peak_resident;
    rep.set("marray.gov_peak_over_budget", peak as f64 / BUDGET as f64);

    if tracer.on() {
        let spans = tracer.into_spans();
        let ingested: usize = lo
            .samples
            .iter()
            .map(|s| inp.subjects[s.k % SUBJECTS].nifti_bytes)
            .sum();
        crate::record_spans(&mut rep, &spans, &VARIANTS, CYCLE, ingested);
        let s0 = &inp.subjects[0];
        crate::probe::neuro(&mut rep, &s0.data, &inp.gtab, cfg.smoke);
        crate::finish_trace(cfg, &mut rep, &spans);
    }
    rep
}
