//! End-to-end pipeline benchmarks with copy accounting: each engine
//! analog's full use-case pipeline, run once on the shared data plane
//! (clones are refcount bumps; only COW mutations and sanctioned
//! architectural copies touch memory), recording its output fingerprint,
//! the deep copies it made by reason tag, and its wall time.
//!
//! Results serialize as `BENCH_e2e.json` (schema `scibench-bench-e2e/v2`).
//! Everything in a row but the wall time is deterministic, and the
//! committed full-size artifact pins it: a test reruns the matrix and
//! requires every row to match exactly, so a new copy, a lost one or a
//! changed output fails CI.

use crate::kernels::Fingerprint;
use marray::CopyCounter;
use scibench_core::usecases::astro as astro_uc;
use scibench_core::usecases::neuro as neuro_uc;
use sciops::synth::dmri::{DmriPhantom, DmriSpec};
use sciops::synth::sky::{SkySpec, SkySurvey};
use std::sync::Arc;
use std::time::Instant;

/// One end-to-end benchmarkable pipeline on one engine analog.
pub struct E2eCase {
    /// Use case: `"neuro"` or `"astro"`.
    pub pipeline: &'static str,
    /// Engine analog: `spark`, `myria`, `dask`, `tensorflow` or `scidb`.
    pub engine: &'static str,
    runner: Box<dyn Fn() -> u64>,
}

impl E2eCase {
    /// Run the pipeline once; returns the output fingerprint.
    pub fn run(&self) -> u64 {
        (self.runner)()
    }
}

/// A pipeline/engine combination the paper reports as absent, carried in
/// the JSON so the gap is documented rather than silent.
#[derive(Debug, Clone)]
pub struct E2eSkip {
    /// Use case.
    pub pipeline: &'static str,
    /// Engine analog.
    pub engine: &'static str,
    /// Why there is no measurement (the paper's reason).
    pub status: String,
}

/// One engine's measurement.
#[derive(Debug, Clone)]
pub struct E2eResult {
    /// Use case.
    pub pipeline: &'static str,
    /// Engine analog.
    pub engine: &'static str,
    /// Fingerprint of the pipeline's output.
    pub fingerprint: u64,
    /// Deep copies the run made (COW + sanctioned only).
    pub copies: u64,
    /// Bytes deep-copied.
    pub bytes: u64,
    /// Wall milliseconds.
    pub ms: f64,
    /// The copies by reason tag.
    pub reasons: Vec<(String, u64)>,
}

fn subjects(n: usize) -> Vec<neuro_uc::Subject> {
    let spec = DmriSpec::test_scale();
    (0..n)
        .map(|i| {
            let phantom = DmriPhantom::generate(7000 + i as u64, &spec);
            neuro_uc::Subject::from_phantom(i as u32, &phantom)
        })
        .collect()
}

fn fingerprint_fa(out: &std::collections::BTreeMap<u32, marray::NdArray<f64>>) -> u64 {
    let mut fp = Fingerprint::new();
    for (id, fa) in out {
        fp.push_usize(*id as usize);
        fp.push_slice(fa.data());
    }
    fp.finish()
}

fn fingerprint_astro(r: &astro_uc::AstroResult) -> u64 {
    let mut fp = Fingerprint::new();
    for (patch, flux) in &r.coadd_flux {
        fp.push_usize(patch.0 as usize);
        fp.push_usize(patch.1 as usize);
        fp.push_slice(flux.data());
    }
    for sources in r.catalogs.values() {
        fp.push_usize(sources.len());
        for s in sources {
            fp.push_f64(s.centroid.0);
            fp.push_f64(s.centroid.1);
            fp.push_f64(s.flux);
            fp.push_f64(s.peak);
            fp.push_usize(s.npix);
        }
    }
    fp.finish()
}

/// The runnable pipeline/engine matrix: neuroscience on all five analogs;
/// astronomy on Spark, Myria and the SciDB-style coadd (Dask froze on the
/// paper's cluster, TensorFlow was neuroscience-only). `quick` shrinks the
/// subject count for CI.
pub fn suite(quick: bool) -> (Vec<E2eCase>, Vec<E2eSkip>) {
    let mut cases = Vec::new();
    let subs = Arc::new(subjects(if quick { 1 } else { 2 }));

    {
        let subs = Arc::clone(&subs);
        cases.push(E2eCase {
            pipeline: "neuro",
            engine: "spark",
            runner: Box::new(move || fingerprint_fa(&neuro_uc::spark(&subs, 8))),
        });
    }
    {
        let subs = Arc::clone(&subs);
        cases.push(E2eCase {
            pipeline: "neuro",
            engine: "myria",
            runner: Box::new(move || fingerprint_fa(&neuro_uc::myria(&subs, 4, 2))),
        });
    }
    {
        let subs = Arc::clone(&subs);
        cases.push(E2eCase {
            pipeline: "neuro",
            engine: "dask",
            runner: Box::new(move || fingerprint_fa(&neuro_uc::dask(&subs, 8))),
        });
    }
    {
        let subs = Arc::clone(&subs);
        cases.push(E2eCase {
            pipeline: "neuro",
            engine: "tensorflow",
            runner: Box::new(move || {
                let out = neuro_uc::tensorflow(&subs);
                let mut fp = Fingerprint::new();
                for (id, v) in out.mean_b0.iter().chain(out.denoised0.iter()) {
                    fp.push_usize(*id as usize);
                    fp.push_slice(v.data());
                }
                fp.finish()
            }),
        });
    }
    {
        let subs = Arc::clone(&subs);
        cases.push(E2eCase {
            pipeline: "neuro",
            engine: "scidb",
            runner: Box::new(move || {
                let out = neuro_uc::scidb(&subs);
                let mut fp = Fingerprint::new();
                for (id, v) in out.mean_b0.iter().chain(out.denoised.iter()) {
                    fp.push_usize(*id as usize);
                    fp.push_slice(v.data());
                }
                fp.finish()
            }),
        });
    }

    let survey = Arc::new(SkySurvey::generate(99, &SkySpec::test_scale()));
    {
        let survey = Arc::clone(&survey);
        cases.push(E2eCase {
            pipeline: "astro",
            engine: "spark",
            runner: Box::new(move || fingerprint_astro(&astro_uc::spark(&survey, 6))),
        });
    }
    {
        let survey = Arc::clone(&survey);
        cases.push(E2eCase {
            pipeline: "astro",
            engine: "myria",
            runner: Box::new(move || fingerprint_astro(&astro_uc::myria(&survey, 4, 1))),
        });
    }
    {
        // SciDB: the pure-AQL clipped coadd over one patch's visit cube.
        let cube = Arc::new(sciserve::cube_for_survey(&survey));
        cases.push(E2eCase {
            pipeline: "astro",
            engine: "scidb",
            runner: Box::new(move || {
                let db = engine_array::ArrayDb::connect(4);
                let out = astro_uc::scidb_coadd_cube(&db, &cube, 8).expect("scidb coadd runs");
                let mut fp = Fingerprint::new();
                fp.push_slice(out.data());
                fp.finish()
            }),
        });
    }

    let skipped = vec![
        E2eSkip {
            pipeline: "astro",
            engine: "dask",
            status: astro_uc::DASK_ASTRO_STATUS.to_string(),
        },
        E2eSkip {
            pipeline: "astro",
            engine: "tensorflow",
            status: "not attempted (the paper's TensorFlow implementation covers only the \
                     neuroscience use case)"
                .to_string(),
        },
    ];
    (cases, skipped)
}

/// Run the whole matrix, each case once, diffing the copy ledger around
/// each run.
pub fn run_e2e(quick: bool) -> (Vec<E2eResult>, Vec<E2eSkip>) {
    let (cases, skipped) = suite(quick);
    let results = cases
        .iter()
        .map(|case| {
            let before = CopyCounter::snapshot();
            let t = Instant::now();
            let fingerprint = case.run();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let copies = CopyCounter::snapshot().since(&before);
            E2eResult {
                pipeline: case.pipeline,
                engine: case.engine,
                fingerprint,
                copies: copies.copies,
                bytes: copies.bytes,
                ms,
                reasons: copies
                    .by_reason
                    .iter()
                    .map(|(k, v)| (k.clone(), v.copies))
                    .collect(),
            }
        })
        .collect();
    (results, skipped)
}

/// Render e2e results as the `BENCH_e2e.json` document
/// (schema `scibench-bench-e2e/v2`). Hand-rolled like
/// [`crate::kernels::results_to_json`]: no JSON dependency in the
/// workspace.
pub fn results_to_json(
    results: &[E2eResult],
    skipped: &[E2eSkip],
    host_parallelism: usize,
    quick: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"scibench-bench-e2e/v2\",\n");
    out.push_str(&crate::hostinfo::host_block(host_parallelism));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let reasons = r
            .reasons
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"pipeline\": \"{}\", \"engine\": \"{}\", \"fingerprint\": \"{:016x}\", \
             \"copies\": {}, \"bytes\": {}, \"ms\": {:.2}, \"reasons\": {{{reasons}}}}}{}\n",
            r.pipeline,
            r.engine,
            r.fingerprint,
            r.copies,
            r.bytes,
            r.ms,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"skipped\": [\n");
    for (i, s) in skipped.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"pipeline\": \"{}\", \"engine\": \"{}\", \"status\": \"{}\"}}{}\n",
            s.pipeline,
            s.engine,
            s.status,
            if i + 1 < skipped.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_five_engines_on_neuro_and_documents_astro_gaps() {
        let (cases, skipped) = suite(true);
        let neuro: Vec<&str> = cases
            .iter()
            .filter(|c| c.pipeline == "neuro")
            .map(|c| c.engine)
            .collect();
        assert_eq!(neuro, ["spark", "myria", "dask", "tensorflow", "scidb"]);
        let astro: Vec<&str> = cases
            .iter()
            .filter(|c| c.pipeline == "astro")
            .map(|c| c.engine)
            .collect();
        assert_eq!(astro, ["spark", "myria", "scidb"]);
        assert!(skipped
            .iter()
            .any(|s| s.pipeline == "astro" && s.engine == "dask"));
        assert!(skipped
            .iter()
            .any(|s| s.pipeline == "astro" && s.engine == "tensorflow"));
    }

    #[test]
    fn json_schema_and_fields_are_stable() {
        let results = vec![E2eResult {
            pipeline: "neuro",
            engine: "spark",
            fingerprint: 0xe87f_62fd_db08_519b,
            copies: 10,
            bytes: 80_000,
            ms: 9.0,
            reasons: vec![("cow".to_string(), 10)],
        }];
        let skipped = vec![E2eSkip {
            pipeline: "astro",
            engine: "dask",
            status: "frozen".to_string(),
        }];
        let json = results_to_json(&results, &skipped, 1, true);
        assert!(json.contains("\"schema\": \"scibench-bench-e2e/v2\""));
        assert!(json.contains("\"single_core_host\": true"));
        assert!(json.contains(
            "{\"pipeline\": \"neuro\", \"engine\": \"spark\", \"fingerprint\": \"e87f62fddb08519b\", \
             \"copies\": 10, \"bytes\": 80000, \"ms\": 9.00, \"reasons\": {\"cow\": 10}}"
        ));
        assert!(json.contains("\"skipped\""));
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");
    }
}
