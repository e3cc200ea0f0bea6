//! The `serve` workload: two closed-loop clients send sessions of eight
//! requests, drawn from the ten certified queries of the resident
//! service's demo mix (same weights, seeded LCG), to a `sciserve::Server`
//! whose result cache holds about 62% of the all-resident working set, so
//! misses and LRU eviction never stop. The uncertified fixture and the
//! Figure 15 plan are left out: they exercise admission, and their
//! refusals would count as failed requests.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use parexec::{CostHint, MorselPool, Parallelism};
use scibench_core::lower::Engine;
use scibench_core::usecases::ingest::{
    encode_exposure_fits, encode_volumes_nifti, neuro_ingest_nifti,
};
use scibench_core::usecases::neuro::Subject;
use scilint::purity::PurityTable;
use scimemo::Probe;
use sciops::astro::PatchGrid;
use sciops::neuro::GradientTable;
use sciops::synth::dmri::{DmriPhantom, DmriSpec};
use sciops::synth::sky::{SkySpec, SkySurvey};
use sciserve::{
    cube_for_survey, Catalog, DatasetPayload, Pipeline, QueryDesc, ServeOutcome, Server,
};

use crate::astro::decode_survey;
use crate::ops::panic_text;
use crate::report::Report;
use crate::trace::{Counters, Tracer};
use crate::util::{mb, median, mix, percentile, ratio, sorted, Fingerprint};
use crate::RunCfg;

/// Result-cache byte budget: about 62% of the 1.21 MB the ten queries
/// keep resident when nothing is evicted.
const CACHE_BUDGET: u64 = 750_000;
/// Requests a client sends in one session, one after another. A session
/// is the workload's op: its latency is what a client waiting on several
/// queries sees, and it averages over the hit/miss mix, where a single
/// cached request's few microseconds would mostly measure the scheduler.
const SESSION: usize = 8;
/// Sessions handed to the client pool per dispatch.
const BATCH: usize = 32;
/// Length of the pre-drawn request sequence (clients wrap around it).
const SCHEDULE_LEN: usize = 1 << 16;
/// Sessions in a `--smoke` run.
const SMOKE_SESSIONS: usize = 8;

/// The ten certified queries and their draw weights.
fn query_mix() -> Vec<(QueryDesc, u64)> {
    use Engine::{Dask, Myria, SciDb, Spark, TensorFlow};
    use Pipeline::{AstroCoadd, AstroFull, NeuroDenoise, NeuroFa, NeuroSegment};
    vec![
        (QueryDesc::new(Spark, NeuroSegment, "dmri", 1), 18),
        (QueryDesc::new(Dask, NeuroSegment, "dmri", 1), 8),
        (QueryDesc::new(TensorFlow, NeuroSegment, "dmri", 1), 5),
        (QueryDesc::new(Spark, NeuroDenoise, "dmri", 1), 12),
        (QueryDesc::new(Spark, NeuroFa, "dmri", 1), 14),
        (QueryDesc::new(Myria, NeuroFa, "dmri", 1), 6),
        (QueryDesc::new(Dask, NeuroFa, "dmri", 2), 5),
        (QueryDesc::new(Spark, AstroFull, "hits", 1), 10),
        (QueryDesc::new(Myria, AstroFull, "hits", 1), 6),
        (QueryDesc::new(SciDb, AstroCoadd, "hits-cube", 1), 6),
    ]
}

/// The seeded request sequence: indices into [`query_mix`], drawn by
/// weight with a 64-bit LCG.
fn schedule(seed: u64, weights: &[u64]) -> Vec<u8> {
    let total: u64 = weights.iter().sum();
    let mut state = mix(seed, 7);
    (0..SCHEDULE_LEN)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mut draw = (state >> 33) % total;
            let pick = weights
                .iter()
                .position(|&w| {
                    let hit = draw < w;
                    draw = draw.wrapping_sub(w);
                    hit
                })
                .expect("every draw falls below the total weight");
            u8::try_from(pick).expect("fewer than 256 queries")
        })
        .collect()
}

/// The encoded catalog inputs, the request sequence, and each query's
/// reference fingerprint from a cache-off server.
pub struct Input {
    /// NIfTI volumes per subject, for `dmri` versions 1 and 2.
    dmri: [Vec<Vec<Vec<u8>>>; 2],
    gtab: Arc<GradientTable>,
    sky_spec: SkySpec,
    hits_fits: Vec<Vec<u8>>,
    queries: Vec<QueryDesc>,
    schedule: Vec<u8>,
    reference: Vec<u64>,
    fingerprint: u64,
}

/// What one catalog build decoded: per-call decode times and bytes.
struct Built {
    catalog: Catalog,
    decode_ms: Vec<f64>,
    decoded_bytes: usize,
}

/// Build the catalog the way a resident server loads it: decode every
/// NIfTI subject and FITS exposure, then register (and so fingerprint)
/// each dataset.
fn build_catalog(inp: &Input) -> Built {
    let mut decode_ms = Vec::new();
    let mut decoded_bytes = 0;
    let mut catalog = Catalog::new();
    let b0 = inp.gtab.b0_indices();
    for (v, subjects) in inp.dmri.iter().enumerate() {
        let subs: Vec<Subject> = subjects
            .iter()
            .enumerate()
            .map(|(id, nifti)| {
                let t = Instant::now();
                let ingest = neuro_ingest_nifti(nifti, &b0);
                decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
                decoded_bytes += nifti.iter().map(Vec::len).sum::<usize>();
                Subject {
                    id: id as u32,
                    data: Arc::new(ingest.data),
                    gtab: Arc::clone(&inp.gtab),
                }
            })
            .collect();
        catalog.register("dmri", v as u32 + 1, DatasetPayload::Neuro(Arc::new(subs)));
    }
    let t = Instant::now();
    let survey = decode_survey(&inp.hits_fits, &inp.sky_spec);
    decode_ms.push(t.elapsed().as_secs_f64() * 1e3);
    decoded_bytes += inp.hits_fits.iter().map(Vec::len).sum::<usize>();
    let cube = Arc::new(cube_for_survey(&survey));
    catalog.register("hits", 1, DatasetPayload::AstroSurvey(Arc::new(survey)));
    catalog.register("hits-cube", 1, DatasetPayload::AstroCube(cube));
    Built {
        catalog,
        decode_ms,
        decoded_bytes,
    }
}

fn purity() -> PurityTable {
    scilint::purity::analyze_workspace(&crate::repo_root())
        .expect("the workspace sources are readable")
}

/// Generate the catalog inputs from `seed` and compute every query's
/// reference fingerprint with caching off.
pub fn synth(seed: u64, smoke: bool) -> Input {
    let per_version = if smoke { 1 } else { 2 };
    let spec = DmriSpec::test_scale();
    let mut fp = Fingerprint::default();
    let mut gtab = None;
    let dmri = [0u64, 1].map(|v| {
        (0..per_version)
            .map(|i| {
                let phantom = DmriPhantom::generate(mix(seed, 200 + 10 * v + i as u64), &spec);
                let nifti = encode_volumes_nifti(&phantom.data.cast(), spec.voxel_mm);
                for buf in &nifti {
                    fp.bytes(buf);
                }
                gtab.get_or_insert(phantom.gtab);
                nifti
            })
            .collect()
    });
    let sky_spec = SkySpec::test_scale();
    let survey = SkySurvey::generate(mix(seed, 300), &sky_spec);
    let hits_fits: Vec<Vec<u8>> = survey
        .visits
        .iter()
        .flatten()
        .map(encode_exposure_fits)
        .collect();
    for buf in &hits_fits {
        fp.bytes(buf);
    }
    let (queries, weights): (Vec<QueryDesc>, Vec<u64>) = query_mix().into_iter().unzip();
    let mut inp = Input {
        dmri,
        gtab: Arc::new(gtab.expect("at least one subject")),
        sky_spec,
        hits_fits,
        schedule: schedule(seed, &weights),
        queries,
        reference: Vec::new(),
        fingerprint: fp.finish(),
    };
    let off = Server::new(build_catalog(&inp).catalog, purity()).with_caching(false);
    inp.reference = inp
        .queries
        .iter()
        .map(|q| match off.serve_one(q) {
            ServeOutcome::Done(r) => r.fingerprint,
            ServeOutcome::Rejected { reason, .. } => {
                panic!("reference server refused `{}`: {reason}", q.key())
            }
        })
        .collect();
    inp
}

/// How one request ended.
enum Outcome {
    /// Served; `fingerprint` is checked against the reference.
    Served {
        fingerprint: u64,
        all_hits: bool,
        any_miss: bool,
    },
    /// Refused by the server.
    Refused(String),
    /// The request panicked.
    Panicked(String),
}

struct Request {
    query: usize,
    ms: f64,
    outcome: Outcome,
}

fn serve(server: &Server, q: &QueryDesc) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| server.serve_one(q))) {
        Ok(ServeOutcome::Done(r)) => Outcome::Served {
            fingerprint: r.fingerprint,
            all_hits: r.stages.iter().all(|s| s.probe == Probe::Hit),
            any_miss: r.stages.iter().any(|s| s.probe == Probe::Miss),
        },
        Ok(ServeOutcome::Rejected { reason, .. }) => Outcome::Refused(reason),
        Err(p) => Outcome::Panicked(panic_text(p.as_ref())),
    }
}

/// Check every request against its query's reference, recording each
/// failure in `rep`.
fn account(inp: &Input, rep: &mut Report, what: &str, requests: &[Request]) {
    rep.attempted += requests.len();
    for (i, r) in requests.iter().enumerate() {
        let key = inp.queries[r.query].key();
        match &r.outcome {
            Outcome::Served { fingerprint, .. } if *fingerprint == inp.reference[r.query] => {}
            Outcome::Served { .. } => {
                rep.wrong += 1;
                rep.failures.push(format!(
                    "{what} request {i} `{key}`: fingerprint differs from the cache-off reference"
                ));
            }
            Outcome::Refused(why) => rep
                .failures
                .push(format!("{what} request {i} `{key}`: refused: {why}")),
            Outcome::Panicked(why) => rep
                .failures
                .push(format!("{what} request {i} `{key}`: panicked: {why}")),
        }
    }
}

/// One set-up: purity analysis, catalog load, server start, and one cold
/// request per distinct query.
struct Setup {
    server: Server,
    purity_s: f64,
    catalog_s: f64,
    warmup_s: f64,
    decode_ms: Vec<f64>,
    decoded_bytes: usize,
    warmup: Vec<Request>,
}

fn set_up(inp: &Input) -> Setup {
    let t = Instant::now();
    let purity = purity();
    let purity_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let built = build_catalog(inp);
    let server = Server::new(built.catalog, purity).with_cache_budget(CACHE_BUDGET);
    let catalog_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warmup = inp
        .queries
        .iter()
        .enumerate()
        .map(|(query, q)| {
            let t = Instant::now();
            let outcome = serve(&server, q);
            Request {
                query,
                ms: t.elapsed().as_secs_f64() * 1e3,
                outcome,
            }
        })
        .collect();
    Setup {
        server,
        purity_s,
        catalog_s,
        warmup_s: t.elapsed().as_secs_f64(),
        decode_ms: built.decode_ms,
        decoded_bytes: built.decoded_bytes,
        warmup,
    }
}

/// Run the `serve` workload.
pub fn run(cfg: &RunCfg) -> Report {
    let tracer = Tracer::new(cfg.traced);
    let mut rep = Report::new(cfg.workload, cfg.seed, cfg.traced);

    let t = Instant::now();
    let inp = synth(cfg.seed, cfg.smoke);
    rep.set("bench.gen_s", t.elapsed().as_secs_f64());
    rep.input_fingerprint = inp.fingerprint;

    let (mut setup_s, mut purity_s, mut catalog_s, mut warmup_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..cfg.setup_reps() {
        let t = Instant::now();
        let s = set_up(&inp);
        setup_s.push(t.elapsed().as_secs_f64());
        purity_s.push(s.purity_s);
        catalog_s.push(s.catalog_s);
        warmup_s.push(s.warmup_s);
        account(&inp, &mut rep, "warm-up", &s.warmup);
        last = Some(s);
    }
    let setup = last.expect("at least one set-up");
    rep.set("setup_s", median(&setup_s));
    rep.set("scilint.purity_s", median(&purity_s));
    rep.set("serve.catalog_s", median(&catalog_s));
    rep.set("serve.warmup_s", median(&warmup_s));
    rep.set("formats.ingest_ms_p50", median(&setup.decode_ms));
    rep.set(
        "formats.ingest_mb_s",
        ratio(
            setup.decoded_bytes as f64 / 1e6,
            setup.decode_ms.iter().sum::<f64>() / 1e3,
        ),
    );
    let server = setup.server;

    // Two clients, one session per morsel.
    let pool = MorselPool::with_hint(
        Parallelism::threads(2),
        CostHint::min_items(1).with_max_items(1),
    );
    let before = Counters::now(Some(server.cache_stats()));
    marray::MemoryGovernor::reset_peak();
    let start = Instant::now();
    let mut sessions: Vec<(f64, Vec<Request>)> = Vec::new();
    let mut next = 0usize;
    loop {
        let batch: Vec<usize> = (next..next + BATCH).collect();
        next += BATCH;
        let done = pool.map(&batch, |_, &session| {
            let open = if cfg.smoke {
                session < SMOKE_SESSIONS
            } else {
                start.elapsed() < cfg.seconds
            };
            if !open {
                return None;
            }
            let memo = || Some(server.cache_stats());
            let op = tracer.open_op(session, memo);
            let requests: Vec<Request> = (session * SESSION..(session + 1) * SESSION)
                .map(|i| {
                    let query = usize::from(inp.schedule[i % SCHEDULE_LEN]);
                    let t = Instant::now();
                    let outcome =
                        tracer.span("serve.request", &op, || serve(&server, &inp.queries[query]));
                    Request {
                        query,
                        ms: t.elapsed().as_secs_f64() * 1e3,
                        outcome,
                    }
                })
                .collect();
            Some((tracer.close_op(op, memo), requests))
        });
        let closed = done.iter().any(Option::is_none);
        sessions.extend(done.into_iter().flatten());
        if closed {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let moved = Counters::now(Some(server.cache_stats())).since(&before);
    let (session_ms, requests): (Vec<f64>, Vec<Vec<Request>>) = sessions.into_iter().unzip();
    let requests: Vec<Request> = requests.into_iter().flatten().collect();
    account(&inp, &mut rep, "timed", &requests);

    let by_time = sorted(&session_ms);
    rep.set("ops_per_s", ratio(session_ms.len() as f64, wall_s));
    rep.set("latency_ms_p50", percentile(&by_time, 0.5));
    rep.set("latency_ms_p90", percentile(&by_time, 0.9));
    crate::record_rss(&mut rep);

    let n = requests.len() as f64;
    let all = sorted(&requests.iter().map(|r| r.ms).collect::<Vec<_>>());
    rep.set("serve.latency_ms_p99", percentile(&all, 0.99));
    let served = |keep: fn(&Outcome) -> bool| -> Vec<f64> {
        requests
            .iter()
            .filter(|r| keep(&r.outcome))
            .map(|r| r.ms)
            .collect()
    };
    let hits = served(|o| matches!(o, Outcome::Served { all_hits: true, .. }));
    let misses = served(|o| matches!(o, Outcome::Served { any_miss: true, .. }));
    rep.set("serve.hit_us_p50", median(&hits) * 1e3);
    rep.set("serve.miss_ms_p50", median(&misses));
    rep.set("serve.miss_req_frac", ratio(misses.len() as f64, n));
    let m = &moved;
    rep.set(
        "scimemo.hit_ratio",
        ratio(m.memo_hits as f64, (m.memo_hits + m.memo_misses) as f64),
    );
    rep.set("scimemo.misses_per_req", ratio(m.memo_misses as f64, n));
    rep.set(
        "scimemo.evictions_per_req",
        ratio(m.memo_evictions as f64, n),
    );
    rep.set(
        "scimemo.evicted_mb_per_req",
        ratio(mb(m.memo_evicted_bytes), n),
    );
    rep.set("scimemo.resident_mb", mb(server.cache_bytes()));
    rep.set("serve.copies_per_req", ratio(m.copies as f64, n));
    rep.set("serve.copy_mb_per_req", ratio(mb(m.copy_bytes), n));
    let n_sessions = session_ms.len() as f64;
    crate::record_counters(&mut rep, |v| ratio(v, n_sessions), m);
    rep.set(
        "marray.gov_peak_mb",
        mb(marray::MemoryGovernor::snapshot().peak_resident),
    );

    if tracer.on() {
        let spans = tracer.into_spans();
        rep.set(
            "trace.unattributed_frac",
            crate::trace::unattributed_frac(&spans),
        );
        probe(cfg, &inp, &mut rep);
        crate::finish_trace(cfg, &mut rep, &spans);
    }
    rep
}

/// The kernel probe on the catalog's first dMRI subject and its survey.
fn probe(cfg: &RunCfg, inp: &Input, rep: &mut Report) {
    let ingest = neuro_ingest_nifti(&inp.dmri[0][0], &inp.gtab.b0_indices());
    crate::probe::neuro(rep, &ingest.data, &inp.gtab, cfg.smoke);
    let survey = decode_survey(&inp.hits_fits, &inp.sky_spec);
    let grid: PatchGrid = survey.patch_grid();
    crate::probe::astro(rep, &survey.visits, &grid, cfg.smoke);
}
