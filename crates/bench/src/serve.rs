//! The `scibench bench serve` harness: replay a deterministic, seeded
//! schedule of mixed hot/cold queries against the resident service
//! ([`sciserve`]) and measure what the certified result cache buys.
//!
//! Four replays of the *same* schedule:
//!
//! 1. **serial, cache on** — per-request latency (cold = any stage
//!    missed, warm = every stage hit) and a per-request `CopyCounter`
//!    ledger delta: every all-hit request must move **zero** copies and
//!    zero bytes, the tentpole claim;
//! 2. **concurrent, cache on** — the same schedule fanned out over one
//!    shared server with `par_map_slabs`; every response must be
//!    byte-identical to the serial replay;
//! 3. **serial, cache off** — the baseline the speedup is measured
//!    against; every response must again be byte-identical, proving the
//!    cache never changes a payload byte;
//! 4. **serial, small budget** — the cache squeezed to half the measured
//!    resident footprint: LRU eviction must fire, residency must stay
//!    within the budget, and the responses must still be byte-identical
//!    (an evicted entry recomputes to the same bits by its certificate).
//!
//! The schedule always contains the uncertified ambient-read fixture
//! (must bypass on every request) and the Figure 15 Myria-pipelined
//! plan (must be refused at admission on every request). On the full
//! run the harness also enforces the headline: warm-hit p50 latency at
//! least 100x below cold p50.

use std::io;
use std::path::Path;
use std::time::Instant;

use marray::CopyCounter;
use parexec::{par_map_slabs, Parallelism};
use scibench_core::lower::Engine;
use scimemo::MemoStats;
use sciserve::{demo_catalog, AstroMode, Pipeline, QueryDesc, ServeOutcome, Server};

/// Result-cache byte budget for the cache-on replay servers: generous
/// enough that the demo catalog's working set stays fully resident.
/// Eviction under pressure is measured live by the small-budget replay,
/// which re-runs the schedule with the budget squeezed below the measured
/// resident footprint.
pub const CACHE_BUDGET: u64 = 256 << 20;

/// How one request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Every stage served from the cache.
    Warm,
    /// At least one stage computed and admitted.
    Cold,
    /// Served, but through the uncertified bypass path.
    Bypass,
    /// Refused before execution.
    Rejected,
}

fn classify(o: &ServeOutcome) -> Class {
    match o.response() {
        None => Class::Rejected,
        Some(r) if r.any_miss() => Class::Cold,
        Some(r) if r.all_hits() => Class::Warm,
        Some(_) => Class::Bypass,
    }
}

/// Per-distinct-query aggregates for the report.
pub struct QuerySummary {
    /// The query key.
    pub key: String,
    /// Requests issued for this query across the schedule.
    pub requests: usize,
    /// How many were refused (all or none, by determinism).
    pub rejected: usize,
    /// Stage probes of the query's *first* serve — where a cold query
    /// rides a warm prefix of an earlier plan, this reads e.g.
    /// `["hit", "hit", "miss"]`.
    pub first_probes: Vec<&'static str>,
    /// Latency of the first (cold) serve, microseconds.
    pub cold_us: Option<f64>,
    /// Median latency of this query's warm serves, microseconds.
    pub warm_p50_us: Option<f64>,
}

/// Everything `scibench bench serve` reports and gates on.
pub struct ServeRun {
    /// Schedule length (each replay issues exactly these requests).
    pub requests: usize,
    /// Served requests in the serial replay.
    pub served: usize,
    /// Refused requests in the serial replay.
    pub rejected: usize,
    /// All-stages-hit requests.
    pub warm: usize,
    /// Any-stage-missed requests.
    pub cold: usize,
    /// Bypass-path requests (the uncertified fixture).
    pub bypass: usize,
    /// Result-cache counters after the serial replay.
    pub stats: MemoStats,
    /// Resident cache entries after the serial replay.
    pub resident_entries: usize,
    /// Resident cache bytes after the serial replay.
    pub resident_bytes: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
    /// Latency percentiles over served requests, microseconds.
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Median cold latency, microseconds.
    pub cold_p50_us: f64,
    /// Median warm latency, microseconds.
    pub warm_p50_us: f64,
    /// `cold_p50_us / warm_p50_us`.
    pub warm_speedup: f64,
    /// Wall-clock seconds for the serial cache-on replay.
    pub serial_s: f64,
    /// Wall-clock seconds for the concurrent cache-on replay.
    pub concurrent_s: f64,
    /// Wall-clock seconds for the serial cache-off replay.
    pub cache_off_s: f64,
    /// Copy-ledger delta over the whole serial cache-on replay.
    pub serial_copies: u64,
    /// Bytes moved over the whole serial cache-on replay.
    pub serial_copy_bytes: u64,
    /// Copy-ledger delta summed over all-hit requests (must be zero).
    pub warm_copies: u64,
    /// Bytes moved summed over all-hit requests (must be zero).
    pub warm_copy_bytes: u64,
    /// Copy-ledger delta over the whole cache-off replay.
    pub cache_off_copies: u64,
    /// Bytes moved over the whole cache-off replay.
    pub cache_off_copy_bytes: u64,
    /// Concurrent replay byte-identical to serial.
    pub concurrent_matches: bool,
    /// Cache-off replay byte-identical to cache-on.
    pub cache_off_matches: bool,
    /// Byte budget of the small-budget replay (half the measured
    /// resident footprint, so eviction must fire).
    pub small_budget_bytes: u64,
    /// Result-cache counters after the small-budget replay — its
    /// `evictions` is the live LRU-eviction measurement.
    pub small_stats: MemoStats,
    /// Resident cache bytes after the small-budget replay (must sit at
    /// or under the small budget).
    pub small_resident_bytes: u64,
    /// Small-budget replay byte-identical to the full-budget replay.
    pub small_matches: bool,
    /// Per-distinct-query aggregates.
    pub queries: Vec<QuerySummary>,
    /// Acceptance failures (empty on a green run).
    pub violations: Vec<String>,
}

/// The distinct queries in the schedule with their draw weights. The mix
/// deliberately spans hot repeats, prefix-sharing chains (`segment` ⊂
/// `denoise` ⊂ `fa` on the same engine+dataset), a second dataset
/// version, the uncertified fixture, and the Figure 15 rejection.
fn query_mix() -> Vec<(QueryDesc, u32)> {
    vec![
        (
            QueryDesc::new(Engine::Spark, Pipeline::NeuroSegment, "dmri", 1),
            18,
        ),
        (
            QueryDesc::new(Engine::Dask, Pipeline::NeuroSegment, "dmri", 1),
            8,
        ),
        (
            QueryDesc::new(Engine::TensorFlow, Pipeline::NeuroSegment, "dmri", 1),
            5,
        ),
        (
            QueryDesc::new(Engine::Spark, Pipeline::NeuroDenoise, "dmri", 1),
            12,
        ),
        (
            QueryDesc::new(Engine::Spark, Pipeline::NeuroFa, "dmri", 1),
            14,
        ),
        (
            QueryDesc::new(Engine::Myria, Pipeline::NeuroFa, "dmri", 1),
            6,
        ),
        (
            QueryDesc::new(Engine::Dask, Pipeline::NeuroFa, "dmri", 2),
            5,
        ),
        (
            QueryDesc::new(Engine::Spark, Pipeline::AstroFull, "hits", 1),
            10,
        ),
        (
            QueryDesc::new(Engine::Myria, Pipeline::AstroFull, "hits", 1),
            6,
        ),
        (
            QueryDesc::new(Engine::SciDb, Pipeline::AstroCoadd, "hits-cube", 1),
            6,
        ),
        (
            QueryDesc::new(Engine::Spark, Pipeline::FixtureAmbient, "dmri", 1),
            6,
        ),
        (
            QueryDesc::new(Engine::Myria, Pipeline::AstroFull, "hits-deep", 1)
                .with_mode(AstroMode::Pipelined),
            4,
        ),
    ]
}

/// The deterministic schedule: one prologue pass over every distinct
/// query (the cold section), then seeded weighted draws up to `n`
/// requests. Returns `(schedule, index-into-mix per request)`.
fn schedule(n: usize) -> (Vec<QueryDesc>, Vec<usize>) {
    let mix = query_mix();
    let total: u64 = mix.iter().map(|(_, w)| u64::from(*w)).sum();
    let mut sched = Vec::with_capacity(n);
    let mut which = Vec::with_capacity(n);
    for (i, (q, _)) in mix.iter().enumerate() {
        sched.push(q.clone());
        which.push(i);
    }
    // A fixed-seed LCG (PCG-style multiplier) so every run of the bench
    // replays the identical request stream.
    let mut state: u64 = 0x5eed_cafe_f00d_d00d;
    while sched.len() < n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut draw = (state >> 33) % total;
        for (i, (q, w)) in mix.iter().enumerate() {
            if draw < u64::from(*w) {
                sched.push(q.clone());
                which.push(i);
                break;
            }
            draw -= u64::from(*w);
        }
    }
    (sched, which)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn fingerprints(outcomes: &[ServeOutcome]) -> Vec<Option<u64>> {
    outcomes
        .iter()
        .map(|o| o.response().map(|r| r.fingerprint))
        .collect()
}

fn probe_name(p: scimemo::Probe) -> &'static str {
    match p {
        scimemo::Probe::Hit => "hit",
        scimemo::Probe::Miss => "miss",
        scimemo::Probe::Bypass => "bypass",
    }
}

/// Run the full serve bench. `root` is the workspace root (for the purity
/// analysis backing certification); `par` sizes the concurrent replay.
/// The cache-on replays run under [`CACHE_BUDGET`]; the small-budget
/// replay derives its own, tighter budget.
pub fn run_serve(root: &Path, quick: bool, par: Parallelism) -> io::Result<ServeRun> {
    let budget_bytes = CACHE_BUDGET;
    let n = if quick { 160 } else { 2400 };
    let (sched, which) = schedule(n);
    let mix = query_mix();
    let purity = scilint::purity::analyze_workspace(root)?;
    let mut violations = Vec::new();

    // Replay 1: serial, cache on — per-request latency and copy ledger.
    let server = Server::new(demo_catalog(quick), purity.clone()).with_cache_budget(budget_bytes);
    let t0 = Instant::now();
    let mut outcomes = Vec::with_capacity(n);
    let mut classes = Vec::with_capacity(n);
    let mut warm_copies = 0u64;
    let mut warm_copy_bytes = 0u64;
    let ledger0 = CopyCounter::snapshot();
    for q in &sched {
        let before = CopyCounter::snapshot();
        let o = server.serve_one(q);
        let delta = CopyCounter::snapshot().since(&before);
        let class = classify(&o);
        if class == Class::Warm {
            warm_copies += delta.copies;
            warm_copy_bytes += delta.bytes;
        }
        classes.push(class);
        outcomes.push(o);
    }
    let serial_ledger = CopyCounter::snapshot().since(&ledger0);
    let serial_s = t0.elapsed().as_secs_f64();
    if warm_copies != 0 || warm_copy_bytes != 0 {
        violations.push(format!(
            "warm hits moved data: {warm_copies} copies / {warm_copy_bytes} bytes (must be 0/0)"
        ));
    }

    // Per-class latency stats.
    let us_of = |class: Class| -> Vec<f64> {
        let mut v: Vec<f64> = outcomes
            .iter()
            .zip(&classes)
            .filter(|(_, c)| **c == class)
            .filter_map(|(o, _)| o.response().map(|r| r.micros))
            .collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    };
    let mut all_us: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.response().map(|r| r.micros))
        .collect();
    all_us.sort_by(|a, b| a.total_cmp(b));
    let cold_us = us_of(Class::Cold);
    let warm_us = us_of(Class::Warm);
    let cold_p50_us = percentile(&cold_us, 0.5);
    let warm_p50_us = percentile(&warm_us, 0.5);
    let warm_speedup = if warm_p50_us > 0.0 {
        cold_p50_us / warm_p50_us
    } else {
        f64::INFINITY
    };
    // The headline gate rides the full run only: the quick schedule is
    // small enough for timer noise to matter.
    if !quick && warm_speedup < 100.0 {
        violations.push(format!(
            "warm p50 {warm_p50_us:.1}us is only {warm_speedup:.1}x below cold p50 \
             {cold_p50_us:.1}us (require >= 100x)"
        ));
    }

    // Structural expectations: the fixture always bypasses, the
    // Figure 15 plan is always refused, everything else is served.
    for ((o, c), qi) in outcomes.iter().zip(&classes).zip(&which) {
        let q = &mix[*qi].0;
        match q.pipeline {
            Pipeline::FixtureAmbient => {
                if *c != Class::Bypass {
                    violations.push(format!("fixture request not bypassed: {}", q.key()));
                }
            }
            Pipeline::AstroFull if q.dataset == "hits-deep" => {
                if *c != Class::Rejected {
                    violations.push(format!("Figure 15 plan was not refused: {}", q.key()));
                } else if let ServeOutcome::Rejected { reason, .. } = o {
                    if !reason.contains("admission") {
                        violations
                            .push(format!("hits-deep refused for the wrong reason: {reason}"));
                    }
                }
            }
            _ => {
                if *c == Class::Rejected {
                    violations.push(format!("unexpected rejection: {}", q.key()));
                }
            }
        }
    }

    let stats = server.cache_stats();
    let resident_entries = server.cache_len();
    let resident_bytes = server.cache_bytes();

    // Replay 2: concurrent, cache on, fresh server — byte-identity vs
    // the serial replay.
    let concurrent =
        Server::new(demo_catalog(quick), purity.clone()).with_cache_budget(budget_bytes);
    let t1 = Instant::now();
    let conc_outcomes = par_map_slabs(&sched, par, |_, q| concurrent.serve_one(q));
    let concurrent_s = t1.elapsed().as_secs_f64();
    let concurrent_matches = fingerprints(&outcomes) == fingerprints(&conc_outcomes);
    if !concurrent_matches {
        violations.push("concurrent replay diverged from the serial replay".to_string());
    }

    // Replay 3: serial, cache off, fresh server — byte-identity and the
    // baseline wall-clock/copy cost the cache is measured against.
    let off = Server::new(demo_catalog(quick), purity.clone())
        .with_caching(false)
        .with_cache_budget(budget_bytes);
    let t2 = Instant::now();
    let off_ledger0 = CopyCounter::snapshot();
    let off_outcomes: Vec<ServeOutcome> = sched.iter().map(|q| off.serve_one(q)).collect();
    let off_ledger = CopyCounter::snapshot().since(&off_ledger0);
    let cache_off_s = t2.elapsed().as_secs_f64();
    let cache_off_matches = fingerprints(&outcomes) == fingerprints(&off_outcomes);
    if !cache_off_matches {
        violations.push("cache-off replay diverged from the cache-on replay".to_string());
    }

    // Replay 4: serial, cache on, a budget squeezed to half the measured
    // resident footprint — LRU eviction must fire, residency must stay
    // within the budget, and every response must still be byte-identical
    // (an evicted entry recomputes to the same bits by the certificate).
    let small_budget_bytes = (resident_bytes / 2).max(1);
    let small = Server::new(demo_catalog(quick), purity).with_cache_budget(small_budget_bytes);
    let small_outcomes: Vec<ServeOutcome> = sched.iter().map(|q| small.serve_one(q)).collect();
    let small_stats = small.cache_stats();
    let small_resident_bytes = small.cache_bytes();
    let small_matches = fingerprints(&outcomes) == fingerprints(&small_outcomes);
    if !small_matches {
        violations.push("small-budget replay diverged from the full-budget replay".to_string());
    }
    if small_stats.evictions == 0 {
        violations.push(format!(
            "small-budget replay ({small_budget_bytes} bytes for a {resident_bytes}-byte \
             working set) never evicted"
        ));
    }
    if small_resident_bytes > small_budget_bytes {
        violations.push(format!(
            "small-budget replay resident bytes {small_resident_bytes} exceed the budget \
             {small_budget_bytes}"
        ));
    }

    // Per-distinct-query aggregates from the serial replay.
    let queries = mix
        .iter()
        .enumerate()
        .map(|(i, (q, _))| {
            let idxs: Vec<usize> = which
                .iter()
                .enumerate()
                .filter(|(_, qi)| **qi == i)
                .map(|(r, _)| r)
                .collect();
            let first = idxs.first().map(|&r| &outcomes[r]);
            let mut warm: Vec<f64> = idxs
                .iter()
                .filter(|&&r| classes[r] == Class::Warm)
                .filter_map(|&r| outcomes[r].response().map(|resp| resp.micros))
                .collect();
            warm.sort_by(|a, b| a.total_cmp(b));
            QuerySummary {
                key: q.key(),
                requests: idxs.len(),
                rejected: idxs
                    .iter()
                    .filter(|&&r| classes[r] == Class::Rejected)
                    .count(),
                first_probes: first
                    .and_then(|o| o.response())
                    .map(|r| r.stages.iter().map(|s| probe_name(s.probe)).collect())
                    .unwrap_or_default(),
                cold_us: first.and_then(|o| o.response()).map(|r| r.micros),
                warm_p50_us: (!warm.is_empty()).then(|| percentile(&warm, 0.5)),
            }
        })
        .collect();

    let count = |class: Class| classes.iter().filter(|c| **c == class).count();
    Ok(ServeRun {
        requests: n,
        served: outcomes.iter().filter(|o| !o.is_rejected()).count(),
        rejected: count(Class::Rejected),
        warm: count(Class::Warm),
        cold: count(Class::Cold),
        bypass: count(Class::Bypass),
        stats,
        resident_entries,
        resident_bytes,
        budget_bytes,
        p50_us: percentile(&all_us, 0.5),
        p95_us: percentile(&all_us, 0.95),
        p99_us: percentile(&all_us, 0.99),
        cold_p50_us,
        warm_p50_us,
        warm_speedup,
        serial_s,
        concurrent_s,
        cache_off_s,
        serial_copies: serial_ledger.copies,
        serial_copy_bytes: serial_ledger.bytes,
        warm_copies,
        warm_copy_bytes,
        cache_off_copies: off_ledger.copies,
        cache_off_copy_bytes: off_ledger.bytes,
        concurrent_matches,
        cache_off_matches,
        small_budget_bytes,
        small_stats,
        small_resident_bytes,
        small_matches,
        queries,
        violations,
    })
}

/// Render `BENCH_serve.json` (schema `scibench-bench-serve/v1`).
pub fn results_to_json(run: &ServeRun, host_parallelism: usize, quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"scibench-bench-serve/v1\",\n");
    out.push_str(&crate::hostinfo::host_block(host_parallelism));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!(
        "  \"requests\": {{\"total\": {}, \"served\": {}, \"rejected\": {}, \"warm\": {}, \
         \"cold\": {}, \"bypass\": {}}},\n",
        run.requests, run.served, run.rejected, run.warm, run.cold, run.bypass
    ));
    out.push_str(&format!(
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"bypasses\": {}, \"evictions\": {}, \
         \"evicted_bytes\": {}, \"resident_entries\": {}, \"resident_bytes\": {}, \
         \"budget_bytes\": {}}},\n",
        run.stats.hits,
        run.stats.misses,
        run.stats.bypasses,
        run.stats.evictions,
        run.stats.evicted_bytes,
        run.resident_entries,
        run.resident_bytes,
        run.budget_bytes
    ));
    out.push_str(&format!(
        "  \"latency_us\": {{\"p50\": {:.1}, \"p95\": {:.1}, \"p99\": {:.1}, \
         \"cold_p50\": {:.1}, \"warm_p50\": {:.1}, \"warm_speedup\": {:.1}}},\n",
        run.p50_us, run.p95_us, run.p99_us, run.cold_p50_us, run.warm_p50_us, run.warm_speedup
    ));
    out.push_str(&format!(
        "  \"copies\": {{\"serial_replay\": {{\"copies\": {}, \"bytes\": {}}}, \
         \"warm_requests\": {{\"copies\": {}, \"bytes\": {}}}, \
         \"cache_off_replay\": {{\"copies\": {}, \"bytes\": {}}}}},\n",
        run.serial_copies,
        run.serial_copy_bytes,
        run.warm_copies,
        run.warm_copy_bytes,
        run.cache_off_copies,
        run.cache_off_copy_bytes
    ));
    out.push_str(&format!(
        "  \"throughput_rps\": {{\"serial_cache_on\": {:.1}, \"concurrent_cache_on\": {:.1}, \
         \"serial_cache_off\": {:.1}}},\n",
        run.requests as f64 / run.serial_s.max(1e-9),
        run.requests as f64 / run.concurrent_s.max(1e-9),
        run.requests as f64 / run.cache_off_s.max(1e-9)
    ));
    out.push_str(&format!(
        "  \"small_budget\": {{\"budget_bytes\": {}, \"hits\": {}, \"misses\": {}, \
         \"evictions\": {}, \"evicted_bytes\": {}, \"resident_bytes\": {}, \
         \"matches_full_budget\": {}}},\n",
        run.small_budget_bytes,
        run.small_stats.hits,
        run.small_stats.misses,
        run.small_stats.evictions,
        run.small_stats.evicted_bytes,
        run.small_resident_bytes,
        run.small_matches
    ));
    out.push_str(&format!(
        "  \"comparisons\": {{\"concurrent_matches_serial\": {}, \
         \"cache_off_matches_cache_on\": {}}},\n",
        run.concurrent_matches, run.cache_off_matches
    ));
    out.push_str("  \"queries\": [\n");
    for (i, q) in run.queries.iter().enumerate() {
        let probes: Vec<String> = q.first_probes.iter().map(|p| format!("\"{p}\"")).collect();
        out.push_str(&format!(
            "    {{\"key\": \"{}\", \"requests\": {}, \"rejected\": {}, \
             \"first_probes\": [{}], \"cold_us\": {}, \"warm_p50_us\": {}}}{}\n",
            q.key,
            q.requests,
            q.rejected,
            probes.join(", "),
            q.cold_us.map_or("null".to_string(), |v| format!("{v:.1}")),
            q.warm_p50_us
                .map_or("null".to_string(), |v| format!("{v:.1}")),
            if i + 1 < run.queries.len() { "," } else { "" }
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
    fn schedule_is_deterministic_and_covers_every_query() {
        let (a, wa) = schedule(160);
        let (b, wb) = schedule(160);
        assert_eq!(a, b);
        assert_eq!(wa, wb);
        assert_eq!(a.len(), 160);
        let mix = query_mix();
        for i in 0..mix.len() {
            assert!(wa.contains(&i), "query {i} never scheduled");
        }
        // The prologue is one cold pass over the whole mix, in order.
        assert_eq!(&wa[..mix.len()], &(0..mix.len()).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn percentiles_pick_sane_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 0.5), 6.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
