//! The `scibench` command-line interface.
//!
//! `scibench lint` statically verifies every shipped lowering with
//! [`plancheck`]: all engines, both use cases, the paper's full data-size
//! sweeps, at 16 and 64 nodes. Non-memory errors always fail the lint.
//! Memory errors are legitimate only where the paper reports them —
//! Myria's pipelined astronomy run at 24 visits on 16 nodes (Figure 15) —
//! and the lint *asserts* that configuration still trips the checker (and
//! that its materialized fallback is clean), so the OOM reproduction is
//! itself regression-tested.
//!
//! `scibench bench` times the five hottest kernels at a ladder of thread
//! counts and emits the machine-readable `BENCH_kernels.json`;
//! `scibench bench e2e` runs every engine analog's full pipeline once on
//! the shared data plane and emits `BENCH_e2e.json` with per-engine output
//! fingerprints and copy counts; `scibench bench skew` schedules a
//! source-skewed astro field under morsel claiming and under static
//! splits and emits `BENCH_skew.json` with per-worker imbalance and steal
//! counts;
//! `scibench bench compress` measures per-codec compression ratios at the
//! engine ingest boundary, runs the run-level kernel fast paths against
//! their dense twins, replays two full pipelines under `CompressMode`
//! Off and Auto (fingerprint equality enforced), and emits
//! `BENCH_compress.json`; `scibench bench serve` replays a seeded
//! hot/cold query schedule against the resident service ([`sciserve`]) —
//! serial, concurrent, cache-off, and under a halved cache budget that
//! forces LRU eviction, all fingerprint-identical — and emits
//! `BENCH_serve.json`; `scibench bench ooc` streams a stack deliberately
//! larger than the memory budget through the governor's spill tier at
//! three budgets (25 %, 50 %, unbounded), runs every engine analog
//! out-of-core, gates bit-identical fingerprints and budget-respecting
//! peak residency, and emits `BENCH_ooc.json`; `scibench perf-smoke`
//! asserts the serial and multi-threaded paths produce bit-identical
//! outputs (the CI determinism gate). `bench`, `bench serve` and
//! `perf-smoke` honor `--threads N`; `bench` and `perf-smoke` also read
//! the `SCIBENCH_THREADS` environment variable; `bench serve` honors
//! `--budget-bytes N` for the result-cache budget; and the
//! `SCIBENCH_MEM_BUDGET` environment variable (a byte count with an
//! optional `k`/`m`/`g` suffix) activates the process-wide memory
//! governor for any subcommand.

use parexec::{parse_threads, Parallelism};
use plancheck::{check, Code, Report};
use scibench_bench::{compress, e2e, hostinfo, kernels, memo, ooc, plans, serve, skew};
use scibench_core::experiments::Setup;
use scibench_core::lower::Engine;

/// Process-wide memory budget for the governor's spill tier, in bytes
/// (optional `k`/`m`/`g` suffix, powers of 1024). Parsed here — the bench
/// binary is the sanctioned home for ambient reads — and applied via
/// [`marray::set_mem_budget`] before any subcommand runs, so every bench
/// and lint can be replayed out-of-core without code changes.
const MEM_BUDGET_ENV: &str = "SCIBENCH_MEM_BUDGET";

/// Parse a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024). Zero is rejected: the governor treats 0 as "unbounded", so a
/// literal `0` budget would silently mean the opposite of what it says.
fn parse_bytes(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (digits, mult) = match t.as_bytes().last() {
        Some(b'k' | b'K') => (&t[..t.len() - 1], 1u64 << 10),
        Some(b'm' | b'M') => (&t[..t.len() - 1], 1u64 << 20),
        Some(b'g' | b'G') => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    let n = digits
        .trim()
        .parse::<u64>()
        .map_err(|e| e.to_string())?
        .checked_mul(mult)
        .ok_or_else(|| "byte count overflows u64".to_string())?;
    if n == 0 {
        return Err("byte count must be positive".to_string());
    }
    Ok(n)
}

/// Apply `SCIBENCH_MEM_BUDGET` when set; an invalid value warns and is
/// ignored (matching how `SCIBENCH_THREADS` is handled).
fn apply_mem_budget_env() {
    if let Ok(v) = std::env::var(MEM_BUDGET_ENV) {
        match parse_bytes(&v) {
            Ok(n) => {
                eprintln!("note: {MEM_BUDGET_ENV}={v}: memory governor active ({n} bytes)");
                marray::set_mem_budget(Some(n));
            }
            Err(e) => eprintln!("warning: ignoring invalid {MEM_BUDGET_ENV}={v}: {e}"),
        }
    }
}

fn is_memory(code: Code) -> bool {
    matches!(code, Code::M001 | Code::M002 | Code::M003 | Code::M004)
}

/// Accumulates lint rows and the failures that decide the exit code.
struct Lint {
    setup: Setup,
    verbose: bool,
    checked: usize,
    failures: Vec<String>,
    /// Measured static-split worker imbalance from a committed
    /// `BENCH_skew.json`, when one is present in the working directory:
    /// raises every engine's P004 skew threshold to what static splits
    /// actually produced on the measured workload (§5.3.3).
    measured_imbalance: Option<f64>,
}

impl Lint {
    fn new(verbose: bool) -> Self {
        let measured_imbalance = std::fs::read_to_string("BENCH_skew.json")
            .ok()
            .as_deref()
            .and_then(plancheck::measured_imbalance_from_bench)
            .filter(|&m| m > 1.0);
        if let Some(m) = measured_imbalance {
            println!("lint: P004 skew threshold informed by BENCH_skew.json (measured static imbalance {m:.2}x)");
        }
        Lint {
            setup: Setup::default(),
            verbose,
            checked: 0,
            failures: Vec::new(),
            measured_imbalance,
        }
    }

    /// Check one lowered graph. `memory_expected` encodes whether this
    /// configuration is *supposed* to overrun memory; a mismatch in either
    /// direction is a failure.
    fn row(
        &mut self,
        name: &str,
        engine: Engine,
        graph: &simcluster::TaskGraph,
        cluster: &simcluster::ClusterSpec,
        memory_expected: bool,
    ) -> Report {
        let mut profile = self.setup.profiles.invariants(engine);
        if let Some(m) = self.measured_imbalance {
            profile = profile.with_measured_imbalance(m);
        }
        let report = check(graph, cluster, &profile);
        self.checked += 1;
        let hard: Vec<&plancheck::Diagnostic> =
            report.errors().filter(|d| !is_memory(d.code)).collect();
        let mem_errors = report.errors().filter(|d| is_memory(d.code)).count();
        let mut bad = Vec::new();
        if !hard.is_empty() {
            bad.push(format!("{} non-memory error(s)", hard.len()));
        }
        if mem_errors > 0 && !memory_expected {
            bad.push(format!("{mem_errors} unexpected memory error(s)"));
        }
        if mem_errors == 0 && memory_expected {
            bad.push("expected a memory-budget error but none fired".into());
        }
        let status = if bad.is_empty() { "ok  " } else { "FAIL" };
        let note = if memory_expected {
            " (expected OOM: Figure 15)"
        } else {
            ""
        };
        println!("{status} {name:<58} {}{note}", report.summary());
        if self.verbose || !bad.is_empty() {
            for line in report.render_table().lines() {
                println!("       {line}");
            }
        }
        for b in bad {
            self.failures.push(format!("{name}: {b}"));
        }
        report
    }
}

fn lint(verbose: bool) -> i32 {
    let mut l = Lint::new(verbose);

    // The shipped-configuration catalog: one enumeration shared with the
    // `--memo` cacheability sweep, so the two gates check the same plans.
    for c in plans::shipped_configs(&Setup::default()) {
        l.row(&c.name, c.engine, &c.graph, &c.cluster, c.memory_expected);
    }

    // The source gate rides along: `scibench lint` also runs sciflow, the
    // interprocedural effect analysis, so a panic/nondet/copy/spawn sink
    // reachable from an engine entry point fails this command the same way
    // a bad lowering does.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/bench sits two levels below the workspace root");
    match scilint::analyze_workspace(root) {
        Ok(report) => {
            print!("{}", report.flow_summary());
            if !report.is_flow_clean() {
                if verbose {
                    print!("{}", report.flow_listing());
                }
                for f in &report.flow_findings {
                    l.failures.push(format!(
                        "sciflow {}: {}:{} {} reachable from `{}`",
                        f.rule,
                        f.path,
                        f.line,
                        f.sink,
                        f.chain.first().map_or("?", |h| h.name.as_str()),
                    ));
                }
            }
        }
        Err(e) => l
            .failures
            .push(format!("sciflow: workspace unreadable: {e}")),
    }

    println!();
    if l.failures.is_empty() {
        println!(
            "plan lint: {} lowered graphs checked, all within expectations",
            l.checked
        );
        0
    } else {
        println!(
            "plan lint: {} graphs checked, {} FAILED:",
            l.checked,
            l.failures.len()
        );
        for f in &l.failures {
            println!("  {f}");
        }
        1
    }
}

/// `scibench lint --memo`: the memoization-soundness sweep. Certifies
/// every shipped lowering with [`scimemo`] (purity verdicts joined with
/// canonical plan fingerprints) and emits the `scimemo/v2` report —
/// including the live `memo_stats` counter block — to stdout or `--out`.
/// Human-readable progress goes to stderr so the JSON stream stays clean,
/// mirroring the bench subcommands.
fn lint_memo(out_path: Option<std::path::PathBuf>) -> i32 {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/bench sits two levels below the workspace root");
    eprintln!("memo lint: certifying every shipped lowering for result-cache soundness...");
    let sweep = match memo::run_memo(root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: workspace unreadable: {e}");
            return 1;
        }
    };
    for (family, (tasks, certified)) in sweep.report.family_certified() {
        eprintln!("  {family:<8} {certified:>5}/{tasks:<5} tasks certified");
    }
    for fx in &sweep.report.fixtures {
        let rejected: Vec<_> = fx.cert.rejections().collect();
        match rejected.first() {
            Some(n) => {
                eprintln!("  fixture  {} rejected: {}", fx.name, n.reason);
                for hop in &n.witness {
                    eprintln!("             {hop}");
                }
            }
            None => eprintln!("  fixture  {} NOT rejected", fx.name),
        }
    }
    let json = sweep.report.to_json();
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, &json) {
                eprintln!("error: cannot write {}: {e}", p.display());
                return 1;
            }
            eprintln!("wrote {}", p.display());
        }
        None => print!("{json}"),
    }
    if sweep.failures.is_empty() {
        eprintln!(
            "memo lint: {} configs certified, unsafe fixture rejected",
            sweep.report.configs.len()
        );
        0
    } else {
        eprintln!("memo lint: {} failure(s):", sweep.failures.len());
        for f in &sweep.failures {
            eprintln!("  {f}");
        }
        1
    }
}

/// Default thread ladder for `scibench bench`: serial anchor plus the
/// counts the Figure 13 analysis cares about.
const BENCH_LADDER: [usize; 4] = [1, 2, 4, 8];

/// Parse a `--threads` operand; exits with the usage error already printed.
fn threads_arg(value: Option<&String>, usage: &str) -> Result<Parallelism, i32> {
    let Some(v) = value else {
        eprintln!("error: --threads requires a value");
        eprintln!("{usage}");
        return Err(2);
    };
    match parse_threads(v) {
        Ok(p) => Ok(p),
        Err(e) => {
            eprintln!("error: invalid --threads value: {e}");
            eprintln!("{usage}");
            Err(2)
        }
    }
}

/// Flags shared by the artifact-emitting subcommands.
#[derive(Default)]
struct BenchFlags {
    quick: bool,
    out_path: Option<std::path::PathBuf>,
    threads: Option<Parallelism>,
    budget_bytes: Option<u64>,
}

/// Parse the `[--quick] [--threads N] [--budget-bytes N] [--out PATH]`
/// tail every bench subcommand shares. Which optional flags a subcommand
/// accepts is declared at the call site, so e.g. `--quick` on the kernel
/// ladder is still an error. On a bad argument the usage error has
/// already been printed and the exit code is returned.
fn bench_flags(
    args: &[String],
    usage: &str,
    quick_ok: bool,
    threads_ok: bool,
    budget_ok: bool,
) -> Result<BenchFlags, i32> {
    let mut f = BenchFlags::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" if quick_ok => {
                f.quick = true;
                i += 1;
            }
            "--threads" if threads_ok => {
                f.threads = Some(threads_arg(args.get(i + 1), usage)?);
                i += 2;
            }
            "--budget-bytes" if budget_ok => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("error: --budget-bytes requires a value");
                    eprintln!("{usage}");
                    return Err(2);
                };
                match parse_bytes(v) {
                    Ok(n) => f.budget_bytes = Some(n),
                    Err(e) => {
                        eprintln!("error: invalid --budget-bytes value: {e}");
                        eprintln!("{usage}");
                        return Err(2);
                    }
                }
                i += 2;
            }
            "--out" => {
                let Some(p) = args.get(i + 1) else {
                    eprintln!("error: --out requires a path");
                    eprintln!("{usage}");
                    return Err(2);
                };
                f.out_path = Some(std::path::PathBuf::from(p));
                i += 2;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("{usage}");
                return Err(2);
            }
        }
    }
    Ok(f)
}

/// Write `json` to `--out` or stdout; a write failure decides the code.
fn emit_json(json: &str, out_path: Option<std::path::PathBuf>) -> Result<(), i32> {
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, json) {
                eprintln!("error: cannot write {}: {e}", p.display());
                return Err(1);
            }
            eprintln!("wrote {}", p.display());
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn bench_e2e(args: &[String]) -> i32 {
    const USAGE: &str = "usage: scibench bench e2e [--quick] [--out PATH]";
    let flags = match bench_flags(args, USAGE, true, false, false) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let quick = flags.quick;

    let host = hostinfo::available_parallelism();
    eprintln!(
        "e2e copy accounting: each pipeline once on the shared data plane{}...",
        if quick { " (quick)" } else { "" }
    );
    let (results, skipped) = e2e::run_e2e(quick);
    for r in &results {
        eprintln!(
            "  {:<6} {:<11} fp {:016x}  copies {:>4}  {:>9} B  {:>8.1} ms",
            r.pipeline, r.engine, r.fingerprint, r.copies, r.bytes, r.ms
        );
    }
    for s in &skipped {
        eprintln!("  {:<6} {:<11} skipped: {}", s.pipeline, s.engine, s.status);
    }
    let json = e2e::results_to_json(&results, &skipped, host, quick);
    match emit_json(&json, flags.out_path) {
        Ok(()) => 0,
        Err(code) => code,
    }
}

fn bench_skew(args: &[String]) -> i32 {
    const USAGE: &str = "usage: scibench bench skew [--quick] [--out PATH]";
    let flags = match bench_flags(args, USAGE, true, false, false) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let quick = flags.quick;

    let host = hostinfo::available_parallelism();
    if host == 1 {
        eprintln!(
            "note: one-core host — live thread timings below are not a parallel \
             measurement; the model_imbalance columns (deterministic worker model \
             over serially measured morsel costs) are the headline numbers."
        );
    }
    eprintln!(
        "skew bench: per-patch coadd+detect on a source-skewed sky, morsel claiming \
         vs static splits{}...",
        if quick { " (quick)" } else { "" }
    );
    let run = skew::run_skew(quick);
    eprintln!(
        "  {} patches in {} morsels; hottest morsel {:.1}% of total cost",
        run.patches,
        run.morsels,
        100.0 * run.morsel_cost_nanos.iter().cloned().fold(0.0, f64::max)
            / run.morsel_cost_nanos.iter().sum::<f64>().max(1.0)
    );
    let mut bad = 0;
    for r in &run.results {
        eprintln!(
            "  workers={}  model imbalance: morsel {:.3} vs static {:.3}   steals={}  \
             ({:.1} ms vs {:.1} ms){}",
            r.workers,
            r.morsel.model_imbalance,
            r.static_split.model_imbalance,
            r.morsel.steals,
            r.morsel.ms,
            r.static_split.ms,
            if r.outputs_identical {
                ""
            } else {
                "  FINGERPRINT DIVERGED"
            }
        );
        // Bit-identity is enforced everywhere; the morsel<=static model
        // regression only on the full run — the quick smoke field is too
        // small for the scheduling gap to clear measurement noise.
        if !r.outputs_identical
            || (!quick && r.morsel.model_imbalance > r.static_split.model_imbalance + 1e-9)
        {
            bad += 1;
        }
    }
    let json = skew::results_to_json(&run, host, quick);
    if let Err(code) = emit_json(&json, flags.out_path) {
        return code;
    }
    if bad > 0 {
        eprintln!("error: {bad} worker count(s) diverged or scheduled worse than a static split");
        return 1;
    }
    0
}

fn bench_compress(args: &[String]) -> i32 {
    const USAGE: &str = "usage: scibench bench compress [--quick] [--out PATH]";
    let flags = match bench_flags(args, USAGE, true, false, false) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let quick = flags.quick;

    let host = hostinfo::available_parallelism();
    eprintln!(
        "compress bench: codec ratios at the engine boundary, run-level kernels \
         compressed vs dense, and Off-vs-Auto pipeline fingerprints{}...",
        if quick { " (quick)" } else { "" }
    );
    let run = compress::run_compress(quick);
    let mut bad = 0;
    for p in &run.planes {
        eprintln!(
            "  plane {:<9} repr={:<5} {:>8} -> {:<8} bytes ({:>6.1}x)",
            p.plane,
            p.repr.as_str(),
            p.dense_bytes,
            p.stored_bytes,
            p.ratio
        );
        // The acceptance floor: mask and variance planes must compress at
        // least 2x on this workload; noisy flux legitimately stays dense.
        if p.plane != "flux" && p.ratio < 2.0 {
            eprintln!(
                "    FAIL: {} ratio {:.2} below the 2x floor",
                p.plane, p.ratio
            );
            bad += 1;
        }
    }
    for k in &run.kernels {
        eprintln!(
            "  kernel {:<20} {:>10} ns -> {:<10} ns ({:.2}x)  bytes {:>8} -> {:<8}{}",
            k.kernel,
            k.dense_ns,
            k.compressed_ns,
            k.time_ratio,
            k.dense_bytes_read,
            k.compressed_bytes_read,
            if k.outputs_identical {
                ""
            } else {
                "  FINGERPRINT DIVERGED"
            }
        );
        // Each run-level kernel must win on time or bytes moved, and must
        // be bit-identical to the dense execution.
        if !k.outputs_identical
            || (k.compressed_ns >= k.dense_ns && k.compressed_bytes_read >= k.dense_bytes_read)
        {
            bad += 1;
        }
    }
    for p in &run.pipelines {
        eprintln!(
            "  pipeline {:<6} {:<6} {:>8.1} ms -> {:<8.1} ms{}",
            p.pipeline,
            p.engine,
            p.dense_ms,
            p.compressed_ms,
            if p.outputs_identical {
                ""
            } else {
                "  FINGERPRINT DIVERGED"
            }
        );
        if !p.outputs_identical {
            bad += 1;
        }
    }
    let json = compress::results_to_json(&run, host, quick);
    if let Err(code) = emit_json(&json, flags.out_path) {
        return code;
    }
    if bad > 0 {
        eprintln!("error: {bad} compression check(s) failed (ratio floor, win, or fingerprint)");
        return 1;
    }
    0
}

fn bench_serve(args: &[String]) -> i32 {
    const USAGE: &str =
        "usage: scibench bench serve [--quick] [--threads N] [--budget-bytes N] [--out PATH]";
    let flags = match bench_flags(args, USAGE, true, true, true) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let quick = flags.quick;
    let par = flags.threads.unwrap_or_else(|| Parallelism::threads(4));
    let budget_bytes = flags.budget_bytes.unwrap_or(serve::CACHE_BUDGET);
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/bench sits two levels below the workspace root");

    let host = hostinfo::available_parallelism();
    eprintln!(
        "serve bench: replaying a seeded hot/cold query schedule against the resident \
         service — serial cache-on, concurrent x{} cache-on, serial cache-off{}...",
        par.workers(),
        if quick { " (quick)" } else { "" }
    );
    let run = match serve::run_serve(root, quick, par, budget_bytes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: workspace unreadable: {e}");
            return 1;
        }
    };
    eprintln!(
        "  {} requests: {} served ({} warm / {} cold / {} bypass), {} rejected",
        run.requests, run.served, run.warm, run.cold, run.bypass, run.rejected
    );
    eprintln!(
        "  cache: {} hits / {} misses / {} bypasses; {} entries resident ({} bytes), {} evictions",
        run.stats.hits,
        run.stats.misses,
        run.stats.bypasses,
        run.resident_entries,
        run.resident_bytes,
        run.stats.evictions
    );
    eprintln!(
        "  latency p50 {:.1}us p95 {:.1}us p99 {:.1}us | cold p50 {:.1}us vs warm p50 {:.1}us ({:.0}x)",
        run.p50_us, run.p95_us, run.p99_us, run.cold_p50_us, run.warm_p50_us, run.warm_speedup
    );
    eprintln!(
        "  copies: warm hits {} / {} bytes (must be 0/0); cache-off replay {} / {} bytes",
        run.warm_copies, run.warm_copy_bytes, run.cache_off_copies, run.cache_off_copy_bytes
    );
    eprintln!(
        "  throughput: serial {:.1} rps, concurrent {:.1} rps, cache-off {:.1} rps",
        run.requests as f64 / run.serial_s.max(1e-9),
        run.requests as f64 / run.concurrent_s.max(1e-9),
        run.requests as f64 / run.cache_off_s.max(1e-9)
    );
    eprintln!(
        "  small-budget replay ({} bytes): {} evictions ({} bytes), {} resident, matches={}",
        run.small_budget_bytes,
        run.small_stats.evictions,
        run.small_stats.evicted_bytes,
        run.small_resident_bytes,
        run.small_matches
    );
    for q in &run.queries {
        eprintln!(
            "  {:<52} x{:<4} first=[{}]{}",
            q.key,
            q.requests,
            q.first_probes.join(","),
            if q.rejected > 0 { "  rejected" } else { "" }
        );
    }
    let json = serve::results_to_json(&run, host, quick);
    if let Err(code) = emit_json(&json, flags.out_path) {
        return code;
    }
    if !run.violations.is_empty() {
        eprintln!("error: {} serve check(s) failed:", run.violations.len());
        for v in &run.violations {
            eprintln!("  {v}");
        }
        return 1;
    }
    0
}

fn bench_ooc(args: &[String]) -> i32 {
    const USAGE: &str = "usage: scibench bench ooc [--quick] [--out PATH]";
    let flags = match bench_flags(args, USAGE, true, false, false) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let quick = flags.quick;

    let host = hostinfo::available_parallelism();
    eprintln!(
        "ooc bench: streaming a larger-than-budget stack through the memory governor \
         at 25%/50%/unbounded budgets, then every engine analog out-of-core{}...",
        if quick { " (quick)" } else { "" }
    );
    let run = ooc::run_ooc(quick);
    eprintln!("  dataset {} bytes", run.dataset_bytes);
    for r in &run.rows {
        eprintln!(
            "  budget {:<9} ({:>10} B) chunk_rows={:<3} fp={:016x} spills={:<4} \
             reloads={:<4} peak={:>10} B  {:>8.1} ms",
            r.label,
            r.budget_bytes,
            r.chunk_rows,
            r.fingerprint,
            r.gov.spills,
            r.gov.reloads,
            r.gov.peak_resident,
            r.ms
        );
    }
    eprintln!(
        "  plancheck demand estimate {} B vs measured peak {} B (ratio {:.2}, bound {:.0}x)",
        run.estimated_demand_bytes,
        run.measured_peak_bytes,
        run.demand_ratio,
        ooc::DEMAND_FACTOR
    );
    for e in &run.engines {
        eprintln!(
            "  {:<6} {:<11} spills={:<5} spilled={:>10} B  {:>8.1} ms -> {:<8.1} ms{}",
            e.pipeline,
            e.engine,
            e.gov.spills,
            e.gov.spilled_bytes,
            e.ms_unbounded,
            e.ms_budget,
            if e.outputs_identical {
                ""
            } else {
                "  FINGERPRINT DIVERGED"
            }
        );
    }
    let json = ooc::results_to_json(&run, host, quick);
    if let Err(code) = emit_json(&json, flags.out_path) {
        return code;
    }
    if !run.violations.is_empty() {
        eprintln!(
            "error: {} out-of-core check(s) failed:",
            run.violations.len()
        );
        for v in &run.violations {
            eprintln!("  {v}");
        }
        return 1;
    }
    0
}

fn bench(args: &[String]) -> i32 {
    const USAGE: &str =
        "usage: scibench bench [e2e|skew|compress|serve|ooc] [--threads N] [--out PATH]";
    if args.first().map(String::as_str) == Some("e2e") {
        return bench_e2e(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("skew") {
        return bench_skew(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("compress") {
        return bench_compress(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return bench_serve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("ooc") {
        return bench_ooc(&args[1..]);
    }
    let flags = match bench_flags(args, USAGE, false, true, false) {
        Ok(f) => f,
        Err(code) => return code,
    };

    // The ladder: default 1/2/4/8, extended by an explicit --threads value.
    let mut levels: Vec<usize> = BENCH_LADDER.to_vec();
    if let Some(p) = flags.threads {
        levels.push(p.workers());
    }
    levels.sort_unstable();
    levels.dedup();

    let host = hostinfo::available_parallelism();
    if host == 1 {
        eprintln!("==========================================================================");
        eprintln!("WARNING: this host exposes only ONE hardware thread.");
        eprintln!("Every parallelism level below runs serially, so speedups will sit at ~1x.");
        eprintln!("These numbers are NOT a scaling curve; the JSON output is marked with");
        eprintln!("\"single_core_host\": true so downstream tooling can tell them apart.");
        eprintln!("==========================================================================");
    }
    eprintln!("benching 5 kernels at threads {levels:?} (host parallelism: {host})...");
    let results = kernels::run_bench(&levels, 2);
    for r in &results {
        eprintln!(
            "  {:<20} {:<12} threads={:<3} {:>12} ns/iter  {:>5.2}x",
            r.kernel, r.shape, r.threads, r.ns_per_iter, r.speedup_vs_serial
        );
    }
    let json = kernels::results_to_json(&results, host);
    if let Err(code) = emit_json(&json, flags.out_path) {
        return code;
    }
    0
}

fn perf_smoke(args: &[String]) -> i32 {
    const USAGE: &str = "usage: scibench perf-smoke [--threads N]";
    let mut par: Option<Parallelism> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                match threads_arg(args.get(i + 1), USAGE) {
                    Ok(p) => par = Some(p),
                    Err(code) => return code,
                }
                i += 2;
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("{USAGE}");
                return 2;
            }
        }
    }
    // Flag beats SCIBENCH_THREADS beats the 2-thread default.
    let par = par.unwrap_or_else(|| match std::env::var(parexec::THREADS_ENV) {
        Ok(v) => match parse_threads(&v) {
            Ok(p) => p,
            Err(e) => {
                eprintln!(
                    "warning: ignoring invalid {}={v}: {e}",
                    parexec::THREADS_ENV
                );
                Parallelism::threads(2)
            }
        },
        Err(_) => Parallelism::threads(2),
    });

    eprintln!(
        "perf smoke: serial vs {} worker(s), asserting bit-identical outputs",
        par.workers()
    );
    let mut failed = 0;
    for case in kernels::suite() {
        let serial = case.run(Parallelism::Serial);
        let parallel = case.run(par);
        let ok = serial == parallel;
        println!(
            "{} {:<20} {:<12} serial={serial:016x} threads={parallel:016x}",
            if ok { "ok  " } else { "FAIL" },
            case.name,
            case.shape
        );
        if !ok {
            failed += 1;
        }
    }
    if failed == 0 {
        println!(
            "perf smoke: 5 kernels bit-identical at {} worker(s)",
            par.workers()
        );
        0
    } else {
        println!("perf smoke: {failed} kernel(s) diverged");
        1
    }
}

fn usage() -> i32 {
    eprintln!("usage: scibench <lint|bench|perf-smoke> [options]");
    eprintln!();
    eprintln!("  lint        statically verify every shipped lowering with plancheck");
    eprintln!("              options: [--verbose]");
    eprintln!("  lint --memo certify every shipped lowering for result-cache soundness");
    eprintln!("              (scimemo purity x fingerprint join) and emit the");
    eprintln!("              scimemo/v2 JSON report with live cache counters");
    eprintln!("              options: [--out PATH]");
    eprintln!("  bench       time the five hottest kernels across thread counts and");
    eprintln!("              emit BENCH_kernels.json");
    eprintln!("              options: [--threads N] [--out PATH]");
    eprintln!("  bench e2e   run every engine analog's full pipeline once and emit");
    eprintln!("              BENCH_e2e.json with per-engine fingerprints and copy counts");
    eprintln!("              options: [--quick] [--out PATH]");
    eprintln!("  bench skew  schedule a source-skewed astro field under morsel claiming");
    eprintln!("              and static splits, and emit BENCH_skew.json with worker");
    eprintln!("              imbalance and steal counts");
    eprintln!("              options: [--quick] [--out PATH]");
    eprintln!("  bench compress");
    eprintln!("              measure per-codec compression ratios at the engine");
    eprintln!("              boundary, run-level kernels on compressed vs dense");
    eprintln!("              chunks, and Off-vs-Auto pipeline fingerprints, and");
    eprintln!("              emit BENCH_compress.json");
    eprintln!("              options: [--quick] [--out PATH]");
    eprintln!("  bench serve replay a seeded hot/cold query schedule against the");
    eprintln!("              resident service (sciserve): serial, concurrent, cache-off,");
    eprintln!("              and halved-budget (eviction) replays, all fingerprint-");
    eprintln!("              identical, warm hits zero-copy, and emit BENCH_serve.json");
    eprintln!("              options: [--quick] [--threads N] [--budget-bytes N] [--out PATH]");
    eprintln!("  bench ooc   stream a larger-than-budget stack through the memory");
    eprintln!("              governor at 25%/50%/unbounded budgets plus every engine");
    eprintln!("              analog out-of-core, gate bit-identical fingerprints and");
    eprintln!("              peak residency <= budget, and emit BENCH_ooc.json");
    eprintln!("              options: [--quick] [--out PATH]");
    eprintln!("  perf-smoke  assert serial and multi-threaded kernel outputs are");
    eprintln!("              bit-identical (CI gate)");
    eprintln!("              options: [--threads N]");
    eprintln!();
    eprintln!("  SCIBENCH_MEM_BUDGET=N[k|m|g] activates the process-wide memory");
    eprintln!("  governor for any subcommand (chunks spill to disk past the budget).");
    2
}

fn main() {
    apply_mem_budget_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("lint") => {
            const USAGE: &str =
                "usage: scibench lint [--verbose] | scibench lint --memo [--out PATH]";
            let mut verbose = false;
            let mut memo_mode = false;
            let mut out_path: Option<std::path::PathBuf> = None;
            let mut bad = None;
            let rest = &args[1..];
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--verbose" | "-v" => verbose = true,
                    "--memo" => memo_mode = true,
                    "--out" => {
                        let Some(p) = rest.get(i + 1) else {
                            eprintln!("error: --out requires a path");
                            eprintln!("{USAGE}");
                            std::process::exit(2);
                        };
                        out_path = Some(std::path::PathBuf::from(p));
                        i += 1;
                    }
                    other => bad = Some(other.to_string()),
                }
                i += 1;
            }
            if let Some(flag) = bad {
                eprintln!("error: unknown argument `{flag}`");
                eprintln!("{USAGE}");
                2
            } else if memo_mode {
                lint_memo(out_path)
            } else if out_path.is_some() {
                eprintln!("error: --out only applies to `lint --memo`");
                eprintln!("{USAGE}");
                2
            } else {
                lint(verbose)
            }
        }
        Some("bench") => bench(&args[1..]),
        Some("perf-smoke") => perf_smoke(&args[1..]),
        _ => usage(),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::parse_bytes;

    #[test]
    fn byte_suffixes_are_powers_of_1024() {
        assert_eq!(parse_bytes("4096"), Ok(4096));
        assert_eq!(parse_bytes("4k"), Ok(4 << 10));
        assert_eq!(parse_bytes("64M"), Ok(64 << 20));
        assert_eq!(parse_bytes("2g"), Ok(2 << 30));
        assert_eq!(parse_bytes(" 8 k "), Ok(8 << 10));
    }

    #[test]
    fn zero_junk_and_overflow_are_rejected() {
        // 0 is the governor's internal "unbounded" sentinel, so a literal
        // zero budget must be an error, not a silent no-op.
        assert!(parse_bytes("0").is_err());
        assert!(parse_bytes("0k").is_err());
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("12q").is_err());
        assert!(parse_bytes("-4k").is_err());
        assert!(parse_bytes("99999999999999999999g").is_err());
        assert!(
            parse_bytes("18446744073709551615k").is_err(),
            "checked_mul overflow"
        );
    }
}
