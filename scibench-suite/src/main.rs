//! `scibench-suite`: the workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! scibench-suite run --workload W [--seed S] [--seconds N] [--trace 0|1|PATH] [--smoke] [--out PATH]
//! scibench-suite compare BASE.json... -- HEAD.json...
//! scibench-suite emit-benchmark-json
//! ```
//!
//! `run` executes one workload per process, so peak RSS, the process-wide
//! counters and the memory budget all belong to that workload. It prints
//! every metric as `name value unit` and ends with one JSON line holding
//! `correct`, `attempted`, `failed` and `metrics`; it exits 1 if any
//! output was wrong. The seed only drives input synthesis: the program
//! under test receives the generated inputs.

mod astro;
mod compare;
mod json;
mod neuro;
mod ops;
mod probe;
mod report;
mod serve;
mod spec;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ops::{LoopOut, Variant, Window};
use report::Report;
use trace::{Counters, OpenOp, Span, Tracer};
use util::{mb, median, percentile, ratio, sorted};

/// This package's directory (where the benchmark's scratch files go).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root: this package's parent directory.
pub fn repo_root() -> PathBuf {
    package_dir()
        .parent()
        .expect("the suite sits one level below the repository root")
        .to_path_buf()
}

/// One `run` invocation.
pub struct RunCfg {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
    /// Test-scale inputs and a fixed handful of ops.
    pub smoke: bool,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Where to write the spans.
    pub trace_path: Option<PathBuf>,
    /// Where to write the full result document.
    pub out: Option<PathBuf>,
}

impl RunCfg {
    /// The measured window: one cycle of ops in a smoke run, else time.
    pub fn window(&self, cycle: usize) -> Window {
        if self.smoke {
            Window::Ops(cycle)
        } else {
            Window::Time(self.seconds)
        }
    }

    /// How many times set-up runs; `setup_s` is the median. Three
    /// repetitions keep one slow one from moving it, and leave the time
    /// of further ones to the measured window.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

const USAGE: &str = "usage:
  scibench-suite run --workload W [--seed S] [--seconds N] [--trace 0|1|PATH] [--smoke] [--out PATH]
  scibench-suite compare BASE.json... -- HEAD.json...
  scibench-suite emit-benchmark-json
workloads: ooc, astro, serve";

fn parse_run(args: &[String]) -> Result<RunCfg, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = spec::RUN_SECONDS as f64;
    let mut smoke = false;
    let mut trace = "0".to_string();
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(
                    spec::WORKLOADS
                        .iter()
                        .find(|s| s.name == w)
                        .ok_or(format!("unknown workload `{w}`"))?
                        .name,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => trace = value()?,
            "--out" => out = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let (traced, trace_path) = match trace.as_str() {
        "0" => (false, None),
        "1" => (
            true,
            Some(
                package_dir()
                    .join(".traces")
                    .join(format!("{workload}-seed{seed}.jsonl")),
            ),
        ),
        path => (true, Some(PathBuf::from(path))),
    };
    Ok(RunCfg {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        smoke,
        traced,
        trace_path,
        out,
    })
}

fn run(args: &[String]) -> ExitCode {
    let cfg = match parse_run(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("scibench-suite run: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The memory governor's spill file goes to the temp directory; keep
    // it inside the benchmark's own directory.
    let tmp = package_dir().join(".tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("scibench-suite run: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);

    println!(
        "scibench-suite run workload={} seed={} seconds={} trace={} smoke={} host_cpus={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds.as_secs_f64(),
        cfg.trace_path
            .as_ref()
            .map_or("off".to_string(), |p| p.display().to_string()),
        cfg.smoke,
        util::host_cpus()
    );
    let rep = match cfg.workload {
        "ooc" => neuro::run(&cfg),
        "astro" => astro::run(&cfg),
        _ => serve::run(&cfg),
    };
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = rep.print(&mut stdout) {
        eprintln!("scibench-suite run: {e}");
        return ExitCode::from(2);
    }
    if let Some(out) = &cfg.out {
        if let Err(e) = rep.write_out(out) {
            eprintln!("scibench-suite run: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Write `BENCHMARK.json` at the repository root from the spec tables.
fn emit() -> ExitCode {
    let path = spec::benchmark_json_path();
    match std::fs::write(&path, spec::benchmark_json()) {
        Ok(()) => {
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("emit-benchmark-json") if args.len() == 1 => emit(),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Fold a loop's op count and failures into `rep`.
fn account(rep: &mut Report, lo: &LoopOut) {
    rep.attempted += lo.samples.len();
    rep.wrong += lo.wrong;
    rep.failures.extend(lo.failures.iter().cloned());
}

/// Measure a batch workload: set-up (one warm-up op per cycle slot,
/// repeated `cfg.setup_reps()` times, checked like timed ops; `setup_s`
/// is the median), then the measured window under `tracer`. Records the
/// end-to-end metrics and the memory governor's peak.
fn measure_batch<O>(
    cfg: &RunCfg,
    rep: &mut Report,
    tracer: &Tracer,
    variants: &[Variant],
    cycle: usize,
    run: impl Fn(usize, &Tracer, &OpenOp) -> O,
    check: impl Fn(usize, O) -> Result<(), String>,
) -> LoopOut {
    let variant = |k: usize| variants[k % variants.len()].name;
    let untraced = Tracer::new(false);
    let setup: Vec<f64> = (0..cfg.setup_reps())
        .map(|_| {
            let lo = ops::closed_loop(
                Window::Ops(variants.len()),
                cycle,
                &untraced,
                variant,
                |k, op| run(k, &untraced, op),
                &check,
            );
            account(rep, &lo);
            lo.wall_s
        })
        .collect();
    rep.set("setup_s", median(&setup));
    rep.set("bench.warmup_s", median(&setup));

    marray::MemoryGovernor::reset_peak();
    let lo = ops::closed_loop(
        cfg.window(cycle),
        cycle,
        tracer,
        variant,
        |k, op| run(k, tracer, op),
        &check,
    );
    rep.set(
        "marray.gov_peak_mb",
        mb(marray::MemoryGovernor::snapshot().peak_resident),
    );
    record_loop(rep, &lo);
    lo
}

/// Peak resident set of the process so far.
fn record_rss(rep: &mut Report) {
    if let Some(v) = util::peak_rss_mb() {
        rep.set("peak_rss_mb", v);
    }
}

/// End-to-end metrics of a one-client loop. Throughput is ops over the
/// time they took: output checks between ops are not the system's work.
fn record_loop(rep: &mut Report, lo: &LoopOut) {
    account(rep, lo);
    let all = sorted(&lo.latencies(None));
    let busy_s = all.iter().sum::<f64>() / 1e3;
    rep.set("ops_per_s", ratio(all.len() as f64, busy_s));
    rep.set("latency_ms_p50", percentile(&all, 0.5));
    rep.set("latency_ms_p90", percentile(&all, 0.9));
    record_rss(rep);
}

/// The marray ledgers per op; `per_op` turns a window total into a
/// per-op figure.
fn record_counters(rep: &mut Report, per_op: impl Fn(f64) -> f64, c: &Counters) {
    rep.set("marray.copies_per_op", per_op(c.copies as f64));
    rep.set("marray.copy_mb_per_op", per_op(c.copy_bytes as f64) / 1e6);
    rep.set("marray.codec_encodes_per_op", per_op(c.encodes as f64));
    rep.set("marray.codec_decodes_per_op", per_op(c.decodes as f64));
    rep.set(
        "marray.codec_dense_mb_per_op",
        per_op(c.dense_bytes as f64) / 1e6,
    );
    rep.set(
        "marray.codec_ratio",
        ratio(c.dense_bytes as f64, c.encoded_bytes as f64),
    );
    rep.set("marray.spills_per_op", per_op(c.spills as f64));
    rep.set("marray.reloads_per_op", per_op(c.reloads as f64));
    rep.set(
        "marray.spill_mb_per_op",
        per_op(c.spilled_bytes as f64) / 1e6,
    );
}

/// Per-layer metrics a batch workload reads from its spans: ingest time
/// and rate, each variant's median, the ops' exact counter deltas, and
/// the unattributed share of op time.
fn record_spans(
    rep: &mut Report,
    spans: &[Span],
    variants: &[Variant],
    cycle: usize,
    ingested_bytes: usize,
) {
    let ingest = trace::durations_ms(spans, "formats.ingest");
    rep.set("formats.ingest_ms_p50", median(&ingest));
    rep.set(
        "formats.ingest_mb_s",
        ratio(
            ingested_bytes as f64 / 1e6,
            ingest.iter().sum::<f64>() / 1e3,
        ),
    );
    for v in variants {
        rep.set(v.metric, median(&trace::durations_ms(spans, v.span)));
    }
    // The window holds whole cycles of identical calls: dividing the
    // totals by the cycle count first keeps the per-op figures
    // bit-identical between runs that fit a different number of cycles.
    let (ops, c) = trace::op_counters(spans);
    let cycles = (ops / cycle).max(1) as f64;
    record_counters(rep, |v| v / cycles / cycle as f64, &c);
    rep.set("trace.unattributed_frac", trace::unattributed_frac(spans));
}

/// Keep the per-layer self-time table and write the spans out.
fn finish_trace(cfg: &RunCfg, rep: &mut Report, spans: &[Span]) {
    rep.layer_self_ms = trace::layer_self_ms(spans);
    if let Some(path) = &cfg.trace_path {
        if let Err(e) = trace::write_jsonl(path, spans) {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    }
}
