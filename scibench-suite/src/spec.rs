//! The benchmark's single source of truth: workloads, metrics, units and
//! regression bounds. `BENCHMARK.json` at the repository root is rendered
//! from these tables by `scibench-suite emit-benchmark-json`, and a test
//! keeps the committed file byte-identical to that rendering.

use crate::json::escape;

/// How long one measured window lasts, in seconds. The host's speed
/// drifts over seconds to minutes, and a run's figures steady as its
/// window spans more of that drift; 35 s is about the longest window at
/// which two sets of ten runs of every workload, with their traced runs
/// and set-ups, still finish within an hour.
pub const RUN_SECONDS: u64 = 35;

/// The command a checkout runs (from its root) to execute the benchmark;
/// `--workload W --seed S --seconds N --trace 0|1` are appended.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "scibench-suite/Cargo.toml",
    "--",
    "run",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["scibench-suite"];

/// One workload: a name and the reason it is in the benchmark.
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload was chosen (one line).
    pub why: &'static str,
}

/// The three workloads, in the order runs and reports list them.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "ooc",
        why: "NIfTI ingest plus FA on five engine analogs and native code under a 512 KiB memory \
              budget: kernels dominate, dense data idles the codec, and only this one spills",
    },
    WorkloadSpec {
        name: "astro",
        why: "FITS decode plus coadd and detection on Spark, Myria, SciDB and native code; packed \
              mask and variance planes load the codec and the copy path",
    },
    WorkloadSpec {
        name: "serve",
        why: "two closed-loop clients on the resident service with the result cache at 62% of \
              the working set, so hits, misses and LRU eviction all stay busy",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Higher => "higher",
            Lower => "lower",
        }
    }
}

/// One metric with its unit; end-to-end metrics also carry the share of
/// the parent's median by which they may worsen before a change counts as
/// a regression.
pub struct Metric {
    /// Metric name as printed and stored.
    pub name: &'static str,
    /// Unit as printed and stored.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off. Failed operations are
/// reported through the result's `attempted`/`failed` counts rather than
/// as a metric, because a metric here must never read 0.
///
/// The bounds cover the run-to-run spread measured on a shared 2-CPU
/// host, where the whole machine's speed drifted by up to a factor of two
/// for a minute or more at a time; the README records the measurements.
pub const END_TO_END: &[Metric] = &[
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("latency_ms_p50", "ms", Lower, 0.25),
    e2e("latency_ms_p90", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer metrics, measured in a separate traced run. Layers are named
/// after the crate the suite calls into; a metric that does not apply to
/// a workload reads 0 there (the README lists where each one applies).
pub const PER_LAYER: &[Metric] = &[
    layer("formats.ingest_ms_p50", "ms", Lower),
    layer("formats.ingest_mb_s", "MB/s", Higher),
    layer("engine-rdd.spark_ms_p50", "ms", Lower),
    layer("engine-rel.myria_ms_p50", "ms", Lower),
    layer("engine-taskgraph.dask_ms_p50", "ms", Lower),
    layer("engine-dataflow.tensorflow_ms_p50", "ms", Lower),
    layer("engine-array.scidb_ms_p50", "ms", Lower),
    layer("sciops.native_ms_p50", "ms", Lower),
    layer("marray.copies_per_op", "1/op", Lower),
    layer("marray.copy_mb_per_op", "MB/op", Lower),
    layer("marray.codec_encodes_per_op", "1/op", Lower),
    layer("marray.codec_decodes_per_op", "1/op", Lower),
    layer("marray.codec_dense_mb_per_op", "MB/op", Lower),
    layer("marray.codec_ratio", "x", Higher),
    layer("marray.spills_per_op", "1/op", Lower),
    layer("marray.reloads_per_op", "1/op", Lower),
    layer("marray.spill_mb_per_op", "MB/op", Lower),
    layer("marray.gov_peak_mb", "MB", Lower),
    layer("marray.gov_peak_over_budget", "x", Lower),
    layer("sciops.segment_ms", "ms", Lower),
    layer("sciops.denoise_ms", "ms", Lower),
    layer("sciops.dtm_ms", "ms", Lower),
    layer("sciops.calibrate_ms", "ms", Lower),
    layer("sciops.patches_ms", "ms", Lower),
    layer("sciops.coadd_ms", "ms", Lower),
    layer("sciops.detect_ms", "ms", Lower),
    layer("parexec.denoise_speedup", "x", Higher),
    layer("parexec.dtm_speedup", "x", Higher),
    layer("parexec.coadd_speedup", "x", Higher),
    layer("parexec.detect_speedup", "x", Higher),
    layer("serve.hit_us_p50", "us", Lower),
    layer("serve.miss_ms_p50", "ms", Lower),
    layer("serve.miss_req_frac", "frac", Lower),
    layer("scimemo.hit_ratio", "frac", Higher),
    layer("scimemo.misses_per_req", "1/req", Lower),
    layer("scimemo.evictions_per_req", "1/req", Lower),
    layer("scimemo.evicted_mb_per_req", "MB/req", Lower),
    layer("scimemo.resident_mb", "MB", Lower),
    layer("serve.copies_per_req", "1/req", Lower),
    layer("serve.copy_mb_per_req", "MB/req", Lower),
    layer("scilint.purity_s", "s", Lower),
    layer("serve.catalog_s", "s", Lower),
    layer("serve.warmup_s", "s", Lower),
    layer("bench.warmup_s", "s", Lower),
    layer("bench.gen_s", "s", Lower),
    layer("trace.unattributed_frac", "frac", Lower),
    layer("serve.latency_ms_p99", "ms", Lower),
];

/// Look a metric up in either table.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

fn string_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", quoted.join(", "))
}

/// Render `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": {},\n", string_list(COMMAND)));
    out.push_str(&format!("  \"paths\": {},\n", string_list(PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                escape(w.name),
                escape(w.why)
            )
        })
        .collect();
    out.push_str(&format!("  \"workloads\": {},\n", rows(workloads)));
    let metrics = |table: &[Metric]| {
        table
            .iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect()
    };
    out.push_str(&format!(
        "  \"end_to_end\": {},\n",
        rows(metrics(END_TO_END))
    ));
    out.push_str(&format!("  \"per_layer\": {}\n", rows(metrics(PER_LAYER))));
    out.push_str("}\n");
    out
}

/// Where the committed `BENCHMARK.json` lives: the repository root, one
/// level above this package.
pub fn benchmark_json_path() -> std::path::PathBuf {
    crate::repo_root().join("BENCHMARK.json")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let committed = std::fs::read_to_string(benchmark_json_path())
            .expect("BENCHMARK.json sits at the repository root");
        assert!(
            committed == benchmark_json(),
            "BENCHMARK.json drifted from the suite's tables; regenerate it with \
             `scibench-suite emit-benchmark-json`"
        );
    }

    #[test]
    fn tables_obey_the_benchmark_json_limits() {
        let doc = Json::parse(&benchmark_json()).expect("rendered JSON parses");
        let keys: Vec<&str> = doc.keys();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let valid_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let valid_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = metric("setup_s").expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the widest bound"
        );
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
