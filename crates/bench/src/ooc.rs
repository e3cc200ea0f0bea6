//! The `scibench bench ooc` harness: out-of-core execution under the
//! memory governor ([`marray::MemoryGovernor`]).
//!
//! Two sections, both over data deliberately larger than the budget:
//!
//! 1. **Streaming scan** — a stack of dense, incompressible noise planes
//!    is ingested chunk-by-chunk (chunk granularity derived from the
//!    budget via [`scibench_core::costmodel::choose_chunk_shape`]) and
//!    reduced in two passes (forward sums, reverse sums of squares), with
//!    the pin released after every chunk. The same scan runs under three
//!    budgets — 25 % of the dataset, 50 %, and unbounded — and the gates
//!    are the tentpole claims: the three output fingerprints are
//!    bit-identical (spill/reload is bit-exact), every bounded row
//!    actually spilled *and* reloaded, and governor-measured peak
//!    residency never exceeded the budget. The 25 % row's measured peak
//!    is then compared against [`plancheck::estimated_peak_demand`] over
//!    a task graph modeling the same chunked scan; the two must agree
//!    within [`DEMAND_FACTOR`].
//! 2. **Engine analogs** — every runnable pipeline/engine combination
//!    from the e2e suite executes once unbounded and once under a budget
//!    far below its dataset ([`ENGINE_BUDGET`]), asserting fingerprint
//!    equality per engine. Peak residency is not bounded here: kernels
//!    legitimately pin whole working sets (that overshoot is recorded,
//!    not hidden), but the spill traffic shows the engine analogs really
//!    executing through the governor, and every engine row must read a
//!    non-zero peak: an engine whose data never enters the governor
//!    would escape the budget unseen. Configurations the paper reports
//!    as statically refused for memory (Figure 15) are exercised at the
//!    service layer instead — see the sciserve admission tests.
//!
//! Results serialize as `BENCH_ooc.json` (schema `scibench-bench-ooc/v1`).

use crate::kernels::Fingerprint;
use marray::{with_mem_budget, GovStats, MemoryGovernor, NdArray};
use scibench_core::costmodel::choose_chunk_shape;
use simcluster::{ClusterSpec, TaskGraph, TaskSpec};
use std::time::Instant;

/// Accepted spread between the plancheck antichain-demand estimate and
/// the governor-measured peak residency of the tightest streaming row.
/// The estimate is a *minimal working set* (what the plan needs live at
/// once); the governor's LRU keeps every byte the budget allows resident,
/// so the measured peak legitimately sits above the estimate — up to the
/// budget-over-chunk ratio (`4 × CHUNK_BUDGET_SLACK = 16` at the 25 %
/// budget) — and never below it by more than transient double-residency.
pub const DEMAND_FACTOR: f64 = 16.0;

/// Memory budget for the engine-analog section: far below every
/// dataset's ingest footprint, so all five analogs execute out-of-core.
pub const ENGINE_BUDGET: u64 = 64 << 10;

/// One streaming scan under one budget.
#[derive(Debug, Clone)]
pub struct ChunkRow {
    /// Budget label: `"25%"`, `"50%"` or `"unbounded"`.
    pub label: &'static str,
    /// Budget in bytes (0 = unbounded).
    pub budget_bytes: u64,
    /// Planes per chunk, from the budget-derived granularity formula.
    pub chunk_rows: usize,
    /// Bytes per full chunk.
    pub chunk_bytes: u64,
    /// Output fingerprint (must match across every row).
    pub fingerprint: u64,
    /// Governor ledger delta over this row.
    pub gov: GovStats,
    /// Wall milliseconds.
    pub ms: f64,
}

/// One engine analog run unbounded and under [`ENGINE_BUDGET`].
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Use case: `"neuro"` or `"astro"`.
    pub pipeline: &'static str,
    /// Engine analog.
    pub engine: &'static str,
    /// Governor ledger delta over the budgeted run.
    pub gov: GovStats,
    /// Unbounded and budgeted fingerprints matched bit for bit.
    pub outputs_identical: bool,
    /// Wall milliseconds unbounded.
    pub ms_unbounded: f64,
    /// Wall milliseconds under the budget.
    pub ms_budget: f64,
}

/// Everything `scibench bench ooc` reports and gates on.
pub struct OocRun {
    /// Streaming dataset footprint in bytes.
    pub dataset_bytes: u64,
    /// Streaming rows, tightest budget first, unbounded last.
    pub rows: Vec<ChunkRow>,
    /// Plancheck's antichain-demand estimate for the chunked scan.
    pub estimated_demand_bytes: u64,
    /// Governor-measured peak residency of the tightest bounded row.
    pub measured_peak_bytes: u64,
    /// `measured_peak_bytes / estimated_demand_bytes`.
    pub demand_ratio: f64,
    /// Engine-analog rows.
    pub engines: Vec<EngineRow>,
    /// Acceptance failures (empty on a green run).
    pub violations: Vec<String>,
}

/// Streaming geometry: `(planes, rows, cols)` of f64 noise.
fn geometry(quick: bool) -> (usize, usize, usize) {
    if quick {
        (24, 96, 96)
    } else {
        (48, 160, 160)
    }
}

/// Deterministic incompressible noise in `[0, 1)`, addressed by global
/// plane/row/col so the values — and therefore the fingerprints — cannot
/// depend on how a budget happened to chunk the stack (SplitMix64).
fn noise(plane: usize, row: usize, col: usize) -> f64 {
    let mut z = ((plane as u64) << 40) ^ ((row as u64) << 20) ^ col as u64;
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// One streaming scan: ingest governed chunks, then a forward pass of
/// per-plane sums and a reverse pass of per-plane sums of squares, the
/// pin released after every chunk so the working set — not the traversal
/// history — is what counts against the budget. Returns
/// `(fingerprint, chunk_rows)`.
fn streaming_scan(n: usize, h: usize, w: usize, budget: Option<u64>) -> (u64, usize) {
    let chunk_rows = choose_chunk_shape(&[n, h, w], 8, 1, budget)[0];
    let mut chunks: Vec<NdArray<f64>> = Vec::new();
    let mut base = 0;
    while base < n {
        let rows = chunk_rows.min(n - base);
        let raw = NdArray::from_fn(&[rows, h, w], |ix| noise(base + ix[0], ix[1], ix[2]));
        chunks.push(raw.govern());
        base += rows;
    }
    MemoryGovernor::enforce();

    let mut sums = vec![0.0f64; n];
    let mut base = 0;
    for chunk in &mut chunks {
        for (p, plane) in chunk.slabs().enumerate() {
            sums[base + p] = plane.iter().sum();
        }
        base += chunk.dims()[0];
        chunk.release();
    }
    let mut sumsqs = vec![0.0f64; n];
    let mut top = n;
    for chunk in chunks.iter_mut().rev() {
        top -= chunk.dims()[0];
        for (p, plane) in chunk.slabs().enumerate() {
            sumsqs[top + p] = plane.iter().map(|v| v * v).sum();
        }
        chunk.release();
    }
    MemoryGovernor::enforce();

    let mut fp = Fingerprint::new();
    fp.push_slice(&sums);
    fp.push_slice(&sumsqs);
    (fp.finish(), chunk_rows)
}

/// The task graph modeling the chunked scan for plancheck: a sequential
/// chain of per-chunk scan tasks, each holding one chunk resident
/// (`mem`) and handing it downstream (`output`). The chain is totally
/// ordered, so the antichain-demand estimate is a single chunk — the
/// *minimal* working set, which the LRU governor legitimately exceeds by
/// keeping every byte the budget allows resident (see [`DEMAND_FACTOR`]).
fn scan_graph(chunks: usize, chunk_bytes: u64) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut prev = None;
    for _ in 0..chunks {
        let mut spec = TaskSpec::compute("ooc:scan", 1.0)
            .mem(chunk_bytes)
            .output(chunk_bytes);
        if let Some(p) = prev {
            spec = spec.after(&[p]);
        }
        prev = Some(g.add(spec));
    }
    g
}

/// Run the full out-of-core suite.
pub fn run_ooc(quick: bool) -> OocRun {
    let (n, h, w) = geometry(quick);
    let dataset_bytes = (n * h * w * 8) as u64;
    let mut violations = Vec::new();

    // Section 1: the streaming scan under three budgets.
    let budgets: [(&'static str, Option<u64>); 3] = [
        ("25%", Some(dataset_bytes / 4)),
        ("50%", Some(dataset_bytes / 2)),
        ("unbounded", None),
    ];
    let mut rows = Vec::new();
    for (label, budget) in budgets {
        let row = with_mem_budget(budget, || {
            let before = MemoryGovernor::snapshot();
            MemoryGovernor::reset_peak();
            let t = Instant::now();
            let (fingerprint, chunk_rows) = streaming_scan(n, h, w, budget);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            ChunkRow {
                label,
                budget_bytes: budget.unwrap_or(0),
                chunk_rows,
                chunk_bytes: (chunk_rows * h * w * 8) as u64,
                fingerprint,
                gov: MemoryGovernor::snapshot().since(&before),
                ms,
            }
        });
        rows.push(row);
    }
    for pair in rows.windows(2) {
        if pair[0].fingerprint != pair[1].fingerprint {
            violations.push(format!(
                "fingerprint diverged between the {} and {} budgets",
                pair[0].label, pair[1].label
            ));
        }
    }
    for r in &rows {
        if r.budget_bytes == 0 {
            if r.gov.spills != 0 {
                violations.push(format!("unbounded row spilled {} cell(s)", r.gov.spills));
            }
            continue;
        }
        if r.gov.spills == 0 || r.gov.reloads == 0 {
            violations.push(format!(
                "{} row did not exercise the spill tier (spills {}, reloads {})",
                r.label, r.gov.spills, r.gov.reloads
            ));
        }
        if r.gov.peak_resident > r.budget_bytes {
            violations.push(format!(
                "{} row peak residency {} exceeded the budget {}",
                r.label, r.gov.peak_resident, r.budget_bytes
            ));
        }
    }

    // Plancheck's estimate for the same chunked scan, against the
    // tightest row's measured peak.
    let tight = &rows[0];
    let n_chunks = n.div_ceil(tight.chunk_rows.max(1));
    let cluster = ClusterSpec::r3_2xlarge(1);
    let estimated_demand_bytes =
        plancheck::estimated_peak_demand(&scan_graph(n_chunks, tight.chunk_bytes), &cluster);
    let measured_peak_bytes = tight.gov.peak_resident;
    let demand_ratio = measured_peak_bytes as f64 / estimated_demand_bytes.max(1) as f64;
    if estimated_demand_bytes == 0 {
        violations.push("plancheck produced no demand estimate for the scan graph".into());
    } else if !(1.0 / DEMAND_FACTOR..=DEMAND_FACTOR).contains(&demand_ratio) {
        violations.push(format!(
            "measured peak {measured_peak_bytes} vs plancheck estimate \
             {estimated_demand_bytes} (ratio {demand_ratio:.2}) outside the \
             {DEMAND_FACTOR}x bound"
        ));
    }

    // Section 2: every runnable engine analog, unbounded vs budgeted.
    let (cases, _skipped) = crate::e2e::suite(quick);
    let mut engines = Vec::new();
    for case in &cases {
        let t = Instant::now();
        let fp_unbounded = with_mem_budget(None, || case.run());
        let ms_unbounded = t.elapsed().as_secs_f64() * 1e3;
        let (fp_budget, gov, ms_budget) = with_mem_budget(Some(ENGINE_BUDGET), || {
            let before = MemoryGovernor::snapshot();
            MemoryGovernor::reset_peak();
            let t = Instant::now();
            let fp = case.run();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            MemoryGovernor::enforce();
            (fp, MemoryGovernor::snapshot().since(&before), ms)
        });
        let outputs_identical = fp_unbounded == fp_budget;
        if !outputs_identical {
            violations.push(format!(
                "{}/{} diverged between unbounded and budgeted runs",
                case.pipeline, case.engine
            ));
        }
        engines.push(EngineRow {
            pipeline: case.pipeline,
            engine: case.engine,
            gov,
            outputs_identical,
            ms_unbounded,
            ms_budget,
        });
    }
    violations.extend(engine_gates(&engines));

    OocRun {
        dataset_bytes,
        rows,
        estimated_demand_bytes,
        measured_peak_bytes,
        demand_ratio,
        engines,
        violations,
    }
}

/// The budgeted engine rows' gates: some analog spilled, and none kept
/// its data out of the governor (a budgeted row reading `peak_resident:
/// 0`).
fn engine_gates(engines: &[EngineRow]) -> Vec<String> {
    let mut violations = Vec::new();
    if engines.iter().all(|e| e.gov.spills == 0) {
        violations.push("no engine analog spilled under the engine budget".into());
    }
    for e in engines.iter().filter(|e| e.gov.peak_resident == 0) {
        violations.push(format!(
            "{}/{} governed no byte under the engine budget (peak_resident 0)",
            e.pipeline, e.engine
        ));
    }
    violations
}

/// Render `BENCH_ooc.json` (schema `scibench-bench-ooc/v1`). Hand-rolled
/// like the other bench writers: no JSON dependency in the workspace.
pub fn results_to_json(run: &OocRun, host_parallelism: usize, quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"scibench-bench-ooc/v1\",\n");
    out.push_str(&crate::hostinfo::host_block(host_parallelism));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"dataset_bytes\": {},\n", run.dataset_bytes));
    out.push_str("  \"budget_rows\": [\n");
    for (i, r) in run.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"budget\": \"{}\", \"budget_bytes\": {}, \"chunk_rows\": {}, \
             \"chunk_bytes\": {}, \"fingerprint\": \"{:016x}\", \"spills\": {}, \
             \"reloads\": {}, \"spilled_bytes\": {}, \"reloaded_bytes\": {}, \
             \"peak_resident\": {}, \"ms\": {:.2}}}{}\n",
            r.label,
            r.budget_bytes,
            r.chunk_rows,
            r.chunk_bytes,
            r.fingerprint,
            r.gov.spills,
            r.gov.reloads,
            r.gov.spilled_bytes,
            r.gov.reloaded_bytes,
            r.gov.peak_resident,
            r.ms,
            if i + 1 < run.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"plancheck\": {{\"estimated_demand_bytes\": {}, \"measured_peak_bytes\": {}, \
         \"ratio\": {:.2}, \"factor_bound\": {:.1}}},\n",
        run.estimated_demand_bytes, run.measured_peak_bytes, run.demand_ratio, DEMAND_FACTOR
    ));
    out.push_str(&format!("  \"engine_budget_bytes\": {ENGINE_BUDGET},\n"));
    out.push_str("  \"engines\": [\n");
    for (i, e) in run.engines.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"pipeline\": \"{}\", \"engine\": \"{}\", \"spills\": {}, \"reloads\": {}, \
             \"spilled_bytes\": {}, \"peak_resident\": {}, \"outputs_identical\": {}, \
             \"ms_unbounded\": {:.2}, \"ms_budget\": {:.2}}}{}\n",
            e.pipeline,
            e.engine,
            e.gov.spills,
            e.gov.reloads,
            e.gov.spilled_bytes,
            e.gov.peak_resident,
            e.outputs_identical,
            e.ms_unbounded,
            e.ms_budget,
            if i + 1 < run.engines.len() { "," } else { "" }
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
    fn streaming_scan_is_budget_invariant_and_respects_the_budget() {
        let (n, h, w) = (12, 32, 32);
        let total = (n * h * w * 8) as u64;
        let unbounded = with_mem_budget(None, || streaming_scan(n, h, w, None));
        let bounded = with_mem_budget(Some(total / 4), || {
            let before = MemoryGovernor::snapshot();
            MemoryGovernor::reset_peak();
            let out = streaming_scan(n, h, w, Some(total / 4));
            (out, MemoryGovernor::snapshot().since(&before))
        });
        let ((fp, chunk_rows), gov) = bounded;
        assert_eq!(fp, unbounded.0, "spill/reload must be bit-exact");
        assert!(chunk_rows < n, "a 25% budget must split the stack");
        assert!(gov.spills > 0 && gov.reloads > 0);
        assert!(gov.peak_resident <= total / 4);
    }

    #[test]
    fn scan_graph_demand_is_positive_and_chunk_scaled() {
        let demand =
            plancheck::estimated_peak_demand(&scan_graph(16, 1 << 20), &ClusterSpec::r3_2xlarge(1));
        assert!(demand >= 1 << 20, "at least one chunk is always live");
        assert!(
            demand < 16 << 20,
            "a sequential chain never needs the whole stack"
        );
    }

    #[test]
    fn engine_rows_must_spill_somewhere_and_each_govern_some_bytes() {
        let row = |engine, spills, peak_resident| EngineRow {
            pipeline: "astro",
            engine,
            gov: GovStats {
                spills,
                peak_resident,
                ..GovStats::default()
            },
            outputs_identical: true,
            ms_unbounded: 1.0,
            ms_budget: 1.0,
        };
        assert!(engine_gates(&[row("spark", 2, 10), row("scidb", 0, 5)]).is_empty());
        let ungoverned = engine_gates(&[row("spark", 2, 10), row("myria", 0, 0)]);
        assert_eq!(ungoverned.len(), 1);
        assert!(ungoverned[0].starts_with("astro/myria governed no byte"));
        assert_eq!(engine_gates(&[row("spark", 0, 10)]).len(), 1);
    }

    #[test]
    fn json_schema_and_fields_are_stable() {
        let run = OocRun {
            dataset_bytes: 1 << 20,
            rows: vec![ChunkRow {
                label: "25%",
                budget_bytes: 1 << 18,
                chunk_rows: 1,
                chunk_bytes: 1 << 16,
                fingerprint: 0xabcd,
                gov: GovStats::default(),
                ms: 1.0,
            }],
            estimated_demand_bytes: 1 << 17,
            measured_peak_bytes: 1 << 18,
            demand_ratio: 2.0,
            engines: vec![EngineRow {
                pipeline: "neuro",
                engine: "spark",
                gov: GovStats::default(),
                outputs_identical: true,
                ms_unbounded: 2.0,
                ms_budget: 3.0,
            }],
            violations: Vec::new(),
        };
        let json = results_to_json(&run, 1, true);
        assert!(json.contains("\"schema\": \"scibench-bench-ooc/v1\""));
        assert!(json.contains("\"single_core_host\": true"));
        assert!(json.contains("\"fingerprint\": \"000000000000abcd\""));
        assert!(json.contains("\"factor_bound\": 16.0"));
        assert!(json.contains("\"outputs_identical\": true"));
        assert!(!json.contains(",\n  ]"), "no trailing comma:\n{json}");
    }
}
