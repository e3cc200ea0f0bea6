//! Experiment drivers: one function per table and figure of the paper's
//! evaluation section. Each returns a [`Table`] in the paper's shape, and
//! [`ARTIFACTS`] lists them in paper order. The scalar helpers
//! (`neuro_e2e`, `astro_e2e`, …) expose the raw numbers that
//! [`shape_checks`], the one list of the paper's headline claims, tests.

use crate::costmodel::{CostModel, KernelScaling};
use crate::lower::{astro, ingest, neuro, steps, Engine, EngineProfiles};
use crate::report::{gb, ratio, secs, Table, FAILED};
use crate::workload::{AstroWorkload, NeuroWorkload};
use engine_rel::ExecutionMode::{self, Materialized, MultiQuery, Pipelined};
use simcluster::{simulate, ClusterSpec, SimError, TaskGraph};

/// Cost model + engine profiles for a whole experiment run.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// Kernel/conversion constants.
    pub cm: CostModel,
    /// Engine architectural constants.
    pub profiles: EngineProfiles,
}

impl Setup {
    /// The cluster an engine runs on, with its tuned worker-slot count
    /// (Myria: 4 workers/node after Figure 13; SciDB: 4 instances/node per
    /// vendor guidance; Spark/Dask/TF: one slot per vCPU).
    pub fn cluster_for(&self, engine: Engine, nodes: usize) -> ClusterSpec {
        let base = ClusterSpec::r3_2xlarge(nodes);
        match engine {
            // Myria's Figure 13 optimum; Dask's thread count was manually
            // tuned the same way (the kernels are memory-bandwidth-bound,
            // so hyperthreads do not help).
            Engine::Myria | Engine::Dask => base.with_worker_slots(4),
            Engine::SciDb => base.with_worker_slots(self.profiles.arr.instances_per_node),
            _ => base,
        }
    }

    /// The neuroscience end-to-end plan `engine` ships (Figures 10c/g):
    /// Spark with tuned partitions and input caching on, SciDB's steps
    /// with the `stream()` denoise, the other engines' own lowering. The
    /// figures, the shipped-plan catalog and the service all lower here.
    pub fn neuro_e2e_plan(
        &self,
        engine: Engine,
        w: &NeuroWorkload,
        cluster: &ClusterSpec,
    ) -> TaskGraph {
        let (cm, profiles) = (&self.cm, &self.profiles);
        match engine {
            Engine::Spark => neuro::spark(
                w,
                cm,
                profiles,
                cluster,
                Some(tuned_partitions(cluster)),
                true,
            ),
            Engine::Myria => neuro::myria(w, cm, profiles, cluster),
            Engine::Dask => neuro::dask(w, cm, profiles, cluster),
            Engine::TensorFlow => neuro::tensorflow(w, cm, profiles, cluster),
            Engine::SciDb => neuro::scidb_steps(w, cm, profiles, cluster, true),
        }
    }

    /// The ingest plan of one of Figure 11's systems, on a cluster of
    /// [`IngestSystem::engine`]'s shape.
    pub fn ingest_plan(
        &self,
        system: IngestSystem,
        w: &NeuroWorkload,
        cluster: &ClusterSpec,
    ) -> TaskGraph {
        let (cm, profiles) = (&self.cm, &self.profiles);
        match system {
            IngestSystem::Dask => ingest::dask(w, cm, profiles, cluster),
            IngestSystem::Myria => ingest::myria(w, cm, profiles, cluster),
            IngestSystem::Spark => ingest::spark(w, cm, profiles, cluster),
            IngestSystem::TensorFlow => ingest::tensorflow(w, cm, profiles, cluster),
            IngestSystem::SciDb1 => ingest::scidb_from_array(w, cm, profiles, cluster),
            IngestSystem::SciDb2 => ingest::scidb_aio(w, cm, profiles, cluster),
        }
    }

    // scilint: allow(F001, paper-script experiment driver: an infra fault aborts the whole run as the original cluster scripts do; TODO(flow): thread Result into the bench CLI)
    fn run(&self, engine: Engine, g: &TaskGraph, cluster: &ClusterSpec) -> f64 {
        simulate(g, cluster, self.profiles.policy(engine), false)
            .expect("non-strict run cannot fail")
            .makespan
    }
}

/// Tuned Spark partition count for a cluster (≈2 tasks per slot, the
/// "sufficiently large" region of Figure 14).
pub fn tuned_partitions(cluster: &ClusterSpec) -> usize {
    2 * cluster.total_slots()
}

// ---------------------------------------------------------------------------
// Scalar helpers
// ---------------------------------------------------------------------------

/// End-to-end neuroscience runtime for one engine (Figure 10c/g).
pub fn neuro_e2e(setup: &Setup, engine: Engine, subjects: usize, nodes: usize) -> f64 {
    let cluster = setup.cluster_for(engine, nodes);
    let g = setup.neuro_e2e_plan(engine, &NeuroWorkload { subjects }, &cluster);
    setup.run(engine, &g, &cluster)
}

/// End-to-end astronomy runtime (Figure 10d/h); `Err` = out of memory.
// scilint: allow(F001, paper-script experiment driver: an infra fault aborts the whole run as the original cluster scripts do; TODO(flow): thread Result into the bench CLI)
pub fn astro_e2e(
    setup: &Setup,
    engine: Engine,
    visits: usize,
    nodes: usize,
) -> Result<f64, SimError> {
    let w = AstroWorkload { visits };
    let cluster = setup.cluster_for(engine, nodes);
    match engine {
        Engine::Spark => {
            let g = astro::spark(&w, &setup.cm, &setup.profiles, &cluster);
            Ok(setup.run(engine, &g, &cluster))
        }
        Engine::Myria => {
            // The tuned Myria e2e configuration materializes when the data
            // would not fit (the paper tuned per data size); report the
            // best completing mode.
            myria_astro_mode(setup, visits, nodes, Pipelined)
                .or_else(|_| myria_astro_mode(setup, visits, nodes, Materialized))
        }
        other => panic!(
            "{} cannot run the astronomy use case end-to-end",
            other.name()
        ),
    }
}

/// Astronomy runtime for Myria under a specific memory-management mode
/// (Figure 15).
pub fn myria_astro_mode(
    setup: &Setup,
    visits: usize,
    nodes: usize,
    mode: ExecutionMode,
) -> Result<f64, SimError> {
    let w = AstroWorkload { visits };
    let cluster = setup.cluster_for(Engine::Myria, nodes);
    let (g, strict) = astro::myria(&w, &setup.cm, &setup.profiles, &cluster, mode);
    simulate(&g, &cluster, setup.profiles.policy(Engine::Myria), strict).map(|r| r.makespan)
}

/// The six ingest configurations of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestSystem {
    /// Dask: manual per-node subject placement.
    Dask,
    /// Myria: parallel download from a key list into the local stores.
    Myria,
    /// Spark: master enumeration + parallel download into RDDs.
    Spark,
    /// TensorFlow: everything through the master.
    TensorFlow,
    /// SciDB `from_array()` (serial client path).
    SciDb1,
    /// SciDB `aio_input()` (parallel CSV path).
    SciDb2,
}

impl IngestSystem {
    /// Display name (as in Figure 11's legend).
    pub fn name(&self) -> &'static str {
        match self {
            IngestSystem::Dask => "Dask",
            IngestSystem::Myria => "Myria",
            IngestSystem::Spark => "Spark",
            IngestSystem::TensorFlow => "TensorFlow",
            IngestSystem::SciDb1 => "SciDB-1",
            IngestSystem::SciDb2 => "SciDB-2",
        }
    }

    /// The engine whose cluster the system ingests into.
    pub fn engine(&self) -> Engine {
        match self {
            IngestSystem::Dask => Engine::Dask,
            IngestSystem::Myria => Engine::Myria,
            IngestSystem::Spark => Engine::Spark,
            IngestSystem::TensorFlow => Engine::TensorFlow,
            IngestSystem::SciDb1 | IngestSystem::SciDb2 => Engine::SciDb,
        }
    }

    /// All six, in the figure's order.
    pub fn all() -> [IngestSystem; 6] {
        [
            IngestSystem::Dask,
            IngestSystem::Myria,
            IngestSystem::Spark,
            IngestSystem::TensorFlow,
            IngestSystem::SciDb1,
            IngestSystem::SciDb2,
        ]
    }
}

/// Ingest time on a 16-node cluster (Figure 11).
pub fn ingest_time(setup: &Setup, system: IngestSystem, subjects: usize) -> f64 {
    let engine = system.engine();
    let cluster = setup.cluster_for(engine, 16);
    let g = setup.ingest_plan(system, &NeuroWorkload { subjects }, &cluster);
    setup.run(engine, &g, &cluster)
}

/// One of the Figure 12 steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Figure 12a.
    Filter,
    /// Figure 12b.
    Mean,
    /// Figure 12c.
    Denoise,
}

/// Per-step runtime on 16 nodes (Figures 12a–c).
pub fn step_time(setup: &Setup, engine: Engine, step: Step, subjects: usize) -> f64 {
    let w = NeuroWorkload { subjects };
    let cluster = setup.cluster_for(engine, 16);
    let g = match step {
        Step::Filter => steps::filter_step(engine, &w, &setup.cm, &setup.profiles, &cluster),
        Step::Mean => steps::mean_step(engine, &w, &setup.cm, &setup.profiles, &cluster),
        Step::Denoise => steps::denoise_step(engine, &w, &setup.cm, &setup.profiles, &cluster),
    };
    setup.run(engine, &g, &cluster)
}

/// SciDB co-addition runtime (Figure 12d + the §5.3.1 chunk sweep).
pub fn scidb_coadd_time(setup: &Setup, visits: usize, chunk_px: usize, incremental: bool) -> f64 {
    let w = AstroWorkload { visits };
    let cluster = setup.cluster_for(Engine::SciDb, 16);
    let mut profiles = setup.profiles;
    if incremental {
        profiles.arr = profiles.arr.with_incremental_iteration();
    }
    let g = astro::scidb_coadd(&w, &setup.cm, &profiles, &cluster, chunk_px);
    setup.run(Engine::SciDb, &g, &cluster)
}

/// Spark/Myria co-addition step runtime (the Figure 12d comparison bars):
/// merge + coadd only, inputs resident.
pub fn udf_coadd_time(setup: &Setup, engine: Engine, visits: usize) -> f64 {
    let cluster = setup.cluster_for(engine, 16);
    let mut g = TaskGraph::new();
    let pv = astro::patch_visit_bytes();
    let crossing = match engine {
        Engine::Spark => setup.profiles.rdd.crossing_time(pv * visits as u64),
        _ => setup.profiles.rel.crossing_time(pv * visits as u64),
    };
    for p in 0..AstroWorkload::PATCHES {
        g.add(
            simcluster::TaskSpec::compute(
                "coadd",
                setup.cm.astro_coadd_per_patch * visits as f64 / 24.0 + 2.0 * crossing,
            )
            .mem(3 * pv * visits as u64)
            .on_node(p % cluster.nodes),
        );
    }
    setup.run(engine, &g, &cluster)
}

// ---------------------------------------------------------------------------
// Table/figure builders
// ---------------------------------------------------------------------------

/// A runtime table: one row per `rows` value and, after the row's label,
/// one cell per `cols` value holding `cell(row, col)` in seconds, or
/// [`FAILED`] for a run that went out of memory.
fn sweep<R: Copy + ToString, C: Copy>(
    title: &str,
    header: &[&str],
    rows: impl IntoIterator<Item = R>,
    cols: &[C],
    cell: impl Fn(R, C) -> Result<f64, SimError>,
) -> Table {
    let mut t = Table::new(title, header);
    for r in rows {
        let mut row = vec![r.to_string()];
        for &c in cols {
            row.push(cell(r, c).map(secs).unwrap_or_else(|_| FAILED.into()));
        }
        t.push(row);
    }
    t
}

/// Table 1 (paper LoC + our API-call counts side by side).
pub fn table1() -> Vec<Table> {
    use crate::complexity::{our_table1, paper_table1, COLUMNS};
    let build = |rows: Vec<crate::complexity::Row>, title: &str| {
        let mut header = vec!["Use case", "Step"];
        header.extend(COLUMNS.map(|e| e.name()));
        let mut t = Table::new(title, &header);
        for r in rows {
            let mut row = vec![r.use_case.to_string(), r.step.to_string()];
            row.extend(r.cells.iter().map(ToString::to_string));
            t.push(row);
        }
        t
    };
    vec![
        build(
            paper_table1(),
            "Table 1 (paper): lines of code per implementation",
        ),
        build(
            our_table1(),
            "Table 1 (ours): engine API calls / plan operators per implementation",
        ),
    ]
}

/// Figure 10a: neuroscience data sizes.
pub fn fig10a() -> Table {
    let mut t = Table::new(
        "Fig 10a: Neuroscience data sizes (GB)",
        &["Subjects", "Input", "Largest Intermediate"],
    );
    for w in NeuroWorkload::sweep() {
        t.push(vec![
            w.subjects.to_string(),
            gb(w.input_bytes()),
            gb(w.largest_intermediate_bytes()),
        ]);
    }
    t
}

/// Figure 10b: astronomy data sizes.
pub fn fig10b() -> Table {
    let mut t = Table::new(
        "Fig 10b: Astronomy data sizes (GB)",
        &["Visits", "Input", "Largest Intermediate"],
    );
    for w in AstroWorkload::sweep() {
        t.push(vec![
            w.visits.to_string(),
            gb(w.input_bytes()),
            gb(w.largest_intermediate_bytes()),
        ]);
    }
    t
}

/// Figure 10c: neuroscience end-to-end runtime vs data size (16 nodes).
pub fn fig10c(setup: &Setup) -> Table {
    sweep(
        "Fig 10c: Neuroscience end-to-end runtime vs data size, 16 nodes (s)",
        &["Subjects", "Dask", "Myria", "Spark"],
        NeuroWorkload::sweep().iter().map(|w| w.subjects),
        &Engine::neuro_e2e(),
        |subjects, e| Ok(neuro_e2e(setup, e, subjects, 16)),
    )
}

/// Figure 10d: astronomy end-to-end runtime vs data size (16 nodes).
pub fn fig10d(setup: &Setup) -> Table {
    sweep(
        "Fig 10d: Astronomy end-to-end runtime vs data size, 16 nodes (s)",
        &["Visits", "Myria", "Spark"],
        AstroWorkload::sweep().iter().map(|w| w.visits),
        &Engine::astro_e2e(),
        |visits, e| astro_e2e(setup, e, visits, 16),
    )
}

/// Figure 10e: normalized neuroscience runtime per subject.
pub fn fig10e(setup: &Setup) -> Table {
    let mut t = Table::new(
        "Fig 10e: Neuroscience normalized runtime per subject",
        &["Subjects", "Dask", "Myria", "Spark"],
    );
    let base: Vec<f64> = Engine::neuro_e2e()
        .iter()
        .map(|&e| neuro_e2e(setup, e, 1, 16))
        .collect();
    for w in NeuroWorkload::sweep() {
        let mut row = vec![w.subjects.to_string()];
        for (i, &e) in Engine::neuro_e2e().iter().enumerate() {
            let time = neuro_e2e(setup, e, w.subjects, 16);
            row.push(ratio(time / (w.subjects as f64 * base[i])));
        }
        t.push(row);
    }
    t
}

/// Figure 10f: normalized astronomy runtime per visit.
// scilint: allow(F001, paper-script experiment driver: an infra fault aborts the whole run as the original cluster scripts do; TODO(flow): thread Result into the bench CLI)
pub fn fig10f(setup: &Setup) -> Table {
    let mut t = Table::new(
        "Fig 10f: Astronomy normalized runtime per visit",
        &["Visits", "Spark", "Myria"],
    );
    let base_spark = astro_e2e(setup, Engine::Spark, 2, 16).expect("2 visits fit");
    let base_myria = astro_e2e(setup, Engine::Myria, 2, 16).expect("2 visits fit");
    for w in AstroWorkload::sweep() {
        let n = w.visits as f64 / 2.0;
        let s = astro_e2e(setup, Engine::Spark, w.visits, 16);
        let m = astro_e2e(setup, Engine::Myria, w.visits, 16);
        t.push(vec![
            w.visits.to_string(),
            s.map(|v| ratio(v / (n * base_spark)))
                .unwrap_or_else(|_| FAILED.into()),
            m.map(|v| ratio(v / (n * base_myria)))
                .unwrap_or_else(|_| FAILED.into()),
        ]);
    }
    t
}

/// Figure 10g: neuroscience runtime vs cluster size (25 subjects).
pub fn fig10g(setup: &Setup) -> Table {
    let mut t = Table::new(
        "Fig 10g: Neuroscience end-to-end runtime vs cluster size, 25 subjects (s)",
        &["Nodes", "Dask", "Myria", "Spark", "Ideal-speedup(Myria)"],
    );
    let base_myria = neuro_e2e(setup, Engine::Myria, 25, 16);
    for nodes in [16usize, 32, 48, 64] {
        t.push(vec![
            nodes.to_string(),
            secs(neuro_e2e(setup, Engine::Dask, 25, nodes)),
            secs(neuro_e2e(setup, Engine::Myria, 25, nodes)),
            secs(neuro_e2e(setup, Engine::Spark, 25, nodes)),
            secs(base_myria * 16.0 / nodes as f64),
        ]);
    }
    t
}

/// Figure 10h: astronomy runtime vs cluster size (24 visits).
pub fn fig10h(setup: &Setup) -> Table {
    sweep(
        "Fig 10h: Astronomy end-to-end runtime vs cluster size, 24 visits (s)",
        &["Nodes", "Myria", "Spark"],
        [16usize, 32, 48, 64],
        &Engine::astro_e2e(),
        |nodes, e| astro_e2e(setup, e, 24, nodes),
    )
}

/// Figure 11: ingest times (16 nodes), log-scale data in the paper.
pub fn fig11(setup: &Setup) -> Table {
    sweep(
        "Fig 11: Data ingest time, 16 nodes (s; paper plots log scale)",
        &[
            "Subjects",
            "Dask",
            "Myria",
            "Spark",
            "TensorFlow",
            "SciDB-1",
            "SciDB-2",
        ],
        [1usize, 2, 4, 8, 12, 25],
        &IngestSystem::all(),
        |subjects, sys| Ok(ingest_time(setup, sys, subjects)),
    )
}

/// Figures 12a–c: per-step runtimes, largest dataset, 16 nodes.
pub fn fig12(setup: &Setup, step: Step) -> Table {
    let title = match step {
        Step::Filter => "Fig 12a: Filter step, 25 subjects, 16 nodes (s; paper plots log scale)",
        Step::Mean => "Fig 12b: Mean step, 25 subjects, 16 nodes (s; paper plots log scale)",
        Step::Denoise => "Fig 12c: Denoise step, 25 subjects, 16 nodes (s; paper plots log scale)",
    };
    let mut t = Table::new(title, &["Engine", "Time"]);
    for e in [
        Engine::Dask,
        Engine::Myria,
        Engine::Spark,
        Engine::SciDb,
        Engine::TensorFlow,
    ] {
        t.push(vec![
            e.name().to_string(),
            secs(step_time(setup, e, step, 25)),
        ]);
    }
    t
}

/// Figure 12d: co-addition, 24 visits, 16 nodes.
pub fn fig12d(setup: &Setup) -> Table {
    let mut t = Table::new(
        "Fig 12d: Co-addition step, 24 visits, 16 nodes (s; paper plots log scale)",
        &["Engine", "Time"],
    );
    t.push(vec![
        "Myria".into(),
        secs(udf_coadd_time(setup, Engine::Myria, 24)),
    ]);
    t.push(vec![
        "Spark".into(),
        secs(udf_coadd_time(setup, Engine::Spark, 24)),
    ]);
    t.push(vec![
        "SciDB (AQL)".into(),
        secs(scidb_coadd_time(setup, 24, 1000, false)),
    ]);
    t.push(vec![
        "SciDB (+incremental [34])".into(),
        secs(scidb_coadd_time(setup, 24, 1000, true)),
    ]);
    t
}

/// Figure 13: Myria workers per node, 25 subjects, 16 nodes.
pub fn fig13(setup: &Setup) -> Table {
    let mut t = Table::new(
        "Fig 13: Myria execution time vs workers per node (25 subjects, 16 nodes)",
        &["Workers/node", "Time (s)"],
    );
    for workers in [1usize, 2, 4, 6, 8] {
        let cluster = ClusterSpec::r3_2xlarge(16).with_worker_slots(workers);
        let w = NeuroWorkload { subjects: 25 };
        let g = neuro::myria(&w, &setup.cm, &setup.profiles, &cluster);
        t.push(vec![
            workers.to_string(),
            secs(setup.run(Engine::Myria, &g, &cluster)),
        ]);
    }
    t
}

/// Intra-node scaling: re-run the Figure 13 sweep with a *measured* kernel
/// scaling curve substituted for the analytic hyper-threading model, side
/// by side with the analytic prediction. `measured` usually comes from
/// [`KernelScaling::measure`] on the host or from a committed
/// `BENCH_kernels.json` baseline.
pub fn kernel_scaling(setup: &Setup, measured: &KernelScaling) -> Table {
    let mut t = Table::new(
        "Intra-node scaling: Myria neuro (25 subjects, 16 nodes), analytic vs measured curve",
        &[
            "Workers/node",
            "Kernel speedup",
            "Analytic (s)",
            "Measured (s)",
        ],
    );
    for workers in [1usize, 2, 4, 6, 8] {
        let analytic = ClusterSpec::r3_2xlarge(16).with_worker_slots(workers);
        let with_curve = measured.apply_to(analytic.clone());
        let w = NeuroWorkload { subjects: 25 };
        let g = neuro::myria(&w, &setup.cm, &setup.profiles, &analytic);
        t.push(vec![
            workers.to_string(),
            ratio(measured.speedup_at(workers)),
            secs(setup.run(Engine::Myria, &g, &analytic)),
            secs(setup.run(Engine::Myria, &g, &with_curve)),
        ]);
    }
    t
}

/// Figure 14: Spark input partitions, 1 subject, 16 nodes.
pub fn fig14(setup: &Setup) -> Table {
    let mut t = Table::new(
        "Fig 14: Spark execution time vs input partitions (1 subject, 16 nodes)",
        &["Partitions", "Time (s)"],
    );
    let cluster = ClusterSpec::r3_2xlarge(16);
    for p in [1usize, 2, 4, 8, 16, 32, 64, 97, 128, 192, 256] {
        let w = NeuroWorkload { subjects: 1 };
        let g = neuro::spark(&w, &setup.cm, &setup.profiles, &cluster, Some(p), true);
        t.push(vec![
            p.to_string(),
            secs(setup.run(Engine::Spark, &g, &cluster)),
        ]);
    }
    t
}

/// Figure 15: Myria memory-management strategies on the astronomy use
/// case (16 nodes). Includes the paper's 2–24-visit range plus larger
/// extension points where materialization also breaks down.
pub fn fig15(setup: &Setup) -> Table {
    sweep(
        "Fig 15: Myria memory management, astronomy, 16 nodes (s)",
        &["Visits", "Pipelined", "Materialized", "Multi-query"],
        [2usize, 4, 8, 12, 24, 48],
        &[0, 1, 2],
        |visits, col| {
            let pieces = visits.div_ceil(6).max(2);
            let modes = [Pipelined, Materialized, MultiQuery { pieces }];
            myria_astro_mode(setup, visits, 16, modes[col])
        },
    )
}

/// §5.3.1 text: SciDB chunk-size sweep on the co-addition.
pub fn chunk_sweep(setup: &Setup) -> Table {
    let mut t = Table::new(
        "§5.3.1: SciDB coadd vs chunk size (24 visits, 16 nodes)",
        &["Chunk", "Time (s)", "vs 1000x1000"],
    );
    let base = scidb_coadd_time(setup, 24, 1000, false);
    for chunk in [500usize, 1000, 1500, 2000] {
        let time = scidb_coadd_time(setup, 24, chunk, false);
        t.push(vec![
            format!("{chunk}x{chunk}"),
            secs(time),
            format!("{:+.0}%", (time / base - 1.0) * 100.0),
        ]);
    }
    t
}

/// §5.3.1 text: TensorFlow volume-assignment sweep on the filter step.
pub fn tf_assignment(setup: &Setup) -> Table {
    let mut t = Table::new(
        "§5.3.1: TensorFlow filter vs volumes per assignment (4 subjects, 16 nodes)",
        &["Volumes/assignment", "Time (s)"],
    );
    let cluster = setup.cluster_for(Engine::TensorFlow, 16);
    let w = NeuroWorkload { subjects: 4 };
    for vpa in [1usize, 2, 4, 8] {
        let mut g = TaskGraph::new();
        steps::tf_filter_assignment(&mut g, &w, &setup.profiles, &cluster, vpa);
        t.push(vec![
            vpa.to_string(),
            secs(setup.run(Engine::TensorFlow, &g, &cluster)),
        ]);
    }
    t
}

/// §5.3.3: Spark input caching on/off across data sizes.
pub fn caching(setup: &Setup) -> Table {
    let mut t = Table::new(
        "§5.3.3: Spark neuroscience runtime with and without input caching (16 nodes)",
        &["Subjects", "Cached", "Uncached", "Improvement"],
    );
    let cluster = setup.cluster_for(Engine::Spark, 16);
    for subjects in [4usize, 8, 12, 25] {
        let w = NeuroWorkload { subjects };
        let p = Some(tuned_partitions(&cluster));
        let gc = neuro::spark(&w, &setup.cm, &setup.profiles, &cluster, p, true);
        let gu = neuro::spark(&w, &setup.cm, &setup.profiles, &cluster, p, false);
        let tc = setup.run(Engine::Spark, &gc, &cluster);
        let tu = setup.run(Engine::Spark, &gu, &cluster);
        t.push(vec![
            subjects.to_string(),
            secs(tc),
            secs(tu),
            format!("{:.1}%", (1.0 - tc / tu) * 100.0),
        ]);
    }
    t
}

/// §6 extension: the self-tuning searches, default vs tuned per engine.
pub fn autotune(setup: &Setup) -> Table {
    let mut t = Table::new(
        "§6 extension: self-tuning searches (default vs tuned)",
        &[
            "Knob",
            "Default",
            "t(default) s",
            "Tuned",
            "t(tuned) s",
            "Gain",
            "Sim evals",
        ],
    );
    for r in crate::autotune::run_all(setup) {
        t.push(vec![
            r.knob.to_string(),
            r.default_value.to_string(),
            secs(r.default_time),
            r.tuned_value.to_string(),
            secs(r.tuned_time),
            format!("{:.0}%", r.improvement() * 100.0),
            r.evaluations.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_scaling_table_reflects_curve() {
        let setup = Setup::default();
        // A perfectly linear measured curve can only speed runs up (or
        // leave them equal) relative to the analytic model, which charges
        // for hyper-thread interference above 4 workers/node.
        let linear = KernelScaling::from_points(vec![(1, 1.0), (2, 2.0), (4, 4.0), (8, 8.0)]);
        let t = kernel_scaling(&setup, &linear);
        assert_eq!(t.header.len(), 4);
        assert_eq!(t.rows.len(), 5);
        // At 8 workers/node the analytic model penalizes hyper-threads;
        // the linear measured curve does not, so it must be faster.
        let parse = |s: &String| s.trim_end_matches('s').parse::<f64>().unwrap();
        let last = &t.rows[4];
        assert!(parse(&last[3]) < parse(&last[2]), "{last:?}");
    }

    #[test]
    fn tables_have_expected_shapes() {
        let setup = Setup::default();
        let t = fig10a();
        assert_eq!(t.rows.len(), 6);
        let t = fig11(&setup);
        assert_eq!(t.header.len(), 7);
        assert_eq!(t.rows.len(), 6);
    }
}

// ---------------------------------------------------------------------------
// Ablations: remove one mechanism at a time and show what it bought.
// ---------------------------------------------------------------------------

/// Ablation study over the design choices DESIGN.md calls out: each row
/// disables one architectural mechanism and reports the affected metric
/// with and without it. This is an extension beyond the paper, quantifying
/// how much of each engine's behaviour our model attributes to each
/// mechanism.
// scilint: allow(F001, paper-script experiment driver: an infra fault aborts the whole run as the original cluster scripts do; TODO(flow): thread Result into the bench CLI)
pub fn ablations(setup: &Setup) -> Table {
    let mut t = Table::new(
        "Ablations: one mechanism removed at a time",
        &["Mechanism", "Metric", "With", "Without", "Effect"],
    );
    let row = |t: &mut Table, name: &str, metric: &str, with: f64, without: f64| {
        t.push(vec![
            name.to_string(),
            metric.to_string(),
            secs(with),
            secs(without),
            format!("{:+.0}%", (without / with - 1.0) * 100.0),
        ]);
    };

    // 1. Dask work stealing (dynamic load balancing): price stealing out
    //    of the scheduler and watch 25-subject balance suffer.
    {
        let w = NeuroWorkload { subjects: 25 };
        let cluster = setup.cluster_for(Engine::Dask, 16);
        let g = neuro::dask(&w, &setup.cm, &setup.profiles, &cluster);
        let with = simulate(&g, &cluster, setup.profiles.policy(Engine::Dask), false)
            .expect("runs")
            .makespan;
        let frozen = simulate(
            &g,
            &cluster,
            simcluster::SchedPolicy::WorkStealing {
                per_task_overhead: setup.profiles.tg.per_task_overhead,
                steal_cost: 1e6, // effectively forbids stealing
            },
            false,
        )
        .expect("runs")
        .makespan;
        row(
            &mut t,
            "Dask work stealing",
            "neuro e2e, 25 subj, 16 nodes (s)",
            with,
            frozen,
        );
    }

    // 2. Spark's Python-boundary serialization: zero the crossing costs
    //    and watch the Figure 12a filter penalty vanish.
    {
        let mut cheap = setup.clone();
        cheap.profiles.rdd.py_worker_crossing_per_byte = 0.0;
        cheap.profiles.rdd.py_worker_crossing_fixed = 0.0;
        let with = step_time(setup, Engine::Spark, Step::Filter, 25);
        let without = step_time(&cheap, Engine::Spark, Step::Filter, 25);
        row(
            &mut t,
            "Spark Python-boundary serialization",
            "filter step, 25 subj (s)",
            with,
            without,
        );
    }

    // 3. Myria selection pushdown: scan everything instead of the b0 pages.
    {
        let w = NeuroWorkload { subjects: 25 };
        let cluster = setup.cluster_for(Engine::Myria, 16);
        let with = step_time(setup, Engine::Myria, Step::Filter, 25);
        // Without pushdown the scan reads all 288 volumes per subject.
        let mut g = TaskGraph::new();
        let vol = NeuroWorkload::volume_bytes();
        for s in 0..w.subjects {
            for v in 0..NeuroWorkload::VOLUMES {
                g.add(
                    simcluster::TaskSpec::compute(
                        "filter",
                        vol as f64 / setup.profiles.rel.pg_scan_bw,
                    )
                    .disk_read(vol)
                    .on_node((s * 31 + v) % cluster.nodes),
                );
            }
        }
        let without = setup.run(Engine::Myria, &g, &cluster);
        row(
            &mut t,
            "Myria selection pushdown",
            "filter step, 25 subj (s)",
            with,
            without,
        );
    }

    // 4. TensorFlow's missing masked assignment: grant it mask support and
    //    watch the denoise step drop toward the UDF engines.
    {
        let mut masked = setup.clone();
        masked.profiles.df.mask_support = true;
        let with_limit = step_time(setup, Engine::TensorFlow, Step::Denoise, 25);
        let without_limit = step_time(&masked, Engine::TensorFlow, Step::Denoise, 25);
        row(
            &mut t,
            "TensorFlow lacking masked assignment",
            "denoise step, 25 subj (s)",
            with_limit,
            without_limit,
        );
    }

    // 5. SciDB incremental iteration (the paper's [34]): already an engine
    //    flag; shown here as the coadd ablation.
    {
        let with = scidb_coadd_time(setup, 24, 1000, true);
        let without = scidb_coadd_time(setup, 24, 1000, false);
        row(
            &mut t,
            "SciDB incremental iteration [34]",
            "coadd step, 24 visits (s)",
            with,
            without,
        );
    }

    // 6. Hyperthread contention model: give the node 8 full physical cores
    //    and the Figure 13 optimum moves from 4 workers to 8.
    {
        let w = NeuroWorkload { subjects: 25 };
        let mut eight_phys = ClusterSpec::r3_2xlarge(16).with_worker_slots(8);
        eight_phys.node.cores = 16; // 8 physical cores under the cores/2 rule
        let g = neuro::myria(&w, &setup.cm, &setup.profiles, &eight_phys);
        let without_ht = setup.run(Engine::Myria, &g, &eight_phys);
        let real = ClusterSpec::r3_2xlarge(16).with_worker_slots(8);
        let g2 = neuro::myria(&w, &setup.cm, &setup.profiles, &real);
        let with_ht = setup.run(Engine::Myria, &g2, &real);
        row(
            &mut t,
            "Hyperthread/memory-bandwidth contention",
            "Myria 8 workers/node, 25 subj (s)",
            with_ht,
            without_ht,
        );
    }

    t
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    fn value(t: &Table, mechanism: &str, col: usize) -> f64 {
        t.rows
            .iter()
            .find(|r| r[0].contains(mechanism))
            .unwrap_or_else(|| panic!("row {mechanism}"))[col]
            .parse()
            .expect("numeric cell")
    }

    #[test]
    fn ablations_have_expected_directions() {
        let setup = Setup::default();
        let t = ablations(&setup);
        assert_eq!(t.rows.len(), 6);
        // Removing work stealing hurts (imbalanced subjects).
        assert!(value(&t, "work stealing", 3) > value(&t, "work stealing", 2));
        // Removing the Python boundary helps the filter dramatically.
        assert!(value(&t, "Python-boundary", 3) < 0.5 * value(&t, "Python-boundary", 2));
        // Removing pushdown hurts the filter.
        assert!(value(&t, "pushdown", 3) > 2.0 * value(&t, "pushdown", 2));
        // Granting TF mask support helps its denoise.
        assert!(value(&t, "masked assignment", 3) < value(&t, "masked assignment", 2));
        // Removing incremental iteration hurts the coadd ~6×.
        let gain = value(&t, "incremental", 3) / value(&t, "incremental", 2);
        assert!((4.0..9.0).contains(&gain), "gain {gain}");
        // Full physical cores would make 8 workers faster than the HT reality.
        assert!(value(&t, "Hyperthread", 3) < value(&t, "Hyperthread", 2));
    }
}

/// §5.3.2 extension: per-worker data growth in the astronomy pipeline.
///
/// The paper: "the astronomy pipeline grows the data by 2.5× on average
/// during processing, but some workers experience data growth of 6× due to
/// skew". This reports the per-node intermediate (patch-piece) bytes the
/// lowered pipeline actually assigns at 24 visits.
pub fn skew_report(setup: &Setup) -> Table {
    let w = AstroWorkload { visits: 24 };
    let cluster = setup.cluster_for(Engine::Myria, 16);
    let (g, _) = astro::myria(&w, &setup.cm, &setup.profiles, &cluster, Pipelined);

    // Intermediate bytes per node: the merge operators' buffered inputs
    // (mem is 3× the held bytes in the lowering's work_mem convention).
    let mut per_node = vec![0u64; cluster.nodes];
    for task in g.tasks() {
        if task.label == "astro:merge" {
            if let simcluster::Placement::Node(n) = task.placement {
                per_node[n] += task.mem_bytes / 3;
            }
        }
    }
    let input_per_node = w.input_bytes() as f64 / cluster.nodes as f64;
    let mut t = Table::new(
        "§5.3.2 extension: per-worker data growth, astronomy, 24 visits, 16 nodes",
        &["Node", "Intermediate (GB)", "Growth vs input share"],
    );
    for (n, &bytes) in per_node.iter().enumerate() {
        t.push(vec![
            n.to_string(),
            gb(bytes),
            format!("{:.1}x", bytes as f64 / input_per_node),
        ]);
    }
    let total: u64 = per_node.iter().sum();
    let avg = total as f64 / cluster.nodes as f64 / input_per_node;
    let max = per_node.iter().copied().max().unwrap_or(0) as f64 / input_per_node;
    t.push(vec![
        "avg".into(),
        gb(total / cluster.nodes as u64),
        format!("{avg:.1}x"),
    ]);
    t.push(vec!["max".into(), String::new(), format!("{max:.1}x")]);
    t
}

#[cfg(test)]
mod skew_tests {
    use super::*;

    #[test]
    fn skew_matches_paper_numbers() {
        let setup = Setup::default();
        let t = skew_report(&setup);
        let parse = |label: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == label).expect("summary row")[2]
                .trim_end_matches('x')
                .parse()
                .expect("numeric growth")
        };
        let avg = parse("avg");
        let max = parse("max");
        assert!((2.0..3.0).contains(&avg), "average growth {avg} ≈ 2.5×");
        assert!((5.0..7.5).contains(&max), "max worker growth {max} ≈ 6×");
    }
}

/// An artifact driver: builds the artifact's tables.
type Build = fn(&Setup) -> Vec<Table>;

/// Every artifact of the paper's evaluation, in paper order: its
/// `reproduce` id and the driver that builds its tables. `reproduce`
/// prints, lists and writes these, and the `figures` bench times each one
/// but `scaling`, which first measures this host's kernel scaling curve.
pub const ARTIFACTS: &[(&str, Build)] = &[
    ("table1", |_| table1()),
    ("fig10a", |_| vec![fig10a()]),
    ("fig10b", |_| vec![fig10b()]),
    ("fig10c", |s| vec![fig10c(s)]),
    ("fig10d", |s| vec![fig10d(s)]),
    ("fig10e", |s| vec![fig10e(s)]),
    ("fig10f", |s| vec![fig10f(s)]),
    ("fig10g", |s| vec![fig10g(s)]),
    ("fig10h", |s| vec![fig10h(s)]),
    ("fig11", |s| vec![fig11(s)]),
    ("fig12a", |s| vec![fig12(s, Step::Filter)]),
    ("fig12b", |s| vec![fig12(s, Step::Mean)]),
    ("fig12c", |s| vec![fig12(s, Step::Denoise)]),
    ("fig12d", |s| vec![fig12d(s)]),
    ("fig13", |s| vec![fig13(s)]),
    ("fig14", |s| vec![fig14(s)]),
    ("fig15", |s| vec![fig15(s)]),
    ("chunks", |s| vec![chunk_sweep(s)]),
    ("tf_assign", |s| vec![tf_assignment(s)]),
    ("caching", |s| vec![caching(s)]),
    ("ablations", |s| vec![ablations(s)]),
    ("autotune", |s| vec![autotune(s)]),
    ("skew", |s| vec![skew_report(s)]),
    ("scaling", |s| {
        eprintln!("measuring NLM denoise scaling on this host (1/2/4/8 threads)...");
        vec![kernel_scaling(s, &KernelScaling::measure(&[2, 4, 8]))]
    }),
];

/// One shape-fidelity check: a paper claim, whether it holds, and the
/// measured numbers behind the verdict.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// The paper claim being checked.
    pub claim: &'static str,
    /// Whether the reproduction satisfies it.
    pub pass: bool,
    /// Measured evidence.
    pub detail: String,
}

/// The paper's headline claims (who wins, by what factor, where the
/// crossovers fall), each evaluated against the current cost model. This
/// is the one list of them, with the one copy of each bound:
/// `reproduce --check` prints it and exits non-zero on a failed claim, and
/// `tests/integration_simulation.rs` asserts under `cargo test` that every
/// claim holds.
// scilint: allow(F001, paper-script experiment driver: an infra fault aborts the whole run as the original cluster scripts do; TODO(flow): thread Result into the bench CLI)
pub fn shape_checks(setup: &Setup) -> Vec<ShapeCheck> {
    let mut out = Vec::new();
    let mut check = |claim: &'static str, pass: bool, detail: String| {
        out.push(ShapeCheck {
            claim,
            pass,
            detail,
        });
    };
    // A run that went out of memory reads NaN, which fails every bound.
    let or_nan = |r: Result<f64, SimError>| r.unwrap_or(f64::NAN);
    // The time column of a one-column sweep table.
    let times = |t: Table| -> Vec<f64> {
        t.rows
            .iter()
            .map(|r| r[1].parse().expect("time column is a decimal number"))
            .collect()
    };

    // §5.1 end-to-end.
    let d1 = neuro_e2e(setup, Engine::Dask, 1, 16);
    let m1 = neuro_e2e(setup, Engine::Myria, 1, 16);
    let s1 = neuro_e2e(setup, Engine::Spark, 1, 16);
    check(
        "Dask ~60% slower for a single subject",
        d1 > 1.3 * m1.min(s1),
        format!("Dask {d1:.0}s vs Myria {m1:.0}s / Spark {s1:.0}s"),
    );
    let d25 = neuro_e2e(setup, Engine::Dask, 25, 16);
    let m25 = neuro_e2e(setup, Engine::Myria, 25, 16);
    let s25 = neuro_e2e(setup, Engine::Spark, 25, 16);
    let spread = d25.max(m25).max(s25) / d25.min(m25).min(s25);
    check(
        "all three systems comparable at 25 subjects",
        spread < 1.25,
        format!("Dask {d25:.0} / Myria {m25:.0} / Spark {s25:.0} (spread {spread:.2})"),
    );
    check(
        "Dask faster than Spark at 25 subjects, and within 8% of Myria",
        d25 < s25 && d25 < 1.08 * m25,
        format!("Dask {:.2}× Spark, {:.2}× Myria", d25 / s25, d25 / m25),
    );
    let sp = |e| neuro_e2e(setup, e, 25, 16) / neuro_e2e(setup, e, 25, 64);
    let (spd, spm, sps) = (sp(Engine::Dask), sp(Engine::Myria), sp(Engine::Spark));
    check(
        "near-linear 16→64 speedup (2.2–4.2×), Myria closest to ideal, Dask degrades most",
        spm > sps && sps > spd && spd > 2.2 && spm < 4.2,
        format!("speedups: Dask {spd:.2} / Myria {spm:.2} / Spark {sps:.2} (ideal 4)"),
    );
    let am = or_nan(astro_e2e(setup, Engine::Myria, 24, 16));
    let asp = or_nan(astro_e2e(setup, Engine::Spark, 24, 16));
    check(
        "astronomy at 24 visits: Myria leads Spark, within 1.35×",
        am < asp && asp / am < 1.35,
        format!("Myria {am:.0}s vs Spark {asp:.0}s ({:.2}×)", asp / am),
    );

    // Figure 11, in the figure's system order.
    let ingest = |subjects| IngestSystem::all().map(|sys| ingest_time(setup, sys, subjects));
    let ingest_holds = |[dask, myria, spark, tf, scidb1, scidb2]: [f64; 6]| {
        dask > 0.0 && myria < spark && scidb2 > myria && scidb1 / scidb2 > 5.0 && tf > 2.0 * spark
    };
    let (i8, i25) = (ingest(8), ingest(25));
    let show = |[dask, myria, spark, tf, scidb1, scidb2]: [f64; 6]| {
        format!("Dask {dask:.0} Myria {myria:.0} Spark {spark:.0} TF {tf:.0} SciDB-1 {scidb1:.0} SciDB-2 {scidb2:.0}")
    };
    check(
        "ingest at 8 and 25 subjects: Myria < Spark; SciDB-2 above Myria; aio >5× over from_array; TF >2× Spark",
        ingest_holds(i8) && ingest_holds(i25),
        format!("25 subjects: {}; 8: {}", show(i25), show(i8)),
    );

    // Figure 12.
    let f_dask = step_time(setup, Engine::Dask, Step::Filter, 25);
    let f_myria = step_time(setup, Engine::Myria, Step::Filter, 25);
    let f_spark = step_time(setup, Engine::Spark, Step::Filter, 25);
    let f_tf = step_time(setup, Engine::TensorFlow, Step::Filter, 25);
    check(
        "filter: Myria/Dask fastest, Spark ~an order slower, TF orders slower",
        f_spark > 3.0 * f_dask.max(f_myria) && f_tf > 20.0 * f_spark,
        format!("Dask {f_dask:.2} Myria {f_myria:.2} Spark {f_spark:.1} TF {f_tf:.0}"),
    );
    let mean = |e| step_time(setup, e, Step::Mean, 1);
    let mean_scidb = mean(Engine::SciDb);
    let mean_next = [
        Engine::Spark,
        Engine::Myria,
        Engine::Dask,
        Engine::TensorFlow,
    ]
    .map(mean)
    .into_iter()
    .fold(f64::INFINITY, f64::min);
    check(
        "mean: SciDB fastest at small scale",
        mean_scidb < mean_next,
        format!("SciDB {mean_scidb:.2}s vs next fastest {mean_next:.2}s at 1 subject"),
    );
    let den: Vec<f64> = [Engine::Spark, Engine::Myria, Engine::Dask, Engine::SciDb]
        .iter()
        .map(|&e| step_time(setup, e, Step::Denoise, 25))
        .collect();
    let den_spread = den.iter().cloned().fold(0.0f64, f64::max)
        / den.iter().cloned().fold(f64::INFINITY, f64::min);
    check(
        "denoise: the four UDF paths stay similar",
        den_spread < 1.6,
        format!("spread {den_spread:.2} across Spark/Myria/Dask/SciDB"),
    );
    let coadd_udf = udf_coadd_time(setup, Engine::Myria, 24);
    let coadd_aql = scidb_coadd_time(setup, 24, 1000, false);
    let coadd_inc = scidb_coadd_time(setup, 24, 1000, true);
    check(
        "coadd: stock AQL >8× slower; incremental recovers ~6×",
        coadd_aql / coadd_udf > 8.0 && (4.0..9.0).contains(&(coadd_aql / coadd_inc)),
        format!(
            "UDF {coadd_udf:.0}s, AQL {coadd_aql:.0}s ({:.1}×), incremental {coadd_inc:.0}s ({:.1}× gain)",
            coadd_aql / coadd_udf,
            coadd_aql / coadd_inc
        ),
    );

    // Tuning.
    let times13 = times(fig13(setup));
    let best13 = times13
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("fig13 sweeps at least one worker count")
        .0;
    check(
        "Myria optimum at 4 workers/node",
        best13 == 2,
        format!("times for 1/2/4/6/8 workers: {times13:?}"),
    );
    // Partitions [1, 2, 4, 8, 16, 32, 64, 97, 128, 192, 256].
    let t14 = times(fig14(setup));
    let (t1, t16, t128, t256) = (t14[0], t14[4], t14[8], t14[10]);
    check(
        "Spark partitions: 16 >3× faster than 1, still gaining to 128, flat (<15%) to 256",
        t1 / t16 > 3.0 && t16 > t128 && (t256 - t128).abs() / t128 < 0.15,
        format!("1/16/128/256 partitions: {t1}s / {t16}s / {t128}s / {t256}s"),
    );
    let cluster = setup.cluster_for(Engine::Spark, 16);
    let one = NeuroWorkload { subjects: 1 };
    let (default_p, tuned_p) = (
        one.input_bytes().div_ceil(engine_rdd::DEFAULT_BLOCK_BYTES) as usize,
        tuned_partitions(&cluster),
    );
    let spark1 = |p| {
        let g = neuro::spark(&one, &setup.cm, &setup.profiles, &cluster, p, true);
        setup.run(Engine::Spark, &g, &cluster)
    };
    let (t_default, t_tuned) = (spark1(None), spark1(Some(tuned_p)));
    check(
        "Spark's default partitions leave 1 subject underused: <½ the tuned count, >1.3× slower",
        default_p < tuned_p / 2 && t_default > 1.3 * t_tuned,
        format!(
            "default {default_p} vs tuned {tuned_p} partitions: {t_default:.0}s vs {t_tuned:.0}s"
        ),
    );
    let mode = |visits, m| myria_astro_mode(setup, visits, 16, m);
    let [p8, m8, q8] =
        [Pipelined, Materialized, MultiQuery { pieces: 2 }].map(|m| or_nan(mode(8, m)));
    check(
        "memory at 8 visits: pipelined < materialized (+2–20%) < multi-query",
        p8 < m8 && m8 < q8 && (0.02..0.20).contains(&(m8 / p8 - 1.0)),
        format!("pipelined {p8:.0}s, materialized {m8:.0}s, multi-query {q8:.0}s"),
    );
    let ok = |visits, m| mode(visits, m).is_ok();
    let (pipe12, pipe24) = (ok(12, Pipelined), ok(24, Pipelined));
    let (mat24, multi24) = (ok(24, Materialized), ok(24, MultiQuery { pieces: 4 }));
    let run = |ok: bool| if ok { "ok" } else { FAILED };
    check(
        "memory: pipelined fine at 12 visits, OOM at 24; materialization and multi-query complete",
        pipe12 && !pipe24 && mat24 && multi24,
        format!(
            "pipelined@12 {}, pipelined@24 {}, materialized@24 {}, multi-query@24 {}",
            run(pipe12),
            run(pipe24),
            run(mat24),
            run(multi24)
        ),
    );
    let chunk = |px| scidb_coadd_time(setup, 24, px, false);
    let c1000 = chunk(1000);
    let [r500, r1500, r2000] = [500, 1500, 2000].map(|px| chunk(px) / c1000);
    check(
        "SciDB chunk 1000² optimal; 500² ~3× slower (2.2–4×); 1500² ~+22% (1.05–1.45×); 2000² ~+55% (1.3–1.8×)",
        (2.2..4.0).contains(&r500) && (1.05..1.45).contains(&r1500) && (1.3..1.8).contains(&r2000),
        format!("500² {r500:.2}×, 1500² {r1500:.2}×, 2000² {r2000:.2}× of 1000²"),
    );

    out
}
