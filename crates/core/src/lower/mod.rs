//! Lowering: turning each engine's execution of a use case into a
//! `simcluster` task graph at paper scale.
//!
//! Each function in [`neuro`], [`astro`] and [`ingest`] encodes how one
//! engine *actually executes* the pipeline — its task granularity, where
//! barriers fall, what crosses process/format boundaries, what is pinned
//! where — using the engine crates' profiles for the constants. The
//! simulator then produces makespans whose *relationships* (who wins, by
//! what factor, where crossovers fall) reproduce the paper's figures.

pub mod astro;
pub mod ingest;
pub mod neuro;
pub mod steps;

use engine_array::ArrayEngineProfile;
use engine_dataflow::DataflowEngineProfile;
use engine_rdd::RddEngineProfile;
use engine_rel::RelEngineProfile;
use engine_taskgraph::TaskGraphEngineProfile;
use simcluster::{ClusterSpec, SchedPolicy, TaskGraph};

/// The systems under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The Spark analog (`engine-rdd`).
    Spark,
    /// The Myria analog (`engine-rel`).
    Myria,
    /// The Dask analog (`engine-taskgraph`).
    Dask,
    /// The TensorFlow analog (`engine-dataflow`).
    TensorFlow,
    /// The SciDB analog (`engine-array`).
    SciDb,
}

impl Engine {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Spark => "Spark",
            Engine::Myria => "Myria",
            Engine::Dask => "Dask",
            Engine::TensorFlow => "TensorFlow",
            Engine::SciDb => "SciDB",
        }
    }

    /// The engines able to run the full neuroscience use case end-to-end
    /// (the paper: Dask, Myria, Spark).
    pub fn neuro_e2e() -> [Engine; 3] {
        [Engine::Dask, Engine::Myria, Engine::Spark]
    }

    /// The engines able to run the full astronomy use case end-to-end
    /// (the paper: Spark and Myria; Dask froze, SciDB/TensorFlow could
    /// not express it).
    pub fn astro_e2e() -> [Engine; 2] {
        [Engine::Myria, Engine::Spark]
    }
}

/// All engine profiles plus job-level constants, bundled for the lowering
/// functions.
#[derive(Debug, Clone, Copy)]
pub struct EngineProfiles {
    /// Spark-analog constants.
    pub rdd: RddEngineProfile,
    /// Myria-analog constants.
    pub rel: RelEngineProfile,
    /// Dask-analog constants.
    pub tg: TaskGraphEngineProfile,
    /// TensorFlow-analog constants.
    pub df: DataflowEngineProfile,
    /// SciDB-analog constants.
    pub arr: ArrayEngineProfile,
    /// Job submission overhead for the JVM-based engines (s).
    pub jvm_job_submit: f64,
}

impl Default for EngineProfiles {
    fn default() -> Self {
        EngineProfiles {
            rdd: RddEngineProfile::default(),
            rel: RelEngineProfile::default(),
            tg: TaskGraphEngineProfile::default(),
            df: DataflowEngineProfile::default(),
            arr: ArrayEngineProfile::default(),
            jvm_job_submit: 12.0,
        }
    }
}

impl EngineProfiles {
    /// The scheduling policy an engine runs under.
    pub fn policy(&self, engine: Engine) -> SchedPolicy {
        match engine {
            Engine::Spark => SchedPolicy::LocalityFifo {
                per_task_overhead: self.rdd.per_task_overhead,
            },
            Engine::Myria => SchedPolicy::LocalityFifo {
                per_task_overhead: self.rel.per_task_overhead,
            },
            Engine::Dask => SchedPolicy::WorkStealing {
                per_task_overhead: self.tg.per_task_overhead,
                steal_cost: self.tg.steal_cost,
            },
            Engine::TensorFlow => SchedPolicy::Static {
                per_task_overhead: self.df.step_dispatch_fixed,
            },
            Engine::SciDb => SchedPolicy::Static {
                per_task_overhead: self.arr.chunk_op_overhead,
            },
        }
    }

    /// The static invariants [`plancheck::check`] should enforce against an
    /// engine's lowered task graphs.
    pub fn invariants(&self, engine: Engine) -> plancheck::InvariantProfile {
        match engine {
            Engine::Spark => self.rdd.invariants(),
            Engine::Myria => self.rel.invariants(),
            Engine::Dask => self.tg.invariants(),
            Engine::TensorFlow => self.df.invariants(),
            Engine::SciDb => self.arr.invariants(),
        }
    }

    /// The operator → kernel binding tables for `engine`'s lowerings, for
    /// the scimemo cacheability certifier: the engine's own table first,
    /// then [`SHARED_OP_BINDINGS`] for the labels the cross-engine
    /// lowerings (`astro:*`, `ingest:*`, bare step names) emit. First
    /// match wins; an unlisted label is deliberately unbound and the
    /// certifier treats it as unsafe.
    pub fn op_bindings(&self, engine: Engine) -> [&'static [plancheck::OpBinding]; 2] {
        let own = match engine {
            Engine::Spark => self.rdd.op_bindings(),
            Engine::Myria => self.rel.op_bindings(),
            Engine::Dask => self.tg.op_bindings(),
            Engine::TensorFlow => self.df.op_bindings(),
            Engine::SciDb => self.arr.op_bindings(),
        };
        [own, SHARED_OP_BINDINGS]
    }
}

/// Bindings for the labels every engine's lowerings share: the astronomy
/// stages, the ingest benchmark, and the per-step neuro graphs. Kernel
/// names refer to the sciops entry points the use-case drivers
/// (`crate::usecases`) call for the same stage; the scimemo certifier
/// joins each name over the workspace purity table.
pub const SHARED_OP_BINDINGS: &[plancheck::OpBinding] = &{
    use plancheck::{OpBinding, OpClass};
    // Pure data movement: no kernel runs, output = forwarded inputs.
    const MOVE: OpClass = OpClass::Kernel(&[]);
    [
        // Astronomy stages (lower/astro.rs).
        OpBinding::new("astro:stage-barrier", OpClass::Infra),
        OpBinding::new("astro:preprocess", OpClass::Kernel(&["calibrate_exposure"])),
        OpBinding::new("astro:patch-piece", OpClass::Kernel(&["create_patches"])),
        OpBinding::new("astro:merge", OpClass::Kernel(&["merge_visit_pieces"])),
        OpBinding::new("astro:coadd", OpClass::Kernel(&["coadd_sigma_clip"])),
        OpBinding::new(
            "astro:partial-coadd",
            OpClass::Kernel(&["coadd_sigma_clip"]),
        ),
        OpBinding::new(
            "astro:combine+detect",
            OpClass::Kernel(&["coadd_sigma_clip", "detect_sources"]),
        ),
        OpBinding::new("astro:detect", OpClass::Kernel(&["detect_sources"])),
        OpBinding::new("coadd", OpClass::Kernel(&["coadd_sigma_clip"])),
        // Ingest benchmark (lower/ingest.rs): versioned synthetic inputs,
        // so downloads/conversions are deterministic sources.
        OpBinding::new("ingest:enumerate", OpClass::Infra),
        OpBinding::new("ingest:staged", OpClass::Infra),
        OpBinding::new("ingest:startup", OpClass::Infra),
        OpBinding::new("ingest:convert-npy", OpClass::Source),
        OpBinding::new("ingest:convert-csv", OpClass::Source),
        OpBinding::new("ingest:download", OpClass::Source),
        OpBinding::new("ingest:download+insert", OpClass::Source),
        OpBinding::new("ingest:download+parse", OpClass::Source),
        OpBinding::new("ingest:master-download", OpClass::Source),
        OpBinding::new("ingest:from_array", OpClass::Source),
        OpBinding::new("ingest:aio_input", OpClass::Source),
        OpBinding::new("ingest:distribute", MOVE),
        // Per-step neuro graphs (lower/steps.rs).
        OpBinding::new("filter", OpClass::Kernel(&["segmentation"])),
        OpBinding::new("filter-gather", MOVE),
        OpBinding::new("mean", OpClass::Kernel(&["segmentation"])),
        OpBinding::new("mean-gather", MOVE),
        OpBinding::new("mean-startup", OpClass::Infra),
        OpBinding::new("denoise", OpClass::Kernel(&["nlmeans3d"])),
        OpBinding::new("denoise-startup", OpClass::Infra),
    ]
};

/// Debug-build guard run at the end of every lowering function: the graph
/// must be free of byte-conservation, placement and engine-shape *errors*
/// before it is handed to anything else (`TaskGraph::add` has already
/// refused malformed structure).
///
/// Memory findings (`M...`) are deliberately NOT fatal here — memory
/// overruns are legitimate outcomes this repo models (Figure 15's
/// pipelined OOM), reported by `plancheck` and decided by the simulator.
/// Compiled to a no-op in release builds.
pub(crate) fn debug_verify(
    graph: &TaskGraph,
    cluster: &ClusterSpec,
    profiles: &EngineProfiles,
    engine: Engine,
) {
    if cfg!(debug_assertions) {
        let report = plancheck::check(graph, cluster, &profiles.invariants(engine));
        let fatal: Vec<&plancheck::Diagnostic> =
            report.errors().filter(|d| !d.code.is_memory()).collect();
        assert!(
            fatal.is_empty(),
            "{} lowering produced an invalid task graph:\n{}",
            engine.name(),
            report.render_table()
        );
    }
}
