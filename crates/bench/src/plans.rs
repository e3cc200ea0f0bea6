//! The shipped-configuration catalog: every lowered plan `scibench lint`
//! verifies, enumerated once so the plancheck sweep and the scimemo
//! cacheability sweep cannot drift apart.
//!
//! The set mirrors the paper's evaluation matrix: the neuroscience
//! end-to-end pipelines over Figure 10's subject sweep, the astronomy
//! pipelines (including Myria's three memory-management modes and the
//! Figure 15 OOM configuration), Figure 11's ingest configurations, and
//! Figure 12's individual steps — at 16 and 64 nodes where the figures
//! sweep cluster size.

use engine_rel::ExecutionMode;
use scibench_core::experiments::{IngestSystem, Setup};
use scibench_core::lower::{astro, steps, Engine};
use scibench_core::workload::{AstroWorkload, NeuroWorkload};
use simcluster::{ClusterSpec, TaskGraph};

/// Node counts the lint/memo sweeps check (the paper's smallest and
/// largest full-figure cluster sizes).
pub const NODE_SWEEP: [usize; 2] = [16, 64];

/// One shipped lowering with everything the static sweeps need.
pub struct ShippedConfig {
    /// Row name, exactly as `scibench lint` prints it.
    pub name: String,
    /// Pipeline family: `neuro`, `astro`, `ingest`, or `steps`.
    pub family: &'static str,
    /// The engine that produced the lowering.
    pub engine: Engine,
    /// The lowered plan.
    pub graph: TaskGraph,
    /// The cluster it targets.
    pub cluster: ClusterSpec,
    /// Whether this configuration is *supposed* to overrun memory
    /// (Figure 15: Myria pipelined, 24 visits, 16 nodes).
    pub memory_expected: bool,
}

/// Lower every shipped configuration under `setup`.
pub fn shipped_configs(setup: &Setup) -> Vec<ShippedConfig> {
    let mut out = Vec::new();

    // Neuroscience, end-to-end and partial pipelines, Figure 10's sweep.
    for &nodes in &NODE_SWEEP {
        for w in NeuroWorkload::sweep() {
            for engine in [
                Engine::Dask,
                Engine::Myria,
                Engine::Spark,
                Engine::TensorFlow,
                Engine::SciDb,
            ] {
                let cluster = setup.cluster_for(engine, nodes);
                let graph = setup.neuro_e2e_plan(engine, &w, &cluster);
                out.push(ShippedConfig {
                    name: format!(
                        "neuro e2e        {:<10} subjects={:<2} nodes={nodes}",
                        engine.name(),
                        w.subjects
                    ),
                    family: "neuro",
                    engine,
                    graph,
                    cluster,
                    memory_expected: false,
                });
            }
        }
    }

    // Astronomy: Spark, Myria's three memory-management modes, and the
    // SciDB co-addition step, over Figure 10's visit sweep.
    for &nodes in &NODE_SWEEP {
        for w in AstroWorkload::sweep() {
            let cluster = setup.cluster_for(Engine::Spark, nodes);
            out.push(ShippedConfig {
                name: format!(
                    "astro e2e        {:<10} visits={:<2}   nodes={nodes}",
                    "Spark", w.visits
                ),
                family: "astro",
                engine: Engine::Spark,
                graph: astro::spark(&w, &setup.cm, &setup.profiles, &cluster),
                cluster,
                memory_expected: false,
            });

            let cluster = setup.cluster_for(Engine::Myria, nodes);
            // Figure 15: pipelined execution exhausts memory only in the
            // full 24-visit configuration on 16 nodes (the two hottest
            // patches hash to one worker); both disk-backed modes stay
            // within budget everywhere. The overrun is an OOM only because
            // the lowering runs strict, with no spill fallback.
            let oom = nodes == 16 && w.visits == 24;
            for (mode, tag, expect_oom) in [
                (ExecutionMode::Pipelined, "pipelined", oom),
                (ExecutionMode::Materialized, "materialized", false),
                (ExecutionMode::MultiQuery { pieces: 4 }, "multiquery", false),
            ] {
                let (graph, strict) = astro::myria(&w, &setup.cm, &setup.profiles, &cluster, mode);
                out.push(ShippedConfig {
                    name: format!(
                        "astro {tag:<10} {:<10} visits={:<2}   nodes={nodes}",
                        "Myria", w.visits
                    ),
                    family: "astro",
                    engine: Engine::Myria,
                    graph,
                    cluster: cluster.clone(),
                    memory_expected: expect_oom && strict,
                });
            }

            let cluster = setup.cluster_for(Engine::SciDb, nodes);
            out.push(ShippedConfig {
                name: format!(
                    "astro coadd      {:<10} visits={:<2}   nodes={nodes}",
                    "SciDB", w.visits
                ),
                family: "astro",
                engine: Engine::SciDb,
                graph: astro::scidb_coadd(&w, &setup.cm, &setup.profiles, &cluster, 1000),
                cluster,
                memory_expected: false,
            });
        }
    }

    // Ingest, Figure 11's six configurations at the largest subject count.
    let w = NeuroWorkload { subjects: 25 };
    for &nodes in &NODE_SWEEP {
        for system in IngestSystem::all() {
            let engine = system.engine();
            let cluster = setup.cluster_for(engine, nodes);
            out.push(ShippedConfig {
                name: format!(
                    "ingest           {:<10} subjects=25 nodes={nodes}",
                    system.name()
                ),
                family: "ingest",
                engine,
                graph: setup.ingest_plan(system, &w, &cluster),
                cluster,
                memory_expected: false,
            });
        }
    }

    // Individual steps, Figure 12's per-operation comparisons.
    for engine in [
        Engine::Spark,
        Engine::Myria,
        Engine::Dask,
        Engine::TensorFlow,
        Engine::SciDb,
    ] {
        let cluster = setup.cluster_for(engine, 16);
        for (step, graph) in [
            (
                "filter",
                steps::filter_step(engine, &w, &setup.cm, &setup.profiles, &cluster),
            ),
            (
                "mean",
                steps::mean_step(engine, &w, &setup.cm, &setup.profiles, &cluster),
            ),
            (
                "denoise",
                steps::denoise_step(engine, &w, &setup.cm, &setup.profiles, &cluster),
            ),
        ] {
            out.push(ShippedConfig {
                name: format!("step {step:<12} {:<10} subjects=25 nodes=16", engine.name()),
                family: "steps",
                engine,
                graph,
                cluster: cluster.clone(),
                memory_expected: false,
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_the_full_evaluation_matrix() {
        let configs = shipped_configs(&Setup::default());
        assert_eq!(configs.len(), 137);
        let fam = |f: &str| configs.iter().filter(|c| c.family == f).count();
        assert_eq!(fam("neuro"), 60);
        assert_eq!(fam("astro"), 50);
        assert_eq!(fam("ingest"), 12);
        assert_eq!(fam("steps"), 15);
        assert_eq!(
            configs.iter().filter(|c| c.memory_expected).count(),
            1,
            "exactly the Figure 15 configuration expects an OOM"
        );
    }
}
