//! Criterion benches: one per artifact of the paper's evaluation, taken
//! from the registry `reproduce` prints (`experiments::ARTIFACTS`), plus
//! the simulator's raw scheduling throughput.
//!
//! Each bench regenerates the artifact's tables through the full
//! lowering + discrete-event simulation stack. The benched quantity is
//! the cost of the reproduction itself; `experiments::shape_checks`
//! guards the values.

use criterion::{criterion_group, criterion_main, Criterion};
use scibench_core::experiments::{Setup, ARTIFACTS};
use std::hint::black_box;

fn bench_artifacts(c: &mut Criterion) {
    let setup = Setup::default();
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    // `scaling` times this host's kernels, not the reproduction.
    for (id, build) in ARTIFACTS.iter().filter(|(id, _)| *id != "scaling") {
        g.bench_function(id, |b| {
            b.iter(|| black_box(build(&setup)));
        });
    }
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    use simcluster::{simulate, ClusterSpec, SchedPolicy, TaskGraph, TaskSpec};
    // Raw scheduling throughput: a 10k-task fan-out/fan-in graph.
    let mut g = TaskGraph::new();
    let head = g.add(TaskSpec::compute("head", 1.0));
    let mids: Vec<_> = (0..10_000)
        .map(|i| {
            g.add(
                TaskSpec::compute("work", 1.0 + (i % 7) as f64)
                    .s3(1_000_000)
                    .output(500_000)
                    .mem(10_000_000)
                    .after(&[head]),
            )
        })
        .collect();
    g.barrier("sync", &mids);
    let cluster = ClusterSpec::r3_2xlarge(16);
    let mut grp = c.benchmark_group("simulator");
    grp.sample_size(10);
    grp.bench_function("simulate_10k_tasks", |b| {
        b.iter(|| {
            black_box(
                simulate(
                    &g,
                    &cluster,
                    SchedPolicy::LocalityFifo {
                        per_task_overhead: 0.01,
                    },
                    false,
                )
                .unwrap()
                .makespan,
            )
        });
    });
    grp.finish();
}

criterion_group!(figures, bench_artifacts, bench_simulator);
criterion_main!(figures);
