//! The list-scheduling discrete-event core.
//!
//! Greedy earliest-finish list scheduling: ready tasks are dispatched in
//! readiness order; each is placed on the worker slot minimizing its
//! estimated finish time (subject to placement pins and the policy's
//! locality/steal rules). Task duration combines dispatch overhead, S3
//! download (with per-node aggregate contention), local disk I/O, network
//! transfers of non-local inputs, and compute scaled by CPU
//! over-subscription and memory pressure.

use crate::graph::{Placement, TaskGraph};
use crate::report::{SimError, SimReport, TaskTiming};
use crate::sched::SchedPolicy;
use crate::spec::ClusterSpec;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-worker bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Worker {
    free_at: f64,
    /// Memory held by the task currently occupying this worker (released at
    /// `free_at`).
    cur_mem: u64,
    cur_finish: f64,
    /// Whether the current task downloads from the object store (S3
    /// bandwidth is shared only among downloading tasks).
    cur_s3: bool,
}

/// Orders f64 keys inside the ready heap.
#[derive(Debug, PartialEq)]
struct ReadyKey(f64, usize);
impl Eq for ReadyKey {}
impl PartialOrd for ReadyKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// Execute `graph` on `cluster` under `policy`.
///
/// With `fail_if_over_memory`, the run aborts with
/// [`SimError::OutOfMemory`] the first time a node's concurrent resident
/// memory would exceed its capacity — the behaviour of fully pipelined
/// execution without spilling (Myria in the paper's Figure 15). Otherwise
/// over-subscribed memory slows tasks down (thrashing) but never fails.
// scilint: allow(F001, TaskGraph::add makes every graph a DAG with in-range dependencies, so these scheduler invariants hold for every graph)
pub fn simulate(
    graph: &TaskGraph,
    cluster: &ClusterSpec,
    policy: SchedPolicy,
    fail_if_over_memory: bool,
) -> Result<SimReport, SimError> {
    let tasks = graph.tasks();
    let n_tasks = tasks.len();
    let slots = cluster.node.worker_slots.max(1);
    let mut workers: Vec<Worker> = (0..cluster.nodes * slots)
        .map(|_| Worker {
            free_at: 0.0,
            cur_mem: 0,
            cur_finish: 0.0,
            cur_s3: false,
        })
        .collect();

    let mut remaining: Vec<usize> = tasks.iter().map(|t| t.deps.len()).collect();
    // Reverse adjacency so completions release dependents in O(edges).
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_tasks];
    for (i, t) in tasks.iter().enumerate() {
        for &d in &t.deps {
            dependents[d].push(i);
        }
    }
    let mut finish = vec![0.0f64; n_tasks];
    let mut location: Vec<Option<usize>> = vec![None; n_tasks];
    let mut ready: BinaryHeap<Reverse<ReadyKey>> = BinaryHeap::new();
    for (i, t) in tasks.iter().enumerate() {
        if t.deps.is_empty() {
            ready.push(Reverse(ReadyKey(0.0, i)));
        }
    }

    let mut timings = vec![
        TaskTiming {
            label: "",
            node: 0,
            start: 0.0,
            finish: 0.0
        };
        n_tasks
    ];
    let mut node_busy = vec![0.0f64; cluster.nodes];
    let mut bytes_net = 0u64;
    let mut bytes_disk = 0u64;
    let mut bytes_s3 = 0u64;
    let mut stolen = 0usize;
    // (node, start, finish, mem) intervals for the post-hoc memory sweep.
    let mut mem_intervals: Vec<(usize, f64, f64, u64)> = Vec::new();
    let mut scheduled = 0usize;

    while let Some(Reverse(ReadyKey(ready_time, tid))) = ready.pop() {
        let task = &tasks[tid];

        // Control barriers complete instantly at their readiness time:
        // they synchronize, but move no data and hold no slot.
        if task.is_barrier {
            finish[tid] = ready_time;
            location[tid] = None;
            timings[tid] = TaskTiming {
                label: task.label,
                node: 0,
                start: ready_time,
                finish: ready_time,
            };
            scheduled += 1;
            for &j in &dependents[tid] {
                remaining[j] -= 1;
                if remaining[j] == 0 {
                    let r = tasks[j].deps.iter().map(|&d| finish[d]).fold(0.0, f64::max);
                    ready.push(Reverse(ReadyKey(r, j)));
                }
            }
            continue;
        }

        // The node holding the most input bytes — the locality preference.
        let preferred: Option<usize> = {
            let mut per_node: Vec<u64> = vec![0; cluster.nodes];
            let mut any = false;
            for &d in &task.deps {
                if let Some(n) = location[d] {
                    per_node[n] += tasks[d].output_bytes;
                    any = any || tasks[d].output_bytes > 0;
                }
            }
            any.then(|| {
                per_node
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &b)| b)
                    .map(|(n, _)| n)
                    .expect("at least one node")
            })
        };

        // Candidate nodes under the placement constraint.
        let candidates: Vec<usize> = match task.placement {
            Placement::Node(n) if policy.strict_placement() => vec![n.min(cluster.nodes - 1)],
            _ => (0..cluster.nodes).collect(),
        };

        // Pick the (node, worker) minimizing estimated finish; ties prefer
        // the preferred node, then lower node ids (determinism).
        let mut best: Option<(f64, usize, usize)> = None; // (est_finish, node, worker_ix)
        for &node in &candidates {
            // Earliest-free worker on this node.
            let (wix, w) = workers
                .iter()
                .enumerate()
                .skip(node * slots)
                .take(slots)
                .min_by(|(_, a), (_, b)| a.free_at.total_cmp(&b.free_at))
                .expect("slots >= 1");
            let start = ready_time.max(w.free_at);
            // Network input: dep outputs living on other nodes.
            let mut net_bytes = 0u64;
            for &d in &task.deps {
                if let Some(dn) = location[d] {
                    if dn != node {
                        net_bytes += tasks[d].output_bytes;
                    }
                }
            }
            let net_time = if net_bytes > 0 {
                net_bytes as f64 / cluster.net_bw + cluster.net_latency
            } else {
                0.0
            };
            let busy_now = workers[node * slots..(node + 1) * slots]
                .iter()
                .filter(|w2| w2.cur_finish > start)
                .count();
            let s3_time = if task.s3_bytes > 0 {
                let s3_busy = workers[node * slots..(node + 1) * slots]
                    .iter()
                    .filter(|w2| w2.cur_finish > start && w2.cur_s3)
                    .count();
                task.s3_bytes as f64 / cluster.s3_rate(s3_busy + 1) + cluster.s3_latency
            } else {
                0.0
            };
            let disk_time = task.disk_read_bytes as f64 / cluster.node.disk_read_bw
                + task.disk_write_bytes as f64 / cluster.node.disk_write_bw;
            let speed = cluster.node.slot_speed(busy_now + 1);
            // Memory pressure: concurrent resident bytes on the node.
            let mem_now: u64 = workers[node * slots..(node + 1) * slots]
                .iter()
                .filter(|w2| w2.cur_finish > start)
                .map(|w2| w2.cur_mem)
                .sum::<u64>()
                + task.mem_bytes;
            let thrash = if mem_now > cluster.node.mem_bytes {
                let r = mem_now as f64 / cluster.node.mem_bytes as f64;
                r * r
            } else {
                1.0
            };
            let steal = match preferred {
                Some(p) if p != node => policy.steal_cost(),
                _ => 0.0,
            };
            let duration = policy.per_task_overhead()
                + steal
                + net_time
                + s3_time
                + disk_time
                + task.compute * thrash / speed;
            let est_finish = start + duration;
            let better = match best {
                None => true,
                Some((bf, bn, _)) => {
                    est_finish < bf - 1e-12
                        || ((est_finish - bf).abs() <= 1e-12
                            && preferred == Some(node)
                            && preferred != Some(bn))
                }
            };
            if better {
                best = Some((est_finish, node, wix));
            }
        }

        let (est_finish, node, wix) = best.expect("at least one candidate node");
        let start = ready_time.max(workers[wix].free_at);

        if fail_if_over_memory {
            let mem_now: u64 = workers[node * slots..(node + 1) * slots]
                .iter()
                .filter(|w2| w2.cur_finish > start)
                .map(|w2| w2.cur_mem)
                .sum::<u64>()
                + task.mem_bytes;
            if mem_now > cluster.node.mem_bytes {
                return Err(SimError::OutOfMemory {
                    node,
                    time: start,
                    demand_bytes: mem_now,
                    capacity_bytes: cluster.node.mem_bytes,
                });
            }
        }

        // Commit the assignment.
        if let Some(p) = preferred {
            if p != node {
                stolen += 1;
            }
        }
        let mut net_bytes = 0u64;
        for &d in &task.deps {
            if let Some(dn) = location[d] {
                if dn != node {
                    net_bytes += tasks[d].output_bytes;
                }
            }
        }
        bytes_net += net_bytes;
        bytes_s3 += task.s3_bytes;
        bytes_disk += task.disk_read_bytes + task.disk_write_bytes;

        workers[wix].free_at = est_finish;
        workers[wix].cur_mem = task.mem_bytes;
        workers[wix].cur_finish = est_finish;
        workers[wix].cur_s3 = task.s3_bytes > 0;
        finish[tid] = est_finish;
        location[tid] = Some(node);
        node_busy[node] += est_finish - start;
        timings[tid] = TaskTiming {
            label: task.label,
            node,
            start,
            finish: est_finish,
        };
        if task.mem_bytes > 0 {
            mem_intervals.push((node, start, est_finish, task.mem_bytes));
        }
        scheduled += 1;

        // Release dependents.
        for &j in &dependents[tid] {
            remaining[j] -= 1;
            if remaining[j] == 0 {
                let r = tasks[j].deps.iter().map(|&d| finish[d]).fold(0.0, f64::max);
                ready.push(Reverse(ReadyKey(r, j)));
            }
        }
    }
    assert_eq!(scheduled, n_tasks, "every task of a DAG becomes ready");

    // Peak-memory sweep per node.
    let mut node_peak_mem = vec![0u64; cluster.nodes];
    {
        let mut events: Vec<(f64, usize, i64)> = Vec::with_capacity(mem_intervals.len() * 2);
        for &(node, s, f, m) in &mem_intervals {
            events.push((s, node, m as i64));
            events.push((f, node, -(m as i64)));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        let mut cur = vec![0i64; cluster.nodes];
        for (_, node, delta) in events {
            cur[node] += delta;
            node_peak_mem[node] = node_peak_mem[node].max(cur[node].max(0) as u64);
        }
    }

    Ok(SimReport {
        makespan: finish.iter().copied().fold(0.0, f64::max),
        node_busy,
        node_peak_mem,
        bytes_from_s3: bytes_s3,
        bytes_over_network: bytes_net,
        bytes_on_disk: bytes_disk,
        tasks_stolen: stolen,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskSpec;

    fn cluster(nodes: usize) -> ClusterSpec {
        ClusterSpec::r3_2xlarge(nodes)
    }

    const FIFO: SchedPolicy = SchedPolicy::LocalityFifo {
        per_task_overhead: 0.0,
    };

    #[test]
    fn single_task_makespan_is_compute() {
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("t", 5.0));
        let r = simulate(&g, &cluster(2), FIFO, false).unwrap();
        assert_eq!(r.makespan, 5.0);
        assert_eq!(r.timings[0].finish, 5.0);
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        // 16 tasks on 4 nodes: 4 busy slots per node = full speed.
        let mut g = TaskGraph::new();
        for _ in 0..16 {
            g.add(TaskSpec::compute("t", 1.0));
        }
        let r = simulate(&g, &cluster(4), FIFO, false).unwrap();
        assert!((r.makespan - 1.0).abs() < 1e-9, "makespan {}", r.makespan);
        // Using all 8 hyperthreaded slots still beats half the tasks' span.
        let mut g32 = TaskGraph::new();
        for _ in 0..32 {
            g32.add(TaskSpec::compute("t", 1.0));
        }
        let r32 = simulate(&g32, &cluster(4), FIFO, false).unwrap();
        assert!(
            r32.makespan > 1.0 && r32.makespan < 4.0,
            "makespan {}",
            r32.makespan
        );
    }

    #[test]
    fn more_nodes_speed_up() {
        let mut g = TaskGraph::new();
        for _ in 0..256 {
            g.add(TaskSpec::compute("t", 1.0));
        }
        let r16 = simulate(&g, &cluster(16), FIFO, false).unwrap();
        let r32 = simulate(&g, &cluster(32), FIFO, false).unwrap();
        // Doubling the cluster halves the makespan.
        assert!(
            (r16.makespan / r32.makespan - 2.0).abs() < 0.05,
            "{} vs {}",
            r16.makespan,
            r32.makespan
        );
    }

    #[test]
    fn chain_respects_dependencies() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("a", 1.0));
        let b = g.add(TaskSpec::compute("b", 2.0).after(&[a]));
        let _ = g.add(TaskSpec::compute("c", 3.0).after(&[b]));
        let r = simulate(&g, &cluster(4), FIFO, false).unwrap();
        assert_eq!(r.makespan, 6.0);
    }

    #[test]
    fn locality_avoids_network_transfer() {
        let mut g = TaskGraph::new();
        let producer = g.add(TaskSpec::compute("p", 1.0).output(1_000_000_000));
        g.add(TaskSpec::compute("c", 1.0).after(&[producer]));
        let r = simulate(&g, &cluster(4), FIFO, false).unwrap();
        assert_eq!(
            r.bytes_over_network, 0,
            "consumer should run on producer's node"
        );
        assert_eq!(r.timings[0].node, r.timings[1].node);
    }

    #[test]
    fn pinned_consumer_pays_transfer() {
        let mut g = TaskGraph::new();
        let producer = g.add(TaskSpec::compute("p", 1.0).output(120_000_000).on_node(0));
        g.add(TaskSpec::compute("c", 1.0).after(&[producer]).on_node(1));
        let r = simulate(
            &g,
            &cluster(2),
            SchedPolicy::Static {
                per_task_overhead: 0.0,
            },
            false,
        )
        .unwrap();
        assert_eq!(r.bytes_over_network, 120_000_000);
        // 120 MB over 120 MB/s ≈ 1 s extra.
        assert!(r.makespan > 2.9, "makespan {}", r.makespan);
    }

    #[test]
    fn s3_contention_slows_concurrent_downloads() {
        // One node: 8 concurrent 65 MB downloads share the 250 MB/s cap.
        let mut g = TaskGraph::new();
        for _ in 0..8 {
            g.add(TaskSpec::compute("dl", 0.0).s3(65_000_000));
        }
        let r = simulate(&g, &cluster(1), FIFO, false).unwrap();
        // Unconstrained: 1 s each. Shared: ≥ 8×65/250 ≈ 2.08 s total.
        assert!(r.makespan > 1.5, "makespan {}", r.makespan);
        assert_eq!(r.bytes_from_s3, 8 * 65_000_000);
    }

    #[test]
    fn oversubscription_slows_compute() {
        // 16 equal tasks: 4 slots (physical cores) beat 8 hyperthreaded
        // slots, which beat 16 oversubscribed slots — the Figure 13 shape.
        let mut g16 = TaskGraph::new();
        for _ in 0..16 {
            g16.add(TaskSpec::compute("t", 1.0));
        }
        let r4 = simulate(&g16, &cluster(1).with_worker_slots(4), FIFO, false).unwrap();
        let r8 = simulate(&g16, &cluster(1), FIFO, false).unwrap();
        let r16 = simulate(&g16, &cluster(1).with_worker_slots(16), FIFO, false).unwrap();
        assert!((r4.makespan - 4.0).abs() < 1e-9, "makespan {}", r4.makespan);
        assert!(
            r8.makespan > r4.makespan,
            "{} vs {}",
            r8.makespan,
            r4.makespan
        );
        assert!(
            r16.makespan > r8.makespan,
            "{} vs {}",
            r16.makespan,
            r8.makespan
        );
    }

    #[test]
    fn memory_thrash_slows_but_completes() {
        // Two concurrent 40 GB tasks on a 61 GB node: thrashing, not failure.
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("big", 10.0).mem(40_000_000_000));
        g.add(TaskSpec::compute("big", 10.0).mem(40_000_000_000));
        let r = simulate(&g, &cluster(1), FIFO, false).unwrap();
        assert!(r.makespan > 10.0 + 5.0, "no thrash penalty: {}", r.makespan);
        assert!(r.peak_mem() > 61_000_000_000);
    }

    #[test]
    fn strict_memory_fails() {
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("big", 10.0).mem(40_000_000_000));
        g.add(TaskSpec::compute("big", 10.0).mem(40_000_000_000));
        // Two nodes: each task fits on its own node, no failure.
        assert!(simulate(&g, &cluster(2), FIFO, true).is_ok());
        // One node with one slot: sequential, fits.
        let c1 = cluster(1).with_worker_slots(1);
        assert!(simulate(&g, &c1, FIFO, true).is_ok());
        // One node, 8 slots: they overlap and exceed 61 GB.
        let err = simulate(&g, &cluster(1), FIFO, true).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { node: 0, .. }));
    }

    #[test]
    fn work_stealing_pays_per_steal() {
        // Producer on node 0 makes 16 outputs; consumers outnumber node 0's
        // slots, so some run remotely and pay the steal cost.
        let mut g = TaskGraph::new();
        let mut producers = Vec::new();
        for _ in 0..16 {
            producers.push(g.add(TaskSpec::compute("p", 0.001).output(1000).on_node(0)));
        }
        for &p in &producers {
            g.add(TaskSpec::compute("c", 1.0).after(&[p]));
        }
        let steal = SchedPolicy::WorkStealing {
            per_task_overhead: 0.0,
            steal_cost: 0.5,
        };
        let r = simulate(&g, &cluster(2), steal, false).unwrap();
        assert!(r.tasks_stolen > 0, "expected steals");
        let fifo = simulate(&g, &cluster(2), FIFO, false).unwrap();
        assert!(r.makespan >= fifo.makespan, "steal cost not charged");
    }

    #[test]
    fn per_task_overhead_accumulates() {
        let mut g = TaskGraph::new();
        let mut prev = g.add(TaskSpec::compute("t", 0.1));
        for _ in 0..9 {
            prev = g.add(TaskSpec::compute("t", 0.1).after(&[prev]));
        }
        let r = simulate(
            &g,
            &cluster(1),
            SchedPolicy::LocalityFifo {
                per_task_overhead: 1.0,
            },
            false,
        )
        .unwrap();
        assert!((r.makespan - 11.0).abs() < 1e-9, "makespan {}", r.makespan);
    }

    #[test]
    fn barrier_serializes_stages() {
        let mut g = TaskGraph::new();
        let stage1: Vec<_> = (0..8)
            .map(|_| g.add(TaskSpec::compute("s1", 1.0)))
            .collect();
        let bar = g.barrier("sync", &stage1);
        for _ in 0..8 {
            g.add(TaskSpec::compute("s2", 1.0).after(&[bar]));
        }
        let r = simulate(&g, &cluster(1), FIFO, false).unwrap();
        // One stage alone:
        let mut g1 = TaskGraph::new();
        for _ in 0..8 {
            g1.add(TaskSpec::compute("s1", 1.0));
        }
        let r1 = simulate(&g1, &cluster(1), FIFO, false).unwrap();
        assert!(
            (r.makespan - 2.0 * r1.makespan).abs() < 1e-6,
            "{} vs 2×{}",
            r.makespan,
            r1.makespan
        );
    }

    #[test]
    fn report_bookkeeping() {
        let mut g = TaskGraph::new();
        g.add(
            TaskSpec::compute("io", 1.0)
                .disk_write(380_000_000)
                .disk_read(450_000_000),
        );
        let r = simulate(&g, &cluster(1), FIFO, false).unwrap();
        assert_eq!(r.bytes_on_disk, 830_000_000);
        // 1 s write + 1 s read + 1 s compute.
        assert!((r.makespan - 3.0).abs() < 1e-6);
        assert!((r.busy_for_label("io") - r.makespan).abs() < 1e-9);
    }
}
