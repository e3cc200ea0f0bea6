//! The five verification passes. Each takes the shared [`Analysis`] and
//! emits [`Diagnostic`]s through an [`Emitter`] that caps per-code noise.

use crate::analysis::Analysis;
use crate::diag::{Code, Diagnostic, Severity};
use crate::profile::{BarrierDiscipline, InvariantProfile};
use simcluster::{ClusterSpec, Placement, TaskId};
use std::collections::BTreeMap;

/// Maximum findings kept per code; the rest collapse into one "…and N
/// more" diagnostic so a badly broken graph stays readable.
const MAX_PER_CODE: usize = 16;

/// Truncation for task-id lists inside one diagnostic.
const MAX_TASKS: usize = 8;

pub(crate) struct Emitter {
    out: Vec<Diagnostic>,
    suppressed: BTreeMap<(&'static str, Severity), usize>,
}

impl Emitter {
    pub fn new() -> Emitter {
        Emitter {
            out: Vec::new(),
            suppressed: BTreeMap::new(),
        }
    }

    pub fn push(&mut self, code: Code, severity: Severity, tasks: Vec<TaskId>, message: String) {
        let kept = self.out.iter().filter(|d| d.code == code).count();
        if kept >= MAX_PER_CODE {
            *self
                .suppressed
                .entry((code.as_str(), severity))
                .or_insert(0) += 1;
            return;
        }
        let tasks = truncated(tasks);
        self.out.push(Diagnostic {
            code,
            severity,
            tasks,
            message,
        });
    }

    pub fn finish(mut self) -> Vec<Diagnostic> {
        for ((code_str, severity), n) in std::mem::take(&mut self.suppressed) {
            if let Some(code) = self
                .out
                .iter()
                .map(|d| d.code)
                .find(|c| c.as_str() == code_str)
            {
                self.out.push(Diagnostic {
                    code,
                    severity,
                    tasks: vec![],
                    message: format!("…and {n} more {code_str} finding{}", plural(n)),
                });
            }
        }
        self.out
    }
}

fn truncated(mut tasks: Vec<TaskId>) -> Vec<TaskId> {
    tasks.truncate(MAX_TASKS);
    tasks
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn gb(bytes: u64) -> f64 {
    bytes as f64 / 1e9
}

// ---------------------------------------------------------------------------
// Pass 1: structure (W...)
// ---------------------------------------------------------------------------

/// W004, the one structural mistake `TaskGraph::add` accepts: a task
/// listing a dependency more than once. (`add` refuses forward and self
/// dependencies, so every graph is a DAG.)
pub(crate) fn structural(an: &Analysis<'_>, em: &mut Emitter) {
    for (id, t) in an.tasks.iter().enumerate() {
        let mut sorted = t.deps.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            em.push(
                Code::W004,
                Severity::Warning,
                vec![id],
                format!("task {id} ({:?}) lists a dependency more than once; transfer bytes would double-count", t.label),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 2: byte conservation (B...)
// ---------------------------------------------------------------------------

pub(crate) fn bytes(an: &Analysis<'_>, p: &InvariantProfile, em: &mut Emitter) {
    // B002: every disk read must be covered by disk writes on the task
    // itself (spill round-trips) or its ancestors. Store-backed engines
    // (Myria's per-node PostgreSQL, SciDB's chunk store) legitimately read
    // state written outside this graph.
    if !p.store_backed {
        let writers: Vec<(TaskId, u64)> = an
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.disk_write_bytes > 0)
            .map(|(i, t)| (i, t.disk_write_bytes))
            .collect();
        for (id, t) in an.tasks.iter().enumerate() {
            if t.disk_read_bytes == 0 {
                continue;
            }
            let avail: u64 = t.disk_write_bytes
                + writers
                    .iter()
                    .filter(|&&(w, _)| an.is_ancestor(w, id))
                    .map(|&(_, b)| b)
                    .sum::<u64>();
            if t.disk_read_bytes > avail {
                em.push(
                    Code::B002,
                    Severity::Error,
                    vec![id],
                    format!(
                        "task {id} ({:?}) reads {:.2} GB from local disk but upstream writes total only {:.2} GB",
                        t.label,
                        gb(t.disk_read_bytes),
                        gb(avail)
                    ),
                );
            }
        }
    }

    // B003: outputs must be explainable by visible inputs within the
    // engine's format-conversion factor. Engines whose producers declare
    // full-size outputs sliced per consumer (Dask) opt out.
    if !p.transfer_slices {
        for (id, t) in an.tasks.iter().enumerate() {
            if t.is_barrier || t.output_bytes == 0 || t.deps.is_empty() {
                continue; // roots may generate data (e.g. key enumeration)
            }
            let mut visible = t.s3_bytes + t.disk_read_bytes;
            for &d in &t.deps {
                let dep = &an.tasks[d];
                if dep.is_barrier {
                    // Data flowing "through" a stage barrier: the barrier's
                    // own inputs are what the consumer actually receives.
                    visible += dep
                        .deps
                        .iter()
                        .map(|&dd| an.tasks[dd].output_bytes)
                        .sum::<u64>();
                } else {
                    visible += dep.output_bytes;
                }
            }
            if visible > 0 {
                if t.output_bytes as f64 > visible as f64 * p.format_factor {
                    em.push(
                        Code::B003,
                        Severity::Warning,
                        vec![id],
                        format!(
                            "task {id} ({:?}) outputs {:.2} GB from {:.2} GB of visible input (> {:.1}x format factor)",
                            t.label,
                            gb(t.output_bytes),
                            gb(visible),
                            p.format_factor
                        ),
                    );
                }
            } else {
                // No visible bytes at all: tolerated when some ancestor
                // moved data (engine-internal residency, e.g. a master that
                // holds everything), flagged when the whole upstream chain
                // is byte-free.
                let upstream_has_bytes = an.ancestors(id).any(|a| {
                    let u = &an.tasks[a];
                    u.s3_bytes > 0 || u.disk_read_bytes > 0 || u.output_bytes > 0
                });
                if !upstream_has_bytes {
                    em.push(
                        Code::B003,
                        Severity::Warning,
                        vec![id],
                        format!(
                            "task {id} ({:?}) outputs {:.2} GB but no upstream task carries any bytes",
                            t.label,
                            gb(t.output_bytes)
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 3: memory budget (M...)
// ---------------------------------------------------------------------------

/// Greedy heavy-first antichain: the largest pairwise-unordered tasks, at
/// most `slots` of them — a set the scheduler genuinely can run
/// concurrently on one node, so its footprint is a *realizable* demand
/// (overrun findings are sound, not worst-case fiction).
fn antichain_demand(an: &Analysis<'_>, ids: &[TaskId], slots: usize) -> (u64, Vec<TaskId>) {
    let mut sorted: Vec<TaskId> = ids.to_vec();
    sorted.sort_by_key(|&i| std::cmp::Reverse(an.tasks[i].mem_bytes));
    let mut taken: Vec<TaskId> = Vec::new();
    let mut sum = 0u64;
    for id in sorted {
        if taken.len() >= slots {
            break;
        }
        if taken.iter().all(|&t| !an.comparable(t, id)) {
            sum += an.tasks[id].mem_bytes;
            taken.push(id);
        }
    }
    (sum, taken)
}

/// The memory pass's demand estimate, without diagnostics: the worst
/// per-node realizable working set over pinned tasks, joined with the
/// floating-task antichain. This is the number the M-passes compare
/// against node RAM; `bench ooc` validates it against the governor's
/// measured peak residency. Unlike [`memory`], the naive-sum shortcut is
/// not taken — the antichain refinement always runs, so the estimate is
/// realizable demand even when it fits the node.
pub(crate) fn peak_demand(an: &Analysis<'_>, cluster: &ClusterSpec) -> u64 {
    let slots = cluster.node.worker_slots.max(1);
    let mut per_node: Vec<Vec<TaskId>> = vec![Vec::new(); cluster.nodes.max(1)];
    let mut floating: Vec<TaskId> = Vec::new();
    for (id, t) in an.tasks.iter().enumerate() {
        if t.is_barrier || t.mem_bytes == 0 {
            continue;
        }
        match t.placement {
            Placement::Node(node) => per_node[node.min(cluster.nodes.saturating_sub(1))].push(id),
            Placement::Any => floating.push(id),
        }
    }
    let mut worst = 0u64;
    for ids in per_node.iter().chain(std::iter::once(&floating)) {
        let (demand, _) = antichain_demand(an, ids, slots);
        worst = worst.max(demand);
    }
    worst
}

pub(crate) fn memory(
    an: &Analysis<'_>,
    cluster: &ClusterSpec,
    p: &InvariantProfile,
    em: &mut Emitter,
) {
    let ram = cluster.node.mem_bytes;
    let slots = cluster.node.worker_slots.max(1);

    // M003: one task alone cannot fit a node.
    for (id, t) in an.tasks.iter().enumerate() {
        if t.mem_bytes > ram {
            let severity = if p.spills {
                Severity::Warning
            } else {
                Severity::Error
            };
            em.push(
                Code::M003,
                severity,
                vec![id],
                format!(
                    "task {id} ({:?}) needs {:.2} GB; a node has {:.2} GB",
                    t.label,
                    gb(t.mem_bytes),
                    gb(ram)
                ),
            );
        }
    }

    // M001: pinned working sets, per node. The naive sum is refined to a
    // realizable antichain only when it exceeds the budget, so the common
    // (healthy) case stays O(tasks).
    let mut per_node: Vec<Vec<TaskId>> = vec![Vec::new(); cluster.nodes.max(1)];
    for (id, t) in an.tasks.iter().enumerate() {
        if t.is_barrier || t.mem_bytes == 0 {
            continue;
        }
        if let Placement::Node(node) = t.placement {
            // The simulator clamps out-of-range pins the same way; P001
            // reports the range violation separately.
            per_node[node.min(cluster.nodes.saturating_sub(1))].push(id);
        }
    }
    let mut worst_demand = 0u64;
    for (node, ids) in per_node.iter().enumerate() {
        let naive: u64 = ids.iter().map(|&i| an.tasks[i].mem_bytes).sum();
        let (demand, set) = if naive <= ram {
            (naive, Vec::new())
        } else {
            antichain_demand(an, ids, slots)
        };
        worst_demand = worst_demand.max(demand);
        if demand > ram {
            let labels: Vec<&str> = set.iter().map(|&i| an.tasks[i].label).collect();
            let (severity, verdict) = if p.spills {
                (Severity::Info, "the engine will spill/thrash")
            } else {
                (Severity::Error, "pipelined execution fails with OOM")
            };
            em.push(
                Code::M001,
                severity,
                set,
                format!(
                    "node {node}: {} concurrent pinned tasks [{}] demand {:.2} GB of {:.2} GB; {verdict}",
                    labels.len(),
                    labels.join(", "),
                    gb(demand),
                    gb(ram)
                ),
            );
        }
    }

    // M002: floating tasks — any node may be asked to host up to `slots`
    // of these at once; flag when the heaviest realizable set overflows.
    let floating: Vec<TaskId> = an
        .tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_barrier && t.mem_bytes > 0 && t.placement == Placement::Any)
        .map(|(i, _)| i)
        .collect();
    let fl_naive: u64 = floating.iter().map(|&i| an.tasks[i].mem_bytes).sum();
    let (fl_demand, fl_set) = if fl_naive <= ram {
        (fl_naive, Vec::new())
    } else {
        antichain_demand(an, &floating, slots)
    };
    worst_demand = worst_demand.max(fl_demand);
    if fl_demand > ram {
        let severity = if p.spills {
            Severity::Info
        } else {
            Severity::Warning
        };
        em.push(
            Code::M002,
            severity,
            fl_set,
            format!(
                "{slots} concurrent unpinned tasks can demand {:.2} GB of a node's {:.2} GB{}",
                gb(fl_demand),
                gb(ram),
                if p.spills {
                    "; the engine will spill/thrash"
                } else {
                    ""
                }
            ),
        );
    }

    // M004 advisory: fits as declared, but not after the engine's
    // memory-requirement factor (the paper: Spark wanted ~2x the cluster
    // memory to run reliably).
    if p.mem_requirement_factor > 1.0 && worst_demand > 0 {
        let inflated = worst_demand as f64 * p.mem_requirement_factor;
        if worst_demand <= ram && inflated > ram as f64 {
            em.push(
                Code::M004,
                Severity::Info,
                vec![],
                format!(
                    "peak demand {:.2} GB fits a {:.2} GB node, but {:.1}x it ({:.2} GB) does not — expect instability without extra memory",
                    gb(worst_demand),
                    gb(ram),
                    p.mem_requirement_factor,
                    inflated / 1e9
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 4: placement feasibility and skew (P...)
// ---------------------------------------------------------------------------

pub(crate) fn placement(
    an: &Analysis<'_>,
    cluster: &ClusterSpec,
    p: &InvariantProfile,
    em: &mut Emitter,
) {
    for (id, t) in an.tasks.iter().enumerate() {
        if let Placement::Node(node) = t.placement {
            if node >= cluster.nodes {
                em.push(
                    Code::P001,
                    Severity::Error,
                    vec![id],
                    format!(
                        "task {id} ({:?}) pinned to node {node}; the cluster has {} nodes (the simulator would silently clamp it)",
                        t.label, cluster.nodes
                    ),
                );
            }
        } else if p.static_placement && !t.is_barrier {
            em.push(
                Code::P002,
                Severity::Error,
                vec![id],
                format!(
                    "task {id} ({:?}) is unpinned, but {} places every task statically",
                    t.label, p.engine
                ),
            );
        }
    }

    // P003: a label that is partly pinned and partly floating usually means
    // a hash-partitioned operator lost its partitioning on some tasks.
    let mut by_label: BTreeMap<&'static str, (usize, usize, TaskId)> = BTreeMap::new();
    for (id, t) in an.tasks.iter().enumerate() {
        if t.is_barrier {
            continue;
        }
        let e = by_label.entry(t.label).or_insert((0, 0, id));
        match t.placement {
            Placement::Node(_) => e.0 += 1,
            Placement::Any => e.1 += 1,
        }
    }
    for (label, (pinned, any, first)) in &by_label {
        if *pinned > 0 && *any > 0 {
            em.push(
                Code::P003,
                Severity::Warning,
                vec![*first],
                format!(
                    "label {label:?} mixes {pinned} pinned and {any} floating tasks; hash placement should be all-or-nothing"
                ),
            );
        }
    }

    // P004: per-node input growth for hash-placed operators. The paper's
    // astronomy workload grows a hot worker's data ~6x (vs 2.5x mean)
    // because two popular sky patches hash together.
    let skew_ratio = p.skew_ratio;
    if skew_ratio > 0.0 {
        let input_total: u64 = an.tasks.iter().map(|t| t.s3_bytes).sum();
        if input_total > 0 && cluster.nodes > 1 {
            let share = input_total as f64 / cluster.nodes as f64;
            for (label, (pinned, _, _)) in &by_label {
                if *pinned == 0 {
                    continue;
                }
                let mut received = vec![0u64; cluster.nodes];
                for t in an.tasks.iter() {
                    if t.label != *label {
                        continue;
                    }
                    if let Placement::Node(node) = t.placement {
                        let inputs = t.disk_read_bytes
                            + t.deps
                                .iter()
                                .map(|&d| an.tasks[d].output_bytes)
                                .sum::<u64>();
                        received[node.min(cluster.nodes - 1)] += inputs;
                    }
                }
                let total: u64 = received.iter().sum();
                let hottest = received.iter().enumerate().max_by_key(|&(_, &b)| b);
                if let Some((node, &bytes)) = hottest {
                    let growth = bytes as f64 / share;
                    if growth >= skew_ratio {
                        let mean = total as f64 / cluster.nodes as f64 / share;
                        em.push(
                            Code::P004,
                            Severity::Warning,
                            vec![],
                            format!(
                                "label {label:?}: node {node} receives {growth:.1}x its input share (mean {mean:.1}x, threshold {skew_ratio:.1}x) — hash skew"
                            ),
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 5: engine-shape lints (E...)
// ---------------------------------------------------------------------------

pub(crate) fn engine_shape(an: &Analysis<'_>, p: &InvariantProfile, em: &mut Emitter) {
    match p.barriers {
        BarrierDiscipline::Free => {}
        BarrierDiscipline::Forbidden => {
            let bars: Vec<TaskId> = an
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.is_barrier)
                .map(|(i, _)| i)
                .collect();
            if !bars.is_empty() {
                em.push(
                    Code::E002,
                    Severity::Error,
                    bars.clone(),
                    format!(
                        "{} global barrier{} in a lowering for {}, which pipelines per item and has no global barrier",
                        bars.len(),
                        plural(bars.len()),
                        p.engine
                    ),
                );
            }
        }
        BarrierDiscipline::Staged => {
            // A producer that feeds a stage barrier must not also feed a
            // consumer that is not downstream of that barrier: such an edge
            // would move data across the stage boundary the engine claims
            // to synchronize on. (Cache-lineage edges whose consumer *does*
            // descend from the barrier are fine — that is re-reading a
            // cached stage output, not a bypass.)
            for (u, t) in an.tasks.iter().enumerate() {
                if t.is_barrier || t.output_bytes == 0 {
                    continue;
                }
                let bars: Vec<TaskId> = an.consumers[u]
                    .iter()
                    .copied()
                    .filter(|&c| an.tasks[c].is_barrier)
                    .collect();
                if bars.is_empty() {
                    continue;
                }
                for &v in &an.consumers[u] {
                    if an.tasks[v].is_barrier {
                        continue;
                    }
                    if !bars.iter().any(|&b| an.is_ancestor(b, v)) {
                        em.push(
                            Code::E001,
                            Severity::Warning,
                            vec![u, v],
                            format!(
                                "data edge {u} ({:?}) -> {v} ({:?}) bypasses the stage barrier the producer feeds",
                                an.tasks[u].label, an.tasks[v].label
                            ),
                        );
                    }
                }
            }
        }
    }
}
