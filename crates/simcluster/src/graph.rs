//! Task graphs: the lowering target of every engine.

/// Index of a task within its [`TaskGraph`].
pub type TaskId = usize;

/// Where a task may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Scheduler's choice (locality-aware policies prefer the node holding
    /// the most input bytes).
    Any,
    /// Pinned to one node (TensorFlow's explicit device placement, or a
    /// hash-partitioned relation's home worker).
    Node(usize),
}

/// One schedulable unit of work.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Human-readable label (step name), used in reports.
    pub label: &'static str,
    /// Pure compute time on one unloaded worker slot, in seconds.
    pub compute: f64,
    /// Bytes downloaded from the object store before compute starts.
    pub s3_bytes: u64,
    /// Bytes read from node-local disk.
    pub disk_read_bytes: u64,
    /// Bytes written to node-local disk.
    pub disk_write_bytes: u64,
    /// Size of the task's output, used for downstream transfer costs.
    pub output_bytes: u64,
    /// Peak resident memory while the task runs.
    pub mem_bytes: u64,
    /// Placement constraint.
    pub placement: Placement,
    /// Dependencies: tasks whose outputs this task consumes.
    pub deps: Vec<TaskId>,
    /// Control-only synchronization point: orders execution but moves no
    /// data (see [`TaskGraph::barrier`]).
    pub is_barrier: bool,
}

impl TaskSpec {
    /// A pure-compute task template.
    pub fn compute(label: &'static str, seconds: f64) -> TaskSpec {
        TaskSpec {
            label,
            compute: seconds,
            s3_bytes: 0,
            disk_read_bytes: 0,
            disk_write_bytes: 0,
            output_bytes: 0,
            mem_bytes: 0,
            placement: Placement::Any,
            deps: Vec::new(),
            is_barrier: false,
        }
    }

    /// Set the S3 input size.
    pub fn s3(mut self, bytes: u64) -> Self {
        self.s3_bytes = bytes;
        self
    }

    /// Set local disk read bytes.
    pub fn disk_read(mut self, bytes: u64) -> Self {
        self.disk_read_bytes = bytes;
        self
    }

    /// Set local disk write bytes.
    pub fn disk_write(mut self, bytes: u64) -> Self {
        self.disk_write_bytes = bytes;
        self
    }

    /// Set the output size.
    ///
    /// An output must fit in the task's resident memory: a spec declaring
    /// `output_bytes > mem_bytes` (with both set) describes a task that
    /// emits data it never held, which silently corrupts the memory
    /// analysis downstream. Debug builds reject it here.
    pub fn output(mut self, bytes: u64) -> Self {
        debug_assert!(
            self.mem_bytes == 0 || bytes <= self.mem_bytes,
            "task {:?}: output ({bytes} B) exceeds declared resident memory ({} B)",
            self.label,
            self.mem_bytes
        );
        self.output_bytes = bytes;
        self
    }

    /// Set the resident memory footprint (see [`TaskSpec::output`] for the
    /// output ≤ memory invariant enforced in debug builds).
    pub fn mem(mut self, bytes: u64) -> Self {
        debug_assert!(
            self.output_bytes == 0 || self.output_bytes <= bytes,
            "task {:?}: declared resident memory ({bytes} B) below output size ({} B)",
            self.label,
            self.output_bytes
        );
        self.mem_bytes = bytes;
        self
    }

    /// Pin to a node.
    pub fn on_node(mut self, node: usize) -> Self {
        self.placement = Placement::Node(node);
        self
    }

    /// Add dependencies.
    pub fn after(mut self, deps: &[TaskId]) -> Self {
        self.deps.extend_from_slice(deps);
        self
    }
}

/// A structural violation found by [`TaskGraph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphViolation {
    /// The offending task.
    pub task: TaskId,
    /// What is wrong with it, in words.
    pub reason: String,
}

impl std::fmt::Display for GraphViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {}: {}", self.task, self.reason)
    }
}

/// A DAG of [`TaskSpec`]s.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskSpec>,
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> TaskGraph {
        TaskGraph::default()
    }

    /// Add a task, returning its id. Dependencies must already exist
    /// (ids are insertion-ordered, so the graph is acyclic by
    /// construction).
    pub fn add(&mut self, task: TaskSpec) -> TaskId {
        let id = self.tasks.len();
        for &d in &task.deps {
            assert!(d < id, "dependency {d} of task {id} does not exist yet");
        }
        debug_assert!(
            !task.is_barrier || Self::barrier_is_data_free(&task),
            "barrier {:?} must not carry data (barriers synchronize; they do not move bytes)",
            task.label
        );
        self.tasks.push(task);
        id
    }

    /// Build a graph directly from a task list, bypassing the `add`-time
    /// ordering assertions. The result may be arbitrarily broken — forward
    /// dependencies, cycles, data-bearing barriers; [`TaskGraph::validate`]
    /// is the gate. Exists so analysis tooling and tests can construct
    /// deliberately malformed graphs.
    pub fn from_tasks_unchecked(tasks: Vec<TaskSpec>) -> TaskGraph {
        TaskGraph { tasks }
    }

    fn barrier_is_data_free(t: &TaskSpec) -> bool {
        t.s3_bytes == 0
            && t.disk_read_bytes == 0
            && t.disk_write_bytes == 0
            && t.output_bytes == 0
            && t.mem_bytes == 0
    }

    /// Cheap structural validation: every dependency exists, no task
    /// depends on itself, the dependency relation is acyclic, and barriers
    /// carry no data. Graphs built through [`TaskGraph::add`] satisfy the
    /// first three by construction; graphs from
    /// [`TaskGraph::from_tasks_unchecked`] may not. Semantic checking
    /// (byte conservation, memory budgets, placement) lives in the
    /// `plancheck` crate. A valid graph's result is a topological order of
    /// its task ids.
    pub fn validate(&self) -> Result<Vec<TaskId>, GraphViolation> {
        let n = self.tasks.len();
        for (id, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                if d >= n {
                    return Err(GraphViolation {
                        task: id,
                        reason: format!(
                            "depends on task {d}, which does not exist (graph has {n} tasks)"
                        ),
                    });
                }
                if d == id {
                    return Err(GraphViolation {
                        task: id,
                        reason: "depends on itself".into(),
                    });
                }
            }
            if t.is_barrier && !Self::barrier_is_data_free(t) {
                return Err(GraphViolation {
                    task: id,
                    reason: format!(
                        "barrier {:?} carries data; barriers must be byte-free",
                        t.label
                    ),
                });
            }
        }
        // Kahn's algorithm over the (now known-in-range) edges; anything
        // left unprocessed sits on a cycle.
        let mut indegree: Vec<usize> = self.tasks.iter().map(|t| t.deps.len()).collect();
        let mut consumers: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (id, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                consumers[d].push(id);
            }
        }
        let mut ready: Vec<TaskId> = indegree
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = ready.pop() {
            order.push(u);
            for &c in &consumers[u] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.push(c);
                }
            }
        }
        if order.len() < n {
            let on_cycle = indegree
                .iter()
                .enumerate()
                .find(|&(_, &d)| d > 0)
                .map(|(i, _)| i)
                .unwrap_or(0);
            return Err(GraphViolation {
                task: on_cycle,
                reason: "sits on a dependency cycle (no topological order exists)".into(),
            });
        }
        Ok(order)
    }

    /// Add a zero-cost synchronization task depending on all of `deps` —
    /// a stage barrier (Spark shuffle boundary, TensorFlow step barrier).
    /// Barriers order execution but move no data and occupy no slot time.
    pub fn barrier(&mut self, label: &'static str, deps: &[TaskId]) -> TaskId {
        let mut t = TaskSpec::compute(label, 0.0).after(deps);
        t.is_barrier = true;
        self.add(t)
    }

    /// The tasks, by id.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total pure-compute seconds in the graph (a lower bound on
    /// work; makespan ≥ total_compute / total_slots).
    pub fn total_compute(&self) -> f64 {
        self.tasks.iter().map(|t| t.compute).sum()
    }

    /// Critical-path compute length (a lower bound on makespan).
    pub fn critical_path(&self) -> f64 {
        let mut finish = vec![0.0f64; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            let ready = t.deps.iter().map(|&d| finish[d]).fold(0.0, f64::max);
            finish[i] = ready + t.compute;
        }
        finish.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let t = TaskSpec::compute("x", 2.0)
            .s3(100)
            .output(50)
            .mem(80)
            .on_node(3)
            .after(&[]);
        assert_eq!(t.compute, 2.0);
        assert_eq!(t.s3_bytes, 100);
        assert_eq!(t.placement, Placement::Node(3));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "below output size"))]
    fn output_larger_than_mem_is_rejected_in_debug() {
        let t = TaskSpec::compute("x", 1.0).output(50).mem(10);
        // Release builds keep the (inconsistent) spec; debug builds panic
        // in `mem` above.
        assert_eq!(t.output_bytes, 50);
    }

    #[test]
    fn validate_accepts_built_graphs() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("a", 1.0));
        let b = g.add(TaskSpec::compute("b", 1.0).after(&[a]));
        let sync = g.barrier("sync", &[a, b]);
        assert_eq!(g.validate(), Ok(vec![a, b, sync]));
    }

    #[test]
    fn validate_finds_cycles_and_missing_deps() {
        let cyc = TaskGraph::from_tasks_unchecked(vec![
            TaskSpec::compute("a", 1.0).after(&[1]),
            TaskSpec::compute("b", 1.0).after(&[0]),
        ]);
        let v = cyc.validate().unwrap_err();
        assert!(v.reason.contains("cycle"), "{v}");

        let dangling =
            TaskGraph::from_tasks_unchecked(vec![TaskSpec::compute("a", 1.0).after(&[7])]);
        let v = dangling.validate().unwrap_err();
        assert!(v.reason.contains("does not exist"), "{v}");

        let selfdep =
            TaskGraph::from_tasks_unchecked(vec![TaskSpec::compute("a", 1.0).after(&[0])]);
        let v = selfdep.validate().unwrap_err();
        assert!(v.reason.contains("itself"), "{v}");
    }

    #[test]
    fn validate_rejects_data_bearing_barriers() {
        let mut bar = TaskSpec::compute("sync", 0.0);
        bar.is_barrier = true;
        bar.output_bytes = 10;
        let g = TaskGraph::from_tasks_unchecked(vec![bar]);
        let v = g.validate().unwrap_err();
        assert!(v.reason.contains("byte-free"), "{v}");
    }

    #[test]
    fn add_assigns_sequential_ids() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("a", 1.0));
        let b = g.add(TaskSpec::compute("b", 1.0).after(&[a]));
        assert_eq!((a, b), (0, 1));
        assert_eq!(g.len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new();
        g.add(TaskSpec::compute("a", 1.0).after(&[5]));
    }

    #[test]
    fn critical_path_vs_total() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("a", 3.0));
        let b = g.add(TaskSpec::compute("b", 1.0));
        let _c = g.add(TaskSpec::compute("c", 2.0).after(&[a, b]));
        assert_eq!(g.total_compute(), 6.0);
        assert_eq!(g.critical_path(), 5.0); // a → c
    }

    #[test]
    fn barrier_depends_on_all() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskSpec::compute("a", 1.0));
        let b = g.add(TaskSpec::compute("b", 2.0));
        let bar = g.barrier("sync", &[a, b]);
        assert_eq!(g.tasks()[bar].deps, vec![a, b]);
        assert_eq!(g.tasks()[bar].compute, 0.0);
    }
}
