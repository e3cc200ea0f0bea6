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

    /// Set the output size (at most the declared memory; see
    /// [`TaskGraph::add`]).
    pub fn output(mut self, bytes: u64) -> Self {
        self.output_bytes = bytes;
        self
    }

    /// Set the resident memory footprint.
    pub fn mem(mut self, bytes: u64) -> Self {
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

    /// Add a task, returning its id. `add` is the only way into a graph,
    /// and in every build it refuses a dependency on a task not added yet
    /// (ids are insertion-ordered, so no graph holds a cycle or a self
    /// dependency), a barrier that carries data, and an output larger than
    /// the declared resident memory (a memory of 0 declares none). A
    /// repeated dependency is accepted; `plancheck` reports it (W004).
    pub fn add(&mut self, task: TaskSpec) -> TaskId {
        let id = self.tasks.len();
        for &d in &task.deps {
            assert!(d < id, "dependency {d} of task {id} does not exist yet");
        }
        assert!(
            !task.is_barrier
                || (task.s3_bytes
                    | task.disk_read_bytes
                    | task.disk_write_bytes
                    | task.output_bytes
                    | task.mem_bytes)
                    == 0,
            "barrier {:?} must not carry data (barriers synchronize; they do not move bytes)",
            task.label
        );
        assert!(
            task.mem_bytes == 0 || task.output_bytes <= task.mem_bytes,
            "task {:?}: output ({} B) exceeds declared resident memory ({} B)",
            task.label,
            task.output_bytes,
            task.mem_bytes
        );
        self.tasks.push(task);
        id
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
    #[should_panic(expected = "exceeds declared resident memory")]
    fn output_larger_than_mem_panics() {
        TaskGraph::new().add(TaskSpec::compute("x", 1.0).output(50).mem(10));
    }

    #[test]
    #[should_panic(expected = "must not carry data")]
    fn data_carrying_barrier_panics() {
        let mut bar = TaskSpec::compute("sync", 0.0).output(10);
        bar.is_barrier = true;
        TaskGraph::new().add(bar);
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
