//! Simulation results.

/// Timing record for one executed task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskTiming {
    /// The task's label.
    pub label: &'static str,
    /// Node it ran on.
    pub node: usize,
    /// Start time (seconds, includes queueing after readiness).
    pub start: f64,
    /// Finish time.
    pub finish: f64,
}

/// Why a simulated run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Concurrent resident memory on a node exceeded its capacity while the
    /// run demanded strict memory (pipelined execution without spilling).
    OutOfMemory {
        /// The node that ran out.
        node: usize,
        /// Virtual time of the failure.
        time: f64,
        /// Bytes demanded at that moment.
        demand_bytes: u64,
        /// The node's capacity.
        capacity_bytes: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OutOfMemory { node, time, demand_bytes, capacity_bytes } => write!(
                f,
                "out of memory on node {node} at t={time:.1}s: {demand_bytes} bytes demanded, {capacity_bytes} available"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end virtual runtime in seconds.
    pub makespan: f64,
    /// Per-node total busy (slot-occupied) seconds.
    pub node_busy: Vec<f64>,
    /// Per-node peak concurrent resident memory in bytes.
    pub node_peak_mem: Vec<u64>,
    /// Total bytes downloaded from the object store.
    pub bytes_from_s3: u64,
    /// Total bytes moved over the network between nodes.
    pub bytes_over_network: u64,
    /// Total bytes read + written on local disks.
    pub bytes_on_disk: u64,
    /// Number of tasks executed away from their data-preferred node.
    pub tasks_stolen: usize,
    /// Per-task timings, in task-id order.
    pub timings: Vec<TaskTiming>,
}

impl SimReport {
    /// Peak memory across all nodes.
    pub fn peak_mem(&self) -> u64 {
        self.node_peak_mem.iter().copied().max().unwrap_or(0)
    }

    /// Sum of time spent by tasks whose label matches `label`.
    pub fn busy_for_label(&self, label: &str) -> f64 {
        self.timings
            .iter()
            .filter(|t| t.label == label)
            .map(|t| t.finish - t.start)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_mem_is_the_largest_node_peak() {
        let report = SimReport {
            makespan: 10.0,
            node_busy: vec![5.0, 10.0],
            node_peak_mem: vec![7, 3],
            bytes_from_s3: 0,
            bytes_over_network: 0,
            bytes_on_disk: 0,
            tasks_stolen: 0,
            timings: vec![],
        };
        assert_eq!(report.peak_mem(), 7);
    }
}
