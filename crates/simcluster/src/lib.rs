#![warn(missing_docs)]

//! # simcluster — a discrete-event shared-nothing cluster simulator
//!
//! Models the paper's experimental platform — a cluster of Amazon EC2
//! r3.2xlarge nodes reading from S3 — so the 16–64-node, 100+ GB
//! experiments can be regenerated deterministically on one machine.
//!
//! The model is a task-graph list scheduler over explicit resources:
//!
//! * a [`ClusterSpec`] describes nodes (worker slots, memory, disk
//!   bandwidth), the network, and the object store;
//! * engines lower their query plans to a [`TaskGraph`] whose tasks carry
//!   compute seconds, S3/disk/network I/O bytes, memory footprints and
//!   placement constraints;
//! * [`simulate`] executes the graph under a [`SchedPolicy`] (locality-aware
//!   FIFO, work stealing with per-steal cost, or static placement) and
//!   returns a [`SimReport`] with the makespan, per-node busy time, peak
//!   memory and data-movement totals.
//!
//! Scheduling-policy differences — pipelining vs. barriers, shuffle
//! transfers, work-stealing overhead, master-funneled ingest — are exactly
//! the mechanisms the paper's analysis attributes performance differences
//! to, and all of them are expressible in this model.
//!
//! ```
//! use simcluster::{simulate, ClusterSpec, SchedPolicy, TaskGraph, TaskSpec};
//!
//! let mut g = TaskGraph::new();
//! let download = g.add(TaskSpec::compute("download", 0.0).s3(4_200_000_000).output(4_200_000_000));
//! for _ in 0..288 {
//!     g.add(TaskSpec::compute("denoise", 40.0).after(&[download]));
//! }
//! let cluster = ClusterSpec::r3_2xlarge(16);
//! let policy = SchedPolicy::LocalityFifo { per_task_overhead: 0.05 };
//! let report = simulate(&g, &cluster, policy, false).unwrap();
//! assert!(report.makespan > 40.0); // at least one denoise wave
//! assert_eq!(report.bytes_from_s3, 4_200_000_000);
//! ```

mod graph;
mod report;
mod sched;
mod sim;
mod spec;

pub use graph::{Placement, TaskGraph, TaskId, TaskSpec};
pub use report::{SimError, SimReport, TaskTiming};
pub use sched::SchedPolicy;
pub use sim::simulate;
pub use spec::{ClusterSpec, NodeSpec};
