#![warn(missing_docs)]

//! # engine-dataflow — a static tensor dataflow engine (TensorFlow analog)
//!
//! Runs the neuroscience steps the paper could express in TensorFlow on
//! real data: Step 1N's b0 filter and mean, a thresholded mask, and
//! Step 2N as a whole-volume convolution. It keeps the architectural
//! properties those graphs exercise:
//!
//! * **Static dataflow graphs over N-d tensors** — build with
//!   [`GraphBuilder`], run with [`Session`]; nothing executes until
//!   `Session::run`.
//! * **The 2 GB serialized-graph limit** — [`Session::run`] refuses graphs
//!   whose serialized form (structure + embedded kernels) exceeds
//!   [`GRAPH_SIZE_LIMIT`], which forces one graph per pipeline step with a
//!   global barrier and master round-trip between steps.
//! * **Whole-tensor operations only** — there is deliberately *no* masked
//!   element-wise assignment (the denoising step cannot use the brain
//!   mask), and [`GraphBuilder::gather`] selects **only along axis 0**:
//!   filtering volumes on axis 3 requires the transpose→gather dance
//!   whose cost dominates Figure 12a.
//! * **Master-mediated I/O** — all ingest flows through the master and all
//!   results return to it ([`DataflowEngineProfile::master_mediated_io`]).
//!
//! TensorFlow's static device placement is modeled in the lowering, whose
//! neuroscience plan pins every op to a node, not by this executor.

//! ```
//! use engine_dataflow::{GraphBuilder, Session};
//! use marray::NdArray;
//!
//! let mut g = GraphBuilder::new();
//! let p = g.placeholder(&[2, 3]);
//! let m = g.reduce_mean(p, 1);
//! let mut session = Session::new();
//! let input = NdArray::from_fn(&[2, 3], |ix| ix[1] as f64);
//! let out = session.run(&g, &[(p, input)].into_iter().collect(), &[m]).unwrap();
//! assert_eq!(out[0].data(), &[1.0, 1.0]);
//! ```

mod graph;
mod profile;
mod session;

pub use graph::{BinaryOp, GraphBuilder, OpKind, TensorRef, GRAPH_SIZE_LIMIT};
pub use profile::DataflowEngineProfile;
pub use session::{DataflowError, Session};
