#![warn(missing_docs)]

//! # engine-taskgraph — a delayed task-graph parallel library (Dask analog)
//!
//! Runs the paper's Dask neuroscience pipeline on real data (Figure 8). It
//! keeps the architectural properties that pipeline exercises:
//!
//! * **`delayed` compute graphs over plain values** — no collection
//!   abstraction; users wrap ordinary functions with
//!   [`DaskClient::delayed`], [`DaskClient::delayed_map`],
//!   [`DaskClient::delayed_zip`] and [`DaskClient::delayed_many`] and chain
//!   them freely (the paper's Figure 8 style).
//! * **Explicit barriers** — nothing runs until [`DaskClient::result`]
//!   (Dask's `.result()`/`.compute()`), which executes the needed subgraph
//!   and blocks. Users must reason about where to place these barriers.
//! * **No persistence layer** — computed values stay in the graph where
//!   they were produced; there is no storage/caching service.
//! * **Dynamic scheduling with work stealing** — the eager executor's
//!   `parexec` pool workers drain one shared ready queue (any idle worker
//!   takes any ready task); the cost model charges Dask's aggressive
//!   stealing via [`TaskGraphEngineProfile::steal_cost`], which erodes
//!   efficiency at larger cluster sizes (Figure 10g).
//!
//! The lowering models the rest: the scheduler does not know download
//! sizes, so users assign subjects to machines explicitly (Figure 11's
//! flat Dask ingest curve, in the harness's ingest experiment).
//!
//! ```
//! use engine_taskgraph::DaskClient;
//!
//! let client = DaskClient::new(4);
//! let data = client.delayed(|| vec![1.0f64, 2.0, 3.0]);
//! let mean = client.delayed_map(data, |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64);
//! assert_eq!(client.result(mean), 2.0); // .result() is the barrier
//! ```

mod client;
mod profile;

pub use client::{DaskClient, Delayed};
pub use profile::TaskGraphEngineProfile;
