#![warn(missing_docs)]

//! # engine-array — a chunked multidimensional array DBMS (SciDB analog)
//!
//! Runs the paper's SciDB pipelines on real data: the neuroscience
//! Steps 1N and 2N and the astronomy AQL coadd. It keeps the
//! architectural properties those pipelines exercise:
//!
//! * **Arrays divided into chunks distributed across instances** —
//!   [`ScidbArray`] stores a [`marray::ChunkGrid`]-partitioned array,
//!   ingested through the serial client-side [`ArrayDb::from_array`]
//!   (SciDB-1 in Figure 11). Chunk shape is the §5.3.1 tuning knob.
//! * **Chunk-at-a-time AFL operators** — the ones the pipelines run:
//!   [`ScidbArray::compress`] (filter), [`ScidbArray::aggregate_mean`],
//!   [`ScidbArray::aggregate_sum`], [`ScidbArray::apply`],
//!   [`ScidbArray::join`] and [`ScidbArray::cross_join2`]. There is no
//!   high-dimensional convolution: Step 2N runs only through `stream()`,
//!   and Steps 3N and 4A have no SciDB implementation, as the paper
//!   found.
//! * **The `stream()` interface** — [`ScidbArray::stream`] pipes each
//!   chunk through an external UDF via real TSV serialization both ways
//!   (the Figure 12c overhead). The instances stream side by side: chunks
//!   run one per morsel on `min(instances, chunks)` `parexec` pool
//!   workers, with results and ledger records in grid order.
//!
//! The lowering in `scibench-core` models the rest from
//! [`ArrayEngineProfile`]: the parallel `aio_input` CSV ingest (SciDB-2),
//! the reconstruction cost of chunk-misaligned selections, and the stock
//! engine's re-scan per iteration
//! ([`ArrayEngineProfile::incremental_iteration`] models the 6×
//! optimization of the paper's \[34]).
//!
//! ```
//! use engine_array::ArrayDb;
//! use marray::NdArray;
//!
//! let db = ArrayDb::connect(4);
//! let data = NdArray::from_fn(&[8, 8], |ix| (ix[0] * 8 + ix[1]) as f64);
//! let stored = db.from_array(&data, &[4, 4]).unwrap();
//! let mean = stored.aggregate_mean(0).unwrap();
//! assert_eq!(mean.materialize().unwrap(), data.mean_axis(0));
//! ```

mod db;
mod ops;
mod profile;

pub use db::{ArrayDb, ArrayDbError, ScidbArray};
pub use profile::ArrayEngineProfile;
