#![warn(missing_docs)]

//! # engine-array — a chunked multidimensional array DBMS (SciDB analog)
//!
//! Reproduces the architectural properties of SciDB the paper's analysis
//! rests on:
//!
//! * **Arrays divided into chunks distributed across instances** —
//!   [`ScidbArray`] stores a [`marray::ChunkGrid`]-partitioned array;
//!   chunks round-robin across instances (one instance per 1–2 cores, per
//!   the vendor guidance the paper cites). Chunk shape is the §5.3.1
//!   tuning knob (1000×1000 optimal for the LSST images; 500² was 3×
//!   slower, 1500² +22%, 2000² +55%).
//! * **Chunk-at-a-time operators** — every AFL-style operator
//!   ([`ScidbArray::between`], [`ScidbArray::compress`],
//!   [`ScidbArray::aggregate_mean`], [`ScidbArray::window_mean`],
//!   [`ScidbArray::apply`], [`ScidbArray::join`]) iterates chunks;
//!   selections not aligned with chunk boundaries must read and rebuild
//!   every overlapping chunk (the Figure 12a filter penalty), which the
//!   engine's [`OpStats`] expose.
//! * **No high-dimensional convolution** — [`ScidbArray::convolve`]
//!   returns [`ArrayDbError::Unsupported`]: Steps 2N/3N/4A cannot be
//!   written natively, exactly as the paper found.
//! * **The `stream()` interface** — [`ScidbArray::stream`] pipes each
//!   chunk through an external UDF via real TSV serialization both ways
//!   (the Figure 12c overhead). The instances stream side by side: chunks
//!   run one per morsel on `min(instances, chunks)` `parexec` pool
//!   workers, with results and statistics in grid order.
//! * **Two ingest paths** — serial client-side [`ArrayDb::from_array`]
//!   (SciDB-1 in Figure 11) and parallel CSV [`ArrayDb::aio_input`]
//!   (SciDB-2, an order of magnitude faster but needing format
//!   conversion).
//! * **No incremental iteration** — the stock engine re-scans per
//!   iteration; [`ArrayEngineProfile::incremental_iteration`] models the
//!   6× optimization of the paper's \[34].

//! ```
//! use engine_array::ArrayDb;
//! use marray::NdArray;
//!
//! let db = ArrayDb::connect(4);
//! let data = NdArray::from_fn(&[8, 8], |ix| (ix[0] * 8 + ix[1]) as f64);
//! let stored = db.from_array(&data, &[4, 4]).unwrap();
//! let mean = stored.aggregate_mean(0).unwrap();
//! assert_eq!(mean.materialize().unwrap(), data.mean_axis(0));
//! assert!(stored.convolve(&NdArray::zeros(&[3, 3])).is_err()); // not supported
//! ```

mod db;
mod ops;
mod profile;

pub use db::{ArrayDb, ArrayDbError, OpStats, ScidbArray};
pub use profile::ArrayEngineProfile;
