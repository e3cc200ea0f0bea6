#![warn(missing_docs)]

//! # engine-rdd — an RDD-based cluster-computing engine (Spark analog)
//!
//! Reproduces the architectural properties of Spark that the paper's
//! analysis rests on:
//!
//! * **Resilient Distributed Datasets** — lazy, partitioned, immutable
//!   collections with lineage ([`Rdd`]): `map`, `flat_map`, `filter`,
//!   `group_by_key`, `reduce_by_key`, `collect`.
//! * **Stage barriers at shuffles** — wide dependencies materialize every
//!   parent partition before any child partition is produced.
//! * **Explicit partition counts** — the Figure 14 tuning knob; unspecified
//!   counts default to one partition per storage block, the paper's
//!   under-utilization trap.
//! * **Broadcast variables** — replicated read-only values ([`Broadcast`]),
//!   used for the neuroscience mask to avoid a join.
//! * **Caching** — [`Rdd::cache`] pins computed partitions in memory
//!   (the §5.3.3 experiment).
//! * **Worker-side Python process** — every closure invocation crosses a
//!   serialization boundary in the cost model; the eager executor runs
//!   closures natively and counts the crossings.
//!
//! * **Task slots** — a job runs on as many slots as
//!   [`SparkContext::parallelize`] sliced its input into. Each stage's
//!   partition tasks ([`Rdd::collect`], [`Rdd::count`] and the map side of
//!   every shuffle) run on `min(partitions, slots)` `parexec` pool
//!   workers, so extra partitions queue for a slot instead of adding
//!   threads (Figure 14: gains stop once partitions pass the slot count).
//!
//! The eager executor really computes; [`RddEngineProfile`] exports the
//! scheduling/overhead constants the benchmark harness uses to lower RDD
//! jobs onto `simcluster`.
//!
//! ```
//! use engine_rdd::SparkContext;
//!
//! let sc = SparkContext::new();
//! let totals = sc
//!     .parallelize((0..100u32).map(|i| (i % 3, i)).collect(), 4)
//!     .reduce_by_key(2, |a, b| a + b)
//!     .collect_as_map();
//! assert_eq!(totals.values().sum::<u32>(), (0..100).sum());
//! ```

mod broadcast;
mod context;
mod profile;
mod rdd;

pub use broadcast::Broadcast;
pub use context::{SparkContext, DEFAULT_BLOCK_BYTES};
pub use profile::RddEngineProfile;
pub use rdd::Rdd;
