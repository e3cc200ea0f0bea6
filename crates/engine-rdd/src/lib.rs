#![warn(missing_docs)]

//! # engine-rdd — an RDD-based cluster-computing engine (Spark analog)
//!
//! Runs the paper's Spark pipelines on real data (both use cases, Figure 6
//! for neuroscience). It keeps the architectural properties those
//! pipelines exercise:
//!
//! * **Resilient Distributed Datasets** — lazy, partitioned, immutable
//!   collections with lineage ([`Rdd`]): `map`, `flat_map`, `filter`,
//!   `group_by_key`, `collect`, `collect_as_map`.
//! * **Stage barriers at shuffles** — `group_by_key` materializes every
//!   parent partition before any child partition is produced.
//! * **Explicit partition counts** — the Figure 14 tuning knob. Spark's
//!   default of one partition per storage block ([`DEFAULT_BLOCK_BYTES`],
//!   the paper's under-utilization trap) is applied by the lowering.
//! * **Broadcast variables** — replicated read-only values ([`Broadcast`]),
//!   used for the neuroscience mask to avoid a join.
//! * **Caching** — [`Rdd::cache`] pins computed partitions in memory
//!   (the §5.3.3 experiment).
//! * **Task slots** — a job runs on as many slots as
//!   [`SparkContext::parallelize`] sliced its input into. Each stage's
//!   partition tasks ([`Rdd::collect`] and the map side of every shuffle)
//!   run on `min(partitions, slots)` `parexec` pool workers, so extra
//!   partitions queue for a slot instead of adding threads (Figure 14:
//!   gains stop once partitions pass the slot count).
//!
//! The eager executor runs closures natively; [`RddEngineProfile`] exports
//! the scheduling/overhead constants, including the per-closure crossing
//! into the worker-side Python process, that the benchmark harness uses
//! to lower RDD jobs onto `simcluster`.
//!
//! ```
//! use engine_rdd::SparkContext;
//!
//! let sc = SparkContext::new();
//! let totals = sc
//!     .parallelize((0..100u32).map(|i| (i % 3, i)).collect(), 4)
//!     .group_by_key(2)
//!     .map(|(k, vs)| (k, vs.iter().sum::<u32>()))
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
