//! `sciserve`: the resident query service over the scibench engine
//! analogs.
//!
//! The paper's batch experiments pay full price for every run; a service
//! that stays resident can do better, because the same plans recur over
//! the same registered inputs. This crate turns the workspace into that
//! service:
//!
//! - [`catalog`] — a versioned dataset catalog, every payload
//!   content-fingerprinted at registration;
//! - [`query`] — the small declarative query description clients submit
//!   (engine, pipeline, dataset, cluster size);
//! - [`server`] — the request loop: plans are lowered through the
//!   existing engine analogs, admission-checked by `plancheck` (memory
//!   errors refuse the plan — the Figure 15 configuration is the
//!   canonical rejection), certified by `scimemo`, and executed against a
//!   process-wide zero-copy result cache keyed by `(plan fingerprint,
//!   input fingerprint)`. The server owns no threads: `serve_one` takes
//!   `&self`, and concurrent callers fan requests out on their own
//!   `parexec` pool;
//! - [`fp`] — the FNV-1a content fingerprints both halves of that key
//!   are built from.
//!
//! Only `scimemo`-certified stages may populate the cache; uncertified
//! plans (the ambient-read fixture) always take the bypass path. Hits are
//! `Arc` shares — zero copies, zero bytes, verified by `CopyCounter` in
//! `scibench bench serve` — and stage-wise keys give sub-plan
//! memoization: a cold query reuses the warm prefix of any
//! previously-served plan. See DESIGN.md §3.15.

pub mod catalog;
pub mod fp;
pub mod query;
pub mod server;

pub use catalog::{cube_for_survey, demo_catalog, Catalog, Dataset, DatasetPayload};
pub use fp::Fingerprint;
pub use query::{AstroMode, Pipeline, QueryDesc};
pub use server::{Response, ServeOutcome, Server, StageOutcome};
