//! Engine invariant profiles: what each engine's architecture promises,
//! expressed as checkable knobs.
//!
//! Each engine crate exposes an `invariants()` method building one of
//! these from its own architectural constants, so the checker's
//! expectations are derived from the same profile structs the lowerings
//! use — they cannot drift apart silently.

/// How an engine uses global barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierDiscipline {
    /// Execution proceeds in stages separated by barriers (Spark shuffle
    /// boundaries, TensorFlow step barriers). Data edges should not skip
    /// over the stage barrier their producer feeds (lint E001).
    Staged,
    /// Barriers are allowed anywhere (relational pipelining engines use
    /// them only where the plan genuinely synchronizes, e.g. broadcasts).
    Free,
    /// The engine model has no global barrier at all (Dask-style
    /// per-item pipelining); any barrier in a lowering is a bug (E002).
    Forbidden,
}

/// The invariants one engine's lowerings must satisfy.
///
/// Fields are deliberately plain data: the checker in [`crate::check`]
/// interprets them, and engine crates build them from their own profile
/// constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvariantProfile {
    /// Engine display name for reports.
    pub engine: &'static str,
    /// Every non-barrier task must be pinned to a node (TensorFlow device
    /// placement, SciDB instance ownership). Violations are errors (P002):
    /// the simulator would silently schedule the task anywhere.
    pub static_placement: bool,
    /// Tasks may read node-local stores populated outside this graph
    /// (Myria's per-node PostgreSQL, SciDB's chunk store), so disk reads
    /// need no in-graph writer (disables B002).
    pub store_backed: bool,
    /// Producers declare full-size outputs that consumers slice
    /// per-transfer (Dask's per-item pipelining trick), so producer-side
    /// amplification accounting is meaningless (disables B003).
    pub transfer_slices: bool,
    /// Memory pressure spills to disk instead of failing (Spark), so
    /// memory overruns degrade to warnings/infos instead of errors.
    pub spills: bool,
    /// Tolerated output/input amplification from format conversion
    /// (text encodings, per-engine storage formats) before B003 fires.
    pub format_factor: f64,
    /// Multiplier on the measured footprint the engine actually needs to
    /// run reliably (the paper: Spark wanted ~2× the input in cluster
    /// memory). Drives the M004 advisory.
    pub mem_requirement_factor: f64,
    /// Per-node input growth ratio beyond which hash-partitioned work is
    /// flagged as skewed (P004); `0.0` disables the check for engines
    /// whose lowerings route everything through a master on purpose.
    pub skew_ratio: f64,
    /// Barrier usage discipline.
    pub barriers: BarrierDiscipline,
}

impl InvariantProfile {
    /// A permissive baseline: nothing engine-specific is enforced beyond
    /// structure, byte conservation and physical memory limits. Engine
    /// crates tighten the fields they care about.
    pub fn new(engine: &'static str) -> InvariantProfile {
        InvariantProfile {
            engine,
            static_placement: false,
            store_backed: false,
            transfer_slices: false,
            spills: false,
            format_factor: 4.0,
            mem_requirement_factor: 1.0,
            skew_ratio: 0.0,
            barriers: BarrierDiscipline::Free,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_permissive() {
        let p = InvariantProfile::new("Test");
        assert!(!p.static_placement && !p.store_backed && !p.transfer_slices);
        assert_eq!(p.barriers, BarrierDiscipline::Free);
        assert_eq!(p.skew_ratio, 0.0);
        assert!(p.format_factor > 1.0);
    }
}
