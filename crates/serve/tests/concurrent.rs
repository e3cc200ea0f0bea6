//! Concurrent-determinism contract for the resident service: N clients
//! replaying the same schedule concurrently must receive byte-identical
//! responses to a serial replay — hits, misses, interleavings and
//! evictions may differ, payload bytes may not.

use std::path::Path;

use parexec::{par_map_slabs, Parallelism};
use scibench_core::lower::Engine;
use sciserve::{demo_catalog, Pipeline, QueryDesc, ServeOutcome, Server};

fn server() -> Server {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/serve sits two levels below the workspace root");
    let purity = scilint::purity::analyze_workspace(root).expect("workspace readable");
    Server::new(demo_catalog(true), purity)
}

/// Serve `schedule` with `par` clients sharing `server`, results in
/// schedule order.
fn replay(server: &Server, schedule: &[QueryDesc], par: Parallelism) -> Vec<ServeOutcome> {
    par_map_slabs(schedule, par, |_, q| server.serve_one(q))
}

/// A small mixed schedule: repeated hot queries, a cold prefix-sharing
/// chain, an uncertified fixture and a rejected plan, interleaved.
fn schedule() -> Vec<QueryDesc> {
    let base = [
        QueryDesc::new(Engine::Spark, Pipeline::NeuroSegment, "dmri", 1),
        QueryDesc::new(Engine::Dask, Pipeline::NeuroSegment, "dmri", 1),
        QueryDesc::new(Engine::Spark, Pipeline::NeuroDenoise, "dmri", 1),
        QueryDesc::new(Engine::Spark, Pipeline::FixtureAmbient, "dmri", 1),
        QueryDesc::new(Engine::Spark, Pipeline::NeuroSegment, "dmri", 2),
        QueryDesc::new(Engine::TensorFlow, Pipeline::NeuroFa, "dmri", 1),
    ];
    (0..4).flat_map(|_| base.iter().cloned()).collect()
}

fn fingerprints(outcomes: &[ServeOutcome]) -> Vec<Option<u64>> {
    outcomes
        .iter()
        .map(|o| o.response().map(|r| r.fingerprint))
        .collect()
}

#[test]
fn concurrent_replay_matches_serial_byte_for_byte() {
    let schedule = schedule();
    let serial_out = replay(&server(), &schedule, Parallelism::Serial);

    let concurrent = server();
    let concurrent_out = replay(&concurrent, &schedule, Parallelism::threads(4));

    assert_eq!(serial_out.len(), concurrent_out.len());
    assert_eq!(
        fingerprints(&serial_out),
        fingerprints(&concurrent_out),
        "concurrent replay must be byte-identical to serial"
    );
    // The same requests must be rejected in both worlds.
    for (s, c) in serial_out.iter().zip(&concurrent_out) {
        assert_eq!(s.is_rejected(), c.is_rejected());
    }
    // The concurrent server really did share its cache: far fewer misses
    // than requests.
    let stats = concurrent.cache_stats();
    assert!(stats.hits > 0, "repeated queries must hit");
    assert!(stats.misses < schedule.len() as u64);
}

#[test]
fn concurrent_cache_off_replay_is_also_deterministic() {
    let schedule = schedule();
    let on = server();
    let off = server().with_caching(false);
    let par = Parallelism::threads(4);
    assert_eq!(
        fingerprints(&replay(&on, &schedule, par)),
        fingerprints(&replay(&off, &schedule, par)),
        "the cache must never change a single payload byte"
    );
    assert_eq!(off.cache_len(), 0);
}
