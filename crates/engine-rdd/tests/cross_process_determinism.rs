//! Regression test for hash-seed nondeterminism: the same keyed job must
//! produce byte-identical output in two *separate processes*.
//!
//! `HashMap`'s `RandomState` is reseeded per process, so iteration-order
//! leaks only show up across process boundaries — an in-process double run
//! can pass while two CI runs disagree. The parent test therefore re-execs
//! this test binary twice (filtered to `child_digest`) with
//! `SCIBENCH_DETERMINISM_CHILD=1` and compares the digests the children
//! print.

use engine_rdd::SparkContext;
use std::process::Command;

const CHILD_ENV: &str = "SCIBENCH_DETERMINISM_CHILD";

/// FNV-1a over the formatted rows: stable, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A representative shuffle-heavy job: string keys (where hash seeds bite
/// hardest), two shuffles into different partition counts, each group's
/// values folded in shuffle order, then everything in one digest.
fn run_job() -> u64 {
    let sc = SparkContext::new();
    let words: Vec<(String, u64)> = (0..512u64)
        .map(|i| (format!("key-{}", i % 37), i))
        .collect();
    let pairs = sc.parallelize(words, 8);

    let grouped = pairs.group_by_key(5).collect();
    let folded = pairs
        .group_by_key(3)
        .map(|(k, vs)| {
            let fold = vs
                .into_iter()
                .reduce(|a, b| a.wrapping_mul(31).wrapping_add(b));
            (k, fold.unwrap_or_default())
        })
        .collect_as_map();

    let mut transcript = String::new();
    for (k, vs) in &grouped {
        transcript.push_str(&format!("g {k} {vs:?}\n"));
    }
    for (k, v) in &folded {
        transcript.push_str(&format!("m {k} {v}\n"));
    }
    fnv1a(transcript.as_bytes())
}

/// Child half: prints the digest when invoked by the parent, no-ops in a
/// normal `cargo test` run.
#[test]
fn child_digest() {
    if std::env::var(CHILD_ENV).is_err() {
        return;
    }
    println!("DIGEST={:016x}", run_job());
}

/// Parent half: two fresh processes (fresh hash seeds) must agree.
#[test]
fn identical_output_across_two_process_runs() {
    let exe = std::env::current_exe().expect("test binary path");
    let digest_of_run = || {
        let out = Command::new(&exe)
            .args(["--exact", "child_digest", "--nocapture", "--test-threads=1"])
            .env(CHILD_ENV, "1")
            .output()
            .expect("spawn child test process");
        assert!(
            out.status.success(),
            "child run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        // With --nocapture the digest may share a line with the harness's
        // `test child_digest ...` prefix, so match anywhere in the line.
        stdout
            .lines()
            .find_map(|l| l.split_once("DIGEST=").map(|(_, d)| d.trim().to_string()))
            .unwrap_or_else(|| panic!("no DIGEST line in child output:\n{stdout}"))
    };
    let first = digest_of_run();
    let second = digest_of_run();
    assert_eq!(
        first, second,
        "shuffle output depends on the process hash seed"
    );
    // And the in-process result matches too: the digest is a pure function
    // of the job, not of any per-process state.
    assert_eq!(first, format!("{:016x}", run_job()));
}
