//! CLI tests for the `reproduce` and `scibench` binaries.

use std::process::Command;

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

fn scibench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_scibench"))
        .args(args)
        .output()
        .expect("run scibench")
}

#[test]
fn list_names_every_artifact() {
    let out = reproduce(&["--list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for id in [
        "table1",
        "fig10a",
        "fig10c",
        "fig11",
        "fig12d",
        "fig13",
        "fig14",
        "fig15",
        "chunks",
        "caching",
        "ablations",
        "autotune",
        "skew",
    ] {
        assert!(text.lines().any(|l| l == id), "missing artifact {id}");
    }
}

#[test]
fn static_artifacts_render() {
    let out = reproduce(&["table1", "fig10a", "fig10b"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Table 1 (paper)"));
    assert!(text.contains("Table 1 (ours)"));
    assert!(text.contains("105.0"), "25-subject input size");
    assert!(text.contains("288.0"), "24-visit intermediate size");
}

#[test]
fn unknown_artifact_fails_cleanly() {
    let out = reproduce(&["figXX"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown artifact"));
}

#[test]
fn csv_export_writes_files() {
    let dir = std::env::temp_dir().join(format!("scibench_cli_csv_{}", std::process::id()));
    let out = reproduce(&["fig10a", "--csv", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let csv = std::fs::read_to_string(dir.join("fig10a.csv")).expect("csv written");
    assert!(csv.starts_with("Subjects,Input,Largest Intermediate"));
    assert_eq!(csv.lines().count(), 7);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn calibrated_check_calibrates_first() {
    // The claims' verdicts under calibrated costs depend on the host's
    // kernel timings, so only the calibration itself is asserted.
    let out = reproduce(&["--calibrated", "--check"]);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("calibrating"), "{err}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("shape checks pass"), "{text}");
}

#[test]
fn scibench_rejects_zero_threads_with_exit_2() {
    let out = scibench(&["bench", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("at least 1"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn scibench_rejects_oversized_threads_with_exit_2() {
    let out = scibench(&["bench", "--threads", "100000"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("exceeds the cap"), "{err}");
}

#[test]
fn scibench_rejects_unknown_flag_with_exit_2() {
    let out = scibench(&["bench", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown argument"), "{err}");
}

#[test]
fn bench_emits_schema_json_with_speedups() {
    let path = std::env::temp_dir().join(format!("scibench_bench_{}.json", std::process::id()));
    let out = scibench(&["bench", "--threads", "2", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out);
    let json = std::fs::read_to_string(&path).expect("json written");
    std::fs::remove_file(&path).ok();
    assert!(json.contains("\"schema\": \"scibench-bench-kernels/v1\""));
    assert!(json.contains("\"available_parallelism\""));
    for kernel in [
        "nlm_denoise",
        "dtm_fit",
        "coadd_sigma_clip",
        "background_estimate",
        "detect_sources",
    ] {
        assert!(
            json.contains(&format!("\"kernel\": \"{kernel}\"")),
            "{kernel}"
        );
    }
    // Serial anchor rows report speedup exactly 1.
    assert!(json.contains("\"threads\": 1"));
    assert!(json.contains("\"speedup_vs_serial\": 1.0000"));
}
