//! Smoke tests: every workload at test scale with a handful of ops. Each
//! run is its own process, as in real use, because the counters, the
//! memory budget and peak RSS are process-wide.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the suite sits one level below the repository root")
}

/// `(name, unit)` of every metric one section of `BENCHMARK.json` declares.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let body = &text[text
        .find(&format!("\"{section}\""))
        .expect("section present")..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|row| {
            let name = row.split('"').next().expect("name").to_string();
            let unit = row
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("unit")
                .to_string();
            (name, unit)
        })
        .collect()
}

/// One smoke run's standard output.
struct Run {
    stdout: String,
}

impl Run {
    fn new(workload: &str, seed: u64, traced: bool) -> Run {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
        let trace = if traced {
            dir.join(format!("smoke-{workload}-{seed}.jsonl"))
                .display()
                .to_string()
        } else {
            "0".to_string()
        };
        let out = Command::new(env!("CARGO_BIN_EXE_scibench-suite"))
            .args(["run", "--workload", workload, "--smoke", "--trace", &trace])
            .args(["--seed", &seed.to_string()])
            .output()
            .expect("the suite runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "{workload} seed {seed} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        Run { stdout }
    }

    /// The printed `value unit` of metric `name`.
    fn metric(&self, name: &str) -> Option<(&str, &str)> {
        self.stdout.lines().find_map(|l| {
            let mut words = l.split(' ');
            (words.next() == Some(name)).then_some(())?;
            Some((words.next()?, words.next()?))
        })
    }

    fn fingerprint(&self) -> &str {
        self.stdout
            .lines()
            .find_map(|l| l.strip_prefix("input_fingerprint "))
            .expect("fingerprint printed")
    }

    /// Every `/op`, `/req` and count-like metric: the ones the program
    /// counts rather than times.
    fn counters(&self) -> Vec<(String, String)> {
        declared("per_layer")
            .into_iter()
            .filter(|(name, unit)| unit.ends_with("/op") || name == "marray.codec_ratio")
            .map(|(name, _)| {
                let value = self.metric(&name).expect("counter printed").0.to_string();
                (name, value)
            })
            .collect()
    }

    fn assert_complete(&self, workload: &str) {
        for (name, unit) in declared("end_to_end")
            .into_iter()
            .chain(declared("per_layer"))
        {
            let (value, printed_unit) = self
                .metric(&name)
                .unwrap_or_else(|| panic!("{workload}: `{name}` not printed:\n{}", self.stdout));
            assert_eq!(printed_unit, unit, "{workload}: unit of `{name}`");
            assert!(
                value.parse::<f64>().is_ok(),
                "{workload}: `{name}` = {value}"
            );
        }
        assert_eq!(
            self.metric("failed_frac"),
            Some(("0", "frac")),
            "{workload}"
        );
        let last = self.stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
            "{workload}: {last}"
        );
    }
}

/// A traced run prints every metric of both tables with its unit and no
/// failures; a second run on the same seed repeats the counters exactly
/// (when `exact` holds for the workload); seed 2 changes the input.
fn smoke(workload: &str, exact: bool) {
    let first = Run::new(workload, 1, true);
    first.assert_complete(workload);
    if exact {
        let again = Run::new(workload, 1, true);
        assert_eq!(first.fingerprint(), again.fingerprint(), "{workload}");
        assert_eq!(
            first.counters(),
            again.counters(),
            "{workload}: counters moved"
        );
    }
    let other = Run::new(workload, 2, false);
    assert_ne!(
        first.fingerprint(),
        other.fingerprint(),
        "{workload}: seed 2"
    );
    assert_eq!(
        other.metric("failed_frac"),
        Some(("0", "frac")),
        "{workload}"
    );
}

#[test]
fn astro() {
    smoke("astro", true);
}

#[test]
fn ooc() {
    smoke("ooc", true);
}

/// Two concurrent clients race for the cache, so the serve counters
/// depend on interleaving and are not compared across runs.
#[test]
fn serve() {
    smoke("serve", false);
}
