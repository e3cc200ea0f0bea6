//! One run's result: metric values, failure accounting, and the output
//! both for people (`name value unit` lines) and for tools (a final
//! one-line JSON object).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

use crate::json::{escape, num};
use crate::spec::{metric, END_TO_END, PER_LAYER};

/// The outcome of one `run`.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Ops attempted (warm-up ops included).
    pub attempted: usize,
    /// One line per failed op: panicked, refused or wrong.
    pub failures: Vec<String>,
    /// Ops whose output was wrong (a subset of `failures`).
    pub wrong: usize,
    /// Fingerprint of the generated input bytes.
    pub input_fingerprint: u64,
    /// Measured metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Self time per layer, in milliseconds (traced runs only).
    pub layer_self_ms: BTreeMap<&'static str, f64>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Report {
        Report {
            workload,
            seed,
            traced,
            attempted: 0,
            failures: Vec::new(),
            wrong: 0,
            input_fingerprint: 0,
            values: BTreeMap::new(),
            layer_self_ms: BTreeMap::new(),
        }
    }

    /// Record a metric. Names come from the spec tables; anything else is
    /// a bug in the suite.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            metric(name).is_some(),
            "metric `{name}` is not in the spec tables"
        );
        self.values.insert(name, value);
    }

    /// Whether every checked output was right.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// The metrics this run reports in its result line: the end-to-end table
    /// untraced, the per-layer table traced. A metric that does not apply
    /// to the workload reads 0.
    fn reported(&self) -> Vec<(&'static str, &'static str, f64)> {
        let table = if self.traced { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    self.values.get(m.name).copied().unwrap_or(0.0),
                )
            })
            .collect()
    }

    fn metrics_json(items: &[(&'static str, &'static str, f64)]) -> String {
        let body: Vec<String> = items
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(name),
                    num(*v),
                    escape(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            Self::metrics_json(&self.reported())
        )
    }

    /// The `--out` document: the result line's fields plus the workload,
    /// seed, trace flag, input fingerprint and every metric measured (a
    /// traced run keeps its end-to-end readings too, which is how
    /// `compare` measures tracing overhead).
    pub fn out_json(&self) -> String {
        let all: Vec<(&'static str, &'static str, f64)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter_map(|m| self.values.get(m.name).map(|v| (m.name, m.unit, *v)))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"input_fingerprint\": \
             \"{:016x}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
            escape(self.workload),
            self.seed,
            self.traced,
            self.input_fingerprint,
            self.correct(),
            self.attempted,
            self.failures.len(),
            Self::metrics_json(&all)
        )
    }

    /// Print the human-readable lines, then the result line last.
    pub fn print(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "input_fingerprint {:016x}", self.input_fingerprint)?;
        for f in &self.failures {
            writeln!(out, "FAILED {f}")?;
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.values.get(m.name) {
                writeln!(out, "{} {} {}", m.name, num(*v), m.unit)?;
            } else if self.traced || m.bound.is_some() {
                writeln!(
                    out,
                    "{} 0 {} (not applicable to {})",
                    m.name, m.unit, self.workload
                )?;
            }
        }
        let failed_frac = crate::util::ratio(self.failures.len() as f64, self.attempted as f64);
        writeln!(out, "failed_frac {} frac", num(failed_frac))?;
        if !self.layer_self_ms.is_empty() {
            let total: f64 = self.layer_self_ms.values().sum();
            writeln!(out, "layer self time (ms, share of traced op time):")?;
            for (layer, ms) in &self.layer_self_ms {
                writeln!(
                    out,
                    "  {layer:<18} {ms:>12.3} {:>7.2}%",
                    100.0 * crate::util::ratio(*ms, total)
                )?;
            }
        }
        writeln!(out, "{}", self.result_line())
    }

    /// Write the `--out` document.
    pub fn write_out(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.out_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let mut r = Report::new("ooc", 1, false);
        r.attempted = 4;
        r.set("ops_per_s", 2.5);
        let doc = Json::parse(&r.result_line()).expect("valid JSON");
        assert_eq!(doc.keys(), ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").expect("metrics");
        let names: Vec<&str> = metrics.keys();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        let ops = metrics.get("ops_per_s").expect("ops_per_s");
        assert_eq!(ops.get("value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(ops.get("unit").and_then(Json::as_str), Some("1/s"));

        let traced = Report::new("ooc", 1, true);
        let doc = Json::parse(&traced.result_line()).expect("valid JSON");
        assert_eq!(
            doc.get("metrics").map(|m| m.keys().len()),
            Some(PER_LAYER.len())
        );
    }

    #[test]
    #[should_panic(expected = "not in the spec tables")]
    fn unknown_metric_names_are_bugs() {
        Report::new("ooc", 1, false).set("no_such_metric", 1.0);
    }
}
