//! Suppression filtering, per-crate summaries, and JSON output.

use std::collections::BTreeMap;

use crate::flow::{FlowFinding, FlowStats};
use crate::rules::{rule, Finding};
use crate::source::SourceFile;

/// The outcome of an analysis run: surviving findings plus bookkeeping.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that were not covered by a valid suppression, in
    /// (path, line, rule) order. Includes the F-family (flow) findings.
    pub findings: Vec<Finding>,
    /// Count of findings that *were* suppressed, per rule id.
    pub suppressed: BTreeMap<String, usize>,
    /// Number of files analyzed.
    pub files: usize,
    /// Surviving interprocedural findings with their witness chains (the
    /// same findings also appear in `findings`, chain rendered into the
    /// message).
    pub flow_findings: Vec<FlowFinding>,
    /// Call-graph and effect-lattice statistics from the flow pass.
    pub flow_stats: FlowStats,
}

impl Report {
    /// Apply the suppression policy to `raw` findings from `files`.
    ///
    /// A `// scilint: allow(RULE, reason)` comment covers findings of RULE
    /// from the comment's own line to the end of the statement that follows
    /// it (see [`crate::source::Suppression::covers`]), so multi-line
    /// chained calls and signatures cannot silently escape. Malformed
    /// suppressions (S001/S002) and suppressions that matched nothing
    /// (S003) become findings themselves, so the gate stays exact.
    pub fn build(files: &[SourceFile], mut raw: Vec<Finding>) -> Report {
        let mut report = Report {
            files: files.len(),
            ..Report::default()
        };

        for file in files {
            let mut used = vec![false; file.suppressions.len()];
            raw.retain(|f| {
                if f.path != file.path {
                    return true;
                }
                // Every covering suppression is marked used (stacked allows
                // above one statement must not go S003-stale), the finding
                // is counted suppressed once.
                let mut matched = false;
                for (ix, s) in file.suppressions.iter().enumerate() {
                    if s.rule == f.rule && s.covers(f.line) {
                        used[ix] = true;
                        if !matched {
                            *report.suppressed.entry(s.rule.clone()).or_insert(0) += 1;
                        }
                        matched = true;
                    }
                }
                !matched
            });
            for b in &file.bad_suppressions {
                raw.push(Finding {
                    rule: if b.code == "S002" { "S002" } else { "S001" },
                    path: file.path.clone(),
                    crate_name: file.crate_name.clone(),
                    line: b.line,
                    message: b.message.clone(),
                });
            }
            for (ix, s) in file.suppressions.iter().enumerate() {
                if !used[ix] {
                    raw.push(Finding {
                        rule: "S003",
                        path: file.path.clone(),
                        crate_name: file.crate_name.clone(),
                        line: s.line,
                        message: format!(
                            "allow({}) matched no finding; remove the stale suppression",
                            s.rule
                        ),
                    });
                }
            }
        }

        raw.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
        });
        report.findings = raw;
        report
    }

    /// True when the gate should pass.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// One line per crate: `crate: N findings (rule×k ...), M suppressed` —
    /// the CI-log summary. Clean crates are folded into a single line.
    pub fn crate_summary(&self) -> String {
        let mut per_crate: BTreeMap<&str, BTreeMap<&str, usize>> = BTreeMap::new();
        for f in &self.findings {
            *per_crate
                .entry(f.crate_name.as_str())
                .or_default()
                .entry(f.rule)
                .or_insert(0) += 1;
        }
        let mut out = String::new();
        for (krate, rules) in &per_crate {
            let detail = rules
                .iter()
                .map(|(r, n)| format!("{r}×{n}"))
                .collect::<Vec<_>>()
                .join(", ");
            let total: usize = rules.values().sum();
            out.push_str(&format!(
                "scilint: {krate}: {total} finding(s) [{detail}]\n"
            ));
        }
        let suppressed: usize = self.suppressed.values().sum();
        out.push_str(&format!(
            "scilint: {} file(s), {} finding(s), {} suppressed\n",
            self.files,
            self.findings.len(),
            suppressed
        ));
        out
    }

    /// Full human-readable listing, one finding per line.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: {} [{}] {}\n",
                f.path,
                f.line,
                f.rule,
                rule(f.rule).map_or("?", |r| r.family.name()),
                f.message
            ));
        }
        out
    }

    /// Machine-readable report, schema `scilint/v1`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"scilint/v1\",\n");
        s.push_str(&format!("  \"files\": {},\n", self.files));
        s.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        s.push_str("  \"suppressed\": {");
        let mut first = true;
        for (r, n) in &self.suppressed {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\n    \"{r}\": {n}"));
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str("  \"findings\": [");
        let mut first = true;
        for f in &self.findings {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"crate\": \"{}\", \"path\": \"{}\", \"line\": {}, \
                 \"message\": \"{}\"}}",
                f.rule,
                escape(&f.crate_name),
                escape(&f.path),
                f.line,
                escape(&f.message)
            ));
        }
        s.push_str(if first { "]\n}\n" } else { "\n  ]\n}\n" });
        s
    }

    /// True when no F-family finding survived suppression.
    pub fn is_flow_clean(&self) -> bool {
        self.flow_findings.is_empty()
    }

    /// Human-readable flow listing: one finding per block, witness chain
    /// rendered hop by hop.
    pub fn flow_listing(&self) -> String {
        let mut out = String::new();
        for f in &self.flow_findings {
            out.push_str(&format!(
                "{}:{}: {} [{}] sink `{}`\n",
                f.path,
                f.line,
                f.rule,
                f.effect.name(),
                f.sink
            ));
            for (i, hop) in f.chain.iter().enumerate() {
                let marker = if i == 0 { "root" } else { "  ->" };
                out.push_str(&format!(
                    "    {marker} {} ({}:{})\n",
                    hop.name, hop.path, hop.line
                ));
            }
        }
        out
    }

    /// One-line flow summary for CI logs.
    pub fn flow_summary(&self) -> String {
        let t = &self.flow_stats.tagged;
        let suppressed: usize = self
            .suppressed
            .iter()
            .filter(|(r, _)| r.starts_with('F'))
            .map(|(_, n)| n)
            .sum();
        format!(
            "sciflow: {} fn(s), {} edge(s), {} root(s); tagged panics={} nondet={} copies={} \
             spawns={}; {} finding(s), {} suppressed\n",
            self.flow_stats.functions,
            self.flow_stats.edges,
            self.flow_stats.roots,
            t.get("panics").copied().unwrap_or(0),
            t.get("nondet").copied().unwrap_or(0),
            t.get("copies").copied().unwrap_or(0),
            t.get("spawns").copied().unwrap_or(0),
            self.flow_findings.len(),
            suppressed
        )
    }

    /// Machine-readable interprocedural report, schema `sciflow/v1`:
    /// call-graph stats, per-effect tagged-function counts, and every
    /// surviving finding with its structured witness chain.
    pub fn to_flow_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"sciflow/v1\",\n");
        s.push_str(&format!(
            "  \"functions\": {},\n",
            self.flow_stats.functions
        ));
        s.push_str(&format!("  \"edges\": {},\n", self.flow_stats.edges));
        s.push_str(&format!("  \"roots\": {},\n", self.flow_stats.roots));
        s.push_str("  \"tagged\": {");
        let mut first = true;
        for (e, n) in &self.flow_stats.tagged {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\n    \"{e}\": {n}"));
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str(&format!("  \"clean\": {},\n", self.is_flow_clean()));
        s.push_str("  \"suppressed\": {");
        let mut first = true;
        for (r, n) in self.suppressed.iter().filter(|(r, _)| r.starts_with('F')) {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\n    \"{r}\": {n}"));
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str("  \"findings\": [");
        let mut first = true;
        for f in &self.flow_findings {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"effect\": \"{}\", \"crate\": \"{}\", \
                 \"path\": \"{}\", \"line\": {}, \"sink\": \"{}\", \"chain\": [",
                f.rule,
                f.effect.name(),
                escape(&f.crate_name),
                escape(&f.path),
                f.line,
                escape(&f.sink)
            ));
            let mut first_hop = true;
            for hop in &f.chain {
                if !first_hop {
                    s.push_str(", ");
                }
                first_hop = false;
                s.push_str(&format!(
                    "{{\"fn\": \"{}\", \"path\": \"{}\", \"line\": {}}}",
                    escape(&hop.name),
                    escape(&hop.path),
                    hop.line
                ));
            }
            s.push_str("]}");
        }
        s.push_str(if first { "]\n}\n" } else { "\n  ]\n}\n" });
        s
    }
}

/// Escape `s` for use inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;

    fn lint_one(src: &str, enabled: &[&str]) -> Report {
        let f = SourceFile::parse("m.rs", "demo", FileKind::Library, src);
        let mut raw = Vec::new();
        crate::rules::check_file(&f, enabled, &mut raw);
        Report::build(&[f], raw)
    }

    #[test]
    fn suppression_consumes_finding() {
        let r = lint_one(
            "// scilint: allow(D001, lookup-only, order never observed)\nuse std::collections::HashMap;\n",
            &["D001"],
        );
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.suppressed.get("D001"), Some(&1));
    }

    #[test]
    fn stale_suppression_is_s003() {
        let r = lint_one(
            "// scilint: allow(D001, nothing here)\nlet x = 1;\n",
            &["D001"],
        );
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "S003");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = lint_one("use std::collections::HashMap;\n", &["D001"]);
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"scilint/v1\""));
        assert!(j.contains("\"rule\": \"D001\""));
        assert!(j.contains("\"clean\": false"));
    }

    #[test]
    fn summary_mentions_crate() {
        let r = lint_one("use std::collections::HashMap;\n", &["D001"]);
        let s = r.crate_summary();
        assert!(s.contains("demo"), "{s}");
        assert!(s.contains("D001"), "{s}");
    }
}
