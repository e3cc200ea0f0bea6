//! Diagnostic vocabulary: codes, severities, and per-graph reports.

use simcluster::TaskId;

/// How bad a finding is.
///
/// `Error` means the graph violates an invariant the engine cannot
/// survive (the simulation would be lying or failing); `Warning` flags a
/// suspicious shape worth a human look; `Info` records an expected but
/// noteworthy property (e.g. "this engine will spill here").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Noteworthy but expected.
    Info,
    /// Suspicious; does not invalidate the plan.
    Warning,
    /// Invariant violation; the plan is wrong for this engine.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes, grouped by pass.
///
/// * `W…` — structure `TaskGraph::add` accepts (duplicate dependencies).
/// * `B…` — byte conservation (every byte read must be explainable).
/// * `M…` — memory-budget analysis against the cluster spec.
/// * `P…` — placement feasibility and skew.
/// * `E…` — engine-shape lints driven by the invariant profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// Duplicate dependency edge (double-counts transfer bytes).
    W004,
    /// Disk read with no matching disk write anywhere upstream.
    B002,
    /// Output bytes not explainable by visible inputs within the engine's
    /// format-conversion factor.
    B003,
    /// Concurrent pinned working set provably exceeds a node's memory.
    M001,
    /// Worst-case floating (unpinned) working set exceeds a node's memory.
    M002,
    /// A single task's footprint exceeds a node's memory outright.
    M003,
    /// Fits raw, but not after the engine's memory-requirement factor.
    M004,
    /// Placement pin outside the cluster's node range.
    P001,
    /// Unpinned task on an engine with fully static placement.
    P002,
    /// Tasks sharing a label mix pinned and floating placement.
    P003,
    /// Per-node input skew beyond the engine's tolerated ratio.
    P004,
    /// Data edge bypasses the stage barrier its producer feeds.
    E001,
    /// Barrier present on an engine whose model forbids global barriers.
    E002,
}

impl Code {
    /// The stable code string ("W004", …).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::W004 => "W004",
            Code::B002 => "B002",
            Code::B003 => "B003",
            Code::M001 => "M001",
            Code::M002 => "M002",
            Code::M003 => "M003",
            Code::M004 => "M004",
            Code::P001 => "P001",
            Code::P002 => "P002",
            Code::P003 => "P003",
            Code::P004 => "P004",
            Code::E001 => "E001",
            Code::E002 => "E002",
        }
    }

    /// Short human title for tables.
    pub fn title(self) -> &'static str {
        match self {
            Code::W004 => "duplicate dependency",
            Code::B002 => "phantom disk read",
            Code::B003 => "unexplained amplification",
            Code::M001 => "pinned memory overrun",
            Code::M002 => "floating memory pressure",
            Code::M003 => "task exceeds node memory",
            Code::M004 => "inflated footprint",
            Code::P001 => "pin out of range",
            Code::P002 => "unpinned on static engine",
            Code::P003 => "mixed placement for label",
            Code::P004 => "partition skew",
            Code::E001 => "stage-barrier bypass",
            Code::E002 => "forbidden barrier",
        }
    }

    /// Whether this is a memory-budget finding (M001–M004). Memory
    /// overruns are legitimate modeled outcomes (Figure 15's pipelined
    /// OOM), decided by the simulator; every other error is a lowering bug.
    pub fn is_memory(self) -> bool {
        matches!(self, Code::M001 | Code::M002 | Code::M003 | Code::M004)
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which check fired.
    pub code: Code,
    /// How bad it is (codes can fire at different severities depending on
    /// the engine profile, e.g. memory overruns on spilling engines).
    pub severity: Severity,
    /// Implicated task ids (truncated to the first few for large sets).
    pub tasks: Vec<TaskId>,
    /// Human-readable explanation with the offending numbers.
    pub message: String,
}

/// All findings for one lowered graph.
#[derive(Debug, Clone)]
pub struct Report {
    /// Engine name from the invariant profile the graph was checked under.
    pub engine: &'static str,
    /// Findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any error-severity finding fired.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the code `code` fired at any severity.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// (errors, warnings, infos) counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Info => c.2 += 1,
            }
        }
        c
    }

    /// One-line summary ("2 errors, 1 warning, 3 infos" or "clean").
    pub fn summary(&self) -> String {
        let (e, w, i) = self.counts();
        if e + w + i == 0 {
            "clean".into()
        } else {
            format!("{e} error{}, {w} warning{}, {i} info{}", s(e), s(w), s(i))
        }
    }

    /// Render every finding as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let tasks = if d.tasks.is_empty() {
                String::from("-")
            } else {
                d.tasks
                    .iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&format!(
                "{:<5} {:<8} {:<26} tasks[{tasks}] {}\n",
                d.code.as_str(),
                d.severity.to_string(),
                d.code.title(),
                d.message
            ));
        }
        out
    }
}

fn s(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: Code, severity: Severity) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            tasks: vec![1, 2],
            message: "m".into(),
        }
    }

    #[test]
    fn report_counts_and_summary() {
        let r = Report {
            engine: "Test",
            diagnostics: vec![
                diag(Code::B002, Severity::Error),
                diag(Code::B003, Severity::Warning),
                diag(Code::M004, Severity::Info),
            ],
        };
        assert!(r.has_errors());
        assert!(r.has(Code::B003));
        assert!(!r.has(Code::E001));
        assert_eq!(r.counts(), (1, 1, 1));
        assert_eq!(r.summary(), "1 error, 1 warning, 1 info");
        let t = r.render_table();
        assert!(t.contains("B002") && t.contains("phantom disk read"), "{t}");
    }

    #[test]
    fn clean_report() {
        let r = Report {
            engine: "Test",
            diagnostics: vec![],
        };
        assert!(!r.has_errors());
        assert_eq!(r.summary(), "clean");
        assert_eq!(r.render_table(), "");
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }
}
